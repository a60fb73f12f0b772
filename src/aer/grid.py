"""Uniform 2D tensor grids, scalar fields, difference operators and norms.

The domain is the rectangle [x0, x1] x [-a, a].  The x direction is periodic
with period L = x1 - x0: node column i = n is the same physical line as
column i = 0, and every periodic operator reads column 0 in place of column
n.  The y direction carries boundary rows at y = -a and y = a.

Fields store samples at the (n+1) x (m+1) nodes with axis 0 along x and
axis 1 along y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroNormError


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid on [x0, x1] x [-a, a], periodic in x."""

    x0: float
    x1: float
    a: float
    n: int
    m: int

    def __post_init__(self):
        if self.n < 2 or self.m < 2:
            raise ValueError("need n >= 2 and m >= 2")
        if not self.x1 > self.x0:
            raise ValueError("need x1 > x0")
        if not self.a > 0:
            raise ValueError("need a > 0")

    @property
    def d1(self) -> float:
        return (self.x1 - self.x0) / self.n

    @property
    def d2(self) -> float:
        return 2.0 * self.a / self.m

    @cached_property
    def xs(self) -> np.ndarray:
        return self.x0 + self.d1 * np.arange(self.n + 1)

    @cached_property
    def ys(self) -> np.ndarray:
        return -self.a + self.d2 * np.arange(self.m + 1)

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights so sum(w * v) approximates the integral over
        one period times the y extent.  Boundary rows and the duplicated
        x endpoints get half weight, which is exact periodic trapezoid in x."""
        wx = np.full(self.n + 1, self.d1)
        wx[0] = wx[-1] = 0.5 * self.d1
        wy = np.full(self.m + 1, self.d2)
        wy[0] = wy[-1] = 0.5 * self.d2
        return np.outer(wx, wy)

@dataclass
class Field2D:
    """Scalar samples bound to a grid, optionally stamped with a time."""

    grid: Grid2D
    values: np.ndarray
    time: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expect = (self.grid.n + 1, self.grid.m + 1)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape}, expected {expect}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite samples")

    @classmethod
    def from_function(cls, grid: Grid2D, fn, time: float | None = None) -> "Field2D":
        X, Y = grid.meshgrid()
        return cls(grid, np.asarray(fn(X, Y), dtype=float), time)

    def restrict(self, coarse: Grid2D) -> "Field2D":
        """Sample onto a coarser grid whose nodes are a subset of this one."""
        fx, rx = divmod(self.grid.n, coarse.n)
        fy, ry = divmod(self.grid.m, coarse.m)
        if rx or ry or not np.isclose(self.grid.d1 * fx, coarse.d1) \
                or not np.isclose(self.grid.d2 * fy, coarse.d2):
            raise ValueError("grids are not nested")
        return Field2D(coarse, self.values[::fx, ::fy].copy(), self.time)


@dataclass(frozen=True)
class RegionMask:
    """Retained y rows around an excluded band: 0..j_lo and j_hi..m."""

    j_lo: int
    j_hi: int

    def __post_init__(self):
        if not (0 <= self.j_lo < self.j_hi):
            raise ValueError("need 0 <= j_lo < j_hi")

    def validate(self, grid: Grid2D):
        if self.j_hi > grid.m:
            raise ValueError("mask exceeds grid rows")

    def lower_rows(self) -> np.ndarray:
        return np.arange(0, self.j_lo + 1)

    def upper_rows(self, m: int) -> np.ndarray:
        return np.arange(self.j_hi, m + 1)

    def retained_rows(self, m: int) -> np.ndarray:
        return np.r_[self.lower_rows(), self.upper_rows(m)]


# ---------------------------------------------------------------------------
# difference operators
#
# x stencils identify column n with column 0 and wrap; callers must supply
# x-periodic data or accept the seam jump that the wrap produces.
# y stencils are central inside and one-sided second order on the boundary
# rows, so first differences are exact on linears and second differences on
# quadratics (the one-sided 4-point stencil is exact through cubics).


def diff_x_values(v: np.ndarray, d1: float) -> np.ndarray:
    core = v[:-1]
    out = (np.roll(core, -1, axis=0) - np.roll(core, 1, axis=0)) / (2.0 * d1)
    return np.vstack([out, out[:1]])


def diff_y_values(v: np.ndarray, d2: float) -> np.ndarray:
    out = np.empty_like(v)
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * d2)
    out[:, 0] = (-3.0 * v[:, 0] + 4.0 * v[:, 1] - v[:, 2]) / (2.0 * d2)
    out[:, -1] = (3.0 * v[:, -1] - 4.0 * v[:, -2] + v[:, -3]) / (2.0 * d2)
    return out


def diff2_y_values(v: np.ndarray, d2: float) -> np.ndarray:
    out = np.empty_like(v)
    out[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / d2 ** 2
    if v.shape[1] >= 4:
        out[:, 0] = (2.0 * v[:, 0] - 5.0 * v[:, 1] + 4.0 * v[:, 2] - v[:, 3]) / d2 ** 2
        out[:, -1] = (2.0 * v[:, -1] - 5.0 * v[:, -2] + 4.0 * v[:, -3] - v[:, -4]) / d2 ** 2
    else:
        # three rows: fall back to the centered stencil for the edge rows
        out[:, 0] = out[:, 1]
        out[:, -1] = out[:, 1]
    return out


def l2_norm(f: Field2D) -> float:
    return float(np.sqrt(np.sum(f.grid.trapezoid_weights * f.values ** 2)))


def rel_l2_error(approx: Field2D, exact: Field2D) -> float:
    """Relative discrete L2 error ||approx - exact|| / ||exact||."""
    if approx.grid != exact.grid:
        raise ValueError("fields live on different grids")
    denom = l2_norm(exact)
    if denom == 0.0:
        raise ZeroNormError("zero-norm reference")
    diff = Field2D(approx.grid, approx.values - exact.values)
    return l2_norm(diff) / denom
