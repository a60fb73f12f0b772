"""Interior-layer asymptotics for the model equation

    mu * lap(u) - u_t = -u * (k u_x + u_y) + f(x, y)

on the strip R x [-a, a], x-periodic with period L, with Dirichlet data
u = u_minus_a(x) < 0 on the bottom edge and u = u_plus_a(x) > 0 on the top.

The solution forms a moving front y = h0(x, t) separating two smooth outer
branches.  This module computes, to leading order:

  * the outer branches phi (one per side) by integrating f along the
    straight characteristics dy/dx = 1/k that emanate from the y boundary;
    every point value (eval_phi, the assumption check, outer_branches on a
    grid, the layer jump, the transport coefficients) comes from one
    vectorised composite 16-point Gauss-Legendre engine, _char_integral,
    and the bicubic lookup tables that the front equation reads are built
    by an aligned row recursion and checked against it,
  * the front motion h0(x, t) from a first order evolution equation,
  * the logistic layer profile joining the branches across the front and
    the resulting layer width,
  * the first order outer correction obtained by transport along the same
    characteristics.

Expressions for f and the boundary traces are evaluated at raw arguments,
without wrapping into [x0, x1]; this is what makes the closed forms for the
worked examples hold, and it mirrors how the branch formulas extend the
data along characteristics that leave the fundamental period.

Nothing is cached between calls: phi_table builds the table it is asked
for, and a caller that needs the branches on a grid twice evaluates
outer_branches once and passes the result on (assemble_u0 takes it as an
argument), so every result depends on the call's inputs alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation, NumericalError
from .expr import Expr
from .grid import Field2D, Grid2D

QUAD_TOL = 1e-10         # characteristic-integral tolerance
TABLE_INTERP_TOL = 1e-6  # required bicubic interpolation accuracy
FRONT_REFINE = 4         # front nodes per observation-grid cell in x
FRONT_CFL = 0.4          # CFL number of the front solver
U1_TOL = 1e-8            # first-order correction quadrature tolerance
U1_MAX_LEVEL = 12        # at most 32 * 2^11 intervals per characteristic
_EXP_CLIP = 700.0


@dataclass(frozen=True)
class ProblemSpec:
    """All model inputs: geometry, coefficients, boundary data, source."""

    mu: float
    k: float
    x0: float
    x1: float
    a: float
    T: float
    u_minus_a: Expr
    u_plus_a: Expr
    f: Expr
    h0_star: float
    t0: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if self.mu > 0.5:
            warnings.warn(f"mu = {self.mu} is not small; expansions may be meaningless")
        if not self.k > 0:
            raise ValueError("k must be positive")
        if not self.x1 > self.x0:
            raise ValueError("need x1 > x0")
        if not self.a > 0:
            raise ValueError("need a > 0")
        if not self.T > 0:
            raise ValueError("need T > 0")
        if not -self.a < self.h0_star < self.a:
            raise ValueError("h0_star must lie strictly inside (-a, a)")
        if not 0 < self.t0 <= self.T:
            raise ValueError("t0 must lie in (0, T]")
        for name, tr in (("u_minus_a", self.u_minus_a), ("u_plus_a", self.u_plus_a)):
            xs = self.x0 + (self.x1 - self.x0) * np.linspace(0.0, 1.0, 65)
            v0 = np.atleast_1d(tr(xs, 0.0 * xs))
            if not np.all(np.isfinite(v0)):
                raise AssumptionViolation(f"{name} is not finite on [x0, x1]")
            v1 = np.atleast_1d(tr(xs + (self.x1 - self.x0), 0.0 * xs))
            scale = max(1.0, float(np.max(np.abs(v0))))
            if not np.max(np.abs(v1 - v0)) <= 1e-9 * scale:
                raise ValueError(f"{name} is not periodic with period L = {self.length}")

    @property
    def length(self) -> float:
        return self.x1 - self.x0

    def grid(self, n: int, m: int) -> Grid2D:
        return Grid2D(self.x0, self.x1, self.a, n, m)


@dataclass
class AssumptionReport:
    """Outcome of a solvability check; violations are data, not exceptions."""

    name: str
    ok: bool
    details: dict
    messages: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# characteristic-line quadrature

# positive nodes and their weights of the 16-point Gauss-Legendre rule on
# [-1, 1]; the rule is symmetric
_GL16_HALF_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_GL16_HALF_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
_GL16_NODES = np.concatenate([-_GL16_HALF_NODES[::-1], _GL16_HALF_NODES])
_GL16_WEIGHTS = np.concatenate([_GL16_HALF_WEIGHTS[::-1], _GL16_HALF_WEIGHTS])
QUAD_MAX_LEVEL = 10          # at most 2^10 panels, 16384 nodes per point
QUAD_CALL_POINTS = 1 << 20   # at most this many evaluation points per call of f


def _char_integral(fxy, X, Y, E, k):
    """integral of f(s, Y + (s - X)/k) ds from s = X to s = E, elementwise.

    Composite 16-point Gauss-Legendre rule on 1, 2, 4, ... equal panels of
    the unit parameter t, s = X + t (E - X).  A point stops refining when
    two successive levels agree to QUAD_TOL, or when its value is not
    finite (it cannot converge; it is returned as it is and rejected by the
    radicand checks).  The points still refining are evaluated in chunks of
    at most QUAD_CALL_POINTS nodes per call of f.
    """
    X = np.asarray(X, dtype=float).ravel()
    Y = np.asarray(Y, dtype=float).ravel()
    L = np.asarray(E, dtype=float).ravel() - X
    out = np.empty_like(X)
    active = np.arange(X.size)
    prev = None
    for level in range(QUAD_MAX_LEVEL + 1):
        panels = 2 ** level
        t = ((np.arange(panels)[:, None] + 0.5 + 0.5 * _GL16_NODES) / panels).ravel()
        w = np.tile(_GL16_WEIGHTS, panels) / (2.0 * panels)
        val = np.empty(active.size)
        chunk = max(1, QUAD_CALL_POINTS // t.size)
        for lo in range(0, active.size, chunk):
            idx = active[lo:lo + chunk]
            S = X[idx, None] + t * L[idx, None]
            # einsum, not a BLAS product: no thread pool for a weighted sum
            val[lo:lo + chunk] = np.einsum(
                "ij,j->i", fxy(S, Y[idx, None] + (S - X[idx, None]) / k), w)
        done = ~np.isfinite(val)
        with np.errstate(invalid="ignore"):     # inf - inf, inf * 0: nan, as meant
            if prev is not None:
                done |= np.abs((val - prev) * L[active]) <= QUAD_TOL
            out[active[done]] = val[done] * L[active[done]]
        active, prev = active[~done], val[~done]
        if active.size == 0:
            return out
    warnings.warn("characteristic integral did not reach requested tolerance")
    out[active] = prev * L[active]
    return out


def _boundary_foot(spec: ProblemSpec, side: str, X, Y):
    """Where the characteristic through (X, Y) meets its branch's boundary
    (y = -a for 'minus', y = a for 'plus'): the x coordinate there, and the
    boundary trace at it."""
    if side == "minus":
        foot = X - spec.k * (spec.a + Y)
        return foot, spec.u_minus_a(foot, 0.0 * foot)
    if side == "plus":
        foot = X + spec.k * (spec.a - Y)
        return foot, spec.u_plus_a(foot, 0.0 * foot)
    raise ValueError("side must be 'minus' or 'plus'")


def _radicand(spec: ProblemSpec, side: str, X, Y):
    """Quantity under the square root of the outer-branch formula."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    X, Y = np.broadcast_arrays(X, Y)
    endpoint, trace = _boundary_foot(spec, side, X, Y)
    integral = _char_integral(spec.f, X, Y, endpoint, spec.k)
    rad = np.asarray(trace, dtype=float).ravel() ** 2 - (2.0 / spec.k) * integral
    return rad.reshape(X.shape), X, Y


def eval_phi(spec: ProblemSpec, side: str, x, y):
    """Outer branch of the reduced (mu = 0) equation on the given side.

    side 'minus' is the negative branch anchored at y = -a, side 'plus'
    the positive branch anchored at y = a.  Raises AssumptionViolation
    where the radicand is not positive.
    """
    rad, X, Y = _radicand(spec, side, x, y)
    flat = np.atleast_1d(rad)
    if not np.all(flat > 0.0):      # nan radicands fail as well
        i = int(np.argmin(flat))    # argmin picks the first nan, if any
        xb = np.atleast_1d(X).ravel()[i]
        yb = np.atleast_1d(Y).ravel()[i]
        raise AssumptionViolation(
            f"Assumption 2 violated at ({xb:.6g}, {yb:.6g}): radicand {flat[i]:.6g}")
    out = np.sqrt(rad) if side == "plus" else -np.sqrt(rad)
    return float(out) if np.ndim(x) == 0 and np.ndim(y) == 0 else out


def check_assumption1(spec: ProblemSpec) -> AssumptionReport:
    """Boundary traces: negative below, positive above, gap above 2 mu^2,
    at 1024 uniform samples of one period."""
    xs = spec.x0 + spec.length * np.arange(1024) / 1024
    um = np.atleast_1d(spec.u_minus_a(xs, 0.0 * xs))
    up = np.atleast_1d(spec.u_plus_a(xs, 0.0 * xs))
    gap_margin = float(np.min(up - um) - 2.0 * spec.mu ** 2)
    details = {
        "max_u_minus": float(np.max(um)),
        "min_u_plus": float(np.min(up)),
        "gap_margin": gap_margin,
    }
    messages = []
    if not details["max_u_minus"] < 0.0:
        messages.append("u^{-a} not negative")
    if not details["min_u_plus"] > 0.0:
        messages.append("u^{a} not positive")
    if not gap_margin > 0.0:
        messages.append("trace gap does not exceed 2*mu^2")
    return AssumptionReport("assumption1", not messages, details, messages)


def check_assumption2(spec: ProblemSpec) -> AssumptionReport:
    """Positivity of the branch radicands on a 64 x 65 sample grid.

    A nan radicand (a source or trace undefined somewhere along a
    characteristic) counts as a violation.
    """
    gx = spec.x0 + spec.length * np.arange(64) / 64
    gy = np.linspace(-spec.a, spec.a, 65)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    rad_minus, _, _ = _radicand(spec, "minus", X, Y)
    rad_plus, _, _ = _radicand(spec, "plus", X, Y)
    details = {
        "min_radicand_minus": float(np.min(rad_minus)),
        "min_radicand_plus": float(np.min(rad_plus)),
    }
    messages = []
    if not details["min_radicand_minus"] > 0.0:
        messages.append("lower-branch radicand not positive")
    if not details["min_radicand_plus"] > 0.0:
        messages.append("upper-branch radicand not positive")
    return AssumptionReport("assumption2", not messages, details, messages)


# ---------------------------------------------------------------------------
# lookup tables for the outer branches

_GAUSS4_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                          0.3399810435848563, 0.8611363115940526])
_GAUSS4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                            0.6521451548625461, 0.3478548451374538])


def _aligned_layout(spec: ProblemSpec, n: int):
    """Pick (nx, ny, p) with dx = k dy / p so characteristics hit nodes.

    Returns None when no small integer stride p makes the row count whole;
    the builder then falls back to per-node quadrature.
    """
    ratio = 2.0 * spec.a * spec.k / spec.length   # ny = ratio * nx / p
    best = None
    for p in range(1, 17):
        ny_f = ratio * n / p
        ny = int(round(ny_f))
        if ny < 8 or abs(ny_f - ny) > 1e-9 * max(1.0, ny_f):
            continue
        score = abs(ny - n)
        if best is None or score < best[3]:
            best = (n, ny, p, score)
    if best is None:
        return None
    return best[:3]


def _aligned_branch_integral(spec: ProblemSpec, side: str, nx: int, ny: int, p: int):
    """Characteristic integral of f on the table grid by row recursion.

    With dx = k dy / p the characteristic through node (i, j) meets node
    (i -/+ p, j -/+ 1), so the line integral to the y boundary accumulates
    one short Gauss segment per row, walking away from the branch's
    boundary row (step -1 for 'minus', whose boundary is the bottom row, +1
    for 'plus').  Columns are extended beyond the period, on the side the
    characteristics come from, because f is evaluated at raw (unwrapped)
    arguments.
    """
    dx = spec.length / nx
    dy = 2.0 * spec.a / ny
    ext = p * ny
    half = 0.5 * spec.k * dy
    step = 1 if side == "plus" else -1
    lo = 0 if step > 0 else ext                  # column of x0
    xs_ext = spec.x0 + dx * (np.arange(nx + 1 + ext) - lo)
    mid = xs_ext + step * half
    wrapped = slice(-p, None) if step > 0 else slice(0, p)
    out = np.zeros((nx + 1, ny + 1))
    row = np.zeros_like(xs_ext)
    for j in (range(ny - 1, -1, -1) if step > 0 else range(1, ny + 1)):
        y = -spec.a + j * dy
        seg = np.zeros_like(xs_ext)
        for t, w in zip(_GAUSS4_NODES, _GAUSS4_WEIGHTS):
            s = mid + half * t
            seg += w * spec.f(s, y + (s - xs_ext) / spec.k)
        row = np.roll(row, -step * p)
        row[wrapped] = 0.0
        row = row + half * seg
        out[:, j] = row[lo:lo + nx + 1]
    return step * out    # the minus integral runs from x down to the boundary


def _not_a_knot_curvature(y: np.ndarray, h: float) -> np.ndarray:
    """Second derivatives M, along axis 0, of the not-a-knot cubic spline
    through y on n + 1 uniform nodes of spacing h, n >= 4.

    The inner rows are the C2 conditions M[i-1] + 4 M[i] + M[i+1] = r[i],
    r = 6 (second difference of y) / h^2.  The not-a-knot end row
    M[0] - 2 M[1] + M[2] = 0 (third derivative continuous at the second
    node; de Boor, A Practical Guide to Splines, ch. IV) subtracted from the
    first inner row gives M[1] = r[1] / 6, and likewise at the other end, so
    what is left is a (1, 4, 1) tridiagonal system for M[2..n-2], solved by
    elimination in a loop over rows (vectorised over the other axes).
    """
    n = y.shape[0] - 1
    r = (y[:-2] - 2.0 * y[1:-1] + y[2:]) * (6.0 / h ** 2)     # rows 1..n-1
    m = np.empty_like(y)
    m[1] = r[0] / 6.0
    m[n - 1] = r[-1] / 6.0
    rhs = r[1:-1].copy()                                      # rows 2..n-2
    rhs[0] -= m[1]
    rhs[-1] -= m[n - 1]
    diag = np.full(n - 3, 4.0)
    for i in range(1, n - 3):
        diag[i] -= 1.0 / diag[i - 1]
        rhs[i] -= rhs[i - 1] / diag[i - 1]
    m[n - 2] = rhs[-1] / diag[-1]
    for i in range(n - 5, -1, -1):
        m[i + 2] = (rhs[i] - m[i + 3]) / diag[i]
    m[0] = 2.0 * m[1] - m[2]
    m[n] = 2.0 * m[n - 1] - m[n - 2]
    return m


def _cell_cubics(y, m, h):
    """Power-basis coefficients (1, t, t^2, t^3) along axis 0 of the cubic on
    each cell of width h, from the end values y and second derivatives m;
    t is the offset in the cell over h."""
    c = h ** 2 / 6.0
    return [y[:-1],
            y[1:] - y[:-1] - c * (2.0 * m[:-1] + m[1:]),
            3.0 * c * m[:-1],
            c * (m[1:] - m[:-1])]


class _BicubicSpline:
    """Not-a-knot tensor cubic spline through values[i, j] at
    (x0 + i hx, y0 + j hy): the s = 0 bicubic of FITPACK (de Boor, ch. XVII).

    Stored as 16 power-basis coefficients per cell, so a query is one gather
    and two Horner passes.  Queries must lie on the grid's rectangle.
    """

    def __init__(self, values: np.ndarray, x0: float, y0: float, hx: float, hy: float):
        self.x0, self.y0, self.hx, self.hy = x0, y0, hx, hy
        nx, ny = (s - 1 for s in values.shape)
        self.nx, self.ny = nx, ny
        # second derivatives at the nodes (in x, in y and mixed), then the
        # cubics along x of the values and of their y derivatives, then the
        # cubics along y of each of those coefficients
        m_y = _not_a_knot_curvature(values.T, hy).T
        in_x = zip(_cell_cubics(values, _not_a_knot_curvature(values, hx), hx),
                   _cell_cubics(m_y, _not_a_knot_curvature(m_y, hx), hx))
        coef = [q for v, m in in_x for q in _cell_cubics(v.T, m.T, hy)]
        self._coef = np.stack(coef, axis=-1).transpose(1, 0, 2).reshape(nx * ny, 16)

    def __call__(self, x, y):
        tx, ty = np.broadcast_arrays((np.asarray(x, dtype=float) - self.x0) / self.hx,
                                     (np.asarray(y, dtype=float) - self.y0) / self.hy)
        i = np.minimum(np.maximum(tx.astype(np.intp), 0), self.nx - 1)
        j = np.minimum(np.maximum(ty.astype(np.intp), 0), self.ny - 1)
        t = (tx - i)[..., None]
        u = (ty - j)[..., None]
        c = self._coef[i * self.ny + j].reshape(tx.shape + (4, 4))
        in_y = ((c[..., 3] * u + c[..., 2]) * u + c[..., 1]) * u + c[..., 0]
        return (((in_y[..., 3:] * t + in_y[..., 2:3]) * t + in_y[..., 1:2]) * t
                + in_y[..., :1])[..., 0]


class PhiTable:
    """Bicubic lookup for one outer branch on [x0, x1] x [-a, a].

    Node values come from the aligned row recursion (or per-node quadrature
    when no aligned layout exists); queries wrap x into the period, clip y
    to [-a, a] and evaluate the not-a-knot tensor cubic spline through the
    nodes (_BicubicSpline).
    """

    def __init__(self, spec: ProblemSpec, side: str, n: int):
        self.spec = spec
        self.side = side
        layout = _aligned_layout(spec, n)
        if layout is not None:
            self.nx, self.ny, p = layout
            self.xs = np.linspace(spec.x0, spec.x1, self.nx + 1)
            self.ys = np.linspace(-spec.a, spec.a, self.ny + 1)
            integral = _aligned_branch_integral(spec, side, self.nx, self.ny, p)
            X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
            _, trace = _boundary_foot(spec, side, X, Y)
            rad = np.asarray(trace) ** 2 - (2.0 / spec.k) * integral
            if not np.all(rad > 0.0):
                raise AssumptionViolation(
                    f"Assumption 2 violated on the table grid: min radicand {rad.min():.6g}")
            self.values = np.sqrt(rad) if side == "plus" else -np.sqrt(rad)
        else:
            self.nx = self.ny = n
            self.xs = np.linspace(spec.x0, spec.x1, n + 1)
            self.ys = np.linspace(-spec.a, spec.a, n + 1)
            X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
            self.values = np.asarray(eval_phi(spec, side, X, Y))
        sign_ok = np.all(self.values < 0) if side == "minus" else np.all(self.values > 0)
        if not sign_ok:
            raise AssumptionViolation(f"outer branch '{side}' changes sign on the table grid")
        self._spline = _BicubicSpline(self.values, spec.x0, -spec.a,
                                      spec.length / self.nx, 2.0 * spec.a / self.ny)

    def __call__(self, x, y):
        spec = self.spec
        xw = spec.x0 + np.mod(np.asarray(x, dtype=float) - spec.x0, spec.length)
        yc = np.minimum(np.maximum(np.asarray(y, dtype=float), -spec.a), spec.a)
        return self._spline(xw, yc)


def phi_table(spec: ProblemSpec, side: str, min_nodes: int) -> PhiTable:
    """Lookup table of one outer branch, refined until its bicubic error is
    below TABLE_INTERP_TOL; every call builds its table anew.

    The first table has min_nodes cells per side and is verified against
    direct quadrature at 256 fixed probe points.  Only if that fails does
    the resolution grow, by the O(h^4) error rule and at least by half.
    """
    # the probes: the first 256 points of the R2 low-discrepancy sequence
    # (Roberts 2018), whose irrational strides 1/g and 1/g^2 (g the plastic
    # number) keep them off the nodes of every table
    i, g = np.arange(1, 257), 1.324717957244746
    px = spec.x0 + spec.length * np.mod(0.5 + i / g, 1.0)
    py = -spec.a + 2.0 * spec.a * np.mod(0.5 + i / g ** 2, 1.0)
    exact = eval_phi(spec, side, px, py)
    n = int(min_nodes)
    while True:
        table = PhiTable(spec, side, n)
        err = float(np.max(np.abs(table(px, py) - exact)))
        if err < TABLE_INTERP_TOL:
            break
        if n > 8192:
            raise NumericalError("could not reach table interpolation tolerance")
        n = max(int(np.ceil(1.5 * n)),
                int(np.ceil(n * (err / (0.5 * TABLE_INTERP_TOL)) ** 0.25)))
    return table


# ---------------------------------------------------------------------------
# front motion

@dataclass
class FrontCurve:
    """Front position h0 and slope on an x grid at a sequence of times."""

    xs: np.ndarray       # (nx,) periodic nodes, last point excluded
    length: float
    times: np.ndarray    # (nt,) increasing
    h: np.ndarray        # (nt, nx)
    hx: np.ndarray       # (nt, nx)

    def sample(self, t: float, xq) -> tuple:
        """Front position and slope at time t, interpolated onto xq."""
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:
            raise ValueError(f"t = {t} outside stored range "
                             f"[{self.times[0]}, {self.times[-1]}]")
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) <= 1e-9:
            row_h, row_hx = self.h[idx], self.hx[idx]
        else:
            j = int(np.searchsorted(self.times, t))
            w = (t - self.times[j - 1]) / (self.times[j] - self.times[j - 1])
            row_h = (1 - w) * self.h[j - 1] + w * self.h[j]
            row_hx = (1 - w) * self.hx[j - 1] + w * self.hx[j]
        # periodic cubic spline through the uniform nodes: the cyclic system
        # M[i-1] + 4 M[i] + M[i+1] = 6 (second difference) / d^2 is diagonal
        # in Fourier space
        n = self.xs.size
        d = self.length / n
        rows = np.stack([row_h, row_hx])
        second = np.roll(rows, 1, axis=-1) - 2.0 * rows + np.roll(rows, -1, axis=-1)
        symbol = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n)
        curv = np.fft.irfft(np.fft.rfft(second, axis=-1) / symbol, n, axis=-1) * (6.0 / d ** 2)
        s = np.mod(np.asarray(xq, dtype=float) - self.xs[0], self.length) / d
        left = np.minimum(s.astype(np.intp), n - 1)
        right = (left + 1) % n
        t = s - left
        t_left = 1.0 - t
        vals = (t_left * rows[:, left] + t * rows[:, right]
                + (d ** 2 / 6.0) * ((t_left ** 3 - t_left) * curv[:, left]
                                    + (t ** 3 - t) * curv[:, right]))
        return vals[0], vals[1]

    def check_invariants(self, a: float, k: float):
        if not (np.all(self.h > -a) and np.all(self.h < a)):
            raise AssumptionViolation("stored front leaves (-a, a)")
        if not np.all(self.hx < 1.0 / k):
            raise AssumptionViolation("stored front violates the slope bound")


def solve_front(spec: ProblemSpec, nt: int, grid: Grid2D, t_end: float,
                extra_times=()) -> FrontCurve:
    """Integrate the front evolution equation

        h_t = (k h_x - 1) (phi_plus + phi_minus)(x, h) / (2 (1 + h_x^2))

    by method of lines on FRONT_REFINE * grid.n nodes: periodic central
    differences for h_x plus a local Lax-Friedrichs dissipation (coefficient
    = local wave speed * dx / 2), second order Runge-Kutta in time with a
    step limited by FRONT_CFL.  Outputs are stored at nt + 1 uniform times
    in [0, t_end] plus any requested extras; steps land on output times
    exactly.
    """
    nx = FRONT_REFINE * grid.n
    d = spec.length / nx
    xs = spec.x0 + d * np.arange(nx)
    table_m = phi_table(spec, "minus", min_nodes=4 * max(grid.n, grid.m))
    table_p = phi_table(spec, "plus", min_nodes=4 * max(grid.n, grid.m))

    # periodic neighbours: h[east] is np.roll(h, -1), h[west] np.roll(h, 1)
    east = np.r_[1:nx, 0]
    west = np.r_[nx - 1, 0:nx - 1]

    def slope(h):
        return (h[east] - h[west]) / (2.0 * d)

    def rhs(h):
        hx = slope(h)
        s = table_m(xs, h) + table_p(xs, h)
        denom = 1.0 + hx ** 2
        f_val = 0.5 * (spec.k * hx - 1.0) * s / denom
        wave = 0.5 * np.abs(s) * np.abs(spec.k - spec.k * hx ** 2 + 2.0 * hx) / denom ** 2
        visc = wave * (h[east] - 2.0 * h + h[west]) / (2.0 * d)
        return f_val + visc, float(np.max(wave))

    out_times = np.sort(np.concatenate([
        np.linspace(0.0, t_end, nt + 1),
        np.asarray([t for t in extra_times if 0.0 <= t <= t_end], dtype=float)]))
    out_times = out_times[np.r_[True, out_times[1:] != out_times[:-1]]]
    h = np.full(nx, float(spec.h0_star))
    stored_h = [h.copy()]
    stored_hx = [slope(h)]
    t = 0.0
    next_out = 1
    while t < t_end - 1e-13:
        r1, wave = rhs(h)
        dt = min(FRONT_CFL * d / max(wave, 1e-12), t_end / nt, out_times[next_out] - t)
        h_star = h + dt * r1
        r2, _ = rhs(h_star)
        h = h + 0.5 * dt * (r1 + r2)
        t += dt
        if not np.all(np.isfinite(h)):
            raise NumericalError(f"front solver produced non-finite values at t = {t:.6g}")
        if np.any(h <= -spec.a) or np.any(h >= spec.a):
            raise AssumptionViolation(f"Assumption 3 violated: front left domain at t = {t:.6g}")
        hx = slope(h)
        if np.max(hx) >= 1.0 / spec.k:
            raise AssumptionViolation(f"Assumption 3 violated: slope bound at t = {t:.6g}")
        if abs(t - out_times[next_out]) <= 1e-12:
            stored_h.append(h.copy())
            stored_hx.append(hx.copy())
            next_out = min(next_out + 1, len(out_times) - 1)
    front = FrontCurve(xs, spec.length, out_times[:len(stored_h)],
                       np.asarray(stored_h), np.asarray(stored_hx))
    front.check_invariants(spec.a, spec.k)
    return front


# ---------------------------------------------------------------------------
# layer profile, width, zeroth-order field

def _layer_jump(spec: ProblemSpec, x, h0):
    """Half-distance between the branches along the front: (phi+ - phi-)/2."""
    pp = eval_phi(spec, "plus", x, h0)
    pm = eval_phi(spec, "minus", x, h0)
    return 0.5 * (np.asarray(pp) - np.asarray(pm))


def _q0_profile(amp, xi, k, h0x):
    """Logistic layer corrector with far-field value 0 and jump 2*amp."""
    rate = amp * (1.0 - k * np.asarray(h0x)) / np.sqrt(1.0 + np.asarray(h0x) ** 2)
    arg = np.clip(-np.asarray(xi) * rate, -_EXP_CLIP, _EXP_CLIP)
    return 2.0 * amp / (np.exp(arg) + 1.0)


def eval_q0(spec: ProblemSpec, side: str, xi, x, h0, h0x):
    """Layer corrector at stretched offset xi from the front.

    At xi = 0 it returns half the branch gap (so branch + corrector equals
    the half-sum of the branches); it decays exponentially for xi -> -inf
    on the minus side and xi -> +inf on the plus side.
    """
    p = _layer_jump(spec, x, h0)
    amp = p if side == "minus" else -p
    out = _q0_profile(amp, xi, spec.k, h0x)
    return float(out) if np.ndim(out) == 0 else out


def transition_width(spec: ProblemSpec, x, h0, h0x):
    """Physical width of the layer band where the corrector exceeds mu^2.

    Closed-form inversion of the logistic profile; the stretched exits are
    xi = -/+ log(2 p / mu^2 - 1) * sqrt(1 + h0x^2) / (p (1 - k h0x)) and the
    width in y is their gap scaled back by mu * cos(alpha).
    """
    p = np.asarray(_layer_jump(spec, x, h0))
    c = 1.0 - spec.k * np.asarray(h0x)
    if np.any(c <= 0.0):
        raise AssumptionViolation("slope bound fails where the width is requested")
    arg = 2.0 * p / spec.mu ** 2 - 1.0
    if np.any(arg <= 0.0):
        raise AssumptionViolation("layer jump below threshold: no mu^2 crossing exists")
    out = 2.0 * spec.mu * np.log(arg) / (p * c)
    return float(out) if np.ndim(out) == 0 else out


def outer_branches(spec: ProblemSpec, grid: Grid2D) -> tuple:
    """Both outer branches at the nodes of grid: (phi_minus, phi_plus)."""
    X, Y = grid.meshgrid()
    return eval_phi(spec, "minus", X, Y), eval_phi(spec, "plus", X, Y)


def assemble_u0(spec: ProblemSpec, front: FrontCurve, grid: Grid2D, t: float,
                branches: tuple) -> Field2D:
    """Zeroth-order asymptotic field: outer branch plus layer corrector.

    branches is outer_branches(spec, grid).  Branch choice at a node is by
    y <= h0(x, t) (ties go to the lower branch; both branches agree there
    by construction).
    """
    h0, h0x = front.sample(t, grid.xs)
    phm, php = branches
    p = _layer_jump(spec, grid.xs, h0)
    Y = grid.ys[None, :]
    stretch = np.sqrt(1.0 + h0x ** 2)[:, None]
    xi = (Y - h0[:, None]) * stretch / spec.mu
    q_minus = _q0_profile(p[:, None], xi, spec.k, h0x[:, None])
    q_plus = _q0_profile(-p[:, None], xi, spec.k, h0x[:, None])
    lower = Y <= h0[:, None]
    values = np.where(lower, phm + q_minus, php + q_plus)
    return Field2D(grid, values, t)


def initial_condition(spec: ProblemSpec, grid: Grid2D) -> Field2D:
    """Hyperbolic-tangent start profile with the layer near y = h0_star."""
    X, Y = grid.meshgrid()
    up = spec.u_plus_a(X, 0.0 * X)
    um = spec.u_minus_a(X, 0.0 * X)
    vals = 0.5 * (up - um) * np.tanh(X + (Y - spec.h0_star) / spec.mu) + 0.5 * (up + um)
    return Field2D(grid, vals, 0.0)


# ---------------------------------------------------------------------------
# first-order outer correction

def transport_coefficients(spec: ProblemSpec, side: str, x, y):
    """Reaction coefficient and forcing of the first-order outer equation.

    Both are ratios of derivatives of the outer branch; derivatives are
    central finite differences of the branch evaluator with the step
    1e-4 L, tied to the domain length (independent of mu).
    """
    h_fd = 1e-4 * spec.length
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    xf = x.ravel()
    yf = y.ravel()
    pts_x = np.concatenate([xf, xf + h_fd, xf - h_fd, xf, xf])
    pts_y = np.concatenate([yf, yf, yf, yf + h_fd, yf - h_fd])
    vals = np.asarray(eval_phi(spec, side, pts_x, pts_y)).reshape(5, xf.size)
    phi0, phi_xp, phi_xm, phi_yp, phi_ym = vals
    dphi_x = (phi_xp - phi_xm) / (2.0 * h_fd)
    dphi_y = (phi_yp - phi_ym) / (2.0 * h_fd)
    d2phi_x = (phi_xp - 2.0 * phi0 + phi_xm) / h_fd ** 2
    d2phi_y = (phi_yp - 2.0 * phi0 + phi_ym) / h_fd ** 2
    p = (spec.k * dphi_x + dphi_y) / phi0
    w = -(d2phi_x + d2phi_y) / phi0
    return p.reshape(shape), w.reshape(shape)


def eval_u1(spec: ProblemSpec, side: str, x, y):
    """First-order outer correction by transport along the characteristic.

    Solves du1/ds = (W - P u1)/k from the anchoring boundary (u1 = 0 there)
    to the target point via the exponential-integral closed form, with the
    running integral of P/k evaluated by cumulative Simpson on a refining
    node ladder (to U1_TOL, at most U1_MAX_LEVEL levels).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    xf = x.ravel()
    yf = y.ravel()
    s_b, _ = _boundary_foot(spec, side, xf, yf)
    span = xf - s_b
    out = np.zeros_like(xf)
    live = np.abs(span) > 0.0
    if np.any(live):
        out[live] = _u1_quadrature(spec, side, xf[live], yf[live], s_b[live])
    out = out.reshape(shape)
    return float(out) if shape == () else out


def _simpson(y, h):
    """Composite Simpson rule along the last axis: an even number of
    intervals of width h."""
    return h / 3.0 * np.sum(y[..., :-2:2] + 4.0 * y[..., 1::2] + y[..., 2::2], axis=-1)


def _cumulative_simpson(y, h):
    """Running Simpson integral along the last axis from 0 (an even number
    of intervals of width h).  Each pair of intervals (y0, y1, y2) is split
    into h/12 (5 y0 + 8 y1 - y2) and h/12 (-y0 + 8 y1 + 5 y2), the quadratic
    through the three nodes integrated over each half."""
    y0, y1, y2 = y[..., :-2:2], y[..., 1::2], y[..., 2::2]
    parts = np.empty(y.shape[:-1] + (y.shape[-1] - 1,))
    parts[..., 0::2] = h / 12.0 * (5.0 * y0 + 8.0 * y1 - y2)
    parts[..., 1::2] = h / 12.0 * (-y0 + 8.0 * y1 + 5.0 * y2)
    out = np.zeros(y.shape)
    np.cumsum(parts, axis=-1, out=out[..., 1:])
    return out


def _u1_quadrature(spec, side, xf, yf, s_b):
    # integrate on the unit parameter so the plus side (whose anchoring
    # boundary lies at larger s) is handled by the signed span; points that
    # have converged freeze while the rest keep refining
    out = np.zeros_like(xf)
    prev = np.full_like(xf, np.nan)
    active = np.ones(xf.size, dtype=bool)
    n = 32
    for _ in range(U1_MAX_LEVEL):
        idx = np.nonzero(active)[0]
        t = np.linspace(0.0, 1.0, n + 1)
        span = (xf[idx] - s_b[idx])[:, None]
        s = s_b[idx][:, None] + t[None, :] * span
        sigma = yf[idx][:, None] + (s - xf[idx][:, None]) / spec.k
        p, w = transport_coefficients(spec, side, s, sigma)
        g = _cumulative_simpson(p * span / spec.k, 1.0 / n)
        expo = np.clip(g - g[:, -1:], -_EXP_CLIP, _EXP_CLIP)
        integrand = np.exp(expo) * w * span / spec.k
        val = _simpson(integrand, 1.0 / n)
        out[idx] = val
        done = np.abs(val - prev[idx]) <= U1_TOL
        prev[idx] = val
        active[idx[done]] = False
        if not np.any(active):
            return out
        n *= 2
    warnings.warn("first-order correction quadrature did not converge to tolerance")
    return out
