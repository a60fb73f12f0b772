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
    vectorised composite 16-point Gauss-Legendre engine, _char_integral;
    the lookup tables that the front equation reads (one cubic Hermite
    interpolant in y per front node, with five-point slopes) are built by
    an aligned row recursion and checked against it,
  * the front motion h0(x, t) from a first order evolution equation, read
    where it was solved: at its nodes and stored times, not interpolated,
  * the logistic layer profile joining the branches across the front and
    the resulting layer width,
  * the first order outer correction u1, transported along the same
    characteristics with phi as its integrating factor: one _char_integral
    per point of the five-point finite-difference Laplacian of phi
    (_phi_laplacian), the only derivative of phi that u1 needs, refined to
    1e-8 (U1_TOL) because that Laplacian is smooth to about 1e-8 only.

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
TABLE_INTERP_TOL = 1e-6  # required accuracy of the phi tables' cubics in y
FRONT_REFINE = 4         # front nodes per observation-grid cell in x
FRONT_CFL = 0.4          # CFL number of the front solver
FRONT_OUTPUTS = 200      # uniform output intervals of the front solver
U1_TOL = 1e-8            # first-order correction quadrature tolerance
TABLE_NODE_BUDGET = 1 << 20    # most nodes of one phi table a run may ask for
TABLE_COLUMN_BUDGET = 1 << 19  # most columns of one table's row recursion
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
        for name in ("mu", "k", "x0", "x1", "a", "T", "h0_star", "t0"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} = {getattr(self, name)} is not finite")
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

    ok: bool
    details: dict
    messages: list = field(default_factory=list)


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


def _char_integral(fxy, X, Y, E, k, tol=QUAD_TOL):
    """integral of f(s, Y + (s - X)/k) ds from s = X to s = E, elementwise.

    Composite 16-point Gauss-Legendre rule on 1, 2, 4, ... equal panels of
    the unit parameter t, s = X + t (E - X).  A point stops refining when
    two successive levels agree to tol, or when its value is not
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
        # inf - inf, inf * 0: nan, and a finite value times L: inf, as meant
        with np.errstate(over="ignore", invalid="ignore"):
            if prev is not None:
                done |= np.abs((val - prev) * L[active]) <= tol
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
    # an overflow gives an inf or nan radicand, which its callers reject
    with np.errstate(over="ignore", invalid="ignore"):
        rad = np.asarray(trace, dtype=float).ravel() ** 2 - (2.0 / spec.k) * integral
    return rad.reshape(X.shape), X, Y


def eval_phi(spec: ProblemSpec, side: str, x, y):
    """Outer branch of the reduced (mu = 0) equation on the given side.

    side 'minus' is the negative branch anchored at y = -a, side 'plus'
    the positive branch anchored at y = a.  Raises AssumptionViolation
    where the radicand is not positive.
    """
    rad, X, Y = _radicand(spec, side, x, y)
    flat = np.ravel(rad)
    if not np.all(flat > 0.0):      # nan radicands fail as well
        i = int(np.argmin(flat))    # argmin picks the first nan, if any
        xb = np.ravel(X)[i]
        yb = np.ravel(Y)[i]
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
    # mu^2 in numpy: a mu near 1e300 overflows it to inf (a failed check),
    # where a Python float would raise OverflowError
    with np.errstate(over="ignore"):
        gap_margin = float(np.min(up - um) - 2.0 * np.square(spec.mu))
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
    return AssumptionReport(not messages, details, messages)


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
    return AssumptionReport(not messages, details, messages)


# ---------------------------------------------------------------------------
# lookup tables for the outer branches

_GAUSS4_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                          0.3399810435848563, 0.8611363115940526])
_GAUSS4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                            0.6521451548625461, 0.3478548451374538])


_TABLE_CALL_POINTS = 1 << 15    # about this many evaluation points per call of f


def _aligned_branch_integral(spec: ProblemSpec, side: str, nx: int, ny: int, p: int,
                             refine: int = 1):
    """Characteristic integral of f at the table nodes by row recursion.

    Node (i, r) is the column x0 + i dx (dx = L / (nx refine), i < nx
    refine) at the row r dy away from the branch's boundary (y = -a + r dy
    for 'minus', a - r dy for 'plus'), with dy = p dx / k.  The
    characteristic through node (i, r) then meets node (i -/+ p, r - 1), so
    the line integral to the boundary accumulates one short Gauss segment
    per row, walking away from the boundary row.  Columns are extended
    beyond the period, on the side the characteristics come from, because f
    is evaluated at raw (unwrapped) arguments.  Returns the (nx, ny + 1)
    node values of every refine-th column, the only ones stored.

    The 4 Gauss abscissae of every column and their offsets along the
    characteristic are the same in every row, so they are formed once, and
    f is evaluated for a block of rows at a time, at most
    _TABLE_CALL_POINTS points per call (one row at least); the rows of a
    block are then summed and accumulated one by one, in the order of a
    row-by-row evaluation.
    """
    dx = spec.length / (nx * refine)
    dy = p * dx / spec.k
    ext = p * ny
    half = 0.5 * spec.k * dy
    step = 1 if side == "plus" else -1
    lo = 0 if step > 0 else ext                  # column of x0
    xs_ext = spec.x0 + dx * (np.arange(nx * refine + ext) - lo)
    mid = xs_ext + step * half
    S = mid + half * _GAUSS4_NODES[:, None, None]        # (4, 1, columns)
    offset = (S - xs_ext) / spec.k
    block = max(1, _TABLE_CALL_POINTS // S.size)
    # row r takes the previous row shifted by p columns towards the
    # boundary, so the last p columns (plus) or the first p (minus) keep
    # stale values; they sit on characteristics that leave the extension,
    # and none of them reaches a kept column
    cols = xs_ext.size
    if step > 0:
        dst, src = slice(0, cols - p), slice(p, cols)
    else:
        dst, src = slice(p, cols), slice(0, cols - p)
    kept = slice(lo, lo + nx * refine, refine)
    out = np.zeros((nx, ny + 1))
    row = np.zeros(cols)
    for r0 in range(1, ny + 1, block):
        rows = np.arange(r0, min(r0 + block, ny + 1))
        ys = step * (spec.a - rows * dy)
        vals = spec.f(S, ys[:, None] + offset)           # (4, rows, columns)
        seg = np.zeros(vals.shape[1:])
        for i, w in enumerate(_GAUSS4_WEIGHTS):
            seg += w * vals[i]
        seg *= half
        for j, r in enumerate(rows):
            row[dst] = row[src] + seg[j, dst]
            out[:, r] = row[kept]
    if step < 0:      # the minus integral runs from x down to the boundary
        np.negative(out, out=out)
    return out


# slopes, in row units, of the quartic through the first five rows at rows 0
# and 1: the one-sided five-point differences (Fornberg, Math. Comp. 51, 1988)
_EDGE_SLOPES = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                         [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0


def _hermite_cells(y):
    """Power-basis coefficients (1, t, t^2, t^3) of the cubic Hermite
    interpolant on each cell between the rows of y (along axis 0, at least
    5 rows), t the offset in the cell in row units.  Each row's slope is the
    fourth-order five-point difference: central on rows 2 .. n-2, one-sided
    on the first two rows and the last two; so a quartic's slopes, and a
    cubic itself, are exact.  The coefficients are stacked on a last axis
    of length 4, one cell per row but the last."""
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - y[4:] + 8.0 * (y[3:-1] - y[1:-3])) / 12.0
    d[:2] = np.einsum("ij,j...->i...", _EDGE_SLOPES, y[:5])
    # the last two rows, last first: the same forms on the rows reversed,
    # whose slopes change sign
    d[:-3:-1] = -np.einsum("ij,j...->i...", _EDGE_SLOPES, y[:-6:-1])
    rise = y[1:] - y[:-1]
    return np.stack([y[:-1], d[:-1], 3.0 * rise - 2.0 * d[:-1] - d[1:],
                     d[:-1] + d[1:] - 2.0 * rise], axis=-1)


def _table_rows(spec: ProblemSpec, nx: int):
    """Row stride p (in columns), row spacing dy and row count ny of a
    table on nx columns (see PhiTable).  p is a whole float, so that a
    stride too large for an int still gives a row count."""
    p = max(1.0, float(np.round(2.0 * spec.a * spec.k / spec.length)))
    dy = p * (spec.length / nx) / spec.k     # as in the recursion
    # a row count that is whole up to rounding is not rounded up, unless
    # the last row would then stop short of the far boundary; the five-point
    # slopes need at least 5 rows
    ny = max(4, int(np.ceil(2.0 * spec.a / dy * (1.0 - 1e-12))))
    return p, dy, ny + (ny * dy < 2.0 * spec.a)


def table_budget_excess(spec: ProblemSpec, nx: int, refine: int = 1):
    """Why a table kept on nx columns, from a row recursion refined
    refine-fold, is over budget, or None if it is not.  A build stores only
    the nodes it keeps, nx by ny + 1 (ny that of the recursion), at about
    150 bytes each with their cubics at their peak; its row recursion
    takes about 224 bytes a column (the extended abscissae, their Gauss
    points and offsets, the running row and one row's evaluation of f; both
    measured by tracemalloc, the columns on 160k to 520k).  So the kept
    nodes may number TABLE_NODE_BUDGET (about 157 MB), and the recursion's
    nx refine + p ny columns TABLE_COLUMN_BUDGET (about 117 MB); the
    columns are a float, since p grows with k beyond any int."""
    p, _, ny = _table_rows(spec, nx * refine)
    nodes = nx * (ny + 1)
    if nodes > TABLE_NODE_BUDGET:
        return f"would hold {nodes} nodes, over the budget of {TABLE_NODE_BUDGET}"
    columns = nx * refine + p * ny
    if columns > TABLE_COLUMN_BUDGET:
        return (f"would run its recursion on {columns:.6g} columns, over the budget "
                f"of {TABLE_COLUMN_BUDGET}")
    return None


class PhiTable:
    """One outer branch at the front's columns x0 + i L / nx, i < nx, as
    one cubic Hermite interpolant in y per column: a cubic on each cell
    between two rows, from the rows' values and their five-point slopes
    (_hermite_cells), so no system is solved.

    The rows are anchored at the branch's boundary (y = -a for 'minus',
    y = a for 'plus') with spacing dy = p dx / k, p = max(1, round(2 a k / L)),
    so the aligned row recursion applies for every k; the last row reaches
    or passes the far boundary.  refine > 1 runs the recursion on refine
    times as many columns (and so as many rows) and stores every refine-th
    column.  A query gives one y per column, clipped to [-a, a].
    """

    def __init__(self, spec: ProblemSpec, side: str, nx: int, refine: int = 1):
        self.spec = spec
        p, self.dy, self.ny = _table_rows(spec, nx * refine)
        xs = spec.x0 + spec.length / nx * np.arange(nx)
        self._sign = 1.0 if side == "plus" else -1.0
        ys = self._sign * (spec.a - self.dy * np.arange(self.ny + 1))
        _, trace = _boundary_foot(spec, side, xs[:, None], ys)
        # a radicand that overflows (k tiny, or f huge) is a numerical
        # failure, not one that passes rad > 0 as +inf; a nan radicand still
        # fails Assumption 2
        with np.errstate(over="ignore", invalid="ignore"):
            integral = _aligned_branch_integral(spec, side, nx, self.ny, int(p), refine)
            rad = np.asarray(trace) ** 2 - (2.0 / spec.k) * integral
        if np.isinf(rad).any():
            raise NumericalError(f"the {side} table's radicand overflows at k = {spec.k:g}")
        if not np.all(rad > 0.0):
            raise AssumptionViolation(
                f"Assumption 2 violated on the table grid: min radicand {rad.min():.6g}")
        self.values = self._sign * np.sqrt(rad)
        # cubics in the distance from the boundary, over dy
        self._coef = _hermite_cells(self.values.T)
        self._cols = np.arange(nx)

    def __call__(self, y):
        a = self.spec.a
        yc = np.minimum(np.maximum(np.asarray(y, dtype=float), -a), a)
        t = (a - self._sign * yc) / self.dy
        j = np.minimum(np.maximum(t.astype(np.intp), 0), self.ny - 1)
        u = t - j
        c = self._coef[j, self._cols]
        return ((c[..., 3] * u + c[..., 2]) * u + c[..., 1]) * u + c[..., 0]


def phi_table(spec: ProblemSpec, side: str, nx: int) -> PhiTable:
    """Lookup table of one outer branch at nx front columns, refined until
    its cubics in y are within TABLE_INTERP_TOL of direct quadrature; every
    call builds its table anew.

    The first table is refined until its rows are at most a quarter of the
    strip 2a apart, since the O(dy^4) error rule needs rows across the strip
    (at a tiny k one cell spans it).  The check is at two probe heights per
    column.  Only if it fails is the recursion refined, by that rule and at
    least twofold; a refinement over the budget of table_budget_excess
    raises NumericalError instead, before it is built.
    """
    # the probes: two y per column from the R2 low-discrepancy sequence
    # (Roberts 2018), whose irrational strides 1/g and 1/g^2 (g the plastic
    # number) keep them off the rows of every table
    i, g = np.arange(1, nx + 1), 1.324717957244746
    py = -spec.a + 2.0 * spec.a * np.mod(0.5 + np.stack([i / g, i / g ** 2]), 1.0)
    px = spec.x0 + spec.length / nx * np.arange(nx)
    exact = eval_phi(spec, side, np.broadcast_to(px, py.shape), py)
    # rows at most a/2 apart; capped at TABLE_COLUMN_BUDGET-fold, whose
    # columns alone are over the budget, so that an overflowing dy still
    # gives an int
    _, dy, _ = _table_rows(spec, nx)
    refine = int(min(max(1.0, np.ceil(dy / (0.5 * spec.a))), TABLE_COLUMN_BUDGET))
    while True:
        excess = table_budget_excess(spec, nx, refine)
        if excess:
            raise NumericalError(f"could not reach table interpolation tolerance: the {side} "
                                 f"table refined {refine}-fold {excess}")
        table = PhiTable(spec, side, nx, refine)
        err = float(np.max(np.abs(table(py) - exact)))
        if err < TABLE_INTERP_TOL:
            return table
        refine *= max(2, int(np.ceil((err / (0.5 * TABLE_INTERP_TOL)) ** 0.25)))


# ---------------------------------------------------------------------------
# front motion

@dataclass
class FrontCurve:
    """Front position h0 and slope at the front nodes xs (one period, x1
    excluded) and the stored times; read where it was solved."""

    xs: np.ndarray       # (nx,) periodic nodes, last point excluded
    length: float
    times: np.ndarray    # (nt,) increasing
    h: np.ndarray        # (nt, nx)
    hx: np.ndarray       # (nt, nx)

    def sample(self, t: float, xq) -> tuple:
        """Front position and slope h[it, j], hx[it, j] at the stored time t
        (within 1e-9) and the front nodes xq (modulo L, within 1e-6 of a
        node spacing; x1 is node 0).  Any other t or xq raises ValueError."""
        it = int(np.argmin(np.abs(self.times - t)))
        if not abs(self.times[it] - t) <= 1e-9:
            raise ValueError(f"t = {t} is not a stored time of the front "
                             f"({self.times.size} in [{self.times[0]}, {self.times[-1]}])")
        s = np.mod(np.asarray(xq, dtype=float) - self.xs[0], self.length) \
            * (self.xs.size / self.length)
        j = np.rint(s)
        if not np.all(np.abs(s - j) <= 1e-6):
            raise ValueError("x is not a front node")
        j = j.astype(np.intp) % self.xs.size
        return self.h[it, j], self.hx[it, j]


def solve_front(spec: ProblemSpec, grid: Grid2D, t_end: float) -> FrontCurve:
    """Integrate the front evolution equation

        h_t = (k h_x - 1) (phi_plus + phi_minus)(x, h) / (2 (1 + h_x^2))

    by method of lines on FRONT_REFINE * grid.n nodes, which are also the
    columns of the two phi tables: periodic central differences for h_x
    plus a local Lax-Friedrichs dissipation (coefficient = local wave
    speed * dx / 2), second order Runge-Kutta in time with a step limited
    by FRONT_CFL.  Outputs are stored at FRONT_OUTPUTS + 1 uniform times in
    [0, t_end] and at spec.t0 when t0 <= t_end; steps land on output times
    exactly.
    """
    nx = FRONT_REFINE * grid.n
    d = spec.length / nx
    xs = spec.x0 + d * np.arange(nx)
    table_m = phi_table(spec, "minus", nx)
    table_p = phi_table(spec, "plus", nx)

    # periodic neighbours: h[east] is np.roll(h, -1), h[west] np.roll(h, 1)
    east = np.r_[1:nx, 0]
    west = np.r_[nx - 1, 0:nx - 1]

    def slope(h):
        return (h[east] - h[west]) / (2.0 * d)

    def rhs(h):
        hx = slope(h)
        s = table_m(h) + table_p(h)
        denom = 1.0 + hx ** 2
        f_val = 0.5 * (spec.k * hx - 1.0) * s / denom
        wave = 0.5 * np.abs(s) * np.abs(spec.k - spec.k * hx ** 2 + 2.0 * hx) / denom ** 2
        visc = wave * (h[east] - 2.0 * h + h[west]) / (2.0 * d)
        return f_val + visc, float(np.max(wave))

    out_times = np.sort(np.concatenate([
        np.linspace(0.0, t_end, FRONT_OUTPUTS + 1),
        np.asarray([spec.t0] if spec.t0 <= t_end else [], dtype=float)]))
    out_times = out_times[np.r_[True, out_times[1:] != out_times[:-1]]]
    h = np.full(nx, float(spec.h0_star))
    stored_h = [h.copy()]
    stored_hx = [slope(h)]
    t = 0.0
    next_out = 1
    while t < t_end - 1e-13:
        r1, wave = rhs(h)
        dt = min(FRONT_CFL * d / max(wave, 1e-12), t_end / FRONT_OUTPUTS,
                 out_times[next_out] - t)
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
    return FrontCurve(xs, spec.length, out_times[:len(stored_h)],
                      np.asarray(stored_h), np.asarray(stored_hx))


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
    width in y is their gap scaled back by mu * cos(alpha).  A jump
    p <= mu^2, whose width would not be positive, raises
    AssumptionViolation; a width that is not finite (mu^2 under- or
    overflows) raises NumericalError.
    """
    p = np.asarray(_layer_jump(spec, x, h0))
    c = 1.0 - spec.k * np.asarray(h0x)
    if np.any(c <= 0.0):
        raise AssumptionViolation("slope bound fails where the width is requested")
    with np.errstate(divide="ignore", over="ignore"):     # checked below
        arg = 2.0 * p / spec.mu ** 2 - 1.0
    if np.any(arg <= 1.0):      # p <= mu^2: the corrector never exceeds mu^2
        raise AssumptionViolation("layer jump below threshold: no mu^2 crossing exists")
    out = 2.0 * spec.mu * np.log(arg) / (p * c)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"transition width is not finite at mu = {spec.mu:g}")
    return float(out) if np.ndim(out) == 0 else out


def outer_branches(spec: ProblemSpec, grid: Grid2D) -> tuple:
    """Both outer branches at the nodes of grid: (phi_minus, phi_plus)."""
    X, Y = grid.meshgrid()
    return eval_phi(spec, "minus", X, Y), eval_phi(spec, "plus", X, Y)


def assemble_u0(spec: ProblemSpec, front: FrontCurve, grid: Grid2D,
                branches: tuple) -> Field2D:
    """Zeroth-order asymptotic field at t0: outer branch plus layer corrector.

    The front is read at the grid's x nodes and t0, so they must be front
    nodes and a stored time (solve_front on grid, or on a grid whose n is
    a multiple of grid.n, up to t0 or past it); branches is
    outer_branches(spec, grid).  Branch choice at a node is by
    y <= h0(x, t0) (ties go to the lower branch; both branches agree there
    by construction).
    """
    h0, h0x = front.sample(spec.t0, grid.xs)
    phm, php = branches
    p = _layer_jump(spec, grid.xs, h0)
    Y = grid.ys[None, :]
    stretch = np.sqrt(1.0 + h0x ** 2)[:, None]
    xi = (Y - h0[:, None]) * stretch / spec.mu
    q_minus = _q0_profile(p[:, None], xi, spec.k, h0x[:, None])
    q_plus = _q0_profile(-p[:, None], xi, spec.k, h0x[:, None])
    lower = Y <= h0[:, None]
    values = np.where(lower, phm + q_minus, php + q_plus)
    return Field2D(grid, values, spec.t0)


def initial_condition(spec: ProblemSpec, grid: Grid2D) -> Field2D:
    """Hyperbolic-tangent start profile with the layer near y = h0_star."""
    X, Y = grid.meshgrid()
    up = spec.u_plus_a(X, 0.0 * X)
    um = spec.u_minus_a(X, 0.0 * X)
    vals = 0.5 * (up - um) * np.tanh(X + (Y - spec.h0_star) / spec.mu) + 0.5 * (up + um)
    return Field2D(grid, vals, 0.0)


# ---------------------------------------------------------------------------
# first-order outer correction

def _phi_laplacian(spec: ProblemSpec, side: str, x, y):
    """Laplacian of the outer branch at the broadcast points (x, y): the
    five-point finite-difference stencil of eval_phi with the step 1e-4 L,
    tied to the domain length (independent of mu)."""
    h_fd = 1e-4 * spec.length
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    xf = x.ravel()
    yf = y.ravel()
    pts_x = np.concatenate([xf, xf + h_fd, xf - h_fd, xf, xf])
    pts_y = np.concatenate([yf, yf, yf, yf + h_fd, yf - h_fd])
    vals = np.asarray(eval_phi(spec, side, pts_x, pts_y)).reshape(5, xf.size)
    phi0, phi_xp, phi_xm, phi_yp, phi_ym = vals
    d2phi_x = (phi_xp - 2.0 * phi0 + phi_xm) / h_fd ** 2
    d2phi_y = (phi_yp - 2.0 * phi0 + phi_ym) / h_fd ** 2
    return (d2phi_x + d2phi_y).reshape(x.shape)


def eval_u1(spec: ProblemSpec, side: str, x, y):
    """First-order outer correction by transport along the characteristic.

    Along a characteristic P = (k phi_x + phi_y)/phi = k d(ln|phi|)/ds, so
    phi is the integrating factor of du1/ds = (W - P u1)/k:
    k d(phi u1)/ds = phi W = -lap(phi).  With u1 = 0 at the anchoring
    boundary,

        u1(x, y) = 1/(k phi(x, y)) * integral of lap(phi) ds
                   from s = x to the boundary foot,

    one _char_integral of _phi_laplacian: the integrating factor absorbs
    the gradient of phi, so the Laplacian is the only derivative taken.
    That Laplacian is smooth only to about 1e-8 (round-off over the squared
    step), so the integral refines to U1_TOL: at QUAD_TOL every point would
    refine to the panel cap without converging.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    foot, _ = _boundary_foot(spec, side, x, y)
    integral = _char_integral(lambda s, sigma: _phi_laplacian(spec, side, s, sigma),
                              x, y, foot, spec.k, U1_TOL)
    out = integral.reshape(x.shape) / (spec.k * eval_phi(spec, side, x, y))
    return float(out) if x.shape == () else out
