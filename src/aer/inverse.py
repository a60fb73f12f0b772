"""Source recovery from a noisy snapshot: noise synthesis, band exclusion,
penalized smoothing with a discrepancy-chosen weight, and H1-regularized
least-squares reconstruction of the source field.

The recovered source approximates f through the reduced link equation
f ~= u (k u_x + u_y) applied outside the transition band, where the
snapshot is close to the smooth outer branches.

The end-to-end chain has two parts.  prepare runs the stages that every
(delta, seed) of one problem and observation grid shares (forward snapshot,
front, u0 error, layer band) and returns them as a frozen Prepared.
run_aer_pipeline runs one recovery from it: it noises the snapshot,
smooths each region outside the band (or takes the measured gradients),
forms the data product u (k u_x + u_y) on the retained rows, taking the
differences of the smoothed values there with the grid's stencils, and has
reconstruct_source fit the source to that product.  Prepared also carries
each smoothing region's penalty factors, so the bisection's trial weights
cost a diagonal scaling each.  No state outlives a call (Prepared is the
caller's, and is only read), so a result depends on its inputs alone,
whatever ran before it.

Both fits (smoothing and reconstruction) build their penalty's Fourier mode
blocks with _mode_blocks, invert them their own way, and solve exactly with
the one _folded_periodic_solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .asymptotics import (FrontCurve, ProblemSpec, assemble_u0, check_assumption1,
                          outer_branches, solve_front, transition_width)
from .errors import (AerError, AssumptionViolation, DiscrepancyUnreachable, LayerTooWide,
                     ZeroNormError)
from .forward import SolverConfig, column_blocks, forward_solve
from .grid import Field2D, Grid2D, RegionMask, rel_l2_error

EPS_FLOOR = 1e-12          # regularization floor for noise-free data
MISFIT_RTOL = 0.05         # discrepancy acceptance window
LOG_EPS_BRACKET = (-14.0, 2.0)


# ---------------------------------------------------------------------------
# noise synthesis

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11), the stream of np.random.Philox(key=seed): each block of 4 words
# is a closed-form function of the key and the block's counter
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a, b):
    """High and low words of the 128-bit products a b of uint64 arrays,
    from their 32-bit halves (the low word is the wrapping product)."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = a_hi * b_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * b


def _philox_random(seed, size: int) -> np.ndarray:
    """The first size doubles of np.random.Generator(np.random.Philox(key=
    seed)).random(), bit for bit, without importing numpy.random.

    The key is (seed mod 2^64, seed >> 64); block b runs ten rounds on the
    counter (b + 1, 0, 0, 0), bumping the key by the Weyl constants between
    rounds, and gives words 4b..4b+3 in order; a double is (word >> 11)
    2^-53.
    """
    seed = int(seed)
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed {seed} must lie in [0, 2^128)")
    blocks = -(-size // 4)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(blocks, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + r * _PHILOX_WEYL[0]) % 2 ** 64)
        k1 = np.uint64(((seed >> 64) + r * _PHILOX_WEYL[1]) % 2 ** 64)
        hi, lo = _mulhilo(_PHILOX_MUL, np.stack([c0, c2]))
        c0, c1, c2, c3 = hi[1] ^ c1 ^ k0, lo[1], hi[0] ^ c3 ^ k1, lo[0]
    words = np.stack([c0, c1, c2, c3], axis=1).ravel()[:size]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _noise_factors(shapes, delta, seed, kind):
    """One array of noise factors per shape, drawn in turn, each in C
    order, from the Philox stream keyed by the seed."""
    if kind == "uniform":
        sizes = [int(np.prod(shape)) for shape in shapes]
        draws = np.split(_philox_random(seed, sum(sizes)), np.cumsum(sizes)[:-1])
        return [1.0 + delta * (2.0 * u.reshape(shape) - 1.0) for u, shape in zip(draws, shapes)]
    if kind == "gaussian":
        # numpy's ziggurat is not reproduced here: only this kind imports
        # numpy.random
        gen = np.random.Generator(np.random.Philox(key=seed))
        return [1.0 + delta * gen.standard_normal(shape) for shape in shapes]
    raise ValueError(f"unknown noise kind {kind!r}")


@dataclass
class Observation:
    """Noisy snapshot (its grid and time are those of u_delta) together
    with its exclusion mask."""

    u_delta: Field2D
    delta: float
    mask: RegionMask
    noise_kind: str = "uniform"
    ux_delta: Field2D | None = None
    uy_delta: Field2D | None = None

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        self.mask.validate(self.u_delta.grid)


def make_observation(snapshot: Field2D, mask: RegionMask, delta: float, seed: int,
                     noise_kind: str = "uniform", with_gradients: bool = False) -> Observation:
    """Noise the snapshot (and optionally its grid gradients) and attach the
    exclusion band.

    Each value is multiplied by 1 + delta (2 rand - 1), rand ~ U[0, 1] (by
    1 + delta N(0, 1) for the Gaussian kind).  Draws come from numpy's
    counter-based Philox4x64-10 stream keyed by the seed, consumed in C
    (row-major) order of the value array, whose leading axis is x; gradient
    draws (x, then y) follow the u draws in the same stream.  The uniform
    stream is computed in the package (_philox_random); the Gaussian kind
    imports numpy.random for its ziggurat.  Identical seeds give
    bit-identical observations.
    """
    grid = snapshot.grid
    fields = [snapshot.values]
    if with_gradients:
        fields += [gridmod.diff_x_values(snapshot.values, grid.d1),
                   gridmod.diff_y_values(snapshot.values, grid.d2)]
    factors = _noise_factors([v.shape for v in fields], delta, seed, noise_kind)
    noisy = [Field2D(grid, w * v, snapshot.time) for w, v in zip(factors, fields)]
    ux, uy = noisy[1:] if with_gradients else (None, None)
    return Observation(noisy[0], delta, mask, noise_kind, ux, uy)


def layer_band(front: FrontCurve, spec: ProblemSpec, grid: Grid2D) -> RegionMask:
    """Global row band covering the transition layer at time t0, read from
    the front at the grid's x nodes and t0 (see assemble_u0).

    j_lo is the largest row with y <= min_x(h0 - width/2), j_hi the smallest
    with y >= max_x(h0 + width/2); rows strictly between are excluded.  A
    layer so thin that both edges snap to one grid row excludes that row.
    """
    h0, h0x = front.sample(spec.t0, grid.xs)
    width = np.asarray(transition_width(spec, grid.xs, h0, h0x))
    lo = float(np.min(h0 - 0.5 * width))
    hi = float(np.max(h0 + 0.5 * width))
    j_lo = int(np.floor((lo + grid.a) / grid.d2 + 1e-12))
    j_hi = int(np.ceil((hi + grid.a) / grid.d2 - 1e-12))
    if j_lo == j_hi:
        j_lo, j_hi = j_lo - 1, j_hi + 1
    if j_lo < 0 or j_hi > grid.m:
        raise LayerTooWide("layer too wide for this grid")
    return RegionMask(j_lo, j_hi)


# ---------------------------------------------------------------------------
# y stencils, mode blocks and the folded periodic solve

def _rows_second_diff(r, d):
    """r x r matrix of grid.diff2_y_values on r rows of spacing d."""
    return gridmod.diff2_y_values(np.eye(r), d).T


def _rows_first_diff(r, d):
    """r x r matrix of grid.diff_y_values on r rows of spacing d."""
    return gridmod.diff_y_values(np.eye(r), d).T


def _mode_blocks(c: np.ndarray, t_w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """c_k diag(t_w) + D^T diag(t_w) D for each mode weight c_k: the x
    penalty's share of Fourier mode k plus the y penalty of the rows'
    difference matrix D, both with the trapezoid weights t_w in y."""
    return c[:, None, None] * np.diag(t_w) + diff.T @ (t_w[:, None] * diff)


def _folded_periodic_solve(weight: np.ndarray, b_inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """v solving (diag(2, 1, ..., 1) (x) diag(weight) + eps K) v = b exactly.

    Unknowns are v[i, j], i < n the periodic x columns (column n folded onto
    column 0, hence its doubled data weight), j < r the rows; b has shape
    (n, r).  K is block circulant in x with a real symmetric r x r block for
    each Fourier mode k = 0..n/2.  An rfft along x turns the uniform part
    into the blocks B_k = diag(weight) + eps K_k, and b_inv is the stack of
    their inverses, shape (n/2 + 1, r, r).  The extra weight of column 0 is
    the update U diag(w_s) U^T, U = e_0 (x) (the rows s with nonzero
    weight), removed exactly by the Woodbury identity with capacitance
    diag(1/w_s) + G[s, s], where G = (1/n) sum_k mult_k B_k^-1 is the (0, 0)
    block of B^-1 (modes 0 and n/2 count once, the others twice).
    """
    n = b.shape[0]
    mult = np.full(b_inv.shape[0], 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[-1] = 1.0
    seam = np.flatnonzero(weight)
    y = np.fft.irfft((b_inv @ np.fft.rfft(b, axis=0)[..., None])[..., 0], n, axis=0)
    g = np.tensordot(mult, b_inv, axes=1) / n
    z = np.zeros(weight.size)
    z[seam] = np.linalg.solve(np.diag(1.0 / weight[seam]) + g[np.ix_(seam, seam)], y[0, seam])
    return y - np.fft.irfft(b_inv @ z, n, axis=0)


# ---------------------------------------------------------------------------
# per-region smoothing

@dataclass
class RegionSmoothing:
    """One region's fitted values; run_aer_pipeline differences them."""

    rows: np.ndarray            # grid row indices of this region
    u_eps: np.ndarray           # (n+1, R) smoothed values
    eps: float
    misfit: float               # achieved mean-square data misfit
    target: float
    misfit_top: float | None    # misfit at the bracket top eps = 1e2 / target;
                                # None when the floor rule returns first
    cg_iterations: int = 0      # the solves are direct; read by bench/child.py


def _region_rows(mask: RegionMask, m: int, region: str) -> np.ndarray:
    if region == "lower":
        return mask.lower_rows()
    if region == "upper":
        return mask.upper_rows(m)
    raise ValueError("region must be 'lower' or 'upper'")


def noise_misfit_target(obs: Observation, region: str) -> float:
    """Mean-square level of the multiplicative noise over one region.

    For u^delta = (1 + delta (2 rand - 1)) u the per-node noise variance is
    delta^2 u^2 / 3 (delta^2 u^2 for the Gaussian variant), so matching the
    smoothing misfit to the region average of that quantity is the Morozov
    choice; the data themselves stand in for the unknown exact values.
    """
    rows = _region_rows(obs.mask, obs.u_delta.grid.m, region)
    d = obs.u_delta.values[:, rows]
    ms = float(np.mean(d ** 2)) * obs.delta ** 2
    return ms / 3.0 if obs.noise_kind == "uniform" else ms


def _penalty_factors(n: int, r: int, d1: float, d2: float):
    """Spectral factors (vecs, vals) of the smoothing penalty's mode blocks.

    K = (Cxx^T Cxx) (x) T + I_n (x) Q on the n periodic x columns and r
    region rows, with Cxx the circulant second difference,
    T = d1 d2 diag(trapezoid in y) and Q = Ryy^T T Ryy.  Mode k of K is
    P_k = p_k T + Q, p_k the squared eigenvalues of Cxx, and
    P_k = vecs[k] diag(vals[k]) vecs[k]^T.  The blocks are symmetric
    positive semi-definite (P_0 = Q vanishes on the affine functions of y),
    so the SVD's left vectors and singular values are their eigenpairs.
    np.linalg.svd is used rather than np.linalg.eigh: eigh, measured in its
    place, woke OpenBLAS's second thread and made a study sweep slower.
    """
    trap = np.full(r, 1.0)
    trap[0] = trap[-1] = 0.5
    t_w = d1 * d2 * trap
    k = np.arange(n // 2 + 1)
    p = ((2.0 * np.cos(2.0 * np.pi * k / n) - 2.0) / d1 ** 2) ** 2
    vecs, vals, _ = np.linalg.svd(_mode_blocks(p, t_w, _rows_second_diff(r, d2)))
    return vecs, vals


def smoothing_factors(grid: Grid2D, mask: RegionMask) -> dict:
    """Region name -> _penalty_factors of its rows on grid, or None for a
    region of fewer than 3 rows (smooth_region refuses it, and the y second
    difference leaves a row of a 2-row region unset).  prepare computes them
    once for every (delta, seed) of a group; they depend on the grid and the
    mask alone."""
    factors = {}
    for region in ("lower", "upper"):
        r = len(_region_rows(mask, grid.m, region))
        factors[region] = _penalty_factors(grid.n, r, grid.d1, grid.d2) if r >= 3 else None
    return factors


def _smoothing_inverses(factors: tuple, w: float, eps: float) -> np.ndarray:
    """Inverses of the smoothing's mode blocks B_k = w I + eps P_k.

    factors = (vecs, vals) of the penalty blocks P_k (_penalty_factors) and
    w the uniform data weight, so
    B_k^-1 = vecs[k] diag(1 / (w + eps vals[k])) vecs[k]^T: every trial
    weight costs a diagonal scaling and one batched product, not a
    factorisation.
    """
    vecs, vals = factors
    return (vecs / (w + eps * vals)[:, None, :]) @ vecs.transpose(0, 2, 1)


def smooth_region(obs: Observation, region: str, factors: tuple,
                  discrepancy: str = "calibrated") -> RegionSmoothing:
    """Curvature-penalized least squares fit to one region of the data.

    Minimizes  mean((v - u^delta)^2) + eps (||v_xx||^2 + ||v_yy||^2)  over
    the region nodes (periodic in x, one-sided stencils at the region's y
    edges, L2 penalty norms with trapezoid weights).  The weight eps is
    found by bisection on log10(eps) so the achieved mean-square misfit
    matches the target within 5 percent:

      * 'calibrated' (default): target = estimated noise mean square,
      * 'delta4':               target = delta^4 as stated for the method.

    factors are the spectral factors of this region's penalty blocks,
    smoothing_factors(grid, mask)[region]; prepare builds them once per
    group, so every trial weight of every recovery is a diagonal scaling of
    them.  Each trial solves the SPD normal equations directly and exactly
    with _folded_periodic_solve, whose block inverses _smoothing_inverses
    scales from the factors, so cg_iterations is 0.  Only the fitted values
    are returned; run_aer_pipeline takes their differences.
    """
    g = obs.u_delta.grid
    rows = _region_rows(obs.mask, g.m, region)
    r = len(rows)
    if r < 3:
        raise LayerTooWide(f"{region} region has {r} rows; need at least 3")
    if discrepancy == "calibrated":
        target = noise_misfit_target(obs, region)
    elif discrepancy == "delta4":
        target = obs.delta ** 4
    else:
        raise ValueError(f"unknown discrepancy mode {discrepancy!r}")

    n = g.n
    data = obs.u_delta.values[:, rows]          # (n+1, R)
    N = (n + 1) * r
    rhs = data[:n, :].copy()
    rhs[0, :] += data[n, :]                     # column n duplicates column 0
    rhs /= N
    weight = np.full(r, 1.0 / N)

    def solve_at(eps):
        vm = _folded_periodic_solve(weight, _smoothing_inverses(factors, 1.0 / N, eps), rhs)
        misfit = (np.sum((vm - data[:n, :]) ** 2) + np.sum((vm[0] - data[n]) ** 2)) / N
        return vm, float(misfit)

    eps, vm, misfit, misfit_top = _discrepancy_bisect(solve_at, target)
    return RegionSmoothing(rows, np.vstack([vm, vm[:1, :]]), eps, misfit, target, misfit_top)


def _discrepancy_bisect(solve_at, target):
    """Find the smallest weight whose misfit matches the target within 5%.

    The misfit is monotone in the weight but can plateau over decades, so
    merely landing inside the 5% window leaves the weight ill determined;
    bisection therefore continues toward the low-weight edge of the window
    (the least smoothing consistent with the discrepancy level) until the
    log10 bracket LOG_EPS_BRACKET has shrunk to a 1% step in the weight.

    Returns (eps, v, misfit, misfit at the bracket top / target); the last
    is None when the floor rule returns before the top is solved.
    """
    lo, hi = LOG_EPS_BRACKET
    v_lo, m_lo = solve_at(10.0 ** lo)
    if m_lo >= target * (1.0 - MISFIT_RTOL):
        # floor rule: smallest weight already at or above the target
        if m_lo <= max(target * (1.0 + MISFIT_RTOL), 1e-13):
            return 10.0 ** lo, v_lo, m_lo, None
        raise DiscrepancyUnreachable(
            f"misfit at bracket floor is {m_lo:.3e}, above target {target:.3e}")
    v_hi, m_hi = solve_at(10.0 ** hi)
    if m_hi < target * (1.0 - MISFIT_RTOL):
        raise DiscrepancyUnreachable(
            f"misfit at bracket top is {m_hi:.3e}, below target {target:.3e}")
    best = (10.0 ** hi, v_hi, m_hi) if m_hi <= target * (1.0 + MISFIT_RTOL) else None
    while hi - lo > np.log10(1.01):
        mid = 0.5 * (lo + hi)
        v, m = solve_at(10.0 ** mid)
        if m >= target * (1.0 - MISFIT_RTOL):
            # inside or above the window: the admissible edge moves down
            hi = mid
            if m <= target * (1.0 + MISFIT_RTOL):
                best = (10.0 ** mid, v, m)
        else:
            lo = mid
    if best is None:
        raise DiscrepancyUnreachable(
            f"bisection exhausted without entering the 5% window of {target:.3e}")
    return best + (m_hi / target,)


# ---------------------------------------------------------------------------
# source reconstruction

@dataclass
class ReconstructionResult:
    f_delta: Field2D
    eps: float
    residual: float
    cg_iterations: int = 0      # the solve is direct; read by bench/child.py


def _data_product(u, ux, uy, k):
    return u * (k * ux + uy)


def reconstruct_source(obs: Observation, product: np.ndarray) -> ReconstructionResult:
    """H1-penalized least squares fit of the source to a data product.

    product is an (n+1) x (m+1) array of the reduced link equation's data
    u (k u_x + u_y); only the rows the mask retains are read.  The fit runs
    over the full grid with penalty eps (||f||^2 + ||f_x||^2 + ||f_y||^2),
    eps = delta^2 with a small floor, so the excluded band is filled in
    smoothly by the H1 coupling.  After the seam fold the normal equations
    are uniform in x apart from the doubled data count of column 0, so they
    are solved exactly by _folded_periodic_solve (Fourier in x, Woodbury
    for the retained rows of the seam column) from a batched inverse of
    diag(counts) + eps times the penalty's _mode_blocks; cg_iterations is 0.
    """
    g = obs.u_delta.grid
    n, m = g.n, g.m
    retained = obs.mask.retained_rows(m)
    eps = max(obs.delta ** 2, EPS_FLOOR)

    bmat = np.zeros((n, m + 1))
    bmat[:, retained] = product[:n, retained]
    bmat[0, retained] += product[n, retained]
    counts = np.zeros(m + 1)
    counts[retained] = 1.0

    # penalty eps (||f||^2 + ||f_x||^2 + ||f_y||^2) with the y trapezoid
    # weights (uniform in x after the fold); mode k of the circulant central
    # difference in x has squared modulus sin^2(2 pi k / n) / d1^2
    k = np.arange(n // 2 + 1)
    sx2 = np.sin(2.0 * np.pi * k / n) ** 2 / g.d1 ** 2
    penalty = _mode_blocks(1.0 + sx2, g.trapezoid_weights[1, :], _rows_first_diff(m + 1, g.d2))
    fm = _folded_periodic_solve(counts, np.linalg.inv(np.diag(counts) + eps * penalty), bmat)
    f_full = np.vstack([fm, fm[:1, :]])
    f_field = Field2D(g, f_full, obs.u_delta.time)

    diff = f_full[:, retained] - product[:, retained]
    residual = float(np.sum(diff ** 2))
    return ReconstructionResult(f_field, eps, residual)


# ---------------------------------------------------------------------------
# end-to-end pipeline

def _stage(name, fn, *args, **kwargs):
    """fn(*args, **kwargs), with "[name] " put before the message of any
    AerError it raises."""
    try:
        return fn(*args, **kwargs)
    except AerError as exc:
        exc.args = (f"[{name}] {exc.args[0] if exc.args else ''}",) + exc.args[1:]
        raise


@dataclass(frozen=True)
class Prepared:
    """What every (delta, seed) of one problem and observation grid shares:
    the forward snapshot at t0 on the observation grid, the front curve up
    to t0, the relative L2 error of the asymptotic field u0 against the
    snapshot, the band mask of the transition layer at t0, and each
    smoothing region's penalty factors (smoothing_factors of the grid and
    mask).  The factors depend on the grid and mask alone, so they are
    computed here once and every trial weight of every recovery in the
    group reuses them.  forward_blocks is the number of column blocks the
    forward march ran in."""

    spec: ProblemSpec
    snapshot: Field2D
    front: FrontCurve
    u0_rel_error: float
    mask: RegionMask
    factors: dict
    forward_blocks: int


def require_assumption1(spec: ProblemSpec) -> None:
    """Raise AssumptionViolation, naming the failed conditions, unless the
    boundary traces satisfy Assumption 1 (check_assumption1)."""
    rep = check_assumption1(spec)
    if not rep.ok:
        raise AssumptionViolation("Assumption 1 violated: " + "; ".join(rep.messages))


def prepare(spec: ProblemSpec, forward_grid: Grid2D, cfl: float,
            obs_grid: Grid2D) -> Prepared:
    """Check Assumption 1 (require_assumption1), as aer asymptote does, and
    run the shared stages, each under its stage label: the front on
    obs_grid up to t0 (stored at FRONT_OUTPUTS + 1 times, t0 the last); the
    forward solve to t0 on forward_grid at CFL number cfl, restricted to
    obs_grid; u0 on obs_grid, whose only use is its error against the
    snapshot; the layer band on obs_grid, labelled as the observation it
    belongs to; and the smoothing regions' penalty factors (an SVD of each
    region's mode blocks, see _penalty_factors), None for a region too
    narrow to smooth, whose error smooth_region reports.  u0 and the band
    read the front at its nodes and at t0."""
    require_assumption1(spec)
    # the front goes first: freeing the forward solve's source and grid
    # arrays raises glibc's mmap and trim thresholds, so the smaller phi
    # tables built after them would stay resident and raise the peak RSS
    front = _stage("front", solve_front, spec, obs_grid, spec.t0)
    snapshot = _stage("forward", forward_solve, spec,
                      SolverConfig(forward_grid, spec.t0, cfl, [spec.t0]))[0]
    if snapshot.grid != obs_grid:
        snapshot = snapshot.restrict(obs_grid)
    u0 = _stage("asymptotic-field", lambda: assemble_u0(
        spec, front, obs_grid, outer_branches(spec, obs_grid)))
    mask = _stage("observation", layer_band, front, spec, obs_grid)
    return Prepared(spec, snapshot, front, rel_l2_error(u0, snapshot), mask,
                    smoothing_factors(obs_grid, mask), column_blocks(forward_grid))


@dataclass
class PipelineResult:
    observation: Observation
    smoothing: tuple | None        # (lower, upper) RegionSmoothing, None if measured
    reconstruction: ReconstructionResult
    metrics: dict


def run_aer_pipeline(prep: Prepared, delta: float, seed: int, noise_kind: str = "uniform",
                     gradient_measured: bool = False,
                     discrepancy: str = "calibrated") -> PipelineResult:
    """One recovery from the prepared stages.

    Noises the snapshot (and its gradients, when they are measured), forms
    the data product u (k u_x + u_y) on the rows the band mask retains,
    from the smoothed fit of each region (differenced here with
    grid.diff_x_values and grid.diff_y_values) or from the measured gradients,
    fits the source to it, and records the errors against the exact source
    (rel_err_f is None when that source is identically zero).
    """
    spec = prep.spec
    obs = _stage("observation", make_observation, prep.snapshot, prep.mask, delta, seed,
                 noise_kind, with_gradients=gradient_measured)
    g = obs.u_delta.grid
    product = np.zeros((g.n + 1, g.m + 1))
    if gradient_measured:
        smoothing = None
        retained = obs.mask.retained_rows(g.m)
        product[:, retained] = _data_product(obs.u_delta.values, obs.ux_delta.values,
                                             obs.uy_delta.values, spec.k)[:, retained]
    else:
        smoothing = tuple(_stage("smoothing", smooth_region, obs, region,
                                 prep.factors[region], discrepancy)
                          for region in ("lower", "upper"))
        for reg in smoothing:
            product[:, reg.rows] = _data_product(
                reg.u_eps, gridmod.diff_x_values(reg.u_eps, g.d1),
                gridmod.diff_y_values(reg.u_eps, g.d2), spec.k)
    recon = _stage("reconstruction", reconstruct_source, obs, product)
    try:
        rel_err_f = rel_l2_error(recon.f_delta, Field2D.from_function(g, spec.f))
    except ZeroNormError:
        rel_err_f = None
    metrics = {
        "delta": delta,
        "seed": seed,
        "noise": noise_kind,
        "gradient_measured": gradient_measured,
        "m_minus": obs.mask.j_lo,
        "m_plus": obs.mask.j_hi,
        "rel_err_u0": prep.u0_rel_error,
        "forward_blocks": prep.forward_blocks,
        "rel_err_f": rel_err_f,
        "eps_f": recon.eps,
        "eps_minus": smoothing[0].eps if smoothing else None,
        "eps_plus": smoothing[1].eps if smoothing else None,
        "misfit_minus": smoothing[0].misfit if smoothing else None,
        "misfit_plus": smoothing[1].misfit if smoothing else None,
        "misfit_top_minus": smoothing[0].misfit_top if smoothing else None,
        "misfit_top_plus": smoothing[1].misfit_top if smoothing else None,
    }
    return PipelineResult(obs, smoothing, recon, metrics)
