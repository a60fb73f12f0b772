from dataclasses import replace

import numpy as np
import pytest

from aer import (
    Field2D,
    Grid2D,
    ProblemSpec,
    RegionMask,
    layer_band,
    parse,
    prepare,
    reconstruct_source,
    run_aer_pipeline,
    smooth_region,
    smoothing_factors,
    solve_front,
)
from aer.errors import DiscrepancyUnreachable, LayerTooWide
from aer.grid import diff_x_values, diff_y_values
from aer.inverse import (
    Observation,
    _data_product,
    _folded_periodic_solve,
    _penalty_factors,
    _philox_random,
    _rows_first_diff,
    _rows_second_diff,
    _smoothing_inverses,
    make_observation,
    noise_misfit_target,
)


def _quadratic_observation(delta=0.01, seed=3, n=50, m=45, periodic_noise=False):
    """Synthetic noisy observation of a smooth quadratic on a banded grid."""
    g = Grid2D(0.0, 2.0, 1.0, n, m)
    u = Field2D.from_function(
        g, lambda x, y: 4.0 + y + 0.5 * y ** 2 + 0.3 * np.cos(np.pi * x), time=0.5)
    noisy = _noised(u, delta, seed)
    if periodic_noise:
        vals = noisy.values.copy()
        vals[-1, :] = vals[0, :]     # measurement consistent with periodicity
        noisy = Field2D(g, vals, u.time)
    mask = RegionMask(31, 34)
    return Observation(noisy, delta, mask), u


def _smooth(obs, region, **kwargs):
    """smooth_region with the region's factors built as prepare builds them."""
    factors = smoothing_factors(obs.u_delta.grid, obs.mask)[region]
    return smooth_region(obs, region, factors, **kwargs)


def _noised(u, delta, seed, kind="uniform"):
    """The noisy values make_observation draws for u (the mask is inert)."""
    return make_observation(u, RegionMask(0, 2), delta, seed, kind).u_delta


# ---------------------------------------------------------------------------
# noise synthesis

def test_make_observation_zero_delta_exact():
    g = Grid2D(0.0, 1.0, 1.0, 8, 8)
    u = Field2D.from_function(g, lambda x, y: 1.0 + x + y)
    assert np.array_equal(_noised(u, 0.0, 42).values, u.values)


def test_make_observation_multiplicative_bound_and_determinism():
    g = Grid2D(0.0, 1.0, 1.0, 30, 30)
    u = Field2D.from_function(g, lambda x, y: 2.0 - x + y)
    a = _noised(u, 0.03, 7)
    b = _noised(u, 0.03, 7)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.abs(a.values - u.values) <= 0.03 * np.abs(u.values) + 1e-15)
    c = _noised(u, 0.03, 8)
    assert not np.array_equal(a.values, c.values)


def test_make_observation_uniform_statistics():
    g = Grid2D(0.0, 1.0, 1.0, 999, 999)
    u = Field2D(g, np.ones((1000, 1000)))
    delta = 0.02
    noisy = _noised(u, delta, 123)
    rel = noisy.values / u.values - 1.0
    n_draws = rel.size
    tol = 3.0 * delta / np.sqrt(3.0 * n_draws)
    assert abs(rel.mean()) <= tol
    assert rel.std() == pytest.approx(delta / np.sqrt(3.0), rel=0.01)


def test_make_observation_gaussian_kind():
    g = Grid2D(0.0, 1.0, 1.0, 200, 200)
    u = Field2D(g, np.full((201, 201), 3.0))
    noisy = _noised(u, 0.01, 5, kind="gaussian")
    rel = noisy.values / u.values - 1.0
    assert rel.std() == pytest.approx(0.01, rel=0.05)


def _numpy_philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1, 2 ** 64, 2 ** 128 - 1])
@pytest.mark.parametrize("size", [1, 3, 4, 5, 2601, 7803])
def test_philox_matches_numpy_bit_for_bit(seed, size):
    # the key's high word, partial last blocks and the 51 x 51 (x 3) sizes
    # of an observation (with gradients)
    got = _philox_random(seed, size)
    want = _numpy_philox(seed).random(size)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_philox_continues_the_stream():
    # numpy keeps the rest of a block for the next call: two calls draw the
    # words of one split draw
    gen = _numpy_philox(11)
    want = np.concatenate([gen.random(2601), gen.random(7)])
    assert np.array_equal(_philox_random(11, 2608).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("seed", [-1, 2 ** 128])
def test_philox_refuses_seeds_numpy_refuses(seed):
    with pytest.raises(ValueError):
        _numpy_philox(seed)
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\^128\)"):
        _philox_random(seed, 4)


@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
def test_make_observation_draws_numpys_stream(kind):
    # u, then its x and y gradients, from one Philox stream in C order; the
    # uniform kind computes it in aer, the gaussian kind asks numpy
    g = Grid2D(0.0, 2.0, 1.0, 12, 9)
    u = Field2D.from_function(g, lambda x, y: 2.0 + np.sin(np.pi * x) + y ** 2)
    delta, seed = 0.03, 2 ** 70 + 5
    obs = make_observation(u, RegionMask(3, 6), delta, seed, kind, with_gradients=True)
    gen = _numpy_philox(seed)
    for noisy, clean in ((obs.u_delta, u.values), (obs.ux_delta, diff_x_values(u.values, g.d1)),
                         (obs.uy_delta, diff_y_values(u.values, g.d2))):
        if kind == "uniform":
            factor = 1.0 + delta * (2.0 * gen.random(clean.shape) - 1.0)
        else:
            factor = 1.0 + delta * gen.standard_normal(clean.shape)
        assert np.array_equal(noisy.values, factor * clean)


# ---------------------------------------------------------------------------
# band exclusion

def test_layer_band_minimal_exclusion():
    # still front at h0* = 0 with a narrow layer: one or two excluded rows
    s = ProblemSpec(mu=0.01, k=1.0, x0=-1.0, x1=1.0, a=1.0, T=1.0,
                    u_minus_a=parse("-3"), u_plus_a=parse("3"),
                    f=parse("0"), h0_star=0.0, t0=0.5)
    g = s.grid(20, 20)
    front = solve_front(s, g, t_end=0.5)
    mask = layer_band(front, s, g)
    assert mask.j_hi - mask.j_lo in (1, 2)


def test_layer_band_excludes_the_row_a_thin_layer_snaps_to():
    # at mu = 1e-16 both band edges of a still front on the row y = 0 snap
    # to that row (j_lo == j_hi), so the band excludes it alone
    s = ProblemSpec(mu=1e-16, k=1.0, x0=-1.0, x1=1.0, a=1.0, T=0.3,
                    u_minus_a=parse("-1"), u_plus_a=parse("1"),
                    f=parse("0"), h0_star=0.0, t0=0.2)
    g = s.grid(20, 20)
    mask = layer_band(solve_front(s, g, t_end=0.2), s, g)
    assert (mask.j_lo, mask.j_hi) == (9, 11)


def test_layer_band_too_wide():
    s = ProblemSpec(mu=0.45, k=1.0, x0=-1.0, x1=1.0, a=0.5, T=1.0,
                    u_minus_a=parse("-3"), u_plus_a=parse("3"),
                    f=parse("0"), h0_star=0.0, t0=0.5)
    g = s.grid(16, 16)
    front = solve_front(s, g, t_end=0.5)
    with pytest.raises(LayerTooWide):
        layer_band(front, s, g)


def test_prepare_labels_a_too_wide_band_as_observation():
    # prepare computes the band once for every (delta, seed); its error
    # keeps the label of the observation the band belongs to
    s = ProblemSpec(mu=0.45, k=1.0, x0=-1.0, x1=1.0, a=0.5, T=1.0,
                    u_minus_a=parse("-3"), u_plus_a=parse("3"),
                    f=parse("0"), h0_star=0.0, t0=0.5)
    g = s.grid(16, 16)
    with pytest.raises(LayerTooWide, match=r"^\[observation\] layer too wide for this grid$"):
        prepare(s, g, 0.4, g)


# ---------------------------------------------------------------------------
# smoothing

def test_smooth_region_calibrated_postcondition():
    obs, exact = _quadratic_observation()
    for region in ("lower", "upper"):
        reg = _smooth(obs, region)
        assert 0.95 * reg.target <= reg.misfit <= 1.05 * reg.target
        # the seam columns carry independent noise draws; the fit keeps the
        # solve's n + 1 columns, column n a copy of column 0
        assert np.array_equal(reg.u_eps[-1], reg.u_eps[0])
        rows = reg.rows
        err = np.sqrt(np.mean((reg.u_eps - exact.values[:, rows]) ** 2))
        noise = np.sqrt(np.mean((obs.u_delta.values - exact.values)[:, rows] ** 2))
        assert err < 0.7 * noise  # the fit actually denoises


def test_smooth_region_delta4_postcondition_periodic_measurement():
    obs, _ = _quadratic_observation(periodic_noise=True)
    reg = _smooth(obs, "lower", discrepancy="delta4")
    target = obs.delta ** 4
    assert 0.95 * target <= reg.misfit <= 1.05 * target


def test_smooth_region_delta4_unreachable_with_independent_seam_draws():
    # the duplicated column carries two independent draws, so the misfit
    # cannot reach delta^4; an explicit report is required, never a silent miss
    obs, _ = _quadratic_observation(periodic_noise=False)
    with pytest.raises(DiscrepancyUnreachable, match="above target"):
        _smooth(obs, "lower", discrepancy="delta4")


def test_smooth_region_noiseless_floor_rule():
    obs, exact = _quadratic_observation(delta=0.0)
    reg = _smooth(obs, "lower")
    assert reg.misfit <= 1e-14
    assert np.max(np.abs(reg.u_eps - obs.u_delta.values[:, reg.rows])) < 1e-6


def test_smooth_region_needs_rows():
    obs, _ = _quadratic_observation()
    tiny = Observation(obs.u_delta, obs.delta, RegionMask(1, 34), obs.noise_kind)
    with pytest.raises(LayerTooWide, match="lower region has 2 rows; need at least 3"):
        _smooth(tiny, "lower")


def test_smooth_region_unreachable_top():
    # a stated noise level far above the data's: even the flattest fit stays
    # below the calibrated target delta^2 <u_delta^2> / 3 (about 5e6 here)
    obs, _ = _quadratic_observation()
    loud = Observation(obs.u_delta, 1e3, obs.mask)
    with pytest.raises(DiscrepancyUnreachable, match="below target"):
        _smooth(loud, "lower")


def test_smooth_region_prepared_factors_match_fresh(ex1):
    # the factors prepare keeps for a group give the same smoothing, bit for
    # bit, as factors built afresh for the call
    prep = prepare(ex1, ex1.grid(48, 48), 0.4, ex1.grid(24, 24))
    obs = make_observation(prep.snapshot, prep.mask, 0.01, 4)
    fresh = smoothing_factors(obs.u_delta.grid, obs.mask)
    for region in ("lower", "upper"):
        kept = smooth_region(obs, region, prep.factors[region])
        new = smooth_region(obs, region, fresh[region])
        assert kept.eps == new.eps and kept.misfit == new.misfit
        assert kept.u_eps.tobytes() == new.u_eps.tobytes()


def test_smoothing_error_monotone_in_delta():
    errors = []
    for delta in (0.04, 0.02, 0.01):
        obs, exact = _quadratic_observation(delta=delta, seed=11)
        reg = _smooth(obs, "lower")
        exact_vals = exact.values[:, reg.rows]
        g = obs.u_delta.grid
        # the fit's derivatives as run_aer_pipeline takes them, by the grid
        # stencils, against the same stencils on the exact values
        err_x = diff_x_values(reg.u_eps, g.d1) - diff_x_values(exact_vals, g.d1)
        err_y = diff_y_values(reg.u_eps, g.d2) - diff_y_values(exact_vals, g.d2)
        h1_err = np.sqrt(np.mean((reg.u_eps - exact_vals) ** 2)
                         + np.mean(err_x[:-1] ** 2) + np.mean(err_y ** 2))
        errors.append(h1_err)
    assert errors[1] <= errors[0] * 1.1
    assert errors[2] <= errors[1] * 1.1


def _dense_rows_second_diff(r, d):
    """Reference loop for _rows_second_diff: centred inside, one-sided rows."""
    A = np.zeros((r, r))
    for j in range(1, r - 1):
        A[j, j - 1:j + 2] = [1.0, -2.0, 1.0]
    edge = [2.0, -5.0, 4.0, -1.0] if r >= 4 else [1.0, -2.0, 1.0]
    A[0, :len(edge)] = edge
    A[r - 1, r - len(edge):] = edge[::-1]
    return A / d ** 2


def _folded_rhs(data, N):
    """Right-hand side of the smoothing's normal equations on the n periodic
    columns, formed as the solve forms it: column n of the (n + 1)-column
    data added to column 0, then times the weight 1 / N."""
    b = data[:-1].copy()
    b[0] += data[-1]
    b *= 1.0 / N
    return b


@pytest.mark.parametrize("n", [7, 8, 50])
@pytest.mark.parametrize("r", [3, 4, 6])
@pytest.mark.parametrize("eps", [1e-14, 1e-4, 1e2])
def test_smoothing_solver_matches_dense_solve(n, r, eps):
    # dense C + eps K in the smoothing's unknown order (x outer, row inner);
    # odd and even n exercise the rfft with and without a Nyquist mode, and
    # n = 50 is the presets' observation grid.  r = 3 takes the three-row
    # stencil, r = 4 the smallest one-sided edge rows.  The eps are the
    # bisection bracket's ends, where the data weight meets P_0's null space
    # (the affine functions of y) and where the penalty dominates, and a
    # weight in between.  The solver scales the spectral factors of the
    # mode blocks, so this checks them against the assembled matrix.  The
    # data span all n + 1 grid columns; the solve folds column n onto
    # column 0 and returns column n as a copy of column 0.  At eps = 1e2
    # cond(A) reaches 2e8, and the solver's forward error against an
    # extended-precision solution reads up to 1.9e-9 on this data, so the
    # check is the normwise backward error ||A v - b|| / (||A||_2 ||v|| +
    # ||b||), which no conditioning enters (measured: at most 2.7e-16).  For
    # eps <= 1e-4, where cond(A) <= 2e2, it bounds the forward error by
    # about 4e-12.
    d1, d2 = 4.0 / n, 0.2
    N = (n + 1) * r
    cxx = (np.roll(np.eye(n), 1, axis=0) - 2.0 * np.eye(n) + np.roll(np.eye(n), -1, axis=0)) / d1 ** 2
    trap = np.ones(r)
    trap[[0, -1]] = 0.5
    T = d1 * d2 * np.diag(trap)
    ryy = _dense_rows_second_diff(r, d2)
    K = np.kron(cxx.T @ cxx, T) + np.kron(np.eye(n), ryy.T @ T @ ryy)
    counts = np.ones(n)
    counts[0] = 2.0
    A = np.kron(np.diag(counts), np.eye(r)) / N + eps * K
    data = np.random.default_rng(n * r).standard_normal((n + 1, r))
    b = _folded_rhs(data, N).ravel()
    got = _folded_periodic_solve(
        np.full(r, 1.0 / N), _smoothing_inverses(_penalty_factors(n, r, d1, d2), 1.0 / N, eps), data)
    assert got.shape == (n + 1, r) and np.array_equal(got[n], got[0])
    v = got[:n].ravel()
    residual = np.linalg.norm(A @ v - b)
    assert residual <= 1e-14 * (np.linalg.norm(A, 2) * np.linalg.norm(v) + np.linalg.norm(b))


@pytest.mark.parametrize("r", [13, 26, 32])
def test_smoothing_solver_backward_error_at_production_size(r):
    # the presets' 50-column observation grid, with region heights of the
    # size the band leaves (13 to 32 rows).  At eps = 1e2 the assembled
    # matrix has condition number near 1e9, so a dense solve is no
    # reference there; the normwise backward error
    # ||A v - b|| / (||A||_2 ||v|| + ||b||) of the solver's v is checked
    # instead.  A = C + eps K with C and K positive semi-definite, so
    # max(||C||_2, eps ||K||_2) <= ||A||_2, and that bound makes the check
    # stricter.  Measured: at most 4.1e-16 for every r and eps.
    n, d1, d2 = 50, 0.08, 0.08
    N = (n + 1) * r
    cxx = (np.roll(np.eye(n), 1, axis=0) - 2.0 * np.eye(n) + np.roll(np.eye(n), -1, axis=0)) / d1 ** 2
    trap = np.ones(r)
    trap[[0, -1]] = 0.5
    T = d1 * d2 * np.diag(trap)
    ryy = _dense_rows_second_diff(r, d2)
    K = np.kron(cxx.T @ cxx, T) + np.kron(np.eye(n), ryy.T @ T @ ryy)
    counts = np.ones(n)
    counts[0] = 2.0
    C = np.kron(np.diag(counts), np.eye(r)) / N
    norm_k = np.linalg.eigvalsh(K)[-1]
    factors = _penalty_factors(n, r, d1, d2)
    data = np.random.default_rng(r).standard_normal((n + 1, r))
    b = _folded_rhs(data, N)
    for eps in (1e-14, 1e-4, 1e2):
        v = _folded_periodic_solve(
            np.full(r, 1.0 / N), _smoothing_inverses(factors, 1.0 / N, eps), data)
        assert v.shape == (n + 1, r) and np.array_equal(v[n], v[0]), eps
        v = v[:n].ravel()
        residual = np.linalg.norm((C + eps * K) @ v - b.ravel())
        norm_a = max(2.0 / N, eps * norm_k)
        assert residual <= 1e-14 * (norm_a * np.linalg.norm(v) + np.linalg.norm(b)), eps


@pytest.mark.parametrize("r", [4, 5])
def test_stencils_match_dense(r):
    d = 0.3
    second = {4: [[2, -5, 4, -1], [1, -2, 1, 0], [0, 1, -2, 1], [-1, 4, -5, 2]],
              5: [[2, -5, 4, -1, 0], [1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1],
                  [0, -1, 4, -5, 2]]}[r]
    first = {4: [[-3, 4, -1, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 1, -4, 3]],
             5: [[-3, 4, -1, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1],
                 [0, 0, 1, -4, 3]]}[r]
    assert np.array_equal(_rows_second_diff(r, d), np.array(second, float) / d ** 2)
    assert np.array_equal(_rows_first_diff(r, d), np.array(first, float) / (2 * d))
    assert np.array_equal(_dense_rows_second_diff(r, d), np.array(second, float) / d ** 2)


# ---------------------------------------------------------------------------
# reconstruction

def test_reconstruct_identity_with_full_retention():
    g = Grid2D(0.0, 2.0, 1.0, 40, 40)
    target = Field2D.from_function(g, lambda x, y: np.sin(np.pi * x) * y + 0.5)
    # hand-made data so that the product equals the target field exactly:
    # u = target, ux = 1, uy = 0, k = 1
    obs = Observation(target, 0.0, RegionMask(19, 20))
    product = _data_product(target.values, np.ones_like(target.values),
                            np.zeros_like(target.values), 1.0)
    res = reconstruct_source(obs, product)
    assert res.eps == pytest.approx(1e-12)
    assert np.max(np.abs(res.f_delta.values - target.values)) < 1e-8
    assert res.residual < 1e-16


def test_reconstruct_band_infill_is_smooth():
    g = Grid2D(0.0, 2.0, 1.0, 30, 30)
    lin = Field2D.from_function(g, lambda x, y: 1.0 + y)
    obs = Observation(lin, 0.0, RegionMask(12, 18))
    product = _data_product(lin.values, np.zeros_like(lin.values), np.ones_like(lin.values), 1.0)
    res = reconstruct_source(obs, product)
    # retained rows reproduce the product; the band rows are filled by the
    # H1 coupling: a smooth bridge that sags slightly toward zero because
    # of the mass term in the penalty
    retained = np.r_[0:13, 18:31]
    exact = 1.0 + g.ys[None, :]
    assert np.max(np.abs(res.f_delta.values[:, retained] - exact[:, retained])) < 1e-6
    band = res.f_delta.values[:, 13:18]
    assert np.max(np.abs(band - exact[:, 13:18])) < 0.15
    assert band.min() > 1.0 + g.ys[12] - 0.15
    assert band.max() < 1.0 + g.ys[18] + 0.15


@pytest.mark.parametrize("eps", [1e-4, 1e-12])
def test_reconstruction_satisfies_normal_equations(eps):
    # the gradient of  sum_retained (f - g)^2 + eps sum w (f^2 + f_x^2 + f_y^2)
    # over the periodic core, assembled densely here, vanishes at the result;
    # eps = delta^2, or its floor at delta = 0
    delta = {1e-4: 0.01, 1e-12: 0.0}[eps]
    g = Grid2D(0.0, 2.0, 1.0, 16, 14)
    n, m = g.n, g.m
    rng = np.random.default_rng(5)
    u = Field2D(g, 1.0 + rng.random((n + 1, m + 1)))
    ux = Field2D(g, rng.standard_normal((n + 1, m + 1)))
    uy = Field2D(g, rng.standard_normal((n + 1, m + 1)))
    data = _data_product(u.values, ux.values, uy.values, 1.5)
    res = reconstruct_source(Observation(u, delta, RegionMask(5, 9)), data)
    assert res.eps == pytest.approx(eps)
    f = res.f_delta.values
    assert np.array_equal(f[n], f[0])
    retained = np.r_[0:6, 9:m + 1]
    grad = np.zeros((n + 1, m + 1))
    grad[:, retained] = f[:, retained] - data[:, retained]
    grad[0] += grad[n]                      # column n is column 0
    b = np.zeros((n + 1, m + 1))
    b[:, retained] = data[:, retained]
    b[0] += b[n]
    fc, bc, grad = f[:n], b[:n], grad[:n]
    eye_x, eye_y = np.eye(n), np.eye(m + 1)
    dx = (np.roll(eye_x, -1, axis=0) - np.roll(eye_x, 1, axis=0)) / (2 * g.d1)
    dy = np.gradient(eye_y, g.d2, axis=0, edge_order=2)
    wy = np.full(m + 1, g.d1 * g.d2)
    wy[[0, -1]] *= 0.5
    grad += eps * (wy * fc + dx.T @ (wy * (dx @ fc)) + (wy * (fc @ dy.T)) @ dy)
    assert np.linalg.norm(grad) <= 1e-10 * np.linalg.norm(bc)


def test_reconstruct_never_reads_band_rows():
    # the band rows of the product have zero weight, so nan there changes
    # nothing, bit for bit
    obs, _ = _quadratic_observation()
    band = np.arange(obs.mask.j_lo + 1, obs.mask.j_hi)
    product = obs.u_delta.values ** 2
    product[:, band] = 0.0
    zeros = reconstruct_source(obs, product)
    product[:, band] = np.nan
    nans = reconstruct_source(obs, product)
    assert np.all(np.isfinite(nans.f_delta.values))
    assert nans.f_delta.values.tobytes() == zeros.f_delta.values.tobytes()
    assert nans.residual == zeros.residual


def test_data_product_scales_quadratically():
    rng = np.random.default_rng(4)
    u, ux, uy = rng.standard_normal((3, 5, 5))
    k = 2.0
    base = _data_product(u, ux, uy, k)
    scaled = _data_product(3.0 * u, 3.0 * ux, 3.0 * uy, k)
    assert np.allclose(scaled, 9.0 * base, rtol=1e-14)


# ---------------------------------------------------------------------------
# pipeline

def test_pipeline_determinism(ex1_prepared):
    r1 = run_aer_pipeline(ex1_prepared, 0.01, 5)
    r2 = run_aer_pipeline(ex1_prepared, 0.01, 5)
    assert r1.metrics["rel_err_f"] == r2.metrics["rel_err_f"]
    assert np.array_equal(r1.observation.u_delta.values, r2.observation.u_delta.values)


def test_pipeline_result_does_not_depend_on_earlier_recoveries(ex1_prepared):
    # the group's factors are only read: a recovery run first on a Prepared
    # and the same recovery run after another one agree bit for bit
    g = ex1_prepared.snapshot.grid
    prep = replace(ex1_prepared, factors=smoothing_factors(g, ex1_prepared.mask))
    first = run_aer_pipeline(prep, 0.02, 3)
    run_aer_pipeline(prep, 0.04, 8)
    again = run_aer_pipeline(prep, 0.02, 3)
    assert first.metrics == again.metrics
    assert (first.reconstruction.f_delta.values.tobytes()
            == again.reconstruction.f_delta.values.tobytes())


def test_pipeline_narrow_region(ex1_prepared):
    # a band that leaves the lower region 2 rows gets no factors for it:
    # smoothing reports the region, measured gradients need no smoothing
    g = ex1_prepared.snapshot.grid
    mask = RegionMask(1, ex1_prepared.mask.j_hi)
    prep = replace(ex1_prepared, mask=mask, factors=smoothing_factors(g, mask))
    assert prep.factors["lower"] is None
    with pytest.raises(LayerTooWide, match=r"^\[smoothing\] lower region has 2 rows"):
        run_aer_pipeline(prep, 0.01, 1)
    assert run_aer_pipeline(prep, 0.01, 1, gradient_measured=True).smoothing is None


def test_pipeline_gradient_branch_skips_smoothing(ex1_prepared):
    res = run_aer_pipeline(ex1_prepared, 0.0, 1, gradient_measured=True)
    assert res.smoothing is None
    assert res.metrics["eps_minus"] is None
    assert res.metrics["gradient_measured"] is True
    assert res.reconstruction.eps == pytest.approx(1e-12)
    assert res.metrics["rel_err_f"] is not None


def test_pipeline_noise_free_gradient_branch_level(ex1_prepared):
    """Noise-free recovery from measured gradients.

    The level reads about 0.53 on the Rusanov forward data.  The
    first-order data carry part of it: on data from the hybrid face
    viscosity max(mu, a h / 2) in place of mu + a h / 2 the same recovery
    reads 0.325, below this band.  The rest is put down to the layer-tail
    derivative at the band-edge rows: the excluded band is sized by the
    corrector value crossing mu^2, which leaves its derivative there at the
    order of the layer rate times mu^2 / mu, not mu^2.
    """
    res = run_aer_pipeline(ex1_prepared, 0.0, 1, gradient_measured=True)
    assert 0.4 <= res.metrics["rel_err_f"] <= 0.7
    # the smoothing branch at delta -> 0 behaves better at the band edges
    res_smooth = run_aer_pipeline(ex1_prepared, 0.0025, 1)
    assert res_smooth.metrics["rel_err_f"] < res.metrics["rel_err_f"]


def test_pipeline_monotone_noise_trend(ex1_prepared):
    med = {}
    for delta in (0.04, 0.01, 0.0025):
        errs = [run_aer_pipeline(ex1_prepared, delta, seed).metrics["rel_err_f"]
                for seed in range(1, 6)]
        med[delta] = np.median(errs)
    assert med[0.04] > med[0.01] > med[0.0025]


def test_make_observation_with_gradients_deterministic(ex1_prepared):
    snap, mask = ex1_prepared.snapshot, ex1_prepared.mask
    o1 = make_observation(snap, mask, 0.02, 9, with_gradients=True)
    o2 = make_observation(snap, mask, 0.02, 9, with_gradients=True)
    assert np.array_equal(o1.ux_delta.values, o2.ux_delta.values)
    assert np.array_equal(o1.uy_delta.values, o2.uy_delta.values)
    assert o1.ux_delta is not None and o1.uy_delta is not None


def test_pipeline_errors_carry_stage_labels():
    # the front exits the narrow domain, so the front stage must be named
    s = ProblemSpec(mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=0.5, T=3.0,
                    u_minus_a=parse("-4"), u_plus_a=parse("2"),
                    f=parse("0"), h0_star=0.0, t0=2.0)
    from aer.errors import AerError
    with pytest.raises(AerError, match=r"\[front\]"):
        prepare(s, s.grid(64, 64), 0.4, s.grid(32, 32))
