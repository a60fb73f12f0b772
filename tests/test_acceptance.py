"""Acceptance criteria, one test per criterion.

Each test prints the measured quantity next to its required band before
asserting, so `pytest -rA` shows a one-line verdict per criterion, and
hands the same value and band to the session ledger (conftest.py), which
`pytest --ledger PATH` writes as JSON.  The prepared fixtures are
`aer.prepare` on the 200 x 200 forward and 50 x 50 observation grids, as
`aer invert` and `aer study` run a preset.

Two assertions are expected to fail.  Measurements of this code establish
their causes:

  * criterion 2: the PDE front lags the front equation.  At t0 = 0.7 the
    forward zero level has mean 0.856 / 0.848 / 0.844 (PDE at 100^2 /
    200^2 / 400^2) against 0.765 from the front equation, and the error
    (0.1179 / 0.1178 / 0.1185) is converged.  Two causes act together:
    the forward start has constant outer values (-4, 2) while phi+ spans
    1.34..2.49, so the initial transient has not died out by t0; and the
    closed-form phi uses the source cos(pi x/4) cos(pi y/4) unwrapped,
    although it is not 4-periodic.  The seam is not the cause: the 30
    percent of columns nearest it carry about a third of the squared error.
  * criterion 5: the forward start tanh(x + (y - h0*)/mu) puts the initial
    layer on y = h0* - mu x instead of y = h0*, and jumps at the seam.  The
    error is not monotone in delta (1.405 at delta = 0, 0.819 at 0.001,
    0.718 at 0.01), so noise is not what limits it.

Criterion 6 checks the Example 2 band against the converged forward zero
level instead of the reference indices (28, 34).  Those imply a front near
y = 0.24 at t0 = 0.2; the front equation puts it at 0.406, and the PDE zero
level agrees to 0.0095 in mean at 400^2.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from aer import (
    Field2D,
    Grid2D,
    ProblemSpec,
    RegionMask,
    assemble_u0,
    eval_phi,
    eval_q0,
    eval_u1,
    layer_band,
    make_observation,
    outer_branches,
    parse,
    rel_l2_error,
    run_aer_pipeline,
    smooth_region,
    smoothing_factors,
    solve_front,
    transition_width,
)
from aer.cli import write_field_csv
from aer.errors import DiscrepancyUnreachable
from aer.forward import SolverConfig, forward_solve
from aer.inverse import Observation
from conftest import CLOSED_FORMS, u1_rk4_oracle

SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def ex1_delta_sweep(ex1_prepared):
    """Median recovery error per noise level; shared by criteria 4 and 7."""
    t_start = time.perf_counter()
    med = {}
    for delta in (0.04, 0.02, 0.01, 0.005):
        errs = [run_aer_pipeline(ex1_prepared, delta, seed).metrics["rel_err_f"]
                for seed in SEEDS]
        med[delta] = float(np.median(errs))
    return med, time.perf_counter() - t_start


def test_c01_phi_quadrature_matches_closed_forms(ex1, ex2, ledger):
    rng = np.random.default_rng(7)
    t_start = time.perf_counter()
    worst = 0.0
    for spec, (cf_minus, cf_plus) in ((ex1, CLOSED_FORMS["ex1"]), (ex2, CLOSED_FORMS["ex2"])):
        x = spec.x0 + spec.length * rng.random(10000)
        y = -spec.a + 2 * spec.a * rng.random(10000)
        worst = max(worst,
                    float(np.max(np.abs(eval_phi(spec, "minus", x, y) - cf_minus(x, y)))),
                    float(np.max(np.abs(eval_phi(spec, "plus", x, y) - cf_plus(x, y)))))
    elapsed = time.perf_counter() - t_start
    print(f"[C1] max |quadrature - closed form| = {worst:.2e} (tol 1e-7), "
          f"runtime {elapsed:.1f} s (cap 10 s)")
    ledger("C1 phi quadrature error", worst, (None, 1e-7))
    assert worst <= 1e-7
    assert elapsed < 10.0


def test_c02_example1_forward_asymptotic_agreement(ex1, ex1_front, ledger):
    t_start = time.perf_counter()
    grid = ex1.grid(100, 100)
    snap = forward_solve(ex1, SolverConfig(grid, ex1.t0, 0.4, [ex1.t0]))[0]
    u0 = assemble_u0(ex1, ex1_front, grid, outer_branches(ex1, grid))
    err = rel_l2_error(u0, snap)
    elapsed = time.perf_counter() - t_start
    print(f"[C2] Example 1 rel_l2_error(U0, forward) = {err:.4f} "
          f"(band [0.015, 0.08], reference 0.0339), runtime {elapsed:.1f} s (cap 120 s)")
    ledger("C2 ex1 rel_l2(U0, forward)", err, (0.015, 0.08))
    assert elapsed < 120.0
    assert 0.015 <= err <= 0.08, (
        f"measured {err:.4f}: the PDE front lags the front equation (zero "
        "level near 0.85 against 0.765) because the forward start has "
        "constant outer values and the closed-form branches use the "
        "non-periodic source unwrapped; the seam is not the cause")


def test_c03_example2_forward_asymptotic_agreement(ex2, ex2_front, ledger):
    t_start = time.perf_counter()
    grid = ex2.grid(100, 100)
    snap = forward_solve(ex2, SolverConfig(grid, ex2.t0, 0.4, [ex2.t0]))[0]
    u0 = assemble_u0(ex2, ex2_front, grid, outer_branches(ex2, grid))
    err = rel_l2_error(u0, snap)
    elapsed = time.perf_counter() - t_start
    print(f"[C3] Example 2 rel_l2_error(U0, forward) = {err:.4f} "
          f"(band [0.02, 0.09], reference 0.0408), runtime {elapsed:.1f} s (cap 60 s)")
    ledger("C3 ex2 rel_l2(U0, forward)", err, (0.02, 0.09))
    assert elapsed < 60.0
    assert 0.02 <= err <= 0.09


def test_c04_example1_inversion(ex1_delta_sweep, ledger):
    med, _ = ex1_delta_sweep
    value = med[0.01]
    print(f"[C4] Example 1 median rel_err_f over 5 seeds at delta=1% = {value:.4f} "
          f"(band [0.04, 0.15], reference 0.0814)")
    ledger("C4 ex1 median rel_err_f", value, (0.04, 0.15))
    assert 0.04 <= value <= 0.15


def test_c05_example2_inversion(ex2_prepared, ledger):
    errs = [run_aer_pipeline(ex2_prepared, 0.01, seed).metrics["rel_err_f"] for seed in SEEDS]
    value = float(np.median(errs))
    print(f"[C5] Example 2 median rel_err_f over 5 seeds at delta=1% = {value:.4f} "
          f"(band [0.20, 0.55], reference 0.3768)")
    ledger("C5 ex2 median rel_err_f", value, (0.20, 0.55))
    assert 0.20 <= value <= 0.55, (
        f"measured {value:.4f}: the forward start tanh(x + (y - h0*)/mu) "
        "tilts the initial layer and jumps at the seam; the error is not "
        "monotone in delta (1.405 at delta = 0), so noise is not the limit")


def _zero_level(snapshot):
    """Height where `snapshot` changes sign in each column (linear between
    rows); nan where it does not change sign once."""
    u = snapshot.values
    ys = snapshot.grid.ys
    level = np.full(snapshot.grid.n + 1, np.nan)
    for i, col in enumerate(u):
        cross = np.flatnonzero(np.sign(col[:-1]) != np.sign(col[1:]))
        if cross.size == 1:
            j = cross[0]
            level[i] = ys[j] - col[j] * (ys[j + 1] - ys[j]) / (col[j + 1] - col[j])
    return level


def test_c06_mask_indices(ex1, ex1_front, ex2, ex2_front, ex2_prepared, ledger):
    grid2 = ex2.grid(50, 50)
    m1 = layer_band(ex1_front, ex1, ex1.grid(50, 50))
    m2 = layer_band(ex2_front, ex2, grid2)
    level = _zero_level(ex2_prepared.snapshot)

    def covers(mask):
        return bool(np.all((grid2.ys[mask.j_lo] < level) & (level < grid2.ys[mask.j_hi])))

    print(f"[C6] Example 1 mask = ({m1.j_lo}, {m1.j_hi}) "
          f"(bands [29,33] / [37,41], reference (31, 39)); "
          f"Example 2 mask = ({m2.j_lo}, {m2.j_hi}) -> y ({grid2.ys[m2.j_lo]:.2f}, "
          f"{grid2.ys[m2.j_hi]:.2f}) (must contain the forward zero level "
          f"[{np.min(level):.4f}, {np.max(level):.4f}], width 6 +- 2; "
          f"reference (28, 34))")
    ledger("C6 ex1 j_lo", m1.j_lo, (29, 33))
    ledger("C6 ex1 j_hi", m1.j_hi, (37, 41))
    ledger("C6 ex2 lowest zero level", np.min(level), (grid2.ys[m2.j_lo], None))
    ledger("C6 ex2 highest zero level", np.max(level), (None, grid2.ys[m2.j_hi]))
    ledger("C6 ex2 band width", m2.j_hi - m2.j_lo, (4, 8))
    assert 29 <= m1.j_lo <= 33 and 37 <= m1.j_hi <= 41
    assert covers(m2) and abs(m2.j_hi - m2.j_lo - 6) <= 2, (
        f"Example 2 mask ({m2.j_lo}, {m2.j_hi}) does not cover the forward "
        "zero level with a band of 6 +- 2 rows")
    # the reference indices imply a front near 0.24; the check must reject them
    assert not covers(RegionMask(28, 34))


def test_c07_delta_rate(ex1_delta_sweep, ledger):
    med, elapsed = ex1_delta_sweep
    deltas = np.array(sorted(med))
    errs = np.array([med[d] for d in deltas])
    slope = float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
    print(f"[C7] log-log slope of median rel_err_f vs delta = {slope:.3f} "
          f"(band [0.3, 0.8]), sweep runtime {elapsed:.0f} s (cap 900 s)")
    ledger("C7 ex1 log-log slope", slope, (0.3, 0.8))
    assert 0.3 <= slope <= 0.8
    assert elapsed < 900.0


def test_benchmark_references(ex1_prepared, ex1_delta_sweep, ex2, ledger):
    """The seed-1 references that the benchmark's output checks hold
    (bench/check.py) within their 1e-6: rel_err_f and rel_err_u0 of `aer
    invert --preset example1 --seed 1`, the C4 median and C7 slope of its
    study sweep, and the front range of `aer asymptote --preset example2`
    (its front on the 50 x 50 observation grid up to T).  A change that
    moves these numbers re-records them here and in the benchmark in the
    same change, listing old -> new (ROADMAP's rule for items that move
    numbers)."""
    med, _ = ex1_delta_sweep
    deltas = np.array(sorted(med))
    slope = float(np.polyfit(np.log(deltas), np.log([med[d] for d in deltas]), 1)[0])
    front = solve_front(ex2, ex2.grid(50, 50), ex2.T)
    measured = {"rel_err_f": run_aer_pipeline(ex1_prepared, 0.01, 1).metrics["rel_err_f"],
                "rel_err_u0": ex1_prepared.u0_rel_error,
                "c4_median": med[0.01], "c7_slope": slope,
                "front_min": float(front.h.min()), "front_max": float(front.h.max())}
    references = {"rel_err_f": 0.14325674021644016, "rel_err_u0": 0.1166013584019243,
                  "c4_median": 0.1494611249391638, "c7_slope": 0.5313841051015891,
                  "front_min": 0.0, "front_max": 0.6104871659543036}
    for name, value in references.items():
        ledger(f"reference {name}", measured[name], (value - 1e-6, value + 1e-6))
    for name, value in references.items():
        assert abs(measured[name] - value) <= 1e-6, (name, measured[name])


def test_c08_width_scaling(ex1, ex1_front, ledger):
    h0, h0x = ex1_front.sample(ex1.t0, np.array([0.0]))
    ratios = []
    for mu in (0.16, 0.08, 0.04, 0.02):
        spec_mu = replace(ex1, mu=mu)
        width = float(np.asarray(transition_width(spec_mu, 0.0, h0[0], h0x[0])))
        ratios.append(width / (mu * abs(np.log(mu))))
    spread = max(ratios) / min(ratios)
    print(f"[C8] width / (mu |ln mu|) across mu in (0.16..0.02): "
          f"{np.round(ratios, 3)}, spread factor {spread:.2f} (cap 2.0)")
    ledger("C8 width spread", spread, (None, 2.0))
    assert spread <= 2.0


def test_c09_property_suite(ex1, ex1_front, ledger):
    lines = []

    # layer corrector matches the half-sum at xi = 0 on all front samples
    xs = ex1_front.xs
    h0, h0x = ex1_front.sample(ex1.t0, xs)
    pm = np.asarray(eval_phi(ex1, "minus", xs, h0))
    pp = np.asarray(eval_phi(ex1, "plus", xs, h0))
    match = np.max(np.abs(pm + np.asarray(eval_q0(ex1, "minus", 0.0, xs, h0, h0x))
                          - 0.5 * (pm + pp)))
    lines.append(f"q0 matching identity {match:.1e} (tol 1e-12)")
    ledger("C9 q0 matching identity", match, (None, 1e-12))
    assert match <= 1e-12

    # exponential tail bound
    p = 0.5 * (pp - pm)
    rate = p * (1 - ex1.k * h0x) / np.sqrt(1 + h0x ** 2)
    ok = True
    for xi in (-1.0, -4.0, -12.0):
        q = np.abs(np.asarray(eval_q0(ex1, "minus", xi, xs, h0, h0x)))
        ok &= bool(np.all(q <= 2 * p * np.exp(-abs(xi) * rate) * (1 + 1e-12)))
    lines.append(f"q0 tail bound holds: {ok}")
    assert ok

    # front equation closed-form case
    drift = ProblemSpec(mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=2.0, T=3.0,
                        u_minus_a=parse("-4"), u_plus_a=parse("2"),
                        f=parse("0"), h0_star=0.0, t0=1.0)
    front = solve_front(drift, drift.grid(32, 32), t_end=1.5)
    h, _ = front.sample(1.5, np.linspace(-2, 2, 9))
    front_err = float(np.max(np.abs(h - 1.5)))
    lines.append(f"front closed-form case error {front_err:.1e} (tol 1e-4)")
    ledger("C9 front closed-form error", front_err, (None, 1e-4))
    assert front_err <= 1e-4

    # constant state is an exact fixed point of the solver
    const = ProblemSpec(mu=0.05, k=1.0, x0=0.0, x1=1.0, a=1.0, T=1.0,
                        u_minus_a=parse("1.5"), u_plus_a=parse("1.5"),
                        f=parse("0"), h0_star=0.0, t0=0.5)
    g = const.grid(16, 16)
    u0 = Field2D(g, np.full((17, 17), 1.5))
    snaps = forward_solve(const, SolverConfig(g, 0.5, 0.4, [0.5]), u_init=u0)
    exact_fp = bool(np.array_equal(snaps[0].values, u0.values))
    lines.append(f"solver constant fixed point exact: {exact_fp}")
    assert exact_fp

    # discrepancy postcondition at the delta^4 target (periodicity-consistent
    # measurement), and the explicit unreachability report otherwise
    g2 = Grid2D(0.0, 2.0, 1.0, 50, 45)
    u = Field2D.from_function(g2, lambda x, y: 4.0 + y + 0.5 * y ** 2
                              + 0.3 * np.cos(np.pi * x), time=0.5)
    noisy = make_observation(u, RegionMask(31, 34), 0.01, 3).u_delta
    vals = noisy.values.copy()
    vals[-1, :] = vals[0, :]
    obs = Observation(Field2D(g2, vals, 0.5), 0.01, RegionMask(31, 34))
    factors = smoothing_factors(g2, obs.mask)["lower"]
    reg = smooth_region(obs, "lower", factors, discrepancy="delta4")
    ratio = reg.misfit / 0.01 ** 4
    lines.append(f"delta^4 discrepancy achieved/target = {ratio:.3f} (within [0.95, 1.05])")
    ledger("C9 delta^4 misfit/target", ratio, (0.95, 1.05))
    assert 0.95 <= ratio <= 1.05
    obs_dup = Observation(noisy, 0.01, RegionMask(31, 34))
    with pytest.raises(DiscrepancyUnreachable):
        smooth_region(obs_dup, "lower", factors, discrepancy="delta4")
    lines.append("unreachable delta^4 reported explicitly: True")

    # noise determinism
    n1 = make_observation(u, RegionMask(31, 34), 0.02, 11).u_delta.values
    n2 = make_observation(u, RegionMask(31, 34), 0.02, 11).u_delta.values
    lines.append(f"noise determinism bit-exact: {np.array_equal(n1, n2)}")
    assert np.array_equal(n1, n2)

    # CSV round trip
    import tempfile, os
    rng = np.random.default_rng(1)
    f = Field2D(g2, rng.standard_normal((51, 46)))
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "f.csv")
        write_field_csv(path, f)
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:].T
    rt = bool(np.array_equal(back, f.values))
    lines.append(f"CSV round trip bit-exact: {rt}")
    assert rt

    print("[C9] " + "; ".join(lines))


def test_c10_u1_oracle(ex1, ledger):
    rng = np.random.default_rng(31)
    x = -2.0 + 4.0 * rng.random(100)
    y = -1.95 + 3.9 * rng.random(100)
    worst = 0.0
    for side, phi in zip(("minus", "plus"), CLOSED_FORMS["ex1"]):
        u1 = np.asarray(eval_u1(ex1, side, x, y))
        oracle = u1_rk4_oracle(ex1, side, phi, x, y, n=3000)
        worst = max(worst, float(np.max(np.abs(u1 - oracle))))
    drift = ProblemSpec(mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=2.0, T=3.0,
                        u_minus_a=parse("-4"), u_plus_a=parse("2"),
                        f=parse("0"), h0_star=0.0, t0=1.0)
    flat = max(float(np.max(np.abs(np.asarray(eval_u1(drift, s, x, y)))))
               for s in ("minus", "plus"))
    print(f"[C10] max |eval_u1 - RK4 oracle on the closed-form branches| over "
          f"100 points x 2 sides = "
          f"{worst:.2e} (tol 1e-5); constant-data correction max = {flat:.1e} "
          f"(tol 1e-10)")
    ledger("C10 u1 against RK4 oracle", worst, (None, 1e-5))
    ledger("C10 u1 on constant data", flat, (None, 1e-10))
    assert worst <= 1e-5
    assert flat <= 1e-10
