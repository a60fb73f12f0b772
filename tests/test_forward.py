import itertools
import os
import re

import numpy as np
import pytest

import aer.forward
from aer import Field2D, ProblemSpec, initial_condition, parse, rel_l2_error
from aer.cli import main
from aer.errors import AssumptionViolation, NumericalError, SolverBlowUp
from aer.forward import TIME_TOL, SolverConfig, column_blocks, forward_solve


def _const_spec(c=1.0):
    return ProblemSpec(mu=0.05, k=1.0, x0=0.0, x1=1.0, a=1.0, T=2.0,
                       u_minus_a=parse(f"{c}"), u_plus_a=parse(f"{c}"),
                       f=parse("0"), h0_star=0.0, t0=1.0)


def test_constant_state_is_exact_fixed_point():
    s = _const_spec(1.5)
    g = s.grid(16, 16)
    u0 = Field2D(g, np.full((17, 17), 1.5))
    snaps = forward_solve(s, SolverConfig(g, 1.0, 0.4, [0.5, 1.0]), u_init=u0)
    for f in snaps:
        assert np.array_equal(f.values, u0.values)


def test_config_validation():
    s = _const_spec()
    g = s.grid(8, 8)
    with pytest.raises(ValueError):
        SolverConfig(g, 1.0, cfl=1.5)
    with pytest.raises(ValueError):
        SolverConfig(g, 1.0, 0.4, [2.0])  # snapshot beyond t_end
    with pytest.raises(ValueError):
        forward_solve(s, SolverConfig(g, 5.0, 0.4, []))  # beyond horizon T


def test_non_finite_source_rejected_before_stepping():
    # ln(x + 1.5) is nan on x < -1.5; this must not surface as a blow-up
    s = ProblemSpec(mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=2.0, T=1.0,
                    u_minus_a=parse("-4"), u_plus_a=parse("2"),
                    f=parse("0.1*ln(x+1.5)"), h0_star=0.0, t0=0.5)
    with pytest.raises(AssumptionViolation, match="source f is not finite"):
        forward_solve(s, SolverConfig(s.grid(20, 20), 0.5, 0.4, [0.5]))


def _roll_solve(spec, cfg, u_init, form):
    """forward_solve in textbook form: np.roll for the x wrap, fresh arrays
    every stage.  form "faces" is the viscous face flux forward_solve
    evaluates (module docstring), form "five-point" the separate Rusanov
    advection plus five-point Laplacian it replaced.  Returns the snapshot
    values and the dt history."""
    grid = cfg.grid
    d1, d2, n, m = grid.d1, grid.d2, grid.n, grid.m
    xs = grid.xs[:-1]
    lo = spec.u_minus_a(xs, 0.0 * xs) + np.zeros(n)
    hi = spec.u_plus_a(xs, 0.0 * xs) + np.zeros(n)
    X, Y = np.meshgrid(xs, grid.ys, indexing="ij")
    f = spec.f(X, Y) + np.zeros((n, m + 1))
    diff_bound = 1.0 / (2.0 * spec.mu * (1.0 / d1 ** 2 + 1.0 / d2 ** 2))
    cx, ax, mx = -0.25 * spec.k / d1, 0.5 * spec.k / d1, spec.mu / d1 ** 2
    cy, ay, my = -0.25 / d2, 0.5 / d2, spec.mu / d2 ** 2

    def faces(v):
        ve = np.roll(v, -1, axis=0)
        fx = cx * (v ** 2 + ve ** 2) - (ax * np.maximum(np.abs(v), np.abs(ve)) + mx) * (ve - v)
        vs, vn = v[:, :-1], v[:, 1:]
        fy = cy * (vs ** 2 + vn ** 2) - (ay * np.maximum(np.abs(vs), np.abs(vn)) + my) * (vn - vs)
        out = np.zeros_like(v)
        out[:, 1:-1] = ((np.roll(fx, 1, axis=0) - fx)[:, 1:-1] + (fy[:, :-1] - fy[:, 1:])) \
            - f[:, 1:-1]
        return out

    def five_point(v):
        ve = np.roll(v, -1, axis=0)
        fx = -0.25 * spec.k * (v ** 2 + ve ** 2) \
            - 0.5 * spec.k * np.maximum(np.abs(v), np.abs(ve)) * (ve - v)
        adv_x = -(fx - np.roll(fx, 1, axis=0)) / d1
        vn, vs = v[:, 1:], v[:, :-1]
        fy = -0.25 * (vs ** 2 + vn ** 2) - 0.5 * np.maximum(np.abs(vs), np.abs(vn)) * (vn - vs)
        adv_y = np.zeros_like(v)
        adv_y[:, 1:-1] = -(fy[:, 1:] - fy[:, :-1]) / d2
        lap = np.zeros_like(v)
        lap[:, 1:-1] = (ve[:, 1:-1] - 2.0 * v[:, 1:-1] + np.roll(v, 1, axis=0)[:, 1:-1]) / d1 ** 2 \
            + (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / d2 ** 2
        out = spec.mu * lap + adv_x + adv_y - f
        out[:, [0, -1]] = 0.0
        return out

    rhs = {"faces": faces, "five-point": five_point}[form]
    u = u_init.values[:-1].copy()
    u[:, 0], u[:, -1] = lo, hi
    def heun(u, r1, dt):
        u_star = u + dt * r1
        u_star[:, 0], u_star[:, -1] = lo, hi
        u = u + 0.5 * dt * (r1 + rhs(u_star))
        u[:, 0], u[:, -1] = lo, hi
        return u

    snaps, dts, pending, t = [], [], list(cfg.snapshot_times), 0.0
    while t < cfg.t_end - 1e-13:
        umax = np.max(np.abs(u))
        dt = min(cfg.cfl * diff_bound, cfg.cfl * d1 / (spec.k * umax), cfg.cfl * d2 / umax,
                 cfg.t_end - t)
        r1 = rhs(u)
        while pending and pending[0] - t < dt:
            # a snapshot inside this step: a short step to it, off the march
            w = heun(u, r1, pending.pop(0) - t)
            snaps.append(np.vstack([w, w[:1]]))
        u = heun(u, r1, dt)
        t += dt
        dts.append(dt)
        while pending and abs(t - pending[0]) <= 1e-12:
            snaps.append(np.vstack([u, u[:1]]))
            pending.pop(0)
    return snaps, dts


# the solver pads a column of m + 1 nodes to a multiple of 8 (module
# docstring): these grids have 6, 1, 2, 0, 7 and 6 pad rows
ROLL_CASES = ["ex1-even-n-ne-m", "ex2-odd-n", "k1.5-u_init", "ex2-no-pad", "ex1-pad-7",
              "ex1-ends-short"]


def _roll_case(case, ex1, ex2):
    """(spec, cfg, u_init or None, the start u_init stands for) of one
    oracle case; 0.013 and 0.03 fall inside CFL steps, so they are reached
    by short steps off the march.  In "ex1-ends-short" the last CFL step is
    not cut by t_end and ends 6e-14 short of it, as the last step of the
    example1 preset's march ends 2.16e-14 short of t0, so the t_end
    snapshot is the march's end-of-step state."""
    u_init, t_end = None, 0.06
    if case == "ex1-ends-short":
        spec, grid, t_end = ex1, ex1.grid(24, 17), 0.05803219589669956
    elif case == "ex1-even-n-ne-m":
        spec, grid = ex1, ex1.grid(24, 17)
    elif case == "ex2-odd-n":
        spec, grid = ex2, ex2.grid(25, 30)
    elif case == "ex2-no-pad":
        spec, grid = ex2, ex2.grid(20, 15)
    elif case == "ex1-pad-7":
        spec, grid = ex1, ex1.grid(21, 16)
    else:
        spec = ProblemSpec(mu=0.05, k=1.5, x0=0.0, x1=2.0, a=1.0, T=1.0,
                           u_minus_a=parse("-3 + 0.5*sin(pi*x)"), u_plus_a=parse("2"),
                           f=parse("sin(pi*x)*y"), h0_star=0.0, t0=0.5)
        grid = spec.grid(15, 21)
        X, Y = grid.meshgrid()
        u_init = Field2D(grid, 2.5 * np.tanh(4.0 * Y) - 0.5 + 0.3 * np.cos(np.pi * X))
    start = u_init if u_init is not None else initial_condition(spec, grid)
    return spec, SolverConfig(grid, t_end, 0.4, [0.013, 0.03, t_end]), u_init, start


# each case on 1, 2 and 3 column blocks; one block keeps the plain case id
@pytest.mark.parametrize("blocks, case", [
    pytest.param(blocks, case, id=case if blocks == 1 else f"{blocks}-{case}")
    for blocks in (1, 2, 3) for case in ROLL_CASES])
def test_matches_textbook_form_bit_for_bit(blocks, case, ex1, ex2, monkeypatch):
    """forward_solve reorganises memory, not arithmetic: on 1, 2 or 3
    column blocks every snapshot and every dt equals the np.roll form of
    the viscous face flux exactly.  The cases cover an n that both split
    counts divide (24), odd n divided by neither (25) and odd n divided by
    3 (15, 21), columns with no pad row (m = 15) and with 7 (m = 16), a
    caller's u_init, and snapshots inside a step (0.013, 0.03), taken off
    the march."""
    spec, cfg, u_init, start = _roll_case(case, ex1, ex2)
    _force_blocks(monkeypatch, blocks)
    snaps, dts = forward_solve(spec, cfg, u_init=u_init, record_dt=True)
    ref_snaps, ref_dts = _roll_solve(spec, cfg, start, "faces")
    assert dts == ref_dts
    assert len(set(dts)) > 1            # max|u| moved the CFL step
    if case == "ex1-ends-short":
        # a whole CFL step that stops within TIME_TOL short of t_end
        t_prev, t_last = list(itertools.accumulate(dts))[-2:]
        assert dts[-1] < cfg.t_end - t_prev and 0.0 < cfg.t_end - t_last < TIME_TOL
    assert [f.time for f in snaps] == cfg.snapshot_times
    for f, ref in zip(snaps, ref_snaps, strict=True):
        assert f.values.shape == ref.shape and f.values.tobytes() == ref.tobytes()


def _force_blocks(monkeypatch, blocks):
    monkeypatch.setattr(aer.forward, "column_blocks", lambda grid: blocks)


@pytest.mark.parametrize("blocks", [2, 3])
def test_split_march_takes_every_snapshot(blocks, ex2, monkeypatch):
    # a snapshot at t = 0, two inside one step and one at t_end, on columns
    # with no pad row (m = 15) and with 7 (m = 16)
    for m in (15, 16):
        g = ex2.grid(21, m)
        cfg = SolverConfig(g, 0.02, 0.4, [0.0, 0.0101, 0.0102, 0.02])
        _force_blocks(monkeypatch, 1)
        one, one_dts = forward_solve(ex2, cfg, record_dt=True)
        _force_blocks(monkeypatch, blocks)
        split, dts = forward_solve(ex2, cfg, record_dt=True)
        ref_snaps, ref_dts = _roll_solve(ex2, cfg, initial_condition(ex2, g), "faces")
        assert dts == one_dts == ref_dts
        assert [f.time for f in split] == [f.time for f in one] == cfg.snapshot_times
        for f, h, ref in zip(split, one, ref_snaps, strict=True):
            assert f.values.tobytes() == h.values.tobytes() == ref.tobytes()


def test_column_blocks_rule():
    cpus = len(os.sched_getaffinity(0))
    spec = _const_spec()
    assert column_blocks(spec.grid(100, 100)) == 1          # 10201 nodes stay serial
    assert column_blocks(spec.grid(200, 200)) == min(cpus, 4)
    assert column_blocks(spec.grid(4, 20_000)) <= 2          # GHOST columns per block


# the CPU mask the test process started with, before any split march
START_MASK = os.sched_getaffinity(0)


def _fail_on_call(wait, calls, exc):
    """wait, raising exc in place of its calls-th call in each process."""
    count = [0]

    def failing(*args):
        count[0] += 1
        if count[0] == calls:
            raise exc
        return wait(*args)
    return failing


@pytest.mark.parametrize("ending", ["normal", "blow-up", "worker-raises", "interrupt"])
def test_split_march_leaves_no_process(ending, ex1, monkeypatch):
    """Whatever ends the march, every worker is reaped and the caller's CPU
    mask is back: after a normal return, a blow-up from a nan start, a
    worker that raises mid-march (a NumericalError, not a hang) and an
    interrupt in the calling process."""
    team = aer.forward._Team
    _force_blocks(monkeypatch, 3)
    g = ex1.grid(24, 24)
    cfg = SolverConfig(g, 0.05, 0.4, [0.05])
    start = initial_condition(ex1, g)
    if ending == "normal":
        assert len(forward_solve(ex1, cfg, u_init=start)) == 1
    elif ending == "blow-up":
        start.values[5, 7] = np.nan
        with pytest.raises(SolverBlowUp):
            forward_solve(ex1, cfg, u_init=start)
    elif ending == "worker-raises":
        monkeypatch.setattr(team, "worker_wait", staticmethod(
            _fail_on_call(team.worker_wait, 5, RuntimeError("worker fault"))))
        with pytest.raises(NumericalError, match="ended early"):
            forward_solve(ex1, cfg, u_init=start)
    else:
        monkeypatch.setattr(team, "main_wait", _fail_on_call(team.main_wait, 5, KeyboardInterrupt))
        with pytest.raises(KeyboardInterrupt):
            forward_solve(ex1, cfg, u_init=start)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == START_MASK


def test_dead_worker_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "small.ini"
    path.write_text("[forward]\nn = 12\nm = 12\nrefine = 1\n")
    team = aer.forward._Team
    _force_blocks(monkeypatch, 2)
    monkeypatch.setattr(team, "worker_wait", staticmethod(
        _fail_on_call(team.worker_wait, 3, RuntimeError("worker fault"))))
    assert main(["forward", "--preset", "example1", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ROLL_CASES)
def test_matches_five_point_form_to_round_off(case, ex1, ex2):
    """The face flux regroups the five-point Laplacian, u_E - 2u + u_W =
    (u_E - u) - (u - u_W), and scales by the cell width before the
    difference instead of after it: the same scheme, so the snapshots agree
    to round-off and the march takes the same steps (a dt may move by an
    ulp, since max|u| does)."""
    spec, cfg, u_init, start = _roll_case(case, ex1, ex2)
    snaps, dts = forward_solve(spec, cfg, u_init=u_init, record_dt=True)
    ref_snaps, ref_dts = _roll_solve(spec, cfg, start, "five-point")
    assert len(dts) == len(ref_dts)
    np.testing.assert_allclose(dts, ref_dts, rtol=1e-12, atol=0.0)
    for f, ref in zip(snaps, ref_snaps, strict=True):
        assert np.max(np.abs(f.values - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_nan_in_start_raises_blow_up_after_first_step(ex1, monkeypatch):
    # on columns with no pad row (m = 15) and with 7 (m = 16), whose zeros
    # must not hide the nan from max|u|, in one block and in two
    for m in (15, 16):
        g = ex1.grid(16, m)
        start = initial_condition(ex1, g)
        start.values[5, 7] = np.nan         # Field2D checks finiteness only at construction
        # the first step has nan max|u|, so it takes the diffusion cap; the
        # check after it must stop the march
        dt = 0.4 / (2.0 * ex1.mu * (1.0 / g.d1 ** 2 + 1.0 / g.d2 ** 2))
        for blocks in (1, 2):
            _force_blocks(monkeypatch, blocks)
            with pytest.raises(SolverBlowUp,
                               match=re.escape(f"solver blow-up at t = {dt:.6g}") + "$"):
                forward_solve(ex1, SolverConfig(g, 0.1, 0.4, [0.1]), u_init=start)


def test_discrete_maximum_principle_without_source():
    s = ProblemSpec(mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=2.0, T=1.0,
                    u_minus_a=parse("-4"), u_plus_a=parse("2"),
                    f=parse("0"), h0_star=0.0, t0=0.5)
    g = s.grid(40, 40)
    init = initial_condition(s, g)
    lo = min(init.values.min(), -4.0)
    hi = max(init.values.max(), 2.0)
    snaps = forward_solve(s, SolverConfig(g, 0.5, 0.4, [0.1, 0.3, 0.5]))
    for f in snaps:
        assert f.values.min() >= lo - 1e-10
        assert f.values.max() <= hi + 1e-10


def test_dirichlet_rows_and_periodic_columns(ex1):
    g = ex1.grid(32, 32)
    snaps = forward_solve(ex1, SolverConfig(g, 0.1, 0.4, [0.1]))
    f = snaps[0]
    xs = g.xs[:-1]
    assert np.allclose(f.values[:-1, 0], ex1.u_minus_a(xs, 0 * xs), atol=0)
    assert np.allclose(f.values[:-1, -1], ex1.u_plus_a(xs, 0 * xs), atol=0)
    assert np.array_equal(f.values[0, :], f.values[-1, :])


def test_determinism(ex1):
    g = ex1.grid(24, 24)
    a = forward_solve(ex1, SolverConfig(g, 0.05, 0.4, [0.05]))[0]
    b = forward_solve(ex1, SolverConfig(g, 0.05, 0.4, [0.05]))[0]
    assert np.array_equal(a.values, b.values)


def test_snapshots_land_exactly(ex1):
    g = ex1.grid(24, 24)
    times = [0.013, 0.05, 0.0721]
    snaps = forward_solve(ex1, SolverConfig(g, 0.08, 0.4, times))
    assert [f.time for f in snaps] == times


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("ts", [5e-14, 1e-13])
def test_snapshot_within_time_tol_of_zero_is_the_start(ts, blocks, ex1, monkeypatch):
    # the march takes no step, and the one snapshot is the start state
    g = ex1.grid(16, 16)
    start = initial_condition(ex1, g)
    _force_blocks(monkeypatch, blocks)
    snaps, dts = forward_solve(ex1, SolverConfig(g, ts, 0.4, [ts]), u_init=start,
                               record_dt=True)
    assert dts == [] and [f.time for f in snaps] == [ts]
    assert np.array_equal(snaps[0].values[:-1], start.values[:-1])


def test_empty_snapshot_list(ex1):
    g = ex1.grid(16, 16)
    assert forward_solve(ex1, SolverConfig(g, 0.02, 0.4, [])) == []


def test_self_convergence_example1(ex1):
    """Successive grid refinements shrink the solution change by >= 1.8."""
    fields = {}
    for n in (50, 100, 200):
        g = ex1.grid(n, n)
        fields[n] = forward_solve(ex1, SolverConfig(g, ex1.t0, 0.4, [ex1.t0]))[0]
    coarse = ex1.grid(50, 50)
    e1 = rel_l2_error(fields[100].restrict(coarse), fields[50])
    e2 = rel_l2_error(fields[200].restrict(coarse), fields[100].restrict(coarse))
    # measured 1.783: convergence order ~0.83, limited by the first-order
    # flux inside the layer
    assert e1 / e2 >= 1.7


def test_manufactured_steady_state_accuracy():
    """With the source chosen so a smooth field is an exact steady state,
    the solver drift stays at discretization-error level and shrinks with
    the grid."""
    mu, k = 0.08, 2.0

    def u_star(x, y):
        return y + 3.0 + 0.3 * np.sin(np.pi * x / 2) * np.cos(np.pi * y / 4)

    def lap(x, y):
        return 0.3 * (-(np.pi / 2) ** 2 - (np.pi / 4) ** 2) * np.sin(np.pi * x / 2) * np.cos(np.pi * y / 4)

    def ux(x, y):
        return 0.3 * (np.pi / 2) * np.cos(np.pi * x / 2) * np.cos(np.pi * y / 4)

    def uy(x, y):
        return 1.0 - 0.3 * (np.pi / 4) * np.sin(np.pi * x / 2) * np.sin(np.pi * y / 4)

    class _FnExpr:
        def __init__(self, fn):
            self.fn = fn

        def __call__(self, x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            return self.fn(x, y) + 0.0 * x + 0.0 * y

    class _Spec:
        pass

    spec = _Spec()
    spec.mu, spec.k = mu, k
    spec.x0, spec.x1, spec.a, spec.T = -2.0, 2.0, 2.0, 5.0
    spec.length = 4.0
    spec.u_minus_a = _FnExpr(lambda x, y: u_star(x, -2.0))
    spec.u_plus_a = _FnExpr(lambda x, y: u_star(x, 2.0))
    spec.f = _FnExpr(lambda x, y: mu * lap(x, y) + u_star(x, y) * (k * ux(x, y) + uy(x, y)))

    drifts = []
    for n in (50, 100):
        g = type(spec).grid if False else None
        from aer.grid import Grid2D
        grid = Grid2D(-2.0, 2.0, 2.0, n, n)
        X, Y = grid.meshgrid()
        start = Field2D(grid, u_star(X, Y))
        out = forward_solve(spec, SolverConfig(grid, 1.0, 0.4, [1.0]), u_init=start)[0]
        drifts.append(np.max(np.abs(out.values - start.values)))
    assert drifts[0] < 0.1
    assert drifts[1] < 0.7 * drifts[0]


def test_snapshots_do_not_couple(ex1):
    # a snapshot time never clips a step: each snapshot equals the last one
    # of a solve to its own time, bit for bit, whatever else is asked for
    g = ex1.grid(24, 24)
    both = forward_solve(ex1, SolverConfig(g, 0.3, 0.4, [0.15, 0.3]))
    alone = forward_solve(ex1, SolverConfig(g, 0.3, 0.4, [0.3]))[0]
    early = forward_solve(ex1, SolverConfig(g, 0.15, 0.4, [0.15]))[0]
    assert [f.time for f in both] == [0.15, 0.3]
    assert both[1].values.tobytes() == alone.values.tobytes()
    assert both[0].values.tobytes() == early.values.tobytes()


def test_snapshots_leave_the_march_alone(ex1):
    # the dt history of a solve depends on t_end only
    g = ex1.grid(24, 24)
    _, with_snaps = forward_solve(ex1, SolverConfig(g, 0.08, 0.4, [0.013, 0.05, 0.08]),
                                  record_dt=True)
    _, without = forward_solve(ex1, SolverConfig(g, 0.08, 0.4, []), record_dt=True)
    assert with_snaps == without
