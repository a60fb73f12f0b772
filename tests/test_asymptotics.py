import dataclasses
import warnings

import numpy as np
import pytest

from aer import (
    ProblemSpec,
    assemble_u0,
    check_assumption1,
    check_assumption2,
    eval_phi,
    eval_q0,
    eval_u1,
    initial_condition,
    outer_branches,
    parse,
    solve_front,
    transition_width,
)
import aer.asymptotics as asymptotics
from aer.asymptotics import (
    PhiTable,
    phi_table,
)
from aer.errors import AssumptionViolation
from conftest import CLOSED_FORMS, phi2_at_k, u1_rk4_oracle


def _symmetric_spec(c=3.0, mu=0.08, a=1.0, T=1.0, t0=0.5, k=1.0):
    """f = 0 with traces -c, +c: branches are constant, the front is still."""
    return ProblemSpec(mu=mu, k=k, x0=-1.0, x1=1.0, a=a, T=T,
                       u_minus_a=parse(f"-{c}"), u_plus_a=parse(f"{c}"),
                       f=parse("0"), h0_star=0.0, t0=t0)


def _drift_spec(mu=0.08, k=2.0):
    """f = 0 with traces -4, 2: branch sum is -2, so h0 rises at speed 1."""
    return ProblemSpec(mu=mu, k=k, x0=-2.0, x1=2.0, a=2.0, T=3.0,
                       u_minus_a=parse("-4"), u_plus_a=parse("2"),
                       f=parse("0"), h0_star=0.0, t0=1.0)


# ---------------------------------------------------------------------------
# outer branches

def test_phi_constant_case():
    s = _symmetric_spec(c=4.0)
    assert eval_phi(s, "minus", 0.3, -0.2) == pytest.approx(-4.0, abs=1e-12)
    assert eval_phi(s, "plus", -0.7, 0.9) == pytest.approx(4.0, abs=1e-12)


def test_phi_point_value_example1(ex1):
    closed = -(2 / np.sqrt(3 * np.pi)) * np.sqrt(
        np.sin(0) - np.sin(-6 * np.pi / 4) + 3 * np.sin(0)
        - 3 * np.sin(-2 * np.pi / 4) + 12 * np.pi)
    assert eval_phi(ex1, "minus", 0.0, 0.0) == pytest.approx(closed, abs=1e-8)


def test_phi_radicand_violation():
    # a large positive source starves the upper branch, a large negative
    # one the lower branch (the characteristic integrals enter with
    # opposite signs)
    s = ProblemSpec(mu=0.08, k=1.0, x0=-1.0, x1=1.0, a=1.0, T=1.0,
                    u_minus_a=parse("-1"), u_plus_a=parse("1"),
                    f=parse("50"), h0_star=0.0, t0=0.5)
    with pytest.raises(AssumptionViolation, match="radicand"):
        eval_phi(s, "plus", 0.0, -0.5)
    s2 = ProblemSpec(mu=0.08, k=1.0, x0=-1.0, x1=1.0, a=1.0, T=1.0,
                     u_minus_a=parse("-1"), u_plus_a=parse("1"),
                     f=parse("-50"), h0_star=0.0, t0=0.5)
    with pytest.raises(AssumptionViolation, match="radicand"):
        eval_phi(s2, "minus", 0.0, 0.5)


def _columns(spec, nx):
    return spec.x0 + spec.length / nx * np.arange(nx)


def test_phi_table_matches_direct_quadrature(ex1, ex2):
    rng = np.random.default_rng(2)
    for spec in (ex1, ex2):
        for side in ("minus", "plus"):
            table = phi_table(spec, side, 256)
            y = -spec.a + 2 * spec.a * rng.random(256)
            err = np.max(np.abs(table(y) - eval_phi(spec, side, _columns(spec, 256), y)))
            assert err < 1e-6
            sign = -1.0 if side == "minus" else 1.0
            assert np.all(sign * table.values > 0)


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_phi_table_stops_at_its_floor(name, request):
    # the cubics in y meet the tolerance on the first table, so no
    # refinement is taken; checked at heights the probes never saw
    spec = request.getfixturevalue(name)
    rng = np.random.default_rng(17)
    y = -spec.a + 2 * spec.a * rng.random((3, 200))
    x = np.broadcast_to(_columns(spec, 200), y.shape)
    for side in ("minus", "plus"):
        table = phi_table(spec, side, 200)
        assert table.values.shape == (200, 201)
        assert np.max(np.abs(table(y) - eval_phi(spec, side, x, y))) < 1e-6


@pytest.mark.parametrize("k", [0.3333, 3.7])
def test_phi_table_for_any_k(ex2, k):
    # 2 a k / L is not a whole number: the rows are anchored at the branch's
    # boundary and the last one passes the far boundary
    spec = dataclasses.replace(ex2, k=k)
    rng = np.random.default_rng(23)
    y = -spec.a + 2 * spec.a * rng.random((3, 200))
    x = np.broadcast_to(_columns(spec, 200), y.shape)
    for side in ("minus", "plus"):
        table = phi_table(spec, side, 200)
        assert table.ny * table.dy >= 2 * spec.a
        assert np.max(np.abs(table(y) - eval_phi(spec, side, x, y))) < 1e-6


def test_phi_table_clamped_in_y(ex2):
    table = PhiTable(ex2, "plus", 64)
    assert np.array_equal(table(np.full(64, ex2.a + 0.4)), table(np.full(64, ex2.a)))
    assert np.array_equal(table(np.full(64, -ex2.a - 2.0)), table(np.full(64, -ex2.a)))


def test_phi_table_fast_path_equals_generic(ex1):
    # the row recursion gives the node values of per-node quadrature, and
    # the table interpolates them; traces that vary in x check that each
    # node takes the trace at its own characteristic's foot
    spec = dataclasses.replace(ex1, u_minus_a=parse("-4 + 0.5*sin(pi*x/2)"),
                               u_plus_a=parse("2 + 0.5*cos(pi*x/2)"))
    rng = np.random.default_rng(3)
    for side, sign in (("minus", -1.0), ("plus", 1.0)):
        table = PhiTable(spec, side, 96)
        rows = rng.integers(0, table.ny + 1, 96)
        y = sign * (spec.a - rows * table.dy)
        node = table.values[np.arange(96), rows]
        assert np.max(np.abs(node - eval_phi(spec, side, _columns(spec, 96), y))) < 1e-9
        np.testing.assert_allclose(table(y), node, rtol=0, atol=1e-12)


@pytest.mark.parametrize("nx", [8, 11])
def test_column_cells_are_hermite_cubics(ex2, nx):
    # f = P P' with traces -P(-a) and P(a) makes the branches -P and P, a
    # cubic in y on every column, which the cells, with five-point slopes
    # exact for quartics, reproduce to round-off; ny = nx here, so odd and
    # even node counts, every edge cell and both ends of each column, on
    # both branches (whose rows run opposite ways)
    def cubic(y):
        return 2.0 + 0.3 * y - 0.2 * y ** 2 + 0.1 * y ** 3

    spec = dataclasses.replace(
        ex2, f=parse("(2 + 0.3*y - 0.2*y^2 + 0.1*y^3)*(0.3 - 0.4*y + 0.3*y^2)"),
        u_minus_a=parse("-1.4"), u_plus_a=parse("2.2"))
    a = spec.a
    rng = np.random.default_rng(nx)
    for side, sign in (("minus", -1.0), ("plus", 1.0)):
        table = PhiTable(spec, side, nx)
        assert table.ny == nx
        dy = table.dy
        edges = np.r_[-a, -a + 0.4 * dy, a - 0.4 * dy, a]
        y = np.vstack([-a + 2 * a * rng.random((200, nx)),
                       np.repeat(edges[:, None], nx, axis=1)])
        assert np.max(np.abs(table(y) - sign * cubic(y))) <= 1e-14
        # each node value is returned as it is
        rows = sign * (a - dy * np.arange(nx + 1))
        assert np.array_equal(table(np.repeat(rows[:, None], nx, axis=1)), table.values.T)
        # C1: the slope at the top of a cell is the next cell's at its foot
        c = table._coef
        top = c[:-1, :, 1] + 2.0 * c[:-1, :, 2] + 3.0 * c[:-1, :, 3]
        assert np.max(np.abs(top - c[1:, :, 1])) <= 1e-15


def _per_row_branch_integral(spec, side, nx, ny, p):
    """Reference for _aligned_branch_integral: the row recursion with four
    calls of f per row, each on one row of the extended columns."""
    dx = spec.length / nx
    dy = p * dx / spec.k
    ext = p * ny
    half = 0.5 * spec.k * dy
    step = 1 if side == "plus" else -1
    lo = 0 if step > 0 else ext
    xs_ext = spec.x0 + dx * (np.arange(nx + ext) - lo)
    mid = xs_ext + step * half
    out = np.zeros((nx, ny + 1))
    row = np.zeros_like(xs_ext)
    for r in range(1, ny + 1):
        y = step * (spec.a - r * dy)
        seg = np.zeros_like(xs_ext)
        for t, w in zip(asymptotics._GAUSS4_NODES, asymptotics._GAUSS4_WEIGHTS):
            s = mid + half * t
            seg += w * spec.f(s, y + (s - xs_ext) / spec.k)
        row = np.roll(row, -step * p) + half * seg
        out[:, r] = row[lo:lo + nx]
    return step * out


@pytest.mark.parametrize("name, source, refine", [
    pytest.param("ex1", None, 1, id="ex1-p2"),
    pytest.param("ex2", None, 1, id="ex2-p1"),
    pytest.param("ex1", "sin(3*x)*exp(y/4) + x*y", 1, id="ex1-mixed-source"),
    pytest.param("ex2", "cos(7*x)*(1 + y^2) - 0.5*x", 1, id="ex2-mixed-source"),
    pytest.param("ex1", "sin(3*x)*exp(y/4) + x*y", 3, id="ex1-refined-3"),
])
@pytest.mark.parametrize("rows_per_block", [None, 1, 7])
def test_blocked_table_integral_equals_per_row_oracle(name, source, refine, rows_per_block,
                                                      request, monkeypatch):
    # evaluating f for blocks of rows sums the same terms in the same order
    # as the per-row loop, so every node value is bit-identical; 7 rows per
    # block leave a short last block (200 rows).  A refined recursion stores
    # every refine-th of its columns, each as the full recursion has it
    spec = request.getfixturevalue(name)
    if source is not None:
        spec = dataclasses.replace(spec, f=parse(source))
    cols = 200 * refine
    p, _, ny = asymptotics._table_rows(spec, cols)
    if rows_per_block is not None:
        monkeypatch.setattr(asymptotics, "_TABLE_CALL_POINTS",
                            rows_per_block * 4 * (cols + int(p) * ny))
    for side in ("minus", "plus"):
        want = _per_row_branch_integral(spec, side, cols, ny, int(p))[::refine]
        got = asymptotics._aligned_branch_integral(spec, side, 200, ny, int(p), refine)
        assert got.tobytes() == want.tobytes()


def test_table_size_of_an_overflowing_stride(ex1):
    # 2 a k / L overflows to inf: the row count still comes out, and the
    # recursion's columns are refused by the budget
    spec = dataclasses.replace(ex1, k=1e308)
    assert asymptotics._table_rows(spec, 200)[2] == 4
    assert asymptotics._table_rows(ex1, 200)[2] == 200
    assert "would run its recursion on inf columns" in asymptotics.table_budget_excess(spec, 200)


def test_table_budget_holds_kept_nodes_and_recursion_columns(ex2):
    # example 2 has ny = nx rows at k = 1: 1023 x 1024 kept nodes are within
    # the budget, 1024 x 1025 are not, and a refinement keeps the rows of
    # its recursion
    assert asymptotics.table_budget_excess(ex2, 1023) is None
    assert "would hold 1049600 nodes" in asymptotics.table_budget_excess(ex2, 1024)
    assert asymptotics.table_budget_excess(ex2, 512, 2) is None        # 512 x 1025 kept
    assert "would hold 2098176 nodes" in asymptotics.table_budget_excess(ex2, 1024, 2)
    # at k = 1e-4 a table on 200 columns has ceil(refine / 50) rows: a
    # 2400-fold recursion keeps 200 x 49 nodes and runs on 480048 columns
    # (107.6 MB at its peak), within the budget
    spec = dataclasses.replace(ex2, k=1e-4)
    assert asymptotics.table_budget_excess(spec, 200, 2400) is None
    # at k = 1e-6 the rows stay 4: the recursion runs on 200 refine + 4
    # columns, within the budget up to 2621-fold
    spec = dataclasses.replace(ex2, k=1e-6)
    assert asymptotics.table_budget_excess(spec, 200, 2621) is None
    assert "would run its recursion on 524404 columns, over the budget of 524288" \
        in asymptotics.table_budget_excess(spec, 200, 2622)


def test_closed_forms_of_example2_at_any_k(ex2):
    # the k-general closed forms reduce to the k = 1 ones
    x, y = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 7))
    for general, closed in zip(phi2_at_k(1.0), CLOSED_FORMS["ex2"]):
        np.testing.assert_allclose(general(x, y), closed(x, y), rtol=1e-14, atol=0)


def test_table_build_calls_f_once_per_block(ex2):
    rec = _RecordingSource(ex2.f)
    spec = dataclasses.replace(ex2, f=rec)
    for side in ("minus", "plus"):
        rec.shapes.clear()
        table = PhiTable(spec, side, 200)
        points = 4 * (200 + table.ny)          # p = 1: 4 Gauss nodes per column
        rows = max(1, asymptotics._TABLE_CALL_POINTS // points)
        assert len(rec.shapes) <= -(-table.ny // rows)
        assert sum(int(np.prod(s)) for s in rec.shapes) == table.ny * points
        assert max(int(np.prod(s)) for s in rec.shapes) <= max(
            asymptotics._TABLE_CALL_POINTS, points)


# ---------------------------------------------------------------------------
# assumption checkers

def test_assumption1_example1(ex1):
    rep = check_assumption1(ex1)
    assert rep.ok
    assert rep.details["gap_margin"] == pytest.approx(6.0 - 2 * 0.08 ** 2, abs=1e-12)


def test_assumption1_violations():
    s = ProblemSpec(mu=0.08, k=1.0, x0=0.0, x1=1.0, a=1.0, T=1.0,
                    u_minus_a=parse("1"), u_plus_a=parse("2"),
                    f=parse("0"), h0_star=0.0, t0=0.5)
    rep = check_assumption1(s)
    assert not rep.ok
    assert any("not negative" in m for m in rep.messages)
    mu = 0.08
    s2 = ProblemSpec(mu=mu, k=1.0, x0=0.0, x1=1.0, a=1.0, T=1.0,
                     u_minus_a=parse(f"-{mu ** 2}"), u_plus_a=parse(f"{mu ** 2}"),
                     f=parse("0"), h0_star=0.0, t0=0.5)
    rep2 = check_assumption1(s2)
    assert not rep2.ok  # the gap condition is a strict inequality
    assert rep2.details["gap_margin"] == pytest.approx(0.0, abs=1e-15)
    # a trace undefined on part of the period (sqrt of negative x) is nan
    # there; nan must not pass as data, so the spec itself is rejected
    with pytest.raises(AssumptionViolation, match="u_minus_a is not finite"):
        ProblemSpec(mu=mu, k=1.0, x0=-1.0, x1=1.0, a=1.0, T=1.0,
                    u_minus_a=parse("-1 + 0*sqrt(x)"), u_plus_a=parse("2"),
                    f=parse("0"), h0_star=0.0, t0=0.5)
    # finite on [x0, x1] but nan one period on: not periodic, never passed
    with pytest.raises(ValueError, match="not periodic"):
        ProblemSpec(mu=mu, k=1.0, x0=0.0, x1=1.0, a=1.0, T=1.0,
                    u_minus_a=parse("-1 + 0*sqrt(1 - x)"), u_plus_a=parse("2"),
                    f=parse("0"), h0_star=0.0, t0=0.5)


def test_assumption2_example1(ex1):
    rep = check_assumption2(ex1)
    assert rep.ok


def test_assumption2_trivial_and_violating():
    assert check_assumption2(_symmetric_spec()).ok
    s = ProblemSpec(mu=0.08, k=1.0, x0=-1.0, x1=1.0, a=1.0, T=1.0,
                    u_minus_a=parse("-1"), u_plus_a=parse("1"),
                    f=parse("1000"), h0_star=0.0, t0=0.5)
    rep = check_assumption2(s)
    assert not rep.ok
    assert rep.details["min_radicand_plus"] <= 0.0


def _log_source_spec():
    """Example 1 geometry with f = 0.1 ln(x + 1.5), undefined for x < -1.5."""
    return ProblemSpec(mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=2.0, T=1.0,
                       u_minus_a=parse("-4"), u_plus_a=parse("2"),
                       f=parse("0.1*ln(x+1.5)"), h0_star=0.0, t0=0.7)


def test_nan_radicand_is_a_violation():
    s = _log_source_spec()
    rep = check_assumption2(s)
    assert not rep.ok
    assert np.isnan(rep.details["min_radicand_minus"])
    assert np.isnan(rep.details["min_radicand_plus"])
    with pytest.raises(AssumptionViolation, match="radicand"):
        eval_phi(s, "minus", -1.9, 0.0)
    X, Y = np.meshgrid(np.linspace(s.x0, s.x1, 5), np.linspace(-s.a, s.a, 5))
    with pytest.raises(AssumptionViolation, match=r"at \(-2, -2\): radicand nan"):
        eval_phi(s, "minus", X, Y)          # the message names the point of a 2-D query
    with pytest.raises(AssumptionViolation, match="radicand"):
        PhiTable(s, "plus", 64)


class _RecordingSource:
    """A source expression that records the shape of every call."""

    def __init__(self, f):
        self.f = f
        self.shapes = []

    def __call__(self, x, y):
        self.shapes.append(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return self.f(x, y)


def test_quadrature_refines_only_unconverged_points():
    # f = cos(40 x) along characteristics of slope 1/k: short spans converge
    # at the second level (one panel against two), long ones need more
    # panels; only those are evaluated again
    f = parse("cos(40*x)")
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.0, 1.0, 200)
    Y = rng.uniform(-1.0, 1.0, 200)
    span = np.where(np.arange(200) < 100, 0.01, 3.0)
    rec = _RecordingSource(f)
    got = asymptotics._char_integral(rec, X, Y, X + span, 2.0)
    want = (np.sin(40.0 * (X + span)) - np.sin(40.0 * X)) / 40.0
    assert np.max(np.abs(got - want)) < 1e-13
    nodes = [shape[1] for shape in rec.shapes]
    assert nodes[:2] == [16, 32]
    assert [shape[0] for shape in rec.shapes[:2]] == [200, 200]
    assert all(shape[0] == 100 for shape in rec.shapes[2:]) and len(rec.shapes) > 2


def test_quadrature_calls_stay_under_the_point_cap(monkeypatch):
    # on the ln(x + 1.5) source some characteristics run into the
    # singularity and refine to the deepest level; no call of f may get more
    # than QUAD_CALL_POINTS evaluation points, however many points refine
    s = _log_source_spec()
    X, Y = np.meshgrid(np.linspace(s.x0, s.x1, 65), np.linspace(-s.a, s.a, 65), indexing="ij")
    E = X - s.k * (s.a + Y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # the singular points do not converge
        rec = _RecordingSource(s.f)
        full = asymptotics._char_integral(rec, X, Y, E, s.k)
        sizes = [int(np.prod(shape)) for shape in rec.shapes]
        assert max(sizes) <= asymptotics.QUAD_CALL_POINTS
        assert max(shape[1] for shape in rec.shapes) == 16 * 2 ** asymptotics.QUAD_MAX_LEVEL
        # a cap of two deepest-level rows splits the calls further and
        # moves no value beyond round-off
        cap = 2 * 16 * 2 ** asymptotics.QUAD_MAX_LEVEL
        monkeypatch.setattr(asymptotics, "QUAD_CALL_POINTS", cap)
        rec = _RecordingSource(s.f)
        small = asymptotics._char_integral(rec, X, Y, E, s.k)
    assert max(int(np.prod(shape)) for shape in rec.shapes) <= cap
    assert len(rec.shapes) > len(sizes)
    np.testing.assert_allclose(small, full, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# front motion

def test_front_constant_when_branch_sum_vanishes():
    s = _symmetric_spec(c=3.0)
    front = solve_front(s, s.grid(32, 32), t_end=1.0)
    assert np.max(np.abs(front.h - 0.0)) < 1e-12


def test_front_closed_form_drift():
    s = _drift_spec()
    front = solve_front(s, s.grid(32, 32), t_end=1.5)
    for t, h, hx in zip(front.times, front.h, front.hx):
        assert np.max(np.abs(h - t)) < 1e-4
        assert np.max(np.abs(hx)) < 1e-8


def test_front_sample_is_a_node_lookup():
    # the front is read where it was solved: at its nodes, x1 and the nodes
    # one period away included, and at its stored times
    s = _drift_spec()
    front = solve_front(s, s.grid(8, 8), t_end=1.5)
    assert s.t0 in front.times
    rng = np.random.default_rng(9)
    front.h = rng.standard_normal(front.h.shape)
    front.hx = rng.standard_normal(front.hx.shape)
    j = np.r_[np.arange(front.xs.size), 0, 5, 7]
    xq = np.r_[front.xs, s.x1, front.xs[5] + s.length, front.xs[7] - s.length]
    for it in (0, 7, front.times.size - 1):
        h, hx = front.sample(front.times[it], xq)
        assert h.tobytes() == front.h[it, j].tobytes()
        assert hx.tobytes() == front.hx[it, j].tobytes()
    with pytest.raises(ValueError, match="front node"):
        front.sample(front.times[3], np.array([front.xs[2] + 0.3 * (front.xs[1] - front.xs[0])]))
    with pytest.raises(ValueError, match="stored time"):
        front.sample(0.5 * (front.times[3] + front.times[4]), front.xs)


def test_front_does_not_depend_on_earlier_fronts():
    # the 100 x 100 front builds finer branch tables than the 50 x 50 one;
    # they must not leak into a later front on the coarser grid
    s = ProblemSpec(mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=2.0, T=1.0,
                    u_minus_a=parse("-4"), u_plus_a=parse("2"),
                    f=parse("cos(pi*x/4)*cos(pi*y/4)"), h0_star=0.0, t0=0.5)
    first = solve_front(s, s.grid(50, 50), 0.5)
    solve_front(s, s.grid(100, 100), 0.5)
    again = solve_front(s, s.grid(50, 50), 0.5)
    assert np.array_equal(again.h, first.h)
    assert np.array_equal(again.hx, first.hx)


def test_front_exits_domain_raises():
    s = ProblemSpec(mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=0.5, T=3.0,
                    u_minus_a=parse("-4"), u_plus_a=parse("2"),
                    f=parse("0"), h0_star=0.0, t0=0.4)
    with pytest.raises(AssumptionViolation, match="front left domain"):
        solve_front(s, s.grid(32, 32), t_end=3.0)


def test_front_example1_stays_inside(ex1, ex1_front):
    # transition layer remains within (-2, 2) for the whole horizon
    assert np.all(np.abs(ex1_front.h) < ex1.a)
    assert np.all(ex1_front.hx < 1.0 / ex1.k)


def test_front_sample_out_of_range(ex1_front):
    with pytest.raises(ValueError):
        ex1_front.sample(2.0, np.array([0.0]))


# ---------------------------------------------------------------------------
# layer profile and width

def test_q0_matching_identity(ex1, ex1_front):
    xs = np.linspace(-2, 2, 41)
    h0, h0x = ex1_front.sample(ex1.t0, xs)
    pm = eval_phi(ex1, "minus", xs, h0)
    pp = eval_phi(ex1, "plus", xs, h0)
    half_sum = 0.5 * (pm + pp)
    q_minus = eval_q0(ex1, "minus", 0.0, xs, h0, h0x)
    q_plus = eval_q0(ex1, "plus", 0.0, xs, h0, h0x)
    assert np.max(np.abs(pm + q_minus - half_sum)) < 1e-12
    assert np.max(np.abs(pp + q_plus - half_sum)) < 1e-12


def test_q0_decay_and_saturation(ex1, ex1_front):
    h0, h0x = ex1_front.sample(ex1.t0, np.array([0.0]))
    p = 0.5 * (eval_phi(ex1, "plus", 0.0, h0[0]) - eval_phi(ex1, "minus", 0.0, h0[0]))
    far = eval_q0(ex1, "minus", -40.0, 0.0, h0[0], h0x[0])
    assert abs(far) < 1e-10 * p
    sat = eval_q0(ex1, "minus", 40.0, 0.0, h0[0], h0x[0])
    assert abs(sat - 2 * p) < 1e-10
    # plus side mirrors
    far_p = eval_q0(ex1, "plus", 40.0, 0.0, h0[0], h0x[0])
    assert abs(far_p) < 1e-10 * p


def test_q0_exponential_tail_bound(ex1, ex1_front):
    xs = np.linspace(-2, 2, 9)
    h0, h0x = ex1_front.sample(ex1.t0, xs)
    p = 0.5 * (np.asarray(eval_phi(ex1, "plus", xs, h0))
               - np.asarray(eval_phi(ex1, "minus", xs, h0)))
    rate = p * (1 - ex1.k * h0x) / np.sqrt(1 + h0x ** 2)
    for xi in (-1.0, -2.0, -5.0, -10.0):
        q = np.abs(np.asarray(eval_q0(ex1, "minus", xi, xs, h0, h0x)))
        bound = 2 * p * np.exp(-np.abs(xi) * rate)
        assert np.all(q <= bound * (1 + 1e-12))


def _width_by_bisection(spec, x, h0, h0x):
    """Independent inversion of |Q0| = mu^2 on both sides by bisection."""
    out = []
    for side, sgn in (("minus", -1.0), ("plus", 1.0)):
        lo, hi = 0.0, 1e3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            q = abs(float(eval_q0(spec, side, sgn * mid, x, h0, h0x)))
            if q > spec.mu ** 2:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    cos_alpha = 1.0 / np.sqrt(1 + h0x ** 2)
    return spec.mu * (out[1] + out[0]) * cos_alpha


def test_transition_width_flat_front_value():
    s = _symmetric_spec(c=3.0, mu=0.08)
    w = transition_width(s, 0.0, 0.0, 0.0)
    expected = 2 * 0.08 * np.log(2 * 3.0 / 0.08 ** 2 - 1) / 3.0
    assert w == pytest.approx(expected, abs=1e-14)
    assert 0.36 < w < 0.37


def test_transition_width_matches_bisection(ex1, ex1_front):
    for x in (-1.3, 0.0, 0.9):
        h0, h0x = ex1_front.sample(ex1.t0, np.array([x]))
        closed = float(transition_width(ex1, x, h0[0], h0x[0]))
        indep = _width_by_bisection(ex1, x, h0[0], h0x[0])
        assert abs(closed - indep) < 1e-10


def test_transition_width_mu_scaling():
    base = _symmetric_spec(c=3.0, mu=0.08)
    half = _symmetric_spec(c=3.0, mu=0.04)
    ratio = transition_width(half, 0.0, 0.0, 0.0) / transition_width(base, 0.0, 0.0, 0.0)
    assert 0.5 < ratio < 0.65


def test_transition_width_threshold_error():
    # the jump p = 0.05 is below mu^2 / 2 at mu = 0.4, and in (mu^2 / 2, mu^2]
    # at mu = 0.3, where log(2 p / mu^2 - 1) would give a negative width
    for mu in (0.4, 0.3):
        s = ProblemSpec(mu=mu, k=1.0, x0=-1.0, x1=1.0, a=1.0, T=1.0,
                        u_minus_a=parse("-0.05"), u_plus_a=parse("0.05"),
                        f=parse("0"), h0_star=0.0, t0=0.5)
        with pytest.raises(AssumptionViolation, match="layer jump below threshold"):
            transition_width(s, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# zeroth-order field and initial condition

def test_assemble_u0_branch_match_and_bounds(ex1):
    g = ex1.grid(64, 64)
    u0 = assemble_u0(ex1, solve_front(ex1, g, ex1.t0), g, outer_branches(ex1, g))
    assert u0.time == ex1.t0
    assert u0.values.min() > -4.5 and u0.values.max() < 2.3
    # far below the front the field follows the lower branch
    j = int(np.searchsorted(g.ys, -1.8))
    phm = eval_phi(ex1, "minus", g.xs, np.full(g.n + 1, g.ys[j]))
    assert np.max(np.abs(u0.values[:, j] - phm)) < 1e-8


def test_initial_condition_values(ex1, ex2):
    g1 = ex1.grid(16, 16)
    init1 = initial_condition(ex1, g1)
    i0, j0 = 8, 8  # node at (0, 0)
    assert (g1.xs[i0], g1.ys[j0]) == (0.0, 0.0)
    assert init1.values[i0, j0] == pytest.approx(3 * np.tanh(0.0) - 1.0, abs=1e-12)
    assert np.allclose(init1.values[:, -1], 2.0, atol=1e-9)   # saturated top row
    g2 = ex2.grid(16, 16)
    init2 = initial_condition(ex2, g2)
    assert init2.values[8, 8] == pytest.approx(-2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# first-order outer correction

def test_u1_boundary_anchoring(ex1):
    xs = np.linspace(-2, 2, 9)
    lower = np.asarray(eval_u1(ex1, "minus", xs, np.full_like(xs, -2.0)))
    upper = np.asarray(eval_u1(ex1, "plus", xs, np.full_like(xs, 2.0)))
    assert np.max(np.abs(lower)) < 1e-8
    assert np.max(np.abs(upper)) < 1e-8


def test_u1_matches_closed_form_for_constant_source():
    # f = c with constant traces: phi depends on y only, phi^2 = u_b^2 +
    # 2 c (y - y_b), and (phi u1)_y = -phi'' with phi' = c/phi gives
    # u1 = (c/phi)(1/u_b - 1/phi), u_b the trace on the branch's boundary
    c = 0.25
    s = dataclasses.replace(_drift_spec(), f=parse(f"{c}"))
    rng = np.random.default_rng(17)
    x = rng.uniform(-2.0, 2.0, 50)
    y = rng.uniform(-2.0, 2.0, 50)
    for side, u_b, y_b in (("minus", -4.0, -2.0), ("plus", 2.0, 2.0)):
        phi = np.sign(u_b) * np.sqrt(u_b ** 2 + 2.0 * c * (y - y_b))
        want = (c / phi) * (1.0 / u_b - 1.0 / phi)
        got = np.asarray(eval_u1(s, side, x, y))
        assert np.max(np.abs(got - want)) < 1e-7, side
        # a scalar point returns a float, and broadcast x and y their shape,
        # with the vector call's values bit for bit
        one = eval_u1(s, side, x[0], y[0])
        assert type(one) is float and one == got[0], side
        grid = eval_u1(s, side, x[:3, None], y[None, :4])
        assert grid.shape == (3, 4) and np.array_equal(np.diagonal(grid), got[:3]), side


def test_u1_matches_rk4_oracle_on_example2(ex2):
    # C10 checks u1 on Example 1 only; here Example 2's source, which
    # oscillates in x, against the same oracle
    rng = np.random.default_rng(47)
    x = rng.uniform(-1.0, 1.0, 40)
    y = rng.uniform(-0.975, 0.975, 40)
    for side, phi in zip(("minus", "plus"), CLOSED_FORMS["ex2"]):
        oracle = u1_rk4_oracle(ex2, side, phi, x, y, n=3000)
        assert np.max(np.abs(np.asarray(eval_u1(ex2, side, x, y)) - oracle)) <= 1e-5, side
