"""Shared fixtures: the two worked example problems and their expensive
artifacts (front curves, forward snapshots, the pipeline's prepared
stages), built once per session and reused across test modules."""

import numpy as np
import pytest

from aer import (
    Prepared,
    ProblemSpec,
    assemble_u0,
    layer_band,
    outer_branches,
    parse,
    rel_l2_error,
    smoothing_factors,
    solve_front,
)
from aer.asymptotics import _phi_derivatives
from aer.forward import SolverConfig, column_blocks, forward_solve


@pytest.fixture(scope="session")
def ex1():
    return ProblemSpec(
        mu=0.08, k=2.0, x0=-2.0, x1=2.0, a=2.0, T=1.0,
        u_minus_a=parse("-4"), u_plus_a=parse("2"),
        f=parse("cos(pi*x/4)*cos(pi*y/4)"), h0_star=0.0, t0=0.7)


@pytest.fixture(scope="session")
def ex2():
    return ProblemSpec(
        mu=0.08, k=1.0, x0=-1.0, x1=1.0, a=1.0, T=0.3,
        u_minus_a=parse("-8"), u_plus_a=parse("4"),
        f=parse("y-2*cos(4*pi*x)"), h0_star=0.0, t0=0.2)


# closed forms for the outer branches of the two examples

def phi1_minus(x, y):
    return -(2.0 / np.sqrt(3 * np.pi)) * np.sqrt(
        np.sin(np.pi * (x + y) / 4) - np.sin(np.pi * (x - 2 * y - 6) / 4)
        + 3 * np.sin(np.pi * (x - y) / 4) - 3 * np.sin(np.pi * (x - 2 * y - 2) / 4)
        + 12 * np.pi)


def phi1_plus(x, y):
    return (2.0 / np.sqrt(3 * np.pi)) * np.sqrt(
        np.sin(np.pi * (x + y) / 4) - 3 * np.sin(np.pi * (x - 2 * y + 2) / 4)
        + 3 * np.sin(np.pi * (x - y) / 4) - np.sin(np.pi * (x - 2 * y + 6) / 4)
        + 3 * np.pi)


def phi2_minus(x, y):
    return -np.sqrt(np.sin(4 * np.pi * (x - y - 1)) - np.sin(4 * np.pi * x)
                    + np.pi * y ** 2 + 63 * np.pi) / np.sqrt(np.pi)


def phi2_plus(x, y):
    return np.sqrt(np.sin(4 * np.pi * (x - y + 1)) - np.sin(4 * np.pi * x)
                   + np.pi * y ** 2 + 15 * np.pi) / np.sqrt(np.pi)


def phi2_at_k(k):
    """Example 2's branches at any k > 0.  phi^2 is the squared trace plus
    (minus) or minus (plus) twice the integral of f = y - 2 cos(4 pi x) along
    the characteristic x - k y = const from the boundary, whose cosine part
    is a difference of sines over 4 pi k; phi2_minus and phi2_plus at k = 1."""
    def minus(x, y):
        return -np.sqrt(63 + y ** 2 - (np.sin(4 * np.pi * x)
                                       - np.sin(4 * np.pi * (x - k * (y + 1)))) / (np.pi * k))

    def plus(x, y):
        return np.sqrt(15 + y ** 2 + (np.sin(4 * np.pi * (x + k * (1 - y)))
                                      - np.sin(4 * np.pi * x)) / (np.pi * k))
    return minus, plus


CLOSED_FORMS = {"ex1": (phi1_minus, phi1_plus), "ex2": (phi2_minus, phi2_plus)}


def u1_rk4_oracle(spec, side, x, y, n):
    """u1 at the points (x, y) by n RK4 steps, vectorised over the points,
    on the first-order outer equation du1/ds = (W - P u1)/k along each
    characteristic, from u1 = 0 at its boundary foot; eval_u1 integrates
    the equation's closed form instead.  The reaction P = (k phi_x +
    phi_y)/phi and forcing W = -lap(phi)/phi, ratios of the outer branch's
    finite-difference derivatives, depend on the point only, so each point
    is evaluated once: k2 and k3 share t + h/2, and k4's point is the next
    step's k1 when t + h is the next grid time."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if side == "minus":
        s_b = x - spec.k * (spec.a + y)
    else:
        s_b = x + spec.k * (spec.a - y)
    span = x - s_b

    def coefficients(t):
        s = s_b + t * span
        phi0, dphi_x, dphi_y, lap = _phi_derivatives(spec, side, s, y + (s - x) / spec.k)
        return (spec.k * dphi_x + dphi_y) / phi0, -lap / phi0

    def rhs(pw, v):
        p, w = pw
        return span * (w - p * v) / spec.k

    v = np.zeros_like(x)
    ts = np.linspace(0.0, 1.0, n + 1)
    ht = 1.0 / n
    start = coefficients(ts[0])
    for i in range(n):
        t = ts[i]
        mid = coefficients(t + ht / 2)
        end = coefficients(t + ht)
        k1 = rhs(start, v)
        k2 = rhs(mid, v + ht / 2 * k1)
        k3 = rhs(mid, v + ht / 2 * k2)
        k4 = rhs(end, v + ht * k3)
        v = v + ht / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        start = end if t + ht == ts[i + 1] else coefficients(ts[i + 1])
    return v


@pytest.fixture(scope="session")
def ex1_front(ex1):
    """Front for the full horizon t in [0, 1], outputs include t0."""
    return solve_front(ex1, ex1.grid(100, 100), t_end=ex1.T)


@pytest.fixture(scope="session")
def ex2_front(ex2):
    return solve_front(ex2, ex2.grid(100, 100), t_end=ex2.T)


@pytest.fixture(scope="session")
def ex1_snapshot_fine(ex1):
    """Forward solution at t0 on a 4x refined grid (pipeline data source)."""
    cfg = SolverConfig(ex1.grid(200, 200), ex1.t0, 0.4, [ex1.t0])
    return forward_solve(ex1, cfg)[0]


@pytest.fixture(scope="session")
def ex2_snapshot_fine(ex2):
    cfg = SolverConfig(ex2.grid(200, 200), ex2.t0, 0.4, [ex2.t0])
    return forward_solve(ex2, cfg)[0]


def _prepared(spec, snapshot_fine, front):
    """The pipeline's shared stages on the 50 x 50 observation grid, from the
    session's 200 x 200 snapshot and its front over the whole horizon."""
    grid = spec.grid(50, 50)
    snapshot = snapshot_fine.restrict(grid)
    u0 = assemble_u0(spec, front, grid, outer_branches(spec, grid))
    mask = layer_band(front, spec, grid)
    return Prepared(spec, snapshot, front, rel_l2_error(u0, snapshot), mask,
                    smoothing_factors(grid, mask), column_blocks(snapshot_fine.grid))


@pytest.fixture(scope="session")
def ex1_prepared(ex1, ex1_snapshot_fine, ex1_front):
    return _prepared(ex1, ex1_snapshot_fine, ex1_front)


@pytest.fixture(scope="session")
def ex2_prepared(ex2, ex2_snapshot_fine, ex2_front):
    return _prepared(ex2, ex2_snapshot_fine, ex2_front)


@pytest.fixture(scope="session")
def ex1_snapshot_101(ex1):
    """Forward solution at t0 on the 101 x 101 production grid."""
    cfg = SolverConfig(ex1.grid(100, 100), ex1.t0, 0.4, [ex1.t0])
    return forward_solve(ex1, cfg)[0]


@pytest.fixture(scope="session")
def ex2_snapshot_101(ex2):
    cfg = SolverConfig(ex2.grid(100, 100), ex2.t0, 0.4, [ex2.t0])
    return forward_solve(ex2, cfg)[0]
