"""Reference finite-volume solver for the full time-dependent model.

Integrates

    u_t = mu * lap(u) + k/2 (u^2)_x + 1/2 (u^2)_y - f(x, y)

in conservative form on a uniform node grid: local Lax-Friedrichs (Rusanov)
fluxes for the quadratic terms with local wave speeds k|u| and |u|, a
standard five-point Laplacian, periodic wrap in x, Dirichlet rows pinned to
the boundary traces after every stage, and explicit two-stage Runge-Kutta
with a CFL-limited step.  The scheme is deterministic: identical inputs
give bit-identical snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .asymptotics import ProblemSpec, initial_condition
from .errors import AssumptionViolation, SolverBlowUp
from .grid import Field2D, Grid2D


@dataclass
class SolverConfig:
    grid: Grid2D
    t_end: float
    cfl: float = 0.4
    snapshot_times: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        self.snapshot_times = sorted(float(t) for t in self.snapshot_times)
        if self.snapshot_times and (self.snapshot_times[0] < 0.0
                                    or self.snapshot_times[-1] > self.t_end):
            raise ValueError("snapshot times must lie in [0, t_end]")


def forward_solve(spec: ProblemSpec, cfg: SolverConfig, u_init: Field2D | None = None,
                  record_dt: bool = False):
    """March to t_end, returning Field2D snapshots at the requested times.

    Steps are clipped so snapshots land exactly on their times; values are
    never interpolated between steps.  A trailing snapshot at t_end is not
    implied: only cfg.snapshot_times are returned.  A source or boundary
    trace that is not finite on the grid raises AssumptionViolation before
    the first step.
    """
    grid = cfg.grid
    if cfg.t_end > spec.T:
        raise ValueError("t_end exceeds the problem horizon T")
    if u_init is None:
        u_init = initial_condition(spec, grid)
    d1, d2 = grid.d1, grid.d2
    n, m = grid.n, grid.m
    xs = grid.xs[:-1]
    trace_lo = np.atleast_1d(spec.u_minus_a(xs, 0.0 * xs)) + np.zeros(n)
    trace_hi = np.atleast_1d(spec.u_plus_a(xs, 0.0 * xs)) + np.zeros(n)
    X, Y = np.meshgrid(xs, grid.ys, indexing="ij")
    f_vals = spec.f(X, Y) + np.zeros((n, m + 1))
    for name, vals in (("source f", f_vals), ("u_minus_a", trace_lo), ("u_plus_a", trace_hi)):
        if not np.all(np.isfinite(vals)):
            raise AssumptionViolation(f"{name} is not finite on the solver grid")

    u = u_init.values[:-1, :].copy()   # periodic core: columns 0..n-1
    u[:, 0] = trace_lo
    u[:, -1] = trace_hi

    diff_bound = 1.0 / (2.0 * spec.mu * (1.0 / d1 ** 2 + 1.0 / d2 ** 2))

    def rhs(v):
        # x fluxes on faces between i and i+1 (periodic)
        ve = np.roll(v, -1, axis=0)
        fx = -0.25 * spec.k * (v ** 2 + ve ** 2) \
            - 0.5 * spec.k * np.maximum(np.abs(v), np.abs(ve)) * (ve - v)
        adv_x = -(fx - np.roll(fx, 1, axis=0)) / d1
        # y fluxes on faces between j and j+1
        vn = v[:, 1:]
        vs = v[:, :-1]
        fy = -0.25 * (vs ** 2 + vn ** 2) - 0.5 * np.maximum(np.abs(vs), np.abs(vn)) * (vn - vs)
        adv_y = np.zeros_like(v)
        adv_y[:, 1:-1] = -(fy[:, 1:] - fy[:, :-1]) / d2
        lap = np.zeros_like(v)
        lap[:, 1:-1] = (np.roll(v, -1, axis=0)[:, 1:-1] - 2.0 * v[:, 1:-1]
                        + np.roll(v, 1, axis=0)[:, 1:-1]) / d1 ** 2 \
            + (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / d2 ** 2
        out = spec.mu * lap + adv_x + adv_y - f_vals
        out[:, 0] = 0.0
        out[:, -1] = 0.0
        return out

    def close(v, t):
        full = np.vstack([v, v[:1, :]])
        return Field2D(grid, full.copy(), t)

    snapshots = []
    pending = list(cfg.snapshot_times)
    dt_history = []
    t = 0.0
    if pending and pending[0] <= 1e-14:
        snapshots.append(close(u, 0.0))
        pending.pop(0)
    while t < cfg.t_end - 1e-13:
        umax = float(np.max(np.abs(u)))
        dt = cfg.cfl * diff_bound
        if umax > 0.0:
            dt = min(dt, cfg.cfl * d1 / (spec.k * umax), cfg.cfl * d2 / umax)
        if pending:
            dt = min(dt, pending[0] - t)
        dt = min(dt, cfg.t_end - t)
        if dt < 1e-14:
            raise SolverBlowUp(f"time step underflow at t = {t:.6g}")
        r1 = rhs(u)
        u_star = u + dt * r1
        u_star[:, 0] = trace_lo
        u_star[:, -1] = trace_hi
        r2 = rhs(u_star)
        u = u + 0.5 * dt * (r1 + r2)
        u[:, 0] = trace_lo
        u[:, -1] = trace_hi
        t += dt
        if record_dt:
            dt_history.append(dt)
        if not np.all(np.isfinite(u)):
            raise SolverBlowUp(f"solver blow-up at t = {t:.6g}")
        while pending and abs(t - pending[0]) <= 1e-12:
            snapshots.append(close(u, pending[0]))
            pending.pop(0)
    if record_dt:
        return snapshots, dt_history
    return snapshots
