"""Reference finite-volume solver for the full time-dependent model.

Integrates

    u_t = mu * lap(u) + k/2 (u^2)_x + 1/2 (u^2)_y - f(x, y)

in conservative form on a uniform node grid: local Lax-Friedrichs (Rusanov)
fluxes for the quadratic terms with local wave speeds k|u| and |u|, a
standard five-point Laplacian, periodic wrap in x, Dirichlet rows pinned to
the boundary traces after every stage, and explicit two-stage Runge-Kutta
with a CFL-limited step.  The scheme is deterministic: identical inputs
give bit-identical snapshots.

Layout.  The state lives in an (n+2) x (m+1) array with axis 0 along x:
columns 1..n hold grid columns 0..n-1, and columns 0 and n+1 are periodic
ghosts, copied from columns n and 1 before every right-hand side.  On the
array's flat view a y neighbour is at offset +-1 and an x neighbour at
offset +-(m+1), so every stencil term is one contiguous slice and the x
wrap needs no np.roll.  The stencil is evaluated over the whole flat core
span and the two Dirichlet rows of the result are zeroed afterwards.  Work
arrays are allocated once per solve and every step writes into them.  Each
node sees the same floating-point operations in the same order as the
textbook form

    F(a, b) = (-k/4) (a^2 + b^2) - ((k/2) max(|a|, |b|)) (b - a)
    lap = ((u_E - 2u) + u_W)/d1^2 + ((u_N - 2u) + u_S)/d2^2
    r = ((mu lap + (F_W - F_E)/d1) + (F_S - F_N)/d2) - f
    u* = u + dt r(u),    u' = u + (dt/2) (r(u) + r(u*))

(k = 1 in y), so the snapshots are bit-identical to it; the test suite
keeps that form, written with np.roll, as an oracle.
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

    # ghost-column layout (module docstring): U[1:n+1] holds grid columns
    # 0..n-1, U[0] and U[n+1] copy U[n] and U[1]; on the flat view a y
    # neighbour is at offset +-1, an x neighbour at offset +-s
    s = m + 1
    N = n * s                              # the core span [s, s + N)
    core = slice(s, s + N)
    # every array of the march is a view of one block, allocated once: the
    # state U, the first-stage state V, the square and magnitude of the
    # state, three face-length buffers and the two stage right-hand sides.
    # One block goes back to the system as a whole when the solve ends;
    # separate arrays of these sizes can stay on the heap and raise the
    # caller's peak RSS by about 2 MB at 200 x 200
    lengths = [(n + 2) * s] * 4 + [(n + 1) * s] * 3 + [N] * 2
    U, V, sq, mag, fa, fb, fc, r1, r2 = np.split(np.empty(sum(lengths)),
                                                 np.cumsum(lengths)[:-1])
    U, V = U.reshape(n + 2, s), V.reshape(n + 2, s)
    U[1:n + 1] = u_init.values[:-1, :]
    U[1:n + 1, 0] = trace_lo
    U[1:n + 1, -1] = trace_hi
    f_flat = f_vals.ravel()

    diff_bound = 1.0 / (2.0 * spec.mu * (1.0 / d1 ** 2 + 1.0 / d2 ** 2))
    cx, ax = -0.25 * spec.k, 0.5 * spec.k  # x flux constants
    d1sq, d2sq = d1 ** 2, d2 ** 2

    def fill(W):
        """Copy W's ghost columns and store |W| in mag, as rhs(W) expects."""
        W[0] = W[n]
        W[n + 1] = W[1]
        np.abs(W.ravel(), out=mag)

    def flux(w, lo, hi, c_sq, c_max, out):
        """Rusanov flux c_sq (a^2 + b^2) - (c_max max(|a|, |b|)) (b - a)
        on the faces between w[lo] = a and w[hi] = b, into out."""
        tmp, diff = fc[:out.size], fb[:out.size]
        np.add(sq[lo], sq[hi], out=out)
        out *= c_sq
        np.maximum(mag[lo], mag[hi], out=tmp)
        tmp *= c_max
        np.subtract(w[hi], w[lo], out=diff)
        tmp *= diff
        out -= tmp

    def rhs(W, out):
        """Semi-discrete right-hand side on the core span of W into out;
        the Dirichlet rows of out are zero.  W's ghost columns and mag must
        be current (fill)."""
        w = W.ravel()
        np.multiply(w, w, out=sq)
        # x faces between columns r and r+1, r = 0..n; column r's advection
        # is (face r-1 - face r) / d1
        flux(w, slice(0, s + N), slice(s, None), cx, ax, fa)
        np.subtract(fa[:N], fa[s:], out=out)
        out /= d1
        # five-point Laplacian; mu * lap is added to the x advection
        two, lx, ly = fc[:N], fa[:N], fb[:N]
        np.add(w[core], w[core], out=two)
        np.subtract(w[2 * s:], two, out=lx)
        lx += w[:N]
        lx /= d1sq
        np.subtract(w[s + 1:s + N + 1], two, out=ly)
        ly += w[s - 1:s + N - 1]
        ly /= d2sq
        lx += ly
        lx *= spec.mu
        out += lx
        # y faces between flat nodes p and p+1 for p in [s-1, s+N); a face
        # that wraps from one column to the next only reaches the Dirichlet
        # rows
        fy, ay = fa[:N + 1], fb[:N]
        flux(w, slice(s - 1, s + N), slice(s, s + N + 1), -0.25, 0.5, fy)
        np.subtract(fy[:-1], fy[1:], out=ay)
        ay /= d2
        out += ay
        out -= f_flat
        o = out.reshape(n, s)
        o[:, 0] = 0.0
        o[:, -1] = 0.0

    def close(t):
        # after fill, U[n+1] repeats U[1]: the grid's column n
        return Field2D(grid, U[1:].copy(), t)

    snapshots = []
    pending = list(cfg.snapshot_times)
    dt_history = []
    t = 0.0
    fill(U)
    umax = float(mag.max())
    if pending and pending[0] <= 1e-14:
        snapshots.append(close(0.0))
        pending.pop(0)
    u, v = U.ravel()[core], V.ravel()[core]
    while t < cfg.t_end - 1e-13:
        dt = cfg.cfl * diff_bound
        if umax > 0.0:
            dt = min(dt, cfg.cfl * d1 / (spec.k * umax), cfg.cfl * d2 / umax)
        if pending:
            dt = min(dt, pending[0] - t)
        dt = min(dt, cfg.t_end - t)
        if dt < 1e-14:
            raise SolverBlowUp(f"time step underflow at t = {t:.6g}")
        rhs(U, r1)
        np.multiply(r1, dt, out=v)
        v += u
        V[1:n + 1, 0] = trace_lo
        V[1:n + 1, -1] = trace_hi
        fill(V)
        rhs(V, r2)
        r2 += r1
        r2 *= 0.5 * dt
        u += r2
        U[1:n + 1, 0] = trace_lo
        U[1:n + 1, -1] = trace_hi
        t += dt
        if record_dt:
            dt_history.append(dt)
        fill(U)
        # max|u| sets the next dt; nan and inf reach it through abs and max
        umax = float(mag.max())
        if not np.isfinite(umax):
            raise SolverBlowUp(f"solver blow-up at t = {t:.6g}")
        while pending and abs(t - pending[0]) <= 1e-12:
            snapshots.append(close(pending[0]))
            pending.pop(0)
    if record_dt:
        return snapshots, dt_history
    return snapshots
