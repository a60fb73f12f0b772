"""Reference finite-volume solver for the full time-dependent model.

Integrates

    u_t = mu * lap(u) + k/2 (u^2)_x + 1/2 (u^2)_y - f(x, y)

in conservative form on a uniform node grid: local Lax-Friedrichs (Rusanov)
fluxes for the quadratic terms with local wave speeds k|u| and |u|, a
standard five-point Laplacian, periodic wrap in x, Dirichlet rows pinned to
the boundary traces after every stage, and explicit two-stage Runge-Kutta
with a CFL-limited step.  The scheme is deterministic: identical inputs
give bit-identical snapshots.

Viscous face flux.  The five-point Laplacian is a difference of face
differences, u_E - 2u + u_W = (u_E - u) - (u - u_W), so the diffusion is
carried by the same faces as the advection.  Each face flux is written
already divided by its cell width, with the constants scaled once per
solve, so a right-hand side is a difference of face values and does no
division.

Layout.  The state lives in an (n+2) x (m+1) array with axis 0 along x:
columns 1..n hold grid columns 0..n-1, and columns 0 and n+1 are periodic
ghosts, copied from columns n and 1 before every right-hand side.  On the
array's flat view a y neighbour is at offset +-1 and an x neighbour at
offset +-(m+1), so every stencil term is one contiguous slice and the x
wrap needs no np.roll.  The stencil is evaluated over the whole flat core
span and the two Dirichlet rows of the result are zeroed afterwards.  Work
arrays are allocated once per solve and every step writes into them: a
right-hand side takes 21 passes over the state and a step about 50.  Each
node sees the same floating-point operations in the same order as the
textbook form

    F(a, b) = cx (a^2 + b^2) - (ax max(|a|, |b|) + mx) (b - a)
    G(a, b) = cy (a^2 + b^2) - (ay max(|a|, |b|) + my) (b - a)
    cx = (-k/4)/d1,  ax = (k/2)/d1,  mx = mu/d1^2
    cy = (-1/4)/d2,  ay = (1/2)/d2,  my = mu/d2^2
    r = ((F_W - F_E) + (G_S - G_N)) - f
    u* = u + dt r(u),    u' = u + (dt/2) (r(u) + r(u*))

where F_W = F(u_W, u) and F_E = F(u, u_E) are the x faces of a node and
G_S = G(u_S, u), G_N = G(u, u_N) its y faces.  The snapshots are
bit-identical to that form; the test suite keeps it, written with np.roll,
as an oracle, and keeps the five-point form it replaces as a second
reference that agrees to round-off.
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
        if not all(0.0 <= t <= self.t_end for t in self.snapshot_times):   # nan fails
            raise ValueError("snapshot times must lie in [0, t_end]")


def forward_solve(spec: ProblemSpec, cfg: SolverConfig, u_init: Field2D | None = None,
                  record_dt: bool = False):
    """March to t_end, returning Field2D snapshots at the requested times.

    Steps are limited by the CFL bounds and t_end only, so a snapshot time
    never changes the march.  A snapshot that a step would pass is taken by
    one short step to its time from the state before that step, into
    scratch buffers, with the operations of a march step in their order: it
    is bit-identical to the last snapshot of a solve with t_end at its
    time, whatever other snapshots are asked for.  Values are never
    interpolated between steps.  A trailing snapshot at t_end is not
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
    # face flux constants, already divided by the cell width (docstring)
    cx, ax, mx = -0.25 * spec.k / d1, 0.5 * spec.k / d1, spec.mu / d1 ** 2
    cy, ay, my = -0.25 / d2, 0.5 / d2, spec.mu / d2 ** 2

    def fill(W):
        """Copy W's ghost columns and store |W| in mag, as rhs(W) expects."""
        W[0] = W[n]
        W[n + 1] = W[1]
        np.abs(W.ravel(), out=mag)

    def flux(w, lo, hi, c, alpha, nu, out):
        """Viscous Rusanov flux c (a^2 + b^2) - (alpha max(|a|, |b|) + nu) (b - a)
        on the faces between w[lo] = a and w[hi] = b, into out."""
        tmp, diff = fc[:out.size], fb[:out.size]
        np.add(sq[lo], sq[hi], out=out)
        out *= c
        np.maximum(mag[lo], mag[hi], out=tmp)
        tmp *= alpha
        tmp += nu
        np.subtract(w[hi], w[lo], out=diff)
        tmp *= diff
        out -= tmp

    def rhs(W, out):
        """Semi-discrete right-hand side on the core span of W into out;
        the Dirichlet rows of out are zero.  W's ghost columns and mag must
        be current (fill)."""
        w = W.ravel()
        np.square(w, out=sq)
        # x faces between columns r and r+1, r = 0..n; column r gets
        # face r-1 - face r
        flux(w, slice(0, s + N), slice(s, None), cx, ax, mx, fa)
        np.subtract(fa[:N], fa[s:], out=out)
        # y faces between flat nodes p and p+1 for p in [s-1, s+N); a face
        # that wraps from one column to the next only reaches the Dirichlet
        # rows
        fy, gy = fa[:N + 1], fb[:N]
        flux(w, slice(s - 1, s + N), slice(s, s + N + 1), cy, ay, my, fy)
        np.subtract(fy[:-1], fy[1:], out=gy)
        out += gy
        out -= f_flat
        o = out.reshape(n, s)
        o[:, 0] = 0.0
        o[:, -1] = 0.0

    def close(t):
        # after fill, U[n+1] repeats U[1]: the grid's column n
        return Field2D(grid, U[1:].copy(), t)

    def heun(dt, out):
        """u + (dt/2) (r(u) + r(u*)) into the flat core out, the operations
        and their order those of a march step; r1 = r(u) must be current.
        Uses V and r2 as scratch."""
        np.multiply(r1, dt, out=v)
        np.add(v, u, out=v)
        V[1:n + 1, 0] = trace_lo
        V[1:n + 1, -1] = trace_hi
        fill(V)
        rhs(V, r2)
        np.add(r2, r1, out=r2)
        np.multiply(r2, 0.5 * dt, out=r2)
        np.add(u, r2, out=out)

    def off_march(ts):
        """The snapshot at ts, inside the coming step: one short step of
        ts - t from the current state, as the last step of a solve to
        t_end = ts takes it, so the march itself never changes."""
        vals = np.empty((n + 1, s))
        heun(ts - t, vals[:n].reshape(-1))
        vals[:n, 0] = trace_lo
        vals[:n, -1] = trace_hi
        vals[n] = vals[0]
        if not np.all(np.isfinite(vals)):
            raise SolverBlowUp(f"solver blow-up at t = {ts:.6g}")
        return Field2D(grid, vals, ts)

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
        dt = min(dt, cfg.t_end - t)
        if dt < 1e-14:
            raise SolverBlowUp(f"time step underflow at t = {t:.6g}")
        rhs(U, r1)
        while pending and pending[0] - t < dt:
            snapshots.append(off_march(pending.pop(0)))
        heun(dt, u)
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
