"""Reference finite-volume solver for the full time-dependent model.

Integrates

    u_t = mu * lap(u) + k/2 (u^2)_x + 1/2 (u^2)_y - f(x, y)

in conservative form on a uniform node grid: local Lax-Friedrichs (Rusanov)
fluxes for the quadratic terms with local wave speeds k|u| and |u|, a
standard five-point Laplacian, periodic wrap in x, Dirichlet rows written
once with the boundary traces (r is zero on them, so every stage keeps
them), and explicit two-stage Runge-Kutta with a CFL-limited step.  The
scheme is deterministic: identical inputs give bit-identical snapshots,
whatever the number of column blocks.

Viscous face flux.  The five-point Laplacian is a difference of face
differences, u_E - 2u + u_W = (u_E - u) - (u - u_W), so the diffusion is
carried by the same faces as the advection.  Each face flux is written
already divided by its cell width, with the constants scaled once per
solve, so a right-hand side is a difference of face values and does no
division.  Each node sees the same floating-point operations in the same
order as the textbook form

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

Column blocks.  The n grid columns are split into column_blocks(grid)
blocks of nearly equal width, and each block marches in its own process:
block 0 in the calling process, the others in os.fork()ed workers that do
only ufunc passes and pipe I/O and end with os._exit.  Block b is a slab
of (nb + 4) x s nodes, axis 0 along x: its nb grid columns and GHOST = 2
ghost columns on each side, each column s doubles (the stride rule
below).  On the slab's flat view a y neighbour is at offset +-1 and an x
neighbour at offset +-s, so every stencil term is one contiguous slice.
A step forms r(u) on the owned columns and one ghost column per side, so
the first stage u* is known there too and r(u*) on the owned columns
needs nothing from another process; the stencil is evaluated over whole
flat spans and the Dirichlet and pad rows of the result are zeroed
afterwards.  After the step each block posts its two first and two last
owned columns and its max|u| to a mailbox, meets the others at a barrier,
and copies its ghost columns from its neighbours' posts; every process
then takes the same dt, from the same global max|u|.  The mailbox has one
half per step parity, so a process that runs a step ahead never
overwrites a post another still reads.  With one block the block is its
own neighbour and the exchange is the periodic ghost copy, with no
process started: there is one march, not two.  All slabs, the mailbox and
the snapshot buffers are views of one anonymous shared mmap, allocated
once per solve and returned to the system as a whole; a right-hand side
takes 21 passes over a slab and a step about 50, all into that memory.

Stride rule.  A column is s = m + 1 doubles rounded up to a multiple of
LINE = 8, one 64-byte cache line, and every part of the mmap (each post
of the mailbox, the snapshot buffer, the 9 buffers of each slab) is a
whole number of lines long.  The mmap starts on a page, and every
out-of-place pass writes from a whole number of columns into its buffer,
so each one starts its output on a 64-byte boundary: the faces, r(u),
r(u*), u*, |u|, u^2 and the Heun update.  Rows 0..m are the grid; the pad
rows m + 1..s - 1 hold f = 0 and are zeroed in r with the Dirichlet row m,
so the pad nodes of u and u* stay exactly 0.  They never raise max|u| or
move dt, a y face that touches one feeds only zeroed rows of r, and no
snapshot or finiteness check reads them.  The stride is for the stores:
on the 2-core Xeon (KVM) host, numpy 2.4.6, np.add(a, b, out=o) on 20,000
doubles took 8.0 us with o on a 64-byte boundary and 18.3-18.7 us with it
8 or 56 bytes off, np.subtract 6.2-8.0 against 11.9-12.6 us, and np.abs
and np.square 5.0-5.2 against 6.6-7.0 us, with the inputs off a line in
both; split-line stores are a known penalty of Intel cores (Intel 64 and
IA-32 Architectures Optimization Reference Manual).  Unpadded, a column
of the presets' 200 x 200 grids is 201 doubles, 1608 bytes, 8 past a
line, so most outputs started off a line; padded to 208 (3.5% more slab
memory), a serial step of the Example 1 march fell from 1.07-1.23 to
0.83-0.96 ms and a 2-block one from 0.60-0.78 to 0.39-0.48 ms.

The barrier is blocking: a worker writes one byte up its pipe to the
calling process and reads one back; the calling process reads a byte from
every worker, then writes one to each.  Only a worker holds the write end
of its up pipe and only the calling process those of the down pipes, so a
process that dies is seen as end of file, never waited for: a worker that
ends early stops the march with a NumericalError, and the calling process
kills and reaps every worker on its way out, normal or not (KeyboardInterrupt
included).  Processes, not threads: a step is about 50 short ufunc calls,
and two threads that each release and retake the GIL around every call
took 1.11-1.29 s (CPU 1.5-2.1 s) on the 200 x 200 Example 1 march,
against 1.19-1.25 s serial.  Each process's thread is pinned to its own
CPU of os.sched_getaffinity(0) during the march (the caller's mask is
restored afterwards): unpinned processes that wake each other through
pipes took 0.79-1.20 s, the slowest with CPU time equal to wall time, both
on one CPU; pinned, 0.64-0.74 s.  On Python >= 3.12, os.fork() in a
process with OpenBLAS threads alive emits a DeprecationWarning; the
workers call no BLAS routine.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import ProblemSpec, initial_condition
from .errors import AssumptionViolation, NumericalError, SolverBlowUp
from .grid import Field2D, Grid2D

GHOST = 2                  # ghost columns per side of a block
LINE = 8                   # doubles per 64-byte cache line
# the fewest grid nodes per block: a split pays only where a block's share
# of a step outweighs the barrier and the fork (measurements in
# column_blocks)
MIN_BLOCK_NODES = 10_000
# the march, and the step that takes a snapshot, end at most TIME_TOL short of their time
TIME_TOL = 1e-13


@dataclass
class SolverConfig:
    grid: Grid2D
    t_end: float
    cfl: float = 0.4
    snapshot_times: list = field(default_factory=list)

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        d1, d2 = self.grid.d1, self.grid.d2
        try:        # mu times the five-point diffusion bound on dt (forward_solve)
            bound = 0.5 / (1.0 / d1 ** 2 + 1.0 / d2 ** 2)
        except (OverflowError, ZeroDivisionError):     # a spacing squared over- or underflows
            bound = 0.0
        if not 0.0 < bound < math.inf:
            raise ValueError(f"grid spacings {d1:g} and {d2:g} give no finite positive "
                             "diffusion bound on the time step")
        self.snapshot_times = sorted(float(t) for t in self.snapshot_times)
        if not all(0.0 <= t <= self.t_end for t in self.snapshot_times):   # nan fails
            raise ValueError("snapshot times must lie in [0, t_end]")


def column_blocks(grid: Grid2D) -> int:
    """The number of column blocks forward_solve marches grid in: one per
    usable CPU, with at least MIN_BLOCK_NODES nodes and GHOST columns in
    each, and 1 where os.fork or os.sched_setaffinity is missing.

    Measured on a 2-core Xeon (KVM), Example 1 to t0 on n x n grids, wall
    time of one solve in fresh processes (5 each, 1 at 400), serial -> 2
    blocks (CPU time), on the cache-line stride of the module docstring:
    50: 20-22 -> 29-34 ms; 70: 34-51 -> 37-47 ms; 85: 39-55 -> 42-55 ms;
    100: 72-89 -> 69-73 ms (CPU 70-90 -> 100-130 ms); 150: 0.31-0.35 ->
    0.20-0.23 s (CPU 0.30-0.34 -> 0.37-0.40 s); 200: 1.16-1.28 -> 0.55-0.63
    s (CPU 1.14-1.25 -> 1.00-1.14 s); 400: 27.9 -> 12.2 s (CPU 27.5 ->
    22.9 s).  Starting and reaping a worker costs about 3-4 ms, and each
    process pays the ~47 us of call overhead of a step; the crossover is
    where it was on the unpadded stride (100: 72-107 -> 71-77 ms, CPU
    127-140 ms), so 100 x 100 (10201 nodes) stays serial and the split
    starts at 2 MIN_BLOCK_NODES nodes, about 141 x 141.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, grid.n * (grid.m + 1) // MIN_BLOCK_NODES, grid.n // GHOST))


class _Team:
    """The worker processes of a split march and the pipes of its barrier
    (module docstring).  Worker p, 1 <= p < blocks, has an up pipe, whose
    write end only it holds, and a down pipe, whose write end only the
    calling process holds."""

    def __init__(self, blocks):
        self.pids = {}
        self.up = {p: os.pipe() for p in range(1, blocks)}
        self.down = {p: os.pipe() for p in range(1, blocks)}
        self.fds = {fd for pipes in (self.up, self.down) for pair in pipes.values()
                    for fd in pair}

    def start(self, p, run, cpu):
        """Fork worker p to run(p, its barrier) pinned to cpu; it exits 0
        when run returns and 1 when it raises."""
        up, down = self.up[p][1], self.down[p][0]
        try:
            pid = os.fork()
        except OSError as exc:
            raise NumericalError(f"cannot start the forward worker of column block {p}: "
                                 f"{exc}") from exc
        if pid == 0:
            code = 1
            try:
                for fd in self.fds - {up, down}:
                    os.close(fd)
                os.sched_setaffinity(0, {cpu})
                run(p, lambda: self.worker_wait(up, down))
                code = 0
            finally:
                os._exit(code)
        self.pids[p] = pid
        for fd in (up, down):
            os.close(fd)
            self.fds.discard(fd)

    @staticmethod
    def worker_wait(up, down):
        os.write(up, b"\0")
        if not os.read(down, 1):
            raise EOFError("the calling process is gone")

    def main_wait(self):
        """Wait for every worker's post, and release the workers.  One
        worker waits for the calling process's post alone, so its byte goes
        down first and each process sleeps at most once a step."""
        if len(self.down) == 1:
            self.release()
        for p, (fd, _) in self.up.items():
            if not os.read(fd, 1):
                self.reap(p, early=True)
        if len(self.down) > 1:
            self.release()

    def release(self):
        for p, (_, fd) in self.down.items():
            try:
                os.write(fd, b"\0")
            except BrokenPipeError:
                self.reap(p, early=True)

    def reap(self, p, early=False):
        """Wait for worker p to end; raise if it ended early or failed."""
        _, status = os.waitpid(self.pids.pop(p), 0)
        code = os.waitstatus_to_exitcode(status)
        if early or code:
            raise NumericalError(f"forward worker of column block {p} ended "
                                 f"{'early' if early else 'in error'} (exit status {code})")

    def close(self):
        """Kill and reap every worker still unreaped, and close the pipes."""
        for pid in self.pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
        self.pids.clear()
        for fd in self.fds:
            os.close(fd)
        self.fds.clear()


def _shared_zeros(size):
    """size float64 zeros in one anonymous mapping that forked processes
    share."""
    try:
        return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)
    except OSError as exc:
        raise MemoryError(f"cannot map {8 * size} bytes for the forward march") from exc


def forward_solve(spec: ProblemSpec, cfg: SolverConfig, u_init: Field2D | None = None,
                  record_dt: bool = False):
    """March to t_end, returning a Field2D snapshot at each of
    cfg.snapshot_times, stamped with that time.

    Steps are limited by the CFL bounds and t_end only, so a snapshot time
    never changes the march.  A snapshot ts within TIME_TOL of 0 is the
    start state.  Any other is taken by the step from t that ends at most
    TIME_TOL short of ts: one Heun step of min(ts - t, dt) from the state at
    t into scratch buffers, with the operations of a march step in their
    order.  So it is bit-identical to the last snapshot of a solve with
    t_end = ts, whatever other snapshots are asked for.  Values are never
    interpolated between steps, and a trailing snapshot at t_end is not
    implied.  Rows 0 and m are written with the traces once, before the
    first step.  A source or boundary trace that is not finite on the grid
    raises AssumptionViolation before the first step.  The march runs in
    column_blocks(cfg.grid) column blocks (module docstring); the snapshots
    and dt list do not depend on their number.
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
    # a column is s >= m + 1 doubles, a whole number of cache lines; the
    # pad rows m + 1 .. s - 1 hold f = 0 and stay 0 (stride rule, module
    # docstring)
    s = -(-(m + 1) // LINE) * LINE
    f_vals = np.zeros((n, s))
    f_vals[:, :m + 1] = spec.f(X, Y)
    for name, vals in (("source f", f_vals), ("u_minus_a", trace_lo), ("u_plus_a", trace_hi)):
        if not np.all(np.isfinite(vals)):
            raise AssumptionViolation(f"{name} is not finite on the solver grid")

    blocks = column_blocks(grid)
    cuts = [n * b // blocks for b in range(blocks + 1)]
    times = cfg.snapshot_times
    post = 2 * GHOST * s + LINE            # a block's post: edge columns, a line for max|u|
    # per block: the state U, the first-stage state V, the square and
    # magnitude of the state (width s each), three face buffers, r(u) on
    # width - 2 columns and r(u*) on the owned ones
    slab_lengths = []
    for c0, c1 in zip(cuts, cuts[1:]):
        width = c1 - c0 + 2 * GHOST
        slab_lengths.append([width * s] * 4 + [(width - 1) * s] * 3
                            + [(width - 2) * s, (c1 - c0) * s])
    lengths = [2 * blocks * post, len(times) * (n + 1) * s] + sum(slab_lengths, [])
    parts = np.split(_shared_zeros(sum(lengths)), np.cumsum(lengths)[:-1])
    mailbox = parts[0].reshape(2, blocks, post)
    snap_vals = parts[1].reshape(len(times), n + 1, s)
    slabs = [parts[2 + 9 * b:11 + 9 * b] for b in range(blocks)]

    diff_bound = 1.0 / (2.0 * spec.mu * (1.0 / d1 ** 2 + 1.0 / d2 ** 2))
    # face flux constants, already divided by the cell width (docstring)
    cx, ax, mx = -0.25 * spec.k / d1, 0.5 * spec.k / d1, spec.mu / d1 ** 2
    cy, ay, my = -0.25 / d2, 0.5 / d2, spec.mu / d2 ** 2

    def march(b, wait):
        """Block b's march to t_end, meeting the other blocks at wait();
        returns the dt list.  Every block takes the same steps and
        snapshots; block 0 also checks the snapshots, which need every
        block's part."""
        c0, c1 = cuts[b], cuts[b + 1]
        width = c1 - c0 + 2 * GHOST
        u, v, sq, mag, fa, fb, fc, r1, r2 = slabs[b]
        U = u.reshape(width, s)
        cols = np.arange(c0 - GHOST, c1 + GHOST) % n
        slab_lo, slab_hi = trace_lo[cols], trace_hi[cols]
        f1 = f_vals[cols[1:-1]].ravel()        # f where r(u) is formed
        # flat spans: the owned columns, and those with one ghost per side
        own, wide = slice(GHOST * s, (width - GHOST) * s), slice(s, (width - 1) * s)
        edge = GHOST * s
        left, right = mailbox[:, (b - 1) % blocks], mailbox[:, (b + 1) % blocks]

        # every pass of a step works on views made here, once per solve
        def flux_passes(w, lo, hi, c, alpha, nu, out):
            """The viscous Rusanov flux c (a^2 + b^2) - (alpha max(|a|, |b|) + nu) (b - a)
            on the faces between w[lo] = a and w[hi] = b, into out."""
            tmp, diff = fc[:out.size], fb[:out.size]
            sq_lo, sq_hi, mag_lo, mag_hi, w_lo, w_hi = sq[lo], sq[hi], mag[lo], mag[hi], w[lo], w[hi]

            def flux():
                np.add(sq_lo, sq_hi, out=out)
                np.multiply(out, c, out=out)
                np.maximum(mag_lo, mag_hi, out=tmp)
                np.multiply(tmp, alpha, out=tmp)
                np.add(tmp, nu, out=tmp)
                np.subtract(w_hi, w_lo, out=diff)
                np.multiply(tmp, diff, out=tmp)
                np.subtract(out, tmp, out=out)
            return flux

        def rhs_passes(w, first, out, f):
            """The semi-discrete right-hand side on the slab columns from
            first on, as many as out holds, into out; the Dirichlet and pad
            rows of out are zero.  mag must hold |w| one column further each
            side."""
            N, base = out.size, first * s
            span = slice(base - s, base + N + s)
            w_span, sq_span = w[span], sq[span]
            # x faces between columns r and r+1, r = first-1 ..; column r
            # gets face r-1 - face r
            x_flux = flux_passes(w, slice(base - s, base + N), slice(base, base + N + s),
                                 cx, ax, mx, fa[:N + s])
            fx_w, fx_e = fa[:N], fa[s:N + s]
            # y faces between flat nodes p and p+1 for p in [base-1, base+N);
            # a face that wraps from one column to the next, or touches a
            # pad row, only reaches the zeroed Dirichlet and pad rows
            y_flux = flux_passes(w, slice(base - 1, base + N), slice(base, base + N + 1),
                                 cy, ay, my, fa[:N + 1])
            fy_s, fy_n, gy = fa[:N], fa[1:N + 1], fb[:N]
            o = out.reshape(-1, s)
            rows = o[:, 0], o[:, m:]

            def rhs():
                np.square(w_span, out=sq_span)
                x_flux()
                np.subtract(fx_w, fx_e, out=out)
                y_flux()
                np.subtract(fy_s, fy_n, out=gy)
                np.add(out, gy, out=out)
                np.subtract(out, f, out=out)
                for row in rows:
                    row.fill(0.0)
            return rhs

        rhs_u = rhs_passes(u, 1, r1, f1)
        rhs_v = rhs_passes(v, GHOST, r2, f1[s:-s])
        v_wide, u_wide, mag_wide, u_own, mag_own = v[wide], u[wide], mag[wide], u[own], mag[own]
        r1_own = r1[s:-s]

        def heun(dt, out):
            """u + (dt/2) (r(u) + r(u*)) on the owned columns into out, the
            operations and their order those of a march step; r1 = r(u)
            must be current.  Uses v and r2 as scratch."""
            np.multiply(r1, dt, out=v_wide)
            np.add(v_wide, u_wide, out=v_wide)
            np.abs(v_wide, out=mag_wide)
            rhs_v()
            np.add(r2, r1_own, out=r2)
            np.multiply(r2, 0.5 * dt, out=r2)
            np.add(u_own, r2, out=out)

        # per step parity: (post, its source) and (ghost, its source) pairs,
        # and the posted max|u| of every block
        posts = [((mailbox[p, b, :edge], u[edge:2 * edge]),
                  (mailbox[p, b, edge:2 * edge], u[-2 * edge:-edge])) for p in (0, 1)]
        ghosts = [((u[:edge], left[p, edge:2 * edge]), (u[-edge:], right[p, :edge]))
                  for p in (0, 1)]
        ghost_mag = (u[:edge], mag[:edge]), (u[-edge:], mag[-edge:])
        maxes = mailbox[:, :, 2 * edge]

        def exchange(parity):
            """Post the edge columns and max|u|, meet the other blocks, copy
            the ghost columns and their |u|; returns the global max|u|."""
            np.abs(u_own, out=mag_own)
            # nan and inf reach the max through abs and max
            maxes[parity, b] = mag_own.max()
            for dst, src in posts[parity]:
                np.copyto(dst, src)
            wait()
            for dst, src in ghosts[parity]:
                np.copyto(dst, src)
            for src, dst in ghost_mag:
                np.abs(src, out=dst)
            return float(maxes[parity].max())

        U[GHOST:-GHOST, :m + 1] = u_init.values[c0:c1]
        U[:, 0] = slab_lo
        U[:, m] = slab_hi
        pending = list(enumerate(times))
        dts = []
        t = 0.0
        umax = exchange(0)
        while pending and pending[0][1] <= TIME_TOL:
            snap_vals[pending.pop(0)[0], c0:c1] = U[GHOST:-GHOST]
        # a blow-up overflows to inf and nan on its way to the max|u| and
        # snapshot checks, which report it; set here, in each block's thread
        with np.errstate(over="ignore", invalid="ignore"):
            while t < cfg.t_end - TIME_TOL:
                dt = cfg.cfl * diff_bound
                if umax > 0.0:
                    dt = min(dt, cfg.cfl * d1 / (spec.k * umax), cfg.cfl * d2 / umax)
                dt = min(dt, cfg.t_end - t)
                if dt < 1e-14:
                    raise SolverBlowUp(f"time step underflow at t = {t:.6g}")
                rhs_u()
                due = []
                # the loop's own end test for t_end = ts: the step that ends a
                # solve to ts takes it, and the last step takes all that are left
                while pending and pending[0][1] - TIME_TOL <= t + dt:
                    i, ts = pending.pop(0)
                    heun(min(ts - t, dt), snap_vals[i, c0:c1].reshape(-1))
                    due.append((i, ts))
                heun(dt, u_own)
                t += dt
                dts.append(dt)
                umax = exchange(len(dts) % 2)
                for i, ts in due if b == 0 else ():
                    if not np.all(np.isfinite(snap_vals[i, :n, :m + 1])):
                        raise SolverBlowUp(f"solver blow-up at t = {ts:.6g}")
                if not math.isfinite(umax):
                    raise SolverBlowUp(f"solver blow-up at t = {t:.6g}")
        return dts

    if blocks == 1:
        dts = march(0, lambda: None)
    else:
        team = _Team(blocks)
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        try:
            for p in range(1, blocks):
                team.start(p, march, cpus[p % len(cpus)])
            os.sched_setaffinity(0, {cpus[0]})
            dts = march(0, team.main_wait)
            for p in range(1, blocks):
                team.reap(p)
        finally:
            team.close()
            os.sched_setaffinity(0, mask)
    snapshots = []
    for vals, t in zip(snap_vals, times):
        vals[n] = vals[0]
        snapshots.append(Field2D(grid, vals[:, :m + 1].copy(), t))
    if record_dt:
        return snapshots, dts
    return snapshots
