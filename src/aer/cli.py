"""Batch front-end: config parsing, subcommands, deterministic file output.

Subcommands
    aer forward   --config c.ini --out dir     snapshots of the PDE solver
    aer asymptote --config c.ini --out dir     branches, front, width, U0
    aer invert    --config c.ini --out dir     noisy-data source recovery
    aer study     --config c.ini --out dir     parameter sweeps + rate fits

Configs are INI files with [problem], [forward], [inverse], [study]
sections; `--preset example1|example2` loads a built-in configuration that
a config file (when also given) can override key by key.  DEFAULTS
declares every key once, with its default text and its parser, which
converts and range-checks the text; load_config parses every key of every
section, [study] included, so each subcommand refuses a section, key or
value that is unknown or malformed before any work.  Every JSON summary
embeds the fully resolved configuration text (defaults, then preset, then
file; not --seed) and the seed run, and CSV numbers carry 17 significant
digits so files round-trip bit-exactly.

Exit status: 0 success, 2 assumption violation, 3 numerical failure,
4 configuration error (a command-line usage error or an unusable --out
included).  The --out directory is made by the first file written into
it, so a run refused before it writes leaves none.  A warning is printed
as one line, "warning: <message>".
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import asymptotics, inverse
from .errors import AerError, AssumptionViolation, ConfigError, NumericalError
from .expr import parse as parse_expr
from .forward import SolverConfig, column_blocks, forward_solve
from .grid import Field2D, Grid2D


def _bool(text: str) -> bool:
    word = text.strip().lower()
    if word not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError("expected one of 1/true/yes/on or 0/false/no/off")
    return configparser.ConfigParser.BOOLEAN_STATES[word]


def _one_of(*words):
    def parse(text: str) -> str:
        if text not in words:
            raise ValueError(f"have {list(words)}")
        return text
    return parse


def _list(conv):
    """Parser of a list of conv values separated by blanks or commas."""
    return lambda text: [conv(tok) for tok in text.replace(",", " ").split()]


def _delta(text: str) -> float:
    delta = float(text)
    # the relative level of the noise factor 1 + delta (2 rand - 1)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta {delta} must lie in [0, 1]")
    return delta


def _seed(text: str) -> int:
    seed = int(text)
    # the Philox key of the noise holds 128 bits
    if not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed {seed} must lie in [0, 2^128)")
    return seed


# every section and key a config may hold, as (default text, parser); the
# parser converts the text and checks its range, raising ValueError.  A
# None default marks a key without one: [problem] comes from a preset or
# the file, and a [study] axis is swept only when given
DEFAULTS = {
    "problem": {"mu": (None, float), "k": (None, float), "x0": (None, float),
                "x1": (None, float), "a": (None, float), "T": (None, float),
                "u_minus_a": (None, parse_expr), "u_plus_a": (None, parse_expr),
                "f": (None, parse_expr), "h0_star": (None, float), "t0": (None, float)},
    "forward": {"n": ("50", int), "m": ("50", int), "cfl": ("0.4", float),
                "refine": ("4", int), "snapshots": ("", _list(float))},
    "inverse": {"delta": ("0.01", _delta), "seed": ("1", _seed),
                "noise": ("uniform", _one_of("uniform", "gaussian")),
                "gradient_measured": ("false", _bool),
                "discrepancy": ("calibrated", _one_of("calibrated", "delta4"))},
    "study": {"deltas": (None, _list(_delta)), "mus": (None, _list(float)),
              "grids": (None, _list(int)), "seeds": (None, _list(_seed))},
}
# the run setting, a study.csv column, that each [study] key sweeps
STUDY_AXES = {"deltas": "delta", "mus": "mu", "grids": "n", "seeds": "seed"}
PRESETS = {
    "example1": {
        "problem": {
            "mu": "0.08", "k": "2", "x0": "-2", "x1": "2", "a": "2", "T": "1",
            "u_minus_a": "-4", "u_plus_a": "2",
            "f": "cos(pi*x/4)*cos(pi*y/4)", "h0_star": "0", "t0": "0.7",
        },
        "forward": {"snapshots": "0.7"},
    },
    "example2": {
        "problem": {
            "mu": "0.08", "k": "1", "x0": "-1", "x1": "1", "a": "1", "T": "0.3",
            "u_minus_a": "-8", "u_plus_a": "4",
            "f": "y-2*cos(4*pi*x)", "h0_star": "0", "t0": "0.2",
        },
        "forward": {"snapshots": "0.2"},
    },
}


@dataclass
class RunConfig:
    """Fully resolved configuration for one invocation."""

    spec: asymptotics.ProblemSpec
    n: int
    m: int
    cfl: float
    refine: int
    snapshots: list
    delta: float
    seed: int
    noise: str
    gradient_measured: bool
    discrepancy: str
    study: dict
    raw: dict = field(default_factory=dict)

    @property
    def obs_grid(self) -> Grid2D:
        return self.spec.grid(self.n, self.m)

    @property
    def forward_grid(self) -> Grid2D:
        return self.spec.grid(self.refine * self.n, self.refine * self.m)


def _merge(preset: str | None, path: str | None) -> dict:
    """DEFAULTS, overridden by the preset, overridden by the file."""
    if not (preset or path):
        raise ConfigError("no preset and no config file given")
    if preset and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
    merged = {section: {key: default for key, (default, _) in keys.items() if default is not None}
              for section, keys in DEFAULTS.items()}
    for section, values in PRESETS.get(preset, {}).items():
        merged[section].update(values)
    if path:
        cp = configparser.ConfigParser()
        cp.optionxform = str          # keep key case: T vs t0
        try:
            read = cp.read(path)
            sections = {name: dict(cp.items(name)) for name in cp.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:   # not INI text
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        if cp.defaults():
            # configparser would copy these keys into every section
            raise ConfigError(f"unknown section [{cp.default_section}]")
        for section, values in sections.items():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown section [{section}]; have {list(DEFAULTS)}")
            for key in values:
                if key not in DEFAULTS[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]; "
                                      f"have {list(DEFAULTS[section])}")
            merged[section].update(values)
    return merged


def _parse(section: str, key: str, text: str):
    try:
        return DEFAULTS[section][key][1](text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc


def _check_table_size(section: str, spec: asymptotics.ProblemSpec, n: int):
    """A front whose first phi tables are over the budget of
    asymptotics.table_budget_excess is refused; the commands that build a
    front call this before any work (aer forward builds none)."""
    excess = asymptotics.table_budget_excess(spec, asymptotics.FRONT_REFINE * n)
    if excess:
        raise ConfigError(f"[{section}] n = {n}, k = {spec.k:g}: each phi table of the "
                          f"front {excess}")


def load_config(preset: str | None, path: str | None, seed_override: int | None = None) -> RunConfig:
    raw = _merge(preset, path)
    texts = raw
    if seed_override is not None:     # raw, the record of the config, keeps the file's seed
        texts = dict(raw, inverse=dict(raw["inverse"], seed=str(seed_override)))
    values = {section: {key: _parse(section, key, text) for key, text in keys.items()}
              for section, keys in texts.items()}
    missing = [key for key in DEFAULTS["problem"] if key not in values["problem"]]
    if missing:
        raise ConfigError(f"missing config keys {missing} in [problem]")
    try:
        spec = asymptotics.ProblemSpec(**values["problem"])
    except ValueError as exc:     # a range or periodicity error in [problem]
        raise ConfigError(f"[problem] {exc}") from exc
    # a value given twice would run, and write, its rows twice, and a fit
    # over one distinct value would be no fit
    for key, vals in values["study"].items():
        for i, v in enumerate(vals):
            if v in vals[:i]:
                raise ConfigError(f"[study] {key} lists {v!r} more than once")
    axes = {STUDY_AXES[key]: vals for key, vals in values["study"].items() if vals}
    run = RunConfig(spec, **values["forward"], **values["inverse"], study=axes, raw=raw)
    # the [forward] values together: grids and snapshot times the solver
    # would refuse exit 4 here, before any work, not in a traceback
    try:
        for grid in (run.obs_grid, run.forward_grid):
            SolverConfig(grid, spec.T, run.cfl, run.snapshots)
    except ValueError as exc:     # n, m, refine, cfl or a snapshot time
        raise ConfigError(f"[forward] n = {run.n}, m = {run.m}, refine = {run.refine}, "
                          f"cfl = {run.cfl}: {exc}") from exc
    # two times with one file name in aer forward's output would write one
    # file, the later snapshot overwriting the earlier
    written = {}
    for t in run.snapshots:
        name = snapshot_file(t)
        if name in written:
            raise ConfigError(f"[forward] snapshots {written[name]!r} and {t!r} both "
                              f"write {name}")
        written[name] = t
    return run


# ---------------------------------------------------------------------------
# file output

CSV_BLOCK_ROWS = 4096     # rows formatted, and written, per block


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_csv(path: str, header: str, rows):
    """CSV of a header line and the rows of a 2-D float array.

    Each block of rows is converted with .tolist() and formatted by one
    "%.17g,...\\n" template (the text of _fmt for every value), then
    streamed into the file, so no whole-file string is ever built.
    """
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"

    def blocks():
        yield header + "\n"
        for lo in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            block = rows[lo:lo + CSV_BLOCK_ROWS]
            yield (line * block.shape[0]) % tuple(block.ravel().tolist())

    _atomic_write(path, blocks())


def _matrix_csv(path: str, xs, ys, values):
    """Matrix CSV: header row = x coordinates, first column = y, cell =
    values[i, j] at (xs[i], ys[j])."""
    _write_csv(path, "y\\x," + ",".join(_fmt(x) for x in xs),
               np.column_stack([ys, np.asarray(values).T]))


def write_field_csv(path: str, f: Field2D):
    """Matrix CSV: header row = x coordinates, first column = y, cell = value."""
    _matrix_csv(path, f.grid.xs, f.grid.ys, f.values)


def write_front_csv(path: str, front: asymptotics.FrontCurve):
    """CSV of one row t,x,h0,h0_x per time and front node, times outermost.

    Each t and each x is formatted once: the rows of one time are one
    template, the time's text joining the per-x tails ",x,%.17g,%.17g\\n",
    so only h0 and h0_x are formatted per row.
    """
    tails = [f",{_fmt(x)},%.17g,%.17g\n" for x in front.xs.tolist()]
    values = np.stack([front.h, front.hx], axis=-1).reshape(front.times.size, -1).tolist()

    def blocks():
        yield "t,x,h0,h0_x\n"
        for t, row in zip(front.times.tolist(), values):
            text = _fmt(t)
            yield (text + text.join(tails)) % tuple(row)

    _atomic_write(path, blocks())


def _atomic_write(path: str, chunks):
    """Write the strings of chunks in turn to path + ".tmp", then rename it
    to path, making path's directory first if it does not exist."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _write_json(path: str, payload: dict):
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"])


def _summary(cfg: RunConfig, extra: dict) -> dict:
    return {"config": cfg.raw, "seed": cfg.seed, **extra}


# ---------------------------------------------------------------------------
# subcommands

def snapshot_file(t: float) -> str:
    """The name of aer forward's snapshot file at time t."""
    return f"u_t{t:g}.csv"


def cmd_forward(cfg: RunConfig, out: str) -> int:
    """Solve on the forward grid, the data source of invert and study, and
    write each snapshot restricted to the observation grid."""
    t_start = time.perf_counter()
    sc = SolverConfig(cfg.forward_grid, max(cfg.snapshots) if cfg.snapshots else cfg.spec.t0,
                      cfg.cfl, cfg.snapshots)
    snaps, dts = forward_solve(cfg.spec, sc, record_dt=True)
    for f in snaps:
        write_field_csv(os.path.join(out, snapshot_file(f.time)), f.restrict(cfg.obs_grid))
    _write_json(os.path.join(out, "forward_summary.json"), _summary(cfg, {
        "snapshots_written": [f.time for f in snaps],
        "steps": len(dts),
        "dt_history": dts,
        "forward_blocks": column_blocks(cfg.forward_grid),
        "wall_time_s": time.perf_counter() - t_start,
    }))
    return 0


def cmd_asymptote(cfg: RunConfig, out: str) -> int:
    t_start = time.perf_counter()
    spec = cfg.spec
    _check_table_size("forward", spec, cfg.n)
    grid = cfg.obs_grid
    rep1 = asymptotics.check_assumption1(spec)
    rep2 = asymptotics.check_assumption2(spec)
    report = {
        "assumption1": {"ok": rep1.ok, **rep1.details, "messages": rep1.messages},
        "assumption2": {"ok": rep2.ok, **rep2.details, "messages": rep2.messages},
    }
    if not (rep1.ok and rep2.ok):
        _write_json(os.path.join(out, "assumptions.json"), _summary(cfg, report))
        print("assumption violation; see assumptions.json", file=sys.stderr)
        return 2
    # the branches on the grid, written here and reused by assemble_u0 below
    branches = asymptotics.outer_branches(spec, grid)
    for side, phi in zip(("minus", "plus"), branches):
        write_field_csv(os.path.join(out, f"phi_{side}.csv"), Field2D(grid, phi))
    front = asymptotics.solve_front(spec, grid, spec.T)
    write_front_csv(os.path.join(out, "front.csv"), front)
    h0, h0x = front.sample(spec.t0, grid.xs)
    width = np.asarray(asymptotics.transition_width(spec, grid.xs, h0, h0x))
    _write_csv(os.path.join(out, "width_profile.csv"), "x,h0,h0_x,width",
               np.column_stack([grid.xs, h0, h0x, width]))
    u0 = asymptotics.assemble_u0(spec, front, grid, branches)
    write_field_csv(os.path.join(out, f"u0_t{spec.t0:g}.csv"), u0)
    report["front_range"] = [float(front.h.min()), float(front.h.max())]
    report["wall_time_s"] = time.perf_counter() - t_start
    _write_json(os.path.join(out, "assumptions.json"), _summary(cfg, report))
    return 0


def cmd_invert(cfg: RunConfig, out: str) -> int:
    t_start = time.perf_counter()
    _check_table_size("forward", cfg.spec, cfg.n)
    prep = inverse.prepare(cfg.spec, cfg.forward_grid, cfg.cfl, cfg.obs_grid)
    res = inverse.run_aer_pipeline(prep, cfg.delta, cfg.seed, cfg.noise,
                                   cfg.gradient_measured, cfg.discrepancy)
    write_field_csv(os.path.join(out, "u_delta.csv"), res.observation.u_delta)
    if res.smoothing is not None:
        g = cfg.obs_grid
        for name, reg in zip(("lower", "upper"), res.smoothing):
            _matrix_csv(os.path.join(out, f"u_eps_{name}.csv"), g.xs, g.ys[reg.rows],
                        reg.u_eps)
    write_field_csv(os.path.join(out, "f_delta.csv"), res.reconstruction.f_delta)
    metrics = dict(res.metrics)
    metrics["branch"] = "measured-gradients" if cfg.gradient_measured else "smoothed"
    metrics["wall_time_s"] = time.perf_counter() - t_start
    _write_json(os.path.join(out, "metrics.json"), _summary(cfg, metrics))
    return 0


def _cell(v) -> str:
    """A study.csv cell; an undefined value (None) is left empty."""
    if v is None:
        return ""
    return _fmt(v) if isinstance(v, float) else str(v)


def _study_runs(cfg: RunConfig) -> list:
    runs = [{"mu": cfg.spec.mu, "delta": cfg.delta, "n": cfg.n, "seed": cfg.seed}]
    for name, values in cfg.study.items():
        runs = [dict(r, **{name: v}) for r in runs for v in values]
    return runs


def _mid_width(prep: inverse.Prepared) -> float:
    """Transition width at t0 in the middle of the x period, a front node
    (FRONT_REFINE n is even) though not a grid node when n is odd."""
    spec = prep.spec
    x_mid = 0.5 * (spec.x0 + spec.x1)
    h0, h0x = prep.front.sample(spec.t0, np.array([x_mid]))
    return float(np.asarray(asymptotics.transition_width(spec, x_mid, h0[0], h0x[0])))


def cmd_study(cfg: RunConfig, out: str) -> int:
    # imported here, so that the other commands do not load it (0.5 MB)
    import statistics

    t_start = time.perf_counter()
    if cfg.m != cfg.n:
        raise ConfigError(f"[forward] m = {cfg.m} differs from n = {cfg.n}: "
                          "aer study runs on square n x n grids")
    runs = _study_runs(cfg)
    base_spec = cfg.spec

    # the forward snapshot, front and u0 depend only on (mu, n): prepare each
    # group once, after every group has been checked (its grid, table size
    # and traces), instead of per (delta, seed) combination
    groups = {}
    for run in runs:
        key = (run["mu"], run["n"])
        if key in groups:
            continue
        mu, n = key
        try:
            spec = base_spec if mu == base_spec.mu else replace(base_spec, mu=mu)
            groups[key] = (spec, spec.grid(cfg.refine * n, cfg.refine * n), cfg.cfl,
                           spec.grid(n, n))
        except ValueError as exc:     # a mus or grids value out of range
            raise ConfigError(f"[study] mu = {mu}, n = {n}: {exc}") from exc
        _check_table_size("study", spec, n)
        inverse.require_assumption1(spec)
    prepared = {key: inverse.prepare(*group) for key, group in groups.items()}
    widths = {key: _mid_width(prep) for key, prep in prepared.items()}

    rows = []
    for run in runs:
        key = (run["mu"], run["n"])
        prep, width0, mu = prepared[key], widths[key], run["mu"]
        scale = mu * abs(np.log(mu))      # 0 at mu = 1: width_scaled is undefined
        res = inverse.run_aer_pipeline(prep, run["delta"], run["seed"], cfg.noise,
                                       cfg.gradient_measured, cfg.discrepancy)
        rows.append(dict(run, rel_err_f=res.metrics["rel_err_f"],
                         rel_err_u0=res.metrics["rel_err_u0"],
                         m_minus=res.metrics["m_minus"],
                         m_plus=res.metrics["m_plus"],
                         width_x0=width0,
                         width_scaled=width0 / scale if scale else None))

    cols = ["mu", "delta", "n", "seed", "rel_err_f", "rel_err_u0",
            "m_minus", "m_plus", "width_x0", "width_scaled"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in cols))
    _atomic_write(os.path.join(out, "study.csv"), ["\n".join(lines) + "\n"])

    fits = {}
    # a zero source leaves rel_err_f undefined, and with it every median
    defined = all(row["rel_err_f"] is not None for row in rows)
    for axis, values in cfg.study.items():
        if axis == "seed" or len(values) < 2 or not defined:
            continue
        med = {}
        for row in rows:
            med.setdefault(row[axis], []).append(row["rel_err_f"])
        xs = np.array(sorted(med))
        # the value of np.median, which would import numpy.ma (1.3 MB)
        ys = np.array([statistics.median(med[x]) for x in xs])
        if np.all(xs > 0) and np.all(ys > 0):
            slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
            fits[axis] = {"values": xs.tolist(), "median_rel_err_f": ys.tolist(),
                          "loglog_slope": slope}
    _write_json(os.path.join(out, "study_summary.json"), _summary(cfg, {
        "fits": fits, "runs": len(rows),
        "forward_blocks": [prep.forward_blocks for prep in prepared.values()],
        "wall_time_s": time.perf_counter() - t_start}))
    return 0


def _check_out(out: str):
    """Refuse, before any work, an --out that _atomic_write could not make
    or write into: one whose nearest existing path is not a writable
    directory (a file, a dangling symlink, or a directory without write
    permission)."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{path} is not a writable directory")


def _warning_line(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which is aer's assumption-violation
    code; a usage error is a configuration error, so this parser exits 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    ap = _Parser(prog="aer", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=["forward", "asymptote", "invert", "study"])
    ap.add_argument("--config", help="INI config file")
    ap.add_argument("--preset", help="built-in configuration: example1 or example2")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, help="override the inverse seed")
    args = ap.parse_args(argv)

    # a warning reaches the user as one line, not as Python's file:line
    # header and source line; the filters, and so which warnings show, stay
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        cfg = load_config(args.preset, args.config, args.seed)
        _check_out(args.out)
        handler = {"forward": cmd_forward, "asymptote": cmd_asymptote,
                   "invert": cmd_invert, "study": cmd_study}[args.command]
        return handler(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except AssumptionViolation as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, AerError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("numerical failure: out of memory; try a smaller grid", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
