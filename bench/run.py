"""Benchmark of the `aer` command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/aer`).
Each workload is one `aer` CLI invocation, started in a fresh Python
process the way users run the tool, so the module-level phi-table cache
starts cold every time.  Invocations run one at a time (closed loop, one
client) with AER_MAX_WORKERS set to the number of usable cores.

  invert-ex1     aer invert --preset example1 --seed N
  asymptote-ex2  aer asymptote --preset example2 --seed N (the seed is unused)
  study-ex1      aer study --preset example1, deltas 0.04 0.02 0.01 0.005,
                 seeds N..N+4

A run first times SETUP_PROBES set-up-only processes (interpreter start,
`import aer.cli`, load_config), then repeats the invocation while another
one still fits in S seconds (at least once), checking every invocation's
output files with check.py.  With --trace 1 one more invocation runs with
every public function of aer wrapped in a span (see tracer.py, child.py),
and the run reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted` and `failed` count every process the run started, set-up
probes included; `failed` counts non-zero exits and failed output checks.
The lines before it give the machine, the sample count of every median and
the reason for each failure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from check import CHECKS, misfit_ratio_problems
from tracer import covered_length, outermost, self_times

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0          # every process of a run is stopped by then
STUDY_DELTAS = "0.04 0.02 0.01 0.005"
STUDY_SEEDS = 5
# layers with a <layer>.self_s metric; grid functions get spans but no metric
SELF_TIME_LAYERS = ("cli", "expr", "asymptotics", "forward", "inverse")
WRITE_FUNCTIONS = ("cli.write_field_csv", "cli.write_front_csv", "cli._write_json",
                   "cli._atomic_write")


def aer_args(workload, seed, out, work):
    if workload == "invert-ex1":
        return ["invert", "--preset", "example1", "--seed", str(seed), "--out", out]
    if workload == "asymptote-ex2":
        return ["asymptote", "--preset", "example2", "--seed", str(seed), "--out", out]
    config = os.path.join(work, "sweep.ini")
    if not os.path.exists(config):
        seeds = " ".join(str(s) for s in range(seed, seed + STUDY_SEEDS))
        with open(config, "w") as fh:
            fh.write(f"[study]\ndeltas = {STUDY_DELTAS}\nseeds = {seeds}\n")
    return ["study", "--preset", "example1", "--config", config, "--out", out]


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["AER_MAX_WORKERS"] = str(nproc())
    return env


def machine_info(root, env):
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "aer")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": deps["blas"].get("openblas configuration", deps["blas"].get("version")),
        "env": {k: v for k, v in sorted(env.items())
                if k == "AER_MAX_WORKERS" or k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spawn(argv, env, deadline):
    """Run argv to completion; return (rc, start, end, cpu_s, max_rss_mb).

    The child is killed if it is still running at the deadline."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Runner:
    def __init__(self, root, workload, seed, work, env, deadline):
        self.src = os.path.join(root, "src")
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = env
        self.deadline = deadline
        self.count = 0
        self.failures = []

    def invoke(self, setup_only=False, trace=False):
        """One child process; returns a dict of its measurements."""
        self.count += 1
        out = os.path.join(self.work, f"out{self.count}")
        record_path = os.path.join(self.work, f"record{self.count}.json")
        argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--src", self.src,
                "--record", record_path]
        argv += ["--trace"] * trace + ["--setup-only"] * setup_only
        argv += ["--", *aer_args(self.workload, self.seed, out, self.work)]
        rc, start, end, cpu, rss = spawn(argv, self.env, self.deadline)
        result = {"rc": rc, "wall": end - start, "start": start, "end": end, "cpu": cpu,
                  "rss": rss, "setup": None, "spans": None, "values": {}, "bytes": 0}
        problems = [] if rc == 0 else [f"exit status {rc}"]
        if os.path.exists(record_path):
            with open(record_path) as fh:
                record = json.load(fh)
            if record["setup_end"] is not None:
                result["setup_end"] = record["setup_end"]
                result["setup"] = record["setup_end"] - start
            result["spans"] = record["spans"]
        elif not problems:
            problems.append("no record written")
        if not setup_only and not problems:
            result["bytes"] = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
            try:
                result["values"], problems = CHECKS[self.workload](out, self.seed)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        shutil.rmtree(out, ignore_errors=True)
        result["ok"] = not problems
        kind = "setup probe" if setup_only else "traced" if trace else "invocation"
        setup = f"{result['setup']:.3f}" if result["setup"] is not None else "-"
        print(f"process {self.count} ({kind}): exit {rc}, wall {result['wall']:.3f} s, "
              f"cpu {cpu:.3f} s, setup {setup} s, rss {rss:.1f} MB, "
              f"{'ok' if not problems else 'FAILED'}", flush=True)
        if problems:
            self.failures.append(f"process {self.count}: " + "; ".join(problems))
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(setups, runs):
    good = [r for r in runs if r["ok"]] or runs
    setup = [r["setup"] for r in setups + runs if r["setup"] is not None]
    return {
        "wall_s": (_median([r["wall"] for r in good]), "s", len(good)),
        "cpu_s": (_median([r["cpu"] for r in good]), "s", len(good)),
        "setup_s": (_median(setup), "s", len(setup)),
        "peak_rss_mb": (_median([r["rss"] for r in good]), "MB", len(good)),
    }


def per_layer_metrics(traced, untraced_wall):
    """Per-layer metrics of one traced invocation."""
    spans = [tuple(s) for s in traced["spans"] or ()]
    selfs = self_times(spans)

    def named(name, **match):
        return [s for s in outermost(spans, name)
                if all((s[6] or {}).get(k) == v for k, v in match.items())]

    def total(name):
        return sum(s[5] - s[4] for s in named(name))

    def per_call(name, **match):
        return _median([s[5] - s[4] for s in named(name, **match)])

    def info(name, key, reduce=_median, **match):
        return reduce([s[6][key] for s in named(name, **match)] or [0])

    m = {}
    steps = info("forward.forward_solve", "steps", sum)
    capped = info("forward.forward_solve", "diffusion_capped", sum)
    m["forward.solve_s"] = (total("forward.forward_solve"), "s")
    m["forward.steps"] = (steps, "count")
    m["forward.ms_per_step"] = (1e3 * m["forward.solve_s"][0] / steps if steps else 0.0, "ms")
    m["forward.diffusion_capped_frac"] = (capped / steps if steps else 0.0, "ratio")

    m["asymptotics.solve_front_s"] = (total("asymptotics.solve_front"), "s")
    for side in ("minus", "plus"):
        m[f"asymptotics.table_nodes.{side}"] = (
            info("asymptotics.phi_table", "nodes", max, side=side), "count")
    for fn in ("check_assumption2", "eval_phi", "assemble_u0", "transition_width"):
        m[f"asymptotics.{fn}_s"] = (total(f"asymptotics.{fn}"), "s")

    calls = [s for s in spans if s[2] == "expr.Expr.__call__"]
    points = sum(s[6]["points"] for s in calls)
    m["expr.calls"] = (len(calls), "count")
    m["expr.points"] = (points, "count")
    m["expr.ns_per_point"] = (1e9 * sum(selfs[s[0]] for s in calls) / points if points else 0.0,
                              "ns")

    m["inverse.pipeline_s"] = (per_call("inverse.run_aer_pipeline"), "s")
    for region in ("lower", "upper"):
        m[f"inverse.smooth_region_s.{region}"] = (
            per_call("inverse.smooth_region", region=region), "s")
    m["inverse.reconstruct_source_s"] = (per_call("inverse.reconstruct_source"), "s")
    m["inverse.make_observation_s"] = (per_call("inverse.make_observation"), "s")
    for region in ("lower", "upper"):
        m[f"inverse.cg_iterations.{region}"] = (
            info("inverse.smooth_region", "cg", region=region), "count")
    m["inverse.cg_iterations.recon"] = (info("inverse.reconstruct_source", "cg"), "count")
    for region in ("lower", "upper"):
        regs = [s[6] for s in named("inverse.smooth_region", region=region)]
        m[f"inverse.misfit_ratio.{region}"] = (
            _median([r["misfit"] / r["target"] for r in regs]), "ratio")
        m[f"inverse.eps.{region}"] = (_median([r["eps"] for r in regs]), "1")

    m["cli.load_config_s"] = (total("cli.load_config"), "s")
    m["cli.write_s"] = (sum(s[5] - s[4] for s in outermost(spans, WRITE_FUNCTIONS)), "s")
    m["cli.bytes_written"] = (traced["bytes"], "B")

    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = (sum(selfs[s[0]] for s in spans
                                    if s[2].split(".", 1)[0] == layer), "s")

    values = traced["values"]
    m["inverse.rel_err_f"] = (values.get("rel_err_f", values.get("c4_median_rel_err_f", 0.0)),
                              "1")
    m["asymptotics.rel_err_u0"] = (values.get("rel_err_u0", 0.0), "1")
    m["asymptotics.err_phi"] = (values.get("err_phi", 0.0), "1")

    after_setup = traced["end"] - traced.get("setup_end", traced["start"])
    top = [s for s in spans if s[1] is None]
    covered = covered_length(top, traced["end"] - after_setup, traced["end"])
    m["trace.overhead_s"] = (traced["wall"] - untraced_wall, "s")
    m["trace.unattributed_s"] = (after_setup - covered, "s")
    m["trace.coverage_frac"] = (covered / after_setup if after_setup > 0 else 0.0, "ratio")
    return m


def misfit_problems(traced):
    """Misfit ratio window for every smoothing call of a traced invocation."""
    regs = [s[6] for s in (traced["spans"] or ()) if s[2] == "inverse.smooth_region"]
    return misfit_ratio_problems({f"{r['region']}#{i}": r["misfit"] / r["target"]
                                  for i, r in enumerate(regs)})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aer", "cli.py")):
        print(f"{root} holds no aer source tree (src/aer/cli.py); run from the checkout root",
              file=sys.stderr)
        return 2
    env = child_env(os.path.join(root, "src"))
    work = os.path.join(root, ".bench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(root, args.workload, args.seed, work, env, deadline)
    try:
        machine = machine_info(root, env)
        setups = [runner.invoke(setup_only=True) for _ in range(SETUP_PROBES)]
        runs = []
        t0 = time.monotonic()
        while True:
            runs.append(runner.invoke())
            elapsed = time.monotonic() - t0
            mean = elapsed / len(runs)
            if elapsed + mean > args.seconds or time.monotonic() + 2 * mean > deadline:
                break
        traced = runner.invoke(trace=True) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))       # only when no other run uses it
        except OSError:
            pass

    if traced is not None and traced["ok"]:
        problems = misfit_problems(traced)
        if problems:
            traced["ok"] = False
            runner.failures.append("traced process: " + "; ".join(problems))
    processes = setups + runs + ([traced] if traced else [])
    failed = sum(not r["ok"] for r in processes)

    print("machine " + json.dumps(machine, sort_keys=True))
    for line in runner.failures:
        print("failed " + line)
    if traced is None:
        metrics = end_to_end_metrics(setups, runs)
        for name, (value, unit, n) in metrics.items():
            print(f"{name} = {value:.6g} {unit} (median of {n})")
        metrics = {k: (v, u) for k, (v, u, _) in metrics.items()}
    else:
        untraced = _median([r["wall"] for r in runs])
        print(f"traced invocation: wall {traced['wall']:.4g} s; untraced median "
              f"{untraced:.4g} s over {len(runs)}")
        metrics = per_layer_metrics(traced, untraced)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(f"wall time of this run: {time.monotonic() - t_begin:.1f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(processes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
