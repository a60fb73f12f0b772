"""One `aer` CLI invocation, as the console script runs it, plus a record.

    python3 bench/child.py --src SRC --record FILE [--trace] [--setup-only] -- AER_ARGS

Imports `aer.cli` (which must come from SRC), runs `aer.cli.main(AER_ARGS)`
and exits with its status.  FILE receives a JSON object with

    setup_end  time.monotonic() when load_config returned (set-up is done)
    rc         the CLI's exit status
    spans      with --trace, the spans of every call into aer's public
               functions (see tracer.py); otherwise null

--setup-only stops right after load_config, for set-up time probes.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time

import numpy as np

from tracer import Tracer, public_functions

LAYERS = ("cli", "expr", "asymptotics", "forward", "inverse", "grid")
# the single file-writing primitive of the CLI and its JSON front, timed
# for cli.write_s although private
PRIVATE_TRACED = ("cli._atomic_write", "cli._write_json")
UNTRACED = ("cli.main",)     # spans the whole invocation; would hide coverage gaps


class _SetupDone(Exception):
    pass


def _bind(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind(*args, **kwargs).arguments


def make_probes(aer):
    """name -> probe(fn, args, kwargs) -> (result, info) for the calls whose
    results carry counters."""
    bind_forward = _bind(aer.forward.forward_solve)
    bind_table = _bind(aer.asymptotics.phi_table)
    bind_smooth = _bind(aer.inverse.smooth_region)

    def forward_solve(fn, args, kwargs):
        bound = bind_forward(args, kwargs)
        want_dt = bound.pop("record_dt", False)
        snaps, dts = fn(**bound, record_dt=True)
        spec, cfg = bound["spec"], bound["cfg"]
        d1, d2 = cfg.grid.d1, cfg.grid.d2
        cap = cfg.cfl / (2.0 * spec.mu * (1.0 / d1 ** 2 + 1.0 / d2 ** 2))
        capped = sum(1 for dt in dts if math.isclose(dt, cap, rel_tol=1e-12))
        result = (snaps, dts) if want_dt else snaps
        return result, {"steps": len(dts), "diffusion_capped": capped}

    def phi_table(fn, args, kwargs):
        table = fn(*args, **kwargs)
        return table, {"side": bind_table(args, kwargs)["side"],
                       "nodes": int(table.values.size)}

    def expr_call(fn, args, kwargs):
        bound = dict(zip(("self", "x", "y"), args), **kwargs)
        points = math.prod(np.broadcast_shapes(np.shape(bound["x"]), np.shape(bound["y"])))
        return fn(*args, **kwargs), {"points": points}

    def smooth_region(fn, args, kwargs):
        reg = fn(*args, **kwargs)
        return reg, {"region": bind_smooth(args, kwargs)["region"],
                     "cg": int(reg.cg_iterations), "eps": float(reg.eps),
                     "misfit": float(reg.misfit), "target": float(reg.target)}

    def reconstruct_source(fn, args, kwargs):
        rec = fn(*args, **kwargs)
        return rec, {"cg": int(rec.cg_iterations)}

    return {"forward.forward_solve": forward_solve,
            "asymptotics.phi_table": phi_table,
            "expr.Expr.__call__": expr_call,
            "inverse.smooth_region": smooth_region,
            "inverse.reconstruct_source": reconstruct_source}


def install_tracer(tracer, aer):
    modules = [getattr(aer, name) for name in LAYERS]
    functions = public_functions(modules, extra=PRIVATE_TRACED)
    for name in UNTRACED:
        functions.pop(name)
    bindings = [m for name, m in sys.modules.items() if name == "aer" or name.startswith("aer.")]
    tracer.install(bindings, functions,
                   methods=[(aer.expr.Expr, "__call__", "expr.Expr.__call__")],
                   probes=make_probes(aer))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", required=True, help="directory aer must be imported from")
    ap.add_argument("--record", required=True, help="JSON file for the record")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("aer_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args(argv)
    aer_args = opts.aer_args[1:] if opts.aer_args[:1] == ["--"] else opts.aer_args

    import aer
    import aer.cli as cli
    src = os.path.realpath(opts.src)
    if os.path.commonpath([src, os.path.realpath(aer.__file__)]) != src:
        print(f"aer imported from {aer.__file__}, not from {src}", file=sys.stderr)
        return 90

    tracer = Tracer() if opts.trace else None
    if tracer is not None:
        install_tracer(tracer, aer)
    record = {"setup_end": None, "rc": None, "spans": None}
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        if record["setup_end"] is None:
            record["setup_end"] = time.monotonic()
        if opts.setup_only:
            raise _SetupDone
        return cfg

    cli.load_config = timed_load_config
    try:
        rc = cli.main(aer_args)
    except _SetupDone:
        rc = 0
    finally:
        cli.load_config = load_config
        if tracer is not None:
            tracer.restore()
    record["rc"] = rc
    if tracer is not None:
        record["spans"] = tracer.spans
    with open(opts.record, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
