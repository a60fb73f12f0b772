"""Output checks for the benchmark's `aer` invocations.

Each `check_<workload>` reads the files one invocation wrote and returns
(values, problems): the accuracy figures the benchmark reports, and a list
of reasons the run counts as failed (empty when it passed).

Every check requires all numbers in the JSON summaries and CSV files to be
finite.  At REFERENCE_SEED the accuracy figures must also match REFERENCES,
which were recorded from the CLI at the commit that introduced this
benchmark, within REFERENCE_TOL (the 1e-6 to which acceptance values must
stay unchanged).  At other seeds the invert workload checks that each
smoothing region's achieved misfit lies within MISFIT_WINDOW of its target.
The asymptote workload takes no noise, so its references hold at every
seed.
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

REFERENCE_SEED = 1
REFERENCE_TOL = 1e-6
C1_CAP = 1e-7                  # criterion C1: max |phi quadrature - closed form|
MISFIT_WINDOW = (0.95, 1.05)

REFERENCES = {
    "invert-ex1": {"rel_err_f": 0.14325674021644016, "rel_err_u0": 0.1166013584019243},
    "study-ex1": {"c4_median_rel_err_f": 0.1494611249391638,
                  "c7_slope": 0.5313841051015891,
                  "rel_err_u0": 0.1166013584019243},
    "asymptote-ex2": {"front_min": 0.0, "front_max": 0.6104871659543036},
}


# closed-form outer branches of the example2 preset
# (f = y - 2 cos(4 pi x), k = 1, u(-a) = -8, u(a) = 4, a = 1)
def phi2_minus(x, y):
    return -np.sqrt(np.sin(4 * np.pi * (x - y - 1)) - np.sin(4 * np.pi * x)
                    + np.pi * y ** 2 + 63 * np.pi) / np.sqrt(np.pi)


def phi2_plus(x, y):
    return np.sqrt(np.sin(4 * np.pi * (x - y + 1)) - np.sin(4 * np.pi * x)
                   + np.pi * y ** 2 + 15 * np.pi) / np.sqrt(np.pi)


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            if key != "config":
                yield from _numbers(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _numbers(value)


def _load_json(path, problems):
    with open(path) as fh:
        payload = json.load(fh)
    if not all(math.isfinite(v) for v in _numbers(payload)):
        problems.append(f"{os.path.basename(path)}: non-finite value")
    return payload


def read_csv_values(path):
    """Numeric body of an aer CSV (header row dropped), as a 2-D array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _finite_csvs(out_dir, problems):
    paths = sorted(glob.glob(os.path.join(out_dir, "*.csv")))
    if not paths:
        problems.append("no CSV output")
    for path in paths:
        if not np.all(np.isfinite(read_csv_values(path))):
            problems.append(f"{os.path.basename(path)}: non-finite value")


def _compare(values, reference, problems):
    for key, ref in reference.items():
        if abs(values[key] - ref) > REFERENCE_TOL:
            problems.append(f"{key} = {values[key]!r}, reference {ref!r}")


def misfit_ratio_problems(ratios):
    lo, hi = MISFIT_WINDOW
    return [f"misfit ratio {name} = {r:.4f} outside [{lo}, {hi}]"
            for name, r in ratios.items() if not lo <= r <= hi]


def check_invert(out_dir, seed):
    problems = []
    metrics = _load_json(os.path.join(out_dir, "metrics.json"), problems)
    _finite_csvs(out_dir, problems)
    values = {"rel_err_f": metrics["rel_err_f"], "rel_err_u0": metrics["rel_err_u0"]}
    # the smoothing target is the noise mean square delta^2 <u_delta^2> / 3
    # over the region's rows (calibrated discrepancy, uniform noise)
    u_delta = read_csv_values(os.path.join(out_dir, "u_delta.csv"))[:, 1:]   # (y, x)
    rows = {"lower": slice(0, metrics["m_minus"] + 1), "upper": slice(metrics["m_plus"], None)}
    misfit = {"lower": metrics["misfit_minus"], "upper": metrics["misfit_plus"]}
    ratios = {}
    for region, sl in rows.items():
        target = float(np.mean(u_delta[sl] ** 2)) * metrics["delta"] ** 2 / 3.0
        ratios[region] = misfit[region] / target
    problems += misfit_ratio_problems(ratios)
    if seed == REFERENCE_SEED:
        _compare(values, REFERENCES["invert-ex1"], problems)
    return values, problems


def check_study(out_dir, seed):
    problems = []
    summary = _load_json(os.path.join(out_dir, "study_summary.json"), problems)
    _finite_csvs(out_dir, problems)
    with open(os.path.join(out_dir, "study.csv")) as fh:
        cols = fh.readline().strip().split(",")
    table = read_csv_values(os.path.join(out_dir, "study.csv"))
    delta = table[:, cols.index("delta")]
    at_c4 = np.isclose(delta, 0.01)
    if not at_c4.any():
        problems.append("no study rows at delta = 0.01")
        return {}, problems
    values = {
        "c4_median_rel_err_f": float(np.median(table[at_c4, cols.index("rel_err_f")])),
        "c7_slope": summary["fits"]["delta"]["loglog_slope"],
        "rel_err_u0": float(np.median(table[:, cols.index("rel_err_u0")])),
    }
    if seed == REFERENCE_SEED:
        _compare(values, REFERENCES["study-ex1"], problems)
    return values, problems


def check_asymptote(out_dir, seed):
    problems = []
    report = _load_json(os.path.join(out_dir, "assumptions.json"), problems)
    _finite_csvs(out_dir, problems)
    if not (report["assumption1"]["ok"] and report["assumption2"]["ok"]):
        problems.append("assumption check failed")
    err_phi = 0.0
    for side, closed in (("minus", phi2_minus), ("plus", phi2_plus)):
        path = os.path.join(out_dir, f"phi_{side}.csv")
        with open(path) as fh:
            xs = np.array([float(v) for v in fh.readline().strip().split(",")[1:]])
        body = read_csv_values(path)
        ys, phi = body[:, 0], body[:, 1:]
        err_phi = max(err_phi, float(np.max(np.abs(phi - closed(xs[None, :], ys[:, None])))))
    if err_phi > C1_CAP:
        problems.append(f"err_phi = {err_phi:.3e} above the C1 cap {C1_CAP:g}")
    lo, hi = report["front_range"]
    values = {"err_phi": err_phi, "front_min": lo, "front_max": hi}
    _compare({k: values[k] for k in ("front_min", "front_max")},
             REFERENCES["asymptote-ex2"], problems)
    return values, problems


CHECKS = {"invert-ex1": check_invert, "study-ex1": check_study,
          "asymptote-ex2": check_asymptote}
