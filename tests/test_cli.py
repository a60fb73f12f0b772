import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings

import numpy as np
import pytest

import aer
import aer.cli as cli
from aer.asymptotics import FrontCurve
from aer.cli import (
    _fmt,
    load_config,
    main,
    write_field_csv,
    write_front_csv,
)
from aer.errors import ConfigError
from aer.grid import Field2D, Grid2D
from conftest import phi2_at_k

TINY = """
[problem]
mu = 0.05
k = 1
x0 = -1
x1 = 1
a = 1
T = 1
u_minus_a = -3
u_plus_a = 3
f = 0.3*cos(pi*x)
h0_star = 0
t0 = 0.3

[forward]
n = 24
m = 24
cfl = 0.4
refine = 2
snapshots = 0.15 0.3

[inverse]
delta = 0.01
seed = 1
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return str(path)


def test_presets_load():
    for preset in ("example1", "example2"):
        cfg = load_config(preset, None)
        assert cfg.n == cfg.m == 50
        assert cfg.delta == 0.01
        assert cfg.spec.mu == 0.08
    with pytest.raises(ConfigError):
        load_config("nope", None)
    with pytest.raises(ConfigError):
        load_config(None, None)


def test_config_overrides_preset(tmp_path):
    path = tmp_path / "o.ini"
    path.write_text("[inverse]\ndelta = 0.04\n")
    cfg = load_config("example1", str(path))
    assert cfg.delta == 0.04
    assert cfg.spec.k == 2.0


def test_seed_override():
    # --seed goes through the seed's parser, and the config on record
    # keeps the preset's (or the file's) seed
    cfg = load_config("example1", None, seed_override=77)
    assert cfg.seed == 77
    assert cfg.raw == load_config("example1", None).raw
    assert cfg.raw["inverse"]["seed"] == "1"
    for seed in (-1, 2 ** 128):
        with pytest.raises(ConfigError, match="must lie in"):
            load_config("example1", None, seed_override=seed)


def test_csv_blocks_match_per_value_format(tmp_path, monkeypatch):
    # one "%.17g" template per block of rows (per time in front.csv, whose
    # t and x are formatted once) writes what _fmt writes value by value,
    # across block boundaries and for the awkward values
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
    rng = np.random.default_rng(3)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
               2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0]
    h = np.r_[special, rng.standard_normal(46) * 10.0 ** rng.integers(-300, 300, 46)]
    hx = rng.permutation(h)
    times, xs = np.array([0.0, 0.1, 1.0 / 3.0, 1e-300, 5e-324]), np.linspace(-2.0, 2.0, 12)
    front = FrontCurve(xs, 4.0, times, h.reshape(5, 12), hx.reshape(5, 12))
    path = tmp_path / "front.csv"
    write_front_csv(str(path), front)
    want = ["t,x,h0,h0_x"] + [",".join(_fmt(v) for v in (t, x, front.h[it, ix], front.hx[it, ix]))
                              for it, t in enumerate(times) for ix, x in enumerate(xs)]
    assert path.read_text() == "\n".join(want) + "\n"
    g = Grid2D(-1.0, 1.0, 0.5, 9, 7)
    field = Field2D(g, rng.standard_normal((10, 8)) * 10.0 ** rng.integers(-300, 300, (10, 8)))
    write_field_csv(str(path), field)
    want = ["y\\x," + ",".join(_fmt(x) for x in g.xs)] + [
        _fmt(g.ys[j]) + "," + ",".join(_fmt(field.values[i, j]) for i in range(g.n + 1))
        for j in range(g.m + 1)]
    assert path.read_text() == "\n".join(want) + "\n"
    assert not os.path.exists(str(path) + ".tmp")


def test_boolean_keys(tmp_path):
    path = tmp_path / "b.ini"
    for word, value in (("yes", True), (" ON ", True), ("1", True), ("Off", False),
                        ("no", False), ("0", False), ("FALSE", False)):
        path.write_text(f"[inverse]\ngradient_measured = {word}\n")
        assert load_config("example1", str(path)).gradient_measured is value


def test_cmd_forward_writes_snapshots(tiny_config, tmp_path):
    out = str(tmp_path / "fw")
    assert main(["forward", "--config", tiny_config, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "u_t0.15.csv"))
    assert os.path.exists(os.path.join(out, "u_t0.3.csv"))
    summary = json.load(open(os.path.join(out, "forward_summary.json")))
    assert summary["snapshots_written"] == [0.15, 0.3]
    assert summary["steps"] == len(summary["dt_history"]) > 0
    assert summary["config"]["problem"]["mu"] == "0.05"


def test_cmd_forward_writes_the_inversion_data(tiny_config, tmp_path):
    # aer forward solves on the refine * n grid, as prepare does for invert
    # and study, and writes the snapshot on the n grid; the earlier snapshot
    # at 0.15 leaves the march alone, so the t0 snapshot is the inversion's
    out = str(tmp_path / "fw")
    assert main(["forward", "--config", tiny_config, "--out", out]) == 0
    cfg = load_config(None, tiny_config)
    prep = aer.inverse.prepare(cfg.spec, cfg.forward_grid, cfg.cfl, cfg.obs_grid)
    body = np.loadtxt(os.path.join(out, "u_t0.3.csv"), delimiter=",", skiprows=1, ndmin=2)
    assert body[:, 1:].T.tobytes() == prep.snapshot.values.tobytes()
    summary = json.load(open(os.path.join(out, "forward_summary.json")))
    assert sum(summary["dt_history"]) == pytest.approx(0.3, abs=1e-12)


def test_cmd_forward_empty_snapshot_list(tmp_path, tiny_config):
    cfgtext = TINY.replace("snapshots = 0.15 0.3", "")
    path = tmp_path / "nosnap.ini"
    path.write_text(cfgtext)
    out = str(tmp_path / "fw2")
    assert main(["forward", "--config", str(path), "--out", out]) == 0
    assert not any(name.startswith("u_t") for name in os.listdir(out))
    assert os.path.exists(os.path.join(out, "forward_summary.json"))


def test_cmd_forward_snapshot_within_time_tol_of_zero(tmp_path):
    # a snapshot that no step reaches is the start state, written and recorded
    path = tmp_path / "early.ini"
    path.write_text("[forward]\nn = 8\nm = 8\nrefine = 1\nsnapshots = 5e-14\n")
    out = tmp_path / "fw"
    assert main(["forward", "--preset", "example1", "--config", str(path),
                 "--out", str(out)]) == 0
    assert (out / "u_t5e-14.csv").exists()
    summary = json.load(open(out / "forward_summary.json"))
    assert summary["snapshots_written"] == [5e-14]


def test_cmd_asymptote_outputs(tiny_config, tmp_path):
    out = str(tmp_path / "asy")
    assert main(["asymptote", "--config", tiny_config, "--out", out]) == 0
    for name in ("phi_minus.csv", "phi_plus.csv", "front.csv",
                 "width_profile.csv", "assumptions.json"):
        assert os.path.exists(os.path.join(out, name)), name
    report = json.load(open(os.path.join(out, "assumptions.json")))
    assert report["assumption1"]["ok"] and report["assumption2"]["ok"]


def test_cmd_asymptote_assumption_violation_exit_code(tmp_path):
    bad = TINY.replace("u_minus_a = -3", "u_minus_a = 3")
    path = tmp_path / "bad.ini"
    path.write_text(bad)
    out = str(tmp_path / "asy_bad")
    assert main(["asymptote", "--config", str(path), "--out", out]) == 2
    report = json.load(open(os.path.join(out, "assumptions.json")))
    assert not report["assumption1"]["ok"]


def test_cmd_asymptote_nan_radicand_exit_code(tmp_path):
    # ln(x + 1.5) is undefined on part of the strip, so the branch radicands
    # are nan there; that must fail Assumption 2, not pass it
    bad = TINY.replace("f = 0.3*cos(pi*x)", "f = 0.1*ln(x+1.5)").replace(
        "x0 = -1\nx1 = 1", "x0 = -2\nx1 = 2")
    path = tmp_path / "nan.ini"
    path.write_text(bad)
    out = str(tmp_path / "asy_nan")
    assert main(["asymptote", "--config", str(path), "--out", out]) == 2
    report = json.load(open(os.path.join(out, "assumptions.json")))
    assert report["assumption1"]["ok"]
    assert not report["assumption2"]["ok"]


@pytest.mark.parametrize("command", ["forward", "invert"])
def test_nan_source_exit_code(tmp_path, command):
    # the same nan source must stop the forward solve before its first step
    bad = TINY.replace("f = 0.3*cos(pi*x)", "f = 0.1*ln(x+1.5)").replace(
        "x0 = -1\nx1 = 1", "x0 = -2\nx1 = 2")
    path = tmp_path / "nan.ini"
    path.write_text(bad)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["forward", "asymptote", "invert"])
@pytest.mark.parametrize("old, new, code", [
    pytest.param("mu = 0.05", "mu = -0.05", 4, id="negative-mu"),
    pytest.param("k = 1", "k = -1", 4, id="negative-k"),
    pytest.param("x1 = 1", "x1 = -1", 4, id="x1-at-x0"),
    pytest.param("\na = 1", "\na = 0", 4, id="zero-a"),
    pytest.param("T = 1", "T = 0", 4, id="zero-T"),
    pytest.param("h0_star = 0", "h0_star = 1", 4, id="h0-star-on-boundary"),
    pytest.param("t0 = 0.3", "t0 = 1.5", 4, id="t0-past-T"),
    pytest.param("h0_star = 0\n", "", 4, id="missing-key"),
    pytest.param("u_minus_a = -3", "u_minus_a = -3 + 0*sqrt(x)", 2, id="nan-trace"),
])
def test_invalid_problem_data_exit_codes(tmp_path, command, old, new, code):
    path = tmp_path / "bad.ini"
    path.write_text(TINY.replace(old, new))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == code


@pytest.mark.parametrize("command, old, new", [
    pytest.param("forward", "cfl = 0.4", "cfl = 2", id="cfl"),
    pytest.param("forward", "cfl = 0.4", "cfl = 0", id="cfl-zero"),
    pytest.param("forward", "n = 24", "n = 1", id="n"),
    pytest.param("invert", "m = 24", "m = 1", id="m"),
    pytest.param("invert", "refine = 2", "refine = 0", id="refine"),
    pytest.param("forward", "snapshots = 0.15 0.3", "snapshots = 0.15 5", id="snapshot-past-T"),
    pytest.param("forward", "snapshots = 0.15 0.3", "snapshots = -0.1", id="negative-snapshot"),
    pytest.param("forward", "snapshots = 0.15 0.3", "snapshots = nan", id="snapshot-nan"),
    pytest.param("forward", "snapshots = 0.15 0.3", "snapshots = 0.1234567 0.1234568",
                 id="snapshots-one-file"),
    pytest.param("study", "[inverse]", "[study]\nmus = 0.05 -0.05\n\n[inverse]", id="study-mus"),
    pytest.param("study", "[inverse]", "[study]\ngrids = 24 1\n\n[inverse]", id="study-grids"),
    pytest.param("invert", "delta = 0.01", "delta = -0.01", id="delta"),
    pytest.param("invert", "delta = 0.01", "delta = nan", id="delta-nan"),
    pytest.param("invert", "delta = 0.01", "delta = 1.5", id="delta-above-1"),
    pytest.param("invert", "delta = 0.01", "delta = 1e200", id="delta-1e200"),
    pytest.param("invert", "delta = 0.01", "delta = 1e308", id="delta-1e308"),
    pytest.param("invert", "seed = 1", "seed = -1", id="seed"),
    pytest.param("invert", "seed = 1", f"seed = {2 ** 128}", id="seed-2^128"),
    pytest.param("invert", "seed = 1", "seed = 1\nnoise = bogus", id="noise"),
    pytest.param("invert", "seed = 1", "seed = 1\ndiscrepancy = bogus", id="discrepancy"),
    pytest.param("study", "[inverse]", "[study]\ndeltas = 0.01 -0.01\n\n[inverse]",
                 id="study-deltas"),
    pytest.param("study", "[inverse]", "[study]\ndeltas = 0.01 1e200\n\n[inverse]",
                 id="study-deltas-1e200"),
    pytest.param("study", "[inverse]", "[study]\nseeds = 1 -1\n\n[inverse]", id="study-seeds"),
    # a value given twice would run its rows twice and fit one distinct value
    pytest.param("study", "[inverse]", "[study]\ndeltas = 0.01 0.01\nseeds = 1\n\n[inverse]",
                 id="study-deltas-repeat"),
    pytest.param("study", "[inverse]", "[study]\nseeds = 1 1\n\n[inverse]",
                 id="study-seeds-repeat"),
    pytest.param("study", "[inverse]", "[study]\nseeds = 1 x\n\n[inverse]", id="study-seed-token"),
    pytest.param("study", "[inverse]", f"[study]\nseeds = 1 {2 ** 128}\n\n[inverse]",
                 id="study-seed-2^128"),
    pytest.param("invert", "seed = 1", "seed = 1\ngradient_measured = maybe",
                 id="gradient-measured"),
    # every subcommand parses [study], so a malformed value stops them all
    pytest.param("forward", "[inverse]", "[study]\nseeds = 1 x\n\n[inverse]",
                 id="forward-study-seed-token"),
    pytest.param("asymptote", "[inverse]", "[study]\ndeltas = 0.01 1.5\n\n[inverse]",
                 id="asymptote-study-deltas"),
    pytest.param("invert", "[inverse]", "[study]\ngrids = 24 2.5\n\n[inverse]",
                 id="invert-study-grid-token"),
])
def test_out_of_range_run_settings_exit_code(tmp_path, command, old, new):
    path = tmp_path / "range.ini"
    path.write_text(TINY.replace(old, new))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("command", ["forward", "invert", "study"])
@pytest.mark.parametrize("old, new, name", [
    pytest.param("delta = 0.01", "dleta = 0.04", "'dleta' in [inverse]", id="key"),
    pytest.param("[inverse]", "[studdy]\nseeds = 1 2\n\n[inverse]", "[studdy]", id="section"),
    pytest.param("[problem]", "[DEFAULT]\ndelta = 0.04\n\n[problem]", "[DEFAULT]",
                 id="DEFAULT-section"),
])
def test_unknown_config_name_exit_code(tmp_path, capsys, command, old, new, name):
    # a misspelt key or section is refused by name, before any work, instead
    # of running on the default it failed to override
    path = tmp_path / "unknown.ini"
    path.write_text(TINY.replace(old, new))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert name in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("text", [
    pytest.param(b"delta = 0.04\n" + TINY.encode(), id="no-section-header"),
    pytest.param(TINY.replace("delta = 0.01", "delta = 1%").encode(), id="bare-percent"),
    pytest.param(TINY.replace("delta = 0.01", "delta = 0.01 \xff").encode("latin-1"),
                 id="not-utf-8"),
])
def test_unparsable_config_exit_code(tmp_path, text):
    path = tmp_path / "unparsable.ini"
    path.write_bytes(text)
    assert main(["invert", "--config", str(path), "--out", str(tmp_path / "o")]) == 4


def test_summary_records_resolved_config(tiny_config, tmp_path):
    # TINY gives [inverse] delta and seed only; the summary still records
    # every [forward] and [inverse] key with the value the run used
    out = str(tmp_path / "inv")
    assert main(["invert", "--config", tiny_config, "--out", out]) == 0
    config = json.load(open(os.path.join(out, "metrics.json")))["config"]
    assert sorted(config["forward"]) == ["cfl", "m", "n", "refine", "snapshots"]
    assert sorted(config["inverse"]) == ["delta", "discrepancy", "gradient_measured",
                                         "noise", "seed"]
    assert config["inverse"]["noise"] == "uniform"
    assert config["inverse"]["gradient_measured"] == "false"
    assert config["inverse"]["discrepancy"] == "calibrated"
    assert config["forward"]["snapshots"] == "0.15 0.3"


def test_malformed_expression_exit_code(tmp_path):
    path = tmp_path / "syntax.ini"
    path.write_text(TINY.replace("0.3*cos(pi*x)", "0.3*cos(pi*x"))
    assert main(["forward", "--config", str(path), "--out", str(tmp_path / "o")]) == 4


def test_missing_config_exit_code(tmp_path):
    assert main(["forward", "--out", str(tmp_path / "o")]) == 4
    assert main(["forward", "--config", str(tmp_path / "absent.ini"),
                 "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("argv", [
    pytest.param(["forward", "--preset", "example1"], id="missing-out"),
    pytest.param(["bogus", "--preset", "example1", "--out", "o"], id="unknown-command"),
    pytest.param(["forward", "--preset", "example1", "--out", "o", "--seed", "abc"],
                 id="seed-not-int"),
])
def test_usage_error_exit_code(tmp_path, capsys, monkeypatch, argv):
    # argparse's own exit code 2 is aer's assumption violation
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 4
    assert "usage: aer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "Exit status" in capsys.readouterr().out


@pytest.mark.parametrize("out", [
    pytest.param("file", id="names-a-file"),
    pytest.param("file/sub", id="under-a-file"),
    pytest.param("dangling", id="names-a-dangling-symlink"),
    pytest.param("dangling/sub", id="under-a-dangling-symlink"),
])
def test_unusable_out_exit_code(tiny_config, tmp_path, capsys, out):
    (tmp_path / "file").write_text("")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    assert main(["forward", "--config", tiny_config, "--out", str(tmp_path / out)]) == 4
    assert "config error: cannot create output directory" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command, text, code", [
    pytest.param(command, "[forward]\nn = 2000\nm = 3\nrefine = 1\n", 4, id=f"{command}-table")
    for command in ("asymptote", "invert")] + [
    pytest.param("study", "[forward]\nn = 2000\nm = 2000\nrefine = 1\n", 4, id="study-table"),
    pytest.param("study", "[forward]\nm = 20\n", 4, id="study-rectangular"),
    pytest.param("invert", "[problem]\nu_plus_a = -1\n", 2, id="invert-assumption1"),
])
def test_refused_run_leaves_no_out(tmp_path, command, text, code):
    # a run refused by its command's own checks writes nothing, so it makes
    # no --out; one that exists already is left in place
    path = tmp_path / "r.ini"
    path.write_text(text)
    argv = [command, "--preset", "example1", "--config", str(path), "--out"]
    assert main(argv + [str(tmp_path / "o" / "sub")]) == code
    assert not (tmp_path / "o").exists()
    (tmp_path / "kept").mkdir()
    assert main(argv + [str(tmp_path / "kept")]) == code
    assert (tmp_path / "kept").is_dir()


def test_cmd_invert_metrics(tiny_config, tmp_path):
    out = str(tmp_path / "inv")
    assert main(["invert", "--config", tiny_config, "--out", out]) == 0
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    for key in ("rel_err_u0", "rel_err_f", "eps_minus", "eps_plus", "eps_f",
                "m_minus", "m_plus", "seed"):
        assert key in metrics, key
    assert metrics["branch"] == "smoothed"
    assert metrics["seed"] == 1
    for name in ("u_delta.csv", "u_eps_lower.csv", "u_eps_upper.csv", "f_delta.csv"):
        assert os.path.exists(os.path.join(out, name)), name


@pytest.mark.parametrize("delta", [0.01, 0.0])
def test_cmd_invert_records_the_bracket_top(tmp_path, delta):
    # misfit at the top of the weight bracket over the target: at least the
    # window's floor when the bisection ran, null when the floor rule chose
    path = tmp_path / "top.ini"
    path.write_text(TINY.replace("delta = 0.01", f"delta = {delta}"))
    out = str(tmp_path / "inv")
    assert main(["invert", "--config", str(path), "--out", out]) == 0
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    for key in ("misfit_top_minus", "misfit_top_plus"):
        if delta > 0:
            assert math.isfinite(metrics[key]) and metrics[key] >= 0.95, key
        else:
            assert metrics[key] is None, key


def test_cmd_invert_gradient_branch(tmp_path):
    path = tmp_path / "grad.ini"
    path.write_text(TINY + "gradient_measured = true\n")
    out = str(tmp_path / "invg")
    assert main(["invert", "--config", str(path), "--out", out]) == 0
    metrics = json.load(open(os.path.join(out, "metrics.json")))
    assert metrics["branch"] == "measured-gradients"
    assert metrics["eps_minus"] is None
    assert not os.path.exists(os.path.join(out, "u_eps_lower.csv"))


def test_cmd_study_sweep_and_fit(tmp_path, monkeypatch):
    # the recoveries run one after another in the calling thread
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    path = tmp_path / "study.ini"
    path.write_text(TINY + "\n[study]\ndeltas = 0.02 0.01\nseeds = 1 2\n")
    out = str(tmp_path / "study")
    assert main(["study", "--config", str(path), "--out", out]) == 0
    rows = open(os.path.join(out, "study.csv")).read().strip().splitlines()
    assert len(rows) == 1 + 4
    summary = json.load(open(os.path.join(out, "study_summary.json")))
    assert "delta" in summary["fits"]
    assert len(summary["fits"]["delta"]["values"]) == 2


def test_summaries_record_forward_blocks(tmp_path, monkeypatch):
    # forward_summary.json, metrics.json and study_summary.json (one entry
    # per (mu, n) group) record the column blocks of the forward march; the
    # count is forced to 2 here, so the tiny grids' marches are split
    for module in (aer.forward, aer.inverse, cli):
        monkeypatch.setattr(module, "column_blocks", lambda grid: 2)
    path = tmp_path / "blocks.ini"
    path.write_text(TINY + "\n[study]\ndeltas = 0.01\nseeds = 1\ngrids = 12 24\n")
    for command, name, want in (("forward", "forward_summary.json", 2),
                                ("invert", "metrics.json", 2),
                                ("study", "study_summary.json", [2, 2])):
        out = str(tmp_path / command)
        assert main([command, "--config", str(path), "--out", out]) == 0
        assert json.load(open(os.path.join(out, name)))["forward_blocks"] == want


def test_cmd_study_zero_source(tmp_path):
    # an identically zero source has no relative recovery error: the study
    # leaves the cell empty, fits no axis on it, and succeeds as invert does
    path = tmp_path / "zero.ini"
    path.write_text("[problem]\nf = 0\n\n[study]\ndeltas = 0.02 0.01\nseeds = 1\n")
    out = str(tmp_path / "zero")
    assert main(["study", "--preset", "example1", "--config", str(path), "--out", out]) == 0
    lines = open(os.path.join(out, "study.csv")).read().splitlines()
    cols = lines[0].split(",")
    assert len(lines) == 1 + 2
    for line in lines[1:]:
        row = dict(zip(cols, line.split(",")))
        assert row["rel_err_f"] == ""
        assert float(row["rel_err_u0"]) > 0.0
    summary = json.load(open(os.path.join(out, "study_summary.json")))
    assert summary["fits"] == {}
    assert summary["runs"] == 2


def test_cmd_study_mu_one(tmp_path):
    # mu |ln mu| is 0 at mu = 1: width_scaled is undefined, so its cell is
    # left empty, without a division by zero, and width_x0 is still written
    path = tmp_path / "mu1.ini"
    path.write_text(TINY + "\n[study]\nmus = 1\nseeds = 1\n")
    out = str(tmp_path / "mu1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["study", "--config", str(path), "--out", out]) == 0
    lines = open(os.path.join(out, "study.csv")).read().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["width_scaled"] == ""
    assert math.isfinite(float(row["width_x0"]))


def test_cmd_study_rows_do_not_depend_on_grid_order(tmp_path):
    # each (mu, n) group is prepared from its own inputs only, so the row of
    # one grid is the same whichever grid the sweep visits first (the front
    # of the 24 x 24 group reads finer branch tables than the 12 x 12 one;
    # t0 = 0.6 keeps the problem apart from every other test's)
    rows = {}
    for grids in ("12 24", "24 12"):
        path = tmp_path / "grids.ini"
        path.write_text(f"[problem]\nt0 = 0.6\n\n[forward]\nrefine = 2\n\n"
                        f"[study]\ngrids = {grids}\n")
        out = str(tmp_path / grids.replace(" ", "-"))
        assert main(["study", "--preset", "example1", "--config", str(path), "--out", out]) == 0
        lines = open(os.path.join(out, "study.csv")).read().splitlines()
        rows[grids] = sorted(lines[1:])
    assert rows["12 24"] == rows["24 12"]


def test_cmd_study_band_and_width_once_per_group(tmp_path, monkeypatch):
    # the band mask and the mid-period width depend on the (mu, n) group
    # alone: 2 groups x 2 deltas x 2 seeds make 8 rows from 2 of each
    calls = {"layer_band": 0, "transition_width": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(aer.inverse, "layer_band")
    counted(aer.asymptotics, "transition_width")   # the width the CLI asks for
    path = tmp_path / "groups.ini"
    path.write_text(TINY + "\n[study]\ngrids = 12 24\ndeltas = 0.02 0.01\nseeds = 1 2\n")
    out = str(tmp_path / "groups")
    assert main(["study", "--config", str(path), "--out", out]) == 0
    rows = open(os.path.join(out, "study.csv")).read().strip().splitlines()
    assert len(rows) == 1 + 8
    assert calls == {"layer_band": 2, "transition_width": 2}


@pytest.mark.parametrize("command", ["invert", "study"])
def test_front_failure_names_its_stage(tmp_path, capsys, command):
    # on a narrow strip the front leaves the domain before t0; invert and
    # study prepare their shared stages the same way, so both name it
    path = tmp_path / "narrow.ini"
    path.write_text("[problem]\na = 0.5\nT = 3\nt0 = 2\nf = 0\n\n"
                    "[forward]\nn = 16\nm = 16\nrefine = 1\n\n[study]\nseeds = 1\n")
    code = main([command, "--preset", "example1", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "[front] Assumption 3 violated: front left domain" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["invert", "study"])
def test_thin_region_exit_code(tmp_path, capsys, command):
    # a low front on a coarse grid leaves the lower region two rows, too few
    # to smooth: a numerical failure of the smoothing stage, not a traceback
    path = tmp_path / "thin.ini"
    path.write_text("[problem]\nh0_star = -1.3\n\n"
                    "[forward]\nn = 8\nm = 8\nrefine = 4\n\n[study]\nseeds = 1\n")
    code = main([command, "--preset", "example1", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "[smoothing] lower region has 2 rows; need at least 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["invert", "study", "asymptote"])
def test_nonfinite_width_exit_code(tmp_path, capsys, command):
    # mu^2 underflows to 0, so the layer width is inf: a numerical failure,
    # not a traceback in the band mask nor inf in width_profile.csv
    path = tmp_path / "tiny-mu.ini"
    path.write_text(TINY.replace("mu = 0.05", "mu = 1e-300"))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "transition width is not finite" in err
    if command != "asymptote":
        assert "[observation]" in err


@pytest.mark.parametrize("command", ["forward", "invert"])
def test_time_step_underflow_exit_code(tmp_path, capsys, command):
    # a first step below the march's floor of 1e-14 is a numerical failure
    # of the forward stage, not a march that never ends
    path = tmp_path / "tiny-cfl.ini"
    path.write_text(TINY.replace("cfl = 0.4", "cfl = 1e-300"))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    stage = "[forward] " if command == "invert" else ""
    err = capsys.readouterr().err
    assert f"numerical failure: {stage}time step underflow at t = 0\n" in err


@pytest.mark.parametrize("command", ["asymptote", "invert", "study"])
def test_out_of_memory_exit_code(tiny_config, tmp_path, capsys, monkeypatch, command):
    # an allocation that fails (say the phi tables of a large grid under a
    # memory limit) is a numerical failure, not a traceback
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 488. MiB")

    monkeypatch.setattr(aer.asymptotics, "phi_table", no_memory)
    assert main([command, "--config", tiny_config, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure: out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    pytest.param(command, "[forward]\nn = 2000\nm = 3\nrefine = 1\n", id=f"{command}-n")
    for command in ("asymptote", "invert")] + [
    # study refuses a grid that is not square first
    pytest.param("study", "[forward]\nn = 2000\nm = 2000\nrefine = 1\n", id="study-n"),
    pytest.param("study", "[study]\ngrids = 50 2000\n", id="study-grids"),
    # aer forward builds no front, so its grid is not held to the budget:
    # each phi table of a front on n = 300 would hold 1200 x 1201 nodes
    pytest.param("forward", "[forward]\nn = 300\nm = 4\nrefine = 1\nsnapshots = 0.001\n",
                 id="forward-n")])
def test_table_size_exit_code(tmp_path, capsys, command, text):
    # (4 * 2000)^2 table nodes would take gigabytes: refused before any work
    path = tmp_path / "big.ini"
    path.write_text(text)
    start = time.perf_counter()
    code = main([command, "--preset", "example1", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    if command == "forward":
        assert code == 0
        assert (tmp_path / "o" / cli.snapshot_file(0.001)).exists()
        return
    assert code == 4
    budget = aer.asymptotics.TABLE_NODE_BUDGET
    assert f"n = 2000, k = 2: each phi table of the front would hold {8000 * 8001} nodes, " \
           f"over the budget of {budget}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["asymptote", "invert"])
@pytest.mark.parametrize("k", ["1e300", "1e12"])
def test_table_columns_exit_code(tmp_path, capsys, command, k):
    # the row recursion of a phi table works on 4 n + p ny columns, p =
    # round(2 a k / L): at these k too many for memory or for an array, so
    # refused before any work, by name
    path = tmp_path / "k.ini"
    path.write_text(f"[problem]\nk = {k}\n")
    start = time.perf_counter()
    code = main([command, "--preset", "example1", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert code == 4
    err = capsys.readouterr().err
    assert f"n = 50, k = {float(k):g}: each phi table of the front would run its " \
           f"recursion on " in err
    assert f"columns, over the budget of {aer.asymptotics.TABLE_COLUMN_BUDGET}" in err


@pytest.mark.parametrize("command", ["asymptote", "invert"])
@pytest.mark.parametrize("k", ["1e-6", "1e-8", "1e-300"])
def test_table_refinement_budget_exit_code(tmp_path, capsys, command, k):
    # at a tiny k the table rows stay 4, so its refinement would grow the
    # recursion without end; each refinement, the first one sized to put
    # rows a quarter of the strip apart included, is held to the budget
    # before it is built, and reported without a numpy warning on the way
    path = tmp_path / "k.ini"
    path.write_text(f"[problem]\nk = {k}\n")
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--preset", "example2", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 5.0
    assert code in (3, 4)
    assert "numerical failure" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command, code, message", [
    pytest.param("asymptote", 2, "assumption violation", id="asymptote"),
    pytest.param("invert", 3, "the minus table's radicand overflows at k = 1", id="invert"),
    pytest.param("forward", 3, "solver blow-up", id="forward"),
])
def test_overflowing_source_exit_code(tmp_path, capsys, command, code, message):
    # f = 1e308 overflows the characteristic integrals, the table recursion
    # and the forward march; the radicand, finiteness and max|u| checks
    # report it, without a numpy warning on the way
    path = tmp_path / "f.ini"
    path.write_text("[problem]\nf = 1e308\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--preset", "example2", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == code
    assert message in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_tiny_k_is_refused_before_a_table_is_built(tmp_path):
    # example 2 at k = 1e-6: the first table's rows would be 1e4 apart
    # against a strip 2a = 2 wide; the 20000-fold refinement that puts them
    # a quarter of the strip apart runs on 4M columns, over the budget, so
    # the run exits 3 near the import floor (the intermediate 48- and
    # 2256-fold tables once took it to 155 MB)
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak RSS from")
    path = tmp_path / "k.ini"
    path.write_text("[problem]\nk = 1e-6\n")
    # the child's own peak (VmHWM): its ru_maxrss would start at this
    # process's RSS, which Linux carries across exec
    code = textwrap.dedent(f"""
        from aer.cli import main
        code = main(["asymptote", "--preset", "example2", "--config", {str(path)!r},
                     "--out", {str(tmp_path / "o")!r}])
        with open("/proc/self/status") as fh:
            print(code, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    """)
    _, env = _src_env()
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    exit_code, maxrss_kb = map(int, run.stdout.split())
    assert exit_code == 3
    assert "the minus table refined 20000-fold would run its recursion on 4e+06 columns" \
        in run.stderr
    assert maxrss_kb < 50 * 1024


def test_small_k_refines_within_the_byte_budget(tmp_path):
    # example 2 at k = 1e-4: the first tables are refined 200-fold, to rows
    # 0.5 = a/2 apart; the plus table then refines to 800-fold, a recursion
    # on 160k columns that stores only the 200 x 17 nodes it keeps.  Both
    # branches match their closed forms, and the child's peak (VmHWM) stays
    # under 80 MB
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak RSS from")
    path = tmp_path / "k.ini"
    path.write_text("[problem]\nk = 1e-4\n")
    out = tmp_path / "o"
    code = textwrap.dedent(f"""
        from aer.cli import main
        code = main(["asymptote", "--preset", "example2", "--config", {str(path)!r},
                     "--out", {str(out)!r}])
        with open("/proc/self/status") as fh:
            print(code, next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    """)
    _, env = _src_env()
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    exit_code, maxrss_kb = map(int, run.stdout.split())
    assert exit_code == 0, run.stderr
    assert maxrss_kb < 80 * 1024
    for side, closed in zip(("minus", "plus"), phi2_at_k(1e-4)):
        csv = out / f"phi_{side}.csv"
        with open(csv) as fh:
            xs = np.array([float(v) for v in fh.readline().strip().split(",")[1:]])
        body = np.loadtxt(csv, delimiter=",", skiprows=1)
        err_phi = np.max(np.abs(body[:, 1:] - closed(xs[None, :], body[:, :1])))
        assert err_phi <= 1e-7


def test_huge_mu_fails_assumption1(tmp_path):
    # 2 mu^2 overflows to inf: the trace gap check fails (exit 2), where a
    # Python float square would end in an OverflowError traceback
    path = tmp_path / "mu.ini"
    path.write_text("[problem]\nmu = 1e300\n[forward]\nn = 8\nm = 8\nrefine = 1\n")
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="is not small"):
        assert main(["asymptote", "--preset", "example1", "--config", str(path),
                     "--out", str(out)]) == 2
    report = json.loads((out / "assumptions.json").read_text())["assumption1"]
    assert report["messages"] == ["trace gap does not exceed 2*mu^2"]
    assert report["gap_margin"] == -math.inf


@pytest.mark.parametrize("command", ["invert", "study"])
@pytest.mark.parametrize("text, message", [
    pytest.param("u_minus_a = 1\nf = 0", "u^{-a} not negative", id="positive-trace"),
    # a jump p = 0.05 <= mu^2 = 0.09, so the layer width would be negative
    pytest.param("mu = 0.3\nu_minus_a = -0.05\nu_plus_a = 0.05\nf = 0",
                 "trace gap does not exceed 2*mu^2", id="small-jump"),
    pytest.param("u_plus_a = -0.5", "u^{a} not positive", id="negative-upper-trace"),
])
def test_assumption1_exit_code(tmp_path, capsys, command, text, message):
    # invert and study check the traces as asymptote does, before any work
    path = tmp_path / "a1.ini"
    path.write_text(f"[problem]\n{text}\n")
    code = main([command, "--preset", "example2", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"Assumption 1 violated: {message}" in capsys.readouterr().err


def test_study_checks_every_group_before_any_work(tmp_path, capsys, monkeypatch):
    # the example2 traces -8 and 4 leave a gap of 12, so mu = 0.08 passes
    # Assumption 1 and mu = 3 (2 mu^2 = 18) fails it; the sweep is refused
    # before the first group is prepared
    calls = []
    monkeypatch.setattr(aer.inverse, "prepare", lambda *args: calls.append(args))
    path = tmp_path / "mus.ini"
    path.write_text("[study]\nmus = 0.08 3\n")
    code = main(["study", "--preset", "example2", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "Assumption 1 violated: trace gap does not exceed 2*mu^2" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("name", ["mu", "k", "x0", "x1", "a", "T", "h0_star", "t0"])
def test_nonfinite_problem_number_exit_code(tmp_path, capsys, name, value):
    path = tmp_path / "inf.ini"
    path.write_text(f"[problem]\n{name} = {value}\n")
    code = main(["invert", "--preset", "example2", "--config", str(path),
                 "--out", str(tmp_path / "o")])
    assert code == 4
    assert f"{name} = {float(value)} is not finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("text", [
    # d2^2 underflows to 0
    pytest.param("a = 1e-300", id="tiny-a"),
    # d1^2 overflows
    pytest.param("x0 = 1e300\nx1 = 1.0000000000000002e300", id="huge-x"),
])
def test_extreme_grid_spacing_exit_code(tmp_path, text):
    # the five-point diffusion bound of such a grid is not a finite positive
    # number: refused with the grids, before any work, not in a traceback
    path = tmp_path / "d.ini"
    path.write_text(f"[problem]\n{text}\n")
    _, env = _src_env()
    run = subprocess.run([sys.executable, "-m", "aer.cli", "forward", "--preset", "example1",
                          "--config", str(path), "--out", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 4, run.stderr
    assert "no finite positive diffusion bound" in run.stderr
    assert "Traceback" not in run.stderr
    assert not os.path.exists(tmp_path / "o")


def test_warning_is_one_cli_line(tmp_path):
    # the large-mu warning reaches a CLI user as one line, without Python's
    # file:line header and source line
    path = tmp_path / "mu.ini"
    path.write_text("[problem]\nmu = 0.6\n")
    _, env = _src_env()
    run = subprocess.run([sys.executable, "-m", "aer.cli", "asymptote", "--preset", "example2",
                          "--config", str(path), "--out", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stderr == "warning: mu = 0.6 is not small; expansions may be meaningless\n"


def test_study_refuses_rectangular_grid(tmp_path, capsys):
    # study builds n x n grids; an m that differs is refused, not ignored
    path = tmp_path / "rect.ini"
    path.write_text(TINY.replace("m = 24", "m = 20"))
    assert main(["study", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    assert "m = 20 differs from n = 24" in capsys.readouterr().err


# a non-default text for every [forward], [inverse] and [study] key, and the
# value the run must carry for it
NON_DEFAULT = {
    "forward": {"n": ("40", 40), "m": ("30", 30), "cfl": ("0.3", 0.3), "refine": ("3", 3),
                "snapshots": ("0.1, 0.25", [0.1, 0.25])},
    "inverse": {"delta": ("0.02", 0.02), "seed": ("9", 9), "noise": ("gaussian", "gaussian"),
                "gradient_measured": ("yes", True), "discrepancy": ("delta4", "delta4")},
    "study": {"deltas": ("0.04 0.02", [0.04, 0.02]), "mus": ("0.06,0.05", [0.06, 0.05]),
              "grids": ("20 30", [20, 30]), "seeds": ("3 4", [3, 4])},
}


def test_config_table_and_run_in_step(tmp_path):
    # every key of the table reaches the run with its own value
    text = "".join(f"[{section}]\n" + "".join(f"{key} = {t}\n" for key, (t, _) in keys.items())
                   for section, keys in NON_DEFAULT.items())
    path = tmp_path / "all.ini"
    path.write_text(text)
    cfg = load_config("example1", str(path))
    for section, keys in NON_DEFAULT.items():
        assert list(keys) == list(cli.DEFAULTS[section])
        for key, (text, value) in keys.items():
            assert text != cli.DEFAULTS[section][key][0]
            assert cfg.raw[section][key] == text
            if section != "study":
                assert getattr(cfg, key) == value, key
    study = {key: value for key, (_, value) in NON_DEFAULT["study"].items()}
    assert cfg.study == {"delta": study["deltas"], "mu": study["mus"],
                         "n": study["grids"], "seed": study["seeds"]}


class _FrontStarted(Exception):
    pass


@pytest.mark.parametrize("preset", ["example1", "example2"])
def test_table_budget_admits_the_presets(tmp_path, capsys, monkeypatch, preset):
    # n = 255 is the largest grid of either preset within the budget; the
    # run stops where its front would be built
    def prepare(*args):
        raise _FrontStarted

    monkeypatch.setattr(aer.inverse, "prepare", prepare)
    path = tmp_path / "n.ini"
    for n, admitted in ((50, True), (100, True), (255, True), (256, False)):
        path.write_text(f"[forward]\nn = {n}\n")
        argv = ["invert", "--preset", preset, "--config", str(path), "--out", str(tmp_path / "o")]
        if admitted:
            with pytest.raises(_FrontStarted):
                main(argv)
        else:
            assert main(argv) == 4
            assert "over the budget" in capsys.readouterr().err


def test_cmd_study_single_point(tmp_path):
    # study and invert share prepare and run_aer_pipeline, so a one-row
    # study carries the numbers of the invert run at the same delta and seed
    path = tmp_path / "study1.ini"
    path.write_text(TINY.replace("delta = 0.01", "delta = 0.02")
                    + "\n[study]\ndeltas = 0.02\nseeds = 3\n")
    out = str(tmp_path / "study1")
    assert main(["study", "--config", str(path), "--out", out]) == 0
    rows = open(os.path.join(out, "study.csv")).read().strip().splitlines()
    assert len(rows) == 2
    summary = json.load(open(os.path.join(out, "study_summary.json")))
    assert summary["fits"] == {}
    inv = str(tmp_path / "invert3")
    assert main(["invert", "--config", str(path), "--seed", "3", "--out", inv]) == 0
    metrics = json.load(open(os.path.join(inv, "metrics.json")))
    row = dict(zip(rows[0].split(","), rows[1].split(",")))
    for key in ("rel_err_f", "rel_err_u0"):
        assert float(row[key]) == metrics[key], key
    for key in ("m_minus", "m_plus"):
        assert int(row[key]) == metrics[key], key


@pytest.mark.parametrize("command, m, text", [
    pytest.param("asymptote", 24, "", id="asymptote"),
    pytest.param("invert", 24, "", id="invert"),
    # aer study runs on n x n grids and refuses m != n
    pytest.param("study", 23, "\n[study]\ngrids = 23\n", id="study")])
def test_odd_grid(tmp_path, command, m, text):
    # with n odd the middle of the period (study's width_x0) is a front node
    # (the front has 4 n) but not a grid node; the front is read at its nodes
    path = tmp_path / "odd.ini"
    path.write_text(TINY.replace("n = 24", "n = 23").replace("m = 24", f"m = {m}") + text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def _src_env():
    """The directory aer is imported from, and an environment whose
    PYTHONPATH puts it first."""
    src = os.path.dirname(os.path.dirname(aer.__file__))
    return src, dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.parametrize("command", ["invert", "asymptote"])
def test_benchmark_child_traces_the_cli(tiny_config, tmp_path, command):
    # bench/child.py runs the CLI with every public function of aer traced
    # and reads counters off some results (bench/run.py --trace 1 reports
    # them); a change of those functions' signatures or results shows here
    src, env = _src_env()
    child = os.path.join(os.path.dirname(src), "bench", "child.py")
    if not os.path.exists(child):
        pytest.skip("no bench/ beside the aer sources")
    record = tmp_path / "record.json"
    run = subprocess.run([sys.executable, child, "--src", src, "--record", str(record),
                          "--trace", "--", command, "--config", tiny_config,
                          "--out", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    rec = json.loads(record.read_text())
    assert rec["rc"] == 0
    info = {}
    for span in rec["spans"]:
        info.setdefault(span[2], []).append(span[6])
    tables = info["asymptotics.phi_table"]
    assert sorted(t["side"] for t in tables) == ["minus", "plus"]
    assert all(t["nodes"] > 0 for t in tables)
    if command == "invert":
        assert [s["steps"] > 0 for s in info["forward.forward_solve"]] == [True]
        regions = info["inverse.smooth_region"]
        assert sorted(r["region"] for r in regions) == ["lower", "upper"]
        assert all(r["eps"] > 0 for r in regions)


def test_runs_without_scipy(tiny_config, tmp_path):
    # a fresh interpreter, so no other test's import can hide one of aer's;
    # no command with uniform noise has a use for numpy's lazily imported
    # numpy.ma and numpy.random: aer computes the uniform Philox stream
    # itself, and study takes its medians with statistics
    study = tmp_path / "study.ini"
    study.write_text(TINY + "\n[study]\ndeltas = 0.02 0.01\nseeds = 1 2\n")
    code = textwrap.dedent(f"""
        import sys
        from aer.cli import main
        for command, config in (("asymptote", {tiny_config!r}), ("invert", {tiny_config!r}),
                                ("study", {str(study)!r})):
            out = {str(tmp_path)!r} + "/" + command
            assert main([command, "--config", config, "--out", out]) == 0
            print(command, [name for name in ("numpy.ma", "numpy.random") if name in sys.modules])
        print(sorted(name for name in sys.modules if name.startswith("scipy")))
    """)
    _, env = _src_env()
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-4:] == ["asymptote []", "invert []", "study []", "[]"]
    fits = json.loads((tmp_path / "study" / "study_summary.json").read_text())["fits"]
    assert list(fits) == ["delta"]
