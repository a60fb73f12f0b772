"""Output checks on synthetic invert outputs."""

import json

import numpy as np

from aer import Field2D, Grid2D
from aer.cli import write_field_csv
from check import REFERENCE_SEED, REFERENCES, check_invert

DELTA = 0.01


def _invert_outputs(out, **override):
    grid = Grid2D(-2.0, 2.0, 2.0, 50, 50)
    write_field_csv(str(out / "u_delta.csv"), Field2D(grid, np.full((51, 51), 2.0)))
    write_field_csv(str(out / "f_delta.csv"), Field2D(grid, np.zeros((51, 51))))
    target = 4.0 * DELTA ** 2 / 3.0
    metrics = {"delta": DELTA, "m_minus": 31, "m_plus": 38,
               "misfit_minus": target, "misfit_plus": 1.02 * target,
               **REFERENCES["invert-ex1"], **override}
    (out / "metrics.json").write_text(json.dumps(metrics))
    return metrics


def test_reference_outputs_pass(tmp_path):
    _invert_outputs(tmp_path)
    values, problems = check_invert(str(tmp_path), REFERENCE_SEED)
    assert problems == []
    assert values == REFERENCES["invert-ex1"]


def test_rel_err_f_off_by_1e5_is_rejected(tmp_path):
    _invert_outputs(tmp_path, rel_err_f=REFERENCES["invert-ex1"]["rel_err_f"] + 1e-5)
    _, problems = check_invert(str(tmp_path), REFERENCE_SEED)
    assert len(problems) == 1 and problems[0].startswith("rel_err_f")
    # other seeds are not compared with the references
    assert check_invert(str(tmp_path), REFERENCE_SEED + 1)[1] == []


def test_misfit_outside_window_and_nan_are_rejected(tmp_path):
    target = 4.0 * DELTA ** 2 / 3.0
    _invert_outputs(tmp_path, misfit_plus=1.2 * target, rel_err_u0=float("nan"))
    _, problems = check_invert(str(tmp_path), REFERENCE_SEED + 1)
    assert any(p.startswith("misfit ratio upper") for p in problems)
    assert any("non-finite" in p for p in problems)
