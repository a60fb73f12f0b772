import numpy as np
import pytest

from aer.errors import ZeroNormError
from aer.grid import (
    Field2D,
    Grid2D,
    RegionMask,
    diff2_y_values,
    diff_x_values,
    diff_y_values,
    l2_norm,
    rel_l2_error,
)


def _field(grid, fn):
    return Field2D.from_function(grid, fn)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(0.0, 1.0, 1.0, 1, 10)
    with pytest.raises(ValueError):
        Grid2D(1.0, 0.0, 1.0, 10, 10)
    with pytest.raises(ValueError):
        Grid2D(0.0, 1.0, -1.0, 10, 10)
    g = Grid2D(-2.0, 2.0, 2.0, 50, 40)
    assert g.d1 == pytest.approx(0.08)
    assert g.d2 == pytest.approx(0.1)
    assert (g.xs[0], g.ys[0]) == (-2.0, -2.0)
    assert (g.xs[50], g.ys[40]) == (2.0, 2.0)


def test_field_validation():
    g = Grid2D(0.0, 1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Field2D(g, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        Field2D(g, np.full((5, 5), np.nan))


def test_diff_x_annihilates_constants():
    g = Grid2D(0.0, 1.0, 1.0, 32, 8)
    c = _field(g, lambda x, y: 0 * x + 3.7)
    assert np.max(np.abs(diff_x_values(c.values, g.d1))) == 0.0


def test_diff_x_fourier_mode_accuracy_and_order():
    errs = []
    ns = [64, 128, 256, 512]
    for n in ns:
        g = Grid2D(0.0, 2.0, 1.0, n, 4)
        f = _field(g, lambda x, y: np.sin(2 * np.pi * x / 2.0) + 0 * y)
        d = diff_x_values(f.values, g.d1)
        exact = np.pi * np.cos(np.pi * g.xs)[:, None]
        errs.append(np.max(np.abs(d - exact)))
    errs = np.array(errs)
    assert errs[0] < 6e-3
    slope = np.polyfit(np.log(1.0 / np.array(ns)), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_diff_x_non_periodic_seam_jump():
    # x itself is not periodic: the wrap produces a large jump at the seam
    g = Grid2D(0.0, 1.0, 1.0, 64, 4)
    f = _field(g, lambda x, y: x + 0 * y)
    d = diff_x_values(f.values, g.d1)
    assert d[1, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(d[0, 0]) > 10.0  # seam column sees the full period jump


def test_diff_y_linear_exact_everywhere():
    g = Grid2D(0.0, 1.0, 1.0, 8, 50)
    f = _field(g, lambda x, y: 2.0 * y + 0 * x)
    assert np.allclose(diff_y_values(f.values, g.d2), 2.0, atol=1e-12)


def test_diff_y_quadratic_accuracy():
    g = Grid2D(0.0, 1.0, 1.0, 8, 50)
    f = _field(g, lambda x, y: y ** 2 + 0 * x)
    d = diff_y_values(f.values, g.d2)
    exact = 2.0 * g.ys[None, :]
    assert np.max(np.abs(d - exact)) < 4.0 * g.d2 ** 2


def test_diff2_annihilates_affine_and_matches_quadratics():
    g = Grid2D(0.0, 4.0, 1.0, 32, 32)
    aff = _field(g, lambda x, y: 1.0 + 2.0 * x + 3.0 * y)
    assert np.max(np.abs(diff2_y_values(aff.values, g.d2))) < 1e-10
    quad = _field(g, lambda x, y: y ** 2 + 0 * x)
    assert np.allclose(diff2_y_values(quad.values, g.d2), 2.0, atol=1e-8)


def test_rel_l2_error_basics():
    g = Grid2D(0.0, 1.0, 1.0, 16, 16)
    e = _field(g, lambda x, y: np.cos(np.pi * x) + y)
    assert rel_l2_error(e, e) == 0.0
    scaled = Field2D(g, 1.1 * e.values)
    assert rel_l2_error(scaled, e) == pytest.approx(0.1, abs=1e-12)
    zero = Field2D(g, np.zeros_like(e.values))
    with pytest.raises(ZeroNormError):
        rel_l2_error(e, zero)


def test_rel_l2_error_scale_equivariance():
    rng = np.random.default_rng(5)
    g = Grid2D(0.0, 1.0, 1.0, 12, 12)
    e = Field2D(g, rng.standard_normal((13, 13)))
    for c in (-2.5, 0.3, 7.0):
        approx = Field2D(g, (1.0 + c) * e.values)
        assert rel_l2_error(approx, e) == pytest.approx(abs(c), abs=1e-12)


def test_l2_norm_matches_integral():
    g = Grid2D(0.0, 2.0, 1.0, 256, 256)
    f = _field(g, lambda x, y: np.sin(np.pi * x) + 0 * y)
    # integral of sin^2 over one period times height 2 -> sqrt(2)
    assert l2_norm(f) == pytest.approx(np.sqrt(2.0), abs=1e-4)


def test_region_mask_rows():
    m = RegionMask(3, 7)
    assert list(m.lower_rows()) == [0, 1, 2, 3]
    assert list(m.upper_rows(10)) == [7, 8, 9, 10]
    assert len(m.retained_rows(10)) == 8
    with pytest.raises(ValueError):
        RegionMask(5, 5)
    with pytest.raises(ValueError):
        RegionMask(-1, 3)


def test_restrict_nested_grids():
    g = Grid2D(0.0, 1.0, 1.0, 40, 40)
    coarse = Grid2D(0.0, 1.0, 1.0, 10, 10)
    f = _field(g, lambda x, y: x + y)
    r = f.restrict(coarse)
    assert np.allclose(r.values, _field(coarse, lambda x, y: x + y).values)
    with pytest.raises(ValueError):
        f.restrict(Grid2D(0.0, 1.0, 1.0, 7, 7))
