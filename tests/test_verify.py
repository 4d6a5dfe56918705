import math

import numpy as np
import pytest

from modelsets import refine, scheme, verify
from modelsets.polygeom import Region, linear_image
from tests.conftest import TAU, _solve


@pytest.fixture(scope="module")
def coarse_solution(spec, transitions, nu_explicit, pf_explicit):
    return _solve(spec, transitions, nu_explicit, pf_explicit.w, 1 / 64).density


@pytest.fixture(scope="module")
def points20(spec):
    return scheme.generate_all(spec, 20.0)


@pytest.fixture(scope="module")
def tsets20(spec, transitions):
    return scheme.translation_sets(spec, transitions, 20.0)


def test_weyl_full_window(spec, points20):
    window = spec.shifted_window(1)
    emp, exp, dev = verify.weyl_test(points20[0], window, window)
    assert emp == 1.0 and exp == 1.0 and dev == 0.0


def test_weyl_subwindow(spec, points20):
    sub = linear_image(spec.windows[0], np.eye(2) / TAU)
    emp, exp, dev = verify.weyl_test(points20[0], spec.windows[0], sub)
    assert abs(exp - TAU**-2) < 1e-12
    assert dev <= 5 / math.sqrt(len(points20[0]))


def test_weyl_measure_zero_sub(spec, points20):
    sub = Region.single((0.9, 0.0))
    emp, exp, dev = verify.weyl_test(points20[0], spec.windows[0], sub)
    assert exp == 0.0 and emp <= 1e-3


def test_weyl_rejects_empty_points(spec):
    with pytest.raises(ValueError):
        verify.weyl_test([], spec.windows[0], spec.windows[0])


def test_density_estimate_ratios(points20):
    d = verify.density_estimate(points20, [10.0, 20.0])
    assert np.all(d > 0)
    assert abs(d[1, 1] / d[2, 1] - 1.0) < 1e-12  # congruent windows
    assert abs(d[2, 1] / d[0, 1] - TAU**2) < 0.1 * TAU**2
    with pytest.raises(ValueError, match="increasing"):
        verify.density_estimate(points20, [20.0, 10.0])


def test_id2_residual_small(spec, coarse_solution, nu_explicit, points20, tsets20):
    rep = verify.check_id2(spec, coarse_solution, nu_explicit, points20,
                           tsets20, 20.0, samples=100, seed=0)
    assert rep.samples == 100
    assert rep.mean_residual <= 0.1


def test_id2_zero_density_gives_zero_residual(spec, coarse_solution, nu_explicit,
                                              points20, tsets20):
    zero = refine.DensityGrid.from_values(
        coarse_solution.grid, np.zeros_like(coarse_solution.values))
    rep = verify.check_id2(spec, zero, nu_explicit, points20, tsets20, 20.0,
                           samples=50, seed=1)
    assert rep.mean_residual == 0.0 and rep.max_residual == 0.0


def test_id2_insufficient_radius(spec, coarse_solution, nu_explicit, points20, tsets20):
    with pytest.raises(verify.InsufficientRadiusError):
        verify.check_id2(spec, coarse_solution, nu_explicit, points20,
                         tsets20, 1.0)


def test_id3_close_to_masses(spec, coarse_solution, pf_explicit, points20):
    vals = verify.id3_values(spec, coarse_solution, points20)
    assert np.abs(vals - pf_explicit.w).max() <= 0.05


def test_point_weights_vanish_off_window(spec, coarse_solution, points20):
    # component-2 points evaluated against the wrong (smaller) window come back 0
    w = verify.point_weights(spec, coarse_solution, points20[0], 1)
    assert np.all(w >= 0)
    assert w.max() > 0


def test_report_rendering():
    lines = [verify.ReportLine("ID2.mean_residual", 0.03, 0.05),
             verify.ReportLine("CLOSURE.violations", 2, 0),
             verify.ReportLine("ID2.mean_residual", "insufficient-radius", 0.05)]
    text = verify.render_report(lines)
    rows = text.strip().split("\n")
    assert rows[0] == "ID2.mean_residual 0.03 <= 0.05 PASS"
    assert rows[1] == "CLOSURE.violations 2 <= 0 FAIL"
    assert rows[2] == "ID2.mean_residual insufficient-radius <= 0.05 FAIL"
