import math
import random

import numpy as np
import pytest

from modelsets import refine, scheme, verify
from modelsets.polygeom import Region, contains_many, linear_image
from tests.conftest import TAU


@pytest.fixture(scope="module")
def coarse_solution(problem_explicit):
    return refine.solve_fixed_point(refine.build_kernel(problem_explicit, 1 / 64)).density


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
    d = verify.density_estimate(points20, 20.0)
    assert d.shape == (4,) and np.all(d > 0)
    assert abs(d[1] / d[2] - 1.0) < 1e-12  # congruent windows
    assert abs(d[2] / d[0] - TAU**2) < 0.1 * TAU**2
    assert np.all(verify.density_estimate(points20, 10.0) > 0)


def test_density_estimate_counts_the_patch_enumerated_at_s(spec):
    # s is the computed modulus of a point whose rotation orbit rounds to both
    # sides of the circle; DENSITY must count the very points WEYL and ID3 use
    s = 6.854101966249685
    points = scheme.generate_all(spec, s)
    counts = verify.density_estimate(points, s) * (np.pi * s * s)
    assert np.rint(counts).tolist() == [len(p) for p in points]


def test_id2_residual_small(spec, coarse_solution, nu_explicit, points20, tsets20):
    rep = verify.check_id2(spec, coarse_solution, nu_explicit, points20,
                           tsets20, 20.0, samples=100, seed=0)
    assert rep.samples == 100
    assert rep.mean_residual <= 0.1


def id2_oracle(spec, density, nu, points, tsets, radius, samples, seed, scale_floor=0.05):
    """The per-sample loop that check_id2 batches: one preimage set per sample and i.
    Returns the mean residual and the sample count."""
    nu = np.asarray(nu, dtype=float)
    a_inv = 1.0 / spec.a_internal
    pool = [(j, u) for j, p in enumerate(points, start=1)
            for x, u in zip(p.phys, p.internal) if abs(x) <= radius / abs(spec.q_phys)]
    if len(pool) > samples:
        pool = [pool[k] for k in random.Random(seed).sample(range(len(pool)), samples)]
    floor = scale_floor * max(density.values.max(), 1e-300)
    residuals = []
    for j, u in pool:
        lhs = verify.point_weights(spec, density, np.array([u]), j)[0]
        rhs = 0.0
        for i in range(1, spec.r + 1):
            if nu[j - 1, i - 1] == 0:
                continue
            t = tsets[j - 1][i - 1]
            eta = (u - t.internal[np.abs(t.phys) <= radius]) * a_inv
            pts = np.column_stack([eta.real, eta.imag])
            vals = verify.sample_density(density, i, pts)
            vals[~contains_many(spec.shifted_window(i), pts, abs(spec.eps))] = 0.0
            rhs += nu[j - 1, i - 1] * vals.mean()
        rhs *= spec.detq_abs
        residuals.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor))
    return float(np.mean(residuals)), len(residuals)


@pytest.mark.parametrize("radius,samples,seed", [(20.0, 100, 0), (12.0, 10**4, 3)])
def test_id2_matches_per_sample_oracle(spec, coarse_solution, nu_explicit, points20,
                                       tsets20, radius, samples, seed):
    rep = verify.check_id2(spec, coarse_solution, nu_explicit, points20, tsets20, radius,
                           samples=samples, seed=seed)
    expected = id2_oracle(spec, coarse_solution, nu_explicit, points20, tsets20, radius,
                          samples, seed)
    assert (rep.mean_residual, rep.samples) == expected


def test_id2_zero_density_gives_zero_residual(spec, coarse_solution, nu_explicit,
                                              points20, tsets20):
    zero = refine.DensityGrid.from_values(
        coarse_solution.grid, np.zeros_like(coarse_solution.values))
    rep = verify.check_id2(spec, zero, nu_explicit, points20, tsets20, 20.0,
                           samples=50, seed=1)
    assert rep.mean_residual == 0.0  # a mean of non-negative residuals


def test_id2_insufficient_radius(spec, coarse_solution, nu_explicit, points20, tsets20):
    with pytest.raises(verify.InsufficientRadiusError):
        verify.check_id2(spec, coarse_solution, nu_explicit, points20,
                         tsets20, 1.0)


def test_id3_close_to_masses(spec, coarse_solution, pf_explicit, points20):
    vals = verify.id3_values(spec, coarse_solution, points20)
    assert np.abs(vals - pf_explicit.w).max() <= 0.05


def test_point_weights_vanish_off_window(spec, coarse_solution, points20):
    # component-2 points evaluated against the wrong (smaller) window come back 0
    w = verify.point_weights(spec, coarse_solution, points20[0].internal, 1)
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
