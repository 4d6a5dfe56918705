"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
the heavyweight solves are shared through fixtures.
"""

import math
import time

import numpy as np
import pytest

from modelsets import cli, refine, scheme, verify
from modelsets.polygeom import Region, linear_image
from tests.conftest import TAU, _solve, general_path
from tests.test_scheme import EXAMPLE1_NU, TABLE_SCALES, expected_region


def criterion(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[AC{number:02d}] {name}: {verdict}  {detail}")
    assert ok, f"AC{number} {name}: {detail}"


@pytest.fixture(scope="module")
def solve2_256(spec, transitions, nu_explicit, pf_explicit):
    return _solve(spec, transitions, nu_explicit, pf_explicit.w, 1 / 256)


@pytest.fixture(scope="module")
def solve1_128_general(spec, transitions, nu_area, pf_area):
    # every channel solved on its own, so that the reflection error measures
    # the discretization instead of reading 0 from the point-reflection quotient
    with general_path():
        return _solve(spec, transitions, nu_area, pf_area.w, 1.0 / 128)


@pytest.fixture(scope="module")
def sample_wavevectors():
    rng = np.random.default_rng(0)
    ks = rng.uniform(-10, 10, size=(100, 2))
    return ks[np.hypot(ks[:, 0], ks[:, 1]) <= 10][:25]


def test_ac1_transition_window_table(spec):
    start = time.perf_counter()
    transitions = scheme.transition_windows(spec)
    elapsed = time.perf_counter() - start
    pentagon = spec.windows[0]
    worst = 0.0
    kinds_ok = True
    for j in range(4):
        for i in range(4):
            got = transitions[j][i]
            want = expected_region(TABLE_SCALES[j][i], pentagon)
            if got.kind != want.kind:
                kinds_ok = False
                continue
            if want.is_empty:
                continue
            if want.is_point:
                worst = max(worst, float(np.hypot(*(got.point - want.point))))
                continue
            for v in want.vertices:
                worst = max(worst, float(np.hypot(got.vertices[:, 0] - v[0],
                                                  got.vertices[:, 1] - v[1]).min()))
    criterion(1, "transition-window table", kinds_ok and worst < 1e-9 and elapsed < 1.0,
              f"max vertex deviation {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_ac2_markov_weight_matrix(nu_area):
    entry_err = float(np.abs(nu_area - EXAMPLE1_NU).max())
    colsum_err = float(np.abs(nu_area.sum(axis=0) - 1.0).max())
    criterion(2, "area-policy weight matrix", entry_err < 1e-9 and colsum_err < 1e-12,
              f"entry error {entry_err:.2e}, column-sum error {colsum_err:.2e}")


def test_ac3_perron_frobenius_pairs(pf_area, pf_explicit):
    lam_err = max(abs(pf_area.lambda_max - 1), abs(pf_explicit.lambda_max - 1))
    w1_err = float(np.abs(pf_area.w - np.array([0, 0.5, 0.5, 0])).max())
    w2_err = float(np.abs(pf_explicit.w - 0.25).max())
    criterion(3, "dominant eigenpairs",
              lam_err <= 1e-10 and w1_err <= 1e-10 and w2_err <= 1e-10,
              f"lambda error {lam_err:.2e}, w errors {w1_err:.2e} / {w2_err:.2e}")


def test_ac4_example1_support_collapse(solve1_128_general):
    dens = solve1_128_general.density
    h = dens.grid.h
    dead_mass = float(dens.masses[0] + dens.masses[3])
    flip_err = float(np.abs(dens.values[1] - dens.values[2][::-1, ::-1]).max())
    criterion(4, "example-1 support collapse",
              dead_mass <= 1e-8 and flip_err <= 3 * h,
              f"channels 1+4 mass {dead_mass:.2e}, reflection error {flip_err:.2e}"
              f" (3h = {3 * h:.2e})")


def test_ac5_masses_and_transport(solve1_128, solve2_128, pf_area, pf_explicit,
                                  nu_area, nu_explicit):
    h = solve1_128.density.grid.h
    mass_err = max(float(np.abs(solve1_128.density.masses - pf_area.w).max()),
                   float(np.abs(solve2_128.density.masses - pf_explicit.w).max()))
    transport = 0.0
    for result, nu in ((solve1_128, nu_area), (solve2_128, nu_explicit)):
        hist = result.mass_history
        for k in range(len(hist) - 1):
            transport = max(transport, float(np.abs(hist[k + 1] - nu @ hist[k]).max()))
    criterion(5, "masses and transport",
              mass_err <= 1e-3 and transport <= 10 * h,
              f"mass error {mass_err:.2e}, transport error {transport:.2e}"
              f" (10h = {10 * h:.2e})")


def test_ac6_solver_cross_validation(spec, transitions, nu_explicit, pf_explicit,
                                     solve2_128, solve2_256, sample_wavevectors):
    dev_128 = refine.compare_solvers(solve2_128.density, transitions, nu_explicit,
                                     pf_explicit.w, spec.a_matrix(),
                                     sample_wavevectors)
    dev_256 = refine.compare_solvers(solve2_256.density, transitions, nu_explicit,
                                     pf_explicit.w, spec.a_matrix(),
                                     sample_wavevectors)
    criterion(6, "solver cross-validation",
              dev_128 <= 5e-2 and dev_256 <= 2.5e-2,
              f"relative deviation {dev_128:.2e} at h=1/128, {dev_256:.2e} at h=1/256")


def test_ac7_pointwise_invariance(spec, solve2_128, nu_explicit, points40, tsets40,
                                  transitions):
    rep40 = verify.check_id2(spec, solve2_128.density, nu_explicit, points40,
                             tsets40, 40.0, samples=100, seed=0)
    points20 = scheme.generate_all(spec, 20.0)
    tsets20 = scheme.translation_sets(spec, transitions, 20.0)
    rep20 = verify.check_id2(spec, solve2_128.density, nu_explicit, points20,
                             tsets20, 20.0, samples=100, seed=0)
    criterion(7, "pointwise averaged equations",
              rep40.mean_residual <= 0.05 and rep40.mean_residual < rep20.mean_residual,
              f"mean residual {rep40.mean_residual:.4f} at s=40 "
              f"(<= 0.05), {rep20.mean_residual:.4f} at s=20")


def test_ac8_equidistribution_and_density(spec, points40):
    sub = linear_image(spec.windows[0], np.eye(2) / TAU)
    _, _, dev = verify.weyl_test(points40[0], spec.windows[0], sub)
    weyl_bound = 5 / math.sqrt(len(points40[0]))
    dens = verify.density_estimate(points40, [40.0])
    r31 = dens[2, 0] / dens[0, 0]
    r23 = dens[1, 0] / dens[2, 0]
    ok = (dev <= weyl_bound and abs(r31 / TAU**2 - 1) <= 0.05
          and abs(r23 - 1) <= 0.05)
    criterion(8, "equidistribution and densities", ok,
              f"weyl deviation {dev:.4f} (bound {weyl_bound:.4f}), "
              f"d3/d1 = {r31:.4f} (target {TAU**2:.4f}), d2/d3 = {r23:.4f}")


def test_ac9_selfsim_closure(spec, points40, tsets40):
    tsets5 = [[t.within(5.0) for t in row] for row in tsets40]
    report = scheme.check_selfsim_closure(spec, points40, tsets5, 5.0)
    criterion(9, "self-similarity closure",
              report.checked > 0 and len(report.violations) == 0,
              f"{report.checked} maps checked, {len(report.violations)} violations, "
              f"{report.boundary_hits} boundary hits")


def test_ac10_square_toy_oracle():
    window = Region.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    A = 0.5 * np.eye(2)
    transitions = [[linear_image(window, A)]]
    kernel = refine.build_kernel([window], transitions, np.array([[1.0]]), A,
                                 4.0, [1.0], 1 / 256)
    result = refine.solve_fixed_point(kernel)

    def sinc_oracle(k, levels=60):
        val = 1.0
        for level in range(levels):
            val *= (np.sinc(k[0] / 2**level * 0.5 / np.pi)
                    * np.sinc(k[1] / 2**level * 0.5 / np.pi))
        return complex(val)

    rng = np.random.default_rng(7)
    ks = rng.uniform(-6, 6, size=(15, 2))
    via_grid = refine.grid_ft(result.density, ks)
    worst_product = 0.0
    worst_grid = 0.0
    for n, k in enumerate(ks):
        oracle = sinc_oracle(k)
        product = refine.fourier_product(transitions, np.array([[1.0]]),
                                         np.array([1.0]), A, k)[0]
        worst_product = max(worst_product, abs(product - oracle))
        worst_grid = max(worst_grid, abs(via_grid[0, n] - oracle))
    converged = result.residuals[-1] < 1e-8
    criterion(10, "square toy oracle",
              converged and worst_product <= 1e-3 and worst_grid <= 1e-3,
              f"product vs oracle {worst_product:.2e}, grid vs oracle "
              f"{worst_grid:.2e}, {result.iterations} iterations")


def test_cli_verify_defaults_all_pass(tmp_path):
    # the bundled example-2 preset at its default radius and grid must verify clean
    out = tmp_path / "verify"
    code = cli.main(["verify", "--preset", "penrose-example2", "--out", str(out)])
    report = (out / "report.txt").read_text()
    print(report)
    assert code == 0
    assert "FAIL" not in report
    assert "ID2.mean_residual" in report and "CLOSURE.violations" in report
