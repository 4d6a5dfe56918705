import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import map_coordinates

from modelsets import pfsolve, refine, scheme
from modelsets.polygeom import Region, linear_image, rasterize
from modelsets.refine import (DensityGrid, apply_refinement, build_kernel,
                              compare_solvers, fourier_product,
                              initial_density, make_centered_grid, polygon_ft,
                              solve_fixed_point)
from tests.conftest import EXAMPLE2_NU, TAU, general_path, preset_kernel


def square_region(a=1.0):
    return Region.polygon([(-a, -a), (a, -a), (a, a), (-a, a)])


def toy_kernel(h):
    window = square_region()
    A = 0.5 * np.eye(2)
    trans = [[linear_image(window, 0.5 * np.eye(2))]]
    # erosion of the square by its half-scale copy is the half-scale square
    return build_kernel([window], trans, np.array([[1.0]]), A, 4.0, [1.0], h), trans


def test_make_centered_grid():
    g = make_centered_grid(1.7, 1 / 128)
    assert g.nx % 2 == 1 and g.ny % 2 == 1
    assert g.nx == 437
    # a cell center sits exactly at the origin
    assert abs(g.x_centers()[(g.nx - 1) // 2]) < 1e-15
    assert g.box()[0] <= -1.7 and g.box()[2] >= 1.7


@pytest.mark.parametrize("h, cells", [(1 / 8, 29), (1 / 16, 55), (1 / 32, 109), (1 / 60, 205),
                                      (1 / 64, 219), (1 / 128, 437), (1 / 256, 871)])
def test_kernel_grid_at_gamma_zero_is_the_windows_centered_grid(spec, transitions, nu_area,
                                                                nu_explicit, h, cells):
    # at gamma = 0 the transition windows and supports lie within the windows'
    # extent, so both presets keep the grid fitted to the windows alone
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    extent = max(np.abs(w.vertices).max() for w in windows)
    want = make_centered_grid(extent + refine._GRID_PAD, h)
    assert want.nx == cells
    for nu in (nu_area, nu_explicit):
        assert refine._kernel_grid(windows, transitions, nu, spec.a_matrix(), h) == want


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gx=st.floats(-5, 5), gy=st.floats(-5, 5))
def test_kernel_grid_covers_windows_transitions_and_supports(gx, gy):
    shifted = scheme.penrose_scheme(gamma=complex(gx, gy))
    windows = [shifted.shifted_window(i) for i in range(1, 5)]
    trans = scheme.transition_windows(shifted)
    for nu in (scheme.build_nu(shifted, trans),
               scheme.build_nu(shifted, trans, policy="explicit", matrix=EXAMPLE2_NU)):
        kernel = build_kernel(windows, trans, nu, shifted.a_matrix(), shifted.detq_abs,
                              pfsolve.pf_eigen(nu).w, 1 / 16)
        grid = kernel.grid
        assert all(grid.covers(w) for w in windows)
        x0, y0, x1, y1 = grid.box()
        for j, i in zip(*np.nonzero(nu)):
            t = trans[j][i].vertices
            image = linear_image(windows[i], shifted.a_matrix()).vertices
            lo = t.min(axis=0) + image.min(axis=0)
            hi = t.max(axis=0) + image.max(axis=0)
            assert grid.covers(trans[j][i])
            assert x0 <= lo[0] and y0 <= lo[1] and hi[0] <= x1 and hi[1] <= y1


def test_kernel_normalization_and_masks(spec, transitions, nu_area, pf_area, nu_explicit,
                                       pf_explicit):
    # every channel on the general path of example 2; in the quotient of
    # example 1 only channel 2 (1-based) is carried and only 2 and 3 are live
    with general_path():
        general = preset_kernel(spec, transitions, nu_explicit, pf_explicit.w, 1 / 64)
    quotient = preset_kernel(spec, transitions, nu_area, pf_area.w, 1 / 64)
    for K, nu, carried, live in ((general, nu_explicit, [0, 1, 2, 3], [0, 1, 2, 3]),
                                 (quotient, nu_area, [1], [1, 2])):
        h2 = K.grid.h**2
        assert [j for j, _ in K.channels] == carried
        for j in range(4):
            if j in carried:
                assert abs(K.indicators[j].sum() * h2 - 1.0) < 1e-12
            else:
                assert K.indicators[j] is None
            for i in range(4):
                if j in carried and i in live and nu[j, i] > 0:
                    assert abs(K.blocks[j][i].arr.sum() * h2 - 1.0) < 1e-12
                else:
                    assert K.blocks[j][i] is None
    assert np.array_equal(quotient.masks[2], quotient.masks[1][::-1, ::-1])
    assert not quotient.masks[0].any() and not quotient.masks[3].any()


def test_kernel_validation(spec, transitions, nu_area, pf_area):
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    with pytest.raises(ValueError, match="determinant"):
        build_kernel(windows, transitions, nu_area, spec.a_matrix(), 2.0, pf_area.w, 1 / 32)


def test_ghost_transition_into_a_dead_channel_raises(spec, transitions, nu_area, pf_area):
    # channel 1 (1-based) has w_1 = 0 and is never rasterized, yet a positive
    # weight on an empty (1,1) window is still an error
    ghost = [row[:] for row in transitions]
    ghost[0][0] = Region.empty()
    assert pf_area.w[0] == 0 and nu_area[0, 0] > 0
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    with pytest.raises(ValueError, match=r"ghost transition \(1,1\)"):
        build_kernel(windows, ghost, nu_area, spec.a_matrix(), spec.detq_abs, pf_area.w,
                     1 / 32)


@pytest.mark.parametrize("policy, h, cells", [
    ("area", 5.0, 1),  # a 1 x 1 grid
    ("area", 1.0, 14),
    ("explicit", 0.25, 54),
])
def test_unresolved_grid_rejected(request, spec, transitions, policy, h, cells):
    nu = request.getfixturevalue(f"nu_{policy}")
    w = request.getfixturevalue(f"pf_{policy}").w
    with pytest.raises(ValueError, match=f"unresolved grid: window . meets {cells} cells, "
                                         f"fewer than {refine._MIN_MASK_CELLS}"):
        preset_kernel(spec, transitions, nu, w, h)


def test_resolution_rule_counts_only_carried_windows(spec, transitions, nu_area, pf_area):
    # at h = 1/4 window 1 (1-based) meets 54 cells, but example 1 carries only
    # window 2, which meets 120
    kernel = preset_kernel(spec, transitions, nu_area, pf_area.w, 0.25)
    assert [j for j, _ in kernel.channels] == [1] and kernel.masks[1].sum() == 120


def test_convolution_against_direct_sum():
    # with A = I and |det Q| = 1 the unscaled step is one kernel convolution
    window = square_region(0.48)
    trans = Region.polygon([(-0.25, -0.1), (0.2, -0.25), (0.05, 0.25)])
    K = build_kernel([window], [[trans]], np.array([[1.0]]), np.eye(2), 1.0, [1.0], 0.1)
    grid = K.grid
    assert grid.nx == grid.ny == 17  # the support reaches 0.73 from the origin
    rng = np.random.default_rng(31)
    g = np.where(K.masks[0], rng.uniform(size=(grid.ny, grid.nx)), 0.0)
    got = apply_refinement(DensityGrid.from_values(grid, g[None]), K,
                           conserve_mass=False).values[0]
    block = K.blocks[0][0]
    my, mx = (grid.ny - 1) // 2, (grid.nx - 1) // 2
    want = np.zeros_like(g)
    for ny in range(grid.ny):
        for nx in range(grid.nx):
            total = 0.0
            for by in range(block.arr.shape[0]):
                for bx in range(block.arr.shape[1]):
                    gy = ny - (block.iy0 + by) + my
                    gx = nx - (block.ix0 + bx) + mx
                    if 0 <= gy < grid.ny and 0 <= gx < grid.nx:
                        total += block.arr[by, bx] * g[gy, gx]
            want[ny, nx] = total * grid.h**2
    want[~K.masks[0]] = 0.0
    assert K.masks[0].sum() == 11 * 11 and block.arr.shape == (5, 5)
    assert np.abs(got - want).max() < 1e-12


def test_single_application_tent_profile():
    K, _ = toy_kernel(1 / 64)
    f0 = initial_density(K)
    f1 = apply_refinement(f0, K)
    g = K.grid
    X, Y = np.meshgrid(g.x_centers(), g.y_centers())
    tent = np.maximum(0, 1 - np.abs(X)) * np.maximum(0, 1 - np.abs(Y))
    assert np.abs(f1.values[0] - tent).max() < 3 * g.h


def test_zero_in_zero_out():
    K, _ = toy_kernel(1 / 32)
    zero = DensityGrid.from_values(K.grid, np.zeros((1, K.grid.ny, K.grid.nx)))
    out = apply_refinement(zero, K)
    assert np.all(out.values == 0) and out.masses[0] == 0


def test_linearity_and_positivity(spec, transitions, nu_explicit, pf_explicit):
    # example 2 on the general path, where the step forms all four channels
    with general_path():
        K = preset_kernel(spec, transitions, nu_explicit, pf_explicit.w, 1 / 24)
    grid = K.grid
    rng = np.random.default_rng(5)
    shape = (4, grid.ny, grid.nx)
    f = DensityGrid.from_values(grid, rng.uniform(size=shape))
    g = DensityGrid.from_values(grid, rng.uniform(size=shape))
    combo = DensityGrid.from_values(grid, 0.6 * f.values + 1.7 * g.values)
    lhs = apply_refinement(combo, K, conserve_mass=False)
    rf = apply_refinement(f, K, conserve_mass=False)
    rg = apply_refinement(g, K, conserve_mass=False)
    assert np.abs(lhs.values - 0.6 * rf.values - 1.7 * rg.values).max() < 1e-10
    assert np.all(rf.values >= 0)


def test_mass_transport_raw_quadrature(spec, transitions, nu_area, pf_area):
    # without the conservation fix-up the transport identity holds to O(h)
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    h = 1 / 64
    K = build_kernel(windows, transitions, nu_area, spec.a_matrix(),
                     spec.detq_abs, pf_area.w, h)
    f = initial_density(K)
    for _ in range(3):
        f_next = apply_refinement(f, K, conserve_mass=False)
        assert np.abs(f_next.masses - nu_area @ f.masses).max() < 10 * h
        f = f_next


def test_solver_requires_fixed_mass_vector(spec, transitions, nu_area):
    # the kernel is built for the solve of one w, so it checks that w
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    with pytest.raises(ValueError, match="does not fix w"):
        build_kernel(windows, transitions, nu_area, spec.a_matrix(),
                     spec.detq_abs, np.array([0.25, 0.25, 0.25, 0.25]), 1 / 32)


def test_solver_reports_iteration_exhaustion(spec, transitions, nu_area, pf_area):
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    K = build_kernel(windows, transitions, nu_area, spec.a_matrix(),
                     spec.detq_abs, pf_area.w, 1 / 32)
    with pytest.raises(RuntimeError, match="did not reach tol"):
        solve_fixed_point(K, maxit=3)


def test_toy_solve_and_grid_consistency():
    results = {}
    for h in (1 / 32, 1 / 64, 1 / 128):
        K, _ = toy_kernel(h)
        res = solve_fixed_point(K)
        assert abs(res.density.masses[0] - 1.0) < 1e-12
        r = res.residuals
        assert all(r[k + 1] < r[k] for k in range(5, len(r) - 1))
        results[h] = res.density

    def l1_distance(coarse, fine):
        g = fine.grid
        X, Y = np.meshgrid(g.x_centers(), g.y_centers())
        rows = (Y - coarse.grid.origin[1]) / coarse.grid.h - 0.5
        cols = (X - coarse.grid.origin[0]) / coarse.grid.h - 0.5
        interp = map_coordinates(coarse.values[0], [rows, cols], order=1,
                                 mode="constant", cval=0.0, prefilter=False)
        return np.abs(interp - fine.values[0]).sum() * g.h**2

    d1 = l1_distance(results[1 / 32], results[1 / 64])
    d2 = l1_distance(results[1 / 64], results[1 / 128])
    assert d1 / d2 > 1.8


def test_polygon_ft_basics():
    sq = Region.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert abs(polygon_ft(sq, (0, 0)) - 1.0) < 1e-12
    val = polygon_ft(sq, (math.pi, 0))
    assert abs(abs(val) - 2 / math.pi) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = rng.uniform(-8, 8, size=2)
        assert abs(polygon_ft(sq, -k) - np.conj(polygon_ft(sq, k))) < 1e-12
    with pytest.raises(ValueError):
        polygon_ft(Region.single((0, 0)), (1.0, 0.0))


def test_polygon_ft_sinc_oracle():
    # axis-aligned rectangle: the transform factorizes into 1-D sincs
    a, b = 0.8, 0.45
    center = np.array([0.3, -0.2])
    rect = Region.polygon(center + np.array([(-a, -b), (a, -b), (a, b), (-a, b)]))
    rng = np.random.default_rng(41)
    for _ in range(30):
        k = rng.uniform(-9, 9, size=2)
        oracle = (np.sinc(k[0] * a / np.pi) * np.sinc(k[1] * b / np.pi)
                  * np.exp(-1j * (k @ center)))
        assert abs(polygon_ft(rect, k) - oracle) < 1e-10


def test_fourier_product_fixes_w(spec, transitions, nu_area, pf_area):
    out = fourier_product(transitions, nu_area, pf_area.w, spec.a_matrix(), (0, 0))
    assert np.abs(out - pf_area.w).max() < 1e-12
    assert np.abs(out - np.array([0, 0.5, 0.5, 0])).max() < 1e-10


def test_fourier_product_l1_bound(spec, transitions, nu_area, pf_area):
    rng = np.random.default_rng(19)
    for _ in range(20):
        k = rng.uniform(-15, 15, size=2)
        out = fourier_product(transitions, nu_area, pf_area.w, spec.a_matrix(), k)
        assert np.abs(out).sum() <= 1.0 + 1e-9


def test_penrose_example1_coarse(spec, transitions, nu_area, pf_area):
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    h = 1 / 32
    K = build_kernel(windows, transitions, nu_area, spec.a_matrix(),
                     spec.detq_abs, pf_area.w, h)
    grid = K.grid
    res = solve_fixed_point(K)
    dens = res.density
    assert dens.masses[0] <= 1e-9 and dens.masses[3] <= 1e-9
    assert np.abs(dens.values[1] - dens.values[2][::-1, ::-1]).max() < 3 * h
    # five-fold rotation symmetry of each non-trivial channel
    theta = 2 * math.pi / 5
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    X, Y = np.meshgrid(grid.x_centers(), grid.y_centers())
    px = rot[0, 0] * X + rot[0, 1] * Y
    py = rot[1, 0] * X + rot[1, 1] * Y
    rows = (py - grid.origin[1]) / grid.h - 0.5
    cols = (px - grid.origin[0]) / grid.h - 0.5
    for ch in (1, 2):
        rotated = map_coordinates(dens.values[ch], [rows, cols], order=1,
                                  mode="constant", cval=0.0, prefilter=False)
        assert np.abs(rotated - dens.values[ch]).max() < 3 * h


def test_density_masses_consistent(solve2_128):
    dens = solve2_128.density
    h2 = dens.grid.h**2
    recomputed = dens.values.sum(axis=(1, 2)) * h2
    assert np.abs(recomputed - dens.masses).max() < 1e-12 * max(1, dens.masses.max())
    assert np.all(dens.values >= 0)


def test_support_stays_on_window_masks(spec, solve2_128):
    dens = solve2_128.density
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    for j in range(4):
        cov = rasterize(windows[j], dens.grid)
        outside = cov == 0
        assert np.abs(dens.values[j][outside]).max() <= 1e-12


def test_compare_solvers_toy():
    K, trans = toy_kernel(1 / 128)
    res = solve_fixed_point(K)
    rng = np.random.default_rng(2)
    ks = rng.uniform(-5, 5, size=(10, 2))
    dev = compare_solvers(res.density, trans, np.array([[1.0]]),
                          np.array([1.0]), 0.5 * np.eye(2), ks)
    assert dev < 1e-3
    # at k = 0 the comparison collapses to the mass residual
    dev0 = compare_solvers(res.density, trans, np.array([[1.0]]),
                           np.array([1.0]), 0.5 * np.eye(2), [(0.0, 0.0)])
    assert abs(dev0 - abs(res.density.masses[0] - 1.0)) < 1e-12
    with pytest.raises(ValueError, match="no wavevectors"):
        compare_solvers(res.density, trans, np.array([[1.0]]), np.array([1.0]),
                        0.5 * np.eye(2), np.zeros((0, 2)))


def test_write_density_grid_format(tmp_path):
    grid = make_centered_grid(0.3, 0.1)
    dens = DensityGrid.from_values(grid, np.ones((1, grid.ny, grid.nx)))
    path = tmp_path / "ch1.txt"
    with open(path, "w") as fh:
        refine.write_density_grid(dens, 0, fh)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("# origin ")
    assert lines[1] == "# h 0.1"
    assert lines[2] == f"# nx {grid.nx} ny {grid.ny}"
    assert len(lines) == 3 + grid.ny
    assert len(lines[3].split()) == grid.nx
