import dataclasses
import hashlib
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import map_coordinates

from modelsets import refine, scheme
from modelsets.cyclotomic import CycInt
from modelsets.polygeom import Region, linear_image
from modelsets.refine import (DensityGrid, Problem, RefinementKernel, build_kernel,
                              compare_solvers, fourier_product, initial_density,
                              make_centered_grid, polygon_ft, solve_fixed_point)
from tests.conftest import EXAMPLE2_NU, coverage, general_path, pack, scheme_problem, step


def square_region(a=1.0):
    return Region.polygon([(-a, -a), (a, -a), (a, a), (-a, a)])


def toy_kernel(h):
    window = square_region()
    A = 0.5 * np.eye(2)
    trans = [[linear_image(window, 0.5 * np.eye(2))]]
    # erosion of the square by its half-scale copy is the half-scale square
    return build_kernel(Problem([window], trans, [[1.0]], [1.0], A, 4.0), h)


def test_make_centered_grid():
    g = make_centered_grid(1.7, 1 / 128)
    assert g.nx % 2 == 1 and g.ny % 2 == 1
    assert g.nx == 437
    # a cell center sits exactly at the origin
    assert abs(g.x_centers()[(g.nx - 1) // 2]) < 1e-15
    assert g.origin[0] <= -1.7 and g.origin[0] + g.nx * g.h >= 1.7


@pytest.mark.parametrize("h, cells", [(1 / 8, 29), (1 / 16, 55), (1 / 32, 109), (1 / 60, 205),
                                      (1 / 64, 219), (1 / 128, 437), (1 / 256, 871)])
def test_kernel_grid_at_gamma_zero_is_the_windows_centered_grid(spec, h, cells):
    # at gamma = 0 the windows' bounding box is symmetric about the origin, so
    # the grid is the centred grid fitted to the windows, bit for bit
    windows = [spec.shifted_window(i) for i in range(1, 5)]
    extent = max(np.abs(w.vertices).max() for w in windows)
    want = make_centered_grid(extent + refine._GRID_PAD, h)
    assert want.nx == cells
    assert refine._kernel_grid(windows, h) == want


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gx=st.floats(-1000, 1000), gy=st.floats(-1000, 1000))
def test_kernel_grid_frames_the_windows_at_any_gamma(spec, gx, gy):
    # the transition windows lie near 1.618 gamma, off the grid; the grid only
    # frames the windows, centred on the lattice point nearest their middle
    h = 1 / 16
    zero = refine._kernel_grid([spec.shifted_window(i) for i in range(1, 5)], h)
    shifted = scheme.penrose_scheme(gamma=complex(gx, gy))
    windows = [shifted.shifted_window(i) for i in range(1, 5)]
    trans = scheme.transition_windows(shifted)
    for nu in (scheme.build_nu(shifted, trans),
               scheme.build_nu(shifted, trans, matrix=EXAMPLE2_NU)):
        grid = build_kernel(scheme_problem(shifted, trans, nu), h).grid
        assert grid == refine._kernel_grid(windows, h)
        assert grid.nx == grid.ny and 0 <= grid.nx - zero.nx <= 2
        corners = np.vstack([w.vertices for w in windows])
        first = np.array(grid.origin)
        margin = refine._GRID_PAD - 1e-9  # cell edges round at |gamma| ~ 1000
        assert np.all(first + margin <= corners.min(axis=0))
        assert np.all(corners.max(axis=0) <= first + grid.nx * h - margin)


def test_kernel_normalization_and_masks(problem_area, problem_explicit):
    # every channel on the general path of example 2; in the quotient of
    # example 1 only channel 2 (1-based) is carried and only 2 and 3 are live
    with general_path():
        general = build_kernel(problem_explicit, 1 / 64)
    quotient = build_kernel(problem_area, 1 / 64)
    for K, carried, live in ((general, [0, 1, 2, 3], [0, 1, 2, 3]), (quotient, [1], [1, 2])):
        nu = K.problem.nu
        h2 = K.grid.h**2
        assert [j for j, _ in K.channels] == carried
        for j in range(4):
            if j in carried:  # the cells before the centre row count twice
                held, below = K.indicators[j], K.below[j].stop - K.below[j].start
                assert abs((held.sum() + held[:below].sum()) * h2 - 1.0) < 1e-12
            else:
                assert K.indicators[j] is None
            for i in range(4):
                if j in carried and i in live and nu[j, i] > 0:
                    assert abs(K.blocks[j][i].arr.sum() * h2 - 1.0) < 1e-12
                else:
                    assert K.blocks[j][i] is None
    assert np.array_equal(quotient.masks[2], quotient.masks[1][::-1, ::-1])
    assert not quotient.masks[0].any() and not quotient.masks[3].any()


# sha256 of initial_density(build_kernel(problem, 1/128).coarse), as built
# when every level kept its indicators, recorded on numpy 2.4.6
COARSE_START_SHA256 = {
    "area": "fed45ddccb0a1ccbbc1805dba42a37235a60f1058dc2a05ea8ce0c76294b246c",
    "explicit": "01fab6fab9f5abd00cc255305425a951d1804aff403edd543c223be833ec1687",
}


@pytest.mark.pinned
@pytest.mark.parametrize("policy", ["area", "explicit"])
def test_warm_started_level_keeps_no_indicators(request, policy):
    # the h = 1/128 level starts from its coarse level's density, so only the
    # coarse level, which starts from its indicators, keeps them
    kernel = build_kernel(request.getfixturevalue(f"problem_{policy}"), 1 / 128)
    assert kernel.coarse is not None and kernel.coarse.coarse is None
    assert kernel.indicators == [None] * 4
    x = refine.initial_density(kernel.coarse)
    assert hashlib.sha256(x.tobytes()).hexdigest() == COARSE_START_SHA256[policy]


def test_kernel_validation(spec, problem_area):
    with pytest.raises(ValueError, match=r"determinant mismatch: \|det A\| \* \|det Q\| = "
                                         "0.763932, not 1; q must be a unit"):
        dataclasses.replace(problem_area, detq_abs=2.0)
    # q = -3 - 3 xi - xi^2 + xi^3 has norm 11: its transition windows, area
    # weights and Perron pair pass, and only the determinant check rejects it
    non_unit = scheme.SchemeSpec(windows=spec.windows, coset_reps=spec.coset_reps,
                                 q_mult=CycInt(-3, -3, -1, 1))
    trans = scheme.transition_windows(non_unit)
    with pytest.raises(ValueError, match=r"\|det A\| \* \|det Q\| = 11, not 1"):
        scheme_problem(non_unit, trans, scheme.build_nu(non_unit, trans))


def test_ghost_transition_into_a_dead_channel_raises(problem_area):
    # channel 1 (1-based) has w_1 = 0 and is never rasterized, yet a positive
    # weight on an empty (1,1) window is still an error
    ghost = [row[:] for row in problem_area.windows_ji]
    ghost[0][0] = Region.empty()
    assert problem_area.w[0] == 0 and problem_area.nu[0, 0] > 0
    with pytest.raises(ValueError, match=r"ghost transition \(1,1\)"):
        dataclasses.replace(problem_area, windows_ji=ghost)


def test_one_problem_serves_every_level(problem_explicit):
    # the checks run once, when the problem is made, not once per grid level
    calls, post_init = [], Problem.__post_init__

    def counted(problem):
        calls.append(problem)
        post_init(problem)

    with mock.patch.object(Problem, "__post_init__", counted):
        problem = dataclasses.replace(problem_explicit)
        kernel = build_kernel(problem, 1 / 128)
        # read before the solve, which releases the coarse level
        assert kernel.coarse is not None and kernel.coarse.problem is kernel.problem is problem
        solve_fixed_point(kernel)
    assert calls == [problem]


@pytest.mark.parametrize("policy, h, cells", [
    ("area", 5.0, 1),  # a 1 x 1 grid
    ("area", 1.0, 14),
    ("explicit", 0.25, 54),
])
def test_unresolved_grid_rejected(request, policy, h, cells):
    with pytest.raises(ValueError, match=f"unresolved grid: window . meets {cells} cells, "
                                         f"fewer than {refine._MIN_MASK_CELLS}"):
        build_kernel(request.getfixturevalue(f"problem_{policy}"), h)


@pytest.mark.parametrize("gamma", [0, 0.3, complex(0.031, -0.047), complex(1000, 0)])
def test_grid_limit_admits_every_h_in_use(gamma):
    # the finest h the tests, pins, CI and the benchmark solve at is 1/256, and
    # the scaling runs of the solve reach 1/512; the next halving is refused
    windows = scheme.penrose_scheme(gamma=gamma).windows
    for h in (1 / 32, 1 / 128, 1 / 256, 1 / 512):
        grid = refine._kernel_grid(windows, h)
        assert grid.nx * grid.ny <= refine.MAX_GRID_CELLS
    grid = refine._kernel_grid(windows, 1 / 1024)
    assert grid.nx * grid.ny > refine.MAX_GRID_CELLS


def test_grid_limit_refuses_before_allocating(problem_area):
    # h = 1e-4 frames the windows in 34001 x 34001 cells, whose masks alone
    # would take 4.31 GiB; the refusal allocates next to nothing
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            build_kernel(problem_area, 1e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == ("a grid of 34001 x 34001 cells at h = 0.0001 exceeds the "
                                  f"limit of {refine.MAX_GRID_CELLS} cells")
    assert peak < 2**20


def test_resolution_rule_counts_only_carried_windows(problem_area):
    # at h = 1/4 window 1 (1-based) meets 54 cells, but example 1 carries only
    # window 2, which meets 120
    kernel = build_kernel(problem_area, 0.25)
    assert [j for j, _ in kernel.channels] == [1] and kernel.masks[1].sum() == 120


def test_convolution_against_direct_sum():
    # with A = I and |det Q| = 1 the raw operator is one kernel convolution
    window = square_region(0.48)
    trans = Region.polygon([(-0.25, -0.1), (0.2, -0.25), (0.05, 0.25)])
    K = build_kernel(Problem([window], [[trans]], [[1.0]], [1.0], np.eye(2), 1.0), 0.1)
    grid = K.grid
    assert grid.nx == grid.ny == 13  # the window reaches 0.48 from the origin
    rng = np.random.default_rng(31)
    g = np.where(K.masks[0], rng.uniform(size=(grid.ny, grid.nx)), 0.0)
    got = refine.apply_refinement(pack(K, g[None]), K, refine._step_buffers(K))
    got = K.unpack(got).values[0]
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
    K = toy_kernel(1 / 64)
    f1 = step(K.unpack(initial_density(K)), K)
    g = K.grid
    X, Y = np.meshgrid(g.x_centers(), g.y_centers())
    tent = np.maximum(0, 1 - np.abs(X)) * np.maximum(0, 1 - np.abs(Y))
    assert np.abs(f1.values[0] - tent).max() < 3 * g.h


def test_zero_in_zero_out():
    K = toy_kernel(1 / 32)
    zero = DensityGrid.from_values(K.grid, np.zeros((1, K.grid.ny, K.grid.nx)))
    out = step(zero, K)
    assert np.all(out.values == 0) and out.masses[0] == 0


def test_linearity_and_positivity(problem_explicit):
    # example 2 on the general path, where the step forms all four channels:
    # the raw operator is linear on signed input and clamps nothing, and the
    # step the solve takes, projected, is non-negative
    with general_path():
        K = build_kernel(problem_explicit, 1 / 24)
    grid = K.grid
    rng = np.random.default_rng(5)
    shape = (4, grid.ny, grid.nx)
    f = DensityGrid.from_values(grid, rng.uniform(size=shape))
    g = DensityGrid.from_values(grid, rng.uniform(size=shape))
    x, y = pack(K, f.values), pack(K, g.values)
    buffers = refine._step_buffers(K)
    lhs = refine.apply_refinement(0.6 * x - 1.7 * y, K, buffers)
    rf = refine.apply_refinement(x, K, buffers)
    rg = refine.apply_refinement(y, K, buffers)
    assert np.abs(lhs - 0.6 * rf + 1.7 * rg).max() < 1e-10
    assert lhs.min() < 0
    # a positive operator: on non-negative input only rounding goes below zero
    assert rf.min() >= -1e-12 * rf.max()
    assert np.all(step(f, K).values >= 0)


def test_mass_transport_raw_quadrature(problem_area):
    # without the solve's projection the transport identity holds to O(h)
    h = 1 / 64
    K = build_kernel(problem_area, h)
    x = initial_density(K)
    buffers = refine._step_buffers(K)
    for _ in range(3):
        x_next = refine.apply_refinement(x, K, buffers)
        assert np.abs(K.masses(x_next) - problem_area.nu @ K.masses(x)).max() < 10 * h
        x = x_next


def test_solver_requires_fixed_mass_vector(problem_area):
    # the problem is that of the solve for one w, so it checks that w
    with pytest.raises(ValueError, match="does not fix w"):
        dataclasses.replace(problem_area, w=np.full(4, 0.25))


def test_solver_reports_iteration_exhaustion(problem_area):
    K = build_kernel(problem_area, 1 / 32)
    with pytest.raises(RuntimeError, match="did not reach tol"):
        solve_fixed_point(K, maxit=3)


def test_toy_solve_and_grid_consistency():
    results = {}
    for h in (1 / 32, 1 / 64, 1 / 128):
        res = solve_fixed_point(toy_kernel(h))
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
    at_zero, at_pi = polygon_ft([sq], np.array([(0.0, 0.0), (math.pi, 0.0)]))[:, 0]
    assert abs(at_zero - 1.0) < 1e-12
    assert abs(abs(at_pi) - 2 / math.pi) < 1e-12
    ks = np.random.default_rng(3).uniform(-8, 8, size=(20, 2))
    assert np.abs(polygon_ft([sq], -ks) - np.conj(polygon_ft([sq], ks))).max() < 1e-12
    with pytest.raises(ValueError):
        polygon_ft([Region.single((0, 0))], np.array([(1.0, 0.0)]))


def test_polygon_ft_sinc_oracle():
    # axis-aligned rectangle: the transform factorizes into 1-D sincs
    a, b = 0.8, 0.45
    center = np.array([0.3, -0.2])
    rect = Region.polygon(center + np.array([(-a, -b), (a, -b), (a, b), (-a, b)]))
    ks = np.random.default_rng(41).uniform(-9, 9, size=(30, 2))
    oracle = (np.sinc(ks[:, 0] * a / np.pi) * np.sinc(ks[:, 1] * b / np.pi)
              * np.exp(-1j * (ks @ center)))
    assert np.abs(polygon_ft([rect], ks)[:, 0] - oracle).max() < 1e-10


def test_fourier_product_fixes_w(problem_area):
    out = fourier_product(problem_area, [(0, 0)])[0]
    assert np.abs(out - problem_area.w).max() < 1e-12
    assert np.abs(out - np.array([0, 0.5, 0.5, 0])).max() < 1e-10


def test_fourier_product_l1_bound(problem_area):
    ks = np.random.default_rng(19).uniform(-15, 15, size=(20, 2))
    assert np.abs(fourier_product(problem_area, ks)).sum(axis=1).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("policy", ["area", "explicit"])
def test_compare_solvers_chunks_bound_its_memory(request, monkeypatch, policy):
    # the wavevectors go a fixed chunk at a time through both transforms: the
    # chunks give the bits of one pass over them all, and eight chunks peak
    # about where one does, on a grid (437 cells a side) where the grid
    # transform of eight chunks at once would outweigh the product
    problem = request.getfixturevalue(f"problem_{policy}")
    solve = {"area": "solve1_128", "explicit": "solve2_128"}[policy]  # h = 1/128
    density = request.getfixturevalue(solve).density
    chunk = refine._PRODUCT_CHUNK
    rng = np.random.default_rng(43)
    turns = rng.uniform(0, 2 * np.pi, 8 * chunk)
    ks = rng.uniform(500, 1000, 8 * chunk)[:, None] * np.column_stack([np.cos(turns),
                                                                      np.sin(turns)])
    peaks = []
    for part in (ks[:chunk], ks):
        tracemalloc.start()
        try:
            chunked = compare_solvers(density, problem, part)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    monkeypatch.setattr(refine, "_PRODUCT_CHUNK", len(ks))
    assert chunked.hex() == compare_solvers(density, problem, ks).hex()
    assert peaks[1] <= 1.3 * peaks[0]


def test_penrose_example1_coarse(problem_area):
    h = 1 / 32
    K = build_kernel(problem_area, h)
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
        cov = coverage(windows[j], dens.grid)
        outside = cov == 0
        assert np.abs(dens.values[j][outside]).max() <= 1e-12


def fine_solve_peak(problem):
    """The peak of the memory numpy allocates while the h = 1/128 solve of the
    problem runs, its coarse level included, the kernel built beforehand."""
    kernel = build_kernel(problem, 1 / 128)
    tracemalloc.start()
    try:
        solve_fixed_point(kernel)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("policy, bound_mib", [("area", 9.0), ("explicit", 11.5)])
def test_solve_peak_memory(request, policy, bound_mib):
    # the half-row state and its Anderson history, one set of step buffers,
    # and the unpacked density; the bound held before the steps lost their
    # full-size product spectrum and unread frame rows
    assert fine_solve_peak(request.getfixturevalue(f"problem_{policy}")) <= bound_mib * 2**20


@pytest.mark.parametrize("policy, bound_mib", [("area", 7.6), ("explicit", 10.0)])
def test_fine_step_peak_memory(request, policy, bound_mib):
    # the peak test_solve_peak_memory bounds, now that no step holds a
    # full-size product spectrum or frame rows its stencils do not read: it
    # reads 6.62 and 7.46 MiB, and 8.39 and 11.04 MiB with both
    assert fine_solve_peak(request.getfixturevalue(f"problem_{policy}")) <= bound_mib * 2**20


def test_build_peak_memory(problem_area):
    # the peak of the memory numpy allocates while example 1's kernel is built
    # at h = 1/256, its coarse level included: every block goes through one
    # scratch spectrum, from rows as wide as its placement.  It reads 23.59 MiB,
    # and 25.39 MiB with each block's rows as wide as the period
    tracemalloc.start()
    try:
        build_kernel(problem_area, 1 / 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24.4 * 2**20


def test_solve_peak_memory_off_both_quotients():
    # example 2 at a generic gamma, where neither quotient applies and every
    # output sums into its own input spectrum: it reads 25.46 MiB, and
    # 26.84 MiB with a spare full-size sum for the output no order of the
    # outputs could give a finished input
    shifted = scheme.penrose_scheme(gamma=complex(0.031, -0.047))
    trans = scheme.transition_windows(shifted)
    nu = scheme.build_nu(shifted, trans, matrix=EXAMPLE2_NU)
    kernel = build_kernel(scheme_problem(shifted, trans, nu), 1 / 128)
    assert kernel.centre is None and not kernel.mirrors
    tracemalloc.start()
    try:
        solve_fixed_point(kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26.2 * 2**20


@pytest.mark.parametrize("policy", ["area", "explicit"])
def test_solve_releases_the_kernel_before_the_density_grid(request, policy):
    # a kernel serves one solve: when the solve starts to build its density
    # grid, the fine kernel's spectra, stencils, block rasters and coarse
    # level are gone
    kernel = build_kernel(request.getfixturevalue(f"problem_{policy}"), 1 / 128)
    blocks = [b for row in kernel.blocks for b in row if b is not None]
    held = {
        "spectra": [weakref.ref(a) for row in kernel.spectra for a in row if a is not None],
        "stencils": [weakref.ref(s) for s in kernel.stencils if s is not None],
        "blocks": [weakref.ref(a) for b in blocks for a in (b, b.arr, b.arr.base)],
        "coarse": [weakref.ref(kernel.coarse)],
    }
    del blocks
    assert all(refs and all(ref() is not None for ref in refs) for refs in held.values())
    alive, unpack = {}, RefinementKernel.unpack

    def recorded(level, x):
        if level is kernel:
            alive.update({name: sum(ref() is not None for ref in refs)
                          for name, refs in held.items()})
        return unpack(level, x)

    with mock.patch.object(RefinementKernel, "unpack", recorded):
        solve_fixed_point(kernel)
    assert alive == dict.fromkeys(held, 0)
    with pytest.raises(ValueError, match="the kernel has served its solve"):
        solve_fixed_point(kernel)


@pytest.mark.parametrize("case", ["one", "two", "two-rank-deficient"])
def test_mixing_weights_match_least_squares(case):
    # the affine weights minimize the norm of the combined residual, as the
    # least-norm least-squares fit over the differences from the newest does;
    # integer residuals keep the rank-deficient Gram matrix exactly singular
    rng = np.random.default_rng(0)
    newest, d = rng.integers(-9, 10, size=(2, 6)).astype(float)
    residuals = {"one": [newest + d, newest],
                 "two": [*rng.integers(-9, 10, size=(2, 6)).astype(float), newest],
                 "two-rank-deficient": [newest + 2 * d, newest + d, newest]}[case]
    r = np.array(residuals)
    fit = np.linalg.lstsq((r[:-1] - r[-1]).T, -r[-1], rcond=None)[0]
    weights = refine._mixing_weights(r @ r.T)
    assert np.abs(weights - np.append(fit, 1.0 - fit.sum())).max() <= 1e-12


def test_mixing_weights_refuse_three_differences():
    r = np.random.default_rng(0).standard_normal((4, 6))
    with pytest.raises(ValueError, match="_MIX_DEPTH"):
        refine._mixing_weights(r @ r.T)


def test_compare_solvers_toy():
    K = toy_kernel(1 / 128)
    res = solve_fixed_point(K)
    rng = np.random.default_rng(2)
    ks = rng.uniform(-5, 5, size=(10, 2))
    assert compare_solvers(res.density, K.problem, ks) < 1e-3
    # at k = 0 the comparison collapses to the mass residual
    dev0 = compare_solvers(res.density, K.problem, [(0.0, 0.0)])
    assert abs(dev0 - abs(res.density.masses[0] - 1.0)) < 1e-12
    with pytest.raises(ValueError, match="no wavevectors"):
        compare_solvers(res.density, K.problem, np.zeros((0, 2)))


@pytest.mark.parametrize("policy", ["area", "explicit"])
def test_fourier_deviation_converges_at_second_order(request, policy):
    # the cheap rungs of the convergence ladder: from h = 1/32 to 1/64 the
    # deviation from the matrix product falls at order >= 1.8 (2.05 and 2.10
    # when measured), at 50 wavevectors drawn as `solve` draws them, seed 1
    rng, ks = np.random.default_rng(1), np.empty((0, 2))
    while len(ks) < 50:
        batch = rng.uniform(-10, 10, size=(200, 2))
        ks = np.concatenate([ks, batch[np.hypot(batch[:, 0], batch[:, 1]) <= 10]])
    problem = request.getfixturevalue(f"problem_{policy}")
    coarse, fine = (compare_solvers(solve_fixed_point(build_kernel(problem, h)).density,
                                    problem, ks[:50]) for h in (1 / 32, 1 / 64))
    assert math.log2(coarse / fine) >= 1.8


def arnoldi_eigenvalues(kernel, steps=40, seed=0):
    """Ritz values of `steps` Arnoldi steps of the bare refinement step from a
    random start, largest modulus first, in the inner product of packed states
    that counts every cell they stand for (`RefinementKernel.masses`)."""
    buffers = refine._step_buffers(kernel)

    def dot(v, u):
        return kernel.masses(v * u).sum()

    v = np.random.default_rng(seed).uniform(size=kernel.channels[-1][1].stop)
    basis = [v / np.sqrt(dot(v, v))]
    hessenberg = np.zeros((steps + 1, steps))
    for k in range(steps):
        w = refine.apply_refinement(basis[k], kernel, buffers)
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            for n, b in enumerate(basis):
                c = dot(w, b)
                hessenberg[n, k] += c
                w -= c * b
        hessenberg[k + 1, k] = np.sqrt(dot(w, w))
        basis.append(w / hessenberg[k + 1, k])
    values = np.linalg.eigvals(hessenberg[:steps, :steps])
    return values[np.argsort(-np.abs(values), kind="stable")]


GENERIC = complex(0.031, -0.047)


# each bound is two to four times the figure measured: 4.9e-5, 1.6e-6, 2.2e-5,
# 6.3e-6, 4.45e-6 and 5.67e-6 on the presets at h = 1/64, and 9.4e-8 at h = 1/64 and
# 1.1e-10 at h = 1/128 for q = xi tau = (1, 1, 1, 0) on their windows; the generic
# xi tau case runs at h = 1/128, where A transposed in the contraction reads 1.9e-8
# (2.6e-8 against 1.2e-8 at 1/64).  The real gamma is the only case that fills
# each output's later spectrum rows from its held ones without the point quotient
# (`kernel.centre` set, `kernel.mirrors` empty): a fill phase a row off reads
# 4.0e-2 and 6.8e-2 there
@pytest.mark.parametrize("policy, gamma, q, h, bound", [
    pytest.param("area", 0, None, 1 / 64, 1e-4, id="ex1-0"),
    pytest.param("area", GENERIC, None, 1 / 64, 4e-6, id="ex1-generic"),
    pytest.param("explicit", 0, None, 1 / 64, 5e-5, id="ex2-0"),
    pytest.param("explicit", GENERIC, None, 1 / 64, 1.5e-5, id="ex2-generic"),
    pytest.param("area", 0.3, None, 1 / 64, 1e-5, id="ex1-real"),
    pytest.param("explicit", 0.3, None, 1 / 64, 1.2e-5, id="ex2-real"),
    pytest.param("area", 0, (1, 1, 1, 0), 1 / 64, 2e-7, id="xi-tau-0"),
    pytest.param("area", GENERIC, (1, 1, 1, 0), 1 / 128, 4e-10, id="xi-tau-generic"),
])
def test_refinement_spectrum_matches_the_moment_eigenvalues(policy, gamma, q, h, bound):
    # in Fourier form the operator reads (Tf)^(k) = M(k) f^(A^T k), so it is
    # block-triangular on moments, degree by degree: the degree-n block is nu
    # on the live channels times the n-th symmetric power of A, with
    # eigenvalues mu a^p conj(a)^(n-p) (Cavaretta, Dahmen & Micchelli,
    # Stationary Subdivision, 1991); a quotient keeps the modes even under its
    # symmetry.  Each of the 8 leading eigenvalues, the Perron value 1 first,
    # lies within the bound of a predicted one
    spec = scheme.penrose_scheme(gamma=gamma)
    if q is not None:  # A rotates by 36 degrees and scales by 1/tau
        spec = dataclasses.replace(spec, q_mult=CycInt(*q))
    trans = scheme.transition_windows(spec)
    nu = (scheme.build_nu(spec, trans) if policy == "area" else
          scheme.build_nu(spec, trans, matrix=EXAMPLE2_NU))
    problem = scheme_problem(spec, trans, nu)
    live = problem.w > 0
    a, conj = np.linalg.eigvals(problem.a_matrix)
    predicted = np.array([mu * a**p * conj**(n - p)
                          for mu in np.linalg.eigvals(problem.nu[np.ix_(live, live)])
                          for n in range(13) for p in range(n + 1)])
    leading = arnoldi_eigenvalues(build_kernel(problem, h))[:8]
    assert abs(leading[0] - 1) <= bound
    assert np.abs(leading[:, None] - predicted).min(axis=1).max() <= bound


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
