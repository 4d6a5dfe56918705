"""Fast refinement paths checked against the straightforward code they replaced.

The oracles are the former implementations: the refinement step as one
`fftconvolve` per transition on the full grid, the plain fixed-point
iteration, the kernel spectra all placed and transformed up front, the
input-box test at every cell of the grid and around it, the rasterizer
that probes every cell of the bounding box, the per-value density writers,
the scalar polygon transform, the per-entry Fourier matrix product, its
walk one orbit at a time and the per-wavevector grid transform.  The step
on full frames with full-size products checks, bit for bit, the one that
sums its products in row blocks and reads only the frame rows it samples.  The
cold-started solve checks the warm start, and the bilinear stencil its
prolongation.  The bilinear stencil and the inverse FFT are checked
against the scipy routines they replaced to a few units in the last
place, the forward FFT bit for bit.
"""

import contextlib
import dataclasses
import io
import itertools
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import map_coordinates
from scipy.signal import fftconvolve

from modelsets import pfsolve, refine, scheme, text
from modelsets.polygeom import (GridSpec, Region, _edge_normals, area, centroid, erode,
                                linear_image, rasterize, translate)
from modelsets.refine import (DensityGrid, Problem, build_kernel, fourier_product,
                              initial_density, polygon_ft, solve_fixed_point)
from tests.conftest import (EXAMPLE2_NU, coverage, general_path, no_point_reflection, pack,
                            scheme_problem, step)
from tests.test_refine import toy_kernel

STEP_TOL = 1e-12


def contracted_canvas(grid, a_inv):
    """First and one-past-last (row, col) of a box of cells of the grid's lattice,
    on or off the grid, holding every cell y with A^-1 y on the grid."""
    x0, y0 = grid.origin
    x1, y1 = x0 + grid.nx * grid.h, y0 + grid.ny * grid.h
    image = np.linalg.inv(a_inv) @ np.array([[x0, x0, x1, x1], [y0, y1, y0, y1]])
    lo = np.floor((image.min(axis=1) - grid.origin) / grid.h).astype(int) - 1
    hi = np.ceil((image.max(axis=1) - grid.origin) / grid.h).astype(int) + 1
    return lo[::-1], hi[::-1]


def resample_contracted(values, grid, a_inv, lo, hi):
    """Samples of f(A^-1 y) at the centers y of the lattice cells lo to hi, zero
    where A^-1 y falls off the grid."""
    X, Y = np.meshgrid(grid.origin[0] + (np.arange(lo[1], hi[1]) + 0.5) * grid.h,
                       grid.origin[1] + (np.arange(lo[0], hi[0]) + 0.5) * grid.h)
    px = a_inv[0, 0] * X + a_inv[0, 1] * Y
    py = a_inv[1, 0] * X + a_inv[1, 1] * Y
    rows = (py - grid.origin[1]) / grid.h - 0.5
    cols = (px - grid.origin[0]) / grid.h - 0.5
    return map_coordinates(values, [rows, cols], order=1, mode="constant",
                           cval=0.0, prefilter=False)


def convolve_block(block, g, g_lo, grid):
    """h^2-weighted discrete convolution of a cropped kernel with samples on the
    lattice cells from g_lo, on the grid."""
    full = fftconvolve(g, block.arr, mode="full")
    # entry k of `full` falls on lattice cell g_lo + (iy0, ix0) - (the origin's cell) + k
    origin_cell = np.rint(-np.array(grid.origin[::-1]) / grid.h - 0.5).astype(int)
    sy, sx = origin_cell - g_lo - (block.iy0, block.ix0)
    out = np.zeros((grid.ny, grid.nx))
    y_lo, y_hi = max(0, -sy), min(grid.ny, full.shape[0] - sy)
    x_lo, x_hi = max(0, -sx), min(grid.nx, full.shape[1] - sx)
    if y_lo < y_hi and x_lo < x_hi:
        out[y_lo:y_hi, x_lo:x_hi] = full[y_lo + sy:y_hi + sy, x_lo + sx:x_hi + sx]
    return out * grid.h**2


def oracle_step(f, kernel, conserve_mass=True):
    """The refinement step with one fftconvolve per transition of the contracted
    inputs, resampled on a box that holds A applied to the grid; with
    `conserve_mass`, clamped at zero and rescaled to the masses nu m."""
    nu = kernel.problem.nu
    grid = kernel.grid
    a_inv = np.linalg.inv(kernel.problem.a_matrix)
    lo, hi = contracted_canvas(grid, a_inv)
    resampled = [resample_contracted(f.values[i], grid, a_inv, lo, hi) for i in range(f.r)]
    target = nu @ f.masses
    values = np.zeros_like(f.values)
    for j in range(f.r):
        acc = np.zeros((grid.ny, grid.nx))
        for i in range(f.r):
            # a block the kernel leaves out meets an input or an output
            # channel whose mask holds no cell, so its term is zero
            if nu[j, i] != 0 and kernel.blocks[j][i] is not None:
                acc += nu[j, i] * convolve_block(kernel.blocks[j][i], resampled[i], lo, grid)
        acc *= kernel.problem.detq_abs
        acc[~kernel.masks[j]] = 0.0
        if conserve_mass:
            np.maximum(acc, 0.0, out=acc)
            raw = acc.sum() * grid.h**2
            if raw > 0 and target[j] > 0:
                acc *= target[j] / raw
        values[j] = acc
    return DensityGrid.from_values(grid, values)


def oracle_solve(kernel, tol=1e-8, maxit=200):
    """The plain fixed-point loop: iterate the step until one moves less than tol."""
    f = kernel.unpack(initial_density(kernel))
    h2 = kernel.grid.h**2
    for _ in range(maxit):
        f_next = step(f, kernel)
        resid = float(np.abs(f_next.values - f.values).sum() * h2)
        f = f_next
        if resid < tol:
            return f
    raise RuntimeError("oracle iteration did not reach tol")


def oracle_input_boxes(grid, a_inv, masks, margin=0):
    """Per channel, the box of cells y whose stencil at A^-1 y has a node on the
    mask, tested at every cell of the grid and of `margin` cells around it, and
    counted from the grid's first cell."""
    rows, cols = refine._contracted(grid, a_inv, (slice(-margin, grid.ny + margin),
                                                  slice(-margin, grid.nx + margin)))
    # lower-left stencil node, counted in a frame padded by one zero cell
    a = np.floor(rows).astype(np.intp) + 1
    b = np.floor(cols).astype(np.intp) + 1
    on_grid = (a >= 0) & (a <= grid.ny) & (b >= 0) & (b <= grid.nx)
    a[~on_grid] = 0
    b[~on_grid] = 0
    boxes = []
    for mask in masks:
        pad = np.pad(mask, 1)
        near = pad[:-1, :-1] | pad[1:, :-1] | pad[:-1, 1:] | pad[1:, 1:]
        touched = near[a, b] & on_grid
        boxes.append(tuple(b - margin for b in refine._box(touched)) if touched.any()
                     else None)
    return boxes


def oracle_spectra(kernel):
    """FFT shape and every kernel spectrum, placed and transformed up front.

    The hull of each output channel j with a block covers its mask's
    bounding box and the linear-convolution support of every input box with
    its block; the shape holds the longest hull, and each nu_ji |det Q|
    h^2-scaled block is zero-padded at its offset from the hull start.
    """
    grid, masks, blocks = kernel.grid, kernel.masks, kernel.blocks
    input_boxes = oracle_input_boxes(grid, np.linalg.inv(kernel.problem.a_matrix), masks)
    r = len(masks)
    centre = np.array([(grid.ny - 1) // 2, (grid.nx - 1) // 2])
    hulls = []
    for j in range(r):
        if all(b is None for b in blocks[j]):
            continue
        lo, hi = refine._box(masks[j])
        starts = {}
        for i in range(r):
            if blocks[j][i] is None or input_boxes[i] is None:
                continue
            in_lo, in_hi = input_boxes[i]
            offset = np.array([blocks[j][i].iy0, blocks[j][i].ix0]) - centre
            starts[i] = in_lo + offset
            lo = np.minimum(lo, starts[i])
            hi = np.maximum(hi, in_hi + offset + blocks[j][i].arr.shape - 1)
        hulls.append((j, lo, hi, starts))
    shape = tuple(refine.next_fast_len(int(n))
                  for n in np.max([hi - lo for _, lo, hi, _ in hulls], axis=0))
    spectra = [[None] * r for _ in range(r)]
    for j, lo, _, starts in hulls:
        for i, start in starts.items():
            arr = blocks[j][i].arr
            padded = np.zeros(shape)
            padded[refine._slices(start - lo, start - lo + arr.shape)] = \
                arr * (kernel.problem.nu[j, i] * kernel.problem.detq_abs * grid.h**2)
            spectra[j][i] = np.fft.rfft2(padded)
    return shape, spectra


def built_spectra(kernel):
    """(j, i, whether input i is a mirror) of every spectrum the kernel holds."""
    return [(j, i, i in kernel.mirrors.values()) for j, row in enumerate(kernel.spectra)
            for i, spectrum in enumerate(row) if spectrum is not None]


def oracle_rasterize(P, grid, supersample=4):
    """Coverage fractions from supersample^2 probes in every bounding-box cell."""
    out = np.zeros((grid.ny, grid.nx))
    v = P.vertices
    h = grid.h
    ix0 = max(0, int(np.floor((v[:, 0].min() - grid.origin[0]) / h)) - 1)
    ix1 = min(grid.nx, int(np.ceil((v[:, 0].max() - grid.origin[0]) / h)) + 1)
    iy0 = max(0, int(np.floor((v[:, 1].min() - grid.origin[1]) / h)) - 1)
    iy1 = min(grid.ny, int(np.ceil((v[:, 1].max() - grid.origin[1]) / h)) + 1)
    if ix0 >= ix1 or iy0 >= iy1:
        return out
    xs = grid.origin[0] + (np.arange(ix0, ix1)) * h
    ys = grid.origin[1] + (np.arange(iy0, iy1)) * h
    probe = (np.arange(supersample) + 0.5) / supersample * h
    px = (xs[:, None] + probe).ravel()
    normals, offsets = _edge_normals(P)
    # one row of cells at a time: a supersample x (columns * supersample) block
    for row, y in enumerate(ys):
        py = y + probe
        inside = np.ones((supersample, len(px)), dtype=bool)
        for n, c in zip(normals, offsets):
            inside &= np.add.outer(py * n[1], px * n[0]) - c <= 0.0
        count = inside.reshape(supersample, len(xs), supersample).sum(axis=(0, 2))
        out[iy0 + row, ix0:ix1] = count / supersample**2
    return out


def _fmt(x):
    return f"{x:.12g}"


def oracle_write_density_grid(density, channel, fileobj):
    g = density.grid
    fileobj.write(f"# origin {_fmt(g.origin[0])} {_fmt(g.origin[1])}\n")
    fileobj.write(f"# h {_fmt(g.h)}\n")
    fileobj.write(f"# nx {g.nx} ny {g.ny}\n")
    for row in density.values[channel]:
        fileobj.write(" ".join(_fmt(v) for v in row) + "\n")


def oracle_write_density_csv(density, fileobj):
    g = density.grid
    xs = g.x_centers()
    ys = g.y_centers()
    fileobj.write("x,y," + ",".join(f"f{j + 1}" for j in range(density.r)) + "\n")
    for iy in range(g.ny):
        for ix in range(g.nx):
            vals = ",".join(_fmt(density.values[j, iy, ix]) for j in range(density.r))
            fileobj.write(f"{_fmt(xs[ix])},{_fmt(ys[iy])},{vals}\n")


def oracle_polygon_ft(P, k):
    """Transform of the normalized indicator at k, one edge sum per call."""
    k = np.asarray(k, dtype=float).reshape(2)
    kn = np.hypot(k[0], k[1])
    if kn < refine.FT_SMALL_K:
        c = centroid(P)
        return complex(np.exp(-1j * (k[0] * c[0] + k[1] * c[1])))
    v = P.vertices
    w = np.roll(v, -1, axis=0)
    edge = w - v
    lengths = np.hypot(edge[:, 0], edge[:, 1])
    tangents = edge / lengths[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    phase = np.exp(-1j * (0.5 * (v + w) @ k))
    line = lengths * np.sinc(tangents @ k * lengths / (2 * np.pi)) * phase
    return complex(1j * np.dot(normals @ k, line) / (kn * kn) / area(P))


def oracle_fourier_product(problem, k):
    nu, w, a_matrix = problem.nu, problem.w, problem.a_matrix
    kappa = np.asarray(k, dtype=float).reshape(2)
    depth = 0
    while np.hypot(*(a_matrix.T @ kappa)) >= refine._PRODUCT_TAIL and depth < 10000:
        kappa = a_matrix.T @ kappa
        depth += 1
    kappas = [np.asarray(k, dtype=float).reshape(2)]
    for _ in range(depth):
        kappas.append(a_matrix.T @ kappas[-1])
    acc = w.astype(complex)
    for kappa in reversed(kappas):
        mat = np.zeros((len(w), len(w)), dtype=complex)
        for j, i in zip(*np.nonzero(nu)):
            mat[j, i] = nu[j, i] * oracle_polygon_ft(problem.windows_ji[j][i], kappa)
        acc = mat @ acc
    return acc


def oracle_orbit_walk(problem, ks):
    """The former fourier_product: each orbit grown by its own loop, one transform
    table over the members of every orbit, and each orbit's product read from
    it through start and end offsets."""
    nu, w, a_matrix = problem.nu, problem.w, problem.a_matrix
    orbits = []
    for k in np.asarray(ks, dtype=float).reshape(-1, 2):
        kappas = [k]
        while (np.hypot(*(step := a_matrix.T @ kappas[-1])) >= refine._PRODUCT_TAIL
               and len(kappas) <= 10000):
            kappas.append(step)
        orbits.append(kappas)
    jj, ii = np.nonzero(nu)
    table = polygon_ft([problem.windows_ji[j][i] for j, i in zip(jj, ii)],
                       np.array([kappa for kappas in orbits for kappa in kappas]))
    mats = np.zeros((len(table), len(w), len(w)), dtype=complex)
    mats[:, jj, ii] = nu[jj, ii] * table
    out = np.empty((len(orbits), len(w)), dtype=complex)
    end = 0
    for n, kappas in enumerate(orbits):
        start, end = end, end + len(kappas)
        acc = w.astype(complex)
        for mat in mats[start:end][::-1]:
            acc = mat @ acc
        out[n] = acc
    return out


def oracle_grid_ft(density, ks):
    xs = density.grid.x_centers()
    ys = density.grid.y_centers()
    out = np.zeros((density.r, len(ks)), dtype=complex)
    h2 = density.grid.h**2
    for n, k in enumerate(ks):
        px = np.exp(-1j * k[0] * xs)
        py = np.exp(-1j * k[1] * ys)
        for j in range(density.r):
            out[j, n] = h2 * (py @ (density.values[j] @ px))
    return out


def assert_steps_agree(f, kernel, conserve_mass):
    got = step(f, kernel, conserve_mass=conserve_mass)
    want = oracle_step(f, kernel, conserve_mass=conserve_mass)
    assert np.abs(got.values - want.values).max() <= STEP_TOL
    assert np.abs(got.masses - want.masses).max() <= STEP_TOL
    return got


@pytest.fixture(scope="module", params=["area", "explicit"])
def preset64(request):
    """The kernel as the solve builds it, the kernel on the general path, and w.

    The step oracles read the general kernel: it forms every live channel
    from its own input.  Example 1 has no positive w fixed by its weight
    matrix, so there channels 1 and 4 (1-based) stay out of both kernels.
    """
    problem = request.getfixturevalue(f"problem_{request.param}")
    with general_path():
        general = build_kernel(problem, 1 / 64)
    return build_kernel(problem, 1 / 64), general, problem.w


@pytest.mark.parametrize("conserve_mass", [True, False])
def test_step_matches_oracle_on_presets(preset64, conserve_mass):
    _, kernel, _ = preset64
    f = kernel.unpack(initial_density(kernel))
    for _ in range(3):
        f = assert_steps_agree(f, kernel, conserve_mass)


@pytest.mark.parametrize("conserve_mass", [True, False])
def test_step_matches_oracle_on_random_masked_input(preset64, conserve_mass):
    _, kernel, _ = preset64
    rng = np.random.default_rng(8)
    raw = rng.uniform(size=kernel.masks.shape)
    masked = DensityGrid.from_values(kernel.grid, np.where(kernel.masks, raw, 0.0))
    assert_steps_agree(masked, kernel, conserve_mass)
    # values off the masks are outside the step's domain and are ignored
    unmasked = DensityGrid.from_values(kernel.grid, raw)
    got = step(unmasked, kernel, conserve_mass=False)
    want = oracle_step(masked, kernel, conserve_mass=False)
    assert np.abs(got.values - want.values).max() <= STEP_TOL


def test_step_matches_oracle_with_a_zero_channel(preset64):
    _, kernel, _ = preset64
    rng = np.random.default_rng(9)
    values = np.where(kernel.masks, rng.uniform(size=kernel.masks.shape), 0.0)
    values[2] = 0.0
    assert_steps_agree(DensityGrid.from_values(kernel.grid, values), kernel, True)


def shifted_problem(policy, gamma):
    """The problem of example 1 ("area") or 2 ("explicit") with windows moved by gamma."""
    shifted = scheme.penrose_scheme(gamma=gamma)
    trans = scheme.transition_windows(shifted)
    nu = (scheme.build_nu(shifted, trans) if policy == "area" else
          scheme.build_nu(shifted, trans, policy="explicit", matrix=EXAMPLE2_NU))
    return scheme_problem(shifted, trans, nu)


@pytest.mark.parametrize("policy", ["area", "explicit"])
@pytest.mark.parametrize("gamma", [complex(3, -4), complex(1000, 0)])
def test_step_matches_oracle_at_a_far_gamma(policy, gamma):
    # the grid frames the windows; the blocks and contracted inputs sit on its
    # lattice off the grid, near 1.618 gamma and A (W_i + gamma)
    problem = shifted_problem(policy, gamma)
    trans = problem.windows_ji
    kernel = build_kernel(problem, 1 / 32)
    grid = kernel.grid
    for j, row in enumerate(kernel.blocks):
        for i, block in enumerate(row):
            if block is None:
                continue
            assert not (0 <= block.iy0 < grid.ny and 0 <= block.ix0 < grid.nx)
            # placed where it falls: its weighted cell centre is the window's centroid
            rows, cols = np.indices(block.arr.shape)
            weights = block.arr / block.arr.sum()
            cell = [(weights * (cols + block.ix0)).sum(), (weights * (rows + block.iy0)).sum()]
            at = np.array(grid.origin) + (np.array(cell) + 0.5) * grid.h
            assert np.abs(at - centroid(trans[j][i])).max() < grid.h / 4
    f = kernel.unpack(initial_density(kernel))
    for _ in range(3):
        f = assert_steps_agree(f, kernel, True)


@pytest.mark.parametrize("policy", ["area", "explicit"])
@pytest.mark.parametrize("gamma", [0, 0.3])
def test_half_row_step_matches_oracle(policy, gamma):
    # at a real gamma the step samples, transforms and inverts only the rows up
    # to y = 0 and copies the rest, so its outputs are their own row flips bit
    # for bit; at gamma = 0 the point reflection is patched off, so that the
    # oracle forms every channel from its own input
    problem = shifted_problem(policy, gamma)
    assert refine.mirror_symmetric(problem)
    with no_point_reflection():
        kernel = build_kernel(problem, 1 / 64)
    assert kernel.centre == kernel.grid.ny // 2 and not kernel.mirrors
    f = kernel.unpack(initial_density(kernel))
    for _ in range(3):
        assert all(v.tobytes() == v[::-1].tobytes() for v in f.values)
        got, want = step(f, kernel), oracle_step(f, kernel)
        assert np.abs(got.values - want.values).max() <= 1e-14 * np.abs(want.values).max()
        f = got
    # so are the Anderson-mixed iterates and the solved density, with the
    # point reflection too at gamma = 0
    solved = solve_fixed_point(build_kernel(problem, 1 / 64)).density.values
    assert all(v.tobytes() == v[::-1].tobytes() for v in solved)


def test_row_mirror_decision(spec, problem_area):
    assert refine.mirror_symmetric(problem_area)
    # windows moved off the real axis
    assert not refine.mirror_symmetric(shifted_problem("area", complex(0.031, -0.047)))
    # an inline scheme: the pentagons turned by 10 degrees, still point-symmetric
    # but no longer their own row flips, so the solve takes the point reflection only
    c, s = np.cos(np.pi / 18), np.sin(np.pi / 18)
    turned = scheme.SchemeSpec(windows=[linear_image(w, np.array([[c, -s], [s, c]]))
                                        for w in spec.windows],
                               coset_reps=spec.coset_reps, q_mult=spec.q_mult)
    trans = scheme.transition_windows(turned)
    problem = scheme_problem(turned, trans, scheme.build_nu(turned, trans))
    assert not refine.mirror_symmetric(problem) and refine.point_symmetric(problem)
    kernel = build_kernel(problem, 1 / 32)
    assert kernel.centre is None and kernel.mirrors
    # a window moved along y by more than the tolerance, or a turned A
    for moved, decided in [(1e-13, True), (1e-9, False)]:
        windows = list(problem_area.windows)
        windows[1] = translate(windows[1], (0.0, moved))
        assert refine.mirror_symmetric(dataclasses.replace(problem_area,
                                                           windows=windows)) == decided
    assert not refine.mirror_symmetric(dataclasses.replace(
        problem_area, a_matrix=np.array([[c, -s], [s, c]]) @ problem_area.a_matrix))


def test_mixed_solve_beats_plain_iteration(preset64):
    _, general, w = preset64
    kernel = build_kernel(general.problem, 1 / 64)  # a kernel serves one solve
    h2 = kernel.grid.h**2
    reference = oracle_solve(general, tol=1e-13)
    plain = oracle_solve(general)
    apply = refine.apply_refinement
    inputs = []

    def recorded_step(x, packing, buffers=None):
        inputs.append((x.min(), packing.masses(x)))
        return apply(x, packing, buffers)

    with mock.patch.object(refine, "apply_refinement", recorded_step):
        result = solve_fixed_point(kernel)
    assert result.iterations <= 12
    # every iterate is projected: non-negative, carrying the masses w
    for lowest, masses in inputs:
        assert lowest >= 0.0 and np.abs(masses - w).max() <= 1e-12
    mixed_err = np.abs(result.density.values - reference.values).sum() * h2
    plain_err = np.abs(plain.values - reference.values).sum() * h2
    assert mixed_err <= plain_err
    assert np.all(result.density.values[w == 0] == 0.0)
    hist = result.mass_history
    assert len(hist) == result.iterations + 1
    for m, m_next in zip(hist, hist[1:]):
        assert np.abs(m_next - kernel.problem.nu @ m).max() <= 1e-12


def test_rising_residual_resets_the_mixing_history(preset64):
    # reversing one channel's packed cells before the centre row, which all
    # count twice, after the fifth step keeps its mass but not its shape, so
    # that step's residual rises above the one before
    _, general, w = preset64
    kernel = build_kernel(general.problem, 1 / 64)  # a kernel serves one solve
    calls, fits = [0], []
    apply, weights = refine.apply_refinement, refine._mixing_weights

    def perturbed_step(x, packing, buffers=None):
        out = apply(x, packing, buffers)
        calls[0] += 1
        if calls[0] == 5:
            cells = packing.below[packing.channels[0][0]]
            out[cells] = out[cells][::-1].copy()
        return out

    def recorded_weights(gram):
        fits.append(len(gram))
        return weights(gram)

    with mock.patch.object(refine, "apply_refinement", perturbed_step), \
            mock.patch.object(refine, "_mixing_weights", recorded_weights):
        result = solve_fixed_point(kernel)
    r = result.residuals
    # the fit restarts from one residual exactly where the residual rose
    assert [k for k, n in enumerate(fits) if n == 1] == \
        [0] + [k for k in range(1, len(fits)) if r[k] > r[k - 1]]
    assert fits[:8] == [1, 2, 3, 3, 1, 2, 3, 3]
    assert r[-1] < 1e-8
    assert np.all(result.density.values[w == 0] == 0.0)


@pytest.mark.parametrize("policy", ["area", "explicit"])
def test_spectra_on_first_use_match_eager_oracle(request, policy):
    # h = 1/60, not a power of two, so that h^2 rounds and so does the scaling;
    # the kernel of the solve, in the point-reflection quotient
    kernel = build_kernel(request.getfixturevalue(f"problem_{policy}"), 1 / 60)
    assert kernel.mirrors
    shape, want = oracle_spectra(kernel)
    assert kernel.fft_shape == shape
    for j in range(4):
        for i in range(4):
            got = kernel.spectra[j][i]
            if want[j][i] is None:
                assert got is None
            elif i in kernel.mirrors.values():
                # met by input i taken as a flip: conjugated after the mirror phases
                rows, cols = refine._mirror_phases(kernel.boxes[i], shape)
                mirrored = np.conjugate(want[j][i] * rows * cols)
                assert got.tobytes() == mirrored.tobytes(), (j, i)
            else:
                assert got.tobytes() == want[j][i].tobytes(), (j, i)


def test_solve_builds_only_live_spectra_before_its_first_step(problem_area):
    # example 1 carries mass only on channels 2 and 3 (1-based), and the
    # point-reflection quotient forms channel 2 only, from input 2 and from
    # input 3 taken as the flip of input 2
    kernel = build_kernel(problem_area, 1 / 64)
    live = [(1, 1, False), (1, 2, True)]
    # channel 3 is sampled as the flip of channel 2, and 1 and 4 carry no mass;
    # read before the solve, which releases the stencils and blocks
    assert [i for i, s in enumerate(kernel.stencils) if s is not None] == [1]
    assert [(j, i) for j, row in enumerate(kernel.blocks) for i, b in enumerate(row)
            if b is not None] == [(1, 1), (1, 2)]
    apply = refine.apply_refinement
    at_steps = []

    def recorded_step(*args, **kwargs):
        at_steps.append(built_spectra(kernel))
        return apply(*args, **kwargs)

    with mock.patch.object(refine, "apply_refinement", recorded_step):
        result = solve_fixed_point(kernel)
    assert result.iterations == len(at_steps) > 1
    assert all(built == live for built in at_steps)


@pytest.mark.parametrize("policy, per_level", [("area", 3), ("explicit", 8)])
@pytest.mark.parametrize("h, levels", [(1 / 64, 1), (1 / 128, 2)])
def test_kernel_rasterizes_only_what_the_quotient_step_reads(request, policy, per_level, h,
                                                             levels):
    # example 1: window 2 and blocks (2,2), (2,3); example 2: windows 1 and 2
    # and blocks (1,1), (1,4) and (2,1) to (2,4), all 1-based; at h = 1/128
    # the warm start's coarse level rasterizes as many again
    calls = []

    def counted(*args):
        calls.append(args[-1].h)
        return rasterize(*args)

    with mock.patch.object(refine, "rasterize", counted):
        kernel = build_kernel(request.getfixturevalue(f"problem_{policy}"), h)
    assert len(calls) == per_level * levels
    assert calls.count(h) == per_level
    assert (kernel.coarse is not None) == (levels == 2)


@pytest.mark.parametrize("policy", ["area", "explicit"])
@pytest.mark.parametrize("h", [1 / 64, 1 / 60, 1 / 256])
def test_mirrored_masks_and_boxes_match_general_path(request, policy, h):
    # the quotient takes mirrored masks and input boxes as flips of the carried
    # ones, where the general path rasterizes and tests every live channel
    problem = request.getfixturevalue(f"problem_{policy}")
    quotient = build_kernel(problem, h)
    with general_path():
        general = build_kernel(problem, h)
    assert quotient.mirrors == ({0: 3, 1: 2} if policy == "explicit" else {1: 2})
    for j, m in quotient.mirrors.items():
        assert np.array_equal(quotient.masks[m], np.flip(quotient.masks[j]))
        assert np.array_equal(quotient.masks[m], general.masks[m])
        for got, want in zip(quotient.boxes[m], general.boxes[m]):
            assert np.array_equal(got, want)


def oracle_stencil(kernel, i):
    """The stencil of input box i cut from positions computed on the whole grid,
    on the whole frame of the mask's box; under the row mirror, the stencil of
    the box's rows up to the centre."""
    grid, a_inv = kernel.grid, np.linalg.inv(kernel.problem.a_matrix)
    X, Y = np.meshgrid(grid.x_centers(), grid.y_centers())
    rows = (a_inv[1, 0] * X + a_inv[1, 1] * Y - grid.origin[1]) / grid.h - 0.5
    cols = (a_inv[0, 0] * X + a_inv[0, 1] * Y - grid.origin[0]) / grid.h - 0.5
    box = refine._slices(*kernel.boxes[i])
    if kernel.centre is not None:
        box = (slice(box[0].start, kernel.centre + 1), box[1])
    lo, hi = refine._box(kernel.masks[i])
    return refine.Stencil.at(rows[box] - (lo[0] - 1), cols[box] - (lo[1] - 1),
                             tuple(hi - lo + 2))


def oracle_apply(x, kernel):
    """The step with full frames and full-size products: each input's frame holds
    its mask's whole box, filled from the packed state with its rows past the
    centre copied from those before it, and each term of an output is made
    whole in a second full-size spectrum before it is added."""
    stencils = {i: oracle_stencil(kernel, i) for i, _ in kernel.channels
                if kernel.stencils[i] is not None}
    shape = kernel.fft_shape
    transformed = {}
    for i, cells in kernel.channels:
        if not x[cells].any() or i not in stencils:
            continue
        flat, padded = stencils[i].frame()
        inside = kernel.masks[i][kernel.outputs[i][0]]
        padded[1:len(inside) + 1, 1:-1][inside] = x[cells]
        if kernel.centre is not None:
            padded[len(inside) + 1:-1] = padded[1:len(inside)][::-1]
        transformed[i] = refine.rfft2(stencils[i].sample(flat), shape, kernel.centre is not None)
    out = np.zeros_like(x)
    sums = np.empty((2, shape[0], shape[1] // 2 + 1), dtype=complex)
    for j, cells in kernel.channels:
        spectra = kernel.spectra[j]
        flipped = [(spectra[m], i) for i, m in kernel.mirrors.items()
                   if i in transformed and spectra[m] is not None]
        direct = [(spectra[i], i) for i in transformed if spectra[i] is not None]
        total = None
        for terms in (flipped, direct):
            for spectrum, i in terms:
                if total is None:
                    total = np.multiply(spectrum, transformed[i], out=sums[0])
                else:
                    total += np.multiply(spectrum, transformed[i], out=sums[1])
            if terms is flipped and total is not None:
                np.conjugate(total, out=total)
        if total is not None:
            box, (rows, cols) = kernel.outputs[j]
            np.fft.ifft(total, axis=0, out=total)
            whole = np.fft.irfft(total[rows], n=shape[1], axis=1)
            out[cells] = whole[:, cols][kernel.masks[j][box]]
    return out


@pytest.mark.parametrize("policy", ["area", "explicit"])
@pytest.mark.parametrize("gamma", [0, 0.3, complex(0.031, -0.047)])
def test_step_is_bit_equal_to_full_frame_oracle(policy, gamma):
    # products summed a row block at a time and frames cut to the rows their
    # stencils read take the same values in the same order; on the fine and
    # the coarse kernel, both quotients at gamma = 0, the row mirror alone at
    # (0.3, 0) and neither at the generic gamma
    kernel = build_kernel(shifted_problem(policy, gamma), 1 / 128)
    assert kernel.coarse is not None and kernel.coarse.coarse is None
    assert (kernel.centre is not None) == (gamma != complex(0.031, -0.047))
    rng = np.random.default_rng(12)
    for level in (kernel, kernel.coarse):
        buffers = refine._step_buffers(level)
        # the fine level keeps no indicators; it starts, as in the solve, from
        # a coarse density prolonged, here the coarse level's start
        x = initial_density(level) if level.coarse is None else \
            refine._prolong(level.coarse.unpack(initial_density(level.coarse)), level)
        for _ in range(3):
            want = oracle_apply(x, level)
            assert refine.apply_refinement(x, level).tobytes() == want.tobytes()
            # the solve's buffers, written by the steps before, give the same bytes
            assert refine.apply_refinement(x, level, buffers).tobytes() == want.tobytes()
            x = rng.uniform(size=x.shape)


@pytest.mark.parametrize("policy", ["area", "explicit"])
@pytest.mark.parametrize("gamma", [0, 0.3, complex(0.031, -0.047)])
def test_step_buffers_hold_only_what_the_step_reads(policy, gamma):
    kernel = build_kernel(shifted_problem(policy, gamma), 1 / 128)
    frames, spectra, plan, blocks = refine._step_buffers(kernel)
    rows, cols = kernel.fft_shape[0], kernel.fft_shape[1] // 2 + 1
    # a spectrum per transformed input, and a spare sum only where the plan
    # takes one: no full-size product, whose terms are summed in two blocks
    # of rows
    spare = any(d is None for _, d in plan)
    assert list(spectra) == list(frames) + [None] * spare
    assert all(s.shape == (rows, cols) for s in spectra.values())
    assert all(b.shape == (refine._SUM_ROWS, cols) for b in blocks) and rows > refine._SUM_ROWS
    for i, (flat, view, _) in frames.items():
        stencil = kernel.stencils[i]
        ny, nx = stencil.shape
        tapped = stencil.index[stencil.index < ny * nx] // nx
        # the frame starts at the first tapped row and holds at most one row
        # past the last, then the tail
        assert tapped.min() == 0 and ny <= tapped.max() + 2
        assert flat.size == ny * nx + nx + 2 and view.shape == (ny, nx)
        lo, hi = refine._box(kernel.masks[i])
        assert stencil.first + ny <= hi[0] - lo[0] + 2  # within the mask's padded box
        if kernel.centre is not None:  # about the half past the centre
            assert ny <= (hi[0] - lo[0]) // 2 + 3 and stencil.first > 0


def input_reads(kernel):
    """Per carried output j, the transformed inputs its terms read: input i
    directly, or as the flip of input mirrors[i]."""
    transformed = [i for i, _ in kernel.channels if kernel.stencils[i] is not None]
    return {j: {i for i in transformed
                if kernel.spectra[j][i] is not None
                or (i in kernel.mirrors and kernel.spectra[j][kernel.mirrors[i]] is not None)}
            for j, _ in kernel.channels}


@pytest.mark.parametrize("policy", ["area", "explicit"])
@pytest.mark.parametrize("gamma, path", [(0, "quotient"), (0, "general"), (0.3, "quotient"),
                                         (complex(0.031, -0.047), "quotient")])
def test_step_plan_overwrites_only_finished_inputs(policy, gamma, path):
    # each output's sum overwrites an input spectrum that no later output
    # reads, and a spare sum is made exactly when no order of the outputs
    # finds every one such an input
    with general_path() if path == "general" else contextlib.nullcontext():
        kernel = build_kernel(shifted_problem(policy, gamma), 1 / 128)
    _, spectra, plan, _ = refine._step_buffers(kernel)
    reads = input_reads(kernel)
    assert sorted(j for j, _ in plan) == [j for j, read in reads.items() if read]
    for k, (j, d) in enumerate(plan):
        assert d in spectra
        assert d is None or all(d not in reads[later] for later, _ in plan[k + 1:])
    inputs = [i for i in spectra if i is not None]
    needed = not any(all(set(inputs) - set().union(*(reads[later] for later in order[n + 1:]))
                         for n in range(len(order)))
                     for order in itertools.permutations(j for j, _ in plan))
    assert (None in spectra) == needed
    # the presets' quotient at gamma = 0 needs no spare; every other path does
    assert needed == (gamma != 0 or path == "general")


@pytest.mark.parametrize("h", [1 / 64, 1 / 60])
def test_stencils_on_first_use_match_whole_grid_oracle(problem_explicit, h):
    # example 2 on the general path, where every channel has a stencil
    # the kernel's frame is cut to the rows its samples read, `first` rows into
    # the oracle's, which holds the mask's whole padded box
    with general_path():
        kernel = build_kernel(problem_explicit, h)
    for i in range(4):
        got, want = kernel.stencils[i], oracle_stencil(kernel, i)
        (ny, nx), whole = got.shape, want.shape[0] * want.shape[1]
        index = np.where(got.index == ny * nx, whole, got.index + got.first * nx)
        assert index.astype(np.int32).tobytes() == want.index.tobytes(), i
        for field in ("r0", "c0"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (i, field)
        assert nx == want.shape[1] and got.first + ny <= want.shape[0]


@pytest.mark.parametrize("policy", ["area", "explicit"])
def test_quotient_solve_matches_general_solve(request, policy):
    problem = request.getfixturevalue(f"problem_{policy}")
    kernel = build_kernel(problem, 1 / 64)
    assert kernel.mirrors
    quotient = solve_fixed_point(kernel)
    with general_path():
        general = solve_fixed_point(build_kernel(problem, 1 / 64))
    got, want = quotient.density.values, general.density.values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for j in range(4):
        assert np.array_equal(got[3 - j], got[j][::-1, ::-1])
    # the residual keeps the L1 change of all four channels
    assert quotient.iterations == general.iterations
    assert np.abs(quotient.residuals - general.residuals).max() <= 1e-12
    for m, m_general in zip(quotient.mass_history, general.mass_history):
        assert np.abs(m - m_general).max() <= 1e-12


@pytest.mark.parametrize("policy", ["area", "explicit"])
@pytest.mark.parametrize("gamma", [0, 0.3])
def test_half_row_solve_matches_general_solve(policy, gamma):
    # under the row mirror a packed channel holds its mask cells in the rows
    # up to the centre, the centre row last, and the cells before it count
    # twice; the solve on that half matches the general one, which steps
    # every row of every live channel, and its channels are row flips bit
    # for bit
    problem = shifted_problem(policy, gamma)
    kernel = build_kernel(problem, 1 / 64)
    centre = kernel.centre
    assert centre == kernel.grid.ny // 2
    for j, cells in kernel.channels:
        assert cells.stop - cells.start == kernel.masks[j][:centre + 1].sum()
        assert kernel.below[j] == slice(cells.start, cells.stop - kernel.masks[j][centre].sum())
    x = initial_density(kernel)
    assert len(x) == kernel.channels[-1][1].stop
    assert pack(kernel, kernel.unpack(x).values).tobytes() == x.tobytes()
    quotient = solve_fixed_point(kernel)
    with general_path():
        general = solve_fixed_point(build_kernel(problem, 1 / 64))
    got, want = quotient.density.values, general.density.values
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert all(v.tobytes() == v[::-1].tobytes() for v in got)
    assert quotient.iterations == general.iterations
    assert np.abs(quotient.residuals - general.residuals).max() <= 1e-14
    for m, m_general in zip(quotient.mass_history, general.mass_history):
        assert np.abs(m - m_general).max() <= 1e-14


@pytest.mark.parametrize("policy", ["area", "explicit"])
@pytest.mark.parametrize("gamma, row_mirror, point_reflection", [
    (0, True, True), (0.3, True, False), (0, False, True),
    (complex(0.031, -0.047), False, False)])
def test_masses_count_every_cell_a_packed_state_stands_for(policy, gamma, row_mirror,
                                                           point_reflection):
    # a packed cell before the centre row stands for its row flip too, and a
    # carried channel for its point-mirrored partner; on each of the four
    # paths the reduction matches the unpacked density's sums, the signed
    # inner product relative to the integral of |v u|
    problem = shifted_problem(policy, gamma)
    with mock.patch.object(refine, "mirror_symmetric", lambda problem: False) \
            if not row_mirror else contextlib.nullcontext():
        kernel = build_kernel(problem, 1 / 64)
    assert (kernel.centre is not None, bool(kernel.mirrors)) == (row_mirror, point_reflection)
    rng = np.random.default_rng(13)
    n = kernel.channels[-1][1].stop
    v, u = rng.uniform(size=n), rng.uniform(-1, 1, size=n)
    fv, fu = kernel.unpack(v), kernel.unpack(u)
    assert np.abs(kernel.masses(v) - fv.masses).max() <= 1e-13 * fv.masses.max()
    product = fv.values * fu.values * kernel.grid.h**2
    assert abs(kernel.masses(v, u).sum() - product.sum()) <= 1e-13 * np.abs(product).sum()


def test_quotient_with_a_self_mirrored_channel_matches_general_solve():
    # three channels: 1 and 3 (1-based) are point reflections of each other
    # and 2 of itself, so the carried state holds a pair and a single channel;
    # window 3 lists its vertices from another start than window 1 negated
    def rect(a, b, c=(0.0, 0.0)):
        return translate(Region.polygon([(-a, -b), (a, -b), (a, b), (-a, b)]), c)

    windows = [rect(1, 0.5, (0.25, 0.125)), rect(0.75, 0.75), rect(1, 0.5, (-0.25, -0.125))]
    trans = [[erode(wj, linear_image(wi, 0.5 * np.eye(2))) for wi in windows] for wj in windows]
    nu = np.array([[0.5, 0.25, 0.2], [0.3, 0.5, 0.3], [0.2, 0.25, 0.5]])
    problem = Problem(windows, trans, nu, pfsolve.pf_eigen(nu).w, 0.5 * np.eye(2), 4.0)
    kernel = build_kernel(problem, 1 / 32)
    assert kernel.mirrors == {0: 2} and [j for j, _ in kernel.channels] == [0, 1]
    quotient = solve_fixed_point(kernel)
    with general_path():
        general = solve_fixed_point(build_kernel(problem, 1 / 32))
    got, want = quotient.density.values, general.density.values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(got[2], got[0][::-1, ::-1])
    assert quotient.iterations == general.iterations
    assert np.abs(quotient.residuals - general.residuals).max() <= 1e-12


def test_point_symmetry_decision(spec, problem_area, problem_explicit):
    assert refine.point_symmetric(problem_area) and refine.point_symmetric(problem_explicit)
    # every window moved by the same gamma: window 4 is no longer window 1 negated
    shifted = scheme.penrose_scheme(gamma=0.031 - 0.047j)
    # the components in another order: channels 1 and 2 (1-based) mirror each
    # other, as do 3 and 4, where the quotient pairs 1 with 4 and 2 with 3
    w = spec.windows
    permuted = scheme.SchemeSpec(windows=[w[0], w[3], w[2], w[1]],
                                 coset_reps=[spec.coset_reps[k] for k in (0, 3, 2, 1)],
                                 q_mult=spec.q_mult)
    for other in (shifted, permuted):
        trans = scheme.transition_windows(other)
        assert not refine.point_symmetric(scheme_problem(other, trans,
                                                         scheme.build_nu(other, trans)))
    # an explicit nu that is not its own 180-degree flip, with a symmetric w
    lopsided = problem_explicit.nu.copy()
    lopsided[2] = [0.1, 0.4, 0.4, 0.1]
    assert not refine.point_symmetric(dataclasses.replace(problem_explicit, nu=lopsided,
                                                          w=np.full(4, 0.25)))


def cold_start():
    """No grid is wide enough for a coarse level, so every solve starts cold."""
    return mock.patch.object(refine, "_COARSE_CELLS", 10**9)


def counted_kernels():
    """build_kernel recording the cell size of every kernel it builds."""
    cells, build = [], refine.build_kernel

    def recorded(*args):
        cells.append(args[-1])
        return build(*args)

    return cells, mock.patch.object(refine, "build_kernel", recorded)


@pytest.mark.parametrize("example", [1, 2, "2-gamma"])
def test_warm_start_matches_cold_start(request, example):
    if example == "2-gamma":
        spec = scheme.penrose_scheme(gamma=0.031 - 0.047j)
        transitions = scheme.transition_windows(spec)
        problem = scheme_problem(spec, transitions, scheme.build_nu(
            spec, transitions, policy="explicit", matrix=EXAMPLE2_NU))
    else:
        problem = request.getfixturevalue(f"problem_{'area' if example == 1 else 'explicit'}")
    cells, counting = counted_kernels()
    with counting:
        kernel = refine.build_kernel(problem, 1 / 128)
    assert bool(kernel.mirrors) == (example != "2-gamma")
    warm = solve_fixed_point(kernel)
    with cold_start():
        cold = solve_fixed_point(build_kernel(problem, 1 / 128))
    assert cells == [1 / 128, 1 / 32]
    assert warm.iterations < cold.iterations
    l1 = np.abs(warm.density.values - cold.density.values).sum() * kernel.grid.h**2
    assert l1 <= 1e-8
    assert np.abs(warm.density.masses - cold.density.masses).max() <= 1e-12


@pytest.mark.parametrize("h, builds", [(1 / 32, 1), (1 / 64, 1), (1 / 128, 2)])
def test_coarse_level_only_on_wide_grids(problem_explicit, h, builds):
    cells, counting = counted_kernels()
    with counting:
        kernel = refine.build_kernel(problem_explicit, h)
        # read before the solve, which releases the coarse level
        coarse = kernel.coarse
        solve_fixed_point(kernel)
    assert len(cells) == builds and (coarse is None) == (builds == 1)
    if coarse is not None:  # the same rule at h = 1/32
        assert coarse.grid.h == 1 / 32 and coarse.grid.nx == coarse.grid.ny
        assert coarse.grid == refine._kernel_grid(problem_explicit.windows, 1 / 32)


def test_coarse_level_keeps_every_carried_window_resolved():
    # a coarse cell at 4h meets at most 5^2 fine cells, so a window of fewer
    # than 25 * _MIN_MASK_CELLS fine cells could fall below the rule there
    grid = refine.make_centered_grid(437 / 256, 1 / 128)
    assert refine._coarse_h(grid, 25 * refine._MIN_MASK_CELLS) == 1 / 32
    assert refine._coarse_h(grid, 25 * refine._MIN_MASK_CELLS - 1) is None


def test_square_toy_warm_starts_on_its_own_box():
    # AC10's grid covers the convolution supports, 1 from the origin like the
    # window, with the 0.082 margin: 555 cells at h = 1/256 and 139 at 1/64
    cells, counting = counted_kernels()
    with counting:  # records the coarse level, which build_kernel builds by its module name
        kernel = toy_kernel(1 / 256)
    assert cells == [1 / 64]
    assert kernel.grid.nx == 555 and kernel.coarse.grid.nx == 139
    warm = solve_fixed_point(kernel)
    with cold_start():
        cold_kernel = toy_kernel(1 / 256)
    cold = solve_fixed_point(cold_kernel)
    l1 = np.abs(warm.density.values - cold.density.values).sum() * kernel.grid.h**2
    assert l1 <= 1e-8


def test_prolongation_matches_bilinear_oracle(preset64):
    # a coarse density on the kernel's box at 4h, sampled at the mask cells
    _, kernel, _ = preset64
    fine = kernel.grid
    coarse = refine.make_centered_grid(fine.nx * fine.h / 2, 4 * fine.h)
    values = np.random.default_rng(5).uniform(size=(4, coarse.ny, coarse.nx))
    density = DensityGrid.from_values(coarse, values)
    X, Y = np.meshgrid(fine.x_centers(), fine.y_centers())
    rows = (Y - coarse.origin[1]) / coarse.h - 0.5
    cols = (X - coarse.origin[0]) / coarse.h - 0.5
    want = pack(kernel, np.array([refine.bilinear(v, rows, cols) for v in values]))
    assert np.abs(refine._prolong(density, kernel) - want).max() <= 1e-14


@pytest.mark.parametrize("h", [1 / 64, 1 / 60, 1 / 256])
def test_input_boxes_match_whole_grid_oracle(problem_area, h):
    # the boxes follow the windows, the grid and A alone, none of which reads the weights
    grid = refine._kernel_grid(problem_area.windows, h)
    masks = np.array([coverage(w, grid) > 0 for w in problem_area.windows])
    a_inv = np.linalg.inv(problem_area.a_matrix)
    for mask, want in zip(masks, oracle_input_boxes(grid, a_inv, masks)):
        got, _ = refine._input_stencil(grid, a_inv, mask)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    # masks whose preimage box reaches off the grid, tested over 99 cells around it
    toy = refine.make_centered_grid(1.0, 1 / 16)
    masks = np.zeros((3, toy.ny, toy.nx), dtype=bool)
    masks[0, 2:-2, 2:-2] = True
    masks[1, 10:14, 3:9] = True
    masks[2, -3:, -3:] = True
    for a_inv in (4.0 * np.eye(2), 0.25 * np.eye(2), np.array([[0.3, -1.7], [1.7, 0.3]])):
        got = [refine._input_stencil(toy, a_inv, mask)[0] for mask in masks]
        want = oracle_input_boxes(toy, a_inv, masks, margin=3 * toy.nx)
        got, want = ([np.concatenate(b).tolist() for b in boxes] for boxes in (got, want))
        assert got == want
        assert all(-3 * toy.nx < min(b) and max(b) < 4 * toy.nx for b in want)
        assert any(min(b) < 0 or max(b) > toy.nx for b in want) == (a_inv[0, 0] == 0.25)


@pytest.mark.parametrize("conserve_mass", [True, False])
def test_step_matches_oracle_on_square_toy(conserve_mass):
    kernel = toy_kernel(1 / 64)
    f = kernel.unpack(initial_density(kernel))
    for _ in range(3):
        f = assert_steps_agree(f, kernel, conserve_mass)


def test_fourier_product_matches_oracle(problem_area, problem_explicit):
    rng = np.random.default_rng(23)
    ks = np.vstack([rng.uniform(-30, 30, size=(20, 2)), [(0.0, 0.0), (3e-7, -2e-7)]])
    for problem in (problem_area, problem_explicit):
        for k in ks:
            got = fourier_product(problem, [k])[0]
            assert np.abs(got - oracle_fourier_product(problem, k)).max() <= 1e-12


def test_fourier_products_match_one_at_a_time(problem_area):
    # one table over every orbit gives each wavevector the bits of its own call
    rng = np.random.default_rng(29)
    ks = np.vstack([rng.uniform(-30, 30, size=(12, 2)), [(0.0, 0.0), (3e-7, -2e-7)]])
    batched = fourier_product(problem_area, ks)
    assert batched.shape == (len(ks), 4)
    for k, got in zip(ks, batched):
        assert np.abs(got - oracle_fourier_product(problem_area, k)).max() <= 1e-12
        assert got.tobytes() == fourier_product(problem_area, [k])[0].tobytes()


def test_fourier_product_matches_the_orbit_walk_under_a_non_normal_contraction(problem_area):
    # A = [[l, 5], [0, l]], l^2 = |det A| of the preset, so |det A| |det Q| = 1:
    # an orbit grows for a few steps before it contracts, and for k0 =
    # (x, -5 x / l), x = 1e-8, A^T k0 = (l x, ~0) falls below the tail while
    # (A^T)^2 k0 = (l^2 x, 5 l x) lies above it, so the orbit of k0 ends after
    # k0 alone
    lam = np.sqrt(abs(np.linalg.det(problem_area.a_matrix)))
    problem = dataclasses.replace(problem_area, a_matrix=np.array([[lam, 5.0], [0.0, lam]]))
    step = problem.a_matrix.T
    k0 = np.array([1e-8, -5e-8 / lam])
    assert np.hypot(*(step @ k0)) < refine._PRODUCT_TAIL <= np.hypot(*(step @ step @ k0))
    assert np.hypot(*(step @ (1.0, 0.0))) > 1
    rng = np.random.default_rng(37)
    turns = rng.uniform(0, 2 * np.pi, 6)
    ks = np.vstack([[k0, (0.0, 0.0), (1e-9, 0.0), (1.0, 0.0), (0.0, 1.0)],
                    rng.uniform(-10, 10, size=(8, 2)),
                    1e3 * np.column_stack([np.cos(turns), np.sin(turns)])])
    got = fourier_product(problem, ks)
    assert got.tobytes() == oracle_orbit_walk(problem, ks).tobytes()
    for k, row in zip(ks, got):
        assert np.abs(row - oracle_fourier_product(problem, k)).max() <= 1e-12


def test_grid_ft_matches_oracle(solve1_128):
    rng = np.random.default_rng(31)
    ks = np.vstack([rng.uniform(-30, 30, size=(25, 2)), [(0.0, 0.0)]])
    example1 = solve1_128.density
    assert not example1.values[0].any() and not example1.values[3].any()
    values = rng.uniform(size=(3, 41, 37))
    values[1] = 0.0
    toy = DensityGrid.from_values(GridSpec(origin=(-0.7, -0.6), h=1 / 32, nx=37, ny=41),
                                  values)
    for density in (example1, toy):
        got = refine.grid_ft(density, ks)
        assert np.abs(got - oracle_grid_ft(density, ks)).max() <= 1e-12
        assert np.all(got[~density.values.any(axis=(1, 2))] == 0)


def test_polygon_ft_table_matches_scalar(transitions):
    polygons = [t for row in transitions for t in row if t.is_polygon]
    rng = np.random.default_rng(29)
    # the edge sum cancels down to about eps * diameter / |k|, so both paths
    # agree to 1e-12 only from |k| ~ 1e-3 on; below FT_SMALL_K both expand
    kappas = np.vstack([rng.uniform(-50, 50, size=(30, 2)),
                        [(0.0, 0.0), (5e-7, 1e-7), (2e-3, -1e-3)]])
    table = polygon_ft(polygons, kappas)
    for n, kappa in enumerate(kappas):
        for p, P in enumerate(polygons):
            assert abs(table[n, p] - oracle_polygon_ft(P, kappa)) <= 1e-12
    with pytest.raises(ValueError, match="polygon"):
        polygon_ft([Region.single((0.0, 0.0))], kappas)


@st.composite
def convex_polygons(draw):
    """Points on a random ellipse with well separated angles."""
    n = draw(st.integers(3, 9))
    angles = np.sort(draw(st.lists(st.floats(0, 2 * np.pi), min_size=n, max_size=n)))
    gaps = np.diff(np.append(angles, angles[0] + 2 * np.pi))
    assume(gaps.min() > 0.2)
    rx, ry = draw(st.floats(0.05, 0.9)), draw(st.floats(0.05, 0.9))
    cx, cy = draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.4, 0.4))
    verts = np.column_stack([cx + rx * np.cos(angles), cy + ry * np.sin(angles)])
    try:
        return Region.polygon(verts)
    except ValueError:
        assume(False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(P=convex_polygons(), kn=st.floats(0.5, 60), angle=st.floats(0, 2 * np.pi))
def test_polygon_ft_matches_oracle(P, kn, angle):
    # the edge sums cancel to about eps * perimeter / (|k| area), so |k| starts
    # at 0.5; below FT_SMALL_K both take the centroid expansion
    ks = np.array([(kn * np.cos(angle), kn * np.sin(angle)), (0.0, 0.0),
                   (0.6 * refine.FT_SMALL_K, -0.7 * refine.FT_SMALL_K)])
    for k, got in zip(ks, polygon_ft([P], ks)[:, 0]):
        assert abs(got - oracle_polygon_ft(P, k)) <= 1e-12


@st.composite
def grids(draw):
    h = draw(st.sampled_from([1 / 8, 0.1, 1 / 32, 0.037, 1 / 64]))
    ox = -1.4 - draw(st.floats(0, 1)) * h
    oy = -1.4 - draw(st.floats(0, 1)) * h
    n = int(np.ceil(2.8 / h)) + 2
    return GridSpec(origin=(ox, oy), h=h, nx=n, ny=n)


def assert_exact_coverage(P, grid):
    """Coverage in [0, 1], within 1/64 of a 64^2-probe oracle in every cell,
    summing to the polygon's area, and positive wherever a probe is inside."""
    cov = coverage(P, grid)
    probed = oracle_rasterize(P, grid, 64)
    assert cov.min() >= 0.0 and cov.max() <= 1.0
    assert np.abs(cov - probed).max() <= 1 / 64
    assert abs(cov.sum() * grid.h**2 - area(P)) <= 1e-12
    assert np.all(cov[probed > 0] > 0)
    return cov


@settings(max_examples=60, derandomize=True, deadline=None)
@given(P=convex_polygons(), grid=grids())
def test_rasterize_matches_oracle(P, grid):
    assert_exact_coverage(P, grid)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(nodes=st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                      min_size=3, max_size=4, unique=True),
       h=st.sampled_from([1 / 16, 0.05, 1 / 32]))
def test_rasterize_matches_oracle_on_cell_edges(nodes, h):
    # vertices on grid nodes put whole edges on cell boundaries
    grid = GridSpec(origin=(-32 * h, -32 * h), h=h, nx=64, ny=64)
    try:
        P = Region.polygon(grid.origin + h * (np.array(nodes) + 32))
    except ValueError:
        assume(False)
    assert_exact_coverage(P, grid)


def test_rasterize_cells_touching_a_vertex_are_zero():
    # vertex on the node (1, 1) and an edge through the node (1.25, 1.25):
    # cells (row, col) (3, 3), (3, 4) and (4, 3) meet the triangle only at
    # the first node, and (5, 4) only at the second
    grid = GridSpec(origin=(0.0, 0.0), h=0.25, nx=8, ny=8)
    P = Region.polygon([(1.0, 1.0), (1.75, 1.25), (1.5, 1.5)])
    cov = assert_exact_coverage(P, grid)
    for cell in [(3, 3), (3, 4), (4, 3), (5, 4)]:
        assert cov[cell] == 0.0
    # between the diagonal and the side of slope 1/3: a third of the cell
    assert abs(cov[4, 4] - 1 / 3) <= 1e-15


# +0.0 is spliced in as "0" without formatting; every other value, -0.0, NaN
# and the infinities included, must print what `%.12g` prints
DENSITY_VALUES = st.one_of(st.just(0.0), st.just(-0.0), st.just(5e-324), st.just(-5e-324),
                           st.floats(0, 1e-300), st.floats(0, 1e3), st.floats(1e-6, 1e20),
                           st.floats(-1e3, 0), st.floats(allow_nan=True, allow_infinity=True),
                           st.sampled_from([np.inf, -np.inf, np.nan]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(), r=st.integers(1, 4), nx=st.integers(1, 9), ny=st.integers(1, 9),
       h=st.floats(1e-3, 2.0), ox=st.floats(-5, 5), oy=st.floats(-5, 5),
       chunk=st.integers(1, 60))
def test_density_writers_match_oracle(data, r, nx, ny, h, ox, oy, chunk):
    values = data.draw(arrays(np.float64, (r, ny, nx), elements=DENSITY_VALUES))
    # the writer's savings: channels of +0.0 only, every channel its own row
    # flip, channel r-1-j as channel j flipped, alone or broken by one -0.0
    # against a +0.0 or by one ulp
    values[data.draw(st.lists(st.integers(0, r - 1), unique=True))] = 0.0
    rows = data.draw(st.sampled_from([None, "mirror", "-0", "ulp"]))
    if rows is not None:
        values[:, (ny + 1) // 2:] = values[:, :ny // 2][:, ::-1]
    if data.draw(st.booleans()):
        for j in range(r // 2):
            values[r - 1 - j] = values[j][::-1, ::-1]
    if rows in ("-0", "ulp") and ny > 1:
        j, iy, ix = data.draw(st.tuples(st.integers(0, r - 1), st.integers(0, ny // 2 - 1),
                                        st.integers(0, nx - 1)))
        if rows == "-0":
            values[j, iy, ix], values[j, ny - 1 - iy, ix] = 0.0, -0.0
        else:
            values[j, iy, ix:ix + 1].view(np.uint64)[0] ^= 1
    density = DensityGrid(grid=GridSpec(origin=(ox, oy), h=h, nx=nx, ny=ny),
                          values=values, masses=np.zeros(r))
    channels = data.draw(st.lists(st.integers(0, r - 1), unique=True))
    want_grids = {}
    for j in range(r):
        want_grids[j] = io.StringIO()
        oracle_write_density_grid(density, j, want_grids[j])
    want_csv = io.StringIO()
    oracle_write_density_csv(density, want_csv)
    with mock.patch.object(text, "WRITE_CHUNK_VALUES", chunk):
        # grids only (a drawn subset of channels), CSV only, and both in one pass
        for grid_channels, with_csv in [(channels, False), ([], True), (channels, True)]:
            grids = {j: io.StringIO() for j in grid_channels}
            csv = io.StringIO() if with_csv else None
            refine.write_density(density, grids, csv)
            for j in grid_channels:
                assert grids[j].getvalue() == want_grids[j].getvalue()
            if with_csv:
                assert csv.getvalue() == want_csv.getvalue()
        # the one-output entry points
        got = io.StringIO()
        refine.write_density_csv(density, got)
        assert got.getvalue() == want_csv.getvalue()
        for j in range(r):
            got = io.StringIO()
            refine.write_density_grid(density, j, got)
            assert got.getvalue() == want_grids[j].getvalue()


def assert_formats(values, chunk, count):
    """write_density of a 5 x 7 grid matches the oracle writers after formatting
    `count` values, coordinates included."""
    density = DensityGrid(grid=GridSpec(origin=(-0.3, -0.4), h=0.1, nx=5, ny=7),
                          values=values, masses=np.zeros(len(values)))
    formatted = []
    format_samples = text.format_samples

    def counted(array):
        formatted.append(np.size(array))
        return format_samples(array)

    grids = {j: io.StringIO() for j in range(len(values))}
    csv = io.StringIO()
    with mock.patch.object(text, "WRITE_CHUNK_VALUES", chunk), \
            mock.patch.object(text, "format_samples", counted):
        refine.write_density(density, grids, csv)
    assert sum(formatted) == count
    for j in grids:
        want = io.StringIO()
        oracle_write_density_grid(density, j, want)
        assert grids[j].getvalue() == want.getvalue()
    want = io.StringIO()
    oracle_write_density_csv(density, want)
    assert csv.getvalue() == want.getvalue()
    return grids


def row_mirrored_channels():
    """Four random channels, each its own row flip, 4 and 3 (1-based) the point
    reflections of 1 and 2, and +0.0 at two cells of channel 2 and so of 3."""
    values = np.random.default_rng(4).uniform(size=(4, 7, 5))
    values[:, 4:] = values[:, 2::-1]
    values[1, 2, 3] = values[1, 4, 3] = 0.0
    values[3] = values[0][::-1, ::-1]
    values[2] = values[1][::-1, ::-1]
    return values


@pytest.mark.parametrize("chunk", [11, 60, 10**6])  # 1, 3 (the last block short) or 7 rows
@pytest.mark.parametrize("exact", [True, False])
def test_density_writer_formats_a_mirrored_channel_once(exact, chunk):
    # channels 4 and 3 (1-based) are channels 1 and 2 flipped; unless `exact`,
    # one sample of channel 3 is -0.0 where channel 2 has +0.0, which compares
    # equal but prints "-0"; no channel is its own row flip, so every row of
    # every channel is formatted: a pair shares its text only under the row
    # mirror, where the shared rows are those of the same block
    rng = np.random.default_rng(4)
    values = rng.uniform(size=(4, 7, 5))
    values[1, 2, 3] = 0.0
    values[3] = values[0][::-1, ::-1]
    values[2] = values[1][::-1, ::-1]
    if not exact:
        values[2, 4, 1] = -0.0
    grids = assert_formats(values, chunk, 5 + 7 + 4 * 35)
    assert ("-0" in grids[2].getvalue().split()) != exact


@pytest.mark.parametrize("chunk", [11, 60, 10**6])  # 1, 3 (the last block short) or 4 rows
@pytest.mark.parametrize("exact", [True, False])
def test_density_writer_formats_rows_up_to_the_centre_once(exact, chunk):
    # as above, with every channel its own row flip, so only the 4 rows up to
    # the centre are formatted; unless `exact`, channel 3 holds -0.0 at both
    # cells where channel 2 has +0.0, which keeps its row flip
    values = row_mirrored_channels()
    if not exact:
        values[2, 2, 1] = values[2, 4, 1] = -0.0
    grids = assert_formats(values, chunk, 5 + 7 + (2 if exact else 3) * 4 * 5)
    assert ("-0" in grids[2].getvalue().split()) != exact


@pytest.mark.parametrize("chunk", [11, 60, 10**6])
def test_density_writer_formats_every_row_without_a_row_mirror(chunk):
    # one -0.0 against a +0.0 breaks channel 3's row flip, so every row of
    # every channel is formatted, channel 4 too, though it is channel 1 flipped
    values = row_mirrored_channels()
    values[2, 4, 1] = -0.0
    assert_formats(values, chunk, 5 + 7 + 4 * 7 * 5)


def test_density_writer_formats_a_chunk_at_a_time(solve2_128):
    # 437^2 samples a channel, more than a chunk: a mirrored pair's shared text
    # is formatted a row block at a time too, never the whole channel at once
    density = solve2_128.density
    assert density.grid.nx * density.grid.ny > text.WRITE_CHUNK_VALUES
    formatted = []
    format_samples = text.format_samples

    def counted(array):
        formatted.append(np.size(array))
        return format_samples(array)

    with mock.patch.object(text, "format_samples", counted):
        refine.write_density(density, {j: io.StringIO() for j in range(4)}, io.StringIO())
    assert max(formatted) <= text.WRITE_CHUNK_VALUES
    # the coordinates, then channels 1 and 2 (1-based), whose flips are 4 and 3,
    # over the rows up to the centre row, whose flips are the rows past it
    assert sum(formatted) == 2 * 437 + 2 * 219 * 437


def coordinates(n):
    """Sample positions along an axis of n nodes, with the edge cases of
    map_coordinates' constant mode: exact nodes, the last node, and the
    nearest doubles past either end."""
    return st.one_of(st.floats(-1.5, n + 0.5), st.integers(-1, n).map(float),
                     st.sampled_from([float(n - 1), np.nextafter(n - 1, np.inf),
                                      np.nextafter(0.0, -np.inf), -0.0]))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data(), ny=st.integers(1, 12), nx=st.integers(1, 12),
       count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_bilinear_matches_map_coordinates(data, ny, nx, count, seed):
    # dense random values and positions, with drawn values and positions for
    # the edge cases; the four rounded terms may be summed in any order
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1e3, 1e3, (ny, nx))
    drawn = data.draw(arrays(bool, (ny, nx)))
    values[drawn] = data.draw(arrays(np.float64, int(drawn.sum()), elements=st.one_of(
        st.floats(-1e3, 1e3), st.just(0.0), st.just(-0.0))))
    rows = np.append(rng.uniform(-1.5, ny + 0.5, count), data.draw(
        st.lists(coordinates(ny), min_size=count, max_size=count)))
    cols = np.append(rng.uniform(-1.5, nx + 0.5, count), data.draw(
        st.lists(coordinates(nx), min_size=count, max_size=count)))
    got = refine.bilinear(values, rows, cols)
    want = map_coordinates(values, [rows, cols], order=1, mode="constant", cval=0.0,
                           prefilter=False)
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(values).max()


def test_next_fast_len_matches_scipy():
    for n in range(1, 4097):
        assert refine.next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


def inverse_rows(spectrum, shape, rows, block_rows):
    """refine.irfft2's row blocks of `rows`, joined, made in a block wider than a row
    as the step's is; each block's offset is checked against the rows before it."""
    parts = []
    for offset, part in refine.irfft2(spectrum, shape, rows, np.empty((block_rows, shape[1] + 2))):
        assert offset == sum(map(len, parts)) and len(part) <= block_rows
        parts.append(part.copy())
    return np.concatenate(parts)


def assert_ffts_match_scipy(shape, rng):
    a = rng.standard_normal((max(1, shape[0] - 3), max(1, shape[1] - 2)))
    spectrum = np.fft.rfft2(a, s=shape)
    assert np.array_equal(spectrum, scipy.fft.rfft2(a, s=shape))
    assert refine.rfft2(a, shape).tobytes() == spectrum.tobytes()
    assert refine.rfft2(a[:1], shape).tobytes() == np.fft.rfft2(a[:1], s=shape).tobytes()
    spectrum *= rng.standard_normal(spectrum.shape)
    want = scipy.fft.irfft2(spectrum, s=shape)
    # numpy scales each axis pass and scipy the whole transform once, so the
    # inverse agrees to a few units in the last place of its largest value
    tol = 8 * np.finfo(float).eps * np.abs(want).max()
    rows = slice(shape[0] // 3, shape[0] - shape[0] // 4)
    assert np.abs(inverse_rows(spectrum.copy(), shape, rows, 7) - want[rows]).max() <= tol
    assert np.abs(inverse_rows(spectrum, shape, slice(0, shape[0]), 64) - want).max() <= tol


def test_ffts_match_scipy_on_kernel_shapes(preset64):
    kernel, _, _ = preset64
    assert_ffts_match_scipy(kernel.fft_shape, np.random.default_rng(0))


def test_ffts_match_scipy_on_random_shapes():
    rng = np.random.default_rng(1)
    for _ in range(40):
        shape = tuple(refine.next_fast_len(int(n)) for n in rng.integers(1, 300, 2))
        assert_ffts_match_scipy(shape, rng)
    for shape in [(7, 11), (13, 1), (1, 17), (400, 384), (375, 400)]:
        assert_ffts_match_scipy(shape, rng)
