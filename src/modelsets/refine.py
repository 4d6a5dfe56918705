"""Discretized invariant-density solve and its Fourier-side cross-check.

Densities live on one shared square grid with an odd number of cells per
axis and a cell centered at the origin.  With that layout the difference
of two cell centers is again a cell-center offset, so the discrete
convolution in the refinement step lands exactly on the grid and the
point reflection u -> -u is an exact array flip.  `build_kernel` takes the
cell size h; at every level of a solve the grid is the smallest such grid
that covers, with a margin of _GRID_PAD, every window, every transition
window with nu_ji != 0 and each support box bbox(T_ji) + bbox(A W_i).

`build_kernel` builds what the fixed-point solve reads and nothing else.
It takes the mass vector w: only channels with w_j > 0 carry mass.  When
`point_symmetric` holds, f_{r-1-j}(u) = f_j(-u), and the solve carries only
the live channels j <= r-1-j, so that channel r-1-j is the exact flip of
channel j.  The kernel rasterizes the windows of the carried channels and
the transitions (j, i) with j carried, i live and nu_ji != 0: on the first
example 1 window and 2 blocks, on the second 2 windows and 6 blocks.  A
mirrored channel's mask and input box are the flips of its partner's.

The refinement step is evaluated spectrally.  The kernel fixes the box of
cells where each contracted input channel can be non-zero, the bounding box
of each carried output's window mask, one periodic FFT shape long enough
that every linear convolution from an input box into its output hull fits
without wrapping, the bilinear stencil that samples each carried input, and
the real FFT of each placed block, already weighted by nu_ji.  A step costs
one stencil pass and one forward transform per non-zero carried input and
one inverse transform per carried output, and the circular result equals
the linear one on the mask.  Flipping a box of b cells on a period of n
turns X_k into conj(X_k) e^{-2 pi i k (b - 1) / n} per axis.  That phase is
folded, conjugated, into the spectrum of each block a mirrored input meets,
so such an input needs no stencil pass, transform or phased copy: its terms
are products with the carried input's transform, summed and conjugated once.

The step works on packed densities: one vector of the mask cells of the
carried channels.  The fixed-point solve keeps its whole state in that form
and builds a full grid only for its result.  On a grid at least four times
as wide as the coarsest level worth solving (_COARSE_CELLS cells a side), the
kernel also holds the kernel of the same problem at 2^k h, and the solve
first solves there and starts from that solution, interpolated onto the
fine mask cells (nested iteration, Brandt 1977).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, cycle, repeat

import numpy as np
from numpy import fft

from . import text
from .polygeom import GridSpec, area, centroid, rasterize

FT_SMALL_K = 1e-6
_PRODUCT_TAIL = 1e-8
_MIX_DEPTH = 2  # residual differences in each Anderson fit
_GRID_PAD = 0.082
_COARSE_CELLS = 100  # cells per axis of the coarsest grid a warm start solves on
_MIN_MASK_CELLS = 64  # fewest cells a carried window may meet: a grid that resolves it


def make_centered_grid(half_extent, h):
    """Odd-sized symmetric grid with a cell centered at the origin."""
    m = int(np.ceil(half_extent / h - 0.5))
    n = 2 * m + 1
    o = -(m + 0.5) * h
    return GridSpec(origin=(o, o), h=h, nx=n, ny=n)


def _kernel_grid(windows, windows_ji, nu, a_matrix, h):
    """The smallest centered grid of cell h that covers, with a margin of
    _GRID_PAD, every window, every transition window (j, i) with nu_ji != 0
    and the bounding box of its convolution support, bbox(T_ji) + bbox(A W_i)."""
    corners = [w.vertices for w in windows]
    for j, i in zip(*np.nonzero(nu)):
        t, image = windows_ji[j][i].vertices, windows[i].vertices @ a_matrix.T
        corners += [t, t.min(axis=0) + image.min(axis=0), t.max(axis=0) + image.max(axis=0)]
    return make_centered_grid(float(np.abs(np.vstack(corners)).max()) + _GRID_PAD, h)


@dataclass
class DensityGrid:
    """Channelled non-negative sample grid; masses are cached integrals."""

    grid: GridSpec
    values: np.ndarray  # (r, ny, nx)
    masses: np.ndarray  # (r,)

    @classmethod
    def from_values(cls, grid, values):
        values = np.asarray(values, dtype=float)
        masses = values.sum(axis=(1, 2)) * grid.h**2
        return cls(grid=grid, values=values, masses=masses)

    @property
    def r(self):
        return self.values.shape[0]


@dataclass
class _Block:
    arr: np.ndarray
    iy0: int
    ix0: int


@dataclass
class RefinementKernel:
    """What the refinement step of one solve reads, on a shared grid.

    Per-channel lists hold None, and `masks` no cell, for a channel the step
    does not read.  A packed density is one float64 vector of the mask cells
    of the carried channels, channel by channel, each in row-major order; it
    unpacks with every other channel exactly zero, except that channel
    mirrors[j] is the flip of channel j.
    """

    grid: GridSpec
    a_inv: np.ndarray
    detq_abs: float
    nu: np.ndarray
    w: np.ndarray           # masses the solve holds: w, averaged with its flip in the quotient
    channels: list          # (carried channel j, its slice of a packed density), j increasing
    mirrors: dict           # carried j < r-1-j -> r-1-j in the quotient; their cells lead
    masks: np.ndarray       # (r, ny, nx) bool, cells meeting window j, for j carried or mirrored
    indicators: list        # per carried channel j: normalized window raster on its mask
                            # cells, in row-major order
    blocks: list            # r x r: normalized raster of transition (j, i) for j carried,
                            # i live and nu_ji != 0, cropped to its box; else None
    boxes: list             # per live channel i: (lo, hi) of the cells f_i(A^-1 y) reaches,
                            # or None
    stencils: list          # per carried channel with a box: the Stencil that samples it
    outputs: list           # per carried channel j: (grid slices of the mask's bounding
                            # box, the same cells in the periodic result)
    fft_shape: tuple        # common periodic shape of every spectrum
    spectra: list           # r x r: rfft2 of the placed nu_ji |det Q| h^2 block (j, i); for a
                            # mirrored i, its conjugate times the conjugated mirror phases of
                            # box i, which multiplied into the transform of input r-1-i and
                            # conjugated gives the term of input i
    coarse: RefinementKernel | None  # the same problem at 2^k h

    def pack(self, values):
        return np.concatenate([values[j][self.masks[j]] for j, _ in self.channels])

    def unpack(self, x):
        values = np.zeros(self.masks.shape)
        for j, cells in self.channels:
            values[j][self.masks[j]] = x[cells]
            if j in self.mirrors:
                values[self.mirrors[j]] = values[j][::-1, ::-1]
        return DensityGrid.from_values(self.grid, values)

    def masses(self, x):
        masses = np.zeros(len(self.masks))
        for j, cells in self.channels:
            masses[j] = masses[self.mirrors.get(j, j)] = x[cells].sum() * self.grid.h**2
        return masses


def next_fast_len(n):
    """Smallest 5-smooth integer >= n, a length pocketfft's real transforms
    are fast on."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def rfft2(a, shape):
    """fft.rfft2(a, s=shape), with the row pass run only over the rows of `a`: the
    rows that pad it to `shape` are zero, and so is their row transform."""
    rows = np.zeros((shape[0], shape[1] // 2 + 1), dtype=complex)
    rows[:len(a)] = fft.rfft(a, n=shape[1], axis=1)
    return fft.fft(rows, axis=0)  # not in place: that raised peak RSS by 5 MB


def irfft2(a, shape, rows=slice(None)):
    """Rows `rows` (by default all) of the inverse of fft.rfft2 on `shape`.

    Overwrites the spectrum `a`: the column pass runs in place, and the row
    pass runs only over `rows`.
    """
    fft.ifft(a, axis=0, out=a)
    return fft.irfft(a[rows], n=shape[1], axis=1)


@dataclass
class Stencil:
    """Bilinear samples of an (ny, nx) array at fixed fractional positions.

    Sampling reads a frame: the array flattened, followed by nx + 2 zero
    cells.  `index` is the flat frame index of each sample's lower-left node
    (row floor(row), column floor(col)) and `r0`, `c0` are the weights
    1 - (row - floor(row)) and 1 - (col - floor(col)) of the lower row and
    column.  As in order-1 map_coordinates with mode "constant" and cval 0,
    a position outside [0, ny - 1] x [0, nx - 1] samples 0: its index is the
    first tail cell, so all four of its nodes are zero.  A position on the
    last row or column reads its other node, of weight 0, from the tail.
    """

    index: np.ndarray  # int32
    r0: np.ndarray
    c0: np.ndarray
    width: int  # nx, the frame's row stride

    @classmethod
    def at(cls, rows, cols, shape):
        ny, nx = shape
        lo_r = np.floor(rows)
        lo_c = np.floor(cols)
        inside = (rows >= 0) & (rows <= ny - 1) & (cols >= 0) & (cols <= nx - 1)
        index = np.where(inside, lo_r * nx + lo_c, ny * nx).astype(np.int32)
        return cls(index=index, r0=1.0 - (rows - lo_r), c0=1.0 - (cols - lo_c), width=nx)

    @staticmethod
    def frame(shape):
        """A zero frame for an array of `shape`, and that array as a view of it."""
        ny, nx = shape
        flat = np.zeros(ny * nx + nx + 2)
        return flat, flat[:ny * nx].reshape(ny, nx)

    def sample(self, flat):
        """The samples, of the shape of `index`, read from a frame."""
        r1 = 1.0 - self.r0
        c1 = 1.0 - self.c0
        # every index is in range by construction; mode "clip" spares take
        # the buffered copy of `out` that its checking mode makes
        out = np.take(flat, self.index, mode="clip")
        out *= self.r0
        out *= self.c0
        term = np.empty_like(out)
        for shift, row_w, col_w in ((1, self.r0, c1), (self.width, r1, self.c0),
                                    (self.width + 1, r1, c1)):
            np.take(flat[shift:], self.index, out=term, mode="clip")
            term *= row_w
            term *= col_w
            out += term
        return out


def bilinear(values, rows, cols):
    """Order-1 samples of a 2-D array at fractional (row, col) positions, 0 off it."""
    flat, view = Stencil.frame(values.shape)
    view[...] = values
    return Stencil.at(rows, cols, values.shape).sample(flat)


def _box(arr):
    """First and one-past-last (row, col) of the non-zero entries."""
    rows = np.flatnonzero(arr.any(axis=1))
    cols = np.flatnonzero(arr.any(axis=0))
    return np.array([rows[0], cols[0]]), np.array([rows[-1] + 1, cols[-1] + 1])


def _slices(lo, hi):
    return slice(int(lo[0]), int(hi[0])), slice(int(lo[1]), int(hi[1]))


def _crop(raster):
    lo, hi = _box(raster)
    # a copy, so the block does not keep the whole raster alive
    return _Block(arr=raster[_slices(lo, hi)].copy(), iy0=int(lo[0]), ix0=int(lo[1]))


def _contracted(grid, a_inv, box=(slice(None), slice(None))):
    """Row and column, in cells, of A^-1 c at each cell center c of `box`, updated in
    place: the roundings of (A^-1 c - origin) / h - 0.5 without full-size temporaries."""
    x = grid.x_centers()[box[1]][None, :]
    y = grid.y_centers()[box[0]][:, None]
    rows = a_inv[1, 0] * x + a_inv[1, 1] * y
    rows -= grid.origin[1]
    rows /= grid.h
    rows -= 0.5
    cols = a_inv[0, 0] * x + a_inv[0, 1] * y
    cols -= grid.origin[0]
    cols /= grid.h
    cols -= 0.5
    return rows, cols


def _input_stencil(grid, a_inv, mask):
    """The box (lo, hi) of cells where f_i(A^-1 y) can be non-zero and the Stencil
    that samples channel i at A^-1 y for the cells y of that box, or (None, None).

    A bilinear sample of a channel that vanishes off its mask is zero unless
    one of the four stencil nodes around A^-1 y lies on the mask, which puts
    A^-1 y within a cell of the mask's bounding box.  Only the cells whose
    centres lie within a cell of the image of that region under A are
    tested, each through its stencil, which samples a frame: the mask's
    bounding box padded by one zero cell on every side, holding every node
    that can be non-zero.
    """
    a_matrix = np.linalg.inv(a_inv)
    origin = np.array(grid.origin)
    lo, hi = _box(mask)
    # corners (x, y) of the mask's bounding box grown by a cell, mapped by A
    corners = a_matrix @ (origin[:, None] + grid.h * np.array(
        [[lo[1] - 1, lo[1] - 1, hi[1] + 1, hi[1] + 1],
         [lo[0] - 1, hi[0] + 1, lo[0] - 1, hi[0] + 1]]))
    first = np.maximum(np.floor((corners.min(axis=1) - origin) / grid.h) - 1, 0)
    last = np.minimum(np.ceil((corners.max(axis=1) - origin) / grid.h) + 1,
                      [grid.nx, grid.ny])
    near_lo = first[::-1].astype(int)  # (row, col) of the first tested cell
    rows, cols = _contracted(grid, a_inv, _slices(near_lo, last[::-1]))
    frame = tuple(hi - lo + 2)  # the frame's origin is one cell before lo
    stencil = Stencil.at(rows - (lo[0] - 1), cols - (lo[1] - 1), frame)
    # per frame cell, whether a stencil node there lies on the mask; the tail
    # cell, where the positions off the frame point, reads False
    pad = np.pad(mask[_slices(lo, hi)], (1, 2))
    near = pad[:-1, :-1] | pad[1:, :-1] | pad[:-1, 1:] | pad[1:, 1:]
    touched = np.append(near, False)[stencil.index]
    if not touched.any():
        return None, None
    t_lo, t_hi = _box(touched)
    box = _slices(t_lo, t_hi)
    return (t_lo + near_lo, t_hi + near_lo), Stencil(
        stencil.index[box], stencil.r0[box], stencil.c0[box], stencil.width)


def _spectral_plan(grid, masks, blocks, boxes, carried):
    """Periodic FFT shape, output boxes and block placements of the step.

    The hull of carried output channel j covers its mask's bounding box and,
    for every i with a block and an input box, the linear-convolution support
    of input box i with block (j, i).  The shape holds the longest hull, so
    placing each block at its offset from the hull start makes the circular
    convolution exact on the hull.
    """
    r = len(masks)
    centre = np.array([(grid.ny - 1) // 2, (grid.nx - 1) // 2])
    hulls = {}
    for j in carried:
        box_lo, box_hi = _box(masks[j])
        lo, hi = box_lo, box_hi
        starts = {}
        for i in range(r):
            if blocks[j][i] is None or boxes[i] is None:
                continue
            in_lo, in_hi = boxes[i]
            offset = np.array([blocks[j][i].iy0, blocks[j][i].ix0]) - centre
            starts[i] = in_lo + offset
            lo = np.minimum(lo, starts[i])
            hi = np.maximum(hi, in_hi + offset + blocks[j][i].arr.shape - 1)
        hulls[j] = (box_lo, box_hi, lo, hi, starts)
    shape = tuple(next_fast_len(int(n))
                  for n in np.max([hi - lo for _, _, lo, hi, _ in hulls.values()], axis=0))
    placements = [[None] * r for _ in range(r)]
    outputs = [None] * r
    for j, (box_lo, box_hi, lo, _, starts) in hulls.items():
        for i, start in starts.items():
            placements[j][i] = _slices(start - lo, start - lo + blocks[j][i].arr.shape)
        outputs[j] = (_slices(box_lo, box_hi), _slices(box_lo - lo, box_hi - lo))
    return shape, outputs, placements


def _mirror_phases(box, shape):
    """Row and column factors e^{-2 pi i k (b - 1) / n} of the rfft2 of a box of
    b cells per axis flipped on a period of n, the integer products reduced mod n."""
    k0, k1 = np.arange(shape[0])[:, None], np.arange(shape[1] // 2 + 1)
    return tuple(np.exp(-2j * np.pi * (k * (b - 1) % n) / n)
                 for k, b, n in zip((k0, k1), box[1] - box[0], shape))


def point_symmetric(windows, windows_ji, nu, w):
    """Whether nu and w equal their 180-degree flips to 1e-12 and windows r-1-j
    and (r-1-j, r-1-i) have the negated vertex sets of j and (j, i).  On a grid
    centered on a cell, their masks and input boxes are then mirror images."""
    groups = [windows, [t for row in windows_ji for t in row]]
    return bool(np.abs(nu - nu[::-1, ::-1]).max() <= 1e-12
                and np.abs(w - w[::-1]).max() <= 1e-12
                and all({tuple(v) for v in p.vertices} == {tuple(-v) for v in q.vertices}
                        for g in groups for p, q in zip(g, g[::-1])))


def _coarse_h(grid, cells):
    """2^k h for the largest k that leaves at least _COARSE_CELLS cells per axis of
    the grid's width, or None when that k is below 2 or a window meeting `cells`
    cells here could meet fewer than _MIN_MASK_CELLS there: a coarse cell meets
    at most (2^k + 1)^2 fine ones."""
    k = int(np.log2(max(grid.nx, grid.ny) / _COARSE_CELLS))
    if k < 2 or cells < _MIN_MASK_CELLS * (2**k + 1)**2:
        return None
    return grid.h * 2**k


def build_kernel(windows, windows_ji, nu, a_matrix, detq_abs, w, h):
    """Rasterize and transform what the solve for the masses w reads, at cell size h.

    The grid is the one `_kernel_grid` sizes for h.  The live channels are
    those with w_j > 0; the carried ones are all of them, or in the
    point-reflection quotient those with j <= r-1-j.  Window and transition
    rasters are normalized by their discrete integral, so each one sums to
    exactly one cell measure.  Raises when w is not fixed by nu, when a
    positive weight sits on a measure-zero window, carried or not, or when a
    carried window meets fewer than _MIN_MASK_CELLS cells.
    """
    nu = np.asarray(nu, dtype=float)
    a_matrix = np.asarray(a_matrix, dtype=float)
    w = np.asarray(w, dtype=float)
    r = len(windows)
    if nu.shape != (r, r):
        raise ValueError("nu shape does not match the window count")
    det_a = abs(np.linalg.det(a_matrix))
    if abs(det_a * detq_abs - 1.0) > 1e-9:
        raise ValueError("determinant mismatch: |det A| * |det Q| must be 1")
    for j, i in zip(*np.nonzero(nu)):
        if not windows_ji[j][i].is_polygon:
            raise ValueError(f"ghost transition ({j + 1},{i + 1}): positive "
                             "weight on a measure-zero window")
    grid = _kernel_grid(windows, windows_ji, nu, a_matrix, h)
    if np.max(np.abs(nu @ w - w)) > 1e-8:
        raise ValueError("the weight matrix does not fix w (its spectral "
                         "radius must be one)")
    quotient = point_symmetric(windows, windows_ji, nu, w)
    held = 0.5 * (w + w[::-1]) if quotient else w
    live = held > 0
    carried = [j for j in range(r) if live[j] and (j <= r - 1 - j or not quotient)]
    mirrors = {j: r - 1 - j for j in carried if quotient and j < r - 1 - j}
    h2 = grid.h**2
    masks = np.zeros((r, grid.ny, grid.nx), dtype=bool)
    indicators = [None] * r
    cells = []
    for j in carried:
        cov = rasterize(windows[j], grid)
        masks[j] = cov > 0
        cells.append(int(masks[j].sum()))
        if cells[-1] < _MIN_MASK_CELLS:
            raise ValueError(f"unresolved grid: window {j + 1} meets {cells[-1]} cells, "
                             f"fewer than {_MIN_MASK_CELLS}")
        indicators[j] = cov[masks[j]] / (cov.sum() * h2)
    blocks = [[None] * r for _ in range(r)]
    for j in carried:
        for i in np.flatnonzero(live & (nu[j] != 0)):
            cov = rasterize(windows_ji[j][i], grid)
            blocks[j][i] = _crop(cov / (cov.sum() * h2))
    a_inv = np.linalg.inv(a_matrix)
    boxes = [None] * r
    stencils = [None] * r
    for j in carried:
        boxes[j], stencils[j] = _input_stencil(grid, a_inv, masks[j])
    size = np.array([grid.ny, grid.nx])
    for j, m in mirrors.items():
        masks[m] = masks[j][::-1, ::-1]
        boxes[m] = None if boxes[j] is None else (size - boxes[j][1], size - boxes[j][0])
    fft_shape, outputs, placements = _spectral_plan(grid, masks, blocks, boxes, carried)
    spectra = [[None] * r for _ in range(r)]
    for j in carried:
        for i, placement in enumerate(placements[j]):
            if placement is None:
                continue
            padded = np.zeros(fft_shape)
            padded[placement] = blocks[j][i].arr * (nu[j, i] * float(detq_abs) * h2)
            spectra[j][i] = fft.rfft2(padded)
            if i in mirrors.values():
                for factor in _mirror_phases(boxes[i], fft_shape):
                    spectra[j][i] *= factor
                np.conjugate(spectra[j][i], out=spectra[j][i])
    ends = np.cumsum([0] + cells).tolist()
    coarse_h = _coarse_h(grid, min(cells))
    return RefinementKernel(
        grid=grid, a_inv=a_inv, detq_abs=float(detq_abs), nu=nu, w=held,
        channels=[(j, slice(ends[n], ends[n + 1])) for n, j in enumerate(carried)],
        mirrors=mirrors, masks=masks, indicators=indicators, blocks=blocks, boxes=boxes,
        stencils=stencils, outputs=outputs, fft_shape=fft_shape, spectra=spectra,
        coarse=None if coarse_h is None else
        build_kernel(windows, windows_ji, nu, a_matrix, detq_abs, w, coarse_h))


def _uniform(kernel):
    """The masses w spread uniformly over the carried windows, packed."""
    return np.concatenate([kernel.w[j] * kernel.indicators[j] for j, _ in kernel.channels])


def initial_density(kernel):
    """The masses w spread uniformly over the component windows."""
    return kernel.unpack(_uniform(kernel))


def _output_cells(kernel, j, transformed):
    """Output channel j on its mask cells, before clamping, or None if no input reaches it.

    Sums the products of the nu-weighted kernel spectra with the input
    spectra in one reused product buffer: first the terms of the mirrored
    inputs, each read through its carried partner's transform and
    conjugated once, then the direct ones.  One inverse transform over the
    rows of the output box follows.
    """
    spectra = kernel.spectra[j]
    flipped = [(spectra[m], i) for i, m in kernel.mirrors.items()
               if i in transformed and spectra[m] is not None]
    direct = [(spectra[i], i) for i in transformed if spectra[i] is not None]
    total = product = None
    for terms in (flipped, direct):
        for spectrum, i in terms:
            if total is None:
                total = spectrum * transformed[i]
            else:
                product = np.multiply(spectrum, transformed[i], out=product)
                total += product
        if terms is flipped and total is not None:
            np.conjugate(total, out=total)
    del product
    if total is None:
        return None
    box, (rows, cols) = kernel.outputs[j]
    values = irfft2(total, kernel.fft_shape, rows)
    del total  # freed before the mask cells are gathered
    return values[:, cols][kernel.masks[j][box]]


def _packed_step(x, masses, kernel, conserve_mass=True):
    """The refinement step on a packed density whose channel masses are given.

    Input channels the kernel does not carry are taken to be zero and output
    channels it does not carry are not formed; the solve needs no more, since
    w = nu w forces nu_ji = 0 from a live channel i into a dead channel j.  A
    mirrored input r-1-i is read through input i's transform.
    """
    h2 = kernel.grid.h**2
    transformed = {}
    for i, cells in kernel.channels:
        if not x[cells].any() or kernel.stencils[i] is None:
            continue
        inside = kernel.masks[i][kernel.outputs[i][0]]
        flat, padded = Stencil.frame((inside.shape[0] + 2, inside.shape[1] + 2))
        padded[1:-1, 1:-1][inside] = x[cells]
        transformed[i] = rfft2(kernel.stencils[i].sample(flat), kernel.fft_shape)
    target = kernel.nu @ masses
    out = np.zeros_like(x)
    for j, cells in kernel.channels:
        acc = _output_cells(kernel, j, transformed)
        if acc is None:
            continue
        np.maximum(acc, 0.0, out=acc)
        if conserve_mass:
            raw = acc.sum() * h2
            if raw > 0 and target[j] > 0:
                acc *= target[j] / raw
        out[cells] = acc
        del acc  # freed before the next channel's products
    return out


def apply_refinement(f, kernel, conserve_mass=True):
    """One application of the matrix refinement operator.

    Each input channel is resampled through the inverse contraction with
    bilinear interpolation, convolved with the weighted transition kernels,
    scaled by |det Q|, clamped at zero, and restricted to the cells meeting
    its component window.  By default every output channel is rescaled by a
    1 + O(h^2) factor so the discrete masses satisfy the exact transport
    identity m' = nu m; without that correction the discrete operator's
    spectral radius drifts off one by the quadrature error and the
    fixed-point residual cannot fall below it.

    Channel i of f is taken to vanish off kernel.masks[i], as every density
    the solver produces does; values outside the mask, and so every channel
    the kernel does not read, are ignored.  The step forms the kernel's
    carried channels, and its mirrored ones as their flips.  The
    convolutions run as products of the kernel's spectra, with one transform
    per non-zero input channel, and an all-zero channel is skipped.
    """
    return kernel.unpack(_packed_step(kernel.pack(f.values), f.masses, kernel,
                                      conserve_mass))


@dataclass
class FixedPointResult:
    density: DensityGrid
    residuals: np.ndarray
    mass_history: list

    @property
    def iterations(self):
        return len(self.residuals)


def _mixing_weights(gram):
    """Affine weights, summing to one, of the residual combination of least L2 norm.

    `gram` holds the inner products of the stored residuals, newest last.
    The fit runs over the differences from the newest residual, which keeps
    the small normal system well scaled as the residuals shrink.
    """
    n = len(gram) - 1
    if n == 0:
        return np.ones(1)
    normal = gram[n, n] - gram[n, :n][None, :] - gram[:n, n][:, None] + gram[:n, :n]
    gamma = np.linalg.lstsq(normal, gram[n, n] - gram[:n, n], rcond=None)[0]
    return np.append(gamma, 1.0 - gamma.sum())


def _interpolation(points, nodes):
    """Matrix of 1-D linear interpolation from equispaced `nodes` to `points`, 0 off them."""
    t = (points - nodes[0]) / (nodes[1] - nodes[0])
    rows = np.flatnonzero((t >= 0) & (t <= len(nodes) - 1))
    lo = np.minimum(np.floor(t[rows]).astype(np.intp), len(nodes) - 2)
    frac = t[rows] - lo
    out = np.zeros((len(points), len(nodes)))
    out[rows, lo] = 1.0 - frac
    out[rows, lo + 1] = frac
    return out


def _prolong(density, kernel):
    """Bilinear samples of a coarser density at the kernel's carried mask cells, packed:
    one 1-D interpolation per axis onto each mask's bounding box."""
    coarse = density.grid
    parts = []
    for j, _ in kernel.channels:
        rows, cols = kernel.outputs[j][0]
        along_y = _interpolation(kernel.grid.y_centers()[rows], coarse.y_centers())
        along_x = _interpolation(kernel.grid.x_centers()[cols], coarse.x_centers())
        parts.append((along_y @ density.values[j] @ along_x.T)[kernel.masks[j][rows, cols]])
    return np.concatenate(parts)


def _project(x, kernel):
    """Clamp a packed density at zero and rescale each channel to its mass in w,
    in place; returns the masses."""
    np.maximum(x, 0.0, out=x)
    masses = kernel.masses(x)
    for j, cells in kernel.channels:
        x[cells] *= kernel.w[j] / masses[j]
    return kernel.masses(x)


def solve_fixed_point(kernel, tol=1e-8, maxit=200):
    """Iterate the refinement operator to the invariant density of the kernel's w.

    Starts from the window indicators carrying masses w and stops when the
    summed L1 change of all channels over one step drops below tol.

    When the kernel holds a coarser level, the same problem is first solved
    there; this solve starts from that density, interpolated bilinearly
    onto the mask cells and rescaled to the masses w.  The result's
    residuals are this level's only.

    The iterates are Anderson-mixed (Walker & Ni 2011): each next iterate
    combines the last _MIX_DEPTH + 1 step outputs with the affine weights
    that minimize the combined residual, and is then clamped at zero and
    rescaled to the masses w, because the mass direction is a neutral mode
    of the weight matrix in which mixing error would never decay.  When a
    step's residual rises the history is dropped and the next iterate is
    that step's output, the plain step (Toth & Kelley 2015).  The state is
    packed over the mask cells of the kernel's carried channels; every other
    channel stays exactly zero or, in the point-reflection quotient, the flip
    of its partner, a mirrored pair's cells counting twice.
    """
    start = None if kernel.coarse is None else \
        solve_fixed_point(kernel.coarse, tol, maxit).density
    paired = sum(int(kernel.masks[j].sum()) for j in kernel.mirrors)
    h2 = kernel.grid.h**2
    if start is None:
        x = _uniform(kernel)
        masses = kernel.masses(x)
    else:
        x = _prolong(start, kernel)
        masses = _project(x, kernel)
    residuals = []
    mass_history = [masses]
    outputs, diffs, gram = [], [], np.zeros((0, 0))
    for _ in range(maxit):
        g = _packed_step(x, masses, kernel)
        diff = np.subtract(g, x, out=x)  # the iterate itself is not needed again
        resid = float((np.abs(diff).sum() + np.abs(diff[:paired]).sum()) * h2)
        residuals.append(resid)
        mass_history.append(kernel.masses(g))
        if resid < tol:
            del outputs[:], diffs[:], x, diff  # freed before the full grid is built
            return FixedPointResult(density=kernel.unpack(g),
                                    residuals=np.array(residuals),
                                    mass_history=mass_history)
        if len(residuals) > 1 and resid > residuals[-2]:
            outputs, diffs, gram = [], [], np.zeros((0, 0))
        outputs.append(g)
        diffs.append(diff)
        grown = np.empty((len(diffs), len(diffs)))
        grown[:-1, :-1] = gram
        grown[-1] = grown[:, -1] = [d @ diff + d[:paired] @ diff[:paired] for d in diffs]
        gram = grown
        alpha = _mixing_weights(gram)
        x = alpha[0] * outputs[0]
        for a, g_k in zip(alpha[1:], outputs[1:]):
            x += a * g_k
        masses = _project(x, kernel)
        if len(outputs) > _MIX_DEPTH:  # the oldest pair takes no part in the next fit
            del outputs[0], diffs[0]
            gram = gram[1:, 1:]
    raise RuntimeError(f"fixed point iteration did not reach tol={tol} within "
                       f"{maxit} iterations (last residual {residuals[-1]:.3e})")


def polygon_ft(P, k):
    """Fourier transform of the normalized polygon indicator at wavevector k."""
    return complex(_polygon_ft_table([P], np.asarray(k, dtype=float).reshape(1, 2))[0, 0])


def _polygon_ft_table(polygons, kappas):
    """polygon_ft of every polygon at every wavevector, shape (kappas, polygons).

    Uses the exact boundary (divergence-theorem) edge sum over all edges of
    all polygons at once, with the stable sinc evaluation for nearly
    orthogonal edges; wavevectors shorter than FT_SMALL_K fall back to the
    first-order expansion around the centroid.
    """
    if not all(P.is_polygon for P in polygons):
        raise ValueError("Fourier transform needs a polygon window")
    out = np.zeros((len(kappas), len(polygons)), dtype=complex)
    if not polygons:
        return out
    v = np.concatenate([P.vertices for P in polygons])
    w = np.concatenate([np.roll(P.vertices, -1, axis=0) for P in polygons])
    starts = np.cumsum([0] + [len(P.vertices) for P in polygons[:-1]])
    edge = w - v
    lengths = np.hypot(edge[:, 0], edge[:, 1])
    tangents = edge / lengths[:, None]
    normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
    mid = 0.5 * (v + w)
    kn = np.hypot(kappas[:, 0], kappas[:, 1])
    small = kn < FT_SMALL_K
    k = kappas[~small]
    line = lengths * np.sinc((k @ tangents.T) * lengths / (2 * np.pi)) \
        * np.exp(-1j * (k @ mid.T))
    sums = np.add.reduceat((k @ normals.T) * line, starts, axis=1)
    areas = np.array([area(P) for P in polygons])
    out[~small] = 1j * sums / (kn[~small] ** 2)[:, None] / areas
    if small.any():
        centroids = np.array([centroid(P) for P in polygons])
        out[small] = np.exp(-1j * (kappas[small] @ centroids.T))
    return out


def fourier_product(windows_ji, nu, w, a_matrix, k):
    """Truncated infinite matrix product for the density transform at k.

    Applies the weighted window-transform matrices along the contracted
    wavevector orbit k, A^T k, ... to the mass vector; the orbit stops before
    its first member shorter than _PRODUCT_TAIL, or after 10000 steps.
    """
    return fourier_products(windows_ji, nu, w, a_matrix, [k])[0]


def fourier_products(windows_ji, nu, w, a_matrix, ks):
    """fourier_product at every wavevector of ks, shape (len(ks), r), with one
    transform table over all of their orbits."""
    nu = np.asarray(nu, dtype=float)
    w = np.asarray(w, dtype=float)
    a_matrix = np.asarray(a_matrix, dtype=float)
    orbits = []
    for k in np.asarray(ks, dtype=float).reshape(-1, 2):
        kappas = [k]
        while (np.hypot(*(step := a_matrix.T @ kappas[-1])) >= _PRODUCT_TAIL
               and len(kappas) <= 10000):
            kappas.append(step)
        orbits.append(kappas)
    jj, ii = np.nonzero(nu)
    table = _polygon_ft_table([windows_ji[j][i] for j, i in zip(jj, ii)],
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


def grid_ft(density, ks):
    """Midpoint-rule Fourier transform of every channel at the wavevectors.

    One matrix product per non-zero channel covers all wavevectors; an
    all-zero channel transforms to exactly zero.
    """
    ks = np.asarray(ks, dtype=float).reshape(-1, 2)
    px = np.exp(-1j * np.outer(ks[:, 0], density.grid.x_centers()))
    py = np.exp(-1j * np.outer(ks[:, 1], density.grid.y_centers()))
    out = np.zeros((density.r, len(ks)), dtype=complex)
    for j, values in enumerate(density.values):
        if values.any():
            rows = py.real @ values + 1j * (py.imag @ values)  # no complex copy of values
            out[j] = density.grid.h**2 * np.einsum("nx,nx->n", rows, px)
    return out


def compare_solvers(density, windows_ji, nu, w, a_matrix, ks):
    """Largest deviation between the grid transform and the matrix product.

    Deviation is measured relative to the largest channel mass; returns the
    maximum over the sampled wavevectors and channels.
    """
    ks = np.asarray(ks, dtype=float).reshape(-1, 2)
    if not len(ks):
        raise ValueError("no wavevectors to compare the solvers at")
    w = np.asarray(w, dtype=float)
    via_grid = grid_ft(density, ks)
    via_product = fourier_products(windows_ji, nu, w, a_matrix, ks)
    return float((np.abs(via_grid.T - via_product).max(axis=1) / np.abs(w).max()).max())


def write_density(density, grid_files=None, csv_file=None):
    """Channel grids and the combined CSV from one pass over the samples.

    `grid_files` maps a channel to the file that takes it as headered rows of
    samples, y increasing row by row; `csv_file` takes all channels as a flat
    x,y,f1,...,fr table for plotting.  Either may be None.  The pass walks
    row blocks of about `text.WRITE_CHUNK_VALUES` samples, formats each sample
    once and joins the same strings into every output that shows it.  When
    channel r-1-j is channel j flipped, bit for bit, channel j is formatted
    once, whole, and channel r-1-j reads that text backwards.
    """
    g = density.grid
    grid_files = grid_files or {}
    for fileobj in grid_files.values():
        fileobj.write(f"# origin {text.fmt(g.origin[0])} {text.fmt(g.origin[1])}\n")
        fileobj.write(f"# h {text.fmt(g.h)}\n")
        fileobj.write(f"# nx {g.nx} ny {g.ny}\n")
    channels = sorted(grid_files)
    if csv_file is not None:
        channels = range(density.r)
        csv_file.write("x,y," + ",".join(f"f{j + 1}" for j in channels) + "\n")
        xs = [x + "," for x in text.format_samples(g.x_centers())]
        ys = [y + "," for y in text.format_samples(g.y_centers())]
        separators = [repeat(",")] * (len(channels) - 1) + [repeat("\n")]
    if not channels:
        return
    values, n, mirrored = density.values, g.nx * g.ny, {}
    for j in channels:
        m = density.r - 1 - j
        if j < m and m in channels and values[m].tobytes() == values[j][::-1, ::-1].tobytes():
            mirrored[j] = mirrored[m] = text.format_samples(values[j])
    step = max(1, text.WRITE_CHUNK_VALUES // (g.nx * len(channels)))
    for iy in range(0, g.ny, step):
        lo, hi = iy * g.nx, min(iy + step, g.ny) * g.nx
        samples = {}
        for j in channels:
            if j not in mirrored:
                samples[j] = text.format_samples(values[j, iy:iy + step])
            elif j < density.r - 1 - j:
                samples[j] = mirrored[j][lo:hi]
            else:  # channel r-1-j's samples, read backwards from the other end
                samples[j] = mirrored[j][n - hi:n - lo][::-1]
        for j, fileobj in grid_files.items():
            s = samples[j]
            fileobj.write("\n".join([" ".join(s[k:k + g.nx])
                                     for k in range(0, len(s), g.nx)]) + "\n")
        if csv_file is not None:
            column_y = chain.from_iterable(repeat(y, g.nx) for y in ys[iy:iy + step])
            columns = chain.from_iterable(zip(samples.values(), separators))
            csv_file.write("".join(chain.from_iterable(zip(cycle(xs), column_y, *columns))))


def write_density_grid(density, channel, fileobj):
    """One channel as headered rows of samples, y increasing row by row."""
    write_density(density, grid_files={channel: fileobj})


def write_density_csv(density, fileobj):
    """All channels as a flat x,y,f1,...,fr table for plotting."""
    write_density(density, csv_file=fileobj)
