"""Discretized invariant-density solve and its Fourier-side cross-check.

Densities live on one shared square grid with an odd number of cells per
axis and a cell centered at the origin.  With that layout the difference
of two cell centers is again a cell-center offset, so the discrete
convolution in the refinement step lands exactly on the grid and the
point reflection u -> -u is an exact array flip.

The refinement step is evaluated spectrally.  `build_kernel` fixes, once,
the box of cells where each contracted input channel can be non-zero, the
bounding box of each output channel's window mask, and one periodic FFT
shape long enough that every linear convolution from an input box into its
output hull fits without wrapping, and where on that shape each transition
kernel sits.  The bilinear stencil that samples a box and the real FFT of a
placed kernel, already weighted by nu_ji, are built the first time they are
needed and then kept, so a run builds only what its channels reach (the
fixed-point solve builds the spectra before its first step).  A step costs
one stencil pass and one forward transform per non-zero input channel and
one inverse transform per output channel, and the circular result equals
the linear one on the mask.

The step works on packed densities: one vector of the mask cells of the
channels it carries.  The fixed-point solve keeps its whole state in that
form and builds a full grid only for its result.  When `point_symmetric`
holds, f_{r-1-j}(u) = f_j(-u) and the solve carries only channels j <= r-1-j,
making channel r-1-j the exact flip of channel j.  Flipping a box of b cells
on a period of n turns X_k into conj(X_k) e^{-2 pi i k (b - 1) / n} per
axis.  That phase is folded, conjugated, into the kernel spectrum a
mirrored input meets, so such an input needs no stencil pass, transform or
phased copy: its terms are products with the carried input's transform,
summed and conjugated once.

On a grid at least four times as wide as the coarsest level worth solving
(_COARSE_CELLS cells a side), the solve first solves on the same box at
2^k h and starts from that solution, interpolated onto the fine mask cells
(nested iteration, Brandt 1977).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy import fft

from . import text
from .polygeom import GridSpec, area, centroid, linear_image, rasterize

FT_SMALL_K = 1e-6
_PRODUCT_TAIL = 1e-8
_MIX_DEPTH = 2  # residual differences in each Anderson fit
_GRID_PAD = 0.082
_COARSE_CELLS = 100  # cells per axis of the coarsest grid a warm start solves on


def make_centered_grid(half_extent, h):
    """Odd-sized symmetric grid with a cell centered at the origin."""
    if half_extent <= 0 or h <= 0:
        raise ValueError("half_extent and h must be positive")
    m = int(np.ceil(half_extent / h - 0.5))
    n = 2 * m + 1
    o = -(m + 0.5) * h
    return GridSpec(origin=(o, o), h=h, nx=n, ny=n)


def grid_for_windows(windows, h):
    """Centered grid covering every window with a margin of _GRID_PAD."""
    extent = 0.0
    for w in windows:
        if not w.is_empty:
            extent = max(extent, float(np.abs(w.vertices).max()))
    return make_centered_grid(extent + _GRID_PAD, h)


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
    """Rasters, geometry and kernel spectra needed to apply the refinement operator."""

    grid: GridSpec
    a_matrix: np.ndarray
    a_inv: np.ndarray
    detq_abs: float
    nu: np.ndarray
    blocks: list          # r x r, _Block or None where nu vanishes
    indicators: list        # per channel j: normalized window raster on the cells
                            # of masks[j], in row-major order
    masks: np.ndarray       # (r, ny, nx) bool, cells meeting each window
    fft_shape: tuple        # common periodic shape of every spectrum
    boxes: list             # per channel i: (lo, hi) of the cells f_i(A^-1 y) reaches, or None
    stencils: list          # per box: its Stencil, None until stencil(i) builds it
    outputs: list           # per channel j: (grid slices of the mask's bounding
                            # box, the same cells in the periodic result)
    placements: list        # r x r slices of fft_shape that hold block (j, i), None
                            # where it takes no part in a step
    spectra: dict           # (j, i, mirrored) -> spectrum, as spectrum(j, i, mirrored)
                            # first builds it
    windows: list           # the component and transition windows it rasterizes
    windows_ji: list

    def stencil(self, i):
        """Stencil of input channel i, built on first use and kept; None without a box."""
        if self.stencils[i] is None and self.boxes[i] is not None:
            rows, cols = _contracted(self.grid, self.a_inv, _slices(*self.boxes[i]))
            lo, hi = _box(self.masks[i])  # the frame's origin is one cell before lo
            self.stencils[i] = Stencil.at(rows - (lo[0] - 1), cols - (lo[1] - 1),
                                          tuple(hi - lo + 2))
        return self.stencils[i]

    def spectrum(self, j, i, mirrored=False):
        """rfft2 of the placed nu_ji |det Q| h^2 block (j, i), built on first use and
        kept.  With `mirrored`, its conjugate times the conjugated mirror phases of
        box i: multiplied into the transform of input r-1-i and conjugated, that
        gives the term of input i taken as the flip of input r-1-i."""
        key = (j, i, mirrored)
        if key not in self.spectra:
            padded = np.zeros(self.fft_shape)
            padded[self.placements[j][i]] = self.blocks[j][i].arr * \
                (self.nu[j, i] * self.detq_abs * self.grid.h**2)
            spectrum = fft.rfft2(padded)
            if mirrored:
                for factor in _mirror_phases(self.boxes[i], self.fft_shape):
                    spectrum *= factor
                np.conjugate(spectrum, out=spectrum)
            self.spectra[key] = spectrum
        return self.spectra[key]


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


def _bbox(P):
    v = P.vertices
    return v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max()


def _check_support(grid, j, i, trans, image):
    x0, y0, x1, y1 = grid.box()
    tx0, ty0, tx1, ty1 = _bbox(trans)
    ix0, iy0, ix1, iy1 = _bbox(image)
    if (tx0 + ix0 < x0 or ty0 + iy0 < y0 or tx1 + ix1 > x1 or ty1 + iy1 > y1):
        raise ValueError(f"grid underflow: convolution support of transition "
                         f"({j},{i}) exceeds the grid box")


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


def _input_boxes(grid, a_inv, masks):
    """Per channel, the box of cells where f_i(A^-1 y) can be non-zero.

    A bilinear sample of a channel that vanishes off its mask is zero unless
    one of the four stencil nodes around A^-1 y lies on the mask, which puts
    A^-1 y within a cell of the mask's bounding box.  Only the cells whose
    centres lie within a cell of the image of that region under A are
    tested.  Returns (lo, hi) per channel, or None when no cell qualifies.
    The channel's stencil samples the mask's bounding box padded by one zero
    cell on every side, which holds every node that can be non-zero.
    """
    a_matrix = np.linalg.inv(a_inv)
    origin = np.array(grid.origin)
    boxes = []
    for mask in masks:
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
        # lower-left stencil node, counted from one cell before the mask's box
        a = np.floor(rows).astype(np.intp)
        a -= lo[0] - 1
        b = np.floor(cols).astype(np.intp)
        b -= lo[1] - 1
        inside = (a >= 0) & (a <= hi[0] - lo[0]) & (b >= 0) & (b <= hi[1] - lo[1])
        pad = np.pad(mask[_slices(lo, hi)], 1)
        near = pad[:-1, :-1] | pad[1:, :-1] | pad[:-1, 1:] | pad[1:, 1:]
        touched = near[np.where(inside, a, 0), np.where(inside, b, 0)] & inside
        if touched.any():
            t_lo, t_hi = _box(touched)
            boxes.append((t_lo + near_lo, t_hi + near_lo))
        else:
            boxes.append(None)
    return boxes


def _spectral_plan(grid, masks, blocks, input_boxes):
    """Periodic FFT shape, output boxes and kernel placements of the step.

    The hull of output channel j covers its mask's bounding box and, for
    every i with a block, the linear-convolution support of input box i with
    block (j, i).  The shape holds the longest hull, so placing each block at
    its offset from the hull start makes the circular convolution exact on
    the hull.
    """
    r = len(masks)
    centre = np.array([(grid.ny - 1) // 2, (grid.nx - 1) // 2])
    hulls = []
    for j in range(r):
        box_lo, box_hi = _box(masks[j])
        lo, hi = box_lo, box_hi
        starts = {}
        for i in range(r):
            if blocks[j][i] is None or input_boxes[i] is None:
                continue
            in_lo, in_hi = input_boxes[i]
            offset = np.array([blocks[j][i].iy0, blocks[j][i].ix0]) - centre
            starts[i] = in_lo + offset
            lo = np.minimum(lo, starts[i])
            hi = np.maximum(hi, in_hi + offset + blocks[j][i].arr.shape - 1)
        hulls.append((box_lo, box_hi, lo, hi, starts))
    shape = tuple(next_fast_len(int(n))
                  for n in np.max([hi - lo for _, _, lo, hi, _ in hulls], axis=0))
    placements = [[None] * r for _ in range(r)]
    outputs = []
    for j, (box_lo, box_hi, lo, _, starts) in enumerate(hulls):
        for i, start in starts.items():
            placements[j][i] = _slices(start - lo, start - lo + blocks[j][i].arr.shape)
        outputs.append((_slices(box_lo, box_hi), _slices(box_lo - lo, box_hi - lo)))
    return shape, outputs, placements


def build_kernel(windows, windows_ji, nu, a_matrix, detq_abs, grid):
    """Rasterize window indicators and transition kernels on a shared grid.

    Kernels are normalized by their discrete integral, so each one sums to
    exactly one cell measure; entries with zero weight carry no raster.
    Also fixes the input and output boxes of the spectral step and where
    each |det Q|-scaled kernel sits on its FFT shape; the kernel's `stencil`
    and `spectrum` build theirs on first use.  Raises when the grid cannot
    hold a window or a convolution support, or when a positive weight sits
    on a measure-zero window.
    """
    nu = np.asarray(nu, dtype=float)
    a_matrix = np.asarray(a_matrix, dtype=float)
    r = len(windows)
    if nu.shape != (r, r):
        raise ValueError("nu shape does not match the window count")
    det_a = abs(np.linalg.det(a_matrix))
    if abs(det_a * detq_abs - 1.0) > 1e-9:
        raise ValueError("determinant mismatch: |det A| * |det Q| must be 1")
    if grid.nx % 2 == 0 or grid.ny % 2 == 0 or \
            abs(grid.origin[0] + grid.nx * grid.h / 2) > 1e-9 or \
            abs(grid.origin[1] + grid.ny * grid.h / 2) > 1e-9:
        raise ValueError("kernel grid must be odd-sized and centered at the origin")
    h2 = grid.h**2
    indicators = []
    masks = np.zeros((r, grid.ny, grid.nx), dtype=bool)
    for j, w in enumerate(windows):
        if not grid.covers(w):
            raise ValueError(f"grid underflow: window {j + 1} exceeds the grid box")
        cov = rasterize(w, grid)
        masks[j] = cov > 0
        indicators.append(cov[masks[j]] / (cov.sum() * h2))
    blocks = [[None] * r for _ in range(r)]
    for j in range(r):
        for i in range(r):
            if nu[j, i] == 0:
                continue
            trans = windows_ji[j][i]
            if not trans.is_polygon:
                raise ValueError(f"ghost transition ({j + 1},{i + 1}): positive "
                                 "weight on a measure-zero window")
            _check_support(grid, j + 1, i + 1, trans, linear_image(windows[i], a_matrix))
            cov = rasterize(trans, grid)
            blocks[j][i] = _crop(cov / (cov.sum() * h2))
    a_inv = np.linalg.inv(a_matrix)
    boxes = _input_boxes(grid, a_inv, masks)
    fft_shape, outputs, placements = _spectral_plan(grid, masks, blocks, boxes)
    return RefinementKernel(grid=grid, a_matrix=a_matrix, a_inv=a_inv,
                            detq_abs=float(detq_abs), nu=nu, blocks=blocks,
                            indicators=indicators, masks=masks, fft_shape=fft_shape,
                            boxes=boxes, stencils=[None] * r, outputs=outputs,
                            placements=placements, windows=windows,
                            windows_ji=windows_ji, spectra={})


def initial_density(kernel, w):
    """Masses w spread uniformly over the component windows."""
    w = np.asarray(w, dtype=float)
    packing = _Packing.of(kernel, range(len(kernel.masks)))
    return packing.unpack(np.concatenate([w[j] * kernel.indicators[j]
                                          for j, _ in packing.channels]))


def point_symmetric(kernel, w):
    """Whether nu and w equal their 180-degree flips to 1e-12, windows r-1-j
    and (r-1-j, r-1-i) have the negated vertex sets of j and (j, i), and the
    masks and input boxes are exact mirror images."""
    spans = np.array([np.r_[b[0], kernel.masks.shape[1:] - b[1]] if b else [-1] * 4
                      for b in kernel.boxes])
    groups = [kernel.windows, [t for row in kernel.windows_ji for t in row]]
    return bool(np.abs(kernel.nu - kernel.nu[::-1, ::-1]).max() <= 1e-12
                and np.abs(w - w[::-1]).max() <= 1e-12
                and np.array_equal(kernel.masks[::-1], kernel.masks[:, ::-1, ::-1])
                and np.array_equal(spans[::-1], np.roll(spans, 2, axis=1))
                and all({tuple(v) for v in p.vertices} == {tuple(-v) for v in q.vertices}
                        for g in groups for p, q in zip(g, g[::-1])))


def _mirror_phases(box, shape):
    """Row and column factors e^{-2 pi i k (b - 1) / n} of the rfft2 of a box of
    b cells per axis flipped on a period of n, the integer products reduced mod n."""
    k0, k1 = np.arange(shape[0])[:, None], np.arange(shape[1] // 2 + 1)
    return tuple(np.exp(-2j * np.pi * (k * (b - 1) % n) / n)
                 for k, b, n in zip((k0, k1), box[1] - box[0], shape))


@dataclass
class _Packing:
    """Layout of a packed density: one float64 vector holding the mask cells
    of the carried channels, channel by channel, each in row-major order.

    Channels left out unpack as exact zeros, except that in the point-reflection
    quotient channel mirrors[j] unpacks as the flip of channel j.
    """

    kernel: RefinementKernel
    channels: list  # (channel, slice of the packed vector)
    mirrors: dict   # carried channel j < r-1-j -> r-1-j; their cells lead the vector

    @classmethod
    def of(cls, kernel, live, quotient=False):
        r = len(kernel.masks)
        carried = [j for j in live if j <= r - 1 - j or not quotient]
        ends = np.cumsum([0] + [int(kernel.masks[j].sum()) for j in carried]).tolist()
        mirrors = {j: r - 1 - j for j in carried if quotient and j < r - 1 - j}
        return cls(kernel=kernel, channels=[(j, slice(ends[n], ends[n + 1]))
                                            for n, j in enumerate(carried)],
                   mirrors=mirrors)

    def pack(self, values):
        return np.concatenate([values[j][self.kernel.masks[j]] for j, _ in self.channels])

    def unpack(self, x):
        values = np.zeros(self.kernel.masks.shape)
        for j, cells in self.channels:
            values[j][self.kernel.masks[j]] = x[cells]
            if j in self.mirrors:
                values[self.mirrors[j]] = values[j][::-1, ::-1]
        return DensityGrid.from_values(self.kernel.grid, values)

    def masses(self, x):
        masses = np.zeros(len(self.kernel.masks))
        for j, cells in self.channels:
            masses[j] = masses[self.mirrors.get(j, j)] = x[cells].sum() * self.kernel.grid.h**2
        return masses


def _live_spectra(kernel, j, inputs, mirrors):
    """The kernel spectra output j reads, as (spectrum key, input) pairs: the
    direct ones, (j, i) for each input i, and the mirrored ones, (j, r-1-i) for
    each input i whose flip stands for input r-1-i (`mirrors` maps i to r-1-i)."""
    direct = [((j, i, False), i) for i in inputs
              if kernel.nu[j, i] != 0 and kernel.placements[j][i] is not None]
    flipped = [((j, mirrors[i], True), i) for i in inputs if i in mirrors
               and kernel.nu[j, mirrors[i]] != 0 and kernel.placements[j][mirrors[i]] is not None]
    return direct, flipped


def _output_cells(kernel, j, transformed, mirrors):
    """Output channel j on its mask cells, before clamping, or None if no input reaches it.

    Sums the products of the nu-weighted kernel spectra with the input
    spectra in one reused product buffer: first the mirrored inputs' terms,
    conjugated once, then the direct ones.  One inverse transform over the
    rows of the output box follows.  A kernel spectrum not built yet is
    built here.
    """
    direct, flipped = _live_spectra(kernel, j, transformed, mirrors)
    total = product = None
    for terms in (flipped, direct):
        for key, i in terms:
            if total is None:
                total = kernel.spectrum(*key) * transformed[i]
            else:
                product = np.multiply(kernel.spectrum(*key), transformed[i], out=product)
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


def _packed_step(x, masses, packing, conserve_mass=True):
    """The refinement step on a packed density whose channel masses are given.

    Input channels outside the packing are taken to be zero and output
    channels outside it are not formed, so the packing must be closed under
    the weight matrix (nu_ji = 0 from a packed i to an unpacked j).  A
    mirrored input r-1-i is read through input i's transform.
    """
    kernel = packing.kernel
    h2 = kernel.grid.h**2
    transformed = {}
    for i, cells in packing.channels:
        if not x[cells].any() or (stencil := kernel.stencil(i)) is None:
            continue
        inside = kernel.masks[i][kernel.outputs[i][0]]
        flat, padded = Stencil.frame((inside.shape[0] + 2, inside.shape[1] + 2))
        padded[1:-1, 1:-1][inside] = x[cells]
        transformed[i] = rfft2(stencil.sample(flat), kernel.fft_shape)
    target = kernel.nu @ masses
    out = np.zeros_like(x)
    for j, cells in packing.channels:
        acc = _output_cells(kernel, j, transformed, packing.mirrors)
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
    the solver produces does; values outside the mask are ignored.  The
    convolutions run as products of the kernel's spectra, each built the
    first time a step reads it, with one transform per non-zero input
    channel, and an all-zero channel is skipped.
    """
    packing = _Packing.of(kernel, range(f.r))
    return packing.unpack(_packed_step(packing.pack(f.values), f.masses, packing,
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


def _coarse_grid(grid):
    """The grid's box at 2^k h for the largest k that leaves at least _COARSE_CELLS
    cells per axis, or None when that k is below 2."""
    n = max(grid.nx, grid.ny)
    k = int(np.log2(n / _COARSE_CELLS))
    return make_centered_grid(n * grid.h / 2, grid.h * 2**k) if k >= 2 else None


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


def _prolong(density, packing):
    """Bilinear samples of a coarser density at the packing's mask cells, channel by
    channel: one 1-D interpolation per axis onto the mask's bounding box."""
    kernel, coarse = packing.kernel, density.grid
    parts = []
    for j, _ in packing.channels:
        rows, cols = kernel.outputs[j][0]
        along_y = _interpolation(kernel.grid.y_centers()[rows], coarse.y_centers())
        along_x = _interpolation(kernel.grid.x_centers()[cols], coarse.x_centers())
        parts.append((along_y @ density.values[j] @ along_x.T)[kernel.masks[j][rows, cols]])
    return np.concatenate(parts)


def _project(x, packing, w):
    """Clamp a packed density at zero and rescale each channel to its mass in w,
    in place; returns the masses."""
    np.maximum(x, 0.0, out=x)
    masses = packing.masses(x)
    for j, cells in packing.channels:
        x[cells] *= w[j] / masses[j]
    return packing.masses(x)


def solve_fixed_point(kernel, w, tol=1e-8, maxit=200):
    """Iterate the refinement operator to its invariant density.

    Starts from the window indicators carrying masses w and stops when the
    summed L1 change of all channels over one step drops below tol.
    Requires w to be fixed by the weight matrix (spectral radius one).
    The kernel spectra the steps read are built before the first step, so
    they are not allocated among a step's temporaries.

    When `_coarse_grid` gives a coarser level, the same problem is first
    solved there, on the kernel's own box, before any spectrum of this
    kernel is built; this solve starts from that density, interpolated
    bilinearly onto the mask cells and rescaled to the masses w.  The
    result's residuals are this level's only.

    The iterates are Anderson-mixed (Walker & Ni 2011): each next iterate
    combines the last _MIX_DEPTH + 1 step outputs with the affine weights
    that minimize the combined residual, and is then clamped at zero and
    rescaled to the masses w, because the mass direction is a neutral mode
    of the weight matrix in which mixing error would never decay.  When a
    step's residual rises the history is dropped and the next iterate is
    that step's output, the plain step (Toth & Kelley 2015).  The state is
    packed over the mask cells of the channels with w_j > 0; w = nu w
    forces nu_ji = 0 from those into every other channel, which stays
    exactly zero.  When `point_symmetric` holds, w is averaged with its flip and
    only channels j <= r-1-j are carried, a mirrored pair's cells counting twice.
    """
    w = np.asarray(w, dtype=float)
    if np.max(np.abs(kernel.nu @ w - w)) > 1e-8:
        raise ValueError("the weight matrix does not fix w (its spectral "
                         "radius must be one)")
    start = None
    if (coarse_grid := _coarse_grid(kernel.grid)) is not None:
        start = solve_fixed_point(build_kernel(kernel.windows, kernel.windows_ji, kernel.nu,
                                               kernel.a_matrix, kernel.detq_abs, coarse_grid),
                                  w, tol, maxit).density
    quotient = point_symmetric(kernel, w)
    if quotient:
        w = 0.5 * (w + w[::-1])
    packing = _Packing.of(kernel, np.flatnonzero(w > 0), quotient)
    paired = sum(int(kernel.masks[j].sum()) for j in packing.mirrors)
    carried = [j for j, _ in packing.channels]
    for j in carried:
        for terms in _live_spectra(kernel, j, carried, packing.mirrors):
            for key, _ in terms:
                kernel.spectrum(*key)
    h2 = kernel.grid.h**2
    if start is None:
        x = np.concatenate([w[j] * kernel.indicators[j] for j in carried])
        masses = packing.masses(x)
    else:
        x = _prolong(start, packing)
        masses = _project(x, packing, w)
    residuals = []
    mass_history = [masses]
    outputs, diffs, gram = [], [], np.zeros((0, 0))
    for _ in range(maxit):
        g = _packed_step(x, masses, packing)
        diff = np.subtract(g, x, out=x)  # the iterate itself is not needed again
        resid = float((np.abs(diff).sum() + np.abs(diff[:paired]).sum()) * h2)
        residuals.append(resid)
        mass_history.append(packing.masses(g))
        if resid < tol:
            del outputs[:], diffs[:], x, diff  # freed before the full grid is built
            return FixedPointResult(density=packing.unpack(g),
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
        masses = _project(x, packing, w)
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
    channel r-1-j is channel j flipped, bit for bit, the text of channel j's
    rows is kept and channel r-1-j reads it in reverse.
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
        xs = text.format_samples(g.x_centers())
        ys = text.format_samples(g.y_centers())
    if not channels:
        return
    values, rows = density.values, {}
    for j in channels:
        m = density.r - 1 - j
        if j < m and m in channels and values[m].tobytes() == values[j][::-1, ::-1].tobytes():
            rows[j] = rows[m] = [" ".join(text.format_samples(row)) for row in values[j]]
    step = max(1, text.WRITE_CHUNK_VALUES // (g.nx * len(channels)))
    for iy in range(0, g.ny, step):
        samples = {}
        for j in channels:
            if j not in rows:
                samples[j] = text.format_samples(values[j, iy:iy + step])
            elif j < density.r - 1 - j:
                samples[j] = " ".join(rows[j][iy:iy + step]).split(" ")
            else:  # the rows of channel r-1-j in reverse, each read backwards
                samples[j] = " ".join(rows[j][max(g.ny - iy - step, 0):g.ny - iy]).split(" ")[::-1]
        for j, fileobj in grid_files.items():
            s = samples[j]
            fileobj.write("\n".join([" ".join(s[k:k + g.nx])
                                     for k in range(0, len(s), g.nx)]) + "\n")
        if csv_file is not None:
            block_ys = ys[iy:iy + step]
            column_y = [y for y in block_ys for _ in range(g.nx)]
            csv_file.write("\n".join(map(",".join, zip(xs * len(block_ys), column_y,
                                                       *samples.values()))) + "\n")


def write_density_grid(density, channel, fileobj):
    """One channel as headered rows of samples, y increasing row by row."""
    write_density(density, grid_files={channel: fileobj})


def write_density_csv(density, fileobj):
    """All channels as a flat x,y,f1,...,fr table for plotting."""
    write_density(density, csv_file=fileobj)
