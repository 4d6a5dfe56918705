"""Discretized invariant-density solve and its Fourier-side cross-check.

`build_kernel(problem, h)`, `compare_solvers(density, problem, chunks)`,
`fourier_product(problem, ks)`, `point_symmetric(problem)` and
`mirror_symmetric(problem)` read one `Problem`, whose checks run once, when
it is made.

Densities live on one shared square grid whose cell centres lie on hZ^2, so
the discrete convolution in the refinement step lands exactly on that
lattice.  The grid only frames the windows (`_kernel_grid`).  Transition
rasters and contracted inputs sit on the lattice where they fall, on or off
the grid, so the grid does not grow with the displacement gamma, whose
transition windows lie near 1.618 gamma.

`build_kernel` builds what the fixed-point solve reads and nothing else, and
the solve keeps its state packed over the kernel's mask cells
(`RefinementKernel`).  Two exact symmetries shrink that state.  Under
`point_symmetric` only the channels j <= r-1-j are carried.  Under
`mirror_symmetric`, as on the presets at any real gamma, only the rows up to
y = 0 are held and stepped, so the solved density is its own row flip bit
for bit, with no averaging pass.  The step, `apply_refinement`, is the bare
operator, run as products of the kernel's spectra; only the solve clamps
and rescales.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from numpy import fft

from . import text
from .polygeom import GridSpec, area, centroid, dot, rasterize

FT_SMALL_K = 1e-6
_PRODUCT_TAIL = 1e-8
_MIX_DEPTH = 2  # residual differences in each Anderson fit; _mixing_weights solves for 2
_GRID_PAD = 0.082
_COARSE_CELLS = 100  # cells per axis of the coarsest grid a warm start solves on
_MIN_MASK_CELLS = 64  # fewest cells a carried window may meet: a grid that resolves it
_SUM_ROWS = 64  # spectrum rows that the step's blocks of output sums and a term share
# cells of a kernel grid; at h = 1/512 (1741 x 1741) a solve peaked at 61 B (example 1)
# and 115 B (example 2) of RSS per cell on an x86-64 VM: about 480 MB at the limit
MAX_GRID_CELLS = 2**22


def make_centered_grid(half_extent, h):
    """Odd-sized symmetric grid with a cell centered at the origin."""
    m = int(np.ceil(min(half_extent / h, 2.0**63) - 0.5))  # finite even for a subnormal h
    n = 2 * m + 1
    o = -(m + 0.5) * h
    return GridSpec(origin=(o, o), h=h, nx=n, ny=n)


def _kernel_grid(windows, h):
    """The smallest odd square grid of cell h that covers the windows with a margin
    of _GRID_PAD, centred on the point of hZ^2 nearest the middle of their bounding
    box, so that its cell centres lie on hZ^2."""
    corners = np.vstack([w.vertices for w in windows])
    centre = np.round(0.5 * (corners.min(axis=0) + corners.max(axis=0)) / h) * h
    grid = make_centered_grid(float(np.abs(corners - centre).max()) + _GRID_PAD, h)
    return GridSpec(origin=tuple((centre + grid.origin).tolist()), h=h, nx=grid.nx, ny=grid.ny)


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


@dataclass(frozen=True, eq=False)
class Problem:
    """The refinement operator's data: shifted windows W_j, transition windows W_ji,
    weights nu, masses w, internal contraction A and |det Q|.  Raises unless nu is
    r x r, |det A| |det Q| = 1, every positive weight sits on a polygon and nu w = w."""

    windows: list
    windows_ji: list
    nu: np.ndarray
    w: np.ndarray
    a_matrix: np.ndarray
    detq_abs: float

    def __post_init__(self):
        for name in ("nu", "w", "a_matrix"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.nu.shape != (len(self.windows),) * 2:
            raise ValueError("nu shape does not match the window count")
        product = abs(np.linalg.det(self.a_matrix)) * self.detq_abs
        if abs(product - 1.0) > 1e-9:
            raise ValueError(f"determinant mismatch: |det A| * |det Q| = {product:.6g}, "
                             "not 1; q must be a unit")
        for j, i in zip(*np.nonzero(self.nu)):
            if not self.windows_ji[j][i].is_polygon:
                raise ValueError(f"ghost transition ({j + 1},{i + 1}): positive "
                                 "weight on a measure-zero window")
        if np.max(np.abs(self.nu @ self.w - self.w)) > 1e-8:
            raise ValueError("the weight matrix does not fix w (its spectral radius must be one)")


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
    of the carried channels, channel by channel, each in row-major order.
    Under the row mirror a channel holds only its cells in rows up to the
    centre, the centre row last, and each cell before the centre row stands
    for its row flip too.  It unpacks with every other channel exactly zero,
    except that channel mirrors[j] is the flip of channel j.

    A kernel serves one solve, which releases what it has finished with:
    `solve_fixed_point` sets `blocks` to None before its first step,
    `coarse` once that level's density has seeded this one, and `spectra`
    and `stencils` once it has converged, before it unpacks the density.
    Only `build_kernel` reads the blocks; they stay a field for a caller
    that counts them when it returns.
    """

    grid: GridSpec
    problem: Problem
    w: np.ndarray           # masses the solve holds: w, averaged with its flip in the quotient
    centre: int | None      # the grid row of y = 0 in the row-mirror quotient, else None
    channels: list          # (carried channel j, its slice of a packed density), j increasing
    mirrors: dict           # carried j < r-1-j -> r-1-j in the quotient
    below: dict             # carried j -> the slice of its cells before the centre row,
                            # empty without the row mirror
    masks: np.ndarray       # (r, ny, nx) bool, cells meeting window j, for j carried or mirrored
    indicators: list        # per carried channel j: normalized window raster on its packed
                            # cells, on a level without `coarse` (the only one that reads it)
    blocks: list            # r x r: normalized raster of transition (j, i) for j carried,
                            # i live and nu_ji != 0, cropped to its box; else None
    boxes: list             # per live channel i: (lo, hi) of the cells, on or off the grid,
                            # that f_i(A^-1 y) reaches, or None
    stencils: list          # per carried channel with a box: the Stencil that samples it
                            # from a packed density
    outputs: list           # per carried channel j: (grid slices of the mask's bounding
                            # box, up to the centre row under the row mirror, the same
                            # cells in the periodic result)
    fft_shape: tuple        # common periodic shape of every spectrum
    spectra: list           # r x r: the rows a step forms (`_held_rows`) of the rfft2 of the
                            # placed nu_ji |det Q| h^2 block (j, i); for a mirrored i, their
                            # conjugate times the conjugated mirror phases of box i, which
                            # multiplied into the transform of input r-1-i and conjugated
                            # gives the term of input i; views of one allocation
    coarse: RefinementKernel | None  # the same problem at 2^k h

    def unpack(self, x):
        values = np.zeros(self.masks.shape)
        for j, cells in self.channels:
            box = self.outputs[j][0]
            values[j][box][self.masks[j][box]] = x[cells]
            if self.centre is not None:
                values[j][self.centre + 1:] = values[j][:self.centre][::-1]
            if j in self.mirrors:
                values[self.mirrors[j]] = values[j][::-1, ::-1]
        return DensityGrid.from_values(self.grid, values)

    def masses(self, v):
        """Per channel, the integral of packed v over every cell it stands for: a
        cell before the centre row counts twice, and channel mirrors[j] reads the
        value of channel j."""
        masses = np.zeros(len(self.masks))
        for j, cells in self.channels:
            masses[j] = masses[self.mirrors.get(j, j)] = \
                (v[cells].sum() + v[self.below[j]].sum()) * self.grid.h**2
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


def rfft2(a, shape, out, mirrored=False):
    """fft.rfft2(a, s=shape) into `out`, with the row pass run only over the rows
    of `a`: the rows that pad it to `shape` are zero, and so is their row
    transform.  When `mirrored`, `a` holds the rows up to its centre row, and
    the rows after it, the flips of those before, are copies of their
    transforms.  The column pass runs in place."""
    n = len(a)
    fft.rfft(a, n=shape[1], axis=1, out=out[:n])
    if mirrored:
        out[n:2 * n - 1] = out[:n - 1][::-1]
        n = 2 * n - 1
    out[n:] = 0
    return fft.fft(out, axis=0, out=out)


def irfft2(a, shape, rows, block):
    """Rows `rows`, a slice with bounds, of the inverse of fft.rfft2 on `shape`,
    made len(block) rows at a time in the real array `block`: yields the
    offset in `rows` of each block's first row and the block's rows.

    Overwrites the spectrum `a`: the column pass runs in place, and the row
    pass runs only over `rows`.
    """
    fft.ifft(a, axis=0, out=a)
    for lo in range(rows.start, rows.stop, len(block)):
        hi = min(lo + len(block), rows.stop)
        yield lo - rows.start, fft.irfft(a[lo:hi], n=shape[1], axis=1,
                                         out=block[:hi - lo, :shape[1]])


@dataclass
class Stencil:
    """Bilinear samples, at fixed fractional positions on an (ny, nx) array, of a
    state vector that holds the array's cells.

    `index` holds per sample the state positions of its four nodes: the
    lower-left one (row floor(row), column floor(col)), the next column, the
    next row and both; a node the state does not hold reads its zero tail.
    `r0` and `c0` are the weights 1 - (row - floor(row)) and 1 - (col -
    floor(col)) of the lower row and column.  As in order-1 map_coordinates
    with mode "constant" and cval 0, a position outside [0, ny - 1] x [0, nx - 1]
    samples 0, all four of its nodes the tail, and a position on the last row
    or column reads its other node, of weight 0, from the tail.
    """

    # int32 (4, ...): distinct residues mod 5 cap r at 5, and a packed state of at most
    # 5 MAX_GRID_CELLS cells stays below 2^31
    index: np.ndarray
    r0: np.ndarray
    c0: np.ndarray

    @classmethod
    def padded(cls, rows, cols, shape):
        """The stencil of the positions on an array of `shape` whose state is the
        array padded by two rows and columns of zeros after its last ones, and
        flattened: the nodes past the last row or column, and from (ny, nx) on
        those of every position outside, read the padding."""
        ny, nx = shape
        lo_r = np.floor(rows)
        lo_c = np.floor(cols)
        inside = (rows >= 0) & (rows <= ny - 1) & (cols >= 0) & (cols <= nx - 1)
        first = np.where(inside, lo_r * (nx + 2) + lo_c, ny * (nx + 2) + nx).astype(np.int32)
        index = np.empty((4, *first.shape), dtype=np.int32)
        for k, shift in enumerate((0, 1, nx + 2, nx + 3)):
            np.add(first, shift, out=index[k])
        return cls(index=index, r0=1.0 - (rows - lo_r), c0=1.0 - (cols - lo_c))

    @classmethod
    def at(cls, rows, cols, positions, tail):
        """The stencil of the positions on an array whose cell (k, l) the state
        holds at positions[k, l], or at `tail` for a cell it does not hold."""
        stencil = cls.padded(rows, cols, positions.shape)
        nodes = np.pad(positions, (0, 2), constant_values=tail).ravel()
        for index in stencil.index:  # each padded position to the state's
            np.take(nodes, index, out=index)
        return stencil

    def sample(self, state):
        """The samples, of the shape of a node's index, read from the state."""
        r1 = 1.0 - self.r0
        c1 = 1.0 - self.c0
        # every index is in range by construction; mode "clip" spares take
        # the buffered copy of `out` that its checking mode makes
        out = np.take(state, self.index[0], mode="clip")
        out *= self.r0
        out *= self.c0
        term = np.empty_like(out)
        for nodes, row_w, col_w in zip(self.index[1:], (self.r0, r1, r1), (c1, self.c0, c1)):
            np.take(state, nodes, out=term, mode="clip")
            term *= row_w
            term *= col_w
            out += term
        return out


def bilinear(values, rows, cols):
    """Order-1 samples of a 2-D array at fractional (row, col) positions, 0 off it."""
    state = np.pad(np.asarray(values, dtype=float), (0, 2)).ravel()
    return Stencil.padded(rows, cols, values.shape).sample(state)


def _box(arr):
    """First and one-past-last (row, col) of the non-zero entries."""
    rows = np.flatnonzero(arr.any(axis=1))
    cols = np.flatnonzero(arr.any(axis=0))
    return np.array([rows[0], cols[0]]), np.array([rows[-1] + 1, cols[-1] + 1])


def _slices(lo, hi):
    return slice(int(lo[0]), int(hi[0])), slice(int(lo[1]), int(hi[1]))


def _crop(raster, corner):
    lo, hi = _box(raster)
    return _Block(arr=raster[_slices(lo, hi)], iy0=corner[0] + int(lo[0]),
                  ix0=corner[1] + int(lo[1]))


def _contracted(grid, a_inv, box):
    """Row and column, in cells, of A^-1 c at each cell center c of `box`, on or off
    the grid, updated in place: (A^-1 c - origin) / h - 0.5, no full-size temporaries."""
    x = (grid.origin[0] + (np.arange(box[1].start, box[1].stop) + 0.5) * grid.h)[None, :]
    y = (grid.origin[1] + (np.arange(box[0].start, box[0].stop) + 0.5) * grid.h)[:, None]
    rows = a_inv[1, 0] * x + a_inv[1, 1] * y
    rows -= grid.origin[1]
    rows /= grid.h
    rows -= 0.5
    cols = a_inv[0, 0] * x + a_inv[0, 1] * y
    cols -= grid.origin[0]
    cols /= grid.h
    cols -= 0.5
    return rows, cols


def _input_stencil(grid, a_matrix, a_inv, mask, start, tail, centre):
    """The box (lo, hi) of cells, on or off the grid, where f_i(A^-1 y) can be non-zero
    and the Stencil that samples channel i at A^-1 y for the cells y of that box, or
    (None, None).

    The stencil reads the packed state, whose mask cells of channel i start at
    `start` and whose zero tail is at `tail`.  Its array is the mask's
    bounding box padded by one cell on every side: a mask cell is held at its
    packed position, every other cell at the tail.  With a `centre` row, not
    None, the rows past it are held at the positions of their flips about it.

    A bilinear sample of a channel that vanishes off its mask is zero unless
    one of the four stencil nodes around A^-1 y lies on the mask, which puts
    A^-1 y within a cell of the mask's bounding box.  Only the cells whose
    centres lie within a cell of the image of that region under A are
    tested, each through its stencil, and the box is that of the cells with
    a node off the tail.  With a `centre` row, only the rows up to it are
    tested and sampled, and the box holds their flips about it too.
    """
    origin = np.array(grid.origin)
    lo, hi = _box(mask)
    # corners (x, y) of the mask's bounding box grown by a cell, mapped by A
    corners = a_matrix @ (origin[:, None] + grid.h * np.array(
        [[lo[1] - 1, lo[1] - 1, hi[1] + 1, hi[1] + 1],
         [lo[0] - 1, hi[0] + 1, lo[0] - 1, hi[0] + 1]]))
    first = np.floor((corners.min(axis=1) - origin) / grid.h) - 1
    last = np.ceil((corners.max(axis=1) - origin) / grid.h) + 1
    near_lo = first[::-1].astype(int)  # (row, col) of the first tested cell
    near_hi = last[::-1].astype(int)
    if centre is not None:
        near_hi[0] = centre + 1
    rows, cols = _contracted(grid, a_inv, _slices(near_lo, near_hi))
    # the mask's box padded by a cell, its origin one cell before lo, and its held rows
    positions = np.full(tuple(hi - lo + 2), tail, dtype=np.int32)
    held = mask[lo[0]:hi[0] if centre is None else centre + 1, lo[1]:hi[1]]
    positions[1:len(held) + 1, 1:-1][held] = np.arange(start, start + np.count_nonzero(held))
    if centre is not None:  # grid row centre + k is held as row centre - k
        positions[len(held) + 1:] = positions[:len(held)][::-1]
    stencil = Stencil.at(rows - (lo[0] - 1), cols - (lo[1] - 1), positions, tail)
    touched = (stencil.index != tail).any(axis=0)
    if not touched.any():
        return None, None
    t_lo, t_hi = _box(touched)
    if centre is not None:  # every row up to the centre, and their flips beyond it
        t_hi[0] = len(touched)
    box = _slices(t_lo, t_hi)
    t_lo, t_hi = t_lo + near_lo, t_hi + near_lo
    if centre is not None:
        t_hi[0] = 2 * centre + 1 - t_lo[0]
    return (t_lo, t_hi), Stencil(stencil.index[(slice(None), *box)], stencil.r0[box],
                                 stencil.c0[box])


def _spectral_plan(grid, masks, blocks, boxes, carried, centre):
    """Periodic FFT shape, output boxes and block placements of the step.

    The hull of carried output channel j covers its mask's bounding box and,
    for every i with a block and an input box, the linear-convolution support
    of input box i with block (j, i).  The shape holds the longest hull, so
    placing each block at its offset from the hull start makes the circular
    convolution exact on the hull.  The output boxes end at the `centre` row,
    if one is given.
    """
    r = len(masks)
    origin = np.rint(-np.array(grid.origin[::-1]) / grid.h - 0.5).astype(int)  # the origin's cell
    hulls = {}
    for j in carried:
        box_lo, box_hi = _box(masks[j])
        lo, hi = box_lo, box_hi
        starts = {}
        for i in range(r):
            if blocks[j][i] is None or boxes[i] is None:
                continue
            in_lo, in_hi = boxes[i]
            offset = np.array([blocks[j][i].iy0, blocks[j][i].ix0]) - origin
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
        if centre is not None:
            box_hi = np.array([centre + 1, box_hi[1]])
        outputs[j] = (_slices(box_lo, box_hi), _slices(box_lo - lo, box_hi - lo))
    return shape, outputs, placements


def _phase(k, shift, n):
    """e^{-2 pi i k shift / n}, the integer product reduced mod n: the factor that
    shifts a transform on a period of n by `shift`."""
    return np.exp(-2j * np.pi * (k * shift % n) / n)


def _held_rows(n, centre):
    """How many rows of a period of n a step forms of a spectrum: under the row
    mirror, whose outputs are row flips, those up to n // 2, from which the
    later ones follow; else all n."""
    return n if centre is None else n // 2 + 1


def _mirror_phases(box, shape, rows):
    """Row and column factors e^{-2 pi i k (b - 1) / n} of the rfft2 of a box of
    b cells per axis flipped on a period of n, for its first `rows` rows."""
    k0, k1 = np.arange(rows)[:, None], np.arange(shape[1] // 2 + 1)
    return tuple(_phase(k, b - 1, n) for k, b, n in zip((k0, k1), box[1] - box[0], shape))


def point_symmetric(problem):
    """Whether nu and w equal their 180-degree flips to 1e-12 and windows r-1-j
    and (r-1-j, r-1-i) have the negated vertex sets of j and (j, i).  On a grid
    centered on a cell, their masks and input boxes are then mirror images."""
    groups = [problem.windows, [t for row in problem.windows_ji for t in row]]
    return bool(np.abs(problem.nu - problem.nu[::-1, ::-1]).max() <= 1e-12
                and np.abs(problem.w - problem.w[::-1]).max() <= 1e-12
                and all({tuple(v) for v in p.vertices} == {tuple(-v) for v in q.vertices}
                        for g in groups for p, q in zip(g, g[::-1])))


def mirror_symmetric(problem):
    """Whether every window and transition window matches its image under (x, y) ->
    (x, -y) to 1e-12 and A is diagonal to 1e-12.  On a grid centred on y = 0
    their masks and input boxes are then row flips of themselves."""
    a = problem.a_matrix
    regions = chain(problem.windows, chain.from_iterable(problem.windows_ji))
    return bool(abs(a[0, 1]) <= 1e-12 and abs(a[1, 0]) <= 1e-12
                and all(_matches_row_flip(p.vertices) for p in regions))


def _matches_row_flip(vertices):
    """Whether each vertex lies within 1e-12 of a flipped one, and each flipped one
    within 1e-12 of a vertex."""
    gaps = np.abs(vertices[:, None] - vertices[None] * (1.0, -1.0)).max(axis=2, initial=0.0)
    return not len(vertices) or max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-12


def _coarse_h(grid, cells):
    """2^k h for the largest k that leaves at least _COARSE_CELLS cells per axis of
    the grid's width, or None when that k is below 2 or a window meeting `cells`
    cells here could meet fewer than _MIN_MASK_CELLS there: a coarse cell meets
    at most (2^k + 1)^2 fine ones."""
    k = int(np.log2(max(grid.nx, grid.ny) / _COARSE_CELLS))
    if k < 2 or cells < _MIN_MASK_CELLS * (2**k + 1)**2:
        return None
    return grid.h * 2**k


def build_kernel(problem, h):
    """Rasterize and transform what the solve of a Problem reads, at cell size h.

    The grid is the one `_kernel_grid` sizes for h.  The live channels are
    those with w_j > 0; the carried ones are all of them, or in the
    point-reflection quotient those with j <= r-1-j.  Window and transition
    rasters are normalized by their discrete integral, so each one sums to
    exactly one cell measure.  Raises, before it allocates anything of the
    grid's size, when the grid has more than MAX_GRID_CELLS cells, and when a
    carried window meets fewer than _MIN_MASK_CELLS cells.  A coarser level
    is built from the same problem, and a level that has one keeps no indicators.
    Under the row mirror every output of a step is its own row flip about its
    row of y = 0, so the kernel keeps only the spectrum rows up to n // 2 that
    a step forms (`_kernel_spectra`).
    """
    windows, windows_ji, nu, w = problem.windows, problem.windows_ji, problem.nu, problem.w
    r = len(windows)
    grid = _kernel_grid(windows, h)
    if grid.nx * grid.ny > MAX_GRID_CELLS:
        # a side past 2^64 cells is make_centered_grid's clamp, not the grid's size
        size = f"{grid.nx} x {grid.ny}" if grid.nx <= 2**64 else "more than 2^64 x 2^64"
        raise ValueError(f"a grid of {size} cells at h = {h:.6g} exceeds "
                         f"the limit of {MAX_GRID_CELLS} cells")
    quotient = point_symmetric(problem)
    centre = grid.ny // 2  # the row of y = 0 in the row-mirror quotient, else None
    if not (mirror_symmetric(problem) and grid.origin[1] + (centre + 0.5) * grid.h == 0):
        centre = None
    held = 0.5 * (w + w[::-1]) if quotient else w
    live = held > 0
    carried = [j for j in range(r) if live[j] and (j <= r - 1 - j or not quotient)]
    mirrors = {j: r - 1 - j for j in carried if quotient and j < r - 1 - j}
    h2 = grid.h * grid.h  # inf at h = 1e300, where ** raises OverflowError
    masks = np.zeros((r, grid.ny, grid.nx), dtype=bool)
    indicators = [None] * r
    cells = []
    for j in carried:
        cov, (row, col) = rasterize(windows[j], grid)
        top = cov  # the rows a packed density holds
        if centre is not None:  # the rows up to the centre, then their flips
            top = cov[:centre + 1 - row]
            cov = np.concatenate([top, top[:-1][::-1]])
        inside = cov > 0
        masks[j][row:row + len(cov), col:col + cov.shape[1]] = inside
        cells.append(int(inside.sum()))
        if cells[-1] < _MIN_MASK_CELLS:
            raise ValueError(f"unresolved grid: window {j + 1} meets {cells[-1]} cells, "
                             f"fewer than {_MIN_MASK_CELLS}")
        indicators[j] = top[top > 0] / (cov.sum() * h2)
    ends = np.cumsum([0] + [len(indicators[j]) for j in carried]).tolist()
    channels = [(j, slice(ends[n], ends[n + 1])) for n, j in enumerate(carried)]
    coarse_h = _coarse_h(grid, min(cells))
    if coarse_h is not None:  # the solve starts from the coarse level's density
        indicators = [None] * r
    blocks = [[None] * r for _ in range(r)]
    for j in carried:
        for i in np.flatnonzero(live & (nu[j] != 0)):
            cov, corner = rasterize(windows_ji[j][i], grid)
            blocks[j][i] = _crop(cov / (cov.sum() * h2), corner)
    a_inv = np.linalg.inv(problem.a_matrix)
    boxes = [None] * r
    stencils = [None] * r
    for j, cells in channels:
        boxes[j], stencils[j] = _input_stencil(grid, problem.a_matrix, a_inv, masks[j],
                                               cells.start, ends[-1], centre)
    size = np.array([grid.ny, grid.nx])
    for j, m in mirrors.items():
        masks[m] = masks[j][::-1, ::-1]
        boxes[m] = None if boxes[j] is None else (size - boxes[j][1], size - boxes[j][0])
    fft_shape, outputs, placements = _spectral_plan(grid, masks, blocks, boxes, carried, centre)
    below = {j: slice(c.start, c.start if centre is None else c.stop - int(masks[j][centre].sum()))
             for j, c in channels}
    return RefinementKernel(
        grid=grid, problem=problem, w=held, centre=centre, channels=channels,
        mirrors=mirrors, below=below, masks=masks, indicators=indicators, blocks=blocks,
        boxes=boxes, stencils=stencils, outputs=outputs, fft_shape=fft_shape,
        spectra=_kernel_spectra(problem, grid, blocks, boxes, placements, mirrors, fft_shape,
                                _held_rows(fft_shape[0], centre)),
        coarse=None if coarse_h is None else build_kernel(problem, coarse_h))


def _kernel_spectra(problem, grid, blocks, boxes, placements, mirrors, shape, held):
    """The kernel's spectra (`RefinementKernel.spectra`): the first `held` rows of
    each, views of one zeroed allocation, which the C allocator maps on its own
    and returns to the system when the solve drops them.  Each block, its rows
    as wide as its placement, is transformed in one full-size scratch spectrum,
    which is freed before the coarse level is built."""
    r = len(blocks)
    keys = [(j, i) for j in range(r) for i in range(r) if placements[j][i] is not None]
    cols = shape[1] // 2 + 1
    slots = np.zeros(2 * len(keys) * held * cols).view(complex).reshape(len(keys), held, cols)
    scratch = np.empty((shape[0], cols), dtype=complex)
    h2 = grid.h * grid.h
    spectra = [[None] * r for _ in range(r)]
    for (j, i), slot in zip(keys, slots):
        placement = placements[j][i]
        rows = np.zeros((placement[0].stop, placement[1].stop))
        rows[placement] = blocks[j][i].arr * (problem.nu[j, i] * problem.detq_abs * h2)
        slot[:] = rfft2(rows, shape, scratch)[:held]
        if i in mirrors.values():
            for factor in _mirror_phases(boxes[i], shape, held):
                slot *= factor
            np.conjugate(slot, out=slot)
        spectra[j][i] = slot
    return spectra


def initial_density(kernel):
    """The masses w spread uniformly over the carried windows, packed (no coarse level)."""
    return np.concatenate([kernel.w[j] * kernel.indicators[j] for j, _ in kernel.channels])


def _step_buffers(kernel):
    """The arrays every step of one solve reuses, and the step's plan.

    The state: a packed density followed by one zero cell, the tail that the
    stencils read for a node off their mask.  Per carried channel j that is
    an input with a stencil or an output that reads one: its spectrum,
    `spectra[j]`, which holds input j's transform, then output j's sum and
    inverse transform.  Then the blocks, one per output and one for a term,
    _SUM_ROWS spectrum rows together.

    All are views of one zeroed allocation, which the C allocator maps on
    its own and returns to the system when the solve drops it, before the
    density is unpacked; separate ones stayed resident and raised the peak
    RSS.

    The plan: per output j that reads an input, in channel order, its terms
    as (kernel spectrum (j, i) or (j, mirrors[i]), input i's spectrum), the
    terms of the mirrored inputs first, and how many those are.  A kernel
    spectrum (j, i) exists only where input i, or its flip, has a stencil.
    """
    inputs = [i for i, _ in kernel.channels if kernel.stencils[i] is not None]
    terms = {}
    for j, _ in kernel.channels:
        row = kernel.spectra[j]
        flipped = [(row[m], i) for i, m in kernel.mirrors.items()
                   if i in inputs and row[m] is not None]
        direct = [(row[i], i) for i in inputs if row[i] is not None]
        if flipped or direct:
            terms[j] = flipped + direct, len(flipped)
    keys = [j for j, _ in kernel.channels if j in inputs or j in terms]
    rows, cols = kernel.fft_shape[0], kernel.fft_shape[1] // 2 + 1
    block = max(1, _SUM_ROWS // (len(terms) + 1))
    shapes = [(rows, cols)] * len(keys) + [(len(terms) + 1, block, cols)]
    sizes = [2 * int(np.prod(s)) for s in shapes] + [kernel.channels[-1][1].stop + 1]
    # the complex views first, so each starts on a 16-byte boundary
    *parts, state = np.split(np.zeros(sum(sizes)), np.cumsum(sizes)[:-1])
    *spectra, blocks = [p.view(complex).reshape(shape) for p, shape in zip(parts, shapes)]
    spectra = dict(zip(keys, spectra))
    plan = {j: ([(s, spectra[i]) for s, i in t], mirrored) for j, (t, mirrored) in terms.items()}
    return state, spectra, blocks, plan


def apply_refinement(x, kernel, buffers):
    """One application of the discretized matrix refinement operator, linear and
    positive, to a packed density, neither clamped nor rescaled.

    Each input channel is resampled through the inverse contraction with
    bilinear interpolation, convolved with the weighted transition kernels,
    scaled by |det Q| and restricted to the cells meeting its window.

    Input channels the kernel does not carry are taken to be zero and output
    channels it does not carry are not formed; the solve needs no more, since
    w = nu w forces nu_ji = 0 from a live channel i into a dead channel j.  A
    mirrored input r-1-i is read through input i's transform.  The
    convolutions run as products of the kernel's spectra, with one transform
    per input channel with a stencil.  Every input's stencil samples the
    packed state, copied once into the buffers' state ahead of its zero tail.

    The buffers and the plan are the solve's, made once for all its steps
    (`_step_buffers`).  One pass over the spectrum rows the kernel holds
    (`_held_rows`), a block of rows at a time, sums each output's products in
    a block of its own: the plan's terms in order, the sum conjugated after
    the last mirrored one, each term past the first made in the term block
    and added.  Once every output has formed a block, and so read those rows
    of every input, output j's block is stored in `spectra[j]`.  Under the
    row mirror the pass ends at row n // 2, and output j's row k past it is
    then its row n - k times e^{-2 pi i (2 c k mod n) / n}, by the symmetric
    convolution theorem (Martucci 1994): its periodic result is its own row
    flip about its row c of y = 0, the last row of its box.  Without the
    mirror the pass covers every row and nothing is filled.  The inverse
    transform of each output then runs in `spectra[j]` over the rows of its
    box, in place, its row pass made in the blocks.
    """
    state, spectra, blocks, plan = buffers
    state[:-1] = x
    for i, _ in kernel.channels:
        if kernel.stencils[i] is not None:
            rfft2(kernel.stencils[i].sample(state), kernel.fft_shape, spectra[i],
                  kernel.centre is not None)
    *acc, term = blocks
    size = kernel.fft_shape[0]
    held = _held_rows(size, kernel.centre)
    for lo in range(0, held, len(term)):
        rows = slice(lo, min(lo + len(term), held))
        n = rows.stop - lo
        for (terms, mirrored), block in zip(plan.values(), acc):
            block = block[:n]
            for k, (spectrum, source) in enumerate(terms):
                if k == 0:
                    np.multiply(spectrum[rows], source[rows], out=block)
                else:
                    block += np.multiply(spectrum[rows], source[rows], out=term[:n])
                if k == mirrored - 1:
                    np.conjugate(block, out=block)
        for j, block in zip(plan, acc):
            spectra[j][rows] = block[:n]
    out = np.zeros_like(x)
    cells = dict(kernel.channels)
    whole = blocks.view(float).reshape(-1, 2 * blocks.shape[2])  # real rows of the row pass
    for j in plan:
        box, (rows, cols) = kernel.outputs[j]
        # the rows past the held ones, from rows size - held down to 1
        np.multiply(spectra[j][size - held:0:-1],
                    _phase(np.arange(held, size)[:, None], 2 * (rows.stop - 1), size),
                    out=spectra[j][held:])
        inside = kernel.masks[j][box]
        starts = cells[j].start + np.concatenate([[0], np.cumsum(inside.sum(axis=1))])
        for lo, part in irfft2(spectra[j], kernel.fft_shape, rows, whole):
            hi = lo + len(part)
            out[starts[lo]:starts[hi]] = part[:, cols][inside[lo:hi]]
    return out


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
    the small normal system well scaled as the residuals shrink.  Its least-norm
    solution is formed elementwise, so for at most two differences: by Cramer's rule
    when the normal matrix is well conditioned, else as normal rhs / trace^2 (exact
    at rank <= 1).  More differences raise ValueError.
    """
    if (n := len(gram) - 1) > 2:
        raise ValueError(f"_MIX_DEPTH = {_MIX_DEPTH}: weights fit at most 2 differences, not {n}")
    normal = gram[n, n] - gram[n, :n][None, :] - gram[:n, n][:, None] + gram[:n, :n]
    trace = normal.trace()
    det = normal[0, 0] * normal[1, 1] - normal[0, 1] * normal[1, 0] if n == 2 else 0.0
    if det > 4 * np.finfo(float).eps * trace**2:
        inverse = np.array([[normal[1, 1], -normal[0, 1]], [-normal[1, 0], normal[0, 0]]]) / det
    else:
        inverse = normal / trace**2 if trace > 0 else np.zeros_like(normal)
    gamma = (inverse * (gram[n, n] - gram[:n, n])).sum(axis=1)
    return np.append(gamma, 1.0 - gamma.sum())


def _two_tap(values, points, nodes):
    """Rows of `values` at `points`, linear between equispaced `nodes`: each point reads
    its two neighbouring nodes, weighted by its fractional offset, and is 0 off them."""
    t = (points - nodes[0]) / (nodes[1] - nodes[0])
    lo = np.clip(np.floor(t), 0, len(nodes) - 2).astype(np.intp)
    frac = (t - lo)[:, None]
    on = ((t >= 0) & (t <= len(nodes) - 1))[:, None]
    return np.where(on, (1.0 - frac) * values[lo] + frac * values[lo + 1], 0.0)


def _prolong(density, kernel):
    """Bilinear samples of a coarser density at the kernel's carried mask cells, packed:
    two-tap reads per axis onto each mask's bounding box."""
    coarse = density.grid
    parts = []
    for j, _ in kernel.channels:
        rows, cols = kernel.outputs[j][0]
        along_y = _two_tap(density.values[j], kernel.grid.y_centers()[rows], coarse.y_centers())
        both = _two_tap(along_y.T, kernel.grid.x_centers()[cols], coarse.x_centers()).T
        parts.append(both[kernel.masks[j][rows, cols]])
    return np.concatenate(parts)


def _rescale(x, kernel, masses):
    """The solve's projection, in place: clamp a packed density at zero and rescale
    each channel of positive mass to its positive mass in `masses`."""
    np.maximum(x, 0.0, out=x)
    held = kernel.masses(x)
    for j, cells in kernel.channels:
        if held[j] > 0 and masses[j] > 0:
            x[cells] *= masses[j] / held[j]


def solve_fixed_point(kernel, tol=1e-8, maxit=200):
    """Iterate the refinement operator to the invariant density of the kernel's w.

    Starts from the window indicators carrying masses w and stops when the
    summed L1 change of all channels over one step drops below tol.

    Each step's output is clamped at zero and rescaled by a 1 + O(h^2) factor
    per channel to the exact transport m' = nu m (`_rescale`); unprojected, the
    discrete operator's spectral radius drifts off one by the quadrature
    error and the residual cannot fall below it.

    When the kernel holds a coarser level, the same problem is first solved
    there; this solve starts from that density, interpolated bilinearly
    onto the mask cells and rescaled to the masses w (nested iteration,
    Brandt 1977).  The result's residuals are this level's only.

    The iterates are Anderson-mixed (Walker & Ni 2011): each next iterate
    combines the last _MIX_DEPTH + 1 step outputs with the affine weights
    that minimize the combined residual, and is then clamped at zero and
    rescaled to the masses w, because the mass direction is a neutral mode
    of the weight matrix in which mixing error would never decay.  When a
    step's residual rises the history is dropped and the next iterate is
    that step's output, the plain step (Toth & Kelley 2015).  The state is
    packed over the kernel's carried channels, and its sums and inner
    products count every cell it stands for (`RefinementKernel.masses`); every
    other channel stays exactly zero or, in the point-reflection quotient,
    the flip of its partner.  The inner products of the stored residuals are
    kept from step to step, so each step forms only those of its own.

    The kernel serves this solve alone: the solve drops its `blocks` before
    the first step, its `coarse` level once that level's density has seeded
    this one, and its `spectra` and `stencils` once it has converged, before
    the density grid is built.  A kernel already solved raises ValueError.
    """
    if kernel.blocks is None:
        raise ValueError("the kernel has served its solve; build another")
    kernel.blocks = None  # only build_kernel reads them
    if kernel.coarse is None:
        x = initial_density(kernel)
    else:
        x = _prolong(solve_fixed_point(kernel.coarse, tol, maxit).density, kernel)
        kernel.coarse = None
        _rescale(x, kernel, kernel.w)
    buffers = _step_buffers(kernel)
    residuals = []
    mass_history = [kernel.masses(x)]
    outputs, diffs, gram = [], [], np.zeros((0, 0))
    for _ in range(maxit):
        g = apply_refinement(x, kernel, buffers)
        _rescale(g, kernel, (kernel.problem.nu * kernel.masses(x)).sum(axis=1))
        diff = np.subtract(g, x, out=x)  # the iterate itself is not needed again
        resid = float(kernel.masses(np.abs(diff)).sum())
        residuals.append(resid)
        mass_history.append(kernel.masses(g))
        if resid < tol:
            del outputs[:], diffs[:], x, diff, buffers  # freed before the full grid is built
            kernel.spectra = kernel.stencils = None
            return FixedPointResult(density=kernel.unpack(g),
                                    residuals=np.array(residuals),
                                    mass_history=mass_history)
        if len(residuals) > 1 and resid > residuals[-2]:
            outputs, diffs, gram = [], [], gram[:0, :0]
        outputs.append(g)
        diffs.append(diff)
        gram = np.pad(gram, (0, 1))
        gram[-1] = gram[:, -1] = [kernel.masses(diff * e).sum() for e in diffs]
        alpha = _mixing_weights(gram)
        x = alpha[0] * outputs[0]
        for a, g_k in zip(alpha[1:], outputs[1:]):
            x += a * g_k
        _rescale(x, kernel, kernel.w)
        if len(outputs) > _MIX_DEPTH:  # the oldest pair takes no part in the next fit
            del outputs[0], diffs[0]
            gram = gram[1:, 1:]
    raise RuntimeError(f"fixed point iteration did not reach tol={tol} within "
                       f"{maxit} iterations (last residual {residuals[-1]:.3e})")


def polygon_ft(polygons, kappas):
    """Fourier transform of each normalized polygon indicator at each wavevector of
    the (n, 2) array kappas, shape (n, len(polygons)).

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
    k = kappas[~small, None]  # (wavevector, edge) products by broadcasting
    line = lengths * np.sinc(dot(k, tangents) * lengths / (2 * np.pi)) * np.exp(-1j * dot(k, mid))
    sums = np.add.reduceat(dot(k, normals) * line, starts, axis=1)
    areas = np.array([area(P) for P in polygons])
    out[~small] = 1j * sums / (kn[~small] ** 2)[:, None] / areas
    if small.any():
        centroids = np.array([centroid(P) for P in polygons])
        out[small] = np.exp(-1j * dot(kappas[small, None], centroids))
    return out


def fourier_product(problem, ks):
    """Truncated infinite matrix product for the density transform at each
    wavevector k of ks, shape (len(ks), r).

    Applies the weighted window-transform matrices along the contracted
    wavevector orbit k, A^T k, ... to the mass vector; the orbit stops before
    its first member shorter than _PRODUCT_TAIL, or after 10000 steps.  All
    orbits advance together, so the memory held grows with the count of the
    wavevectors given: one transform table covers their members, an identity
    stands past each orbit's end, and one batched product runs per orbit
    position.
    """
    ks = np.asarray(ks, dtype=float).reshape(-1, 2)
    nu, w, a_matrix = problem.nu, problem.w, problem.a_matrix
    kappas = [ks]
    while len(kappas) <= 10000 and \
            (np.hypot(*(step := dot(kappas[-1][:, None], a_matrix.T)).T) >= _PRODUCT_TAIL).any():
        kappas.append(step)
    orbits = np.stack(kappas, axis=1)  # (len(ks), orbit position, 2)
    live = np.hypot(orbits[..., 0], orbits[..., 1]) >= _PRODUCT_TAIL
    live[:, 0] = True
    live = np.logical_and.accumulate(live, axis=1)  # each orbit ends at its first short member
    jj, ii = np.nonzero(nu)
    table = polygon_ft([problem.windows_ji[j][i] for j, i in zip(jj, ii)], orbits[live])
    mats = np.zeros((*live.shape, len(w), len(w)), dtype=complex)
    mats[~live] = np.eye(len(w))
    orbit, position = np.nonzero(live)
    mats[orbit[:, None], position[:, None], jj, ii] = nu[jj, ii] * table
    acc = w.astype(complex)  # broadcast over the orbits by the first product
    for mat in mats.swapaxes(0, 1)[::-1]:
        acc = (mat * acc[..., None, :]).sum(axis=-1)
    return acc


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


def compare_solvers(density, problem, chunks):
    """Largest deviation between the grid transform and the matrix product.

    `chunks` is an iterable of (n, 2) wavevector arrays; each goes whole
    through both transforms, and only its largest deviation is kept, so the
    memory held is set by the largest chunk, not by their count.  Deviation is
    measured relative to the largest channel mass; returns the maximum over
    all wavevectors and channels.
    """
    if isinstance(chunks, np.ndarray):  # iterating it would take each wavevector alone
        raise TypeError("compare_solvers takes an iterable of wavevector chunks, not one array")
    largest = -np.inf  # stays so until a wavevector comes
    for ks in chunks:
        largest = np.abs(grid_ft(density, ks).T - fourier_product(problem, ks)).max(initial=largest)
    if largest < 0:
        raise ValueError("no wavevectors to compare the solvers at")
    return float(largest / np.abs(problem.w).max())


def write_density(density, grid_files=None, csv_file=None):
    """Channel grids and the combined CSV from one pass over the samples.

    `grid_files` maps a channel to the file that takes it as headered rows of
    samples, y increasing row by row; `csv_file` takes all channels as a flat
    x,y,f1,...,fr table for plotting.  Either may be None.  The pass walks
    row blocks of about `text.WRITE_CHUNK_VALUES` samples, formats each sample
    once and joins the same strings into every output that shows it.  Bit for
    bit comparisons decide three savings.  A channel of +0.0 only is never
    formatted: its grid rows are one string and its CSV field a literal.  When
    every written channel is its own row flip, only the rows up to the centre
    are formatted; their grid lines and CSV rows, the y field a placeholder
    there, are kept and written again for the rows past it.  Under that row
    mirror, when channel r-1-j is also channel j flipped, channel j is
    formatted once and r-1-j reads that text backwards; without the mirror,
    both channels of such a pair are formatted.
    """
    g = density.grid
    grid_files = grid_files or {}
    for fileobj in grid_files.values():
        fileobj.write(f"# origin {text.fmt(g.origin[0])} {text.fmt(g.origin[1])}\n")
        fileobj.write(f"# h {text.fmt(g.h)}\n")
        fileobj.write(f"# nx {g.nx} ny {g.ny}\n")
    channels = range(density.r) if csv_file is not None else sorted(grid_files)
    if not channels:
        return
    values, nx, ny, r = density.values, g.nx, g.ny, density.r
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    zero = {j for j in channels if not bits[j].any()}
    mirror = all(np.array_equal(bits[j], bits[j][::-1]) for j in channels)
    flipped = {r - 1 - j: j for j in channels if mirror and j < r - 1 - j
               and r - 1 - j in channels and j not in zero
               and np.array_equal(bits[r - 1 - j], bits[j][::-1, ::-1])}
    rows = (ny + 1) // 2 if mirror else ny
    step = max(1, text.WRITE_CHUNK_VALUES // (nx * len(channels)))

    def formatted(j, lo, hi):
        s = text.format_samples(values[j, lo:hi])
        return [s[k:k + nx] for k in range(0, len(s), nx)]

    zero_line = " ".join(["0"] * nx)
    xs, ys, layout = [], [], []
    if csv_file is not None:
        csv_file.write("x,y," + ",".join(f"f{j + 1}" for j in channels) + "\n")
        xs = [x + "," for x in text.format_samples(g.x_centers())]
        ys = text.format_samples(g.y_centers())
        # a CSV row template: x, "\0" standing for y, then the channels' fields
        # or, for a zero channel, literal text
        literal = "\0,"
        for j in channels:
            separator = "," if j < r - 1 else "\n"
            if j in zero:
                literal += "0" + separator
            else:
                layout += [literal, j]
                literal = separator
        layout.append(literal)
    held_lines, held_rows = {j: [] for j in grid_files}, []

    def emit(lines, templates, y_text):
        for j, fileobj in grid_files.items():
            fileobj.write("\n".join(lines[j]) + "\n")
        if csv_file is not None:
            csv_file.write("".join([t.replace("\0", y) for t, y in zip(templates, y_text)]))

    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        samples = {j: formatted(j, lo, hi) for j in channels
                   if j not in zero and j not in flipped}
        # channel m's rows are channel j's rows at the other end, each reversed,
        # and under the row mirror those are j's rows in this block
        for m, j in flipped.items():
            samples[m] = [row[::-1] for row in samples[j]]
        lines = {j: [zero_line] * (hi - lo) if j in zero else [" ".join(row) for row in samples[j]]
                 for j in grid_files}
        templates = [] if csv_file is None else [
            "".join(chain.from_iterable(zip(xs, *[repeat(p) if isinstance(p, str) else samples[p][k]
                                                  for p in layout])))
            for k in range(hi - lo)]
        emit(lines, templates, ys[lo:hi])
        if mirror:
            for j in grid_files:
                held_lines[j] += lines[j]
            held_rows += templates
    for lo in range(rows, ny, step):  # row iy past the centre is row ny-1-iy again
        hi = min(lo + step, ny)
        emit({j: held_lines[j][ny - hi:ny - lo][::-1] for j in grid_files},
             held_rows[ny - hi:ny - lo][::-1], ys[lo:hi])


def write_density_grid(density, channel, fileobj):
    """One channel as headered rows of samples, y increasing row by row."""
    write_density(density, grid_files={channel: fileobj})


def write_density_csv(density, fileobj):
    """All channels as a flat x,y,f1,...,fr table for plotting."""
    write_density(density, csv_file=fileobj)
