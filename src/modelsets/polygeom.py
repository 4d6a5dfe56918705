"""Convex window geometry in the internal plane.

A Region is an empty set, a single point, or a convex polygon with CCW
vertices.  Erosion of one convex region by another is computed exactly by
shifting each edge line of the eroded region inward by the support of the
structuring region and meeting consecutive lines, after dropping the ones
that cut nothing off; degenerate intersections collapse to a point or to
the empty region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COLLINEAR_TOL = 1e-12
COLLAPSE_AREA = 1e-18
POINT_FEAS_TOL = 1e-9
DEFAULT_EPS = 1e-9
SNAP_TOL = 1e-12


class Region:
    """Empty | SinglePoint | convex CCW Polygon."""

    __slots__ = ("kind", "vertices")

    def __init__(self, kind, vertices):
        self.kind = kind
        self.vertices = vertices

    @classmethod
    def empty(cls):
        return cls("empty", np.zeros((0, 2)))

    @classmethod
    def single(cls, u):
        return cls("point", np.asarray(u, dtype=float).reshape(1, 2))

    @classmethod
    def polygon(cls, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        if _signed_area(verts) < 0:
            verts = verts[::-1]
        verts = _clean_vertices(verts)
        if len(verts) < 3:
            raise ValueError("polygon degenerates after removing duplicates")
        scale = max(1.0, np.abs(verts).max())
        turns = _crosses(verts - np.roll(verts, 1, axis=0), np.roll(verts, -1, axis=0) - verts)
        if (turns <= COLLINEAR_TOL * scale * scale).any():
            raise ValueError("polygon is not strictly convex")
        if _signed_area(verts) <= 0:
            raise ValueError("polygon has non-positive area")
        return cls("polygon", verts)

    @property
    def is_empty(self):
        return self.kind == "empty"

    @property
    def is_point(self):
        return self.kind == "point"

    @property
    def is_polygon(self):
        return self.kind == "polygon"

    @property
    def point(self):
        if not self.is_point:
            raise ValueError("not a single-point region")
        return self.vertices[0]

    def circumradius(self):
        """Largest distance from the origin to the region."""
        if self.is_empty:
            return 0.0
        return float(np.hypot(self.vertices[:, 0], self.vertices[:, 1]).max())

    def __repr__(self):
        if self.is_empty:
            return "Region.empty()"
        if self.is_point:
            return f"Region.single(({self.point[0]}, {self.point[1]}))"
        return f"Region.polygon(<{len(self.vertices)} vertices>)"


def _crosses(u, v):
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _signed_area(verts):
    """Shoelace area, measured from the first vertex so that a small polygon far
    from the origin keeps its digits."""
    d = verts - verts[0]
    x = d[:, 0]
    y = d[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _clean_vertices(verts):
    """Merge near-duplicate vertices and drop collinear ones."""
    scale = max(1.0, np.abs(verts).max())
    out = []
    for v in verts:
        if not out or np.hypot(*(v - out[-1])) > 1e-12 * scale:
            out.append(v)
    if len(out) > 1 and np.hypot(*(out[0] - out[-1])) <= 1e-12 * scale:
        out.pop()
    verts = np.array(out)
    if len(verts) < 3:
        return verts
    before = np.roll(verts, 1, axis=0)
    spans = _crosses(np.roll(verts, -1, axis=0) - before, verts - before)
    return verts[np.abs(spans) > COLLINEAR_TOL * scale * scale]


def _edge_normals(P):
    """Unit outward normals and offsets of a CCW polygon's edges."""
    verts = P.vertices
    t = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(t[:, 0], t[:, 1])
    normals = np.column_stack([t[:, 1], -t[:, 0]]) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, verts)
    return normals, offsets


def support(P, n):
    """Support value max_{x in P} <x, n>."""
    if P.is_empty:
        raise ValueError("empty support")
    n = np.asarray(n, dtype=float).reshape(2)
    return float((P.vertices @ n).max())


def area(P):
    """Area of the region (0 for the degenerate variants)."""
    if not P.is_polygon:
        return 0.0
    return _signed_area(P.vertices)


def centroid(P):
    if P.is_point:
        return P.vertices[0].copy()
    if not P.is_polygon:
        raise ValueError("centroid of an empty region")
    v = P.vertices
    w = np.roll(v, -1, axis=0)
    return (v + w).T @ _crosses(v, w) / (6.0 * _signed_area(v))


def translate(P, t):
    if P.is_empty:
        return Region.empty()
    t = np.asarray(t, dtype=float).reshape(2)
    if P.is_point:
        return Region.single(P.vertices[0] + t)
    return Region("polygon", P.vertices + t)


def linear_image(P, M):
    """Image of the region under a 2x2 matrix, re-oriented CCW."""
    M = np.asarray(M, dtype=float)
    if P.is_empty:
        return Region.empty()
    if P.is_point:
        return Region.single(M @ P.vertices[0])
    if abs(np.linalg.det(M)) < 1e-15:
        raise ValueError("singular matrix in linear_image")
    return Region.polygon(P.vertices @ M.T)


def contains(P, u, eps=DEFAULT_EPS):
    """Membership with signed half-plane distance tolerance eps.

    eps >= 0 accepts points within eps of the closed region; a negative
    eps demands points strictly inside by |eps| (open-window convention).
    """
    return bool(contains_many(P, np.asarray(u, dtype=float).reshape(1, 2), eps)[0])


def contains_many(P, pts, eps=DEFAULT_EPS):
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    if P.is_empty:
        return np.zeros(len(pts), dtype=bool)
    if P.is_point:
        d = np.hypot(pts[:, 0] - P.point[0], pts[:, 1] - P.point[1])
        return d <= eps
    normals, offsets = _edge_normals(P)
    dist = pts @ normals.T
    dist -= offsets
    inside = dist[:, 0] <= eps  # a NaN row fails every edge
    for column in dist.T[1:]:
        inside &= column <= eps
    return inside


def _meet(na, da, nb, db, cross):
    """Rows of the points where the lines na . u = da and nb . u = db meet,
    given cross = na x nb != 0; negating na and nb negates them exactly."""
    return np.column_stack([da * nb[:, 1] - db * na[:, 1],
                            db * na[:, 0] - da * nb[:, 0]]) / cross[:, None]


def erode(C, K):
    """Erosion {u : K + u is contained in C} of convex regions.

    Every edge line of C moves inward by the support of K along its outward
    normal; exact for convex C and K.  While more than three lines are left,
    the one with the most slack (of equal slacks, the largest offset) is
    dropped if the meeting point of its neighbours satisfies it within
    POINT_FEAS_TOL and their normals are not (nearly) parallel.  Consecutive
    kept lines meet at the vertices.  They make a polygon when each kept line
    bounds an edge of positive length, the area is at least COLLAPSE_AREA
    and every vertex satisfies every moved line within POINT_FEAS_TOL.
    Otherwise the result is the meeting point of the best-conditioned
    consecutive pair, with coordinates within SNAP_TOL of 0 set to 0, if it
    satisfies every line within POINT_FEAS_TOL, and empty if it does not.
    Each vertex depends only on its own two lines and the choices only on
    values that negation keeps, so erode(-C, -K) is exactly -erode(C, K);
    the vertex either list starts at matters only where two lines tie in
    both slack and offset.
    """
    if C.is_empty or K.is_empty:
        raise ValueError("erode requires non-empty regions")
    if K.is_point:
        return translate(C, -K.point)
    if C.is_point:
        return Region.empty()
    normals, offsets = _edge_normals(C)
    offsets = offsets - np.array([support(K, n) for n in normals])
    keep = np.arange(len(normals))
    while len(keep) > 3:
        a, b = np.roll(keep, 1), np.roll(keep, -1)
        cross = _crosses(normals[a], normals[b])
        apart = cross > COLLINEAR_TOL
        p = _meet(normals[a], offsets[a], normals[b], offsets[b], np.where(apart, cross, 1.0))
        slack = np.where(apart, offsets[keep] - np.einsum("ij,ij->i", normals[keep], p), -np.inf)
        k = np.lexsort((offsets[keep], slack))[-1]  # most slack, ties to the outermost
        if slack[k] < -POINT_FEAS_TOL:
            break
        keep = np.delete(keep, k)
    n, d = normals[keep], offsets[keep]
    cross = _crosses(np.roll(n, 1, axis=0), n)
    verts = _meet(np.roll(n, 1, axis=0), np.roll(d, 1), n, d, cross)  # on lines k - 1 and k
    feasible = (verts @ normals.T - offsets).max(axis=1) <= POINT_FEAS_TOL
    if (feasible.all() and (_crosses(n, np.roll(verts, -1, axis=0) - verts) > 0).all()
            and _signed_area(verts) >= COLLAPSE_AREA):
        return Region("polygon", verts)
    best = np.argmax(cross)
    if not feasible[best]:
        return Region.empty()
    u = verts[best]
    u[np.abs(u) <= SNAP_TOL] = 0.0
    return Region.single(u)


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell grid; cell (ix, iy) covers origin + [ix, ix+1) x [iy, iy+1) * h."""

    origin: tuple
    h: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("grid cell size must be positive")
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError("grid must have positive cell counts")

    def x_centers(self):
        return self.origin[0] + (np.arange(self.nx) + 0.5) * self.h

    def y_centers(self):
        return self.origin[1] + (np.arange(self.ny) + 0.5) * self.h


def rasterize(P, grid):
    """Exact per-cell coverage fractions of a polygon on its box of the grid's cells,
    and the (row, col) of the box's first cell from the grid's, on or off the grid.

    Every edge is cut where it crosses a grid line.  Each piece adds its
    signed trapezoid area, measured to its cell's right side, to that cell
    and the rest of its height to the next cell in the row; a running sum
    along each row then gives the polygon's area in every cell.  Values
    within SNAP_TOL of 0 or 1 are rounding residue and are set exactly.
    """
    if not P.is_polygon:
        raise ValueError("measure-zero window: rasterization forbidden")
    a = (P.vertices - grid.origin) / grid.h
    lo = np.floor(a.min(axis=0)).astype(np.int64)
    nx, ny = np.ceil(a.max(axis=0)).astype(np.int64) - lo
    a = a - lo  # grid units from the polygon's box: cell (ix, iy) is [ix, ix+1) x [iy, iy+1)
    b = np.roll(a, -1, axis=0)
    # cut points: the vertices, then every crossing of a grid line strictly
    # inside an edge; an edge on a grid line crosses none, so no 0/0
    edge, param, cuts = [np.arange(len(a))], [np.zeros(len(a))], [a]
    for c in (0, 1):
        first = np.floor(np.minimum(a[:, c], b[:, c])).astype(np.int64) + 1
        counts = np.maximum(np.ceil(np.maximum(a[:, c], b[:, c])).astype(np.int64) - first, 0)
        e = np.repeat(np.arange(len(a)), counts)
        k = first[e] + np.arange(len(e)) - np.repeat(np.cumsum(counts) - counts, counts)
        t = (k - a[e, c]) / (b[e, c] - a[e, c])
        pts = a[e] + t[:, None] * (b[e] - a[e])
        pts[:, c] = k
        edge.append(e)
        param.append(t)
        cuts.append(pts)
    p = np.concatenate(cuts)[np.lexsort((np.concatenate(param), np.concatenate(edge)))]
    q = np.roll(p, -1, axis=0)
    mid = 0.5 * (p + q)
    # a piece on the box's last grid line belongs to the cell before it
    ix, iy = np.clip(np.floor(mid).astype(np.int64), 0, [nx - 1, ny - 1]).T
    frac = mid[:, 0] - ix
    dy = p[:, 1] - q[:, 1]  # positive on the left side of a CCW polygon
    cell = iy * (nx + 1) + ix
    acc = np.bincount(np.concatenate([cell, cell + 1]),
                      np.concatenate([dy * (1.0 - frac), dy * frac]), minlength=ny * (nx + 1))
    cov = np.cumsum(acc.reshape(ny, nx + 1), axis=1)[:, :-1]
    cov[np.abs(cov) <= SNAP_TOL] = 0.0
    cov[np.abs(cov - 1.0) <= SNAP_TOL] = 1.0
    return cov, (int(lo[1]), int(lo[0]))
