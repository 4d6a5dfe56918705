import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modelsets.polygeom import (COLLINEAR_TOL, GridSpec, Region, _clean_vertices, _edge_normals,
                                _signed_area, area, centroid, contains, contains_many,
                                erode, linear_image, rasterize, support, translate)
from tests.conftest import coverage

TAU = (1 + math.sqrt(5)) / 2


def pentagon(scale=1.0):
    return Region.polygon([
        (scale * math.cos(2 * math.pi * k / 5), scale * math.sin(2 * math.pi * k / 5))
        for k in range(5)
    ])


def random_hull(rng, n=8, spread=1.0):
    while True:
        pts = rng.normal(size=(n, 2)) * spread
        try:
            hull = _hull(pts)
            return Region.polygon(hull)
        except ValueError:
            continue


def _hull(pts):
    from scipy.spatial import ConvexHull
    h = ConvexHull(pts)
    return pts[h.vertices]


def match_vertices(P, expected, tol=1e-9):
    got = P.vertices
    assert len(got) == len(expected)
    for v in np.asarray(expected, dtype=float):
        assert np.hypot(got[:, 0] - v[0], got[:, 1] - v[1]).min() < tol


def test_support_values():
    P = pentagon()
    assert abs(support(P, (1, 0)) - 1.0) < 1e-12
    u0 = np.array([0.3, -0.7])
    assert abs(support(Region.single(u0), (0, 1)) - (-0.7)) < 1e-15
    # outward normal of the edge through the first and second vertices
    n = np.array([math.cos(math.radians(36)), math.sin(math.radians(36))])
    assert abs(support(P, n) - math.cos(math.radians(36))) < 1e-12
    with pytest.raises(ValueError, match="empty support"):
        support(Region.empty(), (1, 0))


def test_support_scales_with_positive_dilation():
    rng = np.random.default_rng(3)
    P = random_hull(rng)
    for lam in (0.3, 2.5):
        Q = linear_image(P, lam * np.eye(2))
        for _ in range(20):
            n = rng.normal(size=2)
            n /= np.hypot(*n)
            assert abs(support(Q, n) - lam * support(P, n)) < 1e-9


def test_linear_image():
    P = pentagon()
    assert np.allclose(linear_image(P, np.eye(2)).vertices, P.vertices)
    N = linear_image(P, -np.eye(2))
    match_vertices(N, -P.vertices)
    scaled = linear_image(P, TAU * np.eye(2))
    assert abs(area(scaled) - TAU**2 * area(P)) < 1e-9
    with pytest.raises(ValueError):
        linear_image(P, np.array([[1.0, 0.0], [2.0, 0.0]]))


def test_erode_pentagon_table_entries():
    P = pentagon()
    small = erode(P, linear_image(P, -np.eye(2) / TAU))
    match_vertices(small, pentagon(TAU**-3).vertices)
    point = erode(P, P)
    assert point.is_point and np.abs(point.point).max() < 1e-9
    assert erode(P, linear_image(P, -np.eye(2))).is_empty


def test_erode_support_oracle():
    # tau*P eroded by (1/tau)*P leaves P: supports subtract edge by edge
    big = pentagon(TAU)
    small = pentagon(1 / TAU)
    result = erode(big, small)
    match_vertices(result, pentagon().vertices)
    for k in range(5):
        n = np.array([math.cos(math.radians(36 + 72 * k)),
                      math.sin(math.radians(36 + 72 * k))])
        assert abs(support(result, n) - (support(big, n) - support(small, n))) < 1e-9


def test_erode_by_point_translates():
    P = pentagon()
    shifted = erode(P, Region.single((0.25, -0.1)))
    match_vertices(shifted, P.vertices - np.array([0.25, -0.1]))
    assert erode(Region.single((1.0, 2.0)), P).is_empty


def test_erosion_monotone_in_structuring_region():
    rng = np.random.default_rng(5)
    for _ in range(10):
        C = random_hull(rng, spread=2.0)
        K2 = random_hull(rng, spread=0.5)
        c = centroid(K2)
        K1 = translate(linear_image(translate(K2, -c), 0.5 * np.eye(2)), c)
        E2 = erode(C, K2)
        E1 = erode(C, K1)
        if not E2.is_polygon:
            continue
        assert not E1.is_empty
        assert contains_many(E1, E2.vertices, 1e-9).all()


def test_erosion_sampling_correctness():
    rng = np.random.default_rng(9)
    for _ in range(5):
        C = random_hull(rng, spread=2.0)
        K = random_hull(rng, spread=0.4)
        E = erode(C, K)
        if not E.is_polygon:
            continue
        wu = rng.dirichlet(np.ones(len(E.vertices)), size=1000)
        us = wu @ E.vertices
        wk = rng.dirichlet(np.ones(len(K.vertices)), size=32)
        ks = wk @ K.vertices
        sums = us[:, None, :] + ks[None, :, :]
        assert contains_many(C, sums.reshape(-1, 2), 1e-9).all()
        # just outside the erosion, the support-touching element of K escapes C
        from modelsets.polygeom import _edge_normals
        normals, offsets = _edge_normals(E)
        for n, c0 in zip(normals, offsets):
            u = n * (c0 + 2e-6)
            witness = K.vertices[np.argmax(K.vertices @ n)]
            assert not contains(C, u + witness, 1e-9)


def test_area():
    assert area(Region.empty()) == 0.0
    assert area(Region.single((3.0, 4.0))) == 0.0
    P = pentagon()
    assert abs(area(P) - 2.5 * math.sin(math.radians(72))) < 1e-12
    tiny = pentagon(TAU**-3)
    assert abs(area(tiny) / area(P) - TAU**-6) < 1e-12


def test_area_rigid_invariance():
    rng = np.random.default_rng(21)
    P = random_hull(rng)
    base = area(P)
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    assert abs(area(linear_image(P, rot)) - base) < 1e-12
    assert abs(area(translate(P, (5.0, -2.0))) - base) < 1e-12
    rolled = Region.polygon(np.roll(P.vertices, 2, axis=0))
    assert abs(area(rolled) - base) < 1e-12


def test_small_polygon_keeps_its_area_away_from_the_origin():
    # products of absolute coordinates would cancel: summed that way, the
    # translated triangle read 7.11e-15 instead of 5.00e-15
    legs = [(0.0, 0.0), (1e-7, 0.0), (0.0, 1e-7)]
    at_origin = area(Region("polygon", np.array(legs)))
    assert abs(at_origin - 5e-15) <= 1e-24
    for shift in [(3.3, -2.9), (-40.0, 17.5)]:
        moved = area(Region("polygon", np.array(legs) + shift))
        assert abs(moved - at_origin) <= 1e-6 * at_origin, shift


def test_contains():
    P = pentagon()
    assert contains(P, (0, 0))
    v = (math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))
    assert contains(P, v)  # boundary vertex, closed convention
    assert not contains(P, (1.01, 0))
    assert not contains(P, v, eps=-1e-9)  # open convention excludes the boundary
    assert contains(Region.single((1.0, 1.0)), (1.0, 1.0))
    assert not contains(Region.empty(), (0.0, 0.0))


def test_rasterize_full_cover():
    grid = GridSpec(origin=(0.0, 0.0), h=0.25, nx=4, ny=4)
    square = Region.polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    cov = coverage(square, grid)
    assert np.all(cov == 1.0)


def test_rasterize_pentagon_area():
    grid = GridSpec(origin=(-1.1, -1.1), h=0.01, nx=220, ny=220)
    cov = coverage(pentagon(), grid)
    assert abs(cov.sum() * grid.h**2 - area(pentagon())) < 0.005
    # a cell far outside the polygon stays zero
    assert cov[0, 0] == 0.0


def test_rasterize_rejects_degenerate():
    grid = GridSpec(origin=(-1.0, -1.0), h=0.1, nx=20, ny=20)
    with pytest.raises(ValueError, match="measure-zero"):
        rasterize(Region.single((0.0, 0.0)), grid)


def test_rasterize_places_a_polygon_off_the_grid():
    # the box of cells is counted from the grid's first cell, wherever it falls
    grid = GridSpec(origin=(-1.0, -1.0), h=0.1, nx=20, ny=20)
    P = pentagon(5.0)
    cov, (row, col) = rasterize(P, grid)
    assert row < 0 and col < 0
    assert row + len(cov) > grid.ny and col + cov.shape[1] > grid.nx
    assert abs(cov.sum() * grid.h**2 - area(P)) <= 1e-12 * area(P)


def test_polygon_validation():
    with pytest.raises(ValueError):
        Region.polygon([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        Region.polygon([(0, 0), (1, 0), (2, 0)])  # collinear
    # clockwise input is reoriented
    P = Region.polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert area(P) > 0


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(origin=(0, 0), h=-1.0, nx=4, ny=4)
    with pytest.raises(ValueError):
        GridSpec(origin=(0, 0), h=0.5, nx=0, ny=4)


@st.composite
def convex_regions(draw, smallest=0.05, largest=1.0):
    """Rotated polygons on a random ellipse; no angular gap is under a third
    of any other."""
    n = draw(st.integers(3, 8))
    gaps = np.array(draw(st.lists(st.floats(1, 3), min_size=n, max_size=n)))
    angles = draw(st.floats(0, 2 * np.pi)) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    rx, ry = draw(st.floats(smallest, largest)), draw(st.floats(smallest, largest))
    turn = draw(st.floats(0, np.pi))
    center = np.array([draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))])
    rot = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    verts = np.column_stack([rx * np.cos(angles), ry * np.sin(angles)]) @ rot.T + center
    try:
        return Region.polygon(verts)
    except ValueError:
        assume(False)


def brute_erosion_membership(C, K, us, margin):
    """(inside, outside) by the definition, every vertex of K + u lies in C,
    each with `margin` to spare in C's half-planes; u near the erosion's
    boundary is neither."""
    pts = (us[:, None, :] + K.vertices[None, :, :]).reshape(-1, 2)
    nk = len(K.vertices)
    inside = contains_many(C, pts, -margin).reshape(-1, nk).all(axis=1)
    outside = ~contains_many(C, pts, margin).reshape(-1, nk).all(axis=1)
    return inside, outside


@settings(max_examples=80, derandomize=True, deadline=None)
@given(C=convex_regions(0.3, 1.5), K=convex_regions(0.05, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_erode_matches_brute_force_membership(C, K, seed):
    E = erode(C, K)
    rng = np.random.default_rng(seed)
    lo = C.vertices.min(axis=0) - K.vertices.max(axis=0) - 0.1
    hi = C.vertices.max(axis=0) - K.vertices.min(axis=0) + 0.1
    us = rng.uniform(lo, hi, (400, 2))
    if E.is_polygon:
        us = np.vstack([us, E.vertices, centroid(E)[None, :]])
    inside, outside = brute_erosion_membership(C, K, us, 1e-7)
    got = contains_many(E, us, 0.0)
    assert got[inside].all() and not got[outside].any()
    if not E.is_empty:
        # K shifted to any point of the erosion stays in C
        pts = (E.vertices[:, None, :] + K.vertices[None, :, :]).reshape(-1, 2)
        assert contains_many(C, pts, 1e-9).all()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(C=convex_regions(0.1, 1.5), tx=st.floats(-1, 1), ty=st.floats(-1, 1),
       grow=st.one_of(st.floats(1e-6, 1e-4), st.floats(1e-3, 0.5)))
def test_erode_collapses_to_a_point_and_to_empty(C, tx, ty, grow):
    # C eroded by the point t is C - t, and by a translate C + t the point -t
    assert np.array_equal(erode(C, Region.single((tx, ty))).vertices,
                          C.vertices - (tx, ty))
    E = erode(C, translate(C, (tx, ty)))
    assert E.is_point and np.hypot(*(E.point + (tx, ty))) <= 1e-9
    # by a copy scaled up about an interior point it is empty, and no sample
    # passes the brute-force test either
    c = centroid(C)
    K = translate(linear_image(translate(C, -c), (1 + grow) * np.eye(2)), c)
    assert erode(C, K).is_empty
    us = c - np.random.default_rng(0).uniform(-0.01, 0.01, (200, 2))
    inside, _ = brute_erosion_membership(C, K, us, 0.0)
    assert not inside.any()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(C=convex_regions(0.3, 1.5), K=convex_regions(0.05, 1.0),
       c_start=st.integers(0, 7), k_start=st.integers(0, 7), collapse=st.booleans())
def test_erode_is_odd_under_negation(C, K, c_start, k_start, collapse):
    # every vertex is the meeting point of its own two moved edge lines, so
    # negating both regions negates the result exactly, whatever vertex
    # either list starts at; a translate of C collapses it to a point
    def negated(P, start):
        return Region.polygon(np.roll(-P.vertices, start % len(P.vertices), axis=0))

    if collapse:
        K = translate(C, centroid(K))
    E = erode(C, K)
    N = erode(negated(C, c_start), negated(K, k_start))
    assert N.kind == E.kind
    assert {tuple(v) for v in N.vertices} == {tuple(-v) for v in E.vertices}


def scalar_cross(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def oracle_clean_vertices(verts):
    """The former scalar _clean_vertices: near-duplicates merged, then each
    vertex kept when it lies off the line of its neighbours, one at a time."""
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
    keep = []
    for i in range(len(verts)):
        a = verts[i - 1]
        b = verts[i]
        c = verts[(i + 1) % len(verts)]
        if abs(scalar_cross(c - a, b - a)) > COLLINEAR_TOL * scale * scale:
            keep.append(i)
    return verts[keep]


def oracle_strictly_convex(verts):
    """The former scalar convexity loop of Region.polygon: every turn of the CCW
    vertices is a left turn by more than the tolerance."""
    scale = max(1.0, np.abs(verts).max())
    for i in range(len(verts)):
        a = verts[i - 1]
        b = verts[i]
        c = verts[(i + 1) % len(verts)]
        if scalar_cross(b - a, c - b) <= COLLINEAR_TOL * scale * scale:
            return False
    return True


@st.composite
def near_degenerate_polygons(draw):
    """Vertices on an ellipse, in either orientation, with points added a few
    tolerances off the line of an edge (near-collinear, on either side) or
    from one of its ends (near-duplicate)."""
    n = draw(st.integers(3, 7))
    gaps = np.array(draw(st.lists(st.floats(1, 3), min_size=n, max_size=n)))
    angles = draw(st.floats(0, 2 * np.pi)) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    rx, ry = draw(st.floats(0.05, 1.5)), draw(st.floats(0.05, 1.5))
    center = np.array([draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))])
    verts = list(np.column_stack([rx * np.cos(angles), ry * np.sin(angles)]) + center)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(verts) - 1))
        a, c = verts[k], verts[(k + 1) % len(verts)]
        scale = max(1.0, np.abs(verts).max())
        chord = c - a
        length = np.hypot(*chord)
        if length > 0 and draw(st.booleans()):
            offset = draw(st.floats(-3, 3)) * COLLINEAR_TOL * scale * scale / length
            p = a + draw(st.floats(0.1, 0.9)) * chord + offset * np.array([-chord[1], chord[0]]) / length
        else:
            turn = draw(st.floats(0, 2 * np.pi))
            p = a + draw(st.floats(0, 3)) * 1e-12 * scale * np.array([np.cos(turn), np.sin(turn)])
        verts.insert(k + 1, p)
    verts = np.array(verts)
    return verts[::-1] if draw(st.booleans()) else verts


@settings(max_examples=150, derandomize=True, deadline=None)
@given(verts=near_degenerate_polygons())
def test_polygon_cleaning_and_convexity_match_scalar_oracles(verts):
    ccw = verts[::-1] if _signed_area(verts) < 0 else verts
    cleaned = _clean_vertices(ccw)
    want = oracle_clean_vertices(ccw)
    assert cleaned.shape == want.shape and np.array_equal(cleaned, want)
    accepted = len(want) >= 3 and oracle_strictly_convex(want) and _signed_area(want) > 0
    try:
        P = Region.polygon(verts)
    except ValueError:
        assert not accepted
    else:
        assert accepted and np.array_equal(P.vertices, want)


def oracle_contains_many(P, pts, eps):
    """The former polygon test of contains_many: each row's largest signed edge
    distance against eps, one max-reduction over the edges; each distance is
    x n_x + y n_y formed elementwise, as polygeom forms it, so that no BLAS
    kernel rounds it."""
    normals, offsets = _edge_normals(P)
    dist = pts[:, None, 0] * normals[:, 0] + pts[:, None, 1] * normals[:, 1]
    return (dist - offsets).max(axis=1) <= eps


@settings(max_examples=150, derandomize=True, deadline=None)
@given(P=convex_regions(1e-3, 10.0),
       ts=st.lists(st.floats(-0.5, 1.5), max_size=6),
       eps=st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 5e-13, -5e-13, 1e-9, -1e-9, 0.5, -0.5]),
       nan_rows=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_contains_many_matches_the_max_reduction(P, ts, eps, nan_rows, seed):
    # points on every edge line, within 1e-12 of it on either side, and around
    # the polygon's box; rows with a NaN coordinate, placed anywhere
    verts = P.vertices
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / np.hypot(*edges.T)[:, None]
    rows = [verts + t * edges + s * normals for t in ts for s in (0.0, 1e-12, -1e-12)]
    rng = np.random.default_rng(seed)
    rows.append(rng.uniform(verts.min(axis=0) - 0.1, verts.max(axis=0) + 0.1, (20, 2)))
    pts = np.concatenate(rows)
    for x_nan, y_nan in nan_rows:
        row = rng.integers(0, len(pts) + 1)
        pts = np.insert(pts, row, [np.nan if x_nan else 0.0, np.nan if y_nan else 0.0], axis=0)
    got = contains_many(P, pts, eps)
    assert got.dtype == bool and np.array_equal(got, oracle_contains_many(P, pts, eps))
    empty = contains_many(P, np.zeros((0, 2)), eps)
    assert empty.shape == (0,) and empty.dtype == bool
