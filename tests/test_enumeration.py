"""Lattice enumeration checked against the coefficient-box sweep it replaced."""

import functools
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modelsets import scheme
from modelsets.cyclotomic import EMBEDDING, CycInt
from modelsets.polygeom import contains_many
from tests.conftest import oracle

# sha256 of points_csv_text(generate_all(...)) as written by the box sweep,
# each image summed term by term in the order m0..m3 and the windows'
# products formed elementwise, recorded on numpy 2.4.6
POINTS_CSV_SHA256 = {
    (40.0, 0j): "08df465f370ab96266892f2a581e4e545b4b191702a5fbc485b1401476e1193c",
    (20.0, 0.031 - 0.047j): "2b83d7e1571fdbe75bb8a101204a776600685fd2aeef7cb276ca5448c23f2d70",
}


def box_bound(radius_phys, radius_internal):
    """Coefficient box that provably holds every point of the disk x disk region."""
    norm_inf = np.abs(np.linalg.inv(EMBEDDING)).sum(axis=1).max()
    return int(math.floor(norm_inf * math.sqrt(radius_phys**2 + radius_internal**2) + 1))


def box_sweep(radius_phys, radius_internal):
    """Every coefficient vector of the box, filtered by both embeddings, per m0; each
    image is summed term by term in the order m0..m3, as the scalar embeddings are."""
    E = EMBEDDING
    bound = box_bound(radius_phys, radius_internal)
    rng = np.arange(-bound, bound + 1)
    g1, g2, g3 = np.meshgrid(rng, rng, rng, indexing="ij")
    tail = np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])
    terms = [[tail[:, k - 1] * E[c, k] for k in range(1, 4)] for c in range(4)]
    for m0 in rng:
        x, y, u, v = (m0 * E[c, 0] + t1 + t2 + t3 for c, (t1, t2, t3) in enumerate(terms))
        mask = ((x * x + y * y <= radius_phys**2 + 1e-9)
                & (u * u + v * v <= radius_internal**2 + 1e-9))
        for k in np.flatnonzero(mask):
            yield (int(m0), *map(int, tail[k])), complex(x[k], y[k]), complex(u[k], v[k])


def oracle_select(targets, radius, eps):
    """Box-sweep points per (residue, window) target, sorted by coefficients."""
    r_int = max((w.circumradius() for _, w in targets), default=0.0) + 1e-6
    swept = list(box_sweep(radius, r_int))
    out = []
    for residue, window in targets:
        rows = [p for p in swept if sum(p[0]) % 5 == residue]
        pts = np.array([[u.real, u.imag] for _, _, u in rows]).reshape(-1, 2)
        inside = contains_many(window, pts, eps)
        out.append(sorted(p for p, ok in zip(rows, inside) if ok))
    return out


def assert_same_points(got, expected):
    assert list(map(tuple, got.coeffs.tolist())) == [c for c, _, _ in expected]
    for x, u, (_, x0, u0) in zip(got.phys, got.internal, expected):
        assert abs(x - x0) <= 1e-12 and abs(u - u0) <= 1e-12


def oracle_generate_all(spec, radius):
    targets = [(z.rho(), spec.shifted_window(i + 1)) for i, z in enumerate(spec.coset_reps)]
    return oracle_select(targets, radius, spec.eps)


def oracle_translation_sets(spec, windows_ji, radius):
    r = spec.r
    keys = [(j, i) for j in range(r) for i in range(r) if not windows_ji[j][i].is_empty]
    targets = [((oracle(spec.coset_reps[j]) - oracle(spec.q_mult) * spec.coset_reps[i]).rho(),
                windows_ji[j][i]) for j, i in keys]
    out = [[[] for _ in range(r)] for _ in range(r)]
    for (j, i), found in zip(keys, oracle_select(targets, radius, abs(spec.eps))):
        out[j][i] = found
    return out


def assert_matches_oracle(spec, radius):
    for got, expected in zip(scheme.generate_all(spec, radius), oracle_generate_all(spec, radius)):
        assert_same_points(got, expected)
    windows_ji = scheme.transition_windows(spec)
    got = scheme.translation_sets(spec, windows_ji, radius)
    expected = oracle_translation_sets(spec, windows_ji, radius)
    for j in range(spec.r):
        for i in range(spec.r):
            assert_same_points(got[j][i], expected[j][i])


@settings(derandomize=True, max_examples=25, deadline=None)
@given(radius_phys=st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
       radius_internal=st.floats(min_value=0.0, max_value=4.0, exclude_min=True))
def test_disk_pair_matches_box_sweep(radius_phys, radius_internal):
    coeffs, phys, internal = scheme._enumerate_module(radius_phys, radius_internal)
    got = sorted(zip(map(tuple, coeffs.tolist()), phys.tolist(), internal.tolist()))
    assert got == sorted(box_sweep(radius_phys, radius_internal))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(m=st.tuples(*[st.integers(min_value=-6, max_value=6)] * 4))
def test_point_on_both_disk_boundaries_is_found(m):
    # the corner of the disk x disk region touches the ellipsoid's surface
    z = CycInt(*m)
    coeffs, _, _ = scheme._enumerate_module(abs(z.physical()), abs(z.internal()))
    assert list(m) in coeffs.tolist()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(radius=st.floats(min_value=0.0, max_value=8.0, exclude_min=True),
       gx=st.floats(min_value=-0.2, max_value=0.2),
       gy=st.floats(min_value=-0.2, max_value=0.2))
def test_enumeration_matches_box_sweep(radius, gx, gy):
    assert_matches_oracle(scheme.penrose_scheme(gamma=complex(gx, gy)), radius)


@functools.cache
def scheme_and_windows(gamma):
    spec = scheme.penrose_scheme(gamma=gamma)
    return spec, scheme.transition_windows(spec)


def assert_same_bytes(got, expected):
    for name in ("coeffs", "phys", "internal"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


@settings(derandomize=True, max_examples=40, deadline=None)
@given(gamma=st.sampled_from([0j, 0.031 - 0.047j]),
       radius=st.floats(min_value=0.0, max_value=12.0, exclude_min=True),
       frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       snap=st.booleans())
def test_within_a_larger_patch_matches_direct_enumeration(gamma, radius, frac, snap):
    # verify enumerates once at the larger radius and cuts the smaller patches
    # from it; snap moves s down onto a point's modulus, where the points of a
    # rotation orbit round to either side of the circle
    spec, windows_ji = scheme_and_windows(gamma)
    big = scheme.generate_all(spec, radius)
    big_t = scheme.translation_sets(spec, windows_ji, radius)
    s = radius * frac
    if snap:
        moduli = np.abs(np.concatenate([p.phys for p in big]
                                       + [t.phys for row in big_t for t in row]))
        s = moduli[moduli <= s].max(initial=0.0)
    assume(0 < s < radius)
    for got, expected in zip(big, scheme.generate_all(spec, s)):
        assert_same_bytes(got.within(s), expected)
    small_t = scheme.translation_sets(spec, windows_ji, s)
    for j in range(spec.r):
        for i in range(spec.r):
            assert_same_bytes(big_t[j][i].within(s), small_t[j][i])


def test_enumeration_matches_box_sweep_closed_boundaries(spec):
    # gamma = 0 puts many star images exactly on window edges
    assert_matches_oracle(spec, 8.0)


def test_ellipsoid_holding_only_the_origin(spec, transitions):
    coeffs, phys, internal = scheme._enumerate_module(1e-3, 1e-3)
    assert coeffs.tolist() == [[0, 0, 0, 0]]
    assert phys.tolist() == [0j] and internal.tolist() == [0j]
    assert [c.coeffs.shape for c in scheme.generate_all(spec, 1e-3)] == [(0, 4)] * 4
    tsets = scheme.translation_sets(spec, transitions, 1e-3)
    # the origin has residue 0; the (j, i) windows with rho(z_j - tau z_i) = 0 contain it
    hits = sorted((j + 1, i + 1) for j in range(4) for i in range(4) if tsets[j][i])
    assert hits == [(1, 2), (2, 4), (3, 1), (4, 3)]
    assert all(tsets[j - 1][i - 1].coeffs.tolist() == [[0, 0, 0, 0]] for j, i in hits)


def test_unfactorable_ellipsoid_names_its_radius(spec):
    # the Cholesky factor of a search ellipsoid of internal radius 1e300 and
    # physical radius 8 fails; the CLI rejects such a gamma before enumerating
    with pytest.raises(ValueError, match=r"^internal radius 1e\+300 is too large "
                                         r"for physical radius 8$"):
        scheme.generate_all(scheme.penrose_scheme(gamma=1e300), 8.0)


@pytest.mark.pinned
def test_points_csv_bytes_unchanged(points40):
    for (s, gamma), digest in POINTS_CSV_SHA256.items():
        points = points40 if (s, gamma) == (40.0, 0j) else \
            scheme.generate_all(scheme.penrose_scheme(gamma=gamma), s)
        text = scheme.points_csv_text(points)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.pinned
def test_points_csv_bytes_hold_across_write_chunks():
    # a chunk that is not a whole number of rows still writes whole rows
    s, gamma = 20.0, 0.031 - 0.047j
    points = scheme.generate_all(scheme.penrose_scheme(gamma=gamma), s)
    for chunk in (1, 50, 63):
        with mock.patch("modelsets.text.WRITE_CHUNK_VALUES", chunk):
            csv = scheme.points_csv_text(points)
        assert hashlib.sha256(csv.encode()).hexdigest() == POINTS_CSV_SHA256[(s, gamma)]
