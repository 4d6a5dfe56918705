import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from modelsets import scheme
from modelsets.cyclotomic import CoefficientOverflow, CycInt, TAU as TAU_CYC
from modelsets.pfsolve import pf_eigen
from modelsets.polygeom import Region, area, contains, contains_many, linear_image
from tests.conftest import EXAMPLE2_NU, TAU, within

# frozen by the brute-force enumeration oracle below (run at s = 10)
ORACLE_COUNTS_S10 = (70, 155, 155, 70)

# transition-window table: scale factors of the pentagon, None = empty, 0 = origin
TABLE_SCALES = [
    [TAU**-3, 0, None, TAU**-2],
    [-1, -TAU**-2, -TAU**-1, -(TAU**-3 + TAU**-1)],
    [TAU**-3 + TAU**-1, TAU**-1, TAU**-2, 1],
    [-TAU**-2, None, 0, -TAU**-3],
]

EXAMPLE1_NU = np.array([
    [(2 - TAU) / 4, 0, 0, (TAU - 1) / 4],
    [TAU / 4, 2 - TAU, TAU - 1, (3 - TAU) / 4],
    [(3 - TAU) / 4, TAU - 1, 2 - TAU, TAU / 4],
    [(TAU - 1) / 4, 0, 0, (2 - TAU) / 4],
])


def expected_region(scale, pentagon):
    if scale is None:
        return Region.empty()
    if scale == 0:
        return Region.single((0.0, 0.0))
    return linear_image(pentagon, scale * np.eye(2))


def assert_same_region(got, expected, tol=1e-9):
    assert got.kind == expected.kind
    if got.is_empty:
        return
    if got.is_point:
        assert np.hypot(*(got.point - expected.point)) < tol
        return
    assert len(got.vertices) == len(expected.vertices)
    for v in expected.vertices:
        assert np.hypot(got.vertices[:, 0] - v[0], got.vertices[:, 1] - v[1]).min() < tol


def test_penrose_scheme_basics(spec):
    assert spec.r == 4
    assert abs(spec.a_internal - (-1 / TAU)) < 1e-12
    assert abs(area(spec.windows[2]) / area(spec.windows[0]) - TAU**2) < 1e-9
    assert spec.coset_reps[2].rho() == 3
    assert abs(spec.detq_abs - TAU**2) < 1e-12


def test_scheme_validation():
    base = scheme.penrose_scheme()
    with pytest.raises(ValueError, match="distinct"):
        scheme.SchemeSpec(windows=base.windows, coset_reps=[CycInt(1)] * 4,
                          q_mult=TAU_CYC)
    with pytest.raises(ValueError, match="contractive"):
        scheme.SchemeSpec(windows=base.windows[:1], coset_reps=[CycInt(1)],
                          q_mult=CycInt(2))
    with pytest.raises(ValueError, match="boundary_mode"):
        scheme.penrose_scheme(boundary_mode="clopen")


def test_transition_window_table(spec, transitions):
    pentagon = spec.windows[0]
    for j in range(4):
        for i in range(4):
            assert_same_region(transitions[j][i],
                               expected_region(TABLE_SCALES[j][i], pentagon))


def test_build_nu_area_policy(spec, transitions, nu_area):
    assert np.abs(nu_area - EXAMPLE1_NU).max() < 1e-9
    assert np.abs(nu_area.sum(axis=0) - 1.0).max() < 1e-12
    assert abs(nu_area[0, 0] - 0.095492) < 1e-6


def test_build_nu_explicit(spec, transitions, nu_explicit):
    assert np.allclose(nu_explicit[0], [0.5, 0, 0, 0.5])
    assert nu_explicit[0, 1] == 0.0 and nu_explicit[3, 2] == 0.0


def test_build_nu_ghost_rejected(spec, transitions):
    bad = EXAMPLE2_NU.copy()
    bad[0, 2] = 0.1  # transition window (1,3) is empty
    with pytest.raises(ValueError, match="ghost transition"):
        scheme.build_nu(spec, transitions, policy="explicit", matrix=bad)


def test_build_nu_zero_column_rejected(spec, transitions):
    mutilated = [row[:] for row in transitions]
    for j in range(4):
        mutilated[j][0] = Region.empty()
    with pytest.raises(ValueError, match="column 1"):
        scheme.build_nu(spec, mutilated)


def test_build_nu_bad_explicit(spec, transitions):
    with pytest.raises(ValueError, match="non-negative"):
        scheme.build_nu(spec, transitions, policy="explicit",
                        matrix=-np.eye(4))
    with pytest.raises(ValueError, match="4x4"):
        scheme.build_nu(spec, transitions, policy="explicit", matrix=np.eye(3))


# --- point enumeration -------------------------------------------------------

def oracle_enumeration(s):
    """Independent brute force: per-coordinate box bounds, trig-table windows."""
    phys = [complex(math.cos(2 * math.pi * j / 5), math.sin(2 * math.pi * j / 5))
            for j in range(4)]
    star = [complex(math.cos(4 * math.pi * j / 5), math.sin(4 * math.pi * j / 5))
            for j in range(4)]
    normals = [(math.cos(math.radians(36 + 72 * k)), math.sin(math.radians(36 + 72 * k)))
               for k in range(5)]
    inradius = math.cos(math.radians(36))

    def in_window(z, scale, negate):
        x, y = (-z.real, -z.imag) if negate else (z.real, z.imag)
        return all(x * nx + y * ny <= scale * inradius + 1e-9 for nx, ny in normals)

    windows = {1: (1.0, False), 2: (TAU, True), 3: (TAU, False), 4: (1.0, True)}
    B = np.zeros((4, 4))
    for j in range(4):
        B[0, j], B[1, j] = phys[j].real, phys[j].imag
        B[2, j], B[3, j] = star[j].real, star[j].imag
    per_coord = np.floor(np.abs(np.linalg.inv(B)) @ np.array([s, s, TAU + 1e-6, TAU + 1e-6])
                         + 1).astype(int)
    found = {1: set(), 2: set(), 3: set(), 4: set()}
    r0, r1, r2, r3 = per_coord
    for m0 in range(-r0, r0 + 1):
        for m1 in range(-r1, r1 + 1):
            for m2 in range(-r2, r2 + 1):
                for m3 in range(-r3, r3 + 1):
                    rho = (m0 + m1 + m2 + m3) % 5
                    if rho == 0:
                        continue
                    z = m0 + m1 * phys[1] + m2 * phys[2] + m3 * phys[3]
                    if abs(z) > s + 1e-9:
                        continue
                    zs = m0 + m1 * star[1] + m2 * star[2] + m3 * star[3]
                    if in_window(zs, *windows[rho]):
                        found[rho].add((m0, m1, m2, m3))
    return found


def test_generate_all_against_live_oracle(spec):
    got = scheme.generate_all(spec, 6.0)
    expected = oracle_enumeration(6.0)
    for comp in range(1, 5):
        assert set(map(tuple, got[comp - 1].coeffs.tolist())) == expected[comp]


def test_generate_all_frozen_count(spec):
    got = scheme.generate_all(spec, 10.0)
    assert tuple(len(c) for c in got) == ORACLE_COUNTS_S10


def coeff_set(points):
    return set(map(tuple, points.coeffs.tolist()))


def test_point_membership_basics(spec):
    pts = scheme.generate_all(spec, 2.0)
    assert [1, 0, 0, 0] in pts[0].coeffs.tolist()  # 1* = 1 is a vertex of P
    for component, comp in enumerate(pts, start=1):
        assert comp.coeffs.dtype == np.int64 and comp.coeffs.shape == (len(comp), 4)
        assert not np.any(np.all(comp.coeffs == 0, axis=1))
        assert np.all(comp.coeffs.sum(axis=1) % 5 == component)
        for m, x, u in zip(comp.coeffs.tolist(), comp.phys, comp.internal):
            assert abs(x - CycInt(*m).physical()) <= 1e-12
            assert abs(u - CycInt(*m).internal()) <= 1e-12
        assert contains_many(spec.shifted_window(component),
                             np.column_stack([comp.internal.real, comp.internal.imag]),
                             abs(spec.eps)).all()


def test_monotone_in_radius(spec):
    small = scheme.generate_all(spec, 5.0)
    large = scheme.generate_all(spec, 8.0)
    for comp in range(4):
        assert coeff_set(small[comp]) <= coeff_set(large[comp])


def test_components_disjoint(points40):
    seen = set()
    for comp in points40:
        coeffs = coeff_set(comp)
        assert not (coeffs & seen)
        seen |= coeffs


def test_uniform_discreteness(points40):
    mins = []
    for s in (10.0, 20.0, 40.0):
        phys = np.concatenate([comp.phys[np.abs(comp.phys) <= s] for comp in points40])
        pts = np.column_stack([phys.real, phys.imag])
        d, _ = cKDTree(pts).query(pts, k=2)
        mins.append(d[:, 1].min())
    assert min(mins) > 0.3
    assert max(mins) - min(mins) < 1e-9  # same separation at every radius


def test_equidistribution(points40):
    sub = Region.polygon([(math.cos(2 * math.pi * k / 5) / TAU,
                           math.sin(2 * math.pi * k / 5) / TAU) for k in range(5)])
    pts = np.column_stack([points40[0].internal.real, points40[0].internal.imag])
    frac = contains_many(sub, pts).mean()
    assert abs(frac - TAU**-2) <= 5 / math.sqrt(len(pts))


# --- translation sets ---------------------------------------------------------

def test_translation_sets(spec, transitions):
    tsets = scheme.translation_sets(spec, transitions, 10.0)
    # rho(z1 - tau z2) = (1 - 3*2) mod 5 = 0, and 0* = 0 sits in the singleton
    assert tsets[0][1].coeffs.tolist() == [[0, 0, 0, 0]]
    assert tsets[0][2].coeffs.shape == (0, 4)  # empty transition window
    t = tsets[2][0]
    assert len(t) > 0
    assert contains_many(transitions[2][0],
                         np.column_stack([t.internal.real, t.internal.imag]), 1e-9).all()
    assert np.all(t.coeffs.sum(axis=1) % 5 == (3 - 3 * 1) % 5)
    assert np.all(np.abs(t.phys) <= 10 + 1e-9)


def test_selfsim_closure_small_patch(spec, transitions):
    points = scheme.generate_all(spec, 3.0)
    tsets = scheme.translation_sets(spec, transitions, 3.0)
    report = scheme.check_selfsim_closure(spec, points, tsets, 3.0)
    assert report.checked > 0
    assert report.violations == []


def test_closure_single_point(spec, transitions):
    # tau * 1 lands in component 3: rho(tau) = 3 and tau* = -1/tau inside tau*P
    y = spec.q_mult * CycInt(1)
    assert y.rho() == 3
    u = y.internal()
    assert contains(spec.windows[2], (u.real, u.imag))


def test_closure_vacuous_for_empty_sets(spec):
    empties = [[point_set([])] * 4 for _ in range(4)]
    points = scheme.generate_all(spec, 2.0)
    report = scheme.check_selfsim_closure(spec, points, empties, 2.0)
    assert report.checked == 0 and report.violations == []


def point_set(rows):
    rows = np.array(rows, dtype=np.int64).reshape(-1, 4)
    z = [CycInt(*m) for m in rows.tolist()]
    return scheme.PointSet(rows, np.array([c.physical() for c in z], dtype=complex),
                           np.array([c.internal() for c in z], dtype=complex))


def closure_oracle(spec, points, tsets, radius):
    """The scalar closure check: one CycInt product and window test per (x, v)."""
    checked, violations, boundary_hits = 0, [], 0
    eps = abs(spec.eps)
    for i in range(1, spec.r + 1):
        for m, phys in zip(points[i - 1].coeffs.tolist(), points[i - 1].phys):
            if abs(phys) > radius:
                continue
            x = CycInt(*m)
            for j in range(1, spec.r + 1):
                window = spec.shifted_window(j)
                for n in tsets[j - 1][i - 1].coeffs.tolist():
                    v = CycInt(*n)
                    y = spec.q_mult * x + v
                    checked += 1
                    if y.rho() != spec.coset_reps[j - 1].rho():
                        violations.append((i, j, x.coeffs, v.coeffs))
                        continue
                    u = y.internal()
                    if contains(window, (u.real, u.imag), -eps):
                        continue
                    if contains(window, (u.real, u.imag), eps):
                        boundary_hits += 1
                    else:
                        violations.append((i, j, x.coeffs, v.coeffs))
    return checked, violations, boundary_hits


def assert_closure_matches_oracle(spec, points, tsets, radius):
    report = scheme.check_selfsim_closure(spec, points, tsets, radius)
    got = (report.checked, report.violations, report.boundary_hits)
    assert got == closure_oracle(spec, points, tsets, radius)
    return got


def test_closure_matches_scalar_oracle(spec, points40, tsets40):
    tsets5 = [[within(t, 5.0) for t in row] for row in tsets40]
    assert assert_closure_matches_oracle(spec, points40, tsets5, 5.0) == (3480, [], 380)


def test_closure_matches_scalar_oracle_generic_gamma():
    spec = scheme.penrose_scheme(gamma=0.031 - 0.047j)
    points = scheme.generate_all(spec, 5.0)
    tsets = scheme.translation_sets(spec, scheme.transition_windows(spec), 5.0)
    checked, violations, _ = assert_closure_matches_oracle(spec, points, tsets, 5.0)
    assert checked > 0 and violations == []


def test_closure_planted_violations(spec, transitions):
    points = scheme.generate_all(spec, 5.0)
    tsets = [list(row) for row in scheme.translation_sets(spec, transitions, 5.0)]
    # + 5 keeps the residue but moves the star image 5 off its window; + 1 breaks the
    # residue; both sets map from component 1, so each x violates under two j
    for (j, i), shift in (((2, 0), [5, 0, 0, 0]), ((0, 0), [1, 0, 0, 0])):
        rows = tsets[j][i].coeffs.copy()
        rows[-1] += shift
        tsets[j][i] = point_set(rows)
    _, violations, _ = assert_closure_matches_oracle(spec, points, tsets, 5.0)
    assert {(i, j) for i, j, _, _ in violations} == {(1, 1), (1, 3)}


@pytest.mark.parametrize("x,v", [
    ([0, 2**62, 2**62, 0], [0, 0, 0, 0]),    # Q x leaves int64
    ([1, 0, 0, 0], [0, 0, 1 - 2**63, 0]),    # Q x + v leaves int64
])
def test_closure_overflow_raises(spec, x, v):
    empty = point_set([])
    points = [point_set([x])] + [empty] * 3
    tsets = [[empty] * 4 for _ in range(4)]
    tsets[2][0] = point_set([v])
    points[0].phys[:] = 0  # inside the patch whatever the coefficients
    with pytest.raises(CoefficientOverflow):
        closure_oracle(spec, points, tsets, 1.0)
    with pytest.raises(CoefficientOverflow):
        scheme.check_selfsim_closure(spec, points, tsets, 1.0)


# --- CSV export ---------------------------------------------------------------

def test_points_csv(spec):
    pts = scheme.generate_all(spec, 0.5)
    text = scheme.points_csv_text(pts)
    lines = text.strip().split("\n")
    assert lines[0] == "component,m0,m1,m2,m3,phys_re,phys_im,int_re,int_im"
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 9
        assert math.hypot(float(fields[5]), float(fields[6])) <= 0.5 + 1e-9
    # deterministic output
    assert text == scheme.points_csv_text(scheme.generate_all(spec, 0.5))


def test_build_transition_data(spec):
    windows_ji = scheme.transition_windows(spec)
    nu = scheme.build_nu(spec, windows_ji)
    pf = pf_eigen(nu)
    tsets = scheme.translation_sets(spec, windows_ji, 5.0)
    assert abs(pf.lambda_max - 1.0) < 1e-10
    assert np.abs(nu @ pf.w - pf.w).max() <= 1e-10
    areas = np.array([[area(windows_ji[j][i]) for i in range(4)] for j in range(4)])
    assert np.all(nu[areas == 0] == 0)
    assert len(tsets[0][2]) == 0
    assert len(tsets[1][0]) > 0


def test_density_ratio_converges_with_radius(points40):
    from modelsets.verify import density_estimate
    d = density_estimate(points40, [10.0, 20.0, 40.0])
    deviations = [abs(d[2, n] / d[0, n] - TAU**2) for n in range(3)]
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 0.05 * TAU**2


def test_gamma_shifts_windows():
    shifted = scheme.penrose_scheme(gamma=0.05 + 0.02j)
    base = scheme.penrose_scheme()
    w = shifted.shifted_window(1)
    assert np.allclose(w.vertices, base.windows[0].vertices + np.array([0.05, 0.02]))
    pts = scheme.generate_all(shifted, 4.0)
    for component, comp in enumerate(pts, start=1):
        assert contains_many(shifted.shifted_window(component),
                             np.column_stack([comp.internal.real, comp.internal.imag]),
                             abs(shifted.eps)).all()
