"""Multi-component model sets over the fifth cyclotomic module.

A scheme bundles r convex windows, r coset representatives with distinct
residues, and a similarity acting by ring multiplication whose internal
shadow is a contraction.  This module enumerates the point sets, computes
the transition windows between components by convex erosion, builds the
transition weight matrix, and checks the self-similarity closure relation
on finite patches.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import TAU, CycInt, embedding_matrix
from .polygeom import Region, area, contains, contains_many, erode, linear_image, translate

POLICY_AREA = "area-markov"
POLICY_EXPLICIT = "explicit"

POINTS_CSV_HEADER = "component,m0,m1,m2,m3,phys_re,phys_im,int_re,int_im"

_BOUNDARY_EPS = 1e-9


def _complex_matrix(c):
    """2x2 real matrix of multiplication by the complex number c."""
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


@dataclass
class SchemeSpec:
    """Full problem statement of a multi-component cut-and-project scheme."""

    windows: list
    coset_reps: list
    q_mult: CycInt
    gamma: complex = 0j
    boundary_mode: str = "closed"

    def __post_init__(self):
        if len(self.windows) != len(self.coset_reps) or not self.windows:
            raise ValueError("need one coset representative per window")
        for w in self.windows:
            if not w.is_polygon:
                raise ValueError("component windows must be convex polygons")
        residues = [z.rho() for z in self.coset_reps]
        if len(set(residues)) != len(residues):
            raise ValueError("coset representatives must have distinct residues")
        if abs(self.q_mult.internal()) >= 1.0:
            raise ValueError("internal image of the similarity must be contractive")
        if self.boundary_mode not in ("closed", "open"):
            raise ValueError("boundary_mode must be 'closed' or 'open'")
        self.gamma = complex(self.gamma)

    @property
    def r(self):
        return len(self.windows)

    @property
    def q_phys(self):
        return self.q_mult.physical()

    @property
    def a_internal(self):
        return self.q_mult.internal()

    def a_matrix(self):
        return _complex_matrix(self.a_internal)

    def q_matrix(self):
        return _complex_matrix(self.q_phys)

    @property
    def detq_abs(self):
        return abs(self.q_phys) ** 2

    @property
    def eps(self):
        return _BOUNDARY_EPS if self.boundary_mode == "closed" else -_BOUNDARY_EPS

    def shifted_window(self, i):
        """Window of component i (1-based) translated by the displacement."""
        return translate(self.windows[i - 1], (self.gamma.real, self.gamma.imag))


@dataclass(frozen=True)
class LabeledPoint:
    """A point of one component, with both embeddings cached."""

    component: int
    coeffs: CycInt
    phys: complex
    internal: complex


@dataclass(frozen=True)
class ModulePoint:
    """A module element used as a self-similarity translation."""

    coeffs: CycInt
    phys: complex
    internal: complex


def penrose_scheme(gamma=0j, boundary_mode="closed"):
    """The four-component vertex scheme of the rhombic Penrose tiling.

    Windows are the pentagon hull of the fifth roots of unity and its
    negated / golden-scaled copies; component i selects the coset with
    residue i and the similarity is multiplication by the golden ratio.
    """
    xi_powers = [(CycInt(0, 1) ** k).physical() for k in range(5)]
    P = Region.polygon([(z.real, z.imag) for z in xi_powers])
    tau = TAU.physical().real
    windows = [
        P,
        linear_image(P, -tau * np.eye(2)),
        linear_image(P, tau * np.eye(2)),
        linear_image(P, -np.eye(2)),
    ]
    reps = [CycInt(i) for i in range(1, 5)]
    return SchemeSpec(windows=windows, coset_reps=reps, q_mult=TAU,
                      gamma=gamma, boundary_mode=boundary_mode)


def transition_windows(spec):
    """r x r table of translation windows between components.

    Entry (j, i) collects the internal translations u with
    A * window_i + u inside window_j, computed by convex erosion.
    """
    A = spec.a_matrix()
    out = []
    for j in range(1, spec.r + 1):
        row = []
        wj = spec.shifted_window(j)
        for i in range(1, spec.r + 1):
            row.append(erode(wj, linear_image(spec.shifted_window(i), A)))
        out.append(row)
    return out


def build_nu(spec, windows_ji, policy=POLICY_AREA, matrix=None):
    """Transition weight matrix for the given transition-window table.

    The area policy weights each transition window by its linear scale
    (the square root of its area) and normalizes every source column to
    sum to one, which reproduces the Markov weighting of the worked
    four-component example.  Explicit matrices are validated: they must be
    non-negative and must not put weight on a measure-zero window (such a
    normalized indicator would degenerate to a point mass).
    """
    r = spec.r
    areas = np.array([[area(windows_ji[j][i]) for i in range(r)] for j in range(r)])
    if policy == POLICY_AREA:
        if matrix is not None:
            raise ValueError("matrix argument is only for the explicit policy")
        weights = np.sqrt(areas)
        colsums = weights.sum(axis=0)
        if np.any(colsums <= 0):
            bad = int(np.argmin(colsums)) + 1
            raise ValueError(f"column {bad} has no positive-area transition window")
        return weights / colsums
    if policy == POLICY_EXPLICIT:
        nu = np.asarray(matrix, dtype=float)
        if nu.shape != (r, r):
            raise ValueError(f"explicit matrix must be {r}x{r}")
        if np.any(nu < 0):
            raise ValueError("explicit matrix must be non-negative")
        ghost = (nu > 0) & (areas == 0)
        if np.any(ghost):
            j, i = [int(v) + 1 for v in np.argwhere(ghost)[0]]
            raise ValueError(f"ghost transition ({j},{i}): positive weight on a "
                             "measure-zero window")
        nu = nu.copy()
        nu[areas == 0] = 0.0
        return nu
    raise ValueError(f"unknown weighting policy {policy!r}")


def _enumerate_module(radius_phys, radius_internal):
    """All module points with |x| <= radius_phys and |x*| <= radius_internal.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985) of the coefficient
    vectors in the ellipsoid |x|^2 / radius_phys^2 + |x*|^2 /
    radius_internal^2 <= 2, which contains the product of the two disks.
    The Cholesky factor of the ellipsoid's Gram matrix bounds each
    coefficient to an interval given the ones after it, so the work is
    proportional to the number of points found, not to a coefficient box.
    The two disk filters are then applied exactly.  Returns coefficients
    (n, 4) int64, physical and internal images as complex arrays.
    """
    E = embedding_matrix()
    r2_phys = radius_phys * radius_phys + 1e-9
    r2_int = radius_internal * radius_internal + 1e-9
    gram = E.T @ np.diag([1 / r2_phys, 1 / r2_phys, 1 / r2_int, 1 / r2_int]) @ E
    U = np.linalg.cholesky(gram).T  # gram = U.T @ U, row k involves m_k..m_3
    # level by level from m3 down to m0, every prefix (m_{k+1}, .., m_3) is
    # expanded into its interval of admissible m_k; the budget and interval
    # slack keep the ellipsoid a superset of the disks despite rounding
    coeffs = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([2.0 + 1e-6])
    for k in range(3, -1, -1):
        center = -(coeffs @ U[k, k + 1:]) / U[k, k]
        half = np.sqrt(np.maximum(budget, 0.0)) / U[k, k]
        lo = np.ceil(center - half - 1e-9).astype(np.int64)
        hi = np.floor(center + half + 1e-9).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(coeffs)), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        m = lo[parent] + np.arange(len(parent)) - starts
        budget = budget[parent] - (U[k, k] * (m - center[parent])) ** 2
        coeffs = np.column_stack([m, coeffs[parent]])
    # same operation order as a per-m0 sweep, so the printed digits are stable
    tail_f = coeffs[:, 1:].astype(float)
    x, y, u, v = (tail_f @ E[c, 1:] + coeffs[:, 0] * E[c, 0] for c in range(4))
    keep = (x * x + y * y <= r2_phys) & (u * u + v * v <= r2_int)
    return coeffs[keep], x[keep] + 1j * y[keep], u[keep] + 1j * v[keep]


def _select(targets, radius, eps):
    """Module points within the physical radius, split by residue and window.

    targets is a list of (residue, window) pairs.  For each one, returns the
    (coeffs, phys, internal) arrays of the points with that coefficient-sum
    residue mod 5 whose internal image lies in the window within eps, in
    lexicographic coefficient order.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    r_int = max((w.circumradius() for _, w in targets), default=0.0) + 1e-6
    coeffs, phys, internal = _enumerate_module(radius, r_int)
    rho = coeffs.sum(axis=1) % 5
    pts = np.column_stack([internal.real, internal.imag])
    out = []
    for residue, window in targets:
        sel = np.flatnonzero(rho == residue)
        sel = sel[contains_many(window, pts[sel], eps)]
        sel = sel[np.lexsort(coeffs[sel][:, ::-1].T)]  # m0 is the primary key
        out.append((coeffs[sel], phys[sel], internal[sel]))
    return out


def generate_all(spec, radius):
    """All component point lists out to the given physical radius.

    One output-sensitive lattice enumeration finds the module points in
    the physical disk whose internal image can reach a window; they are
    split by residue and window membership, and each list is sorted by
    coefficient tuple.
    """
    targets = [(z.rho(), spec.shifted_window(i + 1)) for i, z in enumerate(spec.coset_reps)]
    return [[LabeledPoint(idx + 1, CycInt(*c), complex(x), complex(u))
             for c, x, u in zip(*found)]
            for idx, found in enumerate(_select(targets, radius, spec.eps))]


def generate_points(spec, component, radius):
    """Point list of one component (1-based) out to the given radius."""
    if not 1 <= component <= spec.r:
        raise ValueError("component index out of range")
    return generate_all(spec, radius)[component - 1]


def translation_sets(spec, windows_ji, radius):
    """r x r lists of admissible self-similarity translations.

    Entry (j, i) holds the module points y with residue matching the coset
    z_j - Q z_i, physical modulus at most radius, and internal image inside
    the transition window (j, i); empty windows give empty lists.
    """
    r = spec.r
    keys = [(j, i) for j in range(r) for i in range(r) if not windows_ji[j][i].is_empty]
    targets = [((spec.coset_reps[j] - spec.q_mult * spec.coset_reps[i]).rho(), windows_ji[j][i])
               for j, i in keys]
    eps = abs(spec.eps)  # transition windows relax the interior-closure condition
    out = [[[] for _ in range(r)] for _ in range(r)]
    for (j, i), found in zip(keys, _select(targets, radius, eps)):
        out[j][i] = [ModulePoint(CycInt(*c), complex(x), complex(u)) for c, x, u in zip(*found)]
    return out


@dataclass
class ClosureReport:
    """Outcome of checking Qx + v membership over a finite patch."""

    checked: int
    violations: list = field(default_factory=list)
    boundary_hits: int = 0


def check_selfsim_closure(spec, points, tsets, radius):
    """Verify that every admissible similarity maps the patch into the set.

    For each component i, point x with physical modulus at most radius and
    translation v in the (j, i) translation set, Q x + v must again belong
    to component j; membership is decided exactly on coefficients plus the
    window test.  Points landing within the boundary tolerance are counted
    separately rather than as violations.
    """
    report = ClosureReport(checked=0)
    eps = abs(spec.eps)
    for i in range(1, spec.r + 1):
        for x in points[i - 1]:
            if abs(x.phys) > radius:
                continue
            for j in range(1, spec.r + 1):
                window = spec.shifted_window(j)
                for v in tsets[j - 1][i - 1]:
                    y = spec.q_mult * x.coeffs + v.coeffs
                    report.checked += 1
                    if y.rho() != spec.coset_reps[j - 1].rho():
                        report.violations.append((i, j, x.coeffs, v.coeffs))
                        continue
                    u = y.internal()
                    if contains(window, (u.real, u.imag), -eps):
                        continue  # safely interior
                    if contains(window, (u.real, u.imag), eps):
                        report.boundary_hits += 1
                    else:
                        report.violations.append((i, j, x.coeffs, v.coeffs))
    return report


def _fmt(x):
    return f"{x:.12g}"


def write_points_csv(points, fileobj):
    """Write labeled points as CSV (flattened list or per-component lists)."""
    if points and isinstance(points[0], list):
        flat = [p for comp in points for p in comp]
    else:
        flat = list(points)
    flat.sort(key=lambda p: (p.component, p.coeffs.coeffs))
    fileobj.write(POINTS_CSV_HEADER + "\n")
    for p in flat:
        m0, m1, m2, m3 = p.coeffs.coeffs
        fileobj.write(",".join([
            str(p.component), str(m0), str(m1), str(m2), str(m3),
            _fmt(p.phys.real), _fmt(p.phys.imag),
            _fmt(p.internal.real), _fmt(p.internal.imag),
        ]) + "\n")


def points_csv_text(points):
    buf = io.StringIO()
    write_points_csv(points, buf)
    return buf.getvalue()
