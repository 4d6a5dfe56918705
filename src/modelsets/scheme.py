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

from .cyclotomic import EMBEDDING, TAU, CoefficientOverflow, CycInt, embed
# contains is unused here but stays importable: perfbench/tracer.py wraps scheme.contains
from .polygeom import (DEFAULT_EPS, Region, area, contains, contains_many, erode,
                       linear_image, margin, translate)
from .text import fmt, write_rows

POINTS_CSV_HEADER = "component,m0,m1,m2,m3,phys_re,phys_im,int_re,int_im"
_POINTS_CSV_ROW = "%d,%d,%d,%d,%d,%.12g,%.12g,%.12g,%.12g\n"
MAX_CANDIDATES = 2**22  # per enumeration level; each candidate costs about 160 B
_CLOSURE_PAIRS = 2**16  # (x, v) pairs per chunk of the closure check; each costs about 125 B


def check_multiplier(q):
    """Raise ValueError unless the internal image q* of the multiplier is contractive
    and resolved: `embed` forms it with a rounding error of up to about 4 eps sum |m_k|,
    which must not exceed DEFAULT_EPS |q*|."""
    modulus = abs(q.internal())
    if modulus >= 1.0:
        raise ValueError("the internal image of the similarity must be contractive, "
                         f"got modulus {fmt(modulus)}")
    bound = 4 * np.finfo(float).eps * sum(abs(m) for m in q.coeffs)
    if bound > DEFAULT_EPS * modulus:
        raise ValueError("the float embedding does not resolve the internal image of the "
                         f"similarity: its rounding bound {fmt(bound)} exceeds {fmt(DEFAULT_EPS)} "
                         f"times its modulus {fmt(modulus)}")


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
        check_multiplier(self.q_mult)
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
        """2x2 real matrix of multiplication by the internal image of Q."""
        a = self.a_internal
        return np.array([[a.real, -a.imag], [a.imag, a.real]])

    @property
    def detq_abs(self):
        return abs(self.q_phys) ** 2

    @property
    def eps(self):
        """Signed window tolerance of the components: +DEFAULT_EPS closed, - open."""
        return DEFAULT_EPS if self.boundary_mode == "closed" else -DEFAULT_EPS

    def shifted_window(self, i):
        """Window of component i (1-based) translated by the displacement."""
        return translate(self.windows[i - 1], (self.gamma.real, self.gamma.imag))


@dataclass(eq=False)
class PointSet:
    """Module points as arrays, one row per point in coefficient order.

    coeffs is (n, 4) int64; phys and internal are the complex physical and
    internal (star) images, each of length n.
    """

    coeffs: np.ndarray
    phys: np.ndarray
    internal: np.ndarray

    def __len__(self):
        return len(self.coeffs)

    def within(self, radius):
        """The rows with |phys| <= radius, in the same order, by _enumerate_module's
        disk test, so that a cut patch equals the one enumerated at radius."""
        keep = self.phys.real ** 2 + self.phys.imag ** 2 <= radius * radius + 1e-9
        return PointSet(self.coeffs[keep], self.phys[keep], self.internal[keep])


def penrose_scheme(gamma=0j, boundary_mode="closed"):
    """The four-component vertex scheme of the rhombic Penrose tiling.

    Windows are the pentagon hull of the fifth roots of unity and its
    negated / golden-scaled copies; component i selects the coset with
    residue i and the similarity is multiplication by the golden ratio.
    """
    # xi^0..xi^3 are the basis vectors, xi^4 = -1 - xi - xi^2 - xi^3, then tau
    x, y = embed([*np.eye(4, dtype=np.int64), (-1, -1, -1, -1), TAU.coeffs], EMBEDDING[:2])
    P = Region.polygon(np.column_stack([x[:5], y[:5]]))
    tau = x[5]
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


def build_nu(spec, windows_ji, matrix=None):
    """Transition weight matrix for the given transition-window table.

    Without a matrix, each transition window is weighted by its linear scale
    (the square root of its area) and every source column is normalized to
    sum to one, which reproduces the Markov weighting of the worked
    four-component example.  A given (explicit) matrix is validated: it must
    be r x r, non-negative and must not put weight on a measure-zero window
    (such a normalized indicator would degenerate to a point mass).
    """
    r = spec.r
    areas = np.array([[area(windows_ji[j][i]) for i in range(r)] for j in range(r)])
    if matrix is None:
        weights = np.sqrt(areas)
        colsums = weights.sum(axis=0)
        if np.any(colsums <= 0):
            bad = int(np.argmin(colsums)) + 1
            raise ValueError(f"column {bad} has no positive-area transition window")
        return weights / colsums
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


def _enumerate_module(radius_phys, radius_internal):
    """All module points with |x| <= radius_phys and |x*| <= radius_internal.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985) of the coefficient vectors
    in the ellipsoid |x|^2 / radius_phys^2 + |x*|^2 / radius_internal^2 <= 2,
    which contains the product of the two disks.  The Cholesky factor of the
    ellipsoid's Gram matrix bounds each coefficient to an interval given the
    ones after it, so the work is proportional to the number of points found,
    not to a coefficient box.  The two disk filters are then applied exactly.
    Returns coefficients (n, 4) int64, physical and internal images as complex
    arrays.  Raises before a level would hold more than MAX_CANDIDATES candidates.
    """
    r2_phys = radius_phys * radius_phys + 1e-9
    r2_int = radius_internal * radius_internal + 1e-9
    gram = EMBEDDING.T @ np.diag([1 / r2_phys, 1 / r2_phys, 1 / r2_int, 1 / r2_int]) @ EMBEDDING
    try:
        U = np.linalg.cholesky(gram).T  # gram = U.T @ U, row k involves m_k..m_3
    except np.linalg.LinAlgError:
        raise ValueError(f"internal radius {radius_internal:.6g} is too large "
                         f"for physical radius {radius_phys:.6g}") from None
    # level by level from m3 down to m0, every prefix (m_{k+1}, .., m_3) is
    # expanded into its interval of admissible m_k; the budget and interval
    # slack keep the ellipsoid a superset of the disks despite rounding
    coeffs = np.zeros((1, 0), dtype=np.int64)
    budget = np.array([2.0 + 1e-6])
    for k in range(3, -1, -1):
        center = -(coeffs * U[k, k + 1:]).sum(axis=1) / U[k, k]
        half = np.sqrt(np.maximum(budget, 0.0)) / U[k, k]
        lo = np.ceil(center - half - 1e-9).astype(np.int64)
        hi = np.floor(center + half + 1e-9).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        if (total := int(counts.sum())) > MAX_CANDIDATES:
            raise ValueError(f"{total} candidate points at radii {radius_phys:.6g} "
                             f"and {radius_internal:.6g} exceed the limit of {MAX_CANDIDATES}")
        parent = np.repeat(np.arange(len(coeffs)), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        m = lo[parent] + np.arange(len(parent)) - starts
        budget = budget[parent] - (U[k, k] * (m - center[parent])) ** 2
        coeffs = np.column_stack([m, coeffs[parent]])
    x, y, u, v = embed(coeffs)
    keep = (x * x + y * y <= r2_phys) & (u * u + v * v <= r2_int)
    return coeffs[keep], x[keep] + 1j * y[keep], u[keep] + 1j * v[keep]


def _select(targets, radius, eps):
    """Module points within the physical radius, split by residue and window.

    targets is a list of (residue, window) pairs.  For each one, returns the
    PointSet of the points with that coefficient-sum residue mod 5 whose
    internal image lies in the window within eps, in lexicographic
    coefficient order.
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
        out.append(PointSet(coeffs[sel], phys[sel], internal[sel]))
    return out


def generate_all(spec, radius):
    """One PointSet per component, out to the given physical radius.

    One output-sensitive lattice enumeration finds the module points in
    the physical disk whose internal image can reach a window; they are
    split by residue and window membership, and each set is sorted by
    coefficient tuple.
    """
    targets = [(z.rho(), spec.shifted_window(i + 1)) for i, z in enumerate(spec.coset_reps)]
    return _select(targets, radius, spec.eps)


def translation_sets(spec, windows_ji, radius):
    """r x r PointSets of admissible self-similarity translations.

    Entry (j, i) holds the module points y with residue matching the coset
    z_j - Q z_i, physical modulus at most radius, and internal image inside
    the transition window (j, i); empty windows give empty sets.
    """
    r = spec.r
    rho = [z.rho() for z in spec.coset_reps]
    # rho is a ring map onto Z/5: rho(z_j - Q z_i) = rho(z_j) - rho(Q) rho(z_i) mod 5
    targets = [((rho[j] - spec.q_mult.rho() * rho[i]) % 5, windows_ji[j][i])
               for j in range(r) for i in range(r)]
    # transition windows are closed whatever the boundary mode of the components
    found = _select(targets, radius, DEFAULT_EPS)
    return [found[j * r:(j + 1) * r] for j in range(r)]


@dataclass
class ClosureReport:
    """Outcome of checking Qx + v membership over a finite patch."""

    checked: int
    violations: list = field(default_factory=list)
    boundary_hits: int = 0


def _check_int64(scale, *arrays):
    """Raise unless scale times the sum of the arrays' largest |entries| fits in int64."""
    bound = scale * sum(max(int(a.max()), -int(a.min())) for a in arrays)
    if bound >= 2**63:
        raise CoefficientOverflow(f"coefficients up to {bound} exceed the 64-bit range")


def check_selfsim_closure(spec, points, tsets, radius):
    """Verify that every admissible similarity maps the patch into the set.

    For each component i, point x with physical modulus at most radius and
    translation v in the (j, i) translation set, Q x + v must again belong
    to component j; membership is decided exactly on coefficients plus the
    window test.  Points landing within the boundary tolerance are counted
    separately rather than as violations.  Each (j, i) pair is one int64
    pass over all (x, v), made max(1, _CLOSURE_PAIRS // |v|) points x at a
    time, so that its memory does not grow with the patch; CoefficientOverflow
    is raised before any product or sum that could leave the 64-bit range.
    """
    report = ClosureReport(checked=0)
    qmat = spec.q_mult.mult_matrix()
    q_norm = max(sum(map(abs, row)) for row in qmat.tolist())
    for i in range(spec.r):
        x = points[i].within(radius).coeffs
        # rho is a ring map onto Z/5, so rho(Q x + v) = rho(Q) rho(x) + rho(v) mod 5; each
        # coefficient is reduced mod 5 before the sum, which then cannot overflow
        rho_qx = spec.q_mult.rho() * (x % 5).sum(axis=1)
        bad = []  # (x row, j, v row) of every violation, sorted into the scalar loop's order
        for j in range(spec.r):
            v = tsets[j][i].coeffs
            if not len(x) or not len(v):
                continue
            _check_int64(q_norm, x)
            qx = x @ qmat.T
            _check_int64(1, qx, v)
            window = spec.shifted_window(j + 1)
            rho_v = (v % 5).sum(axis=1) - spec.coset_reps[j].rho()
            step = max(1, _CLOSURE_PAIRS // len(v))
            for lo in range(0, len(x), step):
                y = (qx[lo:lo + step, None, :] + v[None, :, :]).reshape(-1, 4)
                report.checked += len(y)
                residue_ok = (rho_qx[lo:lo + step, None] + rho_v).ravel() % 5 == 0
                u = np.column_stack(embed(y, EMBEDDING[2:]))
                m = margin(window, u)
                inner, outer = m <= -DEFAULT_EPS, m <= DEFAULT_EPS
                report.boundary_hits += int(np.count_nonzero(residue_ok & ~inner & outer))
                rows = np.flatnonzero(~residue_ok | ~(inner | outer))
                bad += [(lo + a, j, b) for a, b in zip(*np.divmod(rows, len(v)))]
        for a, j, b in sorted(bad):
            report.violations.append((i + 1, j + 1, tuple(x[a].tolist()),
                                      tuple(tsets[j][i].coeffs[b].tolist())))
    return report


def points_csv_text(points):
    """Per-component PointSets as CSV text; component k is points[k - 1]."""
    buf = io.StringIO()
    buf.write(POINTS_CSV_HEADER + "\n")
    for component, ps in enumerate(points, start=1):
        table = np.empty((len(ps), 9), dtype=object)  # Python ints, then floats
        table[:, 0] = component
        table[:, 1:5] = ps.coeffs
        table[:, 5:] = np.column_stack([ps.phys.real, ps.phys.imag,
                                        ps.internal.real, ps.internal.imag])
        write_rows(buf, _POINTS_CSV_ROW, table)
    return buf.getvalue()
