"""Physical-side validation of computed invariant densities.

The window-side density assigns a weight to every point of the set through
its internal image.  These checks confirm, on finite patches, that the
weights behave as the infinite-volume theory predicts: star images
equidistribute over the windows, the pointwise averaged self-similarity
equation holds, per-point sums reproduce the channel masses, and the
point-set densities scale with window areas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates

from .polygeom import area, contains_many


class InsufficientRadiusError(RuntimeError):
    """A translation set needed by the averaged equations is empty."""


def _xy(z):
    """(n, 2) real coordinates of a complex array."""
    return np.column_stack([z.real, z.imag])


def weyl_test(points, window, sub, eps=1e-9):
    """Fraction of a PointSet's internal images in a sub-window vs. the area ratio.

    Returns (empirical fraction, expected fraction, absolute deviation).
    """
    if not points:
        raise ValueError("weyl_test needs a non-empty point set")
    pts = _xy(points.internal)
    inside = contains_many(sub, pts, eps)
    empirical = inside.sum() / len(pts)
    expected = area(sub) / area(window)
    return float(empirical), float(expected), float(abs(empirical - expected))


def sample_density(density, channel, pts):
    """Bilinear samples of one channel at internal-space points (1-based)."""
    g = density.grid
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    rows = (pts[:, 1] - g.origin[1]) / g.h - 0.5
    cols = (pts[:, 0] - g.origin[0]) / g.h - 0.5
    return map_coordinates(density.values[channel - 1], [rows, cols], order=1,
                           mode="constant", cval=0.0, prefilter=False)


def point_weights(spec, density, internal, component):
    """Density weights at internal images (a complex array): the channel sampled there.

    Images outside the component window carry weight zero.
    """
    pts = _xy(internal)
    vals = sample_density(density, component, pts)
    inside = contains_many(spec.shifted_window(component), pts, abs(spec.eps))
    vals[~inside] = 0.0
    return vals


@dataclass
class Id2Report:
    mean_residual: float
    max_residual: float
    samples: int


def check_id2(spec, density, nu, points, tsets, radius, samples=100, seed=0,
              scale_floor=0.05):
    """Finite-radius residual of the averaged self-similarity equations.

    For sampled points x of each component j, compares the weight at x with
    |det Q| times the weighted average of the weights at the preimages
    through every admissible translation with physical modulus at most
    radius.  Sampled points are restricted to |x| <= radius / q so all
    preimages stay well inside the patch the translations were drawn from.

    The per-point residual is |lhs - rhs| relative to the larger of the two
    sides, floored at scale_floor times the peak density: near the window
    boundary both sides vanish and a purely pointwise ratio would report
    order-one noise regardless of the patch size.
    """
    nu = np.asarray(nu, dtype=float)
    q_abs = abs(spec.q_phys)
    a_inv = 1.0 / spec.a_internal
    eps = abs(spec.eps)
    near = [np.abs(p.phys) <= radius / q_abs for p in points]
    pool_comp = np.concatenate([np.full(m.sum(), j) for j, m in enumerate(near)])
    pool = np.concatenate([p.internal[m] for p, m in zip(points, near)])
    if not len(pool):
        raise InsufficientRadiusError("no sample points inside radius/q")
    rng = np.random.default_rng(seed)
    if len(pool) > samples:
        pick = rng.choice(len(pool), size=samples, replace=False)
        pool_comp, pool = pool_comp[pick], pool[pick]
    lhs = np.zeros(len(pool))
    rhs = np.zeros(len(pool))
    for j in range(spec.r):
        mine = pool_comp == j
        lhs[mine] = point_weights(spec, density, pool[mine], j + 1)
        for i in range(spec.r):
            if nu[j, i] == 0:
                continue
            t = tsets[j][i].internal[np.abs(tsets[j][i].phys) <= radius]
            if not len(t):
                raise InsufficientRadiusError(
                    f"insufficient radius: translation set ({j + 1},{i + 1}) "
                    f"is empty at radius {radius}")
            # every (sample, translation) preimage at once; one row per sample
            eta = (pool[mine][:, None] - t[None, :]) * a_inv
            pts = _xy(eta.ravel())
            vals = sample_density(density, i + 1, pts)
            vals[~contains_many(spec.shifted_window(i + 1), pts, eps)] = 0.0
            rhs[mine] += nu[j, i] * vals.reshape(eta.shape).mean(axis=1)
    rhs *= spec.detq_abs
    floor = scale_floor * max(density.values.max(), 1e-300)
    residuals = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
    return Id2Report(mean_residual=float(residuals.mean()),
                     max_residual=float(residuals.max()),
                     samples=len(residuals))


def id3_values(spec, density, points):
    """Per-component averaged weights scaled by window area.

    The finite-radius estimate of the channel masses: window area times the
    mean point weight of each component.
    """
    out = np.zeros(spec.r)
    for j in range(1, spec.r + 1):
        comp = points[j - 1]
        if not comp:
            continue
        vals = point_weights(spec, density, comp.internal, j)
        out[j - 1] = area(spec.shifted_window(j)) * vals.mean()
    return out


def density_estimate(points, s_list):
    """Per-component point densities #Lambda_s / (pi s^2) for each radius.

    Returns an (r, len(s_list)) array; the points must be enumerated out to
    at least max(s_list).
    """
    s_list = list(s_list)
    if sorted(s_list) != s_list:
        raise ValueError("radii must be increasing")
    r = len(points)
    out = np.zeros((r, len(s_list)))
    for j in range(r):
        radii = np.abs(points[j].phys)
        for n, s in enumerate(s_list):
            out[j, n] = (radii <= s).sum() / (np.pi * s * s)
    return out


@dataclass
class ReportLine:
    """One verification check: measured value against an upper bound."""

    name: str
    value: object
    bound: float

    @property
    def passed(self):
        return isinstance(self.value, (int, float)) and self.value <= self.bound


def _fmt(x):
    if isinstance(x, str):
        return x
    return f"{x:.12g}"


def render_report(lines):
    out = []
    for line in lines:
        verdict = "PASS" if line.passed else "FAIL"
        out.append(f"{line.name} {_fmt(line.value)} <= {_fmt(line.bound)} {verdict}")
    return "\n".join(out) + "\n"
