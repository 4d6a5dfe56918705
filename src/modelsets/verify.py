"""Physical-side validation of computed invariant densities.

The window-side density assigns a weight to every point of the set through
its internal image.  These checks confirm, on finite patches, that the
weights behave as the infinite-volume theory predicts: star images
equidistribute over the windows, the pointwise averaged self-similarity
equation holds, per-point sums reproduce the channel masses, and the
point-set densities scale with window areas.  `report` runs all five checks
of the `verify` command and returns their lines, each with its bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import scheme
from .polygeom import area, contains_many, linear_image, translate
from .refine import bilinear
from .text import fmt

ID2_SCALE_FLOOR = 0.05  # check_id2's residual scale, as a fraction of the peak density


class InsufficientRadiusError(RuntimeError):
    """A translation set needed by the averaged equations is empty."""


def _xy(z):
    """(n, 2) real coordinates of a complex array."""
    return np.column_stack([z.real, z.imag])


def weyl_test(points, window, sub):
    """Fraction of a PointSet's internal images in a sub-window vs. the area ratio.

    Returns (empirical fraction, expected fraction, absolute deviation).
    """
    if not points:
        raise ValueError("weyl_test needs a non-empty point set")
    pts = _xy(points.internal)
    inside = contains_many(sub, pts)
    empirical = inside.sum() / len(pts)
    expected = area(sub) / area(window)
    return float(empirical), float(expected), float(abs(empirical - expected))


def sample_density(density, channel, pts):
    """Bilinear samples of one channel at internal-space points (1-based)."""
    g = density.grid
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    rows = (pts[:, 1] - g.origin[1]) / g.h - 0.5
    cols = (pts[:, 0] - g.origin[0]) / g.h - 0.5
    return bilinear(density.values[channel - 1], rows, cols)


def point_weights(spec, density, internal, component):
    """Density weights at internal images (a complex array): the channel sampled there.

    Images outside the component window carry weight zero and are not sampled.
    """
    pts = _xy(internal)
    inside = contains_many(spec.shifted_window(component), pts)
    vals = np.zeros(len(pts))
    vals[inside] = sample_density(density, component, pts[inside])
    return vals


@dataclass
class Id2Report:
    mean_residual: float
    samples: int


def check_id2(spec, density, nu, points, tsets, radius, samples=100, seed=0):
    """Finite-radius residual of the averaged self-similarity equations.

    For sampled points x of each component j, compares the weight at x with
    |det Q| times the weighted average of the weights at the preimages
    through every admissible translation with physical modulus at most
    radius.  Sampled points are restricted to |x| <= radius / q so all
    preimages stay well inside the patch the translations were drawn from.

    The per-point residual is |lhs - rhs| relative to the larger of the two
    sides, floored at ID2_SCALE_FLOOR times the peak density: near the window
    boundary both sides vanish and a purely pointwise ratio would report
    order-one noise regardless of the patch size.
    """
    nu = np.asarray(nu, dtype=float)
    q_abs = abs(spec.q_phys)
    a_inv = 1.0 / spec.a_internal
    near = [p.within(radius / q_abs) for p in points]
    pool_comp = np.concatenate([np.full(len(p), j) for j, p in enumerate(near)])
    pool = np.concatenate([p.internal for p in near])
    if not len(pool):
        raise InsufficientRadiusError("no sample points inside radius/q")
    if len(pool) > samples:
        pick = random.Random(seed).sample(range(len(pool)), samples)
        pool_comp, pool = pool_comp[pick], pool[pick]
    translations = {}
    for j, i in zip(*np.nonzero(nu)):  # row-major, so the first empty pair is the one named
        translations[j, i] = tsets[j][i].within(radius).internal
        if not len(translations[j, i]):
            raise InsufficientRadiusError(
                f"insufficient radius: translation set ({j + 1},{i + 1}) "
                f"is empty at radius {radius}")
    mine = [pool_comp == j for j in range(spec.r)]
    lhs = np.zeros(len(pool))
    rhs = np.zeros(len(pool))
    for j in range(spec.r):
        lhs[mine[j]] = point_weights(spec, density, pool[mine[j]], j + 1)
    for i in range(spec.r):
        sources = np.flatnonzero(nu[:, i])
        if not len(sources):
            continue
        # every (sample, translation) preimage into channel i at once; one row per sample
        etas = [(pool[mine[j]][:, None] - translations[j, i][None, :]) * a_inv for j in sources]
        vals = point_weights(spec, density, np.concatenate([eta.ravel() for eta in etas]), i + 1)
        parts = np.split(vals, np.cumsum([eta.size for eta in etas])[:-1])
        for j, eta, part in zip(sources, etas, parts):
            rhs[mine[j]] += nu[j, i] * part.reshape(eta.shape).mean(axis=1)
    rhs *= spec.detq_abs
    floor = ID2_SCALE_FLOOR * max(density.values.max(), 1e-300)
    residuals = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
    return Id2Report(mean_residual=float(residuals.mean()), samples=len(residuals))


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


def density_estimate(points, s):
    """Per-component point densities #Lambda_s / (pi s^2), shape (r,); the points
    must be enumerated out to at least s.  Divided by pi s, then by s: pi s^2
    underflows to 0 at s = 1e-200."""
    return np.array([len(comp.within(s)) for comp in points]) / (np.pi * s) / s


@dataclass
class ReportLine:
    """One verification check: measured value against an upper bound."""

    name: str
    value: object
    bound: float

    @property
    def passed(self):
        return isinstance(self.value, (int, float)) and self.value <= self.bound


def render_report(lines):
    out = []
    for line in lines:
        verdict = "PASS" if line.passed else "FAIL"
        out.append(f"{line.name} {fmt(line.value)} <= {fmt(line.bound)} {verdict}")
    return "\n".join(out) + "\n"


def report(spec, density, nu, w, patch, tsets, s, closure_s, id2_samples, seed):
    """The WEYL, ID2, ID3, DENSITY and CLOSURE lines of `verify`.

    `patch` and `tsets` reach max(s, closure_s).  Every check but CLOSURE
    reads the points cut to s; CLOSURE reads the whole patch and the
    translations cut to closure_s.  A check with nothing to measure reports
    why, `no-points` or `insufficient-radius`, and fails.
    """
    points = [p.within(s) for p in patch]
    # star images equidistribute: component-1 sub-window at the contraction scale
    sub = translate(linear_image(spec.windows[0], abs(spec.a_internal) * np.eye(2)),
                    (spec.gamma.real, spec.gamma.imag))
    weyl = ReportLine("WEYL.comp1_deviation", "no-points", 0.0)
    if points[0]:
        weyl = ReportLine("WEYL.comp1_deviation",
                          weyl_test(points[0], spec.shifted_window(1), sub)[2],
                          5.0 / np.sqrt(len(points[0])))
    try:
        id2 = check_id2(spec, density, nu, points, tsets, s, samples=id2_samples,
                        seed=seed).mean_residual
    except InsufficientRadiusError:
        id2 = "insufficient-radius"
    id3 = "no-points"
    if all(p for p, w_j in zip(points, w) if w_j > 0):
        id3 = float(np.abs(id3_values(spec, density, points) - w).max())
    # each density ratio d_j / d_i with d_i > 0 against the area ratio
    dens = density_estimate(points, s)
    areas = np.array([area(spec.shifted_window(j)) for j in range(1, spec.r + 1)])
    live = dens > 0
    ratio_dev = "no-points"
    if live.any():
        ratio_dev = float(np.abs(dens[:, None] / dens[live] / (areas[:, None] / areas[live])
                                 - 1.0).max())
    closure = scheme.check_selfsim_closure(
        spec, patch, [[t.within(closure_s) for t in row] for row in tsets], closure_s)
    return [weyl, ReportLine("ID2.mean_residual", id2, 0.05),
            ReportLine("ID3.max_deviation", id3, 0.05),
            ReportLine("DENSITY.ratio_max_reldev", ratio_dev, 0.05),
            ReportLine("CLOSURE.violations",
                       len(closure.violations) if closure.checked else "no-points", 0)]
