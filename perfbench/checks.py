"""Output checks that re-derive every verdict from closed-form data.

Nothing here imports `modelsets`: the point geometry, the report bounds and
the expected file shapes are written out independently, so a defect in the
program cannot hide behind the same defect in its checker.  Each check
returns a list of problem strings; an empty list means the outputs pass.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

TAU = (1.0 + math.sqrt(5.0)) / 2.0
# physical and Galois-conjugate (xi -> xi^2) images of the basis 1, xi, xi^2, xi^3
PHYS_BASIS = np.exp(2j * np.pi * np.arange(4) / 5)
STAR_BASIS = np.exp(4j * np.pi * np.arange(4) / 5)
# component j (1-based) holds coefficient sums = j (mod 5); windows P, -tau P, tau P, -P
WINDOW_SCALES = (1.0, -TAU, TAU, -1.0)
WINDOW_EPS = 1e-9
POINTS_HEADER = "component,m0,m1,m2,m3,phys_re,phys_im,int_re,int_im"

# verify at the default radius s = 40 with gamma = 0 has 905 component-1
# points, which fixes the WEYL bound 5 / sqrt(905)
REPORT_BOUNDS = {
    "WEYL.comp1_deviation": 5.0 / math.sqrt(905),
    "ID2.mean_residual": 0.05,
    "ID3.max_deviation": 0.05,
    "DENSITY.ratio_max_reldev": 0.05,
    "CLOSURE.violations": 0.0,
}
REPORT_LINE = re.compile(r"^(\S+) (\S+) <= (\S+) (PASS|FAIL)$")

FOURIER_BOUND = 2.5e-2  # AC6 at h = 1/256
MASS_SUM_TOL = 1e-3


def _exit_problem(rc):
    return [] if rc == 0 else [f"command exited with code {rc}"]


def parse_report(outdir):
    """report.txt as {name: (value text, bound text, verdict)}."""
    rows = {}
    for line in (Path(outdir) / "report.txt").read_text().splitlines():
        m = REPORT_LINE.match(line)
        if m is None:
            raise ValueError(f"malformed report line {line!r}")
        if m.group(1) in rows:
            raise ValueError(f"duplicate report line {m.group(1)}")
        rows[m.group(1)] = m.group(2, 3, 4)
    return rows


def check_verify(outdir, rc):
    problems = _exit_problem(rc)
    try:
        rows = parse_report(outdir)
    except (OSError, ValueError) as exc:
        return problems + [f"report.txt: {exc}"]
    for name, bound in REPORT_BOUNDS.items():
        if name not in rows:
            problems.append(f"report line {name} missing")
            continue
        value_text, bound_text, verdict = rows[name]
        try:
            value = float(value_text)
            printed_bound = float(bound_text)
        except ValueError:
            problems.append(f"{name}: value {value_text!r} is not a number")
            continue
        if not math.isclose(printed_bound, bound, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"{name}: bound {printed_bound} differs from {bound}")
        if verdict != "PASS" or not value <= bound:
            problems.append(f"{name}: {value} <= {bound} {verdict}")
    extra = sorted(set(rows) - set(REPORT_BOUNDS))
    if extra:
        problems.append(f"unexpected report lines {extra}")
    return problems


def parse_summary(outdir):
    """summary.txt as {key: [float, ...]}."""
    out = {}
    for line in (Path(outdir) / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = [float(v) for v in value.split()]
    return out


def check_solve(outdir, rc, nx):
    """Example 1 solve: accuracy, mass, support collapse and file shapes."""
    problems = _exit_problem(rc)
    outdir = Path(outdir)
    try:
        summary = parse_summary(outdir)
        dev = summary["fourier_max_rel_dev"][0]
        masses = summary["masses"]
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return problems + [f"summary.txt: {exc!r}"]
    if not dev <= FOURIER_BOUND:
        problems.append(f"fourier_max_rel_dev {dev} > {FOURIER_BOUND}")
    if len(masses) != 4:
        problems.append(f"expected 4 masses, got {len(masses)}")
    else:
        if not abs(sum(masses) - 1.0) <= MASS_SUM_TOL:
            problems.append(f"masses sum to {sum(masses)}, not 1")
        if masses[0] != 0.0 or masses[3] != 0.0:
            problems.append(f"channels 1 and 4 must collapse to 0, got {masses}")
        if min(masses) < 0.0:
            problems.append(f"negative mass in {masses}")
    header = f"# nx {nx} ny {nx}"
    for j in range(1, 5):
        path = outdir / f"density_ch{j}.txt"
        try:
            data = path.read_bytes()
        except OSError as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        lines = data.split(b"\n", 3)
        if len(lines) < 4 or lines[2].decode(errors="replace") != header:
            problems.append(f"{path.name}: third line is not {header!r}")
        rows = data.count(b"\n") - 3
        if rows != nx:
            problems.append(f"{path.name}: {rows} rows, expected {nx}")
    try:
        rows = (outdir / "density.csv").read_bytes().count(b"\n") - 1
    except OSError as exc:
        problems.append(f"density.csv: {exc}")
    else:
        if rows != nx * nx:
            problems.append(f"density.csv: {rows} data rows, expected {nx * nx}")
    return problems


def in_window(component, gamma, star):
    """Which internal images lie in the component's shifted pentagon, within WINDOW_EPS."""
    roots = np.exp(2j * np.pi * np.arange(5) / 5)
    verts = WINDOW_SCALES[component - 1] * roots + complex(*gamma)
    edges = np.roll(verts, -1) - verts
    normals = -1j * edges / np.abs(edges)  # CCW polygon: outward is edge * -i
    offsets = (normals.conjugate() * verts).real
    dist = np.real(star[:, None] * normals.conjugate()[None, :]) - offsets
    return dist.max(axis=1, initial=-np.inf) <= WINDOW_EPS


def enumerate_points(radius, gamma):
    """Every point of the four components out to the physical radius.

    Independent of the program's coefficient-box sweep: a Fincke-Pohst
    enumeration of the lattice Z[xi] in the ellipsoid
    |x|^2 / radius^2 + |x*|^2 / R^2 <= 2, which contains the product of the
    physical disk and the internal disk of radius R around every window.
    Returns {component: set of coefficient tuples}.
    """
    r_int = TAU + math.hypot(*gamma) + 1e-6
    emb = np.vstack([PHYS_BASIS.real, PHYS_BASIS.imag, STAR_BASIS.real, STAR_BASIS.imag])
    weights = np.array([radius, radius, r_int, r_int]) ** -2.0
    upper = np.linalg.cholesky(emb.T @ (weights[:, None] * emb)).T
    diag = np.diag(upper)
    budget = 2.0 + 1e-9
    found = []

    def interval(i, z, rest):
        center = -sum(upper[i, j] * z[j] for j in range(i + 1, 4)) / diag[i]
        half = math.sqrt(max(rest, 0.0)) / diag[i]
        return center, math.ceil(center - half - 1e-9), math.floor(center + half + 1e-9)

    z = [0, 0, 0, 0]
    c3, lo3, hi3 = interval(3, z, budget)
    for z3 in range(lo3, hi3 + 1):
        z[3] = z3
        rest3 = budget - (diag[3] * (z3 - c3)) ** 2
        c2, lo2, hi2 = interval(2, z, rest3)
        for z2 in range(lo2, hi2 + 1):
            z[2] = z2
            rest2 = rest3 - (diag[2] * (z2 - c2)) ** 2
            c1, lo1, hi1 = interval(1, z, rest2)
            for z1 in range(lo1, hi1 + 1):
                z[1] = z1
                rest1 = rest2 - (diag[1] * (z1 - c1)) ** 2
                _, lo0, hi0 = interval(0, z, rest1)
                if lo0 > hi0:
                    continue
                block = np.empty((hi0 - lo0 + 1, 4), dtype=np.int64)
                block[:, 0] = np.arange(lo0, hi0 + 1)
                block[:, 1:] = (z1, z2, z3)
                found.append(block)
    coeffs = np.concatenate(found)
    phys = coeffs @ PHYS_BASIS
    star = coeffs @ STAR_BASIS
    keep = np.abs(phys) ** 2 <= radius * radius + 1e-9
    coeffs, star = coeffs[keep], star[keep]
    residue = coeffs.sum(axis=1) % 5
    out = {}
    for comp in range(1, 5):
        sel = residue == comp
        inside = in_window(comp, gamma, star[sel])
        out[comp] = set(map(tuple, coeffs[sel][inside].tolist()))
    return out


def read_points_csv(path):
    """points.csv as (components, coefficients, printed phys, printed internal)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != POINTS_HEADER:
        raise ValueError("points.csv header differs from " + POINTS_HEADER)
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != 9 for row in rows):
        raise ValueError("points.csv row without 9 fields")
    ints = np.array([row[:5] for row in rows], dtype=np.int64).reshape(-1, 5)
    floats = np.array([row[5:] for row in rows], dtype=float).reshape(-1, 4)
    return (ints[:, 0], ints[:, 1:], floats[:, 0] + 1j * floats[:, 1],
            floats[:, 2] + 1j * floats[:, 3])


def check_points(outdir, rc, radius, gamma, recorded_counts=None):
    """Re-check every points.csv row and compare the set with the oracle."""
    problems = _exit_problem(rc)
    try:
        comp, coeffs, phys, star = read_points_csv(Path(outdir) / "points.csv")
    except (OSError, ValueError) as exc:
        return problems + [f"points.csv: {exc}"]
    bad = ~np.isin(comp, [1, 2, 3, 4])
    if bad.any():
        return problems + [f"{int(bad.sum())} rows with a component outside 1..4"]
    bad = coeffs.sum(axis=1) % 5 != comp
    if bad.any():
        problems.append(f"{int(bad.sum())} rows whose coefficient sum is not the component mod 5")
    exact_phys = coeffs @ PHYS_BASIS
    exact_star = coeffs @ STAR_BASIS
    bad = np.abs(exact_phys) > radius + 1e-9
    if bad.any():
        problems.append(f"{int(bad.sum())} rows with |phys| > {radius}")
    for name, printed, exact in (("phys", phys, exact_phys), ("internal", star, exact_star)):
        err = np.abs(printed - exact)
        bad = err > 1e-9 * np.maximum(1.0, np.abs(exact))
        if bad.any():
            problems.append(f"{int(bad.sum())} rows whose printed {name} embedding "
                            f"differs from m0..m3 (worst {err.max():.3g})")
    for c in range(1, 5):
        outside = ~in_window(c, gamma, exact_star[comp == c])
        if outside.any():
            problems.append(f"{int(outside.sum())} component-{c} rows outside its window")
    listed = {}
    for c in range(1, 5):
        rows = list(map(tuple, coeffs[comp == c].tolist()))
        listed[c] = set(rows)
        if len(listed[c]) != len(rows):
            problems.append(f"component {c} lists {len(rows) - len(listed[c])} duplicate rows")
    expected = enumerate_points(radius, gamma)
    for c in range(1, 5):
        missing = len(expected[c] - listed[c])
        spurious = len(listed[c] - expected[c])
        if missing or spurious:
            problems.append(f"component {c}: {missing} points missing, {spurious} not in the set")
    counts = [len(listed[c]) for c in range(1, 5)]
    if recorded_counts is not None and counts != list(recorded_counts):
        problems.append(f"per-component counts {counts} differ from recorded {recorded_counts}")
    return problems
