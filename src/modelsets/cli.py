"""Command line front end: configuration, pipeline orchestration, exports.

Configuration is a flat key = value text file; the two bundled presets
reproduce the worked four-component examples with one command.  Every
command validates its configuration and computes its results, then writes
its files under temporary names (the density text one row block at a time)
and renames them into place once all are complete: a failure leaves no output.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np
from numpy.random import default_rng

from . import pfsolve, refine, scheme, verify
from .cyclotomic import CycInt
from .polygeom import Region, area, linear_image, translate
from .text import fmt

EXAMPLE2_MATRIX = [
    [0.5, 0.0, 0.0, 0.5],
    [0.25, 0.25, 0.25, 0.25],
    [0.25, 0.25, 0.25, 0.25],
    [0.5, 0.0, 0.0, 0.5],
]

PRESETS = {
    "penrose-example1": {"scheme": "penrose", "nu_policy": "area-markov"},
    "penrose-example2": {"scheme": "penrose", "nu_policy": "explicit",
                         "nu_matrix": EXAMPLE2_MATRIX},
}

# density files written by solve: per-channel grids and one combined CSV
OUTPUT_SELECTORS = ("grids", "csv")

# largest window coordinate: polygon areas and edge tests multiply coordinate differences
MAX_WINDOW_COORD = 1e150

# per-component keys: window<k>, coset<k> and nu_row<k> for k = 1..r
INDEXED_KEY = re.compile(r"(window|coset|nu_row)([1-9][0-9]*)")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    spec: scheme.SchemeSpec
    nu_policy: str
    nu_matrix: object
    s: float
    h: float
    tol: float
    maxit: int
    closure_s: float
    id2_samples: int
    seed: int
    k_count: int
    k_max: float
    outputs: object = None


def parse_config_file(path):
    """Flat key = value lines; '#' starts a comment."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: {key!r} is set twice "
                                  f"(first on line {raw[key][1]})")
            raw[key] = (value.strip(), lineno)
    return raw


def _parse_floats(text, count, what):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != count:
        raise ConfigError(f"{what} needs {count} numbers, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{what}: could not parse {text!r}")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{what}: numbers must be finite, got {text!r}")
    return vals


def _parse_ints(text, count, what):
    vals = _parse_floats(text, count, what)
    if any(v != int(v) for v in vals):
        raise ConfigError(f"{what}: expected integers, got {text!r}")
    return [int(v) for v in vals]


def _parse_outputs(text):
    selectors = [p.strip() for p in text.split(",") if p.strip()]
    for sel in selectors:
        if sel not in OUTPUT_SELECTORS:
            raise ConfigError(f"unknown output selector {sel!r}; "
                              f"expected {', '.join(OUTPUT_SELECTORS)}")
    return selectors


def _one_of(*names):
    return " or ".join(map(repr, names)), names.__contains__


POSITIVE = ("positive and finite", lambda v: 0 < v < math.inf)  # NaN fails every comparison
NON_NEGATIVE = ("non-negative and finite", lambda v: 0 <= v < math.inf)

# every plain key: its default, the parser of its text, and the rule its
# value must meet as (description, test), or None
KEYS = {
    "scheme": ("penrose", str, _one_of("penrose", "inline")),
    "nu_policy": (scheme.POLICY_AREA, str, _one_of(scheme.POLICY_AREA, scheme.POLICY_EXPLICIT)),
    "gamma": ((0.0, 0.0), lambda text: tuple(_parse_floats(text, 2, "gamma")), None),
    "boundary": ("closed", str, _one_of("closed", "open")),
    "s": (40.0, float, POSITIVE),
    "h": (1.0 / 128, float, POSITIVE),
    "tol": (1e-8, float, POSITIVE),
    "maxit": (200, int, POSITIVE),
    "closure_s": (5.0, float, POSITIVE),
    "id2_samples": (100, int, POSITIVE),
    "seed": (0, int, NON_NEGATIVE),
    "k_count": (25, int, POSITIVE),
    "k_max": (10.0, float, POSITIVE),
    "outputs": (None, _parse_outputs, None),
}


def _located(raw, path, key, parse):
    """parse(value of key), with any error prefixed by the key's file and line."""
    value, lineno = raw[key]
    try:
        return parse(value)
    except ConfigError as exc:
        raise ConfigError(f"{path}:{lineno}: {exc}") from None
    except ValueError as exc:  # from float, int or Region.polygon
        raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None


def _parse_window(text, key):
    pts = [p for p in text.split(";") if p.strip()]
    if len(pts) < 3:
        raise ConfigError(f"{key} needs >= 3 vertices")
    vertices = [_parse_floats(p, 2, f"{key} vertex") for p in pts]
    if max(abs(v) for vertex in vertices for v in vertex) > MAX_WINDOW_COORD:
        raise ConfigError(f"{key}: coordinates must be at most {MAX_WINDOW_COORD:g} in size")
    return Region.polygon(vertices)


def _inline_scheme(raw, path, gamma, boundary):
    windows = []
    reps = []
    idx = 1
    while f"window{idx}" in raw:
        windows.append(_located(raw, path, f"window{idx}",
                                lambda text: _parse_window(text, f"window{idx}")))
        if f"coset{idx}" not in raw:
            raise ConfigError(f"{path}: missing coset{idx}")
        reps.append(CycInt(*_located(raw, path, f"coset{idx}",
                                     lambda text: _parse_ints(text, 4, f"coset{idx}"))))
        idx += 1
    if not windows:
        raise ConfigError(f"{path}: inline scheme needs window1, window2, ...")
    if "q" not in raw:
        raise ConfigError(f"{path}: inline scheme needs q = m0,m1,m2,m3")
    q = CycInt(*_located(raw, path, "q", lambda text: _parse_ints(text, 4, "q")))
    return scheme.SchemeSpec(windows=windows, coset_reps=reps, q_mult=q,
                             gamma=complex(*gamma), boundary_mode=boundary)


def build_config(args):
    """Merge defaults, preset, config file, and command-line overrides."""
    cfg = {key: default for key, (default, _, _) in KEYS.items()}
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"available: {', '.join(sorted(PRESETS))}")
        cfg.update(PRESETS[args.preset])
    raw = {}
    path = args.config or "<config>"
    if args.config:
        raw = parse_config_file(args.config)
    at = {key: f"{path}:{lineno}: " for key, (_, lineno) in raw.items()}
    for key, (_, lineno) in raw.items():
        if key in KEYS:
            cfg[key] = _located(raw, path, key, KEYS[key][1])
        elif key != "q" and not INDEXED_KEY.fullmatch(key):  # those wait for the scheme
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    for key in KEYS:  # the --s, --h and --tol flags
        override = getattr(args, key, None)
        if override is not None:
            cfg[key] = override
            at.pop(key, None)
    for key, (_, _, rule) in KEYS.items():
        if rule is not None and not rule[1](cfg[key]):
            raise ConfigError(f"{at.get(key, '')}{key} must be {rule[0]}, got {cfg[key]!r}")
    if cfg["scheme"] == "penrose":
        spec = scheme.penrose_scheme(gamma=complex(*cfg["gamma"]),
                                     boundary_mode=cfg["boundary"])
    else:
        spec = _inline_scheme(raw, path, cfg["gamma"], cfg["boundary"])
    for i, window in enumerate(spec.windows, start=1):  # a far shift rounds vertices together
        before, after = area(window), area(spec.shifted_window(i))
        if abs(after - before) > 1e-9 * before:
            raise ConfigError(f"{at.get('gamma', '')}gamma: shifting window {i} by it "
                              f"changes its area from {fmt(before)} to {fmt(after)}")
    for key, (_, lineno) in raw.items():
        if (key == "q" or key.startswith(("window", "coset"))) and cfg["scheme"] != "inline":
            raise ConfigError(f"{path}:{lineno}: {key!r} needs scheme = inline")
        match = INDEXED_KEY.fullmatch(key)
        if match and int(match[2]) > spec.r:
            raise ConfigError(f"{path}:{lineno}: {key!r} is outside components 1..{spec.r}")
    nu_matrix = cfg.get("nu_matrix")
    if any(key.startswith("nu_row") for key in raw):
        nu_matrix = []
        for j in range(1, spec.r + 1):
            key = f"nu_row{j}"
            if key not in raw:
                raise ConfigError(f"{path}: missing {key}")
            row = _located(raw, path, key, lambda text: _parse_floats(text, spec.r, key))
            if min(row) < 0:
                raise ConfigError(f"{at[key]}{key}: weights must be non-negative")
            nu_matrix.append(row)
    if cfg["nu_policy"] == scheme.POLICY_EXPLICIT and nu_matrix is None:
        raise ConfigError(f"{at.get('nu_policy', '')}explicit policy needs nu_row1..r "
                          "(or a preset)")
    return RunConfig(spec=spec, nu_matrix=nu_matrix,
                     **{f.name: cfg[f.name] for f in fields(RunConfig) if f.name in KEYS})


def _failed(stage, exc):
    """The error exc, labelled with the stage it stopped."""
    reason = str(exc) or "out of memory"  # a bare MemoryError has no message
    return RuntimeError(f"failed at stage '{stage}': {reason}")


@contextmanager
def _staged(outdir):
    """Yield open(name) for files that appear in outdir together, once all are complete.

    Each is written under a temporary name and renamed with os.replace at the
    end; a failure removes them all and is labelled if it is I/O or memory.
    """
    opened = {}

    def open_file(name):
        opened[name] = open(os.path.join(outdir, f".{name}.{os.getpid()}.tmp"), "w")
        return opened[name]

    try:
        os.makedirs(outdir, exist_ok=True)
        yield open_file
        for fh in opened.values():
            fh.close()
        while opened:
            name, fh = opened.popitem()
            os.replace(fh.name, os.path.join(outdir, name))
    except (OSError, MemoryError) as exc:
        raise _failed("output", exc) from exc
    finally:
        for fh in opened.values():
            with suppress(OSError):
                fh.close()
            with suppress(OSError):
                os.remove(fh.name)


def _write_all(outdir, files):
    """Write each file's text under outdir, all or none."""
    with _staged(outdir) as open_file:
        for name, text in files.items():
            open_file(name).write(text)


def _region_line(j, i, region):
    if region.is_empty:
        return f"{j} {i} EMPTY"
    if region.is_point:
        return f"{j} {i} POINT {fmt(region.point[0])} {fmt(region.point[1])}"
    coords = " ".join(f"{fmt(x)} {fmt(y)}" for x, y in region.vertices)
    return f"{j} {i} POLYGON {coords}"


def cmd_windows(cfg, outdir):
    try:
        trans = scheme.transition_windows(cfg.spec)
    except (ValueError, RuntimeError, MemoryError) as exc:
        raise _failed("transition windows", exc) from exc
    r = cfg.spec.r
    lines = [_region_line(j + 1, i + 1, trans[j][i])
             for j in range(r) for i in range(r)]
    areas = ["\t".join(fmt(area(trans[j][i])) for i in range(r)) for j in range(r)]
    _write_all(outdir, {
        "windows.txt": "\n".join(lines) + "\n",
        "areas.txt": "\n".join(areas) + "\n",
    })
    return 0


def cmd_points(cfg, outdir):
    points = scheme.generate_all(cfg.spec, cfg.s)
    _write_all(outdir, {"points.csv": scheme.points_csv_text(points)})
    return 0


def _nu_text(nu):
    return "\n".join("\t".join(fmt(v) for v in row) for row in nu) + "\n"


def _pf_text(pf):
    return (f"lambda = {fmt(pf.lambda_max)}\n"
            f"w = {' '.join(fmt(v) for v in pf.w)}\n"
            f"gap = {fmt(pf.gap)}\n"
            f"simple = {'true' if pf.simple else 'false'}\n")


def cmd_nu(cfg, outdir):
    _, nu, pf = next(_pipeline(cfg))
    _write_all(outdir, {"nu.txt": _nu_text(nu), "pf.txt": _pf_text(pf)})
    return 0


def _pipeline(cfg):
    """Yield (trans, nu, pf), the fixed-point result, then the Fourier deviation.

    Each command takes only the items it reads, so `nu` runs no solve and
    `verify` no Fourier cross-check.  A failure is labelled with its stage.
    """
    stage = "transition windows"
    try:
        trans = scheme.transition_windows(cfg.spec)
        stage = "weight matrix"
        nu = scheme.build_nu(cfg.spec, trans, policy=cfg.nu_policy,
                             matrix=cfg.nu_matrix)
        stage = "eigenpair"
        pf = pfsolve.pf_eigen(nu)
        yield trans, nu, pf
        if not pfsolve.check_pf1(pf, tol=1e-8):
            raise ValueError(f"spectral radius {pf.lambda_max} is not 1")
        if not pf.simple:
            raise ValueError("the Perron root is not simple, so the "
                             "invariant density is not unique")
        stage = "kernel"
        windows = [cfg.spec.shifted_window(i) for i in range(1, cfg.spec.r + 1)]
        kernel = refine.build_kernel(windows, trans, nu, cfg.spec.a_matrix(),
                                     cfg.spec.detq_abs, pf.w, cfg.h)
        stage = "fixed point"
        result = refine.solve_fixed_point(kernel, tol=cfg.tol, maxit=cfg.maxit)
        yield result
        stage = "solver comparison"
        rng = default_rng(cfg.seed)
        ks = rng.uniform(-cfg.k_max, cfg.k_max, size=(4 * cfg.k_count, 2))
        ks = ks[np.hypot(ks[:, 0], ks[:, 1]) <= cfg.k_max][:cfg.k_count]
        deviation = refine.compare_solvers(result.density, trans, nu, pf.w,
                                           cfg.spec.a_matrix(), ks)
    except (ValueError, RuntimeError, MemoryError) as exc:
        raise _failed(stage, exc) from exc
    yield deviation


def cmd_solve(cfg, outdir):
    (_, nu, pf), result, deviation = _pipeline(cfg)
    density = result.density
    summary = (f"lambda = {fmt(pf.lambda_max)}\n"
               f"w = {' '.join(fmt(v) for v in pf.w)}\n"
               f"masses = {' '.join(fmt(v) for v in density.masses)}\n"
               f"iterations = {result.iterations}\n"
               f"residuals = {' '.join(fmt(v) for v in result.residuals)}\n"
               f"fourier_max_rel_dev = {fmt(deviation)}\n")
    selectors = cfg.outputs or OUTPUT_SELECTORS
    # the density text goes to disk one row block at a time, never held whole
    with _staged(outdir) as open_file:
        for name, text in [("nu.txt", _nu_text(nu)), ("pf.txt", _pf_text(pf)),
                           ("summary.txt", summary)]:
            open_file(name).write(text)
        grids = ({j: open_file(f"density_ch{j + 1}.txt") for j in range(density.r)}
                 if "grids" in selectors else {})
        csv = open_file("density.csv") if "csv" in selectors else None
        refine.write_density(density, grids, csv)
    return 0


def cmd_verify(cfg, outdir):
    # the pipeline is dropped after its second item, and the kernel with it
    (trans, nu, pf), result = islice(_pipeline(cfg), 2)
    density = result.density
    # one patch out to the larger radius; each check cuts it with PointSet.within
    radius = max(cfg.s, cfg.closure_s)
    patch = scheme.generate_all(cfg.spec, radius)
    tsets = scheme.translation_sets(cfg.spec, trans, radius)
    points = [p.within(cfg.s) for p in patch]
    lines = []
    # star images equidistribute: component-1 sub-window at the contraction scale
    contraction = abs(cfg.spec.a_internal)
    sub = translate(linear_image(cfg.spec.windows[0], contraction * np.eye(2)),
                    (cfg.spec.gamma.real, cfg.spec.gamma.imag))
    if points[0]:
        _, _, dev = verify.weyl_test(points[0], cfg.spec.shifted_window(1), sub)
        lines.append(verify.ReportLine("WEYL.comp1_deviation", dev,
                                       5.0 / np.sqrt(len(points[0]))))
    else:
        lines.append(verify.ReportLine("WEYL.comp1_deviation", "no-points", 0.0))
    try:
        rep = verify.check_id2(cfg.spec, density, nu, points, tsets, cfg.s,
                               samples=cfg.id2_samples, seed=cfg.seed)
        lines.append(verify.ReportLine("ID2.mean_residual", rep.mean_residual, 0.05))
    except verify.InsufficientRadiusError:
        lines.append(verify.ReportLine("ID2.mean_residual", "insufficient-radius", 0.05))
    id3 = verify.id3_values(cfg.spec, density, points)
    lines.append(verify.ReportLine("ID3.max_deviation",
                                   float(np.abs(id3 - pf.w).max()), 0.05))
    dens = verify.density_estimate(points, [cfg.s])
    areas = np.array([area(cfg.spec.shifted_window(j))
                      for j in range(1, cfg.spec.r + 1)])
    ratio_dev = 0.0
    for j in range(cfg.spec.r):
        for i in range(cfg.spec.r):
            if dens[i, 0] > 0:
                measured = dens[j, 0] / dens[i, 0]
                expected = areas[j] / areas[i]
                ratio_dev = max(ratio_dev, abs(measured / expected - 1.0))
    lines.append(verify.ReportLine("DENSITY.ratio_max_reldev", ratio_dev, 0.05))
    closure = scheme.check_selfsim_closure(
        cfg.spec, patch, [[t.within(cfg.closure_s) for t in row] for row in tsets],
        cfg.closure_s)
    lines.append(verify.ReportLine("CLOSURE.violations",
                                   len(closure.violations), 0))
    report = verify.render_report(lines)
    sys.stdout.write(report)
    _write_all(outdir, {"report.txt": report})
    return 0 if all(line.passed for line in lines) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="modelsets",
        description="Multi-component cut-and-project sets and invariant densities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("windows", cmd_windows), ("points", cmd_points),
                     ("nu", cmd_nu), ("solve", cmd_solve), ("verify", cmd_verify)]:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--preset", default=None,
                       help=f"one of: {', '.join(sorted(PRESETS))}")
        p.add_argument("--s", type=float, default=None, help="physical radius")
        p.add_argument("--h", type=float, default=None, help="grid cell size")
        p.add_argument("--tol", type=float, default=None, help="fixed-point tolerance")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        return args.fn(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
