"""Command line front end: configuration, pipeline orchestration, exports.

Configuration is a flat key = value text file; the two bundled presets
reproduce the worked four-component examples with one command.  Every
command validates its whole configuration, computes all artifacts in
memory, and only then writes files, so errors never leave partial output.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import sys
from dataclasses import dataclass

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

DEFAULTS = {
    "scheme": "penrose",
    "nu_policy": "area-markov",
    "nu_matrix": None,
    "gamma": (0.0, 0.0),
    "s": 40.0,
    "h": 1.0 / 128,
    "tol": 1e-8,
    "maxit": 200,
    "boundary": "closed",
    "closure_s": 5.0,
    "id2_samples": 100,
    "seed": 0,
    "k_count": 25,
    "k_max": 10.0,
    "outputs": None,
}


# density files written by solve: per-channel grids and one combined CSV
OUTPUT_SELECTORS = ("grids", "csv")

# numeric keys: parser and the finite values allowed
NUMERIC_KEYS = {
    "s": (float, "positive"), "h": (float, "positive"), "tol": (float, "positive"),
    "maxit": (int, "positive"), "closure_s": (float, "positive"),
    "id2_samples": (int, "positive"), "k_count": (int, "positive"),
    "k_max": (float, "positive"), "seed": (int, "non-negative"),
}
RULES = {"positive": lambda v: 0 < v < math.inf,
         "non-negative": lambda v: 0 <= v < math.inf}

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
    out = []
    for v in vals:
        if v != int(v):
            raise ConfigError(f"{what}: expected integers, got {text!r}")
        out.append(int(v))
    return out


def _inline_scheme(raw, path, gamma, boundary):
    windows = []
    reps = []
    idx = 1
    while f"window{idx}" in raw:
        text, lineno = raw[f"window{idx}"]
        pts = [p for p in text.split(";") if p.strip()]
        if len(pts) < 3:
            raise ConfigError(f"{path}:{lineno}: window{idx} needs >= 3 vertices")
        verts = [_parse_floats(p, 2, f"window{idx} vertex") for p in pts]
        windows.append(Region.polygon(verts))
        if f"coset{idx}" not in raw:
            raise ConfigError(f"{path}: missing coset{idx}")
        reps.append(CycInt(*_parse_ints(raw[f"coset{idx}"][0], 4, f"coset{idx}")))
        idx += 1
    if not windows:
        raise ConfigError(f"{path}: inline scheme needs window1, window2, ...")
    if "q" not in raw:
        raise ConfigError(f"{path}: inline scheme needs q = m0,m1,m2,m3")
    q = CycInt(*_parse_ints(raw["q"][0], 4, "q"))
    return scheme.SchemeSpec(windows=windows, coset_reps=reps, q_mult=q,
                             gamma=complex(*gamma), boundary_mode=boundary)


def build_config(args):
    """Merge defaults, preset, config file, and command-line overrides."""
    cfg = dict(DEFAULTS)
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"available: {', '.join(sorted(PRESETS))}")
        cfg.update(PRESETS[args.preset])
    raw = {}
    path = args.config or "<config>"
    if args.config:
        raw = parse_config_file(args.config)
    for key, (value, lineno) in raw.items():
        if key in NUMERIC_KEYS:
            try:
                cfg[key] = NUMERIC_KEYS[key][0](value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}")
        elif key == "scheme":
            cfg["scheme"] = value
        elif key == "nu_policy":
            cfg["nu_policy"] = value
        elif key == "gamma":
            cfg["gamma"] = tuple(_parse_floats(value, 2, "gamma"))
        elif key == "boundary":
            cfg["boundary"] = value
        elif key == "outputs":
            selectors = [p.strip() for p in value.split(",") if p.strip()]
            for sel in selectors:
                if sel not in OUTPUT_SELECTORS:
                    raise ConfigError(f"{path}:{lineno}: unknown output selector {sel!r}; "
                                      f"expected {', '.join(OUTPUT_SELECTORS)}")
            cfg["outputs"] = selectors
        elif key == "q" or INDEXED_KEY.fullmatch(key):
            pass  # handled below, once the scheme is known
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    for name in ("s", "h", "tol"):
        override = getattr(args, name, None)
        if override is not None:
            cfg[name] = override
    for key, (_, rule) in NUMERIC_KEYS.items():
        if not RULES[rule](cfg[key]):  # NaN fails every comparison
            raise ConfigError(f"{key} must be {rule} and finite, got {cfg[key]!r}")
    if cfg["boundary"] not in ("closed", "open"):
        raise ConfigError("boundary must be 'closed' or 'open'")
    if cfg["scheme"] == "penrose":
        spec = scheme.penrose_scheme(gamma=complex(*cfg["gamma"]),
                                     boundary_mode=cfg["boundary"])
    elif cfg["scheme"] == "inline":
        spec = _inline_scheme(raw, path, cfg["gamma"], cfg["boundary"])
    else:
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}")
    for key, (_, lineno) in raw.items():
        if (key == "q" or key.startswith(("window", "coset"))) and cfg["scheme"] != "inline":
            raise ConfigError(f"{path}:{lineno}: {key!r} needs scheme = inline")
        match = INDEXED_KEY.fullmatch(key)
        if match and int(match[2]) > spec.r:
            raise ConfigError(f"{path}:{lineno}: {key!r} is outside components 1..{spec.r}")
    nu_matrix = cfg.get("nu_matrix")
    if any(key.startswith("nu_row") for key in raw):
        matrix = []
        for j in range(1, spec.r + 1):
            key = f"nu_row{j}"
            if key not in raw:
                raise ConfigError(f"{path}: missing {key}")
            matrix.append(_parse_floats(raw[key][0], spec.r, key))
        nu_matrix = matrix
    if cfg["nu_policy"] == scheme.POLICY_EXPLICIT and nu_matrix is None:
        raise ConfigError("explicit policy needs nu_row1..r (or a preset)")
    if cfg["nu_policy"] not in (scheme.POLICY_AREA, scheme.POLICY_EXPLICIT):
        raise ConfigError(f"unknown nu_policy {cfg['nu_policy']!r}")
    if nu_matrix is not None:
        m = np.asarray(nu_matrix, dtype=float)
        if m.shape != (spec.r, spec.r) or np.any(m < 0):
            raise ConfigError(f"explicit nu must be a non-negative {spec.r}x{spec.r} matrix")
    return RunConfig(spec=spec, nu_policy=cfg["nu_policy"], nu_matrix=nu_matrix,
                     outputs=cfg["outputs"], **{key: cfg[key] for key in NUMERIC_KEYS})


class _Chunks(list):
    """Text kept as the list of the strings written to it, never joined into one."""

    write = list.append


def _write_all(outdir, files):
    """Write each file's text, a string or a list of strings, under outdir."""
    os.makedirs(outdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)


def _region_line(j, i, region):
    if region.is_empty:
        return f"{j} {i} EMPTY"
    if region.is_point:
        return f"{j} {i} POINT {fmt(region.point[0])} {fmt(region.point[1])}"
    coords = " ".join(f"{fmt(x)} {fmt(y)}" for x, y in region.vertices)
    return f"{j} {i} POLYGON {coords}"


def cmd_windows(cfg, outdir):
    trans = scheme.transition_windows(cfg.spec)
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
    """Yield (trans, nu, pf), then run on to yield (result, deviation).

    `nu` takes only the first item, so the later stages run only for
    `solve` and `verify`.  A failure is labelled with its stage.
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
        stage = "kernel"
        windows = [cfg.spec.shifted_window(i) for i in range(1, cfg.spec.r + 1)]
        grid = refine.grid_for_windows(windows, cfg.h)
        kernel = refine.build_kernel(windows, trans, nu, cfg.spec.a_matrix(),
                                     cfg.spec.detq_abs, grid)
        stage = "fixed point"
        result = refine.solve_fixed_point(kernel, pf.w, tol=cfg.tol,
                                          maxit=cfg.maxit)
        stage = "solver comparison"
        rng = default_rng(cfg.seed)
        ks = rng.uniform(-cfg.k_max, cfg.k_max, size=(4 * cfg.k_count, 2))
        ks = ks[np.hypot(ks[:, 0], ks[:, 1]) <= cfg.k_max][:cfg.k_count]
        deviation = refine.compare_solvers(result.density, trans, nu, pf.w,
                                           cfg.spec.a_matrix(), ks)
    except (ValueError, RuntimeError, MemoryError) as exc:
        reason = str(exc) or "out of memory"  # a bare MemoryError has no message
        raise RuntimeError(f"failed at stage '{stage}': {reason}") from exc
    yield result, deviation


def cmd_solve(cfg, outdir):
    (_, nu, pf), (result, deviation) = _pipeline(cfg)
    density = result.density
    summary = io.StringIO()
    summary.write(f"lambda = {fmt(pf.lambda_max)}\n")
    summary.write(f"w = {' '.join(fmt(v) for v in pf.w)}\n")
    summary.write(f"masses = {' '.join(fmt(v) for v in density.masses)}\n")
    summary.write(f"iterations = {result.iterations}\n")
    summary.write(f"residuals = {' '.join(fmt(v) for v in result.residuals)}\n")
    summary.write(f"fourier_max_rel_dev = {fmt(deviation)}\n")
    files = {"nu.txt": _nu_text(nu), "pf.txt": _pf_text(pf),
             "summary.txt": summary.getvalue()}
    selectors = cfg.outputs or OUTPUT_SELECTORS
    grids = {j: _Chunks() for j in range(density.r)} if "grids" in selectors else {}
    csv = _Chunks() if "csv" in selectors else None
    refine.write_density(density, grids, csv)
    for j, chunks in grids.items():
        files[f"density_ch{j + 1}.txt"] = chunks
    if csv is not None:
        files["density.csv"] = csv
    _write_all(outdir, files)
    return 0


def cmd_verify(cfg, outdir):
    (trans, nu, pf), (result, _) = _pipeline(cfg)
    density = result.density
    points = scheme.generate_all(cfg.spec, cfg.s)
    tsets = scheme.translation_sets(cfg.spec, trans, cfg.s)
    lines = []
    # star images equidistribute: component-1 sub-window at the contraction scale
    contraction = abs(cfg.spec.a_internal)
    sub = translate(linear_image(cfg.spec.windows[0], contraction * np.eye(2)),
                    (cfg.spec.gamma.real, cfg.spec.gamma.imag))
    if points[0]:
        _, _, dev = verify.weyl_test(points[0], cfg.spec.shifted_window(1), sub,
                                     eps=abs(cfg.spec.eps))
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
    closure_points = points if cfg.s >= cfg.closure_s else \
        scheme.generate_all(cfg.spec, cfg.closure_s)
    closure = scheme.check_selfsim_closure(
        cfg.spec, closure_points, scheme.translation_sets(cfg.spec, trans, cfg.closure_s),
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
