"""Command line front end: configuration, pipeline orchestration, exports.

Configuration is a flat key = value text file; the two bundled presets
reproduce the worked four-component examples with one command.  Every
command validates its whole configuration, computes all artifacts in
memory, and only then writes files, so errors never leave partial output.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import pfsolve, refine, scheme, verify
from .cyclotomic import CycInt
from .polygeom import Region, area, linear_image, translate

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
    "supersample": 4,
    "closure_s": 5.0,
    "id2_samples": 100,
    "seed": 0,
    "k_count": 25,
    "k_max": 10.0,
    "outputs": None,
}


# density files written by solve: per-channel grids and one combined CSV
OUTPUT_SELECTORS = ("grids", "csv")


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
    supersample: int
    closure_s: float
    id2_samples: int
    seed: int
    k_count: int
    k_max: float
    outputs: object = None


def _fmt(x):
    return f"{x:.12g}"


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
            raw[key] = (value.strip(), lineno)
    return raw


def _parse_floats(text, count, what):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != count:
        raise ConfigError(f"{what} needs {count} numbers, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{what}: could not parse {text!r}")


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
    simple_keys = {
        "s": float, "h": float, "tol": float, "maxit": int, "seed": int,
        "supersample": int, "closure_s": float, "id2_samples": int,
        "k_count": int, "k_max": float,
    }
    for key, (value, lineno) in raw.items():
        if key in simple_keys:
            try:
                cfg[key] = simple_keys[key](value)
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
        elif key.startswith("nu_row") or key.startswith(("window", "coset")) or key == "q":
            pass  # handled below with full context
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    for name in ("s", "h", "tol"):
        override = getattr(args, name, None)
        if override is not None:
            cfg[name] = override
    for key in ("s", "h", "tol", "maxit", "supersample", "closure_s", "id2_samples",
                "k_count", "k_max"):
        if not cfg[key] > 0:
            raise ConfigError(f"{key} must be positive, got {cfg[key]!r}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']!r}")
    if cfg["boundary"] not in ("closed", "open"):
        raise ConfigError("boundary must be 'closed' or 'open'")
    if cfg["scheme"] == "penrose":
        spec = scheme.penrose_scheme(gamma=complex(*cfg["gamma"]),
                                     boundary_mode=cfg["boundary"])
    elif cfg["scheme"] == "inline":
        spec = _inline_scheme(raw, path, cfg["gamma"], cfg["boundary"])
    else:
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}")
    nu_matrix = cfg.get("nu_matrix")
    rows = [key for key in raw if key.startswith("nu_row")]
    if rows:
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
                     s=cfg["s"], h=cfg["h"], tol=cfg["tol"], maxit=cfg["maxit"],
                     supersample=cfg["supersample"], closure_s=cfg["closure_s"],
                     id2_samples=cfg["id2_samples"], seed=cfg["seed"],
                     k_count=cfg["k_count"], k_max=cfg["k_max"],
                     outputs=cfg["outputs"])


def _write_all(outdir, files):
    os.makedirs(outdir, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)


def _region_line(j, i, region):
    if region.is_empty:
        return f"{j} {i} EMPTY"
    if region.is_point:
        return f"{j} {i} POINT {_fmt(region.point[0])} {_fmt(region.point[1])}"
    coords = " ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in region.vertices)
    return f"{j} {i} POLYGON {coords}"


def cmd_windows(cfg, outdir):
    trans = scheme.transition_windows(cfg.spec)
    r = cfg.spec.r
    lines = [_region_line(j + 1, i + 1, trans[j][i])
             for j in range(r) for i in range(r)]
    areas = ["\t".join(_fmt(area(trans[j][i])) for i in range(r)) for j in range(r)]
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
    return "\n".join("\t".join(_fmt(v) for v in row) for row in nu) + "\n"


def _pf_text(pf):
    return (f"lambda = {_fmt(pf.lambda_max)}\n"
            f"w = {' '.join(_fmt(v) for v in pf.w)}\n"
            f"gap = {_fmt(pf.gap)}\n"
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
                                     cfg.spec.detq_abs, grid,
                                     supersample=cfg.supersample)
        stage = "fixed point"
        result = refine.solve_fixed_point(kernel, pf.w, tol=cfg.tol,
                                          maxit=cfg.maxit)
        stage = "solver comparison"
        rng = np.random.default_rng(cfg.seed)
        ks = rng.uniform(-cfg.k_max, cfg.k_max, size=(4 * cfg.k_count, 2))
        ks = ks[np.hypot(ks[:, 0], ks[:, 1]) <= cfg.k_max][:cfg.k_count]
        deviation = refine.compare_solvers(result.density, trans, nu, pf.w,
                                           cfg.spec.a_matrix(), ks)
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"failed at stage '{stage}': {exc}") from exc
    yield result, deviation


def cmd_solve(cfg, outdir):
    (_, nu, pf), (result, deviation) = _pipeline(cfg)
    density = result.density
    summary = io.StringIO()
    summary.write(f"lambda = {_fmt(pf.lambda_max)}\n")
    summary.write(f"w = {' '.join(_fmt(v) for v in pf.w)}\n")
    summary.write(f"masses = {' '.join(_fmt(v) for v in density.masses)}\n")
    summary.write(f"iterations = {result.iterations}\n")
    summary.write(f"residuals = {' '.join(_fmt(v) for v in result.residuals)}\n")
    summary.write(f"fourier_max_rel_dev = {_fmt(deviation)}\n")
    files = {"nu.txt": _nu_text(nu), "pf.txt": _pf_text(pf),
             "summary.txt": summary.getvalue()}
    selectors = cfg.outputs or OUTPUT_SELECTORS
    if "grids" in selectors:
        for j in range(density.r):
            buf = io.StringIO()
            refine.write_density_grid(density, j, buf)
            files[f"density_ch{j + 1}.txt"] = buf.getvalue()
    if "csv" in selectors:
        buf = io.StringIO()
        refine.write_density_csv(density, buf)
        files["density.csv"] = buf.getvalue()
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
    if cfg.s >= cfg.closure_s:
        closure_points = points
        near = [[np.abs(t.phys) <= cfg.closure_s for t in row] for row in tsets]
        closure_tsets = [[scheme.PointSet(t.coeffs[m], t.phys[m], t.internal[m])
                          for t, m in zip(row, mrow)] for row, mrow in zip(tsets, near)]
    else:
        closure_points = scheme.generate_all(cfg.spec, cfg.closure_s)
        closure_tsets = scheme.translation_sets(cfg.spec, trans, cfg.closure_s)
    closure = scheme.check_selfsim_closure(cfg.spec, closure_points,
                                           closure_tsets, cfg.closure_s)
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
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
