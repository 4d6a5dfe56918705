"""Command line front end: configuration, pipeline orchestration, exports.

One parser reads a command from `COMMANDS` and the options all five share,
in any order.  Configuration is a flat key = value text file; the two
bundled presets reproduce the worked four-component examples with one
command.  Every command validates its configuration, then runs its work as
named stages (`_stage`) and writes its files under temporary names (the
density text one row block at a time), renaming them into place once all
are complete.  A bad configuration exits 2 with `config error: <path>...`,
a failed stage with `error: failed at stage '<name>': ...`; either leaves
no output.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import re
import signal
import sys
import threading
from contextlib import contextmanager, suppress
from types import SimpleNamespace

import numpy as np

from . import pfsolve, refine, scheme, verify
from .cyclotomic import CycInt
from .polygeom import Region, area
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

# points drawn per randbytes call: at k_count = 50, at least 50 of 80 lie in the
# disk at every seed from 0 to 199, so the benchmark's cross-check is one chunk
_DRAW_POINTS = 80

# largest window coordinate: polygon areas and edge tests multiply coordinate differences
MAX_WINDOW_COORD = 1e150

# per-component keys: window<k>, coset<k> and nu_row<k> for k = 1..r
INDEXED_KEY = re.compile(r"(window|coset|nu_row)([1-9][0-9]*)")


class ConfigError(ValueError):
    pass


class StageError(Exception):
    """A failure labelled with the stage it stopped; not caught by an enclosing stage."""


def parse_config_file(path):
    """Flat key = value lines; '#' starts a comment."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # a decode error has no strerror
        raise ConfigError(f"{path}: cannot read: {reason}") from None
    raw = {}
    for lineno, line in enumerate(lines, start=1):
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
    """The integers of text, each read exactly (a float rounds past 2**53) once
    `_parse_floats` has checked their count, syntax and finiteness.

    A Decimal keeps its exponent, so `1e-999999999` costs no power of ten, as a
    Fraction's would; it is imported here, off every command's start-up.
    """
    from decimal import Decimal

    _parse_floats(text, count, what)
    vals = [Decimal(p) for p in text.replace(",", " ").split()]
    if any(int(v) != v for v in vals):
        raise ConfigError(f"{what}: expected integers, got {text!r}")
    return [int(v) for v in vals]


def _parse_outputs(text):
    selectors = [p.strip() for p in text.split(",") if p.strip()]
    if not selectors:
        raise ConfigError(f"outputs needs at least one of {', '.join(OUTPUT_SELECTORS)}")
    for sel in selectors:
        if sel not in OUTPUT_SELECTORS:
            raise ConfigError(f"unknown output selector {sel!r}; "
                              f"expected {', '.join(OUTPUT_SELECTORS)}")
    return selectors


def _one_of(*names):
    return " or ".join(map(repr, names)), names.__contains__


POSITIVE = ("positive and finite", lambda v: 0 < v < math.inf)  # NaN fails every comparison
NON_NEGATIVE = ("non-negative and finite", lambda v: 0 <= v < math.inf)
# the polygon transforms square a wavevector's modulus, so k_max stays where that is finite
UP_TO_1E150 = ("positive and at most 1e+150", lambda v: 0 < v <= 1e150)

# every plain key: its default, the parser of its text, and the rule its
# value must meet as (description, test), or None
KEYS = {
    "scheme": ("penrose", str, _one_of("penrose", "inline")),
    "nu_policy": ("area-markov", str, _one_of("area-markov", "explicit")),
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
    "k_max": (10.0, float, UP_TO_1E150),
    "outputs": (OUTPUT_SELECTORS, _parse_outputs, None),
}


def _located(raw, path, key, parse):
    """parse(value of key), with any error prefixed by the key's file and line."""
    value, lineno = raw[key]
    try:
        return parse(value)
    except ConfigError as exc:
        raise ConfigError(f"{path}:{lineno}: {exc}") from None
    except (ValueError, OverflowError) as exc:  # from float, int, Region.polygon or CycInt
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
        reps.append(_located(raw, path, f"coset{idx}",
                             lambda text: CycInt(*_parse_ints(text, 4, f"coset{idx}"))))
        if reps[-1].rho() in [z.rho() for z in reps[:-1]]:  # SchemeSpec's rule, located
            raise ConfigError(f"{path}:{raw[f'coset{idx}'][1]}: coset{idx}: residue "
                              f"{reps[-1].rho()} repeats an earlier coset's; "
                              "coset representatives must have distinct residues")
        idx += 1
    if not windows:
        raise ConfigError(f"{path}: inline scheme needs window1, window2, ...")
    if "q" not in raw:
        raise ConfigError(f"{path}: inline scheme needs q = m0,m1,m2,m3")
    q = _located(raw, path, "q", lambda text: CycInt(*_parse_ints(text, 4, "q")))
    try:  # SchemeSpec's rule, located
        scheme.check_multiplier(q)
    except ValueError as exc:
        raise ConfigError(f"{path}:{raw['q'][1]}: q: {exc}") from None
    return scheme.SchemeSpec(windows=windows, coset_reps=reps, q_mult=q,
                             gamma=complex(*gamma), boundary_mode=boundary)


def build_config(args):
    """Each KEYS value, spec and nu_matrix, from defaults, preset, config file and flags;
    nu_matrix, from nu_row<j> or the preset, is None unless nu_policy = explicit."""
    cfg = {key: default for key, (default, _, _) in KEYS.items()} | {"nu_matrix": None}
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
    if any(key.startswith("nu_row") for key in raw):
        cfg["nu_matrix"] = []
        for j in range(1, spec.r + 1):
            key = f"nu_row{j}"
            if key not in raw:
                raise ConfigError(f"{path}: missing {key}")
            row = _located(raw, path, key, lambda text: _parse_floats(text, spec.r, key))
            if min(row) < 0:
                raise ConfigError(f"{at[key]}{key}: weights must be non-negative")
            cfg["nu_matrix"].append(row)
        if cfg["nu_policy"] != "explicit":
            raise ConfigError(f"{at['nu_row1']}'nu_row1' needs nu_policy = explicit")
    if cfg["nu_policy"] != "explicit":
        cfg["nu_matrix"] = None
    elif cfg["nu_matrix"] is None:
        raise ConfigError(f"{at.get('nu_policy', '')}explicit policy needs nu_row1..r "
                          "(or a preset)")
    return SimpleNamespace(**cfg, spec=spec)


@contextmanager
def _stage(name):
    """Label a ValueError, RuntimeError, MemoryError or OSError raised inside with name."""
    try:
        yield
    except (ValueError, RuntimeError, MemoryError, OSError) as exc:
        reason = str(exc) or "out of memory"  # a bare MemoryError has no message
        raise StageError(f"failed at stage '{name}': {reason}") from exc


@contextmanager
def _staged(outdir):
    """Yield open(name) for files that appear in outdir together, once all are complete.

    Each is written under a temporary name and renamed with os.replace at the
    end, the last opened first, all in stage 'output'.  A target that is a
    directory is refused before the first rename; a failure removes every
    temporary file not yet renamed.
    """
    opened = {}

    def open_file(name):
        opened[name] = open(os.path.join(outdir, f".{name}.{os.getpid()}.tmp"), "w")
        return opened[name]

    try:
        with _stage("output"):
            os.makedirs(outdir, exist_ok=True)
            yield open_file
            for name, fh in opened.items():
                fh.close()
                if os.path.isdir(target := os.path.join(outdir, name)):
                    raise IsADirectoryError(f"{target} is a directory")
            for name in reversed(list(opened)):  # in opened until its rename has succeeded
                os.replace(opened[name].name, os.path.join(outdir, name))
                del opened[name]
    finally:
        for fh in opened.values():
            with suppress(OSError):
                fh.close()
            with suppress(OSError):
                os.remove(fh.name)


def _region_line(j, i, region):
    if region.is_empty:
        return f"{j} {i} EMPTY"
    if region.is_point:
        return f"{j} {i} POINT {fmt(region.point[0])} {fmt(region.point[1])}"
    coords = " ".join(f"{fmt(x)} {fmt(y)}" for x, y in region.vertices)
    return f"{j} {i} POLYGON {coords}"


def cmd_windows(cfg, outdir):
    with _stage("transition windows"):
        trans = scheme.transition_windows(cfg.spec)
    r = cfg.spec.r
    with _staged(outdir) as open_file:
        open_file("windows.txt").write("\n".join(
            _region_line(j + 1, i + 1, trans[j][i]) for j in range(r) for i in range(r)) + "\n")
        open_file("areas.txt").write("\n".join(
            "\t".join(fmt(area(trans[j][i])) for i in range(r)) for j in range(r)) + "\n")
    return 0


def cmd_points(cfg, outdir):
    with _stage("enumeration"):
        points = scheme.generate_all(cfg.spec, cfg.s)
    with _staged(outdir) as open_file:
        open_file("points.csv").write(scheme.points_csv_text(points))
    return 0


def _write_eigenpair(open_file, nu, pf):
    """nu.txt, the weight matrix, and pf.txt, its Perron-Frobenius pair."""
    open_file("nu.txt").write("\n".join("\t".join(fmt(v) for v in row) for row in nu) + "\n")
    open_file("pf.txt").write(f"lambda = {fmt(pf.lambda_max)}\n"
                              f"w = {' '.join(fmt(v) for v in pf.w)}\n"
                              f"gap = {fmt(pf.gap)}\n"
                              f"simple = {'true' if pf.simple else 'false'}\n")


def _eigenpair(cfg):
    """The transition windows, the weight matrix and its Perron-Frobenius pair."""
    with _stage("transition windows"):
        trans = scheme.transition_windows(cfg.spec)
    with _stage("weight matrix"):
        nu = scheme.build_nu(cfg.spec, trans, cfg.nu_matrix)
    with _stage("eigenpair"):
        pf = pfsolve.pf_eigen(nu)
    return trans, nu, pf


def _solve(cfg, trans, nu, pf):
    """The refinement problem and its fixed point; the kernel is freed on return."""
    with _stage("eigenpair"):
        if not pfsolve.check_pf1(pf, tol=1e-8):
            raise ValueError(f"spectral radius {fmt(pf.lambda_max)} is not 1")
        if not pf.simple:
            raise ValueError("the Perron root is not simple, so the "
                             "invariant density is not unique")
    with _stage("kernel"):
        problem = refine.Problem([cfg.spec.shifted_window(i) for i in range(1, cfg.spec.r + 1)],
                                 trans, nu, pf.w, cfg.spec.a_matrix(), cfg.spec.detq_abs)
        kernel = refine.build_kernel(problem, cfg.h)
    with _stage("fixed point"):
        return problem, refine.solve_fixed_point(kernel, tol=cfg.tol, maxit=cfg.maxit)


def cmd_nu(cfg, outdir):
    _, nu, pf = _eigenpair(cfg)
    with _staged(outdir) as open_file:
        _write_eigenpair(open_file, nu, pf)
    return 0


def _draw_wavevectors(seed, k_count, k_max):
    """The first k_count points drawn from random.Random(seed) uniformly in the
    square [-k_max, k_max)^2 that lie in the disk of radius k_max, yielded as
    the chunks of at most _DRAW_POINTS that the cross-check takes whole.

    Each coordinate is 53 random bits, a uniform draw from [0, 1) mapped to
    [-k_max, k_max).  Each randbytes call reads _DRAW_POINTS whole 16-byte
    points, the same bits as one call for them all, and only its chunk is held.
    """
    rng = random.Random(seed)
    while k_count > 0:
        unit = (np.frombuffer(rng.randbytes(16 * _DRAW_POINTS), "<u8") >> 11) * 2.0**-53
        batch = k_max * (2.0 * unit.reshape(-1, 2) - 1.0)
        yield (inside := batch[np.hypot(batch[:, 0], batch[:, 1]) <= k_max][:k_count])
        k_count -= len(inside)


def cmd_solve(cfg, outdir):
    trans, nu, pf = _eigenpair(cfg)
    problem, result = _solve(cfg, trans, nu, pf)
    density = result.density
    with _stage("solver comparison"):
        deviation = refine.compare_solvers(
            density, problem, _draw_wavevectors(cfg.seed, cfg.k_count, cfg.k_max))
    # the density text goes to disk a row block at a time; at most the rows up to
    # the centre are held, when the rows past it replay them
    with _staged(outdir) as open_file:  # opened first, summary.txt is renamed last
        open_file("summary.txt").write(
            f"lambda = {fmt(pf.lambda_max)}\n"
            f"w = {' '.join(fmt(v) for v in pf.w)}\n"
            f"masses = {' '.join(fmt(v) for v in density.masses)}\n"
            f"iterations = {result.iterations}\n"
            f"residuals = {' '.join(fmt(v) for v in result.residuals)}\n"
            f"fourier_max_rel_dev = {fmt(deviation)}\n")
        _write_eigenpair(open_file, nu, pf)
        grids = ({j: open_file(f"density_ch{j + 1}.txt") for j in range(density.r)}
                 if "grids" in cfg.outputs else {})
        csv = open_file("density.csv") if "csv" in cfg.outputs else None
        refine.write_density(density, grids, csv)
    return 0


def cmd_verify(cfg, outdir):
    trans, nu, pf = _eigenpair(cfg)
    density = _solve(cfg, trans, nu, pf)[1].density
    with _stage("enumeration"):
        # one patch out to the larger radius, which the checks cut to s and closure_s
        radius = max(cfg.s, cfg.closure_s)
        patch = scheme.generate_all(cfg.spec, radius)
        tsets = scheme.translation_sets(cfg.spec, trans, radius)
    with _stage("verification"):
        lines = verify.report(cfg.spec, density, nu, pf.w, patch, tsets, cfg.s,
                              cfg.closure_s, cfg.id2_samples, cfg.seed)
        report = verify.render_report(lines)
    with _staged(outdir) as open_file:
        sys.stdout.write(report)
        open_file("report.txt").write(report)
    return 0 if all(line.passed for line in lines) else 1


COMMANDS = {"windows": cmd_windows, "points": cmd_points, "nu": cmd_nu,
            "solve": cmd_solve, "verify": cmd_verify}


def _terminated(signum, frame):
    """SIGTERM as SystemExit(143), which runs `_staged`'s cleanup as any exception does."""
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="modelsets",
        description="Multi-component cut-and-project sets and invariant densities")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--preset", default=None, help=f"one of: {', '.join(sorted(PRESETS))}")
    parser.add_argument("--s", type=float, default=None, help="physical radius")
    parser.add_argument("--h", type=float, default=None, help="grid cell size")
    parser.add_argument("--tol", type=float, default=None, help="fixed-point tolerance")
    args = parser.parse_args(argv)
    # only the main thread may set a handler; the caller's is back on return
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminated) if main_thread else None
    try:
        return COMMANDS[args.command](build_config(args), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
    finally:
        if main_thread:  # None, a handler set outside Python, restores as the default
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)
    return 2


if __name__ == "__main__":
    sys.exit(main())
