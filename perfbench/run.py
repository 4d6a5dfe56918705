"""Benchmark of the `modelsets` command line, driven from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --baseline [--seed <n>]

Every command runs `modelsets.cli.main` from `src/` in a fresh interpreter
(`child.py`), one at a time: a closed loop with a single caller.  The program
receives only a config file generated from the seed and its command-line
flags; its outputs are then checked by `checks.py`, which does not import
the program.  A command that exits non-zero or fails a check is a failed
operation.

With `--trace 0` a run starts commands until `--seconds` have passed (the
workloads are longer than the default, so that is one command) and reports
the end-to-end metrics of BENCHMARK.json: medians of the command wall time
after import (`run_s`), of the time from a fresh interpreter to an imported
`modelsets.cli` (`setup_s`, from the command itself plus SETUP_PROBES
import-only interpreters), of peak resident memory, and the accuracy figure
the workload's command prints.  With `--trace 1` it runs one untraced and one
traced command and reports the per-layer metrics; their difference in wall
time is the tracing overhead.  `--baseline` prints the stage table of
ROADMAP.md from a traced run of every workload.

The last line of standard output is the JSON result; the full record, with
the environment, the config file and (traced) every span, goes to
`perfbench/_runs/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
SETUP_PROBES = 2
RUN_BUDGET_S = 170.0  # every run, traced or not, must end within 180 s
NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {var: str(NPROC) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
# value reported for an accuracy figure that the workload's command does not print
NOT_COMPUTED = 1.0
SOLVE_H = 0.00390625
SOLVE_NX = 871  # odd centered grid covering the tau-scaled pentagon at h = 1/256
POINTS_S = 56.0


def points_gamma(seed):
    """A generic displacement, so that no point sits on a window edge."""
    rng = random.Random(seed)
    return (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))


def _recorded_counts(seed):
    table = json.loads((HERE / "recorded_counts.json").read_text())
    return table.get(str(seed))


@dataclass(frozen=True)
class Workload:
    argv: tuple
    config: Callable[[int], str]
    check: Callable[[Path, int, int], list]


WORKLOADS = {
    "verify-ex2": Workload(
        argv=("verify", "--preset", "penrose-example2"),
        config=lambda seed: f"seed = {seed}\n",
        check=lambda out, rc, seed: checks.check_verify(out, rc)),
    "solve-ex1-h256": Workload(
        argv=("solve", "--preset", "penrose-example1", "--h", repr(SOLVE_H)),
        # 50 wavevectors instead of 25 make the worst-case Fourier deviation
        # vary less from seed to seed
        config=lambda seed: f"seed = {seed}\nk_count = 50\n",
        check=lambda out, rc, seed: checks.check_solve(out, rc, SOLVE_NX)),
    "points-s56": Workload(
        argv=("points", "--s", repr(POINTS_S)),
        config=lambda seed: "seed = {}\ngamma = {!r}, {!r}\n".format(seed, *points_gamma(seed)),
        check=lambda out, rc, seed: checks.check_points(
            out, rc, POINTS_S, points_gamma(seed), _recorded_counts(seed))),
}


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    top, commit = out.split()
    return commit if Path(top).resolve() == ROOT else None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "modelsets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC, "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "thread_caps": THREAD_CAPS, "seed": seed,
        "git_commit": _git_commit(), "source_sha256": digest.hexdigest(),
    }


@dataclass
class Command:
    """One finished child process."""

    record: dict | None  # what child.py wrote, None if it died first
    setup_s: float | None
    rc: int | None
    problems: list

    @property
    def failed(self):
        return bool(self.problems)


def run_child(mode, argv, workdir, deadline, run_id):
    """Start child.py, wait for it, and return its record and set-up time."""
    result = workdir / "child.json"
    result.unlink(missing_ok=True)
    env = {**os.environ, **THREAD_CAPS, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    with open(workdir / "command.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result), mode, run_id, *argv],
                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None, None, "timed out"
    if proc.returncode != 0 or not result.exists():
        return None, None, f"child exited with code {proc.returncode}"
    record = json.loads(result.read_text())
    return record, record["t_imported"] - spawned, None


def run_command(name, seed, mode, deadline, run_id):
    """Run the workload's command once in a clean output directory and check it."""
    work = WORKLOADS[name]
    workdir = RUNS / name
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / f"seed{seed}.cfg"
    config.write_text(work.config(seed))
    argv = [*work.argv, "--config", str(config), "--out", str(out)]
    record, setup_s, error = run_child(mode, argv, workdir, deadline, run_id)
    if error is not None:
        log = (workdir / "command.log").read_text(errors="replace")[-2000:]
        return Command(None, None, None, [error, log])
    rc = record["rc"]
    return Command(record, setup_s, rc, work.check(out, rc, seed))


def setup_probe(name, deadline, run_id):
    workdir = RUNS / name
    workdir.mkdir(parents=True, exist_ok=True)
    _, setup_s, error = run_child("probe", [], workdir, deadline, run_id)
    if error is not None:
        raise RuntimeError(f"import-only interpreter failed: {error}")
    return setup_s


def _accuracy(name, out):
    """(fourier_dev, id3_dev) as printed by the command, where it prints one."""
    fourier = id3 = NOT_COMPUTED
    try:
        if name == "solve-ex1-h256":
            fourier = checks.parse_summary(out)["fourier_max_rel_dev"][0]
        if name == "verify-ex2":
            id3 = float(checks.parse_report(out)["ID3.max_deviation"][0])
    except (OSError, KeyError, IndexError, ValueError):
        pass
    return fourier, id3


def measure(name, seed, seconds, run_id):
    """Untraced run: commands until `seconds` have passed, end-to-end metrics."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    setups = [setup_probe(name, deadline, run_id) for _ in range(SETUP_PROBES)]
    commands = []
    while not commands or time.monotonic() - start < seconds:
        commands.append(run_command(name, seed, "run", deadline, run_id))
        if commands[-1].record is None:
            break
    done = [c for c in commands if c.record is not None]
    setups += [c.setup_s for c in done]
    fourier, id3 = _accuracy(name, RUNS / name / "out")
    values = {
        "run_s": statistics.median(c.record["run_s"] for c in done) if done else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            c.record["peak_rss_kb"] / 1024 for c in done) if done else 0.0,
        "fourier_dev": fourier,
        "id3_dev": id3,
    }
    return commands, values, {"setup_samples_s": setups}


def _output_bytes(out):
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def measure_traced(name, seed, run_id):
    """Traced run: one plain command, then one with the wrappers installed."""
    from tracer import layer_metrics

    deadline = time.monotonic() + RUN_BUDGET_S
    plain = run_command(name, seed, "run", deadline, run_id)
    commands = [plain]
    if plain.record is not None:
        commands.append(run_command(name, seed, "trace", deadline, run_id))
    traced = commands[-1]
    if traced is plain or traced.record is None:
        return commands, {}, {}
    spans = traced.record["spans"]
    values = layer_metrics(spans, traced.record["counts"])
    values["cli.output_bytes"] = _output_bytes(RUNS / name / "out")
    values["trace.run_s"] = traced.record["run_s"]
    values["trace.overhead_s"] = traced.record["run_s"] - plain.record["run_s"]
    values["trace.spans"] = len(spans)
    extra = {"untraced_run_s": plain.record["run_s"], "spans": spans}
    return commands, values, extra


def run_workload(name, seed, seconds, trace):
    spec = benchmark_spec()
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}"
    if trace:
        commands, values, extra = measure_traced(name, seed, run_id)
    else:
        commands, values, extra = measure(name, seed, seconds, run_id)
    failed = sum(c.failed for c in commands)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in metric_specs}
    summary = {"correct": failed == 0 and len(values) > 0, "attempted": len(commands),
               "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "run_id": run_id,
        "argv": list(WORKLOADS[name].argv), "config": WORKLOADS[name].config(seed),
        "environment": environment(seed), "seconds": seconds, "trace": trace,
        "commands": [{"rc": c.rc, "setup_s": c.setup_s,
                      "run_s": c.record and c.record.get("run_s"),
                      **{key: c.record and c.record[key] for key in (
                          "peak_rss_kb", "cpu_s", "minor_faults", "involuntary_switches")},
                      "problems": c.problems} for c in commands],
        "summary": summary, **extra,
    }
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1))
    return summary


def baseline(seed):
    """ROADMAP stage rows at s = 40 / 56 and h = 1/128 / 1/256, from traced runs."""
    layers = {}
    for name in WORKLOADS:
        summary = run_workload(name, seed, 0, trace=True)
        if not summary["correct"]:
            raise SystemExit(f"{name} failed its checks; see {RUNS / 'results'}")
        layers[name] = {k: v["value"] for k, v in summary["metrics"].items()}
    v, s = layers["verify-ex2"], layers["solve-ex1-h256"]
    p = layers["points-s56"]

    def per_call(m, stage):
        return m[f"refine.{stage}.s"] / max(m[f"refine.{stage}.calls"], 1)

    rows = [
        "| stage | h = 1/128 (verify-ex2) | h = 1/256 (solve-ex1-h256) |",
        "| --- | --- | --- |",
        "| `build_kernel` (of which `rasterize`) | {:.2f} s ({:.2f} s) | {:.2f} s ({:.2f} s) |".format(
            v["refine.build_kernel.s"], v["polygeom.rasterize.s"],
            s["refine.build_kernel.s"], s["polygeom.rasterize.s"]),
        "| one `apply_refinement` | {:.3f} s | {:.3f} s |".format(
            per_call(v, "apply_refinement"), per_call(s, "apply_refinement")),
        "| `solve_fixed_point` | {:.2f} s ({:.0f} it) | {:.2f} s ({:.0f} it) |".format(
            v["refine.solve_fixed_point.s"], v["refine.solve_fixed_point.iterations"],
            s["refine.solve_fixed_point.s"], s["refine.solve_fixed_point.iterations"]),
        "| `compare_solvers` | {:.2f} s ({:.0f} products) | {:.2f} s ({:.0f} products) |".format(
            v["refine.compare_solvers.s"], v["refine.fourier_product.calls"],
            s["refine.compare_solvers.s"], s["refine.fourier_product.calls"]),
        "",
        "| stage | s = 40 (verify-ex2) | s = 56 (points-s56) |",
        "| --- | --- | --- |",
        "| `generate_all` | {:.2f} s ({:.0f} pts) | {:.2f} s ({:.0f} pts) |".format(
            v["scheme.generate_all.s"], v["scheme.generate_all.points"],
            p["scheme.generate_all.s"], p["scheme.generate_all.points"]),
        "| `translation_sets` | {:.2f} s ({:.0f} pts) | — |".format(
            v["scheme.translation_sets.s"], v["scheme.translation_sets.points"]),
        "| `check_selfsim_closure` | {:.2f} s ({:.0f} checked) | — |".format(
            v["scheme.check_selfsim_closure.s"], v["scheme.check_selfsim_closure.checked"]),
        "| `points_csv_text` | — | {:.2f} s |".format(p["scheme.points_csv_text.s"]),
        "",
        "End to end, untraced (traced): verify-ex2 {:.1f} s ({:.1f} s), solve-ex1-h256 "
        "{:.1f} s ({:.1f} s), points-s56 {:.1f} s ({:.1f} s).".format(
            v["trace.run_s"] - v["trace.overhead_s"], v["trace.run_s"],
            s["trace.run_s"] - s["trace.overhead_s"], s["trace.run_s"],
            p["trace.run_s"] - p["trace.overhead_s"], p["trace.run_s"]),
    ]
    env = environment(seed)
    rows.append("Environment: {nproc} cores ({cpu_model}), Python {python}, numpy {numpy}, "
                "scipy {scipy}, seed {seed}, commit {git_commit}.".format(**env))
    table = "\n".join(rows) + "\n"
    (RUNS / "baseline.md").write_text(table)
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true",
                        help="print the ROADMAP stage table from traced runs")
    args = parser.parse_args()
    if not (ROOT / "src" / "modelsets" / "cli.py").is_file():
        print(f"no modelsets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.baseline:
        print(baseline(args.seed), end="")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
