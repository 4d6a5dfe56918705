"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py [--seed <n>]

Runs each workload's command once and requires its outputs to pass.  Then it
corrupts one output file at a time (restoring it afterwards) and requires
each corruption to make the command count as a failed operation.  Exits 0
only if every genuine output passes and every corruption is caught.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

import run


def _flip_line(name):
    return lambda text: re.sub(rf"^({re.escape(name)} .*) PASS$", r"\1 FAIL", text,
                               count=1, flags=re.M)


def _drop_line(prefix):
    return lambda text: re.sub(rf"^{re.escape(prefix)}.*\n", "", text, count=1, flags=re.M)


def _edit_row(index, edit):
    """Replace one CSV line by the list of lines `edit` returns for it."""
    def apply(text):
        lines = text.split("\n")
        lines[index:index + 1] = edit(lines[index])
        return "\n".join(lines)
    return apply


def _bump_m0(row):
    fields = row.split(",")
    fields[1] = str(int(fields[1]) + 5)  # keeps the coefficient sum mod 5
    return ",".join(fields)


def _nudge_int_re(row):
    fields = row.split(",")
    fields[7] = repr(float(fields[7]) + 1e-6)
    return ",".join(fields)


# workload -> (description, output file or None for the exit code, corruption)
CORRUPTIONS = {
    "verify-ex2": [
        ("exit code 1", None, 1),
        ("ID2 line flipped to FAIL", "report.txt", _flip_line("ID2.mean_residual")),
        ("CLOSURE line dropped", "report.txt", _drop_line("CLOSURE.")),
        ("ID3 bound loosened to 0.5", "report.txt",
         lambda t: re.sub(r"^(ID3\S* \S+) <= 0.05", r"\1 <= 0.5", t, flags=re.M)),
    ],
    "solve-ex1-h256": [
        ("density_ch2.txt with nx 870", "density_ch2.txt",
         lambda t: t.replace(f"# nx {run.SOLVE_NX} ", "# nx 870 ", 1)),
        ("density.csv missing its last row", "density.csv",
         lambda t: t[:t.rstrip("\n").rfind("\n") + 1]),
        ("channel 1 mass not collapsed", "summary.txt",
         lambda t: re.sub(r"^masses = 0 ", "masses = 1e-09 ", t, flags=re.M)),
    ],
    "points-s56": [
        ("one row dropped", "points.csv", _edit_row(100, lambda row: [])),
        ("one row with m0 + 5", "points.csv", _edit_row(200, lambda row: [_bump_m0(row)])),
        ("one internal coordinate off by 1e-6", "points.csv", _edit_row(300, lambda row: [_nudge_int_re(row)])),
        ("one row duplicated", "points.csv", _edit_row(400, lambda row: [row, row])),
    ],
}


def _check(name, seed, rc):
    """The command as the benchmark would count it, given its current outputs."""
    out = run.RUNS / name / "out"
    return run.Command(None, None, rc, run.WORKLOADS[name].check(out, rc, seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for name, corruptions in CORRUPTIONS.items():
        genuine = run.run_command(name, args.seed, "run", time.monotonic() + run.RUN_BUDGET_S,
                                  f"selftest-{name}")
        print(f"{name}: genuine outputs {'FAIL ' + str(genuine.problems) if genuine.failed else 'pass'}")
        ok &= not genuine.failed
        for label, filename, corrupt in corruptions:
            if filename is None:
                command = _check(name, args.seed, corrupt)
            else:
                path = run.RUNS / name / "out" / filename
                original = path.read_text()
                corrupted = corrupt(original)
                if corrupted == original:
                    raise SystemExit(f"{name}: corruption '{label}' changed nothing")
                path.write_text(corrupted)
                try:
                    command = _check(name, args.seed, genuine.rc)
                finally:
                    path.write_text(original)
            verdict = ("counted as failed: " + "; ".join(command.problems)
                       if command.failed else "NOT CAUGHT")
            print(f"  {label}: {verdict}")
            ok &= command.failed
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
