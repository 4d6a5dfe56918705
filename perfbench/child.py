"""One `modelsets` command in a fresh interpreter, timed from inside.

    python3 perfbench/child.py <result.json> <probe|run|trace> <run id> [cli args...]

`probe` only imports `modelsets.cli`; `run` also calls `modelsets.cli.main`
with the given arguments; `trace` does the same with the wrappers of
`tracer.py` installed.  The result file records the monotonic clock right
after the import (the parent subtracts its spawn time to get set-up time),
the wall time of `main`, its return code and the peak resident memory.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import modelsets.cli as cli  # noqa: E402

t_imported = time.monotonic()


def main():
    result_path, mode, run_id, *argv = sys.argv[1:]
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "modelsets":
        raise SystemExit(f"modelsets imported from {cli.__file__}, not from {ROOT / 'src'}")
    record = {"t_imported": t_imported, "pid": os.getpid()}
    if mode != "probe":
        tracer = None
        if mode == "trace":
            from tracer import Tracer, install
            tracer = Tracer(run_id)
            install(tracer)
        start = time.perf_counter()
        rc = cli.main(argv)
        record["run_s"] = time.perf_counter() - start
        record["rc"] = rc
        if tracer is not None:
            record["spans"] = tracer.span_dicts()
            record["counts"] = dict(tracer.counts)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record.update(peak_rss_kb=usage.ru_maxrss, cpu_s=usage.ru_utime + usage.ru_stime,
                  minor_faults=usage.ru_minflt, involuntary_switches=usage.ru_nivcsw)
    Path(result_path).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
