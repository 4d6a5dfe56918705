"""Spans and counters recorded around the program's functions, from outside.

`install` replaces each traced function on the module that its caller looks
it up in (`cli` calls `scheme.generate_all`, so the wrapper goes on
`modelsets.scheme`; `refine.build_kernel` calls `rasterize` from its own
namespace, so that wrapper goes on `modelsets.refine`).  A timed wrapper
records a span (id, name, parent id, start, end) and adds the counts that
`measure` derives from the call's result; a counted wrapper only bumps a
counter, for functions called once per element.  Everything stays in
memory until the caller writes it out.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [id, name, parent id or None, start, end]
        self.counts = Counter()
        self._stack = []

    def timed(self, owner, attr, name, measure=None):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            record = [len(self.spans), name, self._stack[-1] if self._stack else None,
                      time.perf_counter(), None]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if measure is not None:
                for key, value in measure(result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        setattr(owner, attr, wrapper)

    def counted(self, owner, attr, key):
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def span_dicts(self):
        return [{"id": sid, "name": name, "parent": parent, "start": start,
                 "end": end, "run_id": self.run_id}
                for sid, name, parent, start, end in self.spans]


def install(tracer):
    """Wrap every layer boundary the benchmark reports on."""
    from modelsets import cli, cyclotomic, pfsolve, refine, scheme, verify

    t = tracer
    t.timed(cli, "main", "cli.main")
    t.timed(cli, "build_config", "cli.build_config")
    t.timed(scheme, "transition_windows", "scheme.transition_windows")
    t.timed(scheme, "build_nu", "scheme.build_nu")
    t.timed(scheme, "generate_all", "scheme.generate_all",
            lambda pts: {"points": sum(len(c) for c in pts)})
    t.timed(scheme, "translation_sets", "scheme.translation_sets",
            lambda ts: {"points": sum(len(v) for row in ts for v in row)})
    t.timed(scheme, "check_selfsim_closure", "scheme.check_selfsim_closure",
            lambda rep: {"checked": rep.checked})
    t.timed(scheme, "points_csv_text", "scheme.points_csv_text",
            lambda text: {"bytes": len(text.encode())})
    t.timed(scheme, "erode", "polygeom.erode")
    t.timed(refine, "rasterize", "polygeom.rasterize")
    for owner in (scheme, verify):
        t.timed(owner, "contains_many", "polygeom.contains_many",
                lambda inside: {"points": len(inside)})
    t.counted(scheme, "contains", "polygeom.contains.calls")
    t.timed(pfsolve, "pf_eigen", "pfsolve.pf_eigen")
    t.timed(refine, "build_kernel", "refine.build_kernel", _kernel_counts)
    t.timed(refine, "apply_refinement", "refine.apply_refinement")
    t.timed(refine, "solve_fixed_point", "refine.solve_fixed_point",
            lambda res: {"iterations": res.iterations})
    for name in ("compare_solvers", "grid_ft", "fourier_product",
                 "write_density_grid", "write_density_csv"):
        t.timed(refine, name, f"refine.{name}")
    t.counted(refine, "polygon_ft", "refine.polygon_ft.calls")
    t.timed(verify, "check_id2", "verify.check_id2", lambda rep: {"samples": rep.samples})
    for name in ("id3_values", "weyl_test", "density_estimate"):
        t.timed(verify, name, f"verify.{name}")
    t.counted(verify, "sample_density", "verify.sample_density.calls")
    t.counted(cyclotomic.CycInt, "__init__", "cyclotomic.CycInt.created")


def _kernel_counts(kernel):
    blocks = [b for row in kernel.blocks for b in row if b is not None]
    return {"blocks": len(blocks), "block_cells": sum(b.arr.size for b in blocks),
            "grid_cells": kernel.grid.nx * kernel.grid.ny}


def layer_metrics(spans, counts):
    """Per-function and per-module times plus the recorded counts.

    `<function>.s` sums a function's spans; `<module>.self_s` sums, over the
    module's spans, each span's duration minus the durations of its direct
    children, so nested calls into other modules are charged to those.
    """
    total = defaultdict(float)
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_by_name = defaultdict(float)
    for span in spans:
        duration = span["end"] - span["start"]
        total[span["name"] + ".s"] += duration
        self_by_name[span["name"]] += duration - child_time[span["id"]]
    out = dict(total)
    for name, value in self_by_name.items():
        module = name.split(".")[0]
        out[module + ".self_s"] = out.get(module + ".self_s", 0.0) + value
    out["cli.main.self_s"] = self_by_name.get("cli.main", 0.0)
    out.update(counts)
    return out
