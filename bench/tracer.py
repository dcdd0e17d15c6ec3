"""Timing shims for the traced benchmark run.

`install` replaces the public callables that the per-layer metrics name
with shims.  Each call records one span (name, start, end, parent span)
in flat arrays that stay in memory; `write_spans` saves them when the
pass is over and `layer_metrics` turns them into per-layer numbers.  A
span's self time is its duration minus the durations of its child spans.

Module-level functions are also bound by name in other modules (`cli`
imports `dump_family`, `load_family` and `run_trace`; `verify` and
`schedules` import `sum_functions`), so every binding of the original
object in every loaded `sumrange` module is replaced.  Methods are
patched once, on their class.

Shims cost a few microseconds per call, which distorts the layers they
wrap; end-to-end numbers therefore come from untraced passes only.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

# Span name -> the metric stats reported for it.
_CALL_STATS = ("calls", "self_s")
SPAN_STATS = {
    "stepfn.StepFunction": ("calls", "self_s", "p50_us", "p99_us"),
    "stepfn.multiply": _CALL_STATS,
    "stepfn.moment": _CALL_STATS,
    "stepfn.add": _CALL_STATS,
    "stepfn.restrict": _CALL_STATS,
    "stepfn.sum_functions": _CALL_STATS,
    "stepfn.ChunkedSum.total": _CALL_STATS,
    "families.fn": _CALL_STATS,
    "verify.verify_family": ("total_s", "self_s"),
    "schedules.run_trace": ("total_s", "self_s"),
    "analysis.cross_variable": ("total_s",),
    "analysis.fiber": ("total_s",),
    "analysis.near_constancy": ("total_s",),
    "analysis.drift": ("total_s",),
    "analysis.fiber_best_approximation": _CALL_STATS,
    "serialize.dump_family": ("total_s", "self_s"),
    "serialize.load_family": ("total_s", "self_s"),
    "cli.main": ("total_s", "self_s"),
}

# Counters the shims keep beside the spans.
COUNTERS = (
    "stepfn.StepFunction.boxes_in",
    "stepfn.StepFunction.boxes_out",
    "families.fn.distinct",
    "verify.checks_run",
    "verify.checks_failed",
    "schedules.rows",
    "schedules.box_count_peak",
    "analysis.cases",
    "serialize.dump_family.bytes",
    "serialize.load_family.bytes",
)


def metric_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def timed(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(result, *args)` runs outside the span."""
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        return shim


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "sumrange" or name.startswith("sumrange.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Put shims on every callable named in SPAN_STATS."""
    from sumrange import analysis, cli, families, schedules, serialize, stepfn, verify

    sf = stepfn.StepFunction
    timed_init = tracer.timed("stepfn.StepFunction", sf.__init__)

    def counted_init(self, domain, terms=()):
        terms = terms if isinstance(terms, (list, tuple)) else list(terms)
        tracer.count("stepfn.StepFunction.boxes_in", len(terms))
        timed_init(self, domain, terms)
        tracer.count("stepfn.StepFunction.boxes_out", len(self.terms))

    sf.__init__ = counted_init
    for method in ("multiply", "moment", "add", "restrict"):
        setattr(sf, method, tracer.timed(f"stepfn.{method}", getattr(sf, method)))
    stepfn.ChunkedSum.total = tracer.timed("stepfn.ChunkedSum.total", stepfn.ChunkedSum.total)
    _rebind(stepfn.sum_functions,
            tracer.timed("stepfn.sum_functions", stepfn.sum_functions))

    distinct: set = set()

    def seen_term(result, fam, tid):
        key = (id(fam), tid)
        if key not in distinct:
            distinct.add(key)
            tracer.count("families.fn.distinct", 1)

    families.Family.fn = tracer.timed("families.fn", families.Family.fn, seen_term)

    def checks(report, *args):
        total, failed = report.counts()
        tracer.count("verify.checks_run", total)
        tracer.count("verify.checks_failed", failed)

    _rebind(verify.verify_family,
            tracer.timed("verify.verify_family", verify.verify_family, checks))

    def rows(trace, *args):
        tracer.count("schedules.rows", len(trace.rows))
        tracer.peak("schedules.box_count_peak", trace.max_box_count())

    _rebind(schedules.run_trace, tracer.timed("schedules.run_trace", schedules.run_trace, rows))

    def cases(report, *args):
        tracer.count("analysis.cases", len(report.cases))

    for suite, name in (("run_cross_variable_suite", "cross_variable"),
                        ("run_fiber_suite", "fiber"),
                        ("run_near_constancy_battery", "near_constancy"),
                        ("run_drift_battery", "drift")):
        original = getattr(analysis, suite)
        _rebind(original, tracer.timed(f"analysis.{name}", original, cases))
    _rebind(analysis.fiber_best_approximation,
            tracer.timed("analysis.fiber_best_approximation", analysis.fiber_best_approximation))

    for func in ("dump_family", "load_family"):
        def size(result, *args, key=f"serialize.{func}.bytes"):
            tracer.count(key, os.path.getsize(args[-1]))

        original = getattr(serialize, func)
        _rebind(original, tracer.timed(f"serialize.{func}", original, size))
    _rebind(cli.main, tracer.timed("cli.main", cli.main))


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass lasting `traced_wall` seconds
    (every metric except trace.overhead_ratio, which needs an untraced pass)."""
    n = len(tracer.starts)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child = [0.0] * n
    rooted = 0.0
    for i, parent in enumerate(tracer.parents):
        if parent < 0:
            rooted += durations[i]
        else:
            child[parent] += durations[i]
    totals: dict[str, list] = {name: [0, 0.0, 0.0, []] for name in SPAN_STATS}
    for i in range(n):
        name = tracer.names[tracer.name_ids[i]]
        entry = totals[name]
        entry[0] += 1
        entry[1] += durations[i]
        entry[2] += durations[i] - child[i]
        if name == "stepfn.StepFunction":
            entry[3].append(durations[i])
    out: dict[str, float] = {}
    for name, stats in SPAN_STATS.items():
        calls, total, self_s, per_call = totals[name]
        per_call.sort()
        values = {"calls": calls, "total_s": total, "self_s": self_s,
                  "p50_us": _percentile(per_call, 0.50) * 1e6,
                  "p99_us": _percentile(per_call, 0.99) * 1e6}
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    out.update(tracer.counts)
    fn_calls = totals["families.fn"][0]
    out["families.fn.reuse_ratio"] = (
        tracer.counts["families.fn.distinct"] / fn_calls if fn_calls else 0.0)
    out["trace.unattributed_s"] = traced_wall - rooted
    return out


def write_spans(tracer: Tracer, path: str, pass_id: str) -> None:
    """One tab-separated line per span: pass, span id, parent id, name,
    start and end in seconds on the pass's performance clock."""
    with open(path, "w") as out:
        out.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
        for i in range(len(tracer.starts)):
            out.write(f"{pass_id}\t{i}\t{tracer.parents[i]}\t"
                      f"{tracer.names[tracer.name_ids[i]]}\t"
                      f"{tracer.starts[i]!r}\t{tracer.ends[i]!r}\n")
