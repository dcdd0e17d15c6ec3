"""The benchmark's timing shims must still find every callable they patch.

`bench/tracer.py` replaces public callables of `sumrange` by name; a
change that removes or renames one of them would otherwise only show up
as a crash of the traced benchmark run.  The work they time must also
stay inside them, so a small traced run has to record every kernel span.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_with_tracer(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs_on_current_package():
    done = _run_with_tracer("from tracer import Tracer, install; install(Tracer())")
    assert done.returncode == 0, done.stderr


_TRACED_RUN = """
from tracer import Tracer, install, layer_metrics
from sumrange.families import build_kadets, build_multipoint, build_three_kadets
from sumrange.schedules import random_schedule, run_trace, schedule_point
from sumrange.verify import verify_family

# the tracer times Family.fn, not sections: count what sections yield here
from sumrange.families import Family
yields = []
section = Family.section

def counted_section(self, g, n, prefix=()):
    for index, f in section(self, g, n, prefix):
        yields.append((id(self), g, n, index))
        yield index, f

Family.section = counted_section

def built(group, since, since_yields):
    # terms built since a point: fn calls, section yields, distinct yields
    now = layer_metrics(tracer, 0.0)
    print(group, "families.fn", now["families.fn.calls"] - since["families.fn.calls"])
    print(group, "section", len(yields) - since_yields)
    print(group, "section distinct", len(set(yields[since_yields:])))

tracer = Tracer()
install(tracer)
fam = build_kadets(3)
run_trace(fam, random_schedule(fam, 1), record="steps")
run_trace(fam, schedule_point(fam, 1), record="blocks")
assert verify_family(fam).ok
metrics = layer_metrics(tracer, 0.0)
for span in ("stepfn.add", "stepfn.ChunkedSum.total", "stepfn.moment"):
    print("span", span, metrics[span + ".calls"])
print("span", "families.fn+section", metrics["families.fn.calls"] + len(yields))

# a blocks trace alone: the calls it adds to the two spans
fam = build_multipoint(4, 1)
sch = schedule_point(fam, 0)
since_yields = len(yields)
run_trace(fam, sch, record="blocks")
after = layer_metrics(tracer, 0.0)
print("blocks", "stepfn.restrict", after["stepfn.restrict.calls"] - metrics["stepfn.restrict.calls"])
built("blocks", metrics, since_yields)
print("blocks cubes*blocks", len(fam.domain) * sum(1 for _ in sch.blocks()))
print("blocks terms", sch.term_count)

# from here on, count the Intervals built: the constructor's input type,
# which a traced function must not build again from its entries
import sumrange.stepfn as stepfn
intervals = []

class CountedInterval(stepfn.Interval):
    __slots__ = ()

    def __new__(cls, lo, hi):
        intervals.append(1)
        return super().__new__(cls, lo, hi)

stepfn.Interval = CountedInterval

# a clean multipoint(4, 1) written, loaded and verified: the calls each step adds
import os, tempfile
from sumrange.serialize import dump_family, load_family
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "m.family")
    dump_family(fam, path)
    before = layer_metrics(tracer, 0.0)
    since_intervals = len(intervals)
    loaded = load_family(path)
after_load = layer_metrics(tracer, 0.0)
after_load_intervals = len(intervals)
since_yields = len(yields)
assert verify_family(loaded).ok
after_verify = layer_metrics(tracer, 0.0)
print("load stepfn.StepFunction",
      after_load["stepfn.StepFunction.calls"] - before["stepfn.StepFunction.calls"])
print("load intervals", after_load_intervals - since_intervals)
print("verify intervals", len(intervals) - after_load_intervals)
print("verify stepfn.multiply",
      after_verify["stepfn.multiply.calls"] - after_load["stepfn.multiply.calls"])
print("verify stepfn.restrict",
      after_verify["stepfn.restrict.calls"] - after_load["stepfn.restrict.calls"])
built("verify", after_load, since_yields)
print("verify terms", loaded.term_count())

# a function built through the traced constructor from boxes made
# beforehand, then counted, measured, evaluated and hashed
from fractions import Fraction
boxes = [(stepfn.Box(1, stepfn.make_bounds({1: (0, "1/2"), 2: ("1/3", 1)})), 2),
         (stepfn.Box(1, stepfn.make_bounds({1: ("1/4", 1)})), -1)]
since_intervals = len(intervals)
f = stepfn.StepFunction((1,), boxes)
assert f.box_count() == 4 and f.moment(1) == Fraction(13, 12)
assert f.evaluate(1, {1: Fraction(1, 3), 2: Fraction(1, 2)}) == 1
hash(f)
print("built intervals", len(intervals) - since_intervals)

# steps traces on one cube and on three: the moments each one computes
for fam in (build_kadets(3), build_three_kadets(3)):
    sch = random_schedule(fam, 2)
    before = layer_metrics(tracer, 0.0)
    run_trace(fam, sch, record="steps")
    after = layer_metrics(tracer, 0.0)
    name = f"{fam.structure}-{len(fam.domain)}"
    print("steps", name, after["stepfn.moment.calls"] - before["stepfn.moment.calls"])
    print("steps", name + "-touched", len(fam.domain) + sum(
        len(fam.fn(tid).support_cubes()) for tid in sch.term_ids()))
    print("steps", name + "-rows", sch.term_count * len(fam.domain))

# a lemma suite run through the command line, which picks the runner by name
import contextlib, io
from sumrange import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["lemmas", "--suite", "near-constancy"]) == 0
after_lemmas = layer_metrics(tracer, 0.0)
print("lemmas analysis.cases", after_lemmas["analysis.cases"])
print("lemmas near_constancy.timed", int(after_lemmas["analysis.near_constancy.total_s"] > 0))
"""


@pytest.fixture(scope="module")
def traced_run() -> dict[str, dict[str, int]]:
    done = _run_with_tracer(_TRACED_RUN)
    assert done.returncode == 0, done.stderr
    out: dict[str, dict[str, int]] = {}
    for line in done.stdout.splitlines():
        group, rest = line.split(" ", 1)
        key, count = rest.rsplit(" ", 1)
        out.setdefault(group, {})[key] = int(count)
    return out


def test_traced_run_records_the_kernel_spans(traced_run):
    # the kernel's work must stay inside the callables the shims wrap, or
    # the traced benchmark run could not say where the time went
    calls = traced_run["span"]
    assert set(calls) == {"stepfn.add", "stepfn.ChunkedSum.total", "stepfn.moment",
                          "families.fn+section"}
    for span, count in calls.items():
        assert count >= 1, span


def test_blocks_trace_builds_each_term_once_and_slices_per_block(traced_run):
    # blocks mode sums whole terms: no one-cube copy of each term, and
    # each term built exactly once, by the sections of the block's runs
    got = traced_run["blocks"]
    assert got["stepfn.restrict"] <= got["cubes*blocks"]
    assert got["families.fn"] == 0
    assert got["section"] == got["section distinct"] == got["terms"]


def test_loaded_family_verifies_without_fractions_per_term(traced_run):
    # loading parses straight onto the lattice, the product-structure check
    # compares one-box parts without multiplying, and the verifier fetches
    # each term once and splits it by cube without one-cube copies
    assert traced_run["load"] == {"stepfn.StepFunction": 0, "intervals": 0}
    verify = traced_run["verify"]
    assert verify["stepfn.multiply"] == 0
    assert verify["stepfn.restrict"] == 0
    assert verify["families.fn"] == 0
    assert verify["section"] == verify["section distinct"] == verify["terms"]
    assert verify["intervals"] == 0


def test_traced_functions_build_no_fraction_view(traced_run):
    # a function holds only its lattice entries: the tracer's box count,
    # measurements, evaluation and hashing build no `Interval` from them
    assert traced_run["built"] == {"intervals": 0}


def test_steps_trace_measures_only_touched_cubes(traced_run):
    # a row re-measures the cubes its term touches and carries the other
    # cubes over, so the moments are one per cube to start with plus one
    # per cube of each term, fewer than one per cube and row
    got = traced_run["steps"]
    for name in ("kadets-1", "three-kadets-3"):
        assert got[name] == got[name + "-touched"]
    assert got["three-kadets-3"] < got["three-kadets-3-rows"]


def test_lemma_suites_run_inside_their_spans(traced_run):
    # the command line looks a suite's runner up when it runs, so the shim
    # that replaced the module attribute times it
    assert traced_run["lemmas"] == {"analysis.cases": 22, "near_constancy.timed": 1}
