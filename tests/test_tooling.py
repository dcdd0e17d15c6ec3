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
from sumrange.families import build_kadets, build_multipoint
from sumrange.schedules import random_schedule, run_trace, schedule_point
from sumrange.verify import verify_family

tracer = Tracer()
install(tracer)
fam = build_kadets(3)
run_trace(fam, random_schedule(fam, 1), record="steps")
run_trace(fam, schedule_point(fam, 1), record="blocks")
assert verify_family(fam).ok
metrics = layer_metrics(tracer, 0.0)
for span in ("stepfn.add", "stepfn.ChunkedSum.total", "stepfn.moment", "families.fn"):
    print("span", span, metrics[span + ".calls"])

# a blocks trace alone: the calls it adds to the two spans
fam = build_multipoint(4, 1)
sch = schedule_point(fam, 0)
run_trace(fam, sch, record="blocks")
after = layer_metrics(tracer, 0.0)
for span in ("stepfn.restrict", "families.fn"):
    print("blocks", span, after[span + ".calls"] - metrics[span + ".calls"])
print("blocks cubes*blocks", len(fam.domain) * sum(1 for _ in sch.blocks()))
print("blocks terms", sch.term_count)

# a clean multipoint(4, 1) written, loaded and verified: the calls each step adds
import os, tempfile
from sumrange.serialize import dump_family, load_family
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "m.family")
    dump_family(fam, path)
    before = layer_metrics(tracer, 0.0)
    loaded = load_family(path)
after_load = layer_metrics(tracer, 0.0)
assert verify_family(loaded).ok
after_verify = layer_metrics(tracer, 0.0)
print("load stepfn.StepFunction",
      after_load["stepfn.StepFunction.calls"] - before["stepfn.StepFunction.calls"])
print("verify stepfn.multiply",
      after_verify["stepfn.multiply.calls"] - after_load["stepfn.multiply.calls"])
print("verify families.fn", after_verify["families.fn.calls"] - after_load["families.fn.calls"])

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
                          "families.fn"}
    for span, count in calls.items():
        assert count >= 1, span


def test_blocks_trace_builds_each_term_once_and_slices_per_block(traced_run):
    # blocks mode sums whole terms: no one-cube copy of each term, and
    # each term built exactly once
    got = traced_run["blocks"]
    assert got["stepfn.restrict"] <= got["cubes*blocks"]
    assert got["families.fn"] == got["terms"]


def test_loaded_family_verifies_without_fractions_per_term(traced_run):
    # loading parses straight onto the lattice, and the product-structure
    # check compares one-box parts without multiplying
    assert traced_run["load"] == {"stepfn.StepFunction": 0}
    assert traced_run["verify"]["stepfn.multiply"] == 0
    assert traced_run["verify"]["families.fn"] > 0


def test_lemma_suites_run_inside_their_spans(traced_run):
    # the command line looks a suite's runner up when it runs, so the shim
    # that replaced the module attribute times it
    assert traced_run["lemmas"] == {"analysis.cases": 22, "near_constancy.timed": 1}
