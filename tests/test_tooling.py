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
from sumrange.families import build_kadets
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
    print(span, metrics[span + ".calls"])
"""


def test_traced_run_records_the_kernel_spans():
    # the kernel's work must stay inside the callables the shims wrap, or
    # the traced benchmark run could not say where the time went
    done = _run_with_tracer(_TRACED_RUN)
    assert done.returncode == 0, done.stderr
    calls = dict(line.rsplit(" ", 1) for line in done.stdout.splitlines())
    assert set(calls) == {"stepfn.add", "stepfn.ChunkedSum.total", "stepfn.moment",
                          "families.fn"}
    for span, count in calls.items():
        assert int(count) >= 1, span
