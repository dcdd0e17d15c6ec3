"""One pass of one benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py WORKLOAD SEED MODE

A workload runs its parts one after the other: `cli` is the build-verify
and lemmas parts, `traces` the trace-blocks and trace-steps parts (see
README.md).

MODE is `setup` (set up, then exit), `pass` (set up, then time one pass
and check its outputs) or `traced` (the same with timing shims installed).
The worker prints `ready` once set-up is over and, unless MODE is
`setup`, one JSON line with the pass result.  Set-up covers everything a
pass needs before its timer starts: interpreter start, imports, input
generation and the input guard.  The timed pass is the first call of its
work in the process, so it includes the cold-start costs a user of the
command line pays on every command.

Outputs are checked after the timer stops: exact semantic checks, plus
sha256 digests compared with those in `digests.json`, which were taken
from the program as it stood when the benchmark was defined.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

from sumrange import cli, schedules
from sumrange.families import build_kadets, build_multipoint, build_three_kadets

from tracer import Tracer, install, layer_metrics, write_spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# Random orders per trace-steps pass.  One order's cost varies by about
# a fifth between seeds; timing several keeps runs on different seeds
# comparable.
ORDERS = 8
LEMMA_CASES = 1024
VERIFY_CHECKS = 130


class Checks:
    """Correctness checks of one pass: exact facts and pinned digests.
    Digests are named within the part being checked, `part`."""

    def __init__(self, pinned: dict[str, dict[str, str]]):
        self.pinned = pinned
        self.part = ""
        self.attempted = 0
        self.failed: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.unpinned: list[str] = []

    def fact(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(f"{self.part}: {name}")

    def digest(self, name: str, data: bytes) -> None:
        got = hashlib.sha256(data).hexdigest()
        self.digests.setdefault(self.part, {})[name] = got
        pinned = self.pinned.get(self.part, {})
        if name in pinned:
            self.fact(f"digest of {name}", got == pinned[name])
        else:
            self.unpinned.append(f"{self.part}/{name}")


def guard(what: str, got, want) -> None:
    """Refuse to time an input that is not the pinned one."""
    if got != want:
        raise SystemExit(f"input guard: {what} is {got}, expected {want}")


def trace_bytes(trace) -> bytes:
    return "".join(line + "\n" for line in trace.to_csv_lines()).encode()


def is_zero(values) -> bool:
    return all(type(v) is Fraction and v == 0 for v in values)


def capture(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# Each part sets up from the seed and returns (items, run, check): `run`
# does the timed work and `check(result, checks)` inspects it.


def build_verify(seed: int):
    family, report = "family.json", "report.csv"
    guard("multipoint(4, 2) term count", build_multipoint(4, 2).term_count(), 18_239)

    def run():
        built = capture(["build", "--flavor", "multipoint", "--r", "4", "--levels", "2",
                         "--out", family])
        verified = capture(["verify", "--family", family, "--out", report])
        return built, verified

    def check(result, ck: Checks) -> None:
        (build_code, build_out), (verify_code, verify_out) = result
        ck.fact("build exits 0", build_code == 0)
        ck.fact("verify exits 0", verify_code == 0)
        ck.fact("verify report is OK with no failures",
                f"\nOK: {VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed\n" in verify_out)
        ck.digest("family", Path(family).read_bytes())
        ck.digest("report_csv", Path(report).read_bytes())
        ck.digest("stdout", (build_out + verify_out).encode())

    return VERIFY_CHECKS, run, check


def trace_blocks(seed: int):
    fam = build_multipoint(4, 3)
    points = [schedules.schedule_point(fam, i) for i in range(4)]
    guard("multipoint(4, 3) term count", fam.term_count(), 162_494)
    guard("point schedule term counts", [s.term_count for s in points],
          [162_494, 18_242, 890, 26])

    def run():
        return [schedules.run_trace(fam, s, record="blocks") for s in points]

    def check(traces, ck: Checks) -> None:
        for s, trace in zip(points, traces):
            ck.fact(f"{s.label} final deviation is exactly 0", is_zero(trace.final_deviations))
            ck.digest(s.label, trace_bytes(trace))

    return sum(s.term_count for s in points), run, check


def trace_steps(seed: int):
    kadets = build_kadets(5)
    guard("kadets(5) term count", kadets.term_count(), 85)
    divergent = schedules.schedule_divergent(build_three_kadets(8))
    guard("divergent schedule term count", divergent.term_count, 8_844)
    orders = {f"random-{s}": schedules.random_schedule(kadets, s)
              for s in range(seed * ORDERS, (seed + 1) * ORDERS)}
    runs = {**orders, "divergent": divergent}

    def run():
        return [schedules.run_trace(s.family, s, record="steps") for s in runs.values()]

    def check(traces, ck: Checks) -> None:
        for (name, s), trace in zip(runs.items(), traces):
            ck.fact(f"{name} has one row per term", len(trace.rows) == s.term_count)
            if name in orders:
                # the whole truncation sums to zero, whatever the order
                ck.fact(f"{name} final deviation is exactly 0", is_zero(trace.final_deviations))
            ck.digest(name, trace_bytes(trace))

    return sum(s.term_count for s in runs.values()), run, check


def lemmas(seed: int):
    cases = "cases.csv"

    def run():
        return capture(["lemmas", "--suite", "all", "--cases", "500", "--seed", str(seed),
                        "--jobs", "1", "--out", cases])

    def check(result, ck: Checks) -> None:
        code, out = result
        ck.fact("lemmas exits 0", code == 0)
        ck.fact("stdout reports every case OK",
                out.endswith(f"OK: {LEMMA_CASES} cases across 4 suites\n"))
        data = Path(cases).read_bytes()
        ck.fact("one CSV row per case", data.count(b"\n") == LEMMA_CASES + 1)
        ck.digest(f"seed-{seed}", data)

    return LEMMA_CASES, run, check


PARTS = {
    "build-verify": build_verify,
    "lemmas": lemmas,
    "trace-blocks": trace_blocks,
    "trace-steps": trace_steps,
}
WORKLOADS = {
    "cli": ("build-verify", "lemmas"),
    "traces": ("trace-blocks", "trace-steps"),
}


def set_up(workload: str, seed: int):
    """The workload's parts, set up, as one (items, run, check); `run`
    also returns the seconds each part took, 0 for parts of the other
    workload."""
    parts = {name: PARTS[name](seed) for name in WORKLOADS[workload]}

    def run():
        results, seconds = [], dict.fromkeys(PARTS, 0.0)
        for name, (_, part_run, _) in parts.items():
            start = time.perf_counter()
            results.append(part_run())
            seconds[name] = time.perf_counter() - start
        return results, seconds

    def check(results, ck: Checks) -> None:
        for (name, (_, _, part_check)), result in zip(parts.items(), results):
            ck.part = name
            part_check(result, ck)

    return sum(items for items, _, _ in parts.values()), run, check


def timed_pass(workload: str, seed: int, traced: bool) -> dict:
    items, run, check = set_up(workload, seed)
    print("ready", flush=True)
    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer)
    start = time.perf_counter()
    results, part_seconds = run()
    wall = time.perf_counter() - start
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ck = Checks(json.loads(DIGESTS.read_text()))
    check(results, ck)
    out = {
        "wall_s": wall,
        "part_s": part_seconds,
        "items": items,
        "rss_kib": rss_kib,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "digests": ck.digests,
        "unpinned": ck.unpinned,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, wall)
        write_spans(tracer, str(OUT_DIR / f"spans-{workload}.tsv"), f"{workload}/{seed}")
    return out


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    if workload not in WORKLOADS or mode not in ("setup", "pass", "traced"):
        raise SystemExit(f"usage: worker.py {{{','.join(WORKLOADS)}}} SEED setup|pass|traced")
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)
    try:
        if mode == "setup":
            set_up(workload, seed)
            print("ready", flush=True)
        else:
            print(json.dumps(timed_pass(workload, seed, mode == "traced")), flush=True)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
