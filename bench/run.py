"""The sumrange benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nothing needs installing.  Every
timed pass runs in a fresh interpreter (see worker.py), one after the
other, as long as another pass of the average length still ends within
`--seconds`; at least one pass always runs.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count the correctness checks of every pass.
With `--trace 0` the metrics are the end-to-end ones, medians over the
passes: wall_s, items_per_s, setup_s (median over the passes and
SETUP_PROBES set-up-only starts) and peak_rss_mib (ru_maxrss of each
pass's process).  With `--trace 1` an untraced, a traced and another
untraced pass run, and the metrics are the per-layer ones from the
traced pass, trace.overhead_ratio, its wall time over the mean of the
untraced ones, and part.<part>.wall_s, the mean time of each part of the
workload in the untraced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import metric_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "traces")
SETUP_PROBES = 7
# Every run ends within this many seconds, or fails.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Start one worker and wait for it; returns its result plus setup_s,
    the time from the start of the process until it reported ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(max(0.0, deadline - started), proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
    if code != 0 or first != "ready\n":
        raise BenchError(f"{workload} worker ({mode}, seed {seed}) exited with code {code}")
    result = json.loads(rest) if mode != "setup" else {}
    result["setup_s"] = ready - started
    if result.get("unpinned"):
        print(f"note: no pinned digest for {', '.join(result['unpinned'])}; "
              "only the exact checks ran", file=sys.stderr)
    return result


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[list, dict]:
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_worker(workload, seed, "pass", deadline))
        elapsed = time.perf_counter() - begin
        # start another pass only if one more of the same length fits
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    setups += [run_worker(workload, seed, "setup", deadline)["setup_s"]
               for _ in range(SETUP_PROBES)]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "items_per_s": (statistics.median(p["items"] / p["wall_s"] for p in passes), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(p["rss_kib"] / 1024 for p in passes), "MiB"),
    }
    return passes, metrics


def per_layer(workload: str, seed: int, deadline: float) -> tuple[list, dict]:
    # untraced, traced, untraced: a steady drift in machine speed cancels
    # out of the overhead ratio
    passes = [run_worker(workload, seed, mode, deadline) for mode in ("pass", "traced", "pass")]
    plain = (passes[0], passes[2])
    layers = dict(passes[1]["layers"])
    layers["trace.overhead_ratio"] = 2 * passes[1]["wall_s"] / sum(p["wall_s"] for p in plain)
    for part in passes[0]["part_s"]:
        layers[f"part.{part}.wall_s"] = statistics.mean(p["part_s"][part] for p in plain)
    return passes, {name: (value, metric_unit(name)) for name, value in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed: the case seed of lemmas and the "
                             "random orders of trace-steps (default 1)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="time budget of the timed passes (default 60)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be at least 0")
    if not (ROOT / "src" / "sumrange" / "__init__.py").is_file():
        print(f"error: no sumrange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            passes, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            passes, metrics = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [name for p in passes for name in p["failed"]]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
