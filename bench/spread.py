"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 bench/spread.py [--workload NAME ...] [--seeds 1-10] [--seconds S] [--out FILE]

Runs `run.py --trace 0` once per workload and seed, one run after the
other, and prints for each end-to-end metric the median of the runs and
the distance between the first and third quartiles as a share of the
median (`statistics.quantiles(values, n=4)`).  Then one `--trace 1` run
on the first seed gives the workload's per-layer metrics.  With `--out`
the runs and the summary are written as JSON; `baseline.json` was made
this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, WORKLOADS


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="an inclusive range such as 1-10 (default)")
    parser.add_argument("--seconds", default="60")
    parser.add_argument("--out")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds")
    report = {"python": platform.python_version(), "cpus": os.cpu_count(),
              "seconds": args.seconds, "workloads": {}}

    def run(workload: str, seed: int, trace: int) -> dict:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", str(trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
        return json.loads(done.stdout.splitlines()[-1])

    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in args.seeds:
            result = run(workload, seed, 0)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{name}={value:.4g}" for name, value in values.items()), flush=True)
        metrics = {name: summary([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.4g}, "
                  f"quartiles {s['q1']:.4g}-{s['q3']:.4g}, spread {s['spread']:.3f}", flush=True)
        traced = run(workload, args.seeds[0], 1)
        print(f"{workload} traced: correct={traced['correct']} overhead_ratio="
              f"{traced['metrics']['trace.overhead_ratio']['value']:.3f}", flush=True)
        report["workloads"][workload] = {
            "summary": metrics, "runs": runs,
            "traced": {"seed": args.seeds[0], "correct": traced["correct"],
                       "metrics": {n: m["value"] for n, m in traced["metrics"].items()}}}
    if args.out:
        with open(args.out, "w") as out:
            json.dump(report, out, indent=1)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
