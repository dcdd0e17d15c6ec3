"""Pin the output digests that the benchmark checks every pass against.

    python3 bench/pin.py [--seeds N]

Runs one pass of each workload for every seed in 0..N-1 and adds the
sha256 digests the passes report to digests.json.  A digest that is
already pinned is never replaced: a pass whose output differs is
reported and nothing is written.
Pin only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import HERE, WORKLOADS, run_worker

DIGESTS = HERE / "digests.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args()
    pinned = json.loads(DIGESTS.read_text())
    conflicts = []
    for workload in WORKLOADS:
        for seed in range(args.seeds):
            result = run_worker(workload, seed, "pass", time.perf_counter() + 600)
            if result["failed"]:
                conflicts.append(f"{workload} seed {seed}: failed {result['failed']}")
            for part, digests in result["digests"].items():
                known = pinned.setdefault(part, {})
                for name, digest in digests.items():
                    if known.setdefault(name, digest) != digest:
                        conflicts.append(f"{workload} seed {seed}: {part}/{name} "
                                         "differs from its pin")
            print(f"{workload} seed {seed}: done", flush=True)
    if conflicts:
        print("\n".join(conflicts), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(
        {w: dict(sorted(d.items())) for w, d in pinned.items()}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
