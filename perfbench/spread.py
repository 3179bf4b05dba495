#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and prints, per
end-to-end metric, the median and the spread: the distance between the
first and third quartile over the median. A benchmark is steady when
every spread but setup_s's stays below a third of its bound.

From the repository root, after `cargo build --release --manifest-path
perfbench/Cargo.toml`:

    python3 perfbench/spread.py --runs 10 [--workload serve-hot ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    return os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                        "release", "perfbench")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--verbose", action="store_true", help="print every run's values")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [binary(), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: answers wrong: {result}", file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vs in values.items():
            if args.verbose:
                print(f"{w:11} {name:17} " + " ".join(f"{v:.4g}" for v in vs))
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"{w:11} {name:17} median {med:12.4f}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
