"""Run the benchmark on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 4 5

Runs are sequential, with the command and run length from BENCHMARK.json.
Spread is the distance between the first and third quartile of a
metric's values (statistics.quantiles(values, n=4)) as a share of their
median; BENCHMARK.json bounds each metric by it.  Every run's result line
is appended to .perfbench/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        argv = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        line = " ".join(f"{name}={vals[-1]:.5g}" for name, vals in values.items())
        print(f"seed {seed}: {line}", flush=True)

    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        print(f"{name:<14} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} {bounds[name]:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
