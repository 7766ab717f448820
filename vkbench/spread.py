"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 vkbench/spread.py --workload scan-n7-k3 --runs 10

Runs `run.py` once per seed (1..runs) with BENCHMARK.json's `run_seconds`
and prints, per metric, the median, the quartiles (`statistics.quantiles`,
n=4) and the spread (q3 - q1) / median next to the metric's bound. The last
line is the same summary as JSON.
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
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    values: dict = {}
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            [sys.executable, "vkbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: {result['failed']} failed operations")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {}
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / median, "runs": len(vals)}
        print(f"{metric['name']:>12}  median {median:.6g} {metric['unit']}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / median:.4f}  "
              f"bound {metric['bound']}")
    print(json.dumps({"workload": args.workload, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
