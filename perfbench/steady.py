"""Run one workload k times in fresh processes and report how steady it is.

    python3 perfbench/steady.py --workload fluid-solve --runs 10 --seconds 25

Run i uses seed base+i. For each metric, and for the reference-loop time
each run prints beside its metrics, this prints the median, the quartiles
(statistics.quantiles with n=4) and the spread (q3 - q1) / median. The
last line is a JSON object with every value, for comparing two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--base", type=int, default=0, help="seed of the first run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2 for quartiles")

    values: dict = {}
    refs, failed_shares = [], []
    for i in range(args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.base + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run {i} failed with exit {proc.returncode}:\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        refs.append(float(lines[-2].split()[2]))
        failed_shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.base + i}: " + " ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), file=sys.stderr)

    rows = {name: summarize(vals) for name, vals in values.items()}
    rows["reference_loop_s"] = summarize(refs)
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, row in rows.items():
        print(f"{name:40s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
              f"{row['spread']:8.4f}")
    print(f"failed share per run: {sorted(set(failed_shares))}")
    print(json.dumps({"workload": args.workload, "values": values,
                      "reference_loop_s": refs, "summary": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
