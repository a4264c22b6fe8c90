"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1 2 3 ...]

Runs perfbench/run.py once per seed, one run at a time, and prints for
each end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  Every run's result is appended to
.perfbench_out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = ap.parse_args()

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"spread-{args.workload}.jsonl"
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        with log.open("a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {values}", flush=True)

    ok = all(r["correct"] for r in runs)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med
        print(f"{name:14s} median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
              f"spread={spread:.4f} bound={metric['bound']} "
              f"(bound/3={metric['bound'] / 3:.4f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
