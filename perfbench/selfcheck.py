"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py

For each workload, makes two traced runs with seed 1 and one with
seed 7.  The two runs with one seed must report identical
deterministic counters: the node count of every search, the members
built, the trace-bound statements evaluated, and every job's output
(values, class counts and output digests, including the verify-all
certificate bytes).  The run with the other seed must pass every check
and, where the workload takes seeded inputs, must have received other
inputs.  Prints one line per workload and exits non-zero on a mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# cli-files runs a fixed list of commands on fixed files: the seed changes nothing
SEEDLESS = {"cli-files"}
SEED = 1
OTHER_SEED = 7


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace.json").read_text())
    summary = next(ln for ln in lines if "inputs_sha256=" in ln)
    record["inputs"] = summary.split("inputs_sha256=")[1].split()[0]
    record["correct"] = json.loads(lines[-1])["correct"]
    return record


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first = traced_run(workload, SEED)
        second = traced_run(workload, SEED)
        other = traced_run(workload, OTHER_SEED)
        problems = []
        for key in ("job_counters", "job_outputs"):
            if first[key] != second[key]:
                diff = [j for j in first[key] if first[key][j] != second[key].get(j)]
                problems.append(f"{key} differ between two runs with seed {SEED}: {diff}")
        if not (first["correct"] and second["correct"] and other["correct"]):
            problems.append("a check failed")
        if workload not in SEEDLESS and other["inputs"] == first["inputs"]:
            problems.append(f"seed {OTHER_SEED} did not change the inputs")
        nodes = sum(c.get("nodes", 0) for c in first["job_counters"].values())
        members = sum(c.get("members", 0) for c in first["job_counters"].values())
        evaluated = sum(c.get("evaluated", 0) for c in first["job_counters"].values())
        status = "ok" if not problems else "MISMATCH"
        print(f"{workload}: {status} jobs={len(first['job_outputs'])} nodes={nodes} "
              f"members={members} evaluated={evaluated} "
              f"inputs seed{SEED}={first['inputs']} seed{OTHER_SEED}={other['inputs']}")
        for p in problems:
            print(f"  {p}")
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
