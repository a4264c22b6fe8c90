"""ekrforge benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (oracle, verify-all, optima-iso, cli-files) of the
library under src/ in a fresh interpreter, checks every output, and
prints a readable summary followed, as the last line of stdout, by one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: ref_wall_s and ref_cpu_s (the
wall and CPU time of one pass over the job list, as sums of per-job
medians within --seconds, scaled to the reference host speed by the
host-speed probe in probe.py), setup_s (median over nine fresh set-ups
around the run) and peak_rss_mib.  The raw wall_s and cpu_s and the
error rate, failed / attempted, are printed in the summary; the error
rate is not a metric because it is 0 whenever the library is correct.
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics with the tracing overhead.  Metric names and units
come from BENCHMARK.json at the root of the checkout.

Only the standard library is used, and at most two processes run at once:
this one and one worker.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 4        # fresh set-ups before, and again after, the measured run
RUN_LIMIT_S = 170.0     # the whole run ends well inside three minutes


class WorkerError(Exception):
    pass


def spawn(mode: str, args, deadline: float) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    env = dict(os.environ)
    env.pop("EKRFORGE_THREADS", None)  # the library's default: one thread
    env["PYTHONHASHSEED"] = "0"
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--spawned-at", repr(spawned_at)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"{mode} worker overran the {RUN_LIMIT_S:.0f} s run limit")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "ekrforge" / "__init__.py").is_file():
        print(f"perfbench: no ekrforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        # the first start compiles bytecode; later starts are what users see
        spawn("setup", args, deadline)
        # probes on both sides of the run, so that their median spans the
        # host's slow and fast stretches of the whole run
        setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = spawn("trace" if args.trace else "run", args, deadline)
        setups += [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    attempted, failed = result["attempted"], result["failed"]

    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"ref_wall_s": result["ref_wall_s"], "ref_cpu_s": result["ref_cpu_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": result["peak_rss_mib"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()}")
    if args.trace:
        print(f"  pass_ref_wall_s={ {k: [round(w, 3) for w in v] for k, v in result['passes'].items()} }")
    else:
        print(f"  wall_s = {result['wall_s']:.6g} s  cpu_s = {result['cpu_s']:.6g} s  (raw, "
              f"not scaled to the reference host speed)")
        print(f"  runs_per_job={min(result['runs_per_job'])}..{max(result['runs_per_job'])}")
    print(f"  setup_samples={len(setups)} inputs_sha256={result['inputs_sha256'][:16]}")
    print(f"  attempted={attempted} failed={failed} error_rate={failed / attempted:.4f} ratio")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
