"""One workload in a fresh interpreter; started by run.py, never directly.

Modes:
  setup  import ekrforge, build the workload's inputs, report set-up time;
  run    then cycle through the job list until --seconds have been spent
         (always at least one full pass) and report each job's median
         wall and CPU time;
  trace  then alternate untraced and traced passes over the job list
         (always at least one of each) and report the per-layer metrics
         of the fastest traced pass, with the tracing overhead.

Set-up time runs from --spawned-at, the monotonic clock reading the
parent took just before starting this process, to the moment the inputs
exist.  Job times are reported twice: raw, and scaled to the reference
host speed by the host-speed probe (probe.py).  The result is one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
# Calls per batch, and batches, when timing the cost of one span.
SPAN_COST_CALLS = 20_000
SPAN_COST_BATCHES = 5


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mib() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


class Times(NamedTuple):
    """One job run: wall and CPU seconds, scaled to the reference host and raw."""
    ref_wall: float
    ref_cpu: float
    wall: float
    cpu: float


class Tally:
    """Jobs attempted and failed, and each job's first deterministic output.

    A job fails when its check fails, when it raises, or when a repeat
    gives other deterministic counters than its first run.  A failure is
    counted and reported, never fatal.
    """

    def __init__(self, check_failed, probe):
        self.check_failed = check_failed
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, object] = {}

    def run(self, job_id, job) -> Times:
        """Run one job; return its times without the probe's own time."""
        gc.collect()
        self.attempted += 1
        mark = self.probe.mark()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            counters = job()
        except self.check_failed as exc:
            counters = None
            self.fail(job_id, f"check failed: {exc}")
        except Exception:  # a raising job is a failed job; the run goes on
            counters = None
            self.fail(job_id, f"raised\n{traceback.format_exc()}")
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        probe_s, factor = self.probe.since(mark)
        wall, cpu = wall - probe_s, cpu - probe_s
        if counters is not None:
            first = self.outputs.setdefault(job_id, counters)
            if first != counters:
                self.fail(job_id, "deterministic counters differ from its first run")
        return Times(wall * factor, cpu * factor, wall, cpu)

    def fail(self, job_id, why) -> None:
        self.failed += 1
        print(f"perfbench: {job_id}: {why}", file=sys.stderr)


def run_pass(jobs, tally, tracer=None) -> float:
    """Run every job once, in order; return the pass's scaled wall seconds."""
    total = 0.0
    for job_id, job in jobs:
        if tracer is not None:
            tracer.job = job_id
        total += tally.run(job_id, job).ref_wall
    return total


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from probe import HostProbe
    tmp = TMP_DIR / f"{args.workload}-{args.seed}-{args.mode}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    probe = HostProbe()
    try:
        lib = workloads.Lib()
        jobs, inputs = workloads.WORKLOADS[args.workload](lib, args.seed, tmp)
        result = {"setup_s": time.monotonic() - args.spawned_at,
                  "inputs_sha256": workloads.digest(inputs)}
        tally = Tally(workloads.CheckFailed, probe)
        if args.mode != "setup":
            probe.start()
        if args.mode == "run":
            result.update(measure(jobs, args.seconds, tally))
            result["peak_rss_mib"] = peak_rss_mib()
        elif args.mode == "trace":
            result.update(traced(jobs, args, tally))
        result.update(attempted=tally.attempted, failed=tally.failed)
    finally:
        probe.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))


def measure(jobs, seconds, tally) -> dict:
    """Cycle through the jobs in order and keep each job's median run.

    The first pass always runs in full.  After it, the cycle goes on while
    the next job's fastest raw time so far still fits in the window.  Each
    reported time is a sum of per-job medians: the time of one pass over
    the job list, scaled to the reference host speed (ref_*) or raw.
    """
    times = {job_id: [] for job_id, _ in jobs}
    start = time.perf_counter()
    for i, (job_id, job) in enumerate(itertools.cycle(jobs)):
        fastest = min((t.wall for t in times[job_id]), default=0.0)
        if i >= len(jobs) and time.perf_counter() - start + fastest > seconds:
            break
        times[job_id].append(tally.run(job_id, job))
    result = {f"{field}_s": sum(statistics.median(getattr(t, field) for t in ts)
                                for ts in times.values())
              for field in Times._fields}
    result["runs_per_job"] = [len(ts) for ts in times.values()]
    return result


def traced(jobs, args, tally) -> dict:
    """Untraced and traced passes, alternating, over the same jobs.

    Pass times are scaled to the reference host speed, so that the
    difference of the two sides is the tracing's cost, not the host's
    drift between passes.  The probe keeps running in the traced passes,
    so about 2% of the spans' time is the probe's.
    """
    import ekrforge
    from tracer import Tracer, span_cost
    plain, traced_walls, best = [], [], None
    start = time.perf_counter()
    while True:
        plain.append(run_pass(jobs, tally))
        tracer = Tracer(ekrforge)
        wrapped = tracer.install()
        try:
            traced_walls.append(run_pass(jobs, tally, tracer))
        finally:
            tracer.uninstall()
        if traced_walls[-1] == min(traced_walls):
            best = tracer
        if time.perf_counter() - start + plain[-1] + traced_walls[-1] > args.seconds:
            break
    layers = best.layer_metrics()
    layers["trace.wall_s"] = min(traced_walls)
    layers["trace.untraced_wall_s"] = min(plain)
    layers["trace.overhead_s"] = min(traced_walls) - min(plain)
    layers["trace.span_cost_s"] = span_cost(SPAN_COST_CALLS, SPAN_COST_BATCHES)
    layers["trace.est_overhead_s"] = layers["trace.span_cost_s"] * len(best.spans)
    layers["trace.spans"] = len(best.spans)
    layers["trace.wrapped_functions"] = wrapped

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    best.write_spans(f"{stem}-spans.jsonl.gz")
    record = {"workload": args.workload, "seed": args.seed,
              "job_outputs": tally.outputs,
              "job_counters": best.job_counters(),
              "layers": layers}
    Path(f"{stem}-trace.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return {"passes": {"untraced": plain, "traced": traced_walls}, "layers": layers}


if __name__ == "__main__":
    main()
