"""Campaign throughput scaling: serial vs multi-worker execution engine.

Runs the same seed-pinned transient campaign through the planned
execution engine at 1, 2 and 4 workers, asserts the results are
bit-identical (same quadrant fractions, same checker attribution), and
records a JSON line so the bench trajectory tracks the speedup over
time.  The >=2x speedup expectation only applies on machines with at
least 4 CPUs; on smaller boxes the record is still emitted but the
speedup is informational.

The two execution paths compose with the worker count: every worker
count also runs the cold reference path (golden-run checkpointing, and
with it the engine, disabled), so the record separates the engine's
speedup over the reference from the process-parallel speedup - and
proves both paths classify identically.

Size via ``ARGUS_SCALING_EXPERIMENTS`` (default 400, the acceptance
campaign size).
"""

import json
import os
import time

from repro.faults.campaign import Campaign
from repro.faults.model import TRANSIENT

EXPERIMENTS = int(os.environ.get("ARGUS_SCALING_EXPERIMENTS", "400"))
WORKER_COUNTS = (1, 2, 4)
SEED = 2007


def _run(workers, use_checkpoints=True):
    campaign = Campaign(seed=SEED, use_checkpoints=use_checkpoints)
    start = time.perf_counter()
    summary = campaign.run(experiments=EXPERIMENTS, duration=TRANSIENT,
                           workers=workers, keep_results=False)
    return time.perf_counter() - start, summary


def test_campaign_scaling(benchmark):
    results = {}
    cold = {}

    def measure():
        for workers in WORKER_COUNTS:
            results[workers] = _run(workers)
            cold[workers] = _run(workers, use_checkpoints=False)
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)

    serial_seconds, serial_summary = results[1]
    record = {
        "experiments": EXPERIMENTS,
        "cpus": os.cpu_count() or 1,
        "serial_seconds": round(serial_seconds, 3),
        "serial_throughput": round(EXPERIMENTS / serial_seconds, 2),
        "speedup": {},
        "checkpoint_speedup": {},
    }
    for workers in WORKER_COUNTS:
        seconds, summary = results[workers]
        cold_seconds, cold_summary = cold[workers]
        # determinism: any worker count - and either execution path -
        # must be bit-identical to serial
        assert summary.fractions() == serial_summary.fractions()
        assert summary.checker_counts == serial_summary.checker_counts
        assert cold_summary.fractions() == serial_summary.fractions()
        assert cold_summary.checker_counts == serial_summary.checker_counts
        record["speedup"][str(workers)] = round(serial_seconds / seconds, 3)
        record["checkpoint_speedup"][str(workers)] = round(
            cold_seconds / seconds, 3)
        benchmark.extra_info["speedup_%dw" % workers] = record["speedup"][str(workers)]
    benchmark.extra_info.update(
        {k: v for k, v in record.items()
         if k not in ("speedup", "checkpoint_speedup")})

    print("\n  " + json.dumps(record, sort_keys=True))
    if record["cpus"] >= 4:
        assert record["speedup"]["4"] >= 2.0, (
            "parallel engine must reach 2x on a 4-core machine: %r" % record)
