"""Campaign-service throughput and cross-job cache-hit speedup.

Starts a real in-process service (content-addressed store + priority
scheduler + asyncio HTTP server) and measures, over the socket:

1. **Job throughput** - N disjoint small campaigns submitted
   back-to-back; jobs/s from first submit to last completion.
2. **Cache-hit speedup** - the 50%-overlapping resubmission: a fresh
   2E-experiment campaign runs cold, then an E-experiment job with a
   different seed primes the store and the 2E-campaign over *that* seed
   runs with exactly half its plan served from the store.  The
   deterministic planner draws a campaign's first E experiments
   identically regardless of total size, which is what makes the
   overlap exact.  A final identical resubmission measures the
   full-cache (100% hit) floor.

The bench also *asserts* that the service's quadrant summary and
checker attribution are bit-identical to a direct ``Campaign.run`` of
the same spec: the service may only change how fast an answer arrives,
never the answer.

There is deliberately no timing gate (CI machines are too noisy for
wall-clock assertions): CI runs a small version, enforces the
equalities, and uploads the record; the committed
``BENCH_service_throughput.json`` (regenerate with
``python benchmarks/bench_service_throughput.py``) documents the
numbers on a quiet machine.

Size via ``ARGUS_SERVICE_EXPERIMENTS`` (per-job experiments, default
150) and ``ARGUS_SERVICE_JOBS`` (throughput-phase jobs, default 4);
output path via ``ARGUS_SERVICE_RECORD``.
"""

import json
import os
import shutil
import tempfile
import time

from repro.faults.campaign import Campaign
from repro.faults.model import TRANSIENT
from repro.service import (JobScheduler, ResultStore, ServiceClient,
                           ServiceServer)

EXPERIMENTS = int(os.environ.get("ARGUS_SERVICE_EXPERIMENTS", "150"))
JOBS = int(os.environ.get("ARGUS_SERVICE_JOBS", "4"))
SEED = 2007
RECORD_PATH = os.environ.get(
    "ARGUS_SERVICE_RECORD",
    os.path.join(os.path.dirname(__file__), "BENCH_service_throughput.json"))


class Service:
    """One in-process server over a temp data dir, wired for teardown."""

    def __init__(self, job_runners=2):
        self.data_dir = tempfile.mkdtemp(prefix="argus-bench-service-")
        self.store = ResultStore(os.path.join(self.data_dir, "store.sqlite"))
        self.scheduler = JobScheduler(self.store, self.data_dir,
                                      workers=1, job_runners=job_runners)
        self.scheduler.start()
        self.server = ServiceServer(self.scheduler, port=0)
        host, port = self.server.start_in_thread()
        self.client = ServiceClient("http://%s:%d" % (host, port))

    def close(self):
        self.server.stop()
        self.scheduler.shutdown()
        self.store.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def _wait_done(client, job, timeout=900.0):
    final = client.wait(job["id"], timeout=timeout, poll=0.05)
    assert final["state"] == "done", (final["state"], final.get("error"))
    return final


def run_measurement():
    """Returns (record, warm_job) - asserts all cache-count equalities."""
    service = Service()
    try:
        client = service.client

        # Phase 1: N disjoint campaigns, queued at once, drained by the
        # runner pool.  Distinct seeds means zero cross-job cache hits -
        # this is the no-dedup throughput floor.
        spec = {"experiments": EXPERIMENTS, "duration": "transient"}
        start = time.perf_counter()
        queued = [client.submit(dict(spec, seed=SEED + 1 + index))
                  for index in range(JOBS)]
        finals = [_wait_done(client, job) for job in queued]
        throughput_seconds = time.perf_counter() - start
        assert all(final["cached"] == 0 for final in finals)

        # Phase 2: cold 2E-campaign (fresh seed, nothing cacheable).
        start = time.perf_counter()
        cold = _wait_done(client, client.submit(
            dict(spec, seed=SEED + 100, experiments=2 * EXPERIMENTS)))
        cold_seconds = time.perf_counter() - start
        assert cold["cached"] == 0 and cold["executed"] == 2 * EXPERIMENTS

        # Phase 3: prime the store with the first half of another seed's
        # plan, then run its 2E-campaign - a 50%-overlapping resubmission.
        _wait_done(client, client.submit(dict(spec, seed=SEED + 200)))
        start = time.perf_counter()
        warm = _wait_done(client, client.submit(
            dict(spec, seed=SEED + 200, experiments=2 * EXPERIMENTS)))
        warm_seconds = time.perf_counter() - start
        assert warm["cached"] == EXPERIMENTS, warm
        assert warm["executed"] == EXPERIMENTS, warm

        # Phase 4: identical resubmission - the 100%-hit floor.
        start = time.perf_counter()
        hot = _wait_done(client, client.submit(
            dict(spec, seed=SEED + 200, experiments=2 * EXPERIMENTS)))
        hot_seconds = time.perf_counter() - start
        assert hot["cached"] == 2 * EXPERIMENTS and hot["executed"] == 0, hot
        assert hot["summaries"] == warm["summaries"]

        metrics = client.metrics()
        record = {
            "experiments_per_job": EXPERIMENTS,
            "throughput_jobs": JOBS,
            "throughput_seconds": round(throughput_seconds, 3),
            "jobs_per_second": round(JOBS / throughput_seconds, 3),
            "experiments_per_second":
                round(JOBS * EXPERIMENTS / throughput_seconds, 2),
            "overlap_fraction": 0.5,
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "hot_seconds": round(hot_seconds, 3),
            "cache_hit_speedup": round(cold_seconds / warm_seconds, 3),
            "full_cache_speedup": round(cold_seconds / hot_seconds, 3),
            "service_cache_hit_rate": round(metrics["cache_hit_rate"], 4),
            "seed": SEED,
            "quadrants": warm["summaries"]["transient"]["quadrants"],
        }
        return record, warm
    finally:
        service.close()


def check_against_direct(warm):
    """The service answer must equal a direct in-process Campaign.run."""
    spec = warm["spec"]
    campaign = Campaign(seed=spec["seed"],
                        use_checkpoints=spec["use_checkpoints"])
    direct = campaign.run(experiments=spec["experiments"],
                          duration=TRANSIENT, workers=1)
    summary = warm["summaries"]["transient"]
    assert summary["quadrants"] == {
        "unmasked_undetected": direct.unmasked_undetected,
        "unmasked_detected": direct.unmasked_detected,
        "masked_undetected": direct.masked_undetected,
        "masked_detected": direct.masked_detected,
    }
    assert summary["checker_counts"] == dict(direct.checker_counts)
    assert summary["fractions"] == direct.fractions()


def test_service_throughput(benchmark):
    out = {}

    def measure():
        out["record"], out["warm"] = run_measurement()
        return out

    benchmark.pedantic(measure, rounds=1, iterations=1)
    check_against_direct(out["warm"])
    benchmark.extra_info.update(
        {k: v for k, v in out["record"].items() if k != "quadrants"})
    print("\n  " + json.dumps(out["record"], sort_keys=True))


def main():
    record, warm = run_measurement()
    check_against_direct(warm)
    with open(RECORD_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
