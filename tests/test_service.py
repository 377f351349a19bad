"""Tests for the campaign service (store, scheduler, HTTP API, recovery).

The contract under test: a campaign submitted over HTTP produces
quadrant summaries *bit-identical* to a direct ``Campaign.run`` with the
same seed, identical experiments across jobs are content-addressed
cache hits, and a SIGKILL mid-job followed by a server restart
completes the job with zero lost and zero duplicated experiment
records.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.faults import campaign as campaign_mod
from repro.faults.campaign import Campaign
from repro.faults.model import TRANSIENT
from repro.faults.points import build_point_population
from repro.faults.stress import build_stress_program
from repro.runner import (Journal, execute_plan, plan_campaign,
                          result_to_record)
from repro.runner import pool as pool_mod
from repro.service import (CampaignSpec, Job, JobScheduler, ResultStore,
                           ServiceClient, ServiceError, ServiceServer,
                           SpecError, binary_digest, experiment_key)
from repro.service.store import plan_keys
from repro.toolchain import embed_program

SMALL = """
start:  li   r1, 6
        li   r2, 0
        la   r6, buf
loop:   add  r2, r2, r1
        sw   r2, 0(r6)
        addi r1, r1, -1
        sfgtsi r1, 0
        bf   loop
        nop
        mul  r3, r2, r2
        sw   r3, 4(r6)
        halt
        .data
buf:    .word 0, 0
"""

#: SMALL with a 200-iteration loop: a job of 160 experiments spans
#: three in-process engine batches, long enough to kill mid-job.
SLOW = SMALL.replace("li   r1, 6", "li   r1, 200")

SEED = 11
EXPERIMENTS = 16


def small_spec(**overrides):
    spec = {"source": SMALL, "workload": None, "experiments": EXPERIMENTS,
            "duration": "transient", "seed": SEED}
    spec.update(overrides)
    return spec


def direct_summary(experiments=EXPERIMENTS, seed=SEED, source=SMALL):
    return Campaign(embedded=embed_program(source), seed=seed).run(
        experiments=experiments, duration=TRANSIENT, workers=1)


def quadrants(summary):
    return {
        "unmasked_undetected": summary.unmasked_undetected,
        "unmasked_detected": summary.unmasked_detected,
        "masked_undetected": summary.masked_undetected,
        "masked_detected": summary.masked_detected,
    }


@pytest.fixture()
def service(tmp_path):
    """An in-process server on a real localhost socket."""
    store = ResultStore(":memory:")
    scheduler = JobScheduler(store, str(tmp_path), workers=1,
                             job_runners=2).start()
    server = ServiceServer(scheduler, port=0)
    host, port = server.start_in_thread()
    client = ServiceClient("http://%s:%d" % (host, port))
    yield client, scheduler, store
    server.stop()
    scheduler.shutdown(wait=True, timeout=10)
    store.close()


# -- content-addressed store -------------------------------------------------

class TestStore:
    def test_put_get_roundtrip_and_idempotence(self):
        store = ResultStore(":memory:")
        record = {"detected": True, "checker": "parity"}
        assert store.put("k1", "transient/000000", record)
        assert not store.put("k1", "transient/000000", record)  # idempotent
        assert store.get("k1") == record
        assert store.get("missing") is None
        assert len(store) == 1
        assert "k1" in store and "missing" not in store

    def test_get_many_counts_hits_and_misses(self):
        store = ResultStore(":memory:")
        store.put("a", "id/a", {"x": 1})
        found = store.get_many(["a", "b", "c"])
        assert found == {"a": {"x": 1}}
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert 0.0 < stats["hit_rate"] < 1.0

    def test_experiment_key_is_stable_and_sensitive(self):
        embedded = embed_program(SMALL)
        digest = binary_digest(embedded)
        assert digest == binary_digest(embed_program(SMALL))
        campaign = Campaign(embedded=embedded, seed=SEED)
        plan = plan_campaign(campaign.points, 4, TRANSIENT, seed=SEED)
        exp = plan.experiments[0]
        key = experiment_key(digest, exp)
        assert key == experiment_key(digest, exp)
        assert key != experiment_key("0" * 64, exp)
        assert key != experiment_key(digest, plan.experiments[1])

    def test_experiment_key_is_pinned(self):
        # Recorded before the run bound became a constant: stores written
        # then keep serving hits.
        plan = plan_campaign(build_point_population(), 4, TRANSIENT, seed=7)
        digest = binary_digest(build_stress_program())
        assert experiment_key(digest, plan.experiments[0]) == (
            "05044d32a6ec133faefd44008dbc71ff2a42562c4d29681fb72ce90d2bccf8fb")

    def test_journal_import_export_roundtrip(self, tmp_path):
        campaign = Campaign(embedded=embed_program(SMALL), seed=SEED)
        plan = plan_campaign(campaign.points, 6, TRANSIENT, seed=SEED)
        journal_path = str(tmp_path / "direct.jsonl")
        campaign.run(experiments=6, duration=TRANSIENT, workers=1,
                     journal=journal_path)
        digest = binary_digest(campaign.embedded)
        keys = plan_keys(digest, plan)

        store = ResultStore(str(tmp_path / "store.sqlite"))
        assert store.import_journal(journal_path, keys) == 6
        export_path = str(tmp_path / "export.jsonl")
        assert store.export_journal(export_path, keys, plan=plan) == 6

        original = Journal(journal_path).load()
        exported = Journal(export_path).load()
        assert exported.records == original.records
        assert exported.plans == original.plans


# -- spec validation ---------------------------------------------------------

class TestSpec:
    def test_rejects_unknown_fields_and_bad_values(self):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"experimnets": 10})
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"workload": "not-a-workload"})
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"duration": "forever"})
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"experiments": 0})
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"experiments": "many"})
        with pytest.raises(SpecError):
            CampaignSpec.from_dict([1, 2])

    def test_roundtrips_and_builds_campaigns(self):
        spec = CampaignSpec.from_dict(small_spec())
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again == spec
        campaign = spec.build_campaign()
        assert campaign.seed == SEED

    def test_http_submit_rejects_bad_specs_with_400(self, service):
        client, _scheduler, _store = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"workload": "nope"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"bogus_field": 1})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("name, value", [("run_slack", 1.25),
                                             ("include_double_bits", True)])
    def test_http_submit_refuses_retired_fields(self, service, name, value):
        # Persisted job documents that carry them still load (see
        # TestRecovery); a new submission naming one is refused.
        client, _scheduler, _store = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit(dict(small_spec(), **{name: value}))
        assert excinfo.value.status == 400
        assert name in str(excinfo.value)


# -- end-to-end over a real socket ------------------------------------------

class TestEndToEnd:
    def test_submitted_job_matches_direct_run(self, service):
        client, _scheduler, _store = service
        job = client.submit(small_spec())
        assert job["state"] == "queued"
        final = client.wait(job["id"], timeout=180)
        assert final["state"] == "done"
        assert final["executed"] == EXPERIMENTS
        assert final["cached"] == 0

        direct = direct_summary()
        summary = final["summaries"]["transient"]
        assert summary["quadrants"] == quadrants(direct)
        assert summary["checker_counts"] == direct.checker_counts

        # the results download is the journal: every experiment exactly once
        records = client.results(job["id"])
        assert len(records) == EXPERIMENTS

    def test_health_metrics_and_404(self, service):
        client, _scheduler, _store = service
        assert client.healthz()["ok"] is True
        metrics = client.metrics()
        for field in ("queue_depth", "cache_hit_rate", "worker_utilization",
                      "throughput_experiments_per_second", "store"):
            assert field in metrics
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-doesnotexist")
        assert excinfo.value.status == 404

    def test_event_stream_carries_progress(self, service):
        client, _scheduler, _store = service
        job = client.submit(small_spec(experiments=6))
        events = list(client.events(job["id"], timeout=180))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "finish"
        assert kinds.count("experiment") == 6
        assert events[-1]["completed"] == 6

    def test_event_stream_forwards_events_written_as_the_job_ends(
            self, service):
        """The runner can append its last events and mark the job done
        between two polls of the stream; those events still arrive."""
        client, scheduler, _store = service

        class EndingJob(Job):
            @property
            def terminal(self):
                with open(scheduler.events_path(self.job_id), "a") as handle:
                    handle.write(json.dumps({"kind": "finish"}) + "\n")
                return True

        job = EndingJob(job_id="job-0000000000ff",
                        spec=CampaignSpec.from_dict(small_spec()))
        with scheduler._lock:
            scheduler._jobs[job.job_id] = job
        events = list(client.events(job.job_id, timeout=30))
        assert events and events[-1] == {"kind": "finish"}

    def test_identical_resubmission_is_pure_cache_hit(self, service):
        client, _scheduler, store = service
        first = client.wait(client.submit(small_spec())["id"], timeout=180)
        assert first["cached"] == 0
        second = client.wait(client.submit(small_spec())["id"], timeout=180)
        assert second["cached"] == EXPERIMENTS
        assert second["executed"] == 0
        assert second["cache_hit_rate"] == 1.0
        # identical summaries from cache alone
        assert second["summaries"] == first["summaries"]
        assert client.metrics()["cache_hit_rate"] > 0.0
        assert store.hits >= EXPERIMENTS

    def test_overlapping_resubmission_hits_shared_prefix(self, service):
        """A larger campaign with the same seed shares its plan prefix
        (weighted sampling draws sequentially from the derived stream),
        so extending a finished campaign only simulates the new tail."""
        client, _scheduler, _store = service
        client.wait(client.submit(small_spec())["id"], timeout=180)
        bigger = client.wait(
            client.submit(small_spec(experiments=EXPERIMENTS + 8))["id"],
            timeout=180)
        assert bigger["state"] == "done"
        assert bigger["cached"] == EXPERIMENTS
        assert bigger["executed"] == 8
        direct = direct_summary(experiments=EXPERIMENTS + 8)
        assert bigger["summaries"]["transient"]["quadrants"] \
            == quadrants(direct)

    def test_four_concurrent_jobs_all_complete(self, service):
        client, _scheduler, _store = service
        ids = []
        errors = []
        lock = threading.Lock()

        def _submit(seed):
            try:
                job = client.submit(small_spec(experiments=8, seed=seed))
                with lock:
                    ids.append(job["id"])
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=_submit, args=(seed,))
                   for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(ids) == 4
        finals = [client.wait(job_id, timeout=240) for job_id in ids]
        assert all(job["state"] == "done" for job in finals)
        assert all(job["completed"] == 8 for job in finals)
        assert len(client.jobs()) == 4


# -- one execution path ----------------------------------------------------

def _run_one_job(scheduler, spec, timeout=120):
    """Run one job to a terminal state, then stop the scheduler."""
    scheduler.start()
    job = scheduler.submit(spec)
    deadline = time.monotonic() + timeout
    while not job.terminal and time.monotonic() < deadline:
        time.sleep(0.02)
    scheduler.shutdown(wait=True, timeout=10)
    return job


class TestOnePath:
    """Every plan's cache misses run through ``execute_plan``."""

    def test_pooled_job_makes_one_pool_per_plan(self, tmp_path,
                                               monkeypatch):
        pools = []

        class CountingPool(pool_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", CountingPool)
        scheduler = JobScheduler(ResultStore(":memory:"), str(tmp_path),
                                 workers=2)
        job = _run_one_job(scheduler, small_spec())
        assert job.state == "done", job.error
        assert pools == [2]
        direct = direct_summary()
        summary = job.summaries["transient"]
        assert summary["quadrants"] == quadrants(direct)
        assert summary["checker_counts"] == direct.checker_counts

    def test_pool_pass_that_commits_nothing_is_retried(self, tmp_path,
                                                       monkeypatch):
        real = pool_mod._pool_pass
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(len(args[1]))
            if len(calls) > 1:
                real(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "_pool_pass", fail_once)
        scheduler = JobScheduler(ResultStore(":memory:"), str(tmp_path),
                                 workers=2)
        job = _run_one_job(scheduler, small_spec())
        assert job.state == "done", job.error
        assert calls == [EXPERIMENTS, EXPERIMENTS]
        assert job.executed == EXPERIMENTS
        direct = direct_summary()
        summary = job.summaries["transient"]
        assert summary["quadrants"] == quadrants(direct)
        assert summary["checker_counts"] == direct.checker_counts
        assert scheduler.metrics()["batches_retried"] == 1

    def test_experiment_error_fails_the_job_without_backoff(
            self, tmp_path, monkeypatch):
        attempts = []

        def broken(_campaign, batch):
            attempts.append(len(batch))
            raise RuntimeError("synthetic experiment bug")

        runner_sleeps = []
        real_sleep = time.sleep

        def watched_sleep(seconds):
            if threading.current_thread().name.startswith("argus-job-runner"):
                runner_sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(Campaign, "run_planned_batch", broken)
        monkeypatch.setattr(time, "sleep", watched_sleep)
        scheduler = JobScheduler(ResultStore(":memory:"), str(tmp_path),
                                 workers=1)
        job = _run_one_job(scheduler, small_spec())
        assert job.state == "failed"
        assert "synthetic experiment bug" in job.error
        assert attempts == [EXPERIMENTS]  # run once, never re-attempted
        assert runner_sleeps == []
        assert scheduler.metrics()["batches_retried"] == 0

    def test_runner_thread_reuses_its_campaign_per_binary(self, tmp_path,
                                                          monkeypatch):
        """Consecutive jobs on one binary share one campaign and one
        golden run whatever their seeds; another binary builds its own.
        Every journal equals a direct run, and a reused campaign's
        counters restart at zero for each job."""
        builds = []
        goldens = []
        build_campaign = CampaignSpec.build_campaign
        record_checkpoints = campaign_mod.record_checkpoints

        def counted_build(spec):
            builds.append(spec.seed)
            return build_campaign(spec)

        def counted_golden(*args, **kwargs):
            goldens.append(1)
            return record_checkpoints(*args, **kwargs)

        monkeypatch.setattr(CampaignSpec, "build_campaign", counted_build)
        monkeypatch.setattr(campaign_mod, "record_checkpoints",
                            counted_golden)
        scheduler = JobScheduler(ResultStore(":memory:"), str(tmp_path),
                                 workers=1).start()
        specs = [small_spec(seed=3), small_spec(seed=4),
                 {"workload": "stress", "experiments": EXPERIMENTS,
                  "duration": "transient", "seed": 4}]
        jobs = [scheduler.submit(spec) for spec in specs]
        deadline = time.monotonic() + 120
        while (not all(job.terminal for job in jobs)
               and time.monotonic() < deadline):
            time.sleep(0.02)
        scheduler.shutdown(wait=True, timeout=10)
        assert [job.state for job in jobs] == ["done"] * 3
        assert builds == [3, 4]
        assert len(goldens) == 2
        for job in jobs:
            spec = job.spec
            campaign = spec.build_campaign()
            plan = plan_campaign(campaign.points, spec.experiments,
                                 TRANSIENT, seed=spec.seed)
            direct = execute_plan(campaign, plan, workers=1)
            journal = Journal(scheduler.journal_path(job.job_id)).load()
            assert journal.records == {
                exp.experiment_id: result_to_record(result)
                for exp, result in zip(plan.experiments, direct.results)}
            with open(scheduler.events_path(job.job_id)) as handle:
                events = [json.loads(line) for line in handle]
            assert events[-1]["perf"]["experiments"] == EXPERIMENTS


# -- drain + crash recovery --------------------------------------------------

class TestRecovery:
    def test_drain_midjob_then_recover_completes_without_duplicates(
            self, tmp_path):
        store_path = str(tmp_path / "store.sqlite")
        data_dir = str(tmp_path / "data")
        store = ResultStore(store_path)
        scheduler = JobScheduler(store, data_dir, workers=1)
        # Drain from inside the 4th executed result's commit, so the
        # interruption point does not depend on timing.
        real_put = store.put
        puts = []
        drained = threading.Event()

        def put_then_drain(*args):
            stored = real_put(*args)
            puts.append(args[1])
            if len(puts) == 4:
                scheduler.drain()
                drained.set()
            return stored

        store.put = put_then_drain
        scheduler.start()
        job = scheduler.submit(small_spec(experiments=20))
        journal_path = scheduler.journal_path(job.job_id)
        assert drained.wait(timeout=120)
        scheduler.shutdown(wait=True, timeout=30)
        store.close()
        assert not job.terminal  # interrupted, not failed
        done_before = len(Journal(journal_path).load().records)
        assert 0 < done_before < 20
        assert done_before == len(puts) == 4  # stopped after that result

        store = ResultStore(store_path)
        scheduler = JobScheduler(store, data_dir, workers=1)
        recovered = scheduler.recover()
        assert [j.job_id for j in recovered] == [job.job_id]
        scheduler.start()
        resumed = scheduler.get(job.job_id)
        deadline = time.monotonic() + 120
        while not resumed.terminal and time.monotonic() < deadline:
            time.sleep(0.02)
        scheduler.shutdown(wait=True, timeout=10)
        assert resumed.state == "done"
        assert resumed.resumed == done_before  # nothing re-run ...
        assert resumed.executed + resumed.cached + resumed.resumed == 20

        # ... and nothing lost or duplicated: after completion the
        # journal holds each of the 20 planned ids exactly once.
        with open(journal_path) as handle:
            ids = [json.loads(line)["id"] for line in handle
                   if json.loads(line).get("kind") == "result"]
        assert len(ids) == 20 and len(set(ids)) == 20
        direct = direct_summary(experiments=20)
        assert resumed.summaries["transient"]["quadrants"] \
            == quadrants(direct)
        store.close()

    def test_recover_runs_jobs_persisted_with_retired_spec_fields(
            self, tmp_path):
        # A job document as written before the hybrid/batched execution
        # modes were removed: every spec field, the retired ones too.
        spec = dict(small_spec(experiments=6), run_slack=1.25,
                    include_double_bits=True, use_checkpoints=True,
                    checkpoint_interval=None, priority=0, plan_start=None,
                    plan_stop=None, hybrid=True, spot_check_rate=0.05,
                    batched=True, batch_size=64)
        document = {"id": "job-0123456789ab", "spec": spec,
                    "state": "running", "error": None, "created": 1.0,
                    "started": 2.0, "finished": None, "total": 6,
                    "completed": 0, "cached": 0, "executed": 0,
                    "resumed": 0, "cache_hit_rate": 0.0, "summaries": {}}
        store = ResultStore(":memory:")
        scheduler = JobScheduler(store, str(tmp_path), workers=1)
        with open(os.path.join(scheduler.jobs_dir,
                               "job-0123456789ab.json"), "w") as handle:
            json.dump(document, handle)
        # Its journal holds one record that mode synthesized from a proof.
        direct = direct_summary(experiments=6)
        synthesized = dict(result_to_record(direct.results[0]),
                           synthesized="both:test-rule")
        journal = Journal(scheduler.journal_path("job-0123456789ab"))
        journal.append_result("transient/000000", synthesized)
        journal.close()
        recovered = scheduler.recover()
        assert [job.job_id for job in recovered] == ["job-0123456789ab"]
        scheduler.start()
        job = recovered[0]
        deadline = time.monotonic() + 120
        while not job.terminal and time.monotonic() < deadline:
            time.sleep(0.02)
        scheduler.shutdown(wait=True, timeout=10)
        assert job.state == "done", job.error
        assert job.resumed == 1 and job.executed == 5
        assert job.summaries["transient"]["quadrants"] == quadrants(direct)
        # The synthesized record stays out of the shared cache.
        campaign = CampaignSpec.from_dict(small_spec()).build_campaign()
        plan = plan_campaign(campaign.points, 6, TRANSIENT, seed=SEED)
        keys = plan_keys(binary_digest(campaign.embedded), plan)
        assert [store.get(keys[eid]) is not None for eid in plan.ids] \
            == [False] + [True] * 5
        store.close()


def _start_server_subprocess(data_dir):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--data-dir", data_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    address_path = os.path.join(data_dir, "server.json")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.path.exists(address_path):
            try:
                with open(address_path) as handle:
                    address = json.load(handle)
            except ValueError:
                pass  # torn write; retry
            else:
                if address.get("pid") == proc.pid:
                    return proc, address
        if proc.poll() is not None:
            raise AssertionError("server died: %s"
                                 % proc.stdout.read().decode())
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("server never published its address")


@pytest.mark.slow
class TestKillRestart:
    def test_sigkill_midjob_then_restart_loses_and_duplicates_nothing(
            self, tmp_path):
        """The acceptance proof: SIGKILL mid-job, restart, job completes
        with every planned experiment journaled exactly once and the
        quadrants bit-identical to a direct run."""
        data_dir = str(tmp_path / "data")
        os.makedirs(data_dir)
        experiments = 160  # three engine batches of SLOW
        proc, address = _start_server_subprocess(data_dir)
        try:
            client = ServiceClient(
                "http://%s:%d" % (address["host"], address["port"]))
            job = client.submit(small_spec(source=SLOW,
                                           experiments=experiments))
            journal_path = os.path.join(
                data_dir, "jobs", "%s.journal.jsonl" % job["id"])
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if os.path.exists(journal_path):
                    with open(journal_path) as handle:
                        done = sum(1 for line in handle
                                   if '"result"' in line)
                    if done >= 1:
                        break
                time.sleep(0.02)
            else:
                raise AssertionError("job never made progress")
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()

        partial = len(Journal(journal_path).load().records)
        assert 0 < partial < experiments  # genuinely mid-job

        proc, address = _start_server_subprocess(data_dir)
        try:
            client = ServiceClient(
                "http://%s:%d" % (address["host"], address["port"]))
            final = client.wait(job["id"], timeout=240, poll=0.2)
            assert final["state"] == "done"
            assert final["resumed"] >= partial

            # zero lost, zero duplicated: each planned id exactly once
            with open(journal_path) as handle:
                ids = [json.loads(line)["id"] for line in handle
                       if json.loads(line).get("kind") == "result"]
            assert len(ids) == experiments
            assert len(set(ids)) == experiments
            direct = direct_summary(experiments=experiments, source=SLOW)
            assert final["summaries"]["transient"]["quadrants"] \
                == quadrants(direct)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
