"""Integration tests: parallel engine determinism, journal resume, CLI.

The paper's Table 1 is only reproducible at scale if parallel execution
is *bit-identical* to serial execution: same seed => same quadrant
counts and checker attribution for any worker count, any completion
order, and any journal-resume split.  These tests pin that contract.
"""

import json
import os

import pytest

from repro.faults import campaign as campaign_mod
from repro.faults.campaign import Campaign
from repro.faults.model import PERMANENT, TRANSIENT
from repro.runner import Journal, JournalError, execute_plan, plan_campaign
from repro.runner.journal import result_to_record
from repro.runner import pool as pool_mod
from repro.runner.telemetry import EVENT_EXPERIMENT, CallbackTelemetry
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

EXPERIMENTS = 24


@pytest.fixture()
def campaign():
    return Campaign(embedded=embed_program(SMALL), seed=11)


def _signature(summary):
    """Everything that must be identical across execution strategies."""
    return (summary.total, summary.fractions(), summary.checker_counts)


class TestDeterminism:
    def test_workers_do_not_change_results(self, campaign):
        serial = campaign.run(experiments=EXPERIMENTS, duration=TRANSIENT,
                              workers=1)
        parallel = Campaign(embedded=embed_program(SMALL), seed=11).run(
            experiments=EXPERIMENTS, duration=TRANSIENT, workers=2)
        assert _signature(serial) == _signature(parallel)
        # checker attribution must match including dict iteration order
        assert (list(serial.checker_counts.items())
                == list(parallel.checker_counts.items()))

    @pytest.mark.parametrize("duration", [TRANSIENT, PERMANENT])
    def test_one_answer_per_seed(self, duration):
        """Without ``workers`` or ``journal``, ``run`` executes the seed's
        plan: its records equal one and two workers' and repeat on a
        second call to the same instance."""
        def records(summary):
            return [result_to_record(result) for result in summary.results]

        def run(**kwargs):
            return Campaign(embedded=embed_program(SMALL), seed=11).run(
                EXPERIMENTS, duration, **kwargs)

        default = Campaign(embedded=embed_program(SMALL), seed=11)
        first = records(default.run(EXPERIMENTS, duration))
        assert first == records(run(workers=1))
        assert first == records(run(workers=2))
        assert records(default.run(EXPERIMENTS, duration)) == first

    def test_planned_path_is_repeatable_on_one_instance(self, campaign):
        first = campaign.run(experiments=EXPERIMENTS, duration=TRANSIENT,
                             workers=1)
        second = campaign.run(experiments=EXPERIMENTS, duration=TRANSIENT,
                              workers=1)
        assert _signature(first) == _signature(second)

    def test_plan_order_aggregation_matches_run_results(self, campaign):
        summary = campaign.run(experiments=EXPERIMENTS, duration=TRANSIENT,
                               workers=1)
        assert len(summary.results) == EXPERIMENTS
        assert [r.quadrant for r in summary.results].count(
            "unmasked_detected") == summary.unmasked_detected

    def test_serial_fallback_when_pools_unavailable(self, campaign,
                                                    monkeypatch):
        baseline = campaign.run(experiments=EXPERIMENTS, duration=TRANSIENT,
                                workers=1)
        # Simulate an environment where every pool pass dies (fork
        # forbidden, workers crash, ...): the engine must fall back to
        # in-process execution and still produce identical results.
        monkeypatch.setattr(pool_mod, "_pool_pass",
                            lambda *args, **kwargs: None)
        fallback = Campaign(embedded=embed_program(SMALL), seed=11).run(
            experiments=EXPERIMENTS, duration=TRANSIENT, workers=4, retries=1)
        assert _signature(baseline) == _signature(fallback)


class TestPreparedCampaign:
    def test_workers_inherit_the_callers_golden_run(self, tmp_path,
                                                    monkeypatch):
        """The golden run happens once, in the calling process; pool
        workers inherit the prepared campaign instead of replaying it."""
        log = tmp_path / "golden-pids"
        record_checkpoints = campaign_mod.record_checkpoints

        def logged(*args, **kwargs):
            with open(log, "a") as handle:
                handle.write("%d\n" % os.getpid())
            return record_checkpoints(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "record_checkpoints", logged)
        campaign = Campaign(embedded=embed_program(SMALL), seed=11)
        plan = plan_campaign(campaign.points, EXPERIMENTS, PERMANENT, seed=11)
        parallel = execute_plan(campaign, plan, workers=2)
        assert log.read_text().split() == [str(os.getpid())]
        serial = execute_plan(Campaign(embedded=embed_program(SMALL),
                                       seed=11), plan, workers=1)
        assert ([result_to_record(r) for r in parallel.results]
                == [result_to_record(r) for r in serial.results])


class TestJournalResume:
    def _interrupt_after(self, count):
        class Interrupted(Exception):
            pass

        seen = []

        def callback(event):
            if event.kind == EVENT_EXPERIMENT:
                seen.append(event)
                if len(seen) >= count:
                    raise Interrupted

        return Interrupted, callback, seen

    def test_resume_after_kill_matches_uninterrupted(self, campaign,
                                                     tmp_path):
        uninterrupted = campaign.run(experiments=EXPERIMENTS,
                                     duration=TRANSIENT, workers=1)
        path = str(tmp_path / "campaign.jsonl")
        Interrupted, callback, _ = self._interrupt_after(9)
        with pytest.raises(Interrupted):
            Campaign(embedded=embed_program(SMALL), seed=11).run(
                experiments=EXPERIMENTS, duration=TRANSIENT, workers=1,
                journal=path, telemetry=CallbackTelemetry(callback))
        assert len(Journal(path).load().records) == 9

        executed = []

        def count_events(event):
            if event.kind == EVENT_EXPERIMENT:
                executed.append(event)

        resumed = Campaign(embedded=embed_program(SMALL), seed=11).run(
            experiments=EXPERIMENTS, duration=TRANSIENT, workers=1,
            journal=path, resume=True,
            telemetry=CallbackTelemetry(count_events))
        assert len(executed) == EXPERIMENTS - 9  # finished ids not re-run
        assert _signature(resumed) == _signature(uninterrupted)

    def test_completed_journal_resumes_without_execution(self, campaign,
                                                         tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        first = campaign.run(experiments=EXPERIMENTS, duration=TRANSIENT,
                             workers=1, journal=path)
        executed = []

        def count_events(event):
            if event.kind == EVENT_EXPERIMENT:
                executed.append(event)

        replayed = Campaign(embedded=embed_program(SMALL), seed=11).run(
            experiments=EXPERIMENTS, duration=TRANSIENT, workers=1,
            journal=path, resume=True,
            telemetry=CallbackTelemetry(count_events))
        assert executed == []
        assert _signature(replayed) == _signature(first)

    def test_existing_results_without_resume_flag_raise(self, campaign,
                                                        tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        campaign.run(experiments=EXPERIMENTS, duration=TRANSIENT, workers=1,
                     journal=path)
        with pytest.raises(JournalError):
            Campaign(embedded=embed_program(SMALL), seed=11).run(
                experiments=EXPERIMENTS, duration=TRANSIENT, workers=1,
                journal=path)

    def test_one_journal_holds_both_durations(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        both = campaign.run_both(experiments=8, workers=1, journal=path)
        journal = Journal(path).load()
        assert set(journal.plans) == {TRANSIENT, PERMANENT}
        assert len(journal.records) == 16
        assert both[TRANSIENT].total == both[PERMANENT].total == 8

    def test_mismatched_seed_resume_is_rejected(self, campaign, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        campaign.run(experiments=8, duration=TRANSIENT, workers=1,
                     journal=path)
        with pytest.raises(JournalError):
            Campaign(embedded=embed_program(SMALL), seed=12).run(
                experiments=8, duration=TRANSIENT, workers=1, journal=path,
                resume=True)


class TestEngineDetails:
    def test_streaming_mode_drops_results(self, campaign):
        summary = campaign.run(experiments=8, duration=TRANSIENT, workers=1,
                               keep_results=False)
        assert summary.total == 8
        assert summary.results == []
        assert sum(summary.checker_counts.values()) == (
            summary.unmasked_detected + summary.masked_detected)

    def test_incomplete_records_are_detected(self, campaign):
        plan = plan_campaign(campaign.points, 4, TRANSIENT, seed=11)
        with pytest.raises(JournalError):
            pool_mod.aggregate_records(plan, {})

    def test_batching_covers_every_experiment(self):
        pending = list(range(10))
        batches = pool_mod._make_batches(pending, workers=3)
        assert sorted(x for batch in batches for x in batch) == pending
        assert pool_mod._make_batches([], 2) == []


class TestCampaignCli:
    def test_campaign_subcommand_journal_and_json(self, tmp_path, capsys):
        from repro.cli import main

        journal = str(tmp_path / "cli.jsonl")
        out_json = str(tmp_path / "cli.json")
        assert main(["campaign", "--experiments", "10", "--duration",
                     "transient", "--workers", "1", "--journal", journal,
                     "--json", out_json, "--quiet"]) == 0
        output = capsys.readouterr().out
        assert "[transient] 10 experiments" in output
        with open(out_json) as handle:
            dump = json.load(handle)
        assert dump["summaries"]["transient"]["experiments"] == 10
        assert dump["perf"]["experiments"] == 10  # wall-clock block
        assert len(Journal(journal).load().records) == 10

        # the --resume invocation replays the journal byte-identically
        # (the perf block is wall-clock by design: the resumed run
        # executes zero new experiments, so only its shape is stable)
        assert main(["campaign", "--experiments", "10", "--duration",
                     "transient", "--workers", "1", "--journal", journal,
                     "--resume", "--json", out_json, "--quiet"]) == 0
        with open(out_json) as handle:
            resumed = json.load(handle)
        assert resumed["summaries"] == dump["summaries"]
        assert resumed["seed"] == dump["seed"]
        assert set(resumed["perf"]) == set(dump["perf"])
        assert resumed["perf"]["experiments"] == 0
