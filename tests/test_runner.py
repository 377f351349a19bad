"""Unit tests for the repro.runner subsystem (plan, journal, telemetry)."""

import io
import json

import pytest

from repro.faults.campaign import CampaignSummary, ExperimentResult
from repro.faults.model import PERMANENT, TRANSIENT, FaultSpec
from repro.faults.points import build_point_population
from repro.runner import (Journal, JournalMismatch, derive_seed,
                          plan_campaign, record_to_result, result_to_record)
from repro.runner.telemetry import (EVENT_EXPERIMENT, EVENT_FINISH,
                                    EVENT_START, CallbackTelemetry,
                                    JsonlTelemetry, LegacyPrintTelemetry,
                                    NullTelemetry, ProgressTracker,
                                    StderrTelemetry, TeeTelemetry,
                                    TelemetryEvent, coerce_sink,
                                    event_to_dict)


@pytest.fixture(scope="module")
def points():
    return build_point_population()


@pytest.fixture()
def plan(points):
    return plan_campaign(points, 12, TRANSIENT, seed=5)


def _result(detected=True, masked=False, checker="parity"):
    return ExperimentResult(
        spec=FaultSpec("ex.op_a", 4), duration=TRANSIENT, inject_at=3,
        masked=masked, detected=detected,
        checker=checker if detected else None, detail="d",
        activated_at=3, latency_instructions=1 if detected else None,
        latency_cycles=2 if detected else None,
        latency_blocks=0 if detected else None, hung=False)


class TestPlan:
    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(0, TRANSIENT, 1) == derive_seed(0, TRANSIENT, 1)
        seeds = {derive_seed(0, d, i)
                 for d in (TRANSIENT, PERMANENT) for i in range(50)}
        assert len(seeds) == 100  # no collisions across duration/index

    def test_plan_is_deterministic(self, points):
        a = plan_campaign(points, 20, TRANSIENT, seed=3)
        b = plan_campaign(points, 20, TRANSIENT, seed=3)
        assert a.experiments == b.experiments
        assert a.fingerprint() == b.fingerprint()

    def test_plan_varies_with_seed_and_duration(self, points):
        base = plan_campaign(points, 20, TRANSIENT, seed=3)
        other_seed = plan_campaign(points, 20, TRANSIENT, seed=4)
        other_dur = plan_campaign(points, 20, PERMANENT, seed=3)
        assert base.fingerprint() != other_seed.fingerprint()
        assert base.fingerprint() != other_dur.fingerprint()

    def test_ids_are_duration_prefixed_and_ordered(self, plan):
        assert plan.ids[0] == "transient/000000"
        assert plan.ids == sorted(plan.ids)
        assert len(plan) == 12


class TestRecords:
    def test_result_record_roundtrip(self):
        result = _result()
        clone = record_to_result(result_to_record(result))
        assert clone == result

    def test_roundtrip_survives_json(self):
        result = _result(detected=False, masked=True, checker=None)
        record = json.loads(json.dumps(result_to_record(result)))
        assert record_to_result(record) == result

    def test_none_spec_roundtrip(self):
        result = ExperimentResult(spec=None, duration=TRANSIENT, inject_at=0,
                                  masked=True, detected=False)
        assert record_to_result(result_to_record(result)) == result

    def test_plain_records_stay_byte_identical(self):
        # Optional fields are written only when they deviate from their
        # defaults, so records of older writers hash and diff identically.
        record = result_to_record(_result())
        assert set(record) == {
            "spec", "duration", "inject_at", "masked", "detected",
            "checker", "detail", "activated_at", "latency_instructions",
            "latency_cycles", "latency_blocks", "hung"}

    def test_old_record_reads_with_defaults(self):
        attribution = {"checker": "parity", "pc": 4096, "block_index": 1,
                       "latency": {"instructions": 1, "cycles": 2,
                                   "blocks": 0}}
        record = result_to_record(_result())
        record["attribution"] = attribution
        assert record_to_result(record).attribution == attribution
        record.pop("attribution")
        assert record_to_result(record).attribution is None

    def test_record_with_retired_fields_still_loads(self):
        # Records once carried "synthesized"/"spot_check" (a retired
        # execution mode); journals and store rows holding them load
        # unchanged otherwise.
        result = _result()
        record = json.loads(json.dumps(result_to_record(result)))
        record.update(synthesized="", spot_check=True)
        assert record_to_result(record) == result
        record["synthesized"] = "detection:parity-operand"
        assert record_to_result(record) == result


class TestJournal:
    def test_append_and_reload(self, plan, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path).load()
        journal.ensure_header({"seed": "5"})
        journal.register_plan(plan)
        journal.append_result(plan.ids[0], result_to_record(_result()))
        journal.close()

        reloaded = Journal(path).load()
        assert reloaded.meta["seed"] == "5"
        assert reloaded.plans[TRANSIENT] == plan.fingerprint()
        assert reloaded.done_ids(plan) == [plan.ids[0]]

    def test_torn_tail_is_tolerated(self, plan, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path).load()
        journal.register_plan(plan)
        journal.append_result(plan.ids[0], result_to_record(_result()))
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "result", "id": "transient/0000')  # kill!
        reloaded = Journal(path).load()
        assert len(reloaded.records) == 1

    def test_mismatched_plan_is_rejected(self, points, plan, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path).load()
        journal.register_plan(plan)
        journal.close()
        other = plan_campaign(points, 12, TRANSIENT, seed=6)
        reloaded = Journal(path).load()
        with pytest.raises(JournalMismatch):
            reloaded.register_plan(other)

    def test_same_plan_reregisters_cleanly(self, plan, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path).load()
        journal.register_plan(plan)
        journal.close()
        Journal(path).load().register_plan(plan)  # no error, no new record
        with open(path) as handle:
            kinds = [json.loads(line)["kind"] for line in handle]
        assert kinds.count("plan") == 1


class TestCompact:
    def _journal_with_duplicates(self, plan, tmp_path):
        """A journal the way a crashed-and-resumed campaign leaves it:
        one id appended twice (differently) plus a torn final line."""
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path).load()
        journal.ensure_header({"seed": "5"})
        journal.register_plan(plan)
        journal.append_result(plan.ids[0], result_to_record(_result()))
        journal.append_result(plan.ids[1],
                              result_to_record(_result(detected=False)))
        # the resumed run re-ran ids[0] and journaled it again
        journal.append_result(plan.ids[0],
                              result_to_record(_result(checker="dcs")))
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "result", "id": "transient/00')  # kill!
        return path

    def test_compact_drops_duplicates_and_torn_lines(self, plan, tmp_path):
        path = self._journal_with_duplicates(plan, tmp_path)
        before = Journal(path).load()
        journal = Journal(path)
        stats = journal.compact()
        assert stats == {"results": 2, "duplicates_dropped": 1,
                         "torn_dropped": 1}
        # the compacted file indexes identically (last-wins preserved) ...
        assert journal.records == before.records
        assert journal.records[plan.ids[0]]["checker"] == "dcs"
        assert journal.meta["seed"] == "5"
        assert journal.plans == before.plans
        # ... and now the file *is* its index: one line per record
        with open(path) as handle:
            entries = [json.loads(line) for line in handle]
        assert [e["kind"] for e in entries] \
            == ["header", "plan", "result", "result"]
        assert [e["id"] for e in entries if e["kind"] == "result"] \
            == [plan.ids[0], plan.ids[1]]

    def test_compact_is_idempotent_and_appendable(self, plan, tmp_path):
        path = self._journal_with_duplicates(plan, tmp_path)
        journal = Journal(path)
        journal.compact()
        with open(path) as handle:
            first = handle.read()
        assert journal.compact()["duplicates_dropped"] == 0
        with open(path) as handle:
            assert handle.read() == first
        # appending after compaction still works (handle was closed)
        journal.append_result(plan.ids[2], result_to_record(_result()))
        journal.close()
        assert len(Journal(path).load().records) == 3

    def test_compact_missing_file_is_noop(self, tmp_path):
        stats = Journal(str(tmp_path / "absent.jsonl")).compact()
        assert stats["results"] == 0
        assert not (tmp_path / "absent.jsonl").exists()


class TestDefaultWorkers:
    def test_env_override_wins(self, monkeypatch):
        from repro.runner.pool import default_workers

        monkeypatch.setenv("ARGUS_REPRO_WORKERS", "3")
        assert default_workers() == 3

    def test_bad_env_values_fall_through(self, monkeypatch):
        from repro.runner.pool import default_workers

        for bogus in ("zero", "0", "-2", ""):
            monkeypatch.setenv("ARGUS_REPRO_WORKERS", bogus)
            assert default_workers() >= 1

    def test_respects_cpu_affinity_when_available(self, monkeypatch):
        import repro.runner.pool as pool_mod

        monkeypatch.delenv("ARGUS_REPRO_WORKERS", raising=False)
        if hasattr(pool_mod.os, "sched_getaffinity"):
            monkeypatch.setattr(pool_mod.os, "sched_getaffinity",
                                lambda pid: {0, 1}, raising=True)
            assert pool_mod.default_workers() == 2
        else:  # platform fallback: the bare CPU count
            assert pool_mod.default_workers() == (pool_mod.os.cpu_count() or 1)


class TestTelemetry:
    def _track(self, sink, total=4, detections=2):
        tracker = ProgressTracker(sink, TRANSIENT, total)
        tracker.start()
        for i in range(total):
            tracker.experiment(result_to_record(_result(detected=i < detections)))
        tracker.finish()

    def test_callback_receives_all_events(self):
        events = []
        self._track(CallbackTelemetry(events.append))
        kinds = [event.kind for event in events]
        assert kinds[0] == EVENT_START
        assert kinds[-1] == EVENT_FINISH
        assert kinds.count(EVENT_EXPERIMENT) == 4
        assert events[-1].checker_counts == {"parity": 2}
        assert events[-1].completed == 4

    def test_legacy_print_matches_old_format(self):
        stream = io.StringIO()
        self._track(LegacyPrintTelemetry(2, stream=stream))
        assert stream.getvalue() == (
            "  [transient] 2/4 experiments\n"
            "  [transient] 4/4 experiments\n")

    def test_stderr_sink_renders_progress_and_attribution(self):
        stream = io.StringIO()
        self._track(StderrTelemetry(stream=stream, interval=0.0))
        text = stream.getvalue()
        assert "campaign: 4 experiments" in text
        assert "parity=2" in text
        assert "done: 4 experiments" in text

    def test_event_throughput_and_eta(self):
        event = TelemetryEvent(kind=EVENT_EXPERIMENT, duration=TRANSIENT,
                               completed=30, total=40, elapsed=2.0, skipped=10)
        assert event.executed == 20
        assert event.throughput == pytest.approx(10.0)
        assert event.eta_seconds == pytest.approx(1.0)
        fresh = TelemetryEvent(kind=EVENT_START, duration=TRANSIENT,
                               completed=0, total=40, elapsed=0.0)
        assert fresh.throughput == 0.0
        assert fresh.eta_seconds is None

    def test_coerce_sink_variants(self):
        assert isinstance(coerce_sink(), NullTelemetry)
        sink = StderrTelemetry(stream=io.StringIO())
        assert coerce_sink(telemetry=sink) is sink
        assert isinstance(coerce_sink(telemetry=lambda e: None),
                          CallbackTelemetry)
        with pytest.raises(TypeError):
            coerce_sink(telemetry=42)

    def test_jsonl_sink_writes_self_contained_lines(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlTelemetry(path)
        self._track(sink)
        sink.close()
        with open(path) as handle:
            events = [json.loads(line) for line in handle]
        assert [e["kind"] for e in events] \
            == ["start"] + ["experiment"] * 4 + ["finish"]
        assert events[-1]["completed"] == 4
        assert events[-1]["checker_counts"] == {"parity": 2}
        assert events[2]["quadrant"] in (
            "masked_detected", "masked_undetected",
            "unmasked_detected", "unmasked_undetected")
        # appending a second campaign extends, never truncates
        sink = JsonlTelemetry(path)
        self._track(sink)
        sink.close()
        with open(path) as handle:
            assert sum(1 for _line in handle) == 12

    def test_jsonl_sink_borrows_open_handles(self):
        stream = io.StringIO()
        sink = JsonlTelemetry(stream)
        self._track(sink)
        sink.close()  # not owned: stays open
        events = [json.loads(line)
                  for line in stream.getvalue().splitlines()]
        assert len(events) == 6

    def test_event_to_dict_is_json_ready(self):
        event = TelemetryEvent(kind=EVENT_EXPERIMENT, duration=TRANSIENT,
                               completed=30, total=40, elapsed=2.0,
                               skipped=10, quadrant="unmasked_detected",
                               checker="parity",
                               checker_counts={"parity": 3})
        payload = json.loads(json.dumps(event_to_dict(event)))
        assert payload["throughput"] == pytest.approx(10.0)
        assert payload["eta_seconds"] == pytest.approx(1.0)
        assert payload["checker"] == "parity"

    def test_tee_fans_out_to_every_sink(self):
        first, second = [], []
        self._track(TeeTelemetry(CallbackTelemetry(first.append),
                                 CallbackTelemetry(second.append)))
        assert len(first) == len(second) == 6
        assert [e.kind for e in first] == [e.kind for e in second]


class TestStreamingSummary:
    def test_keep_results_false_holds_only_counters(self):
        summary = CampaignSummary(duration=TRANSIENT, keep_results=False)
        for detected in (True, False, True):
            summary.add(_result(detected=detected))
        assert summary.total == 3
        assert summary.results == []
        assert summary.checker_counts == {"parity": 2}
        assert summary.unmasked_detected == 2
