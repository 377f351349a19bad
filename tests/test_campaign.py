"""Tests for the fault-injection campaign orchestration and classification."""

import dataclasses
import gc
import weakref

import pytest

from repro.argus.errors import ControlFlowError
from repro.faults.campaign import Campaign, CampaignSummary, ExperimentResult
from repro.faults.model import PERMANENT, TRANSIENT, FaultSpec
from repro.faults.stress import build_stress_program
from repro.isa.decode import _DECODE_CACHE, DecodeError, decode_cached
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


@pytest.fixture(scope="module")
def campaign():
    return Campaign(embedded=embed_program(SMALL), seed=1)


class TestGolden:
    def test_golden_trace_cached_and_deterministic(self, campaign):
        first = campaign.golden_trace()
        second = campaign.golden_trace()
        assert first is second
        assert len(first) == campaign.golden_length > 20

    def test_false_positive_check(self, campaign):
        assert campaign.false_positive_check(runs=2) == 2

    def test_false_positive_in_the_golden_run_raises(self):
        """A checker that fires on the fault-free run is an embedding bug:
        the golden run raises it rather than switching paths."""
        stress = build_stress_program()
        broken = dataclasses.replace(stress, entry_dcs=stress.entry_dcs ^ 1)
        campaign = Campaign(embedded=broken)
        with pytest.raises(ControlFlowError):
            campaign.golden_trace()
        assert campaign.use_checkpoints


class TestClassification:
    def test_alu_fault_is_unmasked_detected(self, campaign):
        result = campaign.run_experiment(
            FaultSpec("ex.alu.result", 1), TRANSIENT, inject_at=1)
        assert not result.masked
        assert result.detected
        assert result.checker == "computation"
        assert result.quadrant == "unmasked_detected"

    def test_inert_fault_is_masked_undetected(self, campaign):
        result = campaign.run_experiment(
            FaultSpec("inert.alu", 1), PERMANENT, inject_at=0)
        assert result.masked
        assert not result.detected
        assert result.quadrant == "masked_undetected"

    def test_mult_high_bits_masked_but_detected(self, campaign):
        result = campaign.run_experiment(
            FaultSpec("ex.mul.product", 1 << 55), PERMANENT, inject_at=0)
        assert result.masked  # upper product half is architecturally dead
        assert result.detected  # but the modulo checker sees all 64 bits
        assert result.quadrant == "masked_detected"

    def test_checker_internal_fault_is_dme(self, campaign):
        result = campaign.run_experiment(
            FaultSpec("chk.adder.sum", 1 << 9), PERMANENT, inject_at=0)
        assert result.masked
        assert result.detected

    def test_hang_fault_unmasked_watchdog(self, campaign):
        result = campaign.run_experiment(
            FaultSpec("ctl.hang", 1), PERMANENT, inject_at=2)
        assert not result.masked
        assert result.hung
        assert result.checker == "watchdog"

    def test_latency_recorded_for_detections(self, campaign):
        result = campaign.run_experiment(
            FaultSpec("ex.alu.result", 1), TRANSIENT, inject_at=1)
        assert result.latency_instructions is not None
        assert result.latency_cycles >= 0

    def test_computation_latency_is_immediate(self, campaign):
        """Sec 4.2: computation errors detected right at the instruction."""
        result = campaign.run_experiment(
            FaultSpec("ex.alu.result", 1), PERMANENT, inject_at=0)
        assert result.latency_instructions <= 2

    def test_transient_and_permanent_masking_agree(self, campaign):
        """The activation methodology makes masked rates duration-
        independent (Sec. 4.1.2): held-until-impact transients behave like
        permanents for the masking axis."""
        spec = FaultSpec("ex.mul.product", 1 << 60)
        transient = campaign.run_experiment(spec, TRANSIENT, inject_at=0)
        permanent = campaign.run_experiment(spec, PERMANENT, inject_at=0)
        assert transient.masked == permanent.masked


class TestSummary:
    def test_quadrants_sum_to_total(self, campaign):
        summary = campaign.run(experiments=40, duration=TRANSIENT)
        assert summary.total == 40
        assert (summary.unmasked_undetected + summary.unmasked_detected +
                summary.masked_undetected + summary.masked_detected) == 40
        fractions = summary.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9

    def test_checker_counts_match_detections(self, campaign):
        summary = campaign.run(experiments=40, duration=TRANSIENT)
        assert sum(summary.checker_counts.values()) == (
            summary.unmasked_detected + summary.masked_detected)

    def test_summary_add_bookkeeping(self):
        summary = CampaignSummary(duration=TRANSIENT)
        summary.add(ExperimentResult(
            spec=None, duration=TRANSIENT, inject_at=0, masked=False,
            detected=True, checker="parity"))
        summary.add(ExperimentResult(
            spec=None, duration=TRANSIENT, inject_at=0, masked=False,
            detected=False))
        assert summary.unmasked_detected == 1
        assert summary.unmasked_undetected == 1
        assert summary.unmasked_coverage == 0.5
        assert summary.results[1].silent

    def test_empty_summary_defaults(self):
        summary = CampaignSummary(duration=PERMANENT)
        assert summary.fractions() == {}
        assert summary.unmasked_coverage == 1.0
        assert summary.masked_detection_rate == 0.0

    def test_reproducible_with_seed(self):
        a = Campaign(embedded=embed_program(SMALL), seed=9).run(experiments=25)
        b = Campaign(embedded=embed_program(SMALL), seed=9).run(experiments=25)
        assert a.fractions() == b.fractions()


class TestLifetime:
    def test_dropped_campaign_is_freed_after_an_undecodable_fetch(self):
        """Regression: the shared decode memo cached the DecodeError it
        caught, whose traceback pinned the faulty core - and through it
        the whole campaign - for the life of the process."""
        _DECODE_CACHE.clear()
        campaign = Campaign(embedded=embed_program(SMALL), seed=1)
        result = campaign.run_experiment(FaultSpec("if.inst", 1 << 27),
                                         TRANSIENT, inject_at=5)
        assert result.detected
        assert any(isinstance(hit, DecodeError)
                   for hit in _DECODE_CACHE.values())
        alive = weakref.ref(campaign)
        del campaign
        gc.collect()
        assert alive() is None

    def test_decode_cached_raises_a_fresh_error_each_time(self):
        word = 0x08000000  # an unassigned primary opcode
        errors = []
        for _ in range(2):
            with pytest.raises(DecodeError) as excinfo:
                decode_cached(word)
            errors.append(excinfo.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])
        assert _DECODE_CACHE[word].__traceback__ is None
