"""Tests for the masking-timeline analyzer (:mod:`repro.analysis.masking`
and its dynamic layer, :mod:`repro.faults.timeline`).

The soundness suite differences every axis a :class:`TimelineVerdict`
*proves* against a cold scalar reference run of the same (point, time,
duration).  A single disagreement here means a timeline proof (and the
ARG019 cross-check and the engine lanes built on it) cannot be trusted.
"""

import pytest

from repro.analysis import AnalysisReport, analyze_program, recover_cfg
from repro.analysis.coverage import build_static_coverage_map
from repro.analysis.masking import (
    MaskingTimeline,
    TimelineVerdict,
    audit_timeline,
    check_dead_writes,
    compute_liveness,
    timeline_summary,
)
from repro.asm import assemble, parse
from repro.faults.campaign import Campaign
from repro.faults.model import PERMANENT, TRANSIENT, FaultSpec
from repro.runner.journal import result_to_record
from repro.toolchain import embed_program
from repro.workloads import WORKLOADS

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

DEAD = """
start:  li   r3, 1
        li   r3, 2
        la   r6, buf
        sw   r3, 0(r6)
        halt
        .data
buf:    .word 0
"""

BACK_TO_BACK_COMPARES = """
start:  li   r1, 1
        sfgtsi r1, 0
        sfgtsi r1, 5
        bf   out
        nop
out:    halt
"""


def analyze_source(source, **kwargs):
    kwargs.setdefault("check_signatures", False)
    return analyze_program(assemble(parse(source)), **kwargs)


@pytest.fixture(scope="module")
def campaign():
    return Campaign(embedded=embed_program(SMALL), seed=1)


@pytest.fixture(scope="module")
def timeline(campaign):
    return campaign.timeline()


class TestLiveness:
    def test_overwritten_register_not_live_in(self):
        cfg = recover_cfg(assemble(parse(DEAD)))
        liveness = compute_liveness(cfg)
        entry = liveness[min(cfg.blocks)]
        live_in, live_out = entry
        # r3 and r6 are written before any read on the only path.
        assert 3 not in live_in
        assert 6 not in live_in

    def test_loop_carried_register_live(self):
        cfg = recover_cfg(assemble(parse(SMALL)))
        liveness = compute_liveness(cfg)
        # The loop body reads r1/r2/r6 before (re)writing them, so some
        # block carries them in its live-in set.
        assert any(1 in live_in and 2 in live_in and 6 in live_in
                   for live_in, _ in liveness.values())

    def test_open_ended_blocks_keep_everything_observable(self):
        cfg = recover_cfg(assemble(parse(SMALL)))
        liveness = compute_liveness(cfg)
        # The halt block's live-out is the full location set: the final
        # architectural-state comparison reads every register.
        assert any(len(live_out) >= 32 for _, live_out in liveness.values())


class TestDeadWrites:
    def test_arg018_fires_on_synthetic_dead_write(self):
        report = AnalysisReport()
        check_dead_writes(recover_cfg(assemble(parse(DEAD))), report)
        assert report.codes() == {"ARG018"}
        [diag] = report.diagnostics
        assert "r3" in diag.message
        assert diag.address is not None and diag.block is not None

    def test_arg018_is_a_warning_in_the_pipeline(self):
        report = analyze_source(DEAD)
        assert "ARG018" in report.codes()
        assert report.ok  # a dead write degrades nothing, it just wastes

    def test_flag_rewrites_exempt(self):
        # Back-to-back compares clobber the flag; that is idiomatic, not
        # a dead write.
        report = analyze_source(BACK_TO_BACK_COMPARES)
        assert "ARG018" not in report.codes()

    def test_clean_program_has_no_dead_writes(self):
        report = analyze_source(SMALL)
        assert "ARG018" not in report.codes()

    @pytest.mark.parametrize("name", ["mesa", "g721_dec"])
    def test_bundled_workloads_clean(self, name):
        report = AnalysisReport()
        program = WORKLOADS[name].build_embedded().program
        check_dead_writes(recover_cfg(program), report)
        assert report.by_code("ARG018") == []


class TestTimelineVerdicts:
    def test_inert_points_masked_undetected(self, timeline, campaign):
        specs = [p.spec for p in campaign.points
                 if p.spec.target.startswith("inert.")]
        assert specs
        for spec in specs[:4]:
            v = timeline.verdict(spec, duration=TRANSIENT, inject_at=0)
            assert (v.masked, v.detected) == (True, False)
            assert v.rule == "inert"

    def test_checker_internal_faults_self_detect(self, timeline, campaign):
        spec = next(p.spec for p in campaign.points
                    if p.spec.target == "chk.adder.sum")
        v = timeline.verdict(spec, duration=TRANSIENT, inject_at=0)
        assert v.complete and v.masked and v.detected
        assert v.checker == "computation"

    def test_out_of_range_time_is_unknown(self, timeline, campaign):
        # Inert points are proven masked at any time; pick a live one.
        spec = next(p.spec for p in campaign.points
                    if not p.spec.target.startswith(("inert.", "chk.")))
        v = timeline.verdict(spec, duration=TRANSIENT,
                             inject_at=timeline.length + 10)
        assert v.masked is None and v.detected is None
        assert v.rule == "unknown"

    def test_verdict_axes_shape(self, timeline, campaign):
        for point in campaign.points[::7]:
            for duration in (TRANSIENT, PERMANENT):
                v = timeline.verdict(point.spec, duration=duration,
                                     inject_at=3,
                                     double_bit=point.double_bit)
                assert isinstance(v, TimelineVerdict)
                assert v.masked in (True, False, None)
                assert v.detected in (True, False, None)
                if v.checker is not None:
                    assert v.detected is True

    def test_timeline_built_from_program_and_records(self, campaign):
        rebuilt = MaskingTimeline(campaign.embedded.program,
                                  campaign.golden_trace())
        assert rebuilt.length == campaign.golden_length

    def test_lsu_addr_high_bits_are_masked(self, timeline):
        """Loads and stores use only ``address & ADDR_MASK``: a flip above
        it never reaches architectural state, but the address checker
        still sees it at the first memory op."""
        high = timeline.verdict(FaultSpec("lsu.addr", 1 << 31),
                                duration=PERMANENT, inject_at=0)
        assert (high.masked, high.detected) == (True, True)
        assert high.rule == "lsu-addr-high"
        assert high.checker == "computation"
        low = timeline.verdict(FaultSpec("lsu.addr", 1 << 26),
                               duration=PERMANENT, inject_at=0)
        assert (low.masked, low.detected) == (None, True)
        assert low.rule == "lsu-addr"

    @pytest.mark.parametrize("duration", [TRANSIENT, PERMANENT])
    def test_straddling_product_mask_is_not_masked(self, timeline, campaign,
                                                   duration):
        """Regression: a product mask straddling bit 31/32 also flips the
        written low word, so ``mul-upper`` must not claim it masked."""
        spec = FaultSpec("ex.mul.product", 0b11 << 31)
        verdict = timeline.verdict(spec, duration=duration, inject_at=2)
        reference = Campaign(embedded=campaign.embedded, seed=1,
                             use_checkpoints=False)
        want = reference.run_experiment(spec, duration, inject_at=2)
        assert not want.masked
        assert verdict.masked is False and verdict.rule == "mul-low"
        assert verdict.activated_at == want.activated_at
        engine = Campaign(embedded=campaign.embedded, seed=1)
        got = engine.run_experiment(spec, duration, inject_at=2)
        assert result_to_record(got) == result_to_record(want)


class TestTimelineAudit:
    def test_no_arg019_on_small_program(self, timeline, campaign):
        coverage_map = build_static_coverage_map(campaign.embedded,
                                                 points=campaign.points)
        report = AnalysisReport()
        audit_timeline(timeline, coverage_map, report, samples=3)
        assert report.by_code("ARG019") == []

    def test_summary_shape(self, timeline, campaign):
        coverage_map = build_static_coverage_map(campaign.embedded,
                                                 points=campaign.points)
        stats = timeline_summary(timeline, coverage_map, samples=3)
        assert set(stats) == {TRANSIENT, PERMANENT, "times"}
        for duration in (TRANSIENT, PERMANENT):
            row = stats[duration]
            assert row["complete"] + row["partial"] + row["unknown"] \
                == row["probes"] > 0
            assert 0.0 <= row["complete_fraction"] <= 1.0
            assert sum(row["rules"].values()) == row["probes"]
        # The analyzer must prove something, or the timeline is pointless.
        assert stats[TRANSIENT]["complete_fraction"] > 0.3


# -- differential soundness: every proof vs a real simulation run ----------

#: Cheapest four workloads by golden-trace length; diversity of the
#: instruction mix matters more than raw probe count here.
SOUNDNESS_WORKLOADS = ("mesa", "g721_dec", "rasta", "g721_enc")

#: Per-workload budget of (verdict, simulation) comparisons.
SOUNDNESS_BUDGET = 6
#: At most this many probes share one proof rule, to spread coverage.
PER_RULE_CAP = 2


def _proven_probes(campaign, timeline):
    """Deterministically pick proven (spec, duration, time) probes with
    rule diversity: walk the point population in order, stratified
    injection times, capping repeats of the same proof rule."""
    times = [int(timeline.length * f) for f in (0.15, 0.5, 0.8)]
    per_rule = {}
    picked = []
    for duration in (TRANSIENT, PERMANENT):
        for point in campaign.points:
            for t in times:
                v = timeline.verdict(point.spec, duration=duration,
                                     inject_at=t,
                                     double_bit=point.double_bit)
                if v.masked is None and v.detected is None:
                    continue
                key = (duration, v.rule)
                if per_rule.get(key, 0) >= PER_RULE_CAP:
                    continue
                per_rule[key] = per_rule.get(key, 0) + 1
                picked.append((point.spec, duration, t, v))
                if len(picked) >= SOUNDNESS_BUDGET:
                    return picked
    return picked


@pytest.mark.parametrize("name", SOUNDNESS_WORKLOADS)
def test_soundness_vs_simulation(name):
    """No axis the timeline proves may ever disagree with the cold scalar
    reference, and wherever the engine settles an axis from the verdict
    its whole record must equal the reference record."""
    embedded = WORKLOADS[name].build_embedded()
    engine = Campaign(embedded=embedded, seed=7)
    reference = Campaign(embedded=embedded, seed=7, use_checkpoints=False)
    timeline = engine.timeline()
    probes = _proven_probes(engine, timeline)
    assert probes, "the analyzer proved nothing on %s" % name
    for spec, duration, t, verdict in probes:
        result = reference.run_experiment(spec, duration, inject_at=t)
        context = "%s %s@%d rule=%s" % (spec, duration, t, verdict.rule)
        if verdict.masked is not None:
            assert result.masked == verdict.masked, context
        if verdict.detected is not None:
            assert result.detected == verdict.detected, context
        if verdict.detected and verdict.checker is not None:
            assert result.checker == verdict.checker, context
        if verdict.outcomes() != (None, None):
            got = engine.run_experiment(spec, duration, inject_at=t)
            assert result_to_record(got) == result_to_record(result), context
