"""Rule-coverage oracle for the engine's one planner.

The batched engine plans every lane from one masking-timeline verdict:
:meth:`~repro.faults.timeline.TimelineVerdict.outcomes` settles the
lanes whose proof fixes the scalar output, and every other lane is
simulated from the verdict's ``start``.  A wrong axis or a wrong start
is a wrong record, so every ``(rule, duration)`` pair the timeline
returns is probed here at least once, and the engine's whole journal
record must equal the cold scalar reference's
(``Campaign(use_checkpoints=False)``).

Probes are picked per *target*, not by point weight (a weighted draw is
mostly ``state.rf.value``): every signal of the injection population,
with single-bit masks and within-width multi-bit masks the population
does not sample (such as a product mask straddling bit 31/32), on every
register or index, at stratified injection times, for transient,
permanent and intermittent faults.  Programs are visited short ones
first.  A short program probes each pair it reaches; a long one, where
every reference run replays tens of thousands of instructions twice,
probes the pairs no earlier program reached plus ``LONG_EXTRA`` of the
least-probed others.

Link tagging, a call's block end in its delay slot, reads and rewrites
r9 outside the retire records, and the checker's instruction copy
reaches architecture only through it.  So every program with a golden
call is also probed at its last call's step, delay slot and the step
after, on r9's value and parity and on the ``id.word.chk`` and
``if.inst`` words, with every mask, transient and permanent.

Tier-1 runs the small and stress programs, the fuzz programs of
``FUZZ_SEEDS`` and mesa.  With ``ARGUS_ORACLE_WORKLOADS=all`` every
bundled workload and 16 more fuzz seeds follow, and the per-rule hit
counts are printed at the end (run with ``-s``), so a rule no probe
reaches shows up.
"""

import os

import pytest

from repro.faults.campaign import Campaign
from repro.faults.model import INTERMITTENT, PERMANENT, TRANSIENT, FaultSpec
from repro.faults.points import signal_rows
from repro.isa.registers import LINK_REG
from repro.runner.journal import result_to_record
from repro.toolchain import embed_program
from repro.workloads import WORKLOADS
from repro.workloads.fuzz import generate_program
from tests.test_batched import _embedded

_ALL = os.environ.get("ARGUS_ORACLE_WORKLOADS") == "all"
#: ``generate_program`` seeds besides the "fuzz" program's 1234.
FUZZ_SEEDS = (7, 99) + (tuple(range(3001, 3017)) if _ALL else ())
SHORT = ("small", "stress", "fuzz") + tuple("fuzz-%d" % seed
                                            for seed in FUZZ_SEEDS)
LONG = ("mesa",) + (tuple(sorted(set(WORKLOADS) - {"mesa"})) if _ALL else ())
#: Extra already-probed pairs per long program, least-probed first.
LONG_EXTRA = 4 if _ALL else 2
DURATIONS = (TRANSIENT, PERMANENT, INTERMITTENT)

#: Every timeline rule whose verdict settles a lane (the rest of the
#: experiment is simulated from the verdict's start).
SETTLING_RULES = (
    "inert", "alarm-only", "alu-result", "alu-result/drive-absent",
    "btarget", "btarget/drive-absent", "cfc-compare", "cfc-latch-stuck",
    "checker-internal", "checker-internal/drive-absent", "ctl-flag",
    "ctl-flag/drive-absent", "decode-chk/no-call", "decode-chk/spare",
    "decode-fu/spare",
    "decode-shs", "decode-shs/spare", "div-quotient",
    "div-quotient/drive-absent", "div-remainder",
    "div-remainder/drive-absent", "ex-flag", "ex-flag/drive-absent",
    "fetch-word/spare", "flag-branch", "flag-overwritten", "flag-silent",
    "hang", "load-data", "load-data/drive-absent", "lsu-addr-high",
    "lsu-addr/drive-absent", "lsu-mem-addr/drive-absent", "mul-low",
    "mul-upper", "mul/drive-absent", "op-bus/drive-absent", "parity-meta",
    "parity-meta/drive-absent", "rf-dead-window", "rf-parity-link",
    "rf-parity-read-first", "rf-parity-rewritten", "rf-parity-stuck",
    "rf-parity-unread", "rf-untouched", "rf-zero", "shs-file", "shs-tag",
    "shs-tag/drive-absent", "state-pc", "store-data",
    "store-data/drive-absent", "store-waddr", "store-waddr/drive-absent",
    "wb-port", "wb-port/drive-absent",
)

#: Every timeline rule that settles no lane and only places the start
#: of the simulated ones.
START_RULES = (
    "decode-chk", "decode-fu", "lsu-addr", "lsu-mem-addr", "op-bus",
    "rf-read-first", "unknown",
)

#: Targets that link tagging reads or rewrites (r9's cells) or that
#: reach it (the checker's instruction copy, and the fetched word that
#: feeds it), probed at a call's delay slot.
LINK_TARGETS = ("state.rf.value", "state.rf.parity", "id.word.chk",
                "if.inst")

#: Probes run so far per (rule, duration), across the programs.
HITS = {}


def _masks(width, offset):
    """Every single-bit mask of one signal, plus within-width multi-bit
    masks: an adjacent pair across the middle and all bits."""
    masks = [1 << bit for bit in range(offset, offset + width)]
    if width > 1:
        masks += [0b11 << (offset + width // 2 - 1),
                  ((1 << width) - 1) << offset]
    return masks


def _specs(campaign):
    """Every population signal's masks on every index (r0 included: the
    state applier skips it), plus the inert points."""
    specs = [point.spec for point in campaign.points
             if point.spec.target.startswith("inert.")]
    for row in signal_rows():
        indices = row.indices or (None,)
        if row.target.startswith("state.rf."):
            indices = (0,) + indices
        for mask in _masks(row.width, row.bit_offset):
            specs.extend(FaultSpec(row.target, mask, index=index,
                                   is_state=row.is_state)
                         for index in indices)
    return specs


def _times(length):
    """Stratified injection times and their next two steps."""
    bases = {0, length // 7, length // 2, (4 * length) // 5, length - 3}
    return sorted({t + k for t in bases for k in range(3)
                   if 0 <= t + k < length})


def _rule_probes(campaign):
    """The first candidate per (rule, duration) pair, in candidate
    order."""
    timeline = campaign.timeline()
    specs = _specs(campaign)
    first = {}
    for duration, t, spec in ((duration, t, spec)
                              for duration in DURATIONS
                              for t in _times(timeline.length)
                              for spec in specs):
        verdict = timeline.verdict(spec, duration, t)
        first.setdefault((verdict.rule, duration), (spec, duration, t))
    return first


def _program(name):
    if name.startswith("fuzz-"):
        return embed_program(generate_program(int(name[len("fuzz-"):])))
    if name in SHORT:
        return _embedded(name)
    return WORKLOADS[name].build_embedded()


@pytest.mark.parametrize("name", SHORT + LONG)
def test_settled_lanes_match_reference(name):
    embedded = _program(name)
    engine = Campaign(embedded=embedded, seed=11)
    reference = Campaign(embedded=embedded, seed=11, use_checkpoints=False)
    found = _rule_probes(engine)
    keys = list(found)
    if name not in SHORT:
        fresh = [key for key in keys if not HITS.get(key)]
        seen = sorted((key for key in keys if HITS.get(key)),
                      key=lambda key: HITS[key])
        keys = fresh + seen[:LONG_EXTRA]
    probes = [found[key] for key in keys]
    got = engine._run_entries(probes)
    assert engine.perf["lanes"] == 2 * len(probes)
    for key, probe, result in zip(keys, probes, got):
        want = reference.run_experiment(*probe)
        assert result_to_record(result) == result_to_record(want), (
            "%s rule=%s %s %s@%d" % (name, key[0], probe[0], key[1],
                                     probe[2]))
        HITS[key] = HITS.get(key, 0) + 1


def _link_probes(campaign):
    """Every mask of ``LINK_TARGETS`` (r9 for the register cells) at the
    last golden call's step ``c``, its delay slot ``c + 1`` and ``c + 2``,
    transient and permanent; empty without a golden call."""
    timeline = campaign.timeline()
    calls = timeline.sites["call"]
    if not calls:
        return []
    specs = [FaultSpec(row.target, mask,
                       index=LINK_REG if row.is_state else None,
                       is_state=row.is_state)
             for row in signal_rows() if row.target in LINK_TARGETS
             for mask in _masks(row.width, row.bit_offset)]
    times = [t for t in range(calls[-1], calls[-1] + 3)
             if t < timeline.length]
    return [(spec, duration, t) for duration in (TRANSIENT, PERMANENT)
            for t in times for spec in specs]


@pytest.mark.parametrize("name", SHORT + LONG)
def test_call_delay_slot_probes(name):
    """Engine record == reference record at the last call's delay slot.

    A short program runs every probe.  A long one, where each reference
    run replays over a hundred thousand instructions twice, runs the
    first probe of each (target, duration, rule) triple."""
    embedded = _program(name)
    engine = Campaign(embedded=embedded, seed=11)
    probes = _link_probes(engine)
    if not probes:
        pytest.skip("no golden call")
    timeline = engine.timeline()
    rules = [timeline.verdict(*probe).rule for probe in probes]
    if name not in SHORT:
        first = {}
        for probe, rule in zip(probes, rules):
            first.setdefault((probe[0].target, probe[1], rule),
                             (probe, rule))
        probes = [probe for probe, _ in first.values()]
        rules = [rule for _, rule in first.values()]
    reference = Campaign(embedded=embedded, seed=11, use_checkpoints=False)
    got = engine._run_entries(probes)
    for probe, rule, result in zip(probes, rules, got):
        want = reference.run_experiment(*probe)
        assert result_to_record(result) == result_to_record(want), (
            "%s rule=%s %s %s@%d" % (name, rule, probe[0], probe[1],
                                     probe[2]))
        HITS[rule, probe[1]] = HITS.get((rule, probe[1]), 0) + 1


def test_rule_hit_counts():
    """Print per-(rule, duration) probe counts.  Every rule probed must
    be listed in ``SETTLING_RULES`` or ``START_RULES``, and the rules
    behind the engine's main savings must have been probed."""
    if not HITS:
        pytest.skip("run with the per-program oracle tests")
    width = max(len(rule) for rule in SETTLING_RULES + START_RULES)
    for title, rules in (("settling lanes", SETTLING_RULES),
                         ("placing lane starts only", START_RULES)):
        print("\ntimeline rules %s, probes per duration:" % title)
        for rule in rules:
            print("  %-*s  %s" % (width, rule, "  ".join(
                "%s %3d" % (duration, HITS.get((rule, duration), 0))
                for duration in DURATIONS)))
    probed = {rule for rule, _ in HITS}
    listed = set(SETTLING_RULES) | set(START_RULES)
    assert probed <= listed, probed - listed
    for rule in ("inert", "alarm-only", "rf-untouched", "rf-dead-window",
                 "rf-zero", "checker-internal",
                 "checker-internal/drive-absent", "alu-result", "mul-low",
                 "mul-upper", "ex-flag", "wb-port", "store-data",
                 "lsu-addr-high", "rf-parity-link", "btarget", "ctl-flag",
                 "hang", "rf-read-first", "op-bus", "unknown",
                 "decode-chk/no-call"):
        assert rule in probed, rule
