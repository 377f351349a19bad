"""Rule-coverage oracle for the engine's first planning stage.

The batched engine settles a lane from a masking-timeline verdict, with
no simulation, wherever :func:`repro.cpu.batched.settled` says the proof
fixes the scalar output.  Every ``(rule, duration)`` pair it does that
for is probed here at least once, and the engine's whole journal record
must equal the cold scalar reference's
(``Campaign(use_checkpoints=False)``).

Probes are picked per *target*, not by point weight (a weighted draw is
mostly ``state.rf.value``): every signal of the injection population,
with single-bit masks and within-width multi-bit masks the population
does not sample (such as a product mask straddling bit 31/32), on every
register or index, at stratified injection times.  Programs are visited
short ones first.  A short program probes each pair it reaches; a long
one, where every reference run replays tens of thousands of
instructions twice, probes the pairs no earlier program reached plus
``LONG_EXTRA`` of the least-probed others.

Tier-1 runs the small, stress and fuzz programs plus mesa.  With
``ARGUS_ORACLE_WORKLOADS=all`` every bundled workload follows, and the
per-rule hit counts are printed at the end (run with ``-s``), so a rule
no probe reaches shows up.
"""

import os

import pytest

from repro.cpu.batched import settled
from repro.faults.campaign import Campaign
from repro.faults.model import PERMANENT, TRANSIENT, FaultSpec
from repro.faults.points import signal_rows
from repro.runner.journal import result_to_record
from repro.workloads import WORKLOADS
from tests.test_batched import _embedded

_ALL = os.environ.get("ARGUS_ORACLE_WORKLOADS") == "all"
SHORT = ("small", "stress", "fuzz")
LONG = ("mesa",) + (tuple(sorted(set(WORKLOADS) - {"mesa"})) if _ALL else ())
#: Extra already-probed pairs per long program, least-probed first.
LONG_EXTRA = 4 if _ALL else 2

#: Every timeline rule whose verdict settles a lane: the hit-count
#: table prints each one, so a rule no probe reaches reads 0 there.
SETTLING_RULES = (
    "inert", "alu-result", "alu-result/drive-absent",
    "btarget/drive-absent", "cfc-compare", "cfc-latch-stuck",
    "checker-internal", "checker-internal/drive-absent",
    "ctl-flag/drive-absent", "decode-chk/spare", "decode-fu/spare",
    "decode-shs", "decode-shs/spare", "div-quotient",
    "div-quotient/drive-absent", "div-remainder",
    "div-remainder/drive-absent", "ex-flag", "ex-flag/drive-absent",
    "fetch-word/spare", "flag-overwritten", "flag-silent", "load-data",
    "load-data/drive-absent", "lsu-addr-high", "lsu-addr/drive-absent",
    "lsu-mem-addr/drive-absent", "mul-low", "mul-upper",
    "mul/drive-absent", "op-bus/drive-absent", "parity-meta",
    "parity-meta/drive-absent", "rf-dead-window", "rf-parity-link",
    "rf-parity-read-first", "rf-parity-rewritten", "rf-parity-stuck",
    "rf-parity-unread", "rf-untouched", "rf-zero", "shs-file", "shs-tag",
    "shs-tag/drive-absent", "store-data", "store-data/drive-absent",
    "store-waddr", "store-waddr/drive-absent", "wb-port",
    "wb-port/drive-absent",
)

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


def _settling_probes(campaign):
    """The first candidate per settled (rule, duration) pair, in
    candidate order."""
    timeline = campaign.timeline()
    specs = _specs(campaign)
    first = {}
    for duration, t, spec in ((duration, t, spec)
                              for duration in (TRANSIENT, PERMANENT)
                              for t in _times(timeline.length)
                              for spec in specs):
        verdict = timeline.verdict(spec, duration, t)
        if settled(verdict) != (None, None):
            first.setdefault((verdict.rule, duration), (spec, duration, t))
    return first


def _program(name):
    if name in SHORT:
        return _embedded(name)
    return WORKLOADS[name].build_embedded()


@pytest.mark.parametrize("name", SHORT + LONG)
def test_settled_lanes_match_reference(name):
    embedded = _program(name)
    engine = Campaign(embedded=embedded, seed=11)
    reference = Campaign(embedded=embedded, seed=11, use_checkpoints=False)
    found = _settling_probes(engine)
    assert found, "no timeline rule settles a lane on %s" % name
    keys = list(found)
    if name not in SHORT:
        fresh = [key for key in keys if not HITS.get(key)]
        seen = sorted((key for key in keys if HITS.get(key)),
                      key=lambda key: HITS[key])
        keys = fresh + seen[:LONG_EXTRA]
    probes = [found[key] for key in keys]
    got = engine._run_entries(probes)
    assert engine.perf["timeline_lanes"] > 0 or not probes
    for key, probe, result in zip(keys, probes, got):
        want = reference.run_experiment(*probe)
        assert result_to_record(result) == result_to_record(want), (
            "%s rule=%s %s %s@%d" % (name, key[0], probe[0], key[1],
                                     probe[2]))
        HITS[key] = HITS.get(key, 0) + 1


def test_rule_hit_counts():
    """Print per-(rule, duration) probe counts.  Every rule probed must
    be listed in ``SETTLING_RULES``, and the rules behind the engine's
    main savings must have been probed."""
    if not HITS:
        pytest.skip("run with the per-program oracle tests")
    width = max(len(rule) for rule in SETTLING_RULES)
    print("\ntimeline rules settling engine lanes, probes per duration:")
    for rule in SETTLING_RULES:
        print("  %-*s  transient %3d  permanent %3d" % (
            width, rule, HITS.get((rule, TRANSIENT), 0),
            HITS.get((rule, PERMANENT), 0)))
    probed = {rule for rule, _ in HITS}
    assert probed <= set(SETTLING_RULES), probed - set(SETTLING_RULES)
    for rule in ("inert", "rf-untouched", "rf-dead-window", "rf-zero",
                 "checker-internal", "checker-internal/drive-absent",
                 "alu-result", "mul-low", "mul-upper", "ex-flag", "wb-port",
                 "store-data", "lsu-addr-high", "rf-parity-link"):
        assert rule in probed, rule
