"""Per-(point, injection-time) masking/detection timelines.

The static coverage audit (:mod:`repro.analysis.coverage`) classifies
every injection point once per workload; the masking timeline sharpens
that to a verdict per **(point, injection time)** by abstract
interpretation over two complementary views of the same program:

* a **static layer** over the recovered CFG (this module): backward
  may-liveness of registers and the compare flag, whose dead-write
  windows feed the ARG018 lint (a register written but provably
  overwritten before any read on every path);
* a **dynamic layer** over the golden retire trace
  (:mod:`repro.faults.timeline`, re-exported here):
  :class:`MaskingTimeline` indexes the exact instruction retired at
  every golden step and proves :class:`TimelineVerdict` quadrant facts
  for a fault injected at step ``t``.  The campaign engine consults the
  same verdicts first for every experiment; the dynamic layer lives
  with the fault package so campaign processes never load the static
  verifier.

This module adds the cross-checks over those verdicts: ARG019 compares
them against the per-point audit classes, and :func:`timeline_summary`
reports their completeness for ``argus-repro audit --timeline``
(:meth:`repro.faults.campaign.Campaign.timeline` builds the timeline
from a campaign's golden run).
"""

from repro.analysis.dataflow import FLAG, instr_reads, instr_writes
from repro.faults.model import INJECT_FRACTION, PERMANENT, TRANSIENT
from repro.faults.timeline import MaskingTimeline, TimelineVerdict
from repro.isa import registers

_ALL_LOCATIONS = frozenset(range(registers.NUM_REGS)) | {FLAG}


# ---------------------------------------------------------------------------
# Static layer: backward may-liveness + dead-write windows (ARG018).
# ---------------------------------------------------------------------------

def compute_liveness(cfg):
    """Backward may-liveness over the recovered CFG.

    Returns ``{block.start: (live_in, live_out)}`` where each set holds
    register indices (plus :data:`~repro.analysis.dataflow.FLAG`) that
    *may* be read before being overwritten on some path from that
    program point.  Blocks without recovered successors (halt, returns,
    unresolved indirects) conservatively treat every location as
    observable: the final architectural-state comparison reads all of
    them, and a return's continuation is unknown.
    """
    blocks = list(cfg.blocks.values())
    preds = {block.start: [] for block in blocks}
    succs = {}
    open_ended = set()
    for block in blocks:
        out = [s for s in cfg.successors(block) if s in cfg.blocks]
        succs[block.start] = out
        if not out or block.kind in ("indirect", "indirect_call", "halt", None):
            open_ended.add(block.start)
        for s in out:
            preds[s].append(block.start)

    def transfer(block, live_out):
        live = set(live_out)
        for instr in reversed(block.instrs):
            if instr is None:
                # Undecodable word: unknown effect, assume it reads all.
                return set(_ALL_LOCATIONS)
            live.difference_update(instr_writes(instr))
            live.update(instr_reads(instr))
        return live

    live_in = {block.start: set() for block in blocks}
    live_out = {block.start: set(_ALL_LOCATIONS) if block.start in open_ended
                else set() for block in blocks}
    worklist = [block.start for block in blocks]
    by_start = cfg.blocks
    while worklist:
        start = worklist.pop()
        block = by_start[start]
        if start not in open_ended:
            out = set()
            for s in succs[start]:
                out |= live_in[s]
            live_out[start] = out
        new_in = transfer(block, live_out[start])
        if new_in != live_in[start]:
            live_in[start] = new_in
            worklist.extend(preds[start])
    return {start: (frozenset(live_in[start]), frozenset(live_out[start]))
            for start in live_in}


def check_dead_writes(cfg, report):
    """ARG018: registers written but provably overwritten before any read.

    Walks each block backward from its (fixpoint) live-out set; a write
    whose destination is not live immediately after it can never be
    observed on any path - dead code, or a toolchain bug.  Writes to r0
    (hard-wired) and the call-semantics link write are exempt; the flag
    is tracked but not reported (back-to-back compares are idiomatic).
    """
    liveness = compute_liveness(cfg)
    for block in cfg.blocks.values():
        if block.undecodable:
            continue
        __, live_out = liveness[block.start]
        live = set(live_out)
        addresses = list(block.addresses())
        for index in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[index]
            writes = instr_writes(instr)
            for location in writes:
                if location in live:
                    continue
                if location in (registers.ZERO_REG, FLAG):
                    continue
                if instr.is_call and location == registers.LINK_REG:
                    continue
                report.add(
                    "ARG018",
                    "dead write: r%d written by %s is overwritten before "
                    "any read on every path" % (location, instr.mnemonic),
                    address=addresses[index], block=block.start)
            live.difference_update(writes)
            live.update(instr_reads(instr))
    return report


# ---------------------------------------------------------------------------
# ARG019: timeline verdicts vs the per-point audit classes.
# ---------------------------------------------------------------------------

def _probe_times(length, samples=5):
    """Stratified injection times over the campaign's injection window,
    ``[0, INJECT_FRACTION * length)``."""
    horizon = max(int(length * INJECT_FRACTION), 1)
    if samples <= 1 or horizon == 1:
        return [0]
    times = sorted({(i * (horizon - 1)) // (samples - 1)
                    for i in range(samples)})
    return times


def audit_timeline(timeline, coverage_map, report,
                   durations=(TRANSIENT, PERMANENT), samples=5):
    """ARG019: every timeline verdict must refine its audit class.

    A per-(point, time) proof that *contradicts* the per-point
    classification means one of the two independent derivations is
    wrong: a masked-by-construction point proven to diverge, a detection
    proof naming a checker the audit says cannot fire, or a statically
    detected point proven silent.
    """
    from repro.analysis.coverage import DETECTED, MASKED

    times = _probe_times(timeline.length, samples=samples)
    for entry in coverage_map.entries:
        spec = _entry_spec(entry)
        for duration in durations:
            for t in times:
                v = timeline.verdict(spec, duration=duration, inject_at=t,
                                     double_bit=entry.double_bit)
                where = "%s mask=0x%x%s %s@%d" % (
                    entry.target, entry.mask,
                    "[%d]" % entry.index if entry.index is not None else "",
                    duration, t)
                if entry.outcome == MASKED and v.masked is False:
                    report.add("ARG019", "%s: timeline proves architectural "
                               "divergence (rule %s) but the audit class is "
                               "masked-by-construction" % (where, v.rule))
                elif v.detected and v.checker is not None and (
                        v.checker not in entry.possible_checkers):
                    report.add("ARG019", "%s: timeline pins detection on %s "
                               "(rule %s), which the audit proves cannot "
                               "fire here" % (where, v.checker, v.rule))
                elif entry.outcome == DETECTED and (
                        v.masked is False and v.detected is False):
                    report.add("ARG019", "%s: timeline proves silent "
                               "corruption (rule %s) on a statically "
                               "detected point" % (where, v.rule))
    return report


def _entry_spec(entry):
    from repro.faults.model import FaultSpec
    return FaultSpec(target=entry.target, mask=entry.mask,
                     index=entry.index, is_state=entry.is_state)


def timeline_summary(timeline, coverage_map, durations=(TRANSIENT, PERMANENT),
                     samples=5):
    """Aggregate verdict statistics for ``argus-repro audit --timeline``.

    Returns per-duration counts of fully-proven / partially-proven /
    unknown (point, time) probes plus a per-rule histogram - how much
    of the workload's outcome space the proofs settle.
    """
    times = _probe_times(timeline.length, samples=samples)
    summary = {}
    for duration in durations:
        complete = partial = unknown = 0
        rules = {}
        for entry in coverage_map.entries:
            spec = _entry_spec(entry)
            for t in times:
                v = timeline.verdict(spec, duration=duration, inject_at=t,
                                     double_bit=entry.double_bit)
                if v.complete:
                    complete += 1
                elif v.partial:
                    partial += 1
                else:
                    unknown += 1
                rules[v.rule] = rules.get(v.rule, 0) + 1
        total = complete + partial + unknown
        summary[duration] = {
            "probes": total,
            "complete": complete,
            "partial": partial,
            "unknown": unknown,
            "complete_fraction": complete / total if total else 0.0,
            "rules": dict(sorted(rules.items())),
        }
    summary["times"] = times
    return summary


__all__ = [
    "TimelineVerdict",
    "MaskingTimeline",
    "compute_liveness",
    "check_dead_writes",
    "audit_timeline",
    "timeline_summary",
]
