"""Per-(point, injection-time) verdicts over one index of the golden trace.

A faulted run is bit-identical to the golden run until the fault's first
tap evaluation or state impact, so the golden PC stream plus the
predecoded text give the *exact* instruction retired at every step.
:class:`MaskingTimeline` indexes that stream once per workload:

* **site columns** - ascending step lists per drive class (which ops
  evaluate which tap: operand reads, ALU results, loads, stores,
  compares, multiplies, divides, branches, ...);
* **per-register read and write lists** - operand-port reads from
  decode, writes from the retire records themselves (call link writes
  included);
* **branch facts** - per golden branch, whether its transfer is used and
  in which direction, with the delay-slot rule applied once.

Next-occurrence queries over those lists (and canonical-word change
memos) then prove quadrant facts for a fault injected at step ``t``.
Every :class:`TimelineVerdict` axis is a theorem, not an estimate: a
``masked=True`` claim means no execution of the faulted machine from
``t`` can diverge from the golden records or final architectural state,
``detected=True`` means the first checker evaluation that sees the fault
deterministically alarms (the owning checker is pinned).  Axes that
depend on data values (aliasing escapes, value masking through logic
ops) stay ``None`` and must be simulated.  So is the verdict's
``start``, the first step at which the faulted run can leave the golden
stream: the first evaluation of the tap, the first read of a dormant
register flip, or ``t`` itself.

The verdict is the batched engine's (:mod:`repro.cpu.batched`) only
plan for an experiment: :meth:`TimelineVerdict.outcomes` settles the
axes whose proof fixes the scalar output exactly, and every other lane
is simulated from ``start``.  :mod:`repro.analysis.masking` builds the
ARG018/ARG019 lints and ``argus-repro audit --timeline`` on the same
verdicts; ``tests/test_timeline_oracle.py`` probes every rule through
the engine against the cold scalar reference, and
``tests/test_masking.py`` checks the axes.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.argus.errors import (
    CHECKER_COMPUTATION,
    CHECKER_CONTROL_FLOW,
    CHECKER_MEMORY,
    CHECKER_PARITY,
    CHECKER_WATCHDOG,
)
from repro.argus.shs import canonical_word
from repro.faults.model import PERMANENT, TRANSIENT
from repro.isa import registers
from repro.isa.decode import decode_or_none
from repro.isa.opcodes import (
    COMPARE_OPS,
    CONDITIONAL_BRANCH_OPS,
    EXT_OPS,
    LOAD_OPS,
    MEM_OPS,
    MULDIV_OPS,
    Op,
    SHIFT_OPS,
    STORE_OPS,
)

WORD_MASK = 0xFFFFFFFF

#: Ops that drive the ``ex.alu.result`` tap (plain ALU + MOVHI; compares
#: and mul/div have their own taps).
ALU_RESULT_OPS = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR,
    Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.MOVHI,
}) | SHIFT_OPS | EXT_OPS

MUL_OPS = frozenset({Op.MUL, Op.MULU})
DIV_OPS = frozenset({Op.DIV, Op.DIVU})
ADDER_SUM_OPS = frozenset({Op.ADD, Op.ADDI, Op.SUB, Op.MOVHI})
ADDER_LOGIC_OPS = frozenset({Op.AND, Op.ANDI, Op.OR, Op.ORI, Op.XOR, Op.XORI})
RSSE_OUT_OPS = SHIFT_OPS | EXT_OPS
STORE_MERGE_OPS = frozenset({Op.SH, Op.SB})

#: Site columns: name -> predicate over a decoded instruction.
_SITE_CLASSES = (
    ("reads_ra", lambda i: i.reads_ra),
    ("reads_rb", lambda i: i.reads_rb),
    ("alu_result", lambda i: i.op in ALU_RESULT_OPS),
    ("mul", lambda i: i.op in MUL_OPS),
    ("div", lambda i: i.op in DIV_OPS),
    ("muldiv", lambda i: i.op in MULDIV_OPS),
    ("load", lambda i: i.op in LOAD_OPS),
    ("store", lambda i: i.op in STORE_OPS),
    ("mem", lambda i: i.op in MEM_OPS),
    ("sh_sb", lambda i: i.op in STORE_MERGE_OPS),
    ("add_sum", lambda i: i.op in ADDER_SUM_OPS),
    ("logic", lambda i: i.op in ADDER_LOGIC_OPS),
    ("shift_ext", lambda i: i.op in RSSE_OUT_OPS),
    ("compare", lambda i: i.op in COMPARE_OPS),
    ("cond_branch", lambda i: i.op in CONDITIONAL_BRANCH_OPS),
    ("branch", lambda i: i.is_branch),
    ("call", lambda i: i.is_call),
    ("wb_port", lambda i: i.writes_rd and not i.is_branch),
    ("sig", lambda i: i.op is Op.SIG),
)


@dataclass(frozen=True)
class TimelineVerdict:
    """Per-(point, injection-time) quadrant facts.

    Each axis is ``True``/``False`` when statically *proven* for every
    execution of the faulted machine, ``None`` when it depends on data
    values and must be simulated.  ``checker`` pins the first alarm's
    owner whenever ``detected`` is proven ``True``.  ``activated_at`` is
    set with ``masked=False`` only where the rule also proves the exact
    step of the first divergence a masking run reports, and ``hung``
    where that run hangs there.  ``start`` (>= the injection step) is
    proven too: no step before it can differ from the golden run, so a
    lane the verdict leaves open is simulated from there.
    """

    masked: Optional[bool]
    detected: Optional[bool]
    start: int
    checker: Optional[str] = None
    rule: str = ""
    detail: str = ""
    activated_at: Optional[int] = None
    hung: bool = False

    @property
    def complete(self):
        return self.masked is not None and self.detected is not None

    @property
    def partial(self):
        return not self.complete and (
            self.masked is not None or self.detected is not None)

    def outcomes(self):
        """The ``(masking, detection)`` lane outcomes this verdict fixes
        exactly, in the triples of :mod:`repro.faults.execution`; ``None``
        for a lane that must be simulated from ``start``.

        A proven *detection* is never settled: its latency needs the
        golden cycle/block counters.
        """
        masking = detection = None
        if self.masked:
            masking = (True, None, False)
        elif self.masked is False and self.activated_at is not None:
            masking = (False, self.activated_at, self.hung)
        if self.detected is False:
            detection = (False, None, False)
        return masking, detection


def _unknown(start):
    """Nothing proven; the lanes start at ``start``."""
    return TimelineVerdict(None, None, start=start, rule="unknown")


def _absent(t, rule):
    """Rule B: the tap is provably never evaluated (or its value is
    provably discarded) after ``t`` - the fault cannot act."""
    return TimelineVerdict(True, False, start=t, rule=rule + "/drive-absent")


class MaskingTimeline:
    """One index over a workload's golden retire trace (see module doc).

    Built once per campaign from the embedded program and its golden
    records; every :meth:`verdict` query is O(log steps).

    Public columns, all ascending step lists:

    * ``sites[name]`` for each drive class of ``_SITE_CLASSES``;
    * ``reg_reads[reg]`` / ``reg_writes[reg]`` per register;
    * ``branch_facts``, aligned with ``sites["branch"]``: one
      ``(category, taken, conditional)`` per golden branch (see
      :meth:`_branch_category`).
    """

    def __init__(self, program, records):
        self.program = program
        self.length = len(records)
        ptable = program.predecoded()
        text_base = program.text_base
        nwords = len(ptable)
        names = [name for name, _ in _SITE_CLASSES]
        sites = {name: [] for name in names}
        reg_reads = {}
        reg_writes = {}
        branch_facts = []
        instrs = []
        words = []
        unknown = []
        # Per text word: (its site columns, registers read), computed the
        # first time the golden run retires it.
        static = [None] * nwords
        # A branch retired in the delay slot of an *effective* branch has
        # its control effect dropped (only reachable via faults in golden
        # traces, but tracked for soundness).
        effective_prev = False
        for step, record in enumerate(records):
            index = (record[0] - text_base) >> 2
            if 0 <= index < nwords:
                word, instr = ptable[index]
            else:
                word = instr = None  # outside the text: unknown
            words.append(word)
            instrs.append(instr)
            if instr is None:
                unknown.append(step)
                effective_prev = False
                continue
            info = static[index]
            if info is None:
                info = static[index] = (
                    [sites[name] for name, member in _SITE_CLASSES
                     if member(instr)],
                    ([instr.ra] if instr.reads_ra else [])
                    + ([instr.rb] if instr.reads_rb else []))
            columns, reads = info
            for column in columns:
                column.append(step)
            for reg in reads:
                reg_reads.setdefault(reg, []).append(step)
            rd = record[1]
            if rd is not None and rd >= 0:
                reg_writes.setdefault(rd, []).append(step)
            if instr.is_branch:
                effective = not effective_prev
                branch_facts.append(self._branch_category(
                    step, instr, effective, records))
                effective_prev = effective
            else:
                effective_prev = False
        self.sites = sites
        self.reg_reads = reg_reads
        self.reg_writes = reg_writes
        self.branch_facts = branch_facts
        self._instrs = instrs
        self._words = words
        self._unknown = unknown
        self._word_steps = None
        self._canon_memo = {}
        self._call_memo = {}

    # -- table construction helpers ------------------------------------
    def _branch_category(self, step, instr, effective, records):
        """``(category, taken, conditional)`` for a golden branch step.

        *proof*: the transfer is used and redirects, so a ``ctl.btarget``
        flip provably diverges the retired PC stream; *clean*: the
        tapped target is provably discarded (a dropped delay-slot branch,
        with ``taken`` None, or a conditional that golden did not take);
        *degenerate*: a conditional whose target is its fall-through
        (``taken`` from the retire record's flag, which a branch never
        writes); *unknown*: the trace ends before the transfer shows.
        """
        conditional = instr.op in CONDITIONAL_BRANCH_OPS
        if not effective:
            return ("clean", None, conditional)
        if step + 2 >= self.length:
            return ("unknown", None, conditional)
        if not conditional:
            # Unconditional transfers always consume the target.
            return ("proof", True, conditional)
        pc = records[step][0]
        target = (pc + 4 * instr.offset) & WORD_MASK
        if target == (pc + 8) & WORD_MASK:
            # Both directions land on the same pc: a flipped *flag* is
            # invisible, a flipped *target* redirects iff taken.
            flag = records[step][3]
            taken = bool(flag) if instr.op is Op.BF else not flag
            return ("degenerate", taken, conditional)
        if records[step + 2][0] == target:
            return ("proof", True, conditional)
        return ("clean", False, conditional)

    # -- primitive queries ---------------------------------------------
    def next_site(self, key, t):
        """First step >= ``t`` of site column ``key``, or None."""
        return _next_in(self.sites[key], t)

    def next_read(self, reg, t):
        """First operand read of register ``reg`` at a step >= ``t``."""
        return _next_in(self.reg_reads.get(reg, ()), t)

    def next_write(self, reg, t):
        """First retire-record write of register ``reg`` at a step >= ``t``."""
        return _next_in(self.reg_writes.get(reg, ()), t)

    def branches_from(self, t):
        """``(step, (category, taken, conditional))`` for every golden
        branch at a step >= ``t``."""
        steps = self.sites["branch"]
        facts = self.branch_facts
        for i in range(bisect_left(steps, t), len(steps)):
            yield steps[i], facts[i]

    def _has_unknown(self, t):
        return bool(self._unknown) and _next_in(self._unknown, t) is not None

    def _next_link_call(self, t):
        """First golden call whose block end tags r9 at a step >= ``t``,
        or None: the first call at a step >= ``t - 1``.

        Link tagging (``CheckedCore._end_block``) is the one path by
        which the core reads and rewrites r9, and by which the checker's
        instruction copy reaches architecture, outside the retire
        records.  A call at step ``c`` ends its block in its delay slot,
        so the tagging runs at the end of step ``c + 1``, after a fault
        injected at ``c + 1`` has landed; hence the one-step look-back.
        """
        return self.next_site("call", t - 1)

    def _first_word_step(self, memo, test, mask, t):
        """First step >= ``t`` that retires a word ``w`` with
        ``test(w, mask)``, or None.

        The matching words' step lists are memoized per mask in
        ``memo``; the steps come from one per-word index of the trace.
        """
        matching = memo.get(mask)
        if matching is None:
            if self._word_steps is None:
                self._word_steps = {}
                for step, word in enumerate(self._words):
                    if word is not None:
                        self._word_steps.setdefault(word, []).append(step)
            matching = memo[mask] = [
                steps for word, steps in self._word_steps.items()
                if test(word, mask)]
        nexts = [step for step in (_next_in(steps, t) for steps in matching)
                 if step is not None]
        return min(nexts) if nexts else None

    def _next_canon_change(self, mask, t):
        """First step >= ``t`` whose word changes canonically under
        ``mask``, or None.

        A word "changes canonically" when XOR-ing the mask alters its
        canonical (spare-bits-cleared) decoding - including becoming or
        ceasing to be decodable.
        """
        return self._first_word_step(self._canon_memo, _canon_changes,
                                     mask, t)

    def _next_call_copy(self, mask, t):
        """First golden branch step >= ``t`` whose word decodes to
        ``JAL`` or ``JALR`` once XOR-ed with ``mask``, or None: there a
        corrupted checker copy gives the block a call terminal, whose
        block end tags r9."""
        return self._first_word_step(self._call_memo, _becomes_call,
                                     mask, t)

    # -- the verdict calculus ------------------------------------------
    def verdict(self, spec, duration=TRANSIENT, inject_at=0, double_bit=None):
        """The :class:`TimelineVerdict` for one (point, time) pair.

        Sound for ``transient`` and ``permanent`` durations (campaign
        rows); other durations only receive the timing-independent
        claims (inert points, alarm-only checker hardware) and start at
        the injection step.
        """
        target = spec.target
        t = inject_at
        if target.startswith("inert."):
            # Inert points never match any tap by construction.
            return TimelineVerdict(True, False, start=t, rule="inert")
        if t < 0 or t >= self.length or self._has_unknown(t):
            return _unknown(t)
        if double_bit is None:
            double_bit = bin(spec.mask).count("1") > 1

        masked_only = duration not in (TRANSIENT, PERMANENT)
        if masked_only:
            # Burst timing is not modelled; only timing-independent
            # masked=True facts (alarm-only hardware) are claimed.
            if target.startswith("chk.") or target in (
                    "ex.op_a.par", "ex.op_b.par", "ex.shs_a", "ex.shs_b",
                    "state.shs", "cfc.dcs", "cfc.computed", "cfc.expected",
                    "state.cfc.expected", "id.word.shs", "state.rf.parity"):
                return TimelineVerdict(True, None, start=t, rule="alarm-only")
            return _unknown(t)

        handler = _HANDLERS.get(target)
        if handler is not None:
            return handler(self, spec, duration, t, double_bit)
        return _unknown(t)

    # -- shared sub-rules ----------------------------------------------
    def _alarm_at_first_drive(self, key, t, checker, rule):
        """Alarm-only taps whose first evaluation after ``t``
        deterministically resolves both axes."""
        step = self.next_site(key, t)
        if step is None:
            return _absent(t, rule)
        return TimelineVerdict(True, True, start=step, checker=checker,
                               rule=rule,
                               detail="first evaluation at step %d" % step)


def _next_in(steps, t):
    i = bisect_left(steps, t)
    return steps[i] if i < len(steps) else None


def _canon_changes(word, mask):
    base = decode_or_none(word)
    flipped = decode_or_none((word ^ mask) & WORD_MASK)
    if base is None or flipped is None:
        return base is not flipped
    return canonical_word(base) != canonical_word(flipped)


def _becomes_call(word, mask):
    base = decode_or_none(word)
    flipped = decode_or_none((word ^ mask) & WORD_MASK)
    return (base is not None and base.is_branch
            and flipped is not None and flipped.is_call)


# -- per-target handlers (module-level so the dispatch table is data) ----

def _h_checker_internal(key, checker):
    """chk.* replay taps: gated off in masking runs, deterministic
    replay-compare mismatch at the first driving op in detection runs."""
    def handler(tl, spec, duration, t, double_bit):
        return tl._alarm_at_first_drive(key, t, checker, "checker-internal")
    return handler


def _h_parity_meta(key):
    """Operand parity metadata: never architectural, trips the parity
    comparator at the first read-port use."""
    def handler(tl, spec, duration, t, double_bit):
        return tl._alarm_at_first_drive(key, t, CHECKER_PARITY, "parity-meta")
    return handler


def _h_cfc(tl, spec, duration, t, double_bit):
    """CFC compare inputs: alarm-only, and ``block_end`` compares
    computed vs expected unconditionally for every terminal kind, so the
    first block boundary after ``t`` (the halt terminal at the latest)
    deterministically mismatches within the 5-bit DCS."""
    return TimelineVerdict(True, True, start=t, checker=CHECKER_CONTROL_FLOW,
                           rule="cfc-compare")


def _h_state_cfc_expected(tl, spec, duration, t, double_bit):
    if duration == TRANSIENT:
        # The corrupted anticipated-DCS latch survives (nothing rewrites
        # it before the block boundary consumes it) - same theorem as
        # the signal taps.
        return _h_cfc(tl, spec, duration, t, double_bit)
    # Permanent stuck-at: a later golden expected-DCS may match the
    # stuck polarity at some boundaries; empirical detection run needed.
    return TimelineVerdict(True, None, start=t, rule="cfc-latch-stuck")


def _h_shs_operand(key):
    """SHS operand tags: checker-state only; detection needs the CRC5
    fold to miss aliasing - empirical."""
    def handler(tl, spec, duration, t, double_bit):
        step = tl.next_site(key, t)
        if step is None:
            return _absent(t, "shs-tag")
        return TimelineVerdict(True, None, start=step, rule="shs-tag")
    return handler


def _h_state_shs(tl, spec, duration, t, double_bit):
    return TimelineVerdict(True, None, start=t, rule="shs-file")


def _h_hang(tl, spec, duration, t, double_bit):
    """ctl.hang is tapped first thing every step: the masking run hangs
    at ``t`` (liveness violation - unmasked), the watchdog fires."""
    return TimelineVerdict(False, True, start=t, checker=CHECKER_WATCHDOG,
                           rule="hang", activated_at=t, hung=True)


def _h_record_diverge(key, rule, checker=None):
    """Taps whose flipped value lands verbatim in the retire record at
    the first driving op: provably unmasked there, so that step is the
    masking run's first divergence.  With ``checker`` set, an exact
    replay-compare also alarms at that same step."""
    def handler(tl, spec, duration, t, double_bit):
        step = tl.next_site(key, t)
        if step is None:
            return _absent(t, rule)
        return TimelineVerdict(False, True if checker else None, start=step,
                               checker=checker, rule=rule,
                               detail="first evaluation at step %d" % step,
                               activated_at=step)
    return handler


def _h_first_eval_detect(key, rule, checker):
    """Exact replay-compare alarms at the tap's first evaluation, but
    the architectural impact is data-dependent (masking run needed)."""
    def handler(tl, spec, duration, t, double_bit):
        step = tl.next_site(key, t)
        if step is None:
            return _absent(t, rule)
        return TimelineVerdict(None, True, start=step, checker=checker,
                               rule=rule)
    return handler


def _h_lsu_addr(tl, spec, duration, t, double_bit):
    step = tl.next_site("mem", t)
    if step is None:
        return _absent(t, "lsu-addr")
    if spec.mask & registers.ADDR_MASK == 0:
        # Every load and store uses only ``address & ADDR_MASK``: bits
        # above it never reach an architectural value.  The address
        # sub-checker still sees the full tapped address.
        return TimelineVerdict(True, True, start=step,
                               checker=CHECKER_COMPUTATION,
                               rule="lsu-addr-high")
    return TimelineVerdict(None, True, start=step, checker=CHECKER_COMPUTATION,
                           rule="lsu-addr")


def _h_op_bus(key):
    """Operand buses: single-bit flips trip the per-read parity check at
    the first read-port use; even-weight flips pass parity and their
    downstream effect is data-dependent."""
    def handler(tl, spec, duration, t, double_bit):
        step = tl.next_site(key, t)
        if step is None:
            return _absent(t, "op-bus")
        if double_bit:
            return _unknown(step)
        return TimelineVerdict(None, True, start=step, checker=CHECKER_PARITY,
                               rule="op-bus")
    return handler


def _h_mul_product(tl, spec, duration, t, double_bit):
    step = tl.next_site("mul", t)
    if step is None:
        return _absent(t, "mul")
    # 2**k mod 31 is never 0: every single-bit flip of the 64-bit
    # product shifts the checked residue, so the modulo sub-checker
    # alarms at the first MUL/MULU regardless of which half is hit.
    # Several flipped bits can cancel modulo 31.
    detected, checker = ((None, None) if double_bit
                         else (True, CHECKER_COMPUTATION))
    if spec.mask & WORD_MASK == 0:
        # Upper half only: stripped before writeback - architecturally
        # dead.
        return TimelineVerdict(True, detected, start=step, checker=checker,
                               rule="mul-upper")
    # The flipped low word retires into the record at that step.
    return TimelineVerdict(False, detected, start=step, checker=checker,
                           rule="mul-low", activated_at=step)


def _h_div_remainder(tl, spec, duration, t, double_bit):
    # The remainder never reaches architectural state (only the quotient
    # retires); its residue enters the identity with coefficient 1.
    return tl._alarm_at_first_drive("div", t, CHECKER_COMPUTATION,
                                    "div-remainder")


def _h_ex_flag(tl, spec, duration, t, double_bit):
    step = tl.next_site("compare", t)
    if step is None:
        return _absent(t, "ex-flag")
    # The flipped flag is latched and retires in that step's record
    # (unmasked); the compare sub-checker replays the condition against
    # the tapped flag and alarms in the same step.
    return TimelineVerdict(False, True, start=step,
                           checker=CHECKER_COMPUTATION, rule="ex-flag",
                           activated_at=step)


def _h_state_flag(tl, spec, duration, t, double_bit):
    instr = tl._instrs[t]
    compare = tl.next_site("compare", t)
    branch = tl.next_site("cond_branch", t)
    if duration == TRANSIENT and instr.op in COMPARE_OPS:
        # The compare overwrites the flag before anything (record
        # included) observes the flip.
        return TimelineVerdict(True, False, start=t, rule="flag-overwritten")
    if duration == PERMANENT and instr.op not in COMPARE_OPS and (
            compare is not None or branch is not None):
        return _unknown(t)  # reasserts fight every compare: simulate
    if instr.op in COMPARE_OPS:
        return _unknown(t)
    # Every retire record carries the flag: unmasked at t itself.
    if branch is None:
        # Never consumed by a conditional branch (a compare rewrites it
        # first, or nothing reads it): silent corruption.
        if duration == PERMANENT and compare is not None:
            return _unknown(t)
        return TimelineVerdict(False, False, start=t, rule="flag-silent",
                               activated_at=t)
    if compare is not None and compare < branch:
        if duration == PERMANENT:
            return _unknown(t)
        return TimelineVerdict(False, False, start=t, rule="flag-silent",
                               activated_at=t)
    # A conditional branch consumes the corrupted flag first: control
    # may diverge and DCS detection is aliasing-dependent.
    return TimelineVerdict(False, None, start=t, rule="flag-branch",
                           activated_at=t)


def _h_state_pc(tl, spec, duration, t, double_bit):
    # The retire record's pc field is the architectural latch: the flip
    # shows at step t itself.  Where the wrong stream goes is wild.
    return TimelineVerdict(False, None, start=t, rule="state-pc",
                           activated_at=t)


def _h_ctl_btarget(tl, spec, duration, t, double_bit):
    """Both branch flips leave the branch's and its delay slot's retire
    records untouched (neither the flag nor any writeback changes);
    their only lever is the post-delay-slot pc, two steps later.  The
    population's target masks (bits 2..26) survive both the direct
    ``& WORD_MASK`` and the indirect ``& ADDR_MASK & ~3`` reductions, so
    a flip redirects the first *taken* branch (proof, or a degenerate
    one whose target is its fall-through); a clean branch or a
    degenerate one not taken discards the target.  Where the trace ends
    before the transfer shows, nothing is proven."""
    start = tl.next_site("branch", t)
    for step, (category, taken, _conditional) in tl.branches_from(t):
        if category == "unknown":
            return _unknown(start)
        if taken:
            return TimelineVerdict(False, None, start=start, rule="btarget",
                                   activated_at=step + 2)
    return _absent(t, "btarget")


def _h_ctl_flag(tl, spec, duration, t, double_bit):
    start = tl.next_site("cond_branch", t)
    for step, (category, taken, conditional) in tl.branches_from(t):
        if not conditional:
            continue  # unconditional: direction input unused
        if category == "degenerate":
            continue  # taken == fallthrough: direction is invisible
        if category == "unknown":
            return _unknown(start)
        if taken is None:
            continue  # dropped branch: direction discarded
        # Effective conditional with distinct successors: the flipped
        # direction retires the other one - pc diverges at step+2.  The
        # CFC keeps its own verified flag copy, so detection rides on
        # the wrong block's DCS (1/32 aliasing): empirical.
        return TimelineVerdict(False, None, start=start, rule="ctl-flag",
                               activated_at=step + 2)
    return _absent(t, "ctl-flag")


def _h_rf_value(tl, spec, duration, t, double_bit):
    reg = spec.index
    if reg == registers.ZERO_REG:
        # The state applier skips the hard-wired zero register.
        return TimelineVerdict(True, False, start=t, rule="rf-zero")
    if reg == registers.LINK_REG and tl._next_link_call(t) is not None:
        # Block-boundary link tagging reads and rewrites r9 outside the
        # decoded instruction stream: no sound window analysis.  With no
        # tagging ahead, r9 is an ordinary register.
        return _unknown(t)
    read = tl.next_read(reg, t)
    write = tl.next_write(reg, t)
    if read is None and write is None:
        # Untouched to the end: no retire record differs, the final
        # architectural-state compare (after the last step) sees the
        # flip, and no checker ever reads the cell.
        return TimelineVerdict(False, False, start=t, rule="rf-untouched",
                               activated_at=tl.length)
    if duration == TRANSIENT and write is not None and (
            read is None or write < read):
        # Overwritten before any read: the write regenerates parity and
        # erases the one-shot flip entirely.
        return TimelineVerdict(True, False, start=t, rule="rf-dead-window")
    if read is not None and (write is None or read <= write):
        # Read first (operand fetch precedes same-step writeback): the
        # state applier leaves the stored parity stale, so a single-bit
        # flip trips the read-port parity check immediately.
        start = _dormant_until(duration, read, t)
        if double_bit:
            return _unknown(start)
        return TimelineVerdict(None, True, start=start, checker=CHECKER_PARITY,
                               rule="rf-read-first")
    return _unknown(t)  # permanent stuck-at vs rewrite: data-dependent


def _h_rf_parity(tl, spec, duration, t, double_bit):
    reg = spec.index
    if reg == registers.ZERO_REG:
        return TimelineVerdict(True, False, start=t, rule="rf-zero")
    # Parity bits are metadata: never in records or architectural state.
    if reg == registers.LINK_REG and tl._next_link_call(t) is not None:
        # Link tagging rewrites r9 (and its parity) outside the decoded
        # stream, so only the masking axis is provable.
        return TimelineVerdict(True, None, start=t, rule="rf-parity-link")
    read = tl.next_read(reg, t)
    write = tl.next_write(reg, t)
    if read is not None and (write is None or read <= write):
        start = _dormant_until(duration, read, t)
        return TimelineVerdict(True, True, start=start, checker=CHECKER_PARITY,
                               rule="rf-parity-read-first")
    if read is None:
        return TimelineVerdict(True, False, start=t, rule="rf-parity-unread")
    if duration == TRANSIENT:
        # Overwritten first: the write regenerates the parity bit.
        return TimelineVerdict(True, False, start=t,
                               rule="rf-parity-rewritten")
    return TimelineVerdict(True, None, start=t, rule="rf-parity-stuck")


def _dormant_until(duration, read, t):
    """Start of a register-file lane whose cell is read before it is
    written (r9 only with no link tagging ahead: block-end DCS tagging
    rewrites it outside the retire records).

    A transient flip rides along dormant until that read: nothing
    touches the cell between injection and the read, so applying the
    XOR there (the engine's pre-apply) gives the identical value and
    polarity.  A permanent interleaves stuck-at reasserts with the run
    from ``t`` on.
    """
    return read if duration == TRANSIENT else t


def _h_id_word_fu(tl, spec, duration, t, double_bit):
    step = tl._next_canon_change(spec.mask, t)
    if step is None:
        # Spare-bit-only everywhere: the FU-side copy decodes to the
        # identical instruction and nothing else reads it.
        return TimelineVerdict(True, False, start=t, rule="decode-fu/spare")
    # Until ``step`` execution is bit-identical; there the canonical
    # cross-check sees fu-copy != chk-copy and raises.
    return TimelineVerdict(None, True, start=t, checker=CHECKER_COMPUTATION,
                           rule="decode-fu")


def _h_id_word_chk(tl, spec, duration, t, double_bit):
    step = tl._next_canon_change(spec.mask, t)
    call = tl._next_link_call(t)
    if step is None:
        if call is None:
            # Canonically invisible and no call-link payload to corrupt:
            # the chk copy feeds only gated checker paths.
            return TimelineVerdict(True, None, start=t,
                                   rule="decode-chk/spare")
        return _unknown(t)
    sig = tl.next_site("sig", t)
    detected = None
    if (call is None or step <= call) and (sig is None or sig >= step):
        # No architectural side path (call-link tagging) and no raw-word
        # terminator test (SIG spare bits) can act before the canonical
        # cross-check raises at ``step``.
        detected = True
    if call is None and tl._next_call_copy(spec.mask, t) is None:
        # With checkers off the chk copy reaches architecture only
        # through a branch's terminal kind: a call kind tags r9 at its
        # block end.  No golden call lies ahead and no branch copy turns
        # into one; a SIG terminator test only moves block ends, and the
        # collector is reset at halt.
        return TimelineVerdict(
            True, detected, start=t,
            checker=CHECKER_COMPUTATION if detected else None,
            rule="decode-chk/no-call")
    if detected:
        return TimelineVerdict(None, True, start=t,
                               checker=CHECKER_COMPUTATION, rule="decode-chk")
    return _unknown(t)


def _h_id_word_shs(tl, spec, duration, t, double_bit):
    step = tl._next_canon_change(spec.mask, t)
    if step is None:
        # The SHS-side copy contributes only canonical content (the op
        # identifier hashes the spare-cleared word): fully inert.
        return TimelineVerdict(True, False, start=t, rule="decode-shs/spare")
    return TimelineVerdict(True, None, start=t, rule="decode-shs")


def _h_if_inst(tl, spec, duration, t, double_bit):
    step = tl._next_canon_change(spec.mask, t)
    if step is None and tl._next_link_call(t) is None:
        # All three decode copies see the same spare-bit-only change;
        # only collected payloads (checker-side) are perturbed.
        return TimelineVerdict(True, None, start=t, rule="fetch-word/spare")
    return _unknown(t)


_HANDLERS = {
    "state.rf.value": _h_rf_value,
    "state.rf.parity": _h_rf_parity,
    "ex.op_a": _h_op_bus("reads_ra"),
    "ex.op_b": _h_op_bus("reads_rb"),
    "ex.op_a.par": _h_parity_meta("reads_ra"),
    "ex.op_b.par": _h_parity_meta("reads_rb"),
    "wb.rd": _h_record_diverge("wb_port", "wb-port"),
    "ex.alu.result": _h_record_diverge("alu_result", "alu-result",
                                       checker=CHECKER_COMPUTATION),
    "ex.mul.product": _h_mul_product,
    "ex.div.quotient": _h_record_diverge("div", "div-quotient"),
    "ex.div.remainder": _h_div_remainder,
    "lsu.addr": _h_lsu_addr,
    "lsu.mem_addr": _h_first_eval_detect("load", "lsu-mem-addr",
                                         CHECKER_MEMORY),
    "lsu.load_data": _h_record_diverge("load", "load-data",
                                       checker=CHECKER_COMPUTATION),
    "lsu.store_data": _h_record_diverge("store", "store-data"),
    "lsu.mem_waddr": _h_record_diverge("store", "store-waddr"),
    "state.pc": _h_state_pc,
    "if.inst": _h_if_inst,
    "ctl.btarget": _h_ctl_btarget,
    "id.word.fu": _h_id_word_fu,
    "id.word.chk": _h_id_word_chk,
    "id.word.shs": _h_id_word_shs,
    "ex.flag": _h_ex_flag,
    "ctl.flag": _h_ctl_flag,
    "state.flag": _h_state_flag,
    "ctl.hang": _h_hang,
    "ex.shs_a": _h_shs_operand("reads_ra"),
    "ex.shs_b": _h_shs_operand("reads_rb"),
    "state.shs": _h_state_shs,
    "cfc.dcs": _h_cfc,
    "cfc.computed": _h_cfc,
    "cfc.expected": _h_cfc,
    "state.cfc.expected": _h_state_cfc_expected,
    "chk.adder.sum": _h_checker_internal("add_sum", CHECKER_COMPUTATION),
    "chk.adder.logic": _h_checker_internal("logic", CHECKER_COMPUTATION),
    "chk.adder.addr": _h_checker_internal("mem", CHECKER_COMPUTATION),
    "chk.adder.flag": _h_checker_internal("compare", CHECKER_COMPUTATION),
    "chk.rsse.out": _h_checker_internal("shift_ext", CHECKER_COMPUTATION),
    "chk.rsse.load": _h_checker_internal("load", CHECKER_COMPUTATION),
    "chk.rsse.store": _h_checker_internal("sh_sb", CHECKER_COMPUTATION),
    "chk.mod.lhs": _h_checker_internal("muldiv", CHECKER_COMPUTATION),
    "chk.mod.rhs": _h_checker_internal("muldiv", CHECKER_COMPUTATION),
}


__all__ = ["MaskingTimeline", "TimelineVerdict"]
