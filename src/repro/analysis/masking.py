"""Per-(point, injection-time) masking/detection timelines.

The static coverage audit (:mod:`repro.analysis.coverage`) classifies
every injection point once per workload; this module sharpens that to a
verdict per **(point, injection time)** by abstract interpretation over
two complementary views of the same program:

* a **static layer** over the recovered CFG: backward may-liveness of
  registers and the compare flag, whose dead-write windows feed the
  ARG018 lint (a register written but provably overwritten before any
  read on every path);
* a **dynamic layer** over the golden retire trace: because a faulted
  run is bit-identical to the golden run until the fault's first tap
  evaluation or state impact, the golden PC stream plus the text words
  give the *exact* instruction retired at every step.  Next-occurrence
  tables per drive class (which ops evaluate which tap), per-register
  next-read/next-write tables and canonical-word change memos then prove
  quadrant facts for a fault injected at step ``t``.

Every :class:`TimelineVerdict` axis is a theorem, not an estimate: a
``masked=True`` claim means no execution of the faulted machine from
``t`` can diverge from the golden records or final architectural state,
``detected=True`` means the first checker evaluation that sees the
fault deterministically alarms (the owning checker is pinned).  Axes
that depend on data values (aliasing escapes, value masking through
logic ops) stay ``None`` and must be simulated.  Campaigns do not
consult the timeline: it serves ``argus-repro audit --timeline`` and the
ARG018/ARG019 lints (:meth:`repro.faults.campaign.Campaign.timeline`
builds it from a campaign's golden run).  ``tests/test_masking.py``
differentially re-proves every claimed axis against forced-injection
simulation runs, and ARG019 cross-checks the timeline verdicts against
the per-point audit classes.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.analysis.dataflow import FLAG, instr_reads, instr_writes
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
    MULDIV_OPS,
    Op,
    SHIFT_OPS,
    STORE_OPS,
)

_ALL_LOCATIONS = frozenset(range(registers.NUM_REGS)) | {FLAG}

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
# Dynamic layer: per-(point, time) verdicts from the golden trace.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimelineVerdict:
    """Per-(point, injection-time) quadrant facts.

    Each axis is ``True``/``False`` when statically *proven* for every
    execution of the faulted machine, ``None`` when it depends on data
    values and must be simulated.  ``checker`` pins the first alarm's
    owner whenever ``detected`` is proven ``True``.
    """

    masked: Optional[bool]
    detected: Optional[bool]
    checker: Optional[str] = None
    rule: str = ""
    detail: str = ""

    @property
    def complete(self):
        return self.masked is not None and self.detected is not None

    @property
    def partial(self):
        return not self.complete and (
            self.masked is not None or self.detected is not None)


_UNKNOWN = TimelineVerdict(None, None, rule="unknown")


class MaskingTimeline:
    """Next-occurrence tables over one workload's golden retire trace.

    Built once per campaign from the embedded program and its golden
    records; every :meth:`verdict` query is O(log steps).
    """

    def __init__(self, program, records):
        self.program = program
        self.length = len(records)
        instrs = []
        pcs = []
        words = []
        unknown = []
        for step, record in enumerate(records):
            pc = record[0]
            pcs.append(pc)
            try:
                word = program.word_at(pc)
            except (IndexError, ValueError, KeyError):
                word = None
            words.append(word)
            instr = decode_or_none(word) if word is not None else None
            instrs.append(instr)
            if instr is None:
                unknown.append(step)
        self._instrs = instrs
        self._pcs = pcs
        self._words = words
        self._unknown = unknown

        classes = {key: [] for key in (
            "reads_ra", "reads_rb", "alu_result", "mul", "div", "muldiv",
            "load", "store", "mem", "sh_sb", "add_sum", "logic",
            "shift_ext", "compare", "cond_branch", "call", "wb_port",
            "sig")}
        reg_reads = {}
        reg_writes = {}
        # A branch retired in the delay slot of an *effective* branch has
        # its control effect dropped (only reachable via faults in golden
        # traces, but tracked for soundness).
        effective_prev = False
        branch_info = []  # (step, category) for ctl.btarget / ctl.flag
        for step, instr in enumerate(instrs):
            if instr is None:
                effective_prev = False
                continue
            op = instr.op
            if instr.reads_ra:
                classes["reads_ra"].append(step)
                reg_reads.setdefault(instr.ra, []).append(step)
            if instr.reads_rb:
                classes["reads_rb"].append(step)
                reg_reads.setdefault(instr.rb, []).append(step)
            rd = records[step][1]
            if rd is not None and rd >= 0:
                reg_writes.setdefault(rd, []).append(step)
            if op in ALU_RESULT_OPS:
                classes["alu_result"].append(step)
            if op in MUL_OPS:
                classes["mul"].append(step)
            if op in DIV_OPS:
                classes["div"].append(step)
            if op in MULDIV_OPS:
                classes["muldiv"].append(step)
            if op in LOAD_OPS:
                classes["load"].append(step)
                classes["mem"].append(step)
            if op in STORE_OPS:
                classes["store"].append(step)
                classes["mem"].append(step)
            if op in STORE_MERGE_OPS:
                classes["sh_sb"].append(step)
            if op in ADDER_SUM_OPS:
                classes["add_sum"].append(step)
            if op in ADDER_LOGIC_OPS:
                classes["logic"].append(step)
            if op in RSSE_OUT_OPS:
                classes["shift_ext"].append(step)
            if op in COMPARE_OPS:
                classes["compare"].append(step)
            if op in CONDITIONAL_BRANCH_OPS:
                classes["cond_branch"].append(step)
            if instr.is_call:
                classes["call"].append(step)
            if instr.writes_rd and not instr.is_branch:
                classes["wb_port"].append(step)
            if op is Op.SIG:
                classes["sig"].append(step)
            dropped = effective_prev and instr.is_branch
            effective = instr.is_branch and not dropped
            if instr.is_branch:
                branch_info.append(
                    (step, self._branch_category(step, instr, effective)))
            effective_prev = effective
        self._classes = classes
        self._reg_reads = reg_reads
        self._reg_writes = reg_writes
        self._branch_info = branch_info
        self._canon_memo = {}

    # -- table construction helpers ------------------------------------
    def _branch_category(self, step, instr, effective):
        """('proof'|'clean'|'unknown', taken, target) for a branch step.

        *proof*: a ``ctl.btarget`` flip provably diverges the retired PC
        stream (the transfer is used and redirects); *clean*: the tapped
        target is provably discarded (dropped branch, or a conditional
        that golden did not take); *unknown*: everything else.
        """
        pc = self._pcs[step]
        if instr.op in CONDITIONAL_BRANCH_OPS:
            target = (pc + 4 * instr.offset) & 0xFFFFFFFF
        elif instr.is_indirect:
            target = None  # register value; unknown statically is fine -
            # the *golden* next-next pc identifies the transfer below
        else:
            target = (pc + 4 * instr.offset) & 0xFFFFFFFF
        if not effective:
            return ("clean", None, target)
        fallthrough = (pc + 8) & 0xFFFFFFFF
        if step + 2 >= self.length:
            return ("unknown", None, target)
        next_next = self._pcs[step + 2]
        if instr.op in CONDITIONAL_BRANCH_OPS:
            if target == fallthrough:
                # Both directions land on the same pc: a flipped *flag*
                # is invisible, but a flipped *target* redirects iff the
                # branch was taken - undecidable from the trace here.
                return ("degenerate", None, target)
            taken = next_next == target
            if taken:
                return ("proof", True, target)
            return ("clean", False, target)
        # Unconditional transfers always consume the target.
        return ("proof", True, target)

    # -- primitive queries ---------------------------------------------
    def _next(self, key, t):
        steps = self._classes[key]
        i = bisect_left(steps, t)
        return steps[i] if i < len(steps) else None

    def _next_in(self, steps, t):
        i = bisect_left(steps, t)
        return steps[i] if i < len(steps) else None

    def _has_unknown(self, t):
        return bool(self._unknown) and self._next_in(self._unknown, t) is not None

    def _reg_next_read(self, reg, t):
        return self._next_in(self._reg_reads.get(reg, ()), t)

    def _reg_next_write(self, reg, t):
        return self._next_in(self._reg_writes.get(reg, ()), t)

    def _canon_change_steps(self, mask):
        """Sorted steps whose word changes canonically under ``mask``.

        A word "changes canonically" when XOR-ing the mask alters its
        canonical (spare-bits-cleared) decoding - including becoming or
        ceasing to be decodable.  Memoized per mask over distinct words.
        """
        steps = self._canon_memo.get(mask)
        if steps is not None:
            return steps
        changed_words = set()
        for word in set(w for w in self._words if w is not None):
            base = decode_or_none(word)
            flipped = decode_or_none((word ^ mask) & 0xFFFFFFFF)
            if base is None or flipped is None:
                if base is not flipped:
                    changed_words.add(word)
                continue
            if canonical_word(base) != canonical_word(flipped):
                changed_words.add(word)
        steps = tuple(sorted(
            step for step, word in enumerate(self._words)
            if word in changed_words))
        self._canon_memo[mask] = steps
        return steps

    # -- the verdict calculus ------------------------------------------
    def verdict(self, spec, duration=TRANSIENT, inject_at=0, double_bit=None):
        """The :class:`TimelineVerdict` for one (point, time) pair.

        Sound for ``transient`` and ``permanent`` durations (campaign
        rows); other durations only receive the timing-independent
        claims (inert points, alarm-only checker hardware).
        """
        target = spec.target
        if target.startswith("inert."):
            # Inert points never match any tap by construction.
            return TimelineVerdict(True, False, rule="inert")
        t = inject_at
        if t < 0 or t >= self.length or self._has_unknown(t):
            return _UNKNOWN
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
                return TimelineVerdict(True, None, rule="alarm-only")
            return _UNKNOWN

        handler = _HANDLERS.get(target)
        if handler is not None:
            return handler(self, spec, duration, t, double_bit)
        return _UNKNOWN

    # -- shared sub-rules ----------------------------------------------
    def _drive_absent(self, key, t, rule):
        """Rule B: the tap is provably never evaluated (or its value is
        provably discarded) after ``t`` - the fault cannot act."""
        if self._next(key, t) is None:
            return TimelineVerdict(True, False, rule=rule + "/drive-absent")
        return None

    def _alarm_at_first_drive(self, key, t, checker, rule,
                              masked=True):
        """Alarm-only or record-diverging taps whose first evaluation
        after ``t`` deterministically resolves both axes."""
        step = self._next(key, t)
        if step is None:
            return TimelineVerdict(True, False, rule=rule + "/drive-absent")
        return TimelineVerdict(masked, True, checker=checker, rule=rule,
                               detail="first evaluation at step %d" % step)


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
    return TimelineVerdict(True, True, checker=CHECKER_CONTROL_FLOW,
                           rule="cfc-compare")


def _h_state_cfc_expected(tl, spec, duration, t, double_bit):
    if duration == TRANSIENT:
        # The corrupted anticipated-DCS latch survives (nothing rewrites
        # it before the block boundary consumes it) - same theorem as
        # the signal taps.
        return _h_cfc(tl, spec, duration, t, double_bit)
    # Permanent stuck-at: a later golden expected-DCS may match the
    # stuck polarity at some boundaries; empirical detection run needed.
    return TimelineVerdict(True, None, rule="cfc-latch-stuck")


def _h_shs_operand(key):
    """SHS operand tags: checker-state only; detection needs the CRC5
    fold to miss aliasing - empirical."""
    def handler(tl, spec, duration, t, double_bit):
        absent = tl._drive_absent(key, t, "shs-tag")
        if absent is not None:
            return absent
        return TimelineVerdict(True, None, rule="shs-tag")
    return handler


def _h_state_shs(tl, spec, duration, t, double_bit):
    return TimelineVerdict(True, None, rule="shs-file")


def _h_hang(tl, spec, duration, t, double_bit):
    """ctl.hang is tapped first thing every step: the masking run hangs
    at ``t`` (liveness violation - unmasked), the watchdog fires."""
    return TimelineVerdict(False, True, checker=CHECKER_WATCHDOG,
                           rule="hang")


def _h_record_diverge(key, rule, checker=None):
    """Taps whose flipped value lands verbatim in the retire record at
    the first driving op: provably unmasked there.  With ``checker``
    set, an exact replay-compare also alarms at that same step."""
    def handler(tl, spec, duration, t, double_bit):
        absent = tl._drive_absent(key, t, rule)
        if absent is not None:
            return absent
        if checker is not None:
            return tl._alarm_at_first_drive(key, t, checker, rule,
                                            masked=False)
        return TimelineVerdict(False, None, rule=rule)
    return handler


def _h_first_eval_detect(key, rule, checker):
    """Exact replay-compare alarms at the tap's first evaluation, but
    the architectural impact is data-dependent (masking run needed)."""
    def handler(tl, spec, duration, t, double_bit):
        absent = tl._drive_absent(key, t, rule)
        if absent is not None:
            return absent
        return TimelineVerdict(None, True, checker=checker, rule=rule)
    return handler


def _h_op_bus(key):
    """Operand buses: single-bit flips trip the per-read parity check at
    the first read-port use; even-weight flips pass parity and their
    downstream effect is data-dependent."""
    def handler(tl, spec, duration, t, double_bit):
        absent = tl._drive_absent(key, t, "op-bus")
        if absent is not None:
            return absent
        if double_bit:
            return _UNKNOWN
        return TimelineVerdict(None, True, checker=CHECKER_PARITY,
                               rule="op-bus")
    return handler


def _h_mul_product(tl, spec, duration, t, double_bit):
    step = tl._next("mul", t)
    if step is None:
        return TimelineVerdict(True, False, rule="mul/drive-absent")
    # 2**k mod 31 is never 0: every single-bit flip of the 64-bit
    # product shifts the checked residue, so the modulo sub-checker
    # alarms at the first MUL/MULU regardless of which half is hit.
    if spec.mask >> 32:
        # Upper half: stripped before writeback - architecturally dead.
        return TimelineVerdict(True, True, checker=CHECKER_COMPUTATION,
                               rule="mul-upper")
    # Low half: the flipped word retires into the record at that step.
    return TimelineVerdict(False, True, checker=CHECKER_COMPUTATION,
                           rule="mul-low")


def _h_div_remainder(tl, spec, duration, t, double_bit):
    # The remainder never reaches architectural state (only the quotient
    # retires); its residue enters the identity with coefficient 1.
    return tl._alarm_at_first_drive("div", t, CHECKER_COMPUTATION,
                                    "div-remainder")


def _h_ex_flag(tl, spec, duration, t, double_bit):
    step = tl._next("compare", t)
    if step is None:
        return TimelineVerdict(True, False, rule="ex-flag/drive-absent")
    # The flipped flag is latched and retires in that step's record
    # (unmasked); the compare sub-checker replays the condition against
    # the tapped flag and alarms in the same step.
    return TimelineVerdict(False, True, checker=CHECKER_COMPUTATION,
                           rule="ex-flag")


def _h_state_flag(tl, spec, duration, t, double_bit):
    instr = tl._instrs[t]
    compare = tl._next("compare", t)
    branch = tl._next("cond_branch", t)
    if duration == TRANSIENT and instr.op in COMPARE_OPS:
        # The compare overwrites the flag before anything (record
        # included) observes the flip.
        return TimelineVerdict(True, False, rule="flag-overwritten")
    if duration == PERMANENT and instr.op not in COMPARE_OPS and (
            compare is not None or branch is not None):
        return _UNKNOWN  # reasserts fight every compare: simulate
    if instr.op in COMPARE_OPS:
        return _UNKNOWN
    # Every retire record carries the flag: unmasked at t itself.
    if branch is None:
        # Never consumed by a conditional branch (a compare rewrites it
        # first, or nothing reads it): silent corruption.
        if duration == PERMANENT and compare is not None:
            return _UNKNOWN
        return TimelineVerdict(False, False, rule="flag-silent")
    if compare is not None and compare < branch:
        if duration == PERMANENT:
            return _UNKNOWN
        return TimelineVerdict(False, False, rule="flag-silent")
    # A conditional branch consumes the corrupted flag first: control
    # may diverge and DCS detection is aliasing-dependent.
    return TimelineVerdict(False, None, rule="flag-branch")


def _h_state_pc(tl, spec, duration, t, double_bit):
    # The retire record's pc field is the architectural latch: the flip
    # shows at step t itself.  Where the wrong stream goes is wild.
    return TimelineVerdict(False, None, rule="state-pc")


def _h_wb_rd(tl, spec, duration, t, double_bit):
    absent = tl._drive_absent("wb_port", t, "wb-port")
    if absent is not None:
        return absent  # calls write the link register off-port
    # The tapped (flipped) destination index is recorded verbatim.
    return TimelineVerdict(False, None, rule="wb-port")


def _h_ctl_btarget(tl, spec, duration, t, double_bit):
    for _step, (category, _taken, _target) in _branches_from(tl, t):
        if category == "clean":
            continue
        if category == "proof":
            # The transfer consumes the flipped target: the pc stream
            # diverges two steps later (delay slot retires in between).
            return TimelineVerdict(False, None, rule="btarget")
        return _UNKNOWN
    return TimelineVerdict(True, False, rule="btarget/drive-absent")


def _h_ctl_flag(tl, spec, duration, t, double_bit):
    for step, (category, _taken, target) in _branches_from(tl, t):
        instr = tl._instrs[step]
        if instr.op not in CONDITIONAL_BRANCH_OPS:
            continue  # unconditional: direction input unused
        if category == "degenerate":
            continue  # taken == fallthrough: direction is invisible
        if category == "unknown":
            return _UNKNOWN
        if category == "clean" and _taken is None:
            continue  # dropped branch: direction discarded
        # Effective conditional with distinct successors: the flipped
        # direction retires the other one - pc diverges at step+2.  The
        # CFC keeps its own verified flag copy, so detection rides on
        # the wrong block's DCS (1/32 aliasing): empirical.
        return TimelineVerdict(False, None, rule="ctl-flag")
    return TimelineVerdict(True, False, rule="ctl-flag/drive-absent")


def _branches_from(tl, t):
    info = tl._branch_info
    lo = bisect_left(info, (t,))
    for step, category in info[lo:]:
        yield step, category


def _h_rf_value(tl, spec, duration, t, double_bit):
    reg = spec.index
    if reg == registers.ZERO_REG:
        # The state applier skips the hard-wired zero register.
        return TimelineVerdict(True, False, rule="rf-zero")
    if reg == registers.LINK_REG:
        # Block-boundary link tagging reads and rewrites r9 outside the
        # decoded instruction stream: no sound window analysis.
        return _UNKNOWN
    read = tl._reg_next_read(reg, t)
    write = tl._reg_next_write(reg, t)
    if read is None and write is None:
        # Untouched to the end: the final architectural-state compare
        # sees the flip, no checker ever reads the cell.
        return TimelineVerdict(False, False, rule="rf-untouched")
    if duration == TRANSIENT and write is not None and (
            read is None or write < read):
        # Overwritten before any read: the write regenerates parity and
        # erases the one-shot flip entirely.
        return TimelineVerdict(True, False, rule="rf-dead-window")
    if read is not None and (write is None or read <= write):
        # Read first (operand fetch precedes same-step writeback): the
        # state applier leaves the stored parity stale, so a single-bit
        # flip trips the read-port parity check immediately.
        if double_bit:
            return _UNKNOWN
        return TimelineVerdict(None, True, checker=CHECKER_PARITY,
                               rule="rf-read-first")
    return _UNKNOWN  # permanent stuck-at vs rewrite: data-dependent


def _h_rf_parity(tl, spec, duration, t, double_bit):
    reg = spec.index
    if reg == registers.ZERO_REG:
        return TimelineVerdict(True, False, rule="rf-zero")
    if reg == registers.LINK_REG:
        return _UNKNOWN
    read = tl._reg_next_read(reg, t)
    write = tl._reg_next_write(reg, t)
    # Parity bits are metadata: never in records or architectural state.
    if read is not None and (write is None or read <= write):
        return TimelineVerdict(True, True, checker=CHECKER_PARITY,
                               rule="rf-parity-read-first")
    if read is None:
        return TimelineVerdict(True, False, rule="rf-parity-unread")
    if duration == TRANSIENT:
        # Overwritten first: the write regenerates the parity bit.
        return TimelineVerdict(True, False, rule="rf-parity-rewritten")
    return TimelineVerdict(True, None, rule="rf-parity-stuck")


def _h_id_word_fu(tl, spec, duration, t, double_bit):
    changes = tl._canon_change_steps(spec.mask)
    step = tl._next_in(changes, t)
    if step is None:
        # Spare-bit-only everywhere: the FU-side copy decodes to the
        # identical instruction and nothing else reads it.
        return TimelineVerdict(True, False, rule="decode-fu/spare")
    # Until ``step`` execution is bit-identical; there the canonical
    # cross-check sees fu-copy != chk-copy and raises.
    return TimelineVerdict(None, True, checker=CHECKER_COMPUTATION,
                           rule="decode-fu")


def _h_id_word_chk(tl, spec, duration, t, double_bit):
    changes = tl._canon_change_steps(spec.mask)
    step = tl._next_in(changes, t)
    call = tl._next("call", t)
    if step is None:
        if call is None:
            # Canonically invisible and no call-link payload to corrupt:
            # the chk copy feeds only gated checker paths.
            return TimelineVerdict(True, None, rule="decode-chk/spare")
        return _UNKNOWN
    sig = tl._next("sig", t)
    if (call is None or step <= call) and (sig is None or sig >= step):
        # No architectural side path (call-link tagging) and no raw-word
        # terminator test (SIG spare bits) can act before the canonical
        # cross-check raises at ``step``.
        return TimelineVerdict(None, True, checker=CHECKER_COMPUTATION,
                               rule="decode-chk")
    return _UNKNOWN


def _h_id_word_shs(tl, spec, duration, t, double_bit):
    changes = tl._canon_change_steps(spec.mask)
    step = tl._next_in(changes, t)
    if step is None:
        # The SHS-side copy contributes only canonical content (the op
        # identifier hashes the spare-cleared word): fully inert.
        return TimelineVerdict(True, False, rule="decode-shs/spare")
    return TimelineVerdict(True, None, rule="decode-shs")


def _h_if_inst(tl, spec, duration, t, double_bit):
    changes = tl._canon_change_steps(spec.mask)
    step = tl._next_in(changes, t)
    call = tl._next("call", t)
    if step is None and call is None:
        # All three decode copies see the same spare-bit-only change;
        # only collected payloads (checker-side) are perturbed.
        return TimelineVerdict(True, None, rule="fetch-word/spare")
    return _UNKNOWN


_HANDLERS = {
    "state.rf.value": _h_rf_value,
    "state.rf.parity": _h_rf_parity,
    "ex.op_a": _h_op_bus("reads_ra"),
    "ex.op_b": _h_op_bus("reads_rb"),
    "ex.op_a.par": _h_parity_meta("reads_ra"),
    "ex.op_b.par": _h_parity_meta("reads_rb"),
    "wb.rd": _h_wb_rd,
    "ex.alu.result": _h_record_diverge("alu_result", "alu-result",
                                       checker=CHECKER_COMPUTATION),
    "ex.mul.product": _h_mul_product,
    "ex.div.quotient": _h_record_diverge("div", "div-quotient"),
    "ex.div.remainder": _h_div_remainder,
    "lsu.addr": _h_first_eval_detect("mem", "lsu-addr", CHECKER_COMPUTATION),
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


# ---------------------------------------------------------------------------
# ARG019: timeline verdicts vs the per-point audit classes.
# ---------------------------------------------------------------------------

def _probe_times(length, samples=5):
    """Stratified injection times over the campaign's [0, 0.85*len) window."""
    horizon = max(int(length * 0.85), 1)
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
