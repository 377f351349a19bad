"""The detailed Argus-1 core: OR1200-like pipeline + all four checkers.

Every micro-architectural value flows through a named *signal tap*
(``tap(name, value, index)``), the software analogue of a gate output.
The fault-injection campaign (:mod:`repro.faults`) supplies an injector
whose ``tap`` flips bits of matching signals; with no injector the taps
are identity and the core is simply a slower, fully-checked simulator.

Signal topology (who sees a corrupted value) is what determines which
checker catches which fault class, so it mirrors the paper's design:

* ``if.pc``/``if.inst`` - fetch address and fetched word;
* ``id.word.fu``/``id.word.chk``/``id.word.shs`` - the three separately
  routed copies of the instruction (paper Fig. 3's opcode distribution:
  one fault cannot corrupt FU and sub-checker identically);
* ``ex.op_a``/``ex.op_b`` (+ ``.par``) - operand buses after the parity
  checkpoint; ``ex.shs_a``/``ex.shs_b`` - the SHSs travelling alongside;
* ``ex.alu.result``, ``ex.mul.product`` (64-bit), ``ex.div.quotient``,
  ``ex.div.remainder``, ``ex.flag`` - functional-unit outputs;
* ``chk.adder.*``, ``chk.rsse.*``, ``chk.mod.*``, ``cfc.*`` - checker
  internals (faults here are at worst detected masked errors);
* ``wb.rd`` - the shared writeback port index (value + SHS travel
  together, so wrong-destination faults perturb the DCS);
* ``lsu.addr``, ``lsu.mem_addr``, ``lsu.mem_waddr``, ``lsu.store_data``,
  ``lsu.load_data`` - the core/memory interface (Sec. 3.4);
* ``ctl.flag``, ``ctl.btarget``, ``ctl.hang`` - branch resolution and
  pipeline liveness.

The core owns its state format: :meth:`CheckedCore.snapshot` returns a
:class:`CoreSnapshot` and :meth:`CheckedCore.restore` writes one back
bit-exact.  Golden-run checkpoints (:mod:`repro.faults.checkpoint`), the
batched engine's sweep (:mod:`repro.cpu.batched`), the masking runs'
reconvergence check and final-state compare
(:meth:`CheckedCore.masking_view` against
:meth:`CoreSnapshot.masking_view`), the detection runs' reconvergence
check (:meth:`CheckedCore.detection_view` against
:meth:`CoreSnapshot.detection_view`) and backward error recovery
(:mod:`repro.argus.recovery`) all use that one object.
"""

import weakref
from collections import namedtuple
from dataclasses import dataclass

from repro.argus.checkers import AdderChecker, ModuloChecker, RsseChecker
from repro.argus.controlflow import ControlFlowChecker
from repro.argus.dcs import dcs_of_file
from repro.argus.errors import (
    ComputationCheckError,
    ControlFlowError,
    DataflowParityError,
    MemoryCheckError,
    WatchdogError,
)
from repro.argus.payload import PayloadCollector, PayloadError, sig_is_terminator, terminal_kind
from repro.argus.regfile import CheckedRegisterFile
from repro.argus.shs import ShsFile, apply_instruction, canonical_word
from repro.argus.watchdog import Watchdog
from repro.cpu.fastcore import Timing
from repro.isa import registers
from repro.isa.decode import decode_or_none
from repro.isa.opcodes import Op
from repro.isa.semantics import (alu_execute, divide, evaluate_condition,
                                 mul64, sign_extend_load)
from repro.mem.checked import CheckedMemory, parity32
from repro.mem.hierarchy import MemoryConfig, MemorySystem

WORD_MASK = 0xFFFFFFFF
ADDR_MASK = registers.ADDR_MASK
LINK = registers.LINK_REG


def _identity_tap(name, value, index=None):
    return value


#: program -> (its words, its data image, the preloaded dmem snapshot).
_DMEM_IMAGES = weakref.WeakKeyDictionary()


def _dmem_image(program):
    """Initial EDC-protected state (Appendix A base case): the loader
    writes text and data into the protected memory with good parity.

    A :meth:`CheckedMemory.snapshot`, built once per binary and shared
    copy-on-write by every core over it; rebuilt once the program's
    words or data image differ from those it was built from.
    """
    cached = _DMEM_IMAGES.get(program)
    if (cached is not None and cached[0] == program.words
            and cached[1] == program.data):
        return cached[2]
    dmem = CheckedMemory()
    for index, word in enumerate(program.words):
        dmem.store_word(program.text_base + 4 * index, word)
    data = bytes(program.data)
    padded = data + b"\0" * (-len(data) % 4)
    for off in range(0, len(padded), 4):
        value = int.from_bytes(padded[off:off + 4], "little")
        if value:
            dmem.store_word(program.data_base + off, value)
    image = dmem.snapshot()
    _DMEM_IMAGES[program] = (list(program.words), data, image)
    return image


class CoreSnapshot(namedtuple("CoreSnapshot", (
        "step pc flag cfc_flag cycles instret block_index halted hung "
        "in_delay delayed_target pending_term "
        "rf shs cfc collector watchdog dmem mem"))):
    """Complete restorable :class:`CheckedCore` state at one retire
    boundary (:meth:`CheckedCore.snapshot`, :meth:`CheckedCore.restore`).

    ``step`` is the dynamic instruction index the snapshot was taken at:
    the state *before* executing instruction ``step`` (so it equals the
    captured ``instret``).  The scalar fields mirror the core's own;
    ``rf``, ``shs``, ``cfc``, ``collector`` and ``watchdog`` are those
    components' immutable ``snapshot()`` tuples, ``dmem`` the protected
    memory's ``(stored, parity)`` page tables and ``mem`` the caches'
    (:meth:`CheckedMemory.snapshot`, :meth:`MemorySystem.snapshot`).
    Instruction memory is loaded once from the program and never
    written by the core, so it is shared, not captured.
    """

    __slots__ = ()

    def masking_view(self):
        """The replay-relevant projection for a checkers-off core.

        Two cores whose masking views are equal retire bit-identical
        records from here on (given no further fault activity): the view
        covers everything a ``detect=False`` step reads - architectural
        state, delay-slot sequencing, the payload collector (link-DCS
        tagging is architectural) and the *functional* protected-memory
        contents.  Checker-only state (SHS, CFC, watchdog, parity bits,
        cache timing) is deliberately excluded: a detect-off run never
        reads it, which is also why a cold masking run and a golden
        warm-started one can be compared through this projection.
        :meth:`CheckedCore.masking_view` is the same projection of a
        live core.

        Memory enters as its sorted ``(page, stored words)`` pairs,
        which are equal exactly when the written words and their
        functional values are; pages shared between the two sides
        compare by identity, so the view costs O(pages).
        """
        return (
            self.pc,
            self.flag,
            self.rf[0],
            self.halted,
            self.in_delay,
            self.delayed_target,
            self.pending_term[0] if self.pending_term is not None else None,
            self.collector,
            CheckedMemory.snapshot_stored_pages(self.dmem),
        )

    def detection_view(self):
        """The outcome-relevant projection for a checkers-on core.

        Two cores whose detection views are equal, and on which no fault
        can act any more, retire the same records, raise the same alarms
        (none, when one of them is the golden run) and halt at the same
        step.  The view covers everything a ``detect=True`` step reads
        to decide a record, an alarm or the next state: pc, flag, the
        CFC's verified flag copy, ``halted``, ``hung``, delay-slot
        sequencing with the whole pending terminal (kind, checker-taken
        flag, indirect DCS), register values and parity, the SHS file,
        the CFC's expected DCS, the payload collector, and protected
        memory's stored words and parity bits.  Memory enters as its two
        page tables, whose pages shared with the other side compare by
        identity, so the view costs O(pages).

        Left out, because no later outcome reads them:

        * ``cycles``, ``block_index`` and the CFC's ``blocks_checked``
          only stamp an alarm's event; the step count is the same on
          both sides by construction (a lane is compared with the
          checkpoint of its own step).
        * Cache tags, LRU state and stats only time the run: a cache
          access returns a latency, never data.  A latency becomes
          cycles and one instruction's stall, and the only reader of a
          stall is the watchdog, which fires at 63 stall cycles.  Under
          ``MemoryConfig.paper()`` and the default ``Timing`` one
          instruction stalls at most 20 + max(20, 32, 2) = 52 cycles (an
          I-cache miss plus the largest of a D-cache miss with
          write-back, a divide and a multiply);
          ``tests/test_checkedcore.py::TestStallBound`` asserts that
          bound and that a golden run stays within it.
        * The watchdog: its counter restarts every instruction (each
          step ticks it unstalled before counting that step's stall),
          and nothing reads ``fired``.

        :meth:`CheckedCore.detection_view` is the same projection of a
        live core.
        """
        return (
            self.pc,
            self.flag,
            self.cfc_flag,
            self.halted,
            self.hung,
            self.in_delay,
            self.delayed_target,
            self.pending_term,
            self.rf,
            self.shs,
            self.cfc[0],
            self.collector,
            self.dmem,
        )

    def flat(self):
        """Every field in order, with ``dmem`` and ``mem`` in their
        per-word and per-set forms (:meth:`CheckedMemory.flat_snapshot`,
        :meth:`MemorySystem.flat_snapshot`).  Two snapshots' flat forms
        are equal exactly when the captured states are, whatever pages
        they do or do not share."""
        return self[:-2] + (CheckedMemory.flat_snapshot(self.dmem),
                            MemorySystem.flat_snapshot(self.mem))


@dataclass
class CheckedRunResult:
    """Summary of an error-free checked run."""

    cycles: int
    instructions: int
    blocks_checked: int
    halted: bool
    pc: int


class CheckedCore:
    """The Argus-1-protected core (see module docstring).

    ``detect=False`` keeps all architectural behaviour (including link
    tagging and the protected memory format) but evaluates no checkers -
    the mode the campaign uses to decide whether a fault is *masked*.
    """

    #: Checker categories that can be individually disabled (the
    #: composition ablation of Sec. 4.1.1: "a composition of all checkers
    #: is necessary in order to achieve good coverage").
    CHECKER_CATEGORIES = ("computation", "parity", "dcs", "memory", "watchdog")

    def __init__(self, embedded, mem_config=None, timing=None, injector=None,
                 detect=True, checkers=None):
        self.embedded = embedded
        program = embedded.program
        self.program = program
        # Per-binary predecode table (shared read-only across every core
        # over the same Program; see Program.predecoded).
        self._ptable = program.predecoded()
        self._text_base = program.text_base
        self.mem = MemorySystem(mem_config or MemoryConfig.paper(ways=1))
        program.load_into(self.mem.memory)
        self.dmem = CheckedMemory()
        self.dmem.restore(_dmem_image(program))
        self.timing = timing or Timing()
        self.detect = detect
        enabled = set(self.CHECKER_CATEGORIES if checkers is None else checkers)
        unknown = enabled - set(self.CHECKER_CATEGORIES)
        if unknown:
            raise ValueError("unknown checker categories: %s" % sorted(unknown))
        self.enabled_checkers = enabled if detect else set()
        self._chk_comp = detect and "computation" in enabled
        self._chk_parity = detect and "parity" in enabled
        self._chk_dcs = detect and "dcs" in enabled
        self._chk_mem = detect and "memory" in enabled
        self._chk_watchdog = detect and "watchdog" in enabled

        self.rf = CheckedRegisterFile()
        self.shs = ShsFile()
        self.adder = AdderChecker()
        self.rsse = RsseChecker()
        self.modulo = ModuloChecker()
        self.cfc = ControlFlowChecker(embedded.entry_dcs)
        self.collector = PayloadCollector()
        self.watchdog = Watchdog()
        self.set_injector(injector)

        self.pc = program.entry
        self.flag = 0  # architectural compare flag (SR[F])
        self.cfc_flag = 0  # the control-flow checker's verified copy
        self.cycles = 0
        self.instret = 0
        self.block_index = 0
        self.halted = False
        self.hung = False
        self._in_delay = False
        self._delayed_target = 0
        self._pending_term = None  # (kind, taken_chk, indirect_dcs)

    def set_injector(self, injector):
        """Install ``injector`` (None: no fault) as the core's signal tap.

        The core and its four checkers evaluate signals through one tap,
        so a recycled core swaps its fault here and only here.
        """
        tap = injector.tap if injector is not None else _identity_tap
        self.injector = injector
        self._tap = tap
        self.adder._tap = tap
        self.rsse._tap = tap
        self.modulo._tap = tap
        self.cfc._tap = tap

    # Shared process-wide decode memo; undecodable words execute as NOPs
    # and the DCS sees the omission.
    _decode = staticmethod(decode_or_none)

    def _raise(self, exc_class, detail, **payload):
        # Keyword residues become the DetectionEvent payload the
        # diagnosis engine inverts (values must stay JSON scalars).
        raise exc_class(detail, pc=self.pc, cycle=self.cycles,
                        instret=self.instret, block_index=self.block_index,
                        payload=payload or None)

    # ------------------------------------------------------------------
    def _hang(self):
        """A liveness fault: the pipeline stalls until the watchdog fires."""
        if self._chk_watchdog:
            remaining = self.watchdog.threshold - self.watchdog.counter
            self.cycles += max(remaining, 0)
            self.watchdog.fired = True
            self._raise(WatchdogError,
                        "pipeline stalled beyond watchdog threshold",
                        kind="hang")
        self.hung = True
        return None

    def _end_block(self, kind, taken_chk, indirect_dcs):
        """Block boundary: link tagging, DCS compare, SHS/collector reset."""
        self.block_index += 1
        fields = None
        payload_failure = None
        try:
            fields = self.collector.extract(kind)
        except PayloadError as exc:
            payload_failure = str(exc)

        # Architectural side effect: calls receive the link DCS in the
        # MSBs of the link register (Sec. 3.2.2, "Indirect Branches").
        if fields is not None and kind in ("call", "indirect_call"):
            link_dcs = fields.get("link")
            if link_dcs is not None:
                value, __ = self.rf.read(LINK)
                self.rf.write(LINK, (value & ADDR_MASK) | ((link_dcs & 0x1F) << 27))

        if self._chk_dcs:
            if payload_failure is not None:
                self._raise(ControlFlowError,
                            "payload extraction failed: " + payload_failure,
                            kind="payload")
            computed = self._tap("cfc.dcs", dcs_of_file(self.shs))
            try:
                self.cfc.block_end(
                    computed, kind, fields, taken=taken_chk,
                    indirect_dcs=indirect_dcs, pc=self.pc,
                    cycle=self.cycles, instret=self.instret,
                )
            finally:
                self.shs.reset()
        self.collector.reset()

    # ------------------------------------------------------------------
    def step(self):
        """Execute (retire) one instruction.

        Returns a retire record tuple ``(pc, rd, rd_value, flag,
        store_addr, store_value)`` with ``rd``/``store_addr`` of -1 when
        absent, or None if the core hung with detection disabled.
        Raises a subclass of :class:`~repro.argus.errors.ArgusError` on
        detection.
        """
        if self.halted:
            raise RuntimeError("core is halted")
        tap = self._tap

        if tap("ctl.hang", 0):
            return self._hang()

        pc = self.pc
        fetch_pc = tap("if.pc", pc) & WORD_MASK
        fetch_addr = fetch_pc & ADDR_MASK & ~3
        word, fetch_latency = self.mem.fetch(fetch_addr)
        word = tap("if.inst", word) & WORD_MASK
        stall = fetch_latency - 1

        word_fu = tap("id.word.fu", word) & WORD_MASK
        word_chk = tap("id.word.chk", word) & WORD_MASK
        word_shs = tap("id.word.shs", word) & WORD_MASK
        # The overwhelmingly common case is an uncorrupted fetch of static
        # text: one tuple index into the per-binary predecode table.  Any
        # mismatch (corrupted copy, wild fetch) falls back to the memo.
        decode = self._decode
        ptable = self._ptable
        index = (fetch_addr - self._text_base) >> 2
        if 0 <= index < len(ptable):
            tword, cached = ptable[index]
            fu = cached if word_fu == tword else decode(word_fu)
            chk = cached if word_chk == tword else decode(word_chk)
            shs_i = cached if word_shs == tword else decode(word_shs)
        else:
            fu = decode(word_fu)
            chk = decode(word_chk)
            shs_i = decode(word_shs)
        self.instret += 1

        if chk is not None:
            self.collector.add(chk)

        # Fig. 3 cross-check: FU and sub-checker receive independently
        # routed instruction copies; disagreement is itself a detection.
        # Copies that decoded to the same object agree by construction.
        if self._chk_comp and fu is not chk:
            cw_fu = canonical_word(fu) if fu is not None else None
            cw_chk = canonical_word(chk) if chk is not None else None
            if cw_fu != cw_chk:
                self._raise(ComputationCheckError,
                            "instruction copy disagreement (opcode distribution)",
                            unit="copy")

        # ---- operand fetch (ports driven by the FU-side decode) --------
        # Hot-loop locals: the flags and register file are touched on
        # nearly every instruction.
        rf = self.rf
        chk_parity = self._chk_parity
        chk_dcs = self._chk_dcs
        a_val = b_val = 0
        shs_a = shs_b = None
        if fu is not None:
            if fu.reads_ra:
                value, par = rf.read(fu.ra)
                a_val = tap("ex.op_a", value, index=fu.ra) & WORD_MASK
                a_par = tap("ex.op_a.par", par, index=fu.ra) & 1
                if chk_parity and parity32(a_val) != a_par:
                    self._raise(DataflowParityError,
                                "operand A parity (r%d)" % fu.ra,
                                port="a", reg=fu.ra)
                if chk_dcs:
                    shs_a = tap("ex.shs_a", self.shs.read(fu.ra)) & 0x1F
            if fu.reads_rb:
                value, par = rf.read(fu.rb)
                b_val = tap("ex.op_b", value, index=fu.rb) & WORD_MASK
                b_par = tap("ex.op_b.par", par, index=fu.rb) & 1
                if chk_parity and parity32(b_val) != b_par:
                    self._raise(DataflowParityError,
                                "operand B parity (r%d)" % fu.rb,
                                port="b", reg=fu.rb)
                if chk_dcs:
                    shs_b = tap("ex.shs_b", self.shs.read(fu.rb)) & 0x1F

        # ---- execute ----------------------------------------------------
        wb_value = None
        record_rd = -1
        record_val = 0
        store_addr = -1
        store_val = 0
        branch_taken = False
        branch_target = 0
        is_branch = False
        term = None  # (kind_chk, taken_chk, indirect_dcs)

        op = fu.op if fu is not None else None

        if op is None or op is Op.NOP or op is Op.SIG:
            pass
        elif op is Op.HALT:
            pass  # handled after the dispatch
        elif fu.is_load:
            wb_value, extra = self._exec_load(fu, chk, a_val)
            stall += extra
        elif fu.is_store:
            store_addr, store_val, extra = self._exec_store(fu, chk, a_val, b_val)
            stall += extra
        elif op is Op.SF or op is Op.SFI:
            rhs = b_val if op is Op.SF else (fu.imm & WORD_MASK)
            new_flag = 1 if evaluate_condition(fu.cond, a_val, rhs) else 0
            new_flag = tap("ex.flag", new_flag) & 1
            if self._chk_comp and not self.adder.check_compare(chk.cond, a_val, rhs, new_flag):
                self._raise(ComputationCheckError,
                            "compare sub-checker (%s)" % fu.mnemonic,
                            unit="compare", op=fu.mnemonic)
            self.flag = new_flag
            if self._chk_dcs:
                self.cfc_flag = new_flag
        elif fu.is_branch:
            is_branch = True
            branch_taken, branch_target, term = self._exec_branch(fu, chk, b_val, pc)
        elif op is Op.MOVHI:
            result = tap("ex.alu.result", (fu.imm << 16) & WORD_MASK)
            if self._chk_comp and not self.adder.check_add((chk.imm << 16) & WORD_MASK, 0, result):
                self._raise(ComputationCheckError, "movhi sub-checker",
                            unit="adder", op="movhi")
            wb_value = result
        elif fu.is_muldiv:
            wb_value, extra = self._exec_muldiv(fu, chk, a_val, b_val)
            stall += extra
        else:
            wb_value = self._exec_alu(fu, chk, a_val, b_val)

        # ---- writeback (value + SHS share the port) --------------------
        rd_port = None
        if fu is not None and fu.writes_rd and wb_value is not None:
            rd_port = tap("wb.rd", fu.rd, index=fu.rd) & 0x1F
            rf.write(rd_port, wb_value)
            record_rd = rd_port
            record_val = wb_value & WORD_MASK
        if is_branch and fu.is_call:
            link_value = (pc + 8) & ADDR_MASK
            rf.write(LINK, link_value)
            record_rd = LINK
            record_val = link_value

        # ---- SHS transfer (checker datapath) ----------------------------
        if chk_dcs and shs_i is not None:
            overrides = {}
            if shs_i.reads_ra and shs_a is not None:
                overrides[shs_i.ra] = shs_a
            if shs_i.reads_rb and shs_b is not None:
                overrides[shs_i.rb] = shs_b
            dest = rd_port if (shs_i.writes_rd and rd_port is not None) else None
            apply_instruction(self.shs, shs_i, overrides or None, dest)

        # ---- sequencing: delay slots and block boundaries ---------------
        if self._in_delay:
            if is_branch:
                # Only reachable via faults; the control effect of a
                # branch in a delay slot is dropped.
                is_branch = False
            next_pc = self._delayed_target
            self._in_delay = False
            pending = self._pending_term
            self._pending_term = None
            self.pc = next_pc & WORD_MASK
            self._finish_cycle(stall)
            self._end_block(*pending)
            return (pc, record_rd, record_val, self.flag, store_addr, store_val)

        if is_branch:
            self._in_delay = True
            self._delayed_target = branch_target if branch_taken else (pc + 8) & WORD_MASK
            self._pending_term = term
            self.pc = (pc + 4) & WORD_MASK
            self._finish_cycle(stall)
            return (pc, record_rd, record_val, self.flag, store_addr, store_val)

        if op is Op.HALT:
            self.pc = pc
            self._finish_cycle(stall)
            self._end_block("halt", None, None)
            self.halted = True
            return (pc, record_rd, record_val, self.flag, store_addr, store_val)

        self.pc = (pc + 4) & WORD_MASK
        self._finish_cycle(stall)
        if chk is not None and chk.op is Op.SIG and sig_is_terminator(word_chk):
            self._end_block("fallthrough", None, None)
        return (pc, record_rd, record_val, self.flag, store_addr, store_val)

    # ------------------------------------------------------------------
    def _finish_cycle(self, stall):
        self.cycles += 1 + stall
        self.watchdog.tick(False)
        if stall > 0 and self.watchdog.run_stalled(stall) and self._chk_watchdog:
            self._raise(WatchdogError, "stall exceeded watchdog threshold",
                        kind="stall")

    def _exec_alu(self, fu, chk, a_val, b_val):
        """Register/immediate ALU ops with their sub-checker replays."""
        tap = self._tap
        op = fu.op
        if op in (Op.ADDI, Op.ANDI, Op.ORI, Op.XORI):
            b_val = fu.imm & WORD_MASK
        result = tap("ex.alu.result", alu_execute(op, a_val, b_val, fu.shamt))
        if not self._chk_comp:
            return result
        cop = chk.op
        unit = "adder"
        if cop in (Op.ADD, Op.ADDI):
            ok = self.adder.check_add(a_val, b_val, result)
        elif cop is Op.SUB:
            ok = self.adder.check_sub(a_val, b_val, result)
        elif cop in (Op.AND, Op.ANDI, Op.OR, Op.ORI, Op.XOR, Op.XORI):
            ok = self.adder.check_logic(cop, a_val, b_val, result)
        elif cop in (Op.SRL, Op.SRA):
            ok = self.rsse.check_right_shift(cop, a_val, b_val & 31, result)
            unit = "rsse"
        elif cop in (Op.SRLI, Op.SRAI):
            ok = self.rsse.check_right_shift(cop, a_val, chk.shamt, result)
            unit = "rsse"
        elif cop is Op.SLL:
            ok = self.rsse.check_left_shift(a_val, b_val & 31, result)
            unit = "rsse"
        elif cop is Op.SLLI:
            ok = self.rsse.check_left_shift(a_val, chk.shamt, result)
            unit = "rsse"
        elif cop in (Op.EXTHS, Op.EXTBS, Op.EXTHZ, Op.EXTBZ):
            ok = self.rsse.check_extension(cop, a_val, result)
            unit = "rsse"
        else:  # pragma: no cover - dispatch is exhaustive for ALU ops
            ok = True
        if not ok:
            self._raise(ComputationCheckError, "%s sub-checker" % fu.mnemonic,
                        unit=unit, op=fu.mnemonic)
        return result

    def _exec_muldiv(self, fu, chk, a_val, b_val):
        tap = self._tap
        op = fu.op
        if op in (Op.MUL, Op.MULU):
            product = tap("ex.mul.product", mul64(op, a_val, b_val))
            product &= 0xFFFFFFFFFFFFFFFF
            if self._chk_comp:
                lhs, rhs = self.modulo.residues_mul(chk.op, a_val, b_val,
                                                    product)
                if lhs != rhs:
                    self._raise(ComputationCheckError,
                                "multiplier modulo sub-checker",
                                unit="modulo", op=fu.mnemonic,
                                modulus=self.modulo.modulus,
                                expected=lhs, observed=rhs)
            return product & WORD_MASK, self.timing.mul_extra
        quotient, remainder = divide(op, a_val, b_val)
        quotient = tap("ex.div.quotient", quotient) & WORD_MASK
        remainder = tap("ex.div.remainder", remainder) & WORD_MASK
        if self._chk_comp:
            lhs, rhs = self.modulo.residues_div(chk.op, a_val, b_val,
                                                quotient, remainder)
            if lhs != rhs:
                self._raise(ComputationCheckError,
                            "divider modulo sub-checker",
                            unit="modulo", op=fu.mnemonic,
                            modulus=self.modulo.modulus,
                            expected=lhs, observed=rhs)
        return quotient, self.timing.div_extra

    def _exec_branch(self, fu, chk, b_val, pc):
        """Branch resolution; returns (taken, target, pending terminal)."""
        tap = self._tap
        op = fu.op
        indirect_dcs = None
        if op is Op.BF or op is Op.BNF:
            arch_flag = tap("ctl.flag", self.flag) & 1
            taken = bool(arch_flag) if op is Op.BF else not arch_flag
            # With detection on, an undecodable checker copy has already
            # tripped the Fig. 3 cross-check; with detection off it only
            # matters that we pick *some* polarity for the (unused) CFC.
            chk_op = chk.op if chk is not None else op
            if chk_op is Op.BF:
                taken_chk = bool(self.cfc_flag)
            else:
                taken_chk = not self.cfc_flag
            target = tap("ctl.btarget", (pc + 4 * fu.offset) & WORD_MASK)
        elif op in (Op.J, Op.JAL):
            taken = True
            taken_chk = None
            target = tap("ctl.btarget", (pc + 4 * fu.offset) & WORD_MASK)
        else:  # JR / JALR: the target register carries the DCS in its MSBs
            taken = True
            taken_chk = None
            target = tap("ctl.btarget", b_val & WORD_MASK)
            indirect_dcs = (b_val >> 27) & 0x1F
            target = target & ADDR_MASK & ~3
        try:
            kind = terminal_kind(chk) if chk is not None else None
        except PayloadError:
            kind = None
        if kind is None:
            # The checker's copy does not even look like a branch; the
            # cross-check has fired already when detecting, and with
            # detection off the terminal kind only matters to checkers.
            kind = terminal_kind(fu)
        return taken, target & WORD_MASK, (kind, taken_chk, indirect_dcs)

    def _exec_load(self, fu, chk, a_val):
        tap = self._tap
        op = fu.op
        address = tap("lsu.addr", (a_val + fu.imm) & WORD_MASK)
        if self._chk_comp and not self.adder.check_address(a_val, fu.imm & WORD_MASK, address):
            self._raise(ComputationCheckError, "load address sub-checker",
                        unit="adder", op=fu.mnemonic)
        eff = address & ADDR_MASK
        word_addr = eff & ~3
        phys = tap("lsu.mem_addr", word_addr) & ADDR_MASK & ~3
        latency = self.mem.dcache.access(phys, is_write=False)
        if phys != word_addr:
            event = self.dmem.load_word_at_physical(word_addr, phys)
        else:
            event = self.dmem.load_word(word_addr)
        if self._chk_mem and not event.ok:
            self._raise(MemoryCheckError,
                        "load parity/address check at 0x%x" % word_addr,
                        kind="load", address=word_addr)
        raw = event.value
        offset = eff & 3
        if op is Op.LWZ:
            extended = raw
        elif op in (Op.LHZ, Op.LHS):
            extended = sign_extend_load(op, (raw >> (8 * (offset & 2))) & 0xFFFF)
        else:
            extended = sign_extend_load(op, (raw >> (8 * offset)) & 0xFF)
        result = tap("lsu.load_data", extended) & WORD_MASK
        if self._chk_comp and not self.rsse.check_load_extension(chk.op, raw, offset, result):
            self._raise(ComputationCheckError, "load alignment RSSE sub-checker",
                        unit="rsse", op=fu.mnemonic)
        return result, latency - 1

    def _exec_store(self, fu, chk, a_val, b_val):
        tap = self._tap
        op = fu.op
        address = tap("lsu.addr", (a_val + fu.imm) & WORD_MASK)
        if self._chk_comp and not self.adder.check_address(a_val, fu.imm & WORD_MASK, address):
            self._raise(ComputationCheckError, "store address sub-checker",
                        unit="adder", op=fu.mnemonic)
        eff = address & ADDR_MASK
        word_addr = eff & ~3
        offset = eff & 3
        if op is Op.SW:
            merged = b_val & WORD_MASK
            # Parity travels with the data from the register file.
            merged_parity = parity32(merged)
        else:
            old_event = self.dmem.load_word(word_addr)
            if self._chk_mem and not old_event.ok:
                self._raise(MemoryCheckError,
                            "read-modify-write parity check at 0x%x" % word_addr,
                            kind="rmw", address=word_addr)
            old = old_event.value
            if op is Op.SH:
                shift = 8 * (offset & 2)
                merged = (old & ~(0xFFFF << shift)) | ((b_val & 0xFFFF) << shift)
            else:
                shift = 8 * (offset & 3)
                merged = (old & ~(0xFF << shift)) | ((b_val & 0xFF) << shift)
            merged &= WORD_MASK
            merged_parity = parity32(merged)
            if self._chk_comp and not self.rsse.check_store_merge(chk.op, old, b_val, offset, merged):
                self._raise(ComputationCheckError, "store merge RSSE sub-checker",
                            unit="rsse", op=fu.mnemonic)
        data = tap("lsu.store_data", merged) & WORD_MASK
        phys = tap("lsu.mem_waddr", word_addr) & ADDR_MASK & ~3
        latency = self.mem.dcache.access(phys, is_write=True)
        if phys != word_addr:
            self.dmem.store_word_at_physical(word_addr, phys, data, merged_parity)
        else:
            self.dmem.store_word(word_addr, data, merged_parity)
        return phys, data, latency - 1

    # ------------------------------------------------------------------
    def run(self, max_instructions=5_000_000):
        """Run to ``halt``; returns a :class:`CheckedRunResult`.

        Raises an :class:`~repro.argus.errors.ArgusError` on detection.
        """
        while not self.halted:
            if self.instret >= max_instructions:
                raise RuntimeError(
                    "instruction budget exhausted at pc=0x%x" % self.pc)
            if self.step() is None:
                break  # hung with detection disabled
        return CheckedRunResult(
            cycles=self.cycles,
            instructions=self.instret,
            blocks_checked=self.cfc.blocks_checked,
            halted=self.halted,
            pc=self.pc,
        )

    # -- inspection ------------------------------------------------------
    def reg(self, index):
        return self.rf.values[index]

    def load_word(self, address):
        """Functional data-memory word (no checking, no timing)."""
        return self.dmem.peek_word(address)

    # -- state ------------------------------------------------------------
    def snapshot(self):
        """The complete core state as a :class:`CoreSnapshot`.

        Components come back as flat tuples and protected memory and the
        caches as page tables shared copy-on-write with the core, so a
        capture costs O(pages) and never deep-copies.
        """
        return CoreSnapshot(
            self.instret, self.pc, self.flag, self.cfc_flag, self.cycles,
            self.instret, self.block_index, self.halted, self.hung,
            self._in_delay, self._delayed_target, self._pending_term,
            self.rf.snapshot(), self.shs.snapshot(), self.cfc.snapshot(),
            self.collector.snapshot(), self.watchdog.snapshot(),
            self.dmem.snapshot(), self.mem.snapshot())

    def restore(self, snapshot):
        """Write a :meth:`snapshot` back, bit-exact; returns self.

        The core must have been built over the same embedded program
        (instruction memory is shared, not captured).  The injector and
        checker configuration are the core's own - restoring a golden
        snapshot into a differently-configured core is exactly how the
        campaign warm-starts its masking and detection runs.
        """
        (_, self.pc, self.flag, self.cfc_flag, self.cycles, self.instret,
         self.block_index, self.halted, self.hung, self._in_delay,
         self._delayed_target, self._pending_term,
         rf, shs, cfc, collector, watchdog, dmem, mem) = snapshot
        self.rf.restore(rf)
        self.shs.restore(shs)
        self.cfc.restore(cfc)
        self.collector.restore(collector)
        self.watchdog.restore(watchdog)
        self.dmem.restore(dmem)
        self.mem.restore(mem)
        return self

    def masking_view(self):
        """:meth:`CoreSnapshot.masking_view` of the live core, without
        paying for a capture (the reconvergence check runs it at every
        checkpoint boundary of a masking run, and the final-state compare
        at halt)."""
        return (
            self.pc,
            self.flag,
            tuple(self.rf.values),
            self.halted,
            self._in_delay,
            self._delayed_target,
            self._pending_term[0] if self._pending_term is not None else None,
            self.collector.snapshot(),
            self.dmem.stored_pages(),
        )

    def detection_view(self):
        """:meth:`CoreSnapshot.detection_view` of the live core, without
        paying for a capture (the detection runs' reconvergence check
        runs it at every checkpoint boundary of a disarmed lane)."""
        return (
            self.pc,
            self.flag,
            self.cfc_flag,
            self.halted,
            self.hung,
            self._in_delay,
            self._delayed_target,
            self._pending_term,
            self.rf.snapshot(),
            self.shs.snapshot(),
            self.cfc.expected,
            self.collector.snapshot(),
            self.dmem.page_tables(),
        )
