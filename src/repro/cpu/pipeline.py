"""Cycle-accurate 4-stage in-order pipeline (IF, ID, EX, WB).

The OR1200 (paper Sec. 3.1) is a single-issue 4-stage core with a full
bypass network, one branch delay slot with no branch penalty, a blocking
cache interface and a non-pipelined multiplier/divider.  This model
advances stage latches cycle by cycle:

* **IF** fetches one instruction per cycle on an I-cache hit; a miss
  occupies the fetch stage for the miss penalty.
* **ID** decodes; with full bypass from EX there are no data-hazard
  stalls in a 4-stage scalar pipeline.
* **EX** executes, resolves branches (the delay-slot instruction is
  already in ID, so taken branches redirect fetch with zero penalty) and
  performs memory accesses; D-cache misses and multi-cycle mul/div hold
  EX busy and stall the front end.
* **WB** retires.

The fast core (:mod:`repro.cpu.fastcore`) uses an *analytic* timing
model - one cycle per instruction plus serialized stall terms.  The two
models are built independently, which makes their agreement a genuine
cross-validation: functional state must match exactly, and the pipeline
cycle count must never exceed the analytic count (front-end misses can
overlap EX busy cycles here, so the pipeline is allowed to be slightly
*faster*) plus the pipeline-fill constant.
"""

from dataclasses import dataclass

from repro.cpu.fastcore import Timing
from repro.isa import registers
from repro.isa.decode import decode_cached
from repro.isa.opcodes import Op
from repro.isa.semantics import alu_execute, evaluate_condition, sign_extend_load
from repro.mem.hierarchy import MemoryConfig, MemorySystem

WORD_MASK = 0xFFFFFFFF
ADDR_MASK = registers.ADDR_MASK


@dataclass
class PipelineResult:
    """Outcome of a pipelined run."""

    cycles: int
    instructions: int
    halted: bool
    fetch_stall_cycles: int
    ex_stall_cycles: int

    @property
    def cpi(self):
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions


class _Slot:
    """A stage latch: one in-flight instruction."""

    __slots__ = ("pc", "instr")

    def __init__(self, pc, instr):
        self.pc = pc
        self.instr = instr


class PipelinedCore:
    """Stage-by-stage execution of the same ISA as FastCore.

    Architectural effects commit when an instruction occupies EX (the
    in-order scalar pipeline makes this indistinguishable from commit at
    WB), so functional behaviour is defined by the same
    :mod:`repro.isa.semantics` helpers the other cores use.
    """

    def __init__(self, program, mem_config=None, timing=None):
        self.program = program
        self.mem = MemorySystem(mem_config or MemoryConfig.paper(ways=1))
        program.load_into(self.mem.memory)
        self.timing = timing or Timing()
        self.regs = [0] * registers.NUM_REGS
        self.flag = False
        self.pc = program.entry  # next fetch address
        self.cycles = 0
        self.instret = 0
        self.halted = False
        self.fetch_stalls = 0
        self.ex_stalls = 0
        # Stage latches (None = bubble).
        self._if_slot = None  # fetched, waiting for ID
        self._id_slot = None  # decoded, waiting for EX
        self._wb_slot = None  # executed, waiting to retire
        self._if_busy = 0  # remaining I-miss cycles
        self._ex_busy = 0  # remaining EX stall cycles
        self._fetch_stopped = False  # halt observed: stop fetching
        # Delayed control transfer: set when a branch resolves in EX.
        self._redirect = None  # target once the delay slot passed IF
        self._delay_pending = False

    # Shared process-wide decode memo (decoding is pure per word).
    _decode = staticmethod(decode_cached)

    # ------------------------------------------------------------------
    def run(self, max_cycles=200_000_000):
        while not self.halted:
            if self.cycles >= max_cycles:
                raise RuntimeError("cycle budget exhausted at pc=0x%x" % self.pc)
            self._advance_cycle()
        return PipelineResult(
            cycles=self.cycles,
            instructions=self.instret,
            halted=self.halted,
            fetch_stall_cycles=self.fetch_stalls,
            ex_stall_cycles=self.ex_stalls,
        )

    def _advance_cycle(self):
        self.cycles += 1

        # ---- WB: retire --------------------------------------------------
        if self._wb_slot is not None:
            self.instret += 1
            if self._wb_slot.instr.op is Op.HALT:
                self.halted = True
            self._wb_slot = None

        # ---- EX ----------------------------------------------------------
        if self._ex_busy > 0:
            # EX occupied (D-miss or mul/div): instructions behind it
            # stall, but the front end keeps working - the OR1200 has
            # split (Harvard) caches, so an I-miss overlaps an EX stall.
            self._ex_busy -= 1
            self.ex_stalls += 1
        elif self._id_slot is not None:
            slot = self._id_slot
            self._id_slot = None
            extra = self._execute(slot)
            self._wb_slot = slot
            if extra:
                self._ex_busy = extra

        # ---- ID ----------------------------------------------------------
        if self._id_slot is None and self._if_slot is not None:
            self._id_slot = self._if_slot
            self._if_slot = None

        # ---- IF ----------------------------------------------------------
        if self._if_busy > 0:
            self._if_busy -= 1
            self.fetch_stalls += 1
            return
        if self._if_slot is None and not self._fetch_stopped:
            fetch_pc = self.pc & ADDR_MASK & ~3
            word, latency = self.mem.fetch(fetch_pc)
            instr = self._decode(word)
            self._if_slot = _Slot(self.pc, instr)
            if latency > 1:
                self._if_busy = latency - 1
            if instr.op is Op.HALT:
                self._fetch_stopped = True
            # Next-PC selection: the delay-slot fetch happens before a
            # pending redirect is honoured.
            if self._delay_pending:
                self._delay_pending = False
                self.pc = self._redirect
                self._redirect = None
            else:
                self.pc = (self.pc + 4) & WORD_MASK

    # ------------------------------------------------------------------
    def _execute(self, slot):
        """Architectural effects of one instruction; returns EX busy cycles."""
        instr = slot.instr
        op = instr.op
        regs = self.regs
        mask = WORD_MASK

        if op is Op.HALT or op is Op.NOP or op is Op.SIG:
            return 0
        if instr.is_load:
            address = (regs[instr.ra] + instr.imm) & ADDR_MASK
            if op is Op.LWZ:
                raw, latency = self.mem.load_word(address & ~3)
            elif op in (Op.LHZ, Op.LHS):
                raw, latency = self.mem.load_half(address & ~1)
            else:
                raw, latency = self.mem.load_byte(address)
            if instr.rd:
                regs[instr.rd] = sign_extend_load(op, raw)
            return latency - 1
        if instr.is_store:
            address = (regs[instr.ra] + instr.imm) & ADDR_MASK
            value = regs[instr.rb]
            if op is Op.SW:
                __, latency = self.mem.store_word(address & ~3, value)
            elif op is Op.SH:
                __, latency = self.mem.store_half(address & ~1, value & 0xFFFF)
            else:
                __, latency = self.mem.store_byte(address, value & 0xFF)
            return latency - 1
        if op is Op.SF:
            self.flag = evaluate_condition(instr.cond, regs[instr.ra],
                                           regs[instr.rb])
            return 0
        if op is Op.SFI:
            self.flag = evaluate_condition(instr.cond, regs[instr.ra],
                                           instr.imm & mask)
            return 0
        if instr.is_branch:
            taken = True
            if op is Op.BF:
                taken = self.flag
            elif op is Op.BNF:
                taken = not self.flag
            if op in (Op.JR, Op.JALR):
                target = regs[instr.rb] & ADDR_MASK & ~3
            else:
                target = (slot.pc + 4 * instr.offset) & mask
            if instr.is_call:
                regs[registers.LINK_REG] = (slot.pc + 8) & ADDR_MASK
            if taken:
                # The delay slot is in ID (or being fetched); redirect
                # applies to the fetch after it.
                if self._id_slot is not None or self._if_slot is not None:
                    # Delay slot already in flight: redirect now.
                    self.pc = target
                else:
                    self._redirect = target
                    self._delay_pending = True
            return 0
        if op is Op.MOVHI:
            if instr.rd:
                regs[instr.rd] = (instr.imm << 16) & mask
            return 0
        if op in (Op.ADDI, Op.ANDI, Op.ORI, Op.XORI):
            if instr.rd:
                regs[instr.rd] = alu_execute(op, regs[instr.ra],
                                             instr.imm & mask)
            return 0
        if op in (Op.SLLI, Op.SRLI, Op.SRAI):
            if instr.rd:
                regs[instr.rd] = alu_execute(op, regs[instr.ra],
                                             shamt=instr.shamt)
            return 0
        result = alu_execute(op, regs[instr.ra], regs[instr.rb])
        if instr.rd:
            regs[instr.rd] = result
        if instr.is_muldiv:
            if op in (Op.MUL, Op.MULU):
                return self.timing.mul_extra
            return self.timing.div_extra
        return 0

    # -- inspection ------------------------------------------------------
    def reg(self, index):
        return self.regs[index]

    def load_word(self, address):
        return self.mem.memory.read_word(address & ~3)
