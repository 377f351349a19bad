"""Fast functional + timing core for the performance experiments.

Models the OR1200-like pipeline's *timing* at instruction granularity:

* scalar in-order, base CPI of 1;
* single branch delay slot, no branch penalty (Sec. 3.1);
* I-cache/D-cache stalls added per access (blocking caches);
* non-pipelined multiplier/divider stalls (``Timing``).

Argus-1 "does not cause any pipeline stalls or delay instruction
retirement" and does not stretch the clock (Sec. 4.4), so this one timing
model serves both the baseline and the Argus-instrumented binaries; the
overhead of Argus shows up purely through the extra Signature (NOP)
instructions and the larger code footprint - exactly the paper's claim.
"""

from dataclasses import dataclass, field

from repro.isa import registers
from repro.isa.decode import decode_cached
from repro.isa.opcodes import Op
from repro.isa.semantics import (WORD_MASK, alu_execute, evaluate_condition,
                                 sign_extend_load)
from repro.mem.hierarchy import MemorySystem, MemoryConfig


class ExecutionLimitExceeded(Exception):
    """Raised when a run exceeds its instruction or cycle budget."""


@dataclass(frozen=True)
class Timing:
    """Extra (stall) cycles beyond the base 1-cycle issue."""

    mul_extra: int = 2  # 3-cycle non-pipelined multiply
    div_extra: int = 32  # 33-cycle serial divide


@dataclass
class RunResult:
    """Outcome of a :meth:`FastCore.run`."""

    cycles: int
    instructions: int
    sig_instructions: int
    halted: bool
    pc: int
    icache_hits: int
    icache_misses: int
    dcache_hits: int
    dcache_misses: int
    #: Dynamic instruction counts keyed by op *name* (e.g. ``"ADD"``), so
    #: the record round-trips through JSON telemetry sinks unchanged.
    op_histogram: dict = field(default_factory=dict)

    @property
    def cpi(self):
        if not self.instructions:
            return 0.0
        return self.cycles / self.instructions


class FastCore:
    """Functional + timing simulator (no checkers, no fault taps)."""

    def __init__(self, program, mem_config=None, timing=None,
                 collect_histogram=False):
        self.program = program
        self.mem = MemorySystem(mem_config or MemoryConfig.paper(ways=1))
        program.load_into(self.mem.memory)
        self.timing = timing or Timing()
        self.collect_histogram = collect_histogram
        self.regs = [0] * registers.NUM_REGS
        self.pc = program.entry
        self.flag = False
        self.cycles = 0
        self.instret = 0
        self.sig_count = 0
        self.halted = False
        self._histogram = {}

    # Shared process-wide decode memo (decoding is pure per word).
    _decode = staticmethod(decode_cached)

    def run(self, max_instructions=50_000_000, max_cycles=None):
        """Execute until ``halt``; returns a :class:`RunResult`.

        Raises :class:`ExecutionLimitExceeded` if the budget runs out,
        which almost always indicates a bug in a workload.
        """
        regs = self.regs
        mem = self.mem
        timing = self.timing
        histogram = self._histogram
        collect = self.collect_histogram
        mask = WORD_MASK
        addr_mask = registers.ADDR_MASK

        pc = self.pc
        flag = self.flag
        cycles = self.cycles
        instret = self.instret
        in_delay_slot = False
        delayed_target = 0

        while not self.halted:
            if instret >= max_instructions or (max_cycles is not None and cycles >= max_cycles):
                self.pc, self.flag, self.cycles, self.instret = pc, flag, cycles, instret
                raise ExecutionLimitExceeded(
                    "budget exhausted at pc=0x%x (%d instructions, %d cycles)"
                    % (pc, instret, cycles)
                )
            word, fetch_latency = mem.fetch(pc)
            instr = self._decode(word)
            cycles += fetch_latency  # 1-cycle hit covers the base CPI of 1
            instret += 1
            op = instr.op
            if collect:
                histogram[op] = histogram.get(op, 0) + 1

            branch_target = None
            link_write = None

            if op is Op.HALT:
                self.halted = True
            elif op is Op.NOP:
                pass
            elif op is Op.SIG:
                self.sig_count += 1
            elif instr.is_load:
                address = (regs[instr.ra] + instr.imm) & addr_mask
                if op is Op.LWZ:
                    raw, latency = mem.load_word(address & ~3)
                elif op in (Op.LHZ, Op.LHS):
                    raw, latency = mem.load_half(address & ~1)
                else:
                    raw, latency = mem.load_byte(address)
                cycles += latency - 1
                if instr.rd:
                    regs[instr.rd] = sign_extend_load(op, raw)
            elif instr.is_store:
                address = (regs[instr.ra] + instr.imm) & addr_mask
                value = regs[instr.rb]
                if op is Op.SW:
                    __, latency = mem.store_word(address & ~3, value)
                elif op is Op.SH:
                    __, latency = mem.store_half(address & ~1, value & 0xFFFF)
                else:
                    __, latency = mem.store_byte(address, value & 0xFF)
                cycles += latency - 1
            elif op is Op.SF:
                flag = evaluate_condition(instr.cond, regs[instr.ra], regs[instr.rb])
            elif op is Op.SFI:
                flag = evaluate_condition(instr.cond, regs[instr.ra], instr.imm & mask)
            elif op is Op.BF:
                if flag:
                    branch_target = (pc + 4 * instr.offset) & mask
            elif op is Op.BNF:
                if not flag:
                    branch_target = (pc + 4 * instr.offset) & mask
            elif op is Op.J:
                branch_target = (pc + 4 * instr.offset) & mask
            elif op is Op.JAL:
                branch_target = (pc + 4 * instr.offset) & mask
                link_write = (pc + 8) & addr_mask
            elif op is Op.JR:
                branch_target = regs[instr.rb] & addr_mask & ~3
            elif op is Op.JALR:
                branch_target = regs[instr.rb] & addr_mask & ~3
                link_write = (pc + 8) & addr_mask
            elif op is Op.MOVHI:
                if instr.rd:
                    regs[instr.rd] = (instr.imm << 16) & mask
            elif op in (Op.ADDI, Op.ANDI, Op.ORI, Op.XORI):
                if instr.rd:
                    regs[instr.rd] = alu_execute(op, regs[instr.ra], instr.imm & mask)
            elif op in (Op.SLLI, Op.SRLI, Op.SRAI):
                if instr.rd:
                    regs[instr.rd] = alu_execute(op, regs[instr.ra], shamt=instr.shamt)
            else:
                # Register-register ALU (incl. muldiv and extensions).
                result = alu_execute(op, regs[instr.ra], regs[instr.rb])
                if instr.is_muldiv:
                    if op in (Op.MUL, Op.MULU):
                        cycles += timing.mul_extra
                    else:
                        cycles += timing.div_extra
                if instr.rd:
                    regs[instr.rd] = result

            if link_write is not None:
                regs[registers.LINK_REG] = link_write

            if in_delay_slot:
                if branch_target is not None:
                    raise RuntimeError("branch in delay slot at pc=0x%x" % pc)
                pc = delayed_target
                in_delay_slot = False
            elif branch_target is not None:
                delayed_target = branch_target
                in_delay_slot = True
                pc += 4
            else:
                pc += 4

        self.pc, self.flag, self.cycles, self.instret = pc, flag, cycles, instret
        stats_i, stats_d = mem.icache.stats, mem.dcache.stats
        return RunResult(
            cycles=cycles,
            instructions=instret,
            sig_instructions=self.sig_count,
            halted=self.halted,
            pc=pc,
            icache_hits=stats_i.hits,
            icache_misses=stats_i.misses,
            dcache_hits=stats_d.hits,
            dcache_misses=stats_d.misses,
            op_histogram={op.name: count for op, count in histogram.items()},
        )

    # -- inspection helpers ------------------------------------------------
    def reg(self, index):
        """Architectural register value."""
        return self.regs[index]

    def load_word(self, address):
        """Functional memory word (no timing side effects)."""
        return self.mem.memory.read_word(address & ~3)
