"""State History Signatures (SHS) - paper Sec. 3.2.2, "DCS Computation".

A 5-bit SHS is kept for every architectural location: the 32 registers,
the program counter (``LOC_PC``), memory (``LOC_MEM``) and the condition
flag (``LOC_FLAG``; the OR1200 keeps its compare flag in SR, and since
branches consume it, it is an architectural location in the sense of
Appendix A).  An SHS encodes the *creation history* of the location's
current value - the operations and operand histories involved - but never
the data values themselves.

SHSs reset to location-specific initial values at every basic-block
boundary, so the end-of-block DCS depends only on the block's internal
dataflow and is computable at compile time.  The same
:func:`apply_instruction` transfer function is used by the hardware model
(:class:`repro.cpu.checkedcore.CheckedCore`) and the static embedder
(:mod:`repro.toolchain.embed`), which *is* the correctness condition the
control-flow/dataflow checker enforces.

The datapath is table-driven.  Every SHS hash chains CRC5 steps over
5-bit symbols, tabulated once from :func:`~repro.argus.crc.crc5_bits`.
Everything the checker derives from one instruction word - its canonical
word, operation id, payload bits and SHS transfer plan - is computed once
per word in one bounded memo (:func:`word_facts`), so the per-instruction
work is a few lookups.  A reset copies the initial-value template.
"""

from typing import NamedTuple, Optional

from repro.argus.crc import crc5_bits, crc5_word
from repro.isa import registers
from repro.isa.decode import _DECODE_CACHE_LIMIT
from repro.isa.encoding import spare_bit_positions
from repro.isa.opcodes import Op

SHS_BITS = 5
SHS_MASK = (1 << SHS_BITS) - 1

NUM_REG_LOCATIONS = registers.NUM_REGS
LOC_PC = 32
LOC_MEM = 33
LOC_FLAG = 34
NUM_LOCATIONS = 35

# Non-register initial values are arbitrary fixed constants; uniqueness is
# only required across the 32 registers (the paper picks 5 bits precisely
# because it is the smallest width giving every register a unique value).
_EXTRA_INITIALS = {LOC_PC: 0x11, LOC_MEM: 0x16, LOC_FLAG: 0x1D}


def initial_shs(location):
    """Location-specific reset value of an SHS."""
    if location < NUM_REG_LOCATIONS:
        return location & SHS_MASK
    return _EXTRA_INITIALS[location]


#: Reset image of the SHS file: location ``i`` holds ``initial_shs(i)``.
_INITIAL_VALUES = tuple(initial_shs(i) for i in range(NUM_LOCATIONS))

#: ``_STEP[state][symbol]`` is ``crc5_bits(symbol, SHS_BITS, state)``: one
#: CRC5 step over a 5-bit symbol.  Every SHS hash is a chain of them.
_STEP = tuple(
    tuple(crc5_bits(symbol, SHS_BITS, state) for symbol in range(1 << SHS_BITS))
    for state in range(1 << SHS_BITS)
)


def shs_combine(op_id, *input_shs):
    """New output SHS from the operation id and the input SHSs (CRC5)."""
    state = _STEP[0][op_id & SHS_MASK]
    for shs in input_shs:
        state = _STEP[state][shs & SHS_MASK]
    return state


class WordFacts(NamedTuple):
    """What the checker datapath derives from one instruction word.

    * ``canonical`` - the word with all spare bits cleared.  Operation
      identifiers hash the *architectural* content of the instruction
      only: the embedder computes static DCSs before the spare bits
      receive their payload, and the hardware must derive the same id
      after they have.
    * ``op_id`` - the 5-bit operation id, CRC5 of the canonical word.
    * ``payload`` - the word's payload bits in packing order
      (:func:`repro.argus.payload.payload_positions`).
    * ``plan`` - the SHS transfer ``(start, sources, dest, link)`` that
      :func:`apply_instruction` executes, or None for nop/sig/halt.  The
      output SHS is the CRC chain from ``start`` (the state after
      ``op_id``) over the SHSs of the ``sources`` locations, written to
      ``dest``; ``link`` is what calls write to the link register.
    """

    canonical: int
    op_id: int
    payload: tuple
    plan: Optional[tuple]


def _transfer_plan(instr, op_id):
    """The SHS transfer of ``instr`` as :attr:`WordFacts.plan`.

    The output hashes the histories of the registers the instruction
    reads - so a load's value history starts fresh at the load (memory
    dataflow is not SHS-tracked; see paper footnote 1) - except that a
    conditional branch hashes the flag's.  It goes to ``rd``, or to
    SHS_mem, SHS_flag or SHS_pc for stores, compares and branches.
    """
    op = instr.op
    if op is Op.NOP or op is Op.SIG or op is Op.HALT:
        return None
    if instr.is_cond_branch:
        sources = (LOC_FLAG,)
    else:
        sources = (instr.ra,) * instr.reads_ra + (instr.rb,) * instr.reads_rb
    if instr.is_store:
        dest = LOC_MEM
    elif instr.is_compare:
        dest = LOC_FLAG
    elif instr.is_branch:
        dest = LOC_PC
    else:
        dest = instr.rd
    start = _STEP[0][op_id]
    link = _STEP[start][0x01] if instr.is_call else None
    return (start, sources, dest, link)


def _derive_facts(instr):
    # payload imports this module for its collector, so import lazily.
    from repro.argus.payload import payload_positions

    word = instr.word
    spare = sum(1 << pos for pos in spare_bit_positions(instr.op))
    canonical = word & ~spare & 0xFFFFFFFF
    op_id = crc5_word(canonical)
    payload = tuple((word >> pos) & 1 for pos in payload_positions(instr.op))
    return WordFacts(canonical, op_id, payload, _transfer_plan(instr, op_id))


# One process-wide memo over the 32-bit word, bounded like the decode memo
# (repro.isa.decode) and for the same reason: faulted lanes feed it
# corrupted words, and a service process lives long.  Keyed by the word
# alone because every Instr is decoded from its ``word``.
_FACTS = {}
_FACTS_LIMIT = _DECODE_CACHE_LIMIT


def word_facts(instr):
    """The memoized :class:`WordFacts` of a decoded instruction."""
    facts = _FACTS.get(instr.word)
    if facts is None:
        if len(_FACTS) >= _FACTS_LIMIT:
            _FACTS.clear()
        facts = _FACTS[instr.word] = _derive_facts(instr)
    return facts


def canonical_word(instr):
    """Instruction word with all spare bits cleared (see :class:`WordFacts`)."""
    return word_facts(instr).canonical


def op_identifier(instr):
    """5-bit operation id hashed over the canonical instruction word.

    Covers opcode, function/condition codes, register specifiers and
    immediates - Appendix A folds immediates into the instruction
    specification, so a decode fault that corrupts an immediate perturbs
    the id and therefore the block DCS.
    """
    return word_facts(instr).op_id


class ShsFile:
    """The SHS register file: one 5-bit signature per location.

    In Argus-1 hardware the 32 register SHSs form one wide 160-bit
    register that can be read/reset in parallel; here that simply means a
    list, whose entries always hold 5-bit values.  ``corrupt`` supports
    fault injection into the checker state itself (such faults must never
    cause silent corruption - at worst a detected masked error).
    """

    __slots__ = ("values",)

    def __init__(self):
        self.values = list(_INITIAL_VALUES)

    def reset(self):
        """Block-boundary reset to the location-specific initial values."""
        self.values[:] = _INITIAL_VALUES

    def read(self, location):
        return self.values[location]

    def write(self, location, shs):
        # r0 is hard-wired: its history never changes, mirroring the
        # architectural register.
        if location == 0:
            return
        self.values[location] = shs & SHS_MASK

    def corrupt(self, location, bit):
        """Flip one bit of one SHS (checker-hardware fault injection)."""
        self.values[location] ^= (1 << bit) & SHS_MASK

    def snapshot(self):
        return tuple(self.values)

    def restore(self, snapshot):
        """Write back a :meth:`snapshot` capture."""
        self.values = list(snapshot)


def apply_instruction(shs_file, instr, shs_overrides=None, dest_override=None):
    """Apply one instruction's SHS transfer function to ``shs_file``.

    ``shs_overrides`` optionally maps register index -> SHS value to use
    for that register input instead of the stored one; the checked core
    uses this to model SHS values travelling with operands through the
    (possibly faulted) datapath.  ``dest_override`` redirects a
    register-destination write to a different register index, modelling
    that the SHS shares the (possibly faulted) write port with the data -
    which is what makes the permuted DCS catch wrong-destination errors.
    The embedder calls this with neither to compute static DCSs.

    Returns the output SHS written (or None for instructions with no SHS
    output, i.e. nop/sig/halt).
    """
    plan = word_facts(instr).plan
    if plan is None:
        return None
    state, sources, dest, link = plan
    values = shs_file.values
    step = _STEP
    for src in sources:
        if shs_overrides is not None and src in shs_overrides:
            state = step[state][shs_overrides[src] & SHS_MASK]
        else:
            state = step[state][values[src]]
    if dest == LOC_MEM:
        # SHS_mem accumulates a hash of every store's output SHS so that
        # operand delivery to the memory system is covered.
        state = step[step[0][state]][values[LOC_MEM]]
    elif dest_override is not None and dest < NUM_REG_LOCATIONS:
        dest = dest_override
    # r0 is hard-wired (see ShsFile.write).
    if dest:
        values[dest] = state
    if link is not None:
        values[registers.LINK_REG] = link
    return state
