"""Instruction decoding for the ``orr`` ISA.

:func:`decode` turns a 32-bit word into an :class:`Instr` record carrying
every architectural field plus the classification flags the pipeline and
the Argus checkers need.  Decoding is pure and deterministic; the CPU
front-end caches decoded instructions per program word.
"""

from dataclasses import dataclass

from repro.isa import opcodes as oc
from repro.isa.opcodes import Op
from repro.isa.encoding import spare_bit_positions


class DecodeError(ValueError):
    """Raised for words that do not encode a valid instruction."""


def _sext(value, bits):
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


@dataclass(frozen=True)
class Instr:
    """A decoded instruction.

    ``offset`` is the signed word offset of jump-format instructions;
    ``imm`` is the (sign- or zero-extended, per op) immediate of ALU/memory
    forms.  ``spare`` lists the spare-bit positions of the encoding format
    (MSB-first) so the Argus DCS extractor can collect embedded payload
    bits in fetch order.
    """

    __slots__ = (
        "op", "word", "rd", "ra", "rb", "imm", "shamt", "cond", "offset",
        "spare", "is_branch", "is_cond_branch", "is_call", "is_indirect",
        "is_load", "is_store", "is_muldiv", "is_compare", "writes_rd",
        "reads_ra", "reads_rb",
    )

    op: Op
    word: int
    rd: int
    ra: int
    rb: int
    imm: int
    shamt: int
    cond: int
    offset: int
    spare: tuple
    is_branch: bool
    is_cond_branch: bool
    is_call: bool
    is_indirect: bool
    is_load: bool
    is_store: bool
    is_muldiv: bool
    is_compare: bool
    writes_rd: bool
    reads_ra: bool
    reads_rb: bool

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        # Frozen: unpickling cannot go through the dataclass __setattr__.
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    @property
    def mnemonic(self):
        """Assembler mnemonic (condition-specialized for compares)."""
        if self.op is Op.SF:
            return "sf" + oc.COND_NAMES[self.cond]
        if self.op is Op.SFI:
            return "sf" + oc.COND_NAMES[self.cond] + "i"
        return self.op.name.lower()


_LOAD_PRIMARY = {
    oc.OPC_LWZ: Op.LWZ,
    oc.OPC_LHZ: Op.LHZ,
    oc.OPC_LHS: Op.LHS,
    oc.OPC_LBZ: Op.LBZ,
    oc.OPC_LBS: Op.LBS,
}
_STORE_PRIMARY = {oc.OPC_SW: Op.SW, oc.OPC_SH: Op.SH, oc.OPC_SB: Op.SB}
_JUMP_PRIMARY = {oc.OPC_J: Op.J, oc.OPC_JAL: Op.JAL, oc.OPC_BF: Op.BF, oc.OPC_BNF: Op.BNF}
_ALUI_PRIMARY = {
    oc.OPC_ADDI: Op.ADDI,
    oc.OPC_ANDI: Op.ANDI,
    oc.OPC_ORI: Op.ORI,
    oc.OPC_XORI: Op.XORI,
}

#: Operations whose ``ra`` field is a genuine source operand.
_READS_RA = (
    set(_ALUI_PRIMARY.values())
    | oc.LOAD_OPS
    | oc.STORE_OPS
    | oc.COMPARE_OPS
    | set(oc.ALU_FUNC)
    | {Op.SLLI, Op.SRLI, Op.SRAI}
)
# Unary ALU ops (shifts-by-imm, extensions) read only ra.
_UNARY_ALU = oc.EXT_OPS | {Op.SLLI, Op.SRLI, Op.SRAI}
_READS_RB = (
    (set(oc.ALU_FUNC) - oc.EXT_OPS) | {Op.SF} | oc.STORE_OPS | {Op.JR, Op.JALR}
)
_WRITES_RD = (
    set(_ALUI_PRIMARY.values())
    | oc.LOAD_OPS
    | set(oc.ALU_FUNC)
    | {Op.MOVHI, Op.SLLI, Op.SRLI, Op.SRAI}
)


def _make(op, word, rd=0, ra=0, rb=0, imm=0, shamt=0, cond=0, offset=0):
    return Instr(
        op=op,
        word=word,
        rd=rd,
        ra=ra,
        rb=rb,
        imm=imm,
        shamt=shamt,
        cond=cond,
        offset=offset,
        spare=spare_bit_positions(op),
        is_branch=op in oc.BRANCH_OPS,
        is_cond_branch=op in oc.CONDITIONAL_BRANCH_OPS,
        is_call=op in oc.CALL_OPS,
        is_indirect=op in oc.INDIRECT_OPS,
        is_load=op in oc.LOAD_OPS,
        is_store=op in oc.STORE_OPS,
        is_muldiv=op in oc.MULDIV_OPS,
        is_compare=op in oc.COMPARE_OPS,
        writes_rd=op in _WRITES_RD,
        reads_ra=op in _READS_RA,
        reads_rb=op in _READS_RB,
    )


def decode(word):
    """Decode a 32-bit instruction word into an :class:`Instr`.

    Spare bits are ignored architecturally (they may carry DCS payload),
    so any spare-bit pattern decodes identically.
    """
    word &= 0xFFFFFFFF
    primary = (word >> 26) & 0x3F
    rd = (word >> 21) & 0x1F
    ra = (word >> 16) & 0x1F
    rb = (word >> 11) & 0x1F
    imm16 = word & 0xFFFF

    if primary in _JUMP_PRIMARY:
        return _make(_JUMP_PRIMARY[primary], word, offset=_sext(word & 0x3FFFFFF, 26))
    if primary == oc.OPC_NOP:
        return _make(Op.NOP, word)
    if primary == oc.OPC_SIG:
        return _make(Op.SIG, word)
    if primary == oc.OPC_HALT:
        return _make(Op.HALT, word)
    if primary == oc.OPC_JR:
        return _make(Op.JR, word, rb=rb)
    if primary == oc.OPC_JALR:
        return _make(Op.JALR, word, rb=rb)
    if primary == oc.OPC_MOVHI:
        return _make(Op.MOVHI, word, rd=rd, imm=imm16)
    if primary in _LOAD_PRIMARY:
        return _make(_LOAD_PRIMARY[primary], word, rd=rd, ra=ra, imm=_sext(imm16, 16))
    if primary in _STORE_PRIMARY:
        off = _sext((rd << 11) | (word & 0x7FF), 16)
        return _make(_STORE_PRIMARY[primary], word, ra=ra, rb=rb, imm=off)
    if primary in _ALUI_PRIMARY:
        op = _ALUI_PRIMARY[primary]
        imm = _sext(imm16, 16) if op is Op.ADDI else imm16
        return _make(op, word, rd=rd, ra=ra, imm=imm)
    if primary == oc.OPC_SHIFTI:
        func = (word >> 6) & 0x3
        op = oc.FUNC_TO_SHIFTI_OP.get(func)
        if op is None:
            raise DecodeError("bad shifti func %d in word 0x%08x" % (func, word))
        return _make(op, word, rd=rd, ra=ra, shamt=word & 0x1F)
    if primary == oc.OPC_SFI:
        if rd not in oc.COND_NAMES:
            raise DecodeError("bad compare condition %d in word 0x%08x" % (rd, word))
        return _make(Op.SFI, word, ra=ra, imm=_sext(imm16, 16), cond=rd)
    if primary == oc.OPC_SF:
        if rd not in oc.COND_NAMES:
            raise DecodeError("bad compare condition %d in word 0x%08x" % (rd, word))
        return _make(Op.SF, word, ra=ra, rb=rb, cond=rd)
    if primary == oc.OPC_ALU:
        func = word & 0x1F
        op = oc.FUNC_TO_ALU_OP.get(func)
        if op is None:
            raise DecodeError("bad ALU func %d in word 0x%08x" % (func, word))
        if op in _UNARY_ALU or op in oc.EXT_OPS:
            return _make(op, word, rd=rd, ra=ra)
        return _make(op, word, rd=rd, ra=ra, rb=rb)
    raise DecodeError("unknown primary opcode 0x%02x in word 0x%08x" % (primary, word))


# -- shared decode memo -----------------------------------------------------
#
# Decoding is pure, so one process-wide memo over the 32-bit word replaces
# the per-instance caches the cores used to keep: every fresh core built
# for a fault-injection experiment reuses the decodes of every previous
# one instead of re-decoding the same static words.  DecodeErrors are
# memoized too (the fault campaign repeatedly feeds the same corrupted
# words), as fresh instances that were never raised: a caught error's
# traceback would pin the frames - and through them the core and its
# campaign - of the first caller forever.  The memo is cleared, not
# evicted, if it ever grows absurd - distinct words are bounded by the
# static program text plus the fault masks applied to it, so in practice
# it stays small.

_DECODE_CACHE = {}
_DECODE_CACHE_LIMIT = 1 << 20


def _decode_memo(word):
    """Instr for ``word``, or a never-raised DecodeError describing why
    it does not decode."""
    hit = _DECODE_CACHE.get(word)
    if hit is None:
        if len(_DECODE_CACHE) >= _DECODE_CACHE_LIMIT:
            _DECODE_CACHE.clear()
        try:
            hit = decode(word)
        except DecodeError as exc:
            hit = DecodeError(*exc.args)
        _DECODE_CACHE[word] = hit
    return hit


def decode_cached(word):
    """Memoized :func:`decode`: same contract, shared across all cores."""
    hit = _decode_memo(word)
    if type(hit) is not Instr:
        raise DecodeError(*hit.args)
    return hit


def decode_or_none(word):
    """Memoized decode that maps undecodable words to None.

    The checked core executes undecodable (fault-corrupted) words as NOPs
    and lets the DCS see the omission; this is its cache-friendly entry.
    """
    hit = _decode_memo(word)
    return hit if type(hit) is Instr else None


def predecode(words):
    """Decode a whole text segment once into a tuple of records.

    Returns a tuple aligned with ``words``: each element is
    ``(word, instr_or_none)``.  Keeping the encoded word next to the
    decode lets a fetch path verify the table entry still matches what
    the memory system delivered (fault-corrupted or wrong-word fetches
    miss and fall back to the per-word memo).
    """
    return tuple((word & 0xFFFFFFFF, decode_or_none(word)) for word in words)
