"""Binary instruction encoding for the ``orr`` ISA.

All instructions are 32 bits with the primary opcode in bits [31:26].
Formats (bit ranges inclusive, MSB first)::

    jump     op[31:26] off26[25:0]                        (j, jal, bf, bnf)
    nop      op[31:26] spare[25:0]                        (nop, sig)
    halt     op[31:26] zero[25:0]
    jr       op[31:26] spare[25:16] rb[15:11] spare[10:0] (jr, jalr)
    movhi    op[31:26] rd[25:21] spare[20:16] imm16[15:0]
    load     op[31:26] rd[25:21] ra[20:16] off16[15:0]
    store    op[31:26] offhi[25:21] ra[20:16] rb[15:11] offlo[10:0]
    alui     op[31:26] rd[25:21] ra[20:16] imm16[15:0]    (addi, andi, ori, xori)
    shifti   op[31:26] rd[25:21] ra[20:16] spare[15:8] f[7:6] spare[5] sh[4:0]
    sfi      op[31:26] cond[25:21] ra[20:16] imm16[15:0]
    alu      op[31:26] rd[25:21] ra[20:16] rb[15:11] spare[10:5] func[4:0]
    sf       op[31:26] cond[25:21] ra[20:16] rb[15:11] spare[10:0]

"Spare" bits are ignored by the architecture; Argus-1's embedder packs DCS
payload bits into them (paper Sec. 3.2.2, "Signature Embedding").  Spare
bit positions are reported MSB-first so payload packing order is
deterministic across the toolchain and the hardware extractor.
"""

from repro.isa import opcodes as oc
from repro.isa.opcodes import Op


class EncodingError(ValueError):
    """Raised when an instruction cannot be encoded (field out of range)."""


WORD_MASK = 0xFFFFFFFF


def _check_range(name, value, bits, signed):
    if signed:
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    else:
        lo, hi = 0, (1 << bits) - 1
    if not lo <= value <= hi:
        raise EncodingError(
            "%s=%d out of %d-bit %s range" % (name, value, bits, "signed" if signed else "unsigned")
        )


def _ubits(name, value, bits, signed=False):
    _check_range(name, value, bits, signed)
    return value & ((1 << bits) - 1)


# Spare-bit position tables, MSB-first, by format name.
_SPARE_NOP = tuple(range(25, -1, -1))
_SPARE_JR = tuple(range(25, 15, -1)) + tuple(range(10, -1, -1))
_SPARE_MOVHI = tuple(range(20, 15, -1))[:5]
_SPARE_SHIFTI = tuple(range(15, 7, -1)) + (5,)
_SPARE_ALU = tuple(range(10, 4, -1))
_SPARE_SF = tuple(range(10, -1, -1))
_SPARE_NONE = ()

_FORMAT_SPARE = {
    "jump": _SPARE_NONE,
    "nop": _SPARE_NOP,
    "halt": _SPARE_NONE,
    "jr": _SPARE_JR,
    "movhi": _SPARE_MOVHI,
    "load": _SPARE_NONE,
    "store": _SPARE_NONE,
    "alui": _SPARE_NONE,
    "shifti": _SPARE_SHIFTI,
    "sfi": _SPARE_NONE,
    "alu": _SPARE_ALU,
    "sf": _SPARE_SF,
}

_OP_FORMAT = {
    Op.J: "jump",
    Op.JAL: "jump",
    Op.BF: "jump",
    Op.BNF: "jump",
    Op.NOP: "nop",
    Op.SIG: "nop",
    Op.HALT: "halt",
    Op.JR: "jr",
    Op.JALR: "jr",
    Op.MOVHI: "movhi",
    Op.LWZ: "load",
    Op.LHZ: "load",
    Op.LHS: "load",
    Op.LBZ: "load",
    Op.LBS: "load",
    Op.SW: "store",
    Op.SH: "store",
    Op.SB: "store",
    Op.ADDI: "alui",
    Op.ANDI: "alui",
    Op.ORI: "alui",
    Op.XORI: "alui",
    Op.SLLI: "shifti",
    Op.SRLI: "shifti",
    Op.SRAI: "shifti",
    Op.SFI: "sfi",
    Op.SF: "sf",
}
for _alu_op in oc.ALU_FUNC:
    _OP_FORMAT[_alu_op] = "alu"

_PRIMARY = {
    Op.J: oc.OPC_J,
    Op.JAL: oc.OPC_JAL,
    Op.BF: oc.OPC_BF,
    Op.BNF: oc.OPC_BNF,
    Op.NOP: oc.OPC_NOP,
    Op.SIG: oc.OPC_SIG,
    Op.HALT: oc.OPC_HALT,
    Op.JR: oc.OPC_JR,
    Op.JALR: oc.OPC_JALR,
    Op.MOVHI: oc.OPC_MOVHI,
    Op.LWZ: oc.OPC_LWZ,
    Op.LHZ: oc.OPC_LHZ,
    Op.LHS: oc.OPC_LHS,
    Op.LBZ: oc.OPC_LBZ,
    Op.LBS: oc.OPC_LBS,
    Op.SW: oc.OPC_SW,
    Op.SH: oc.OPC_SH,
    Op.SB: oc.OPC_SB,
    Op.ADDI: oc.OPC_ADDI,
    Op.ANDI: oc.OPC_ANDI,
    Op.ORI: oc.OPC_ORI,
    Op.XORI: oc.OPC_XORI,
    Op.SLLI: oc.OPC_SHIFTI,
    Op.SRLI: oc.OPC_SHIFTI,
    Op.SRAI: oc.OPC_SHIFTI,
    Op.SFI: oc.OPC_SFI,
    Op.SF: oc.OPC_SF,
}
for _alu_op in oc.ALU_FUNC:
    _PRIMARY[_alu_op] = oc.OPC_ALU


def op_format(op):
    """Name of the encoding format used by operation ``op``."""
    return _OP_FORMAT[op]


def spare_bit_positions(op):
    """Spare-bit positions (MSB-first) available in an instruction of ``op``.

    These are the "unused instruction bits" the Argus-1 embedder fills with
    DCS payload; the architecture ignores them entirely.
    """
    return _FORMAT_SPARE[_OP_FORMAT[op]]


def encode(op, rd=0, ra=0, rb=0, imm=0, shamt=0, cond=0, offset=0):
    """Encode one instruction to its 32-bit word.

    ``offset`` is the signed *word* offset for jump-format instructions
    (target = pc + 4*offset).  Spare bits are left zero; use
    :func:`set_spare_bits` to embed DCS payload afterwards.
    """
    fmt = _OP_FORMAT.get(op)
    if fmt is None:
        raise EncodingError("unknown op %r" % (op,))
    word = _PRIMARY[op] << 26
    if fmt == "jump":
        word |= _ubits("offset", offset, 26, signed=True)
    elif fmt in ("nop", "halt"):
        pass
    elif fmt == "jr":
        word |= _ubits("rb", rb, 5) << 11
    elif fmt == "movhi":
        word |= _ubits("rd", rd, 5) << 21
        if not -0x8000 <= imm <= 0xFFFF:
            raise EncodingError("imm=%d out of movhi 16-bit range" % imm)
        word |= imm & 0xFFFF
    elif fmt == "load":
        word |= _ubits("rd", rd, 5) << 21
        word |= _ubits("ra", ra, 5) << 16
        word |= _ubits("imm", imm, 16, signed=True)
    elif fmt == "store":
        off = _ubits("imm", imm, 16, signed=True)
        word |= ((off >> 11) & 0x1F) << 21
        word |= _ubits("ra", ra, 5) << 16
        word |= _ubits("rb", rb, 5) << 11
        word |= off & 0x7FF
    elif fmt == "alui":
        word |= _ubits("rd", rd, 5) << 21
        word |= _ubits("ra", ra, 5) << 16
        if op is Op.ADDI:
            word |= _ubits("imm", imm, 16, signed=True)
        else:
            word |= _ubits("imm", imm, 16)
    elif fmt == "shifti":
        word |= _ubits("rd", rd, 5) << 21
        word |= _ubits("ra", ra, 5) << 16
        word |= oc.SHIFTI_FUNC[op] << 6
        word |= _ubits("shamt", shamt, 5)
    elif fmt == "sfi":
        word |= _ubits("cond", cond, 5) << 21
        word |= _ubits("ra", ra, 5) << 16
        word |= _ubits("imm", imm, 16, signed=True)
    elif fmt == "alu":
        word |= _ubits("rd", rd, 5) << 21
        word |= _ubits("ra", ra, 5) << 16
        word |= _ubits("rb", rb, 5) << 11
        word |= oc.ALU_FUNC[op]
    elif fmt == "sf":
        word |= _ubits("cond", cond, 5) << 21
        word |= _ubits("ra", ra, 5) << 16
        word |= _ubits("rb", rb, 5) << 11
    else:  # pragma: no cover - formats are exhaustive
        raise EncodingError("unhandled format %s" % fmt)
    return word & WORD_MASK


def set_spare_bits(word, op, payload_bits):
    """Write ``payload_bits`` (list of 0/1, MSB-first) into spare positions.

    Returns the modified word.  Raises :class:`EncodingError` if the payload
    exceeds the format's capacity.
    """
    positions = spare_bit_positions(op)
    if len(payload_bits) > len(positions):
        raise EncodingError(
            "payload of %d bits exceeds %d spare bits" % (len(payload_bits), len(positions))
        )
    for bit, pos in zip(payload_bits, positions):
        if bit:
            word |= 1 << pos
        else:
            word &= ~(1 << pos)
    return word & WORD_MASK


def get_spare_bits(word, op):
    """Read all spare bits of ``word`` (MSB-first list of 0/1)."""
    return [(word >> pos) & 1 for pos in spare_bit_positions(op)]
