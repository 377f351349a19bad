"""DCS payload embedding/extraction conventions (paper Sec. 3.2).

Each basic block carries the DCSs of its legal successors in the spare
bits of its own instructions; actual Signature instructions (NOPs) are
added only when a block lacks spare-bit capacity.  This module pins down
the convention shared by the static embedder and the hardware extractor:

* **Block terminals.**  A block ends with (a) a branch/jump plus its
  delay slot, (b) ``halt``, or (c) a Signature instruction whose
  T(erminator) bit - the first spare bit, bit 25 - is set.  Case (c)
  marks fall-through block boundaries (and max-size splits), which the
  hardware could not otherwise see in the instruction stream.
* **Payload fields** depend only on the terminal kind, so no length
  header is needed (see :func:`payload_fields`).
* **Packing order.**  Payload bits fill the payload positions of the
  block's instructions in fetch order, MSB-first within each field.
  Payload positions are the format's spare bits, except that a Signature
  instruction's T bit is excluded.

The hardware extractor does not walk the positions per fetch: each
word's payload bits are read once into the per-word memo of
:func:`repro.argus.shs.word_facts`, which :meth:`PayloadCollector.add`
appends from.
"""

from repro.argus.shs import word_facts
from repro.isa.encoding import spare_bit_positions
from repro.isa.opcodes import Op


class PayloadError(Exception):
    """Raised when embedded payload and hardware expectations disagree."""


#: Bit position of the Signature instruction's terminator flag.
SIG_TERMINATOR_BIT = 25

_FIELDS_BY_KIND = {
    "cond": ("taken", "fallthrough"),
    "jump": ("target",),
    "call": ("target", "link"),
    "indirect": (),
    "indirect_call": ("link",),
    "halt": (),
    "fallthrough": ("next",),
}


def terminal_kind(instr):
    """Terminal kind of a block ending in ``instr`` (branch/halt/sig-T)."""
    op = instr.op
    if op is Op.BF or op is Op.BNF:
        return "cond"
    if op is Op.J:
        return "jump"
    if op is Op.JAL:
        return "call"
    if op is Op.JR:
        return "indirect"
    if op is Op.JALR:
        return "indirect_call"
    if op is Op.HALT:
        return "halt"
    if op is Op.SIG:
        return "fallthrough"
    raise PayloadError("%s cannot terminate a block" % instr.mnemonic)


def payload_fields(kind):
    """Names of the successor-DCS fields a block of this kind embeds."""
    return _FIELDS_BY_KIND[kind]


def payload_positions(op):
    """Spare-bit positions usable for payload in an instruction of ``op``."""
    positions = spare_bit_positions(op)
    if op is Op.SIG:
        return tuple(p for p in positions if p != SIG_TERMINATOR_BIT)
    return positions


def payload_capacity(op):
    """Number of payload bits an instruction of ``op`` contributes."""
    return len(payload_positions(op))


def sig_word(terminator):
    """Encoded Signature instruction with the given T bit (payload zero)."""
    from repro.isa.encoding import encode  # local import avoids cycle

    word = encode(Op.SIG)
    if terminator:
        word |= 1 << SIG_TERMINATOR_BIT
    return word


def sig_is_terminator(word):
    """True if a Signature word has its T bit set."""
    return bool((word >> SIG_TERMINATOR_BIT) & 1)


def embed_bits(words, ops, bits):
    """Pack ``bits`` (list of 0/1) into the payload positions of a block.

    ``words``/``ops`` are the block's instruction words and their decoded
    ops, in fetch order.  Returns the modified word list.  Raises
    :class:`PayloadError` when capacity is insufficient (the embedder's
    phase 1 must have added Signature instructions to prevent this).
    """
    out = list(words)
    cursor = 0
    for index, op in enumerate(ops):
        if cursor >= len(bits):
            break
        word = out[index]
        for pos in payload_positions(op):
            if cursor >= len(bits):
                break
            if bits[cursor]:
                word |= 1 << pos
            else:
                word &= ~(1 << pos)
            cursor += 1
        out[index] = word & 0xFFFFFFFF
    if cursor < len(bits):
        raise PayloadError(
            "block capacity %d bits < payload %d bits" % (cursor, len(bits))
        )
    return out


def fields_to_bits(values, width=5):
    """Flatten 5-bit field values into an MSB-first bit list."""
    bits = []
    for value in values:
        for i in range(width - 1, -1, -1):
            bits.append((value >> i) & 1)
    return bits


class PayloadCollector:
    """Hardware-side payload extractor.

    The fetch stage feeds every instruction of the current block through
    :meth:`add`; at the block boundary :meth:`extract` parses the
    collected bit stream into the successor-DCS fields implied by the
    terminal kind, and :meth:`reset` starts the next block.
    """

    __slots__ = ("_bits",)

    def __init__(self):
        self._bits = []

    def reset(self):
        self._bits = []

    def add(self, instr):
        """Collect the payload bits of one fetched instruction."""
        self._bits.extend(word_facts(instr).payload)

    def capacity(self):
        """Bits collected so far for the current block."""
        return len(self._bits)

    def snapshot(self):
        """Immutable capture of the in-flight block's collected bits."""
        return tuple(self._bits)

    def restore(self, snapshot):
        self._bits = list(snapshot)

    def extract(self, kind, width=5):
        """Parse collected bits into the fields of a ``kind`` terminal."""
        fields = _FIELDS_BY_KIND[kind]
        needed = width * len(fields)
        if len(self._bits) < needed:
            raise PayloadError(
                "collected %d payload bits, %s terminal needs %d"
                % (len(self._bits), kind, needed)
            )
        values = {}
        cursor = 0
        for name in fields:
            value = 0
            for _ in range(width):
                value = (value << 1) | self._bits[cursor]
                cursor += 1
            values[name] = value
        return values
