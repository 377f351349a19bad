"""Every table of the checker datapath against its definition.

The checked core derives the DCS, canonical words, operation ids,
payload bits and SHS transfers from precomputed tables and one per-word
memo.  Each table is built from the bit-level definition, and these
tests compare every one of them with that definition:

* the DCS table against ``dcs._fold_flat`` of the flattened SHS file,
  exhaustively per (location, value) and on 20k random files;
* ``shs_combine`` against the CRC5 chain it names;
* canonical words, operation ids and payload bits against the spare-bit
  loops, for every ``Op`` and random spare patterns;
* the SHS transfer plan against the straight-line transfer kept below as
  the specification, for every ``Op``, random SHS files, operand
  overrides and destination overrides;
* the per-word memo's bound.
"""

import random

import pytest

from repro.argus import dcs, shs
from repro.argus.crc import crc5_bits, crc5_word
from repro.argus.payload import PayloadCollector, payload_positions
from repro.argus.shs import (
    LOC_FLAG,
    LOC_MEM,
    LOC_PC,
    NUM_LOCATIONS,
    SHS_BITS,
    SHS_MASK,
    ShsFile,
    apply_instruction,
    canonical_word,
    op_identifier,
    shs_combine,
    word_facts,
)
from repro.isa.decode import decode
from repro.isa.encoding import encode, set_spare_bits, spare_bit_positions
from repro.isa.opcodes import COND_NAMES, Op
from repro.isa.registers import LINK_REG

# ---------------------------------------------------------------------------
# The definitions, as the bit-level loops they were written as.
# ---------------------------------------------------------------------------


def _flatten(values):
    """The flat SHS vector: location 0 in the most significant bits."""
    flat = 0
    for value in values:
        flat = (flat << SHS_BITS) | (value & SHS_MASK)
    return flat


def _ref_canonical(instr):
    word = instr.word
    for pos in spare_bit_positions(instr.op):
        word &= ~(1 << pos)
    return word & 0xFFFFFFFF


def _ref_combine(op_id, *inputs):
    state = crc5_bits(op_id & SHS_MASK, SHS_BITS)
    for value in inputs:
        state = crc5_bits(value & SHS_MASK, SHS_BITS, state)
    return state


def _ref_apply(values, instr, shs_overrides=None, dest_override=None):
    """The SHS transfer function, straight-line (the specification)."""
    op = instr.op
    if op is Op.NOP or op is Op.SIG or op is Op.HALT:
        return None

    def in_shs(reg):
        if shs_overrides is not None and reg in shs_overrides:
            return shs_overrides[reg]
        return values[reg]

    def dest(reg):
        return reg if dest_override is None else dest_override

    def write(location, value):
        if location != 0:
            values[location] = value & SHS_MASK

    op_id = crc5_word(_ref_canonical(instr))
    if instr.is_load:
        out = _ref_combine(op_id, in_shs(instr.ra))
        write(dest(instr.rd), out)
        return out
    if instr.is_store:
        store_out = _ref_combine(op_id, in_shs(instr.ra), in_shs(instr.rb))
        merged = _ref_combine(store_out, values[LOC_MEM])
        write(LOC_MEM, merged)
        return merged
    if op is Op.SF:
        out = _ref_combine(op_id, in_shs(instr.ra), in_shs(instr.rb))
        write(LOC_FLAG, out)
        return out
    if op is Op.SFI:
        out = _ref_combine(op_id, in_shs(instr.ra))
        write(LOC_FLAG, out)
        return out
    if op is Op.BF or op is Op.BNF:
        out = _ref_combine(op_id, values[LOC_FLAG])
        write(LOC_PC, out)
        return out
    if op is Op.J:
        out = _ref_combine(op_id)
        write(LOC_PC, out)
        return out
    if op is Op.JAL:
        out = _ref_combine(op_id)
        write(LOC_PC, out)
        write(LINK_REG, _ref_combine(op_id, 0x01))
        return out
    if op is Op.JR:
        out = _ref_combine(op_id, in_shs(instr.rb))
        write(LOC_PC, out)
        return out
    if op is Op.JALR:
        out = _ref_combine(op_id, in_shs(instr.rb))
        write(LOC_PC, out)
        write(LINK_REG, _ref_combine(op_id, 0x01))
        return out
    if op is Op.MOVHI:
        out = _ref_combine(op_id)
        write(dest(instr.rd), out)
        return out
    if op in (Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI, Op.SRAI):
        out = _ref_combine(op_id, in_shs(instr.ra))
        write(dest(instr.rd), out)
        return out
    if instr.reads_rb:
        out = _ref_combine(op_id, in_shs(instr.ra), in_shs(instr.rb))
    else:
        out = _ref_combine(op_id, in_shs(instr.ra))
    write(dest(instr.rd), out)
    return out


# ---------------------------------------------------------------------------
# Instances of every operation.
# ---------------------------------------------------------------------------


def _instances(op, rng, count):
    """``count`` decoded instances of ``op``: random fields (r0
    destinations and ra == rb included) and random spare patterns."""
    out = []
    for i in range(count):
        ra = rng.randrange(32)
        rb = ra if i % 4 == 1 else rng.randrange(32)
        rd = 0 if i % 4 == 2 else rng.randrange(32)
        word = encode(op, rd=rd, ra=ra, rb=rb, imm=rng.randrange(0x8000),
                      shamt=rng.randrange(32), cond=rng.choice(sorted(COND_NAMES)),
                      offset=rng.randrange(-(1 << 25), 1 << 25))
        spare = spare_bit_positions(op)
        word = set_spare_bits(word, op, [rng.randrange(2) for _ in spare])
        instr = decode(word)
        assert instr.op is op
        out.append(instr)
    return out


def _random_values(rng):
    return [rng.randrange(32) for _ in range(NUM_LOCATIONS)]


# ---------------------------------------------------------------------------
# DCS table
# ---------------------------------------------------------------------------


def test_dcs_table_exhaustive_per_location_and_value():
    for location in range(NUM_LOCATIONS):
        for value in range(1 << SHS_BITS):
            values = [0] * NUM_LOCATIONS
            values[location] = value
            want = dcs._fold_flat(_flatten(values))
            assert dcs.compute_dcs(values) == want, (location, value)
            shs_file = ShsFile()
            shs_file.values[:] = values
            assert dcs.dcs_of_file(shs_file) == want, (location, value)


def test_dcs_table_on_random_files():
    rng = random.Random(0xD05)
    shs_file = ShsFile()
    for _ in range(20_000):
        values = _random_values(rng)
        want = dcs._fold_flat(_flatten(values))
        shs_file.values[:] = values
        assert dcs.compute_dcs(values) == want
        assert dcs.dcs_of_file(shs_file) == want


def test_compute_dcs_masks_to_five_bits():
    rng = random.Random(5)
    values = [rng.randrange(1 << 12) for _ in range(NUM_LOCATIONS)]
    assert dcs.compute_dcs(values) == dcs._fold_flat(_flatten(values))


# ---------------------------------------------------------------------------
# CRC steps, canonical words, operation ids and payload bits
# ---------------------------------------------------------------------------


def test_shs_combine_is_the_crc_chain():
    for op_id in range(32):
        assert shs_combine(op_id) == _ref_combine(op_id)
        for a in range(32):
            assert shs_combine(op_id, a) == _ref_combine(op_id, a)
    rng = random.Random(7)
    for _ in range(5_000):
        inputs = [rng.randrange(256) for _ in range(rng.randrange(2, 4))]
        op_id = rng.randrange(256)
        assert shs_combine(op_id, *inputs) == _ref_combine(op_id, *inputs)


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_word_facts_match_spare_bit_loops(op):
    rng = random.Random(int(op))
    for instr in _instances(op, rng, 64):
        canonical = _ref_canonical(instr)
        assert canonical_word(instr) == canonical
        assert op_identifier(instr) == crc5_word(canonical)
        bits = tuple((instr.word >> pos) & 1 for pos in payload_positions(op))
        assert word_facts(instr).payload == bits
        collector = PayloadCollector()
        collector.add(instr)
        collector.add(instr)
        assert collector.snapshot() == bits + bits


# ---------------------------------------------------------------------------
# SHS transfer plan
# ---------------------------------------------------------------------------


def _override_cases(instr, rng):
    """Operand overrides: none, on ra, rb, both, and an unread register,
    with values beyond 5 bits (the transfer masks them)."""
    other = rng.randrange(32)
    return [
        None,
        {instr.ra: rng.randrange(256)},
        {instr.rb: rng.randrange(256)},
        {instr.ra: rng.randrange(32), instr.rb: rng.randrange(32)},
        {other: rng.randrange(32)},
    ]


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
def test_transfer_plan_matches_straight_line_transfer(op):
    rng = random.Random(0x5A5 + int(op))
    written = set()
    for instr in _instances(op, rng, 24):
        for overrides in _override_cases(instr, rng):
            for dest in (None, 0, instr.rd, rng.randrange(1, 32)):
                before = _random_values(rng)
                want_values = list(before)
                want = _ref_apply(want_values, instr, overrides, dest)
                shs_file = ShsFile()
                shs_file.values[:] = before
                got = apply_instruction(shs_file, instr, overrides, dest)
                assert got == want, (instr, overrides, dest)
                assert shs_file.values == want_values, (instr, overrides, dest)
                written.update(loc for loc in range(NUM_LOCATIONS)
                               if want_values[loc] != before[loc])
    # The special destinations are exercised: calls write the link
    # register, stores LOC_MEM, compares LOC_FLAG, branches LOC_PC.
    expected = {
        Op.JAL: {LOC_PC, LINK_REG}, Op.JALR: {LOC_PC, LINK_REG},
        Op.SW: {LOC_MEM}, Op.SF: {LOC_FLAG}, Op.SFI: {LOC_FLAG},
        Op.BF: {LOC_PC}, Op.J: {LOC_PC},
    }.get(op, set())
    assert expected <= written


# ---------------------------------------------------------------------------
# The per-word memo
# ---------------------------------------------------------------------------


def test_word_memo_clears_at_its_bound(monkeypatch):
    monkeypatch.setattr(shs, "_FACTS", {})
    monkeypatch.setattr(shs, "_FACTS_LIMIT", 8)
    sizes = []
    for imm in range(20):
        instr = decode(encode(Op.ADDI, rd=1, ra=2, imm=imm))
        facts = word_facts(instr)
        assert facts.canonical == _ref_canonical(instr)
        sizes.append(len(shs._FACTS))
    assert max(sizes) == 8
    assert sizes[:9] == [1, 2, 3, 4, 5, 6, 7, 8, 1]
    # A hit does not grow the memo.
    word_facts(decode(encode(Op.ADDI, rd=1, ra=2, imm=19)))
    assert len(shs._FACTS) == sizes[-1]
