"""Unit tests for DCS computation and payload embedding/extraction."""

import pytest
from hypothesis import given, strategies as st

from repro.argus.dcs import DCS_MASK, PERMUTATION, compute_dcs, dcs_of_file
from repro.argus.payload import (
    PayloadCollector,
    PayloadError,
    embed_bits,
    fields_to_bits,
    payload_capacity,
    payload_fields,
    payload_positions,
    sig_is_terminator,
    sig_word,
    terminal_kind,
)
from repro.argus.shs import NUM_LOCATIONS, ShsFile, initial_shs
from repro.isa.decode import decode
from repro.isa.encoding import encode
from repro.isa.opcodes import Op


class TestDcs:
    def test_five_bits(self):
        assert 0 <= compute_dcs([initial_shs(i) for i in range(NUM_LOCATIONS)]) <= DCS_MASK

    def test_permutation_is_a_permutation(self):
        assert sorted(PERMUTATION) == list(range(NUM_LOCATIONS * 5))

    def test_value_change_changes_dcs_mostly(self):
        base = [initial_shs(i) for i in range(NUM_LOCATIONS)]
        reference = compute_dcs(base)
        changed = 0
        for loc in range(NUM_LOCATIONS):
            for bit in range(5):
                mutated = list(base)
                mutated[loc] ^= 1 << bit
                if compute_dcs(mutated) != reference:
                    changed += 1
        # Single-bit SHS changes always flip exactly one folded bit.
        assert changed == NUM_LOCATIONS * 5

    def test_assignment_sensitivity(self):
        """Swapping two SHS values usually changes the DCS (the permuted
        fold makes the DCS depend on *which register* holds a history);
        two-bit differences can alias with probability ~1/5."""
        base = [initial_shs(i) for i in range(NUM_LOCATIONS)]
        reference = compute_dcs(base)
        detected = 0
        total = 0
        for i in range(0, 30):
            for j in range(i + 1, 31):
                swapped = list(base)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                total += 1
                if compute_dcs(swapped) != reference:
                    detected += 1
        assert detected / total > 0.70

    def test_dcs_of_file_matches_compute(self):
        shs = ShsFile()
        assert dcs_of_file(shs) == compute_dcs(shs.values)


class TestTerminalKinds:
    @pytest.mark.parametrize("op,kind", [
        (Op.BF, "cond"), (Op.BNF, "cond"), (Op.J, "jump"), (Op.JAL, "call"),
        (Op.JR, "indirect"), (Op.JALR, "indirect_call"), (Op.HALT, "halt"),
        (Op.SIG, "fallthrough"),
    ])
    def test_kinds(self, op, kind):
        assert terminal_kind(decode(encode(op))) == kind

    def test_non_terminal_rejected(self):
        with pytest.raises(PayloadError):
            terminal_kind(decode(encode(Op.ADD)))

    @pytest.mark.parametrize("kind,fields", [
        ("cond", ("taken", "fallthrough")),
        ("jump", ("target",)),
        ("call", ("target", "link")),
        ("indirect", ()),
        ("indirect_call", ("link",)),
        ("halt", ()),
        ("fallthrough", ("next",)),
    ])
    def test_field_lists(self, kind, fields):
        assert payload_fields(kind) == fields


class TestSigWord:
    def test_terminator_flag(self):
        assert sig_is_terminator(sig_word(True))
        assert not sig_is_terminator(sig_word(False))

    def test_sig_payload_excludes_t_bit(self):
        positions = payload_positions(Op.SIG)
        assert 25 not in positions
        assert len(positions) == 25

    def test_nop_payload_is_full_spare(self):
        assert payload_capacity(Op.NOP) == 26


class TestEmbedExtract:
    def _block(self, *ops):
        words = [encode(op, rd=1, ra=2, rb=3) if op is not Op.SIG else sig_word(False)
                 for op in ops]
        return words, list(ops)

    def test_roundtrip_through_collector(self):
        words, ops = self._block(Op.ADD, Op.SUB, Op.SIG)
        values = [0x15, 0x0A]
        packed = embed_bits(words, ops, fields_to_bits(values))
        collector = PayloadCollector()
        for word, op in zip(packed, ops):
            collector.add(decode(word))
        fields = collector.extract("cond")
        assert fields == {"taken": 0x15, "fallthrough": 0x0A}

    def test_insufficient_capacity_raises(self):
        words, ops = self._block(Op.LWZ)
        with pytest.raises(PayloadError):
            embed_bits(words, ops, fields_to_bits([0x1F]))

    def test_extract_without_enough_bits_raises(self):
        collector = PayloadCollector()
        collector.add(decode(encode(Op.LWZ, rd=1, ra=2)))
        with pytest.raises(PayloadError):
            collector.extract("jump")

    def test_collector_reset(self):
        collector = PayloadCollector()
        collector.add(decode(sig_word(False)))
        assert collector.capacity() == 25
        collector.reset()
        assert collector.capacity() == 0

    def test_zero_field_kinds_need_no_bits(self):
        collector = PayloadCollector()
        assert collector.extract("halt") == {}
        assert collector.extract("indirect") == {}

    def test_embedding_preserves_architecture(self):
        words, ops = self._block(Op.ADD, Op.SUB, Op.SIG)
        packed = embed_bits(words, ops, fields_to_bits([0x1F, 0x1F]))
        for original, new in zip(words, packed):
            a, b = decode(original), decode(new)
            assert (a.op, a.rd, a.ra, a.rb) == (b.op, b.rd, b.ra, b.rb)


@given(values=st.lists(st.integers(0, 31), min_size=1, max_size=2))
def test_embed_extract_property(values):
    """Property: any field values survive the pack/collect/extract cycle."""
    ops = [Op.ADD, Op.SIG]
    words = [encode(Op.ADD, rd=1, ra=2, rb=3), sig_word(False)]
    packed = embed_bits(words, ops, fields_to_bits(values))
    collector = PayloadCollector()
    for word, op in zip(packed, ops):
        collector.add(decode(word))
    kind = {1: "jump", 2: "cond"}[len(values)]
    fields = collector.extract(kind)
    assert list(fields.values()) == values
