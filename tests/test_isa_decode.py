"""Unit tests for instruction decoding and classification flags."""

import pickle

import pytest

from repro.isa.decode import DecodeError, decode
from repro.isa.encoding import encode
from repro.isa.opcodes import Cond, Op


class TestClassification:
    def test_branch_flags(self):
        for op in (Op.J, Op.JAL, Op.BF, Op.BNF, Op.JR, Op.JALR):
            instr = decode(encode(op))
            assert instr.is_branch
        assert decode(encode(Op.ADD)).is_branch is False

    def test_conditional_branch_flags(self):
        assert decode(encode(Op.BF)).is_cond_branch
        assert decode(encode(Op.BNF)).is_cond_branch
        assert not decode(encode(Op.J)).is_cond_branch

    def test_call_flags(self):
        assert decode(encode(Op.JAL)).is_call
        assert decode(encode(Op.JALR)).is_call
        assert not decode(encode(Op.JR)).is_call

    def test_indirect_flags(self):
        assert decode(encode(Op.JR)).is_indirect
        assert decode(encode(Op.JALR)).is_indirect
        assert not decode(encode(Op.JAL)).is_indirect

    def test_load_store_flags(self):
        assert decode(encode(Op.LHS, rd=1, ra=2)).is_load
        assert decode(encode(Op.SH, ra=1, rb=2)).is_store
        assert not decode(encode(Op.LHS, rd=1, ra=2)).is_store

    def test_muldiv_flags(self):
        for op in (Op.MUL, Op.MULU, Op.DIV, Op.DIVU):
            assert decode(encode(op, rd=1, ra=2, rb=3)).is_muldiv

    def test_compare_flags(self):
        assert decode(encode(Op.SF, ra=1, rb=2, cond=0)).is_compare
        assert decode(encode(Op.SFI, ra=1, imm=5, cond=0)).is_compare

    def test_writes_rd(self):
        assert decode(encode(Op.ADD, rd=1, ra=2, rb=3)).writes_rd
        assert decode(encode(Op.LWZ, rd=1, ra=2)).writes_rd
        assert decode(encode(Op.MOVHI, rd=1, imm=1)).writes_rd
        assert not decode(encode(Op.SW, ra=1, rb=2)).writes_rd
        assert not decode(encode(Op.SF, ra=1, rb=2)).writes_rd
        assert not decode(encode(Op.J)).writes_rd

    def test_reads_ra(self):
        assert decode(encode(Op.ADD, rd=1, ra=2, rb=3)).reads_ra
        assert decode(encode(Op.LWZ, rd=1, ra=2)).reads_ra
        assert decode(encode(Op.SW, ra=1, rb=2)).reads_ra
        assert decode(encode(Op.EXTBS, rd=1, ra=2)).reads_ra
        assert not decode(encode(Op.MOVHI, rd=1, imm=0)).reads_ra
        assert not decode(encode(Op.J)).reads_ra

    def test_reads_rb(self):
        assert decode(encode(Op.ADD, rd=1, ra=2, rb=3)).reads_rb
        assert decode(encode(Op.SW, ra=1, rb=2)).reads_rb
        assert decode(encode(Op.JR, rb=5)).reads_rb
        assert not decode(encode(Op.EXTBS, rd=1, ra=2)).reads_rb
        assert not decode(encode(Op.ADDI, rd=1, ra=2, imm=0)).reads_rb

    def test_extensions_ignore_rb_field(self):
        # The rb field of an extension op is not a source; decode zeroes it.
        word = encode(Op.EXTHS, rd=1, ra=2) | (7 << 11)
        instr = decode(word)
        assert instr.rb == 0


class TestDecodeValues:
    def test_negative_jump_offset(self):
        assert decode(encode(Op.BF, offset=-5)).offset == -5

    def test_load_offset_sign_extension(self):
        assert decode(encode(Op.LBZ, rd=1, ra=2, imm=-128)).imm == -128

    def test_sfi_sign_extension(self):
        assert decode(encode(Op.SFI, ra=1, imm=-42, cond=Cond.LTS)).imm == -42

    def test_andi_zero_extension(self):
        assert decode(encode(Op.ANDI, rd=1, ra=2, imm=0x8000)).imm == 0x8000

    def test_mnemonics(self):
        assert decode(encode(Op.SF, ra=1, rb=2, cond=Cond.GTU)).mnemonic == "sfgtu"
        assert decode(encode(Op.SFI, ra=1, imm=0, cond=Cond.EQ)).mnemonic == "sfeqi"
        assert decode(encode(Op.LWZ, rd=1, ra=2)).mnemonic == "lwz"

    def test_word_is_preserved(self):
        word = encode(Op.ADD, rd=1, ra=2, rb=3) | (0x15 << 5)  # spare junk
        assert decode(word).word == word


class TestDecodeErrors:
    def test_unknown_primary(self):
        with pytest.raises(DecodeError):
            decode(0x3F << 26)

    def test_bad_alu_func(self):
        with pytest.raises(DecodeError):
            decode((0x38 << 26) | 0x1F)

    def test_bad_compare_condition(self):
        with pytest.raises(DecodeError):
            decode((0x39 << 26) | (0x1F << 21))

    def test_bad_shifti_func(self):
        with pytest.raises(DecodeError):
            decode((0x2E << 26) | (0x3 << 6))

    def test_zero_word_decodes_as_jump_to_self(self):
        # All-zero memory reads as "j .": the self-loop the control-flow
        # checker/watchdog must be able to catch after PC corruption.
        instr = decode(0)
        assert instr.op is Op.J
        assert instr.offset == 0


class TestPickle:
    @pytest.mark.parametrize("op", list(Op), ids=lambda op: op.name)
    def test_decoded_instr_round_trips(self, op):
        # Frozen with hand-written slots: unpickling must bypass the
        # frozen __setattr__.
        instr = decode(encode(op, rd=1, ra=2, rb=3, imm=5, shamt=4,
                              offset=-7))
        again = pickle.loads(pickle.dumps(instr))
        assert again == instr
        assert hash(again) == hash(instr)
        assert again.op is op
