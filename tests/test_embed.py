"""Unit tests for phases 2-3: block discovery, DCS computation, embedding."""

import pytest

from repro.argus.dcs import dcs_of_file
from repro.argus.payload import PayloadCollector
from repro.argus.shs import ShsFile, apply_instruction
from repro.isa.decode import decode
from repro.isa import registers
from repro.toolchain.embed import EmbedError, embed_program, scan_hardware_blocks

SIMPLE = """
start:  li   r1, 3
loop:   addi r1, r1, -1
        sfgtsi r1, 0
        bf   loop
        nop
        halt
"""

CALLS = """
start:  jal  fn
        nop
        lwz  r2, 0(r3)
        halt
fn:     add  r2, r2, r2
        ret
        nop
"""


class TestScanHardwareBlocks:
    def test_blocks_partition_text(self):
        embedded = embed_program(SIMPLE)
        blocks = list(embedded.blocks.values())
        assert blocks[0].start == embedded.program.text_base
        for previous, current in zip(blocks, blocks[1:]):
            assert previous.end == current.start
        assert blocks[-1].end == embedded.program.text_end

    def test_branch_targets_are_block_starts(self):
        embedded = embed_program(SIMPLE)
        loop = embedded.program.addr_of("loop")
        assert loop in embedded.blocks

    def test_kind_assignment(self):
        embedded = embed_program(CALLS)
        kinds = [b.kind for b in embedded.blocks.values()]
        assert kinds == ["call", "halt", "indirect"]

    def test_rescan_matches_embedder(self):
        embedded = embed_program(SIMPLE)
        rescanned = scan_hardware_blocks(embedded.program)
        assert list(rescanned) == list(embedded.blocks)


class TestDcsComputation:
    def test_static_dcs_matches_shs_replay(self):
        embedded = embed_program(SIMPLE)
        for block in embedded.blocks.values():
            shs = ShsFile()
            addr = block.start
            while addr < block.end:
                apply_instruction(shs, decode(embedded.program.word_at(addr)))
                addr += 4
            assert dcs_of_file(shs) == block.dcs

    def test_payload_embedding_does_not_change_dcs(self):
        """Phase 3 writes spare bits only; the DCS hashes canonical words."""
        embedded = embed_program(SIMPLE)
        for block in embedded.blocks.values():
            shs = ShsFile()
            addr = block.start
            while addr < block.end:
                apply_instruction(shs, decode(embedded.program.word_at(addr)))
                addr += 4
            assert dcs_of_file(shs) == block.dcs

    def test_entry_dcs(self):
        embedded = embed_program(SIMPLE)
        assert embedded.entry_dcs == embedded.blocks[embedded.program.entry].dcs


class TestSuccessorFields:
    def test_conditional_fields(self):
        embedded = embed_program(SIMPLE)
        cond = next(b for b in embedded.blocks.values() if b.kind == "cond")
        loop_addr = embedded.program.addr_of("loop")
        assert cond.fields["taken"] == embedded.blocks[loop_addr].dcs
        assert cond.fields["fallthrough"] == embedded.blocks[cond.end].dcs

    def test_call_fields(self):
        embedded = embed_program(CALLS)
        call = next(b for b in embedded.blocks.values() if b.kind == "call")
        fn = embedded.program.addr_of("fn")
        assert call.fields["target"] == embedded.blocks[fn].dcs
        assert call.fields["link"] == embedded.blocks[call.end].dcs

    def test_payload_extractable_by_hardware(self):
        """The packed spare bits parse back into the block's fields."""
        embedded = embed_program(SIMPLE)
        for block in embedded.blocks.values():
            collector = PayloadCollector()
            addr = block.start
            while addr < block.end:
                word = embedded.program.word_at(addr)
                collector.add(decode(word))
                addr += 4
            assert collector.extract(block.kind) == block.fields


class TestCodePointers:
    JUMP_TABLE = """
start:  la   r1, table
        lwz  r2, 0(r1)
        jr   r2
        nop
        halt
entry:  li   r3, 9
        halt
        .data
table:  .codeptr entry
"""

    def test_codeptr_tagged_with_dcs(self):
        embedded = embed_program(self.JUMP_TABLE)
        site = embedded.program.addr_of("table")
        offset = site - embedded.program.data_base
        pointer = int.from_bytes(embedded.program.data[offset:offset + 4], "little")
        entry = embedded.program.addr_of("entry")
        assert registers.pointer_address(pointer) == entry
        assert registers.pointer_dcs(pointer) == embedded.blocks[entry].dcs

    def test_codeptr_to_undefined_label_rejected(self):
        from repro.asm.assembler import AsmError
        bad = """
start:  nop
        halt
        .data
t:      .codeptr missing_label
"""
        with pytest.raises(AsmError):
            embed_program(bad)


class TestStatistics:
    def test_static_overhead_counts(self):
        embedded = embed_program("addi r1, r1, 1\nx: nop\nhalt")
        assert embedded.base_words == 3
        assert embedded.terminator_sigs == 1
        assert embedded.sigs_added == 1
        assert embedded.static_overhead == pytest.approx(1 / 3)

    def test_jump_to_mid_block_rejected(self):
        source = """
start:  add r1, r1, r2
        add r3, r3, r4
        j   start
        nop
        halt
"""
        # j start is fine; jumping into the middle of a block is not
        # constructible from labels (labels force boundaries), so force it
        # with a numeric offset into the final block's second word.
        bad = "start: add r1, r1, r2\nj 3\nnop\nadd r3, r3, r4\nhalt"
        with pytest.raises(EmbedError):
            embed_program(bad)
        embed_program(source)  # sanity: the good variant embeds fine
