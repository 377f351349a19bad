"""Unit tests for the Program container and memory-image loading."""

import pytest

from repro.asm import assemble, parse
from repro.asm.program import default_data_base
from repro.mem.main import MainMemory
from repro.workloads import WORKLOADS

SOURCE = """
start:  li r1, 1
        halt
        .data
v:      .word 0xCAFEBABE
b:      .byte 0x5A
"""


class TestProgram:
    def test_load_into_memory(self):
        program = assemble(parse(SOURCE))
        memory = MainMemory()
        program.load_into(memory)
        assert memory.read_word(program.text_base) == program.words[0]
        assert memory.read_word(program.addr_of("v")) == 0xCAFEBABE
        assert memory.read_byte(program.addr_of("b")) == 0x5A

    def test_footprint(self):
        program = assemble(parse(SOURCE))
        text_bytes, data_bytes = program.footprint()
        assert text_bytes == 4 * len(program.words)
        assert data_bytes == len(program.data)

    def test_text_end(self):
        program = assemble(parse("nop\nhalt"))
        assert program.text_end == program.text_base + 8

    def test_repr_mentions_entry(self):
        program = assemble(parse(SOURCE))
        assert "entry" in repr(program)

    def test_default_data_base_aligned(self):
        assert default_data_base(0x1000, 100) % 256 == 0
        assert default_data_base(0x1000, 100) >= 0x1000 + 100

    def test_default_data_base_range_check(self):
        with pytest.raises(ValueError):
            default_data_base(0x7FFFF00, 0x1000)

    def test_lines_map_to_source(self):
        program = assemble(parse("nop\n\nhalt"))
        assert program.lines == [1, 3]


def _load_word_and_byte_wise(program, memory):
    """The word and byte loops ``load_into`` replaced, kept as its
    specification."""
    addr = program.text_base
    for word in program.words:
        memory.write_word(addr, word)
        addr += 4
    for offset, byte in enumerate(program.data):
        memory.write_byte(program.data_base + offset, byte)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_load_into_matches_word_and_byte_writes(name):
    """Every bundled workload's embedded image loads as two blocks into
    exactly the memory the per-word and per-byte writes built."""
    program = WORKLOADS[name].build_embedded().program
    block, spec = MainMemory(), MainMemory()
    program.load_into(block)
    _load_word_and_byte_wise(program, spec)
    assert block.snapshot() == spec.snapshot()
