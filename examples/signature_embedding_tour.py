"""A guided tour of the Argus-1 signature toolchain (paper Fig. 2).

::

    python examples/signature_embedding_tour.py

Takes the paper's Figure 2 control-flow shape (a diamond: conditional
branch, two paths, a join) and shows each embedding phase: block
segmentation, Signature-NOP insertion, per-block DCS computation, and
where each successor DCS lands in the spare instruction bits.
"""

from repro.argus.payload import PayloadCollector, payload_capacity
from repro.asm import assemble, disassemble_program, parse
from repro.cpu import CheckedCore
from repro.isa.decode import decode
from repro.toolchain import embed_program

# Figure 2 of the paper, transcribed to our ISA (BB1 conditional, BB2 the
# fall-through with a jump, BB3 the taken path falling into BB4).
SOURCE = """
start:  add  r1, r2, r3          # BB1
        sub  r4, r1, r2
        sfeq r4, r2
        bf   bb3
        nop
        lwz  r6, 0(r4)           # BB2 (fall-through path)
        mul  r7, r6, r6
        j    bb4
        nop
bb3:    or   r8, r6, r9          # BB3 (taken path, falls through)
bb4:    and  r10, r8, r6         # BB4 (join)
        halt
"""


def main():
    base = assemble(parse(SOURCE))
    embedded = embed_program(SOURCE)
    program = embedded.program

    print("=== phase 1: Signature insertion "
          "(%d terminator, %d capacity) ===" % (
              embedded.terminator_sigs, embedded.capacity_sigs))
    print("base %d words -> embedded %d words\n" % (
        len(base.words), len(program.words)))
    for address, word, text in disassemble_program(program):
        if word is None:
            print(text)
        else:
            print("  0x%04x  %08x  %s" % (address, word, text))

    print("\n=== phase 2: per-block DCS (5-bit, CRC5 SHS fold) ===")
    for block in embedded.blocks.values():
        capacity = sum(payload_capacity(decode(program.word_at(a)).op)
                       for a in range(block.start, block.end, 4))
        print("  block 0x%04x..0x%04x  kind=%-12s DCS=0x%02x  "
              "spare capacity=%d bits" % (
                  block.start, block.end - 4, block.kind, block.dcs, capacity))

    print("\n=== phase 3: embedded successor DCSs ===")
    for block in embedded.blocks.values():
        if not block.fields:
            continue
        fields = ", ".join("%s=0x%02x" % kv for kv in block.fields.items())
        print("  block 0x%04x embeds {%s}" % (block.start, fields))
        collector = PayloadCollector()
        for address in range(block.start, block.end, 4):
            word = program.word_at(address)
            collector.add(decode(word))
        assert collector.extract(block.kind) == block.fields

    print("\nentry DCS (program header): 0x%02x" % embedded.entry_dcs)

    core = CheckedCore(embedded, detect=True)
    outcome = core.run()
    print("checked execution: %d instructions, %d block comparisons, "
          "no errors" % (outcome.instructions, outcome.blocks_checked))


if __name__ == "__main__":
    main()
