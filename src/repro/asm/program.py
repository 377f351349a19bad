"""Assembled program container.

A :class:`Program` is the output of :func:`repro.asm.assembler.assemble`:
encoded text words, a data image, the resolved symbol table, and the
bookkeeping the Argus toolchain needs (the IR statement list that produced
each word, and the data-segment sites that hold code pointers so phase 3 of
the embedder can tag them with DCSs).
"""

import struct

from repro.isa import registers


class Program:
    """An assembled binary plus its symbol/IR metadata.

    Attributes:
        text_base: byte address of the first instruction word.
        words: list of encoded 32-bit instruction words (contiguous).
        data_base: byte address of the data segment.
        data: bytearray of the data segment image.
        labels: mapping of label name to byte address.
        entry: program entry address (``start`` label if present).
        stmts: the IR statement list this program was assembled from.
        insn_addrs: mapping of stmt index (into ``stmts``) to word address,
            for every :class:`~repro.asm.ir.Insn` statement.
        codeptr_sites: list of ``(data_address, label_name)`` for every
            ``.codeptr`` directive; the embedder rewrites these words to
            carry the target block's DCS in the pointer MSBs.
        lines: word index -> source line number (diagnostics).
    """

    def __init__(self, text_base, words, data_base, data, labels, entry,
                 stmts, insn_addrs, codeptr_sites, lines):
        self.text_base = text_base
        self.words = words
        self.data_base = data_base
        self.data = data
        self.labels = labels
        self.entry = entry
        self.stmts = stmts
        self.insn_addrs = insn_addrs
        self.codeptr_sites = codeptr_sites
        self.lines = lines

    @property
    def text_size(self):
        """Text segment size in bytes."""
        return 4 * len(self.words)

    @property
    def text_end(self):
        return self.text_base + self.text_size

    def word_at(self, address):
        """Instruction word at a byte address inside the text segment."""
        index = (address - self.text_base) >> 2
        if index < 0 or index >= len(self.words):
            raise IndexError("address 0x%x outside text segment" % address)
        return self.words[index]

    def set_word(self, address, word):
        """Overwrite the instruction word at a byte address (embedder use)."""
        index = (address - self.text_base) >> 2
        self.words[index] = word & 0xFFFFFFFF
        self._predecoded = None

    def predecoded(self):
        """Per-binary predecoded instruction table (built once, shared).

        A tuple of ``(word, instr_or_none)`` aligned with ``self.words``.
        Workers that receive this program through a pool initializer each
        build the table exactly once and every core over the same binary
        shares it read-only; ``set_word`` (embedder use only) invalidates
        it.
        """
        table = getattr(self, "_predecoded", None)
        if table is None:
            from repro.isa.decode import predecode

            table = self._predecoded = predecode(self.words)
        return table

    def __getstate__(self):
        """Ship programs without the predecode table (workers rebuild it
        once; the decoded records would only bloat pool IPC)."""
        state = self.__dict__.copy()
        state.pop("_predecoded", None)
        return state

    def addr_of(self, label):
        """Resolved byte address of a label."""
        return self.labels[label]

    def load_into(self, memory):
        """Write the text and data images into a memory object, as two
        blocks of little-endian bytes.

        ``memory`` must expose ``write_block(addr, data)`` (see
        :class:`repro.mem.main.MainMemory`).
        """
        text = struct.pack("<%dI" % len(self.words),
                           *(word & 0xFFFFFFFF for word in self.words))
        memory.write_block(self.text_base, text)
        memory.write_block(self.data_base, self.data)

    def footprint(self):
        """(text_bytes, data_bytes) sizes; text growth drives Fig 5-7."""
        return self.text_size, len(self.data)

    def __repr__(self):
        return "<Program text=0x%x+%dB data=0x%x+%dB entry=0x%x labels=%d>" % (
            self.text_base, self.text_size, self.data_base, len(self.data),
            self.entry, len(self.labels),
        )


def default_data_base(text_base, text_bytes, align=256):
    """Data segment placement: first ``align``-aligned address after text."""
    end = text_base + text_bytes
    base = (end + align - 1) & ~(align - 1)
    if base & ~registers.ADDR_MASK:
        raise ValueError("data base 0x%x exceeds address space" % base)
    return base
