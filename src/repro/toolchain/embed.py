"""Phases 2 and 3: DCS computation and embedding (paper Sec. 3.2.2).

After phase 1 (:mod:`repro.toolchain.segment`) the re-assembled binary has
a hardware-recognizable block structure: blocks end at a branch + delay
slot, ``halt``, or a Signature instruction with its T bit set.  This
module:

* re-discovers that structure directly from the encoded words with
  :func:`scan_hardware_blocks` (the same rule the fetch hardware applies);
* computes each block's DCS by running the SHS transfer function over its
  instructions (phase 2);
* determines legal successors, packs their DCSs into the blocks' spare
  bits, tags ``.codeptr`` jump-table/function-pointer words with the
  target block DCS in the pointer MSBs, and records the entry DCS
  (phase 3).
"""

from dataclasses import dataclass, field

from repro.argus import payload as payload_mod
from repro.argus.dcs import dcs_of_file
from repro.argus.shs import ShsFile, apply_instruction
from repro.asm.assembler import assemble, DEFAULT_TEXT_BASE
from repro.asm.parser import parse
from repro.isa import registers
from repro.isa.decode import decode
from repro.isa.opcodes import Op
from repro.toolchain.segment import insert_signatures, MAX_BLOCK_INSNS


class EmbedError(ValueError):
    """Raised when a program cannot be given a consistent embedding."""


@dataclass
class BlockInfo:
    """One hardware-visible basic block of the embedded binary."""

    start: int  # address of first word
    end: int  # address one past the last word (== next block start)
    kind: str  # terminal kind (cond/jump/call/indirect/indirect_call/halt/fallthrough)
    terminal: int  # address of the terminal instruction (branch/halt/sig-T)
    dcs: int = 0
    fields: dict = field(default_factory=dict)  # successor field name -> DCS

    @property
    def num_insns(self):
        return (self.end - self.start) // 4


@dataclass
class EmbeddedProgram:
    """An Argus-protected binary plus its signature metadata."""

    program: object  # repro.asm.program.Program
    entry_dcs: int
    blocks: dict  # start address -> BlockInfo
    terminator_sigs: int
    capacity_sigs: int
    base_words: int  # word count of the unprotected assembly

    @property
    def sigs_added(self):
        return self.terminator_sigs + self.capacity_sigs

    @property
    def static_overhead(self):
        """Static instruction-count overhead vs the unprotected binary."""
        if not self.base_words:
            return 0.0
        return self.sigs_added / self.base_words


def scan_hardware_blocks(program):
    """Partition the text segment exactly as the fetch hardware does.

    Returns an ordered dict of start address -> :class:`BlockInfo`.
    """
    blocks = {}
    words = program.words
    base = program.text_base
    i = 0
    n = len(words)
    while i < n:
        start = base + 4 * i
        j = i
        terminal = None
        kind = None
        while j < n:
            instr = decode(words[j])
            if instr.is_branch:
                if j + 1 >= n:
                    raise EmbedError(
                        "block at 0x%x: branch at 0x%x has no delay slot "
                        "inside the text segment" % (start, base + 4 * j))
                terminal = base + 4 * j
                kind = payload_mod.terminal_kind(instr)
                j += 2  # include the delay slot
                break
            if instr.op is Op.HALT:
                terminal = base + 4 * j
                kind = "halt"
                j += 1
                break
            if instr.op is Op.SIG and payload_mod.sig_is_terminator(words[j]):
                terminal = base + 4 * j
                kind = "fallthrough"
                j += 1
                break
            j += 1
        if terminal is None:
            raise EmbedError(
                "block at 0x%x (%d insns) reaches the end of the text "
                "segment without a terminal (missing halt?)"
                % (start, n - i))
        blocks[start] = BlockInfo(start=start, end=base + 4 * j, kind=kind, terminal=terminal)
        i = j
    return blocks


def _compute_block_dcs(program, block):
    """Phase 2 for one block: run the SHS transfer function and fold."""
    shs = ShsFile()
    addr = block.start
    while addr < block.end:
        instr = decode(program.word_at(addr))
        apply_instruction(shs, instr)
        addr += 4
    return dcs_of_file(shs)


def _block_context(block):
    """Human-readable block identity for error messages."""
    return "block 0x%x (%s terminal, %d insns)" % (
        block.start, block.kind, block.num_insns)


def _successor_dcs(program, blocks, address, context):
    info = blocks.get(address)
    if info is None:
        raise EmbedError(
            "%s targets 0x%x, which is not a basic-block start" % (context, address)
        )
    return info.dcs


def verify_embedding(program, base_words=None, terminator_sigs=None,
                     capacity_sigs=None):
    """Re-derive and verify the Argus metadata of an embedded binary.

    Scans the hardware block structure, recomputes every block DCS from
    the canonical instruction words, determines the expected successor
    fields, and checks that the payload actually packed into the spare
    bits (and the ``.codeptr``-style tags the embedder left in data)
    matches.  Returns an :class:`EmbeddedProgram` reconstructed from the
    binary alone - the loader-side integrity check a real Argus system
    would run, and the basis of the object-file round trip
    (:mod:`repro.io.objfile`).

    Coverage caveat: tampering with a block is caught through the DCS
    its *predecessors* embedded; the entry block has no in-binary
    reference, so loaders must additionally compare the recomputed
    ``entry_dcs`` against the one recorded in the object header (the
    same role the "program header" DCS plays for the hardware).
    """
    from repro.argus.payload import PayloadCollector, PayloadError

    blocks = scan_hardware_blocks(program)
    for block in blocks.values():
        block.dcs = _compute_block_dcs(program, block)
    for block in blocks.values():
        fields = {}
        if block.kind in ("cond", "jump", "call"):
            terminal = decode(program.word_at(block.terminal))
            target = (block.terminal + 4 * terminal.offset) & 0xFFFFFFFF
            if block.kind == "cond":
                fields["taken"] = _successor_dcs(program, blocks, target,
                                                 "branch at 0x%x" % block.terminal)
                fields["fallthrough"] = _successor_dcs(program, blocks, block.end,
                                                       "fall-through")
            elif block.kind == "jump":
                fields["target"] = _successor_dcs(program, blocks, target, "jump")
            else:
                fields["target"] = _successor_dcs(program, blocks, target, "call")
                fields["link"] = _successor_dcs(program, blocks, block.end,
                                                "return point")
        elif block.kind == "indirect_call":
            fields["link"] = _successor_dcs(program, blocks, block.end,
                                            "return point")
        elif block.kind == "fallthrough":
            fields["next"] = _successor_dcs(program, blocks, block.end,
                                            "fall-through")
        block.fields = fields
        collector = PayloadCollector()
        addr = block.start
        while addr < block.end:
            word = program.word_at(addr)
            collector.add(decode(word))
            addr += 4
        try:
            extracted = collector.extract(block.kind)
        except PayloadError as exc:
            raise EmbedError("block 0x%x: %s" % (block.start, exc)) from exc
        if extracted != fields:
            raise EmbedError(
                "block 0x%x: embedded payload %r does not match computed "
                "successors %r" % (block.start, extracted, fields))

    entry_block = blocks.get(program.entry)
    if entry_block is None:
        raise EmbedError("entry point 0x%x is not a basic-block start"
                         % program.entry)
    sig_count = sum(
        1 for word in program.words
        if (word >> 26) & 0x3F == 0x06  # OPC_SIG
    )
    return EmbeddedProgram(
        program=program,
        entry_dcs=entry_block.dcs,
        blocks=blocks,
        terminator_sigs=(terminator_sigs if terminator_sigs is not None
                         else sum(1 for b in blocks.values()
                                  if b.kind == "fallthrough")),
        capacity_sigs=(capacity_sigs if capacity_sigs is not None
                       else max(sig_count - sum(
                           1 for b in blocks.values()
                           if b.kind == "fallthrough"), 0)),
        base_words=(base_words if base_words is not None
                    else len(program.words) - sig_count),
    )


def embed_program(source_or_stmts, text_base=DEFAULT_TEXT_BASE, data_base=None,
                  max_block=MAX_BLOCK_INSNS, force_nops=False, verify=False):
    """Run all three embedding phases; returns an :class:`EmbeddedProgram`.

    Accepts assembly source text or a parsed statement list.
    ``force_nops=True`` disables the unused-bit optimization (every block
    carries an explicit Signature NOP) - the embedding-cost ablation.

    ``verify=True`` runs the independent static analyzer
    (:func:`repro.analysis.analyze_embedded`) over the result and raises
    :class:`EmbedError` if it reports any error - a post-embed gate that
    does not share this module's block bookkeeping, so it catches
    embedder bugs the embedder cannot see itself.
    """
    stmts = parse(source_or_stmts) if isinstance(source_or_stmts, str) else source_or_stmts
    base_program = assemble(stmts, text_base=text_base, data_base=data_base)

    # Phase 1: Signature insertion, then re-assembly fixes all addresses.
    new_stmts, terminator_sigs, capacity_sigs = insert_signatures(
        stmts, max_block=max_block, force_nops=force_nops)
    program = assemble(new_stmts, text_base=text_base, data_base=data_base)

    # Phase 2: block discovery + DCS computation.
    blocks = scan_hardware_blocks(program)
    for block in blocks.values():
        block.dcs = _compute_block_dcs(program, block)

    # Phase 3: successor determination + payload/jump-table embedding.
    for block in blocks.values():
        try:
            fields = {}
            if block.kind in ("cond", "jump", "call"):
                terminal = decode(program.word_at(block.terminal))
                target = (block.terminal + 4 * terminal.offset) & 0xFFFFFFFF
                if block.kind == "cond":
                    fields["taken"] = _successor_dcs(program, blocks, target, "branch at 0x%x" % block.terminal)
                    fields["fallthrough"] = _successor_dcs(program, blocks, block.end, "fall-through at 0x%x" % block.terminal)
                elif block.kind == "jump":
                    fields["target"] = _successor_dcs(program, blocks, target, "jump at 0x%x" % block.terminal)
                else:  # call
                    fields["target"] = _successor_dcs(program, blocks, target, "call at 0x%x" % block.terminal)
                    fields["link"] = _successor_dcs(program, blocks, block.end, "return point of call at 0x%x" % block.terminal)
            elif block.kind == "indirect_call":
                fields["link"] = _successor_dcs(program, blocks, block.end, "return point of jalr at 0x%x" % block.terminal)
            elif block.kind == "fallthrough":
                fields["next"] = _successor_dcs(program, blocks, block.end, "fall-through at 0x%x" % block.terminal)
            # indirect and halt terminals embed nothing.
            block.fields = fields

            names = payload_mod.payload_fields(block.kind)
            if tuple(fields) != names:
                raise EmbedError("successor fields %r do not match the %r "
                                 "payload convention %r"
                                 % (tuple(fields), block.kind, names))
            bits = payload_mod.fields_to_bits([fields[name] for name in names])
            if bits:
                first = (block.start - program.text_base) >> 2
                count = block.num_insns
                words = program.words[first:first + count]
                ops = [decode(w).op for w in words]
                packed = payload_mod.embed_bits(words, ops, bits)
                program.words[first:first + count] = packed
        except payload_mod.PayloadError as exc:
            raise EmbedError("%s: %s" % (_block_context(block), exc)) from exc
        except EmbedError as exc:
            raise EmbedError("%s: %s" % (_block_context(block), exc)) from exc

    # Jump tables / function pointers: tag with the target block's DCS.
    for site, label in program.codeptr_sites:
        target = program.labels[label]
        dcs = _successor_dcs(program, blocks, target, ".codeptr %s" % label)
        offset = site - program.data_base
        tagged = registers.pack_pointer(target, dcs)
        program.data[offset:offset + 4] = tagged.to_bytes(4, "little")

    entry_block = blocks.get(program.entry)
    if entry_block is None:
        raise EmbedError("entry point 0x%x is not a basic-block start" % program.entry)

    embedded = EmbeddedProgram(
        program=program,
        entry_dcs=entry_block.dcs,
        blocks=blocks,
        terminator_sigs=terminator_sigs,
        capacity_sigs=capacity_sigs,
        base_words=len(base_program.words),
    )
    if verify:
        # Imported lazily: repro.analysis depends on this module.
        from repro.analysis import analyze_embedded

        report = analyze_embedded(embedded, max_block=max_block)
        if not report.ok:
            raise EmbedError(
                "static verification of the embedded binary failed:\n%s"
                % "\n".join(d.format() for d in report.errors))
    return embedded
