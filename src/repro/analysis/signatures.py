"""Signature verification: DCS re-derivation and comparison (ARG010-012).

Phase 2 of the analyzer mirrors phase 2/3 of the embedder, but runs in
the opposite direction: instead of *producing* the packed successor
DCSs, it re-derives every block's DCS from the canonical words via the
SHS transfer function and compares the result against

* every successor-DCS field packed into the block's spare bits (ARG010),
* every ``.codeptr`` jump-table/function-pointer tag in the data
  segment (ARG011), and
* the entry DCS recorded in the object header (ARG012).

Only *consumed* payload bits are compared - trailing spare bits are
don't-care, exactly as in the hardware extractor.  Blocks already
flagged by the structural lints (undecodable words, unresolvable
successors, missing capacity) are skipped silently: one defect, one
diagnostic.
"""

from repro.argus.dcs import dcs_of_file
from repro.argus.payload import PayloadCollector, PayloadError, payload_fields
from repro.argus.shs import ShsFile, apply_instruction
from repro.isa import registers


def derive_block_dcs(cfg):
    """Re-derive the DCS of every fully decodable block: start -> DCS."""
    out = {}
    for block in cfg.blocks.values():
        if not block.fully_decoded:
            continue
        shs = ShsFile()
        for instr in block.instrs:
            apply_instruction(shs, instr)
        out[block.start] = dcs_of_file(shs)
    return out


def expected_successor_fields(cfg, block):
    """Successor field name -> target address, per the payload convention.

    Returns None when the block's terminal kind embeds nothing (halt,
    indirect) or could not be determined.
    """
    kind = block.kind
    if kind in (None, "halt", "indirect"):
        return None
    if kind == "cond":
        return {"taken": cfg.direct_target(block), "fallthrough": block.end}
    if kind == "jump":
        return {"target": cfg.direct_target(block)}
    if kind == "call":
        return {"target": cfg.direct_target(block), "link": block.end}
    if kind == "indirect_call":
        return {"link": block.end}
    if kind == "fallthrough":
        return {"next": block.end}
    raise ValueError("unknown terminal kind %r" % kind)  # pragma: no cover


def check_packed_payload(cfg, report, dcs_by_block):
    """ARG010: packed successor DCSs must equal the re-derived ones."""
    for block in cfg.blocks.values():
        targets = expected_successor_fields(cfg, block)
        if targets is None or not block.fully_decoded:
            continue
        # Every successor must resolve to a block with a known DCS; the
        # structural lints have already diagnosed the ones that don't.
        if any(addr not in dcs_by_block for addr in targets.values()):
            continue
        collector = PayloadCollector()
        for instr in block.instrs:
            collector.add(instr)
        try:
            packed = collector.extract(block.kind)
        except PayloadError:
            continue  # capacity shortfall: ARG006 already reported
        assert tuple(packed) == payload_fields(block.kind)
        for name, target in targets.items():
            expected = dcs_by_block[target]
            if packed[name] != expected:
                report.add("ARG010",
                           "packed %r successor DCS 0x%02x does not match "
                           "the re-derived DCS 0x%02x of block 0x%x"
                           % (name, packed[name], expected, target),
                           address=block.start, block=block.start)


def check_codeptr_tags(cfg, report, dcs_by_block):
    """ARG011: every ``.codeptr`` word must carry the right address+DCS."""
    program = cfg.program
    for site, label in getattr(program, "codeptr_sites", ()):
        offset = site - program.data_base
        if offset < 0 or offset + 4 > len(program.data):
            report.add("ARG011",
                       ".codeptr site 0x%x (label %r) lies outside the "
                       "data segment" % (site, label), address=site)
            continue
        pointer = int.from_bytes(program.data[offset:offset + 4], "little")
        address = registers.pointer_address(pointer)
        tag = registers.pointer_dcs(pointer)
        declared = program.labels.get(label)
        if declared is not None and address != (declared & registers.ADDR_MASK):
            report.add("ARG011",
                       ".codeptr word at 0x%x points to 0x%x, but label "
                       "%r resolves to 0x%x" % (site, address, label,
                                                declared),
                       address=site)
            continue
        if address not in cfg.blocks:
            report.add("ARG011",
                       ".codeptr word at 0x%x targets 0x%x, which is not "
                       "a basic-block start" % (site, address),
                       address=site)
            continue
        expected = dcs_by_block.get(address)
        if expected is not None and tag != expected:
            report.add("ARG011",
                       ".codeptr word at 0x%x tags target 0x%x with DCS "
                       "0x%02x, but the re-derived block DCS is 0x%02x"
                       % (site, address, tag, expected),
                       address=site, block=address)


def check_entry_dcs(cfg, report, dcs_by_block, expected_entry_dcs=None):
    """ARG012: the entry point must start a block with the header's DCS."""
    entry = cfg.program.entry
    if entry not in cfg.blocks:
        report.add("ARG012",
                   "entry point 0x%x is not a basic-block start" % entry,
                   address=entry)
        return
    if expected_entry_dcs is None:
        return
    actual = dcs_by_block.get(entry)
    if actual is not None and actual != expected_entry_dcs:
        report.add("ARG012",
                   "object header records entry DCS 0x%02x but the entry "
                   "block at 0x%x re-derives to 0x%02x"
                   % (expected_entry_dcs, entry, actual),
                   address=entry, block=entry)


def verify_signatures(cfg, report, expected_entry_dcs=None):
    """Run the full signature verification pass (ARG010-ARG012)."""
    dcs_by_block = derive_block_dcs(cfg)
    check_packed_payload(cfg, report, dcs_by_block)
    check_codeptr_tags(cfg, report, dcs_by_block)
    check_entry_dcs(cfg, report, dcs_by_block, expected_entry_dcs)
    return dcs_by_block
