"""Binary repair: localize and undo storage bit flips in embedded text.

An Argus-embedded binary is massively self-describing: every block's DCS
is embedded in its predecessors' spare bits, the entry DCS sits in the
object header, and the packing convention forces every *unused* spare
bit to zero.  A storage upset in the text segment therefore leaves
contradictions a strict verifier can triangulate:

* a flipped canonical bit changes the block's op identifiers, so the
  re-derived DCS disagrees with the payload embedded by predecessors
  (and, for the entry block, with the header DCS);
* a flipped payload bit makes one predecessor's embedded successor DCS
  disagree with the re-derived one;
* a flipped unused spare bit violates the zero-padding rule;
* structural bits (opcode fields, the Signature T bit) can break the
  block scan outright.

:func:`strict_verify` runs all of these rules and returns findings;
:func:`repair_program` inverts them.  Headers written since the
diagnosis engine also carry a CRC-32 of the text image (``text_crc``),
whose *linearity* turns single-bit localization into a dictionary
lookup: the CRC delta of a one-bit error depends only on the bit's
distance from the end, so ``crc(corrupted) ^ crc(original)`` names the
flipped bit directly (:func:`text_digest`,
:func:`_single_bit_crc_deltas`).  Signature-only repair (objects saved
before ``text_crc`` existed) still works; it is simply the mode where
genuinely ambiguous corruption (distinct minimal edits that each
restore full self-consistency) is possible - reported, never guessed.

Outcome codes (docs/ANALYSIS.md):

* **ARG020** - corrupted word localized and repaired (unique minimal edit).
* **ARG021** - ambiguous: multiple minimal candidate edits restore
  consistency; no repair is applied.
* **ARG022** - unrepairable within the search budget.
"""

import functools
import itertools
import zlib
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis import analyze_program
from repro.argus.payload import (PayloadCollector, PayloadError,
                                 payload_fields, payload_positions)
from repro.asm.program import Program
from repro.isa.decode import DecodeError, decode
from repro.toolchain.embed import (EmbedError, _compute_block_dcs,
                                   scan_hardware_blocks)

ARG020 = "ARG020"
ARG021 = "ARG021"
ARG022 = "ARG022"


def text_digest(words):
    """CRC-32 of the text image (little-endian words); header field."""
    buf = bytearray()
    for word in words:
        value = word & 0xFFFFFFFF
        buf += bytes((value & 0xFF, (value >> 8) & 0xFF,
                      (value >> 16) & 0xFF, (value >> 24) & 0xFF))
    return zlib.crc32(bytes(buf)) & 0xFFFFFFFF


def _raw_crc(state):
    """Finalized zlib state -> raw (init-free, xorout-free) register."""
    return (state ^ 0xFFFFFFFF) & 0xFFFFFFFF


@functools.lru_cache(maxsize=8)
def _single_bit_crc_deltas(n_words):
    """Map CRC delta -> (word index, bit) for every single-bit text error.

    CRC-32 is linear over GF(2) once the init/xorout affine offsets are
    cancelled, and leading zeros are invisible to the raw register, so
    the delta of a one-bit error depends only on its tail length.  The
    table is built in one O(words) sweep by extending eight single-bit
    seed states a zero byte at a time from the end of the image.
    """
    deltas = {}
    # states[b]: finalized crc of bytes([1 << b]) + b"\x00" * tail
    states = [zlib.crc32(bytes((1 << b,)), 0xFFFFFFFF) for b in range(8)]
    for byte_offset in range(4 * n_words - 1, -1, -1):
        word_index, lane = divmod(byte_offset, 4)
        for b in range(8):
            # The seed was fed through a zeroed register (previous crc
            # 0xFFFFFFFF un-xors to state 0), so finalizing again yields
            # the raw register of the 1-bit message - leading zeros of
            # the full-length image contribute nothing to it.
            deltas[_raw_crc(states[b])] = (word_index, 8 * lane + b)
        if byte_offset:
            for b in range(8):
                states[b] = zlib.crc32(b"\x00", states[b])
    return deltas


@dataclass(frozen=True)
class StrictFinding:
    """One strict-verifier contradiction, pinned to implicated words."""

    rule: str      # structure | block-dcs | payload | entry-dcs | spare | crc
    detail: str
    block: Optional[int] = None        # start address of implicated block
    addresses: tuple = ()              # byte addresses of implicated words

    def format(self):
        where = ""
        if self.block is not None:
            where = " (block 0x%x)" % self.block
        return "%s%s: %s" % (self.rule, where, self.detail)


def _block_payload_slots(program, block):
    """[(word address, bit position)] in hardware collection order."""
    slots = []
    addr = block.start
    while addr < block.end:
        instr = decode(program.word_at(addr))
        for pos in payload_positions(instr.op):
            slots.append((addr, pos))
        addr += 4
    return slots


def strict_verify(program, entry_dcs=None, text_crc=None):
    """All contradictions between a text image and its embedded metadata.

    Returns a list of :class:`StrictFinding` (empty == intact).  Unlike
    :func:`repro.toolchain.embed.verify_embedding` this never raises on
    a defective binary and additionally enforces the zero-unused-spare
    rule and the optional header CRC - the strictest acceptance test
    available from the object alone.
    """
    findings = []
    if text_crc is not None:
        actual = text_digest(program.words)
        if actual != text_crc:
            findings.append(StrictFinding(
                rule="crc", detail="text CRC 0x%08x != header 0x%08x"
                % (actual, text_crc)))
    try:
        blocks = scan_hardware_blocks(program)
    except (EmbedError, DecodeError) as exc:
        # An upset in an opcode field can make a word undecodable or
        # dissolve the block structure outright; either way the whole
        # image is implicated and the caller falls back to search.
        findings.append(StrictFinding(rule="structure", detail=str(exc)))
        return findings
    for block in blocks.values():
        try:
            block.dcs = _compute_block_dcs(program, block)
        except DecodeError as exc:
            # The scan skips delay-slot words, so an undecodable word
            # can first surface here; pin it to its block.
            findings.append(StrictFinding(
                rule="structure", block=block.start,
                addresses=tuple(range(block.start, block.end, 4)),
                detail=str(exc)))
            return findings
    for block in blocks.values():
        words = tuple(range(block.start, block.end, 4))
        # Embedded successor payload vs re-derived successor DCSs.
        fields = {}
        ok = True
        kind = block.kind
        if kind in ("cond", "jump", "call"):
            terminal = decode(program.word_at(block.terminal))
            target = (block.terminal + 4 * terminal.offset) & 0xFFFFFFFF
            successors = {"cond": (("taken", target), ("fallthrough", block.end)),
                          "jump": (("target", target),),
                          "call": (("target", target), ("link", block.end))}[kind]
        elif kind == "indirect_call":
            successors = (("link", block.end),)
        elif kind == "fallthrough":
            successors = (("next", block.end),)
        else:
            successors = ()
        for name, address in successors:
            info = blocks.get(address)
            if info is None:
                findings.append(StrictFinding(
                    rule="structure", block=block.start, addresses=words,
                    detail="%s successor 0x%x is not a block start"
                    % (name, address)))
                ok = False
            else:
                fields[name] = info.dcs
        if not ok:
            continue
        collector = PayloadCollector()
        addr = block.start
        while addr < block.end:
            word = program.word_at(addr)
            collector.add(decode(word))
            addr += 4
        try:
            extracted = collector.extract(kind)
        except PayloadError as exc:
            findings.append(StrictFinding(
                rule="payload", block=block.start, addresses=words,
                detail=str(exc)))
            continue
        if extracted != fields:
            # The flip may sit in this block's payload bits *or* in a
            # successor block's canonical bits (changing the DCS the
            # payload was derived from) - implicate both sides.
            implicated = list(words)
            for name, address in successors:
                if extracted.get(name) != fields.get(name):
                    info = blocks[address]
                    implicated.extend(range(info.start, info.end, 4))
            findings.append(StrictFinding(
                rule="payload", block=block.start,
                addresses=tuple(dict.fromkeys(implicated)),
                detail="embedded payload %r != computed successors %r"
                % (extracted, fields)))
        # Zero-unused-spare rule: payload slots past the field demand
        # are padding the embedder leaves cleared.
        used = 5 * len(payload_fields(kind))
        bits = collector.snapshot()
        slots = _block_payload_slots(program, block)
        for slot_index in range(used, len(bits)):
            if bits[slot_index]:
                slot_addr, pos = slots[slot_index]
                findings.append(StrictFinding(
                    rule="spare", block=block.start,
                    addresses=(slot_addr,),
                    detail="unused spare bit %d at 0x%x is set"
                    % (pos, slot_addr)))
    if entry_dcs is not None:
        entry_block = blocks.get(program.entry)
        if entry_block is None:
            findings.append(StrictFinding(
                rule="structure",
                detail="entry 0x%x is not a block start" % program.entry))
        elif entry_block.dcs != entry_dcs:
            findings.append(StrictFinding(
                rule="entry-dcs", block=entry_block.start,
                addresses=tuple(range(entry_block.start, entry_block.end, 4)),
                detail="entry DCS 0x%02x != header 0x%02x"
                % (entry_block.dcs, entry_dcs)))
    return findings


@dataclass
class RepairOutcome:
    """Result of one repair attempt."""

    status: str  # clean | repaired | ambiguous | unrepairable
    code: Optional[str]  # ARG020/ARG021/ARG022; None when already clean
    program: Optional[Program] = None  # repaired program (repaired only)
    edits: tuple = ()  # ((address, old word, new word), ...) applied
    candidates: tuple = ()  # ambiguous: tuple of alternative edit tuples
    findings: list = field(default_factory=list)  # strict findings on input
    verified: int = 0  # candidate edits strict-verified

    @property
    def ok(self):
        return self.status in ("clean", "repaired")

    def to_dict(self):
        out = {"status": self.status, "code": self.code,
               "verified": self.verified,
               "findings": [f.format() for f in self.findings],
               "edits": [{"address": addr, "old": "0x%08x" % old,
                          "new": "0x%08x" % new}
                         for addr, old, new in self.edits]}
        if self.candidates:
            out["candidates"] = [
                [{"address": addr, "old": "0x%08x" % old,
                  "new": "0x%08x" % new} for addr, old, new in cand]
                for cand in self.candidates]
        return out


def _with_words(program, words):
    return Program(text_base=program.text_base, words=list(words),
                   data_base=program.data_base, data=program.data,
                   labels=program.labels, entry=program.entry,
                   stmts=None, insn_addrs={},
                   codeptr_sites=program.codeptr_sites, lines=[])


def _implicated_indices(program, findings):
    """Word indices the findings implicate, most-specific first."""
    base = program.text_base
    ordered = []
    seen = set()
    # spare findings name exact words; payload/DCS findings name blocks.
    for specific in (True, False):
        for finding in findings:
            addresses = finding.addresses
            if specific != (len(addresses) == 1):
                continue
            for address in addresses:
                index = (address - base) >> 2
                if 0 <= index < len(program.words) and index not in seen:
                    seen.add(index)
                    ordered.append(index)
    return ordered


def _flip(words, index, bit):
    out = list(words)
    out[index] ^= (1 << bit)
    return out


def repair_program(program, entry_dcs=None, text_crc=None, max_flips=3,
                   budget=200000, oracle=True):
    """Propose the minimal text edit restoring every embedded signature.

    Search order with a header CRC: (1) the CRC delta of a single-bit
    error names the flipped bit outright - invert the dictionary, flip,
    verify; (2) pairs/triples by pinning all but one flip to implicated
    words and letting the CRC name the last.  Without one
    (pre-diagnosis objects): (1) a candidate that zeroes every flagged
    unused spare bit; (2) exhaustive single-bit flips (implicated words
    first); (3) implicated-word pairs.  ``budget`` caps candidate
    verifications.

    A unique minimal surviving candidate is applied and
    (``oracle=True``) re-checked with
    :func:`repro.analysis.analyze_program`; multiple minimal survivors
    are reported as ambiguous (ARG021) *without* applying any - a wrong
    silent repair is strictly worse than an honest ambiguity.
    """
    findings = strict_verify(program, entry_dcs=entry_dcs, text_crc=text_crc)
    if not findings:
        return RepairOutcome(status="clean", code=None, program=program,
                             findings=findings)
    outcome = RepairOutcome(status="unrepairable", code=ARG022,
                            findings=findings)
    words = list(program.words)
    base = program.text_base

    def accepted(candidate_words):
        outcome.verified += 1
        trial = _with_words(program, candidate_words)
        if strict_verify(trial, entry_dcs=entry_dcs, text_crc=text_crc):
            return None
        return trial

    # A flip in an opcode field can *reinterpret* payload/spare
    # positions, so spare findings are treated as hypotheses (and
    # implication hints), never as unconditional edits.
    spare_flips = []
    for finding in findings:
        if finding.rule != "spare":
            continue
        bit = int(finding.detail.split("bit ")[1].split(" ")[0])
        index = (finding.addresses[0] - base) >> 2
        if (words[index] >> bit) & 1:
            spare_flips.append((index, bit))
    implicated = _implicated_indices(program, findings)

    if text_crc is not None:
        # CRC-delta dictionary: O(1) localization per hypothesis.
        deltas = _single_bit_crc_deltas(len(words))
        target = (text_digest(words) ^ text_crc) & 0xFFFFFFFF

        # k = 1: the delta names the flipped bit outright.
        hit = deltas.get(target)
        if hit is not None:
            candidate = _flip(words, *hit)
            trial = accepted(candidate)
            if trial is not None:
                return _finalize(outcome, trial,
                                 _edits_for(words, candidate, base),
                                 entry_dcs, oracle)
        # k >= 2: pin k-1 flips to implicated/spare words, the CRC
        # names the last one.
        inverse = {flip: delta for delta, flip in deltas.items()}
        pinned_words = sorted(set(implicated)
                              | {index for index, __ in spare_flips})
        pinned_space = [(index, bit) for index in pinned_words
                        for bit in range(32)]
        full_space = [(index, bit) for index in range(len(words))
                      for bit in range(32)]
        survivors = []

        def pinned_search(space, k):
            for combo in _combinations(space, k - 1):
                if outcome.verified >= budget:
                    return
                delta = target
                for flip in combo:
                    part = inverse.get(flip)
                    if part is None:  # delta collision dropped this bit
                        delta = None
                        break
                    delta ^= part
                if delta is None:
                    continue
                hit = deltas.get(delta)
                if hit is None or hit in combo:
                    continue
                flips = tuple(sorted(set(combo) | {hit}))
                if len(flips) != k:
                    continue
                candidate = list(words)
                for index, bit in flips:
                    candidate[index] ^= (1 << bit)
                if accepted(candidate) is not None:
                    if flips not in [s[0] for s in survivors]:
                        survivors.append((flips, candidate))

        for k in range(2, max_flips + 1):
            if survivors or outcome.verified >= budget:
                break
            if pinned_space:
                pinned_search(pinned_space, k)
            if not survivors and len(full_space) > len(pinned_space):
                # The dictionary names the last flip for free, so the
                # un-pinned sweep costs (n_bits choose k-1) lookups -
                # run it whenever that stays tractable.
                if _comb_size(len(full_space), k - 1) <= 20_000_000:
                    pinned_search(full_space, k)
        return _resolve_survivors(outcome, program, words, survivors,
                                  base, entry_dcs, oracle)

    # Signature-only mode: spare-zeroing hypothesis, exhaustive singles
    # (implicated first), then implicated pairs.  All survivors are
    # collected; the minimal edit wins, ties are ambiguous.
    survivors = []
    if spare_flips:
        candidate = list(words)
        for index, bit in spare_flips:
            candidate[index] &= ~(1 << bit)
        if accepted(candidate) is not None:
            survivors.append((tuple(sorted(spare_flips)), candidate))
    order = implicated + [i for i in range(len(words))
                          if i not in set(implicated)]
    for index in order:
        if outcome.verified >= budget:
            break
        for bit in range(32):
            if outcome.verified >= budget:
                break
            candidate = _flip(words, index, bit)
            if accepted(candidate) is not None:
                survivors.append((((index, bit),), candidate))
    if not survivors and max_flips >= 2:
        pair_space = [(index, bit) for index in implicated
                      for bit in range(32)]
        for combo in _combinations(pair_space, 2):
            if outcome.verified >= budget:
                break
            candidate = list(words)
            for index, bit in combo:
                candidate[index] ^= (1 << bit)
            if accepted(candidate) is not None:
                survivors.append((tuple(sorted(combo)), candidate))
    return _resolve_survivors(outcome, program, words, survivors,
                              base, entry_dcs, oracle)


_combinations = itertools.combinations


def _comb_size(n, k):
    size = 1
    for i in range(k):
        size = size * (n - i) // (i + 1)
    return size


def _edits_for(words_before, words_after, base):
    return [(base + 4 * i, words_before[i], words_after[i])
            for i in range(len(words_before))
            if words_before[i] != words_after[i]]


def _resolve_survivors(outcome, program, words, survivors, base,
                       entry_dcs, oracle):
    """Pick among surviving candidates: minimal edit wins, ties are
    ambiguous (ARG021), none is unrepairable (ARG022)."""
    unique = {}
    for flips_key, candidate in survivors:
        unique.setdefault(flips_key, candidate)
    if unique:
        smallest = min(len(key) for key in unique)
        minimal = {key: cand for key, cand in unique.items()
                   if len(key) == smallest}
        if len(minimal) == 1:
            (candidate,) = minimal.values()
            trial = _with_words(program, candidate)
            return _finalize(outcome, trial,
                             _edits_for(words, candidate, base),
                             entry_dcs, oracle)
        outcome.status = "ambiguous"
        outcome.code = ARG021
        outcome.candidates = tuple(
            tuple(_edits_for(words, candidate, base))
            for candidate in minimal.values())
        return outcome
    outcome.status = "unrepairable"
    outcome.code = ARG022
    return outcome


def _finalize(outcome, trial, edits, entry_dcs, oracle):
    """Accept a unique repair, optionally running the analyzer oracle."""
    if oracle:
        report = analyze_program(trial, expected_entry_dcs=entry_dcs)
        if not report.ok:
            outcome.status = "unrepairable"
            outcome.code = ARG022
            outcome.findings = outcome.findings + [StrictFinding(
                rule="oracle", detail=d.format()) for d in report.errors]
            return outcome
    outcome.status = "repaired"
    outcome.code = ARG020
    outcome.program = trial
    outcome.edits = tuple(edits)
    return outcome
