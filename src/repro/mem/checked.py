"""Argus-1's protected data-memory view (paper Sec. 3.4).

To detect both data corruption and wrong-word accesses, Argus-1 stores
``D XOR A`` at address ``A`` together with one parity bit computed over
``D``.  A load from ``A`` reads ``D' = stored XOR A`` and checks
``parity(D') == stored_parity``:

* a bit flip in the stored data makes the parity stale -> detected;
* an access that reaches the wrong word ``A'`` returns
  ``(D2 XOR A') XOR A``, which no longer matches the stored parity of
  ``D2`` (for any single-bit address error) -> detected.

Sub-word stores use read-modify-write, as footnote 2 of the paper notes
is standard for per-word EDC systems.  Words never written are defined as
zero with correct parity (the "initial state is EDC-protected" assumption
of Appendix A's base case).

Storage is paged so that snapshots are cheap: the protected words live in
pages of :data:`PAGE_WORDS` words (page number = byte address >>
:data:`PAGE_SHIFT`), and a snapshot copies only the page tables.  A page
is shared copy-on-write between the live memory and every snapshot that
holds it: the memory writes in place only the pages it copied since its
last :meth:`~CheckedMemory.snapshot` or :meth:`~CheckedMemory.restore`,
and the first write to any other page copies that one page.  Capture and
restore therefore cost O(pages), and a snapshot's pages never change.
"""

from repro.isa import registers

#: Byte-address bits below the page number: 64 words (256 bytes) a page.
PAGE_SHIFT = 8

#: Words per protected-memory page.
PAGE_WORDS = 1 << (PAGE_SHIFT - 2)

_SLOT_MASK = PAGE_WORDS - 1
_WORD_ADDR = registers.ADDR_MASK & ~3


def parity32(value):
    """Even parity bit over a 32-bit value."""
    value ^= value >> 16
    value ^= value >> 8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


class MemoryCheckEvent:
    """Outcome of a checked load: the functional value plus check status."""

    __slots__ = ("value", "ok")

    def __init__(self, value, ok):
        self.value = value
        self.ok = ok


class CheckedMemory:
    """Word-granularity D XOR A + parity protected memory.

    Exposes functional reads/writes that return/accept plain values while
    keeping protected words internally.  ``corrupt_stored_bit`` and
    ``corrupt_parity`` let the fault-injection framework attack the
    storage itself; ``stored_word``/``parity_bit`` and their setters give
    it raw access to one word's cells.

    Two parallel page tables map a page number to a list of
    :data:`PAGE_WORDS` stored ``D XOR A`` words and to a list of their
    parity bits; a slot never written holds ``None`` in both.  A page
    exists only once one of its words was written.
    """

    def __init__(self):
        self._stored = {}  # page -> [D XOR A or None] * PAGE_WORDS
        self._parity = {}  # page -> [parity bit of D or None] * PAGE_WORDS
        self._owned = set()  # pages no snapshot shares: writable in place

    # -- page access ---------------------------------------------------------
    def _cell(self, addr):
        """``(stored word, parity bit)`` at word address ``addr``; an
        unwritten word reads as the encoding of zero with parity 0."""
        page = addr >> PAGE_SHIFT
        stored = self._stored.get(page)
        if stored is not None:
            slot = (addr >> 2) & _SLOT_MASK
            word = stored[slot]
            if word is not None:
                return word, self._parity[page][slot]
        return addr, 0

    def _put(self, addr, word, parity):
        """Write one word's cells, copying its page first if shared."""
        page = addr >> PAGE_SHIFT
        if page in self._owned:
            stored = self._stored[page]
            parities = self._parity[page]
        else:
            stored = self._stored.get(page)
            if stored is None:
                stored = [None] * PAGE_WORDS
                parities = [None] * PAGE_WORDS
            else:
                stored = list(stored)
                parities = list(self._parity[page])
            self._stored[page] = stored
            self._parity[page] = parities
            self._owned.add(page)
        slot = (addr >> 2) & _SLOT_MASK
        stored[slot] = word
        parities[slot] = parity

    # -- protected word operations --------------------------------------
    def store_word(self, address, value, parity=None):
        """Store functional value ``value`` at word address ``address``.

        ``parity`` is the parity bit that travelled with the data from the
        register file; when omitted it is regenerated here.  Passing the
        source parity is what lets a store-data-bus fault (value corrupted
        after parity generation) be caught by the load-side check.
        """
        addr = address & _WORD_ADDR
        value &= 0xFFFFFFFF
        self._put(addr, value ^ addr,
                  parity32(value) if parity is None else (parity & 1))

    def load_word(self, address):
        """Load and check the word at ``address``.

        Returns a :class:`MemoryCheckEvent`; ``ok`` is False when the
        recovered value's parity disagrees with the stored parity bit.
        """
        addr = address & _WORD_ADDR
        stored, parity = self._cell(addr)
        recovered = (stored ^ addr) & 0xFFFFFFFF
        return MemoryCheckEvent(recovered, parity32(recovered) == parity)

    def store_word_at_physical(self, requested, actual, value, parity=None):
        """Model a wrong-word store: data scrambled with the *intended*
        address ``requested`` but written to ``actual``.

        A later load of ``actual`` unscrambles with the wrong address and
        (for odd-weight address differences) trips parity; the word at
        ``requested`` is silently stale, which a later load of it cannot
        see - this is exactly the "silently not performed access" class
        the paper concedes in Sec. 3.4.
        """
        value &= 0xFFFFFFFF
        self._put(actual & _WORD_ADDR, value ^ (requested & _WORD_ADDR),
                  parity32(value) if parity is None else (parity & 1))

    def load_word_at_physical(self, requested, actual):
        """Model a wrong-word access: the core asked for ``requested`` but
        the (faulty) memory system delivered the word stored at ``actual``.

        The XOR-unscrambling uses the *requested* address, as the core's
        load path would; a mismatch between the two addresses corrupts the
        recovered value and (for odd-weight address differences) trips
        parity, exactly as Sec. 3.4 describes.
        """
        stored, parity = self._cell(actual & _WORD_ADDR)
        recovered = (stored ^ (requested & _WORD_ADDR)) & 0xFFFFFFFF
        return MemoryCheckEvent(recovered, parity32(recovered) == parity)

    # -- functional (unchecked) helpers -----------------------------------
    def peek_word(self, address):
        """Functional value without checking (golden-state comparison)."""
        addr = address & _WORD_ADDR
        return (self._cell(addr)[0] ^ addr) & 0xFFFFFFFF

    def functional_snapshot(self):
        """Mapping of word address -> functional value for all written
        words, in ascending address order."""
        return {addr: (word ^ addr) & 0xFFFFFFFF
                for addr, word in _words(self._stored)}

    def written_words(self):
        """Sorted word addresses that have been stored to."""
        return [addr for addr, __ in _words(self._stored)]

    def stored_pages(self):
        """Sorted ``(page, stored words)`` pairs, read in place.

        Two memories' tuples are equal exactly when their written word
        sets and functional values are (a stored word determines its
        functional value at a fixed address), and pages still shared
        with a common snapshot compare by identity.  The lists are live:
        compare the result at once rather than keeping it.
        """
        return tuple(sorted(self._stored.items()))

    def page_tables(self):
        """The ``(stored, parity)`` page tables, read in place.

        Equal to a :meth:`snapshot` exactly when the same words are
        written with the same stored words and parity bits; pages still
        shared with it compare by identity.  The tables are live: compare the result at once
        rather than keeping it.
        """
        return (self._stored, self._parity)

    # -- checkpointing -----------------------------------------------------
    def snapshot(self):
        """``(stored pages, parity pages)``: copies of the two page tables.

        The pages themselves - the protected words and their parity
        bits, exactly as resident (no re-encoding) - become shared with
        the snapshot, so this memory copies each one before its next
        write to it.  Costs O(pages).
        """
        self._owned.clear()
        return (dict(self._stored), dict(self._parity))

    def restore(self, snapshot):
        """Install a :meth:`snapshot`'s page tables (O(pages)); its pages
        stay shared until written."""
        stored, parity = snapshot
        self._stored = dict(stored)
        self._parity = dict(parity)
        self._owned.clear()

    @staticmethod
    def snapshot_stored_pages(snapshot):
        """:meth:`stored_pages` of a :meth:`snapshot`."""
        return tuple(sorted(snapshot[0].items()))

    @staticmethod
    def flat_snapshot(snapshot):
        """A :meth:`snapshot` as ``(stored, parity)`` dicts keyed by word
        address, one entry per written word: the per-word form, for
        oracles that compare state independently of the page layout."""
        stored_pages, parity_pages = snapshot
        stored = {}
        parity = {}
        for addr, word in _words(stored_pages):
            stored[addr] = word
            parity[addr] = parity_pages[addr >> PAGE_SHIFT][(addr >> 2) & _SLOT_MASK]
        return stored, parity

    # -- fault hooks -------------------------------------------------------
    def corrupt_stored_bit(self, address, bit):
        """Flip one bit of the protected storage word (data-array fault)."""
        self.set_stored_word(address, self.stored_word(address) ^ (1 << bit))

    def corrupt_parity(self, address):
        """Flip the stored parity bit of a word."""
        self.set_parity_bit(address, self.parity_bit(address) ^ 1)

    def stored_word(self, address):
        """The raw ``D XOR A`` storage word at ``address`` (the encoding
        of zero, ``address`` itself, if never written)."""
        return self._cell(address & _WORD_ADDR)[0]

    def set_stored_word(self, address, word):
        """Overwrite the raw storage word at ``address``, keeping its
        parity bit (a data-array cell fault; no parity is regenerated)."""
        addr = address & _WORD_ADDR
        self._put(addr, word, self._cell(addr)[1])

    def parity_bit(self, address):
        """The stored parity bit of the word at ``address`` (0 if never
        written)."""
        return self._cell(address & _WORD_ADDR)[1]

    def set_parity_bit(self, address, bit):
        """Overwrite the stored parity bit of the word at ``address``."""
        addr = address & _WORD_ADDR
        self._put(addr, self._cell(addr)[0], bit & 1)


def _words(stored_pages):
    """``(word address, stored word)`` of every written word of a stored
    page table, in ascending address order."""
    for page in sorted(stored_pages):
        base = page << PAGE_SHIFT
        for slot, word in enumerate(stored_pages[page]):
            if word is not None:
                yield base | (slot << 2), word
