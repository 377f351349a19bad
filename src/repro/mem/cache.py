"""Set-associative tag-array cache timing model.

The paper studies 8 KB direct-mapped and 2-way set-associative caches with
LRU replacement; the D-cache is write-back, write-allocate and blocks on
misses (Sec. 3.1).  Since data always lives in :class:`MainMemory`, the
cache only models *timing state*: tags, valid/dirty bits and LRU order.
That is sufficient for Figures 6-7 (runtime overhead) and for the Argus
memory checker, which protects the data words themselves.

Each set is an immutable tuple of ``(tag, dirty)`` pairs in LRU order,
and the sets live in pages of :data:`SETS_PER_PAGE` shared copy-on-write
with snapshots, as :mod:`repro.mem.checked` pages its words: a snapshot
copies the page table, a cache writes in place only the pages it copied
since its last snapshot or restore, and an access that leaves its set as
it was (a hit on the most recent way that dirties no clean line) writes
nothing.
"""

from dataclasses import dataclass
from itertools import chain

#: Sets per copy-on-write page of a cache's tag array.
SETS_PER_PAGE = 32


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency parameters of one cache."""

    size_bytes: int = 8192
    line_bytes: int = 16
    ways: int = 1
    hit_cycles: int = 1
    miss_penalty: int = 20
    writeback_penalty: int = 0  # absorbed by a write buffer by default

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError("cache size must be a multiple of line_bytes * ways")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two")

    @property
    def num_sets(self):
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass
class CacheStats:
    """Access counters for reporting."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def reset(self):
        self.hits = 0
        self.misses = 0
        self.writebacks = 0


class Cache:
    """A blocking, write-back, write-allocate set-associative cache.

    ``access`` returns the latency in cycles for a read or write at the
    given address, updating tag/LRU/dirty state.  The direct-mapped
    configuration is simply ``ways=1``.
    """

    def __init__(self, config):
        self.config = config
        self.stats = CacheStats()
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        page_sets = min(num_sets, SETS_PER_PAGE)
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        self._page_shift = page_sets.bit_length() - 1
        self._slot_mask = page_sets - 1
        # Per set: tuple of (tag, dirty) in LRU order (front = most recent).
        self._pages = [[()] * page_sets for _ in range(num_sets // page_sets)]
        self._owned = set(range(len(self._pages)))

    def _set_ways(self, index, ways):
        """Replace set ``index``, copying its page first if shared."""
        page = index >> self._page_shift
        if page not in self._owned:
            self._pages[page] = list(self._pages[page])
            self._owned.add(page)
        self._pages[page][index & self._slot_mask] = ways

    def access(self, address, is_write=False):
        """Perform one access; returns its latency in cycles."""
        cfg = self.config
        tag = address >> self._line_shift
        index = tag & self._set_mask
        ways = self._pages[index >> self._page_shift][index & self._slot_mask]
        if ways and ways[0][0] == tag:
            if is_write and not ways[0][1]:
                self._set_ways(index, ((tag, True),) + ways[1:])
            self.stats.hits += 1
            return cfg.hit_cycles
        for i in range(1, len(ways)):
            if ways[i][0] == tag:
                dirty = True if is_write else ways[i][1]
                self._set_ways(index, ((tag, dirty),) + ways[:i] + ways[i + 1:])
                self.stats.hits += 1
                return cfg.hit_cycles
        # Miss: allocate (write-allocate policy covers writes too).
        self.stats.misses += 1
        latency = cfg.hit_cycles + cfg.miss_penalty
        if len(ways) >= cfg.ways:
            if ways[-1][1]:
                self.stats.writebacks += 1
                latency += cfg.writeback_penalty
            ways = ways[:-1]
        self._set_ways(index, ((tag, is_write),) + ways)
        return latency

    def _sets(self):
        return chain.from_iterable(self._pages)

    def probe(self, address):
        """True if the address would hit right now (no state change)."""
        tag = address >> self._line_shift
        index = tag & self._set_mask
        ways = self._pages[index >> self._page_shift][index & self._slot_mask]
        return any(entry[0] == tag for entry in ways)

    def flush(self):
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = sum(1 for ways in self._sets() for entry in ways if entry[1])
        page_sets = self._slot_mask + 1
        self._pages = [[()] * page_sets for _ in self._pages]
        self._owned = set(range(len(self._pages)))
        return dirty

    def occupancy(self):
        """Number of valid lines (testing/inspection)."""
        return sum(len(ways) for ways in self._sets())

    # -- checkpointing ---------------------------------------------------
    def snapshot(self):
        """``(pages, stats)``: the page table of tag/LRU/dirty state plus
        the access counters.

        The pages become shared with the snapshot, so this cache copies
        each one before its next write to it.  Costs O(pages).
        """
        self._owned.clear()
        stats = (self.stats.hits, self.stats.misses, self.stats.writebacks)
        return (tuple(self._pages), stats)

    def restore(self, snapshot):
        """Install a :meth:`snapshot`'s page table and counters (O(pages));
        its pages stay shared until written."""
        pages, stats = snapshot
        self._pages = list(pages)
        self._owned.clear()
        self.stats.hits, self.stats.misses, self.stats.writebacks = stats

    @staticmethod
    def flat_snapshot(snapshot):
        """A :meth:`snapshot` as ``(sets, stats)`` with ``sets`` the
        ``(index, ways)`` pairs of the non-empty sets: the per-set form,
        for oracles that compare state independently of the page layout."""
        pages, stats = snapshot
        sets = tuple((index, ways)
                     for index, ways in enumerate(chain.from_iterable(pages))
                     if ways)
        return (sets, stats)
