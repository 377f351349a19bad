"""Core-facing memory system: I-cache + D-cache + main memory.

Latencies follow the paper's embedded configuration (Sec. 4.4): 8 KB
caches, 1-cycle hits, 20-cycle misses.  Functional data always comes from
:class:`~repro.mem.main.MainMemory`; the caches contribute timing only.
"""

from dataclasses import dataclass, field

from repro.mem.cache import Cache, CacheConfig
from repro.mem.main import MainMemory


@dataclass(frozen=True)
class MemoryConfig:
    """Configuration of the whole hierarchy.

    ``icache_ways`` selects the paper's direct-mapped (1) vs 2-way variants
    used in Figures 6 and 7.
    """

    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)

    @staticmethod
    def paper(ways=1):
        """The paper's embedded-system configuration with n-way caches."""
        cache = CacheConfig(size_bytes=8192, line_bytes=16, ways=ways,
                            hit_cycles=1, miss_penalty=20)
        return MemoryConfig(icache=cache, dcache=cache)


class MemorySystem:
    """I-cache, D-cache and backing store with per-access latencies.

    Every access returns ``(value, latency_cycles)`` (stores return
    ``(None, latency)``).  The core adds the latency to its cycle count;
    the cache is blocking so no overlap is modelled.
    """

    def __init__(self, config=None, memory=None):
        self.config = config or MemoryConfig.paper(ways=1)
        self.memory = memory if memory is not None else MainMemory()
        self.icache = Cache(self.config.icache)
        self.dcache = Cache(self.config.dcache)

    # -- instruction side ----------------------------------------------
    def fetch(self, address):
        """Fetch one instruction word; returns (word, latency)."""
        latency = self.icache.access(address, is_write=False)
        return self.memory.read_word(address), latency

    # -- data side --------------------------------------------------------
    def load_word(self, address):
        latency = self.dcache.access(address, is_write=False)
        return self.memory.read_word(address), latency

    def load_half(self, address):
        latency = self.dcache.access(address, is_write=False)
        return self.memory.read_half(address), latency

    def load_byte(self, address):
        latency = self.dcache.access(address, is_write=False)
        return self.memory.read_byte(address), latency

    def store_word(self, address, value):
        latency = self.dcache.access(address, is_write=True)
        self.memory.write_word(address, value)
        return None, latency

    def store_half(self, address, value):
        latency = self.dcache.access(address, is_write=True)
        self.memory.write_half(address, value)
        return None, latency

    def store_byte(self, address, value):
        latency = self.dcache.access(address, is_write=True)
        self.memory.write_byte(address, value)
        return None, latency

    def reset_stats(self):
        self.icache.stats.reset()
        self.dcache.stats.reset()

    # -- checkpointing ---------------------------------------------------
    def snapshot(self):
        """Capture both caches' tag/LRU/dirty/stat state (their page
        tables; see :meth:`Cache.snapshot`).

        :class:`~repro.mem.main.MainMemory` is loaded once from the
        program and never written through this interface by the checked
        core (data lives in its protected memory), so it is not part of
        the snapshot.
        """
        return (self.icache.snapshot(), self.dcache.snapshot())

    def restore(self, snapshot):
        icache, dcache = snapshot
        self.icache.restore(icache)
        self.dcache.restore(dcache)

    @staticmethod
    def flat_snapshot(snapshot):
        """Both caches' :meth:`Cache.flat_snapshot` forms."""
        icache, dcache = snapshot
        return (Cache.flat_snapshot(icache), Cache.flat_snapshot(dcache))
