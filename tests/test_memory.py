"""Unit tests for main memory, caches and the memory system."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.isa import registers
from repro.mem.cache import Cache, CacheConfig
from repro.mem.hierarchy import MemoryConfig, MemorySystem
from repro.mem.main import MainMemory, MisalignedAccess


class TestMainMemory:
    def test_default_zero(self):
        mem = MainMemory()
        assert mem.read_word(0x1234 & ~3) == 0
        assert mem.read_byte(99) == 0

    def test_word_roundtrip(self):
        mem = MainMemory()
        mem.write_word(0x100, 0xDEADBEEF)
        assert mem.read_word(0x100) == 0xDEADBEEF

    def test_little_endian_layout(self):
        mem = MainMemory()
        mem.write_word(0x40, 0x11223344)
        assert mem.read_byte(0x40) == 0x44
        assert mem.read_byte(0x43) == 0x11

    def test_half_roundtrip(self):
        mem = MainMemory()
        mem.write_half(0x10, 0xABCD)
        assert mem.read_half(0x10) == 0xABCD
        assert mem.read_word(0x10) == 0xABCD

    def test_misaligned_word_rejected(self):
        mem = MainMemory()
        with pytest.raises(MisalignedAccess):
            mem.read_word(0x101)
        with pytest.raises(MisalignedAccess):
            mem.write_half(0x101, 1)

    def test_cross_page_block(self):
        mem = MainMemory()
        mem.write_block(0xFFE, b"\x01\x02\x03\x04")
        assert mem.read_block(0xFFE, 4) == b"\x01\x02\x03\x04"

    def test_address_wraps_to_27_bits(self):
        mem = MainMemory()
        mem.write_word(0x8000000 | 0x100, 42)  # bit 27 ignored
        assert mem.read_word(0x100) == 42

    def test_snapshot_compare(self):
        mem = MainMemory()
        mem.write_word(0x100, 7)
        snap = mem.snapshot()
        assert mem.equals_snapshot(snap)
        mem.write_byte(0x100, 8)
        assert not mem.equals_snapshot(snap)

    def test_snapshot_treats_untouched_pages_as_zero(self):
        mem = MainMemory()
        snap = mem.snapshot()
        mem.write_word(0x100, 0)  # touches a page but stays zero
        assert mem.equals_snapshot(snap)


def _write_bytes(mem, address, data):
    """The byte loop ``write_block`` replaced, kept as its specification."""
    for i, byte in enumerate(data):
        mem.write_byte(address + i, byte)


class TestWriteBlock:
    @pytest.mark.parametrize("address,size", [
        (0x100, 0),
        (0x2345, 100),  # inside one page
        (0xFFE, 4),  # across one page boundary
        (0x1000 - 3, 2 * 0x1000 + 7),  # across three page boundaries
        (registers.ADDR_MASK - 5, 16),  # wraps to address 0
        (registers.ADDR_MASK + 1 + 0x10, 8),  # bits above ADDR_MASK dropped
    ])
    def test_matches_byte_writes(self, address, size):
        data = bytearray(random.Random(size).randrange(256)
                         for _ in range(size))
        block, spec = MainMemory(), MainMemory()
        block.write_word(0x100, 0xDEADBEEF)  # a page already present
        spec.write_word(0x100, 0xDEADBEEF)
        block.write_block(address, data)
        _write_bytes(spec, address, data)
        assert block.snapshot() == spec.snapshot()


class TestCacheConfig:
    def test_paper_geometry(self):
        config = CacheConfig(size_bytes=8192, line_bytes=16, ways=1)
        assert config.num_sets == 512
        config = CacheConfig(size_bytes=8192, line_bytes=16, ways=2)
        assert config.num_sets == 256

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=16, ways=1)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=8192, line_bytes=24, ways=1)


class TestCache:
    def make(self, ways=1):
        return Cache(CacheConfig(size_bytes=256, line_bytes=16, ways=ways,
                                 hit_cycles=1, miss_penalty=20))

    def test_first_access_misses_then_hits(self):
        cache = self.make()
        assert cache.access(0x100) == 21
        assert cache.access(0x104) == 1  # same line
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_direct_mapped_conflict(self):
        cache = self.make(ways=1)
        cache.access(0x000)
        cache.access(0x100)  # 256 bytes apart: same set in a 256B cache
        assert cache.access(0x000) == 21  # evicted

    def test_two_way_absorbs_pairwise_conflict(self):
        cache = self.make(ways=2)
        cache.access(0x000)
        cache.access(0x100)
        assert cache.access(0x000) == 1
        assert cache.access(0x100) == 1

    def test_lru_eviction_order(self):
        cache = self.make(ways=2)
        cache.access(0x000)
        cache.access(0x100)
        cache.access(0x000)  # touch: 0x100 becomes LRU
        cache.access(0x200)  # evicts 0x100
        assert cache.probe(0x000)
        assert not cache.probe(0x100)

    def test_writeback_counted_on_dirty_eviction(self):
        cache = self.make(ways=1)
        cache.access(0x000, is_write=True)
        cache.access(0x100)  # evicts dirty line
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = self.make(ways=1)
        cache.access(0x000)
        cache.access(0x100)
        assert cache.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = self.make(ways=1)
        cache.access(0x000)
        cache.access(0x004, is_write=True)  # write hit dirties the line
        cache.access(0x100)
        assert cache.stats.writebacks == 1

    def test_probe_does_not_change_state(self):
        cache = self.make()
        cache.access(0x000)
        before = cache.stats.accesses
        assert cache.probe(0x000)
        assert not cache.probe(0x500)
        assert cache.stats.accesses == before

    def test_flush(self):
        cache = self.make()
        cache.access(0x000, is_write=True)
        assert cache.flush() == 1
        assert not cache.probe(0x000)
        assert cache.occupancy() == 0

    def test_miss_rate(self):
        cache = self.make()
        cache.access(0x000)
        cache.access(0x000)
        assert cache.stats.miss_rate == 0.5


class TestMemorySystem:
    def test_fetch_returns_word_and_latency(self):
        system = MemorySystem(MemoryConfig.paper(ways=1))
        system.memory.write_word(0x1000, 0xCAFEBABE)
        word, latency = system.fetch(0x1000)
        assert word == 0xCAFEBABE
        assert latency == 21
        __, latency = system.fetch(0x1000)
        assert latency == 1

    def test_store_then_load(self):
        system = MemorySystem()
        system.store_word(0x2000, 77)
        value, __ = system.load_word(0x2000)
        assert value == 77

    def test_sub_word_access(self):
        system = MemorySystem()
        system.store_byte(0x2001, 0xAB)
        value, __ = system.load_byte(0x2001)
        assert value == 0xAB
        system.store_half(0x2004, 0x1234)
        value, __ = system.load_half(0x2004)
        assert value == 0x1234

    def test_icache_dcache_independent(self):
        system = MemorySystem()
        system.fetch(0x1000)
        system.load_word(0x1000)
        assert system.icache.stats.misses == 1
        assert system.dcache.stats.misses == 1

    def test_reset_stats(self):
        system = MemorySystem()
        system.fetch(0x1000)
        system.reset_stats()
        assert system.icache.stats.accesses == 0


@given(addresses=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200))
def test_cache_against_reference_model(addresses):
    """Property: the cache's hit/miss sequence matches a simple LRU model."""
    config = CacheConfig(size_bytes=512, line_bytes=16, ways=2, hit_cycles=1,
                         miss_penalty=10)
    cache = Cache(config)
    model = {}  # set index -> list of tags, MRU first
    for address in addresses:
        line = address >> 4
        index = line % config.num_sets
        tags = model.setdefault(index, [])
        expected_hit = line in tags
        latency = cache.access(address)
        assert (latency == 1) == expected_hit
        if expected_hit:
            tags.remove(line)
        elif len(tags) >= 2:
            tags.pop()
        tags.insert(0, line)
