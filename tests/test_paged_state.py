"""Copy-on-write paged memory and caches against their per-word spec.

:class:`~repro.mem.checked.CheckedMemory` keeps its protected words, and
:class:`~repro.mem.cache.Cache` its sets, in pages shared copy-on-write
with snapshots.  The specification is the unpaged form each had before:
a dict of stored words plus a dict of parity bits, and a list of
``[tag, dirty]`` lists per set, copied here verbatim.

Hypothesis drives random operation sequences over two live instances
(each a protected memory plus a cache) that take snapshots and restore
each other's, so pages end up shared between both instances and several
snapshots.  After every operation each instance must agree with its
spec instance on loads, ``peek_word``, ``written_words()`` with its
order, ``functional_snapshot()``, every word's raw cells, cache
latencies, probes and stats; and every snapshot taken so far must still
have the flat form it had when it was taken.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.checkedcore import CheckedCore
from repro.isa import registers
from repro.mem.cache import Cache, CacheConfig
from repro.mem.checked import PAGE_WORDS, CheckedMemory, parity32
from tests.test_batched import _embedded


class SpecCheckedMemory:
    """The per-word dict form of CheckedMemory (the specification)."""

    def __init__(self):
        self._stored = {}  # word address -> D XOR A
        self._parity = {}  # word address -> parity bit of D

    @staticmethod
    def _word_addr(address):
        return address & registers.ADDR_MASK & ~3

    def store_word(self, address, value, parity=None):
        addr = self._word_addr(address)
        value &= 0xFFFFFFFF
        self._stored[addr] = value ^ addr
        self._parity[addr] = parity32(value) if parity is None else (parity & 1)

    def load_word(self, address):
        addr = self._word_addr(address)
        if addr not in self._stored:
            return (0, True)
        recovered = (self._stored[addr] ^ addr) & 0xFFFFFFFF
        return (recovered, parity32(recovered) == self._parity[addr])

    def store_word_at_physical(self, requested, actual, value, parity=None):
        req = self._word_addr(requested)
        act = self._word_addr(actual)
        value &= 0xFFFFFFFF
        self._stored[act] = value ^ req
        self._parity[act] = parity32(value) if parity is None else (parity & 1)

    def load_word_at_physical(self, requested, actual):
        req = self._word_addr(requested)
        act = self._word_addr(actual)
        stored = self._stored.get(act, 0 ^ act)
        parity = self._parity.get(act, 0)
        recovered = (stored ^ req) & 0xFFFFFFFF
        return (recovered, parity32(recovered) == parity)

    def peek_word(self, address):
        addr = self._word_addr(address)
        if addr not in self._stored:
            return 0
        return (self._stored[addr] ^ addr) & 0xFFFFFFFF

    def functional_snapshot(self):
        return {addr: (stored ^ addr) & 0xFFFFFFFF for addr, stored in self._stored.items()}

    def snapshot(self):
        return (dict(self._stored), dict(self._parity))

    def restore(self, snapshot):
        stored, parity = snapshot
        self._stored = dict(stored)
        self._parity = dict(parity)

    def corrupt_stored_bit(self, address, bit):
        addr = self._word_addr(address)
        self._stored[addr] = self._stored.get(addr, 0 ^ addr) ^ (1 << bit)
        self._parity.setdefault(addr, 0)

    def corrupt_parity(self, address):
        addr = self._word_addr(address)
        self._parity[addr] = self._parity.get(addr, 0) ^ 1
        self._stored.setdefault(addr, 0 ^ addr)

    def written_words(self):
        return sorted(self._stored)


class SpecCache:
    """The per-set list form of Cache (the specification)."""

    def __init__(self, config):
        self.config = config
        self.hits = self.misses = self.writebacks = 0
        self._set_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._sets = [[] for _ in range(config.num_sets)]

    def access(self, address, is_write=False):
        cfg = self.config
        line_addr = address >> self._set_shift
        ways = self._sets[line_addr & self._set_mask]
        tag = line_addr
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                if i:
                    ways.insert(0, ways.pop(i))
                if is_write:
                    ways[0][1] = True
                self.hits += 1
                return cfg.hit_cycles
        self.misses += 1
        latency = cfg.hit_cycles + cfg.miss_penalty
        if len(ways) >= cfg.ways:
            victim = ways.pop()
            if victim[1]:
                self.writebacks += 1
                latency += cfg.writeback_penalty
        ways.insert(0, [tag, is_write])
        return latency

    def probe(self, address):
        line_addr = address >> self._set_shift
        ways = self._sets[line_addr & self._set_mask]
        return any(entry[0] == line_addr for entry in ways)

    def snapshot(self):
        sets = tuple((index, tuple((entry[0], entry[1]) for entry in ways))
                     for index, ways in enumerate(self._sets) if ways)
        return (sets, (self.hits, self.misses, self.writebacks))

    def restore(self, snapshot):
        sets, stats = snapshot
        for ways in self._sets:
            ways.clear()
        for index, ways in sets:
            self._sets[index] = [[tag, dirty] for tag, dirty in ways]
        self.hits, self.misses, self.writebacks = stats


#: Geometries: direct-mapped and 2-way over two pages of sets, and a
#: cache smaller than one page.
CONFIGS = (
    CacheConfig(size_bytes=1024, line_bytes=16, ways=1, miss_penalty=20,
                writeback_penalty=3),
    CacheConfig(size_bytes=2048, line_bytes=16, ways=2, miss_penalty=20,
                writeback_penalty=3),
    CacheConfig(size_bytes=128, line_bytes=16, ways=2, miss_penalty=7),
)

#: Word addresses over four memory pages (so writes collide on pages),
#: plus arbitrary 32-bit addresses (masked to the address space).
ADDRESSES = st.one_of(st.integers(0, 4 * PAGE_WORDS * 4 - 1),
                      st.integers(0, 0xFFFFFFFF))
CACHE_ADDRESSES = st.integers(0, 0x1FFF)
WHO = st.integers(0, 1)
PARITY = st.one_of(st.none(), st.integers(0, 1))

OPERATIONS = st.one_of(
    st.tuples(st.just("store"), WHO, ADDRESSES, st.integers(0, 0xFFFFFFFF), PARITY),
    st.tuples(st.just("store_phys"), WHO, ADDRESSES, ADDRESSES,
              st.integers(0, 0xFFFFFFFF), PARITY),
    st.tuples(st.just("load"), WHO, ADDRESSES),
    st.tuples(st.just("load_phys"), WHO, ADDRESSES, ADDRESSES),
    st.tuples(st.just("corrupt_bit"), WHO, ADDRESSES, st.integers(0, 31)),
    st.tuples(st.just("corrupt_parity"), WHO, ADDRESSES),
    st.tuples(st.just("access"), WHO, CACHE_ADDRESSES, st.booleans()),
    st.tuples(st.just("snapshot"), WHO),
    st.tuples(st.just("restore"), WHO, st.integers(0, 1 << 16)),
)


def _flat_memory(memory):
    """The flat (stored, parity) form of a live memory, read without a
    snapshot (which would change what the memory may write in place)."""
    words = memory.written_words()
    return ({addr: memory.stored_word(addr) for addr in words},
            {addr: memory.parity_bit(addr) for addr in words})


def _check(live, spec, touched):
    memory, cache = live
    spec_memory, spec_cache = spec
    assert memory.written_words() == spec_memory.written_words()
    assert memory.functional_snapshot() == spec_memory.functional_snapshot()
    assert list(memory.functional_snapshot()) == memory.written_words()
    assert _flat_memory(memory) == spec_memory.snapshot()
    for address in touched:
        assert memory.peek_word(address) == spec_memory.peek_word(address)
        assert cache.probe(address) == spec_cache.probe(address)
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.writebacks) == \
        (spec_cache.hits, spec_cache.misses, spec_cache.writebacks)
    assert cache.occupancy() == sum(len(ways) for ways in spec_cache._sets)


#: Leading arguments of each operation that are addresses.
ADDRESS_ARGS = {"store": 1, "store_phys": 2, "load": 1, "load_phys": 2,
                "corrupt_bit": 1, "corrupt_parity": 1, "access": 1}


def _run(config, operations):
    lives = [(CheckedMemory(), Cache(config)) for _ in range(2)]
    specs = [(SpecCheckedMemory(), SpecCache(config)) for _ in range(2)]
    # (paged snapshot pair, spec snapshot pair) in capture order.
    snapshots = []
    touched = set()
    for operation in operations:
        kind, who = operation[0], operation[1]
        args = operation[2:]
        (memory, cache), (spec_memory, spec_cache) = lives[who], specs[who]
        if kind == "store":
            memory.store_word(*args)
            spec_memory.store_word(*args)
        elif kind == "store_phys":
            memory.store_word_at_physical(*args)
            spec_memory.store_word_at_physical(*args)
        elif kind == "load":
            event = memory.load_word(*args)
            assert (event.value, event.ok) == spec_memory.load_word(*args)
        elif kind == "load_phys":
            event = memory.load_word_at_physical(*args)
            assert (event.value, event.ok) == spec_memory.load_word_at_physical(*args)
        elif kind == "corrupt_bit":
            memory.corrupt_stored_bit(*args)
            spec_memory.corrupt_stored_bit(*args)
        elif kind == "corrupt_parity":
            memory.corrupt_parity(*args)
            spec_memory.corrupt_parity(*args)
        elif kind == "access":
            assert cache.access(*args) == spec_cache.access(*args)
        elif kind == "snapshot":
            paged = (memory.snapshot(), cache.snapshot())
            flat = (spec_memory.snapshot(), spec_cache.snapshot())
            assert (CheckedMemory.flat_snapshot(paged[0]),
                    Cache.flat_snapshot(paged[1])) == flat
            snapshots.append((paged, flat))
        elif kind == "restore" and snapshots:
            paged, flat = snapshots[args[0] % len(snapshots)]
            memory.restore(paged[0])
            cache.restore(paged[1])
            spec_memory.restore(flat[0])
            spec_cache.restore(flat[1])
        touched.update(args[:ADDRESS_ARGS.get(kind, 0)])
        for live, spec in zip(lives, specs):
            _check(live, spec, touched)
        for paged, flat in snapshots:
            assert (CheckedMemory.flat_snapshot(paged[0]),
                    Cache.flat_snapshot(paged[1])) == flat


@pytest.mark.parametrize("config", CONFIGS,
                         ids=["direct", "2way", "subpage"])
@given(operations=st.lists(OPERATIONS, max_size=60))
@settings(max_examples=60, deadline=None)
def test_paged_state_matches_spec(config, operations):
    _run(config, operations)


def test_two_restores_of_one_snapshot_write_the_same_page():
    memory = CheckedMemory()
    cache = Cache(CONFIGS[0])
    for addr in range(0, 4 * PAGE_WORDS, 4):
        memory.store_word(addr, addr + 1)
        cache.access(addr)
    snapshot = (memory.snapshot(), cache.snapshot())
    flat = (CheckedMemory.flat_snapshot(snapshot[0]),
            Cache.flat_snapshot(snapshot[1]))
    left, right = CheckedMemory(), CheckedMemory()
    left_cache, right_cache = Cache(CONFIGS[0]), Cache(CONFIGS[0])
    for mem, cch in ((left, left_cache), (right, right_cache)):
        mem.restore(snapshot[0])
        cch.restore(snapshot[1])
    left.store_word(8, 0xAAAA)
    right.store_word(8, 0xBBBB)
    right.corrupt_parity(12)
    left_cache.access(8, is_write=True)
    right_cache.access(8 + 1024)  # evicts the line left only dirtied
    assert (left.peek_word(8), right.peek_word(8)) == (0xAAAA, 0xBBBB)
    assert left.load_word(12).ok and not right.load_word(12).ok
    assert left_cache.probe(8) and not right_cache.probe(8)
    assert memory.peek_word(8) == 9 and memory.load_word(12).ok
    assert cache.probe(8)
    assert (CheckedMemory.flat_snapshot(snapshot[0]),
            Cache.flat_snapshot(snapshot[1])) == flat


def test_two_cores_restored_from_one_capture_stay_apart():
    """Two lane cores warm-started from one golden capture, each storing
    to the same page, see only their own stores; the capture and the
    golden core are untouched."""
    embedded = _embedded("small")
    golden = CheckedCore(embedded, detect=True)
    for _ in range(6):
        golden.step()
    snapshot = golden.snapshot()
    flat = snapshot.flat()
    buf = embedded.program.addr_of("buf")
    golden_word = golden.load_word(buf)
    cores = [CheckedCore(embedded, detect=True).restore(snapshot)
             for _ in range(2)]
    for value, core in enumerate(cores, start=100):
        core.dmem.store_word(buf, value)
        core.mem.dcache.access(buf, is_write=True)
    assert [core.load_word(buf) for core in cores] == [100, 101]
    assert golden.load_word(buf) == golden_word
    assert snapshot.flat() == flat
    assert golden.snapshot().flat() == flat
