"""Memory hierarchy substrate.

The paper's evaluation platform has 8 KB instruction and data caches
(direct-mapped and 2-way LRU variants), a write-back write-allocate
blocking data cache, 1-cycle hits and 20-cycle misses (Sec. 4.4).  This
package provides:

* :class:`~repro.mem.main.MainMemory` - flat byte-addressable backing
  store with word/half/byte access.
* :class:`~repro.mem.cache.Cache` - tag-array timing model (the data
  lives in main memory; the cache tracks hits, misses, dirtiness and LRU
  state, which is all the timing and the Argus memory checker need).
* :class:`~repro.mem.hierarchy.MemorySystem` - the core-facing facade
  combining I-cache, D-cache and main memory, returning access latencies.
* :class:`~repro.mem.ecc.EccMemory` - the SEC-DED alternative the paper
  suggests for bounding detection latency (Sec. 4.2).
* :class:`~repro.mem.checked.CheckedMemory` - Argus-1's protected view:
  every word is stored XORed with its address and carries a parity bit
  (paper Sec. 3.4), so wrong-word accesses and data corruption are
  detectable on load.

The protected words and the cache sets are paged and shared
copy-on-write with snapshots, so checkpointing a core copies page
tables, not memory.
"""

from repro.mem.main import MainMemory
from repro.mem.cache import Cache, CacheConfig
from repro.mem.hierarchy import MemorySystem, MemoryConfig
from repro.mem.checked import CheckedMemory
from repro.mem.ecc import EccMemory, decode_secded, encode_secded

__all__ = [
    "MainMemory",
    "Cache",
    "CacheConfig",
    "MemorySystem",
    "MemoryConfig",
    "CheckedMemory",
    "EccMemory",
    "decode_secded",
    "encode_secded",
]
