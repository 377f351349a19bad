"""Base-vs-Argus measurement harness for Figures 5-7.

For each workload, assemble the unprotected binary and the Argus-
embedded binary, run both on the fast core with the requested cache
configuration, verify that they compute the same checksum, and report:

* dynamic instruction overhead (Figure 5) and static overhead;
* runtime (cycle) overhead for 1-way and 2-way I-caches (Figures 6-7).
"""

from dataclasses import dataclass

from repro.cpu import FastCore
from repro.mem.hierarchy import MemoryConfig


@dataclass(frozen=True)
class Measurement:
    """One workload's base-vs-embedded comparison."""

    name: str
    base_instructions: int
    embedded_instructions: int
    base_cycles: int
    embedded_cycles: int
    base_text_bytes: int
    embedded_text_bytes: int
    sig_instructions: int
    checksum: int
    icache_ways: int
    base_icache_misses: int
    embedded_icache_misses: int

    @property
    def dynamic_overhead(self):
        """Figure 5: extra dynamic instructions from embedded Signatures."""
        return (self.embedded_instructions - self.base_instructions) / self.base_instructions

    @property
    def static_overhead(self):
        return (self.embedded_text_bytes - self.base_text_bytes) / self.base_text_bytes

    @property
    def runtime_overhead(self):
        """Figures 6-7: cycle-count overhead (can be negative: re-alignment
        of basic blocks sometimes *reduces* conflict misses, Sec. 4.4)."""
        return (self.embedded_cycles - self.base_cycles) / self.base_cycles


def measure_workload(workload, ways=1, max_instructions=50_000_000):
    """Measure one workload under an n-way 8KB cache configuration."""
    config = MemoryConfig.paper(ways=ways)
    base_prog = workload.build_base()
    embedded = workload.build_embedded()

    base_core = FastCore(base_prog, mem_config=config)
    base_res = base_core.run(max_instructions=max_instructions)
    emb_core = FastCore(embedded.program, mem_config=config)
    emb_res = emb_core.run(max_instructions=max_instructions)

    base_sum = base_core.load_word(workload.result_address(base_prog))
    emb_sum = emb_core.load_word(workload.result_address(embedded.program))
    if base_sum != emb_sum:
        raise AssertionError(
            "%s: embedded binary changed the result (0x%x != 0x%x)"
            % (workload.name, emb_sum, base_sum)
        )

    return Measurement(
        name=workload.name,
        base_instructions=base_res.instructions,
        embedded_instructions=emb_res.instructions,
        base_cycles=base_res.cycles,
        embedded_cycles=emb_res.cycles,
        base_text_bytes=base_prog.text_size,
        embedded_text_bytes=embedded.program.text_size,
        sig_instructions=emb_res.sig_instructions,
        checksum=base_sum,
        icache_ways=ways,
        base_icache_misses=base_res.icache_misses,
        embedded_icache_misses=emb_res.icache_misses,
    )


def measure_suite(workloads, ways=1, workers=None):
    """Measure a collection of workloads; returns a list of Measurements.

    With ``workers`` the per-workload measurements fan out across a
    process pool - each workload is independent, so results are returned
    in input order and identical to a serial run.  ``workers=0`` sizes
    the pool as campaigns do (:func:`repro.runner.pool.default_workers`).
    Falls back to serial execution where process pools are unavailable.
    """
    workloads = list(workloads)
    if workers == 0:
        # Imported here: figure runs need no campaign stack otherwise.
        from repro.runner.pool import default_workers
        workers = default_workers()
    count = max(1, min(int(workers or 1), len(workloads)))
    if count > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=count) as pool:
                futures = [pool.submit(measure_workload, wl, ways)
                           for wl in workloads]
                return [future.result() for future in futures]
        except (OSError, PermissionError, BrokenProcessPool):
            pass  # sandboxed/fork-less environments: run serially below
    return [measure_workload(wl, ways=ways) for wl in workloads]
