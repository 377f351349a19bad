"""Snapshot fidelity and checkpoint-accelerated campaign equivalence.

Two layers of guarantees:

* **Snapshot fidelity** - ``snapshot() -> mutate -> restore()``
  round-trips the complete :class:`CheckedCore` state exactly
  (architectural state, SHS file, control-flow checker, payload
  collector, watchdog, protected memory contents+parity, cache
  tag/LRU/dirty/stat state), across several workloads and both
  transient and permanent faults, and a restored core replays
  bit-identical retire records.
* **Differential classification** - a seeded campaign produces
  *identical* :class:`ExperimentResult` quadrants, per-checker
  attribution and detection latencies with checkpoints on and off, for
  every sampled workload.  This is the proof that warm-starting is a
  pure acceleration.
"""

import os
import pickle
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.cpu.batched
import repro.faults.checkpoint
from repro.cpu.checkedcore import CheckedCore
from repro.faults.campaign import Campaign
from repro.faults.checkpoint import CheckpointStore, record_checkpoints
from repro.faults.execution import masking_loop
from repro.faults.injector import SignalInjector
from repro.faults.model import PERMANENT, TRANSIENT, FaultSpec, StateFaultApplier
from repro.runner.journal import result_to_record
from repro.faults.stress import build_stress_program
from repro.toolchain import embed_program
from repro.workloads import MESA, RASTA
from repro.workloads.fuzz import generate_program

SMALL = """
start:  li   r1, 5
        li   r2, 0
        la   r6, buf
loop:   add  r2, r2, r1
        sw   r2, 0(r6)
        addi r1, r1, -1
        sfgtsi r1, 0
        bf   loop
        nop
        mul  r3, r2, r2
        sw   r3, 4(r6)
        halt
        .data
buf:    .word 0, 0
"""

_EMBEDDED = {}


def _embedded(name):
    """Build each workload's embedded program once per test session."""
    if name not in _EMBEDDED:
        builders = {
            "small": lambda: embed_program(SMALL),
            "stress": build_stress_program,
            "fuzz": lambda: embed_program(generate_program(1234)),
            "mesa": MESA.build_embedded,
            "rasta": RASTA.build_embedded,
        }
        _EMBEDDED[name] = builders[name]()
    return _EMBEDDED[name]


#: (name, steps to run before the snapshot, steps to mutate afterwards)
WORKLOADS = [
    ("small", 9, 20),
    ("stress", 300, 200),
    ("mesa", 900, 400),
    ("rasta", 700, 400),
]

#: Faults used to mutate state between snapshot and restore.
MUTATING_FAULTS = [
    (FaultSpec("state.rf.value", 1 << 7, index=3, is_state=True), TRANSIENT),
    (FaultSpec("state.rf.value", 1 << 1, index=9, is_state=True), PERMANENT),
    (FaultSpec("state.shs", 1 << 2, index=5, is_state=True), TRANSIENT),
    (FaultSpec("state.mem.word", 1 << 13, index=0, is_state=True), PERMANENT),
    (FaultSpec("ex.alu.result", 1 << 4), TRANSIENT),
    (FaultSpec("ex.op_a", 1 << 30), PERMANENT),
]


def _full_state(core):
    """Everything a snapshot claims to round-trip, as plain tuples."""
    return {
        "scalars": (core.pc, core.flag, core.cfc_flag, core.cycles,
                    core.instret, core.block_index, core.halted, core.hung,
                    core._in_delay, core._delayed_target, core._pending_term),
        "functional": core.dmem.functional_snapshot(),
        "rf": core.rf.snapshot(),
        "shs": core.shs.snapshot(),
        "cfc": core.cfc.snapshot(),
        "collector": core.collector.snapshot(),
        "watchdog": core.watchdog.snapshot(),
        "dmem": core.dmem.snapshot(),
        "mem": core.mem.snapshot(),
    }


def _run_steps(core, steps):
    done = 0
    while done < steps and not core.halted:
        core.step()
        done += 1
    return done


@pytest.mark.parametrize("name,at,extra",
                         WORKLOADS, ids=[w[0] for w in WORKLOADS])
@pytest.mark.parametrize("fault_index", range(len(MUTATING_FAULTS)))
def test_snapshot_mutate_restore_roundtrip(name, at, extra, fault_index):
    """snapshot -> inject+run -> restore is exact for every component."""
    spec, duration = MUTATING_FAULTS[fault_index]
    embedded = _embedded(name)
    injector = None if spec.is_state else SignalInjector(spec)
    core = CheckedCore(embedded, injector=injector, detect=False)
    _run_steps(core, at)
    snap = core.snapshot()
    reference = _full_state(core)

    # Mutate: apply the fault and keep executing.
    if spec.is_state:
        applier = StateFaultApplier(spec, duration)
        applier.apply(core)
        if duration == PERMANENT:
            applier.reassert(core)
    else:
        injector.enable()
    _run_steps(core, extra)
    if injector is not None:
        injector.disable()
    assert _full_state(core) != reference  # the mutation really happened

    core.restore(snap)
    assert _full_state(core) == reference


@pytest.mark.parametrize("name,at,extra",
                         WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_restored_core_replays_identically(name, at, extra):
    """A restored core retires the same records as an uninterrupted run."""
    embedded = _embedded(name)
    reference = CheckedCore(embedded, detect=True)
    _run_steps(reference, at)
    tail_reference = [reference.step() for _ in range(extra)
                      if not reference.halted]

    core = CheckedCore(embedded, detect=True)
    _run_steps(core, at)
    snap = core.snapshot()
    _run_steps(core, extra // 2)  # wander off...
    core.restore(snap)  # ...and come back

    # The same snapshot warm-starts a *fresh* core into the identical
    # state - this is precisely what the engine's sweep and lanes do.
    fresh = CheckedCore(embedded, detect=True).restore(snap)
    assert _full_state(fresh) == _full_state(core)

    tail_restored = [core.step() for _ in range(extra) if not core.halted]
    assert tail_restored == tail_reference
    tail_fresh = [fresh.step() for _ in range(extra) if not fresh.halted]
    assert tail_fresh == tail_reference


@given(at=st.integers(1, 600), fault_index=st.integers(0, len(MUTATING_FAULTS) - 1))
@settings(max_examples=25, deadline=None)
def test_snapshot_roundtrip_property(at, fault_index):
    """Property form on the stress program: any snapshot point, any fault."""
    spec, duration = MUTATING_FAULTS[fault_index]
    embedded = _embedded("stress")
    injector = None if spec.is_state else SignalInjector(spec)
    core = CheckedCore(embedded, injector=injector, detect=False)
    _run_steps(core, at)
    snap = core.snapshot()
    reference = _full_state(core)
    if spec.is_state:
        StateFaultApplier(spec, duration).apply(core)
    else:
        injector.enable()
    _run_steps(core, 64)
    core.restore(snap)
    assert _full_state(core) == reference


class TestCheckpointStore:
    def test_records_interval_boundaries(self):
        core = CheckedCore(_embedded("stress"), detect=True)
        trace = []
        store = record_checkpoints(core, interval=50, max_checkpoints=1000,
                                   trace=trace)
        assert core.halted
        assert store.steps == tuple(range(50, len(trace), 50))
        for step in store.steps:
            assert store.at(step).instret == step

    def test_nearest_picks_floor_checkpoint(self):
        core = CheckedCore(_embedded("stress"), detect=True)
        store = record_checkpoints(core, interval=100, max_checkpoints=1000)
        assert store.nearest(99) is None  # colder than the first snapshot
        assert store.nearest(100).step == 100
        assert store.nearest(199).step == 100
        assert store.nearest(10_000).step == store.steps[-1]

    @pytest.mark.parametrize("interval,bound", [(8, None), (4, 16)])
    def test_nearest_equals_a_linear_scan(self, interval, bound):
        core = CheckedCore(_embedded("stress"), detect=True)
        trace = []
        store = record_checkpoints(core, interval=interval,
                                   max_checkpoints=bound, trace=trace)
        for step in range(len(trace) + 2):
            floor = [at for at in store.steps if at <= step]
            expected = store.at(floor[-1]) if floor else None
            assert store.nearest(step) is expected

    def test_thinning_bounds_memory_and_doubles_interval(self):
        core = CheckedCore(_embedded("stress"), detect=True)
        store = record_checkpoints(core, interval=4, max_checkpoints=16)
        assert len(store) <= 16
        assert store.interval > 4
        # Survivors sit on multiples of the final interval.
        assert all(step % store.interval == 0 for step in store.steps)

    def test_masking_view_matches_live_projection(self):
        embedded = _embedded("stress")
        core = CheckedCore(embedded, detect=True)
        _run_steps(core, 128)
        assert core.snapshot().masking_view() == core.masking_view()

    def test_detection_view_matches_live_projection(self):
        embedded = _embedded("stress")
        core = CheckedCore(embedded, detect=True)
        _run_steps(core, 128)
        snapshot = core.snapshot()
        assert snapshot.detection_view() == core.detection_view()
        # Timing state is outside the view; checker state is inside it.
        core.cycles += 7
        core.block_index += 1
        core.mem.dcache.flush()
        assert snapshot.detection_view() == core.detection_view()
        core.rf.parity[5] ^= 1
        assert snapshot.detection_view() != core.detection_view()
        core.restore(snapshot)
        core.dmem.corrupt_parity(core.dmem.written_words()[0])
        assert snapshot.detection_view() != core.detection_view()
        assert snapshot.masking_view() == core.masking_view()

    def test_snapshot_pickles_and_has_no_dict(self):
        # A slotted namedtuple: it pickles without custom hooks.
        core = CheckedCore(_embedded("stress"), detect=True)
        _run_steps(core, 77)
        snap = core.snapshot()
        assert not hasattr(snap, "__dict__")
        again = pickle.loads(pickle.dumps(snap))
        assert again == snap
        assert _full_state(CheckedCore(_embedded("stress")).restore(again)) \
            == _full_state(core)

    def test_rejects_bad_parameters(self):
        # 0/None mean "use the default"; negatives are rejected.
        assert CheckpointStore(interval=0, max_checkpoints=0).interval > 0
        with pytest.raises(ValueError):
            CheckpointStore(interval=-4)
        with pytest.raises(ValueError):
            CheckpointStore(max_checkpoints=-1)


def test_cpu_package_stands_alone():
    """The core snapshots and restores itself without loading the fault
    campaign: ``repro.cpu`` imports nothing from ``repro.faults``."""
    script = textwrap.dedent("""
        import sys
        from repro.cpu import CheckedCore
        from repro.toolchain import embed_program
        core = CheckedCore(embed_program(
            "start:  li r1, 3\\n        addi r1, r1, 1\\n        halt\\n"))
        core.step()
        snap = core.snapshot()
        core.step()
        core.restore(snap)
        assert core.instret == 1 and core.snapshot() == snap
        assert "repro.faults" not in sys.modules, sorted(
            name for name in sys.modules if name.startswith("repro.faults"))
    """)
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=False,
                            env=dict(os.environ, PYTHONPATH=source_root))
    assert result.returncode == 0, result.stderr


def _result_key(result):
    return (result.quadrant, result.checker, result.detail, result.inject_at,
            result.activated_at, result.hung, result.latency_instructions,
            result.latency_cycles, result.latency_blocks)


DIFFERENTIAL_PROGRAMS = ["small", "stress", "fuzz"]


class TestDifferentialClassification:
    """Checkpoints on vs off: provably identical campaign results."""

    @pytest.mark.parametrize("name", DIFFERENTIAL_PROGRAMS)
    @pytest.mark.parametrize("duration", (TRANSIENT, PERMANENT))
    def test_same_seed_same_results(self, name, duration, monkeypatch):
        # Checkpoints every 32 instructions, half the default spacing.
        monkeypatch.setattr(repro.faults.checkpoint, "DEFAULT_INTERVAL", 32)
        warm = Campaign(embedded=_embedded(name), seed=41,
                        use_checkpoints=True)
        cold = Campaign(embedded=_embedded(name), seed=41,
                        use_checkpoints=False)
        summary_warm = warm.run(experiments=40, duration=duration)
        summary_cold = cold.run(experiments=40, duration=duration)

        assert warm.checkpoints().interval == 32
        assert cold.checkpoints() is None
        # Identical golden references first (same trace either way).
        assert len(warm.golden_trace()) == len(cold.golden_trace())
        assert warm.golden_trace() == cold.golden_trace()
        # Quadrants, attribution, and per-experiment detail + latencies.
        assert summary_warm.fractions() == summary_cold.fractions()
        assert summary_warm.checker_counts == summary_cold.checker_counts
        assert ([_result_key(r) for r in summary_warm.results]
                == [_result_key(r) for r in summary_cold.results])

    def test_planned_engine_matches_serial_with_checkpoints(self):
        """The planned (pool) path propagates the checkpoint config and
        still produces bit-identical summaries."""
        warm = Campaign(seed=11, use_checkpoints=True)
        cold = Campaign(seed=11, use_checkpoints=False)
        summary_warm = warm.run(experiments=24, duration=TRANSIENT,
                                workers=2, keep_results=False)
        summary_cold = cold.run(experiments=24, duration=TRANSIENT,
                                workers=2, keep_results=False)
        assert summary_warm.fractions() == summary_cold.fractions()
        assert summary_warm.checker_counts == summary_cold.checker_counts

    def test_explicit_inject_points_cover_cold_and_warm_starts(self):
        """inject_at below the first checkpoint sweeps from a cold start;
        far beyond it restores - both classify identically."""
        warm = Campaign(seed=5, use_checkpoints=True)
        cold = Campaign(seed=5, use_checkpoints=False)
        spec = FaultSpec("ex.alu.result", 1 << 3)
        for inject_at in (0, 5, 63, 64, 65, 400, 600):
            a = warm.run_experiment(spec, TRANSIENT, inject_at=inject_at)
            b = cold.run_experiment(spec, TRANSIENT, inject_at=inject_at)
            assert _result_key(a) == _result_key(b), inject_at


class TestReconvergence:
    def test_masked_state_transient_early_exits(self, monkeypatch):
        """A link-register transient (r9, which no timeline rule covers)
        is an engine masking lane simulated from its injection step.
        Once the flip is overwritten, the lane re-matches the golden
        masking view at a checkpoint boundary and exits there instead of
        replaying to halt - and still classifies like the cold
        reference."""
        lanes = []

        def spy(core, injector, schedule, golden, golden_final, limit, step,
                **kwargs):
            outcome = masking_loop(core, injector, schedule, golden,
                                   golden_final, limit, step, **kwargs)
            lanes.append((step, core.instret, outcome))
            return outcome

        monkeypatch.setattr(repro.cpu.batched, "masking_loop", spy)
        campaign = Campaign(seed=3)
        spec = FaultSpec("state.rf.value", 1 << 4, index=9, is_state=True)
        verdict = campaign.timeline().verdict(spec, TRANSIENT, 40)
        assert verdict.outcomes()[0] is None and verdict.start == 40
        got = campaign.run_experiment(spec, TRANSIENT, inject_at=40)

        cold = Campaign(seed=3, use_checkpoints=False)
        want = cold.run_experiment(spec, TRANSIENT, inject_at=40)
        assert result_to_record(got) == result_to_record(want)
        assert got.masked
        (start, stop, outcome), = lanes
        assert outcome == (True, None, False)
        assert stop - start < campaign.golden_length - start
        assert stop % campaign.checkpoints().interval == 0

    def test_campaign_escape_hatch_disables_stores(self):
        campaign = Campaign(seed=3, use_checkpoints=False)
        campaign.golden_trace()
        assert campaign._checkpoints is None


class TestCli:
    def test_campaign_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign", "--no-checkpoints"])
        assert args.no_checkpoints is True
        args = build_parser().parse_args(["campaign"])
        assert args.no_checkpoints is False
