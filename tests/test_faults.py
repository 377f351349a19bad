"""Unit tests for fault specs, injectors, state appliers and the
injection-point population."""

import random

import pytest

from repro.cpu import CheckedCore
from repro.faults.campaign import Campaign
from repro.faults.injector import SignalInjector
from repro.faults.model import PERMANENT, TRANSIENT, FaultSpec, StateFaultApplier
from repro.faults.points import (
    ARGUS_COMPONENTS,
    BASELINE_COMPONENTS,
    GATE_INVENTORY,
    argus_weight_fraction,
    build_point_population,
    population_summary,
    sample_points,
)
from repro.toolchain import embed_program

SMALL = """
start:  li   r1, 5
        la   r2, buf
        sw   r1, 0(r2)
        halt
        .data
buf:    .word 0
"""


class TestSignalInjector:
    def test_matching_signal_flipped(self):
        injector = SignalInjector(FaultSpec("ex.alu.result", 0b100))
        injector.enable()
        assert injector.tap("ex.alu.result", 0) == 4
        assert injector.fired == 1

    def test_non_matching_signal_untouched(self):
        injector = SignalInjector(FaultSpec("ex.alu.result", 1))
        injector.enable()
        assert injector.tap("ex.op_a", 7) == 7
        assert injector.fired == 0

    def test_disabled_injector_is_identity(self):
        injector = SignalInjector(FaultSpec("ex.alu.result", 1))
        assert injector.tap("ex.alu.result", 7) == 7

    def test_index_qualifier(self):
        injector = SignalInjector(FaultSpec("ex.op_a", 1, index=5))
        injector.enable()
        assert injector.tap("ex.op_a", 0, index=4) == 0
        assert injector.tap("ex.op_a", 0, index=5) == 1

    def test_state_spec_rejected(self):
        with pytest.raises(ValueError):
            SignalInjector(FaultSpec("state.rf.value", 1, index=3, is_state=True))


class TestStateFaultApplier:
    def _core(self):
        return CheckedCore(embed_program(SMALL), detect=False)

    def test_rf_value_flip(self):
        core = self._core()
        core.step()  # r1 = 5
        applier = StateFaultApplier(
            FaultSpec("state.rf.value", 1 << 1, index=1, is_state=True), TRANSIENT)
        applier.apply(core)
        assert core.rf.values[1] == 7

    def test_rf_r0_protected(self):
        core = self._core()
        applier = StateFaultApplier(
            FaultSpec("state.rf.value", 1, index=0, is_state=True), TRANSIENT)
        applier.apply(core)
        assert core.rf.values[0] == 0

    def test_permanent_reasserts_stuck_value(self):
        core = self._core()
        core.step()
        applier = StateFaultApplier(
            FaultSpec("state.rf.value", 1 << 1, index=1, is_state=True), PERMANENT)
        applier.apply(core)
        core.rf.values[1] = 5  # a rewrite "repairs" the bit...
        applier.reassert(core)  # ...and the stuck-at forces it again
        assert core.rf.values[1] == 7

    def test_transient_does_not_reassert(self):
        core = self._core()
        core.step()
        applier = StateFaultApplier(
            FaultSpec("state.rf.value", 1 << 1, index=1, is_state=True), TRANSIENT)
        applier.apply(core)
        core.rf.values[1] = 5
        applier.reassert(core)
        assert core.rf.values[1] == 5

    def test_pc_flip(self):
        core = self._core()
        applier = StateFaultApplier(
            FaultSpec("state.pc", 1 << 3, is_state=True), TRANSIENT)
        before = core.pc
        applier.apply(core)
        assert core.pc == before ^ 8

    def test_flag_flip(self):
        core = self._core()
        applier = StateFaultApplier(
            FaultSpec("state.flag", 1, is_state=True), TRANSIENT)
        applier.apply(core)
        assert core.flag == 1

    def test_shs_flip(self):
        core = self._core()
        applier = StateFaultApplier(
            FaultSpec("state.shs", 1 << 2, index=7, is_state=True), TRANSIENT)
        before = core.shs.values[7]
        applier.apply(core)
        assert core.shs.values[7] == before ^ 4

    def test_mem_word_flip_resolves_to_written_word(self):
        core = self._core()
        core.run()  # performs the store
        applier = StateFaultApplier(
            FaultSpec("state.mem.word", 1, index=0, is_state=True), TRANSIENT)
        applier.apply(core)
        corrupted = [addr for addr in core.dmem.written_words()
                     if not core.dmem.load_word(addr).ok]
        assert len(corrupted) == 1

    def test_mem_parity_stuck_at_overrides_a_rewrite(self):
        core = self._core()
        core.run()
        applier = StateFaultApplier(
            FaultSpec("state.mem.parity", 1, index=0, is_state=True), PERMANENT)
        applier.apply(core)
        addr = core.dmem.written_words()[0]
        assert not core.dmem.load_word(addr).ok
        core.dmem.store_word(addr, core.dmem.peek_word(addr))  # fresh parity
        assert core.dmem.load_word(addr).ok
        applier.reassert(core)  # the stuck cell wins again
        assert not core.dmem.load_word(addr).ok

    def test_signal_spec_rejected(self):
        with pytest.raises(ValueError):
            StateFaultApplier(FaultSpec("ex.alu.result", 1), TRANSIENT)

    def test_unknown_target_rejected(self):
        applier = StateFaultApplier(
            FaultSpec("state.bogus", 1, is_state=True), TRANSIENT)
        with pytest.raises(ValueError):
            applier.apply(self._core())


class TestPointPopulation:
    def test_population_nonempty_and_weighted(self):
        points = build_point_population()
        assert len(points) > 2000
        assert all(point.weight > 0 for point in points)

    def test_component_weights_match_inventory_shape(self):
        """Each component's live + inert weight stays proportional to its
        gate count (the sampling analogue of uniform gate sampling)."""
        totals = population_summary()
        for component in ("regfile", "alu", "muldiv"):
            assert totals[component] > GATE_INVENTORY[component]  # live+inert

    def test_argus_fraction_matches_paper_overhead(self):
        assert 0.12 < argus_weight_fraction() < 0.22

    def test_double_bit_points_present_and_rare(self):
        points = build_point_population()
        doubles = [p for p in points if p.double_bit]
        assert doubles
        double_weight = sum(p.weight for p in doubles)
        total_weight = sum(p.weight for p in points)
        assert double_weight / total_weight < 0.02

    def test_double_bits_excludable(self):
        points = build_point_population(include_double_bits=False)
        assert not any(p.double_bit for p in points)

    def test_inert_points_represent_logic_masking(self):
        points = build_point_population()
        inert_weight = sum(p.weight for p in points
                           if p.spec.target.startswith("inert."))
        total = sum(p.weight for p in points)
        assert 0.25 < inert_weight / total < 0.45

    def test_pc_signals_skip_nonexistent_low_bits(self):
        points = build_point_population()
        for point in points:
            if point.spec.target in ("if.pc", "state.pc", "ctl.btarget"):
                assert point.spec.mask & 0b11 == 0

    def test_sampling_is_deterministic_per_seed(self):
        points = build_point_population()
        a = sample_points(points, 50, random.Random(3))
        b = sample_points(points, 50, random.Random(3))
        assert [p.spec for p in a] == [p.spec for p in b]

    def test_population_built_once_and_shared(self):
        embedded = embed_program(SMALL)
        first = Campaign(embedded=embedded, seed=1).points
        assert isinstance(first, tuple)
        assert Campaign(embedded=embedded, seed=2).points is first
        singles = build_point_population(include_double_bits=False)
        assert singles is not first
        assert singles is build_point_population(include_double_bits=False)

    def test_inventory_totals_near_paper_40k(self):
        total = sum(GATE_INVENTORY.values())
        assert 35000 < total < 45000

    def test_component_partition(self):
        assert set(BASELINE_COMPONENTS) | set(ARGUS_COMPONENTS) == set(GATE_INVENTORY)
        assert not set(BASELINE_COMPONENTS) & set(ARGUS_COMPONENTS)
