"""Behavioural tests for the checked core: equivalence, tagging, and
directed fault detection for every checker class."""

import pytest

from repro.argus.errors import (
    ArgusError,
    ComputationCheckError,
    ControlFlowError,
    DataflowParityError,
    MemoryCheckError,
    WatchdogError,
)
from repro.argus.watchdog import Watchdog
from repro.cpu import CheckedCore, FastCore
from repro.cpu.fastcore import Timing
from repro.faults.injector import SignalInjector
from repro.faults.model import FaultSpec
from repro.faults.stress import build_stress_program
from repro.isa import registers
from repro.mem.checked import CheckedMemory
from repro.mem.hierarchy import MemoryConfig
from repro.toolchain import embed_program
from repro.workloads import WORKLOADS

LOOP = """
start:  li   r1, 4
        li   r2, 0
        la   r6, buf
loop:   add  r2, r2, r1
        sw   r2, 0(r6)
        lwz  r3, 0(r6)
        addi r1, r1, -1
        sfgtsi r1, 0
        bf   loop
        nop
        mul  r4, r2, r3
        div  r5, r4, r2
        halt
        .data
buf:    .word 0
"""

CALL = """
start:  jal  fn
        nop
        sw   r2, 0(r0)
        halt
fn:     li   r2, 77
        ret
        nop
"""


def detect_with(source, spec, inject_at=0, max_steps=5000):
    """Run a checked core with one signal fault; returns the error or None."""
    embedded = embed_program(source)
    injector = SignalInjector(spec)
    core = CheckedCore(embedded, injector=injector, detect=True)
    step = 0
    try:
        while not core.halted and step < max_steps:
            if step == inject_at:
                injector.enable()
            core.step()
            step += 1
    except ArgusError as exc:
        return exc
    return None


class TestCleanExecution:
    def test_no_false_positives_on_loop(self):
        embedded = embed_program(LOOP)
        core = CheckedCore(embedded, detect=True)
        result = core.run()
        assert result.halted
        assert core.cfc.blocks_checked == result.blocks_checked > 0

    def test_architectural_equivalence_with_fast_core(self):
        embedded = embed_program(LOOP)
        fast = FastCore(embedded.program)
        fast.run()
        checked = CheckedCore(embedded, detect=True)
        checked.run()
        assert checked.rf.values[1:9] == fast.regs[1:9]
        assert checked.rf.values[10:] == fast.regs[10:]
        assert checked.load_word(embedded.program.addr_of("buf")) == \
            fast.load_word(embedded.program.addr_of("buf"))

    def test_timing_equivalence_with_fast_core(self):
        """Argus adds no stalls: cycle counts of the two cores agree."""
        embedded = embed_program(LOOP)
        fast = FastCore(embedded.program)
        fast_result = fast.run()
        checked = CheckedCore(embedded, detect=True)
        checked_result = checked.run()
        assert checked_result.cycles == fast_result.cycles
        assert checked_result.instructions == fast_result.instructions

    def test_detect_false_skips_checkers_same_architecture(self):
        embedded = embed_program(LOOP)
        a = CheckedCore(embedded, detect=True)
        a.run()
        b = CheckedCore(embedded, detect=False)
        b.run()
        assert a.rf.values == b.rf.values
        assert a.dmem.functional_snapshot() == b.dmem.functional_snapshot()

    def test_link_register_carries_dcs_tag(self):
        embedded = embed_program(CALL)
        core = CheckedCore(embedded, detect=True)
        core.run()
        link = core.rf.values[registers.LINK_REG]
        return_block = None
        for block in embedded.blocks.values():
            if block.kind == "call":
                return_block = embedded.blocks[block.end]
        assert registers.pointer_dcs(link) == return_block.dcs
        assert registers.pointer_address(link) == return_block.start


class TestDirectedFaults:
    def test_alu_result_fault_caught_by_computation_checker(self):
        error = detect_with(LOOP, FaultSpec("ex.alu.result", 1 << 7))
        assert isinstance(error, ComputationCheckError)

    def test_operand_fault_caught_by_parity(self):
        error = detect_with(LOOP, FaultSpec("ex.op_a", 1 << 3))
        assert isinstance(error, DataflowParityError)

    def test_register_cell_fault_caught_by_parity(self):
        embedded = embed_program(LOOP)
        core = CheckedCore(embedded, detect=True)
        core.step()  # r1 written
        core.rf.corrupt_value(1, 9)
        with pytest.raises(DataflowParityError):
            core.run()

    def test_parity_bit_fault_is_false_alarm(self):
        embedded = embed_program(LOOP)
        core = CheckedCore(embedded, detect=True)
        core.step()
        core.rf.corrupt_parity(1)
        with pytest.raises(DataflowParityError):
            core.run()

    def test_branch_target_fault_caught_by_dcs(self):
        error = detect_with(LOOP, FaultSpec("ctl.btarget", 1 << 4))
        assert isinstance(error, ControlFlowError)

    def test_pc_fault_caught_by_dcs(self):
        error = detect_with(LOOP, FaultSpec("if.pc", 1 << 3), inject_at=2)
        assert isinstance(error, ControlFlowError)

    def test_flag_fault_causes_wrong_way_detection(self):
        """The architectural flag diverging from the checker's verified
        copy sends control the wrong way; the DCS comparison catches it."""
        error = detect_with(LOOP, FaultSpec("ctl.flag", 1))
        assert isinstance(error, ControlFlowError)

    def test_multiplier_fault_caught_by_modulo_checker(self):
        error = detect_with(LOOP, FaultSpec("ex.mul.product", 1 << 40))
        assert isinstance(error, ComputationCheckError)

    def test_divider_fault_caught_by_modulo_checker(self):
        error = detect_with(LOOP, FaultSpec("ex.div.quotient", 1 << 2))
        assert isinstance(error, ComputationCheckError)

    def test_load_address_fault_caught_by_adder_checker(self):
        error = detect_with(LOOP, FaultSpec("lsu.addr", 1 << 5))
        assert isinstance(error, ComputationCheckError)

    def test_wrong_word_load_caught_by_memory_checker(self):
        error = detect_with(LOOP, FaultSpec("lsu.mem_addr", 1 << 4))
        assert isinstance(error, MemoryCheckError)

    def test_store_data_fault_caught_at_next_load(self):
        error = detect_with(LOOP, FaultSpec("lsu.store_data", 1 << 11))
        assert isinstance(error, MemoryCheckError)

    def test_hang_fault_caught_by_watchdog(self):
        error = detect_with(LOOP, FaultSpec("ctl.hang", 1), inject_at=5)
        assert isinstance(error, WatchdogError)

    def test_writeback_port_fault_caught_by_dcs(self):
        """Wrong-destination writes move the SHS with the data; the
        permuted DCS fold catches the changed assignment."""
        error = detect_with(LOOP, FaultSpec("wb.rd", 0b00010), inject_at=1)
        assert isinstance(error, (ControlFlowError, DataflowParityError))

    def test_instruction_copy_disagreement_cross_check(self):
        error = detect_with(LOOP, FaultSpec("id.word.fu", 1 << 26), inject_at=3)
        assert isinstance(error, ComputationCheckError)

    def test_checker_internal_fault_is_detected_not_silent(self):
        error = detect_with(LOOP, FaultSpec("chk.adder.sum", 1 << 1))
        assert isinstance(error, ComputationCheckError)

    def test_shs_bus_fault_caught_at_block_end(self):
        error = detect_with(LOOP, FaultSpec("ex.shs_a", 1))
        assert isinstance(error, ControlFlowError)

    def test_cfc_expected_latch_fault_detected(self):
        embedded = embed_program(LOOP)
        core = CheckedCore(embedded, detect=True)
        core.step()
        core.cfc.corrupt_expected(2)
        with pytest.raises(ControlFlowError):
            core.run()

    def test_detection_event_metadata(self):
        error = detect_with(LOOP, FaultSpec("ex.alu.result", 1), inject_at=3)
        event = error.event
        assert event.checker == "computation"
        assert event.cycle > 0
        assert event.instret > 3


class TestDetectDisabled:
    def test_faults_flow_without_detection(self):
        """With checkers off, a permanent datapath fault corrupts state
        silently; it may halt with wrong results or livelock (the loop
        counter itself can be corrupted) - but never raises an ArgusError."""
        embedded = embed_program(LOOP)
        spec = FaultSpec("ex.alu.result", 1 << 0)
        injector = SignalInjector(spec)
        core = CheckedCore(embedded, injector=injector, detect=False)
        injector.enable()
        try:
            core.run(max_instructions=10_000)
        except RuntimeError:
            pass  # livelocked on the corrupted loop counter
        assert injector.fired > 0

    def test_hang_with_detect_disabled_reports_hung(self):
        embedded = embed_program(LOOP)
        injector = SignalInjector(FaultSpec("ctl.hang", 1))
        core = CheckedCore(embedded, injector=injector, detect=False)
        injector.enable()
        assert core.step() is None
        assert core.hung


class TestCorruptedDecodeRegression:
    def test_undecodable_checker_copy_on_branch_detect_off(self):
        """Regression: a fault that makes the checker's instruction copy
        undecodable while the FU copy is a conditional branch must not
        crash the masking (detect=False) run."""
        embedded = embed_program(LOOP)
        # Corrupt the chk copy into an invalid primary opcode whenever a
        # word with the BF primary opcode passes through.
        injector = SignalInjector(FaultSpec("id.word.chk", 0x3F << 26))
        core = CheckedCore(embedded, injector=injector, detect=False)
        injector.enable()
        try:
            core.run(max_instructions=10_000)
        except RuntimeError:
            pass  # livelock is acceptable; crashing is not

    def test_undecodable_fu_copy_executes_as_nop(self):
        embedded = embed_program(LOOP)
        injector = SignalInjector(FaultSpec("id.word.fu", 0x3F << 26))
        core = CheckedCore(embedded, injector=injector, detect=True)
        injector.enable()
        with pytest.raises(ArgusError):
            core.run(max_instructions=10_000)


class TestCheckerSubsets:
    def test_default_enables_all(self):
        core = CheckedCore(embed_program(LOOP))
        assert core.enabled_checkers == set(CheckedCore.CHECKER_CATEGORIES)

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            CheckedCore(embed_program(LOOP), checkers=["bogus"])

    def test_detect_false_disables_everything(self):
        core = CheckedCore(embed_program(LOOP), detect=False,
                           checkers=["parity"])
        assert core.enabled_checkers == set()

    def test_disabled_parity_misses_operand_fault(self):
        embedded = embed_program(LOOP)
        injector = SignalInjector(FaultSpec("ex.op_a", 1 << 3))
        core = CheckedCore(embedded, injector=injector, detect=True,
                           checkers=["computation", "dcs", "memory",
                                     "watchdog"])
        injector.enable()
        try:
            core.run(max_instructions=5000)
        except DataflowParityError:  # pragma: no cover - must not happen
            pytest.fail("parity fired while disabled")
        except ArgusError:
            pass  # another checker may legitimately catch the damage

    def test_disabled_computation_falls_back_to_other_checkers(self):
        """Defense in depth: an ALU fault escapes the (disabled)
        computation checker but corrupts state that parity or the DCS
        eventually flags - or it halts with a wrong result."""
        embedded = embed_program(LOOP)
        injector = SignalInjector(FaultSpec("ex.alu.result", 1))
        core = CheckedCore(embedded, injector=injector, detect=True,
                           checkers=["parity", "dcs", "memory", "watchdog"])
        injector.enable()
        try:
            core.run(max_instructions=10_000)
        except ComputationCheckError:  # pragma: no cover
            pytest.fail("computation checker fired while disabled")
        except (ArgusError, RuntimeError):
            pass

    def test_subset_core_still_clean_on_good_runs(self):
        for subset in (["parity"], ["dcs"], ["computation", "memory"]):
            core = CheckedCore(embed_program(LOOP), checkers=subset)
            assert core.run().halted


def _preload_word_by_word(program):
    """The per-word loader loop every core ran before the preloaded
    image was shared, kept as its specification."""
    dmem = CheckedMemory()
    addr = program.text_base
    for word in program.words:
        dmem.store_word(addr, word)
        addr += 4
    data = program.data
    base = program.data_base
    full = len(data) & ~3
    for off in range(0, full, 4):
        value = int.from_bytes(data[off:off + 4], "little")
        if value:
            dmem.store_word(base + off, value)
    if full < len(data):
        tail = bytes(data[full:]) + b"\0" * (4 - (len(data) - full))
        value = int.from_bytes(tail, "little")
        if value:
            dmem.store_word(base + full, value)
    return dmem


class TestPreloadedMemory:
    """Every core over a binary starts from one shared, copy-on-write
    image of its protected memory."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_image_matches_word_loop(self, name):
        embedded = WORKLOADS[name].build_embedded()
        core = CheckedCore(embedded)
        assert (CheckedMemory.flat_snapshot(core.dmem.snapshot())
                == CheckedMemory.flat_snapshot(
                    _preload_word_by_word(embedded.program).snapshot()))

    def test_cores_do_not_see_each_others_writes(self):
        embedded = embed_program(LOOP)
        first, second = CheckedCore(embedded), CheckedCore(embedded)
        buf = embedded.program.addr_of("buf")
        text = embedded.program.text_base
        first.dmem.store_word(buf, 0xDEADBEEF)
        second.dmem.corrupt_stored_bit(text, 3)
        assert first.load_word(buf) == 0xDEADBEEF
        assert second.load_word(buf) == 0
        assert first.dmem.load_word(text).ok
        assert not second.dmem.load_word(text).ok
        assert CheckedCore(embedded).run().halted

    def test_later_image_changes_reach_new_cores(self):
        embedded = embed_program(LOOP)
        program = embedded.program
        buf = program.addr_of("buf")
        assert CheckedCore(embedded).load_word(buf) == 0
        offset = buf - program.data_base
        program.data[offset:offset + 4] = (77).to_bytes(4, "little")
        assert CheckedCore(embedded).load_word(buf) == 77
        program.set_word(program.text_base, program.words[0] ^ 1)
        core = CheckedCore(embedded)
        assert core.load_word(program.text_base) == program.words[0]
        assert (CheckedMemory.flat_snapshot(core.dmem.snapshot())
                == CheckedMemory.flat_snapshot(
                    _preload_word_by_word(program).snapshot()))


class TestStallBound:
    """No instruction stalls as long as the watchdog's threshold, so the
    caches only time a run: the premise on which
    :meth:`CoreSnapshot.detection_view
    <repro.cpu.checkedcore.CoreSnapshot.detection_view>` leaves them
    out."""

    @staticmethod
    def _worst_stall(config, timing):
        """An I-cache miss plus the largest of a D-cache miss with
        write-back, a divide and a multiply."""
        icache, dcache = config.icache, config.dcache
        fetch = icache.hit_cycles + icache.miss_penalty - 1
        data = (dcache.hit_cycles + dcache.miss_penalty
                + dcache.writeback_penalty - 1)
        return fetch + max(data, timing.div_extra, timing.mul_extra)

    def test_worst_stall_is_below_the_watchdog_threshold(self):
        bound = self._worst_stall(MemoryConfig.paper(), Timing())
        assert bound == 52
        assert bound < Watchdog().threshold

    def test_golden_run_stays_within_the_bound(self):
        bound = self._worst_stall(MemoryConfig.paper(), Timing())
        core = CheckedCore(build_stress_program(), detect=True)
        worst = 0
        while not core.halted:
            before = core.cycles
            core.step()
            worst = max(worst, core.cycles - before - 1)
        assert 0 < worst <= bound
