"""Tests for checkpoint/rollback recovery (the SafetyNet companion)."""

import pytest

from repro.argus.recovery import RecoveringCore, UnrecoverableError
from repro.cpu import CheckedCore, CoreSnapshot
from repro.faults.injector import SignalInjector
from repro.faults.model import FaultSpec
from repro.toolchain import embed_program

PROGRAM = """
start:  li   r1, 20
        li   r2, 0
        la   r6, buf
loop:   add  r2, r2, r1
        sw   r2, 0(r6)
        lwz  r3, 0(r6)
        addi r1, r1, -1
        sfgtsi r1, 0
        bf   loop
        nop
        sw   r2, 4(r6)
        halt
        .data
buf:    .word 0, 0
"""

EXPECTED_SUM = sum(range(1, 21))


def _fields(core):
    """The core's snapshot fields by name, memory in per-word form."""
    return dict(zip(CoreSnapshot._fields, core.snapshot().flat()))


class TestRollback:
    @staticmethod
    def _past_second_checkpoint(extra_steps):
        """A recovering core stepped to its second checkpoint (returning
        that state's fields) and then ``extra_steps`` further."""
        core = CheckedCore(embed_program(PROGRAM), detect=True)
        recovering = RecoveringCore(core, checkpoint_interval=8)
        while recovering.checkpoints_taken < 2:
            core.step()
            recovering._maybe_checkpoint()
        checkpoint = _fields(core)
        records = [core.step() for _ in range(extra_steps)]
        return recovering, checkpoint, records

    def test_restores_all_but_what_runs_on(self):
        """The core's state equals the checkpoint's except the cycle
        count, the caches and the CFC's block count, which keep their
        values from just before the rollback, and the watchdog, which
        restarts."""
        recovering, checkpoint, _ = self._past_second_checkpoint(13)
        core = recovering.core
        core.watchdog.counter, core.watchdog.fired = 5, True
        before = _fields(core)
        for name in ("cycles", "mem", "cfc"):
            assert before[name] != checkpoint[name], name

        assert recovering.rollback() is core
        after = _fields(core)
        assert after["cycles"] == before["cycles"]
        assert after["mem"] == before["mem"]
        assert core.cfc.snapshot() == (checkpoint["cfc"][0], before["cfc"][1])
        assert after["watchdog"] == (0, False)
        run_on = {"cycles", "mem", "cfc", "watchdog"}
        for name in CoreSnapshot._fields:
            if name not in run_on:
                assert after[name] == checkpoint[name], name

    def test_replays_the_same_records(self):
        recovering, _, records = self._past_second_checkpoint(13)
        recovering.rollback()
        assert [recovering.core.step() for _ in records] == records


class TestRecoveringCore:
    def test_clean_run_no_rollbacks(self):
        embedded = embed_program(PROGRAM)
        recovering = RecoveringCore(CheckedCore(embedded, detect=True),
                                    checkpoint_interval=16)
        result = recovering.run()
        assert result.halted
        assert result.rollbacks == 0
        assert result.checkpoints_taken >= 1

    def test_transient_error_recovered_with_correct_result(self):
        """A transient fault costs rollbacks but the program still
        produces the fault-free answer - the paper's whole premise."""
        embedded = embed_program(PROGRAM)
        injector = SignalInjector(FaultSpec("ex.alu.result", 1 << 6))
        core = CheckedCore(embedded, injector=injector, detect=True)
        recovering = RecoveringCore(core, checkpoint_interval=8)

        # Drive a transient: enable the fault mid-run, disable it after
        # the first detection (the upset has passed).
        steps = 0
        while not core.halted:
            if steps == 30:
                injector.enable()
            try:
                core.step()
            except Exception:
                injector.disable()
                recovering.rollbacks += 1
                recovering.rollback()
                continue
            recovering._maybe_checkpoint()
            steps += 1
        assert recovering.rollbacks >= 1
        assert core.load_word(embedded.program.addr_of("buf") + 4) == EXPECTED_SUM

    def test_permanent_error_declared_unrecoverable(self):
        embedded = embed_program(PROGRAM)
        injector = SignalInjector(FaultSpec("ex.alu.result", 1 << 6))
        core = CheckedCore(embedded, injector=injector, detect=True)
        injector.enable()
        recovering = RecoveringCore(core, checkpoint_interval=8, max_retries=3)
        with pytest.raises(UnrecoverableError) as err:
            recovering.run()
        assert err.value.attempts == 4
        assert recovering.rollbacks == 4

    def test_detected_masked_error_recovery_is_transparent(self):
        """A DME (fault in checker hardware) triggers rollbacks; once it
        clears, execution completes with the right result - 'DMEs only
        affect performance' (Sec. 4.1.2)."""
        embedded = embed_program(PROGRAM)
        injector = SignalInjector(FaultSpec("chk.adder.sum", 1))
        core = CheckedCore(embedded, injector=injector, detect=True)
        recovering = RecoveringCore(core, checkpoint_interval=8, max_retries=5)
        injector.enable()
        try:
            recovering.run(max_instructions=10_000)
        except UnrecoverableError:
            injector.disable()
            recovering.rollback()
            result = recovering.run()
            assert result.halted
        assert core.load_word(embedded.program.addr_of("buf") + 4) == EXPECTED_SUM

    def test_bad_interval_rejected(self):
        embedded = embed_program(PROGRAM)
        with pytest.raises(ValueError):
            RecoveringCore(CheckedCore(embedded), checkpoint_interval=0)
