"""Detect-and-recover: the full Argus + SafetyNet story (paper Sec. 1).

::

    python examples/recovery_demo.py

Argus detects; a checkpoint/rollback mechanism recovers.  This demo runs
a checksum kernel under three conditions:

1. fault-free - zero rollbacks, baseline result;
2. a transient burst on the ALU result bus - several detections, each
   rolled back; the final result is *identical* to the fault-free run;
3. a permanent ALU fault - recovery keeps retrying the same checkpoint
   and finally diagnoses the error as permanent (the actionable signal
   the paper wants for hard faults).
"""

from repro.argus.recovery import RecoveringCore, UnrecoverableError
from repro.cpu import CheckedCore
from repro.faults.injector import SignalInjector
from repro.faults.model import FaultSpec
from repro.toolchain import embed_program

SOURCE = """
start:  li   r1, 64
        li   r2, 0
        la   r6, buf
loop:   mul  r3, r1, r1
        add  r2, r2, r3
        sw   r2, 0(r6)
        addi r1, r1, -1
        sfgtsi r1, 0
        bf   loop
        nop
        sw   r2, 4(r6)
        halt
        .data
buf:    .word 0, 0
"""

EXPECTED = sum(n * n for n in range(1, 65))


def run_fault_free():
    embedded = embed_program(SOURCE)
    recovering = RecoveringCore(CheckedCore(embedded, detect=True),
                                checkpoint_interval=32)
    result = recovering.run()
    value = recovering.core.load_word(embedded.program.addr_of("buf") + 4)
    print("fault-free:  result=%d, %d rollbacks, %d checkpoints"
          % (value, result.rollbacks, result.checkpoints_taken))
    assert value == EXPECTED


def run_transient_burst():
    embedded = embed_program(SOURCE)
    injector = SignalInjector(FaultSpec("ex.alu.result", 1 << 9))
    core = CheckedCore(embedded, injector=injector, detect=True)
    recovering = RecoveringCore(core, checkpoint_interval=32, max_retries=10)

    # A particle-strike burst: the fault is live for a window of
    # instructions, then gone.  Recovery replays through it.
    burst = range(100, 140)
    steps = 0
    rollbacks = 0
    while not core.halted:
        injector.enabled = steps in burst
        try:
            core.step()
        except Exception:
            rollbacks += 1
            recovering.rollback()
            continue
        recovering._maybe_checkpoint()
        steps += 1
    value = core.load_word(embedded.program.addr_of("buf") + 4)
    print("transient:   result=%d, %d rollbacks (burst survived)"
          % (value, rollbacks))
    assert value == EXPECTED
    assert rollbacks >= 1


def run_permanent():
    embedded = embed_program(SOURCE)
    injector = SignalInjector(FaultSpec("ex.alu.result", 1 << 9))
    core = CheckedCore(embedded, injector=injector, detect=True)
    injector.enable()
    recovering = RecoveringCore(core, checkpoint_interval=32, max_retries=3)
    try:
        recovering.run()
        print("permanent:   BUG - should not complete")
    except UnrecoverableError as exc:
        print("permanent:   diagnosed after %d rollbacks: %s"
              % (exc.attempts, exc.event.detail))


if __name__ == "__main__":
    run_fault_free()
    run_transient_burst()
    run_permanent()
