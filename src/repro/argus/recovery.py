"""Backward error recovery (paper Sec. 1 / Sec. 4.4).

Argus is a *detection* scheme; the paper pairs it with SafetyNet-style
checkpoint recovery [27]: "Argus-1's error detection hardware does not
cause any pipeline stalls or delay instruction retirement, because
Argus-1 is designed to invoke backward error recovery once an error is
detected."  This module supplies that companion mechanism:

* :class:`Checkpoint` - a full architectural + checker-state snapshot of
  a :class:`~repro.cpu.checkedcore.CheckedCore`;
* :class:`RecoveringCore` - runs a checked core, checkpointing at basic-
  block boundaries (where Appendix B guarantees the state is error-free:
  a corrupt block would have failed its DCS comparison), and rolling
  back on any detection.  A transient error costs one rollback; an
  error that keeps recurring at the same point is diagnosed as permanent
  (the actionable signal the paper wants from detected permanent
  errors).

Protected memory is checkpointed as one
:meth:`~repro.mem.checked.CheckedMemory.snapshot`, whose pages the core
shares copy-on-write until it writes them, so a checkpoint costs O(pages).
Cache *timing* state is deliberately not checkpointed - it affects only
cycle counts, never correctness, exactly like a real machine whose cache
contents survive a recovery with at most different hit/miss behaviour.
"""

from dataclasses import dataclass, field

from repro.argus.errors import ArgusError


@dataclass
class Checkpoint:
    """Architectural + checker state at a verified block boundary."""

    pc: int
    flag: int
    cfc_flag: int
    regs: list
    parity: list
    shs: list
    cfc_expected: object
    dmem: tuple  # CheckedMemory.snapshot()
    in_delay: bool
    delayed_target: int
    pending_term: object
    collector_bits: list
    instret: int
    cycles: int
    block_index: int

    @classmethod
    def capture(cls, core):
        return cls(
            pc=core.pc,
            flag=core.flag,
            cfc_flag=core.cfc_flag,
            regs=list(core.rf.values),
            parity=list(core.rf.parity),
            shs=list(core.shs.values),
            cfc_expected=core.cfc.expected,
            dmem=core.dmem.snapshot(),
            in_delay=core._in_delay,
            delayed_target=core._delayed_target,
            pending_term=core._pending_term,
            collector_bits=list(core.collector._bits),
            instret=core.instret,
            cycles=core.cycles,
            block_index=core.block_index,
        )

    def restore(self, core):
        core.pc = self.pc
        core.flag = self.flag
        core.cfc_flag = self.cfc_flag
        core.rf.values[:] = self.regs
        core.rf.parity[:] = self.parity
        core.shs.values[:] = self.shs
        core.cfc.expected = self.cfc_expected
        core.dmem.restore(self.dmem)
        core._in_delay = self.in_delay
        core._delayed_target = self.delayed_target
        core._pending_term = self.pending_term
        core.collector._bits = list(self.collector_bits)
        core.instret = self.instret
        core.block_index = self.block_index
        core.watchdog.reset()
        core.halted = False
        core.hung = False


class UnrecoverableError(Exception):
    """The same detection recurred past the retry budget: a permanent
    fault that backward recovery alone cannot mask."""

    def __init__(self, event, attempts):
        super().__init__(
            "error recurs after %d rollbacks (permanent fault): %s"
            % (attempts, event))
        self.event = event
        self.attempts = attempts


@dataclass
class RecoveryResult:
    """Outcome of a recovering run."""

    halted: bool
    instructions: int
    cycles: int
    rollbacks: int
    checkpoints_taken: int
    events: list = field(default_factory=list)  # DetectionEvents recovered


class RecoveringCore:
    """A checked core under SafetyNet-style backward error recovery.

    ``checkpoint_interval`` is the minimum number of retired instructions
    between checkpoints; checkpoints are only taken at block boundaries,
    where the just-passed DCS comparison certifies the state (Appendix B).
    ``max_retries`` bounds consecutive rollbacks to the *same* checkpoint
    before the error is declared permanent.
    """

    def __init__(self, core, checkpoint_interval=64, max_retries=3):
        if checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be positive")
        self.core = core
        self.checkpoint_interval = checkpoint_interval
        self.max_retries = max_retries
        self.rollbacks = 0
        self.checkpoints_taken = 0
        self.events = []
        self._checkpoint = Checkpoint.capture(core)
        self._retries_here = 0

    def _maybe_checkpoint(self):
        core = self.core
        due = core.instret - self._checkpoint.instret >= self.checkpoint_interval
        if due and not core._in_delay and core._pending_term is None:
            # Block boundary: collector must hold only the current block's
            # prefix; simplest safe point is right after a block ended,
            # i.e. when the collector is empty.
            if not core.collector._bits:
                self._checkpoint = Checkpoint.capture(core)
                self.checkpoints_taken += 1
                self._retries_here = 0

    def run(self, max_instructions=5_000_000):
        """Run to halt, recovering from every detection.

        Raises :class:`UnrecoverableError` when a detection keeps
        recurring from the same checkpoint (a permanent fault).
        """
        core = self.core
        while not core.halted:
            if core.instret >= max_instructions:
                raise RuntimeError("instruction budget exhausted")
            try:
                record = core.step()
            except ArgusError as exc:
                self.events.append(exc.event)
                self.rollbacks += 1
                self._retries_here += 1
                if self._retries_here > self.max_retries:
                    raise UnrecoverableError(exc.event, self._retries_here) from exc
                self._checkpoint.restore(core)
                continue
            if record is None:
                raise RuntimeError("core hung with detection disabled")
            self._maybe_checkpoint()
        return RecoveryResult(
            halted=True,
            instructions=core.instret,
            cycles=core.cycles,
            rollbacks=self.rollbacks,
            checkpoints_taken=self.checkpoints_taken,
            events=self.events,
        )
