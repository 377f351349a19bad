"""Backward error recovery (paper Sec. 1 / Sec. 4.4).

Argus is a *detection* scheme; the paper pairs it with SafetyNet-style
checkpoint recovery [27]: "Argus-1's error detection hardware does not
cause any pipeline stalls or delay instruction retirement, because
Argus-1 is designed to invoke backward error recovery once an error is
detected."  This module supplies that companion mechanism:
:class:`RecoveringCore` runs a
:class:`~repro.cpu.checkedcore.CheckedCore`, checkpointing at basic-
block boundaries (where Appendix B guarantees the state is error-free:
a corrupt block would have failed its DCS comparison), and rolling back
on any detection.  A transient error costs one rollback; an error that
keeps recurring at the same point is diagnosed as permanent (the
actionable signal the paper wants from detected permanent errors).

A checkpoint is the core's own
:class:`~repro.cpu.checkedcore.CoreSnapshot`, the format the fault
campaign's golden checkpoints use too, so it costs O(pages): protected
memory and the caches are shared copy-on-write until the core writes
them.  A rollback restores all of it except what only measures the
run: the cycle count, the caches' timing state and the control-flow
checker's ``blocks_checked`` run on, exactly like a real machine whose
cache contents survive a recovery with at most different hit/miss
behaviour.
"""

from dataclasses import dataclass, field

from repro.argus.errors import ArgusError


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
        self._checkpoint = core.snapshot()
        self._retries_here = 0

    def _maybe_checkpoint(self):
        core = self.core
        due = core.instret - self._checkpoint.instret >= self.checkpoint_interval
        if due and not core._in_delay and core._pending_term is None:
            # Block boundary: collector must hold only the current block's
            # prefix; simplest safe point is right after a block ended,
            # i.e. when the collector is empty.
            if not core.collector.capacity():
                self._checkpoint = core.snapshot()
                self.checkpoints_taken += 1
                self._retries_here = 0

    def rollback(self):
        """Return the core to the last checkpoint; returns the core.

        Everything the checkpoint holds is restored except the cycle
        count, the caches' timing state and the control-flow checker's
        ``blocks_checked``, which run on; the watchdog restarts.
        """
        core = self.core
        blocks_checked = core.cfc.blocks_checked
        core.restore(self._checkpoint._replace(cycles=core.cycles,
                                               mem=core.mem.snapshot()))
        core.cfc.blocks_checked = blocks_checked
        core.watchdog.reset()
        return core

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
                self.rollback()
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
