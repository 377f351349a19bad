"""Golden-run checkpoints for checkpoint-accelerated campaigns.

Every fault-injection experiment replays the workload twice (a masking
run and a detection run), yet every instruction before ``inject_at`` is
bit-identical to the already-computed golden run.  A
:class:`CheckpointStore` keeps the complete
:class:`~repro.cpu.checkedcore.CheckedCore` state - a
:class:`~repro.cpu.checkedcore.CoreSnapshot` from the core's own
:meth:`~repro.cpu.checkedcore.CheckedCore.snapshot` - at periodic
dynamic-instruction boundaries of the golden run, so both runs can
*warm-start* from the nearest checkpoint at or before the injection
point and replay only the tail.  The core defines what a snapshot holds
and how it is restored bit-exact; consecutive checkpoints share every
memory and cache page the run did not write in between.

Checkpoints are taken from a *fault-free checkers-on* run.  Fault-free
state evolution is identical with checkers on or off (checkers only
observe; ``false_positive_check`` asserts they never fire), so one
snapshot set serves both the detection run (which needs the checker
state) and the masking run (which ignores it).

The store keeps the set memory-bounded: when the count exceeds
``max_checkpoints`` it drops every other snapshot and doubles the
capture interval, so arbitrarily long golden runs keep at most
``max_checkpoints`` snapshots alive.  The default bound keeps the
default interval of 64 instructions on runs up to
``DEFAULT_INTERVAL * DEFAULT_MAX_CHECKPOINTS`` instructions, so a
warm start replays at most 63 instructions before its target there.
"""

from bisect import bisect_right

#: Default dynamic-instruction distance between golden-run checkpoints.
DEFAULT_INTERVAL = 64

#: Default bound on live checkpoints before exponential thinning.
DEFAULT_MAX_CHECKPOINTS = 2048


class CheckpointStore:
    """Memory-bounded, thinning set of golden-run checkpoints.

    ``maybe_capture(core)`` is called at every retire boundary of the
    golden run; a snapshot is taken every ``interval`` instructions.
    When more than ``max_checkpoints`` are alive the store drops every
    other one and doubles ``interval`` (exponential thinning), bounding
    memory for arbitrarily long workloads while keeping the skipped
    prefix within one (final) interval of the injection point.
    """

    def __init__(self, interval=None, max_checkpoints=None):
        self.interval = int(interval or DEFAULT_INTERVAL)
        if self.interval < 1:
            raise ValueError("checkpoint interval must be positive")
        self.max_checkpoints = int(max_checkpoints or DEFAULT_MAX_CHECKPOINTS)
        if self.max_checkpoints < 1:
            raise ValueError("max_checkpoints must be positive")
        self._by_step = {}
        self._steps = []  # ascending capture steps

    def __len__(self):
        return len(self._by_step)

    @property
    def steps(self):
        """Ascending dynamic-instruction indices of live checkpoints."""
        return tuple(self._steps)

    def maybe_capture(self, core):
        """Capture ``core`` if it sits on an interval boundary (step>0)."""
        step = core.instret
        if step == 0 or step % self.interval:
            return None
        snapshot = core.snapshot()
        self._by_step[step] = snapshot
        self._steps.append(step)
        if len(self._steps) > self.max_checkpoints:
            self._thin()
        return snapshot

    def _thin(self):
        """Drop checkpoints at odd multiples of ``interval``; double it."""
        self.interval *= 2
        kept = [step for step in self._steps if step % self.interval == 0]
        dropped = set(self._steps) - set(kept)
        for step in dropped:
            self._by_step.pop(step, None)
        self._steps = kept

    def nearest(self, step):
        """The latest checkpoint at or before ``step`` (None if colder)."""
        index = bisect_right(self._steps, step)
        return self._by_step[self._steps[index - 1]] if index else None

    def at(self, step):
        """The checkpoint captured exactly at ``step``, or None.  The
        reconvergence checks compare its masking or detection view
        (:class:`~repro.cpu.checkedcore.CoreSnapshot`) with a lane's."""
        return self._by_step.get(step)


def record_checkpoints(core, store=None, interval=None, max_checkpoints=None,
                       trace=None):
    """Run ``core`` to halt, checkpointing every interval; returns the store.

    ``trace`` (a list) optionally collects the retire records, so the
    golden trace and its checkpoint set come out of one single run.
    Raises whatever the core raises (a fault-free checkers-on run must
    not raise; :meth:`Campaign.false_positive_check` guards that).
    """
    if store is None:
        store = CheckpointStore(interval=interval,
                                max_checkpoints=max_checkpoints)
    while not core.halted:
        store.maybe_capture(core)
        record = core.step()
        if record is None:  # pragma: no cover - fault-free runs never hang
            raise RuntimeError("golden run hung at pc=0x%x" % core.pc)
        if trace is not None:
            trace.append(record)
    return store
