"""Golden-run snapshot/restore for checkpoint-accelerated campaigns.

Every fault-injection experiment replays the workload twice (a masking
run and a detection run), yet every instruction before ``inject_at`` is
bit-identical to the already-computed golden run.  This module captures
the complete :class:`~repro.cpu.checkedcore.CheckedCore` state at
periodic dynamic-instruction boundaries of the golden run so both runs
can *warm-start* from the nearest checkpoint at or before the injection
point and replay only the tail.

A :class:`CoreSnapshot` is compact and deep-copy-free: every register
and checker container is captured as a flat ``tuple``, never via
``copy.deepcopy``, and protected memory and the caches as copies of
their page tables.  Their pages are shared copy-on-write between the
live core and every snapshot holding them (see :mod:`repro.mem.checked`
and :mod:`repro.mem.cache`), so a capture or restore costs O(pages),
and consecutive checkpoints share every page the run did not write in
between.  Restoring writes the captured state back through the
per-component ``restore`` hooks (:class:`~repro.argus.regfile.CheckedRegisterFile`,
:class:`~repro.argus.shs.ShsFile`,
:class:`~repro.argus.controlflow.ControlFlowChecker`,
:class:`~repro.argus.payload.PayloadCollector`,
:class:`~repro.argus.watchdog.Watchdog`,
:class:`~repro.mem.checked.CheckedMemory`,
:class:`~repro.mem.cache.Cache` /
:class:`~repro.mem.hierarchy.MemorySystem`), so a restored core is
bit-exact: registers, pc/flag/cycle/instret, SHS file, control-flow
checker, payload collector, watchdog, protected memory contents+parity
and cache tag/LRU/dirty/stat state all match the captured instant.
Instruction memory (:class:`~repro.mem.main.MainMemory`) is loaded once
from the program and never written by the checked core, so it is shared,
not captured.

Checkpoints are taken from a *fault-free checkers-on* run.  Fault-free
state evolution is identical with checkers on or off (checkers only
observe; ``false_positive_check`` asserts they never fire), so one
snapshot set serves both the detection run (which needs the checker
state) and the masking run (which ignores it).

:class:`CheckpointStore` keeps the set memory-bounded: when the count
exceeds ``max_checkpoints`` it drops every other snapshot and doubles
the capture interval, so arbitrarily long golden runs keep at most
``max_checkpoints`` snapshots alive.  The default bound keeps the
default interval of 64 instructions on runs up to
``DEFAULT_INTERVAL * DEFAULT_MAX_CHECKPOINTS`` instructions, so a
warm start replays at most 63 instructions before its target there.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.mem.checked import CheckedMemory
from repro.mem.hierarchy import MemorySystem

#: Default dynamic-instruction distance between golden-run checkpoints.
DEFAULT_INTERVAL = 64

#: Default bound on live checkpoints before exponential thinning.
DEFAULT_MAX_CHECKPOINTS = 2048


@dataclass(frozen=True)
class CoreSnapshot:
    """Complete restorable CheckedCore state at one retire boundary.

    ``step`` is the dynamic instruction index the snapshot was taken at:
    the state *before* executing instruction ``step`` (so it equals the
    captured ``instret``).
    """

    # Explicit slots: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = (
        "step", "pc", "flag", "cfc_flag", "cycles", "instret", "block_index",
        "halted", "hung", "in_delay", "delayed_target", "pending_term", "rf",
        "shs", "cfc", "collector", "watchdog", "dmem", "mem",
    )

    step: int
    # -- scalar core state ------------------------------------------------
    pc: int
    flag: int
    cfc_flag: int
    cycles: int
    instret: int
    block_index: int
    halted: bool
    hung: bool
    in_delay: bool
    delayed_target: int
    pending_term: Optional[tuple]
    # -- register/checker files ------------------------------------------
    rf: tuple  # (values, parity) from CheckedRegisterFile.snapshot()
    shs: tuple  # ShsFile.snapshot()
    cfc: tuple  # ControlFlowChecker.snapshot()
    collector: tuple  # PayloadCollector.snapshot()
    watchdog: tuple  # Watchdog.snapshot()
    # -- memory -----------------------------------------------------------
    dmem: tuple  # CheckedMemory.snapshot(): (stored, parity) page tables
    mem: tuple  # MemorySystem.snapshot(): cache set pages + stats

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        # Frozen: unpickling cannot go through the dataclass __setattr__.
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def masking_view(self):
        """The replay-relevant projection for a checkers-off core.

        Two cores whose masking views are equal retire bit-identical
        records from here on (given no further fault activity): the view
        covers everything a ``detect=False`` step reads - architectural
        state, delay-slot sequencing, the payload collector (link-DCS
        tagging is architectural) and the *functional* protected-memory
        contents.  Checker-only state (SHS, CFC, watchdog, parity bits,
        cache timing) is deliberately excluded: a detect-off run never
        reads it, which is also why a cold masking run and a golden
        warm-started one can be compared through this projection.

        Memory enters as its sorted ``(page, stored words)`` pairs,
        which are equal exactly when the written words and their
        functional values are; pages shared between the two sides
        compare by identity, so the view costs O(pages).
        """
        return (
            self.pc,
            self.flag,
            self.rf[0],
            self.halted,
            self.in_delay,
            self.delayed_target,
            self.pending_term[0] if self.pending_term is not None else None,
            self.collector,
            CheckedMemory.snapshot_stored_pages(self.dmem),
        )

    def flat(self):
        """Every field in declaration order, with ``dmem`` and ``mem`` in
        their per-word and per-set forms
        (:meth:`CheckedMemory.flat_snapshot`,
        :meth:`MemorySystem.flat_snapshot`).  Two snapshots' flat forms
        are equal exactly when the captured states are, whatever pages
        they do or do not share."""
        head = tuple(getattr(self, name) for name in self.__slots__[:-2])
        return head + (CheckedMemory.flat_snapshot(self.dmem),
                       MemorySystem.flat_snapshot(self.mem))


def masking_view_of(core):
    """:meth:`CoreSnapshot.masking_view` computed directly from a live
    core, without paying for a full capture (the reconvergence check runs
    it at every checkpoint boundary of a masking run)."""
    return (
        core.pc,
        core.flag,
        tuple(core.rf.values),
        core.halted,
        core._in_delay,
        core._delayed_target,
        core._pending_term[0] if core._pending_term is not None else None,
        core.collector.snapshot(),
        core.dmem.stored_pages(),
    )


def capture(core):
    """Snapshot ``core`` (a CheckedCore) at its current retire boundary."""
    return CoreSnapshot(
        step=core.instret,
        pc=core.pc,
        flag=core.flag,
        cfc_flag=core.cfc_flag,
        cycles=core.cycles,
        instret=core.instret,
        block_index=core.block_index,
        halted=core.halted,
        hung=core.hung,
        in_delay=core._in_delay,
        delayed_target=core._delayed_target,
        pending_term=core._pending_term,
        rf=core.rf.snapshot(),
        shs=core.shs.snapshot(),
        cfc=core.cfc.snapshot(),
        collector=core.collector.snapshot(),
        watchdog=core.watchdog.snapshot(),
        dmem=core.dmem.snapshot(),
        mem=core.mem.snapshot(),
    )


def restore(core, snapshot):
    """Write ``snapshot`` back into ``core``, making it bit-exact."""
    core.pc = snapshot.pc
    core.flag = snapshot.flag
    core.cfc_flag = snapshot.cfc_flag
    core.cycles = snapshot.cycles
    core.instret = snapshot.instret
    core.block_index = snapshot.block_index
    core.halted = snapshot.halted
    core.hung = snapshot.hung
    core._in_delay = snapshot.in_delay
    core._delayed_target = snapshot.delayed_target
    core._pending_term = snapshot.pending_term
    core.rf.restore(snapshot.rf)
    core.shs.restore(snapshot.shs)
    core.cfc.restore(snapshot.cfc)
    core.collector.restore(snapshot.collector)
    core.watchdog.restore(snapshot.watchdog)
    core.dmem.restore(snapshot.dmem)
    core.mem.restore(snapshot.mem)
    return core


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
        snapshot = capture(core)
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
        """The checkpoint captured exactly at ``step``, or None."""
        return self._by_step.get(step)

    def masking_view_at(self, step):
        """:meth:`CoreSnapshot.masking_view` of the ``step`` checkpoint,
        or None.  Not cached: the view costs O(pages)."""
        snapshot = self._by_step.get(step)
        return None if snapshot is None else snapshot.masking_view()


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
