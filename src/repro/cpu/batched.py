"""Batched structure-of-arrays fault simulation.

One :class:`BatchedEngine` executes a whole batch of fault-injection
experiments against a *shared* golden instruction stream instead of
replaying the workload once per experiment.  The trick that makes this
sound is the checkpoint insight generalized to its limit: a lane (one
experiment phase: the masking run or the detection run) is
bit-identical to the golden run for every step on which its fault has
no observable effect, so until the fault's first *evaluation site* the
lane needs no simulation at all - it is the golden run.  The engine
therefore keeps lanes **virtual** (pure bookkeeping over the golden
stream) and plans each one in two stages:

1. **the timeline.**  The campaign's
   :class:`~repro.faults.timeline.MaskingTimeline` is the engine's only
   index of the golden trace.  Its verdict for the experiment settles,
   with zero simulation, exactly the axes whose proof fixes the scalar
   output: a proven-undetected detection lane is ``(False, None,
   False)``, a proven-masked masking lane ``(True, None, False)``, and a
   proven-unmasked masking lane whose rule also pins the first
   divergence step is ``(False, activated_at, False)``.  A proven
   *detection* is never settled: its latency needs the golden
   cycle/block counters, so the lane materializes.
2. **the engine's own rules** for what the timeline leaves open: a
   ``ctl.hang`` masking lane hangs at its injection step, a branch-flip
   masking lane walks the timeline's branch facts, and every other lane
   *materializes* at its first relevant step - the first evaluation
   site of its signal, the first read of a dormant register flip, or
   the injection step itself.

Materialized lanes run for real: the engine advances a single live
golden core through the batch's sorted materialization schedule
(checkpoint-jumping across gaps), captures its state once per stop, and
warm-starts each lane into the exact scalar loops of
:mod:`repro.faults.execution`.  From that instant on the lane is the
scalar path, so classification is identical to ``Campaign._execute`` by
construction, not by re-implementation.

The per-instruction fetch/decode/issue work of the golden stream is thus
paid once per *batch* (the sweep) instead of once per experiment.  The
engine is the campaign's fast path
(:class:`repro.faults.campaign.Campaign` builds it, with the timeline,
on the first batch); ``Campaign(use_checkpoints=False)`` is the cold
scalar reference it is checked against.  Every rule either stage relies
on is re-proven differentially in ``tests/test_batched.py`` and
``tests/test_timeline_oracle.py``: falling back to materialization at
the injection step, which is *literally* the scalar warm-started path,
is always exact, only slower.
"""

from repro.cpu.checkedcore import CheckedCore, _identity_tap
from repro.faults.checkpoint import capture
from repro.faults.execution import detection_loop, masking_loop
from repro.faults.injector import SignalInjector
from repro.faults.model import FaultSchedule, PERMANENT, TRANSIENT
from repro.isa import registers

LINK = registers.LINK_REG

#: Masking lanes for these signals materialize at their first evaluation
#: site (timeline site columns): the flip's downstream effect needs real
#: simulation.
_MASKING_MATERIALIZE = {
    "ex.op_a": "reads_ra",
    "ex.op_b": "reads_rb",
    "lsu.addr": "mem",
    "lsu.mem_addr": "load",
    "lsu.mem_waddr": "store",
    "lsu.store_data": "store",
}

#: Detection lanes materialize at the first step their signal is tapped;
#: everything else about the run (checkers armed, latency bases) is the
#: scalar path's.  Signals without a row here (``if.*``, ``id.word.*``,
#: ``ctl.hang``, ``chk.*``, ``cfc.*`` and all state targets) are tapped
#: every step or have no static site list, and materialize at the
#: injection step itself - which is exactly the scalar warm start.
_DETECTION_SITES = {
    "ex.op_a": "reads_ra", "ex.op_a.par": "reads_ra", "ex.shs_a": "reads_ra",
    "ex.op_b": "reads_rb", "ex.op_b.par": "reads_rb", "ex.shs_b": "reads_rb",
    "ex.alu.result": "alu_result",
    "ex.mul.product": "mul",
    "ex.div.quotient": "div", "ex.div.remainder": "div",
    "ex.flag": "compare",
    "wb.rd": "wb_port",
    "lsu.addr": "mem",
    "lsu.mem_addr": "load", "lsu.load_data": "load",
    "lsu.mem_waddr": "store", "lsu.store_data": "store",
    "ctl.flag": "cond_branch",
    "ctl.btarget": "branch",
}


def settled(verdict):
    """The ``(masking, detection)`` outcomes a timeline verdict fixes
    exactly; ``None`` for an axis that must be planned further."""
    masking = detection = None
    if verdict.masked is True:
        masking = (True, None, False)
    elif verdict.masked is False and verdict.activated_at is not None:
        masking = (False, verdict.activated_at, False)
    if verdict.detected is False:
        detection = (False, None, False)
    return masking, detection


class _Lane:
    """One evicted experiment phase awaiting materialization."""

    __slots__ = ("item", "detect", "spec", "duration", "inject_at",
                 "mat_step", "seq")

    def __init__(self, item, detect, spec, duration, inject_at, mat_step,
                 seq):
        self.item = item
        self.detect = detect
        self.spec = spec
        self.duration = duration
        self.inject_at = inject_at
        self.mat_step = mat_step
        self.seq = seq


class BatchedEngine:
    """Batch executor over one workload's golden stream (see module doc).

    Built once per campaign (or pool worker) from the golden trace and
    its :class:`~repro.faults.timeline.MaskingTimeline`; each
    :meth:`run_batch` call classifies a batch of experiment phases.
    """

    def __init__(self, embedded, golden, golden_final, checkpoints,
                 run_slack, timeline):
        self.embedded = embedded
        self.golden = golden
        self.golden_final = golden_final
        self.checkpoints = checkpoints
        self.timeline = timeline
        self.limit = int(len(golden) * run_slack) + 64
        self.counters = {
            "batches": 0,
            "lanes": 0,
            "synthesized_lanes": 0,
            "timeline_lanes": 0,
            "evicted_lanes": 0,
            "sweep_instructions": 0,
            "lane_instructions": 0,
        }
        self._sweep = None
        self._pool = {False: [], True: []}

    # -- stage 2: the engine's own rules ---------------------------------
    def _materialize_at(self, spec, duration, inject_at, sites):
        """First step at which a lane can differ from the golden run.

        A transient register-file flip rides along dormant until the
        register is next touched; when a *read* comes first (operand
        fetch precedes same-step writeback) the cell is untouched
        between injection and the read, so applying the XOR flip there
        (the schedule's natural first application) gives the identical
        value and stuck polarity.  The link register also receives DCS
        retags at block ends (not visible in the records), and
        permanents interleave stuck-at reasserts with overwrites; both
        take the scalar warm start at the injection step, as does a
        signal with no row in ``sites`` or no site left.
        """
        target = spec.target
        timeline = self.timeline
        if target in ("state.rf.value", "state.rf.parity"):
            if duration == TRANSIENT and spec.index != LINK:
                read = timeline.next_read(spec.index, inject_at)
                write = timeline.next_write(spec.index, inject_at)
                if read is not None and (write is None or read <= write):
                    return read
            return inject_at
        column = sites.get(target)
        if column is not None:
            step = timeline.next_site(column, inject_at)
            if step is not None:
                return step
        return inject_at

    def _plan_masking(self, spec, duration, inject_at):
        """Masking-axis plan: ``("synth", outcome)`` or ``("mat", step)``."""
        target = spec.target
        if target == "ctl.hang":
            # The hang tap is evaluated before anything else in step():
            # the very injection step stalls the pipeline.  Masking runs
            # report it as an unmasked liveness violation on the spot.
            return "synth", (False, inject_at, True)
        if target in ("ctl.flag", "ctl.btarget"):
            return self._plan_branch(inject_at, target == "ctl.flag")
        return "mat", self._materialize_at(spec, duration, inject_at,
                                           _MASKING_MATERIALIZE)

    def _plan_branch(self, inject_at, flag_flip):
        """Walk a branch-flip masking lane over the golden branches.

        Both flips leave the branch step's and its delay slot's retire
        records untouched (neither the flag register nor any writeback
        changes); their only lever is the post-delay-slot pc, two steps
        later.  A ``ctl.flag`` flip inverts the direction of a
        conditional branch, which diverges unless both directions land
        on the same pc; a ``ctl.btarget`` mask (the population's bits
        2..26, inside both the direct ``& WORD_MASK`` and the indirect
        ``& ADDR_MASK & ~3`` reductions) perturbs the target of any
        *taken* branch.  In a delay slot (``taken`` None) the taps still
        fire but the control effect is architecturally dropped.  Where
        the trace ends before the transfer shows, the lane materializes.
        """
        for step, (category, taken, conditional) in \
                self.timeline.branches_from(inject_at):
            if flag_flip and not conditional:
                continue
            if category == "unknown":
                return "mat", step
            if flag_flip:
                diverges = taken is not None and category != "degenerate"
            else:
                diverges = taken
            if diverges:
                return "synth", (False, step + 2, False)
        return "synth", (True, None, False)

    # -- the sweep -------------------------------------------------------
    def _sweep_core(self, first_stop):
        """The live golden core, rewound/rebuilt if it overshot."""
        core = self._sweep
        if core is None or core.halted or core.instret > first_stop:
            core = self._sweep = CheckedCore(self.embedded, detect=True)
        return core

    def _advance(self, core, target):
        """Advance the golden core to ``target`` retired instructions,
        checkpoint-jumping across any gap the store can cover."""
        store = self.checkpoints
        if store is not None and core.instret < target:
            snapshot = store.nearest(target)
            if snapshot is not None and snapshot.step > core.instret:
                core.restore(snapshot)
        steps = 0
        while core.instret < target:
            core.step()
            steps += 1
        self.counters["sweep_instructions"] += steps

    # -- lane execution --------------------------------------------------
    def _acquire_core(self, spec, detect):
        """A pooled CheckedCore with this fault's injector installed.

        Restoring a snapshot rewrites every piece of mutable state, so a
        recycled core only needs its tap closure swapped (the checkers
        share the core's tap).
        """
        injector = None if spec.is_state else SignalInjector(spec)
        pool = self._pool[detect]
        if pool:
            core = pool.pop()
            tap = injector.tap if injector is not None else _identity_tap
            core.injector = injector
            core._tap = tap
            core.adder._tap = tap
            core.rsse._tap = tap
            core.modulo._tap = tap
            core.cfc._tap = tap
            return core, injector
        return CheckedCore(self.embedded, injector=injector,
                           detect=detect), injector

    def _run_lane(self, lane, snapshot, bases):
        """Materialize one lane from the sweep capture and run it to its
        classification through the shared scalar loops."""
        detect = lane.detect
        core, injector = self._acquire_core(lane.spec, detect)
        core.restore(snapshot)
        schedule = FaultSchedule(lane.spec, lane.duration, lane.inject_at)
        if schedule.applier is not None and lane.mat_step > lane.inject_at:
            # A dormant state flip rides in from the sweep capture
            # untouched, so its natural first application lands at the
            # materialization step - but it must land *before* the
            # masking loop's entry-step reconvergence probe, which the
            # scalar run only ever evaluates with the flip in place.
            schedule.before_step(lane.mat_step, injector, core)
        if detect:
            base_cycle, base_block = bases.get(lane.inject_at, (0, 0))
            outcome = detection_loop(core, injector, schedule, self.golden,
                                     self.limit, lane.mat_step,
                                     base_cycle=base_cycle,
                                     base_block=base_block)
        else:
            store = self.checkpoints
            # Same reconvergence condition as Campaign._masking_run: only
            # state transients (their one-shot flip behind them once
            # applied) can prove a golden tail by view equality.
            reconverge = (store is not None and lane.duration == TRANSIENT
                          and lane.spec.is_state)
            outcome = masking_loop(core, injector, schedule, self.golden,
                                   self.golden_final, self.limit,
                                   lane.mat_step, store=store,
                                   reconverge=reconverge)
        self.counters["lane_instructions"] += core.instret - lane.mat_step
        self._pool[detect].append(core)
        return outcome

    # -- batch entry point -----------------------------------------------
    def run_batch(self, items):
        """Classify a batch of experiments.

        ``items``: sequence of ``(spec, duration, inject_at)``.  Returns
        a list (in item order) of ``(masking, detection)`` pairs -
        ``masking`` is the ``(masked, activated_at, hung)`` triple of
        :func:`~repro.faults.execution.masking_loop`, ``detection`` the
        ``(detected, info, hung)`` triple of
        :func:`~repro.faults.execution.detection_loop`.  Durations must
        be transient or permanent (the campaign routes intermittents to
        the scalar path).  Each lane is settled from the timeline
        verdict, decided by the engine's own rules or materialized, in
        that order (see the module doc).

        May raise :class:`~repro.argus.errors.ArgusError` if the golden
        sweep itself trips a checker (only possible for embeddings whose
        golden run is not detection-clean); callers fall back to the
        scalar path, which reproduces the same behaviour per experiment.
        """
        counters = self.counters
        counters["batches"] += 1
        masking_out = [None] * len(items)
        detection_out = [None] * len(items)
        lanes = []
        for i, (spec, duration, inject_at) in enumerate(items):
            if duration not in (TRANSIENT, PERMANENT):
                raise ValueError("batched engine handles transient/permanent "
                                 "faults only, got %r" % (duration,))
            masking, detection = settled(
                self.timeline.verdict(spec, duration, inject_at))
            counters["timeline_lanes"] += ((masking is not None)
                                           + (detection is not None))
            if masking is None:
                kind, value = self._plan_masking(spec, duration, inject_at)
                if kind == "synth":
                    masking = value
                else:
                    lanes.append(_Lane(i, False, spec, duration, inject_at,
                                       value, len(lanes)))
            if detection is None:
                step = self._materialize_at(spec, duration, inject_at,
                                            _DETECTION_SITES)
                lanes.append(_Lane(i, True, spec, duration, inject_at, step,
                                   len(lanes)))
            masking_out[i] = masking
            detection_out[i] = detection
        counters["lanes"] += 2 * len(items)
        counters["synthesized_lanes"] += 2 * len(items) - len(lanes)
        if not lanes:
            return list(zip(masking_out, detection_out))

        counters["evicted_lanes"] += len(lanes)
        lanes.sort(key=lambda lane: (lane.mat_step, lane.seq))
        # Detection lanes materialized past their injection step need the
        # golden cycle/block counters *at* the injection step for
        # bit-identical latency bases; those are free probe stops on the
        # same sweep.
        probe_steps = {lane.inject_at for lane in lanes
                       if lane.detect and lane.mat_step > lane.inject_at}
        stop_lanes = {}
        for lane in lanes:
            stop_lanes.setdefault(lane.mat_step, []).append(lane)
        stops = sorted(probe_steps | set(stop_lanes))

        bases = {}
        core = self._sweep_core(stops[0])
        for stop in stops:
            self._advance(core, stop)
            if stop in probe_steps:
                bases[stop] = (core.cycles, core.block_index)
            waiting = stop_lanes.get(stop)
            if not waiting:
                continue
            snapshot = capture(core)
            for lane in waiting:
                outcome = self._run_lane(lane, snapshot, bases)
                if lane.detect:
                    detection_out[lane.item] = outcome
                else:
                    masking_out[lane.item] = outcome
        return list(zip(masking_out, detection_out))
