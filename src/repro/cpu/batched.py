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
stream) and plans each one in one stage, the campaign's
:class:`~repro.faults.timeline.MaskingTimeline` verdict - the engine's
only index of the golden trace and its only rule table:

* :meth:`~repro.faults.timeline.TimelineVerdict.outcomes` settles, with
  zero simulation, exactly the axes whose proof fixes the scalar output:
  a proven-undetected detection lane is ``(False, None, False)``, a
  proven-masked masking lane ``(True, None, False)``, and a
  proven-unmasked masking lane whose rule also pins the first
  divergence step is ``(False, activated_at, hung)`` - a ``ctl.hang``
  lane hangs at its injection step, a branch flip diverges two steps
  after the first branch whose transfer it redirects.  A proven
  *detection* is never settled: its latency needs the golden
  cycle/block counters, so the lane materializes.
* every other lane *materializes* at the verdict's ``start``: the first
  evaluation site of its signal, the first read of a dormant register
  flip, or the injection step itself.

Materialized lanes run for real: the engine advances a single live
golden core through the batch's sorted materialization schedule
(checkpoint-jumping across gaps), captures its state once per stop, and
warm-starts each lane into the exact scalar loops of
:mod:`repro.faults.execution`.  From that instant on the lane is the
scalar path, so classification is identical to ``Campaign._execute`` by
construction, not by re-implementation.  Transient, permanent and
intermittent faults all take this path.

The per-instruction fetch/decode/issue work of the golden stream is thus
paid once per *batch* (the sweep) instead of once per experiment.  The
engine is the campaign's fast path
(:class:`repro.faults.campaign.Campaign` builds it, with the timeline,
on the first batch); ``Campaign(use_checkpoints=False)`` is the cold
scalar reference it is checked against, lane by lane and rule by rule,
in ``tests/test_batched.py`` and ``tests/test_timeline_oracle.py``:
materializing at the injection step is always exact, only slower.
"""

from repro.cpu.checkedcore import CheckedCore, _identity_tap
from repro.faults.checkpoint import capture
from repro.faults.execution import detection_loop, masking_loop
from repro.faults.injector import SignalInjector
from repro.faults.model import FaultSchedule, INTERMITTENT, PERMANENT, TRANSIENT

#: Fault durations the engine classifies (all of a campaign's).
DURATIONS = (TRANSIENT, PERMANENT, INTERMITTENT)


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
            "evicted_lanes": 0,
            "sweep_instructions": 0,
            "lane_instructions": 0,
        }
        self._sweep = None
        self._pool = {False: [], True: []}

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
        if core.instret < target:
            snapshot = self.checkpoints.nearest(target)
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
            # masking loop's entry-step reconvergence probe, which would
            # otherwise match a core still missing the flip against the
            # golden view.
            schedule.before_step(lane.mat_step, injector, core)
        if detect:
            base_cycle, base_block = bases.get(lane.inject_at, (0, 0))
            outcome = detection_loop(core, injector, schedule, self.golden,
                                     self.limit, lane.mat_step,
                                     base_cycle=base_cycle,
                                     base_block=base_block)
        else:
            # Signal transients stay armed until their first architectural
            # impact (which ends the run), so only state transients -
            # their one-shot flip behind them once applied - can prove a
            # golden tail by view equality at a checkpoint boundary.
            reconverge = lane.duration == TRANSIENT and lane.spec.is_state
            outcome = masking_loop(core, injector, schedule, self.golden,
                                   self.golden_final, self.limit,
                                   lane.mat_step, store=self.checkpoints,
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
        :func:`~repro.faults.execution.detection_loop`.  Each lane is
        settled by the experiment's timeline verdict or materialized at
        the verdict's ``start`` (see the module doc).

        Nothing here raises a checker alarm: the sweep replays the
        golden run, which was detection-clean when it kept the
        checkpoints the engine is built on, masking lanes run with every
        checker gated off, and detection lanes catch their alarm.
        """
        counters = self.counters
        counters["batches"] += 1
        masking_out = [None] * len(items)
        detection_out = [None] * len(items)
        lanes = []
        for i, (spec, duration, inject_at) in enumerate(items):
            if duration not in DURATIONS:
                raise ValueError("unknown fault duration %r" % (duration,))
            verdict = self.timeline.verdict(spec, duration, inject_at)
            masking, detection = verdict.outcomes()
            if masking is None:
                lanes.append(_Lane(i, False, spec, duration, inject_at,
                                   verdict.start, len(lanes)))
            if detection is None:
                lanes.append(_Lane(i, True, spec, duration, inject_at,
                                   verdict.start, len(lanes)))
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
