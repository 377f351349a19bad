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
intermittent faults all take this path.  The loops get the golden
checkpoint store, so a lane whose transient is disarmed ends as soon as
its state re-matches a golden checkpoint (reconvergence).

The per-instruction fetch/decode/issue work of the golden stream is thus
paid once per *batch* (the sweep) instead of once per experiment.  The
engine is the campaign's fast path
(:class:`repro.faults.campaign.Campaign` builds it from itself, with the
timeline, on the first batch or before a process pool starts);
``Campaign(use_checkpoints=False)`` is the cold
scalar reference it is checked against, lane by lane and rule by rule,
in ``tests/test_batched.py`` and ``tests/test_timeline_oracle.py``:
materializing at the injection step is always exact, only slower.
"""

from collections import namedtuple

from repro.cpu.checkedcore import CheckedCore
from repro.faults.execution import detection_loop, masking_loop
from repro.faults.injector import SignalInjector
from repro.faults.model import (FaultSchedule, INTERMITTENT, PERMANENT,
                                RUN_SLACK, TRANSIENT)

#: Fault durations the engine classifies (all of a campaign's).
DURATIONS = (TRANSIENT, PERMANENT, INTERMITTENT)


#: One evicted experiment phase awaiting materialization.
_Lane = namedtuple("_Lane", "item detect spec duration inject_at mat_step")


class BatchedEngine:
    """Batch executor over one campaign's golden stream (see module doc).

    Built once per campaign from the campaign's prepared golden state:
    trace, final masking view, checkpoint store and
    :class:`~repro.faults.timeline.MaskingTimeline`.  Lane cores come
    from :meth:`Campaign._new_core <repro.faults.campaign.Campaign._new_core>`
    and each :meth:`run_batch` call counts its work into
    ``campaign.perf``.
    """

    def __init__(self, campaign):
        self.campaign = campaign
        self.golden = campaign.golden_trace()
        self.golden_final = campaign._golden_final
        self.checkpoints = campaign.checkpoints()
        self.timeline = campaign.timeline()
        self.limit = int(len(self.golden) * RUN_SLACK) + 64
        self._sweep = None
        self._pool = {False: [], True: []}

    # -- the sweep -------------------------------------------------------
    def _sweep_core(self, first_stop):
        """The live golden core, rewound/rebuilt if it overshot."""
        core = self._sweep
        if core is None or core.halted or core.instret > first_stop:
            core = self._sweep = CheckedCore(self.campaign.embedded,
                                             detect=True)
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
        self.campaign.perf["sweep_instructions"] += steps

    # -- lane execution --------------------------------------------------
    def _acquire_core(self, spec, detect):
        """A lane core with this fault's injector installed: a recycled
        one, or a new one from the campaign's core factory.

        Restoring a snapshot rewrites every piece of mutable state, so a
        recycled core only needs its injector swapped.
        """
        pool = self._pool[detect]
        if not pool:
            return self.campaign._new_core(spec, detect)
        core = pool.pop()
        injector = None if spec.is_state else SignalInjector(spec)
        core.set_injector(injector)
        return core, injector

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
            # loops' entry-step reconvergence probe, which would
            # otherwise match a core still missing the flip against the
            # golden view.
            schedule.before_step(lane.mat_step, injector, core)
        if detect:
            base_cycle, base_block = bases.get(lane.inject_at, (0, 0))
            outcome = detection_loop(core, injector, schedule, self.golden,
                                     self.limit, lane.mat_step,
                                     base_cycle=base_cycle,
                                     base_block=base_block,
                                     store=self.checkpoints)
            clean = (False, None, False)
        else:
            outcome = masking_loop(core, injector, schedule, self.golden,
                                   self.golden_final, self.limit,
                                   lane.mat_step, store=self.checkpoints)
            clean = (True, None, False)
        perf = self.campaign.perf
        perf["lane_instructions"] += core.instret - lane.mat_step
        if (outcome == clean and not core.halted
                and core.instret < self.limit):
            # Ended clean short of halt and of the run bound: only the
            # loops' reconvergence check stops a lane there.
            perf["reconverged_lanes"] += 1
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
        perf = self.campaign.perf
        perf["batches"] += 1
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
                                   verdict.start))
            if detection is None:
                lanes.append(_Lane(i, True, spec, duration, inject_at,
                                   verdict.start))
            masking_out[i] = masking
            detection_out[i] = detection
        perf["lanes"] += 2 * len(items)
        perf["synthesized_lanes"] += 2 * len(items) - len(lanes)
        if not lanes:
            return list(zip(masking_out, detection_out))

        perf["evicted_lanes"] += len(lanes)
        lanes.sort(key=lambda lane: lane.mat_step)  # stable: queue order
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
            snapshot = core.snapshot()
            for lane in waiting:
                outcome = self._run_lane(lane, snapshot, bases)
                if lane.detect:
                    detection_out[lane.item] = outcome
                else:
                    masking_out[lane.item] = outcome
        return list(zip(masking_out, detection_out))
