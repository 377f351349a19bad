"""Batched structure-of-arrays fault simulation.

One :class:`BatchedEngine` executes a whole batch of fault-injection
experiments against a *shared* golden instruction stream instead of
replaying the workload once per experiment.  The trick that makes this
sound is the checkpoint insight generalized to its limit: a lane (one
experiment phase) is bit-identical to the golden run for every step on
which its fault has no observable effect, so until the fault's first
*evaluation site* the lane needs no simulation at all - it is the golden
run.  The engine therefore keeps lanes **virtual** (pure bookkeeping in
structure-of-arrays columns over the golden stream) and pays for real
simulation only in two places:

* **analytic lanes** - fault classes whose masking outcome is decidable
  from the golden trace alone (an ``ex.alu.result`` flip *must* change
  the retire record at its first evaluation site; a checker-internal
  ``chk.*`` flip *cannot* change a checkers-off run) are classified with
  zero simulation, straight from the per-signal site columns;
* **evicted lanes** - everything else *materializes* at its first
  relevant step: the engine advances a single live golden core through
  the batch's sorted materialization schedule (checkpoint-jumping across
  gaps), captures its state once per stop, and warm-starts the lane into
  the exact scalar loops of :mod:`repro.faults.execution`.  From that
  instant on the lane is the scalar path, so classification is identical
  to ``Campaign._execute`` by construction, not by re-implementation.

The per-instruction fetch/decode/issue work of the golden stream is thus
paid once per *batch* (the sweep) instead of once per experiment, and
the per-signal/per-register site tables - sorted step lists searched
with :mod:`bisect` - are built once per engine.  The engine is the
campaign's fast path (:class:`repro.faults.campaign.Campaign` builds it
lazily on the first batch); ``Campaign(use_checkpoints=False)`` is the
cold scalar reference it is checked against.

Soundness notes for the analytic rules live next to each rule; every one
of them is individually removable (falling back to materialization at
the injection step, which is *literally* the scalar warm-started path)
and all of them are re-proven differentially in
``tests/test_batched.py``.
"""

import bisect

from repro.cpu.checkedcore import CheckedCore, _identity_tap
from repro.faults.checkpoint import capture
from repro.faults.execution import detection_loop, masking_loop
from repro.faults.injector import SignalInjector
from repro.faults.model import FaultSchedule, PERMANENT, TRANSIENT
from repro.isa import registers
from repro.isa.opcodes import Op

WORD_MASK = 0xFFFFFFFF
LINK = registers.LINK_REG

#: Signals a checkers-off (masking) run never consumes: checker-internal
#: datapaths and checker-only state.  A fault here cannot perturb a
#: single retire record or the final architectural state, so the masking
#: axis is ``masked`` with zero simulation.  (``ex.div.remainder`` is on
#: the list because only the quotient reaches writeback.)
_MASKING_INERT = frozenset({
    "ex.op_a.par", "ex.op_b.par", "ex.shs_a", "ex.shs_b", "id.word.shs",
    "cfc.dcs", "cfc.computed", "cfc.expected", "ex.div.remainder",
    "state.rf.parity", "state.shs", "state.cfc.expected",
})

#: Masking-analytic result-class signals: the tapped value lands (masked
#: to its tap width, which covers every population mask) in the retire
#: record at the very step it is evaluated, so the first evaluation site
#: at or after the injection step *is* the first architectural impact.
#: ``wb.rd`` qualifies because the record stores the (tapped) destination
#: index itself; ``ex.flag`` because the record carries the flag.
_RESULT_CLASS = {
    "ex.alu.result": "alu",
    "wb.rd": "writes_rd",
    "lsu.load_data": "load",
    "ex.flag": "compare",
    "ex.div.quotient": "div",
}

#: Masking lanes for these signals materialize at their first evaluation
#: site (the flip's downstream effect needs real simulation).
_MASKING_MATERIALIZE = {
    "ex.op_a": "reads_ra",
    "ex.op_b": "reads_rb",
    "lsu.addr": "loadstore",
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
    "ex.alu.result": "alu",
    "ex.mul.product": "mul",
    "ex.div.quotient": "div", "ex.div.remainder": "div",
    "ex.flag": "compare",
    "wb.rd": "writes_rd",
    "lsu.addr": "loadstore",
    "lsu.mem_addr": "load", "lsu.load_data": "load",
    "lsu.mem_waddr": "store", "lsu.store_data": "store",
    "ctl.flag": "cond",
    "ctl.btarget": "branch",
}

# Branch-site verdicts precomputed per golden branch (see _build_tables).
_BR_SKIP = 0      # flip provably without effect at this site
_BR_DIVERGE = 1   # flip provably changes the post-delay-slot pc
_BR_MATERIALIZE = 2  # cannot decide statically; evict


def _first_at_or_after(steps, step):
    """First entry of the ascending ``steps`` that is >= ``step``, or None."""
    i = bisect.bisect_left(steps, step)
    return steps[i] if i < len(steps) else None


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

    Built once per campaign (or pool worker) from the golden trace; each
    :meth:`run_batch` call classifies a batch of experiment phases.
    """

    def __init__(self, embedded, golden, golden_final, checkpoints,
                 run_slack):
        self.embedded = embedded
        self.golden = golden
        self.golden_final = golden_final
        self.checkpoints = checkpoints
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
        self._build_tables()

    # -- static structure-of-arrays tables ------------------------------
    def _build_tables(self):
        """Columns over the golden stream: per-signal-class evaluation
        sites, per-register read/write sites, branch-site verdicts."""
        golden = self.golden
        program = self.embedded.program
        ptable = program.predecoded()
        text_base = program.text_base
        nwords = len(ptable)

        sites = {name: [] for name in
                 ("reads_ra", "reads_rb", "writes_rd", "alu", "load",
                  "store", "loadstore", "compare", "mul", "div",
                  "cond", "branch")}
        reg_reads = [[] for _ in range(registers.NUM_REGS)]
        reg_writes = [[] for _ in range(registers.NUM_REGS)]
        # Branch metadata, aligned with the cond/branch site columns.
        cond_verdict = []
        branch_verdict = []

        in_delay = False
        prev_branch = False
        for step, record in enumerate(golden):
            in_delay = prev_branch and not in_delay
            pc = record[0]
            index = (pc - text_base) >> 2
            instr = ptable[index][1] if 0 <= index < nwords else None
            prev_branch = (instr is not None and instr.is_branch
                           and not in_delay)
            if record[1] >= 0:
                reg_writes[record[1]].append(step)
            if instr is None:
                continue
            if instr.reads_ra:
                sites["reads_ra"].append(step)
                reg_reads[instr.ra].append(step)
            if instr.reads_rb:
                sites["reads_rb"].append(step)
                reg_reads[instr.rb].append(step)
            if instr.writes_rd:
                sites["writes_rd"].append(step)
                if not instr.is_load and not instr.is_muldiv:
                    sites["alu"].append(step)
            if instr.is_load:
                sites["load"].append(step)
                sites["loadstore"].append(step)
            if instr.is_store:
                sites["store"].append(step)
                sites["loadstore"].append(step)
            if instr.is_compare:
                sites["compare"].append(step)
            if instr.is_muldiv:
                which = "mul" if instr.op in (Op.MUL, Op.MULU) else "div"
                sites[which].append(step)
            if instr.is_branch:
                verdict = self._branch_verdicts(instr, record, step, in_delay)
                sites["branch"].append(step)
                branch_verdict.append(verdict[1])
                if instr.is_cond_branch:
                    sites["cond"].append(step)
                    cond_verdict.append(verdict[0])

        self.sites = sites
        self._reg_reads = reg_reads
        self._reg_writes = reg_writes
        self._cond_verdict = cond_verdict
        self._branch_verdict = branch_verdict

    def _branch_verdicts(self, instr, record, step, in_delay):
        """Static (ctl.flag, ctl.btarget) verdicts for one branch site.

        Both flips leave the branch step's and its delay slot's retire
        records untouched (neither the flag register nor any writeback
        changes); their only lever is the post-delay-slot pc, which is
        golden-trace-visible two steps later.  A ``ctl.flag`` flip
        inverts the taken decision of a BF/BNF; a nonzero ``ctl.btarget``
        mask (the whole population: bits 2..26, inside both the direct
        ``& WORD_MASK`` and the indirect ``& ADDR_MASK & ~3`` reductions)
        perturbs the target of any *taken* branch.  In a delay slot the
        taps still fire but the control effect is architecturally
        dropped, so both flips are no-ops there.
        """
        golden = self.golden
        if in_delay:
            return _BR_SKIP, _BR_SKIP
        if step + 2 >= len(golden):
            return _BR_MATERIALIZE, _BR_MATERIALIZE
        pc = record[0]
        next2 = golden[step + 2][0]
        fall = (pc + 8) & WORD_MASK
        op = instr.op
        if instr.is_cond_branch:
            # Pre-step flag == post-step flag at a branch (branches never
            # write it), and the record carries the post-step flag.
            flag = record[3]
            taken = bool(flag) if op is Op.BF else not flag
            target = (pc + 4 * instr.offset) & WORD_MASK
            flipped_pc2 = fall if taken else target
            cond = _BR_DIVERGE if flipped_pc2 != next2 else _BR_SKIP
            btarget = _BR_DIVERGE if taken else _BR_SKIP
            return cond, btarget
        return _BR_SKIP, _BR_DIVERGE  # J/JAL/JR/JALR: always taken

    # -- per-lane static classification ----------------------------------
    def _reg_first_read_write(self, index, inject_at):
        """(first_read, first_write) steps >= inject_at for register
        ``index`` (None when exhausted).  Reads come from decode
        (operand-port sites); writes from the golden records themselves,
        which include call link writes."""
        if not 0 <= index < registers.NUM_REGS:
            return None, None
        return (_first_at_or_after(self._reg_reads[index], inject_at),
                _first_at_or_after(self._reg_writes[index], inject_at))

    def _plan_rf_transient(self, spec, inject_at, masking):
        """Virtual-lane walk for a transient ``state.rf.*`` fault.

        The flipped cell rides along bit-identically dormant until the
        register is next touched.  A *write* first (writeback happens
        after operand fetch, so a same-step read wins) overwrites the
        flip: the lane is the golden run again, masked and undetected
        with zero simulation.  A *read* first materializes the lane at
        the read step: the cell is untouched between injection and the
        read, so applying the XOR flip there (the schedule's natural
        first application) produces the identical value and stuck
        polarity.  Never touched again: the masking axis still fails the
        final architectural-state compare (the scalar run reports the
        divergence at step ``len(golden)``), the detection axis ends
        undetected.
        """
        first_read, first_write = self._reg_first_read_write(
            spec.index, inject_at)
        if first_write is not None and (first_read is None
                                        or first_write < first_read):
            return ("synth", (True, None, False) if masking
                    else (False, None, False))
        if first_read is None:
            if masking and spec.target == "state.rf.value":
                # Never read, never overwritten: the final architectural
                # state differs (the record stream does not).
                return "synth", (False, len(self.golden), False)
            return ("synth", (True, None, False) if masking
                    else (False, None, False))
        return "mat", first_read

    def _plan_masking(self, spec, duration, inject_at):
        """Masking-axis plan: ``("synth", outcome)`` or
        ``("mat", step)``."""
        target = spec.target
        if target.startswith("inert.") or target.startswith("chk.") \
                or target in _MASKING_INERT:
            return "synth", (True, None, False)
        if target == "ctl.hang":
            # The hang tap is evaluated before anything else in step():
            # the very injection step stalls the pipeline.  Masking runs
            # report it as an unmasked liveness violation on the spot.
            return "synth", (False, inject_at, True)
        if target == "ex.mul.product":
            if spec.mask & WORD_MASK == 0:
                # Only the discarded high half is perturbed; writeback
                # keeps the low word, records never change.
                return "synth", (True, None, False)
            site = _first_at_or_after(self.sites["mul"], inject_at)
            if site is None:
                return "synth", (True, None, False)
            return "synth", (False, site, False)
        cls = _RESULT_CLASS.get(target)
        if cls is not None:
            site = _first_at_or_after(self.sites[cls], inject_at)
            if site is None:
                return "synth", (True, None, False)
            return "synth", (False, site, False)
        if target == "ctl.flag":
            return self._plan_branch(inject_at, "cond", self._cond_verdict)
        if target == "ctl.btarget":
            return self._plan_branch(inject_at, "branch",
                                     self._branch_verdict)
        if target == "state.rf.value":
            if spec.index == LINK or duration != TRANSIENT:
                # The link register also receives DCS retags at block
                # ends (not visible in the records), and permanents
                # interleave stuck-at reasserts with overwrites; both
                # take the generic warm start at the injection step.
                return "mat", inject_at
            plan = self._plan_rf_transient(spec, inject_at, masking=True)
            if plan[0] == "synth":
                return plan
            return "mat", plan[1]
        if target in ("state.pc", "state.flag"):
            return "mat", inject_at
        cls = _MASKING_MATERIALIZE.get(target)
        if cls is not None:
            site = _first_at_or_after(self.sites[cls], inject_at)
            if site is None:
                return "synth", (True, None, False)
            return "mat", site
        # if.pc / if.inst / id.word.fu / id.word.chk (tapped every step),
        # state.mem.*, and any future target: the scalar warm start.
        return "mat", inject_at

    def _plan_branch(self, inject_at, col, verdicts):
        """Walk a branch-flip lane over its precomputed site verdicts."""
        steps = self.sites[col]
        for i in range(bisect.bisect_left(steps, inject_at), len(steps)):
            verdict = verdicts[i]
            if verdict == _BR_DIVERGE:
                return "synth", (False, steps[i] + 2, False)
            if verdict == _BR_MATERIALIZE:
                return "mat", steps[i]
        return "synth", (True, None, False)

    def _plan_detection(self, spec, duration, inject_at):
        """Detection-axis plan: ``("synth", outcome)`` or ``("mat", step)``."""
        target = spec.target
        if target.startswith("inert."):
            return "synth", (False, None, False)
        if target in ("state.rf.value", "state.rf.parity"):
            if spec.index == LINK or duration != TRANSIENT:
                return "mat", inject_at
            plan = self._plan_rf_transient(spec, inject_at, masking=False)
            if plan[0] == "synth":
                return plan
            return "mat", plan[1]
        cls = _DETECTION_SITES.get(target)
        if cls is not None:
            site = _first_at_or_after(self.sites[cls], inject_at)
            if site is None:
                return "synth", (False, None, False)
            return "mat", site
        # Every-step signals, state targets, checker internals, unknowns.
        return "mat", inject_at

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
        the scalar path).

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
            counters["lanes"] += 2
            for detect, planner, out in (
                    (False, self._plan_masking, masking_out),
                    (True, self._plan_detection, detection_out)):
                plan = planner(spec, duration, inject_at)
                if plan[0] == "synth":
                    counters["synthesized_lanes"] += 1
                    out[i] = plan[1]
                else:
                    lanes.append(_Lane(i, detect, spec, duration, inject_at,
                                       plan[1], len(lanes)))
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
