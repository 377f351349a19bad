"""Error-injection campaign orchestration (paper Sec. 4.1, Table 1).

Every experiment injects one fault (one :class:`FaultSpec`, transient,
permanent or intermittent) at a sampled dynamic instruction and
classifies the outcome along the paper's two axes:

* **masked?** - a *masking run* with checkers disabled compares every
  retire record against a golden trace.  A transient fault is held
  active until its first architectural impact and then removed (the
  paper's activation methodology); a permanent fault stays active.  The
  fault is masked iff the run completes with no divergence (a hang is a
  liveness violation, i.e. unmasked).
* **detected?** - a *detection run* with all checkers enabled; any
  :class:`~repro.argus.errors.ArgusError` raised before the (bounded)
  run ends is a detection, attributed to the checker that fired.

The four quadrant counts reproduce Table 1; the per-checker attribution
reproduces Sec. 4.1.1; detection latencies reproduce Sec. 4.2.

A campaign classifies experiments in exactly two ways, with identical
results:

* the **fast path** (default) hands experiments of every duration in
  batches to :class:`repro.cpu.batched.BatchedEngine`, which settles
  what the masking timeline (:mod:`repro.faults.timeline`) proves
  exactly and runs every other lane through the shared loops of
  :mod:`repro.faults.execution`, warm-started at the verdict's start
  from a sweep over the golden run's checkpoints;
* the **reference path** (``use_checkpoints=False``) replays both runs
  of every experiment cold from instruction 0 on the scalar phase
  methods - the independent baseline the fast path is differentially
  tested against.
"""

import random
import time
from dataclasses import dataclass, field
from typing import Optional

import repro.cpu.batched  # here, not in the first batch: see _engine_or_none
from repro.cpu.checkedcore import CheckedCore
from repro.faults.checkpoint import record_checkpoints
from repro.faults.execution import detection_loop, masking_loop
from repro.faults.injector import SignalInjector
from repro.faults.model import (FaultSchedule, INJECT_FRACTION, PERMANENT,
                                RUN_SLACK, TRANSIENT)
from repro.faults.points import build_point_population
from repro.faults.stress import build_stress_program
from repro.faults.timeline import MaskingTimeline


def _event_attribution(event, latency):
    """JSON-ready attribution dict from an executed detection event.

    Captures the information the diagnosis engine needs - which checker
    fired, where (pc/block), the latency triple, and the raw checker
    residues - without keeping the DetectionEvent itself (results must
    pickle cheaply across worker processes and serialize to the
    journal).
    """
    attribution = {
        "checker": event.checker,
        "pc": event.pc,
        "block_index": event.block_index,
        "latency": {
            "instructions": latency["instructions"],
            "cycles": latency["cycles"],
            "blocks": latency["blocks"],
        },
    }
    if event.payload is not None:
        attribution["residues"] = dict(event.payload)
    return attribution


@dataclass
class ExperimentResult:
    """Classified outcome of one fault-injection experiment."""

    spec: object
    duration: str  # transient | permanent | intermittent
    inject_at: int  # dynamic instruction index of injection
    masked: bool
    detected: bool
    checker: Optional[str] = None  # which checker fired (detected only)
    detail: str = ""
    activated_at: Optional[int] = None  # first architectural divergence
    latency_instructions: Optional[int] = None
    latency_cycles: Optional[int] = None
    latency_blocks: Optional[int] = None
    hung: bool = False
    #: Structured detector attribution for detections: checker id,
    #: firing site (pc/block), latency triple and the raw checker
    #: residues from the DetectionEvent payload.  None when undetected.
    attribution: Optional[dict] = None

    @property
    def silent(self):
        """Unmasked and undetected: a silent data corruption."""
        return not self.masked and not self.detected

    @property
    def quadrant(self):
        if self.masked:
            return "masked_detected" if self.detected else "masked_undetected"
        return "unmasked_detected" if self.detected else "unmasked_undetected"


@dataclass
class CampaignSummary:
    """Aggregated campaign results in the shape of Table 1.

    With ``keep_results=False`` the summary runs in streaming mode: it
    aggregates only the quadrant and per-checker counters and drops the
    individual :class:`ExperimentResult` objects, so million-experiment
    campaigns (and the parallel engine, which defaults to streaming for
    its CLI paths) hold O(1) memory instead of O(experiments).
    """

    duration: str
    total: int = 0
    unmasked_undetected: int = 0  # silent data corruption
    unmasked_detected: int = 0
    masked_undetected: int = 0
    masked_detected: int = 0  # DME
    checker_counts: dict = field(default_factory=dict)
    results: list = field(default_factory=list)
    keep_results: bool = True

    def add(self, result):
        self.total += 1
        setattr(self, result.quadrant, getattr(self, result.quadrant) + 1)
        if result.detected:
            self.checker_counts[result.checker] = (
                self.checker_counts.get(result.checker, 0) + 1
            )
        if self.keep_results:
            self.results.append(result)

    def fractions(self):
        """Quadrant fractions (of all injections), as Table 1 reports."""
        if not self.total:
            return {}
        return {
            "unmasked_undetected": self.unmasked_undetected / self.total,
            "unmasked_detected": self.unmasked_detected / self.total,
            "masked_undetected": self.masked_undetected / self.total,
            "masked_detected": self.masked_detected / self.total,
        }

    @property
    def unmasked_coverage(self):
        """Fraction of unmasked errors that were detected (paper: >98%)."""
        unmasked = self.unmasked_detected + self.unmasked_undetected
        if not unmasked:
            return 1.0
        return self.unmasked_detected / unmasked

    @property
    def masked_detection_rate(self):
        masked = self.masked_detected + self.masked_undetected
        if not masked:
            return 0.0
        return self.masked_detected / masked


class Campaign:
    """A fault-injection campaign over one embedded workload.

    ``use_checkpoints`` (default on) selects the fast path: the golden
    run snapshots the core every 64 instructions (thinned past the
    store's bound, see :mod:`repro.faults.checkpoint`) and the batched
    engine, built lazily by the first batch, classifies experiments of
    every duration against it.  ``use_checkpoints=False`` (CLI
    ``--no-checkpoints``) is the reference path: every experiment's
    masking and detection runs replay cold from instruction 0.  Both
    paths write identical records; ``tests/test_batched.py`` and
    ``tests/test_timeline_oracle.py`` check that differentially.

    ``seed`` fixes the sample: :meth:`run` always executes the seed's
    plan (:func:`repro.runner.plan.plan_campaign`).

    ``batched`` is accepted and ignored: the engine is always on.
    """

    def __init__(self, embedded=None, seed=0, use_checkpoints=True,
                 batched=None):
        self.embedded = embedded if embedded is not None else build_stress_program()
        self.seed = seed
        self.points = build_point_population()
        self.use_checkpoints = use_checkpoints
        self.reset_perf()
        self._timeline = None
        self._golden = None
        self._golden_final = None
        self._checkpoints = None
        self._engine = None

    def reset_perf(self):
        """Zero the wall-clock/throughput accounting that telemetry and
        ``campaign --json`` report.  The engine counts into it as the
        batches run, and pool workers ship per-batch deltas of it."""
        self.perf = {
            "experiments": 0,
            "elapsed": 0.0,
            "batches": 0,
            "lanes": 0,
            "synthesized_lanes": 0,
            "evicted_lanes": 0,
            "sweep_instructions": 0,
            "lane_instructions": 0,
            "reconverged_lanes": 0,  # lanes ended at a golden checkpoint
            "pool_retries": 0,  # pool passes re-run after a crash or hang
        }

    def __getstate__(self):
        """Pickle the prepared golden state without the engine, whose
        sweep core and core pools belong to one process; a spawned pool
        worker builds its own from the rest."""
        state = self.__dict__.copy()
        state["_engine"] = None
        return state

    # -- golden reference --------------------------------------------------
    def golden_trace(self):
        """Retire records of the fault-free run (computed once).

        On the fast path the golden run executes with checkers *on* and
        snapshots the complete core state every 64 instructions as it
        goes; a fault-free checkers-on run retires the identical trace
        (checkers only observe), so one snapshot set serves both
        experiment phases.  The reference path runs checkers off and
        keeps no snapshots.  A checker that fires on the fault-free run
        is an embedding bug (``false_positive_check`` exists to catch
        those), and its error propagates.  The masking runs compare
        their final state with the golden run's masking view at halt.
        """
        if self._golden is None:
            core = CheckedCore(self.embedded, detect=self.use_checkpoints)
            trace = []
            if self.use_checkpoints:
                self._checkpoints = record_checkpoints(core, trace=trace)
            else:
                while not core.halted:
                    trace.append(core.step())
            self._golden_final = core.snapshot().masking_view()
            self._golden = trace
        return self._golden

    def checkpoints(self):
        """The golden run's CheckpointStore (None when disabled)."""
        self.golden_trace()
        return self._checkpoints

    def timeline(self):
        """The workload's :class:`~repro.faults.timeline.MaskingTimeline`
        (built lazily from the golden trace, computed once).  The engine
        plans against it, so the first engine batch builds it - never
        ``Campaign()`` or :meth:`golden_trace`, whose cost and memory
        are the campaign's set-up."""
        if self._timeline is None:
            self._timeline = MaskingTimeline(self.embedded.program,
                                             self.golden_trace())
        return self._timeline

    @property
    def golden_length(self):
        return len(self.golden_trace())

    def _inject_span(self):
        """Injection instructions are drawn from ``[0, span)``."""
        return max(int(self.golden_length * INJECT_FRACTION), 1)

    # -- scalar phases -------------------------------------------------------
    def _new_core(self, spec, detect):
        """A fresh ``(core, injector)`` for one run of ``spec``, on both
        paths.  The engine recycles a core for later faults of the same
        ``detect``, swapping only the injector, so an override may vary
        the core with ``detect`` but not with ``spec``."""
        injector = None if spec.is_state else SignalInjector(spec)
        core = CheckedCore(self.embedded, injector=injector, detect=detect)
        return core, injector

    def _masking_run(self, spec, duration, inject_at):
        """Cold checkers-off run from instruction 0; returns (masked,
        activated_at, hung)."""
        golden = self.golden_trace()
        limit = int(len(golden) * RUN_SLACK) + 64
        core, injector = self._new_core(spec, detect=False)
        schedule = FaultSchedule(spec, duration, inject_at)
        return masking_loop(core, injector, schedule, golden,
                            self._golden_final, limit, 0)

    def _detection_run(self, spec, duration, inject_at):
        """Cold checkers-on run from instruction 0; returns (detected,
        event, hung)."""
        golden = self.golden_trace()
        limit = int(len(golden) * RUN_SLACK) + 64
        core, injector = self._new_core(spec, detect=True)
        schedule = FaultSchedule(spec, duration, inject_at)
        return detection_loop(core, injector, schedule, golden, limit, 0)

    def _assemble(self, spec, duration, inject_at, masking, detection):
        """Build the ExperimentResult from the two phase outcomes.

        ``masking`` is the (masked, activated_at, hung) triple of a
        masking run, ``detection`` the (detected, info, hung) triple of
        a detection run - whether they came from the scalar phase
        methods or from engine lanes (both execute the loops in
        :mod:`repro.faults.execution`, so the triples are bit-identical).
        """
        masked, activated_at, hung1 = masking
        detected, info, hung2 = detection
        checker = None
        detail = ""
        lat_i = lat_c = lat_b = None
        attribution = None
        if detected:
            event, latency = info
            checker = event.checker
            detail = event.detail
            lat_i = latency["instructions"]
            lat_c = latency["cycles"]
            lat_b = latency["blocks"]
            attribution = _event_attribution(event, latency)
        return ExperimentResult(
            spec=spec,
            duration=duration,
            inject_at=inject_at,
            masked=masked,
            detected=detected,
            checker=checker,
            detail=detail,
            activated_at=activated_at,
            latency_instructions=lat_i,
            latency_cycles=lat_c,
            latency_blocks=lat_b,
            hung=hung1 or hung2,
            attribution=attribution,
        )

    def _execute(self, spec, duration, inject_at):
        """Run both scalar phases cold (the reference path); returns an
        ExperimentResult."""
        masking = self._masking_run(spec, duration, inject_at)
        detection = self._detection_run(spec, duration, inject_at)
        return self._assemble(spec, duration, inject_at, masking, detection)

    # -- the engine ----------------------------------------------------------
    def _engine_or_none(self):
        """The lazily built :class:`~repro.cpu.batched.BatchedEngine`,
        or None on the reference path.  Either way the call *prepares*
        the campaign: the golden run and its checkpoints, plus the
        timeline on the fast path.

        The engine leans on the golden checkpoint store (sweep jumps,
        reconvergence views), on the golden checkers-on run being
        detection-clean (``golden_trace`` raises otherwise) and on
        :meth:`timeline`, its index of the golden trace.  Its module and
        the timeline's are imported with this one: where bytecode is not
        cached, compiling the engine inside a service's first job raised
        the process's peak memory by about 1 MB.
        """
        if self._engine is None:
            self.golden_trace()
            if not self.use_checkpoints:
                return None
            self._engine = repro.cpu.batched.BatchedEngine(self)
        return self._engine

    def _run_entries(self, entries):
        """Classify ``entries`` = [(spec, duration, inject_at)] as one
        engine batch, or on the scalar phase methods on the reference
        path; returns ExperimentResults in entry order."""
        start = time.perf_counter()
        engine = self._engine_or_none()
        if engine is None:
            results = [self._execute(*entry) for entry in entries]
        else:
            results = [self._assemble(*entry, masking, detection)
                       for entry, (masking, detection)
                       in zip(entries, engine.run_batch(entries))]
        self.perf["experiments"] += len(entries)
        self.perf["elapsed"] += time.perf_counter() - start
        return results

    # -- experiments ---------------------------------------------------------
    def run_experiment(self, spec, duration, inject_at):
        """Classify one fault injected at dynamic instruction
        ``inject_at``."""
        return self._run_entries([(spec, duration, inject_at)])[0]

    def run_planned(self, planned):
        """Run one :class:`~repro.runner.plan.PlannedExperiment`."""
        return self.run_planned_batch([planned])[0]

    def run_planned_batch(self, batch):
        """Run a list of PlannedExperiments as one engine batch.

        Every random choice (the injection instruction index) comes from
        each experiment's own derived seed, so an outcome depends only on
        the experiment's identity - the keystone of
        worker-count-independent results - and is the same for any
        grouping into batches.
        """
        span = self._inject_span()
        return self._run_entries([
            (planned.spec, planned.duration,
             random.Random(planned.seed).randrange(0, span))
            for planned in batch])

    def perf_rates(self):
        """``self.perf`` plus derived throughput rates (for telemetry and
        the CLI's ``--json`` perf block)."""
        perf = dict(self.perf)
        elapsed = perf["elapsed"]
        instructions = perf["sweep_instructions"] + perf["lane_instructions"]
        perf["experiments_per_second"] = (
            perf["experiments"] / elapsed if elapsed > 0 else 0.0)
        perf["instructions_per_second"] = (
            instructions / elapsed if elapsed > 0 else 0.0)
        lanes = perf["lanes"]
        perf["eviction_rate"] = (
            perf["evicted_lanes"] / lanes if lanes else 0.0)
        return perf

    # -- whole campaign ------------------------------------------------------
    def run(self, experiments=1000, duration=TRANSIENT, workers=None,
            journal=None, resume=False, telemetry=None, keep_results=True,
            timeout=None, retries=2):
        """Run ``experiments`` weighted-sampled injections of one duration.

        The experiment list is the seed's plan,
        :func:`repro.runner.plan.plan_campaign` over ``(self.seed,
        duration)``, executed by :func:`repro.runner.pool.execute_plan`:
        in-process by default (``workers=None`` or 1), across worker
        processes for ``workers`` > 1 (0 = one per CPU), optionally
        journaled for crash-safe ``resume``, and aggregated in plan
        order.  The same arguments give the same summary for any worker
        count and on every call.  ``telemetry=`` feeds a
        :mod:`repro.runner.telemetry` sink.
        """
        from repro.runner import execute_plan, plan_campaign

        plan = plan_campaign(self.points, experiments, duration,
                             seed=self.seed)
        return execute_plan(
            self, plan, workers=1 if workers is None else workers,
            journal=journal, resume=resume, telemetry=telemetry,
            keep_results=keep_results, timeout=timeout, retries=retries)

    def run_both(self, experiments=1000, workers=None, journal=None,
                 resume=False, telemetry=None, keep_results=True,
                 timeout=None, retries=2):
        """Transient + permanent campaigns (the two rows of Table 1).

        A single ``journal`` file holds both rows (experiment ids are
        duration-prefixed), so one ``--resume`` covers the whole table.
        """
        return {
            duration: self.run(experiments, duration, workers=workers,
                               journal=journal, resume=resume,
                               telemetry=telemetry,
                               keep_results=keep_results, timeout=timeout,
                               retries=retries)
            for duration in (TRANSIENT, PERMANENT)
        }

    def false_positive_check(self, runs=3):
        """Sec. 4.1.2: with no injected faults, no checker may ever fire.

        Returns the number of error-free runs completed (raises on any
        false positive).
        """
        for _ in range(runs):
            core = CheckedCore(self.embedded, detect=True)
            core.run()
        return runs
