"""Priority job queue over the parallel campaign engine.

A *job* is one submitted campaign spec.  The scheduler owns a priority
queue and a small pool of runner threads; each job is executed by

1. planning the campaign deterministically (the exact
   :func:`repro.runner.plan.plan_campaign` the CLI uses, so a job's
   quadrant summary is bit-identical to a direct ``Campaign.run`` with
   the same seed),
2. serving every experiment whose content key is already in the
   :class:`~repro.service.store.ResultStore` from cache,
3. handing the remaining cache misses to
   :func:`repro.runner.pool.execute_plan`, the path ``Campaign.run``
   and the ``campaign`` CLI take (serial in-process batches, or one
   process pool per plan with fresh-pool retries), and
4. journaling every result (append-only JSONL, flushed per result) so a
   killed server loses nothing: on restart, jobs whose journal is
   incomplete are re-enqueued and resume exactly where they stopped -
   zero lost, zero duplicated experiments (the completed journal is
   compacted, so even a crash's legal duplicate appends are erased).

Durability model: every job persists a ``jobs/<id>.json`` metadata
document (atomic rename) plus its journal and telemetry-event files.
``SIGTERM`` (wired by ``argus-repro serve``) triggers :meth:`drain`:
each running job stops after the result it is committing, state is
persisted, and the process exits; both in-flight and queued jobs
complete after restart.
"""

import json
import os
import queue
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.runner.journal import Journal
from repro.runner.plan import plan_campaign
from repro.runner.pool import default_workers, execute_plan
from repro.runner.telemetry import JsonlTelemetry
from repro.service.store import binary_digest, plan_keys

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_TERMINAL = (DONE, FAILED)

DURATION_CHOICES = ("transient", "permanent", "both")

#: Spec fields since removed: execution modes, speed knobs, and options
#: whose one value is now fixed (``run_slack`` 1.25, double-bit faults
#: included).  Job documents written before then still carry them and
#: load with them dropped; a submission naming one is refused.
_RETIRED_SPEC_FIELDS = ("hybrid", "spot_check_rate", "batched", "batch_size",
                        "checkpoint_interval", "run_slack",
                        "include_double_bits")


class SpecError(ValueError):
    """A submitted campaign spec is malformed (HTTP 400)."""


class RetryPolicy:
    """Bounded exponential backoff: ``base * 2**attempt`` capped at ``cap``.

    One policy object serves the HTTP client's idempotent GETs and the
    fabric coordinator's dispatch/steal loop, so their failure
    behaviour is uniform and uniformly testable (``sleep`` is
    injectable).
    """

    def __init__(self, retries=3, base=0.25, cap=8.0, sleep=time.sleep):
        self.retries = max(0, retries)
        self.base = base
        self.cap = cap
        self._sleep = sleep

    def delay(self, attempt):
        return min(self.cap, self.base * (2 ** attempt))

    def call(self, fn, retry_on=(Exception,), on_retry=None):
        """``fn()`` with up to ``retries`` backed-off re-attempts.

        ``retry_on`` bounds what is worth re-attempting (everything
        else propagates immediately); ``on_retry(attempt)`` runs before
        each backoff sleep (counters, logging).  The final failure
        re-raises the original exception.
        """
        for attempt in range(self.retries + 1):
            try:
                return fn()
            except retry_on:
                if attempt >= self.retries:
                    raise
                if on_retry is not None:
                    on_retry(attempt)
                self._sleep(self.delay(attempt))


class DrainingError(RuntimeError):
    """The scheduler is draining and accepts no new jobs (HTTP 503)."""


class _DrainInterrupt(Exception):
    """Internal: a drain request landed mid-job (job resumes on restart)."""


@dataclass(frozen=True)
class CampaignSpec:
    """A submitted campaign: what to run, not how to schedule it.

    ``workload`` names a bundled program (``stress`` or any
    :data:`repro.workloads.WORKLOADS` entry); ``source`` submits raw
    assembly instead (embedded server-side).  Everything that can alter
    an experiment's outcome is here; scheduling knobs (priority) ride
    along but stay out of the content address.

    ``plan_start``/``plan_stop`` select a *slice* of the deterministic
    plan: the node still plans the full ``experiments``-sized campaign
    (so every experiment keeps its global identity, derived seed and
    content key) but only executes indices ``[plan_start, plan_stop)``.
    This is how the fabric coordinator shards one campaign across a
    fleet - every shard's results are interchangeable with a
    single-node run's.
    """

    workload: Optional[str] = "stress"
    source: Optional[str] = None
    experiments: int = 200
    duration: str = "both"
    seed: int = 0
    use_checkpoints: bool = True
    priority: int = 0
    plan_start: Optional[int] = None
    plan_stop: Optional[int] = None

    _FIELDS = ("workload", "source", "experiments", "duration", "seed",
               "use_checkpoints", "priority", "plan_start", "plan_stop")

    @classmethod
    def from_dict(cls, payload):
        if not isinstance(payload, dict):
            raise SpecError("campaign spec must be a JSON object")
        unknown = set(payload) - set(cls._FIELDS)
        if unknown:
            raise SpecError("unknown spec field(s): %s"
                            % ", ".join(sorted(unknown)))
        try:
            spec = cls(**payload)
        except TypeError as exc:
            raise SpecError(str(exc)) from exc
        spec.validate()
        return spec

    def validate(self):
        from repro.workloads import WORKLOADS

        if self.source is not None and not isinstance(self.source, str):
            raise SpecError("source must be assembly text")
        if self.source is None:
            if self.workload != "stress" and self.workload not in WORKLOADS:
                raise SpecError(
                    "unknown workload %r (have: stress, %s)"
                    % (self.workload, ", ".join(sorted(WORKLOADS))))
        if not isinstance(self.experiments, int) \
                or not 1 <= self.experiments <= 1_000_000:
            raise SpecError("experiments must be an int in [1, 1000000]")
        if self.duration not in DURATION_CHOICES:
            raise SpecError("duration must be one of %s"
                            % (DURATION_CHOICES,))
        if not isinstance(self.seed, int):
            raise SpecError("seed must be an int")
        if not isinstance(self.priority, int):
            raise SpecError("priority must be an int")
        if (self.plan_start is None) != (self.plan_stop is None):
            raise SpecError("plan_start and plan_stop go together")
        if self.plan_start is not None:
            if not isinstance(self.plan_start, int) \
                    or not isinstance(self.plan_stop, int):
                raise SpecError("plan_start/plan_stop must be ints")
            if not 0 <= self.plan_start < self.plan_stop <= self.experiments:
                raise SpecError(
                    "need 0 <= plan_start < plan_stop <= experiments, got "
                    "[%s, %s) of %d"
                    % (self.plan_start, self.plan_stop, self.experiments))

    @property
    def sliced(self):
        """True when this spec covers a shard of the plan, not all of it."""
        return self.plan_start is not None

    def to_dict(self):
        return {name: getattr(self, name) for name in self._FIELDS}

    def durations(self):
        from repro.faults.model import PERMANENT, TRANSIENT

        if self.duration == "both":
            return (TRANSIENT, PERMANENT)
        return (self.duration,)

    def build_campaign(self):
        """Instantiate the Campaign this spec describes (embeds the binary)."""
        from repro.faults.campaign import Campaign
        from repro.faults.stress import build_stress_program
        from repro.toolchain import embed_program
        from repro.workloads import WORKLOADS

        if self.source is not None:
            embedded = embed_program(self.source)
        elif self.workload == "stress":
            embedded = build_stress_program()
        else:
            embedded = WORKLOADS[self.workload].build_embedded()
        return Campaign(embedded=embedded, seed=self.seed,
                        use_checkpoints=self.use_checkpoints)


def _summary_to_dict(summary):
    """JSON-ready quadrant summary (the job-status payload)."""
    return {
        "experiments": summary.total,
        "quadrants": {
            "unmasked_undetected": summary.unmasked_undetected,
            "unmasked_detected": summary.unmasked_detected,
            "masked_undetected": summary.masked_undetected,
            "masked_detected": summary.masked_detected,
        },
        "fractions": summary.fractions(),
        "checker_counts": dict(summary.checker_counts),
        "unmasked_coverage": summary.unmasked_coverage,
        "masked_detection_rate": summary.masked_detection_rate,
    }


@dataclass
class Job:
    """One submitted campaign and its live progress/outcome."""

    job_id: str
    spec: CampaignSpec
    state: str = QUEUED
    error: Optional[str] = None
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    total: int = 0  # planned experiments across all durations
    completed: int = 0  # journaled results (resumed + cached + executed)
    cached: int = 0  # served from the content-addressed store
    executed: int = 0  # actually simulated by this server process
    resumed: int = 0  # already in the journal at (re)start
    summaries: dict = field(default_factory=dict)  # duration -> summary dict

    @property
    def terminal(self):
        return self.state in _TERMINAL

    @property
    def cache_hit_rate(self):
        served = self.cached + self.executed
        return self.cached / served if served else 0.0

    def to_dict(self):
        return {
            "id": self.job_id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "error": self.error,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "total": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "executed": self.executed,
            "resumed": self.resumed,
            "cache_hit_rate": self.cache_hit_rate,
            "summaries": self.summaries,
        }

    @classmethod
    def from_dict(cls, payload):
        """Load a persisted job document (any version this code wrote)."""
        spec = {name: value for name, value in payload["spec"].items()
                if name not in _RETIRED_SPEC_FIELDS}
        return cls(job_id=payload["id"],
                   spec=CampaignSpec.from_dict(spec),
                   state=payload["state"], error=payload.get("error"),
                   created=payload.get("created", 0.0),
                   started=payload.get("started"),
                   finished=payload.get("finished"),
                   total=payload.get("total", 0),
                   completed=payload.get("completed", 0),
                   cached=payload.get("cached", 0),
                   executed=payload.get("executed", 0),
                   resumed=payload.get("resumed", 0),
                   summaries=payload.get("summaries", {}))


class JobScheduler:
    """Runs submitted campaigns from a persistent priority queue.

    ``workers`` is the per-job campaign worker count (1 = in-process
    serial, 0 = auto via :func:`repro.runner.pool.default_workers`,
    N>1 = a process pool per plan); ``job_runners`` is how many jobs
    execute concurrently.  ``retries`` bounds the fresh-pool attempts
    after a worker crash or hang before the plan's rest runs
    in-process; an experiment error fails its job, with ``workers=1``
    at once.
    """

    def __init__(self, store, data_dir, workers=1, job_runners=1,
                 retries=3, remote_store=None):
        self.store = store
        self.data_dir = str(data_dir)
        self.jobs_dir = os.path.join(self.data_dir, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self.workers = default_workers() if workers == 0 else max(1, workers)
        self.job_runners = max(1, job_runners)
        self.retries = max(0, retries)
        #: Optional fabric hook: an object with ``lookup(keys) ->
        #: {key: record}`` that asks peer nodes for cache misses.  It is
        #: an optimization only - any failure degrades to local
        #: execution, never to a failed job.
        self.remote_store = remote_store
        self._queue = queue.PriorityQueue()
        self._seq = 0
        self._jobs = {}
        self._lock = threading.RLock()
        self._threads = []
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._started_at = time.monotonic()
        self._busy_seconds = 0.0
        self._active_jobs = 0
        self._batches_retried = 0
        self._remote_hits = 0

    # -- persistence ---------------------------------------------------------
    def _meta_path(self, job_id):
        return os.path.join(self.jobs_dir, "%s.json" % job_id)

    def journal_path(self, job_id):
        return os.path.join(self.jobs_dir, "%s.journal.jsonl" % job_id)

    def events_path(self, job_id):
        return os.path.join(self.jobs_dir, "%s.events.jsonl" % job_id)

    def _persist(self, job):
        """Atomically write the job's metadata document."""
        path = self._meta_path(job.job_id)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(job.to_dict(), handle, sort_keys=True)
        os.replace(tmp, path)

    # -- submission ----------------------------------------------------------
    def submit(self, spec):
        """Queue a campaign; returns its :class:`Job` immediately."""
        if isinstance(spec, dict):
            spec = CampaignSpec.from_dict(spec)
        if self._draining.is_set():
            raise DrainingError("server is draining; resubmit after restart")
        job = Job(job_id="job-%s" % secrets.token_hex(6), spec=spec)
        with self._lock:
            self._jobs[job.job_id] = job
            self._persist(job)
            self._enqueue(job)
        return job

    def _enqueue(self, job):
        self._seq += 1
        # Higher priority values run first; FIFO within one priority.
        self._queue.put((-job.spec.priority, self._seq, job.job_id))

    def recover(self):
        """Re-enqueue every persisted job that never reached a terminal state.

        Called once at startup.  A job killed mid-run resumes from its
        journal: already-journaled experiments are served as ``resumed``
        and only the remainder execute, so a crash loses at most the
        experiments that were in flight - and duplicates nothing.
        """
        recovered = []
        with self._lock:
            for name in sorted(os.listdir(self.jobs_dir)):
                if not name.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(self.jobs_dir, name)) as handle:
                        job = Job.from_dict(json.load(handle))
                except (ValueError, KeyError, OSError):
                    continue  # torn metadata write; the journal still exists
                self._jobs[job.job_id] = job
                if not job.terminal:
                    job.state = QUEUED
                    self._enqueue(job)
                    recovered.append(job)
        return recovered

    # -- queries -------------------------------------------------------------
    def get(self, job_id):
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self):
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created)

    def metrics(self):
        """Service-level counters for ``GET /metrics``."""
        with self._lock:
            states = {}
            executed = cached = 0
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
                executed += job.executed
                cached += job.cached
            elapsed = time.monotonic() - self._started_at
            busy = self._busy_seconds  # active jobs accrue on completion
            served = executed + cached
            return {
                "uptime_seconds": elapsed,
                "queue_depth": self._queue.qsize(),
                "jobs": states,
                "jobs_total": len(self._jobs),
                "experiments_executed": executed,
                "experiments_cached": cached,
                "cache_hit_rate": cached / served if served else 0.0,
                "throughput_experiments_per_second":
                    executed / busy if busy > 0 else 0.0,
                "worker_utilization":
                    min(1.0, busy / (elapsed * self.job_runners))
                    if elapsed > 0 else 0.0,
                "batches_retried": self._batches_retried,
                "remote_store_hits": self._remote_hits,
                "campaign_workers": self.workers,
                "job_runners": self.job_runners,
                "draining": self._draining.is_set(),
                "store": self.store.stats(),
            }

    # -- lifecycle -----------------------------------------------------------
    def start(self):
        """Start the runner threads (idempotent)."""
        if self._threads:
            return self
        self._stop.clear()
        for index in range(self.job_runners):
            thread = threading.Thread(target=self._run_loop,
                                      name="argus-job-runner-%d" % index,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def drain(self):
        """Stop each running job after the result it is committing;
        running and queued jobs resume on restart."""
        self._draining.set()

    def shutdown(self, wait=True, timeout=None):
        self._draining.set()
        self._stop.set()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
        self._threads = []

    # -- execution -----------------------------------------------------------
    def _run_loop(self):
        last = None  # this thread's previous (campaign key, campaign)
        while not self._stop.is_set():
            if self._draining.is_set():
                return
            try:
                __, __, job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            job = self.get(job_id)
            if job is None or job.terminal:
                continue
            began = time.monotonic()
            with self._lock:
                self._active_jobs += 1
            try:
                last = self._run_job(job, last)
            except _DrainInterrupt:
                # Mid-job drain: metadata stays non-terminal, the journal
                # holds every finished experiment; restart re-enqueues it.
                with self._lock:
                    self._persist(job)
                return
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                last = None
                with self._lock:
                    job.state = FAILED
                    job.error = "%s: %s" % (type(exc).__name__, exc)
                    job.finished = time.time()
                    self._persist(job)
            finally:
                with self._lock:
                    self._active_jobs -= 1
                    self._busy_seconds += time.monotonic() - began

    def _run_job(self, job, last):
        """Run ``job``; returns the ``(key, campaign)`` its runner thread
        keeps.  ``last`` is the pair kept from the thread's previous job:
        its prepared campaign serves this job too, counters zeroed, when
        the binary and the path match.  The seed is not in the key,
        as each job is planned with its own; threads never share a
        campaign, as its engine is not thread-safe."""
        with self._lock:
            job.state = RUNNING
            job.started = job.started or time.time()
            self._persist(job)
        spec = job.spec
        key = (spec.workload, spec.source, spec.use_checkpoints)
        if last is not None and last[0] == key:
            campaign = last[1]
            campaign.reset_perf()
        else:
            campaign = spec.build_campaign()
        digest = binary_digest(campaign.embedded)
        sink = JsonlTelemetry(self.events_path(job.job_id))
        journal = Journal(self.journal_path(job.job_id)).load()
        try:
            journal.ensure_header({"job": job.job_id,
                                   "seed": str(job.spec.seed)})
            plans = [plan_campaign(campaign.points, job.spec.experiments,
                                   duration, seed=job.spec.seed)
                     for duration in job.spec.durations()]
            if job.spec.sliced:
                # A fabric shard: plan the full campaign (identities are
                # global) but execute only this node's slice of it.
                plans = [plan.slice(job.spec.plan_start, job.spec.plan_stop)
                         for plan in plans]
            with self._lock:
                job.total = sum(len(plan) for plan in plans)
                job.completed = job.cached = job.executed = job.resumed = 0
            for plan in plans:
                summary = self._run_plan(job, campaign, digest, plan,
                                         journal, sink)
                with self._lock:
                    job.summaries[plan.duration] = _summary_to_dict(summary)
                    self._persist(job)
            # The journal is complete; erase any crash-resume duplicate
            # appends so the file matches what load() indexes.
            journal.compact()
            with self._lock:
                job.state = DONE
                job.finished = time.time()
                self._persist(job)
        finally:
            journal.close()
            sink.close()
            with self._lock:
                self._batches_retried += campaign.perf["pool_retries"]
        return key, campaign

    def _run_plan(self, job, campaign, digest, plan, journal, sink):
        """One duration of one job: cache, then ``execute_plan`` for
        the misses."""
        journal.register_plan(plan)
        keys = plan_keys(digest, plan)

        done = journal.done_ids(plan)
        if done:
            # A resumed job's finished work also feeds the shared cache -
            # except records a retired execution mode synthesized from a
            # proof (no latencies), which the engine would never write.
            self.store.put_many([(keys[eid], eid, journal.records[eid])
                                 for eid in done
                                 if "synthesized" not in journal.records[eid]])
        with self._lock:
            job.resumed += len(done)
            job.completed += len(done)

        pending = [exp for exp in plan.experiments
                   if exp.experiment_id not in journal.records]
        hits = self.store.get_many([keys[exp.experiment_id]
                                    for exp in pending])
        misses = [exp for exp in pending
                  if keys[exp.experiment_id] not in hits]
        if misses and self.remote_store is not None:
            # Ask the fleet before simulating: a peer may already hold
            # the answer.  Remote hits land in the local store too, so
            # the merged cache spreads as it is used.
            try:
                remote = self.remote_store.lookup(
                    [keys[exp.experiment_id] for exp in misses])
            except Exception:  # noqa: BLE001 - peers are best-effort
                remote = {}
            if remote:
                self.store.put_many(
                    [(keys[exp.experiment_id], exp.experiment_id,
                      remote[keys[exp.experiment_id]])
                     for exp in misses
                     if keys[exp.experiment_id] in remote])
                with self._lock:
                    self._remote_hits += len(remote)
                hits.update(remote)
        for exp in pending:
            record = hits.get(keys[exp.experiment_id])
            if record is not None:
                journal.append_result(exp.experiment_id, record)
                with self._lock:
                    job.cached += 1
                    job.completed += 1

        def commit(experiment_id, record):
            self.store.put(keys[experiment_id], experiment_id, record)
            with self._lock:
                job.executed += 1
                job.completed += 1
            if self._draining.is_set():
                raise _DrainInterrupt()

        # Every hit is journaled now, so resuming runs exactly the misses.
        return execute_plan(campaign, plan, workers=self.workers,
                            journal=journal, resume=True, telemetry=sink,
                            keep_results=False, retries=self.retries,
                            on_record=commit)
