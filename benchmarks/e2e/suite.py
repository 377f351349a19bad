"""The four benchmark workloads and the metrics they report.

Every workload runs the default engine - ``Campaign(embedded=...,
seed=...)`` with no speed knobs - because every in-tree caller does.
Three workloads drive the library directly, handing chunks of pool
experiments to :func:`repro.runner.execute_plan` with ``workers=1``
(the path ``Campaign.run(workers=1)`` takes) until the run's time is
up.  After a small first chunk, each chunk is sized to fill the time
left, from the pinned cost of its experiments and the time per unit of
cost so far, so an engine that gains from seeing many experiments at
once gets them.  The fourth drives the job service over HTTP in a
closed loop.

Every outcome is compared with the pinned reference (see ``pools.py``);
an experiment that raised, was lost or differs counts as failed.
"""

import contextlib
import gc
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import pools
import spans

#: End-to-end metrics (reported with ``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "exp_per_s": "exp/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (reported with ``--trace 1``): name -> unit.
#: Work and busy time inside the measured window are per experiment, so
#: they do not scale with how many experiments fit in the window; the
#: ``*_ms_per_exp`` self times add up to the traced time per experiment.
#: Service-only layers are shares of the client-observed job time, so
#: they read 0 - not a time - on the library workloads.
PER_LAYER = {
    "embed.s": "s",
    "golden.run_s": "s",
    "golden.instructions": "count",
    "golden.ips": "instr/s",
    "golden.checkpoints": "count",
    "core.constructs_per_exp": "1/exp",
    "core.construct_ms_per_exp": "ms",
    "checkpoint.restores_per_exp": "1/exp",
    "checkpoint.restore_ms_per_exp": "ms",
    "masking.calls_per_exp": "1/exp",
    "masking.ms_per_exp": "ms",
    "masking.instructions_per_exp": "instr/exp",
    "masking.ips": "instr/s",
    "masking.reconverged_frac": "fraction",
    "detection.calls_per_exp": "1/exp",
    "detection.ms_per_exp": "ms",
    "detection.instructions_per_exp": "instr/exp",
    "detection.ips": "instr/s",
    "detection.detected_frac": "fraction",
    "campaign.self_ms_per_exp": "ms",
    "timeline.build_s": "s",
    "sites.build_s": "s",
    "journal.appends_per_exp": "1/exp",
    "journal.append_frac": "fraction",
    "journal.compact_frac": "fraction",
    "store.lookups_per_exp": "1/exp",
    "store.hit_frac": "fraction",
    "store.get_frac": "fraction",
    "store.puts_per_exp": "1/exp",
    "store.put_frac": "fraction",
    "scheduler.build_frac": "fraction",
    "scheduler.queue_wait_frac": "fraction",
    "http.submit_frac": "fraction",
    "http.stream_lag_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

#: Which span a per-layer metric is derived from; a metric whose span
#: has no installed hook is reported as null.
_METRIC_SPAN = {
    "embed.s": "embed",
    "golden.": "golden",
    "core.": "core.construct",
    "checkpoint.": "checkpoint.restore",
    "masking.": "masking",
    "detection.": "detection",
    "campaign.": "campaign",
    "journal.append": "journal.append",
    "journal.compact": "journal.compact",
    "store.lookups": "store.get",
    "store.hit_frac": "store.get",
    "store.get": "store.get",
    "store.put": "store.put",
    "scheduler.build": "scheduler.build",
}

#: Setups per run: at least this many, more while they are cheap.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 41, 2.0

#: service_overlap: experiments per job in one cycle - a cold job, the
#: same seed at twice the size (half cached), then an identical resubmit.
CYCLE = (40, 80, 80)

#: Experiments in a library workload's first chunk.  It measures the
#: host seconds per unit of pinned cost that size the later chunks.
FIRST_CHUNK = 4

#: Host-speed calibration.  On the shared 2-core host the bounds were
#: measured on, other tenants slowed the CPU by up to 2.2x, drifting
#: over tens of seconds, which would swamp any bound on a time.  A fixed
#: pure-Python loop that shares no code with the program is timed
#: around every set-up and between experiments (or jobs) every
#: CALIBRATION_INTERVAL_S, and times and rates are scaled to a host on
#: which one loop takes REFERENCE_SLICE_S (the median on that host;
#: it fixes the unit only, as every bound is relative).
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_ITERATIONS = 20000
REFERENCE_SLICE_S = 0.0019


def _span(tracer, name, **attrs):
    return contextlib.nullcontext() if tracer is None else tracer.span(
        name, **attrs)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibration_loop():
    total = 0
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return total


class HostSpeed:
    """Samples the calibration loop; each sample stands for the work
    done since the previous one.  With a tracer, each sample is its own
    ``calibration`` span, so no layer's self time includes it."""

    def __init__(self, tracer=None):
        self.samples = []  # (loop seconds, work seconds it stands for)
        self.tracer = tracer
        self._last = time.perf_counter()

    def sample(self):
        # Hold the interpreter lock for the whole loop, so that the
        # service's server and scheduler threads cannot stretch it.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            with _span(self.tracer, "calibration"):
                start = time.perf_counter()
                _calibration_loop()
                end = time.perf_counter()
        finally:
            sys.setswitchinterval(interval)
        self.samples.append((end - start, max(start - self._last, 1e-3)))
        self._last = end

    def maybe_sample(self, _event=None):
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.sample()

    @property
    def spent(self):
        return sum(loop for loop, _work in self.samples)

    def factor(self):
        """Work-weighted mean loop time over the reference: above 1 on
        a slower host.  Loops are clipped at twice the median, so one
        preempted loop cannot skew a run."""
        cap = 2.0 * statistics.median(loop for loop, _work in self.samples)
        weight = sum(work for _loop, work in self.samples)
        mean = sum(min(loop, cap) * work
                   for loop, work in self.samples) / weight
        return mean / REFERENCE_SLICE_S


@dataclass
class Run:
    """What one measured window produced."""

    elapsed: float  # wall time of the window, calibration included
    units: list  # chunks of pool entries, or service cycle seeds
    checked: list = field(default_factory=list)  # (key, ok) per experiment
    window_start: float = 0.0
    jobs: list = field(default_factory=list)  # service only
    peak_rss_mb: float = 0.0  # after a fixed amount of work (see measure)
    work: float = 0.0  # experiments done, weighted by pinned cost (library)
    seeds_exhausted: bool = False  # service: the window ended early

    @property
    def experiments(self):
        return len(self.checked)

    @property
    def failed_keys(self):
        return [key for key, ok in self.checked if not ok]


def _report_error(context):
    sys.stderr.write("error during %s:\n%s" % (context, traceback.format_exc()))


# -- library workloads ---------------------------------------------------------

class _Sequence:
    """Seed-ordered pool entries, reshuffled on each pass over the pool.
    A chunk never spans two passes, so its experiment ids are unique."""

    def __init__(self, pool, entries, seed):
        self.pool = pool
        self.entries = entries
        self.seed = seed
        self.passes = 0
        self.order = []
        self.position = 0

    def take(self, count=None, cost=None):
        """The next ``count`` entries, or as many as fit in ``cost``
        (at least one)."""
        if self.position >= len(self.order):
            label = "%s/%d" % (self.pool.name, self.passes)
            self.order = pools.stratified_order(self.entries, self.seed,
                                                label)
            self.passes += 1
            self.position = 0
        stop = self.position + 1
        if count is not None:
            stop = self.position + count
        else:
            budget = cost - self.order[self.position].cost
            while stop < len(self.order) and budget >= self.order[stop].cost:
                budget -= self.order[stop].cost
                stop += 1
        chunk = self.order[self.position:stop]
        self.position += len(chunk)
        return chunk


class LibraryWorkload:
    def __init__(self, name, pool, why):
        self.name = name
        self.pool = pools.POOLS[pool]
        self.why = why

    def setup(self, seed):
        """embed + ``Campaign()`` + ``golden_trace()``; (campaign, seconds)."""
        from repro.faults.campaign import Campaign

        start = time.perf_counter()
        embedded = self.pool.build_embedded()
        campaign = Campaign(embedded=embedded, seed=seed)
        campaign.golden_trace()
        return campaign, time.perf_counter() - start

    def measure(self, campaign, entries, seed, seconds, tracer=None,
                replay=None, first_chunk=FIRST_CHUNK, host=None):
        """Run pool experiments until ``seconds`` pass (or replay the
        recorded chunks of an earlier window) and check every outcome.
        ``host`` samples the calibration loop between experiments."""
        from repro.runner import CallbackTelemetry, CampaignPlan, execute_plan

        planner = pools.Planner(self.pool, campaign.points)
        sequence = _Sequence(self.pool, entries, seed)
        telemetry = None
        if host is not None:
            telemetry = CallbackTelemetry(host.maybe_sample)
        done = []  # (entry, ExperimentResult or None)
        chunks = []
        # Read before any experiment: a silent-corruption experiment
        # lifts adpcm_enc's peak by 11-14 MB, and whether a window's
        # first experiments include one depends on the seed.
        rss = peak_rss_mb()
        start = time.perf_counter()
        if host is not None:
            host.sample()
        now = start
        budget = None
        while True:
            if replay is not None:
                chunk = replay[len(chunks)]
            elif budget is None:
                chunk = sequence.take(count=first_chunk)
            else:
                chunk = sequence.take(cost=budget)
            chunks.append(chunk)
            try:
                with _span(tracer, "campaign"):
                    plan = CampaignPlan(
                        duration=self.pool.duration, seed=seed,
                        experiments=tuple(planner.planned(entry)
                                          for entry in chunk))
                    summary = execute_plan(campaign, plan, workers=1,
                                           telemetry=telemetry)
                done.extend(zip(chunk, summary.results))
            except Exception:  # noqa: BLE001 - a run boundary: report, stop
                _report_error("campaign chunk")
                done.extend((entry, None) for entry in chunk)
                now = time.perf_counter()
                break
            now = time.perf_counter()
            if replay is not None:
                if len(chunks) == len(replay):
                    break
                continue
            remaining = start + seconds - now
            if remaining <= 0:
                break
            # Size the next chunk to fill the remaining time, from the
            # host seconds per unit of pinned cost so far.
            work = now - start - (host.spent if host is not None else 0.0)
            budget = remaining * sum(entry.cost for entry, _ in done) / work
        mean_cost = sum(entry.cost for entry in entries) / len(entries)
        run = Run(elapsed=now - start, units=chunks, window_start=start,
                  peak_rss_mb=rss,
                  work=sum(entry.cost for entry, _ in done) / mean_cost)
        run.checked = [(entry.key, result is not None and pools.outcome_of(
            result) == (entry.quadrant, entry.checker, entry.latency))
            for entry, result in done]
        return run

    def teardown(self, campaign):
        """Nothing to stop: the campaign is garbage once dropped."""

    def probes(self, campaign, seed):
        return probe_builds(campaign, seed)


def probe_builds(campaign, seed):
    """Builds that are not on the default path, timed directly: the
    masking timeline and the batched engine's site tables."""
    from repro.faults.campaign import Campaign

    start = time.perf_counter()
    campaign.timeline()
    timeline_s = time.perf_counter() - start
    batched = Campaign(embedded=campaign.embedded, seed=seed, batched=True)
    batched.golden_trace()
    start = time.perf_counter()
    batched.run_planned_batch([])
    return {"timeline.build_s": timeline_s,
            "sites.build_s": time.perf_counter() - start}


# -- service workload ----------------------------------------------------------

@dataclass
class _Job:
    job_id: str
    seed: int
    experiments: int
    latency: float  # submit -> end of the event stream, seconds
    stream_end: float  # wall clock at the end of the stream
    doc: dict = field(default_factory=dict)  # final job document


class _Service:
    """An in-process store + scheduler + HTTP server under ``data_dir``."""

    def __init__(self, work_dir):
        from repro.service import (JobScheduler, ResultStore, ServiceClient,
                                   ServiceServer)

        self.data_dir = tempfile.mkdtemp(prefix="service-", dir=work_dir)
        self.store = ResultStore(os.path.join(self.data_dir, "store.sqlite"))
        self.scheduler = JobScheduler(self.store, self.data_dir, workers=1,
                                      job_runners=1).start()
        self.server = ServiceServer(self.scheduler, port=0)
        host, port = self.server.start_in_thread()
        self.client = ServiceClient("http://%s:%d" % (host, port))
        self.client.healthz()

    def close(self):
        self.server.stop()
        self.scheduler.shutdown()
        self.store.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


class ServiceWorkload:
    def __init__(self, name, pool, why, work_dir):
        self.name = name
        self.pool = pools.POOLS[pool]
        self.why = why
        self.work_dir = work_dir

    def setup(self, seed):
        """Open the store, start scheduler and server, first /healthz."""
        start = time.perf_counter()
        service = _Service(self.work_dir)
        return service, time.perf_counter() - start

    def teardown(self, service):
        service.close()

    def measure(self, service, entries, seed, seconds, tracer=None,
                replay=None, first_chunk=FIRST_CHUNK, host=None):
        """Closed loop, one client: submit a job, read its event stream
        to the end, submit the next; whole cycles run until ``seconds``
        pass (``first_chunk`` is unused).  Results are fetched and
        checked after the timed window; ``host`` samples the calibration
        loop between jobs."""
        client = service.client
        seeds = replay if replay is not None else pools.job_seeds(self.pool,
                                                                   seed)
        jobs = []
        cycles = []
        rss = None
        start = time.perf_counter()
        if host is not None:
            host.sample()
        for cycle_seed in seeds:
            if replay is None and cycles and time.perf_counter() - start >= seconds:
                break
            cycles.append(cycle_seed)
            for experiments in CYCLE:
                spec = {"workload": self.pool.program,
                        "duration": self.pool.duration,
                        "experiments": experiments, "seed": cycle_seed}
                began = time.perf_counter()
                with _span(tracer, "job", seed=cycle_seed) as job_span:
                    with _span(tracer, "http.submit"):
                        doc = client.submit(spec)
                    if job_span is not None:
                        job_span.attrs["job"] = doc["id"]
                    for _event in client.events(doc["id"]):
                        pass
                jobs.append(_Job(doc["id"], cycle_seed, experiments,
                                 time.perf_counter() - began, time.time()))
                if host is not None:
                    host.maybe_sample()
            if rss is None:
                # After one cycle, a fixed amount of work: the memory
                # finished jobs keep grows with every cycle (see README),
                # so a read at the window's end would grow with speed.
                rss = peak_rss_mb()
        elapsed = time.perf_counter() - start
        run = Run(elapsed=elapsed, units=cycles, window_start=start, jobs=jobs,
                  peak_rss_mb=rss,
                  work=sum(job.experiments for job in jobs),
                  seeds_exhausted=replay is None and elapsed < seconds)
        if run.seeds_exhausted:
            sys.stderr.write(
                "%s: all %d job seeds used after %.1f s of a %.1f s window; "
                "pin more seeds in pools.py\n"
                % (self.name, len(seeds), elapsed, seconds))
        reference = {(entry.seed, entry.experiment_id): entry
                     for entry in entries}
        for job in jobs:
            ids = ["%s/%06d" % (self.pool.duration, index)
                   for index in range(job.experiments)]
            try:
                job.doc = client.job(job.job_id)
                records = client.results(job.job_id)
            except Exception:  # noqa: BLE001 - a lost job fails its experiments
                _report_error("fetching %s" % job.job_id)
                records = {}
            for experiment_id in ids:
                entry = reference[(job.seed, experiment_id)]
                record = records.get(experiment_id)
                ok = (job.doc.get("state") == "done" and record is not None
                      and pools.record_outcome(record) == (
                          entry.quadrant, entry.checker, entry.latency))
                run.checked.append(("%s:%s" % (job.job_id, entry.key), ok))
        return run

    def probes(self, service, seed):
        from repro.faults.campaign import Campaign

        campaign = Campaign(embedded=self.pool.build_embedded(), seed=seed)
        campaign.golden_trace()
        return probe_builds(campaign, seed)


def job_percentiles(run):
    latencies = [job.latency * 1000.0 for job in run.jobs]
    if len(latencies) < 2:
        return {}
    return {"job_p50_ms": statistics.median(latencies),
            "job_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "jobs": len(latencies)}


# -- per-layer metrics from the spans ------------------------------------------

def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, run, missing_spans, probes, overhead):
    """Every PER_LAYER metric from one traced window (see README)."""
    selfs = spans.self_times(tracer.spans)
    every = {}
    window = {}
    for span in tracer.spans:
        every.setdefault(span.name, []).append(span)
        if span.start >= run.window_start:
            window.setdefault(span.name, []).append(span)

    def total(name, source=window):
        return sum(span.duration for span in source.get(name, ()))

    def self_total(name):
        return sum(selfs[span.id] for span in window.get(name, ()))

    def attr_sum(name, attr, source=window):
        return sum(span.attrs.get(attr, 0) for span in source.get(name, ()))

    golden = every.get("golden", [])
    golden_instr = attr_sum("golden", "instructions", every)
    experiments = run.experiments or 1

    def per_exp(value, scale=1.0):
        return value * scale / experiments

    metrics = {
        "embed.s": _mean([span.duration for span in every.get("embed", ())]),
        "golden.run_s": _mean([span.duration for span in golden]),
        "golden.instructions": golden_instr // len(golden) if golden else 0,
        "golden.ips": golden_instr / total("golden", every) if golden else 0.0,
        "golden.checkpoints": (attr_sum("golden", "checkpoints", every)
                               // len(golden) if golden else 0),
        "core.constructs_per_exp": per_exp(len(window.get("core.construct", ()))),
        "core.construct_ms_per_exp": per_exp(total("core.construct"), 1e3),
        "checkpoint.restores_per_exp": per_exp(
            len(window.get("checkpoint.restore", ()))),
        "checkpoint.restore_ms_per_exp": per_exp(total("checkpoint.restore"),
                                                 1e3),
        "campaign.self_ms_per_exp": per_exp(self_total("campaign"), 1e3),
    }
    for name in ("masking", "detection"):
        calls = window.get(name, [])
        instructions = attr_sum(name, "instructions")
        busy = total(name)
        metrics["%s.calls_per_exp" % name] = per_exp(len(calls))
        metrics["%s.ms_per_exp" % name] = per_exp(self_total(name), 1e3)
        metrics["%s.instructions_per_exp" % name] = per_exp(instructions)
        metrics["%s.ips" % name] = instructions / busy if busy else 0.0
    masking = window.get("masking", [])
    metrics["masking.reconverged_frac"] = (
        sum(1 for s in masking if s.attrs.get("positive")
            and not s.attrs.get("halted")) / len(masking) if masking else 0.0)
    detection = window.get("detection", [])
    metrics["detection.detected_frac"] = (
        sum(1 for s in detection if s.attrs.get("positive")) / len(detection)
        if detection else 0.0)

    job_time = sum(job.latency for job in run.jobs)

    def share(seconds):
        return seconds / job_time if job_time else 0.0

    lookups = attr_sum("store.get", "items")
    queue_wait = stream_lag = 0.0
    for job in run.jobs:
        doc = job.doc
        if doc.get("started") and doc.get("created"):
            queue_wait += max(0.0, doc["started"] - doc["created"])
        if doc.get("finished"):
            stream_lag += max(0.0, job.stream_end - doc["finished"])
    metrics.update({
        "journal.appends_per_exp": per_exp(len(window.get("journal.append",
                                                          ()))),
        "journal.append_frac": share(total("journal.append")),
        "journal.compact_frac": share(total("journal.compact")),
        "store.lookups_per_exp": per_exp(lookups),
        "store.hit_frac": (attr_sum("store.get", "found") / lookups
                           if lookups else 0.0),
        "store.get_frac": share(total("store.get")),
        "store.puts_per_exp": per_exp(attr_sum("store.put", "items")),
        "store.put_frac": share(total("store.put")),
        "scheduler.build_frac": share(total("scheduler.build")),
        "scheduler.queue_wait_frac": share(queue_wait),
        "http.submit_frac": share(total("http.submit")),
        "http.stream_lag_frac": share(stream_lag),
        "trace.overhead_frac": overhead,
    })
    metrics.update(probes)
    for metric in metrics:
        for prefix, span_name in _METRIC_SPAN.items():
            if metric.startswith(prefix) and span_name in missing_spans:
                metrics[metric] = None
    return metrics


def accounted_fraction(tracer, run):
    """Sum of every span's self time inside the campaign calls of a
    library window, over the wall time of those calls (1.0 when the
    layers account for all of it)."""
    selfs = spans.self_times(tracer.spans)
    inside = [span for span in tracer.spans
              if span.start >= run.window_start
              and (span.parent is not None or span.name == "campaign")]
    wall = sum(span.duration for span in inside if span.parent is None)
    return sum(selfs[span.id] for span in inside) / wall if wall else 0.0


def missing_span_names(missing_hooks):
    """Span names none of whose hooks could be installed."""
    installed = set()
    wanted = set()
    for name, module, path, _factory in spans.HOOKS:
        wanted.add(name)
        if "%s:%s" % (module, path) not in missing_hooks:
            installed.add(name)
    return wanted - installed


# -- one workload run ----------------------------------------------------------

def build_workloads(work_dir):
    return {workload.name: workload for workload in (
        LibraryWorkload(
            "adpcm_transient", "adpcm_transient",
            "long program (101k-instruction golden run); transient faults, "
            "so interpreter and simulation loops dominate"),
        LibraryWorkload(
            "g721_permanent", "g721_permanent",
            "permanent faults never reconverge and detection dominates: "
            "the same layers used differently"),
        LibraryWorkload(
            "stress_transient", "stress_transient",
            "651-instruction program: per-experiment fixed costs "
            "(core construction, restore, result assembly) show"),
        ServiceWorkload(
            "service_overlap", "stress_transient",
            "closed-loop HTTP jobs with 0/50/100% cache overlap: the only "
            "workload through service, store and journal", work_dir),
    )}


def _setups(workload, seed, quick):
    """Set up repeatedly, sampling the calibration loop around each
    set-up; returns (last state, set-up times, HostSpeed)."""
    host = HostSpeed()
    host.sample()
    times = []
    state = None
    while True:
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        state, seconds = workload.setup(seed)
        host.sample()
        times.append(seconds)
        if quick or len(times) >= MAX_SETUPS:
            break
        if len(times) >= MIN_SETUPS and sum(times) >= SETUP_BUDGET_S:
            break
    return state, times, host


def run_workload(workload, entries, seed, seconds, trace, quick,
                 spans_path=None):
    """Measure one workload over its pool ``entries``; returns a result
    dict (see run.py)."""
    first_chunk = 1 if quick else FIRST_CHUNK
    extras = {}
    if not trace:
        state, setup_times, setup_host = _setups(workload, seed, quick)
        host = HostSpeed()
        try:
            run = workload.measure(state, entries, seed, seconds,
                                   first_chunk=first_chunk, host=host)
        finally:
            workload.teardown(state)
        raw_setup = statistics.median(setup_times)
        # Library experiments count by pinned cost over the pool's mean
        # cost: a window's mix depends on where its time runs out, and
        # on adpcm_enc a plain count spread 13% across seeds (README).
        raw = run.work / (run.elapsed - host.spent)
        metrics = {
            "setup_s": raw_setup / setup_host.factor(),
            "exp_per_s": raw * host.factor(),
            "peak_rss_mb": run.peak_rss_mb,
        }
        extras.update({"setups": len(setup_times), "raw_setup_s": raw_setup,
                       "setup_host_factor": setup_host.factor(),
                       "raw_exp_per_s": raw, "host_factor": host.factor(),
                       "calibration_s": host.spent})
        extras.update(job_percentiles(run))
        runs = [run]
    else:
        # The traced window takes half the run's time and its untraced
        # replay about the other half.
        tracer = spans.Tracer()
        host = HostSpeed(tracer)
        uninstall, missing = spans.install(tracer)
        try:
            state, _seconds = workload.setup(seed)
            try:
                run = workload.measure(state, entries, seed, seconds / 2,
                                       tracer=tracer, first_chunk=first_chunk,
                                       host=host)
            finally:
                workload.teardown(state)
        finally:
            uninstall()
        # The same units again without hooks, on a fresh setup: the
        # tracing overhead is the traced window's excess over this one,
        # both scaled to the reference host speed.
        untraced_host = HostSpeed()
        state, _seconds = workload.setup(seed)
        try:
            untraced = workload.measure(state, entries, seed, seconds,
                                        replay=run.units, host=untraced_host)
            probe_values = workload.probes(state, seed)
        finally:
            workload.teardown(state)
        overhead = ((run.elapsed - host.spent) / host.factor()
                    / ((untraced.elapsed - untraced_host.spent)
                       / untraced_host.factor())) - 1.0
        metrics = layer_metrics(tracer, run, missing_span_names(missing),
                                probe_values, overhead)
        extras["missing_hooks"] = missing
        extras["spans"] = len(tracer.spans)
        if not run.jobs:
            extras["self_time_accounted_frac"] = accounted_fraction(tracer, run)
        if spans_path:
            tracer.write(spans_path)
            extras["spans_file"] = spans_path
        runs = [run, untraced]
    failed_keys = [key for run_ in runs for key in run_.failed_keys]
    extras["experiments"] = run.experiments
    extras["weighted_experiments"] = run.work
    extras["elapsed_s"] = run.elapsed
    if run.seeds_exhausted:
        extras["seeds_exhausted"] = True
    return {
        "correct": not failed_keys,
        "attempted": sum(run_.experiments for run_ in runs),
        "failed": len(failed_keys),
        "metrics": metrics,
        "failed_ids": failed_keys,
        "extras": extras,
    }
