"""Process-pool campaign execution with retry and serial fallback.

The calling process prepares its :class:`~repro.faults.campaign.Campaign`
once - golden run, checkpoints and, on the fast path, timeline - and
every worker of every pool inherits that campaign through the pool
initializer: without a copy under fork, pickled (engine dropped) under
spawn or forkserver.  Workers execute batches of
:class:`~repro.runner.plan.PlannedExperiment` and ship back JSON-ready
result records - the same records the journal stores, so the serial and
parallel paths share one serialization.

Failure handling is layered:

* a **crashed** worker (BrokenProcessPool) or a **hung** batch (nothing
  completes within the per-experiment timeout allowance) aborts the
  pass; unfinished experiments are retried on a fresh pool up to
  ``retries`` times;
* when retries are exhausted - or a pool cannot be created at all (e.g.
  sandboxes that forbid fork) - the engine falls back to in-process
  serial execution, which also surfaces any deterministic experiment
  error with a clean traceback.

Results are aggregated in *plan order* regardless of completion order,
so summaries are bit-identical for any worker count.
"""

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.runner.journal import (Journal, JournalError, record_to_result,
                                  result_to_record)
from repro.runner.telemetry import ProgressTracker, coerce_sink

#: Experiments per engine batch on the in-process path.
BATCH_SIZE = 64

#: Grace added to every timeout allowance (pool startup, IPC, imports).
_TIMEOUT_GRACE = 30.0

# -- worker side -----------------------------------------------------------

_WORKER_CAMPAIGN = None


def _init_worker(campaign):
    """Install the caller's prepared campaign in this worker."""
    global _WORKER_CAMPAIGN
    _WORKER_CAMPAIGN = campaign


def _run_batch(batch):
    """Execute one batch of planned experiments in this worker.

    Returns ``{"pairs": [(experiment_id, record), ...], "perf": delta}``
    where ``delta`` holds the worker campaign's perf-counter increments
    for this batch (merged into the coordinating campaign's counters, so
    throughput telemetry covers the whole pool).
    """
    campaign = _WORKER_CAMPAIGN
    before = dict(campaign.perf)
    pairs = [(exp.experiment_id, result_to_record(result))
             for exp, result in zip(batch, campaign.run_planned_batch(batch))]
    perf = {key: value - before.get(key, 0)
            for key, value in campaign.perf.items()}
    return {"pairs": pairs, "perf": perf}


# -- engine ----------------------------------------------------------------

def default_workers():
    """Worker count for ``workers=0`` ("auto").

    ``ARGUS_REPRO_WORKERS`` (a positive integer) wins outright - the
    operator's word in containers and CI.  Otherwise the process's CPU
    *affinity* set is used where the platform exposes it
    (``os.sched_getaffinity``), because container/cgroup CPU limits
    shrink the affinity mask while ``os.cpu_count()`` keeps reporting
    every core on the host; the bare count is the last resort.
    """
    env = os.environ.get("ARGUS_REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # platform without affinity support
        return os.cpu_count() or 1


def _make_batches(pending, workers):
    """Chunk pending experiments to amortize IPC without starving workers."""
    size = max(1, min(32, len(pending) // (workers * 4) or 1))
    return [pending[i:i + size] for i in range(0, len(pending), size)]


def _pool_pass(campaign, pending, workers, commit, timeout):
    """One attempt at draining ``pending`` through a fresh process pool.

    Commits whatever completes, folding each batch's perf-counter delta
    into ``campaign.perf``; experiments still uncommitted afterwards
    (crash, hang, worker exception) are the caller's to retry.
    """
    batches = _make_batches(pending, workers)
    allowance = None
    if timeout is not None:
        allowance = timeout * max(len(batch) for batch in batches) + _TIMEOUT_GRACE
    try:
        executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(campaign,))
    except (OSError, ValueError, PermissionError):
        return  # environment cannot spawn processes; caller falls back
    not_done = set()
    try:
        not_done = {executor.submit(_run_batch, batch) for batch in batches}
        while not_done:
            done, not_done = wait(not_done, timeout=allowance,
                                  return_when=FIRST_COMPLETED)
            if not done:
                return  # hung: nothing completed within the allowance
            for future in done:
                try:
                    results = future.result()
                except BrokenProcessPool:
                    return  # a worker crashed; retry the rest elsewhere
                except Exception:
                    continue  # a deterministic error; serial fallback re-raises
                for key, value in results["perf"].items():
                    campaign.perf[key] += value
                for experiment_id, record in results["pairs"]:
                    commit(experiment_id, record)
    finally:
        # A cleanly drained pass waits for worker teardown (abandoning it
        # leaves the executor's atexit hook poking closed pipes: "Exception
        # ignored ... Bad file descriptor" noise on interpreter exit).
        # Crashed or hung passes must not block on dead workers.
        executor.shutdown(wait=not not_done, cancel_futures=True)


def _run_serial(campaign, pending, commit):
    """Run ``pending`` in-process, one engine batch per ``BATCH_SIZE``."""
    for lo in range(0, len(pending), BATCH_SIZE):
        chunk = pending[lo:lo + BATCH_SIZE]
        for exp, result in zip(chunk, campaign.run_planned_batch(chunk)):
            commit(exp.experiment_id, result_to_record(result))


def _run_parallel(campaign, pending, workers, commit, timeout, retries):
    """Drain ``pending`` with retries, then serially for any stragglers.

    The campaign is prepared here, once, so no worker repeats its golden
    run.  Every pool pass after the first counts in
    ``campaign.perf["pool_retries"]``.
    """
    campaign._engine_or_none()
    remaining = {exp.experiment_id: exp for exp in pending}

    def commit_and_pop(experiment_id, record):
        if remaining.pop(experiment_id, None) is not None:
            commit(experiment_id, record)

    for attempt in range(max(0, retries) + 1):
        if not remaining:
            return
        if attempt:
            campaign.perf["pool_retries"] += 1
        _pool_pass(campaign, list(remaining.values()), workers,
                   commit_and_pop, timeout)
    _run_serial(campaign, list(remaining.values()), commit_and_pop)


def aggregate_records(plan, records, keep_results=True):
    """Fold result records into a CampaignSummary, in plan order.

    Plan-ordered aggregation makes the summary - including dict
    insertion order of ``checker_counts`` - independent of completion
    order, which is what makes parallel runs bit-identical to serial.
    """
    from repro.faults.campaign import CampaignSummary

    missing = [eid for eid in plan.ids if eid not in records]
    if missing:
        raise JournalError(
            "campaign incomplete: %d of %d experiments have no result "
            "(first missing: %s)" % (len(missing), len(plan), missing[0]))
    summary = CampaignSummary(duration=plan.duration,
                              keep_results=keep_results)
    for eid in plan.ids:
        summary.add(record_to_result(records[eid]))
    return summary


def execute_plan(campaign, plan, workers=1, journal=None, resume=False,
                 telemetry=None, keep_results=True, timeout=None, retries=2,
                 on_record=None):
    """Execute a campaign plan and return its CampaignSummary.

    ``workers``: 0 means one per CPU; <=1 runs serially in-process.
    ``journal``: a path or :class:`Journal`; every finished experiment
    is flushed to it.  With ``resume=True`` already-journaled experiment
    ids are served from the journal instead of re-running; without it, a
    journal that already holds results for this plan raises
    :class:`JournalError` (refusing to silently clobber a previous run).
    ``timeout`` is seconds per experiment (enforced per worker batch);
    ``retries`` bounds fresh-pool attempts after crashes or hangs before
    the serial fallback.  ``on_record(experiment_id, record)`` runs
    after each executed experiment has been journaled and tracked; an
    exception it raises stops the plan there.
    """
    sink = coerce_sink(telemetry)
    workers = default_workers() if workers == 0 else max(1, int(workers or 1))

    owned_journal = journal is not None and not isinstance(journal, Journal)
    journal_obj = Journal(journal).load() if owned_journal else journal

    records = {}
    try:
        if journal_obj is not None:
            journal_obj.ensure_header({"seed": str(plan.seed)})
            journal_obj.register_plan(plan)
            done = journal_obj.done_ids(plan)
            if done and not resume:
                raise JournalError(
                    "journal %s already holds %d/%d results for this plan; "
                    "pass resume=True to continue it or use a fresh path"
                    % (journal_obj.path, len(done), len(plan)))
            for eid in done:
                records[eid] = journal_obj.records[eid]

        pending = [exp for exp in plan.experiments
                   if exp.experiment_id not in records]
        tracker = ProgressTracker(sink, plan.duration, len(plan),
                                  skipped=len(records),
                                  perf=campaign.perf_rates)
        tracker.start()

        def commit(experiment_id, record):
            records[experiment_id] = record
            if journal_obj is not None:
                journal_obj.append_result(experiment_id, record)
            tracker.experiment(record)
            if on_record is not None:
                on_record(experiment_id, record)

        if workers <= 1 or len(pending) <= 1:
            _run_serial(campaign, pending, commit)
        else:
            _run_parallel(campaign, pending, workers, commit, timeout,
                          retries)
        tracker.finish()
    finally:
        if owned_journal and journal_obj is not None:
            journal_obj.close()
    return aggregate_records(plan, records, keep_results=keep_results)
