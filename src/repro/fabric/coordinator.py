"""Fabric coordinator: shard one campaign across a fleet of job services.

A campaign is embarrassingly shardable because the deterministic
planner (:mod:`repro.runner.plan`) makes every experiment's identity,
derived seed and content key location-independent: node B computes
bit-for-bit what node A would have.  The coordinator exploits that:

1. **Plan once, locally.**  The full campaign is planned here, so shard
   boundaries are reproducible (and *re*-shardable: a resumed
   coordinator may cut different batches over the same plan - the
   experiment identities, not the batch boundaries, are the unit of
   accounting).
2. **Shard into batches.**  Contiguous index ranges of the plan become
   :class:`Batch` objects; each is submitted to a peer as a normal job
   whose spec carries ``plan_start``/``plan_stop`` - peers reuse the
   whole scheduler (store dedup, retry/backoff, journaling, drain).
3. **Dispatch load-aware.**  Batches go to the live peer with the most
   free capacity (coordinator-tracked in-flight count, then the
   prober's queue-depth snapshot).  Before dispatch, results the
   coordinator already holds for the batch's range are pushed to the
   peer (``POST /store/sync``), so re-dispatch and resume never
   re-simulate.
4. **Steal from the dead and the slow.**  A batch on a dead peer is
   reassigned with the scheduler's own
   :class:`~repro.service.scheduler.RetryPolicy` backoff; a batch
   running suspiciously long is *duplicated* onto an idle peer -
   determinism makes the race benign, first completion wins and the
   loser's records are bit-identical anyway.
5. **Journal everything.**  Fetched results land in an append-only
   coordinator journal (crash-safe: a restarted coordinator resumes
   from it); on completion the journal is compacted and verified to
   hold **every planned experiment id exactly once** before the
   summaries are aggregated in plan order - which is what makes the
   fleet's answer bit-identical to a single-node ``Campaign.run``.
"""

import time
from dataclasses import dataclass, field

from repro.runner.journal import Journal
from repro.runner.plan import plan_campaign
from repro.runner.pool import aggregate_records
from repro.service.client import ServiceError
from repro.service.scheduler import CampaignSpec, RetryPolicy
from repro.service.store import binary_digest, plan_keys

#: Batch lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"


class FabricError(RuntimeError):
    """The fabric cannot complete the campaign as asked."""


@dataclass
class Assignment:
    """One batch dispatched to one peer as one job."""

    peer_url: str
    job_id: str
    submitted_at: float


@dataclass
class Batch:
    """A contiguous slice of one duration's plan."""

    duration: str
    start: int
    stop: int
    ids: tuple
    state: str = PENDING
    assignments: list = field(default_factory=list)
    failures: int = 0  # job-level failures (deterministic errors)
    reassignments: int = 0  # peer-death / fetch-failure re-dispatches
    not_before: float = 0.0  # backoff gate for the next dispatch

    @property
    def batch_id(self):
        return "%s[%d:%d)" % (self.duration, self.start, self.stop)

    def __len__(self):
        return len(self.ids)


class FabricCoordinator:
    """Runs one :class:`CampaignSpec` across a :class:`Topology` fleet.

    ``batch_experiments`` sets the shard granularity (default: ~4
    batches per known peer, capped at 64 experiments).  ``peer_slots``
    bounds concurrent batches per peer.  ``steal_after`` is the age in
    seconds past which a running batch is duplicated onto an idle peer;
    ``retry`` (a :class:`RetryPolicy`) bounds per-batch deterministic
    failures and paces re-dispatch backoff.  ``journal_path`` is the
    coordinator's crash-safe accounting file - rerunning with the same
    path resumes instead of restarting.
    """

    def __init__(self, spec, topology, journal_path,
                 batch_experiments=None, peer_slots=2, steal_after=30.0,
                 poll=0.1, retry=None, on_log=None):
        if isinstance(spec, dict):
            spec = CampaignSpec.from_dict(spec)
        if spec.sliced:
            raise FabricError("a fabric campaign spec must cover the full "
                              "plan (no plan_start/plan_stop)")
        self.spec = spec
        self.topology = topology
        self.journal_path = str(journal_path)
        self.batch_experiments = batch_experiments
        self.peer_slots = max(1, peer_slots)
        self.steal_after = steal_after
        self.poll = poll
        self.retry = retry or RetryPolicy()
        self.on_log = on_log
        # progress counters (read concurrently by status pollers)
        self.total_experiments = 0
        self.completed_experiments = 0
        self.dispatched = 0
        self.stolen = 0
        self.reassigned = 0
        self.batches = []
        self.summaries = {}

    def _log(self, message):
        if self.on_log is not None:
            self.on_log(message)

    # -- planning ------------------------------------------------------------
    def _batch_size(self):
        if self.batch_experiments:
            return max(1, int(self.batch_experiments))
        peers = max(1, len(self.topology.peers))
        return max(1, min(64, -(-self.spec.experiments // (4 * peers))))

    def _make_batches(self, plans, journal):
        """Cut each plan into contiguous slices, skipping finished ones."""
        size = self._batch_size()
        batches = []
        for plan in plans.values():
            for start in range(0, len(plan), size):
                stop = min(start + size, len(plan))
                ids = tuple(exp.experiment_id
                            for exp in plan.experiments[start:stop])
                batch = Batch(duration=plan.duration, start=start,
                              stop=stop, ids=ids)
                if all(eid in journal.records for eid in ids):
                    batch.state = DONE
                batches.append(batch)
        return batches

    # -- the run -------------------------------------------------------------
    def run(self, timeout=None):
        """Execute the campaign; returns ``{duration: CampaignSummary}``.

        Raises :class:`FabricError` if a batch fails deterministically
        ``retry.retries`` times, if no peer answers before ``timeout``
        expires, or if - impossibly - the final journal does not hold
        every planned id exactly once.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        campaign = self.spec.build_campaign()
        digest = binary_digest(campaign.embedded)
        plans = {duration: plan_campaign(campaign.points,
                                         self.spec.experiments, duration,
                                         seed=self.spec.seed)
                 for duration in self.spec.durations()}
        self._keys = {duration: plan_keys(digest, plan)
                      for duration, plan in plans.items()}
        journal = Journal(self.journal_path).load()
        journal.ensure_header({"fabric": "coordinator",
                               "seed": str(self.spec.seed)})
        for plan in plans.values():
            journal.register_plan(plan)

        self.total_experiments = sum(len(plan) for plan in plans.values())
        planned_ids = {eid for plan in plans.values() for eid in plan.ids}
        self.completed_experiments = sum(
            1 for eid in journal.records if eid in planned_ids)
        self.batches = self._make_batches(plans, journal)
        open_batches = [b for b in self.batches if b.state != DONE]
        self._log("fabric: %d experiments in %d batches over %d peers "
                  "(%d already journaled)"
                  % (self.total_experiments, len(self.batches),
                     len(self.topology.peers), self.completed_experiments))

        own_prober = self.topology._thread is None
        if own_prober:
            self.topology.probe_all()
            self.topology.start()
        try:
            self._drive(open_batches, journal, deadline)
        finally:
            if own_prober:
                self.topology.stop()

        # Exactly-once accounting: after compaction the journal must
        # hold each planned experiment id exactly once - this is the
        # fabric's correctness gate, checked every run.
        journal.compact()
        journal.load()
        missing = [eid for eid in planned_ids if eid not in journal.records]
        if missing:
            raise FabricError(
                "fabric journal incomplete after completion: %d missing "
                "(first: %s)" % (len(missing), missing[0]))
        self.summaries = {
            duration: aggregate_records(plan, journal.records,
                                        keep_results=False)
            for duration, plan in plans.items()}
        journal.close()
        return self.summaries

    # -- dispatch loop -------------------------------------------------------
    def _drive(self, open_batches, journal, deadline):
        while any(batch.state != DONE for batch in open_batches):
            if deadline is not None and time.monotonic() > deadline:
                raise FabricError(
                    "fabric timed out with %d/%d batches unfinished"
                    % (sum(1 for b in open_batches if b.state != DONE),
                       len(self.batches)))
            self._poll_assignments(open_batches, journal)
            self._dispatch_pending(open_batches, journal)
            self._steal_slow(open_batches, journal)
            if any(batch.state != DONE for batch in open_batches):
                time.sleep(self.poll)

    def _inflight_by_peer(self):
        counts = {}
        for batch in self.batches:
            if batch.state != RUNNING:
                continue
            for assignment in batch.assignments:
                counts[assignment.peer_url] = \
                    counts.get(assignment.peer_url, 0) + 1
        return counts

    def _pick_peer(self, exclude=()):
        """The live peer with the most free capacity (ties broken by the
        prober's queue-depth snapshot)."""
        inflight = self._inflight_by_peer()
        best = None
        best_rank = None
        for peer in self.topology.alive():
            if peer.url in exclude:
                continue
            used = inflight.get(peer.url, 0)
            if used >= self.peer_slots:
                continue
            rank = (used, peer.load.get("queue_depth") or 0)
            if best_rank is None or rank < best_rank:
                best, best_rank = peer, rank
        return best

    def _dispatch_pending(self, open_batches, journal):
        now = time.monotonic()
        for batch in open_batches:
            if batch.state != PENDING or now < batch.not_before:
                continue
            peer = self._pick_peer()
            if peer is None:
                return  # fleet saturated (or momentarily all-dead)
            self._submit(batch, peer, journal)

    def _submit(self, batch, peer, journal, steal=False):
        """Dispatch ``batch`` to ``peer`` (sync known results first)."""
        client = self.topology.client(peer)
        keys = self._keys[batch.duration]
        known = [(keys[eid], eid, journal.records[eid])
                 for eid in batch.ids if eid in journal.records]
        spec = dict(self.spec.to_dict(), duration=batch.duration,
                    plan_start=batch.start, plan_stop=batch.stop)
        try:
            if known:
                client.store_sync(known)
            job = client.submit(spec)
        except (ConnectionError, OSError, ServiceError) as exc:
            self.topology.mark_failure(peer, error="submit: %s" % exc)
            batch.not_before = time.monotonic() \
                + self.retry.delay(batch.reassignments)
            return False
        batch.assignments.append(Assignment(
            peer_url=peer.url, job_id=job["id"],
            submitted_at=time.monotonic()))
        batch.state = RUNNING
        self.dispatched += 1
        if steal:
            self.stolen += 1
        self._log("fabric: %s %s -> %s (%s)"
                  % ("stole" if steal else "dispatched", batch.batch_id,
                     peer.name, job["id"]))
        return True

    def _poll_assignments(self, open_batches, journal):
        for batch in open_batches:
            if batch.state != RUNNING:
                continue
            for assignment in list(batch.assignments):
                if batch.state == DONE:
                    break
                self._poll_one(batch, assignment, journal)
            if batch.state == RUNNING and not batch.assignments:
                # every assignment died with its peer: back to pending
                batch.state = PENDING
                batch.reassignments += 1
                self.reassigned += 1
                batch.not_before = time.monotonic() \
                    + self.retry.delay(batch.reassignments - 1)
                self._log("fabric: %s lost all peers, re-queued (attempt %d)"
                          % (batch.batch_id, batch.reassignments))

    def _poll_one(self, batch, assignment, journal):
        peer = self.topology.peer_for(assignment.peer_url)
        if peer is None or not peer.alive:
            batch.assignments.remove(assignment)
            return
        client = self.topology.client(peer)
        try:
            job = client.job(assignment.job_id)
        except ServiceError as exc:
            if exc.status == 404:
                # The peer restarted with fresh state and forgot the job.
                batch.assignments.remove(assignment)
                return
            self.topology.mark_failure(peer, error="poll: %s" % exc)
            return
        except (ConnectionError, OSError) as exc:
            # Transient (client already retried): let the prober decide
            # whether the peer is actually dead.
            self.topology.mark_failure(peer, error="poll: %s" % exc)
            return
        if job["state"] == "failed":
            batch.assignments.remove(assignment)
            batch.failures += 1
            if batch.failures > self.retry.retries:
                raise FabricError(
                    "batch %s failed %d times (last on %s): %s"
                    % (batch.batch_id, batch.failures, peer.name,
                       job.get("error")))
            batch.not_before = time.monotonic() \
                + self.retry.delay(batch.failures - 1)
            if not batch.assignments:
                batch.state = PENDING
            return
        if job["state"] != "done":
            return
        try:
            records = client.results(assignment.job_id)
        except (ConnectionError, OSError, ServiceError) as exc:
            self.topology.mark_failure(peer, error="fetch: %s" % exc)
            batch.assignments.remove(assignment)
            if not batch.assignments:
                batch.state = PENDING
                batch.reassignments += 1
                self.reassigned += 1
            return
        missing = [eid for eid in batch.ids if eid not in records]
        if missing:
            # A done job with holes would be a peer bug; treat like a
            # failed fetch rather than corrupt the accounting.
            batch.assignments.remove(assignment)
            if not batch.assignments:
                batch.state = PENDING
            return
        for eid in batch.ids:
            if eid not in journal.records:
                journal.append_result(eid, records[eid])
                self.completed_experiments += 1
        batch.state = DONE
        batch.assignments = []
        self._log("fabric: %s done on %s (%d/%d experiments)"
                  % (batch.batch_id, peer.name, self.completed_experiments,
                     self.total_experiments))

    def _steal_slow(self, open_batches, journal):
        """Duplicate long-running batches onto idle capacity."""
        if self.steal_after is None:
            return
        now = time.monotonic()
        for batch in open_batches:
            if batch.state != RUNNING or len(batch.assignments) >= 2:
                continue
            oldest = min(assignment.submitted_at
                         for assignment in batch.assignments)
            if now - oldest < self.steal_after:
                continue
            exclude = {assignment.peer_url
                       for assignment in batch.assignments}
            peer = self._pick_peer(exclude=exclude)
            if peer is not None:
                self._submit(batch, peer, journal, steal=True)

    # -- introspection -------------------------------------------------------
    def status(self):
        states = {}
        for batch in self.batches:
            states[batch.state] = states.get(batch.state, 0) + 1
        return {
            "total_experiments": self.total_experiments,
            "completed_experiments": self.completed_experiments,
            "batches": len(self.batches),
            "batch_states": states,
            "dispatched": self.dispatched,
            "stolen": self.stolen,
            "reassigned": self.reassigned,
            "peers": self.topology.to_dict()["peers"],
        }


def run_fabric_campaign(spec, topology, journal_path, timeout=None,
                        **kwargs):
    """One-call federation: shard ``spec`` across ``topology``.

    Returns ``(summaries, coordinator)`` - the summaries are
    bit-identical to a single-node ``Campaign.run`` of the same spec.
    """
    coordinator = FabricCoordinator(spec, topology, journal_path, **kwargs)
    summaries = coordinator.run(timeout=timeout)
    return summaries, coordinator
