"""Deterministic campaign planning and sharding.

A campaign plan is the full, materialised list of experiments *before*
any of them runs: which injection point, which duration, and - crucially
- which RNG seed each experiment uses for its own random choices (the
injection instruction index).  Seeds are derived with SHA-256 from
``(campaign seed, duration, experiment index)``, never drawn from a
shared stream, so an experiment's outcome depends only on its identity.
That makes the quadrant counts of Table 1 bit-identical no matter how
the plan is sharded across worker processes, which order batches finish
in, or whether half the plan was already served from a resume journal.
"""

import hashlib
import random
from dataclasses import dataclass
from typing import Tuple

from repro.faults.points import sample_points


def derive_seed(campaign_seed, duration, index):
    """Stable per-experiment RNG seed (independent of Python hashing)."""
    key = "argus-repro/%s/%s/%d" % (campaign_seed, duration, index)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PlannedExperiment:
    """One schedulable experiment: identity, fault, and private seed."""

    experiment_id: str  # e.g. "transient/000042"
    index: int
    duration: str
    spec: object  # repro.faults.model.FaultSpec
    seed: int


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered, immutable experiment list with a config fingerprint."""

    duration: str
    seed: object
    experiments: Tuple[PlannedExperiment, ...]

    def __len__(self):
        return len(self.experiments)

    def __iter__(self):
        return iter(self.experiments)

    @property
    def ids(self):
        return [exp.experiment_id for exp in self.experiments]

    def fingerprint(self):
        """Digest of the full plan; guards journals against config drift.

        Resuming a journal written under a different seed, experiment
        count, or point population would silently mix incompatible
        results - the fingerprint turns that into a hard error.
        """
        digest = hashlib.sha256()
        digest.update(("plan/%s/%s/%d" % (
            self.seed, self.duration, len(self.experiments))).encode("utf-8"))
        for exp in self.experiments:
            spec = exp.spec
            digest.update(("%s|%s|%s|%s|%s|%d" % (
                exp.experiment_id, spec.target, spec.mask, spec.index,
                spec.is_state, exp.seed)).encode("utf-8"))
        return digest.hexdigest()[:16]

    def slice(self, start, stop):
        """A sub-plan covering plan indices ``[start, stop)``.

        Experiments keep their global identity (id, index, derived
        seed), so a slice's results are interchangeable with the full
        plan's: the fabric coordinator shards a campaign into slices,
        runs them on different nodes, and aggregates the union under
        the *full* plan.  Bounds are clamped to the plan.
        """
        start = max(0, int(start))
        stop = len(self.experiments) if stop is None else int(stop)
        return CampaignPlan(duration=self.duration, seed=self.seed,
                            experiments=self.experiments[start:stop])


def plan_campaign(points, experiments, duration, seed):
    """Sample ``experiments`` weighted injection points into a plan.

    The master sampling stream is seeded from ``(seed, duration)`` alone
    (a string seed hashes identically across processes and runs), so the
    same arguments always yield the same plan.
    """
    rng = random.Random("argus-plan/%s/%s" % (seed, duration))
    sampled = sample_points(points, experiments, rng)
    planned = tuple(
        PlannedExperiment(
            experiment_id="%s/%06d" % (duration, index),
            index=index,
            duration=duration,
            spec=point.spec,
            seed=derive_seed(seed, duration, index),
        )
        for index, point in enumerate(sampled)
    )
    return CampaignPlan(duration=duration, seed=seed, experiments=planned)
