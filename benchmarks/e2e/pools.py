"""Pinned experiment pools: the benchmark's inputs and their reference outcomes.

A pool is a fixed set of planned experiments over one program, drawn
from the deterministic campaign planner under one or more campaign
seeds.  ``make_reference.py`` classifies every pool experiment once
with the cold scalar engine (``use_checkpoints=False``) and writes the
outcomes to ``reference/<pool>.jsonl``.  The benchmark's ``--seed``
never reaches the program directly: it selects which pool experiments a
run executes and in what order, so every run - whatever its seed - is
checked outcome by outcome against the reference.

Experiment cost varies by orders of magnitude (a fault masked at once
vs. a detection run to the end of the program), so a plain random
sample would make experiments/s depend on the draw.  Samples are
therefore stratified: the pool is split into strata of
``STRATUM_SIZE`` experiments by cost - the masking- and detection-loop
instructions the default engine simulated for each experiment when the
reference was made - and a run draws one experiment from each stratum
in turn, visiting the strata in van der Corput order, so any prefix of
a run spreads evenly over the cost range.
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: Pool experiments per cost stratum.
STRATUM_SIZE = 6

#: A detection-loop instruction costs about 2.5 masking-loop ones on the
#: default engine (least-squares fit of per-experiment time over the
#: adpcm_enc and g721_dec pools).  The cost ranks experiments into
#: strata, sizes a run's chunks and weights the experiments counted in
#: ``exp_per_s``.
DETECTION_WEIGHT = 2.5


@dataclass(frozen=True)
class Pool:
    """A pinned experiment pool (see the module docstring)."""

    name: str
    program: str  # "stress" or a repro.workloads name
    duration: str  # "transient" | "permanent"
    seeds: Tuple[int, ...]  # campaign seeds the pool is planned under
    per_seed: int  # experiments planned per campaign seed

    @property
    def path(self):
        return os.path.join(REFERENCE_DIR, "%s.jsonl" % self.name)

    def build_embedded(self):
        if self.program == "stress":
            from repro.faults.stress import build_stress_program

            return build_stress_program()
        from repro.workloads import WORKLOADS

        return WORKLOADS[self.program].build_embedded()


POOLS = {
    pool.name: pool for pool in (
        Pool("adpcm_transient", "adpcm_enc", "transient", (2007,), 120),
        Pool("g721_permanent", "g721_dec", "permanent", (2007,), 240),
        # The service workload's job seeds: each cycle of service_overlap
        # runs the first 40 and then the first 80 experiments of one seed.
        # A 25 s run uses up to 32 seeds, so the service can get about
        # 4x faster before a run ends early for want of seeds.
        Pool("stress_transient", "stress", "transient",
             tuple(range(2007, 2007 + 128)), 80),
    )
}


@dataclass(frozen=True)
class Entry:
    """One pool experiment and its pinned reference outcome."""

    seed: int  # campaign seed of the plan it belongs to
    experiment_id: str  # id within that plan, e.g. "transient/000042"
    quadrant: str
    checker: object  # str or None
    latency: Tuple  # (instructions, cycles, blocks), Nones if undetected
    instructions: Tuple[int, int]  # (masking, detection) loop instructions

    @property
    def cost(self):
        masking, detection = self.instructions
        return max(1.0, masking + DETECTION_WEIGHT * detection)

    @property
    def key(self):
        return "%d/%s" % (self.seed, self.experiment_id)

    @property
    def index(self):
        return int(self.experiment_id.rsplit("/", 1)[1])


def outcome_of(result):
    """(quadrant, checker, latency triple) of an ExperimentResult."""
    return (result.quadrant, result.checker,
            (result.latency_instructions, result.latency_cycles,
             result.latency_blocks))


def record_outcome(record):
    """(quadrant, checker, latency triple) of a journal result record."""
    from repro.runner.journal import record_quadrant

    return (record_quadrant(record), record.get("checker"),
            (record.get("latency_instructions"),
             record.get("latency_cycles"), record.get("latency_blocks")))


def entry_line(seed, experiment_id, outcome, instructions):
    quadrant, checker, latency = outcome
    return json.dumps({"seed": seed, "id": experiment_id,
                       "quadrant": quadrant, "checker": checker,
                       "latency": list(latency),
                       "instructions": list(instructions)},
                      sort_keys=True, separators=(",", ":"))


def load(pool):
    """The pool's reference entries, in file order.

    Raises ``ValueError`` on a missing or malformed reference, which a
    benchmark run reports as a failure rather than skipping the check.
    """
    entries = []
    with open(pool.path) as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                entries.append(Entry(
                    seed=int(row["seed"]), experiment_id=str(row["id"]),
                    quadrant=row["quadrant"], checker=row["checker"],
                    latency=tuple(row["latency"]),
                    instructions=tuple(int(n) for n in row["instructions"])))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError("%s:%d: bad reference line (%s)"
                                 % (pool.path, number, exc)) from None
    expected = len(pool.seeds) * pool.per_seed
    if len(entries) != expected:
        raise ValueError("%s holds %d entries, expected %d"
                         % (pool.path, len(entries), expected))
    return entries


def _van_der_corput(count):
    """Stratum indices 0..count-1 in van der Corput order: every prefix
    is spread evenly over the range."""
    order, seen = [], set()
    j = 0
    while len(order) < count:
        point, scale, k = 0.0, 0.5, j
        while k:
            point += scale * (k & 1)
            scale /= 2
            k >>= 1
        stratum = int(point * count)
        if stratum not in seen:
            seen.add(stratum)
            order.append(stratum)
        j += 1
    return order


def stratified_order(entries, seed, label):
    """A seed-determined ordering of ``entries`` in which each round of
    consecutive entries holds one entry from every cost stratum."""
    rng = random.Random("e2e/%s/%d" % (label, seed))
    ranked = sorted(entries, key=lambda e: (e.cost, e.key))
    count = max(1, len(ranked) // STRATUM_SIZE)
    groups = [ranked[len(ranked) * i // count:len(ranked) * (i + 1) // count]
              for i in range(count)]
    for group in groups:
        rng.shuffle(group)
    visit = _van_der_corput(count)
    order = []
    for position in range(max(len(group) for group in groups)):
        for stratum in visit:
            if position < len(groups[stratum]):
                order.append(groups[stratum][position])
    return order


def job_seeds(pool, seed):
    """The service workload's seed-determined order of job seeds."""
    seeds = list(pool.seeds)
    random.Random("e2e/service/%d" % seed).shuffle(seeds)
    return seeds


class Planner:
    """Rebuilds the PlannedExperiments behind pool entries.

    Each entry becomes a planned experiment with its original derived
    seed and fault (so it classifies exactly as in its own campaign)
    and an id prefixed with its campaign seed, unique across the pool.
    """

    def __init__(self, pool, points):
        self.pool = pool
        self.points = points
        self._plans = {}

    def planned(self, entry):
        from repro.runner.plan import PlannedExperiment, plan_campaign

        plan = self._plans.get(entry.seed)
        if plan is None:
            plan = self._plans[entry.seed] = plan_campaign(
                self.points, self.pool.per_seed, self.pool.duration,
                seed=entry.seed)
        base = plan.experiments[entry.index]
        return PlannedExperiment(experiment_id=entry.key, index=base.index,
                                 duration=base.duration, spec=base.spec,
                                 seed=base.seed)
