"""Pin the reference outcomes of the benchmark's experiment pools.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/e2e/make_reference.py [--pool NAME ...]

For every experiment of each pool (see ``pools.py``) this classifies the
experiment twice:

* with the cold scalar engine (``Campaign(use_checkpoints=False)``:
  every run replays from instruction 0), whose outcome - quadrant,
  checker, latency triple - is what the reference pins;
* with the default engine under the span hooks, which gives the
  experiment's cost key (instructions the masking and detection loops
  simulated) and a pin-time differential check: the script refuses to
  write a reference the two engines disagree on.

Regenerating a reference changes the benchmark's inputs; runs made
before and after are not comparable.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pools  # noqa: E402
import spans  # noqa: E402


def classify_cold(pool, embedded, seed):
    from repro.faults.campaign import Campaign
    from repro.runner import execute_plan, plan_campaign

    campaign = Campaign(embedded=embedded, seed=seed, use_checkpoints=False)
    plan = plan_campaign(campaign.points, pool.per_seed, pool.duration,
                         seed=seed)
    summary = execute_plan(campaign, plan, workers=1)
    return plan, [pools.outcome_of(result) for result in summary.results]


def classify_default(pool, embedded, plan):
    """Default-engine outcomes and simulated-instruction counts."""
    from repro.faults.campaign import Campaign

    campaign = Campaign(embedded=embedded, seed=plan.seed)
    campaign.golden_trace()
    tracer = spans.Tracer()
    uninstall, missing = spans.install(tracer)
    if missing:
        raise SystemExit("hook targets missing: %s" % ", ".join(missing))
    rows = []
    try:
        for planned in plan:
            mark = len(tracer.spans)
            result = campaign.run_planned(planned)
            instructions = tuple(
                sum(span.attrs.get("instructions", 0)
                    for span in tracer.spans[mark:] if span.name == loop)
                for loop in ("masking", "detection"))
            rows.append((pools.outcome_of(result), instructions))
    finally:
        uninstall()
    return rows


def make_pool(pool):
    embedded = pool.build_embedded()
    lines = []
    for seed in pool.seeds:
        started = time.perf_counter()
        plan, cold = classify_cold(pool, embedded, seed)
        default = classify_default(pool, embedded, plan)
        for planned, reference, (outcome, instructions) in zip(
                plan, cold, default):
            if outcome != reference:
                raise SystemExit(
                    "%s seed %d %s: default engine %r != cold reference %r"
                    % (pool.name, seed, planned.experiment_id, outcome,
                       reference))
            lines.append(pools.entry_line(seed, planned.experiment_id,
                                          reference, instructions))
        print("%s seed %d: %d experiments in %.1fs"
              % (pool.name, seed, len(plan), time.perf_counter() - started),
              flush=True)
    os.makedirs(pools.REFERENCE_DIR, exist_ok=True)
    tmp = pool.path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(tmp, pool.path)
    print("wrote %s (%d entries)" % (pool.path, len(lines)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pool", action="append", choices=sorted(pools.POOLS),
                        help="pool to pin (repeatable; default: all)")
    args = parser.parse_args(argv)
    for name in args.pool or sorted(pools.POOLS):
        make_pool(pools.POOLS[name])


if __name__ == "__main__":
    main()
