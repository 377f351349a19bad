"""Localization accuracy evaluation: known-fault campaigns, scored ranks.

The only ground truth available to a localization engine is the one we
manufacture: inject a *known* fault family over and over, collect the
detections it produces, and ask the ranker where that family lands.  The
evaluator runs such a mini-campaign per candidate family, per workload,
and reports top-1/3/5 accuracy.

Determinism: per-family seeds are derived with ``zlib.crc32`` (never
``hash()``, which is salted per process), injection times come from the
family's own stream (not the campaign's shared ``rng``), so results are
independent of family evaluation order and bit-identical across runs.
"""

import random
import zlib

from repro.diagnosis.localize import build_family_profiles, diagnose_records
from repro.faults.campaign import Campaign
from repro.faults.model import INJECT_FRACTION, TRANSIENT

from repro.analysis.coverage import build_static_coverage_map
from repro.workloads import iter_analysis_targets


def _family_specs(points, target, index):
    """Single-bit specs of one family, in population order."""
    return [point.spec for point in points
            if point.spec.target == target and point.spec.index == index
            and not point.double_bit]


def _family_seed(workload, target, index, seed):
    token = "argus-diagnosis/%s/%s/%s/%d" % (workload, target, index, seed)
    return zlib.crc32(token.encode())


def evaluate_family(campaign, profiles, target, index, seed,
                    detections_target=50, max_attempts=400):
    """Mini-campaign for one known family; returns a result dict.

    Injects single-bit transient faults drawn from the family until
    ``detections_target`` detections accumulate (or ``max_attempts``
    experiments run), then ranks the family from those detections alone.
    """
    specs = _family_specs(campaign.points, target, index)
    if not specs:
        return None
    rng = random.Random(seed)
    horizon = max(int(campaign.golden_length * INJECT_FRACTION), 1)
    detected = []
    attempts = 0
    while len(detected) < detections_target and attempts < max_attempts:
        spec = rng.choice(specs)
        inject_at = rng.randrange(0, horizon)
        result = campaign.run_experiment(spec, TRANSIENT, inject_at=inject_at)
        attempts += 1
        if result.detected:
            detected.append(result)
    if not detected:
        return {"target": target, "index": index, "attempts": attempts,
                "detections": 0, "rank": None}
    ranking = diagnose_records(detected, profiles=profiles)
    return {"target": target, "index": index, "attempts": attempts,
            "detections": len(detected),
            "rank": ranking.rank_of(target, index)}


def evaluate_localization(workloads=("mpeg2", "rasta", "adpcm_enc"),
                          seed=0, detections_target=50, max_attempts=400,
                          min_detections=1, families=None,
                          max_families=None, progress=None):
    """Score localization accuracy over known-fault mini-campaigns.

    For every candidate family (optionally capped at ``max_families``
    per workload, chosen deterministically by descending gate weight)
    on every named workload, runs :func:`evaluate_family` and scores
    the true family's rank.  Families that never produce a detection
    (statically blind or masked-by-construction for that workload) are
    excluded from accuracy - there is no evidence to rank from; they are
    counted separately as ``silent``.

    Returns a JSON-ready summary with per-workload and overall
    top-1/3/5 accuracy.
    """
    per_workload = {}
    totals = {"families": 0, "silent": 0, "top1": 0, "top3": 0, "top5": 0}
    for name, workload in iter_analysis_targets(workloads):
        if workload is None:
            raise ValueError("unknown workload %r" % (name,))
        embedded = workload.build_embedded()
        campaign = Campaign(embedded=embedded, seed=seed)
        coverage_map = build_static_coverage_map(embedded=embedded,
                                                 points=campaign.points)
        profiles = build_family_profiles(coverage_map)
        candidates = [profile for profile in profiles
                      if profile.detected_by]  # statically reachable only
        if families is not None:
            wanted = set(families)
            candidates = [p for p in candidates if p.key in wanted
                          or p.target in wanted]
        if max_families is not None and len(candidates) > max_families:
            candidates = sorted(candidates,
                                key=lambda p: (-p.weight, p.target,
                                               p.index if p.index is not None
                                               else -1))[:max_families]
        rows = []
        scored = {"families": 0, "silent": 0, "top1": 0, "top3": 0, "top5": 0}
        for profile in candidates:
            row = evaluate_family(
                campaign, profiles, profile.target, profile.index,
                seed=_family_seed(name, profile.target, profile.index, seed),
                detections_target=detections_target,
                max_attempts=max_attempts)
            if row is None:
                continue
            rows.append(row)
            if row["detections"] < min_detections:
                scored["silent"] += 1
                continue
            scored["families"] += 1
            rank = row["rank"]
            for k, bucket in ((1, "top1"), (3, "top3"), (5, "top5")):
                if rank is not None and rank <= k:
                    scored[bucket] += 1
            if progress is not None:
                progress(name, row)
        summary = dict(scored)
        for k in (1, 3, 5):
            bucket = "top%d" % k
            summary[bucket + "_accuracy"] = (
                scored[bucket] / scored["families"] if scored["families"]
                else None)
        summary["rows"] = rows
        per_workload[name] = summary
        for key in totals:
            totals[key] += scored[key]
    overall = dict(totals)
    for k in (1, 3, 5):
        bucket = "top%d" % k
        overall[bucket + "_accuracy"] = (
            totals[bucket] / totals["families"] if totals["families"]
            else None)
    return {"seed": seed, "detections_target": detections_target,
            "max_attempts": max_attempts,
            "workloads": per_workload, "overall": overall}
