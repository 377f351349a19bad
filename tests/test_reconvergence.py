"""Reconvergence re-runs: every lane the engine ends at a golden
checkpoint, re-run to the end on the reference path.

The engine ends a masking or detection lane whose fault is disarmed (a
transient that can no longer act) once the lane's masking or detection
view equals the golden checkpoint's at the same step
(:mod:`repro.faults.execution`): from there the lane is the golden run.
This runs a seed-pinned plan of transients through the engine, collects
every experiment with a lane that ended that way, and re-runs each one
on the cold reference path (``Campaign(use_checkpoints=False)``), which
runs every lane to its end: the journal records must be equal.

Tier-1 runs the small, stress and fuzz programs (``generate_program``
seeds 1234, 7 and 99).  With ``ARGUS_ORACLE_WORKLOADS=all`` every
bundled workload and fuzz seeds 3001-3016 follow.
"""

import os

import pytest

import repro.cpu.batched
from repro.faults.campaign import Campaign
from repro.faults.execution import detection_loop, masking_loop
from repro.faults.model import TRANSIENT
from repro.runner.journal import result_to_record
from repro.runner.plan import plan_campaign
from repro.workloads import WORKLOADS
from tests.test_timeline_oracle import _program

_ALL = os.environ.get("ARGUS_ORACLE_WORKLOADS") == "all"
PROGRAMS = ("small", "stress", "fuzz", "fuzz-7", "fuzz-99") + (
    tuple("fuzz-%d" % seed for seed in range(3001, 3017))
    + tuple(sorted(WORKLOADS)) if _ALL else ())
EXPERIMENTS = 300

#: Reconverged lanes re-run so far, per loop.
RERUN = {"masking": 0, "detection": 0}


def _spy(loop, kind, clean, limit, ended):
    """``loop`` that notes each experiment whose lane ended clean short
    of halt and of the run bound: only reconvergence ends a lane
    there."""
    def spied(core, injector, schedule, *args, **kwargs):
        outcome = loop(core, injector, schedule, *args, **kwargs)
        if (outcome == clean and not core.halted
                and core.instret < limit):
            ended.setdefault((schedule.spec, schedule.duration,
                              schedule.inject_at), []).append(kind)
        return outcome
    return spied


@pytest.mark.parametrize("name", PROGRAMS)
def test_reconverged_lanes_match_reference(name, monkeypatch):
    embedded = _program(name)
    engine = Campaign(embedded=embedded, seed=7)
    limit = engine._engine_or_none().limit
    ended = {}
    monkeypatch.setattr(repro.cpu.batched, "masking_loop", _spy(
        masking_loop, "masking", (True, None, False), limit, ended))
    monkeypatch.setattr(repro.cpu.batched, "detection_loop", _spy(
        detection_loop, "detection", (False, None, False), limit, ended))
    plan = plan_campaign(engine.points, EXPERIMENTS, TRANSIENT, seed=7)
    results = {(result.spec, result.duration, result.inject_at): result
               for result in engine.run_planned_batch(list(plan.experiments))}
    lanes = sum(len(kinds) for kinds in ended.values())
    assert lanes == engine.perf["reconverged_lanes"]

    reference = Campaign(embedded=embedded, seed=7, use_checkpoints=False)
    for (spec, duration, inject_at), kinds in ended.items():
        got = results[spec, duration, inject_at]
        want = reference.run_experiment(spec, duration, inject_at)
        assert result_to_record(got) == result_to_record(want), (
            "%s %s %s@%d (%s lane reconverged)" % (
                name, spec, duration, inject_at, "+".join(kinds)))
        for kind in kinds:
            RERUN[kind] += 1


def test_some_detection_lane_reconverged():
    """The re-runs above checked at least one reconverged detection lane,
    so they cannot pass with nothing to check."""
    if not any(RERUN.values()):
        pytest.skip("run with the per-program re-run tests")
    print("\nreconverged lanes re-run: %(masking)d masking, "
          "%(detection)d detection" % RERUN)
    assert RERUN["detection"] > 0
