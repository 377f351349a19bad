"""Differential proof that the engine is a pure acceleration.

The campaign's fast path hands experiments to the batched engine
(:mod:`repro.cpu.batched`), which classifies experiment phases
analytically against the golden stream and evicts undecidable lanes to
the shared scalar loops.  The reference path
(``Campaign(use_checkpoints=False)``) replays both runs of every
experiment cold from instruction 0.  These tests pin that the two write
*bit-identical* journal records:

* **workload sweep** - the small, stress and fuzz programs at 40
  experiments per duration (transient, permanent and intermittent), and
  the benchmark's long programs (mesa, g721_dec, adpcm_enc) at a few
  planned experiments per duration (``tests/test_timeline_oracle.py``
  probes every timeline rule the engine plans lanes with);
* **forced divergence** - traps (corrupted instruction words), wild
  jumps (branch-target upsets) and hangs (watchdog stalls) all evict to
  the scalar loops and classify identically;
* **grouping invariance** - engine batches of 1, 7 and 64 and ragged
  chunks of a plan all equal the reference, experiment by experiment
  (the property the pool and the service scheduler lean on);
* **routing** - every duration takes the engine and the reference path
  never does; the ignored ``batched`` keyword is still accepted.
"""

import bisect
import pickle

import pytest

from repro.cpu import CheckedCore
from repro.cpu.batched import BatchedEngine
from repro.faults.campaign import Campaign
from repro.faults.injector import SignalInjector
from repro.faults.model import INTERMITTENT, PERMANENT, TRANSIENT, FaultSpec
from repro.faults.stress import build_stress_program
from repro.runner.journal import result_to_record
from repro.runner.plan import plan_campaign
from repro.runner.pool import execute_plan
from repro.runner.telemetry import event_to_dict
from repro.service.scheduler import Job
from repro.service.store import plan_keys
from repro.toolchain import embed_program
from repro.workloads import WORKLOADS as BUNDLED
from repro.workloads.fuzz import generate_program

SMALL = """
start:  li   r1, 5
        li   r2, 0
        la   r6, buf
loop:   add  r2, r2, r1
        sw   r2, 0(r6)
        addi r1, r1, -1
        sfgtsi r1, 0
        bf   loop
        nop
        mul  r3, r2, r2
        sw   r3, 4(r6)
        halt
        .data
buf:    .word 0, 0
"""

_EMBEDDED = {}


def _embedded(name):
    """Build each workload's embedded program once per test session."""
    if name not in _EMBEDDED:
        builders = {
            "small": lambda: embed_program(SMALL),
            "stress": build_stress_program,
            "fuzz": lambda: embed_program(generate_program(1234)),
        }
        builder = builders.get(name, lambda: BUNDLED[name].build_embedded())
        _EMBEDDED[name] = builder()
    return _EMBEDDED[name]


#: Experiments per duration.  The short programs run serial campaigns;
#: the long ones a few planned experiments (two intermittent ones),
#: because every reference experiment replays tens of thousands of
#: instructions twice.
WORKLOADS = {"small": 40, "stress": 40, "fuzz": 40,
             "mesa": 3, "g721_dec": 2, "adpcm_enc": 2}
LONG = ("mesa", "g721_dec", "adpcm_enc")
DURATIONS = [TRANSIENT, PERMANENT, INTERMITTENT]

_LONG_CAMPAIGNS = {}


def _records(results):
    return [result_to_record(result) for result in results]


def _long_campaigns(name):
    """(engine, reference) campaigns of a long program, built once: the
    planned path is stateless, so both durations share their golden runs."""
    if name not in _LONG_CAMPAIGNS:
        embedded = _embedded(name)
        _LONG_CAMPAIGNS[name] = (
            Campaign(embedded=embedded, seed=21),
            Campaign(embedded=embedded, seed=21, use_checkpoints=False))
    return _LONG_CAMPAIGNS[name]


def _planned_sample(campaign, count, duration):
    """The first ``count`` experiments of a seed-pinned plan whose fault
    can reach a datapath (an ``inert.*`` point proves nothing here)."""
    plan = plan_campaign(campaign.points, 40, duration, seed=campaign.seed)
    return [exp for exp in plan.experiments
            if not exp.spec.target.startswith("inert.")][:count]


# -- workload sweep --------------------------------------------------------

@pytest.mark.parametrize("duration", DURATIONS)
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_batched_matches_scalar(name, duration):
    """Same experiments: engine records == cold reference records."""
    count = WORKLOADS[name]
    if name in LONG:
        if duration == INTERMITTENT:
            count = 2
        engine, reference = _long_campaigns(name)
        sample = _planned_sample(engine, count, duration)
        assert len(sample) == count
        got = _records(engine.run_planned_batch(sample))
        want = _records(reference.run_planned_batch(sample))
    else:
        embedded = _embedded(name)
        engine = Campaign(embedded=embedded, seed=21)
        reference = Campaign(embedded=embedded, seed=21,
                             use_checkpoints=False)
        got = _records(engine.run(experiments=count,
                                  duration=duration).results)
        want = _records(reference.run(experiments=count,
                                      duration=duration).results)
        assert engine.perf["experiments"] == count
    assert got == want
    assert engine.perf["lanes"] > 0
    assert reference.perf["lanes"] == 0


# -- forced divergence: every eviction flavour -----------------------------

#: (label, spec, duration): faults chosen to force trap / wild-jump /
#: hang behaviour so the eviction path (not just synthesis) is exercised.
EVICTION_CASES = [
    ("trap-opcode", FaultSpec("if.inst", 1 << 27), TRANSIENT),
    ("trap-decode", FaultSpec("id.word.fu", 1 << 30), PERMANENT),
    ("wild-jump", FaultSpec("ctl.btarget", 1 << 14), TRANSIENT),
    ("wild-jump-state", FaultSpec("state.pc", 1 << 9, is_state=True),
     TRANSIENT),
    ("hang", FaultSpec("ctl.hang", 1), TRANSIENT),
    ("hang-permanent", FaultSpec("ctl.hang", 1), PERMANENT),
]


@pytest.mark.parametrize("label,spec,duration", EVICTION_CASES,
                         ids=[case[0] for case in EVICTION_CASES])
def test_forced_divergence_evicts_identically(label, spec, duration):
    embedded = _embedded("stress")
    engine = Campaign(embedded=embedded, seed=3)
    reference = Campaign(embedded=embedded, seed=3, use_checkpoints=False)
    inject_ats = [5, 57, 203]
    got = engine._run_entries([(spec, duration, at) for at in inject_ats])
    want = [reference.run_experiment(spec, duration, inject_at=at)
            for at in inject_ats]
    assert _records(got) == _records(want)
    assert engine.perf["evicted_lanes"] > 0


def test_rf_transient_read_on_checkpoint_boundary():
    """Regression: a register-file transient whose first read lands
    exactly on a checkpoint-interval boundary must not falsely
    reconverge - the lane's flip has to be applied before the masking
    loop's entry-step reconvergence probe."""
    embedded = _embedded("stress")
    campaign = Campaign(embedded=embedded, seed=0)
    timeline = campaign.timeline()
    interval = campaign.checkpoints().interval
    found = None
    for reg in range(1, 32):
        for step in timeline.reg_reads.get(reg, ()):
            if step == 0 or step % interval != 0:
                continue
            writes = timeline.reg_writes.get(reg, [])
            wi = bisect.bisect_left(writes, step)
            inject_at = (writes[wi - 1] + 1) if wi > 0 else 0
            first_read = timeline.next_read(reg, inject_at)
            first_write = timeline.next_write(reg, inject_at)
            if first_read == step and (first_write is None
                                       or first_write >= first_read):
                found = (reg, inject_at)
                break
        if found:
            break
    if found is None:
        pytest.skip("no boundary-aligned register read in this golden run")
    reg, inject_at = found
    spec = FaultSpec("state.rf.value", 2, index=reg, is_state=True)
    reference = Campaign(embedded=embedded, seed=0, use_checkpoints=False)
    got = campaign._run_entries([(spec, TRANSIENT, inject_at)])
    want = reference.run_experiment(spec, TRANSIENT, inject_at=inject_at)
    assert _records(got) == _records([want])


# -- grouping invariance ---------------------------------------------------

def test_batch_size_equivalence():
    """Engine batches of 1, 7 and 64 all equal the reference."""
    embedded = _embedded("stress")
    reference = Campaign(embedded=embedded, seed=9, use_checkpoints=False)
    experiments = list(plan_campaign(reference.points, 50, TRANSIENT,
                                     seed=9).experiments)
    want = _records(reference.run_planned_batch(experiments))
    for size in (1, 7, 64):
        engine = Campaign(embedded=embedded, seed=9)
        got = []
        for lo in range(0, len(experiments), size):
            got.extend(_records(engine.run_planned_batch(
                experiments[lo:lo + size])))
        assert got == want, size


def test_planned_batch_matches_planned_one_by_one():
    """Ragged chunks of a plan equal the reference run one by one."""
    embedded = _embedded("stress")
    reference = Campaign(embedded=embedded, seed=4, use_checkpoints=False)
    plan = plan_campaign(reference.points, 30, TRANSIENT, seed=4)
    want = [result_to_record(reference.run_planned(exp))
            for exp in plan.experiments]
    engine = Campaign(embedded=embedded, seed=4)
    experiments = list(plan.experiments)
    got = []
    for lo, hi in ((0, 11), (11, 23), (23, 30)):  # deliberately ragged
        got.extend(_records(engine.run_planned_batch(experiments[lo:hi])))
    assert got == want


def test_execute_plan_batched_matches_scalar():
    """The planned engine's serial loop is plan-identical to the
    reference path."""
    embedded = _embedded("stress")
    reference = Campaign(embedded=embedded, seed=5, use_checkpoints=False)
    plan = plan_campaign(reference.points, 32, PERMANENT, seed=5)
    want = execute_plan(reference, plan, workers=1)
    engine = Campaign(embedded=embedded, seed=5)
    got = execute_plan(engine, plan, workers=1)
    assert _records(got.results) == _records(want.results)
    assert engine.perf["experiments"] == 32
    assert engine.perf["batches"] == 1


# -- the campaign owns the engine's inputs ---------------------------------

class _NoParityCampaign(Campaign):
    """A campaign whose cores run every checker but parity (one row of
    the Sec. 4.1.1 composition ablation)."""

    def _new_core(self, spec, detect):
        injector = None if spec.is_state else SignalInjector(spec)
        checkers = [category for category in CheckedCore.CHECKER_CATEGORIES
                    if category != "parity"]
        core = CheckedCore(self.embedded, injector=injector, detect=detect,
                           checkers=checkers)
        return core, injector


def test_engine_lanes_use_the_campaigns_cores():
    """Lane cores come from ``Campaign._new_core``: an ablated subclass
    classifies on the engine, serially and on two workers, exactly as on
    its own reference path, and nothing is a parity detection."""
    embedded = _embedded("stress")
    plan = plan_campaign(Campaign(embedded=embedded).points, 48, PERMANENT,
                         seed=9)
    full = execute_plan(Campaign(embedded=embedded, seed=9), plan)
    assert any(result.checker == "parity" for result in full.results)
    want = _records(execute_plan(
        _NoParityCampaign(embedded=embedded, seed=9, use_checkpoints=False),
        plan).results)
    assert all(record["checker"] != "parity" for record in want)
    assert want != _records(full.results)
    for workers in (1, 2):
        got = execute_plan(_NoParityCampaign(embedded=embedded, seed=9),
                           plan, workers=workers)
        assert _records(got.results) == want, workers


def test_prepared_campaign_survives_pickling():
    """What a spawned pool worker receives: a prepared campaign, golden
    state and timeline included, engine dropped, classifies a plan
    exactly as the original."""
    campaign = Campaign(embedded=_embedded("stress"), seed=4)
    assert isinstance(campaign._engine_or_none(), BatchedEngine)
    clone = pickle.loads(pickle.dumps(campaign))
    assert clone._engine is None
    assert clone._timeline is not None
    assert clone.golden_trace() == campaign.golden_trace()
    assert len(clone.checkpoints()) == len(campaign.checkpoints())
    plan = plan_campaign(campaign.points, 40, TRANSIENT, seed=4)
    assert (_records(clone.run_planned_batch(plan.experiments))
            == _records(campaign.run_planned_batch(plan.experiments)))


# -- routing ---------------------------------------------------------------

def test_batched_without_checkpoints_degrades_to_scalar():
    """The reference path builds no engine and still classifies like
    the fast path."""
    embedded = _embedded("stress")
    engine = Campaign(embedded=embedded, seed=6)
    reference = Campaign(embedded=embedded, seed=6, use_checkpoints=False)
    assert (_records(reference.run(experiments=20,
                                   duration=TRANSIENT).results)
            == _records(engine.run(experiments=20,
                                   duration=TRANSIENT).results))
    assert reference._engine_or_none() is None
    assert isinstance(engine._engine_or_none(), BatchedEngine)


def test_intermittent_entries_take_the_engine():
    """Intermittent faults are engine lanes like the other durations and
    classify like the cold reference."""
    embedded = _embedded("stress")
    engine = Campaign(embedded=embedded, seed=8)
    reference = Campaign(embedded=embedded, seed=8, use_checkpoints=False)
    spec = FaultSpec("ex.alu.result", 1 << 4)
    got = engine._run_entries([(spec, INTERMITTENT, 40)])
    want = reference.run_experiment(spec, INTERMITTENT, inject_at=40)
    assert _records(got) == _records([want])
    assert engine.perf["lanes"] == 2


def test_run_batch_rejects_unknown_duration():
    engine = Campaign(embedded=_embedded("stress"))._engine_or_none()
    assert isinstance(engine, BatchedEngine)
    spec = FaultSpec("ex.alu.result", 1 << 4)
    with pytest.raises(ValueError):
        engine.run_batch([(spec, "sporadic", 3)])


def test_batched_keyword_is_accepted_and_ignored():
    """``batched`` no longer selects anything, but callers that still
    pass it keep working; an empty batch builds the engine and returns
    nothing."""
    campaign = Campaign(embedded=_embedded("stress"), seed=1, batched=True)
    assert campaign.run_planned_batch([]) == []
    assert isinstance(campaign._engine, BatchedEngine)
    assert campaign.perf["experiments"] == 0


def test_experiment_keys_ignore_batched_knobs():
    """A job document written while specs still carried the retired
    execution knobs plans and keys its experiments exactly like one
    without them: content keys hash binary + spec + seed only."""
    plain = {"workload": "stress", "experiments": 10, "seed": 2}
    retired = dict(plain, hybrid=True, spot_check_rate=0.5, batched=True,
                   batch_size=7)
    specs = [Job.from_dict({"id": "job-%d" % i, "spec": spec,
                            "state": "queued"}).spec
             for i, spec in enumerate((plain, retired))]
    assert specs[0] == specs[1]
    campaign = specs[1].build_campaign()
    plan = plan_campaign(campaign.points, 10, TRANSIENT, seed=2)
    digest = "0" * 64
    assert plan_keys(digest, plan) == plan_keys(
        digest, plan_campaign(specs[0].build_campaign().points, 10,
                              TRANSIENT, seed=2))


# -- perf counters / telemetry ---------------------------------------------

def test_perf_counters_and_telemetry_events():
    events = []
    campaign = Campaign(embedded=_embedded("stress"), seed=2)
    campaign.run(experiments=24, duration=TRANSIENT, telemetry=events.append)
    perf = campaign.perf_rates()
    assert perf["experiments"] == 24
    assert perf["experiments_per_second"] > 0
    assert perf["instructions_per_second"] > 0
    assert 0.0 <= perf["eviction_rate"] <= 1.0
    assert perf["lanes"] == (perf["synthesized_lanes"]
                             + perf["evicted_lanes"])
    finish = [e for e in events if e.kind == "finish"][-1]
    assert finish.perf["experiments"] == 24
    assert event_to_dict(finish)["perf"]["lanes"] == finish.perf["lanes"]


def test_scalar_campaign_also_reports_perf():
    """Throughput counters exist (zero lanes) on the reference path too."""
    campaign = Campaign(embedded=_embedded("small"), seed=1,
                        use_checkpoints=False)
    campaign.run(experiments=5, duration=TRANSIENT)
    perf = campaign.perf_rates()
    assert perf["experiments"] == 5
    assert perf["lanes"] == 0
    assert perf["eviction_rate"] == 0.0
    assert perf["experiments_per_second"] > 0
