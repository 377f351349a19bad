"""Checkpoint-chain oracle: every checkpoint restores to the golden run.

The default :class:`~repro.faults.checkpoint.CheckpointStore` is
recorded from a fault-free checkers-on golden run.  Each link of the
chain - step 0, every checkpoint, then halt - is restored into two
cores: a freshly built one, and one recycled core that has just run a
later link, as the engine's pooled lane cores are reused.  Each core
steps to the next link; its retire records must equal the golden
trace there, and the :meth:`~repro.cpu.checkedcore.CoreSnapshot.flat`
form of its snapshot must equal the next checkpoint's (at halt, the
golden core's own final snapshot).  Because snapshots share memory and
cache pages copy-on-write with the cores that restore them, this checks
that no core ever writes a page a snapshot still holds.

A failure names the program, the first failing link, the core and the
differing components.  Tier-1 checks the small, stress and fuzz (seed
1234) programs plus mesa; with ``ARGUS_ORACLE_WORKLOADS=all`` every
bundled workload follows.
"""

import os

import pytest

from repro.cpu.checkedcore import CheckedCore, CoreSnapshot
from repro.faults.checkpoint import record_checkpoints
from repro.workloads import WORKLOADS
from tests.test_batched import _embedded

_ALL = os.environ.get("ARGUS_ORACLE_WORKLOADS") == "all"
TIER1 = ("small", "stress", "fuzz", "mesa")
PROGRAMS = TIER1 + (tuple(sorted(set(WORKLOADS) - set(TIER1))) if _ALL else ())

FIELDS = CoreSnapshot._fields


def chain_failure(embedded):
    """The first failing link of one program's chain, or None."""
    golden = CheckedCore(embedded, detect=True)
    links = [golden.snapshot()]
    trace = []
    store = record_checkpoints(golden, trace=trace)
    links += [store.at(step) for step in store.steps]
    links.append(golden.snapshot())
    recycled = CheckedCore(embedded, detect=True)
    recycled.run()
    # Backwards, so the recycled core always arrives from a later state.
    for start, end in reversed(list(zip(links, links[1:]))):
        want = end.flat()
        for label, core in (("fresh", CheckedCore(embedded, detect=True)),
                            ("recycled", recycled)):
            core.restore(start)
            for step in range(start.step, end.step):
                record = core.step()
                if record != trace[step]:
                    return "checkpoint %d, %s core: record of step %d is %r, " \
                        "golden %r" % (start.step, label, step, record, trace[step])
            differ = [name for name, got, expected
                      in zip(FIELDS, core.snapshot().flat(), want) if got != expected]
            if differ:
                return "checkpoint %d, %s core: state at %d differs in %s" % (
                    start.step, label, end.step, ", ".join(differ))
    return None


@pytest.mark.parametrize("name", PROGRAMS)
def test_every_checkpoint_restores_to_the_golden_run(name):
    failure = chain_failure(_embedded(name))
    assert failure is None, "%s: %s" % (name, failure)
