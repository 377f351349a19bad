"""Golden-state oracle: the checkers-on core's full state, pinned.

A fault-free, checkers-on :class:`~repro.cpu.checkedcore.CheckedCore`
is stepped over each program.  At step 0, every ``INTERVAL`` retired
instructions and at halt, each component of its
:meth:`~repro.cpu.checkedcore.CheckedCore.snapshot` is hashed - register
file, SHS file, control-flow checker, payload collector, watchdog,
protected memory, caches and the scalar core state - together with a
running hash of the retire trace so far.  The hashes must equal the committed
fixture ``tests/fixtures/golden_state.json``.

Components are hashed in :meth:`CoreSnapshot.flat` form: protected
memory as per-word ``(stored, parity)`` dicts and each cache as its
non-empty ``(index, ways)`` sets plus counters, the form the fixture was
pinned in before memory and caches were paged.  The fixture therefore
checks the content of a snapshot, not its page layout.

The fixture was generated by the bit-loop checker datapath (the DCS as a
175-bit permute-and-fold, canonical words and payload bits by spare-bit
loops, the SHS reset and transfer location by location).  A faster
checker datapath must reproduce it exactly; a mismatch names the first
differing checkpoint step and the components that differ there.

Tier-1 checks the small, stress and fuzz (seed 1234) programs plus
mesa.  With ``ARGUS_ORACLE_WORKLOADS=all`` every bundled workload
follows.  Regenerate the fixture only for a deliberate change of core
state::

    PYTHONPATH=src python -m tests.test_golden_state
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.cpu.checkedcore import CheckedCore, CoreSnapshot
from repro.workloads import WORKLOADS
from tests.test_batched import _embedded

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_state.json"

#: Retired instructions between two state hashes.
INTERVAL = 4096

#: Hex digits kept per component hash (48 bits: a changed component
#: escapes with odds 2**-48 per comparison).
DIGEST_HEX = 12

_ALL = os.environ.get("ARGUS_ORACLE_WORKLOADS") == "all"
TIER1 = ("small", "stress", "fuzz", "mesa")
PROGRAMS = TIER1 + (tuple(sorted(set(WORKLOADS) - set(TIER1))) if _ALL else ())

#: Hashed components: every CoreSnapshot field, then the retire trace.
COMPONENTS = CoreSnapshot._fields + ("trace",)


def _canonical(value):
    """``value`` with dicts as sorted item tuples, so the hash depends on
    contents only, not on insertion order."""
    if isinstance(value, dict):
        return tuple(sorted((key, _canonical(item)) for key, item in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(item) for item in value)
    return value


def _digest(value):
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()[:DIGEST_HEX]


def golden_state_rows(embedded):
    """``[(step, {component: digest})]`` of one fault-free checkers-on run."""
    core = CheckedCore(embedded, detect=True)
    trace = hashlib.sha256()
    rows = []

    def row():
        flat = core.snapshot().flat()
        digests = {name: _digest(value) for name, value in zip(COMPONENTS, flat)}
        digests["trace"] = trace.hexdigest()[:DIGEST_HEX]
        rows.append((core.instret, digests))

    row()
    while not core.halted:
        record = core.step()
        assert record is not None, "golden run hung at pc=0x%x" % core.pc
        trace.update(repr(record).encode())
        if core.instret % INTERVAL == 0 and not core.halted:
            row()
    row()
    return rows


def _load_fixture():
    with open(FIXTURE) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", PROGRAMS)
def test_golden_state_matches_fixture(name):
    fixture = _load_fixture()
    assert fixture["interval"] == INTERVAL
    assert tuple(fixture["components"]) == COMPONENTS
    pinned = fixture["programs"][name]
    got = golden_state_rows(_embedded(name))
    for (step, digests), (want_step, *want) in zip(got, pinned):
        assert step == want_step, (
            "%s: state hashed at step %d, fixture at %d" % (name, step, want_step))
        differ = [component for component, value in zip(COMPONENTS, want)
                  if digests[component] != value]
        assert not differ, "%s: first differing step %d, components %s" % (
            name, step, ", ".join(differ))
    assert len(got) == len(pinned), (
        "%s: run hashed %d states, fixture %d (halted at step %d, fixture %d)"
        % (name, len(got), len(pinned), got[-1][0], pinned[-1][0]))


def _regenerate():
    programs = {}
    for name in TIER1 + tuple(sorted(set(WORKLOADS) - set(TIER1))):
        rows = golden_state_rows(_embedded(name))
        programs[name] = [[step] + [digests[c] for c in COMPONENTS]
                          for step, digests in rows]
        print("%-10s %7d steps, %3d states" % (name, rows[-1][0], len(rows)))
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w") as handle:
        json.dump({"interval": INTERVAL, "components": list(COMPONENTS),
                   "programs": programs}, handle, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    _regenerate()
