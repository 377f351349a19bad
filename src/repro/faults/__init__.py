"""Gate-level-style fault injection (paper Sec. 4.1).

The paper injects single transient and permanent bit-inversion errors on
randomly sampled gate outputs of the Argus-enhanced OR1200 (5,000 of
~40,000 gates), while running a stress-test microbenchmark, and
classifies every experiment along two axes: *masked?* and *detected?*.

This package reproduces that methodology against the checked core:

* :mod:`repro.faults.model` - fault specifications: combinational signal
  faults (bit flips on named datapath/checker signals) and state faults
  (storage-cell flips in the register file, SHS file, protected memory,
  PC, flag, checker latches).
* :mod:`repro.faults.points` - the injection-point population, weighted
  by the per-component gate inventory of the area model.
* :mod:`repro.faults.injector` - the tap-level injector plugged into
  :class:`repro.cpu.checkedcore.CheckedCore`.
* :mod:`repro.faults.stress` - the stress-test microbenchmark (broad
  register and instruction-type coverage).
* :mod:`repro.faults.campaign` - experiment orchestration: a golden run,
  a masking run (checkers off, transient faults held active until they
  touch architectural state), and a detection run (checkers on),
  classified into the four quadrants of Table 1.
"""

from repro.faults.model import FaultSpec, StateFaultApplier, TRANSIENT, PERMANENT
from repro.cpu.checkedcore import CoreSnapshot
from repro.faults.checkpoint import CheckpointStore
from repro.faults.injector import SignalInjector
from repro.faults.points import build_point_population, InjectionPoint
from repro.faults.stress import stress_test_source, build_stress_program
from repro.faults.campaign import (
    Campaign,
    ExperimentResult,
    CampaignSummary,
)

__all__ = [
    "FaultSpec",
    "StateFaultApplier",
    "TRANSIENT",
    "PERMANENT",
    "CheckpointStore",
    "CoreSnapshot",
    "SignalInjector",
    "build_point_population",
    "InjectionPoint",
    "stress_test_source",
    "build_stress_program",
    "Campaign",
    "ExperimentResult",
    "CampaignSummary",
]
