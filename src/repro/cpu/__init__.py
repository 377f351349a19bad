"""CPU cores: the OR1200-like 4-stage in-order scalar pipeline.

Two duty cycles share one set of architectural semantics
(:mod:`repro.isa.semantics`):

* :class:`~repro.cpu.fastcore.FastCore` - functional + timing simulation
  for the performance experiments (Figures 5-7).  No checkers, no fault
  taps; instruction decode is cached per word.
* :class:`~repro.cpu.checkedcore.CheckedCore` - the detailed core with
  named micro-architectural signals, the full Argus-1 checker complement
  and fault-injection taps, used by the error-injection campaign
  (Table 1, Sec. 4.1-4.2).  It owns its state format: ``snapshot()``
  returns a :class:`~repro.cpu.checkedcore.CoreSnapshot` and
  ``restore()`` writes one back, for golden checkpoints, the batched
  engine and backward recovery alike.

Both execute the same ISA and are cross-validated by integration tests.
The package and its cores load nothing of the fault campaign; only
:mod:`repro.cpu.batched`, the campaign's engine, builds on
:mod:`repro.faults`.
"""

from repro.isa.semantics import alu_execute, evaluate_condition, ArithmeticError32
from repro.cpu.fastcore import FastCore, RunResult, Timing, ExecutionLimitExceeded
from repro.cpu.checkedcore import CheckedCore, CheckedRunResult, CoreSnapshot
from repro.cpu.dmr import LockstepCore, LockstepMismatch, LockstepResult
from repro.cpu.tracer import TraceResult, trace_execution
from repro.cpu.pipeline import PipelinedCore, PipelineResult

__all__ = [
    "alu_execute",
    "evaluate_condition",
    "ArithmeticError32",
    "FastCore",
    "RunResult",
    "Timing",
    "ExecutionLimitExceeded",
    "CheckedCore",
    "CheckedRunResult",
    "CoreSnapshot",
    "LockstepCore",
    "LockstepMismatch",
    "LockstepResult",
    "TraceResult",
    "trace_execution",
    "PipelinedCore",
    "PipelineResult",
]
