"""Argus-1 error-detection machinery (the paper's contribution).

Four invariant checkers (paper Sec. 2-3):

* **Control flow + dataflow** - unified through the Dataflow and Control
  Signature (DCS).  Each architectural location carries a 5-bit State
  History Signature (SHS, :mod:`repro.argus.shs`) updated by CRC5
  (:mod:`repro.argus.crc`); the block DCS is a permuted XOR fold of all
  SHSs (:mod:`repro.argus.dcs`).  The control-flow checker
  (:mod:`repro.argus.controlflow`) selects the successor DCS from the
  payload embedded in the block's spare instruction bits
  (:mod:`repro.argus.payload`) and compares at block boundaries.
* **Computation** - per-functional-unit sub-checkers
  (:mod:`repro.argus.checkers`): the adder/logic checker, the RSSE
  right-shift + sign-extension replay unit, and the Mersenne modulo-31
  multiplier/divider checker.
* **Dataflow values** - parity on every register and operand bus
  (:mod:`repro.argus.regfile`).
* **Memory** - D XOR A embedding plus per-word parity
  (:mod:`repro.mem.checked`), address-adder checking, RSSE re-alignment
  checking.
* **Liveness** - the 6-bit stall watchdog (:mod:`repro.argus.watchdog`).
"""

from repro.argus.crc import crc5_bits, crc5_bytes, crc5_word
from repro.argus.shs import (
    ShsFile,
    NUM_LOCATIONS,
    LOC_PC,
    LOC_MEM,
    LOC_FLAG,
    initial_shs,
    op_identifier,
    shs_combine,
    apply_instruction,
)
from repro.argus.dcs import compute_dcs, DCS_BITS
from repro.argus.payload import (
    payload_fields,
    terminal_kind,
    PayloadCollector,
    PayloadError,
    SIG_TERMINATOR_BIT,
    sig_word,
    sig_is_terminator,
)
from repro.argus.errors import (
    ArgusError,
    ControlFlowError,
    DataflowParityError,
    ComputationCheckError,
    MemoryCheckError,
    WatchdogError,
    DetectionEvent,
    CHECKER_CONTROL_FLOW,
    CHECKER_PARITY,
    CHECKER_COMPUTATION,
    CHECKER_MEMORY,
    CHECKER_WATCHDOG,
)
from repro.argus.checkers import AdderChecker, RsseChecker, ModuloChecker
from repro.argus.watchdog import Watchdog
from repro.argus.regfile import CheckedRegisterFile
from repro.argus.controlflow import ControlFlowChecker
from repro.argus.scrubber import Scrubber, scrub_latency_bound
from repro.argus.recovery import (
    RecoveringCore,
    RecoveryResult,
    UnrecoverableError,
)

__all__ = [
    "crc5_bits",
    "crc5_bytes",
    "crc5_word",
    "ShsFile",
    "NUM_LOCATIONS",
    "LOC_PC",
    "LOC_MEM",
    "LOC_FLAG",
    "initial_shs",
    "op_identifier",
    "shs_combine",
    "apply_instruction",
    "compute_dcs",
    "DCS_BITS",
    "payload_fields",
    "terminal_kind",
    "PayloadCollector",
    "PayloadError",
    "SIG_TERMINATOR_BIT",
    "sig_word",
    "sig_is_terminator",
    "ArgusError",
    "ControlFlowError",
    "DataflowParityError",
    "ComputationCheckError",
    "MemoryCheckError",
    "WatchdogError",
    "DetectionEvent",
    "CHECKER_CONTROL_FLOW",
    "CHECKER_PARITY",
    "CHECKER_COMPUTATION",
    "CHECKER_MEMORY",
    "CHECKER_WATCHDOG",
    "AdderChecker",
    "RsseChecker",
    "ModuloChecker",
    "Watchdog",
    "CheckedRegisterFile",
    "ControlFlowChecker",
    "Scrubber",
    "scrub_latency_bound",
    "RecoveringCore",
    "RecoveryResult",
    "UnrecoverableError",
]
