"""Fault specifications and state-fault application.

Two fault classes mirror the two kinds of "gate output" in the model:

* **signal faults** - combinational: an XOR mask applied to a named
  signal every time it is evaluated while the fault is active (see
  :class:`repro.faults.injector.SignalInjector`);
* **state faults** - storage cells: a bit of the register file, SHS
  file, protected memory, PC, flag or a checker latch.  A transient
  state fault flips the bit once; a permanent one behaves as stuck-at
  (the bit is forced to its faulty polarity after every instruction).

Durations: ``TRANSIENT`` faults stay active until they first touch
architectural state (the campaign then removes them - this is exactly the
paper's activation methodology and why its masked rates are identical for
both durations); ``PERMANENT`` faults stay active for the whole run.
"""

from dataclasses import dataclass
from typing import Optional

TRANSIENT = "transient"
PERMANENT = "permanent"

#: Extension beyond the paper's two error types: intermittent faults -
#: marginal hardware that fails in recurring bursts (the classic third
#: class in the reliability literature).  Active for
#: ``INTERMITTENT_BURST`` instructions out of every
#: ``INTERMITTENT_PERIOD``, from the injection point onward.
INTERMITTENT = "intermittent"
INTERMITTENT_PERIOD = 40
INTERMITTENT_BURST = 6

#: A faulty run is bounded at ``len(golden) * RUN_SLACK + 64`` steps; one
#: still running then is a livelock (unmasked, hung).  The bound fixes
#: outcomes, so it is part of every experiment's content key
#: (:func:`repro.service.store.experiment_key`).
RUN_SLACK = 1.25

#: Injection instructions are drawn from the first ``INJECT_FRACTION`` of
#: the golden run (:meth:`Campaign._inject_span
#: <repro.faults.campaign.Campaign._inject_span>`), so every fault has a
#: tail in which to act.  The diagnosis evaluation and the timeline
#: audit's probe times sample the same window.
INJECT_FRACTION = 0.85


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault location.

    ``target`` is a signal name (``ex.alu.result``) or a state target
    (``state.rf.value``); ``mask`` is the XOR bit mask (single- or
    multi-bit); ``index`` qualifies indexed targets (register number, SHS
    location, written-word ordinal).  ``is_state`` selects the class.
    """

    target: str
    mask: int
    index: Optional[int] = None
    is_state: bool = False


class StateFaultApplier:
    """Applies (and, for permanents, re-asserts) a state fault on a core."""

    def __init__(self, spec, duration):
        if not spec.is_state:
            raise ValueError("not a state fault: %r" % (spec,))
        self.spec = spec
        self.duration = duration
        self._stuck_value = None  # per-bit polarity captured at first apply
        self._mem_addr = None

    # -- bit access helpers ----------------------------------------------
    def _resolve_mem_addr(self, core):
        if self._mem_addr is None:
            words = core.dmem.written_words()
            if not words:
                self._mem_addr = -1
            else:
                self._mem_addr = words[(self.spec.index or 0) % len(words)]
        return self._mem_addr

    def _read(self, core):
        spec = self.spec
        if spec.target == "state.rf.value":
            return core.rf.values[spec.index]
        if spec.target == "state.rf.parity":
            return core.rf.parity[spec.index]
        if spec.target == "state.shs":
            return core.shs.values[spec.index]
        if spec.target == "state.flag":
            return core.flag
        if spec.target == "state.pc":
            return core.pc
        if spec.target == "state.cfc.expected":
            return core.cfc.expected if core.cfc.expected is not None else 0
        if spec.target == "state.mem.word":
            addr = self._resolve_mem_addr(core)
            return core.dmem.stored_word(addr) if addr >= 0 else 0
        if spec.target == "state.mem.parity":
            addr = self._resolve_mem_addr(core)
            return core.dmem.parity_bit(addr) if addr >= 0 else 0
        raise ValueError("unknown state target %r" % spec.target)

    def _write(self, core, value):
        spec = self.spec
        if spec.target == "state.rf.value":
            if spec.index != 0:
                core.rf.values[spec.index] = value & 0xFFFFFFFF
        elif spec.target == "state.rf.parity":
            if spec.index != 0:
                core.rf.parity[spec.index] = value & 1
        elif spec.target == "state.shs":
            core.shs.values[spec.index] = value & 0x1F
        elif spec.target == "state.flag":
            core.flag = value & 1
        elif spec.target == "state.pc":
            core.pc = value & 0xFFFFFFFF
        elif spec.target == "state.cfc.expected":
            if core.cfc.expected is not None:
                core.cfc.expected = value & 0x1F
        elif spec.target == "state.mem.word":
            addr = self._resolve_mem_addr(core)
            if addr >= 0:
                core.dmem.set_stored_word(addr, value & 0xFFFFFFFF)
        elif spec.target == "state.mem.parity":
            addr = self._resolve_mem_addr(core)
            if addr >= 0:
                core.dmem.set_parity_bit(addr, value)
        else:
            raise ValueError("unknown state target %r" % spec.target)

    # -- lifecycle ---------------------------------------------------------
    def apply(self, core):
        """First application: flip the masked bits, remember polarity."""
        value = self._read(core)
        flipped = value ^ self.spec.mask
        self._stuck_value = flipped & self.spec.mask
        self._write(core, flipped)

    def reassert(self, core):
        """Permanent (stuck-at) behaviour: force the faulty polarity."""
        if self.duration != PERMANENT or self._stuck_value is None:
            return
        value = self._read(core)
        forced = (value & ~self.spec.mask) | self._stuck_value
        if forced != value:
            self._write(core, forced)


class FaultSchedule:
    """Drives a fault's activity over a run, per its duration semantics.

    * transient: active from the injection point until the first
      architectural impact (the campaign reports divergence via
      :meth:`deactivate_on_divergence`), then removed;
    * permanent: active (and, for state faults, stuck-at re-asserted)
      from the injection point to the end of the run;
    * intermittent: recurring bursts of ``INTERMITTENT_BURST``
      instructions every ``INTERMITTENT_PERIOD``, each burst re-upsetting
      state targets.
    """

    def __init__(self, spec, duration, inject_at):
        self.spec = spec
        self.duration = duration
        self.inject_at = inject_at
        self.applier = (StateFaultApplier(spec, duration)
                        if spec.is_state else None)
        self._removed = False
        self._applied_once = False

    @property
    def disarmed(self):
        """True once the fault can no longer act on the run: a transient
        whose state flip has been applied (the engine's pre-apply of a
        dormant flip included), or a signal transient removed at its
        first divergence.  Permanent and intermittent faults never
        disarm.  From then on the run is fault-free, so one whose state
        equals a golden checkpoint's is the golden run."""
        if self.duration != TRANSIENT:
            return False
        return self._removed or (self.applier is not None
                                 and self._applied_once)

    def _in_burst(self, step):
        phase = (step - self.inject_at) % INTERMITTENT_PERIOD
        return phase < INTERMITTENT_BURST

    def before_step(self, step, injector, core):
        """Set the fault's activity for the instruction about to retire."""
        if self._removed or step < self.inject_at:
            return
        if self.duration == INTERMITTENT:
            active = self._in_burst(step)
            if injector is not None:
                injector.enabled = active
            elif active and (step - self.inject_at) % INTERMITTENT_PERIOD == 0:
                self.applier.apply(core)  # a fresh upset each burst
            return
        if not self._applied_once:
            self._applied_once = True
            if injector is not None:
                injector.enable()
            else:
                self.applier.apply(core)

    def after_step(self, injector, core):
        """Permanent state faults behave as stuck-at between steps."""
        if self._removed or self.applier is None:
            return
        if self._applied_once and self.duration == PERMANENT:
            self.applier.reassert(core)

    def deactivate_on_divergence(self, injector):
        """Transients are removed at their first architectural impact."""
        if self.duration == TRANSIENT:
            self._removed = True
            if injector is not None:
                injector.disable()
