"""Parity-extended register file (paper Sec. 3.2.2, "Data Value
Correctness").

Argus-1 widens every register by one parity bit (the 5 SHS bits live in
the wide SHS register file, :class:`repro.argus.shs.ShsFile`).  Reads
return ``(value, parity)`` so the core checks operand parity at use
points; writes regenerate parity from the (already computation-checked)
result.

Fault hooks let the campaign corrupt a stored value bit (a register cell
fault - the next read's parity check catches it) or the parity bit
itself (a false alarm, i.e. a detected masked error).
"""

from repro.isa import registers
from repro.mem.checked import parity32


class CheckedRegisterFile:
    """32 registers, each carrying value + parity."""

    def __init__(self):
        self.values = [0] * registers.NUM_REGS
        self.parity = [0] * registers.NUM_REGS

    def read(self, index):
        """Returns (value, parity_bit) as stored - no checking here; the
        consumer checks parity where the operand is used."""
        return self.values[index], self.parity[index]

    def write(self, index, value, parity=None):
        """Write a result with its parity (regenerated when not supplied).

        ``r0`` is hard-wired to zero; writes are dropped entirely,
        mirroring the architecture.
        """
        if index == 0:
            return
        value &= 0xFFFFFFFF
        self.values[index] = value
        self.parity[index] = parity32(value) if parity is None else (parity & 1)

    # -- checkpointing ---------------------------------------------------
    def snapshot(self):
        """Immutable (values, parity) capture for checkpointing."""
        return (tuple(self.values), tuple(self.parity))

    def restore(self, snapshot):
        values, parity = snapshot
        self.values = list(values)
        self.parity = list(parity)

    # -- fault hooks -----------------------------------------------------
    def corrupt_value(self, index, bit):
        """Flip a stored value bit without touching parity (cell fault)."""
        if index == 0:
            return
        self.values[index] ^= 1 << (bit & 31)

    def corrupt_parity(self, index):
        if index == 0:
            return
        self.parity[index] ^= 1
