"""Functional-unit sub-checkers (paper Sec. 3.3).

Each sub-checker redundantly recomputes a property of a functional unit's
result and compares.  All internal recomputations run through an optional
``tap`` callable ``tap(signal_name, value) -> value`` so the fault
campaign can inject errors into *checker hardware* as well; such faults
can only cause false alarms (detected masked errors) or missed detections
in double-error scenarios, never silent corruption of architectural state.

* :class:`AdderChecker` - the lazy adder checker of Yilmaz et al. [33],
  enhanced to emulate bitwise logic ops (a full adder with carry-in tied
  to 0 acts as XOR, etc.) and to replay compare conditions.
* :class:`RsseChecker` - the Right-Shift + Sign-Extend unit: replays
  right shifts, inverts left shifts, re-extends sign/zero extensions and
  checks sub-word load alignment (Secs. 3.3.1, 3.4).
* :class:`ModuloChecker` - Mersenne modulo-31 residue checking of the
  multiplier and divider (Sec. 3.3.2, Figure 4).
"""

from repro.isa.semantics import evaluate_condition, to_signed
from repro.isa.opcodes import Op

WORD_MASK = 0xFFFFFFFF


def _no_tap(_name, value):
    return value


class AdderChecker:
    """Redundant adder covering add/sub, logic ops, compares, addresses.

    The real circuit is a ripple-style carry chain with roughly the area
    of a ripple-carry adder [33]; functionally it recomputes the sum, so
    at word level the model is an independent re-evaluation whose output
    is injectable via the ``chk.adder.*`` signals.
    """

    #: Exact replay + full-width compare: no error pattern on the checked
    #: result can alias (static coverage audit hook).
    ALIASING_PROBABILITY = 0.0

    def __init__(self, tap=None):
        self._tap = tap or _no_tap

    def check_add(self, a, b, result):
        redundant = self._tap("chk.adder.sum", (a + b) & WORD_MASK)
        return redundant == (result & WORD_MASK)

    def check_sub(self, a, b, result):
        redundant = self._tap("chk.adder.sum", (a - b) & WORD_MASK)
        return redundant == (result & WORD_MASK)

    def check_logic(self, op, a, b, result):
        """Check and/or/xor by emulating them on the adder cells."""
        a &= WORD_MASK
        b &= WORD_MASK
        if op in (Op.AND, Op.ANDI):
            redundant = a & b
        elif op in (Op.OR, Op.ORI):
            redundant = a | b
        elif op in (Op.XOR, Op.XORI):
            redundant = a ^ b
        else:
            raise ValueError("not a logic op: %r" % (op,))
        redundant = self._tap("chk.adder.logic", redundant)
        return redundant == (result & WORD_MASK)

    def check_compare(self, cond, a, b, flag):
        """Replay a compare (a subtract plus flag logic) and check it."""
        redundant = self._tap(
            "chk.adder.flag", 1 if evaluate_condition(cond, a, b) else 0
        )
        return bool(redundant) == bool(flag)

    def check_address(self, base, offset, address):
        """Check a load/store effective-address computation (Sec. 3.4)."""
        redundant = self._tap("chk.adder.addr", (base + offset) & WORD_MASK)
        return redundant == (address & WORD_MASK)


class RsseChecker:
    """Right-Shift + Sign-Extend replay unit (Sec. 3.3.1).

    One unit checks: right shifts (replay), left shifts (shift the result
    back right and compare to the masked operand), sign/zero extensions
    (replay with a zero-bit shift), and the alignment/extension of
    sub-word loads (Sec. 3.4).
    """

    #: Exact replay + full-width compare: no error pattern on the checked
    #: result can alias (static coverage audit hook).
    ALIASING_PROBABILITY = 0.0

    def __init__(self, tap=None):
        self._tap = tap or _no_tap

    def check_right_shift(self, op, a, amount, result):
        amount &= 31
        a &= WORD_MASK
        if op in (Op.SRA, Op.SRAI):
            replay = (to_signed(a) >> amount) & WORD_MASK
        else:
            replay = a >> amount
        replay = self._tap("chk.rsse.out", replay)
        return replay == (result & WORD_MASK)

    def check_left_shift(self, a, amount, result):
        amount &= 31
        result &= WORD_MASK
        shifted_back = self._tap("chk.rsse.out", result >> amount)
        kept_mask = WORD_MASK >> amount
        # The shifted-back comparison plus a zero check on the bits the
        # shifter filled in; without the latter, low-bit corruptions of a
        # left-shift result would escape the replay.
        zeros_ok = (result & ~(WORD_MASK << amount)) == 0 if amount else True
        return shifted_back == (a & kept_mask) and zeros_ok

    def check_extension(self, op, a, result):
        """Check ext{b,h}{s,z} by replaying a zero-shift + extension."""
        a &= WORD_MASK
        if op is Op.EXTHS:
            value = a & 0xFFFF
            replay = (value - 0x10000 if value & 0x8000 else value) & WORD_MASK
        elif op is Op.EXTBS:
            value = a & 0xFF
            replay = (value - 0x100 if value & 0x80 else value) & WORD_MASK
        elif op is Op.EXTHZ:
            replay = a & 0xFFFF
        elif op is Op.EXTBZ:
            replay = a & 0xFF
        else:
            raise ValueError("not an extension op: %r" % (op,))
        replay = self._tap("chk.rsse.out", replay)
        return replay == (result & WORD_MASK)

    def check_load_extension(self, op, word, byte_offset, result):
        """Check sub-word load re-alignment + extension (Sec. 3.4).

        Replays the right-shift that aligns the addressed sub-word out of
        the fetched (little-endian) cache word, then the extension, and
        compares to the load unit's result.
        """
        word &= WORD_MASK
        if op is Op.LWZ:
            replay = word
        elif op in (Op.LHZ, Op.LHS):
            raw = (word >> (8 * (byte_offset & 2))) & 0xFFFF
            if op is Op.LHS and raw & 0x8000:
                replay = (raw - 0x10000) & WORD_MASK
            else:
                replay = raw
        elif op in (Op.LBZ, Op.LBS):
            raw = (word >> (8 * (byte_offset & 3))) & 0xFF
            if op is Op.LBS and raw & 0x80:
                replay = (raw - 0x100) & WORD_MASK
            else:
                replay = raw
        else:
            raise ValueError("not a load: %r" % (op,))
        replay = self._tap("chk.rsse.load", replay)
        return replay == (result & WORD_MASK)

    def check_store_merge(self, op, old_word, value, byte_offset, merged):
        """Check the read-modify-write merge of a sub-word store.

        Replays the byte-lane insertion of ``value`` into ``old_word`` at
        ``byte_offset`` and compares to the store unit's merged word.
        """
        old_word &= WORD_MASK
        if op is Op.SW:
            replay = value & WORD_MASK
        elif op is Op.SH:
            shift = 8 * (byte_offset & 2)
            replay = (old_word & ~(0xFFFF << shift)) | ((value & 0xFFFF) << shift)
        elif op is Op.SB:
            shift = 8 * (byte_offset & 3)
            replay = (old_word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        else:
            raise ValueError("not a store: %r" % (op,))
        replay = self._tap("chk.rsse.store", replay & WORD_MASK)
        return replay == (merged & WORD_MASK)


class ModuloChecker:
    """Mersenne-modulus residue checker for multiply/divide (Sec. 3.3.2).

    Verifies ``(A mod M)*(B mod M) mod M == Product mod M`` and, reusing
    the same logic for division (``B*Quotient = A - Remainder``),
    ``(B mod M)*(Q mod M) mod M == (A mod M - R mod M) mod M``.
    A faulty product that differs from the truth by a multiple of M
    aliases and escapes - the paper's residual-coverage caveat - and the
    probability shrinks as M grows (see the ablation benchmark).
    """

    def __init__(self, modulus=31, tap=None):
        if modulus < 3:
            raise ValueError("modulus must be >= 3")
        self.modulus = modulus
        self._tap = tap or _no_tap

    def _mod(self, value):
        return value % self.modulus

    @staticmethod
    def _signed64(value):
        value &= 0xFFFFFFFFFFFFFFFF
        return value - 0x10000000000000000 if value & 0x8000000000000000 else value

    def residues_mul(self, op, a, b, product64):
        """(operand-side, product-side) residues of a multiply check."""
        m = self.modulus
        if op is Op.MUL:
            sa, sb = to_signed(a), to_signed(b)
            product = self._signed64(product64)
        else:
            sa, sb = a & WORD_MASK, b & WORD_MASK
            product = product64 & 0xFFFFFFFFFFFFFFFF
        lhs = self._tap("chk.mod.lhs", (self._mod(sa) * self._mod(sb)) % m)
        rhs = self._tap("chk.mod.rhs", self._mod(product))
        return lhs, rhs

    def check_mul(self, op, a, b, product64):
        """Check a 32x32->64 multiply against its operand residues."""
        lhs, rhs = self.residues_mul(op, a, b, product64)
        return lhs == rhs

    def residues_div(self, op, a, b, quotient, remainder):
        """(B*Q, A-R) residues of a division check."""
        m = self.modulus
        if op is Op.DIV:
            sa, sb = to_signed(a), to_signed(b)
            sq, sr = to_signed(quotient), to_signed(remainder)
        else:
            sa, sb = a & WORD_MASK, b & WORD_MASK
            sq, sr = quotient & WORD_MASK, remainder & WORD_MASK
        lhs = self._tap("chk.mod.lhs", (self._mod(sb) * self._mod(sq)) % m)
        rhs = self._tap("chk.mod.rhs", (self._mod(sa) - self._mod(sr)) % m)
        return lhs, rhs

    def check_div(self, op, a, b, quotient, remainder):
        """Check a divide via B*Q = A - R in residue arithmetic."""
        lhs, rhs = self.residues_div(op, a, b, quotient, remainder)
        return lhs == rhs

    # -- algebra hooks for the static coverage audit ---------------------
    def single_bit_residues(self, width=64):
        """``{bit: 2**bit mod M}`` - the residue shift a single-bit error
        at that bit position causes on the checked value.

        A residue of 0 would make the bit invisible to the check.  For an
        odd modulus (every Mersenne modulus is odd) no power of two is a
        multiple of M, so every single-bit product/remainder error is
        detected; aliasing requires a multi-bit error pattern that sums
        to a multiple of M.
        """
        return {bit: pow(2, bit, self.modulus) for bit in range(width)}

    def aliasing_probability(self):
        """Escape probability for a uniformly random non-zero error: the
        fraction of deltas that are multiples of M, i.e. 1/M (the paper's
        residual-coverage caveat for the modulo check)."""
        return 1.0 / self.modulus
