"""Dataflow and Control Signature (DCS) computation - paper Sec. 3.2.2.

The block DCS is derived from all SHSs after the block's last instruction
commits: the SHS bits are run "through a hard-wired bit permutation and
then ... through an XOR tree that computes the final 5-bit DCS".  The
permutation makes the DCS depend not just on the *set* of SHS values but
on their *assignment to registers*, so an error that writes the right
value history to the wrong register still perturbs the DCS.

The permutation here is a fixed pseudo-random table generated once from a
constant seed - the software analogue of a hard-wired wire swizzle.

Permute + XOR-fold is linear over GF(2), so the DCS of a whole SHS file is
the XOR of each location's contribution on its own.  :func:`compute_dcs`
therefore XORs one entry from each of 35 per-location, 32-entry tables,
which equals the permute-and-fold of the whole file.  :func:`_fold_flat`
stays the definition: the tables are built from its single-bit folds,
and the static coverage audit's algebra (:func:`fold_delta`,
:func:`single_bit_sensitivity`) uses it unchanged.
"""

import random

from repro.argus import shs as shs_mod

DCS_BITS = 5
DCS_MASK = (1 << DCS_BITS) - 1

_TOTAL_BITS = shs_mod.NUM_LOCATIONS * shs_mod.SHS_BITS


def _build_permutation():
    rng = random.Random(0xA1905)  # fixed: this is hard-wired in silicon
    order = list(range(_TOTAL_BITS))
    rng.shuffle(order)
    return tuple(order)


#: PERMUTATION[i] = source flat-bit index routed to folded position i.
PERMUTATION = _build_permutation()


def _fold_flat(flat):
    """Permute + XOR-fold one flat SHS bit vector down to DCS_BITS."""
    # Hard-wired permutation.
    permuted = 0
    for i, src in enumerate(PERMUTATION):
        if (flat >> src) & 1:
            permuted |= 1 << i
    # XOR tree: fold the permuted vector down to DCS_BITS.
    dcs = 0
    while permuted:
        dcs ^= permuted & DCS_MASK
        permuted >>= DCS_BITS
    return dcs


def compute_dcs(shs_values):
    """Fold a full SHS snapshot (35 x 5-bit values) into the 5-bit DCS."""
    dcs = 0
    for row, value in zip(_TABLE, shs_values):
        dcs ^= row[value & shs_mod.SHS_MASK]
    return dcs


def dcs_of_file(shs_file):
    """DCS of a live :class:`~repro.argus.shs.ShsFile`."""
    return compute_dcs(shs_file.values)


# ---------------------------------------------------------------------------
# Algebra hooks for the static coverage audit (repro.analysis.coverage).
#
# Permute + XOR-fold is linear over GF(2): an error ``delta`` XORed into
# the flat SHS vector perturbs the DCS by exactly ``fold_delta(delta)``,
# independent of the SHS contents.
# ---------------------------------------------------------------------------

#: Worst-case probability that two independent 5-bit DCS values collide -
#: the fold is surjective, so a uniformly distributed corruption of the
#: SHS vector escapes the block compare with probability 1/32.
DCS_ALIASING_BOUND = 1.0 / (1 << DCS_BITS)


def _build_table():
    """``table[location][value]``: the DCS of the flat SHS vector holding
    ``value`` at ``location`` and zeros elsewhere - by linearity, the XOR
    of the single-bit folds of the value's set bits.  The flat vector puts
    location 0 in the most significant bits, mirroring the wide SHS
    register of Argus-1."""
    single = single_bit_sensitivity()
    last = shs_mod.NUM_LOCATIONS - 1
    table = []
    for location in range(shs_mod.NUM_LOCATIONS):
        row = [0]
        for bit in range(shs_mod.SHS_BITS):
            delta = single[shs_mod.SHS_BITS * (last - location) + bit]
            row += [dcs ^ delta for dcs in row]  # entries with ``bit`` set
        table.append(tuple(row))
    return tuple(table)


def fold_delta(flat_delta):
    """DCS perturbation caused by XORing ``flat_delta`` into the flat
    SHS vector (valid for any SHS contents, by linearity of the fold)."""
    return _fold_flat(flat_delta)


def single_bit_sensitivity():
    """``{flat bit: DCS delta}`` for every single-bit SHS flip.

    Each flat bit is routed to exactly one fold position, so every
    single-bit delta is a power of two - never zero: no single SHS bit is
    blind to the DCS compare, which is what makes a flat SHS corruption's
    escape odds exactly the 1/32 collision bound rather than worse.
    """
    return {bit: _fold_flat(1 << bit) for bit in range(_TOTAL_BITS)}


_TABLE = _build_table()
