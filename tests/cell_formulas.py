"""Closed forms of the Temperley-Lieb and Motzkin cell entries.

The library fills its cell tables by a lattice-path recurrence; these
per-entry formulas are an independent referee for it.  Planar rook needs
none: its cell entries are `math.comb(j, i)`.
"""

from fractions import Fraction
from math import comb

from growthlab.errors import InternalCheckError


def tl_cell_entry(j: int, i: int) -> int:
    """alpha(j, i): fixed half-diagram count, a ballot number."""
    if j < i or (j - i) % 2:
        return 0
    c = (j - i) // 2
    value = Fraction(j - 2 * c + 1, j - c + 1) * comb(j, c)
    if value.denominator != 1:
        raise InternalCheckError(f"ballot number alpha({j}, {i}) is not an integer")
    return int(value)


def mo_cell_entry(j: int, i: int) -> int:
    """beta(j, i): Motzkin cell dimension over j strands."""
    if j < i:
        return 0
    total = 0
    for t in range((j - i) // 2 + 1):
        # (i+1)/(i+t+1) * C(i+2t, t) is a ballot number
        ballot, rest = divmod((i + 1) * comb(i + 2 * t, t), i + t + 1)
        if rest:
            raise InternalCheckError(f"Motzkin cell dimension beta({j}, {i}) is not an integer")
        total += comb(j, i + 2 * t) * ballot
    return total
