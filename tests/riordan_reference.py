"""Per-entry closed forms of the inverse cell tables.

The library builds `cell_inverse` a column at a time by the Riordan
recurrences of `tables._inverse_column`; these formulas, one binomial sum
per entry, are the referee for it.  The bodies are kept as they were in the
library.
"""

from math import comb

from growthlab.diagrams import Family


def pascal_inverse_entry(i: int, j: int) -> int:
    """(i, j) entry of the inverse of the upper Pascal triangle C(j, i)."""
    if j < i:
        return 0
    return (-1) ** (j - i) * comb(j, i)


def tl_inverse_entry(i: int, j: int) -> int:
    """[x^((j-i)/2)] (1+x)^-(i+1), the inverse Catalan Riordan array."""
    if j < i or (j - i) % 2:
        return 0
    return (-1) ** ((j - i) // 2) * comb((i + j) // 2, i)


def mo_inverse_entry(i: int, j: int) -> int:
    """[x^(j-i)] (1+x+x^2)^-(i+1), the inverse Motzkin Riordan array."""
    if j < i:
        return 0
    d = j - i
    total = 0
    for r in range(d // 2 + 1):
        total += (-1) ** r * comb(i + r, r) * comb(j - r, d - 2 * r)
    return (-1) ** d * total


_INVERSE_ENTRY = {
    Family.PLANAR_ROOK: pascal_inverse_entry,
    Family.TEMPERLEY_LIEB: tl_inverse_entry,
    Family.MOTZKIN: mo_inverse_entry,
}
