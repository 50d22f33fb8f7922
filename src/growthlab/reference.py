"""Golden reference data read by the verification suite.

The character tables and inverse matrices below are the widely printed
reference values for these monoids; the verify suite demands bit-exact
agreement with what the library computes.

Three printed projective-table entries (and one full row) in circulation are
internally inconsistent: they contradict the short-exact-sequence relations
that define the projective rows, the cell panels printed beside them, and the
brute-force oracle.  The tables here are the corrected ones.  The printed
tables and the errata (printed and corrected value of each entry) are test
fixtures, in tests/printed_reference.py; tests/test_acceptance.py and
tests/test_tables.py assert that the printed deviations match the errata
exactly.  `growthlab verify` does not check that provenance.
"""

from __future__ import annotations

# Temperley-Lieb on 7 strands, labels (1, 3, 5, 7) ----------------------------

TL7_CELL = (
    (1, 2, 5, 14),
    (0, 1, 4, 14),
    (0, 0, 1, 6),
    (0, 0, 0, 1),
)

TL7_SIMPLE = (
    (1, 1, 1, 1),
    (0, 1, 4, 13),
    (0, 0, 1, 6),
    (0, 0, 0, 1),
)

# row 7 corrected (the printed row is an erratum)
TL7_PROJECTIVE = (
    (1, 2, 5, 14),
    (1, 3, 9, 28),
    (0, 0, 1, 6),
    (0, 1, 4, 15),
)

# L^-1 = inverse of the transposed simple table
TL7_LINV = (
    (1, 0, 0, 0),
    (-1, 1, 0, 0),
    (3, -4, 1, 0),
    (-6, 11, -6, 1),
)

# "13^n - 5*4^n + 8" for the 13-dimensional simple V_3 (n >= 1 form)
TL7_V3_LENGTH_TERMS = ((1, 13), (-5, 4), (8, 1))

# Motzkin on 5 strands, labels 0..5 -------------------------------------------

MO5_CELL = (
    (1, 1, 2, 4, 9, 21),
    (0, 1, 2, 5, 12, 30),
    (0, 0, 1, 3, 9, 25),
    (0, 0, 0, 1, 4, 14),
    (0, 0, 0, 0, 1, 5),
    (0, 0, 0, 0, 0, 1),
)

MO5_SIMPLE = (
    (1, 1, 1, 1, 1, 1),
    (0, 1, 2, 5, 12, 30),
    (0, 0, 1, 3, 8, 20),
    (0, 0, 0, 1, 4, 14),
    (0, 0, 0, 0, 1, 5),
    (0, 0, 0, 0, 0, 1),
)

# entries (2,5), (4,2), (4,3) corrected (the printed entries are errata)
MO5_PROJECTIVE = (
    (1, 1, 2, 4, 9, 21),
    (0, 1, 2, 5, 12, 30),
    (1, 1, 3, 7, 18, 46),
    (0, 0, 0, 1, 4, 14),
    (0, 0, 1, 3, 10, 30),
    (0, 0, 0, 0, 0, 1),
)

# The matrix printed alongside the Mo_5 tables as "L^-1".  It is actually the
# inverse transpose of the CELL table, not of the simple table: multiplying it
# against the transposed simple table does not give the identity, and the
# length formula read off its column sums undercounts composition factors
# (it counts cell multiplicities, missing the second factor of the length-2
# cell modules S_0 and S_2).  Kept verbatim for the record; the verify suite
# proves both identities.
MO5_CELL_LINV_PRINTED = (
    (1, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0),
    (0, -2, 1, 0, 0, 0),
    (1, 1, -3, 1, 0, 0),
    (-1, 2, 3, -4, 1, 0),
    (0, -4, 2, 6, -5, 1),
)

# The true inverse transpose of the Mo_5 simple table.
MO5_SIMPLE_LINV = (
    (1, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0),
    (1, 1, -3, 1, 0, 0),
    (-1, 0, 4, -4, 1, 0),
    (0, -4, 2, 6, -5, 1),
)

# Length of the n-th tensor power of the 30-dimensional cell module S_1.
# The n >= 1 closed form is 30^n - 4*12^n + 3*5^n + 4*2^n - 4; the circulated
# variant 30^n - 4*12^n + 3*5^n + 3*2^n - 2 comes from the mislabeled inverse
# above and disagrees with the brute-force count already at n = 2 (409 vs the
# true 411).
MO5_S1_LENGTH_TERMS = ((1, 30), (-4, 12), (3, 5), (4, 2), (-4, 1))

# Planar rook on 8 strands: fusion of the 28-dimensional simple V_2 -----------

PRO8_V2_FUSION = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 2, 1, 0, 0, 0, 0, 0, 0),
    (0, 3, 6, 3, 0, 0, 0, 0, 0),
    (0, 0, 6, 12, 6, 0, 0, 0, 0),
    (0, 0, 0, 10, 20, 10, 0, 0, 0),
    (0, 0, 0, 0, 15, 30, 15, 0, 0),
    (0, 0, 0, 0, 0, 21, 42, 21, 0),
    (0, 0, 0, 0, 0, 0, 28, 56, 28),
)
PRO8_V2_N0 = 4  # = ceil(8 / 2): shortest path from the trivial node to V_8
