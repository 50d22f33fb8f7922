"""Printed reference values that only the tests read.

The corrected tables that `growthlab verify` compares with live in
`growthlab.reference`.  Here are the values as printed, misprints included,
the errata that name each misprint, and the other published figures the
acceptance tests check: labels, column sums, brute-force lengths, the
15-strand Temperley-Lieb data, involution counts, the summand-fusion
matrices that the library does not compute, and the catalogue of families
that are group-injective in characteristic zero.
"""

from growthlab.diagrams import Family

# Temperley-Lieb on 7 strands -------------------------------------------------

TL7_LABELS = (1, 3, 5, 7)

# as printed; row 7 is erratum entry (see ERRATA)
TL7_PROJECTIVE_PRINTED = (
    (1, 2, 5, 14),
    (1, 3, 9, 28),
    (0, 0, 1, 6),
    (1, 3, 9, 29),
)

TL7_LINV_COLUMN_SUMS = (-3, 8, -5, 1)

# Motzkin on 5 strands --------------------------------------------------------

MO5_LABELS = (0, 1, 2, 3, 4, 5)

# as printed; entries (2,5), (4,2), (4,3) are errata (see ERRATA)
MO5_PROJECTIVE_PRINTED = (
    (1, 1, 2, 4, 9, 21),
    (0, 1, 2, 5, 12, 30),
    (1, 1, 3, 7, 18, 47),
    (0, 0, 0, 1, 4, 14),
    (0, 0, 0, 0, 10, 30),
    (0, 0, 0, 0, 0, 1),
)

MO5_CELL_LINV_COLUMN_SUMS = (0, -2, 3, 3, -4, 1)
MO5_SIMPLE_LINV_COLUMN_SUMS = (1, -4, 4, 3, -4, 1)

# the circulated length of the tensor powers of S_1, read off the mislabeled
# inverse (see growthlab.reference.MO5_S1_LENGTH_TERMS)
MO5_S1_LENGTH_TERMS_PRINTED = ((1, 30), (-4, 12), (3, 5), (3, 2), (-2, 1))
MO5_S1_LENGTHS = (1, 411, 20491, 728991)  # n = 1..4, brute force

# Documented errata: (family, kind, row label, column label, printed, corrected).
# Each printed value contradicts the SES relations phi_i = cell_i + cell_{i^-}
# (equivalently the reciprocity C = D^T D), the adjacent printed cell panel,
# and the brute-force oracle.
ERRATA = (
    (Family.TEMPERLEY_LIEB, "projective", 7, 1, 1, 0),
    (Family.TEMPERLEY_LIEB, "projective", 7, 3, 3, 1),
    (Family.TEMPERLEY_LIEB, "projective", 7, 5, 9, 4),
    (Family.TEMPERLEY_LIEB, "projective", 7, 7, 29, 15),
    (Family.MOTZKIN, "projective", 2, 5, 47, 46),
    (Family.MOTZKIN, "projective", 4, 2, 0, 1),
    (Family.MOTZKIN, "projective", 4, 3, 0, 3),
)

# Temperley-Lieb on 15 strands: the cell module S_3 ---------------------------

TL15_S3_CHARVEC = (0, 1, 4, 14, 48, 165, 572, 2002)
TL15_S3_CHI_SEC = 572

# Known involution counts I(m) = number of involutions in S_m, m = 1..12
INVOLUTION_COUNTS = (1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, 35696, 140152)

# Summand fusion graphs that this library deliberately does not compute -------
#
# These require decomposing tensor powers into indecomposables (Krull-Schmidt),
# which is out of scope; the adjacency matrices are kept only as reference
# data for the record.  Cases: the 4-dimensional simple module of the rook
# monoid on 4 strands over the 2-element field; the 5-dimensional projective
# module of the partition monoid on 3 strands over the complex numbers; the
# 6-dimensional indecomposable summand of the regular module of the semigroup
# of nonunits of that partition monoid.

EXCLUDED_SUMMAND_FUSION = {
    "rook4_mod2_simple4": (
        (0, 0, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0),
        (0, 1, 2, 0, 0, 0, 0),
        (0, 0, 2, 2, 2, 0, 0),
        (0, 0, 1, 1, 1, 0, 0),
        (0, 0, 0, 1, 0, 3, 2),
        (0, 0, 0, 0, 1, 1, 2),
    ),
    "partition3_proj5": (
        (0, 0, 0, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0),
        (0, 1, 3, 0, 1, 2, 3),
        (0, 3, 0, 3, 1, 4, 5),
        (0, 1, 1, 1, 4, 5, 8),
        (0, 1, 0, 0, 0, 1, 0),
        (0, 1, 0, 0, 0, 1, 2),
    ),
    "partition3_nonunits_summand6": (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 28, 6, 40),
        (0, 1, 0, 1),
    ),
}

# Classes of monoids known to satisfy the group-injective condition over the
# complex numbers regardless of the strand count, with the reason in brief.
# Temperley-Lieb and Motzkin are the exceptions: there the condition holds
# exactly when m+1 is ancestorless (all non-leading digits zero) for
# (infinity, 3) resp. (infinity, 2), which group_injective evaluates.
GROUP_INJECTIVE_CHAR0_CATALOG = {
    "planar_rook": "semisimple inverse monoid",
    "rook": "inverse monoid: projectives are injective",
    "brauer": "induced sign module is cut out by an idempotent",
    "rook_brauer": "induced sign module is cut out by an idempotent",
    "partition": "induced sign module is cut out by an idempotent",
    "full_transformation": "no quiver arrows into induced modules",
    "partial_transformation": "no quiver arrows into induced modules",
    "order_preserving_partial": "no quiver arrows into induced modules",
    "partial_catalan": "no quiver arrows into induced modules",
    "partial_order_decreasing": "no quiver arrows into induced modules",
    "catalan": "induced trivial module is injective (J-trivial quiver)",
    "full_linear_mixed_characteristic": "self-injective direct factor",
}
