"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s or look at the
captured output); any failure surfaces as an ordinary assertion error.
"""

import time
from fractions import Fraction
from math import comb, factorial

from growthlab.diagrams import Family
from growthlab.fusion import fusion_matrix, realized_n0, scc_analysis, spectral_check
from growthlab.growth import (
    an_constant,
    convergence_report,
    evaluate,
    leading_term,
    length_series,
    linear_monoid_constant,
    module_spec,
)
from growthlab.oracle import (
    count_check,
    oracle_cell_table,
    oracle_multiplicity,
    oracle_product_multiplicity,
    oracle_simple_table,
)
from growthlab.reference import (
    MO5_CELL,
    MO5_CELL_LINV_PRINTED,
    MO5_PROJECTIVE,
    MO5_S1_LENGTH_TERMS,
    MO5_SIMPLE,
    MO5_SIMPLE_LINV,
    PRO8_V2_FUSION,
    PRO8_V2_N0,
    TL7_CELL,
    TL7_LINV,
    TL7_PROJECTIVE,
    TL7_SIMPLE,
    TL7_V3_LENGTH_TERMS,
)
from growthlab.tables import (
    CHAR0_MO,
    ancestorless,
    cell_table,
    decomposition_matrix,
    group_injective,
    projective_table,
    simple_table,
)

import growthlab
from cell_formulas import tl_cell_entry
from linalg_reference import col, inverse, mat_mul
from printed_reference import (
    ERRATA,
    EXCLUDED_SUMMAND_FUSION,
    INVOLUTION_COUNTS,
    MO5_CELL_LINV_COLUMN_SUMS,
    MO5_LABELS,
    MO5_PROJECTIVE_PRINTED,
    MO5_S1_LENGTHS,
    MO5_S1_LENGTH_TERMS_PRINTED,
    MO5_SIMPLE_LINV_COLUMN_SUMS,
    TL15_S3_CHARVEC,
    TL15_S3_CHI_SEC,
    TL7_LABELS,
    TL7_LINV_COLUMN_SUMS,
    TL7_PROJECTIVE_PRINTED,
)


def int_rows(mat):
    """The entries of mat as ints, after checking that each is an integer."""
    assert all(x.denominator == 1 for row in mat.rows for x in row)
    return tuple(tuple(x.numerator for x in row) for row in mat.rows)


def test_criterion_01_golden_tables():
    assert cell_table(Family.TEMPERLEY_LIEB, 7).labels == TL7_LABELS
    assert cell_table(Family.MOTZKIN, 5).labels == MO5_LABELS
    assert int_rows(cell_table(Family.TEMPERLEY_LIEB, 7).mat) == TL7_CELL
    assert int_rows(simple_table(Family.TEMPERLEY_LIEB, 7).mat) == TL7_SIMPLE
    assert int_rows(projective_table(Family.TEMPERLEY_LIEB, 7).mat) == TL7_PROJECTIVE
    assert int_rows(cell_table(Family.MOTZKIN, 5).mat) == MO5_CELL
    assert int_rows(simple_table(Family.MOTZKIN, 5).mat) == MO5_SIMPLE
    assert int_rows(projective_table(Family.MOTZKIN, 5).mat) == MO5_PROJECTIVE
    for m in range(1, 9):
        table = cell_table(Family.PLANAR_ROOK, m)
        pascal = tuple(tuple(comb(j, i) for j in table.labels) for i in table.labels)
        assert int_rows(table.mat) == pascal
        assert simple_table(Family.PLANAR_ROOK, m).mat == table.mat
        assert projective_table(Family.PLANAR_ROOK, m).mat == table.mat

    # the projective-panel errata: printed values deviate exactly where flagged,
    # and the oracle arbitrates via projective = D^T . cell with oracle cell rows
    printed = {
        (Family.TEMPERLEY_LIEB, 7): TL7_PROJECTIVE_PRINTED,
        (Family.MOTZKIN, 5): MO5_PROJECTIVE_PRINTED,
    }
    flagged = {(f, i, j): (p, c) for f, kind, i, j, p, c in ERRATA}
    for (family, m), printed_rows in printed.items():
        table = projective_table(family, m)
        oracle_proj = mat_mul(
            decomposition_matrix(family, m).mat.transpose(), oracle_cell_table(family, m)
        )
        assert oracle_proj == table.mat
        for ri, i in enumerate(table.labels):
            for ci, j in enumerate(table.labels):
                got = int(table.mat.rows[ri][ci])
                if (family, i, j) in flagged:
                    p, c = flagged[(family, i, j)]
                    assert printed_rows[ri][ci] == p and got == c and p != c
                else:
                    assert got == printed_rows[ri][ci]
    print("ACCEPT 01 PASS - golden cell/simple/projective tables "
          "(TL7, Mo5, planar rook Pascal m<=8; projective errata documented and oracle-arbitrated)")


def test_criterion_02_printed_inverses():
    tl_linv = inverse(simple_table(Family.TEMPERLEY_LIEB, 7).mat.transpose())
    assert int_rows(tl_linv) == TL7_LINV
    assert tuple(sum(col(tl_linv, j)) for j in range(4)) == TL7_LINV_COLUMN_SUMS
    mo_simple_linv = inverse(simple_table(Family.MOTZKIN, 5).mat.transpose())
    assert int_rows(mo_simple_linv) == MO5_SIMPLE_LINV
    assert tuple(sum(col(mo_simple_linv, j)) for j in range(6)) == MO5_SIMPLE_LINV_COLUMN_SUMS
    # the matrix printed with column sums (0,-2,3,3,-4,1) inverts the
    # transposed CELL table (its printed attribution to the simple table is a
    # documented erratum)
    mo_cell_linv = inverse(cell_table(Family.MOTZKIN, 5).mat.transpose())
    assert int_rows(mo_cell_linv) == MO5_CELL_LINV_PRINTED
    assert tuple(sum(col(mo_cell_linv, j)) for j in range(6)) == MO5_CELL_LINV_COLUMN_SUMS
    assert int_rows(mo_simple_linv) != MO5_CELL_LINV_PRINTED
    print("ACCEPT 02 PASS - printed inverse-transpose matrices "
          "(TL7 column sums -3,8,-5,1; Mo5 printed matrix = cell-table route with sums 0,-2,3,3,-4,1; "
          "true simple-table route has sums 1,-4,4,3,-4,1)")


def test_criterion_03_growth_formulas():
    start = time.perf_counter()
    tl_spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    tl_series = length_series(tl_spec, simple_table(Family.TEMPERLEY_LIEB, 7))
    assert tuple((int(c), b) for c, b in tl_series.nonzero_base_terms()) == TL7_V3_LENGTH_TERMS
    mo_spec = module_spec(Family.MOTZKIN, 5, "S1")
    mo_series = length_series(mo_spec, simple_table(Family.MOTZKIN, 5))
    assert tuple((int(c), b) for c, b in mo_series.nonzero_base_terms()) == MO5_S1_LENGTH_TERMS
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    # the printed Mo5 variant is precisely the cell-table route (documented erratum)
    cell_linv = inverse(cell_table(Family.MOTZKIN, 5).mat.transpose())
    cell_route = {}
    for j, chi in enumerate(mo_spec.charvec):
        cell_route[int(chi)] = cell_route.get(int(chi), Fraction(0)) + sum(col(cell_linv, j))
    printed = {b: Fraction(c) for c, b in MO5_S1_LENGTH_TERMS_PRINTED}
    assert {b: c for b, c in cell_route.items() if c and b != 0} == printed

    # values for n = 1..6 match the brute-force oracle sums
    for spec, series in ((tl_spec, tl_series), (mo_spec, mo_series)):
        for n in range(1, 7):
            assert evaluate(series, n) == sum(oracle_multiplicity(spec, n))
    for n, frozen in enumerate(MO5_S1_LENGTHS, start=1):
        assert sum(oracle_multiplicity(mo_spec, n)) == frozen
    print(f"ACCEPT 03 PASS - length formulas 13^n-5*4^n+8 (TL7/V3) and "
          f"30^n-4*12^n+3*5^n+4*2^n-4 (Mo5/S1, corrected; printed variant pinned to the "
          f"cell-table route), oracle-matched for n=1..6 ({elapsed:.3f}s)")


def test_criterion_04_pro8_fusion():
    spec = module_spec(Family.PLANAR_ROOK, 8, "V2")
    graph = fusion_matrix(spec, simple_table(Family.PLANAR_ROOK, 8))
    assert int_rows(graph.adjacency) == PRO8_V2_FUSION
    assert realized_n0(graph, {8}) == PRO8_V2_N0 == -(-8 // 2)
    report = scc_analysis(graph)
    assert report.absorbing == (8,)
    idx = graph.label_index(8)
    assert graph.adjacency.rows[idx][idx] == 28
    print("ACCEPT 04 PASS - pRo8/V2 fusion matrix matches entry-for-entry; "
          "realized n0 = 4 = ceil(8/2); absorbing self-loop 28")


def test_criterion_05_planar_rook_tensor_rule():
    start = time.perf_counter()
    for m in (4, 5):
        specs = [module_spec(Family.PLANAR_ROOK, m, f"V{i}") for i in range(m + 1)]
        for i in range(m + 1):
            for j in range(m + 1):
                brute = oracle_product_multiplicity(specs[i], specs[j])
                for l in range(m + 1):
                    closed = comb(l, i) * comb(i, i + j - l) if 0 <= i + j - l <= i else 0
                    assert closed == brute[l]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPT 05 PASS - [V_i(x)V_j:V_l] = C(l,i)C(i,i+j-l) vs oracle, "
          f"all i,j,l at m=4,5 ({elapsed:.2f}s)")


def test_criterion_06_tl15_data():
    spec = module_spec(Family.TEMPERLEY_LIEB, 15, "S3")
    assert spec.charvec == TL15_S3_CHARVEC
    assert tl_cell_entry(13, 3) == 572
    report = convergence_report(spec)
    assert report.chi_sec == TL15_S3_CHI_SEC == 572
    m, i = 15, 3
    bound_exponent = Fraction((m - i) * (m + i + 2), 4 * m * (m - 1))
    assert bound_exponent == Fraction(2, 7)
    assert report.ratio == bound_exponent
    series = length_series(spec, simple_table(Family.TEMPERLEY_LIEB, 15))
    assert leading_term(series).terms == ((Fraction(1), 2002),)
    print("ACCEPT 06 PASS - TL15/S3: charvec (0,1,4,14,48,165,572,2002), "
          "chi_sec = 572 = alpha(13,3), ratio 2/7 equals the bound exponent, leading term 2002^n")


def test_criterion_07_oracle_equivalence():
    start = time.perf_counter()
    bounds = (
        (Family.PLANAR_ROOK, 6),
        (Family.TEMPERLEY_LIEB, 7),
        (Family.MOTZKIN, 5),
    )
    for family, top in bounds:
        for m in range(1, top + 1):
            assert oracle_cell_table(family, m) == cell_table(family, m).mat
            assert oracle_simple_table(family, m) == simple_table(family, m).mat
            cc = count_check(family, m)
            assert cc.actual == cc.expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPT 07 PASS - every cell/simple character and monoid order equals the "
          f"brute-force value (pRo<=6, TL<=7, Mo<=5) ({elapsed:.2f}s)")


def test_criterion_08_asymptotic_constants():
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN):
        for m in range(1, 9):
            if family is Family.TEMPERLEY_LIEB or m <= 6:
                assert an_constant(family, m) == 1
    for m in range(1, 7):
        for family in (Family.BRAUER, Family.ROOK, Family.ROOK_BRAUER, Family.PARTITION):
            assert an_constant(family, m) * factorial(m) == INVOLUTION_COUNTS[m - 1]
    # a(n) = 13^n for TL7/V3, as the planar constant times dim^n
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    constant = an_constant(Family.TEMPERLEY_LIEB, 7)
    assert constant == 1 and spec.dim == 13
    print("ACCEPT 08 PASS - a(n) constants: 1 for planar families; involution sums "
          "with m!*c = 1,2,4,10,26,76 for m=1..6; a(n) = 13^n for TL7/V3")


def test_criterion_09_spectral_reconstruction():
    for family, m, sel in (
        (Family.TEMPERLEY_LIEB, 7, "V3"),
        (Family.MOTZKIN, 5, "S1"),
        (Family.PLANAR_ROOK, 8, "V2"),
    ):
        spec = module_spec(family, m, sel)
        table = simple_table(family, m)
        graph = fusion_matrix(spec, table)
        report = spectral_check(graph, spec, table, max_n=6)
        assert report["ok"]
    print("ACCEPT 09 PASS - sum of P_lam * lam^n = A^n, sum P_lam = I, P_lam^2 = P_lam "
          "for TL7/V3, Mo5/S1, pRo8/V2, n <= 6")


def test_criterion_10_criteria_predicates():
    for m in range(1, 31):
        assert group_injective(Family.TEMPERLEY_LIEB, m) == (m % 3 == 2)
        # the ancestorless criterion on m+1 makes the Motzkin condition
        # "m odd" in characteristic zero (the circulated parity "m even"
        # contradicts the criterion and the structure: for odd m the top
        # label is critical, so V_m = S_m = P_m is injective)
        assert group_injective(Family.MOTZKIN, m) == ancestorless(m + 1, CHAR0_MO) == (m % 2 == 1)
    assert linear_monoid_constant(2, 1) == Fraction(2, 3)
    print("ACCEPT 10 PASS - group-injective predicates: TL_m iff m = 2 mod 3; "
          "Mo_m iff m+1 = 0 mod 2 (documented erratum vs the 'm = 0 mod 2' phrasing); "
          "linear monoid constant (2,1) = 2/3")


def test_criterion_11_convergence_property():
    for family, m, sel in ((Family.TEMPERLEY_LIEB, 7, "V3"), (Family.MOTZKIN, 5, "S1")):
        spec = module_spec(family, m, sel)
        table = simple_table(family, m)
        series = length_series(spec, table)
        k = leading_term(series)
        q = convergence_report(spec).ratio
        errors = [abs(evaluate(series, n) / evaluate(k, n) - 1) for n in range(2, 21)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        fitted = max(err / q**n for err, n in zip(errors, range(2, 21)))
        assert fitted <= 10
    print("ACCEPT 11 PASS - |l(n)/k(n) - 1| strictly decreases and is bounded by "
          "C*(chi_sec/dim)^n for n=2..20 with fitted C <= 10 (TL7/V3 and Mo5/S1)")


def test_criterion_12_excluded_figures_carried_as_fixtures():
    shapes = {name: len(rows) for name, rows in EXCLUDED_SUMMAND_FUSION.items()}
    assert shapes == {
        "rook4_mod2_simple4": 7,
        "partition3_proj5": 7,
        "partition3_nonunits_summand6": 4,
    }
    for rows in EXCLUDED_SUMMAND_FUSION.values():
        assert all(len(r) == len(rows) for r in rows)
        assert all(isinstance(x, int) and x >= 0 for r in rows for x in r)
    # the library deliberately exposes no summand-fusion computation
    assert not any("summand" in name.lower() for name in dir(growthlab))
    print("ACCEPT 12 PASS - excluded summand-fusion figures carried as reference "
          "fixtures only (Krull-Schmidt decomposition is out of scope)")
