import csv
import io
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cell_formulas
import riordan_reference
import series_reference
from linalg_reference import inverse, mat_mul
from printed_reference import ERRATA, GROUP_INJECTIVE_CHAR0_CATALOG, MO5_PROJECTIVE_PRINTED, TL7_PROJECTIVE_PRINTED
from growthlab import growth, tables
from growthlab.diagrams import Family, rank_labels
from growthlab.errors import InputError, InternalCheckError, SingularMatrixError
from growthlab.fusion import fusion_matrix, power_multiplicities
from growthlab.linalg import Mat
from growthlab.oracle import _gram_rows
from growthlab.reference import (
    MO5_CELL,
    MO5_PROJECTIVE,
    MO5_SIMPLE,
    TL7_CELL,
    TL7_PROJECTIVE,
    TL7_SIMPLE,
)
from growthlab.tables import (
    CHAR0_MO,
    CHAR0_TL,
    INFINITY,
    PLParams,
    ancestorless,
    cell_inverse,
    cell_table,
    check_motzkin_simple_closed_form,
    decomposition_matrix,
    group_injective,
    mo_simple_entry_closed,
    pl_digits,
    pl_support,
    projective_table,
    reflections,
    simple_table,
    table_of_kind,
    table_to_csv,
    table_to_json,
    trivial_label,
)

PLANAR = (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN)


def int_rows(table):
    return tuple(tuple(int(x) for x in row) for row in table.mat.rows)


# ---------------------------------------------------------------------------
# cell tables and inverses

def test_planar_rook_cell_is_pascal():
    t = cell_table(Family.PLANAR_ROOK, 3)
    assert t.labels == (0, 1, 2, 3)
    assert tuple(int(x) for x in t.row(1)) == (0, 1, 2, 3)
    for m in range(1, 9):
        t = cell_table(Family.PLANAR_ROOK, m)
        assert int_rows(t) == tuple(tuple(comb(j, i) for j in t.labels) for i in t.labels)


def test_tl7_cell_table():
    assert int_rows(cell_table(Family.TEMPERLEY_LIEB, 7)) == TL7_CELL


def test_mo5_cell_table():
    t = cell_table(Family.MOTZKIN, 5)
    assert int_rows(t) == MO5_CELL
    assert tuple(int(x) for x in t.row(0)) == (1, 1, 2, 4, 9, 21)
    assert tuple(int(x) for x in t.row(2)) == (0, 0, 1, 3, 9, 25)


def test_mo_cell_entry_matches_the_fraction_sum():
    # beta(j, i) = sum_t (i+1)/(i+t+1) * C(j, i+2t) * C(i+2t, t), summed over
    # Fractions and checked integral at the end
    def fraction_sum(j, i):
        total = sum(
            (
                Fraction(i + 1, i + t + 1) * comb(j, i + 2 * t) * comb(i + 2 * t, t)
                for t in range((j - i) // 2 + 1)
            ),
            Fraction(0),
        )
        assert total.denominator == 1
        return int(total)

    table = cell_table(Family.MOTZKIN, 60)
    for j in range(61):
        for i in range(61):
            expected = fraction_sum(j, i) if i <= j else 0
            assert table.entry(i, j) == expected, (j, i)


CELL_FORMULAS = {
    Family.PLANAR_ROOK: comb,
    Family.TEMPERLEY_LIEB: cell_formulas.tl_cell_entry,
    Family.MOTZKIN: cell_formulas.mo_cell_entry,
}


@pytest.mark.parametrize("family", PLANAR)
def test_cell_table_matches_the_closed_forms_up_to_m60(family):
    # the lattice-path recurrence against the per-entry closed forms
    # (Pascal, ballot and Motzkin triangles), at every size
    entry = CELL_FORMULAS[family]
    for m in range(1, 61):
        t = cell_table(family, m)
        assert int_rows(t) == tuple(tuple(entry(j, i) for j in t.labels) for i in t.labels), m


@pytest.mark.parametrize("family", PLANAR)
def test_cell_tables_unitriangular(family):
    for m in range(1, 8):
        for kind in ("cell", "simple"):
            t = table_of_kind(family, m, kind)
            n = len(t.labels)
            for i in range(n):
                assert t.mat.rows[i][i] == 1
                assert all(t.mat.rows[i][j] == 0 for j in range(i))
                assert all(x.denominator == 1 for x in t.mat.rows[i])


def _with_entry(rows, i, j, value):
    rows = [list(row) for row in rows]
    rows[i][j] = value
    return tuple(map(tuple, rows))


@pytest.mark.parametrize(
    "i, j, value, error",
    [
        (3, 1, 1, InputError),  # below the diagonal, outside target 0's block
        (2, 2, 0, SingularMatrixError),  # zero diagonal
        (2, 2, 2, InputError),  # diagonal 2
        (1, 3, Fraction(1, 2), InputError),  # an entry that is not an int
    ],
)
def test_a_malformed_triangular_table_fails_when_built(i, j, value, error):
    simple = simple_table(Family.MOTZKIN, 5)
    rows = _with_entry(simple.rows, i, j, value)
    for kind in ("cell", "simple", "cell_inverse"):
        with pytest.raises(error):
            tables.CharTable(simple.family, simple.m, kind, simple.labels, rows)
    # tables not promised triangular take the same rows
    tables.CharTable(simple.family, simple.m, "projective", simple.labels, rows)
    tables.DecompositionMatrix(simple.family, simple.m, simple.labels, rows)


def test_cell_inverse_closed_forms():
    tl = cell_inverse(Family.TEMPERLEY_LIEB, 7)
    assert tl.entry(1, 3) == -2
    assert tl.entry(1, 5) == 3
    mo = cell_inverse(Family.MOTZKIN, 5)
    assert mo.entry(0, 2) == 0
    assert mo.entry(0, 1) == -1
    pro = cell_inverse(Family.PLANAR_ROOK, 4)
    # signed Pascal: the -2 sits above the diagonal in this orientation
    assert pro.entry(1, 2) == -2
    assert pro.entry(2, 1) == 0


@pytest.mark.parametrize("family", PLANAR)
def test_cell_inverse_is_inverse_up_to_m20(family):
    for m in range(1, 21):
        prod = mat_mul(cell_table(family, m).mat, cell_inverse(family, m).mat)
        assert prod == Mat.identity(prod.nrows)


@pytest.mark.parametrize("family", PLANAR)
def test_cell_inverse_columns_match_the_entry_closed_forms(family):
    entry = riordan_reference._INVERSE_ENTRY[family]
    for m in range(1, 61):
        labels = rank_labels(family, m)
        rows = tuple(tuple(entry(i, j) for j in labels) for i in labels)
        assert cell_inverse(family, m).rows == rows, m


@pytest.mark.parametrize("family", PLANAR)
def test_cell_inverse_matches_elimination(family):
    for m in range(1, 9):
        assert cell_inverse(family, m).mat == inverse(cell_table(family, m).mat), m


def test_stability_embeddings():
    # the table for m sits in the upper-left block of the one for m+2 (TL) / m+1 (Mo)
    for m in range(1, 11):
        small = cell_table(Family.TEMPERLEY_LIEB, m).mat.rows
        big = cell_table(Family.TEMPERLEY_LIEB, m + 2).mat.rows
        k = len(small)
        assert tuple(tuple(r[:k]) for r in big[:k]) == small
    for m in range(1, 11):
        small = cell_table(Family.MOTZKIN, m).mat.rows
        big = cell_table(Family.MOTZKIN, m + 1).mat.rows
        k = len(small)
        assert tuple(tuple(r[:k]) for r in big[:k]) == small


def test_unsupported_family():
    with pytest.raises(InputError):
        cell_table(Family.BRAUER, 3)
    with pytest.raises(InputError):
        table_of_kind(Family.MOTZKIN, 3, "nonsense")


# ---------------------------------------------------------------------------
# the columns each family's two Riordan arrays keep for the process

KEPT = tables._KEPT


MEMOS = tables._MEMOS  # _PATHS, _INVERSES, _SIMPLE_INVERSES, _LENGTHS


def _clear_memo():
    for memo in MEMOS:
        memo.clear()


@pytest.fixture
def fresh_memo():
    _clear_memo()
    yield


@cache
def _cell_entry(family, j, i):
    return CELL_FORMULAS[family](j, i)


@cache
def _inverse_entry(family, i, j):
    return riordan_reference._INVERSE_ENTRY[family](i, j)


def _referee(family, m):
    """Every table at m, by label, from the per-entry closed forms, which read no memo:
    simple and projective rows by the reflection sums on those cell rows."""
    labels = rank_labels(family, m)
    cell = {i: tuple(_cell_entry(family, j, i) for j in labels) for i in labels}
    simple, projective = {}, {}
    for i in reversed(labels):
        minus, plus, _ = tables._mirrors(i, family, m)
        simple[i] = cell[i] if plus is None else tuple(a - b for a, b in zip(cell[i], simple[plus]))
        projective[i] = cell[i] if minus is None else tuple(a + b for a, b in zip(cell[i], cell[minus]))
    inverse = {i: tuple(_inverse_entry(family, i, j) for j in labels) for i in labels}
    return {"S": cell, "V": {i: simple[i] for i in labels}, "P": {i: projective[i] for i in labels},
            "cell_inverse": inverse}


_REFEREE_KINDS = {"cell": "S", "simple": "V", "projective": "P", "cell_inverse": "cell_inverse"}


def _check_at(family, m, kind, label, target):
    """The module row, its length and one multiplicity series, then every table, against `_referee`."""
    ref = _referee(family, m)
    spec = growth.module_spec(family, m, f"{kind}{label}")
    assert spec.charvec == ref[kind][label], (family, m, kind, label)
    ref_simple = tables.CharTable(family, m, "simple", tuple(ref["V"]), tuple(ref["V"].values()))
    row = ref[kind][label]
    ref_spec = growth.ModuleSpec(spec.label, family, m, row[-1], row)
    simple = simple_table(family, m)
    ones = [1] * len(simple.labels)
    assert growth.length_series(spec, simple) == series_reference.series(ref_spec, ref_simple, ones)
    expected = series_reference.multiplicity_series(ref_spec, ref_simple, target)
    assert growth.multiplicity_series(spec, simple, target) == expected
    for name, key in _REFEREE_KINDS.items():
        table = table_of_kind(family, m, name)
        assert table.rows == tuple(ref[key].values()), (family, m, name)


_SIZES = st.integers(1, 2 * KEPT) | st.sampled_from([KEPT - 1, KEPT, KEPT + 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(PLANAR), _SIZES, st.sampled_from("VSP"), st.integers(0, 2 * KEPT), st.integers(0, 2 * KEPT)),
    min_size=1, max_size=4,
))
def test_tables_and_series_equal_the_closed_forms_in_any_build_order(builds):
    # each draw starts from an empty memo, so the calls that fill it vary:
    # a module row wants few heights, a table every one
    _clear_memo()
    for family, m, kind, at, to in builds:
        labels = rank_labels(family, m)
        _check_at(family, m, kind, labels[at % len(labels)], labels[to % len(labels)])


@pytest.mark.parametrize("m", [KEPT - 1, KEPT, KEPT + 1])
@pytest.mark.parametrize("family", PLANAR)
def test_tables_and_series_at_the_bound_equal_the_closed_forms(fresh_memo, family, m):
    labels = rank_labels(family, m)
    _check_at(family, m, "S", labels[0], labels[-1])  # the module row fills the memo first
    _check_at(family, m, "V", labels[1], labels[0])


def test_the_memo_holds_at_most_the_columns_up_to_the_bound(fresh_memo):
    for family in PLANAR:
        for kind in _REFEREE_KINDS:
            table_of_kind(family, 500, kind)
        spec, simple = growth.module_spec(family, 500, "V2"), simple_table(family, 500)
        growth.length_series(spec, simple)
        for target in [t for t in simple.labels if abs(t - KEPT) <= 2] + [simple.labels[-1]]:  # about the bound
            growth.multiplicity_series(spec, simple, target)
    for family in PLANAR:
        assert len(tables._PATHS[family]) == KEPT + 1
        for memo in MEMOS[1:]:  # keyed by (family, t) or (family, m)
            kept = [t for f, t in memo if f is family]
            assert sorted(kept) == [t for t in rank_labels(family, 500) if t <= KEPT]
            assert len(kept) <= KEPT + 1


def test_every_value_in_the_memo_is_a_tuple_of_ints(fresh_memo):
    for family in PLANAR:
        m = KEPT + 3
        spec = growth.module_spec(family, m, f"V{rank_labels(family, m)[1]}")
        growth.length_series(spec, simple_table(family, m))
        cell_inverse(family, KEPT - 2)
    columns = [*(c for kept in tables._PATHS.values() for c in kept)]
    columns += [c for memo in MEMOS[1:] for c in memo.values()]
    assert all(type(memo) is dict for memo in MEMOS)
    assert all(type(kept) is tuple for kept in tables._PATHS.values())
    assert len(columns) > 3 * KEPT and all(len(memo) > KEPT for memo in MEMOS[2:])
    assert all(type(c) is tuple and all(type(v) is int for v in c) for c in columns)


def test_threads_that_build_at_once_get_the_closed_forms(fresh_memo):
    # 4 threads, each a module row (few heights), its length and one multiplicity series,
    # and then the tables at its own m
    sizes = (KEPT - 5, KEPT + 1, 2 * KEPT, 31)
    barrier = threading.Barrier(len(sizes))

    def build(m):
        barrier.wait(timeout=60)
        out = []
        for family in PLANAR:
            labels = rank_labels(family, m)
            spec = growth.module_spec(family, m, f"S{labels[0]}")
            simple = simple_table(family, m)
            series = growth.length_series(spec, simple), growth.multiplicity_series(spec, simple, labels[-2])
            out.append((spec.charvec, cell_table(family, m).rows, cell_inverse(family, m).rows, series))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that their builds interleave
    try:
        with ThreadPoolExecutor(len(sizes)) as pool:
            results = list(pool.map(build, sizes, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for m, built in zip(sizes, results):
        for family, (row, cell, inverse, series) in zip(PLANAR, built):
            ref, labels = _referee(family, m), rank_labels(family, m)
            assert row == ref["S"][labels[0]], (family, m)
            assert cell == tuple(ref["S"].values()), (family, m)
            assert inverse == tuple(ref["cell_inverse"].values()), (family, m)
            simple = tables.CharTable(family, m, "simple", labels, tuple(ref["V"].values()))
            spec = growth.ModuleSpec(f"S{labels[0]}", family, m, row[-1], row)
            expected = (series_reference.series(spec, simple, [1] * len(labels)),
                        series_reference.multiplicity_series(spec, simple, labels[-2]))
            assert series == expected, (family, m)


# ---------------------------------------------------------------------------
# simple and projective tables

def test_tl7_simple_table():
    assert int_rows(simple_table(Family.TEMPERLEY_LIEB, 7)) == TL7_SIMPLE


def test_mo5_simple_table():
    t = simple_table(Family.MOTZKIN, 5)
    assert int_rows(t) == MO5_SIMPLE
    assert tuple(int(x) for x in t.row(2)) == (0, 0, 1, 3, 8, 20)


def test_tl_simple_rows_equal_alternating_chain_sums():
    # chi along the chain of successive leftward reflections from the largest
    # non-critical label: chi_{i^(t)} = sum_s (-1)^s alpha(., i^(t-s))
    for m in (7, 9, 12):
        table = simple_table(Family.TEMPERLEY_LIEB, m)
        chain = []
        start = next(i for i in reversed(table.labels) if i % 3 != 2)
        current = start
        while current is not None and current in table.labels:
            chain.append(current)
            current = reflections(current, Family.TEMPERLEY_LIEB, m).minus
        assert sorted(chain) == [i for i in table.labels if i % 3 != 2]
        cell = cell_table(Family.TEMPERLEY_LIEB, m)
        for t, i in enumerate(chain):
            expected = [0] * len(table.labels)
            for s in range(t + 1):
                for k, _ in enumerate(table.labels):
                    expected[k] += (-1) ** s * cell.row(chain[t - s])[k]
            assert list(table.row(i)) == expected


def test_mo_simple_closed_form_cross_check():
    assert mo_simple_entry_closed(3, 2) == 3
    for m in range(1, 9):
        check_motzkin_simple_closed_form(m)
    with pytest.raises(InputError):
        mo_simple_entry_closed(4, 3)


@pytest.mark.parametrize("family", PLANAR)
def test_exactly_one_all_ones_simple_row(family):
    for m in range(1, 8):
        t = simple_table(family, m)
        all_ones = [i for i in t.labels if all(x == 1 for x in t.row(i))]
        assert all_ones == [trivial_label(family, m)]


def test_motzkin_hump_monotonicity():
    # strictly increasing rows right of the diagonal, all entries >= 1 there
    for m in range(1, 7):
        t = simple_table(Family.MOTZKIN, m)
        for i in t.labels:
            if i < 1:
                continue
            values = [t.entry(i, j) for j in t.labels if j >= i]
            assert all(v >= 1 for v in values)
            assert all(a < b for a, b in zip(values, values[1:]))


def test_tl7_projective_table():
    t = projective_table(Family.TEMPERLEY_LIEB, 7)
    assert int_rows(t) == TL7_PROJECTIVE
    assert tuple(int(x) for x in t.row(3)) == (1, 3, 9, 28)
    assert tuple(int(x) for x in t.row(7)) == (0, 1, 4, 15)


def test_mo5_projective_table():
    t = projective_table(Family.MOTZKIN, 5)
    assert int_rows(t) == MO5_PROJECTIVE
    assert tuple(int(x) for x in t.row(4)) == (0, 0, 1, 3, 10, 30)


def test_errata_are_the_only_printed_deviations():
    computed = {
        (Family.TEMPERLEY_LIEB, "projective"): projective_table(Family.TEMPERLEY_LIEB, 7),
        (Family.MOTZKIN, "projective"): projective_table(Family.MOTZKIN, 5),
    }
    printed = {
        (Family.TEMPERLEY_LIEB, "projective"): TL7_PROJECTIVE_PRINTED,
        (Family.MOTZKIN, "projective"): MO5_PROJECTIVE_PRINTED,
    }
    flagged = {(f, k, i, j): (p, c) for f, k, i, j, p, c in ERRATA}
    for key, table in computed.items():
        family, kind = key
        for ri, i in enumerate(table.labels):
            for ci, j in enumerate(table.labels):
                got = int(table.mat.rows[ri][ci])
                printed_value = printed[key][ri][ci]
                if (family, kind, i, j) in flagged:
                    p, c = flagged[(family, kind, i, j)]
                    assert printed_value == p and got == c and p != c
                else:
                    assert got == printed_value


@pytest.mark.parametrize(
    "family,ms",
    [(Family.PLANAR_ROOK, range(1, 9)), (Family.TEMPERLEY_LIEB, range(1, 13)), (Family.MOTZKIN, range(1, 10))],
)
def test_ses_relations(family, ms):
    # cell = D . simple (rows) and projective = D^T-combination of cell rows,
    # well past the enumeration bounds (critical top labels included)
    for m in ms:
        cell = cell_table(family, m)
        simple = simple_table(family, m)
        proj = projective_table(family, m)
        d = decomposition_matrix(family, m)
        assert mat_mul(d.mat, simple.mat) == cell.mat
        assert mat_mul(d.mat.transpose(), cell.mat) == proj.mat


# ---------------------------------------------------------------------------
# reflections and decomposition matrices

def test_reflections_tl7():
    assert reflections(3, Family.TEMPERLEY_LIEB, 7) == type(reflections(3, Family.TEMPERLEY_LIEB, 7))(1, 7, False)
    r5 = reflections(5, Family.TEMPERLEY_LIEB, 7)
    assert r5.critical and r5.minus is None and r5.plus is None
    r1 = reflections(1, Family.TEMPERLEY_LIEB, 7)
    assert (r1.minus, r1.plus, r1.critical) == (None, 3, False)
    r7 = reflections(7, Family.TEMPERLEY_LIEB, 7)
    assert (r7.minus, r7.plus, r7.critical) == (3, None, False)


def test_reflections_mo5_and_pro():
    r2 = reflections(2, Family.MOTZKIN, 5)
    assert (r2.minus, r2.plus, r2.critical) == (0, 4, False)
    assert reflections(5, Family.MOTZKIN, 5).critical
    r0 = reflections(0, Family.MOTZKIN, 5)
    assert (r0.minus, r0.plus) == (None, 2)
    rp = reflections(2, Family.PLANAR_ROOK, 5)
    assert (rp.minus, rp.plus, rp.critical) == (None, None, False)
    with pytest.raises(InputError):
        reflections(2, Family.TEMPERLEY_LIEB, 7)  # wrong parity


def test_decomposition_matrices():
    d = decomposition_matrix(Family.TEMPERLEY_LIEB, 7)
    assert d.cell_factors(1) == (1, 3)
    assert d.cell_factors(3) == (3, 7)
    assert d.cell_factors(5) == (5,)
    assert d.cell_factors(7) == (7,)
    dm = decomposition_matrix(Family.MOTZKIN, 5)
    assert dm.cell_factors(0) == (0, 2)
    assert dm.cell_factors(1) == (1,)
    assert dm.cell_factors(2) == (2, 4)
    dp = decomposition_matrix(Family.PLANAR_ROOK, 4)
    assert dp.mat == Mat.identity(5)
    with pytest.raises(InputError):
        decomposition_matrix(Family.MOTZKIN, 5, PLParams(2, 3))


@pytest.mark.parametrize("family", [Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN])
@pytest.mark.parametrize("m", [0, -3])
def test_decomposition_matrix_refuses_an_empty_strand_count(family, m):
    # like every other table builder; it once gave an empty or a 1 x 1 matrix
    with pytest.raises(InputError, match="^need m >= 1$"):
        decomposition_matrix(family, m)


@pytest.mark.parametrize("family", [Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN])
@pytest.mark.parametrize("m", [0, -3])
def test_trivial_label_refuses_an_empty_strand_count(family, m):
    # it once answered m % 2 or 0: trivial_label(TL, -3) was 1, trivial_label(MO, 0) was 0
    with pytest.raises(InputError, match="^need m >= 1$"):
        trivial_label(family, m)


@pytest.mark.parametrize("family", [Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN])
@pytest.mark.parametrize("m", [0, -1, -3])
def test_reflections_refuse_an_empty_strand_count(family, m):
    # checked before the label, for any label: reflections(0, TL, 0) once answered
    for i in (0, 1, m):
        with pytest.raises(InputError, match="^need m >= 1$"):
            reflections(i, family, m)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: d.entry(2, 1),
        lambda d: d.entry(1, 2),
        lambda d: d.cell_factors(2),
        lambda d: d.cell_factors(9),
    ],
    ids=["entry-row", "entry-column", "cell-factors", "cell-factors-past-m"],
)
def test_decomposition_matrix_rejects_unknown_labels(call):
    # the same lookup as CharTable.index: InputError naming the rule
    with pytest.raises(InputError, match=r"is not a temperley_lieb m=7 label \(.*parity of m\)$"):
        call(decomposition_matrix(Family.TEMPERLEY_LIEB, 7))


def _reflections_by_search(i, m, spacing):
    """(minus, plus, critical) by stepping out from i to the nearest walls, the
    integers that are -1 mod spacing; a mirror outside 0..m is None."""
    if i % spacing == spacing - 1:
        return None, None, True
    below = i - 1
    while below % spacing != spacing - 1:
        below -= 1
    above = i + 1
    while above % spacing != spacing - 1:
        above += 1
    minus, plus = 2 * below - i, 2 * above - i
    return (minus if minus >= 0 else None), (plus if plus <= m else None), False


@pytest.mark.parametrize("family,spacing", [(Family.TEMPERLEY_LIEB, 3), (Family.MOTZKIN, 2)])
def test_reflections_match_the_nearest_wall_search_up_to_m300(family, spacing):
    for m in range(1, 301):
        labels = set(rank_labels(family, m))
        lost = 0
        for i in sorted(labels):
            r = reflections(i, family, m)
            assert (r.minus, r.plus, r.critical) == _reflections_by_search(i, m, spacing)
            assert {r.minus, r.plus} - {None} <= labels
            lost += (r.minus, r.plus).count(None) - 2 * r.critical
        assert lost == 2  # the minus of the lowest non-critical label, the plus of the highest


@pytest.mark.parametrize("params", [None, CHAR0_MO])
def test_motzkin_cells_hold_their_simple_and_the_one_two_above(params):
    for m in range(1, 61):
        d = decomposition_matrix(Family.MOTZKIN, m, params)
        for z in d.labels:
            assert d.cell_factors(z) == ((z, z + 2) if z % 2 == 0 and z + 2 <= m else (z,))


def _is_int_rows(rows) -> bool:
    return type(rows) is tuple and all(
        type(row) is tuple and all(type(x) is int for x in row) for row in rows
    )


@pytest.mark.parametrize(
    "family, m", [(Family.PLANAR_ROOK, 6), (Family.TEMPERLEY_LIEB, 7), (Family.MOTZKIN, 5)]
)
def test_tables_and_fusion_graphs_hold_int_rows(family, m):
    # every kind of table, the decomposition matrix and the fusion graph of
    # every module keep one representation, rows of ints; the Mat views are
    # built from those rows, and the integral answers stay ints
    holders = [
        table_of_kind(family, m, kind) for kind in ("cell", "simple", "projective", "cell_inverse")
    ]
    holders.append(decomposition_matrix(family, m))
    for holder in holders:
        assert _is_int_rows(holder.rows)
        assert holder.mat == Mat(holder.rows)
    simple = simple_table(family, m)
    for label in simple.labels:
        # the table readers keep their public Fraction type
        assert type(simple.entry(label, m)) is Fraction and type(simple.dim(label)) is int
        assert all(type(x) is Fraction for x in simple.row(label))
        for prefix in "VSP":
            spec = growth.module_spec(family, m, f"{prefix}{label}")
            assert all(type(x) is int for x in spec.charvec)
            series = [growth.length_series(spec, simple)]
            series += [growth.multiplicity_series(spec, simple, t) for t in simple.labels]
            assert all(type(c) is int for s in series for c, _ in s.terms)
            g = fusion_matrix(spec, simple)
            assert _is_int_rows(g.rows)
            assert g.adjacency == Mat(g.rows)
            assert all(type(x) is int for x in power_multiplicities(g, 2))


def test_tl_decomposition_general_pl():
    # at (2, 3) supports follow the mixed-radix digits of i+1
    d = decomposition_matrix(Family.TEMPERLEY_LIEB, 7, PLParams(2, 3))
    for z in d.labels:
        for i in d.labels:
            assert d.entry(z, i) == int(z in pl_support(i, PLParams(2, 3)))
        assert d.entry(z, z) == 1


def _rank_mod_p(rows, p: int) -> int:
    """Rank over F_p, by row reduction of the integer rows modulo p."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] * inv
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@cache
def _tl_grams(m: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    tl = Family.TEMPERLEY_LIEB
    return {i: _gram_rows(tl, m, i) for i in rank_labels(tl, m)}


def _tl_simple_dims_mod_p(m: int, p: int) -> dict[int, int]:
    """dim V_i in characteristic p: the F_p-rank of the cellular Gram matrix."""
    return {i: _rank_mod_p(gram, p) for i, gram in _tl_grams(m).items()}


def _cell_dims_match(d, p: int) -> bool:
    """dim S_z == sum_i D[z][i] dim_p V_i for every cell label z."""
    cell = cell_table(d.family, d.m)
    dims = _tl_simple_dims_mod_p(d.m, p)
    return all(
        cell.dim(z) == sum(d.entry(z, i) * dims[i] for i in d.labels) for z in d.labels
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tl_decomposition_matches_gram_ranks_mod_p(p):
    # independent referee: the Gram matrices come from half diagrams alone
    for m in range(1, 12):
        d = decomposition_matrix(Family.TEMPERLEY_LIEB, m, PLParams(p, 3))
        assert _cell_dims_match(d, p), (p, m)


def test_char0_decomposition_fails_the_mod_p_identity():
    # the referee tells characteristics apart: the char-0 matrix is wrong here
    assert not _cell_dims_match(decomposition_matrix(Family.TEMPERLEY_LIEB, 8), 2)
    assert not _cell_dims_match(decomposition_matrix(Family.TEMPERLEY_LIEB, 11), 3)


# ---------------------------------------------------------------------------
# (p, l) digits

def test_pl_digits_examples():
    assert pl_digits(7, CHAR0_TL) == [2, 1]
    assert pl_digits(8, CHAR0_TL) == [2, 2]
    assert pl_digits(5, PLParams(2, 3)) == [1, 2]
    assert pl_digits(2, CHAR0_TL) == [0, 2]
    assert pl_digits(0, PLParams(3, 2)) == [0]


@pytest.mark.parametrize("params", [CHAR0_TL, CHAR0_MO, PLParams(2, 3), PLParams(3, 2), PLParams(5, 4)])
def test_pl_digits_reconstruct(params):
    for a in range(0, 200):
        digits = pl_digits(a, params)
        weights = [1]
        for k in range(1, len(digits)):
            weights.append(params.l if k == 1 else weights[-1] * params.p)
        weights.reverse()
        assert sum(d * w for d, w in zip(digits, weights)) == a
        assert 0 <= digits[-1] < params.l
        if params.p is not INFINITY:
            assert all(0 <= d < params.p for d in digits[:-1])


def test_pl_support_examples():
    assert pl_support(5, CHAR0_TL) == frozenset({5})
    assert pl_support(3, CHAR0_TL) == frozenset({3, 1})
    assert pl_support(7, CHAR0_TL) == frozenset({7, 3})


def test_pl_support_contains_a_and_preserves_parity():
    for params in (CHAR0_TL, PLParams(2, 3), PLParams(3, 3)):
        for a in range(0, 60):
            supp = pl_support(a, params)
            assert a in supp
            assert all((z - a) % 2 == 0 for z in supp)


@pytest.mark.parametrize("p", [INFINITY, 2, 3, 5, 7], ids=str)
def test_pl_support_is_the_set_over_every_sign_choice(p):
    # the formula with a sign for every digit after the leading one, zero
    # digits included, whose choices the support skips
    for l in (2, 3, 4):
        params = PLParams(p, l)
        for a in range(2001):
            digits = pl_digits(a + 1, params)
            weights = [1]  # p^(0) = 1, p^(1) = l, p^(i) = p * p^(i-1)
            while len(weights) < len(digits):
                weights.insert(0, l if len(weights) == 1 else p * weights[0])
            choices = product(*[(d * w, -d * w) for d, w in zip(digits[1:], weights[1:])])
            assert pl_support(a, params) == {digits[0] * weights[0] - 1 + sum(c) for c in choices}


def test_ancestorless_examples():
    assert ancestorless(9, CHAR0_TL)
    assert not ancestorless(8, CHAR0_TL)
    assert ancestorless(6, CHAR0_MO)
    assert ancestorless(0, CHAR0_TL)
    assert not ancestorless(2, CHAR0_TL)


def test_group_injective_char0():
    semisimple_or_catalogued = [f for f in Family if f not in (Family.TEMPERLEY_LIEB, Family.MOTZKIN)]
    for m in range(1, 400):
        assert group_injective(Family.TEMPERLEY_LIEB, m) == (m % 3 == 2)
        # the ancestorless criterion on m+1: group-injective iff m is odd
        assert group_injective(Family.MOTZKIN, m) == (m % 2 == 1)
        assert group_injective(Family.MOTZKIN, m) == ancestorless(m + 1, CHAR0_MO)
        assert all(group_injective(family, m) for family in semisimple_or_catalogued)
    for family in Family:
        if family in (Family.TEMPERLEY_LIEB, Family.MOTZKIN):
            assert family.value not in GROUP_INJECTIVE_CHAR0_CATALOG
        else:
            assert family.value in GROUP_INJECTIVE_CHAR0_CATALOG


def test_pl_params_validation():
    with pytest.raises(InputError):
        PLParams(4, 3)  # not prime
    with pytest.raises(InputError):
        PLParams(INFINITY, 1)
    with pytest.raises(InputError):
        pl_digits(-1, CHAR0_TL)


# 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3, 5, 7;
# 318665857834031151167461 is one to every prime base up to 37
@pytest.mark.parametrize("p", [9, 15, 561, 3215031751, 318665857834031151167461])
def test_pl_params_refuses_composites(p):
    assert not tables._is_prime(p)
    with pytest.raises(InputError, match="must be prime"):
        PLParams(p, 3)
    with pytest.raises(InputError, match="is not prime"):
        growth.linear_monoid_constant(p, 1)


@pytest.mark.parametrize("p", [2, 41, 43, 1847, 1861, 10**18 + 3, 2**61 - 1])
def test_pl_params_accepts_primes(p):
    assert PLParams(p, 3).p == p
    assert growth.linear_monoid_constant(p, 1) == Fraction(2 * p - 2, p * p - 1)


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-2, 20000) if tables._is_prime(n) != by_trial_division(n)] == []


# the bound is the least strong pseudoprime to all 13 bases (2 to 41)
@pytest.mark.parametrize("p", [tables._PRIME_BOUND, tables._PRIME_BOUND + 2, 2**89 - 1])
def test_p_past_the_exact_bound_is_refused(p):
    with pytest.raises(InputError, match=f"^need p < {tables._PRIME_BOUND}"):
        PLParams(p, 3)
    with pytest.raises(InputError, match=f"^need p < {tables._PRIME_BOUND}"):
        growth.linear_monoid_constant(p, 1)


@pytest.mark.parametrize("m", [sys.maxsize, 10**20])
def test_public_entries_refuse_m_past_maxsize(m):
    for family in (Family.TEMPERLEY_LIEB, Family.PLANAR_ROOK):
        with pytest.raises(InputError, match=f"^need m < sys.maxsize = {sys.maxsize}$"):
            rank_labels(family, m)
    for label in ((m + 1) % 2, m % 2):  # a TL label of either parity
        with pytest.raises(InputError, match=f"^need m < sys.maxsize = {sys.maxsize}$"):
            tables.reflections(label, Family.TEMPERLEY_LIEB, m)


@pytest.mark.parametrize(
    "family, m, message",
    [
        (Family.TEMPERLEY_LIEB, True, "m must be an int, not True"),
        (Family.TEMPERLEY_LIEB, 2.5, "m must be an int, not 2.5"),
        (Family.TEMPERLEY_LIEB, "7", "m must be an int, not '7'"),
        ("tl", 7, "family must be a Family, not 'tl'"),
    ],
)
def test_tables_refuse_a_family_or_m_of_the_wrong_type(family, m, message):
    # the one m/family rule of tables and series names the parameter, where
    # a bool built the table at m = 1 and the others raised TypeError or AttributeError
    with pytest.raises(InputError, match=f"^{message}$"):
        cell_table(family, m)


@pytest.mark.parametrize(
    "family, m, message",
    [
        ("tl", 7, "family must be a Family, not 'tl'"),  # answered True as a catalogued family
        (Family.TEMPERLEY_LIEB, True, "m must be an int, not True"),  # answered False as m = 1
        (Family.TEMPERLEY_LIEB, 2.5, "m must be an int, not 2.5"),  # answered False
        (Family.TEMPERLEY_LIEB, "7", "m must be an int, not '7'"),  # raised TypeError
    ],
)
def test_group_injective_refuses_a_family_or_m_of_the_wrong_type(family, m, message):
    # it answers the non-planar families too, so it checks the types without `_label_range`
    with pytest.raises(InputError, match=f"^{message}$"):
        group_injective(family, m)


@pytest.mark.parametrize("m", [0, -3])
def test_public_entries_refuse_m_below_1(m):
    for call in (rank_labels, group_injective, cell_table):
        with pytest.raises(InputError, match="^need m >= 1$"):
            call(Family.TEMPERLEY_LIEB, m)


# ---------------------------------------------------------------------------
# integrality guards

@pytest.mark.parametrize(
    "module,name,call",
    [
        (cell_formulas, "comb", lambda: cell_formulas.tl_cell_entry(2, 0)),
        (cell_formulas, "comb", lambda: cell_formulas.mo_cell_entry(2, 0)),
        (tables, "comb", lambda: tables.mo_simple_entry_closed(4, 2)),
        (growth, "factorial", lambda: growth.involution_sum(2)),
    ],
    ids=["tl_cell_entry", "mo_cell_entry", "mo_simple_entry_closed", "involution_sum"],
)
def test_integrality_guards_raise_internal_check_error(monkeypatch, module, name, call):
    # a binomial or factorial that always returns 1 makes every guarded
    # quotient non-integral; the guard must not be an assert (gone under -O)
    monkeypatch.setattr(module, name, lambda *args: 1)
    with pytest.raises(InternalCheckError):
        call()


# ---------------------------------------------------------------------------
# serialization

def test_table_json():
    payload = json.loads(table_to_json(simple_table(Family.TEMPERLEY_LIEB, 7)))
    assert payload["family"] == "temperley_lieb"
    assert payload["m"] == 7
    assert payload["kind"] == "simple"
    assert payload["labels"] == [1, 3, 5, 7]
    assert payload["rows"][1] == ["0", "1", "4", "13"]


def test_table_csv():
    text = table_to_csv(cell_table(Family.MOTZKIN, 2))
    lines = text.strip().splitlines()
    assert lines[0] == "i/j,0,1,2"
    assert lines[1] == "0,1,1,2"
    assert lines[-1] == "2,0,0,1"


def _stdlib_csv(table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["i/j", *table.labels])
    writer.writerows([label, *row] for label, row in zip(table.labels, table.rows))
    return buf.getvalue()


@pytest.mark.parametrize("family", PLANAR)
def test_tables_are_written_as_the_stdlib_writes_them(family):
    # every kind of table at m <= 12: the CSV as csv.writer quotes it, the
    # JSON as json.dumps(..., indent=2) lays it out
    for m in range(1, 13):
        for kind in ("cell", "simple", "projective", "cell_inverse"):
            table = table_of_kind(family, m, kind)
            assert table_to_csv(table) == _stdlib_csv(table)
            payload = {
                "family": family.value,
                "m": m,
                "kind": kind,
                "labels": list(table.labels),
                "rows": [[str(x) for x in row] for row in table.rows],
            }
            assert table_to_json(table) == json.dumps(payload, indent=2)


# quotes, backslashes, control and non-ASCII characters, astral ones and lone surrogates
_HARD = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "\ud800", "\udfff"]
)
_TEXT = st.text(st.one_of(_HARD, st.characters(exclude_categories=())), max_size=8)
_INT = st.one_of(st.integers(-1000, 1000), st.integers(-(2**200), 2**200))  # past 2**64 both ways
_JSON = st.recursive(
    st.one_of(_TEXT, _INT, st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(_INT, max_size=4),  # the lists of one kind, joined in one step
        st.lists(_TEXT, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(_JSON)
def test_the_json_writer_is_json_dumps_with_an_indent(value):
    assert tables._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, (1, 2), [1, 2.5], {1: 2}, {"a": Fraction(1, 2)}])
def test_the_json_writer_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        tables._json_text(value)
