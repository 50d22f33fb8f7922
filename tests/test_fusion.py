import json
import re
from fractions import Fraction
from itertools import compress, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import fusion, linalg, tables
from growthlab.diagrams import Family
from growthlab.errors import InputError, VerificationError
from growthlab.fusion import (
    FusionGraph,
    fusion_matrix,
    power_multiplicities,
    realized_n0,
    scc_analysis,
    spectral_check,
    to_dot,
    to_json,
)
from growthlab.graph import distances
from growthlab.growth import (
    ModuleSpec,
    evaluate,
    length_series,
    module_spec,
    multiplicity_series,
)
from growthlab.linalg import Mat, int_identity, int_mul
from growthlab.reference import PRO8_V2_FUSION, PRO8_V2_N0
from growthlab.tables import simple_table
from linalg_reference import apply, col, from_cols, inverse, mat_mul, mat_pow

PRO8 = simple_table(Family.PLANAR_ROOK, 8)
TL7 = simple_table(Family.TEMPERLEY_LIEB, 7)
MO5 = simple_table(Family.MOTZKIN, 5)


def graph_for(family, m, sel):
    return fusion_matrix(module_spec(family, m, sel), simple_table(family, m))


def test_pro8_fusion_matrix():
    g = graph_for(Family.PLANAR_ROOK, 8, "V2")
    assert g.rows == PRO8_V2_FUSION
    assert g.labels == tuple(range(9))
    assert g.dims == tuple(int(PRO8.mat.rows[k][-1]) for k in range(9))
    assert g.trivial_index == 0
    # column at the trivial node is the decomposition of V itself
    assert col(g.adjacency, 0) == (0, 0, 1, 0, 0, 0, 0, 0, 0)


def test_fusion_eigenstructure():
    # X^T A = diag(charvec) X^T: A is similar to the character diagonal
    for family, m, sel in (
        (Family.TEMPERLEY_LIEB, 7, "V3"),
        (Family.MOTZKIN, 5, "S1"),
        (Family.PLANAR_ROOK, 8, "V2"),
    ):
        spec = module_spec(family, m, sel)
        table = simple_table(family, m)
        g = fusion_matrix(spec, table)
        xt = table.mat.transpose()
        diag = Mat(
            [
                [spec.charvec[i] if i == j else 0 for j in range(len(spec.charvec))]
                for i in range(len(spec.charvec))
            ]
        )
        assert mat_mul(xt, g.adjacency) == mat_mul(diag, xt)


def test_power_multiplicities():
    g = graph_for(Family.PLANAR_ROOK, 8, "V2")
    assert power_multiplicities(g, 0) == (1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert power_multiplicities(g, 1) == col(g.adjacency, 0)
    # squared fusion matrix against the alternating binomial oracle
    assert power_multiplicities(g, 2) == (0, 0, 1, 6, 6, 0, 0, 0, 0)
    tl = graph_for(Family.TEMPERLEY_LIEB, 7, "V3")
    assert power_multiplicities(tl, 2)[tl.label_index(7)] == 84
    with pytest.raises(InputError):
        power_multiplicities(tl, -1)


def test_power_multiplicities_match_series():
    tl = graph_for(Family.TEMPERLEY_LIEB, 7, "V3")
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    for n in range(6):
        vec = power_multiplicities(tl, n)
        for idx, label in enumerate(tl.labels):
            assert vec[idx] == evaluate(multiplicity_series(spec, TL7, label), n)


CROSS_ROUTE_SPECS = (
    (Family.TEMPERLEY_LIEB, 7, "V3"),
    (Family.MOTZKIN, 5, "S1"),
    (Family.PLANAR_ROOK, 8, "V2"),
    (Family.MOTZKIN, 20, "V1"),
)


@pytest.mark.parametrize("family,m,sel", CROSS_ROUTE_SPECS)
def test_fusion_matrix_matches_inverse_route(family, m, sel):
    spec = module_spec(family, m, sel)
    table = simple_table(family, m)
    xt_inv = inverse(table.mat.transpose())
    expected = from_cols(
        [apply(xt_inv, [c * x for c, x in zip(spec.charvec, row)]) for row in table.mat.rows]
    )
    assert fusion_matrix(spec, table).adjacency == expected


@pytest.mark.parametrize("family,m,sel", CROSS_ROUTE_SPECS)
def test_power_multiplicities_match_matrix_powers(family, m, sel):
    g = graph_for(family, m, sel)
    for n in range(9):
        assert power_multiplicities(g, n) == col(mat_pow(g.adjacency, n), g.trivial_index)


def test_realized_n0():
    g8 = graph_for(Family.PLANAR_ROOK, 8, "V2")
    assert realized_n0(g8, {8}) == PRO8_V2_N0 == 4
    g6 = graph_for(Family.PLANAR_ROOK, 6, "V2")
    assert realized_n0(g6, {6}) == 3
    assert realized_n0(g8, {0, 8}) == 0
    trivial = graph_for(Family.PLANAR_ROOK, 4, "V0")
    assert realized_n0(trivial, {4}) is None


def test_scc_analysis_pro8():
    g = graph_for(Family.PLANAR_ROOK, 8, "V2")
    report = scc_analysis(g)
    assert report.absorbing == (8,)
    assert report.components == tuple((k,) for k in range(9))
    idx = g.label_index(8)
    assert g.adjacency.rows[idx][idx] == 28  # self-loop = dim V
    # column at the top label is supported on the top row only
    assert all(g.adjacency.rows[t][idx] == 0 for t in range(8))


def test_scc_analysis_other_golden_specs():
    for family, m, sel, top, dim in (
        (Family.TEMPERLEY_LIEB, 7, "V3", 7, 13),
        (Family.MOTZKIN, 5, "S1", 5, 30),
    ):
        g = graph_for(family, m, sel)
        report = scc_analysis(g)
        assert report.absorbing == (top,)
        idx = g.label_index(top)
        assert g.adjacency.rows[idx][idx] == dim


def test_one_support_list_pass_per_graph(monkeypatch):
    # the SCCs, n0, successors() and support_edges() of one graph read one set of lists
    # (one `compress` per column), and successors() hands out copies
    calls = []
    monkeypatch.setattr(fusion, "compress", lambda *args: calls.append(1) or compress(*args))
    g = graph_for(Family.MOTZKIN, 5, "S1")
    report = scc_analysis(g)
    assert realized_n0(g, report.absorbing) is not None and calls == [1] * len(g.labels)
    succ = g.successors()
    assert g.support_edges() == [(j, t) for j, out in enumerate(succ) for t in out]
    succ[0].append(-1)
    assert g.successors()[0] == succ[0][:-1] and calls == [1] * len(g.labels)


def test_scc_trivial_module():
    g = graph_for(Family.PLANAR_ROOK, 3, "V0")
    assert g.adjacency == Mat.identity(4)
    report = scc_analysis(g)
    assert report.components == tuple((k,) for k in range(4))
    assert report.absorbing == ()


def _graph_of(rows) -> FusionGraph:
    n = len(rows)
    return FusionGraph(
        family=None,
        m=0,
        labels=tuple(range(n)),
        dims=(1,) * n,
        rows=tuple(map(tuple, rows)),
        trivial_index=0,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_scc_absorbing_matches_brute_definition(rows):
    g = _graph_of(rows)
    n = len(rows)
    # reach[v] = nodes reachable from v, by repeated relaxation of every edge
    reach = [{v} for v in range(n)]
    for _ in range(n):
        for j, t in g.support_edges():
            reach[j] |= reach[t]
    comps = {frozenset(w for w in reach[v] if v in reach[w]) for v in range(n)}
    report = scc_analysis(g)
    assert sorted(report.components) == sorted(tuple(sorted(c)) for c in comps)
    absorbing = [
        c
        for c in comps
        if all(reach[v] <= c for v in c) and all(reach[v] & c for v in range(n))
    ]
    assert report.absorbing == tuple(sorted(v for c in absorbing for v in c))
    # shortest path lengths: brute[w] = least k such that w is at most k
    # edges from the start, growing the reached set one edge at a time
    edges, succ = g.support_edges(), g.successors()
    for start in range(n):
        brute = {start: 0}
        for k in range(1, n):
            for w in {t for j, t in edges if j in brute}:
                brute.setdefault(w, k)
        assert brute.keys() == reach[start]
        assert distances(succ, start) == [brute.get(w) for w in range(n)]
    # support lists and powers against their definitions, on the drawn graph and
    # on a copy with one negative entry, from the trivial node 0 to node n - 1: a
    # hand-built graph is not checked for signs, so that entry is no edge, but
    # the powers multiply it
    negative = [list(row) for row in rows]
    negative[n - 1][0] = -2
    for graph in (g, _graph_of(negative)):
        assert graph.successors() == [[t for t in range(n) if graph.rows[t][j] > 0] for j in range(n)]
        power = int_identity(n)
        for k in range(5):
            assert power_multiplicities(graph, k) == tuple(row[0] for row in power)
            power = int_mul(graph.rows, power)


def test_spectral_check_golden_specs():
    for family, m, sel in (
        (Family.TEMPERLEY_LIEB, 7, "V3"),
        (Family.MOTZKIN, 5, "S1"),
        (Family.PLANAR_ROOK, 8, "V2"),  # duplicate eigenvalue 0 must be grouped
    ):
        spec = module_spec(family, m, sel)
        table = simple_table(family, m)
        g = fusion_matrix(spec, table)
        report = spectral_check(g, spec, table, max_n=6)
        assert report["ok"]


def test_spectral_check_rejects_a_perturbed_adjacency():
    # the gate must fail on a graph that is not diagonalized by the character:
    # A is lower triangular with the character values on its diagonal, so a
    # changed diagonal entry moves the spectrum and an entry above the
    # diagonal breaks the triangle; a change below it keeps both, and only
    # the product X^T A = diag(chi) X^T with the simple table X catches it
    for family, m, sel in (
        (Family.TEMPERLEY_LIEB, 7, "V3"),
        (Family.MOTZKIN, 5, "S1"),
        (Family.PLANAR_ROOK, 8, "V2"),
    ):
        spec = module_spec(family, m, sel)
        table = simple_table(family, m)
        g = fusion_matrix(spec, table)
        n = len(g.labels)
        for t, j in ((0, 0), (n - 1, n - 1), (0, 1), (0, n - 1), (1, 0), (n - 1, 0)):
            rows = [list(row) for row in g.rows]
            rows[t][j] += 1
            with pytest.raises(VerificationError):
                bad = FusionGraph(g.family, g.m, g.labels, g.dims, tuple(map(tuple, rows)), g.trivial_index)
                spectral_check(bad, spec, table, max_n=6)


@pytest.mark.parametrize("family", [Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN])
def test_spectral_check_passes_on_every_module_character(family):
    # every V, S and P module with at most 14 labels; equal characters give
    # equal graphs, so each character is checked once
    checked, m = 0, 1
    while len(tables.rank_labels(family, m)) <= 14:
        table = simple_table(family, m)
        specs = {
            spec.bases: spec
            for spec in (module_spec(family, m, f"{kind}{i}") for kind in "VSP" for i in table.labels)
        }
        for spec in specs.values():
            assert spectral_check(fusion_matrix(spec, table), spec, table)["ok"]
            checked += 1
        m += 1
    assert checked == {Family.PLANAR_ROOK: 104, Family.TEMPERLEY_LIEB: 443, Family.MOTZKIN: 188}[family]


@pytest.mark.parametrize(
    "family,m,sel",
    [(Family.TEMPERLEY_LIEB, 7, "V3"), (Family.MOTZKIN, 5, "S1"), (Family.PLANAR_ROOK, 8, "V2")],
)
def test_every_unit_perturbation_of_a_is_caught(family, m, sel):
    # a change of A[t][j] changes column j of X^T A by row t of X, which has
    # a 1 on its diagonal, and X^-T diag(chi) X^T is the unperturbed A
    spec = module_spec(family, m, sel)
    table = simple_table(family, m)
    g = fusion_matrix(spec, table)
    n = len(g.rows)
    for t, j, step in product(range(n), range(n), (1, -1)):
        rows = [list(row) for row in g.rows]
        rows[t][j] += step
        bad = FusionGraph(g.family, g.m, g.labels, g.dims, tuple(map(tuple, rows)), g.trivial_index)
        with pytest.raises(VerificationError) as info:
            spectral_check(bad, spec, table, max_n=6)
        message = str(info.value)
        assert "'simple_table_diagonalizes'" in message and "'reconstructs_power_1'" in message, (t, j, step)
    assert 2 * n * n == {"V3": 32, "S1": 72, "V2": 162}[sel]


def test_a_moved_eigenvalue_fails_the_residual_and_every_positive_power_by_name():
    # one diagonal entry of A moved: X^T A = diag(chi) X^T fails, and so does
    # every A^p with p >= 1; the identities on X^-T alone hold
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    g = fusion_matrix(spec, TL7)
    rows = [list(row) for row in g.rows]
    rows[0][0] += 1
    bad = FusionGraph(g.family, g.m, g.labels, g.dims, tuple(map(tuple, rows)), g.trivial_index)
    failed = ["simple_table_diagonalizes"] + [f"reconstructs_power_{p}" for p in range(1, 7)]
    with pytest.raises(VerificationError) as info:
        spectral_check(bad, spec, TL7, max_n=6)
    assert str(info.value) == f"spectral reconstruction failed: {failed}"


def test_spectral_check_rejects_a_non_integer_character():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    g = fusion_matrix(spec, TL7)
    half = ModuleSpec(spec.label, spec.family, spec.m, spec.dim, (Fraction(1, 2),) + spec.charvec[1:])
    with pytest.raises(InputError):
        spectral_check(g, half, TL7)


def test_spectral_check_refuses_a_negative_max_n():
    # a negative max_n once left out every reconstruction check and passed
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    g = fusion_matrix(spec, TL7)
    with pytest.raises(InputError, match="max_n >= 0"):
        spectral_check(g, spec, TL7, max_n=-3)
    assert spectral_check(g, spec, TL7, max_n=0)["checks"][-1] == "reconstructs_power_0"


def test_spectral_check_refuses_a_table_of_another_kind_or_monoid():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    g = fusion_matrix(spec, TL7)
    with pytest.raises(InputError, match="not the cell table"):
        spectral_check(g, spec, tables.cell_table(Family.TEMPERLEY_LIEB, 7))
    with pytest.raises(InputError, match="different monoids"):
        spectral_check(g, spec, simple_table(Family.TEMPERLEY_LIEB, 9))


def test_spectral_multiplicity_extraction():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    g = fusion_matrix(spec, TL7)
    for n in range(7):
        an = mat_pow(g.adjacency, n)
        expected = 13**n - 6 * 4**n + 11 - 6 * 0**n  # 0^0 = 1
        assert an.rows[g.label_index(7)][g.trivial_index] == expected


def test_column_sums_equal_length():
    for family, m, sel in (
        (Family.TEMPERLEY_LIEB, 7, "V3"),
        (Family.MOTZKIN, 5, "S1"),
        (Family.PLANAR_ROOK, 8, "V2"),
    ):
        spec = module_spec(family, m, sel)
        table = simple_table(family, m)
        g = fusion_matrix(spec, table)
        series = length_series(spec, table)
        for n in range(7):
            assert sum(power_multiplicities(g, n), Fraction(0)) == evaluate(series, n)


DOT_NODE = re.compile(r'^  v\d+ \[label="V_\d+ \(\d+\)"(, peripheries=2)?\];$')
DOT_EDGE = re.compile(r'^  v\d+ -> v\d+ \[label="\d+"\];$')


def parse_dot(text):
    lines = text.strip().splitlines()
    assert lines[0] == "digraph fusion {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if DOT_NODE.match(line):
            nodes += 1
        elif DOT_EDGE.match(line):
            edges += 1
        else:
            raise AssertionError(f"unparseable DOT line: {line!r}")
    return nodes, edges


def test_to_dot_single_node():
    g = graph_for(Family.TEMPERLEY_LIEB, 1, "V1")
    nodes, edges = parse_dot(to_dot(g, scc_analysis(g)))
    assert nodes == 1 and edges == 1  # self-loop of weight 1


def test_to_dot_pro8():
    g = graph_for(Family.PLANAR_ROOK, 8, "V2")
    text = to_dot(g, scc_analysis(g))
    nodes, edges = parse_dot(text)
    assert nodes == 9
    assert edges == sum(1 for row in PRO8_V2_FUSION for x in row if x)
    # weights straight from the matrix: [V (x) V_1 : V_3] = 3, [V (x) V_2 : V_3] = 6
    assert '  v1 -> v3 [label="3"];' in text
    assert '  v2 -> v3 [label="6"];' in text
    assert '  v8 [label="V_8 (1)", peripheries=2];' in text


def test_fusion_json():
    g = graph_for(Family.PLANAR_ROOK, 8, "V2")
    payload = to_json(g, scc_analysis(g))
    assert json.loads(json.dumps(payload)) == payload
    assert payload["labels"] == list(range(9))
    assert payload["adjacency"] == [list(r) for r in PRO8_V2_FUSION]
    assert payload["trivial_index"] == 0
    assert payload["absorbing"] == [8]


def test_fusion_matrix_validation():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    with pytest.raises(InputError):
        fusion_matrix(spec, MO5)


@pytest.mark.parametrize("kind", ["cell", "projective", "cell_inverse"])
def test_fusion_matrix_refuses_a_table_that_is_not_simple(kind):
    # the substitution trusts the table: only a simple table was checked
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    with pytest.raises(InputError, match=f"not the {kind} table"):
        fusion_matrix(spec, tables.table_of_kind(Family.TEMPERLEY_LIEB, 7, kind))


def test_a_non_integer_character_fails_series_fusion_and_spectral_check_alike():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    g = fusion_matrix(spec, TL7)
    half = ModuleSpec(spec.label, spec.family, spec.m, spec.dim, (Fraction(1, 2),) + spec.charvec[1:])
    message = "character value 1/2 is not an integer; cannot form a growth base"
    for call in (
        lambda: length_series(half, TL7),
        lambda: fusion_matrix(half, TL7),
        lambda: spectral_check(g, half, TL7),
    ):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message


def test_no_check_runs_on_a_built_simple_table(monkeypatch):
    table = simple_table(Family.MOTZKIN, 32)
    checks = []

    def counting(t):
        checks.append(len(t))
        return original(t)

    original = linalg._check_unit_triangular
    for module in (linalg, tables):
        monkeypatch.setattr(module, "_check_unit_triangular", counting)
    specs = [module_spec(Family.MOTZKIN, 32, selector) for selector in ("V1", "S1", "P1")]
    for spec in specs:
        length_series(spec, table)
        for target in table.labels:
            multiplicity_series(spec, table, target)
        fusion_matrix(spec, table)
    assert checks == []
    # the counter sees the checks that do run
    simple_table(Family.MOTZKIN, 5)
    assert checks == [len(MO5.labels)]


def test_fusion_matrix_rejects_a_non_integer_character():
    half = ModuleSpec(
        label="half",
        family=Family.TEMPERLEY_LIEB,
        m=7,
        dim=14,
        charvec=(Fraction(1, 2), Fraction(1), Fraction(3), Fraction(14)),
    )
    with pytest.raises(InputError):
        fusion_matrix(half, TL7)


def test_projective_module_fusion_end_to_end():
    # a projective character also produces a nonnegative-integer fusion graph
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "P3")
    g = fusion_matrix(spec, TL7)
    assert all(x.denominator == 1 and x >= 0 for row in g.adjacency.rows for x in row)
    series = length_series(spec, TL7)
    for n in range(5):
        assert sum(power_multiplicities(g, n), Fraction(0)) == evaluate(series, n)


def test_pro5_fusion_entries_follow_tensor_rule():
    from math import comb

    for i in range(6):
        g = graph_for(Family.PLANAR_ROOK, 5, f"V{i}")
        for l in range(6):
            for j in range(6):
                expected = comb(l, i) * comb(i, i + j - l) if 0 <= i + j - l <= i else 0
                assert g.adjacency.rows[l][j] == expected


def test_realized_n0_is_ceil_m_over_i_for_planar_rook():
    for m in range(2, 9):
        for i in range(1, m + 1):
            g = graph_for(Family.PLANAR_ROOK, m, f"V{i}")
            assert realized_n0(g, {m}) == -(-m // i)


def test_realized_n0_within_l_class_bound():
    from growthlab.diagrams import green_data
    from growthlab.growth import n0_upper_bound

    cases = (
        (Family.PLANAR_ROOK, 3, "V1"),
        (Family.PLANAR_ROOK, 4, "V2"),
        (Family.TEMPERLEY_LIEB, 5, "V3"),
        (Family.MOTZKIN, 3, "S1"),
    )
    for family, m, sel in cases:
        g = graph_for(family, m, sel)
        n0 = realized_n0(g, set(scc_analysis(g).absorbing))
        bound = n0_upper_bound(green_data(family, m).l_class_count)
        assert n0 is not None and n0 <= bound
