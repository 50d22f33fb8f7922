import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import cli, growth, linalg, tables
from growthlab.diagrams import PLANAR_FAMILIES, Family, rank_labels
from growthlab.errors import InputError
from growthlab.growth import (
    ExpSum,
    GroupClassData,
    ModuleSpec,
    MonoidClassData,
    an_constant,
    convergence_report,
    evaluate,
    general_length_series,
    idempotent_multiplicity,
    involution_sum,
    leading_term,
    length_series,
    linear_monoid_constant,
    m0_upper_bound,
    module_spec,
    multiplicity_series,
    n0_upper_bound,
    parse_selector,
)
from growthlab.linalg import Mat
from growthlab.reference import INVOLUTION_COUNTS, MO5_S1_LENGTH_TERMS, TL7_V3_LENGTH_TERMS
from growthlab.tables import decomposition_matrix, simple_table
import series_reference

TL7 = simple_table(Family.TEMPERLEY_LIEB, 7)
MO5 = simple_table(Family.MOTZKIN, 5)


# ---------------------------------------------------------------------------
# ExpSum

def test_expsum_canonical_form():
    es = ExpSum.make([(Fraction(1), 4), (Fraction(2), 13), (Fraction(-1), 4), (Fraction(0), 7)])
    assert es.terms == ((Fraction(2), 13),)
    es = ExpSum.make([(1, 1), (1, -4), (1, 4), (1, 0)])
    assert [b for _, b in es.terms] == [4, -4, 1, 0]
    # int coefficients are merged as ints and leave as Fractions
    assert all(type(c) is Fraction for c, _ in es.terms)
    es = ExpSum.make([(3, 2), (Fraction(1, 2), 2), (-3, 5), (3, 5), (2, 7), (-1, 7)])
    assert es.terms == ((Fraction(1), 7), (Fraction(7, 2), 2))
    assert all(type(c) is Fraction for c, _ in es.terms)


COEFFS = st.one_of(
    st.integers(-5, 5), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COEFFS, st.integers(-6, 6)), max_size=12))
def test_expsum_make_is_canonical(pairs):
    es = ExpSum.make(pairs)
    bases = [b for _, b in es.terms]
    # terms with equal bases merge into one, carrying the sum of coefficients
    totals: dict[int, Fraction] = {}
    for c, b in pairs:
        totals[b] = totals.get(b, Fraction(0)) + c
    assert len(set(bases)) == len(bases)
    assert {b: c for c, b in es.terms} == {b: c for b, c in totals.items() if c != 0}
    # zero coefficients vanish
    assert all(c != 0 for c, _ in es.terms)
    # canonical order: |base| descending, then base descending
    for (_, b1), (_, b2) in zip(es.terms, es.terms[1:]):
        assert abs(b1) > abs(b2) or (abs(b1) == abs(b2) and b1 > b2)
    # int and Fraction inputs give equal results, with Fraction coefficients
    as_fractions = [(Fraction(c), b) for c, b in pairs]
    as_ints = [(c.numerator if c.denominator == 1 else c, b) for c, b in as_fractions]
    for other in (ExpSum.make(as_fractions), ExpSum.make(as_ints)):
        assert other == es
        assert all(type(c) is Fraction for c, _ in other.terms)
    # and the input order does not matter
    assert ExpSum.make(reversed(pairs)) == es


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(COEFFS, st.integers(-6, 6)), max_size=12), st.integers(0, 6))
def test_expsum_evaluates_as_the_fraction_sum(pairs, n):
    # evaluate sums on ints over the lcm of the denominators
    es = ExpSum.make(pairs)
    value = es.evaluate(n)
    assert type(value) is Fraction
    assert value == sum((Fraction(c) * b**n for c, b in es.terms), Fraction(0))


def test_expsum_human():
    assert length_series(module_spec(Family.TEMPERLEY_LIEB, 7, "V3"), TL7).human() == "13^n - 5*4^n + 8"
    assert ExpSum.make([(Fraction(-1), 5), (Fraction(2, 3), 2)]).human() == "-5^n + 2/3*2^n"
    assert ExpSum.make([(1, 0)]).human() == "0^n"
    assert ExpSum.make([]).human() == "0"
    assert ExpSum.make([(3, 1)]).human() == "3"


def test_expsum_json():
    es = ExpSum.make([(Fraction(-5), 4), (1, 13)])
    assert es.to_json() == [{"coeff": "1", "base": 13}, {"coeff": "-5", "base": 4}]


def test_evaluate_convention():
    assert evaluate(ExpSum.make([(1, 0)]), 0) == 1
    assert evaluate(ExpSum.make([(1, 0)]), 3) == 0
    with pytest.raises(InputError):
        evaluate(ExpSum.make([(1, 2)]), -1)


def test_leading_term():
    es = ExpSum.make([(1, 13), (-5, 4), (8, 1)])
    assert leading_term(es).terms == ((Fraction(1), 13),)
    es = ExpSum.make([(2, -7), (1, 7), (3, 1)])
    assert leading_term(es).terms == ((Fraction(1), 7), (Fraction(2), -7))
    constant = ExpSum.make([(5, 1)])
    assert leading_term(constant) == constant
    with pytest.raises(InputError):
        leading_term(ExpSum.make([]))


# ---------------------------------------------------------------------------
# module specs

def test_module_spec_selectors():
    v3 = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    assert v3.dim == 13 and v3.charvec == (0, 1, 4, 13)
    s1 = module_spec(Family.MOTZKIN, 5, "S1")
    assert s1.dim == 30 and s1.charvec == (0, 1, 2, 5, 12, 30)
    p3 = module_spec(Family.TEMPERLEY_LIEB, 7, "P3")
    assert p3.charvec == (1, 3, 9, 28)
    with pytest.raises(InputError):
        module_spec(Family.TEMPERLEY_LIEB, 7, "V2")
    with pytest.raises(InputError):
        module_spec(Family.TEMPERLEY_LIEB, 7, "X3")


def _no_table(*args):
    raise AssertionError("a table was built before the label was checked")


def test_a_selector_reads_the_labels_as_a_range():
    # at m = 10**7 a tuple of the labels once took 10 s and 400 MB here
    tracemalloc.start()
    try:
        assert parse_selector(Family.PLANAR_ROOK, 10**6, "V3") == ("V", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("selector", ["V1", "S1", "P2001", "V4000"])
def test_module_spec_checks_the_label_before_any_table(monkeypatch, selector):
    for module, name in (
        (growth, "_cell_columns"),
        (tables, "_cell_columns"),
        (tables, "_cell_rows"),
    ):
        monkeypatch.setattr(module, name, _no_table)
    with pytest.raises(InputError) as info:
        module_spec(Family.TEMPERLEY_LIEB, 2000, selector)
    message = str(info.value)
    # the rule, not the 1,001 labels
    assert message.startswith("label ") and "temperley_lieb m=2000" in message
    assert len(message) < 200
    # family and m are still checked first
    with pytest.raises(InputError, match="no character tables"):
        module_spec(Family.ROOK, 2000, selector)
    with pytest.raises(InputError, match="need m >= 1"):
        module_spec(Family.TEMPERLEY_LIEB, 0, selector)


MODULE_ROW_SIZES = (
    [(Family.TEMPERLEY_LIEB, m, 1) for m in range(1, 49)]
    + [(family, m, 1) for family in (Family.PLANAR_ROOK, Family.MOTZKIN) for m in range(1, 33)]
    + [(Family.TEMPERLEY_LIEB, 300, 37), (Family.TEMPERLEY_LIEB, 301, 37)]
    + [(Family.PLANAR_ROOK, 300, 37), (Family.MOTZKIN, 300, 37)]
)


@pytest.mark.parametrize("family, m, step", MODULE_ROW_SIZES)
def test_module_spec_reads_the_row_of_its_table(monkeypatch, family, m, step):
    referees = {
        kind: tables.table_of_kind(family, m, name)
        for kind, name in (("V", "simple"), ("S", "cell"), ("P", "projective"))
    }
    built = []
    monkeypatch.setattr(tables.CharTable, "__post_init__", lambda table: built.append(table))
    for label in referees["V"].labels[::step]:
        for kind, table in referees.items():
            spec = module_spec(family, m, f"{kind}{label}")
            assert spec == ModuleSpec.from_table(table, label, kind), (kind, label)
    assert built == []


# ---------------------------------------------------------------------------
# multiplicity and length series

def test_multiplicity_series_tl7():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    to_v5 = multiplicity_series(spec, TL7, 5)
    assert to_v5.nonzero_base_terms() == ((Fraction(1), 4), (Fraction(-4), 1))
    to_v7 = multiplicity_series(spec, TL7, 7)
    assert to_v7.nonzero_base_terms() == ((Fraction(1), 13), (Fraction(-6), 4), (Fraction(11), 1))
    assert evaluate(to_v7, 2) == 84
    assert evaluate(to_v7, 0) == 0
    with pytest.raises(InputError):
        multiplicity_series(spec, TL7, 2)


def pro_multiplicity_oracle(m, i, target, n):
    """Independent alternating binomial sum for the planar rook family."""
    return sum((-1) ** (target - j) * comb(target, j) * comb(j, i) ** n for j in range(target + 1))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_multiplicity_series_planar_rook_closed_form(m):
    table = simple_table(Family.PLANAR_ROOK, m)
    for i in range(m + 1):
        spec = module_spec(Family.PLANAR_ROOK, m, f"V{i}")
        for target in range(m + 1):
            series = multiplicity_series(spec, table, target)
            for n in range(1, 6):
                assert evaluate(series, n) == pro_multiplicity_oracle(m, i, target, n)


def test_length_series_tl7():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    series = length_series(spec, TL7)
    assert tuple((int(c), b) for c, b in series.nonzero_base_terms()) == TL7_V3_LENGTH_TERMS
    assert evaluate(series, 0) == 1
    assert evaluate(series, 1) == 1
    assert evaluate(series, 2) == 97
    assert evaluate(series, 3) == 1885


def test_length_series_mo5():
    spec = module_spec(Family.MOTZKIN, 5, "S1")
    series = length_series(spec, MO5)
    assert tuple((int(c), b) for c, b in series.nonzero_base_terms()) == MO5_S1_LENGTH_TERMS
    assert evaluate(series, 0) == 1
    assert evaluate(series, 1) == 1
    assert evaluate(series, 2) == 411


def test_length_series_trivial_module_is_constant_one():
    spec = module_spec(Family.PLANAR_ROOK, 5, "V0")
    series = length_series(spec, simple_table(Family.PLANAR_ROOK, 5))
    assert series.terms == ((Fraction(1), 1),)


def test_length_at_one_counts_composition_factors():
    for family, m, sel in (
        (Family.TEMPERLEY_LIEB, 7, "S1"),
        (Family.TEMPERLEY_LIEB, 7, "S3"),
        (Family.MOTZKIN, 5, "S0"),
        (Family.MOTZKIN, 5, "S2"),
    ):
        spec = module_spec(family, m, sel)
        series = length_series(spec, simple_table(family, m))
        d = decomposition_matrix(family, m)
        assert evaluate(series, 1) == len(d.cell_factors(int(sel[1:])))


def test_multiplicities_are_nonnegative_integers():
    for family, m, sel in (
        (Family.TEMPERLEY_LIEB, 7, "V3"),
        (Family.MOTZKIN, 5, "S1"),
        (Family.PLANAR_ROOK, 5, "V2"),
    ):
        spec = module_spec(family, m, sel)
        table = simple_table(family, m)
        for target in table.labels:
            series = multiplicity_series(spec, table, target)
            for n in range(0, 6):
                value = evaluate(series, n)
                assert value.denominator == 1 and value >= 0


CLOSED_FORM_SIZES = (
    [(Family.TEMPERLEY_LIEB, m) for m in range(16, 49)]
    + [(family, m) for family in (Family.PLANAR_ROOK, Family.MOTZKIN) for m in range(16, 33)]
)


@pytest.mark.parametrize("family, m", CLOSED_FORM_SIZES)
def test_block_series_match_the_full_table_route(family, m):
    table = simple_table(family, m)
    labels = table.labels
    for selector in (f"V{labels[len(labels) // 3]}", f"S{labels[len(labels) // 2]}", f"P{labels[-2]}"):
        spec = module_spec(family, m, selector)
        for target in labels:
            expected = series_reference.multiplicity_series(spec, table, target)
            assert multiplicity_series(spec, table, target) == expected, (selector, target)
        assert length_series(spec, table) == series_reference.series(spec, table, [1] * len(labels))


@pytest.mark.parametrize("family", [Family.TEMPERLEY_LIEB, Family.PLANAR_ROOK, Family.MOTZKIN])
def test_column_series_match_the_full_table_route_at_m300(family):
    table = simple_table(family, 300)
    labels = table.labels
    for selector in (f"V{labels[1]}", f"S{labels[len(labels) // 2]}", f"P{labels[-3]}"):
        spec = module_spec(family, 300, selector)
        for target in labels[::10] + labels[-1:]:
            expected = series_reference.multiplicity_series(spec, table, target)
            assert multiplicity_series(spec, table, target) == expected, (selector, target)
        assert length_series(spec, table) == series_reference.series(spec, table, [1] * len(labels))


@pytest.fixture
def fresh_memo():
    for memo in tables._MEMOS:
        memo.clear()
    yield


def _record_columns(monkeypatch) -> list[int]:
    """The C^-1 columns that `tables._inverse_column` computes, in order (a kept one read again is none)."""
    computed = []
    original = tables._inverse_column

    def recording(family, t):
        if (family, t) not in tables._INVERSES:
            computed.append(t)
        return original(family, t)

    monkeypatch.setattr(tables, "_inverse_column", recording)
    return computed


def test_multiplicity_series_reads_one_or_two_columns(monkeypatch, fresh_memo):
    # V_t reads column t of X^-1, C^-1 columns t and t^-: each computed once for the process
    computed = _record_columns(monkeypatch)
    table = simple_table(Family.TEMPERLEY_LIEB, 31)
    spec = module_spec(Family.TEMPERLEY_LIEB, 31, "V1")
    done = []
    for target in reversed(table.labels):
        computed.clear()
        multiplicity_series(spec, table, target)
        minus = tables.reflections(target, Family.TEMPERLEY_LIEB, 31).minus
        assert computed == [t for t in (target, minus) if t is not None and t not in done], target
        done += computed
    assert sorted(done) == list(table.labels)
    computed.clear()
    length_series(spec, table)
    assert all(multiplicity_series(spec, table, t) for t in table.labels) and computed == []


_SPEC_ATTRIBUTES = {"label", "family", "m", "dim", "charvec", "bases", "_slots"}


@pytest.mark.parametrize("family, m, selector", [(Family.PLANAR_ROOK, 300, "V2"), (Family.TEMPERLEY_LIEB, 131, "V3")])
def test_series_above_the_memo_bound_leave_nothing_on_the_spec(family, m, selector):
    # columns t > tables._KEPT are recomputed on each read: once a spec's
    # series are taken they are garbage, on the spec or anywhere else
    table = simple_table(family, m)
    spec = module_spec(family, m, selector)
    targets = table.labels[::10]
    length = series_reference.series(spec, table, [1] * len(table.labels))
    expected = [series_reference.multiplicity_series(spec, table, target) for target in targets]
    growth._growth_series(module_spec(family, m, "V1"))  # the columns up to the bound, kept for the process
    tracemalloc.start()
    try:
        assert length_series(spec, table) == length
        assert all(multiplicity_series(spec, table, t) == e for t, e in zip(targets, expected))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert set(vars(spec)) == _SPEC_ATTRIBUTES
    assert held < 2**19


def test_the_growth_command_keeps_no_columns(monkeypatch, capsys, fresh_memo):
    computed = _record_columns(monkeypatch)
    specs = []

    def keeping(*args):
        specs.append(module_spec(*args))
        return specs[-1]

    monkeypatch.setattr(cli, "module_spec", keeping)
    tl7 = ("--family", "tl", "--m", "7", "--module", "V3")
    assert cli.main(["growth", "length", *tl7]) == 0
    assert cli.main(["growth", "multiplicity", *tl7, "--target", "V7"]) == 0
    assert len(specs) == 2 and computed == [1, 3, 5, 7]  # V7 reads the column of X^-1 the length kept
    # above the bound each C^-1 column is computed at most once per call, below it once for the process
    below = [("tl", t) for t in computed]
    for name, m, selector, target, minus in (("tl", 131, "V3", 129, 127), ("pro", 300, "V2", 299, None)):
        labels = rank_labels(cli._family(name), m)
        for words in (["length"], ["multiplicity", "--target", f"V{target}"]) * 2:
            computed.clear()
            argv = ["growth", words[0], "--family", name, "--m", str(m), "--module", selector, *words[1:]]
            assert cli.main(argv) == 0
            above = [t for t in computed if t > tables._KEPT]
            below += [(name, t) for t in computed if t <= tables._KEPT]
            if words[0] == "length":
                assert above == [t for t in labels if t > tables._KEPT]
            else:
                assert above == [t for t in (target, minus) if t is not None]
    assert len(below) == len(set(below))
    assert all(set(vars(spec)) == _SPEC_ATTRIBUTES for spec in specs)


@st.composite
def _hand_built(draw):
    family = draw(st.sampled_from([Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN]))
    table = simple_table(family, draw(st.integers(1, 9)))
    size = len(table.labels)
    bases = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    return ModuleSpec("X", family, table.m, bases[-1], tuple(map(Fraction, bases))), table


@settings(max_examples=300, deadline=None)
@given(_hand_built())
def test_series_of_any_bases_come_out_canonical(drawn):
    # repeated, zero and negative bases, |b| ties included: the slots must
    # order them as ExpSum.make does and drop what cancels
    spec, table = drawn
    for target in table.labels:
        expected = series_reference.multiplicity_series(spec, table, target)
        assert multiplicity_series(spec, table, target) == expected
        assert growth._growth_series(spec, target) == expected  # streamed, as the CLI reads it
    expected = series_reference.series(spec, table, [1] * len(table.labels))
    assert length_series(spec, table) == expected
    assert growth._growth_series(spec) == expected


def test_kept_columns_leave_the_spec_value_alone():
    spec, twin = (module_spec(Family.MOTZKIN, 9, "P3") for _ in range(2))
    before = repr(spec), hash(spec)
    table = simple_table(Family.MOTZKIN, 9)
    length_series(spec, table)
    for target in table.labels:
        multiplicity_series(spec, table, target)
    assert (repr(spec), hash(spec)) == before
    assert spec == twin and twin == spec and hash(twin) == hash(spec)


_NOT_A_LABEL = "label {} is not a {} m={} label (labels are 0 <= i <= m{})"
_PARITY = ", with the parity of m"


@pytest.mark.parametrize(
    "family, m, target, message",
    [
        ("tl", 7, 9, _NOT_A_LABEL.format(9, "temperley_lieb", 7, _PARITY)),
        ("mo", 5, -1, _NOT_A_LABEL.format(-1, "motzkin", 5, "")),
        ("tl", 7, 2, _NOT_A_LABEL.format(2, "temperley_lieb", 7, _PARITY)),
        ("tl", 0, 0, "need m >= 1"),
        ("brauer", 3, 1, "no character tables for brauer"),
    ],
    ids=["not-a-label", "negative", "off-parity", "m-below-1", "not-planar"],
)
def test_series_refusals_keep_their_words(capsys, family, m, target, message):
    kind = cli._family(family)
    if kind in PLANAR_FAMILIES and m >= 1:
        table = simple_table(kind, m)
        spec = module_spec(kind, m, f"V{table.labels[-1]}")
    else:  # no table can be built: one made by hand passes the compatibility check
        table = tables.CharTable(kind, m, "simple", (0,), ((1,),))
        spec = ModuleSpec("V0", kind, m, 1, (Fraction(1),))
    with pytest.raises(InputError) as raised:
        multiplicity_series(spec, table, target)
    assert str(raised.value) == message
    argv = ["growth", "multiplicity", "--family", family, "--m", str(m), "--module", "V1", "--target", f"V{target}"]
    if m < 1:
        argv[argv.index("V1")] = "V0"
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("kind", ["cell", "projective", "cell_inverse"])
def test_series_refuse_a_table_that_is_not_simple(kind):
    # a block solve would not see a defect of the table past the target
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    table = tables.table_of_kind(Family.TEMPERLEY_LIEB, 7, kind)
    for series in (lambda: multiplicity_series(spec, table, 1), lambda: length_series(spec, table)):
        with pytest.raises(InputError, match=f"not the {kind} table"):
            series()


def test_a_non_integer_character_is_refused_past_the_block():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    charvec = spec.charvec[:2] + (Fraction(1, 2), spec.dim)
    half = ModuleSpec(spec.label, spec.family, spec.m, spec.dim, charvec)
    with pytest.raises(InputError, match="not an integer"):
        multiplicity_series(half, TL7, 1)  # target 1's block ends before the 1/2


# ---------------------------------------------------------------------------
# the general class-data formula

def test_general_length_series_trivial_groups_reduction():
    for family, m, sel in ((Family.TEMPERLEY_LIEB, 7, "V3"), (Family.MOTZKIN, 5, "S1")):
        table = simple_table(family, m)
        spec = module_spec(family, m, sel)
        data = MonoidClassData.trivial_groups(table)
        assert general_length_series(data, spec.charvec) == length_series(spec, table)


def test_general_length_series_c2_regular():
    x = Mat([(1, 1), (1, -1)])
    data = MonoidClassData(
        group_orders=(2,),
        class_sizes=((1, 1),),
        l_matrix=Mat.identity(2),
        y_blocks=(x,),
    )
    series = general_length_series(data, (2, 0))
    assert series.terms == ((Fraction(1), 2),)


def s3_length_oracle(n):
    """Decompose chi^n against the S_3 character table by class inner products."""
    sizes = (1, 3, 2)
    chars = ((1, 1, 1), (1, -1, 1), (2, 0, -1))
    chi = (2, 0, -1)
    total = 0
    for row in chars:
        total += Fraction(
            sum(s * row[t] * chi[t] ** n for t, s in enumerate(sizes)), 6
        )
    return total


def test_general_length_series_s3():
    x = Mat([(1, 1, 1), (1, -1, 1), (2, 0, -1)])
    data = MonoidClassData(
        group_orders=(6,),
        class_sizes=((1, 3, 2),),
        l_matrix=Mat.identity(3),
        y_blocks=(x,),
    )
    series = general_length_series(data, (2, 0, -1))
    assert series.terms == ((Fraction(2, 3), 2), (Fraction(1, 3), -1))
    for n in range(7):
        assert evaluate(series, n) == s3_length_oracle(n)


def test_general_length_series_validation():
    with pytest.raises(InputError):
        MonoidClassData(
            group_orders=(1,),
            class_sizes=((1, 1),),
            l_matrix=Mat.identity(2),
            y_blocks=(Mat.identity(1),),
        )


def test_group_class_data_asymptotics():
    s3 = GroupClassData(
        class_sizes=(1, 3, 2),
        simple_table=Mat([(1, 1, 1), (1, -1, 1), (2, 0, -1)]),
        projective_table=Mat([(1, 1, 1), (1, -1, 1), (2, 0, -1)]),
        scalar_classes=(0,),
        scalars=(Fraction(1),),
    )
    assert s3.summand_asymptotic(2).terms == ((Fraction(2, 3), 2),)
    assert s3.length_asymptotic(2) == s3.summand_asymptotic(2)
    c2 = GroupClassData(
        class_sizes=(1, 1),
        simple_table=Mat([(1, 1), (1, -1)]),
        projective_table=Mat([(1, 1), (1, -1)]),
        scalar_classes=(0, 1),
        scalars=(Fraction(1), Fraction(-1)),
    )
    # the sign module of C2: one summand at every tensor power
    assert c2.summand_asymptotic(1).terms == ((Fraction(1), 1),)
    with pytest.raises(InputError):
        GroupClassData(
            class_sizes=(1, 3, 2),
            simple_table=Mat.identity(3),
            projective_table=Mat.identity(3),
            scalar_classes=(1,),
            scalars=(Fraction(1),),
        )


# ---------------------------------------------------------------------------
# convergence data

def test_convergence_report_tl15():
    spec = module_spec(Family.TEMPERLEY_LIEB, 15, "S3")
    report = convergence_report(spec)
    assert report.chi_sec == 572
    assert report.ratio == Fraction(2, 7)


def test_convergence_report_pro8():
    spec = module_spec(Family.PLANAR_ROOK, 8, "V2")
    report = convergence_report(spec)
    assert report.chi_sec == comb(7, 2) == 21
    assert report.ratio == Fraction(3, 4)


def test_convergence_report_constant_character():
    spec = ModuleSpec("V0", Family.PLANAR_ROOK, 2, 1, (Fraction(1),) * 3)
    assert convergence_report(spec).chi_sec == 0


@pytest.mark.parametrize("family, m, selector", [(Family.TEMPERLEY_LIEB, 15, "S3"), (Family.PLANAR_ROOK, 8, "V2")])
def test_int_characters_meet_division_as_fractions(family, m, selector):
    # an int character and an int series stay exact where they are divided:
    # Fraction(1, 2) == 0.5, so only the type shows a float
    spec = module_spec(family, m, selector)
    assert all(type(x) is int for x in spec.charvec)
    assert type(convergence_report(spec).ratio) is Fraction
    series = length_series(spec, simple_table(family, m))
    assert all(type(c) is int for c, _ in series.terms)
    assert all(type(evaluate(series, n)) is Fraction for n in range(4))


def test_empty_character_vector_is_refused():
    with pytest.raises(InputError, match="empty character vector"):
        ModuleSpec("V0", Family.PLANAR_ROOK, 2, 1, ())


def test_chi_sec_closed_forms():
    from cell_formulas import tl_cell_entry

    # Temperley-Lieb cell modules: chi_sec is the value at the class m-2, and
    # the ratio equals (m-i)(m+i+2)/(4m(m-1)) exactly
    for m in (9, 11, 13, 15):
        for i in rank_labels_tl(m):
            spec = module_spec(Family.TEMPERLEY_LIEB, m, f"S{i}")
            report = convergence_report(spec)
            assert report.chi_sec == tl_cell_entry(m - 2, i)
            if i < m:
                assert report.ratio == Fraction((m - i) * (m + i + 2), 4 * m * (m - 1))
    # Motzkin: chi_sec is the value at the class m-1 for cell, projective and
    # nontrivial simple modules
    for m in (5, 6, 7):
        for kind in ("S", "P", "V"):
            for i in range(m + 1):
                if kind == "V" and i == 0:
                    continue  # trivial module: constant character, chi_sec = 0
                spec = module_spec(Family.MOTZKIN, m, f"{kind}{i}")
                assert convergence_report(spec).chi_sec == spec.charvec[m - 1]


def rank_labels_tl(m):
    return range(m % 2, m + 1, 2)


def test_ratio_convergence_bound_tl7():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    series = length_series(spec, TL7)
    k = leading_term(series)
    for n in range(1, 21):
        err = abs(evaluate(series, n) / evaluate(k, n) - 1)
        assert err <= 6 * Fraction(4, 13) ** n


# ---------------------------------------------------------------------------
# constants and bounds

def test_an_constant():
    assert an_constant(Family.TEMPERLEY_LIEB, 7) == 1
    assert an_constant(Family.PLANAR_ROOK, 8) == 1
    assert an_constant(Family.MOTZKIN, 5) == 1
    assert an_constant(Family.BRAUER, 3) == Fraction(2, 3)
    assert an_constant(Family.PARTITION, 4) == Fraction(5, 12)
    assert an_constant(Family.FULL_TRANSFORMATION, 3) == Fraction(2, 3)
    with pytest.raises(InputError):
        an_constant("brauer", 3)


def test_involution_sum():
    assert involution_sum(1) == (Fraction(1), 1)
    assert involution_sum(4) == (Fraction(5, 12), 10)
    assert involution_sum(5) == (Fraction(13, 60), 26)
    from math import factorial

    for m in range(1, 13):
        total, count = involution_sum(m)
        assert count == INVOLUTION_COUNTS[m - 1]
        assert total * factorial(m) == count
        assert an_constant(Family.ROOK, m) * factorial(m) == count


def test_idempotent_multiplicity():
    # sign idempotent of the 2-element symmetric group on its regular module
    idem = [(Fraction(1, 2), "e"), (Fraction(-1, 2), "s")]
    chars = {"e": 2, "s": 0}
    for n in range(1, 5):
        assert idempotent_multiplicity(idem, chars, n) == 2 ** (n - 1)
    assert idempotent_multiplicity(idem, {"e": 2, "s": 0}, 1) == 1
    s3_sign = [(Fraction(1, 6), "e"), (Fraction(-3, 6), "t"), (Fraction(2, 6), "c")]
    regular = {"e": 6, "t": 0, "c": 0}
    for n in range(1, 5):
        assert idempotent_multiplicity(s3_sign, regular, n) == Fraction(6**n, 6)
    with pytest.raises(InputError):
        idempotent_multiplicity(idem, {"e": 2}, 1)


def test_bounds():
    assert n0_upper_bound(2**8) == 255
    assert n0_upper_bound(1) == 0
    assert n0_upper_bound(3, semigroup=True) == 3
    assert m0_upper_bound(5, 6, 1) == 9
    assert m0_upper_bound(1, 1, 1) == 0
    assert m0_upper_bound(16, 1, 1) == n0_upper_bound(16)
    with pytest.raises(InputError):
        m0_upper_bound(5, 6, 4)
    with pytest.raises(InputError):
        n0_upper_bound(0)


def test_linear_monoid_constant():
    assert linear_monoid_constant(2, 1) == Fraction(2, 3)
    assert linear_monoid_constant(3, 1) == Fraction(1, 2)
    assert linear_monoid_constant(2, 2) == Fraction(8, 15)
    with pytest.raises(InputError):
        linear_monoid_constant(4, 1)
    with pytest.raises(InputError):
        linear_monoid_constant(2, 0)
