"""The library's input contract (README, "Values, exactness and threads").

Every public entry that takes m, n, a family, a label, a selector, (p, l)
params or a library record (a `Diagram`, `ModuleSpec`, `CharTable`,
`FusionGraph`, `MonoidClassData` or `SccReport`) either returns or raises an
`InputError` that names the parameter.
The gate draws those arguments property-style (Claessen and Hughes,
"QuickCheck", ICFP 2000): ints across 31 orders of magnitude, negative ones
included, and bools, floats, strings and None.  A valid value costs work in
proportion to its size.  So each argument has a ceiling: the largest value
the gate may draw that the library accepts.  Values that the library refuses
cheaply are drawn at every magnitude: those below 1, m past `sys.maxsize`,
and m past the enumeration cap (GROWTHLAB_MAX_M=3 here).  A record argument
is drawn valid half the time, else None, an int, a str or a record of
another type.
The probes that once returned floats or wrong answers, or raised a bare
TypeError or AttributeError or an `InternalCheckError`, are pinned below,
each with its message, and so is each shape refusal of a record.
"""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from growthlab import (
    CHAR0_MO,
    CHAR0_TL,
    INFINITY,
    Diagram,
    ExpSum,
    Family,
    GroupClassData,
    InputError,
    Mat,
    MonoidClassData,
    PLParams,
    an_constant,
    ancestorless,
    cell_inverse,
    cell_table,
    class_idempotent,
    compose,
    convergence_report,
    decomposition_matrix,
    enumerate_diagrams,
    evaluate,
    flip,
    fusion_matrix,
    general_length_series,
    green_data,
    group_injective,
    identity_diagram,
    idempotent_multiplicity,
    involution_sum,
    length_series,
    linear_monoid_constant,
    m0_upper_bound,
    make_diagram,
    module_spec,
    multiplicity_series,
    n0_upper_bound,
    pl_digits,
    pl_support,
    power_multiplicities,
    projective_table,
    rank,
    rank_labels,
    realized_n0,
    reflections,
    scc_analysis,
    simple_table,
    spectral_check,
    to_dot,
    trivial_label,
)
from growthlab.cli import main
from growthlab.growth import ModuleSpec
from growthlab.record import Record
from growthlab.tables import CharTable
from growthlab.verify import run_suite

TL = Family.TEMPERLEY_LIEB
TL5 = simple_table(TL, 5)
V1 = module_spec(TL, 5, "V1")
GRAPH = fusion_matrix(V1, TL5)
SERIES = length_series(V1, TL5)
DECOMPOSITION = decomposition_matrix(TL, 5)
REPORT = scc_analysis(GRAPH)
IDENTITY = identity_diagram(TL, 5)
DATA = MonoidClassData.trivial_groups(TL5)
C2 = Mat([(1, 1), (1, -1)])
GROUP = GroupClassData((1, 1), C2, C2, (0, 1), (Fraction(1), Fraction(-1)))

JUNK = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none())


def ints(ceiling: int):
    """Ints from -10**k to min(10**k, ceiling), k drawn from 0..30."""
    return st.integers(0, 30).flatmap(lambda k: st.integers(-(10**k), min(10**k, ceiling)))


def half(likely, rest):
    """likely half the time, else rest: so that a call of several arguments is often valid."""
    return st.booleans().flatmap(lambda pick: likely if pick else rest)


def arg(ceiling: int = 10**30, past_maxsize: bool = False):
    """A small int half the time, else an int of any magnitude under the ceiling or junk;
    past_maxsize adds m >= sys.maxsize, which the labels refuse."""
    huge = [st.integers(sys.maxsize, 10**30)] * past_maxsize
    return half(st.integers(-1, min(8, ceiling)), st.one_of(ints(ceiling), JUNK, *huge))


PLANAR = [Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN]
FAMILY = half(st.sampled_from(PLANAR), st.one_of(st.sampled_from(Family), st.sampled_from(["tl", "motzkin"]), JUNK))
SELECTOR = st.one_of(st.from_regex(r"[VSPx]?-?[0-9]{1,3}", fullmatch=True), arg())
PARAMS = st.one_of(st.sampled_from([CHAR0_TL, CHAR0_MO, PLParams(2, 3), PLParams(7, 2)]), arg())
COEFFICIENT = st.one_of(ints(10**30), st.fractions(max_denominator=9), JUNK)
TABLE_M = arg(12, past_maxsize=True)
RECORDS = (IDENTITY, V1, TL5, GRAPH, REPORT, DATA)


def record(valid):
    """valid half the time, else None, an int, a str or one of the other records."""
    others = [other for other in RECORDS if type(other) is not type(valid)]
    return half(st.just(valid), st.one_of(st.none(), st.integers(), st.text(max_size=3), st.sampled_from(others)))


# each public entry and its arguments; the other arguments are fixed valid values
GATE = {
    "Diagram": (Diagram, FAMILY, arg(), st.just(((1, 3), (2, 4)))),
    "make_diagram": (make_diagram, FAMILY, arg(), st.just([(1, 2), (3, 4)])),
    "identity_diagram": (identity_diagram, FAMILY, arg(1000)),
    "class_idempotent": (class_idempotent, FAMILY, arg(1000, past_maxsize=True), arg()),
    "enumerate_diagrams": (enumerate_diagrams, FAMILY, arg()),
    "green_data": (green_data, FAMILY, arg()),
    "rank_labels": (rank_labels, FAMILY, arg(1000, past_maxsize=True)),
    "compose": (compose, record(IDENTITY), record(IDENTITY)),
    "flip": (flip, record(IDENTITY)),
    "rank": (rank, record(IDENTITY)),
    "power_multiplicities": (power_multiplicities, record(GRAPH), arg(50)),
    "spectral_check": (spectral_check, record(GRAPH), record(V1), record(TL5), arg(8)),
    "realized_n0": (realized_n0, record(GRAPH), st.lists(arg(), max_size=3)),
    "scc_analysis": (scc_analysis, record(GRAPH)),
    "to_dot": (to_dot, record(GRAPH), record(REPORT)),
    "fusion_matrix": (fusion_matrix, record(V1), record(TL5)),
    "FusionGraph.label_index": (GRAPH.label_index, arg()),
    "ExpSum.make": (ExpSum.make, st.lists(st.tuples(COEFFICIENT, arg()), max_size=3)),
    "ExpSum.evaluate": (SERIES.evaluate, arg(1000)),
    "evaluate": (evaluate, st.just(SERIES), arg(1000)),
    "an_constant": (an_constant, FAMILY, arg(300)),
    "involution_sum": (involution_sum, arg(300)),
    "idempotent_multiplicity": (
        idempotent_multiplicity, st.just([(1, "a"), (Fraction(1, 2), "b")]), st.just({"a": 2, "b": -3}), arg(1000)
    ),
    "linear_monoid_constant": (linear_monoid_constant, arg(), arg(50)),
    "n0_upper_bound": (n0_upper_bound, arg(), st.booleans()),
    "m0_upper_bound": (m0_upper_bound, arg(), arg(), arg()),
    "module_spec": (module_spec, FAMILY, TABLE_M, SELECTOR),
    "ModuleSpec.from_table": (ModuleSpec.from_table, record(TL5), arg(), st.just("V")),
    "multiplicity_series": (multiplicity_series, record(V1), record(TL5), arg()),
    "length_series": (length_series, record(V1), record(TL5)),
    "convergence_report": (convergence_report, record(V1)),
    "MonoidClassData.trivial_groups": (MonoidClassData.trivial_groups, record(TL5)),
    "general_length_series": (general_length_series, record(DATA), st.just(V1.charvec)),
    "GroupClassData.length_asymptotic": (GROUP.length_asymptotic, arg()),
    "GroupClassData.summand_asymptotic": (GROUP.summand_asymptotic, arg()),
    "cell_table": (cell_table, FAMILY, TABLE_M),
    "simple_table": (simple_table, FAMILY, TABLE_M),
    "projective_table": (projective_table, FAMILY, TABLE_M),
    "cell_inverse": (cell_inverse, FAMILY, TABLE_M),
    "decomposition_matrix": (decomposition_matrix, FAMILY, TABLE_M, st.one_of(st.none(), PARAMS)),
    "trivial_label": (trivial_label, FAMILY, arg()),
    "reflections": (reflections, arg(), FAMILY, arg()),
    "group_injective": (group_injective, FAMILY, arg()),
    "CharTable.entry": (TL5.entry, arg(), arg()),
    "CharTable.row": (TL5.row, arg()),
    "CharTable.dim": (TL5.dim, arg()),
    "DecompositionMatrix.entry": (DECOMPOSITION.entry, arg(), arg()),
    "DecompositionMatrix.cell_factors": (DECOMPOSITION.cell_factors, arg()),
    "PLParams": (PLParams, st.one_of(st.just(INFINITY), arg()), arg()),
    "pl_digits": (pl_digits, arg(), PARAMS),
    "pl_support": (pl_support, arg(), PARAMS),  # past 16 nonzero digits refused, not 2**k values built
    "ancestorless": (ancestorless, arg(), PARAMS),
    "Mat.identity": (Mat.identity, arg(30)),
}


def _floats(value) -> bool:
    """Whether a float sits anywhere in a returned value."""
    if isinstance(value, float):
        return True
    if isinstance(value, (tuple, list, frozenset)):
        return any(map(_floats, value))
    if isinstance(value, dict):
        return any(map(_floats, value.values()))
    return isinstance(value, Record) and any(_floats(getattr(value, name)) for name in value._fields)


@pytest.mark.parametrize("name", GATE)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_entry_returns_or_raises_one_input_error(monkeypatch, name, data):
    monkeypatch.setenv("GROWTHLAB_MAX_M", "3")
    fn, *strategies = GATE[name]
    args = data.draw(st.tuples(*strategies), label="args")
    try:
        value = fn(*args)
    except InputError as exc:
        assert "\n" not in str(exc)
    else:
        assert not _floats(value)


# each probe: the call, and the one InputError it raises
PROBES = {
    # returned a float
    "idempotent-n-float": (lambda: idempotent_multiplicity([(1, "a")], {"a": 2}, 2.5), "n must be an int, not 2.5"),
    "n0-float": (lambda: n0_upper_bound(2.5), "l_class_count must be an int, not 2.5"),
    "m0-float": (lambda: m0_upper_bound(2.5, 6, 1), "l_class_count must be an int, not 2.5"),
    "pl-digits-float": (lambda: pl_digits(2.5, CHAR0_TL), "a must be an int, not 2.5"),
    "reflections-float": (lambda: reflections(1.0, TL, 7), "label must be an int, not 1.0"),
    # answered wrongly
    "rank-labels-str-family": (lambda: rank_labels("tl", 3), "family must be a Family, not 'tl'"),
    "enumerate-bool-m": (lambda: enumerate_diagrams(TL, True), "m must be an int, not True"),
    "cell-table-bool-m": (lambda: cell_table(TL, True), "m must be an int, not True"),
    "rank-labels-negative-m": (lambda: rank_labels(TL, -3), "need m >= 1"),
    "group-injective-zero-m": (lambda: group_injective(TL, 0), "need m >= 1"),
    "class-idempotent-bool-j": (lambda: class_idempotent(TL, 3, True), "j must be an int, not True"),
    "entry-bool-label": (lambda: TL5.entry(True, 1), "label must be an int, not True"),
    "target-bool-label": (lambda: multiplicity_series(V1, TL5, True), "label must be an int, not True"),
    "from-table-float-label": (lambda: ModuleSpec.from_table(TL5, 1.0, "V"), "label must be an int, not 1.0"),
    "pro-params-str": (lambda: decomposition_matrix(Family.PLANAR_ROOK, 3, "x"), "params must be a PLParams, not 'x'"),
    # raised a bare TypeError or AttributeError
    "green-data-str-m": (lambda: green_data(TL, "3"), "m must be an int, not '3'"),
    "cell-table-float-m": (lambda: cell_table(TL, 2.5), "m must be an int, not 2.5"),
    "cell-table-str-m": (lambda: cell_table(TL, "7"), "m must be an int, not '7'"),
    "cell-table-str-family": (lambda: cell_table("tl", 7), "family must be a Family, not 'tl'"),
    "power-float-n": (lambda: power_multiplicities(GRAPH, 2.0), "n must be an int, not 2.0"),
    "decomposition-str-params": (lambda: decomposition_matrix(TL, 3, "x"), "params must be a PLParams, not 'x'"),
    "module-spec-int-selector": (lambda: module_spec(TL, 7, 3), "selector must be a str, not 3"),
    "make-str-base": (lambda: ExpSum.make([(1, "x")]), "base must be an int, not 'x'"),
    "make-str-coefficient": (lambda: ExpSum.make([("x", 2)]), "coefficient must be an int or a Fraction, not 'x'"),
    "identity-float-m": (lambda: identity_diagram(TL, 2.5), "m must be an int, not 2.5"),
    "pl-params-float-p": (lambda: PLParams(47.0, 3), "p must be an int, not 47.0"),
    "linear-monoid-str-p": (lambda: linear_monoid_constant("7", 1), "p must be an int, not '7'"),
    "mat-identity-float-n": (lambda: Mat.identity(2.5), "n must be an int, not 2.5"),
    "class-idempotent-list-m": (lambda: class_idempotent(TL, [3], 1), "m must be an int, not [3]"),
    "class-idempotent-list-j": (lambda: class_idempotent(TL, 3, [1]), "j must be an int, not [1]"),
    "compose-int-b": (lambda: compose(IDENTITY, 5), "b must be a Diagram, not 5"),
    "length-str-simple": (lambda: length_series(V1, "x"), "simple must be a CharTable, not 'x'"),
    "power-str-g": (lambda: power_multiplicities("g", 2), "g must be a FusionGraph, not 'g'"),
    "scc-none-g": (lambda: scc_analysis(None), "g must be a FusionGraph, not None"),
    "fusion-none-simple": (lambda: fusion_matrix(V1, None), "simple must be a CharTable, not None"),
    "spectral-none-g": (lambda: spectral_check(None, V1, None), "g must be a FusionGraph, not None"),
    "dot-none-g": (lambda: to_dot(None, None), "g must be a FusionGraph, not None"),
    "convergence-int-spec": (lambda: convergence_report(5), "spec must be a ModuleSpec, not 5"),
    "general-none-data": (lambda: general_length_series(None, [1]), "data must be a MonoidClassData, not None"),
    "length-asymptotic-float-dim": (lambda: GROUP.length_asymptotic(2.5), "dim must be an int, not 2.5"),
    "length-asymptotic-str-dim": (lambda: GROUP.length_asymptotic("3"), "dim must be an int, not '3'"),
    "summand-asymptotic-none-dim": (lambda: GROUP.summand_asymptotic(None), "dim must be an int, not None"),
    # answered as if dim were 1
    "length-asymptotic-bool-dim": (lambda: GROUP.length_asymptotic(True), "dim must be an int, not True"),
    # raised InternalCheckError, the class of a defect, for a caller's records
    "fusion-no-trivial-row": (
        lambda: fusion_matrix(
            ModuleSpec("V1", Family.MOTZKIN, 1, 1, (1, 1)),
            CharTable(Family.MOTZKIN, 1, "simple", (0, 1), ((1, 0), (0, 1))),
        ),
        "simple has no trivial (all-ones) row",
    ),
    "fusion-negative-multiplicity": (
        lambda: fusion_matrix(ModuleSpec("V1", Family.MOTZKIN, 2, 1, (-1, 0, 1)), simple_table(Family.MOTZKIN, 2)),
        "need every tensor multiplicity of spec >= 0",
    ),
    # had no ceiling in the library: it would build 2**51 sign twists
    "pl-support-past-the-twists": (
        lambda: pl_support(10**30, PLParams(2, 3)), "a + 1 has 51 nonzero digits after the leading one (at most 16)"
    ),
    # raised OverflowError after a list of 2m slots was asked for
    "diagram-huge-m": (lambda: Diagram(TL, 10**30, ((1, 2),)), "blocks do not partition the 2m points"),
    # a verify run: the exit-3 class, a TypeError, and 131 checks without the oracle's
    "run-suite-unknown": (lambda: run_suite("bogus"), "unknown suite 'bogus'"),
    "run-suite-unhashable": (lambda: run_suite(["all"]), "unknown suite ['all']"),
    "run-suite-float-max-m": (lambda: run_suite("all", 2.5), "max_m must be an int, not 2.5"),
    "run-suite-zero-max-m": (lambda: run_suite("all", 0), "need max_m >= 1"),
}


@pytest.mark.parametrize("name", PROBES)
def test_each_probe_raises_one_input_error_naming_its_parameter(name):
    call, message = PROBES[name]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is InputError


# each refusal of a record's shape, and the one InputError it raises
SHAPE_REFUSALS = {
    "module-spec-dim": (
        lambda: ModuleSpec("V1", TL, 5, V1.dim + 1, V1.charvec), "dimension must equal the character at the identity class"
    ),
    "length-short-character": (
        lambda: length_series(ModuleSpec("V1", TL, 5, V1.dim, V1.charvec[1:]), TL5), "character vector length mismatch"
    ),
    "monoid-data-lengths": (
        lambda: MonoidClassData((1,), ((1,), (1,)), Mat.identity(2), (Mat.identity(1),) * 2),
        "per-J-class data lengths disagree",
    ),
    "monoid-data-l-shape": (
        lambda: MonoidClassData((1,), ((1,),), Mat.identity(2), (Mat.identity(1),)),
        "L must be square of size = total class count",
    ),
    "general-short-character": (lambda: general_length_series(DATA, (1,)), "character vector length mismatch"),
    "group-data-widths": (
        lambda: GroupClassData((1, 1), Mat.identity(1), C2, (), ()), "table widths must match the class count"
    ),
    "group-data-scalars": (lambda: GroupClassData((1, 1), C2, C2, (0,), ()), "one scalar per scalar class"),
}


@pytest.mark.parametrize("name", SHAPE_REFUSALS)
def test_each_shape_refusal_raises_one_input_error(name):
    call, message = SHAPE_REFUSALS[name]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is InputError


def test_a_typed_cache_keeps_a_float_m_from_an_int_m_hit():
    # class_idempotent is an lru_cache: untyped, (TL, 3.0, 1) hit the entry of (TL, 3, 1)
    class_idempotent(TL, 3, 1)
    with pytest.raises(InputError, match=r"^m must be an int, not 3\.0$"):
        class_idempotent(TL, 3.0, 1)


def test_the_cli_keeps_its_own_max_m_message(capsys):
    assert main(["verify", "--max-m", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --max-m 0 must be at least 1\n")
