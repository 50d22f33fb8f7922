"""The library's input contract (README, "Values, exactness and threads").

Every public entry that takes m, n, a family, a label, a selector or (p, l)
params either returns or raises an `InputError` that names the parameter.
The gate draws those arguments property-style (Claessen and Hughes,
"QuickCheck", ICFP 2000): ints across 31 orders of magnitude, negative ones
included, and bools, floats, strings and None.  A valid value costs work in
proportion to its size.  So each argument has a ceiling: the largest value
the gate may draw that the library accepts.  Values that the library refuses
cheaply are drawn at every magnitude: those below 1, m past `sys.maxsize`,
and m past the enumeration cap (GROWTHLAB_MAX_M=3 here).
The probes that once returned floats or wrong answers, or raised a bare
TypeError or AttributeError, are pinned below, each with its message.
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
    InputError,
    Mat,
    PLParams,
    an_constant,
    ancestorless,
    cell_inverse,
    cell_table,
    class_idempotent,
    decomposition_matrix,
    enumerate_diagrams,
    evaluate,
    fusion_matrix,
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
    rank_labels,
    realized_n0,
    reflections,
    simple_table,
    spectral_check,
    trivial_label,
)
from growthlab.cli import main
from growthlab.growth import ModuleSpec
from growthlab.record import Record
from growthlab.verify import run_suite

TL = Family.TEMPERLEY_LIEB
TL5 = simple_table(TL, 5)
V1 = module_spec(TL, 5, "V1")
GRAPH = fusion_matrix(V1, TL5)
SERIES = length_series(V1, TL5)
DECOMPOSITION = decomposition_matrix(TL, 5)

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

# each public entry and its arguments; the other arguments are fixed valid values
GATE = {
    "Diagram": (Diagram, FAMILY, arg(), st.just(((1, 3), (2, 4)))),
    "make_diagram": (make_diagram, FAMILY, arg(), st.just([(1, 2), (3, 4)])),
    "identity_diagram": (identity_diagram, FAMILY, arg(1000)),
    "class_idempotent": (class_idempotent, FAMILY, arg(1000, past_maxsize=True), arg()),
    "enumerate_diagrams": (enumerate_diagrams, FAMILY, arg()),
    "green_data": (green_data, FAMILY, arg()),
    "rank_labels": (rank_labels, FAMILY, arg(1000, past_maxsize=True)),
    "power_multiplicities": (power_multiplicities, st.just(GRAPH), arg(50)),
    "spectral_check": (spectral_check, st.just(GRAPH), st.just(V1), st.just(TL5), arg(8)),
    "realized_n0": (realized_n0, st.just(GRAPH), st.lists(arg(), max_size=3)),
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
    "ModuleSpec.from_table": (ModuleSpec.from_table, st.just(TL5), arg(), st.just("V")),
    "multiplicity_series": (multiplicity_series, st.just(V1), st.just(TL5), arg()),
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
    "pl_support": (pl_support, arg(10**4), PARAMS),  # 2**k values for k nonzero digits
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


def test_a_typed_cache_keeps_a_float_m_from_an_int_m_hit():
    # class_idempotent is an lru_cache: untyped, (TL, 3.0, 1) hit the entry of (TL, 3, 1)
    class_idempotent(TL, 3, 1)
    with pytest.raises(InputError, match=r"^m must be an int, not 3\.0$"):
        class_idempotent(TL, 3.0, 1)


def test_the_cli_keeps_its_own_max_m_message(capsys):
    assert main(["verify", "--max-m", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --max-m 0 must be at least 1\n")
