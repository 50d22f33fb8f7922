"""The verify report writer, against the standard library's, and the
integer products that a verify run makes."""

import json
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import fusion, linalg, verify
from growthlab.diagrams import Family
from growthlab.linalg import int_mul
from growthlab.tables import cell_inverse, cell_table
from growthlab.verify import CheckResult, report_json


def stdlib_report(results) -> str:
    """The report as json.dumps writes it: the referee for report_json."""
    payload = {
        "checks": [
            {
                "name": r.check,
                "status": r.status,
                "detail": f"{r.lhs} vs {r.rhs} @ {r.location}",
                "lhs": r.lhs,
                "rhs": r.rhs,
                "location": r.location,
            }
            for r in results
        ],
        "failures": sum(1 for r in results if not r.ok),
        "total": len(results),
    }
    return json.dumps(payload, indent=2)


def test_the_report_of_a_full_run_is_the_stdlib_report(monkeypatch):
    monkeypatch.delenv("GROWTHLAB_MAX_M", raising=False)
    results = verify.run_suite("all")
    assert len(results) == 674
    assert report_json(results) == stdlib_report(results)


def test_an_empty_report_is_the_stdlib_report():
    assert report_json([]) == stdlib_report([]) == '{\n  "checks": [],\n  "failures": 0,\n  "total": 0\n}'


# quotes, backslashes, control and non-ASCII characters, astral ones and lone surrogates
_HARD = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001f600", "\ud800", "\udfff"]
)
_TEXT = st.text(st.one_of(_HARD, st.characters(exclude_categories=())), max_size=12)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(CheckResult, _TEXT, st.one_of(st.sampled_from(["ok", "fail"]), _TEXT), _TEXT, _TEXT, _TEXT),
        max_size=4,
    )
)
def test_a_report_of_any_text_is_the_stdlib_report(results):
    assert report_json(results) == stdlib_report(results)


def test_a_verify_run_makes_49_integer_products(monkeypatch):
    # 3 printed inverses; 4 Riordan products, one at the top of each label
    # chain (m = 20, and m = 19 for Temperley-Lieb's odd labels); and per
    # fusion graph 14: 1 for X^T A, 5 powers A^2..A^6 (A^1 is A), X^-T X^T
    # and X^T X^-T, and 6 reconstructions X^-T (diag(chi^p) X^T) for p >= 1
    bound = {
        name for name, module in sys.modules.items()
        if name.startswith("growthlab") and getattr(module, "int_mul", None) is int_mul
    }
    assert bound == {"growthlab.linalg", "growthlab.fusion", "growthlab.verify"}
    calls = []

    def counted(x, y):
        calls.append(len(x))
        return int_mul(x, y)

    monkeypatch.delenv("GROWTHLAB_MAX_M", raising=False)
    monkeypatch.setattr(fusion, "int_mul", counted)
    monkeypatch.setattr(verify, "int_mul", counted)
    verify.run_suite("all")
    assert len(calls) == 49


def test_a_verify_run_builds_each_fusion_graph_once(monkeypatch):
    # TL 7 V3, MO 5 S1 and PRO 8 V2, in the order of the spectral checks;
    # the pro8 checks read the last
    built = []

    def counted(spec, table):
        built.append((spec.family, spec.m, spec.label))
        return fusion.fusion_matrix(spec, table)

    monkeypatch.setattr(verify, "fusion_matrix", counted)
    results = verify.run_suite("fusion")
    assert built == [(Family.TEMPERLEY_LIEB, 7, "V3"), (Family.MOTZKIN, 5, "S1"), (Family.PLANAR_ROOK, 8, "V2")]
    assert [r.check for r in results if r.check.startswith("fusion:")] == [
        "fusion:pro8-matrix", "fusion:pro8-n0", "fusion:pro8-absorbing", "fusion:pro8-selfloop"
    ]
    assert all(r.ok for r in results)


def test_a_verify_run_builds_each_table_once(monkeypatch):
    # 3 families x m = 1..20 for the Riordan checks, whose cell tables hold
    # every golden one; 20 simple and 10 projective tables at the sizes the
    # suites name; a second run builds them all again
    built = Counter()
    for name in ("cell_table", "cell_inverse", "simple_table", "projective_table"):
        builder = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda family, m, _name=name, _builder=builder: built.update([_name]) or _builder(family, m)
        )
    monkeypatch.delenv("GROWTHLAB_MAX_M", raising=False)
    once = {"cell_table": 60, "cell_inverse": 60, "simple_table": 20, "projective_table": 10}
    verify.run_suite("all")
    assert built == once
    verify.run_suite("all")
    assert built == {name: 2 * count for name, count in once.items()}


def test_each_riordan_product_is_the_product_at_its_m():
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN):
        products = list(verify._riordan_products(family, 20))
        assert [m for m, _ in products] == list(range(1, 21))
        for m, prod in products:
            assert prod == int_mul(cell_table(family, m).rows, cell_inverse(family, m).rows)
