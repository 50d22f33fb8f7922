"""Cross-check harness behind `growthlab verify` and the acceptance tests.

Every check compares two independent routes to the same value — closed-form
tables against brute-force diagram traces, growth formulas against oracle
multiplicities, fusion data against golden matrices — and records a
machine-readable result.  All comparisons are exact.  A run builds each
table it reads once, in a memo of its own (`_Tables`), and each fusion graph
once.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import oracle, reference
from .diagrams import DEFAULT_MAX_M, Family, _check_int, class_idempotent, expected_order, max_enumerable_m, rank_labels
from .errors import InputError, InternalCheckError, VerificationError
from .fusion import fusion_matrix, power_multiplicities, realized_n0, scc_analysis, spectral_check
from .growth import evaluate, length_series, module_spec, multiplicity_series
from .linalg import int_identity, int_mul
from .record import Record
from .tables import (
    _json_text,
    cell_inverse,
    cell_table,
    check_motzkin_simple_closed_form,
    projective_table,
    simple_table,
)


class CheckResult(Record):
    """One cross-check: its name, "ok" or "fail", both sides and where it ran."""

    check: str
    status: str  # "ok" or "fail"
    lhs: str
    rhs: str
    location: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _result(name: str, lhs, rhs, location: str) -> CheckResult:
    same = lhs == rhs
    return CheckResult(
        check=name,
        status="ok" if same else "fail",
        lhs=repr(lhs) if not same else "match",
        rhs=repr(rhs) if not same else "match",
        location=location,
    )


def _oracle_value(fn, *args):
    """fn(*args), or "raised: <message>" when a route refuses or breaks an invariant,
    so that the checks on it fail by name and the suite runs on."""
    try:
        return fn(*args)
    except (InternalCheckError, VerificationError) as exc:
        return f"raised: {exc}"


class _Tables(dict):
    """tables[builder, family, m]: each table of one verify run, built once by the
    builder that a suite names through this module, so a patch of it is seen."""

    def __missing__(self, key):
        table = self[key] = key[0](*key[1:])
        return table


def _oracle_bounds(max_m: int | None) -> dict[Family, int]:
    bounds = DEFAULT_MAX_M
    if max_m is not None:
        bounds = {f: min(b, max_m) for f, b in bounds.items()}
    return {f: min(b, max_enumerable_m(f)) for f, b in bounds.items()}


# ---------------------------------------------------------------------------
# suites

def check_counts(max_m: int | None = None, tables: _Tables | None = None) -> list[CheckResult]:
    out = []  # the counts read no table
    for family, bound in _oracle_bounds(max_m).items():
        for m in range(1, bound + 1):
            actual = _oracle_value(lambda: oracle.count_check(family, m).actual)
            out.append(_result(f"count:{family.value}:{m}", actual, expected_order(family, m), "oracle.count_check"))
    return out


def check_tables(max_m: int | None = None, tables: _Tables | None = None) -> list[CheckResult]:
    tables = _Tables() if tables is None else tables
    out = []
    for family, bound in _oracle_bounds(max_m).items():
        for m in range(1, bound + 1):
            loc = f"{family.value} m={m}"
            brute_rows = _oracle_value(oracle._oracle_rows, family, m)
            if isinstance(brute_rows, str):  # refused: both tables fail by name
                brute_rows = (brute_rows, brute_rows)
            for kind, closed, brute in zip(("cell", "simple"), (cell_table, simple_table), brute_rows):
                out.append(_result(f"oracle-{kind}:{family.value}:{m}", tables[closed, family, m].rows, brute, loc))
    # golden printed tables (with documented errata applied)
    tl, mo = Family.TEMPERLEY_LIEB, Family.MOTZKIN
    for name, table, expected, location in (
        ("golden:tl7-cell", tables[cell_table, tl, 7], reference.TL7_CELL, "reference.TL7_CELL"),
        ("golden:tl7-simple", tables[simple_table, tl, 7], reference.TL7_SIMPLE, "reference.TL7_SIMPLE"),
        (
            "golden:tl7-projective",
            tables[projective_table, tl, 7],
            reference.TL7_PROJECTIVE,
            "reference.TL7_PROJECTIVE (erratum row 7 corrected)",
        ),
        ("golden:mo5-cell", tables[cell_table, mo, 5], reference.MO5_CELL, "reference.MO5_CELL"),
        ("golden:mo5-simple", tables[simple_table, mo, 5], reference.MO5_SIMPLE, "reference.MO5_SIMPLE"),
        (
            "golden:mo5-projective",
            tables[projective_table, mo, 5],
            reference.MO5_PROJECTIVE,
            "reference.MO5_PROJECTIVE (errata entries corrected)",
        ),
    ):
        out.append(_result(name, table.rows, expected, location))
    for m in range(1, 9):
        table = tables[cell_table, Family.PLANAR_ROOK, m]
        pascal = tuple(tuple(comb(j, i) for j in table.labels) for i in table.labels)
        out.append(_result(f"golden:pro-pascal:{m}", table.rows, pascal, "Pascal"))
        for kind, fn in (("simple", simple_table), ("projective", projective_table)):
            rows = tables[fn, Family.PLANAR_ROOK, m].rows
            out.append(_result(f"golden:pro-{kind}:{m}", rows, table.rows, "planar rook is semisimple"))
    # printed inverse-transposes: for square matrices a left inverse is the inverse
    for name, table, expected, location in (
        ("golden:tl7-linv", tables[simple_table, tl, 7], reference.TL7_LINV, "reference.TL7_LINV"),
        (
            "golden:mo5-simple-linv",
            tables[simple_table, mo, 5],
            reference.MO5_SIMPLE_LINV,
            "reference.MO5_SIMPLE_LINV",
        ),
        (
            "golden:mo5-printed-linv-is-cell-inverse",
            tables[cell_table, mo, 5],
            reference.MO5_CELL_LINV_PRINTED,
            "the printed matrix inverts the transposed cell table",
        ),
    ):
        out.append(_result(name, int_mul(list(zip(*table.rows)), expected), int_identity(len(expected)), location))
    # Riordan inverse identities up to m = 20 and the Motzkin closed form
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN):
        for m, prod in _riordan_products(family, 20, tables):
            out.append(_result(f"riordan:{family.value}:{m}", prod, int_identity(len(prod)), "cell_table * cell_inverse"))
    for m in range(1, 9):
        closed = _oracle_value(check_motzkin_simple_closed_form, m)
        out.append(_result(f"motzkin-closed-form:{m}", closed, None, "hump counts"))
    return out


def _riordan_products(family: Family, top: int, tables: _Tables | None = None):
    """(m, cell_table(family, m) times cell_inverse(family, m)) for m = 1..top,
    with one int_mul per label chain.

    The labels at m are a prefix of the labels at the top of their chain (top,
    and top - 1 for Temperley-Lieb's other parity).  Both tables are unit
    upper triangular (checked when built), so where the tables at m are the
    leading blocks of the tables at the top, their product is the leading
    block of the product there.  Tables that do not nest get their own
    product, so a failing check shows the true product at its m.
    """
    tables = _Tables() if tables is None else tables
    chains = {}
    for m in range(1, top + 1):
        cell, inv = tables[cell_table, family, m].rows, tables[cell_inverse, family, m].rows
        head = top - (top - m) % 2 if family is Family.TEMPERLEY_LIEB else top
        if head not in chains:
            rows = tables[cell_table, family, head].rows, tables[cell_inverse, family, head].rows
            chains[head] = (*rows, int_mul(*rows))
        top_cell, top_inv, top_prod = chains[head]
        k = len(cell)
        if tuple(row[:k] for row in top_cell[:k]) == cell and tuple(row[:k] for row in top_inv[:k]) == inv:
            yield m, [row[:k] for row in top_prod[:k]]
        else:
            yield m, int_mul(cell, inv)


GOLDEN_SPECS = (
    (Family.TEMPERLEY_LIEB, 7, "V3"),
    (Family.TEMPERLEY_LIEB, 7, "S3"),
    (Family.MOTZKIN, 5, "S1"),
    (Family.MOTZKIN, 5, "V2"),
    (Family.PLANAR_ROOK, 5, "V1"),
    (Family.PLANAR_ROOK, 4, "V2"),
)


def check_growth(max_m: int | None = None, tables: _Tables | None = None) -> list[CheckResult]:
    tables = _Tables() if tables is None else tables
    out = []
    # golden closed forms
    for name, spec, terms in (
        ("tl7-v3", module_spec(Family.TEMPERLEY_LIEB, 7, "V3"), reference.TL7_V3_LENGTH_TERMS),
        ("mo5-s1", module_spec(Family.MOTZKIN, 5, "S1"), reference.MO5_S1_LENGTH_TERMS),
    ):
        series = length_series(spec, tables[simple_table, spec.family, spec.m])
        found = tuple((int(c), b) for c, b in series.nonzero_base_terms())
        out.append(_result(f"formula:{name}", found, terms, "length_series"))
    # oracle agreement, n = 1..4, every target: one oracle decomposition per n
    for family, m, sel in GOLDEN_SPECS:
        if max_m is not None and m > max_m:
            continue
        spec = module_spec(family, m, sel)
        table = tables[simple_table, family, m]
        mults = {target: multiplicity_series(spec, table, target) for target in table.labels}
        length = length_series(spec, table)
        for n in range(1, 5):
            brute = _oracle_value(oracle.oracle_multiplicity, spec, n)
            refused = isinstance(brute, str)
            for k, target in enumerate(table.labels):
                out.append(
                    _result(
                        f"mult:{family.value}:{m}:{sel}:n{n}:V{target}",
                        evaluate(mults[target], n),
                        brute if refused else brute[k],
                        "growth vs oracle",
                    )
                )
            out.append(
                _result(
                    f"length:{family.value}:{m}:{sel}:n{n}",
                    evaluate(length, n),
                    brute if refused else sum(brute),
                    "growth vs oracle",
                )
            )
    # planar rook tensor rule at m = 4, 5 against the oracle, one decomposition per pair
    for m in (4, 5):
        if max_m is not None and m > max_m:
            continue
        specs = [module_spec(Family.PLANAR_ROOK, m, f"V{i}") for i in range(m + 1)]
        for i, spec_i in enumerate(specs):
            for j, spec_j in enumerate(specs):
                brute = _oracle_value(oracle.oracle_product_multiplicity, spec_i, spec_j)
                refused = isinstance(brute, str)
                for l in range(m + 1):  # the labels are 0..m
                    closed = comb(l, i) * comb(i, i + j - l) if 0 <= i + j - l <= i else 0
                    out.append(
                        _result(
                            f"tensor-rule:pro{m}:{i},{j}->{l}",
                            closed,
                            brute if refused else brute[l],
                            "binomial product rule vs oracle",
                        )
                    )
    return out


def check_fusion(max_m: int | None = None, tables: _Tables | None = None) -> list[CheckResult]:
    tables = _Tables() if tables is None else tables
    built = []  # (spec, table, graph) of each golden module, each graph built once
    for family, m, sel in ((Family.TEMPERLEY_LIEB, 7, "V3"), (Family.MOTZKIN, 5, "S1"), (Family.PLANAR_ROOK, 8, "V2")):
        spec = module_spec(family, m, sel)
        table = tables[simple_table, family, m]
        built.append((spec, table, fusion_matrix(spec, table)))
    graph = built[-1][2]  # PRO 8 V2
    out = [
        _result("fusion:pro8-matrix", graph.rows, reference.PRO8_V2_FUSION, "reference"),
        _result("fusion:pro8-n0", realized_n0(graph, {8}), reference.PRO8_V2_N0, "shortest path"),
        _result("fusion:pro8-absorbing", scc_analysis(graph).absorbing, (8,), "scc"),
    ]
    top = graph.label_index(8)
    out.append(_result("fusion:pro8-selfloop", graph.rows[top][top], 28, "absorbing self-loop = dim V"))
    for spec, table, graph in built:
        name = f"{spec.family.value}:{spec.m}:{spec.label}"
        passed = _oracle_value(lambda: spectral_check(graph, spec, table, max_n=6)["ok"])
        out.append(_result(f"spectral:{name}", passed, True, "projections"))
        series = length_series(spec, table)
        for n in range(7):
            column = power_multiplicities(graph, n)
            out.append(
                _result(
                    f"fusion-length:{name}:n{n}",
                    sum(column, Fraction(0)),
                    evaluate(series, n),
                    "column sums of A^n vs l(n)",
                )
            )
    return out


_SUITE_FNS = {
    "counts": check_counts,
    "tables": check_tables,
    "growth": check_growth,
    "fusion": check_fusion,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(suite: str = "all", max_m: int | None = None) -> list[CheckResult]:
    if suite != "all" and suite not in SUITES:  # a tuple: an unhashable suite is unknown, not a TypeError
        raise InputError(f"unknown suite {suite!r}")
    if max_m is not None:
        _check_int("max_m", max_m, 1)
    tables = _Tables()  # held for this run only
    return [result for name in (SUITES if suite == "all" else (suite,)) for result in _SUITE_FNS[name](max_m, tables)]


def canonical_idempotent_texts(max_m: int | None = None):
    """(family, m, rank, text) for every canonical idempotent the suite uses."""
    out = []
    for family, bound in _oracle_bounds(max_m).items():
        for m in range(1, bound + 1):
            for j in rank_labels(family, m):
                out.append((family, m, j, str(class_idempotent(family, m, j))))
    return out


def report_json(results: list[CheckResult]) -> str:
    """The report, as json.dumps(..., indent=2) writes it: the checks as dicts,
    then failures and total, through the CLI's one JSON writer (`tables._json_text`)."""
    checks = [
        {
            "name": r.check,
            "status": r.status,
            "detail": f"{r.lhs} vs {r.rhs} @ {r.location}",
            "lhs": r.lhs,
            "rhs": r.rhs,
            "location": r.location,
        }
        for r in results
    ]
    failures = sum(1 for r in results if not r.ok)
    return _json_text({"checks": checks, "failures": failures, "total": len(results)})
