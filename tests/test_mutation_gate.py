"""Every family of verify checks can fail: probes that change one entry the
library computes and assert exactly which checks go red.

Each probe monkeypatches one production function or fixture, empties the
oracle's caches and the columns the tables keep (before, so the mutation is
seen, and after, so no mutated value outlives the test) and runs the suites
that hold the family.  All 14
families have a probe; an oracle that refuses a value or breaks an invariant
fails the checks that read it by name, and the suite runs on.
`test_the_table_suite_builds_no_mat` pins that the table suite compares int
rows and that a verify run builds no `Mat`.
"""

from collections import Counter

import pytest

from growthlab import cli, fusion, growth, oracle, reference, tables, verify
from growthlab.diagrams import Family, rank_labels
from growthlab.errors import InternalCheckError
from growthlab.linalg import Mat


def _clear_oracle_caches():
    for value in vars(oracle).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    # and the columns the tables keep, so that none a patched routine made outlives its test
    for memo in tables._MEMOS:
        memo.clear()


@pytest.fixture
def fresh_oracle():
    _clear_oracle_caches()
    yield
    _clear_oracle_caches()


def _red(results) -> set[str]:
    return {r.check for r in results if not r.ok}


def test_unmutated_tables_are_all_green(fresh_oracle):
    results = verify.check_tables()
    assert len(results) > 100 and _red(results) == set()


def test_an_unmutated_run_of_every_suite_is_all_green(fresh_oracle):
    assert _red(verify.run_suite("all")) == set()


def _mutate_module_rows(monkeypatch, key, which, col):
    """Make `oracle._module_rows` add 1 to entry col of its cell (which = 0) or
    simple (which = 1) row at key = (family, m, i)."""
    original = oracle._module_rows

    def mutated(*args):
        rows = original(*args)
        if args != key:
            return rows
        row = rows[which]
        changed = row[:col] + (row[col] + 1,) + row[col + 1 :]
        return (changed, rows[1]) if which == 0 else (rows[0], changed)

    monkeypatch.setattr(oracle, "_module_rows", mutated)


def test_one_fixed_point_count_turns_one_oracle_cell_check_red(monkeypatch, fresh_oracle):
    family, m, i, j = Family.MOTZKIN, 4, 1, 3
    _mutate_module_rows(monkeypatch, (family, m, i), 0, rank_labels(family, m).index(j))
    assert _red(verify.check_tables()) == {"oracle-cell:motzkin:4"}


def test_one_simple_rank_above_the_diagonal_turns_one_oracle_simple_check_red(monkeypatch, fresh_oracle):
    family, m, i, j = Family.TEMPERLEY_LIEB, 6, 2, 4
    col = rank_labels(family, m).index(j)
    assert col > rank_labels(family, m).index(i)  # the table stays unit upper triangular
    _mutate_module_rows(monkeypatch, (family, m, i), 1, col)
    assert _red(verify.check_tables()) == {"oracle-simple:temperley_lieb:6"}


def test_one_expected_order_turns_the_count_checks_at_that_m_red(monkeypatch, fresh_oracle):
    original = oracle.expected_order
    monkeypatch.setattr(
        oracle, "expected_order", lambda family, m: original(family, m) + (1 if m == 3 else 0)
    )
    assert _red(verify.check_counts()) == {
        "count:planar_rook:3", "count:temperley_lieb:3", "count:motzkin:3"
    }


def test_one_dropped_half_diagram_turns_the_count_and_cell_checks_at_that_m_red(monkeypatch, fresh_oracle):
    # the count and the cell modules read the same half walk; the dropped
    # basis element leaves the simple row at MO 4 as it was
    original = oracle._half_arrays

    def one_short(family, m, i):
        arrays = original(family, m, i)
        if (family, m, i) == (Family.MOTZKIN, 4, 2):
            next(arrays)
        return arrays

    monkeypatch.setattr(oracle, "_half_arrays", one_short)
    assert _red(verify.run_suite("all")) == {"count:motzkin:4", "oracle-cell:motzkin:4"}


def test_one_inverse_cell_entry_turns_the_riordan_and_series_checks_red(monkeypatch, fresh_oracle):
    # the series read the kept columns of X^-1, which `tables` builds from `_inverse_column`
    original = tables._inverse_column

    def mutated(family, t):
        column = list(original(family, t))  # a copy: the kept column stays as it was
        if t == 3:
            column[1] += 1
        return tuple(column)

    monkeypatch.setattr(tables, "_inverse_column", mutated)
    red = _red(verify.run_suite("all"))
    assert Counter(name.partition(":")[0] for name in red) == {
        "riordan": 45, "fusion-length": 9, "mult": 8, "length": 8, "formula": 1
    }


def test_one_cell_entry_at_one_m_turns_its_own_riordan_check_red(monkeypatch, fresh_oracle):
    # the Riordan checks read their products off the one at the top of the
    # label chain only where the tables nest; a table changed at m = 7 alone
    # gets its own product, so the defect reaches riordan:planar_rook:7, and
    # the golden checks that read the same table
    original = verify.cell_table

    def mutated(family, m):
        table = original(family, m)
        if (family, m) != (Family.PLANAR_ROOK, 7):
            return table
        rows = [list(row) for row in table.rows]
        rows[1][3] += 1  # above the diagonal: still unit upper triangular
        return tables.CharTable(family, m, table.kind, table.labels, tuple(map(tuple, rows)))

    monkeypatch.setattr(verify, "cell_table", mutated)
    assert _red(verify.check_tables()) == {
        "riordan:planar_rook:7", "golden:pro-pascal:7", "golden:pro-simple:7", "golden:pro-projective:7"
    }


def test_one_printed_inverse_entry_turns_its_golden_check_red(monkeypatch, fresh_oracle):
    # the product X^T·expected = I is not vacuous: one entry off and it fails
    rows = [list(row) for row in reference.TL7_LINV]
    rows[2][1] += 1
    monkeypatch.setattr(reference, "TL7_LINV", tuple(map(tuple, rows)))
    assert _red(verify.check_tables()) == {"golden:tl7-linv"}


def test_an_oracle_refusal_fails_its_checks_by_name(monkeypatch, fresh_oracle):
    # the wrong simple row of S_1 makes the oracle refuse V1's character,
    # before any solve, in every tensor-rule pair that holds V1; each refused
    # value fails its own check and the suite still runs to the end
    family, m, i, j = Family.PLANAR_ROOK, 4, 1, 3
    _mutate_module_rows(monkeypatch, (family, m, i), 1, rank_labels(family, m).index(j))
    results = verify.run_suite("all")
    pairs = {f"{a},{b}" for a in range(m + 1) for b in range(m + 1) if 1 in (a, b)}
    refused = {f"tensor-rule:pro4:{pair}->{l}" for pair in pairs for l in range(m + 1)}
    assert len(pairs) == 9 and _red(results) == {"oracle-simple:planar_rook:4"} | refused
    assert {r.rhs for r in results if r.check in refused} == {repr("raised: character of V1 disagrees with the oracle's")}


def test_a_negative_multiplicity_fails_the_checks_of_its_decomposition(monkeypatch, fresh_oracle):
    # the wrong simple row of S_2 refuses V2's character in its 24 golden
    # checks and its 9 tensor-rule pairs; the pair (1, 1) passes both checks,
    # and its solve meets -2 at V3, so all 5 checks of that decomposition fail
    family, m, i, j = Family.PLANAR_ROOK, 4, 2, 3
    _mutate_module_rows(monkeypatch, (family, m, i), 1, rank_labels(family, m).index(j))
    results = verify.run_suite("all")
    refusals = Counter(r.rhs for r in results if not r.ok and r.check != "oracle-simple:planar_rook:4")
    assert refusals == {
        repr("raised: character of V2 disagrees with the oracle's"): 24 + 9 * 5,
        repr("raised: multiplicity -2 is negative; inconsistent inputs"): 5,
    }
    negative = {r.check for r in results if "negative" in r.rhs}
    assert negative == {f"tensor-rule:pro4:1,1->{l}" for l in range(m + 1)}
    assert "oracle-simple:planar_rook:4" in _red(results)


def test_a_simple_row_below_the_diagonal_fails_both_oracle_tables_at_that_m(monkeypatch, fresh_oracle):
    # the brute-force simple table is refused as not unit upper triangular;
    # both tables of that monoid fail by name and the suite runs on
    family, m, i = Family.TEMPERLEY_LIEB, 6, 2
    assert rank_labels(family, m).index(i) > 0
    _mutate_module_rows(monkeypatch, (family, m, i), 1, 0)
    results = verify.run_suite("all")
    assert _red(results) == {"oracle-cell:temperley_lieb:6", "oracle-simple:temperley_lieb:6"}
    refusal = repr("raised: simple table of temperley_lieb_6 not unit upper triangular")
    assert {r.rhs for r in results if not r.ok} == {refusal}


def test_a_broken_oracle_invariant_fails_its_checks_by_name(monkeypatch, fresh_oracle, capsys):
    # an InternalCheckError inside the oracle fails every check that reads it
    # (both tables at MO 5 and the MO 5 multiplicities), with no traceback
    original = oracle._module_rows

    def broken(*args):
        if args == (Family.MOTZKIN, 5, 2):
            raise InternalCheckError("S_2: probe")
        return original(*args)

    monkeypatch.setattr(oracle, "_module_rows", broken)
    red = _red(verify.run_suite("all"))
    assert Counter(name.partition(":")[0] for name in red) == {
        "mult": 48, "length": 8, "oracle-cell": 1, "oracle-simple": 1
    }
    assert all(":motzkin:5" in name for name in red)
    assert cli.main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "FAIL oracle-cell:motzkin:5: " in out and "'raised: S_2: probe'" in out


def test_one_character_entry_turns_the_queries_of_that_module_red(monkeypatch, fresh_oracle):
    # the multiplicity and length queries of MO 5 V2 check its character
    # against the oracle's simple row, at every n; the tensor-rule checks
    # read other modules
    original = verify.module_spec

    def mutated(family, m, label):
        spec = original(family, m, label)
        if (family, m, label) != (Family.MOTZKIN, 5, "V2"):
            return spec
        chi = spec.charvec[:3] + (spec.charvec[3] + 1,) + spec.charvec[4:]
        return growth.ModuleSpec(spec.label, family, m, spec.dim, chi)

    monkeypatch.setattr(verify, "module_spec", mutated)
    results = verify.run_suite("all")
    assert _red(results) == {
        f"mult:motzkin:5:V2:n{n}:V{t}" for n in (1, 2, 3, 4) for t in range(6)
    } | {f"length:motzkin:5:V2:n{n}" for n in (1, 2, 3, 4)}
    refusal = repr("raised: character of V2 disagrees with the oracle's")
    assert {r.rhs for r in results if not r.ok} == {refusal}


def test_one_hump_count_turns_the_closed_form_checks_from_that_j_red(monkeypatch, fresh_oracle):
    # column j = 4 of row i = 2 is in every Motzkin table with m >= 4
    original = tables.mo_simple_entry_closed
    monkeypatch.setattr(
        tables, "mo_simple_entry_closed", lambda j, i: original(j, i) + ((j, i) == (4, 2))
    )
    assert _red(verify.check_tables()) == {f"motzkin-closed-form:{m}" for m in range(4, 9)}


def test_one_oracle_product_multiplicity_turns_its_tensor_rule_check_red(monkeypatch, fresh_oracle):
    original = oracle.oracle_product_multiplicity

    def mutated(spec_a, spec_b):
        values = original(spec_a, spec_b)
        if (spec_a.m, spec_a.label, spec_b.label) != (4, "V1", "V2"):
            return values
        return values[:3] + (values[3] + 1,) + values[4:]

    monkeypatch.setattr(oracle, "oracle_product_multiplicity", mutated)
    assert _red(verify.check_growth()) == {"tensor-rule:pro4:1,2->3"}


def test_one_golden_fusion_entry_turns_the_fusion_matrix_check_red(monkeypatch, fresh_oracle):
    rows = [list(row) for row in reference.PRO8_V2_FUSION]
    rows[3][2] += 1
    monkeypatch.setattr(reference, "PRO8_V2_FUSION", tuple(map(tuple, rows)))
    assert _red(verify.check_fusion()) == {"fusion:pro8-matrix"}


def test_one_entry_of_every_spectral_product_turns_the_spectral_checks_red(monkeypatch, fresh_oracle):
    original = fusion.int_mul

    def mutated(x, y):
        rows = original(x, y)
        rows[0][0] += 1
        return rows

    monkeypatch.setattr(fusion, "int_mul", mutated)
    assert _red(verify.check_fusion()) == {
        "spectral:temperley_lieb:7:V3", "spectral:motzkin:5:S1", "spectral:planar_rook:8:V2"
    }


def test_the_table_suite_builds_no_mat(monkeypatch, fresh_oracle):
    # the tables are compared as int rows, and the printed inverses by int
    # products; the queries check their characters against the oracle's int
    # rows, so a whole verify run, on caches as cold as the table suite's,
    # builds none
    built = []
    original = Mat.__init__
    monkeypatch.setattr(Mat, "__init__", lambda self, rows: built.append(1) or original(self, rows))
    verify.check_tables()
    assert len(built) == 0
    _clear_oracle_caches()
    verify.run_suite("all")
    assert len(built) == 0
