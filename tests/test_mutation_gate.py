"""Every family of verify checks can fail: probes that change one entry the
library computes and assert exactly which checks go red.

Each probe monkeypatches one production function, empties the oracle's
caches (before, so the mutation is seen, and after, so no mutated value
outlives the test) and runs the suite that holds the family.
"""

import pytest

from growthlab import oracle, verify
from growthlab.diagrams import Family, rank_labels


def _clear_oracle_caches():
    for value in vars(oracle).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


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


def test_one_fixed_point_count_turns_one_oracle_cell_check_red(monkeypatch, fresh_oracle):
    original = oracle.cell_character
    mutated = (Family.MOTZKIN, 4, 1, 3)
    monkeypatch.setattr(
        oracle, "cell_character", lambda *key: original(*key) + (1 if key == mutated else 0)
    )
    assert _red(verify.check_tables()) == {"oracle-cell:motzkin:4"}


def test_one_simple_rank_above_the_diagonal_turns_one_oracle_simple_check_red(monkeypatch, fresh_oracle):
    original = oracle._simple_row
    family, m, i, j = Family.TEMPERLEY_LIEB, 6, 2, 4
    col = rank_labels(family, m).index(j)
    assert col > rank_labels(family, m).index(i)  # the table stays unit upper triangular

    def mutated(*key):
        row = original(*key)
        return row[:col] + (row[col] + 1,) + row[col + 1 :] if key == (family, m, i) else row

    monkeypatch.setattr(oracle, "_simple_row", mutated)
    assert _red(verify.check_tables()) == {"oracle-simple:temperley_lieb:6"}


def test_one_expected_order_turns_the_count_checks_at_that_m_red(monkeypatch, fresh_oracle):
    original = oracle.expected_order
    monkeypatch.setattr(
        oracle, "expected_order", lambda family, m: original(family, m) + (1 if m == 3 else 0)
    )
    assert _red(verify.check_counts()) == {
        "count:planar_rook:3", "count:temperley_lieb:3", "count:motzkin:3"
    }
