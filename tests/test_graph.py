from hypothesis import given, settings
from hypothesis import strategies as st

from glue_reference import components
from growthlab.graph import scc


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
        )
    )
)
def test_components_match_brute_connectivity(case):
    n, pairs = case
    # linked[v] = nodes joined to v by a chain of pairs, by repeated relaxation
    linked = [{v} for v in range(n)]
    for _ in range(n):
        for a, b in pairs:
            linked[a] |= linked[b]
            linked[b] |= linked[a]
    rep = components(n, pairs)
    for v in range(n):
        assert {w for w in range(n) if rep[w] == rep[v]} == linked[v]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n)
    )
)
def test_scc_matches_mutual_reachability(succ):
    # lists may repeat a head, point at their own node or be empty
    n = len(succ)
    reach = [{v} | set(succ[v]) for v in range(n)]  # transitive closure by relaxation
    for _ in range(n):
        for v in range(n):
            for w in list(reach[v]):
                reach[v] |= reach[w]
    comp_of = scc(succ)
    for v in range(n):
        assert {w for w in range(n) if comp_of[w] == comp_of[v]} == {
            w for w in reach[v] if v in reach[w]
        }
        for w in succ[v]:
            assert comp_of[w] <= comp_of[v]
    assert sorted(set(comp_of)) == list(range(len(set(comp_of))))


def test_scc_of_a_long_cycle_is_one_component():
    # 3,000 nodes in one chain closed into a cycle: a recursive search would
    # go 3,000 frames deep
    n = 3000
    assert scc([[v + 1] for v in range(n - 1)] + [[0]]) == [0] * n
    assert scc([[v + 1] for v in range(n - 1)] + [[]]) == list(range(n - 1, -1, -1))
