from hypothesis import given, settings
from hypothesis import strategies as st

from glue_reference import components


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
