import random
import time
from functools import cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glue_reference
from glue_reference import _compose_blocks
from growthlab import diagrams
from growthlab.diagrams import (
    Diagram,
    Family,
    class_idempotent,
    compose,
    enumerate_diagrams,
    expected_order,
    flip,
    format_blocks,
    generators,
    green_data,
    identity_diagram,
    make_diagram,
    max_enumerable_m,
    rank,
    rank_labels,
)
from growthlab.errors import InputError, InternalCheckError
from growthlab.graph import scc
from growthlab.oracle import half_diagrams
from growthlab.tables import cell_table

SMALL = [(Family.PLANAR_ROOK, 4), (Family.TEMPERLEY_LIEB, 5), (Family.MOTZKIN, 3)]


def multiplication_table(elements):
    """table[a][b] = index of elements[a] composed on top of elements[b]."""
    index = {d: i for i, d in enumerate(elements)}
    return [[index[compose(a, b).result] for b in elements] for a in elements]


def _as_diagrams(family, m, arrays):
    """Partner arrays as diagrams, by the public constructor."""
    return [Diagram(family, m, diagrams._blocks(pa)) for pa in arrays]


def quadratic_green_data(family, m):
    """Green's class counts read off the full multiplication table.

    L-classes group the elements with the same left ideal Mx (a column of the
    table), R-classes those with the same right ideal xM (a row) and J-classes
    those with the same two-sided ideal MxM; the units are the elements with
    a two-sided inverse.
    """
    elements = enumerate_diagrams(family, m)
    n = len(elements)
    table = multiplication_table(elements)
    one = elements.index(identity_diagram(family, m))
    left = [frozenset(table[y][x] for y in range(n)) for x in range(n)]
    right = [frozenset(table[x]) for x in range(n)]
    two_sided = [frozenset(table[z][y] for z in left[x] for y in range(n)) for x in range(n)]
    units = sum(
        1 for x in range(n) if any(table[x][y] == one == table[y][x] for y in range(n))
    )
    return diagrams.GreenData(len(set(two_sided)), len(set(left)), len(set(right)), units)


def test_families_are_nine_members_hashed_in_c():
    # `__hash__` in the enum body is no member, and every memo keyed by a family hashes it by identity
    assert [(f.name, f.value) for f in Family] == [
        ("PLANAR_ROOK", "planar_rook"), ("TEMPERLEY_LIEB", "temperley_lieb"), ("MOTZKIN", "motzkin"),
        ("ROOK", "rook"), ("BRAUER", "brauer"), ("ROOK_BRAUER", "rook_brauer"), ("PARTITION", "partition"),
        ("FULL_TRANSFORMATION", "full_transformation"), ("PARTIAL_TRANSFORMATION", "partial_transformation"),
    ]
    assert Family.__hash__ is object.__hash__
    assert all(hash(f) == object.__hash__(f) and Family(f.value) is f for f in Family)


@pytest.mark.parametrize(
    "family,ms",
    [
        (Family.PLANAR_ROOK, range(1, 6)),
        (Family.TEMPERLEY_LIEB, range(1, 7)),
        (Family.MOTZKIN, range(1, 5)),
    ],
)
def test_enumeration_counts(family, ms):
    for m in ms:
        elements = enumerate_diagrams(family, m)
        assert len(elements) == expected_order(family, m)
        assert len(set(elements)) == len(elements)


@pytest.mark.parametrize("family", [Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN])
@pytest.mark.parametrize("m", [0, -1])
def test_expected_order_refuses_an_empty_strand_count(family, m):
    # at m = -1 planar rook once raised a bare ValueError from math.comb, and TL and MO answered 1
    with pytest.raises(InputError, match="^need m >= 1$"):
        expected_order(family, m)
    with pytest.raises(InputError, match="^no enumeration for brauer$"):
        expected_order(Family.BRAUER, m)


CAPS = [(Family.TEMPERLEY_LIEB, 7), (Family.PLANAR_ROOK, 6), (Family.MOTZKIN, 5)]


@pytest.mark.parametrize("family,cap", CAPS)
def test_enumeration_matches_the_matching_reference(family, cap):
    for m in range(1, cap + 1):
        found = enumerate_diagrams(family, m)
        expected = glue_reference.enumerate_diagrams(family, m)
        assert found == expected
        assert [vars(d) for d in found] == [vars(d) for d in expected]


@pytest.mark.parametrize(
    "family,m", [(Family.TEMPERLEY_LIEB, 0), (Family.TEMPERLEY_LIEB, 8), (Family.BRAUER, 2)]
)
def test_enumeration_bounds_keep_their_messages(family, m):
    def message(enumerate_fn):
        with pytest.raises(InputError) as info:
            enumerate_fn(family, m)
        return str(info.value)

    expected = message(glue_reference.enumerate_diagrams)
    assert message(enumerate_diagrams) == expected
    assert message(lambda f, mm: list(diagrams._partner_arrays(f, mm))) == expected
    assert message(diagrams._cayley_graphs) == expected


@pytest.mark.parametrize("family,m", CAPS)
def test_from_partners_equals_the_public_constructor(family, m):
    for d in glue_reference.enumerate_diagrams(family, m):
        built = diagrams._from_partners(family, m, d.partners)
        public = Diagram(family, m, d.blocks)
        assert built == public and hash(built) == hash(public)
        assert vars(built) == vars(public)


@pytest.mark.parametrize("family,m", SMALL)
def test_enumerated_diagrams_are_valid(family, m):
    for d in enumerate_diagrams(family, m):
        assert Diagram(family, m, d.blocks) == d  # the constructor's check


def test_enumeration_bounds():
    with pytest.raises(InputError):
        enumerate_diagrams(Family.TEMPERLEY_LIEB, 8)
    with pytest.raises(InputError):
        enumerate_diagrams(Family.BRAUER, 2)


def test_enumeration_bound_override(monkeypatch):
    monkeypatch.setenv("GROWTHLAB_MAX_M", "2")
    with pytest.raises(InputError):
        enumerate_diagrams(Family.MOTZKIN, 3)
    assert len(enumerate_diagrams(Family.MOTZKIN, 2)) == 9


@pytest.mark.parametrize("value", ["0", "-3"])
def test_enumeration_bound_override_must_be_positive(monkeypatch, value):
    monkeypatch.setenv("GROWTHLAB_MAX_M", value)
    with pytest.raises(InputError):
        max_enumerable_m(Family.MOTZKIN)


def test_validation_rejects_bad_blocks():
    with pytest.raises(InputError):  # crossing chords (a transposition)
        make_diagram(Family.TEMPERLEY_LIEB, 2, [(1, 4), (2, 3)])
    with pytest.raises(InputError):  # TL has no singletons
        make_diagram(Family.TEMPERLEY_LIEB, 1, [(1,), (2,)])
    with pytest.raises(InputError):  # planar rook blocks must propagate
        make_diagram(Family.PLANAR_ROOK, 2, [(1, 2), (3,), (4,)])
    with pytest.raises(InputError):  # not a partition
        make_diagram(Family.MOTZKIN, 2, [(1, 2), (2, 3), (4,)])


def test_planarity_predicate():
    Diagram(Family.TEMPERLEY_LIEB, 2, [(1, 3), (2, 4)])  # identity strands
    Diagram(Family.TEMPERLEY_LIEB, 2, [(1, 2), (3, 4)])  # cup over cap
    with pytest.raises(InputError, match="^blocks cross$"):  # transposition
        Diagram(Family.TEMPERLEY_LIEB, 2, [(1, 4), (2, 3)])
    # a singleton between the ends of two chords: 1 -> 2' and 3 -> 1' cross, 1 -> 1' and 3 -> 3' do not
    with pytest.raises(InputError, match="^blocks cross$"):
        Diagram(Family.MOTZKIN, 3, [(1, 5), (2,), (3, 4), (6,)])
    Diagram(Family.MOTZKIN, 3, [(1, 4), (2,), (3, 6), (5,)])


def test_compose_identity():
    for family, m in SMALL:
        ident = identity_diagram(family, m)
        for d in enumerate_diagrams(family, m)[:10]:
            res = compose(ident, d)
            assert res == type(res)(d, 0, 0)
            assert compose(d, ident).result == d


def test_compose_tl2_loop():
    e = make_diagram(Family.TEMPERLEY_LIEB, 2, [(1, 2), (3, 4)])
    res = compose(e, e)
    assert res.result == e
    assert res.loops == 1
    assert res.middle_isolated == 0


def test_compose_planar_rook_disjoint_domains():
    d = make_diagram(Family.PLANAR_ROOK, 2, [(1, 3), (2,), (4,)])
    e = make_diagram(Family.PLANAR_ROOK, 2, [(2, 4), (1,), (3,)])
    res = compose(d, e)
    assert res.result == make_diagram(Family.PLANAR_ROOK, 2, [(1,), (2,), (3,), (4,)])
    assert (res.loops, res.middle_isolated) == (0, 0)


def test_compose_counts_dead_middle_points():
    e0 = class_idempotent(Family.MOTZKIN, 2, 0)  # everything isolated
    res = compose(e0, e0)
    assert res.result == e0
    assert res.loops == 0
    assert res.middle_isolated == 2


def test_compose_mismatch_errors():
    with pytest.raises(InputError):
        compose(identity_diagram(Family.MOTZKIN, 2), identity_diagram(Family.MOTZKIN, 3))
    with pytest.raises(InputError):
        compose(
            identity_diagram(Family.MOTZKIN, 2),
            identity_diagram(Family.PLANAR_ROOK, 2),
        )


def test_compose_and_flip_refuse_what_they_cannot_model():
    # a partition diagram with a block of three points once came back from
    # compose and flip as four singletons; now it is refused where it is made
    with pytest.raises(InputError, match="^partition diagrams are not supported$"):
        Diagram(Family.PARTITION, 2, ((1, 2, 3), (4,)))
    with pytest.raises(InputError, match=r"^block \(1, 2, 3\) has size 3$"):
        Diagram(Family.MOTZKIN, 2, ((1, 2, 3), (4,)))


@pytest.mark.parametrize(
    "blocks,message",
    [
        (((1, 3), (1, 4)), "blocks do not partition the 2m points"),  # 1 twice, 2 missing
        (((0, 3),), "blocks do not partition the 2m points"),
        (((1, 4), (2, 3)), "blocks cross"),
        (((1, 5),), "blocks do not partition the 2m points"),  # once an IndexError
        (((1.0,), (2,), (3, 4)), "blocks do not partition the 2m points"),  # not an int
    ],
)
def test_the_constructor_refuses_a_diagram_outside_its_family(blocks, message):
    # each of these once reached compose and flip, which answered wrongly or
    # with a bare IndexError
    with pytest.raises(InputError) as info:
        Diagram(Family.MOTZKIN, 2, blocks)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "family,m,blocks,message",
    [
        (Family.MOTZKIN, 1, (("1",), (2,)), "blocks do not partition the 2m points"),  # once a TypeError
        (Family.MOTZKIN, 1.5, ((1,), (2,), (3,)), "m must be an int, not 1.5"),
        (Family.MOTZKIN, 1, (1, 2), "block 1 is not a tuple of points"),
        ("motzkin", 1, ((1,), (2,)), "'motzkin' is not a diagram family"),  # once an AttributeError
        (Family.MOTZKIN, True, ((1,), (2,)), "m must be an int, not True"),  # once accepted
        (Family.MOTZKIN, 1, ((True,), (2,)), "blocks do not partition the 2m points"),
        (Family.MOTZKIN, 1, 5, "blocks must be an iterable of blocks, not 5"),  # once a TypeError
        (Family.MOTZKIN, 1, None, "blocks must be an iterable of blocks, not None"),  # once a TypeError
    ],
)
def test_the_constructor_refuses_inputs_of_the_wrong_type(family, m, blocks, message):
    # the types are checked before anything is sorted, so none of these
    # escapes as a bare TypeError or AttributeError
    with pytest.raises(InputError) as info:
        Diagram(family, m, blocks)
    assert str(info.value) == message


def test_the_constructor_takes_blocks_from_any_iterable():
    blocks = ((1, 3), (2,), (4,))
    made = Diagram(Family.MOTZKIN, 2, blocks)
    inputs = (
        list(blocks), [list(b) for b in blocks], iter(blocks), (b for b in reversed(blocks)), dict.fromkeys(blocks)
    )
    for given in inputs:
        assert Diagram(Family.MOTZKIN, 2, given) == made


def test_the_named_diagrams_are_checked_too():
    with pytest.raises(InputError, match="^need at least one strand$"):
        identity_diagram(Family.MOTZKIN, 0)
    with pytest.raises(InputError, match="^brauer diagrams are not supported$"):
        class_idempotent(Family.BRAUER, 3, 1)
    for family, m in SMALL:
        for d in enumerate_diagrams(family, m)[:20]:
            made = make_diagram(family, m, reversed(d.blocks))
            assert made == Diagram(family, m, d.blocks) == d and vars(made) == vars(d)


def _involutions(points):
    """Every set of blocks of size at most two covering points, each once."""
    if not points:
        yield ()
        return
    p, rest = points[0], points[1:]
    for tail in _involutions(rest):
        yield ((p,),) + tail
    for k, q in enumerate(rest):
        for tail in _involutions(rest[:k] + rest[k + 1:]):
            yield ((p, q),) + tail


def _variants(m, blocks):
    """blocks, then copies with a point out of range, a point twice (in place
    of another or on top of all 2m), points missing, a block of three points
    (also after a repeated point) and an empty block."""
    yield blocks
    first, *rest = blocks
    yield ((0,) + first[1:], *rest)
    yield ((2 * m + 1,) + first[1:], *rest)
    yield blocks[:-1] + (blocks[-1][:-1] + (1,),)
    yield blocks + ((1,),)
    yield blocks + (first,)
    yield blocks[:-1]
    points = [p for b in blocks for p in b]
    if len(points) >= 3:
        yield tuple((p,) for p in points[:-3]) + (tuple(points[-3:]),)
        yield ((points[1],),) + tuple((p,) for p in points[1:-3]) + (tuple(points[-3:]),)
    yield blocks + ((),)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_constructor_accepts_what_the_referee_accepts(m):
    # the check and the partner array in one walk, against the separate walks
    # of validate_diagram, blocks_are_planar and _partners as they were (glue_reference)
    def outcome(make):
        try:
            return make()
        except InputError as exc:
            return str(exc)

    sets = list(_involutions(tuple(range(1, 2 * m + 1))))
    assert len(sets) == (2, 10, 76, 764)[m - 1]
    accepted = dict.fromkeys(Family, 0)
    for blocks in (v for s in sets for v in _variants(m, s)):
        canonical = diagrams._canonical_blocks(blocks)
        for family in Family:
            expected = outcome(lambda: glue_reference.validate_diagram(family, m, canonical))
            found = outcome(lambda: Diagram(family, m, blocks))
            if expected is None:
                assert found.blocks == canonical
                assert found.partners == glue_reference._partners(canonical, m)
                accepted[family] += 1
            else:
                assert found == expected
    assert accepted == {f: expected_order(f, m) if f in diagrams.PLANAR_FAMILIES else 0 for f in Family}


@pytest.mark.parametrize("family,cap", CAPS)
def test_every_element_up_to_the_cap_composes_with_the_identity(family, cap):
    # every element flips as the blocks referee does (test_flip_matches_the_blocks_referee)
    for m in range(1, cap + 1):
        ident = identity_diagram(family, m)
        for d in enumerate_diagrams(family, m):
            assert compose(d, ident).result == d == compose(ident, d).result


@pytest.mark.parametrize("family,cap", CAPS)
def test_the_pairing_loop_counts_the_squares_of_the_half_walk(monkeypatch, family, cap):
    # the oracle counts the monoid as the sum of |H_i|², H_i the half diagrams
    # with i defects; this pins the pairing of `_partner_arrays` to the same
    # sum, one step past the cap
    monkeypatch.setenv("GROWTHLAB_MAX_M", str(cap + 1))
    for m in range(1, cap + 2):
        squares = sum(
            sum(1 for _ in diagrams._half_arrays(family, m, i)) ** 2 for i in rank_labels(family, m)
        )
        assert sum(1 for _ in diagrams._partner_arrays(family, m)) == squares == expected_order(family, m)


def test_the_planar_rook_half_walk_opens_only_arcs_that_end_as_defects():
    # a planar-rook arc never closes, so an arc opened with i already open is a
    # dead end; the walk must not explore them, timed first so a walk that
    # does fails here within seconds
    start = time.perf_counter()
    assert sum(1 for _ in diagrams._half_arrays(Family.PLANAR_ROOK, 30, 2)) == comb(30, 2)
    assert time.perf_counter() - start < 0.1
    m = 40
    for i in range(4):
        rows = list(diagrams._half_arrays(Family.PLANAR_ROOK, m, i))
        assert len(rows) == comb(m, i)
        defects = {tuple(k for k, q in enumerate(row) if q == m) for row in rows}
        assert defects == set(combinations(range(m), i))
        assert all(q in (-1, m) for row in rows for q in row)


@pytest.mark.parametrize("family,m", SMALL)
def test_associativity_with_loop_bookkeeping(family, m):
    rng = random.Random(hash((family.value, m)) & 0xFFFF)
    elements = enumerate_diagrams(family, m)
    for _ in range(1000):
        a, b, c = (rng.choice(elements) for _ in range(3))
        ab = compose(a, b)
        bc = compose(b, c)
        left = compose(ab.result, c)
        right = compose(a, bc.result)
        assert left.result == right.result
        # loop counts are the delta-exponents, so they must add up the same
        # way on both sides; dead middle points carry no coefficient and a
        # dead strand can span two gluing layers, so their counts need not.
        assert ab.loops + left.loops == bc.loops + right.loops


# the enumeration caps: TL 7 (429 elements), PRO 6 (924) and MO 5 (2,188)
AT_CAPS = [(Family.TEMPERLEY_LIEB, 7), (Family.PLANAR_ROOK, 6), (Family.MOTZKIN, 5)]


@cache
def _elements(family, m):
    return enumerate_diagrams(family, m)


def _draw(data, count):
    family, m = data.draw(st.sampled_from([(f, k) for f, top in AT_CAPS for k in range(1, top + 1)]))
    elements = _elements(family, m)
    return [data.draw(st.sampled_from(elements)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_walk_matches_the_union_find_composition(data):
    a, b = _draw(data, 2)
    blocks, loops, dead = _compose_blocks(a.blocks, b.blocks, a.m)
    product = diagrams._glue(a.partners, b.partners)
    assert diagrams._blocks(product) == blocks
    ab = compose(a, b)
    assert (ab.result.blocks, ab.loops, ab.middle_isolated) == (blocks, loops, dead)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compose_is_associative(data):
    a, b, c = _draw(data, 3)
    ab, bc = compose(a, b), compose(b, c)
    left, right = compose(ab.result, c), compose(a, bc.result)
    assert left.result == right.result
    assert ab.loops + left.loops == bc.loops + right.loops


def test_rank_basics():
    for family, m in SMALL:
        assert rank(identity_diagram(family, m)) == m
    assert rank(make_diagram(Family.TEMPERLEY_LIEB, 2, [(1, 2), (3, 4)])) == 0


@pytest.mark.parametrize("family,m", SMALL)
def test_rank_submultiplicative(family, m):
    rng = random.Random(5)
    elements = enumerate_diagrams(family, m)
    for _ in range(300):
        a, b = rng.choice(elements), rng.choice(elements)
        assert rank(compose(a, b).result) <= min(rank(a), rank(b))


def test_flip_involution_and_identity():
    for family, m in SMALL:
        ident = identity_diagram(family, m)
        assert flip(ident) == ident
        for d in enumerate_diagrams(family, m)[:20]:
            assert flip(flip(d)) == d


@pytest.mark.parametrize("family,cap", CAPS)
def test_flip_matches_the_blocks_referee(family, cap):
    for m in range(1, cap + 1):
        for d in enumerate_diagrams(family, m):
            found, expected = flip(d), glue_reference.flip(d)
            assert found == expected and vars(found) == vars(expected)


@pytest.mark.parametrize("family,cap", CAPS)
def test_generators_are_closed_under_flip(family, cap):
    # the flip, the cellular anti-involution, permutes the generating set;
    # green_data's closure reads no flip, so this is a property of generators alone
    for m in range(1, cap + 2):
        gens = generators(family, m)
        assert sorted(glue_reference.flip(g).blocks for g in gens) == sorted(g.blocks for g in gens)


def test_green_data_takes_generators_not_closed_under_flip(monkeypatch):
    # the closure reads left edges off right edges, not through the flip, so a
    # generating set with one extra product whose flip it lacks gives the same data
    family, m = Family.PLANAR_ROOK, 3
    gens = generators(family, m)
    extra = compose(gens[0], gens[1]).result
    assert extra not in gens and glue_reference.flip(extra) not in gens + (extra,)
    expected = green_data(family, m)
    monkeypatch.setattr(diagrams, "generators", lambda f, m: gens + (extra,))
    assert green_data(family, m) == expected


@pytest.mark.parametrize(
    "family,m", [(Family.TEMPERLEY_LIEB, 3), (Family.PLANAR_ROOK, 3), (Family.MOTZKIN, 3)]
)
def test_flip_antihomomorphism_exhaustive(family, m):
    elements = enumerate_diagrams(family, m)
    for a in elements:
        for b in elements:
            assert flip(compose(a, b).result) == compose(flip(b), flip(a)).result


def test_class_idempotent_properties():
    for family, m in [(Family.PLANAR_ROOK, 4), (Family.TEMPERLEY_LIEB, 6), (Family.MOTZKIN, 4)]:
        for j in rank_labels(family, m):
            e = class_idempotent(family, m, j)
            assert rank(e) == j
            res = compose(e, e)
            assert res.result == e
            expected_loops = (m - j) // 2 if family is Family.TEMPERLEY_LIEB else 0
            assert res.loops == expected_loops
        assert class_idempotent(family, m, m) == identity_diagram(family, m)
    with pytest.raises(InputError):
        class_idempotent(Family.TEMPERLEY_LIEB, 6, 3)  # wrong parity
    with pytest.raises(InputError):
        class_idempotent(Family.MOTZKIN, 4, 5)


def test_class_idempotent_is_memoized_and_refuses_every_bad_rank():
    tl = Family.TEMPERLEY_LIEB
    e = class_idempotent(tl, 6, 2)
    assert class_idempotent(tl, 6, 2) is e
    assert flip(e) == e  # self-adjoint: the oracle checks its invariance under e with no flip
    for _ in range(3):  # an error is never cached
        with pytest.raises(InputError, match="rank 3 is not attained"):
            class_idempotent(tl, 6, 3)


def test_canonical_idempotents_hit_every_rank_once():
    for family, m in SMALL:
        ranks = [rank(class_idempotent(family, m, j)) for j in rank_labels(family, m)]
        assert ranks == list(rank_labels(family, m))


@pytest.mark.parametrize(
    "family,m,expected_l",
    [
        (Family.PLANAR_ROOK, 3, 8),  # bottom configurations: 2^m
        (Family.TEMPERLEY_LIEB, 5, 10),
        (Family.MOTZKIN, 2, 5),
    ],
)
def test_green_data_small(family, m, expected_l):
    gd = green_data(family, m)
    assert gd.l_class_count == expected_l
    assert gd.r_class_count == gd.l_class_count
    assert gd.j_class_count == len(rank_labels(family, m))
    assert gd.unit_count == 1
    # L-classes are in bijection with half diagrams (all defect counts)
    table = cell_table(family, m)
    assert gd.l_class_count == sum(table.dim(i) for i in table.labels)


def test_j_classes_are_rank_classes():
    for family, m in [(Family.TEMPERLEY_LIEB, 4), (Family.MOTZKIN, 2), (Family.PLANAR_ROOK, 3)]:
        elements = enumerate_diagrams(family, m)
        n = len(elements)
        table = multiplication_table(elements)
        # two-sided ideal fingerprints: MxM = union of zM over z in Mx
        ideals = []
        for x in range(n):
            left = {table[y][x] for y in range(n)}
            ideals.append(frozenset(table[z][y] for z in left for y in range(n)))
        by_ideal = {}
        for x, ideal in enumerate(ideals):
            by_ideal.setdefault(ideal, set()).add(x)
        by_rank = {}
        for x, d in enumerate(elements):
            by_rank.setdefault(rank(d), set()).add(x)
        assert set(map(frozenset, by_ideal.values())) == set(map(frozenset, by_rank.values()))


@pytest.mark.parametrize(
    "family,m",
    [(Family.TEMPERLEY_LIEB, m) for m in range(1, 6)]
    + [(Family.PLANAR_ROOK, m) for m in range(1, 5)]
    + [(Family.MOTZKIN, m) for m in range(1, 4)],
)
def test_green_data_matches_multiplication_table(family, m):
    assert green_data(family, m) == quadratic_green_data(family, m)


@pytest.mark.parametrize("family", [Family.TEMPERLEY_LIEB, Family.PLANAR_ROOK, Family.MOTZKIN])
def test_green_data_rejects_a_non_generating_set(monkeypatch, family):
    # the last generator (e_{m-1}, or r_{m-1}) is the only one that brings a
    # strand from elsewhere down to the last bottom point
    green_data(family, 4)  # the full set generates
    monkeypatch.setattr(diagrams, "generators", lambda f, m: generators(f, m)[:-1])
    with pytest.raises(InternalCheckError):
        green_data(family, 4)


@pytest.mark.parametrize(
    "family,m",
    [(Family.TEMPERLEY_LIEB, m) for m in range(1, 7)]
    + [(Family.PLANAR_ROOK, m) for m in range(1, 6)]
    + [(Family.MOTZKIN, m) for m in range(1, 5)]
    + [(Family.TEMPERLEY_LIEB, 7), (Family.PLANAR_ROOK, 6), (Family.MOTZKIN, 5)],
)
def test_cayley_graphs_match_compose_edge_for_edge(family, m):
    arrays, right, left = diagrams._cayley_graphs(family, m)
    elements = _as_diagrams(family, m, arrays)
    assert elements[0] == identity_diagram(family, m)
    assert sorted(elements, key=lambda d: d.blocks) == list(enumerate_diagrams(family, m))
    index = {d: i for i, d in enumerate(elements)}
    gens = generators(family, m)
    for x, d in enumerate(elements):
        assert right[x] == [index[compose(d, a).result] for a in gens]
        assert left[x] == [index[compose(a, d).result] for a in gens]


@pytest.mark.parametrize("family", [Family.TEMPERLEY_LIEB, Family.PLANAR_ROOK, Family.MOTZKIN])
def test_green_data_rejects_a_product_outside_the_enumeration(monkeypatch, family):
    one = identity_diagram(family, 4)
    dropped = [d for d in enumerate_diagrams(family, 4) if d != one][-1]
    dropped_array = dropped.partners
    original = diagrams._partner_arrays
    monkeypatch.setattr(
        diagrams,
        "_partner_arrays",
        lambda f, m: (pa for pa in original(f, m) if pa != dropped_array),
    )
    with pytest.raises(InternalCheckError, match="left the enumerated"):
        green_data(family, 4)


@pytest.mark.parametrize(
    "family,m", [(Family.TEMPERLEY_LIEB, 7), (Family.PLANAR_ROOK, 6), (Family.MOTZKIN, 5)]
)
def test_green_classes_are_rank_classes_of_half_diagram_squares(family, m):
    # H is trivial in a planar monoid, so the rank-r J-class is an R x L grid
    # whose sides both count the rank-r half diagrams (from the oracle, not
    # from the Cayley graphs)
    arrays, right, left = diagrams._cayley_graphs(family, m)
    elements = _as_diagrams(family, m, arrays)
    r_of, l_of = scc(right), scc(left)
    j_of = scc([r + l for r, l in zip(right, left)])
    ranks = [rank(d) for d in elements]
    assert {x for x in range(len(elements)) if r_of[x] == r_of[0]} == {
        x for x, r in enumerate(ranks) if r == m
    }
    by_j = {}
    for x, j in enumerate(j_of):
        by_j.setdefault(j, []).append(x)
    class_ranks = [sorted({ranks[x] for x in members}) for members in by_j.values()]
    assert sorted(class_ranks) == [[r] for r in rank_labels(family, m)]
    for members in by_j.values():
        halves = len(half_diagrams(family, m, ranks[members[0]]))
        assert len({r_of[x] for x in members}) == halves
        assert len({l_of[x] for x in members}) == halves
        assert len(members) == halves * halves


# (j_class_count, l_class_count, r_class_count, unit_count) for m = 1, 2, ...
GREEN_DATA = {
    Family.TEMPERLEY_LIEB: [
        (1, 1, 1, 1), (2, 2, 2, 1), (2, 3, 3, 1), (3, 6, 6, 1),
        (3, 10, 10, 1), (4, 20, 20, 1), (4, 35, 35, 1),
    ],
    Family.PLANAR_ROOK: [
        (2, 2, 2, 1), (3, 4, 4, 1), (4, 8, 8, 1), (5, 16, 16, 1),
        (6, 32, 32, 1), (7, 64, 64, 1),
    ],
    Family.MOTZKIN: [(2, 2, 2, 1), (3, 5, 5, 1), (4, 13, 13, 1), (5, 35, 35, 1), (6, 96, 96, 1)],
}


@pytest.mark.parametrize("family", list(GREEN_DATA))
def test_green_data_pinned(family):
    found = [green_data(family, m) for m in range(1, len(GREEN_DATA[family]) + 1)]
    assert found == [diagrams.GreenData(*row) for row in GREEN_DATA[family]]


@pytest.mark.parametrize(
    "family,m,glued",
    [
        (Family.TEMPERLEY_LIEB, 6, 157), (Family.PLANAR_ROOK, 5, 557), (Family.MOTZKIN, 4, 909),
        (Family.TEMPERLEY_LIEB, 7, 468), (Family.PLANAR_ROOK, 6, 1732), (Family.MOTZKIN, 5, 4799),
    ],
)
def test_closure_composition_counts(monkeypatch, family, m, glued):
    # the counts README and the green_data docstring quote
    calls = []
    original = diagrams._glue
    monkeypatch.setattr(diagrams, "_glue", lambda pa, pb: calls.append(1) or original(pa, pb))
    green_data(family, m)
    assert len(calls) == glued


def test_green_data_tl7_j_classes():
    gd = green_data(Family.TEMPERLEY_LIEB, 7)
    assert gd.j_class_count == 4
    assert gd.unit_count == 1
    assert gd.l_class_count == 14 + 14 + 6 + 1


def test_green_counts_of_hand_built_cayley_graphs():
    # the cyclic group {1, g, g^2} with a zero z adjoined, generated by g and
    # z: the units are the whole group, so unit_count is 3
    right = [[1, 3], [2, 3], [0, 3], [3, 3]]  # x*g, x*z for x = 1, g, g^2, z
    assert diagrams._green_counts(right, right) == diagrams.GreenData(2, 2, 2, 3)
    # {1, a, b} with xy = x on {a, b}, generated by a and b: a and b are
    # L-related (Ma = Mb = {a, b}) but not R-related (aM = {a}, bM = {b})
    right = [[1, 2], [1, 1], [2, 2]]  # x*a, x*b for x = 1, a, b
    left = [[1, 2], [1, 2], [1, 2]]  # a*x, b*x
    assert diagrams._green_counts(right, left) == diagrams.GreenData(2, 2, 3, 1)
    # the 2x2 rectangular band, (i,j)(k,l) = (i,l), with an identity adjoined,
    # generated by (1,1) and (2,2): its R-classes are its rows, its L-classes
    # its columns, and the four band elements are one J-class, larger than both
    # x*(1,1), x*(2,2) for x = 1, (1,1), (1,2), (2,1), (2,2)
    right = [[1, 4], [1, 2], [1, 2], [3, 4], [3, 4]]
    left = [[1, 4], [1, 3], [2, 4], [1, 3], [2, 4]]  # (1,1)*x, (2,2)*x
    assert diagrams._green_counts(right, left) == diagrams.GreenData(2, 3, 3, 1)


def test_text_form_is_pinned():
    # top points 1..m, bottom points primed; blocks sorted, each block sorted
    e = make_diagram(Family.TEMPERLEY_LIEB, 2, [(1, 2), (3, 4)])
    assert str(e) == "{1,2}{1',2'}"
    nested = make_diagram(Family.TEMPERLEY_LIEB, 4, [(1, 4), (2, 3), (5, 8), (6, 7)])
    assert str(nested) == "{1,4}{2,3}{1',4'}{2',3'}"
    assert str(make_diagram(Family.MOTZKIN, 3, [(1, 2), (3, 6), (4,), (5,)])) == "{1,2}{3,3'}{1'}{2'}"
    assert format_blocks([(5, 1), (3,), (2,), (6,), (4,)], 3) == "{1,2'}{2}{3}{1'}{3'}"


def test_diagram_canonicalization_and_subset_helper():
    d = Diagram(Family.MOTZKIN, 2, ((4, 2), (3,), (1,)))
    assert d.blocks == ((1,), (2, 4), (3,))
    # combinations used by the planar rook enumeration stay sorted
    assert list(combinations(range(1, 4), 2)) == [(1, 2), (1, 3), (2, 3)]
