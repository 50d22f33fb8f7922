import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

import pytest

import radical_reference
from glue_reference import _apply_diagram, _half_states, _pairing, _record
import linalg_reference
from linalg_reference import inverse, kernel_and_rank, mat_mul, solve_lower_triangular, trace, zero
from growthlab.diagrams import (
    Diagram,
    Family,
    catalan_number,
    class_idempotent,
    compose,
    enumerate_diagrams,
    flip,
    motzkin_number,
    rank,
    rank_labels,
)
from growthlab import diagrams, oracle, verify
from growthlab.errors import InputError, InternalCheckError, VerificationError
from growthlab.linalg import Mat
from growthlab.oracle import (
    CellModule,
    _oracle_rows,
    cell_module,
    count_check,
    half_diagrams,
    oracle_cell_table,
    oracle_multiplicity,
    oracle_product_multiplicity,
    oracle_simple_table,
)
from growthlab.growth import ModuleSpec, module_spec
from growthlab.tables import cell_table, simple_table


def _trace(family, m, i, j, simple=False):
    """tr(e_j | V_i) if simple, else tr(e_j | S_i): entry j of the oracle's row for the module."""
    labels = rank_labels(family, m)
    return _oracle_rows(family, m)[simple][labels.index(i)][labels.index(j)]


# ---------------------------------------------------------------------------
# half diagrams

def test_half_diagram_counts():
    assert len(half_diagrams(Family.TEMPERLEY_LIEB, 7, 3)) == 14
    assert len(half_diagrams(Family.MOTZKIN, 5, 1)) == 30
    for m in range(1, 6):
        for i in range(m + 1):
            assert len(half_diagrams(Family.PLANAR_ROOK, m, i)) == comb(m, i)


@pytest.mark.parametrize(
    "family,ms",
    [(Family.PLANAR_ROOK, range(1, 7)), (Family.TEMPERLEY_LIEB, range(1, 8)), (Family.MOTZKIN, range(1, 6))],
)
def test_half_diagram_counts_match_cell_dimensions(family, ms):
    for m in ms:
        table = cell_table(family, m)
        for i in table.labels:
            assert len(half_diagrams(family, m, i)) == table.dim(i)


def test_half_diagrams_are_planar_with_uncovered_defects():
    for family, m, i in (
        (Family.TEMPERLEY_LIEB, 7, 3),
        (Family.MOTZKIN, 5, 1),
        (Family.MOTZKIN, 4, 2),
        (Family.PLANAR_ROOK, 5, 2),
    ):
        for h in half_diagrams(family, m, i):
            # a row names each point's cup partner, m for a defect, -1 if isolated
            assert len(h) == m and all(q in (-1, m) or h[q] == k for k, q in enumerate(h))
            assert h.count(m) == i
            assert (-1 in h) <= (family is not Family.TEMPERLEY_LIEB)
            cups = [(a, b) for a, b in enumerate(h) if a < b < m]
            assert not cups or family is not Family.PLANAR_ROOK
            for (a, b) in cups:
                for (c, d) in cups:
                    assert not (a < c < b < d)  # cups never cross on the line
                assert m not in h[a + 1:b]  # defects escape upward
    with pytest.raises(InputError):
        half_diagrams(Family.TEMPERLEY_LIEB, 7, 2)


REFEREE_HALVES = [
    (family, m)
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN)
    for m in range(1, diagrams.DEFAULT_MAX_M[family] + 1)
] + [(Family.TEMPERLEY_LIEB, 11), (Family.PLANAR_ROOK, 8), (Family.MOTZKIN, 7)]


@pytest.mark.parametrize("family,m", REFEREE_HALVES)
def test_half_diagrams_match_the_recursive_referee(family, m):
    for i in rank_labels(family, m):
        rows = half_diagrams(family, m, i)
        states = {
            (tuple(sorted(cups)), defects)
            for cups, defects in _half_states(tuple(range(1, m + 1)), i, family)
        }
        assert {(x.cups, x.defects) for x in map(_record, rows)} == states
        assert len(rows) == len(states)


UNMODELLED = [
    (Family.BRAUER, 3, "cannot be enumerated"),
    (Family.ROOK, 3, "cannot be enumerated"),
    (Family.MOTZKIN, 0, "outside the enumerable range"),
    (Family.TEMPERLEY_LIEB, -2, "outside the enumerable range"),
]


@pytest.mark.parametrize(
    "query",
    [
        lambda f, m: half_diagrams(f, m, 0),
        lambda f, m: cell_module(f, m, 1),
        lambda f, m: oracle._gram_rows(f, m, 1),
        oracle_cell_table,
        oracle_simple_table,
        lambda f, m: oracle._module_rows(f, m, 0),
    ],
    ids=["half_diagrams", "cell_module", "gram_matrix", "oracle_cell_table",
         "oracle_simple_table", "simple_dimension"],
)
@pytest.mark.parametrize("family,m,message", UNMODELLED)
def test_oracle_rejects_what_it_cannot_model(query, family, m, message):
    with pytest.raises(InputError, match=message):
        query(family, m)


def test_half_diagrams_unique_in_walk_order():
    # the walk tries, point by point, closing an arc, opening one (a cup or a
    # defect) and staying single, so its rows come sorted by those choices
    m = 4
    rows = half_diagrams(Family.MOTZKIN, m, 1)
    keys = [tuple(0 if 0 <= q < k else 1 if q > k else 2 for k, q in enumerate(h)) for h in rows]
    assert keys == sorted(set(keys))
    assert len(set(rows)) == len(rows) == 12


# ---------------------------------------------------------------------------
# cell actions

def test_identity_acts_as_identity():
    for family, m, i in ((Family.TEMPERLEY_LIEB, 5, 1), (Family.MOTZKIN, 3, 1), (Family.PLANAR_ROOK, 4, 2)):
        module = cell_module(family, m, i)
        ident = class_idempotent(family, m, m)
        assert module.action(ident) == Mat.identity(module.dim)


def test_low_rank_kills_high_defect_modules():
    module = cell_module(Family.TEMPERLEY_LIEB, 4, 2)
    e0 = class_idempotent(Family.TEMPERLEY_LIEB, 4, 0)
    assert module.action(e0) == zero(module.dim, module.dim)


def test_action_entries_are_zero_one():
    module = cell_module(Family.MOTZKIN, 3, 1)
    for d in enumerate_diagrams(Family.MOTZKIN, 3):
        mat = module.action(d)
        assert all(x in (0, 1) for row in mat.rows for x in row)


def test_a_cached_cell_module_is_frozen():
    # cell_module is cached: a cut basis would reach every later query
    module = cell_module(Family.TEMPERLEY_LIEB, 3, 1)
    with pytest.raises(AttributeError):
        module.basis = module.basis[:1]
    with pytest.raises(AttributeError):
        del module.basis
    assert cell_module(Family.TEMPERLEY_LIEB, 3, 1) is module and module.dim == 2
    assert module == CellModule(Family.TEMPERLEY_LIEB, 3, 1) and module._fields == ("family", "m", "i")


def test_a_cached_oracle_table_keeps_its_rows():
    # oracle_simple_table is cached: a deleted field would reach every later call
    with pytest.raises(AttributeError):
        del oracle_simple_table(Family.TEMPERLEY_LIEB, 3).rows
    assert oracle_simple_table(Family.TEMPERLEY_LIEB, 3) == simple_table(Family.TEMPERLEY_LIEB, 3).mat


@pytest.mark.parametrize(
    "family,m",
    [(Family.TEMPERLEY_LIEB, 4), (Family.PLANAR_ROOK, 3), (Family.MOTZKIN, 3)],
)
def test_action_multiplicative_exhaustive(family, m):
    elements = enumerate_diagrams(family, m)
    for i in rank_labels(family, m):
        module = cell_module(family, m, i)
        for a in elements:
            ma = module.action(a)
            for b in elements:
                product = compose(a, b).result
                assert mat_mul(ma, module.action(b)) == module.action(product)


@pytest.mark.parametrize(
    "family,m",
    [(Family.TEMPERLEY_LIEB, 6), (Family.PLANAR_ROOK, 5), (Family.MOTZKIN, 4)],
)
def test_action_multiplicative_random(family, m):
    rng = random.Random(23)
    elements = enumerate_diagrams(family, m)
    for i in rank_labels(family, m):
        module = cell_module(family, m, i)
        for _ in range(40):
            a, b = rng.choice(elements), rng.choice(elements)
            assert mat_mul(module.action(a), module.action(b)) == module.action(
                compose(a, b).result
            )


PARTIAL_MAP_CASES = [(Family.TEMPERLEY_LIEB, 4), (Family.PLANAR_ROOK, 3), (Family.MOTZKIN, 3)]
# the top-row walk of `image` against the union-find referee, on every
# element and module at these sizes too
IMAGE_CASES = PARTIAL_MAP_CASES + [(Family.TEMPERLEY_LIEB, 6), (Family.PLANAR_ROOK, 4), (Family.MOTZKIN, 4)]


@pytest.mark.parametrize("family,m", IMAGE_CASES)
def test_image_agrees_with_action(family, m):
    for i in rank_labels(family, m):
        module = cell_module(family, m, i)
        for d in enumerate_diagrams(family, m):
            image = module.image(d)
            rows = module.action(d).rows
            for c, x in enumerate(module.basis):
                y = _apply_diagram(d, x)
                assert image[c] == (-1 if y is None else module.basis.index(y))
                assert [row[c] for row in rows] == [int(r == image[c]) for r in range(module.dim)]


@pytest.mark.parametrize("family,m", PARTIAL_MAP_CASES)
def test_index_maps_compose_as_partial_maps(family, m):
    elements = enumerate_diagrams(family, m)
    for i in rank_labels(family, m):
        module = cell_module(family, m, i)
        for a in elements:
            ia = module.image(a)
            for b in elements:
                # (a·b)·x_c = a·(b·x_c), and zero stays zero
                composed = tuple(-1 if t < 0 else ia[t] for t in module.image(b))
                assert composed == module.image(compose(a, b).result)


def _clear_oracle_caches():
    for value in vars(oracle).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_referee_path_builds_no_action_matrix(monkeypatch):
    def no_action(self, d):
        raise AssertionError("the referee built a dense action matrix")

    _clear_oracle_caches()
    monkeypatch.setattr(CellModule, "action", no_action)
    results = verify.check_tables() + verify.check_growth()
    assert results and all(r.ok for r in results)
    assert _oracle_rows.cache_info().currsize  # the cold caches were refilled


def _scaled_radical(family, m, i, factor):
    """The referee's `_radical` with the kernel rows and their scale multiplied by factor."""
    original = radical_reference._radical

    def scaled(f, mm, ii):
        kernel, scale, free_rows = original(f, mm, ii)
        if (f, mm, ii) != (family, m, i):
            return kernel, scale, free_rows
        rows = tuple(tuple(factor * x for x in row) for row in kernel)
        return rows, factor * scale, free_rows

    return scaled


@pytest.mark.parametrize("family,m,i", [(Family.TEMPERLEY_LIEB, 7, 3), (Family.MOTZKIN, 5, 2)])
def test_radical_scale_changes_no_character(monkeypatch, family, m, i):
    # every kernel here is integral (d = 1); a scale of 3 exercises d
    labels = rank_labels(family, m)
    expected = [radical_reference.simple_character(family, m, i, j) for j in labels]
    monkeypatch.setattr(radical_reference, "_radical", _scaled_radical(family, m, i, 3))
    assert [radical_reference.simple_character(family, m, i, j) for j in labels] == expected


def test_the_character_check_sees_a_wrong_character():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    cell = module_spec(Family.TEMPERLEY_LIEB, 7, "S3")
    wrong = [
        ModuleSpec("V3", spec.family, spec.m, spec.dim, (2,) + spec.charvec[1:]),
        ModuleSpec("V3", spec.family, spec.m, cell.dim, cell.charvec),  # S3's character, labelled V3
        # labels that `parse_selector` reads as V3, once passed unchecked
        ModuleSpec("v3", spec.family, spec.m, cell.dim, cell.charvec),
        ModuleSpec(" V3", spec.family, spec.m, cell.dim, cell.charvec),
        ModuleSpec("S3", spec.family, spec.m, spec.dim, spec.charvec),
    ]
    # S3's character answers 111 at V7 and length 124 where V3's are 84 and 97:
    # unchecked as a P module, and checked under the lower-case label of S3
    for label in ("P3", "s3"):
        right = ModuleSpec(label, spec.family, spec.m, cell.dim, cell.charvec)
        square = oracle_multiplicity(right, 2)
        assert (square[rank_labels(spec.family, spec.m).index(7)], sum(square)) == (111, 124)
    for bad in wrong:
        for query in (
            lambda: oracle_multiplicity(bad, 2),
            lambda: oracle_product_multiplicity(bad, spec),
            lambda: oracle_product_multiplicity(spec, bad),
        ):
            with pytest.raises(VerificationError, match=f"^character of {bad.label} disagrees with the oracle's$"):
                query()


@pytest.mark.parametrize(
    "label,message",
    [
        ("Vx", "bad module selector 'Vx'"),
        ("S 3", "bad module selector 'S 3'"),
        ("V-1", "bad module selector 'V-1'"),
        ("V9", "label 9 is not a temperley_lieb m=7 label"),
        # every label is read as a module selector: an empty one once raised
        # a bare IndexError, and one of another kind passed unchecked
        ("", "bad module selector ''"),
        ("X3", "bad module selector 'X3'"),
        ("P9", "label 9 is not a temperley_lieb m=7 label"),
    ],
)
def test_a_bad_cell_or_simple_label_is_refused_as_input(label, message):
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    bad = ModuleSpec(label, spec.family, spec.m, spec.dim, spec.charvec)
    for query in (
        lambda: oracle_multiplicity(bad, 2),
        lambda: oracle_product_multiplicity(bad, spec),
        lambda: oracle_product_multiplicity(spec, bad),
    ):
        with pytest.raises(InputError, match="^" + re.escape(message)):
            query()


@pytest.mark.parametrize(
    "family,m,i", [(Family.TEMPERLEY_LIEB, 5, 1), (Family.TEMPERLEY_LIEB, 7, 3), (Family.MOTZKIN, 4, 2)]
)
def test_unstable_radical_raises(monkeypatch, family, m, i):
    kernel, scale, free_rows = radical_reference._radical(family, m, i)
    # kernel column 0 loses its last entry off the free rows: not stable (the
    # unit vector of its free row can be, as at MO 4, i = 2, where every
    # class idempotent but the identity kills that basis element)
    last = max(r for r, row in enumerate(kernel) if row[0] and r not in free_rows)
    rows = tuple((0 if r == last else row[0],) + row[1:] for r, row in enumerate(kernel))
    monkeypatch.setattr(radical_reference, "_radical", lambda *key: (rows, scale, free_rows))
    raised = 0
    for j in rank_labels(family, m):
        try:
            radical_reference.simple_character(family, m, i, j)
        except InternalCheckError:
            raised += 1
    assert raised


# ---------------------------------------------------------------------------
# characters and the cellular form

def test_cell_characters_match_closed_tables():
    # one step past the caps
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN):
        for m in range(1, diagrams.DEFAULT_MAX_M[family] + 2):
            assert oracle_cell_table(family, m) == cell_table(family, m).mat


def test_cell_character_spot_values():
    assert _trace(Family.TEMPERLEY_LIEB, 7, 3, 5) == 4
    assert _trace(Family.MOTZKIN, 5, 2, 4) == 9
    for m, i, j in ((4, 1, 3), (5, 2, 4), (6, 3, 5)):
        assert _trace(Family.PLANAR_ROOK, m, i, j) == comb(j, i)


def test_gram_matrices():
    assert oracle._gram_rows(Family.TEMPERLEY_LIEB, 2, 0) == ((1,),)
    g = oracle._gram_rows(Family.TEMPERLEY_LIEB, 4, 0)
    assert g == ((1, 1), (1, 1))
    assert kernel_and_rank(Mat(g))[0] == 1
    for family, m in ((Family.TEMPERLEY_LIEB, 6), (Family.MOTZKIN, 4), (Family.PLANAR_ROOK, 4)):
        # the top cell has the all-defects half diagram as its only basis element
        assert oracle._gram_rows(family, m, m) == ((1,),)


@pytest.mark.parametrize(
    "family,m", [(Family.TEMPERLEY_LIEB, 7), (Family.PLANAR_ROOK, 6), (Family.MOTZKIN, 5)]
)
def test_gram_matrix_matches_the_union_find_pairing(family, m):
    for i in rank_labels(family, m):
        basis = half_diagrams(family, m, i)
        assert oracle._gram_rows(family, m, i) == tuple(tuple(_pairing(x, y) for y in basis) for x in basis)


def test_gram_diagonal_is_all_ones():
    # self-pairing closes every cup into a loop and runs defects straight up
    for family, m, i in (
        (Family.TEMPERLEY_LIEB, 6, 2),
        (Family.MOTZKIN, 4, 1),
        (Family.PLANAR_ROOK, 4, 2),
    ):
        g = oracle._gram_rows(family, m, i)
        assert all(g[k][k] == 1 for k in range(len(g)))


def test_gram_rank_equals_simple_dimension():
    for family, ms in (
        (Family.PLANAR_ROOK, range(1, 7)),
        (Family.TEMPERLEY_LIEB, range(1, 8)),
        (Family.MOTZKIN, range(1, 6)),
    ):
        for m in ms:
            table = simple_table(family, m)
            for i in table.labels:
                assert oracle._module_rows(family, m, i)[1][-1] == table.dim(i)


def test_simple_characters_match_closed_tables():
    for family, ms in (
        (Family.PLANAR_ROOK, range(1, 7)),
        (Family.TEMPERLEY_LIEB, range(1, 8)),
        (Family.MOTZKIN, range(1, 6)),
    ):
        for m in ms:
            assert oracle_simple_table(family, m) == simple_table(family, m).mat


def test_simple_character_spot_values():
    assert _trace(Family.TEMPERLEY_LIEB, 7, 3, 7, simple=True) == 13
    assert _trace(Family.MOTZKIN, 5, 2, 5, simple=True) == 20
    for i in rank_labels(Family.MOTZKIN, 4):
        assert _trace(Family.MOTZKIN, 4, i, i, simple=True) == 1


def test_character_constancy_across_same_rank_idempotents():
    rng = random.Random(17)
    for family, m in ((Family.TEMPERLEY_LIEB, 4), (Family.MOTZKIN, 3), (Family.PLANAR_ROOK, 3)):
        elements = enumerate_diagrams(family, m)
        idempotents = [d for d in elements if compose(d, d).result == d]
        by_rank = {}
        for d in idempotents:
            by_rank.setdefault(rank(d), []).append(d)
        for i in rank_labels(family, m):
            module = cell_module(family, m, i)
            for j, pool in by_rank.items():
                sample = pool if len(pool) <= 20 else rng.sample(pool, 20)
                canonical = trace(module.action(class_idempotent(family, m, j)))
                for d in sample:
                    assert trace(module.action(d)) == canonical


# ---------------------------------------------------------------------------
# simple characters by rank, against the radical-trace referee

REFEREE_SIMPLE = [
    (family, m)
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN)
    for m in range(1, diagrams.DEFAULT_MAX_M[family] + 2)
] + [(Family.TEMPERLEY_LIEB, 9)]


@pytest.mark.parametrize("family,m", REFEREE_SIMPLE)
def test_rank_route_matches_the_radical_trace_referee(family, m):
    labels = rank_labels(family, m)
    expected = [[radical_reference.simple_character(family, m, i, j) for j in labels] for i in labels]
    assert oracle_simple_table(family, m) == Mat(expected)
    for i, row in zip(labels, expected):
        assert [_trace(family, m, i, j, simple=True) for j in labels] == row
        assert oracle._module_rows(family, m, i)[1][-1] == row[-1]


@pytest.fixture
def fresh_module_rows():
    """Empty the cache of the brute-force rows before and after the test, so that
    the per-module pass sees a perturbation and no perturbed row outlives it."""
    _oracle_rows.cache_clear()
    yield
    _oracle_rows.cache_clear()


# (family, m, i, an entry (a, b) of the form that the invariance check sees)
MUTATED_FORMS = [
    (Family.TEMPERLEY_LIEB, 7, 3, (0, 3)),
    (Family.MOTZKIN, 5, 2, (0, 1)),
    (Family.MOTZKIN, 4, 2, (0, 3)),  # where a wrong radical once passed the stability check
]


def _flip_form_entries(monkeypatch, family, m, i, entries):
    """Make `_gram_rows` return the form of S_i with each (a, b) in entries flipped."""
    original = oracle._gram_rows
    rows = [list(row) for row in original(family, m, i)]
    for a, b in entries:
        rows[a][b] ^= 1
    perturbed = tuple(map(tuple, rows))
    monkeypatch.setattr(
        oracle, "_gram_rows", lambda *key: perturbed if key == (family, m, i) else original(*key)
    )


@pytest.mark.parametrize("family,m,i,entry", MUTATED_FORMS)
@pytest.mark.parametrize("symmetric", [False, True], ids=["one-entry", "both-entries"])
def test_perturbed_gram_entry_raises(monkeypatch, fresh_module_rows, family, m, i, entry, symmetric):
    # flipping the mirror entry too keeps the form symmetric: only the invariance can fail
    entries = [entry, entry[::-1]] if symmetric else [entry]
    _flip_form_entries(monkeypatch, family, m, i, entries)
    with pytest.raises(InternalCheckError, match=f"S_{i}: .* not symmetric and invariant"):
        _oracle_rows.__wrapped__(family, m)


def _override_images(monkeypatch, module):
    """Make `CellModule.image` of module return the map stored at a diagram in the
    returned dict, and the true map of every other diagram or module."""
    overrides, original = {}, CellModule.image
    monkeypatch.setattr(
        CellModule, "image", lambda self, d: overrides[d] if self is module and d in overrides else original(self, d)
    )
    return overrides


@pytest.mark.parametrize("family,m,i", [case[:3] for case in MUTATED_FORMS])
def test_perturbed_index_map_raises(monkeypatch, fresh_module_rows, family, m, i):
    module = cell_module(family, m, i)
    overrides = _override_images(monkeypatch, module)
    perturbed = 0
    for j in rank_labels(family, m):
        e = class_idempotent(family, m, j)
        image = module.image(e)
        fixed = [c for c, r in enumerate(image) if c == r]
        dead = [c for c, r in enumerate(image) if r < 0]
        if not fixed or not dead:
            continue
        # the first zero image lands on a fixed point: still an idempotent map
        wrong = list(image)
        wrong[dead[0]] = fixed[0]
        overrides[e] = tuple(wrong)
        with pytest.raises(InternalCheckError, match="not idempotent, or form not symmetric"):
            oracle._module_rows(family, m, i)
        del overrides[e]
        perturbed += 1
    assert perturbed >= 2


def test_an_involution_in_place_of_the_idempotent_raises(monkeypatch, fresh_module_rows):
    # the form of PRO 5, i = 2 is the identity, so a map swapping two basis
    # elements keeps it invariant; only the idempotence check sees the swap
    family, m, i, j = Family.PLANAR_ROOK, 5, 2, 3
    module, e = cell_module(family, m, i), class_idempotent(family, m, j)
    assert Mat(oracle._gram_rows(family, m, i)) == Mat.identity(module.dim)
    image = module.image(e)
    a, b = [c for c, r in enumerate(image) if r < 0][:2]
    swapped = tuple(b if c == a else a if c == b else r for c, r in enumerate(image))
    _override_images(monkeypatch, module)[e] = swapped
    with pytest.raises(InternalCheckError, match="not idempotent"):
        oracle._module_rows(family, m, i)


@pytest.mark.parametrize("family,m,i", [case[:3] for case in MUTATED_FORMS])
def test_an_asymmetric_form_raises_under_one_idempotent(monkeypatch, fresh_module_rows, family, m, i):
    # <x_p, x_q> with p not fixed by e and q fixed: invariance reads it at
    # (p, e·x_q), but no row <e·x_a, -> or column <e·x_b, -> holds it, so only
    # the symmetry check sees it when e is not the identity; the pass makes
    # that check as the invariance check at the last label, the identity
    j = rank_labels(family, m)[-2]
    image = cell_module(family, m, i).image(class_idempotent(family, m, j))
    p = next(c for c, r in enumerate(image) if c != r)
    q = next(c for c, r in enumerate(image) if c == r)
    _flip_form_entries(monkeypatch, family, m, i, [(p, q)])
    with pytest.raises(InternalCheckError, match="form not symmetric and invariant"):
        oracle._module_rows(family, m, i)


@pytest.mark.parametrize("position", [(1, 1), (1, 0)], ids=["diagonal", "below"])
def test_simple_table_must_be_unit_upper_triangular(monkeypatch, position):
    original = oracle._module_rows
    family, m = Family.TEMPERLEY_LIEB, 5
    labels = rank_labels(family, m)
    row, col = position

    def wrong(f, mm, i):
        cells, values = original(f, mm, i)
        values = list(values)
        if i == labels[row]:
            values[col] += 1
        return cells, tuple(values)

    monkeypatch.setattr(oracle, "_module_rows", wrong)
    with pytest.raises(VerificationError, match="not unit upper triangular"):
        _oracle_rows.__wrapped__(family, m)


def test_fixed_points_must_nest(monkeypatch, fresh_module_rows):
    # the form of PRO 5, i = 2 is the identity, so sending a fixed point of
    # e_4 to zero keeps e_4's map idempotent and the form invariant under it;
    # only the nesting check sees that e_4 no longer fixes a point e_3 fixes
    family, m, i = Family.PLANAR_ROOK, 5, 2
    module = cell_module(family, m, i)
    assert Mat(oracle._gram_rows(family, m, i)) == Mat.identity(module.dim)
    e3, e4 = (class_idempotent(family, m, j) for j in (3, 4))
    c = next(c for c, r in enumerate(module.image(e3)) if c == r)
    image = module.image(e4)
    assert image[c] == c
    _override_images(monkeypatch, module)[e4] = tuple(-1 if a == c else r for a, r in enumerate(image))
    with pytest.raises(InternalCheckError, match=f"S_{i}: fixed points of .* miss those of the label before"):
        oracle._module_rows(family, m, i)


def test_the_last_idempotent_must_fix_every_basis_element(monkeypatch, fresh_module_rows):
    # the form of PRO 5, i = 2 is the identity, so the identity's map with one
    # element that e_4 does not fix sent to zero passes every other check
    family, m, i = Family.PLANAR_ROOK, 5, 2
    module, identity = cell_module(family, m, i), class_idempotent(family, m, 5)
    assert module.image(identity) == tuple(range(module.dim))
    c = next(c for c, r in enumerate(module.image(class_idempotent(family, m, 4))) if r != c)
    _override_images(monkeypatch, module)[identity] = tuple(-1 if a == c else a for a in range(module.dim))
    with pytest.raises(InternalCheckError, match=f"S_{i}: the last class idempotent does not fix every basis element"):
        oracle._module_rows(family, m, i)


def test_one_elimination_per_cell_module(monkeypatch, fresh_module_rows):
    calls = []
    original = oracle._prefix_ranks
    monkeypatch.setattr(oracle, "_prefix_ranks", lambda rows: calls.append(1) or original(rows))
    for family, m in ((Family.TEMPERLEY_LIEB, 7), (Family.MOTZKIN, 5), (Family.PLANAR_ROOK, 4)):
        calls.clear()
        labels = rank_labels(family, m)
        _oracle_rows(family, m)
        assert len(calls) == len(labels)
        # every character, cell or simple, and every dimension reads the same pass
        for i in labels:
            for j in labels:
                _trace(family, m, i, j)
                _trace(family, m, i, j, simple=True)
        assert len(calls) == len(labels)


# ---------------------------------------------------------------------------
# the form's invariance under the generators

GENERATOR_CASES = [
    (family, m)
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN)
    for m in range(1, diagrams.DEFAULT_MAX_M[family] + 1)
]


def _generator_images(family, m, i):
    """(image of g, image of flip(g)) for each generator g, glued by the referee."""
    basis = cell_module(family, m, i).basis
    index = {x: k for k, x in enumerate(basis)}

    def image(d):
        return [index[y] if (y := _apply_diagram(d, x)) is not None else -1 for x in basis]

    generators = diagrams.generators(family, m)
    assert {flip(g) for g in generators} == set(generators)
    return [(image(g), image(flip(g))) for g in generators]


def _invariant_under_generators(images, gram) -> bool:
    """<g·x_a, x_b> = <x_a, flip(g)·x_b> for every generator g and all a, b (0 at a zero image)."""
    n = len(gram)
    return all(
        (gram[image[a]][b] if image[a] >= 0 else 0) == (gram[a][star[b]] if star[b] >= 0 else 0)
        for image, star in images
        for a in range(n)
        for b in range(n)
    )


@pytest.mark.parametrize("family,m", GENERATOR_CASES)
def test_form_is_invariant_under_the_generators(family, m):
    for i in rank_labels(family, m):
        assert _invariant_under_generators(_generator_images(family, m, i), oracle._gram_rows(family, m, i))


def _characters_of_form(family, m, i, gram):
    """The rank of the Gram rows at each class idempotent's fixed points, by the Fraction referee."""
    module = cell_module(family, m, i)
    out = []
    for j in rank_labels(family, m):
        image = module.image(class_idempotent(family, m, j))
        rows = [gram[c] for c, r in enumerate(image) if c == r]
        out.append(linalg_reference.kernel_and_rank(Mat(rows))[0] if rows else 0)
    return out


def test_every_character_changing_form_flip_breaks_generator_invariance():
    # every symmetric one-entry flip of the form at MO 4, i = 2 that changes a
    # simple character fails the check under the generators, which the
    # invariance check under the class idempotents alone does not promise
    family, m, i = Family.MOTZKIN, 4, 2
    gram = oracle._gram_rows(family, m, i)
    images = _generator_images(family, m, i)
    expected = _characters_of_form(family, m, i, gram)
    assert list(oracle._module_rows(family, m, i)[1]) == expected
    changing = []
    for a in range(len(gram)):
        for b in range(a, len(gram)):
            rows = [list(row) for row in gram]
            rows[a][b] ^= 1
            rows[b][a] = rows[a][b]
            if _characters_of_form(family, m, i, rows) != expected:
                changing.append((a, b))
                assert not _invariant_under_generators(images, rows), (a, b)
    assert len(changing) == 36


def test_integer_solve_matches_the_fraction_referee(monkeypatch):
    # every right-hand side the verify suites solve, against forward substitution
    # on Fractions: one solve per query, uncached, so some are solved again
    solved = {}
    calls = []
    original = oracle._decomposition

    def recording(family, m, rhs):
        calls.append(rhs)
        solved[(family, m, rhs)] = original(family, m, rhs)
        return solved[(family, m, rhs)]

    monkeypatch.setattr(oracle, "_decomposition", recording)
    assert all(r.ok for r in verify.run_suite("all"))
    assert (len(calls), len(solved)) == (85, 51)
    for (family, m, rhs), y in solved.items():
        assert all(type(v) is int for v in rhs + y)
        assert y == solve_lower_triangular(oracle_simple_table(family, m).transpose(), rhs)


def test_verify_asks_one_decomposition_per_module_and_n_and_per_pair(monkeypatch):
    # 6 golden modules at n = 1..4, and the 25 + 36 ordered pairs of the
    # planar rook tensor rule at m = 4, 5: each query checks each of its
    # modules once and solves once
    counts = Counter()

    def counting(name):
        original = getattr(oracle, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(oracle, name, counted)

    for name in ("oracle_multiplicity", "oracle_product_multiplicity", "_check_module", "_decomposition"):
        counting(name)
    assert all(r.ok for r in verify.run_suite("all"))
    assert counts == {
        "oracle_multiplicity": 24, "oracle_product_multiplicity": 61, "_check_module": 146, "_decomposition": 85
    }


def test_lengths_at_every_n_equal_the_fusion_graph_power_sums():
    # n = 1..257: b**n differs for every n, so each length is a new solve
    from growthlab.fusion import fusion_matrix, power_multiplicities

    spec = module_spec(Family.TEMPERLEY_LIEB, 4, "V2")  # character (0, 1, 3)
    ns = range(1, 258)
    first = [sum(oracle_multiplicity(spec, n)) for n in ns]
    assert [sum(oracle_multiplicity(spec, n)) for n in ns] == first
    graph = fusion_matrix(spec, simple_table(Family.TEMPERLEY_LIEB, 4))
    assert first == [sum(power_multiplicities(graph, n)) for n in ns]


def test_verify_builds_no_integer_kernel():
    # the oracle reads its simple characters as prefix ranks, and checks a
    # query's character against them, so a fresh verify run takes no kernel,
    # nor any other reduced echelon form
    code = (
        "import sys\n"
        "from growthlab import linalg, verify\n"
        "bound = [name for name, module in sys.modules.items()\n"
        "         if name.startswith('growthlab') and getattr(module, '_reduce', None) is linalg._reduce]\n"
        "calls, original = [], linalg._reduce\n"
        "linalg._reduce = lambda *args: calls.append(1) or original(*args)\n"
        "verify.run_suite('all')\n"
        "print(*bound, len(calls))\n"
    )
    src = str(Path(oracle.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["growthlab.linalg", "0"]


# ---------------------------------------------------------------------------
# radical quotients against the general-inverse route


def _sub_action(kernel_cols):
    """The radical sub-action through a general inverse: sub(M) =
    (K^T K)^-1 K^T M K solves K A = M K by the normal equations."""
    kt = kernel_cols.transpose()
    pseudo = mat_mul(inverse(mat_mul(kt, kernel_cols)), kt)
    return lambda action: mat_mul(pseudo, mat_mul(action, kernel_cols))


@pytest.mark.parametrize(
    "family,m",
    [(Family.TEMPERLEY_LIEB, m) for m in (5, 6, 7)] + [(Family.MOTZKIN, m) for m in (3, 4, 5)],
)
def test_radical_quotients_match_inverse_routes(family, m):
    labels = rank_labels(family, m)
    radicals = 0
    for i in labels:
        kernel, scale, free_rows = radical_reference._radical(family, m, i)
        if kernel is None:
            continue
        radicals += 1
        # the routes are unchanged when the kernel basis is scaled by d
        kernel_cols = Mat(kernel)
        assert Mat([kernel[f] for f in free_rows]) == Mat([
            [scale * (r == c) for c in range(len(free_rows))] for r in range(len(free_rows))
        ])
        module = cell_module(family, m, i)
        sub = _sub_action(kernel_cols)
        for j in labels:
            action = module.action(class_idempotent(family, m, j))
            character = trace(action) - trace(sub(action))
            assert radical_reference.simple_character(family, m, i, j) == character
    assert radicals > 0


@pytest.mark.parametrize("family,m", GENERATOR_CASES)
def test_radical_matches_the_fraction_kernel_at_every_module(family, m):
    # the library's kernel of the form, scaled by the lcm of its
    # denominators, is the referee's radical: one vector per free row, 1 there
    # and 0 at the other free rows, each free row its last nonzero entry
    for i in rank_labels(family, m):
        gram = Mat(oracle._gram_rows(family, m, i))
        rank, kernel = kernel_and_rank(gram)
        free_rows = tuple(max(r for r, x in enumerate(v) if x) for v in kernel)
        assert [[v[f] for f in free_rows] for v in kernel] == [[int(f == g) for f in free_rows] for g in free_rows]
        scale = lcm(*(x.denominator for v in kernel for x in v))
        columns = [tuple(int(x * scale) for x in v) for v in kernel]
        assert radical_reference._radical(family, m, i) == (
            tuple(zip(*columns)) if columns else None, scale, free_rows
        )
        assert rank + len(free_rows) == gram.nrows


# ---------------------------------------------------------------------------
# multiplicities and counts

def test_oracle_multiplicity_tl7():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")  # labels 1, 3, 5, 7
    assert oracle_multiplicity(spec, 2) == (0, 1, 12, 84)  # length 97
    assert oracle_multiplicity(spec, 1) == (0, 1, 0, 0)
    assert oracle_multiplicity(spec, 0) == (1, 0, 0, 0)  # the trivial module is V_1


def test_oracle_multiplicity_cell_module_at_n1():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "S3")
    assert oracle_multiplicity(spec, 1) == (0, 1, 0, 1)  # S3 has V3 on top and V7 below


def test_oracle_product_multiplicity_planar_rook():
    v1 = module_spec(Family.PLANAR_ROOK, 5, "V1")
    assert oracle_product_multiplicity(v1, v1) == (0, 1, 2, 0, 0, 0)
    assert oracle_multiplicity(v1, 2) == (0, 1, 2, 0, 0, 0)


@pytest.mark.parametrize(
    "other", [(Family.TEMPERLEY_LIEB, 7, "V1"), (Family.PLANAR_ROOK, 5, "V1")],
    ids=["other-m", "other-family"],
)
def test_oracle_product_multiplicity_refuses_modules_of_different_monoids(other):
    tl5 = module_spec(Family.TEMPERLEY_LIEB, 5, "V1")
    for a, b in ((tl5, module_spec(*other)), (module_spec(*other), tl5)):
        with pytest.raises(InputError, match="^modules belong to different monoids$"):
            oracle_product_multiplicity(a, b)


def test_the_product_query_checks_both_characters():
    # a module labelled V1 that carries V2's character: the power query
    # refused it, and the product query once paired it with V1 unchecked
    v1, v2 = (module_spec(Family.PLANAR_ROOK, 4, label) for label in ("V1", "V2"))
    liar = ModuleSpec("V1", Family.PLANAR_ROOK, 4, v2.dim, v2.charvec)
    for a, b in ((liar, v1), (v1, liar), (liar, liar)):
        with pytest.raises(VerificationError, match="^character of V1 disagrees with the oracle's$"):
            oracle_product_multiplicity(a, b)
    assert oracle_product_multiplicity(v1, v2) == (0, 0, 2, 3, 0)


def test_a_decomposition_with_a_negative_entry_is_refused_whole(monkeypatch):
    # S_2's simple row at PRO 5 one more at class 3: V1's own row is
    # untouched, so its character check passes, and V1 (x) V1 has V2 in it;
    # the solve once answered targets 0, 1, 2 and 4 and a length of -11
    family, m = Family.PLANAR_ROOK, 5
    col = rank_labels(family, m).index(3)
    original = oracle._module_rows

    def mutated(*args):
        cells, simples = original(*args)
        if args == (family, m, 2):
            simples = simples[:col] + (simples[col] + 1,) + simples[col + 1 :]
        return cells, simples

    _clear_oracle_caches()
    monkeypatch.setattr(oracle, "_module_rows", mutated)
    try:
        spec = module_spec(family, m, "V1")
        assert oracle_multiplicity(spec, 1) == (0, 1, 0, 0, 0, 0)
        for query in (lambda: oracle_multiplicity(spec, 2), lambda: oracle_product_multiplicity(spec, spec)):
            with pytest.raises(VerificationError, match="^multiplicity -2 is negative; inconsistent inputs$"):
                query()
    finally:
        _clear_oracle_caches()  # no mutated table outlives the test


def test_cell_module_refuses_a_diagram_of_another_size():
    # indexing TL 5's lifts with a TL 7 diagram would raise IndexError
    with pytest.raises(InputError, match="^diagram does not act on this module$"):
        cell_module(Family.TEMPERLEY_LIEB, 5, 1).image(class_idempotent(Family.TEMPERLEY_LIEB, 7, 1))


def test_oracle_multiplicity_validation():
    spec = module_spec(Family.TEMPERLEY_LIEB, 7, "V3")
    with pytest.raises(InputError, match="^label 4 is not a temperley_lieb m=7 label"):
        oracle_multiplicity(ModuleSpec("V4", spec.family, spec.m, spec.dim, spec.charvec), 2)
    with pytest.raises(InputError, match="^need n >= 0$"):
        oracle_multiplicity(spec, -1)


@pytest.mark.parametrize(
    "family,m,label", [(Family.TEMPERLEY_LIEB, 5, "V1"), (Family.MOTZKIN, 3, "S1")]
)
def test_oracle_length_rejects_negative_n(family, m, label):
    # a negative power of a zero character value once divided by zero
    with pytest.raises(InputError, match="^need n >= 0$"):
        oracle_multiplicity(module_spec(family, m, label), -1)


def test_label_errors_name_the_rule_not_the_labels():
    # the 1,001 labels of TL 2000 once made a 5,473-character message
    tl = Family.TEMPERLEY_LIEB
    spec = ModuleSpec("V3", tl, 2000, 1, (1,))  # refused at its label, before its character is read
    for query in (
        lambda: half_diagrams(tl, 2000, 3),
        lambda: oracle_multiplicity(spec, 1),
        lambda: oracle_product_multiplicity(spec, spec),
    ):
        with pytest.raises(InputError) as info:
            query()
        message = str(info.value)
        assert message.startswith("label 3 ") and "temperley_lieb m=2000" in message
        assert "with the parity of m" in message and len(message) < 200


def test_every_query_refuses_a_module_without_one_value_per_label():
    # TL 5 has the labels 1, 3, 5; the forward substitution trusts the length
    # of its right-hand side, and on the two values of the short module the
    # queries once answered 3, 16 and 1 (and target 5 an IndexError)
    tl = Family.TEMPERLEY_LIEB
    full = module_spec(tl, 5, "V1")
    for spec in (ModuleSpec("V1", tl, 5, 4, (1, 4)), ModuleSpec("V1", tl, 5, 4, (0, 1, 2, 4))):
        for query in (
            lambda: oracle_multiplicity(spec, 1),
            lambda: oracle_multiplicity(spec, 2),
            lambda: oracle_product_multiplicity(spec, spec),
            lambda: oracle_product_multiplicity(spec, full),
            lambda: oracle_product_multiplicity(full, spec),
        ):
            with pytest.raises(InputError, match="^character vector length mismatch$"):
                query()


@pytest.mark.parametrize("family", [Family.BRAUER, Family.ROOK])
def test_every_multiplicity_query_refuses_a_monoid_it_cannot_enumerate(family):
    # the first refusal is the enumeration check behind the brute-force table
    spec = ModuleSpec("V1", family, 3, 3, tuple(map(Fraction, (1, 2, 3, 3))))
    for query in (
        lambda: oracle_multiplicity(spec, 2),
        lambda: oracle_product_multiplicity(spec, spec),
    ):
        with pytest.raises(InputError, match=f"^{family.value} cannot be enumerated$"):
            query()


def test_oracle_product_multiplicity_rejects_unknown_target():
    # the target has left the query: a label that is not a TL 5 label is refused on either module
    v1 = module_spec(Family.TEMPERLEY_LIEB, 5, "V1")
    bad = ModuleSpec("V2", v1.family, v1.m, v1.dim, v1.charvec)
    for a, b in ((v1, bad), (bad, v1)):
        with pytest.raises(InputError, match="^label 2 is not a temperley_lieb m=5 label"):
            oracle_product_multiplicity(a, b)


def test_count_check():
    assert count_check(Family.PLANAR_ROOK, 4).actual == 70
    assert count_check(Family.TEMPERLEY_LIEB, 5).actual == 42
    assert count_check(Family.MOTZKIN, 3).actual == 51


def test_count_gate_fails_on_a_missing_element(monkeypatch):
    # the count reads the half diagrams, the bases of the cell modules
    original = oracle._half_arrays

    def one_short(family, m, i):
        arrays = original(family, m, i)
        if (family, m, i) == (Family.MOTZKIN, 4, 2):
            next(arrays)
        return arrays

    monkeypatch.setattr(oracle, "_half_arrays", one_short)
    _clear_oracle_caches()  # so the cell modules are built again, one short
    try:
        with pytest.raises(VerificationError, match=r"^\|motzkin_4\| = 306, expected 323$"):
            count_check(Family.MOTZKIN, 4)
        failed = [r.check for r in verify.check_counts() if r.status == "fail"]
    finally:
        _clear_oracle_caches()  # no module one short outlives the test
    assert failed == ["count:motzkin:4"]


def test_counting_and_pairing_build_no_diagram(monkeypatch):
    def no_diagram(*args):
        raise AssertionError("the referee built a Diagram")

    _clear_oracle_caches()
    monkeypatch.setattr(Diagram, "__post_init__", no_diagram)
    monkeypatch.setattr(diagrams, "_from_partners", no_diagram)
    results = verify.check_counts()
    assert len(results) == 18 and all(r.ok for r in results)
    for family, m in ((Family.TEMPERLEY_LIEB, 7), (Family.PLANAR_ROOK, 6), (Family.MOTZKIN, 5)):
        for i in rank_labels(family, m):
            assert len(oracle._gram_rows(family, m, i)) == len(half_diagrams(family, m, i))


def test_counting_sequences():
    assert [catalan_number(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert [motzkin_number(k) for k in range(11)] == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188]
