"""Planar diagram monoids: elements, composition, Green's data.

A diagram on m strands is a partition of the 2m boundary points of a
rectangle — top points 1..m (left to right), bottom points m+1..2m (the
point m+k sits below the point k) — into blocks of size at most two, drawable
without crossings.  Three planar families are enumerable and composable here:

* planar rook: every size-2 block joins a top point to a bottom point;
* Temperley-Lieb: a perfect matching (no singletons);
* Motzkin: any planar partial matching (singletons allowed).

The symmetric family tags exist only so growth-formula code elsewhere can
name them; they cannot be enumerated or composed.  The Diagram constructor
refuses blocks outside their family (InputError) and keeps d.partners, which
every reader below trusts; make_diagram is the same call.

Composition stacks the left factor on top of the right one, traces the glued
middle row, and discards closed middle loops and dead middle points, counting
both (the monoid convention: each discarded component contributes a factor 1).
It runs on partner arrays, as do enumeration and the Cayley graphs of
green_data (a Froidure-Pin closure that glues only its reduced products; the
J-classes are read off the R- and L-classes); the oracle's cell action walks
the top row of a product as the first loop of `_glue` does.
A half diagram is one row of m points, cups and defects (`_half_arrays`, one
walk over the row), and it is the basis element of the oracle's cell
modules; an element is a top and a bottom half diagram with as many defects,
the defects joined in order.

Diagrams are immutable and every function here is pure.
"""

from __future__ import annotations

import os
import sys
from enum import Enum
from functools import lru_cache
from math import comb

from .errors import InputError, InternalCheckError
from .graph import scc
from .record import Record


class Family(Enum):
    PLANAR_ROOK = "planar_rook"
    TEMPERLEY_LIEB = "temperley_lieb"
    MOTZKIN = "motzkin"
    ROOK = "rook"
    BRAUER = "brauer"
    ROOK_BRAUER = "rook_brauer"
    PARTITION = "partition"
    FULL_TRANSFORMATION = "full_transformation"
    PARTIAL_TRANSFORMATION = "partial_transformation"

    # a dunder is no member: every memo keyed by a family hashes it in C, not by Enum's name hash
    __hash__ = object.__hash__


PLANAR_FAMILIES = frozenset(
    {Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN}
)

# Default strand-count caps for full enumeration; GROWTHLAB_MAX_M lifts them
# (at the user's risk: the monoid order grows exponentially in m, and so does
# the work of enumeration, green_data and the oracle's cell modules).
DEFAULT_MAX_M = {
    Family.PLANAR_ROOK: 6,
    Family.TEMPERLEY_LIEB: 7,
    Family.MOTZKIN: 5,
}


def _check_type(name: str, value, kind: type) -> None:
    """The rule for a family, a module selector and (p, l) params: value is a kind."""
    if not isinstance(value, kind):
        raise InputError(f"{name} must be a {kind.__name__}, not {value!r}")


def _check_int(name: str, value, low: int | None = None) -> None:
    """The int rule of every int argument: an int (a bool is none here) and, given low, at least low."""
    if type(value) is not int:
        raise InputError(f"{name} must be an int, not {value!r}")
    if low is not None and value < low:
        raise InputError(f"need {name} >= {low}")


def _check_family_and_m(family: Family, m: int, low: int | None = 1) -> None:
    """The family-and-m rule: family is a `Family` and m an int of at least low (1 unless given)."""
    _check_type("family", family, Family)
    _check_int("m", m, low)


def max_enumerable_m(family: Family) -> int:
    env = os.environ.get("GROWTHLAB_MAX_M")
    if env is not None:
        try:
            value = int(env)
        except ValueError as exc:
            raise InputError(f"GROWTHLAB_MAX_M={env!r} is not an integer") from exc
        _check_int("GROWTHLAB_MAX_M", value, 1)
        return value
    return DEFAULT_MAX_M[family]


Block = tuple[int, ...]


def _canonical_blocks(blocks) -> tuple[Block, ...]:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


# A partner array lists the 2m points of a diagram by slot, point p in slot
# p - 1 (top row 0..m-1, bottom row m..2m-1): pa[s] is the slot joined to s,
# or -1 for a singleton.  Blocks have at most two points, so the array is a
# complete and canonical key.
Partners = tuple[int, ...]


def _checked_partners(family: Family, m: int, blocks) -> tuple[tuple[Block, ...], Partners]:
    """(canonical blocks, partner array); InputError unless blocks are a diagram of family on m strands.
    Types come before anything is sorted: m and every point must be an int (not a bool); a point
    out of 1..2m or met twice is named after the walk, after any block of a wrong size.  Last, one
    stack pass along the boundary (top slots left to right, then bottom slots right to left): a
    chord crosses another unless its second end closes the chord left open last."""
    if not isinstance(family, Family):
        raise InputError(f"{family!r} is not a diagram family")
    if family not in PLANAR_FAMILIES:
        raise InputError(f"{family.value} diagrams are not supported")
    _check_int("m", m)
    if m < 1:
        raise InputError("need at least one strand")
    try:
        blocks = iter(blocks)
    except TypeError:
        raise InputError(f"blocks must be an iterable of blocks, not {blocks!r}") from None
    blocks = tuple(blocks)
    for b in blocks:
        if not isinstance(b, (tuple, list)):
            raise InputError(f"block {b!r} is not a tuple of points")
    if any(type(p) is not int for b in blocks for p in b):
        raise InputError("blocks do not partition the 2m points")
    blocks = _canonical_blocks(blocks)
    pa = [-2] * min(2 * m, sum(map(len, blocks)))  # -2 until met; no slot past the points given
    partition = True
    for b in blocks:
        if len(b) not in (1, 2):
            raise InputError(f"block {b} has size {len(b)}")
        for p, q in zip(b, b[::-1]):  # a singleton's q is p, its partner -1
            if 0 < p <= len(pa) and pa[p - 1] == -2:
                pa[p - 1] = q - 1 if q != p else -1
            else:
                partition = False
    if not partition or -2 in pa or len(pa) < 2 * m:
        raise InputError("blocks do not partition the 2m points")
    if family is Family.TEMPERLEY_LIEB and -1 in pa:
        raise InputError("Temperley-Lieb diagrams are perfect matchings")
    if family is Family.PLANAR_ROOK and any(q >= 0 and (s < m) == (q < m) for s, q in enumerate(pa)):
        raise InputError("planar rook blocks of size 2 must join top to bottom")
    open_ends = []
    for s in (*range(m), *range(2 * m - 1, m - 1, -1)):
        if open_ends and open_ends[-1] == pa[s]:
            open_ends.pop()
        elif pa[s] >= 0:
            open_ends.append(s)
    if open_ends:
        raise InputError("blocks cross")
    return blocks, tuple(pa)


class Diagram(Record):
    """An element of a planar family, checked when made; partners, its partner array, is not a field."""

    family: Family
    m: int
    blocks: tuple[Block, ...]  # canonical: blocks sorted, each block sorted

    def __post_init__(self):
        blocks, partners = _checked_partners(self.family, self.m, self.blocks)
        vars(self).update(blocks=blocks, partners=partners)

    def rank(self) -> int:
        return sum(1 for b in self.blocks if len(b) == 2 and b[0] <= self.m < b[1])

    def __str__(self) -> str:
        return format_blocks(self.blocks, self.m)


def format_blocks(blocks, m: int) -> str:
    """Stable text form, e.g. "{1,2}{1',2'}" (primes mark bottom points)."""

    def name(p: int) -> str:
        return str(p) if p <= m else f"{p - m}'"

    return "".join("{" + ",".join(name(p) for p in b) + "}" for b in _canonical_blocks(blocks))


def make_diagram(family: Family, m: int, blocks) -> Diagram:
    """The same call as Diagram(family, m, blocks)."""
    return Diagram(family, m, blocks)


def identity_diagram(family: Family, m: int) -> Diagram:
    _check_int("m", m)  # before its strands are counted
    return Diagram(family, m, tuple((k, m + k) for k in range(1, m + 1)))


class ComposeResult(Record):
    """The product of two diagrams, with the middle loops and dead points it dropped."""

    result: Diagram
    loops: int
    middle_isolated: int


def _blocks(pa: Partners) -> tuple[Block, ...]:
    """Canonical blocks, read off in slot order: each block first meets its least point."""
    return tuple(
        [(s + 1,) if q < 0 else (s + 1, q + 1) for s, q in enumerate(pa) if q < 0 or q > s]
    )


def _from_partners(family: Family, m: int, pa: Partners) -> Diagram:
    """The diagram of pa, unchecked (enumerated, or a product or flip of checked arrays)."""
    d = object.__new__(Diagram)
    vars(d).update(family=family, m=m, blocks=_blocks(pa), partners=pa)
    return d


def _glue(pa: Partners, pb: Partners) -> Partners:
    """Stack pa on top of pb: the product's partner array.

    Middle point k is the bottom slot m + k of pa and the top slot k of pb.
    Every point has at most two partners, so the component of a boundary
    point is a path that zigzags through the middle until it reaches the
    boundary or a dead end.  One walk from each top point down through pa,
    then from each bottom point not yet joined up through pb.
    """
    m = len(pa) // 2
    out = [-1] * (2 * m)
    for s in range(m):
        if out[s] < 0:
            q = pa[s]
            while q >= m and 0 <= (q := pb[q - m]) < m:  # q is a middle point
                q = pa[q + m]
            if q >= 0:
                out[s], out[q] = q, s
    for s in range(m, 2 * m):
        if out[s] < 0:
            q = pb[s]
            while 0 <= q < m and (q := pa[q + m]) >= m:
                q = pb[q - m]
            if q >= 0:
                out[s], out[q] = q, s
    return tuple(out)


def _middle(pa: Partners, pb: Partners) -> tuple[int, int]:
    """(closed loops, dead middle points) of pa stacked on pb, for compose.

    The middle points left over by _glue's boundary paths lie on paths with
    two dead ends (dead points) or on cycles (closed loops).
    """
    m = len(pa) // 2
    up = [q - m if q >= m else -1 for q in pa[m:]]  # middle neighbours only
    down = [q if q < m else -1 for q in pb[:m]]
    seen = [False] * m

    def trace(k: int, upper: bool) -> int:
        # mark the middle points from k on, leaving k upwards if upper
        count = 0
        while k >= 0 and not seen[k]:
            seen[k] = True
            count += 1
            k = up[k] if upper else down[k]
            upper = not upper
        return count

    for k in range(m):  # the boundary paths, from a middle end
        if 0 <= pa[k + m] < m or pb[k] >= m:
            trace(k, pb[k] >= m)
    loops = dead = 0
    for k in range(m):  # the paths, from one dead end
        if not seen[k] and (up[k] < 0 or down[k] < 0):
            dead += trace(k, up[k] >= 0)
    for k in range(m):  # what is left lies on cycles
        if not seen[k]:
            trace(k, True)
            loops += 1
    return loops, dead


def compose(a: Diagram, b: Diagram) -> ComposeResult:
    """Stack a on top of b (_glue); count and discard middle loops and dead points (_middle)."""
    if a.family is not b.family or a.m != b.m:
        raise InputError("can only compose diagrams of the same family and size")
    pa, pb = a.partners, b.partners
    return ComposeResult(_from_partners(a.family, a.m, _glue(pa, pb)), *_middle(pa, pb))


def rank(d: Diagram) -> int:
    """Number of through strands (blocks joining top to bottom)."""
    return d.rank()


def _flip_partners(pa: Partners) -> Partners:
    """pa with its top and bottom rows exchanged: slot s moves to s ± m."""
    m = len(pa) // 2
    return tuple([q if q < 0 else (q + m) % (2 * m) for q in pa[m:] + pa[:m]])


def flip(d: Diagram) -> Diagram:
    """Exchange top and bottom rows; an involutive anti-automorphism."""
    return _from_partners(d.family, d.m, _flip_partners(d.partners))


def rank_labels(family: Family, m: int) -> tuple[int, ...]:
    """The set of possible ranks at m >= 1, ascending (TL ranks share the parity of m)."""
    _check_family_and_m(family, m)
    return tuple(_rank_range(family, m))


def _rank_range(family: Family, m: int) -> range:
    """The ranks of `rank_labels` as a range, refused at the same m, without building them."""
    if m >= sys.maxsize:  # past it m + 1 overflows a range: no sequence is so long
        raise InputError(f"need m < sys.maxsize = {sys.maxsize}")
    if family is Family.TEMPERLEY_LIEB:
        return range(m % 2, m + 1, 2)
    return range(m + 1)


@lru_cache(maxsize=None, typed=True)  # typed: m = 3.0 or j = True is no hit on 3 or 1
def class_idempotent(family: Family, m: int, j: int) -> Diagram:
    """The canonical rank-j idempotent.

    Through strands sit at positions 1..j.  The remaining positions are
    isolated top and bottom (planar rook, Motzkin) or paired into adjacent
    cups on top and adjacent caps on bottom (Temperley-Lieb).
    """
    _check_int("j", j)
    if j not in rank_labels(family, m):
        raise InputError(f"rank {j} is not attained in {family.value} on {m} strands")
    blocks = [(k, m + k) for k in range(1, j + 1)]
    if family is Family.TEMPERLEY_LIEB:
        for k in range(j + 1, m, 2):
            blocks.append((k, k + 1))
            blocks.append((m + k, m + k + 1))
    else:
        for k in range(j + 1, m + 1):
            blocks.append((k,))
            blocks.append((m + k,))
    return Diagram(family, m, tuple(blocks))


def _check_enumerable(family: Family, m: int, capped: bool = True) -> None:
    """InputError unless family is planar and the int m has 1 <= m <= its cap (any m >= 1 if not capped)."""
    _check_family_and_m(family, m, None)
    if family not in PLANAR_FAMILIES:
        raise InputError(f"{family.value} cannot be enumerated")
    if m < 1 or capped and m > max_enumerable_m(family):
        raise InputError(
            f"m={m} outside the enumerable range 1..{max_enumerable_m(family)} for "
            f"{family.value} (set GROWTHLAB_MAX_M to override)"
        )


def _half_arrays(family: Family, m: int, i: int):
    """The half diagrams on m points with i defects, as rows, each once.

    Entry k is the cup partner of point k, m for a defect or -1 for an
    isolated point.  One walk over the points with a stack of open arcs:
    each point closes the arc on top (not planar rook), opens an arc or
    (not Temperley-Lieb) stays single.  The arcs still open at the end are
    the defects, so no defect sits under a cup; the walk prunes when the
    stack is further from i than the points left.  A planar-rook arc never
    closes, so there a point opens one only while fewer than i are open.
    """
    row = [-1] * m  # an open arc is a defect until it closes
    stack: list[int] = []
    cups = family is not Family.PLANAR_ROOK
    singles = family is not Family.TEMPERLEY_LIEB

    def walk(k: int):
        if k == m:
            yield tuple(row)
            return
        left, gap = m - k - 1, len(stack) - i
        if cups and stack and abs(gap - 1) <= left:  # close the arc on top
            t = stack.pop()
            row[k], row[t] = t, k
            yield from walk(k + 1)
            row[k], row[t] = -1, m
            stack.append(t)
        if (cups or gap < 0) and abs(gap + 1) <= left:  # open an arc
            stack.append(k)
            row[k] = m
            yield from walk(k + 1)
            row[k] = -1
            stack.pop()
        if singles and abs(gap) <= left:
            yield from walk(k + 1)

    yield from walk(0)


def _partner_arrays(family: Family, m: int):
    """Every element as a partner array, each once: for each rank i, every pair of a
    top and a bottom half diagram with i defects, the j-th defects joined."""
    _check_enumerable(family, m)
    for i in rank_labels(family, m):
        halves = []
        for row in _half_arrays(family, m, i):
            defects = [k for k, q in enumerate(row) if q == m]
            # the row moved to the bottom slots; the defects' 2m is overwritten
            halves.append((row, tuple([q if q < 0 else m + q for q in row]), defects))
        for top, _, top_defects in halves:
            for _, bottom, bottom_defects in halves:
                pa = list(top + bottom)
                for s, t in zip(top_defects, bottom_defects):
                    pa[s], pa[m + t] = m + t, s
                yield tuple(pa)


def enumerate_diagrams(family: Family, m: int) -> tuple[Diagram, ...]:
    """Every element of the monoid, duplicate-free, sorted by blocks."""
    elements = (_from_partners(family, m, pa) for pa in _partner_arrays(family, m))
    return tuple(sorted(elements, key=lambda d: d.blocks))


def expected_order(family: Family, m: int) -> int:
    """Known monoid orders (central binomial / Catalan / Motzkin numbers), for m >= 1."""
    _check_type("family", family, Family)
    if family not in PLANAR_FAMILIES:
        raise InputError(f"no enumeration for {family.value}")
    _check_int("m", m, 1)
    if family is Family.PLANAR_ROOK:
        return comb(2 * m, m)
    return catalan_number(m) if family is Family.TEMPERLEY_LIEB else motzkin_number(2 * m)


def catalan_number(k: int) -> int:
    """Independent recursion C_0 = 1, C_{k+1} = sum C_i C_{k-i}."""
    cs = [1]
    for n in range(k):
        cs.append(sum(cs[i] * cs[n - i] for i in range(n + 1)))
    return cs[k]


def motzkin_number(k: int) -> int:
    """Independent recursion M_k = M_{k-1} + sum_{i} M_i M_{k-2-i}."""
    ms = [1, 1]
    for n in range(2, k + 1):
        ms.append(ms[n - 1] + sum(ms[i] * ms[n - 2 - i] for i in range(n - 1)))
    return ms[k]


class GreenData(Record):
    """Green's class counts of a monoid: J-, L- and R-classes, and its units."""

    j_class_count: int
    l_class_count: int
    r_class_count: int
    unit_count: int


def generators(family: Family, m: int) -> tuple[Diagram, ...]:
    """A generating set of the monoid, for the Cayley graphs of green_data.

    Each generator is the identity away from position i: the cup e_i joins
    i to i+1 and i' to (i+1)'; p_i leaves i and i' isolated; the shifts l_i
    and r_i join i+1 to i' and i to (i+1)', leaving the other two points
    isolated.  Temperley-Lieb uses the e_i, planar rook the l_i and r_i, and
    Motzkin the e_i, l_i and r_i.  The p_i are left out for m >= 2, where
    each is a product of shifts (p_i = l_i r_i for i < m, p_m = r_{m-1}
    l_{m-1}); at m = 1 there are no shifts and p_1 alone generates.
    """
    _check_enumerable(family, m, capped=False)

    def local(moved, blocks) -> Diagram:
        strands = [(k, m + k) for k in range(1, m + 1) if k not in moved]
        return Diagram(family, m, tuple(strands + blocks))

    gens = []
    if family is not Family.PLANAR_ROOK:
        gens += [local((i, i + 1), [(i, i + 1), (m + i, m + i + 1)]) for i in range(1, m)]
    if family is not Family.TEMPERLEY_LIEB:
        gens += [local((i, i + 1), [(i + 1, m + i), (i,), (m + i + 1,)]) for i in range(1, m)]
        gens += [local((i, i + 1), [(i, m + i + 1), (i + 1,), (m + i,)]) for i in range(1, m)]
        if m == 1:
            gens.append(local((1,), [(1,), (2,)]))  # p_1
    return tuple(gens)


def _cayley_graphs(family: Family, m: int) -> tuple[tuple[Partners, ...], list[list[int]], list[list[int]]]:
    """(elements, right, left): the monoid's Cayley graphs on generators(family, m).

    right[x][a] is the index of x·a and left[x][a] that of a·x, for the
    generator a = generators(family, m)[a]; elements[0] is the identity.
    The elements are partner arrays from the Froidure-Pin closure of
    green_data, which must equal _partner_arrays(family, m) as a set.  Element
    x is the least word first[x]·suffix[x] = prefix[x]·last[x] of length[x] in
    length-lex order, so an edge s·a is reduced (it made its element t) iff
    prefix[t] is s and last[t] is a; only reduced edges are glued.
    """
    enumerated = set(_partner_arrays(family, m))
    gens = [a.partners for a in generators(family, m)]
    one = identity_diagram(family, m).partners
    arrays, index = [one], {one: 0}
    first, last, prefix, suffix, length = [-1], [-1], [-1], [-1], [0]
    right, left = [], []

    def add_left(end: int) -> None:  # a·z = (a·prefix(z))·last(z) for the elements before end
        left.extend([[right[p][last[z]] for p in left[prefix[z]]] if z else right[0]
                     for z in range(len(left), end)])

    for x, y in enumerate(arrays):  # arrays grows as the closure proceeds
        if length[x] > length[x - 1]:  # every element shorter than x has its right row
            add_left(x)
        row = []
        right.append(row)
        b, s = first[x], suffix[x]
        for a, g in enumerate(gens):
            if not x:
                product, links = g, (a, 0)  # 1·g = g
            else:
                t = right[s][a]
                # y·a = b·t = (b·prefix(t))·last(t): an earlier row, or y's with last(t) < a
                if prefix[t] != s or last[t] != a:
                    row.append(right[left[prefix[t]][b]][last[t]] if t else right[0][b])
                    continue
                product, links = _glue(y, g), (b, t)
            k = index.get(product)
            if k is None:
                if product not in enumerated:
                    raise InternalCheckError(f"a product left the enumerated {family.value} monoid")
                k = index[product] = len(arrays)
                arrays.append(product)
                first.append(links[0])
                suffix.append(links[1])
                last.append(a)
                prefix.append(x)
                length.append(length[x] + 1)
            row.append(k)
    if len(arrays) < len(enumerated):
        raise InternalCheckError(f"generators({family.value}, {m}) do not generate the monoid")
    add_left(len(arrays))
    return tuple(arrays), right, left


def green_data(family: Family, m: int) -> GreenData:
    """Green's class counts from the right and left Cayley graphs.

    The right graph joins x to xa and the left graph joins x to ax, for every
    generator a; so the nodes x reaches are its right ideal xM and its left
    ideal Mx.  R-classes are the strongly connected components of the right
    graph and L-classes those of the left graph.  D = R v L, and D = J for
    finite monoids, so the J-classes are the components of the graph joining
    each element's R-class to its L-class.  The units are the R-class of 1.

    Both graphs come from one closure by Froidure and Pin ("Algorithms for
    computing finite semigroups", 1997), breadth-first from the identity.
    For y = b·s only a reduced edge s·a is composed; else y·a = b·r =
    (b·prefix(r))·last(r) for r = s·a (b when r = 1), and a·y =
    (a·prefix(y))·last(y), are earlier edges.  That composes 157, 557 and 909
    products at TL 6, PRO 5 and MO 4, against 2|M||A| = 1,320, 4,032 and
    5,814 for composing both graphs edge by edge.
    """
    return _green_counts(*_cayley_graphs(family, m)[1:])


def _green_counts(right: list[list[int]], left: list[list[int]]) -> GreenData:
    """Green's class counts from the Cayley graphs of green_data (node 0 is 1); the
    link graph joins R-class r and L-class l (node r_count + l) both ways."""
    r_of, l_of = scc(right), scc(left)
    r_count, l_count = max(r_of) + 1, max(l_of) + 1
    links = [[] for _ in range(r_count + l_count)]
    for r, l in zip(r_of, l_of):
        links[r].append(r_count + l)
        links[r_count + l].append(r)
    return GreenData(len(set(scc(links))), l_count, r_count, r_of.count(r_of[0]))
