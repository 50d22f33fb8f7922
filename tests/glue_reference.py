"""The union-find gluing routines, the matching enumeration, the half-diagram
records and the blocks flip the library used before its partner arrays and
half-diagram rows.

Each gluing routine groups slots into connected components with union-find
and a dict, independently of `diagrams._glue`; `enumerate_diagrams` lists the
monoid by recursive non-crossing matchings and the public `Diagram`
constructor, independently of `diagrams._partner_arrays`; `_half_states`
lists half diagrams as (cups, defects) by a recursion on cups, independently
of `diagrams._half_arrays`; `flip` exchanges the rows of a diagram's blocks,
independently of `diagrams._flip_partners`; `validate_diagram`,
`blocks_are_planar` and `_partners` check blocks and build their partner
array in separate walks, independently of `diagrams._checked_partners`.  The
tests use them as referees.
The bodies are kept as they were in the library; `_apply_diagram` and
`_pairing` take and give half-diagram rows (see `diagrams._half_arrays`)
through `_record` and `_row`.
"""

from __future__ import annotations

from itertools import combinations

from growthlab.diagrams import (
    PLANAR_FAMILIES,
    Block,
    Diagram,
    Family,
    _canonical_blocks,
    max_enumerable_m,
)
from growthlab.errors import InputError
from growthlab.record import Record


class HalfDiagram(Record):
    """A planar partial matching on m points with i upward defect strands.

    cups are disjoint sorted pairs, defects the unmatched points that carry a
    strand; everything else is isolated (only planar rook and Motzkin allow
    isolated points, and only Motzkin allows cups and isolated together).
    """

    family: Family
    m: int
    cups: tuple[tuple[int, int], ...]
    defects: tuple[int, ...]

    @property
    def n_defects(self) -> int:
        return len(self.defects)


def _half_states(points: tuple[int, ...], defects_left: int, family: Family):
    """The planar states of a run of points with defects_left defects, in generation order.

    Yields (cups, defects); points not mentioned are isolated.  Inside a cup
    no defect may appear (it could not escape upward), which is exactly the
    planarity constraint for half diagrams on a line.
    """
    if defects_left > len(points):
        return
    if not points:
        yield ((), ())
        return
    p, rest = points[0], points[1:]
    if defects_left:
        for cups, defects in _half_states(rest, defects_left - 1, family):
            yield cups, (p,) + defects
    if family is not Family.TEMPERLEY_LIEB:
        # p isolated
        yield from _half_states(rest, defects_left, family)
    if family is not Family.PLANAR_ROOK:
        for idx in range(len(rest)):
            if family is Family.TEMPERLEY_LIEB and idx % 2 == 1:
                continue
            q = rest[idx]
            for in_cups, _ in _half_states(rest[:idx], 0, family):
                for out_cups, out_defects in _half_states(rest[idx + 1:], defects_left, family):
                    yield ((p, q),) + in_cups + out_cups, out_defects


def _record(row: tuple[int, ...], family: Family = None) -> HalfDiagram:
    """The half-diagram row as a record: 1-based sorted cups, and the defects (entry m)."""
    m = len(row)
    cups = tuple((k + 1, q + 1) for k, q in enumerate(row) if k < q < m)
    return HalfDiagram(family, m, cups, tuple(k + 1 for k, q in enumerate(row) if q == m))


def _row(x: HalfDiagram) -> tuple[int, ...]:
    """The record as a half-diagram row: cup partner, m for a defect, -1 if isolated."""
    row = [x.m if k in x.defects else -1 for k in range(1, x.m + 1)]
    for a, b in x.cups:
        row[a - 1], row[b - 1] = b - 1, a - 1
    return tuple(row)


def components(n: int, pairs) -> list[int]:
    """Union-find over undirected pairs: a representative per node.

    Two nodes get the same representative exactly when the pairs connect them.
    """
    parent = list(range(n))
    for a, b in pairs:
        # find both roots, halving the paths on the way (inlined: the oracle
        # and composition call this on every diagram product)
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
    for x in range(n):
        root = parent[x]
        while parent[root] != root:
            root = parent[root]
        parent[x] = root
    return parent


def _compose_blocks(
    blocks_a, blocks_b, m: int
) -> tuple[tuple[Block, ...], int, int]:
    """Core composition on canonical block tuples.

    Slots: 0..m-1 result top, m..2m-1 glued middle, 2m..3m-1 result bottom.
    Returns (result blocks, closed middle loops, dead middle points).
    """
    pairs = [(b[0] - 1, b[1] - 1) for b in blocks_a if len(b) == 2]
    pairs += [(m + b[0] - 1, m + b[1] - 1) for b in blocks_b if len(b) == 2]
    degree = [0] * (3 * m)
    for x, y in pairs:
        degree[x] += 1
        degree[y] += 1
    groups: dict[int, list[int]] = {}
    for slot, root in enumerate(components(3 * m, pairs)):
        groups.setdefault(root, []).append(slot)

    blocks: list[Block] = []
    loops = 0
    isolated = 0
    for members in groups.values():
        boundary = []
        for s in members:
            if s < m:
                boundary.append(s + 1)
            elif s >= 2 * m:
                boundary.append(s - m + 1)
        if boundary:
            blocks.append(tuple(sorted(boundary)))
        elif all(degree[s] == 2 for s in members):
            loops += 1
        else:
            isolated += len(members)
    return _canonical_blocks(blocks), loops, isolated


def _apply_diagram(d: Diagram, row: tuple[int, ...]) -> tuple[int, ...] | None:
    """Glue the half diagram row under d (its points on d's bottom row); None when a defect dies."""
    x = _record(row, d.family)
    m = d.m
    # slots 0..m-1: d's top row; m..2m-1: the glued middle row
    pairs = [(b[0] - 1, b[1] - 1) for b in d.blocks if len(b) == 2]
    pairs += [(m + a - 1, m + b - 1) for a, b in x.cups]
    root_of = components(2 * m, pairs)
    groups: dict[int, list[int]] = {}
    for slot, root in enumerate(root_of):
        groups.setdefault(root, []).append(slot)
    defect_roots = {root_of[m + v - 1] for v in x.defects}
    if len(defect_roots) != x.n_defects:
        return None  # two defects merged

    new_defects = []
    new_cups = []
    for root, members in groups.items():
        tops = [s + 1 for s in members if s < m]
        if root in defect_roots:
            if len(tops) != 1:
                return None  # the defect died inside
            new_defects.append(tops[0])
        elif len(tops) == 2:
            new_cups.append((tops[0], tops[1]))
        # len(tops) == 1 -> isolated result point; 0 -> loop or dead middle, factor 1
    return _row(HalfDiagram(
        x.family, m, tuple(sorted(new_cups)), tuple(sorted(new_defects))
    ))


def _pairing(x_row: tuple[int, ...], y_row: tuple[int, ...]) -> int:
    """Glue x (flipped) on top of y: 1 iff every defect propagates through.

    Components of the union of the two cup sets are paths or cycles; cycles
    close into loops (factor 1, the monoid convention); a path is good when
    it joins one x-defect to one y-defect, and fatal when a defect meets a
    defect on its own side or a dead end.
    """
    x, y = _record(x_row), _record(y_row)
    root_of = components(x.m, [(a - 1, b - 1) for a, b in x.cups + y.cups])

    x_def: dict[int, int] = {}
    y_def: dict[int, int] = {}
    for v in x.defects:
        r = root_of[v - 1]
        x_def[r] = x_def.get(r, 0) + 1
    for v in y.defects:
        r = root_of[v - 1]
        y_def[r] = y_def.get(r, 0) + 1
    for root in set(x_def) | set(y_def):
        if (x_def.get(root, 0), y_def.get(root, 0)) != (1, 1):
            return 0
    return 1


def _noncrossing_matchings(points: tuple[int, ...], singletons: bool):
    """Planar (partial, if singletons) matchings of points listed in boundary order."""
    if not points:
        yield ()
        return
    p, rest = points[0], points[1:]
    if singletons:
        yield from _noncrossing_matchings(rest, singletons)
    for idx in range(len(rest)):
        if not singletons and idx % 2 == 1:
            continue  # a perfect matching needs an even number of points inside
        q = rest[idx]
        for inside in _noncrossing_matchings(rest[:idx], singletons):
            for after in _noncrossing_matchings(rest[idx + 1:], singletons):
                yield ((p, q),) + inside + after


def enumerate_diagrams(family: Family, m: int) -> tuple[Diagram, ...]:
    """Every element of the monoid, duplicate-free, in a deterministic order."""
    if family not in PLANAR_FAMILIES:
        raise InputError(f"{family.value} cannot be enumerated")
    bound = max_enumerable_m(family)
    if not 1 <= m <= bound:
        raise InputError(
            f"m={m} outside the enumerable range 1..{bound} for {family.value} "
            "(set GROWTHLAB_MAX_M to override)"
        )
    out: list[Diagram] = []
    if family is Family.PLANAR_ROOK:
        tops = range(1, m + 1)
        bottoms = range(m + 1, 2 * m + 1)
        for k in range(m + 1):
            for s in combinations(tops, k):
                for t in combinations(bottoms, k):
                    # the order-preserving matching is the unique planar one
                    blocks = [(a, b) for a, b in zip(s, t)]
                    blocks += [(p,) for p in tops if p not in s]
                    blocks += [(p,) for p in bottoms if p not in t]
                    out.append(Diagram(family, m, tuple(blocks)))
    else:
        boundary = tuple(range(1, m + 1)) + tuple(range(2 * m, m, -1))
        singletons = family is Family.MOTZKIN
        for pairs in _noncrossing_matchings(boundary, singletons):
            matched = {p for pair in pairs for p in pair}
            blocks = list(pairs) + [(p,) for p in range(1, 2 * m + 1) if p not in matched]
            out.append(Diagram(family, m, tuple(blocks)))
    return tuple(sorted(out, key=lambda d: d.blocks))


def flip(d: Diagram) -> Diagram:
    """Exchange top and bottom rows; an involutive anti-automorphism."""
    m = d.m
    return Diagram(
        d.family,
        m,
        tuple(tuple(p + m if p <= m else p - m for p in b) for b in d.blocks),
    )


def _boundary_pos(p: int, m: int) -> int:
    # Walk the rectangle boundary: 1..m along the top, then 2m..m+1 along the
    # bottom right-to-left.  Chords are non-crossing iff their endpoints do
    # not interleave in this circular order.
    return p if p <= m else 3 * m + 1 - p


def blocks_are_planar(blocks, m: int) -> bool:
    pairs = [b for b in blocks if len(b) == 2]
    pos = [(tuple(sorted(_boundary_pos(p, m) for p in b))) for b in pairs]
    for (a1, a2), (b1, b2) in combinations(pos, 2):
        if (a1 < b1 < a2) != (a1 < b2 < a2):
            return False
    return True


def validate_diagram(family: Family, m: int, blocks) -> None:
    """Raise InputError unless the canonical blocks are a well-formed member of family."""
    if family not in PLANAR_FAMILIES:
        raise InputError(f"{family.value} diagrams are not supported")
    if m < 1:
        raise InputError("need at least one strand")
    seen: list[int] = []
    for b in blocks:
        if len(b) not in (1, 2):
            raise InputError(f"block {b} has size {len(b)}")
        seen.extend(b)
    if sorted(seen) != list(range(1, 2 * m + 1)):
        raise InputError("blocks do not partition the 2m points")
    if family is Family.TEMPERLEY_LIEB and any(len(b) == 1 for b in blocks):
        raise InputError("Temperley-Lieb diagrams are perfect matchings")
    if family is Family.PLANAR_ROOK:
        for b in blocks:
            if len(b) == 2 and not (b[0] <= m < b[1]):
                raise InputError("planar rook blocks of size 2 must join top to bottom")
    if not blocks_are_planar(blocks, m):
        raise InputError("blocks cross")


def _partners(blocks, m: int) -> tuple[int, ...]:
    """The partner array of blocks; InputError for a block of more than two points."""
    pa = [-1] * (2 * m)
    for b in blocks:
        if len(b) == 2:
            pa[b[0] - 1], pa[b[1] - 1] = b[1] - 1, b[0] - 1
        elif len(b) > 2:
            raise InputError(f"block {b} has more than two points")
    return tuple(pa)
