"""Formula-free verification: cell modules on half-diagram bases.

Everything here recomputes representation data directly from diagrams so the
closed forms elsewhere have an independent referee:

* half diagrams — planar partial matchings on m points with i unmatched
  "defect" points (defects may not sit under a cup) — are the basis of the
  cell module S_i, for a planar family and m >= 1.  They come from the row
  walk that also enumerates the monoid (each element a pair of them), as
  rows: entry k the cup partner of point k, m for a defect, -1 for an
  isolated point;
* a half diagram x lifts to a diagram: its cups on top, each defect k
  joined straight down to k'.  A monoid element d acts by the monoid
  product: d·x is the top row of d·lift(x), and it is zero when that product
  has fewer through strands than x has defects (a defect was capped, killed
  or merged); closed loops and dead points contribute a factor 1.  Only that
  top row is walked, from each top point of d as `diagrams._glue` walks it;
* so a diagram d acts on the basis as a partial map, kept as an index map:
  entry c is the basis index of d·x_c, or -1 where the image is zero.
  Characters count its fixed points, and every product with it adds rows;
  the dense 0/1 matrix (`CellModule.action`) is built only on request;
* the cellular bilinear form pairs two half diagrams face to face: <x, y>
  is 1 when flip(lift(x))·lift(y) keeps every defect as a through strand,
  else 0, decided by a walk that alternates the cups of y and of x;
* the simple module V_i is S_i modulo the radical of that form; one pass per
  module checks the form under every class idempotent and takes its trace on
  S_i as the count of its fixed points and on V_i as the rank of the Gram
  rows there, a prefix rank of one elimination (see `_module_rows`); the
  brute-force tables are those rows of ints (`_oracle_rows`);
* a query answers with the whole decomposition in label order, as
  `fusion.power_multiplicities` does: of V^(x)n or of V_a (x) V_b.  Each
  module given passes `_check_module` (an enumerable monoid, a label, one
  value per label and, for a cell or simple module, the oracle's own row);
  then one uncached forward substitution on ints (`linalg._substitute`)
  against the brute-force simple table, checked unit upper triangular when
  built, solves, and a negative entry refuses the whole tuple.

Cell modules are cached per (family, m, i); an index map is made at each
call, and the cached per-module pass (`_module_rows`) asks once per class
idempotent.  Every cached value (a `CellModule`, a `Mat`, rows of ints) is
frozen, so no caller can change what a later query reads.  Recomputation is
idempotent (pure functions of immutable inputs), so concurrent queries are
safe — a race can at worst duplicate work.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .diagrams import (
    Diagram,
    Family,
    _check_enumerable,
    _half_arrays,
    class_idempotent,
    expected_order,
    rank_labels,
)
from .errors import InputError, InternalCheckError, VerificationError
from .growth import ModuleSpec, parse_selector
from .linalg import Mat, _prefix_ranks, _substitute
from .record import Record
from .tables import label_index


# ---------------------------------------------------------------------------
# half diagrams and the cell action

def half_diagrams(family: Family, m: int, i: int) -> tuple[tuple[int, ...], ...]:
    """The basis of the cell module S_i: the half diagrams with i defects, as
    rows (cup partner, m for a defect, -1 if isolated) in walk order."""
    _check_enumerable(family, m, capped=False)
    label_index(rank_labels(family, m), i, family, m)
    return tuple(_half_arrays(family, m, i))


class CellModule(Record):
    """Cell module S_i for (family, m) and the action on it; basis, its half diagrams, is not a field."""

    family: Family
    m: int
    i: int

    def __post_init__(self):
        basis = half_diagrams(self.family, self.m, self.i)
        vars(self).update(basis=basis, _index={x: k for k, x in enumerate(basis)})

    @property
    def dim(self) -> int:
        return len(self.basis)

    def image(self, d: Diagram) -> tuple[int, ...]:
        """d as an index map: entry c is the basis index of d·x_c, or -1 where it is 0.

        The top row of d·lift(x_c) is walked as `diagrams._glue` walks it: a
        bottom point m + k of d meets point k of x_c, which leads back up
        through its cup partner, or is a defect (a through strand) or isolated.
        """
        if d.family is not self.family or d.m != self.m:
            raise InputError("diagram does not act on this module")
        pd, m = d.partners, self.m
        images = []
        for x in self.basis:
            top = [-1] * m
            for s in range(m):
                if top[s] < 0:
                    q = pd[s]
                    while q >= m and 0 <= (q := x[q - m]) < m:
                        q = pd[q + m]
                    if q >= m:
                        top[s] = m
                    elif q >= 0:
                        top[s], top[q] = q, s
            if top.count(m) < self.i:
                images.append(-1)  # a defect died: the product has lower rank
                continue
            try:
                images.append(self._index[tuple(top)])
            except KeyError as exc:
                raise InternalCheckError(f"action left the half-diagram basis: {tuple(top)}") from exc
        return tuple(images)

    def action(self, d: Diagram) -> Mat:
        """The 0/1 matrix of d on the basis, built from its index map."""
        image = self.image(d)
        return Mat([[int(image[c] == r) for c in range(self.dim)] for r in range(self.dim)])


@lru_cache(maxsize=None)
def cell_module(family: Family, m: int, i: int) -> CellModule:
    return CellModule(family, m, i)


# ---------------------------------------------------------------------------
# the cellular form and the characters

_Rows = tuple[tuple[int, ...], ...]


def _gram_rows(family: Family, m: int, i: int) -> _Rows:
    """The cellular bilinear form on the half-diagram basis of S_i, as int rows.

    <x, y> is 1 when flip(lift(x))·lift(y) keeps all i through strands, that
    is when every defect of x runs into a defect of y; else 0.  From each
    defect of x the walk takes a cup of y, then one of x, and so on, until it
    ends on a defect of y (the strand is kept) or on anything else (0).  The
    form is symmetric, so only the entries a <= b are walked.
    """
    basis = cell_module(family, m, i).basis
    rows = [[0] * len(basis) for _ in basis]
    for a, x in enumerate(basis):
        defects = [p for p, q in enumerate(x) if q == m]
        for b in range(a, len(basis)):
            y = basis[b]
            for p in defects:
                q = y[p]
                while 0 <= q < m:
                    r = x[q]
                    q = y[r] if 0 <= r < m else -1
                if q != m:
                    break
            else:
                rows[a][b] = rows[b][a] = 1
    return tuple(map(tuple, rows))


@lru_cache(maxsize=None)
def _module_rows(family: Family, m: int, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(tr(e_j | S_i), tr(e_j | V_i)) for the class idempotent e_j of every label j, in order.

    tr(e | S_i) counts the fixed points F of e's index map.  The form must be
    invariant under each e, <e·x_a, x_b> = <x_a, e·x_b>: for a symmetric
    form, the rows <e·x_a, -> (0 at a zero image) form a symmetric matrix.
    Then e keeps the radical; e must fix its images, so tr(e | V_i) =
    dim(e·V_i) = the rank of the Gram rows at F.  As e_j·e_k = e_j for
    j <= k, each F must hold the one before, and the last all rows: that e
    is the identity, and its check is the form's symmetry.  So the rows in
    order of first appearance give both characters of e_j from their first
    |F| rows: the cell one is |F|, the simple one the rank of that prefix in
    one elimination.
    """
    module, gram = cell_module(family, m, i), _gram_rows(family, m, i)
    order, cells, zero = [], [], (0,) * len(gram)
    for j in rank_labels(family, m):
        image = module.image(class_idempotent(family, m, j))
        fixed = [c for c, r in enumerate(image) if c == r]
        if not set(order).issubset(fixed):
            raise InternalCheckError(f"S_{i}: fixed points of e_{j} miss those of the label before")
        left = [gram[r] if r >= 0 else zero for r in image]  # row a: <e·x_a, ->
        if not {-1, *fixed}.issuperset(image) or left != list(zip(*left)):
            raise InternalCheckError(f"S_{i}: e_{j} not idempotent, or form not symmetric and invariant")
        order += sorted(set(fixed).difference(order))  # now order holds F and nothing else
        cells.append(len(fixed))
    if len(order) != len(gram):
        raise InternalCheckError(f"S_{i}: the last class idempotent does not fix every basis element")
    ranks = _prefix_ranks(gram[c] for c in order)
    return tuple(cells), tuple(ranks[k] for k in cells)


@lru_cache(maxsize=None)
def _oracle_rows(family: Family, m: int) -> tuple[_Rows, _Rows]:
    """The brute-force (cell rows, simple rows), the simple rows checked unit upper triangular."""
    _check_enumerable(family, m, capped=False)
    cells, simples = zip(*(_module_rows(family, m, i) for i in rank_labels(family, m)))
    for k, row in enumerate(simples):
        if row[k] != 1 or any(row[:k]):
            raise VerificationError(f"simple table of {family.value}_{m} not unit upper triangular")
    return cells, simples


# the brute-force tables as `Mat`s (and `CellModule.action`): nothing in the
# library reads them, the route above is the one to the characters; they are
# kept for callers and for the benchmark's tracer, which reads their caches
@lru_cache(maxsize=None)
def oracle_cell_table(family: Family, m: int) -> Mat:
    return Mat(_oracle_rows(family, m)[0])


@lru_cache(maxsize=None)
def oracle_simple_table(family: Family, m: int) -> Mat:
    return Mat(_oracle_rows(family, m)[1])


# ---------------------------------------------------------------------------
# decompositions and counting

def _check_module(spec: ModuleSpec) -> None:
    """InputError for a monoid the oracle cannot enumerate, then for a label that
    `growth.parse_selector` refuses, then unless spec has one character value per
    label (`_substitute` trusts its right-hand sides); VerificationError unless a
    cell or simple module has the oracle's character of S_i or V_i, its row of
    `_module_rows`.  A P module passes, the oracle having no trace of it."""
    _check_enumerable(spec.family, spec.m, capped=False)
    kind, i = parse_selector(spec.family, spec.m, spec.label)
    if len(spec.charvec) != len(rank_labels(spec.family, spec.m)):
        raise InputError("character vector length mismatch")
    if kind != "P" and spec.bases != _module_rows(spec.family, spec.m, i)[kind == "V"]:
        raise VerificationError(f"character of {spec.label} disagrees with the oracle's")


def _decomposition(family: Family, m: int, rhs: tuple[int, ...]) -> tuple[int, ...]:
    """y with X^T y = rhs on ints, X the oracle simple table (checked unit upper
    triangular when built), by `linalg._substitute`; refused whole if an entry is
    negative, since no module has such a decomposition."""
    y = _substitute(tuple(zip(*_oracle_rows(family, m)[1])), [rhs])[0]
    for value in y:
        if value < 0:
            raise VerificationError(f"multiplicity {value} is negative; inconsistent inputs")
    return y


def oracle_multiplicity(spec: ModuleSpec, n: int) -> tuple[int, ...]:
    """[V^(x)n : V_j] for every label j, in label order, from brute-force
    character data only: the transposed brute-force simple table solved against
    the pointwise n-th powers of the character, checked by `_check_module`."""
    if n < 0:
        raise InputError("need n >= 0")
    _check_module(spec)
    return _decomposition(spec.family, spec.m, tuple(b**n for b in spec.bases))


def oracle_product_multiplicity(spec_a: ModuleSpec, spec_b: ModuleSpec) -> tuple[int, ...]:
    """[V_a tensor V_b : V_j] for every label j, by solving against pointwise
    products; both modules are checked by `_check_module`."""
    if spec_a.family is not spec_b.family or spec_a.m != spec_b.m:
        raise InputError("modules belong to different monoids")
    _check_module(spec_a)
    _check_module(spec_b)
    return _decomposition(spec_a.family, spec_a.m, tuple(map(mul, spec_a.bases, spec_b.bases)))


class CountCheck(Record):
    """A monoid order counted from the cell modules, against the counting sequence."""

    actual: int
    expected: int


def count_check(family: Family, m: int) -> CountCheck:
    """The monoid order as Σ_i dim(S_i)², against the independent counting sequence.

    An element is a top and a bottom half diagram with as many defects i, and
    those with i defects are the basis of S_i: the cellular identity dim A =
    Σ_i dim(S_i)² (Graham and Lehrer, "Cellular algebras", 1996)."""
    _check_enumerable(family, m)
    actual = sum(cell_module(family, m, i).dim ** 2 for i in rank_labels(family, m))
    expected = expected_order(family, m)
    if actual != expected:
        raise VerificationError(
            f"|{family.value}_{m}| = {actual}, expected {expected}"
        )
    return CountCheck(actual, expected)
