"""Character tables for the planar families and their combinatorics.

Rank classes are indexed by the labels Lambda_m (ascending; for Temperley-Lieb
they share the parity of m), which makes every cell/simple table upper
triangular with unit diagonal.

The cell entry (i, j) counts half diagrams on j points with i through
strands.  Read left to right, such a half diagram is a j-step lattice path
from height 0 to height i that never goes below 0: a point that opens a cup
or carries a strand steps up, one that closes a cup steps down and an
isolated point stays level.  So the step set names the family:

* planar rook: steps {0, +1}, Pascal's triangle C(j, i); the monoid is
  semisimple, so cell = simple = projective;
* Temperley-Lieb: steps {-1, +1}, the ballot numbers alpha(j, i), whose rows
  are convolutions of the Catalan numbers;
* Motzkin: steps {-1, 0, +1}, beta(j, i), whose rows are convolutions of the
  Motzkin numbers.

One recurrence over the steps fills all three with O(m^2) integer additions
(`_cell_columns`).  Each triangle is a Riordan array; a column of its inverse
runs down from the diagonal 1 with one exact division per entry
(`_inverse_column`), and C (lattice) and C^-1 (recurrence) referee each other
(verify's riordan checks).  Truncating the inverse to Lambda_m inverts the
truncated table (both are supported on index pairs i <= j).  So the table at
m is the leading block of one array per family: columns j <= _KEPT = 64 of
each array are kept for the process (0.45 MB for all three families, by
tracemalloc on Python 3.11), and past the bound the path counts stream in
one row of O(m) ints.  The growth series read two more arrays, at the label
positions: the columns of X^-1 = C^-1 (I + P), X the simple table, each C^-1
column t plus column t^- (`_simple_inverse_column`), and their running sums
over the labels, X^-1 (1, ..., 1) at m (`_length_column`).  Both are kept
for t, m <= _KEPT (0.32 MB more); past the bound a call computes each C^-1
column once.

Tables are held as the rows of Python ints that the recurrences produce
(`CharTable.rows`); fusion graphs and the chartable command read those, and
`CharTable.mat` builds a `Mat` only when it is read.

Simple and projective rows come from the two short exact sequences
0 -> V_{i+} -> S_i -> V_i -> 0 and 0 -> S_{i-} -> P_i -> S_i -> 0, where i^-
and i^+ reflect i across the nearest critical walls and vanish when they leave
Lambda_m.  The walls are the labels i with l | i + 1 for the family's char-0
(p, l) = (INFINITY, l) in `_CHAR0` (l = 3 for TL, 2 for Motzkin; Sutton,
Tubbenhauer, Wedrich and Zhu, "SL2 tilting modules in the mixed case", 2023).

The digit machinery: for a prime p (or the distinguished INFINITY) and l >= 2,
integers expand as a = sum a_i p^(i) with p^(i) = l * p^(i-1), p^(0) = 1; the
support of a collects the sign twists of the digits of a+1 and governs which
cell modules contain a given simple.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import comb
from operator import add, sub

from .diagrams import Family, _check_family_and_m, _check_int, _check_type, _rank_range, rank_labels
from .errors import InputError, InternalCheckError
from .linalg import Mat, _check_unit_triangular
from .record import Record


# ---------------------------------------------------------------------------
# tables

def label_index(labels: tuple[int, ...] | range, label: int, family: Family, m: int) -> int:
    """Position of label among labels, the labels of family at m.

    An unknown label raises InputError naming the label, the family, m and
    the rule of `rank_labels`, which unlike the labels does not grow with m.
    """
    _check_int("label", label)
    try:
        return labels.index(label)
    except ValueError:
        parity = ", with the parity of m" if family is Family.TEMPERLEY_LIEB else ""
        rule = f"labels are 0 <= i <= m{parity}"
        raise InputError(f"label {label} is not a {family.value} m={m} label ({rule})") from None


class CharTable(Record):
    """A labeled square table of integers, held as rows of Python ints.

    Rows are modules, columns are rank classes, both indexed by the ascending
    labels; cell, simple and cell_inverse tables are unit upper triangular,
    checked when built and only then (fusion graphs and their spectral check
    trust a simple table's rows).  `mat` builds a `Mat` of `Fraction`s on every read.
    """

    family: Family
    m: int
    kind: str
    labels: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.kind in ("cell", "simple", "cell_inverse"):
            _check_unit_triangular(self.rows)

    @property
    def mat(self) -> Mat:
        return Mat(self.rows)

    def index(self, label: int) -> int:
        return label_index(self.labels, label, self.family, self.m)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.rows[self.index(i)][self.index(j)])

    def row(self, label: int) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.rows[self.index(label)]))

    def dim(self, label: int) -> int:
        """Dimension of a module = its character at the identity class m."""
        return self.rows[self.index(label)][self.index(self.m)]


# steps of the lattice paths that count half diagrams (module docstring)
_STEPS = {
    Family.PLANAR_ROOK: (0, 1),
    Family.TEMPERLEY_LIEB: (-1, 1),
    Family.MOTZKIN: (-1, 0, 1),
}


def _label_range(family: Family, m: int) -> range:
    """The labels of a planar family at m >= 1, as a range: checked, not built."""
    _check_family_and_m(family, m)
    if family not in _STEPS:
        raise InputError(f"no character tables for {family.value}")
    return _rank_range(family, m)


# the columns kept for the process (module docstring): each entry is a whole
# tuple of ints, published in one assignment, so a race may repeat work but never tear it
_KEPT = 64
_PATHS: dict[Family, tuple[tuple[int, ...], ...]] = {}  # full path-count columns 0..k
_INVERSES: dict[tuple[Family, int], tuple[int, ...]] = {}  # (family, t): column t of C^-1
# the growth series' columns (`_simple_inverse_column`, `_length_column`), at the label positions
_SIMPLE_INVERSES: dict[tuple[Family, int], tuple[int, ...]] = {}  # (family, t): column t of X^-1
_LENGTHS: dict[tuple[Family, int], tuple[int, ...]] = {}  # (family, m): X^-1 (1, ..., 1) at m
_MEMOS = (_PATHS, _INVERSES, _SIMPLE_INVERSES, _LENGTHS)  # every memo above, named once


def _step(family: Family, counts, width: int) -> list[int]:
    """Path counts one step after counts, at heights 0..width - 1: each from h - s for a step s."""
    (first, *rest), padded = _STEPS[family], [0, *counts, 0, 0]
    column = padded[1 - first : 1 - first + width]
    for s in rest:
        column = map(add, column, padded[1 - s : 1 - s + width])
    return list(column)


def _kept_columns(family: Family, top: int) -> tuple[tuple[int, ...], ...]:
    """The full path-count columns 0..top (top <= _KEPT) from the memo, the missing ones added."""
    kept = _PATHS.get(family, ((1,),))
    if len(kept) <= top:
        grown = list(kept)
        for j in range(len(kept), top + 1):
            grown.append(tuple(_step(family, grown[-1], j + 1)))
        kept = _PATHS[family] = tuple(grown)
    return kept


def _cell_columns(family: Family, m: int, wanted: tuple[int, ...] | range):
    """Column j of the cell table at the wanted rows, for each label j in turn.

    Columns j <= _KEPT are read off the memo; above it counts[h], the j-step
    paths ending at height h, are streamed in one row of O(m) ints, cut to the
    heights that j steps reach and that can still come down to the top wanted
    label by step m."""
    labels, top = set(rank_labels(family, m)), max(wanted)
    kept = _kept_columns(family, min(m, _KEPT))
    for j in range(m + 1):
        counts = kept[j] if j <= _KEPT else _step(family, counts, min(j, top + m - j) + 1)
        if j in labels:
            row = [*counts, *[0] * (top + 1 - len(counts))]  # heights j steps do not reach
            yield map(row.__getitem__, wanted)


def _cell_rows(family: Family, m: int) -> dict[int, tuple[int, ...]]:
    labels = _label_range(family, m)  # every cell row, keyed by label, for the tables
    return dict(zip(labels, zip(*_cell_columns(family, m, labels))))


def cell_table(family: Family, m: int) -> CharTable:
    rows = _cell_rows(family, m)
    return CharTable(family, m, "cell", tuple(rows), tuple(rows.values()))


def _inverse_column(family: Family, t: int) -> tuple[int, ...]:
    """Column t of the inverse cell table, a[i] = C^-1[i][t] for 0 <= i <= t, by the Riordan
    recurrences (Shapiro, Getu, Woan and Woodson, "The Riordan group", 1991) from a[t] = 1
    down, one exact division per entry (TL: every other i); kept for t <= _KEPT."""
    if (kept := _INVERSES.get((family, t))) is not None:
        return kept
    a = [0] * t + [1]
    if family is Family.PLANAR_ROOK:
        for k in range(t, 0, -1):
            a[k - 1] = a[k] * -k // (t - k + 1)
    elif family is Family.TEMPERLEY_LIEB:
        for k in range(t, 1, -2):
            n = (t + k) // 2
            a[k - 2] = a[k] * (k - k * k) // (n * (n - k + 1))  # -k(k-1): one big product
    else:
        after = 0  # a[k + 2]
        for k in range(t - 1, -1, -1):
            scaled = 3 * (k + 1) * (k + 2) * after + (k + 1) * (2 * k + 3) * a[k + 1]
            a[k], after = scaled // -((t - k) * (t + k + 2)), a[k + 1]
    column = tuple(a)
    if t <= _KEPT:
        _INVERSES[family, t] = column
    return column


def _simple_inverse_column(family: Family, t: int) -> tuple[int, ...]:
    """Column t of X^-1 = C^-1 (I + P), X the simple table, at the labels i <= t of t's parity:
    C^-1 column t plus C^-1 column t^-, the label whose i^+ is t (the same at every m); kept
    for t <= _KEPT."""
    if (kept := _SIMPLE_INVERSES.get((family, t))) is not None:
        return kept
    step = _rank_range(family, t).step
    column = _inverse_column(family, t)[t % step :: step]
    if (minus := _mirrors(t, family, t)[0]) is not None:
        low = _inverse_column(family, minus)[minus % step :: step]
        column = (*map(add, low, column), *column[len(low) :])
    if t <= _KEPT:
        _SIMPLE_INVERSES[family, t] = column
    return column


def _length_column(family: Family, m: int) -> tuple[int, ...]:
    """X^-1 (1, ..., 1) at the labels of m, the coefficients of l(n): the running sum
    c(m) = c(m - step) + X^-1 column m over the labels, kept for m <= _KEPT.  Past the bound
    the sum is regrouped by C^-1 column, so that a call computes each once: column t is
    added twice when t^+ <= m (in place of at t^+), and with it a kept column t^- <= _KEPT.
    Each entry is added to in place, its new int taking the old one's memory."""
    if (kept := _LENGTHS.get((family, m))) is not None:
        return kept
    labels, total = _rank_range(family, m), []
    index = list(range(len(labels)))  # made once: enumerate would make an int per entry above 256
    for t in labels:
        total.append(0)
        if (kept := _LENGTHS.get((family, t))) is not None:
            total[:] = kept
            continue
        if t <= _KEPT:
            parts = [_simple_inverse_column(family, t)]
        else:
            minus, plus, _ = _mirrors(t, family, m)
            parts = [_inverse_column(family, t)[t % labels.step :: labels.step]] * (1 + (plus is not None))
            if minus is not None and minus <= _KEPT:
                parts.append(_inverse_column(family, minus)[minus % labels.step :: labels.step])
        for part in parts:
            for i, c in zip(index, part):
                total[i] += c
        if t <= _KEPT:
            _LENGTHS[family, t] = tuple(total)
    return tuple(total)


def cell_inverse(family: Family, m: int) -> CharTable:
    """Inverse of the cell table (same row/column labels), from its columns."""
    labels = _label_range(family, m)
    cols = [_inverse_column(family, t) + (0,) * (m - t) for t in labels]
    rows = tuple(tuple([col[i] for col in cols]) for i in labels)
    return CharTable(family, m, "cell_inverse", tuple(labels), rows)


# ---------------------------------------------------------------------------
# critical walls and reflections

class Reflections(Record):
    """A label's mirrors across the nearest critical walls (None when absent)."""

    minus: int | None
    plus: int | None
    critical: bool


def reflections(i: int, family: Family, m: int) -> Reflections:
    """Reflections of a label across the nearest critical walls (char 0).

    The walls are the labels i with l | i + 1, l the char-0 spacing in
    `_CHAR0` (3 for Temperley-Lieb, 2 for Motzkin); a label on a wall is
    critical, any other is mirrored across the wall below it and the one l
    above that.  Planar rook is semisimple: nothing is critical and no label
    has a mirror.  Out-of-range mirrors are reported as absent (None) —
    callers treat absent as the zero module.
    """
    label_index(_label_range(family, m), i, family, m)
    return Reflections(*_mirrors(i, family, m))


def _mirrors(i: int, family: Family, m: int) -> tuple[int | None, int | None, bool]:
    """(minus, plus, critical) of `reflections`, for a label i it has not checked."""
    if family not in _CHAR0:
        return None, None, False
    l = _CHAR0[family].l
    if (i + 1) % l == 0:
        return None, None, True
    below = i - (i + 1) % l
    minus, plus = 2 * below - i, 2 * (below + l) - i
    # a mirror keeps the parity of i, so it is a label when it lies in 0..m
    return minus if minus >= 0 else None, plus if plus <= m else None, False


def simple_table(family: Family, m: int) -> CharTable:
    """Characters of the simple modules (char 0).

    Computed top-down from the cell rows via chi_i = chi_{S_i} - chi_{i^+},
    which unrolls to the alternating sum along the reflection chain.
    """
    cell = _cell_rows(family, m)
    rows: dict[int, tuple[int, ...]] = {}
    for i, row in reversed(cell.items()):
        plus = _mirrors(i, family, m)[1]  # None for critical labels
        rows[i] = row if plus is None else tuple(map(sub, row, rows[plus]))
    return CharTable(family, m, "simple", tuple(cell), tuple(rows[i] for i in cell))


def projective_table(family: Family, m: int) -> CharTable:
    """Characters of the projective indecomposables (char 0).

    phi_i = chi_{S_i} + chi_{S_{i^-}} when the mirror exists, else the cell
    row itself (critical labels, leftmost labels, and all of planar rook).
    """
    cell = _cell_rows(family, m)
    rows = []
    for i, row in cell.items():
        minus = _mirrors(i, family, m)[0]
        rows.append(row if minus is None else tuple(map(add, row, cell[minus])))
    return CharTable(family, m, "projective", tuple(cell), tuple(rows))


def _module_terms(kind: str, i: int, family: Family, m: int) -> list[tuple[int, int]]:
    """(label, sign) of the cell rows summing to row i of table "V", "S" or "P": the alternating
    i^+ chain for V_i (as `simple_table` unrolls it), and the row of i^- added for P_i."""
    terms = [(i, 1)]
    if kind == "P" and (minus := _mirrors(i, family, m)[0]) is not None:
        terms.append((minus, 1))
    while kind == "V" and (i := _mirrors(i, family, m)[1]) is not None:
        terms.append((i, -terms[-1][1]))
    return terms


def table_of_kind(family: Family, m: int, kind: str) -> CharTable:
    builders = {"cell": cell_table, "simple": simple_table, "projective": projective_table,
                "cell_inverse": cell_inverse}
    if kind not in builders:
        raise InputError(f"unknown table kind {kind!r}")
    return builders[kind](family, m)


def trivial_label(family: Family, m: int) -> int:
    """Label of the trivial module (the all-ones simple character row): the least label."""
    return _label_range(family, m)[0]


# ---------------------------------------------------------------------------
# (p, l) digit arithmetic

class _Infinity:
    """Distinguished 'infinite prime' for characteristic zero."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()


# the first 13 primes: as Miller-Rabin bases they decide primality exactly
# below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the int rule's p; an n it cannot decide exactly is refused."""
    _check_int("p", n)
    if n < 43:
        return n in _PRIME_BASES
    if n >= _PRIME_BOUND:
        raise InputError(f"need p < {_PRIME_BOUND}, below which primality is decided exactly")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PLParams(Record):
    """Mixed-radix parameters: first digit base l, higher digits base p."""

    p: int | _Infinity
    l: int

    def __post_init__(self):
        _check_int("l", self.l, 2)
        if self.p is not INFINITY and not _is_prime(self.p):
            raise InputError(f"p must be prime or INFINITY, got {self.p}")


CHAR0_TL = PLParams(INFINITY, 3)
CHAR0_MO = PLParams(INFINITY, 2)
# the char-0 (p, l) of each non-semisimple family: the one place its wall spacing l is chosen
_CHAR0 = {Family.TEMPERLEY_LIEB: CHAR0_TL, Family.MOTZKIN: CHAR0_MO}


def pl_digits(a: int, params: PLParams) -> list[int]:
    """Digits [a_t, ..., a_0] with a = sum a_i p^(i), p^(i) = l*p^(i-1).

    For p = INFINITY the higher digit is unbounded and the expansion is forced
    to exactly two digits [a // l, a mod l] (the leading digit may be 0), so
    that "all non-leading digits vanish" means "divisible by l".
    """
    _check_int("a", a, 0)
    _check_type("params", params, PLParams)
    l = params.l
    if params.p is INFINITY:
        return [a // l, a % l]
    low, rest = a % l, a // l
    higher: list[int] = []
    while rest:
        higher.append(rest % params.p)
        rest //= params.p
    return list(reversed(higher)) + [low] if higher else [low]


def _radix_weights(count: int, params: PLParams) -> list[int]:
    """[p^(t), ..., p^(0)] matching a digit list of the given length."""
    weights = [1]
    for k in range(1, count):
        weights.append(params.l if k == 1 else weights[-1] * params.p)
    return list(reversed(weights))


def pl_support(a: int, params: PLParams) -> frozenset[int]:
    """Sign twists of the digits of a+1: the labels whose cell module holds V_a.

    { a_t p^(t) +- a_{t-1} p^(t-1) +- ... +- a_0 p^(0) - 1 } over all sign
    choices (the leading digit is never negated), duplicates removed.  Values
    below the label range may appear (virtual reflections); callers intersect
    with Lambda_m.  A zero digit has no sign to choose, so k nonzero digits
    after the leading one give at most 2^k values, built one digit at a time.
    """
    _check_int("a", a, 0)
    digits = pl_digits(a + 1, params)
    weights = _radix_weights(len(digits), params)
    values = {digits[0] * weights[0] - 1}
    for d, w in zip(digits[1:], weights[1:]):
        if d:
            values = {v + s for v in values for s in (d * w, -d * w)}
    return frozenset(values)


def ancestorless(a: int, params: PLParams) -> bool:
    """True when every digit of a except the leading one is zero."""
    return not any(pl_digits(a, params)[1:])


def group_injective(family: Family, m: int) -> bool:
    """Char-0 group-injectivity at m >= 1, via the ancestorless criterion on m+1.

    Temperley-Lieb: (infinity, 3); Motzkin: (infinity, 2).  The remaining
    family tags are group-injective over the complex numbers at every m, so
    they report True: planar rook is a semisimple inverse monoid, rook an
    inverse monoid; in Brauer, rook-Brauer and partition the induced sign
    module is cut out by an idempotent; the transformation monoids have no
    quiver arrows into induced modules.
    """
    _check_family_and_m(family, m)
    return family not in _CHAR0 or ancestorless(m + 1, _CHAR0[family])


# ---------------------------------------------------------------------------
# decomposition matrices

class DecompositionMatrix(Record):
    """0/1 matrix D with D[z][i] = multiplicity of the simple V_i in the cell S_z."""

    family: Family
    m: int
    labels: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def mat(self) -> Mat:
        return Mat(self.rows)

    def entry(self, z: int, i: int) -> int:
        return self.rows[self._index(z)][self._index(i)]

    def cell_factors(self, z: int) -> tuple[int, ...]:
        """Labels of the simples occurring in the cell module S_z."""
        return tuple(i for i, v in zip(self.labels, self.rows[self._index(z)]) if v)

    def _index(self, label: int) -> int:
        return label_index(self.labels, label, self.family, self.m)


def decomposition_matrix(
    family: Family, m: int, params: PLParams | None = None
) -> DecompositionMatrix:
    """D[z][i] = 1 iff V_i is a composition factor of S_z, i.e. z lies in the
    (p, l) support of i.

    Temperley-Lieb accepts any (p, l); Motzkin only char 0 (params omitted or
    (INFINITY, 2)), where the support of an even i is {i, i-2}, so S_z holds
    V_z and V_{z+2}; planar rook is semisimple (identity matrix).
    """
    labels = _label_range(family, m)
    if params is not None:
        _check_type("params", params, PLParams)
    if family is Family.MOTZKIN and params not in (None, CHAR0_MO):
        raise InputError("Motzkin decomposition matrices are char-0 only")
    supports = {i: pl_support(i, params or _CHAR0[family]) if family in _CHAR0 else {i} for i in labels}
    rows = tuple(tuple(int(z in supports[i]) for i in labels) for z in labels)
    return DecompositionMatrix(family, m, tuple(labels), rows)


# ---------------------------------------------------------------------------
# consistency helpers and serialization

def mo_simple_entry_closed(j: int, i: int) -> int:
    """Closed form for the Motzkin simple character at even i = 2l > 0.

    Counts humps of height l across all Motzkin paths of order j; used as an
    independent cross-check of the reflection recursion.
    """
    _check_int("i", i, 2)
    if i % 2:
        raise InputError("closed form applies to even labels i > 0")
    l = i // 2
    total = 0
    for t in range(j % 2, j - i + 1, 2):
        term, rest = divmod(4 * l * comb(j, t) * comb(j - t - 1, (j - t) // 2 + l - 1), j - t + 2 * l)
        if rest:
            raise InternalCheckError(f"hump count term at ({j}, {i}, {t}) is not an integer")
        total += term
    return total


def check_motzkin_simple_closed_form(m: int) -> None:
    """The reflection recursion must match the hump-count closed form."""
    table = simple_table(Family.MOTZKIN, m)
    for i, row in zip(table.labels, table.rows):
        if i == 0:
            if any(v != 1 for v in row):
                raise InternalCheckError("Motzkin trivial character is not all-ones")
        elif i % 2 == 0:
            closed = tuple(mo_simple_entry_closed(j, i) for j in table.labels)
            if closed != row:
                raise InternalCheckError(f"Motzkin simple row {i} disagrees with closed form")


# The CLI's JSON and the verify report are written by `_json_text`, byte for
# byte as json.dumps(value, indent=2) writes them: with an indent, json.dumps
# runs the pure-Python encoder, while every string here goes through the C
# quoter that it calls (ensure_ascii) and every int through int.__repr__, as
# there.  CSV rows hold ints and "i/j" alone, which csv.writer's minimal
# quoting leaves bare, so they are joined with "," directly.

_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_text(value, pad: str = "\n") -> str:
    """value as json.dumps(value, indent=2) writes it, pad being the newline and
    indent of its own line; for dicts with str keys, lists, str, int, bool and
    None, and a TypeError for anything else.  A list of only ints or only str
    is joined in one step, and a dict's str values are quoted in place."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bool) or value is None:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{_quote(key)}: {_quote(item) if isinstance(item, str) else _json_text(item, inner)}"
            for key, item in value.items()
        ]
        return "{" + inner + f",{inner}".join(items) + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(_quote, value)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + f",{inner}".join(items) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def table_to_json(table: CharTable) -> str:
    payload = {
        "family": table.family.value,
        "m": table.m,
        "kind": table.kind,
        "labels": list(table.labels),
        "rows": [list(map(str, row)) for row in table.rows],
    }
    return _json_text(payload)


def table_to_csv(table: CharTable) -> str:
    lines = ["i/j," + ",".join(map(str, table.labels))]
    lines += [f"{label}," + ",".join(map(str, row)) for label, row in zip(table.labels, table.rows)]
    return "\n".join(lines) + "\n"
