"""Exact dense linear algebra over the rationals.

Scalars are `fractions.Fraction` (arbitrary precision, kept in lowest terms
with positive denominator), so nothing here ever rounds.  Matrices are
immutable tuples of tuples and every operation is a pure function; values can
be shared between threads or worker processes without synchronization.

One kernel solves the triangular systems: `_substitute` substitutes forward
on ints against the transposed rows of a `CharTable` (checked unit upper
triangular by `_check_unit_triangular` when built), skipping the zeros at the
start of each right-hand side.  `inverse` and `kernel_and_rank` run one
Gauss–Jordan reduction on integer-scaled rows: every row operation stays on
Python ints, and a `Fraction` is made only when each pivot row is divided by
its pivot at the end.  `_prefix_ranks` ranks every prefix of int rows in one
forward elimination with no `Fraction`.
All matrices in this project are small (at most a few hundred rows), so
dense storage is fine.

Integral data never reaches this module as a `Mat`: character tables and
fusion graphs keep their int rows themselves (`tables`, `fusion`) and build a
`Mat` only when a caller asks for one.
Products of `Mat`s run on ints as well: `mat_mul` scales each row of the
left factor and each column of the right one to integers by the lcm of its
denominators, takes every dot product on Python ints and builds one
`Fraction` per entry.  `int_mul` multiplies matrices that are rows of ints
and returns rows of ints, for the callers that hold such rows (the fusion
spectral check, verify's Riordan and printed-inverse checks).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress, islice
from math import gcd, lcm
from operator import attrgetter, mul

from .errors import DimensionError, InputError, SingularMatrixError

_denominator = attrgetter("denominator")


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Mat:
    """Immutable matrix of exact rationals."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(_rat(x) for x in row) for row in rows)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and one column")
        ncols = len(rows[0])
        if any(len(row) != ncols for row in rows):
            raise DimensionError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Mat":
        return cls([[Fraction(0)] * ncols for _ in range(nrows)])

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence]) -> "Mat":
        return cls(list(zip(*cols)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Mat[{body}]"

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "Mat":
        return Mat(zip(*self.rows))

    def trace(self) -> Fraction:
        if not self.is_square():
            raise DimensionError(f"trace of non-square {self.shape}")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimensionError(f"add {self.shape} to {other.shape}")
        return Mat([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise DimensionError(f"subtract {other.shape} from {self.shape}")
        return Mat([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __mul__(self, other: "Mat") -> "Mat":
        return mat_mul(self, other)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact matrix product, on integer-scaled rows of a and columns of b.

    Row i of a times d_i and column j of b times e_j are integer vectors
    (d_i, e_j the lcms of their denominators), so entry (i, j) is one
    integer dot product over d_i·e_j.
    """
    if a.ncols != b.nrows:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    rows, row_scales = _integer_scaled_rows(a.rows)
    cols, col_scales = _integer_scaled_rows(zip(*b.rows))
    return Mat(
        [
            [Fraction(sum(map(mul, row, col)), d * e) for col, e in zip(cols, col_scales)]
            for row, d in zip(rows, row_scales)
        ]
    )


def int_mul(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of two matrices given by rows of Python ints, as rows of ints."""
    if len(x[0]) != len(y):
        raise DimensionError(f"cannot multiply {(len(x), len(x[0]))} by {(len(y), len(y[0]))}")
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def _check_unit_triangular(t: Sequence[Sequence[int]]) -> None:
    """Refuse a t that is not square, of ints, with ones on the diagonal and zeros
    below it: SingularMatrixError for a zero diagonal entry, else InputError."""
    n = len(t)
    for i, row in enumerate(t):
        if len(row) != n:
            raise InputError(f"table is not square: row {i} has {len(row)} entries, not {n}")
        if not {int}.issuperset(map(type, row)):
            raise InputError(f"row {i} has an entry that is not an int")
        diagonal = row[i]
        if diagonal != 1:
            if diagonal == 0:
                raise SingularMatrixError(f"zero diagonal entry at {i}")
            raise InputError(f"diagonal entry {diagonal} at {i} is not 1")
        if any(islice(row, i)):
            raise InputError("matrix is not upper triangular")


def _substitute(t: Sequence[Sequence[int]], rhs: Iterable[list[int]]):
    """Exact integer x with t·x = b for each b in rhs, substituting forward from the
    first nonzero entry of b.  Unchecked: t is the transpose of a `CharTable`'s
    rows, so unit lower triangular, and each b a list of len(t) ints."""
    n = len(t)
    solutions = []
    for b in rhs:
        s = next(compress(range(n), b), n)  # the first nonzero entry
        x: list[int] = []
        # map stops at len(x) = i - s: only the entries from s up to the diagonal
        for row, v in zip(t[s:], b[s:]):
            x.append(v - sum(map(mul, row[s:], x)))
        solutions.append((0,) * s + tuple(x))
    return tuple(solutions)


def _integer_scaled_rows(
    rows: Iterable[Sequence[Fraction]],
) -> tuple[list[list[int]], list[int]]:
    """Each row multiplied by the lcm of its denominators; returns (rows, scales)."""
    scaled, scales = [], []
    for row in rows:
        d = lcm(*map(_denominator, row))
        scales.append(d)
        scaled.append([x.numerator * (d // x.denominator) for x in row])
    return scaled, scales


def _reduce(rows: Iterable[Sequence], ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Gauss–Jordan on integer-scaled rows; returns (pivot columns, pivot rows).

    Each row (of ints or `Fraction`s) is first multiplied by the lcm of its
    denominators.  Eliminating with pivot p in column c turns every other
    row into p·row − f·(pivot row), f its entry in column c, and divides it
    by the gcd of its entries; so each row stays a nonzero integer multiple
    of the row a rational reduction would hold, and the pivots fall in the
    same columns.  Only at the end is each pivot row divided by its pivot:
    its first ncols entries are then the nonzero rows of the reduced row
    echelon form, and any columns to their right have been carried along by
    the same row operations.
    """
    m, _ = _integer_scaled_rows(rows)
    nrows = len(m)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r]
        p = pivot[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return pivot_cols, [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivot_cols)]


def inverse(a: Mat) -> Mat:
    """Exact inverse: Gauss–Jordan on [a | I] leaves [I | a⁻¹].

    Raises SingularMatrixError if a has no inverse.
    """
    if not a.is_square():
        raise DimensionError(f"inverse of non-square {a.shape}")
    n = a.nrows
    pivot_cols, reduced = _reduce(
        (row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(a.rows)), n
    )
    if len(pivot_cols) < n:
        raise SingularMatrixError("matrix is singular")
    return Mat(row[n:] for row in reduced)


def kernel_and_rank(a: Mat) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank and an exact basis of the right kernel, via reduced row echelon form.

    Kernel vectors are produced one per free column, in ascending column
    order, with a 1 in the free coordinate (deterministic).
    """
    ncols = a.ncols
    pivot_cols, reduced = _reduce(a.rows, ncols)
    rank = len(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivot_cols):
            v[pc] = -reduced[row_idx][fc]
        basis.append(tuple(v))
    return rank, basis


def _prefix_ranks(rows: Iterable[tuple[int, ...]]) -> list[int]:
    """Entry k the rank over the rationals of the first k of some int rows: each
    row, unless zero or a repeat, is reduced by the pivot rows in turn (p·row −
    f·pivot, p and f their entries in the pivot's column, then divided by the
    gcd) and, if any of it is left, is the next pivot row; no Fraction is made."""
    pivots, seen, ranks = [], set(), [0]
    for row in rows:
        if row not in seen and any(row):
            seen.add(row)
            for c, p, pivot in pivots:
                if f := row[c]:
                    row = [p * x - f * y for x, y in zip(row, pivot)]
                    row = [x // g for x in row] if (g := gcd(*row)) > 1 else row
            if any(row):
                c = next(compress(range(len(row)), row))
                pivots.append((c, row[c], row))
        ranks.append(len(pivots))
    return ranks
