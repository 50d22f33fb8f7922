"""Exact dense linear algebra on int rows, and `Mat`, a value view of rationals.

Scalars are `fractions.Fraction` (arbitrary precision, kept in lowest terms
with positive denominator), so nothing here ever rounds.  Matrices are
immutable tuples of tuples and every operation is a pure function; values can
be shared between threads or worker processes without synchronization.

One kernel solves the triangular systems: `_substitute` substitutes forward
on ints against the transposed rows of a simple table (a `CharTable`'s or the
oracle's, checked unit upper triangular when built), skipping the zeros at the
start of each right-hand side.  One loop eliminates: `_forward` reduces int
rows one at a time by the pivots before them (Bareiss's fraction-free update,
with no `Fraction`), and gives the rank of every prefix (`_prefix_ranks`).
Run twice it gives the reduced row echelon form as int rows (`_reduce`), and
from that `_solve`; a `Fraction` is made only for a rational answer.
`int_mul` multiplies matrices that are rows of ints and returns rows of ints,
for the callers that hold such rows (the fusion spectral check, verify's
Riordan and printed-inverse checks).
All matrices in this project are small (at most a few hundred rows), so
dense storage is fine.

Integral data never reaches this module as a `Mat`: character tables and
fusion graphs keep their int rows themselves (`tables`, `fusion`) and build a
`Mat` only when a caller asks for one.  A `Mat` is a frozen record of its
rows, a value to read, compare and hash, with no arithmetic of its own.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress, count, islice
from math import gcd, lcm
from operator import attrgetter, mul

from .diagrams import _check_int
from .errors import DimensionError, InputError, SingularMatrixError
from .record import Record

_denominator = attrgetter("denominator")


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Mat(Record):
    """Immutable matrix of exact rationals: rows to read, transpose, compare and hash."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(_rat(x) for x in row) for row in self.rows)
        if not rows or not rows[0]:
            raise DimensionError("matrix must have at least one row and one column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise DimensionError("ragged rows")
        vars(self)["rows"] = rows

    @classmethod
    def identity(cls, n: int) -> "Mat":
        _check_int("n", n)  # an n below 1 is left to the shape rule
        return cls(int_identity(n))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Mat[{body}]"

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "Mat":
        return Mat(zip(*self.rows))


def int_mul(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of two matrices given by rows of Python ints, as rows of ints."""
    if len(x[0]) != len(y):
        raise DimensionError(f"cannot multiply {(len(x), len(x[0]))} by {(len(y), len(y[0]))}")
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def int_identity(n: int) -> list[list[int]]:
    """The n x n identity as rows of ints."""
    return [[int(r == c) for c in range(n)] for r in range(n)]


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


def _substitute(t: Sequence[Sequence[int]], rhs: Iterable[Sequence[int]]):
    """Exact integer x with t·x = b for each b in rhs, substituting forward from the
    first nonzero entry of b.  Unchecked: t is the transposed rows of a checked simple
    table, so unit lower triangular, and the caller checks that b holds len(t) ints."""
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


def _forward(rows: Iterable[tuple], ncols: int | None) -> tuple[list[int], list[tuple[int, int, list[int]]]]:
    """(ranks, pivots) of one forward elimination on int rows, with no Fraction: each
    row, unless zero or a repeat, is reduced by the pivots in turn (p·row − f·pivot,
    p and f their entries in the pivot's column, then divided by the gcd) and, if
    any of its first ncols entries (all for None) is left, is the next pivot (c,
    p, row), c the first such nonzero column and p = row[c].  Entry k of ranks is
    the rank over the rationals of the first k rows."""
    pivots, seen, ranks = [], set(), [0]
    for row in rows:
        if row not in seen and any(row):
            seen.add(row)
            for c, p, pivot in pivots:
                if f := row[c]:
                    row = [p * x - f * y for x, y in zip(row, pivot)]
                    row = [x // g for x in row] if (g := gcd(*row)) > 1 else row
            c = next(compress(count(), islice(row, ncols)), None)
            if c is not None:
                pivots.append((c, row[c], row))
        ranks.append(len(pivots))
    return ranks, pivots


def _prefix_ranks(rows: Iterable[tuple[int, ...]]) -> list[int]:
    """Entry k the rank over the rationals of the first k of some int rows (`_forward`)."""
    return _forward(rows, None)[0]


def _reduce(rows: Iterable[Sequence], ncols: int) -> list[tuple[int, int, list[int]]]:
    """The reduced row echelon form of the first ncols columns, as int pivots.

    Each row (of ints or `Fraction`s) is multiplied by the lcm of its
    denominators.  One `_forward` pass leaves an echelon basis with the pivot
    columns of the reduced form; a second pass over it in descending pivot
    column clears each row at every pivot column right of its own.  So each
    pivot (c, p, row), in ascending c, is p times a row of the reduced form,
    and any columns right of the first ncols are carried along.
    """
    scaled = []
    for row in rows:
        d = lcm(*map(_denominator, row))
        scaled.append(tuple(x.numerator * (d // x.denominator) for x in row))
    _, pivots = _forward(scaled, ncols)
    _, pivots = _forward((tuple(row) for _, _, row in sorted(pivots, reverse=True)), ncols)
    return sorted(pivots)


def _solve(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact x with a·x = b for square a, by reducing [a | b] (`_reduce`); the rows
    may hold ints or `Fraction`s.  SingularMatrixError if a has no inverse."""
    n = len(a)
    pivots = _reduce((tuple(r) + tuple(s) for r, s in zip(a, b)), n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [[Fraction(x, p) for x in row[n:]] for _, p, row in pivots]

