"""Reference routes for the tests: a matrix product by the triple loop (on
the numerators of integral factors, else on Fractions), a Fraction
matrix-vector product, a matrix power by repeated squaring, Fraction back-
and forward substitution, an integer unit-triangular solve in either
direction and a Gauss–Jordan reduction over Fraction with the inverse and
kernel it gives; and the column, trace, zero matrix and matrix from columns
that the tests read off a `Mat`.

The library multiplies int rows (`int_mul`), takes integer matrix-vector
steps and triangular solves and eliminates on ints instead; these plain
routes referee them.  The Fraction forward substitution referees the
oracle's integer solve of its multiplicities.
"""

from fractions import Fraction

from growthlab.errors import DimensionError, InputError, SingularMatrixError
from growthlab.linalg import Mat, _check_unit_triangular


def zero(nrows: int, ncols: int) -> Mat:
    return Mat([[0] * ncols for _ in range(nrows)])


def from_cols(cols) -> Mat:
    return Mat(zip(*cols))


def col(a: Mat, j: int) -> tuple[Fraction, ...]:
    return tuple(row[j] for row in a.rows)


def trace(a: Mat) -> Fraction:
    if not a.is_square():
        raise DimensionError(f"trace of non-square {a.shape}")
    return sum((a.rows[i][i] for i in range(a.nrows)), Fraction(0))


def _numerators(a: Mat) -> list[list[int]] | None:
    """a's rows as ints, or None unless every entry is an integer."""
    if all(x.denominator == 1 for row in a.rows for x in row):
        return [[x.numerator for x in row] for row in a.rows]
    return None


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a·b by the triple loop: on the numerators when both are
    integral, else a Fraction multiply-add per term."""
    if a.ncols != b.nrows:
        raise DimensionError(f"cannot multiply {a.shape} by {b.shape}")
    x, y = _numerators(a), _numerators(b)
    if x is not None and y is not None:
        cols = list(zip(*y))
        return Mat([[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x])
    out = []
    for row in a.rows:
        out_row = []
        for j in range(b.ncols):
            total = Fraction(0)
            for k, x in enumerate(row):
                total += x * b.rows[k][j]
            out_row.append(total)
        out.append(out_row)
    return Mat(out)


def apply(a: Mat, v) -> tuple[Fraction, ...]:
    """Matrix-vector product a·v, on Fractions."""
    v = [Fraction(x) for x in v]
    if len(v) != a.ncols:
        raise DimensionError(f"vector of length {len(v)} against {a.shape}")
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a.rows)


def mat_pow(a: Mat, n: int) -> Mat:
    """a**n by repeated squaring; a**0 is the identity."""
    if not a.is_square():
        raise DimensionError(f"power of non-square {a.shape}")
    if n < 0:
        raise InputError("negative matrix power")
    result = Mat.identity(a.nrows)
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        n >>= 1
        if n:
            base = mat_mul(base, base)
    return result


def solve_upper_triangular(u: Mat, v) -> tuple[Fraction, ...]:
    """Back-substitution: exact x with u·x = v for upper triangular u."""
    if not u.is_square():
        raise DimensionError(f"triangular solve with non-square {u.shape}")
    v = [Fraction(x) for x in v]
    n = u.nrows
    if len(v) != n:
        raise DimensionError("right-hand side length mismatch")
    for i in range(n):
        if any(u.rows[i][j] != 0 for j in range(i)):
            raise InputError("matrix is not upper triangular")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        pivot = u.rows[i][i]
        if pivot == 0:
            raise SingularMatrixError(f"zero diagonal entry at {i}")
        s = v[i] - sum((u.rows[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        x[i] = s / pivot
    return tuple(x)


def solve_lower_triangular(l: Mat, v) -> tuple[Fraction, ...]:
    """Forward substitution: exact x with l·x = v for lower triangular l."""
    if not l.is_square():
        raise DimensionError(f"triangular solve with non-square {l.shape}")
    v = [Fraction(x) for x in v]
    n = l.nrows
    if len(v) != n:
        raise DimensionError("right-hand side length mismatch")
    for i in range(n):
        if any(l.rows[i][j] != 0 for j in range(i + 1, n)):
            raise InputError("matrix is not lower triangular")
    x = [Fraction(0)] * n
    for i in range(n):
        pivot = l.rows[i][i]
        if pivot == 0:
            raise SingularMatrixError(f"zero diagonal entry at {i}")
        s = v[i] - sum((l.rows[i][j] * x[j] for j in range(i)), Fraction(0))
        x[i] = s / pivot
    return tuple(x)


def solve_unit_triangular(t, rhs, *, lower: bool) -> tuple[tuple[int, ...], ...]:
    """Exact integer x with t·x = b for each b in rhs, t given by int rows.

    t must pass the library's `_check_unit_triangular` (lower=False: zeros
    below the diagonal, solved bottom up), or its transpose must (lower=True:
    zeros above it, solved top down).
    Each entry x_i is b_i less the row's other products, with the entries
    not solved yet still 0: plain substitution over the whole row, no zeros
    skipped.  A right-hand side of the wrong length raises DimensionError,
    one with a non-integer entry InputError.
    """
    _check_unit_triangular(list(zip(*t)) if lower else t)
    n = len(t)
    order = range(n) if lower else range(n - 1, -1, -1)
    solutions = []
    for b in rhs:
        if len(b) != n:
            raise DimensionError("right-hand side length mismatch")
        b = [Fraction(v) for v in b]
        if any(v.denominator != 1 for v in b):
            raise InputError(f"non-integer right-hand side entry in {b}")
        x = [0] * n
        for i in order:
            x[i] = int(b[i]) - sum(t[i][j] * x[j] for j in range(n) if j != i)
        solutions.append(tuple(x))
    return tuple(solutions)


def reduce_rows(rows, ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Gauss–Jordan over Fraction: (pivot columns, all rows after reduction).

    The first ncols columns end in reduced row echelon form; any columns to
    their right are carried along by the same row operations.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        m[r] = [x / pivot for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return pivot_cols, m


def inverse(a: Mat) -> Mat:
    """[a | I] reduced to [I | a⁻¹]; SingularMatrixError below full rank."""
    if not a.is_square():
        raise DimensionError(f"inverse of non-square {a.shape}")
    n = a.nrows
    pivot_cols, m = reduce_rows(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a.rows)], n
    )
    if len(pivot_cols) < n:
        raise SingularMatrixError("matrix is singular")
    return Mat(row[n:] for row in m)


def kernel_and_rank(a: Mat) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Rank and one kernel vector per free column, 1 in that column."""
    pivot_cols, m = reduce_rows(a.rows, a.ncols)
    basis = []
    for fc in (c for c in range(a.ncols) if c not in pivot_cols):
        v = [Fraction(0)] * a.ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivot_cols):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return len(pivot_cols), basis
