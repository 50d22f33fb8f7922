"""Reference routes for the tests: a Fraction matrix-vector product, a
matrix power by repeated squaring and a Fraction back-substitution.

The library takes integer matrix-vector steps and triangular solves instead;
these plain `Fraction` routes referee them.
"""

from fractions import Fraction

from growthlab.errors import DimensionError, InputError, SingularMatrixError
from growthlab.linalg import Mat, mat_mul


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
