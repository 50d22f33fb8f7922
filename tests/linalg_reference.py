"""Reference routes for the tests: a Fraction matrix-vector product and a
matrix power by repeated squaring.

The library takes integer matrix-vector steps and triangular solves instead;
these plain `Fraction` routes referee them.
"""

from fractions import Fraction

from growthlab.errors import DimensionError, InputError
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
