"""The radical-trace route to the oracle's simple characters, as a referee.

The oracle takes a simple character as the rank of the Gram rows at the
fixed points of an idempotent, after checking that the cellular form is
invariant under it.  This route takes it as a trace instead: the full trace
of the idempotent on the cell module less its trace on the radical of the
form, with the radical's stability under the idempotent checked by one
integer product.  The radical basis is `_radical`, the `Fraction` referee's
kernel of the oracle's Gram rows on ints, read through the module so that a
test can replace it.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

import linalg_reference

from growthlab import oracle
from growthlab.diagrams import Family, class_idempotent
from growthlab.errors import InternalCheckError
from growthlab.linalg import Mat, int_mul


@lru_cache(maxsize=None)
def _radical(family: Family, m: int, i: int):
    """(kernel rows or None, their scale d, the free rows) of the form on S_i.

    The kernel basis K, as columns, comes from the `Fraction` reduction of
    the Gram rows, one vector per free column with a 1 there and 0 in the
    other free columns; d is the lcm of its denominators, the rows of d·K
    are ints, and each free row is the last nonzero entry of its vector.
    """
    _, vectors = linalg_reference.kernel_and_rank(Mat(oracle._gram_rows(family, m, i)))
    scale = lcm(*(x.denominator for v in vectors for x in v))
    columns = [tuple(int(x * scale) for x in v) for v in vectors]
    free_rows = tuple(max(r for r, x in enumerate(v) if x) for v in vectors)
    return (tuple(zip(*columns)) if columns else None), scale, free_rows


def _fixed_points(image: tuple[int, ...]) -> int:
    return sum(1 for c, r in enumerate(image) if c == r)


def _image_times(image: tuple[int, ...], rows) -> list[list[int]]:
    """A·R for the 0/1 matrix A of an index map: row c of R is added to row image[c]."""
    out = [[0] * len(rows[0]) for _ in image]
    for c, r in enumerate(image):
        if r >= 0:
            out[r] = [x + y for x, y in zip(out[r], rows[c])]
    return out


def simple_character(family: Family, m: int, i: int, j: int) -> Fraction:
    """Trace of the rank-j idempotent on the simple quotient S_i / rad.

    The radical is the kernel of the cellular form; the action A must
    preserve it (cellularity), which is verified, and the quotient trace is
    the full trace minus the trace on the radical.  On K' = d·K the action
    on the radical is the matrix S with A·K' = K'·S; since K' is d·I on the
    free rows, d·S is A·K' read on those rows, and the check K'·(d·S) =
    d·(A·K') and the trace tr(d·S)/d run on ints.
    """
    module = oracle.cell_module(family, m, i)
    image = module.image(class_idempotent(family, m, j))
    kernel, scale, free_rows = _radical(family, m, i)
    if kernel is None:
        return Fraction(_fixed_points(image))
    ak = _image_times(image, kernel)
    sub = [ak[f] for f in free_rows]
    if int_mul(kernel, sub) != [[scale * x for x in row] for row in ak]:
        raise InternalCheckError(
            f"radical of S_{i} not stable under the rank-{j} idempotent"
        )
    return _fixed_points(image) - Fraction(sum(row[k] for k, row in enumerate(sub)), scale)
