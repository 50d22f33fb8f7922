"""The radical-trace route to the oracle's simple characters, as a referee.

The oracle takes a simple character as the rank of the Gram rows at the
fixed points of an idempotent, after checking that the cellular form is
invariant under it.  This route takes it as a trace instead: the full trace
of the idempotent on the cell module less its trace on the radical of the
form, with the radical's stability under the idempotent checked by one
integer product.  The radical basis is the oracle's `_radical_data`, read
through the module so that a test can replace it.
"""

from fractions import Fraction

from growthlab import oracle
from growthlab.diagrams import Family, class_idempotent
from growthlab.errors import InternalCheckError
from growthlab.linalg import int_mul


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
    kernel, scale, free_rows = oracle._radical_data(family, m, i)
    if kernel is None:
        return Fraction(_fixed_points(image))
    ak = _image_times(image, kernel)
    sub = [ak[f] for f in free_rows]
    if int_mul(kernel, sub) != [[scale * x for x in row] for row in ak]:
        raise InternalCheckError(
            f"radical of S_{i} not stable under the rank-{j} idempotent"
        )
    return _fixed_points(image) - Fraction(sum(row[k] for k, row in enumerate(sub)), scale)
