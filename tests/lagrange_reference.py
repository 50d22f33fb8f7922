"""The Lagrange numerators of a fusion graph, one product chain each.

`fusion.spectral_check` forms every N_lam = prod_{mu != lam} (A - mu I) from
shared prefix and suffix products; this referee forms each one from the
identity, one factor at a time, as the check once did, and tests the
idempotence of the projections by the K squarings N^2 = d N that the
library's zero test stands for.
"""

from functools import reduce
from math import prod

from growthlab.linalg import int_mul


def lagrange_numerators(a, distinct) -> list[list[list[int]]]:
    """[prod_{mu != lam} (A - mu I) for lam in distinct], factors in ascending order."""
    n = len(a)
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    shifted = {
        mu: [[x - mu * (r == c) for c, x in enumerate(row)] for r, row in enumerate(a)]
        for mu in distinct
    }
    return [
        reduce(int_mul, [shifted[mu] for mu in distinct if mu != lam], ident) for lam in distinct
    ]


def squarings_hold(a, distinct) -> bool:
    """N^2 = d N for every lam, d = prod_{mu != lam} (lam - mu)."""
    return all(
        int_mul(p, p) == [[d * x for x in row] for row in p]
        for p, d in zip(
            lagrange_numerators(a, distinct),
            (prod(lam - mu for mu in distinct if mu != lam) for lam in distinct),
        )
    )
