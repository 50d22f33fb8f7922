"""The Lagrange numerators of a fusion graph, by two routes of their own.

`fusion.spectral_check` forms every N_lam = prod_{mu != lam} (A - mu I) from
shared prefix and suffix products.  `lagrange_numerators` forms each one from
the identity, one factor at a time, as the check once did, and
`squarings_hold` tests the idempotence of the projections by the K squarings
N^2 = d N that the library's zero test stands for.  `numerators_from_powers`
expands the polynomial prod_{mu != lam} (x - mu) on ints and combines its
coefficients with I, A, ..., A^(K-1): K - 2 integer products per graph, where
the chain takes K - 1 for each value.
"""

from functools import reduce
from math import prod
from operator import mul

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


def numerators_from_powers(a, distinct) -> list[list[list[int]]]:
    """[sum_k c_k A^k for lam in distinct], c_k the coefficients of prod_{mu != lam} (x - mu)."""
    n = len(a)
    powers = [[[int(r == c) for c in range(n)] for r in range(n)], a]  # map below stops at K of them
    while len(powers) < len(distinct):
        powers.append(int_mul(powers[-1], a))
    stacked = [list(zip(*(p[r] for p in powers))) for r in range(n)]  # entry (r, c) of every power
    numerators = []
    for lam in distinct:
        coeffs = [1]  # lowest degree first
        for mu in distinct:
            if mu != lam:
                coeffs = [low - mu * same for low, same in zip([0] + coeffs, coeffs + [0])]
        numerators.append([[sum(map(mul, coeffs, entry)) for entry in row] for row in stacked])
    return numerators
