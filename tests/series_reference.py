"""The full-table series route the library used before it summed columns of
the inverse cell table.

`series` back-substitutes against the whole simple table for any weights,
and `multiplicity_series` hands it the unit weights of the target, so the
coefficients past the target's index are computed (as zeros) rather than
skipped.  The tests use them as referees.  The bodies are kept as they were
in the library.
"""

from growthlab.growth import ExpSum, ModuleSpec, _as_int_base, _check_compatible
from growthlab.tables import CharTable
from linalg_reference import solve_unit_triangular


def series(spec: ModuleSpec, simple: CharTable, weights) -> ExpSum:
    """sum_t weights[t] * [V^(x)n : V_t] as an exponential sum in n.

    The multiplicities y solve X^T y = chi^n, so the weighted sum w . y has
    the coefficients c solving X c = w: one integer back-substitution against
    the simple table, which rejects a table that is not unit triangular.
    """
    _check_compatible(spec, simple)
    (coeffs,) = solve_unit_triangular(simple.rows, [weights], lower=False)
    return ExpSum.make(
        (c, _as_int_base(chi)) for c, chi in zip(coeffs, spec.charvec)
    )


def multiplicity_series(spec: ModuleSpec, simple: CharTable, target: int) -> ExpSum:
    """[V^(x)n : V_target] as an exponential sum in n."""
    idx = simple.index(target)
    return series(spec, simple, [int(k == idx) for k in range(len(simple.labels))])
