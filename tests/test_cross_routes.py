"""Independent-route cross-validation.

Two kinds of checks:

* exhaustive small scale: every module (simple, cell, projective) of every
  enumerable monoid against the brute-force oracle;
* beyond enumeration: the triangular-solve series against the digit-support
  route (Temperley-Lieb) and the closed inverse-Riordan route (Motzkin),
  which share nothing with the solve downstream of the character values.
"""

from fractions import Fraction
from math import comb

from growthlab.diagrams import Family, rank_labels
from growthlab.growth import evaluate, length_series, module_spec, multiplicity_series
from growthlab.oracle import oracle_multiplicity
from growthlab.tables import CHAR0_TL, pl_support, reflections, simple_table

from riordan_reference import mo_inverse_entry


def test_every_module_matches_oracle_at_small_scale():
    cases = (
        (Family.PLANAR_ROOK, (1, 2, 3, 4), ("V",)),
        (Family.TEMPERLEY_LIEB, (1, 2, 3, 4, 5), ("V", "S", "P")),
        (Family.MOTZKIN, (1, 2, 3), ("V", "S", "P")),
    )
    for family, ms, kinds in cases:
        for m in ms:
            table = simple_table(family, m)
            for kind in kinds:
                for label in table.labels:
                    spec = module_spec(family, m, f"{kind}{label}")
                    for n in range(4):
                        brute = oracle_multiplicity(spec, n)
                        for target, value in zip(table.labels, brute, strict=True):
                            series = multiplicity_series(spec, table, target)
                            assert evaluate(series, n) == value
                        assert evaluate(length_series(spec, table), n) == sum(brute)


def tl_multiplicity_via_supports(spec, labels, target, n):
    """Support route: sum the signed inverse-Catalan entries over supp(target)."""
    total = Fraction(0)
    for z in pl_support(target, CHAR0_TL):
        if z < 0:
            continue
        for j in range(z % 2, z + 1, 2):
            chi = spec.charvec[labels.index(j)]
            total += chi**n * (-1) ** ((z - j) // 2) * comb((j + z) // 2, j)
    return total


def test_tl_support_route_beyond_enumeration():
    for m in (9, 11):
        table = simple_table(Family.TEMPERLEY_LIEB, m)
        for sel in ("S1", "V3", "S5", "P7", f"V{m}"):
            spec = module_spec(Family.TEMPERLEY_LIEB, m, sel)
            for target in table.labels:
                series = multiplicity_series(spec, table, target)
                for n in range(4):
                    assert evaluate(series, n) == tl_multiplicity_via_supports(
                        spec, table.labels, target, n
                    )


def mo_multiplicity_via_riordan(spec, m, target, n):
    """Closed inverse-Riordan route: c_target plus the mirror cell coefficient."""

    def cell_coefficient(k):
        return sum(
            (spec.charvec[j] ** n * mo_inverse_entry(j, k) for j in range(k + 1)),
            Fraction(0),
        )

    total = cell_coefficient(target)
    refl = reflections(target, Family.MOTZKIN, m)
    if not refl.critical and refl.minus is not None:
        total += cell_coefficient(refl.minus)
    return total


def test_mo_riordan_route_beyond_enumeration():
    for m in (6, 7):
        table = simple_table(Family.MOTZKIN, m)
        for sel in ("S1", "V2", "S0", "P4", f"V{m}"):
            spec = module_spec(Family.MOTZKIN, m, sel)
            for target in table.labels:
                series = multiplicity_series(spec, table, target)
                for n in range(4):
                    assert evaluate(series, n) == mo_multiplicity_via_riordan(
                        spec, m, target, n
                    )


def test_pro_alternating_route_beyond_enumeration():
    m = 8
    table = simple_table(Family.PLANAR_ROOK, m)
    for i in (1, 2, 5):
        spec = module_spec(Family.PLANAR_ROOK, m, f"V{i}")
        for target in range(m + 1):
            series = multiplicity_series(spec, table, target)
            for n in range(4):
                expected = sum(
                    (-1) ** (target - j) * comb(target, j) * comb(j, i) ** n
                    for j in range(target + 1)
                )
                assert evaluate(series, n) == expected
