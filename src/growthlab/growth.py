"""Exact growth formulas for tensor powers.

Everything a growth statistic evaluates to here is an exponential sum
sum_t c_t * b_t^n with rational coefficients and integer bases — the
composition length l(n) of the n-th tensor power, the multiplicity of a fixed
simple in it, the dominating part k(n), and the summand asymptotics a(n).

For a module V with character chi over the rank classes, the multiplicities
of the simples in V^(x)n solve X^T y = (chi(j)^n)_j, X the simple character
table; so a weighted sum sum_t w_t y_t is c . (chi(j)^n)_j with c = X^-1 w,
and l(n) (all weights 1) has c = X^-1 (1, ..., 1).  X^-1 = C^-1 (I + P), C
the cell table and P the map i -> i^+, so V_t's multiplicity reads column t
of X^-1 (columns t and t^- of C^-1, each from a Riordan recurrence on ints)
and l(n) the sum of those columns over the labels; the module's character is
a few cell rows summed in one lattice pass (`module_spec`).  No table is
built.  The one column is added into one slot per distinct base, the bases
kept on the spec in `ExpSum` order, so a series comes out canonical.  The
library entries and the CLI take one route: the column comes from `tables`,
whose docstring tells how it is built and which columns it keeps.
Bases with value 0 are kept: under the convention 0^0 = 1 they make every
length formula return 1 at n = 0 (the trivial module), while for n >= 1 they
vanish — printed formulas usually show only the n >= 1 part, and the human
rendering follows suit.

Only rational character data is supported; irrational values are rejected at
input validation.  All values are immutable and all functions pure.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from operator import mul

from .diagrams import Family, PLANAR_FAMILIES, _check_family_and_m, _check_int, _check_type
from .errors import InputError, InternalCheckError
from .linalg import Mat, _solve
from .record import Record
from .tables import (CharTable, _cell_columns, _is_prime, _label_range, _length_column, _module_terms,
                     _simple_inverse_column, label_index)


def _as_int_base(x: int | Fraction) -> int:
    if x.denominator != 1:
        raise InputError(f"character value {x} is not an integer; cannot form a growth base")
    return int(x)


class ExpSum(Record):
    """A finite exponential sum n |-> sum c * base^n, in canonical form.

    Bases are distinct, sorted by descending absolute value (ties broken by
    descending base); zero coefficients are dropped.  A coefficient is an int
    in the planar families' series (their coefficients sum columns of an int
    table) and a Fraction from `make`; the two compare and hash alike.
    """

    terms: tuple[tuple[int | Fraction, int], ...]

    @staticmethod
    def make(pairs) -> "ExpSum":
        """Canonical sum of (coefficient, base) pairs, int or Fraction.

        Coefficients are merged in the type they arrive in, and one Fraction
        is built per surviving term.
        """
        merged: dict[int, int | Fraction] = {}
        for coeff, base in pairs:
            if isinstance(coeff, bool) or not isinstance(coeff, (int, Fraction)):
                raise InputError(f"coefficient must be an int or a Fraction, not {coeff!r}")
            _check_int("base", base)
            merged[base] = merged.get(base, 0) + coeff
        terms = [(Fraction(c), b) for b, c in merged.items() if c != 0]
        terms.sort(key=lambda t: (-abs(t[1]), -t[1]))
        return ExpSum(tuple(terms))

    def evaluate(self, n: int) -> Fraction:
        """Value at n >= 0, with 0^0 = 1, summed on ints over the lcm of the denominators."""
        _check_int("n", n, 0)
        d = lcm(*(c.denominator for c, _ in self.terms))
        return Fraction(sum(c.numerator * (d // c.denominator) * b**n for c, b in self.terms), d)

    def leading_term(self) -> "ExpSum":
        """The sub-sum of terms with maximal |base| — the asymptotic part."""
        if not self.terms:
            raise InputError("leading term of an empty sum")
        top = abs(self.terms[0][1])
        return ExpSum(tuple(t for t in self.terms if abs(t[1]) == top))

    def nonzero_base_terms(self) -> tuple[tuple[int | Fraction, int], ...]:
        return tuple(t for t in self.terms if t[1] != 0)

    def human(self) -> str:
        """Rendering like "13^n - 5*4^n + 8".

        Base-0 terms (invisible for n >= 1) are omitted unless they are all
        there is, so the string matches the usual printed n >= 1 form.
        """
        terms = self.nonzero_base_terms() or self.terms
        if not terms:
            return "0"
        parts: list[str] = []
        for coeff, base in terms:
            if base == 1:
                body = str(abs(coeff))
            else:
                mag = abs(coeff)
                body = f"{base}^n" if mag == 1 else f"{mag}*{base}^n"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def to_json(self) -> list[dict[str, object]]:
        return [{"coeff": str(c), "base": b} for c, b in self.terms]


def evaluate(es: ExpSum, n: int) -> Fraction:
    return es.evaluate(n)


def leading_term(es: ExpSum) -> ExpSum:
    return es.leading_term()


# ---------------------------------------------------------------------------
# module descriptors

_SELECTOR = re.compile(r"^([VvSsPp])(\d+)$")


class ModuleSpec(Record):
    """A virtual module: label, dimension, and character on the rank classes.

    `module_spec` and `from_table` keep the character as the ints of the
    lattice pass; a character given as Fractions is read as ints by `bases`,
    which refuses a non-integer value.
    """

    label: str
    family: Family
    m: int
    dim: int
    charvec: tuple[int | Fraction, ...]

    def __post_init__(self):
        if not self.charvec:
            raise InputError("empty character vector")
        if self.dim != self.charvec[-1]:
            raise InputError("dimension must equal the character at the identity class")

    @cached_property
    def bases(self) -> tuple[int, ...]:  # the int bases of every growth series
        return tuple(map(_as_int_base, self.charvec))

    @cached_property
    def _slots(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The distinct bases in `ExpSum` order, (-|b|, -b), and the slot of each label's base."""
        order = sorted(set(self.bases), key=lambda b: (-abs(b), -b))
        slot = {b: s for s, b in enumerate(order)}
        return tuple(order), tuple(map(slot.__getitem__, self.bases))

    @staticmethod
    def from_table(table: CharTable, label: int, prefix: str) -> "ModuleSpec":
        _check_type("table", table, CharTable)
        row = table.rows[table.index(label)]
        return ModuleSpec(
            label=f"{prefix}{label}",
            family=table.family,
            m=table.m,
            dim=row[-1],
            charvec=row,
        )


def parse_selector(family: Family, m: int, selector: str) -> tuple[str, int]:
    """The kind ("V", "S" or "P") and label of a selector like "V3".

    Family, m and the label are checked, in that order, without building
    any table.
    """
    _check_type("selector", selector, str)
    match = _SELECTOR.match(selector.strip())
    if not match:
        raise InputError(f"bad module selector {selector!r} (want V<i>, S<i> or P<i>)")
    kind, label = match.group(1).upper(), int(match.group(2))
    label_index(_label_range(family, m), label, family, m)
    return kind, label


def module_spec(family: Family, m: int, selector: str) -> ModuleSpec:
    """Resolve "V3" (simple), "S1" (cell) or "P2" (projective) to its row, in one lattice pass."""
    kind, label = parse_selector(family, m, selector)
    rows, signs = zip(*_module_terms(kind, label, family, m))
    row = tuple([sum(map(mul, signs, col)) for col in _cell_columns(family, m, rows)])
    return ModuleSpec(f"{kind}{label}", family, m, row[-1], row)


def _check_compatible(spec: ModuleSpec, simple: CharTable) -> None:
    _check_type("spec", spec, ModuleSpec)
    _check_type("simple", simple, CharTable)
    if spec.family is not simple.family or spec.m != simple.m:
        raise InputError("module and table belong to different monoids")
    if len(spec.charvec) != len(simple.labels):
        raise InputError("character vector length mismatch")
    if simple.kind != "simple":
        raise InputError(f"series and fusion graphs need the simple table, not the {simple.kind} table")


def _growth_series(spec: ModuleSpec, target: int | None = None) -> ExpSum:
    """[V^(x)n : V_target], or l(n) with no target, as an exponential sum in n.

    (I + P) X = C with P[i][i^+] = 1 (`simple_table`), so c = X^-1 w is column t of
    X^-1 = C^-1 (I + P) for V_t, and for l(n) the sum X^-1 (1, ..., 1) of those columns
    over the labels.  Both come at the label positions from `tables`.  One pass adds
    the column into the slots of the spec's bases, so the sum comes out canonical.
    """
    family, m = spec.family, spec.m
    labels = _label_range(family, m)
    if target is None:
        column = _length_column(family, m)
    else:
        label_index(labels, target, family, m)
        column = _simple_inverse_column(family, target)
    order, slots = spec._slots
    sums = [0] * len(order)
    for s, c in zip(slots, column):
        sums[s] += c
    return ExpSum(tuple([(c, b) for c, b in zip(sums, order) if c]))


def multiplicity_series(spec: ModuleSpec, simple: CharTable, target: int) -> ExpSum:
    """[V^(x)n : V_target] as an exponential sum in n (`simple` is checked, not read)."""
    _check_compatible(spec, simple)
    return _growth_series(spec, target)


def length_series(spec: ModuleSpec, simple: CharTable) -> ExpSum:
    """l(n) = total number of composition factors of V^(x)n."""
    _check_compatible(spec, simple)
    return _growth_series(spec)


# ---------------------------------------------------------------------------
# the general (arbitrary monoid) formula

class MonoidClassData(Record):
    """Rational class data of a finite monoid.

    Per regular J-class i: the order of its maximal subgroup and the sizes of
    its (p-regular) conjugacy classes.  l_matrix is the decomposition matrix L
    of the restriction map, with rows and columns indexed by the simples
    (i, j) in flat order; y_blocks are the projective character tables of the
    maximal subgroups (block diagonal of Y), one square block per J-class.
    """

    group_orders: tuple[int, ...]
    class_sizes: tuple[tuple[int, ...], ...]
    l_matrix: Mat
    y_blocks: tuple[Mat, ...]

    def __post_init__(self):
        if len(self.group_orders) != len(self.class_sizes) or len(
            self.group_orders
        ) != len(self.y_blocks):
            raise InputError("per-J-class data lengths disagree")
        for sizes, block in zip(self.class_sizes, self.y_blocks):
            if not block.is_square() or block.nrows != len(sizes):
                raise InputError("Y block shape must match the class count")
        n = sum(len(sizes) for sizes in self.class_sizes)
        if self.l_matrix.shape != (n, n):
            raise InputError("L must be square of size = total class count")

    @property
    def total_classes(self) -> int:
        return sum(len(sizes) for sizes in self.class_sizes)

    @staticmethod
    def trivial_groups(simple: CharTable) -> "MonoidClassData":
        """Data of a monoid whose maximal subgroups are all trivial (L = X^T)."""
        _check_type("simple", simple, CharTable)
        n = len(simple.labels)
        return MonoidClassData(
            group_orders=(1,) * n,
            class_sizes=((1,),) * n,
            l_matrix=simple.mat.transpose(),
            y_blocks=(Mat.identity(1),) * n,
        )


def general_length_series(data: MonoidClassData, charvec) -> ExpSum:
    """l(n) from arbitrary rational class data.

    l(n) = sum_i (1/|G_i|) sum_j |C_{i,j}| T_{i,j} chi(g_{i,j})^n where
    T_{i,j} sums the entries of L^-1 applied to the (i,j) column of Y
    (conjugation is the identity on rational data).  Those sums are u . Y
    column by column, u the one solution of L^T u = (1, ..., 1); Y is block
    diagonal, so each column meets only its block's part of u.
    """
    _check_type("data", data, MonoidClassData)
    charvec = tuple(Fraction(x) for x in charvec)
    if len(charvec) != data.total_classes:
        raise InputError("character vector length mismatch")
    u = [x for (x,) in _solve(tuple(zip(*data.l_matrix.rows)), [(1,)] * len(charvec))]
    terms = []
    flat = 0
    for order, sizes, block in zip(data.group_orders, data.class_sizes, data.y_blocks):
        part = u[flat:flat + len(sizes)]
        for size, col in zip(sizes, zip(*block.rows)):
            coeff = Fraction(size, order) * sum(map(mul, part, col))
            terms.append((coeff, _as_int_base(charvec[flat])))
            flat += 1
    return ExpSum.make(terms)


class GroupClassData(Record):
    """Rational class data of a group of units: sizes, tables, scalar classes.

    scalar_classes lists the indices of the classes acting on V by a scalar,
    with the scalars themselves in the matching order; such classes are
    central, hence singletons.
    """

    class_sizes: tuple[int, ...]
    simple_table: Mat
    projective_table: Mat
    scalar_classes: tuple[int, ...]
    scalars: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.class_sizes)
        if self.simple_table.ncols != n or self.projective_table.ncols != n:
            raise InputError("table widths must match the class count")
        if len(self.scalar_classes) != len(self.scalars):
            raise InputError("one scalar per scalar class")
        for t in self.scalar_classes:
            if self.class_sizes[t] != 1:
                raise InputError("scalar-acting classes must be central (size 1)")

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)

    def _asymptotic(self, table: Mat, dim: int) -> ExpSum:
        _check_int("dim", dim)
        terms = []
        for t, omega in zip(self.scalar_classes, self.scalars):
            col_sum = sum((table.rows[r][t] for r in range(table.nrows)), Fraction(0))
            base = _as_int_base(Fraction(omega) * dim)
            terms.append((col_sum / self.group_order, base))
        return ExpSum.make(terms)

    def length_asymptotic(self, dim: int) -> ExpSum:
        """k(n): projective column sums over scalar classes, scaled by dim^n."""
        return self._asymptotic(self.projective_table, dim)

    def summand_asymptotic(self, dim: int) -> ExpSum:
        """a(n): simple column sums over scalar classes, scaled by dim^n."""
        return self._asymptotic(self.simple_table, dim)


# ---------------------------------------------------------------------------
# convergence data and constants

class ConvergenceReport(Record):
    """Second-largest |character value| of a module and its ratio to the dimension."""

    chi_sec: int | Fraction
    ratio: Fraction


def convergence_report(spec: ModuleSpec) -> ConvergenceReport:
    """Second-largest |character value| and its ratio to the dimension.

    A constant character means every element acts as a scalar; then chi_sec
    is 0 by convention.
    """
    _check_type("spec", spec, ModuleSpec)
    values = {abs(x) for x in spec.charvec}
    top = max(values)
    rest = {v for v in values if v < top}
    chi_sec = max(rest) if rest else 0
    ratio = Fraction(chi_sec, spec.dim) if spec.dim else Fraction(0)
    return ConvergenceReport(chi_sec, ratio)


def involution_counts(m: int) -> Iterator[int]:
    """I(1), ..., I(m), the involution counts, by I(k) = I(k-1) + (k-1) I(k-2)."""
    prev2, prev1 = 0, 1  # I(-1), I(0)
    for k in range(1, m + 1):
        prev2, prev1 = prev1, prev1 + (k - 1) * prev2
        yield prev1


def involution_sum(m: int) -> tuple[Fraction, int]:
    """(sum_z 1/((m-2z)! z! 2^z), m! times it) — the involution count I(m)."""
    _check_int("m", m, 1)
    total = sum(
        Fraction(1, factorial(m - 2 * z) * factorial(z) * 2**z)
        for z in range(m // 2 + 1)
    )
    dims_total = total * factorial(m)
    if dims_total.denominator != 1:
        raise InternalCheckError(f"involution sum times {m}! is not an integer")
    # independent cross-check: I(m) = I(m-1) + (m-1) I(m-2)
    for count in involution_counts(m):
        pass
    if int(dims_total) != count:
        raise InternalCheckError(f"involution sum disagrees with the recurrence at m={m}")
    return total, int(dims_total)


def an_constant(family: Family, m: int) -> Fraction:
    """The constant c with a(n) = c * (dim V)^n over the complex numbers.

    1 for the planar families (trivial group of units); the involution sum
    for the families whose group of units is the symmetric group.
    """
    _check_family_and_m(family, m)
    if family in PLANAR_FAMILIES:
        return Fraction(1)
    return involution_sum(m)[0]


def idempotent_multiplicity(idem, charvalues, n: int) -> Fraction:
    """Multiplicity of the module cut out by an idempotent sum_m c_m m.

    idem is a list of (coefficient, label) pairs (labels may aggregate whole
    classes with their sizes folded into the coefficients); charvalues maps
    labels to character values.
    """
    _check_int("n", n, 0)
    total = Fraction(0)
    for coeff, label in idem:
        if label not in charvalues:
            raise InputError(f"no character value for label {label!r}")
        total += Fraction(coeff) * Fraction(charvalues[label]) ** n
    return total


def n0_upper_bound(l_class_count: int, semigroup: bool = False) -> int:
    """Steps needed before a unit-group module appears: L-1 (monoid) or L."""
    _check_int("l_class_count", l_class_count, 1)
    return l_class_count if semigroup else l_class_count - 1


def m0_upper_bound(l_class_count: int, group_order: int, scalar_subgroup_order: int) -> int:
    """Bound L + |G|/|Z| + |Z| - 3 for the first projective-induced summand."""
    _check_int("l_class_count", l_class_count, 1)
    _check_int("group_order", group_order, 1)
    _check_int("scalar_subgroup_order", scalar_subgroup_order, 1)
    if group_order % scalar_subgroup_order:
        raise InputError("scalar subgroup order must divide the group order")
    return l_class_count + group_order // scalar_subgroup_order + scalar_subgroup_order - 3


def linear_monoid_constant(p: int, r: int) -> Fraction:
    """The k(n)/dim^n constant for 2x2 matrix monoids over F_q, q = p^r."""
    _check_int("r", r, 1)
    if not _is_prime(p):  # which takes p by the int rule first
        raise InputError(f"{p} is not prime")
    q = p**r
    return Fraction(2 * r - 1 + (2 * p - 1) ** r - 2**r, q * q - 1)
