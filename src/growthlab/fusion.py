"""Fusion graphs: tensor-by-V multiplication on the simple modules.

The adjacency matrix is oriented A[target][source] = [V tensor V_source :
V_target], so column j decomposes V tensor V_j and A^n applied to the
indicator of the trivial node lists the multiplicities in V^(x)n.  Graph
algorithms (shortest paths, strongly connected components) run on the support
digraph (positive entries); weights only matter for matrix arithmetic.

A graph holds A as rows of Python ints (`FusionGraph.rows`), solved from the
int rows of the simple table; every walk, power and check below reads them,
and `FusionGraph.adjacency` builds a `Mat` only when it is read.

The spectral view: conjugating A by the transpose of the simple character
table diagonalizes it with the character values of V as eigenvalues, so the
Lagrange projections onto the distinct values reconstruct A^n exactly.  The
check runs on Python ints: each projection is an integer matrix over an
integer denominator, and every identity is cleared of denominators first.
The K numerators come from prefix and suffix products of the commuting
factors A - mu I, in 3K - 5 products, and the last suffix product is the
zero test that stands in for the K idempotence squarings.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm, prod
from operator import mul

from .errors import InputError, InternalCheckError, VerificationError
from .graph import distances, scc
from .growth import ModuleSpec, _check_compatible
from .linalg import Mat, _substitute, int_identity, int_mul
from .record import Record
from .tables import CharTable, label_index


class FusionGraph(Record):
    """Tensor-by-V multiplication on the simples, as int rows A[target][source]."""

    family: object
    m: int
    labels: tuple[int, ...]
    dims: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]  # A[target][source], nonnegative ints
    trivial_index: int

    @property
    def adjacency(self) -> Mat:
        return Mat(self.rows)

    def label_index(self, label: int) -> int:
        return label_index(self.labels, label, self.family, self.m)

    def support_edges(self) -> list[tuple[int, int]]:
        """(source index, target index) pairs with positive weight."""
        return [(j, t) for j, out in enumerate(self.successors()) for t in out]

    def successors(self) -> list[list[int]]:
        """succ[j] = target indices of the positive-weight edges leaving j."""
        return [
            [t for t, x in enumerate(col) if x > 0]
            for col in zip(*self.rows)
        ]


def fusion_matrix(spec: ModuleSpec, simple: CharTable) -> FusionGraph:
    """Build the graph from a module's character and the simple table.

    Column j solves the unit-triangular integer system X^T col = chi * X_j,
    where X_j is row j of the simple table and the product is pointwise; all
    n columns go through one unchecked substitution on the checked simple
    table (`_check_compatible`).  A non-integer chi raises InputError.
    """
    _check_compatible(spec, simple)
    rows = simple.rows
    pointwise = [[c * x for c, x in zip(spec.bases, row)] for row in rows]
    cols = _substitute(tuple(zip(*rows)), pointwise)
    lowest = min(map(min, cols))
    if lowest < 0:
        raise InternalCheckError(f"tensor multiplicity {lowest} is negative")
    dims = tuple(row[-1] for row in rows)
    trivial_rows = [k for k, row in enumerate(rows) if set(row) == {1}]
    if len(trivial_rows) != 1:
        raise InternalCheckError("expected exactly one all-ones character row")
    return FusionGraph(
        family=spec.family,
        m=spec.m,
        labels=simple.labels,
        dims=dims,
        rows=tuple(zip(*cols)),
        trivial_index=trivial_rows[0],
    )


def power_multiplicities(g: FusionGraph, n: int) -> tuple[Fraction, ...]:
    """(A^n) applied to the trivial indicator: the decomposition of V^(x)n.

    n integer matrix-vector steps on the rows of A.
    """
    if n < 0:
        raise InputError("need n >= 0")
    v = [int(k == g.trivial_index) for k in range(len(g.labels))]
    for _ in range(n):
        v = [sum(map(mul, row, v)) for row in g.rows]
    return tuple(Fraction(x) for x in v)


def realized_n0(g: FusionGraph, targets) -> int | None:
    """Length of the shortest directed path from the trivial node into targets.

    Breadth-first over positive-weight edges; None when unreachable.
    """
    target_idx = {g.label_index(t) for t in targets}
    dist = distances(g.successors(), g.trivial_index)
    reached = [dist[t] for t in target_idx if dist[t] is not None]
    return min(reached) if reached else None


class SccReport(Record):
    """Strongly connected components of a fusion graph, and the absorbing labels."""

    components: tuple[tuple[int, ...], ...]  # label tuples, sorted by least label
    absorbing: tuple[int, ...]  # labels in absorbing components


def scc_analysis(g: FusionGraph) -> SccReport:
    """Strongly connected components of the support digraph.

    A component is absorbing when no edge leaves it and it is reachable from
    every node.
    """
    succ = g.successors()
    comp_of = scc(succ)
    comps: dict[int, list[int]] = {}
    for v, c in enumerate(comp_of):
        comps.setdefault(c, []).append(v)

    # Every node reaches some sink component (one with no edge leaving it), so
    # a sink is reachable from every node exactly when it is the only sink.
    leaving = {
        comp_of[j] for j, out in enumerate(succ) for t in out if comp_of[t] != comp_of[j]
    }
    sinks = [c for c in comps if c not in leaving]
    absorbing_comps = sinks if len(sinks) == 1 else []
    label_comps = tuple(
        sorted(
            (tuple(sorted(g.labels[v] for v in comp)) for comp in comps.values()),
            key=lambda t: t[0],
        )
    )
    absorbing = tuple(
        sorted(g.labels[v] for c in absorbing_comps for v in comps[c])
    )
    return SccReport(label_comps, absorbing)


_IntRows = Sequence[Sequence[int]]


def _times(x: _IntRows | None, y: _IntRows | None) -> _IntRows | None:
    """x y, where None stands for the empty product."""
    return y if x is None else x if y is None else int_mul(x, y)


def _lagrange_numerators(a: _IntRows, distinct: Sequence[int]) -> tuple[list[_IntRows], _IntRows]:
    """([N_lam for lam in distinct], Z), N_lam = prod_{mu != lam} (A - mu I) and
    Z = prod_mu (A - mu I), in 3K - 5 integer products for K >= 2 values (none for K = 1).

    With F_i = A - mu_i I, N_i = (F_0 ... F_{i-1})(F_{i+1} ... F_{K-1}): a prefix
    product times a suffix product, each factor in ascending order, and the
    longest suffix product is Z.
    """
    factors = [
        [[x - mu * (r == c) for c, x in enumerate(row)] for r, row in enumerate(a)]
        for mu in distinct
    ]
    prefix, suffix = [None], [None]  # prefix[i] = F_0 ... F_{i-1}; suffix[i] = F_i ... F_{K-1}, once reversed
    for f in factors[:-1]:
        prefix.append(_times(prefix[-1], f))
    for f in reversed(factors):
        suffix.append(_times(f, suffix[-1]))
    suffix.reverse()
    numerators = [_times(p, s) or int_identity(len(a)) for p, s in zip(prefix, suffix[1:])]
    return numerators, suffix[0]


def spectral_check(g: FusionGraph, spec: ModuleSpec, simple: CharTable, max_n: int = 6) -> dict:
    """Verify the projection decomposition of A exactly, on Python ints.

    Classes are grouped by equal character value; K is the number of
    distinct values.  The Lagrange projection onto the value lam is N/d with
    N = prod_{mu != lam} (A - mu I), an integer matrix, and
    d = prod_{mu != lam} (lam - mu).  With D the lcm of the |d|, the checks are
    integer identities: sum (D/d) N = D I (the projections sum to the
    identity), Z = prod_mu (A - mu I) = 0 (they are idempotent) and
    sum (D/d) lam^p N = D A^p for p <= max_n (they reconstruct A^p).

    The zero test stands for the K squarings N^2 = d N, which it matches for
    K >= 2.  If Z = 0, then N_lam N_mu = 0 for lam != mu (the product holds
    every factor), so multiplying sum (D/d_mu) N_mu = D I by N_lam gives
    N_lam^2 = d_lam N_lam.  If every squaring holds, then N_lam Z = d_lam Z,
    so multiplying that sum by Z gives K D Z = D Z, that is (K - 1) D Z = 0.
    For K = 1 (N = I, d = 1) the squaring always holds and the zero test,
    A = lam I, is stronger.

    What each identity tests of A: the sum to the identity and the
    reconstructions for p < K are Lagrange interpolation identities, true for
    every matrix, so they check only the arithmetic.  The zero test and the
    reconstructions for p >= K test A, but see only its minimal polynomial;
    the product X^T A = diag(chi) X^T, with X the caller's simple table, pins
    its entries.  A table of another monoid or kind, or a non-integer
    character value, or max_n < 0, raises InputError; any mismatch raises
    VerificationError.
    """
    if max_n < 0:
        raise InputError("need max_n >= 0")
    _check_compatible(spec, simple)
    chi = spec.bases
    a = g.rows
    ident = int_identity(len(a))
    distinct = list(dict.fromkeys(chi))
    numerators, zero = _lagrange_numerators(a, distinct)
    denominators = [prod(lam - mu for mu in distinct if mu != lam) for lam in distinct]
    big_d = lcm(*denominators)
    weights = [big_d // d for d in denominators]
    checks = []

    xt = list(zip(*simple.rows))
    scaled = [[c * v for v in col] for c, col in zip(chi, xt)]
    checks.append(("simple_table_diagonalizes", int_mul(xt, a) == scaled))

    powers = [ident]  # A^p for p <= max_n
    for _ in range(max_n):
        powers.append(int_mul(powers[-1], a))
    # sum (D/d) lam^p N entry by entry: the terms at p + 1 are those at p times lam
    reconstructs = [True] * (max_n + 1)
    for n_rows, p_rows in zip(zip(*numerators), zip(*powers)):
        for n_entries, p_entries in zip(zip(*n_rows), zip(*p_rows)):
            terms = list(map(mul, weights, n_entries))
            for p, x in enumerate(p_entries):
                if p:
                    terms = list(map(mul, distinct, terms))
                reconstructs[p] &= sum(terms) == big_d * x
    checks.append(("sum_of_projections_is_identity", reconstructs[0]))
    checks.append(("projections_are_idempotent", not any(map(any, zero))))
    checks.extend((f"reconstructs_power_{p}", ok) for p, ok in enumerate(reconstructs))

    failures = [name for name, ok in checks if not ok]
    if failures:
        raise VerificationError(f"spectral reconstruction failed: {failures}")
    return {
        "eigenvalues": [str(v) for v in distinct],
        "checks": [name for name, _ in checks],
        "ok": True,
    }


def to_dot(g: FusionGraph, report: SccReport) -> str:
    """DOT text; nodes in label order, absorbing component double-circled."""
    absorbing = set(report.absorbing)
    lines = ["digraph fusion {"]
    for k, label in enumerate(g.labels):
        attrs = [f'label="V_{label} ({g.dims[k]})"']
        if label in absorbing:
            attrs.append("peripheries=2")
        lines.append(f"  v{label} [{', '.join(attrs)}];")
    for j, t in g.support_edges():
        weight = g.rows[t][j]
        lines.append(f'  v{g.labels[j]} -> v{g.labels[t]} [label="{weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: FusionGraph, report: SccReport) -> dict[str, object]:
    """The graph as a JSON-ready dict (integers and lists only)."""
    return {
        "labels": list(g.labels),
        "dims": list(g.dims),
        "adjacency": [list(row) for row in g.rows],
        "trivial_index": g.trivial_index,
        "absorbing": list(report.absorbing),
    }
