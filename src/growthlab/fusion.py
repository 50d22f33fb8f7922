"""Fusion graphs: tensor-by-V multiplication on the simple modules.

The adjacency matrix is oriented A[target][source] = [V tensor V_source :
V_target], so column j decomposes V tensor V_j and A^n applied to the
indicator of the trivial node lists the multiplicities in V^(x)n.  Graph
algorithms (shortest paths, strongly connected components) run on the support
digraph (positive entries); weights only matter for matrix arithmetic.

A graph holds A as rows of Python ints (`FusionGraph.rows`), solved from the
int rows of the simple table; every walk, power and check below reads them,
and `FusionGraph.adjacency` builds a `Mat` only when it is read.  The k^2
passes stay out of per-entry Python loops: the support lists, built once per
graph, take each column's nonzero entries with one `compress`, and A^n v is
formed step by step as the sum of v_j times column j over the nonzero v_j only.

The spectral view: conjugating A by the transpose of the simple character
table X diagonalizes it with the character values of V as eigenvalues, so
the projections X^-T E X^T onto the distinct values reconstruct A^n exactly.
The check runs on Python ints: X^-T is one unit-triangular substitution, and
each identity is one integer product with it or with X^T.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from operator import mul

from .diagrams import _check_int
from .errors import InternalCheckError, VerificationError
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
        return [(j, t) for j, out in enumerate(self._support) for t in out]

    def successors(self) -> list[list[int]]:
        """succ[j] = target indices of the positive-weight edges leaving j."""
        return list(map(list, self._support))

    @cached_property
    def _support(self) -> tuple[tuple[int, ...], ...]:
        """The successor lists, built once per graph for every walk that reads them.

        One `compress` per column picks its nonzero entries, and only those
        are tested `> 0`: a hand-built graph is not checked for negative
        entries, and those are no edges.
        """
        targets = range(len(self.rows))
        return tuple([tuple([t for t in compress(targets, col) if col[t] > 0]) for col in zip(*self.rows)])


def fusion_matrix(spec: ModuleSpec, simple: CharTable) -> FusionGraph:
    """Build the graph from a module's character and the simple table.

    Column j solves the unit-triangular integer system X^T col = chi * X_j,
    where X_j is row j of the simple table and the product is pointwise; all
    n columns go through one unchecked substitution on the checked simple
    table (`_check_compatible`).  A non-integer chi raises InputError.
    """
    _check_compatible(spec, simple)
    rows = simple.rows
    pointwise = [list(map(mul, spec.bases, row)) for row in rows]
    cols = _substitute(tuple(zip(*rows)), pointwise)
    lowest = min(map(min, cols))
    if lowest < 0:
        raise InternalCheckError(f"tensor multiplicity {lowest} is negative")
    dims = tuple(row[-1] for row in rows)
    trivial_rows = [k for k, row in enumerate(rows) if row.count(1) == len(row)]
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


def power_multiplicities(g: FusionGraph, n: int) -> tuple[int, ...]:
    """(A^n) applied to the trivial indicator: the decomposition of V^(x)n.

    n integer steps on the columns of A, transposed once per call: each step
    forms A v as the sum of v_j times column j over the nonzero v_j only, one
    `map` per term and one `sum` per entry, handed back as ints.
    """
    _check_int("n", n, 0)
    k = len(g.labels)
    v = [int(i == g.trivial_index) for i in range(k)]
    cols = list(zip(*g.rows))
    zeros = (0,) * k  # keeps k entries when no v_j is nonzero
    for _ in range(n):
        terms = [map(mul, repeat(x), col) for x, col in compress(zip(v, cols), v)]
        v = list(map(sum, zip(zeros, *terms)))
    return tuple(v)


def realized_n0(g: FusionGraph, targets) -> int | None:
    """Length of the shortest directed path from the trivial node into targets.

    Breadth-first over positive-weight edges; None when unreachable.
    """
    target_idx = {g.label_index(t) for t in targets}
    dist = distances(g._support, g.trivial_index)
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
    succ = g._support
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


def spectral_check(g: FusionGraph, spec: ModuleSpec, simple: CharTable, max_n: int = 6) -> dict:
    """Verify the projection decomposition of A exactly, on Python ints.

    The simple table X is an eigenbasis of A: with E_lam the 0/1 diagonal of
    the classes where chi = lam, the projection onto lam is
    P_lam = X^-T E_lam X^T, and spectral projections are unique.  X is unit
    upper triangular with int entries, so X^-T is one substitution on the
    identity, and each identity is one integer product:

    * simple_table_diagonalizes: X^T A = diag(chi) X^T;
    * sum_of_projections_is_identity (sum P_lam = I): X^-T X^T = I;
    * projections_are_idempotent (P_lam P_mu = [lam = mu] P_lam): X^T X^-T = I;
    * reconstructs_power_p (sum lam^p P_lam = A^p) for p <= max_n:
      X^-T (diag(chi^p) X^T) = A^p, where p = 0 is the product above.

    The first two test only X^-T.  The residual identity and every
    reconstruction for p >= 1 test A: X^T is invertible, so
    X^T A = diag(chi) X^T has exactly one solution.  A table of another
    monoid or kind, or a non-integer character value, or max_n < 0, raises
    InputError; any mismatch raises VerificationError.
    """
    _check_int("max_n", max_n, 0)
    _check_compatible(spec, simple)
    chi = spec.bases
    a = g.rows
    xt = list(zip(*simple.rows))
    ident = int_identity(len(xt))  # the right-hand sides of _substitute hold len(xt) ints
    inv_t = list(zip(*_substitute(xt, ident)))  # column k solves X^T x = e_k
    scaled = [[c * v for v in col] for c, col in zip(chi, xt)]  # diag(chi^p) X^T, at p = 1
    left_inverse = int_mul(inv_t, xt) == ident
    checks = [
        ("simple_table_diagonalizes", int_mul(xt, a) == scaled),
        ("sum_of_projections_is_identity", left_inverse),
        ("projections_are_idempotent", int_mul(xt, inv_t) == ident),
        ("reconstructs_power_0", left_inverse),
    ]
    power = [list(row) for row in a]  # A^p, as int_mul's lists
    for p in range(1, max_n + 1):
        if p > 1:
            power = int_mul(power, a)
        checks.append((f"reconstructs_power_{p}", int_mul(inv_t, scaled) == power))
        scaled = [[c * v for v in row] for c, row in zip(chi, scaled)]

    failures = [name for name, ok in checks if not ok]
    if failures:
        raise VerificationError(f"spectral reconstruction failed: {failures}")
    return {
        "eigenvalues": [str(v) for v in dict.fromkeys(chi)],
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
