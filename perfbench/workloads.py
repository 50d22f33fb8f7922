"""The three seeded workloads: input generation, execution and output checks.

Inputs depend only on (workload, seed); the library sees nothing but the
generated arguments. Execution (`run_op`) is what a pass times; checking
(`check_op`) happens after the timed region.

- referee: the brute-force path. One `growthlab verify --suite all` call,
  then `green_data` once per planar family at TL 6, PRO 5 and MO 4. The
  only workload that runs the oracle or enumerates diagrams. The sizes are fixed
  and the seed only orders the families: green_data is quadratic in the
  monoid order, so one step up in m multiplies its cost by 5 to 16 and a
  seeded size would make pass times differ by seed rather than by program.
- closed_form: large-m library queries (tables, growth series, fusion graph,
  SCCs, matrix powers) with no oracle or diagrams code. Draws are stratified
  by family and m so that every seed asks for the same amount of work.
- interactive: 336 small CLI calls (m <= 16) in one process, 48 of each of
  seven query kinds, in every output format, where per-call overhead dominates.
  (module, target) pairs for `growth multiplicity` are drawn uniformly, so
  some ask for a multiplicity that is zero for every n; the CLI currently
  exits 2 on those ("leading term of an empty sum"). They are counted as
  failed ops, not filtered out.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import json
import random
import re
from dataclasses import dataclass
from math import comb

WORKLOADS = ("referee", "closed_form", "interactive")

FAMILY_VALUES = {"pro": "planar_rook", "tl": "temperley_lieb", "mo": "motzkin"}

VERIFY_ARGV = ("verify", "--suite", "all", "--format", "json")
VERIFY_CHECKS = 674

REFEREE_SIZES = (("tl", 6), ("pro", 5), ("mo", 4))

# family -> strata of (m_lo, m_hi, n values); each stratum holds one query
# per n value, with m drawn uniformly in the stratum. PRO and MO have m + 1
# labels and TL about m / 2, so TL reaches further in m for a similar cost;
# PRO and MO stop at 32 because a query's cost grows like m**3 and one query
# near 48 would outweigh the rest. Fixing the (stratum, n) pairs, and the
# module kind (V, S, P in turn) of each, keeps the work of a pass about the
# same for every seed; the seed draws m in the stratum and the module label.
# PRO and MO share their strata, so that MO's draws can mirror PRO's.
CLOSED_FORM_STRATA = {
    "pro": ((16, 19, (2, 5, 8)), (20, 23, (3, 6)), (24, 27, (4, 7)), (28, 32, (5,))),
    "mo": ((16, 19, (2, 5, 8)), (20, 23, (3, 6)), (24, 27, (4, 7)), (28, 32, (5,))),
    "tl": ((16, 27, (2, 5, 8)), (28, 39, (3, 6, 7)), (40, 48, (4, 5))),
}
# a query is timed as four ops: tables, series, fusion graph, matrix power
QUERY_STAGES = 4

# query kind -> calls per pass (336 in all). There is no record of real
# traffic to weight the kinds by, so each of the seven kinds gets the same
# count, 48: for the four kinds that take a family and m, that visits each of
# the 3 x 16 (family, m) pairs exactly once, so the cost of a pass does not
# depend on which sizes the seed happens to draw.
INTERACTIVE_MIX = (
    ("chartable", 48),
    ("growth-length", 48),
    ("growth-multiplicity", 48),
    ("fusion", 48),
    ("pl", 48),
    ("asym", 48),
    ("bounds", 48),
)
INTERACTIVE_MAX_M = 16
_SIZED = ("chartable", "growth-length", "growth-multiplicity", "fusion")
KNOWN_DEFECT = "leading term of an empty sum"


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    family: str | None = None
    m: int | None = None


def rank_labels(family: str, m: int) -> list[int]:
    """Simple-module labels, from the rank structure (not from the library)."""
    if family == "tl":
        return list(range(m % 2, m + 1, 2))
    return list(range(m + 1))


def half_diagram_count(family: str, m: int) -> int:
    """Number of half diagrams on m points = number of L-classes (= R-classes)."""
    if family == "tl":
        return comb(m, m // 2)
    if family == "pro":
        return 2**m
    # Motzkin prefixes of length m: up, flat or down steps, never below 0
    heights = [1]
    for _ in range(m):
        nxt = [0] * (len(heights) + 1)
        for h, ways in enumerate(heights):
            nxt[h] += ways
            nxt[h + 1] += ways
            if h:
                nxt[h - 1] += ways
        heights = nxt
    return sum(heights)


def generate(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "referee":
        sizes = list(REFEREE_SIZES)
        rng.shuffle(sizes)
        return [Op("verify", VERIFY_ARGV)] + [
            Op("green_data", (), family, m) for family, m in sizes
        ]
    if workload == "closed_form":
        return _closed_form_ops(rng)
    if workload == "interactive":
        return _interactive_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _module(rng: random.Random, family: str, m: int, kind: str = "VSP") -> str:
    return rng.choice(kind) + str(rng.choice(rank_labels(family, m)))


def _closed_form_ops(rng: random.Random) -> list[Op]:
    ops = []
    pro_draws = []
    for family, strata in CLOSED_FORM_STRATA.items():
        slots = [(lo, hi, n) for lo, hi, ns in strata for n in ns]
        for index, (lo, hi, n) in enumerate(slots):
            if family == "mo":
                # antithetic draw: MO takes the mirror image of PRO's m in the
                # same stratum, so a seed that draws PRO large draws MO small
                # and the work of a pass stays steady across seeds
                m = lo + hi - pro_draws[index]
            else:
                m = rng.randint(lo, hi)
            if family == "pro":
                pro_draws.append(m)
            kind = "VSP"[index % 3]
            ops.append(Op("query", (_module(rng, family, m, kind), n), family, m))
    rng.shuffle(ops)
    return ops


def op_count(op: Op) -> int:
    """How many timed ops one generated op stands for."""
    return QUERY_STAGES if op.kind == "query" else 1


def _interactive_ops(rng: random.Random) -> list[Op]:
    grid = [(f, m) for f in sorted(FAMILY_VALUES) for m in range(1, INTERACTIVE_MAX_M + 1)]
    ops = []
    for kind, count in INTERACTIVE_MIX:
        sizes = grid * (count // len(grid)) if kind in _SIZED else [None] * count
        for size in sizes:
            ops.append(_interactive_op(rng, kind, size or rng.choice(grid)))
    rng.shuffle(ops)
    return ops


def _interactive_op(rng: random.Random, kind: str, size: tuple[str, int]) -> Op:
    family, m = size
    fm = ["--family", family, "--m", str(m)]
    if kind == "chartable":
        table = rng.choice(["cell", "simple", "projective", "cell-inverse"])
        fmt = rng.choice(["text", "json", "csv"])
        return Op(kind, ("chartable", *fm, "--kind", table, "--format", fmt), family, m)
    if kind.startswith("growth"):
        statistic = kind.split("-")[1]
        argv = ["growth", statistic, *fm, "--module", _module(rng, family, m)]
        if statistic == "multiplicity":
            argv += ["--target", f"V{rng.choice(rank_labels(family, m))}"]
        argv += ["--n", f"1..{rng.randint(2, 8)}", "--format", rng.choice(["text", "json", "csv"])]
        return Op(kind, tuple(argv), family, m)
    if kind == "fusion":
        fmt = rng.choice(["text", "json", "dot"])
        return Op(kind, ("fusion", *fm, "--module", _module(rng, family, m), "--format", fmt), family, m)
    if kind == "pl":
        what = rng.choice(["digits", "support", "ancestorless"])
        p = rng.choice(["inf", "2", "3", "5", "7"])
        return Op(kind, ("pl", what, "--a", str(rng.randint(0, 500)), "--p", p, "--l", str(rng.randint(2, 4))))
    if kind == "asym":
        what = rng.choice(["an", "linear-monoid", "involutions"])
        if what == "an":
            return Op(kind, ("asym", "an", *fm), family, m)
        if what == "linear-monoid":
            p, r = rng.choice([2, 3, 5, 7]), rng.randint(1, 3)
            return Op(kind, ("asym", "linear-monoid", "--p", str(p), "--r", str(r)))
        return Op(kind, ("asym", "involutions", "--m", str(m)))
    if kind == "bounds":
        classes = str(rng.randint(1, 30))
        if rng.random() < 0.5:
            extra = ["--semigroup"] if rng.random() < 0.5 else []
            return Op(kind, ("bounds", "n0", "--l-classes", classes, *extra))
        group = rng.choice([1, 2, 6, 24, 120])
        scalar = rng.choice([d for d in range(1, group + 1) if group % d == 0])
        return Op(kind, ("bounds", "m0", "--l-classes", classes,
                         "--group-order", str(group), "--scalar-order", str(scalar)))
    raise ValueError(f"unknown interactive kind {kind!r}")


def repeat_share(ops: list[Op]) -> tuple[float, int]:
    """(share of ops whose (family, m) appeared earlier in the pass, base)."""
    seen = set()
    repeats = base = 0
    for op in ops:
        if op.m is None:
            continue
        base += 1
        key = (op.family, op.m)
        repeats += key in seen
        seen.add(key)
    return (repeats / base if base else 0.0), base


# ---------------------------------------------------------------------------
# execution (timed)


def _cli(gl, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gl.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_op(gl, op: Op, lap):
    """Run one op against the public API and return its raw output.

    A query calls `lap()` between its stages so that each stage is timed as
    an op of its own.
    """
    if op.kind == "green_data":
        return gl.green_data(gl.Family(FAMILY_VALUES[op.family]), op.m)
    if op.kind == "query":
        return _query(gl, op, lap)
    return _cli(gl, op.args)


def _query(gl, op: Op, lap) -> dict:
    selector, n = op.args
    family = gl.Family(FAMILY_VALUES[op.family])
    table = gl.simple_table(family, op.m)
    spec = gl.module_spec(family, op.m, selector)
    lap()
    length = gl.length_series(spec, table)
    mults = [gl.multiplicity_series(spec, table, t) for t in table.labels]
    lap()
    graph = gl.fusion_matrix(spec, table)
    report = gl.scc_analysis(graph)
    n0 = gl.realized_n0(graph, set(report.absorbing)) if report.absorbing else None
    lap()
    power = gl.power_multiplicities(graph, n)
    return {
        "table": table, "length": length, "mults": mults, "graph": graph,
        "report": report, "n0": n0, "power": power,
    }


# ---------------------------------------------------------------------------
# checks (untimed)

OK, ERROR, WRONG = "ok", "error", "wrong"


def check_op(gl, op: Op, output, exc) -> tuple[str, str, str]:
    """(status, canonical output text for the digest, detail)."""
    if exc is not None:
        return ERROR, f"raised {type(exc).__name__}: {exc}", repr(exc)
    if op.kind == "green_data":
        return _check_green(op, output)
    if op.kind == "query":
        return _check_query(gl, op, output)
    code, out, err = output
    text = f"{code}\n{out}\n{err}"
    if code != 0:
        # a verify exit code reports failed checks: a wrong answer, not an error
        status = WRONG if op.kind == "verify" else ERROR
        return status, text, f"{' '.join(op.args)}: exit {code}: {err.strip()[-500:]}"
    try:
        if op.kind == "verify":
            _check_verify(out)
        else:
            _parse(op, out)
    except (ValueError, SyntaxError, KeyError, IndexError) as bad:
        return WRONG, text, f"{' '.join(op.args)}: {bad}"
    return OK, text, ""


def _check_verify(out: str) -> None:
    report = json.loads(out)
    if report["total"] != VERIFY_CHECKS or len(report["checks"]) != VERIFY_CHECKS:
        raise ValueError(f"verify ran {report['total']} checks, expected {VERIFY_CHECKS}")
    if report["failures"] != 0:
        raise ValueError(f"verify reports {report['failures']} failures")


def _check_green(op: Op, data) -> tuple[str, str, str]:
    text = f"{op.family}{op.m} {data}"
    halves = half_diagram_count(op.family, op.m)
    expected = (len(rank_labels(op.family, op.m)), halves, halves, 1)
    got = (data.j_class_count, data.l_class_count, data.r_class_count, data.unit_count)
    if got != expected:
        return WRONG, text, f"green_data {op.family}{op.m}: {got} != {expected}"
    return OK, text, ""


def _check_query(gl, op: Op, r: dict) -> tuple[str, str, str]:
    selector, n = op.args
    rows = r["graph"].adjacency.rows
    power = r["power"]
    text = (
        f"{op.family}{op.m} {selector} n={n} length={r['length'].to_json()} "
        f"adjacency={[[str(x) for x in row] for row in rows]} power={[str(x) for x in power]} "
        f"n0={r['n0']} components={r['report'].components}"
    )
    problems = []
    if any(x.denominator != 1 or x < 0 for row in rows for x in row):
        problems.append("adjacency is not a non-negative integer matrix")
    if sum(power) != gl.evaluate(r["length"], n):
        problems.append("sum of A^n column differs from l(n)")
    for label, value, series in zip(r["table"].labels, power, r["mults"]):
        if value != gl.evaluate(series, n):
            problems.append(f"multiplicity of V{label} differs from its series")
    if problems:
        return WRONG, text, f"{op.family}{op.m} {selector} n={n}: {'; '.join(problems)}"
    return OK, text, ""


_CSV_GROWTH_HEADER = ["n", "l", "k", "ratio", "ratio_decimal"]
_RATIONAL = r"-?\d+(/\d+)?"
_DECIMAL = r"-?[0-9.E+-]+"


def _csv_rows(text: str, header: list[str] | None = None) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged or empty CSV")
    if header is not None and rows[0] != header:
        raise ValueError(f"CSV header {rows[0]}")
    return rows


def _parse(op: Op, out: str) -> None:
    """Raise ValueError unless stdout parses in the format the op asked for."""
    argv = op.args
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
    if fmt == "json":
        json.loads(out)
        return
    lines = out.splitlines()
    if op.kind == "chartable":
        if fmt == "text":
            if not re.fullmatch(r"\w+ m=\d+ kind=\w+", lines[0]):
                raise ValueError(f"chartable header {lines[0]!r}")
            out = "\n".join(lines[1:])
        _csv_rows(out)
    elif op.kind.startswith("growth"):
        if fmt == "text":
            if not lines[0].startswith(argv[1]) or not lines[1].startswith("formula: "):
                raise ValueError("growth text header")
            out = "\n".join(lines[2:])
        _csv_rows(out, _CSV_GROWTH_HEADER)
    elif op.kind == "fusion":
        if fmt == "dot":
            if not (out.startswith("digraph") and out.rstrip().endswith("}")):
                raise ValueError("not a DOT digraph")
            return
        if not lines[0].startswith("fusion graph of "):
            raise ValueError("fusion text header")
        for line in lines[2:-3]:
            [int(x) for x in line.split(":", 1)[1].split()]
        ast.literal_eval(lines[-3].split(": ", 1)[1])
        ast.literal_eval(lines[-1].split(": ", 1)[1])
    elif op.kind == "pl":
        value = ast.literal_eval(out.strip())
        if argv[1] == "ancestorless":
            if not isinstance(value, bool):
                raise ValueError("ancestorless is not a boolean")
        elif not all(isinstance(x, int) for x in value):
            raise ValueError("pl output is not a list of integers")
    elif op.kind == "asym":
        pattern = (
            rf"sum: {_RATIONAL} = {_DECIMAL}; total dimension: \d+"
            if argv[1] == "involutions"
            else rf"{_RATIONAL} = {_DECIMAL}"
        )
        if not re.fullmatch(pattern, out.strip()):
            raise ValueError(f"asym output {out.strip()!r}")
    elif op.kind == "bounds":
        int(out.strip())
    else:
        raise ValueError(f"no parser for {op.kind}")


def is_known_defect(op: Op, output) -> bool:
    """The zero-multiplicity query the CLI currently rejects with exit code 2."""
    return (
        op.kind == "growth-multiplicity"
        and output is not None
        and output[0] == 2
        and KNOWN_DEFECT in output[2]
    )
