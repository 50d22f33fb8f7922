"""Command-line interface.

Subcommands: chartable, growth, fusion, asym, bounds, pl, verify.  Exit
codes: 0 success, 1 usage error, 2 input validation error, 3 verification
mismatch or a verify run that made no checks.  Identical invocations produce
byte-identical output; every machine-readable field is an exact integer or
rational string, and decimal renderings (12 significant digits) are
display-only.
"""

from __future__ import annotations

import io
import re
import sys
from decimal import Context, Decimal
from fractions import Fraction
from functools import cache, partial
from math import gcd, log10
from types import SimpleNamespace

from . import verify
from .diagrams import PLANAR_FAMILIES, Family
from .errors import InputError, SingularMatrixError, VerificationError
from .fusion import fusion_matrix, realized_n0, scc_analysis, to_dot, to_json as fusion_to_json
from .growth import (
    ExpSum,
    ModuleSpec,
    _growth_series,
    an_constant,
    evaluate,
    involution_counts,
    involution_sum,
    leading_term,
    linear_monoid_constant,
    m0_upper_bound,
    module_spec,
    n0_upper_bound,
    parse_selector,
)
from .tables import (
    INFINITY,
    PLParams,
    _is_prime,
    _json_text,
    _label_range,
    ancestorless,
    label_index,
    pl_digits,
    pl_support,
    simple_table,
    table_of_kind,
    table_to_csv,
    table_to_json,
)

USAGE_ERROR, INPUT_ERROR, VERIFY_ERROR = 1, 2, 3

_FAMILIES = {
    "pro": Family.PLANAR_ROOK,
    "planar-rook": Family.PLANAR_ROOK,
    "tl": Family.TEMPERLEY_LIEB,
    "temperley-lieb": Family.TEMPERLEY_LIEB,
    "mo": Family.MOTZKIN,
    "motzkin": Family.MOTZKIN,
    "rook": Family.ROOK,
    "brauer": Family.BRAUER,
    "rook-brauer": Family.ROOK_BRAUER,
    "partition": Family.PARTITION,
    "full-transformation": Family.FULL_TRANSFORMATION,
    "partial-transformation": Family.PARTIAL_TRANSFORMATION,
}


def _family(name: str) -> Family:
    try:
        return _FAMILIES[name.lower()]
    except KeyError:
        raise InputError(f"unknown family {name!r} (choose from {sorted(_FAMILIES)})")


_DECIMAL12 = Context(prec=12)


def _decimal12(x: Fraction) -> str:
    return str(_DECIMAL12.divide(Decimal(x.numerator), Decimal(x.denominator)))


# the most --n values one growth table prints: 10,000 rows take about 0.2 s
# where no value grows, and the digit limit bounds the values that do
_MAX_SPAN = 10_000


# the most nonzero digits after the leading one of a + 1 that `pl support`
# twists: each doubles the support, and a call at 16 takes about 0.25 s
_MAX_TWISTS = 16


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        span = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError as exc:
        raise InputError(f"bad range {text!r} (want N or A..B)") from exc
    if not span:
        raise InputError(f"empty range {text!r} (want A <= B)")
    if span.start < 0:
        raise InputError(f"--n {text!r} starts below 0 (want n >= 0)")
    if span.stop - span.start > _MAX_SPAN:  # len() overflows past sys.maxsize
        raise InputError(f"--n spans more than {_MAX_SPAN} values")
    return span


def _parse_p(text: str):
    if text.lower() in ("inf", "infinity", "oo"):
        return INFINITY
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"bad --p {text!r} (want a prime or inf)") from exc


def _too_long(limit: int) -> str:
    return f"an exact value has more than {limit} digits to print"


def _unprintable_bits() -> int | None:
    """e with every integer of at least 2**e past the int-to-text digit limit.

    None when the limit is 0 (unlimited).  From 10**3 < 2**10: for a limit
    of 3q + r digits, 10**limit < 2**(10q + (0, 4, 7)[r]).
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return None
    q, r = divmod(limit, 3)
    return 10 * q + (0, 4, 7)[r]


def _refuse_unprintable_growth(asym: ExpSum, span: range) -> None:
    """Refuse, before evaluating, a growth table whose k(n) cannot be printed.

    Every format prints k(n) = C B^n, the leading part of the series, with
    B the largest |base| and C = p/q depending only on the parity of n; so
    the last two n of the span bound every other.  For C != 0, the
    numerator of k(n) is at least |p| B^n / q >= 2**e with
    e = n (bitlen(B) - 1) + bitlen(p) - 1 - bitlen(q).
    """
    bits = _unprintable_bits()
    if bits is None or not asym.terms:
        return
    top = abs(asym.terms[0][1])
    for n in span[-2:]:
        c = sum(coeff if base > 0 or n % 2 == 0 else -coeff for coeff, base in asym.terms)
        if c == 0:
            continue
        e = (
            n * (top.bit_length() - 1)
            + abs(c.numerator).bit_length() - 1 - c.denominator.bit_length()
        )
        if e >= bits:
            raise InputError(_too_long(sys.get_int_max_str_digits()))


def _refuse_unprintable_involutions(m: int, *, with_count: bool = False) -> None:
    """Refuse, before summing, an involution sum that cannot be printed.

    The sum is I(m)/m!, printed as p/q with p = I(m)/g, q = m!/g and
    g = gcd(I(m), m!); with_count also prints I(m) (`asym involutions`).
    Since q >= m!/I(m) and k!/I(k) does not decrease with k (I(k) <= k
    I(k-1)), the first k <= m with k!/I(k) >= 2**(bitlen(k!) - 1 -
    bitlen(I(k))) past the limit settles it and the recurrence stops there.
    Otherwise the largest of p, q (and I(m)) is printable when it has at most
    3 limit bits, as 2**(3 limit) < 10**limit, and is compared with the exact
    10**limit only past that.
    """
    bits = _unprintable_bits()
    if bits is None:
        return
    fact = count = 1  # 0! and I(0), for m < 1, which the command refuses itself
    for k, count in enumerate(involution_counts(m), start=1):
        fact *= k
        if fact.bit_length() - 1 - count.bit_length() >= bits:
            raise InputError(_too_long(sys.get_int_max_str_digits()))
    g = gcd(count, fact)
    limit = sys.get_int_max_str_digits()
    top = max(count if with_count else count // g, fact // g)
    if top.bit_length() > 3 * limit and top >= 10**limit:
        raise InputError(_too_long(limit))


def _refuse_unprintable_linear_monoid(p: int, r: int) -> None:
    """Refuse, before p**r is formed, a linear-monoid constant that cannot be printed.

    It is N / (p^(2r) - 1) with 0 < N < (2p - 1)^r, so its denominator is at
    least 10**limit once rho^r > 10**limit, rho = p^2 / (2p - 1); rho^256 >= 10^u
    by one exact comparison.  A p or r that the constant refuses is left to it.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or r < 1 or not _is_prime(p):
        return
    u = int(256 * (2 * log10(p) - log10(2 * p - 1)))
    while p**512 < 10**u * (2 * p - 1) ** 256:  # the float rounded up
        u -= 1
    if u * (r // 256) > limit:
        raise InputError(_too_long(limit))


def _cmd_chartable(args, out) -> int:
    table = table_of_kind(_family(args.family), args.m, args.kind.replace("-", "_"))
    if args.format == "json":
        print(table_to_json(table), file=out)
    elif args.format == "csv":
        print(table_to_csv(table), end="", file=out)
    else:
        print(f"{table.family.value} m={table.m} kind={table.kind}", file=out)
        print(table_to_csv(table), end="", file=out)
    return 0


def _cmd_growth(args, out) -> int:
    family = _family(args.family)
    span = _parse_range(args.n)
    parse_selector(family, args.m, args.module)  # labels are checked before any work
    target = None
    if args.statistic == "multiplicity":
        if args.target is None:
            raise InputError("multiplicity needs --target")
        match = re.fullmatch(r"[Vv]?(-?\d+)", args.target.strip())  # one optional V
        if not match:
            raise InputError(f"bad target {args.target!r} (want V<i>)")
        target = int(match.group(1))
        label_index(_label_range(family, args.m), target, family, args.m)
    spec = module_spec(family, args.m, args.module)
    series = _growth_series(spec, target)
    # a module that never contains the target has the empty (zero) series,
    # whose asymptotic part is zero as well
    asym = leading_term(series) if series.terms else series
    _refuse_unprintable_growth(asym, span)
    rows = []
    for n in span:
        value = evaluate(series, n)
        k = evaluate(asym, n)
        ratio = value / k if k else Fraction(0)
        rows.append((n, value, k, ratio))
    if args.format == "json":
        payload = {
            "family": family.value,
            "m": args.m,
            "module": spec.label,
            "statistic": args.statistic,
            "formula": series.to_json(),
            "human": series.human(),
            "values": [
                {
                    "n": n,
                    "l": str(value),
                    "k": str(k),
                    "ratio": str(ratio),
                    "ratio_decimal": _decimal12(ratio),
                }
                for n, value, k, ratio in rows
            ],
        }
        print(_json_text(payload), file=out)
        return 0
    if args.format == "text":
        print(f"{args.statistic} of {spec.label} over {family.value} m={args.m}", file=out)
        print(f"formula: {series.human()}", file=out)
    print("n,l,k,ratio,ratio_decimal", file=out)
    for n, value, k, ratio in rows:
        print(f"{n},{value},{k},{ratio},{_decimal12(ratio)}", file=out)
    return 0


def _cmd_fusion(args, out) -> int:
    family = _family(args.family)
    kind, label = parse_selector(family, args.m, args.module)  # before any table
    table = simple_table(family, args.m)
    if kind == "V":  # the row is in the table at hand
        spec = ModuleSpec.from_table(table, label, kind)
    else:
        spec = module_spec(family, args.m, args.module)
    graph = fusion_matrix(spec, table)
    report = scc_analysis(graph)
    n0 = realized_n0(graph, set(report.absorbing)) if report.absorbing else None
    if args.dot or args.format == "dot":
        dot = to_dot(graph, report)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            raise InputError(f"cannot write {args.dot!r}: {exc.strerror}") from exc
    if args.format == "dot":
        print(dot, end="", file=out)
        return 0
    if args.format == "json":
        payload = fusion_to_json(graph, report)
        payload["n0"] = n0
        payload["components"] = [list(c) for c in report.components]
        print(_json_text(payload), file=out)
        return 0
    print(f"fusion graph of {spec.label} over {family.value} m={args.m}", file=out)
    print("adjacency rows (target-by-source):", file=out)
    for label, row in zip(graph.labels, graph.rows):
        print(f"  V{label}: " + " ".join(map(str, row)), file=out)
    print(f"absorbing: {list(report.absorbing)}", file=out)
    print(f"realized n0 into absorbing: {n0}", file=out)
    print(f"components: {[list(c) for c in report.components]}", file=out)
    return 0


def _cmd_asym(args, out) -> int:
    if args.what == "an":
        family = _family(args.family)
        if family not in PLANAR_FAMILIES:
            # there the constant is the involution sum
            _refuse_unprintable_involutions(args.m)
        value = an_constant(family, args.m)
        print(f"{value} = {_decimal12(value)}", file=out)
    elif args.what == "linear-monoid":
        _refuse_unprintable_linear_monoid(args.p, args.r)
        value = linear_monoid_constant(args.p, args.r)
        print(f"{value} = {_decimal12(value)}", file=out)
    else:
        _refuse_unprintable_involutions(args.m, with_count=True)
        total, dims = involution_sum(args.m)
        print(f"sum: {total} = {_decimal12(total)}; total dimension: {dims}", file=out)
    return 0


def _cmd_bounds(args, out) -> int:
    if args.which == "n0":
        print(n0_upper_bound(args.l_classes, semigroup=args.semigroup), file=out)
    else:
        print(m0_upper_bound(args.l_classes, args.group_order, args.scalar_order), file=out)
    return 0


def _cmd_pl(args, out) -> int:
    params = PLParams(_parse_p(args.p), args.l)
    if args.what == "digits":
        print(pl_digits(args.a, params), file=out)
    elif args.what == "support":
        twists = sum(map(bool, pl_digits(args.a + 1, params)[1:])) if args.a >= 0 else 0
        if twists > _MAX_TWISTS:
            raise InputError(f"a + 1 has {twists} nonzero digits after the leading one (at most {_MAX_TWISTS})")
        print(sorted(pl_support(args.a, params)), file=out)
    else:
        print(ancestorless(args.a, params), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    if args.max_m is not None and args.max_m < 1:
        raise InputError(f"--max-m {args.max_m} must be at least 1")
    results = verify.run_suite(args.suite, args.max_m)
    if not results:
        raise VerificationError(f"suite {args.suite!r} ran no checks")
    failures = [r for r in results if not r.ok]
    if args.format == "json":
        print(verify.report_json(results), file=out)
    else:
        if args.verbose:
            for family, m, j, text in verify.canonical_idempotent_texts(args.max_m):
                print(f"idempotent {family.value} m={m} rank={j}: {text}", file=out)
        for r in results:
            if r.ok:
                print(f"ok   {r.check}", file=out)
            else:
                print(f"FAIL {r.check}: {r.lhs} != {r.rhs} @ {r.location}", file=out)
        print(f"{len(results) - len(failures)}/{len(results)} checks passed", file=out)
    return VERIFY_ERROR if failures else 0


_REQUIRED = {"required": True}
_INT = {"type": int, "required": True}

# each command: its handler, its help line and its words, each an argument
# name with its add_argument keywords; a command with subcommands has instead
# the dest of its subcommand and the words of each.  `_read` reads a
# well-formed call off this table with no argparse imported, and
# `_build_parser` builds the full parser from it; the JSON output goes
# through `tables._json_text`, so the CLI imports no `json`
_GRAMMAR = {
    "chartable": (_cmd_chartable, "emit a character table", {
        "--family": _REQUIRED,
        "--m": _INT,
        "--kind": {"default": "cell", "choices": ["cell", "simple", "projective", "cell-inverse"]},
        "--format": {"default": "text", "choices": ["text", "json", "csv"]},
    }),
    "growth": (_cmd_growth, "growth formulas and value tables", {
        "statistic": {"choices": ["length", "multiplicity"]},
        "--family": _REQUIRED,
        "--m": _INT,
        "--module": {"required": True, "help": "module selector, e.g. V3, S1, P2"},
        "--target": {"help": "target simple label (multiplicity only)"},
        "--n": {"default": "1..6", "help": "evaluation range, e.g. 1..6"},
        "--format": {"default": "text", "choices": ["text", "json", "csv"]},
    }),
    "fusion": (_cmd_fusion, "fusion graph of tensoring with a module", {
        "--family": _REQUIRED,
        "--m": _INT,
        "--module": _REQUIRED,
        "--dot": {"help": "write DOT text to this path"},
        "--format": {"default": "text", "choices": ["text", "json", "dot"]},
    }),
    "asym": (_cmd_asym, "asymptotic constants", ("what", {
        "an": {"--family": _REQUIRED, "--m": _INT},
        "linear-monoid": {"--p": _INT, "--r": _INT},
        "involutions": {"--m": _INT},
    })),
    "bounds": (_cmd_bounds, "bounds on n0 / m0", ("which", {
        "n0": {"--l-classes": _INT, "--semigroup": {"action": "store_true"}},
        "m0": {"--l-classes": _INT, "--group-order": _INT, "--scalar-order": _INT},
    })),
    "pl": (_cmd_pl, "(p,l) digit arithmetic", {
        "what": {"choices": ["digits", "support", "ancestorless"]},
        "--a": _INT,
        "--p": {"default": "inf"},
        "--l": {"type": int, "default": 3},
    }),
    "verify": (_cmd_verify, "run the oracle cross-check suite", {
        "--suite": {"default": "all", "choices": ["all", *verify.SUITES]},
        "--max-m": {
            "type": int,
            "help": "cap m (at least 1) for the oracle checks that enumerate diagrams; "
            "the golden, formula and fusion checks run at their fixed sizes",
        },
        "--format": {"default": "text", "choices": ["text", "json"]},
        "--verbose": {
            "action": "store_true",
            "help": "also print the canonical rank idempotents in diagram text form",
        },
    }),
}


@cache
def _build_parser():
    """The full argparse parser of `_GRAMMAR`.  argparse is imported here, so
    only a call that needs help, a usage error or another spelling loads it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def __init__(self, **keywords):  # help and usage at one width, not the terminal's
            super().__init__(formatter_class=partial(argparse.HelpFormatter, width=78), **keywords)

        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(USAGE_ERROR)

    parser = Parser(prog="growthlab", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, help, words) in _GRAMMAR.items():
        p = commands.add_parser(command, help=help)
        if isinstance(words, tuple):
            nested = p.add_subparsers(dest=words[0], required=True)
            levels = [(nested.add_parser(name), sub_words) for name, sub_words in words[1].items()]
        else:
            levels = [(p, words)]
        for p, words in levels:
            for name, keywords in words.items():
                p.add_argument(name, **keywords)
    return parser


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a command's argv as the full parser reads them, read
    straight off the command's words in `_GRAMMAR`; None unless each word of
    argv has a plain form.

    The plain forms: an exact option name and one value that does not start
    with "-"; a store_true flag; positionals, in order; and the nested
    subcommand as the first word after the command.  Each value goes through
    its type and then its choices.  Help, errors, abbreviations, "=" and "--"
    forms and values such as -3 are left to argparse.
    """
    args, words = SimpleNamespace(command=argv[0]), iter(argv[1:])
    grammar = _GRAMMAR[argv[0]][2]
    if isinstance(grammar, tuple):
        dest, subs = grammar
        name = next(words, None)
        if name not in subs:
            return None
        setattr(args, dest, name)
        grammar = subs[name]
    positionals, given = iter([name for name in grammar if not name.startswith("-")]), {}
    for word in words:
        if word.startswith("-"):
            name, keywords = word, grammar.get(word)
            if keywords is not None and keywords.get("action") == "store_true":
                given[name] = True
                continue
            word = next(words, "-")
        else:
            name = next(positionals, None)
            keywords = grammar.get(name)
        if keywords is None or word.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(word)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[name] = value
    for name, keywords in grammar.items():
        # argparse requires every positional
        if keywords.get("required", not name.startswith("-")) and name not in given:
            return None
        # argparse would pass a string default through the type: none is one
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        setattr(args, name.lstrip("-").replace("-", "_"), given.get(name, default))
    return args


def _parse(argv: list[str]):
    """The arguments as `_build_parser().parse_args(argv)` reads them.

    A well-formed call is read straight off `_GRAMMAR` by `_read`, with no
    parser built; the full parser, built (and argparse imported) only then,
    parses help, errors and every other spelling.
    """
    if argv and argv[0] in _GRAMMAR and (args := _read(argv)) is not None:
        return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    # the command renders into one string, so a failure prints no partial output
    out = io.StringIO()
    try:
        code = _GRAMMAR[args.command][0](args, out)
    except (InputError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except ValueError as exc:
        # an exact int past Python's int-to-str digit limit cannot be printed
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: {_too_long(sys.get_int_max_str_digits())}", file=sys.stderr)
        return INPUT_ERROR
    except MemoryError:
        print("error: not enough memory for this input", file=sys.stderr)
        return INPUT_ERROR
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
