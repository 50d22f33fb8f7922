"""Cross-interpreter check, standard library only: run it under each Python.

    python3.12 tools/crosspy.py

Run from the root of a source checkout; growthlab is imported from `src/`.
Eight checks, one line each, and exit code 1 if any fails:

- the JSON writer of the CLI and the verify report (`tables._json_text`)
  writes each payload of a fixed set exactly as json.dumps(payload, indent=2)
  does on this interpreter;
- every command of `PINNED_OUTPUTS` in tests/test_cli.py (read without
  importing the tests) prints the stdout whose sha256 is pinned there;
- `cli._read` reads each argv of the test lists and of a walk of the
  grammar as this interpreter's argparse does (compared as `vars`), and
  reads every plain call of those lists;
- the two digit-limit cases of `test_bad_input_is_one_line_and_exit_2`
  print one `error:` line and exit 2, refused up front and, with the
  refusals switched off, caught by `main` from the `ValueError` text of
  this interpreter's int-to-text limit;
- each help and usage call of `PINNED_HELP` prints the bytes pinned for this
  interpreter, under COLUMNS=50, 80 and 120: argparse 3.13 wraps the usage
  line of `bounds m0` its own way, so 3.13 and later read `PINNED_HELP_313`
  first, and an argparse seen to print the choices of `invalid choice`
  unquoted (3.13.13) reads `PINNED_HELP_UNQUOTED`; the line counts the
  commands that take those pins;
- two fresh interpreters build every table, module row and series for
  m = 1..80, one in ascending order of m and one in descending order, and
  both give `BUILD_SHA256`, pinned before the tables kept their columns;
- for each planar family, m = 1..32 and V, S and P at every label, the
  fusion graph's rows, its SCC report, `realized_n0` into the absorbing
  labels and `power_multiplicities` for n = 0..6 give `FUSION_SHA256`,
  pinned before those passes went to `map` and `compress`;
- for each planar family and m = 63, 64, 65, 128 and 300, the length series
  of V, S and P at three labels and every multiplicity series of one V
  module give `SERIES_SHA256`, pinned before the series read kept columns
  of X^-1: far past the bound of 64, where no column is kept.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from growthlab import cli, fusion, growth, tables  # noqa: E402
from growthlab.diagrams import Family, rank_labels  # noqa: E402

PAYLOADS = [
    {},
    [],
    "",
    0,
    -(2**70),
    2**64,
    True,
    False,
    None,
    [[], {}, [[]], {"": {}}],
    ['"', "\\", "\n\t\x00\x1f\x7f", "é", " ", "\U0001f600", "\ud800"],
    [1, -2, 3**50],
    [1, "1", True, None, [2, ["3"]], {"k": [False]}],
    {"quote\"key": {"nested": [{"a": 1, "b": ["x", "y"]}, []]}, "é": None},
    [{"name": "x", "detail": "\u2028 vs \udfff @ y", "lhs": "\udfff"}, {"name": "", "rhs": "é"}],  # a verify report's checks
]

# the ids of test_bad_input_is_one_line_and_exit_2 whose values pass the digit limit
DIGIT_LIMIT_CASES = {
    "value-too-long-growth": ["growth", "length", "--family", "tl", "--m", "7", "--module", "V3", "--n", "3900"],
    "value-too-long-involutions": ["asym", "involutions", "--m", "2000"],
}


# `_build_digest`, pinned at the commit before the tables kept the leading columns of their arrays
BUILD_SHA256 = "0f724e9d66fbdc25ce1e0ae2c2ffeef7cd71330fb53b99f37e085b0d6de8680a"

# `_fusion_digest`, pinned at the commit before the fusion passes went to `map` and `compress`
FUSION_SHA256 = "69a1d55375b0a6685d04881455339477efb8d34f141a7ade30c5c467796e9c7a"


# `_series_digest`, pinned at the commit before the series read the kept columns of X^-1
SERIES_SHA256 = "1fb1a9fd373afc152aa23a41ab91dc72f7d92f11ddfbb5fae71221acf72d0a36"


def _test_cli(*names: str) -> dict:
    """The values of names' module-level assignments in tests/test_cli.py,
    evaluated in order without importing the tests: literals, and lists of
    tuples that unpack an earlier one of names."""
    path = ROOT / "tests" / "test_cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in names:
            code = compile(ast.Expression(node.value), str(path), "eval")
            values[node.targets[0].id] = eval(code, {"__builtins__": {}}, dict(values))
    assert sorted(values) == sorted(names), sorted(set(names) - set(values))
    return values


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _piece(name: str, keywords: dict, value: str) -> list[str]:
    # a flag alone, an option and its value, or a positional's value
    if keywords.get("action") == "store_true":
        return [name]
    return [name, value] if name.startswith("-") else [value]


def _grammar_argvs():
    """For each command (and subcommand), all its words in grammar order and
    reversed, each value of one choice in turn, the rest at a sample value."""
    for command, (_, _, words) in cli._GRAMMAR.items():
        subs = words[1] if isinstance(words, tuple) else {None: words}
        for sub, words in subs.items():
            head = [command] + [sub] * (sub is not None)
            for name in words:
                for value in words[name].get("choices", ["3"]):
                    pieces = [
                        _piece(other, keywords, value if other == name else keywords.get("choices", ["3"])[0])
                        for other, keywords in words.items()
                    ]
                    for order in (pieces, pieces[::-1]):
                        yield head + [word for piece in order for word in piece]


def _check_json() -> bool:
    wrong = [p for p in PAYLOADS if tables._json_text(p) != json.dumps(p, indent=2)]
    print(f"{'ok  ' if not wrong else 'FAIL'} json writer: {len(PAYLOADS) - len(wrong)}/{len(PAYLOADS)} payloads")
    return not wrong


def _check_pinned(pinned: dict) -> bool:
    differ = []
    for command, digest in pinned.items():
        code, out, _ = _run(command.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            differ.append(command)
    print(f"{'ok  ' if not differ else 'FAIL'} pinned outputs: {len(pinned) - len(differ)}/{len(pinned)} commands")
    for command in differ:
        print(f"     differs: {command}")
    return not differ


def _check_reader(lists: dict) -> bool:
    plain = [list(argv) for argv in lists["_COMMANDS_AND_ARGS"] + lists["_INTERACTIVE_SHAPES"]]
    others = [list(argv) for name in ("_HELP", "_USAGE", "_SPELLINGS") for argv in lists[name]]
    argvs = plain + others + list(_grammar_argvs())
    full, read, differ = cli._build_parser(), 0, []
    for argv in argvs:
        args = cli._read(argv) if argv and argv[0] in cli._GRAMMAR else None
        if args is not None:
            read += 1
            if vars(args) != vars(full.parse_args(argv)):
                differ.append(argv)
    unread = [argv for argv in plain if argv[0] not in cli._GRAMMAR or cli._read(argv) is None]
    ok = not differ and not unread
    print(f"{'ok  ' if ok else 'FAIL'} reader: {read}/{len(argvs)} argvs read, {read - len(differ)} as argparse reads them")
    for argv in differ:
        print(f"     differs: {' '.join(argv)}")
    for argv in unread:
        print(f"     plain call not read: {' '.join(argv)}")
    return ok


def _check_digit_limit() -> bool:
    want = (2, "", f"error: {cli._too_long(sys.get_int_max_str_digits())}\n")
    refusals = {name: getattr(cli, name) for name in ("_refuse_unprintable_growth", "_refuse_unprintable_involutions")}
    wrong = [name for name, argv in DIGIT_LIMIT_CASES.items() if _run(argv) != want]
    for name in refusals:
        setattr(cli, name, lambda *args, **kwargs: None)
    try:
        wrong += [f"{name} (backstop)" for name, argv in DIGIT_LIMIT_CASES.items() if _run(argv) != want]
    finally:
        for name, refusal in refusals.items():
            setattr(cli, name, refusal)
    count = 2 * len(DIGIT_LIMIT_CASES)
    print(f"{'ok  ' if not wrong else 'FAIL'} digit limit: {count - len(wrong)}/{count} one error line, exit 2")
    for name in wrong:
        print(f"     differs: {name}")
    return not wrong


def _argparse_quotes_choices() -> bool | None:
    """Whether this interpreter's argparse quotes each choice of an `invalid choice` error."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("x", choices=["a"])
    try:
        parser.parse_args(["b"])
    except argparse.ArgumentError as error:
        return "'a'" in str(error)


def _check_help(pins: dict, pins_313: dict, pins_unquoted: dict) -> bool:
    variants = {}
    if sys.version_info >= (3, 13):
        variants["3.13 wraps"] = pins_313
    if not _argparse_quotes_choices():
        variants["choices unquoted"] = pins_unquoted
    for variant in variants.values():
        pins = {**pins, **variant}
    differ, widths = [], ("50", "80", "120")
    for columns in widths:
        os.environ["COLUMNS"] = columns  # argparse reads the terminal's width here
        for command, digest in pins.items():
            _, out, err = _run(command.split())
            if hashlib.sha256((out + err).encode()).hexdigest() != digest:
                differ.append(f"{command or '(none)'} at COLUMNS={columns}")
    calls = len(pins) * len(widths)
    taken = "".join(f"; {len(variant)} commands as {name}" for name, variant in variants.items())
    print(f"{'ok  ' if not differ else 'FAIL'} help and usage: {calls - len(differ)}/{calls} calls{taken}")
    for command in differ:
        print(f"     differs: {command}")
    return not differ


def _build_digest(order: str) -> str:
    """sha256 of, for each planar family and m = 1..80 in the given order, every module
    row (V, S and P at every label, built first), the four tables, the length series of
    V, S and P at the second label, and the multiplicity series of V at the top label
    for every target; each (family, m) apart, so that the digest names no order."""
    built = {}
    for m in range(1, 81) if order == "ascending" else range(80, 0, -1):
        for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN):
            labels = rank_labels(family, m)
            specs = {(kind, i): growth.module_spec(family, m, f"{kind}{i}") for i in labels for kind in "VSP"}
            out = [spec.charvec for spec in specs.values()]
            out += [tables.table_of_kind(family, m, kind).rows for kind in ("cell", "simple", "projective", "cell_inverse")]
            simple = tables.simple_table(family, m)
            out += [growth.length_series(specs[kind, labels[1 % len(labels)]], simple) for kind in "VSP"]
            out += [growth.multiplicity_series(specs["V", labels[-1]], simple, target) for target in labels]
            built[family.value, m] = repr(out)
    return hashlib.sha256(repr(sorted(built.items())).encode()).hexdigest()


def _check_build_order() -> bool:
    digests = {}
    for order in ("ascending", "descending"):
        argv = [sys.executable, __file__, "--build-order", order]
        digests[order] = subprocess.run(argv, capture_output=True, text=True, check=False).stdout.strip()
    wrong = [order for order, digest in digests.items() if digest != BUILD_SHA256]
    print(f"{'ok  ' if not wrong else 'FAIL'} build order: {2 - len(wrong)}/2 fresh interpreters give the pinned digest")
    for order in wrong:
        print(f"     differs: {order} ({digests[order] or 'no digest'})")
    return not wrong


def _fusion_digest() -> str:
    """sha256 of, for each planar family, m = 1..32 and V, S and P at every label, the
    fusion graph's rows, its SCC report, `realized_n0` into the absorbing labels (None
    when there are none) and the powers n = 0..6 of the trivial indicator."""
    digest = hashlib.sha256()
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN):
        for m in range(1, 33):
            simple = tables.simple_table(family, m)
            for i in rank_labels(family, m):
                for kind in "VSP":
                    g = fusion.fusion_matrix(growth.module_spec(family, m, f"{kind}{i}"), simple)
                    report = fusion.scc_analysis(g)
                    n0 = fusion.realized_n0(g, report.absorbing)
                    powers = [fusion.power_multiplicities(g, n) for n in range(7)]
                    digest.update(repr((g.rows, report.components, report.absorbing, n0, powers)).encode())
    return digest.hexdigest()


def _check_fusion() -> bool:
    digest = _fusion_digest()
    ok = digest == FUSION_SHA256
    print(f"{'ok  ' if ok else 'FAIL'} fusion: graphs, SCCs, n0 and powers for m = 1..32 give the pinned digest")
    if not ok:
        print(f"     differs: {digest}")
    return ok


def _series_digest() -> str:
    """sha256 of, for each planar family and m = 63, 64, 65, 128 and 300, the length series
    of V, S and P at the second, middle and top labels, and the multiplicity series of V at
    the second label for every target."""
    digest = hashlib.sha256()
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN):
        for m in (63, 64, 65, 128, 300):
            simple, labels = tables.simple_table(family, m), rank_labels(family, m)
            for i in (labels[1], labels[len(labels) // 2], labels[-1]):
                for kind in "VSP":
                    spec = growth.module_spec(family, m, f"{kind}{i}")
                    digest.update(repr(growth.length_series(spec, simple)).encode())
            spec = growth.module_spec(family, m, f"V{labels[1]}")
            digest.update(repr([growth.multiplicity_series(spec, simple, t) for t in labels]).encode())
    return digest.hexdigest()


def _check_series() -> bool:
    digest = _series_digest()
    ok = digest == SERIES_SHA256
    print(f"{'ok  ' if ok else 'FAIL'} series: lengths and multiplicities at m = 63..65, 128, 300 give the pinned digest")
    if not ok:
        print(f"     differs: {digest}")
    return ok


def main() -> int:
    if sys.argv[1:2] == ["--build-order"]:
        print(_build_digest(sys.argv[2]))
        return 0
    print(f"Python {platform.python_version()} ({sys.executable})")
    lists = _test_cli(
        "_TL3", "_COMMANDS_AND_ARGS", "_HELP", "_USAGE", "_SPELLINGS", "_INTERACTIVE_SHAPES",
        "PINNED_OUTPUTS", "PINNED_HELP", "PINNED_HELP_313", "PINNED_HELP_UNQUOTED",
    )
    results = [
        _check_json(),
        _check_pinned(lists["PINNED_OUTPUTS"]),
        _check_reader(lists),
        _check_digit_limit(),
        _check_help(lists["PINNED_HELP"], lists["PINNED_HELP_313"], lists["PINNED_HELP_UNQUOTED"]),
        _check_build_order(),
        _check_fusion(),
        _check_series(),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
