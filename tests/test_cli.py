import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growthlab
from growthlab import cli, growth, tables, verify
from growthlab.cli import main
from growthlab.diagrams import Family
from growthlab.errors import InputError
from growthlab.fusion import (
    fusion_matrix,
    power_multiplicities,
    realized_n0,
    scc_analysis,
    spectral_check,
)
from growthlab.growth import (
    ExpSum,
    evaluate,
    involution_counts,
    leading_term,
    length_series,
    linear_monoid_constant,
    module_spec,
    multiplicity_series,
)
from growthlab.linalg import Mat
from growthlab.tables import simple_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chartable_text(capsys):
    code, out, _ = run(capsys, "chartable", "--family", "mo", "--m", "5", "--kind", "simple")
    assert code == 0
    assert "2,0,0,1,3,8,20" in out


def test_chartable_json(capsys):
    code, out, _ = run(
        capsys, "chartable", "--family", "tl", "--m", "7", "--kind", "projective", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][3] == ["0", "1", "4", "15"]


def test_chartable_csv_deterministic(capsys):
    args = ("chartable", "--family", "pro", "--m", "4", "--kind", "cell", "--format", "csv")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_growth_length_table(capsys):
    code, out, _ = run(
        capsys, "growth", "length", "--family", "tl", "--m", "7", "--module", "V3", "--n", "1..3"
    )
    assert code == 0
    assert "formula: 13^n - 5*4^n + 8" in out
    assert "\n1,1,13," in out
    assert "\n2,97,169," in out
    assert "\n3,1885,2197," in out


def test_growth_multiplicity_json(capsys):
    code, out, _ = run(
        capsys,
        "growth",
        "multiplicity",
        "--family",
        "tl",
        "--m",
        "7",
        "--module",
        "V3",
        "--target",
        "V7",
        "--n",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["values"][0]["l"] == "84"
    assert payload["formula"][0] == {"coeff": "1", "base": 13}


_SPANS = {"0..6": range(7), "3..9": range(3, 10), "5": range(5, 6)}


def _rows_are_evaluated(capsys, argv, series) -> None:
    # each CSV row is (n, evaluate(series, n), evaluate(leading_term(series), n), their ratio)
    asym = leading_term(series) if series.terms else series
    for text, span in _SPANS.items():
        code, out, err = run(capsys, *argv, "--n", text, "--format", "csv")
        assert (code, err) == (0, ""), argv
        expected = ["n,l,k,ratio"]
        for n in span:
            value, k = evaluate(series, n), evaluate(asym, n)
            expected.append(f"{n},{value},{k},{value / k if k else Fraction(0)}")
        assert [line.rpartition(",")[0] for line in out.splitlines()] == expected, (argv, text)


def test_the_row_pass_is_refereed_by_evaluate(capsys):
    # every planar family at m <= 8, each V/S/P module with each target and the length
    seen = {"zero series": 0, "base 0 at n = 0": 0, "leading base 0": 0}
    for family in (Family.PLANAR_ROOK, Family.TEMPERLEY_LIEB, Family.MOTZKIN):
        for m in range(1, 9):
            table = simple_table(family, m)
            fm = ("--family", family.value.replace("_", "-"), "--m", str(m))
            for selector in [f"{kind}{label}" for kind in "VSP" for label in table.labels]:
                spec = module_spec(family, m, selector)
                for target in (None, *table.labels):
                    if target is None:
                        argv, series = ("growth", "length", *fm, "--module", selector), length_series(spec, table)
                    else:
                        argv = ("growth", "multiplicity", *fm, "--module", selector, "--target", f"V{target}")
                        series = multiplicity_series(spec, table, target)
                    _rows_are_evaluated(capsys, argv, series)
                    seen["zero series"] += not series.terms
                    seen["base 0 at n = 0"] += any(b == 0 for _, b in series.terms)
                    seen["leading base 0"] += bool(series.terms) and leading_term(series).terms[0][1] == 0
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 7), (1, -7)],  # k(n) = 0 at odd n
        [(2, -7), (1, 7), (3, 1), (-4, 0)],  # k(n) = 3 * 7^n or -7^n by parity, and a base 0
        [(1, 3), (-1, -3), (2, 2), (5, -2)],
        [(Fraction(1, 2), 4), (Fraction(-3, 2), 1)],
        [(6, 0)],
    ],
)
def test_the_row_pass_reads_signed_and_zero_bases(capsys, monkeypatch, pairs):
    # the planar families' series at m <= 8 have no negative base: given one by hand
    series = ExpSum.make(pairs)
    monkeypatch.setattr(cli, "_growth_series", lambda spec, target: series)
    _rows_are_evaluated(capsys, ("growth", "length", *_TL7_V3), series)


def test_growth_requires_target_for_multiplicity(capsys):
    code, _, err = run(
        capsys, "growth", "multiplicity", "--family", "tl", "--m", "7", "--module", "V3"
    )
    assert code == 2
    assert "target" in err


def test_fusion_text_and_dot(capsys, tmp_path):
    dot_path = tmp_path / "g.dot"
    code, out, _ = run(
        capsys,
        "fusion",
        "--family",
        "pro",
        "--m",
        "8",
        "--module",
        "V2",
        "--dot",
        str(dot_path),
    )
    assert code == 0
    assert "realized n0 into absorbing: 4" in out
    assert "absorbing: [8]" in out
    text = dot_path.read_text()
    assert text.startswith("digraph fusion {")
    assert '  v8 [label="V_8 (1)", peripheries=2];' in text


def test_fusion_dot_format(capsys):
    code, out, _ = run(
        capsys, "fusion", "--family", "tl", "--m", "7", "--module", "V3", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph fusion {")
    assert out.rstrip().endswith("}")


def test_fusion_json(capsys):
    code, out, _ = run(
        capsys, "fusion", "--family", "pro", "--m", "8", "--module", "V2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n0"] == 4
    assert payload["adjacency"][8][6] == 28


def test_asym_commands(capsys):
    code, out, _ = run(capsys, "asym", "an", "--family", "brauer", "--m", "3")
    assert code == 0 and out.startswith("2/3")
    code, out, _ = run(capsys, "asym", "linear-monoid", "--p", "2", "--r", "1")
    assert code == 0 and out.startswith("2/3")
    code, out, _ = run(capsys, "asym", "involutions", "--m", "5")
    assert code == 0 and "13/60" in out and "26" in out


def test_bounds_commands(capsys):
    code, out, _ = run(capsys, "bounds", "n0", "--l-classes", "256")
    assert code == 0 and out.strip() == "255"
    code, out, _ = run(capsys, "bounds", "n0", "--l-classes", "3", "--semigroup")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(
        capsys, "bounds", "m0", "--l-classes", "5", "--group-order", "6", "--scalar-order", "1"
    )
    assert code == 0 and out.strip() == "9"


def test_pl_commands(capsys):
    code, out, _ = run(capsys, "pl", "digits", "--a", "7", "--p", "inf", "--l", "3")
    assert code == 0 and out.strip() == "[2, 1]"
    code, out, _ = run(capsys, "pl", "support", "--a", "7")
    assert code == 0 and out.strip() == "[3, 7]"
    code, out, _ = run(capsys, "pl", "ancestorless", "--a", "9")
    assert code == 0 and out.strip() == "True"
    code, out, _ = run(capsys, "pl", "digits", "--a", "5", "--p", "2", "--l", "3")
    assert code == 0 and out.strip() == "[1, 2]"


def test_verify_counts_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-m", "3")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_full_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert "FAIL" not in out


def test_verify_verbose_prints_diagram_text(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-m", "2", "--verbose")
    assert code == 0
    assert "idempotent temperley_lieb m=2 rank=0: {1,2}{1',2'}" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "counts", "--max-m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert all(c["status"] == "ok" for c in payload["checks"])


def test_usage_error_exit_code(capsys):
    assert main(["nonsense-command"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "chartable", "--family", "xyz", "--m", "5")
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, "growth", "length", "--family", "tl", "--m", "7", "--module", "V2")
    assert code == 2
    code, _, err = run(capsys, "asym", "linear-monoid", "--p", "4", "--r", "1")
    assert code == 2


_TL7_V3 = ("--family", "tl", "--m", "7", "--module", "V3")
_HUGE_M = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "length", *_TL7_V3, "--n", "a..b"),
        ("growth", "length", *_TL7_V3, "--n", "5.."),
        ("growth", "length", *_TL7_V3, "--n", "5..1"),
        ("growth", "multiplicity", *_TL7_V3, "--target", "Vx"),
        ("fusion", *_TL7_V3, "--dot", "{missing}/x.dot"),
        ("verify", "--suite", "all", "--max-m", "0"),
        ("verify", "--max-m", "-5"),
        ("pl", "digits", "--a", "5", "--p", "abc"),
        ("pl", "digits", "--a", "5", "--p", "2.5"),
        # exact values past Python's 4300-digit int-to-str limit
        ("growth", "length", *_TL7_V3, "--n", "3900"),
        ("asym", "involutions", "--m", "2000"),
        # the message names the labelling rule, not the 1,001 labels
        ("growth", "length", "--family", "tl", "--m", "2000", "--module", "V1", "--n", "1"),
        # more labels than a Python sequence can hold
        ("chartable", "--family", "tl", "--m", _HUGE_M),
        ("growth", "length", "--family", "pro", "--m", _HUGE_M, "--module", "V1", "--n", "1"),
        ("fusion", "--family", "mo", "--m", _HUGE_M, "--module", "S1"),
        # primes past the bound below which Miller-Rabin on 13 bases is exact
        ("pl", "support", "--a", "5", "--p", str(tables._PRIME_BOUND), "--l", "3"),
        ("asym", "linear-monoid", "--p", str(2**89 - 1), "--r", "1"),
    ],
    ids=[
        "bad-range", "open-range", "empty-range", "bad-target", "unwritable-dot",
        "max-m-zero", "max-m-negative", "p-not-a-number", "p-not-an-integer",
        "value-too-long-growth", "value-too-long-involutions", "label-not-at-m",
        "m-past-maxsize-chartable", "m-past-maxsize-growth", "m-past-maxsize-fusion",
        "p-past-prime-bound-pl", "p-past-prime-bound-linear-monoid",
    ],
)
def test_bad_input_is_one_line_and_exit_2(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "no-such-dir") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


def test_more_labels_than_memory_holds_is_one_line_and_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "chartable", "--family", "tl", "--m", "9999999999")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", "error: not enough memory for this input\n")


def test_a_memory_error_in_any_command_is_one_line_and_exit_2(capsys, monkeypatch):
    def out_of_memory(args, out):
        raise MemoryError

    monkeypatch.setitem(cli._GRAMMAR, "pl", (out_of_memory, *cli._GRAMMAR["pl"][1:]))
    assert run(capsys, "pl", "digits", "--a", "5") == (2, "", "error: not enough memory for this input\n")


def _unreachable(*args):
    raise AssertionError("the refusal should come before this call")


_LONG = "1..99999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "length", "--family", "tl", "--m", "5", "--module", "V1", "--n", _LONG),
        ("growth", "multiplicity", "--family", "tl", "--m", "4", "--module", "V4", "--target", "V0", "--n", _LONG),
        ("growth", "multiplicity", "--family", "tl", "--m", "4", "--module", "V0", "--target", "V4", "--n", _LONG),
        ("growth", "length", "--family", "tl", "--m", "5", "--module", "V1", "--n", "5..10005"),
        # a series that takes about a second to build
        ("growth", "length", "--family", "pro", "--m", "2000", "--module", "V0", "--n", _LONG),
        ("growth", "length", "--family", "tl", "--m", "2000", "--module", "V0", "--n", _LONG),
        ("growth", "length", "--family", "mo", "--m", "2000", "--module", "V0", "--n", _LONG),
        # values past the digit limit too
        ("growth", "length", *_TL7_V3, "--n", "1..1000000"),
    ],
    ids=[
        "bases-at-most-1", "base-0", "zero-series", "one-past-the-ceiling",
        "pro-2000", "tl-2000", "mo-2000", "past-the-digit-limit",
    ],
)
def test_a_span_past_the_ceiling_is_refused_at_once(capsys, monkeypatch, argv):
    # the span is refused as the range is read, before any series is built
    # and so before the digit limit is checked
    monkeypatch.setattr(cli, "module_spec", _unreachable)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", f"error: --n spans more than {cli._MAX_SPAN} values\n")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("length", "--family", "tl", "--m", "5", "--module", "V1", "--n", "1..10000", "--format", "csv"),
         "e95a4278503dbb6f1848db60fd96f4fb79d66624f89babce2b706d22ea986238"),
        (("multiplicity", "--family", "tl", "--m", "4", "--module", "V4", "--target", "V0", "--n", "0..9999"),
         "5a83aa534a776d2dc8c76b5c23f0b228d027f815d28e4fd54865c3e3b962a781"),
    ],
    ids=["length-csv", "multiplicity-text"],
)
def test_a_span_at_the_ceiling_prints_as_before(capsys, argv, digest):
    # the sha256 of the output before the ceiling was added
    code, out, err = run(capsys, "growth", *argv)
    assert (code, err, cli._MAX_SPAN) == (0, "", 10_000)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_large_prime_p_is_checked_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "pl", "support", "--a", "5", "--p", "1000000000000000003", "--l", "3")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (0, "[5]\n", "")  # as for every prime p > 2


@pytest.mark.parametrize(
    "a, twists", [("99999999999999999999999", 38), (str(3 * (2**17 - 1)), 17)], ids=["38", "one-past-the-ceiling"]
)
def test_a_support_past_the_twist_ceiling_is_refused_at_once(capsys, monkeypatch, a, twists):
    # 2**38 sign choices once ran until killed: the refusal comes before any
    monkeypatch.setattr(cli, "pl_support", _unreachable)
    start = time.perf_counter()
    code, out, err = run(capsys, "pl", "support", "--a", a, "--p", "2", "--l", "3")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (2, "", f"error: a + 1 has {twists} nonzero digits after the leading one (at most 16)\n")


def test_a_support_at_the_twist_ceiling_prints_as_before(capsys):
    # a + 1 has the (2, 3) digits 1, 1, ..., 1: 16 after the leading one, 2**16 values
    code, out, err = run(capsys, "pl", "support", "--a", str(3 * (2**16 - 1)), "--p", "2", "--l", "3")
    assert (code, err, cli._MAX_TWISTS, len(json.loads(out))) == (0, "", 16, 2**16)
    assert hashlib.sha256(out.encode()).hexdigest() == "f1a1cf07a007c41e1ba069143673f442e0428f2eac1944fdc6ae2d7a918f809d"
    # a negative a is refused by the int rule, "need a >= 0"
    assert run(capsys, "pl", "support", "--a", "-3") == (2, "", "error: need a >= 0\n")


@pytest.mark.parametrize("n", ["-1", "-5..3"])
def test_a_negative_n_is_refused_before_the_work(capsys, monkeypatch, n):
    monkeypatch.setattr(cli, "module_spec", _unreachable)
    code, out, err = run(capsys, "growth", "length", "--family", "pro", "--m", "1500", "--module", "V0", f"--n={n}")
    assert (code, out, err) == (2, "", f"error: --n {n!r} starts below 0 (want n >= 0)\n")


@pytest.mark.parametrize(
    "argv, stage",
    [
        (("growth", "length", *_TL7_V3, "--n", "1000000"), "_growth_rows"),
        # 6,101 values, the last past the limit: the digit limit decides
        (("growth", "length", *_TL7_V3, "--n", "3900..10000"), "_growth_rows"),
        (("asym", "involutions", "--m", "2000"), "involution_sum"),
        (("asym", "involutions", "--m", "4000"), "involution_sum"),
        (("asym", "involutions", "--m", "100000000"), "involution_sum"),
        (("asym", "an", "--family", "rook", "--m", "2000"), "an_constant"),
        (("asym", "an", "--family", "rook", "--m", "4000"), "an_constant"),
        (("asym", "linear-monoid", "--p", "3", "--r", "10000000"), "linear_monoid_constant"),
        (("asym", "linear-monoid", "--p", "3", "--r", str(10**20)), "linear_monoid_constant"),
    ],
    ids=[
        "growth-n", "growth-range", "involutions-2000", "involutions-4000", "involutions-1e8",
        "an-rook-2000", "an-rook-4000", "linear-monoid-1e7", "linear-monoid-1e20",
    ],
)
def test_unprintable_values_are_refused_before_the_work(capsys, monkeypatch, argv, stage):
    monkeypatch.setattr(cli, stage, _unreachable)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: an exact value has more than {sys.get_int_max_str_digits()} digits to print\n"


@pytest.mark.parametrize("r", ["10000000", str(10**20)])
def test_linear_monoid_past_the_limit_is_refused_at_once(capsys, r):
    start = time.perf_counter()
    code, out, err = run(capsys, "asym", "linear-monoid", "--p", "3", "--r", r)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _refused_up_front(p: int, r: int) -> bool:
    try:
        cli._refuse_unprintable_linear_monoid(p, r)
    except InputError:
        return True
    return False


def _printed(p: int, r: int) -> bool:
    # what the command did before its up-front refusal: compute, then print
    try:
        str(linear_monoid_constant(p, r))
    except ValueError:
        return False
    return True


def _first(test, lo: int, hi: int) -> int:
    # the least r in (lo, hi] with test(r), for test false at lo and true at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if test(mid) else (mid, hi)
    return hi


# the least r refused up front at the default limit of 4,300 digits: past
# 4300 / log10(p^2 / (2p - 1)) = 34,417, 16,845, 9,691 and 7,462, in whole
# steps of 256
@pytest.mark.parametrize("p, refused", [(2, 35584), (3, 17152), (5, 9984), (7, 7680)])
def test_linear_monoid_refuses_only_what_cannot_be_printed(p, refused):
    # the digits of the printed value grow with r; the least r refused up front
    # lies above the last r that prints, and every r from there up to it fails
    first = _first(lambda r: _refused_up_front(p, r), 0, 10**6)
    assert first == refused
    last_printed = _first(lambda r: not _printed(p, r), 1, first) - 1
    assert _printed(p, last_printed) and last_printed < first
    assert not any(_printed(p, r) for r in range(last_printed + 1, first + 1, max(1, (first - last_printed) // 16)))
    assert not _printed(p, first) and not _refused_up_front(p, first - 1)


def test_unlimited_digits_refuse_nothing(capsys, monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    monkeypatch.setattr(cli, "involution_sum", lambda m: (Fraction(1, 3), 7))
    code, out, _ = run(capsys, "asym", "involutions", "--m", "4000")
    assert code == 0 and out.startswith("sum: 1/3 = ")
    monkeypatch.setattr(cli, "linear_monoid_constant", lambda p, r: Fraction(1, 3))
    code, out, _ = run(capsys, "asym", "linear-monoid", "--p", "3", "--r", "10000000")
    assert code == 0 and out.startswith("1/3 = ")
    # the row pass is stubbed, so that no value of a million digits is printed
    reached = []
    monkeypatch.setattr(
        cli, "_growth_rows", lambda series, lead, span: reached.extend(span) or [(n, 1, 1, Fraction(1)) for n in span]
    )
    code, out, _ = run(capsys, "growth", "length", *_TL7_V3, "--n", "1000000")
    assert code == 0 and reached == [1000000] and out.endswith("\n1000000,1,1,1,1\n")


def _past_limit(x: int, limit: int) -> bool:
    return abs(x) >= 10**limit


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 13), (-5, 4), (8, 1)],  # TL7 V3
        [(2, -7), (1, 7), (3, 1)],  # k(n) = 3 * 7^n or -7^n by parity
        [(1, 7), (1, -7)],  # k(n) = 0 for odd n
        [(Fraction(3, 1024), 9), (Fraction(-1, 5), -9)],
        [(Fraction(1, 2**100), 2)],  # the denominator cancels against 2^n
        [(1, 1)],
    ],
)
def test_growth_refusal_is_sound(pairs):
    # refused means k(n) truly is past the limit
    limit = sys.get_int_max_str_digits()
    asym = leading_term(ExpSum.make(pairs))
    for n in range(0, 16000, 37):
        try:
            cli._refuse_unprintable_growth(asym, range(n, n + 1))
        except InputError:
            assert _past_limit(evaluate(asym, n).numerator, limit), (pairs, n)


def test_growth_refusal_reads_both_parities():
    # k(n) = 2 * 7^n for even n and 0 for odd n: a span that ends on an odd
    # n is refused for its even n - 1
    asym = leading_term(ExpSum.make([(1, 7), (1, -7)]))
    cli._refuse_unprintable_growth(asym, range(20001, 20002))
    with pytest.raises(InputError):
        cli._refuse_unprintable_growth(asym, range(1, 20002))


def test_growth_refusal_is_close_for_powers_of_two():
    # for B = 8, B**n is exactly 2**(3n): the refusal starts within 1 % of
    # the first n past the limit (the slack is 10**3 < 2**10) and holds after
    limit = sys.get_int_max_str_digits()
    asym = leading_term(ExpSum.make([(1, 8)]))
    refused = []
    for n in range(4700, 4900):
        try:
            cli._refuse_unprintable_growth(asym, range(n, n + 1))
        except InputError:
            refused.append(n)
    first_failing = next(n for n in range(4700, 4900) if _past_limit(8**n, limit))
    assert refused == list(range(refused[0], 4900))
    assert first_failing <= refused[0] <= first_failing * 1.01


def test_involution_refusal_is_sound():
    # refused exactly when a printed integer passes the limit: p and q of the
    # reduced sum I(m)/m!, and I(m) itself for `asym involutions`
    limit = sys.get_int_max_str_digits()
    for m in (1, 2, 5, 100, 1000, 1596, 1597, 2000, 2600, 3000, 4000):
        *_, count = involution_counts(m)
        value = Fraction(count, factorial(m))
        for with_count in (False, True):
            printed = [value.numerator, value.denominator] + [count] * with_count
            try:
                cli._refuse_unprintable_involutions(m, with_count=with_count)
            except InputError:
                assert any(_past_limit(x, limit) for x in printed), m
            else:
                assert not any(_past_limit(x, limit) for x in printed), m


def _involutions_refused(m: int, with_count: bool) -> bool:
    try:
        cli._refuse_unprintable_involutions(m, with_count=with_count)
    except InputError:
        return True
    return False


def _involutions_printed(m: int) -> list[int]:
    # the integers `asym involutions` prints: p and q of I(m)/m!, then I(m)
    *_, count = involution_counts(m)
    value = Fraction(count, factorial(m))
    return [value.numerator, value.denominator, count]


# the least m refused, at the default limit of 4,300 digits and at 640: the
# same with and without I(m), whose m!/gcd outgrows it; at both limits the
# exact comparison with 10**limit settles it, past 3 * limit bits
@pytest.mark.parametrize("limit, refused", [(sys.int_info.default_max_str_digits, 1597), (640, 320)])
@pytest.mark.parametrize("with_count", [False, True])
def test_involutions_refuse_from_the_least_unprintable_m(limit, refused, with_count):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        first = _first(lambda m: _involutions_refused(m, with_count), 0, 10**5)
        before, at = (_involutions_printed(m)[: 2 + with_count] for m in (first - 1, first))
    finally:
        sys.set_int_max_str_digits(saved)
    assert first == refused
    assert not any(_past_limit(x, limit) for x in before)
    top = max(at)
    assert _past_limit(top, limit) and top.bit_length() > 3 * limit


@pytest.mark.parametrize(
    "argv, stage",
    [
        (("asym", "involutions", "--m"), "involution_sum"),
        (("asym", "an", "--family", "rook", "--m"), "an_constant"),
    ],
    ids=["involutions", "an-rook"],
)
def test_involution_refusal_is_exact(capsys, monkeypatch, argv, stage):
    # at the smallest digit limit the refusal starts at m = 320: every m
    # exits 2 before the sum runs or prints its value, so the late catch of
    # an unprintable int is never reached
    calls = []
    original = getattr(cli, stage)
    monkeypatch.setattr(cli, stage, lambda *a: calls.append(a) or original(*a))
    seen = set()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for m in range(1, 341):
            calls.clear()
            code, out, err = run(capsys, *argv, str(m))
            assert (code, bool(calls)) in {(0, True), (2, False)}, (m, err)
            seen.add(code)
    finally:
        sys.set_int_max_str_digits(limit)
    assert seen == {0, 2}


def test_zero_multiplicity_prints_zero_rows(capsys):
    # V8 never occurs in a tensor power of the trivial TL8 module
    code, out, err = run(
        capsys, "growth", "multiplicity", "--family", "tl", "--m", "8",
        "--module", "V0", "--target", "V8", "--n", "1..6",
    )
    assert code == 0 and err == ""
    assert "formula: 0" in out
    assert out.splitlines()[3:] == [f"{n},0,0,0,0" for n in range(1, 7)]


def test_verify_without_checks_fails(capsys, monkeypatch):
    # --max-m below 1 is refused up front, so only a suite registry that
    # yields nothing can reach the empty-run gate
    with monkeypatch.context() as patch:
        patch.setattr(verify, "run_suite", lambda suite, max_m: [])
        code, out, err = run(capsys, "verify", "--suite", "counts")
    assert code == 3 and out == "" and "no checks" in err
    monkeypatch.setenv("GROWTHLAB_MAX_M", "-3")
    code, out, err = run(capsys, "verify", "--suite", "counts")
    assert code == 2 and out == "" and "GROWTHLAB_MAX_M" in err


_TL3 = ("--family", "tl", "--m", "3")
_COMMANDS_AND_ARGS = [
    ("chartable", *_TL3, "--kind", "simple", "--format", "json"),
    ("growth", "length", *_TL3, "--module", "V1", "--n", "1..3", "--format", "csv"),
    ("growth", "multiplicity", *_TL3, "--module", "V1", "--target", "V3", "--format", "json"),
    ("fusion", *_TL3, "--module", "S1", "--format", "dot"),
    ("asym", "an", *_TL3),
    ("asym", "linear-monoid", "--p", "3", "--r", "2"),
    ("asym", "involutions", "--m", "5"),
    ("bounds", "n0", "--l-classes", "3", "--semigroup"),
    ("bounds", "m0", "--l-classes", "5", "--group-order", "6", "--scalar-order", "1"),
    ("pl", "digits", "--a", "7", "--p", "2"),
    ("pl", "support", "--a", "7"),
    ("pl", "ancestorless", "--a", "9"),
    ("verify", "--suite", "counts", "--max-m", "2", "--format", "json"),
]
_HELP = [
    ("-h",), ("--help",), ("chartable", "-h"), ("growth", "-h"), ("fusion", "-h"),
    ("asym", "-h"), ("asym", "an", "-h"), ("asym", "linear-monoid", "-h"),
    ("asym", "involutions", "-h"), ("bounds", "-h"), ("bounds", "n0", "-h"),
    ("bounds", "m0", "-h"), ("pl", "-h"), ("verify", "-h"), ("chartable", *_TL3, "--he"),
]
_USAGE = [
    (), ("nonsense-command",), ("Chartable", *_TL3), ("--family", "tl", "chartable"),
    ("--", "chartable", *_TL3), ("chartable", *_TL3, "--bogus"), ("chartable", *_TL3, "extra"),
    ("asym", "an", *_TL3, "--bogus", "x"), ("asym",), ("asym", "bogus"), ("bounds", "m0", "--l-classes", "5"),
    ("chartable", "--family", "tl"), ("chartable", *_TL3, "--format", "xml"),
    ("growth", "bogus", *_TL3, "--module", "V1"), ("chartable", "--family", "tl", "--m", "three"),
]
_SPELLINGS = [
    ("chartable", "--fam", "tl", "--m", "3"), ("chartable", "--family=tl", "--m=3", "--for", "csv"),
    ("growth", *_TL3, "--module", "V1", "--", "length"), ("pl", "digits", "--a", "7", "--", "--p"),
    ("chartable", "--family", "tl", "--m", "-3"), ("chartable", "--family", "xyz", "--m", "3"),
]


def _full_parse(argv):
    return cli._build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv", _COMMANDS_AND_ARGS + _HELP + _USAGE + _SPELLINGS, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_dispatch_answers_as_the_full_parser(capsys, monkeypatch, argv):
    dispatched = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", _full_parse)
    assert run(capsys, *argv) == dispatched


# sha256 of what each help or usage call prints (stdout for help, stderr for
# a usage error), as argparse prints it on Python 3.10 to 3.12
PINNED_HELP = {
    "-h":
        "be380dbf66c72790b6cc00a34673e8d1ac4c2fffc9f088d7fdd2b8459c3ad6d4",
    "--help":
        "be380dbf66c72790b6cc00a34673e8d1ac4c2fffc9f088d7fdd2b8459c3ad6d4",
    "chartable -h":
        "e9b7a5b2ce2e3460fac684084d116c58ae1e8a35abaafd0b243b95dd084723dc",
    "growth -h":
        "1750ce4982c9a29c85592c3481bbbc90b3f834dedc142ad5850316a95dfcb91b",
    "fusion -h":
        "f7264c7ade20f03231828acfd8e2b418f8322f811fc7ac4d390c05e72947b8e1",
    "asym -h":
        "f1ee17932bd894c74a2ede31ec5c133daacb6c9d99d83bc23441da54fcbe6d44",
    "asym an -h":
        "973afa99a0d9beed062b653f03414d7691b5b1cf817f61dee641f3a32b1d6988",
    "asym linear-monoid -h":
        "e83ac720bf1a3e43ad140d17fad76a353a7c6503920b602d442c5db51678658d",
    "asym involutions -h":
        "8362673684f8ce12a1fe002b606d7f33c3353119c08b7df2b5061309b42397d0",
    "bounds -h":
        "bd82239ea404ffa2c754e6dfc12662c856187e4e0a7f05b4a890a12dee365b76",
    "bounds n0 -h":
        "99910088e2de4eadc26b6b00d4f9dea58d39265cc7e43073f217debbec104710",
    "bounds m0 -h":
        "58f051f188c01ca46ccb4f85adcd86045eb64e7829a03d01ade4ecf4646fa6be",
    "pl -h":
        "fb501207ee8230dc76ecc38d7352f0d1c4f51dddb5c24f27d827273f429518e2",
    "verify -h":
        "daa85152b0bf17699446ff2b48483e48aef025f203254b756c5252bd7b71c31f",
    "chartable --family tl --m 3 --he":
        "e9b7a5b2ce2e3460fac684084d116c58ae1e8a35abaafd0b243b95dd084723dc",
    "":
        "e590c43eb2a6f55c4ed276129dd18ee1418d431dad4959cf6c24c728576f0251",
    "nonsense-command":
        "85ea25e2a07e0ec4a9d7562535c6289516a8b7eb795a010db9103bb4d727a1a2",
    "Chartable --family tl --m 3":
        "ac4c7f5dbd1acd95bb1843ba9785c5ae20521c106093aebc0099da2dec213888",
    "--family tl chartable":
        "5963fb611f172fa7d78be35f087dd7d183d2e59ee0651e4a694c927800c06eee",
    "-- chartable --family tl --m 3":
        "e30cc27aaa3cbdc19ebc248b1121be37bf1e4a5df6d1c12a6d40c4f64061cdc2",
    "chartable --family tl --m 3 --bogus":
        "0a63630a985e0faf799f29223f96fa78c82523035574da1bbc4cb5958a92e619",
    "chartable --family tl --m 3 extra":
        "3f021047046cbf1b22b0a60cf78aafa8871bbdea5457a882f136061099c49f4b",
    "asym an --family tl --m 3 --bogus x":
        "e6c4d67f775d0e5d50ba765fb87cac5334851d7885fd9297f6d5758fb4d61843",
    "asym":
        "f9ebbc2a4dd6d850a37bf9ffc69b4860a451f7f0c5b4722506f4337cfc346b18",
    "asym bogus":
        "cd410201aa5b6466ca8aabdc0e0e63b37be7460f875102f82a9c3692392dcf59",
    "bounds m0 --l-classes 5":
        "72bbfe570d5592b412af807576d48a4b66802a02c6fba59e64532108a8124269",
    "chartable --family tl":
        "b6397d6e6725e74118959690dba5e2beb3640b57a5aec4caf5fa8a79c170b90e",
    "chartable --family tl --m 3 --format xml":
        "de4bbe67c9262e1ef3c18a514c33a570f1316e5e69acb10e7a111d3b6e052d83",
    "growth bogus --family tl --m 3 --module V1":
        "0df9690bf8e21af95aafc8d57105cd494f59dc806e6c35052fae5e0ec5b1d852",
    "chartable --family tl --m three":
        "e5b076d8ac1bf39a526ad3381df07d8520a806ad6658d37c570a1e5da79e82fd",
}
# argparse 3.13 wraps a long usage line between whole options, never between
# an option and its metavar
PINNED_HELP_313 = {
    "bounds m0 -h":
        "235483aa966af11be34469cfa1f8221f6e8ca0302d9b2269cf875e00468523f1",
    "bounds m0 --l-classes 5":
        "eb15ab10cc3b9e5a9060400f34382ac9ffe9f0aa69bf8aa2686e7dd4339c158e",
}
# an argparse that prints the choices of `invalid choice` unquoted (3.13.13;
# 3.10.13 to 3.13.0 quote them) also reads a leading "--" as the end of the
# options, so "-- chartable ..." prints the table
PINNED_HELP_UNQUOTED = {
    "nonsense-command":
        "d191e2f748ef4b4ee5537c56d0ec8262dba526601f4e789387c035b555b75955",
    "Chartable --family tl --m 3":
        "4ea01cbb806610f015310b2646fd71c210ecb212b205c6aee52ea3e4bd7089dd",
    "--family tl chartable":
        "4aac25803d1e18f5749fef4462aca3795b4c08d188ccefab979ecdc049018360",
    "-- chartable --family tl --m 3":
        "15e187ccb24cec0fc03ca3964a5121cc47e2b75ab6c0f8af7f0f15af94c466a4",
    "asym bogus":
        "978be117a118e48bf1c9a289e587058d95442c1712357c5a830dcb0571c2e99c",
    "chartable --family tl --m 3 --format xml":
        "f2939073adf8c8bab91cbb5f3f23f21c2d50546f45d74b7b096f7a9eaf3ff479",
    "growth bogus --family tl --m 3 --module V1":
        "a8791ad63f956f218fdef7c33c2b13e6c11917500fe0e595bde7af9c6e210410",
}


def _argparse_quotes_choices() -> bool | None:
    """Whether this interpreter's argparse quotes each choice of an `invalid choice` error."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("x", choices=["a"])
    try:
        parser.parse_args(["b"])
    except argparse.ArgumentError as error:
        return "'a'" in str(error)


def _argparse_ends_the_options_at_a_leading_double_dash() -> bool:
    """Whether this interpreter's argparse reads "-- a" as the subcommand a (3.13.13) rather
    than refusing "--" as an invalid choice (3.10.13 to 3.13.0)."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_subparsers(dest="command", required=True).add_parser("a")
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return parser.parse_args(["--", "a"]).command == "a"
    except (argparse.ArgumentError, SystemExit):
        return False


@pytest.mark.parametrize("argv", _HELP + _USAGE, ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_bytes_are_pinned(capsys, monkeypatch, argv):
    pins = {**PINNED_HELP, **PINNED_HELP_313} if sys.version_info >= (3, 13) else PINNED_HELP
    if not _argparse_quotes_choices():
        pins = {**pins, **PINNED_HELP_UNQUOTED}
    # help prints to stdout and exits 0, as does a call after a leading "--" that ends the options
    printed = argv in _HELP or argv[:1] == ("--",) and _argparse_ends_the_options_at_a_leading_double_dash()
    # the parsers wrap at one width, whatever the terminal's (argparse reads COLUMNS)
    for columns in ("50", "80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run(capsys, *argv)
        assert (code, out == "", err == "") == ((0, False, True) if printed else (1, True, False))
        assert hashlib.sha256((out + err).encode()).hexdigest() == pins[" ".join(argv)], columns


@pytest.mark.parametrize(
    "argv, parsers",
    [
        # a well-formed call is read off its parser's actions, with no argparse pass
        (("chartable", *_TL3), []),
        (("asym", "an", *_TL3), []),
        # any other argv: the full parser, one argparse pass per parser level
        (("chartable", "--fam", "tl", "--m", "3"), ["growthlab", "growthlab chartable"]),
        (("asym", "an", *_TL3, "--bogus", "x"), ["growthlab", "growthlab asym", "growthlab asym an"]),
    ],
)
def test_a_call_parses_once_per_parser_level(capsys, monkeypatch, argv, parsers):
    seen = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        seen.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    code = run(capsys, *argv)[0]
    assert code == (cli.USAGE_ERROR if "--bogus" in argv else 0)
    assert seen == parsers


def _subcommands(parser) -> dict:
    # the parsers of parser's subcommands, by name ({} when it has none)
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


# one call of each shape of the benchmark's interactive workload
_INTERACTIVE_SHAPES = [
    ("chartable", *_TL3, "--kind", "cell-inverse", "--format", "csv"),
    ("growth", "length", "--family", "pro", "--m", "5", "--module", "P2", "--n", "1..5", "--format", "text"),
    ("growth", "multiplicity", "--family", "mo", "--m", "4", "--module", "S2", "--target", "V0", "--n", "1..8"),
    ("fusion", "--family", "pro", "--m", "5", "--module", "V2", "--format", "json"),
    ("pl", "support", "--a", "417", "--p", "inf", "--l", "2"),
    ("asym", "linear-monoid", "--p", "7", "--r", "3"),
    ("bounds", "n0", "--l-classes", "12"),
]


def test_the_reader_takes_plain_calls_and_leaves_help_and_errors():
    # so that the referee below cannot pass by reading nothing
    for argv in _COMMANDS_AND_ARGS + _INTERACTIVE_SHAPES:
        assert vars(cli._read(list(argv))) == vars(_full_parse(argv)), argv
    for argv in _HELP + _USAGE:
        assert not argv or argv[0] not in cli._GRAMMAR or cli._read(list(argv)) is None, argv


# words the grammar never names, each a form the reader leaves to argparse
_NEAR_MISSES = ["-h", "--", "--bogus", "-3", "", "a b", "bogus", "x"]


@st.composite
def _argvs(draw) -> list[str]:
    """An argv drawn from the full parser's own option strings, choices and
    subcommands for one command, then at times given one near miss."""
    command = draw(st.sampled_from(list(cli._GRAMMAR)))
    parser, words, loose = _subcommands(cli._build_parser())[command], [command], []
    if subs := _subcommands(parser):
        words.append(draw(st.sampled_from(list(subs))))
        parser, loose = subs[words[-1]], list(subs)
    pieces = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or not action.required and draw(st.booleans()):
            continue
        good = list(action.choices or []) or (["0", "3", "12"] if action.type is int else ["tl", "V1", "1..3", "inf"])
        if not action.option_strings:
            loose += good
        value = [draw(st.sampled_from(good))] if action.nargs != 0 else []
        pieces.append(action.option_strings[:1] + value)
    if pieces and draw(st.booleans()):  # repeat an option or a positional
        pieces.append(draw(st.sampled_from(pieces)))
    words += [word for piece in draw(st.permutations(pieces)) for word in piece]
    miss = draw(st.sampled_from([None, None, "drop", "insert", "replace", "abbreviate", "="]))
    i = draw(st.integers(1, len(words) - 1)) if len(words) > 1 else 0
    stray = draw(st.sampled_from(_NEAR_MISSES + loose))  # a near miss, a subcommand or a positional
    if miss == "drop" and i:  # a missing value, subcommand or required option
        del words[i]
    elif miss == "insert":
        words.insert(i + 1, stray)
    elif miss == "replace" and i:  # an out-of-choice or ill-typed value, or an option for a value
        words[i] = stray
    elif miss == "abbreviate" and words[i].startswith("--"):
        words[i] = words[i][: draw(st.integers(2, len(words[i]) - 1))]
    elif miss == "=" and words[i].startswith("--") and i + 1 < len(words):
        words[i : i + 2] = [f"{words[i]}={words[i + 1]}"]
    return words


@settings(max_examples=1000, deadline=None)
@given(_argvs())
def test_the_reader_reads_as_argparse_or_declines(argv):
    read = cli._read(argv)
    assert read is None or vars(read) == vars(_full_parse(argv))


def test_a_command_builds_no_other_parser():
    # in a fresh interpreter: a plain call of every command, each nested one
    # included, builds no parser and loads no argparse; a help call does both
    assert {argv[0] for argv in _COMMANDS_AND_ARGS} == set(cli._GRAMMAR)
    nested = {command: words[1] for command, (_, _, words) in cli._GRAMMAR.items() if isinstance(words, tuple)}
    assert {argv[:2] for argv in _COMMANDS_AND_ARGS if argv[0] in nested} == {
        (command, sub) for command, subs in nested.items() for sub in subs
    }
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "from growthlab import cli\n"
        "def state(calls):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes = [cli.main(list(argv)) for argv in calls]\n"
        "    print(codes, cli._build_parser.cache_info().misses, 'argparse' in sys.modules)\n"
        f"state({_COMMANDS_AND_ARGS!r})\n"
        "state([('chartable', '-h')])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{[0] * len(_COMMANDS_AND_ARGS)} 0 False", "[0] 1 True"]


def test_cli_determinism_across_runs(capsys):
    args = (
        "growth", "length", "--family", "mo", "--m", "5", "--module", "S1",
        "--n", "1..4", "--format", "json",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_one_process_matches_separate_processes(capsys):
    # the parser is built once per process; calls after a usage error, and a
    # repeated call, must behave exactly as in a fresh interpreter
    calls = [
        ("chartable", "--family", "tl", "--m"),
        ("chartable", "--family", "tl", "--m", "7", "--kind", "simple"),
        ("chartable", "--family", "tl", "--m", "7", "--kind", "simple"),
        ("fusion", "--family", "pro", "--m", "4", "--module", "V1", "--format", "json"),
        ("fusion", "--family", "pro", "--m", "4", "--module", "V1", "--format", "json"),
    ]
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "growthlab", *argv], capture_output=True, text=True, env=env
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


# sha256 of stdout, computed before tables and fusion graphs held int rows:
# any rendering difference between an int and a Fraction entry shows here
# (the growth csv and text pins date from before those formats shared one block)
PINNED_OUTPUTS = {
    "chartable --family mo --m 300 --kind simple --format csv":
        "eda056519b80da50607f323e7ac280e6760b4fe14dfccf4513a28273d32f4f93",
    "chartable --family tl --m 40 --kind projective --format json":
        "3e82c1c377c06d352192c4118e436f013263042137165d41deab9071ea527245",
    "chartable --family pro --m 20 --kind cell-inverse --format text":
        "b2c65be2e34ad46e61dec18687c3fdd1b6d669345d7617c85706d625be013c02",
    "fusion --family mo --m 80 --module V1 --format json":
        "8ba10cf3d21caf2f6110a62e56e96c3b3b0fbce8f6817c660fe6418ac47d64f7",
    "fusion --family tl --m 30 --module S4 --format text":
        "3facc3ffabd11b0bb5fe271a93ad5f399b4155524a6e7612ae4ef85f3b2bbd83",
    "fusion --family pro --m 12 --module P3 --format dot":
        "622694602c76e89d57e8b3a66300c189b47a321e2595b8b8d14bb716777c14b8",
    "growth length --family mo --m 40 --module V2 --n 1..8 --format json":
        "959d7a86b64e87833ab0855d2ed314a0ca1b8253cd3d6de5a48b5ebd362d5821",
    "growth length --family mo --m 40 --module V2 --n 1..8 --format csv":
        "2d64adb08b5a0098b84b1799f3d919e85005fd12f56f1808af7d077a427fd9bf",
    "growth multiplicity --family tl --m 7 --module V3 --target V5 --n 0..6 --format text":
        "628bc95359ce22e77dcf1082f4162227cf2962ff184fcb438bc2cbf1822dc7f3",
    "verify --suite all --format json":
        "fd65f6353dac3d95895094490f1827884559209211bce7e049d1311f1c41896a",
    "verify --suite all":
        "0f9a98aeb0b2899bb112c0b2b81470cba78837eb4460a2c5f9c11164d558e5fc",
}


@pytest.mark.parametrize("command", PINNED_OUTPUTS)
def test_outputs_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[command]


def _no_mat(self, rows):
    raise AssertionError("the closed-form path built a Mat")


def test_closed_form_path_builds_no_mat(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(Mat, "__init__", _no_mat)
    for family, m in ((Family.PLANAR_ROOK, 6), (Family.TEMPERLEY_LIEB, 7), (Family.MOTZKIN, 5)):
        simple = simple_table(family, m)
        for label in simple.labels:
            for prefix in "VSP":
                spec = module_spec(family, m, f"{prefix}{label}")
                length_series(spec, simple)
                for target in simple.labels:
                    multiplicity_series(spec, simple, target)
                g = fusion_matrix(spec, simple)
                report = scc_analysis(g)
                realized_n0(g, set(report.absorbing) or {simple.labels[-1]})
                power_multiplicities(g, 4)
                spectral_check(g, spec, simple, max_n=4)
    tl7 = ("--family", "tl", "--m", "7")
    calls = [
        ("chartable", *tl7, "--kind", kind, "--format", fmt)
        for kind in ("cell", "simple", "projective", "cell-inverse")
        for fmt in ("text", "json", "csv")
    ]
    calls += [
        ("fusion", *tl7, "--module", "S3", "--format", fmt, "--dot", str(tmp_path / "g.dot"))
        for fmt in ("text", "json", "dot")
    ]
    calls += [
        ("growth", *statistic, *tl7, "--module", "P1", "--n", "0..5", "--format", fmt)
        for statistic in (("length",), ("multiplicity", "--target", "V3"))
        for fmt in ("text", "json", "csv")
    ]
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out


def _no_table(*args):
    raise AssertionError("a table was built before every label was checked")


@pytest.mark.parametrize("target", ["V3", "V2001", "V-1"])
def test_bad_target_is_refused_before_any_table(capsys, monkeypatch, target):
    for module, name in (
        (cli, "simple_table"),
        (growth, "_cell_columns"),
        (tables, "_cell_columns"),
        (tables, "_cell_rows"),
    ):
        monkeypatch.setattr(module, name, _no_table)
    code, out, err = run(
        capsys, "growth", "multiplicity", "--family", "tl", "--m", "2000",
        "--module", "V2", "--target", target,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: label ") and "temperley_lieb m=2000" in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize(
    "argv, built",
    [
        (("growth", "length", "--module", "V3"), []),
        (("growth", "multiplicity", "--module", "V3", "--target", "V5"), []),
        (("fusion", "--module", "V3"), [(Family.TEMPERLEY_LIEB, 7, "simple")]),
        (("fusion", "--module", "V3", "--format", "json"), [(Family.TEMPERLEY_LIEB, 7, "simple")]),
    ],
    ids=["argv0", "argv1", "argv2", "argv3"],
)
def test_v_module_commands_build_the_simple_table_once(capsys, monkeypatch, argv, built):
    # growth reads columns of the inverse cell table and builds no table;
    # fusion builds the one simple table it solves against
    calls = []
    original = tables.CharTable.__post_init__

    def counting(table):
        calls.append((table.family, table.m, table.kind))
        original(table)

    monkeypatch.setattr(tables.CharTable, "__post_init__", counting)
    code, out, err = run(capsys, *argv, "--family", "tl", "--m", "7")
    assert (code, err) == (0, "") and out
    assert calls == built


@pytest.mark.parametrize("statistic", [("length",), ("multiplicity", "--target", "V296")])
@pytest.mark.parametrize("module", ["V2", "S10", "P4"])
def test_growth_never_builds_the_cell_rows(capsys, monkeypatch, statistic, module):
    # the module's row comes from one streamed lattice pass, not the tables' rows
    monkeypatch.setattr(tables, "_cell_rows", _no_table)
    code, out, err = run(
        capsys, "growth", *statistic, "--family", "tl", "--m", "300", "--module", module, "--n", "1"
    )
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("target", ["vVV1", "VV3", "V3V", "S3", "V", "3.0", ""])
def test_target_takes_one_optional_v_and_a_label(capsys, target):
    code, out, err = run(capsys, "growth", "multiplicity", *_TL7_V3, "--target", target)
    assert (code, out) == (2, "")
    assert err == f"error: bad target {target!r} (want V<i>)\n"


def test_target_with_or_without_v_reads_the_same_label(capsys):
    outputs = {
        run(capsys, "growth", "multiplicity", *_TL7_V3, "--target", target)
        for target in ("V5", "v5", "5", " V5 ")
    }
    assert len(outputs) == 1 and outputs.pop()[0] == 0


# peak RSS of `growth length --family tl --m 1000 --module V2 --n 1` in a
# fresh interpreter, import included: 18 MB with the lattice streamed and
# the inverse cell table read a column at a time, against 51 MB when the
# command built and solved the whole simple table (Python 3.11, Linux)
GROWTH_RSS_LIMIT_MB = 30


def test_growth_at_tl_1000_stays_small():
    src = str(Path(growthlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # a small parent runs the command, so the child's peak is the command's own
    script = (
        "import resource, subprocess, sys\n"
        "done = subprocess.run([sys.executable, '-m', 'growthlab', *sys.argv[1:]], capture_output=True)\n"
        "print(done.returncode, len(done.stdout), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    argv = ["growth", "length", "--family", "tl", "--m", "1000", "--module", "V2", "--n", "1"]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    code, printed, peak_kib = map(int, done.stdout.split())  # ru_maxrss is in KiB on Linux
    assert code == 0 and printed
    assert peak_kib / 1024 < GROWTH_RSS_LIMIT_MB
