"""CLI subcommands, output formats, exit codes, and golden renderings."""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import MappingProxyType

import pytest

from dp1toric import cli
from dp1toric.classify import (DEFAULT_BOX, ClassificationRow, SearchBox,
                               classify_k2_failures, oracle_search)
from dp1toric.cli import _json, main, render_report, render_rows
from dp1toric.conditions import (_DEFAULT_K3, _VALIDITY, DEFAULT_THRESHOLDS, CaseLabel,
                                 FibrationReport, KFailureReason, KStatus, ValidityReport,
                                 Verdict, WeightRatios, report, to_json)
from dp1toric.grading import (BundleParams, DivisorClass, monomial_basis,
                              monomial_strings)

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- analyze -------------------------------------------------------------------

def test_analyze_accepts_decimal_and_rational_thresholds(capsys):
    code, out, _ = run(capsys, "analyze", "2", "2", "5", "--thresholds",
                       "1e-3,3/2,0.5", "--format", "json")
    assert code == 0
    assert json.loads(out)["k3_threshold_results"] == {
        "1/1000": False, "3/2": True, "1/2": False}


def test_analyze_accepts_a_threshold_of_as_many_digits_as_the_limit(capsys):
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    code, out, _ = run(capsys, "analyze", "1", "1", "3", "--thresholds",
                       f"1e{limit - 1}", "--format", "json")
    assert code == 0
    assert json.loads(out)["k3_threshold_results"] == {"1" + "0" * (limit - 1): True}


def test_analyze_json_round_trips(capsys):
    for triplet in [("1", "1", "3"), ("0", "0", "0"), ("4", "6", "10")]:
        code, out, _ = run(capsys, "analyze", *triplet, "--format", "json")
        assert code == 0
        parsed = FibrationReport.from_json_dict(json.loads(out))
        assert parsed == report(BundleParams(*map(int, triplet)))


def test_every_json_report_golden_round_trips():
    goldens = sorted(GOLDEN.glob("analyze_*.json"))
    assert len(goldens) == 9
    for path in goldens:
        data = json.loads(path.read_text(encoding="utf-8"))
        assert FibrationReport.from_json_dict(data).to_json_dict() == data, path.name


# --- the JSON writer ------------------------------------------------------------

STDLIB_JSON = json.JSONEncoder(indent=2)


def test_json_reports_are_written_as_the_standard_library_writes_them():
    # lambda in [0,4], mu in [-10,10], nu in [-1,17]: invalid triplets, the
    # three cases and the 8 triplets on the D_z certificate path.
    grid = set(product(range(5), range(-10, 11), range(-1, 18)))
    assert {(0, -3, 0), (0, -2, 0), (0, -1, 1), (1, -4, 0), (1, -2, 1), (1, 0, 2),
            (1, 1, 3), (2, 3, 5)} <= grid
    cases, certified = set(), set()
    for p in sorted(grid):
        rep = report(BundleParams(*p))
        assert render_report(rep, "json") == STDLIB_JSON.encode(rep.to_json_dict()) + "\n"
        cases.add(rep.case)
        if rep.k_status and rep.k_status.reason is KFailureReason.DZ_MOVABLE_INTERIOR:
            certified.add(p)
    assert cases == {None, *CaseLabel}
    assert certified == {(1, 0, 2), (1, 1, 3), (2, 3, 5)}
    thresholds = (10 ** 60, -3, Fraction(-7, 3), Fraction(1, 10 ** 40))
    rep = report(BundleParams(2, 3, 6), thresholds)
    assert render_report(rep, "json") == STDLIB_JSON.encode(rep.to_json_dict()) + "\n"
    assert '"-7/3": false' in render_report(rep, "json")


def test_json_rows_bases_and_deltas_are_written_as_the_standard_library_writes_them(
        capsys):
    for rows in (classify_k2_failures(), oracle_search(DEFAULT_BOX), []):
        assert render_rows(rows, "json") == STDLIB_JSON.encode(
            list(map(to_json, rows))) + "\n"
    # Each of these outputs is the stdlib's text of the value it parses to.
    for argv, value in ((("oracle", "--lambda", "5", "10"), []),
                        (("basis", "0", "2", "3", "-1", "0"), []),
                        (("basis", "0", "2", "3", "6", "6"), None),
                        (("nonsingular", "1", "1"), {"delta": "3", "case": "AI"})):
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert out == STDLIB_JSON.encode(json.loads(out)) + "\n"
        assert value is None or json.loads(out) == value


def test_json_strings_are_escaped_as_the_standard_library_escapes_them():
    value = {"a \"quote\"": ["back\\slash", "\x00\x1f\n\t\x7f", "δ_X, λ", "\U0001d53b"],
             "nested": [{}, [], {"k": [None, True, False, 0, -2 ** 70]}]}
    assert _json(value) == STDLIB_JSON.encode(value)


def test_json_string_lists_are_written_as_the_standard_library_writes_them():
    # Lists of str, alone and with items that need an escape, mixed lists
    # and the empty list, each bare, as a dict value and inside a list.
    # " " and "~", the ends of the printable ASCII range, need no escape;
    # "\x1f", "\x7f", "\x80" and "\u2028" just past either end do.
    monomials = ["y^6", "u*v*x^2*z^2", "u^12*w^2", "1"]
    lists = [monomials, [""], ["", ""], ["u*v"], ["a", 1, None], [], [[], ["x"]],
             ['é"'], [*monomials, '\u2028""']]
    for char in (" ", "~", '"', "\\", "\n", "\x01", "\x1f", "\x7f", "\x80", "é",
                 "\u2028", "\U0001d53b"):
        lists += [[*monomials, "x" + char], [char], [char, "y"]]
    for value in lists:
        assert _json(value) == STDLIB_JSON.encode(value), value
        assert _json({"basis": value}) == STDLIB_JSON.encode({"basis": value}), value
        assert _json([{"basis": value}]) == STDLIB_JSON.encode([{"basis": value}]), value


def test_json_is_written_the_same_without_the_json_accelerator(monkeypatch):
    # cli's source run again, as dp1toric._cli_again, where `_json` cannot
    # be imported and json.encoder is imported afresh: it escapes with the
    # pure-Python function of json.encoder.
    monkeypatch.setitem(sys.modules, "_json", None)
    monkeypatch.setattr(json, "encoder", json.encoder)  # restored afterwards
    monkeypatch.delitem(sys.modules, "json.encoder")
    spec = importlib.util.spec_from_file_location("dp1toric._cli_again", cli.__file__)
    again = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(again)
    assert again.encode_basestring_ascii is not cli.encode_basestring_ascii
    assert again.encode_basestring_ascii.__module__ == "json.encoder"
    escaped = ["x\"", "back\\slash", "\x00\x1f\n\t\x7f", "δ_X, λ", "\U0001d53b"]
    for value in (["y^6", "u*v*x^2*z^2", "1"], escaped, {"basis": escaped, "k": [None, 1]},
                  report(BundleParams(2, 3, 6)).to_json_dict()):
        assert again._json(value) == json.dumps(value, indent=2), value


def test_the_json_writer_refuses_every_other_type():
    assert (_json(True), _json(1), _json(False), _json(0)) == ("true", "1", "false", "0")
    text = type("Text", (str,), {})  # a str subclass, in a list of str or not
    for value in (1.0, 0.5, Fraction(1, 2), (1, 2), [1.0], {"delta": Fraction(1)},
                  [text("x")], ["y", text("x")], [text("\n")]):
        with pytest.raises(TypeError):
            _json(value)


def test_analyze_rejects_unnormalized_lambda(capsys):
    code, _, err = run(capsys, "analyze", "-1", "0", "3")
    assert code == 2
    assert "error:" in err


def test_analyze_rejects_bad_thresholds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "1", "1", "3", "--thresholds", "1,x"])
    assert exc.value.code == 2


def test_analyze_rejects_non_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "1", "1", "three"])
    assert exc.value.code == 2


# --- oracle ---------------------------------------------------------------------

def test_oracle_malformed_interval(capsys):
    code, _, err = run(capsys, "oracle", "--lambda", "7", "3")
    assert code == 2
    assert "error:" in err


def oracle_reference(box, fmt):
    """(exit code, stdout, stderr) of `oracle` on box in format fmt, by the
    rule: the rows found, then the sorted set differences of their triplets
    and the reference table's."""
    rows = oracle_search(box)
    found = {r.params for r in rows}
    table = {r.params for r in classify_k2_failures()}
    diff = [f"{kind}: ({p.lam},{p.mu},{p.nu})" for kind, triplets in (
        ("missing", table - found), ("extra", found - table))
        for p in sorted(triplets)]
    status = "\n".join(["DOES NOT MATCH TABLE 1" if diff else "MATCHES TABLE 1",
                        *diff]) + "\n"
    text = render_rows(rows, fmt)
    out, err = (text + status, "") if fmt == "plain" else (text, status)
    return 1 if diff else 0, out, err


def test_oracle_diffs_as_the_sorted_set_differences(capsys):
    # Empty boxes (13 missing), the default box (14 rows), a box of (1,0,2)
    # alone, boxes of some table triplets, and lambda past 5.
    lambdas = ((0, 0), (0, 1), (1, 1), (2, 4), (4, 4), (5, 10), (0, 10), (3, 12))
    mus = ((-30, 30), (0, 0), (-2, 1), (2, 6))
    nus = ((0, 30), (2, 2), (0, 4), (5, 10))
    kinds = set()
    for ranges in product(lambdas, mus, nus):
        box = SearchBox(*ranges)
        argv = ["oracle"] + [text for flag, (lo, hi) in zip(
            ("--lambda", "--mu", "--nu"), ranges) for text in (flag, str(lo), str(hi))]
        for fmt in ALL_FORMATS:
            expected = oracle_reference(box, fmt)
            assert run(capsys, *argv, "--format", fmt) == expected, (box, fmt)
        kinds.add(tuple(r.params for r in oracle_search(box)))
    assert () in kinds and ((1, 0, 2),) in kinds
    assert tuple(r.params for r in oracle_search(DEFAULT_BOX)) in kinds


def test_oracle_exits_0_when_the_rows_match_the_table(capsys, monkeypatch):
    # Every box holding the 13 reference triplets also holds (1,0,2), so
    # the match is seen against a table of the search's own 14 triplets.
    monkeypatch.setattr(cli, "_TABLE1", {
        r.params: "missing: (%s,%s,%s)" % r.params for r in oracle_search(DEFAULT_BOX)})
    for fmt in ALL_FORMATS:
        code, out, err = run(capsys, "oracle", "--format", fmt)
        assert code == 0
        rows = render_rows(oracle_search(DEFAULT_BOX), fmt)
        if fmt == "plain":
            assert (out, err) == (rows + "MATCHES TABLE 1\n", "")
        else:
            assert (out, err) == (rows, "MATCHES TABLE 1\n")
    code, out, _ = run(capsys, "oracle", "--lambda", "0", "0", "--mu", "-2", "-2")
    assert code == 1 and "missing: (1,0,2)" in out


def test_oracle_formats_no_triplet_and_other_rows_are_formatted(capsys, monkeypatch):
    # Every row `oracle` finds, and every line of its diff, is text built
    # at import: a call formats no triplet and no row.
    triplets, pieces = [], []
    triplet, row_pieces = cli._triplet, cli._row_pieces
    monkeypatch.setattr(cli, "_triplet", lambda p: triplets.append(p) or triplet(p))
    monkeypatch.setattr(cli, "_row_pieces",
                        lambda row, fmt: pieces.append((row, fmt)) or row_pieces(row, fmt))
    for fmt in ALL_FORMATS:
        code, out, err = run(capsys, "oracle", "--lambda", "5", "10", "--format", fmt)
        assert code == 1 and (out + err).count("missing:") == 13
        code, out, err = run(capsys, "oracle", "--format", fmt)
        assert code == 1 and (out + err).endswith("extra: (1,0,2)\n")
    assert render_rows(classify_k2_failures(), "plain") == golden("table1.txt")
    assert (triplets, pieces) == ([], [])
    # A row the library did not make is formatted per call, in the format
    # asked for only.
    row = classify_k2_failures()[0]._replace(delta=Fraction(7, 3))
    for fmt in ALL_FORMATS:
        pieces.clear()
        render_rows([row], fmt)
        assert pieces == [(row, fmt)]


ROW_LABELS = {CaseLabel.AI: "(a-i)", CaseLabel.AII: "(a-ii)", CaseLabel.B: "(b)"}


def reference_rows(rows, fmt):
    """The table of rows in format fmt, by the rule: the golden line format
    for plain, the standard library's JSON, comma-joined cells for csv and
    a markdown table."""
    if fmt == "json":
        return STDLIB_JSON.encode([
            {"params": {"lambda": p.lam, "mu": p.mu, "nu": p.nu}, "delta": str(d),
             "case": case.value, "k_fails": k} for p, d, case, k in rows]) + "\n"
    if fmt == "csv":
        return "".join(",".join(map(str, cells)) + "\n" for cells in [
            ("no", "lambda", "mu", "nu", "delta", "case", "k_fails"),
            *[(i, *p, d, case.value, "true" if k else "false")
              for i, (p, d, case, k) in enumerate(rows, 1)]])
    cells = [(str(i), "(%s,%s,%s)" % p, str(d), ROW_LABELS[case], "no" if k else "")
             for i, (p, d, case, k) in enumerate(rows, 1)]
    if fmt == "plain":
        return "".join("%3s  %-15s %5s  %-6s %s\n" % c for c in [
            ("no", "(lambda,mu,nu)", "delta", "case", "K-cond."), *cells])
    return ("| No. | (λ,μ,ν) | δ_X | Case | K-cond. |\n"
            "|----:|---------|-----|------|---------|\n"
            + "".join("| " + " | ".join(c) + " |\n" for c in cells))


def test_rows_render_as_the_reference_renderer_writes_them():
    # 500 seeded sorted subsets of the oracle rows, the table and all of
    # them, built at import; then rows the library did not make, formatted
    # per call: a changed delta, case or K-failure, a fresh triplet of a
    # table row, a triplet of no row, and 1,083 rows, whose numbers widen
    # past three places.
    oracle = oracle_search(DEFAULT_BOX)
    rng = random.Random(43)
    lists = [[], classify_k2_failures(), oracle, *(
        [oracle[i] for i in sorted(rng.sample(range(14), rng.randrange(15)))]
        for _ in range(500))]
    row = oracle[6]
    others = [row._replace(delta=Fraction(-7, 3)), row._replace(case=CaseLabel.AII),
              row._replace(k_fails=not row.k_fails),
              oracle[0]._replace(params=BundleParams(*oracle[0].params)),
              ClassificationRow(BundleParams(3, -40, 1000), Fraction(1, 6), CaseLabel.B, False)]
    lists += [others, others + oracle, (oracle + others) * 57]
    assert len(lists[-1]) == 1083
    for rows in lists:
        for fmt in ALL_FORMATS:
            assert render_rows(rows, fmt) == reference_rows(rows, fmt), (rows, fmt)


def test_parse_starts_every_call_from_the_defaults():
    _, args = cli._parse(["oracle", "--lambda", "0", "3"])
    assert args.lambda_range == (0, 3)
    _, args = cli._parse(["oracle"])
    assert (args.lambda_range, args.mu_range, args.nu_range) == DEFAULT_BOX
    _, args = cli._parse(["analyze", "1", "1", "3", "--thresholds", "1"])
    assert args.thresholds == (Fraction(1),)
    _, args = cli._parse(["analyze", "1", "1", "3"])
    assert args.thresholds is DEFAULT_THRESHOLDS  # `report` reads them off a table
    args.thresholds, args.format, args.extra = (Fraction(2),), "json", True
    vars(args).clear()
    _, again = cli._parse(["analyze", "1", "1", "3"])
    assert vars(again) == {"thresholds": DEFAULT_THRESHOLDS, "format": "plain",
                           "lam": 1, "mu": 1, "nu": 3}


def run_module(*argv):
    """`python -m dp1toric argv` in a subprocess, on this checkout's src."""
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "dp1toric", *argv],
                          capture_output=True, text=True, env=env, timeout=5)


def test_oracle_on_a_huge_box_finishes_quickly():
    # The search enumerates the delta > 0 set, not the 2*10^27-point box.
    done = run_module("oracle", "--lambda", "0", "1000000000",
                      "--mu", "-1000000000", "1000000000", "--nu", "0", "1000000000")
    assert done.returncode == 1
    rows = [line for line in done.stdout.splitlines() if line[:3].strip().isdigit()]
    assert len(rows) == 14
    assert "extra: (1,0,2)" in done.stdout


# --- normalize, basis, nonsingular ------------------------------------------------

def test_normalize_command_rejects_bad_top_row(capsys):
    code, _, err = run(capsys, "normalize", "1", "2", "0", "0", "2", "3")
    assert code == 2
    assert "error:" in err


def basis_listed(out, fmt):
    """The monomials of `basis` output in format fmt."""
    if fmt == "json":
        return json.loads(out)
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == "monomial"
        return lines[1:]
    if fmt == "markdown":
        assert all(line.startswith("- `") and line.endswith("`") for line in lines)
        return [line[3:-1] for line in lines]
    return lines


@pytest.mark.parametrize("fmt", ("plain", "json", "csv", "markdown"))
def test_basis_of_fiber_degree_zero(capsys, fmt):
    # h = 0: no fiber variable, so the u and v factors end each string.
    for f, expected in ((3, ["v^3", "u*v^2", "u^2*v", "u^3"]), (0, ["1"])):
        code, out, _ = run(capsys, "basis", "0", "2", "3", "0", str(f),
                           "--format", fmt)
        cls = DivisorClass(0, f)
        assert code == 0
        assert basis_listed(out, fmt) == expected == [
            str(m) for m in monomial_basis(BundleParams(0, 2, 3), cls)]


def test_basis_lists_monomial_strings_in_every_format(capsys):
    # h = -1 gives the empty basis, h = 0 monomials in u and v alone.  h = 30
    # has 1,041 fiber parts, past the per-process table, so its strings come
    # from the walk: on (0,0,0) with f = 0 every part has r = 0 (1,041
    # monomials), and on (2,3,5) with f = 20, r runs from 0 to 20 (616).
    cases = [(lam, mu, nu, h, 2 * nu)
             for lam, mu, nu, h in product((0, 2), (-2, 3), (1, 4), (-1, 0, 1, 3))]
    for lam, mu, nu, h, f in cases + [(0, 0, 0, 30, 0), (2, 3, 5, 30, 20)]:
        monomials = monomial_strings(BundleParams(lam, mu, nu), DivisorClass(h, f))
        lines = "".join(m + "\n" for m in monomials)
        texts = {"plain": lines, "json": STDLIB_JSON.encode(monomials) + "\n",
                 "csv": "monomial\n" + lines,
                 "markdown": "".join(f"- `{m}`\n" for m in monomials)}
        for fmt, text in texts.items():
            code, out, _ = run(capsys, "basis", str(lam), str(mu), str(nu), str(h),
                               str(f), "--format", fmt)
            assert code == 0 and out == text, (lam, mu, nu, h, fmt)
            assert basis_listed(out, fmt) == monomials


def test_basis_refuses_huge_bases_quickly(capsys):
    for argv, reason in ((("0", "0", "0", "6", "100000000"), "monomials"),
                         (("0", "0", "0", "6", "1" + "0" * 4299),
                          "10^640 or more monomials, more than the 1000000"),
                         (("1", "1", "1", "100000000", "0"), "fiber monomials")):
        start = time.perf_counter()
        code, out, err = run(capsys, "basis", *argv)
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err.startswith("error: ") and reason in err


def test_nonsingular_refuses_negative_mu(capsys):
    code, out, err = run(capsys, "nonsingular", "0", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "mu must be nonnegative" in err


def test_nonsingular_refuses_six_mu_below_five_lambda(capsys):
    for lam, mu in (("1", "0"), ("5", "4")):
        code, out, err = run(capsys, "nonsingular", lam, mu)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "6*mu < 5*lambda" in err


def test_nonsingular_refuses_six_mu_between_five_and_six_lambda(capsys):
    for lam, mu in (("7", "6"), ("8", "7"), ("12", "11")):
        code, out, err = run(capsys, "nonsingular", lam, mu)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "6*mu < 6*lambda" in err


# --- the grammar ------------------------------------------------------------------

def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, expected, exit_code", [
    (("analyze", "--format", "csv", "1", "1", "3"), "analyze_1_1_3.csv", 0),
    (("analyze", "1", "--format", "csv", "1", "3"), "analyze_1_1_3.csv", 0),
    (("analyze", "1", "1", "3", "--format=csv"), "analyze_1_1_3.csv", 0),
    (("analyze", "1", "1", "--form", "csv", "3"), "analyze_1_1_3.csv", 0),
    (("analyze", "--fo=csv", "1", "1", "3"), "analyze_1_1_3.csv", 0),
    (("analyze", "--thr=1", "2", "2", "--format", "json", "5"),
     "analyze_2_2_5_t1.json", 0),
    (("basis", "0", "2", "--format", "json", "3", "6", "6"),
     "basis_0_2_3_6_6.json", 0),
    (("oracle", "--f", "plain", "--n", "0", "0", "--l", "0", "0",
      "--m", "-2", "-2"), "oracle_0_-2_0.txt", 1),
    (("basis", "--", "0", "2", "3", "-1", "0"), "basis_0_2_3_-1_0.txt", 0),
    (("analyze", "1", "1", "3", "--"), "analyze_1_1_3.txt", 0),
], ids=["option-first", "option-between", "equals", "prefix", "prefix-equals",
        "thresholds-prefix", "basis-between", "oracle-prefixes",
        "double-dash-first", "double-dash-last"])
def test_options_anywhere_in_any_spelling(capsys, argv, expected, exit_code):
    assert run(capsys, *argv) == (exit_code, golden(expected), "")


def test_negative_numbers_are_values(capsys):
    assert run(capsys, "analyze", "0", "-3", "0", "--format", "json") == (
        0, golden("analyze_0_-3_0.json"), "")
    assert run(capsys, "basis", "0", "2", "3", "-1", "0") == (
        0, golden("basis_0_2_3_-1_0.txt"), "")
    assert run(capsys, "oracle", "--mu", "-2", "-2", "--lambda", "0", "0",
               "--nu", "0", "0") == (1, golden("oracle_0_-2_0.txt"), "")
    code, out, _ = run(capsys, "oracle", "--lambda", "-30", "-1")
    assert code == 1 and out.count("missing:") == 13
    # After "--" every token is a positional.
    code, out, err = run(capsys, "analyze", "--format", "json", "--", "-1", "0", "3")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_a_dash_then_a_digit_or_a_dot_starts_a_value(capsys):
    # As a command, a positional and an option's value, `-.5` and `-1` are
    # values, never flags: no command, not ints, a threshold.  So is `-`
    # then any decimal digit that `int` reads, as `-٣` (-3); `-²` is a
    # flag, since `int("²")` raises.
    for text in ("-.5", "-1", "-٣"):
        assert usage_error(capsys, text) == (
            f"dp1toric: error: invalid choice: '{text}' (choose from analyze, "
            "table1, oracle, normalize, basis, nonsingular)")
    assert usage_error(capsys, "analyze", "-.5", "0", "0") == (
        "dp1toric analyze: error: argument lambda: "
        "invalid literal for int() with base 10: '-.5'")
    _, args = cli._parse(["analyze", "1", "1", "3", "--thresholds", "-.5"])
    assert args.thresholds == (Fraction(-1, 2),)
    code, out, err = run(capsys, "analyze", "-٣", "0", "0")
    assert (code, out) == (2, "") and "not normalized" in err
    _, args = cli._parse(["oracle", "--lambda", "-٣", "0"])
    assert args.lambda_range == (-3, 0)
    assert usage_error(capsys, "analyze", "-²", "0", "0") == (
        "dp1toric analyze: error: unrecognized arguments: -²")


def test_a_second_dash_dash_is_a_positional(capsys):
    # The first `--` ends the flags; the second is a token like any other,
    # the value of mu, which int refuses.  Python 3.11's argparse drops it
    # (see ARGPARSE_DIVERGENCES).
    assert usage_error(capsys, "analyze", "1", "--", "--", "0") == (
        "dp1toric analyze: error: argument mu: "
        "invalid literal for int() with base 10: '--'")


def test_a_trailing_dash_dash_ends_the_flags(capsys):
    # A `--` with nothing after it ends the flags and adds no positional;
    # Python 3.11's argparse calls it unrecognized (see ARGPARSE_DIVERGENCES).
    assert run(capsys, "table1", "--format", "json", "--") == (0, golden("table1.json"), "")


@pytest.mark.parametrize("argv", [
    ("-h",), ("--help",), ("--he",), ("analyze", "-h"), ("basis", "--help"),
    ("oracle", "--lambda", "0", "1", "--he"), ("table1", "--format", "json", "-h"),
])
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    command = argv[0] if argv[0][0] != "-" else ""
    assert out.startswith(f"usage: dp1toric {command}".rstrip())
    if not command:
        for name in ("analyze", "table1", "oracle", "normalize", "basis",
                     "nonsingular"):
            assert f"  {name}" in out


def usage_error(capsys, *argv) -> str:
    """Run argv, which must be a usage error: SystemExit(2), a usage line
    and a `dp1toric[ <cmd>]: error: ` line on stderr, nothing on stdout.
    Returns the error line."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: dp1toric")
    assert re.match(r"dp1toric( [a-z0-9]+)?: error: \S", lines[-1])
    return lines[-1]


@pytest.mark.parametrize("argv", [
    (),
    ("frobnicate",),
    ("analyze", "1", "1"),
    ("normalize", "1", "1", "0", "0", "2"),
    ("analyze", "1", "1", "3", "4"),
    ("table1", "1"),
    ("basis", "0", "2", "3", "x", "0"),
    ("analyze", "1", "1", "three"),
    ("oracle", "--nu", "0", "1.5"),
    ("analyze", "1", "1", "3", "--format", "yaml"),
    ("table1", "--format", "md"),
    ("table1", "--format"),
    ("oracle", "--lambda", "0"),
    ("oracle", "--lambda", "0", "--mu", "0", "0"),
    ("oracle", "--lambda=0", "1"),
    ("analyze", "1", "1", "3", "--thresholds", "1,x"),
    ("analyze", "1", "1", "3", "--thresholds", "1/0"),
    ("analyze", "1", "1", "3", "--thresholds", "1e100000000"),
    ("analyze", "1", "1", "3", "--thresholds", "0,1e10000000"),
    ("analyze", "1", "1", "3", "--thresholds", "1e4300"),
    ("analyze", "1", "1", "3", "--thresholds", "12e4299"),
    ("analyze", "1", "1", "3", "--thresholds", "1e-4300"),
    ("analyze", "1", "1", "3", "--bogus"),
    ("analyze", "1", "1", "3", "-x"),
    ("normalize", "1", "1", "0", "0", "2", "3", "--format", "json"),
    ("--format", "json", "table1"),
    ("oracle", "--lambda", "0", "1", "--mu", "0"),
    ("oracle", "--lambda", "--", "0", "1"),
    ("analyze", "-", "0", "0"),
], ids=["no-command", "unknown-command", "missing-positional",
        "missing-positional-6", "extra-positional", "extra-positional-none",
        "not-an-int", "not-an-int-last", "option-not-an-int", "bad-format",
        "format-choice-prefix",
        "format-without-value", "one-value-of-two", "option-cuts-values",
        "equals-of-two-values", "bad-thresholds", "thresholds-zero-division",
        "thresholds-huge-exponent", "thresholds-exponent-over-digit-limit",
        "thresholds-numerator-over-digit-limit",
        "thresholds-scaled-numerator-over-digit-limit",
        "thresholds-denominator-over-digit-limit",
        "unknown-option", "unknown-short-option", "option-of-another-command",
        "option-before-command", "values-cut-short-at-the-end",
        "double-dash-as-a-value", "lone-dash-as-a-value"])
def test_usage_errors_exit_2_on_stderr(capsys, argv):
    usage_error(capsys, *argv)


def test_usage_errors_count_the_values_of_an_option(capsys):
    assert usage_error(capsys, "oracle", "--lambda", "0") == (
        "dp1toric oracle: error: argument --lambda: expected 2 arguments")
    assert usage_error(capsys, "table1", "--format") == (
        "dp1toric table1: error: argument --format: expected 1 argument")
    # The count of an option's values, and a flag among them, are checked
    # before any value is converted; so are the positionals.
    assert usage_error(capsys, "oracle", "--lambda", "x", "--mu") == (
        "dp1toric oracle: error: argument --lambda: expected 2 arguments")
    assert usage_error(capsys, "oracle", "--lambda", "x", "1") == (
        "dp1toric oracle: error: argument --lambda: "
        "invalid literal for int() with base 10: 'x'")
    assert usage_error(capsys, "basis", "0", "2", "3", "x", "--format", "json") == (
        "dp1toric basis: error: the following arguments are required: f")


def brute_force_spellings(flags) -> dict:
    """Each string accepted as a flag among flags and -h/--help, mapped to
    the flag it names, found by trying every prefix of every flag."""
    longs = [flag for flag in (*flags, "--help") if flag.startswith("--")]
    table = {}
    for text in {flag[:end] for flag in (*flags, "-h", "--help")
                 for end in range(1, len(flag) + 1)}:
        named = [flag for flag in longs if flag.startswith(text)]
        if text in (*flags, "-h", "--help"):
            table[text] = text
        elif text.startswith("--") and len(text) >= 3 and len(named) == 1:
            table[text] = named[0]
    return table


def test_spellings_are_the_flags_and_their_unique_prefixes():
    assert cli._SPELLINGS.keys() == {None, *cli._GRAMMAR}
    assert cli._SPELLINGS[None] == brute_force_spellings(())
    for command, spec in cli._GRAMMAR.items():
        assert cli._SPELLINGS[command] == brute_force_spellings(spec[3]), command
    # A prefix that two flags share names neither; a flag names itself even
    # when it prefixes another.
    spellings = cli._spellings(("--mu", "--mul"))
    assert spellings == brute_force_spellings(("--mu", "--mul"))
    assert "--m" not in spellings and spellings["--mu"] == "--mu"
    assert spellings["--mul"] == "--mul" and spellings["--he"] == "--help"


def test_a_shared_prefix_is_an_unrecognized_argument(capsys, monkeypatch):
    options = {"--mu": ("mu", 0, 1, int, "MU"), "--mul": ("mul", 0, 1, int, "MUL")}
    command = (lambda args: print(args.mu, args.mul) or 0, "help", (), options)
    monkeypatch.setitem(cli._GRAMMAR, "shared", command)
    monkeypatch.setitem(cli._DEFAULTS, "shared", {"mu": 0, "mul": 0})
    monkeypatch.setitem(cli._METAVARS, "shared", ())
    monkeypatch.setitem(cli._SPELLINGS, "shared", cli._spellings(options))
    assert usage_error(capsys, "shared", "--m", "1") == (
        "dp1toric shared: error: unrecognized arguments: --m")
    assert run(capsys, "shared", "--mu", "1", "--mul=2") == (0, "1 2\n", "")


# --- the grammar read by a second parser: argparse, built from _GRAMMAR ---------

def argparse_parser() -> argparse.ArgumentParser:
    """The standard library's parser of cli._GRAMMAR: a subparser per
    command, each option with its destination, default, count and
    converter, and the int positionals with their counts."""
    parser = argparse.ArgumentParser(prog="dp1toric")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, positionals, options) in cli._GRAMMAR.items():
        sub = commands.add_parser(command, help=help_text)
        for flag, (dest, default, nargs, convert, metavar) in options.items():
            sub.add_argument(flag, dest=dest, default=default, type=convert,
                             nargs=None if nargs == 1 else nargs, metavar=metavar)
        for dest, metavar, count in positionals:
            sub.add_argument(dest, metavar=metavar, type=int,
                             nargs=None if count == 1 else count)
    return parser


def parsed(parse, argv):
    """(command, {destination: value}) as parse reads argv, or the code it
    exits with; what it writes is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            outcome = parse(argv)
        except SystemExit as exit_:
            return exit_.code
    if type(outcome) is tuple:  # cli._parse: (handler, namespace)
        handler, args = outcome
        return next(c for c, spec in cli._GRAMMAR.items() if spec[0] is handler), vars(args)
    values = vars(outcome)
    return values.pop("command"), {dest: tuple(v) if type(v) is list else v
                                   for dest, v in values.items()}


# Where the two parsers are known to differ: (argv pattern, reason).  Each
# pattern sees the argv and both outcomes.
ARGPARSE_DIVERGENCES = (
    (lambda argv, ours, theirs: argv.count("--") >= 2,
     "a second `--`: `_parse` reads it as a positional, while Python 3.11's argparse drops "
     "it and can give a one-value positional the empty tuple"),
    (lambda argv, ours, theirs: argv[-1] == "--",
     "a trailing `--`: `_parse` reads the end of the flags, while Python 3.11's argparse "
     "removes a `--` only while it fills a positional and calls this one unrecognized"),
    (lambda argv, ours, theirs: ours == 0 and theirs == 2 and any(
        cli._SPELLINGS[argv[0]].get(t.partition("=")[0]) in cli._HELP for t in argv),
     "help after a positional that int refuses: argparse converts each positional as it "
     "reads it and exits 2 there, while `_parse` converts them after every flag, so help "
     "comes first"),
)
ARGPARSE_VALUES = ("0 1 -1 -.5 x 1.5 - -- -٣ ٣ 3/2 1,3/2 json csv --format -h --fo --f "
                   "--he --mu").split()


def generated_argvs(rng, count):
    """Per command, its number of int positionals, give or take one, then
    0-2 options inserted anywhere: a prefix of at least 3 characters of a
    flag (or `--`) with 1-2 values from ARGPARSE_VALUES; and a trailing `--`
    now and then."""
    for _ in range(count):
        command = rng.choice(list(cli._GRAMMAR))
        _, _, positionals, options = cli._GRAMMAR[command]
        n = max(0, sum(c for _, _, c in positionals) + rng.choice((-1, 0, 0, 1)))
        argv = [rng.choice(("0", "1", "-1", "2")) for _ in range(n)]
        for _ in range(rng.randrange(3)):
            flag = rng.choice((*options, "--help"))
            at = rng.randrange(len(argv) + 1)
            argv[at:at] = [rng.choice((flag[:rng.randrange(3, len(flag) + 1)], "--")),
                           *rng.sample(ARGPARSE_VALUES, rng.randrange(1, 3))]
        yield [command, *argv, *["--"] * (rng.random() < 0.1)]


def test_the_grammar_reads_as_argparse_reads_it():
    """3,000 seeded argvs read by `_parse` and by argparse built from the
    same `_GRAMMAR`: equal values, or equal exit codes (error texts are
    worded differently, and are not compared), except where a listed
    pattern explains the difference."""
    parser = argparse_parser()
    unexplained, explained = [], Counter()
    # One argv per listed pattern, so that each stays in use.
    examples = [["analyze", "1", "--", "--", "0"], ["table1", "--format", "json", "--"],
                ["nonsingular", "x", "1", "--help"]]
    for argv in [*examples, *generated_argvs(random.Random(41), 3000)]:
        ours, theirs = parsed(cli._parse, argv), parsed(parser.parse_args, argv)
        if ours != theirs:
            reasons = [i for i, (pattern, _) in enumerate(ARGPARSE_DIVERGENCES)
                       if pattern(argv, ours, theirs)]
            explained.update(reasons[:1])
            if not reasons:
                unexplained.append((argv, ours, theirs))
    assert unexplained == []
    assert sum(explained.values()) < 100  # the parsers agree on nearly every argv
    assert set(explained) == set(range(len(ARGPARSE_DIVERGENCES))), explained


# --- every output, byte for byte --------------------------------------------------

ALL_FORMATS = ("plain", "json", "csv", "markdown")
EXTENSION = {"plain": "txt", "json": "json", "csv": "csv", "markdown": "md"}

# (golden stem, argv, formats, exit code).  The stdout of argv in format fmt
# is tests/golden/<stem>.<EXTENSION[fmt]>; plain runs without --format.
# Non-plain `oracle` writes its diff to stderr, the same text in every
# format: tests/golden/<stem>.err.  Every other run writes nothing there.
CLI_GOLDENS = (
    ("analyze_1_1_3", ("analyze", "1", "1", "3"), ALL_FORMATS, 0),
    ("analyze_0_0_0", ("analyze", "0", "0", "0"), ALL_FORMATS, 0),
    ("analyze_2_0_1", ("analyze", "2", "0", "1"), ALL_FORMATS, 0),
    ("analyze_0_-3_0", ("analyze", "0", "-3", "0"), ALL_FORMATS, 0),
    ("analyze_2_2_5_t1", ("analyze", "2", "2", "5", "--thresholds", "1"),
     ALL_FORMATS, 0),
    ("analyze_0_1_2", ("analyze", "0", "1", "2"), ALL_FORMATS, 0),
    ("analyze_2_0_4", ("analyze", "2", "0", "4"), ALL_FORMATS, 0),
    ("analyze_2_3_5", ("analyze", "2", "3", "5"), ALL_FORMATS, 0),
    ("analyze_0_0_-1", ("analyze", "0", "0", "-1"), ALL_FORMATS, 0),
    ("table1", ("table1",), ALL_FORMATS, 0),
    ("oracle", ("oracle",), ALL_FORMATS, 1),
    ("oracle_0_-2_0", ("oracle", "--lambda", "0", "0", "--mu", "-2", "-2",
                       "--nu", "0", "0"), ALL_FORMATS, 1),
    ("oracle_5_10", ("oracle", "--lambda", "5", "10"), ALL_FORMATS, 1),
    ("basis_0_2_3_6_6", ("basis", "0", "2", "3", "6", "6"), ALL_FORMATS, 0),
    ("basis_0_2_3_1_0", ("basis", "0", "2", "3", "1", "0"), ALL_FORMATS, 0),
    ("basis_0_2_3_-1_0", ("basis", "0", "2", "3", "-1", "0"), ALL_FORMATS, 0),
    ("nonsingular_1_1", ("nonsingular", "1", "1"), ALL_FORMATS, 0),
    ("nonsingular_0_1", ("nonsingular", "0", "1"), ALL_FORMATS, 0),
    ("normalize_1_1_0_0_2_3", ("normalize", "1", "1", "0", "0", "2", "3"),
     ("plain",), 0),
)

GOLDEN_RUNS = [
    pytest.param(argv if fmt == "plain" else argv + ("--format", fmt), code,
                 f"{stem}.{EXTENSION[fmt]}",
                 f"{stem}.err" if argv[0] == "oracle" and fmt != "plain" else None,
                 id=f"{stem}.{EXTENSION[fmt]}")
    for stem, argv, formats, code in CLI_GOLDENS for fmt in formats
]


@pytest.mark.parametrize("argv, exit_code, out, err", GOLDEN_RUNS)
def test_output_matches_golden(capsys, argv, exit_code, out, err):
    """argv exits with exit_code, writes the golden out to stdout and the
    golden err, or nothing, to stderr; and a second run in the same
    process, served by what the first one cached, does the same."""
    expected = (exit_code, golden(out), golden(err) if err else "")
    assert run(capsys, *argv) == expected
    assert run(capsys, *argv) == expected


def test_each_report_format_builds_only_its_own_text(monkeypatch):
    """A report's plain text builds no csv cell and its csv and markdown
    tables format no weight ratio: with `_bool` refusing, plain still equals
    its golden, and with weight ratios that refuse to be formatted, csv and
    markdown still equal theirs.  The template cache starts empty, so
    that each text is built here, whatever ran before."""

    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("a weight ratio was formatted for a table")

    def refuse(ok):
        raise AssertionError("a csv cell was built for plain text")

    monkeypatch.setattr(cli, "_TEMPLATES", {})
    for stem, argv, _, _ in CLI_GOLDENS:
        if argv[0] != "analyze":
            continue
        thresholds = tuple(map(Fraction, argv[5:])) or DEFAULT_THRESHOLDS
        rep = report(BundleParams(*map(int, argv[1:4])), thresholds)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_bool", refuse)
            assert render_report(rep, "plain") == (GOLDEN / f"{stem}.txt").read_text(
                encoding="utf-8")
        if rep.weight_ratios:
            rep = rep._replace(weight_ratios=WeightRatios(*[Unformattable()] * 4))
        for fmt in ("csv", "markdown"):
            golden = GOLDEN / f"{stem}.{EXTENSION[fmt]}"
            assert render_report(rep, fmt) == golden.read_text(encoding="utf-8")


# --- report templates --------------------------------------------------------------

N = 10 ** 5000


def rendered(rep, fmt, render=render_report):
    """The text of rep in format fmt, or the type and text of the exception
    rendering it raises."""
    try:
        return render(rep, fmt)
    except (AttributeError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def parts_swapped(rep):
    """rep with each shared part `report` could have given it replaced by
    every other: the validity record, k2, each K^3_d result, the K-status
    and the verdict.  No such report comes from `report`, so a key that
    leaves a part out serves one of them a template of another shape."""
    statuses = (KStatus.not_proven(), *map(KStatus.proven, KFailureReason))
    k3 = rep.k3_threshold_results
    yield from (rep._replace(verdict=verdict) for verdict in Verdict)
    yield from (rep._replace(k_status=status) for status in statuses)
    yield rep._replace(k2_holds=not rep.k2_holds)
    yield from (rep._replace(k3_threshold_results={**k3, d0: not ok}) for d0, ok in k3.items())
    yield from (rep._replace(validity=v) for v in {r for rs in _VALIDITY.values() for r in rs})


def values_retyped(rep):
    """rep with values of types `report` does not make: ints for Fractions
    (JSON writes them bare), ints for bools (JSON writes 1), a plain tuple
    for a record and a read-only view for the K^3_d dict."""
    v, k3 = rep.validity, rep.k3_threshold_results
    yield rep._replace(validity=ValidityReport(*(int(b) if type(b) is bool else b for b in v)))
    if rep.case is None:
        yield rep._replace(case=CaseLabel.AI)
        return
    numbers = rep.weight_ratios
    yield rep._replace(k_cubed=int(rep.k_cubed))
    yield rep._replace(weight_ratios=WeightRatios(*map(int, numbers)))
    yield rep._replace(weight_ratios=tuple(numbers))
    yield rep._replace(k2_holds=int(rep.k2_holds))
    yield rep._replace(k3_threshold_results={d0: int(ok) for d0, ok in k3.items()})
    yield rep._replace(k3_threshold_results=MappingProxyType(k3))
    yield rep._replace(k_status=tuple(rep.k_status))
    yield rep._replace(verdict=rep.verdict.value)


def test_templates_render_as_the_field_path(monkeypatch):
    """About 12,000 renders in every format, for DEFAULT_THRESHOLDS, (1,
    3/2) and (): each equals the text of the field path, `_render_fields`,
    whether a template serves it or not.  So do reports with swapped shared
    parts and with values of other types, rendered after their own shape's
    template is cached."""
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    grid = sorted(product(range(5), range(-10, 11), range(-1, 18)))
    built = {fmt: 0 for fmt in cli.FORMATS}  # templates built per format
    for thresholds, triplets in ((DEFAULT_THRESHOLDS, grid), ((1, "3/2"), grid[::4]),
                                 ((), grid[1::4])):
        for p in triplets:
            rep = report(BundleParams(*p), thresholds)
            for fmt in cli.FORMATS:
                before = len(cli._TEMPLATES)
                assert render_report(rep, fmt) == cli._render_fields(rep, fmt), (p, fmt)
                built[fmt] += len(cli._TEMPLATES) > before
    assert all(built.values()), built
    for p in ((2, 3, 6), (1, 1, 3), (0, 1, 2), (4, 6, 10), (2, 0, 1), (0, 0, 0)):
        rep = report(BundleParams(*p))
        for other in (*parts_swapped(rep), *values_retyped(rep)):
            for fmt in cli.FORMATS:
                assert rendered(other, fmt) == rendered(other, fmt, cli._render_fields), (
                    p, fmt, other)


def test_a_record_equal_to_a_shared_one_takes_the_field_path(monkeypatch):
    """The key names a validity record and a K-status by id, so a report
    whose record equals a shared one but is another object renders as the
    field path does and caches no template, in every format, while the
    report with the shared record is served from its template."""
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    reports = {}  # (validity record, K-status) -> a report with them
    for t in product(range(3), range(-4, 5), range(-1, 8)):
        rep = report(BundleParams(*t))
        reports.setdefault((rep.validity, rep.k_status), rep)
    assert {status for _, status in reports} == {
        None, KStatus.not_proven(), *map(KStatus.proven, KFailureReason)}
    copies = []  # (report, a copy with an equal record that is another object)
    for rep in reports.values():
        copies.append((rep, rep._replace(validity=ValidityReport(*rep.validity))))
        if rep.k_status is not None:
            copies.append((rep, rep._replace(k_status=KStatus(*rep.k_status))))
    for rep, copy in copies:
        assert copy == rep and any(a is not b for a, b in zip(copy, rep))
        for fmt in cli.FORMATS:
            assert render_report(copy, fmt) == cli._render_fields(copy, fmt)
    assert cli._TEMPLATES == {}
    for rep, copy in copies:
        for fmt in cli.FORMATS:
            assert render_report(rep, fmt) == render_report(copy, fmt)
    assert len(cli._TEMPLATES) == 4 * len(reports)


def test_a_template_of_a_huge_report(monkeypatch):
    """A 5,000-digit report renders as the field path does once the caller
    lifts the digit limit, and raises the same ValueError before.  The
    failed fill leaves its shape's template whole: a small report of that
    shape is then served from it."""
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    huge, small = report(BundleParams(0, -5 * N, 0)), report(BundleParams(0, -5, 0))
    for fmt in cli.FORMATS:
        failed = rendered(huge, fmt)
        assert failed[0] is ValueError and failed == rendered(huge, fmt, cli._render_fields)
        with digit_limit_lifted():
            assert render_report(huge, fmt) == cli._render_fields(huge, fmt)
        cached = len(cli._TEMPLATES)
        assert render_report(small, fmt) == cli._render_fields(small, fmt)
        assert len(cli._TEMPLATES) == cached == cli.FORMATS.index(fmt) + 1
    assert all(type(text) is str and callable(values)
               for text, values in cli._TEMPLATES.values())


@contextlib.contextmanager
def digit_limit_lifted():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_percent_sign_in_a_shape_is_written_as_it_is(monkeypatch):
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    monkeypatch.setattr(ValidityReport, "failure_reasons",
                        lambda self: ["100% of %(lam)s and %s refused"])
    rep = report(BundleParams(2, 0, 1))
    for fmt in cli.FORMATS:
        assert render_report(rep, fmt) == cli._render_fields(rep, fmt)
    assert "100% of %(lam)s and %s refused" in render_report(rep, "plain")
    assert len(cli._TEMPLATES) == 4


def test_the_template_cache_holds_one_template_per_shape_and_format(monkeypatch):
    """After every triplet of lambda in [0,6], mu in [-12,12], nu in [-2,21]
    in every format, the cache holds 4 templates per shape, 84, within the
    bound of its key space.  2,000 distinct 5,000-digit triplets and 2,000
    reports with other thresholds add none, and the templates of all the
    shapes take under 256 KiB (tracemalloc), 5,000-digit triplets or not."""
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    shapes = {}  # shape -> a report of it
    for p in product(range(7), range(-12, 13), range(-2, 22)):
        rep = report(BundleParams(*p))
        shapes.setdefault((rep.validity, rep.case, rep.k2_holds,
                           tuple(rep.k3_threshold_results.values()), rep.k_status,
                           rep.verdict), rep)
        for fmt in cli.FORMATS:
            render_report(rep, fmt)
    assert len(cli._TEMPLATES) == 4 * len(shapes) == 84
    records = {r for rs in _VALIDITY.values() for r in rs}
    statuses = 1 + len(KFailureReason)
    bound = 4 * len(records) * (1 + len(CaseLabel) * len(_DEFAULT_K3) * statuses * len(Verdict))
    assert len(cli._TEMPLATES) <= bound
    huge = [report(BundleParams(0, -5 * N - k, 0)) for k in range(2000)]
    for k, rep in enumerate(huge):
        with pytest.raises(ValueError):
            render_report(rep, cli.FORMATS[k % 4])
        rep = report(BundleParams(*(2, 3, 6) if k % 2 else (0, 0, 0)),
                     (Fraction(k, 7), Fraction(1, k + 1)))
        render_report(rep, cli.FORMATS[k % 4])
    assert len(cli._TEMPLATES) == 84
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for rep in (*shapes.values(), *huge[:100]):
            for fmt in cli.FORMATS:
                rendered(rep, fmt)
        gc.collect()
        assert len(cli._TEMPLATES) == 84
        assert tracemalloc.get_traced_memory()[0] - before < 256 * 1024
    finally:
        tracemalloc.stop()


def test_the_renderers_refuse_any_other_format(monkeypatch):
    """render_rows and render_report raise the ValueError that `--format`
    raises on a format not in FORMATS, for rows the library made or not,
    and for valid, invalid and --thresholds reports; 1,000 such names
    cache no template."""
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    reports = [report(BundleParams(1, 1, 3)), report(BundleParams(0, 0, 0)),
               report(BundleParams(2, 2, 5), (Fraction(1),))]
    table = classify_k2_failures()
    row_lists = [table, [table[0]._replace(delta=Fraction(7, 3))], []]
    for rep in reports:
        for fmt in cli.FORMATS:
            render_report(rep, fmt)
    cached = len(cli._TEMPLATES)
    for fmt in ("yaml", "md", "Plain", "", *(f"xml{k}" for k in range(1000))):
        refused = (ValueError, f"invalid choice: {fmt!r} (choose from plain, json, csv, markdown)")
        assert rendered(fmt, None, lambda text, _: cli._format_arg(text)) == refused
        assert all(rendered(rep, fmt) == refused for rep in reports), fmt
        assert all(rendered(rows, fmt, render_rows) == refused for rows in row_lists), fmt
    assert len(cli._TEMPLATES) == cached == 8


# --- entry points -----------------------------------------------------------------

def test_console_script_and_module_both_run_main():
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    module, name = re.search(r'^dp1toric = "([\w.]+):(\w+)"$', pyproject,
                             re.MULTILINE).groups()
    assert getattr(importlib.import_module(module), name) is main
    done = run_module("analyze", "1", "1")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: dp1toric analyze ")
