"""The measuring scripts under tools/: the pair summary and line totals that
tools/pairs.py prints, the basis timings of tools/basis_times.py, the
renderer timings of tools/render_times.py, the report timings of
tools/report_times.py and the code-line count of tools/code_lines.py.

tools/ is put on sys.path, as running a script from it would.
"""

import contextlib
import io
import re
import statistics
import sys
import timeit
from pathlib import Path

from dp1toric import cli, conditions
from dp1toric.classify import SearchBox, oracle_search
from dp1toric.conditions import report
from dp1toric.grading import BundleParams

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from basis_times import CASES, compare, timed  # noqa: E402
from code_lines import code_lines  # noqa: E402
from pairs import sizes, summary  # noqa: E402
from render_times import CASES as RENDER_CASES  # noqa: E402
from render_times import TWO_ROWS  # noqa: E402
from report_times import CASES as REPORT_CASES  # noqa: E402
from report_times import TRIPLETS  # noqa: E402

LOWER = {"name": "latency_p50_ms", "better": "lower"}
HIGHER = {"name": "ops_per_s", "better": "higher"}
NUMBER = r"\d+(\.\d+)?(e[-+]\d+)?"  # a time as compare writes it


def records(parent: list, change: list, failed: tuple = (0, 0)) -> list[dict]:
    """One workload's runs: seed i of each side reads parent[i] or change[i]
    for every metric; each run attempts 100 ops, of which failed[0] (parent)
    or failed[1] (change) fail."""
    return [{"workload": "w", "seed": seed, "side": side,
             "run": {"attempted": 100, "failed": fails,
                     "metrics": {m["name"]: {"value": value} for m in (LOWER, HIGHER)}}}
            for side, values, fails in (("parent", parent, failed[0]),
                                        ("change", change, failed[1]))
            for seed, value in enumerate(values, 101)]


def wins(text: str) -> list[str]:
    return [line.rsplit("better in ", 1)[1] for line in text.splitlines()[1:]]


def test_a_tie_is_a_win_for_neither_side():
    text = summary(records([1, 2, 3, 4], [1, 2, 3, 4]), [LOWER, HIGHER])
    assert wins(text) == ["0/4", "0/4"]


def test_better_follows_the_metrics_direction():
    # The change is lower in three pairs, higher in one and tied in one.
    text = summary(records([5, 5, 5, 5, 5], [4, 3, 6, 5, 1]), [LOWER, HIGHER])
    assert wins(text) == ["3/5", "1/5"]


def test_quartiles_are_the_parents():
    parent = [10, 13, 11, 17, 12, 19, 14, 15, 16, 18]
    text = summary(records(parent, [20] * 10), [HIGHER])
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert f"parent 14.5 (q1-q3 {q1:.6g}-{q3:.6g})" in text
    assert "change 20 (+37.9%)" in text


def marks(text: str) -> list[str]:
    """The mark before "better in" on each metric line, "" for none."""
    return [line.rsplit("better in ", 1)[0].split(")  ")[-1].strip()
            for line in text.splitlines()[1:]]


def test_a_gain_is_nine_of_ten_pairs_beyond_the_parents_spread():
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]  # q1-q3 about 11.75-17.25
    change = [p + 8 for p in parent[:9]] + [0]  # median 21.5, better in 9/10
    text = summary(records(parent, change), [LOWER, HIGHER])
    assert marks(text) == ["", "gain"] and wins(text) == ["1/10", "9/10"]
    # 9/10 better, but the medians differ by less than the spread.
    change = [p + 1 for p in parent[:9]] + [0]
    assert marks(summary(records(parent, change), [HIGHER])) == [""]


def test_the_header_gives_each_sides_failed_and_attempted_ops():
    text = summary(records([1, 2, 3], [1, 2, 3], failed=(0, 2)), [HIGHER])
    assert text.splitlines()[0] == "w: failed/attempted ops parent 0/300  change 6/300"


def test_a_larger_failed_share_withholds_the_gain():
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    change = [p + 8 for p in parent]
    for failed, mark in (((0, 0), "gain"), ((1, 1), "gain"), ((0, 1), ""), ((1, 2), "")):
        text = summary(records(parent, change, failed), [HIGHER])
        assert marks(text) == [mark] and wins(text) == ["10/10"], failed


def test_eight_of_ten_pairs_is_no_gain():
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    change = [p + 20 for p in parent[:8]] + [0, 0]
    text = summary(records(parent, change), [HIGHER])
    assert marks(text) == [""] and wins(text) == ["8/10"]


def test_worse_is_a_median_past_the_metrics_bound():
    parent = [10] * 10
    for change, mark in (([12.4] * 10, ""), ([12.6] * 10, "worse")):
        text = summary(records(parent, change), [{**LOWER, "bound": 0.25}])
        assert marks(text) == [mark]
    for change, mark in (([7.6] * 10, ""), ([7.4] * 10, "worse")):
        text = summary(records(parent, change), [{**HIGHER, "bound": 0.25}])
        assert marks(text) == [mark]


def test_sizes_counts_newlines_as_wc_does(tmp_path):
    for side, texts in (("parent", ["a = 1\nb = 2\n", "\n\n"]),
                        ("change", ["a = 1\nb = 2", "# c\n"])):
        src = tmp_path / side / "src" / "dp1toric"
        src.mkdir(parents=True)
        for i, text in enumerate(texts):
            (src / f"m{i}.py").write_text(text)
    lines, code = sizes({side: tmp_path / side for side in ("parent", "change")}).splitlines()
    # "b = 2" ends no line for wc -l, though it is a code line.
    assert lines.split() == ["src/dp1toric", "lines", "parent", "4", "change", "2", "(-2)"]
    assert code.split() == ["src/dp1toric", "code", "lines", "parent", "2", "change", "2",
                            "(+0)"]


def test_basis_times_compares_a_case_on_both_sides():
    # h = 6 times every function on the spelt fiber table as well as past it.
    assert {case[0] for case in CASES if case[2] == 6} == {
        "monomial_strings", "monomial_basis", "monomial_count", "base_locus_strata"}
    # Both sides are this checkout; 3 rounds give the parent's quartiles.
    case = ("monomial_strings", (0, 0, 0), 6, 0)
    assert case in CASES
    [line] = compare({"parent": ROOT, "change": ROOT}, [timed(case)], rounds=3, best=1,
                     least=0)
    assert re.fullmatch(rf"monomial_strings  P\(0,0,0\) h=6   f=0  parent {NUMBER} ms "
                        rf"\(q1-q3 {NUMBER}-{NUMBER}\)  change {NUMBER} ms "
                        r"\([-+]\d+\.\d%\)  (slower  )?slower in [0-3]/3", line), line


def test_render_times_compares_a_case_on_both_sides():
    # render_rows in every format on 0, 2 and 14 rows, and main on two
    # oracle argvs, of 14 rows and of 2; each statement runs after its setup.
    assert len(RENDER_CASES) == 14
    _, args = cli._parse(TWO_ROWS)
    assert len(oracle_search(SearchBox(args.lambda_range, args.mu_range, args.nu_range))) == 2
    with contextlib.redirect_stdout(io.StringIO()):
        for _, setup, statement, _ in RENDER_CASES:
            timeit.Timer(statement, setup).timeit(1)
    # Both sides are this checkout; 3 rounds of one run of 10 calls.
    label, setup, statement, _ = RENDER_CASES[-1]
    assert label == "main oracle --lambda 2 2 --nu 0 5"
    [line] = compare({"parent": ROOT, "change": ROOT}, [(label, setup, statement, 10)],
                     rounds=3, best=1, least=0, unit="us")
    assert re.fullmatch(rf"{label}  parent {NUMBER} us \(q1-q3 {NUMBER}-{NUMBER}\)  "
                        rf"change {NUMBER} us \([-+]\d+\.\d%\)  (slower  )?slower in "
                        r"[0-3]/3", line), line


def test_report_times_compares_a_case_on_both_sides(monkeypatch):
    # report on an invalid, a valid and a certificate triplet, and
    # render_report on each in every format; each statement runs after its setup.
    assert len(REPORT_CASES) == 3 + 3 * 4
    # Only the certificate triplet runs the D_z certificate, once.
    certified, check = [], conditions.is_dz_movable_on_x
    monkeypatch.setattr(conditions, "is_dz_movable_on_x",
                        lambda p: certified.append(p) or check(p))
    valid = [report(BundleParams(*t)).validity.is_valid for _, t in TRIPLETS]
    assert valid == [False, True, True]
    assert certified == [BundleParams(*dict(TRIPLETS)["certificate"])]
    for _, setup, statement, _ in REPORT_CASES:
        timeit.Timer(statement, setup).timeit(1)
    # Both sides are this checkout; 3 rounds of one run of 10 calls.
    label, setup, statement, _ = REPORT_CASES[-1]
    assert label == "render_report certificate (1, 1, 3) markdown"
    [line] = compare({"parent": ROOT, "change": ROOT}, [(label, setup, statement, 10)],
                     rounds=3, best=1, least=0, unit="us")
    assert re.fullmatch(rf"{re.escape(label)}  parent {NUMBER} us \(q1-q3 {NUMBER}-{NUMBER}\)  "
                        rf"change {NUMBER} us \([-+]\d+\.\d%\)  (slower  )?slower in "
                        r"[0-3]/3", line), line


def scripted_lines(monkeypatch, parent: list, change: list) -> list[str]:
    """compare's lines, one, for a case whose round i times parent[i] and
    change[i] ms."""
    times = {"parent": iter(parent), "change": iter(change)}
    monkeypatch.setattr("basis_times.best_time",
                        lambda root, case, best, least: next(times[root]) / 1e3)
    return list(compare({"parent": "parent", "change": "change"}, [timed(CASES[0])],
                        rounds=len(parent)))


def test_basis_times_marks_slower_only_in_nine_of_ten_rounds(monkeypatch):
    # One disturbed parent round: the change is slower in the other 6 and
    # its median is past the parent's q1-q3 of 0, but 6/7 is below 9/10.
    [line] = scripted_lines(monkeypatch, [5.0, 5.0, 5.0, 9.0, 5.0, 5.0, 5.0], [5.1] * 7)
    assert line.endswith("change 5.1 ms (+2.0%)  slower in 6/7"), line
    # Slower in every round, by more than the parent's q1-q3.
    [line] = scripted_lines(monkeypatch, [5.0, 5.1, 4.9, 5.0, 5.1, 4.9, 5.0], [6.0] * 7)
    assert line.endswith("change 6 ms (+20.0%)  slower  slower in 7/7"), line
    # Slower in every round, but within the parent's q1-q3.
    [line] = scripted_lines(monkeypatch, [4.0, 6.0, 4.0, 6.0, 4.0, 6.0, 5.0],
                            [4.1, 6.1, 4.1, 6.1, 4.1, 6.1, 5.1])
    assert line.endswith("slower in 7/7") and "slower  " not in line, line


def test_code_lines_skips_blanks_comments_and_docstrings():
    text = '''"""Module docstring,
over two lines."""

# A comment.
import os


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = 1  # code, with a comment
        "a string statement that is not a docstring"
        return x
'''
    # import, class, def, x = 1, the string statement and return.
    assert code_lines(text) == 6
