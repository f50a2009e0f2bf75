"""Time the row renderer and `oracle` in-process on two checkouts.

Usage: python3 tools/render_times.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  The cases are
`cli.render_rows` in each format on the first 0, 2 and 14 rows of the
default box, and `cli.main` on the default-box `oracle` argv (14 rows) and
on TWO_ROWS (2 rows), with stdout sent to a sink that drops it.  Each is
timed by tools/basis_times.py's `compare`: for each of ROUNDS rounds, one
subprocess runs in each checkout, with PYTHONPATH on its src, and prints
the best of BEST runs of NUMBER calls, per call; which side runs first
alternates from round to round.  Per case, stdout gets the parent's median
and q1-q3 and the change's median, in microseconds, the relative
difference and the rounds in which the change is slower, marked `slower`
by the rule of tools/basis_times.py.  If a run fails, its stderr is
printed and the exit status is 1.  Only the standard library is used.
"""

import sys

from basis_times import run

ROUNDS, BEST, NUMBER = 7, 7, 10_000
FORMATS = ("plain", "json", "csv", "markdown")
TWO_ROWS = ["oracle", "--lambda", "2", "2", "--nu", "0", "5"]

ROWS = ("from dp1toric.classify import DEFAULT_BOX, oracle_search\n"
        "from dp1toric.cli import render_rows\n"
        "rows = oracle_search(DEFAULT_BOX)[:%d]")
MAIN = ("import sys, types\nfrom dp1toric.cli import main\n"
        "sys.stdout = types.SimpleNamespace(write=len)")
# (label, setup, statement, calls per run) for each case.
CASES = [(f"render_rows {fmt:<8} {n:>2} rows", ROWS % n, f"render_rows(rows, {fmt!r})", NUMBER)
         for fmt in FORMATS for n in (0, 2, 14)]
CASES += [(f"main {' '.join(argv)}", MAIN, f"main({argv!r})", NUMBER)
          for argv in (["oracle"], TWO_ROWS)]

if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], "tools/render_times.py", CASES, rounds=ROUNDS, best=BEST,
                 least=0, unit="us"))
