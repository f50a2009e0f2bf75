"""Time grading's basis functions at large H-degrees on two checkouts.

Usage: python3 tools/basis_times.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  For each case, a
function of `dp1toric.grading` (`monomial_strings`, `monomial_basis`,
`monomial_count` or `base_locus_strata`) on a bundle and a class h*H + f*F,
and for each of ROUNDS rounds, one subprocess runs in each checkout, with
PYTHONPATH on that checkout's src.  It imports dp1toric, calls the function
at least BEST times and for at least MIN_SECONDS in all, and prints the
best wall time of one call: a call of a millisecond is repeated until the
machine's noise is out of its best time.  One process runs at a time, and
which side runs first alternates from round to round.

The H-degrees are 6, on the spelt fiber table of h <= 29 that the
benchmark's crosscheck `basis` ops use, and 30 to 326, past it: at h = 326
a class has 1,000,000 fiber parts or just under, the most that the
listings and the count walk (`base_locus_strata` reads at most 22 parts at
any h).  The classes are all-kept ones (P(0,0,0), f = 0: every fiber part
has residual F-degree 0) and few-kept ones (P(1,2,3), f = 0: only x^h).
All-kept listings stop at h = 200, whose 234,000 monomials are built in
about 50 MB; at h = 326 the count walks them instead.

Per case, stdout gets the parent's median and q1-q3 and the change's median,
in ms, the change's relative difference, and the number of rounds in which
the change is slower.  By the rule by which tools/pairs.py marks a `gain`,
its `pair_rule`, the case is marked `slower` only when that number is at
least 9/10 of the rounds (all 7 at ROUNDS = 7) and the change's median is
above the parent's by more than the parent's q3 - q1: one disturbed round
marks nothing.  If a run fails, its stderr is printed and the exit status
is 1.
`compare` and `run` take any timed case, (label, setup, statement, calls
per run), timed by `timeit` with the garbage collector on; `timed` makes
one of each case above, one call per run, and tools/render_times.py times
the row renderer with them.  Only the standard library is used.
"""

import os
import subprocess
import sys
from pathlib import Path

from pairs import pair_rule

ROUNDS = 7
BEST = 3
MIN_SECONDS = 0.2
H_DEGREES = (6, 30, 60, 120, 200, 326)
LISTINGS = ("monomial_strings", "monomial_basis")
SCANS = ("monomial_count", "base_locus_strata")
ALL_KEPT, FEW_KEPT = (0, 0, 0), (1, 2, 3)

# (function, (lambda, mu, nu), h, f) for each case.
CASES = [(name, params, h, 0) for h in H_DEGREES
         for params in (ALL_KEPT, FEW_KEPT) for name in LISTINGS + SCANS
         if not (name in LISTINGS and params == ALL_KEPT and h > 200)]

# The program a subprocess runs: argv is a timed case's setup, statement
# and calls per run, the least number of runs and their least total
# seconds.  It prints the best time of one call, in seconds, to the
# process's stdout, which the setup may replace while it times.  The
# garbage collector stays on, as it is for the program.
TIMER = """
import sys, timeit
setup, statement, number, best, least = sys.argv[1:]
timer = timeit.Timer(statement, "import gc; gc.enable()\\n" + setup)
number, times = int(number), []
while len(times) < int(best) or sum(times) < float(least):
    times.append(timer.timeit(number))
sys.stdout = sys.__stdout__
print(min(times) / number)
"""


def timed(case: tuple) -> tuple:
    """The timed case of a case of CASES: (label, setup, statement, calls
    per run), one call per run."""
    name, (lam, mu, nu), h, f = case
    return (f"{name:<17} P({lam},{mu},{nu}) h={h:<3} f={f}",
            f"from dp1toric.grading import {name} as scan, BundleParams, DivisorClass\n"
            f"p, cls = BundleParams({lam}, {mu}, {nu}), DivisorClass({h}, {f})",
            "scan(p, cls)", 1)


def best_time(root: Path, case: tuple, best: int, least: float) -> float:
    """The best time of one call of the timed case's statement, of at least
    `best` runs and `least` seconds of them, in one subprocess in the
    checkout root, in seconds; RuntimeError with its stderr if it fails."""
    label, setup, statement, number = case
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-c", TIMER, setup, statement, *map(str, (number, best, least))],
        cwd=root, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{label} in {root} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return float(done.stdout)


def compare(sides: dict[str, Path], cases, rounds: int = ROUNDS, best: int = BEST,
            least: float = MIN_SECONDS, unit: str = "ms"):
    """One line per timed case, as it is timed: both sides' times over
    `rounds` rounds, in ms or, with unit "us", in microseconds."""
    scale = {"ms": 1e3, "us": 1e6}[unit]
    for case in cases:
        times = {"parent": [], "change": []}
        for i in range(rounds):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                times[side].append(scale * best_time(sides[side], case, best, least))
        before, after, q1, q3, slower, marked = pair_rule(times["parent"], times["change"])
        mark = "slower  " if marked else ""
        yield (f"{case[0]}  parent {before:.4g} {unit} (q1-q3 {q1:.4g}-{q3:.4g})  "
               f"change {after:.4g} {unit} ({after / before - 1:+.1%})  "
               f"{mark}slower in {slower}/{rounds}")


def run(argv: list[str], script: str, cases, **options) -> int:
    """The main function of script, a timer of cases on two checkouts:
    compare's lines on stdout, with options passed to it."""
    if len(argv) != 2:
        sys.stderr.write(f"usage: python3 {script} PARENT CHANGE\n")
        return 2
    sides = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    try:
        for line in compare(sides, cases, **options):
            print(line, flush=True)
    except RuntimeError as failure:
        sys.stderr.write(f"{failure}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], "tools/basis_times.py", map(timed, CASES)))
