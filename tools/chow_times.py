"""Time chow's intersection numbers and a crosscheck op in-process on two
checkouts.

Usage: python3 tools/chow_times.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  The cases are
`chow.triple_on_x(p, c, c, c)` on P(2,3,5) for each integral class c that
the benchmark's crosscheck workload multiplies (H, F, D_y, D_z, D_w and
-K_X) and on HALVES, a class with halves, which takes the `Fraction`
branch; `torus_divisor_class`, `anticanonical_on_x`, `derive_h4` and
`fiber_part_count` (on the basis class 6H + 2*nu*F); and one crosscheck op
body on each of OP_TRIPLETS, given as a shifted top row: `normalize`, the
six classes, their 56 products, `derive_h4` and
`cli.main(["basis", lambda, mu, nu, "6", 2*nu])` with stdout captured.
Each is timed by tools/basis_times.py's `compare`: for each of ROUNDS
rounds, one subprocess runs in each checkout, with PYTHONPATH on its src,
and prints the best of at least BEST runs of NUMBER calls (OP_NUMBER for
an op body), per call, run for at least basis_times.MIN_SECONDS in all;
which side runs first alternates from round to round.  Per case, stdout
gets the parent's median and q1-q3 and the change's median, in
microseconds, the relative difference and the rounds in which the change
is slower, marked `slower` by the rule of tools/basis_times.py.  If a run
fails, its stderr is printed and the exit status is 1.  Only the standard
library is used.
"""

import sys

from basis_times import MIN_SECONDS, run

ROUNDS, BEST, NUMBER, OP_NUMBER = 7, 7, 10_000, 200
TRIPLET = (2, 3, 5)
HALVES = ("1/2", "3/2")
# (lambda, mu, nu) of each timed op, from the crosscheck box, whose bases
# have 84, 578 and 1,360 monomials: an op lists about 630 on average.
OP_TRIPLETS = ((2, 3, 5), (5, 0, 20), (3, -20, 30))

SETUP = ("from dp1toric.chow import anticanonical_on_x, derive_h4, triple_on_x\n"
         "from dp1toric.grading import (F, H, BundleParams, DivisorClass,\n"
         "                              fiber_part_count, torus_divisor_class)\n"
         "p = BundleParams(*%r)\n"
         "classes = {'H': H, 'F': F, 'D_y': torus_divisor_class(p, 'y'),\n"
         "           'D_z': torus_divisor_class(p, 'z'), 'D_w': torus_divisor_class(p, 'w'),\n"
         "           '-K_X': anticanonical_on_x(p), 'halves': DivisorClass(*%r)}\n"
         "basis = DivisorClass(6, 2 * p.nu)" % (TRIPLET, HALVES))
OP = """import contextlib, io
from itertools import combinations_with_replacement
from dp1toric import chow, cli, grading

def op(top_row):
    p = grading.normalize(grading.GradingMatrix(top_row))
    classes = [grading.H, grading.F, grading.torus_divisor_class(p, "y"),
               grading.torus_divisor_class(p, "z"),
               grading.torus_divisor_class(p, "w"), chow.anticanonical_on_x(p)]
    products = [chow.triple_on_x(p, a, b, c)
                for a, b, c in combinations_with_replacement(classes, 3)]
    h4 = chow.derive_h4(p)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["basis", str(p.lam), str(p.mu), str(p.nu), "6", str(2 * p.nu)])
    return products, h4, out.getvalue(), code
"""


def top_row(lam: int, mu: int, nu: int) -> tuple:
    """A top row of P(lambda, mu, nu) in another gauge, with x and y
    swapped, as the crosscheck workload presents a triplet."""
    return (1, 1, lam + 1, 1, mu + 2, nu + 3)


# (label, setup, statement, calls per run) for each case.
CASES = [(f"triple_on_x         {TRIPLET} {name}^3", SETUP + f"\nc = classes[{name!r}]",
          "triple_on_x(p, c, c, c)", NUMBER)
         for name in ("H", "F", "D_y", "D_z", "D_w", "-K_X", "halves")]
CASES += [(f"{label:<19} {TRIPLET}", SETUP, statement, NUMBER) for label, statement in (
    ("torus_divisor_class", "torus_divisor_class(p, 'z')"),
    ("anticanonical_on_x", "anticanonical_on_x(p)"),
    ("derive_h4", "derive_h4(p)"),
    ("fiber_part_count", "fiber_part_count(basis)"))]
CASES += [(f"crosscheck op       {t}", OP, f"op({top_row(*t)!r})", OP_NUMBER)
          for t in OP_TRIPLETS]

if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], "tools/chow_times.py", CASES, rounds=ROUNDS, best=BEST,
                 least=MIN_SECONDS, unit="us"))
