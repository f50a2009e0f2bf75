"""Time `report` and the report renderer in-process on two checkouts.

Usage: python3 tools/report_times.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  The cases are
`conditions.report(p)` and `cli.render_report(rep, fmt)` in each format,
for the three kinds of triplet of the benchmark's analyze_mix workload:
INVALID, VALID (valid, off the D_z certificate path) and CERTIFICATE
(`k_status` runs `is_dz_movable_on_x`).  A render is timed on a report
built in the setup, after one render has cached its shape's template.
Each is timed by tools/basis_times.py's `compare`: for each of ROUNDS
rounds, one subprocess runs in each checkout, with PYTHONPATH on its src,
and prints the best of BEST runs of NUMBER calls, per call; which side
runs first alternates from round to round.  Per case, stdout gets the
parent's median and q1-q3 and the change's median, in microseconds, the
relative difference and the rounds in which the change is slower, marked
`slower` by the rule of tools/basis_times.py.  If a run fails, its stderr
is printed and the exit status is 1.  Only the standard library is used.
"""

import sys

from basis_times import run

ROUNDS, BEST, NUMBER = 7, 7, 10_000
FORMATS = ("plain", "json", "csv", "markdown")
# (kind, triplet) for each kind of analyze_mix op.
TRIPLETS = (("invalid", (0, 0, 0)), ("valid", (2, 3, 6)), ("certificate", (1, 1, 3)))

SETUP = ("from dp1toric.cli import render_report\n"
         "from dp1toric.conditions import report\n"
         "from dp1toric.grading import BundleParams\n"
         "p = BundleParams(*%r)\nrep = report(p)\n"
         "for fmt in " + repr(FORMATS) + ":\n    render_report(rep, fmt)")
# (label, setup, statement, calls per run) for each case.
CASES = [(f"report        {kind:<11} {t}", SETUP % (t,), "report(p)", NUMBER)
         for kind, t in TRIPLETS]
CASES += [(f"render_report {kind:<11} {t} {fmt}", SETUP % (t,), f"render_report(rep, {fmt!r})",
           NUMBER) for kind, t in TRIPLETS for fmt in FORMATS]

if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], "tools/report_times.py", CASES, rounds=ROUNDS, best=BEST,
                 least=0, unit="us"))
