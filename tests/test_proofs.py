"""Claims over Z^3 (and Z^2) as one table of integer systems, and one checker.

An entry of `CLAIMS` maps a claim's name to the systems of the ways it
could fail, each with a label, and to the lattice points expected in
their union, usually none.  A row (a_1, ..., a_n, r) means a*x <= r, on
(lambda, mu, nu) unless an entry says otherwise.  `check` lists the
points of every system with `classify._points`, Fourier-Motzkin
elimination with no box (Schrijver, Theory of Linear and Integer
Programming, 1986, §12.2), and fails the claim if a system leaves a
variable unbounded or if other points turn up.  The tests after the
table tie the rows to the code that decides each claim, on grids.
"""

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct
from operator import add, mul, sub
from typing import NamedTuple

import pytest

from dp1toric import classify, conditions
from dp1toric.chow import anticanonical_on_x, evaluate_top, product, triple_on_x, x_class
from dp1toric.classify import _points, nonsingular_delta
from dp1toric.conditions import (CaseLabel, KFailureReason, KStatus,
                                 classify_case, k_status, validity)
from dp1toric.grading import (F, H, BundleParams, ExponentVector, GradingMatrix,
                              base_locus_strata, is_dz_movable_on_x, normalize,
                              torus_divisor_class)

AI, AII, B = CaseLabel.AI, CaseLabel.AII, CaseLabel.B
# Per `_CASE_ROWS` entry: its case, its name, its rows and its base system,
# lambda >= 0, the validity rows and the entry's rows.
ENTRIES = tuple((case, case.value + (f"-{branch.value}" if branch else ""), rows,
                 ((-1, 0, 0, 0), *(row for row, _ in conditions._VALID_ROWS), *rows))
                for case, branch, rows in conditions._CASE_ROWS)

# Forms (a, b, c, r) of a*lambda + b*mu + c*nu + r: 2k, where -K_X = H + k*F
# and k = lambda + mu - nu + 2, mu, and 2k - mu.
TWO_K = (2, 2, -2, 4)
MU = (0, 1, 0, 0)
ZERO = (0, 0, 0, 0)
TWO_K_LESS_MU = tuple(map(sub, TWO_K, MU))
# Mov(X) = cone(F, H + t_mov*F), where 2*t_mov is the max of these forms of
# 2*t_E, t_E = -(H.E.N)/(F.E.N) for the divisor E of X named: mu (E = D_x)
# and 0 (E = D_z) in (a-i) and (b), and 2*lambda (E = D_x) in (a-ii), where
# the 0 of E = D_y never exceeds 2*lambda at lambda >= 0.
TWO_MOV = {AI: (MU, ZERO), AII: ((2, 0, 0, 0),), B: (MU, ZERO)}
# The slopes of the Cox generators x, y, z and w times 6, (0, 6*lambda, 3*mu,
# 2*nu), less 6k.
SLOPES_LESS_SIX_K = tuple(tuple(map(sub, v, (6, 6, -6, 12)))
                          for v in (ZERO, (6, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0)))
# The F-degrees of |X| = |6H + 2*nu*F| and |3*D_z| = |6H + 3*mu*F|, and
# the pure powers x^6, y^6, z^3 and w^2 of H-degree 6.
X_DEGREE, THREE_DZ = (0, 0, 2, 0), (0, 3, 0, 0)
POWERS = {"x": (6, 0, 0, 0), "y": (0, 6, 0, 0), "z": (0, 0, 3, 0), "w": (0, 0, 0, 2)}


def at_most(form, bound):
    """The row of form <= bound, for a form (a_1, ..., a_n, r) of a*x + r."""
    *a, r = form
    return *a, bound - r


def at_least(form, bound):
    """The row of form >= bound."""
    *a, r = form
    return *(-v for v in a), r - bound


def parts(h, avoiding=""):
    """The fiber parts x^c y^d z^e w^g of H-degree h, as (c, d, e, g), with
    no factor among the variables avoiding."""
    return [t for t in iproduct(range(h + 1), repeat=4)
            if t[0] + t[1] + 2 * t[2] + 3 * t[3] == h
            and not any(k and s in avoiding for k, s in zip(t, "xyzw"))]


def residual(degree, part):
    """The residual F-degree that the fiber part (c, d, e, g) leaves to u
    and v in a class of F-degree form degree: degree - d*lambda - e*mu -
    g*nu."""
    _, d, e, g = part
    a, b, c, r = degree
    return a - d, b - e, c - g, r


def monomial(part):
    return str(ExponentVector(0, 0, *part))


# The residual F-degree r_s of the pure power of s in |X|: x^6, y^6, z^3
# and w^2 leave 2*nu, 2*nu - 6*lambda, 2*nu - 3*mu and 0 to u and v.
RESIDUALS = {s: residual(X_DEGREE, part) for s, part in POWERS.items()}


def k_proven(two_nef):
    """The conjunctions of rows under which `k_status` proves a K-failure:
    2*nef <= -1, or 2k >= mu + 1 and mu >= 0."""
    return (at_most(two_nef, -1),), (at_least(TWO_K_LESS_MU, 1), at_least(MU, 0))


def k_not_proven(two_nef):
    """The conjunctions of the negation of `k_proven`: 2*nef >= 0 and 2k <=
    mu, or 2*nef >= 0 and mu <= -1."""
    return ((at_least(two_nef, 0), at_most(TWO_K_LESS_MU, 0)),
            (at_least(two_nef, 0), at_most(MU, -1)))


def k_dichotomy(two_mov):
    """"k > t_mov exactly where `k_status` proves a failure", with 2*t_mov
    the max of the forms two_mov[case]: per entry, its base with "k >
    t_mov" (2k - 2*t_E >= 1 for every E) and each not-proven conjunction,
    and with each row 2k - 2*t_E <= 0 of "k <= t_mov" and each proven
    conjunction."""
    systems = []
    for case, name, _, base in ENTRIES:
        two_nef = conditions._TWO_NEF[case]
        gaps = [tuple(map(sub, TWO_K, two_t)) for two_t in two_mov[case]]
        above = tuple(at_least(gap, 1) for gap in gaps)
        systems += [(f"{name}: k > t_mov, not proven", base + above + c)
                    for c in k_not_proven(two_nef)]
        systems += [(f"{name}: k <= t_mov, proven", base + (at_most(gap, 0),) + c)
                    for gap in gaps for c in k_proven(two_nef)]
    return systems


def slopes(m, below, conjunctions=lambda two_nef: ((),)):
    """Per entry, its base with m of the slopes below 6k (v - 6k <= -1),
    or else at or above it (v - 6k >= 0), and each conjunction of
    conjunctions(2*nef)."""
    rows = [at_most(v, -1) if below else at_least(v, 0) for v in SLOPES_LESS_SIX_K]
    return [(f"{name}: {m} slopes {'below' if below else 'at or above'} 6k", base + s + c)
            for case, name, _, base in ENTRIES for s in combinations(rows, m)
            for c in conjunctions(conditions._TWO_NEF[case])]


def nonsingular(case, *branch):
    """The rule of `nonsingular_delta` in case, as rows a*lambda + b*mu <= r
    on Z^2: lambda >= 0, mu >= 0, the branch, and 2*delta >= 1 read off
    `conditions._TWO_DELTA` at (lambda, 2*mu, 3*mu)."""
    a, b, c, r = conditions._TWO_DELTA[case]
    return case, ((-1, 0, 0), (0, -1, 0), *branch, (-a, -2 * b - 3 * c, r - 1))


class Cell(NamedTuple):
    """A sign cell of the proof of `grading.is_dz_movable_on_x`'s closed
    form at lambda >= 0: its rows; the pure powers that are sections of
    |3*D_z| and monomials of |X|; the fiber variables that every section of
    |3*D_z| meets, and that every monomial of |X| meets, as the parts
    avoiding them are missing; and the certificate."""
    rows: tuple
    sections: str
    x_sections: str
    meets: str
    x_meets: str
    holds: bool


# The rows of the signs of mu, mu - 2*lambda and 2*nu - 3*mu.
MU_LESS_TWO_LAMBDA, TWO_NU_LESS_THREE_MU = (-2, 1, 0, 0), (0, -3, 2, 0)
MU_NEG, MU_NONNEG = at_most(MU, -1), at_least(MU, 0)
MU_BELOW_2L, MU_FROM_2L = at_most(MU_LESS_TWO_LAMBDA, -1), at_least(MU_LESS_TWO_LAMBDA, 0)
NU_ABOVE, NU_AT_MOST = at_least(TWO_NU_LESS_THREE_MU, 1), at_most(TWO_NU_LESS_THREE_MU, 0)
# The cells, as a decision tree.  A stratum holds a variable of every
# section (`base_locus_strata`), so it holds the sections' pure-power
# variables, and those are the one stratum where every section meets them:
# {z}, of codimension 1; {z, w} and {x, z, w}, which every monomial of |X|
# meets; {x, z}, which w^2 avoids.  Where x^6, y^6 and z^3 are sections,
# the one stratum is {x, y, z}, avoided by w^2, or there is none (w^2 is a
# section too).
DZ_CELLS = {
    "mu < 0, 2nu > 3mu": Cell((MU_NEG, NU_ABOVE), "z", "", "z", "", False),
    "mu < 0, 2nu <= 3mu": Cell((MU_NEG, NU_AT_MOST), "zw", "", "zw", "zw", False),
    "mu >= 2lambda": Cell((MU_NONNEG, MU_FROM_2L), "zxy", "w", "", "", True),
    "0 <= mu < 2lambda, 2nu > 3mu": Cell((MU_NONNEG, MU_BELOW_2L, NU_ABOVE),
                                         "zx", "w", "xz", "", True),
    "0 <= mu < 2lambda, 2nu <= 3mu": Cell((MU_NONNEG, MU_BELOW_2L, NU_AT_MOST),
                                          "zxw", "", "xzw", "xzw", False),
}
# The closed form at lambda >= 0 as conjunctions of rows, mu >= 0 and
# (mu >= 2*lambda or 2*nu > 3*mu), and its negation.
DZ_HOLDS = ((MU_NONNEG, MU_FROM_2L), (MU_NONNEG, NU_ABOVE))
DZ_FAILS = ((MU_NEG,), (MU_BELOW_2L, NU_AT_MOST))
LAMBDA_AT_LEAST_0 = ((-1, 0, 0, 0),)


def classes(cell):
    """The two linear systems of a cell: (name, F-degree, the pure powers
    that are sections, the variables that every section meets)."""
    return (("3D_z", THREE_DZ, cell.sections, cell.meets),
            ("X", X_DEGREE, cell.x_sections, cell.x_meets))


def dz_sections(cells):
    """Per cell, each pure power it names a section, with a negative
    residual."""
    return [(f"{name}: {monomial(POWERS[s])} not in |{cls}|",
             LAMBDA_AT_LEAST_0 + cell.rows + (at_most(residual(degree, POWERS[s]), -1),))
            for name, cell in cells.items() for cls, degree, sections, _ in classes(cell)
            for s in sections]


def dz_missing_parts(cells):
    """Per cell, each part of H-degree 6 that avoids the variables every
    section meets, with a residual >= 0."""
    return [(f"{name}: {monomial(part)} in |{cls}|",
             LAMBDA_AT_LEAST_0 + cell.rows + (at_least(residual(degree, part), 0),))
            for name, cell in cells.items() for cls, degree, _, meets in classes(cell)
            if meets for part in parts(6, meets)]


def dz_closed_form(cells, holds=DZ_HOLDS, fails=DZ_FAILS):
    """Per cell, each conjunction of the closed form that disagrees with the
    cell's certificate."""
    return [(f"{name}: the closed form {'fails' if cell.holds else 'holds'}",
             LAMBDA_AT_LEAST_0 + cell.rows + c)
            for name, cell in cells.items() for c in (fails if cell.holds else holds)]


# N = -K_X + nef*F, so 2N = 2H + (2k + 2*nef)*F; its sections of H-degree 2
# are the parts x^2, x*y, y^2 and z.  In (b), y^6 and y^3*w are missing
# from |X|, so X meets {x = z = 0} in w^2 = 0: twice C_y = {x = z = w = 0}.
Y6_Y3W = ((0, 6, 0, 0), (0, 3, 0, 1))


def nef_sections(two_nef):
    """Per entry, each part of H-degree 2 with a negative residual in |2N|,
    and in (b) y^6 and y^3*w with a residual >= 0 in |X|."""
    two_n = {case: tuple(map(add, TWO_K, form)) for case, form in two_nef.items()}
    return ([(f"{name}: {monomial(part)} not in |2N|",
              base + (at_most(residual(two_n[case], part), -1),))
             for case, name, _, base in ENTRIES for part in parts(2)]
            + [(f"{name}: {monomial(part)} in |X|", base + (at_least(residual(X_DEGREE, part), 0),))
               for case, name, _, base in ENTRIES if case is B for part in Y6_Y3W])


def family_residual(part):
    """The residual F-degree that the part leaves to u and v in |6H +
    6*mu*F| on P(lambda, 2*mu, 3*mu), 6*mu - d*lambda - (2*e + 3*g)*mu, as
    a form (a, b, r) of a*lambda + b*mu + r."""
    _, d, e, g = part
    return -d, 6 - 2 * e - 3 * g, 0


# Per refusal of `nonsingular_delta`, its region on Z^2 and the parts of
# the family that the proof finds missing: those of degree at most 1 in y,
# z and w, so every member lies in (y, z, w)^2; those in x, z and w, so
# (x, z, w)^2; and those but y^5*x, so y^5*x*b(u, v) with deg b > 0 is
# every member modulo (x, z, w)^2.
NONSINGULAR_REFUSALS = {
    "mu < 0": (((0, 1, -1),), ((6, 0, 0, 0), (5, 1, 0, 0), (4, 0, 1, 0), (3, 0, 0, 1))),
    "6*mu < 5*lambda": (((-5, 6, -1),),
                        ((0, 6, 0, 0), (1, 5, 0, 0), (0, 4, 1, 0), (0, 3, 0, 1))),
    "5*lambda < 6*mu < 6*lambda": (((5, -6, -1), (-6, 6, -1)),
                                   ((0, 6, 0, 0), (0, 4, 1, 0), (0, 3, 0, 1))),
}


def nonsingular_refusals(regions):
    """Per region, lambda >= 0, its rows and each missing part with a
    residual >= 0."""
    return [(f"{name}: {monomial(part)} in the family",
             ((-1, 0, 0), *rows, at_least(family_residual(part), 0)))
            for name, (rows, missing) in regions.items() for part in missing]


AMPLE, CERTIFIED = KFailureReason.AMPLE_ANTICANONICAL, KFailureReason.DZ_MOVABLE_INTERIOR
SIX_FAILURES = {(0, -1, 0): AMPLE, (0, 0, 1): AMPLE, (0, 1, 2): AMPLE,
                (1, 0, 2): CERTIFIED, (1, 1, 3): CERTIFIED, (2, 3, 5): CERTIFIED}

# name -> (the (label, rows) of each way the claim could fail, the points
# expected in their union).
CLAIMS = {
    # At most one `_CASE_ROWS` entry holds at a valid triplet with lambda >=
    # 0, so that first match in `_decide` and the regions of `classify`,
    # each read on its own, agree.
    "case-entries-exclusive": ([(f"{name} and {other}", base + other_rows) for
                                (_, name, _, base), (_, other, other_rows, _)
                                in combinations(ENTRIES, 2)], ()),
    # The K-condition fails, k > t_mov, exactly where `k_status` proves a
    # failure, at every valid triplet with lambda >= 0.
    "k-dichotomy": (k_dichotomy(TWO_MOV), ()),
    # The same read off the order statistic: 6*t_mov is the second smallest
    # slope, counted with multiplicity, so "k > t_mov" is two slopes below 6k
    # and "k <= t_mov" three at or above it.
    "k-proven-with-at-most-one-slope-below": (slopes(3, False, k_proven), ()),
    "two-slopes-below-not-proven": (slopes(2, True, k_not_proven), ()),
    # Two slopes lie below 6k at exactly 6 valid triplets with lambda >= 0.
    "k-fails-on-six-triplets": (slopes(2, True), SIX_FAILURES),
    # In case (a), x^6 u^(2*nu), y^6 u^(2*nu - 6*lambda) and z^3 u^(2*nu -
    # 3*mu) are sections of |X|: no residual is negative.
    "case-a-sections": ([(f"{name}: r_{s} <= -1", base + (at_most(RESIDUALS[s], -1),))
                         for case, name, _, base in ENTRIES if case is not B
                         for s in "xyz"], ()),
    # The nonsingular families on P(lambda, 2*mu, 3*mu) with delta > 0, over
    # Z^2, labelled by case.
    "nonsingular-delta-positive": ([
        nonsingular(AI, (1, -1, 0), (-1, 1, 0)),  # mu = lambda
        nonsingular(AI, (-5, 6, 0), (5, -6, 0)),  # 6*mu = 5*lambda
        nonsingular(AII, (1, -1, -1)),  # mu >= lambda + 1
    ], [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (3, 3), (6, 5)]),
    # The K^2-condition, delta <= 0, never meets a proven K-failure, at
    # every valid triplet with lambda >= 0.
    "k2-excludes-proven-failure": ([
        (f"{name}: 2*delta <= 0, proven", base + (at_most(conditions._TWO_DELTA[case], 0),) + c)
        for case, name, _, base in ENTRIES for c in k_proven(conditions._TWO_NEF[case])], ()),
    # The D_z certificate's proof, cell by cell (`DZ_CELLS`): the pure
    # powers it names are sections, the parts it names are missing, and the
    # closed form of `is_dz_movable_on_x` gives the cell's certificate.
    "dz-sections": (dz_sections(DZ_CELLS), ()),
    "dz-missing-parts": (dz_missing_parts(DZ_CELLS), ()),
    "dz-closed-form": (dz_closed_form(DZ_CELLS), ()),
    # x^2, x*y, y^2 and z are sections of |2N| per entry, so |2N| is free
    # off C_w, and in (b) X contains C_y (the `_TWO_NEF` comment).
    "nef-sections": (nef_sections(conditions._TWO_NEF), ()),
    # Where `nonsingular_delta` refuses, the parts the proof needs are
    # missing, over Z^2.
    "nonsingular-refusals": (nonsingular_refusals(NONSINGULAR_REFUSALS), ()),
    # The regions of `classify` hold the 14 oracle triplets, all of Z^3 with
    # delta > 0, labelled by case and branch.
    "regions": ([((case, branch), rows) for case, branch, rows in classify._REGIONS], [
        (0, -2, 0), (0, -1, 0), (0, -1, 1), (0, 0, 1), (0, 1, 2), (1, -2, 1), (1, 0, 2),
        (1, 1, 3), (1, 2, 4), (1, 3, 5), (2, 2, 5), (2, 3, 5), (2, 3, 6), (4, 6, 10)]),
}


def check(name, systems, expected=()):
    """The points of the systems of claim name, each with the label of a
    system that lists it.  Fails when a system leaves a variable unbounded
    (`_points` raises ValueError; no box stands in for the bound), or when
    the points are not exactly those expected."""
    found, unbounded = {}, []
    for label, rows in systems:
        try:
            found.update(dict.fromkeys(_points(rows), label))
        except ValueError:
            unbounded.append(label)
    assert not unbounded and found.keys() == set(expected), (
        f"{name}: {len(unbounded)} of {len(systems)} systems unbounded {unbounded}; "
        f"{len(found)} points {sorted(found)}, expected {sorted(expected)}")
    return found


@pytest.mark.parametrize("name", CLAIMS)
def test_claim(name):
    check(name, *CLAIMS[name])


def test_the_table_holds_the_systems_of_each_claim():
    assert {name: len(systems) for name, (systems, _) in CLAIMS.items()} == {
        "case-entries-exclusive": 10, "k-dichotomy": 28,
        "k-proven-with-at-most-one-slope-below": 40, "two-slopes-below-not-proven": 60,
        "k-fails-on-six-triplets": 30, "case-a-sections": 6,
        "nonsingular-delta-positive": 3, "k2-excludes-proven-failure": 10,
        "dz-sections": 13, "dz-missing-parts": 31, "dz-closed-form": 10, "nef-sections": 26,
        "nonsingular-refusals": 11, "regions": 5}


def test_check_fails_a_false_claim():
    """A false entry fails, and an unbounded system never passes as empty:
    the wrong t_mov = 0 in (a-i) and (b) leaves 3 of its 20 systems
    unbounded and the other 17 empty; t_eff, the smallest slope in place of
    the second smallest, leaves 4 unbounded and lists 5 points.  One
    expected point too many or too few fails as well."""
    with pytest.raises(AssertionError, match=r": 3 of 20 systems unbounded .*; 0 points"):
        check("t_mov = 0", k_dichotomy({**TWO_MOV, AI: (ZERO,), B: (ZERO,)}))
    with pytest.raises(AssertionError, match=r": 4 of 50 systems unbounded .*; 5 points"):
        check("t_eff", slopes(1, True, k_not_proven) + slopes(4, False, k_proven))
    systems, expected = CLAIMS["k-fails-on-six-triplets"]
    for wrong in ({*expected, (2, 3, 6)}, {*expected} - {(1, 0, 2)}):
        with pytest.raises(AssertionError, match=": 0 of 30 systems unbounded"):
            check("six", systems, wrong)


def mutant(**fields):
    """DZ_CELLS with the fields of the cell 0 <= mu < 2*lambda, 2*nu > 3*mu
    replaced."""
    name = "0 <= mu < 2lambda, 2nu > 3mu"
    return {**DZ_CELLS, name: DZ_CELLS[name]._replace(**fields)}


MU_LESS_LAMBDA = (-1, 1, 0, 0)
# name -> (the systems of a false variant of the entry, the label of the
# system it leaves unbounded).
MUTANTS = {
    "dz-sections": (dz_sections(mutant(sections="zxy")),
                    "0 <= mu < 2lambda, 2nu > 3mu: y^6 not in |3D_z|"),
    "dz-missing-parts": (dz_missing_parts(mutant(rows=(
        MU_NONNEG, MU_BELOW_2L, at_least(TWO_NU_LESS_THREE_MU, 0)))),
        "0 <= mu < 2lambda, 2nu > 3mu: w^2 in |3D_z|"),
    "dz-closed-form": (dz_closed_form(DZ_CELLS, ((MU_NONNEG, at_least(MU_LESS_LAMBDA, 0)),
                                                 (MU_NONNEG, NU_ABOVE)),
                                      ((MU_NEG,), (at_most(MU_LESS_LAMBDA, -1), NU_AT_MOST))),
                       "0 <= mu < 2lambda, 2nu <= 3mu: the closed form holds"),
    "nef-sections": (nef_sections({**conditions._TWO_NEF, AII: conditions._TWO_NEF[AI]}),
                     "AII: z not in |2N|"),
    "nonsingular-refusals": (nonsingular_refusals({
        **NONSINGULAR_REFUSALS,
        "6*mu < 5*lambda": (((-5, 6, 0),), NONSINGULAR_REFUSALS["6*mu < 5*lambda"][1])}),
        "6*mu < 5*lambda: x*y^5 in the family"),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_check_fails_a_mutant_of_each_proof_entry(name):
    """A false variant of each entry that replaces a proof in src/ fails:
    y^6 as a section where mu < 2*lambda; 2*nu >= 3*mu for 2*nu > 3*mu;
    mu >= lambda for mu >= 2*lambda in the closed form; the nef threshold
    of (a-i) in (a-ii); 6*mu <= 5*lambda for 6*mu < 5*lambda."""
    systems, label = MUTANTS[name]
    with pytest.raises(AssertionError, match=rf"1 of {len(systems)} systems unbounded "
                                             rf"\['{re.escape(label)}'\]"):
        check(name, systems)


# --- the claims against the code that decides them --------------------------------

def test_k_status_proves_exactly_the_proven_rows_on_a_grid():
    """The conjunctions of `k_proven` are those of `k_status` on the 2,127
    valid triplets with lambda in [0, 5], mu in [-12, 12] and nu in [-2,
    22], and its only proven failures there are the six of the table, each
    for the reason listed."""
    grid = map(BundleParams._make, iproduct(range(6), range(-12, 13), range(-2, 23)))
    valid = [p for p in grid if validity(p).is_valid]
    assert len(valid) == 2127
    for p in valid:
        assert k_status(p).proven_fails == any(
            all(a * p.lam + b * p.mu + c * p.nu <= r for a, b, c, r in rows)
            for rows in k_proven(conditions._TWO_NEF[classify_case(p)])), p
    assert {p: k_status(p) for p in valid if k_status(p).proven_fails} == {
        BundleParams(*t): KStatus.proven(reason) for t, reason in SIX_FAILURES.items()}


def test_nonsingular_delta_is_positive_at_seven_pairs_of_all_z2():
    found = check("nonsingular-delta-positive", *CLAIMS["nonsingular-delta-positive"])
    deltas = {(0, 0): 4, (0, 1): 2, (1, 1): 3, (1, 2): 1, (2, 2): 2, (3, 3): 1, (6, 5): 1}
    assert {p: nonsingular_delta(*p) for p in found} == {
        p: (deltas[p], case) for p, case in found.items()}


def test_x_meets_each_section_curve_as_a_positive_multiple_of_its_residual():
    """X.C_s, the product of X with the three fibre divisors other than
    D_s, is r_s, r_s, r_s/2 and 0 for s = x, y, z and w.  Both sides are
    affine in (lambda, mu, nu): modulo F^2 = 0 a product is linear in the
    F-coefficients of its factors, which are linear in the triplet.  So
    the `AFFINE_BASIS` proves it as linear forms."""
    for p in map(BundleParams._make, AFFINE_BASIS):
        for s, multiple in zip("xyzw", (1, 1, Fraction(1, 2), 1)):
            curve = [torus_divisor_class(p, t) for t in "xyzw" if t != s]
            residual = sum(map(mul, RESIDUALS[s], (*p, 1)))
            assert evaluate_top(p, product([x_class(p), *curve])) == multiple * residual, (p, s)


def test_x_is_base_point_free_on_t_exactly_in_case_a():
    """The sections of "case-a-sections", with w^2, leave |X| no base
    point in case (a); in case (b) it has one, on a grid of 545 valid
    triplets."""
    free = Counter()
    for lam, mu, nu in iproduct(range(5), range(-8, 9), range(13)):
        p = BundleParams(lam, mu, nu)
        if validity(p).is_valid:
            in_case_a = classify_case(p) is not B
            assert (base_locus_strata(p, x_class(p)) == []) == in_case_a, p
            free[in_case_a] += 1
    assert free == {True: 470, False: 75}


def satisfies(rows, point):
    return all(sum(map(mul, row, point)) <= row[-1] for row in rows)


def test_the_dz_cells_and_the_closed_form_are_the_certificate_on_a_grid():
    """On 6,293 triplets with lambda in [0, 6]: each lies in one cell of
    `DZ_CELLS`, whose certificate is `is_dz_movable_on_x`, and so are the
    rows of the closed form, DZ_HOLDS, and not their negation, DZ_FAILS."""
    grid = list(iproduct(range(7), range(-15, 16), range(-14, 15)))
    for t in grid:
        [cell] = [cell for cell in DZ_CELLS.values() if satisfies(cell.rows, t)]
        holds = is_dz_movable_on_x(BundleParams(*t))
        assert cell.holds == holds, t
        assert any(satisfies(c, t) for c in DZ_HOLDS) == holds, t
        assert any(satisfies(c, t) for c in DZ_FAILS) != holds, t
    assert len(grid) == 6293


def test_the_dz_certificate_is_the_same_in_every_gauge():
    """With lambda < 0 too: a triplet, its normalization and the other
    triplet of x-degree 0, (-lambda, mu - 2*lambda, nu - 3*lambda), which
    presents the bundle with x and y swapped, get one answer; and
    presentations shifted by k, swapped or not, normalize to one triplet."""
    for t in iproduct(range(-5, 6), range(-12, 13), range(-8, 9)):
        m = GradingMatrix.from_params(p := BundleParams(*t))
        other = BundleParams(*m.swapped_xy().shifted(-p.lam).top_row[3:])
        assert (is_dz_movable_on_x(p) == is_dz_movable_on_x(normalize(m))
                == is_dz_movable_on_x(other)), p
        assert {normalize(n.shifted(k)) for n in (m, m.swapped_xy()) for k in (-3, 2)} == {
            normalize(m)}, p


# Four affinely independent triplets: an affine function of (lambda, mu,
# nu) that vanishes on them vanishes everywhere.
AFFINE_BASIS = ((1, 1, 3), (2, 3, 6), (0, -2, 0), (4, 6, 10))


def test_the_affine_basis_is_affinely_independent():
    (a, b, c), (d, e, f), (g, h, i) = [tuple(map(sub, t, AFFINE_BASIS[0]))
                                       for t in AFFINE_BASIS[1:]]
    assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) != 0


def test_n_meets_its_curve_in_zero_and_f_positively():
    """Per case, N = -K_X + nef*F is D_y in (a-i) and (b) and D_z/2 in
    (a-ii), and for its curve C = X.D_x.D_z, X.D_x.D_y in (a-ii), N.C = 0
    < F.C, 2 or 1; H.C = -2*lambda, so that in (b), C = 2*C_y with H.C_y =
    -lambda and F.C_y = 1.  Each side is affine in (lambda, mu, nu): a
    product on X is, modulo F^2 = 0, linear in the F-coefficients of its
    factors, each affine in the triplet (`chow.triple_on_x`).  So the
    `AFFINE_BASIS` proves each as an identity."""
    for p in map(BundleParams._make, AFFINE_BASIS):
        d_x, d_y, d_z = (torus_divisor_class(p, t) for t in "xyz")
        assert triple_on_x(p, H, d_x, d_z) == -2 * p.lam, p
        for case, two_nef in conditions._TWO_NEF.items():
            n = anticanonical_on_x(p) + Fraction(sum(map(mul, two_nef, (*p, 1))), 2) * F
            n_is, curve, f_c = (d_z * Fraction(1, 2), d_y, 1) if case is AII else (d_y, d_z, 2)
            assert n == n_is, (p, case)
            assert triple_on_x(p, n, d_x, curve) == 0 < f_c == triple_on_x(p, F, d_x, curve)


def test_the_nonsingular_refusals_are_those_of_the_code_on_a_grid():
    """On lambda in [0, 13] and mu in [-3, 16], `nonsingular_delta` refuses
    exactly in the regions of `NONSINGULAR_REFUSALS`, naming the first
    region that holds."""
    for lam, mu in iproduct(range(14), range(-3, 17)):
        region = next((name for name, (rows, _) in NONSINGULAR_REFUSALS.items()
                       if satisfies(rows, (lam, mu))), None)
        if region is None:
            nonsingular_delta(lam, mu)
        else:
            with pytest.raises(ValueError, match=re.escape(region)):
                nonsingular_delta(lam, mu)
