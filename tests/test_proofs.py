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

from collections import Counter
from fractions import Fraction
from itertools import combinations, product as iproduct
from operator import mul, sub

import pytest

from dp1toric import classify, conditions
from dp1toric.chow import evaluate_top, product, x_class
from dp1toric.classify import _points, nonsingular_delta
from dp1toric.conditions import (CaseLabel, KFailureReason, KStatus,
                                 classify_case, k_status, validity)
from dp1toric.grading import BundleParams, base_locus_strata, torus_divisor_class

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
# The residual F-degree r_s of the pure power of s in |X| = |6H + 2*nu*F|:
# x^6, y^6, z^3 and w^2 leave 2*nu, 2*nu - 6*lambda, 2*nu - 3*mu and 0 to u
# and v.
RESIDUALS = {"x": (0, 0, 2, 0), "y": (-6, 0, 2, 0), "z": (0, -3, 2, 0), "w": ZERO}


def at_most(form, bound):
    """The row of form <= bound."""
    a, b, c, r = form
    return a, b, c, bound - r


def at_least(form, bound):
    """The row of form >= bound."""
    a, b, c, r = form
    return -a, -b, -c, r - bound


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
        "nonsingular-delta-positive": 3, "regions": 5}


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
    four affinely independent triplets prove it as linear forms."""
    triplets = [(1, 1, 3), (2, 3, 6), (0, -2, 0), (4, 6, 10)]
    (a, b, c), (d, e, f), (g, h, i) = [tuple(map(sub, t, triplets[0])) for t in triplets[1:]]
    assert a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) != 0
    for p in map(BundleParams._make, triplets):
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
