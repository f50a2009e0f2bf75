"""Reference classification table, brute-force oracle, nonsingular families."""

import importlib.util
import itertools
import operator
import random
from fractions import Fraction

import pytest

from dp1toric import classify, conditions
from dp1toric.classify import (_REGIONS, DEFAULT_BOX, ClassificationRow,
                               SearchBox, _eliminate, _interval, _points,
                               classify_k2_failures, nonsingular_delta,
                               oracle_search)
from dp1toric.conditions import (CaseLabel, KStatus, RestrictBranch, _decide,
                                 classify_case, delta, k_status, validity)
from dp1toric.grading import BundleParams, DivisorClass, monomial_basis

Q = Fraction

TABLE = [
    ((0, -2, 0), Q(1), CaseLabel.AI, False),
    ((0, -1, 0), Q(5, 2), CaseLabel.AI, True),
    ((0, -1, 1), Q(1, 2), CaseLabel.AI, False),
    ((0, 0, 1), Q(2), CaseLabel.AI, True),
    ((1, 1, 3), Q(3, 2), CaseLabel.AI, True),
    ((1, 2, 4), Q(1), CaseLabel.AI, False),
    ((2, 3, 6), Q(1, 2), CaseLabel.AI, False),
    ((0, 1, 2), Q(2), CaseLabel.AII, True),
    ((1, 3, 5), Q(1), CaseLabel.AII, False),
    ((1, -2, 1), Q(1), CaseLabel.B, False),
    ((2, 2, 5), Q(1), CaseLabel.B, False),
    ((2, 3, 5), Q(5, 2), CaseLabel.B, True),
    ((4, 6, 10), Q(1), CaseLabel.B, False),
]


def as_tuples(rows):
    return [((r.params.lam, r.params.mu, r.params.nu), r.delta, r.case,
             r.k_fails) for r in rows]


def test_reference_table_values_and_order():
    assert as_tuples(classify_k2_failures()) == TABLE


def test_reference_table_row_examples():
    rows = classify_k2_failures()
    assert len(rows) == 13
    by_triplet = {(r.params.lam, r.params.mu, r.params.nu): r for r in rows}
    r = by_triplet[(0, -1, 1)]
    assert r.delta == Q(1, 2) and r.case is CaseLabel.AI and not r.k_fails
    r = by_triplet[(0, -1, 0)]
    assert r.delta == Q(5, 2) and r.case is CaseLabel.AI and r.k_fails


def test_k_fails_exactly_on_rows_with_delta_above_one():
    for rows in (classify_k2_failures(), oracle_search(DEFAULT_BOX)):
        for r in rows:
            assert 0 < r.delta <= Q(5, 2)
            assert (r.delta > 1) == r.k_fails


def classify_again():
    """Execute classify's source again, as dp1toric._classify_again: its
    relative imports resolve to the loaded package, patches included, and
    nothing is added to sys.modules."""
    spec = importlib.util.spec_from_file_location("dp1toric._classify_again",
                                                  classify.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_builds_the_reference_rows_again():
    assert classify_again()._REFERENCE_ROWS == classify._REFERENCE_ROWS


def test_import_raises_unless_rows_above_one_have_a_proven_k_failure(monkeypatch):
    monkeypatch.setattr(conditions, "_k_status", lambda p, nef: KStatus.not_proven())
    with pytest.raises(ValueError, match="delta > 1"):
        classify_again()


def test_import_names_a_reference_triplet_the_search_misses(monkeypatch):
    def decide(lam, mu, nu):  # (1, 2, 4) fails the validity conditions
        flags, *rest = _decide(lam, mu, nu)
        return (1 if (lam, mu, nu) == (1, 2, 4) else flags, *rest)

    monkeypatch.setattr(conditions, "_decide", decide)
    with pytest.raises(KeyError, match=r"\(1, 2, 4\)"):
        classify_again()


def test_each_reference_row_is_the_oracle_row_of_its_triplet():
    found = {r.params: r for r in oracle_search(DEFAULT_BOX)}
    rows = classify_k2_failures()
    assert len(rows) == 13 and all(r is found[r.params] for r in rows)


def test_every_row_valid_with_matching_branch():
    for r in oracle_search(DEFAULT_BOX):
        v = validity(r.params)
        assert v.is_valid
        assert (r.case is CaseLabel.B) == (v.restrictb_branch is not None)


def test_oracle_single_triplet_box():
    rows = oracle_search(SearchBox((0, 0), (-2, -2), (0, 0)))
    assert as_tuples(rows) == [((0, -2, 0), Q(1), CaseLabel.AI, False)]


def test_oracle_high_lambda_box_is_empty():
    assert oracle_search(SearchBox((5, 10), (-30, 30), (0, 30))) == []


def test_oracle_box_stability():
    # Inflating the default box by 10 in every direction adds no rows.
    assert oracle_search(DEFAULT_BOX) == oracle_search(DEFAULT_BOX.inflated(10))
    # Inflation keeps lambda and nu at 0 or above.
    assert SearchBox((2, 3), (0, 0), (1, 1)).inflated(5) == SearchBox((0, 8), (-5, 5), (0, 6))


def test_oracle_matches_reference_table():
    """The exhaustive search and the reference table are meant to coincide.

    They do not: the search finds the additional triplet (1, 0, 2), which
    satisfies every validity condition (case (b), branch II: 5*1 > 2*2 =
    4*1 + 0) with delta = 2 > 0, while the reference classification
    excludes it on the grounds that nu <= 3*lambda - 1 fails -- yet
    2 <= 3*1 - 1 holds.  This test records the discrepancy; see README and
    the acceptance suite.
    """
    oracle_rows = {(r.params.lam, r.params.mu, r.params.nu): r
                   for r in oracle_search(DEFAULT_BOX)}
    table_rows = {(r.params.lam, r.params.mu, r.params.nu): r
                  for r in classify_k2_failures()}
    extra = sorted(set(oracle_rows) - set(table_rows))
    missing = sorted(set(table_rows) - set(oracle_rows))
    assert not missing, f"table rows not found by the search: {missing}"
    assert not extra, (
        f"exhaustive search finds rows absent from the reference table: "
        f"{extra} -- (1,0,2) passes validity (branch II) with delta = 2")


def brute_force_search(box):
    rows = []
    for lam in range(box.lambda_range[0], box.lambda_range[1] + 1):
        for mu in range(box.mu_range[0], box.mu_range[1] + 1):
            for nu in range(box.nu_range[0], box.nu_range[1] + 1):
                p = BundleParams(lam, mu, nu)
                if lam >= 0 and validity(p).is_valid and delta(p) > 0:
                    rows.append(ClassificationRow(p, delta(p), classify_case(p),
                                                  k_status(p).proven_fails))
    return rows


def random_box(seed):
    """A small box near the delta > 0 set, often with negative lower bounds."""
    rng = random.Random(seed)
    llo, mlo, nlo = rng.randint(-4, 4), rng.randint(-12, 6), rng.randint(-6, 8)
    return SearchBox((llo, llo + rng.randint(0, 6)), (mlo, mlo + rng.randint(0, 20)),
                     (nlo, nlo + rng.randint(0, 12)))


@pytest.mark.parametrize("box", [SearchBox((-3, 5), (-7, 9), (-4, 12)),
                                 DEFAULT_BOX.inflated(10),
                                 SearchBox((0, 12), (-60, 60), (0, 60)),
                                 *(random_box(seed) for seed in range(20))])
def test_oracle_equals_brute_force_over_public_predicates(box):
    assert oracle_search(box) == brute_force_search(box)


def test_regions_are_the_decision_on_a_grid():
    """Each region's rows hold exactly on the normalized triplets that
    `_decide` finds valid with 2*delta > 0, in the region's case and branch."""
    for lam, mu, nu in itertools.product(range(-20, 21), repeat=3):
        flags, case, branch, two_delta = _decide(lam, mu, nu)
        hit = lam >= 0 and not flags and two_delta > 0
        for region_case, region_branch, rows in _REGIONS:
            inside = all(a * lam + b * mu + c * nu <= r for a, b, c, r in rows)
            expected = hit and (case, branch) == (region_case, region_branch)
            assert inside == expected, (lam, mu, nu, region_case, region_branch)


def test_oracle_on_a_huge_box_finds_the_default_box_rows():
    huge = SearchBox((0, 10**9), (-10**9, 10**9), (0, 10**9))
    rows = oracle_search(huge)
    assert len(rows) == 14
    assert rows == oracle_search(DEFAULT_BOX)
    # The 14 rows are all of Z^3 with delta > 0, not only those in the box:
    # the claim "regions" of tests/test_proofs.py lists them.


def test_interval_raises_on_a_one_sided_bound():
    # Rows (a, c, r) stand for a*u + c*v <= r, here at u = 2.
    with pytest.raises(ValueError):
        _interval(((1, 1, 7),), (2,))  # v <= 5: no lower bound
    with pytest.raises(ValueError):
        _interval(((0, -1, 5), (1, 0, 3)), (2,))  # v >= -5: no upper bound
    assert _interval(((1, 1, 7), (0, -1, 5)), (2,)) == range(-5, 6)


def test_interval_is_empty_when_a_row_without_the_variable_fails():
    # 1*2 + 0*v <= 1 fails whatever v is, so no bound on v is needed.
    assert _interval(((1, 0, 1),), (2,)) == range(0)
    assert _interval(((0, -1), (1, 3)), ()) == range(0)


def test_eliminate_keeps_every_derived_row():
    """One row per row without the last variable and one per (up, down)
    pair, at both levels of every region: no duplicate is dropped."""
    for *_, rows in _REGIONS:
        for system in (rows, _eliminate(rows)):
            signs = [(row[-2] > 0) - (row[-2] < 0) for row in system]
            assert len(_eliminate(system)) == (
                signs.count(0) + signs.count(1) * signs.count(-1))


def random_rows(rng, n):
    """2 to 6 random rows a*x <= r in n variables."""
    return tuple((*(rng.randint(-4, 4) for _ in range(n)), rng.randint(-6, 12))
                 for _ in range(rng.randint(2, 6)))


def box_rows(n):
    """|v| <= 5 for each of n variables: v <= 5, then -v <= 5."""
    return tuple((*(sign * (i == j) for j in range(n)), 5)
                 for i in range(n) for sign in (1, -1))


def test_eliminate_loses_no_integer_point():
    """Every integer point of a system satisfies both eliminated systems
    on its prefix, on random systems in 3 variables."""
    rng = random.Random(7)
    points = list(itertools.product(range(-5, 6), repeat=3))

    def holds(rows, point):
        return all(sum(map(operator.mul, row, point)) <= row[-1] for row in rows)

    for _ in range(60):
        rows = random_rows(rng, 3)
        mu_rows = _eliminate(rows)
        lambda_rows = _eliminate(mu_rows)
        for point in points:
            if holds(rows, point):
                assert holds(mu_rows, point[:2]), (rows, point)
                assert holds(lambda_rows, point[:1]), (rows, point)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_points_equals_the_brute_force_list(n):
    """On random systems inside the box |v| <= 5, `_points` lists exactly
    the integer points, in lexicographic order."""
    rng = random.Random(n)
    box = list(itertools.product(range(-5, 6), repeat=n))
    for _ in range(60):
        rows = random_rows(rng, n) + box_rows(n)
        assert _points(rows) == [point for point in box if all(
            sum(map(operator.mul, row, point)) <= row[-1] for row in rows)], rows


def test_points_raises_on_a_variable_bounded_on_one_side():
    # The box in 3 variables less one of its rows leaves the first, middle
    # or last variable bounded on one side; x + y <= 5 leaves no row once y
    # is eliminated.
    box = box_rows(3)
    for i in range(len(box)):
        with pytest.raises(ValueError):
            _points(box[:i] + box[i + 1:])
    with pytest.raises(ValueError):
        _points(((1, 1, 5),))
    assert len(_points(box)) == 11**3


def test_lambda_ranges_of_the_regions():
    # As the DEFAULT_BOX comment and the README state.
    assert [_interval(_eliminate(_eliminate(rows)), ()) for *_, rows in _REGIONS] == [
        range(0, 4), range(0, 2), range(1, 4), range(1, 3), range(2, 6)]


@pytest.mark.parametrize("box", [
    DEFAULT_BOX, DEFAULT_BOX.inflated(10),
    SearchBox((0, 10**9), (-10**9, 10**9), (0, 10**9)),
    SearchBox((-5, -1), (-30, 30), (0, 30))])
def test_oracle_search_decides_nothing_per_call(box, monkeypatch):
    expected = oracle_search(box)

    def refuse(*args):
        raise AssertionError("oracle_search decided a triplet")

    monkeypatch.setattr(classify, "report", refuse)
    for name in ("_decide", "_k_status", "_nef"):
        monkeypatch.setattr(conditions, name, refuse)
    assert oracle_search(box) == expected
    assert (expected == []) == (box.lambda_range[1] < 0)


def test_search_box_rejects_empty_intervals():
    with pytest.raises(ValueError):
        SearchBox((3, 1), (0, 0), (0, 0))


def test_nonsingular_delta_reference_values():
    d, case = nonsingular_delta(1, 1)
    assert d == 3 and case is CaseLabel.AI
    d, case = nonsingular_delta(0, 1)
    assert d == 2 and case is CaseLabel.AII
    d, case = nonsingular_delta(2, 2)
    assert d == 2 and case is CaseLabel.AI


def test_nonsingular_delta_rejects_negative_lambda():
    with pytest.raises(ValueError):
        nonsingular_delta(-1, 1)


def test_nonsingular_delta_rejects_negative_mu():
    # Every member of |6H + 6*mu*F| is singular along y = z = w = 0.
    for lam, mu in ((0, -1), (2, -1), (0, -5)):
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            nonsingular_delta(lam, mu)
    assert nonsingular_delta(0, 0) == (Fraction(4), CaseLabel.AI)  # mu = 0 stays


def test_nonsingular_delta_rejects_six_mu_below_five_lambda():
    # Every member of |6H + 6*mu*F| lies in (x, z, w)^2: y^5 x would leave
    # the F-degree 6*mu - 5*lambda < 0 to u and v.
    for lam, mu in ((1, 0), (5, 4), (2, 1)):
        with pytest.raises(ValueError, match="5\\*lambda"):
            nonsingular_delta(lam, mu)
    assert nonsingular_delta(6, 5) == (Fraction(1), CaseLabel.AI)


def test_nonsingular_delta_rejects_six_mu_between_five_and_six_lambda():
    # Modulo (x, z, w)^2 every member is y^5 x b(u, v) with deg b > 0, so it
    # is singular where b = 0 on x = z = w = 0.
    for lam, mu in ((7, 6), (8, 7), (12, 11)):
        with pytest.raises(ValueError, match="6\\*mu < 6\\*lambda"):
            nonsingular_delta(lam, mu)
    assert nonsingular_delta(6, 5) == (Fraction(1), CaseLabel.AI)
    assert nonsingular_delta(12, 10) == (Fraction(-2), CaseLabel.AI)
    assert nonsingular_delta(1, 1) == (Fraction(3), CaseLabel.AI)


def general_member_is_nonsingular_along(lam: int, mu: int, t: int) -> bool:
    """Whether a general member of |6H + 6*mu*F| on P(lambda, 2*mu, 3*mu)
    is nonsingular along the curve where fiber coordinate t (2 for x, 3
    for y) is the only one not 0, by its monomials: t^6 is one (the curve
    is not in the base locus), or the terms linear in the other three
    have coefficients in u, v with no common zero: one of degree 0, or two."""
    linear = set()
    for e in monomial_basis(BundleParams(lam, 2 * mu, 3 * mu), DivisorClass(6, 6 * mu)):
        fiber = e[2:]
        others = sum(fiber) - fiber[t - 2]
        if others == 0:
            return True
        if others == 1:
            if e.a + e.b == 0:
                return True
            linear.add(fiber)
    return len(linear) >= 2


def test_nonsingular_delta_answers_exactly_where_the_monomials_allow():
    # The base locus lies in the curves x = z = w = 0 and y = z = w = 0, as
    # z^3 and w^2 have constant coefficients (see `nonsingular_delta`).
    answered = set()
    for lam, mu in itertools.product(range(9), range(-2, 10)):
        expected = all(general_member_is_nonsingular_along(lam, mu, t) for t in (2, 3))
        try:
            nonsingular_delta(lam, mu)
        except ValueError:
            assert not expected, (lam, mu)
        else:
            assert expected, (lam, mu)
            answered.add((lam, mu))
    assert {(0, 0), (1, 1), (6, 5), (2, 5)} <= answered and (7, 6) not in answered
