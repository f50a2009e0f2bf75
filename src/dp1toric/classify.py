"""Classification of the fibrations failing the K^2-condition.

Two routes give two lists of triplets, with one row per triplet.
`classify_k2_failures` lists the reference classification table (13
families, in table order, `K2_FAILURE_TRIPLETS`).  `oracle_search` lists
the triplets of a parameter box that pass validity with delta > 0, found
with nothing but the comparisons of that one decision, so the two lists
can be diffed: the oracle finds one triplet more, (1, 0, 2) (see the
README).

The oracle splits the set it looks for into five regions, one per entry
of the table that decides, `conditions._CASE_ROWS`: (a-i), (a-ii), (b) I,
(b) II and (b) III.  Each region is a system of integer rows a*lambda +
b*mu + c*nu <= r: lambda >= 0, the table's validity and case rows, and
2*delta >= 1 read off the case's form in `conditions._TWO_DELTA`.  As at
most one entry holds at a valid triplet with lambda >= 0, the regions are
the first-match decision of `conditions._decide`.  At import, `_points`
enumerates the lattice points of each region over all of Z^3, with no
box, by integer Fourier-Motzkin elimination, and raises ValueError if a
region leaves a variable unbounded.  `conditions.report` reports on each
point; the reports with a case and delta > 0 are the oracle rows, the
only rows built.
`oracle_search` filters them by the box, so it costs the same whatever the
box, and the reference rows are the oracle rows of the reference triplets.

Every import checks, and raises unless:
- no region leaves a variable unbounded, so the set with delta > 0 is
  finite over Z^3 (14 triplets);
- each oracle row with delta > 1 has a proven K-failure, so the verdict
  of `conditions.report` is total;
- the search finds every reference triplet (KeyError, naming it).

`nonsingular_delta` evaluates delta for the nonsingular families, which
live on the bundles P(lambda, 2*mu, 3*mu) where wr(z) = wr(w) and the case
trichotomy needs a tie-break.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple

from .chow import _form_at
from .conditions import _CASE_ROWS, _TWO_DELTA, _VALID_ROWS, CaseLabel, report
from .grading import BundleParams, _over


class ClassificationRow(NamedTuple):
    params: BundleParams
    delta: Fraction
    case: CaseLabel
    k_fails: bool


class SearchBox(NamedTuple("SearchBox", [("lambda_range", tuple[int, int]),
                                          ("mu_range", tuple[int, int]),
                                          ("nu_range", tuple[int, int])])):
    """Inclusive integer intervals for (lambda, mu, nu)."""

    __slots__ = ()

    def __new__(cls, lambda_range: tuple[int, int], mu_range: tuple[int, int],
                nu_range: tuple[int, int]):
        for name, (lo, hi) in (("lambda", lambda_range), ("mu", mu_range),
                               ("nu", nu_range)):
            if lo > hi:
                raise ValueError(f"empty {name} interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lambda_range, mu_range, nu_range))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def inflated(self, amount: int) -> "SearchBox":
        (lam_lo, lam_hi), (mu_lo, mu_hi), (nu_lo, nu_hi) = self
        return SearchBox((max(lam_lo - amount, 0), lam_hi + amount),
                         (mu_lo - amount, mu_hi + amount),
                         (max(nu_lo - amount, 0), nu_hi + amount))


# The lambda ranges of the regions, derived by the elimination below, are
# [0,3] (a-i), [0,1] (a-ii), [1,3] (b-I), [1,2] (b-II) and [2,5] (b-III);
# this box contains the lattice points of every region.
DEFAULT_BOX = SearchBox((0, 10), (-30, 30), (0, 30))

# Reference table, in table order: the seven (a-i) rows, two (a-ii) rows,
# four (b) rows.  delta, case and k_fails are recomputed, not transcribed.
K2_FAILURE_TRIPLETS = (
    (0, -2, 0),
    (0, -1, 0),
    (0, -1, 1),
    (0, 0, 1),
    (1, 1, 3),
    (1, 2, 4),
    (2, 3, 6),
    (0, 1, 2),
    (1, 3, 5),
    (1, -2, 1),
    (2, 2, 5),
    (2, 3, 5),
    (4, 6, 10),
)


def _rows(triplets) -> tuple[ClassificationRow, ...]:
    """The rows of the triplets whose `report` has a case and delta > 0, in
    the order given: each row is read off its report."""
    reports = (report(BundleParams(*t)) for t in triplets)
    return tuple(ClassificationRow(r.params, r.delta, r.case,
                                   r.k_status.proven_fails)
                 for r in reports if r.case and r.delta > 0)


def _eliminate(rows: tuple) -> tuple:
    """Fourier-Motzkin: integer rows on all variables but the last.

    Rows not involving the last variable are kept, then each row bounding
    it from above is added to each row bounding it from below, with
    positive weights that cancel it (Schrijver, Theory of Linear and
    Integer Programming, 1986, §12.2), one row per (up, down) pair in loop
    order.  The sum is divided by the gcd of its coefficients and its
    right-hand side floored, which loses no integer point.  Every row is
    kept: a looser duplicate cannot change an integer interval.  For every
    integer point of the result, the rows leave an interval, maybe empty,
    for the last variable.
    """
    out = [row[:-2] + row[-1:] for row in rows if row[-2] == 0]
    for up in rows:
        if up[-2] > 0:
            for down in rows:
                if down[-2] < 0:
                    total = [-down[-2] * u + up[-2] * d for u, d in zip(up, down)]
                    del total[-2]
                    g = gcd(*total[:-1]) or 1
                    out.append(tuple(v // g for v in total))
    return tuple(out)


# (case, branch, rows on (lambda, mu, nu)) per case and branch of
# `conditions._decide`: the rows hold on the triplets with delta > 0 there.
_REGIONS = tuple((case, branch, ((-1, 0, 0, 0), *(row for row, _ in _VALID_ROWS),
                                 *rows, (-a, -b, -c, r - 1)))
                 for case, branch, rows in _CASE_ROWS for a, b, c, r in [_TWO_DELTA[case]])


def _interval(rows: tuple, prefix: tuple) -> range:
    """The values v for which (*prefix, v) satisfies rows.

    Raises ValueError when the rows bound v from one side only, unless a
    row without v already fails.
    """
    lows, highs = [], []
    for row in rows:
        c, r = row[-2:]
        rest = r - sum(map(mul, row, prefix))
        if c > 0:
            highs.append(rest // c)
        elif c < 0:
            lows.append(-(rest // -c))
        elif rest < 0:
            return range(0)
    if not lows or not highs:
        raise ValueError(f"rows {rows} leave the variable after {prefix} unbounded")
    return range(max(lows), min(highs) + 1)


def _points(rows: tuple) -> list[tuple]:
    """Every integer point of rows (a_1, ..., a_n, r), meaning a*x <= r, in
    lexicographic order: each point of the rows `_eliminate` derives,
    extended by its `_interval`.  Raises ValueError when the rows leave a
    variable unbounded.
    """
    if all(len(row) == 2 for row in rows):  # one variable, or no row left
        return [(v,) for v in _interval(rows, ())]
    return [(*q, v) for q in _points(_eliminate(rows)) for v in _interval(rows, q)]


# Every lattice point of every region, reported on by `_rows`.  Enumerated
# from the rows alone, with no box, so importing the module checks that the
# set with delta > 0 is finite over all of Z^3.
_ORACLE_ROWS = _rows(sorted(t for *_, rows in _REGIONS for t in _points(rows)))
if any(r.delta > 1 and not r.k_fails for r in _ORACLE_ROWS):
    raise ValueError("an oracle row with delta > 1 has no proven K-failure")
# The reference rows are oracle rows, looked up by triplet: a reference
# triplet that the search does not find raises KeyError, naming it.
_REFERENCE_ROWS = tuple({r.params: r for r in _ORACLE_ROWS}[t]
                        for t in K2_FAILURE_TRIPLETS)
# (lambda, mu, nu, row) per oracle row, in plain tuples: unpacking each row's
# BundleParams would cost the box filter as much as all its comparisons.
_ORACLE_INDEX = tuple((*r.params, r) for r in _ORACLE_ROWS)


def classify_k2_failures() -> list[ClassificationRow]:
    """The reference classification of families with delta > 0 (13 rows)."""
    return list(_REFERENCE_ROWS)


def oracle_search(box: SearchBox) -> list[ClassificationRow]:
    """Every normalized triplet in the box passing validity with delta > 0.

    Filters the rows of every lattice point of the regions, built at import:
    each was read off the `report` of its triplet, and none of the bound
    derivations behind the reference table enter.  The cost does not depend
    on the size of the box.  Results are in lexicographic order on
    (lambda, mu, nu).
    """
    (llo, lhi), (mlo, mhi), (nlo, nhi) = box
    return [r for lam, mu, nu, r in _ORACLE_INDEX
            if llo <= lam <= lhi and mlo <= mu <= mhi and nlo <= nu <= nhi]


def nonsingular_delta(lam: int, mu: int) -> tuple[Fraction, CaseLabel]:
    """delta and case for the nonsingular family on P(lambda, 2*mu, 3*mu).

    These bundles sit on the boundary wr(z) = wr(w) = mu of the case
    trichotomy; the extended rule used here is (a-i) when wr(z) <= wr(y)
    and (a-ii) when wr(y) < wr(z), with the corresponding nef-threshold
    formulas.

    The family is |6H + 6*mu*F|, and it has a nonsingular member exactly
    when mu >= lambda or 6*mu = 5*lambda; every other pair is refused.  As
    z^3 and w^2 have constant coefficients, a general member can be
    singular only on the curves y = z = w = 0 and C_y = {x = z = w = 0}
    (Bertini), where x^6 (mu >= 0) and y^6 (mu >= lambda) or y^5*x (6*mu =
    5*lambda) keep it nonsingular.  In each refused region every monomial
    of degree at most 1 in the coordinates vanishing on one of those curves
    is missing, but y^5*x*b(u, v) with deg b > 0, singular where b = 0: the
    claim `nonsingular-refusals` of tests/test_proofs.py.  Its pairs with
    delta > 0 are the seven of the claim `nonsingular-delta-positive`.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if mu < 0:
        raise ValueError("mu must be nonnegative: for mu < 0 no member of "
                         "the family is nonsingular")
    if 6 * mu < 5 * lam:
        raise ValueError("6*mu < 5*lambda: no member of the family is nonsingular")
    if mu < lam and 6 * mu != 5 * lam:
        raise ValueError("5*lambda < 6*mu < 6*lambda: no member of the family is nonsingular")
    case = CaseLabel.AI if mu <= lam else CaseLabel.AII
    return _over(_form_at(_TWO_DELTA[case], lam, 2 * mu, 3 * mu), 2), case
