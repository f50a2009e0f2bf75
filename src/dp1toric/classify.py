"""Classification of the fibrations failing the K^2-condition.

Two independent routes are provided.  `classify_k2_failures` returns the
reference classification table (13 families, in table order) with the
invariants of each row recomputed from the formulas.  `oracle_search`
exhaustively scans a parameter box using nothing but the validity check
and delta > 0, so the two can be diffed against each other.

Note: on the default box the exhaustive search finds one triplet more than
the reference table, (1, 0, 2); see the README for details.

`nonsingular_delta` evaluates delta for the nonsingular families, which
live on the bundles P(lambda, 2*mu, 3*mu) where wr(z) = wr(w) and the case
trichotomy needs a tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conditions import (CaseLabel, _decide, _two_delta, classify_case, delta,
                         k_status, validity)
from .grading import BundleParams


@dataclass(frozen=True)
class ClassificationRow:
    params: BundleParams
    delta: Fraction
    case: CaseLabel
    k_fails: bool


@dataclass(frozen=True)
class SearchBox:
    """Inclusive integer intervals for (lambda, mu, nu)."""

    lambda_range: tuple[int, int]
    mu_range: tuple[int, int]
    nu_range: tuple[int, int]

    def __post_init__(self):
        for name, (lo, hi) in (("lambda", self.lambda_range),
                               ("mu", self.mu_range), ("nu", self.nu_range)):
            if lo > hi:
                raise ValueError(f"empty {name} interval [{lo}, {hi}]")

    def inflated(self, amount: int) -> "SearchBox":
        def widen(rng, lo_floor=None):
            lo, hi = rng[0] - amount, rng[1] + amount
            if lo_floor is not None:
                lo = max(lo, lo_floor)
            return lo, hi
        return SearchBox(widen(self.lambda_range, 0), widen(self.mu_range),
                         widen(self.nu_range, 0))


# The search bounds derived in the case analyses are lambda <= 3 (a-i),
# mu <= 3 (a-ii) and lambda <= 6 (b); this box strictly contains them all.
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


def _row(p: BundleParams) -> ClassificationRow:
    return ClassificationRow(p, delta(p), classify_case(p),
                             k_status(p).proven_fails)


def _reference_rows() -> tuple[ClassificationRow, ...]:
    rows = []
    for lam, mu, nu in K2_FAILURE_TRIPLETS:
        p = BundleParams(lam, mu, nu)
        row = _row(p)
        assert validity(p).is_valid and row.delta > 0
        rows.append(row)
    return tuple(rows)


# The rows are constants, computed once at import rather than by the first
# call, so that every call of classify_k2_failures does the same work.
_REFERENCE_ROWS = _reference_rows()


def classify_k2_failures() -> list[ClassificationRow]:
    """The reference classification of families with delta > 0 (13 rows)."""
    return list(_REFERENCE_ROWS)


def oracle_search(box: SearchBox) -> list[ClassificationRow]:
    """Every normalized triplet in the box passing validity with delta > 0.

    Uses only the validity predicate and delta, both decided once per
    triplet in integers; none of the bound derivations behind the
    reference table enter.  Results are in lexicographic order on
    (lambda, mu, nu).
    """
    rows = []
    mus = range(box.mu_range[0], box.mu_range[1] + 1)
    nus = range(box.nu_range[0], box.nu_range[1] + 1)
    for lam in range(max(box.lambda_range[0], 0), box.lambda_range[1] + 1):
        for mu in mus:
            for nu in nus:
                flags, _, _, two_delta = _decide(lam, mu, nu)
                if not flags and two_delta > 0:
                    rows.append(_row(BundleParams(lam, mu, nu)))
    return rows


def nonsingular_delta(lam: int, mu: int) -> tuple[Fraction, CaseLabel]:
    """delta and case for the nonsingular family on P(lambda, 2*mu, 3*mu).

    These bundles sit on the boundary wr(z) = wr(w) = mu of the case
    trichotomy; the extended rule used here is (a-i) when wr(z) <= wr(y)
    and (a-ii) when wr(y) < wr(z), with the corresponding nef-threshold
    formulas.  No exhaustiveness over nonsingular families is claimed.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    p = BundleParams(lam, 2 * mu, 3 * mu)
    case = CaseLabel.AI if mu <= lam else CaseLabel.AII
    return Fraction(_two_delta(p.lam, p.mu, p.nu, case), 2), case
