"""Validity, nef thresholds, delta, and the K / K^2 / K^3 condition verdicts.

For a normalized triplet (lambda, mu, nu) the weight ratios

    wr(x) = 0,  wr(y) = lambda,  wr(z) = mu/2,  wr(w) = nu/3

order the fiber coordinates and select one of three nef-cone cases:

    a-i :  max(wr(x), wr(z)) <= wr(y) <= wr(w)      nef = -mu + nu - 2
    a-ii:  wr(x) <= wr(y) < wr(z) < wr(w)           nef = -lambda - mu/2 + nu - 2
    b   :  wr(w) < wr(y)                            nef = -mu + nu - 2

The key invariant is delta = (-K_X)^3 + nef(X/P^1).  The K^2-condition is
delta <= 0 and the K^3_d condition is delta <= d.  The K-condition (-K_X
not interior to the movable cone) is decided as a tri-state: it is proven
to fail when -K_X is ample (negative nef threshold) or when D_z restricts
to a movable class with -K_X interior to the cone it spans with the fiber
class; otherwise no claim is made.

Every decision is made once per triplet, in integers, by `_decide`, from
one table.  Scaling the weight ratios by 6 gives the integers (0,
6*lambda, 3*mu, 2*nu), so validity, the case and the branch of case (b)
are the integer rows of `_VALID_ROWS` and `_CASE_ROWS`.

Every number of a report is an integer linear form in (lambda, mu, nu):
2*(-K_X)^3 is `chow.TWO_MINUS_K_CUBED`, twice the nef threshold of each
case is `_TWO_NEF`, and 2*delta is their sum `_TWO_DELTA`.  The verdicts
compare these ints (nef < 0, delta <= 0, delta <= d0 as
d0.denominator * 2*delta <= 2 * d0.numerator), and each value returned is
one `Fraction` of its form over 2, `grading._over(form, 2)`: the shared
`Fraction` of that value, as are the weight ratios and the default
thresholds.  `classify` bounds the oracle's regions by the same rows and
forms.

A report builds only what varies per triplet.  Each part with few values
is built once at import and shared: the three K-statuses, the 20
validity records of the 32 decisions (8 sets of flags by 4 branches;
equal records are one object) and the K^3_d results of
`DEFAULT_THRESHOLDS`, one dict per stretch of 2*delta between their cuts.
A report with those thresholds gets a fresh copy of its stretch's dict,
which keeps the keys' hashes; other thresholds are compared one by one.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from fractions import Fraction
from operator import add, attrgetter
from types import MappingProxyType
from typing import NamedTuple

from .chow import TWO_MINUS_K_CUBED, _form_at
from .grading import BundleParams, _over, _shown, is_dz_movable_on_x, rational

DEFAULT_THRESHOLDS = (_over(0, 1), _over(1, 1), _over(3, 2))


class InvalidParams(ValueError):
    """Operation requires parameters passing the validity conditions."""


class _Label(enum.Enum):
    # Each member is a singleton equal only to itself, so it hashes by
    # identity: the tables keyed on members (`_TWO_DELTA`, `_VALIDITY`,
    # `_PROVEN`) are then looked up in C, not through Enum's Python-level
    # hash of the member's name.
    __hash__ = object.__hash__


class CaseLabel(_Label):
    AI = "AI"
    AII = "AII"
    B = "B"


class RestrictBranch(_Label):
    I = "I"
    II = "II"
    III = "III"


class KFailureReason(_Label):
    AMPLE_ANTICANONICAL = "AmpleAntiCanonical"
    DZ_MOVABLE_INTERIOR = "DzMovableInterior"


class Verdict(_Label):
    SUPERRIGID = "Superrigid"
    SUPERRIGID_IF_K_CONDITION = "SuperrigidIfKCondition"
    NOT_RIGID_OVER_BASE = "NotRigidOverBase"


class WeightRatios(NamedTuple):
    wr_x: Fraction
    wr_y: Fraction
    wr_z: Fraction
    wr_w: Fraction

    @classmethod
    def from_params(cls, p: BundleParams) -> "WeightRatios":
        # Every field is a Fraction already: no constructor needs to run.
        return tuple.__new__(cls, (_over(0, 1), _over(p.lam, 1), _over(p.mu, 2),
                                   _over(p.nu, 3)))


class ValidityReport(NamedTuple):
    nu_nonneg: bool
    three_mu_lt_two_nu: bool
    restrictb_branch: RestrictBranch | None
    is_valid: bool

    def failure_reasons(self) -> list[str]:
        reasons = []
        if not self.nu_nonneg:
            reasons.append("nu >= 0 violated")
        if not self.three_mu_lt_two_nu:
            reasons.append("3*mu <= 2*nu - 1 violated")
        if self.nu_nonneg and self.three_mu_lt_two_nu and not self.is_valid:
            reasons.append("case (b) but no branch of 2*nu vs 5*lambda, 4*lambda+mu matches")
        return reasons

    @classmethod
    def shared(cls) -> tuple["ValidityReport", ...]:
        """The records `validity` and `report` hand out, each built once at
        import; no two are equal."""
        return tuple(_SHARED_VALIDITY)


class KStatus(NamedTuple("KStatus", [("proven_fails", bool),
                                      ("reason", KFailureReason | None)])):
    """Proven failure of the K-condition, with its reason, or no claim.

    A reason is given exactly when the failure is proven.
    """

    __slots__ = ()

    def __new__(cls, proven_fails: bool, reason: KFailureReason | None = None):
        if proven_fails != (reason is not None):
            raise ValueError(f"K-status with proven_fails={proven_fails} "
                             f"and reason={reason}")
        return tuple.__new__(cls, (proven_fails, reason))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    @classmethod
    def proven(cls, reason: KFailureReason) -> "KStatus":
        return _PROVEN[reason]

    @classmethod
    def not_proven(cls) -> "KStatus":
        return _NOT_PROVEN

    def __str__(self) -> str:
        if self.proven_fails:
            return f"ProvenFails({self.reason.value})"
        return "NotProvenToFail"


# The three K-statuses, built once: `_k_status` hands them out per triplet.
_NOT_PROVEN = KStatus(False)
_PROVEN = {reason: KStatus(True, reason) for reason in KFailureReason}


class FibrationReport(NamedTuple):
    params: BundleParams
    validity: ValidityReport
    case: CaseLabel | None = None
    weight_ratios: WeightRatios | None = None
    k_cubed: Fraction | None = None
    nef_threshold: Fraction | None = None
    delta: Fraction | None = None
    k2_holds: bool | None = None
    # Read-only, so that the reports of invalid triplets share no mutable dict.
    k3_threshold_results: dict[Fraction, bool] = MappingProxyType({})
    k_status: KStatus | None = None
    verdict: Verdict | None = None

    def to_json_dict(self) -> dict:
        """JSON form (see `to_json`); the report of an invalid triplet
        holds only params and validity."""
        names = self._fields if self.case else ("params", "validity")
        return dict(zip(names, map(to_json, self)))

    @classmethod
    def from_json_dict(cls, data: dict) -> "FibrationReport":
        """The report whose `to_json_dict` is data, recomputed: `report` of
        data's triplet and K^3_d thresholds (read by `grading.rational`),
        returned only when its own `to_json_dict` equals data, with the
        same type at every leaf (so 0 is not false).  Otherwise ValueError
        names the first field that differs, or the keys missing and extra,
        and a float in a field that differs raises TypeError, as do data, its
        params or its k3_threshold_results that are not an object and a
        triplet value that is not an int (a bool, or None where a key is
        missing)."""
        fields = data if type(data) is dict else {}
        params, k3 = fields.get("params", {}), fields.get("k3_threshold_results", {})
        for path, value in ("", data), (".params", params), (".k3_threshold_results", k3):
            if type(value) is not dict:
                raise TypeError(f"report{path} is {value!r}, not an object")
        for key in ("lambda", "mu", "nu"):
            if type(params.get(key)) is not int:
                raise TypeError(f"report.params.{key} is {params.get(key)!r}, not an int")
        rep = report(BundleParams(params["lambda"], params["mu"], params["nu"]),
                     tuple(map(rational, k3)))
        _check(rep.to_json_dict(), data, "report")
        return rep


# The JSON encoding of the data model has one rule: a record is the object
# of its fields, in field order.  `_TO_JSON` encodes the rest: a triplet as
# {"lambda", "mu", "nu"}, a Fraction as its reduced string, an enum as its
# value, a K-status as its string and the K^3_d results as an object; bool,
# int, str and None are themselves.  This is the one description of the
# format: `FibrationReport.from_json_dict` recomputes a report and compares.
_TO_JSON = {
    BundleParams: lambda p: {"lambda": p.lam, "mu": p.mu, "nu": p.nu},
    # The methods, not str: a call of str through a name costs more.
    Fraction: Fraction.__str__,
    KStatus: KStatus.__str__,
    dict: lambda d: {to_json(k): ok for k, ok in d.items()},  # K^3_d results
    **dict.fromkeys((CaseLabel, RestrictBranch, Verdict), attrgetter("value")),
}


def to_json(value):
    """The JSON value of a piece of the data model, by the rule above: its
    `_TO_JSON` encoding, else the object of a record's fields, else itself."""
    encode = _TO_JSON.get(type(value))
    if encode is not None:
        return encode(value)
    fields = getattr(value, "_fields", None)
    return value if fields is None else dict(zip(fields, map(to_json, value)))


def _check(expected, actual, path: str) -> None:
    """Raise, naming the first place where the JSON value actual differs
    from expected in a value or in the type of a leaf (`==` alone takes 0
    for false and 1.0 for true): ValueError, or TypeError for a float."""
    if type(expected) is type(actual) is dict:
        if expected.keys() != actual.keys():
            raise ValueError(f"{path}: missing keys {sorted(expected.keys() - actual.keys())}"
                             f", extra keys {sorted(actual.keys() - expected.keys())}")
        for key, value in expected.items():
            _check(value, actual[key], f"{path}.{key}")
    elif type(expected) is not type(actual) or expected != actual:
        if type(actual) is float:
            rational(actual)  # TypeError: a float is no exact rational
        raise ValueError(f"{path} is {actual!r}, not {expected!r}")


# Reasons a triplet is invalid, as the bit flags of a decision.
_NU_NEGATIVE = 1  # nu < 0
_MU_NOT_BELOW = 2  # 3*mu >= 2*nu, i.e. wr(z) >= wr(w)
_NO_BRANCH = 4  # case (b), but no branch of the restriction matches

# The table of the decision.  A row (a, b, c, r) stands for a*lambda + b*mu
# + c*nu <= r on integers, so a strict comparison lowers r by 1 and an
# equality is two rows.  Each validity row comes with its flag on failure.
_VALID_ROWS = (
    ((0, 0, -1, 0), _NU_NEGATIVE),  # nu >= 0
    ((0, 3, -2, -1), _MU_NOT_BELOW),  # 3*mu <= 2*nu - 1
)
# (case, branch, rows) per case and branch of case (b).  The (a-i) and
# (a-ii) entries together hold exactly where 6*lambda <= 2*nu, so first
# match (`_decide`) tries II and III only where 2*nu < 6*lambda, and their
# rows leave out that row; I keeps it.  At most one entry holds at a valid
# triplet with lambda >= 0 (the claim `case-entries-exclusive` of
# tests/test_proofs.py), so the regions of `classify` agree with first
# match.  Elsewhere (a-ii) and III overlap at the invalid (0, 1, 0).
_CASE_ROWS = (
    (CaseLabel.AI, None, (
        (6, 0, -2, 0),  # 6*lambda <= 2*nu: case (a)
        (-6, 3, 0, 0),  # 3*mu <= 6*lambda
    )),
    (CaseLabel.AII, None, (
        (6, 0, -2, 0),  # 6*lambda <= 2*nu
        (6, -3, 0, -1),  # 6*lambda < 3*mu
    )),
    (CaseLabel.B, RestrictBranch.I, (
        (-6, 0, 2, -1),  # 2*nu < 6*lambda: case (b)
        (5, 0, -2, 0),  # 5*lambda <= 2*nu
        (4, 1, -2, 0),  # 4*lambda + mu <= 2*nu
    )),
    (CaseLabel.B, RestrictBranch.II, (
        (-5, 0, 2, -1),  # 2*nu < 5*lambda
        (4, 1, -2, 0), (-4, -1, 2, 0),  # 2*nu = 4*lambda + mu
    )),
    (CaseLabel.B, RestrictBranch.III, (
        (-4, -1, 2, -1),  # 2*nu < 4*lambda + mu
        (5, 0, -2, 0), (-5, 0, 2, 0),  # 2*nu = 5*lambda
    )),
)
# Twice the nef threshold, a*lambda + b*mu + c*nu + r per case, as (a, b, c,
# r) (module docstring).  This is the one place the nef formulas live.
# -K_X + r*F is nef exactly when r >= nef, at every valid triplet with
# lambda >= 0.  N = -K_X + nef*F is D_y in (a-i) and (b) and D_z/2 in
# (a-ii).  x^2, x*y, y^2 and z are sections of |2N|, so it is free off C_w =
# {x = y = z = 0}, which X misses (w^2 is a monomial of |X|): N is nef.  C =
# X.D_x.D_z, X.D_x.D_y in (a-ii), is a curve, as w^2 keeps X from
# containing {x = z = 0} or {x = y = 0}, and N.C = 0 < F.C, so N - r*F is
# not nef for r > 0.  In (b), C = 2*C_y with C_y = {x = z = w = 0} in X.
# tests/test_proofs.py proves the rows by the claim `nef-sections` and the
# products by test_n_meets_its_curve_in_zero_and_f_positively.
_TWO_NEF = {CaseLabel.AI: (0, -2, 2, -4), CaseLabel.AII: (-2, -1, 2, -4),
            CaseLabel.B: (0, -2, 2, -4)}
# 2*delta = 2*(-K_X)^3 + 2*nef(X/P^1) per case: (4, 3, -4, 8) in (a-i) and
# (b), (2, 4, -4, 8) in (a-ii).
_TWO_DELTA = {case: tuple(map(add, TWO_MINUS_K_CUBED, two_nef))
              for case, two_nef in _TWO_NEF.items()}


def _decide(lam: int, mu: int, nu: int) -> tuple:
    """The decision for (lambda, mu, nu): (flags, case, branch, two_delta).

    flags are those of the failing `_VALID_ROWS`, and the first entry of
    `_CASE_ROWS` whose rows all hold gives the case and the branch; if none
    holds, flags get `_NO_BRANCH`.  flags is 0 for a valid triplet, which
    gets its case and 2*delta; an invalid one gets None for both.  branch
    is set whenever a branch matches in case (b), valid or not.

    First match decides where entries overlap.  The (a) entries come first
    and hold exactly where 6*lambda <= 2*nu, so II and III, whose rows leave
    out 2*nu < 6*lambda, are only tried where that row holds anyway.
    """
    flags = 0
    for (a, b, c, r), flag in _VALID_ROWS:
        if a * lam + b * mu + c * nu > r:
            flags |= flag
    for case, branch, rows in _CASE_ROWS:
        for a, b, c, r in rows:
            if a * lam + b * mu + c * nu > r:
                break
        else:
            break
    else:
        return flags | _NO_BRANCH, None, None, None
    if flags:
        return flags, None, branch, None
    return 0, case, branch, _form_at(_TWO_DELTA[case], lam, mu, nu)


# The validity records, built once: `_VALIDITY[branch][flags]` is the
# record of a decision, shared by every triplet that has it.  No field shows
# `_NO_BRANCH`, so flags f and f | _NO_BRANCH (f = 1, 2, 3) build equal
# records; they are interned in `_SHARED_VALIDITY`, so that equal records
# are one object: 20 records for the 32 decisions.
_SHARED_VALIDITY = {}  # record -> itself
_VALIDITY = {branch: tuple(_SHARED_VALIDITY.setdefault(record, record) for record in (
                 ValidityReport(nu_nonneg=not flags & _NU_NEGATIVE,
                                three_mu_lt_two_nu=not flags & _MU_NOT_BELOW,
                                restrictb_branch=branch, is_valid=not flags)
                 for flags in range(8)))
             for branch in (None, *RestrictBranch)}


def _require_normalized(p: BundleParams) -> None:
    if not p.is_normalized:  # lambda < 0: wr(y) < wr(x) = 0, no case applies
        raise InvalidParams(f"{_shown(p, 'the triplet')} is not normalized (lambda < 0)")


def _decide_valid(p: BundleParams) -> tuple[CaseLabel, int]:
    """(case, two_delta) of a normalized, valid triplet; else InvalidParams."""
    _require_normalized(p)
    flags, case, _, two_delta = _decide(p.lam, p.mu, p.nu)
    if flags:
        raise InvalidParams(f"{_shown(p, 'the triplet')} fails the validity conditions")
    return case, two_delta


def _nef(p: BundleParams, two_delta: int) -> int:
    """Twice the nef threshold, 2*nef(X/P^1) = 2*delta - 2*(-K_X)^3."""
    return two_delta - _form_at(TWO_MINUS_K_CUBED, p.lam, p.mu, p.nu)


def _at_most(two_delta: int, d0: Fraction) -> bool:
    """delta <= d0, in ints (the denominator of a `Fraction` is positive)."""
    return d0.denominator * two_delta <= 2 * d0.numerator


# The K^3_d results of `DEFAULT_THRESHOLDS`, built once.  As 2*delta is an
# int, delta <= d0 exactly when 2*delta <= floor(2*d0), so the results
# change only at these cuts, and `_DEFAULT_K3[bisect_left(_CUTS,
# two_delta)]` holds them: entry i for 2*delta in (_CUTS[i-1], _CUTS[i]],
# the last one above _CUTS[-1].
_CUTS = tuple(sorted({2 * d0.numerator // d0.denominator for d0 in DEFAULT_THRESHOLDS}))
_DEFAULT_K3 = tuple({d0: _at_most(t, d0) for d0 in DEFAULT_THRESHOLDS}
                    for t in (*_CUTS, _CUTS[-1] + 1))


def _k_status(p: BundleParams, two_nef: int) -> KStatus:
    if two_nef < 0:
        return _PROVEN[KFailureReason.AMPLE_ANTICANONICAL]
    # -K_X = H + (lambda + mu - nu + 2) F lies strictly inside the cone of F
    # and D_z = 2H + mu F when its F-coefficient exceeds wr(z) = mu/2.
    interior = 2 * (p.lam + p.mu - p.nu + 2) > p.mu
    if interior and is_dz_movable_on_x(p):
        return _PROVEN[KFailureReason.DZ_MOVABLE_INTERIOR]
    return _NOT_PROVEN


def validity(p: BundleParams) -> ValidityReport:
    """Check the conditions for (lambda, mu, nu) to carry a valid fibration.

    A valid triplet has nu >= 0 and 3*mu < 2*nu (as integers, 3*mu <=
    2*nu - 1), and in case (b) must match exactly one of the branches

        I   : 2*nu >= max(5*lambda, 4*lambda + mu)
        II  : 5*lambda > 2*nu = 4*lambda + mu
        III : 4*lambda + mu > 2*nu = 5*lambda

    (the branch predicates are pairwise exclusive).  Never raises, and
    does not check normalization (lambda >= 0), which the others require.
    The record is built at import and shared by every triplet with the
    same reasons and branch.
    """
    flags, _, branch, _ = _decide(p.lam, p.mu, p.nu)
    return _VALIDITY[branch][flags]


def classify_case(p: BundleParams) -> CaseLabel:
    """Nef-cone case of a normalized, valid triplet.

    Validity forces wr(z) < wr(w), so the three cases partition: (b) when
    wr(w) < wr(y); else (a-i) when wr(z) <= wr(y) (ties wr(y) = wr(w) go to
    case (a)); else (a-ii), where wr(y) < wr(z) < wr(w) holds automatically.
    """
    return _decide_valid(p)[0]


def nef_threshold(p: BundleParams) -> Fraction:
    """Nef threshold of X over P^1: the least r with -K_X + r*F nef."""
    return _over(_nef(p, _decide_valid(p)[1]), 2)


def delta(p: BundleParams) -> Fraction:
    """delta_X = (-K_X)^3 + nef(X/P^1)."""
    return _over(_decide_valid(p)[1], 2)


def k2_condition(p: BundleParams) -> bool:
    """K^2-condition: (-K_X)^2 not interior to the effective cone, i.e. delta <= 0."""
    return _decide_valid(p)[1] <= 0


def k3_condition(p: BundleParams, d0: Fraction) -> bool:
    """K^3_d condition: delta <= d0 (an exact rational; see
    `grading.rational`)."""
    return _at_most(_decide_valid(p)[1], rational(d0))


def k_status(p: BundleParams) -> KStatus:
    """Tri-state K-condition verdict.

    Failure of the K-condition is proven either because -K_X is ample
    (negative nef threshold) or because D_z restricts to a movable class
    with -K_X strictly inside the cone spanned by F and D_z (the
    movability half is a combinatorial certificate).  All other triplets
    report NotProvenToFail; the tool never claims the K-condition holds.
    """
    return _k_status(p, _nef(p, _decide_valid(p)[1]))


# The fields of an invalid triplet's report after params and validity: the
# defaults of `FibrationReport`, its read-only empty K^3_d results included.
_INVALID_TAIL = tuple(FibrationReport._field_defaults.values())


def report(p: BundleParams,
           thresholds: tuple[Fraction, ...] = DEFAULT_THRESHOLDS) -> FibrationReport:
    """Full invariant-and-verdict report for a normalized triplet.

    Invalid triplets yield a report carrying only params and validity; a
    valid one always has a verdict.  Superrigid when delta <= 0 (the
    K^2-condition implies both the K-condition and the K^3 conditions);
    else NotRigidOverBase when the K-condition provably fails; else
    SuperrigidIfKCondition.  That last one needs delta <= 1: delta > 0 only
    on the 14 rows of `classify` (the claim `regions` of
    tests/test_proofs.py), whose import raises unless each with delta > 1
    has a proven K-failure.  Each threshold is read by `grading.rational`,
    so a float raises TypeError.  The validity record is `validity`'s
    shared one.  A valid report's K^3_d results are a fresh dict: for
    `DEFAULT_THRESHOLDS` itself, a copy of one built at import.  Every
    field is built exact and of its type, so the records are made by
    `tuple.__new__`, past their constructors.
    """
    if p.lam < 0:
        _require_normalized(p)
    flags, case, branch, two_delta = _decide(*p)
    v = _VALIDITY[branch][flags]
    if flags:
        return tuple.__new__(FibrationReport, (p, v, *_INVALID_TAIL))
    two_nef = _nef(p, two_delta)
    status = _k_status(p, two_nef)
    if two_delta <= 0:
        verdict = Verdict.SUPERRIGID
    elif status.proven_fails:
        verdict = Verdict.NOT_RIGID_OVER_BASE
    else:  # delta <= 1: importing `classify` checks it on every delta > 0 row
        verdict = Verdict.SUPERRIGID_IF_K_CONDITION
    if thresholds is DEFAULT_THRESHOLDS:  # a copy keeps the keys' hashes
        k3 = _DEFAULT_K3[bisect_left(_CUTS, two_delta)].copy()
    else:
        k3 = {d0: _at_most(two_delta, d0) for d0 in map(rational, thresholds)}
    # 2*delta - 2*nef = 2*(-K_X)^3, the form `TWO_MINUS_K_CUBED`.
    return tuple.__new__(FibrationReport, (
        p, v, case, WeightRatios.from_params(p), _over(two_delta - two_nef, 2),
        _over(two_nef, 2), _over(two_delta, 2), two_delta <= 0, k3, status, verdict))
