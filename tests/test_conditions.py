"""Validity, case classification, nef thresholds, delta, and verdicts."""

import json
import sys
import time
from fractions import Fraction
from itertools import product as iproduct

import pytest

from dp1toric import chow, conditions
from dp1toric.chow import (CycleClass, anticanonical_on_x, minus_k_cubed,
                           triple_on_x)
from dp1toric.conditions import (CaseLabel, FibrationReport, InvalidParams,
                                 KFailureReason, KStatus, RestrictBranch,
                                 ValidityReport, Verdict, WeightRatios,
                                 classify_case, delta, k2_condition,
                                 k3_condition, k_status, nef_threshold,
                                 report, validity)
from dp1toric.grading import (F, BundleParams, DivisorClass, Stratum,
                              base_locus_strata, is_dz_movable_on_x, rational,
                              torus_divisor_class)

Q = Fraction

TABLE_TRIPLETS = [(0, -2, 0), (0, -1, 0), (0, -1, 1), (0, 0, 1), (1, 1, 3),
                  (1, 2, 4), (2, 3, 6), (0, 1, 2), (1, 3, 5), (1, -2, 1),
                  (2, 2, 5), (2, 3, 5), (4, 6, 10)]


def valid_box(lam_max=4, mu_span=9, nu_max=9):
    for lam in range(0, lam_max + 1):
        for mu in range(-mu_span, mu_span + 1):
            for nu in range(0, nu_max + 1):
                p = BundleParams(lam, mu, nu)
                if validity(p).is_valid:
                    yield p


# --- validity -----------------------------------------------------------------

def test_validity_branch_ii():
    v = validity(BundleParams(1, -2, 1))
    assert v.is_valid and v.restrictb_branch is RestrictBranch.II


def test_validity_branch_i():
    v = validity(BundleParams(2, 2, 5))
    assert v.is_valid and v.restrictb_branch is RestrictBranch.I


def test_validity_branch_iii():
    for triplet in [(2, 3, 5), (4, 6, 10)]:
        v = validity(BundleParams(*triplet))
        assert v.is_valid and v.restrictb_branch is RestrictBranch.III


def test_validity_origin_fails_strict_inequality():
    v = validity(BundleParams(0, 0, 0))
    assert not v.is_valid and v.nu_nonneg and not v.three_mu_lt_two_nu
    assert "3*mu <= 2*nu - 1 violated" in v.failure_reasons()


def test_validity_failure_reasons_list_every_violation():
    assert validity(BundleParams(0, 0, -1)).failure_reasons() == [
        "nu >= 0 violated", "3*mu <= 2*nu - 1 violated"]


def test_validity_case_b_without_branch():
    # (2,0,1): case (b) since wr_w = 1/3 < 2, but no branch matches.
    v = validity(BundleParams(2, 0, 1))
    assert v.nu_nonneg and v.three_mu_lt_two_nu
    assert v.restrictb_branch is None and not v.is_valid


def test_validity_negative_nu():
    assert not validity(BundleParams(0, -4, -1)).nu_nonneg


def test_validity_branch_none_outside_case_b():
    assert validity(BundleParams(0, -2, 0)).restrictb_branch is None


def test_branch_predicates_exclusive_on_case_b():
    for p in valid_box():
        if classify_case(p) is not CaseLabel.B:
            continue
        two_nu = 2 * p.nu
        hits = [two_nu >= 5 * p.lam and two_nu >= 4 * p.lam + p.mu,
                5 * p.lam > two_nu and two_nu == 4 * p.lam + p.mu,
                4 * p.lam + p.mu > two_nu and two_nu == 5 * p.lam]
        assert sum(hits) == 1, f"branches {hits} for {p}"


# --- case classification --------------------------------------------------------

def test_case_examples():
    assert classify_case(BundleParams(1, 1, 3)) is CaseLabel.AI
    assert classify_case(BundleParams(0, 1, 2)) is CaseLabel.AII
    assert classify_case(BundleParams(4, 6, 10)) is CaseLabel.B


def test_case_requires_validity():
    with pytest.raises(InvalidParams):
        classify_case(BundleParams(0, 0, 0))


def test_case_predicates_partition():
    for p in valid_box():
        wr_y, wr_z, wr_w = Q(p.lam), Q(p.mu, 2), Q(p.nu, 3)
        assert wr_z < wr_w  # forced by validity
        amb_ai = max(Q(0), wr_z) <= wr_y <= wr_w
        amb_aii = wr_y < wr_z < wr_w
        amb_b = wr_w < wr_y
        assert [amb_ai, amb_aii, amb_b].count(True) == 1
        assert classify_case(p) is {0: CaseLabel.AI, 1: CaseLabel.AII,
                                    2: CaseLabel.B}[[amb_ai, amb_aii, amb_b].index(True)]


# --- nef threshold and delta ------------------------------------------------------

def test_nef_threshold_examples():
    assert nef_threshold(BundleParams(0, -1, 0)) == -1
    assert nef_threshold(BundleParams(1, 1, 3)) == 0
    assert nef_threshold(BundleParams(0, 1, 2)) == Q(-1, 2)


def test_nef_threshold_shared_formula_for_ai_and_b():
    for p in valid_box():
        if classify_case(p) in (CaseLabel.AI, CaseLabel.B):
            assert nef_threshold(p) == -p.mu + p.nu - 2


def test_nef_threshold_from_the_cox_ring():
    """-K_X + r*F is nef exactly when r >= nef (proven in tests/test_proofs.py
    by the claim `nef-sections` and by
    test_n_meets_its_curve_in_zero_and_f_positively): N = -K_X + nef*F is
    D_y in (a-i) and (b) and D_z/2 in (a-ii), |2N| has the base locus C_w =
    {x = y = z = 0}, which X misses, and N.C = 0 < F.C for C = X.D_x.D_z,
    or X.D_x.D_y in (a-ii)."""
    c_w = [Stratum(frozenset("xyz"))]
    checked = 0
    for p in valid_box(7, 16, 24):
        d_x, d_y, d_z = (torus_divisor_class(p, t) for t in "xyz")
        in_a_ii = classify_case(p) is CaseLabel.AII
        n = anticanonical_on_x(p) + nef_threshold(p) * F
        assert n == (d_z * Q(1, 2) if in_a_ii else d_y), p
        assert base_locus_strata(p, 2 * n) == c_w, p
        c = d_y if in_a_ii else d_z
        assert triple_on_x(p, n, d_x, c) == 0 < triple_on_x(p, F, d_x, c), p
        checked += 1
    assert checked == 3454


def test_delta_examples():
    assert delta(BundleParams(0, -2, 0)) == 1
    assert delta(BundleParams(2, 3, 5)) == Q(5, 2)
    assert delta(BundleParams(2, 3, 6)) == Q(1, 2)


def test_delta_is_half_integral():
    for p in valid_box():
        assert (2 * delta(p)).denominator == 1


def test_delta_equals_cone_pairing():
    # delta = (-K + nef*F) . (-K)^2, tying the invariant to the nef cone.
    for p in valid_box(lam_max=3, mu_span=6, nu_max=6):
        k = anticanonical_on_x(p)
        assert delta(p) == triple_on_x(p, k + nef_threshold(p) * F, k, k)


def test_fiber_pairing_is_one_on_valid_triplets():
    for p in valid_box(lam_max=3, mu_span=6, nu_max=6):
        k = anticanonical_on_x(p)
        assert triple_on_x(p, F, k, k) == 1


# --- K^2 / K^3 conditions ---------------------------------------------------------

def test_k3_at_three_halves():
    assert k3_condition(BundleParams(0, -2, 0), Q(3, 2))


def test_k2_example_via_ai_delta_formula():
    p = BundleParams(0, -3, 0)
    assert 2 * p.lam + Q(3, 2) * p.mu - 2 * p.nu + 4 == Q(-1, 2)
    assert delta(p) == Q(-1, 2)
    assert k2_condition(p)


def test_k3_boundary_and_monotone():
    for p in [BundleParams(1, 2, 4), BundleParams(2, 3, 5)]:
        d = delta(p)
        assert k3_condition(p, d)
        assert not k3_condition(p, d - 1)
        assert k3_condition(p, d + Q(1, 2))


def test_k2_equivalent_to_k3_zero():
    for p in valid_box():
        assert k2_condition(p) == k3_condition(p, Q(0))


# Ints, strings, a negative denominator, zero and duplicates, and thresholds
# far beyond any delta, on both sides of it.
K3_THRESHOLDS = (0, 1, -2, 3, "6/4", "-1/3", "1/2", Q(3, -2), Q(0), 0, "0", 1,
                 Q(10**400), Q(-(10**400)), Q(1, 10**400), Q(-1, 10**400))


def test_k3_results_compare_in_ints_as_in_fractions():
    # delta = -7, -1/2, 0, 1/2, 1 and 5/2.
    signs = set()
    for triplet in [(3, -7, 20), (0, -3, 0), (0, 0, 2), (2, 3, 6), (0, -2, 0),
                    (2, 3, 5)]:
        p = BundleParams(*triplet)
        rep = report(p, K3_THRESHOLDS)
        d = rep.delta
        signs.add((d > 0) - (d < 0))
        expected = {Q(t): d <= Q(t) for t in K3_THRESHOLDS}
        assert rep.k3_threshold_results == expected, p
        assert list(rep.k3_threshold_results) == list(expected), p
        assert [k3_condition(p, t) for t in K3_THRESHOLDS] == [
            d <= Q(t) for t in K3_THRESHOLDS], p
    assert signs == {-1, 0, 1}


def test_thresholds_are_exact_rationals():
    p = BundleParams(1, 1, 3)  # delta = 3/2
    for t in (0.1, 1.5):
        with pytest.raises(TypeError, match="float"):
            report(p, (t,))
        with pytest.raises(TypeError, match="float"):
            k3_condition(p, t)
    negative = Q(3, -2)
    rep = report(p, (2, "3/2", negative))
    assert rep.k3_threshold_results == {Q(2): True, Q(3, 2): True, Q(-3, 2): False}
    assert next(k for k in rep.k3_threshold_results if k < 0) is negative
    assert [k3_condition(p, t) for t in (2, "3/2", negative)] == [True, True, False]


@pytest.mark.parametrize("text", ["1e10000000", "12e4299", "0e4301"])
def test_every_reader_of_a_rational_refuses_what_the_cli_refuses(text):
    # Fraction would build 10**10000000 for the first, which takes seconds;
    # the second reads, but str() cannot print it.
    p = BundleParams(2, 3, 6)
    data = report(p).to_json_dict()
    readers = {
        "rational": lambda: rational(text),
        "DivisorClass": lambda: DivisorClass(text, 0),
        "CycleClass": lambda: CycleClass({(4, 0): text}),
        "report": lambda: report(p, (0, text)),
        "k3_condition": lambda: k3_condition(p, text),
        "JSON delta": lambda: FibrationReport.from_json_dict({**data, "delta": text}),
        "JSON K^3_d key": lambda: FibrationReport.from_json_dict(
            {**data, "k3_threshold_results": {text: True}}),
    }
    for name, read in readers.items():
        start = time.perf_counter()
        with pytest.raises(ValueError):
            read()
        assert time.perf_counter() - start < 1, name


def test_rational_reads_exponents_up_to_the_digit_limit():
    assert rational("0e4300") == 0
    with pytest.raises(ValueError, match="exponent 4301 exceeds 4300"):
        rational("0e4301")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit: the check falls back to the default
    try:
        assert rational("1e1") == 10
        with pytest.raises(ValueError, match="exponent 4301 exceeds 4300"):
            rational("0e4301")
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_reports_refuse_floats():
    data = report(BundleParams(2, 3, 6)).to_json_dict()
    for key, value in (("delta", 0.1), ("k_cubed", 1.5)):
        with pytest.raises(TypeError, match="float"):
            FibrationReport.from_json_dict({**data, key: value})
    with pytest.raises(TypeError, match="float"):
        FibrationReport.from_json_dict(
            {**data, "weight_ratios": {**data["weight_ratios"], "wr_z": 1.5}})
    assert FibrationReport.from_json_dict(data) == report(BundleParams(2, 3, 6))


def test_every_reader_of_a_rational_refuses_a_zero_denominator():
    p = BundleParams(2, 3, 6)
    data = report(p).to_json_dict()
    readers = {
        "rational": lambda: rational("1/0"),
        "DivisorClass": lambda: DivisorClass("1/0", 0),
        "report": lambda: report(p, (0, "1/0")),
        "k3_condition": lambda: k3_condition(p, "1/0"),
        "JSON K^3_d key": lambda: FibrationReport.from_json_dict(
            {**data, "k3_threshold_results": {"1/0": True}}),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError, match="'1/0'"):
            read()


def test_json_reports_are_read_by_recomputing_them():
    p = BundleParams(2, 3, 6)  # delta = 1/2
    data = report(p).to_json_dict()
    flipped = {**data["k3_threshold_results"], "0": True}
    refused = [
        ({**data, "delta": "2"}, "report.delta is '2', not '1/2'"),
        ({**data, "verdict": "Superrigid"},
         "report.verdict is 'Superrigid', not 'SuperrigidIfKCondition'"),
        ({**data, "k3_threshold_results": flipped},
         "report.k3_threshold_results.0 is True, not False"),
        ({**data, "delta": "2/4"}, "report.delta is '2/4', not '1/2'"),
        ({**data, "trace": []}, "report: missing keys [], extra keys ['trace']"),
        ({key: value for key, value in data.items() if key != "k_status"},
         "report: missing keys ['k_status'], extra keys []"),
        ({**data, "params": {**data["params"], "rho": 0}},
         "report.params: missing keys [], extra keys ['rho']"),
        ({**data, "k3_threshold_results": {"0": False, "1": True, "3/2": True,
                                           "2/4": True}},
         "report.k3_threshold_results: missing keys ['1/2'], extra keys ['2/4']"),
        ({**data, "validity": "valid"}, "report.validity is 'valid', not {"),
    ]
    for bad, message in refused:
        with pytest.raises(ValueError) as exc:
            FibrationReport.from_json_dict(bad)
        assert str(exc.value).startswith(message)
        assert "'weight_ratios'" not in str(exc.value)  # not the whole dict
    for value in (True, 2.0, "2"):
        with pytest.raises(TypeError, match=f"report.params.lambda is {value!r}"):
            FibrationReport.from_json_dict({**data, "params": {**data["params"],
                                                               "lambda": value}})
    with pytest.raises(TypeError, match="report.params.nu is None"):
        FibrationReport.from_json_dict({**data, "params": {"lambda": 2, "mu": 3}})
    for bad, message in (([], "report is [], not an object"),
                         ("x", "report is 'x', not an object"),
                         (None, "report is None, not an object"),
                         ({"params": []}, "report.params is [], not an object"),
                         ({"params": None}, "report.params is None, not an object"),
                         *(({**data, "k3_threshold_results": value},
                            f"report.k3_threshold_results is {value!r}, not an object")
                           for value in (5, None, 1.5, True, []))):
        with pytest.raises(TypeError) as exc:
            FibrationReport.from_json_dict(bad)
        assert str(exc.value) == message
    invalid = report(BundleParams(2, 0, 1)).to_json_dict()
    with pytest.raises(ValueError, match="missing keys \\[\\], extra keys \\['case'\\]"):
        FibrationReport.from_json_dict({**invalid, "case": "AI"})
    assert FibrationReport.from_json_dict(data) == report(p)


def test_json_reports_compare_the_type_of_every_leaf():
    data = report(BundleParams(2, 3, 6)).to_json_dict()  # k2_holds is false
    k3 = data["k3_threshold_results"]  # {"0": false, "1": true, "3/2": true}
    refused = [
        ({**data, "k2_holds": 0}, "report.k2_holds is 0, not False"),
        ({**data, "k3_threshold_results": {**k3, "1": 1}},
         "report.k3_threshold_results.1 is 1, not True"),
        ({**data, "validity": {**data["validity"], "restrictb_branch": 0}},
         "report.validity.restrictb_branch is 0, not None"),
    ]
    for bad, message in refused:
        with pytest.raises(ValueError) as exc:
            FibrationReport.from_json_dict(bad)
        assert str(exc.value) == message
    for bad in ({**data, "validity": {**data["validity"], "is_valid": 1.0}},
                {**data, "k3_threshold_results": {**k3, "1": 1.0}}):
        with pytest.raises(TypeError, match="float"):
            FibrationReport.from_json_dict(bad)


# --- K-status ---------------------------------------------------------------------

def test_k_status_ample_anticanonical():
    s = k_status(BundleParams(0, 0, 1))
    assert s.proven_fails and s.reason is KFailureReason.AMPLE_ANTICANONICAL


def test_k_status_movable_interior():
    s = k_status(BundleParams(2, 3, 5))
    assert s.proven_fails and s.reason is KFailureReason.DZ_MOVABLE_INTERIOR


def test_k_status_not_proven():
    assert k_status(BundleParams(1, 2, 4)) == KStatus.not_proven()


def test_ample_anticanonical_implies_k2_fails():
    for lam, mu, nu in TABLE_TRIPLETS:
        p = BundleParams(lam, mu, nu)
        s = k_status(p)
        if s.reason is KFailureReason.AMPLE_ANTICANONICAL:
            assert not k2_condition(p)


def test_table_triplets_validity_and_branches():
    branches = {(1, -2, 1): RestrictBranch.II, (2, 2, 5): RestrictBranch.I,
                (2, 3, 5): RestrictBranch.III, (4, 6, 10): RestrictBranch.III}
    for triplet in TABLE_TRIPLETS:
        v = validity(BundleParams(*triplet))
        assert v.is_valid
        assert v.restrictb_branch == branches.get(triplet)


# --- integer core against the rational formulas ----------------------------------

def reference_validity(p):
    """Validity decided on the Fraction weight ratios."""
    wr = WeightRatios.from_params(p)
    branch = None
    in_case_b = wr.wr_w < wr.wr_y
    if in_case_b:
        two_nu = 2 * p.nu
        if two_nu >= 5 * p.lam and two_nu >= 4 * p.lam + p.mu:
            branch = RestrictBranch.I
        elif 5 * p.lam > two_nu and two_nu == 4 * p.lam + p.mu:
            branch = RestrictBranch.II
        elif 4 * p.lam + p.mu > two_nu and two_nu == 5 * p.lam:
            branch = RestrictBranch.III
    nu_nonneg = p.nu >= 0
    three_mu_lt_two_nu = 3 * p.mu <= 2 * p.nu - 1
    return ValidityReport(nu_nonneg, three_mu_lt_two_nu, branch,
                          nu_nonneg and three_mu_lt_two_nu
                          and (not in_case_b or branch is not None))


def reference_case(p):
    wr = WeightRatios.from_params(p)
    if wr.wr_w < wr.wr_y:
        return CaseLabel.B
    if max(wr.wr_x, wr.wr_z) <= wr.wr_y:
        return CaseLabel.AI
    return CaseLabel.AII


def reference_nef_threshold(p):
    if reference_case(p) is CaseLabel.AII:
        return -p.lam - Q(p.mu, 2) + p.nu - 2
    return Q(-p.mu + p.nu - 2)


def test_integer_core_matches_rational_formulas_on_grid():
    for lam, mu, nu in iproduct(range(-10, 11), repeat=3):
        p = BundleParams(lam, mu, nu)
        v = reference_validity(p)
        assert validity(p) == v, p
        if lam < 0 or not v.is_valid:
            for fn in (classify_case, nef_threshold, delta):
                with pytest.raises(InvalidParams):
                    fn(p)
            continue
        nef = reference_nef_threshold(p)
        k = anticanonical_on_x(p)
        assert classify_case(p) is reference_case(p), p
        assert nef_threshold(p) == nef, p
        assert delta(p) == minus_k_cubed(p) + nef, p
        assert delta(p) == triple_on_x(p, k, k, k) + nef, p
        assert report(p) == reference_report(p), p
        for value in (nef_threshold(p), delta(p)):
            assert type(value) is Fraction


def reference_report(p, thresholds=conditions.DEFAULT_THRESHOLDS):
    """The report of a valid triplet, built in Fractions: (-K_X)^3 as the
    product (-K_X)^3 on X, the nef threshold of the case, and every
    comparison between Fractions."""
    k = anticanonical_on_x(p)
    wr = WeightRatios(Q(0), Q(p.lam), Q(p.mu, 2), Q(p.nu, 3))
    k_cubed = triple_on_x(p, k, k, k)
    nef = reference_nef_threshold(p)
    d = k_cubed + nef
    if nef < 0:
        status = KStatus.proven(KFailureReason.AMPLE_ANTICANONICAL)
    elif k.f > wr.wr_z and is_dz_movable_on_x(p):  # -K_X = H + k.f*F interior
        status = KStatus.proven(KFailureReason.DZ_MOVABLE_INTERIOR)
    else:
        status = KStatus.not_proven()
    if d <= 0:
        verdict = Verdict.SUPERRIGID
    elif status.proven_fails:
        verdict = Verdict.NOT_RIGID_OVER_BASE
    else:
        verdict = Verdict.SUPERRIGID_IF_K_CONDITION
    return FibrationReport(p, reference_validity(p), reference_case(p), wr,
                           k_cubed, nef, d, d <= 0,
                           {Q(t): d <= Q(t) for t in thresholds}, status, verdict)


def test_case_a_entries_hold_exactly_where_6_lambda_is_at_most_2_nu():
    """The (a-i) and (a-ii) entries of `_CASE_ROWS`, which come first,
    together hold exactly where 6*lambda <= 2*nu, on a grid.  That at most
    one entry holds at a valid triplet with lambda >= 0 is the claim
    "case-entries-exclusive" of tests/test_proofs.py, proven over Z^3."""
    for lam, mu, nu in iproduct(range(13), range(-30, 31), range(-3, 41)):
        holding = [case for case, _, rows in conditions._CASE_ROWS
                   if all(a * lam + b * mu + c * nu <= r for a, b, c, r in rows)]
        in_case_a = holding != [] and holding[0] is not CaseLabel.B
        assert in_case_a == (6 * lam <= 2 * nu), (lam, mu, nu)


def test_report_decides_once(monkeypatch):
    calls = {"validity": 0, "_decide": 0}
    for name in calls:
        original = getattr(conditions, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(conditions, name, counted)
    rep = report(BundleParams(1, 1, 3))
    assert rep.verdict is Verdict.NOT_RIGID_OVER_BASE
    assert calls["validity"] <= 1
    assert calls["_decide"] == 1


def test_report_path_calls_no_minus_k_cubed(monkeypatch):
    # (-K_X)^3 enters reports as the integer form it shares with
    # `chow.minus_k_cubed`, never through a call of it.
    grid = [BundleParams(*t) for t in iproduct(range(4), range(-6, 7), range(9))]
    valid = [p for p in grid if validity(p).is_valid]

    def values():
        return ([report(p) for p in grid],
                [(nef_threshold(p), delta(p), k_status(p)) for p in valid])
    expected = values()

    def refuse(p):
        raise AssertionError("minus_k_cubed called on the report path")

    for module in (chow, conditions):
        if hasattr(module, "minus_k_cubed"):
            monkeypatch.setattr(module, "minus_k_cubed", refuse)
    assert values() == expected
    assert valid


def test_report_runs_the_dz_certificate_only_on_its_path(monkeypatch):
    # The benchmark's trace check counts on this: one call exactly when the
    # report is valid, nef >= 0 and -K_X is interior, and none otherwise.
    from dp1toric.classify import DEFAULT_BOX
    calls = []
    original = conditions.is_dz_movable_on_x
    monkeypatch.setattr(conditions, "is_dz_movable_on_x",
                        lambda p: calls.append(p) or original(p))
    (llo, lhi), (mlo, mhi), (nlo, nhi) = (DEFAULT_BOX.lambda_range,
                                          DEFAULT_BOX.mu_range, DEFAULT_BOX.nu_range)
    on_path = 0
    for lam, mu, nu in iproduct(range(max(llo, 0), lhi + 1), range(mlo, mhi + 1),
                                range(nlo, nhi + 1)):
        p = BundleParams(lam, mu, nu)
        calls.clear()
        rep = report(p)
        expected = (rep.validity.is_valid and rep.nef_threshold >= 0
                    and 2 * (lam + mu - nu + 2) > mu)
        assert calls == ([p] if expected else []), p
        on_path += expected
    assert on_path > 0


# --- reports ------------------------------------------------------------------------

def test_report_verdicts():
    assert report(BundleParams(2, 3, 6)).verdict is Verdict.SUPERRIGID_IF_K_CONDITION
    assert report(BundleParams(0, -3, 0)).verdict is Verdict.SUPERRIGID
    assert report(BundleParams(0, 1, 2)).verdict is Verdict.NOT_RIGID_OVER_BASE


def test_report_invalid_params_is_partial():
    rep = report(BundleParams(0, 0, 0))
    assert not rep.validity.is_valid
    assert rep.case is None and rep.delta is None and rep.verdict is None


def test_report_requires_normalized_lambda():
    with pytest.raises(InvalidParams):
        report(BundleParams(-1, 0, 3))


def test_every_verdict_but_validity_requires_normalized_lambda():
    # validity(P(-1,0,3)) passes, but the case trichotomy needs lambda >= 0.
    p = BundleParams(-1, 0, 3)
    assert validity(p).is_valid
    for fn in (classify_case, nef_threshold, delta, k_status, k2_condition,
               lambda p: k3_condition(p, Q(1))):
        with pytest.raises(InvalidParams, match="not normalized"):
            fn(p)


def test_refusals_name_a_triplet_too_long_to_print():
    # str() of 10**5000 passes the int-string digit limit: the refusal says
    # "the triplet" instead, and is still InvalidParams.
    verdicts = (classify_case, nef_threshold, delta, k_status, k2_condition,
                lambda p: k3_condition(p, Q(1)))
    for lam, reason in ((10**5000, "fails the validity conditions"),
                        (-10**5000, r"is not normalized \(lambda < 0\)")):
        for fn in verdicts:
            with pytest.raises(InvalidParams, match=f"^the triplet {reason}$"):
                fn(BundleParams(lam, 0, 0))
    with pytest.raises(InvalidParams, match=r"^the triplet is not normalized"):
        report(BundleParams(-10**5000, 0, 0))
    with pytest.raises(InvalidParams, match=r"^P\(0,0,0\) fails the validity"):
        delta(BundleParams(0, 0, 0))


def test_report_builds_the_records_its_constructors_would():
    """`report` builds its records past their constructors: on a grid and on
    5,000-digit triplets each record is of its class and has all of its
    fields, each equal to and of the type of the field the constructor
    gives, and its numbers are those of the public functions.  Invalid
    reports hold the class's defaults, the read-only empty K^3_d results
    included; lambda < 0 and a plain tuple are refused as before."""
    n = 10 ** 5000
    huge = [(0, 0, n), (n, n, 3 * n), (0, -5 * n, 0), (n, 0, 0), (0, n, 0), (1, 1, -n)]
    defaults = FibrationReport._field_defaults
    for t in (*iproduct(range(4), range(-6, 7), range(-1, 9)), *huge):
        p = BundleParams(*t)
        rep = report(p)
        records = [(rep, FibrationReport(*rep))]
        if rep.case is None:
            assert rep[2:] == tuple(defaults.values())
            assert rep.k3_threshold_results is defaults["k3_threshold_results"]
        else:
            wr = rep.weight_ratios
            records.append((wr, WeightRatios(*wr)))
            assert wr == (0, t[0], Q(t[1], 2), Q(t[2], 3))
            assert all(type(q) is Fraction for q in (*wr, rep.k_cubed, rep.nef_threshold))
            assert (rep.k_cubed, rep.nef_threshold, rep.delta) == (
                minus_k_cubed(p), nef_threshold(p), delta(p))
        for record, built in records:
            assert type(record) is type(built) and len(record) == len(built._fields)
            for field, value in zip(built._fields, record):
                assert value == getattr(built, field), (t, field)
                assert type(value) is type(getattr(built, field)), (t, field)
    for t, shown in (((-1, 0, 3), "P(-1,0,3)"), ((-n, 0, 0), "the triplet")):
        with pytest.raises(InvalidParams) as refused:
            report(BundleParams(*t))
        assert str(refused.value) == f"{shown} is not normalized (lambda < 0)"
    for t in ((2, 3, 6), (-1, 0, 3), (0, 0, 0)):
        with pytest.raises(AttributeError):
            report(t)


def test_equal_validity_records_are_one_object():
    # The 32 decisions hand out 20 records, pairwise unequal, which are
    # `ValidityReport.shared()`; `validity` and `report` still agree.
    records = list({id(r): r for rs in conditions._VALIDITY.values() for r in rs}.values())
    assert len(records) == len(set(records)) == 20
    assert list(map(id, ValidityReport.shared())) == list(map(id, records))
    for t in iproduct(range(4), range(-6, 7), range(-1, 9)):
        p = BundleParams(*t)
        assert validity(p) is report(p).validity


def test_report_delta_consistency():
    rep = report(BundleParams(1, 1, 3))
    assert rep.delta == rep.k_cubed + rep.nef_threshold
    assert rep.k2_holds == (rep.delta <= 0)
    assert rep.k3_threshold_results == {Q(0): False, Q(1): False, Q(3, 2): True}


def test_validity_records_are_shared_and_built_by_keyword():
    table = conditions._VALIDITY
    assert list(table) == [None, *RestrictBranch]
    for branch, records in table.items():
        assert len(records) == 8
        for flags, record in enumerate(records):
            built = ValidityReport(nu_nonneg=not flags & conditions._NU_NEGATIVE,
                                   three_mu_lt_two_nu=not flags & conditions._MU_NOT_BELOW,
                                   restrictb_branch=branch, is_valid=not flags)
            assert repr(record) == repr(built)
    # One object per decision, and the same one from `report` and `validity`.
    shared = {}
    for t in iproduct(range(4), range(-6, 7), range(-1, 9)):
        p = BundleParams(*t)
        flags, _, branch, _ = conditions._decide(*t)
        assert validity(p) is report(p).validity is table[branch][flags]
        assert shared.setdefault((flags, branch), validity(p)) is validity(p)
    assert len(shared) > 4
    # lambda < 0 is answered too, from the same table.
    assert validity(BundleParams(-1, 0, 3)) is table[None][0]
    assert validity(BundleParams(-1, 2, -1)) is table[None][3]


def test_default_k3_results_are_fresh_copies_of_a_table(monkeypatch):
    from dp1toric.classify import _ORACLE_ROWS
    defaults = conditions.DEFAULT_THRESHOLDS
    # The 14 oracle rows (2*delta from 1 to 5) and a grid where delta <= 0
    # give all four patterns of the default thresholds.
    triplets = [r.params for r in _ORACLE_ROWS] + list(valid_box(5, 12, 22))
    hashes = 0
    original = Fraction.__hash__

    def counted(self):
        nonlocal hashes
        hashes += 1
        return original(self)
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__hash__", counted)
        reports = [report(p) for p in triplets]
        assert hashes == 0
        report(triplets[0], list(defaults))  # the counter sees other thresholds
        assert hashes == len(defaults)
    # Equal thresholds that are other objects are compared one by one, and
    # key the results by themselves.
    copies = tuple(Fraction(d0.numerator, d0.denominator) for d0 in defaults)
    k3 = report(triplets[0], copies).k3_threshold_results
    assert k3 == reports[0].k3_threshold_results
    assert all(key is d0 for key, d0 in zip(k3, copies))
    patterns = set()
    for p, rep in zip(triplets, reports):
        k3 = rep.k3_threshold_results
        assert type(k3) is dict and len(k3) == len(defaults)
        assert all(key is d0 for key, d0 in zip(k3, defaults))
        items = list(k3.items())
        for others in (tuple(list(defaults)), list(defaults)):
            assert others is not defaults
            assert list(report(p, others).k3_threshold_results.items()) == items
        patterns.add(tuple(k3.values()))
        k3.clear()  # the next report of p gets its own dict
        assert list(report(p).k3_threshold_results.items()) == items
    assert len(patterns) == 4


def test_report_json_round_trip():
    for triplet in [(1, 1, 3), (0, 0, 0), (2, 2, 5), (0, -3, 0)]:
        rep = report(BundleParams(*triplet))
        blob = json.dumps(rep.to_json_dict())
        assert FibrationReport.from_json_dict(json.loads(blob)) == rep


def test_k_status_strings():
    assert str(KStatus.not_proven()) == "NotProvenToFail"
    assert (str(KStatus.proven(KFailureReason.AMPLE_ANTICANONICAL))
            == "ProvenFails(AmpleAntiCanonical)")
    assert (str(KStatus.proven(KFailureReason.DZ_MOVABLE_INTERIOR))
            == "ProvenFails(DzMovableInterior)")


def test_k_status_rejects_a_reason_without_proof_and_vice_versa():
    with pytest.raises(ValueError):
        KStatus(True)
    with pytest.raises(ValueError):
        KStatus(False, KFailureReason.AMPLE_ANTICANONICAL)
