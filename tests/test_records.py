"""The records of the data model: immutable NamedTuples with value equality,
the reprs of the earlier dataclass records, and their validation; and the
import of the package, which must not load `dataclasses` or `inspect`, nor
the CLI `argparse` or `gettext`."""

import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from dp1toric import (DEFAULT_BOX, BundleParams, CycleClass, DivisorClass,
                      FibrationReport, GradingMatrix, KFailureReason, KStatus,
                      SearchBox, Stratum, ValidityReport, WeightRatios,
                      classify_k2_failures, report, validity)
from dp1toric.classify import ClassificationRow
from dp1toric.conditions import to_json

SRC = Path(__file__).parent.parent / "src"
LIBRARY_MODULES = ("dp1toric.grading", "dp1toric.chow", "dp1toric.conditions",
                   "dp1toric.classify")

VALID_REPORT_REPR = (
    "FibrationReport(params=BundleParams(lam=1, mu=1, nu=3), "
    "validity=ValidityReport(nu_nonneg=True, three_mu_lt_two_nu=True, "
    "restrictb_branch=None, is_valid=True), case=<CaseLabel.AI: 'AI'>, "
    "weight_ratios=WeightRatios(wr_x=Fraction(0, 1), wr_y=Fraction(1, 1), "
    "wr_z=Fraction(1, 2), wr_w=Fraction(1, 1)), k_cubed=Fraction(3, 2), "
    "nef_threshold=Fraction(0, 1), delta=Fraction(3, 2), k2_holds=False, "
    "k3_threshold_results={Fraction(0, 1): False, Fraction(1, 1): False, "
    "Fraction(3, 2): True}, k_status=KStatus(proven_fails=True, "
    "reason=<KFailureReason.DZ_MOVABLE_INTERIOR: 'DzMovableInterior'>), "
    "verdict=<Verdict.NOT_RIGID_OVER_BASE: 'NotRigidOverBase'>)")

# (record type, a function building one record, its repr, whether it hashes)
RECORDS = [
    (BundleParams, lambda: BundleParams(1, 1, 3),
     "BundleParams(lam=1, mu=1, nu=3)", True),
    (GradingMatrix, lambda: GradingMatrix((1, 1, 0, 1, 1, 3)),
     "GradingMatrix(top_row=(1, 1, 0, 1, 1, 3), bottom_row=(0, 0, 1, 1, 2, 3))",
     True),
    (DivisorClass, lambda: DivisorClass(1, 2),
     "DivisorClass(h=Fraction(1, 1), f=Fraction(2, 1))", True),
    (Stratum, lambda: Stratum(frozenset({"x"})),
     "Stratum(zero_set=frozenset({'x'}))", True),
    (CycleClass, lambda: CycleClass({(4, 0): 1, (3, 1): Q(1, 2), (2, 2): 5}),
     "CycleClass(coefficients={(4, 0): Fraction(1, 1), (3, 1): Fraction(1, 2)})",
     False),
    (WeightRatios, lambda: WeightRatios.from_params(BundleParams(1, 1, 3)),
     "WeightRatios(wr_x=Fraction(0, 1), wr_y=Fraction(1, 1), "
     "wr_z=Fraction(1, 2), wr_w=Fraction(1, 1))", True),
    (ValidityReport, lambda: validity(BundleParams(1, 1, 3)),
     "ValidityReport(nu_nonneg=True, three_mu_lt_two_nu=True, "
     "restrictb_branch=None, is_valid=True)", True),
    (KStatus, lambda: KStatus(False),
     "KStatus(proven_fails=False, reason=None)", True),
    (FibrationReport, lambda: report(BundleParams(1, 1, 3)),
     VALID_REPORT_REPR, False),
    (ClassificationRow, lambda: classify_k2_failures()[0],
     "ClassificationRow(params=BundleParams(lam=0, mu=-2, nu=0), "
     "delta=Fraction(1, 1), case=<CaseLabel.AI: 'AI'>, k_fails=False)", True),
    (SearchBox, lambda: SearchBox((0, 10), (-30, 30), (0, 30)),
     "SearchBox(lambda_range=(0, 10), mu_range=(-30, 30), nu_range=(0, 30))",
     True),
]


@pytest.mark.parametrize("kind, build, text, hashable", RECORDS,
                         ids=[kind.__name__ for kind, *_ in RECORDS])
def test_record_semantics(kind, build, text, hashable):
    a = build()
    b = kind(*a)  # equal fields
    assert type(a) is kind and repr(a) == text
    assert a == b and a is not b
    if hashable:
        assert hash(a) == hash(b)
    else:  # a dict field, unhashable as before
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, kind._fields[0], a[0])
    with pytest.raises(AttributeError):
        a.extra = 1


def test_records_are_tuples_of_their_fields():
    p = BundleParams(1, 1, 3)
    assert p == (1, 1, 3) and p._asdict() == {"lam": 1, "mu": 1, "nu": 3}
    assert DEFAULT_BOX == SearchBox((0, 10), (-30, 30), (0, 30))


@pytest.mark.parametrize("error, build", [
    (ValueError, lambda: SearchBox((1, 0), (0, 0), (0, 0))),
    (ValueError, lambda: SearchBox((0, 0), (0, 0), (2, 1))),
    (ValueError, lambda: DEFAULT_BOX._replace(mu_range=(1, -1))),
    (ValueError, lambda: Stratum(frozenset({"q"}))),
    (ValueError, lambda: Stratum(frozenset({"u", "v"}))),
    (ValueError, lambda: Stratum(frozenset({"x"}))._replace(zero_set=frozenset("xyzw"))),
    (ValueError, lambda: KStatus(True)),
    (ValueError, lambda: KStatus(False, KFailureReason.AMPLE_ANTICANONICAL)),
    (ValueError, lambda: KStatus(False)._replace(proven_fails=True)),
    (ValueError, lambda: CycleClass({(5, 0): 1})),
    (ValueError, lambda: CycleClass({(1, -1): 1})),
    # A triplet holds ints: not a float, a Fraction or a bool.
    (TypeError, lambda: BundleParams(0.5, 0, 1)),
    (TypeError, lambda: BundleParams(1.0, 1.0, 3.0)),
    (TypeError, lambda: BundleParams(Q(1, 2), 0, 1)),
    (TypeError, lambda: BundleParams(True, 1, 3)),
    (TypeError, lambda: BundleParams(1, 1, 3)._replace(lam=1.0)),
    # The message names types, so a 5,000-digit entry is not printed.
    (TypeError, lambda: BundleParams(10**5000, 0.5, 0)),
], ids=["box-lambda", "box-nu", "box-replace", "stratum-unknown",
        "stratum-irrelevant", "stratum-replace", "k-status-no-reason",
        "k-status-reason", "k-status-replace", "cycle-h5", "cycle-f-1",
        "triplet-half", "triplet-floats", "triplet-fraction", "triplet-bool",
        "triplet-replace", "triplet-huge-and-float"])
def test_validated_records_still_raise(error, build):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("record, text", [
    (DivisorClass(0, 0), "0"),
    (DivisorClass(1, 0), "H"),
    (DivisorClass(-1, 0), "-H"),
    (DivisorClass(0, 1), "F"),
    (DivisorClass(0, -1), "-F"),
    (DivisorClass(1, 1), "H+F"),
    (DivisorClass(Q(-3, 2), -1), "-3/2H-F"),
    (DivisorClass(2, Q(1, 2)), "2H+1/2F"),
    (CycleClass(), "0"),
    (CycleClass({(0, 0): 3}), "3"),
    (CycleClass({(4, 0): -1, (3, 1): Q(1, 2)}), "-1*H^4+1/2*H^3*F"),
    (Stratum(frozenset("zx")), "{x,z}"),
])
def test_record_strings(record, text):
    assert str(record) == text


def test_stratum_repr_does_not_depend_on_the_hash_seed():
    probe = 'from dp1toric import Stratum; print(repr(Stratum(frozenset("zxw"))))'
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    reprs = set()
    for seed in range(5):
        done = subprocess.run([sys.executable, "-c", probe],
                              env={**env, "PYTHONHASHSEED": str(seed)},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        reprs.add(done.stdout)
    text = "Stratum(zero_set=frozenset({'x', 'z', 'w'}))"
    assert reprs == {text + "\n"} and eval(text) == Stratum(frozenset("zxw"))
    empty = Stratum(frozenset())
    assert repr(empty) == "Stratum(zero_set=frozenset())" and eval(repr(empty)) == empty


def test_divisor_class_coerces_to_fractions():
    c = DivisorClass(1, 2)
    assert type(c.h) is Q and type(c.f) is Q
    # Class arithmetic, not the tuple concatenation and repetition.
    assert 2 * c == c * 2 == c + c == DivisorClass(2, 4)
    assert c - DivisorClass(0, 2) == DivisorClass(1, 0) and -c == DivisorClass(-1, -2)
    d = c._replace(h=3)
    assert type(d.h) is Q and d == DivisorClass(3, 2)
    assert CycleClass().coefficients == {}


def test_invalid_reports_share_no_mutable_results():
    a, b = report(BundleParams(5, 0, 1)), report(BundleParams(5, 0, 1))
    assert a == b and a.k3_threshold_results == {}
    with pytest.raises(TypeError):
        a.k3_threshold_results[Q(0)] = True
    assert b.k3_threshold_results == {} and "k3_threshold_results" not in a.to_json_dict()
    assert FibrationReport.from_json_dict(a.to_json_dict()) == a
    valid = report(BundleParams(1, 1, 3))
    assert valid.k3_threshold_results is not report(BundleParams(1, 1, 3)).k3_threshold_results


def test_to_json_encodes_every_record_as_the_object_of_its_fields():
    rep = report(BundleParams(1, 1, 3))
    for record in (classify_k2_failures()[0], rep.validity, rep.weight_ratios,
                   validity(BundleParams(2, 2, 5))):
        assert to_json(record) == dict(zip(record._fields, map(to_json, record)))
    for value in (True, 3, "x", None):
        assert to_json(value) is value


def modules_added_by_import(module: str) -> set[str]:
    """The modules a fresh interpreter loads for `import module`."""
    probe = ("import json, sys; before = set(sys.modules); import {}; "
             "print(json.dumps(sorted(set(sys.modules) - before)))").format(module)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


@pytest.mark.parametrize("module", ["dp1toric", "dp1toric.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    added = modules_added_by_import(module)
    assert module in added
    assert not added & {"dataclasses", "inspect"}
    if module == "dp1toric":  # eager: every library module, not a lazy stub
        assert set(LIBRARY_MODULES) <= added
    else:  # the CLI reads its grammar table, not argparse
        assert not added & {"argparse", "gettext"}
