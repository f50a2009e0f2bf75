"""Every public function of the library on inputs of 5,000 digits.

Each call returns within a second, or refuses with a `ValueError` (or a
subclass) whose text is the library's own reason, not Python's
int-string digit-limit text.

That limit is Python's, and the library does not owe a refusal for it:
writing a number of more than 4,300 digits as text (`str` of a class, a
report's JSON or a renderer), or reading one (`rational` of such a
string), raises Python's own `ValueError` at once.  Nothing is wrong with
the value, and the same call succeeds once the caller lifts the limit
with `sys.set_int_max_str_digits`; a refusal of the library would fix a
bound that belongs to the caller.  The library's own refusals never
print such a number (they name it "D", "the bundle" or "the triplet"),
and the CLI refuses such an argument as a usage error, before any work.
"""

import inspect
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dp1toric import chow, classify, cli, conditions, grading
from dp1toric.chow import (CycleClass, anticanonical_on_x, derive_h4,
                           evaluate_top, minus_k_cubed, product, triple_on_x,
                           x_class)
from dp1toric.classify import (SearchBox, classify_k2_failures,
                               nonsingular_delta, oracle_search)
from dp1toric.cli import main, render_report, render_rows
from dp1toric.conditions import (FibrationReport, classify_case, delta,
                                 k2_condition, k3_condition, k_status,
                                 nef_threshold, report, to_json, validity)
from dp1toric.grading import (BundleParams, DivisorClass, ExponentVector,
                              GradingMatrix, base_locus_strata,
                              fiber_part_count, is_dz_movable_on_x,
                              monomial_basis, monomial_bidegree,
                              monomial_count, monomial_strings, normalize,
                              rational, signed, torus_divisor_class)

N = 10**5000
DIGITS = "1" + "0" * 5000  # N as text
DIGIT_LIMIT = "Exceeds the limit"
# A valid triplet, case (a-i), whose report holds numbers of 5,000 digits.
VALID = BundleParams(0, -5 * N, 0)
TRIPLETS = (BundleParams(N, 0, 0), BundleParams(-N, 0, 0), BundleParams(0, -N, N),
            VALID, BundleParams(1, 1, N))
CLASSES = (DivisorClass(N, 0), DivisorClass(6, N), DivisorClass(6, -N),
           DivisorClass(Fraction(N, 2), N), DivisorClass(N, N))
HUGE_BOX = SearchBox((-N, N), (-N, N), (-N, N))


def computations():
    """(function, args) for every call that computes on huge numbers."""
    for p in TRIPLETS:
        for fn in (validity, classify_case, nef_threshold, delta, k2_condition,
                   k_status, report, is_dz_movable_on_x, x_class,
                   anticanonical_on_x, derive_h4, minus_k_cubed):
            yield fn, (p,)
        yield k3_condition, (p, Fraction(N))
        yield report, (p, (Fraction(N), Fraction(-N, 3)))
        yield torus_divisor_class, (p, "w")
        yield monomial_bidegree, (p, ExponentVector(N, N, N, N, N, N))
        yield evaluate_top, (p, CycleClass({(4, 0): N, (3, 1): Fraction(1, N)}))
        for cls in CLASSES:
            for fn in (monomial_strings, monomial_basis, monomial_count,
                       base_locus_strata):
                yield fn, (p, cls)
            yield triple_on_x, (p, cls, cls, cls)
    for cls in CLASSES:
        yield product, ([cls] * 4,)
        yield fiber_part_count, (cls,)
    yield normalize, (GradingMatrix((1, 1, N, -N, N, N)),)
    yield rational, (N,)
    yield rational, ("1e5000",)
    yield oracle_search, (HUGE_BOX,)
    yield classify_k2_failures, ()
    yield nonsingular_delta, (N, N)
    yield nonsingular_delta, (6 * N, 5 * N)
    yield nonsingular_delta, (N, -N)
    for fmt in cli.FORMATS:
        yield render_rows, (oracle_search(HUGE_BOX), fmt)


def texts():
    """(function, args) for every call that writes or reads a number of
    5,000 digits as text."""
    rep = report(VALID)
    with digit_limit_lifted():
        data = rep.to_json_dict()
    yield str, (CLASSES[0],)
    yield signed, (Fraction(N),)
    yield to_json, (Fraction(N),)
    yield rep.to_json_dict, ()
    yield FibrationReport.from_json_dict, (data,)
    yield rational, (DIGITS,)
    for fmt in cli.FORMATS:
        yield render_report, (rep, fmt)


@contextmanager
def digit_limit_lifted():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def public_functions() -> set:
    return {f"{module.__name__}.{name}"
            for module in (chow, classify, cli, conditions, grading)
            for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")}


def timed(fn, args):
    """fn(*args), or the ValueError it raises, and the seconds it took."""
    start = time.perf_counter()
    try:
        outcome = fn(*args)
    except ValueError as refusal:
        outcome = refusal
    return outcome, time.perf_counter() - start


def test_every_public_function_answers_or_refuses_huge_inputs_at_once(capsys):
    called = set()
    for fn, args in computations():
        outcome, seconds = timed(fn, args)
        assert seconds < 1, fn.__name__
        if isinstance(outcome, ValueError):
            assert DIGIT_LIMIT not in str(outcome), fn.__name__
        called.add(f"{fn.__module__}.{fn.__name__}")
    # Text of 5,000 digits: Python's refusal, until the caller lifts it.
    for fn, args in texts():
        outcome, seconds = timed(fn, args)
        assert seconds < 1 and DIGIT_LIMIT in str(outcome), fn.__name__
        with digit_limit_lifted():
            assert not isinstance(timed(fn, args)[0], ValueError), fn.__name__
        called.add(f"{fn.__module__}.{fn.__name__}")
    # The CLI: a usage error that names the argument, before any work, for
    # a positional and for an option's value.
    for argv, named in ((["analyze", DIGITS, "0", "0"], "argument lambda"),
                        (["oracle", "--mu", DIGITS, "0"], "argument --mu")):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2 and time.perf_counter() - start < 1
        assert named in capsys.readouterr().err
    called.add("dp1toric.cli.main")
    assert public_functions() <= called
