"""No float in the library: every module is checked for float literals and
calls of float(), so exact arithmetic cannot be lost by accident.  And one
builder of Fractions: only `grading.rational` and `grading._over` call
Fraction(), so every Fraction the library makes from ints is the shared,
immutable one of its value.  And two readers of a Fraction's private
slots: only `chow.triple_on_x` and `grading._degrees` read _numerator or
_denominator, each on the entries of a `DivisorClass`, every one of which
is exactly a Fraction (tests/test_records.py).  And threads that share the
cache of `_over` get what one thread gets."""

import ast
import gc
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import dp1toric
from dp1toric.chow import (CycleClass, anticanonical_on_x, derive_h4,
                           minus_k_cubed, triple_on_x)
from dp1toric.classify import nonsingular_delta
from dp1toric.cli import render_report
from dp1toric.conditions import (DEFAULT_THRESHOLDS, delta, nef_threshold,
                                 report)
from dp1toric.grading import _FRACTIONS, _FRACTIONS_MAX, H, BundleParams, _over, rational

MODULES = sorted(Path(dp1toric.__file__).parent.glob("*.py"))
# The functions of each module that may call Fraction().
FRACTION_BUILDERS = {"grading.py": {"rational", "_over"}}
# The functions of each module that may read a Fraction's slots.
SLOT_READERS = {"chow.py": {"triple_on_x"}, "grading.py": {"_degrees"}}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: call of float()")
    return found


def test_the_guard_sees_floats():
    tree = ast.parse("x = 0.5\ny = float(3)\nz = Fraction(1, 2)\n")
    assert float_uses(tree) == ["line 1: float literal 0.5",
                                "line 2: call of float()"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_module(path):
    assert float_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def inside(tree: ast.AST, names) -> set[int]:
    """The ids of the nodes of tree within the functions named in names."""
    return {id(node) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in names
            for node in ast.walk(f)}


def fraction_calls(tree: ast.AST, builders=frozenset()) -> list[str]:
    """Calls of Fraction() or fractions.Fraction() in tree outside the
    functions named in builders."""
    inside_builders = inside(tree, builders)
    return [f"line {line}: call of Fraction()" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside_builders
        and "Fraction" in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None)))]


def test_the_guard_sees_fraction_calls():
    tree = ast.parse("def rational(q):\n    return Fraction(q)\n"
                     "def half(n):\n    return fractions.Fraction(n, 2)\n"
                     "z = Fraction(0)\nw = Fraction.from_float\n")
    assert fraction_calls(tree, {"rational"}) == [
        "line 4: call of Fraction()", "line 5: call of Fraction()"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_builders_call_fraction(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert fraction_calls(tree, FRACTION_BUILDERS.get(path.name, ())) == []


def slot_reads(tree: ast.AST, readers=frozenset()) -> list[str]:
    """Reads of the attributes _numerator or _denominator in tree outside
    the functions named in readers."""
    inside_readers = inside(tree, readers)
    return [f"line {line}: {attr}" for line, attr in sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and id(node) not in inside_readers
        and node.attr in ("_numerator", "_denominator"))]


def test_the_guard_sees_slot_reads():
    tree = ast.parse("def _degrees(cls):\n    return cls.h._numerator\n"
                     "def count(q):\n    return q._denominator == 1\n"
                     "n = getattr(q, 'numerator')\nd = q.denominator\n")
    assert slot_reads(tree, {"_degrees"}) == ["line 4: _denominator"]
    assert slot_reads(tree) == ["line 2: _numerator", "line 4: _denominator"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_named_readers_read_fraction_slots(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert slot_reads(tree, SLOT_READERS.get(path.name, ())) == []


def test_equal_values_are_one_shared_fraction():
    p = BundleParams(2, 3, 6)
    first, again = report(p), report(p)
    k = anticanonical_on_x(p)
    assert rational(3) is rational(3)
    assert first.delta is again.delta
    assert triple_on_x(p, H, H, k) is triple_on_x(p, k, H, H)
    assert _FRACTIONS_MAX == 4096
    values = (rational(3), first.k_cubed, first.nef_threshold, first.delta,
              *first.weight_ratios, *first.k3_threshold_results,
              *DEFAULT_THRESHOLDS, triple_on_x(p, k, k, k), minus_k_cubed(p),
              derive_h4(p), nef_threshold(p), delta(p),
              nonsingular_delta(1, 1)[0], CycleClass().coefficient(0, 0))
    assert {type(q) for q in values} == {Fraction}
    # 5,000 distinct halves -(2*lambda + 1)/2 evict every earlier entry.
    three = rational(3)
    for lam in range(5000):
        assert triple_on_x(BundleParams(lam, 1, 0), H, H, H) == Fraction(-2 * lam - 1, 2)
    assert len(_FRACTIONS) == 4096
    assert rational(3) == three and rational(3) is not three
    rep = report(p)
    # (-K_X)^3 = 2*2 + (5/2)*3 - 3*6 + 6 and nef = -3 + 6 - 2, case (a-i).
    assert (rep.k_cubed, rep.nef_threshold, rep.delta) == (
        Fraction(-1, 2), Fraction(1, 1), Fraction(1, 2))
    assert triple_on_x(p, k, k, k) == Fraction(-1, 2)
    assert report(p).delta is rep.delta


def test_another_exact_rational_is_converted():
    # Neither an int nor a Fraction, so `rational` hands it to Fraction().
    q = rational(Decimal("2.5"))
    assert type(q) is Fraction and q == Fraction(5, 2)


def test_the_fraction_cache_holds_small_values_only():
    """`_over` shares the Fraction of a numerator below 2**64 in absolute
    value, and builds a larger one afresh, so 5,000 reports of distinct
    5,000-digit triplets leave under 1 MiB in its cache (tracemalloc; 18.4
    MiB when every value was cached)."""
    big = 10 ** 5000
    assert _over(3, 2) is _over(3, 2) and _over(-(2 ** 64) + 1, 36) is _over(-(2 ** 64) + 1, 36)
    for n in (2 ** 64, -(2 ** 64), big):
        assert _over(n, 2) == Fraction(n, 2) and _over(n, 2) is not _over(n, 2)
    _FRACTIONS.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(5000):
            report(BundleParams(0, -5 * big - k, 0))
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - before < 2 ** 20
    finally:
        tracemalloc.stop()


def test_threads_that_evict_from_the_fraction_cache_write_what_one_thread_writes():
    """Four threads render the reports of 9,000 triplets, whose values
    evict the oldest entries of the full cache, as one thread does.  With a
    thread switch every microsecond, two threads would evict one key at
    once (KeyError) within a few milliseconds were the store not locked."""
    triplets = [BundleParams(*t) for t in product((0, 1), range(-1500, 0), (0, 1, 2))]
    serial = [render_report(report(p), "json") for p in triplets]
    threaded, failures = [None] * 4, []

    def run(i):
        try:
            threaded[i] = [render_report(report(p), "json") for p in triplets[i::4]]
        except Exception as failure:
            failures.append(failure)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and threaded == [serial[i::4] for i in range(4)]
