"""Grading-matrix normalization, monomial bases, and base-locus strata."""

from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
import sys
import time
from itertools import chain, combinations_with_replacement, product as iproduct

import pytest

from dp1toric import grading
from dp1toric.chow import triple_on_x
from dp1toric.grading import (BOTTOM_ROW, VARIABLES, F, H, BundleParams,
                              DivisorClass, EmptyLinearSystem, ExponentVector,
                              GradingMatrix, InvalidMatrix, Stratum, _fiber_parts,
                              base_locus_strata, fiber_part_count,
                              is_dz_movable_on_x, monomial_basis,
                              monomial_bidegree, monomial_count,
                              monomial_strings, normalize, torus_divisor_class)


def ev(a=0, b=0, c=0, d=0, e=0, f=0):
    return ExponentVector(a, b, c, d, e, f)


def integral(cls):
    """Whether both entries of cls are ints, by their denominators."""
    return cls.h.denominator == cls.f.denominator == 1


def support(e):
    """The variables of the monomial with exponents e."""
    return frozenset(v for v, k in zip(VARIABLES, e) if k)


# --- normalize ---------------------------------------------------------------

def test_normalize_reference_bundle():
    assert normalize(GradingMatrix((1, 1, 0, 0, 2, 3))) == BundleParams(0, 2, 3)


def test_normalize_uniform_shift_gives_product_bundle():
    assert normalize(GradingMatrix((1, 1, 2, 2, 4, 6))) == BundleParams(0, 0, 0)


def brute_force_normalize(top_row):
    """Search all gauge shifts and the x<->y swap for the canonical form.

    The canonical form is the unique reachable top row with x-degree 0 and
    lambda >= 0.
    """
    hits = []
    for swap in (False, True):
        m = GradingMatrix(tuple(top_row))
        if swap:
            m = m.swapped_xy()
        for k in range(-10, 11):
            t = m.shifted(k).top_row
            if t[2] == 0 and t[3] >= 0:
                hits.append(BundleParams(t[3], t[4], t[5]))
    assert hits, "no canonical form within the searched shifts"
    assert len(set(hits)) == 1, f"canonical form not unique: {hits}"
    return hits[0]


def test_normalize_mixed_row_against_brute_force():
    top = (1, 1, 3, 1, 0, 5)
    expected = brute_force_normalize(top)
    assert expected == BundleParams(2, -2, 2)
    assert normalize(GradingMatrix(top)) == expected


def test_normalize_agrees_with_brute_force_on_grid():
    for alpha, beta in iproduct(range(-2, 3), repeat=2):
        for gamma, delta_ in iproduct(range(-3, 4, 3), range(-3, 4, 3)):
            top = (1, 1, alpha, beta, gamma, delta_)
            assert normalize(GradingMatrix(top)) == brute_force_normalize(top)


def test_normalize_rejects_malformed_matrices():
    with pytest.raises(InvalidMatrix):
        normalize(GradingMatrix((1, 2, 0, 0, 2, 3)))
    with pytest.raises(InvalidMatrix):
        normalize(GradingMatrix((1, 1, 0, 0, 2, 3), (0, 0, 1, 1, 2, 2)))
    with pytest.raises(InvalidMatrix):
        normalize(GradingMatrix((2, 1, 0, 0, 2, 3)))


def test_normalize_idempotent():
    for lam, mu, nu in iproduct(range(0, 5), range(-4, 5), range(-4, 5)):
        p = BundleParams(lam, mu, nu)
        assert normalize(GradingMatrix.from_params(p)) == p


def test_normalize_gauge_and_swap_invariance():
    tops = [(1, 1, 0, 0, 2, 3), (1, 1, 3, 1, 0, 5), (1, 1, -2, 4, 1, -3)]
    for top in tops:
        m = GradingMatrix(top)
        canonical = normalize(m)
        for k in range(-10, 11):
            assert normalize(m.shifted(k)) == canonical
        assert normalize(m.swapped_xy()) == canonical


# --- torus divisor classes and bidegrees -------------------------------------

def test_torus_divisor_classes():
    p = BundleParams(0, 2, 3)
    assert torus_divisor_class(p, "w") == DivisorClass(3, 3)
    assert torus_divisor_class(p, "u") == F
    assert torus_divisor_class(p, "v") == F
    assert torus_divisor_class(p, "x") == H
    assert torus_divisor_class(BundleParams(2, -2, 2), "y") == DivisorClass(1, 2)
    assert torus_divisor_class(p, "z") == DivisorClass(2, 2)


def test_torus_divisor_class_bad_coordinate():
    with pytest.raises(ValueError):
        torus_divisor_class(BundleParams(0, 0, 0), "t")


def test_monomial_bidegree():
    assert monomial_bidegree(BundleParams(0, 2, 3), ev(f=2)) == (6, 6)
    assert monomial_bidegree(BundleParams(5, -7, 11), ev()) == (0, 0)
    assert monomial_bidegree(BundleParams(1, 1, 3), ev(c=3, f=1)) == (3, 6)


def test_bidegree_matches_grading_matrix_columns():
    # The bidegree of a single variable equals its grading-matrix column.
    for lam, mu, nu in [(0, 2, 3), (2, -2, 2), (1, 1, 3), (-1, 0, 3)]:
        p = BundleParams(lam, mu, nu)
        top = GradingMatrix.from_params(p).top_row
        for i in range(6):
            exps = [0] * 6
            exps[i] = 1
            assert monomial_bidegree(p, ExponentVector(*exps)) == (top[i], BOTTOM_ROW[i])
            assert (torus_divisor_class(p, VARIABLES[i])
                    == DivisorClass(BOTTOM_ROW[i], top[i]))


# --- monomial bases -----------------------------------------------------------

def brute_force_basis(p, cls, bound=8):
    """All exponent vectors with entries <= bound of the given bidegree."""
    target = (int(cls.f), int(cls.h))
    return sorted(
        ExponentVector(*exps)
        for exps in iproduct(range(bound + 1), repeat=6)
        if monomial_bidegree(p, ExponentVector(*exps)) == target
    )


def test_basis_degree_one_class():
    p = BundleParams(0, 2, 3)
    basis = monomial_basis(p, H)
    assert basis == brute_force_basis(p, H, bound=2)
    assert {str(m) for m in basis} == {"x", "y"}


def test_basis_negative_h_degree_empty():
    assert monomial_basis(BundleParams(1, 1, 3), DivisorClass(-1, 4)) == []


def test_basis_contains_reference_sections():
    basis = monomial_basis(BundleParams(0, 2, 3), DivisorClass(6, 6))
    named = {ev(f=2), ev(e=3), ev(a=6, c=6), ev(b=6, d=6), ev(a=6, d=6),
             ev(b=6, c=6)}
    assert named <= set(basis)


def test_basis_against_brute_force():
    cases = [
        (BundleParams(0, 2, 3), DivisorClass(2, 3)),
        (BundleParams(1, 1, 3), DivisorClass(6, 3)),
        (BundleParams(1, -2, 1), DivisorClass(3, 4)),
        (BundleParams(0, -2, 0), DivisorClass(6, -6)),
    ]
    for p, cls in cases:
        assert monomial_basis(p, cls) == brute_force_basis(p, cls)


def test_basis_bidegrees_are_exact():
    for p, cls in [(BundleParams(0, 2, 3), DivisorClass(6, 6)),
                   (BundleParams(2, 3, 5), DivisorClass(6, 9)),
                   (BundleParams(1, 2, 4), DivisorClass(4, 3))]:
        basis = monomial_basis(p, cls)
        assert basis
        for m in basis:
            assert monomial_bidegree(p, m) == (cls.f, cls.h)
        assert basis == sorted(set(basis))


def test_basis_non_integral_class_empty():
    from fractions import Fraction
    assert monomial_basis(BundleParams(0, 2, 3),
                          DivisorClass(Fraction(1, 2), 1)) == []


def test_monomial_count_matches_basis_length_on_grid():
    for lam, mu, nu in iproduct(range(-2, 3), range(-3, 4), range(-2, 4)):
        p = BundleParams(lam, mu, nu)
        for h, f in iproduct(range(-1, 7), range(-3, 8)):
            cls = DivisorClass(h, f)
            assert monomial_count(p, cls) == len(monomial_basis(p, cls))


def test_monomial_strings_equal_the_basis_strings_on_grid():
    for lam, mu, nu in iproduct(range(0, 6), range(-8, 9), range(-3, 12)):
        p = BundleParams(lam, mu, nu)
        for h, f in iproduct(range(-1, 8), (-4, 1, 2 * nu)):
            cls = DivisorClass(h, f)
            strings = monomial_strings(p, cls)
            assert strings == [str(m) for m in monomial_basis(p, cls)], (p, cls)
            # The alphabet that lets cli write a basis without escaping it.
            assert set("".join(strings)) <= set("uvxyzw0123456789^*"), (p, cls)


def test_monomial_strings_edge_cases():
    p = BundleParams(1, 1, 3)
    assert monomial_strings(p, DivisorClass(0, 0)) == ["1"]
    assert monomial_strings(p, DivisorClass(0, 2)) == ["v^2", "u*v", "u^2"]
    assert monomial_strings(p, DivisorClass(-1, 4)) == []
    assert monomial_strings(p, DivisorClass(0, -1)) == []
    assert monomial_strings(p, DivisorClass(Fraction(1, 2), 1)) == []
    assert monomial_strings(p, DivisorClass(2, Fraction(1, 3))) == []


def fresh_power_table(monkeypatch):
    monkeypatch.setattr(grading, "_POWERS", dict.fromkeys(VARIABLES, ("",)))
    grading._fibers.cache_clear()


def assert_power_table_is_bounded_and_right():
    for s, table in grading._POWERS.items():
        assert len(table) <= grading._POWER_TABLE_SIZE
        built = ("", f"{s}*", *(f"{s}^{k}*" for k in range(2, len(table))))
        assert table == built[:len(table)]


def assert_fiber_table_is_bounded_and_right():
    # At most 30 keys before, and 30 after h = 0, ..., 29 are read: so the
    # keys were among them.
    assert grading._fibers.cache_info().currsize <= 30
    for h in range(30):
        parts = sorted(_fiber_parts(h))
        assert len(parts) <= grading._POWER_TABLE_SIZE
        assert grading._fibers(h) == tuple(
            (d, e, g, str(ev(c=c, d=d, e=e, f=g)) if h else "")
            for c, d, e, g in parts), h
    assert sum(len(grading._fibers(h)) for h in range(30)) == 8175
    assert grading._fibers.cache_info().currsize == 30


def test_fiber_table_holds_each_small_h_degree_once(monkeypatch):
    fresh_power_table(monkeypatch)
    p = BundleParams(1, 2, 3)
    for h in range(-1, 35):
        for f in (-1, 0, 7):
            monomial_strings(p, DivisorClass(h, f))
    assert grading._fibers.cache_info().currsize == 30  # 29 has 950 parts, 30 has 1041
    assert len(grading._fibers(6)) == 23 and grading._fibers(0) == ((0, 0, 0, ""),)
    table = grading._fibers(6)
    monomial_strings(BundleParams(2, 3, 5), DivisorClass(6, 10))
    assert grading._fibers(6) is table  # read, not built again
    assert_fiber_table_is_bounded_and_right()


def test_monomial_strings_past_the_fiber_table(monkeypatch):
    fresh_power_table(monkeypatch)
    for p in (BundleParams(0, 0, 0), BundleParams(1, -1, 2), BundleParams(2, 3, 5)):
        for h, f in iproduct(range(30, 35), (-2, 1, 3)):
            cls = DivisorClass(h, f)
            assert monomial_strings(p, cls) == [str(m) for m in monomial_basis(p, cls)]
    assert monomial_strings(BundleParams(1, 1, 1), DivisorClass(120, 0)) == ["x^120"]
    assert grading._fibers.cache_info().currsize == 0


def test_monomial_strings_past_the_power_table(monkeypatch):
    fresh_power_table(monkeypatch)
    p, cls = BundleParams(0, 0, 0), DivisorClass(0, 3000)
    assert monomial_strings(p, cls) == [str(m) for m in monomial_basis(p, cls)]
    assert grading._POWERS["u"] == ("",)  # 3000 is past the table: built per call
    p, cls = BundleParams(1, 1, 3), DivisorClass(2, 600)
    assert monomial_strings(p, cls) == [str(m) for m in monomial_basis(p, cls)]
    assert len(grading._POWERS["u"]) == 601
    assert_power_table_is_bounded_and_right()


def test_power_table_keeps_exponents_below_its_size(monkeypatch):
    fresh_power_table(monkeypatch)
    table = grading._powers("x", grading._POWER_TABLE_SIZE - 1)
    assert len(table) == 1024 and grading._POWERS["x"] is table
    longer = grading._powers("x", grading._POWER_TABLE_SIZE)
    assert len(longer) == 1025 and longer[:1024] == table
    assert grading._POWERS["x"] is table  # built for the call, not kept


def test_monomial_strings_in_threads_equal_them_in_one(monkeypatch):
    # Exponents and H-degrees grow from 0 past the tables' bound, so the
    # threads grow both tables.
    p = BundleParams(1, 2, 3)
    classes = [DivisorClass(h, f) for f in range(0, 1300, 100) for h in (0, 2, 4)]
    classes += [DivisorClass(h, h) for h in range(35)]
    fresh_power_table(monkeypatch)
    expected = [monomial_strings(p, cls) for cls in classes]
    fresh_power_table(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # so the threads interleave inside the tables
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(lambda cls: monomial_strings(p, cls), classes,
                                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert_power_table_is_bounded_and_right()
    assert grading._fibers.cache_info().currsize == 30
    assert_fiber_table_is_bounded_and_right()


def test_monomial_strings_refuses_huge_bases_quickly(monkeypatch):
    for p, cls, reason in (
            (BundleParams(0, 0, 0), DivisorClass(6, 10**8),
             r"monomials, more than the 1000000 that basis lists"),
            # The largest count printed in full, 640 nines, and the first not.
            (BundleParams(0, 0, 0), DivisorClass(0, 10**640 - 2),
             rf"has {'9' * 640} monomials, more than the 1000000 that basis lists"),
            (BundleParams(0, 0, 0), DivisorClass(0, 10**640 - 1),
             r"has 10\^640 or more monomials, more than the 1000000 that basis lists"),
            # A count that str() cannot print under the default digit limit.
            (BundleParams(0, 0, 0), DivisorClass(6, 10**4299),
             r"has 10\^640 or more monomials, more than the 1000000 that basis lists"),
            (BundleParams(1, 1, 1), DivisorClass(10**8, 0),
             r"more than 1000000 fiber monomials"),
            # Past the fiber table (h > 29): 30,787 parts, and too many monomials.
            (BundleParams(0, 0, 0), DivisorClass(100, 40),
             r"has 1262267 monomials, more than the 1000000 that basis lists"),
            # A class or a bundle that str() cannot print.
            (BundleParams(0, 0, 0), DivisorClass(6, 10**5000),
             r"has 10\^640 or more monomials, more than the 1000000 that basis lists"),
            (BundleParams(0, 0, 0), DivisorClass(10**5000, 0),
             r"more than 1000000 fiber monomials"),
            (BundleParams(0, 0, -10**5000), DivisorClass(6, 0),
             r"has 10\^640 or more monomials, more than the 1000000 that basis lists")):
        for basis in (monomial_strings, monomial_basis):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=reason):
                basis(p, cls)
            assert time.perf_counter() - start < 5
    # At the bound: a basis of exactly MAX_BASIS_MONOMIALS monomials is listed.
    monkeypatch.setattr(grading, "MAX_BASIS_MONOMIALS", 10)
    for basis in (monomial_strings, monomial_basis):
        assert len(basis(BundleParams(0, 0, 0), DivisorClass(0, 9))) == 10
        with pytest.raises(ValueError, match="has 11 monomials, more than the 10 that"):
            basis(BundleParams(0, 0, 0), DivisorClass(0, 10))


def test_monomial_strings_past_the_fiber_table_refuses_before_spelling(monkeypatch):
    # The monomial count of the kept parts refuses before any factor is
    # spelt: the power tables are as fresh as before the call.
    fresh_power_table(monkeypatch)
    fresh = dict(grading._POWERS)
    with pytest.raises(ValueError, match="has 1262267 monomials"):
        monomial_strings(BundleParams(0, 0, 0), DivisorClass(100, 40))
    assert grading._POWERS == fresh


def test_count_refuses_and_strata_answer_huge_classes_quickly(monkeypatch):
    # Past MAX_BASIS_MONOMIALS fiber parts (h >= 327) the count refuses
    # before the walk, which would take hours at h = 10**8.  The strata
    # read at most 22 parts at every h: on P(1,1,1) with f = 0 only x^h is
    # kept, so the base locus is V(x).
    assert (fiber_part_count(DivisorClass(326, 0)) <= grading.MAX_BASIS_MONOMIALS
            < fiber_part_count(DivisorClass(327, 0)))
    for cls in (DivisorClass(10**8, 0), DivisorClass(10**5000, 0)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"more than 1000000 fiber monomials"):
            monomial_count(BundleParams(1, 1, 1), cls)
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        assert base_locus_strata(BundleParams(1, 1, 1), cls) == [Stratum(frozenset("x"))]
        assert time.perf_counter() - start < 1
    # At the bound: h = 6 has 23 fiber parts and h = 7 has 31.  Only the
    # count reads the bound.
    monkeypatch.setattr(grading, "MAX_BASIS_MONOMIALS", 23)
    p = BundleParams(0, 0, 0)
    assert monomial_count(p, DivisorClass(6, 0)) == 23
    assert base_locus_strata(p, DivisorClass(6, 0)) == []
    with pytest.raises(ValueError, match=r"\|7H\| has more than 23 fiber"):
        monomial_count(p, DivisorClass(7, 0))
    assert base_locus_strata(p, DivisorClass(7, 0)) == [Stratum(frozenset("xyz")),
                                                         Stratum(frozenset("xyw"))]


def test_fiber_part_count_matches_the_enumeration_on_grid():
    for h in range(-2, 40):
        for f in (0, Fraction(1, 2), 5):
            cls = DivisorClass(h, f)
            parts = list(_fiber_parts(h)) if integral(cls) else []
            assert fiber_part_count(cls) == len(parts), cls
        if h < 13:  # every solution of c + d + 2*e + 3*g = h, in lexicographic order
            assert list(_fiber_parts(h)) == [t for t in iproduct(range(h + 1), repeat=4)
                                             if t[0] + t[1] + 2 * t[2] + 3 * t[3] == h], h
    assert fiber_part_count(DivisorClass(Fraction(7, 2), 0)) == 0


def degrees_by_int(cls):
    """grading._degrees as int() and as_integer_ratio() read a class: (h, f)
    when both denominators are 1, else (-1, 0)."""
    (_, s), (_, t) = cls.h.as_integer_ratio(), cls.f.as_integer_ratio()
    return (int(cls.h), int(cls.f)) if s == t == 1 else (-1, 0)


def triple_by_ratio(p, a, b, c):
    """chow.triple_on_x with its six entries read by as_integer_ratio()."""
    (ha, sa), (fa, ta) = a.h.as_integer_ratio(), a.f.as_integer_ratio()
    (hb, sb), (fb, tb) = b.h.as_integer_ratio(), b.f.as_integer_ratio()
    (hc, sc), (fc, tc) = c.h.as_integer_ratio(), c.f.as_integer_ratio()
    if not sa == ta == sb == tb == sc == tc == 1:
        ha, fa, hb, fb, hc, fc = a.h, a.f, b.h, b.f, c.h, c.f
    twice = (2 * (fa * hb * hc + ha * fb * hc + ha * hb * fc)
             - (2 * p.lam + p.mu) * ha * hb * hc)
    return Fraction(twice, 2) if type(twice) is int else twice / 2


def outcome(function, *args):
    """function(*args), or the type and message of what it raises."""
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - the refusal is the outcome
        return type(error), str(error)


def test_slot_reads_agree_with_int_reads_at_the_boundaries(monkeypatch):
    # h in {-1, 0, 1/2, 29, 30}, on both sides of the spelt fiber table, f in
    # {-1/3, 0, 10**40}, and a 5,000-digit entry, which str() refuses.
    big = 10 ** 4999
    classes = [DivisorClass(h, f) for h in (-1, 0, Fraction(1, 2), 29, 30)
               for f in (Fraction(-1, 3), 0, 10 ** 40)]
    classes += [DivisorClass(6, big), DivisorClass(big, 0)]
    for cls in classes:
        degrees = grading._degrees(cls)
        assert degrees == degrees_by_int(cls) and {type(n) for n in degrees} == {int}, cls
    functions = (lambda p, cls: fiber_part_count(cls), monomial_count, monomial_strings,
                 monomial_basis, base_locus_strata)
    # All parts kept at f = 0, and x^h alone.
    bundles = (BundleParams(0, 0, 0), BundleParams(1, 2, 3))
    read = [outcome(f, p, cls) for p in bundles for cls in classes for f in functions]
    monkeypatch.setattr(grading, "_degrees", degrees_by_int)
    assert read == [outcome(f, p, cls) for p in bundles for cls in classes for f in functions]
    p = bundles[1]
    for a, b, c in combinations_with_replacement(classes, 3):
        got = triple_on_x(p, a, b, c)
        assert type(got) is Fraction and got == triple_by_ratio(p, a, b, c), (a, b, c)


def test_w_squared_always_a_hypersurface_section():
    # w^2 has bidegree (2*nu, 6), the hypersurface class, for every bundle.
    for lam, mu, nu in iproduct(range(0, 4), range(-5, 6), range(0, 6)):
        p = BundleParams(lam, mu, nu)
        assert ev(f=2) in monomial_basis(p, DivisorClass(6, 2 * nu))


# --- base locus strata --------------------------------------------------------

def cover_exists(supports):
    """Brute-force check for a non-irrelevant zero set meeting every support."""
    from dp1toric.grading import VARIABLES, _is_irrelevant
    for r in range(7):
        from itertools import combinations
        for combo in combinations(VARIABLES, r):
            z = frozenset(combo)
            if _is_irrelevant(z):
                continue
            if all(z & s for s in supports):
                return True
    return False


# The cofactors in u and v of a fiber part whose residual F-degree r is 0,
# 1 or at least 2 (key 2): 1; u and v; u, v and u*v.
UV_SUPPORTS = {0: ((),), 1: (("u",), ("v",)), 2: (("u",), ("v",), ("u", "v"))}


def basis_supports(p, cls):
    """The supports of the monomials of cls on P(p), enumerated here and not
    read from monomial_basis: each solution (c, d, e, g) of c + d + 2e + 3g
    = h, by its own loops, leaves u and v the residual F-degree r = f -
    lambda*d - mu*e - nu*g of the grading matrix's top row, whose
    cofactors (UV_SUPPORTS) join its fiber support."""
    if not integral(cls):
        return set()
    h, f = int(cls.h), int(cls.f)
    top = GradingMatrix.from_params(p).top_row
    supports = set()
    for g in range(h // 3 + 1):
        for e in range((h - 3 * g) // 2 + 1):
            for d in range(h - 3 * g - 2 * e + 1):
                part = (h - 3 * g - 2 * e - d, d, e, g)
                r = f - sum(t * k for t, k in zip(top[2:], part))
                fiber = frozenset(v for v, k in zip("xyzw", part) if k)
                supports.update(fiber.union(uv) for uv in UV_SUPPORTS.get(min(r, 2), ()))
    return supports


def reference_strata(p, cls):
    """Base-locus strata by a scan of frozensets: every non-irrelevant zero
    set meeting every support, keeping the inclusion-minimal ones."""
    from itertools import combinations

    from dp1toric.grading import VARIABLES, _is_irrelevant
    supports = basis_supports(p, cls)
    covering = [frozenset(combo) for r in range(7)
                for combo in combinations(VARIABLES, r)
                if not _is_irrelevant(frozenset(combo))
                and all(frozenset(combo) & s for s in supports)]
    minimal = [z for z in covering if not any(o < z for o in covering)]
    minimal.sort(key=lambda z: (len(z), sorted(VARIABLES.index(v) for v in z)))
    return [Stratum(z) for z in minimal]


def test_strata_match_set_scan_on_grid():
    # The second grid has lambda, mu and nu < 0 and h up to 12, where a part
    # b^k * m that the strata read has up to two cofactors m.
    grids = (iproduct(range(0, 3), range(-3, 4), range(0, 5), range(0, 7), range(-2, 7, 2)),
             iproduct((-2, 1), (-3, 2), (-2, 3), range(0, 13), (-3, 1)))
    for lam, mu, nu, h, f in chain(*grids):
        p, cls = BundleParams(lam, mu, nu), DivisorClass(h, f)
        if basis_supports(p, cls):
            assert base_locus_strata(p, cls) == reference_strata(p, cls), (p, cls)
        else:
            with pytest.raises(EmptyLinearSystem):
                base_locus_strata(p, cls)


def test_strata_that_hang_on_one_cheapest_part():
    # On P(lambda, -4*lambda, 0), |6H| has the one stratum {x, z, w}, of
    # codimension 3: y^6, the one part without x, z and w, has F-degree
    # 6*lambda > 0, while w^2, z^3 and x^6 are sections, so no pair of x,
    # z and w is a stratum.
    for lam in range(1, 6):
        p, cls = BundleParams(lam, -4 * lam, 0), DivisorClass(6, 0)
        assert base_locus_strata(p, cls) == [Stratum(frozenset("xzw"))]
        assert reference_strata(p, cls) == [Stratum(frozenset("xzw"))]
    # On P(0,0,0) every part is kept, so only the H-degree decides: 7 is
    # neither even (no z^k) nor a multiple of 3 (no w^k); 10**8 is even
    # and not a multiple of 3.
    p = BundleParams(0, 0, 0)
    assert (base_locus_strata(p, DivisorClass(7, 0)) == reference_strata(p, DivisorClass(7, 0))
            == [Stratum(frozenset("xyz")), Stratum(frozenset("xyw"))])
    assert base_locus_strata(p, DivisorClass(10**8, 0)) == [Stratum(frozenset("xyz"))]


def test_dz_certificate_matches_set_scan_on_grid():
    # lambda < 0 and nu < 0 included: the certificate is the same in every gauge.
    for lam, mu, nu in iproduct(range(-3, 6), range(-8, 9), range(-4, 11)):
        p = BundleParams(lam, mu, nu)
        hypersurface = basis_supports(p, DivisorClass(6, 2 * nu))
        dz3 = 3 * torus_divisor_class(p, "z")
        strata = reference_strata(p, dz3)
        expected = all(
            s.codim >= 2 and any(h.isdisjoint(s.zero_set) for h in hypersurface)
            for s in strata)
        assert is_dz_movable_on_x(p) == expected, p
        assert base_locus_strata(p, dz3) == strata, p


def test_strata_of_three_dz_on_1_1_3():
    p = BundleParams(1, 1, 3)
    strata = base_locus_strata(p, 3 * torus_divisor_class(p, "z"))
    assert strata == [Stratum(frozenset({"x", "z"}))]
    assert strata[0].codim == 2


def test_reference_hypersurface_class_is_base_point_free():
    p = BundleParams(0, 2, 3)
    assert base_locus_strata(p, DivisorClass(6, 6)) == []
    # Independent check: already six named sections have no common zero
    # compatible with the irrelevant ideal.  (The four sections w^2, z^3,
    # u^6 x^6, v^6 y^6 alone do share the zero (0:1; 1:0:0:0); the crossed
    # monomials are needed to pin it down.)
    named = [ev(f=2), ev(e=3), ev(a=6, c=6), ev(b=6, d=6), ev(a=6, d=6),
             ev(b=6, c=6)]
    assert not cover_exists([support(m) for m in named])


def test_trivial_class_has_no_base_locus():
    assert base_locus_strata(BundleParams(3, -1, 4), DivisorClass(0, 0)) == []


def test_empty_linear_system_raises():
    # The last two name a class or a bundle that str() cannot print.
    for p, cls in ((BundleParams(0, 2, 3), DivisorClass(-1, 0)),
                   (BundleParams(0, 0, 0), DivisorClass(6, -10**5000)),
                   (BundleParams(0, 0, 10**5000), DivisorClass(1, -1))):
        with pytest.raises(EmptyLinearSystem):
            base_locus_strata(p, cls)


def test_strata_form_antichain_without_irrelevant_sets():
    from dp1toric.grading import BASE_VARS, FIBER_VARS
    cases = [
        (BundleParams(1, 1, 3), DivisorClass(6, 3)),
        (BundleParams(0, -2, 0), DivisorClass(6, -6)),
        (BundleParams(2, 3, 5), DivisorClass(6, 9)),
        (BundleParams(1, 0, 2), DivisorClass(6, 0)),
        (BundleParams(1, -2, 1), DivisorClass(2, -2)),
    ]
    for p, cls in cases:
        strata = base_locus_strata(p, cls)
        zero_sets = [s.zero_set for s in strata]
        for i, z in enumerate(zero_sets):
            assert not BASE_VARS <= z and not FIBER_VARS <= z
            for j, other in enumerate(zero_sets):
                assert i == j or not z < other and not other < z


def test_stratum_rejects_irrelevant_zero_sets():
    with pytest.raises(ValueError):
        Stratum(frozenset({"u", "v"}))
    with pytest.raises(ValueError):
        Stratum(frozenset({"x", "y", "z", "w"}))


# --- movability certificate ---------------------------------------------------

def test_dz_movable_on_reference_failures():
    assert is_dz_movable_on_x(BundleParams(1, 1, 3))
    assert is_dz_movable_on_x(BundleParams(2, 3, 5))


def test_dz_not_movable_recorded_oracle():
    # Oracle record for P(0,-2,0): |3 D_z| = |6H - 6F| has the single
    # section z^3, whose base locus is the codimension-1 stratum {z}.
    p = BundleParams(0, -2, 0)
    dz3 = 3 * torus_divisor_class(p, "z")
    assert dz3 == DivisorClass(6, -6)
    assert monomial_basis(p, dz3) == [ev(e=3)]
    strata = base_locus_strata(p, dz3)
    assert strata == [Stratum(frozenset({"z"}))]
    assert strata[0].codim == 1
    assert not is_dz_movable_on_x(p)
