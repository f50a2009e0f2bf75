"""Intersection products and the anticanonical cube."""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from dp1toric.chow import (CycleClass, DegreeMismatch, DegreeOverflow,
                           anticanonical_on_x, derive_h4, evaluate_top,
                           minus_k_cubed, product, triple_on_x, x_class)
from dp1toric.classify import DEFAULT_BOX, K2_FAILURE_TRIPLETS, oracle_search
from dp1toric.conditions import nef_threshold, validity
from dp1toric.grading import (VARIABLES, F, H, BundleParams, DivisorClass, _fiber_parts,
                              torus_divisor_class)

Q = Fraction


def test_product_fiber_squared_vanishes():
    assert product([F, F]).coefficients == {}


def test_product_single_factor_is_identity():
    assert product([H]).coefficients == {(1, 0): Q(1)}


def test_product_cross_terms_cancel():
    assert product([H + F, H - F]).coefficients == {(2, 0): Q(1)}


def test_product_rejects_too_many_factors():
    with pytest.raises(DegreeOverflow):
        product([H] * 5)
    with pytest.raises(ValueError):
        product([])


def test_product_symmetric_and_multilinear():
    a = DivisorClass(2, -1)
    b = DivisorClass(Q(1, 2), 3)
    c = DivisorClass(-1, Q(5, 6))
    assert product([a, b, c]) == product([c, a, b]) == product([b, c, a])
    s, t = Q(3), Q(-7, 2)
    lhs = product([s * a + t * b, c])
    assert lhs.coefficient(2, 0) == (s * product([a, c]).coefficient(2, 0)
                                     + t * product([b, c]).coefficient(2, 0))
    assert lhs.coefficient(1, 1) == (s * product([a, c]).coefficient(1, 1)
                                     + t * product([b, c]).coefficient(1, 1))


def expand_product(classes):
    """Reference: multiply out term by term in a dict keyed by (i, j) for
    H^i * F^j, dropping F^2, then drop the zero coefficients."""
    acc = {(0, 0): Q(1)}
    for cls in classes:
        nxt = {}
        for (i, j), q in acc.items():
            if cls.h != 0:
                key = (i + 1, j)
                nxt[key] = nxt.get(key, Q(0)) + q * cls.h
            if cls.f != 0 and j + 1 < 2:
                key = (i, j + 1)
                nxt[key] = nxt.get(key, Q(0)) + q * cls.f
        acc = nxt
    return {key: q for key, q in acc.items() if q != 0}


def test_product_equals_the_term_by_term_expansion():
    rng = random.Random(20181)
    entries = [Q(0), Q(1), Q(-1), Q(3), Q(-7), Q(1, 2), Q(-5, 6), Q(7, 3)]

    def entry():
        if rng.random() < 0.5:
            return rng.choice(entries)
        return Q(rng.randint(-12, 12), rng.randint(1, 9))

    for _ in range(2000):
        classes = [DivisorClass(entry(), entry()) for _ in range(rng.randint(1, 4))]
        assert product(classes).coefficients == expand_product(classes), classes


def random_entry(rng):
    """0, an integer or a fraction with a small denominator (halves and
    thirds among them)."""
    kind = rng.randrange(4)
    if kind == 0:
        return Q(0)
    if kind == 1:
        return Q(rng.randint(-9, 9))
    return Q(rng.randint(-12, 12), rng.choice([2, 3, 6, rng.randint(1, 9)]))


def test_values_at_the_api_edge_are_fractions():
    # Integer arithmetic inside must not leak an int (or a float) out.
    rng = random.Random(8)
    for lam, mu, nu in iproduct(range(-2, 3), range(-3, 4), range(-1, 4)):
        p = BundleParams(lam, mu, nu)
        assert type(derive_h4(p)) is Fraction
        for _ in range(3):
            a, b, c = (DivisorClass(random_entry(rng), random_entry(rng))
                       for _ in range(3))
            assert type(triple_on_x(p, a, b, c)) is Fraction
            for k in range(1, 5):
                cyc = product([a, b, c, x_class(p)][:k])
                assert all(type(q) is Fraction for q in cyc.coefficients.values())
            assert type(evaluate_top(p, product([a, b, c, F]))) is Fraction
            assert type(evaluate_top(p, product([F, F, F, F]))) is Fraction


def test_triple_on_x_equals_the_generic_path():
    rng = random.Random(20182)
    for _ in range(2000):
        p = BundleParams(rng.randint(-4, 6), rng.randint(-10, 10), rng.randint(-6, 12))
        a, b, c = (DivisorClass(random_entry(rng), random_entry(rng))
                   for _ in range(3))
        assert triple_on_x(p, a, b, c) == evaluate_top(p, product([a, b, c, x_class(p)]))


def test_triple_on_x_reads_every_denominator():
    # Six entries over one denominator other than 1 take the Fraction path.
    p = BundleParams(1, 2, 4)
    half = DivisorClass(Q(1, 2), Q(3, 2))
    assert triple_on_x(p, half, half, half) == Q(7, 8)
    a, b, c = (DivisorClass(Q(1, 2), Q(-3, 2)), DivisorClass(Q(5, 2), Q(1, 2)),
               DivisorClass(Q(-1, 2), Q(7, 2)))
    assert triple_on_x(p, a, b, c) == evaluate_top(p, product([a, b, c, x_class(p)]))
    # The first k of the six entries (a.h, a.f, b.h, ..., c.f) over 2 and
    # the rest integers: each denominator decides the path on its own.
    for k in range(7):
        entries = [Q(2 * i + 1, 2) if i < k else i + 1 for i in range(6)]
        a, b, c = (DivisorClass(*entries[i:i + 2]) for i in (0, 2, 4))
        assert triple_on_x(p, a, b, c) == evaluate_top(p, product([a, b, c, x_class(p)])), k


def test_evaluate_top_by_the_derived_h4_on_non_integral_products():
    # An independent route to the degree: top*(H^4) + below*(H^3*F), with
    # top and below from the term-by-term expansion and (H^4) from the
    # vanishing product of the fiber divisors.
    rng = random.Random(20184)
    checked = 0
    while checked < 500:
        p = BundleParams(rng.randint(-4, 6), rng.randint(-10, 10), rng.randint(-6, 12))
        classes = [DivisorClass(random_entry(rng), random_entry(rng)) for _ in range(4)]
        terms = expand_product(classes)
        if all(q.denominator == 1 for q in terms.values()):
            continue
        top, below = terms.get((4, 0), Q(0)), terms.get((3, 1), Q(0))
        assert evaluate_top(p, product(classes)) == top * derive_h4(p) + below / 6, classes
        checked += 1


def test_evaluate_top_reference_values():
    h4 = product([H] * 4)
    assert evaluate_top(BundleParams(0, -2, 0), h4) == Q(1, 6)
    h3f = product([H, H, H, F])
    for p in [BundleParams(0, 0, 0), BundleParams(3, -5, 7), BundleParams(2, 3, 5)]:
        assert evaluate_top(p, h3f) == Q(1, 6)
    assert evaluate_top(BundleParams(1, 1, 1), CycleClass({})) == 0


def test_evaluate_top_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        evaluate_top(BundleParams(0, 0, 0), product([H, H, H]))
    with pytest.raises(DegreeMismatch):
        evaluate_top(BundleParams(0, 0, 0),
                     CycleClass({(1, 0): Q(1), (3, 1): Q(1)}))


def test_derive_h4_examples():
    assert derive_h4(BundleParams(0, -2, 0)) == Q(1, 6)
    assert derive_h4(BundleParams(0, 0, 0)) == 0
    assert derive_h4(BundleParams(2, 3, 6)) == Q(-11, 12)


def test_derive_h4_matches_closed_form_on_grid():
    for lam, mu, nu in iproduct(range(-4, 5), repeat=3):
        p = BundleParams(lam, mu, nu)
        assert derive_h4(p) == -Q(6 * lam + 3 * mu + 2 * nu, 36)


def test_fiber_divisor_product_vanishes():
    # D_x . D_y . D_z . D_w = 0 on every bundle.
    for lam, mu, nu in iproduct(range(-3, 4), repeat=3):
        p = BundleParams(lam, mu, nu)
        cyc = product([torus_divisor_class(p, t) for t in "xyzw"])
        assert evaluate_top(p, cyc) == 0


def test_x_class():
    assert x_class(BundleParams(0, 2, 3)) == DivisorClass(6, 6)
    assert x_class(BundleParams(0, 0, 0)) == DivisorClass(6, 0)
    assert x_class(BundleParams(4, 6, 10)) == DivisorClass(6, 20)


def test_anticanonical_class():
    assert anticanonical_on_x(BundleParams(0, 2, 3)) == DivisorClass(1, 1)
    assert anticanonical_on_x(BundleParams(0, 0, 0)) == DivisorClass(1, 2)
    assert anticanonical_on_x(BundleParams(2, 3, 5)) == DivisorClass(1, 2)


def test_fiber_times_anticanonical_squared_is_one():
    p = BundleParams(1, 1, 3)
    k = anticanonical_on_x(p)
    assert triple_on_x(p, F, k, k) == 1


def test_fiber_squared_triple_vanishes():
    p = BundleParams(2, -1, 4)
    assert triple_on_x(p, F, F, anticanonical_on_x(p)) == 0
    assert triple_on_x(p, F, F, DivisorClass(Q(7, 3), -2)) == 0


def test_anticanonical_cube_reconciled_value():
    # Expansion and closed form agree; the frozen value is 1.
    p = BundleParams(0, -2, 0)
    k = anticanonical_on_x(p)
    assert triple_on_x(p, k, k, k) == 1
    assert minus_k_cubed(p) == 1


def test_minus_k_cubed_examples():
    assert minus_k_cubed(BundleParams(0, 0, 0)) == 6
    assert minus_k_cubed(BundleParams(1, 1, 3)) == Q(3, 2)
    assert minus_k_cubed(BundleParams(0, 1, 2)) == Q(5, 2)


def test_minus_k_cubed_matches_expansion_on_grid():
    for lam, mu, nu in iproduct(range(-4, 5), repeat=3):
        p = BundleParams(lam, mu, nu)
        k = anticanonical_on_x(p)
        assert minus_k_cubed(p) == triple_on_x(p, k, k, k)


# Classes whose two entries have different denominators, multiplied in
# Fractions, a path integral classes never take.
UNEQUAL = [DivisorClass(Q(1, 2), Q(1, 3)), DivisorClass(Q(7, 3), -2),
           DivisorClass(Q(-5, 6), Q(3, 4))]


def fraction_top_value(p, h4_coeff, h3f_coeff):
    """Degree of h4_coeff*H^4 + h3f_coeff*H^3*F, in Fraction arithmetic."""
    return h4_coeff * -Q(6 * p.lam + 3 * p.mu + 2 * p.nu, 36) + h3f_coeff * Q(1, 6)


def test_unequal_denominators_match_fraction_arithmetic():
    p = BundleParams(2, -3, 5)
    a, b, c = UNEQUAL
    for classes in ([a], [a, b], [a, b, c], [a, b, c, F], [c, c, b, a]):
        assert product(classes).coefficients == expand_product(classes), classes
    # (a . b . c) = top*H^3 + below*H^2*F, then times X = 6H + 2*nu*F.
    top = a.h * b.h * c.h
    below = a.f * b.h * c.h + a.h * b.f * c.h + a.h * b.h * c.f
    expected = fraction_top_value(p, 6 * top, 6 * below + 2 * p.nu * top)
    assert triple_on_x(p, a, b, c) == expected
    assert triple_on_x(p, c, a, b) == expected
    cyc = product([a, b, c, x_class(p)])
    assert evaluate_top(p, cyc) == expected
    four = product([a, b, c, a])
    assert evaluate_top(p, four) == fraction_top_value(
        p, four.coefficient(4, 0), four.coefficient(3, 1))
    assert evaluate_top(p, CycleClass({(4, 0): Q(1, 2), (3, 1): Q(1, 3)})) == \
        fraction_top_value(p, Q(1, 2), Q(1, 3))


def test_classes_from_fraction_int_and_string_are_equal_fractions():
    for h, f in ((Q(3, 2), Q(2)), (Q(3, 2), 2), ("3/2", "2")):
        cls = DivisorClass(h, f)
        assert cls == DivisorClass(Q(3, 2), Q(2))
        assert type(cls.h) is Fraction and type(cls.f) is Fraction
    for q in (Q(3, 2), "3/2"):
        cyc = CycleClass({(4, 0): q, (3, 1): 1})
        assert cyc == CycleClass({(4, 0): Q(3, 2), (3, 1): Q(1)})
        assert all(type(v) is Fraction for v in cyc.coefficients.values())
    assert CycleClass({(4, 0): 3}).coefficients == {(4, 0): Q(3)}


def test_float_entries_are_refused():
    with pytest.raises(TypeError, match=r"0\.1"):
        DivisorClass(0.1, 0)
    with pytest.raises(TypeError, match=r"2\.5"):
        DivisorClass(1, 2.5)
    with pytest.raises(TypeError, match=r"0\.5"):
        DivisorClass(1, 1) * 0.5
    with pytest.raises(TypeError, match=r"0\.25"):
        CycleClass({(4, 0): 0.25})


# --- orbifold Riemann-Roch: chi(X, aH + bF) by two routes ---------------------

def chi_on_bundle(p, a, b):
    """chi(T, aH + bF) from the Cox ring, for a >= -6.  The push-forward to
    P^1 is the sum of O(r) over the fiber parts x^c y^d z^e w^g of H-degree
    a, r = b - lambda*d - mu*e - nu*g, and chi(P^1, O(r)) = r + 1 for every
    r, negative ones included.  P(1,1,2,3) has no cohomology in degrees -6
    to -1 (its weights sum to 7), so then chi is 0."""
    assert a >= -6
    return sum(b - p.lam * d - p.mu * e - p.nu * g + 1 for _, d, e, g in _fiber_parts(a))


def chi_by_cox(p, a, b):
    """chi(X, D) = chi(T, D) - chi(T, D - X), from 0 -> O(D - X) -> O(D) -> O_X(D) -> 0."""
    x = x_class(p)
    return chi_on_bundle(p, a, b) - chi_on_bundle(p, a - int(x.h), b - int(x.f))


def second_chern_on_x(p):
    """(c_2(X).H, c_2(X).F): c(X) = prod(1 + D_i) / (1 + X) on X, with D_i the
    six coordinate divisors, so c_2(X) = sigma_2 - sigma_1*X + X^2 restricted
    to X, and every product is a `triple_on_x`."""
    columns = [torus_divisor_class(p, s) for s in VARIABLES]
    sigma1, x = sum(columns, DivisorClass(0, 0)), x_class(p)
    return tuple(sum(triple_on_x(p, di, dj, d) for i, di in enumerate(columns)
                     for dj in columns[i + 1:])
                 - triple_on_x(p, sigma1, x, d) + triple_on_x(p, x, x, d) for d in (H, F))


def chi_by_riemann_roch(p, a, b, c2):
    """Orbifold Riemann-Roch (Buckley-Reid-Zhou 2013) on X with N = 2*nu - 3*mu
    points of type 1/2(1,1,1), where aH + bF is of local type 1/2(1,1,1)
    exactly when a is odd:

        1 + D.(D - K).(2D - K)/12 + c_2.D/12 - (N/8)*[a odd].
    """
    d, minus_k = DivisorClass(a, b), anticanonical_on_x(p)
    half_points = 2 * p.nu - 3 * p.mu
    return (1 + triple_on_x(p, d, d + minus_k, 2 * d + minus_k) / 12
            + (a * c2[0] + b * c2[1]) / 12 - Q(half_points, 8) * (a % 2))


def test_orbifold_riemann_roch_equals_the_cox_ring_count():
    valid = [p for p in map(BundleParams._make, iproduct(range(4), range(-5, 6), range(9)))
             if validity(p).is_valid]
    assert len(valid) == 185
    for p in valid:
        c2, minus_k = second_chern_on_x(p), anticanonical_on_x(p)
        # Kawamata: 24 chi(O_X) = -K.c_2 + (3/2)*N, with chi(O_X) = 1.
        assert minus_k.h * c2[0] + minus_k.f * c2[1] == 24 - Q(3, 2) * (2 * p.nu - 3 * p.mu), p
        # Up to a = 7: below 6, chi(T, D - X) is 0 and the restriction untested.
        for a, b in iproduct(range(8), (-1, 3)):
            assert chi_by_cox(p, a, b) == chi_by_riemann_roch(p, a, b, c2), (p, a, b)


# The invariants that tell the 14 oracle rows apart: ((-K_X)^3, the number
# N = 2*nu - 3*mu of half points, chi(X, -m*K_X) for m = 1, 2, 3).
INVARIANTS = {
    (0, -2, 0): (1, 6, (2, 6, 11)), (0, -1, 0): (Q(7, 2), 3, (4, 13, 30)),
    (0, -1, 1): (Q(1, 2), 5, (2, 5, 8)), (0, 0, 1): (3, 2, (4, 12, 27)),
    (0, 1, 2): (Q(5, 2), 1, (4, 11, 24)), (1, -2, 1): (0, 8, (1, 3, 3)),
    (1, 0, 2): (2, 4, (3, 9, 19)), (1, 1, 3): (Q(3, 2), 3, (3, 8, 16)),
    (1, 2, 4): (1, 2, (3, 7, 13)), (1, 3, 5): (Q(1, 2), 1, (3, 6, 10)),
    (2, 2, 5): (0, 4, (2, 4, 5)), (2, 3, 5): (Q(5, 2), 1, (4, 11, 24)),
    (2, 3, 6): (Q(-1, 2), 3, (2, 3, 2)), (4, 6, 10): (-1, 2, (2, 2, -1)),
}


def test_invariants_tell_the_oracle_rows_apart():
    """Each chi is computed by the Cox-ring count and equals orbifold
    Riemann-Roch.  The 14 rows have 13 tuples: (0,1,2) and (2,3,5) share
    one and are told apart by the sign of the nef threshold (-K_X is ample
    on (0,1,2) only), and (1,0,2)'s tuple is that of no reference row."""
    rows = oracle_search(DEFAULT_BOX)
    assert [tuple(r.params) for r in rows] == sorted(INVARIANTS)
    for r in rows:
        p, minus_k = r.params, anticanonical_on_x(r.params)
        assert (minus_k.h, minus_k.f % 1) == (1, 0), p
        classes = [(m, m * int(minus_k.f)) for m in (1, 2, 3)]
        c2 = second_chern_on_x(p)
        chis = tuple(chi_by_cox(p, a, b) for a, b in classes)
        assert chis == tuple(chi_by_riemann_roch(p, a, b, c2) for a, b in classes), p
        assert (minus_k_cubed(p), 2 * p.nu - 3 * p.mu, chis) == INVARIANTS[tuple(p)], p
    assert len(set(INVARIANTS.values())) == 13
    shared = [p for p, tup in INVARIANTS.items() if list(INVARIANTS.values()).count(tup) > 1]
    assert shared == [(0, 1, 2), (2, 3, 5)]
    assert [nef_threshold(BundleParams(*p)) < 0 for p in shared] == [True, False]
    assert set(K2_FAILURE_TRIPLETS) == set(INVARIANTS) - {(1, 0, 2)}
    assert all(INVARIANTS[p] != INVARIANTS[(1, 0, 2)] for p in K2_FAILURE_TRIPLETS)
