"""Exact top-intersection products on P(lambda, mu, nu) and its hypersurfaces.

Products of divisor classes are reduced modulo F^2 = 0 (distinct fibers
of the bundle are disjoint), so a product of k classes is a combination of
H^k and H^(k-1)*F.  A degree-4 class is a combination of H^4 and H^3*F,
whose values are

    (H^4) = -(6*lambda + 3*mu + 2*nu) / 36,    (H^3 * F) = 1/6.

The H^4 value can also be re-derived from the vanishing of the product of
the four fiber-coordinate divisors, which `derive_h4` does as an
independent cross-check of the closed form.

`_top_below` multiplies classes by the rule F^2 = 0, in ints on integer
pairs and in `Fraction`s on `DivisorClass`es, and each returned value is a
`Fraction`: one computed in ints is the shared `Fraction` of
`grading._over`, built once per value.  `triple_on_x` evaluates products
on the hypersurface X = 6H + 2*nu*F by one closed form, stated there.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .grading import (BOTTOM_ROW, BundleParams, DivisorClass, GradingMatrix,
                      _over, _signed_sum, rational, signed)


class DegreeOverflow(ValueError):
    """More than four divisor classes multiplied on a 4-fold."""


class DegreeMismatch(ValueError):
    """Cycle class of the wrong degree passed to a top evaluation."""


class CycleClass(NamedTuple("CycleClass", [("coefficients", dict)])):
    """Cycle class sum of q_{ij} * H^i * F^j with 0 <= i <= 4, j <= 1.

    Terms with F-exponent >= 2 are dropped on construction (the reduction
    F^2 = 0); zero coefficients are not stored.
    """

    __slots__ = ()

    def __new__(cls, coefficients: dict[tuple[int, int], Fraction] | None = None):
        reduced = {}
        for (i, j), q in (coefficients or {}).items():
            q = rational(q)
            if j >= 2 or q == 0:
                continue
            if not 0 <= i <= 4 or j < 0:
                raise ValueError(f"monomial H^{i}F^{j} out of range")
            reduced[(i, j)] = q
        return tuple.__new__(cls, (reduced,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.coefficients.get((i, j), _over(0, 1))

    def is_homogeneous(self, degree: int) -> bool:
        return all(i + j == degree for i, j in self.coefficients)

    def __str__(self) -> str:
        parts = []
        for (i, j), q in sorted(self.coefficients.items(), reverse=True):
            powers = [f"{sym}^{k}" if k > 1 else sym
                      for sym, k in (("H", i), ("F", j)) if k > 0]
            mono = "*".join(powers)
            parts.append(f"{signed(q)}*{mono}" if mono else signed(q))
        return _signed_sum(parts)


def _top_below(classes) -> tuple[int, int] | tuple[Fraction, Fraction]:
    """(top, below) with the product of the k classes (h, f) = h*H + f*F
    equal to top*H^k + below*H^(k-1)*F modulo F^2 = 0.  classes is an
    iterable of pairs (h, f), ints or Fractions alike, such as
    `DivisorClass`es or the integer columns of a grading matrix."""
    top, below = 1, 0
    for h, f in classes:
        top, below = top * h, below * h + top * f
    return top, below


def product(classes: list[DivisorClass]) -> CycleClass:
    """Product of k <= 4 divisor classes h_i*H + f_i*F, reduced by F^2 = 0.

    Only the terms with at most one F survive, so the product is
    (prod h_i)*H^k + (sum_j f_j * prod_{i != j} h_i)*H^(k-1)*F; both
    coefficients are accumulated factor by factor by `_top_below`.
    """
    if len(classes) == 0:
        raise ValueError("empty product")
    if len(classes) > 4:
        raise DegreeOverflow(f"{len(classes)} factors exceed the dimension 4")
    top, below = _top_below(classes)
    k = len(classes)
    return CycleClass({(k, 0): top, (k - 1, 1): below})


def evaluate_top(p: BundleParams, c: CycleClass) -> Fraction:
    """Degree of a top (degree-4) cycle class top*H^4 + below*H^3*F on
    P(lambda, mu, nu), by the closed forms of the module docstring:
    (H^4) = -(6*lambda + 3*mu + 2*nu)/36, (H^3*F) = 1/6."""
    if not c.is_homogeneous(4):
        raise DegreeMismatch(f"top evaluation needs degree 4, got {c}")
    return (c.coefficient(3, 1) / 6
            - c.coefficient(4, 0) * (6 * p.lam + 3 * p.mu + 2 * p.nu) / 36)


def derive_h4(p: BundleParams) -> Fraction:
    """Solve for (H^4) from the empty intersection of the fiber divisors.

    The four divisors D_x, D_y, D_z, D_w have no common point, so their
    product vanishes.  Expanding it leaves a linear equation in the unknown
    (H^4) with (H^3 * F) = 1/6 known; this derivation is independent of the
    closed form used by `evaluate_top` and `triple_on_x`.

    The class of D_s is the column (deg_H, deg_F) of s in the grading
    matrix (`torus_divisor_class`), so the four factors are read as integer
    pairs straight off the x, y, z and w columns, with no class built.
    With the product equal to top*H^4 + below*H^3*F, in ints, the equation
    is top*(H^4) + below/6 = 0, so (H^4) = -below / (6*top); top = 1*1*2*3,
    the product of the H-degrees, is never 0.
    """
    columns = zip(BOTTOM_ROW[2:], GradingMatrix.from_params(p).top_row[2:])
    top, below = _top_below(columns)
    return _over(-below, 6 * top)


def x_class(p: BundleParams) -> DivisorClass:
    """Class 6H + 2*nu*F of the degree-1 del Pezzo hypersurface."""
    return DivisorClass(6, 2 * p.nu)


def anticanonical_on_x(p: BundleParams) -> DivisorClass:
    """-K_X = H + (lambda + mu - nu + 2) F by adjunction."""
    return DivisorClass(1, p.lam + p.mu - p.nu + 2)


def triple_on_x(p: BundleParams, a: DivisorClass, b: DivisorClass,
                c: DivisorClass) -> Fraction:
    """Triple intersection (a . b . c) on the hypersurface X, which is
    (a . b . c . X) on the bundle: with (a . b . c) = top*H^3 + below*H^2*F,
    by the closed forms of `evaluate_top` (the nu terms cancel),

        (a . b . c)_X = (2*below - (2*lambda + mu)*top) / 2.

    tests/test_chow.py::test_triple_on_x_equals_the_generic_path checks it
    against `evaluate_top`.  Each entry of a `DivisorClass` is exactly a
    `Fraction` (`grading.rational`), whose slots _numerator and
    _denominator hold its reduced ratio, and they are read directly.  When
    the six denominators are 1, as for every class the library builds, top
    and below are products of the six numerators in ints and the result is
    `_over(twice, 2)`; otherwise they are products of the `Fraction`s, and
    twice the result is halved.  ::test_triple_on_x_reads_every_denominator
    checks that each denominator decides the path.
    """
    (ha, fa), (hb, fb), (hc, fc) = a, b, c
    if (ha._denominator == fa._denominator == hb._denominator == fb._denominator
            == hc._denominator == fc._denominator == 1):
        ha, fa, hb, fb, hc, fc = (ha._numerator, fa._numerator, hb._numerator,
                                  fb._numerator, hc._numerator, fc._numerator)
    top = ha * hb * hc
    below = fa * hb * hc + ha * fb * hc + ha * hb * fc
    twice = 2 * below - (2 * p.lam + p.mu) * top
    return _over(twice, 2) if type(twice) is int else twice / 2


# 2*(-K_X)^3 = a*lambda + b*mu + c*nu + r as (a, b, c, r): the one place the
# closed form lives.  `conditions` builds 2*delta and twice the nef threshold
# on it, in ints, and `_form_at` evaluates every such form.
TWO_MINUS_K_CUBED = (4, 5, -6, 12)


def _form_at(form: tuple, lam: int, mu: int, nu: int) -> int:
    """a*lambda + b*mu + c*nu + r for the form (a, b, c, r)."""
    a, b, c, r = form
    return a * lam + b * mu + c * nu + r


def minus_k_cubed(p: BundleParams) -> Fraction:
    """Closed form (-K_X)^3 = 2*lambda + (5/2)*mu - 3*nu + 6, the `Fraction`
    of the integer form `TWO_MINUS_K_CUBED` over 2."""
    return _over(_form_at(TWO_MINUS_K_CUBED, *p), 2)
