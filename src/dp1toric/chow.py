"""Exact top-intersection products on P(lambda, mu, nu) and its hypersurfaces.

Products of divisor classes are reduced modulo F^2 = 0 (distinct fibers
of the bundle are disjoint), so a product of k classes is a combination of
H^k and H^(k-1)*F.  A degree-4 class is a combination of H^4 and H^3*F,
whose values are

    (H^4) = -(6*lambda + 3*mu + 2*nu) / 36,    (H^3 * F) = 1/6.

The H^4 value can also be re-derived from the vanishing of the product of
the four fiber-coordinate divisors, which `derive_h4` does as an
independent cross-check of the closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .grading import (BundleParams, DivisorClass, _signed_sum, signed,
                      torus_divisor_class)


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
            q = Fraction(q)
            if j >= 2 or q == 0:
                continue
            if not 0 <= i <= 4 or j < 0:
                raise ValueError(f"monomial H^{i}F^{j} out of range")
            reduced[(i, j)] = q
        return tuple.__new__(cls, (reduced,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.coefficients.get((i, j), Fraction(0))

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


def _over_common(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(a', b', s) with a = a'/s and b = b'/s, s the lcm of the denominators."""
    an, ad = a.as_integer_ratio()
    bn, bd = b.as_integer_ratio()
    s = lcm(ad, bd)
    return an * (s // ad), bn * (s // bd), s


def _coefficients(classes: list[DivisorClass]) -> tuple[int, int, int]:
    """(top, below, d) with the product of the k classes equal to
    (top*H^k + below*H^(k-1)*F) / d modulo F^2 = 0, all ints.

    Each class is scaled to ints over the lcm of its two denominators, and
    d is the product of those scales; d = 1 for integral classes.
    """
    top, below, d = 1, 0, 1
    for cls in classes:
        h, f, s = _over_common(cls.h, cls.f)
        top, below, d = top * h, below * h + top * f, d * s
    return top, below, d


def product(classes: list[DivisorClass]) -> CycleClass:
    """Product of k <= 4 divisor classes h_i*H + f_i*F, reduced by F^2 = 0.

    Only the terms with at most one F survive, so the product is
    (prod h_i)*H^k + (sum_j f_j * prod_{i != j} h_i)*H^(k-1)*F; both
    coefficients are accumulated factor by factor in ints, and each becomes
    one `Fraction` over the common denominator.
    """
    if len(classes) == 0:
        raise ValueError("empty product")
    if len(classes) > 4:
        raise DegreeOverflow(f"{len(classes)} factors exceed the dimension 4")
    top, below, d = _coefficients(classes)
    k = len(classes)
    return CycleClass({(k, 0): Fraction(top, d), (k - 1, 1): Fraction(below, d)})


def _top_value(p: BundleParams, top: int, below: int, d: int) -> Fraction:
    """Degree of (top*H^4 + below*H^3*F) / d, by the closed forms of the
    module docstring: (H^4) = -(6*lambda + 3*mu + 2*nu)/36, (H^3*F) = 1/6."""
    return Fraction(-top * (6 * p.lam + 3 * p.mu + 2 * p.nu) + 6 * below, 36 * d)


def evaluate_top(p: BundleParams, c: CycleClass) -> Fraction:
    """Degree of a top (degree-4) cycle class on P(lambda, mu, nu)."""
    if not c.is_homogeneous(4):
        raise DegreeMismatch(f"top evaluation needs degree 4, got {c}")
    return _top_value(p, *_over_common(c.coefficient(4, 0), c.coefficient(3, 1)))


def derive_h4(p: BundleParams) -> Fraction:
    """Solve for (H^4) from the empty intersection of the fiber divisors.

    The four divisors D_x, D_y, D_z, D_w have no common point, so their
    product vanishes.  Expanding it leaves a linear equation in the unknown
    (H^4) with (H^3 * F) = 1/6 known; this derivation is independent of the
    closed form used by `evaluate_top` and `triple_on_x`.
    """
    cyc = product([torus_divisor_class(p, t) for t in "xyzw"])
    coeff_h4 = cyc.coefficient(4, 0)
    coeff_h3f = cyc.coefficient(3, 1)
    # coeff_h4 * (H^4) + coeff_h3f * (1/6) = 0
    return -coeff_h3f * Fraction(1, 6) / coeff_h4


def _x_coefficients(p: BundleParams) -> tuple[int, int]:
    """(h, f) of the class h*H + f*F = 6H + 2*nu*F of the hypersurface X."""
    return 6, 2 * p.nu


def x_class(p: BundleParams) -> DivisorClass:
    """Class 6H + 2*nu*F of the degree-1 del Pezzo hypersurface."""
    return DivisorClass(*_x_coefficients(p))


def anticanonical_on_x(p: BundleParams) -> DivisorClass:
    """-K_X = H + (lambda + mu - nu + 2) F by adjunction."""
    return DivisorClass(1, p.lam + p.mu - p.nu + 2)


def triple_on_x(p: BundleParams, a: DivisorClass, b: DivisorClass,
                c: DivisorClass) -> Fraction:
    """Triple intersection (a . b . c) on the hypersurface X.

    Restriction is computed upstairs: (a . b . c)_X = (a . b . c . X)_P.
    With (a . b . c) = (top*H^3 + below*H^2*F) / d and X = h*H + f*F, the
    product is (h*top*H^4 + (h*below + f*top)*H^3*F) / d modulo F^2 = 0.
    """
    top, below, d = _coefficients([a, b, c])
    h, f = _x_coefficients(p)
    return _top_value(p, h * top, h * below + f * top, d)


# 2*(-K_X)^3 = a*lambda + b*mu + c*nu + r as (a, b, c, r): the one place the
# closed form lives.  `conditions` builds 2*delta and twice the nef threshold
# on it, in ints.
TWO_MINUS_K_CUBED = (4, 5, -6, 12)


def minus_k_cubed(p: BundleParams) -> Fraction:
    """Closed form (-K_X)^3 = 2*lambda + (5/2)*mu - 3*nu + 6, the `Fraction`
    of the integer form `TWO_MINUS_K_CUBED` over 2."""
    a, b, c, r = TWO_MINUS_K_CUBED
    return Fraction(a * p.lam + b * p.mu + c * p.nu + r, 2)
