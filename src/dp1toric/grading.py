"""Cox-ring gradings of toric P(1,1,2,3)-bundles over P^1.

A bundle P(lambda, mu, nu) is the projective simplicial toric variety whose
Cox ring C[u, v, x, y, z, w] carries the Z^2-grading

    u  v  x  y       z   w
    1  1  0  lambda  mu  nu
    0  0  1  1       2   3

with irrelevant ideal (u, v) * (x, y, z, w).  All scalars are exact
rationals (fractions.Fraction); no floating point is used anywhere.  Every
Fraction the library builds from ints comes from `_over`, whose cache of
small values is bounded in entries and in bytes: an int read by
`rational`, say, comes back as the shared `Fraction` of its value, one
immutable object for all equal small values.

This module normalizes grading matrices to the canonical (lambda, mu, nu)
form, assigns divisor classes to the torus-invariant coordinate divisors,
enumerates monomial bases of integral divisor classes (`monomial_strings`
lists one as strings; it and `monomial_basis` refuse one of more than
MAX_BASIS_MONOMIALS monomials), and computes the coordinate strata of base
loci from at most 22 fiber parts, whatever the degree.  No public function
here walks more than MAX_BASIS_MONOMIALS fiber parts.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement
from operator import itemgetter
from typing import NamedTuple

VARIABLES = ("u", "v", "x", "y", "z", "w")
BASE_VARS = frozenset({"u", "v"})
FIBER_VARS = frozenset({"x", "y", "z", "w"})

# H-degrees of u, v, x, y, z, w; fixed by the bundle structure.
BOTTOM_ROW = (0, 0, 1, 1, 2, 3)

# Largest monomial basis `monomial_strings` and `monomial_basis` list; past
# it, they refuse with ValueError instead of building the list.
MAX_BASIS_MONOMIALS = 10**6

# The factors s^k* of each variable s that `_powers` keeps for the process:
# _POWERS[s][k] for k < _POWER_TABLE_SIZE, built on demand.
_POWER_TABLE_SIZE = 1024
_POWERS = dict.fromkeys(VARIABLES, ("",))


class InvalidMatrix(ValueError):
    """Grading matrix does not present a P(1,1,2,3)-bundle over P^1."""


class EmptyLinearSystem(ValueError):
    """Requested base locus of a divisor class with no sections."""


class BundleParams(NamedTuple("BundleParams", [("lam", int), ("mu", int), ("nu", int)])):
    """Parameters (lambda, mu, nu) of the bundle P(lambda, mu, nu).

    The normalized form has lam >= 0; arbitrary integer triplets are
    accepted so that intersection formulas can be evaluated on the full
    parameter grid.  An entry whose type is not exactly int (a bool, a
    float, a Fraction) is refused with TypeError, which names the types,
    not the values, so that no entry is printed.
    """

    __slots__ = ()

    def __new__(cls, lam, mu, nu):
        if not type(lam) is type(mu) is type(nu) is int:
            raise TypeError("a triplet holds ints, got " + ", ".join(
                type(q).__name__ for q in (lam, mu, nu)))
        return tuple.__new__(cls, (lam, mu, nu))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    @property
    def is_normalized(self) -> bool:
        return self.lam >= 0

    def __str__(self) -> str:
        return f"P({self.lam},{self.mu},{self.nu})"


class GradingMatrix(NamedTuple):
    """2x6 grading matrix with rows (deg_F, deg_H) per coordinate."""

    top_row: tuple[int, int, int, int, int, int]
    bottom_row: tuple[int, int, int, int, int, int] = BOTTOM_ROW

    @classmethod
    def from_params(cls, p: BundleParams) -> "GradingMatrix":
        return cls((1, 1, 0, p.lam, p.mu, p.nu))

    def shifted(self, k: int) -> "GradingMatrix":
        """Row operation top_row += k * bottom_row (a gauge change)."""
        top = tuple(t + k * b for t, b in zip(self.top_row, self.bottom_row))
        return GradingMatrix(top, self.bottom_row)

    def swapped_xy(self) -> "GradingMatrix":
        """Interchange the x and y columns."""
        t = self.top_row
        return GradingMatrix((t[0], t[1], t[3], t[2], t[4], t[5]), self.bottom_row)


class DivisorClass(NamedTuple("DivisorClass", [("h", Fraction), ("f", Fraction)])):
    """Element h*H + f*F of the rank-2 divisor class group of the bundle."""

    __slots__ = ()

    def __new__(cls, h, f):
        return tuple.__new__(cls, (rational(h), rational(f)))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.h + other.h, self.f + other.f)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.h - other.h, self.f - other.f)

    def __mul__(self, scalar) -> "DivisorClass":
        return DivisorClass(self.h * scalar, self.f * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.h, -self.f)

    @property
    def is_integral(self) -> bool:
        return self.h.denominator == 1 and self.f.denominator == 1

    def __str__(self) -> str:
        terms = []
        for coeff, sym in ((self.h, "H"), (self.f, "F")):
            if coeff == 0:
                continue
            if coeff == 1:
                terms.append(f"+{sym}")
            elif coeff == -1:
                terms.append(f"-{sym}")
            else:
                terms.append(f"{signed(coeff)}{sym}")
        return _signed_sum(terms)


def rational(q) -> Fraction:
    """q as a Fraction: a Fraction as it is, an int, a string such as "3/2"
    or another exact rational converted.  A float is refused with TypeError:
    it holds a binary expansion, so 0.1 would become 3602879701896397/2**55.
    It reads every rational from outside: `--thresholds`, the library's
    arguments and JSON reports.  A string is refused at once with ValueError
    when its decimal exponent is past the int-string digit limit (`Fraction`
    would first build 10**exponent), when its denominator is 0 (`1/0`) or
    when str() cannot print it (`12e4299`).  An int comes back as the
    shared `Fraction` of `_over`."""
    if type(q) is Fraction:
        return q
    if type(q) is int:
        return _over(q, 1)
    if isinstance(q, float):
        raise TypeError(f"{q!r} is a float; give an exact rational such as "
                        "an int, a Fraction or a string like '1/10'")
    if isinstance(q, str):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        # A pattern string, not a module-level re.compile: import compiles nothing.
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", q, re.IGNORECASE)
        if exponent and abs(int(exponent[1])) > limit:
            raise ValueError(f"exponent {exponent[1]} exceeds {limit}")
        try:
            str(q := Fraction(q))  # as a report prints it: ValueError past the limit
        except ZeroDivisionError:  # "1/0": q is still the text
            raise ValueError(f"{q!r} has the denominator 0") from None
        return q
    return Fraction(q)


def _over(n: int, d: int) -> Fraction:
    """The `Fraction` n/d of the ints n and d (d != 0).  While |n| < 2**64,
    it is built once and shared while it is among the 4,096 values built
    most recently (`_FRACTIONS`): a Fraction is immutable, so equal values
    can be one object.  A larger n is built afresh on every call, so the
    cache holds only such small ints: about 0.85 MiB when full
    (tracemalloc), whatever the size of the values the library is asked
    about.  A shared value costs one dict lookup; the bound on n is tested
    only when a value is built."""
    q = _FRACTIONS.get((n, d))
    if q is None:
        q = Fraction(n, d)
        if -_FRACTIONS_BELOW < n < _FRACTIONS_BELOW:
            if len(_FRACTIONS) == _FRACTIONS_MAX:
                del _FRACTIONS[next(iter(_FRACTIONS))]  # the oldest
            _FRACTIONS[n, d] = q
    return q


_FRACTIONS_BELOW, _FRACTIONS_MAX = 1 << 64, 4096
_FRACTIONS = {}  # (n, d) -> the shared Fraction n/d, oldest first


def signed(q: Fraction) -> str:
    """Rational with an explicit leading sign, e.g. +3/2 or -1."""
    return f"+{q}" if q >= 0 else str(q)


def _signed_sum(terms) -> str:
    """The sum of terms that each begin with their sign, as written: no
    leading +, and 0 for no terms."""
    return "".join(terms).removeprefix("+") or "0"


def _shown(value, name: str) -> str:
    """str(value) for a refusal, or name when str() refuses one of its
    numbers for having more digits than the int-string limit."""
    try:
        return str(value)
    except ValueError:
        return name


H = DivisorClass(1, 0)
F = DivisorClass(0, 1)


class ExponentVector(NamedTuple):
    """Exponents (a, b, c, d, e, f) of a monomial u^a v^b x^c y^d z^e w^f."""

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int

    def support(self) -> frozenset[str]:
        return frozenset(v for v, k in zip(VARIABLES, self) if k > 0)

    def __str__(self) -> str:
        return "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(VARIABLES, self) if k) or "1"


class Stratum(NamedTuple("Stratum", [("zero_set", frozenset)])):
    """Torus-invariant subvariety V(zero_set) of the bundle.

    The zero set may not contain {u, v} or {x, y, z, w}: those loci are cut
    out by the irrelevant ideal and are empty in the bundle.
    """

    __slots__ = ()

    def __new__(cls, zero_set: frozenset[str]):
        bad = set(zero_set) - set(VARIABLES)
        if bad:
            raise ValueError(f"unknown coordinates {sorted(bad)}")
        if _is_irrelevant(zero_set):
            raise ValueError(f"irrelevant-ideal stratum {sorted(zero_set)}")
        return tuple.__new__(cls, (zero_set,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    @property
    def codim(self) -> int:
        # Base conditions (u, v) and fiber conditions (x, y, z, w) cut the
        # two factors independently, so each coordinate counts once.
        return len(self.zero_set)

    def __repr__(self) -> str:
        # Coordinate order: a frozenset's follows string hashes, per process.
        ordered = ", ".join(map(repr, sorted(self.zero_set, key=VARIABLES.index)))
        return "Stratum(zero_set=frozenset(%s))" % (ordered and "{%s}" % ordered)

    def __str__(self) -> str:
        ordered = sorted(self.zero_set, key=VARIABLES.index)
        return "{" + ",".join(ordered) + "}"


def normalize(m: GradingMatrix) -> BundleParams:
    """Canonical (lambda, mu, nu) of the bundle presented by a grading matrix.

    The top row must be (1, 1, alpha, beta, gamma, delta) over the fixed
    bottom row.  Shifting the top row by -min(alpha, beta) times the bottom
    row and swapping x and y if needed yields the unique equivalent form
    with x-degree 0 and lambda >= 0.
    """
    if tuple(m.bottom_row) != BOTTOM_ROW:
        raise InvalidMatrix(f"bottom row must be {BOTTOM_ROW}, got {m.bottom_row}")
    if len(m.top_row) != 6 or m.top_row[0] != 1 or m.top_row[1] != 1:
        raise InvalidMatrix(f"(u,v) degrees must be (1,1), got top row {m.top_row}")
    alpha, beta, gamma, delta = m.top_row[2:]
    base = min(alpha, beta)
    return BundleParams(abs(alpha - beta), gamma - 2 * base, delta - 3 * base)


def torus_divisor_class(p: BundleParams, coord: str) -> DivisorClass:
    """Divisor class of the coordinate divisor D_coord on P(lambda, mu, nu):
    the coordinate's column (deg_F, deg_H) of the grading matrix."""
    if coord not in VARIABLES:
        raise ValueError(f"coordinate must be one of {VARIABLES}, got {coord!r}")
    i = VARIABLES.index(coord)
    return DivisorClass(BOTTOM_ROW[i], GradingMatrix.from_params(p).top_row[i])


def monomial_bidegree(p: BundleParams, e: ExponentVector) -> tuple[int, int]:
    """(F-degree, H-degree) of the monomial with exponents e."""
    fdeg = e.a + e.b + p.lam * e.d + p.mu * e.e + p.nu * e.f
    hdeg = e.c + e.d + 2 * e.e + 3 * e.f
    return fdeg, hdeg


def _fiber_parts(h: int):
    """(c, d, e, g) for each fiber part x^c y^d z^e w^g of H-degree h, in
    lexicographic order, read lazily; nothing for h < 0.  For each c and d,
    the rest s = h - c - d is 2*e + 3*g, so e runs over the residue of 2*s
    mod 3 up to s/2, and g = (s - 2*e)/3.  Those pairs (e, g) are listed
    once per s, so the walk spends no arithmetic on a part.
    """
    pairs = [[(e, (s - 2 * e) // 3) for e in range(2 * s % 3, s // 2 + 1, 3)]
             for s in range(h + 1)]
    return ((c, d, e, g) for c in range(h + 1) for d in range(h - c + 1)
            for e, g in pairs[h - c - d])


def _kept(p: BundleParams, cls: DivisorClass):
    """(r, c, d, e, g) for each fiber part x^c y^d z^e w^g of |cls| whose
    residual F-degree r = f - lambda*d - mu*e - nu*g is >= 0, read lazily in
    (c, d, e, g) order; a monomial of bidegree (f, h) is such a part times
    u^a v^(r-a).  Nothing for classes with negative or non-integral
    H-degree.  ValueError at once, before the walk, when |cls| has more than
    MAX_BASIS_MONOMIALS fiber parts (`fiber_part_count`): the one refusal of
    `monomial_count`, and the first of `monomial_basis` and of
    `monomial_strings` past h = 29 (below, it reads `_fibers` instead), its
    three callers.
    """
    n = fiber_part_count(cls)
    if n > MAX_BASIS_MONOMIALS:
        raise ValueError(f"|{_shown(cls, 'D')}| has more than {MAX_BASIS_MONOMIALS} "
                         "fiber monomials x^c*y^d*z^e*w^g to scan")
    h, f = (int(cls.h), int(cls.f)) if n else (-1, 0)
    lam, mu, nu = p
    return ((r, c, d, e, g) for c, d, e, g in _fiber_parts(h)
            for r in [f - lam * d - mu * e - nu * g] if r >= 0)


def _in_r_order(p: BundleParams, cls: DivisorClass, parts) -> tuple[list, list[int]]:
    """The kept parts of |cls|, tuples (r, ...), in a stable sort on r, and
    their rs; ValueError, before anything is built from them, when the
    monomials they give (r + 1 each) are more than MAX_BASIS_MONOMIALS: the
    second refusal of `monomial_strings` and `monomial_basis`.  It formats
    no int too long to print."""
    parts = sorted(parts, key=itemgetter(0))
    rs = [part[0] for part in parts]
    if (count := len(rs) + sum(rs)) > MAX_BASIS_MONOMIALS:
        # str() prints every int below 10**640: no digit limit is set lower.
        shown = count if count < 10**640 else "10^640 or more"
        raise ValueError(f"|{_shown(cls, 'D')}| on {_shown(p, 'the bundle')} has {shown} "
                         f"monomials, more than the {MAX_BASIS_MONOMIALS} that basis lists")
    return parts, rs


def monomial_strings(p: BundleParams, cls: DivisorClass) -> list[str]:
    """[str(m) for m in monomial_basis(p, cls)], built without the
    ExponentVectors, with the refusals of `monomial_basis`, made before any
    of its strings is built.

    The kept fiber parts (`_kept`, r >= 0) are sorted on r (`_in_r_order`);
    each gives r + 1 monomials, so the same parts give the count and then
    the strings.  When h has at most _POWER_TABLE_SIZE parts (h <= 29),
    they come spelt from the per-process cache `_fibers`, in (c, d, e, g)
    order, and are kept by the same r >= 0; past that, `_kept` gives them,
    and only the kept ones are spelt, for this call.  Lexicographic order
    is by a, then by b = r - a, then by (c, d, e, g): for each a, the parts
    with r >= a (a suffix of the sorted ones) give the monomials
    u^a v^(r-a) x^c y^d z^e w^g in order.  Every factor is written with a
    trailing "*", and the fiber string drops its last one.  The factors
    s^k* are read from a per-process table of each variable (`_powers`),
    which keeps exponents below _POWER_TABLE_SIZE; a basis with a larger
    exponent builds its factors for that call only.  When h > 0 the
    fiber string is never empty, so the u and v factors keep theirs; only
    h = 0 strips the "*" of the last factor, and writes u^0 v^0 as 1.  So a
    string is written in u, v, x, y, z, w, the digits, "^" and "*" alone: it
    needs no JSON escape and no csv quote.
    """
    n = fiber_part_count(cls)
    h, f = int(cls.h), int(cls.f)
    if 0 < n <= _POWER_TABLE_SIZE:
        lam, mu, nu = p
        parts = [(r, fiber) for d, e, g, fiber in _fibers(h)
                 for r in [f - lam * d - mu * e - nu * g] if r >= 0]
    else:
        parts = _kept(p, cls)
    parts, rs = _in_r_order(p, cls, parts)
    if not parts:
        return []
    if n > _POWER_TABLE_SIZE:
        x, y, z, w = (_powers(s, h) for s in "xyzw")
        parts = [(r, (x[c] + y[d] + z[e] + w[g])[:-1]) for r, c, d, e, g in parts]
    u, v = (_powers(s, rs[-1]) for s in "uv")
    out = [f"{u[a]}{v[r - a]}{fiber}" for a in range(rs[-1] + 1)
           for r, fiber in parts[bisect_left(rs, a):]]
    return out if h else [m.rstrip("*") or "1" for m in out]


@cache
def _fibers(h: int) -> tuple[tuple[int, int, int, str], ...]:
    """(d, e, g, "x^c*y^d*z^e*w^g") for each fiber part of H-degree h, in
    (c, d, e, g) order, kept for the process as one whole tuple per h.
    Its one caller, `monomial_strings`, reads it only for an h with at most
    _POWER_TABLE_SIZE parts, so the cache holds at most the 30 H-degrees
    h <= 29.
    """
    x, y, z, w = (_powers(s, h) for s in "xyzw")
    return tuple((d, e, g, (x[c] + y[d] + z[e] + w[g])[:-1])
                 for c, d, e, g in _fiber_parts(h))


def _powers(s: str, n: int) -> tuple[str, ...]:
    """The factors s^k* for k = 0, 1, ..., n at least: "", "s*", "s^2*", ...

    From the table _POWERS when n < _POWER_TABLE_SIZE; the table grows by
    assigning a new, longer tuple, never in place, so a thread reading it
    sees one whole version.  For larger n the factors are built per call,
    so that no basis pins them for the process.
    """
    table = _POWERS[s]
    if n < len(table):
        return table
    powers = ("", s + "*", *[f"{s}^{k}*" for k in range(2, n + 1)])
    if n < _POWER_TABLE_SIZE:
        _POWERS[s] = powers
    return powers


def fiber_part_count(cls: DivisorClass) -> int:
    """len(list(_fiber_parts(h))) for an integral class of H-degree h, and 0
    for a non-integral one, in closed form: the number of (c, d, e, g) >= 0
    with c + d + 2*e + 3*g = h is the integer nearest to
    (2*h^3 + 21*h^2 + 66*h + 55) / 72."""
    if not cls.is_integral or cls.h < 0:
        return 0
    h = int(cls.h)
    return (2 * h**3 + 21 * h**2 + 66 * h + 91) // 72


def monomial_basis(p: BundleParams, cls: DivisorClass) -> list[ExponentVector]:
    """All monomials of bidegree (cls.f, cls.h), in lexicographic order.

    Empty for classes with negative or non-integral entries that admit no
    monomials.  Each fiber part splits its residual F-degree r over a and
    b = r - a.  Refuses with ValueError a class with more than
    MAX_BASIS_MONOMIALS fiber parts, before the walk (`_kept`), or
    monomials, before any ExponentVector is built (`_in_r_order`).

    The vectors are built in order, as `monomial_strings` builds its
    strings: the kept parts sorted on r, and for each a the suffix of them
    with r >= a.
    """
    parts, rs = _in_r_order(p, cls, _kept(p, cls))
    if not parts:
        return []
    return [ExponentVector(a, r - a, c, d, e, g) for a in range(rs[-1] + 1)
            for r, c, d, e, g in parts[bisect_left(rs, a):]]


def monomial_count(p: BundleParams, cls: DivisorClass) -> int:
    """len(monomial_basis(p, cls)), without building the basis: one walk
    of the fiber parts, each kept one (`_kept`, residual F-degree r >= 0)
    giving r + 1 monomials.  Refuses with the ValueError of `_kept` a class
    with more than MAX_BASIS_MONOMIALS fiber parts, before the walk.
    """
    return sum(part[0] + 1 for part in _kept(p, cls))


def _is_irrelevant(zero_set: frozenset[str]) -> bool:
    return BASE_VARS <= zero_set or FIBER_VARS <= zero_set


# The zero sets that `base_locus_strata` walks, the 15 proper subsets of
# (x, y, z, w), as (bit mask, stratum) with bit i for the i-th of them: by
# size, and sets of one size in coordinate order.
_ZERO_SETS = tuple(
    (sum(1 << i for i in indices), Stratum(frozenset("xyzw"[i] for i in indices)))
    for k in range(4) for indices in combinations(range(4), k))


# The cofactors that `_extreme_parts` reads: for each fiber variable b (its
# index in x, y, z, w) of H-degree s, and each product m of fewer than s
# fiber variables, (b, s, the exponents of m, the H-degree of m); 22 rows.
_COFACTORS = tuple((b, s, tuple(map(m.count, range(4))), sum(BOTTOM_ROW[2 + i] for i in m))
                   for b, s in enumerate(BOTTOM_ROW[2:]) for n in range(s)
                   for m in combinations_with_replacement(range(4), n))


def _extreme_parts(h: int):
    """(c, d, e, g) for each fiber part b^k * m of H-degree h with a row
    (b, s, m) of _COFACTORS: at most 22 parts, some of them more than once;
    nothing for h < 0.  `base_locus_strata` says why they are enough.
    """
    for b, s, m, degree in _COFACTORS:
        k, rest = divmod(h - degree, s)
        if k >= 0 and not rest:
            yield m[:b] + (m[b] + k,) + m[b + 1:]


def base_locus_strata(p: BundleParams, cls: DivisorClass) -> list[Stratum]:
    """Minimal coordinate strata covering the base locus of |cls|.

    A stratum V(Z) lies in the base locus exactly when every basis monomial
    contains a variable of Z.  Every minimal Z lies in the fiber coordinates
    x, y, z, w.  An allowed Z holds at most one of u and v.  A fiber part
    m = x^c y^d z^e w^g with residual r > 0 gives the monomials u^r m and
    v^r m, so Z meets both only if it meets the support of m; a part with
    r = 0 gives m alone.  So Z without u and v meets every monomial too,
    and the supports that decide the base locus are those of the fiber
    parts with r >= 0.

    Those supports are read from at most 22 parts (`_extreme_parts`),
    whatever h is.  A fiber zero set Z is disjoint from some support
    exactly when a part with r >= 0 has its support within the other
    fiber variables S, that is, when a cheapest part (least F-degree
    lambda*d + mu*e + nu*g) with support within S has r >= 0.  Let b be a
    variable of S with the least F-degree per H-degree, and s its
    H-degree.  Some cheapest part has fewer than s factors other than b:
    among any s of them, some nonempty subset has a total H-degree that s
    divides (prefix sums mod s), and replacing that subset by copies of b
    keeps the H-degree and the support within S, does not raise the
    F-degree and leaves fewer factors other than b.  That part is b^k * m,
    one of `_extreme_parts(h)`, and each of those is a part; so the kept
    ones among them decide every Z as all the kept parts do.

    The 15 fiber zero sets are walked by size, as bit masks against those
    supports, and a set is kept when it meets every support and contains
    no set kept before it; so the inclusion-minimal zero sets are returned,
    by size and then in coordinate order.  Raises EmptyLinearSystem when
    |cls| has no sections (S = {x, y, z, w} has no kept part), and nothing
    else.
    """
    lam, mu, nu = p
    h, f = (int(cls.h), int(cls.f)) if cls.is_integral else (-1, 0)
    # Exponents are >= 0, so (c and 1) is x's bit: 1 exactly when c > 0.
    supports = {(c and 1) | (d and 2) | (e and 4) | (g and 8)
                for c, d, e, g in _extreme_parts(h) if lam * d + mu * e + nu * g <= f}
    if not supports:
        raise EmptyLinearSystem(f"|{_shown(cls, 'D')}| has no sections on "
                                f"{_shown(p, 'the bundle')}")
    kept = []  # (mask, stratum)
    for z, stratum in _ZERO_SETS:
        if all(z & s for s in supports) and all(m & z != m for m, _ in kept):
            kept.append((z, stratum))
    return [stratum for _, stratum in kept]


def is_dz_movable_on_x(p: BundleParams) -> bool:
    """Combinatorial certificate that D_z restricts to a movable class.

    The certificate: every stratum of the base locus of |3 D_z| has
    codimension at least 2 in the bundle, and some monomial of the
    hypersurface class |X| = |6H + 2*nu*F| avoids it, so a generic
    hypersurface does not contain it.  This certifies that the base locus
    of D_z restricted to the hypersurface has codimension >= 2; it is a
    sufficient certificate, not a characterization of movability.

    On the normalized triplet (lambda, mu, nu) it holds exactly when

        mu >= 0  and  (mu >= 2*lambda  or  2*nu > 3*mu).

    Proof for lambda >= 0.  The sections of a class are the monomials of
    its bidegree (Cox 1995), and V(Z) lies in the base locus exactly when
    every section contains a variable of Z.  Among the sections of
    |3 D_z| = |6H + 3*mu*F| are z^3, always; x^6 (u,v)^(3mu) when mu >= 0;
    y^6 (u,v)^(3mu - 6lambda) when mu >= 2*lambda; w^2 (u,v)^(3mu - 2nu)
    when 2*nu <= 3*mu.  w^2 is itself a section of |X|.  Here (u,v)^r
    stands for u^a v^(r-a).  The strata lie in the fiber coordinates and
    meet the fiber support of every section (`base_locus_strata`), so each
    of these sections puts one of its fiber variables in every stratum; by
    z^3, z lies in every one.

    - mu < 0: a section without z is x^c y^d w^g (u,v)^r with F-degree
      lambda*d + nu*g <= 3*mu < 0, so it contains w and nu < 0.  If
      2*nu > 3*mu there is none (the cheapest is w^2), and V(z), a divisor,
      is in the base locus.  Otherwise every stratum contains {z, w}, and
      the only monomials of |X| avoiding both are x^c y^d (u,v)^r with
      lambda*d + r = 2*nu < 0: there are none.  False either way.
    - mu >= 0: x^6 puts x in every stratum.  If also mu >= 2*lambda, y^6
      puts y there too, leaving {x, y, z} (codimension 3, avoided by w^2)
      or nothing.  If mu < 2*lambda, a section without x and z is y^3 w or
      w^2.  When 2*nu > 3*mu, neither is one (3*lambda + nu > 3*mu), so the
      unique stratum is {x, z}, of codimension 2 and avoided by w^2.
      Otherwise w^2 is one and y^6 is not, so the unique stratum is
      {x, z, w}, and the only monomial of |X| avoiding it would be
      y^6 (u,v)^(2nu - 6lambda), which needs nu >= 3*lambda; but
      2*nu <= 3*mu < 6*lambda.  So the certificate holds in the first two
      cases and fails in the third.

    For lambda < 0 the bundle is the normalized (-lambda, mu - 2*lambda,
    nu - 3*lambda) in another gauge, with x and y swapped, so monomials and
    strata correspond; the rule there is mu >= 2*lambda and (mu >= 0 or
    2*nu > 3*mu).  So on any triplet, with no `normalize`, it holds iff

        mu >= 2*min(0, lambda)  and  (mu >= 2*max(0, lambda)  or  2*nu > 3*mu).

    `base_locus_strata` computes the strata themselves, and the tests check
    this rule against a scan of them.
    """
    lam, mu, nu = p
    return mu >= 2 * min(0, lam) and (mu >= 2 * max(0, lam) or 2 * nu > 3 * mu)
