"""Exact arithmetic support for the two numeric modes.

Rational mode works over the field Q(sqrt(d)): solving the cross-pool
consistency condition introduces a single square root, and every later
quantity (swap outputs, repayments, balance deltas) stays inside that
quadratic extension.  ``QuadExact`` implements that field exactly so
equality checks like "pool reserves restored" are true equalities, not
tolerance comparisons.

Integer mode uses plain Python ints (token smallest units, floor division)
and never touches this class.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]
ExactNumber = Union[int, Fraction, "QuadExact"]


class ExactSqrtError(ArithmeticError):
    """The requested square root has no representation in the current field."""


def rational_sqrt(value: Rational) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    f = Fraction(value)
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def make_exact(p: Rational, q: Rational = 0, d: Rational = 0) -> ExactNumber:
    """Build p + q*sqrt(d), demoting to Fraction when the radical vanishes;
    d arrives from outside any field, so it gets the perfect-square test."""
    p, q, d = (v if isinstance(v, Fraction) else Fraction(v)
               for v in (p, q, d))
    if q == 0 or d == 0:
        return p
    if d < 0:
        raise ValueError("negative radicand")
    root = rational_sqrt(d)
    return QuadExact(p, q, d) if root is None else p + q * root


def _element(a: int, b: int, n: int, field: tuple) -> ExactNumber:
    """(a + b*sqrt(d))/n over field = (d, f, g), in normal form and without
    the constructor's checks; the Fraction a/n when b is 0."""
    if not b:
        return Fraction(a, n)
    if n < 0:
        a, b, n = -a, -b, -n
    c = math.gcd(a, b, n)
    if c != 1:
        a, b, n = a // c, b // c, n // c
    x = object.__new__(QuadExact)
    x.a, x.b, x.n, x.field = a, b, n, field
    return x


def _sign(a: int, b: int, f: int, g: int) -> int:
    """Sign of a + b*sqrt(f/g) for a non-square f/g: with a and b of
    opposite signs, the larger of a^2 and b^2*f/g decides."""
    s = (a or b) if (a > 0) == (b > 0) else \
        (a if a * a * g > b * b * f else b)
    return (s > 0) - (s < 0)


class QuadExact:
    """Exact element (a + b*sqrt(d))/n of a real quadratic field.

    Invariant: a, b and n are ints in normal form (n > 0, b != 0, no
    common factor), so equal elements over one d hold equal ints; d = f/g
    is a positive non-square Fraction, and ``field`` = (d, f, g) is shared
    by elements derived from one another as the field's identity.
    """

    __slots__ = ("a", "b", "n", "field")

    def __new__(cls, p: Rational, q: Rational, d: Rational):
        p, q, d = Fraction(p), Fraction(q), Fraction(d)
        f, g = d.numerator, d.denominator
        if not q or f <= 0 or math.isqrt(f * g) ** 2 == f * g:
            raise ValueError(f"{q}*sqrt({d}) is not irrational")
        return _element(p.numerator * q.denominator,
                        q.numerator * p.denominator,
                        p.denominator * q.denominator, (d, f, g))

    p = property(lambda self: Fraction(self.a, self.n))  # rational part
    q = property(lambda self: Fraction(self.b, self.n))  # sqrt(d) coefficient
    d = property(lambda self: self.field[0])

    # -- coercion -------------------------------------------------------

    def _match(self, other) -> tuple[int, int, int] | None:
        """Ints (u, w, m) with other = (u + w*sqrt(d))/m in this element's
        field; None if impossible."""
        if type(other) is QuadExact and other.field is self.field:
            return other.a, other.b, other.n
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        if not isinstance(other, QuadExact):
            raise TypeError(
                f"cannot coerce {type(other).__name__} to exact number")
        if other.d == self.d:
            return other.a, other.b, other.n
        # sqrt(d) = (s/t) * sqrt(self.d) when d/self.d is a perfect square
        ratio = rational_sqrt(other.d / self.d)
        if ratio is None:
            return None
        s, t = ratio.numerator, ratio.denominator
        return other.a * t, other.b * s, other.n * t

    # -- arithmetic -----------------------------------------------------
    # self = (a + b*sqrt(d))/n and an operand (u + w*sqrt(d))/m, with
    # d = f/g; every result is one _element call on ints.

    def _sum(self, k, other, l):
        """k*self + l*other for k, l in {1, -1}."""
        m = self._match(other)
        if m is None:
            return NotImplemented
        (u, w, m), n = m, self.n
        return _element(k * self.a * m + l * u * n,
                        k * self.b * m + l * w * n, n * m, self.field)

    def __add__(self, other):
        return self._sum(1, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(-self.a, -self.b, self.n, self.field)

    def __sub__(self, other):
        return self._sum(1, other, -1)

    def __rsub__(self, other):
        return self._sum(-1, other, 1)

    def _product(self, a, b, n, u, w, m):
        """(a + b*sqrt(d))/n * (u + w*sqrt(d))/m"""
        _, f, g = field = self.field
        return _element(a * u * g + b * w * f, (a * w + b * u) * g,
                        n * m * g, field)

    def _inverse(self, u, w, m):
        """Ints (pn, qn, k), k != 0 for w != 0, with m/(u + w*sqrt(d)) =
        (pn + qn*sqrt(d))/k."""
        _, f, g = self.field
        return m * g * u, -m * g * w, u * u * g - w * w * f

    def __mul__(self, other):
        m = self._match(other)
        if m is None:
            return NotImplemented
        u, w, m = m
        if w:
            return self._product(self.a, self.b, self.n, u, w, m)
        return _element(self.a * u, self.b * u, self.n * m, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        m = self._match(other)
        if m is None:
            return NotImplemented
        u, w, m = m
        if w:
            return self._product(self.a, self.b, self.n,
                                 *self._inverse(u, w, m))
        if u == 0:
            raise ZeroDivisionError("division by zero")
        return _element(self.a * m, self.b * m, self.n * u, self.field)

    def __rtruediv__(self, other):
        m = self._match(other)
        if m is None:
            return NotImplemented
        return self._product(*m, *self._inverse(self.a, self.b, self.n))

    # -- ordering -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign, decided on integers (n > 0)."""
        _, f, g = self.field
        return _sign(self.a, self.b, f, g)

    def _cmp(self, other) -> int | None:
        m = self._match(other)
        if m is None:
            return None
        (u, w, m), n, (_, f, g) = m, self.n, self.field
        return _sign(self.a * m - u * n, self.b * m - w * n, f, g)

    def _compare(self, other, test):
        """Apply test (an operator-module comparison) to cmp(self, other)
        against zero; NotImplemented when other is outside the field."""
        try:
            c = self._cmp(other)
        except TypeError:
            return NotImplemented
        return NotImplemented if c is None else test(c, 0)

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __hash__(self):
        # equal elements (2*sqrt(2), 1*sqrt(8)) share p, q^2*d and sign(q)
        return hash((self.p, self.q * self.q * self.d, self.b > 0))

    def __bool__(self):
        return True  # b != 0 by construction, so never zero

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- misc -----------------------------------------------------------

    def __float__(self):
        return self.a / self.n + self.b / self.n * math.sqrt(self.d)

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return QuadExact, (self.p, self.q, self.d)

    def __repr__(self):
        return f"QuadExact({self.p!r}, {self.q!r}, {self.d!r})"

    def __str__(self):
        return f"{self.p}+{self.q}*sqrt({self.d})"


def exact_div(num: ExactNumber, den: ExactNumber) -> ExactNumber:
    """num / den, exact also when both are ints."""
    return Fraction(num) / den if isinstance(num, int) else num / den


def exact_sign(value: ExactNumber) -> int:
    """Sign of any exact number (int, Fraction or QuadExact)."""
    if isinstance(value, int):
        return 0 if value == 0 else (1 if value > 0 else -1)
    if isinstance(value, QuadExact):
        return value.sign()
    n = value.numerator  # a Fraction's denominator is positive
    return (n > 0) - (n < 0)


def exact_sqrt(value: ExactNumber) -> ExactNumber:
    """Exact square root.

    Rationals yield either a rational root or a fresh QuadExact radical.
    QuadExact arguments are denested when they are perfect squares inside
    their own field (the case that arises from double roots and optimum
    conditions); otherwise ExactSqrtError is raised.
    """
    if isinstance(value, (int, Fraction)):
        f = Fraction(value)
        if f < 0:
            raise ExactSqrtError("negative radicand")
        root = rational_sqrt(f)
        if root is not None:
            return root
        return QuadExact(0, 1, f)
    if isinstance(value, QuadExact):
        if value.sign() < 0:
            raise ExactSqrtError("negative radicand")
        # find s + t*sqrt(d) with (s + t*sqrt(d))^2 = p + q*sqrt(d)
        p, q, d = value.p, value.q, value.d
        disc = rational_sqrt(p * p - q * q * d)
        if disc is None:
            raise ExactSqrtError("radical does not denest in this field")
        for t_sq in ((p + disc) / (2 * d), (p - disc) / (2 * d)):
            t = rational_sqrt(t_sq)
            if t is None or t == 0:
                continue
            s = q / (2 * t)
            cand = abs(QuadExact(s, t, d))
            if cand * cand == value:
                return cand
        raise ExactSqrtError("radical does not denest in this field")
    raise TypeError(f"unsupported type {type(value).__name__}")


def solve_quadratic(a: ExactNumber, b: ExactNumber,
                    c: ExactNumber) -> tuple[ExactNumber, ExactNumber]:
    """Exact roots of a*x^2 + b*x + c = 0, smaller root first.

    Raises ExactSqrtError when the discriminant's root leaves the field
    and ValueError when the discriminant is negative.
    """
    disc = b * b - 4 * a * c
    s = exact_sign(disc)
    if s < 0:
        raise ValueError("negative discriminant")
    root = exact_sqrt(disc) if s > 0 else 0
    r1 = (-b - root) / (2 * a)
    r2 = (-b + root) / (2 * a)
    if exact_sign(a) < 0:
        r1, r2 = r2, r1
    return r1, r2


_QUAD_RE = re.compile(
    r"^(?P<p>-?\d+(?:/\d+)?)\+(?P<q>-?\d+(?:/\d+)?)\*sqrt\((?P<d>-?\d+(?:/\d+)?)\)$")


MAX_AMOUNT = 10 ** 116  # 10**78 tokens at 38 decimals: parse_amount's most


def _rational(text: str) -> Rational:
    # Fraction builds 10**exp: first refuse an exponent that puts any
    # nonzero value outside (10**-116, 10**116)
    exp = text.upper().partition("E")[2]
    if exp and abs(int(exp)) > len(text) + 116:
        raise ValueError(f"exponent of {text!r} out of range")
    try:
        value = Fraction(text) if "/" in text or "." in text else int(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
    if abs(value) >= MAX_AMOUNT:
        raise ValueError(f"{text!r} is not below 10**116 in magnitude")
    return value


def parse_exact(text: str) -> ExactNumber:
    """Inverse of str() for int, Fraction and QuadExact amounts, each
    rational part below MAX_AMOUNT in magnitude."""
    text = text.strip()
    m = _QUAD_RE.match(text)
    return make_exact(*map(_rational, m.group("p", "q", "d"))) if m \
        else _rational(text)
