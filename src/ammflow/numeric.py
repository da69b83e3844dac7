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
    if root is not None:
        return p + q * root
    return QuadExact(p, q, d)


class QuadExact:
    """Exact element p + q*sqrt(d) of a real quadratic field.

    Invariant: p and q are Fractions with q != 0, and d is a positive
    Fraction that is not a perfect square.  Every constructor call keeps
    it, so arithmetic inside the field builds results without testing d
    again, and elements derived from one another share the same d object,
    which serves as the field's identity.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Fraction, q: Fraction, d: Fraction):
        self.p = p
        self.q = q
        self.d = d

    # -- coercion -------------------------------------------------------

    def _in_field(self, p: Fraction, q: Fraction) -> ExactNumber:
        """p + q*sqrt(self.d); d is already known to be a non-square."""
        return p if q == 0 else QuadExact(p, q, self.d)

    def _match(self, other) -> tuple[Rational, Rational] | None:
        """Express other in this element's field; None if impossible."""
        if isinstance(other, (int, Fraction)):
            return other, 0
        if not isinstance(other, QuadExact):
            raise TypeError(
                f"cannot coerce {type(other).__name__} to exact number")
        if other.d is self.d or other.d == self.d:
            return other.p, other.q
        # sqrt(d) = r * sqrt(self.d) when d/self.d is a perfect square
        ratio = rational_sqrt(other.d / self.d)
        if ratio is not None:
            return other.p, other.q * ratio
        return None

    # -- arithmetic -----------------------------------------------------
    # Each result part is one normalising Fraction(numerator, denominator)
    # built from integers: p = a/b, q = c/e and d = f/g for self, and
    # r = u/v, s = w/z for an operand r + s*sqrt(d) (an int n is n/1).

    def _sum(self, k, other, l):
        """k*self + l*other for k, l in {1, -1}."""
        m = self._match(other)
        if m is None:
            return NotImplemented
        (r, s), p, q = m, self.p, self.q
        b, v = p.denominator, r.denominator
        p = Fraction(k * p.numerator * v + l * r.numerator * b, b * v)
        if not s:
            return QuadExact(p, q if k > 0 else -q, self.d)
        e, z = q.denominator, s.denominator
        n = k * q.numerator * z + l * s.numerator * e
        return QuadExact(p, Fraction(n, e * z), self.d) if n else p

    def __add__(self, other):
        return self._sum(1, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return QuadExact(-self.p, -self.q, self.d)

    def __sub__(self, other):
        return self._sum(1, other, -1)

    def __rsub__(self, other):
        return self._sum(-1, other, 1)

    def _product(self, a, b, c, e, u, v, w, z, n=1):
        """(a/b + c/e*sqrt(d)) * (u/v + w/z*sqrt(d)) / n"""
        f, g = self.d.numerator, self.d.denominator
        den = b * v * e * z * n
        qn = a * w * e * v + c * u * b * z
        p = Fraction(a * u * e * z * g + c * w * f * b * v, den * g)
        return QuadExact(p, Fraction(qn, den), self.d) if qn else p

    def _inverse(self, r, s):
        """Integers pn, qn, n with 1/(r + s*sqrt(d)) = (pn + qn*sqrt(d))/n."""
        # with r = u/v, s = w/z the norm r^2 - s^2 d is n/(v^2 z^2 g)
        u, v, w, z = r.numerator, r.denominator, s.numerator, s.denominator
        f, g = self.d.numerator, self.d.denominator
        n = u * u * z * z * g - w * w * v * v * f
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        return u * v * z * z * g, -w * v * v * z * g, n

    def __mul__(self, other):
        m = self._match(other)
        if m is None:
            return NotImplemented
        (r, s), p, q = m, self.p, self.q
        a, b, c, e = p.numerator, p.denominator, q.numerator, q.denominator
        u, v = r.numerator, r.denominator
        if s:
            return self._product(a, b, c, e, u, v, s.numerator, s.denominator)
        p = Fraction(a * u, b * v)
        return QuadExact(p, Fraction(c * u, e * v), self.d) if u else p

    __rmul__ = __mul__

    def __truediv__(self, other):
        m = self._match(other)
        if m is None:
            return NotImplemented
        (r, s), p, q = m, self.p, self.q
        a, b, c, e = p.numerator, p.denominator, q.numerator, q.denominator
        if s:
            pn, qn, n = self._inverse(r, s)
            return self._product(a, b, c, e, pn, 1, qn, 1, n)
        u, v = r.numerator, r.denominator
        if u == 0:
            raise ZeroDivisionError("division by zero")
        return QuadExact(Fraction(a * v, b * u), Fraction(c * v, e * u),
                         self.d)

    def __rtruediv__(self, other):
        m = self._match(other)
        if m is None:
            return NotImplemented
        r, s = m
        pn, qn, n = self._inverse(self.p, self.q)
        return self._product(r.numerator, r.denominator, s.numerator,
                             s.denominator, pn, 1, qn, 1, n)

    # -- ordering -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(d), decided on integers."""
        p, q, d = self.p, self.q, self.d
        pn, qn = p.numerator, q.numerator
        if pn == 0 or (pn > 0) == (qn > 0):
            s = pn or qn
            return (s > 0) - (s < 0)
        # opposite signs: the larger of p^2 and q^2 d decides, over the
        # common denominator pd^2 qd^2 dd
        pd, qd = p.denominator, q.denominator
        lhs = pn * pn * qd * qd * d.denominator
        rhs = qn * qn * pd * pd * d.numerator
        if lhs == rhs:
            return 0
        return 1 if (pn if lhs > rhs else qn) > 0 else -1

    def _cmp(self, other) -> int | None:
        m = self._match(other)
        if m is None:
            return None
        return exact_sign(self._in_field(self.p - m[0], self.q - m[1]))

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
        return hash((self.p, self.q * self.q * self.d, self.q > 0))

    def __bool__(self):
        return True  # q != 0 by construction, so never zero

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- misc -----------------------------------------------------------

    def __float__(self):
        return float(self.p) + float(self.q) * math.sqrt(float(self.d))

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
        return QuadExact(Fraction(0), Fraction(1), f)
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
            cand = QuadExact(s, t, d)
            if cand.sign() < 0:
                cand = -cand
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
