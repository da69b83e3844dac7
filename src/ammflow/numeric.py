"""Exact arithmetic support for the two numeric modes.

Rational mode works over Q and one quadratic field Q(sqrt(d)): parsed
amounts are rationals, solving the cross-pool consistency condition
introduces a single square root, and every later quantity (swap outputs,
repayments, balance deltas) stays inside that quadratic extension.
``QuadExact`` is the number type rational mode builds: Q is its degree-1
level (b = 0), so equality checks like "pool reserves restored" are true
equalities on ints, not tolerance comparisons.  Parsed amounts are ints
or QuadExacts, and `as_q` turns a Fraction that a caller stores as a
pool reserve, a balance or an allowance, or passes to the planner, into
the equal element of Q; a Fraction in an action a caller builds is kept,
and computes with Fraction's own operators.
Amounts compare exactly with Python's operators; ``sign()`` is the one
sign method, and ``exact_div`` divides where both operands may be ints.

Integer mode uses plain Python ints (token smallest units, floor division)
and never touches this class.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction, "QuadExact"]  # a QuadExact in Q
ExactNumber = Union[int, Fraction, "QuadExact"]

_Q = (0, 0, 1)  # the field tuple (d, f, g) of every rational element


class ExactSqrtError(ArithmeticError):
    """The requested square root has no representation in the current field."""


def rational_sqrt(value: Rational) -> QuadExact | None:
    """Exact square root of a non-negative rational, as an element of Q,
    or None if irrational."""
    f, g = _ratio(value)
    rf, rg = math.isqrt(max(f, 0)), math.isqrt(g)
    return _element(rf, 0, rg, _Q) if rf * rf == f and rg * rg == g else None


def _ratio(value: Rational) -> tuple[int, int]:
    """(numerator, denominator) of an int, a Fraction or an element of Q."""
    if type(value) is not QuadExact:
        return value.numerator, value.denominator
    if value.b:
        raise ValueError(f"{value} is not rational")
    return value.a, value.n


def as_q(value):
    """The element of Q that a Fraction equals; any other value as it is."""
    if type(value) is Fraction:
        return _element(value.numerator, 0, value.denominator, _Q)
    return value


def _element(a: int, b: int, n: int, field: tuple) -> QuadExact:
    """(a + b*sqrt(d))/n over field = (d, f, g), in normal form and without
    the constructor's checks; an element of Q when b is 0."""
    if not n:
        raise ZeroDivisionError("division by zero")
    if n < 0:
        a, b, n = -a, -b, -n
    c = math.gcd(a, b, n)
    if c != 1:
        a, b, n = a // c, b // c, n // c
    x = object.__new__(QuadExact)  # a store per slot beats a tuple unpack
    x.a = a
    x.b = b
    x.n = n
    x.field = field if b else _Q
    return x


def _sign(a: int, b: int, f: int, g: int) -> int:
    """Sign of a + b*sqrt(f/g) for a non-square f/g or for b = 0: with a
    and b of opposite signs, the larger of a^2 and b^2*f/g decides."""
    s = (a or b) if (a > 0) == (b > 0) else \
        (a if a * a * g > b * b * f else b)
    return (s > 0) - (s < 0)


def _product(a, b, n, u, w, m, field):
    """(a + b*sqrt(d))/n * (u + w*sqrt(d))/m over field = (d, f, g)"""
    _, f, g = field
    return _element(a * u * g + b * w * f, (a * w + b * u) * g, n * m * g,
                    field)


def _inverse(u, w, m, field):
    """Ints (pn, qn, k) with m/(u + w*sqrt(d)) = (pn + qn*sqrt(d))/k; k is
    0 only for a zero divisor."""
    _, f, g = field
    return m * g * u, -m * g * w, u * u * g - w * w * f


def _comparison(test):
    """The rich comparison that applies test (an operator-module
    comparison) to cmp(self, other) against zero; NotImplemented when no
    field holds both.  A float compares as the Fraction it equals, and an
    infinity or nan as it compares with 0.0, as a Fraction's does."""
    def compare(self, other):
        if type(other) is int:  # the common operand, without _match
            _, f, g = self.field
            return test(_sign(self.a - other * self.n, self.b, f, g), 0)
        if type(other) is not QuadExact or other.field is not self.field \
                and self.b and other.b:
            if isinstance(other, float):
                if not math.isfinite(other):
                    return test(0.0, other)
                other = Fraction(other)
            if (other := self._match(other)) is None:
                return NotImplemented
        _, f, g = self.field if self.b else other.field
        m, n = other.n, self.n
        return test(_sign(self.a * m - other.a * n, self.b * m - other.b * n,
                          f, g), 0)
    return compare


class QuadExact:
    """Exact element (a + b*sqrt(d))/n of Q or of a real quadratic field.

    Invariant: a, b and n are ints in normal form (n > 0, no common
    factor), so equal elements over one d hold equal ints.  An element with
    b = 0 is a rational, the degree-1 level: its field is the shared tuple
    `_Q`, and its str, hash, float and bool are those of the equal
    Fraction.  Otherwise d = f/g is a positive non-square Fraction, and
    ``field`` = (d, f, g) is shared by elements derived from one another as
    the field's identity.
    """

    __slots__ = ("a", "b", "n", "field")

    def __new__(cls, p: Rational = 0, q: Rational = 0, d: Rational = 0):
        """p + q*sqrt(d) from rationals (ints, Fractions or elements of Q):
        an element of Q when q is 0 or d is a rational square."""
        (a, n), (b, m), (f, g) = _ratio(p), _ratio(q), _ratio(d)
        if not b:
            return _element(a, 0, n, _Q)
        if f < 0:
            raise ValueError("negative radicand")
        root = rational_sqrt(d)
        if root is not None:
            return root * q + p
        return _element(a * m, b * n, n * m, (Fraction(f, g), f, g))

    p = property(lambda self: Fraction(self.a, self.n))  # rational part
    q = property(lambda self: Fraction(self.b, self.n))  # sqrt(d) coefficient
    d = property(lambda self: self.field[0])

    # -- coercion and arithmetic ---------------------------------------
    # self = (a + b*sqrt(d))/n and a QuadExact operand (u + w*sqrt(d))/m,
    # with d = f/g; every result is one _element call on ints.  An
    # operator reads a QuadExact operand's ints directly when it shares
    # this element's field tuple or when either one lies in Q, and any
    # other operand through _match.  Python calls a reflected method only
    # for a left operand of another type, so __rsub__ and __rtruediv__
    # read every operand through _match.

    def _match(self, other) -> QuadExact | None:
        """other as an element of the field that holds both operands: this
        element's own, or other's when this one is in Q.  None if no field
        holds both, or if other is no exact number."""
        if type(other) is not QuadExact:
            try:  # an int or a Fraction
                return _element(other.numerator, 0, other.denominator, _Q)
            except AttributeError:
                return None
        if other.field is self.field or not (self.b and other.b):
            return other
        u, w, m = other.a, other.b, other.n
        if other.d != self.d:
            # sqrt(d) = (s/t) * sqrt(self.d) when d/self.d is a square
            ratio = rational_sqrt(other.d / self.d)
            if ratio is None:
                return None
            u, w, m = u * ratio.n, w * ratio.a, m * ratio.n
        return _element(u, w, m, self.field)

    def __add__(self, other):
        if type(other) is not QuadExact or other.field is not self.field \
                and self.b and other.b:
            if (other := self._match(other)) is None:
                return NotImplemented
        n, m = self.n, other.n
        return _element(self.a * m + other.a * n, self.b * m + other.b * n,
                        n * m, self.field if self.b else other.field)

    __radd__ = __add__

    def __neg__(self):
        return _element(-self.a, -self.b, self.n, self.field)

    def __sub__(self, other):
        if type(other) is not QuadExact or other.field is not self.field \
                and self.b and other.b:
            if (other := self._match(other)) is None:
                return NotImplemented
        n, m = self.n, other.n
        return _element(self.a * m - other.a * n, self.b * m - other.b * n,
                        n * m, self.field if self.b else other.field)

    def __rsub__(self, other):
        if (other := self._match(other)) is None:
            return NotImplemented
        n, m = self.n, other.n
        return _element(other.a * n - self.a * m, other.b * n - self.b * m,
                        n * m, self.field if self.b else other.field)

    def __mul__(self, other):
        if type(other) is not QuadExact or other.field is not self.field \
                and self.b and other.b:
            if (other := self._match(other)) is None:
                return NotImplemented
        u, w, m = other.a, other.b, other.n
        if w:
            return _product(self.a, self.b, self.n, u, w, m, other.field)
        return _element(self.a * u, self.b * u, self.n * m, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not QuadExact or other.field is not self.field \
                and self.b and other.b:
            if (other := self._match(other)) is None:
                return NotImplemented
        u, w, m = other.a, other.b, other.n
        if w:
            return _product(self.a, self.b, self.n,
                            *_inverse(u, w, m, other.field), other.field)
        return _element(self.a * m, self.b * m, self.n * u, self.field)

    def __rtruediv__(self, other):
        if (other := self._match(other)) is None:
            return NotImplemented
        field = self.field if self.b else other.field
        return _product(other.a, other.b, other.n,
                        *_inverse(self.a, self.b, self.n, field), field)

    # -- ordering -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign, decided on integers (n > 0)."""
        _, f, g = self.field
        return _sign(self.a, self.b, f, g)

    __eq__, __lt__, __le__, __gt__, __ge__ = map(_comparison, (
        operator.eq, operator.lt, operator.le, operator.gt, operator.ge))

    def __hash__(self):
        # equal elements (2*sqrt(2), 1*sqrt(8)) share p, q^2*d and sign(q)
        return hash((self.p, self.q * self.q * self.d, self.b > 0)) \
            if self.b else hash(self.p)

    def __bool__(self):
        return bool(self.a or self.b)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- misc -----------------------------------------------------------

    def __int__(self):  # truncates, as a Fraction's int() does
        if self.b:
            raise TypeError(f"{self} is irrational")
        return -(-self.a // self.n) if self.a < 0 else self.a // self.n

    __trunc__ = __int__

    def __round__(self, ndigits=None):  # as the equal Fraction's, in Q
        if self.b:
            raise TypeError(f"{self} is irrational")
        return as_q(round(self.p, ndigits))

    def __floor__(self):  # isqrt floors |b|*sqrt(f*g); f*g is no square
        _, f, g = self.field
        r = math.isqrt(self.b * self.b * f * g)
        return (self.a * g + (r if self.b >= 0 else -r - 1)) // (self.n * g)

    def __ceil__(self):
        return -math.floor(-self)

    def __float__(self):
        return self.a / self.n + self.b / self.n * math.sqrt(self.d)

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return QuadExact, (self.p, self.q, self.d)

    def __repr__(self):
        return f"QuadExact({self.p!r}, {self.q!r}, {self.d!r})"

    def __str__(self):
        return f"{self.p}+{self.q}*sqrt({self.d})" if self.b else str(self.p)


def make_exact(p: Rational, q: Rational = 0, d: Rational = 0) -> QuadExact:
    """QuadExact(p, q, d) under its older name.  A function of its own, so
    a tracer that rebinds this name leaves the class alone."""
    return QuadExact(p, q, d)


def exact_div(num: ExactNumber, den: ExactNumber) -> ExactNumber:
    """num / den, exact also when both are ints."""
    return QuadExact(num) / den if isinstance(num, int) else num / den


def exact_sqrt(value: ExactNumber) -> ExactNumber:
    """Exact square root.

    A rational yields its rational root or the generator of a new field
    Q(sqrt(value)).  An element of a quadratic field is denested when it is
    a perfect square inside its own field (the case that arises from
    double roots and optimum conditions); otherwise ExactSqrtError is
    raised.
    """
    if value < 0:
        raise ExactSqrtError("negative radicand")
    if type(value) is not QuadExact or not value.b:
        return QuadExact(0, 1, value)
    # find s + t*sqrt(d) with (s + t*sqrt(d))^2 = p + q*sqrt(d)
    p, q, d = value.p, value.q, value.d
    disc = rational_sqrt(p * p - q * q * d)
    if disc is None:
        raise ExactSqrtError("radical does not denest in this field")
    for t_sq in ((p + disc) / (2 * d), (p - disc) / (2 * d)):
        t = rational_sqrt(t_sq)
        cand = t and abs(QuadExact(q / (2 * t), t, d))  # skips None and 0
        if cand and cand * cand == value:
            return cand
    raise ExactSqrtError("radical does not denest in this field")


def solve_quadratic(a: ExactNumber, b: ExactNumber,
                    c: ExactNumber) -> tuple[ExactNumber, ExactNumber]:
    """Exact roots of a*x^2 + b*x + c = 0, smaller root first.

    Raises ExactSqrtError when the discriminant's root leaves the field
    and ValueError when the discriminant is negative.
    """
    disc = b * b - 4 * a * c
    if disc < 0:
        raise ValueError("negative discriminant")
    root = exact_sqrt(disc) if disc > 0 else 0
    r1 = exact_div(-b - root, 2 * a)
    r2 = exact_div(-b + root, 2 * a)
    return (r2, r1) if a < 0 else (r1, r2)


_QUAD_RE = re.compile(
    r"^(?P<p>-?\d+(?:/\d+)?)\+(?P<q>-?\d+(?:/\d+)?)\*sqrt\((?P<d>-?\d+(?:/\d+)?)\)$")


_DECIMAL = re.compile(r"([+-]?)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?")
_INT = re.compile(r"[+-]?\d+")

MAX_DIGITS = 78     # 10**78 > 2**256, the uint256 bound
MAX_DECIMALS = 38
MAX_AMOUNT = 10 ** (MAX_DIGITS + MAX_DECIMALS)  # 10**78 tokens in 10**-38s


def shown(value) -> str:
    """value as a refusal quotes it: reprlib's repr, which elides long
    strings, ints and nestings, cut to 60 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def read_decimal(text: str) -> tuple[int, int]:
    """Ints (n, scale) whose n * 10**scale is the decimal amount text.

    An amount is an optional sign, digits with an optional fraction
    (``12``, ``1.5``, ``.5``, ``5.``) and an optional exponent (``e`` or
    ``E``, signed); surrounding whitespace and underscores are ignored, and
    NaN and Infinity are refused.  Before any power of ten is built, a
    nonzero amount must be below 10**78 and have no nonzero digit finer
    than 10**-38: ERC-20 amounts are uint256 counts of smallest units,
    below 2**256 < 10**78, and no asset has more than 38 decimals.
    """
    match = _DECIMAL.fullmatch(str(text).strip().replace("_", ""))
    if match is None or not (match[2] or match[3]):
        raise ValueError(f"bad amount {shown(text)}")
    sign, whole, frac, exp = match.groups("")
    digits = (whole + frac).lstrip("0")
    significant = digits.rstrip("0")
    if not significant:
        return 0, 0
    scale = int(exp or 0) - len(frac) + len(digits) - len(significant)
    if scale + len(significant) > MAX_DIGITS:
        raise ValueError(
            f"amount {shown(text)} is not below 10**{MAX_DIGITS}")
    if scale < -MAX_DECIMALS:
        raise ValueError(
            f"amount {shown(text)} has a digit finer than "
            f"10**-{MAX_DECIMALS}")
    return int(sign + significant), scale


def _rational(text: str) -> Rational:
    """An int for plain digits, the element of Q that a ratio n/m of ints
    equals, both below MAX_AMOUNT in magnitude, else the element of Q
    that `read_decimal` reads."""
    num, slash, den = text.partition("/")
    if not (slash or _INT.fullmatch(text)):
        n, scale = read_decimal(text)
        return _element(n * 10 ** max(scale, 0), 0, 10 ** max(-scale, 0), _Q)
    num, den = int(num), int(den) if slash else 1
    if den <= 0:
        raise ValueError(f"bad denominator in {shown(text)}")
    if abs(num) >= MAX_AMOUNT * den:
        raise ValueError(f"{shown(text)} is not below 10**116 in magnitude")
    return _element(num, 0, den, _Q) if slash else num


def parse_exact(text: str) -> ExactNumber:
    """Inverse of str() for int, Fraction and QuadExact amounts, each
    rational part below MAX_AMOUNT in magnitude."""
    text = text.strip()
    m = _QUAD_RE.match(text)
    return QuadExact(*map(_rational, m.group("p", "q", "d"))) if m \
        else _rational(text)


# -- input tables ---------------------------------------------------------

REQUIRED = object()  # the default of a table key that must be present
_TYPE_NAMES = {int: "an int", bool: "true or false", str: "a string",
               float: "a number in float range", dict: "a mapping",
               list: "a list"}


def decimal_text(text: str) -> str:
    """Amount text that `read_decimal` reads, kept as text."""
    read_decimal(text)
    return text


def read(kind, value, where: str = ""):
    """`value` read by `kind`, or ValueError naming the dotted path (such
    as ``pools.0.reserve1``) of the first key or value that it refuses.

    A table, the kind of a mapping, maps each key to (kind, default): it
    refuses a key it does not name, and an absent key takes the default
    unless that is REQUIRED.  A list [kind] reads a list of such values, a
    tuple one of its members (of the member's type), object any value, a
    type of `_TYPE_NAMES` a value of just that type (true is no int, an
    int is a float), and any other callable, such as an Enum, a string,
    which it reads or refuses with ValueError.
    """
    if type(kind) is dict and type(value) is dict:
        prefix = f"{where}." if where else ""
        for key in value:
            if key not in kind:
                raise ValueError(f"unknown key {prefix}{key}")
        for key, (_, default) in kind.items():
            if default is REQUIRED and key not in value:
                raise ValueError(f"{prefix}{key} is required")
        return {key: read(item, value[key], f"{prefix}{key}")
                if key in value else default
                for key, (item, default) in kind.items()}
    if type(kind) is tuple:
        if any(type(value) is type(m) and value == m for m in kind):
            return value
        raise ValueError(
            f"{where} must be one of {kind}, got {shown(value)}")
    if type(kind) is list and type(value) is list:
        return [read(kind[0], item, f"{where}.{i}")
                for i, item in enumerate(value)]
    if type(kind) in (dict, list):  # a table or [kind]
        kind = type(kind)
    elif kind is object or type(value) is kind:
        return value
    elif kind is float and type(value) is int and abs(value) < 2 ** 1023:
        return float(value)
    elif kind not in _TYPE_NAMES and type(value) is str:
        try:
            return kind(value)
        except ValueError as exc:  # an Enum's message repeats the value
            message = str(exc).replace(repr(value), shown(value))
            raise ValueError(f"{where}: {message}") from None
    raise ValueError(f"{where or 'the root'} must be "
                     f"{_TYPE_NAMES.get(kind, 'a string')}, "
                     f"got {shown(value)}")

