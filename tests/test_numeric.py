import copy
import math
import operator
import pickle
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ammflow import numeric, planner
from ammflow.amm import AssetId, NumericMode, PoolState, parse_amount
from ammflow.engine import Address, WorldState, execute_bundle, net_deltas
from ammflow.numeric import (ExactSqrtError, QuadExact, exact_sqrt,
                             make_exact, parse_exact, rational_sqrt,
                             solve_quadratic)
from ammflow.planner import build_relocation_bundle, plan_relocation
from ammflow.scenarios import build_relocation_scenario
from conftest import TOKA, TOKB

NON_SQUARES = [2, 3, 5, 6, 7, 10, 2100]
FOREIGN = 11  # d / 11 is a perfect square for no d in NON_SQUARES


def in_q(value):
    """Whether value is an element of Q, the degree-1 level of QuadExact."""
    return type(value) is QuadExact and value.b == 0 \
        and value.field is numeric._Q


def test_rational_sqrt():
    assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(2) is None
    assert rational_sqrt(-4) is None


def test_make_exact_demotes_when_radical_vanishes():
    assert make_exact(3, 0, 2) == 3
    assert in_q(make_exact(3, 0, 2))
    # sqrt(4) collapses into the rational part
    assert make_exact(1, 2, 4) == 5 and in_q(make_exact(1, 2, 4))
    assert not in_q(make_exact(1, 2, 2))


def test_field_identities():
    r2 = exact_sqrt(2)
    assert r2 * r2 == 2
    assert (1 + r2) * (1 - r2) == -1
    assert (1 + r2) - r2 == 1
    assert (r2 + r2) / 2 == r2
    assert 2 / r2 == r2
    assert 1 / (1 + r2) == r2 - 1


def test_subtraction_to_zero_is_rational():
    r5 = exact_sqrt(5)
    diff = (3 + r5) - r5 - 3
    assert diff == 0
    assert in_q(diff)


def test_sign_near_rational_boundary():
    # -10 + sqrt(99) < 0 < -10 + sqrt(101)
    assert make_exact(-10, 1, 99).sign() == -1
    assert make_exact(-10, 1, 101).sign() == 1
    assert make_exact(-10, 1, 100).sign() == 0
    assert make_exact(-10, 1, 100) == Fraction(0) == 0
    assert -3 < make_exact(-10, 1, 99) < 0 < make_exact(-10, 1, 101)


def test_cross_field_coercion_on_square_ratio():
    # sqrt(8) = 2*sqrt(2) lives in the same field as sqrt(2)
    assert exact_sqrt(8) == 2 * exact_sqrt(2)
    with pytest.raises(TypeError):
        exact_sqrt(2) + exact_sqrt(3)  # genuinely different fields


def test_a_non_number_operand_is_a_type_error():
    # _match finds no field element in a str, so each operator declines
    x = make_exact(1, 1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.lt):
        with pytest.raises(TypeError):
            op(x, "1")


def test_an_irrational_value_where_a_rational_is_needed():
    with pytest.raises(ValueError, match="is not rational"):
        QuadExact(exact_sqrt(2), 1, 3)


def test_hash_agrees_with_equality_across_radicands():
    x = QuadExact(Fraction(0), Fraction(1), Fraction(8))
    y = QuadExact(Fraction(0), Fraction(2), Fraction(2))
    assert x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def test_exact_sqrt_denesting():
    r5 = exact_sqrt(5)
    value = (3 + r5) * (3 + r5)
    assert value == make_exact(14, 6, 5)
    assert exact_sqrt(value) == 3 + r5
    with pytest.raises(ExactSqrtError):
        exact_sqrt(1 + r5)  # not a perfect square in Q(sqrt 5)
    with pytest.raises(ExactSqrtError):
        exact_sqrt(-r5)


def test_a_square_norm_that_still_does_not_denest():
    """3+sqrt(5) has norm 9 - 5 = 4, a rational square, so it passes the
    norm test; but it is ((1+sqrt 5)/sqrt 2)^2, whose root lies only in
    Q(sqrt 2, sqrt 5), so neither candidate root squares back to it."""
    value = QuadExact(3, 1, 5)
    assert rational_sqrt(value.p ** 2 - value.q ** 2 * value.d) == 2
    with pytest.raises(ExactSqrtError, match="does not denest"):
        exact_sqrt(value)


def test_solve_quadratic_orders_roots():
    lo, hi = solve_quadratic(1, 10, -500)
    assert lo < hi
    assert lo * lo + 10 * lo - 500 == 0
    assert hi * hi + 10 * hi - 500 == 0
    assert hi == make_exact(-5, Fraction(1, 2), 2100)
    with pytest.raises(ValueError):
        solve_quadratic(1, 0, 1)


def test_solve_quadratic_double_root():
    lo, hi = solve_quadratic(1, -4, 4)
    assert lo == hi == 2


def test_parse_exact_round_trip():
    for value in (17, Fraction(-3, 7), make_exact(-5, Fraction(1, 2), 2100),
                  make_exact(Fraction(1, 3), -2, 7)):
        assert parse_exact(str(value)) == value
    assert parse_exact("2.5") == Fraction(5, 2)


def test_parse_exact_reads_exponents_and_keeps_digits_ints():
    assert parse_exact("1e5") == parse_exact("1.0e5") == 100000
    assert type(parse_exact("-12")) is int and in_q(parse_exact("12.0"))
    # integer-mode trace amounts are smallest units, up to 10**116
    assert parse_exact("9" * 116) == 10 ** 116 - 1
    for text in ("1.5e-40", "1.5e100", "1" * 117, "1/0", "nan"):
        with pytest.raises(ValueError):
            parse_exact(text)


DIGITS = st.text("0123456789_", max_size=30)
DECIMAL_TEXT = st.builds(
    "".join, st.tuples(
        st.sampled_from(["", " "]), st.sampled_from(["", "+", "-"]), DIGITS,
        st.one_of(st.just(""), DIGITS.map(".{}".format)),
        st.one_of(st.just(""), st.builds(
            "{}{}{}".format, st.sampled_from("eE"),
            st.sampled_from(["", "+", "-"]), st.integers(0, 130))),
        st.sampled_from(["", " "])))


@settings(max_examples=500, deadline=None)
@given(DECIMAL_TEXT)
def test_one_decimal_reader_for_configs_and_traces(text):
    """Decimal text reads the same as a trace amount and as a rational
    config amount, or both readers refuse it."""
    try:
        want = parse_amount(text, TOKA, NumericMode.RATIONAL)
    except ValueError:
        with pytest.raises(ValueError):
            parse_exact(text)
    else:
        assert parse_exact(text) == want


def test_copy_and_pickle_round_trip():
    x = make_exact(Fraction(-5, 2), Fraction(1, 6), Fraction(21, 2))
    for twin in (copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x))):
        assert type(twin) is QuadExact and twin == x and str(twin) == str(x)


@given(st.integers(-30, 30), st.integers(-30, 30).filter(bool),
       st.sampled_from(NON_SQUARES))
def test_float_projection_and_sign_agree(p, q, d):
    value = make_exact(p, q, d)
    approx = p + q * math.sqrt(d)
    assert math.isclose(float(value), approx, rel_tol=1e-12, abs_tol=1e-9)
    if abs(approx) > 1e-6:
        assert value.sign() == (1 if approx > 0 else -1)
        assert (value > 0) is (0 < value) is (approx > 0)


@settings(max_examples=300, deadline=None)
@given(st.fractions(-10 ** 40, 10 ** 40, max_denominator=10 ** 40),
       st.none() | st.integers(-45, 45))
@example(Fraction(10 ** 20 + 1), None)  # float(x) would drop the 1
@example(Fraction(-7, 2), None)  # a tie rounds to even
@example(Fraction(-125, 100), 1)
def test_rounding_an_element_of_q_matches_its_fraction(value, ndigits):
    x = QuadExact(value)
    for rule in (math.floor, math.ceil, math.trunc, round):
        got = rule(x)
        assert got == rule(value) and type(got) is int, rule.__name__
    got = round(x, ndigits)
    assert got == round(value, ndigits)
    assert type(got) is (int if ndigits is None else QuadExact)


@settings(max_examples=300, deadline=None)
@given(st.fractions(-10 ** 40, 10 ** 40, max_denominator=10 ** 20),
       st.fractions(-10 ** 20, 10 ** 20, max_denominator=10 ** 20)
       .filter(bool),
       st.sampled_from(NON_SQUARES + [Fraction(2, 9), Fraction(1001, 7)]))
@example(0, 10 ** 20, 2)  # through float, the floor was 4,752 too high
def test_floor_of_an_irrational_element_is_exact(p, q, d):
    x = QuadExact(p, q, d)
    floor = math.floor(x)
    assert type(floor) is int and floor <= x < floor + 1
    assert math.ceil(x) == floor + 1
    for rule in (int, math.trunc, round):
        with pytest.raises(TypeError, match="irrational"):
            rule(x)


@given(st.integers(-20, 20), st.integers(-20, 20).filter(bool),
       st.integers(-20, 20), st.integers(-20, 20),
       st.sampled_from(NON_SQUARES))
def test_ring_axioms_spot_checks(p1, q1, p2, q2, d):
    x = make_exact(p1, q1, d)
    y = make_exact(p2, q2, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if y != 0:
        assert (x / y) * y == x


# x = a + b*sqrt(d) against y = c + e*sqrt(d): the schoolbook (p, q) parts
TEXTBOOK = {
    "__add__": lambda a, b, c, e, d: (a + c, b + e),
    "__radd__": lambda a, b, c, e, d: (c + a, e + b),
    "__sub__": lambda a, b, c, e, d: (a - c, b - e),
    "__rsub__": lambda a, b, c, e, d: (c - a, e - b),
    "__mul__": lambda a, b, c, e, d: (a * c + b * e * d, a * e + b * c),
    "__rmul__": lambda a, b, c, e, d: (c * a + e * b * d, c * b + e * a),
    "__truediv__": lambda a, b, c, e, d: (
        (a * c - b * e * d) / (c * c - e * e * d),
        (b * c - a * e) / (c * c - e * e * d)),
    "__rtruediv__": lambda a, b, c, e, d: (
        (c * a - e * b * d) / (a * a - b * b * d),
        (e * a - c * b) / (a * a - b * b * d)),
}
# each reflected operator, applied with an int or Fraction on the left
REFLECTED = {"__radd__": operator.add, "__rsub__": operator.sub,
             "__rmul__": operator.mul, "__rtruediv__": operator.truediv}
COMPARISONS = {"__eq__": operator.eq, "__lt__": operator.lt,
               "__le__": operator.le, "__gt__": operator.gt,
               "__ge__": operator.ge}
FRACTIONS = st.fractions(-30, 30, max_denominator=12)


@st.composite
def operands(draw, x):
    """An operand for x and its (c, e) parts over x's sqrt(d): an int, a
    Fraction, an element of x's field derived from x (sharing its field
    tuple), built over x's d object or built over an equal d, or one of
    Q(sqrt(k^2 d)) or Q(sqrt(k^2 d / j^2)), the same field."""
    kind = draw(st.sampled_from(["int", "fraction", "derived", "shared_d",
                                 "equal_d", "scaled_d", "ratio_d"]))
    if kind == "int":
        n = draw(st.integers(-30, 30))
        return n, n, 0
    c = draw(FRACTIONS)
    if kind == "fraction":
        return c, c, 0
    e = draw(FRACTIONS.filter(bool))
    if kind == "derived":
        y = c + e * (x - x.p) / x.q  # c + e*sqrt(d), inside x's field
        assert y.field is x.field
        return y, c, e
    if kind == "shared_d":
        return QuadExact(c, e, x.d), c, e
    if kind == "equal_d":
        return make_exact(c, e, int(x.d)), c, e
    k = draw(st.integers(2, 5))
    if kind == "scaled_d":
        return make_exact(c, e, k * k * x.d), c, e * k
    j = draw(st.integers(2, 5))
    return make_exact(c, e, Fraction(k * k, j * j) * x.d), c, e * k / j


@settings(max_examples=300, deadline=None)
@given(FRACTIONS, FRACTIONS.filter(bool), st.sampled_from(NON_SQUARES),
       st.data())
def test_field_ops_match_textbook_formulas(a, b, d, data):
    x = make_exact(a, b, d)
    other, c, e = data.draw(operands(x))
    for name, formula in TEXTBOOK.items():
        try:
            expected = make_exact(*formula(a, b, c, e, d), d)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                getattr(x, name)(other)
            continue
        results = [getattr(x, name)(other)]
        if name in REFLECTED and not isinstance(other, QuadExact):
            results.append(REFLECTED[name](other, x))
        for got in results:
            assert got == expected, name
            assert type(got) is type(expected), name
            assert str(got) == str(expected), name
            assert hash(got) == hash(expected), name
    diff = make_exact(a - c, b - e, d).sign()
    for name, test in COMPARISONS.items():
        assert getattr(x, name)(other) is test(diff, 0), name
    foreign = make_exact(c, e or 1, FOREIGN)
    for name in [*TEXTBOOK, *COMPARISONS]:
        assert getattr(x, name)(foreign) is NotImplemented, name


@pytest.fixture
def sqrt_calls(monkeypatch):
    """Arguments of every numeric.rational_sqrt call from here on."""
    calls = []
    real = numeric.rational_sqrt
    monkeypatch.setattr(numeric, "rational_sqrt",
                        lambda value: calls.append(value) or real(value))
    return calls


def test_in_field_arithmetic_skips_the_square_test(sqrt_calls):
    x = QuadExact(Fraction(-5), Fraction(1, 2), Fraction(2100))
    y = QuadExact(Fraction(3), Fraction(-2), Fraction(2100))  # an equal d
    sqrt_calls.clear()  # the constructor tests each radicand once
    for other in (y, 7, Fraction(-2, 3), x):
        for name in [*TEXTBOOK, *COMPARISONS]:
            getattr(x, name)(other)
    assert sqrt_calls == []


def test_relocation_tests_one_radicand(sqrt_calls):
    # the discriminant of the flash-amount quadratic; every later quantity
    # is computed inside its field
    run = build_relocation_scenario()
    execute_bundle(run.world, run.bundle, run.initiator)
    assert sqrt_calls == [84000000]


def fraction_sign(p, q, d):
    """sign(p + q*sqrt(d)) by the textbook case split, in Fractions: with p
    and q of opposite signs, p's sign wins exactly when p^2 > q^2 d."""
    p, q, d = Fraction(p), Fraction(q), Fraction(d)
    s = p or q if p * q >= 0 else p * (p * p - q * q * d)
    return (s > 0) - (s < 0)


PARTS = st.one_of(st.just(0), st.integers(-10**20, 10**20),
                  st.fractions(-10**6, 10**6, max_denominator=10**6))
RADICANDS = st.one_of(
    st.sampled_from(NON_SQUARES),
    st.fractions(Fraction(1, 1000), 1000, max_denominator=1000).filter(
        lambda d: rational_sqrt(d) is None))


@st.composite
def elements(draw):
    """A QuadExact with int or Fraction parts over an int or fractional
    non-square d; half of them put p next to -q*sqrt(d), where the sign
    turns on the last digits."""
    d = draw(RADICANDS)
    q = draw(PARTS.filter(bool))
    if draw(st.booleans()):
        p = draw(PARTS)
    else:
        root = Fraction(math.sqrt(d)).limit_denominator(
            draw(st.integers(1, 10**12)))
        p = -q * root + draw(st.sampled_from([0, 1, -1])) * Fraction(
            1, draw(st.integers(1, 10**30)))
    return QuadExact(p, q, d)


@settings(max_examples=500, deadline=None)
@given(elements())
def test_sign_matches_fraction_reference(x):
    expected = fraction_sign(x.p, x.q, x.d)
    assert x.sign() == expected
    assert (x > 0, x == 0, x < 0) == (expected > 0, expected == 0,
                                      expected < 0)
    assert (-x).sign() == -expected


SIX = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
       operator.ge)
INTS = st.one_of(st.sampled_from([0, 1, -1, 10**40, -10**40]),
                 st.integers(-10**45, 10**45))


@settings(max_examples=500, deadline=None)
@given(st.one_of(elements(), PARTS.map(QuadExact)), INTS)
def test_int_comparisons_match_the_general_path(x, k):
    # y - k reads k through _match; y OP k compares on y's ints directly
    for y in (x, x + k):  # x + k lies as near k as x lies near 0
        s = (y - k).sign()
        for op in SIX:
            assert op(y, k) is op(s, 0), (op, y, k)
            assert op(k, y) is op(0, s), (op, y, k)
            assert op(y, k) is op(y, Fraction(k)), (op, y, k)


@settings(max_examples=300, deadline=None)
@given(elements())
def test_inverse_is_exact(x):
    one = x * (1 / x)
    assert one == 1
    assert in_q(one)


@pytest.mark.parametrize("p, q, d", [
    (1766319049, -226153980, 61),  # p^2 - 61 q^2 = 1
    (665857, -470832, 2),  # p^2 - 2 q^2 = 1
])
def test_sign_of_pell_units(p, q, d):
    x = QuadExact(Fraction(p), Fraction(q), Fraction(d))
    assert x.sign() == 1 and x > 0
    assert (-x).sign() == -1 and -x < 0
    assert x * (1 / x) == 1


def test_float_loses_the_sign_of_the_61_unit():
    x = QuadExact(Fraction(1766319049), Fraction(-226153980), Fraction(61))
    assert float(x) == 0.0
    assert x > 0


@st.composite
def twins(draw, x):
    """One operand for x built twice: a copy that x's operators read
    directly (an element of x's field tuple or of Q) and one they read
    through _match (an element of x's field in a tuple of its own, an int
    or a Fraction).  An element of Q reads every QuadExact directly, so
    it draws no irrational operand."""
    if x.b and draw(st.booleans()):
        c, e = draw(FRACTIONS), draw(FRACTIONS.filter(bool))
        y = c + e * (x - x.p) / x.q  # c + e*sqrt(d), sharing x's tuple
        return y, QuadExact(y.p, y.q, y.d)
    value = draw(PARTS)
    return QuadExact(value), value


@settings(max_examples=300, deadline=None)
@given(st.one_of(elements(), PARTS.map(QuadExact)), st.data())
def test_the_operand_shortcut_agrees_with_match(x, data):
    """Each operator and comparison gives the same (a, b, n) or truth
    value whether it reads its operand directly or through _match.  Python
    calls a reflected method only for a left operand of another type, so
    __rsub__ and __rtruediv__ read both copies through _match."""
    shared, rebuilt = data.draw(twins(x))
    calls = []
    real = QuadExact._match
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QuadExact, "_match", lambda self, other:
                      calls.append(other) or real(self, other))
        for name in [*TEXTBOOK, *COMPARISONS]:
            results = []
            for operand in (shared, rebuilt):
                calls.clear()
                try:
                    got = getattr(x, name)(operand)
                except ZeroDivisionError:
                    got = ZeroDivisionError
                results.append(got if type(got) is not QuadExact
                               else (got.a, got.b, got.n, got.d))
                if operand is shared:  # a reflected method always reads
                    reads = name in ("__rsub__", "__rtruediv__")
                else:  # an int comparison has a shortcut of its own
                    reads = not (type(rebuilt) is int and name in COMPARISONS)
                assert len(calls) == reads, (name, operand)
            assert results[0] == results[1], name
            assert type(results[0]) is type(results[1]), name


@pytest.fixture
def fractions_built(monkeypatch):
    """Arguments of every Fraction built from here on."""
    built = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kwargs:
                        built.append(args) or real(cls, *args, **kwargs))
    Fraction(1, 2)
    assert len(built) == 1  # the counter sees every Fraction built
    built.clear()
    return built


def test_signs_build_no_fractions(fractions_built):
    x = QuadExact(Fraction(1766319049), Fraction(-226153980), Fraction(61))
    y = QuadExact(Fraction(-7, 3), Fraction(11, 5), Fraction(26, 3))
    z = QuadExact(Fraction(5, 2), Fraction(-3, 4), y.d)
    neg, frac, zero = -x, Fraction(-3, 7), Fraction(0)
    # y against an int, a Fraction, and elements of its field
    diffs = [(other, fraction_sign(y.p - c, y.q - e, y.d)) for other, c, e
             in [(3, 3, 0), (-1, -1, 0), (frac, frac, 0), (z, z.p, z.q),
                 (y, y.p, y.q)]]
    fractions_built.clear()
    assert [x.sign(), neg.sign(), y.sign()] == [1, -1, 1]
    assert (x > 0, neg < 0, x > frac, y > zero, zero == 0) == (True,) * 5
    for other, diff in diffs:
        for name, test in COMPARISONS.items():
            assert getattr(y, name)(other) is test(diff, 0), (name, other)
    assert fractions_built == []


def test_field_ops_build_no_fractions(fractions_built):
    """No result builds a Fraction, whether it lies inside the field or,
    as an element of Q, outside it."""
    x = QuadExact(Fraction(-7, 3), Fraction(11, 5), Fraction(26, 3))
    y = QuadExact(Fraction(5, 2), Fraction(-3, 4), x.d)
    conj = QuadExact(x.p, -x.q, x.d)  # x*conj and x/x are rational
    frac = Fraction(-2, 9)
    rational = QuadExact(frac)
    fractions_built.clear()
    for other in (y, conj, x, 7, -1, frac, rational):
        for name in TEXTBOOK:
            getattr(x, name)(other)
            getattr(rational, name)(other)
    assert in_q(x * conj) and in_q(rational * 7)
    assert isinstance(-x, QuadExact) and fractions_built == []


def test_relocation_builds_one_fraction(fractions_built):
    # the radicand of the one field the relocation opens; every parsed
    # amount and every rational result is an element of Q
    run = build_relocation_scenario()
    assert fractions_built == [(84000000, 1)]
    execute_bundle(run.world, run.bundle, run.initiator)
    assert fractions_built == [(84000000, 1)]


def counted(monkeypatch, owner, names):
    """A Counter of the calls, from here on, to owner's methods names."""
    calls = Counter()
    for name in names:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            calls.update([name]) or real(*args))
    return calls


def relocation(pool1, pool2, asset, a):
    """A call that plans P's relocation of a through O to B, over a world
    whose flash provider covers any flash amount, and returns the call
    that executes its bundle and returns the trace."""
    world = WorldState(mode=pool1.mode)
    for aid in ("P", "B", "O", "flash"):
        world.add_address(Address(aid))
    world.add_pool(pool1)
    world.add_pool(pool2)
    world.set_balance("P", asset, a)
    world.set_balance("flash", asset, pool1.reserve0 + pool2.reserve0)
    world.approve("P", "O", asset, a)

    def plan():
        plan = plan_relocation(pool1, pool2, asset, "P", "B", "O", a)
        bundle = build_relocation_bundle(plan, pool1, pool2)
        return lambda: execute_bundle(world, bundle, "O")[1]
    return plan


QUAD_OPERATORS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                  "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "sign"]


def test_relocation_work_counts(monkeypatch):
    """Operands that share an element's field or lie in Q skip _match, and
    each swap reads its pool's two reserves from one lookup.  Before both,
    the rational relocation (the first of the sweep_rational benchmark's
    seed 1) made 83 _match calls and 46 reserve_of + other_asset calls,
    and the integer one (the first of fee_integer's) 305 reserve_of
    calls.  The 2 _match calls left read ints in the plan, which builds
    only the root it reads (both roots took a third).

    The engine credits a balance, or opens a flash debt, under a fresh
    key by storing the amount itself: an int 0 on the left of a QuadExact
    took 4 more _match calls, through __radd__, per rational relocation.
    So the 9 actions of its bundle, with 12 transfer events and 9 call
    records, make only the QuadExact operator calls pinned below; the
    integer bundle makes none.  `net_deltas` sums the trace the same way,
    so it makes no _match call; from an int 0 it made 9.

    The plan checks its pool pair once, and every solver it runs trusts
    that check: the 6 other_asset calls left are the check's 2, the
    bundle's 1 and one per engine swap.  Before, the rational relocation
    made 4 pair checks and 12 other_asset calls, and the integer one 74
    and 152, one check per probe of the flash bisection.  The integer
    plan's 142 quotes are 2 per bisection probe (69) plus the optimum's
    and the phase-2 replay's 2 each; the rational plan quotes only the
    phase-2 replay."""
    weth, usdt = AssetId("WETH", 18), AssetId("USDT", 6)
    integer = NumericMode.INTEGER
    rational = relocation(
        PoolState("pool1", TOKA, TOKB, Fraction(1150), Fraction(4712)),
        PoolState("pool2", TOKA, TOKB, Fraction(566), Fraction(2139)),
        TOKA, Fraction(16))
    fee_bearing = relocation(
        PoolState("pool1", weth, usdt, 4111914272603397778143,
                  5769397031883, 30, integer),
        PoolState("pool2", weth, usdt, 233832401659235910865,
                  328043612484, 30, integer),
        weth, 15549377870619113110)
    matches = counted(monkeypatch, QuadExact, ["_match"])
    lookups = counted(monkeypatch, PoolState, ["reserve_of", "other_asset"])
    planning = counted(monkeypatch, planner, ["_check_pair", "amount_out"])
    execute = rational()
    operators = counted(monkeypatch, QuadExact, QUAD_OPERATORS)
    trace = execute()
    assert matches["_match"] == 2
    assert lookups == {"other_asset": 6}
    assert planning == {"_check_pair": 1, "amount_out": 2}
    assert operators == {"__add__": 13, "__sub__": 14, "__mul__": 5,
                         "__truediv__": 3, "__lt__": 10, "__le__": 5,
                         "__gt__": 10, "__ge__": 1}
    assert (len(trace.events), len(trace.calls)) == (12, 9)
    matches.clear()
    net_deltas(trace)
    assert matches["_match"] == 0
    lookups.clear()
    planning.clear()
    execute = fee_bearing()
    operators.clear()
    trace = execute()
    assert lookups == {"reserve_of": 1, "other_asset": 6}
    assert planning == {"_check_pair": 1, "amount_out": 142}
    assert operators == {}
    assert (len(trace.events), len(trace.calls)) == (12, 9)


class NoMembers:
    """A stand-in for `NumericMode` whose every attribute read raises."""

    def __getattr__(self, name):
        raise AssertionError(f"NumericMode.{name} read at run time")


@pytest.mark.parametrize("mode", list(NumericMode), ids=lambda m: m.value)
def test_a_relocation_reads_no_numeric_mode_member(monkeypatch, mode):
    """On Python 3.11 an enum member read such as `NumericMode.INTEGER`
    goes through `EnumType.__getattr__`, about 14 times the cost of a
    global read, and the integer relocation below made 152 of them, two
    per probe of the flash bisection.  The modules compare modes with the
    globals `amm.RATIONAL` and `amm.INTEGER`, so the whole relocation
    (the first of the sweep_rational or fee_integer benchmark's seed 1)
    runs with `NumericMode` out of reach of amm, planner and engine."""
    weth, usdt = AssetId("WETH", 18), AssetId("USDT", 6)
    pools = (
        PoolState("pool1", TOKA, TOKB, Fraction(1150), Fraction(4712)),
        PoolState("pool2", TOKA, TOKB, Fraction(566), Fraction(2139)),
        TOKA, Fraction(16)) if mode is NumericMode.RATIONAL else (
        PoolState("pool1", weth, usdt, 4111914272603397778143,
                  5769397031883, 30, mode),
        PoolState("pool2", weth, usdt, 233832401659235910865,
                  328043612484, 30, mode),
        weth, 15549377870619113110)
    plan = relocation(*pools)
    for module in ("amm", "planner", "engine"):
        monkeypatch.setattr(f"ammflow.{module}.NumericMode", NoMembers())
    trace = plan()()
    deltas = net_deltas(trace)
    assert deltas[("P", pools[2].symbol)] == -pools[3]
    assert deltas[("B", pools[2].symbol)] > 0


def test_rational_target_plan_skips_the_walk(monkeypatch, sym_pools):
    """Only integer mode walks up from the extraction root: rational
    mode's exact root nets the target.  So a rational target plan quotes
    b' once in the extraction solve and twice in the phase-2 replay; the
    walk's loop test used to replay the exact root first, for 5 quotes.
    The plan checks its pool pair once: the solve trusts that check."""
    calls = counted(monkeypatch, planner, ["amount_out", "_check_pair"])
    plan = plan_relocation(*sym_pools, TOKA, "P", "B", "O", Fraction(10),
                           target=Fraction(5), x_override=Fraction(10))
    assert plan.predicted_a_prime == 5
    assert calls == {"amount_out": 3, "_check_pair": 1}


RATIONALS = st.one_of(st.integers(-10**6, 10**6),
                      st.fractions(-10**6, 10**6, max_denominator=10**6))
ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
ORDERINGS = (*COMPARISONS.values(), operator.ne)


def assert_same_rational(got, want):
    """got is the element of Q equal to the Fraction want, with its str and
    hash."""
    assert in_q(got) and got == want, (got, want)
    assert str(got) == str(want) and hash(got) == hash(want)


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS, st.sampled_from(["int", "fraction", "q"]))
def test_q_elements_agree_with_fraction(p, c, kind):
    """An element of Q, against an int, a Fraction or another element of
    Q, computes, compares, prints, hashes and copies as the equal
    Fraction."""
    x, f = QuadExact(p), Fraction(p)
    ref = Fraction(c) if kind != "int" else round(c)
    other = QuadExact(ref) if kind == "q" else ref
    for op in ARITHMETIC:
        for left, right, want in ((x, other, (f, ref)), (other, x, (ref, f))):
            try:
                want = op(*want)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            assert_same_rational(op(left, right), want)
    for op in ORDERINGS:
        for value, value_ref in ((other, ref), (float(ref), float(ref)),
                                 (math.inf, math.inf), (-math.inf, -math.inf),
                                 (math.nan, math.nan)):
            assert op(x, value) is op(f, value_ref), (op, value)
            assert op(value, x) is op(value_ref, f), (op, value)
    assert float(x) == float(f) and bool(x) is bool(f)
    assert_same_rational(abs(x), abs(f))
    assert_same_rational(-x, -f)
    for twin in (copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x))):
        assert_same_rational(twin, f)


@settings(max_examples=300, deadline=None)
@given(RATIONALS, FRACTIONS, FRACTIONS.filter(bool),
       st.sampled_from(NON_SQUARES))
def test_q_meets_a_quadratic_field(p, c, e, d):
    """An element of Q and an element y of Q(sqrt(d)), in either order,
    give what the equal Fraction gives with y."""
    x, f, y = QuadExact(p), Fraction(p), make_exact(c, e, d)
    for op in ARITHMETIC:
        for left, right, want in ((x, y, (f, y)), (y, x, (y, f))):
            try:
                want = op(*want)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            got = op(left, right)
            assert got == want and str(got) == str(want), (op, left, right)
            assert got.field is (y.field if got.b else numeric._Q)
    for op in ORDERINGS:
        assert op(x, y) is op(f, y) and op(y, x) is op(y, f), op


def assert_normal_form(value):
    """n > 0 and gcd(a, b, n) == 1, the field of Q when b == 0, and the
    ints a rebuild from p, q and d would hold."""
    if isinstance(value, QuadExact):
        a, b, n = value.a, value.b, value.n
        assert n > 0 and math.gcd(a, b, n) == 1, (a, b, n)
        assert b != 0 or in_q(value), (a, b, n)
        twin = QuadExact(value.p, value.q, value.d)
        assert (twin.a, twin.b, twin.n) == (a, b, n)


@settings(max_examples=300, deadline=None)
@given(FRACTIONS, FRACTIONS.filter(bool), st.sampled_from(NON_SQUARES),
       st.data())
def test_results_are_in_normal_form(a, b, d, data):
    x = make_exact(a, b, d)
    assert_normal_form(x)
    assert_normal_form(parse_exact(str(x)))
    assert_normal_form(-x)
    other, _, _ = data.draw(operands(x))
    assert_normal_form(other)
    for name in TEXTBOOK:
        try:
            assert_normal_form(getattr(x, name)(other))
        except ZeroDivisionError:
            pass


@pytest.mark.parametrize("p, q, d", [
    (1, 0, 2), (1, Fraction(0), 2),  # no radical part
    (1, 1, 0), (1, 1, -2), (1, 1, Fraction(-1, 3)),  # d <= 0
    (1, 1, 4), (1, 1, Fraction(9, 4)), (0, 2, 1),  # d a rational square
])
def test_constructor_refuses_broken_invariant(p, q, d):
    # the constructor refuses a negative radicand, and builds the element
    # of Q that a vanishing radical leaves, so no element breaks the
    # invariant
    if d < 0:
        with pytest.raises(ValueError):
            QuadExact(p, q, d)
        return
    x = QuadExact(p, q, d)
    assert in_q(x) and x == make_exact(p, q, d)
    assert x == (p + q * rational_sqrt(d) if q else p)


READ_TABLE = {"n": (int, numeric.REQUIRED), "f": (float, 0.0),
              "b": (bool, False), "c": (("x", 1), "x"),
              "items": ([{"id": (str, numeric.REQUIRED)}], []),
              "mode": (NumericMode, None), "any": (object, None)}


@pytest.mark.parametrize("data, message", [
    ({}, "n is required"),
    ({"n": True}, "n must be an int, got True"),
    ({"n": 1, "f": "1"}, "f must be a number in float range, got '1'"),
    ({"n": 1, "f": 10 ** 400}, "f must be a number in float range"),
    ({"n": 1, "c": True}, "c must be one of ('x', 1), got True"),
    ({"n": 1, "c": 1.0}, "c must be one of ('x', 1), got 1.0"),
    ({"n": 1, "items": {}}, "items must be a list, got {}"),
    ({"n": 1, "items": [{"id": 5}]}, "items.0.id must be a string, got 5"),
    ({"n": 1, "items": [{"id": "a", "k": 1}]}, "unknown key items.0.k"),
    ({"n": 1, "mode": "float"}, "mode: 'float' is not a valid NumericMode"),
    ({"n": 1, "mode": 1}, "mode must be a string, got 1"),
    ([], "the root must be a mapping, got []"),
])
def test_read_refuses_naming_the_path(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        numeric.read(READ_TABLE, data)


def test_read_fills_defaults_and_reads_each_kind():
    values = numeric.read(READ_TABLE, {
        "n": 1, "f": 2, "c": 1, "items": [{"id": "a"}], "mode": "integer",
        "any": [None]})
    assert values == {"n": 1, "f": 2.0, "b": False, "c": 1,
                      "items": [{"id": "a"}], "mode": NumericMode.INTEGER,
                      "any": [None]}
    assert type(values["f"]) is float
    assert numeric.read({"a": (numeric.decimal_text, None)},
                        {"a": "1.5e3"}) == {"a": "1.5e3"}
