import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ammflow import engine, planner
from ammflow.amm import (BPS_DENOM, AmmError, AssetId, NumericMode,
                         OutputNotLessThanReserve, PoolState, UnknownAsset,
                         ZeroInput, amount_out, format_amount,
                         keeps_fee_adjusted_k, parse_amount,
                         solve_input_for_output, spot_price, swap_exact_in)
from ammflow.numeric import QuadExact, exact_sqrt
from ammflow.scenarios import build_relocation_scenario
from conftest import TOKA, TOKB, make_pool


def v2_amount_out(amount_in, r_in, r_out, fee_bps):
    """Independent integer oracle, the on-chain formula verbatim."""
    eff = amount_in * (10_000 - fee_bps)
    return eff * r_out // (r_in * 10_000 + eff)


class TestSwapExactIn:
    def test_zero_fee_example(self, sym_pool):
        amount = Fraction("27.912878")
        out, after = swap_exact_in(sym_pool, TOKA, amount)
        assert out == Fraction(100) * amount / (100 + amount)
        assert abs(float(out) - 21.8218) < 1e-4
        assert after.k == sym_pool.k  # exact, not approximate

    def test_zero_input_rejected(self, sym_pool):
        with pytest.raises(ZeroInput):
            swap_exact_in(sym_pool, TOKA, Fraction(0))
        with pytest.raises(ZeroInput):
            swap_exact_in(sym_pool, TOKA, Fraction(-1))

    def test_fee_mode_example(self):
        pool = make_pool("p", Fraction(100), Fraction(100), fee_bps=30)
        out, after = swap_exact_in(pool, TOKA, Fraction(10))
        assert out == Fraction(99700, 10997)  # 997/109.97
        assert abs(float(out) - 9.0661) < 1e-4
        assert after.k > pool.k

    def test_unknown_asset(self, sym_pool):
        with pytest.raises(UnknownAsset):
            swap_exact_in(sym_pool, AssetId("XXX"), Fraction(1))

    def test_integer_mode_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(1000):
            r_in = rng.randint(10**3, 10**24)
            r_out = rng.randint(10**3, 10**24)
            fee = rng.choice([0, 1, 5, 30, 100])
            amount = rng.randint(1, r_in * 3)
            pool = PoolState("p", TOKA, TOKB, r_in, r_out, fee,
                             NumericMode.INTEGER)
            out, after = swap_exact_in(pool, TOKA, amount)
            assert out == v2_amount_out(amount, r_in, r_out, fee)
            assert after.reserve0 == r_in + amount
            assert after.reserve1 == r_out - out
            assert after.k >= pool.k

    def test_zero_fee_rational_preserves_k_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            pool = make_pool("p", Fraction(rng.randint(1, 10**6)),
                             Fraction(rng.randint(1, 10**6)))
            amount = Fraction(rng.randint(1, 10**6), rng.randint(1, 1000))
            _, after = swap_exact_in(pool, TOKA, amount)
            assert after.k == pool.k


class TestSolveInputForOutput:
    def test_inverse_example(self, sym_pool):
        want = Fraction("17.912878")
        needed = solve_input_for_output(sym_pool, TOKA, want)
        assert needed == Fraction(100) * want / (100 - want)
        assert abs(float(needed) - 21.8218) < 1e-4
        out, _ = swap_exact_in(sym_pool, TOKB, needed)
        assert out == want

    def test_half_reserve_needs_equal_input(self, sym_pool):
        # (100 - 50)(100 + i) = 10000 forces i = 100
        assert solve_input_for_output(sym_pool, TOKA, Fraction(50)) == 100

    def test_cannot_drain_reserve(self, sym_pool):
        with pytest.raises(OutputNotLessThanReserve):
            solve_input_for_output(sym_pool, TOKA, Fraction(100))

    def test_round_trip_minimality_integer(self):
        rng = random.Random(13)
        for _ in range(1000):
            r0 = rng.randint(10**4, 10**12)
            r1 = rng.randint(10**4, 10**12)
            fee = rng.choice([0, 30])
            pool = PoolState("p", TOKA, TOKB, r0, r1, fee,
                             NumericMode.INTEGER)
            want = rng.randint(1, r0 - 1)
            needed = solve_input_for_output(pool, TOKA, want)
            out, _ = swap_exact_in(pool, TOKB, needed)
            assert out >= want
            if needed > 1:
                less, _ = swap_exact_in(pool, TOKB, needed - 1)
                assert less < want

    @settings(max_examples=300, deadline=None)
    @given(r_in=st.integers(1, 50), r_out=st.integers(2, 50),
           fee_bps=st.sampled_from([0, 1, 5, 30, 100, 9999]),
           data=st.data())
    def test_integer_input_is_brute_force_minimum(self, r_in, r_out,
                                                  fee_bps, data):
        want = data.draw(st.integers(1, r_out - 1))
        pool = PoolState("p", TOKA, TOKB, r_out, r_in, fee_bps,
                         NumericMode.INTEGER)
        needed = solve_input_for_output(pool, TOKA, want)
        for amount_in in range(1, 2000):
            covers = v2_amount_out(amount_in, r_in, r_out, fee_bps) >= want
            assert covers == (amount_in >= needed), amount_in
        # past the table, the output's monotonicity settles minimality
        assert v2_amount_out(needed, r_in, r_out, fee_bps) >= want
        assert v2_amount_out(needed - 1, r_in, r_out, fee_bps) < want

    def test_round_trip_exact_rational(self):
        rng = random.Random(17)
        for _ in range(300):
            pool = make_pool("p", Fraction(rng.randint(10, 10**6)),
                             Fraction(rng.randint(10, 10**6)),
                             fee_bps=rng.choice([0, 30]))
            want = pool.reserve0 * Fraction(rng.randint(1, 99), 100)
            needed = solve_input_for_output(pool, TOKA, want)
            out, _ = swap_exact_in(pool, TOKB, needed)
            assert out == want


@pytest.mark.parametrize("mode", list(NumericMode))
@pytest.mark.parametrize("call, error", [
    (lambda pool: solve_input_for_output(pool, AssetId("TOKC"), 1),
     UnknownAsset),
    (lambda pool: solve_input_for_output(pool, TOKA, 0), ZeroInput),
    (lambda pool: solve_input_for_output(pool, TOKA, -1), ZeroInput),
    (lambda pool: pool.reserve_of(AssetId("TOKC")), UnknownAsset),
    (lambda pool: pool.other_asset(AssetId("TOKC")), UnknownAsset),
], ids=["inverse_foreign_asset", "inverse_zero_output",
        "inverse_negative_output", "reserve_of_foreign_asset",
        "other_asset_of_foreign_asset"])
def test_refusals(mode, call, error):
    pool = PoolState("p", TOKA, TOKB, 100, 100, 30, mode) \
        if mode is NumericMode.INTEGER \
        else make_pool("p", Fraction(100), Fraction(100), 30)
    with pytest.raises(error):
        call(pool)


class TestSpotPrice:
    def test_symmetric(self, sym_pool):
        assert spot_price(sym_pool, TOKA) == 1

    def test_ratio(self):
        pool = make_pool("p", Fraction(200), Fraction(100))
        assert spot_price(pool, TOKA) == Fraction(1, 2)

    def test_after_dislocation_swap(self, sym_pool):
        from ammflow.planner import solve_flash_amount
        pool2 = make_pool("pool2", Fraction(100), Fraction(100))
        x = solve_flash_amount(sym_pool, pool2, TOKA, Fraction(10))
        _, after = swap_exact_in(sym_pool, TOKA, 10 + x)
        assert abs(float(spot_price(after, TOKA)) - 78.1782 / 127.9129) < 1e-3


class TestAmountIo:
    def test_parse_integer_mode(self):
        usdt = AssetId("USDT", 6)
        assert parse_amount("1.5", usdt, NumericMode.INTEGER) == 1_500_000
        assert parse_amount("159461.05", usdt,
                            NumericMode.INTEGER) == 159_461_050_000
        with pytest.raises(ValueError):
            parse_amount("0.0000001", usdt, NumericMode.INTEGER)
        with pytest.raises(ValueError):
            parse_amount("not-a-number", usdt, NumericMode.INTEGER)

    def test_parse_rational_mode(self):
        assert parse_amount("27.912878", TOKA,
                            NumericMode.RATIONAL) == Fraction("27.912878")

    def test_format_round_trip(self):
        usdt = AssetId("USDT", 6)
        text = format_amount(1_500_000, usdt)
        assert text == "1.5"
        assert parse_amount(text, usdt, NumericMode.INTEGER) == 1_500_000

    @pytest.mark.parametrize("text, value", [
        ("12", 12), (" 2.5 ", Fraction(5, 2)), (".5", Fraction(1, 2)),
        ("5.", 5), ("-0.25", Fraction(-1, 4)), ("+.5e+3", 500),
        ("1E-2", Fraction(1, 100)), ("1_000", 1000), ("-0", 0),
        ("0e999999999", 0), ("000120.5000", Fraction(241, 2)),
        ("9" * 78, 10 ** 78 - 1), ("1e77", 10 ** 77),
        ("0.1e-37", Fraction(1, 10 ** 38)), ("1e-38", Fraction(1, 10 ** 38)),
    ])
    def test_parse_grammar(self, text, value):
        # an element of Q (the degree-1 level of QuadExact) that prints
        # and hashes as the equal Fraction
        got = parse_amount(text, TOKA, NumericMode.RATIONAL)
        assert type(got) is QuadExact and not got.b and got == value
        assert str(got) == str(Fraction(value))
        assert hash(got) == hash(value)

    @pytest.mark.parametrize("text", [
        "NaN", "nan", "sNaN", "Infinity", "-inf", "Inf", "", ".", "e5",
        "1e", "1.2.3", "0x10", "--1", "1e78", "1" + "0" * 78, "-1e78",
        "1e-39", "1e30000", "1e3000000", "1e-3000000", "1e" + "9" * 5000,
    ])
    def test_parse_refuses(self, text):
        for mode in NumericMode:
            with pytest.raises(ValueError):
                parse_amount(text, TOKA, mode)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["", "+", "-"]), st.text("0123456789", max_size=20),
           st.text("0123456789", max_size=10), st.booleans(),
           st.integers(-20, 40), st.integers(0, 38))
    def test_parse_agrees_with_decimal(self, sign, whole, frac, point, exp,
                                       decimals):
        from decimal import Decimal
        if not (whole or frac):
            whole = "0"
        text = sign + whole + ("." + frac if point or frac else "") \
            + (f"e{exp}" if exp else "")
        value = Fraction(Decimal(text))
        asset = AssetId("TOK", decimals)
        assert parse_amount(text, asset, NumericMode.RATIONAL) == value
        units = value * 10 ** decimals
        if units.denominator == 1:
            assert parse_amount(text, asset, NumericMode.INTEGER) == units
        else:
            with pytest.raises(ValueError, match="finer than TOK's"):
                parse_amount(text, asset, NumericMode.INTEGER)

    def test_format_is_exact_beyond_28_digits(self):
        weth = AssetId("WETH", 18)
        assert format_amount(10 ** 40 + 1, weth) \
            == "10000000000000000000000.000000000000000001"
        assert format_amount(-5 * 10 ** 17, weth) == "-0.5"
        assert format_amount(0, weth) == "0"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(2 ** 256) + 1, 2 ** 256 - 1), st.integers(0, 38))
    def test_format_parse_round_trip(self, n, decimals):
        asset = AssetId("TOK", decimals)
        text = format_amount(n, asset)
        assert parse_amount(text, asset, NumericMode.INTEGER) == n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10 ** 28) + 1, 10 ** 28 - 1), st.integers(0, 38))
    def test_format_matches_decimal_up_to_28_digits(self, n, decimals):
        # the former rendering, exact within Decimal's 28-digit context
        from decimal import Decimal
        whole = Fraction(n, 10 ** decimals)
        want = format(Decimal(whole.numerator) / Decimal(whole.denominator),
                      "f")
        asset = AssetId("TOK", decimals)
        assert format_amount(n, asset) == want


def test_pool_validation():
    with pytest.raises(ValueError):
        make_pool("p", Fraction(0), Fraction(100))
    with pytest.raises(ValueError, match="positive rational amounts"):
        make_pool("p", 100.0, Fraction(100))  # a float prices inexactly
    with pytest.raises(ValueError):
        PoolState("p", TOKA, TOKB, 1, 1, 10_000, NumericMode.INTEGER)
    with pytest.raises(ValueError):
        AssetId("")
    with pytest.raises(ValueError):
        AssetId("X", 40)


def reserves(mode):
    if mode is NumericMode.INTEGER:
        return st.integers(1, 10 ** 30)
    return st.fractions(Fraction(1, 10 ** 9), 10 ** 9, max_denominator=10 ** 9)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(NumericMode), st.integers(0, BPS_DENOM - 1),
       st.sampled_from([TOKA, TOKB]), st.data())
def test_with_reserves_equals_replace(mode, fee_bps, asset_in, data):
    r0, r1, new_in, new_out = (data.draw(reserves(mode)) for _ in range(4))
    pool = PoolState("p", TOKA, TOKB, r0, r1, fee_bps, mode)
    copy = pool.with_reserves(asset_in, new_in, new_out)
    want = dataclasses.replace(pool, reserve0=new_in, reserve1=new_out) \
        if asset_in == TOKA \
        else dataclasses.replace(pool, reserve0=new_out, reserve1=new_in)
    assert type(copy) is PoolState
    assert copy == want and hash(copy) == hash(want)
    assert repr(copy) == repr(want)
    with pytest.raises(dataclasses.FrozenInstanceError):
        copy.reserve0 = r0
    assert pool == PoolState("p", TOKA, TOKB, r0, r1, fee_bps, mode)


def signed_amounts(mode):
    if mode is NumericMode.INTEGER:
        return st.integers(-(10 ** 30), 10 ** 30)
    return st.fractions(-(10 ** 9), 10 ** 9, max_denominator=10 ** 9)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NumericMode), st.sampled_from([0, 5, 30, 100]),
       st.sampled_from([TOKA, TOKB, AssetId("TOKC")]), st.data())
def test_quote_is_the_swap_output(mode, fee_bps, asset_in, data):
    # the quote prices exactly as the swap does, and refuses what the
    # swap refuses with the same exception class
    r0, r1 = (data.draw(reserves(mode)) for _ in range(2))
    amount = data.draw(signed_amounts(mode))
    pool = PoolState("p", TOKA, TOKB, r0, r1, fee_bps, mode)
    try:
        want = swap_exact_in(pool, asset_in, amount)[0]
    except AmmError as exc:
        with pytest.raises(AmmError) as quoted:
            amount_out(pool, asset_in, amount)
        assert type(quoted.value) is type(exc)
    else:
        assert amount_out(pool, asset_in, amount) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(NumericMode), st.integers(0, BPS_DENOM - 1),
       st.integers(1, 10 ** 30), st.integers(1, 10 ** 30),
       st.integers(1, 10 ** 40))
@example(NumericMode.RATIONAL, 0, 1, 10 ** 30, 10 ** 40)
@example(NumericMode.INTEGER, 0, 1, 1, 10 ** 40)
def test_no_swap_drains_a_reserve(mode, fee_bps, r_in, r_out, amount_in):
    # r_in > 0, fee < 10,000 bps and a positive input put the output
    # below r_out in both modes, so pricing needs no drain guard
    pool = PoolState("p", TOKA, TOKB, r_in, r_out, fee_bps, mode)
    assert amount_out(pool, TOKA, amount_in) < r_out
    _, after = swap_exact_in(pool, TOKA, amount_in)
    assert after.reserve0 > 0 and after.reserve1 > 0


FEES = [0, 1, 5, 30, 100, 2500, 5000, 9999]
ROOT2 = exact_sqrt(2)


def positive_amounts(kind):
    """Positive ints, Fractions, or elements p + q*sqrt(2) of Q(sqrt 2)."""
    if kind == "int":
        return st.integers(2, 10 ** 24)
    fractions = st.fractions(Fraction(1, 10 ** 6), 10 ** 9,
                             max_denominator=10 ** 6)
    if kind == "fraction":
        return fractions
    return st.builds(lambda p, q: p + q * ROOT2, fractions, fractions)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["int", "fraction", "quad"]), st.sampled_from(FEES),
       st.data())
def test_pricing_matches_textbook_formulas(kind, fee_bps, data):
    """The quote, the minimal input and the flash-swap k check against
    the textbook formulas, with the fee factor g/D as one Fraction and
    floors or ceilings taken only in integer mode."""
    integer = kind == "int"
    mode = NumericMode.INTEGER if integer else NumericMode.RATIONAL
    r_in, r_out, amount, paid = (data.draw(positive_amounts(kind))
                                 for _ in range(4))
    pool = PoolState("p", TOKA, TOKB, r_in, r_out, fee_bps, mode)
    gamma = Fraction(BPS_DENOM - fee_bps, BPS_DENOM)

    out = amount * gamma * r_out / (r_in + amount * gamma)
    assert amount_out(pool, TOKA, amount) == \
        (math.floor(out) if integer else out)
    if integer:
        assert math.floor(out) == v2_amount_out(amount, r_in, r_out, fee_bps)

    share = st.fractions(Fraction(1, 1000), Fraction(999, 1000))
    want = data.draw(st.integers(1, r_out - 1)) if integer \
        else r_out * data.draw(share)
    need = want * r_in / ((r_out - want) * gamma)
    assert solve_input_for_output(pool, TOKB, want) == \
        (math.ceil(need) if integer else need)

    # the k a repayment of `paid` would leave, or that of `amount` itself
    k_before = (r_in + data.draw(st.sampled_from([paid, amount])) * gamma) \
        * r_out
    if integer:
        k_before = math.floor(k_before) + data.draw(st.integers(-1, 1))
    assert keeps_fee_adjusted_k(pool, TOKA, amount, k_before) is \
        ((r_in + amount * gamma) * r_out >= k_before)


@pytest.fixture
def int_operands(monkeypatch):
    """The int operands of every Fraction and QuadExact product and
    quotient from here on."""
    seen = []
    for cls in (Fraction, QuadExact):
        for name in ("__mul__", "__rmul__", "__truediv__"):
            def spy(self, other, real=getattr(cls, name)):
                if isinstance(other, int):
                    seen.append(other)
                return real(self, other)
            monkeypatch.setattr(cls, name, spy)
    Fraction(3, 7) * 5
    assert seen == [5]  # the spy sees an int operand
    seen.clear()
    return seen


def test_zero_fee_relocation_never_scales_by_the_fee_denominator(
        int_operands):
    # at zero fee g/D is 1: no quote, loop coefficient or k check
    # multiplies by D or D**2 only to divide it back out
    run = build_relocation_scenario()
    engine.execute_bundle(run.world, run.bundle, run.initiator)
    assert int_operands  # the relocation does multiply by ints
    assert BPS_DENOM not in int_operands
    assert BPS_DENOM ** 2 not in int_operands


def test_integer_relocation_copies_no_pool_through_replace(monkeypatch):
    # a relocation shaped like the fee_integer benchmark's (WETH/USDT,
    # 30 bps, integer units): every pool after the two built here is a
    # swap-derived copy, which must skip both replace and the re-check
    weth, usdt = AssetId("WETH", 18), AssetId("USDT", 6)
    eth, usd = 10 ** 18, 10 ** 6
    mode = NumericMode.INTEGER
    pool1 = PoolState("pool1", weth, usdt, 2000 * eth, 5_400_000 * usd, 30,
                      mode)
    pool2 = PoolState("pool2", weth, usdt, 400 * eth, 1_090_800 * usd, 30,
                      mode)
    world = engine.WorldState(mode=mode)
    for aid in ("P", "B", "O", "flash"):
        world.add_address(engine.Address(aid))
    world.add_pool(pool1)
    world.add_pool(pool2)
    world.set_balance("P", weth, 10 * eth)
    world.set_balance("flash", weth, 2400 * eth)
    world.approve("P", "O", weth, 10 * eth)

    calls = []
    real_replace, real_check = dataclasses.replace, PoolState.__post_init__
    monkeypatch.setattr(dataclasses, "replace", lambda obj, **changes:
                        calls.append("replace")
                        or real_replace(obj, **changes))
    monkeypatch.setattr(PoolState, "__post_init__", lambda self:
                        calls.append("__post_init__") or real_check(self))
    plan = planner.plan_relocation(pool1, pool2, weth, "P", "B", "O",
                                   10 * eth)
    bundle = planner.build_relocation_bundle(plan, pool1, pool2)
    _, trace = engine.execute_bundle(world, bundle, "O")
    assert engine.net_deltas(trace)[("B", "WETH")] == plan.predicted_a_prime
    assert calls == []
