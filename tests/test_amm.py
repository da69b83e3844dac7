import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ammflow.amm import (AssetId, NumericMode, OutputNotLessThanReserve,
                         PoolState, UnknownAsset, ZeroInput, format_amount,
                         parse_amount, solve_input_for_output, spot_price,
                         swap_exact_in)
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
        text = format_amount(1_500_000, usdt, NumericMode.INTEGER)
        assert text == "1.5"
        assert parse_amount(text, usdt, NumericMode.INTEGER) == 1_500_000


def test_pool_validation():
    with pytest.raises(ValueError):
        make_pool("p", Fraction(0), Fraction(100))
    with pytest.raises(ValueError):
        PoolState("p", TOKA, TOKB, 1, 1, 10_000, NumericMode.INTEGER)
    with pytest.raises(ValueError):
        AssetId("")
    with pytest.raises(ValueError):
        AssetId("X", 40)
