import math
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from ammflow.amm import AssetId, NumericMode, PoolState, swap_exact_in
from ammflow.calibration import (CalibratedPools, InconsistentObservations,
                                 ObservationSet, PUBLISHED_OBSERVATIONS,
                                 _residuals, calibrate_reserves,
                                 generate_observations, integer_amounts,
                                 replay_and_validate)
from ammflow.planner import (PlannerError, extraction_result,
                             solve_flash_amount)
from ammflow.scenarios import build_calibrated_relocation_scenario

WETH = AssetId("WETH", 18)
USDT = AssetId("USDT", 6)


@pytest.fixture(scope="module")
def published_calibration():
    return calibrate_reserves(PUBLISHED_OBSERVATIONS)


class TestCalibrateReserves:
    def test_published_observations_converge(self, published_calibration):
        assert max(map(abs, published_calibration.residuals.values())) \
            < 1e-9
        assert published_calibration.iterations < 200
        for reserves in (published_calibration.pool1_reserves,
                         published_calibration.pool2_reserves):
            assert all(r > 0 for r in reserves)

    def test_replay_matches_published_quantities(self, published_calibration):
        report = replay_and_validate(published_calibration,
                                     PUBLISHED_OBSERVATIONS)
        for key in ("b", "x_prime", "b_prime", "a_prime", "eta"):
            assert report[f"{key}_rel_err"] <= 1e-3, key
        assert 0.934 <= report["eta_replayed"] <= 0.937

    def test_round_trip_identifiability(self):
        truth1 = PoolState("pool1", WETH, USDT, Fraction(2000),
                           Fraction(5_400_000), 30, NumericMode.RATIONAL)
        truth2 = PoolState("pool2", WETH, USDT, Fraction(400),
                           Fraction(1_065_000), 30, NumericMode.RATIONAL)
        obs = generate_observations(truth1, truth2, WETH, Fraction(10),
                                    Fraction(45))
        recovered = calibrate_reserves(obs)
        for got, want in zip(
                recovered.pool1_reserves + recovered.pool2_reserves,
                (2000, 5_400_000, 400, 1_065_000)):
            assert abs(got - want) / want < 1e-9

    def test_integer_round_trip_is_in_whole_tokens(self):
        # smallest-unit floats once made pool 1 hold 2.0e21 WETH
        eth, usd = 10**18, 10**6
        truth1 = PoolState("pool1", WETH, USDT, 2000 * eth, 5_400_000 * usd,
                           30, NumericMode.INTEGER)
        truth2 = PoolState("pool2", WETH, USDT, 400 * eth, 1_065_000 * usd,
                           30, NumericMode.INTEGER)
        obs = generate_observations(truth1, truth2, WETH, 10 * eth, 45 * eth)
        assert (obs.a, obs.y) == (10.0, 45.0)
        recovered = calibrate_reserves(obs)
        for got, want in zip(
                recovered.pool1_reserves + recovered.pool2_reserves,
                (2000, 5_400_000, 400, 1_065_000)):
            assert abs(got - want) / want < 1e-6
        report = replay_and_validate(recovered, obs)
        assert all(report[k] < 1e-9 for k in report if k.endswith("_err"))

    def test_output_not_below_input_is_inconsistent(self):
        obs = PUBLISHED_OBSERVATIONS._replace(a_prime=10.5)
        with pytest.raises(InconsistentObservations):
            calibrate_reserves(obs)

    def test_garbled_observations_rejected(self):
        obs = PUBLISHED_OBSERVATIONS._replace(b=500.0)
        with pytest.raises(InconsistentObservations):
            calibrate_reserves(obs)

    def test_overflowing_observations_rejected(self):
        obs = PUBLISHED_OBSERVATIONS._replace(b=1e300, b_prime=1e300)
        with pytest.raises(InconsistentObservations):
            calibrate_reserves(obs)

    def test_underflowing_price_seed_rejected(self):
        obs = PUBLISHED_OBSERVATIONS._replace(b=1e-300)
        with pytest.raises(InconsistentObservations):
            calibrate_reserves(obs)

    def test_positive_observations_enforced(self):
        with pytest.raises(ValueError):
            PUBLISHED_OBSERVATIONS._replace(x=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_finite_observations_enforced(self, value):
        with pytest.raises(ValueError, match="finite"):
            PUBLISHED_OBSERVATIONS._replace(b=value)

    def test_singular_pool_equations_rejected(self):
        # pool 2's two swap equations are parallel lines: no state fits
        with pytest.raises(InconsistentObservations, match="pool 2"):
            calibrate_reserves(SINGULAR_OBSERVATIONS)

    def test_reserve_beyond_float_range_rejected(self):
        obs = PUBLISHED_OBSERVATIONS._replace(b=1.5946105e307,
                                              b_prime=1.572626e307)
        with pytest.raises(InconsistentObservations, match="overflows"):
            calibrate_reserves(obs)

    def test_published_plan_replays_b_exactly(self):
        plan = build_calibrated_relocation_scenario().plan
        assert plan.b == 159_461_050_000

    def test_replay_plans_over_the_scenarios_pools(self,
                                                   published_calibration):
        run = build_calibrated_relocation_scenario()
        reserves1, reserves2, a, x, y = integer_amounts(
            published_calibration, PUBLISHED_OBSERVATIONS)
        assert (run.world.pools["pool1"].reserve0,
                run.world.pools["pool1"].reserve1) == reserves1
        assert (run.world.pools["pool2"].reserve0,
                run.world.pools["pool2"].reserve1) == reserves2
        plan = run.plan
        assert (plan.a, plan.x, plan.y) == (a, x, y)
        report = replay_and_validate(published_calibration,
                                     PUBLISHED_OBSERVATIONS)
        assert report["b_replayed"] == plan.b / 10**6
        assert report["x_prime_replayed"] == plan.x_recovered / 10**18
        assert report["b_prime_replayed"] == plan.b_prime / 10**6
        assert report["a_prime_replayed"] == \
            plan.predicted_a_prime / 10**18


@pytest.mark.parametrize("mode, scale", [(NumericMode.INTEGER, 10**18),
                                         (NumericMode.RATIONAL, 1)])
def test_observations_equal_the_phase_math(mode, scale):
    """The observations read off the plan are those of replaying its two
    phases swap by swap, in whole tokens."""
    usdt = 10**6 if mode is NumericMode.INTEGER else 1
    pool1 = PoolState("pool1", WETH, USDT, 2000 * scale, 5_400_000 * usdt,
                      30, mode)
    pool2 = PoolState("pool2", WETH, USDT, 400 * scale, 1_065_000 * usdt,
                      30, mode)
    a, y = 10 * scale, 45 * scale
    x = solve_flash_amount(pool1, pool2, WETH, a)
    b, pool1_after = swap_exact_in(pool1, WETH, a + x)
    x_prime, pool2_after = swap_exact_in(pool2, USDT, b)
    b_prime, out = extraction_result(pool1_after, pool2_after, WETH, y)
    assert generate_observations(pool1, pool2, WETH, a, y) == ObservationSet(
        a=float(a / scale), x=float(x / scale), b=float(b / usdt),
        x_prime=float(x_prime / scale), b_prime=float(b_prime / usdt),
        y=float(y / scale), a_prime=float((out - y - (x - x_prime)) / scale),
        fee_bps=30, asset_decimals=18, counter_decimals=6)


def test_uncovered_shortfall_is_the_planners_refusal():
    # 1% fees on a 1-unit relocation: the extraction at 98% of x nets
    # less than the flash shortfall
    pool1 = PoolState("pool1", WETH, USDT, Fraction(4528),
                      Fraction(4528 * 2816), 100, NumericMode.RATIONAL)
    pool2 = PoolState("pool2", WETH, USDT, Fraction(1971),
                      1971 * 2816 * Fraction(10_000 - 112, 10_000), 100,
                      NumericMode.RATIONAL)
    x = solve_flash_amount(pool1, pool2, WETH, 1)
    y = Fraction(float(x)) * Fraction(98, 100)
    with pytest.raises(PlannerError, match="does not cover"):
        generate_observations(pool1, pool2, WETH, Fraction(1), y)


SINGULAR_OBSERVATIONS = ObservationSet(
    a=10.0, x=5.0, b=6.0, x_prime=2.0, b_prime=3.0, y=1.0, a_prime=9.0,
    fee_bps=0)


@settings(max_examples=100, deadline=None)
@given(fee_bps=st.sampled_from([5, 30, 100]),
       r_a1=st.integers(200, 5000), r_a2=st.integers(100, 2000),
       price=st.integers(500, 5000), spread_bps=st.integers(-150, 150),
       a=st.integers(1, 20), y_percent=st.integers(50, 100))
def test_round_trip_recovers_truth_pools(fee_bps, r_a1, r_a2, price,
                                         spread_bps, a, y_percent):
    """Observations generated from rational truth pools whose prices
    differ by at most 1.5% calibrate back to those pools."""
    truth = (Fraction(r_a1), Fraction(r_a1 * price), Fraction(r_a2),
             r_a2 * price * Fraction(10_000 + spread_bps, 10_000))
    pool1 = PoolState("pool1", WETH, USDT, truth[0], truth[1], fee_bps,
                      NumericMode.RATIONAL)
    pool2 = PoolState("pool2", WETH, USDT, truth[2], truth[3], fee_bps,
                      NumericMode.RATIONAL)
    x = solve_flash_amount(pool1, pool2, WETH, a)
    y = Fraction(float(x)) * Fraction(y_percent, 100)
    try:
        obs = generate_observations(pool1, pool2, WETH, Fraction(a), y)
    except (ValueError, PlannerError) as err:
        # the extraction's fees ate more than the principal: the planner
        # refuses a negative a_prime, and a trace never shows a zero one,
        # so there is nothing to calibrate
        if "a_prime must be positive" not in str(err) \
                and "does not cover the flash shortfall" not in str(err):
            raise
        reject()
    recovered = calibrate_reserves(obs)
    for got, want in zip(recovered.pool1_reserves + recovered.pool2_reserves,
                         truth):
        assert abs(got - want) / want < 1e-9


@settings(max_examples=50, deadline=None)
@given(r_a1=st.integers(500, 5000), r_a2=st.integers(100, 1000),
       price=st.integers(1000, 4000), spread_bps=st.integers(-150, 150),
       a=st.integers(1, 20), y_percent=st.integers(50, 100))
def test_integer_round_trip_recovers_whole_token_pools(
        r_a1, r_a2, price, spread_bps, a, y_percent):
    """Observations generated from integer truth pools, in smallest units,
    calibrate back to those pools in whole tokens.

    The pools have the published record's shape (30 bps, prices within
    1.5%).  Each observed output is floored to a smallest unit, and the
    calibration's linear systems amplify that unit: a 1-token relocation
    over 5,000 and 100-token pools at price 1,000 comes back within
    3.1e-6, and at 5 bps over 200 and 2,000-token pools within 1.4e-5."""
    eth, usd = 10**18, 10**6
    truth = (r_a1, r_a1 * price, r_a2,
             r_a2 * price * Fraction(10_000 + spread_bps, 10_000))
    pool1 = PoolState("pool1", WETH, USDT, r_a1 * eth, truth[1] * usd, 30,
                      NumericMode.INTEGER)
    pool2 = PoolState("pool2", WETH, USDT, r_a2 * eth, int(truth[3] * usd),
                      30, NumericMode.INTEGER)
    x = solve_flash_amount(pool1, pool2, WETH, a * eth)
    obs = generate_observations(pool1, pool2, WETH, a * eth,
                                x * y_percent // 100)
    recovered = calibrate_reserves(obs)
    for got, want in zip(recovered.pool1_reserves + recovered.pool2_reserves,
                         truth):
        assert abs(got - want) / want < 1e-5


# relocations whose observations stalled the earlier finite-difference
# solve at a residual of 1e-4 with pool 1 at a third to a half of its size;
# observations in whole tokens, truth as (pool-1 WETH, pool-2 WETH)
STALL_CASES = [
    (ObservationSet(a=4.143782889332225, x=43.02949278287352,
                    b=110708.165272, x_prime=43.02949278287352,
                    b_prime=110707.658207, y=43.28862344980409,
                    a_prime=3.604495426189098),
     (4914.45875567503, 634.0157215689744)),
    (ObservationSet(a=15.919354137193778, x=65.28604578129834,
                    b=129122.676083, x_prime=65.28604578129834,
                    b_prime=129122.362013, y=65.67934475406577,
                    a_prime=15.062377141517262),
     (1625.8779087633902, 447.80784374272224)),
]


@pytest.mark.parametrize("obs, truth", STALL_CASES)
def test_near_equal_price_pools_do_not_stall(obs, truth):
    calibrated = calibrate_reserves(obs)
    report = replay_and_validate(calibrated, obs)
    for key, value in report.items():
        if key.endswith("_rel_err"):
            assert value <= 1e-3, key
    assert abs(calibrated.pool1_reserves[0] - truth[0]) / truth[0] <= 1e-4
    assert abs(calibrated.pool2_reserves[0] - truth[1]) / truth[1] <= 1e-4


class TestReplaySensitivity:
    def test_perturbed_reserves_fail_replay(self, published_calibration):
        r1 = published_calibration.pool1_reserves
        r2 = published_calibration.pool2_reserves
        perturbed = CalibratedPools(
            pool1_reserves=(r1[0] * 1.01, r1[1]),
            pool2_reserves=r2)
        report = replay_and_validate(perturbed, PUBLISHED_OBSERVATIONS)
        assert any(report[k] > 1e-3 for k in report if k.endswith("_rel_err"))


class TestObservationIo:
    def test_dict_round_trip(self):
        rebuilt = ObservationSet.from_dict(PUBLISHED_OBSERVATIONS.to_dict())
        assert rebuilt == PUBLISHED_OBSERVATIONS

    def test_defaults(self):
        obs = ObservationSet.from_dict(
            {"a": 1, "x": 2, "b": 3, "x_prime": 1.9, "b_prime": 2.9,
             "y": 1.8, "a_prime": 0.9})
        assert obs.fee_bps == 30
        assert obs.asset_decimals == 18


def formula_residuals(reserves, obs):
    """The four pipeline swaps written out as constant-product formulas
    with g = 1 - fee/D: the reference that amm's quotes must equal."""
    r_a1, r_b1, r_a2, r_b2 = (Fraction(r) for r in reserves)
    a, x, b, x_prime, b_prime, y, a_prime = (
        Fraction(v) for v in obs[:7])
    g = 1 - Fraction(obs.fee_bps, 10_000)
    s1 = a + x
    delivered = y + a_prime
    out1 = r_b1 * g * s1 / (r_a1 + g * s1)
    out2 = r_a2 * g * b / (r_b2 + g * b)
    out3 = (r_b2 + b) * g * y / ((r_a2 - x_prime) + g * y)
    out4 = (r_a1 + s1) * g * b_prime / ((r_b1 - b) + g * b_prime)
    return {
        "phase1_out": float((out1 - b) / b),
        "phase1_recover": float((out2 - x_prime) / x_prime),
        "phase2_volume": float((out3 - b_prime) / b_prime),
        "phase2_out": float(
            (out4 - (delivered + x - x_prime)) / delivered),
    }


POSITIVE = st.floats(1e-3, 1e7, allow_nan=False, allow_infinity=False)


def test_published_residuals_equal_the_formulas(published_calibration):
    reserves = published_calibration.pool1_reserves \
        + published_calibration.pool2_reserves
    assert published_calibration.residuals == formula_residuals(
        reserves, PUBLISHED_OBSERVATIONS)


@settings(max_examples=300, deadline=None)
@given(st.lists(POSITIVE, min_size=11, max_size=11),
       st.sampled_from([0, 5, 30, 100, 9999]))
def test_quoted_residuals_equal_the_formulas(values, fee_bps):
    """Each residual is an amm quote on a rational pool; it rounds to the
    float the written-out swap formula gives, at any positive reserves
    that leave the post-swap reserves positive."""
    obs = ObservationSet(*values[:7], fee_bps=fee_bps)
    reserves = values[7:]
    observed = [Fraction(v) for v in obs[:7]]
    if reserves[2] > obs.x_prime and reserves[1] > obs.b:
        assert _residuals(reserves, observed, fee_bps) \
            == formula_residuals(reserves, obs)
    else:
        with pytest.raises(InconsistentObservations, match="not positive"):
            _residuals(reserves, observed, fee_bps)
