import dataclasses
from fractions import Fraction

import pytest

from ammflow.amm import AssetId, NumericMode, PoolState
from ammflow.calibration import (CalibratedPools, InconsistentObservations,
                                 NoConvergence, ObservationSet,
                                 PUBLISHED_OBSERVATIONS, calibrate_reserves,
                                 generate_observations, replay_and_validate)

WETH = AssetId("WETH", 18)
USDT = AssetId("USDT", 6)


@pytest.fixture(scope="module")
def published_calibration():
    return calibrate_reserves(PUBLISHED_OBSERVATIONS)


class TestCalibrateReserves:
    def test_published_observations_converge(self, published_calibration):
        assert published_calibration.max_residual < 1e-9
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

    def test_output_not_below_input_is_inconsistent(self):
        obs = dataclasses.replace(PUBLISHED_OBSERVATIONS, a_prime=10.5)
        with pytest.raises(InconsistentObservations):
            calibrate_reserves(obs)

    def test_garbled_observations_rejected(self):
        obs = dataclasses.replace(PUBLISHED_OBSERVATIONS, b=500.0)
        with pytest.raises(InconsistentObservations):
            calibrate_reserves(obs)

    def test_overflowing_observations_rejected(self):
        obs = dataclasses.replace(PUBLISHED_OBSERVATIONS, b=1e300,
                                  b_prime=1e300)
        with pytest.raises(NoConvergence):
            calibrate_reserves(obs)

    def test_underflowing_price_seed_rejected(self):
        obs = dataclasses.replace(PUBLISHED_OBSERVATIONS, b=1e-300)
        with pytest.raises(NoConvergence):
            calibrate_reserves(obs)

    def test_positive_observations_enforced(self):
        with pytest.raises(ValueError):
            dataclasses.replace(PUBLISHED_OBSERVATIONS, x=-1.0)


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
