"""Recovery of pre-execution pool reserves from migration observations.

Each observed constant-product swap is linear in its pool's reserves, so
the four swap equations of the relocation pipeline are two 2x2 linear
systems, one per pool, solved exactly; the reserves are then validated by
an independent integer-mode replay of the whole bundle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .amm import (BPS_DENOM, AssetId, NumericMode, PoolState, amount_out,
                  checked)
from .numeric import REQUIRED, read


class InconsistentObservations(Exception):
    """No positive, finite pool state fits the observations."""


_QUANTITIES = ("a", "x", "b", "x_prime", "b_prime", "y", "a_prime")
_ASSET, _COUNTER = AssetId("ASSET"), AssetId("COUNTER")


@checked
class ObservationSet(NamedTuple):
    """Observed pipeline quantities, in whole-token units."""

    a: float          # principal input (migrated asset)
    x: float          # flash amount
    b: float          # phase-1 intermediate (counter asset)
    x_prime: float    # recovered flash capital
    b_prime: float    # phase-2 extraction volume (counter asset)
    y: float          # extraction repayment
    a_prime: float    # net delivered output
    fee_bps: int = 30
    asset_decimals: int = 18
    counter_decimals: int = 6

    def _check(self):
        for name in _QUANTITIES:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"observation {name} must be finite")
            if value <= 0:
                raise ValueError(f"observation {name} must be positive")
        for name in ("asset_decimals", "counter_decimals"):
            if not 0 <= getattr(self, name) <= 38:
                raise ValueError(f"{name} must be in [0, 38]")
        if not 0 <= self.fee_bps < BPS_DENOM:
            raise ValueError(f"fee_bps must be in [0, {BPS_DENOM})")

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "ObservationSet":
        return cls(**read(_OBSERVATION_TABLE, data))


# quantities are JSON numbers; the counts are ints, defaulting as above
_OBSERVATION_TABLE = {
    **dict.fromkeys(_QUANTITIES, (float, REQUIRED)),
    **{name: (int, default)
       for name, default in ObservationSet._field_defaults.items()}}


# published 10-unit migration observations (migrated asset vs 6-decimal
# counter asset, both venues at a 0.3% input fee)
PUBLISHED_OBSERVATIONS = ObservationSet(
    a=10.0, x=50.4893, b=159_461.05, x_prime=50.4741, b_prime=157_262.60,
    y=49.9515, a_prime=9.3541, fee_bps=30, asset_decimals=18,
    counter_decimals=6)


class CalibratedPools:
    __slots__ = ("pool1_reserves", "pool2_reserves", "residuals")
    iterations = 0  # the solve is closed-form: it has no iteration

    def __init__(self, pool1_reserves: tuple[float, float],
                 pool2_reserves: tuple[float, float],
                 residuals: dict[str, float] | None = None):
        self.pool1_reserves = pool1_reserves   # (migrated, counter)
        self.pool2_reserves = pool2_reserves
        self.residuals = {} if residuals is None else residuals

    @property
    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())

    def to_dict(self) -> dict:
        return {"pool1": dict(zip(("asset", "counter"), self.pool1_reserves)),
                "pool2": dict(zip(("asset", "counter"), self.pool2_reserves)),
                "residuals": dict(self.residuals)}


def _solve(rows, rhs, pool: str) -> tuple[Fraction, Fraction]:
    """Exact Cramer solve of one pool's 2x2 linear system."""
    (a11, a12), (a21, a22) = rows
    det = a11 * a22 - a12 * a21
    if det == 0:
        raise InconsistentObservations(
            f"{pool} equations have no unique solution")
    return ((rhs[0] * a22 - a12 * rhs[1]) / det,
            (a11 * rhs[1] - a21 * rhs[0]) / det)


def _reserve(value: Fraction, name: str) -> float:
    try:
        reserve = float(value)
    except OverflowError:
        raise InconsistentObservations(
            f"{name} reserve overflows a float") from None
    if not reserve > 0:
        raise InconsistentObservations(
            f"{name} reserve is not a positive float")
    return reserve


def _residuals(reserves, observed, fee_bps: int) -> dict[str, float]:
    """Relative residuals of the four pipeline swaps at the given
    reserves, each an exact amm quote on a rational pool, rounded once."""
    r_a1, r_b1, r_a2, r_b2 = (Fraction(r) for r in reserves)
    a, x, b, x_prime, b_prime, y, a_prime = observed
    if not (r_a2 > x_prime and r_b1 > b):
        raise InconsistentObservations("a post-swap reserve is not positive")
    swaps = {  # pool (asset, counter), input, expected output, base
        "phase1_out": (r_a1, r_b1, _ASSET, a + x, b, b),
        "phase1_recover": (r_a2, r_b2, _COUNTER, b, x_prime, x_prime),
        "phase2_volume": (r_a2 - x_prime, r_b2 + b, _ASSET, y, b_prime,
                          b_prime),
        "phase2_out": (r_a1 + a + x, r_b1 - b, _COUNTER, b_prime,
                       y + a_prime + x - x_prime, y + a_prime)}
    return {name: float((amount_out(PoolState(
        "pool", _ASSET, _COUNTER, r_a, r_c, fee_bps), asset, amount) - want)
        / base) for name, (r_a, r_c, asset, amount, want, base)
        in swaps.items()}


def calibrate_reserves(obs: ObservationSet) -> CalibratedPools:
    """The four pre-execution reserves, solved exactly.

    phase1_out and phase2_out involve only pool 1's reserves, and
    phase1_recover and phase2_volume only pool 2's; each is linear once
    the swap's input and output are known.  The float observations are
    read as the Fractions they equal.  Phase-2 volume enters one equation
    whether it is read as a flash-swap borrow or as a plain swap output:
    both readings impose the same reserve constraint.

    Raises InconsistentObservations when the output is not below the
    input despite fees, when a system is singular, or when a reserve is
    not a positive, finite float.
    """
    if obs.fee_bps > 0 and obs.a_prime >= obs.a:
        raise InconsistentObservations(
            "delivered output not below principal input despite fees")
    observed = [Fraction(getattr(obs, k)) for k in _QUANTITIES]
    a, x, b, x_prime, b_prime, y, a_prime = observed
    g = 1 - Fraction(obs.fee_bps, BPS_DENOM)
    s1 = a + x
    d = y + a_prime + x - x_prime
    pool1 = _solve(((-b, g * s1), (g * b_prime, -d)),
                   (b * g * s1, d * (g * b_prime - b) - g * b_prime * s1),
                   "pool 1")
    pool2 = _solve(((g * b, -x_prime), (b_prime, -g * y)),
                   (x_prime * g * b,
                    g * y * b + b_prime * x_prime - b_prime * g * y),
                   "pool 2")
    reserves = [_reserve(value, name) for value, name in zip(
        pool1 + pool2, ("pool 1 asset", "pool 1 counter",
                        "pool 2 asset", "pool 2 counter"))]
    return CalibratedPools(
        pool1_reserves=(reserves[0], reserves[1]),
        pool2_reserves=(reserves[2], reserves[3]),
        residuals=_residuals(reserves, observed, obs.fee_bps))


def integer_amounts(calibrated: CalibratedPools,
                    obs: ObservationSet) -> tuple:
    """Pool 1's and pool 2's (asset, counter) reserves, each its float's
    exact value, then a, x and y, each its float times 10**decimals, all
    rounded to smallest units: the pools and amounts that both
    `replay_and_validate` and the `relocation_fee_calibrated` scenario
    relocate over."""
    sa, sc = 10 ** obs.asset_decimals, 10 ** obs.counter_decimals
    pools = tuple((round(Fraction(r_a) * sa), round(Fraction(r_b) * sc))
                  for r_a, r_b in (calibrated.pool1_reserves,
                                   calibrated.pool2_reserves))
    return (*pools, *(round(v * sa) for v in (obs.a, obs.x, obs.y)))


def replay_and_validate(calibrated: CalibratedPools,
                        obs: ObservationSet) -> dict[str, float]:
    """Integer-mode full-bundle replay; per-quantity relative errors."""
    from .planner import plan_relocation

    asset = AssetId("ASSET", obs.asset_decimals)
    counter = AssetId("COUNTER", obs.counter_decimals)
    sa, sc = 10 ** obs.asset_decimals, 10 ** obs.counter_decimals
    reserves1, reserves2, a, x, y = integer_amounts(calibrated, obs)
    pool1, pool2 = (PoolState(pool_id, asset, counter, *reserves,
                              obs.fee_bps, NumericMode.INTEGER)
                    for pool_id, reserves in (("pool1", reserves1),
                                              ("pool2", reserves2)))
    plan = plan_relocation(pool1, pool2, asset, "P", "B", "O", a,
                           x_override=x, y_override=y)
    replayed = {
        "b": plan.b / sc,
        "x_prime": plan.x_recovered / sa,
        "b_prime": plan.b_prime / sc,
        "a_prime": plan.predicted_a_prime / sa,
        "eta": plan.predicted_a_prime / sa / obs.a,
    }
    expected = {
        "b": obs.b, "x_prime": obs.x_prime, "b_prime": obs.b_prime,
        "a_prime": obs.a_prime, "eta": obs.a_prime / obs.a,
    }
    report = {f"{k}_rel_err": abs(replayed[k] - expected[k]) / expected[k]
              for k in expected}
    report.update({f"{k}_replayed": replayed[k] for k in replayed})
    return report


def generate_observations(pool1: PoolState, pool2: PoolState,
                          asset: AssetId, a, y) -> ObservationSet:
    """Synthetic observation set from known ground-truth pools.

    Used by round-trip identifiability checks: the planned relocation
    with the self-repaying flash amount and repayment y, projected to
    floats in whole tokens (integer-mode smallest units are divided by
    10**decimals of their asset).  A plan whose extraction does not cover
    the flash shortfall raises the planner's PlannerError.
    """
    from .planner import plan_relocation

    plan = plan_relocation(pool1, pool2, asset, "P", "B", "O", a,
                           y_override=y)
    counter = pool1.other_asset(asset)
    sa, sc = (10 ** asset.decimals, 10 ** counter.decimals) \
        if pool1.mode is NumericMode.INTEGER else (1, 1)
    return ObservationSet(
        a=float(a / sa), x=float(plan.x / sa), b=float(plan.b / sc),
        x_prime=float(plan.x_recovered / sa),
        b_prime=float(plan.b_prime / sc), y=float(y / sa),
        a_prime=float(plan.predicted_a_prime / sa),
        fee_bps=pool1.fee_bps, asset_decimals=asset.decimals,
        counter_decimals=counter.decimals)
