"""Planner for the four-step state-mediated relocation bundle.

Phase 1 (dislocation) pushes the principal's capital plus a flash amount
through pool 1 and back through pool 2, leaving the two pools price-split.
Phase 2 (extraction) runs the reverse loop and delivers the harvest to the
beneficiary.  The solvers pick the flash amount so the first loop repays
itself, and the extraction size so the delivered amount hits its target.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .amm import (BPS_DENOM, INTEGER, RATIONAL, AssetId, NumericMode,
                  PoolState, ZeroInput, amount_out, solve_input_for_output,
                  swap_exact_in)
from .engine import (Action, FlashBorrow, FlashRepay, FlashSwapBorrow,
                     FlashSwapRepay, Swap, Transfer, TransferFrom)
from .numeric import ExactNumber, ExactSqrtError, as_q, exact_sqrt


class PlannerError(Exception):
    pass


class NoPositiveRoot(PlannerError):
    pass


class TargetExceedsMaxProfit(PlannerError):
    pass


class FundingPolicy(enum.Enum):
    EXACT_REPAY = "exact_repay"
    SHORTFALL_FROM_PRINCIPAL = "shortfall_from_principal"


class ExtractionStyle(enum.Enum):
    FLASH_SWAP = "flash_swap"
    PLAIN_SWAP = "plain_swap"


@dataclass
class RelocationPlan:
    principal: str
    beneficiary: str
    operator: str
    flash_provider: str
    pool1: str
    pool2: str
    asset: AssetId          # the migrated asset
    a: ExactNumber          # principal input
    x: ExactNumber          # flash amount
    b: ExactNumber          # phase-1 intermediate (counter asset)
    x_recovered: ExactNumber
    b_prime: ExactNumber
    y: ExactNumber
    extraction_out: ExactNumber   # phase-2 gross output (y + raw profit)
    predicted_a_prime: ExactNumber
    funding_policy: FundingPolicy
    extraction_style: ExtractionStyle
    mode: NumericMode

    @property
    def shortfall(self) -> ExactNumber:
        return self.x - self.x_recovered

    def to_dict(self) -> dict:
        return {"pools": [self.pool1, self.pool2],
                **{name: str(getattr(self, name)) for name in (
                    "a", "x", "b", "x_recovered", "b_prime", "y",
                    "predicted_a_prime")},
                "funding_policy": self.funding_policy.value,
                "extraction_style": self.extraction_style.value,
                "numeric_mode": self.mode.value}


def _check_pair(pool1: PoolState, pool2: PoolState, asset: AssetId) -> AssetId:
    if not (pool1.has_asset(asset) and pool2.has_asset(asset)):
        raise PlannerError("both pools must trade the migrated asset")
    counter = pool1.other_asset(asset)
    if pool2.other_asset(asset) != counter:
        raise PlannerError("pools must trade the same asset pair")
    return counter


def _loop_out(first, second, asset, counter, s) -> ExactNumber:
    """Output of s of asset swapped into `first`, its output into `second`."""
    return amount_out(second, counter, amount_out(first, asset, s))


def dislocation_output(pool1: PoolState, pool2: PoolState, asset: AssetId,
                       a, x) -> ExactNumber:
    """Amount of the migrated asset recovered by the phase-1 loop."""
    return _loop_out(pool1, pool2, asset, _check_pair(pool1, pool2, asset),
                     a + x)


def _times(k: int, value):
    """k*value, without the product when k is 1."""
    return value if k == 1 else k * value


def _loop_coeffs(first: PoolState, second: PoolState, asset: AssetId):
    """(K, A2, B0) of `_loop_out`'s loop: unfloored, it returns
        out(s) = K*s / (B0 + A2*s),   K = g1*g2*r1_out*r2_out,
        A2 = g1*r2_in + g1*g2*r1_out,  B0 = r1_in*r2_in,
    with g the pools' fee factors and r their reserves of what goes in
    and out.  On integer numerators a pool's g is (D - fee)/D, D =
    BPS_DENOM, or 1/1 at zero fee, so all three come scaled by D1*D2 in
    both modes: a common scale moves none of the roots the solvers take.
    """
    (r1_in, r1_out), (r2_out, r2_in) = first.sides(asset), second.sides(asset)
    d1, d2 = (BPS_DENOM if pool.fee_bps else 1 for pool in (first, second))
    g1, g2 = d1 - first.fee_bps, d2 - second.fee_bps
    return (_times(g1 * g2, r1_out * r2_out),
            _times(g1, _times(d2, r2_in) + _times(g2, r1_out)),
            _times(d1 * d2, r1_in * r2_in))


def _root(a, b, c, mode: NumericMode, larger: bool):
    """The larger or smaller root of a*s^2 + b*s + c = 0, a > 0: exact in
    rational mode; in integer mode the larger's floor or the smaller's
    ceiling, exactly, from isqrt of the discriminant.  TargetExceedsMaxProfit
    if no root is real; PlannerError if the root leaves the coefficients'
    field (TypeError: a new field's root met an irrational coefficient)."""
    disc = b * b - 4 * a * c
    if disc < 0:
        raise TargetExceedsMaxProfit("the loop never reaches this output")
    if mode is INTEGER:
        root = math.isqrt(disc)
        return (root - b) // (2 * a) if larger else -((b + root) // (2 * a))
    try:
        root = exact_sqrt(disc)
        return (root - b if larger else -b - root) / (2 * a)
    except (ExactSqrtError, TypeError) as exc:
        raise PlannerError(
            "loop root leaves the exact field; use integer mode") from exc


def solve_flash_amount(pool1: PoolState, pool2: PoolState, asset: AssetId,
                       a) -> ExactNumber:
    """Flash amount x whose phase-1 loop output repays x exactly.

    Rational mode returns the positive root of out(a + x) = x, with
    out the loop of `_loop_coeffs`, so the loop output equals x.
    Integer mode bisects for an x whose floored loop output covers x while
    the output at x + 1 does not cover x + 1; the floors can leave that x
    far from the continuous root.  That x is admissible (its loop repays
    it), but the floors make admissibility non-monotone, so it is often
    not the largest admissible x.  Raises NoPositiveRoot when x = 1 does
    not repay itself, or when a + 1 buys no counter unit.
    """
    return _flash(pool1, pool2, asset, _check_pair(pool1, pool2, asset), a)


def _flash(pool1, pool2, asset, counter, a) -> ExactNumber:
    """`solve_flash_amount` over a checked pair."""
    if a <= 0:
        raise PlannerError("principal amount must be positive")
    if pool1.mode is RATIONAL:
        # A2*x^2 + (B0 + A2*a - K)*x - K*a = 0; its constant term is
        # negative, so the larger root is the only positive one
        k_top, a2, b0 = _loop_coeffs(pool1, pool2, asset)
        return _root(a2, b0 + a2 * a - k_top, -k_top * a, pool1.mode, True)

    lo, hi = 1, int(pool2.reserve_of(asset))  # output < r_a2: f(hi) < 0
    try:
        covered = _loop_out(pool1, pool2, asset, counter, a + lo) >= lo
    except ZeroInput:  # a + 1 buys no counter unit: x = 1 repays nothing
        covered = False
    if not covered:
        raise NoPositiveRoot("no positive flash amount solves the loop")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _loop_out(pool1, pool2, asset, counter, a + mid) >= mid:
            lo = mid
        else:
            hi = mid
    return lo


def extraction_result(pool1_after: PoolState, pool2_after: PoolState,
                      asset: AssetId, y) -> tuple[ExactNumber, ExactNumber]:
    """Replay phase 2 for a given repayment y; returns (b', gross out)."""
    counter = _check_pair(pool1_after, pool2_after, asset)
    b_prime = amount_out(pool2_after, asset, y)
    return b_prime, amount_out(pool1_after, counter, b_prime)


def _net_profit(pool1_after, pool2_after, asset, counter, y) -> ExactNumber:
    """Phase-2 gross output less y."""
    try:
        return _loop_out(pool2_after, pool1_after, asset, counter, y) - y
    except ZeroInput:  # y <= 0, or b' floors to zero: y buys nothing
        return -y


def _extraction_optimum(pool1_after, pool2_after, asset, counter) -> tuple:
    """(y, profit) at the profit-maximising repayment y, or (0, 0) when
    the reverse loop (pool 2, then pool 1) nets nothing.  out(y) - y
    peaks where (B0 + A2*y)^2 = K*B0, at its larger root y*; integer mode
    floors y*, whose floored profit is within one counter unit's worth of
    output plus two units of the integer maximum."""
    k_top, a2, b0 = _loop_coeffs(pool2_after, pool1_after, asset)
    y = _root(a2 * a2, 2 * a2 * b0, (b0 - k_top) * b0, pool1_after.mode,
              True)
    profit = y > 0 and _net_profit(pool1_after, pool2_after, asset, counter, y)
    return (y, profit) if profit > 0 else (0, 0)


def max_extractable(pool1_after: PoolState, pool2_after: PoolState,
                    asset: AssetId) -> ExactNumber:
    """Maximum net profit (gross out minus y) of the reverse loop.

    Evaluated at the closed-form optimum (floored in integer mode).
    Equal-price fresh pools admit no arbitrage and yield zero.
    """
    counter = _check_pair(pool1_after, pool2_after, asset)
    return _extraction_optimum(pool1_after, pool2_after, asset, counter)[1]


def solve_extraction(pool1_after: PoolState, pool2_after: PoolState,
                     asset: AssetId, target
                     ) -> tuple[ExactNumber, ExactNumber]:
    """Repayment y and borrow b' so the phase-2 loop nets the target.

    Rational mode returns the smaller root of out(y) - y = target, where
    the loop nets the target exactly.  Integer mode walks up from that
    root's ceiling to the least y whose floored profit reaches the target.
    Raises TargetExceedsMaxProfit when the loop cannot net the target.
    """
    counter = _check_pair(pool1_after, pool2_after, asset)
    return _solve_extraction(pool1_after, pool2_after, asset, counter, target)


def _solve_extraction(pool1_after, pool2_after, asset, counter, target):
    if target == 0:
        return 0, 0
    if target < 0:
        raise PlannerError("extraction target must be non-negative")
    integer = pool1_after.mode is INTEGER
    if integer:  # bounds the walk below
        best = _extraction_optimum(pool1_after, pool2_after, asset, counter)[1]
        if best < target:
            raise TargetExceedsMaxProfit(
                f"target {target} above the reverse-loop optimum {best}")
    k_top, a2, b0 = _loop_coeffs(pool2_after, pool1_after, asset)
    # out(y) - y = target  =>  A2*y^2 + (t*A2 + B0 - K)*y + t*B0 = 0
    y = _root(a2, target * a2 + b0 - k_top, target * b0, pool1_after.mode,
              False)
    if y <= 0:
        raise TargetExceedsMaxProfit("no positive extraction root")
    # floored profit never exceeds the continuous one, so no y below the
    # root reaches the target; rational mode's exact root nets it
    while integer and _net_profit(pool1_after, pool2_after, asset, counter,
                                  y) < target:
        # a larger y qualifies only if its floored output reaches
        # target + y + 1: step to the least y that delivers that much
        y = solve_input_for_output(
            pool2_after, counter,
            solve_input_for_output(pool1_after, asset, target + y + 1))
    return y, amount_out(pool2_after, asset, y)


argmax_extraction_int = _extraction_optimum


def plan_relocation(pool1: PoolState, pool2: PoolState, asset: AssetId,
                    principal: str, beneficiary: str, operator: str, a, *,
                    flash_provider: str = "flash",
                    funding_policy: FundingPolicy =
                    FundingPolicy.SHORTFALL_FROM_PRINCIPAL,
                    extraction_style: ExtractionStyle =
                    ExtractionStyle.FLASH_SWAP,
                    target=None, x_override=None, y_override=None
                    ) -> RelocationPlan:
    """Solve all relocation parameters and predict the delivered amount.

    Predicted quantities come from replaying the pool math itself, so the
    emitted bundle reproduces them exactly in either numeric mode.
    """
    counter = _check_pair(pool1, pool2, asset)
    if pool1.mode is RATIONAL:  # a caller's Fraction enters Q
        a, target, x_override, y_override = map(
            as_q, (a, target, x_override, y_override))

    x = x_override if x_override is not None \
        else _flash(pool1, pool2, asset, counter, a)
    b, pool1_after = swap_exact_in(pool1, asset, a + x)
    x_recovered, pool2_after = swap_exact_in(pool2, counter, b)
    shortfall = x - x_recovered
    if shortfall > 0 and funding_policy is FundingPolicy.EXACT_REPAY:
        raise PlannerError(
            "exact-repay policy requires the solved flash amount; "
            "the supplied x leaves a repayment shortfall")

    if y_override is not None:
        y = y_override
    elif target is not None:
        raw_target = target + shortfall
        y = _solve_extraction(pool1_after, pool2_after, asset, counter,
                              raw_target)[0] if raw_target > 0 else 0
    elif pool1.fee_bps == pool2.fee_bps == 0:
        # fee-free phase 2 with y equal to the phase-1 withdrawal undoes
        # both pool moves: exactly in rational mode (b' = b and the loop
        # nets exactly a), up to the floors in integer mode
        y = x_recovered
    else:
        # the profit-maximising repayment; zero when the loop nets nothing
        y = _extraction_optimum(pool1_after, pool2_after, asset, counter)[0]
    b_prime = amount_out(pool2_after, asset, y) if y > 0 else 0
    out = amount_out(pool1_after, counter, b_prime) if y > 0 else 0

    # what is left after the flash repayment; -shortfall when y is 0
    net = out - y - shortfall
    if net < 0:
        raise PlannerError("extraction does not cover the flash shortfall")
    predicted = net if y > 0 else 0
    return RelocationPlan(
        principal=principal, beneficiary=beneficiary, operator=operator,
        flash_provider=flash_provider, pool1=pool1.pool_id,
        pool2=pool2.pool_id, asset=asset, a=a, x=x, b=b,
        x_recovered=x_recovered, b_prime=b_prime, y=y, extraction_out=out,
        predicted_a_prime=predicted, funding_policy=funding_policy,
        extraction_style=extraction_style, mode=pool1.mode)


def build_relocation_bundle(plan: RelocationPlan, pool1: PoolState,
                            pool2: PoolState) -> list[Action]:
    """Emit the executable action list for a solved plan."""
    asset = plan.asset
    counter = pool1.other_asset(asset)
    o = plan.operator
    deferred_repay = plan.shortfall > 0
    actions: list[Action] = [FlashBorrow(plan.flash_provider, o, asset,
                                         plan.x)]
    if plan.principal != o:
        actions.append(TransferFrom(plan.principal, o, o, asset, plan.a))
    actions += [
        Swap(o, plan.pool1, asset, plan.a + plan.x, o),
        Swap(o, plan.pool2, counter, plan.b, o),
    ]
    if not deferred_repay:
        actions.append(FlashRepay(o, plan.flash_provider, asset, plan.x))
    if plan.y > 0:
        if plan.extraction_style is ExtractionStyle.FLASH_SWAP:
            actions += [
                FlashSwapBorrow(plan.pool2, o, counter, plan.b_prime),
                Swap(o, plan.pool1, counter, plan.b_prime, o),
                FlashSwapRepay(plan.pool2, o, asset, plan.y),
            ]
        else:
            actions += [
                FlashBorrow(plan.flash_provider, o, asset, plan.y),
                Swap(o, plan.pool2, asset, plan.y, o),
                Swap(o, plan.pool1, counter, plan.b_prime, o),
                FlashRepay(o, plan.flash_provider, asset, plan.y),
            ]
    if deferred_repay:
        # shortfall policy: the flash debt closes out of extraction proceeds
        actions.append(FlashRepay(o, plan.flash_provider, asset, plan.x))
    if plan.predicted_a_prime > 0:
        actions.append(Transfer(o, plan.beneficiary, asset,
                                plan.predicted_a_prime))
    return actions
