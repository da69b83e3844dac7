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

from .amm import (BPS_DENOM, AssetId, NumericMode, PoolState, ZeroInput,
                  amount_out, solve_input_for_output, swap_exact_in)
from .engine import (Action, FlashBorrow, FlashRepay, FlashSwapBorrow,
                     FlashSwapRepay, Swap, Transfer, TransferFrom)
from .numeric import ExactNumber, ExactSqrtError, exact_sqrt, solve_quadratic


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


def dislocation_output(pool1: PoolState, pool2: PoolState, asset: AssetId,
                       a, x) -> ExactNumber:
    """Amount of the migrated asset recovered by the phase-1 loop."""
    counter = _check_pair(pool1, pool2, asset)
    return amount_out(pool2, counter, amount_out(pool1, asset, a + x))


def _times(k: int, value):
    """k*value, without the product when k is 1."""
    return value if k == 1 else k * value


def _loop_coeffs(first: PoolState, second: PoolState, asset: AssetId):
    """(K, A2, B0) of the loop that swaps s of asset into `first`, then
    the counter it yields into `second`: unfloored, it returns
        out(s) = K*s / (B0 + A2*s),   K = g1*g2*r1_out*r2_out,
        A2 = g1*r2_in + g1*g2*r1_out,  B0 = r1_in*r2_in,
    with g the pools' fee factors and r their reserves of what goes in
    and out.  On integer numerators a pool's g is (D - fee)/D, D =
    BPS_DENOM, or 1/1 at zero fee, so all three come scaled by D1*D2 in
    both modes: a common scale moves none of the roots the solvers take.
    """
    counter = _check_pair(first, second, asset)
    r1_in, r1_out = first.reserve_of(asset), first.reserve_of(counter)
    r2_in, r2_out = second.reserve_of(counter), second.reserve_of(asset)
    d1, d2 = (BPS_DENOM if pool.fee_bps else 1 for pool in (first, second))
    g1, g2 = d1 - first.fee_bps, d2 - second.fee_bps
    return (_times(g1 * g2, r1_out * r2_out),
            _times(g1, _times(d2, r2_in) + _times(g2, r1_out)),
            _times(d1 * d2, r1_in * r2_in))


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
    _check_pair(pool1, pool2, asset)
    if a <= 0:
        raise PlannerError("principal amount must be positive")
    if pool1.mode is NumericMode.RATIONAL:
        # A2*x^2 + (B0 + A2*a - K)*x - K*a = 0; its constant term is
        # negative, so the larger root is the only positive one
        k_top, a2, b0 = _loop_coeffs(pool1, pool2, asset)
        return solve_quadratic(a2, b0 + a2 * a - k_top, -k_top * a)[1]

    lo, hi = 1, int(pool2.reserve_of(asset))  # output < r_a2: f(hi) < 0
    try:
        covered = dislocation_output(pool1, pool2, asset, a, lo) >= lo
    except ZeroInput:  # a + 1 buys no counter unit: x = 1 repays nothing
        covered = False
    if not covered:
        raise NoPositiveRoot("no positive flash amount solves the loop")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if dislocation_output(pool1, pool2, asset, a, mid) >= mid:
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


def _net_profit(pool1_after: PoolState, pool2_after: PoolState,
                asset: AssetId, y) -> ExactNumber:
    """Phase-2 gross output less y."""
    try:
        _, out = extraction_result(pool1_after, pool2_after, asset, y)
    except ZeroInput:  # y <= 0, or b' floors to zero: y buys nothing
        return -y
    return out - y


def _extraction_optimum(pool1_after: PoolState, pool2_after: PoolState,
                        asset: AssetId) -> ExactNumber:
    """The profit-maximising repayment y, or zero when the reverse loop
    (pool 2, then pool 1) nets nothing.  out(y) - y peaks at
    A2*y* = sqrt(K*B0) - B0; integer mode floors y*, whose floored profit
    is within one counter unit's worth of output plus two units of the
    integer maximum."""
    k_top, a2, b0 = _loop_coeffs(pool2_after, pool1_after, asset)
    if pool1_after.mode is NumericMode.INTEGER:
        # on the scaled ints, isqrt gives the exact floor of y*
        y = (math.isqrt(k_top * b0) - b0) // a2
    else:
        try:
            root = exact_sqrt(k_top * b0)
        except ExactSqrtError as exc:
            raise PlannerError(
                "extraction optimum leaves the exact field; use integer mode"
            ) from exc
        y = (root - b0) / a2
    nets = y > 0 and _net_profit(pool1_after, pool2_after, asset, y) > 0
    return y if nets else 0


def max_extractable(pool1_after: PoolState, pool2_after: PoolState,
                    asset: AssetId) -> ExactNumber:
    """Maximum net profit (gross out minus y) of the reverse loop.

    Evaluated at the closed-form optimum (floored in integer mode).
    Equal-price fresh pools admit no arbitrage and yield zero.
    """
    return _net_profit(pool1_after, pool2_after, asset,
                       _extraction_optimum(pool1_after, pool2_after, asset))


def solve_extraction(pool1_after: PoolState, pool2_after: PoolState,
                     asset: AssetId, target
                     ) -> tuple[ExactNumber, ExactNumber]:
    """Repayment y and borrow b' so the phase-2 loop nets the target.

    Rational mode returns the smaller root of out(y) - y = target, where
    the loop nets the target exactly.  Integer mode returns the least y
    whose floored profit reaches the target.  Raises
    TargetExceedsMaxProfit when the reverse loop cannot net the target.
    """
    if target == 0:
        return 0, 0
    if target < 0:
        raise PlannerError("extraction target must be non-negative")

    k_top, a2, b0 = _loop_coeffs(pool2_after, pool1_after, asset)
    # out(y) - y = target  =>  A2*y^2 + (t*A2 + B0 - K)*y + t*B0 = 0
    qb, qc = target * a2 + b0 - k_top, target * b0
    if pool1_after.mode is NumericMode.RATIONAL:
        try:
            y = solve_quadratic(a2, qb, qc)[0]
        except ValueError as exc:
            raise TargetExceedsMaxProfit(
                f"target {target} above the reverse-loop optimum") from exc
        except ExactSqrtError as exc:
            raise PlannerError(
                "extraction root leaves the exact field; use integer mode"
            ) from exc
        if y <= 0:
            raise TargetExceedsMaxProfit("no positive extraction root")
        return y, amount_out(pool2_after, asset, y)

    best = max_extractable(pool1_after, pool2_after, asset)
    if best < target:
        raise TargetExceedsMaxProfit(
            f"target {target} above the reverse-loop optimum {best}")
    # start at the exact ceiling of the smaller root: the floored profit
    # never exceeds the continuous one, so no smaller y reaches the target
    y = -((qb + math.isqrt(qb * qb - 4 * a2 * qc)) // (2 * a2))
    counter = pool1_after.other_asset(asset)
    while _net_profit(pool1_after, pool2_after, asset, y) < target:
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

    x = x_override if x_override is not None \
        else solve_flash_amount(pool1, pool2, asset, a)
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
        y = solve_extraction(pool1_after, pool2_after, asset, raw_target)[0] \
            if raw_target > 0 else 0
    elif pool1.fee_bps == pool2.fee_bps == 0:
        # fee-free phase 2 with y equal to the phase-1 withdrawal undoes
        # both pool moves: exactly in rational mode (b' = b and the loop
        # nets exactly a), up to the floors in integer mode
        y = x_recovered
    else:
        # the profit-maximising repayment; zero when the loop nets nothing
        y = _extraction_optimum(pool1_after, pool2_after, asset)
    b_prime, out = extraction_result(pool1_after, pool2_after, asset, y) \
        if y > 0 else (0, 0)

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
