"""Recovery of pre-execution pool reserves from migration observations.

The four swap equations of the relocation pipeline are solved for the four
unknown reserves with a damped Newton iteration in log-reserve
coordinates (which keeps every iterate positive), then validated by an
independent integer-mode replay of the whole bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .amm import BPS_DENOM, AssetId, NumericMode, PoolState


class CalibrationError(Exception):
    pass


class NoConvergence(CalibrationError):
    pass


class InconsistentObservations(CalibrationError):
    """Residual floor above tolerance; best-found reserves attached."""

    def __init__(self, message: str, best: "CalibratedPools"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class ObservationSet:
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

    def __post_init__(self):
        for name in ("a", "x", "b", "x_prime", "b_prime", "y", "a_prime"):
            if getattr(self, name) <= 0:
                raise ValueError(f"observation {name} must be positive")

    def to_dict(self) -> dict:
        return {
            "a": self.a, "x": self.x, "b": self.b, "x_prime": self.x_prime,
            "b_prime": self.b_prime, "y": self.y, "a_prime": self.a_prime,
            "fee_bps": self.fee_bps,
            "asset_decimals": self.asset_decimals,
            "counter_decimals": self.counter_decimals,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ObservationSet":
        return cls(a=float(data["a"]), x=float(data["x"]),
                   b=float(data["b"]), x_prime=float(data["x_prime"]),
                   b_prime=float(data["b_prime"]), y=float(data["y"]),
                   a_prime=float(data["a_prime"]),
                   fee_bps=int(data.get("fee_bps", 30)),
                   asset_decimals=int(data.get("asset_decimals", 18)),
                   counter_decimals=int(data.get("counter_decimals", 6)))


# published 10-unit migration observations (migrated asset vs 6-decimal
# counter asset, both venues at a 0.3% input fee)
PUBLISHED_OBSERVATIONS = ObservationSet(
    a=10.0, x=50.4893, b=159_461.05, x_prime=50.4741, b_prime=157_262.60,
    y=49.9515, a_prime=9.3541, fee_bps=30, asset_decimals=18,
    counter_decimals=6)


@dataclass
class CalibratedPools:
    pool1_reserves: tuple[float, float]   # (migrated, counter)
    pool2_reserves: tuple[float, float]
    residuals: dict[str, float] = field(default_factory=dict)
    iterations: int = 0

    @property
    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals.values())

    def to_dict(self) -> dict:
        return {
            "pool1": {"asset": self.pool1_reserves[0],
                      "counter": self.pool1_reserves[1]},
            "pool2": {"asset": self.pool2_reserves[0],
                      "counter": self.pool2_reserves[1]},
            "residuals": dict(self.residuals),
            "iterations": self.iterations,
        }


_LABELS = ("phase1_out", "phase1_recover", "phase2_volume", "phase2_out")


def _blocks(reserves: list[float], obs: ObservationSet):
    """Relative residuals of the four pipeline equations, split by pool.

    phase1_out and phase2_out involve only pool 1's reserves, and
    phase1_recover and phase2_volume only pool 2's.  Each block is
    (residuals, jac) with jac the 2x2 Jacobian in log-reserve coordinates:
    one row per equation, columns (log migrated, log counter).

    Phase-2 volume enters one equation whether it is read as a flash-swap
    borrow or as a plain swap output: both readings impose the same
    reserve constraint, so a single system covers them.
    """
    r_a1, r_b1, r_a2, r_b2 = reserves
    g = 1.0 - obs.fee_bps / BPS_DENOM
    s1 = obs.a + obs.x
    delivered = obs.y + obs.a_prime
    d1 = r_a1 + g * s1
    out1 = r_b1 * g * s1 / d1
    d4 = (r_b1 - obs.b) + g * obs.b_prime
    out4 = (r_a1 + s1) * g * obs.b_prime / d4
    d2 = r_b2 + g * obs.b
    out2 = r_a2 * g * obs.b / d2
    d3 = (r_a2 - obs.x_prime) + g * obs.y
    out3 = (r_b2 + obs.b) * g * obs.y / d3
    f1 = ((out1 - obs.b) / obs.b,
          (out4 - (delivered + obs.x - obs.x_prime)) / delivered)
    jac1 = ((-out1 * r_a1 / d1 / obs.b, out1 / obs.b),
            (out4 * r_a1 / (r_a1 + s1) / delivered,
             -out4 * r_b1 / d4 / delivered))
    f2 = ((out2 - obs.x_prime) / obs.x_prime,
          (out3 - obs.b_prime) / obs.b_prime)
    jac2 = ((out2 / obs.x_prime, -out2 * r_b2 / d2 / obs.x_prime),
            (-out3 * r_a2 / d3 / obs.b_prime,
             out3 * r_b2 / (r_b2 + obs.b) / obs.b_prime))
    return (f1, jac1), (f2, jac2)


def _evaluate(z: list[float], obs: ObservationSet):
    """Blocks at log reserves z and their residual max-norm; the norm is
    infinite where a residual is not finite, so a line search rejects z."""
    blocks = _blocks([math.exp(v) for v in z], obs)
    values = blocks[0][0] + blocks[1][0]
    if not all(math.isfinite(v) for v in values):
        return None, math.inf
    return blocks, max(abs(v) for v in values)


def _cramer_step(f, jac) -> tuple[float, float] | None:
    """Newton step -jac^-1 f of one 2x2 block; None when jac is singular."""
    (j00, j01), (j10, j11) = jac
    det = j00 * j11 - j01 * j10
    if det == 0.0:
        return None
    return ((j01 * f[1] - j11 * f[0]) / det,
            (j10 * f[0] - j00 * f[1]) / det)


def _initial_guess(obs: ObservationSet) -> list[float]:
    """Seed reserves from effective prices and the implied slippage."""
    g = 1.0 - obs.fee_bps / BPS_DENOM
    s1 = obs.a + obs.x
    p_eff1 = obs.b / (g * s1)            # counter per asset, biased low
    p_eff2 = obs.b * g / obs.x_prime     # biased high
    p0 = math.sqrt(p_eff1 * p_eff2)
    if not 0 < p0 < math.inf:
        raise NoConvergence(f"price seed {p0!r} is not positive and finite")
    rho1 = min(obs.b / (s1 * g * p0), 0.999)
    r_a1 = g * s1 * rho1 / max(1.0 - rho1, 1e-6)
    r_b1 = p0 * r_a1
    rho2 = min(obs.x_prime * p0 / (obs.b * g), 0.999)
    r_b2 = g * obs.b * rho2 / max(1.0 - rho2, 1e-6)
    r_a2 = r_b2 / p0
    # the seed must at least dominate the observed outflows
    return [max(r_a1, 2 * s1), max(r_b1, 2 * obs.b),
            max(r_a2, 2 * (obs.x_prime + obs.y)),
            max(r_b2, 2 * obs.b_prime)]


def calibrate_reserves(obs: ObservationSet, *, tol: float = 1e-12,
                       consistency_tol: float = 1e-3,
                       max_iter: int = 200) -> CalibratedPools:
    """Damped Newton solve for the four pre-execution reserves.

    The equations split by pool (see _blocks), so each step is two 2x2
    solves.  A singular block or a failed line search ends the iteration.

    Raises NoConvergence when the iteration stalls far from a solution and
    InconsistentObservations when the residual floor stays above
    consistency_tol (best-found reserves attached to the exception).
    """
    if obs.fee_bps > 0 and obs.a_prime >= obs.a:
        raise InconsistentObservations(
            "delivered output not below principal input despite fees",
            CalibratedPools((0.0, 0.0), (0.0, 0.0)))

    z = [math.log(r) for r in _initial_guess(obs)]
    blocks, norm = _evaluate(z, obs)
    if blocks is None:
        raise NoConvergence("residuals not finite at the seed")
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if norm < tol:
            break
        steps = [_cramer_step(f, jac) for f, jac in blocks]
        if None in steps:
            break
        step = [min(max(s, -2.0), 2.0) for s in steps[0] + steps[1]]
        lam = 1.0
        for _ in range(30):
            z_new = [zi + lam * si for zi, si in zip(z, step)]
            blocks_new, norm_new = _evaluate(z_new, obs)
            if norm_new < norm:
                z, blocks, norm = z_new, blocks_new, norm_new
                break
            lam *= 0.5
        else:
            break

    reserves = [math.exp(v) for v in z]
    (f1, f4), (f2, f3) = blocks[0][0], blocks[1][0]
    result = CalibratedPools(
        pool1_reserves=(reserves[0], reserves[1]),
        pool2_reserves=(reserves[2], reserves[3]),
        residuals=dict(zip(_LABELS, (f1, f2, f3, f4))),
        iterations=iterations)
    if result.max_residual >= consistency_tol:
        if norm > 1.0:
            raise NoConvergence(
                f"stalled at residual {norm:.3e} after "
                f"{iterations} iterations")
        raise InconsistentObservations(
            f"residual floor {result.max_residual:.3e} above "
            f"{consistency_tol:.1e}", result)
    return result


def replay_and_validate(calibrated: CalibratedPools,
                        obs: ObservationSet) -> dict[str, float]:
    """Integer-mode full-bundle replay; per-quantity relative errors."""
    from .planner import plan_relocation

    asset = AssetId("ASSET", obs.asset_decimals)
    counter = AssetId("COUNTER", obs.counter_decimals)
    sa = 10 ** obs.asset_decimals
    sc = 10 ** obs.counter_decimals
    pool1, pool2 = (
        PoolState(pool_id, asset, counter, round(r_a * sa), round(r_b * sc),
                  obs.fee_bps, NumericMode.INTEGER)
        for pool_id, (r_a, r_b) in (("pool1", calibrated.pool1_reserves),
                                    ("pool2", calibrated.pool2_reserves)))
    plan = plan_relocation(pool1, pool2, asset, "P", "B", "O",
                           round(obs.a * sa),
                           x_override=round(obs.x * sa),
                           y_override=round(obs.y * sa))
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

    Used by round-trip identifiability checks: exact fee-mode replay with
    the self-repaying flash amount, then float projection.
    """
    from .planner import extraction_result, solve_flash_amount
    from .amm import swap_exact_in

    counter = pool1.other_asset(asset)
    x = solve_flash_amount(pool1, pool2, asset, a)
    b, pool1_after = swap_exact_in(pool1, asset, a + x)
    x_rec, pool2_after = swap_exact_in(pool2, counter, b)
    b_prime, out = extraction_result(pool1_after, pool2_after, asset, y)
    return ObservationSet(
        a=float(a), x=float(x), b=float(b), x_prime=float(x_rec),
        b_prime=float(b_prime), y=float(y),
        a_prime=float(out - y - (x - x_rec)),
        fee_bps=pool1.fee_bps,
        asset_decimals=asset.decimals,
        counter_decimals=counter.decimals)
