"""Execution-layer observer: recovers migrations and roles from traces.

Works from the full execution record (events, call records, world states,
decoded order intents), which is exactly the information the transfer
graph throws away.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .amm import BPS_DENOM, NumericMode
from .engine import (ExecutionTrace, INFRA_LABELS, LimitOrderIntent,
                     WorldState, net_deltas)
from .numeric import exact_sign
from .planner import RelocationPlan


@dataclass(frozen=True)
class Migration:
    principal: str
    beneficiary: str
    asset: str
    amount: object

    def to_dict(self) -> dict:
        return {
            "principal": self.principal,
            "beneficiary": self.beneficiary,
            "asset": self.asset,
            "amount": str(self.amount),
        }


class MigrationReport:
    __slots__ = ("migrations", "roles", "efficiency", "atomic",
                 "executor_profit", "unresolved")

    def __init__(self, migrations: list[Migration], roles: dict[str, str],
                 efficiency: float | None, atomic: bool,
                 executor_profit: dict[str, object] | None = None,
                 unresolved: list[dict] | None = None):
        self.migrations = migrations
        self.roles = roles
        self.efficiency = efficiency
        self.atomic = atomic
        self.executor_profit = {} if executor_profit is None \
            else executor_profit
        self.unresolved = [] if unresolved is None else unresolved

    def to_dict(self) -> dict:
        return {
            "migrations": [m.to_dict() for m in self.migrations],
            "roles": dict(sorted(self.roles.items())),
            "efficiency": self.efficiency,
            "atomic": self.atomic,
            "executor_profit": {k: str(v)
                                for k, v in sorted(self.executor_profit.items())},
            "unresolved": self.unresolved,
        }

    def summary(self) -> str:
        lines = []
        for m in self.migrations:
            lines.append(f"MIGRATION {m.principal} -> {m.beneficiary} "
                         f"{float(m.amount):.6g} {m.asset}")
        for addr, role in sorted(self.roles.items()):
            lines.append(f"role {addr}: {role}")
        if self.efficiency is not None:
            lines.append(f"efficiency {self.efficiency:.4f}")
        if not self.migrations:
            lines.append("no migration recovered")
        return "\n".join(lines)


def recover_migrations(trace: ExecutionTrace, world_before: WorldState,
                       world_after: WorldState,
                       intents: tuple[LimitOrderIntent, ...] = ()
                       ) -> MigrationReport:
    """Pair strict losers with strict gainers enforced in the same bundle.

    The initiator is the executor/operator; principals are identified from
    allowance pulls and decoded intent makers; infrastructure addresses
    (pools, flash providers, settlement contracts) are excluded from
    pairing.  An asset with several losers or gainers is reported in
    `unresolved` rather than guessed.
    """
    deltas = net_deltas(trace)
    labels = {aid: addr.label for aid, addr in world_before.addresses.items()}
    actor_deltas = {
        (addr, sym): d for (addr, sym), d in deltas.items()
        if labels.get(addr, "Unlabeled") not in INFRA_LABELS
        and addr not in world_before.pools and exact_sign(d) != 0
    }

    roles: dict[str, str] = {}
    fill_present = any(c.kind == "fill_limit_order" for c in trace.calls)
    roles[trace.initiator] = "Executor" if fill_present else "Operator"
    pulled_from = {c.callee for c in trace.calls if c.kind == "transfer_from"}
    for owner in pulled_from:
        roles.setdefault(owner, "Principal")
    for intent in intents:
        roles.setdefault(intent.maker, "Principal")

    migrations: list[Migration] = []
    consumed: set[tuple[str, str]] = set()

    for intent in intents:
        lost = actor_deltas.get((intent.maker, intent.maker_asset.symbol))
        gained = actor_deltas.get((intent.receiver,
                                   intent.taker_asset.symbol))
        if lost is not None and exact_sign(lost) < 0 \
                and gained is not None and exact_sign(gained) > 0:
            migrations.append(Migration(intent.maker, intent.receiver,
                                        intent.taker_asset.symbol, gained))
            roles.setdefault(intent.receiver, "Beneficiary")
            consumed.add((intent.maker, intent.maker_asset.symbol))
            consumed.add((intent.receiver, intent.taker_asset.symbol))

    executor_profit: dict[str, object] = {}
    unresolved: list[dict] = []
    by_asset: dict[str, tuple[list, list]] = {}
    for (addr, sym), d in actor_deltas.items():
        if (addr, sym) in consumed:
            continue
        if addr == trace.initiator and exact_sign(d) > 0:
            executor_profit[sym] = d
            continue
        losers, gainers = by_asset.setdefault(sym, ([], []))
        (losers if exact_sign(d) < 0 else gainers).append((addr, d))

    for sym, (losers, gainers) in by_asset.items():
        if len(losers) == 1 and len(gainers) == 1:
            (p, lost), (b, gained) = losers[0], gainers[0]
            migrations.append(Migration(p, b, sym, gained))
            roles.setdefault(p, "Principal")
            roles.setdefault(b, "Beneficiary")
        elif losers and gainers:
            unresolved.append({
                "asset": sym,
                "losers": [[a, str(d)] for a, d in losers],
                "gainers": [[a, str(d)] for a, d in gainers],
            })

    efficiency = None
    if migrations:
        m = migrations[0]
        loss = None
        for (addr, sym), d in deltas.items():
            if addr == m.principal and exact_sign(d) < 0:
                # same asset preferred; fall back to the single lost asset
                if sym == m.asset or loss is None:
                    loss = -d
                    if sym == m.asset:
                        break
        if loss is not None and exact_sign(loss) > 0:
            efficiency = float(m.amount) / float(loss)
    return MigrationReport(migrations=migrations, roles=roles,
                           efficiency=efficiency, atomic=True,
                           executor_profit=executor_profit,
                           unresolved=unresolved)


def loss_decomposition(trace: ExecutionTrace, plan: RelocationPlan,
                       world: WorldState) -> dict[str, float]:
    """Split the relocation loss a - a' into protocol fees and slippage.

    Each swap pays input * fee at the fee of the pool swapped into (read
    from `world`).  A counter-asset fee, valued in the migrated asset at
    its swap's own execution price, is that fee times the swap's output:
    so pool 1 charges fee1 * (a + x + extraction_out) and pool 2 charges
    fee2 * (x_recovered + y).  The remainder of the loss is
    slippage/imbalance between the two phases.  Everything is exact until
    the one conversion to float, in whole tokens.
    """
    fee1, fee2 = (Fraction(world.pools[pool_id].fee_bps, BPS_DENOM)
                  for pool_id in (plan.pool1, plan.pool2))
    scale = Fraction(10 ** plan.asset.decimals
                     if plan.mode is NumericMode.INTEGER else 1)
    gained = net_deltas(trace).get((plan.beneficiary, plan.asset.symbol), 0)
    total = plan.a - gained
    fees = fee1 * (plan.a + plan.x + plan.extraction_out) \
        + fee2 * (plan.x_recovered + plan.y)
    return {
        "protocol_fees": float(fees / scale),
        "slippage_imbalance": float((total - fees) / scale),
        "total_loss": float(total / scale),
    }
