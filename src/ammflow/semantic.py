"""Execution-layer observer: recovers migrations and roles from traces.

Works from the execution record alone (events, call records, decoded order
intents), which is exactly the information the transfer graph throws
away.  No role label given to an address is consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .amm import BPS_DENOM, INTEGER
from .engine import ExecutionTrace, WorldState, net_deltas
from .numeric import exact_div
from .planner import RelocationPlan


@dataclass(frozen=True)
class Migration:
    principal: str
    beneficiary: str
    asset: str
    amount: object

    def to_dict(self) -> dict:
        return dict(vars(self), amount=str(self.amount))


class MigrationReport(NamedTuple):
    migrations: list[Migration]
    roles: dict[str, str]
    efficiency: float | None
    executor_profit: dict[str, object]
    unresolved: list[dict]
    atomic = True  # a bundle applies fully or not at all

    def to_dict(self) -> dict:
        return {**self._asdict(), "atomic": self.atomic,
                "migrations": [m.to_dict() for m in self.migrations],
                "roles": dict(sorted(self.roles.items())),
                "executor_profit": {k: str(v) for k, v in
                                    sorted(self.executor_profit.items())}}

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


# calls whose callee is a pool or a flash provider
_INFRA_CALLS = frozenset({"swap", "flash_swap_borrow", "flash_swap_repay",
                          "flash_borrow", "flash_repay"})


def _read_calls(trace: ExecutionTrace) -> tuple[set[str], list[tuple]]:
    """Infrastructure addresses, and each fill as (maker, maker asset,
    receiver, taker asset).  A fill's call names its filler and maker; the
    filler's first hop is the taker leg to the receiver, and the maker's
    first hop lands on the filler or on the settlement contract that
    routes the maker leg."""
    infra = {c.callee for c in trace.calls if c.kind in _INFRA_CALLS}
    fills = []
    for call in trace.calls:
        if call.kind != "fill_limit_order":
            continue
        hops = [ev for ev in trace.events
                if ev.action_index == call.action_index]
        taker = next((ev for ev in hops if ev.src == call.caller), None)
        maker = next((ev for ev in hops if ev.src == call.callee), None)
        if taker is not None and maker is not None:
            fills.append((call.callee, maker.asset.symbol, taker.dst,
                          taker.asset.symbol))
            if maker.dst != call.caller:
                infra.add(maker.dst)
    return infra, fills


def recover_migrations(trace: ExecutionTrace,
                       world_before: WorldState | None,
                       world_after: WorldState | None) -> MigrationReport:
    """Pair strict losers with strict gainers enforced in the same bundle.

    Only the trace is read, never the worlds.  The initiator
    is the executor/operator; principals are allowance-pull owners and
    fill makers, and a fill pairs its maker with its receiver;
    infrastructure (pools, flash providers, settlement contracts) is
    excluded from pairing.  An asset with several losers or gainers is
    reported in `unresolved` rather than guessed.
    """
    deltas = net_deltas(trace)
    infra, fills = _read_calls(trace)
    actor_deltas = {
        (addr, sym): d for (addr, sym), d in deltas.items()
        if addr not in infra and d != 0
    }

    roles: dict[str, str] = {}
    fill_present = any(c.kind == "fill_limit_order" for c in trace.calls)
    roles[trace.initiator] = "Executor" if fill_present else "Operator"
    for c in trace.calls:  # an allowance pull's owner, or a fill's maker
        if c.kind in ("transfer_from", "fill_limit_order"):
            roles.setdefault(c.callee, "Principal")

    migrations: list[Migration] = []
    consumed: set[tuple[str, str]] = set()
    for maker, maker_sym, receiver, taker_sym in fills:
        gained = actor_deltas.get((receiver, taker_sym), 0)
        if actor_deltas.get((maker, maker_sym), 0) < 0 and gained > 0:
            migrations.append(Migration(maker, receiver, taker_sym, gained))
            roles.setdefault(receiver, "Beneficiary")
            consumed.update({(maker, maker_sym), (receiver, taker_sym)})

    executor_profit: dict[str, object] = {}
    unresolved: list[dict] = []
    by_asset: dict[str, tuple[list, list]] = {}
    for (addr, sym), d in actor_deltas.items():
        if (addr, sym) in consumed:
            continue
        if addr == trace.initiator and d > 0:
            executor_profit[sym] = d
            continue
        losers, gainers = by_asset.setdefault(sym, ([], []))
        (losers if d < 0 else gainers).append((addr, d))

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
        losses = {sym: -d for (addr, sym), d in deltas.items()
                  if addr == m.principal and d < 0}
        # same asset preferred; fall back to the first lost asset
        loss = losses.get(m.asset, next(iter(losses.values()), None))
        if loss is not None:
            efficiency = float(m.amount) / float(loss)
    return MigrationReport(migrations, roles, efficiency, executor_profit,
                           unresolved)


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
    fee1, fee2 = (exact_div(world.pools[pool_id].fee_bps, BPS_DENOM)
                  for pool_id in (plan.pool1, plan.pool2))
    scale = 10 ** plan.asset.decimals \
        if plan.mode is INTEGER else 1
    gained = net_deltas(trace).get((plan.beneficiary, plan.asset.symbol), 0)
    total = plan.a - gained
    fees = fee1 * (plan.a + plan.x + plan.extraction_out) \
        + fee2 * (plan.x_recovered + plan.y)
    return {
        "protocol_fees": float(fees / scale),
        "slippage_imbalance": float((total - fees) / scale),
        "total_loss": float(exact_div(total, scale)),
    }
