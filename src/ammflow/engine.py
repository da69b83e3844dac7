"""Atomic execution of action bundles over a world state.

A bundle either applies fully, with every flash debt closed, or it leaves
the input world untouched.  The produced ExecutionTrace records every
balance-moving event and is the ground truth consumed by both the
transfer-graph observer and the semantic tracer.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import NamedTuple, Union

from .amm import (EXACT_TYPES, AssetId, NumericMode, PoolState, checked,
                  is_amount, keeps_fee_adjusted_k, swap_exact_in)
from .numeric import (MAX_AMOUNT, REQUIRED, ExactNumber, as_q, exact_div,
                      parse_exact, read)

ROLE_LABELS = ("Principal", "Executor", "Beneficiary", "Operator",
               "PoolContract", "FlashProvider", "SettlementContract",
               "Unlabeled")

# labels whose balances belong to infrastructure, not economic actors
INFRA_LABELS = frozenset({"PoolContract", "FlashProvider",
                          "SettlementContract"})


class EngineError(Exception):
    """Base class for bundle execution failures."""


class InsufficientBalance(EngineError):
    pass


class InsufficientAllowance(EngineError):
    pass


class UnrepaidFlashDebt(EngineError):
    pass


class FlashSwapInvariantViolation(EngineError):
    pass


class Overfill(EngineError):
    pass


@checked
class Address(NamedTuple):
    id: str
    label: str = "Unlabeled"

    def _check(self):
        if self.label not in ROLE_LABELS:
            raise ValueError(f"unknown label {self.label!r}")


class WorldState:
    __slots__ = ("mode", "addresses", "balances", "pools", "allowances")

    def __init__(self, mode: NumericMode):
        self.mode = mode
        self.addresses: dict[str, Address] = {}
        self.balances: dict[tuple[str, str], ExactNumber] = {}
        self.pools: dict[str, PoolState] = {}
        self.allowances: dict[tuple[str, str, str], ExactNumber] = {}

    def add_address(self, addr: Address) -> Address:
        if addr.id in self.addresses:
            raise ValueError(f"duplicate address id {addr.id}")
        self.addresses[addr.id] = addr
        return addr

    def add_pool(self, pool: PoolState) -> PoolState:
        if pool.mode is not self.mode:
            raise ValueError(f"{pool.pool_id!r} is no {self.mode.value} pool")
        self.pools[pool.pool_id] = pool
        if pool.pool_id not in self.addresses:
            self.addresses[pool.pool_id] = Address(pool.pool_id,
                                                   "PoolContract")
        return pool

    def balance(self, addr: str, asset: AssetId) -> ExactNumber:
        return self.balances.get((addr, asset.symbol), 0)

    def _check(self, amount) -> None:
        # the engine's own writes skip this and write the dicts directly
        if not (is_amount(amount, self.mode) and amount >= 0):
            raise ValueError(f"{amount!r} is no {self.mode.value} amount >= 0")

    def set_balance(self, addr: str, asset: AssetId, amount) -> None:
        self._check(amount)
        self.balances[(addr, asset.symbol)] = as_q(amount)

    def allowance(self, owner: str, spender: str, asset: AssetId):
        return self.allowances.get((owner, spender, asset.symbol), 0)

    def approve(self, owner: str, spender: str, asset: AssetId,
                amount) -> None:
        self._check(amount)
        self.allowances[(owner, spender, asset.symbol)] = as_q(amount)

    def copy(self) -> "WorldState":
        world = WorldState(self.mode)
        for name in ("addresses", "balances", "pools", "allowances"):
            setattr(world, name, dict(getattr(self, name)))
        return world

    def total_supply(self, asset: AssetId) -> ExactNumber:
        total = sum(v for (_, sym), v in self.balances.items()
                    if sym == asset.symbol)
        for pool in self.pools.values():
            if pool.has_asset(asset):
                total = total + pool.reserve_of(asset)
        return total


# -- actions ------------------------------------------------------------


class Transfer(NamedTuple):
    src: str
    dst: str
    asset: AssetId
    amount: ExactNumber


class TransferFrom(NamedTuple):
    owner: str
    spender: str
    dst: str
    asset: AssetId
    amount: ExactNumber


class Swap(NamedTuple):
    caller: str
    pool: str
    input_asset: AssetId
    amount_in: ExactNumber
    recipient: str


class FlashBorrow(NamedTuple):
    provider: str
    borrower: str
    asset: AssetId
    amount: ExactNumber


class FlashRepay(NamedTuple):
    borrower: str
    provider: str
    asset: AssetId
    amount: ExactNumber


class FlashSwapBorrow(NamedTuple):
    pool: str
    borrower: str
    asset: AssetId
    amount: ExactNumber


class FlashSwapRepay(NamedTuple):
    pool: str
    borrower: str
    asset: AssetId
    amount: ExactNumber


@checked
class LimitOrderIntent(NamedTuple):
    maker: str
    maker_asset: AssetId
    taker_asset: AssetId
    making_amount: ExactNumber
    taking_amount: ExactNumber
    receiver: str
    settlement: str
    route_via_settlement: bool = True  # maker leg via settlement's custody

    def _check(self):
        if not all(type(v) in EXACT_TYPES and v > 0
                   for v in (self.making_amount, self.taking_amount)):
            raise ValueError("order amounts must be positive")


class FillLimitOrder(NamedTuple):
    order: LimitOrderIntent
    filler: str
    fill_amount: ExactNumber  # in maker-asset units


Action = Union[Transfer, TransferFrom, Swap, FlashBorrow, FlashRepay,
               FlashSwapBorrow, FlashSwapRepay, FillLimitOrder]


# -- trace --------------------------------------------------------------


@dataclass(frozen=True)
class TransferEvent:
    seq: int
    src: str
    dst: str
    asset: AssetId
    amount: ExactNumber
    action_index: int


class CallRecord(NamedTuple):
    action_index: int
    kind: str
    caller: str
    callee: str


class ExecutionTrace:
    __slots__ = ("bundle_id", "initiator", "events", "calls")

    def __init__(self, bundle_id: str, initiator: str,
                 events: list[TransferEvent] | None = None,
                 calls: list[CallRecord] | None = None):
        self.bundle_id = bundle_id
        self.initiator = initiator
        self.events = [] if events is None else events
        self.calls = [] if calls is None else calls


# -- execution ----------------------------------------------------------


class _Execution:
    """Mutable working set for one bundle; discarded on failure."""

    def __init__(self, world: WorldState, initiator: str, bundle_id: str):
        self.world = world.copy()
        self.trace = ExecutionTrace(bundle_id=bundle_id, initiator=initiator)
        self.flash_debts: dict[tuple[str, str, str], ExactNumber] = {}
        # pool_id -> pre-borrow reserve product for pending flash swaps
        self.flash_swap_k: dict[str, ExactNumber] = {}
        self.seq = 0

    def emit(self, src: str, dst: str, asset: AssetId, amount,
             action_index: int) -> None:
        self.seq += 1
        # built like PoolState.with_reserves, skipping the frozen __init__
        event = object.__new__(TransferEvent)
        event.__dict__.update(seq=self.seq, src=src, dst=dst, asset=asset,
                              amount=amount, action_index=action_index)
        self.trace.events.append(event)

    def call(self, action_index: int, kind: str, caller: str,
             callee: str) -> None:
        self.trace.calls.append(CallRecord(action_index, kind, caller, callee))

    # pool reserves sit outside the balance map, so a payment into a pool
    # only debits its payer and one out of a pool only credits its payee
    def pay(self, src: str, dst: str, asset: AssetId, amount,
            action_index: int) -> None:
        """Debit src by amount and emit the event to dst: the one debit."""
        bal = self.world.balance(src, asset)
        left = bal - amount
        if left < 0:
            raise InsufficientBalance(
                f"{src} holds {bal} {asset.symbol}, needs {amount}")
        self.world.balances[(src, asset.symbol)] = left
        self.emit(src, dst, asset, amount, action_index)

    def credit(self, dst: str, asset: AssetId, amount) -> None:
        key = (dst, asset.symbol)
        self.world.balances[key] = self.world.balances.get(key, 0) + amount

    def move(self, src: str, dst: str, asset: AssetId, amount,
             action_index: int) -> None:
        self.pay(src, dst, asset, amount, action_index)
        self.credit(dst, asset, amount)

    def pay_from_pool(self, pool_id: str, dst: str, asset: AssetId, amount,
                      action_index: int) -> None:
        self.credit(dst, asset, amount)
        self.emit(pool_id, dst, asset, amount, action_index)


def _apply_fill(ex: _Execution, idx: int, act: FillLimitOrder) -> None:
    order = act.order
    if act.fill_amount > order.making_amount:
        raise Overfill(
            f"fill {act.fill_amount} exceeds making {order.making_amount}")
    making = act.fill_amount
    if ex.world.mode is NumericMode.INTEGER:
        taking = -(-making * order.taking_amount
                   // order.making_amount)  # ceil, never underpay maker
    else:
        taking = exact_div(making * order.taking_amount, order.making_amount)
    allowance = ex.world.allowance(order.maker, order.settlement,
                                   order.maker_asset)
    if allowance < making:
        raise InsufficientAllowance(
            f"maker {order.maker} allowance {allowance} < {making}")
    ex.world.allowances[(order.maker, order.settlement,
                         order.maker_asset.symbol)] = allowance - making
    ex.call(idx, "fill_limit_order", act.filler, order.maker)
    # taker side first: the maker only releases funds against payment
    ex.move(act.filler, order.receiver, order.taker_asset, taking, idx)
    if order.route_via_settlement:
        ex.move(order.maker, order.settlement, order.maker_asset, making, idx)
        ex.move(order.settlement, act.filler, order.maker_asset, making, idx)
    else:
        ex.move(order.maker, act.filler, order.maker_asset, making, idx)


def _amounts(act: Action) -> tuple:
    if isinstance(act, FillLimitOrder):
        order = act.order
        return act.fill_amount, order.making_amount, order.taking_amount
    return (act.amount_in if isinstance(act, Swap) else act.amount,)


def _apply_action(ex: _Execution, idx: int, act: Action) -> None:
    world = ex.world
    if not isinstance(act, Action.__args__):
        raise EngineError(f"unknown action {type(act).__name__}")
    # the one amount gate, which every later step, pricing included,
    # trusts: a positive amount keeps a valid pool's reserves positive, as
    # PoolState.with_reserves requires
    for amount in _amounts(act):
        if not is_amount(amount, world.mode):
            raise EngineError(f"amounts must be ints, or in rational mode "
                              f"Fractions or QuadExacts: {act}")
        if not amount > 0:
            raise EngineError(f"amounts must be positive: {act}")
    if isinstance(act, (Swap, FlashSwapBorrow, FlashSwapRepay)):
        if act.pool not in world.pools:
            raise EngineError(f"no pool {act.pool!r}")
        asset = act.input_asset if isinstance(act, Swap) else act.asset
        if not world.pools[act.pool].has_asset(asset):
            raise EngineError(
                f"pool {act.pool!r} does not trade {asset.symbol}")
    if isinstance(act, Transfer):
        ex.call(idx, "transfer", act.src, act.dst)
        ex.move(act.src, act.dst, act.asset, act.amount, idx)
    elif isinstance(act, TransferFrom):
        allowance = world.allowance(act.owner, act.spender, act.asset)
        if allowance < act.amount:
            raise InsufficientAllowance(
                f"{act.spender} allowance from {act.owner} is {allowance}, "
                f"needs {act.amount}")
        world.allowances[(act.owner, act.spender, act.asset.symbol)] = \
            allowance - act.amount
        ex.call(idx, "transfer_from", act.spender, act.owner)
        ex.move(act.owner, act.dst, act.asset, act.amount, idx)
    elif isinstance(act, Swap):
        pool = world.pools[act.pool]
        out, new_pool = swap_exact_in(pool, act.input_asset, act.amount_in)
        ex.call(idx, "swap", act.caller, act.pool)
        ex.pay(act.caller, act.pool, act.input_asset, act.amount_in, idx)
        world.pools[act.pool] = new_pool
        ex.pay_from_pool(act.pool, act.recipient,
                         pool.other_asset(act.input_asset), out, idx)
    elif isinstance(act, FlashBorrow):
        ex.call(idx, "flash_borrow", act.borrower, act.provider)
        ex.move(act.provider, act.borrower, act.asset, act.amount, idx)
        key = (act.borrower, act.provider, act.asset.symbol)
        ex.flash_debts[key] = ex.flash_debts.get(key, 0) + act.amount
    elif isinstance(act, FlashRepay):
        key = (act.borrower, act.provider, act.asset.symbol)
        debt = ex.flash_debts.get(key, 0)
        if debt <= 0:
            raise EngineError(f"no flash debt {key}")
        ex.call(idx, "flash_repay", act.borrower, act.provider)
        ex.move(act.borrower, act.provider, act.asset, act.amount, idx)
        # an over-repayment is a gift, not credit against a later borrow
        ex.flash_debts[key] = max(debt - act.amount, 0)
    elif isinstance(act, FlashSwapBorrow):
        pool = world.pools[act.pool]
        reserve, other = pool.sides(act.asset)
        if reserve <= act.amount:
            raise InsufficientBalance(
                f"flash swap {act.amount} exceeds reserve {reserve}")
        if act.pool in ex.flash_swap_k:
            raise EngineError(f"flash swap already pending on {act.pool}")
        ex.call(idx, "flash_swap_borrow", act.borrower, act.pool)
        ex.flash_swap_k[act.pool] = pool.k
        world.pools[act.pool] = pool.with_reserves(
            act.asset, reserve - act.amount, other)
        ex.pay_from_pool(act.pool, act.borrower, act.asset, act.amount, idx)
    elif isinstance(act, FlashSwapRepay):
        pool = world.pools[act.pool]
        if act.pool not in ex.flash_swap_k:
            raise EngineError(f"no pending flash swap on {act.pool}")
        ex.call(idx, "flash_swap_repay", act.borrower, act.pool)
        ex.pay(act.borrower, act.pool, act.asset, act.amount, idx)
        reserve, other = pool.sides(act.asset)
        k_before = ex.flash_swap_k.pop(act.pool)
        if not keeps_fee_adjusted_k(pool, act.asset, act.amount, k_before):
            raise FlashSwapInvariantViolation(
                f"flash swap repay on {act.pool} fails the fee-adjusted "
                f"invariant")
        world.pools[act.pool] = pool.with_reserves(
            act.asset, reserve + act.amount, other)
    else:
        _apply_fill(ex, idx, act)


def execute_bundle(world: WorldState, bundle: list[Action], initiator: str,
                   *, bundle_id: str = "bundle-0"
                   ) -> tuple[WorldState, ExecutionTrace]:
    """Run a bundle atomically; on any error the input world is untouched."""
    if not bundle:
        raise EngineError("bundle must be non-empty")
    ex = _Execution(world, initiator, bundle_id)
    for idx, act in enumerate(bundle):
        _apply_action(ex, idx, act)
    for key, debt in ex.flash_debts.items():
        if debt > 0:
            raise UnrepaidFlashDebt(f"flash debt {key} = {debt} at bundle end")
    if ex.flash_swap_k:
        raise UnrepaidFlashDebt(
            f"unclosed flash swap on pools {sorted(ex.flash_swap_k)}")
    return ex.world, ex.trace


def net_deltas(trace: ExecutionTrace) -> dict[tuple[str, str], ExactNumber]:
    """Signed per-(address, asset) sums over all trace events.  Raises
    ValueError for a sum of amounts from two quadratic fields."""
    deltas: dict[tuple[str, str], ExactNumber] = {}
    for ev in trace.events:
        for addr, move in ((ev.src, operator.sub), (ev.dst, operator.add)):
            key = (addr, ev.asset.symbol)
            try:
                deltas[key] = move(deltas.get(key, 0), ev.amount)
            except TypeError:  # no one quadratic field holds both
                raise ValueError(
                    f"event {ev.seq}: {ev.amount} and {addr}'s {key[1]} sum "
                    f"{deltas[key]} lie in two quadratic fields") from None
    return deltas


def trace_to_dict(trace: ExecutionTrace, mode: NumericMode) -> dict:
    """JSON-ready trace with stable field order."""
    return {
        "bundle_id": trace.bundle_id,
        "initiator": trace.initiator,
        "mode": mode.value,
        "assets": {ev.asset.symbol: ev.asset.decimals
                   for ev in trace.events},
        "events": [{"seq": ev.seq, "from": ev.src, "to": ev.dst,
                    "asset": ev.asset.symbol, "amount": str(ev.amount),
                    "action_index": ev.action_index,
                    "bundle_id": trace.bundle_id} for ev in trace.events],
        "calls": [call._asdict() for call in trace.calls],
    }


def trace_to_json(trace: ExecutionTrace, mode: NumericMode) -> str:
    return json.dumps(trace_to_dict(trace, mode), indent=2) + "\n"


_EVENT = {"seq": (int, REQUIRED), "from": (str, REQUIRED),
          "to": (str, REQUIRED), "asset": (str, REQUIRED),
          "amount": (parse_exact, REQUIRED), "action_index": (int, REQUIRED),
          "bundle_id": (str, None)}
_CALL = {"action_index": (int, REQUIRED), "kind": (str, REQUIRED),
         "caller": (str, REQUIRED), "callee": (str, REQUIRED)}
_TRACE = {"bundle_id": (str, REQUIRED), "initiator": (str, REQUIRED),
          "mode": (NumericMode, None), "assets": (dict, REQUIRED),
          "events": ([_EVENT], REQUIRED), "calls": ([_CALL], [])}


def trace_from_dict(data: dict) -> ExecutionTrace:
    """Rebuild a trace from its JSON form (amounts parsed exactly), or
    raise ValueError naming the first field that `_TRACE`, `AssetId` or
    the checks below refuse: events move an asset of `assets` in strictly
    increasing seq, each by an amount in [0, 10**116), where zero is legal
    since integer swaps can floor an output to 0."""
    fields = read(_TRACE, data)
    assets = {}
    for sym, dec in fields["assets"].items():
        try:
            assets[sym] = AssetId(sym, dec)
        except ValueError as exc:
            raise ValueError(f"assets.{sym} is refused: {exc}") from None
    trace = ExecutionTrace(fields["bundle_id"], fields["initiator"])
    for i, ev in enumerate(fields["events"]):
        if not 0 <= ev["amount"] < MAX_AMOUNT:
            raise ValueError(f"events.{i}.amount {ev['amount']} is not in "
                             "[0, 10**116)")
        if ev["asset"] not in assets:
            raise ValueError(f"events.{i}.asset {ev['asset']} is not in "
                             "assets")
        if trace.events and ev["seq"] <= trace.events[-1].seq:
            raise ValueError(f"events.{i}.seq {ev['seq']} does not follow "
                             f"seq {trace.events[-1].seq}")
        trace.events.append(TransferEvent(
            ev["seq"], ev["from"], ev["to"], assets[ev["asset"]],
            ev["amount"], ev["action_index"]))
    trace.calls = [CallRecord(**call) for call in fields["calls"]]
    return trace
