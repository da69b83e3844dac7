import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ammflow.amm import AssetId, NumericMode, PoolState
from ammflow.engine import (Address, EngineError, FillLimitOrder, FlashBorrow,
                            FlashRepay, FlashSwapBorrow, FlashSwapRepay,
                            InsufficientAllowance, InsufficientBalance,
                            LimitOrderIntent, Overfill, Swap, Transfer,
                            TransferFrom, UnrepaidFlashDebt, WorldState,
                            execute_bundle, net_deltas, trace_from_dict,
                            trace_to_dict, trace_to_json)
from ammflow.numeric import QuadExact
from ammflow.scenarios import library
from conftest import TOKA, TOKB, make_pool

GOLDEN = Path(__file__).parent / "data" / "relocation_sym_trace.json"


def basic_world(*addr_ids, mode=NumericMode.RATIONAL):
    world = WorldState(mode=mode)
    for aid in addr_ids:
        world.add_address(Address(aid))
    return world


def snapshot(world):
    return (dict(world.balances), dict(world.pools), dict(world.allowances))


class TestExecuteBundle:
    def test_single_transfer(self):
        world = basic_world("P", "B")
        world.set_balance("P", TOKA, Fraction(10))
        after, trace = execute_bundle(
            world, [Transfer("P", "B", TOKA, Fraction(10))], "P")
        assert after.balance("P", TOKA) == 0
        assert after.balance("B", TOKA) == 10
        assert len(trace.events) == 1
        assert world.balance("P", TOKA) == 10  # input world untouched

    def test_empty_bundle_rejected(self):
        with pytest.raises(EngineError):
            execute_bundle(basic_world("P"), [], "P")

    def test_missing_flash_repay_rolls_back(self):
        world = basic_world("F", "O")
        world.set_balance("F", TOKA, Fraction(100))
        before = snapshot(world)
        with pytest.raises(UnrepaidFlashDebt):
            execute_bundle(world,
                           [FlashBorrow("F", "O", TOKA, Fraction(5))], "O")
        assert snapshot(world) == before

    def test_over_repayment_does_not_offset_a_later_borrow(self):
        world = basic_world("F", "O")
        world.set_balance("F", TOKA, Fraction(100))
        world.set_balance("O", TOKA, Fraction(5))
        before = snapshot(world)
        with pytest.raises(UnrepaidFlashDebt):
            execute_bundle(world, [
                FlashBorrow("F", "O", TOKA, Fraction(10)),
                FlashRepay("O", "F", TOKA, Fraction(15)),
                FlashBorrow("F", "O", TOKA, Fraction(5))], "O")
        assert snapshot(world) == before

    def test_nested_flash_swap_on_one_pool_rejected(self):
        # a second borrow would overwrite the pre-borrow k, letting the
        # repay pass against the already-drained pool
        world = basic_world("O")
        world.add_pool(make_pool("pool1", Fraction(100), Fraction(100)))
        world.set_balance("O", TOKA, Fraction(13))
        before = snapshot(world)
        with pytest.raises(EngineError):
            execute_bundle(world, [
                FlashSwapBorrow("pool1", "O", TOKB, Fraction(10)),
                FlashSwapBorrow("pool1", "O", TOKB, Fraction(10)),
                FlashSwapRepay("pool1", "O", TOKA, Fraction(13))], "O")
        assert snapshot(world) == before

    def test_flash_swap_repay_leaves_other_flash_loans_owed(self):
        # the flash swap is closed by the pool's k check alone; repaying it
        # must not clear a plain flash loan from the same pool
        world = basic_world("E")
        world.add_pool(make_pool("pool", Fraction(100), Fraction(100)))
        world.set_balance("pool", TOKA, Fraction(50))
        world.set_balance("E", TOKA, Fraction(20))
        before = snapshot(world)
        with pytest.raises(UnrepaidFlashDebt):
            execute_bundle(world, [
                FlashBorrow("pool", "E", TOKA, Fraction(50)),
                FlashSwapBorrow("pool", "E", TOKB, Fraction(10)),
                FlashSwapRepay("pool", "E", TOKA, Fraction(12))], "E")
        assert snapshot(world) == before

    @pytest.mark.parametrize("mode", list(NumericMode),
                             ids=lambda mode: mode.value)
    def test_flash_swap_of_a_whole_reserve_is_refused(self, mode):
        # the borrow would leave the pool no TOKB and a product of 0, which
        # no repay can restore; E holds enough TOKA to repay any finite k
        one = Fraction(1) if mode is NumericMode.RATIONAL else 1
        world = basic_world("E", mode=mode)
        world.add_pool(make_pool("pool", 100 * one, 100 * one, 30, mode))
        world.set_balance("E", TOKA, 10 ** 6 * one)
        before = snapshot(world)
        with pytest.raises(InsufficientBalance,
                           match="flash swap 100 exceeds reserve 100"):
            execute_bundle(world, [
                FlashSwapBorrow("pool", "E", TOKB, 100 * one),
                FlashSwapRepay("pool", "E", TOKA, 10 ** 6 * one)], "E")
        assert snapshot(world) == before

    @pytest.mark.parametrize("fee_bps, borrow, repay", [
        (0, Fraction(-5), Fraction(-5)),
        (30, Fraction(-100000), Fraction("-100000.1")),
        (30, Fraction(-100000), Fraction("-100100.1")),
        (0, Fraction(0), Fraction(1))])
    def test_flash_swap_amounts_must_be_positive(self, fee_bps, borrow,
                                                 repay):
        # a negative borrow raises the reserve and pays the borrower a
        # negative amount; a negative repay takes reserve out again, and
        # the fee adjustment credits it.  Unchecked, the second bundle
        # moves 1/10 TOKA from the pool to E, and the third leaves the
        # pool's TOKA reserve at -1/10
        world = basic_world("E")
        world.add_pool(make_pool("pool", Fraction(100), Fraction(100),
                                 fee_bps))
        before = snapshot(world)
        with pytest.raises(EngineError, match="must be positive"):
            execute_bundle(world, [
                FlashSwapBorrow("pool", "E", TOKA, borrow),
                FlashSwapRepay("pool", "E", TOKA, repay)], "E")
        assert snapshot(world) == before

    @pytest.mark.parametrize("action", [
        Swap("E", "pool", TOKA, Fraction(3, 2), "E"),
        Swap("E", "pool", TOKA, 2.0, "E"),
        Transfer("E", "B", TOKA, Fraction(1, 2)),
        FlashSwapBorrow("pool", "E", TOKB, True)])
    def test_integer_mode_refuses_non_int_amounts(self, action):
        # the pool floors a fractional input to whole units while the
        # caller is charged all of it: 3/2 TOKA in took 1/2 out of supply
        world = basic_world("E", "B", mode=NumericMode.INTEGER)
        world.add_pool(make_pool("pool", 1000, 1000, 30, NumericMode.INTEGER))
        world.set_balance("E", TOKA, 10)
        before = snapshot(world)
        with pytest.raises(EngineError, match="must be ints"):
            execute_bundle(world, [action], "E")
        assert snapshot(world) == before
        assert world.total_supply(TOKA) == 1010

    @pytest.mark.parametrize("action", [
        Swap("E", "nopool", TOKA, Fraction(1), "E"),
        FlashSwapBorrow("nopool", "E", TOKA, Fraction(1)),
        FlashSwapRepay("nopool", "E", TOKA, Fraction(1))])
    def test_unknown_pool_is_an_engine_error(self, action):
        world = basic_world("E")
        world.set_balance("E", TOKA, Fraction(10))
        with pytest.raises(EngineError, match="no pool 'nopool'"):
            execute_bundle(world, [action], "E")

    def test_transfer_from_needs_allowance(self):
        world = basic_world("P", "O")
        world.set_balance("P", TOKA, Fraction(10))
        with pytest.raises(InsufficientAllowance):
            execute_bundle(
                world,
                [TransferFrom("P", "O", "O", TOKA, Fraction(5))], "O")
        world.approve("P", "O", TOKA, Fraction(5))
        after, _ = execute_bundle(
            world, [TransferFrom("P", "O", "O", TOKA, Fraction(5))], "O")
        assert after.balance("O", TOKA) == 5
        assert after.allowance("P", "O", TOKA) == 0

    def test_flash_repay_without_debt_is_refused(self):
        world = basic_world("F", "O")
        world.set_balance("O", TOKA, Fraction(10))
        before = snapshot(world)
        with pytest.raises(EngineError, match="no flash debt"):
            execute_bundle(world, [FlashRepay("O", "F", TOKA, Fraction(5))],
                           "O")
        assert snapshot(world) == before

    def test_copy_shares_no_dict(self):
        world = basic_world("P")
        world.set_balance("P", TOKA, Fraction(10))
        copy = world.copy()
        copy.set_balance("P", TOKA, Fraction(3))
        copy.add_address(Address("Q"))
        assert world.balance("P", TOKA) == 10 and "Q" not in world.addresses
        for name in WorldState.__slots__[1:]:
            assert getattr(copy, name) is not getattr(world, name)

    def test_duplicate_address_id_is_refused(self):
        world = basic_world("P")
        with pytest.raises(ValueError, match="duplicate address id P"):
            world.add_address(Address("P", "Principal"))
        assert world.addresses["P"] == Address("P")

    @pytest.mark.parametrize("action, message", [
        (Transfer("P", "B", TOKA, Fraction(0)), "must be positive"),
        (Transfer("P", "B", TOKA, True), "must be ints"),
        (Transfer("P", "B", TOKA, "3"), "must be ints"),
        (Swap("P", "pool", TOKA, 0.5, "P"), "must be ints")])
    def test_rational_mode_refuses_non_amounts(self, action, message):
        # a float swap used to leave float reserves 100.5 / 99.502...
        world = basic_world("P", "B")
        world.add_pool(make_pool("pool", Fraction(100), Fraction(100)))
        world.set_balance("P", TOKA, Fraction(10))
        before = snapshot(world)
        with pytest.raises(EngineError, match=message):
            execute_bundle(world, [action], "P")
        assert snapshot(world) == before

    def test_swap_moves_value_through_pool(self):
        world = basic_world("T")
        pool = PoolState("pool", TOKA, TOKB, Fraction(100), Fraction(100))
        world.add_pool(pool)
        world.set_balance("T", TOKA, Fraction(10))
        after, trace = execute_bundle(
            world, [Swap("T", "pool", TOKA, Fraction(10), "T")], "T")
        assert after.balance("T", TOKB) == Fraction(1000, 110)
        assert after.pools["pool"].reserve0 == 110
        assert [(e.src, e.dst) for e in trace.events] == \
            [("T", "pool"), ("pool", "T")]


class TestFillLimitOrder:
    def order(self, receiver):
        return LimitOrderIntent(maker="P", maker_asset=TOKA,
                                taker_asset=TOKB,
                                making_amount=Fraction(100),
                                taking_amount=Fraction(99),
                                receiver=receiver, settlement="settlement")

    def world(self):
        world = basic_world("P", "E", "B", "settlement")
        world.set_balance("P", TOKA, Fraction(100))
        world.set_balance("E", TOKB, Fraction(99))
        world.approve("P", "settlement", TOKA, Fraction(100))
        return world

    def test_receiver_is_maker(self):
        world = self.world()
        order = self.order("P")
        after, trace = execute_bundle(
            world, [FillLimitOrder(order, "E", Fraction(100))], "E")
        deltas = net_deltas(trace)
        assert deltas[("P", "TOKA")] == -100
        assert deltas[("P", "TOKB")] == 99

    def test_receiver_decoupled(self):
        world = self.world()
        order = self.order("B")
        after, trace = execute_bundle(
            world, [FillLimitOrder(order, "E", Fraction(100))], "E")
        deltas = net_deltas(trace)
        assert deltas[("P", "TOKA")] == -100
        assert deltas[("B", "TOKB")] == 99
        assert not any(e.src == "P" and e.dst == "B" for e in trace.events)

    def test_settlement_routing_flag(self):
        world = self.world()
        order = self.order("B")
        assert order.route_via_settlement
        _, routed = execute_bundle(
            world, [FillLimitOrder(order, "E", Fraction(100))], "E")
        _, direct = execute_bundle(
            world, [FillLimitOrder(order._replace(route_via_settlement=False),
                                   "E", Fraction(100))], "E")
        assert any(e.dst == "settlement" for e in routed.events)
        assert not any(e.dst == "settlement" for e in direct.events)
        nz = lambda t: {k: v for k, v in net_deltas(t).items() if v != 0}
        assert nz(routed) == nz(direct)

    def test_each_fill_routes_as_its_order_says(self):
        # a routed and a direct fill in one bundle: the routing is the
        # order's, so no bundle-wide setting decides it
        routed = self.order("B")
        direct = routed._replace(route_via_settlement=False)
        _, trace = execute_bundle(self.world(), [
            FillLimitOrder(routed, "E", Fraction(50)),
            FillLimitOrder(direct, "E", Fraction(50))], "E")
        assert [(e.action_index, e.src, e.dst) for e in trace.events
                if e.asset == TOKA] == [(0, "P", "settlement"),
                                        (0, "settlement", "E"),
                                        (1, "P", "E")]
        deltas = net_deltas(trace)
        assert (deltas[("P", "TOKA")], deltas[("B", "TOKB")]) == (-100, 99)

    def test_overfill(self):
        world = self.world()
        order = self.order("B")
        with pytest.raises(Overfill):
            execute_bundle(
                world, [FillLimitOrder(order, "E", Fraction(101))], "E")

    def test_fill_needs_maker_allowance(self):
        world = self.world()
        world.approve("P", "settlement", TOKA, Fraction(99))
        before = snapshot(world)
        with pytest.raises(InsufficientAllowance, match="allowance 99 < 100"):
            execute_bundle(
                world, [FillLimitOrder(self.order("B"), "E", Fraction(100))],
                "E")
        assert snapshot(world) == before

    def test_rational_fill_of_int_amounts_is_exact(self):
        # 2 of a 3 -> 7 order costs the taker exactly 14/3, not a float
        world = basic_world("P", "E", "B", "settlement")
        world.set_balance("P", TOKA, 3)
        world.set_balance("E", TOKB, 7)
        world.approve("P", "settlement", TOKA, 3)
        order = LimitOrderIntent(maker="P", maker_asset=TOKA,
                                 taker_asset=TOKB, making_amount=3,
                                 taking_amount=7, receiver="B",
                                 settlement="settlement")
        after, trace = execute_bundle(
            world, [FillLimitOrder(order, "E", 2)], "E")
        amounts = [e.amount for e in trace.events]
        assert amounts == [Fraction(14, 3), 2, 2]
        assert after.balance("E", TOKB) == Fraction(7, 3)
        assert after.balance("B", TOKB) == Fraction(14, 3)
        assert after.balance("P", TOKA) == 1
        assert after.balance("E", TOKA) == 2
        assert not any(isinstance(v, float)
                       for v in [*amounts, *after.balances.values()])


def random_case(rng):
    world = basic_world("a0", "a1", "a2")
    pool = PoolState("pool", TOKA, TOKB,
                     Fraction(rng.randint(50, 500)),
                     Fraction(rng.randint(50, 500)))
    world.add_pool(pool)
    for aid in ("a0", "a1", "a2"):
        world.set_balance(aid, TOKA, Fraction(rng.randint(0, 100)))
        world.set_balance(aid, TOKB, Fraction(rng.randint(0, 100)))
    world.set_balance("flashsrc", TOKA, Fraction(1000))
    world.add_address(Address("flashsrc", "FlashProvider"))

    bundle = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(4)
        src = rng.choice(("a0", "a1", "a2"))
        dst = rng.choice(("a0", "a1", "a2"))
        asset = rng.choice((TOKA, TOKB))
        amount = Fraction(rng.randint(1, 120))
        if kind == 0 and src != dst:
            bundle.append(Transfer(src, dst, asset, amount))
        elif kind == 1:
            bundle.append(Swap(src, "pool", asset, amount, dst))
        elif kind == 2:
            bundle.append(FlashBorrow("flashsrc", src, TOKA, amount))
            if rng.random() < 0.8:  # sometimes leave the debt open
                bundle.append(FlashRepay(src, "flashsrc", TOKA, amount))
        else:
            bundle.append(Transfer(src, dst if dst != src else "a0", asset,
                                   Fraction(rng.randint(500, 900))))
    if not bundle:
        bundle = [Transfer("a0", "a1", TOKA, Fraction(1))]
    return world, bundle


def test_randomized_atomicity_and_conservation():
    rng = random.Random(23)
    successes = 0
    for _ in range(1000):
        world, bundle = random_case(rng)
        before = snapshot(world)
        try:
            after, trace = execute_bundle(world, bundle, "a0")
        except EngineError:
            assert snapshot(world) == before
            continue
        successes += 1
        assert snapshot(world) == before  # input world never mutated
        deltas = net_deltas(trace)
        for asset in (TOKA, TOKB):
            total = sum(v for (_, sym), v in deltas.items()
                        if sym == asset.symbol)
            assert total == 0
            assert world.total_supply(asset) == after.total_supply(asset)
        # trace/state agreement for plain balances
        for (aid, sym), delta in deltas.items():
            if aid in after.pools:
                continue
            asset = TOKA if sym == "TOKA" else TOKB
            assert after.balance(aid, asset) == \
                world.balance(aid, asset) + delta
    assert successes > 50  # the generator must exercise the happy path


ASSETS = st.sampled_from([TOKA, TOKB])
# non-positive amounts, and positive ones often enough to reach success
AMOUNTS = st.one_of(st.integers(1, 60), st.integers(-150, 150))
LEGS = st.none() | st.tuples(ASSETS, AMOUNTS)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(NumericMode), fee_bps=st.sampled_from([0, 30]),
       swaps=st.lists(st.tuples(ASSETS, AMOUNTS), max_size=3),
       borrow=LEGS, repay=LEGS, at=st.integers(0, 3))
@example(mode=NumericMode.RATIONAL, fee_bps=30, swaps=[],
         borrow=(TOKA, 10), repay=(TOKB, 13), at=0)
@example(mode=NumericMode.INTEGER, fee_bps=30, swaps=[(TOKA, 7)],
         borrow=(TOKB, 20), repay=(TOKA, 30), at=0)
@example(mode=NumericMode.RATIONAL, fee_bps=30, swaps=[],
         borrow=(TOKA, -200000), repay=(TOKA, -200201), at=0)
def test_derived_pool_states_stay_valid(mode, fee_bps, swaps, borrow, repay,
                                        at):
    # swaps, with a flash swap borrowed before swap `at` and repaid at the
    # end, either leg possibly missing, and amounts of any sign: a bundle
    # is refused with the world untouched, or it leaves a valid pool
    world = basic_world("E", mode=mode)
    one = Fraction(1, 2) if mode is NumericMode.RATIONAL else 1
    world.add_pool(make_pool("pool", 100 * one, 100 * one, fee_bps, mode))
    world.set_balance("E", TOKA, 60 * one)
    world.set_balance("E", TOKB, 60 * one)
    bundle = [Swap("E", "pool", asset, n * one, "E") for asset, n in swaps]
    if repay is not None:
        bundle.append(FlashSwapRepay("pool", "E", repay[0], repay[1] * one))
    if borrow is not None:
        bundle.insert(at, FlashSwapBorrow("pool", "E", borrow[0],
                                          borrow[1] * one))
    before = snapshot(world)
    try:
        after, trace = execute_bundle(world, bundle, "E")
    except EngineError:
        assert snapshot(world) == before
        return
    assert snapshot(world) == before
    pool = after.pools["pool"]
    assert pool.reserve0 > 0 and pool.reserve1 > 0
    assert pool.k >= world.pools["pool"].k
    for asset in (TOKA, TOKB):
        assert after.total_supply(asset) == world.total_supply(asset)
    assert all(ev.amount >= 0 for ev in trace.events)


TOKC = AssetId("TOKC", 18)


@pytest.mark.parametrize("action", [
    Swap("O", "pool1", TOKC, 1, "O"),
    FlashSwapBorrow("pool1", "O", TOKC, 1),
    FlashSwapRepay("pool1", "O", TOKC, 1),
    Swap("O", "pool1", TOKA, 0, "O"),
    Swap("O", "pool1", TOKA, -1, "O")])
def test_malformed_pool_actions_are_engine_errors(action):
    # an asset the pool does not trade, or a swap amount that is not
    # positive, is refused by the engine rather than escaping from the
    # pool math as an AmmError
    world = library()["relocation_sym_zero_fee"]().world
    before = snapshot(world)
    with pytest.raises(EngineError):
        execute_bundle(world, [action], "O")
    assert snapshot(world) == before


def test_an_action_of_no_known_type_is_an_engine_error():
    world = library()["relocation_sym_zero_fee"]().world
    with pytest.raises(EngineError, match="unknown action str"):
        execute_bundle(world, ["transfer"], "O")


def test_insufficient_balance_rolls_back_mid_bundle():
    world = basic_world("a", "b")
    world.set_balance("a", TOKA, Fraction(10))
    before = snapshot(world)
    bundle = [Transfer("a", "b", TOKA, Fraction(10)),
              Transfer("a", "b", TOKA, Fraction(1))]
    with pytest.raises(InsufficientBalance):
        execute_bundle(world, bundle, "a")
    assert snapshot(world) == before


ROOT3 = QuadExact(1, 1, 3)


@pytest.mark.parametrize("bundle", [
    [Transfer("a", "b", TOKA, ROOT3)],
    [Swap("a", "pool", TOKA, ROOT3, "a")],
    # the rational debit passes; the repay meets Q(sqrt 2) reserves
    [FlashSwapBorrow("pool", "a", TOKB, QuadExact(1)),
     FlashSwapRepay("pool", "a", TOKB, ROOT3)]],
    ids=["transfer", "swap", "flash_swap_repay"])
def test_amounts_of_two_quadratic_fields_are_an_engine_error(bundle):
    # each amount passes the gate, which reads its type alone; the step
    # then meets a Q(sqrt 2) balance or reserve that no field shares
    world = basic_world("a", "b")
    world.set_balance("a", TOKA, QuadExact(10, 1, 2))
    world.set_balance("a", TOKB, QuadExact(100))
    world.add_pool(PoolState("pool", TOKA, TOKB, QuadExact(100, 1, 2),
                             QuadExact(100, 1, 2)))
    before = snapshot(world)
    message = f"amounts of two quadratic fields meet in {bundle[-1]}"
    with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
        execute_bundle(world, bundle, "a")
    assert snapshot(world) == before



class TestTraceSerialization:
    def build_trace(self):
        from ammflow.scenarios import build_relocation_scenario
        run = build_relocation_scenario(name="golden")
        _, trace = run.execute()
        return trace, run.world.mode

    def test_round_trip(self):
        trace, mode = self.build_trace()
        data = json.loads(trace_to_json(trace, mode))
        rebuilt = trace_from_dict(data)
        assert trace_to_dict(rebuilt, mode) == trace_to_dict(trace, mode)
        for original, parsed in zip(trace.events, rebuilt.events):
            assert parsed.amount == original.amount

    def test_event_field_order_stable(self):
        trace, mode = self.build_trace()
        event = trace_to_dict(trace, mode)["events"][0]
        assert list(event) == ["seq", "from", "to", "asset", "amount",
                               "action_index", "bundle_id"]

    def test_golden_file(self):
        trace, mode = self.build_trace()
        assert trace_to_json(trace, mode) == GOLDEN.read_text()


FUNDS = 3  # each address's starting balance of each asset


def small_scope_alphabet():
    """Every action over two integer pools of a few units, the addresses
    P, O and the flash provider F, and amounts 1, 2 and 3."""
    assets, amounts, pools = (TOKA, TOKB), (1, 2, 3), ("p1", "p2")
    legs = [(asset, n) for asset in assets for n in amounts]
    return (
        [Transfer(src, dst, asset, n) for src, dst in (("P", "O"), ("O", "F"))
         for asset, n in legs]
        + [Swap("O", pool, asset, n, "O") for pool in pools
           for asset, n in legs]
        + [FlashBorrow("F", "O", asset, n) for asset, n in legs]
        + [FlashRepay("O", "F", asset, n) for asset, n in legs]
        + [kind(pool, "O", asset, n) for kind in (FlashSwapBorrow,
                                                   FlashSwapRepay)
           for pool in pools for asset, n in legs])


def test_every_small_bundle_keeps_the_engine_invariants():
    """Small-scope exhaustive check (Jackson, Software Abstractions, 2006):
    each bundle of up to 3 actions of `small_scope_alphabet` is refused by
    an EngineError with the world untouched, or it is accepted with each
    asset's supply conserved, no pool's k below its k before, no balance
    negative, and the flash provider no poorer."""
    world = WorldState(NumericMode.INTEGER)
    for aid, label in (("P", "Principal"), ("O", "Operator"),
                       ("F", "FlashProvider")):
        world.add_address(Address(aid, label))
        for asset in (TOKA, TOKB):
            world.set_balance(aid, asset, FUNDS)
    world.add_pool(make_pool("p1", 4, 5, 0, NumericMode.INTEGER))
    world.add_pool(make_pool("p2", 6, 3, 30, NumericMode.INTEGER))
    before = snapshot(world)
    supply = [world.total_supply(asset) for asset in (TOKA, TOKB)]
    k_before = {pid: pool.k for pid, pool in world.pools.items()}
    alphabet = small_scope_alphabet()
    accepted = 0
    for size in (1, 2, 3):
        for bundle in itertools.product(alphabet, repeat=size):
            try:
                after, _ = execute_bundle(world, list(bundle), "O")
            except EngineError:
                continue
            finally:  # compared in place, without a snapshot per bundle
                assert (world.balances, world.pools,
                        world.allowances) == before, bundle
            accepted += 1
            assert [after.total_supply(asset)
                    for asset in (TOKA, TOKB)] == supply, bundle
            assert all(after.pools[pid].k >= k
                       for pid, k in k_before.items()), bundle
            assert all(after.balance("F", asset) >= FUNDS
                       for asset in (TOKA, TOKB)), bundle
            assert all(v >= 0 for v in after.balances.values()), bundle
    assert accepted > 10_000  # of 219,660 bundles: the happy path is hit
