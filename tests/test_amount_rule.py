"""The one amount rule, `amm.is_amount`, held where amounts enter.

An amount of integer mode is an int; one of rational mode is an int, a
Fraction or a QuadExact.  `PoolState` refuses any other reserve, a
world's setters any other balance or allowance, and the engine any other
action amount, or a non-positive one, before the action touches the
world.  Pricing trusts the rule and coerces nothing.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ammflow import amm, planner
from ammflow.amm import NumericMode, is_amount
from ammflow.engine import (Address, EngineError, FillLimitOrder,
                            FlashBorrow, FlashRepay, FlashSwapBorrow,
                            FlashSwapRepay, LimitOrderIntent, Swap, Transfer,
                            TransferFrom, WorldState, execute_bundle)
from ammflow.numeric import QuadExact
from ammflow.planner import PlannerError, plan_relocation
from conftest import TOKA, TOKB, make_pool
from test_golden import seeded_plan_inputs

INTEGER, RATIONAL = NumericMode.INTEGER, NumericMode.RATIONAL
ORDER_FIELDS = ("making_amount", "taking_amount")


@pytest.mark.parametrize("value, integer, rational", [
    (5, True, True), (Fraction(5), False, True),
    (QuadExact(5), False, True), (QuadExact(1, 1, 2), False, True),
    (True, False, False), (5.0, False, False), ("5", False, False),
    (None, False, False)])
def test_the_rule(value, integer, rational):
    assert is_amount(value, INTEGER) is integer
    assert is_amount(value, RATIONAL) is rational


def world_of(mode):
    world = WorldState(mode)
    for aid in ("P", "B", "O", "F", "S"):
        world.add_address(Address(aid))
    world.add_pool(make_pool("pool", 1000, 1000, 30, mode))
    for aid, asset in itertools.product(("P", "B", "F"), (TOKA, TOKB)):
        world.set_balance(aid, asset, 100)
    world.approve("P", "O", TOKA, 100)
    world.approve("P", "S", TOKA, 100)
    return world


def snapshot(world):
    return (dict(world.balances), dict(world.pools), dict(world.allowances))


ORDER = LimitOrderIntent("P", TOKA, TOKB, 10, 10, "P", "S")

# each action kind as (bundle, index of the action, its amount fields):
# a bundle that executes in both modes with these amounts, the kind
# after what opens the debt it closes or before what closes its debt
FLASH = [FlashBorrow("F", "P", TOKA, 5), FlashRepay("P", "F", TOKA, 5)]
FLASH_SWAP = [FlashSwapBorrow("pool", "P", TOKB, 5),
              FlashSwapRepay("pool", "P", TOKA, 6)]
KINDS = {
    "Transfer": ([Transfer("P", "B", TOKA, 5)], 0, ("amount",)),
    "TransferFrom": ([TransferFrom("P", "O", "B", TOKA, 5)], 0,
                     ("amount",)),
    "Swap": ([Swap("P", "pool", TOKA, 5, "P")], 0, ("amount_in",)),
    "FlashBorrow": (FLASH, 0, ("amount",)),
    "FlashRepay": (FLASH, 1, ("amount",)),
    "FlashSwapBorrow": (FLASH_SWAP, 0, ("amount",)),
    "FlashSwapRepay": (FLASH_SWAP, 1, ("amount",)),
    "FillLimitOrder": ([FillLimitOrder(ORDER, "B", 5)], 0,
                       ("fill_amount", *ORDER_FIELDS)),
}


def with_amount(act, field, value):
    if field in ORDER_FIELDS:
        return act._replace(order=act.order._replace(**{field: value}))
    return act._replace(**{field: value})


@pytest.mark.parametrize("mode", list(NumericMode))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_executes_with_good_amounts(kind, mode):
    bundle, _, _ = KINDS[kind]
    execute_bundle(world_of(mode), bundle, "P")


def bad_amounts(mode):
    """Values that are no positive amount of mode."""
    bad = [st.floats(), st.booleans(), st.text(max_size=3), st.none(),
           st.integers(max_value=0), st.fractions(max_value=0),
           st.fractions(max_value=0).map(QuadExact)]
    if mode is INTEGER:
        bad += [st.fractions(), st.fractions().map(QuadExact)]
    return st.one_of(bad)


@given(st.sampled_from(sorted(KINDS)), st.sampled_from(list(NumericMode)),
       st.data())
def test_a_bad_amount_is_refused_at_entry(kind, mode, data):
    bundle, index, fields = KINDS[kind]
    field = data.draw(st.sampled_from(fields))
    bad = data.draw(bad_amounts(mode))
    bundle = list(bundle)
    try:
        bundle[index] = with_amount(bundle[index], field, bad)
    except ValueError:
        # the order record refuses a non-positive amount or a non-amount
        # as it is built, so no fill carries one
        assert field in ORDER_FIELDS
        return
    world = world_of(mode)
    before = snapshot(world)
    with pytest.raises(EngineError, match="must be ints|must be positive"):
        execute_bundle(world, bundle, "P")
    assert snapshot(world) == before


@pytest.mark.parametrize("mode", list(NumericMode))
def test_balances_and_allowances_obey_the_rule(mode):
    world = world_of(mode)
    before = snapshot(world)
    bad = [10.0, 0.0, True, "1", None, -1, Fraction(-1)]
    if mode is INTEGER:
        bad += [Fraction(1), QuadExact(1)]
    for value in bad:
        with pytest.raises(ValueError, match=f"no {mode.value} amount"):
            world.set_balance("P", TOKA, value)
        with pytest.raises(ValueError, match=f"no {mode.value} amount"):
            world.approve("P", "O", TOKA, value)
    assert snapshot(world) == before
    world.set_balance("P", TOKA, 0)
    world.approve("P", "O", TOKA, 0)


@pytest.mark.parametrize("mode", list(NumericMode))
def test_a_world_refuses_a_pool_of_the_other_mode(mode):
    world = world_of(mode)
    before = snapshot(world)
    other, reserve = (RATIONAL, Fraction(100)) if mode is INTEGER \
        else (INTEGER, 100)
    with pytest.raises(ValueError, match=f"no {mode.value} pool"):
        world.add_pool(make_pool("pool2", reserve, reserve, 0, other))
    assert snapshot(world) == before and "pool2" not in world.addresses


@pytest.mark.parametrize("mode, reserve", [
    (INTEGER, True), (INTEGER, 1000.0), (INTEGER, Fraction(1000)),
    (INTEGER, QuadExact(1000)), (RATIONAL, True), (RATIONAL, 1000.0),
    (RATIONAL, "1000")])
def test_pool_state_refuses_non_amount_reserves(mode, reserve):
    with pytest.raises(ValueError, match=f"positive {mode.value} amounts"):
        make_pool("p", 1000, reserve, 30, mode)
    with pytest.raises(ValueError, match=f"positive {mode.value} amounts"):
        make_pool("p", reserve, 1000, 30, mode)


def test_the_planner_quotes_integer_pools_in_ints(monkeypatch):
    """Pricing does not floor its inputs, so every amount the planner
    hands it for an integer pool must already be an int: checked over
    the 200 integer inputs of the seeded planner digest."""
    seen = []
    price, solve = amm._price, planner.solve_input_for_output

    def spy_price(pool, asset, amount):
        seen.append(type(amount))
        return price(pool, asset, amount)

    def spy_solve(pool, asset, amount):
        seen.append(type(amount))
        return solve(pool, asset, amount)

    monkeypatch.setattr(amm, "_price", spy_price)
    monkeypatch.setattr(planner, "solve_input_for_output", spy_solve)
    for pool1, pool2, asset, a, target in itertools.islice(
            seeded_plan_inputs(), 200):
        assert pool1.mode is INTEGER
        try:
            plan_relocation(pool1, pool2, asset, "P", "B", "O", a,
                            target=target)
        except PlannerError:
            pass
    assert len(seen) > 10_000
    assert set(seen) == {int}
