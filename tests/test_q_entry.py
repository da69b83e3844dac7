"""Rational amounts enter Q where they enter the state.

A Fraction a caller passes as a pool reserve, a balance, an allowance or
a planner input is stored as the equal element of Q, so plan and execute
never run Fraction's operator fallback against a QuadExact, and every
output reads as it did when the Fraction was kept.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ammflow import numeric
from ammflow.amm import NumericMode
from ammflow.engine import (Address, WorldState, execute_bundle,
                            trace_to_json)
from ammflow.numeric import QuadExact
from ammflow.planner import build_relocation_bundle, plan_relocation
from conftest import TOKA, TOKB, make_pool

RATIONAL = NumericMode.RATIONAL
# Fraction's binary operators, each of which falls back (its isinstance
# tests, then NotImplemented) when the other operand is a QuadExact
FRACTION_OPERATORS = [
    f"__{r}{name}__" for name in ("add", "sub", "mul", "truediv",
                                  "floordiv", "mod", "divmod", "pow")
    for r in ("", "r")] + ["__eq__", "__lt__", "__le__", "__gt__", "__ge__"]


def in_q(value):
    return type(value) is QuadExact and value.b == 0 \
        and value.field is numeric._Q


def relocation_world(pool1, pool2, a):
    """P funds O's relocation of `a` of TOKA; flash covers any x."""
    world = WorldState(RATIONAL)
    for aid, label in (("P", "Principal"), ("B", "Beneficiary"),
                       ("O", "Operator"), ("flash", "FlashProvider")):
        world.add_address(Address(aid, label))
    world.add_pool(pool1)
    world.add_pool(pool2)
    world.set_balance("P", TOKA, a)
    world.set_balance("flash", TOKA, pool1.reserve0 + pool2.reserve0)
    world.approve("P", "O", TOKA, a)
    return world


def relocate(pool1, pool2, a, world):
    plan = plan_relocation(pool1, pool2, TOKA, "P", "B", "O", a)
    after, trace = execute_bundle(
        world, build_relocation_bundle(plan, pool1, pool2), "O")
    return plan, after, trace


@pytest.fixture
def fallbacks(monkeypatch):
    """Calls of a Fraction operator whose other operand is a QuadExact,
    from here on: a list of operator names."""
    calls = []

    def counted(name, real):
        def operator(self, other):
            if type(other) is QuadExact:
                calls.append(name)
            return real(self, other)
        return operator

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name,
                            counted(name, getattr(Fraction, name)))
    assert Fraction(1) + QuadExact(1) == 2  # the counter sees a fallback
    assert calls == ["__add__"]
    calls.clear()
    return calls


def sweep_items(seed, count):
    """Relocations as acceptance criterion 1 draws them, from Fractions:
    reserves 50-5000, a at most a tenth of pool 1's TOKA."""
    rng = random.Random(seed)
    for _ in range(count):
        r = [Fraction(rng.randint(50, 5000)) for _ in range(4)]
        a = Fraction(rng.randint(1, int(r[0]) // 10))
        pool1, pool2 = make_pool("pool1", r[0], r[1]), \
            make_pool("pool2", r[2], r[3])
        yield pool1, pool2, a, relocation_world(pool1, pool2, a)


def test_plan_and_execute_run_no_fraction_fallback(fallbacks):
    counts = []
    for pool1, pool2, a, world in sweep_items(1, 20):
        fallbacks.clear()  # building the world is not counted
        relocate(pool1, pool2, a, world)
        counts.append(len(fallbacks))
    assert counts == [0] * 20, fallbacks
    fallbacks.clear()
    for pool1, pool2, a, world in sweep_items(1, 20):
        relocate(pool1, pool2, a, world)
    assert fallbacks == []  # the count repeats


def test_fractions_enter_q_where_they_enter():
    pool = make_pool("pool1", Fraction(3, 2), Fraction(10))
    assert in_q(pool.reserve0) and in_q(pool.reserve1)
    assert str(pool.reserve0) == "3/2" and pool.reserve0 == Fraction(3, 2)
    assert in_q(dataclasses.replace(pool, reserve0=Fraction(5)).reserve0)
    copy = pool.with_reserves(TOKB, Fraction(7, 3), Fraction(2))
    assert in_q(copy.reserve0) and in_q(copy.reserve1)
    world = WorldState(RATIONAL)
    world.set_balance("P", TOKA, Fraction(7, 3))
    world.approve("P", "O", TOKA, Fraction(5))
    assert in_q(world.balance("P", TOKA))
    assert in_q(world.allowance("P", "O", TOKA))
    pool2 = make_pool("pool2", Fraction(2), Fraction(9))
    plan = plan_relocation(pool, pool2, TOKA, "P", "B", "O", Fraction(1, 10),
                           target=Fraction(0))
    assert in_q(plan.a)


def test_ints_and_integer_mode_stay_as_they_are():
    pool = make_pool("pool1", 100, Fraction(100))
    assert type(pool.reserve0) is int and in_q(pool.reserve1)
    integer = make_pool("pool1", 10 ** 20, 10 ** 20, 30, NumericMode.INTEGER)
    assert type(integer.reserve0) is int
    with pytest.raises(ValueError, match="positive integer amounts"):
        make_pool("pool1", Fraction(100), 100, 0, NumericMode.INTEGER)
    world = WorldState(NumericMode.INTEGER)
    world.set_balance("P", TOKA, 10)
    assert type(world.balance("P", TOKA)) is int


@settings(max_examples=200, deadline=None)
@given(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6))
def test_int_of_an_element_of_q_is_the_fractions(value):
    assert int(QuadExact(value)) == int(value)


def test_int_of_an_irrational_element_raises():
    with pytest.raises(TypeError, match="irrational"):
        int(QuadExact(1, 1, 2))


AMOUNTS = st.fractions(50, 5000, max_denominator=1000)


@settings(max_examples=60, deadline=None)
@given(st.lists(AMOUNTS, min_size=4, max_size=4),
       st.fractions(Fraction(1, 1000), 1, max_denominator=1000))
def test_fraction_and_q_inputs_give_identical_outputs(reserves, share):
    """One zero-fee relocation, built once from Fractions and once from
    the equal elements of Q, writes the same plan, trace and pools."""
    outputs = []
    for convert in (Fraction, QuadExact):
        r = [convert(value) for value in reserves]
        a = convert(reserves[0] * share / 10)
        pool1, pool2 = make_pool("pool1", r[0], r[1]), \
            make_pool("pool2", r[2], r[3])
        plan, after, trace = relocate(pool1, pool2, a,
                                      relocation_world(pool1, pool2, a))
        outputs.append((plan.to_dict(), repr(plan),
                        trace_to_json(trace, RATIONAL),
                        [repr(p) for p in after.pools.values()]))
    assert outputs[0] == outputs[1]
