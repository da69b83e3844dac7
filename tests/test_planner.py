import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ammflow import planner
from ammflow.amm import (BPS_DENOM, AssetId, NumericMode, PoolState,
                         swap_exact_in)
from ammflow.engine import (Address, WorldState, execute_bundle, net_deltas)
from ammflow.numeric import make_exact, solve_quadratic
from ammflow.planner import (ExtractionStyle, FundingPolicy, NoPositiveRoot,
                             PlannerError, TargetExceedsMaxProfit,
                             argmax_extraction_int, build_relocation_bundle,
                             dislocation_output, extraction_result,
                             max_extractable, plan_relocation,
                             solve_extraction, solve_flash_amount)
from conftest import TOKA, TOKB, make_pool


def eq4_residual(pool1, pool2, x, a):
    """Consistency condition: the phase-1 loop repays the flash amount."""
    r_a1, r_b1 = pool1.reserve0, pool1.reserve1
    r_a2, r_b2 = pool2.reserve0, pool2.reserve1
    return r_b1 * (x + a) * (r_a2 - x) - r_b2 * x * (r_a1 + x + a)


class TestSolveFlashAmount:
    def test_sym_fixture_closed_form(self, sym_pools):
        x = solve_flash_amount(*sym_pools, TOKA, Fraction(10))
        # reduces to x^2 + 10x - 500 = 0, exact root (-10 + sqrt(2100)) / 2
        assert x * x + 10 * x - 500 == 0
        assert x == make_exact(-5, Fraction(1, 2), 2100)
        assert abs(float(x) - 17.912878) < 1e-6
        assert eq4_residual(*sym_pools, x, Fraction(10)) == 0

    def test_loop_repays_exactly(self, sym_pools):
        x = solve_flash_amount(*sym_pools, TOKA, Fraction(10))
        assert dislocation_output(*sym_pools, TOKA, Fraction(10), x) == x

    def test_small_principal_gives_small_x(self, sym_pools):
        # x shrinks like sqrt(a * r_A2 / 2) as a -> 0
        x_small = solve_flash_amount(*sym_pools, TOKA, Fraction(1, 10**6))
        assert 0 < float(x_small) < 1e-2

    def test_homogeneity(self, sym_pools):
        rng = random.Random(3)
        a = Fraction(10)
        x = solve_flash_amount(*sym_pools, TOKA, a)
        for _ in range(20):
            c = Fraction(rng.randint(1, 500), rng.randint(1, 50))
            scaled = tuple(
                make_pool(p.pool_id, p.reserve0 * c, p.reserve1 * c)
                for p in sym_pools)
            assert solve_flash_amount(*scaled, TOKA, a * c) == x * c

    def test_rejects_non_positive_principal(self, sym_pools):
        with pytest.raises(PlannerError):
            solve_flash_amount(*sym_pools, TOKA, Fraction(0))

    def test_unequal_fees_loop_repays_exactly(self):
        rng = random.Random(7)
        for _ in range(30):
            f1, f2 = rng.sample([0, 5, 30, 100], 2)
            pool1 = make_pool("pool1", Fraction(rng.randint(50, 5000)),
                              Fraction(rng.randint(50, 5000)), f1)
            pool2 = make_pool("pool2", Fraction(rng.randint(50, 5000)),
                              Fraction(rng.randint(50, 5000)), f2)
            a = Fraction(rng.randint(1, int(pool1.reserve0) // 10))
            x = solve_flash_amount(pool1, pool2, TOKA, a)
            assert x > 0
            assert dislocation_output(pool1, pool2, TOKA, a, x) == x

    def test_integer_mode_within_one_unit(self):
        pool1 = PoolState("pool1", TOKA, TOKB, 100 * 10**18, 100 * 10**18,
                          0, NumericMode.INTEGER)
        pool2 = PoolState("pool2", TOKA, TOKB, 100 * 10**18, 100 * 10**18,
                          0, NumericMode.INTEGER)
        a = 10 * 10**18
        x = solve_flash_amount(pool1, pool2, TOKA, a)
        assert dislocation_output(pool1, pool2, TOKA, a, x) >= x
        assert dislocation_output(pool1, pool2, TOKA, a, x + 1) < x + 1
        assert abs(x / 10**18 - 17.912878) < 1e-6


    def test_integer_outcome_repays_or_is_a_planner_error(self):
        # small pools where a + 1 can floor to zero counter units, which
        # once leaked ZeroInput out of the first probe
        pools = [(r_a, r_b) for r_a in range(2, 12) for r_b in range(1, 8)]
        refused = 0
        for r1 in pools:
            pool1 = make_pool("pool1", *r1, 30, NumericMode.INTEGER)
            for r2 in pools:
                pool2 = make_pool("pool2", *r2, 30, NumericMode.INTEGER)
                for a in (1, 2, 3):
                    try:
                        x = solve_flash_amount(pool1, pool2, TOKA, a)
                    except PlannerError:
                        refused += 1
                        continue
                    assert dislocation_output(pool1, pool2, TOKA, a, x) >= x
        assert 0 < refused < len(pools) ** 2 * 3

class TestSolveExtraction:
    def dislocated(self, sym_pools):
        a = Fraction(10)
        x = solve_flash_amount(*sym_pools, TOKA, a)
        b, pool1_after = swap_exact_in(sym_pools[0], TOKA, a + x)
        x_rec, pool2_after = swap_exact_in(sym_pools[1], TOKB, b)
        assert x_rec == x
        return x, b, pool1_after, pool2_after

    def test_zero_fee_double_root_reverses_dislocation(self, sym_pools):
        x, b, pool1_after, pool2_after = self.dislocated(sym_pools)
        y, b_prime = solve_extraction(pool1_after, pool2_after, TOKA,
                                      Fraction(10))
        assert y == x
        assert b_prime == b
        _, out = extraction_result(pool1_after, pool2_after, TOKA, y)
        assert out - y == 10

    def test_zero_target(self, sym_pools):
        _, _, pool1_after, pool2_after = self.dislocated(sym_pools)
        assert solve_extraction(pool1_after, pool2_after, TOKA,
                                Fraction(0)) == (Fraction(0), Fraction(0))

    def test_target_above_optimum_rejected(self, sym_pools):
        _, _, pool1_after, pool2_after = self.dislocated(sym_pools)
        with pytest.raises(TargetExceedsMaxProfit):
            solve_extraction(pool1_after, pool2_after, TOKA, Fraction(11))


class TestMaxExtractable:
    def test_zero_fee_equals_principal(self, sym_pools):
        a = Fraction(10)
        x = solve_flash_amount(*sym_pools, TOKA, a)
        b, pool1_after = swap_exact_in(sym_pools[0], TOKA, a + x)
        _, pool2_after = swap_exact_in(sym_pools[1], TOKB, b)
        assert max_extractable(pool1_after, pool2_after, TOKA) == a

    def test_equal_price_pools_admit_nothing(self, sym_pools):
        assert max_extractable(*sym_pools, TOKA) == 0

    def test_rational_pools_with_unequal_fees(self):
        pool1 = make_pool("pool1", Fraction(100), Fraction(100), 30)
        pool2 = make_pool("pool2", Fraction(100), Fraction(120), 5)
        best = max_extractable(pool1, pool2, TOKA)

        def profit(y):
            _, out = extraction_result(pool1, pool2, TOKA, y)
            return out - y
        grid = max(profit(Fraction(i, 100)) for i in range(1, 2000))
        assert grid <= best < grid + Fraction(1, 1000)


TOKC = AssetId("TOKC")
A_C_POOL = PoolState("pool2", TOKA, TOKC, Fraction(100), Fraction(100))


@pytest.mark.parametrize("call, message", [
    (lambda p1, p2: solve_flash_amount(p1, p2, TOKC, Fraction(1)),
     "both pools must trade the migrated asset"),
    (lambda p1, p2: max_extractable(p1, p2, TOKC),
     "both pools must trade the migrated asset"),
    (lambda p1, p2: solve_flash_amount(p1, A_C_POOL, TOKA, Fraction(1)),
     "pools must trade the same asset pair"),
    (lambda p1, p2: max_extractable(p1, A_C_POOL, TOKA),
     "pools must trade the same asset pair"),
    (lambda p1, p2: solve_extraction(p1, p2, TOKA, Fraction(-1)),
     "extraction target must be non-negative"),
    # equal-price pools: both roots of out(y) - y = 1000 are negative
    (lambda p1, p2: solve_extraction(p1, p2, TOKA, Fraction(1000)),
     "no positive extraction root"),
], ids=["flash_foreign_asset", "optimum_foreign_asset", "flash_other_pair",
        "optimum_other_pair", "extraction_negative_target",
        "extraction_no_positive_root"])
def test_planner_refusals(sym_pools, call, message):
    with pytest.raises(PlannerError, match=message):
        call(*sym_pools)


def int_profit(c1, c2, c3, c4, f1, f2, y):
    """Floored phase-2 profit written out from the swap formula: y into
    pool 2 (c4 asset, c3 counter), b' back through pool 1 (c1, c2)."""
    g1, g2 = BPS_DENOM - f1, BPS_DENOM - f2
    b_prime = y * g2 * c3 // (c4 * BPS_DENOM + y * g2)
    return b_prime * g1 * c1 // (c2 * BPS_DENOM + b_prime * g1) - y


def int_pools(c1, c2, c3, c4, f1=0, f2=0):
    return (make_pool("pool1", c1, c2, f1, NumericMode.INTEGER),
            make_pool("pool2", c4, c3, f2, NumericMode.INTEGER))


class TestIntegerOptimum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(20, 2000), min_size=4, max_size=4),
           st.sampled_from([0, 5, 30, 100]), st.sampled_from([0, 5, 30, 100]))
    def test_within_one_counter_unit_of_brute_force(self, reserves, f1, f2):
        c1, c2, c3, c4 = reserves
        pools = int_pools(c1, c2, c3, c4, f1, f2)
        y = argmax_extraction_int(*pools, TOKA, TOKB)[0]
        got = int_profit(c1, c2, c3, c4, f1, f2, y) if y > 0 else 0
        assert got >= 0
        assert max_extractable(*pools, TOKA) == got
        # profit is below c1 - y, so no y >= c1 can be the maximum
        best = max(int_profit(c1, c2, c3, c4, f1, f2, t)
                   for t in range(c1 + 1))
        slack = Fraction(c1 * (BPS_DENOM - f1), c2 * BPS_DENOM) + 2
        assert best - got <= slack

    @pytest.mark.parametrize("c3", [20, 21])
    def test_borrow_flooring_to_zero_nets_nothing(self, c3):
        # y* is positive but its b' floors to zero counter units
        pools = int_pools(2000, 20, c3, 2000)
        assert argmax_extraction_int(*pools, TOKA, TOKB) == (0, 0)
        assert max_extractable(*pools, TOKA) == 0


class TestIntegerTarget:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(20, 2000), min_size=4, max_size=4),
           st.sampled_from([0, 5, 30, 100]), st.sampled_from([0, 5, 30, 100]),
           st.data())
    def test_least_y_reaching_target(self, reserves, f1, f2, data):
        c1, c2, c3, c4 = reserves
        pools = int_pools(c1, c2, c3, c4, f1, f2)
        best = max_extractable(*pools, TOKA)
        assume(best >= 1)
        target = data.draw(st.integers(1, best))
        y, b_prime = solve_extraction(*pools, TOKA, target)
        # profit is below c1 - y, so the least qualifying y is below c1
        least = next(t for t in range(1, c1)
                     if int_profit(c1, c2, c3, c4, f1, f2, t) >= target)
        assert y == least
        assert b_prime == extraction_result(*pools, TOKA, y)[0]


class TestPlanAndBundle:
    def run_plan(self, pool1, pool2, a, **kwargs):
        plan = plan_relocation(pool1, pool2, TOKA, "P", "B", "O", a,
                               **kwargs)
        world = WorldState(mode=pool1.mode)
        for aid, label in (("P", "Principal"), ("B", "Beneficiary"),
                           ("O", "Operator"), ("flash", "FlashProvider")):
            world.add_address(Address(aid, label))
        world.add_pool(pool1)
        world.add_pool(pool2)
        world.set_balance("P", TOKA, a)
        world.set_balance("flash", TOKA,
                          pool1.reserve_of(TOKA) + pool2.reserve_of(TOKA))
        world.approve("P", "O", TOKA, a)
        bundle = build_relocation_bundle(plan, pool1, pool2)
        after, trace = execute_bundle(world, bundle, "O")
        return plan, world, after, trace

    def test_sym_full_replay_exact(self, sym_pools):
        plan, world, after, trace = self.run_plan(*sym_pools, Fraction(10))
        deltas = net_deltas(trace)
        assert deltas[("P", "TOKA")] == -10
        assert deltas[("B", "TOKA")] == 10
        assert deltas.get(("O", "TOKA"), 0) == 0
        assert deltas.get(("flash", "TOKA"), 0) == 0
        for pid in ("pool1", "pool2"):
            assert after.pools[pid].reserve0 == world.pools[pid].reserve0
            assert after.pools[pid].reserve1 == world.pools[pid].reserve1

    def test_no_direct_principal_to_beneficiary_edge(self, sym_pools):
        _, _, _, trace = self.run_plan(*sym_pools, Fraction(10))
        assert not any(e.src == "P" and e.dst == "B" for e in trace.events)

    def test_random_zero_fee_pairs_exact(self):
        rng = random.Random(31)
        for _ in range(50):
            pool1 = make_pool("pool1", Fraction(rng.randint(50, 5000)),
                              Fraction(rng.randint(50, 5000)))
            pool2 = make_pool("pool2", Fraction(rng.randint(50, 5000)),
                              Fraction(rng.randint(50, 5000)))
            a = Fraction(rng.randint(1, int(pool1.reserve0) // 10))
            plan, world, after, trace = self.run_plan(pool1, pool2, a)
            deltas = net_deltas(trace)
            assert deltas[("P", "TOKA")] == -a
            assert deltas[("B", "TOKA")] == a
            assert after.pools["pool1"].reserve0 == pool1.reserve0
            assert after.pools["pool2"].reserve1 == pool2.reserve1

    def test_solver_replay_agreement(self, sym_pools):
        plan, _, _, trace = self.run_plan(*sym_pools, Fraction(10))
        by_index = {}
        for e in trace.events:
            by_index.setdefault(e.action_index, []).append(e)
        assert plan.predicted_a_prime == net_deltas(trace)[("B", "TOKA")]
        swap1 = by_index[1 if plan.principal == plan.operator else 2]
        assert swap1[0].amount == plan.a + plan.x
        assert swap1[1].amount == plan.b

    def test_plain_swap_extraction_style_nets_identically(self, sym_pools):
        _, _, _, t1 = self.run_plan(*sym_pools, Fraction(10))
        _, _, _, t2 = self.run_plan(
            *sym_pools, Fraction(10),
            extraction_style=ExtractionStyle.PLAIN_SWAP)
        nz = lambda t: {k: v for k, v in net_deltas(t).items() if v != 0}
        assert nz(t1) == nz(t2)

    def test_zero_target_degenerates_to_dislocation_only(self, sym_pools):
        plan, _, after, trace = self.run_plan(*sym_pools, Fraction(10),
                                              target=Fraction(0))
        assert plan.predicted_a_prime == 0
        assert ("B", "TOKA") not in net_deltas(trace)
        # pools stay dislocated: phase 2 never ran
        assert after.pools["pool1"].reserve0 != Fraction(100)

    def test_zero_target_still_covers_flash_shortfall(self):
        # integer 30 bps pools (WETH against a 6-decimal counter near 1403)
        # with an oversized flash amount: the loop leaves a shortfall that
        # the extraction must repay even though nothing is to be delivered
        pool1 = PoolState("pool1", TOKA, TOKB, 4111914272603397778143,
                          5769397031883, 30, NumericMode.INTEGER)
        pool2 = PoolState("pool2", TOKA, TOKB, 233832401659235910865,
                          328043612484, 30, NumericMode.INTEGER)
        a = 15549377870619113110
        x = solve_flash_amount(pool1, pool2, TOKA, a)
        plan, _, _, trace = self.run_plan(pool1, pool2, a, target=0,
                                          x_override=x + x // 10)
        assert plan.shortfall > 0
        assert plan.y > 0
        deltas = net_deltas(trace)
        assert deltas.get(("flash", "TOKA"), 0) == 0
        assert deltas.get(("B", "TOKA"), 0) == plan.predicted_a_prime >= 0

    def test_exact_repay_policy_rejects_shortfall(self):
        pool1 = PoolState("pool1", TOKA, TOKB, 1000 * 10**18, 1000 * 10**18,
                          30, NumericMode.INTEGER)
        pool2 = PoolState("pool2", TOKA, TOKB, 1000 * 10**18, 1000 * 10**18,
                          30, NumericMode.INTEGER)
        a = 10 * 10**18
        with pytest.raises(PlannerError):
            plan_relocation(pool1, pool2, TOKA, "P", "B", "O", a,
                            funding_policy=FundingPolicy.EXACT_REPAY,
                            x_override=int(1.1 * solve_flash_amount(
                                pool1, pool2, TOKA, a)))

    def test_zero_extraction_refuses_flash_shortfall(self):
        # with y = 0 nothing repays the shortfall of an oversized flash
        # amount, so the plan is refused instead of failing in the engine
        pool1 = PoolState("pool1", TOKA, TOKB, 1000 * 10**18, 1000 * 10**18,
                          30, NumericMode.INTEGER)
        pool2 = PoolState("pool2", TOKA, TOKB, 1000 * 10**18, 1000 * 10**18,
                          30, NumericMode.INTEGER)
        a = 10 * 10**18
        x = solve_flash_amount(pool1, pool2, TOKA, a)
        with pytest.raises(PlannerError, match="flash shortfall"):
            plan_relocation(pool1, pool2, TOKA, "P", "B", "O", a,
                            x_override=x + x // 10, y_override=0)

    def test_integer_target_is_delivered(self):
        # 18-decimal asset against a 6-decimal counter near 3000, 30 bps
        pool1 = PoolState("pool1", TOKA, TOKB, 1000 * 10**18,
                          3_000_000 * 10**6, 30, NumericMode.INTEGER)
        pool2 = PoolState("pool2", TOKA, TOKB, 300 * 10**18,
                          903_000 * 10**6, 30, NumericMode.INTEGER)
        a = 10 * 10**18
        best = plan_relocation(pool1, pool2, TOKA, "P", "B", "O", a)
        target = best.predicted_a_prime // 2
        plan, _, _, trace = self.run_plan(pool1, pool2, a, target=target)
        assert target <= plan.predicted_a_prime < best.predicted_a_prime
        assert net_deltas(trace)[("B", "TOKA")] == plan.predicted_a_prime

    def test_fee_monotonicity_of_efficiency(self):
        etas = []
        for fee in (0, 10, 30, 60):
            pool1 = PoolState("pool1", TOKA, TOKB, 1000 * 10**18,
                              1000 * 10**18, fee, NumericMode.INTEGER)
            pool2 = PoolState("pool2", TOKA, TOKB, 1000 * 10**18,
                              1000 * 10**18, fee, NumericMode.INTEGER)
            a = 10 * 10**18
            plan = plan_relocation(pool1, pool2, TOKA, "P", "B", "O", a)
            etas.append(plan.predicted_a_prime / a)
        assert etas[0] == pytest.approx(1.0, abs=1e-9)
        assert all(lo > hi for lo, hi in zip(etas, etas[1:]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(50, 5000), min_size=4, max_size=4), st.data())
def test_zero_fee_modes_agree_within_the_floors(reserves, data):
    """Both modes plan the zero-fee undo y = x', and integer a' falls
    short of the rational a' = a by less than the floors can lose.

    In smallest units, pool 1 holds (P, Q) and pool 2 (R, S), and phase 1
    swaps A = a + x.  Write b = AQ/(P+A) - e1 and x' = bR/(S+b) - e2 with
    e1, e2 in [0, 1).  Paying y = x' back into pool 2 borrows
    b' = b - k, k = ceil(e2 (S+b)/R) <= ceil((S+b)/R), and b' through
    pool 1 returns floor((b-k)(P+A)/(Q-k)), which is A less
    e1 (P+A)/Q + k (P + e1 (P+A)/Q)/(Q-k) and less the floor's own unit.
    So 0 <= A - out < 1 + c + K (P + c)/(Q - K) =: B, with c = (P+A)/Q
    and K = (S+b)/R + 1; a' = out - x, so the shortfall a - a' = A - out.
    """
    a = data.draw(st.integers(1, reserves[0] // 10))
    plans = {}
    for mode in NumericMode:
        scale = 10 ** TOKA.decimals if mode is NumericMode.INTEGER else 1
        pool1, pool2 = (PoolState(pid, TOKA, TOKB, r_a * scale, r_b * scale,
                                  0, mode)
                        for pid, r_a, r_b in (("pool1", *reserves[:2]),
                                              ("pool2", *reserves[2:])))
        plans[mode] = plan_relocation(pool1, pool2, TOKA, "P", "B", "O",
                                      a * scale)
    rational, integer = plans[NumericMode.RATIONAL], plans[NumericMode.INTEGER]
    for plan in (rational, integer):
        assert plan.y == plan.x_recovered
    assert rational.predicted_a_prime == a
    p, q, r, s = (v * 10 ** TOKA.decimals for v in reserves)
    c = Fraction(p + integer.a + integer.x, q)
    k = Fraction(s + integer.b, r) + 1
    bound = 1 + c + k * (p + c) / (q - k)
    shortfall = 10 ** TOKA.decimals * rational.predicted_a_prime \
        - integer.predicted_a_prime
    assert 0 <= shortfall < bound


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(50, 5000), min_size=4, max_size=4),
       st.lists(st.integers(1, 300), min_size=2, max_size=2),
       st.integers(1, 40))
def test_rational_flash_amount_is_the_unscaled_root(reserves, fees, a):
    """The loop coefficients keep their D1*D2 scale in rational mode too;
    the flash amount is still, as a number, the larger root of the loop's
    quadratic over the fee factors g = 1 - fee/D themselves."""
    r_a1, r_b1, r_a2, r_b2 = map(Fraction, reserves)
    pool1 = make_pool("pool1", r_a1, r_b1, fees[0])
    pool2 = make_pool("pool2", r_a2, r_b2, fees[1])
    g1, g2 = (1 - Fraction(fee, BPS_DENOM) for fee in fees)
    k, a2, b0 = g1 * g2 * r_b1 * r_a2, g1 * r_b2 + g1 * g2 * r_b1, r_a1 * r_b2
    want = solve_quadratic(a2, b0 + a2 * a - k, -k * a)[1]
    x = solve_flash_amount(pool1, pool2, TOKA, Fraction(a))
    assert x == want
    assert dislocation_output(pool1, pool2, TOKA, Fraction(a), x) == x


def test_integer_solvers_build_no_pool(monkeypatch):
    # the solvers quote: probing a swap must not build the pool it leaves
    pool1 = PoolState("pool1", TOKA, TOKB, 1000 * 10**18,
                      3_000_000 * 10**6, 30, NumericMode.INTEGER)
    pool2 = PoolState("pool2", TOKA, TOKB, 300 * 10**18,
                      903_000 * 10**6, 30, NumericMode.INTEGER)
    a = 10 * 10**18
    x = solve_flash_amount(pool1, pool2, TOKA, a)
    b, pool1_after = swap_exact_in(pool1, TOKA, a + x)
    _, pool2_after = swap_exact_in(pool2, TOKB, b)
    calls = []
    real = PoolState.with_reserves
    monkeypatch.setattr(PoolState, "with_reserves", lambda *args:
                        calls.append(args) or real(*args))
    assert solve_flash_amount(pool1, pool2, TOKA, a) == x
    best = max_extractable(pool1_after, pool2_after, TOKA)
    assert best > 0
    y, _ = solve_extraction(pool1_after, pool2_after, TOKA, best // 2)
    assert y > 0
    assert calls == []


COEFFS = st.integers(-10**30, 10**30)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10**30), COEFFS, COEFFS)
@example(1, -4, 4)   # a double root
@example(2, 0, -8)   # rational roots
@example(1, 0, 1)    # no real root
def test_roots_are_the_exact_roots_rounded_inward(a, b, c):
    """Rational mode returns the exact smaller or larger root; integer mode
    the smaller's ceiling or the larger's floor, which isqrt must get right
    where a float square root would not."""
    if b * b < 4 * a * c:
        for mode in NumericMode:
            for larger in (False, True):
                with pytest.raises(TargetExceedsMaxProfit):
                    planner._root(a, b, c, mode, larger)
        return
    lo, hi = solve_quadratic(a, b, c)
    rational, integer = NumericMode.RATIONAL, NumericMode.INTEGER
    for mode, larger, root in ((rational, False, lo), (rational, True, hi),
                               (integer, False, math.ceil(lo)),
                               (integer, True, math.floor(hi))):
        assert planner._root(a, b, c, mode, larger) == root


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**40), st.integers(1, 10**40), st.integers(1, 10**40))
def test_integer_optimum_is_the_floor_of_the_unsquared_root(k, a2, b0):
    """The larger root of (B0 + A2*y)^2 = K*B0, floored, is the nested
    floor (isqrt(K*B0) - B0) // A2 of y* = (sqrt(K*B0) - B0)/A2."""
    y = planner._root(a2 * a2, 2 * a2 * b0, (b0 - k) * b0,
                      NumericMode.INTEGER, True)
    assert y == (math.isqrt(k * b0) - b0) // a2


def zero_fee_rational_pools(reserves):
    return tuple(make_pool(pid, Fraction(r_a), Fraction(r_b))
                 for pid, r_a, r_b in (("pool1", *reserves[:2]),
                                       ("pool2", *reserves[2:])))


RESERVES = st.lists(st.integers(50, 5000), min_size=4, max_size=4)


@settings(max_examples=40, deadline=None)
@given(RESERVES, st.data())
def test_rational_target_root_in_another_field_is_refused(reserves, data):
    """After a zero-fee phase 1 the pools lie in a field Q(sqrt(d)).  A
    target root whose discriminant is rational but no square there lies in
    another field: the plan is refused as a PlannerError, not a TypeError
    where that root meets the pools, and is otherwise delivered exactly."""
    pools = zero_fee_rational_pools(reserves)
    a = data.draw(st.integers(1, reserves[0] // 10))
    target = Fraction(a * data.draw(st.integers(1, 9)), 10)
    try:
        plan = plan_relocation(*pools, TOKA, "P", "B", "O", Fraction(a),
                               target=target)
    except PlannerError:
        return
    assert plan.predicted_a_prime == target


@settings(max_examples=40, deadline=None)
@given(RESERVES, st.data())
def test_rational_optimum_in_another_field_is_refused(reserves, data):
    """The same for the optimum: sqrt(K*B0) of the dislocated zero-fee
    pools is refused unless it lies in their field, where the optimum
    nets at least the principal, which the undo y = x' nets."""
    pool1, pool2 = zero_fee_rational_pools(reserves)
    a = Fraction(data.draw(st.integers(1, reserves[0] // 10)))
    x = solve_flash_amount(pool1, pool2, TOKA, a)
    b, pool1_after = swap_exact_in(pool1, TOKA, a + x)
    _, pool2_after = swap_exact_in(pool2, TOKB, b)
    try:
        best = max_extractable(pool1_after, pool2_after, TOKA)
    except PlannerError:
        return
    assert best >= a
