from fractions import Fraction

import pytest

from ammflow.engine import (Address, ExecutionTrace, Transfer, TransferEvent,
                            WorldState, execute_bundle, net_deltas)
from ammflow.amm import NumericMode, PoolState
from ammflow.planner import build_relocation_bundle, plan_relocation
from ammflow.scenarios import (build_calibrated_relocation_scenario,
                               build_peb_scenario,
                               build_relocation_scenario, library)
from ammflow.semantic import loss_decomposition, recover_migrations
from conftest import TOKA, TOKB


def run_scenario(run):
    world_before = run.world.copy()
    world_after, trace = run.execute()
    report = recover_migrations(trace, world_before, world_after)
    return report, trace, world_after


class TestRecoverMigrations:
    def test_peb_roles_and_migration(self):
        run = build_peb_scenario(name="s")
        report, trace, _ = run_scenario(run)
        assert report.roles["P"] == "Principal"
        assert report.roles["E"] == "Executor"
        assert report.roles["B"] == "Beneficiary"
        assert trace.initiator == "E"
        (mig,) = report.migrations
        assert (mig.principal, mig.beneficiary) == ("P", "B")
        assert mig.asset == "DAI"
        assert mig.amount == 990
        assert report.executor_profit  # E keeps the USDC spread
        assert report.atomic

    def test_zero_fee_relocation(self):
        run = build_relocation_scenario(name="s")
        report, _, _ = run_scenario(run)
        (mig,) = report.migrations
        assert (mig.principal, mig.beneficiary, mig.asset) == \
            ("P", "B", "TOKA")
        assert mig.amount == 10
        assert report.efficiency == pytest.approx(1.0)

    def test_calibrated_relocation_efficiency(self):
        run = build_calibrated_relocation_scenario()
        report, _, _ = run_scenario(run)
        (mig,) = report.migrations
        assert 0.934 <= report.efficiency <= 0.937

    def test_operator_is_principal_still_reported(self):
        run = build_relocation_scenario(name="s",
                                        operator_is_principal=True)
        report, _, _ = run_scenario(run)
        (mig,) = report.migrations
        assert (mig.principal, mig.beneficiary) == ("P", "B")
        assert mig.amount == 10

    def test_efficiency_matches_net_deltas(self):
        run = build_relocation_scenario(
            name="s", reserves1=("250", "140"),
            reserves2=("180", "100.8"), a="12")
        report, trace, _ = run_scenario(run)
        deltas = net_deltas(trace)
        assert report.efficiency == pytest.approx(
            float(deltas[("B", "TOKA")]) / -float(deltas[("P", "TOKA")]))

    def test_ambiguous_pairing(self):
        world = WorldState(mode=NumericMode.RATIONAL)
        for aid in ("p1", "p2", "g1", "g2"):
            world.add_address(Address(aid))
        world.set_balance("p1", TOKA, Fraction(10))
        world.set_balance("p2", TOKA, Fraction(10))
        bundle = [Transfer("p1", "g1", TOKA, Fraction(10)),
                  Transfer("p2", "g2", TOKA, Fraction(10))]
        after, trace = execute_bundle(world, bundle, "op")
        report = recover_migrations(trace, world, after)
        assert not report.migrations
        assert report.unresolved

    def test_summary_text(self):
        run = build_relocation_scenario(name="s")
        report, _, _ = run_scenario(run)
        text = report.summary()
        assert "MIGRATION P -> B 10 TOKA" in text
        assert "role P: Principal" in text


class TestReadsTheExecutionRecordAlone:
    @pytest.mark.parametrize("name", sorted(library()))
    def test_same_report_without_worlds(self, name):
        run = library()[name]()
        world_before = run.world.copy()
        world_after, trace = run.execute()
        with_worlds = recover_migrations(trace, world_before, world_after)
        without = recover_migrations(trace, None, None)
        assert without.to_dict() == with_worlds.to_dict()
        assert without.summary() == with_worlds.summary()

    @pytest.mark.parametrize("route_via_settlement", [True, False])
    def test_fill_read_off_the_call_record(self, route_via_settlement):
        run = build_peb_scenario(name="s",
                                 route_via_settlement=route_via_settlement)
        _, trace = run.execute()
        report = recover_migrations(trace, None, None)
        (mig,) = report.migrations
        assert (mig.principal, mig.beneficiary, mig.asset, mig.amount) == \
            ("P", "B", "DAI", 990)
        assert report.roles == {"P": "Principal", "E": "Executor",
                                "B": "Beneficiary"}

    def test_a_label_without_its_call_is_not_honoured(self):
        # "hub" is labelled a flash provider, but no flash call names it:
        # it is an actor that gains what p loses
        world = WorldState(mode=NumericMode.RATIONAL)
        world.add_address(Address("p"))
        world.add_address(Address("hub", "FlashProvider"))
        world.set_balance("p", TOKA, Fraction(10))
        after, trace = execute_bundle(
            world, [Transfer("p", "hub", TOKA, Fraction(10))], "p")
        (mig,) = recover_migrations(trace, world, after).migrations
        assert (mig.principal, mig.beneficiary, mig.amount) == \
            ("p", "hub", 10)


class TestLossDecomposition:
    def test_zero_fee_losses_vanish(self):
        run = build_relocation_scenario(name="s")
        _, trace = run.execute()
        losses = loss_decomposition(trace, run.plan, run.world)
        assert losses["protocol_fees"] == 0
        assert losses["slippage_imbalance"] == 0
        assert losses["total_loss"] == 0

    def test_calibrated_totals(self):
        run = build_calibrated_relocation_scenario()
        _, trace = run.execute()
        losses = loss_decomposition(trace, run.plan, run.world)
        assert losses["total_loss"] == pytest.approx(0.6459, abs=1e-3)
        assert losses["protocol_fees"] + losses["slippage_imbalance"] == \
            pytest.approx(losses["total_loss"])
        # four swaps at 0.3% each come to about 1.2% of the per-swap notional
        plan = run.plan
        scale = 10 ** plan.asset.decimals
        mean_notional = (float(plan.a + plan.x) + float(plan.x_recovered)
                         + float(plan.y)
                         + float(plan.extraction_out)) / 4 / scale
        ratio = losses["protocol_fees"] / mean_notional
        assert 0.010 <= ratio <= 0.014

    def test_fee_doubling_roughly_doubles_fees(self):
        fees = {}
        for fee_bps in (30, 60):
            plan, world, trace = integer_relocation(fee_bps, fee_bps)
            fees[fee_bps] = loss_decomposition(trace, plan,
                                               world)["protocol_fees"]
        assert 1.7 <= fees[60] / fees[30] <= 2.3

    def test_each_swap_pays_its_own_pool_fee(self):
        plan, world, trace = integer_relocation(30, 0)
        fee = Fraction(30, 10_000)
        # only the two swaps into pool 1 pay: a + x in phase 1, b' in
        # phase 2, whose fee valued at its own execution price
        # extraction_out / b' is fee * extraction_out
        expected = (plan.a + plan.x + plan.extraction_out) * fee / 10**18
        losses = loss_decomposition(trace, plan, world)
        assert losses["protocol_fees"] == float(expected)


def integer_relocation(fee1, fee2):
    """Plan and execute a 10-unit integer relocation over two 1000/1000
    pools charging the given fees."""
    pool1 = PoolState("pool1", TOKA, TOKB, 1000 * 10**18, 1000 * 10**18,
                      fee1, NumericMode.INTEGER)
    pool2 = PoolState("pool2", TOKA, TOKB, 1000 * 10**18, 1000 * 10**18,
                      fee2, NumericMode.INTEGER)
    plan = plan_relocation(pool1, pool2, TOKA, "P", "B", "O", 10 * 10**18)
    world = WorldState(mode=NumericMode.INTEGER)
    for aid, label in (("P", "Principal"), ("B", "Beneficiary"),
                       ("O", "Operator"), ("flash", "FlashProvider")):
        world.add_address(Address(aid, label))
    world.add_pool(pool1)
    world.add_pool(pool2)
    world.set_balance("P", TOKA, 10 * 10**18)
    world.set_balance("flash", TOKA, 2000 * 10**18)
    world.approve("P", "O", TOKA, 10 * 10**18)
    bundle = build_relocation_bundle(plan, pool1, pool2)
    _, trace = execute_bundle(world, bundle, "O")
    return plan, world, trace
