"""End-to-end acceptance gate.

Each test records one PASS/FAIL verdict line; conftest echoes the lines
in the terminal summary so they are visible in any pytest run.
"""

import random
import sys
import time
from fractions import Fraction

from ammflow.calibration import (PUBLISHED_OBSERVATIONS, calibrate_reserves,
                                 replay_and_validate)
from ammflow.engine import (Address, WorldState, execute_bundle, net_deltas)
from ammflow.graph import (attribute, build_graph, taint_haircut,
                           taint_poison, trace_canonical_form)
from ammflow.numeric import exact_sign, make_exact
from ammflow.planner import (build_relocation_bundle, plan_relocation,
                             solve_flash_amount)
from ammflow.scenarios import (build_benign_twin, build_peb_scenario,
                               build_relocation_scenario, library,
                               relocation_scenario_names)
from ammflow.semantic import recover_migrations
from conftest import TOKA, make_pool


VERDICTS: list[str] = []


def verdict(number: int, description: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def run_relocation(pool1, pool2, a):
    plan = plan_relocation(pool1, pool2, TOKA, "P", "B", "O", a)
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
    after, trace = execute_bundle(
        world, build_relocation_bundle(plan, pool1, pool2), "O")
    return plan, world, after, trace


def test_criterion_1_zero_fee_constructive_proof():
    rng = random.Random(1)
    started = time.monotonic()
    ok = True
    for _ in range(1000):
        pool1 = make_pool("pool1", Fraction(rng.randint(50, 5000)),
                          Fraction(rng.randint(50, 5000)))
        pool2 = make_pool("pool2", Fraction(rng.randint(50, 5000)),
                          Fraction(rng.randint(50, 5000)))
        a = Fraction(rng.randint(1, int(pool1.reserve0) // 10))
        _, world, after, trace = run_relocation(pool1, pool2, a)
        deltas = net_deltas(trace)
        ok = ok and deltas[("P", "TOKA")] == -a
        ok = ok and deltas[("B", "TOKA")] == a
        ok = ok and deltas.get(("O", "TOKA"), 0) == 0
        ok = ok and deltas.get(("O", "TOKB"), 0) == 0
        ok = ok and deltas.get(("flash", "TOKA"), 0) == 0
        for pid in ("pool1", "pool2"):
            ok = ok and after.pools[pid].reserve0 == \
                world.pools[pid].reserve0
            ok = ok and after.pools[pid].reserve1 == \
                world.pools[pid].reserve1
        if not ok:
            break
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    verdict(1, "1000 random zero-fee relocations migrate exactly a and "
               f"restore both pools ({elapsed:.2f}s)", ok)


def test_transfer_layer_bounds_on_criterion_1_relocations():
    """What attribution says of criterion 1's relocations, exactly: the
    minimum is the part of a that extraction's repayment y does not
    cover, the maximum is a, and the verdict is NOT RECOVERABLE.  The
    minimum is positive wherever y < a.  Criterion 1's first 200."""
    rng = random.Random(1)
    positive_min = 0
    for _ in range(200):
        pool1 = make_pool("pool1", Fraction(rng.randint(50, 5000)),
                          Fraction(rng.randint(50, 5000)))
        pool2 = make_pool("pool2", Fraction(rng.randint(50, 5000)),
                          Fraction(rng.randint(50, 5000)))
        a = Fraction(rng.randint(1, int(pool1.reserve0) // 10))
        plan, _, _, trace = run_relocation(pool1, pool2, a)
        result = attribute(build_graph(trace, TOKA), "P", "B")
        uncovered = a - plan.y
        assert result.p_to_b_min == \
            (float(uncovered) if exact_sign(uncovered) > 0 else 0)
        assert result.p_to_b_max == a
        assert not result.recoverable
        positive_min += result.p_to_b_min > 0
    # both sides of y = a occur in the sample
    assert 0 < positive_min < 200


def test_criterion_2_consistency_solver():
    pool1 = make_pool("pool1", Fraction(100), Fraction(100))
    pool2 = make_pool("pool2", Fraction(100), Fraction(100))
    a = Fraction(10)
    x = solve_flash_amount(pool1, pool2, TOKA, a)
    quadratic_ok = x * x + 10 * x - 500 == 0
    closed_form_ok = x == make_exact(-5, Fraction(1, 2), 2100)
    residual = pool1.reserve1 * (x + a) * (pool2.reserve0 - x) \
        - pool2.reserve1 * x * (pool1.reserve0 + x + a)
    verdict(2, "symmetric-fixture flash amount solves x^2 + 10x - 500 = 0 "
               "with exactly zero loop residual",
            quadratic_ok and closed_form_ok and residual == 0)


def test_criterion_3_reserve_calibration_replication():
    calibrated = calibrate_reserves(PUBLISHED_OBSERVATIONS)
    report = replay_and_validate(calibrated, PUBLISHED_OBSERVATIONS)
    within_tol = all(report[f"{k}_rel_err"] <= 1e-3
                     for k in ("b", "b_prime", "a_prime", "x_prime"))
    eta_ok = 0.934 <= report["eta_replayed"] <= 0.937
    verdict(3, "calibrated reserves replay the published migration within "
               f"1e-3 (eta = {report['eta_replayed']:.4f})",
            within_tol and eta_ok)


def test_criterion_4_attribution_vs_semantic_observer():
    ok = True
    for name in relocation_scenario_names():
        run = library()[name]()
        world_before = run.world.copy()
        world_after, trace = run.execute()
        graph = build_graph(trace, run.plan.asset)
        result = attribute(graph, run.principal, run.beneficiary)
        ok = ok and not result.recoverable and result.p_to_b_min == 0
        report = recover_migrations(trace, world_before, world_after)
        found = [m for m in report.migrations
                 if m.principal == run.principal
                 and m.beneficiary == run.beneficiary]
        ok = ok and len(found) == 1
        ok = ok and found[0].amount == run.plan.predicted_a_prime

    peb = build_peb_scenario(name="peb")
    world_before = peb.world.copy()
    world_after, trace = peb.execute()
    ok = ok and trace.initiator != "P"
    for sym in {e.asset.symbol for e in trace.events}:
        asset = world_before.assets[sym]
        ok = ok and not any(e.src == "P" and e.dst == "B"
                            for e in build_graph(trace, asset).edges)
    roles = recover_migrations(trace, world_before, world_after).roles
    ok = ok and roles.get("P") == "Principal" \
        and roles.get("E") == "Executor" \
        and roles.get("B") == "Beneficiary"
    verdict(4, "transfer layer cannot attribute any relocation (min = 0) "
               "while the semantic observer recovers every migration and "
               "the P/E/B roles", ok)


def test_criterion_5_benign_twin_indistinguishability():
    ok = True
    for name in relocation_scenario_names():
        run = library()[name]()
        _, trace = run.execute()
        _, twin_trace = build_benign_twin(library()[name]()).execute()
        ok = ok and trace_canonical_form(trace) == \
            trace_canonical_form(twin_trace)
        _, perturbed_trace = build_benign_twin(library()[name](),
                                               perturb=True).execute()
        ok = ok and trace_canonical_form(trace) != \
            trace_canonical_form(perturbed_trace)
    verdict(5, "every relocation trace is canonically equal to its benign "
               "twin; a one-edge perturbation breaks equality", ok)


def test_criterion_6_taint_rule_divergence():
    ok = True
    for name in relocation_scenario_names():
        run = library()[name]()
        if run.principal == run.initiator:
            # a flagged source stays fully tainted by definition, so the
            # dilution claim only applies when the roles are separated
            continue
        _, trace = run.execute()
        graph = build_graph(trace, run.plan.asset)
        marks = taint_poison(graph, {run.principal})
        fractions = taint_haircut(graph, {run.principal})
        ok = ok and marks[run.beneficiary]
        ok = ok and 0 < fractions[run.beneficiary] < 1
        if "zero_fee" in name:
            # the restored pool holds nothing afterwards: haircut clears
            # it while poison keeps the mark
            poison_positive = {n for n, m in marks.items() if m}
            haircut_positive = {n for n, f in fractions.items() if f > 0}
            ok = ok and poison_positive != haircut_positive
    verdict(6, "poison marks the beneficiary outright while haircut "
               "dilutes below 1 and the positive sets diverge", ok)


def test_criterion_7_flash_loan_flash_swap_equivalence():
    params = [
        ("1000", "990", ("1000000", "1000000"), 30),
        ("1000", "985", ("200000", "200000"), 30),
        ("1000", "990", ("1000000", "1000000"), 0),
        ("500", "490", ("1000000", "1000000"), 30),
        ("2500", "2450", ("1000000", "1000000"), 30),
        ("100", "98", ("50000", "50000"), 30),
        ("1000", "950", ("100000", "100000"), 30),
        ("1000", "990", ("1000000", "1500000"), 30),
        ("1000", "1980", ("1000000", "2000000"), 30),
        ("333", "329", ("750000", "750000"), 10),
        ("1000", "980", ("1000000", "1000000"), 100),
        ("12345", "12000", ("9000000", "9000000"), 30),
    ]
    ok = True
    for making, taking, reserves, fee in params:
        traces = []
        for variant in ("flash_loan", "flash_swap"):
            run = build_peb_scenario(name="v", variant=variant,
                                     making=making, taking=taking,
                                     pool_reserves=reserves, fee_bps=fee)
            _, trace = run.execute()
            traces.append({k: v for k, v in net_deltas(trace).items()
                           if exact_sign(v) != 0})
        ok = ok and traces[0] == traces[1]
    verdict(7, f"flash-loan and flash-swap fills net identically across "
               f"{len(params)} parameterizations", ok)


def test_criterion_8_role_separation_not_required():
    rng = random.Random(8)
    ok = True
    for _ in range(20):
        r = lambda: str(rng.randint(80, 3000))
        a = str(rng.randint(1, 40))
        run = build_relocation_scenario(
            name="op", operator_is_principal=True,
            reserves1=(r(), r()), reserves2=(r(), r()), a=a)
        world_before = run.world.copy()
        world_after, trace = run.execute()
        graph = build_graph(trace, run.plan.asset)
        result = attribute(graph, "P", "B")
        # the direct P -> B edge can force a positive minimum, but the
        # delivered amount is never pinned to a positive value, so the
        # transfer-layer verdict stays NOT RECOVERABLE
        ok = ok and not result.recoverable
        ok = ok and (result.p_to_b_min < result.p_to_b_max
                     or result.p_to_b_max == 0)
        report = recover_migrations(trace, world_before, world_after)
        ok = ok and any(m.principal == "P" and m.beneficiary == "B"
                        for m in report.migrations)
    verdict(8, "with the principal acting as its own operator the "
               "transfer-layer verdict stays NOT RECOVERABLE", ok)
