"""End-to-end acceptance gate.

Each test records one PASS/FAIL verdict line; conftest echoes the lines
in the terminal summary so they are visible in any pytest run.
"""

import random
import sys
import time
from fractions import Fraction

from ammflow import claims
from ammflow.calibration import (PUBLISHED_OBSERVATIONS, calibrate_reserves,
                                 replay_and_validate)
from ammflow.graph import attribute, build_graph
from ammflow.numeric import make_exact
from ammflow.planner import solve_flash_amount
from ammflow.scenarios import build_peb_scenario, build_relocation_scenario
from conftest import PEB_PARAMS, TOKA, library_relocations, make_pool


VERDICTS: list[str] = []


def verdict(number: int, description: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def criterion_1_relocations(count: int):
    """Criterion 1's seeded zero-fee relocations: reserves 50-5000 and
    a <= pool 1's asset reserve / 10."""
    rng = random.Random(1)
    for _ in range(count):
        r = [rng.randint(50, 5000) for _ in range(4)]
        yield build_relocation_scenario(
            reserves1=(str(r[0]), str(r[1])), reserves2=(str(r[2]), str(r[3])),
            a=str(rng.randint(1, r[0] // 10)))


def test_criterion_1_zero_fee_constructive_proof():
    started = time.monotonic()
    failed = []
    for run in criterion_1_relocations(1000):
        failed = claims.zero_fee_relocation_exact(run)
        if failed:
            break
    elapsed = time.monotonic() - started
    verdict(1, "1000 random zero-fee relocations migrate exactly a and "
               f"restore both pools ({elapsed:.2f}s)",
            not failed and elapsed < 10.0)


def test_transfer_layer_bounds_on_criterion_1_relocations():
    """What attribution says of criterion 1's relocations, exactly: the
    minimum is the part of a that extraction's repayment y does not
    cover, the maximum is a, and the verdict is NOT RECOVERABLE.  The
    minimum is positive wherever y < a.  Criterion 1's first 200."""
    positive_min = 0
    for run in criterion_1_relocations(200):
        _, trace = run.execute()
        plan = run.plan
        result = attribute(build_graph(trace, TOKA), "P", "B")
        uncovered = plan.a - plan.y
        assert result.p_to_b_min == \
            (float(uncovered) if uncovered > 0 else 0)
        assert result.p_to_b_max == plan.a
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
    eta_ok = 0.934 <= report["eta_replayed"] <= 0.937
    verdict(3, "calibrated reserves replay the published migration within "
               f"1e-3 (eta = {report['eta_replayed']:.4f})",
            claims.calibration_replays(PUBLISHED_OBSERVATIONS) == []
            and eta_ok)


def test_criterion_4_attribution_vs_semantic_observer():
    ok = True
    for run in library_relocations():
        ok = ok and claims.observer_gap(run) == []
        _, trace = run.execute()
        ok = ok and attribute(build_graph(trace, run.plan.asset),
                              run.principal, run.beneficiary).p_to_b_min == 0
    peb = build_peb_scenario(name="peb")
    ok = ok and claims.observer_gap(peb) == [] \
        and claims.peb_separation(peb) == []
    verdict(4, "transfer layer cannot attribute any relocation (min = 0) "
               "while the semantic observer recovers every migration and "
               "the P/E/B roles", ok)


def test_criterion_5_benign_twin_indistinguishability():
    ok = all(claims.twin_indistinguishable(run) == []
             for run in library_relocations())
    verdict(5, "every relocation trace is canonically equal to its benign "
               "twin; a one-edge perturbation breaks equality", ok)


def test_criterion_6_taint_rule_divergence():
    ok = all(claims.taint_divergence(run) == []
             for run in library_relocations())
    verdict(6, "poison marks the beneficiary outright while haircut "
               "dilutes below 1 and the positive sets diverge", ok)


def test_criterion_7_flash_loan_flash_swap_equivalence():
    ok = all(claims.flash_equivalence(making=making, taking=taking,
                                      pool_reserves=reserves, fee_bps=fee)
             == [] for making, taking, reserves, fee in PEB_PARAMS)
    verdict(7, f"flash-loan and flash-swap fills net identically across "
               f"{len(PEB_PARAMS)} parameterizations", ok)


def test_criterion_8_role_separation_not_required():
    rng = random.Random(8)
    ok = True
    for _ in range(20):
        r = lambda: str(rng.randint(80, 3000))
        a = str(rng.randint(1, 40))
        run = build_relocation_scenario(
            name="op", operator_is_principal=True,
            reserves1=(r(), r()), reserves2=(r(), r()), a=a)
        # the direct P -> B edge can force a positive minimum, but the
        # delivered amount is never pinned to a positive value, so the
        # transfer-layer verdict stays NOT RECOVERABLE
        ok = ok and claims.observer_gap(run) == []
    verdict(8, "with the principal acting as its own operator the "
               "transfer-layer verdict stays NOT RECOVERABLE", ok)
