"""Seeded inputs, operations and output checks of the four workloads.

Each workload is a closed loop with one client: ``inputs(seed)`` yields
one input per operation, ``op`` is the timed call into ammflow, and
``check`` returns the names of the checks the output failed (empty when
the output is correct).  ammflow is reached only through module
attributes (``planner.plan_relocation``), so the wrappers that
``spans.Tracer`` installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

LIBRARY_SCENARIOS = (
    "relocation_sym_zero_fee", "relocation_asym_zero_fee",
    "relocation_operator_is_principal", "relocation_fee_calibrated",
    "peb_limit_order", "peb_flash_swap", "benign_arbitrage",
    "benign_routing")

REL_ERR_LIMIT = 1e-3
# p_to_b_max above the principal's starting balance by more than float
# rounding is over bound (the quantization defect of graph.attribute)
OVER_BOUND_RTOL = 1e-9


@dataclass
class Workload:
    name: str
    why: str
    modules: tuple[str, ...]          # imported by set-up
    checks: tuple[str, ...]
    inputs: Callable                  # seed -> iterator of op inputs
    setup: Callable                   # Context -> state
    op: Callable                      # (state, item) -> result
    check: Callable                   # (state, item, result) -> [names]
    warmup_ops: int
    trace_ops: int                    # ops per traced round (fixed)
    gated: bool = True
    child_process: bool = False       # the op runs in a child interpreter
    counters: Callable | None = None  # (item, result) -> {name: count}


@dataclass
class Context:
    root: Path
    seed: int
    workdir: Path


def _m(layer: str):
    """The ammflow module of a layer, imported on first use."""
    return importlib.import_module(f"ammflow.{layer}")


def principal_start(graph_edges, principal: str) -> float:
    """Smallest starting balance that covers the principal's outflows."""
    held = need = 0.0
    for e in sorted(graph_edges, key=lambda e: e.seq):
        if e.src == principal:
            held -= float(e.amount)
        if e.dst == principal:
            held += float(e.amount)
        need = max(need, -held)
    return need


def over_bound(result, start: float) -> bool:
    return result.p_to_b_max > start * (1 + OVER_BOUND_RTOL)


# -- shared relocation world ------------------------------------------


def relocation_world(pool1, pool2, asset, a):
    """P funds O's relocation of `a`; the flash provider covers any x."""
    amm, engine = _m("amm"), _m("engine")
    world = engine.WorldState(mode=pool1.mode)
    for aid, label in (("P", "Principal"), ("B", "Beneficiary"),
                       ("O", "Operator"), ("flash", "FlashProvider")):
        world.add_address(engine.Address(aid, label))
    world.add_pool(pool1)
    world.add_pool(pool2)
    world.set_balance("P", asset, a)
    world.set_balance("flash", asset,
                      pool1.reserve_of(asset) + pool2.reserve_of(asset))
    world.approve("P", "O", asset, a)
    return world


def relocate(pool1, pool2, asset, a, world):
    engine, planner = _m("engine"), _m("planner")
    plan = planner.plan_relocation(pool1, pool2, asset, "P", "B", "O", a)
    bundle = planner.build_relocation_bundle(plan, pool1, pool2)
    after, trace = engine.execute_bundle(world, bundle, "O")
    return plan, after, trace


# -- sweep_rational ----------------------------------------------------


def sweep_inputs(seed: int):
    """Criterion-1 generator: reserves 50-5000, a <= reserve/10."""
    amm = _m("amm")
    toka, tokb = amm.AssetId("TOKA", 18), amm.AssetId("TOKB", 18)
    rng = random.Random(seed)
    while True:
        r = [Fraction(rng.randint(50, 5000)) for _ in range(4)]
        a = Fraction(rng.randint(1, int(r[0]) // 10))
        pool1 = amm.PoolState("pool1", toka, tokb, r[0], r[1])
        pool2 = amm.PoolState("pool2", toka, tokb, r[2], r[3])
        yield pool1, pool2, a, relocation_world(pool1, pool2, toka, a)


def sweep_op(state, item):
    pool1, pool2, a, world = item
    return relocate(pool1, pool2, pool1.asset0, a, world)


def check_zero_fee_relocation(world, after, trace, a, sym="TOKA",
                              counter="TOKB") -> list[str]:
    engine = _m("engine")
    deltas = engine.net_deltas(trace)
    failed = []
    if deltas.get(("P", sym), 0) != -a or deltas.get(("B", sym), 0) != a:
        failed.append("net_deltas_move_a_from_P_to_B")
    if any(deltas.get((addr, s), 0) != 0
           for addr in ("O", "flash") for s in (sym, counter)):
        failed.append("intermediaries_net_zero")
    if any(after.pools[p].reserve0 != world.pools[p].reserve0
           or after.pools[p].reserve1 != world.pools[p].reserve1
           for p in world.pools):
        failed.append("pools_restored_exactly")
    return failed


def sweep_check(state, item, result):
    _, _, a, world = item
    _, after, trace = result
    return check_zero_fee_relocation(world, after, trace, a)


# -- fee_integer -------------------------------------------------------

SA, SC = 10 ** 18, 10 ** 6


def fee_inputs(seed: int):
    """18-decimal asset vs 6-decimal counter, 30 bps, pools within 1.5%
    of a common price (the shape of the published migration record)."""
    amm = _m("amm")
    weth, usdt = amm.AssetId("WETH", 18), amm.AssetId("USDT", 6)
    rng = random.Random(seed)
    while True:
        price = rng.uniform(1000, 4000)
        ra1 = rng.randint(500 * SA, 5000 * SA)
        ra2 = rng.randint(100 * SA, 1000 * SA)
        price2 = price * (1 + rng.uniform(-0.015, 0.015))
        rb1 = int(ra1 * price) * SC // SA
        rb2 = int(ra2 * price2) * SC // SA
        a = rng.randint(1 * SA, 20 * SA)
        mode = amm.NumericMode.INTEGER
        pool1 = amm.PoolState("pool1", weth, usdt, ra1, rb1, 30, mode)
        pool2 = amm.PoolState("pool2", weth, usdt, ra2, rb2, 30, mode)
        yield pool1, pool2, a, relocation_world(pool1, pool2, weth, a)


def fee_op(state, item):
    pool1, pool2, a, world = item
    return relocate(pool1, pool2, pool1.asset0, a, world)


def fee_check(state, item, result):
    _, _, a, world = item
    plan, after, trace = result[:3]
    engine = _m("engine")
    deltas = engine.net_deltas(trace)
    failed = []
    a_prime = plan.predicted_a_prime
    if deltas.get(("P", "WETH"), 0) != -a \
            or deltas.get(("B", "WETH"), 0) != a_prime:
        failed.append("delivered_matches_plan")
    if not 0 < a_prime < a:
        failed.append("fees_keep_a_prime_below_a")
    if any(deltas.get(("O", s), 0) != 0 for s in ("WETH", "USDT")):
        failed.append("operator_net_zero")
    if any(after.pools[p].k < world.pools[p].k for p in world.pools):
        failed.append("pool_k_not_below_start")
    return failed


# -- fee_calibrated ----------------------------------------------------


def fee_calibrated_op(state, item):
    """fee_integer's relocation, then its pools recovered from the plan's
    observations and the whole bundle replayed over them."""
    plan, after, trace = fee_op(state, item)
    calibration = _m("calibration")
    obs = calibration.ObservationSet(
        a=item[2] / SA, x=plan.x / SA, b=plan.b / SC,
        x_prime=plan.x_recovered / SA, b_prime=plan.b_prime / SC,
        y=plan.y / SA, a_prime=plan.predicted_a_prime / SA, fee_bps=30,
        asset_decimals=18, counter_decimals=6)
    calibrated = calibration.calibrate_reserves(obs)
    report = calibration.replay_and_validate(calibrated, obs)
    return plan, after, trace, calibrated, report


def fee_calibrated_check(state, item, result):
    failed = fee_check(state, item, result)
    report = result[4]
    errs = [v for k, v in report.items() if k.endswith("_rel_err")]
    if len(errs) != 5 or not all(e <= REL_ERR_LIMIT for e in errs):
        failed.append("replay_rel_err_le_1e-3")
    return failed


# -- forensics_blocks --------------------------------------------------


@dataclass
class Block:
    k: int
    text: str                     # trace JSON, as written by trace_to_json
    world_before: object
    world_after: object
    pairs: list                   # (principal, beneficiary, a)
    forms: dict                   # asset symbol -> canonical form


def forensics_inputs(seed: int):
    """Blocks of K = 1, 2, 3, 4 zero-fee relocations (in turn) sharing two
    pools and one flash provider, one operator per relocation."""
    amm, engine = _m("amm"), _m("engine")
    graph, planner = _m("graph"), _m("planner")
    toka, tokb = amm.AssetId("TOKA", 18), amm.AssetId("TOKB", 18)
    rng = random.Random(seed)
    n = 0
    while True:
        k = 1 + n % 4
        n += 1
        r = [Fraction(rng.randint(50, 5000)) for _ in range(4)]
        pool1 = amm.PoolState("pool1", toka, tokb, r[0], r[1])
        pool2 = amm.PoolState("pool2", toka, tokb, r[2], r[3])
        world = engine.WorldState(mode=pool1.mode)
        world.add_address(engine.Address("flash", "FlashProvider"))
        world.add_pool(pool1)
        world.add_pool(pool2)
        world.set_balance("flash", toka, 2 * (r[0] + r[2]))
        bundle, pairs = [], []
        for i in range(k):
            p, b, o = f"P{i}", f"B{i}", f"O{i}"
            for aid, label in ((p, "Principal"), (b, "Beneficiary"),
                               (o, "Operator")):
                world.add_address(engine.Address(aid, label))
            a = Fraction(rng.randint(1, int(r[0]) // 10))
            world.set_balance(p, toka, a)
            world.approve(p, o, toka, a)
            # zero-fee relocations restore both pools, so every plan in
            # the block is solved against the same starting reserves
            plan = planner.plan_relocation(pool1, pool2, toka, p, b, o, a,
                                           flash_provider="flash")
            bundle += planner.build_relocation_bundle(plan, pool1, pool2)
            pairs.append((p, b, a))
        after, trace = engine.execute_bundle(world, bundle, "O0",
                                             bundle_id=f"block-{n}")
        forms = {s.symbol: graph.canonical_form(graph.build_graph(trace, s))
                 for s in (toka, tokb)}
        yield Block(k, engine.trace_to_json(trace, world.mode), world,
                    after, pairs, forms)


def forensics_op(state, block: Block):
    engine, graph, semantic = _m("engine"), _m("graph"), _m("semantic")
    data = json.loads(block.text)
    trace = engine.trace_from_dict(data)
    principals = {p for p, _, _ in block.pairs}
    out = {"data": data, "trace": trace, "attribution": {}, "poison": {},
           "haircut": {}, "forms": {}}
    for sym in sorted({ev.asset.symbol for ev in trace.events}):
        asset = next(ev.asset for ev in trace.events
                     if ev.asset.symbol == sym)
        g = graph.build_graph(trace, asset)
        for p, b, _ in block.pairs:
            try:
                out["attribution"][(sym, p)] = graph.attribute(g, p, b)
            except (graph.BudgetExceeded, graph.GraphError) as exc:
                out["attribution"][(sym, p)] = exc
        out["poison"][sym] = graph.taint_poison(g, principals)
        out["haircut"][sym] = graph.taint_haircut(g, principals)
        out["forms"][sym] = graph.canonical_form(g)
    out["report"] = semantic.recover_migrations(
        trace, block.world_before, block.world_after)
    return out


def forensics_refusals(out) -> int:
    return sum(isinstance(r, Exception) for r in out["attribution"].values())


def forensics_over_bound(block: Block, out) -> int:
    """Pairs whose p_to_b_max exceeds the principal's starting balance."""
    start = {p: float(a) for p, _, a in block.pairs}
    return sum(not isinstance(r, Exception) and over_bound(r, start[p])
               for (_, p), r in out["attribution"].items())


def forensics_counters(block: Block, out) -> dict[str, int]:
    return {"attribute_refused": forensics_refusals(out),
            "attribute_over_bound": forensics_over_bound(block, out)}


def forensics_check(state, block: Block, out):
    engine = _m("engine")
    failed = []
    if engine.trace_to_dict(out["trace"], block.world_before.mode) \
            != out["data"]:
        failed.append("trace_roundtrip_exact")
    if out["forms"] != block.forms:
        failed.append("canonical_form_matches_source")
    if any(not isinstance(r, Exception)
           and not 0 <= r.p_to_b_min <= r.p_to_b_max
           for r in out["attribution"].values()):
        failed.append("attribution_bounds_ordered")
    poison = out["poison"].get("TOKA", {})
    haircut = out["haircut"].get("TOKA", {})
    if not all(poison.get(p) for p, _, _ in block.pairs):
        failed.append("poison_marks_principals")
    if any(not 0.0 <= v <= 1.0 for h in out["haircut"].values()
           for v in h.values()) \
            or not all(haircut.get(p) == 1.0 for p, _, _ in block.pairs):
        failed.append("haircut_fractions_valid")
    report = out["report"]
    if block.k == 1:
        p, b, a = block.pairs[0]
        ok = [(m.principal, m.beneficiary, m.asset, m.amount)
              for m in report.migrations] == [(p, b, "TOKA", a)]
    else:
        ok = _unresolved_matches(report, block.pairs)
    if not ok:
        failed.append("semantic_pairs_migrations")
    if forensics_refusals(out):
        failed.append("attribute_completes")
    return failed


def _unresolved_matches(report, pairs) -> bool:
    if report.migrations or len(report.unresolved) != 1:
        return False
    entry = report.unresolved[0]
    return (entry["asset"] == "TOKA"
            and sorted(map(tuple, entry["losers"]))
            == sorted((p, str(-a)) for p, _, a in pairs)
            and sorted(map(tuple, entry["gainers"]))
            == sorted((b, str(a)) for _, b, a in pairs))


# -- cli_cold ----------------------------------------------------------


def cli_inputs(seed: int):
    """All 8 library scenarios; the seed sets their order on the command
    line (the library scenarios take no other input)."""
    rng = random.Random(seed)
    while True:
        names = list(LIBRARY_SCENARIOS)
        rng.shuffle(names)
        yield names


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("AMMFLOW_PARALLEL", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_cold(root: Path, names, out_dir: Path):
    return subprocess.run(
        [sys.executable, "-m", "ammflow.cli", "simulate", *names,
         "--out", str(out_dir)],
        cwd=root, env=cli_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, check=False)


def tree_digest(out_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(out_dir)):
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def check_cli_run(returncode: int, out_dir: Path,
                  reference: dict[str, str]) -> list[str]:
    failed = []
    if returncode != 0:
        failed.append("exit_status_zero")
    manifests = sorted(out_dir.glob("*/manifest.json"))
    listed_ok = len(manifests) == len(LIBRARY_SCENARIOS)
    for manifest in manifests:
        try:
            outputs = json.loads(manifest.read_text())["outputs"]
        except (ValueError, KeyError):
            listed_ok = False
            continue
        listed_ok = listed_ok and all(
            (manifest.parent / name).is_file() for name in outputs)
    if not listed_ok:
        failed.append("manifest_outputs_exist")
    if tree_digest(out_dir) != reference:
        failed.append("run_dirs_byte_identical")
    return failed


@dataclass
class CliState:
    root: Path
    workdir: Path
    reference: dict
    in_process: bool = False


def cli_setup(ctx: Context) -> CliState:
    """One cold run in canonical order gives the reference run dirs."""
    with tempfile.TemporaryDirectory(dir=ctx.workdir) as tmp:
        proc = run_cli_cold(ctx.root, LIBRARY_SCENARIOS, Path(tmp))
        if proc.returncode != 0:
            raise RuntimeError("reference simulate failed: "
                               + proc.stderr.decode(errors="replace"))
        reference = tree_digest(Path(tmp))
    return CliState(ctx.root, ctx.workdir, reference)


@dataclass
class CliRun:
    returncode: int
    out_dir: Path
    tmp: tempfile.TemporaryDirectory


def cli_op(state: CliState, names):
    """A fresh interpreter simulating the whole library, or, in a traced
    run, one in-process ``ammflow.cli.main`` call doing the same."""
    tmp = tempfile.TemporaryDirectory(dir=state.workdir)
    out_dir = Path(tmp.name)
    if state.in_process:
        cli = sys.modules["ammflow.cli"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["simulate", *names, "--out", str(out_dir)],
                     standalone_mode=False)
        return CliRun(0, out_dir, tmp)
    return CliRun(run_cli_cold(state.root, names, out_dir).returncode,
                  out_dir, tmp)


def cli_check(state: CliState, names, run: CliRun):
    try:
        return check_cli_run(run.returncode, run.out_dir, state.reference)
    finally:
        run.tmp.cleanup()


def _plain_setup(ctx: Context):
    return None


WORKLOADS = {
    "sweep_rational": Workload(
        name="sweep_rational",
        why="rational zero-fee relocations: numeric, amm, planner and "
            "engine do all the work",
        modules=("ammflow.planner", "ammflow.engine"),
        checks=("net_deltas_move_a_from_P_to_B", "intermediaries_net_zero",
                "pools_restored_exactly"),
        inputs=sweep_inputs, setup=_plain_setup, op=sweep_op,
        check=sweep_check, warmup_ops=20, trace_ops=200),
    "fee_integer": Workload(
        name="fee_integer",
        why="integer fee-bearing relocation: planner searches dominate, "
            "QuadExact is never touched",
        modules=("ammflow.planner", "ammflow.engine"),
        checks=("delivered_matches_plan", "fees_keep_a_prime_below_a",
                "operator_net_zero", "pool_k_not_below_start"),
        inputs=fee_inputs, setup=_plain_setup, op=fee_op, check=fee_check,
        warmup_ops=3, trace_ops=40),
    "fee_calibrated": Workload(
        name="fee_calibrated",
        why="fee_integer's relocation plus calibrate_reserves and "
            "replay_and_validate on observations taken from the plan",
        modules=("ammflow.planner", "ammflow.engine",
                 "ammflow.calibration"),
        checks=("delivered_matches_plan", "fees_keep_a_prime_below_a",
                "operator_net_zero", "pool_k_not_below_start",
                "replay_rel_err_le_1e-3"),
        inputs=fee_inputs, setup=_plain_setup, op=fee_calibrated_op,
        check=fee_calibrated_check, warmup_ops=3, trace_ops=40,
        gated=False),
    "forensics_blocks": Workload(
        name="forensics_blocks",
        why="trace parsing, transfer-graph attribution, taint and "
            "semantic recovery over blocks of 1-4 relocations",
        modules=("ammflow.engine", "ammflow.graph", "ammflow.semantic",
                 "ammflow.planner"),
        checks=("trace_roundtrip_exact", "canonical_form_matches_source",
                "attribution_bounds_ordered", "poison_marks_principals",
                "haircut_fractions_valid", "semantic_pairs_migrations",
                "attribute_completes"),
        inputs=forensics_inputs, setup=_plain_setup, op=forensics_op,
        check=forensics_check, warmup_ops=4, trace_ops=40, gated=False,
        counters=forensics_counters),
    "cli_cold": Workload(
        name="cli_cold",
        why="fresh `ammflow simulate` of all 8 library scenarios: "
            "interpreter start, imports, scenarios and output writing",
        modules=("ammflow.cli",),
        checks=("exit_status_zero", "manifest_outputs_exist",
                "run_dirs_byte_identical"),
        inputs=cli_inputs, setup=cli_setup, op=cli_op, check=cli_check,
        warmup_ops=0, trace_ops=4, child_process=True),
}
