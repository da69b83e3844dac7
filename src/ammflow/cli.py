"""Command-line front end for reproducible simulation runs and analysis.

Every machine-readable output is JSON with stable key order (or DOT for
graphs) and carries no timestamps, so a rerun with the same inputs is
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import click

from .calibration import (InconsistentObservations, ObservationSet,
                          PUBLISHED_OBSERVATIONS, calibrate_reserves,
                          replay_and_validate)
from .engine import (Address, ExecutionTrace, WorldState, net_deltas,
                     trace_from_dict, trace_to_dict, trace_to_json)
from .graph import (attribute, build_graph, taint_haircut, taint_poison,
                    to_dot)
from .numeric import exact_sign
from .scenarios import ConfigError, library, load_scenario_config
from .semantic import loss_decomposition, recover_migrations

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


class UsageFailure(click.ClickException):
    """Configuration or input-file problem; exits with code 2."""

    exit_code = EXIT_USAGE


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _config_hash(source: str) -> str:
    """Hash of what _build_run reads: a library name wins over a file."""
    data = source.encode() if source in library() \
        else Path(source).read_bytes()
    return hashlib.sha256(data).hexdigest()


def _build_run(source: str):
    lib = library()
    if source in lib:
        return lib[source]()
    if not Path(source).is_file():
        raise ConfigError(
            f"{source!r} is neither a library scenario nor a config file; "
            f"library scenarios: {', '.join(sorted(lib))}")
    return load_scenario_config(source)


def _simulate_one(source: str, out_root: Path) -> str:
    run = _build_run(source)
    world_before = run.world.copy()
    world_after, trace = run.execute()
    out_dir = out_root / run.name
    out_dir.mkdir(parents=True, exist_ok=True)

    (out_dir / "trace.json").write_text(
        trace_to_json(trace, world_before.mode), encoding="utf-8")
    labels = {aid: a.label for aid, a in world_after.addresses.items()
              if a.label != "Unlabeled"}
    asset_symbols = sorted({ev.asset.symbol for ev in trace.events})
    outputs = ["trace.json", "migration_report.json", "analysis.json",
               "manifest.json"]
    for sym in asset_symbols:
        asset = world_after.assets[sym]
        dot_name = f"transfers_{sym}.dot"
        (out_dir / dot_name).write_text(
            to_dot(build_graph(trace, asset), labels), encoding="utf-8")
        outputs.append(dot_name)

    report = recover_migrations(trace, world_before, world_after,
                                intents=run.intents)
    report_dict = report.to_dict()
    if run.plan is not None:
        report_dict["loss_decomposition"] = loss_decomposition(
            trace, run.plan, world_before)
        _dump_json(out_dir / "plan.json", run.plan.to_dict())
        outputs.append("plan.json")
    _dump_json(out_dir / "migration_report.json", report_dict)

    _dump_json(out_dir / "analysis.json",
               _analysis_payload(trace, world_after,
                                 run.principal, run.beneficiary))
    outputs.sort()
    _dump_json(out_dir / "manifest.json", {
        "scenario": run.name,
        "config_hash": _config_hash(source),
        "numeric_mode": world_before.mode.value,
        "seed": None,
        "outputs": outputs,
    })
    return run.name


def _analysis_payload(trace: ExecutionTrace, world: WorldState,
                      principal: str | None,
                      beneficiary: str | None) -> dict:
    payload: dict = {"attribution": {}, "taint": {}}
    symbols = sorted({ev.asset.symbol for ev in trace.events})
    for sym in symbols:
        graph = build_graph(trace, world.assets[sym])
        if principal is not None:
            payload["taint"][sym] = {
                "poison": taint_poison(graph, {principal}),
                "haircut": taint_haircut(graph, {principal}),
            }
        if principal is not None and beneficiary is not None:
            payload["attribution"][sym] = \
                attribute(graph, principal, beneficiary).to_dict()
    return payload


def _infer_world(trace: ExecutionTrace) -> WorldState:
    """Best-effort world reconstruction from a bare trace.

    Infrastructure addresses are recognized from call records so the
    pairing logic excludes them; everything else stays unlabeled.
    """
    from .amm import NumericMode

    pool_like = {"swap", "flash_swap_borrow", "flash_swap_repay"}
    flash_like = {"flash_borrow", "flash_repay"}
    labels: dict[str, str] = {}
    for call in trace.calls:
        if call.kind in pool_like:
            labels[call.callee] = "PoolContract"
        elif call.kind in flash_like:
            labels[call.callee] = "FlashProvider"
    for call in trace.calls:
        if call.kind != "fill_limit_order":
            continue
        hops = [ev for ev in trace.events
                if ev.action_index == call.action_index]
        # maker -> settlement -> filler routing leaves the settlement as
        # the middle hop of the maker-asset leg
        for first, second in zip(hops, hops[1:]):
            if first.dst == second.src and first.asset == second.asset:
                labels[first.dst] = "SettlementContract"

    world = WorldState(mode=NumericMode.RATIONAL)
    seen: set[str] = set()
    for ev in trace.events:
        world.assets.setdefault(ev.asset.symbol, ev.asset)
        for node in (ev.src, ev.dst):
            if node not in seen:
                seen.add(node)
                world.add_address(Address(node,
                                          labels.get(node, "Unlabeled")))
    return world


@click.group()
def main():
    """Deterministic AMM bundle simulator and transfer-forensics toolkit."""


@main.command()
@click.argument("configs", nargs=-1, required=True)
@click.option("--out", default="runs", show_default=True,
              type=click.Path(file_okay=False),
              help="Output root; each scenario writes its own subdirectory.")
def simulate(configs, out):
    """Run scenarios (library names or YAML config paths)."""
    out_root = Path(out)
    try:
        names = [_simulate_one(s, out_root) for s in configs]
    except ConfigError as exc:
        raise UsageFailure(f"config error: {exc}") from exc
    for name in names:
        click.echo(f"simulated {name} -> {out_root / name}")


@main.command()
@click.argument("trace_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--principal", required=True)
@click.option("--beneficiary", required=True)
def analyze(trace_path, principal, beneficiary):
    """Transfer-layer vs semantic verdicts, side by side."""
    try:
        data = json.loads(Path(trace_path).read_text(encoding="utf-8"))
        trace = trace_from_dict(data)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError,
            AttributeError) as exc:
        raise UsageFailure(f"bad trace file: {exc}") from exc
    world = _infer_world(trace)

    recovered = []
    for sym in sorted({ev.asset.symbol for ev in trace.events}):
        graph = build_graph(trace, world.assets[sym])
        result = attribute(graph, principal, beneficiary)
        if result.recoverable:
            recovered.append((sym, result.p_to_b_min))
    if recovered:
        for sym, amount in recovered:
            click.echo(f"transfer-layer: RECOVERABLE {amount:.6g} {sym}")
    else:
        click.echo("transfer-layer: NOT RECOVERABLE")

    report = recover_migrations(trace, world, world)
    click.echo("semantic: " + report.summary().replace("\n", "\nsemantic: "))


@main.command()
@click.option("--observations", type=click.Path(exists=True, dir_okay=False),
              help="Observation JSON; defaults to the published "
                   "10-unit migration figures.")
def calibrate(observations):
    """Recover pre-execution pool reserves from pipeline observations."""
    if observations:
        try:
            obs = ObservationSet.from_dict(
                json.loads(Path(observations).read_text(encoding="utf-8")))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise UsageFailure(f"bad observations file: {exc}") \
                from exc
    else:
        obs = PUBLISHED_OBSERVATIONS
    try:
        calibrated = calibrate_reserves(obs)
    except InconsistentObservations as exc:
        click.echo(f"calibration failed: {exc}")
        raise SystemExit(EXIT_INCONSISTENT)
    click.echo(json.dumps(calibrated.to_dict(), indent=2, sort_keys=True))
    click.echo("")
    click.echo(f"{'equation':<16}{'relative residual':>20}")
    for name, value in sorted(calibrated.residuals.items()):
        click.echo(f"{name:<16}{value:>20.3e}")
    validation = replay_and_validate(calibrated, obs)
    click.echo("")
    click.echo(f"{'replayed quantity':<20}{'relative error':>18}")
    for key in sorted(validation):
        if key.endswith("_rel_err"):
            click.echo(f"{key[:-8]:<20}{validation[key]:>18.3e}")


@main.command()
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def report(run_dir):
    """Aggregate simulated runs into one JSON report plus a text summary."""
    root = Path(run_dir)
    runs = {}
    for manifest_path in sorted(root.glob("*/manifest.json")):
        scenario_dir = manifest_path.parent
        entry = {"manifest": json.loads(manifest_path.read_text())}
        for name in ("migration_report", "analysis"):
            path = scenario_dir / f"{name}.json"
            if path.is_file():
                entry[name] = json.loads(path.read_text())
        runs[scenario_dir.name] = entry
    if not runs:
        raise UsageFailure(f"no simulation runs under {run_dir}")

    aggregate = {"runs": runs}
    _dump_json(root / "report.json", aggregate)

    lines = [f"{'scenario':<36}{'efficiency':>12}{'migrations':>12}"]
    for name, entry in runs.items():
        mig = entry.get("migration_report", {})
        eff = mig.get("efficiency")
        eff_text = f"{eff:.4f}" if isinstance(eff, float) else "-"
        lines.append(f"{name:<36}{eff_text:>12}"
                     f"{len(mig.get('migrations', [])):>12}")
    text = "\n".join(lines) + "\n"
    (root / "report.txt").write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


@main.command()
def selftest():
    """Fast end-to-end consistency checks of the shipped scenarios."""
    failures = []

    def check(name: str, ok: bool) -> None:
        click.echo(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures.append(name)

    lib = library()
    run = lib["relocation_sym_zero_fee"]()
    world_after, trace = run.execute()
    deltas = net_deltas(trace)
    sym = run.plan.asset.symbol
    check("relocation principal/beneficiary deltas exact",
          deltas[(run.principal, sym)] == -run.plan.a
          and deltas[(run.beneficiary, sym)] == run.plan.a)
    check("pools restored exactly",
          all(exact_sign(world_after.pools[p].reserve0
                         - run.world.pools[p].reserve0) == 0
              and exact_sign(world_after.pools[p].reserve1
                             - run.world.pools[p].reserve1) == 0
              for p in run.world.pools))

    run_a = lib["peb_limit_order"]()
    run_b = lib["peb_flash_swap"]()
    _, trace_a = run_a.execute()
    _, trace_b = run_b.execute()

    def nonzero(deltas):
        return {k: v for k, v in deltas.items() if exact_sign(v) != 0}

    check("flash-loan and flash-swap fills net identically",
          nonzero(net_deltas(trace_a)) == nonzero(net_deltas(trace_b)))

    calibrated = calibrate_reserves(PUBLISHED_OBSERVATIONS)
    validation = replay_and_validate(calibrated, PUBLISHED_OBSERVATIONS)
    check("calibration replay within 1e-3",
          max(v for k, v in validation.items()
              if k.endswith("_rel_err")) <= 1e-3)

    rerun = lib["relocation_sym_zero_fee"]()
    _, trace_again = rerun.execute()
    check("replays byte-identical",
          trace_to_dict(trace, run.world.mode)
          == trace_to_dict(trace_again, rerun.world.mode))

    if failures:
        raise SystemExit(EXIT_INCONSISTENT)
    click.echo("selftest: all checks passed")


if __name__ == "__main__":
    main()
