"""Command-line front end for reproducible simulation runs and analysis.

Every machine-readable output is JSON with stable key order (or DOT for
graphs) and carries no timestamps, so a rerun with the same inputs is
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from .calibration import (InconsistentObservations, ObservationSet,
                          PUBLISHED_OBSERVATIONS, calibrate_reserves,
                          replay_and_validate)
from .engine import EngineError, ExecutionTrace, trace_from_dict, trace_to_json
from .graph import (TransferGraph, attribute, build_graph, taint_haircut,
                    taint_poison, to_dot)
from .numeric import REQUIRED, read
from .scenarios import ConfigError, library, load_scenario_config
from .semantic import loss_decomposition, recover_migrations

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


class UsageFailure(Exception):
    """Configuration or input-file problem; exits with code 2."""


def _dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _build_run(source: str):
    """The run that source names, and the sha256 of what it reads: a
    library name wins over a file."""
    lib = library()
    if source in lib:
        return lib[source](), hashlib.sha256(source.encode()).hexdigest()
    if not Path(source).is_file():
        raise ConfigError(
            f"{source!r} is neither a library scenario nor a config file; "
            f"library scenarios: {', '.join(sorted(lib))}")
    return load_scenario_config(source), \
        hashlib.sha256(Path(source).read_bytes()).hexdigest()


def _simulate_one(run, config_hash: str, out_root: Path) -> None:
    try:  # run.world stays the pre-state
        world_after, trace = run.execute()
    except EngineError as exc:
        raise ConfigError(f"bundle does not execute: {exc}") from exc
    out_dir = out_root / run.name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageFailure(f"cannot create {out_dir}: {exc.strerror}") \
            from exc

    (out_dir / "trace.json").write_text(
        trace_to_json(trace, run.world.mode), encoding="utf-8")
    labels = {aid: a.label for aid, a in world_after.addresses.items()
              if a.label != "Unlabeled"}
    graphs = _asset_graphs(trace)
    outputs = ["trace.json", "migration_report.json", "analysis.json",
               "manifest.json"]
    for sym, graph in graphs.items():
        dot_name = f"transfers_{sym}.dot"
        (out_dir / dot_name).write_text(to_dot(graph, labels),
                                        encoding="utf-8")
        outputs.append(dot_name)

    report_dict = recover_migrations(trace, None, None).to_dict()
    if run.plan is not None:
        report_dict["loss_decomposition"] = loss_decomposition(
            trace, run.plan, run.world)
        _dump_json(out_dir / "plan.json", run.plan.to_dict())
        outputs.append("plan.json")
    _dump_json(out_dir / "migration_report.json", report_dict)

    _dump_json(out_dir / "analysis.json",
               _analysis_payload(graphs, run.principal, run.beneficiary))
    outputs.sort()
    _dump_json(out_dir / "manifest.json", {
        "scenario": run.name,
        "config_hash": config_hash,
        "numeric_mode": run.world.mode.value,
        "seed": None,
        "outputs": outputs,
    })


def _asset_graphs(trace: ExecutionTrace) -> dict[str, TransferGraph]:
    """The transfer graph of each asset the trace moves, by symbol."""
    assets = {ev.asset.symbol: ev.asset for ev in trace.events}
    return {sym: build_graph(trace, assets[sym]) for sym in sorted(assets)}


def _analysis_payload(graphs: dict[str, TransferGraph],
                      principal: str | None,
                      beneficiary: str | None) -> dict:
    payload: dict = {"attribution": {}, "taint": {}}
    for sym, graph in graphs.items():
        if principal is not None:
            payload["taint"][sym] = {
                "poison": taint_poison(graph, {principal}),
                "haircut": taint_haircut(graph, {principal}),
            }
        if principal is not None and beneficiary is not None:
            payload["attribution"][sym] = \
                attribute(graph, principal, beneficiary).to_dict()
    return payload


def _input_file(path: str, role: str) -> Path:
    """An input path that must name an existing file."""
    file = Path(path)
    if not file.is_file():
        raise UsageFailure(f"{role} {path} is not an existing file")
    return file


def simulate(configs, out):
    """Run scenarios (library names or YAML config paths)."""
    out_root = Path(out)
    if out_root.exists() and not out_root.is_dir():
        raise UsageFailure(f"--out {out} is not a directory")
    try:  # every source is built, and each name checked, before a write
        runs = [_build_run(source) for source in configs]
        names = [run.name for run, _ in runs]
        if twice := sorted({name for name in names if names.count(name) > 1}):
            raise UsageFailure(f"two sources name the scenario {twice[0]}")
        for run, config_hash in runs:
            _simulate_one(run, config_hash, out_root)
    except ConfigError as exc:
        raise UsageFailure(f"config error: {exc}") from exc
    for name in names:
        print(f"simulated {name} -> {out_root / name}")


def analyze(trace_path, principal, beneficiary):
    """Transfer-layer vs semantic verdicts, side by side."""
    path = _input_file(trace_path, "trace file")
    try:  # net_deltas refuses a sum across two quadratic fields
        trace = trace_from_dict(json.loads(path.read_text(encoding="utf-8")))
        report = recover_migrations(trace, None, None)
    except (ValueError, RecursionError) as exc:  # or nests too deep
        raise UsageFailure(f"bad trace file: {exc}") from exc

    results = {sym: attribute(graph, principal, beneficiary)
               for sym, graph in _asset_graphs(trace).items()}
    recovered = [(sym, r.p_to_b_min) for sym, r in results.items()
                 if r.recoverable]
    for sym, amount in recovered:
        print(f"transfer-layer: RECOVERABLE {amount:.6g} {sym}")
    if not recovered:
        print("transfer-layer: NOT RECOVERABLE")
    print("semantic: " + report.summary().replace("\n", "\nsemantic: "))


def calibrate(observations):
    """Recover pre-execution pool reserves from pipeline observations."""
    if observations:
        path = _input_file(observations, "observations file")
        try:
            obs = ObservationSet.from_dict(
                json.loads(path.read_text(encoding="utf-8")))
        except (ValueError, RecursionError) as exc:
            raise UsageFailure(f"bad observations file: {exc}") from exc
    else:
        obs = PUBLISHED_OBSERVATIONS
    try:
        calibrated = calibrate_reserves(obs)
    except InconsistentObservations as exc:
        print(f"calibration failed: {exc}")
        return EXIT_INCONSISTENT
    print(json.dumps(calibrated.to_dict(), indent=2, sort_keys=True))
    print()
    print(f"{'equation':<16}{'relative residual':>20}")
    for name, value in sorted(calibrated.residuals.items()):
        print(f"{name:<16}{value:>20.3e}")
    validation = replay_and_validate(calibrated, obs)
    print()
    print(f"{'replayed quantity':<20}{'relative error':>18}")
    for key in sorted(validation):
        if key.endswith("_rel_err"):
            print(f"{key[:-8]:<20}{validation[key]:>18.3e}")


# the run files report reads; it copies each as it is into report.json
_RUN_FILES = {
    "manifest": {"scenario": (str, REQUIRED), "config_hash": (str, REQUIRED),
                 "numeric_mode": (str, REQUIRED), "seed": (object, REQUIRED),
                 "outputs": ([str], REQUIRED)},
    "migration_report": {
        "migrations": (list, REQUIRED), "roles": (dict, REQUIRED),
        "efficiency": (object, REQUIRED), "atomic": (bool, REQUIRED),
        "executor_profit": (dict, REQUIRED), "unresolved": (list, REQUIRED),
        "loss_decomposition": (dict, None)},
    "analysis": {"attribution": (dict, REQUIRED), "taint": (dict, REQUIRED)},
}


def _read_run_file(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        read(_RUN_FILES[path.stem], data)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageFailure(f"bad run file {path}: {exc}") from exc
    return data


def report(run_dir):
    """Aggregate simulated runs into one JSON report plus a text summary."""
    root = Path(run_dir)
    if not root.is_dir():
        raise UsageFailure(f"run dir {run_dir} is not an existing directory")
    # every run file is read and checked before anything is written
    runs = {}
    for manifest_path in sorted(root.glob("*/manifest.json")):
        scenario_dir = manifest_path.parent
        entry = {"manifest": _read_run_file(manifest_path)}
        for name in ("migration_report", "analysis"):
            path = scenario_dir / f"{name}.json"
            if path.is_file():
                entry[name] = _read_run_file(path)
        runs[scenario_dir.name] = entry
    if not runs:
        raise UsageFailure(f"no simulation runs under {run_dir}")

    lines = [f"{'scenario':<36}{'efficiency':>12}{'migrations':>12}"]
    for name, entry in runs.items():
        mig = entry.get("migration_report", {})
        eff = mig.get("efficiency")
        eff_text = f"{eff:.4f}" if isinstance(eff, float) else "-"
        lines.append(f"{name:<36}{eff_text:>12}"
                     f"{len(mig.get('migrations', [])):>12}")
    text = "\n".join(lines) + "\n"
    _dump_json(root / "report.json", {"runs": runs})
    (root / "report.txt").write_text(text, encoding="utf-8")
    print(text, end="")


def selftest():
    """Check the paper's claims on the library scenarios."""
    from . import claims  # only selftest reads the claims

    lib = library()
    runs = [make() for make in lib.values()]
    relocations = [run for run in runs if run.plan is not None]
    fills = [run for run in runs if run.plan is None and run.principal]
    subjects = {
        claims.zero_fee_relocation_exact: [
            run for run in relocations
            if not any(p.fee_bps for p in run.world.pools.values())],
        claims.observer_gap: relocations + fills,
        claims.peb_separation: fills,
        claims.twin_indistinguishable: relocations,
        claims.taint_divergence: relocations}
    results = [(claim.__name__, run.name, claim(run))
               for claim, chosen in subjects.items() for run in chosen]
    results += [("flash_equivalence", "the library fill",
                 claims.flash_equivalence()),
                ("calibration_replays", "the published observations",
                 claims.calibration_replays(PUBLISHED_OBSERVATIONS))]
    results += [("deterministic_replay", name,
                 claims.deterministic_replay(make))
                for name, make in lib.items()]
    for claim, subject, failed in results:
        print(f"FAIL {claim} on {subject}: {', '.join(failed)}" if failed
              else f"PASS {claim} on {subject}")
    if any(failed for _, _, failed in results):
        return EXIT_INCONSISTENT
    print("selftest: all checks passed")


@functools.cache  # parse_args leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ammflow",
        description="Deterministic AMM bundle simulator and "
                    "transfer-forensics toolkit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__, help=run.__doc__,
                                  description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    sim = command(simulate)
    sim.add_argument("configs", nargs="+", metavar="CONFIGS")
    sim.add_argument("--out", default="runs", metavar="DIRECTORY",
                     help="Output root; each scenario writes its own "
                          "subdirectory. (default: %(default)s)")
    ana = command(analyze)
    ana.add_argument("trace_path", metavar="TRACE_PATH")
    ana.add_argument("--principal", required=True)
    ana.add_argument("--beneficiary", required=True)
    command(calibrate).add_argument(
        "--observations", metavar="FILE",
        help="Observation JSON; defaults to the published 10-unit "
             "migration figures.")
    command(report).add_argument("run_dir", metavar="RUN_DIR")
    command(selftest)
    return parser


def main(argv=None, standalone_mode=True):
    """Run the ``ammflow`` command line on argv (default: sys.argv[1:]).

    Returns the exit status when standalone_mode is false; otherwise
    raises SystemExit with it.
    """
    try:
        args = vars(_parser().parse_args(argv))
    except SystemExit as exc:  # argparse has printed the help or the error
        status = exc.code
    else:
        run = args.pop("run")
        try:
            status = run(**args) or EXIT_OK
        except UsageFailure as exc:
            print(f"Error: {exc}", file=sys.stderr)
            status = EXIT_USAGE
    if standalone_mode:
        raise SystemExit(status)
    return status


if __name__ == "__main__":
    main()
