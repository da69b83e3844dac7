"""Layered benchmark for ammflow.

    python3 bench/run.py --workload sweep_rational --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30 --trace 1

One process runs one workload as a closed loop with one client.  With
``--trace 0`` it measures for ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced rounds over a
fixed set of operations and reports per-layer metrics taken from spans
(see spans.py).  Human-readable lines come first; the last line of standard
output is one JSON object.  ``--all`` runs every workload, each in its own
child process, and prints a summary.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tomllib
from collections import defaultdict, deque
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUPS = 5
WARMUP_SALT = 0x5EED
PROBE_REPS = 3
REFUSAL_CHECK = "attribute_completes"

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("numeric", "amm", "planner", "engine", "graph", "semantic",
          "calibration", "scenarios")

PER_LAYER = {
    "numeric.quad_ops": "count",
    "numeric.make_exact.calls": "count",
    "numeric.rational_sqrt.calls": "count",
    "amm.swap_exact_in.calls": "count",
    "amm.swap_exact_in.self_ms": "ms",
    "planner.plan_relocation.ms": "ms",
    "planner.extraction_result.calls": "count",
    "planner.dislocation_output.calls": "count",
    "engine.execute_bundle.ms": "ms",
    "engine.events": "count",
    "engine.trace_roundtrip.ms": "ms",
    "graph.attribute.ms": "ms",
    "graph.attribute.failed": "count",
    "graph.attribute.over_bound": "count",
    "graph.taint.ms": "ms",
    "graph.canonical_form.ms": "ms",
    "semantic.recover_migrations.ms": "ms",
    "calibration.calibrate_reserves.ms": "ms",
    "calibration.newton_iterations": "count",
    "calibration.replay_max_rel_err": "ratio",
    "scenarios.library_build.ms": "ms",
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.simulate_inproc.ms": "ms",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "repo.src_lines": "lines",
    "repo.runtime_deps": "count",
}

SPAN_GROUPS = {
    "engine.trace_roundtrip": frozenset({
        "engine.trace_to_dict", "engine.trace_to_json",
        "engine.trace_from_dict"}),
    "graph.taint": frozenset({"graph.taint_poison", "graph.taint_haircut"}),
    "graph.canonical_form": frozenset({
        "graph.canonical_form", "graph.trace_canonical_form"}),
}

ALL_MODULES = tuple(f"ammflow.{layer}" for layer in LAYERS)


# -- results of one loop -------------------------------------------------


class Outcome:
    """Per-operation check results of one loop."""

    def __init__(self, checks):
        self.attempted = 0
        self.failed = 0
        self.check_failures = dict.fromkeys(checks, 0)
        self.raised: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    def record(self, wl, state, item, result, error) -> None:
        self.attempted += 1
        if error is not None:
            self.raised[type(error).__name__] += 1
            self.failed += 1
            return
        failed = wl.check(state, item, result)
        if wl.counters is not None:
            for name, n in wl.counters(item, result).items():
                self.counters[name] += n
        for name in failed:
            self.check_failures[name] += 1
        self.failed += bool(failed)

    def outputs_correct(self) -> bool:
        """No operation raised and every output passed its checks; a
        refused attribution (a failed operation) is not a wrong output."""
        return not self.raised and all(
            n == 0 for name, n in self.check_failures.items()
            if name != REFUSAL_CHECK)


def cpu_seconds() -> float:
    """CPU time of this process plus that of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def call_op(wl, state, item):
    """Run one operation; returns (wall s, CPU s, result, error)."""
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        result, error = wl.op(state, item), None
    except Exception as exc:  # counted as a failed operation
        result, error = None, exc
    return time.perf_counter() - t0, cpu_seconds() - c0, result, error


def reference_kernel() -> float:
    """CPU seconds of fixed stdlib work (Fraction and int arithmetic): how
    fast this core runs Python right now."""
    c0 = time.process_time()
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 11) / (i + 1)
    total = 0
    for i in range(300):
        total += (i * 2654435761) % 1000003
    return time.process_time() - c0


REFERENCE_IMPORTS = "import decimal, fractions, hashlib, json"
KERNEL_NOMINAL_S = 2.5e-4
INTERPRETER_NOMINAL_S = 0.05


def reference_interpreter() -> float:
    """CPU seconds of a fresh interpreter importing stdlib modules: how fast
    this core starts and loads a Python program right now."""
    c0 = cpu_seconds()
    subprocess.run([sys.executable, "-I", "-B", "-c", REFERENCE_IMPORTS],
                   cwd=ROOT, check=True)
    return cpu_seconds() - c0


class Speed:
    """Recent timings of a reference probe.

    ``nominal_s`` is the probe's time on an idle core of a 2-core x86-64 VM
    with Python 3.11.7; it only fixes the unit of the scaled times.
    """

    def __init__(self, probe, nominal_s: float, every_s: float):
        self.probe = probe
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.recent = deque(maxlen=5)
        self.last = -math.inf

    def sample(self) -> None:
        self.recent.append(self.probe())
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last > self.every_s:
            self.sample()

    def scale(self) -> float:
        """Factor mapping a time measured now to nominal speed."""
        return self.nominal_s / statistics.median(self.recent)


def speed_reference(wl) -> Speed:
    """The interpreter probe for work done in child processes, the kernel
    probe for work done in this one."""
    if wl.child_process:
        return Speed(reference_interpreter, INTERPRETER_NOMINAL_S, 1.0)
    return Speed(reference_kernel, KERNEL_NOMINAL_S, 0.02)


def timed_loop(wl, state, seed, seconds, outcome, speed):
    """Run fresh inputs for `seconds`; returns each operation's wall time
    and its time scaled to nominal speed by the kernel timings around it."""
    wall, scaled = [], []
    deadline = time.perf_counter() + seconds
    items = wl.inputs(seed)
    while time.perf_counter() < deadline:
        item = next(items)
        speed.maybe_sample()
        dt, cpu, result, error = call_op(wl, state, item)
        speed.maybe_sample()
        wall.append(dt)
        scaled.append(cpu * speed.scale())
        outcome.record(wl, state, item, result, error)
    return wall, scaled


def nearest_rank(sorted_values, pct):
    idx = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


TAIL_CAP = 90.0


def tail_percentile(n: int) -> float:
    """Highest percentile, up to TAIL_CAP, with at least 10 samples beyond.

    The cap keeps the tail out of the few operations that a burst of load
    from other tenants hits harder than the speed scaling can follow.
    """
    if n <= 10:
        return 100.0
    return min(TAIL_CAP, math.floor(1000 * (n - 10) / n) / 10)


# -- set-up ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AMMFLOW_PARALLEL", None)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_import_seconds(modules) -> float:
    """Seconds a fresh interpreter takes to import `modules`."""
    code = ("import time\nt = time.perf_counter()\n"
            f"import {', '.join(modules)}\n"
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, check=True)
    return float(proc.stdout.decode().split()[-1])


def interpreter_wall_seconds(code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - t0


def prepare(wl, ctx, warm):
    """Workload state plus warm-up ops, whose outcomes go to `warm`."""
    state = wl.setup(ctx)
    for item in itertools.islice(wl.inputs(ctx.seed ^ WARMUP_SALT),
                                 wl.warmup_ops):
        _, _, result, error = call_op(wl, state, item)
        warm.record(wl, state, item, result, error)
    return state


# -- untraced run ------------------------------------------------------------


def run_untraced(wl, ctx, seconds):
    if not wl.child_process:
        for mod in wl.modules:
            __import__(mod)
    setups, wall_setups, imports = [], [], []
    warm = Outcome(wl.checks)
    speed = speed_reference(wl)

    def set_up():
        """A fresh interpreter imports the workload's modules, then this
        process builds the workload state and runs the warm-up."""
        speed.sample()
        t0, c0 = time.perf_counter(), cpu_seconds()
        imports.append(cold_import_seconds(wl.modules))
        state = prepare(wl, ctx, warm)
        cpu = cpu_seconds() - c0
        wall_setups.append(time.perf_counter() - t0)
        speed.sample()
        setups.append(cpu * speed.scale())
        return state

    for _ in range(SETUPS):
        state = set_up()
    outcome = Outcome(wl.checks)
    wall, latencies = timed_loop(wl, state, ctx.seed, seconds, outcome, speed)
    wall.sort()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if wl.child_process
                               else resource.RUSAGE_SELF)
    lat = sorted(latencies)
    n = len(lat)
    p_tail = tail_percentile(n)
    metrics = {
        "throughput_ops_s": (n - outcome.failed) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * nearest_rank(lat, p_tail),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    beyond = n - math.ceil(p_tail / 100 * n)
    notes = {
        "samples": n,
        "tail_percentile": p_tail,
        "tail_beyond": beyond,
        "error_rate": outcome.failed / max(1, outcome.attempted),
        "setup_runs_s": setups,
        "setup_import_s": imports,
        "warmup_failed": warm.failed,
        "wall_clock": {
            "throughput_ops_s": (n - outcome.failed) / sum(wall),
            "latency_p50_ms": 1000 * statistics.median(wall),
            "latency_tail_ms": 1000 * nearest_rank(wall, p_tail),
            "setup_s": statistics.median(wall_setups)},
        "busy_s": sum(lat),
    }
    return metrics, notes, outcome, warm


# -- traced run ----------------------------------------------------------------


def tracer_hooks(workloads_mod):
    def events(tracer, args, result):
        tracer.counts["engine.events"] += len(result[1].events)

    def attribute(tracer, args, result):
        graph, principal = args[0], args[1]
        start = workloads_mod.principal_start(graph.edges, principal)
        if workloads_mod.over_bound(result, start):
            tracer.counts["graph.attribute.over_bound"] += 1

    def newton(tracer, args, result):
        tracer.counts["calibration.newton_iterations"] += result.iterations

    def replay(tracer, args, result):
        worst = max(v for k, v in result.items() if k.endswith("_rel_err"))
        key = "calibration.replay_max_rel_err"
        tracer.maxima[key] = max(tracer.maxima.get(key, 0.0), worst)

    return {"engine.execute_bundle": events, "graph.attribute": attribute,
            "calibration.calibrate_reserves": newton,
            "calibration.replay_and_validate": replay}


def run_round(wl, state, items, outcome, tracer=None):
    busy = 0.0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = i
            tracer.enabled = True
        dt, _, result, error = call_op(wl, state, item)
        if tracer is not None:
            tracer.enabled = False
        busy += dt
        outcome.record(wl, state, item, result, error)
    return busy


def layer_metrics(summary, tracer, n_ops, scale) -> dict:
    calls, incl = summary["calls"], summary["incl_ns"]
    self_ns, layer_self = summary["self_ns"], summary["layer_self_ns"]

    def ms(ns):
        return ns / 1e6 / n_ops * scale

    m = {
        "numeric.quad_ops": sum(v for k, v in calls.items()
                                if k.startswith("numeric.QuadExact.")),
        "numeric.make_exact.calls": calls.get("numeric.make_exact", 0),
        "numeric.rational_sqrt.calls": calls.get("numeric.rational_sqrt", 0),
        "amm.swap_exact_in.calls": calls.get("amm.swap_exact_in", 0),
        "amm.swap_exact_in.self_ms": ms(self_ns.get("amm.swap_exact_in", 0)),
        "planner.plan_relocation.ms":
            ms(incl.get("planner.plan_relocation", 0)),
        "planner.extraction_result.calls":
            calls.get("planner.extraction_result", 0),
        "planner.dislocation_output.calls":
            calls.get("planner.dislocation_output", 0),
        "engine.execute_bundle.ms": ms(incl.get("engine.execute_bundle", 0)),
        "engine.events": tracer.counts.get("engine.events", 0),
        "engine.trace_roundtrip.ms":
            ms(summary["group_ns"]["engine.trace_roundtrip"]),
        "graph.attribute.ms": ms(incl.get("graph.attribute", 0)),
        "graph.attribute.failed": tracer.counts.get("graph.attribute.raised",
                                                    0),
        "graph.attribute.over_bound":
            tracer.counts.get("graph.attribute.over_bound", 0),
        "graph.taint.ms": ms(summary["group_ns"]["graph.taint"]),
        "graph.canonical_form.ms":
            ms(summary["group_ns"]["graph.canonical_form"]),
        "semantic.recover_migrations.ms":
            ms(incl.get("semantic.recover_migrations", 0)),
        "calibration.calibrate_reserves.ms":
            ms(incl.get("calibration.calibrate_reserves", 0)),
        "calibration.newton_iterations":
            tracer.counts.get("calibration.newton_iterations", 0),
        "calibration.replay_max_rel_err":
            tracer.maxima.get("calibration.replay_max_rel_err", 0.0),
        "scenarios.library_build.ms":
            ms(summary["layer_outer_ns"].get("scenarios", 0)),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = ms(layer_self.get(layer, 0))
    return m


COUNT_METRICS = tuple(k for k, u in PER_LAYER.items() if u == "count"
                      and not k.startswith("repo."))


def run_traced(wl, ctx, seconds):
    import spans
    import workloads

    modules = ALL_MODULES + (("ammflow.cli",) if wl.child_process else ())
    for mod in modules:
        __import__(mod)
    warm = Outcome(wl.checks)
    state = prepare(wl, ctx, warm)
    if wl.child_process:
        state.in_process = True
    items = list(itertools.islice(wl.inputs(ctx.seed), wl.trace_ops))
    hooks = tracer_hooks(workloads)
    outcome = Outcome(wl.checks)
    untraced, traced, rounds = [], [], []
    first_tracer = None
    speed = Speed(reference_kernel, KERNEL_NOMINAL_S, 0.0)

    def scaled(busy_s):
        """Busy time of the round just run, scaled to nominal speed by the
        kernel timed before and after it."""
        for _ in range(2):
            speed.sample()
        return busy_s * speed.scale()

    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(3):
            speed.sample()
        untraced.append(scaled(run_round(wl, state, items, outcome)))
        tracer = spans.Tracer()
        tracer.install(hooks)
        try:
            for _ in range(3):
                speed.sample()
            busy = run_round(wl, state, items, outcome, tracer)
        finally:
            tracer.uninstall()
        traced.append(scaled(busy))
        summary = spans.summarize(tracer.spans, tracer.names, SPAN_GROUPS)
        rounds.append(layer_metrics(summary, tracer, len(items),
                                    speed.scale()))
        first_tracer = first_tracer or tracer
        if time.perf_counter() >= deadline:
            break
    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in rounds[0]}
    # counts come from the first round; every later round must repeat them
    for name in COUNT_METRICS:
        metrics[name] = rounds[0][name]
    counts_repeat = all(r[name] == rounds[0][name]
                        for r in rounds for name in COUNT_METRICS)
    metrics["trace.overhead_ratio"] = \
        statistics.median(traced) / statistics.median(untraced)
    cli = {"cli.interp_start_ms": 0.0, "cli.import_ms": 0.0,
           "cli.simulate_inproc.ms": 0.0}
    if wl.child_process:
        start = statistics.median(
            interpreter_wall_seconds("pass") for _ in range(PROBE_REPS))
        imported = statistics.median(
            interpreter_wall_seconds("import ammflow.cli")
            for _ in range(PROBE_REPS))
        cli = {"cli.interp_start_ms": 1000 * start,
               "cli.import_ms": 1000 * (imported - start),
               "cli.simulate_inproc.ms":
                   1000 * statistics.median(untraced) / len(items)}
    metrics.update(cli)
    metrics.update(repo_metrics())
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans_{wl.name}_seed{ctx.seed}.json.gz"
    first_tracer.dump(spans_path)
    notes = {
        "rounds": len(rounds),
        "ops_per_round": len(items),
        "counts_repeat": counts_repeat,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_recorded": len(first_tracer.spans),
        "warmup_failed": warm.failed,
    }
    return {k: metrics[k] for k in PER_LAYER}, notes, outcome, warm


def repo_metrics() -> dict:
    src = ROOT / "src" / "ammflow"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in src.rglob("*.py"))
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {"repo.src_lines": lines,
            "repo.runtime_deps": len(project.get("dependencies", []))}


# -- output ----------------------------------------------------------------


def print_outcome(wl, outcome, warm):
    for name, bad in outcome.check_failures.items():
        verdict = "PASS" if bad == 0 else "FAIL"
        print(f"check {name:<34} {verdict}  "
              f"{outcome.attempted - bad}/{outcome.attempted} ops")
    for name, n in sorted(outcome.raised.items()):
        print(f"check {'op raised ' + name:<34} FAIL  {n} ops")
    for name, n in sorted(outcome.counters.items()):
        print(f"count {name:<34} {n}")
    if not warm.outputs_correct():
        print(f"check {'warm-up outputs':<34} FAIL")


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the one whose speed
    the reference kernel measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    pin_to_one_cpu()
    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    ctx = workloads.Context(root=ROOT, seed=args.seed, workdir=OUT_DIR)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} (python {sys.version.split()[0]}, "
          f"nproc {os.cpu_count()}, gated {wl.gated})")
    if args.trace:
        metrics, notes, outcome, warm = run_traced(wl, ctx, args.seconds)
        units = PER_LAYER
    else:
        metrics, notes, outcome, warm = run_untraced(wl, ctx, args.seconds)
        units = END_TO_END
    print_outcome(wl, outcome, warm)
    if not args.trace:
        print(f"{'error_rate':<34} {notes['error_rate']:.6g} ratio "
              f"({outcome.failed}/{outcome.attempted} ops)")
        notes.update(repo_metrics())
    for name, value in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = (f" (p{notes['tail_percentile']:g}, "
                     f"{notes['tail_beyond']} beyond)")
        if name == "setup_s":
            extra = f" (median of {SETUPS} set-ups)"
        n = notes.get("samples") or f"{notes.get('rounds')} rounds"
        print(f"{name:<34} {value:.6g} {units[name]}{extra} [n={n}]")
    for key, value in notes.items():
        if key not in ("samples",):
            print(f"note {key}: {value}")
    correct = outcome.outputs_correct() and warm.outputs_correct()
    if args.trace:
        correct = correct and notes["counts_repeat"]
    result = {
        "correct": bool(correct),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        status = status or proc.returncode
        if proc.returncode == 0 and lines:
            results[name] = json.loads(lines[-1])
    print()
    units = PER_LAYER if args.trace else END_TO_END
    header = f"{'metric':<34} {'unit':<6}" + "".join(
        f"{n[:16]:>18}" for n in results)
    print(header)
    for metric, unit in units.items():
        row = "".join(f"{r['metrics'][metric]['value']:>18.6g}"
                      for r in results.values())
        print(f"{metric:<34} {unit:<6}{row}")
    for label, key in (("correct", "correct"), ("attempted", "attempted"),
                       ("failed", "failed")):
        print(f"{label:<41}" + "".join(f"{str(r[key]):>18}"
                                       for r in results.values()))
    if not args.trace:
        print(f"{'error_rate':<34} {'ratio':<6}" + "".join(
            f"{r['failed'] / r['attempted']:>18.6g}" for r in results.values()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one child process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ammflow" / "__init__.py").is_file() \
            or not (ROOT / "pyproject.toml").is_file():
        print(f"bench: no ammflow source tree at {ROOT}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
