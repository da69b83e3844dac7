"""Span recorder that wraps ammflow's public functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each public
function in every ``ammflow`` module namespace that holds it (so calls made
through ``from .amm import swap_exact_in`` are seen too), and replaces the
QuadExact arithmetic and comparison methods on the class.  ``uninstall``
puts the originals back.

A span is ``(name_id, start_ns, end_ns, parent_index, op_id)``.  Spans stay
in memory; ``dump`` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# public functions to wrap, by layer (the ammflow module of that name)
TRACED_FUNCTIONS = {
    "numeric": ("make_exact", "rational_sqrt", "exact_sqrt",
                "solve_quadratic", "parse_exact"),
    "amm": ("swap_exact_in", "solve_input_for_output", "spot_price",
            "parse_amount", "format_amount"),
    "planner": ("plan_relocation", "build_relocation_bundle",
                "solve_flash_amount", "dislocation_output",
                "extraction_result", "max_extractable", "solve_extraction",
                "argmax_extraction_int"),
    "engine": ("execute_bundle", "net_deltas", "trace_to_dict",
               "trace_to_json", "trace_from_dict"),
    "graph": ("build_graph", "attribute", "taint_poison", "taint_haircut",
              "canonical_form", "trace_canonical_form", "to_dot"),
    "semantic": ("recover_migrations", "loss_decomposition"),
    "calibration": ("calibrate_reserves", "replay_and_validate",
                    "generate_observations"),
    "scenarios": ("build_relocation_scenario",
                  "build_calibrated_relocation_scenario",
                  "build_peb_scenario", "build_benign_twin",
                  "build_benign_arbitrage", "build_benign_routing",
                  "load_scenario_config"),
}

QUAD_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                "__eq__", "__lt__", "__le__", "__gt__", "__ge__")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.op)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper

    def install(self, hooks: dict | None = None) -> None:
        """Wrap every traced function of every loaded ammflow module."""
        hooks = hooks or {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "ammflow" or n.startswith("ammflow."))
                   and m is not None]
        for layer, funcs in TRACED_FUNCTIONS.items():
            home = sys.modules.get(f"ammflow.{layer}")
            if home is None:
                continue
            for func in funcs:
                orig = getattr(home, func)
                name = f"{layer}.{func}"
                wrapped = self._wrap(name, orig, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))
        numeric = sys.modules["ammflow.numeric"]
        quad = numeric.QuadExact
        for method in QUAD_METHODS:
            orig = quad.__dict__[method]
            setattr(quad, method,
                    self._wrap(f"numeric.QuadExact.{method}", orig))
            self._undo.append((quad, method, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def dump(self, path) -> None:
        payload = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                   "names": self.names, "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def summarize(spans: list, names: list[str],
              groups: dict[str, frozenset] | None = None) -> dict:
    """Per span name: calls, inclusive ns and self ns; per layer: self ns
    and the inclusive ns of spans not nested in the same layer; per group
    of span names: the inclusive ns of group spans whose parent is not in
    the group.

    Self time is a span's duration minus the part its child spans cover;
    spans nest strictly on one thread, so that part is the children's sum.
    """
    child_ns = [0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    layer_of = [n.split(".", 1)[0] for n in names]
    calls = defaultdict(int)
    incl = defaultdict(int)
    self_ns = defaultdict(int)
    layer_self = defaultdict(int)
    layer_outer = defaultdict(int)
    group_ns = dict.fromkeys(groups or {}, 0)
    for i, (nid, t0, t1, parent, _) in enumerate(spans):
        name = names[nid]
        dur = t1 - t0
        own = dur - child_ns[i]
        calls[name] += 1
        incl[name] += dur
        self_ns[name] += own
        layer = layer_of[nid]
        layer_self[layer] += own
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        if parent_name is None or layer_of[spans[parent][0]] != layer:
            layer_outer[layer] += dur
        for group, members in (groups or {}).items():
            if name in members and parent_name not in members:
                group_ns[group] += dur
    return {"calls": dict(calls), "incl_ns": dict(incl),
            "self_ns": dict(self_ns), "layer_self_ns": dict(layer_self),
            "layer_outer_ns": dict(layer_outer), "group_ns": group_ns}
