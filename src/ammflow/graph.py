"""Transfer-layer observer: per-asset graphs, taint rules, attribution.

Attribution operationalizes "uniquely recoverable" as uniqueness of
parcel-level flow decompositions under time-ordered conservation: every
edge's parcels are assigned to either principal-origin value or other
value, an assignment is valid when no node forwards principal value it has
not yet received, and the principal-to-beneficiary amount is scanned over
the full set of valid assignments by exact enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .amm import AssetId
from .engine import ExecutionTrace
from .numeric import QuadExact


class GraphError(Exception):
    pass


class BudgetExceeded(GraphError):
    """Exact enumeration too large; coarsen the quantization."""


@dataclass(frozen=True)
class GraphEdge:
    seq: int
    src: str
    dst: str
    amount: object  # exact number or float after quantization


@dataclass
class TransferGraph:
    asset: AssetId
    edges: list[GraphEdge] = field(default_factory=list)

    @property
    def nodes(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.edges:
            seen.setdefault(e.src)
            seen.setdefault(e.dst)
        return list(seen)


@dataclass(frozen=True)
class AttributionResult:
    p_to_b_min: float
    p_to_b_max: float
    decomposition_count: int
    recoverable: bool
    parcel_size: float

    def to_dict(self) -> dict:
        return {
            "p_to_b_min": self.p_to_b_min,
            "p_to_b_max": self.p_to_b_max,
            "decomposition_count": self.decomposition_count,
            "recoverable": self.recoverable,
            "parcel_size": self.parcel_size,
        }


def build_graph(trace: ExecutionTrace, asset: AssetId) -> TransferGraph:
    """One edge per transfer event of the asset, trace order preserved."""
    edges = [GraphEdge(ev.seq, ev.src, ev.dst, ev.amount)
             for ev in trace.events if ev.asset == asset]
    return TransferGraph(asset=asset, edges=edges)


def _implicit_initials(parcels: list[tuple[str, str, int]]) -> dict[str, int]:
    """Per node, the largest prefix deficit: outflow not covered by inflow.

    That deficit is the node's implicit initial balance; for intermediaries
    it counts as unattributed value.
    """
    held: dict[str, int] = {}
    initial: dict[str, int] = {}
    for src, dst, n in parcels:
        have = held.get(src, 0)
        if have < n:
            initial[src] = initial.get(src, 0) + (n - have)
            have = n
        held[src] = have - n
        held[dst] = held.get(dst, 0) + n
    return initial


def default_quantization(graph: TransferGraph,
                         max_parcels_per_edge: int = 64) -> float:
    """Parcel size: exact gcd when the amounts are rational and small
    enough, otherwise a fraction of the largest edge amount."""
    amounts = [e.amount for e in graph.edges]
    if not amounts:
        return 1.0
    if all(not isinstance(a, QuadExact) for a in amounts):
        fracs = [Fraction(a) for a in amounts]
        num_gcd = math.gcd(*(f.numerator for f in fracs))
        den_lcm = math.lcm(*(f.denominator for f in fracs))
        q = Fraction(num_gcd, den_lcm)
        if all(f / q <= max_parcels_per_edge for f in fracs):
            return float(q)
    return float(max(float(a) for a in amounts)) / max_parcels_per_edge


def attribute(graph: TransferGraph, principal: str, beneficiary: str,
              quantization: float | None = None,
              budget: int = 1_000_000) -> AttributionResult:
    """Min/max value routed principal->beneficiary over all valid
    parcel-level flow decompositions; unique positive flow is recoverable.
    """
    if quantization is None:
        quantization = default_quantization(graph)
    q = float(quantization)
    if q <= 0:
        raise ValueError("quantization must be positive")
    parcels = [(e.src, e.dst, round(float(e.amount) / q))
               for e in graph.edges]
    parcels = [p for p in parcels if p[2] > 0]
    if not parcels:
        return AttributionResult(0.0, 0.0, 1, False, q)

    initial = _implicit_initials(parcels)
    # avail[node] = [principal-origin parcels, other parcels]
    avail: dict[str, list[int]] = {}
    for node, init in initial.items():
        avail.setdefault(node, [0, 0])
        if node == principal:
            avail[node][0] += init
        else:
            avail[node][1] += init

    state = {"count": 0, "ops": 0, "min": None, "max": None}

    def dfs(i: int, delivered: int) -> None:
        state["ops"] += 1
        if state["ops"] > budget:
            raise BudgetExceeded(
                f"more than {budget} parcel routings; coarsen quantization")
        if i == len(parcels):
            state["count"] += 1
            state["min"] = delivered if state["min"] is None \
                else min(state["min"], delivered)
            state["max"] = delivered if state["max"] is None \
                else max(state["max"], delivered)
            return
        src, dst, n = parcels[i]
        s = avail.setdefault(src, [0, 0])
        d = avail.setdefault(dst, [0, 0])
        lo = max(0, n - s[1])
        hi = min(n, s[0])
        if lo > hi:
            return  # conservation violated on this branch
        for p_cnt in range(lo, hi + 1):
            o_cnt = n - p_cnt
            s[0] -= p_cnt
            s[1] -= o_cnt
            d[0] += p_cnt
            d[1] += o_cnt
            dfs(i + 1, delivered + (p_cnt if dst == beneficiary else 0))
            s[0] += p_cnt
            s[1] += o_cnt
            d[0] -= p_cnt
            d[1] -= o_cnt

    dfs(0, 0)
    if state["count"] == 0:
        raise GraphError("no valid flow decomposition at this quantization")
    p_min = state["min"] * q
    p_max = state["max"] * q
    recoverable = state["min"] == state["max"] and state["min"] > 0
    return AttributionResult(p_min, p_max, state["count"], recoverable, q)


def taint_poison(graph: TransferGraph,
                 tainted: set[str]) -> dict[str, bool]:
    """Binary forward closure over time-ordered edges."""
    marked = set(tainted)
    for e in sorted(graph.edges, key=lambda e: e.seq):
        if e.src in marked:
            marked.add(e.dst)
    return {node: node in marked for node in graph.nodes}


def taint_haircut(graph: TransferGraph, tainted: set[str],
                  initial_balances: dict[str, float] | None = None
                  ) -> dict[str, float]:
    """Proportional dilution: each edge carries the sender's current taint
    fraction; flagged sources stay fully tainted; initial balances (known
    or implicit) of other nodes are clean.  Float round-off is forgiven
    relative to the largest edge amount, so the rule reads the same in
    whole tokens and in smallest units."""
    held: dict[str, float] = {k: float(v)
                              for k, v in (initial_balances or {}).items()}
    dirty: dict[str, float] = {}
    tol = 1e-12 * max((float(e.amount) for e in graph.edges), default=0.0)
    for e in sorted(graph.edges, key=lambda e: e.seq):
        src, dst, amt = e.src, e.dst, float(e.amount)
        if held.get(src, 0.0) < amt - tol:
            held[src] = amt  # implicit initial balance tops up
        if src in tainted:
            dirty[src] = held[src]
        h = held[src]
        frac = 0.0 if h <= 0 else min(1.0, dirty.get(src, 0.0) / h)
        moved_dirty = amt * frac
        held[src] = h - amt
        dirty[src] = max(0.0, dirty.get(src, 0.0) - moved_dirty)
        held[dst] = held.get(dst, 0.0) + amt
        dirty[dst] = dirty.get(dst, 0.0) + (
            amt if dst in tainted else moved_dirty)
    result: dict[str, float] = {}
    for node in graph.nodes:
        if node in tainted:
            result[node] = 1.0
            continue
        h = held.get(node, 0.0)
        result[node] = 0.0 if h <= tol \
            else min(1.0, dirty.get(node, 0.0) / h)
    return result


def canonical_form(graph: TransferGraph) -> str:
    """Canonical encoding of the time-ordered valued multigraph with node
    identities (and role labels) erased.

    Because edges are totally ordered by seq, any isomorphism must map the
    k-th edge to the k-th edge; relabeling nodes by first appearance is
    therefore a complete canonical form.
    """
    return _encode(sorted(graph.edges, key=lambda e: e.seq),
                   lambda e: (str(e.amount),))


def trace_canonical_form(trace: ExecutionTrace) -> str:
    """Canonical form of the full multi-asset event sequence of a trace."""
    return _encode(sorted(trace.events, key=lambda e: e.seq),
                   lambda e: (e.asset.symbol, str(e.amount)))


def _encode(edges, extra) -> str:
    index: dict[str, int] = {}
    parts = []
    for rank, e in enumerate(edges):
        for node in (e.src, e.dst):
            if node not in index:
                index[node] = len(index)
        tail = ":".join(extra(e))
        parts.append(f"{rank}:{index[e.src]}>{index[e.dst]}:{tail}")
    return "|".join(parts)


def to_dot(graph: TransferGraph,
           labels: dict[str, str] | None = None) -> str:
    """Deterministic DOT rendering; node label = id plus role tag."""
    labels = labels or {}
    lines = ["digraph transfers {"]
    for node in graph.nodes:
        tag = labels.get(node)
        text = f"{node}\\n[{tag}]" if tag else node
        lines.append(f'  "{node}" [label="{text}"];')
    for e in sorted(graph.edges, key=lambda e: e.seq):
        lines.append(
            f'  "{e.src}" -> "{e.dst}" '
            f'[label="{e.seq}:{float(e.amount):.6g} {graph.asset.symbol}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
