"""Transfer-layer observer: per-asset graphs, taint rules, attribution.

Attribution operationalizes "uniquely recoverable" as uniqueness of the
principal-to-beneficiary amount over all ways to tag value as
principal-origin or other under time-ordered conservation: no node may
forward principal value it has not yet received, nor more other value than
it holds.  Those prefix constraints are the arcs of a network flow on the
time-expanded graph (Ford & Fulkerson 1958), so the least and the greatest
amount are two exact min-cost flows in the graph's own number type.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .amm import AssetId
from .engine import ExecutionTrace
from .numeric import QuadExact


@dataclass(frozen=True)
class GraphEdge:
    seq: int
    src: str
    dst: str
    amount: object  # int, Fraction or QuadExact


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
    recoverable: bool
    exact: bool  # False when the amounts were read as floats

    def to_dict(self) -> dict:
        return asdict(self)


def build_graph(trace: ExecutionTrace, asset: AssetId) -> TransferGraph:
    """One edge per transfer event of the asset, trace order preserved."""
    edges = [GraphEdge(ev.seq, ev.src, ev.dst, ev.amount)
             for ev in trace.events if ev.asset == asset]
    return TransferGraph(asset=asset, edges=edges)


def _implicit_initials(edges: list[tuple[str, str, object]]) -> dict:
    """Per node, the largest prefix deficit: outflow not covered by inflow.

    That deficit is the node's implicit initial balance; for intermediaries
    it counts as unattributed value.
    """
    held: dict = {}
    initial: dict = {}
    for src, dst, n in edges:
        have = held.get(src, 0)
        if have < n:
            initial[src] = initial.get(src, 0) + (n - have)
            have = n
        held[src] = have - n
        held[dst] = held.get(dst, 0) + n
    return initial


def _one_field(amounts: list) -> bool:
    """Whether the amounts are exact numbers that QuadExact can add."""
    if not all(isinstance(a, (int, Fraction, QuadExact)) for a in amounts):
        return False
    quads = [a for a in amounts if isinstance(a, QuadExact)]
    return all(quads[0]._match(a) is not None for a in quads[1:])


def attribute(graph: TransferGraph, principal: str,
              beneficiary: str) -> AttributionResult:
    """Least and greatest principal-origin value the beneficiary can have
    received; a unique positive amount is recoverable.

    Amounts that span more than one quadratic field are read as floats
    (converted exactly to Fraction) and the result is marked inexact.
    """
    exact = _one_field([e.amount for e in graph.edges])
    edges = [(e.src, e.dst, e.amount if exact else Fraction(float(e.amount)))
             for e in graph.edges]
    edges = [e for e in edges if e[2] > 0]
    lo = _min_cost_flow(edges, principal, beneficiary, 1)
    hi = -_min_cost_flow(edges, principal, beneficiary, -1)
    return AttributionResult(float(lo), float(hi), lo == hi and lo > 0,
                             exact)


def _min_cost_flow(edges: list[tuple[str, str, object]], principal: str,
                   beneficiary: str, sign: int):
    """Least sign * (principal value delivered to the beneficiary).

    Every transfer gives its src and dst a new version (node, k); a
    holdover arc from a node's previous version carries the principal value
    it keeps, capped by its running total balance, and the transfer arc
    carries the principal share of the amount, at cost `sign` when it pays
    the beneficiary.  The principal's initial balance enters at its first
    version and every last version drains to the sink (None).

    Successive shortest paths ordered by (cost, hops): within one cost
    level this is Edmonds-Karp, so it ends for irrational capacities too.
    """
    held = defaultdict(int, _implicit_initials(edges))
    supply = held[principal]
    source = (principal, 0)
    # [tail, head, capacity, (cost, hops)]; arc i ^ 1 is the residual of i
    arcs: list[list] = []
    cur: dict[str, tuple[str, int]] = {}

    def arc(u, v, capacity, cost: int) -> None:
        arcs.append([u, v, capacity, (cost, 1)])
        arcs.append([v, u, 0, (-cost, -1)])

    def advance(node: str) -> tuple[str, int]:
        old = cur.get(node, (node, 0))
        cur[node] = (node, old[1] + 1)
        arc(old, cur[node], held[node], 0)
        return old

    for src, dst, n in edges:
        held[src] -= n
        u = advance(src)
        held[dst] += n
        advance(dst)
        arc(u, cur[dst], n, sign if dst == beneficiary else 0)
    for node, v in cur.items():
        arc(v, None, held[node], 0)

    total = 0
    while supply > 0:
        dist, via = {source: (0, 0)}, {}
        for _ in range(len(arcs)):  # Bellman-Ford
            changed = False
            for i, (u, v, capacity, (cost, hops)) in enumerate(arcs):
                if u not in dist or not capacity > 0:
                    continue
                d = (dist[u][0] + cost, dist[u][1] + hops)
                if v not in dist or d < dist[v]:
                    dist[v], via[v], changed = d, i, True
            if not changed:
                break
        path, v = [], None
        while v != source:
            path.append(via[v])
            v = arcs[via[v]][0]
        push = min([supply] + [arcs[i][2] for i in path])
        for i in path:
            arcs[i][2] -= push
            arcs[i ^ 1][2] += push
        supply -= push
        total += push * dist[None][0]
    return total


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
