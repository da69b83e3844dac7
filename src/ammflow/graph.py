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
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

from .amm import EXACT_TYPES, AssetId
from .engine import ExecutionTrace
from .numeric import QuadExact


class GraphEdge(NamedTuple):
    seq: int
    src: str
    dst: str
    amount: object  # int, QuadExact, or a Fraction a caller passed in


class TransferGraph:
    """The transfers of one asset, in time order (strictly increasing seq),
    read once, at construction, into the model every observer shares:

    - `nodes`, in order of first appearance;
    - `exact`, whether the amounts are the graph's own exact numbers.
      Amounts that span more than one quadratic field (elements of Q lie
      in every one) are read as floats, converted exactly to Fraction;
    - `flows`, the positive edges as (src, dst, amount) in time order;
    - `initial`, each node's implicit initial balance: its largest prefix
      deficit, outflow not covered by inflow;
    - `arcs`, attribution's time-expanded network as (tail, head,
      capacity, the node a transfer arc pays), read by `_min_cost_flow`.
    """

    __slots__ = ("asset", "edges", "nodes", "exact", "flows", "initial",
                 "arcs")

    def __init__(self, asset: AssetId, edges: list[GraphEdge]):
        self.asset, self.edges = asset, edges
        self.nodes = list(dict.fromkeys(
            node for e in edges for node in (e.src, e.dst)))
        amounts = [e.amount for e in edges]
        quads = [a for a in amounts if isinstance(a, QuadExact) and a.b]
        self.exact = exact = all(type(a) in EXACT_TYPES for a in amounts) \
            and all(quads[0]._match(a) is not None for a in quads[1:])
        flows = [(e.src, e.dst, a if exact else Fraction(float(a)))
                 for e, a in zip(edges, amounts)]
        self.flows = flows = [f for f in flows if f[2] > 0]
        held: dict = {}
        self.initial = initial = {}
        for src, dst, n in flows:
            have = held.get(src, 0)
            if have < n:
                initial[src] = initial.get(src, 0) + (n - have)
                have = n
            held[src] = have - n
            held[dst] = held.get(dst, 0) + n
        # Every transfer gives its src and dst a new version (node, k): a
        # holdover arc from a node's previous version is capped by its
        # running total balance, the transfer arc by the amount and tagged
        # with the node it pays, and every last version drains to the sink
        # (None); a holdover or sink arc pays no node (None)
        self.arcs = arcs = []
        held = defaultdict(int, initial)
        cur: dict[str, tuple[str, int]] = {}

        def advance(node: str) -> tuple[str, int]:
            old = cur.get(node, (node, 0))
            cur[node] = (node, old[1] + 1)
            arcs.append((old, cur[node], held[node], None))
            return old

        for src, dst, n in flows:
            held[src] -= n
            u = advance(src)
            held[dst] += n
            advance(dst)
            arcs.append((u, cur[dst], n, dst))
        arcs += [(v, None, held[node], None) for node, v in cur.items()]


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


def attribute(graph: TransferGraph, principal: str,
              beneficiary: str) -> AttributionResult:
    """Least and greatest principal-origin value the beneficiary can have
    received; a unique positive amount is recoverable.  The result is
    marked inexact when the graph read its amounts as floats."""
    lo = _min_cost_flow(graph, principal, beneficiary, 1)
    hi = -_min_cost_flow(graph, principal, beneficiary, -1)
    return AttributionResult(float(lo), float(hi), lo == hi and lo > 0,
                             graph.exact)


def _min_cost_flow(graph: TransferGraph, principal: str, beneficiary: str,
                   sign: int):
    """Least sign * (principal value delivered to the beneficiary).

    On the graph's network, a holdover arc carries the principal value a
    node keeps and a transfer arc the principal share of its amount, at
    cost `sign` when it pays the beneficiary.  The principal's initial
    balance enters at its first version.  Each solve builds its own
    residual arcs from the graph's, so no solve changes the graph.

    Successive shortest paths ordered by (cost, hops): within one cost
    level this is Edmonds-Karp, so it ends for irrational capacities too.
    """
    arcs = []  # [tail, head, capacity, (cost, hops)]; i ^ 1 is i's residual
    for u, v, capacity, pays in graph.arcs:
        cost = sign if pays == beneficiary else 0
        arcs += [u, v, capacity, (cost, 1)], [v, u, 0, (-cost, -1)]
    supply = graph.initial.get(principal, 0)
    source = (principal, 0)
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
    """Binary forward closure over the time-ordered positive edges."""
    marked = set(tainted)
    for src, dst, _ in graph.flows:
        if src in marked:
            marked.add(dst)
    return {node: node in marked for node in graph.nodes}


def taint_haircut(graph: TransferGraph,
                  tainted: set[str]) -> dict[str, float]:
    """Proportional dilution: each edge carries the sender's current taint
    fraction and flagged sources stay fully tainted.  Every node holds its
    implicit initial balance, clean, from the start, as in attribution, so
    a late overdraft dilutes earlier payouts too.  The sums are exact in
    the graph's own numbers, so dirty <= held and each fraction is rounded
    to float once."""
    held = defaultdict(int, graph.initial)
    # an exact zero keeps each quotient below exact (int / int is a float)
    dirty: dict = defaultdict(QuadExact)
    for src, dst, amount in graph.flows:
        if src in tainted:
            moved = amount
        else:
            moved = amount * dirty[src] / held[src] if dirty[src] else 0
            dirty[src] -= moved
        held[src] -= amount
        held[dst] += amount
        dirty[dst] += moved
    return {node: 1.0 if node in tainted
            else float(dirty[node] / held[node]) if held[node] else 0.0
            for node in graph.nodes}


def canonical_form(graph: TransferGraph) -> str:
    """Canonical encoding of the time-ordered valued multigraph with node
    identities (and role labels) erased.

    Because edges are totally ordered by seq, any isomorphism must map the
    k-th edge to the k-th edge; relabeling nodes by first appearance is
    therefore a complete canonical form.
    """
    return _encode(graph.edges, lambda e: (str(e.amount),))


def trace_canonical_form(trace: ExecutionTrace) -> str:
    """Canonical form of the full multi-asset event sequence of a trace."""
    return _encode(trace.events, lambda e: (e.asset.symbol, str(e.amount)))


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
    esc = str.maketrans({"\\": "\\\\", '"': '\\"'})  # in a quoted string
    labels = labels or {}
    lines = ["digraph transfers {"]
    for node in graph.nodes:
        tag, node = labels.get(node), node.translate(esc)
        text = f"{node}\\n[{tag.translate(esc)}]" if tag else node
        lines.append(f'  "{node}" [label="{text}"];')
    symbol = graph.asset.symbol.translate(esc)
    for e in graph.edges:
        lines.append(f'  "{e.src.translate(esc)}" -> "{e.dst.translate(esc)}" '
                     f'[label="{e.seq}:{float(e.amount):.6g} {symbol}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
