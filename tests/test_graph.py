from fractions import Fraction

import pytest

from ammflow.engine import ExecutionTrace, TransferEvent
from ammflow.graph import (BudgetExceeded, GraphEdge, TransferGraph,
                           attribute, build_graph, canonical_form,
                           default_quantization, taint_haircut, taint_poison,
                           to_dot, trace_canonical_form)
from ammflow.scenarios import (build_peb_scenario, build_relocation_scenario,
                               library)
from conftest import TOKA


def graph_of(*edges):
    return TransferGraph(asset=TOKA, edges=[
        GraphEdge(seq, src, dst, Fraction(amount))
        for seq, (src, dst, amount) in enumerate(edges, start=1)])


def relocation_trace():
    run = build_relocation_scenario(name="g")
    _, trace = run.execute()
    return trace


class TestBuildGraph:
    def test_single_transfer(self):
        trace = ExecutionTrace(bundle_id="t", initiator="P", events=[
            TransferEvent(1, "P", "B", TOKA, Fraction(10), 0)])
        graph = build_graph(trace, TOKA)
        assert len(graph.edges) == 1
        assert graph.nodes == ["P", "B"]

    def test_relocation_asset_graph_has_no_p_to_b_edge(self):
        graph = build_graph(relocation_trace(), TOKA)
        assert len(graph.edges) == 8
        assert not any(e.src == "P" and e.dst == "B" for e in graph.edges)

    def test_peb_graph_keeps_beneficiary_out_of_maker_asset(self):
        run = build_peb_scenario(name="g")
        _, trace = run.execute()
        usdc = next(a for a in (e.asset for e in trace.events)
                    if a.symbol == "USDC")
        graph = build_graph(trace, usdc)
        assert "B" not in graph.nodes


class TestAttribute:
    def test_direct_edge_recoverable(self):
        result = attribute(graph_of(("P", "B", 10)), "P", "B")
        assert (result.p_to_b_min, result.p_to_b_max) == (10, 10)
        assert result.recoverable

    def test_chain_recoverable(self):
        result = attribute(graph_of(("P", "X", 10), ("X", "B", 10)),
                           "P", "B")
        assert result.recoverable
        assert result.p_to_b_min == 10

    def test_commingled_intermediary_not_recoverable(self):
        # O receives equal amounts from P and F before paying B and F;
        # the B payment may be entirely F-origin
        result = attribute(graph_of(("P", "O", 10), ("F", "O", 10),
                                    ("O", "B", 10), ("O", "F", 10)),
                           "P", "B")
        assert result.p_to_b_min == 0
        assert result.p_to_b_max == 10
        assert not result.recoverable
        assert result.decomposition_count > 1

    def test_relocation_trace_not_recoverable(self):
        graph = build_graph(relocation_trace(), TOKA)
        result = attribute(graph, "P", "B")
        assert result.p_to_b_min == 0
        assert not result.recoverable

    def test_quantization_must_be_positive(self):
        with pytest.raises(ValueError):
            attribute(graph_of(("P", "B", 1)), "P", "B", quantization=0)

    def test_budget_exceeded(self):
        edges = [("P", "O", 32), ("F", "O", 32)]
        edges += [("O", "B", 2), ("O", "F", 2)] * 16
        with pytest.raises(BudgetExceeded):
            attribute(graph_of(*edges), "P", "B", quantization=1,
                      budget=2000)

    def test_gcd_quantization(self):
        graph = graph_of(("P", "O", 10), ("O", "B", 15))
        assert default_quantization(graph) == 5


class TestTaint:
    def test_poison_chain(self):
        graph = graph_of(("P", "X", 1), ("X", "Y", 1))
        assert taint_poison(graph, {"P"}) == \
            {"P": True, "X": True, "Y": True}
        assert taint_poison(graph, set()) == \
            {"P": False, "X": False, "Y": False}

    def test_poison_respects_time_order(self):
        # X forwarded to Y before receiving anything tainted
        graph = graph_of(("X", "Y", 1), ("P", "X", 1))
        marks = taint_poison(graph, {"P"})
        assert marks["X"] and not marks["Y"]

    def test_poison_overattributes_on_relocation(self):
        graph = build_graph(relocation_trace(), TOKA)
        marks = taint_poison(graph, {"P"})
        for node in ("O", "pool1", "pool2", "B", "flash"):
            assert marks[node]

    def test_haircut_proportional_mix(self):
        graph = graph_of(("P", "X", 10))
        fractions = taint_haircut(graph, {"P"},
                                  initial_balances={"X": 10})
        assert fractions["X"] == pytest.approx(0.5)

    def test_haircut_no_sources(self):
        graph = graph_of(("P", "X", 10))
        assert all(f == 0.0 for f in taint_haircut(graph, set()).values())

    def test_divergence_on_relocation(self):
        graph = build_graph(relocation_trace(), TOKA)
        marks = taint_poison(graph, {"P"})
        fractions = taint_haircut(graph, {"P"})
        assert marks["B"]
        assert 0 < fractions["B"] < 1
        poison_positive = {n for n, m in marks.items() if m}
        haircut_positive = {n for n, f in fractions.items() if f > 0}
        assert haircut_positive <= poison_positive
        assert haircut_positive != poison_positive


    def test_haircut_ignores_amount_scale(self):
        # O forwards exactly what it received; at 1e19 the float sum of its
        # inflows overshoots the float outflow by far more than 1e-12
        a1, a2 = 18437166598339548353, 6855543267441242937
        units = [("P", "O", a1), ("X", "O", a2), ("O", "B", a1 + a2)]
        tokens = [(s, d, Fraction(a, 10 ** 18)) for s, d, a in units]
        fractions = taint_haircut(graph_of(*units), {"P"})
        assert fractions["O"] == 0.0
        assert fractions == taint_haircut(graph_of(*tokens), {"P"})

    def test_calibrated_relocation_operator_nets_clean(self):
        run = library()["relocation_fee_calibrated"]()
        _, trace = run.execute()
        weth = run.world.assets["WETH"]
        fractions = taint_haircut(build_graph(trace, weth), {"P"})
        assert fractions["O"] == 0.0


class TestCanonicalForm:
    def test_self_equal(self):
        graph = graph_of(("P", "O", 10), ("O", "B", 10))
        assert canonical_form(graph) == canonical_form(graph)

    def test_invariant_under_renaming(self):
        g1 = graph_of(("P", "O", 10), ("O", "B", 10))
        g2 = graph_of(("treasury", "trader", 10), ("trader", "collect", 10))
        assert canonical_form(g1) == canonical_form(g2)

    def test_distinguishes_structure(self):
        g1 = graph_of(("P", "O", 10), ("O", "B", 10))
        g2 = graph_of(("P", "O", 10), ("P", "B", 10))
        assert canonical_form(g1) != canonical_form(g2)

    def test_distinguishes_amounts(self):
        g1 = graph_of(("P", "O", 10))
        g2 = graph_of(("P", "O", 11))
        assert canonical_form(g1) != canonical_form(g2)

    def test_relocation_differs_from_peb(self):
        _, peb_trace = build_peb_scenario(name="c").execute()
        assert trace_canonical_form(relocation_trace()) != \
            trace_canonical_form(peb_trace)


def test_to_dot_deterministic_and_labeled():
    graph = graph_of(("P", "B", 10))
    dot = to_dot(graph, labels={"P": "Principal"})
    assert dot == to_dot(graph, labels={"P": "Principal"})
    assert '"P" -> "B"' in dot
    assert "[Principal]" in dot
    assert dot.startswith("digraph")
