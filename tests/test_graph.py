import re
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from ammflow import graph as graph_module
from ammflow.engine import (ExecutionTrace, TransferEvent, WorldState,
                            execute_bundle)
from ammflow.graph import (GraphEdge, TransferGraph, attribute, build_graph,
                           canonical_form, taint_haircut, taint_poison,
                           to_dot, trace_canonical_form)
from ammflow.numeric import QuadExact
from ammflow.planner import build_relocation_bundle, plan_relocation
from ammflow.scenarios import (build_peb_scenario, build_relocation_scenario,
                               library)
from conftest import TOKA, TOKB, library_relocations, make_pool


def graph_of(*edges):
    return TransferGraph(asset=TOKA, edges=[
        GraphEdge(seq, src, dst, Fraction(amount))
        for seq, (src, dst, amount) in enumerate(edges, start=1)])


def parcel_bounds(edges, principal, beneficiary):
    """Reference oracle: enumerate every split of each integer amount into
    principal-origin and other parcels that no node overdraws, and return
    the least and greatest principal amount paid to the beneficiary."""
    edges = [e for e in edges if e[2] > 0]
    held, initial = {}, {}
    for src, dst, n in edges:
        have = held.get(src, 0)
        if have < n:
            initial[src] = initial.get(src, 0) + n - have
            have = n
        held[src] = have - n
        held[dst] = held.get(dst, 0) + n
    # avail[node] = [principal-origin parcels, other parcels]
    avail = {node: [init, 0] if node == principal else [0, init]
             for node, init in initial.items()}
    found = []

    def dfs(i, delivered):
        if i == len(edges):
            found.append(delivered)
            return
        src, dst, n = edges[i]
        s = avail.setdefault(src, [0, 0])
        d = avail.setdefault(dst, [0, 0])
        for p_cnt in range(max(0, n - s[1]), min(n, s[0]) + 1):
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
    return min(found), max(found)


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
        assert result.exact

    def test_relocation_trace_not_recoverable(self):
        graph = build_graph(relocation_trace(), TOKA)
        result = attribute(graph, "P", "B")
        assert result.p_to_b_min == 0
        assert not result.recoverable

    def test_relocation_max_is_the_principal_input(self):
        run = build_relocation_scenario(name="g")
        _, trace = run.execute()
        result = attribute(build_graph(trace, TOKA), "P", "B")
        assert (result.p_to_b_min, result.p_to_b_max) == (0, run.plan.a)
        assert result.exact

    def test_many_small_payments_are_exact(self):
        edges = [("P", "O", 32), ("F", "O", 32)]
        edges += [("O", "B", 2), ("O", "F", 2)] * 16
        result = attribute(graph_of(*edges), "P", "B")
        assert (result.p_to_b_min, result.p_to_b_max) == (0, 32)
        assert result.exact and not result.recoverable

    def test_one_quadratic_field_stays_exact(self):
        # sqrt(8) = 2 sqrt(2), so both amounts live in Q(sqrt 2)
        amount = QuadExact(Fraction(0), Fraction(2), Fraction(2))
        graph = TransferGraph(asset=TOKA, edges=[
            GraphEdge(1, "P", "X", amount),
            GraphEdge(2, "X", "B", QuadExact(Fraction(0), Fraction(1),
                                            Fraction(8)))])
        result = attribute(graph, "P", "B")
        assert result.exact and result.recoverable
        assert result.p_to_b_min == result.p_to_b_max == float(amount)

    def test_rationals_beside_one_quadratic_field_stay_exact(self):
        # an element of Q lies in every field: a rational first amount
        # neither counts as a second field nor hides one
        ten, root2 = QuadExact(10), QuadExact(0, 1, 2)

        def graph(*amounts):
            return TransferGraph(asset=TOKA, edges=[
                GraphEdge(seq, src, dst, amount) for seq, (src, dst, amount)
                in enumerate(zip("PPXO", "OXBB", amounts), start=1)])

        result = attribute(graph(ten, root2, QuadExact(0, 1, 8) / 2, ten),
                           "P", "B")
        assert result.exact and result.recoverable
        assert result.p_to_b_min == result.p_to_b_max == float(ten + root2)
        result = attribute(graph(ten, root2, QuadExact(0, 1, 3), ten),
                           "P", "B")
        assert not result.exact

    def test_two_quadratic_fields_fall_back_to_floats(self):
        root2 = QuadExact(Fraction(0), Fraction(1), Fraction(2))
        root3 = QuadExact(Fraction(0), Fraction(1), Fraction(3))
        graph = TransferGraph(asset=TOKA, edges=[
            GraphEdge(seq, src, dst, amount) for seq, (src, dst, amount)
            in enumerate([("P", "O", root2), ("F", "O", root3),
                          ("O", "B", root2), ("O", "F", root3)], start=1)])
        result = attribute(graph, "P", "B")
        assert not result.exact and not result.recoverable
        assert (result.p_to_b_min, result.p_to_b_max) == (0, float(root2))

    def test_non_positive_amounts_are_skipped(self):
        result = attribute(graph_of(("P", "B", 0), ("P", "B", -3)),
                           "P", "B")
        assert (result.p_to_b_min, result.p_to_b_max) == (0, 0)
        assert not result.recoverable

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("PBXF"),
                              st.sampled_from("PBXF"),
                              st.integers(0, 5)),
                    min_size=1, max_size=6))
    @example([("X", "F", 2), ("P", "X", 5), ("X", "B", 5)])
    def test_matches_parcel_enumeration(self, edges):
        result = attribute(graph_of(*edges), "P", "B")
        lo, hi = parcel_bounds(edges, "P", "B")
        assert (result.p_to_b_min, result.p_to_b_max) == (lo, hi)
        assert result.recoverable == (lo == hi > 0)


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

    def test_poison_skips_non_positive_amounts(self):
        # as in attribute and taint_haircut, a zero or negative edge moves
        # no value, so it carries no taint
        graph = graph_of(("P", "X", 0), ("X", "B", -3))
        assert taint_poison(graph, {"P"}) == \
            {"P": True, "X": False, "B": False}
        assert taint_haircut(graph, {"P"})["B"] == 0.0

    def test_poison_overattributes_on_relocation(self):
        graph = build_graph(relocation_trace(), TOKA)
        marks = taint_poison(graph, {"P"})
        for node in ("O", "pool1", "pool2", "B", "flash"):
            assert marks[node]

    def test_haircut_proportional_mix(self):
        graph = graph_of(("Q", "X", 10), ("P", "X", 10))
        assert taint_haircut(graph, {"P"})["X"] == 0.5

    def test_haircut_no_sources(self):
        graph = graph_of(("P", "X", 10))
        assert all(f == 0.0 for f in taint_haircut(graph, set()).values())

    def test_haircut_holds_the_implicit_initial_balance_from_the_start(self):
        # X pays out 15 after receiving 10, so it held 5 of its own all
        # along: both payouts are 2/3 tainted, not the first 1 and the
        # second 0, the two ends of attribution's ranges
        graph = graph_of(("P", "X", 10), ("X", "Y", 10), ("X", "Z", 5))
        fractions = taint_haircut(graph, {"P"})
        assert fractions["Y"] == fractions["Z"] == 2 / 3
        y, z = attribute(graph, "P", "Y"), attribute(graph, "P", "Z")
        assert (y.p_to_b_min, y.p_to_b_max) == (5, 10)
        assert (z.p_to_b_min, z.p_to_b_max) == (0, 5)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("PXFO"),
                              st.sampled_from("BXFO"),
                              st.integers(0, 10 ** 20)),
                    min_size=1, max_size=7))
    @example([("P", "X", 10), ("X", "B", 10), ("X", "F", 5)])
    @example([("P", "X", 10), ("X", "F", 10), ("X", "B", 5)])
    def test_haircut_value_lies_within_attribution_bounds(self, edges):
        # the principal only sends and the beneficiary only receives, so
        # haircut's proportional tagging is one of the taggings attribution
        # ranges over, and the beneficiary's tainted value is its fraction
        # of everything it received
        graph = graph_of(*edges)
        bounds = attribute(graph, "P", "B")
        received = sum(n for _, dst, n in edges if dst == "B" and n > 0)
        value = taint_haircut(graph, {"P"}).get("B", 0.0) * received
        assert bounds.p_to_b_min * (1 - 1e-9) <= value \
            <= bounds.p_to_b_max * (1 + 1e-9)

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


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("PBXFO"),
                              st.sampled_from("PBXFO"),
                              st.integers(0, 10 ** 20)),
                    min_size=1, max_size=8),
           st.sets(st.sampled_from("PBXFO"), max_size=2))
    # O forwards exactly what it received; at 1e19 a float sum of its
    # inflows would overshoot the float outflow by far more than 1e-12
    @example([("P", "O", 18437166598339548353),
              ("X", "O", 6855543267441242937),
              ("O", "B", 18437166598339548353 + 6855543267441242937)], {"P"})
    def test_haircut_ignores_amount_scale(self, edges, tainted):
        def haircut(scale):
            return taint_haircut(TransferGraph(asset=TOKA, edges=[
                GraphEdge(seq, src, dst, scale(amount))
                for seq, (src, dst, amount) in enumerate(edges, start=1)]),
                tainted)

        fractions = haircut(int)
        assert fractions == haircut(lambda a: Fraction(a, 10 ** 18))
        assert all(0.0 <= f <= 1.0 for f in fractions.values())
        assert all(fractions[n] == 1.0 for n in tainted if n in fractions)

    def test_zero_fee_flash_provider_stays_clean(self):
        # a fee-free loop returns the flash capital untouched; an operator
        # that is the principal repays from a flagged source, so it is out
        relocations = [run for run in library_relocations()
                       if run.plan.operator != run.plan.principal
                       and all(pool.fee_bps == 0
                               for pool in run.world.pools.values())]
        assert len(relocations) >= 2
        for run in relocations:
            _, trace = run.execute()
            graph = build_graph(trace, run.plan.asset)
            fractions = taint_haircut(graph, {run.plan.principal})
            assert fractions[run.plan.flash_provider] == 0.0, run.name

    def test_calibrated_relocation_operator_nets_clean(self):
        run = library()["relocation_fee_calibrated"]()
        _, trace = run.execute()
        weth = run.plan.asset
        fractions = taint_haircut(build_graph(trace, weth), {"P"})
        assert fractions["O"] == 0.0


class CountedList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def relocation_block(k):
    """The trace of k zero-fee relocations P_i -> B_i through operator
    O_i, sharing two pools and one flash provider, in one bundle."""
    pool1 = make_pool("pool1", Fraction(1150), Fraction(4712))
    pool2 = make_pool("pool2", Fraction(566), Fraction(2139))
    world = WorldState(mode=pool1.mode)
    world.add_pool(pool1)
    world.add_pool(pool2)
    world.set_balance("flash", TOKA, 2 * (pool1.reserve0 + pool2.reserve0))
    bundle = []
    for i in range(k):
        p, a = f"P{i}", Fraction(16 + i)
        world.set_balance(p, TOKA, a)
        world.approve(p, f"O{i}", TOKA, a)
        # both pools end where they began, so each plan starts from them
        plan = plan_relocation(pool1, pool2, TOKA, p, f"B{i}", f"O{i}", a,
                               flash_provider="flash")
        bundle += build_relocation_bundle(plan, pool1, pool2)
    return execute_bundle(world, bundle, "O0")[1]


class TestSharedModel:
    def test_each_graph_reads_its_edges_and_builds_its_network_once(
            self, monkeypatch):
        # attribute reads neither the edges nor the flows, so it cannot
        # rebuild the network or rewalk the balances; each taint rule
        # makes its one pass over the flows
        solves = []
        solve = graph_module._min_cost_flow
        monkeypatch.setattr(graph_module, "_min_cost_flow",
                            lambda *args: solves.append(args) or solve(*args))
        trace = relocation_block(3)
        pairs = [(f"P{i}", f"B{i}") for i in range(3)]
        for asset in (TOKA, TOKB):
            edges = CountedList(build_graph(trace, asset).edges)
            graph = TransferGraph(asset, edges)
            built, graph.flows = edges.passes, CountedList(graph.flows)
            for p, b in pairs:
                attribute(graph, p, b)
                assert len(solves) == 2
                assert {args[0] for args in solves} == {graph}
                solves.clear()
            assert graph.flows.passes == 0
            taint_poison(graph, {p for p, _ in pairs})
            taint_haircut(graph, {p for p, _ in pairs})
            assert (edges.passes, graph.flows.passes) == (built, 2)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("PBXF"),
                              st.sampled_from("PBXF"),
                              st.integers(0, 5)),
                    min_size=1, max_size=6),
           st.lists(st.tuples(st.sampled_from(["attribute", "poison",
                                               "haircut"]),
                              st.sampled_from("PBXF"),
                              st.sampled_from("PBXF")),
                    min_size=1, max_size=6))
    def test_queries_leave_the_shared_model_as_built(self, edges, queries):
        # the parcel oracle's graphs, each queried twice over in the
        # drawn order: every answer is that of a freshly built graph
        def answer(graph, kind, p, b):
            if kind == "attribute":
                return attribute(graph, p, b)
            rule = taint_poison if kind == "poison" else taint_haircut
            return rule(graph, {p, b})

        shared = graph_of(*edges)
        for query in queries + queries:
            assert answer(shared, *query) == answer(graph_of(*edges), *query)
        fresh = graph_of(*edges)
        assert [shared.nodes, shared.flows, shared.initial, shared.arcs] \
            == [fresh.nodes, fresh.flows, fresh.initial, fresh.arcs]


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


def dot_strings(line):
    """The quoted strings of one DOT line with their quotes and
    backslashes unescaped (a label's \\n kept), or None when a quote or
    a backslash stands outside them."""
    pattern = re.compile(r'"((?:[^"\\]|\\.)*)"')
    if re.search(r'["\\]', pattern.sub("", line)):
        return None
    return [re.sub(r'\\([\\"])', r"\1", body)
            for body in pattern.findall(line)]


def test_to_dot_escapes_quotes_and_backslashes():
    graph = graph_of(('a"b', "c\\", 10), ("c\\", "d", 5))
    dot = to_dot(graph, labels={'a"b': 'Bene"ficiary', "c\\": "x\\"})
    lines = dot.splitlines()[1:-1]
    assert [dot_strings(line) for line in lines] == [
        ['a"b', 'a"b\\n[Bene"ficiary]'],
        ["c\\", "c\\\\n[x\\]"],
        ["d", "d"],
        ['a"b', "c\\", "1:10 TOKA"],
        ["c\\", "d", "2:5 TOKA"]]
