"""Graph data model, closures, quotients, cycles, and structural predicates."""

import collections
import json
import pathlib

import pytest

from lpaideals.classify import (
    classify_algebra,
    irreducible_equals_completely_irreducible,
    zero_completely_irreducible,
)
from lpaideals.errors import (
    EmptySet,
    InvalidGraph,
    NotAdmissible,
    NotHereditarySaturated,
    TooLarge,
    UnknownVertex,
    Unsatisfiable,
)
from lpaideals.gallery import (
    corpus,
    double_loop_chain,
    loop_chain,
    omega_fan,
    omega_loop,
    one_loop,
    petals,
    plain_chain,
    sink_fork,
    two_sinks,
)
from lpaideals.graphs import (
    OMEGA,
    AdmissiblePair,
    Cycle,
    Edge,
    Graph,
    admissible_leq,
    admissible_pair,
    breaking_vertices,
    condition_k,
    condition_l,
    cycle_exits,
    cycles,
    cycles_without_exits,
    cycles_without_k,
    downward_directed,
    enumerate_hereditary_saturated,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    hereditary_saturated_closure,
    is_hereditary,
    is_saturated,
    maximal_tails,
    quotient_cycle_exits,
    quotient_facts,
    quotient_graph,
    quotient_view,
    strong_csp,
    tail_complements,
)
from lpaideals import graphs as graphs_module
from lpaideals.ideals import (
    Ideal,
    enumerate_graded_primes,
    factor_prime_powers,
    is_prime,
    zero_ideal,
)
from lpaideals.oracles import (
    GeneratorConfig,
    _breaking_literal,
    admissible_pairs,
    cycle_vertices,
    enumerate_admissible_pairs,
    hereditary_saturated_join_walk,
    omega_corpus,
    quotient_prime_vertices,
    random_graph,
    random_prime_power_family,
    strong_csp_oracle,
)
from lpaideals.rng import SplitMix64


class TestGraphModel:
    def test_vertices_are_sorted_and_deduplicated(self):
        g = Graph(["b", "a"], [])
        assert g.vertices == ("a", "b")
        with pytest.raises(InvalidGraph):
            Graph(["a", "a"], [])
        with pytest.raises(InvalidGraph):
            Graph([], [])

    def test_edge_validation(self):
        with pytest.raises(UnknownVertex):
            Graph(["a"], [Edge("e", "a", "b")])
        with pytest.raises(InvalidGraph):
            Graph(["a"], [Edge("e", "a", "a"), Edge("e", "a", "a")])
        with pytest.raises(InvalidGraph):
            Graph(["a"], [Edge("e", "a", "a", 0)])
        with pytest.raises(InvalidGraph):
            Graph(["a"], [Edge("e", "a", "a", True)])
        assert Graph(["a"], [Edge("e", "a", "a", OMEGA)]).edges[0].is_omega()

    def test_immutable(self):
        g = one_loop()
        with pytest.raises(AttributeError):
            g.vertices = ()

    def test_vertex_classes(self):
        g = omega_fan()
        assert g.vertex_class("v") == "infinite_emitter"
        assert g.vertex_class("w1") == "sink"
        assert loop_chain().vertex_class("u") == "regular"

    def test_out_multiplicity_counts_slots(self):
        g = Graph(["a"], [Edge("e", "a", "a", 3)])
        assert g.out_multiplicity("a") == 3
        assert omega_fan().out_multiplicity("v") == OMEGA

    def test_reachability(self):
        g = plain_chain()
        assert g.descendants("v3") == {"v1", "v2", "v3"}
        assert g.reaching_set("v1") == {"v1", "v2", "v3"}
        assert g.reaches("v3", "v1") and not g.reaches("v1", "v3")
        with pytest.raises(UnknownVertex):
            g.descendants("nope")

    def test_reachability_is_memoized(self):
        # the 2-cycle u <-> w feeds the sink s; u and w share one set each way
        g = Graph(["s", "u", "w"], [Edge("a", "u", "w"), Edge("b", "w", "u"),
                                    Edge("c", "w", "s")])
        assert g.descendants("u") is g.descendants("u")
        assert g.descendants("u") is g.descendants("w") == {"s", "u", "w"}
        assert g.reaching_set("w") is g.reaching_set("u") == {"u", "w"}
        assert g.reaching_set("s") == {"s", "u", "w"}
        assert g.descendants("s") == {"s"}

    def test_hash_is_kept_on_first_use(self):
        g = loop_chain()
        assert g._hash is None  # building a graph does not hash its edges
        assert hash(g) == hash((g.vertices, g.edges)) == g._hash
        twin = graph_from_json(graph_to_json(g))
        assert twin == g and hash(twin) == hash(g) and twin is not g
        assert g != Graph(["u", "w"], [Edge("uu", "u", "u")])


class TestHereditarySaturated:
    def test_predicates(self):
        g = loop_chain()
        assert is_hereditary(g, {"w"}) and is_saturated(g, {"w"})
        assert not is_hereditary(plain_chain(), {"v2"})
        assert not is_saturated(plain_chain(), {"v1"})

    def test_closure_fixtures(self):
        g = loop_chain()
        assert hereditary_saturated_closure(g, {"u"}) == {"u", "w"}
        assert hereditary_saturated_closure(g, {"w"}) == {"w"}
        # saturation of a chain walks upward from the sink
        assert hereditary_saturated_closure(plain_chain(), {"v1"}) == {
            "v1", "v2", "v3"}
        with pytest.raises(UnknownVertex):
            hereditary_saturated_closure(g, {"nope"})

    def test_enumeration_fixtures(self):
        assert enumerate_hereditary_saturated(one_loop()) == [
            frozenset(), frozenset({"v"})]
        # hub plus any union of petals
        assert len(enumerate_hereditary_saturated(petals())) == 9
        got = enumerate_hereditary_saturated(plain_chain())
        assert got == [frozenset(), frozenset({"v1", "v2", "v3"})]

    def test_enumeration_bound(self, monkeypatch):
        # petals has 9 hereditary saturated sets; the cap is read per call
        monkeypatch.setattr(graphs_module, "LATTICE_CAP", 8)
        with pytest.raises(TooLarge, match=r"\b8\b"):
            enumerate_hereditary_saturated(petals())
        monkeypatch.setattr(graphs_module, "LATTICE_CAP", 9)
        assert len(enumerate_hereditary_saturated(petals())) == 9

    def test_minimal_components_past_the_cap_are_refused_at_once(self, monkeypatch):
        # 17 isolated sinks are 17 minimal free components: 2^17 sets
        closures = []
        closure = graphs_module.hereditary_saturated_closure

        def counted(graph, subset):
            closures.append(1)
            return closure(graph, subset)

        monkeypatch.setattr(graphs_module, "hereditary_saturated_closure", counted)
        sinks = Graph([f"s{i:02d}" for i in range(17)], [])
        with pytest.raises(TooLarge, match="^more hereditary saturated sets "
                                           "than the lattice cap 65536$"):
            enumerate_hereditary_saturated(sinks)
        assert closures == []
        # 4 sinks make exactly a cap of 2^4, which is walked
        monkeypatch.setattr(graphs_module, "LATTICE_CAP", 2 ** 4)
        assert len(enumerate_hereditary_saturated(Graph(list("abcd"), []))) == 16
        assert len(closures) == 15

    def test_pair_cap(self, monkeypatch):
        # omega_fan has 5 hereditary saturated sets and 6 admissible pairs
        monkeypatch.setattr(graphs_module, "LATTICE_CAP", 5)
        assert len(enumerate_hereditary_saturated(omega_fan())) == 5
        with pytest.raises(TooLarge, match=r"\b5\b"):
            admissible_pairs(omega_fan())
        monkeypatch.setattr(graphs_module, "LATTICE_CAP", 6)
        assert len(admissible_pairs(omega_fan())) == 6

    def test_enumeration_and_core_match_subset_scans(self):
        graphs = list(corpus().values())
        graphs += [random_graph(GeneratorConfig(seed=s)) for s in range(1, 201)]
        graphs += _multigraph_batch(SplitMix64(20261019), 1000)
        for g in graphs:
            pairs = enumerate_admissible_pairs(g)
            assert admissible_pairs(g) == pairs, g
            scanned = {p.vertices for p in pairs}
            want = sorted(scanned, key=lambda s: (len(s), sorted(s)))
            assert enumerate_hereditary_saturated(g) == want, g
            assert strong_csp(g) == strong_csp_oracle(g), g

    def test_enumeration_work_follows_output(self, monkeypatch):
        calls = []
        closure = graphs_module.hereditary_saturated_closure

        def counted(graph, subset):
            calls.append(1)
            return closure(graph, subset)

        monkeypatch.setattr(graphs_module, "hereditary_saturated_closure",
                            counted)
        rng = SplitMix64(16)
        for g in (_ring_with_chords(rng, 16), _chain_with_loops(rng, 16),
                  _layered_omega_dag(rng, 16)):
            calls.clear()
            found = enumerate_hereditary_saturated(g)
            # one closure per set after the empty one
            assert len(calls) == len(found) - 1 > 0, (g, len(found))

    def test_enumeration_matches_join_walk_past_the_subset_scan(self):
        # 17 to 48 vertices: too many for the subset scans of oracles
        rng = SplitMix64(17)
        sizes = 0
        for n in range(17, 49):
            for g in (_ring_with_chords(rng, n), _chain_with_loops(rng, n),
                      _layered_omega_dag(rng, n)):
                found = enumerate_hereditary_saturated(g)
                assert found == hereditary_saturated_join_walk(g), g
                sizes = max(sizes, len(found))
        assert sizes > 100, sizes

    def test_breaking_vertices(self):
        g = omega_fan()
        assert breaking_vertices(g, {"w1"}) == {"v"}
        assert breaking_vertices(g, {"w2"}) == frozenset()
        # nothing is left outside, so nothing breaks
        assert breaking_vertices(g, {"w1", "w2"}) == frozenset()
        assert breaking_vertices(g, frozenset()) == frozenset()


class TestAdmissiblePairs:
    def test_validation(self):
        g = omega_fan()
        pair = admissible_pair(g, {"w1"}, {"v"})
        assert pair.vertices == {"w1"} and pair.breaking == {"v"}
        with pytest.raises(NotHereditarySaturated):
            admissible_pair(plain_chain(), {"v2"})
        with pytest.raises(NotAdmissible):
            admissible_pair(g, {"w2"}, {"v"})
        with pytest.raises(UnknownVertex):
            admissible_pair(g, {"nope"})

    def test_containment_order(self):
        g = omega_fan()
        small = admissible_pair(g, {"w1"})
        chosen = admissible_pair(g, {"w1"}, {"v"})
        big = admissible_pair(g, {"w1", "w2"})
        assert admissible_leq(small, chosen)
        assert not admissible_leq(chosen, small)
        assert admissible_leq(small, big)
        # the gap idempotent of v lies in no proper graded ideal above it
        assert not admissible_leq(chosen, big)


def _primed_name_taken():
    return Graph(["b", "b'", "h"], [Edge("loop", "b", "b"),
                                    Edge("down", "b", "h", OMEGA),
                                    Edge("in", "b'", "b")])


def _primed_edge_name_taken():
    # over H = {h}, u splits and both e and e' are copied onto u'
    return Graph(["a", "u", "h"], [Edge("e", "a", "u"), Edge("e'", "a", "u"),
                                   Edge("back", "u", "a"),
                                   Edge("down", "u", "h", OMEGA)])


class TestQuotient:
    def test_unchosen_breaking_vertex_splits(self):
        g = omega_loop()
        q = quotient_graph(g, admissible_pair(g, {"h"}))
        assert set(q.graph.vertices) == {"u", "u'"}
        assert q.is_primed_vertex("u'") and not q.is_primed_vertex("u")
        assert q.split_source == {"u'": "u"}
        assert q.graph.is_sink("u'")
        # the loop is kept and doubled onto the primed sink
        ids = sorted(e.id for e in q.graph.edges)
        assert ids == ["e", "e'"]
        assert q.graph.edge("e'").dst == "u'"

    def test_chosen_breaking_vertex_does_not_split(self):
        g = omega_loop()
        q = quotient_graph(g, admissible_pair(g, {"h"}, {"u"}))
        assert set(q.graph.vertices) == {"u"}
        assert [e.id for e in q.graph.edges] == ["e"]

    def test_quotient_drops_edges_into_the_ideal(self):
        g = omega_fan()
        q = quotient_graph(g, admissible_pair(g, {"w1", "w2"}))
        assert set(q.graph.vertices) == {"v"}
        assert q.graph.edges == ()

    def test_quotient_by_empty_pair_is_the_graph(self):
        g = loop_chain()
        q = quotient_graph(g, admissible_pair(g, frozenset()))
        assert q.graph == g

    def test_taken_primed_name_gives_the_next_prime(self):
        # b keeps its loop over H = {h}; the name b' is taken, so b's gap
        # idempotent lands on the new sink b''
        g = _primed_name_taken()
        q = quotient_graph(g, admissible_pair(g, {"h"}))
        assert q.graph.vertices == ("b", "b'", "b''")
        assert q.split_source == {"b''": "b"}
        assert q.graph.is_sink("b''")
        assert q.graph.edge("loop'").dst == "b''"
        assert q.graph.edge("in'").dst == "b''"

    def test_quotient_by_every_vertex_is_rejected(self):
        g = loop_chain()
        with pytest.raises(InvalidGraph):
            quotient_graph(g, admissible_pair(g, g.vertices))


class TestQuotientView:
    """quotient_view against the quotient graph it stands for."""

    def test_view_matches_the_built_quotient(self):
        pairs = split = exits = lone = 0
        for g in omega_corpus() + [_primed_name_taken(), _primed_edge_name_taken()]:
            everything = frozenset(g.vertices)
            for pair in admissible_pairs(g):
                if pair.vertices == everything:
                    continue
                q = quotient_graph(g, pair)
                view = quotient_view(g, pair)
                facts = quotient_facts(g, pair)
                assert quotient_view(g, pair) is view and view.facts is facts
                assert view.vertices == q.graph.vertices, (g, pair)
                assert view.split_source == q.split_source, (g, pair)
                for v in q.graph.vertices:
                    if not q.is_primed_vertex(v):
                        assert view.out_edges(v) == list(q.graph.out_edges(v))
                for e in q.graph.edges:
                    assert view.edge(e.id) == e, (g, pair, e)
                assert facts.tails == maximal_tails(q.graph), (g, pair)
                l_holds, dd = condition_l(q.graph)[0], downward_directed(q.graph)[0]
                assert (facts.condition_l, facts.downward_directed) == (l_holds, dd)
                assert zero_completely_irreducible(q.graph).verdict \
                    == (facts.condition_l and facts.downward_directed), (g, pair)
                for c in cycles_without_k(q.graph):
                    got = quotient_cycle_exits(g, pair, c)
                    assert [(e, par) for e, par, _ in got] == \
                        cycle_exits(q.graph, c), (g, pair, c)
                    exits += len(got)
                pairs += 1
                split += bool(view.split_source)
                lone += not facts.condition_l
        # the corpus splits breaking vertices, and (L) fails in some quotients
        assert pairs > 9000 and split > 900 and lone > 0 and exits > 0, \
            (pairs, split, lone, exits)
        view = quotient_view(_primed_name_taken(), AdmissiblePair(
            frozenset({"h"}), frozenset()))
        assert view.split_source == {"b''": "b"}
        g = _primed_edge_name_taken()
        view = quotient_view(g, admissible_pair(g, {"h"}))
        assert {e: c.id for e, c in view.copies.items()} == {"e": "e''", "e'": "e'''"}
        with pytest.raises(UnknownVertex, match="unknown edge id 'down'"):
            view.edge("down")

    def test_images_match_the_built_quotient(self):
        images = 0
        for g in omega_corpus():
            everything = frozenset(g.vertices)
            primes = enumerate_graded_primes(g)
            for pair in admissible_pairs(g):
                if pair.vertices == everything:
                    continue
                q = quotient_graph(g, pair)
                view = quotient_view(g, pair)
                for p in primes:
                    if admissible_leq(pair, p.pair):
                        assert view.image(p.pair) == \
                            quotient_prime_vertices(q, p), (g, pair, p)
                        images += 1
        assert images > 15000, images

    def test_the_whole_pair_has_no_quotient(self):
        g = loop_chain()
        whole = admissible_pair(g, g.vertices)
        for read in (quotient_view, quotient_facts):
            with pytest.raises(InvalidGraph, match="has no vertices"):
                read(g, whole)


class TestCycles:
    def test_rotation_normalization(self):
        c = Cycle.build(("b", "a"), ("e2", "e1"))
        assert c.vertices == ("a", "b") and c.edges == ("e1", "e2")
        assert c.start == "a"

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            Cycle.build(("a", "a"), ("e1", "e2"))

    def test_json_round_trip(self):
        c = Cycle.build(("a", "b"), ("e1", "e2"))
        assert Cycle.from_json(c.to_json()) == c
        with pytest.raises(ValueError):
            Cycle.from_json(["a", "e1", "b"])

    def test_enumeration(self):
        g = double_loop_chain()
        found = cycles(g)
        assert len(found) == 6
        assert all(len(c) == 1 for c in found)
        two = Graph(["a", "b"], [Edge("ab", "a", "b"), Edge("ba", "b", "a")])
        assert cycles(two) == [Cycle(("a", "b"), ("ab", "ba"))]

    def test_exits_and_multiplicity(self):
        g = loop_chain()
        (loop_u,) = [c for c in cycles(g) if c.start == "u"]
        assert [(e.id, par) for e, par in cycle_exits(g, loop_u)] == [("uw", False)]
        fat = Graph(["a"], [Edge("e", "a", "a", 2)])
        (c,) = cycles(fat)
        assert [(e.id, par) for e, par in cycle_exits(fat, c)] == [("e", True)]
        assert cycles_without_exits(fat) == []

    def test_scc_facts_match_enumeration(self):
        # the SCC-based cycle facts against filters over every simple cycle
        graphs = list(corpus().values())
        graphs += [random_graph(GeneratorConfig(seed=s)) for s in range(1, 201)]
        graphs += _multigraph_batch(SplitMix64(20261018), 1000)
        for g in graphs:
            found = cycles(g)
            through = collections.Counter(v for c in found for v in c.vertices)
            exitless = [c for c in found
                        if all(g.out_multiplicity(v) == 1 for v in c.vertices)]
            lone = [c for c in found
                    if all(through[v] == 1 for v in c.vertices)
                    and all(g.edge(e).mult == 1 for e in c.edges)]
            assert cycles_without_exits(g) == exitless, g
            assert cycles_without_k(g) == tuple(lone), g
            assert cycle_vertices(g) == set(through), g

    def test_check_in(self):
        g = loop_chain()
        Cycle.build(("u",), ("uu",)).check_in(g)
        with pytest.raises(InvalidGraph):
            Cycle.build(("u",), ("ww",)).check_in(g)


def _multigraph_batch(rng, count):
    """Graphs of at most 7 vertices with parallel slots and multiplicity 2."""
    out = []
    for _ in range(count):
        n = 1 + rng.below(7)
        edges = []
        for i in range(n):
            for j in range(n):
                if rng.chance(0.3):
                    for _ in range(1 + rng.below(2)):
                        mult = rng.choice([1, 1, 1, 2, OMEGA])
                        edges.append(Edge(f"e{len(edges)}", f"v{i}", f"v{j}",
                                          mult))
        out.append(Graph([f"v{i}" for i in range(n)], edges))
    return out


def _ring_with_chords(rng, n):
    edges = [Edge(f"r{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
    edges += [Edge(f"x{k}", f"v{rng.below(n)}", f"v{rng.below(n)}")
              for k in range(2)]
    return Graph([f"v{i}" for i in range(n)], edges)


def _chain_with_loops(rng, n):
    edges = [Edge(f"c{i}", f"v{i}", f"v{i - 1}") for i in range(1, n)]
    edges += [Edge(f"l{i}", f"v{i}", f"v{i}") for i in rng.shuffled(range(n))[:n // 4]]
    return Graph([f"v{i}" for i in range(n)], edges)


def _layered_omega_dag(rng, n):
    """Layers of 2, 3, 4, 2, ... vertices, each feeding part of the layer below."""
    layers, start = [], 0
    while start < n:
        width = min(n - start, 2 + len(layers) % 3)
        layers.append(range(start, start + width))
        start += width
    edges = []
    for upper, lower in zip(layers[1:], layers):
        for v in upper:
            targets = [u for u in lower if rng.chance(0.5)] or [rng.choice(lower)]
            for u in targets:
                mult = OMEGA if rng.chance(0.2) else 1
                edges.append(Edge(f"e{len(edges)}", f"v{v}", f"v{u}", mult))
    return Graph([f"v{i}" for i in range(n)], edges)


class TestConditions:
    def test_condition_l(self):
        holds, witness = condition_l(one_loop())
        assert not holds and witness.vertices == ("v",)
        assert condition_l(loop_chain())[0] is False  # the w loop has no exit
        assert condition_l(double_loop_chain()) == (True, None)

    def test_condition_k(self):
        assert condition_k(double_loop_chain()) == (True, None)
        holds, witness = condition_k(loop_chain())
        assert not holds and witness.start == "u"
        # a vertex on two distinct return paths but with a lone-cycle neighbour
        assert condition_k(petals())[0] is True

    def test_downward_directed(self):
        assert downward_directed(plain_chain()) == (True, None)
        holds, pair = downward_directed(sink_fork())
        assert not holds and set(pair) == {"v-1", "v1"}
        assert downward_directed(sink_fork(), {"v0", "v1"}) == (True, None)
        with pytest.raises(EmptySet):
            downward_directed(one_loop(), frozenset())

    def test_maximal_tails(self):
        assert maximal_tails(plain_chain()) == (frozenset({"v1", "v2", "v3"}),)
        assert maximal_tails(petals()) == (
            frozenset({"v1"}), frozenset({"v2"}), frozenset({"v3"}),
            frozenset({"v0", "v1", "v2", "v3"}),
        )
        assert maximal_tails(two_sinks()) == (frozenset({"a"}), frozenset({"b"}))

    def test_strong_csp(self):
        good = strong_csp(plain_chain())
        assert good.holds and good.witness == {"v1", "v2", "v3"}
        bad = strong_csp(sink_fork())
        assert not bad.holds and bad.witness == frozenset()
        # omega_fan: both sinks are hereditary saturated, cores intersect empty
        assert not strong_csp(omega_fan()).holds


class TestTailComplements:
    @staticmethod
    def _corpus():
        graphs = list(corpus().values())
        for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.json")):
            data = json.loads(path.read_text(encoding="utf-8"))
            if "vertices" in data:
                graphs.append(graph_from_json(data))
        graphs += [random_graph(GeneratorConfig(seed=s)) for s in range(1, 201)]
        graphs += _multigraph_batch(SplitMix64(20261019), 1000)
        return graphs

    def test_tails_and_primes_match_lattice_filters(self):
        # the prime hereditary saturated sets are the tail complements, so
        # neither they nor the graded primes need the lattice
        for g in self._corpus():
            everything = frozenset(g.vertices)
            filtered = [h for h in enumerate_hereditary_saturated(g)
                        if h != everything
                        and downward_directed(g, everything - h)[0]]
            assert tail_complements(g) == filtered, g
            proper = [Ideal(g, p) for p in enumerate_admissible_pairs(g)
                      if p.vertices != everything]
            assert enumerate_graded_primes(g) == [
                i for i in proper if is_prime(i).holds], g

    @staticmethod
    def _answers(g):
        out = [enumerate_graded_primes(g),
               irreducible_equals_completely_irreducible(g),
               factor_prime_powers(zero_ideal(g))]
        try:
            out.append(random_prime_power_family(GeneratorConfig(seed=3), g))
        except Unsatisfiable:
            out.append(None)
        return out

    def test_primes_walk_no_lattice(self, monkeypatch):
        expected = {name: self._answers(g) for name, g in corpus().items()}
        monkeypatch.setattr(graphs_module, "LATTICE_CAP", 1)
        for name, g in corpus().items():
            assert self._answers(g) == expected[name], name


def _memo_corpus():
    """1,000 seeded random graphs; a quarter of their slots are infinite bundles."""
    return [random_graph(GeneratorConfig(seed=s, omega_probability=0.25))
            for s in range(1, 1001)]


class TestGraphMemos:
    def test_emitters_and_breaking_vertices_follow_the_definition(self):
        for g in _memo_corpus():
            for v in g.vertices:
                omega = any(e.mult == OMEGA for e in g.out_edges(v))
                assert g.is_infinite_emitter(v) == omega
                assert g.vertex_class(v) == (
                    "infinite_emitter" if omega
                    else "regular" if g.out_edges(v) else "sink")
            n = len(g.vertices)
            for mask in range(2 ** n):
                hset = frozenset(v for i, v in enumerate(g.vertices)
                                 if mask >> i & 1)
                assert breaking_vertices(g, hset) == _breaking_literal(g, hset), \
                    (g, sorted(hset))

    def test_memoized_exits_equal_quotient_exits(self):
        checked = split = 0
        for g in _memo_corpus():
            candidates = cycles_without_k(g)
            for pair in admissible_pairs(g):
                outside = [c for c in candidates if c.start not in pair.vertices]
                if not outside:
                    continue
                q = quotient_graph(g, pair)
                for c in outside:
                    exits = quotient_cycle_exits(g, pair, c)
                    assert exits is quotient_cycle_exits(g, pair, c)
                    assert [(e, par) for e, par, _ in exits] == \
                        cycle_exits(q.graph, c), (g, pair, c)
                    for edge, _, source in exits:
                        assert source == q.split_source.get(edge.dst)
                        split += source is not None
                    checked += 1
        assert checked > 1000 and split > 0, (checked, split)

    def test_cycle_outside_the_quotient_is_rejected_every_time(self):
        g = loop_chain()
        w_in = admissible_pair(g, {"w"})
        wloop = Cycle.build(("w",), ("ww",))
        for _ in range(2):
            with pytest.raises(UnknownVertex, match="'ww'"):
                quotient_cycle_exits(g, w_in, wloop)
        assert (w_in, wloop) not in g._exits

    def test_rejected_pair_is_rejected_again(self):
        chain, fan = plain_chain(), omega_fan()
        admissible_pair(chain, {"v1", "v2", "v3"})
        admissible_pair(fan, {"w1"}, {"v"})
        for graph, hset, sset, error in (
                (chain, {"v1"}, (), NotHereditarySaturated),
                (chain, {"v2"}, (), NotHereditarySaturated),
                (fan, {"w2"}, {"v"}, NotAdmissible)):
            messages = []
            for _ in range(2):
                with pytest.raises(error) as info:
                    admissible_pair(graph, hset, sset)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
            assert (frozenset(hset), frozenset(sset)) not in graph._pairs

    def test_components_are_found_once_per_graph(self, monkeypatch):
        runs = collections.Counter()
        tarjan = graphs_module._tarjan

        def counted(graph):
            runs[id(graph)] += 1
            return tarjan(graph)

        monkeypatch.setattr(graphs_module, "_tarjan", counted)
        fresh = [graph_from_json(graph_to_json(g)) for g in corpus().values()]
        fresh += _memo_corpus()[:100]
        for g in fresh:
            # classify_algebra asks for (K) four times and for (L) once
            classify_algebra(g)
            for reader in (cycles_without_k, condition_k, condition_l,
                           maximal_tails):
                reader(g)
            assert runs[id(g)] == 1, g
            comp = graphs_module._strongly_connected_components(g)
            assert comp is graphs_module._strongly_connected_components(g)
            assert comp == tarjan(g)

    def test_pairs_and_tails_are_shared_and_immutable(self):
        g = petals()
        assert admissible_pair(g, ["v0"]) is admissible_pair(g, {"v0"}, ())
        tails = maximal_tails(g)
        assert isinstance(tails, tuple) and tails is maximal_tails(g)
        assert all(isinstance(t, frozenset) for t in tails)
        chain = loop_chain()
        lone = cycles_without_k(chain)
        assert isinstance(lone, tuple) and lone and lone is cycles_without_k(chain)


class TestSerialization:
    def test_graph_json_round_trip(self):
        for name, g in corpus().items():
            assert graph_from_json(graph_to_json(g)) == g, name

    def test_graph_json_validation(self):
        with pytest.raises(InvalidGraph):
            graph_from_json(["not", "an", "object"])
        with pytest.raises(InvalidGraph):
            graph_from_json({"vertices": ["a"]})
        with pytest.raises(InvalidGraph):
            graph_from_json({"vertices": ["a"],
                             "edges": [{"id": "e", "src": "a", "dst": "a",
                                        "mult": 1, "bogus": 2}]})

    def test_omega_serialized_as_inf(self):
        data = graph_to_json(omega_fan())
        mults = {e["id"]: e["mult"] for e in data["edges"]}
        assert mults == {"f": "inf", "g": 1}

    def test_dot_output(self):
        dot = graph_to_dot(omega_fan())
        assert dot.startswith("digraph")
        assert "ω" in dot  # infinite bundles are labelled with omega
        marked = graph_to_dot(one_loop(), highlight={"v"})
        assert "style=filled" in marked
