"""Canonical ideal forms, the graded lattice, primality, and prime powers."""

import dataclasses

import pytest

from lpaideals import graphs as graphs_module
from lpaideals import ideals as ideals_module
from lpaideals.errors import (
    FieldMismatch,
    GraphMismatch,
    ImproperIdeal,
    NotAdmissible,
    NotGraded,
    NotHereditarySaturated,
    TooLarge,
    Unsatisfiable,
)
from lpaideals.gallery import (
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
    AdmissiblePair,
    Cycle,
    Graph,
    Quotient,
    admissible_pair,
    graph_from_json,
    graph_to_json,
)
from lpaideals.ideals import (
    CyclePart,
    Ideal,
    canonicalize,
    contains,
    enumerate_graded_primes,
    factor_completely_irreducible,
    factor_prime_powers,
    graded_ideal,
    graded_part,
    ideal_from_json,
    ideal_power,
    ideal_to_json,
    is_completely_irreducible,
    is_graded,
    is_prime,
    is_proper,
    join_graded,
    meet_graded,
    multiply,
    prime_power_decompose,
    whole_ideal,
    zero_ideal,
)
from lpaideals.oracles import GeneratorConfig, random_graph, random_prime_power_family
from lpaideals.poly import FieldSpec, LaurentClass, Poly, normalize_laurent, poly

Q = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)

LOOP = Cycle.build(("v",), ("e",))
ULOOP = Cycle.build(("u",), ("uu",))
WLOOP = Cycle.build(("w",), ("ww",))


class TestCanonicalize:
    def test_polynomial_normalized_to_laurent_representative(self):
        ideal = canonicalize(one_loop(), (), (), [(LOOP, poly(Q, (3, 3)))])
        assert ideal_to_json(ideal) == {
            "H": [], "S": [], "field": "Q",
            "parts": [{"cycle": ["v", "e"], "poly": [1, 1]}],
        }

    def test_real_exit_pushes_target_into_h(self):
        # the u loop of loop_chain exits via u->w; the part survives only
        # once w lies in the ideal
        ideal = canonicalize(loop_chain(), (), (), [(ULOOP, poly(Q, (1, 1)))])
        assert sorted(ideal.pair.vertices) == ["w"]
        assert len(ideal.parts) == 1
        assert ideal.parts[0].poly.rep == poly(Q, (1, 1))

    def test_primed_exit_forces_breaking_vertex_into_s(self):
        g = omega_loop()
        cyc = Cycle.build(("u",), ("e",))
        ideal = canonicalize(g, ("h",), (), [(cyc, poly(Q, (1, 1)))])
        assert sorted(ideal.pair.vertices) == ["h"]
        assert sorted(ideal.pair.breaking) == ["u"]
        assert len(ideal.parts) == 1

    def test_unit_polynomial_swallows_the_cycle(self):
        ideal = canonicalize(one_loop(), (), (), [(LOOP, poly(Q, (5,)))])
        assert not is_proper(ideal) and not ideal.parts

    def test_duplicate_cycles_merge_by_gcd(self):
        merged = canonicalize(one_loop(), (), (), [
            (LOOP, poly(Q, (1, 1))),
            (LOOP, poly(Q, (1, 2, 1))),
        ])
        assert merged.parts[0].poly.rep == poly(Q, (1, 1))
        coprime = canonicalize(one_loop(), (), (), [
            (LOOP, poly(Q, (1, 1))),
            (LOOP, poly(Q, (1, 0, 1))),
        ])
        assert not is_proper(coprime)

    def test_sink_in_s_joins_h_and_regular_is_dropped(self):
        g = sink_fork()
        assert sorted(canonicalize(g, (), ("v-1",)).pair.vertices) == ["v-1"]
        dropped = canonicalize(g, (), ("v0",))
        assert dropped == zero_ideal(g)

    def test_inexpressible_gap_idempotent_rejected(self):
        with pytest.raises(NotAdmissible):
            canonicalize(omega_fan(), (), ("v",))

    def test_gap_expressible_once_bundle_lands_inside(self):
        ideal = canonicalize(omega_fan(), ("w1",), ("v",))
        assert sorted(ideal.pair.vertices) == ["w1"]
        assert sorted(ideal.pair.breaking) == ["v"]

    def test_slot_exhausted_emitter_joins_h(self):
        ideal = canonicalize(omega_fan(), ("w1", "w2"), ("v",))
        assert sorted(ideal.pair.vertices) == ["v", "w1", "w2"]

    def test_field_mismatch_between_parts(self):
        with pytest.raises(FieldMismatch):
            canonicalize(one_loop(), (), (), [
                (LOOP, poly(Q, (1, 1))),
                (LOOP, poly(GF2, (1, 1, 1))),
            ])

    def test_direct_construction_revalidates(self):
        # a cycle with an exit in the quotient is not a legal part
        g = loop_chain()
        part = CyclePart(ULOOP, normalize_laurent(poly(Q, (1, 1))))
        with pytest.raises(ValueError):
            Ideal(g, admissible_pair(g, frozenset()), (part,))


class TestGradedLattice:
    def test_meet_and_join_of_incomparable_sinks(self):
        g = sink_fork()
        a, b = graded_ideal(g, ("v-1",)), graded_ideal(g, ("v1",))
        assert meet_graded(a, b) == zero_ideal(g)
        assert join_graded(a, b) == whole_ideal(g)

    def test_breaking_set_meet_formula(self):
        g = omega_fan()
        chosen = graded_ideal(g, ("w1",), ("v",))
        plain = graded_ideal(g, ("w1",))
        met = meet_graded(chosen, plain)
        assert met == plain
        joined = join_graded(chosen, plain)
        assert joined == chosen

    def test_join_absorbs_exhausted_emitter(self):
        g = omega_fan()
        chosen = graded_ideal(g, ("w1",), ("v",))
        other = graded_ideal(g, ("w2",))
        assert join_graded(chosen, other) == whole_ideal(g)

    def test_nary_meet_matches_pairwise(self):
        g = petals()
        primes = enumerate_graded_primes(g)[1:]
        nary = meet_graded(*primes)
        pairwise = meet_graded(meet_graded(primes[0], primes[1]), primes[2])
        assert nary == pairwise == graded_ideal(g, ("v0",))

    def test_graded_only(self):
        withpart = canonicalize(one_loop(), (), (), [(LOOP, poly(Q, (1, 1)))])
        with pytest.raises(NotGraded):
            meet_graded(withpart, zero_ideal(one_loop()))
        with pytest.raises(NotGraded):
            join_graded(withpart, zero_ideal(one_loop()))


class TestContainment:
    def test_divisibility_on_one_cycle(self):
        p1 = canonicalize(one_loop(), (), (), [(LOOP, poly(Q, (1, 1)))])
        p2 = canonicalize(one_loop(), (), (), [(LOOP, poly(Q, (1, 2, 1)))])
        assert contains(p1, p2) and not contains(p2, p1)
        assert contains(whole_ideal(one_loop()), p2)
        assert contains(p2, zero_ideal(one_loop()))
        assert p2 == ideal_power(p1, 2)

    def test_part_against_graded(self):
        g = loop_chain()
        graded = graded_ideal(g, ("w",))
        nongraded = canonicalize(g, (), (), [(ULOOP, poly(Q, (1, 1)))])
        assert contains(nongraded, graded)
        assert not contains(graded, nongraded)

    def test_graph_mismatch(self):
        with pytest.raises(GraphMismatch):
            contains(zero_ideal(one_loop()), zero_ideal(loop_chain()))

    def test_graded_part_projection(self):
        g = loop_chain()
        nongraded = canonicalize(g, (), (), [(ULOOP, poly(Q, (1, 1)))])
        assert graded_part(nongraded) == graded_ideal(g, ("w",))
        assert is_graded(graded_part(nongraded))


class TestPrimality:
    def test_case1_downward_directed_complement(self):
        res = is_prime(zero_ideal(one_loop()))
        assert res.holds and res.case == 1

    def test_case2_missing_breaking_vertex(self):
        res = is_prime(graded_ideal(omega_loop(), ("h",)))
        assert res.holds and res.case == 2

    def test_case3_irreducible_cycle_polynomial(self):
        p = canonicalize(one_loop(), (), (), [(LOOP, poly(Q, (1, 1)))])
        res = is_prime(p)
        assert res.holds and res.case == 3
        square = canonicalize(one_loop(), (), (), [(LOOP, poly(Q, (1, 2, 1)))])
        assert not is_prime(square).holds

    def test_improper_rejected(self):
        with pytest.raises(ImproperIdeal):
            is_prime(whole_ideal(one_loop()))

    def test_enumerate_graded_primes_fixtures(self):
        assert [sorted(p.pair.vertices) for p in enumerate_graded_primes(petals())] \
            == [[], ["v0", "v1", "v2"], ["v0", "v1", "v3"], ["v0", "v2", "v3"]]
        assert [sorted(p.pair.vertices)
                for p in enumerate_graded_primes(double_loop_chain())] \
            == [[], ["v1"], ["v1", "v2"]]
        # a fork is not downward directed, so its zero ideal is not prime
        assert [sorted(p.pair.vertices) for p in enumerate_graded_primes(sink_fork())] \
            == [["v-1"], ["v1"]]


class TestPrimePowers:
    def test_decompose_power_of_nongraded_prime(self):
        cube = canonicalize(one_loop(), (), (),
                            [(LOOP, Poly(GF2, (1, 1, 1)) ** 3)])
        prime, exponent = prime_power_decompose(cube)
        assert prime.parts[0].poly.rep == poly(GF2, (1, 1, 1))
        assert exponent == 3
        assert ideal_power(prime, 3) == cube

    def test_decompose_graded_prime(self):
        p = enumerate_graded_primes(petals())[1]
        assert prime_power_decompose(p) == (p, 1)

    def test_mixed_polynomial_is_no_prime_power(self):
        mixed = canonicalize(one_loop(), (), (),
                             [(LOOP, poly(Q, (1, 1)) * poly(Q, (1, 0, 1)))])
        assert prime_power_decompose(mixed) is None

    def test_graded_power_is_idempotent(self):
        p = graded_ideal(loop_chain(), ("w",))
        assert ideal_power(p, 5) == p


class TestCompleteIrreducibility:
    def test_graded_route(self):
        res = is_completely_irreducible(graded_ideal(omega_loop(), ("h",)))
        assert res.holds and res.case == 1
        res0 = is_completely_irreducible(zero_ideal(plain_chain()))
        assert res0.holds and res0.case == 1

    def test_nongraded_route(self):
        square = canonicalize(one_loop(), (), (), [(LOOP, poly(Q, (1, 2, 1)))])
        res = is_completely_irreducible(square)
        assert res.holds and res.case == 2

    def test_failures(self):
        # a loop without exit breaks condition (L) in the quotient
        assert not is_completely_irreducible(zero_ideal(one_loop())).holds
        # two sinks leave no least nonempty hereditary saturated set
        assert not is_completely_irreducible(zero_ideal(two_sinks())).holds


def _memo_contents(graph):
    """Every object reachable from the graph's memos, containers unpacked."""
    todo = [graph._descendants, graph._reaching, graph._tails, graph._pairs,
            graph._quotients, graph._exits]
    seen = []
    while todo:
        x = todo.pop()
        seen.append(x)
        if isinstance(x, dict):
            todo.extend(x.keys())
            todo.extend(x.values())
        elif isinstance(x, (tuple, list, set, frozenset)):
            todo.extend(x)
        elif dataclasses.is_dataclass(x):
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return seen


class TestGraphMemos:
    def test_invalid_ideals_raise_after_valid_ones(self):
        chain = plain_chain()
        assert contains(whole_ideal(chain), zero_ideal(chain))
        graded_ideal(chain, {"v1", "v2", "v3"})
        kept = dict(chain._ideals)
        for _ in range(2):
            with pytest.raises(NotHereditarySaturated, match="not saturated"):
                Ideal(chain, AdmissiblePair(frozenset({"v1"}), frozenset()))
        assert chain._ideals == kept

        g = loop_chain()
        valid = canonicalize(g, {"w"}, (), [(ULOOP, poly(Q, (1, 1)))])
        assert valid.pair.vertices == {"w"}
        zero = zero_ideal(g)
        kept = dict(g._ideals)
        for _ in range(2):
            with pytest.raises(ValueError, match="has an exit in the quotient"):
                Ideal(g, zero.pair, valid.parts)
        assert g._ideals == kept

    def test_pairs_are_shared_between_ideals(self):
        g = loop_chain()
        a = canonicalize(g, {"w"}, (), [(ULOOP, poly(Q, (1, 1)))])
        b = canonicalize(g, {"w"}, (), [(ULOOP, poly(Q, (2, 1)))])
        assert a.pair is b.pair is graded_ideal(g, {"w"}).pair

    def test_factoring_builds_no_quotient(self, monkeypatch):
        families = []
        for seed in range(1, 400):
            cfg = GeneratorConfig(seed=seed, field=FieldSpec.prime_field(2 + seed % 2),
                                  max_poly_degree=2)
            g = random_graph(cfg)
            try:
                family = random_prime_power_family(cfg, g)
            except (Unsatisfiable, TooLarge):
                continue
            if any(m.parts for m in family):
                families.append((graph_to_json(g), [ideal_to_json(m) for m in family]))
            if len(families) == 30:
                break
        assert len(families) == 30

        builds, keys, calls = [], set(), []
        init = Graph.__init__
        exits = ideals_module.quotient_cycle_exits

        def counted_init(graph, vertices, edges):
            builds.append(1)
            init(graph, vertices, edges)

        def refused_build(graph, pair):
            raise AssertionError(f"quotient built for {pair}")

        def counted_exits(graph, pair, cycle):
            calls.append(1)
            keys.add((id(graph), pair, cycle))
            return exits(graph, pair, cycle)

        # ideals reads quotients through graphs.quotient_view alone
        assert not hasattr(ideals_module, "quotient_graph")
        monkeypatch.setattr(graphs_module, "quotient_graph", refused_build)
        monkeypatch.setattr(Graph, "__init__", counted_init)
        monkeypatch.setattr(ideals_module, "quotient_cycle_exits", counted_exits)
        graphs = []
        for graph_json, members_json in families:
            g = graph_from_json(graph_json)
            graphs.append(g)
            members = [ideal_from_json(g, m) for m in members_json]
            product = multiply(members)
            assert factor_prime_powers(product) is not None
            factor_completely_irreducible(product)
        # the only graphs built are the 30 parsed ones
        assert len(builds) == len(families)
        assert len(keys) < len(calls) / 4, (len(keys), len(calls))
        for g in graphs:
            assert g._quotients
            assert not any(isinstance(x, (Graph, Quotient))
                           for x in _memo_contents(g))


class TestInterning:
    """A graph holds one Ideal per canonical form."""

    def test_equal_constructions_are_one_object(self):
        g = loop_chain()
        a = canonicalize(g, {"w"}, (), [(ULOOP, poly(Q, (1, 1)))])
        assert canonicalize(g, {"w"}, (), [(ULOOP, poly(Q, (3, 3)))]) is a
        assert canonicalize(g, (), (), [(ULOOP, poly(Q, (1, 1))),
                                        (WLOOP, poly(Q, (1,)))]) is a
        assert ideal_from_json(g, ideal_to_json(a)) is a
        assert graded_part(a) is graded_ideal(g, {"w"}) is join_graded(graded_part(a))
        assert zero_ideal(g) is graded_ideal(g, ()) is meet_graded(zero_ideal(g))

        loop = one_loop()
        prime = canonicalize(loop, (), (), [(LOOP, poly(GF2, (1, 1)))])
        square = canonicalize(loop, (), (), [(LOOP, poly(GF2, (1, 0, 1)))])
        assert ideal_power(prime, 2) is square
        assert multiply([prime, prime]) is square
        assert prime_power_decompose(square) == (prime, 2)
        assert prime_power_decompose(square)[0] is prime

    def test_a_reparsed_graph_holds_its_own_ideals(self):
        g = loop_chain()
        twin_graph = graph_from_json(graph_to_json(g))
        assert twin_graph == g and hash(twin_graph) == hash(g)
        for ideal in (canonicalize(g, {"w"}, (), [(ULOOP, poly(Q, (1, 1)))]),
                      zero_ideal(g), whole_ideal(g)):
            twin = ideal_from_json(twin_graph, ideal_to_json(ideal))
            assert twin == ideal and hash(twin) == hash(ideal)
            assert twin is not ideal and twin.graph is twin_graph
            assert {ideal: 1}[twin] == 1
            assert contains(twin, ideal) and contains(ideal, twin)
        other = ideal_from_json(twin_graph, {"H": ["w"], "S": []})
        assert other != canonicalize(g, {"w"}, (), [(ULOOP, poly(Q, (1, 1)))])
        assert other == graded_ideal(g, {"w"})


class TestSerialization:
    def test_round_trip_with_parts(self):
        ideal = canonicalize(one_loop(), (), (),
                             [(LOOP, Poly(GF2, (1, 1, 0, 1, 1)))])
        assert ideal_from_json(one_loop(), ideal_to_json(ideal)) == ideal

    def test_graded_round_trip_omits_field(self):
        ideal = graded_ideal(omega_loop(), ("h",), ("u",))
        data = ideal_to_json(ideal)
        assert "field" not in data
        assert ideal_from_json(omega_loop(), data) == ideal

    def test_input_is_canonicalized(self):
        messy = ideal_from_json(loop_chain(), {
            "H": [], "S": [], "field": "Q",
            "parts": [{"cycle": ["u", "uu"], "poly": [3, 3]}],
        })
        assert sorted(messy.pair.vertices) == ["w"]
        assert messy.parts[0].poly.rep == poly(Q, (1, 1))

    def test_malformed_inputs(self):
        g = one_loop()
        with pytest.raises(ValueError):
            ideal_from_json(g, ["H"])
        with pytest.raises(ValueError):
            ideal_from_json(g, {"H": [], "bogus": 1})
        with pytest.raises(ValueError):
            ideal_from_json(g, {"parts": [{"cycle": ["v", "e"], "poly": [1, 1]}]})
        with pytest.raises(ValueError):
            ideal_from_json(g, {"field": "Q",
                                "parts": [{"cycle": ["v", "e"], "poly": []}]})

    def test_default_field_conflicts(self):
        g = one_loop()
        data = {"H": [], "S": [], "field": "GF(2)",
                "parts": [{"cycle": ["v", "e"], "poly": [1, 1]}]}
        assert ideal_from_json(g, data, GF2).field == GF2
        with pytest.raises(ValueError):
            ideal_from_json(g, data, Q)
