"""Independent oracles and the seeded random generators."""

import itertools

import pytest

from lpaideals.errors import Unsatisfiable
from lpaideals.gallery import (
    corpus,
    double_loop_chain,
    loop_chain,
    omega_fan,
    one_loop,
    sink_fork,
)
from lpaideals.graphs import (
    Graph,
    admissible_pair,
    hereditary_saturated_closure,
    maximal_tails,
)
from lpaideals.ideals import (
    Ideal,
    join_graded,
    meet_graded,
    prime_power_decompose,
)
from lpaideals.oracles import (
    GeneratorConfig,
    bruteforce_factor_gf,
    closure_oracle,
    enumerate_admissible_pairs,
    glb_oracle,
    lub_oracle,
    maximal_tails_bruteforce,
    random_graph,
    random_prime_power_family,
)
from lpaideals.poly import (
    FieldSpec,
    Poly,
    factor,
    is_irreducible_laurent,
    normalize_laurent,
)

GF2 = FieldSpec.prime_field(2)
GF3 = FieldSpec.prime_field(3)


def all_subsets(vertices):
    ordered = sorted(vertices)
    return itertools.chain.from_iterable(
        itertools.combinations(ordered, r) for r in range(len(ordered) + 1))


class TestAdmissiblePairEnumeration:
    def test_breaking_subsets_enumerated(self):
        keys = {(tuple(sorted(p.vertices)), tuple(sorted(p.breaking)))
                for p in enumerate_admissible_pairs(omega_fan())}
        assert (("w1",), ()) in keys
        assert (("w1",), ("v",)) in keys

    def test_single_vertex(self):
        got = [(sorted(p.vertices), sorted(p.breaking))
               for p in enumerate_admissible_pairs(Graph(["v"], []))]
        assert got == [([], []), (["v"], [])]

    def test_no_spurious_breaking_choices(self):
        pairs = enumerate_admissible_pairs(double_loop_chain())
        assert len(pairs) == 4
        assert all(not p.breaking for p in pairs)


class TestLatticeOracles:
    def test_idempotent(self):
        pairs = enumerate_admissible_pairs(sink_fork())
        p = admissible_pair(sink_fork(), ("v-1",))
        assert glb_oracle(pairs, p, p) == p
        assert lub_oracle(pairs, p, p) == p

    def test_incomparable_sinks(self):
        g = sink_fork()
        pairs = enumerate_admissible_pairs(g)
        a, b = admissible_pair(g, ("v-1",)), admissible_pair(g, ("v1",))
        assert glb_oracle(pairs, a, b).key() == ([], [])
        assert sorted(lub_oracle(pairs, a, b).vertices) == ["v-1", "v0", "v1"]

    def test_comparable_pairs(self):
        g = omega_fan()
        pairs = enumerate_admissible_pairs(g)
        small = admissible_pair(g, ("w1",))
        big = admissible_pair(g, ("w1",), ("v",))
        assert lub_oracle(pairs, small, big) == big
        assert glb_oracle(pairs, small, big) == small


class TestOracleAgreement:
    def test_closure_on_all_corpus_subsets(self):
        for name, graph in sorted(corpus().items()):
            for sub in all_subsets(graph.vertices):
                fast = frozenset(hereditary_saturated_closure(graph, sub))
                assert fast == closure_oracle(graph, sub), (name, sub)

    def test_maximal_tails_on_corpus(self):
        for name, graph in sorted(corpus().items()):
            fast = [frozenset(t) for t in maximal_tails(graph)]
            assert fast == maximal_tails_bruteforce(graph), name

    def test_meet_join_on_corpus(self):
        for name, graph in sorted(corpus().items()):
            pairs = enumerate_admissible_pairs(graph)
            ideals = [Ideal(graph, p) for p in pairs]
            for a, b in itertools.product(ideals, repeat=2):
                assert meet_graded(a, b).pair == glb_oracle(pairs, a.pair,
                                                            b.pair), name
                assert join_graded(a, b).pair == lub_oracle(pairs, a.pair,
                                                            b.pair), name

    def test_gf_factor_agreement_exhaustive(self):
        for field, degree in ((GF2, 5), (GF3, 3)):
            for coeffs in itertools.product(range(field.p), repeat=degree):
                if coeffs[0] == 0:
                    continue
                f = Poly(field, list(coeffs) + [1])
                expected = bruteforce_factor_gf(f)
                assert expected == factor(f), (field.label, coeffs)
                assert is_irreducible_laurent(normalize_laurent(f)) \
                    == (expected == [(f, 1)]), (field.label, coeffs)


class TestGenerators:
    def test_degenerate_config_forces_a_loop(self):
        cfg = GeneratorConfig(seed=1, max_vertices=1, edge_density=1.0,
                              omega_probability=0.0)
        g = random_graph(cfg)
        assert len(g.vertices) == 1 and len(g.edges) == 1
        assert g.edges[0].src == g.edges[0].dst

    def test_seed_determinism(self):
        cfg = GeneratorConfig(seed=7, max_vertices=6, edge_density=0.5,
                              omega_probability=0.2, field=GF2,
                              max_poly_degree=2)
        assert random_graph(cfg) == random_graph(cfg)
        fam_cfg = GeneratorConfig(seed=3, field=GF2, max_poly_degree=2)
        assert random_prime_power_family(fam_cfg, one_loop()) \
            == random_prime_power_family(fam_cfg, one_loop())

    def test_family_members_are_proper_prime_powers(self):
        for seed in range(20):
            cfg = GeneratorConfig(seed=seed, field=GF2, max_poly_degree=2)
            fam = random_prime_power_family(cfg, loop_chain())
            assert fam
            bases = []
            for member in fam:
                decomposed = prime_power_decompose(member)
                assert decomposed is not None
                bases.append(decomposed[0])
            assert len(set(bases)) == len(bases), seed

    def test_one_loop_polynomials_bounded_by_degree_cap(self):
        cfg = GeneratorConfig(seed=3, field=GF2, max_poly_degree=2)
        for member in random_prime_power_family(cfg, one_loop()):
            base = prime_power_decompose(member)[0]
            assert base.parts[0].poly.rep.coeffs in ((1, 1), (1, 1, 1))

    def test_isolated_vertex_has_no_proper_nonzero_prime(self):
        with pytest.raises(Unsatisfiable):
            random_prime_power_family(GeneratorConfig(seed=1),
                                      Graph(["z"], []))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, max_vertices=0)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, edge_density=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, omega_probability=-0.1)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, max_poly_degree=0)
