"""Independent oracles and the seeded random generators."""

import itertools
import time

import pytest

from lpaideals.errors import TooLarge, Unsatisfiable
from lpaideals.gallery import (
    corpus,
    double_loop_chain,
    loop_chain,
    omega_fan,
    one_loop,
    sink_fork,
)
from lpaideals.classify import (
    every_proper_ideal_completely_irreducible,
    irreducible_equals_completely_irreducible,
)
from lpaideals.graphs import (
    AdmissiblePair,
    Graph,
    admissible_leq,
    admissible_pair,
    breaking_vertices,
    condition_k,
    downward_directed,
    hereditary_saturated_closure,
    maximal_tails,
    principal_closures,
    quotient_graph,
    strong_csp,
    tail_complements,
)
from lpaideals.ideals import (
    Ideal,
    intersect,
    join_graded,
    make_irredundant,
    meet_graded,
    multiply,
    prime_power_decompose,
)
from lpaideals.oracles import (
    GeneratorConfig,
    absorb,
    bruteforce_factor_gf,
    closure_oracle,
    combine_with_absorption,
    comp_irred_chain_walk,
    enumerate_admissible_pairs,
    glb_oracle,
    lub_oracle,
    maximal_tails_bruteforce,
    omega_corpus,
    random_graph,
    random_prime_power_family,
    strong_csp_oracle,
)
from lpaideals.poly import (
    FieldSpec,
    Poly,
    factor,
    is_irreducible_laurent,
    normalize_laurent,
)
from lpaideals.rng import SplitMix64

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


def _pair_json(pair):
    return {"H": sorted(pair.vertices), "S": sorted(pair.breaking)}


def _comparable(p1, p2):
    return admissible_leq(p1, p2) or admissible_leq(p2, p1)


class TestCondensation:
    """The free-component condensation against closures and lattice walks."""

    def test_principal_closures_are_closures(self):
        for g in omega_corpus():
            closures = principal_closures(g)
            for v in g.vertices:
                assert closures[v] == hereditary_saturated_closure(g, {v}), (g, v)

    def test_strong_csp_matches_subset_scan(self):
        # a downward directed finite graph has the strong CSP: its vertices
        # reach one common free component, the only minimal one
        for g in omega_corpus():
            want = strong_csp_oracle(g)
            assert strong_csp(g) == want, g
            assert want.holds or not downward_directed(g)[0], g

    def test_tail_complement_quotients_have_the_strong_csp(self):
        # the quotient by (H, B_H) for a tail complement H is the maximal
        # tail E^0 \ H, which is downward directed; so the strong-CSP half
        # of the match predicate always holds and condition (K) decides it
        for g in omega_corpus():
            for hset in tail_complements(g):
                pair = admissible_pair(g, hset, breaking_vertices(g, hset))
                quotient = quotient_graph(g, pair).graph
                assert strong_csp_oracle(quotient).holds, (g, hset)
            assert irreducible_equals_completely_irreducible(g).verdict \
                == condition_k(g)[0], g

    def test_downward_directed_matches_definition(self):
        for g in omega_corpus()[:1000]:
            desc = {v: {w for w in g.vertices if g.reaches(v, w)}
                    for v in g.vertices}
            for sub in all_subsets(g.vertices):
                if not sub:
                    continue
                bad = next(((u, v) for i, u in enumerate(sub) for v in sub[i + 1:]
                            if not desc[u] & desc[v] & set(sub)), None)
                assert downward_directed(g, sub) == (bad is None, bad), (g, sub)

    def test_chain_predicate_matches_lattice_walk(self):
        changed = 0
        for g in omega_corpus():
            got = every_proper_ideal_completely_irreducible(g)
            verdict, witness = comp_irred_chain_walk(g)
            assert got.verdict == verdict, g
            if got.witness == witness:
                continue
            # only the chain witness may differ: it is read off the
            # principal-closure pairs instead of the whole lattice
            assert got.witness["condition"] == witness["condition"] == "chain", g
            changed += 1
            lattice = {str(_pair_json(p)): p for p in enumerate_admissible_pairs(g)}
            found = [lattice[str(p)] for p in got.witness["pairs"]]
            assert not _comparable(*found), g
        assert changed > 0

    def test_chain_witness_is_first_over_all_principal_pairs(self):
        # every S of each B_H built, against the few subsets the predicate
        # builds; denser bundles give more breaking vertices per set
        dense = [random_graph(GeneratorConfig(seed=s, max_vertices=8,
                                              edge_density=0.3,
                                              omega_probability=0.6))
                 for s in range(1, 4001)]
        for g in omega_corpus() + dense:
            got = every_proper_ideal_completely_irreducible(g)
            if got.verdict or got.witness["condition"] != "chain":
                continue
            pairs = sorted(
                (AdmissiblePair(h, frozenset(s))
                 for h in {frozenset(), *principal_closures(g).values()}
                 for s in all_subsets(breaking_vertices(g, h))),
                key=lambda p: p.key())
            first = next((p1, p2) for p1, p2 in itertools.combinations(pairs, 2)
                         if not _comparable(p1, p2))
            assert got.witness["pairs"] == [_pair_json(p) for p in first], g


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

    @pytest.mark.parametrize("p", [1009, 2**31 - 1])
    def test_large_prime_families_are_drawn_fast(self, p):
        # past the sieve's fields, polynomials are drawn and tested instead
        field = FieldSpec.prime_field(p)
        start = time.perf_counter()
        bases = 0
        for seed in range(1, 25):
            cfg = GeneratorConfig(seed=seed, field=field, max_poly_degree=3)
            graph = random_graph(cfg)
            try:
                family = random_prime_power_family(cfg, graph)
            except (Unsatisfiable, TooLarge):
                continue
            for member in family:
                if member.parts:
                    base = prime_power_decompose(member)[0].parts[0].poly
                    assert base.field == field and 1 <= base.degree <= 3
                    assert is_irreducible_laurent(base)
                    bases += 1
            assert multiply(family) == intersect(family), seed
        assert bases >= 10
        assert time.perf_counter() - start < 1.0

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


class TestAbsorption:
    """multiply, intersect and make_irredundant combine every factor as
    given; absorbing the contained factors first gives the same answers."""

    MODES = ("product", "intersection")

    @staticmethod
    def _mixes(seeds, per_seed=6):
        """Lists of 2-4 factors, each drawn with even odds from the nonzero
        graded ideals of a random graph or from three prime-power families
        on it, which may repeat primes."""
        fields = (GF2, FieldSpec.prime_field(5), FieldSpec.rationals())
        mixes = []
        for seed in seeds:
            cfg = GeneratorConfig(seed=seed, max_vertices=6,
                                  omega_probability=0.3,
                                  field=fields[seed % 3], max_poly_degree=2)
            graph = random_graph(cfg)
            graded = [Ideal(graph, pair)
                      for pair in enumerate_admissible_pairs(graph)
                      if pair.vertices or pair.breaking]
            powers = []
            for draw in range(3):
                try:
                    powers += random_prime_power_family(
                        GeneratorConfig(seed=seed + 1000 * draw,
                                        field=cfg.field, max_poly_degree=2),
                        graph, distinct=False)
                except Unsatisfiable:
                    break
            rng = SplitMix64(seed)
            for _ in range(per_seed):
                mixes.append([rng.choice(powers if powers and rng.chance(0.5)
                                         else graded)
                              for _ in range(2 + rng.below(3))])
        return mixes

    @staticmethod
    def _irredundant_by_absorption(factors, mode):
        target = combine_with_absorption(factors, mode)
        kept = list(factors)
        i = 0
        while i < len(kept):
            if len(kept) > 1:
                trial = kept[:i] + kept[i + 1:]
                if combine_with_absorption(trial, mode) == target:
                    kept = trial
                    continue
            i += 1
        return kept

    def test_combining_every_factor_matches_absorption(self):
        mixes = self._mixes(range(200))
        assert len(mixes) == 1200
        shrunk = dict.fromkeys(self.MODES, 0)
        for mix in mixes:
            for mode in self.MODES:
                combine = multiply if mode == "product" else intersect
                assert combine(mix) == combine_with_absorption(mix, mode), \
                    (mode, mix)
                assert make_irredundant(mix, mode) \
                    == self._irredundant_by_absorption(mix, mode), (mode, mix)
                shrunk[mode] += len(absorb(mix, mode)) < len(mix)
        assert shrunk == {"product": 1146, "intersection": 1159}
