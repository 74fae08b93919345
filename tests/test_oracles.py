"""Independent oracles and the seeded random generators."""

import collections
import hashlib
import itertools
import json
import time

import pytest

from lpaideals import graphs as graphs_module
from lpaideals import ideals as ideals_module
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
    Edge,
    Graph,
    OMEGA,
    admissible_leq,
    admissible_pair,
    breaking_vertices,
    condition_k,
    cycles_without_exits,
    downward_directed,
    graph_from_json,
    graph_to_json,
    hereditary_saturated_closure,
    maximal_tails,
    principal_closures,
    quotient_facts,
    quotient_graph,
    quotient_view,
    strong_csp,
)
from lpaideals.ideals import (
    Ideal,
    canonicalize,
    factor_prime_powers,
    ideal_from_json,
    ideal_power,
    ideal_to_json,
    intersect,
    join_graded,
    make_irredundant,
    meet_graded,
    multiply,
    prime_power_decompose,
)
from lpaideals.oracles import (
    GeneratorConfig,
    _reaches_literal,
    absorb,
    bruteforce_factor_gf,
    closure_oracle,
    combine_by_canonicalize,
    combine_by_prime_powers,
    combine_on_loops,
    combine_with_absorption,
    comp_irred_chain_walk,
    direct_prime_power_decompose,
    disjoint_loops,
    enumerate_admissible_pairs,
    glb_oracle,
    irredundant_tail_cover,
    irreducible_gf,
    irreducible_z,
    is_maximal_tail_literal,
    lub_oracle,
    maximal_tails_bruteforce,
    omega_corpus,
    random_graph,
    random_loop_ideal,
    random_prime_power_family,
    strong_csp_oracle,
    tail_primes_by_image,
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
Q = FieldSpec.rationals()


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


class TestIrreducibility:
    """is_irreducible_laurent reads the answer off factor(); the references
    decide it without factoring: Ben-Or over GF(p), square-free with one
    Zassenhaus factor over Q."""

    @staticmethod
    def _agree(f, reference) -> bool:
        verdict = is_irreducible_laurent(normalize_laurent(f))
        assert verdict == reference(f), (f.field.label, f.pretty())
        return verdict

    def _check_family(self, irreducibles, reference):
        """Each drawn irreducible, its square and the product of two
        distinct ones, with both tests agreeing on every input."""
        assert any(g.degree == 1 for g in irreducibles)
        assert any(g.degree >= 2 for g in irreducibles)
        for g in irreducibles:
            assert self._agree(g, reference)
            assert not self._agree(g * g, reference)
        for g, h in zip(irreducibles, irreducibles[1:]):
            if g != h:
                assert not self._agree(g * h, reference)

    @pytest.mark.parametrize("p,top", [(2, 10), (3, 8), (101, 6), (2**31 - 1, 8)])
    def test_gf_matches_ben_or(self, p, top):
        field = FieldSpec.prime_field(p)
        rng = SplitMix64(20261020 + p)
        irreducibles, reducible = [], 0
        for _ in range(40):
            degree = 1 + rng.below(top)
            f = Poly(field, [1 + rng.below(p - 1)]
                     + [rng.below(p) for _ in range(degree - 1)] + [1])
            if self._agree(f, irreducible_gf):
                irreducibles.append(f)
            else:
                reducible += 1
        assert reducible >= 5
        self._check_family(irreducibles, irreducible_gf)

    def test_q_matches_zassenhaus(self):
        rng = SplitMix64(20261020)
        irreducibles, reducible = [], 0
        for _ in range(40):
            degree = 1 + rng.below(5)
            coeffs = [rng.below(7) - 3 for _ in range(degree)] + [1 + rng.below(3)]
            coeffs[0] = coeffs[0] or 1
            f = Poly(Q, coeffs)
            if self._agree(f, irreducible_z):
                irreducibles.append(f)
            else:
                reducible += 1
        assert reducible >= 5
        self._check_family(irreducibles, irreducible_z)

    def test_references_reject_what_they_cannot_decide(self):
        with pytest.raises(ValueError):
            irreducible_gf(Poly(Q, (1, 1)))
        with pytest.raises(ValueError):
            irreducible_z(Poly(GF2, (1, 1)))
        with pytest.raises(ValueError):
            irreducible_gf(Poly(GF3, (2,)))


def _pair_json(pair):
    return {"H": sorted(pair.vertices), "S": sorted(pair.breaking)}


def _comparable(p1, p2):
    return admissible_leq(p1, p2) or admissible_leq(p2, p1)


class TestCondensation:
    """The free-component condensation against closures and lattice walks."""

    def test_reaching_sets_match_backward_search(self):
        for g in omega_corpus():
            for w in g.vertices:
                want = {v for v in g.vertices if _reaches_literal(g, v, w)}
                assert g.reaching_set(w) == want, (g, w)
                # the members of one component share one frozenset
                for v in want:
                    if _reaches_literal(g, w, v):
                        assert g.reaching_set(v) is g.reaching_set(w), (g, v, w)

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
            for tail in maximal_tails(g):
                hset = frozenset(g.vertices) - tail
                pair = admissible_pair(g, hset, breaking_vertices(g, hset))
                quotient = quotient_graph(g, pair).graph
                assert strong_csp_oracle(quotient).holds, (g, hset)
            assert irreducible_equals_completely_irreducible(g).verdict \
                == condition_k(g)[0], g

    def test_downward_directed_matches_definition(self):
        for g in omega_corpus()[:1000]:
            desc = {v: {w for w in g.vertices if _reaches_literal(g, v, w)}
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


def _split_graph():
    # over H = {h}, u splits: the quotient's tails are {p, s, u'} and
    # {p, s, u, w}, and p is regular with its only edge into the first
    return graph_from_json({"vertices": ["h", "p", "s", "u", "w"], "edges": [
        {"id": "ps", "src": "p", "dst": "s"},
        {"id": "su", "src": "s", "dst": "u"},
        {"id": "uh", "src": "u", "dst": "h", "mult": "inf"},
        {"id": "uw", "src": "u", "dst": "w"}]})


class TestTailCertificate:
    """The bitmask certificate of maximal_tails and quotient_facts against
    the literal one, on tails of the graph and primed tails of quotients."""

    @staticmethod
    def bits(masks, vertices):
        return sum(masks.bit[v] for v in vertices)

    @classmethod
    def certified(cls, g, subset):
        masks = graphs_module._vertex_masks(g)
        into = {e.src for e in g.edges if e.dst in subset}
        return graphs_module._is_tail_mask(g, masks, masks.regular,
                                           cls.bits(masks, subset),
                                           cls.bits(masks, into))

    @classmethod
    def certified_in_quotient(cls, g, pair, subset):
        """The certificate on a vertex set of the quotient by pair that holds
        real vertices and at most one primed sink, whose in-edges come from
        the sources of the edges into the vertex it splits off."""
        masks = graphs_module._vertex_masks(g)
        split = quotient_view(g, pair).split_source
        real = subset - split.keys()
        into = {e.src for e in g.edges if e.dst in real}
        sources = None
        if real != subset:
            (name,) = subset - real
            sources = {e.src for e in g.edges if e.dst == split[name]}
            into |= sources
            sources = cls.bits(masks, sources)
        # B_H keeps finitely many edges, so it is regular in the quotient
        regular = masks.regular | cls.bits(
            masks, breaking_vertices(g, pair.vertices))
        return graphs_module._is_tail_mask(
            g, masks, regular, cls.bits(masks, real), cls.bits(masks, into),
            sources)

    def test_agrees_on_tails_and_perturbed_sets(self):
        verdicts = collections.Counter()
        for g in omega_corpus():
            tails = maximal_tails(g)
            # each tail, each tail with one vertex added or removed, and the
            # reaching set of each vertex, most of them not tails
            sets = {frozenset()} | set(tails)
            sets |= {t ^ {v} for t in tails for v in g.vertices}
            sets |= {g.reaching_set(v) for v in g.vertices}
            for subset in sets:
                want = is_maximal_tail_literal(g, subset)
                assert self.certified(g, subset) == want, (g, sorted(subset))
                verdicts[want] += 1
            assert all(self.certified(g, t) for t in tails), g
        assert verdicts[True] > 4000 and verdicts[False] > 4 * verdicts[True]

    def test_masks_match_the_edges(self):
        # per component, the ancestor mask holds the reaching set and the
        # into mask the sources of the edges into it
        for g in omega_corpus():
            masks = graphs_module._vertex_masks(g)
            components, _, _ = graphs_module.condensation(g)
            for members, mask, into in zip(components, masks.ancestors, masks.into):
                reaching = g.reaching_set(min(members))
                assert mask == sum(masks.bit[v] for v in reaching), g
                assert masks.members(mask) == reaching, g
                assert into == sum(masks.bit[v] for v in {
                    e.src for e in g.edges if e.dst in reaching}), g

    def test_a_wrong_ancestor_mask_fails_certification(self):
        # MT1 and MT2 read the edges, not the masks the tails come from: a
        # reaching set that misses a predecessor is refused
        g = graph_from_json(graph_to_json(loop_chain()))
        masks = graphs_module._vertex_masks(g)
        assert self.certified(g, {"u", "w"}) and not self.certified(g, {"w"})
        _, reach, _ = graphs_module.condensation(g)
        masks.ancestors[reach["w"].bit_length() - 1] = masks.bit["w"]
        with pytest.raises(AssertionError, match="tail certification failed"):
            maximal_tails(g)

    def test_an_ancestor_mask_with_a_stray_sink_fails_certification(self):
        # MT3 reads the forward reach: a sink that does not reach the tail's
        # anchor, slipped into its ancestor mask above the anchor's bit,
        # keeps MT1 and MT2 and was compared with the mask it came from
        g = Graph(["a", "s1", "s2"], [Edge("as1", "a", "s1")])
        masks = graphs_module._vertex_masks(g)
        _, reach, _ = graphs_module.condensation(g)
        i = reach["s1"].bit_length() - 1
        assert masks.bit["s1"] < masks.bit["s2"] and not reach["s2"] >> i & 1
        assert self.certified(g, {"a", "s1"})
        assert not self.certified(g, {"a", "s1", "s2"})
        masks.ancestors[i] |= masks.bit["s2"]
        with pytest.raises(AssertionError, match="tail certification failed"):
            maximal_tails(g)

    @pytest.mark.parametrize("stray", ["x", "y"])
    def test_an_ancestor_mask_with_a_stray_cycle_vertex_fails_certification(
            self, stray):
        # MT3 reads the reach of every member, not of one per component: one
        # vertex of a cycle of infinite emitters, slipped into a tail's
        # ancestor mask without the rest of its component, keeps MT1 (the
        # into mask comes with the tail) and MT2 (no member of the cycle is
        # regular), and reaches none of the tail
        g = Graph(["a", "t", "x", "y"], [
            Edge("at", "a", "t"),
            Edge("xy", "x", "y", OMEGA), Edge("yx", "y", "x", OMEGA)])
        masks = graphs_module._vertex_masks(g)
        _, reach, _ = graphs_module.condensation(g)
        i = reach["t"].bit_length() - 1
        assert not reach[stray] >> i & 1
        assert self.certified(g, {"a", "t"})
        assert not self.certified(g, {"a", "t", stray})
        masks.ancestors[i] |= masks.bit[stray]
        with pytest.raises(AssertionError, match="tail certification failed"):
            maximal_tails(g)

    def test_agrees_on_primed_tails_and_perturbed_sets(self):
        verdicts = collections.Counter()
        for g in omega_corpus():
            everything = frozenset(g.vertices)
            for pair in enumerate_admissible_pairs(g):
                if pair.vertices == everything or not breaking_vertices(
                        g, pair.vertices):
                    continue
                split = quotient_view(g, pair).split_source.keys()
                q = quotient_graph(g, pair).graph
                real = everything - pair.vertices
                # the reaching set of each real vertex, which is not a tail
                # of the quotient when the vertex is a loopless member of B_H
                sets = {g.reaching_set(v) for v in real}
                for tail in quotient_facts(g, pair).cover:
                    if tail & split:
                        # each primed cover tail, and that tail with one
                        # real vertex added or removed
                        assert is_maximal_tail_literal(q, tail), (g, pair, tail)
                        sets |= {tail} | {tail ^ {v} for v in real}
                for subset in sets:
                    want = is_maximal_tail_literal(q, subset)
                    assert self.certified_in_quotient(g, pair, subset) == want, \
                        (g, pair, sorted(subset))
                    verdicts[bool(subset & split), want] += 1
        # about a tenth of the primed tails are a lone primed sink, with no
        # real vertex and no source
        assert verdicts[True, True] > 1000 and verdicts[True, False] > 3000, \
            verdicts
        assert verdicts[False, True] > 2500 and verdicts[False, False] > 400, \
            verdicts

    @pytest.mark.parametrize("table", ["into", "ancestors"])
    def test_a_wrong_primed_mask_fails_certification(self, table):
        # the primed tail {p, s, u'} is read off the masks of s's component,
        # whose ancestors and into masks are {p, s} and {p}: with either
        # mask set to s alone, it is refused
        g = _split_graph()
        pair = admissible_pair(g, {"h"})
        assert self.certified_in_quotient(g, pair, frozenset({"p", "s", "u'"}))
        assert not self.certified_in_quotient(g, pair, frozenset({"s", "u'"}))
        masks = graphs_module._vertex_masks(g)
        _, reach, _ = graphs_module.condensation(g)
        getattr(masks, table)[reach["s"].bit_length() - 1] = masks.bit["s"]
        with pytest.raises(AssertionError,
                           match="primed tail certification failed: u'"):
            quotient_facts(g, pair)


SCANNED_POLYS = ((1, 1), (1, 0, 1), (1, 1, 1))  # x+1, (x+1)^2, x^2+x+1


def _scanned_ideals(graph, coefficients=SCANNED_POLYS):
    """Every proper graded ideal of the graph, and each proper ideal
    with one or two parts from the given polynomials over GF(2), by
    default x+1, (x+1)^2 and x^2+x+1, on cycles without exits in the
    quotient by a proper pair."""
    polys = [Poly(GF2, c) for c in coefficients]
    everything = frozenset(graph.vertices)
    out = {}
    for pair in enumerate_admissible_pairs(graph):
        if pair.vertices == everything:
            continue
        graded = Ideal(graph, pair)
        out[graded] = None
        cycles = cycles_without_exits(quotient_graph(graph, pair).graph)
        sites = [[(c, p)] for c in cycles for p in polys]
        sites += [[(c, p), (d, q)] for c, d in itertools.combinations(cycles, 2)
                  for p in polys for q in polys]
        for parts in sites:
            ideal = canonicalize(graph, pair.vertices, pair.breaking, parts)
            if ideal.pair.vertices != everything:
                out[ideal] = None
    return list(out)


class TestFactorTails:
    """The tail cover and the prime of each kept tail, against the set
    cover and the selection over all graded primes; and every scanned
    ideal factors, its factors' powers recomposing it by product and by
    intersection."""

    def test_cover_and_primes_match_the_oracles(self):
        checked = collections.Counter()
        primed = 0  # cover tails holding a primed sink, whose prime drops u
        for g in omega_corpus()[:1500]:
            for ideal in _scanned_ideals(g):
                facts = quotient_facts(g, ideal.pair)
                view = quotient_view(g, ideal.pair)
                cover = list(facts.cover)
                assert cover == irredundant_tail_cover(
                    maximal_tails(quotient_graph(g, ideal.pair).graph),
                    view.vertices), (g, ideal)
                want = tail_primes_by_image(ideal)
                got = [(t, ideals_module._tail_pair(g, ideal.pair, view, t))
                       for t in cover]
                assert got == [(t, p and p.pair) for t, p in want], (g, ideal)
                primed += sum(not view.split_source.keys().isdisjoint(t)
                              for t in cover)
                report = factor_prime_powers(ideal)
                assert report is not None, (g, ideal)
                powers = [ideal_power(p, r) for p, r in report.factors]
                assert multiply(powers) == ideal, (g, ideal)
                assert intersect(powers) == ideal, (g, ideal)
                checked[bool(ideal.parts)] += 1
        assert checked[False] > 3000 and checked[True] > 3000, checked
        assert primed > 500, primed

    def test_prime_powers_match_the_direct_decomposition(self):
        # prime_power_decompose reads a prime power off a report with one
        # factor; the direct test reads it off the ideal's own form
        verdicts = collections.Counter()
        for g in omega_corpus()[:1500]:
            for ideal in _scanned_ideals(g):
                want = direct_prime_power_decompose(ideal)
                assert prime_power_decompose(ideal) == want, (g, ideal)
                verdicts[bool(ideal.parts), want is not None] += 1
        assert sum(verdicts.values()) == 7142, verdicts
        assert min(verdicts.values()) > 500, verdicts

    def test_an_uncovered_universe_has_no_cover(self):
        tails = (frozenset({"a"}), frozenset({"a", "b"}))
        assert irredundant_tail_cover(tails, {"a", "b", "c"}) is None
        assert irredundant_tail_cover(tails, {"a", "b"}) == [tails[1]]


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

    @pytest.mark.parametrize("p,digest", [
        (1009, "cb9164b1560eb181c149c70ab079ae77a01549724b6270df3826d05405f41d5f"),
        (2**31 - 1, "ac90a2225203df87019caf7e2c23087fa2abf89a025108be2301e4e1e4b8fdb4")])
    def test_large_prime_draws_match_the_recorded_digest(self, p, digest):
        # SHA-256 of the families of seeds 1-40, recorded while the library
        # drew them with its own Ben-Or: the oracle Ben-Or must accept and
        # reject the same candidates, so seeded families never change
        h = hashlib.sha256()
        for seed in range(1, 41):
            cfg = GeneratorConfig(seed=seed, max_vertices=6, max_poly_degree=12,
                                  field=FieldSpec.prime_field(p))
            try:
                family = random_prime_power_family(cfg, random_graph(cfg))
            except (Unsatisfiable, TooLarge):
                continue
            h.update(json.dumps([ideal_to_json(m) for m in family],
                                sort_keys=True).encode())
        assert h.hexdigest() == digest

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
    given; absorbing the contained factors first, or normalizing the answer
    with canonicalize, gives the same answers."""

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
        with_parts = 0
        for mix in mixes:
            for mode in self.MODES:
                combine = multiply if mode == "product" else intersect
                direct = combine(mix)
                assert direct == combine_with_absorption(mix, mode), (mode, mix)
                assert direct is combine_by_canonicalize(mix, mode), (mode, mix)
                assert make_irredundant(mix, mode) \
                    == self._irredundant_by_absorption(mix, mode), (mode, mix)
                shrunk[mode] += len(absorb(mix, mode)) < len(mix)
                with_parts += bool(direct.parts)
        assert shrunk == {"product": 1146, "intersection": 1159}
        assert with_parts == 278

    def test_every_ordering_combines_once(self, monkeypatch):
        runs = collections.Counter()
        combination = ideals_module._combination

        def counted(factors, mode):
            runs[mode, tuple(sorted(map(id, factors)))] += 1
            return combination(factors, mode)

        monkeypatch.setattr(ideals_module, "_combination", counted)
        mixes = self._mixes(range(200))
        for mix in mixes:
            for mode in self.MODES:
                combine = multiply if mode == "product" else intersect
                first = combine(mix)
                for order in itertools.permutations(mix):
                    assert combine(order) is first, (mode, mix)
        assert set(runs.values()) == {1}
        assert set(runs) == {(mode, tuple(sorted(map(id, mix))))
                             for mix in mixes for mode in self.MODES}


class TestLoopArithmetic:
    """multiply and intersect on any ideals of disjoint single loops, most of
    them no prime powers, against the loop-by-loop reference."""

    @pytest.mark.parametrize("field", [GF2, GF3, Q], ids=lambda f: f.label)
    def test_combinations_match_the_reference(self, field):
        rng = SplitMix64(20261020)
        seen = collections.Counter()
        for _ in range(60):
            graph = disjoint_loops(2 + rng.below(3))
            operands = [random_loop_ideal(rng, graph, field)
                        for _ in range(2 + rng.below(2))]
            for mode in ("product", "intersection"):
                combine = multiply if mode == "product" else intersect
                got = combine(operands)
                assert got == combine_on_loops(operands, mode), \
                    (mode, operands)
                seen[mode, "multi-part answer"] += len(got.parts) > 1
            for o in operands:
                seen["multi-part operand"] += len(o.parts) > 1
                seen["no prime power"] += bool(
                    o.parts) and prime_power_decompose(o) is None
        assert min(seen.values()) >= 20, seen


class TestCombineByPrimePowers:
    """multiply, intersect and make_irredundant on fresh, never factored
    operands, which they split along their tail covers, against the
    reference that replaces each operand by its report's powers."""

    GRAPHS, GROUPS = 500, 4

    @staticmethod
    def _greedy(factors, mode):
        target = combine_by_prime_powers(factors, mode)
        kept = list(factors)
        i = 0
        while i < len(kept):
            if len(kept) > 1:
                trial = kept[:i] + kept[i + 1:]
                if combine_by_prime_powers(trial, mode) == target:
                    kept = trial
                    continue
            i += 1
        return kept

    def test_the_tail_split_matches_the_prime_powers(self):
        # x^3+1 = (x+1)(x^2+x+1) gives one-tail operands that are no prime
        # powers; two parts, or a part beside a graded tail, give several
        rng = SplitMix64(20261021)
        seen = collections.Counter()
        for g in omega_corpus()[:self.GRAPHS]:
            mine, theirs = (graph_from_json(graph_to_json(g)) for _ in range(2))
            pool = _scanned_ideals(mine, SCANNED_POLYS + ((1, 0, 0, 1),))
            for _ in range(self.GROUPS):
                group = [pool[rng.below(len(pool))] for _ in range(2 + rng.below(2))]
                twins = [ideal_from_json(theirs, ideal_to_json(m)) for m in group]
                for mode, combine in (("product", multiply),
                                      ("intersection", intersect)):
                    assert combine(group) == combine_by_prime_powers(twins, mode), \
                        (g, mode, group)
                    assert [ideal_to_json(k) for k in make_irredundant(group, mode)] \
                        == [ideal_to_json(k) for k in self._greedy(twins, mode)], \
                        (g, mode, group)
                for m, twin in zip(group, twins):
                    if m.parts:
                        tails = len(quotient_facts(mine, m.pair).cover)
                        seen["several tails" if tails > 1 else
                             "one tail" if prime_power_decompose(twin) is None
                             else "prime power"] += 1
            assert not any(hasattr(m, "_report") for m in pool), g
        assert seen["several tails"] > 200 and seen["one tail"] > 140, seen

