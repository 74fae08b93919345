"""Whole-algebra classification predicates and their witnesses."""

import pytest

from lpaideals import classify as classify_module
from lpaideals import graphs as graphs_module
from lpaideals.classify import (
    all_ideals_graded,
    classify_algebra,
    every_proper_ideal_completely_irreducible,
    every_proper_ideal_product_of_comp_irred,
    irreducible_equals_completely_irreducible,
    zero_completely_irreducible,
)
from lpaideals.gallery import (
    corpus,
    double_loop_chain,
    one_loop,
    omega_loop,
    petals,
    plain_chain,
    sink_fork,
    two_sinks,
)
from lpaideals.graphs import admissible_leq, condition_k
from lpaideals.oracles import (
    GeneratorConfig,
    enumerate_admissible_pairs,
    random_graph,
)

PREDICATES = [
    "all_ideals_graded",
    "zero_completely_irreducible",
    "every_proper_ideal_completely_irreducible",
    "irreducible_equals_completely_irreducible",
    "every_proper_ideal_product_of_comp_irred",
]


class TestAllIdealsGraded:
    def test_exitless_cycle_is_the_witness(self):
        res = all_ideals_graded(one_loop())
        assert not res.verdict and res.witness["cycle"] == ["v", "e"]
        res8 = all_ideals_graded(omega_loop())
        assert not res8.verdict and res8.witness["cycle"] == ["u", "e"]

    def test_every_cycle_with_exit(self):
        res = all_ideals_graded(double_loop_chain())
        assert res.verdict and res.witness is None


class TestZeroCompletelyIrreducible:
    def test_chain_holds(self):
        assert zero_completely_irreducible(plain_chain()).verdict

    def test_fork_fails_downward_directedness(self):
        res = zero_completely_irreducible(sink_fork())
        assert not res.verdict
        assert res.witness["condition"] == "downward_directed"

    def test_exitless_cycle_fails_condition_l(self):
        res = zero_completely_irreducible(one_loop())
        assert not res.verdict and res.witness["condition"] == "L"


class TestEveryProperIdealCompletelyIrreducible:
    def test_chain_of_ideals(self):
        assert every_proper_ideal_completely_irreducible(
            double_loop_chain()).verdict

    def test_incomparable_pair_witness(self):
        res = every_proper_ideal_completely_irreducible(sink_fork())
        assert not res.verdict and res.witness["condition"] == "chain"
        assert res.witness["pairs"] == [{"H": ["v-1"], "S": []},
                                        {"H": ["v1"], "S": []}]

    def test_condition_k_gate(self):
        res = every_proper_ideal_completely_irreducible(one_loop())
        assert not res.verdict and res.witness["condition"] == "K"


class TestIrreducibleEqualsCompletelyIrreducible:
    def test_fixtures(self):
        assert irreducible_equals_completely_irreducible(sink_fork()).verdict
        assert irreducible_equals_completely_irreducible(
            double_loop_chain()).verdict
        assert not irreducible_equals_completely_irreducible(
            one_loop()).verdict


class TestProductsOfCompletelyIrreducible:
    def test_tracks_condition_k(self):
        assert every_proper_ideal_product_of_comp_irred(sink_fork()).verdict
        assert every_proper_ideal_product_of_comp_irred(
            double_loop_chain()).verdict
        assert not every_proper_ideal_product_of_comp_irred(
            one_loop()).verdict


class TestAlgebraReport:
    def test_report_rows_and_lookup(self):
        rep = classify_algebra(petals())
        assert [r.predicate for r in rep.results] == PREDICATES
        assert [r.verdict for r in rep.results] == [True, True, False,
                                                    True, True]
        assert rep["all_ideals_graded"].verdict
        with pytest.raises(KeyError):
            rep["bogus"]

    def test_all_true_fixture(self):
        rep = classify_algebra(double_loop_chain())
        assert [r.verdict for r in rep.results] == [True] * 5

    def test_two_sinks(self):
        rep = classify_algebra(two_sinks())
        assert rep["all_ideals_graded"].verdict
        assert not rep["zero_completely_irreducible"].verdict
        assert not rep["every_proper_ideal_completely_irreducible"].verdict

    def test_json_rows(self):
        rows = classify_algebra(sink_fork()).to_json()
        assert [row["predicate"] for row in rows] == PREDICATES
        for row in rows:
            assert set(row) == {"predicate", "verdict", "witness"}

    def test_corpus_implications_and_witnesses(self):
        # chain regime implies the equality regime implies condition K, and
        # the product regime is exactly condition K
        for name, graph in sorted(corpus().items()):
            rep = classify_algebra(graph)
            chain = rep["every_proper_ideal_completely_irreducible"].verdict
            match = rep["irreducible_equals_completely_irreducible"].verdict
            graded = rep["all_ideals_graded"].verdict
            prod = rep["every_proper_ideal_product_of_comp_irred"].verdict
            assert not chain or match, name
            assert not match or graded, name
            assert prod == condition_k(graph)[0] == graded, name
            for row in rep.to_json():
                assert row["verdict"] or row["witness"] is not None, (name, row)


class TestWork:
    def test_no_lattice_walk_and_no_closure(self, monkeypatch):
        # the predicates read the free-component condensation instead, and
        # build no quotient
        calls = []
        for name in ("enumerate_hereditary_saturated", "quotient_graph",
                     "hereditary_saturated_closure"):
            original = getattr(graphs_module, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            for module in (graphs_module, classify_module):
                monkeypatch.setattr(module, name, counted, raising=False)
        graphs = list(corpus().values())
        graphs += [random_graph(GeneratorConfig(seed=s, omega_probability=0.3))
                   for s in range(1, 201)]
        for graph in graphs:
            classify_algebra(graph)
        assert calls == []


class TestWitnesses:
    """Every negative witness re-checked against the subset-scan oracles."""

    def test_chain_and_strong_csp_witnesses(self):
        chains = 0
        graphs = list(corpus().values())
        graphs += [random_graph(GeneratorConfig(seed=s, omega_probability=0.3))
                   for s in range(1, 201)]
        for g in graphs:
            rep = classify_algebra(g)
            pairs = {(tuple(sorted(p.vertices)), tuple(sorted(p.breaking))): p
                     for p in enumerate_admissible_pairs(g)}
            chain = rep["every_proper_ideal_completely_irreducible"].witness or {}
            if chain.get("condition") == "chain":
                p1, p2 = (pairs[tuple(p["H"]), tuple(p["S"])]
                          for p in chain["pairs"])
                assert not admissible_leq(p1, p2), g
                assert not admissible_leq(p2, p1), g
                chains += 1
        assert chains > 20, chains
