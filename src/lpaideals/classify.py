"""Whole-algebra classification: which ideal-theoretic regimes hold for L_K(E).

Each predicate inspects the graph alone; statements about all ideals of
the algebra reduce to finite graph conditions, and none of them walks the
ideal lattice: the only hereditary saturated sets they need are the
principal closures.  No predicate checks the strong cycle-to-sink property
the paper asks of the graph and its quotients: every vertex of a finite
graph reaches a free component, so a downward directed graph has exactly
one minimal free component, and that is the strong CSP; oracles keeps the
walks that check it.  Negative verdicts always carry a concrete witness (a
bad cycle, two vertices with no common lower bound, an incomparable pair
of admissible pairs) so a counterexample can be rendered or re-checked.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .graphs import (
    AdmissiblePair,
    Graph,
    admissible_leq,
    breaking_vertices,
    condition_k,
    condition_l,
    downward_directed,
    principal_closures,
)


class PredicateResult(namedtuple("PredicateResult", "predicate verdict witness",
                                 defaults=(None,))):
    """Verdict of one classification predicate, with a witness when negative."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.verdict

    def to_json(self) -> dict:
        return {"predicate": self.predicate, "verdict": self.verdict,
                "witness": self.witness}


class AlgebraReport(namedtuple("AlgebraReport", "results")):
    """All five predicate verdicts for one graph, indexed by predicate name."""

    __slots__ = ()

    def to_json(self) -> list:
        return [r.to_json() for r in self.results]

    def __getitem__(self, predicate: str) -> PredicateResult:
        for r in self.results:
            if r.predicate == predicate:
                return r
        raise KeyError(predicate)


def _pair_json(pair: AdmissiblePair) -> dict:
    return {"H": sorted(pair.vertices), "S": sorted(pair.breaking)}


def _condition_k(name: str, graph: Graph) -> PredicateResult:
    holds, bad = condition_k(graph)
    witness = None if holds else {"condition": "K", "cycle": bad.to_json()}
    return PredicateResult(name, holds, witness)


def all_ideals_graded(graph: Graph) -> PredicateResult:
    """Every ideal is graded exactly when every cycle has two return paths."""
    return _condition_k("all_ideals_graded", graph)


def zero_completely_irreducible(graph: Graph) -> PredicateResult:
    """The zero ideal is completely irreducible iff (L) and downward
    directedness hold for the graph itself; the strong CSP then follows."""
    name = "zero_completely_irreducible"
    l_holds, bad_cycle = condition_l(graph)
    if not l_holds:
        return PredicateResult(name, False,
                               {"condition": "L", "cycle": bad_cycle.to_json()})
    dd, bad_pair = downward_directed(graph)
    if not dd:
        return PredicateResult(name, False,
                               {"condition": "downward_directed",
                                "pair": sorted(bad_pair)})
    return PredicateResult(name, True)


def _principal_pairs(graph: Graph) -> list:
    """Admissible pairs (H, S) with H empty or a principal closure, sorted by key.

    Of the subsets S of B_H it builds only those that can be part of the
    first incomparable pair, in key order, of all such pairs: the empty
    set, each single vertex and each prefix of sorted(B_H).  The first
    member of that incomparable pair has |S| <= 1, since once some B_H
    holds b1 < b2, (H, {b1}) and (H, {b2}) are already incomparable.
    Against a pair (H, S) with |S| <= 1, the first incomparable pair over
    another set H' is (H', {}) or a prefix of sorted(B_H'), and over H
    itself it is (H, {b}) for the breaking vertex b after S.  When no B_H
    has two vertices, these are all the pairs.
    """
    hsets = {frozenset(), *principal_closures(graph).values()}
    pairs = []
    for hset in hsets:
        candidates = sorted(breaking_vertices(graph, hset))
        subsets = {frozenset(candidates[:k]) for k in range(len(candidates) + 1)}
        subsets.update(frozenset((v,)) for v in candidates)
        pairs.extend(AdmissiblePair(hset, sset) for sset in subsets)
    pairs.sort(key=lambda p: p.key())
    return pairs


def every_proper_ideal_completely_irreducible(graph: Graph) -> PredicateResult:
    """All proper ideals completely irreducible: condition (K) and the
    admissible pairs form a chain.

    The hereditary saturated sets are the down-sets of the free components,
    so they form a chain exactly when the principal closures are nested,
    and they are then the empty set and those closures.  The test therefore
    runs over the pairs of _principal_pairs, never over the whole lattice.
    A pair below another has no larger |H| and no larger |H | S|, so the
    pairs form a chain exactly when each is below the next in that order;
    only when they do not are all pairs scanned, in key order, for the
    first incomparable two (the first among the pairs (H, S) with H empty
    or a principal closure and S a subset of B_H).  Every proper quotient
    then has the strong CSP: its hereditary saturated sets form a chain, so
    it has a least nonempty one.
    """
    name = "every_proper_ideal_completely_irreducible"
    k = _condition_k(name, graph)
    if not k:
        return k
    pairs = _principal_pairs(graph)
    ranked = sorted(pairs, key=lambda p: (len(p.vertices),
                                          len(p.vertices | p.breaking)))
    if not all(itertools.starmap(admissible_leq, itertools.pairwise(ranked))):
        p1, p2 = next((p1, p2) for p1, p2 in itertools.combinations(pairs, 2)
                      if not (admissible_leq(p1, p2) or admissible_leq(p2, p1)))
        return PredicateResult(name, False,
                               {"condition": "chain",
                                "pairs": [_pair_json(p1), _pair_json(p2)]})
    return PredicateResult(name, True)


def irreducible_equals_completely_irreducible(graph: Graph) -> PredicateResult:
    """Irreducible and completely irreducible ideals coincide: condition (K)
    plus the strong CSP of the quotient by each tail complement E^0 \\ M,
    which is the downward directed tail M and so always has it."""
    return _condition_k("irreducible_equals_completely_irreducible", graph)


def every_proper_ideal_product_of_comp_irred(graph: Graph) -> PredicateResult:
    """Every proper ideal is a product of completely irreducible ideals.

    Condition (K) plus, for every proper admissible pair, a cover of the
    quotient by maximal tails that each have the strong CSP.  With finitely
    many vertices the tail condition always holds, leaving condition (K);
    oracles.products_of_comp_irred_walk walks the full definition.
    """
    return _condition_k("every_proper_ideal_product_of_comp_irred", graph)


_PREDICATES = (
    all_ideals_graded,
    zero_completely_irreducible,
    every_proper_ideal_completely_irreducible,
    irreducible_equals_completely_irreducible,
    every_proper_ideal_product_of_comp_irred,
)


def classify_algebra(graph: Graph) -> AlgebraReport:
    """Run all five predicates and check the implications between them."""
    report = AlgebraReport(tuple(fn(graph) for fn in _PREDICATES))
    chain = report["every_proper_ideal_completely_irreducible"].verdict
    match = report["irreducible_equals_completely_irreducible"].verdict
    graded = report["all_ideals_graded"].verdict
    assert not chain or match, "implication chain broken: chain without match"
    assert not match or graded, "implication chain broken: match without (K)"
    return report
