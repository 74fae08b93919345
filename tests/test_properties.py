"""Randomized invariants, scaled by the --seed/--cases/--max-vertices options."""

import pytest

from conftest import counterexample
from lpaideals.errors import TooLarge, Unsatisfiable
from lpaideals.graphs import admissible_leq, hereditary_saturated_closure
from lpaideals.ideals import (
    Ideal,
    canonicalize,
    contains,
    graded_part,
    ideal_from_json,
    ideal_to_json,
    intersect,
    is_graded,
    join_graded,
    meet_graded,
    multiply,
)
from lpaideals.oracles import (
    GeneratorConfig,
    disjoint_loops,
    enumerate_admissible_pairs,
    random_graph,
    random_loop_ideal,
    random_prime_power_family,
)
from lpaideals.poly import FieldSpec
from lpaideals.rng import SplitMix64


@pytest.fixture(scope="module")
def graphs(prop_seed, prop_cases, prop_max_vertices):
    return [random_graph(GeneratorConfig(seed=prop_seed + i,
                                         max_vertices=prop_max_vertices))
            for i in range(prop_cases)]


@pytest.fixture(scope="module")
def families(prop_seed, prop_cases, prop_max_vertices):
    """Prime power families over GF(2), one per satisfiable seeded graph."""
    out = []
    field = FieldSpec.prime_field(2)
    seed = prop_seed
    attempts = 0
    while len(out) < max(prop_cases // 4, 10) and attempts < prop_cases * 8:
        attempts += 1
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_vertices=prop_max_vertices,
                              field=field, max_poly_degree=3)
        try:
            out.append(random_prime_power_family(cfg, random_graph(cfg)))
        except (Unsatisfiable, TooLarge):
            continue
    return out


def sampled_subsets(graph, rng, count=6):
    ordered = sorted(graph.vertices)
    for _ in range(count):
        yield frozenset(v for v in ordered if rng.chance(0.4))


def test_closure_is_extensive_idempotent_monotone(graphs, prop_seed):
    rng = SplitMix64(prop_seed)
    for graph in graphs:
        for sub in sampled_subsets(graph, rng):
            closed = frozenset(hereditary_saturated_closure(graph, sub))
            assert sub <= closed, counterexample(graph=graph, subset=sorted(sub))
            again = frozenset(hereditary_saturated_closure(graph, closed))
            assert again == closed, counterexample(graph=graph,
                                                   subset=sorted(sub))
            bigger = frozenset(hereditary_saturated_closure(
                graph, sub | {sorted(graph.vertices)[0]}))
            assert closed <= bigger, counterexample(graph=graph,
                                                    subset=sorted(sub))


def sampled_ideal_pairs(graph, rng, limit=12):
    try:
        pairs = enumerate_admissible_pairs(graph)
    except TooLarge:
        return
    ideals = [Ideal(graph, p) for p in pairs]
    for _ in range(limit):
        yield ideals[rng.below(len(ideals))], ideals[rng.below(len(ideals))]


def test_graded_lattice_laws(graphs, prop_seed):
    rng = SplitMix64(prop_seed + 1)
    for graph in graphs:
        for a, b in sampled_ideal_pairs(graph, rng):
            met, joined = meet_graded(a, b), join_graded(a, b)
            assert met == meet_graded(b, a)
            assert joined == join_graded(b, a)
            assert meet_graded(a, a) == a and join_graded(a, a) == a
            assert meet_graded(a, joined) == a, counterexample(
                graph=graph, a=a, b=b)
            assert join_graded(a, met) == a, counterexample(
                graph=graph, a=a, b=b)
            assert admissible_leq(met.pair, a.pair)
            assert admissible_leq(a.pair, joined.pair)
            assert (met == a) == admissible_leq(a.pair, b.pair)
            assert contains(b, a) == admissible_leq(a.pair, b.pair)


def test_product_is_a_lower_bound(families):
    for family in families:
        product = multiply(family)
        for member in family:
            assert contains(member, product), counterexample(
                family=family, product=product)


def test_ideal_json_round_trip(families):
    for family in families:
        for member in family + [multiply(family)]:
            data = ideal_to_json(member)
            back = ideal_from_json(member.graph, data)
            assert back == member, counterexample(ideal=data)


def test_canonical_forms_are_fixpoints(families):
    for family in families:
        for member in family:
            again = canonicalize(
                member.graph, member.pair.vertices, member.pair.breaking,
                [(p.cycle, p.poly.rep) for p in member.parts])
            assert again == member, counterexample(ideal=ideal_to_json(member))



@pytest.fixture(scope="module")
def operand_groups(families, prop_seed, prop_cases):
    """Lists of ideals over one graph: per family, its members, the graded
    part of each and the product of each pair of them; and seeded ideals of
    disjoint loops over GF(2), GF(3) and Q, most with several parts and no
    prime powers."""
    groups = [list(f) + [graded_part(m) for m in f]
              + [multiply([a, b]) for i, a in enumerate(f) for b in f[i + 1:]]
              for f in families]
    fields = (FieldSpec.prime_field(2), FieldSpec.prime_field(3),
              FieldSpec.rationals())
    rng = SplitMix64(prop_seed)
    for i in range(max(prop_cases // 10, 6)):
        graph = disjoint_loops(2 + rng.below(2))
        groups.append([random_loop_ideal(rng, graph, fields[i % 3])
                       for _ in range(4)])
    return groups


def test_combinations_commute(operand_groups):
    for group in operand_groups:
        for a in group:
            for b in group:
                for combine in (multiply, intersect):
                    assert combine([a, b]) == combine([b, a]), counterexample(
                        a=ideal_to_json(a), b=ideal_to_json(b))


def test_combinations_associate(operand_groups):
    multi_part = 0
    for group in operand_groups:
        for a in group:
            for b in group:
                for c in group:
                    for combine in (multiply, intersect):
                        inner = combine([a, b])
                        multi_part += len(inner.parts) > 1
                        assert combine([inner, c]) \
                            == combine([a, combine([b, c])]) \
                            == combine([a, b, c]), counterexample(
                                a=ideal_to_json(a), b=ideal_to_json(b),
                                c=ideal_to_json(c))
    assert multi_part > 0


def test_product_lies_in_the_intersection(operand_groups):
    graded = 0
    for group in operand_groups:
        for a in group:
            for b in group:
                product, meet = multiply([a, b]), intersect([a, b])
                assert contains(meet, product), counterexample(
                    a=ideal_to_json(a), b=ideal_to_json(b))
                if is_graded(a) or is_graded(b):
                    graded += 1
                    assert product == meet, counterexample(
                        a=ideal_to_json(a), b=ideal_to_json(b))
    assert graded > 0
