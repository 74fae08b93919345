"""Acceptance gate: each test prints one PASS/FAIL line for its criterion.

Every check here is exact; there are no tolerances.  The seeded corpora are
fixed (200 graphs, 200 families over GF(2), and 50 families each over
GF(2^31 - 1) and over Q), so the gate is deterministic across machines.
"""

import collections
import contextlib
import itertools
import json
import pathlib
import time

import pytest

from lpaideals.classify import classify_algebra
from lpaideals.cli import run
from lpaideals.errors import TooLarge, Unsatisfiable
from lpaideals.gallery import (
    corpus,
    double_loop_chain,
    omega_loop,
    one_loop,
    petals,
    sink_fork,
)
from lpaideals.graphs import (
    admissible_leq,
    condition_k,
    graph_to_json,
    hereditary_saturated_closure,
    maximal_tails,
)
from lpaideals.ideals import (
    Ideal,
    contains,
    factor_completely_irreducible,
    factor_prime_powers,
    graded_ideal,
    ideal_from_json,
    ideal_power,
    intersect,
    is_completely_irreducible,
    is_graded,
    is_prime,
    join_graded,
    make_irredundant,
    meet_graded,
    multiply,
    prime_power_decompose,
    zero_ideal,
)
from lpaideals.oracles import (
    GeneratorConfig,
    closure_oracle,
    enumerate_admissible_pairs,
    glb_oracle,
    lub_oracle,
    maximal_tails_bruteforce,
    products_of_comp_irred_walk,
    random_graph,
    random_prime_power_family,
)
from lpaideals.poly import FieldSpec
from lpaideals.rng import SplitMix64

DATA = pathlib.Path(__file__).parent / "data"
FAMILY_COUNT = 200
GRAPH_COUNT = 200
# the theorems hold over every field: a large prime field and the rationals,
# with cycle polynomials of degree up to FIELD_DEGREE (and their cubes)
FIELD_FAMILY_COUNT = 50
FIELD_DEGREE = 24


@contextlib.contextmanager
def gate(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: PASS")


def _families(field, count, max_poly_degree):
    """The first count seeded families of powers of distinct primes, and the
    seconds taken to draw them."""
    start = time.perf_counter()
    families = []
    seed = 0
    while len(families) < count:
        seed += 1
        cfg = GeneratorConfig(seed=seed, max_vertices=6, field=field,
                              max_poly_degree=max_poly_degree)
        graph = random_graph(cfg)
        try:
            families.append(random_prime_power_family(cfg, graph))
        except (Unsatisfiable, TooLarge):
            continue
    return families, time.perf_counter() - start


@pytest.fixture(scope="module")
def seeded_families():
    """200 deterministic families of powers of distinct primes over GF(2)."""
    return _families(FieldSpec.prime_field(2), FAMILY_COUNT, 3)


@pytest.fixture(scope="module", params=["GF(2147483647)", "Q"])
def field_families(request):
    """50 deterministic families over a large prime field or over Q."""
    return request.param, _families(FieldSpec.parse(request.param),
                                    FIELD_FAMILY_COUNT, FIELD_DEGREE)


@pytest.fixture(scope="module")
def seeded_graphs():
    return [random_graph(GeneratorConfig(seed=s))
            for s in range(1, GRAPH_COUNT + 1)]


def test_petals_sink_factorization(capsys):
    with gate(capsys, "petals-sink-factorization"):
        start = time.perf_counter()
        code = run(["ideal-factor", "--mode", "comp-irred",
                    "--graph", str(DATA / "petals3.json"),
                    "--ideal", str(DATA / "petals_center_ideal.json")])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["factorable"] is True
        rows = payload["report"]["factors"]
        assert len(rows) == 3
        assert all(row["ideal"]["parts"] == [] for row in rows)

        graph = petals()
        source = graded_ideal(graph, ("v0",))
        factors = [ideal_from_json(graph, row["ideal"]) for row in rows]
        assert all(is_graded(f) and is_completely_irreducible(f).holds
                   for f in factors)
        assert multiply(factors) == source
        assert intersect(factors) == source

        # five tails instead of three: factorization still succeeds, one
        # completely irreducible factor per petal
        big = petals(5)
        big_source = graded_ideal(big, ("v0",))
        report = factor_completely_irreducible(big_source)
        assert report is not None and len(report.factors) == 5
        powers = [ideal_power(p, r) for p, r in report.factors]
        assert multiply(powers) == big_source
        assert intersect(powers) == big_source
        assert time.perf_counter() - start < 1.0


def _check_product_equals_intersection(families, build_time):
    start = time.perf_counter()
    for family in families:
        product = multiply(family)
        assert intersect(family) == product
        for member in family:
            assert contains(member, product)
    assert build_time + time.perf_counter() - start < 30.0


def _check_unique_factorization(families):
    for family in families:
        trimmed = make_irredundant(family, "product")
        report = factor_prime_powers(multiply(trimmed))
        assert report is not None
        got = collections.Counter(ideal_power(p, r)
                                  for p, r in report.factors)
        assert got == collections.Counter(trimmed)


def test_product_equals_intersection(capsys, seeded_families):
    families, build_time = seeded_families
    with gate(capsys, "product-equals-intersection"):
        assert len(families) == FAMILY_COUNT
        _check_product_equals_intersection(families, build_time)


def test_unique_prime_power_factorization(capsys, seeded_families):
    families, _ = seeded_families
    with gate(capsys, "unique-prime-power-factorization"):
        _check_unique_factorization(families)


def test_product_equals_intersection_over_every_field(capsys, field_families):
    label, (families, build_time) = field_families
    with gate(capsys, f"product-equals-intersection over {label}"):
        assert len(families) == FIELD_FAMILY_COUNT
        degrees = [m.parts[0].poly.degree
                   for family in families for m in family if m.parts]
        assert len(degrees) >= FIELD_FAMILY_COUNT // 2
        assert max(degrees) > 2 * FIELD_DEGREE // 3
        assert all(m.field.label == label
                   for family in families for m in family if m.parts)
        _check_product_equals_intersection(families, build_time)


def test_unique_prime_power_factorization_over_every_field(capsys, field_families):
    label, (families, _) = field_families
    with gate(capsys, f"unique-prime-power-factorization over {label}"):
        _check_unique_factorization(families)


def test_non_graded_prime_square_guard(capsys, seeded_families):
    families, _ = seeded_families
    with gate(capsys, "non-graded-prime-square-guard"):
        primes = {prime_power_decompose(member)[0]
                  for family in families for member in family
                  if member.parts}
        assert primes, "the seeded families produced no non-graded prime"
        for p in primes:
            square = multiply([p, p])
            assert square != p
            report = factor_prime_powers(square)
            assert report is not None
            assert list(report.factors) == [(p, 2)]


def test_oracle_equivalence(capsys, seeded_graphs):
    with gate(capsys, "oracle-equivalence"):
        start = time.perf_counter()
        for graph in list(corpus().values()) + seeded_graphs:
            ordered = sorted(graph.vertices)
            for r in range(len(ordered) + 1):
                for sub in itertools.combinations(ordered, r):
                    fast = frozenset(hereditary_saturated_closure(graph, sub))
                    assert fast == closure_oracle(graph, sub)
            fast_tails = [frozenset(t) for t in maximal_tails(graph)]
            assert fast_tails == maximal_tails_bruteforce(graph)

            pairs = enumerate_admissible_pairs(graph)
            ideals = [Ideal(graph, p) for p in pairs]
            if len(pairs) <= 25:
                combos = itertools.product(range(len(pairs)), repeat=2)
            else:
                rng = SplitMix64(99)
                combos = [(rng.below(len(pairs)), rng.below(len(pairs)))
                          for _ in range(300)]
            for i, j in combos:
                assert meet_graded(ideals[i], ideals[j]).pair \
                    == glb_oracle(pairs, pairs[i], pairs[j])
                assert join_graded(ideals[i], ideals[j]).pair \
                    == lub_oracle(pairs, pairs[i], pairs[j])
        assert time.perf_counter() - start < 60.0


def test_classifier_fixtures(capsys):
    with gate(capsys, "classifier-fixtures"):
        chain_graph = double_loop_chain()
        rep = classify_algebra(chain_graph)
        assert rep["every_proper_ideal_completely_irreducible"].verdict
        pairs = [p for p in enumerate_admissible_pairs(chain_graph)
                 if p.vertices != frozenset(chain_graph.vertices)]
        assert len(pairs) == 3
        for a, b in itertools.combinations(pairs, 2):
            assert admissible_leq(a, b) or admissible_leq(b, a)

        fork = sink_fork()
        rep = classify_algebra(fork)
        assert rep["irreducible_equals_completely_irreducible"].verdict
        chain_res = rep["every_proper_ideal_completely_irreducible"]
        assert not chain_res.verdict
        first, second = chain_res.witness["pairs"]
        a = graded_ideal(fork, first["H"], first["S"]).pair
        b = graded_ideal(fork, second["H"], second["S"]).pair
        assert not admissible_leq(a, b) and not admissible_leq(b, a)

        loop = one_loop()
        zero = zero_ideal(loop)
        assert is_prime(zero).holds
        assert not is_completely_irreducible(zero).holds

        handle = omega_loop()
        ideal = graded_ideal(handle, ("h",))
        primality = is_prime(ideal)
        assert primality.holds and primality.case == 2
        assert is_completely_irreducible(ideal).holds


def test_implication_chain(capsys, seeded_graphs):
    with gate(capsys, "implication-chain"):
        for graph in seeded_graphs:
            rep = classify_algebra(graph)
            chain = rep["every_proper_ideal_completely_irreducible"].verdict
            matches = rep["irreducible_equals_completely_irreducible"].verdict
            graded = rep["all_ideals_graded"].verdict
            products = rep["every_proper_ideal_product_of_comp_irred"].verdict
            assert not chain or matches
            assert not matches or graded
            assert products == condition_k(graph)[0] == graded
            # the pair-by-pair walk of the general definition agrees with (K)
            walked, witness = products_of_comp_irred_walk(graph)
            assert walked == products, (graph_to_json(graph), witness)
