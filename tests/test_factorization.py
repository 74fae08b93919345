"""Products, intersections, and factorization into prime powers."""

import collections
import importlib.util
import json
import pathlib

import pytest

from lpaideals import ideals as ideals_module
from lpaideals import oracles
from lpaideals import poly as poly_module
from lpaideals.errors import (
    DegreeTooLarge,
    GraphMismatch,
    ImproperIdeal,
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
    sink_fork,
)
from lpaideals.graphs import (
    Cycle,
    Edge,
    Graph,
    graph_from_json,
    graph_to_json,
    maximal_tails,
    quotient_facts,
)
from lpaideals.ideals import (
    canonicalize,
    contains,
    enumerate_graded_primes,
    factor_completely_irreducible,
    factor_prime_powers,
    graded_ideal,
    ideal_from_json,
    ideal_power,
    ideal_to_json,
    intersect,
    is_completely_irreducible,
    is_prime,
    make_irredundant,
    multiply,
    prime_power_decompose,
    whole_ideal,
    zero_ideal,
)
from lpaideals.oracles import GeneratorConfig, random_graph, random_prime_power_family
from lpaideals.poly import FieldSpec, LaurentClass, Poly, poly
from lpaideals.rng import SplitMix64

Q = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)

LOOP = Cycle.build(("v",), ("e",))
ULOOP = Cycle.build(("u",), ("uu",))
WLOOP = Cycle.build(("w",), ("ww",))
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _layered_dag(rng, n):
    """The benchmark's seeded layered graph (perfbench/workloads.py), as JSON."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.layered_dag(rng, n)


def one_loop_part(field, coeffs):
    p = coeffs if isinstance(coeffs, Poly) else Poly(field, coeffs)
    return canonicalize(one_loop(), (), (), [(LOOP, p)])


class TestCombine:
    def test_square_of_nongraded_prime(self):
        p1 = one_loop_part(Q, (1, 1))
        assert multiply([p1, p1]) == one_loop_part(Q, (1, 2, 1))

    def test_singleton(self):
        p2 = one_loop_part(Q, (1, 2, 1))
        assert multiply([p2]) == p2
        assert intersect([p2]) == p2

    def test_intersect_absorbs_contained_factor(self):
        p1, p2 = one_loop_part(Q, (1, 1)), one_loop_part(Q, (1, 2, 1))
        assert intersect([p1, p2]) == p2

    def test_petals_primes_meet_in_the_sink_ideal(self):
        g = petals()
        primes = enumerate_graded_primes(g)[1:]
        prod = multiply(primes)
        assert prod == graded_ideal(g, ("v0",))
        assert intersect(primes) == prod

    def test_live_justifier_absorption(self):
        # the w loop lies inside I({w}) + <x+1 at u>, so the product
        # collapses to the smaller factor
        g = loop_chain()
        big = canonicalize(g, ("w",), (), [(ULOOP, poly(Q, (1, 1)))])
        small = canonicalize(g, (), (), [(WLOOP, poly(Q, (1, 1)))])
        assert multiply([big, small]) == small

    def test_same_cycle_merges_by_product_and_lcm(self):
        a = one_loop_part(GF2, Poly(GF2, (1, 1)) ** 2)
        b = one_loop_part(GF2, (1, 1, 1))
        # coprime powers: product and lcm agree
        assert intersect([a, b]).parts[0].poly.rep.coeffs == (1, 1, 0, 1, 1)
        assert multiply([a, b]).parts[0].poly.rep.coeffs == (1, 1, 0, 1, 1)
        # a shared root separates them
        c = one_loop_part(GF2, (1, 1))
        assert intersect([a, c]) == a
        assert multiply([a, c]).parts[0].poly.rep.coeffs == (1, 1, 1, 1)

    def test_disjoint_cycles_keep_both_parts(self):
        iso = Graph(["a", "b"], [Edge("ea", "a", "a"), Edge("eb", "b", "b")])
        ca, cb = Cycle.build(("a",), ("ea",)), Cycle.build(("b",), ("eb",))
        k1 = canonicalize(iso, ("b",), (), [(ca, poly(Q, (1, 1)))])
        k2 = canonicalize(iso, ("a",), (), [(cb, poly(Q, (1, 1)))])
        assert is_prime(k1).case == 3
        k12 = multiply([k1, k2])
        assert sorted(k12.pair.vertices) == []
        assert [(p.cycle.start, p.poly.rep.coeffs) for p in k12.parts] \
            == [("a", (1, 1)), ("b", (1, 1))]
        assert intersect([k1, k2]) == k12
        report = factor_prime_powers(k12)
        assert set(report.factors) == {(k1, 1), (k2, 1)}

    def test_result_contained_in_every_factor(self):
        g = omega_fan()
        chosen = graded_ideal(g, ("w1",), ("v",))
        other = graded_ideal(g, ("w2",))
        prod = multiply([chosen, other])
        assert contains(chosen, prod) and contains(other, prod)

    def test_combines_factors_that_are_not_prime_powers(self):
        # (x + 1)(x^2 + 1) is no prime power: it combines through its two
        # prime-power factors
        mixed = one_loop_part(Q, poly(Q, (1, 1)) * poly(Q, (1, 0, 1)))
        assert prime_power_decompose(mixed) is None
        assert multiply([mixed, one_loop_part(Q, (1, 1))]) \
            == one_loop_part(Q, poly(Q, (1, 1)) ** 2 * poly(Q, (1, 0, 1)))
        assert intersect([mixed, one_loop_part(Q, (1, 1))]) == mixed
        assert intersect([whole_ideal(one_loop()), mixed]) == mixed
        assert multiply([mixed, mixed]) == one_loop_part(
            Q, (poly(Q, (1, 1)) * poly(Q, (1, 0, 1))) ** 2)

    def test_two_loops_with_one_polynomial(self):
        # J = <(x+1)(a), (x+1)(b)> on two disjoint loops is the product of two
        # primes and no prime power (Esin, Kanuni & Rangaswamy, JPAA 221 (2017),
        # treat intersections of such ideals)
        iso = Graph(["a", "b"], [Edge("ea", "a", "a"), Edge("eb", "b", "b")])
        ca, cb = Cycle.build(("a",), ("ea",)), Cycle.build(("b",), ("eb",))
        x1 = poly(Q, (1, 1))

        def ideal(*parts):
            return canonicalize(iso, (), (), parts)

        j, a2 = ideal((ca, x1), (cb, x1)), ideal((ca, x1 ** 2))
        assert prime_power_decompose(j) is None
        assert len(factor_prime_powers(j).factors) == 2
        assert multiply([j, j]) == ideal((ca, x1 ** 2), (cb, x1 ** 2))
        assert intersect([j, j]) == j
        assert intersect([j, a2]) == a2
        assert multiply([j, a2]) == ideal((ca, x1 ** 3))
        assert intersect([j, zero_ideal(iso)]) == zero_ideal(iso)

    def test_rejects_mixed_graphs(self):
        other = canonicalize(loop_chain(), (), (), [(WLOOP, poly(Q, (1, 1)))])
        with pytest.raises(GraphMismatch):
            multiply([one_loop_part(Q, (1, 1)), other])

    def test_empty_factor_list(self):
        with pytest.raises(ValueError):
            multiply([])


class TestIrredundant:
    def test_absorbed_factors_dropped(self):
        p1, p2 = one_loop_part(Q, (1, 1)), one_loop_part(Q, (1, 2, 1))
        assert make_irredundant([p1, p2, whole_ideal(one_loop())],
                                "intersection") == [p2]

    def test_independent_factors_survive(self):
        primes = enumerate_graded_primes(petals())[1:]
        assert make_irredundant(primes, "product") == primes

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            make_irredundant([zero_ideal(one_loop())], "union")


class TestFactorPrimePowers:
    def test_polynomial_splits_into_prime_powers(self):
        source = one_loop_part(GF2, (1, 1, 0, 1, 1))  # (x+1)^2 (x^2+x+1)
        report = factor_prime_powers(source)
        assert [(p.parts[0].poly.rep.coeffs, r) for p, r in report.factors] \
            == [((1, 1), 2), ((1, 1, 1), 1)]
        assert report.mode == "product"
        assert report.irredundant is True
        assert len(report.checksum) == 64
        assert report.checksum == factor_prime_powers(source).checksum

    def test_graded_ideal_splits_along_tails(self):
        report = factor_prime_powers(graded_ideal(petals(), ("v0",)))
        assert [sorted(p.pair.vertices) for p, _ in report.factors] \
            == [["v0", "v1", "v2"], ["v0", "v1", "v3"], ["v0", "v2", "v3"]]

    def test_prime_factors_trivially(self):
        g = one_loop()
        report = factor_prime_powers(zero_ideal(g))
        assert list(report.factors) == [(zero_ideal(g), 1)]
        gd = double_loop_chain()
        assert list(factor_prime_powers(zero_ideal(gd)).factors) \
            == [(zero_ideal(gd), 1)]

    def test_case2_prime_factors_trivially(self):
        g = omega_loop()
        report = factor_prime_powers(graded_ideal(g, ("h",)))
        assert [(sorted(p.pair.vertices), sorted(p.pair.breaking), r)
                for p, r in report.factors] == [(["h"], [], 1)]

    def test_breaking_vertex_factor(self):
        g = omega_fan()
        report = factor_prime_powers(zero_ideal(g))
        assert [(sorted(p.pair.vertices), sorted(p.pair.breaking))
                for p, _ in report.factors] == [(["w1"], ["v"]), (["w2"], [])]
        assert multiply([p for p, _ in report.factors]) == zero_ideal(g)

    def test_fork_splits_into_sink_primes(self):
        g = sink_fork()
        report = factor_prime_powers(zero_ideal(g))
        assert [sorted(p.pair.vertices) for p, _ in report.factors] \
            == [["v-1"], ["v1"]]

    def test_report_json_shape(self):
        report = factor_prime_powers(one_loop_part(GF2, (1, 1, 0, 1, 1)))
        data = report.to_json()
        assert set(data) == {"mode", "irredundant", "checksum", "factors"}
        assert data["factors"][0] == {
            "ideal": {"H": [], "S": [], "field": "GF(2)",
                      "parts": [{"cycle": ["v", "e"], "poly": [1, 1]}]},
            "exponent": 2,
        }

    def test_prime_test_over_q_meets_the_factor_cap(self, monkeypatch):
        # the square of a Swinnerton-Dyer polynomial, which splits into four
        # factors modulo every prime: is_prime reads irreducibility off the
        # factorization, so the cap on modular factors stops it as it stops
        # the decomposition, while the reference Zassenhaus test rejects the
        # square before it reaches the cap
        sd = poly(Q, (576, 0, -960, 0, 352, 0, -40, 0, 1))
        source = one_loop_part(Q, sd ** 2)
        monkeypatch.setattr(poly_module, "MODULAR_FACTOR_CAP", 3)
        assert not oracles.irreducible_z(sd ** 2, cap=3)
        for ask in (is_prime, prime_power_decompose):
            with pytest.raises(DegreeTooLarge, match=r"4 factors.*cap 3"):
                ask(source)

    def test_improper_rejected(self):
        with pytest.raises(ImproperIdeal):
            factor_prime_powers(whole_ideal(one_loop()))


class TestFactorCompletelyIrreducible:
    def test_sink_ideal_of_petals(self):
        report = factor_completely_irreducible(graded_ideal(petals(), ("v0",)))
        assert len(report.factors) == 3
        powers = [ideal_power(p, r) for p, r in report.factors]
        assert intersect(powers) == graded_ideal(petals(), ("v0",))

    def test_graded_factor_must_be_completely_irreducible(self):
        # the zero ideal of one_loop is its own prime factorization but a
        # loop without exit fails condition (L), so no report is issued
        assert factor_completely_irreducible(zero_ideal(one_loop())) is None

    def test_prime_power_route(self):
        cube = one_loop_part(GF2, Poly(GF2, (1, 1)) ** 3)
        report = factor_completely_irreducible(cube)
        assert [(p.parts[0].poly.rep.coeffs, r) for p, r in report.factors] \
            == [((1, 1), 3)]


class TestWorkCounts:
    """Products and intersections factor nothing, and a factorization
    builds and checks each of its pieces once."""

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        original = getattr(ideals_module, name)

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(ideals_module, name, counted)
        return calls

    @staticmethod
    def fresh_families(count):
        """TestMemos._families on freshly parsed graphs, so no member keeps
        a report, a power or a factored polynomial from its generation."""
        parsed = []
        for g, family in TestMemos._families(count):
            fresh = graph_from_json(graph_to_json(g))
            parsed.append([ideal_from_json(fresh, ideal_to_json(m)) for m in family])
        return parsed

    def test_operations_on_prime_powers_factor_nothing(self, monkeypatch):
        # a prime power is graded or its quotient's cover is one tail, so it
        # is merged as it is: no report is built and no polynomial factored,
        # by the operations or by any trial of make_irredundant
        parsed = self.fresh_families(40)
        reports = self.counting(monkeypatch, "_factor_prime_powers")
        factored = self.counting(monkeypatch, "factor_poly")
        for members in parsed:
            multiply(members)
            intersect(members)
            for mode in ("product", "intersection"):
                assert make_irredundant(members, mode)
        assert sum(bool(m.parts) for members in parsed for m in members) > 25
        assert not reports and not factored

    def test_factor_prime_powers_factors_the_polynomial_once(self, monkeypatch):
        source = one_loop_part(GF2, (1, 1, 0, 1, 1))  # (x+1)^2 (x^2+x+1)
        calls = self.counting(monkeypatch, "factor_poly")
        report = factor_prime_powers(source)
        assert len(report.factors) == 2
        assert len(calls) == 1

    def test_factor_prime_powers_combines_once_per_trial(self, monkeypatch):
        # one recomposition, then one irredundancy trial per factor
        source = one_loop_part(GF2, (1, 1, 0, 1, 1))
        calls = self.counting(monkeypatch, "_combine")
        assert len(factor_prime_powers(source).factors) == 2
        assert len(calls) == 1 + 2

    @pytest.mark.parametrize("source", [
        graded_ideal(petals(), ("v0",)),
        one_loop_part(GF2, Poly(GF2, (1, 1)) ** 3)], ids=["graded", "power"])
    def test_complete_factorization_reuses_the_report(self, monkeypatch, source):
        calls = self.counting(monkeypatch, "_factor_prime_powers")
        report = factor_prime_powers(source)
        assert factor_completely_irreducible(source) is report
        assert factor_prime_powers(source) is report
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_factor_work_follows_the_factors(self, monkeypatch, n):
        # the zero ideal of a layered graph has two factors and dozens of
        # tails: only the primes of the answer are built and checked, and
        # only the reaching sets of the cover's two tails
        graph = graph_from_json(_layered_dag(SplitMix64(7), n))
        zero = zero_ideal(graph)
        built, checked = [], self.counting(monkeypatch, "is_prime")
        construct = ideals_module.Ideal.__init__

        def counted(ideal, *args):
            built.append(1)
            return construct(ideal, *args)

        monkeypatch.setattr(ideals_module.Ideal, "__init__", counted)
        factors = factor_prime_powers(zero).factors
        assert graph._tails is None and len(graph._reaching) == 2
        tails = maximal_tails(graph)
        assert len(factors) == 2 and len(tails) >= 19
        # each prime once, then the product that recomposes the zero ideal
        assert len(checked) == len(factors)
        assert len(built) == len(factors) + 1

    def test_one_query_computes_each_combination_once(self, monkeypatch):
        families = TestMemos._families(40)
        asked = self.counting(monkeypatch, "_combine")
        computed = []
        original = ideals_module._combination

        def counted(factors, mode):
            computed.append((tuple(factors), mode))
            return original(factors, mode)

        monkeypatch.setattr(ideals_module, "_combination", counted)
        repeats = 0
        for _, family in families:
            asked.clear()
            computed.clear()
            product = multiply(family)
            intersect(family)
            make_irredundant(family, "product")
            factor_prime_powers(product)
            factor_completely_irreducible(product)
            assert len(computed) == len(set(computed))
            repeats += len(asked) - len(computed)
        assert repeats > 0

    @pytest.mark.parametrize("field,factors", [
        (GF2, [((1, 1), 2), ((1, 1, 1), 1), ((1, 1, 0, 1), 1)]),
        (Q, [((-2, 1), 1), ((2, 0, 1), 2), ((3, 0, 0, 1), 1)])],
        ids=["GF(2)", "Q"])
    def test_one_factorization_per_polynomial(self, monkeypatch, field, factors):
        # the query of the poly benchmark on <f(c)>: the factorizer runs once
        # on f, then once on each distinct factor, whose prime the is_prime
        # self-check re-factors; no separate irreducibility test runs
        from lpaideals import factoring

        f = poly(field, (1,))
        for coeffs, mult in factors:
            f = f * poly(field, coeffs) ** mult
        source = one_loop_part(field, f)
        assert not any(hasattr(factoring, name)
                       for name in ("irreducible_gf", "irreducible_z"))

        def refused(*args):
            raise AssertionError("an irreducibility test ran in the library")

        monkeypatch.setattr(oracles, "irreducible_gf", refused)
        monkeypatch.setattr(oracles, "irreducible_z", refused)
        factored = []
        original = poly_module._factor

        def counted(g):
            factored.append(g)
            return original(g)

        monkeypatch.setattr(poly_module, "_factor", counted)
        assert not is_prime(source).holds
        assert not is_completely_irreducible(source).holds
        report = factor_prime_powers(source)
        assert sorted(r for _, r in report.factors) == sorted(m for _, m in factors)
        assert factored[0] == source.parts[0].poly.rep
        assert collections.Counter(g.coeffs for g in factored[1:]) \
            == collections.Counter(p.parts[0].poly.rep.coeffs
                                   for p, _ in report.factors)
        assert len(factored) == 1 + len(factors)

    def test_each_prime_power_is_built_once(self, monkeypatch):
        parsed = self.fresh_families(40)
        asked, built = [], collections.Counter()
        power, raise_class = ideals_module.ideal_power, LaurentClass.__pow__

        def counted_power(ideal, exponent):
            asked.append((ideal, exponent))
            return power(ideal, exponent)

        def counted_raise(cls, n):
            built[asked[-1]] += 1
            return raise_class(cls, n)

        monkeypatch.setattr(ideals_module, "ideal_power", counted_power)
        monkeypatch.setattr(LaurentClass, "__pow__", counted_raise)
        reused = set()
        for members in parsed:
            # equal ideals over equal graphs are equal, so count per graph
            built.clear()
            before = len(asked)
            product = multiply(members)
            intersect(members)
            # the members are merged as they are, so no power is asked for
            assert len(asked) == before
            report = factor_prime_powers(product)
            assert factor_completely_irreducible(product) in (report, None)
            recomposed = [counted_power(p, r) for p, r in report.factors]
            assert multiply(recomposed) == product
            # each power is raised at most once, however often it is asked
            # for, and a member's own power is the member
            assert set(built.values()) <= {1}
            own = {prime_power_decompose(m): m for m in members}
            assert all(power(*key) is m for key, m in own.items())
            reused |= {key for key in asked if key in own and key[1] > 1}
        assert reused and len(asked) > 2 * len(reused)

    def test_a_product_of_factored_members_is_not_factored_again(self, monkeypatch):
        # the prime powers on l0 are factored first, so the product's
        # polynomial there, and the lcm's, are read off theirs; the fresh
        # one on l1 is factored only when the product is
        graph = oracles.disjoint_loops(2)
        l0, l1 = (Cycle.build((e.src,), (e.id,)) for e in graph.edges)
        factored_first = [
            canonicalize(graph, ("l1",), (), [(l0, Poly(GF2, c) ** r)])
            for c, r in (((1, 1), 2), ((1, 1, 1), 1), ((1, 1, 0, 1), 3))]
        fresh = canonicalize(graph, ("l0",), (), [(l1, Poly(GF2, (1, 1)) ** 2)])
        assert all(prime_power_decompose(m) for m in factored_first)
        factored = []
        original = poly_module._factor

        def counted(g):
            factored.append(g)
            return original(g)

        monkeypatch.setattr(poly_module, "_factor", counted)
        members = factored_first + [fresh]
        product, meet = multiply(members), intersect(members)
        assert product is meet and not factored
        report = factor_prime_powers(product)
        assert sorted(r for _, r in report.factors) == [1, 2, 2, 3]
        # the report factors the fresh polynomial, and its primes re-factor
        # theirs in their is_prime checks
        on_l0 = next(part.poly.rep for part in product.parts if part.cycle == l0)
        assert fresh.parts[0].poly.rep in factored
        assert all(g.degree < on_l0.degree for g in factored)

    def test_an_operand_of_several_tails_splits_without_factoring(self, monkeypatch):
        # (x+1)^2 on l0, x^2+x+1 on l1 and nothing on l2 make three tails:
        # the operand gives way to its tail pieces, read off the cover, and
        # no polynomial is factored
        graph = oracles.disjoint_loops(3)
        l0, l1, _ = (Cycle.build((e.src,), (e.id,)) for e in graph.edges)
        several = canonicalize(graph, (), (), [(l0, Poly(GF2, (1, 0, 1))),
                                               (l1, Poly(GF2, (1, 1, 1)))])
        other = canonicalize(graph, ("l2",), (), [(l0, Poly(GF2, (1, 1, 0, 1)))])
        assert len(quotient_facts(graph, several.pair).cover) == 3
        split = self.counting(monkeypatch, "_tail_split")
        reports = self.counting(monkeypatch, "_factor_prime_powers")
        factored = self.counting(monkeypatch, "factor_poly")
        for mode, combine in (("product", multiply), ("intersection", intersect)):
            got = combine([several, other])
            assert got == oracles.combine_on_loops([several, other], mode)
        # a second copy is redundant in an intersection, but not in a product
        assert make_irredundant([several, several, other], "intersection") \
            == [several, other]
        assert make_irredundant([several, other, several], "product") \
            == [several, other, several]
        assert split and not reports and not factored


class TestMemos:
    """prime_power_decompose and factor_prime_powers keep answers on the Ideal."""

    def test_improper_raises_on_every_call(self):
        whole = whole_ideal(one_loop())
        for ask in (prime_power_decompose, factor_prime_powers,
                    factor_completely_irreducible):
            for _ in range(2):
                with pytest.raises(ImproperIdeal):
                    ask(whole)

    def test_none_answers_are_kept(self, monkeypatch):
        # (x + 1)^2 (x^2 + x + 1) is no prime power, and the zero ideal of
        # one_loop has no completely irreducible factorization; a second
        # answer must not reach the computation
        source = one_loop_part(GF2, (1, 1, 0, 1, 1))
        zero = zero_ideal(one_loop())
        assert prime_power_decompose(source) is None
        assert factor_completely_irreducible(zero) is None
        monkeypatch.setattr(ideals_module, "_factor_prime_powers", None)
        assert prime_power_decompose(source) is None
        assert factor_prime_powers(zero) is not None
        assert factor_completely_irreducible(zero) is None

    @staticmethod
    def _families(count):
        out = []
        for seed in range(1, 400):
            cfg = GeneratorConfig(seed=seed, field=FieldSpec.prime_field(2 + seed % 2),
                                  max_poly_degree=2)
            g = random_graph(cfg)
            try:
                family = random_prime_power_family(cfg, g)
            except (Unsatisfiable, TooLarge):
                continue
            out.append((g, family))
            if len(out) == count:
                return out
        raise AssertionError("too few families")

    @staticmethod
    def _answers(product, family):
        return [
            [prime_power_decompose(m) for m in family],
            factor_prime_powers(product),
            factor_completely_irreducible(product),
        ]

    @staticmethod
    def _encode(answers):
        def enc(x):
            if isinstance(x, (list, tuple)):
                return [enc(y) for y in x]
            if hasattr(x, "to_json"):
                return x.to_json()
            if hasattr(x, "pair"):
                return ideal_to_json(x)
            return x
        return json.dumps(enc(answers), sort_keys=True)

    def test_memoized_answers_match_fresh_ideals(self):
        for g, family in self._families(40):
            product = multiply(family)
            intersect(family)
            warm = self._answers(product, family)
            assert self._encode(self._answers(product, family)) \
                == self._encode(warm)
            fresh_graph = graph_from_json(graph_to_json(g))
            fresh = [ideal_from_json(fresh_graph, ideal_to_json(m)) for m in family]
            assert not any(f is m for f, m in zip(fresh, family))
            fresh_product = multiply(fresh)
            assert fresh_product == product and fresh_product is not product
            cold = self._answers(fresh_product, fresh)
            assert self._encode(cold) == self._encode(warm), graph_to_json(g)

    def test_equality_and_hash_ignore_the_memo(self):
        for g, family in self._families(10):
            product = multiply(family)
            factor_completely_irreducible(product)
            # over one graph an equal ideal is the same object, so the twin
            # lives on a reparsed graph and starts with empty memos
            twin_graph = graph_from_json(graph_to_json(g))
            for ideal in family + [product]:
                twin = ideal_from_json(twin_graph, ideal_to_json(ideal))
                assert twin is not ideal
                assert twin == ideal and hash(twin) == hash(ideal)
                assert {ideal: 1}[twin] == 1
