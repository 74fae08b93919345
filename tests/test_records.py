"""The package's records: what importing them costs, and the contract callers
rely on (value or identity equality, immutability, signatures, reprs)."""

import pathlib
import subprocess
import sys

import pytest

from lpaideals.classify import AlgebraReport, PredicateResult
from lpaideals.gallery import loop_chain, one_loop
from lpaideals.graphs import (
    AdmissiblePair,
    Cycle,
    Edge,
    QuotientFacts,
    StrongCsp,
    _vertex_masks,
    admissible_pair,
    graph_from_json,
    graph_to_json,
    quotient_facts,
    quotient_graph,
    quotient_view,
)
from lpaideals.ideals import (
    CaseResult,
    CyclePart,
    FactorizationReport,
    factor_prime_powers,
    zero_ideal,
)
from lpaideals.oracles import GeneratorConfig
from lpaideals.poly import FieldSpec, LaurentClass, Poly

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# traceback loads tokenize and linecache on 3.10-3.12, so they stay unchecked
UNLOADED = ("dataclasses", "inspect", "dis", "ast", "typing", "hashlib", "_hashlib")


def test_importing_the_package_loads_no_code_generation():
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import lpaideals, lpaideals.cli, lpaideals.oracles\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "lpaideals.cli" in loaded
    assert loaded.isdisjoint(UNLOADED), sorted(loaded.intersection(UNLOADED))


def _cycle():
    return Cycle.build(("u",), ("e",))


def _laurent():
    return LaurentClass(Poly(FieldSpec.rationals(), [1, 1]))


VALUE_RECORDS = [
    lambda: Edge("e", "a", "b"),
    lambda: AdmissiblePair(frozenset({"a"}), frozenset()),
    lambda: QuotientFacts((frozenset({"a"}),), True, True),
    lambda: StrongCsp(True, frozenset({"a"})),
    _cycle,
    lambda: CyclePart(_cycle(), _laurent()),
    lambda: CaseResult(True, 2),
    lambda: FieldSpec("GF", 5),
    _laurent,
    lambda: PredicateResult("p", False, "w"),
    lambda: GeneratorConfig(seed=3),
]


@pytest.mark.parametrize("make", VALUE_RECORDS)
def test_value_records_are_equal_by_value_and_immutable(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert not hasattr(a, "__dict__")
    name = type(a).__name__
    assert repr(a).startswith(f"{name}(") and repr(a) == repr(b)
    field = repr(a)[len(name) + 1:].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = None


def test_reprs_name_every_public_field():
    assert repr(Edge("e", "a", "b")) == "Edge(id='e', src='a', dst='b', mult=1)"
    assert repr(_cycle()) == "Cycle(vertices=('u',), edges=('e',))"
    assert repr(FieldSpec("Q")) == "FieldSpec(kind='Q', p=None)"
    assert repr(CaseResult(False)) == "CaseResult(holds=False, case=None)"


def test_records_of_different_values_or_types_differ():
    assert Edge("e", "a", "b") != Edge("e", "a", "b", 2)
    assert FieldSpec("Q") != FieldSpec("GF", 2)
    assert _cycle() != Cycle.build(("v",), ("e",))
    assert _laurent() != LaurentClass(Poly(FieldSpec.rationals(), [2, 1]))
    assert _laurent() != _laurent().rep and _cycle() != (("u",), ("e",))
    assert CyclePart(_cycle(), _laurent()) != (_cycle(), _laurent())


def test_defaults_and_keywords():
    assert Edge(id="e", src="a", dst="b").mult == 1
    assert CaseResult(holds=True).case is None
    assert PredicateResult("p", True).witness is None
    assert FieldSpec("Q").p is None
    config = GeneratorConfig(seed=1)
    assert (config.max_vertices, config.edge_density, config.omega_probability,
            config.field, config.max_poly_degree) == (6, 0.4, 0.1, FieldSpec("Q"), 2)
    assert GeneratorConfig(1, field=FieldSpec.prime_field(3)).field.p == 3


@pytest.mark.parametrize("kwargs, message", [
    ({"max_vertices": 0}, "max_vertices must be positive"),
    ({"edge_density": 1.5}, "edge_density out of range"),
    ({"omega_probability": -0.1}, "omega_probability out of range"),
    ({"max_poly_degree": 0}, "max_poly_degree must be positive"),
])
def test_generator_config_validates(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GeneratorConfig(seed=1, **kwargs)


def test_laurent_class_stays_out_of_tuple_arithmetic():
    f = _laurent()
    assert not isinstance(f, tuple)
    assert (f * f).degree == 2 and (f ** 3).degree == 3
    with pytest.raises(TypeError):
        f + f
    with pytest.raises(TypeError):
        2 * f
    with pytest.raises(ValueError, match="monic"):
        LaurentClass(Poly(FieldSpec.rationals(), [1, 2]))


def test_verdicts_and_reports_keep_their_reads():
    assert not CaseResult(False, 1) and CaseResult(True)
    assert not PredicateResult("p", False, {"x": 1})
    results = (PredicateResult("a", True), PredicateResult("b", False))
    report = AlgebraReport(results)
    assert report["b"] is results[1] and report.results is results
    with pytest.raises(KeyError):
        report["c"]
    assert len(_cycle()) == 1 and len(Cycle.build(("a", "b"), ("x", "y"))) == 2
    factored = factor_prime_powers(zero_ideal(one_loop()))
    assert isinstance(factored, FactorizationReport)
    assert factored.mode == "product" and factored.irredundant is True
    assert len(factored.checksum) == 64


def test_views_and_masks_are_equal_by_identity():
    g = loop_chain()
    pair = admissible_pair(g, {"w"})
    view = quotient_view(g, pair)
    twin = graph_from_json(graph_to_json(g))
    assert twin == g and quotient_view(twin, admissible_pair(twin, {"w"})) != view
    assert quotient_facts(g, pair) is view.facts
    with pytest.raises(AttributeError):
        view.facts = None
    assert not hasattr(view, "__dict__")
    assert repr(view).startswith("QuotientView(pair=AdmissiblePair(")
    masks = _vertex_masks(g)
    assert masks is _vertex_masks(g) and masks != _vertex_masks(twin)
    assert not hasattr(masks, "__dict__")
    quotient = quotient_graph(g, pair)
    assert quotient == quotient_graph(g, pair)
    assert quotient.split_source == {} and quotient.pair is pair
