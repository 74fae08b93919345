"""Canonical ideals of the Leavitt path algebra of a finite graph.

Every ideal is represented by an admissible pair (H, S) plus a finite list of
cycle parts.  The pair carries the graded part of the ideal: H is the set of
vertices inside the ideal and S the breaking vertices whose gap idempotents
are included.  Each cycle part is a cycle without exits in the quotient graph
by (H, S) together with a monic polynomial with nonzero constant term; the
part stands for the ideal generated by evaluating the polynomial at the
cycle.  This normal form is unique, so structural equality decides ideal
equality, and the whole calculus (containment, lattice operations, products,
intersections, primality, prime powers, complete irreducibility, and
factorization) runs on the symbolic form without ever materializing algebra
elements.

Products and intersections take factor lists in which every factor is
graded or a prime power; _check_operands is the only gate, and anything
else fails loudly with UnsupportedOperands rather than guessing.  The answer
is read off the canonical forms: its graded part is the meet of the pairs,
a cycle part survives where every other factor holds the cycle's start in
its H, and factors on one (pair, cycle) multiply their polynomials for a
product or take their lcm for an intersection.  A factor containing another
changes none of this, so no factor is dropped first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import (
    FieldMismatch,
    GraphMismatch,
    ImproperIdeal,
    NotAdmissible,
    NotGraded,
    UnsupportedOperands,
)
from .graphs import (
    AdmissiblePair,
    Cycle,
    Graph,
    admissible_leq,
    admissible_pair,
    breaking_vertices,
    downward_directed,
    hereditary_saturated_closure,
    quotient_cycle_exits,
    quotient_facts,
    quotient_view,
    tail_complements,
)
from .poly import (
    FieldSpec,
    LaurentClass,
    Poly,
    divides,
    factor as factor_poly,
    is_irreducible_laurent,
    normalize_laurent,
    poly_gcd,
    poly_lcm,
)


@dataclass(frozen=True)
class CyclePart:
    """One non-graded generator: a polynomial evaluated at an exitless cycle."""

    cycle: Cycle
    poly: LaurentClass


@dataclass(frozen=True)
class CaseResult:
    """Boolean verdict plus the case tag of the classification that produced it."""

    holds: bool
    case: object = None

    def __bool__(self) -> bool:
        return self.holds


class Ideal:
    """Ideal in canonical form; build through canonicalize, not directly.

    The canonical form is unique, so a graph holds one Ideal per form: a
    construction whose (pair, parts) the graph has seen returns the ideal
    already built, and only a new form is validated and registered.  A
    rejected construction raises and is never kept.  Two ideals over one
    graph are therefore equal exactly when they are the same object;
    across graphs, equality reads the graph, the pair and the parts.

    An Ideal is immutable, so prime_power_decompose and factor_prime_powers
    keep their answers on it (slots _decomposition and _report, unset until
    the first call; a None answer is kept too).  The graph keeps the ideal,
    so the answers last as long as the graph, and the self-checks of each
    run once per distinct ideal of a graph.  The hash is computed once, on
    construction.
    """

    __slots__ = ("graph", "pair", "parts", "_hash", "_decomposition", "_report")

    def __new__(cls, graph: Graph, pair: AdmissiblePair, parts=()):
        known = graph._ideals.get((pair, tuple(parts)))
        return known if known is not None else object.__new__(cls)

    def __init__(self, graph: Graph, pair: AdmissiblePair, parts=()):
        if hasattr(self, "_hash"):
            return  # __new__ found this ideal in the graph's table
        parts = tuple(parts)
        # defensive re-validation keeps the canonical invariants honest; the
        # graph validates each pair once and hands back one shared object
        pair = admissible_pair(graph, pair.vertices, pair.breaking)
        if parts:
            field = parts[0].poly.field
            starts = set()
            for part in parts:
                if part.poly.field != field:
                    raise FieldMismatch("cycle parts over different fields")
                if part.poly.degree < 1:
                    raise ValueError("cycle part with a unit polynomial")
                if quotient_cycle_exits(graph, pair, part.cycle):
                    raise ValueError(
                        f"cycle at {part.cycle.start!r} has an exit in the quotient")
                starts.add(part.cycle.start)
            if len(starts) != len(parts):
                raise ValueError("duplicate cycles among parts")
            if list(parts) != sorted(parts, key=lambda p: p.cycle.start):
                raise ValueError("parts must be sorted by cycle start")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "parts", parts)
        key = (pair, parts)
        # equal ideals have equal keys, so the hash can leave the graph out
        object.__setattr__(self, "_hash", hash(key))
        graph._ideals[key] = self

    def __setattr__(self, name, value):
        raise AttributeError("Ideal is immutable")

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        # one graph builds one Ideal per canonical form
        return (isinstance(other, Ideal) and self.graph is not other.graph
                and self.graph == other.graph and self.pair == other.pair
                and self.parts == other.parts)

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        h = ",".join(sorted(self.pair.vertices))
        s = ",".join(sorted(self.pair.breaking))
        ps = "; ".join(f"{p.poly.pretty()} at {p.cycle.start}" for p in self.parts)
        return f"Ideal(H={{{h}}}, S={{{s}}}" + (f", {ps})" if ps else ")")

    @property
    def field(self):
        """Coefficient field of the cycle parts; None for graded ideals."""
        return self.parts[0].poly.field if self.parts else None


# -- construction and canonical form -------------------------------------------


def canonicalize(graph: Graph, hset, sset=(), raw_parts=()) -> Ideal:
    """Canonical form of the ideal generated by the given data.

    hset and sset list vertex generators and gap-idempotent requests; each
    raw part pairs a cycle of the graph with a nonzero polynomial.  The
    fixpoint loop normalizes polynomials, extracts vertices forced in by
    cycle exits, merges duplicate cycles by gcd, and repairs sset:

    * a sink in sset joins hset (its gap idempotent is the vertex itself);
    * a regular vertex in sset is dropped (its gap idempotent already lies
      in the graded part);
    * an infinite emitter whose every edge ends up inside hset joins hset;
    * an infinite emitter still emitting an infinite bundle out of hset has
      no expressible gap idempotent, which is rejected as NotAdmissible.
    """
    for v in set(hset) | set(sset):
        graph.check_vertex(v)
    work = []
    for cyc, poly in raw_parts:
        cyc = Cycle.build(cyc.vertices, cyc.edges)
        cyc.check_in(graph)
        work.append((cyc, normalize_laurent(poly) if isinstance(poly, Poly)
                     else poly))
    if len({lc.field for _, lc in work}) > 1:
        raise FieldMismatch("cycle parts over different fields")

    hset = set(hset)
    want = set()
    for v in set(sset):
        kind = graph.vertex_class(v)
        if kind == "sink":
            hset.add(v)
        elif kind == "infinite_emitter":
            want.add(v)
        # regular vertices contribute nothing beyond the graded part

    while True:
        hset = set(hereditary_saturated_closure(graph, hset))
        exhausted = {v for v in want - hset
                     if all(e.dst in hset for e in graph.out_edges(v))}
        if exhausted:
            hset |= exhausted
            continue
        want -= hset

        # degree-0 classes generate the cycle's source as a vertex
        units = [cyc for cyc, lc in work if lc.degree == 0]
        if units:
            hset.update(c.start for c in units)
            work = [(c, lc) for c, lc in work if lc.degree > 0]
            continue
        work = [(c, lc) for c, lc in work if c.start not in hset]
        # merge duplicate cycles by gcd; a unit gcd loops back through the
        # degree-0 rule above
        merged = {}
        for cyc, lc in work:
            if cyc in merged:
                merged[cyc] = LaurentClass(poly_gcd(merged[cyc].rep, lc.rep))
            else:
                merged[cyc] = lc
        if len(merged) != len(work):
            work = list(merged.items())
            continue

        sset_now = want & breaking_vertices(graph, hset)
        leftover = want - sset_now
        if leftover:
            bad = sorted(leftover)[0]
            raise NotAdmissible(
                f"gap idempotent of {bad!r} is not expressible: an infinite "
                f"bundle leaves the vertex set")
        if not work:
            break
        pair = admissible_pair(graph, hset, sset_now)
        first = next((e for cyc, _ in work
                      for e in quotient_cycle_exits(graph, pair, cyc)), None)
        if first is None:
            break
        edge, _, source = first
        if source is None:
            # a real exit puts its range among the vertex generators
            hset.add(edge.dst)
        else:
            # an exit onto a split sink forces that gap idempotent
            want.add(source)

    pair = admissible_pair(graph, hset, sset_now)
    parts = tuple(sorted((CyclePart(c, lc) for c, lc in work),
                         key=lambda p: p.cycle.start))
    return Ideal(graph, pair, parts)


def zero_ideal(graph: Graph) -> Ideal:
    return Ideal(graph, AdmissiblePair(frozenset(), frozenset()))


def whole_ideal(graph: Graph) -> Ideal:
    return Ideal(graph, AdmissiblePair(frozenset(graph.vertices), frozenset()))


def graded_ideal(graph: Graph, hset, sset=()) -> Ideal:
    return Ideal(graph, admissible_pair(graph, hset, sset))


# -- simple structure -----------------------------------------------------------


def is_graded(ideal: Ideal) -> bool:
    return not ideal.parts


def is_proper(ideal: Ideal) -> bool:
    return ideal.pair.vertices != frozenset(ideal.graph.vertices)


def graded_part(ideal: Ideal) -> Ideal:
    return Ideal(ideal.graph, ideal.pair)


def _check_same_graph(*ideals) -> None:
    graph = ideals[0].graph
    for other in ideals[1:]:
        if other.graph is not graph and other.graph != graph:
            raise GraphMismatch("ideals live over different graphs")


# -- the graded lattice ----------------------------------------------------------


def _meet(graph: Graph, pairs) -> AdmissiblePair:
    """Pair of the intersection of the graded ideals of the given pairs."""
    hset = frozenset(graph.vertices)
    for pair in pairs:
        hset &= pair.vertices
    sset = {v for v in breaking_vertices(graph, hset)
            if all(v in pair.vertices | pair.breaking for pair in pairs)}
    return AdmissiblePair(hset, frozenset(sset))


def _check_graded(name: str, ideals) -> None:
    if not ideals:
        raise ValueError(f"{name} needs at least one ideal")
    _check_same_graph(*ideals)
    if not all(is_graded(i) for i in ideals):
        raise NotGraded(f"{name} expects graded ideals")


def meet_graded(*ideals: Ideal) -> Ideal:
    """Greatest lower bound of graded ideals: intersect them."""
    _check_graded("meet_graded", ideals)
    graph = ideals[0].graph
    return Ideal(graph, _meet(graph, [i.pair for i in ideals]))


def join_graded(*ideals: Ideal) -> Ideal:
    """Least upper bound of graded ideals: the ideal they generate together."""
    _check_graded("join_graded", ideals)
    return canonicalize(ideals[0].graph,
                        set().union(*(i.pair.vertices for i in ideals)),
                        set().union(*(i.pair.breaking for i in ideals)))


# -- containment -----------------------------------------------------------------


def contains(big: Ideal, small: Ideal) -> bool:
    """Whether big contains small, decided on canonical forms."""
    _check_same_graph(big, small)
    if not admissible_leq(small.pair, big.pair):
        return False
    if not small.parts:
        return True
    mine = {p.cycle: p.poly for p in big.parts}
    for part in small.parts:
        if part.cycle.start in big.pair.vertices:
            continue
        own = mine.get(part.cycle)
        if own is None or not divides(own.rep, part.poly.rep):
            return False
        if quotient_cycle_exits(big.graph, big.pair, part.cycle):
            return False
    return True


# -- primality --------------------------------------------------------------------


def _require_proper(ideal: Ideal) -> None:
    if not is_proper(ideal):
        raise ImproperIdeal("the improper ideal is not classified")


def is_prime(ideal: Ideal) -> CaseResult:
    """Primality with the matching structural case tag (1, 2, or 3).

    Case 1: graded with S = B_H and downward directed complement.
    Case 2: graded with S = B_H minus one vertex whose reaching set is the
    whole complement.  Case 3: a single cycle part with irreducible
    polynomial, S = B_H, and the complement reaching the cycle.
    """
    _require_proper(ideal)
    graph, pair = ideal.graph, ideal.pair
    complement = frozenset(graph.vertices) - pair.vertices
    full = breaking_vertices(graph, pair.vertices)
    if not ideal.parts:
        if pair.breaking == full:
            if downward_directed(graph, complement)[0]:
                return CaseResult(True, 1)
            return CaseResult(False)
        missing = full - pair.breaking
        if len(missing) == 1 and pair.breaking <= full:
            u = next(iter(missing))
            if complement == graph.reaching_set(u):
                return CaseResult(True, 2)
        return CaseResult(False)
    if len(ideal.parts) == 1 and pair.breaking == full:
        part = ideal.parts[0]
        if (complement == graph.reaching_set(part.cycle.start)
                and is_irreducible_laurent(part.poly)):
            return CaseResult(True, 3)
    return CaseResult(False)


def enumerate_graded_primes(graph: Graph) -> list:
    """All graded prime ideals, sorted by (H, S).

    A graded prime has H = E^0 \\ M for a maximal tail M: it is (H, B_H), or
    (H, B_H minus u) for a breaking vertex u whose reaching set is M.
    """
    out = []
    everything = frozenset(graph.vertices)
    for hset in tail_complements(graph):
        complement = everything - hset
        full = breaking_vertices(graph, hset)
        out.append(Ideal(graph, AdmissiblePair(hset, full)))
        for u in sorted(full):
            if complement == graph.reaching_set(u):
                out.append(Ideal(graph, AdmissiblePair(hset, full - {u})))
    out.sort(key=lambda i: i.pair.key())
    for p in out:
        assert is_prime(p).holds, f"enumerated non-prime {p!r}"
    return out


def prime_power_decompose(ideal: Ideal):
    """(P, n) with P prime and ideal = P**n, or None when not a prime power."""
    _require_proper(ideal)
    memo = getattr(ideal, "_decomposition", None)
    if memo is None:
        memo = (_decompose(ideal),)
        object.__setattr__(ideal, "_decomposition", memo)
    return memo[0]


def _decompose(ideal: Ideal):
    if not ideal.parts:
        return (ideal, 1) if is_prime(ideal).holds else None
    if len(ideal.parts) != 1:
        return None
    graph, pair = ideal.graph, ideal.pair
    if pair.breaking != breaking_vertices(graph, pair.vertices):
        return None
    complement = frozenset(graph.vertices) - pair.vertices
    if not downward_directed(graph, complement)[0]:
        return None
    part = ideal.parts[0]
    factors = factor_poly(part.poly.rep)
    if len(factors) != 1:
        return None
    p, n = factors[0]
    prime = Ideal(graph, pair, (CyclePart(part.cycle, LaurentClass(p)),))
    assert is_prime(prime).holds, "prime power with a non-prime base"
    return prime, n


def ideal_power(ideal: Ideal, exponent: int) -> Ideal:
    """ideal**exponent; graded ideals are idempotent, parts raise their polys."""
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    if not ideal.parts or exponent == 1:
        return ideal
    parts = tuple(CyclePart(p.cycle, p.poly ** exponent) for p in ideal.parts)
    return Ideal(ideal.graph, ideal.pair, parts)


def is_completely_irreducible(ideal: Ideal) -> CaseResult:
    """Complete irreducibility with a case tag.

    Case 1: graded, and the zero ideal of the quotient graph is completely
    irreducible (condition (L) and downward directed; the strong CSP then
    follows), both read off quotient_facts with no quotient built.  Case 2:
    a power of a non-graded prime.
    """
    _require_proper(ideal)
    if not ideal.parts:
        facts = quotient_facts(ideal.graph, ideal.pair)
        holds = facts.condition_l and facts.downward_directed
        return CaseResult(holds, 1 if holds else None)
    decomposed = prime_power_decompose(ideal)
    if decomposed is not None:
        return CaseResult(True, 2)
    return CaseResult(False)


# -- products and intersections ----------------------------------------------------


def _check_operands(factors) -> list:
    """The factor list, once every factor is graded or a prime power over
    one graph; raises otherwise.  The only gate of multiply, intersect and
    make_irredundant."""
    if not factors:
        raise ValueError("factor list must be nonempty")
    _check_same_graph(*factors)
    for index, f in enumerate(factors):
        if f.parts and prime_power_decompose(f) is None:
            raise UnsupportedOperands(
                f"factor {index} is neither graded nor a prime power: {f!r}")
    return factors


def _combine(factors, mode: str) -> Ideal:
    """Product or intersection of factors that pass _check_operands.

    The graph keeps each answer, keyed by the factor list and the mode, so
    each combination and its containment asserts run once per graph.
    """
    memo = factors[0].graph._combinations
    key = (tuple(factors), mode)
    result = memo.get(key)
    if result is None:
        result = memo[key] = _combination(factors, mode)
    return result


def _combination(factors, mode: str) -> Ideal:
    graph = factors[0].graph

    # merge factors sharing (pair, cycle); distinct exitless cycles force
    # distinct pairs, so keying by (pair, cycle) never conflates factors
    merged = {}
    for f in factors:
        key = (f.pair, f.parts[0].cycle if f.parts else None)
        if key not in merged:
            merged[key] = f
        elif f.parts:
            a, b = merged[key].parts[0].poly.rep, f.parts[0].poly.rep
            combined = (a * b).monic() if mode == "product" else poly_lcm(a, b)
            merged[key] = Ideal(graph, f.pair,
                                (CyclePart(f.parts[0].cycle,
                                           LaurentClass(combined)),))
    survivors = list(merged.values())

    parts = []
    for f in survivors:
        for part in f.parts:
            if all(other is f or part.cycle.start in other.pair.vertices
                   for other in survivors):
                parts.append((part.cycle, part.poly))

    pair = _meet(graph, [f.pair for f in survivors])
    result = canonicalize(graph, pair.vertices, pair.breaking, parts)
    for index, f in enumerate(factors):
        assert contains(f, result), \
            f"combination escaped factor {index}: {f!r}"
    return result


def _irredundant(factors, mode: str, target: Ideal) -> list:
    """Greedy left-to-right sublist whose combination is still target, the
    combination of the whole list."""
    kept = list(factors)
    i = 0
    while i < len(kept):
        if len(kept) > 1:
            trial = kept[:i] + kept[i + 1:]
            if _combine(trial, mode) == target:
                kept = trial
                continue
        i += 1
    return kept


def multiply(factors) -> Ideal:
    """Product of the factors; each must be graded or a prime power."""
    return _combine(_check_operands(list(factors)), "product")


def intersect(factors) -> Ideal:
    """Intersection of the factors; each must be graded or a prime power."""
    return _combine(_check_operands(list(factors)), "intersection")


def make_irredundant(factors, mode: str) -> list:
    """Greedy left-to-right sublist whose combination is unchanged."""
    if mode not in ("product", "intersection"):
        raise ValueError(f"unknown mode {mode!r}")
    factors = _check_operands(list(factors))
    return _irredundant(factors, mode, _combine(factors, mode))


# -- factorization ------------------------------------------------------------------


@dataclass(frozen=True)
class FactorizationReport:
    """Factorization into powers of distinct primes, with its recomposition proof.

    factors lists (prime ideal, exponent) pairs; recomposing them under the
    stated mode reproduces the source ideal, whose canonical serialization
    is fingerprinted in checksum.
    """

    factors: tuple
    mode: str
    irredundant: bool
    checksum: str

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "irredundant": self.irredundant,
            "checksum": self.checksum,
            "factors": [
                {"ideal": ideal_to_json(p), "exponent": r}
                for p, r in self.factors
            ],
        }


def _ideal_checksum(ideal: Ideal) -> str:
    payload = json.dumps(ideal_to_json(ideal), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _irredundant_tail_cover(tails, universe):
    """The unique irredundant subcover; None when the tails do not cover."""
    covered = set()
    for t in tails:
        covered |= t
    if covered != set(universe):
        return None
    kept = list(tails)
    i = 0
    while i < len(kept):
        rest = set()
        for j, t in enumerate(kept):
            if j != i:
                rest |= t
        if rest == set(universe):
            del kept[i]
        else:
            i += 1
    return kept


def factor_prime_powers(ideal: Ideal):
    """Factor into powers of distinct primes; None when no such factorization.

    The quotient's maximal tails drive the construction: each tail pulls
    back to the largest graded prime with the matching image, cycle parts
    attach to the unique tail reaching their cycle, and the polynomial of a
    part splits into prime powers.  The tails and the images are read off
    quotient_facts and quotient_view, with no quotient built.  The product
    of everything returned is verified to recompose the input before the
    report is returned.
    """
    _require_proper(ideal)
    memo = getattr(ideal, "_report", None)
    if memo is None:
        memo = (_factor_prime_powers(ideal),)
        object.__setattr__(ideal, "_report", memo)
    return memo[0]


def _factor_prime_powers(ideal: Ideal):
    graph = ideal.graph
    view = quotient_view(graph, ideal.pair)
    tails = _irredundant_tail_cover(quotient_facts(graph, ideal.pair).tails,
                                    view.vertices)
    if tails is None:
        return None

    candidates = [p for p in enumerate_graded_primes(graph)
                  if admissible_leq(ideal.pair, p.pair)]
    by_image = {}
    for p in candidates:
        by_image.setdefault(view.image(p.pair), []).append(p)

    part_of = {}
    for part in ideal.parts:
        homes = [i for i, t in enumerate(tails) if part.cycle.start in t]
        if len(homes) != 1:
            return None
        if homes[0] in part_of:
            return None
        part_of[homes[0]] = part

    factors = []
    for i, tail in enumerate(tails):
        image = frozenset(view.vertices) - tail
        pool = by_image.get(image)
        if not pool:
            return None
        best = pool[0]
        for p in pool[1:]:
            if admissible_leq(best.pair, p.pair):
                best = p
        assert all(admissible_leq(p.pair, best.pair) for p in pool), \
            "image-matched primes are not a chain"
        part = part_of.get(i)
        if part is None:
            factors.append((best, 1))
            continue
        if best.pair.breaking != breaking_vertices(graph, best.pair.vertices):
            return None
        for p, mult in factor_poly(part.poly.rep):
            prime = canonicalize(graph, best.pair.vertices, best.pair.breaking,
                                 [(part.cycle, LaurentClass(p))])
            assert is_prime(prime).holds, "cycle tail produced a non-prime"
            factors.append((prime, mult))

    # the powers are prime powers by construction, so the checks skip
    # _check_operands
    powers = [ideal_power(p, r) for p, r in factors]
    if _combine(powers, "product") != ideal:
        return None
    assert len(_irredundant(powers, "product", ideal)) == len(powers), \
        "tail factorization is redundant"
    factors.sort(key=_factor_sort_key)
    return FactorizationReport(tuple(factors), "product", True,
                               _ideal_checksum(ideal))


def _factor_sort_key(entry):
    prime, _ = entry
    cycle_start = prime.parts[0].cycle.start if prime.parts else ""
    coeffs = ([str(c) for c in prime.parts[0].poly.rep.coeffs]
              if prime.parts else [])
    return (sorted(prime.pair.vertices), sorted(prime.pair.breaking),
            cycle_start, coeffs)


def factor_completely_irreducible(ideal: Ideal):
    """Factor into completely irreducible ideals; None when impossible.

    Builds on factor_prime_powers, whose report the ideal keeps, so the
    tails and the product check are not redone; every graded factor must
    itself be completely irreducible, and the intersection of the factors
    is verified to recompose the input.
    """
    report = factor_prime_powers(ideal)
    if report is None:
        return None
    for prime, exponent in report.factors:
        if is_graded(prime):
            if not is_completely_irreducible(prime).holds:
                return None
        else:
            assert is_completely_irreducible(
                ideal_power(prime, exponent)).holds
    powers = [ideal_power(p, r) for p, r in report.factors]
    if _combine(powers, "intersection") != ideal:
        return None
    return report


# -- serialization --------------------------------------------------------------------


def ideal_to_json(ideal: Ideal) -> dict:
    out = {
        "H": sorted(ideal.pair.vertices),
        "S": sorted(ideal.pair.breaking),
        "parts": [
            {"cycle": p.cycle.to_json(), "poly": p.poly.rep.to_json()}
            for p in ideal.parts
        ],
    }
    if ideal.parts:
        out["field"] = ideal.field.label
    return out


def ideal_from_json(graph: Graph, data, default_field: FieldSpec = None) -> Ideal:
    """Parse and canonicalize an ideal; raises ValueError on malformed input."""
    if not isinstance(data, dict):
        raise ValueError("ideal JSON must be an object")
    extra = set(data) - {"H", "S", "parts", "field"}
    if extra:
        raise ValueError(f"unknown ideal fields {sorted(extra)}")
    hset = data.get("H", [])
    sset = data.get("S", [])
    raw = data.get("parts", [])
    if not isinstance(hset, list) or not isinstance(sset, list) \
            or not isinstance(raw, list):
        raise ValueError("ideal JSON fields have wrong types")
    if not all(isinstance(v, str) for v in hset + sset):
        raise ValueError("H and S must list vertex ids")
    field = default_field
    if "field" in data:
        if not isinstance(data["field"], str):
            raise ValueError(f"field label must be a string: {data['field']!r}")
        declared = FieldSpec.parse(data["field"])
        if default_field is not None and declared != default_field:
            raise ValueError(
                f"ideal field {declared.label} conflicts with requested "
                f"{default_field.label}")
        field = declared
    parts = []
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"cycle", "poly"}:
            raise ValueError(f"malformed cycle part {entry!r}")
        if field is None:
            raise ValueError("cycle parts need a coefficient field")
        cyc = Cycle.from_json(entry["cycle"])
        coeffs = entry["poly"]
        if not isinstance(coeffs, list) or not coeffs:
            raise ValueError("poly must be a nonempty coefficient list")
        parts.append((cyc, Poly(field, coeffs)))
    return canonicalize(graph, hset, sset, parts)
