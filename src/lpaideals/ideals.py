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

The factorization of a proper ideal into powers of distinct primes
(factor_prime_powers) is unique and kept on the ideal: it is the one
structural decomposition, and prime powers are the ideals it leaves whole.
Its factors are read off the tail cover of the ideal's quotient, one graded
prime per tail, split by the polynomial of the tail's cycle part.
Products and intersections take any ideals and factor no polynomial: an
operand with cycle parts and several tails gives way to its tail pieces
(_tail_split), and the answer is read off the canonical forms of the
operands so gathered: its graded part is the meet of the pairs, a cycle
part survives where every other operand holds the cycle's start in its H,
and operands on one (pair, cycle) multiply their polynomials for a product
or take their lcm for an intersection.  A factor containing another
changes none of this, so no factor is dropped first.
The form so read is already canonical and is built directly, as are the
primes of a factorization: canonicalize serves user input and join_graded.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple

from .errors import (
    FieldMismatch,
    GraphMismatch,
    ImproperIdeal,
    NotAdmissible,
    NotGraded,
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
    maximal_tails,
    quotient_cycle_exits,
    quotient_facts,
    quotient_view,
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
    with_factors_of,
)
from .records import Record


class CyclePart(Record):
    """One non-graded generator: a polynomial evaluated at an exitless cycle.

    Equal parts have equal cycles and polynomials.  The hash is kept on
    first use (slot _hash), so an ideal's key, looked up and then stored,
    hashes each part's polynomial once.
    """

    __slots__ = ("cycle", "poly", "_hash")

    def __init__(self, cycle: Cycle, poly: LaurentClass):
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "poly", poly)

    def __eq__(self, other) -> bool:
        if type(other) is not CyclePart:
            return NotImplemented
        return self.cycle == other.cycle and self.poly == other.poly

    def __hash__(self):
        known = getattr(self, "_hash", None)
        if known is None:
            known = hash((self.cycle, self.poly))
            object.__setattr__(self, "_hash", known)
        return known


class CaseResult(namedtuple("CaseResult", "holds case", defaults=(None,))):
    """Boolean verdict plus the case tag of the classification that produced it."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.holds


class Ideal:
    """Ideal in canonical form.

    Build one through canonicalize, or directly from data already in
    canonical form (as products, intersections and factorizations do); a
    direct construction re-validates the pair, the parts and the
    exitlessness of their cycles, but does not normalize.

    The canonical form is unique, so a graph holds one Ideal per form: a
    construction whose (pair, parts) the graph has seen returns the ideal
    already built, and only a new form is validated and registered.  A
    rejected construction raises and is never kept.  Two ideals over one
    graph are therefore equal exactly when they are the same object;
    across graphs, equality reads the graph, the pair and the parts.

    An Ideal is immutable, so factor_prime_powers keeps its report on it
    (slot _report) and is_prime its verdict (slot _prime), each unset until
    the first call, and a prime keeps its powers by exponent (slot
    _powers): those ideal_power has built and those a factorization found
    to be the ideal it factored.  The graph keeps the ideal, so the answers
    last as long as the graph, and the self-checks of each run once per
    distinct ideal of a graph.  The hash is computed once, on construction.
    """

    __slots__ = ("graph", "pair", "parts", "_hash", "_report", "_prime",
                 "_powers")

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
    polynomial, S = B_H, and the complement reaching the cycle.  The
    verdict is kept on the ideal (slot _prime); the ideal is checked to be
    proper on every call.
    """
    _require_proper(ideal)
    verdict = getattr(ideal, "_prime", None)
    if verdict is None:
        verdict = _is_prime(ideal)
        object.__setattr__(ideal, "_prime", verdict)
    return verdict


def _is_prime(ideal: Ideal) -> CaseResult:
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
    """All graded prime ideals, sorted by (H, S), each checked with is_prime.

    A graded prime has H = E^0 \\ M for a maximal tail M (Rangaswamy,
    J. Algebra 375 (2013)): it is (H, B_H), or (H, B_H minus u) for a
    breaking vertex u whose reaching set is M, so each tail of maximal_tails
    gives its primes directly.  It serves `lpa primes` and the oracles; a
    factorization builds only the primes of its answer, one per tail it
    keeps (_tail_pair).
    """
    out = []
    everything = frozenset(graph.vertices)
    for tail in maximal_tails(graph):
        hset = everything - tail
        full = breaking_vertices(graph, hset)
        out.append(Ideal(graph, AdmissiblePair(hset, full)))
        for u in sorted(full):
            if graph.reaching_set(u) == tail:
                out.append(Ideal(graph, AdmissiblePair(hset, full - {u})))
    out.sort(key=lambda i: i.pair.key())
    for p in out:
        assert is_prime(p).holds, f"enumerated non-prime {p!r}"
    return out


def prime_power_decompose(ideal: Ideal):
    """(P, n) with P prime and ideal = P**n, or None when not a prime power.

    The irredundant factorization into powers of distinct primes is unique,
    so the ideal is a prime power exactly when its report has one factor.
    """
    factors = factor_prime_powers(ideal).factors
    return factors[0] if len(factors) == 1 else None


def _powers(ideal: Ideal) -> dict:
    """The powers of ideal built so far, by exponent (its slot _powers)."""
    powers = getattr(ideal, "_powers", None)
    if powers is None:
        powers = {}
        object.__setattr__(ideal, "_powers", powers)
    return powers


def ideal_power(ideal: Ideal, exponent: int) -> Ideal:
    """ideal**exponent; graded ideals are idempotent, parts raise their polys.

    The ideal keeps each power it is raised to, so a factorization, its
    checks and the complete factorization built on it raise each (prime,
    exponent) once per graph; a prime power that factor_prime_powers has
    factored is kept as it is and never raised.
    """
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    if not ideal.parts or exponent == 1:
        return ideal
    powers = _powers(ideal)
    power = powers.get(exponent)
    if power is None:
        parts = tuple(CyclePart(p.cycle, p.poly ** exponent) for p in ideal.parts)
        power = powers[exponent] = Ideal(ideal.graph, ideal.pair, parts)
    return power


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


def _operands(factors) -> list:
    if not factors:
        raise ValueError("factor list must be nonempty")
    _check_same_graph(*factors)
    return factors


def _combine(factors, mode: str) -> Ideal:
    """Product or intersection of factors over one graph.

    A lone factor is its own product and intersection, so it comes back as
    is.  Otherwise the graph keeps each answer, keyed by the multiset of
    factors and the mode: both operations are commutative, and one graph
    builds one Ideal per canonical form, so the factors sorted by identity
    name the multiset.  Each combination and its containment asserts run
    once per graph.
    """
    if len(factors) == 1:
        return factors[0]
    memo = factors[0].graph._combinations
    key = (tuple(sorted(factors, key=id)), mode)
    result = memo.get(key)
    if result is None:
        result = memo[key] = _combination(factors, mode)
    return result


def _combination(factors, mode: str) -> Ideal:
    """The combination, built straight from the canonical forms of the
    operands the factors give, which is the combination of the factors by
    associativity.

    A graded factor is its own operand, and so is a factor with parts whose
    quotient's tail cover is one tail: that quotient is downward directed
    and its one part's cycle c is its one minimal free component, so the
    factor's pair is (E^0 minus R(c), B_H), the pair of every prime on c.
    Its prime powers all sit on its (pair, c), and merging it there merges
    them.  Any other factor gives way to its tail pieces (_tail_split): per
    tail of the cover, the graded prime read off the tail, or that prime's
    pair with the tail's one part.  The pieces are products of the prime
    powers of distinct tails, so they recompose the factor by product and
    by intersection alike, which is asserted.  No polynomial is factored.

    The answer is already canonical, so no canonicalize runs.  The meet of
    admissible pairs is admissible.  A surviving part's cycle has no exit
    over its own operand's pair, so each edge leaving the cycle lands in
    that operand's H; every other operand holds the cycle's start in its H,
    which is hereditary, so the edge lands in the meet's H.  A cycle vertex
    that breaks over the meet's H breaks over its own operand's H, so it
    lies in that operand's S and in every other H, hence in the meet's S.
    No two survivors share a cycle.  Ideal still re-validates the pair and
    the exitlessness, and the containment asserts stay.
    """
    graph = factors[0].graph
    operands = []
    for f in factors:
        if not f.parts or len(quotient_facts(graph, f.pair).cover) == 1:
            operands.append(f)
            continue
        pieces = [Ideal(graph, pair, (part,) if part else ())
                  for pair, part in _tail_split(f)]
        assert _combine(pieces, mode) == f, \
            f"tail pieces do not recompose {f!r} by {mode}"
        operands += pieces

    # merge the parts of operands sharing (pair, cycle), None for a graded
    # one; distinct exitless cycles force distinct pairs, so keying by
    # (pair, cycle) never conflates them.  When factor has kept both
    # polynomials' factorizations, the merged one is given its own and is
    # never factored again.
    merged = {}
    for operand in operands:
        part = operand.parts[0] if operand.parts else None
        key = (operand.pair, part.cycle if part else None)
        if key not in merged:
            merged[key] = part
        elif part is not None:
            a, b = merged[key].poly.rep, part.poly.rep
            combined = (with_factors_of((a * b).monic(), a, b, operator.add)
                        if mode == "product"
                        else with_factors_of(poly_lcm(a, b), a, b, max))
            merged[key] = CyclePart(part.cycle, LaurentClass(combined))

    parts = [part for key, part in merged.items() if part is not None
             and all(other == key or part.cycle.start in other[0].vertices
                     for other in merged)]
    parts.sort(key=lambda p: p.cycle.start)
    result = Ideal(graph, _meet(graph, [pair for pair, _ in merged]), parts)
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
    """Product of the factors."""
    return _combine(_operands(list(factors)), "product")


def intersect(factors) -> Ideal:
    """Intersection of the factors."""
    return _combine(_operands(list(factors)), "intersection")


def make_irredundant(factors, mode: str) -> list:
    """Greedy left-to-right sublist whose combination is unchanged."""
    if mode not in ("product", "intersection"):
        raise ValueError(f"unknown mode {mode!r}")
    factors = _operands(list(factors))
    return _irredundant(factors, mode, _combine(factors, mode))


# -- factorization ------------------------------------------------------------------


class FactorizationReport(namedtuple("FactorizationReport", "factors ideal")):
    """Factorization of ideal into powers of distinct primes.

    factors lists (prime ideal, exponent) pairs, whose powers recompose
    ideal by product, irredundantly; checksum fingerprints the canonical
    serialization of ideal when read.
    """

    __slots__ = ()
    mode = "product"
    irredundant = True

    @property
    def checksum(self) -> str:
        import hashlib  # loaded on first use: of the commands, only factor reads it

        payload = json.dumps(ideal_to_json(self.ideal), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

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


def _tail_pair(graph: Graph, below: AdmissiblePair, view, tail):
    """Pair of the graded prime above the pair below whose image in the
    quotient view by it is everything outside tail, a maximal tail of the
    quotient.

    A graded prime is (H, B_H), or (H, B_H minus u) for a breaking vertex u
    whose reaching set is E^0 minus H (enumerate_graded_primes).  Its image
    misses a real vertex of the tail only if that vertex lies outside H, and
    misses a primed sink u' only if u lies outside H and outside S.  So with
    M the tail with each primed sink u' replaced by its source u, and U the
    set of those sources, H lies in E^0 minus M and S misses U, and the
    prime is the largest such pair, (E^0 minus M, B minus U) for B the
    breaking vertices of E^0 minus M.  It is asserted to lie above the pair
    below and to have the tail's image; oracles.tail_primes_by_image
    selects it from all graded primes instead.
    """
    sources = {view.split_source[w] for w in tail if w in view.split_source}
    hset = frozenset(graph.vertices).difference(
        view.split_source.get(w, w) for w in tail)
    pair = AdmissiblePair(hset, breaking_vertices(graph, hset) - sources)
    assert admissible_leq(below, pair) \
        and view.image(pair) == frozenset(view.vertices) - tail, \
        f"no graded prime has the image of the tail {sorted(tail)}"
    return pair


def _tail_split(ideal: Ideal) -> list:
    """(pair, part) for each tail of the cover of the ideal's quotient, in
    cover order: the pair of the graded prime read off the tail
    (_tail_pair), and the one cycle part whose cycle lies in the tail, or
    None.

    A part's cycle has no exit in the quotient, so it is a minimal free
    component and lies in exactly one tail of the cover, and a tail holds
    at most one.  The tail of an exitless cycle holds no primed sink, so its
    pair is (H, B_H) with H containing the ideal's H: the cycle keeps no
    exit over it, and the pair with the part is already canonical.  The
    cover and the images are read off quotient_facts and quotient_view,
    with no quotient built.
    """
    graph = ideal.graph
    view = quotient_view(graph, ideal.pair)
    return [(_tail_pair(graph, ideal.pair, view, tail),
             next((p for p in ideal.parts if p.cycle.start in tail), None))
            for tail in quotient_facts(graph, ideal.pair).cover]


def factor_prime_powers(ideal: Ideal) -> FactorizationReport:
    """Factor a proper ideal into powers of distinct primes.

    Every proper ideal of a finite graph factors, and the irredundant
    factorization is unique.  The quotient's tail cover drives the
    construction (quotient_facts): each of its tails pulls back to the
    graded prime read off the tail (_tail_pair), whose image is everything
    outside the tail, by the tail/prime correspondence of Rangaswamy,
    J. Algebra 375 (2013).  The tail split (_tail_split), which products
    and intersections read too, pairs each tail's prime with the one cycle
    part lying in the tail, if any, and the polynomial of that part is
    factored to split the prime into prime powers.  Only the primes of the
    answer are built, each checked with is_prime.  The factors' powers are
    asserted to recompose the input by product, irredundantly, before the
    report is returned.
    """
    _require_proper(ideal)
    report = getattr(ideal, "_report", None)
    if report is None:
        report = _factor_prime_powers(ideal)
        object.__setattr__(ideal, "_report", report)
    return report


def _factor_prime_powers(ideal: Ideal) -> FactorizationReport:
    graph = ideal.graph
    factors = []
    for pair, part in _tail_split(ideal):
        if part is None:
            prime = Ideal(graph, pair)
            assert is_prime(prime).holds, f"tail produced a non-prime {prime!r}"
            factors.append((prime, 1))
            continue
        for p, mult in factor_poly(part.poly.rep):
            prime = Ideal(graph, pair, (CyclePart(part.cycle, LaurentClass(p)),))
            assert is_prime(prime).holds, "cycle tail produced a non-prime"
            factors.append((prime, mult))

    if len(factors) == 1 and factors[0][1] > 1:  # ideal_power keeps prime**n
        _powers(factors[0][0])[factors[0][1]] = ideal
    powers = [ideal_power(p, r) for p, r in factors]
    # a power is a prime power by construction, so its report is its one
    # factor, kept for prime_power_decompose (factor_completely_irreducible
    # asks it of each power)
    for entry, power in zip(factors, powers):
        if power is not ideal and getattr(power, "_report", None) is None:
            object.__setattr__(power, "_report",
                               FactorizationReport((entry,), power))
    assert _combine(powers, "product") == ideal, \
        "tail factorization does not recompose by product"
    assert len(_irredundant(powers, "product", ideal)) == len(powers), \
        "tail factorization is redundant"
    factors.sort(key=_factor_sort_key)
    return FactorizationReport(tuple(factors), ideal)


def _factor_sort_key(entry):
    prime, _ = entry
    cycle_start = prime.parts[0].cycle.start if prime.parts else ""
    coeffs = ([str(c) for c in prime.parts[0].poly.rep.coeffs]
              if prime.parts else [])
    return (sorted(prime.pair.vertices), sorted(prime.pair.breaking),
            cycle_start, coeffs)


def factor_completely_irreducible(ideal: Ideal):
    """Factor a proper ideal into completely irreducible ideals; None when
    a graded factor of its prime-power factorization is not completely
    irreducible.

    Builds on factor_prime_powers, whose report the ideal keeps, so the
    tails and the product check are not redone; the power of a non-graded
    prime is completely irreducible, and the factors' powers are asserted
    to recompose the input by intersection too.
    """
    report = factor_prime_powers(ideal)
    for prime, exponent in report.factors:
        if is_graded(prime):
            if not is_completely_irreducible(prime).holds:
                return None
        else:
            assert is_completely_irreducible(
                ideal_power(prime, exponent)).holds
    powers = [ideal_power(p, r) for p, r in report.factors]
    assert _combine(powers, "intersection") == ideal, \
        "factorization does not recompose by intersection"
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
