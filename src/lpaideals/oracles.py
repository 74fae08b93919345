"""Brute-force oracles and seeded generators backing the property tests.

The oracles re-derive answers straight from definitions, scanning all
subsets or all polynomials instead of reusing the fast-path algorithms, so
an agreement test actually cross-checks two independent derivations.  The
generators produce deterministic pseudo-random graphs and prime-power
families from a 64-bit seed; the stream is SplitMix64, fixed so that seeds
reproduce everywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .classify import _pair_json
from .errors import DegreeTooLarge, NotALattice, TooLarge, Unsatisfiable
from .gallery import corpus
from . import graphs
from .graphs import (
    OMEGA,
    AdmissiblePair,
    Cycle,
    Edge,
    Graph,
    Quotient,
    StrongCsp,
    admissible_leq,
    breaking_vertices,
    condition_k,
    cycles_without_exits,
    downward_directed,
    enumerate_hereditary_saturated,
    hereditary_saturated_closure,
    maximal_tails,
    quotient_graph,
    quotient_view,
    strong_csp,
)
from .ideals import (
    CyclePart,
    Ideal,
    _combine,
    canonicalize,
    contains,
    enumerate_graded_primes,
    factor_prime_powers,
    ideal_power,
    is_prime,
    prime_power_decompose,
)
from .poly import (
    MODULAR_FACTOR_CAP,
    FieldSpec,
    LaurentClass,
    Poly,
    _gcd,
    _sub,
    factor,
    poly_lcm,
)
from .rng import SplitMix64


# -- literal reachability, kept local so oracles do not lean on the fast paths --


def _edges_from(graph: Graph, v: str):
    return [e for e in graph.edges if e.src == v]


def _reaches_literal(graph: Graph, src: str, dst: str) -> bool:
    seen = {src}
    frontier = [src]
    while frontier:
        v = frontier.pop()
        if v == dst:
            return True
        for e in _edges_from(graph, v):
            if e.dst not in seen:
                seen.add(e.dst)
                frontier.append(e.dst)
    return dst in seen


def _hereditary_literal(graph: Graph, subset: frozenset) -> bool:
    return all(e.dst in subset for e in graph.edges if e.src in subset)


def _saturated_literal(graph: Graph, subset: frozenset) -> bool:
    for v in graph.vertices:
        if v in subset:
            continue
        outs = _edges_from(graph, v)
        if outs and all(e.mult != OMEGA for e in outs) \
                and all(e.dst in subset for e in outs):
            return False
    return True


#: The subset scans below refuse graphs with more vertices than this.
SUBSET_SCAN_BOUND = 16


def _check_bound(graph: Graph) -> None:
    if len(graph.vertices) > SUBSET_SCAN_BOUND:
        raise TooLarge(f"{len(graph.vertices)} vertices exceed the subset-scan "
                       f"bound {SUBSET_SCAN_BOUND}")


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


# -- closure, admissible pairs, lattice bounds ------------------------------------


def closure_oracle(graph: Graph, subset) -> frozenset:
    """Smallest hereditary saturated superset, found by scanning all subsets."""
    _check_bound(graph)
    subset = frozenset(subset)
    candidates = [t for t in _subsets(graph.vertices)
                  if subset <= t and _hereditary_literal(graph, t)
                  and _saturated_literal(graph, t)]
    best = min(candidates, key=len)
    assert all(best <= t for t in candidates), \
        "hereditary saturated supersets are not closed under intersection"
    return best


def strong_csp_oracle(graph: Graph) -> StrongCsp:
    """Strong CSP from the intersection of every nonempty hereditary saturated
    subset, found by scanning all subsets; reachability is tested literally."""
    _check_bound(graph)
    core = frozenset(graph.vertices)
    for t in _subsets(graph.vertices):
        if t and _hereditary_literal(graph, t) and _saturated_literal(graph, t):
            core &= t
    if not core:
        return StrongCsp(False, core)
    for v in graph.vertices:
        if not any(_reaches_literal(graph, v, w) for w in core):
            return StrongCsp(False, core)
    return StrongCsp(True, core)


def _breaking_literal(graph: Graph, hset: frozenset):
    out = set()
    for v in graph.vertices:
        if v in hset:
            continue
        outs = _edges_from(graph, v)
        omegas = [e for e in outs if e.mult == OMEGA]
        leaving = [e for e in outs if e.dst not in hset]
        if omegas and all(e.dst in hset for e in omegas) and leaving:
            out.add(v)
    return frozenset(out)


def enumerate_admissible_pairs(graph: Graph) -> list:
    """All (H, S) with H hereditary saturated and S breaking, by subset scan."""
    _check_bound(graph)
    pairs = []
    for hset in _subsets(graph.vertices):
        if not (_hereditary_literal(graph, hset)
                and _saturated_literal(graph, hset)):
            continue
        for sset in _subsets(_breaking_literal(graph, hset)):
            pairs.append(AdmissiblePair(hset, sset))
    pairs.sort(key=lambda p: p.key())
    return pairs


def hereditary_saturated_join_walk(graph: Graph) -> list:
    """All hereditary saturated sets by joins with principal closures.

    The reference for graphs.enumerate_hereditary_saturated: every such set
    is reached from the empty set by joins, and the join of a set S with
    closure({v}) is closure(S | {v}).  It takes a closure for every set
    found and every vertex outside it, and sorts as the enumeration does.
    """
    found = {frozenset()}
    todo = [frozenset()]
    while todo:
        s = todo.pop()
        for v in graph.vertices:
            if v not in s:
                t = hereditary_saturated_closure(graph, s | {v})
                if t not in found:
                    found.add(t)
                    todo.append(t)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def admissible_pairs(graph: Graph) -> list:
    """All admissible pairs (H, S) over graphs.enumerate_hereditary_saturated,
    sorted by key; TooLarge past graphs.LATTICE_CAP, read at call time."""
    cap = graphs.LATTICE_CAP
    pairs = []
    for hset in enumerate_hereditary_saturated(graph):
        candidates = sorted(breaking_vertices(graph, hset))
        if len(pairs) + 2 ** len(candidates) > cap:
            raise TooLarge(f"more admissible pairs than the lattice cap {cap}")
        for sset in _subsets(candidates):
            pairs.append(AdmissiblePair(hset, sset))
    pairs.sort(key=lambda p: p.key())
    return pairs


def cycle_vertices(graph: Graph) -> frozenset:
    """Vertices on some cycle: sources of slots whose target reaches back."""
    return frozenset(e.src for e in graph.edges
                     if _reaches_literal(graph, e.dst, e.src))


def _leq_literal(p1: AdmissiblePair, p2: AdmissiblePair) -> bool:
    return p1.vertices <= p2.vertices \
        and p1.breaking <= p2.vertices | p2.breaking


def glb_oracle(pairs, p1: AdmissiblePair, p2: AdmissiblePair) -> AdmissiblePair:
    """Greatest lower bound by exhaustive comparison over the full lattice."""
    lows = [p for p in pairs if _leq_literal(p, p1) and _leq_literal(p, p2)]
    tops = [g for g in lows if all(_leq_literal(l, g) for l in lows)]
    if len(tops) != 1:
        raise NotALattice(f"glb of {p1} and {p2} is not unique: {tops}")
    return tops[0]


def lub_oracle(pairs, p1: AdmissiblePair, p2: AdmissiblePair) -> AdmissiblePair:
    """Least upper bound by exhaustive comparison over the full lattice."""
    highs = [p for p in pairs if _leq_literal(p1, p) and _leq_literal(p2, p)]
    bottoms = [g for g in highs if all(_leq_literal(g, h) for h in highs)]
    if len(bottoms) != 1:
        raise NotALattice(f"lub of {p1} and {p2} is not unique: {bottoms}")
    return bottoms[0]


# -- the chain predicate over the whole lattice ------------------------------------


def comp_irred_chain_walk(graph: Graph):
    """Whether every proper ideal is completely irreducible, on the whole lattice.

    Condition (K), then every two admissible pairs of admissible_pairs
    compared, then the strong CSP of every proper quotient.  Returns
    (True, None) or (False, witness) with the witness JSON of the classify
    predicate; the chain witness is the first incomparable pair of the whole
    lattice in key order.  TooLarge past graphs.LATTICE_CAP.
    """
    k_holds, bad = condition_k(graph)
    if not k_holds:
        return False, {"condition": "K", "cycle": bad.to_json()}
    pairs = admissible_pairs(graph)
    for p1, p2 in itertools.combinations(pairs, 2):
        if not (admissible_leq(p1, p2) or admissible_leq(p2, p1)):
            return False, {"condition": "chain",
                           "pairs": [_pair_json(p1), _pair_json(p2)]}
    everything = frozenset(graph.vertices)
    for pair in pairs:
        if pair.vertices == everything:
            continue
        csp = strong_csp(quotient_graph(graph, pair).graph)
        if not csp.holds:
            return False, {"condition": "strong_csp", "pair": _pair_json(pair),
                           "core": sorted(csp.witness)}
    return True, None


# -- maximal tails -------------------------------------------------------------------


def maximal_tails_bruteforce(graph: Graph) -> list:
    """Every nonempty subset passing the three maximal-tail conditions literally.

    MT1: closed under predecessors.  MT2: a regular member keeps a successor
    inside.  MT3: any two members reach a common member.
    """
    _check_bound(graph)
    out = []
    for m in _subsets(graph.vertices):
        if not m:
            continue
        mt1 = all(v in m
                  for v in graph.vertices
                  for w in m if _reaches_literal(graph, v, w))
        if not mt1:
            continue
        mt2 = True
        for v in m:
            outs = _edges_from(graph, v)
            if outs and all(e.mult != OMEGA for e in outs):
                if not any(e.dst in m for e in outs):
                    mt2 = False
                    break
        if not mt2:
            continue
        mt3 = all(any(_reaches_literal(graph, u, w)
                      and _reaches_literal(graph, v, w) for w in m)
                  for u in m for v in m)
        if mt3:
            out.append(m)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def is_maximal_tail_literal(graph: Graph, subset) -> bool:
    """The three maximal-tail conditions on one set, edge by edge.

    The reference for the bitmask certificate of graphs.maximal_tails and
    graphs.quotient_facts, run on quotient_graph for a tail of a quotient:
    MT1 reads the in-edges of each member, MT2 its successors, and MT3 asks
    downward_directed.
    """
    m = frozenset(subset)
    if not m:
        return False
    for w in m:
        # closed under predecessors: no edge enters m from outside
        if any(e.src not in m for e in graph.in_edges(w)):
            return False
        if graph.is_regular(w) and not (graph.successors(w) & m):
            return False
    return downward_directed(graph, m)[0]


def quotient_prime_vertices(quotient: Quotient, prime: Ideal) -> frozenset:
    """Vertices of a built quotient graph lying in the image of a graded ideal.

    The reference for graphs.QuotientView.image.  The graded ideal must
    contain the ideal of the quotient's pair.  Real vertices land in the
    image by membership in its H, except split breaking vertices, which land
    exactly when all their surviving edges do; a split sink lands when the
    gap idempotent of its source does.
    """
    hp = prime.pair.vertices
    sp = prime.pair.breaking
    base = quotient.base
    split = set(quotient.split_source.values())
    out = set()
    for w in quotient.graph.vertices:
        if quotient.is_primed_vertex(w):
            if quotient.split_source[w] in hp | sp:
                out.add(w)
        elif w in split:
            kept = [e for e in base.out_edges(w)
                    if e.dst not in quotient.pair.vertices]
            if all(e.dst in hp for e in kept):
                out.add(w)
        elif w in hp:
            out.add(w)
    return frozenset(out)


# -- products of completely irreducible ideals -----------------------------------------


def _induced_subgraph(graph: Graph, vertices) -> Graph:
    keep = set(vertices)
    return Graph(sorted(keep),
                 [e for e in graph.edges if e.src in keep and e.dst in keep])


def products_of_comp_irred_walk(graph: Graph):
    """Whether every proper ideal is a product of completely irreducible ideals.

    Walks the general definition: condition (K) and, for every proper
    admissible pair, a cover of the quotient by maximal tails that each have
    the strong CSP.  Returns (True, None) or (False, witness).  With finitely
    many vertices the verdict is condition (K)'s, which classify returns.
    """
    k_holds, bad = condition_k(graph)
    if not k_holds:
        return False, {"condition": "K", "cycle": bad}
    everything = frozenset(graph.vertices)
    for pair in enumerate_admissible_pairs(graph):
        if pair.vertices == everything:
            continue
        q = quotient_graph(graph, pair).graph
        tails = maximal_tails(q)
        uncovered = set(q.vertices).difference(*tails)
        if uncovered:
            return False, {"condition": "tail_cover", "pair": pair,
                           "uncovered": sorted(uncovered)}
        for t in tails:
            csp = strong_csp(_induced_subgraph(q, t))
            if not csp.holds:
                return False, {"condition": "tail_strong_csp", "pair": pair,
                               "tail": sorted(t), "csp": csp}
    return True, None


# -- reference tail cover and tail primes ---------------------------------------------


def irredundant_tail_cover(tails, universe):
    """The greedy irredundant subcover, on sets; None when the tails do not cover.

    The reference for QuotientFacts.cover, which reads it off the minimal
    free components: left to right, a tail goes when the union of the
    others kept still covers the universe.
    """
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


def tail_primes_by_image(ideal: Ideal):
    """(tail, prime) for each tail of the irredundant cover of the maximal
    tails of the quotient graph by the ideal's pair, found by
    irredundant_tail_cover; None when the tails do not cover.

    The reference for the pair that ideals._tail_pair reads directly off
    the tail: here the prime is selected as the largest of all graded
    primes of enumerate_graded_primes above the ideal whose image in the
    quotient is everything outside the tail, None when there is none, and
    the primes with that image must form a chain.
    """
    graph = ideal.graph
    view = quotient_view(graph, ideal.pair)
    tails = irredundant_tail_cover(
        maximal_tails(quotient_graph(graph, ideal.pair).graph), view.vertices)
    if tails is None:
        return None
    by_image = {}
    for p in enumerate_graded_primes(graph):
        if admissible_leq(ideal.pair, p.pair):
            by_image.setdefault(view.image(p.pair), []).append(p)
    out = []
    for tail in tails:
        pool = by_image.get(frozenset(view.vertices) - tail, [])
        best = pool[0] if pool else None
        for p in pool[1:]:
            if admissible_leq(best.pair, p.pair):
                best = p
        assert all(admissible_leq(p.pair, best.pair) for p in pool), \
            "image-matched primes are not a chain"
        out.append((tail, best))
    return out


# -- reference prime-power decomposition ------------------------------------------------


def direct_prime_power_decompose(ideal: Ideal):
    """(P, n) with P prime and ideal = P**n, or None, decided on the ideal's
    own form.

    The reference for ideals.prime_power_decompose, which reads the answer
    off the factorization report: a graded ideal is a prime power exactly
    when it is prime, and an ideal with parts exactly when it has one part,
    S = B_H, a downward directed complement of H and a polynomial that is a
    power of one irreducible.
    """
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
    factors = factor(part.poly.rep)
    if len(factors) != 1:
        return None
    p, n = factors[0]
    prime = Ideal(graph, pair, (CyclePart(part.cycle, LaurentClass(p)),))
    assert is_prime(prime).holds, "prime power with a non-prime base"
    return prime, n


# -- reference products and intersections ---------------------------------------------


def combine_by_canonicalize(factors, mode: str) -> Ideal:
    """Product or intersection of graded and prime-power factors, normalized
    by the whole canonicalize fixpoint.

    The reference for ideals.multiply and ideals.intersect, which build the
    same form directly on the grounds that it is already canonical.  Factors
    on one (pair, cycle) multiply their polynomials for a product or take
    their lcm for an intersection; a cycle part survives where every other
    (pair, cycle) holds its start in H; the graded part is the meet of the
    pairs, its S read off the literal breaking vertices.
    """
    factors = list(factors)
    graph = factors[0].graph
    polys = {}
    for f in factors:
        key = (f.pair, f.parts[0].cycle if f.parts else None)
        rep = f.parts[0].poly.rep if f.parts else None
        if key not in polys:
            polys[key] = rep
        elif rep is not None:
            polys[key] = (polys[key] * rep if mode == "product"
                          else poly_lcm(polys[key], rep))
    hset = frozenset(graph.vertices)
    for pair, _ in polys:
        hset &= pair.vertices
    sset = {v for v in _breaking_literal(graph, hset)
            if all(v in pair.vertices | pair.breaking for pair, _ in polys)}
    parts = []
    for key, rep in polys.items():
        cycle = key[1]
        others = [pair for pair, _ in polys.keys() - {key}]
        if cycle is not None and all(cycle.start in o.vertices for o in others):
            parts.append((cycle, rep))
    result = canonicalize(graph, hset, sset, parts)
    assert all(contains(f, result) for f in factors), "combination escaped a factor"
    return result


def combine_by_prime_powers(factors, mode: str) -> Ideal:
    """Product or intersection of proper ideals over one graph, each first
    replaced by the powers of its factorization report.

    The reference for the tail split of ideals.multiply, ideals.intersect
    and ideals.make_irredundant, which factor no operand: a report's powers
    recompose its ideal by product and by intersection, so by associativity
    the combination of all the powers is the combination of the factors.
    The powers are graded or prime powers, combined by
    combine_by_canonicalize.
    """
    powers = [ideal_power(p, r) for f in factors
              for p, r in factor_prime_powers(f).factors]
    return combine_by_canonicalize(powers, mode)


def absorb(factors, mode: str) -> list:
    """The factors left by the containment fixpoint, in their given order.

    Each factor is graded or a prime power.  A factor is dropped when
    another live factor makes it redundant: any factor containing a
    strictly smaller one goes, duplicates collapse to their first copy, and
    in product mode a prime power goes only when a live graded factor sits
    inside it or a strictly smaller prime underlies another live power
    (powers of one prime must multiply, not absorb).
    """
    factors = list(factors)
    primes = [prime_power_decompose(f)[0] if f.parts else None for f in factors]
    alive = list(range(len(factors)))
    changed = True
    while changed:
        changed = False
        for j in list(alive):
            fj, pj = factors[j], primes[j]
            for i in alive:
                if i == j:
                    continue
                fi, pi = factors[i], primes[i]
                if mode == "intersection" or pj is None:
                    drop = contains(fj, fi) and (fi != fj or i < j)
                elif pi is None:
                    drop = contains(fj, fi)
                else:
                    drop = pi != pj and contains(pj, pi)
                if drop:
                    alive.remove(j)
                    changed = True
                    break
    return [factors[j] for j in alive]


def combine_with_absorption(factors, mode: str) -> Ideal:
    """Product or intersection that absorbs contained factors first.

    The reference for ideals.multiply and ideals.intersect, which combine
    every factor as given: the survivors of absorb are combined by
    ideals._combine, and the answer must contain each factor, dropped ones
    included.
    """
    factors = list(factors)
    result = _combine(absorb(factors, mode), mode)
    assert all(contains(f, result) for f in factors), "absorbed factor escaped"
    return result


def combine_on_loops(factors, mode: str) -> Ideal:
    """Product or intersection of any ideals of a disjoint union of single
    loops, computed loop by loop.

    The reference for ideals.multiply and ideals.intersect on operands that
    are no prime powers.  There L_K(E) is a product of copies of K[x, x^-1],
    one per loop, so an ideal is a tuple of Laurent ideals: the whole ring
    where the loop's vertex lies in H, <f> where a part puts f on the loop,
    and 0 elsewhere.  A product multiplies the generators on each loop and
    an intersection takes their lcm, 0 absorbing both.
    """
    factors = list(factors)
    graph = factors[0].graph
    assert sorted(e.src for e in graph.edges) == list(graph.vertices) \
        and all(e.src == e.dst and e.mult == 1 for e in graph.edges), \
        "the graph is not a disjoint union of single loops"
    field = next((f.field for f in factors if f.parts), FieldSpec.rationals())
    zero, one = Poly(field, []), Poly(field, [1])

    def generator(ideal, v):
        if v in ideal.pair.vertices:
            return one
        return next((p.poly.rep for p in ideal.parts if p.cycle.start == v), zero)

    hset, parts = [], []
    for e in graph.edges:
        gens = [generator(f, e.src) for f in factors]
        if mode == "product":
            g = functools.reduce(operator.mul, gens)
        else:
            g = zero if zero in gens else functools.reduce(poly_lcm, gens)
        if g.degree == 0:
            hset.append(e.src)
        elif g.degree > 0:
            parts.append((Cycle.build((e.src,), (e.id,)), g))
    return canonicalize(graph, hset, (), parts)


# -- reference polynomial factorization --------------------------------------------


def _monic_polys(field: FieldSpec, degree: int):
    """All monic polynomials of the given degree over GF(p), lexicographically."""
    for tail in itertools.product(range(field.p), repeat=degree):
        yield Poly(field, list(tail) + [1])


def _factor_counts(found: list) -> list:
    return [(g, found.count(g))
            for g in sorted(set(found), key=lambda g: (g.degree, g.coeffs))]


def bruteforce_factor_gf(f: Poly) -> list:
    """Irreducible factorization by trial division over all monic polynomials.

    Walks every monic polynomial of degree up to half the remainder in
    coefficient order, stripping divisors as they appear; a composite can
    never divide first because its own factors come earlier.
    """
    if f.field.kind != "GF":
        raise ValueError("brute-force factorization is for GF(p) only")
    if f.is_zero() or f.degree < 1:
        raise ValueError("factor a nonconstant polynomial")
    rest = f.monic()
    found = []
    d = 1
    while 2 * d <= rest.degree:
        for g in _monic_polys(f.field, d):
            while rest.degree >= g.degree and (rest % g).is_zero():
                found.append(g)
                rest = rest // g
        d += 1
    if rest.degree >= 1:
        found.append(rest.monic())
    return _factor_counts(found)


def monic_irreducibles(field: FieldSpec, max_degree: int) -> list[Poly]:
    """Monic irreducibles over GF(p) up to max_degree, sieved by trial division."""
    if field.kind != "GF":
        raise ValueError("monic_irreducibles is a GF(p) enumeration")
    found: list[Poly] = []
    for d in range(1, max_degree + 1):
        for cand in _monic_polys(field, d):
            if all(not (cand % q).is_zero() for q in found if 2 * q.degree <= d):
                found.append(cand)
    return found


#: kronecker_factor_rational refuses polynomials above this degree.
KRONECKER_DEGREE_BOUND = 12


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    out: list[int] = []
    for v in small + large[::-1]:
        out.extend((v, -v))
    return out


def _rational_roots(ints: list[int]) -> list[Fraction]:
    """Rational roots of an integer polynomial with nonzero constant term."""
    f = Poly(FieldSpec.rationals(), ints)
    roots = []
    for p_ in _int_divisors(ints[0]):
        for q_ in _int_divisors(ints[-1]):
            cand = Fraction(p_, q_)
            if q_ > 0 and f.evaluate(cand) == 0 and cand not in roots:
                roots.append(cand)
    return roots


def _interpolate(field: FieldSpec, xs, ys) -> Poly:
    """Lagrange interpolation through (xs[i], ys[i])."""
    total = Poly(field, [])
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num = Poly(field, [yi])
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                num = num * Poly(field, [-xj, 1])
                den *= Fraction(xi - xj)
        total = total + num.scale(Fraction(1) / den)
    return total


def _kronecker_split(f: Poly):
    """A monic irreducible factor of lowest degree and its cofactor, or None.

    Kronecker's method on an integer multiple of f: a factor of degree s is
    pinned down by its values on s+1 integer points, and each value must
    divide the value of the polynomial there.  Interpolating every divisor
    combination and test-dividing is exhaustive, hence exact, and the first
    hit has the lowest degree, so it is irreducible.
    """
    field = f.field
    den = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * den) for c in f.coeffs]
    for r in _rational_roots(ints):
        lin = Poly(field, [-r, 1])
        return lin, f // lin
    fint = Poly(field, ints)
    for s in range(2, f.degree // 2 + 1):
        points: list[int] = [0]
        k = 1
        while len(points) < s + 1:
            points.append(k)
            if len(points) < s + 1:
                points.append(-k)
            k += 1
        # with no rational root left, every value is a nonzero integer
        divisor_sets = [_int_divisors(int(fint.evaluate(a))) for a in points]
        for combo in itertools.product(*divisor_sets):
            g = _interpolate(field, points, [Fraction(c) for c in combo])
            if g.degree == s and (f % g).is_zero():
                gm = g.monic()
                return gm, f // gm
    return None


def kronecker_factor_rational(f: Poly) -> list:
    """Irreducible factorization over Q by Kronecker's method, the reference
    for factor(): [(g, multiplicity)], g monic, sorted by (degree, coeffs)."""
    if f.field.kind != "Q":
        raise ValueError("Kronecker factorization is for Q only")
    if f.is_zero() or f.degree < 1 or f.constant_term() == 0:
        raise ValueError("factor a nonconstant polynomial with nonzero constant term")
    if f.degree > KRONECKER_DEGREE_BOUND:
        raise DegreeTooLarge(f"degree {f.degree} exceeds the Kronecker bound "
                             f"{KRONECKER_DEGREE_BOUND}")
    found, stack = [], [f.monic()]
    while stack:
        g = stack.pop()
        split = None if g.degree <= 1 else _kronecker_split(g)
        if split is None:
            found.append(g)
        else:
            found.append(split[0])
            stack.append(split[1])
    return _factor_counts(found)


# -- reference irreducibility tests ---------------------------------------------------
#
# The library reads irreducibility off factor(); these decide it without
# factoring, stopping at the first sign of a split, and tests compare the two.
# They load the factoring module on first use, as factor() does, so importing
# the oracles does not.


def irreducible_gf(f: Poly) -> bool:
    """Ben-Or: f of degree n >= 1 is irreducible over GF(p) exactly when
    gcd(f, x^(p^i) - x) = 1 for every i <= n/2 (Rabin, SIAM J. Comput. 9)."""
    if f.field.kind != "GF" or f.degree < 1:
        raise ValueError("Ben-Or's test is for nonconstant polynomials over GF(p)")
    from .factoring import _Residues

    p, g = f.field.p, list(f.monic().coeffs)
    ring, h = _Residues(g, p), [0, 1]
    for _ in range(f.degree // 2):
        h = ring.frobenius(h)
        if len(_gcd(g, _sub(h, [0, 1], p), p)) > 1:
            return False
    return True


def irreducible_z(f: Poly, cap: int = MODULAR_FACTOR_CAP) -> bool:
    """Whether f of degree >= 1 is irreducible over Q: square-free, with one
    Zassenhaus factor.  A square is rejected before any Zassenhaus runs, so
    the cap on modular factors applies to square-free f only."""
    if f.field.kind != "Q" or f.degree < 1:
        raise ValueError("the Zassenhaus test is for nonconstant polynomials over Q")
    from .factoring import _squarefree_part, _zassenhaus, primitive

    g = primitive(f.coeffs)
    return _squarefree_part(g)[0] == g and len(_zassenhaus(g, cap)) == 1


# -- seeded generators ------------------------------------------------------------------


class GeneratorConfig(namedtuple(
        "GeneratorConfig", "seed max_vertices edge_density omega_probability "
        "field max_poly_degree", defaults=(6, 0.4, 0.1, FieldSpec("Q"), 2))):
    """Deterministic generation parameters; equal configs generate equal data."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be positive")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ValueError("edge_density out of range")
        if not 0.0 <= self.omega_probability <= 1.0:
            raise ValueError("omega_probability out of range")
        if self.max_poly_degree < 1:
            raise ValueError("max_poly_degree must be positive")
        return self


def random_graph(config: GeneratorConfig) -> Graph:
    """Deterministic random graph: seed and config decide everything."""
    rng = SplitMix64(config.seed)
    n = 1 + rng.below(config.max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.chance(config.edge_density):
                mult = OMEGA if rng.chance(config.omega_probability) else 1
                edges.append(Edge(f"e{len(edges)}", f"v{i}", f"v{j}", mult))
    return Graph(vertices, edges)


def disjoint_loops(count: int) -> Graph:
    """count single loops l0, l1, ... with no edge between them."""
    names = [f"l{i}" for i in range(count)]
    return Graph(names, [Edge(f"e{v}", v, v) for v in names])


def random_loop_ideal(rng: SplitMix64, graph: Graph, field: FieldSpec,
                      max_degree: int = 2) -> Ideal:
    """Seeded ideal of a disjoint union of single loops: on each loop 0 or
    the whole ring with odds 1/4 each, otherwise a product of one to three
    powers (exponent 1 or 2) of random irreducibles of degree up to
    max_degree; several parts as a rule, and rarely a prime power."""
    hset, parts = [], []
    for e in graph.edges:
        pick = rng.below(4)
        if pick == 1:
            hset.append(e.src)
        elif pick > 1:
            f = Poly(field, [1])
            for _ in range(1 + rng.below(3)):
                f = f * _random_irreducible(rng, field, max_degree) ** (1 + rng.below(2))
            parts.append((Cycle.build((e.src,), (e.id,)), f))
    return canonicalize(graph, hset, (), parts)


@functools.cache
def omega_corpus() -> list:
    """The gallery plus 4,000 seeded graphs of up to 8 vertices, with 30% of
    their slots infinite bundles; built once per process."""
    graphs = list(corpus().values())
    graphs += [random_graph(GeneratorConfig(seed=s, max_vertices=8,
                                            omega_probability=0.3))
               for s in range(1, 4001)]
    return graphs


#: Largest characteristic whose irreducibles _random_irreducible sieves.
_SIEVE_MAX_P = 5


def _random_irreducible(rng: SplitMix64, field: FieldSpec, max_degree: int) -> Poly:
    """Monic irreducible with nonzero constant term, degree <= max_degree.

    Over GF(p) with p <= _SIEVE_MAX_P it picks one from the sieved list.  A
    larger p would sieve p**degree candidates, so there it draws monic
    polynomials of the degree with nonzero constant term from the same
    stream until Ben-Or's test accepts one (about one draw in degree).
    """
    degree = 1 + rng.below(max_degree)
    if field.kind == "GF" and field.p <= _SIEVE_MAX_P:
        pool = [g for g in monic_irreducibles(field, degree)
                if g.degree == degree and g.constant_term() != field.zero()]
        if not pool:
            pool = [g for g in monic_irreducibles(field, degree)
                    if g.constant_term() != field.zero()]
        return rng.choice(pool)
    if field.kind == "GF":
        while True:
            coeffs = ([1 + rng.below(field.p - 1)]
                      + [rng.below(field.p) for _ in range(degree - 1)] + [1])
            g = Poly(field, coeffs)
            if irreducible_gf(g):
                return g
    # over the rationals, x^d + q for prime q is irreducible by Eisenstein
    q = rng.choice([2, 3, 5, 7, 11, 13])
    sign = rng.choice([1, -1])
    coeffs = [Fraction(sign * q)] + [Fraction(0)] * (degree - 1) + [Fraction(1)]
    return Poly(field, coeffs)


def random_prime_power_family(config: GeneratorConfig, graph: Graph,
                              distinct: bool = True) -> list:
    """Deterministic family of prime powers of the graph's algebra.

    Draws nonzero graded primes from the enumeration and builds non-graded
    powers on exitless quotient cycles with random irreducible polynomials.
    With distinct=True the underlying primes are pairwise different.  The
    zero ideal is never drawn: it absorbs every product, which makes a
    family degenerate.
    """
    rng = SplitMix64(config.seed).split()
    graded_pool = [p for p in enumerate_graded_primes(graph) if p.pair.vertices]
    sites = []
    everything = frozenset(graph.vertices)
    for hset in graphs._by_size(everything - m for m in maximal_tails(graph)):
        pair_sets = (hset, _breaking_literal(graph, hset))
        quotient = quotient_graph(
            graph, AdmissiblePair(pair_sets[0], pair_sets[1]))
        for cycle in cycles_without_exits(quotient.graph):
            sites.append((pair_sets, cycle))
    if not graded_pool and not sites:
        raise Unsatisfiable(
            "graph has neither nonzero graded primes nor exitless quotient cycles")

    size = 1 + rng.below(3)
    family = []
    seen = set()
    for _ in range(size * 8):
        if len(family) == size:
            break
        index = rng.below(len(graded_pool) + len(sites))
        if index < len(graded_pool):
            prime = graded_pool[index]
            exponent = 1
        else:
            (hset, sset), cycle = sites[index - len(graded_pool)]
            p = _random_irreducible(rng, config.field, config.max_poly_degree)
            prime = canonicalize(graph, hset, sset, [(cycle, p)])
            exponent = 1 + rng.below(3)
        if distinct and prime in seen:
            continue
        seen.add(prime)
        assert is_prime(prime).holds, f"generator drew a non-prime {prime!r}"
        power = ideal_power(prime, exponent)
        decomposed = prime_power_decompose(power)
        assert decomposed == (prime, exponent), "generated power fails decompose"
        family.append(power)
    if not family:
        raise Unsatisfiable("no prime power survived the distinctness filter")
    return family
