"""Finite directed graphs with edge multiplicities, as used by the ideal calculus.

A graph is a finite vertex set plus a finite set of edge slots.  A slot has a
source, a target, and a multiplicity, which is either a positive integer or
OMEGA; an OMEGA slot stands for a countably infinite bundle of parallel edges.
A vertex is a sink (no out-slots), an infinite emitter (some OMEGA out-slot),
or regular (finitely many out-edges, at least one).

The module provides the structural notions the ideal lattice of a Leavitt
path algebra is built from: hereditary saturated vertex sets and their
closure, breaking vertices, admissible pairs and quotient graphs, simple
cycles with their exit structure, conditions (L) and (K), downward directed
vertex sets, maximal tails, and the existence of a reachable minimum among
the nonempty hereditary saturated sets.

Most of these are read off the condensation of the graph.  Call a strongly
connected component *free* when it holds a cycle, is a sink, or is an
infinite emitter.  A vertex in no free component is regular and on no
cycle, so heredity and saturation put it into a hereditary saturated set H
exactly when every free component it reaches lies in H.  Hence H is fixed
by the free components it contains, which form a down-set of the
reachability order, and the lattice of hereditary saturated sets is the
lattice of those down-sets.  The graph keeps, per vertex, the set of
components it reaches as a bitmask, with the bitmask of the free ones
(`condensation`), found in one pass over the components.  It is the
graph's one record of reachability.  One pass back over its components
turns it into the mask of the vertices reaching each component, and each
reaching set is read off that mask, once per component.  The maximal
tails are certified on vertex bitmasks read off the edges.  The
principal closures, the strong cycle-to-sink property, downward
directedness and the anchors of the maximal tails follow from the
condensation without a closure or a walk of the lattice.
Only `enumerate_hereditary_saturated` walks the lattice: it adds one free
component at a time to the down-sets found so far, takes one closure per
set, and refuses the graph past LATTICE_CAP sets.

The quotient by an admissible pair is read off the graph and the same
condensation: its vertex names and edges (`quotient_view`), its cycle
exits (`quotient_cycle_exits`), and the unique irredundant cover of its
maximal tails, (L) and downward directedness (`quotient_facts`), each
kept per pair on the graph.  The cover is the set of tails of the minimal
free components, those reaching no other; every vertex of a finite graph
reaches one, so the cover always exists, and the factorization of every
proper ideal is read off it.  Only the cover's tails are built.  The
ideal calculus builds no quotient graph; `quotient_graph` builds one for
rendering and for the oracles.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import chain, compress
from operator import attrgetter, or_

from .errors import (
    EmptySet,
    InvalidGraph,
    NotAdmissible,
    NotHereditarySaturated,
    TooLarge,
    UnknownVertex,
)
from .records import Record

#: Multiplicity marker for an infinite bundle of parallel edges.
OMEGA = math.inf

#: Most hereditary saturated sets, and most admissible pairs, an enumeration
#: returns before it refuses the graph: 16 isolated sinks have 2**16 sets.
LATTICE_CAP = 2**16


class Edge(namedtuple("Edge", "id src dst mult", defaults=(1,))):
    """One edge slot: src --id--> dst with multiplicity mult (int >= 1 or OMEGA).

    A named tuple with no per-edge `__dict__`: every graph builds, hashes
    and compares its edges, and the tuple does each of these in C.
    """

    __slots__ = ()

    def is_omega(self) -> bool:
        return self.mult == OMEGA


class Graph:
    """Immutable finite directed multigraph with slot multiplicities.

    Construction is one pass over the edges in id order: it validates each
    edge, fills the adjacency and finds the infinite emitters.  The hash, the
    condensation (the graph's one record of reachability), the vertex
    bitmasks read off it and the edges (`_masks`: each component's
    ancestors and the sources of the edges into them, and the regular
    vertices), the reaching sets read off those (`_reaching`, one frozenset
    per component), the cycles without (K), the certified maximal tails, the
    breaking vertices of each hereditary set asked about (`_breaking`,
    keyed by the set), validated admissible pairs, the views of the
    quotients by them and the exits of cycles in those quotients are
    computed once, on first use, and kept for
    as long as the graph lives; none of these memos holds a graph, and no
    quotient graph is built for them.

    The graph also holds the ideals built on it (`_ideals`, one `Ideal` per
    canonical form, filled by the `Ideal` constructor) and the products and
    intersections computed from them (`_combinations`, filled by
    `ideals._combine` and keyed by the multiset of factors and the mode).
    These hold ideals, which hold the graph: the cycle is freed by the
    cyclic garbage collector.
    """

    __slots__ = ("vertices", "edges", "infinite_emitters", "_vset", "_out",
                 "_in", "_by_id", "_hash", "_reaching", "_condensation",
                 "_lone_cycles", "_tails", "_masks", "_breaking", "_pairs",
                 "_quotients", "_exits", "_ideals", "_combinations")

    def __init__(self, vertices, edges):
        vertices = list(vertices)
        for v in vertices:
            if not isinstance(v, str) or not v:
                raise InvalidGraph(f"vertex id must be a nonempty string: {v!r}")
        vs = tuple(sorted(vertices))
        if not vs:
            raise InvalidGraph("graph needs at least one vertex")
        out: dict[str, list[Edge]] = {v: [] for v in vs}
        if len(out) != len(vs):
            raise InvalidGraph("duplicate vertex ids")
        inc: dict[str, list[Edge]] = {v: [] for v in vs}
        edges = list(edges)
        try:
            es = tuple(sorted(edges, key=attrgetter("id")))
        except TypeError:  # ids of mixed types: name the first that is not a string
            bad = next(e.id for e in edges if not isinstance(e.id, str))
            raise InvalidGraph(f"edge id must be a nonempty string: {bad!r}") from None
        # one pass in id order: the first bad edge, and its first fault, is named
        by_id, emitters = {}, set()
        for e in es:
            eid = e.id
            if not isinstance(eid, str) or not eid:
                raise InvalidGraph(f"edge id must be a nonempty string: {eid!r}")
            if eid in by_id:
                raise InvalidGraph(f"duplicate edge id {eid!r}")
            by_id[eid] = e
            leaving = out.get(e.src)
            if leaving is None:
                raise UnknownVertex(f"edge {eid!r} has unknown source {e.src!r}")
            entering = inc.get(e.dst)
            if entering is None:
                raise UnknownVertex(f"edge {eid!r} has unknown target {e.dst!r}")
            mult = e.mult
            if mult == OMEGA:
                emitters.add(e.src)
            elif not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise InvalidGraph(f"edge {eid!r} has bad multiplicity {mult!r}")
            leaving.append(e)
            entering.append(e)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "infinite_emitters", frozenset(emitters))
        object.__setattr__(self, "_vset", frozenset(vs))
        object.__setattr__(self, "_out", {v: tuple(l) for v, l in out.items()})
        object.__setattr__(self, "_in", {v: tuple(l) for v, l in inc.items()})
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_reaching", {})
        object.__setattr__(self, "_condensation", None)
        object.__setattr__(self, "_lone_cycles", None)
        object.__setattr__(self, "_tails", None)
        object.__setattr__(self, "_masks", None)
        object.__setattr__(self, "_breaking", {})
        object.__setattr__(self, "_pairs", {})
        object.__setattr__(self, "_quotients", {})
        object.__setattr__(self, "_exits", {})
        object.__setattr__(self, "_ideals", {})
        object.__setattr__(self, "_combinations", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Graph)
                                 and self.vertices == other.vertices
                                 and self.edges == other.edges)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vertices, self.edges)))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edge slots)"

    # -- local structure ----------------------------------------------------

    def check_vertex(self, v: str) -> None:
        if v not in self._vset:
            raise UnknownVertex(f"unknown vertex {v!r}")

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise UnknownVertex(f"unknown edge id {edge_id!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self.check_vertex(v)
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        self.check_vertex(v)
        return self._in[v]

    def out_multiplicity(self, v: str):
        """Total number of edges leaving v; may be OMEGA."""
        return sum(e.mult for e in self.out_edges(v))

    def is_sink(self, v: str) -> bool:
        return not self.out_edges(v)

    def is_infinite_emitter(self, v: str) -> bool:
        self.check_vertex(v)
        return v in self.infinite_emitters

    def is_regular(self, v: str) -> bool:
        return bool(self.out_edges(v)) and v not in self.infinite_emitters

    def vertex_class(self, v: str) -> str:
        """"sink", "regular", or "infinite_emitter"."""
        if self.is_sink(v):
            return "sink"
        return "infinite_emitter" if v in self.infinite_emitters else "regular"

    def successors(self, v: str) -> frozenset:
        return frozenset(e.dst for e in self.out_edges(v))

    # -- reachability ---------------------------------------------------------

    def reaching_set(self, w: str) -> frozenset:
        """All vertices with a path to w, including w.

        Read off the ancestor mask of w's component (`_vertex_masks`).
        Kept per component, so one component shares one set.
        """
        self.check_vertex(w)
        _, reach, _ = condensation(self)
        i = reach[w].bit_length() - 1  # w's own component
        known = self._reaching.get(i)
        if known is None:
            masks = _vertex_masks(self)
            known = self._reaching[i] = masks.members(masks.ancestors[i])
        return known


# -- hereditary saturated sets ------------------------------------------------


def is_hereditary(graph: Graph, subset) -> bool:
    """No edge leaves the subset."""
    sub = frozenset(subset)
    return all(e.dst in sub for v in sub for e in graph.out_edges(v))


def is_saturated(graph: Graph, subset) -> bool:
    """Every regular vertex feeding only into the subset already belongs to it."""
    sub = frozenset(subset)
    out, emitters = graph._out, graph.infinite_emitters
    return not any(out[v] and v not in sub and v not in emitters
                   and all(e.dst in sub for e in out[v])
                   for v in graph.vertices)


def hereditary_saturated_closure(graph: Graph, subset) -> frozenset:
    """Smallest hereditary and saturated vertex set containing the subset.

    A worklist in O(V + E): each regular vertex counts its out-slots whose
    target is still outside the set.  A vertex entering the set pushes its
    successors (hereditary) and counts down its regular predecessors, which
    are pushed when their count reaches zero (saturated).
    """
    stack = list(subset)
    for v in stack:
        graph.check_vertex(v)
    out, inc, emitters = graph._out, graph._in, graph.infinite_emitters
    closed = set()
    open_slots = {}
    while stack:
        v = stack.pop()
        if v in closed:
            continue
        closed.add(v)
        stack.extend(e.dst for e in out[v] if e.dst not in closed)
        for e in inc[v]:
            u = e.src
            if u in closed:
                continue
            left = open_slots.get(u)
            if left is None:  # an infinite emitter's count never reaches zero
                left = OMEGA if u in emitters else len(out[u])
            open_slots[u] = left - 1
            if left == 1:
                stack.append(u)
    return frozenset(closed)


def enumerate_hereditary_saturated(graph: Graph) -> list:
    """All hereditary saturated vertex sets, sorted by size then lexicographically.

    Each set is a down-set of free components, found once from a smaller
    one: from a set S whose free components make the down-set D, a free
    component c outside D whose lower free components all lie in D gives
    the set closure(S | {min(c)}), with free components D | {c}.  A down-set
    already found is skipped before its closure is taken, so the search
    takes one closure per set after the empty one; it raises TooLarge once
    more than LATTICE_CAP sets are found.  Any set of minimal free
    components, those with no free component below them, is a down-set, so
    k of them make at least 2**k sets: past the cap, the graph is refused
    before any closure.
    """
    components, reach, free = condensation(graph)
    joins = [(1 << i, reach[v] & free, v)
             for i, v in enumerate(min(members) for members in components)
             if free >> i & 1]
    if 2 ** sum(below == bit for bit, below, _ in joins) > LATTICE_CAP:
        raise TooLarge("more hereditary saturated sets than "
                       f"the lattice cap {LATTICE_CAP}")
    found = {0: frozenset()}
    todo = [0]
    while todo:
        mask = todo.pop()
        for bit, below, v in joins:
            if below & ~mask == bit and mask | bit not in found:
                found[mask | bit] = hereditary_saturated_closure(
                    graph, found[mask] | {v})
                todo.append(mask | bit)
                if len(found) > LATTICE_CAP:
                    raise TooLarge("more hereditary saturated sets than "
                                   f"the lattice cap {LATTICE_CAP}")
    return _by_size(found.values())


_NO_VERTICES = frozenset()


def breaking_vertices(graph: Graph, hset) -> frozenset:
    """Infinite emitters outside hset that keep only finitely many edges.

    A vertex breaks over hset when it is an infinite emitter not in hset,
    every infinite bundle it emits lands inside hset, and at least one edge
    still leaves hset (necessarily finitely many in total).  A graph with
    infinite emitters keeps the answer per hset, so repeated requests share
    one frozenset; every empty answer is one shared frozenset.
    """
    if not graph.infinite_emitters:
        return _NO_VERTICES
    hset = frozenset(hset)
    known = graph._breaking.get(hset)
    if known is not None:
        return known
    out = set()
    for v in graph.infinite_emitters - hset:
        kept = [e for e in graph._out[v] if e.dst not in hset]
        if kept and all(not e.is_omega() for e in kept):
            out.add(v)
    known = graph._breaking[hset] = frozenset(out) if out else _NO_VERTICES
    return known


# -- admissible pairs and quotient graphs --------------------------------------


class AdmissiblePair(namedtuple("AdmissiblePair", "vertices breaking")):
    """Ideal coordinates: a hereditary saturated set plus chosen breaking vertices.

    `vertices` collects the vertices lying in the ideal; `breaking` the
    breaking vertices whose gap idempotents are added to the generators.
    Both are frozensets, which keep their hash, so hashing a pair is cheap.
    """

    __slots__ = ()

    def key(self):
        """Deterministic sort key."""
        return (sorted(self.vertices), sorted(self.breaking))


def admissible_pair(graph: Graph, hset, sset=()) -> AdmissiblePair:
    """Validate and build an admissible pair over the graph.

    Each pair is validated once per graph: the graph keeps the pairs that
    passed, and equal requests get the same pair object.  A rejected pair
    is not kept, so it is rejected again on every request.
    """
    key = (frozenset(hset), frozenset(sset))
    pair = graph._pairs.get(key)
    if pair is not None:
        return pair
    hset, sset = key
    for v in hset | sset:
        graph.check_vertex(v)
    if not is_hereditary(graph, hset):
        raise NotHereditarySaturated(f"{sorted(hset)} is not hereditary")
    if not is_saturated(graph, hset):
        raise NotHereditarySaturated(f"{sorted(hset)} is not saturated")
    allowed = breaking_vertices(graph, hset)
    if not sset <= allowed:
        raise NotAdmissible(
            f"{sorted(sset - allowed)} are not breaking vertices of {sorted(hset)}")
    pair = graph._pairs[key] = AdmissiblePair(hset, sset)
    return pair


def admissible_leq(p1: AdmissiblePair, p2: AdmissiblePair) -> bool:
    """Ideal containment I(p1) <= I(p2) on the graded level."""
    return p1.vertices <= p2.vertices and p1.breaking <= p2.vertices | p2.breaking


def _fresh_name(base: str, taken: set) -> str:
    """The first of base', base'', ... not in taken, which then takes it."""
    cand = base + "'"
    while cand in taken:
        cand += "'"
    taken.add(cand)
    return cand


class Quotient(namedtuple("Quotient", "graph base pair split_source")):
    """Quotient graph of a base graph by an admissible pair, with provenance.

    The quotient keeps the vertices outside the pair and, for each unchosen
    breaking vertex v, adds a fresh sink carrying the image of the gap
    idempotent of v.  Every edge whose target is such a v is doubled: the
    original copy keeps its target, the primed copy lands on the new sink.
    split_source maps each primed sink to the breaking vertex it splits off.
    """

    __slots__ = ()

    def is_primed_vertex(self, v: str) -> bool:
        return v in self.split_source


def quotient_graph(graph: Graph, pair: AdmissiblePair) -> Quotient:
    """The quotient graph itself, built edge by edge: export-dot renders it,
    and the oracles and tests check quotient_view, which answers the ideal
    calculus without building it, against it."""
    hset, sset = pair.vertices, pair.breaking
    if len(hset) == len(graph.vertices):
        raise InvalidGraph("the quotient by every vertex has no vertices")
    split = breaking_vertices(graph, hset) - sset
    kept = [v for v in graph.vertices if v not in hset]
    taken = set(kept)
    primed_vertex = {v: _fresh_name(v, taken) for v in sorted(split)}
    edges = []
    edge_ids = {e.id for e in graph.edges}
    for e in graph.edges:
        if e.dst in hset:
            continue
        # hereditary hset: e.dst outside hset forces e.src outside as well
        edges.append(e)
        if e.dst in split:
            edges.append(Edge(_fresh_name(e.id, edge_ids), e.src,
                              primed_vertex[e.dst], e.mult))
    q = Graph(kept + list(primed_vertex.values()), edges)
    split_source = {name: v for v, name in primed_vertex.items()}
    return Quotient(q, graph, pair, split_source)


class QuotientFacts(namedtuple("QuotientFacts",
                               "cover condition_l downward_directed")):
    """The tail cover of a quotient, and its verdicts on condition (L) and
    downward directedness.

    cover lists, in the order of maximal_tails, the tails of the minimal
    free components, those that reach no other free component.  Every
    vertex of a finite graph reaches a free component, hence a minimal one;
    a minimal component's tail holds no other minimal component, and every
    tail lies in the tail of a minimal component below it.  So the cover is
    the unique irredundant subcover of the maximal tails, and each exitless
    cycle, a minimal component, lies in exactly one of its tails.  The
    other maximal tails are not built.
    """

    __slots__ = ()


class QuotientView(Record):
    """The quotient E/(H, S) of quotient_graph, read off the base graph.

    vertices are the quotient's vertex names, sorted; split_source maps each
    primed sink to the breaking vertex it splits off, and copies maps each
    base edge into a split vertex to its primed copy, named as
    quotient_graph names them.  edge and out_edges answer as the quotient
    graph's methods do, so Cycle.check_in and cycle_exits take a view in
    place of a graph.  facts is filled by quotient_facts on first use.  A
    view holds the base graph's edge tables, never the graph: out, the
    out-edges by vertex, and by_id, the edges by id.  Views are equal by
    identity, one per (graph, pair).
    """

    __slots__ = ("pair", "vertices", "split_source", "copies", "out", "by_id",
                 "facts")

    def __init__(self, pair, vertices, split_source, copies, out, by_id):
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "split_source", split_source)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "by_id", by_id)
        object.__setattr__(self, "facts", None)

    def edge(self, edge_id: str) -> Edge:
        e = self.by_id.get(edge_id)
        if e is not None and e.dst not in self.pair.vertices:
            return e
        for copy in self.copies.values():
            if copy.id == edge_id:
                return copy
        raise UnknownVertex(f"unknown edge id {edge_id!r}")

    def out_edges(self, v: str) -> list:
        """Out-edges of a vertex outside H, sorted by id as the quotient sorts."""
        kept = [e for e in self.out[v] if e.dst not in self.pair.vertices]
        primed = [self.copies[e.id] for e in kept if e.id in self.copies]
        return sorted(kept + primed, key=lambda e: e.id) if primed else kept

    def image(self, pair: AdmissiblePair) -> frozenset:
        """Vertices of the quotient in the image of the graded ideal of a pair.

        The pair must lie above the view's.  Real vertices land by membership
        in its H, except split breaking vertices, which land exactly when all
        their edges leaving the view's H do; a primed sink lands when the gap
        idempotent of its source does.
        """
        hp = pair.vertices
        gaps = hp | pair.breaking
        split = set(self.split_source.values())
        out = set()
        for w in self.vertices:
            source = self.split_source.get(w)
            if source is not None:
                if source in gaps:
                    out.add(w)
            elif w in split:
                if all(e.dst in hp for e in self.out[w]
                       if e.dst not in self.pair.vertices):
                    out.add(w)
            elif w in hp:
                out.add(w)
        return frozenset(out)


def quotient_view(graph: Graph, pair: AdmissiblePair) -> QuotientView:
    """The quotient of the graph by an admissible pair, without building it.

    Kept per pair on the graph.  Raises InvalidGraph for the pair of every
    vertex, whose quotient has no vertices.
    """
    view = graph._quotients.get(pair)
    if view is None:
        hset = pair.vertices
        if len(hset) == len(graph.vertices):
            raise InvalidGraph("the quotient by every vertex has no vertices")
        split = breaking_vertices(graph, hset) - pair.breaking
        kept = [v for v in graph.vertices if v not in hset]
        taken = set(kept)
        primed = {v: _fresh_name(v, taken) for v in sorted(split)}
        edge_ids = set(graph._by_id)
        copies = {e.id: Edge(_fresh_name(e.id, edge_ids), e.src, primed[e.dst],
                             e.mult)
                  for e in sorted((e for v in split for e in graph._in[v]),
                                  key=lambda e: e.id)}
        view = graph._quotients[pair] = QuotientView(
            pair=pair, vertices=tuple(sorted(kept + list(primed.values()))),
            split_source={name: v for v, name in primed.items()},
            copies=copies, out=graph._out, by_id=graph._by_id)
    return view


def quotient_facts(graph: Graph, pair: AdmissiblePair) -> QuotientFacts:
    """The tail cover, (L) and downward directedness of the quotient by a
    pair, read off the graph's condensation, once per pair.

    Paths between vertices outside the hereditary set H never enter H, so
    the quotient's components outside the primed sinks are the graph's
    components outside H, with the same reaching sets and lone cycles.  A
    breaking vertex keeps finitely many edges, so it is regular in the
    quotient and its component stays free only with a loop.  Each primed
    sink u' is a free component of its own, reached from the sources of
    the edges into u.  So the maximal tails are the graph's tails
    reaching_set(min C) for the free components C outside H, less those of
    loopless single breaking vertices, plus one tail per primed sink u':
    u' and the reaching sets of the sources of u's in-edges.  A kept
    component is minimal when it reaches no other kept component and no
    source of an edge into a split vertex, and every primed sink is
    minimal; the tails of the minimal ones make the cover.  Minimality is
    decided on component bits, and only the cover's tails are built, each
    certified on vertex bitmasks as a maximal tail of the quotient, whose
    regular vertices are the graph's outside H and B_H.  (L) fails exactly
    on a lone cycle outside H every vertex of which emits one edge in the
    quotient, and the quotient is downward directed exactly when its cover
    is one tail, the whole vertex set.
    """
    view = quotient_view(graph, pair)
    if view.facts is None:
        object.__setattr__(view, "facts", _read_facts(graph, view))
    return view.facts


def _read_facts(graph: Graph, view: QuotientView) -> QuotientFacts:
    hset = view.pair.vertices
    breaking = view.pair.breaking.union(view.split_source.values())  # B_H
    components, reach, free = condensation(graph)
    masks = _vertex_masks(graph)
    # the quotient's regular vertices: B_H keeps finitely many edges
    regular = masks.regular | sum(masks.bit[v] for v in breaking)
    feeding = 0  # the components holding a source of an edge into a split vertex
    cover = []  # a primed sink reaches no other component, so it is minimal
    for name, u in view.split_source.items():
        mask = into = sources = 0
        for s in {e.src for e in graph._in[u]}:
            j = reach[s].bit_length() - 1  # s's own component
            feeding |= 1 << j
            mask |= masks.ancestors[j]
            into |= masks.into[j] | masks.bit[s]  # s has an edge into u'
            sources |= masks.bit[s]
        assert _is_tail_mask(graph, masks, regular, mask, into, sources), \
            f"primed tail certification failed: {name}"
        cover.append(masks.members(mask) | {name})
    kept, anchors = 0, []  # the kept free components, by index and vertex
    for i, members in enumerate(components):
        v = min(members)
        if free >> i & 1 and v not in hset and not (
                v in breaking and len(members) == 1
                and all(e.dst != v for e in graph._out[v])):
            kept |= 1 << i
            anchors.append((i, v))
    cover += (_certified_tail(graph, regular, i, v) for i, v in anchors
              if not reach[v] & (kept & ~(1 << i) | feeding))

    def emits_one(v):  # one edge in total leaves v in the quotient
        return sum(e.mult for e in view.out_edges(v)) == 1

    lone = [c for c in cycles_without_k(graph) if c.start not in hset]
    return QuotientFacts(
        cover=tuple(_by_size(cover)),
        condition_l=not any(all(map(emits_one, c.vertices)) for c in lone),
        downward_directed=len(cover) == 1)


# -- cycles and exit structure --------------------------------------------------


class Cycle(Record):
    """Simple cycle as parallel tuples: edges[i] joins vertices[i] to vertices[i+1].

    The last edge returns to vertices[0]; rotation is normalized so that
    vertices[0] is the smallest vertex id on the cycle.  Equal cycles have
    equal tuples.  The hash is kept on first use (slot _hash), and a cycle
    is not a tuple: its length is its number of edges.
    """

    __slots__ = ("vertices", "edges", "_hash")

    def __init__(self, vertices: tuple, edges: tuple):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other) -> bool:
        if type(other) is not Cycle:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        known = getattr(self, "_hash", None)
        if known is None:
            known = hash((self.vertices, self.edges))
            object.__setattr__(self, "_hash", known)
        return known

    @property
    def start(self) -> str:
        return self.vertices[0]

    def __len__(self) -> int:
        return len(self.edges)

    @staticmethod
    def build(vertices, edge_ids) -> "Cycle":
        vs, es = tuple(vertices), tuple(edge_ids)
        if len(vs) != len(es) or not vs or len(set(vs)) != len(vs):
            raise ValueError("cycle needs equally many distinct vertices and edges")
        k = vs.index(min(vs))
        return Cycle(vs[k:] + vs[:k], es[k:] + es[:k])

    def check_in(self, graph: Graph) -> None:
        """Validate that this is an actual cycle of the graph."""
        n = len(self.vertices)
        for i, eid in enumerate(self.edges):
            e = graph.edge(eid)
            if e.src != self.vertices[i] or e.dst != self.vertices[(i + 1) % n]:
                raise InvalidGraph(
                    f"edge {eid!r} does not join {self.vertices[i]!r} to "
                    f"{self.vertices[(i + 1) % n]!r}")

    def to_json(self) -> list:
        out = []
        for v, e in zip(self.vertices, self.edges):
            out.extend((v, e))
        return out

    @staticmethod
    def from_json(items) -> "Cycle":
        if not isinstance(items, list) or not items or len(items) % 2 \
                or not all(isinstance(x, str) for x in items):
            raise ValueError("cycle list must alternate vertex, edge ids")
        return Cycle.build(tuple(items[0::2]), tuple(items[1::2]))


def cycles(graph: Graph) -> list:
    """All simple cycles, anchored and sorted at their smallest vertex.

    Parallel slots yield distinct cycles; a slot of multiplicity above one
    still appears once (its parallel copies are indistinguishable by id).
    """
    found = []
    index = {v: i for i, v in enumerate(graph.vertices)}

    def walk(base, v, path_vs, path_es, seen):
        for e in graph.out_edges(v):
            if e.dst == base:
                found.append(Cycle(tuple(path_vs), tuple(path_es) + (e.id,)))
            elif e.dst not in seen and index[e.dst] > index[base]:
                seen.add(e.dst)
                path_vs.append(e.dst)
                path_es.append(e.id)
                walk(base, e.dst, path_vs, path_es, seen)
                path_vs.pop()
                path_es.pop()
                seen.discard(e.dst)

    for base in graph.vertices:
        walk(base, base, [base], [], {base})
    found.sort(key=lambda c: (c.vertices, c.edges))
    return found


def cycle_exits(graph: Graph, cycle: Cycle) -> list:
    """Exits of a cycle: slots leaving a cycle vertex other than the cycle edge.

    A slot of multiplicity above one on the cycle is itself an exit (its
    parallel copies leave the cycle path).  Returned as (edge, is_parallel).
    """
    cyc_edges = set(cycle.edges)
    out = []
    for v in cycle.vertices:
        for e in graph.out_edges(v):
            if e.id not in cyc_edges:
                out.append((e, False))
            elif e.mult != 1:
                out.append((e, True))
    return out


def quotient_cycle_exits(graph: Graph, pair: AdmissiblePair, cycle: Cycle) -> tuple:
    """Exits of a cycle in the quotient of the graph by an admissible pair.

    Each exit is (edge, is_parallel, source): edge and is_parallel as in
    cycle_exits on quotient_graph(graph, pair).graph, and source the
    breaking vertex split off when the edge lands on a primed sink, else
    None.  Read off quotient_view(graph, pair), with no quotient built, once
    per (pair, cycle), and kept on the graph.  The cycle must be a cycle of
    the quotient; otherwise Cycle.check_in raises, and nothing is kept.
    """
    key = (pair, cycle)
    exits = graph._exits.get(key)
    if exits is None:
        view = quotient_view(graph, pair)
        cycle.check_in(view)
        exits = graph._exits[key] = tuple(
            (edge, parallel, view.split_source.get(edge.dst))
            for edge, parallel in cycle_exits(view, cycle))
    return exits


def cycles_without_exits(graph: Graph) -> list:
    """Cycles every vertex of which emits exactly one edge in total."""
    return [c for c in cycles_without_k(graph)
            if all(graph.out_multiplicity(v) == 1 for v in c.vertices)]


def condition_l(graph: Graph):
    """(True, None) if every cycle has an exit, else (False, witness cycle)."""
    bad = cycles_without_exits(graph)
    return (False, bad[0]) if bad else (True, None)


def _tarjan(graph: Graph) -> list:
    """Tarjan SCCs, as frozensets in the order they are completed, so each
    component comes after every component it reaches.  Each frame keeps its
    vertex's position on the stack, where a finished component is sliced
    off; low[v] is kept only while v is on the stack, so `w in low` tests it."""
    out = graph._out
    index, low, stack, comps = {}, {}, [], []
    for root in graph.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        work = [(root, iter(out[root]), 0)]
        stack.append(root)
        while work:
            v, pending, at = work[-1]
            for e in pending:
                w = e.dst
                if w not in index:
                    index[w] = low[w] = len(index)
                    work.append((w, iter(out[w]), len(stack)))
                    stack.append(w)
                    break
                if w in low and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if lv == index[v]:
                    members = stack[at:]
                    del stack[at:]
                    for w in members:
                        del low[w]
                    comps.append(frozenset(members))
                elif lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
    return comps


def _is_free(graph: Graph, members) -> bool:
    """A component is free when it holds a cycle, is a sink or an infinite emitter."""
    if len(members) > 1:
        return True
    (v,) = members
    return (not graph._out[v] or v in graph.infinite_emitters
            or any(e.dst == v for e in graph._out[v]))


def condensation(graph: Graph) -> tuple:
    """(components, reach, free), found once per graph.

    components lists the strongly connected components in the order _tarjan
    completes them; reach maps each vertex to the bitmask of the components
    it reaches, its own included, bit i standing for components[i]; free is
    the bitmask of the free components.  One pass in that order finds every
    mask, since each component comes after all those it reaches; for the
    same reason a vertex's own component is the highest bit of its mask.
    Every vertex of a finite graph reaches a sink or a cycle, so reach[v] &
    free is never 0.
    """
    if graph._condensation is None:
        out = graph._out
        components, reach, free = [], {}, 0
        for members in _tarjan(graph):
            bit = 1 << len(components)
            mask = bit
            for v in members:
                for e in out[v]:
                    if e.dst not in members:
                        mask |= reach[e.dst]
            if _is_free(graph, members):
                free |= bit
            components.append(members)
            for v in members:
                reach[v] = mask
        object.__setattr__(graph, "_condensation",
                           (tuple(components), reach, free))
    return graph._condensation


def _free_reach(graph: Graph) -> dict:
    """vertex -> bitmask of the free components it reaches."""
    _, reach, free = condensation(graph)
    return {v: r & free for v, r in reach.items()}


def principal_closures(graph: Graph) -> dict:
    """vertex v -> closure({v}), one frozenset per distinct closure.

    closure({v}) is the down-set of the free components v reaches, so it
    holds exactly the vertices that reach no free component v does not.
    """
    below = _free_reach(graph)
    closure = {m: frozenset(w for w, r in below.items() if not r & ~m)
               for m in set(below.values())}
    return {v: closure[below[v]] for v in graph.vertices}


def cycles_without_k(graph: Graph) -> tuple:
    """Cycles whose vertices lie on no other return path, sorted by start.

    A cycle is such exactly when its vertex set is a whole strongly connected
    component each vertex of which keeps exactly one slot inside it, of
    multiplicity one; the cycle is traced from the component's least vertex.
    Found once per graph.
    """
    if graph._lone_cycles is None:
        components, _, _ = condensation(graph)
        out = []
        for start, members in sorted((min(m), m) for m in components):
            step = {}
            for v in members:
                inside = [e for e in graph._out[v] if e.dst in members]
                if len(inside) != 1 or inside[0].mult != 1:
                    break
                step[v] = inside[0]
            else:
                vs = [start]
                while step[vs[-1]].dst != start:
                    vs.append(step[vs[-1]].dst)
                out.append(Cycle(tuple(vs), tuple(step[v].id for v in vs)))
        object.__setattr__(graph, "_lone_cycles", tuple(out))
    return graph._lone_cycles


def condition_k(graph: Graph):
    """(True, None) if every cycle vertex has two return paths, else a witness."""
    bad = cycles_without_k(graph)
    return (False, bad[0]) if bad else (True, None)


# -- downward directedness, maximal tails, minimum hereditary saturated core ----


def downward_directed(graph: Graph, subset=None):
    """Whether each vertex pair in the subset reaches a common subset vertex.

    Returns (True, None) or (False, (u, v)) with the first pair, in vertex
    order, lacking a common lower bound.  The subset defaults to all
    vertices and must be nonempty.  Two vertices reach a common subset
    vertex exactly when they reach a common component that meets the
    subset, so the condensation decides it: the subset is downward directed
    exactly when all its vertices reach one such component, and only
    otherwise are the pairs scanned for the witness.
    """
    vs = sorted(subset) if subset is not None else graph.vertices
    if not vs:
        raise EmptySet("downward directedness of the empty vertex set")
    if subset is not None and not graph._vset.issuperset(vs):
        graph.check_vertex(min(set(vs) - graph._vset))
    _, reach, _ = condensation(graph)
    common, meets = -1, 0
    for v in vs:
        common &= reach[v]
        meets |= 1 << (reach[v].bit_length() - 1)  # v's own component
    if common & meets:
        return True, None
    return False, next((u, v) for i, u in enumerate(vs) for v in vs[i + 1:]
                       if not reach[u] & reach[v] & meets)


def maximal_tails(graph: Graph) -> tuple:
    """All maximal tails, each a frozenset, sorted by size then lexicographically.

    A maximal tail is a nonempty vertex set that is closed under predecessors
    (MT1), gives every regular member an edge back into the set (MT2), and
    is downward directed (MT3).  In a finite graph each one is the reaching
    set of a sink, an infinite emitter, or a cycle vertex, that is of a
    vertex in a free component; all vertices of one component share their
    reaching set, so each free component gives one tail.  The tails are
    found and certified once per graph: each passes MT1-MT3 on the vertex
    bitmasks of `_vertex_masks`, its own and that of the vertices with an
    edge into it.
    """
    if graph._tails is None:
        components, _, free = condensation(graph)
        regular = _vertex_masks(graph).regular
        tails = [_certified_tail(graph, regular, i, min(members))
                 for i, members in enumerate(components) if free >> i & 1]
        object.__setattr__(graph, "_tails", tuple(_by_size(tails)))
    return graph._tails


def _by_size(sets) -> list:
    """The sets sorted by size, then by their sorted members, the order
    key=lambda s: (len(s), sorted(s)) gives; members are sorted only to
    break a tie in size."""
    out = sorted(sets, key=len)
    start = 0
    for end in range(1, len(out) + 1):
        if end == len(out) or len(out[end]) != len(out[start]):
            if end - start > 1:
                out[start:end] = sorted(out[start:end], key=sorted)
            start = end
    return out


#: Turns the digits of a bin() string into the bytes 0 and 1.
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class _VertexMasks(Record):
    """A graph's vertices as bits, read off its condensation and its edges.

    order lists the vertices by bit, the components in the order the
    condensation completes them, and reach the condensation's reach mask
    of each vertex, by bit.  Per component, ancestors holds the mask of the
    vertices with a path into it, and into the mask of the vertices with an
    edge into one of those.  regular is the mask of the regular vertices.
    Masks are equal by identity, one per graph.
    """

    __slots__ = ("order", "reach", "bit", "ancestors", "into", "regular")

    def __init__(self, order, reach, bit, ancestors, into, regular):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "reach", reach)
        object.__setattr__(self, "bit", bit)
        object.__setattr__(self, "ancestors", ancestors)
        object.__setattr__(self, "into", into)
        object.__setattr__(self, "regular", regular)

    def members(self, mask: int) -> frozenset:
        return frozenset(_picked(self.order, mask))


def _picked(items, mask: int):
    """The entries of a per-bit sequence at the bits of a mask, picked by
    the binary digits of the mask."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS))


def _vertex_masks(graph: Graph) -> _VertexMasks:
    """The graph's vertex bitmasks, built once per graph on first use.

    A component completes after every component it reaches, so taking the
    components from the last completed back, the ancestors of each one are
    its own vertices and the ancestors of the components with an edge into
    it, all found before it.  Along the same pass over the in-edges, the
    vertices with an edge into those ancestors are the sources of the
    edges into the component and the same vertices for those components.
    """
    if graph._masks is None:
        components, reach, _ = condensation(graph)
        order = tuple(chain.from_iterable(components))
        bit = {v: 1 << i for i, v in enumerate(order)}
        ancestors = [0] * len(components)
        into = [0] * len(components)
        for i in range(len(components) - 1, -1, -1):
            mask = edged = 0
            for v in components[i]:
                mask |= bit[v]
                for e in graph._in[v]:
                    edged |= bit[e.src]
                    j = reach[e.src].bit_length() - 1
                    if j != i:
                        mask |= ancestors[j]
                        edged |= into[j]
            ancestors[i], into[i] = mask, edged
        regular = reduce(or_, (bit[v] for v in order if graph._out[v]
                               and v not in graph.infinite_emitters), 0)
        object.__setattr__(graph, "_masks", _VertexMasks(
            order, tuple(reach[v] for v in order), bit, ancestors, into,
            regular))
    return graph._masks


def _certified_tail(graph: Graph, regular: int, i: int, v: str) -> frozenset:
    """The reaching set of v, a vertex of component i, certified as a
    maximal tail on the masks of the component; regular is the mask of the
    regular vertices of the graph, or of the quotient the tail is one of."""
    masks = _vertex_masks(graph)
    tail = graph.reaching_set(v)
    assert _is_tail_mask(graph, masks, regular, masks.ancestors[i],
                         masks.into[i]), \
        f"tail certification failed: {sorted(tail)}"
    return tail


def _is_tail_mask(graph: Graph, masks: _VertexMasks, regular: int, mask: int,
                  into: int, sources: int = None) -> bool:
    """Whether a vertex set is a maximal tail of the graph or of a quotient,
    given its vertex mask, into, the mask of the vertices with an edge into
    it, and regular, the mask of the regular vertices there.  A primed tail
    also holds a primed sink u', which has no bit, and sources is the mask
    of the sources of the edges into u', which into holds too.

    MT1: the vertices of into lie inside.  MT2: they hold every regular
    member, each of which then keeps a successor inside.  MT3, given MT1:
    the set holds the reaching set of each member, so it is downward
    directed exactly when every member reaches one member: in a primed tail
    u', reached through the component of a source, and otherwise, if any
    member will do, the one of the lowest bit, whose component completes
    first.  MT3 reads each member's forward reach off the condensation, not
    the ancestor masks the set may have been built from.
    """
    if sources is None:
        if not mask:
            return False
        sources = mask & -mask  # the lowest member
    if into & ~mask or regular & mask & ~into:
        return False
    anchors = 0  # the components every member must reach one of
    for reach in _picked(masks.reach, sources):
        anchors |= 1 << (reach.bit_length() - 1)  # a source's own component
    return all(map(anchors.__and__, _picked(masks.reach, mask)))


class StrongCsp(namedtuple("StrongCsp", "holds witness")):
    """Result of the reachable-minimum test on hereditary saturated sets.

    witness is the intersection of all nonempty hereditary saturated sets;
    holds is True when that intersection is nonempty, and every vertex then
    reaches it.
    """

    __slots__ = ()


def strong_csp(graph: Graph) -> StrongCsp:
    """Whether a least nonempty hereditary saturated set exists and all reach it.

    The nonempty hereditary saturated sets are the nonempty down-sets of
    free components, and the least of these are the sets {m} of one
    minimal free component m, one that reaches no other.  So the
    intersection of all of them is nonempty exactly when one free
    component is minimal, and it is then the set of vertices that reach no
    other free component.  Every vertex of a finite graph reaches a
    minimal free component, so every vertex reaches that core.  No closure
    is taken.
    """
    below = _free_reach(graph)
    minimal = {m for m in below.values() if not m & (m - 1)}
    if len(minimal) != 1:
        return StrongCsp(False, frozenset())
    (bit,) = minimal
    return StrongCsp(True, frozenset(v for v, m in below.items() if m == bit))


# -- serialization ---------------------------------------------------------------


def graph_to_json(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": e.id, "src": e.src, "dst": e.dst,
             "mult": "inf" if e.is_omega() else e.mult}
            for e in graph.edges
        ],
    }


_EDGE_FIELDS = frozenset(("id", "src", "dst", "mult"))


def graph_from_json(data) -> Graph:
    """Check the JSON shape only; `Graph` validates the edges in one pass."""
    if not isinstance(data, dict):
        raise InvalidGraph("graph JSON must be an object")
    try:
        vertices = data["vertices"]
        raw_edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise InvalidGraph(f"graph JSON missing field: {exc}") from exc
    if not isinstance(vertices, list) or not isinstance(raw_edges, list):
        raise InvalidGraph("graph JSON fields have wrong types")
    edges = []
    for raw in raw_edges:
        if not isinstance(raw, dict):
            raise InvalidGraph(f"edge entry must be an object: {raw!r}")
        if not _EDGE_FIELDS.issuperset(raw):
            raise InvalidGraph(f"unknown edge fields {sorted(set(raw) - _EDGE_FIELDS)}")
        try:
            eid, src, dst = raw["id"], raw["src"], raw["dst"]
        except KeyError as exc:
            raise InvalidGraph(f"edge entry missing field {exc}") from exc
        if not (isinstance(eid, str) and isinstance(src, str) and isinstance(dst, str)):
            raise InvalidGraph(f"edge id, src and dst must be strings: {raw!r}")
        # JSON reads 1e400 and Infinity as a float inf, which equals OMEGA
        mult = raw.get("mult", 1)
        if mult == "inf":
            mult = OMEGA
        elif type(mult) is not int or mult < 1:
            raise InvalidGraph(f"edge {eid!r} has bad multiplicity {mult!r}")
        edges.append(Edge(eid, src, dst, mult))
    return Graph(vertices, edges)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: Graph, name: str = "E", highlight=()) -> str:
    """Deterministic DOT rendering; highlighted vertices are drawn filled."""
    hi = frozenset(highlight)
    lines = [f"digraph {_dot_quote(name)} {{"]
    for v in graph.vertices:
        attrs = [f"label={_dot_quote(v)}"]
        if v in hi:
            attrs.append("style=filled")
        lines.append(f"  {_dot_quote(v)} [{', '.join(attrs)}];")
    for e in graph.edges:
        label = e.id if e.mult == 1 else (
            f"{e.id} (ω)" if e.is_omega() else f"{e.id} (x{e.mult})")
        lines.append(f"  {_dot_quote(e.src)} -> {_dot_quote(e.dst)} "
                     f"[label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
