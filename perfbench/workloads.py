"""The three benchmark workloads: inputs from a seed, the objects queries take,
the queries themselves, and answer checks that re-derive every answer.

Each workload exposes the same six functions:

* ``generate(seed, minimal, workdir)`` -> JSON-able inputs, drawn from the seed;
* ``build(inputs)`` -> the library objects the queries take (timed as set-up);
* ``queries(objects, inputs)`` -> list of (label, zero-argument callable);
* ``error(result)`` -> a failure message for a result that reports one, or None;
* ``encode(result)`` -> the query's output as bytes, compared across runs;
* ``check(inputs, objects, results)`` -> {query index: failure message}.

Queries call the library through module attributes at call time, so the
span wrappers of a traced run see them.  Checks never reuse a timed result
as its own proof: they recompute from brute-force oracles, literal
definitions written here, or the known construction of the input.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import os
import pathlib

from lpaideals import cli, gallery, graphs, ideals, oracles
from lpaideals.errors import TooLarge, Unsatisfiable
from lpaideals.poly import FieldSpec, Poly
from lpaideals.rng import SplitMix64

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent


class Mismatch(Exception):
    """An answer that disagrees with its check."""


def _expect(condition, message):
    if not condition:
        raise Mismatch(message)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# == lattice: graph structure through the command line ==========================

COMMANDS = ("analyze", "hsets", "tails", "primes", "algebra-check")
# Sizes 8, 9 and 16 are drawn twice, so that the two percentiles fall
# inside groups of queries of like cost rather than at their edges: p50
# among the millisecond-scale queries on at most 9 vertices, p90 among the
# thirty queries on 16 vertices that, with K8's, are the slowest sixth.
SPARSE_SIZES = (8, 8, 9, 9, 10, 11, 12, 13, 14, 16, 16)
COMPLETE_SIZES = (5, 6, 7, 8)
DENSE_RINGS = ((7, 21), (8, 20))  # (vertices, chords)
# the library's brute-force tail oracle takes seconds beyond this size
ORACLE_TAILS_MAX = 12
DIGESTS = json.loads((HERE / "digests.json").read_text())


def _vertex(i):
    return f"v{i}"


def _edge(eid, src, dst, mult=1):
    return {"id": eid, "src": _vertex(src), "dst": _vertex(dst), "mult": mult}


def _graph(n, edges):
    return {"vertices": [_vertex(i) for i in range(n)], "edges": edges}


def chain_with_loops(rng, n):
    """v(n-1) -> ... -> v0 with loops on n//4 random vertices, the first one doubled."""
    edges = [_edge(f"c{i}", i, i - 1) for i in range(1, n)]
    looped = rng.shuffled(range(n))[:n // 4]
    for i in looped:
        edges.append(_edge(f"l{i}", i, i))
    edges.append(_edge(f"m{looped[0]}", looped[0], looped[0]))
    return _graph(n, edges)


def ring_with_chords(rng, n, chords):
    """Directed n-cycle plus random chords (loops and parallel slots allowed)."""
    edges = [_edge(f"r{i}", i, (i + 1) % n) for i in range(n)]
    for k in range(chords):
        edges.append(_edge(f"x{k}", rng.below(n), rng.below(n)))
    return _graph(n, edges)


def layered_dag(rng, n):
    """Layers of 2, 3, 4, 2, ... vertices; each vertex feeds part of the layer
    below, with 20% of its slots as ω bundles; the bottom layer is sinks."""
    layers, start = [], 0
    while start < n:
        width = min(n - start, 2 + len(layers) % 3)
        layers.append(range(start, start + width))
        start += width
    edges = []
    for upper, lower in zip(layers[1:], layers):
        for v in upper:
            targets = [u for u in lower if rng.chance(0.5)] or [rng.choice(lower)]
            for u in targets:
                mult = "inf" if rng.chance(0.2) else 1
                edges.append(_edge(f"e{len(edges)}", v, u, mult))
    return _graph(n, edges)


def complete_graph(n):
    return _graph(n, [_edge(f"k{i}_{j}", i, j)
                      for i in range(n) for j in range(n) if i != j])


class Lattice:
    """Every graph gets the five structural commands, run through cli.run."""

    @staticmethod
    def generate(seed, minimal, workdir):
        rng = SplitMix64(seed)
        drawn = []
        for k, n in enumerate(SPARSE_SIZES[:1] if minimal else SPARSE_SIZES):
            tag = n if SPARSE_SIZES.index(n) == k else f"{n}b"
            drawn.append((f"chain{tag}", chain_with_loops(rng, n)))
            drawn.append((f"ring{tag}", ring_with_chords(rng, n, 2)))
            drawn.append((f"dag{tag}", layered_dag(rng, n)))
        if not minimal:
            for n in COMPLETE_SIZES:
                drawn.append((f"K{n}", complete_graph(n)))
            for n, chords in DENSE_RINGS:
                drawn.append((f"dense_ring{n}", ring_with_chords(rng, n, chords)))
        inputs = []
        for name, data in drawn:
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            inputs.append({"name": name, "path": path})
        for name in list(DIGESTS)[:1] if minimal else DIGESTS:
            inputs.append({"name": name,
                           "path": str(CHECKOUT / "tests" / "data" / name)})
        return inputs

    @staticmethod
    def build(inputs):
        out = []
        for item in inputs:
            with open(item["path"], encoding="utf-8") as fh:
                out.append(graphs.graph_from_json(json.load(fh)))
        return out

    @staticmethod
    def queries(objects, inputs):
        def call(command, path):
            def query():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run([command, "--graph", path])
                return code, out.getvalue(), err.getvalue()
            return query

        return [(f"{item['name']}:{command}", call(command, item["path"]))
                for item in inputs for command in COMMANDS]

    @staticmethod
    def error(result):
        code, _, err = result
        return None if code == 0 else f"exit {code}: {err.strip()[-300:]}"

    @staticmethod
    def encode(result):
        code, out, _ = result
        return f"{code}\n{out}".encode()

    @staticmethod
    def check(inputs, objects, results):
        failures = {}
        for g, (item, graph) in enumerate(zip(inputs, objects)):
            first = g * len(COMMANDS)
            rows = results[first:first + len(COMMANDS)]
            if any(r is None or r[0] != 0 for r in rows):
                continue  # already counted as failed
            outputs = {c: json.loads(r[1]) for c, r in zip(COMMANDS, rows)}
            facts = _Facts(graph)
            for k, command in enumerate(COMMANDS):
                try:
                    _check_lattice(item, facts, command, outputs, rows[k][1])
                except Mismatch as exc:
                    failures[first + k] = f"{item['name']} {command}: {exc}"
        return failures


class _Literal:
    """Reachability, vertex classes and maximal tails read straight off the edge list."""

    def __init__(self, graph):
        self.vertices = sorted(graph.vertices)
        self.out = {v: [] for v in self.vertices}
        for e in graph.edges:
            self.out[e.src].append(e)
        self.desc = {v: self._reach(v) for v in self.vertices}

    def _reach(self, v):
        seen, stack = {v}, [v]
        while stack:
            for e in self.out[stack.pop()]:
                if e.dst not in seen:
                    seen.add(e.dst)
                    stack.append(e.dst)
        return frozenset(seen)

    def kind(self, v):
        if not self.out[v]:
            return "sink"
        return "infinite_emitter" if any(e.is_omega() for e in self.out[v]) else "regular"

    def reaching(self, w):
        return frozenset(v for v in self.vertices if w in self.desc[v])

    def directed(self, subset):
        s = frozenset(subset)
        return all(self.desc[u] & self.desc[v] & s for u in s for v in s)

    def single_out(self, v):
        return len(self.out[v]) == 1 and self.out[v][0].mult == 1

    def has_exitless_cycle(self):
        for v in self.vertices:
            w, seen = v, set()
            while self.single_out(w) and w not in seen:
                seen.add(w)
                w = self.out[w][0].dst
                if w == v:
                    return True
        return False

    def is_cycle(self, items, exitless):
        vs, es = items[0::2], items[1::2]
        for i, (v, eid) in enumerate(zip(vs, es)):
            e = next((e for e in self.out[v] if e.id == eid), None)
            if e is None or e.dst != vs[(i + 1) % len(vs)]:
                return False
            if exitless and not self.single_out(v):
                return False
        return len(set(vs)) == len(vs) > 0

    def tails(self):
        """Maximal tails by a literal scan of every vertex subset, as bitmasks."""
        n = len(self.vertices)
        bit = {v: 1 << i for i, v in enumerate(self.vertices)}

        def mask(vertices):
            return sum(bit[v] for v in set(vertices))

        desc = [mask(self.desc[v]) for v in self.vertices]
        preds = [mask(self.reaching(v)) for v in self.vertices]
        succ = [mask(e.dst for e in self.out[v]) for v in self.vertices]
        regular = [self.kind(v) == "regular" for v in self.vertices]
        found = []
        for m in range(1, 1 << n):
            members = [i for i in range(n) if m >> i & 1]
            if any(preds[i] & ~m for i in members):
                continue  # MT1: closed under predecessors
            if any(regular[i] and not succ[i] & m for i in members):
                continue  # MT2: regular members keep a successor inside
            if all(desc[i] & desc[j] & m for i in members for j in members):
                found.append(frozenset(self.vertices[i] for i in members))  # MT3
        return found


def _by_size(sets):
    return [sorted(s) for s in sorted(sets, key=lambda s: (len(s), sorted(s)))]


class _Facts:
    """What the checks compare against, derived once per graph."""

    def __init__(self, graph):
        self.graph = graph
        self.lit = lit = _Literal(graph)
        self.everything = frozenset(lit.vertices)
        self.pairs = oracles.enumerate_admissible_pairs(graph)
        self.breaking_of = {}
        for p in self.pairs:  # B_H is the largest S paired with H
            if len(p.breaking) >= len(self.breaking_of.get(p.vertices, ())):
                self.breaking_of[p.vertices] = p.breaking
        self.core = self.everything
        for hset in self.breaking_of:
            if hset:
                self.core &= hset
        self.csp = bool(self.core) and all(lit.desc[v] & self.core
                                           for v in lit.vertices)


def _leq(a, b):
    return a.vertices <= b.vertices and a.breaking <= b.vertices | b.breaking


def _check_lattice(item, facts, command, outputs, stdout):
    lit, everything, breaking = facts.lit, facts.everything, facts.breaking_of
    analyze = outputs["analyze"]
    if item["name"] in DIGESTS:
        _expect(_digest(stdout) == DIGESTS[item["name"]][command],
                "stdout differs from the digest recorded at the seed commit")

    if command == "analyze":
        _expect(analyze["vertices"] == lit.vertices, "vertex list")
        _expect(analyze["edge_count"] == len(facts.graph.edges), "edge count")
        _expect(analyze["vertex_classes"] == {v: lit.kind(v) for v in lit.vertices},
                "vertex classes")
        if len(lit.vertices) <= ORACLE_TAILS_MAX:
            tails = oracles.maximal_tails_bruteforce(facts.graph)
        else:
            tails = lit.tails()
        _expect(analyze["maximal_tails"] == _by_size(tails), "tails disagree with brute force")
        _expect(analyze["downward_directed"]["holds"] == lit.directed(everything),
                "downward directedness")
        l_out, k_out = analyze["condition_L"], analyze["condition_K"]
        _expect(l_out["holds"] == (not lit.has_exitless_cycle()), "condition (L)")
        if not l_out["holds"]:
            _expect(lit.is_cycle(l_out["witness"], exitless=True), "bad (L) witness")
        if not k_out["holds"]:
            _expect(lit.is_cycle(k_out["witness"], exitless=False), "bad (K) witness")
        _expect(analyze["strong_csp"]["core"] == sorted(facts.core), "strong CSP core")
        _expect(analyze["strong_csp"]["holds"] == facts.csp, "strong CSP verdict")
    elif command == "hsets":
        got = [(row["H"], row["breaking"]) for row in outputs["hsets"]["sets"]]
        want = [(sorted(h), sorted(breaking[h]))
                for h in sorted(breaking, key=lambda s: (len(s), sorted(s)))]
        _expect(got == want, "hereditary saturated sets disagree with the oracle")
    elif command == "tails":
        _expect(outputs["tails"]["maximal_tails"] == analyze["maximal_tails"],
                "tails differ from the analyze report")
    elif command == "primes":
        want = []
        for hset, full in breaking.items():
            if hset == everything:
                continue
            rest = everything - hset
            if lit.directed(rest):
                want.append((sorted(hset), sorted(full), 1))
            for u in sorted(full):
                if rest == lit.reaching(u):
                    want.append((sorted(hset), sorted(full - {u}), 2))
        rows = outputs["primes"]["primes"]
        _expect(all(not r["ideal"]["parts"] for r in rows), "a graded prime has parts")
        got = [(r["ideal"]["H"], r["ideal"]["S"], r["case"]) for r in rows]
        _expect(sorted(got) == sorted(want), "graded primes disagree with the definition")
    else:
        verdicts = {r["predicate"]: r["verdict"]
                    for r in outputs["algebra-check"]["predicates"]}
        graded = verdicts["all_ideals_graded"]
        chain = verdicts["every_proper_ideal_completely_irreducible"]
        match = verdicts["irreducible_equals_completely_irreducible"]
        _expect(graded == analyze["condition_K"]["holds"], "graded verdict against (K)")
        _expect(verdicts["every_proper_ideal_product_of_comp_irred"] == graded,
                "product verdict against (K)")
        _expect((not chain or match) and (not match or graded), "implication chain")
        zero = not lit.has_exitless_cycle() and lit.directed(everything) and facts.csp
        _expect(verdicts["zero_completely_irreducible"] == zero, "zero ideal verdict")
        if chain:
            proper = [p for p in facts.pairs if p.vertices != everything]
            _expect(all(_leq(a, b) or _leq(b, a) for a in proper for b in proper),
                    "admissible pairs are not a chain")


# == ideals: products and factorization of prime-power families ===================

FAMILY_FIELDS = ("GF(2)", "GF(3)", "GF(5)")
# A family's cost grows steeply with the total degree of its polynomials, so
# each field gets a fixed number of families per degree band; the shares
# follow the generator's own mix (about 42/18/20/12/5/1.5%).
DEGREE_BANDS = (0, 1, 4, 8, 12, 16)  # lower edge of each band
BAND_QUOTAS = (112, 50, 54, 32, 16, 6)
MINIMAL_QUOTAS = (1, 1, 1, 0, 0, 0)


def _band(family_json):
    degree = sum(len(p["poly"]) - 1 for m in family_json for p in m["parts"])
    return max(i for i, edge in enumerate(DEGREE_BANDS) if degree >= edge)


class Ideals:
    """One query multiplies, intersects, trims and factors one family."""

    @staticmethod
    def generate(seed, minimal, workdir):
        rng = SplitMix64(seed)
        quotas = MINIMAL_QUOTAS if minimal else BAND_QUOTAS
        room = {(f, b): q for f in FAMILY_FIELDS for b, q in enumerate(quotas)}
        inputs = []
        draw = 0
        while any(room.values()):
            field = FAMILY_FIELDS[draw % len(FAMILY_FIELDS)]
            draw += 1
            if not any(room[field, b] for b in range(len(quotas))):
                continue
            # top bit set: disjoint from the small seeds of the acceptance gate
            cfg = oracles.GeneratorConfig(
                seed=rng.next_u64() | 1 << 63, max_vertices=6,
                field=FieldSpec.parse(field), max_poly_degree=3)
            graph = oracles.random_graph(cfg)
            try:
                family = oracles.random_prime_power_family(cfg, graph)
            except (Unsatisfiable, TooLarge):
                continue  # the draw has no family; generation, not a query outcome
            members = [ideals.ideal_to_json(m) for m in family]
            band = _band(members)
            if room[field, band]:
                room[field, band] -= 1
                inputs.append({"graph": graphs.graph_to_json(graph), "members": members})
        return inputs

    @staticmethod
    def build(inputs):
        out = []
        for item in inputs:
            graph = graphs.graph_from_json(item["graph"])
            out.append([ideals.ideal_from_json(graph, m) for m in item["members"]])
        return out

    @staticmethod
    def queries(objects, inputs):
        def call(members):
            def query():
                product = ideals.multiply(members)
                meet = ideals.intersect(members)
                kept = ideals.make_irredundant(members, "product")
                report = ideals.factor_prime_powers(product)
                comp = ideals.factor_completely_irreducible(product)
                return members, product, meet, kept, report, comp
            return query

        return [(f"family{i}", call(members)) for i, members in enumerate(objects)]

    @staticmethod
    def error(result):
        return None

    @staticmethod
    def encode(result):
        members, product, meet, kept, report, comp = result
        return json.dumps({
            "product": ideals.ideal_to_json(product),
            "intersection": ideals.ideal_to_json(meet),
            "irredundant": [i for i, m in enumerate(members)
                            if any(m is k for k in kept)],
            "prime_powers": report and report.to_json(),
            "comp_irred": comp and comp.to_json(),
        }, sort_keys=True).encode()

    @staticmethod
    def check(inputs, objects, results):
        failures = {}
        for i, result in enumerate(results):
            if result is None:
                continue
            members, product, meet, kept, report, comp = result
            try:
                _expect(product == meet, "product differs from intersection")
                _expect(all(ideals.contains(m, product) for m in members),
                        "a member does not contain the product")
                _expect(report is not None, "product has no prime-power factorization")
                powers = [ideals.ideal_power(p, r) for p, r in report.factors]
                _expect(collections.Counter(powers) == collections.Counter(kept),
                        "factors differ from the irredundant family")
                _expect(ideals.multiply(powers) == product, "factors do not recompose")
                if comp is not None:
                    _expect(comp.factors == report.factors,
                            "completely irreducible factors differ from the prime powers")
                    _expect(ideals.intersect(powers) == product,
                            "factors do not recompose by intersection")
            except Mismatch as exc:
                failures[i] = f"family{i}: {exc}"
        return failures


# == poly: single-cycle ideals with polynomials of known factorization =============

# Per field, the factor patterns of one pass: "7+3+1^2" is an irreducible of
# degree 7 times one of degree 3 times the square of a linear one.  Degrees
# stay within GF(2) <= 20, GF(3) <= 12, GF(7) <= 8, GF(31), GF(101), Q <= 5.
POLY_PATTERNS = {
    "GF(2)": "20 16 13 11 10 9 8 7 6 5 4 3 2 9+5+3^2 6+4+2^3 7+3+1^2 5+4 3+2+1 8+8 4^3 "
             "1^8 2^2+1 6+6 3+3",
    "GF(3)": "12 10 9 8 7 6 5 4 3 2 7+3+1^2 4+2 5+5 3+1^3 2^4 6^2 2+2+1 4+4",
    "GF(7)": "8 7 6 5 4 3 2 1 5+2+1 3+1^2 2^3 4+4 2+2+1 1^5 3+3 1+1+1",
    "GF(31)": "5 4 3 2 1 3+2 2+1 1^4 2^2 1+1+1 4+1 2+2 1+1",
    "GF(101)": "5 3 2 1 3+2 2+1 2^2 1+1 1^3 1+1+1 3+1 1^5",
    "Q": "5 4 3 2 1 3+2 2+1^2 1+1+1 2^2 4+1 2+2 1^3 3+1 1+1 2+1 1^2+1 3+1+1 1^4 "
         "2+1+1 1+1+1+1",
}


def _pattern(text):
    """"7+3+1^2" -> ((7, 1), (3, 1), (1, 2))."""
    out = []
    for factor in text.split("+"):
        degree, _, mult = factor.partition("^")
        out.append((int(degree), int(mult or 1)))
    return tuple(out)


POLY_STRATA = tuple((field, _pattern(p)) for field, patterns in POLY_PATTERNS.items()
                    for p in patterns.split())
# each pattern is drawn this often, so that the ten slowest queries beyond
# p90 are thirty and one draw's luck moves the percentile less
POLY_DRAWS = 3

# graph name -> (vertex generators, the graph's exitless cycle)
LOOP_SITES = {
    "one_loop": ((), ("v",), ("e",)),
    "loop_chain": ((), ("w",), ("ww",)),
    "omega_loop": (("h",), ("u",), ("e",)),
}


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % p for c in out] if p else out)


def _rem(a, m, p):
    """Remainder of a by the monic m over GF(p)."""
    a = list(a)
    while len(a) >= len(m):
        c, shift = a[-1], len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        _trim(a)
    return a


def _gcd_degree(a, b, p):
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, _rem(a, [c * inv % p for c in b], p)
    return len(a) - 1


def _gf_irreducible(f, p):
    """Ben-Or: f of degree d is irreducible iff gcd(x^(p^i) - x, f) = 1, i <= d/2."""
    h = [0, 1]
    for _ in range(1, (len(f) - 1) // 2 + 1):
        power, base, e = [1], h, p
        while e:
            if e & 1:
                power = _rem(_mul(power, base, p), f, p)
            base = _rem(_mul(base, base, p), f, p)
            e >>= 1
        h = power
        diff = _trim([(c - (1 if i == 1 else 0)) % p
                      for i, c in enumerate(h + [0] * (2 - len(h)))])
        if not diff or _gcd_degree(f, diff, p) > 0:
            return False
    return True


def _irreducible(rng, field, degree):
    """Random monic irreducible with nonzero constant term, as a coefficient list."""
    if field.kind == "GF":
        p = field.p
        while True:
            f = [1 + rng.below(p - 1)] + [rng.below(p) for _ in range(degree - 1)] + [1]
            if degree == 1 or _gf_irreducible(f, p):
                return f
    # over Q: small coefficients keep Kronecker's divisor search comparable
    # between seeds
    if degree == 1:
        return [rng.choice((1, -1)) * (1 + rng.below(4)), 1]
    # Eisenstein at q: q divides every lower coefficient, q^2 not the constant
    q = rng.choice((2, 3))
    return ([rng.choice((1, -1)) * q]
            + [q * (rng.below(3) - 1) for _ in range(degree - 1)] + [1])


class PolyWorkload:
    """One query classifies and factors one single-cycle ideal <f(c)>."""

    @staticmethod
    def generate(seed, minimal, workdir):
        rng = SplitMix64(seed)
        inputs = []
        sites = sorted(LOOP_SITES)
        strata = POLY_STRATA[-3:] if minimal else POLY_STRATA * POLY_DRAWS
        for k, (label, pattern) in enumerate(strata):
            field = FieldSpec.parse(label)
            factors = []
            for degree, mult in pattern:
                g = _irreducible(rng, field, degree)
                while any(g == h for h, _ in factors):
                    g = _irreducible(rng, field, degree)
                factors.append((g, mult))
            f = [1]
            for g, mult in factors:
                for _ in range(mult):
                    f = _mul(f, g, field.p)
            inputs.append({"graph": sites[k % len(sites)], "field": label,
                           "factors": factors, "f": f})
        return inputs

    @staticmethod
    def build(inputs):
        out = []
        for item in inputs:
            graph = gallery.ALL_BUILDERS[item["graph"]]()
            hset, vertices, edges = LOOP_SITES[item["graph"]]
            cycle = graphs.Cycle.build(vertices, edges)
            f = Poly(FieldSpec.parse(item["field"]), item["f"])
            out.append(ideals.canonicalize(graph, hset, (), [(cycle, f)]))
        return out

    @staticmethod
    def queries(objects, inputs):
        def call(ideal):
            def query():
                return (ideals.is_prime(ideal), ideals.is_completely_irreducible(ideal),
                        ideals.factor_prime_powers(ideal))
            return query

        return [(f"{item['field']}:{'*'.join(f'{len(g) - 1}^{m}' for g, m in item['factors'])}"
                 f"@{item['graph']}", call(ideal))
                for item, ideal in zip(inputs, objects)]

    @staticmethod
    def error(result):
        return None

    @staticmethod
    def encode(result):
        prime, comp, report = result
        return json.dumps({"prime": [prime.holds, prime.case],
                           "comp_irred": [comp.holds, comp.case],
                           "prime_powers": report and report.to_json()},
                          sort_keys=True).encode()

    @staticmethod
    def check(inputs, objects, results):
        failures = {}
        for i, (item, ideal, result) in enumerate(zip(inputs, objects, results)):
            if result is None:
                continue
            prime, comp, report = result
            field = FieldSpec.parse(item["field"])
            want = sorted((tuple(g), m) for g, m in item["factors"])
            try:
                source = ideals.ideal_to_json(ideal)
                _expect(source["parts"][0]["poly"] == item["f"], "ideal lost its polynomial")
                _expect(report is not None, "no prime-power factorization")
                rows = report.to_json()["factors"]
                for row in rows:
                    _expect((row["ideal"]["H"], row["ideal"]["S"]) == (source["H"], source["S"]),
                            "factor moved off the cycle's pair")
                    _expect([p["cycle"] for p in row["ideal"]["parts"]]
                            == [source["parts"][0]["cycle"]], "factor is not on the cycle")
                got = sorted((tuple(row["ideal"]["parts"][0]["poly"]), row["exponent"])
                             for row in rows)
                _expect(got == want, "factors differ from the construction")
                product = [1]
                for g, mult in got:
                    for _ in range(mult):
                        product = _mul(product, list(g), field.p)
                _expect(product == item["f"], "factors do not multiply back to f")
                single = len(want) == 1
                _expect(prime.holds == (single and want[0][1] == 1), "is_prime")
                _expect(comp.holds == single, "is_completely_irreducible")
            except Mismatch as exc:
                failures[i] = f"{item['field']} {item['factors']}: {exc}"
        return failures


WORKLOADS = {"lattice": Lattice, "ideals": Ideals, "poly": PolyWorkload}
