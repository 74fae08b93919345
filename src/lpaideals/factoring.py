"""Polynomial factorization over GF(p) and Q on plain int coefficient lists.

Lists run lowest degree first with no trailing zeros; modulo m (a prime p,
or a power of p while Hensel lifting) coefficients are kept in range(m).
The list arithmetic itself (sum, product, division with remainder, monic,
gcd, derivative) is the kernel set of the poly module, which Poly runs on
too.  Modulo p every remainder goes through its one loop, _rem, which
keeps no quotient: the gcds and the schoolbook products of _Residues below
_PACK_DEGREE reduce through it, and _divmod is left to the callers that use
the quotient.  m = None is exact arithmetic over Q, used here only for the
gcd of a square-free part that no prime certifies: f square-free modulo
one of the first _CERTIFICATE_PRIMES primes sparing lc(f) proves f
square-free over Q.  poly.factor converts at the boundary, and only it
imports this module, on its first call, so a process that never factors
never loads it.  The library decides irreducibility from the factorization;
the separate irreducibility tests (Ben-Or's over GF(p), one Zassenhaus
factor over Q) live in the oracles, which import this module's kernels.

Over GF(p): square-free decomposition aware of characteristic p,
distinct-degree factorization through x^(p^i) mod f, and Cantor-Zassenhaus
equal-degree splitting (Cantor & Zassenhaus, Math. Comp. 36, 1981); on a
square-free f the distinct-degree pass is Ben-Or's loop.  Both run in the
residue ring GF(p)[x]/(f) of _Residues, whose Frobenius map a -> a^p is a
power for p = 2 and 3 and a GF(p)-linear combination of a table from
p = 5 on, and whose products from _PACK_DEGREE on pack each coefficient
into one or two 64-bit words of one int.  Over Q:
Zassenhaus's method (J. Number Theory 1, 1969), factoring modulo a good
prime, Hensel lifting (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 15) and recombining subsets of the lifted factors, the one exponential
step, whose number of modular factors the caller caps.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import gcd, isqrt, lcm
from struct import pack, unpack

from .errors import DegreeTooLarge
from .poly import (_add, _derivative, _divmod, _gcd, _is_prime, _monic, _mul, _product,
                   _rem, _sub, _trim)
from .rng import SplitMix64


#: From this modulus degree on, _Residues multiplies by packing (below it the
#: schoolbook product is faster).
_PACK_DEGREE = 8


class _Residues:
    """GF(p)[x] modulo a monic f of degree n >= 1; residues have degree < n.

    A product packs each operand into one int, a slot of one 64-bit word per
    coefficient, or two when 2 * bits(p) + bits(n) + 1 > 64 (a slot then
    sums fewer than 2n products of residues, so none overflows), multiplies
    once, and folds the high half back with the table of x^(n+k) mod f.
    struct packs and unpacks the words.

    The Frobenius map a -> a^p costs bits(p) - 1 squarings and popcount(p) - 1
    products by powering: one squaring for p = 2, two products for p = 3.
    From p = 5 on, where powering takes three or more, the map is applied as
    what it is, GF(p)-linear: a combination of the table of x^(ip) mod f,
    built from x^p when a second residue needs it (n products, once).
    """

    __slots__ = ("f", "p", "n", "_words", "_low", "_fold", "_powering", "_xp", "_frob")

    def __init__(self, f: list, p: int):
        n = len(f) - 1
        self.f, self.p, self.n = f, p, n
        self._words = 1 if 2 * p.bit_length() + n.bit_length() + 1 <= 64 else 2
        self._low = (1 << (64 * self._words * n)) - 1
        # products per Frobenius step by powering: at most two for p < 4
        self._powering = p.bit_length() + bin(p).count("1") - 2 <= 2
        self._fold = self._xp = self._frob = None
        if n >= _PACK_DEGREE:
            t = [-c % p for c in f[:-1]]  # x^n mod f
            fold = []
            for _ in range(n - 1):
                fold.append(self._pack(t))
                c = t[-1]
                t = [0] + t[:-1]
                if c:
                    t = [(x - c * y) % p for x, y in zip(t, f)]
            self._fold = fold

    def _pack(self, a: list) -> int:
        words = a
        if self._words == 2:
            words = [0] * (2 * len(a))
            words[::2] = a
        return int.from_bytes(pack(f"<{len(words)}Q", *words), "little")

    def _unpack(self, x: int, k: int) -> list:
        w, p = self._words, self.p
        words = unpack(f"<{w * k}Q", x.to_bytes(8 * w * k, "little"))
        if w == 1:
            return _trim([c % p for c in words])
        return _trim([(lo | hi << 64) % p for lo, hi in zip(words[::2], words[1::2])])

    def mul(self, a: list, b: list) -> list:
        if not a or not b:
            return []
        if self._fold is None:
            return _rem(_product(a, b), self.f, self.p)
        n, k = self.n, len(a) + len(b) - 1
        prod = self._pack(a) * self._pack(b)
        if k <= n:
            return self._unpack(prod, k)
        low = prod & self._low
        high = self._unpack(prod >> (64 * self._words * n), k - n)
        for c, t in zip(high, self._fold):
            if c:
                low += c * t
        return self._unpack(low, n)

    def pow(self, a: list, e: int) -> list:
        """a^e for a residue a and e >= 1.  Squaring starts from a, and for
        a = x the powers x^k with k < n are written down, not multiplied."""
        bits, out = bin(e)[3:], a
        if a == [0, 1]:
            k = 1
            while bits and 2 * k + int(bits[0]) < self.n:
                k, bits = 2 * k + int(bits[0]), bits[1:]
            out = [0] * k + [1]
        for bit in bits:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def frobenius(self, a: list) -> list:
        """a^p."""
        if self._powering:
            return self.pow(a, self.p)
        if self._xp is None:
            self._xp = self.pow([0, 1], self.p)
        if a == [0, 1]:  # the first step of every caller
            return self._xp
        if self._frob is None:
            row, rows = [1], []
            for _ in range(self.n):
                rows.append(self._pack(row))
                row = self.mul(row, self._xp)
            self._frob = rows
        acc = 0
        for c, row in zip(a, self._frob):
            if c:
                acc += c * row
        return self._unpack(acc, self.n)


# -- factorization over GF(p) ------------------------------------------------


#: Seed of the random stream behind Cantor-Zassenhaus splitting.  The factors
#: are sorted on the way out, so the seed changes only the running time.
_SPLIT_SEED = 0x5EED


def _squarefree_gf(f: list, p: int) -> list:
    """[(g, e)] with f = prod g^e, each g monic, square-free, pairwise coprime.

    Where f' = 0, f = g(x^p) = g(x)^p over GF(p), so the p-th root reads
    every p-th coefficient.
    """
    df = _derivative(f, p)
    if not df:
        return [(g, e * p) for g, e in _squarefree_gf(f[::p], p)]
    c = _gcd(f, df, p)
    if len(c) == 1:  # f is square-free, as every irreducible is
        return [(f, 1)]
    out = []
    w = _divmod(f, c, p)[0]
    e = 1
    while len(w) > 1:
        y = _gcd(w, c, p)
        z = _divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, e))
        w, c, e = y, _divmod(c, y, p)[0], e + 1
    if len(c) > 1:  # what is left has multiplicities divisible by p
        out += [(g, m * p) for g, m in _squarefree_gf(c[::p], p)]
    return out


def _distinct_degree(f: list, p: int, ring: _Residues) -> list:
    """[(g, d)], g the product of the degree-d irreducible factors of f.

    f is square-free and monic, and ring works modulo a multiple of f;
    gcd(f, x^(p^d) - x) collects the factors whose degree divides d.
    """
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = ring.frobenius(h)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list, d: int, p: int, ring: _Residues, rng: SplitMix64) -> list:
    """Cantor-Zassenhaus: the degree-d monic irreducible factors of f.

    f is square-free, monic, a product of irreducibles of degree d, and ring
    works modulo a multiple of f.  For random a, the trace
    a + a^2 + ... + a^(2^(d-1)) (p = 2) or a^((p^d - 1)/2) - 1 (p odd,
    computed as the norm a^(1 + p + ... + p^(d-1)) to the power (p - 1)/2)
    vanishes on about half of the factors, so its gcd with f splits f.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.below(p) for _ in range(n)])
        b = t = a
        for _ in range(d - 1):
            t = ring.frobenius(t)
            b = _add(b, t, 2) if p == 2 else ring.mul(b, t)
        if p != 2:
            b = _sub(ring.pow(b, (p - 1) // 2), [1], p)
        g = _gcd(f, b, p)
        if 1 <= len(g) - 1 < n:
            return (_equal_degree(g, d, p, ring, rng)
                    + _equal_degree(_divmod(f, g, p)[0], d, p, ring, rng))


def factor_gf(f: list, p: int) -> list:
    """[(g, e)], g monic irreducible over GF(p), for f of degree >= 1."""
    f = _monic(f, p)
    rng = SplitMix64(_SPLIT_SEED)
    out = []
    for g, e in _squarefree_gf(f, p):
        ring = _Residues(g, p)
        for h, d in _distinct_degree(g, p, ring):
            out += [(u, e) for u in _equal_degree(h, d, p, ring, rng)]
    return out


# -- factorization over Q ----------------------------------------------------


#: Good primes compared when choosing the one with the fewest modular factors.
_PRIMES_TRIED = 5
#: Primes not dividing lc(f) tried for a modular certificate that f is
#: square-free, before the gcd over Q.
_CERTIFICATE_PRIMES = 3


def primitive(coeffs) -> list[int]:
    """Integer multiple of an int or Fraction list: coprime coefficients,
    positive leading coefficient."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [c // g for c in ints]


def _exact_quotient(a: list, b: list):
    """a / b in Z[x], or None when b does not divide a."""
    n = len(b) - 1
    if len(a) <= n:
        return None
    r = list(a)
    q = [0] * (len(r) - n)
    for i in range(len(r) - n - 1, -1, -1):
        c, rest = divmod(r[i + n], b[-1])
        if rest:
            return None
        q[i] = c
        for j in range(n + 1):
            r[i + j] -= c * b[j]
    return None if any(r) else q


def _primes_sparing(lc: int):
    """The primes that do not divide lc, ascending."""
    p = 1
    while True:
        p += 1
        if _is_prime(p) and lc % p:
            yield p


def _squarefree_mod(f: list, p: int) -> bool:
    """Whether the integer f, p not dividing lc(f), is square-free modulo p."""
    fp = [c % p for c in f]
    df = _derivative(fp, p)
    return bool(df) and len(_gcd(fp, df, p)) == 1


def _squarefree_part(f: list):
    """(f / gcd(f, f'), verdicts) for the primitive f: the part primitive,
    and verdicts mapping each prime tried to whether the part is
    square-free modulo it.

    A repeated factor g^2 of f keeps its degree modulo a prime p that does
    not divide lc(f), so f square-free modulo one such p proves f
    square-free over Q.  The first _CERTIFICATE_PRIMES of them are tried,
    up to the first that certifies f; only when none does is the gcd taken
    over Q.  The verdicts are on f, so they are kept only
    when the part is f.
    """
    verdicts = {}
    for p in islice(_primes_sparing(f[-1]), _CERTIFICATE_PRIMES):
        verdicts[p] = _squarefree_mod(f, p)
        if verdicts[p]:
            return f, verdicts
    g = _gcd(f, _derivative(f, None), None)
    return (f, verdicts) if len(g) == 1 else (_exact_quotient(f, primitive(g)), {})


def _good_primes(f: list, verdicts: dict):
    """The first _PRIMES_TRIED primes p not dividing lc(f) with f square-free
    mod p; a prime with a verdict on f is not tested again."""
    good = (p for p in _primes_sparing(f[-1])
            if (verdicts[p] if p in verdicts else _squarefree_mod(f, p)))
    return islice(good, _PRIMES_TRIED)


def _bezout(g: list, h: list, p: int):
    """s, t over GF(p) with s*g + t*h = 1, deg s < deg h and deg t < deg g,
    for coprime g and monic h."""
    r0, r1, s0, s1 = g, h, [1], []
    while r1:  # invariant: r_i = s_i * g modulo h
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1, p), p)
    s = _rem(_mul(s0, [pow(r0[0], -1, p)], p), h, p)
    return s, _divmod(_sub([1], _mul(s, g, p), p), h, p)[0]


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 modulo m to the same modulo m^2, with h
    monic (von zur Gathen & Gerhard, Modern Computer Algebra, Algorithm 15.10)."""
    mm = m * m
    e = _sub(f, _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    return g, h, _sub(s, d, mm), _sub(t, _add(_mul(t, b, mm), _mul(c, g, mm), mm), mm)


def _hensel_lift(f: list, factors: list, p: int, modulus: int) -> list:
    """Monic factors of the monic f modulo modulus = p^(2^k), lifted from the
    pairwise coprime monic factors of f modulo p, half against half."""
    if len(factors) == 1:
        return [f]
    half = len(factors) // 2
    g = h = [1]
    for u in factors[:half]:
        g = _mul(g, u, p)
    for u in factors[half:]:
        h = _mul(h, u, p)
    s, t = _bezout(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_hensel_lift(g, factors[:half], p, modulus)
            + _hensel_lift(h, factors[half:], p, modulus))


def _recombine(f: list, lifted: list, modulus: int) -> list:
    """The irreducible factors of f among lc(f) times products of lifted factors.

    A true factor g of f appears, times lc(f) / lc(g), as the symmetric
    residue of such a product once modulus exceeds twice its coefficients.
    Subsets are tried smallest first, after a test on the constant term.
    """
    def centered(c):
        c %= modulus
        return c - modulus if 2 * c > modulus else c

    out, rest, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(rest):
        for subset in combinations(rest, size):
            c0 = f[-1]
            for i in subset:
                c0 = c0 * lifted[i][0] % modulus
            c0 = centered(c0)
            if c0 == 0 or f[-1] * f[0] % c0:
                continue
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], modulus)
            g = primitive([centered(c) for c in g])
            q = _exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f, rest = q, [i for i in rest if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def _zassenhaus(f: list, cap: int, verdicts=None) -> list:
    """Irreducible factors in Z[x] of the square-free primitive f, primitive.

    Zassenhaus (J. Number Theory 1, 1969): factor modulo the good prime with
    the fewest factors, Hensel-lift past twice the Mignotte bound times
    lc(f), and recombine subsets of at most cap lifted factors.  One
    irreducible factor modulo any good prime proves f irreducible.
    verdicts carries the square-freeness of f modulo primes already tested
    (those of _squarefree_part).
    """
    n = len(f) - 1
    if n == 1:
        return [f]
    best = None
    for p in _good_primes(f, verdicts or {}):
        fp = _monic([c % p for c in f], p)
        ring = _Residues(fp, p)
        ddf = _distinct_degree(fp, p, ring)
        count = sum((len(g) - 1) // d for g, d in ddf)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, ring, ddf)
    count, p, ring, ddf = best
    if count > cap:
        raise DegreeTooLarge(
            f"degree {n} splits into {count} factors modulo {p}, more than the "
            f"modular factor cap {cap}")
    rng = SplitMix64(_SPLIT_SEED)
    factors = [u for g, d in ddf for u in _equal_degree(g, d, p, ring, rng)]
    # Mignotte: a factor of f has coefficients at most 2^n ||f||_2
    bound = 2 * f[-1] * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    inv = pow(f[-1], -1, modulus)
    lifted = _hensel_lift([c * inv % modulus for c in f], factors, p, modulus)
    return _recombine(f, lifted, modulus)


def factor_z(f: list, cap: int) -> list:
    """[(g, e)], g primitive irreducible in Z[x], for the primitive f."""
    part, verdicts = _squarefree_part(f)
    out = []
    for g in _zassenhaus(part, cap, verdicts):
        e = 0
        while (q := _exact_quotient(f, g)) is not None:
            f, e = q, e + 1
        out.append((g, e))
    return out
