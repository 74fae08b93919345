"""Exact univariate polynomial arithmetic over Q and over prime fields GF(p).

Polynomials are dense coefficient tuples, lowest degree first, so [1, 0, 1]
is 1 + x**2.  Coefficients are fractions.Fraction over Q and Python ints in
range(p) over GF(p); all arithmetic is exact, nothing is ever floated.

The module also provides the Laurent normal form used by the ideal calculus:
in K[x, 1/x] the units are the monomials a*x**k, so every nonzero Laurent
polynomial is an associate of a unique monic ordinary polynomial with nonzero
constant term.  LaurentClass wraps that representative.

Factorization is exact as well: over GF(p) by trial division against monic
polynomials enumerated by degree (meant for small p, capped at GF_TRIAL_CAP
candidates), over Q by Yun's square-free decomposition followed by
Kronecker's divisor-interpolation method (capped at KRONECKER_DEGREE_CAP).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _itproduct

from .errors import DegreeTooLarge, FieldMismatch, ZeroPolynomial

#: Degree cap for Kronecker factorization over Q.
KRONECKER_DEGREE_CAP = 12

#: Most trial divisors one factorization over GF(p) tries.
GF_TRIAL_CAP = 2**16

_PRIME_LIMIT = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: the rationals ("Q") or a prime field ("GF", p)."""

    kind: str
    p: int | None = None

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def prime_field(p: int) -> "FieldSpec":
        if not isinstance(p, int) or not 2 <= p <= _PRIME_LIMIT:
            raise ValueError(f"prime field characteristic out of range: {p!r}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return FieldSpec("GF", p)

    @staticmethod
    def parse(label: str) -> "FieldSpec":
        """Parse "Q" or "GF(p)"."""
        label = label.strip()
        if label == "Q":
            return FieldSpec.rationals()
        if label.startswith("GF(") and label.endswith(")"):
            try:
                return FieldSpec.prime_field(int(label[3:-1]))
            except ValueError as exc:
                raise ValueError(f"bad field label {label!r}: {exc}") from exc
        raise ValueError(f"bad field label {label!r} (expected Q or GF(p))")

    @property
    def label(self) -> str:
        return "Q" if self.kind == "Q" else f"GF({self.p})"

    # -- scalar arithmetic ------------------------------------------------

    def coerce(self, x):
        """Coerce an int, Fraction, or "a/b" string into a field scalar."""
        if self.kind == "Q":
            if isinstance(x, bool) or isinstance(x, float):
                raise ValueError(f"inexact scalar {x!r} rejected over Q")
            try:
                return Fraction(x)
            except (TypeError, ZeroDivisionError) as exc:
                raise ValueError(f"scalar {x!r} rejected over Q: {exc}") from exc
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"scalar {x!r} rejected over {self.label}")
        return x % self.p

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def add(self, a, b):
        return a + b if self.kind == "Q" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "Q" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "Q" else (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return Fraction(1) / a if self.kind == "Q" else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a):
        return -a if self.kind == "Q" else (-a) % self.p

    def scalar_to_json(self, a):
        if self.kind == "GF":
            return a
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"


def _check_same_field(f: "Poly", g: "Poly") -> None:
    if f.field != g.field:
        raise FieldMismatch(f"{f.field.label} vs {g.field.label}")


class Poly:
    """Immutable dense polynomial over a FieldSpec."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == self.field.one()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"Poly({self.field.label}, {self.pretty()})"

    def pretty(self) -> str:
        """Human form such as 'x^2 + x + 1', highest degree first."""
        if self.is_zero():
            return "0"
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                xpow = "x" if d == 1 else f"x^{d}"
                terms.append(xpow if c == 1 else f"{c}*{xpow}")
        return " + ".join(terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        n = max(len(self.coeffs), len(other.coeffs))
        a, b, F = self.coeffs, other.coeffs, self.field
        return Poly(F, [
            F.add(a[i] if i < len(a) else F.zero(), b[i] if i < len(b) else F.zero())
            for i in range(n)
        ])

    def __neg__(self) -> "Poly":
        return Poly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        F = self.field
        out = [F.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def scale(self, c) -> "Poly":
        c = self.field.coerce(c)
        return Poly(self.field, [self.field.mul(c, a) for a in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k (k >= 0)."""
        if k < 0:
            raise ValueError("shift exponent must be >= 0")
        if self.is_zero():
            return self
        return Poly(self.field, [self.field.zero()] * k + list(self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly(self.field, [self.field.one()])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly"):
        _check_same_field(self, other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        F = self.field
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = F.inv(other.leading())
        if self.degree < d:
            return Poly(F, []), self
        quot = [F.zero()] * (self.degree - d + 1)
        for i in range(self.degree - d, -1, -1):
            c = rem[i + d]
            if c == 0:
                continue
            q = F.mul(c, lead_inv)
            quot[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] = F.sub(rem[i + j], F.mul(q, b))
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self.scale(self.field.inv(self.leading()))

    def derivative(self) -> "Poly":
        F = self.field
        return Poly(F, [
            F.mul(F.coerce(i), c) for i, c in enumerate(self.coeffs) if i > 0
        ])

    def evaluate(self, x):
        x = self.field.coerce(x)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = self.field.add(self.field.mul(acc, x), c)
        return acc

    def to_json(self) -> list:
        return [self.field.scalar_to_json(c) for c in self.coeffs]


def poly(field: FieldSpec, coeffs) -> Poly:
    """Convenience constructor; coeffs lowest degree first."""
    return Poly(field, coeffs)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; both inputs must be nonzero."""
    _check_same_field(f, g)
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("gcd of the zero polynomial")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(f: Poly, g: Poly) -> Poly:
    """Monic least common multiple; both inputs must be nonzero."""
    return ((f * g) // poly_gcd(f, g)).monic()


def divides(f: Poly, g: Poly) -> bool:
    """True iff f divides g in K[x]."""
    _check_same_field(f, g)
    if f.is_zero():
        return g.is_zero()
    return (g % f).is_zero()


# -- Laurent normal form ----------------------------------------------------


@dataclass(frozen=True)
class LaurentClass:
    """Associate class of a nonzero Laurent polynomial.

    The representative is the unique monic polynomial with nonzero constant
    term in the class; two Laurent polynomials are associates exactly when
    they differ by a unit a*x**k.
    """

    rep: Poly

    def __post_init__(self):
        if self.rep.is_zero():
            raise ZeroPolynomial("Laurent class of zero")
        if not self.rep.is_monic() or self.rep.constant_term() == 0:
            raise ValueError("LaurentClass representative must be monic with "
                             "nonzero constant term; use normalize_laurent")

    @property
    def degree(self) -> int:
        return self.rep.degree

    @property
    def field(self) -> FieldSpec:
        return self.rep.field

    def __mul__(self, other: "LaurentClass") -> "LaurentClass":
        return LaurentClass((self.rep * other.rep).monic())

    def __pow__(self, n: int) -> "LaurentClass":
        return LaurentClass((self.rep ** n).monic())

    def pretty(self) -> str:
        return self.rep.pretty()


def normalize_laurent(f: Poly, shift: int = 0) -> LaurentClass:
    """Laurent normal form of x**shift * f: strip x factors, make monic.

    The shift only moves f by a unit, so it never affects the result; it is
    accepted so callers holding genuine Laurent data need no preprocessing.
    """
    if not isinstance(shift, int):
        raise ValueError("shift must be an integer")
    if f.is_zero():
        raise ZeroPolynomial("Laurent normal form of zero")
    k = next(i for i, c in enumerate(f.coeffs) if c != 0)
    return LaurentClass(Poly(f.field, f.coeffs[k:]).monic())


# -- factorization over GF(p) ------------------------------------------------


def _monic_polys(field: FieldSpec, degree: int):
    """All monic polynomials of the given degree over GF(p), lexicographically."""
    p = field.p
    for tail in _itproduct(range(p), repeat=degree):
        yield Poly(field, list(tail) + [1])


def _factor_gf(f: Poly) -> list[tuple[Poly, int]]:
    rest = f.monic()
    out: list[tuple[Poly, int]] = []
    tried = 0
    d = 1
    while rest.degree >= 1:
        if 2 * d > rest.degree:
            out.append((rest, 1))
            break
        for cand in _monic_polys(f.field, d):
            if rest.degree < d:
                break
            tried += 1
            if tried > GF_TRIAL_CAP:
                raise DegreeTooLarge(
                    f"factoring over GF({f.field.p}) needs more trial divisors"
                    f" than the cap {GF_TRIAL_CAP}")
            mult = 0
            while True:
                q, r = divmod(rest, cand)
                if not r.is_zero():
                    break
                rest, mult = q, mult + 1
            if mult:
                # degree-ascending trial division only ever splits off irreducibles
                out.append((cand, mult))
        d += 1
    return out


# -- factorization over Q ----------------------------------------------------


def _integer_primitive(f: Poly) -> list[int]:
    """Scaled coefficient list: f times the lcm of denominators over the gcd."""
    from math import gcd, lcm

    den = lcm(*[c.denominator for c in f.coeffs])
    ints = [int(c * den) for c in f.coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


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
    pos = small + large[::-1]
    out: list[int] = []
    for v in pos:
        out.extend((v, -v))
    return out


def _rational_roots(ints: list[int]) -> list[Fraction]:
    """Rational roots of a primitive integer polynomial (nonzero constant term)."""
    roots = []
    F = FieldSpec.rationals()
    f = Poly(F, ints)
    for p_ in _int_divisors(ints[0]):
        for q_ in _int_divisors(ints[-1]):
            if q_ <= 0:
                continue
            cand = Fraction(p_, q_)
            if f.evaluate(cand) == 0 and cand not in roots:
                roots.append(cand)
    return roots


def _kronecker_split(f: Poly) -> tuple[Poly, Poly] | None:
    """One nontrivial monic factorization of a square-free rational polynomial.

    Kronecker's method on the primitive integer form: an integer factor of
    degree s is pinned down by its values on s+1 integer points, and each
    value must divide the value of the polynomial there.  Interpolating every
    divisor combination and test-dividing is exhaustive, hence exact; the
    caller caps the degree to keep this a desk-scale tool.
    """
    F = f.field
    ints = _integer_primitive(f)
    for r in _rational_roots(ints):
        lin = Poly(F, [-r, 1])
        return lin, f // lin
    fint = Poly(F, ints)
    n = f.degree
    for s in range(2, n // 2 + 1):
        points: list[int] = [0]
        k = 1
        while len(points) < s + 1:
            points.append(k)
            if len(points) < s + 1:
                points.append(-k)
            k += 1
        # no rational roots remain, so every value is a nonzero integer
        divisor_sets = [_int_divisors(int(fint.evaluate(a))) for a in points]
        for combo in _itproduct(*divisor_sets):
            g = _interpolate(F, points, [Fraction(c) for c in combo])
            if g.degree != s:
                continue
            if (f % g).is_zero():
                gm = g.monic()
                return gm, f // gm
    return None


def _interpolate(F: FieldSpec, xs, ys) -> Poly:
    """Lagrange interpolation through (xs[i], ys[i])."""
    total = Poly(F, [])
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        num = Poly(F, [yi])
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Poly(F, [-xj, 1])
            den *= Fraction(xi - xj)
        total = total + num.scale(Fraction(1) / den)
    return total


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm (characteristic zero): [(square-free part, multiplicity)]."""
    out: list[tuple[Poly, int]] = []
    df = f.derivative()
    g = poly_gcd(f, df) if not df.is_zero() else f.monic()
    c = f // g
    d = df // g - c.derivative()
    i = 1
    while c.degree >= 1:
        p_ = poly_gcd(c, d) if not d.is_zero() else c.monic()
        if p_.degree >= 1:
            out.append((p_.monic(), i))
        c = c // p_
        d = d // p_ - c.derivative()
        i += 1
    return out


def _factor_rational(f: Poly) -> list[tuple[Poly, int]]:
    if f.degree > KRONECKER_DEGREE_CAP:
        raise DegreeTooLarge(f"degree {f.degree} exceeds the rational "
                             f"factorization cap {KRONECKER_DEGREE_CAP}")
    out: list[tuple[Poly, int]] = []
    for part, mult in _squarefree_parts(f.monic()):
        stack = [part]
        while stack:
            g = stack.pop()
            split = None if g.degree <= 1 else _kronecker_split(g)
            if split is None:
                out.append((g.monic(), mult))
            else:
                stack.extend(split)
    merged: dict[Poly, int] = {}
    for g, m in out:
        merged[g] = merged.get(g, 0) + m
    return sorted(merged.items(), key=lambda gm: _poly_sort_key(gm[0]))


def _poly_sort_key(g: Poly):
    # coefficients are uniformly Fraction or uniformly int, so tuples compare
    return (g.degree, g.coeffs)


def factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factor f into monic irreducibles: [(g, multiplicity)], deterministic order.

    f must be nonzero of degree >= 1 with nonzero constant term (the shape
    Laurent representatives have).  The leading coefficient of f times the
    product of the factors reproduces f exactly.
    """
    if f.is_zero():
        raise ZeroPolynomial("factor of zero")
    if f.degree < 1 or f.constant_term() == 0:
        raise ValueError("factor expects degree >= 1 and nonzero constant term")
    if f.field.kind == "GF":
        out = _factor_gf(f)
        return sorted(out, key=lambda gm: _poly_sort_key(gm[0]))
    return _factor_rational(f)


def is_irreducible_laurent(cls: LaurentClass) -> bool:
    """True iff the class is a prime element of K[x, 1/x].

    Equivalently: the representative has degree >= 1 and is irreducible in
    K[x] (x itself is a unit in the Laurent ring, and the representative is
    coprime to x by construction), so, being monic, it is its own
    factorization.
    """
    f = cls.rep
    return f.degree >= 1 and factor(f) == [(f, 1)]
