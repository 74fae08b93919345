"""Exact univariate polynomial arithmetic over Q and over prime fields GF(p).

Polynomials are dense coefficient tuples, lowest degree first, so [1, 0, 1]
is 1 + x**2.  Coefficients are fractions.Fraction over Q and Python ints in
range(p) over GF(p); all arithmetic is exact, nothing is ever floated.

The module also provides the Laurent normal form used by the ideal calculus:
in K[x, 1/x] the units are the monomials a*x**k, so every nonzero Laurent
polynomial is an associate of a unique monic ordinary polynomial with nonzero
constant term.  LaurentClass wraps that representative.

Factorization is exact and runs in polynomial time, in the module factoring
on plain int lists: Cantor-Zassenhaus over GF(p) (Ben-Or's test for
irreducibility alone), Zassenhaus with Hensel lifting over Q.  Recombining
the lifted factors over Q is the one exponential step, so it is capped at
MODULAR_FACTOR_CAP modular factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, ZeroPolynomial

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


# -- factorization --------------------------------------------------------------


#: Zassenhaus recombination tries subsets of the modular factors, so its work
#: can double with each one (Swinnerton-Dyer polynomials split into many
#: factors modulo every prime).  Past this many, factorization over Q stops
#: with DegreeTooLarge.
MODULAR_FACTOR_CAP = 16


def factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factor f into monic irreducibles: [(g, multiplicity)], sorted by
    (degree, coefficients).

    f must be nonzero of degree >= 1 with nonzero constant term (the shape
    Laurent representatives have).  The leading coefficient of f times the
    product of the factors reproduces f exactly.
    """
    if f.is_zero():
        raise ZeroPolynomial("factor of zero")
    if f.degree < 1 or f.constant_term() == 0:
        raise ValueError("factor expects degree >= 1 and nonzero constant term")
    field = f.field
    if f.degree == 1:
        return [(f.monic(), 1)]
    from . import factoring  # loaded on first use; see its docstring

    if field.kind == "GF":
        out = [(Poly(field, g), e)
               for g, e in factoring.factor_gf(list(f.coeffs), field.p)]
    else:
        out = [(Poly(field, [Fraction(c, g[-1]) for c in g]), e)
               for g, e in factoring.factor_z(factoring.primitive(f.coeffs),
                                              MODULAR_FACTOR_CAP)]
    return sorted(out, key=lambda ge: (ge[0].degree, ge[0].coeffs))


def is_irreducible_laurent(cls: LaurentClass) -> bool:
    """True iff the class is a prime element of K[x, 1/x].

    Equivalently: the representative has degree >= 1 and is irreducible in
    K[x] (x itself is a unit in the Laurent ring, and the representative is
    coprime to x by construction).  Over GF(p) that is Ben-Or's test; over Q
    the representative must be square-free with one Zassenhaus factor.
    """
    f = cls.rep
    if f.degree <= 1:
        return f.degree == 1
    from . import factoring  # loaded on first use; see its docstring

    if f.field.kind == "GF":
        return factoring.irreducible_gf(list(f.coeffs), f.field.p)
    return factoring.irreducible_z(factoring.primitive(f.coeffs), MODULAR_FACTOR_CAP)
