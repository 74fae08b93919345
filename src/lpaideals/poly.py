"""Exact univariate polynomial arithmetic over Q and over prime fields GF(p).

Polynomials are dense coefficient tuples, lowest degree first, so [1, 0, 1]
is 1 + x**2.  Over GF(p) coefficients are Python ints in range(p).  Over Q a
coefficient is an int when it is integral and a fractions.Fraction exactly
when its denominator is above 1, so Fraction arithmetic runs only where a
denominator exists; Fraction(2) == 2 and the two hash alike, so the form is
invisible to equality, hashing and printing.  All arithmetic is exact,
nothing is ever floated.

All polynomial arithmetic runs on one set of kernels on plain coefficient
lists, defined here: sum, product, division with remainder, remainder
alone (the one remainder loop, which gcd and divides use), monic, gcd and
derivative, each taking a modulus m.  Poly passes its field's p, which is
None over Q, and None means exact arithmetic over Q in the form above; the
factoring module passes a prime or, while Hensel lifting, a prime power.

The module also provides the Laurent normal form used by the ideal calculus:
in K[x, 1/x] the units are the monomials a*x**k, so every nonzero Laurent
polynomial is an associate of a unique monic ordinary polynomial with nonzero
constant term.  LaurentClass wraps that representative.

Factorization is exact and runs in polynomial time, in the module factoring
on plain int lists: Cantor-Zassenhaus over GF(p), Zassenhaus with Hensel
lifting over Q.  Recombining the lifted factors over Q is the one
exponential step, so it is capped at MODULAR_FACTOR_CAP modular factors.
Irreducibility is read off the factorization, so factor is the one
decision procedure; Ben-Or's test stays in the oracles, as a reference.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, TooLarge, ZeroPolynomial

_PRIME_LIMIT = 2**31
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_GF_LABEL = re.compile(r"GF\(([0-9]+)\)")


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


# -- dense coefficient lists ------------------------------------------------------
#
# The one implementation of polynomial arithmetic, shared by Poly and by the
# factoring module.  Lists (or tuples) run lowest degree first with no
# trailing zeros.  m is a modulus: a prime p, or a power of p while factoring
# lifts factors, and every result then has its coefficients in range(m).
# m = None is exact arithmetic over Q: every result holds an integral
# coefficient as an int and any other as a Fraction, whatever mix the inputs
# hold, as Poly's coefficients do over Q.


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _reduce(a: list, m) -> list:
    if m:
        return _trim([c % m for c in a])
    return _trim([c if type(c) is int or c.denominator != 1 else c.numerator
                  for c in a])


def _inv(c, m):
    if m:
        return pow(c, -1, m)
    inv = 1 / Fraction(c)
    return inv.numerator if inv.denominator == 1 else inv


def _add(a, b, m) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _reduce(out, m)


def _sub(a, b, m) -> list:
    return _add(a, [-c for c in b], m)


def _product(a, b) -> list:
    """a * b for nonzero a and b, schoolbook, neither reduced nor trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mul(a, b, m) -> list:
    """a * b."""
    if not a or not b:
        return []
    return _reduce(_product(a, b), m)


def _rem(a, b, m) -> list:
    """Remainder of a by the nonzero b, whose leading coefficient must be
    invertible modulo m.

    Modulo m this is the one remainder loop, with no quotient kept: a may
    hold any ints, reduced or not, and only the coefficient about to be
    cancelled is reduced on the way down.  Over Q (m None) it is _divmod's.
    """
    if not m:
        return _divmod(a, b, None)[1]
    n = len(b) - 1
    r = list(a)
    if len(r) > n:
        low = b[:-1]
        inv = 1 if b[-1] == 1 else pow(b[-1], -1, m)
        for i in range(len(r) - 1, n - 1, -1):
            c = r[i] * inv % m
            if c:
                k = i - n
                for y in low:
                    r[k] -= c * y
                    k += 1
    return _trim([c % m for c in r[:n]])


def _divmod(a, b, m):
    """Quotient and remainder of a by the nonzero b, whose leading coefficient
    must be invertible modulo m; for a remainder alone, _rem is faster.
    Both are reduced, so an unreduced a of lower degree than b comes back
    reduced too."""
    n = len(b) - 1
    if len(a) <= n:
        return [], _reduce(list(a), m)
    inv = 1 if b[-1] == 1 else _inv(b[-1], m)
    r = list(a)
    q = [0] * (len(r) - n)
    for i in range(len(r) - n - 1, -1, -1):
        c = r[i + n] * inv
        if m:
            c %= m
        if c:
            q[i] = c
            for j in range(n):
                r[i + j] -= c * b[j]
    return (_trim(q) if m else _reduce(q, None)), _reduce(r[:n], m)


def _monic(a, m):
    """The nonzero a over its leading coefficient."""
    if a[-1] == 1:
        return a
    inv = _inv(a[-1], m)
    return [c * inv % m for c in a] if m else _reduce([c * inv for c in a], None)


def _gcd(a, b, m):
    """Monic gcd; a is nonzero.  Euclid's algorithm on remainders alone."""
    while b:
        a, b = b, _rem(a, b, m)
    return _monic(a, m)


def _derivative(a, m) -> list:
    return _reduce([i * c for i, c in enumerate(a)][1:], m)


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
        """Parse "Q" or "GF(p)", p in ASCII digits only, as coerce asks of scalars."""
        label = label.strip()
        if label == "Q":
            return FieldSpec.rationals()
        gf = _GF_LABEL.fullmatch(label)
        if gf:
            try:
                return FieldSpec.prime_field(int(gf[1]))
            except ValueError as exc:
                raise ValueError(f"bad field label {label!r}: {exc}") from exc
        raise ValueError(f"bad field label {label!r} (expected Q or GF(p))")

    @property
    def label(self) -> str:
        return "Q" if self.kind == "Q" else f"GF({self.p})"

    # -- scalars ------------------------------------------------------------

    def coerce(self, x):
        """Coerce an int, Fraction, or "a/b" string into a field scalar, over
        Q in canonical form: an int when integral, else a Fraction.

        Over Q nothing else is accepted: Fraction would also parse decimal
        and exponent strings, and "1e999999999" would make it build a
        billion-digit integer.  Over GF(p) a string must be "a", decimal
        digits with an optional sign: int() would also take "1_000", " 5 "
        and non-ASCII digits.
        """
        if self.kind == "Q":
            if type(x) is int:
                return x
            if isinstance(x, bool) or not (
                    isinstance(x, (int, Fraction))
                    or isinstance(x, str) and _RATIONAL.fullmatch(x)):
                raise ValueError(f"scalar {x!r} rejected over Q: expected an "
                                 f"int, a Fraction or an \"a/b\" string")
            try:
                x = Fraction(x)
            except ZeroDivisionError as exc:
                raise ValueError(f"scalar {x!r} rejected over Q: {exc}") from exc
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, str):
            if not _INTEGER.fullmatch(x):
                raise ValueError(f"scalar {x!r} rejected over {self.label}: "
                                 f"expected an int or an \"a\" string")
            x = int(x)
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"scalar {x!r} rejected over {self.label}")
        return x % self.p

    def zero(self):
        return 0

    def one(self):
        return 1

    def scalar_to_json(self, a):
        if self.kind == "GF":
            return a
        if a.denominator == 1:
            return int(a)
        try:
            return f"{a.numerator}/{a.denominator}"
        except ValueError as exc:  # a part past the int-to-str digit limit
            raise TooLarge(f"a coefficient has an integer of more than "
                           f"{sys.get_int_max_str_digits()} digits, Python's "
                           f"limit for int-to-str conversion") from exc


def _check_same_field(f: "Poly", g: "Poly") -> None:
    if f.field != g.field:
        raise FieldMismatch(f"{f.field.label} vs {g.field.label}")


class Poly:
    """Immutable dense polynomial over a FieldSpec.

    factor keeps its answer on the polynomial (slot _factors, unset until
    the first call), so each polynomial is factored at most once, and
    is_irreducible_laurent reads that same answer.  Equality and hashing
    read only the field and the coefficients; the hash is kept on first use
    (slot _hash).
    """

    __slots__ = ("field", "coeffs", "_factors", "_hash")

    def __init__(self, field: FieldSpec, coeffs):
        cs = _trim([field.coerce(c) for c in coeffs])
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _of(cls, field: FieldSpec, coeffs) -> "Poly":
        """A Poly from coefficients already in the field, with no trailing zeros."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

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
        known = getattr(self, "_hash", None)
        if known is None:
            known = hash((self.field, self.coeffs))
            object.__setattr__(self, "_hash", known)
        return known

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
        return Poly._of(self.field, _add(self.coeffs, other.coeffs, self.field.p))

    def __neg__(self) -> "Poly":
        return Poly._of(self.field, _sub((), self.coeffs, self.field.p))

    def __sub__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        return Poly._of(self.field, _sub(self.coeffs, other.coeffs, self.field.p))

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        return Poly._of(self.field, _mul(self.coeffs, other.coeffs, self.field.p))

    def scale(self, c) -> "Poly":
        c = self.field.coerce(c)
        return Poly._of(self.field, _mul(self.coeffs, [c], self.field.p))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        m = self.field.p
        out, base = [self.field.one()], self.coeffs
        while n:
            if n & 1:
                out = _mul(out, base, m)
            n >>= 1
            if n:
                base = _mul(base, base, m)
        return Poly._of(self.field, out)

    def __divmod__(self, other: "Poly"):
        _check_same_field(self, other)
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        q, r = _divmod(self.coeffs, other.coeffs, self.field.p)
        return Poly._of(self.field, q), Poly._of(self.field, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return Poly._of(self.field, _monic(self.coeffs, self.field.p))

    def derivative(self) -> "Poly":
        return Poly._of(self.field, _derivative(self.coeffs, self.field.p))

    def evaluate(self, x):
        """Value at x by Horner's rule on scalars; it shares no code with the
        list kernels, so tests check them against it."""
        x, p = self.field.coerce(x), self.field.p
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p if p else acc * x + c
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
    return Poly._of(f.field, _gcd(f.coeffs, g.coeffs, f.field.p))


def poly_lcm(f: Poly, g: Poly) -> Poly:
    """Monic least common multiple; both inputs must be nonzero."""
    m = f.field.p
    quotient = _divmod(f.coeffs, poly_gcd(f, g).coeffs, m)[0]
    return Poly._of(f.field, _monic(_mul(quotient, g.coeffs, m), m))


def divides(f: Poly, g: Poly) -> bool:
    """True iff f divides g in K[x]."""
    _check_same_field(f, g)
    if f.is_zero():
        return g.is_zero()
    return not _rem(g.coeffs, f.coeffs, f.field.p)


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


def normalize_laurent(f: Poly) -> LaurentClass:
    """Laurent normal form of f: strip x factors, make monic."""
    if f.is_zero():
        raise ZeroPolynomial("Laurent normal form of zero")
    k = next(i for i, c in enumerate(f.coeffs) if c != 0)
    return LaurentClass(Poly._of(f.field, _monic(f.coeffs[k:], f.field.p)))


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
    memo = getattr(f, "_factors", None)
    if memo is None:
        memo = tuple(_factor(f))
        object.__setattr__(f, "_factors", memo)
    return list(memo)


def with_factors_of(h: Poly, f: Poly, g: Poly, join) -> Poly:
    """h, given the factorization read off those of f and g when factor has
    kept both and none is kept on h yet.

    h must be the monic product of the monic f and g, with join
    operator.add, or their lcm, with join max: by unique factorization in
    K[x], the irreducible factors of h are those of f and g, each with the
    sum or the larger of its two multiplicities.
    """
    known_f, known_g = getattr(f, "_factors", None), getattr(g, "_factors", None)
    if known_f is not None and known_g is not None \
            and getattr(h, "_factors", None) is None:
        mult = dict(known_f)
        for p, e in known_g:
            mult[p] = join(mult.get(p, 0), e)
        object.__setattr__(h, "_factors", tuple(sorted(mult.items(), key=_factor_key)))
    return h


def _factor_key(entry):
    g, _ = entry
    return g.degree, g.coeffs


def _factor(f: Poly) -> list[tuple[Poly, int]]:
    field = f.field
    if f.degree == 1:
        return [(f.monic(), 1)]
    from . import factoring  # loaded on first use; see its docstring

    if field.kind == "GF":
        out = [(Poly._of(field, g), e)
               for g, e in factoring.factor_gf(list(f.coeffs), field.p)]
    else:
        out = [(Poly._of(field, _monic(g, None)), e)
               for g, e in factoring.factor_z(factoring.primitive(f.coeffs),
                                              MODULAR_FACTOR_CAP)]
    return sorted(out, key=_factor_key)


def is_irreducible_laurent(cls: LaurentClass) -> bool:
    """True iff the class is a prime element of K[x, 1/x].

    Equivalently: the representative has degree >= 1 and is irreducible in
    K[x] (x itself is a unit in the Laurent ring, and the representative is
    coprime to x by construction).  That is read off factor, one factor of
    multiplicity 1, so the answer is the factorization kept on the
    representative and no separate irreducibility test runs.  Over Q that
    includes factor's DegreeTooLarge, past MODULAR_FACTOR_CAP modular
    factors of the square-free part.
    """
    f = cls.rep
    return f.degree >= 1 and factor(f) == [(f, 1)]
