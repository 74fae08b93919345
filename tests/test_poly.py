"""Exact polynomial arithmetic, Laurent normal form, and factorization."""

import hashlib
import json
import operator
import os
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest

import lpaideals
from lpaideals import poly as poly_module
from lpaideals.errors import DegreeTooLarge, FieldMismatch, ZeroPolynomial
from lpaideals.oracles import (
    bruteforce_factor_gf,
    irreducible_gf,
    irreducible_z,
    kronecker_factor_rational,
    monic_irreducibles,
)
from lpaideals.poly import (
    FieldSpec,
    LaurentClass,
    Poly,
    divides,
    factor,
    is_irreducible_laurent,
    normalize_laurent,
    poly,
    poly_gcd,
    poly_lcm,
    with_factors_of,
)
from lpaideals.rng import SplitMix64

Q = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
GF3 = FieldSpec.prime_field(3)


def test_package_attribute_is_the_module():
    # the root package must not export a name that shadows the submodule
    assert lpaideals.poly.MODULAR_FACTOR_CAP == 16


class TestFieldSpec:
    def test_parse_labels(self):
        assert FieldSpec.parse("Q") == Q
        assert FieldSpec.parse(" GF(2) ") == GF2
        assert FieldSpec.parse("GF(97)").p == 97

    @pytest.mark.parametrize("label", ["GF(4)", "GF(1)", "GF(-3)", "R", "GF(x)", ""])
    def test_parse_rejects(self, label):
        with pytest.raises(ValueError):
            FieldSpec.parse(label)

    def test_prime_field_validation(self):
        with pytest.raises(ValueError):
            FieldSpec.prime_field(6)
        with pytest.raises(ValueError):
            FieldSpec.prime_field(1)

    def test_coerce_rationals(self):
        assert Q.coerce(3) == Fraction(3)
        assert Q.coerce("1/2") == Fraction(1, 2)
        with pytest.raises(ValueError):
            Q.coerce(0.5)
        with pytest.raises(ValueError):
            Q.coerce(True)

    @pytest.mark.parametrize("literal", ["1e99999", "1.5", "0x10", "1_000",
                                         " 1/2", "1/-2", ""])
    def test_coerce_rationals_only_plain_forms(self, literal):
        # Fraction would parse several of these; "1e999999999" would make it
        # build a billion-digit integer
        with pytest.raises(ValueError, match='"a/b" string'):
            Q.coerce(literal)

    def test_coerce_prime_field(self):
        assert GF3.coerce(5) == 2
        assert GF3.coerce("-1") == 2
        with pytest.raises(ValueError):
            GF3.coerce(Fraction(1, 2))

    def test_scalar_json(self):
        assert Q.scalar_to_json(Fraction(1, 2)) == "1/2"
        assert Q.scalar_to_json(Fraction(4, 2)) == 2
        assert GF3.scalar_to_json(2) == 2


class TestPolyRing:
    def test_trailing_zeros_trimmed(self):
        f = poly(Q, (1, 2, 0, 0))
        assert f.coeffs == (Fraction(1), Fraction(2))
        assert f.degree == 1

    def test_zero_polynomial(self):
        z = poly(Q, ())
        assert z.is_zero() and z.degree == -1
        assert z.constant_term() == 0
        with pytest.raises(ZeroPolynomial):
            z.leading()

    def test_product_fixture(self):
        f = poly(Q, (1, 1)) * poly(Q, (-1, 1))
        assert f == poly(Q, (-1, 0, 1))

    def test_pow_matches_repeated_product(self):
        f = poly(GF3, (1, 2, 1))
        assert f ** 3 == f * f * f
        assert f ** 0 == poly(GF3, (1,))

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            poly(Q, (1,)) + poly(GF2, (1,))
        with pytest.raises(FieldMismatch):
            divides(poly(Q, (1, 1)), poly(GF2, (1, 1)))

    def test_division_invariant_randomized(self):
        rng = SplitMix64(7)
        for _ in range(200):
            f = poly(GF3, [rng.below(3) for _ in range(rng.below(7) + 1)])
            g = poly(GF3, [rng.below(3) for _ in range(rng.below(5) + 1)])
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroPolynomial):
            divmod(poly(Q, (1, 1)), poly(Q, ()))

    def test_gcd_lcm_fixture(self):
        a = poly(Q, (1, 1)) * poly(Q, (1, 1)) * poly(Q, (2, 1))
        b = poly(Q, (1, 1)) * poly(Q, (3, 1))
        g = poly_gcd(a, b)
        assert g == poly(Q, (1, 1))
        m = poly_lcm(a, b)
        assert divides(a, m) and divides(b, m)
        assert (a * b).monic() == (g * m).monic()

    def test_gcd_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_gcd(poly(Q, ()), poly(Q, (1,)))

    def test_monic_and_evaluate(self):
        f = poly(Q, (2, 4)).monic()
        assert f == poly(Q, ("1/2", 1))
        assert f.evaluate(2) == Fraction(5, 2)
        assert poly(GF2, (1, 1, 1)).evaluate(1) == 1

    def test_derivative(self):
        assert poly(Q, (5, 3, 1)).derivative() == poly(Q, (3, 2))
        # d/dx of x^2 vanishes in characteristic 2
        assert poly(GF2, (0, 0, 1)).derivative().is_zero()

    def test_immutable(self):
        f = poly(Q, (1,))
        with pytest.raises(AttributeError):
            f.coeffs = (2,)


def _random_poly(rng, field, top):
    """Nonzero of degree at most top, about one coefficient in three zero;
    over Q the coefficients are small fractions."""
    def scalar():
        if rng.chance(0.3):
            return 0
        if field.p is None:
            return Fraction(rng.below(11) - 5, 1 + rng.below(4))
        return rng.below(field.p)
    while True:
        f = poly(field, [scalar() for _ in range(1 + rng.below(top + 1))])
        if f:
            return f


def _in_field(f):
    """Trimmed, with ints in range(p) over GF(p), and over Q in canonical form:
    an int when integral, a Fraction exactly when the denominator is above 1."""
    if f.coeffs and f.coeffs[-1] == 0:
        return False
    if f.field.p is None:
        return all(type(c) is int or type(c) is Fraction and c.denominator > 1
                   for c in f.coeffs)
    return all(type(c) is int and 0 <= c < f.field.p for c in f.coeffs)


class TestSharedKernels:
    """Poly's product, division, gcd, lcm and divides, which run on the list
    kernels that factoring shares, and the remainder loop _rem on an
    unreduced product, as factoring's residue rings call it, checked by
    Horner evaluation (which runs on scalars and shares no code with them)
    at sample points: every point of GF(2), GF(3) and GF(101), and 40 points
    of GF(2^31 - 1) and Q, more than any degree here, so there the
    identities are exact."""

    FIELDS = (FieldSpec.prime_field(2), FieldSpec.prime_field(3),
              FieldSpec.prime_field(101), FieldSpec.prime_field(2**31 - 1), Q)

    @staticmethod
    def _points(field, rng):
        if field.p is not None and field.p <= 101:
            return list(range(field.p))
        if field.p is None:
            return [Fraction(rng.below(41) - 20, 1 + rng.below(5)) for _ in range(40)]
        return [rng.below(field.p) for _ in range(40)]

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.label)
    def test_operations_agree_with_evaluation(self, field):
        rng = SplitMix64(20261019 + (field.p or 0))

        def reduce(y):
            return y % field.p if field.p else y

        for _ in range(80):
            w, u, v = (_random_poly(rng, field, 5) for _ in range(3))
            a, b = w * u, w * v
            q, r = divmod(a, b)
            g, m = poly_gcd(a, b), poly_lcm(a, b)
            # (a * u) mod b from the schoolbook product, never reduced mod p
            s = Poly._of(field, poly_module._rem(
                poly_module._product(a.coeffs, u.coeffs), b.coeffs, field.p))
            qs = (a * u) // b
            for f in (a, b, q, r, g, m, s, a - b, -a, a.monic(), a.derivative(),
                      a.scale(3), a ** 3):
                assert _in_field(f), (f, [type(c) for c in f.coeffs])
            assert r.degree < b.degree and s.degree < b.degree
            assert g.is_monic() and m.is_monic()
            assert g * m == (a * b).monic()
            assert divides(g, a) and divides(g, b) and divides(w.monic(), g)
            assert divides(a, m) and divides(b, m) and divides(b, a) == r.is_zero()
            assert divides(a, a * u + a)
            assert a.degree < 1 or not divides(a, a + poly(field, (1,)))
            for x in self._points(field, rng):
                ax, bx = a.evaluate(x), b.evaluate(x)
                assert ax == reduce(w.evaluate(x) * u.evaluate(x))
                assert ax == reduce(q.evaluate(x) * bx + r.evaluate(x))
                assert reduce(ax * u.evaluate(x)) \
                    == reduce(qs.evaluate(x) * bx + s.evaluate(x))
                assert (g.evaluate(x) == 0) == (ax == 0 and bx == 0)
                assert (m.evaluate(x) == 0) == (ax == 0 or bx == 0)

    def test_rational_results_are_canonical(self):
        # quotients and products whose middle coefficients never receive a term
        q, r = divmod(poly(Q, (-1, 0, 0, 0, 1)), poly(Q, (-1, 0, 1)))
        assert q == poly(Q, (1, 0, 1)) and r.is_zero()
        half = Fraction(1, 2)
        # unreduced products whose Fraction terms are integral: below the
        # divisor's degree the remainder is the product itself, reduced
        low = poly_module._product((half, 1), (2,))
        assert [type(c) for c in low] == [Fraction, int]
        assert poly_module._divmod(low, (1, 1, 1), None) == ([], [1, 2])
        lows = [Poly._of(Q, poly_module._divmod(low, (1, 1, 1), None)[1]),
                Poly._of(Q, poly_module._rem(low, (1, 1, 1), None))]
        # non-monic primitive factors: 4x - 1 and 2x^2 + 4x + 3
        fac = factor(poly(Q, (3, 4, 2)) * poly(Q, (-1, 4)))
        assert fac == [(poly(Q, (-half / 2, 1)), 1), (poly(Q, (3 * half, 2, 1)), 1)]
        for f in (q, *lows, poly(Q, (1, 0, 0, 1)) * poly(Q, (2,)),
                  poly_lcm(poly(Q, (1, 0, 1)), poly(Q, (2, 0, 0, 2))),
                  poly(Q, (1, 0, 0, 0, 1)) ** 2,
                  # a leading coefficient that is no unit of Z
                  poly(Q, (2, half, 4)).monic(), poly(Q, (4, 6, 2)).monic(),
                  poly(Q, (half, half)) + poly(Q, (half, half)),
                  poly(Q, ("4/2", "-6/4", Fraction(8, 4))),
                  *(g for g, _ in fac)):
            assert _in_field(f), f.coeffs
        assert type(Q.coerce("4/2")) is int and Q.coerce("4/2") == 2
        assert type(Q.coerce(Fraction(6, 3))) is int
        assert type(Q.coerce("-6/4")) is Fraction


def test_arithmetic_does_not_load_factoring():
    # importing lpaideals and doing ring arithmetic must not import the
    # factoring module, which only factor loads
    code = """
import sys
import lpaideals
from lpaideals.poly import FieldSpec, divides, normalize_laurent, poly, poly_gcd, poly_lcm
for field in (FieldSpec.rationals(), FieldSpec.prime_field(7)):
    a, b = poly(field, (1, 2, 1)), poly(field, (3, 3))
    assert divides(b, a * b) and divmod(a * b, b)[0] == a
    assert poly_gcd(a, b) == b.monic() and poly_lcm(a, b) == a
    normalize_laurent(a ** 3 - b)
assert "lpaideals.factoring" not in sys.modules
"""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


class TestLaurentNormalForm:
    def test_unit_scaling_and_shift_collapse(self):
        # 3x^3 + 3x^2 is an associate of x + 1 in K[x, 1/x]
        cls = normalize_laurent(poly(Q, (0, 0, 3, 3)))
        assert cls.rep == poly(Q, (1, 1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            normalize_laurent(poly(Q, ()))

    def test_representative_validation(self):
        with pytest.raises(ValueError):
            LaurentClass(poly(Q, (0, 1)))
        with pytest.raises(ValueError):
            LaurentClass(poly(Q, (1, 2)))

    def test_class_arithmetic(self):
        a = normalize_laurent(poly(GF2, (1, 1)))
        b = normalize_laurent(poly(GF2, (1, 1, 1)))
        assert (a * b).rep == poly(GF2, (1, 0, 0, 1))
        assert (a ** 2).rep == poly(GF2, (1, 0, 1))
        assert a.degree == 1 and a.field == GF2

    def test_degree_zero_class_is_unit(self):
        cls = normalize_laurent(poly(Q, (7,)))
        assert cls.degree == 0
        assert not is_irreducible_laurent(cls)


class TestFactorization:
    def test_irreducible_sieve_gf2(self):
        polys = monic_irreducibles(GF2, 4)
        # degree tallies over GF(2): 2, 1, 2, 3
        by_degree = {}
        for f in polys:
            by_degree[f.degree] = by_degree.get(f.degree, 0) + 1
        assert by_degree == {1: 2, 2: 1, 3: 2, 4: 3}

    def test_irreducible_sieve_needs_prime_field(self):
        with pytest.raises(ValueError):
            monic_irreducibles(Q, 3)

    def test_factor_fixture_gf2(self):
        f = poly(GF2, (1, 0, 0, 1))  # x^3 + 1
        assert factor(f) == [
            (poly(GF2, (1, 1)), 1),
            (poly(GF2, (1, 1, 1)), 1),
        ]

    def test_factor_multiplicity_gf2(self):
        f = poly(GF2, (1, 1)) ** 2 * poly(GF2, (1, 1, 1))
        assert factor(f) == [
            (poly(GF2, (1, 1)), 2),
            (poly(GF2, (1, 1, 1)), 1),
        ]

    def test_factor_fixtures_rational(self):
        assert factor(poly(Q, (-1, 0, 1))) == [
            (poly(Q, (-1, 1)), 1),
            (poly(Q, (1, 1)), 1),
        ]
        # x^4 - 4 = (x^2 - 2)(x^2 + 2), both irreducible over Q
        assert factor(poly(Q, (-4, 0, 0, 0, 1))) == [
            (poly(Q, (-2, 0, 1)), 1),
            (poly(Q, (2, 0, 1)), 1),
        ]
        assert factor(poly(Q, (-2, 0, 0, 1))) == [(poly(Q, (-2, 0, 0, 1)), 1)]
        assert factor(poly(Q, (1, 2, 1))) == [(poly(Q, (1, 1)), 2)]

    def test_factor_scales_leading_coefficient(self):
        f = poly(Q, (-2, 0, 2))  # 2(x-1)(x+1)
        fac = factor(f)
        prod = poly(Q, (1,))
        for g, m in fac:
            prod = prod * g ** m
        assert prod.scale(f.leading()) == f

    def test_factor_domain_errors(self):
        with pytest.raises(ZeroPolynomial):
            factor(poly(Q, ()))
        with pytest.raises(ValueError):
            factor(poly(Q, (3,)))
        with pytest.raises(ValueError):
            factor(poly(Q, (0, 1)))

    def test_rational_degree_cap(self, monkeypatch):
        # the Swinnerton-Dyer polynomial of sqrt(2), sqrt(3) is irreducible
        # over Q but splits into four quadratics modulo every prime
        f = poly(Q, (576, 0, -960, 0, 352, 0, -40, 0, 1))
        monkeypatch.setattr(poly_module, "MODULAR_FACTOR_CAP", 3)
        with pytest.raises(DegreeTooLarge, match=r"4 factors.*cap 3"):
            factor(f)
        monkeypatch.undo()
        assert factor(f) == [(f, 1)]
        # degree is no longer capped: x^13 + 1 = (x + 1) * Phi_26
        g = poly(Q, (1,) + (0,) * 12 + (1,))
        assert factor(g) == [(poly(Q, (1, 1)), 1),
                             (poly(Q, (1, -1) * 6 + (1,)), 1)]

    def test_gf_trial_division_cap(self):
        big = FieldSpec.prime_field(1000003)
        # x^4 + x^2 + 5 is irreducible over GF(1000003); trial division
        # would have tried about 10^12 divisors
        f = poly(big, (5, 0, 1, 0, 1))
        assert factor(f) == [(f, 1)]
        assert is_irreducible_laurent(normalize_laurent(f))
        assert factor(poly(big, (2, 3, 1))) == [(poly(big, (1, 1)), 1),
                                                (poly(big, (2, 1)), 1)]
        f = poly(FieldSpec.prime_field(101), (2, 0, 0, 0, 1, 1))
        assert factor(f) == [(f, 1)]

    def test_factor_agrees_with_bruteforce_gf2(self):
        for coeffs in product((0, 1), repeat=5):
            if coeffs[0] == 0:
                continue
            f = poly(GF2, coeffs + (1,))
            assert factor(f) == bruteforce_factor_gf(f), f.pretty()

    def test_factor_agrees_with_bruteforce_gf3(self):
        for coeffs in product((0, 1, 2), repeat=3):
            if coeffs[0] == 0:
                continue
            f = poly(GF3, coeffs + (1,))
            assert factor(f) == bruteforce_factor_gf(f), f.pretty()

    def test_irreducibility_of_laurent_classes(self):
        assert is_irreducible_laurent(normalize_laurent(poly(GF2, (1, 1))))
        assert is_irreducible_laurent(normalize_laurent(poly(GF2, (1, 1, 1))))
        assert not is_irreducible_laurent(normalize_laurent(poly(GF2, (1, 0, 1))))
        assert is_irreducible_laurent(normalize_laurent(poly(Q, (-2, 0, 1))))
        assert not is_irreducible_laurent(normalize_laurent(poly(Q, (-1, 0, 1))))


def _random_monic(rng, field, degree):
    """Monic of the given degree with nonzero constant term over GF(p)."""
    p = field.p
    return poly(field, [1 + rng.below(p - 1)]
                + [rng.below(p) for _ in range(degree - 1)] + [1])


def _product(factors, field):
    out = poly(field, (1,))
    for g in factors:
        out = out * g
    return out


def _eisenstein_prime(g):
    """A prime q dividing every coefficient of the monic integer g but the
    leading one, with q^2 not dividing the constant term, or None."""
    lower = [int(c) for c in g.coeffs[:-1]]
    for q in (2, 3, 5, 7):
        if all(c % q == 0 for c in lower) and lower[0] % (q * q):
            return q
    return None


class TestMemos:
    """factor keeps its answer on the Poly; is_irreducible_laurent reads it."""

    @staticmethod
    def counting(monkeypatch, name):
        from lpaideals import factoring

        calls = []
        original = getattr(factoring, name)

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(factoring, name, counted)
        return calls

    @pytest.mark.parametrize("field,coeffs,kernel", [
        (GF2, (1, 1, 0, 1, 1), "factor_gf"),
        (Q, (-1, 0, 0, 0, 1), "factor_z")])
    def test_factor_runs_once_per_poly(self, monkeypatch, field, coeffs, kernel):
        f = poly(field, coeffs)
        calls = self.counting(monkeypatch, kernel)
        first = factor(f)
        assert factor(f) == first and len(calls) == 1
        # an equal polynomial built afresh is factored again, to the same answer
        assert factor(poly(field, coeffs)) == first and len(calls) == 2

    @pytest.mark.parametrize("field,coeffs,kernel", [
        (GF2, (1, 1, 0, 1), "factor_gf"),
        (Q, (2, 0, 1), "factor_z")])
    def test_irreducibility_runs_once_per_rep(self, monkeypatch, field, coeffs,
                                              kernel):
        # irreducibility is read off the factorization kept on the rep
        c = normalize_laurent(poly(field, coeffs))
        calls = self.counting(monkeypatch, kernel)
        assert is_irreducible_laurent(c) and is_irreducible_laurent(c)
        assert is_irreducible_laurent(LaurentClass(c.rep))
        assert len(calls) == 1

    def test_factor_returns_a_fresh_list(self):
        f = poly(GF2, (1, 0, 0, 1))  # (x + 1)(x^2 + x + 1)
        first = factor(f)
        expected = list(first)
        first.append((f, 7))
        first.reverse()
        assert factor(f) == expected and factor(f) is not factor(f)

    def test_reducible_and_irreducible_answers_both_kept(self):
        reducible = normalize_laurent(poly(GF2, (1, 0, 1)))  # (x + 1)^2
        assert not is_irreducible_laurent(reducible)
        assert not is_irreducible_laurent(reducible)
        assert factor(reducible.rep) == [(poly(GF2, (1, 1)), 2)]

    def test_errors_are_raised_on_every_call(self):
        for f, error in ((poly(Q, ()), ZeroPolynomial), (poly(Q, (0, 1)), ValueError),
                         (poly(Q, (3,)), ValueError)):
            for _ in range(2):
                with pytest.raises(error):
                    factor(f)

    def test_equality_and_hash_ignore_the_memo(self):
        for field, coeffs in ((GF2, (1, 1, 1)), (Q, (Fraction(1, 2), 0, 1))):
            known, fresh = poly(field, coeffs), poly(field, coeffs)
            factor(known)
            is_irreducible_laurent(normalize_laurent(known))
            assert known == fresh and hash(known) == hash(fresh)
            assert {known: 1}[fresh] == 1
            assert known != poly(field, coeffs + (1,))


    @pytest.mark.parametrize("field", [GF2, GF3, Q], ids=["GF(2)", "GF(3)", "Q"])
    def test_products_and_lcms_read_their_factors_off_the_operands(self, field):
        # unique factorization in K[x]: the product adds the multiplicities,
        # the lcm takes the larger; a fresh factorization agrees
        rng = SplitMix64(20261021)
        top = field.p or 5
        for _ in range(40):
            f, g = (normalize_laurent(poly(field, [1 + rng.below(top - 1)]
                                           + [rng.below(top) for _ in range(rng.below(4))]
                                           + [1])).rep for _ in range(2))
            factor(f)
            factor(g)
            for h, join in (((f * g).monic(), operator.add), (poly_lcm(f, g), max)):
                assert with_factors_of(h, f, g, join) is h
                assert factor(h) == poly_module._factor(poly(field, h.coeffs))
        # an operand without a kept factorization gives none
        unknown, h = poly(field, (1, 1)), poly(field, (1, 1)) * poly(field, (1, 1))
        with_factors_of(h, unknown, unknown, operator.add)
        assert getattr(h, "_factors", None) is None


class TestFactorizationProperties:
    """Seeded comparisons of factor() with the reference factorizations."""

    FIELDS = ((2, 10, 60), (3, 8, 60), (5, 6, 60), (7, 6, 40), (31, 5, 30),
              (101, 4, 40))  # (p, top degree, cases)

    @pytest.mark.parametrize("p,top,cases", FIELDS)
    def test_factor_matches_trial_division(self, p, top, cases):
        field = FieldSpec.prime_field(p)
        rng = SplitMix64(20261018 + p)
        for _ in range(cases):
            f = poly(field, (1 + rng.below(p - 1),))
            target = 1 + rng.below(top)
            while f.degree < target:
                g = _random_monic(rng, field, 1 + rng.below(min(3, target - f.degree)))
                mult = 1 + rng.below(p + 1)
                f = f * g ** mult if f.degree + g.degree * mult <= top else f * g
            assert factor(f) == bruteforce_factor_gf(f), f.pretty()

    def test_repeated_factors_and_vanishing_derivative(self):
        # x^4 + 1 = (x + 1)^4 over GF(2), and (x^3 + 2x + 1)^3 over GF(3):
        # both have f' = 0, so the square-free step takes a p-th root
        f = poly(GF2, (1, 0, 0, 0, 1))
        assert f.derivative().is_zero()
        assert factor(f) == [(poly(GF2, (1, 1)), 4)] == bruteforce_factor_gf(f)
        g = poly(GF3, (1, 2, 0, 1))
        assert (g ** 3).derivative().is_zero()
        assert factor(g ** 3) == [(g, 3)] == bruteforce_factor_gf(g ** 3)
        h = poly(GF3, (1, 1)) ** 3 * g ** 6 * poly(GF3, (2, 1)) ** 2
        assert factor(h) == bruteforce_factor_gf(h)

    @pytest.mark.parametrize("p,top,cases", FIELDS)
    def test_ben_or_matches_trial_division(self, p, top, cases):
        # the library's verdict, read off factor(), and the oracle Ben-Or
        # both match trial division
        field = FieldSpec.prime_field(p)
        rng = SplitMix64(20261019 + p)
        for _ in range(cases):
            f = _random_monic(rng, field, 1 + rng.below(top))
            expected = bruteforce_factor_gf(f) == [(f, 1)]
            assert is_irreducible_laurent(normalize_laurent(f)) == expected, f.pretty()
            assert irreducible_gf(f) == expected, f.pretty()

    def test_zassenhaus_matches_kronecker(self):
        rng = SplitMix64(20261018)
        for _ in range(40):
            f = poly(Q, (1 + rng.below(3),))
            target = 1 + rng.below(8)
            while f.degree < target:
                d = 1 + rng.below(min(2, target - f.degree))
                g = poly(Q, [rng.below(5) - 2 for _ in range(d)] + [1 + rng.below(2)])
                if g.constant_term() == 0:
                    continue
                f = f * g * g if rng.chance(0.2) and f.degree + 2 * d <= 8 else f * g
            assert factor(f) == kronecker_factor_rational(f), f.pretty()
            assert is_irreducible_laurent(normalize_laurent(f)) \
                == (factor(f) == [(f.monic(), 1)])

    def test_cyclotomic_factors_of_x24_minus_1(self):
        # x^n - 1 is the product of the cyclotomic Phi_d over d | n, and
        # Phi_n = (x^n - 1) / prod Phi_d over the proper divisors d
        phi = {}
        for n in (1, 2, 3, 4, 6, 8, 12, 24):
            f = poly(Q, (-1,) + (0,) * (n - 1) + (1,))
            phi[n] = f // _product([phi[d] for d in phi if n % d == 0], Q)
        f = poly(Q, (-1,) + (0,) * 23 + (1,))
        fac = factor(f)
        assert Counter(dict(fac)) == Counter({g: 1 for g in phi.values()})
        assert _product([g ** m for g, m in fac], Q) == f

    def test_eisenstein_product_of_degree_24(self):
        rng = SplitMix64(20261018)
        factors = []
        while sum(g.degree for g in factors) < 24:
            d = min(1 + rng.below(6), 24 - sum(g.degree for g in factors))
            q = rng.choice((2, 3, 5, 7))
            # q divides every lower coefficient and q^2 not the constant term
            lower = [q * (rng.below(5) - 2) for _ in range(d - 1)]
            factors.append(poly(Q, [q * rng.choice((1, -1)) * (1 + rng.below(q - 1))]
                                + lower + [1]))
        f = _product(factors, Q).scale(6)
        fac = factor(f)
        assert Counter(dict(fac)) == Counter(factors)
        assert _product([g ** m for g, m in fac], Q).scale(6) == f
        # Eisenstein's criterion certifies each factor irreducible
        assert all(_eisenstein_prime(g) for g, _ in fac)

    FACTOR_DIGEST = "948c1057f7692427481f3325e1204bb448b03bdc00aaa437c4f4455727fdc098"

    def test_factor_matches_the_recorded_digest(self):
        # SHA-256 of factor() on seeded products of random pieces, squares
        # and cubes included, times a non-monic scalar, recorded before the
        # kernels were last rewritten: a faster factorization must give the
        # same answers, byte for byte
        rng = SplitMix64(20261019)
        records = []
        for field, top in ((GF2, 16), (GF3, 12), (FieldSpec.prime_field(101), 10),
                           (FieldSpec.prime_field(2**31 - 1), 10), (Q, 10)):
            def scalar(low):
                if field.p is None:
                    return Fraction(rng.below(9) - 4 or low, 1 + rng.below(3))
                return rng.below(field.p - low) + low
            for _ in range(40):
                f = poly(field, (scalar(1),))
                target = 1 + rng.below(top)
                while f.degree < target:
                    d = 1 + rng.below(min(3, target - f.degree))
                    g = poly(field, [scalar(1)] + [scalar(0) for _ in range(d - 1)]
                             + [scalar(1)])
                    mult = 1 + rng.below(3)
                    f = f * g ** mult if f.degree + d * mult <= top else f * g
                fac = factor(f)
                assert _product([g ** m for g, m in fac], field).scale(f.leading()) == f
                records.append([field.label, f.to_json(),
                                [[g.to_json(), m] for g, m in fac]])
        assert sum(m > 1 for r in records for _, m in r[2]) > 40
        payload = json.dumps(records).encode()
        assert hashlib.sha256(payload).hexdigest() == self.FACTOR_DIGEST

    def test_two_degree_32_irreducibles_over_a_large_field(self):
        field = FieldSpec.prime_field(2**31 - 1)
        rng = SplitMix64(20261018)
        irreducibles = []
        while len(irreducibles) < 2:
            # drawn by the oracle Ben-Or, which stops at the first factor
            # found; factor() would split every rejected draw completely
            g = _random_monic(rng, field, 32)
            if irreducible_gf(g):
                irreducibles.append(g)
        f = irreducibles[0] * irreducibles[1]
        fac = factor(f)
        assert [m for _, m in fac] == [1, 1]
        assert {g for g, _ in fac} == set(irreducibles)
        assert all(is_irreducible_laurent(normalize_laurent(g)) for g, _ in fac)
        assert _product([g for g, _ in fac], field) == f

    def test_residue_powers_match_repeated_products(self):
        # pow squares from the base and writes x^k down while k < deg f, on
        # both sides of the packing threshold
        from lpaideals.factoring import _PACK_DEGREE, _Residues

        rng = SplitMix64(20261019)
        for p in (2, 3, 101, 2**31 - 1):
            for n in (2, 3, _PACK_DEGREE - 1, _PACK_DEGREE, 2 * _PACK_DEGREE + 1):
                f = [rng.below(p) for _ in range(n)] + [1]
                ring = _Residues(f, p)
                a = poly_module._trim([rng.below(p) for _ in range(n)])
                for base in ([0, 1], a):
                    power = base
                    for e in range(1, 3 * n + 2):
                        assert ring.pow(base, e) == power, (p, n, base, e)
                        power = poly_module._rem(poly_module._product(power, base)
                                                 if power and base else [], f, p)

    @staticmethod
    def _schoolbook_power(a, e, f, p):
        """a^e mod f by square and multiply on _rem(_product(...)) alone."""
        out, base = [1], a
        while e:
            if e & 1:
                out = poly_module._rem(poly_module._product(out, base), f, p)
            e >>= 1
            if e and base:
                base = poly_module._rem(poly_module._product(base, base), f, p)
        return out

    def test_frobenius_matches_repeated_products(self):
        # p = 2 and 3 power (at most two products per step), larger p apply
        # the table of x^(ip) mod f, built on the second residue; x comes
        # first, as in every caller, then a random residue, then the chain
        # x^p, x^(p^2), ...
        from lpaideals.factoring import _PACK_DEGREE, _Residues

        rng = SplitMix64(20261020)
        for p in (2, 3, 5, 7, 101, 2**31 - 1):
            for n in (2, 3, _PACK_DEGREE - 1, _PACK_DEGREE, 2 * _PACK_DEGREE + 1):
                f = [rng.below(p) for _ in range(n)] + [1]
                ring = _Residues(f, p)
                assert ring._powering == (p < 4)
                a = poly_module._trim([rng.below(p) for _ in range(n)]) or [1]
                chain = [[0, 1], a]
                for _ in range(4):
                    chain.append(ring.frobenius(chain[-1] if len(chain) > 2 else [0, 1]))
                for b in chain:
                    want = self._schoolbook_power(b, p, f, p)
                    assert ring.frobenius(b) == want, (p, n, b)

    def test_two_word_slots_multiply_exactly(self):
        # from 2 * bits(p) + bits(n) + 1 > 64 on, a packed slot takes two
        # words; residues of p - 1 everywhere fill the slots the most
        from lpaideals.factoring import _PACK_DEGREE, _Residues

        rng = SplitMix64(20261021)
        for p, words in ((101, 1), (2**31 - 1, 2)):
            for n in (_PACK_DEGREE, _PACK_DEGREE + 3, 2 * _PACK_DEGREE + 1):
                for f in ([p - 1] * n + [1], [rng.below(p) for _ in range(n)] + [1]):
                    ring = _Residues(f, p)
                    assert ring._words == words
                    tops = [p - 1] * n
                    for a, b in ((tops, tops), (tops, [p - 1]),
                                 *(([rng.below(p) for _ in range(n)],
                                    [rng.below(p) for _ in range(1 + rng.below(n))])
                                   for _ in range(10))):
                        a, b = poly_module._trim(a), poly_module._trim(b)
                        want = (poly_module._rem(poly_module._product(a, b), f, p)
                                if a and b else [])
                        assert ring.mul(a, b) == want, (p, n, a, b)


class TestSquarefreeCertificate:
    """Over Q, f square-free modulo one prime that spares lc(f) proves f
    square-free; only inputs with no such certificate among the first
    primes take the gcd over Q on Fractions."""

    SWINNERTON_DYER = poly(Q, (576, 0, -960, 0, 352, 0, -40, 0, 1))

    @staticmethod
    def fraction_gcds(monkeypatch):
        from lpaideals import factoring

        calls = []
        original = factoring._gcd

        def counted(a, b, m):
            if m is None:
                calls.append(len(a) - 1)
            return original(a, b, m)

        monkeypatch.setattr(factoring, "_gcd", counted)
        return calls

    @staticmethod
    def certified(f):
        from lpaideals.factoring import (_CERTIFICATE_PRIMES, _primes_sparing,
                                         _squarefree_mod, primitive)

        g = primitive(f.coeffs)
        tried = list(islice(_primes_sparing(g[-1]), _CERTIFICATE_PRIMES))
        return [p for p in tried if _squarefree_mod(g, p)], tried

    def test_a_square_free_f_with_repeated_roots_mod_small_primes(self, monkeypatch):
        # x^2 - 30 has the double root 0 modulo 2, 3 and 5, so no certificate
        # is found and the gcd over Q proves it square-free
        f = poly(Q, (-30, 0, 1))
        assert self.certified(f) == ([], [2, 3, 5])
        calls = self.fraction_gcds(monkeypatch)
        assert factor(f) == [(f, 1)] == kronecker_factor_rational(f)
        assert calls == [2]

    def test_leading_coefficient_divisible_by_2_3_5(self, monkeypatch):
        # the primes that divide lc(f) are skipped: f is tried modulo 7, 11, 13
        f = poly(Q, (-1, 3, 0, 30)) * poly(Q, (2, 1))
        assert self.certified(f) == ([7, 11], [7, 11, 13])
        calls = self.fraction_gcds(monkeypatch)
        assert factor(f) == kronecker_factor_rational(f)
        assert calls == []

    def test_a_repeated_factor_takes_the_rational_gcd(self, monkeypatch):
        # g^2 h: g keeps its degree modulo every prime sparing lc, so no
        # prime certifies, and the one gcd over Q finds the square-free part
        g, h = poly(Q, (1, 1, 1)), poly(Q, (-3, 2))
        f = g ** 2 * h
        assert self.certified(f)[0] == []
        calls = self.fraction_gcds(monkeypatch)
        assert factor(f) == [(h.monic(), 1), (g, 2)] == kronecker_factor_rational(f)
        assert calls == [5]

    def test_a_certified_input_never_runs_the_rational_gcd(self, monkeypatch):
        rng = SplitMix64(20261019)
        calls = self.fraction_gcds(monkeypatch)
        checked = 0
        for _ in range(60):
            f = poly(Q, [rng.below(7) - 3 or 1] + [rng.below(7) - 3 for _ in range(2)]
                     + [1 + rng.below(30)])
            if not self.certified(f)[0]:
                continue
            before = len(calls)
            assert factor(f) == kronecker_factor_rational(f), f.pretty()
            assert len(calls) == before, f.pretty()
            checked += 1
        assert checked > 40

    def test_zassenhaus_takes_the_certificate_verdicts(self, monkeypatch):
        # the good primes of Zassenhaus are chosen without testing again a
        # prime the certificate tried on the same polynomial: x^2 - 30 is
        # refused modulo 2, 3 and 5 once, and the choice starts at 7
        from lpaideals import factoring

        tested = Counter()
        original = factoring._squarefree_mod

        def counted(f, p):
            tested[tuple(f), p] += 1
            return original(f, p)

        monkeypatch.setattr(factoring, "_squarefree_mod", counted)
        assert factor(poly(Q, (-30, 0, 1))) == [(poly(Q, (-30, 0, 1)), 1)]
        assert sorted(p for _, p in tested)[:4] == [2, 3, 5, 7]
        assert set(tested.values()) == {1}
        rng = SplitMix64(20261020)
        for _ in range(40):
            tested.clear()
            f = poly(Q, [rng.below(9) - 4 or 1] + [rng.below(9) - 4 for _ in range(3)]
                     + [1 + rng.below(12)])
            assert factor(f) == kronecker_factor_rational(f), f.pretty()
            assert set(tested.values()) <= {1}, f.pretty()

    def test_squared_swinnerton_dyer_at_the_modular_factor_cap(self, monkeypatch):
        # SD splits into four factors modulo every prime: its square is
        # reduced to SD by the gcd over Q, whose four modular factors are
        # exactly at a cap of 4 and one past a cap of 3
        sd = self.SWINNERTON_DYER
        calls = self.fraction_gcds(monkeypatch)
        monkeypatch.setattr(poly_module, "MODULAR_FACTOR_CAP", 4)
        assert factor(sd ** 2) == [(sd, 2)] and calls == [16]
        assert irreducible_z(sd, cap=4) and not irreducible_z(sd ** 2, cap=4)
        monkeypatch.setattr(poly_module, "MODULAR_FACTOR_CAP", 3)
        with pytest.raises(DegreeTooLarge, match=r"4 factors.*cap 3"):
            factor(sd ** 2)
