"""Exact polynomial arithmetic, Laurent normal form, and factorization."""

from fractions import Fraction
from itertools import product

import pytest

import lpaideals
from lpaideals import poly as poly_module
from lpaideals.errors import DegreeTooLarge, FieldMismatch, ZeroPolynomial
from lpaideals.oracles import bruteforce_factor_gf, monic_irreducibles
from lpaideals.poly import (
    FieldSpec,
    LaurentClass,
    divides,
    factor,
    is_irreducible_laurent,
    normalize_laurent,
    poly,
    poly_gcd,
    poly_lcm,
)
from lpaideals.rng import SplitMix64

Q = FieldSpec.rationals()
GF2 = FieldSpec.prime_field(2)
GF3 = FieldSpec.prime_field(3)


def test_package_attribute_is_the_module():
    # the root package must not export a name that shadows the submodule
    assert lpaideals.poly.KRONECKER_DEGREE_CAP == 12


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


class TestLaurentNormalForm:
    def test_unit_scaling_and_shift_collapse(self):
        # 3x^3 + 3x^2 is an associate of x + 1 in K[x, 1/x]
        cls = normalize_laurent(poly(Q, (0, 0, 3, 3)))
        assert cls.rep == poly(Q, (1, 1))
        assert normalize_laurent(poly(Q, (0, 0, 3, 3)), shift=-5) == cls

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
        f = poly(Q, (1,) + (0,) * 12 + (1,))  # degree 13
        with pytest.raises(DegreeTooLarge):
            factor(f)
        monkeypatch.setattr(poly_module, "KRONECKER_DEGREE_CAP", 13)
        assert factor(f)

    def test_gf_trial_division_cap(self, monkeypatch):
        big = FieldSpec.prime_field(1000003)
        with pytest.raises(DegreeTooLarge, match=r"GF\(1000003\).*65536"):
            factor(poly(big, (5, 0, 1, 0, 1)))
        # (x+1)(x+2) over GF(1000003) stops at its root -2, far below the cap
        assert factor(poly(big, (2, 3, 1))) == [(poly(big, (1, 1)), 1),
                                                (poly(big, (2, 1)), 1)]
        # an irreducible quintic over GF(101) tries 101 + 101**2 = 10302 divisors
        f = poly(FieldSpec.prime_field(101), (2, 0, 0, 0, 1, 1))
        monkeypatch.setattr(poly_module, "GF_TRIAL_CAP", 10302)
        assert factor(f) == [(f, 1)]
        monkeypatch.setattr(poly_module, "GF_TRIAL_CAP", 10301)
        with pytest.raises(DegreeTooLarge, match=r"GF\(101\).*10301"):
            factor(f)

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
