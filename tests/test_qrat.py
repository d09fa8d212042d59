"""Exact univariate polynomial and rational-function arithmetic."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessllt import (HessenbergFunction, QPoly, QRat, coinvariant_closed_form_check, format_poly,
                     gkm, gkm_report, hessgraph, symfunc, verify_identities)
from hessllt.errors import PoleError
from oracles import FractionPoly, fraction_rat_string

q = QPoly.q()


def P(*coeffs):
    return QPoly(coeffs)


small_poly = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=0, max_size=5
).map(QPoly)

nonzero_poly = small_poly.filter(lambda p: not p.is_zero())

# Products of (1 - q^k), (q - 1), (q + 1), q and q^2 + 1, so that operands
# share denominator factors and the results have factors to cancel.
_FACTORS = [P(1, -1), P(1, 0, -1), P(1, 0, 0, -1), P(-1, 1), P(1, 1), P(0, 1), P(1, 0, 1)]
factor_product = st.lists(st.sampled_from(_FACTORS), max_size=3).map(
    lambda fs: reduce(QPoly.__mul__, fs, QPoly.one())
)
factored_num = st.builds(QPoly.__mul__, small_poly, factor_product)
factored_den = st.builds(
    QPoly.scale, factor_product, st.sampled_from([1, -1, 2, Fraction(-3, 2)])
)
factored_rat = st.builds(QRat, factored_num, factored_den)


@st.composite
def rat_pairs(draw):
    """Two QRat values; about half the time the second reuses the first's den."""
    x = draw(factored_rat)
    den = x.den if draw(st.booleans()) else draw(factored_den)
    return x, QRat(draw(factored_num), den)


def euclid_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd by the plain Euclid loop, with no shortcut for constants."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def assert_matches_reference(r: QRat, num: QPoly, den: QPoly) -> None:
    """r is structurally QRat(num, den), canonical, and Fraction throughout."""
    ref = QRat(num, den)
    assert (r.num.coeffs, r.den.coeffs) == (ref.num.coeffs, ref.den.coeffs)
    assert euclid_gcd(r.num, r.den) == QPoly.one()
    assert r.den.coeffs[-1] == 1
    assert all(type(c) is Fraction for c in r.num.coeffs + r.den.coeffs)


class TestQPoly:
    def test_degree_is_none_for_zero(self):
        assert QPoly.zero().degree is None
        assert P(0, 0).degree is None
        assert P(7).degree == 0
        assert (q**3).degree == 3

    def test_strip_trailing_zeros(self):
        assert P(1, 2, 0, 0) == P(1, 2)

    def test_coeff_out_of_range_is_zero(self):
        assert P(1, 2).coeff(5) == 0
        assert P(1, 2).coeff(1) == 2

    def test_arithmetic(self):
        assert (q + QPoly.one()) * (q - QPoly.one()) == q**2 - QPoly.one()
        assert P(1, 1) ** 2 == P(1, 2, 1)
        assert P(1, 1) ** 0 == QPoly.one()
        assert QPoly.zero() * q == QPoly.zero()

    def test_monomial(self):
        assert QPoly.monomial(3, Fraction(1, 2)) == q**3 * P(Fraction(1, 2))

    def test_divmod_exact(self):
        quo, rem = (q**2 - QPoly.one()).divmod(q - QPoly.one())
        assert quo == q + QPoly.one()
        assert rem.is_zero()

    def test_divmod_remainder(self):
        quo, rem = (q**2).divmod(q - QPoly.one())
        assert quo == q + QPoly.one()
        assert rem == QPoly.one()

    def test_gcd_is_monic(self):
        g = (P(-1, 1) * P(2, 2)).gcd(P(-1, 1) * P(3, 3, 3))
        assert g == P(-1, 1)

    def test_gcd_with_a_constant_is_one(self):
        assert P(1, 2, 1).gcd(P(3)) == QPoly.one()
        assert P(Fraction(-1, 2)).gcd(P(0, 0, 5)) == QPoly.one()
        assert P(7).gcd(P(2)) == QPoly.one()

    def test_gcd_with_zero_is_the_monic_other(self):
        assert P(2, 4).gcd(QPoly.zero()) == P(Fraction(1, 2), 1)
        assert QPoly.zero().gcd(P(0, 3)) == P(0, 1)
        assert QPoly.zero().gcd(P(-4)) == QPoly.one()
        assert QPoly.zero().gcd(QPoly.zero()) == QPoly.zero()

    def test_gcd_of_nonconstants(self):
        assert P(1, 1).gcd(P(-1, 1)) == QPoly.one()
        assert (P(1, 0, -1) * P(0, 2)).gcd(P(0, 0, 3) * P(1, 0, 0, -1)) == P(0, -1, 1)

    def test_evaluate(self):
        assert P(1, 2, 1).evaluate(Fraction(1, 2)) == Fraction(9, 4)

    def test_compose_shift(self):
        assert (q**2).compose_shift(1) == P(1, 2, 1)
        assert P(5).compose_shift(3) == P(5)

    def test_compose_power(self):
        assert (q + QPoly.one()).compose_power(2) == P(1, 0, 1)

    def test_reversed_to(self):
        assert P(1, 2, 3).reversed_to(2) == P(3, 2, 1)
        assert P(0, 1).reversed_to(3) == P(0, 0, 1)

    def test_format(self):
        assert format_poly(P(-1, 0, 1)) == "q^2 - 1"
        assert format_poly(QPoly.zero()) == "0"
        assert format_poly(P(Fraction(1, 2))) == "1/2"
        assert format_poly(P(0, 2)) == "2*q"

    @given(small_poly, small_poly, small_poly)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + QPoly.zero() == a
        assert a * QPoly.one() == a

    @given(small_poly, nonzero_poly)
    @settings(max_examples=60, deadline=None)
    def test_divmod_identity(self, a, b):
        quo, rem = a.divmod(b)
        assert quo * b + rem == a
        assert rem.is_zero() or rem.degree < b.degree

    @given(small_poly, st.integers(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_respects_shift(self, a, c):
        point = Fraction(3, 7)
        assert a.compose_shift(c).evaluate(point) == a.evaluate(point + c)


class TestQRat:
    def test_reduction_to_lowest_terms(self):
        r = QRat(P(-1, 0, 1), P(-1, 1))  # (q^2-1)/(q-1)
        assert r.is_polynomial()
        assert r.as_poly() == P(1, 1)

    def test_monic_denominator_normalization(self):
        a = QRat(P(1), P(0, 2))
        b = QRat(P(Fraction(1, 2)), P(0, 1))
        assert a == b
        assert a.to_string() == "(1)/(2*q)"

    def test_of(self):
        assert QRat.of(3) == QRat(P(3))
        assert QRat.of(Fraction(2, 5)) * QRat.of(Fraction(5, 2)) == QRat.one()

    def test_field_ops(self):
        r = QRat(P(0, 1), P(1, 1))
        assert r + QRat(P(1), P(1, 1)) == QRat.one()
        assert (QRat.q() - 1) * (QRat.q() + 1) == QRat.q() ** 2 - 1

    def test_subs_q_power(self):
        assert (QRat.q() + 1).subs_q_power(3) == QRat.q() ** 3 + 1

    def test_subs_q_shift(self):
        assert (QRat.q() ** 2).subs_q_shift(1) == (QRat.q() + 1) ** 2
        assert (QRat.q() ** 2).subs_q_plus_one() == (QRat.q() + 1) ** 2

    def test_as_poly_rejects_proper_fractions(self):
        with pytest.raises(ValueError):
            QRat(P(1), P(0, 1)).as_poly()

    def test_evaluate_and_pole(self):
        r = QRat(P(1), P(-1, 1))
        assert r.evaluate(3) == Fraction(1, 2)
        with pytest.raises(PoleError):
            r.evaluate(1)

    def test_to_string_canonical(self):
        assert QRat.zero().to_string() == "(0)/(1)"
        assert (QRat.q() - 1).to_string() == "(q - 1)/(1)"
        r = QRat(P(Fraction(1, 2), Fraction(1, 2)), P(-1, 1))
        assert r.to_string() == "(q + 1)/(2*q - 2)"

    def test_hash_consistency(self):
        assert hash(QRat(P(-1, 0, 1), P(-1, 1))) == hash(QRat(P(1, 1)))

    @given(small_poly, nonzero_poly, small_poly, nonzero_poly)
    @settings(max_examples=50, deadline=None)
    def test_field_axioms(self, a, b, c, d):
        x = QRat(a, b)
        y = QRat(c, d)
        assert x + y == y + x
        assert x * y == y * x
        assert x - x == QRat.zero()
        assert (x + y) * (x - y) == x**2 - y**2

    @given(small_poly, nonzero_poly, st.integers(min_value=-3, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_shift_inverts(self, a, b, c):
        x = QRat(a, b)
        assert x.subs_q_shift(c).subs_q_shift(-c) == x


class TestOperationsAreCanonical:
    """Every operation gives the canonical QRat(num, den) of its result."""

    @given(rat_pairs())
    @example((QRat(P(1), P(1, -1)), QRat(P(0, 1), P(1, -1))))  # shared denominator
    @example((QRat(P(1, 0, -1), P(0, 1)), QRat(P(0, 0, 1), P(1, -1))))  # common factors across the product
    @settings(max_examples=80, deadline=None)
    def test_field_operations(self, pair):
        x, y = pair
        a, b, c, d = x.num, x.den, y.num, y.den
        assert_matches_reference(x + y, a * d + c * b, b * d)
        assert_matches_reference(x - y, a * d - c * b, b * d)
        assert_matches_reference(x * y, a * c, b * d)

    @given(factored_rat, st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_powers(self, x, k):
        assert_matches_reference(x**k, x.num**k, x.den**k)

    @given(factored_rat, st.sampled_from([0, 1, -1, 3, Fraction(2, 3), Fraction(-5, 7)]))
    @settings(max_examples=60, deadline=None)
    def test_scalar_multiplication(self, x, c):
        assert_matches_reference(x * c, x.num.scale(c), x.den)
        assert_matches_reference(c * x, x.num.scale(c), x.den)

    @given(
        factored_rat, st.integers(min_value=1, max_value=3), st.integers(min_value=-3, max_value=3)
    )
    @settings(max_examples=60, deadline=None)
    def test_substitutions(self, x, k, c):
        a, b = x.num, x.den
        assert_matches_reference(x.subs_q_power(k), a.compose_power(k), b.compose_power(k))
        assert_matches_reference(x.subs_q_shift(c), a.compose_shift(c), b.compose_shift(c))


class TestNoFloats:
    """A float would enter exact arithmetic as a binary fraction, so it is refused."""

    def test_qpoly_rejects_a_float_coefficient(self):
        with pytest.raises(TypeError):
            QPoly([1, 0.5])

    def test_of_rejects_floats(self):
        with pytest.raises(TypeError):
            QRat.of(0.1)
        with pytest.raises(TypeError):
            QRat.of(np.float64(0.5))

    def test_scalar_multiplication_rejects_a_float(self):
        with pytest.raises(TypeError):
            QRat.q() * 0.5
        with pytest.raises(TypeError):
            0.5 * QRat.q()


class TestChecksComparePolynomials:
    """The reports compare polynomials in q: an identity with a rational
    function of q is compared with its denominators cleared."""

    def test_every_value_the_reports_build_is_a_polynomial(self, monkeypatch):
        dens = []
        real = QRat.__init__

        def recording(self, *args, **kwargs):
            real(self, *args, **kwargs)
            dens.append(self.den.coeffs)

        monkeypatch.setattr(QRat, "__init__", recording)
        monkeypatch.setattr(gkm, "_space_cache", {})  # rebuild the pieces too
        hessgraph._coloring_symfuncs.cache_clear()
        verify_identities(HessenbergFunction((2, 3, 4, 4)))
        gkm_report(HessenbergFunction((3, 3, 3)))
        coinvariant_closed_form_check(4)
        assert dens and set(dens) == {(1,)}


# Coefficients with non-trivial denominators and both signs.
coefficient = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
coefficient_list = st.lists(coefficient, max_size=5)
fraction_point = st.fractions(min_value=-3, max_value=3, max_denominator=7)
nonzero_scalar = st.one_of(st.integers(min_value=-6, max_value=6).filter(bool), fraction_point.filter(bool))
_COMMON = [[1, -1], [1, 1], [0, 1], [Fraction(1, 2), 0, 1], [-3, 1, 1]]


def assert_canonical(p: QPoly) -> None:
    """den > 0, gcd(den, *num) = 1, no trailing zero, and zero is ((), 1)."""
    assert type(p.den) is int and p.den > 0
    assert all(type(a) is int for a in p.num)
    assert math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert p.num or p.den == 1


def same(p: QPoly, f: FractionPoly) -> None:
    """p is canonical and holds the value of the oracle f."""
    assert_canonical(p)
    assert p.coeffs == f.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)


class TestAgainstFractionPoly:
    """Every operation of the integer-numerator QPoly against the Fraction
    oracle, on coefficients with denominators and both signs."""

    @given(coefficient_list, coefficient_list, st.integers(min_value=0, max_value=3),
           st.one_of(coefficient, nonzero_scalar))
    @example([Fraction(1, 2)], [Fraction(1, 3), Fraction(-1, 6)], 2, Fraction(3, 2))
    @example([Fraction(1, 2), 1], [Fraction(-1, 2), 1], 1, 2)  # the sum is an integer polynomial
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, a, b, k, c):
        (p, f), (r, g) = (QPoly(a), FractionPoly(a)), (QPoly(b), FractionPoly(b))
        same(p, f)
        same(p + r, f + g)
        same(p - r, f - g)
        same(-p, -f)
        same(p * r, f * g)
        same(p.scale(c), f.scale(c))
        same(p**k, f**k)

    @given(coefficient_list, coefficient_list, st.sampled_from(_COMMON))
    @settings(max_examples=100, deadline=None)
    def test_division_gcd_and_monic(self, a, b, common):
        f, g = FractionPoly(a) * FractionPoly(common), FractionPoly(b) * FractionPoly(common)
        p, r = QPoly(a) * QPoly(common), QPoly(b) * QPoly(common)
        if not r.is_zero():
            (pq, pr), (fq, fr) = p.divmod(r), f.divmod(g)
            same(pq, fq)
            same(pr, fr)
        same(p.gcd(r), f.gcd(g))
        same(p.monic(), f.monic())

    @given(coefficient_list, fraction_point, st.integers(min_value=1, max_value=3),
           st.integers(min_value=-3, max_value=3), fraction_point, st.integers(min_value=0, max_value=2))
    @example([Fraction(2, 3), 0, Fraction(-1, 4)], Fraction(-3, 2), 2, -2, Fraction(5, 3), 1)
    @settings(max_examples=150, deadline=None)
    def test_evaluation_substitutions_and_views(self, a, point, k, c, frac_c, extra):
        p, f = QPoly(a), FractionPoly(a)
        value = p.evaluate(point)
        assert type(value) is Fraction and value == f.evaluate(point)
        same(p.compose_power(k), f.compose_power(k))
        same(p.compose_shift(c), f.compose_shift(c))
        same(p.compose_shift(frac_c), f.compose_shift(frac_c))
        deg = (p.degree or 0) + extra
        same(p.reversed_to(deg), f.reversed_to(deg))
        assert p.degree == f.degree
        assert [p.coeff(i) for i in range(-1, len(a) + 2)] == [f.coeff(i) for i in range(-1, len(a) + 2)]
        assert p.is_zero() or p.coeffs[-1] == f.leading()
        assert format_poly(p) == format_poly(f)

    @given(coefficient_list, coefficient_list.filter(lambda cs: FractionPoly(cs).degree),
           st.sampled_from(_COMMON))
    @example([Fraction(1, 2), Fraction(1, 2)], [-1, 1], [1])
    @settings(max_examples=100, deadline=None)
    def test_qrat_to_string(self, a, b, common):
        num, den = FractionPoly(a) * FractionPoly(common), FractionPoly(b) * FractionPoly(common)
        r = QRat(QPoly(num.coeffs), QPoly(den.coeffs))
        assert r.to_string() == fraction_rat_string(num, den)
        assert_canonical(r.num)
        assert_canonical(r.den)

    @given(coefficient_list, coefficient_list, nonzero_scalar)
    @settings(max_examples=100, deadline=None)
    def test_equal_values_are_equal_with_equal_hashes(self, a, b, c):
        p, r = QPoly(a), QPoly(b)
        for other in ((p + r) - r, p.scale(c).scale(1 / Fraction(c)), QPoly(list(a) + [0, Fraction(0)]),
                      QPoly(Fraction(x) for x in a)):
            assert_canonical(other)
            assert (other.num, other.den) == (p.num, p.den)
            assert other == p and hash(other) == hash(p)
        if not r.is_zero():
            assert hash(QRat(p * r, r)) == hash(QRat(p))

    def test_zero_is_the_empty_numerator_over_one(self):
        p = QPoly([Fraction(1, 3), Fraction(-2, 7)])
        for zero in (QPoly(), QPoly.zero(), QPoly([0, Fraction(0)]), p - p, p.scale(0),
                     p * QPoly.zero(), QPoly([Fraction(1, 2)]).compose_shift(3) - QPoly([Fraction(1, 2)])):
            assert (zero.num, zero.den) == ((), 1)


FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
    "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)


class TestNoFractionArithmeticOnTheIdentityPath:
    """With its basis tables built, the identity suite of one h runs in the
    integers of QPoly: no Fraction operator is called, csf and llt included."""

    def test_verify_identities_calls_no_fraction_operator(self, monkeypatch):
        symfunc.tables(4)
        hessgraph._coloring_symfuncs.cache_clear()  # csf and llt are built in the run
        calls = []

        def counting(name):
            real = getattr(Fraction, name)

            def op(*args):
                calls.append(name)
                return real(*args)

            return op

        for name in FRACTION_ARITHMETIC:
            monkeypatch.setattr(Fraction, name, counting(name))
        assert Fraction(1, 2) * 3 == Fraction(3, 2) and calls == ["__mul__"]
        calls.clear()
        report = verify_identities(HessenbergFunction((2, 3, 4, 4)))
        monkeypatch.undo()
        assert report and all(c["passed"] for c in report)
        assert calls == []
