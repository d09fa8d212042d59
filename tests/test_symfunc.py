"""Symmetric function bases, conversions, and serialization."""

from fractions import Fraction

import pytest

from hessllt.characters import graded_dimension
from hessllt.qrat import QPoly, QRat
from hessllt.symfunc import TABLE_BUDGET, SymFunc, murnaghan_nakayama, tables
from oracles import (
    basis_tables_by_inversion,
    complete_homogeneous,
    elementary,
    frac_inverse,
    power_sum,
    schur,
)

BASES = ("m", "e", "h", "p", "s")


class TestBasisConversions:
    def test_e2_in_p(self):
        f = elementary((2,)).in_basis("p")
        assert f.coeff((1, 1)) == QRat.of(Fraction(1, 2))
        assert f.coeff((2,)) == QRat.of(Fraction(-1, 2))

    def test_h2_in_p(self):
        f = complete_homogeneous((2,)).in_basis("p")
        assert f.coeff((1, 1)) == QRat.of(Fraction(1, 2))
        assert f.coeff((2,)) == QRat.of(Fraction(1, 2))

    def test_s21_in_m(self):
        f = schur((2, 1)).in_basis("m")
        assert f.coeff((2, 1)) == QRat.one()
        assert f.coeff((1, 1, 1)) == QRat.of(2)
        assert f.coeff((3,)) == QRat.zero()

    def test_e_equals_h_transpose_via_schur(self):
        # e_{21} = s_{21} + s_{111}
        f = elementary((2, 1)).in_basis("s")
        assert f.coeff((2, 1)) == QRat.one()
        assert f.coeff((1, 1, 1)) == QRat.one()
        assert f.coeff((3,)) == QRat.zero()

    def test_round_trip_all_bases(self):
        start = schur((3, 1)) + schur((2, 2)).scale(QRat.q())
        f = start
        for basis in BASES:
            f = f.in_basis(basis)
        assert f == start

    def test_cross_basis_equality(self):
        assert elementary((1, 1)) == power_sum((1, 1))
        assert elementary((2,)) != power_sum((2,))


def frac_product(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


class TestClosedFormTables:
    """The closed-form tables against the Fraction inversion they replace."""

    @pytest.mark.parametrize("n", range(TABLE_BUDGET + 1))
    def test_tables_equal_the_inversion_route(self, n):
        to_p, from_p = basis_tables_by_inversion(n)
        assert tables(n).to_p == to_p
        assert tables(n).from_p == from_p

    @pytest.mark.parametrize("n", range(TABLE_BUDGET + 1))
    def test_each_table_is_the_inverse_of_its_partner(self, n):
        tab = tables(n)
        size = len(tab.parts)
        identity = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        for basis in ("m", "e", "h", "s"):
            to_p, from_p = tab.to_p[basis], tab.from_p[basis]
            assert to_p == frac_inverse(from_p), basis
            assert from_p == frac_inverse(to_p), basis
            assert frac_product(to_p, from_p) == identity, basis
            assert frac_product(from_p, to_p) == identity, basis

    @pytest.mark.parametrize("basis", ["h", "e"])
    def test_newton_expansions_of_p2_and_p3(self, basis):
        # p_2 = 2h_2 - h_11 and p_3 = 3h_3 - 3h_21 + h_111; omega maps h_lam
        # to e_lam and p_k to (-1)^(k-1) p_k
        expected = {2: {(2,): 2, (1, 1): -1}, 3: {(3,): 3, (2, 1): -3, (1, 1, 1): 1}}
        for k, terms in expected.items():
            sign = (-1) ** (k - 1) if basis == "e" else 1
            f = power_sum((k,)).in_basis(basis)
            assert f.coeffs == {lam: QRat.of(sign * c) for lam, c in terms.items()}


class TestOperations:
    def test_omega(self):
        assert elementary((2, 1)).omega() == complete_homogeneous((2, 1))
        assert power_sum((2,)).omega() == -power_sum((2,))
        assert power_sum((3,)).omega() == power_sum((3,))
        f = schur((2, 1))
        assert f.omega().omega() == f

    def test_omega_fixes_self_conjugate_schur(self):
        assert schur((2, 1)).omega() == schur((2, 1))

    def test_scale_and_linear(self):
        f = elementary((2,))
        assert f + f == f.scale(QRat.of(2))
        assert (f - f).in_basis("m") == SymFunc.zero(2, "m")

    def test_plethysm_scale(self):
        # f -> f[aX]: every p_k picks up one factor of a, so
        # e_2 = (p_11 - p_2)/2 becomes (a^2 p_11 - a p_2)/2
        f = elementary((2,)).plethysm_scale(QRat.of(2)).in_basis("p")
        assert f.coeff((1, 1)) == QRat.of(2)
        assert f.coeff((2,)) == QRat.of(-1)

    def test_dimension_series(self):
        # graded_dimension reads n! [p_(1^n)] f; the oracle is the
        # coefficient [m_(1^n)] f = <f, h_(1^n)>, the same number
        for f, dim in ((schur((2, 1)), 2), (schur((2, 2)), 2), (elementary((1, 1, 1)), 6)):
            assert f.in_basis("m").coeff((1,) * f.n) == QRat.of(dim)
            assert graded_dimension(f) == QRat.of(dim)

    def test_subs_coeffs(self):
        f = elementary((2,)).scale(QRat.q())
        g = f.subs_coeffs(lambda c: c.subs_q_plus_one())
        assert g.coeff((2,)) == QRat.q() + 1


class TestMurnaghanNakayama:
    def test_s3_character_table(self):
        table = {
            (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
            (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
            (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
        }
        for lam, row in table.items():
            for mu, value in row.items():
                assert murnaghan_nakayama(lam, mu) == value

    def test_s4_sample_values(self):
        assert murnaghan_nakayama((2, 2), (1, 1, 1, 1)) == 2
        assert murnaghan_nakayama((2, 2), (2, 2)) == 2
        assert murnaghan_nakayama((2, 2), (3, 1)) == -1
        assert murnaghan_nakayama((2, 2), (4,)) == 0
        assert murnaghan_nakayama((3, 1), (2, 1, 1)) == 1

    def test_column_orthogonality_identity_class(self):
        # sum of squares of dimensions is the group order
        from hessllt.combinat import partitions_of

        for n in (3, 4, 5):
            total = sum(
                murnaghan_nakayama(lam, (1,) * n) ** 2 for lam in partitions_of(n)
            )
            import math

            assert total == math.factorial(n)


class TestSerialization:
    def test_to_json_obj(self):
        f = elementary((2,)).scale(QRat.q() + 1)
        assert f.to_json_obj() == {
            "basis": "e",
            "n": 2,
            "terms": [{"partition": [2], "coeff": "(q + 1)/(1)"}],
        }

    def test_to_latex(self):
        assert (elementary((2,)).scale(QRat.q() + 1)).to_latex() == "(q + 1)e_{2}"
        assert schur((2, 1)).to_latex() == "s_{21}"
        assert SymFunc.basis_element("e", (10, 1)).to_latex() == "e_{10,1}"
        assert SymFunc.zero(2, "e").to_latex() == "0"

    def test_is_e_positive_shifted(self):
        f = elementary((2,)).scale(QRat.q() ** 2) + elementary((1, 1))
        positive, table = f.is_e_positive_shifted()
        assert positive
        assert table[(2,)] == QPoly((1, 2, 1))  # (q+1)^2
        assert table[(1, 1)] == QPoly.one()

    def test_is_e_positive_shifted_detects_negative(self):
        f = elementary((2,)).scale(QRat.q() - 5)
        positive, table = f.is_e_positive_shifted()
        assert not positive
        assert table[(2,)] == QPoly((-4, 1))

    def test_from_q_table(self):
        f = SymFunc.from_q_table("e", 2, {(2,): QPoly((1, 1))})
        assert f == elementary((2,)).scale(QRat.q() + 1)
