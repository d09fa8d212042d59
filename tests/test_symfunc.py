"""Symmetric function bases, conversions, and serialization."""

from fractions import Fraction

from hessllt.qrat import QPoly, QRat
from hessllt.symfunc import SymFunc, murnaghan_nakayama
from oracles import complete_homogeneous, elementary, power_sum, schur

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


class TestOperations:
    def test_omega(self):
        assert elementary((2, 1)).omega() == complete_homogeneous((2, 1))
        assert power_sum((2,)).omega() == -power_sum((2,))
        assert power_sum((3,)).omega() == power_sum((3,))
        f = schur((2, 1))
        assert f.omega().omega() == f

    def test_omega_fixes_self_conjugate_schur(self):
        assert schur((2, 1)).omega() == schur((2, 1))

    def test_pieri_multiplication(self):
        prod = schur((1,)) * schur((1,))
        assert prod == schur((2,)) + schur((1, 1))
        assert elementary((1,)) * elementary((1,)) == elementary((1, 1))

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
        assert schur((2, 1)).dimension_series() == QRat.of(2)
        assert schur((2, 2)).dimension_series() == QRat.of(2)
        assert elementary((1, 1, 1)).dimension_series() == QRat.of(6)

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
