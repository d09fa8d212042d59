"""Characters as Frobenius images, class values, induced characters, and
Young's seminormal form."""

import re
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest

from hessllt.characters import (
    check_seminormal,
    frobenius_char,
    graded_class_function,
    frobenius_inverse,
    graded_dimension,
    induced_young,
    palindromicity_check,
    regular_character,
    seminormal_matrices,
    sign_character,
    standard_tableaux,
    trivial_character,
    word_product,
)
from hessllt.combinat import all_permutations, compose, partitions_of, subsets_of_interval, transposition
from hessllt.errors import VerificationError
from hessllt.qrat import QPoly, QRat
from oracles import (
    complete_homogeneous,
    elementary,
    induced_young_bruteforce,
    polynomial_algebra_series,
    power_sum,
    schur,
)


class TestBasicCharacters:
    def test_trivial_sign_regular_values(self):
        triv = frobenius_inverse(trivial_character(3))
        sgn = frobenius_inverse(sign_character(3))
        reg = frobenius_inverse(regular_character(3))
        assert triv[(2, 1)] == QRat.one()
        assert sgn[(2, 1)] == QRat.of(-1)
        assert sgn[(3,)] == QRat.one()
        assert reg[(1, 1, 1)] == QRat.of(6)
        assert reg[(2, 1)] == QRat.zero()
        assert reg[(3,)] == QRat.zero()

    def test_sign_twist_involution(self):
        chi = regular_character(4) + trivial_character(4)
        assert chi.omega().omega() == chi
        assert trivial_character(4).omega() == sign_character(4)

    def test_arithmetic(self):
        triv = trivial_character(3)
        assert triv + triv == triv.scale(QRat.of(2))
        assert frobenius_inverse(triv - triv)[(3,)] == QRat.zero()


class TestFrobenius:
    def test_frobenius_of_named_characters(self):
        assert trivial_character(3) == complete_homogeneous((3,))
        assert trivial_character(3) == schur((3,))
        assert sign_character(3) == elementary((3,))
        assert regular_character(3) == power_sum((1, 1, 1))

    def test_round_trip(self):
        for n in (2, 3, 4):
            chi = regular_character(n) + sign_character(n).scale(QRat.q())
            values = frobenius_inverse(chi)
            assert tuple(values) == partitions_of(n)
            assert frobenius_char(n, values) == chi

    def test_constructor_needs_one_value_per_partition(self):
        with pytest.raises(ValueError, match="exactly one value per partition"):
            frobenius_char(3, {(3,): 1, (2, 1): 1})
        with pytest.raises(ValueError, match="exactly one value per partition"):
            frobenius_char(2, {(2,): 1, (1, 1): 1, (3,): 1})

    def test_schur_gives_irreducible_values(self):
        chi = frobenius_inverse(schur((2, 1)))
        assert chi[(1, 1, 1)] == QRat.of(2)
        assert chi[(2, 1)] == QRat.zero()
        assert chi[(3,)] == QRat.of(-1)


class TestInducedYoung:
    def test_matches_bruteforce(self):
        for n in (2, 3, 4):
            for I in subsets_of_interval(n):
                for rep in ("trivial", "sign"):
                    assert induced_young(I, n, rep) == induced_young_bruteforce(
                        I, n, rep
                    ), (n, I, rep)

    def test_full_subset_is_regular(self):
        n = 4
        I = tuple(range(1, n))  # all blocks singletons
        assert induced_young(I, n) == regular_character(n)

    def test_empty_subset_is_trivial_or_sign(self):
        assert induced_young((), 4, "trivial") == trivial_character(4)
        assert induced_young((), 4, "sign") == sign_character(4)

    def test_rejects_bad_rep(self):
        with pytest.raises(ValueError):
            induced_young((1,), 3, "standard")


class TestGradedSeries:
    def test_polynomial_algebra_series_values(self):
        R = frobenius_inverse(polynomial_algebra_series(2))
        assert R[(1, 1)] == QRat(QPoly.one(), QPoly([1, -2, 1]))
        assert R[(2,)] == QRat(QPoly.one(), QPoly([1, 0, -1]))

    def test_graded_class_function_values(self):
        # 1 + (fixed points) q: the trivial plus the defining character
        chi = graded_class_function(3, lambda sigma: [1, sum(sigma[i] == i + 1 for i in range(3))])
        values = frobenius_inverse(chi)
        assert values[(1, 1, 1)] == QRat.one() + QRat.q() * 3
        assert values[(2, 1)] == QRat.one() + QRat.q()
        assert values[(3,)] == QRat.one()

    def test_graded_class_function_rejects_disagreeing_representatives(self):
        # the first letter's image is not a class function
        with pytest.raises(VerificationError, match="disagree"):
            graded_class_function(3, lambda sigma: [sigma[0]])

    def test_graded_dimension(self):
        assert graded_dimension(regular_character(3)) == QRat.of(6)


class TestPalindromicity:
    def test_q_inverse_symmetry(self):
        # chi(mu) = q + 1 for all mu: q * chi(1/q) = 1 + q = chi
        chi = trivial_character(2).subs_coeffs(lambda v: v * (QRat.q() + 1))
        assert palindromicity_check(chi, 1, False)

    def test_detects_failure(self):
        chi = trivial_character(2).subs_coeffs(lambda v: v * (QRat.q() + 2))
        assert not palindromicity_check(chi, 1, False)

    def test_sign_twist(self):
        # omega h_2 = e_2, and q * (h_2 + q e_2)(1/q) = e_2 + q h_2
        chi = trivial_character(2) + sign_character(2).scale(QRat.q())
        assert palindromicity_check(chi, 1, True)
        assert not palindromicity_check(chi, 1, False)

    def test_degree_above_the_shift_is_false_not_an_error(self):
        # q * (q^2 + 1)(1/q) = (1 + q^2) / q is no polynomial
        chi = trivial_character(2).scale(QRat.q() ** 2 + 1)
        assert palindromicity_check(chi, 1, False) is False
        assert palindromicity_check(chi, 2, False)


def hook_length_count(lam):
    """f^lam by the hook length formula."""
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])] if lam else []
    return factorial(sum(lam)) // prod(lam[r] - c + conj[c] - r - 1 for r in range(len(lam)) for c in range(lam[r]))


class TestSeminormalForm:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_shape_up_to_n5(self, n):
        # the constructor's own check has run; the tableaux, dimensions and
        # Wedderburn count are checked here independently
        total = 0
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            assert len(tabs) == len(set(tabs)) == hook_length_count(lam)
            for t in tabs:
                assert sorted(t) == [(r, c) for r in range(len(lam)) for c in range(lam[r])]
                cells = {cell: k for k, cell in enumerate(t)}
                assert all(cells[(r, c)] < cells[(r, c + 1)] for (r, c) in t if (r, c + 1) in cells)
                assert all(cells[(r, c)] < cells[(r + 1, c)] for (r, c) in t if (r + 1, c) in cells)
            mats = seminormal_matrices(lam)
            assert len(mats) == n - 1
            assert all(np.array(m).shape == (len(tabs), len(tabs)) for m in mats)
            assert all(isinstance(x, Fraction) for m in mats for row in m for x in row)
            total += len(tabs) ** 2
        assert total == factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_product_is_a_homomorphism(self, n):
        perms = all_permutations(n)
        for lam in partitions_of(n):
            mats = seminormal_matrices(lam)
            rho = {w: np.array(word_product(mats, w), dtype=object) for w in perms}
            for u in perms:
                for w in perms:
                    assert (rho[u] @ rho[w] == rho[compose(u, w)]).all(), (lam, u, w)
            for i in range(1, n):
                assert word_product(mats, transposition(n, i, i + 1)) == mats[i - 1]

    def test_a_corrupted_entry_raises(self):
        lam = (2, 1)
        mats = [np.array(m, dtype=object) for m in seminormal_matrices(lam)]
        mats[0][0, 0] += 1
        mats = tuple(tuple(map(tuple, m)) for m in mats)
        with pytest.raises(VerificationError, match=re.escape("seminormal form of (2, 1): s_1^2 is not 1")):
            check_seminormal(lam, mats)

    def test_a_broken_braid_relation_raises(self):
        lam = (2, 1)
        s1, _ = seminormal_matrices(lam)
        with pytest.raises(VerificationError, match=re.escape("s_1, s_2 break a braid relation")):
            check_seminormal(lam, (s1, tuple(tuple(-x for x in row) for row in s1)))

    def test_a_wrong_character_raises(self):
        # s_2 := s_1 keeps the relations but sends the 3-cycle to the identity
        lam = (2, 1)
        s1, _ = seminormal_matrices(lam)
        with pytest.raises(VerificationError, match=re.escape("trace on class (3,) is not chi^lam")):
            check_seminormal(lam, (s1, s1))
