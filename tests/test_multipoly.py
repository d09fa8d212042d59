"""Sparse multivariate polynomials with int, Fraction and vector coefficients."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessllt.combinat import all_permutations, compose, inverse
from hessllt.multipoly import (
    monomial_positions,
    monomials,
    mp_add,
    mp_divide_linear,
    mp_is_zero,
    mp_mul,
    mp_permute,
    mp_sub,
    mp_var,
)
from oracles import mp_subst_var


def t(i, n=3):
    return mp_var(n, i)


def rand_mp(draw_terms):
    poly = {}
    for exps, c in draw_terms:
        poly = mp_add(poly, {tuple(exps): Fraction(c)})
    return {e: c for e, c in poly.items() if c}


def rand_int_mp(draw_terms):
    poly = {}
    for exps, c in draw_terms:
        poly = mp_add(poly, {tuple(exps): c})
    return poly


terms_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
        st.integers(min_value=-5, max_value=5).filter(bool),
    ),
    max_size=4,
)
mp_strategy = terms_strategy.map(rand_mp)
int_mp_strategy = terms_strategy.map(rand_int_mp)


class TestOps:
    def test_add_cancels(self):
        assert mp_is_zero(mp_sub(t(1), t(1)))
        assert mp_is_zero(mp_add(t(1), {e: Fraction(-c) for e, c in t(1).items()}))

    def test_mul(self):
        prod = mp_mul(mp_sub(t(1), t(2)), mp_add(t(1), t(2)))
        expect = mp_sub(mp_mul(t(1), t(1)), mp_mul(t(2), t(2)))
        assert prod == expect

    @given(mp_strategy, mp_strategy, mp_strategy)
    @settings(max_examples=50, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert mp_mul(a, b) == mp_mul(b, a)
        assert mp_add(a, b) == mp_add(b, a)
        assert mp_mul(mp_add(a, b), c) == mp_add(mp_mul(a, c), mp_mul(b, c))


class TestPermute:
    def test_variable_relabeling(self):
        # t_i -> t_{sigma(i)}
        sigma = (2, 3, 1)
        assert mp_permute(t(1), sigma) == t(2)
        assert mp_permute(t(3), sigma) == t(1)

    @given(mp_strategy, st.sampled_from(all_permutations(3)), st.sampled_from(all_permutations(3)))
    @settings(max_examples=50, deadline=None)
    def test_composition_law(self, a, sigma, tau):
        # applying tau then sigma relabels by compose(sigma, tau)
        assert mp_permute(mp_permute(a, tau), sigma) == mp_permute(a, compose(sigma, tau))

    @given(mp_strategy, st.sampled_from(all_permutations(3)))
    @settings(max_examples=50, deadline=None)
    def test_inverse_round_trip(self, a, sigma):
        assert mp_permute(mp_permute(a, sigma), inverse(sigma)) == a

    @given(mp_strategy, mp_strategy, st.sampled_from(all_permutations(3)))
    @settings(max_examples=50, deadline=None)
    def test_permute_is_ring_map(self, a, b, sigma):
        assert mp_permute(mp_mul(a, b), sigma) == mp_mul(
            mp_permute(a, sigma), mp_permute(b, sigma)
        )


class TestSubstituteDivide:
    def test_subst_var(self):
        assert mp_is_zero(mp_subst_var(mp_sub(t(1), t(2)), 1, 2))
        assert mp_subst_var(mp_mul(t(1), t(3)), 1, 3) == mp_mul(t(3), t(3))

    def test_divide_linear_exact(self):
        f = mp_add(mp_mul(t(1), t(2)), t(3))
        prod = mp_mul(mp_sub(t(1), t(2)), f)
        assert mp_divide_linear(prod, 1, 2) == f

    def test_divide_linear_rejects_inexact(self):
        with pytest.raises(ValueError):
            mp_divide_linear(t(1), 1, 2)

    @given(mp_strategy)
    @settings(max_examples=50, deadline=None)
    def test_divide_undoes_multiply(self, f):
        prod = mp_mul(mp_sub(t(1), t(2)), f)
        assert mp_divide_linear(prod, 1, 2) == f


def batch(polys):
    """The polynomial with vector coefficients whose column k is polys[k]."""
    keys = set().union(*polys)
    return {e: np.array([p.get(e, 0) for p in polys], dtype=object) for e in keys}


def column(poly, k):
    return {e: c[k] for e, c in poly.items() if c[k]}


def columns(poly, count):
    return [column(poly, k) for k in range(count)]


def assert_integral(poly):
    for c in poly.values():
        for x in (c if isinstance(c, np.ndarray) else [c]):
            assert type(x) is int, x


# two equally long lists of integer polynomials
batch_pairs = st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.tuples(
        st.lists(int_mp_strategy, min_size=k, max_size=k),
        st.lists(int_mp_strategy, min_size=k, max_size=k),
    )
)


class TestVectorCoefficients:
    """A batch is checked against the scalar route column by column."""

    @given(batch_pairs)
    @settings(max_examples=50, deadline=None)
    def test_add_and_mul(self, pair):
        A, B = pair
        k = len(A)
        assert columns(mp_add(batch(A), batch(B)), k) == [mp_add(a, b) for a, b in zip(A, B)]
        assert columns(mp_mul(batch(A), batch(B)), k) == [mp_mul(a, b) for a, b in zip(A, B)]
        assert columns(mp_mul(batch(A), B[0]), k) == [mp_mul(a, B[0]) for a in A]
        assert_integral(mp_mul(batch(A), batch(B)))
        assert_integral(mp_mul(A[0], B[0]))

    @given(st.lists(int_mp_strategy, min_size=1, max_size=3), st.sampled_from(all_permutations(3)))
    @settings(max_examples=50, deadline=None)
    def test_permute_and_substitute(self, A, sigma):
        k = len(A)
        assert columns(mp_permute(batch(A), sigma), k) == [mp_permute(a, sigma) for a in A]
        assert columns(mp_subst_var(batch(A), 1, 3), k) == [mp_subst_var(a, 1, 3) for a in A]

    @given(st.lists(int_mp_strategy, min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_divide_linear(self, A):
        lin = mp_sub(t(1), t(2))
        quot = mp_divide_linear(mp_mul(batch(A), lin), 1, 2)
        assert columns(quot, len(A)) == A
        assert_integral(quot)

    def test_one_nondivisible_column_raises(self):
        lin = mp_sub(t(2), t(3))
        A = [mp_mul(t(1), lin), t(1), mp_mul(t(3), lin)]
        assert columns(mp_divide_linear(batch([A[0], A[2]]), 2, 3), 2) == [t(1), t(3)]
        with pytest.raises(ValueError):
            mp_divide_linear(batch(A), 2, 3)

    def test_entries_above_int64(self):
        big = (1 << 63) + 5
        A = [{(1, 0, 0): big, (0, 1, 1): -big}, {(0, 0, 2): 3}]
        lin = mp_sub(t(1), t(3))
        prod = mp_mul(batch(A), lin)
        assert columns(prod, 2) == [mp_mul(a, lin) for a in A]
        assert columns(mp_divide_linear(prod, 1, 3), 2) == A
        assert_integral(prod)

    def test_cancellation_prunes_whole_vectors_only(self):
        a = batch([t(1), t(2)])
        b = batch([t(1), t(3)])
        assert mp_is_zero(mp_sub(a, a))
        diff = mp_sub(a, b)
        assert not mp_is_zero(diff)
        assert (1, 0, 0) not in diff  # both columns cancel there
        assert columns(diff, 2) == [{}, mp_sub(t(2), t(3))]


class TestMonomialCoordinates:
    def test_counts(self):
        for n in (1, 2, 3, 4):
            for d in range(5):
                assert len(monomials(n, d)) == comb(d + n - 1, n - 1)

    def test_descending_lex_order(self):
        assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
        assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_positions_of_the_monomials_are_arange(self):
        for n in range(1, 7):
            for d in range(11):
                exps = np.array(monomials(n, d), dtype=np.int64)
                assert np.array_equal(monomial_positions(exps, d), np.arange(len(exps))), (n, d)

    def test_positions_keep_the_shape_of_the_rows(self):
        exps = np.array([[[0, 2, 0], [1, 0, 1]], [[2, 0, 0], [0, 0, 2]]])
        assert monomial_positions(exps, 2).tolist() == [[3, 2], [0, 5]]

    @pytest.mark.parametrize("row", [(1, 1, 1), (0, 0, 1), (3, -1, 0)])
    def test_a_row_of_another_degree_raises(self, row):
        with pytest.raises(ValueError, match="not monomials of degree 2"):
            monomial_positions(np.array([(1, 1, 0), row]), 2)
