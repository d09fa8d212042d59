"""Permutations, partitions, and Young subgroup combinatorics."""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hessllt.combinat import (
    all_permutations,
    class_representative,
    class_representatives,
    compose,
    composition_from_subset,
    cycle_type,
    identity_perm,
    inverse,
    partition_from_subset,
    partitions_of,
    second_representative,
    subsets_of_interval,
    transposition,
    young_subgroup_order,
)
from oracles import sgn_of_class, young_subgroup_contains


def perms(n):
    return st.sampled_from(all_permutations(n))


class TestPermutations:
    def test_all_permutations_lex(self):
        assert all_permutations(3) == (
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        )
        assert len(all_permutations(4)) == 24

    def test_compose_convention(self):
        # compose(u, w)(i) = u(w(i))
        u = (2, 3, 1)
        w = (1, 3, 2)
        assert compose(u, w) == (2, 1, 3)

    def test_transposition(self):
        assert transposition(4, 2, 4) == (1, 4, 3, 2)

    def test_identity(self):
        assert identity_perm(4) == (1, 2, 3, 4)

    @given(perms(4), perms(4), perms(4))
    @settings(max_examples=60, deadline=None)
    def test_group_axioms(self, u, v, w):
        assert compose(compose(u, v), w) == compose(u, compose(v, w))
        assert compose(u, inverse(u)) == identity_perm(4)
        assert compose(inverse(u), u) == identity_perm(4)

    @given(perms(5), perms(5))
    @settings(max_examples=60, deadline=None)
    def test_cycle_type_conjugation_invariant(self, u, w):
        assert cycle_type(compose(compose(w, u), inverse(w))) == cycle_type(u)

    @given(perms(5))
    @settings(max_examples=30, deadline=None)
    def test_cycle_type_is_partition(self, u):
        mu = cycle_type(u)
        assert sum(mu) == 5
        assert list(mu) == sorted(mu, reverse=True)


class TestPartitionsAndClasses:
    def test_partition_counts(self):
        counts = [len(partitions_of(n)) for n in range(10)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_partitions_shape(self):
        for mu in partitions_of(6):
            assert sum(mu) == 6
            assert list(mu) == sorted(mu, reverse=True)

    def test_class_representative_round_trip(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert cycle_type(class_representative(mu)) == mu

    def test_second_representative(self):
        for n in range(1, 6):
            order = math.factorial(n)
            for mu in partitions_of(n):
                z = 1
                for part, mult in itertools.groupby(mu):
                    k = len(list(mult))
                    z *= part**k * math.factorial(k)
                class_size = order // z
                w2 = second_representative(mu)
                if class_size == 1:
                    assert w2 is None
                else:
                    assert w2 != class_representative(mu)
                    assert cycle_type(w2) == mu

    def test_class_representatives(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                second = second_representative(mu)
                expected = [class_representative(mu)] + ([second] if second else [])
                assert class_representatives(mu) == expected

    def test_sgn_of_class(self):
        assert sgn_of_class((1, 1, 1)) == 1
        assert sgn_of_class((2, 1)) == -1
        assert sgn_of_class((3,)) == 1
        assert sgn_of_class((4,)) == -1


class TestYoungSubgroups:
    def test_subsets_of_interval_order(self):
        assert subsets_of_interval(3) == ((), (1,), (2,), (1, 2))
        assert len(subsets_of_interval(5)) == 16

    def test_composition_and_partition_from_subset(self):
        assert composition_from_subset((1, 3), 4) == (1, 2, 1)
        assert partition_from_subset((1, 3), 4) == (2, 1, 1)
        assert composition_from_subset((), 4) == (4,)
        assert partition_from_subset((2,), 5) == (3, 2)

    def test_young_subgroup_order(self):
        assert young_subgroup_order((1, 3), 4) == 2
        assert young_subgroup_order((), 4) == 24
        assert young_subgroup_order((2,), 5) == 12

    def test_young_subgroup_membership_matches_order(self):
        for I in subsets_of_interval(4):
            members = [
                w for w in all_permutations(4) if young_subgroup_contains(I, 4, w)
            ]
            assert len(members) == young_subgroup_order(I, 4)
            for u in members[:6]:
                for v in members[:6]:
                    assert young_subgroup_contains(I, 4, compose(u, v))
