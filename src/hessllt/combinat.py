"""Partitions, permutations in one-line notation, and subset combinatorics.

Conventions used throughout the package:

* a partition is a tuple of weakly decreasing positive ints;
* a permutation w of [n] is a tuple (w(1), ..., w(n)) of 1-based values;
* composition acts right factor first: (u * w)(i) = u(w(i));
* a subset I of [n-1] is a sorted tuple of ints and determines the
  composition (i_1, i_2 - i_1, ..., n - i_d) of consecutive block sizes.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import BudgetExceededError

Partition = tuple[int, ...]
Permutation = tuple[int, ...]

PARTITION_BUDGET = 12
PERMUTATION_BUDGET = 8


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    if not 0 <= n <= PARTITION_BUDGET:
        raise BudgetExceededError(f"partitions_of supports 0 <= n <= {PARTITION_BUDGET}, got {n}")

    def gen(remaining: int, largest: int) -> list[Partition]:
        if remaining == 0:
            return [()]
        out = []
        for part in range(min(remaining, largest), 0, -1):
            out.extend((part,) + rest for rest in gen(remaining - part, part))
        return out

    return tuple(gen(n, n))


def sort_to_partition(parts: tuple[int, ...]) -> Partition:
    return tuple(sorted((p for p in parts if p > 0), reverse=True))


def z_mu(mu: Partition) -> int:
    """Centralizer order prod_k k^{m_k} m_k! where m_k counts parts equal k."""
    out = 1
    for k in set(mu):
        m = mu.count(k)
        out *= k ** m * math.factorial(m)
    return out


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """S_n in lexicographic one-line order."""
    if not 1 <= n <= PERMUTATION_BUDGET:
        raise BudgetExceededError(f"all_permutations supports 1 <= n <= {PERMUTATION_BUDGET}, got {n}")
    return tuple(itertools.permutations(range(1, n + 1)))


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def compose(u: Permutation, w: Permutation) -> Permutation:
    """(u * w)(i) = u(w(i)): apply the right factor first."""
    return tuple(u[x - 1] for x in w)


def inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        out[x - 1] = i
    return tuple(out)


def transposition(n: int, i: int, j: int) -> Permutation:
    out = list(range(1, n + 1))
    out[i - 1], out[j - 1] = j, i
    return tuple(out)


def cycle_type(w: Permutation) -> Partition:
    n = len(w)
    seen = [False] * n
    lens = []
    for start in range(n):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = w[x] - 1
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def class_representative(mu: Partition) -> Permutation:
    """Cycles on consecutive blocks: (1 .. mu_1)(mu_1+1 .. mu_1+mu_2)..."""
    out = []
    start = 1
    for part in mu:
        block = list(range(start, start + part))
        out.extend(block[1:] + block[:1])
        start += part
    return tuple(out)


def second_representative(mu: Partition) -> Permutation | None:
    """A class element distinct from class_representative(mu), if one exists."""
    n = sum(mu)
    w = class_representative(mu)
    conjugators = [
        tuple(range(n, 0, -1)),
        tuple(range(2, n + 1)) + (1,) if n >= 2 else identity_perm(n),
        transposition(n, 1, 2) if n >= 2 else identity_perm(n),
    ]
    for g in conjugators:
        v = compose(compose(g, w), inverse(g))
        if v != w:
            return v
    return None


def class_representatives(mu: Partition) -> list[Permutation]:
    """class_representative(mu), followed by second_representative(mu) when
    the class has one: the elements on which class-function checks run."""
    reps = [class_representative(mu)]
    second = second_representative(mu)
    if second is not None:
        reps.append(second)
    return reps


def subsets_of_interval(n: int) -> tuple[tuple[int, ...], ...]:
    """All subsets I of [n-1] as sorted tuples, enumerated by size then lex."""
    ground = range(1, n)
    out = []
    for size in range(n):
        out.extend(itertools.combinations(ground, size))
    return tuple(out)


def composition_from_subset(I: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Consecutive block sizes (i_1, i_2 - i_1, ..., n - i_d)."""
    if any(not 1 <= i <= n - 1 for i in I) or list(I) != sorted(set(I)):
        raise ValueError(f"not a subset of [{n - 1}]: {I}")
    cuts = (0,) + tuple(I) + (n,)
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def partition_from_subset(I: tuple[int, ...], n: int) -> Partition:
    """The composition of I sorted into a partition."""
    return sort_to_partition(composition_from_subset(I, n))


def young_subgroup_order(I: tuple[int, ...], n: int) -> int:
    out = 1
    for b in composition_from_subset(I, n):
        out *= math.factorial(b)
    return out
