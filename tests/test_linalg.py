"""Exact rational linear algebra and the certified small-prime engine."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hessllt.linalg as linalg
from hessllt.linalg import (
    SMALL_PRIMES,
    SubspaceTracer,
    blocked_rref,
    certified_integer_nullspace,
    crt_pair,
    exact_product,
    integerize,
    lift_vector,
    nullspace_small,
    rational_reconstruct,
)
from hessllt.permco import _staircase_columns, coinvariant_closed_form_check
from oracles import back_substitute_by_full_copy, frac_rref, ideal_span_columns, matmul_by_python_ints

P = SMALL_PRIMES[0]


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def random_int_matrix(rng, m, n, lo=-9, hi=9, rank_deficit=0):
    """Random integer matrix; optional deficit forces dependent rows."""
    A = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    for _ in range(rank_deficit):
        i, j = rng.randrange(m), rng.randrange(m)
        c = rng.randint(-3, 3)
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    return np.array(A, dtype=np.int64)


def gauss_jordan_mod_p(A, p, full=True):
    """Oracle: one pivot at a time over int64 mod p, taking the first nonzero
    row at or below the current one, as blocked_rref does."""
    M = np.array(A, dtype=np.int64) % p
    nrows, ncols = M.shape
    pivots, r = [], 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(M[r:, c])
        if not nz.size:
            continue
        pr = r + int(nz[0])
        M[[r, pr]] = M[[pr, r]]
        M[r] = M[r] * pow(int(M[r, c]), -1, p) % p
        others = [i for i in range(0 if full else r + 1, nrows) if i != r]
        M[others] = (M[others] - np.outer(M[others, c], M[r])) % p
        pivots.append(c)
        r += 1
    return r, pivots, M


def residue_matrix(rng, m, n, rank, p=P):
    """m x n matrix of rank at most `rank` with entries spread over [0, p)."""
    X = rng.integers(0, p, size=(m, rank), dtype=np.int64)
    Y = rng.integers(0, p, size=(rank, n), dtype=np.int64)
    out = np.zeros((m, n), dtype=np.int64)
    for k in range(rank):  # one outer product at a time stays inside int64
        out = (out + np.outer(X[:, k], Y[k]) % p) % p
    return out


def assert_matches_the_oracle(A):
    for full in (True, False):
        rank_b, pivots_b, R = blocked_rref(A, P, full)
        rank_o, pivots_o, M = gauss_jordan_mod_p(A, P, full)
        assert (rank_b, pivots_b) == (rank_o, pivots_o)
        assert np.array_equal(R.astype(np.int64), M)
    pivots, free, basis = nullspace_small(A, P)
    rank, _, M = gauss_jordan_mod_p(A, P)
    assert pivots == pivots_o and len(free) == A.shape[1] - rank
    assert np.array_equal(basis[free], np.eye(len(free), dtype=np.int64))
    assert np.array_equal(basis[pivots], (-M[:rank][:, free]) % P)


class TestFractionRoutines:
    def test_frac_rref(self):
        rank, pivots, rref = frac_rref(F([[2, 4], [1, 2], [0, 1]]))
        assert rank == 2
        assert pivots == [0, 1]
        assert rref[0] == [Fraction(1), Fraction(0)]
        assert rref[1] == [Fraction(0), Fraction(1)]


class TestBlockedEngine:
    def test_rank_matches_exact(self):
        rng = random.Random(7)
        for trial in range(25):
            m = rng.randint(1, 20)
            n = rng.randint(1, 20)
            A = random_int_matrix(rng, m, n, rank_deficit=rng.randint(0, 3))
            exact_rank, exact_pivots, _ = frac_rref(F(A.tolist()))
            for p in SMALL_PRIMES[:2]:
                rank, pivots, _ = blocked_rref(A % p, p)
                # mod-p rank can only drop; with entries this small it matches
                assert rank == exact_rank
                assert pivots == exact_pivots

    def test_wide_block_boundaries(self):
        # exercise panel logic across a few hundred columns
        rng = random.Random(11)
        A = random_int_matrix(rng, 12, 300, rank_deficit=4)
        exact_rank, _, _ = frac_rref(F(A.tolist()))
        rank, _, _ = blocked_rref(A % P, P)
        assert rank == exact_rank

    def test_list_entries_past_int64_stay_exact(self):
        # NumPy reads this list as float64, where 2**63 + 5 rounds to 2**63
        big = 2**63 + 5
        rank, pivots, R = blocked_rref([[big, 1]], P)
        assert (rank, pivots) == (1, [0])
        assert int(R[0, 1]) == pow(big % P, -1, P)

    @pytest.mark.parametrize(
        "shape, rank",
        [
            ((70, 90), 45),  # two panels of pivots
            ((300, 290), 270),  # many panels of pivots
            ((600, 70), 50),  # tall
            ((50, 600), 45),  # wide
            ((140, 140), 120),  # square
            ((40, 100), 40),  # r == nrows in the middle of the second panel
        ],
    )
    def test_matches_the_per_pivot_oracle(self, shape, rank):
        rng = np.random.default_rng(sum(shape) + rank)
        A = residue_matrix(rng, *shape, rank)
        A[:, rng.choice(shape[1], size=5, replace=False)] = 0  # zero columns
        A[:3, :10] = 0  # leading zeros force a swap at the first pivot
        assert rank <= blocked_rref(A, P)[0] <= rank + 3  # the three edited rows may add rank
        assert_matches_the_oracle(A)

    @pytest.mark.parametrize(
        "shape, rank, zero_columns, pivots",
        [
            ((60, 90), 32, [], range(32)),  # one full panel, then none
            ((100, 120), 64, [], range(64)),  # two full panels
            ((32, 70), 32, [], range(32)),  # r == nrows at the last column of a panel
            ((33, 70), 33, [], range(33)),  # r == nrows at the first column of the next
            ((60, 120), 50, range(30, 70), [*range(30), *range(70, 90)]),  # a panel with no pivot
            ((50, 80), 33, [], range(33)),  # back-substitution in two blocks
        ],
    )
    def test_panel_boundaries(self, shape, rank, zero_columns, pivots):
        rng = np.random.default_rng(sum(shape) + rank)
        A = residue_matrix(rng, *shape, rank)
        A[:, list(zero_columns)] = 0
        assert blocked_rref(A, P)[:2] == (rank, list(pivots))
        assert_matches_the_oracle(A)

    def test_swaps_inside_a_panel(self):
        # rows carrying a pivot sit below rows that vanish on its column, so
        # every pivot of the first panel takes a row swap
        rng = np.random.default_rng(5)
        A = np.triu(rng.integers(1, 9, size=(48, 48)))[::-1]
        A = np.concatenate([A, rng.integers(0, 9, size=(48, 30))], axis=1)
        for full in (True, False):
            rank_b, pivots_b, R = blocked_rref(A, P, full)
            rank_o, pivots_o, M = gauss_jordan_mod_p(A, P, full)
            assert (rank_b, pivots_b) == (rank_o, pivots_o) == (48, list(range(48)))
            assert np.array_equal(R.astype(np.int64), M)

    @pytest.mark.parametrize("k", [1, 2, 31, 32])
    def test_unit_lower_inverse_is_the_exact_inverse(self, k):
        # only the strict lower part of S is read; the inverse of a unit
        # lower triangle is integral, found exactly by forward substitution
        # over Python ints.  Rows with an all-zero strict lower part, which
        # the substitution skips, come interleaved with full rows (every
        # other row zeroed) and as the whole matrix (S = I)
        rng = np.random.default_rng(k)
        full = rng.integers(0, P, size=(k, k))
        interleaved = full.copy()
        interleaved[1::2] = 0
        for S in (full, interleaved, np.eye(k, dtype=np.int64)):
            exact = [[int(i == j) for j in range(k)] for i in range(k)]
            for i in range(k):
                for m in range(i):
                    exact[i] = [x - int(S[i, m]) * y for x, y in zip(exact[i], exact[m])]
            W = linalg._unit_lower_inverse(S.astype(np.float64), P)
            assert W.astype(np.int64).tolist() == [[x % P for x in row] for row in exact]

    def test_nullspace_small_is_the_rref_nullspace(self):
        rng = np.random.default_rng(9)
        A = residue_matrix(rng, 80, 120, 60)
        pivots, free, basis = nullspace_small(A, P)
        rank, rref_pivots, R = blocked_rref(A, P)
        assert pivots == rref_pivots and len(free) == 120 - rank
        assert np.array_equal(basis[free], np.eye(len(free), dtype=np.int64))
        expected = (-R[:rank][:, free].astype(np.int64)) % P
        assert np.array_equal(basis[pivots], expected)
        assert not np.any((A.astype(object) @ basis.astype(object)) % P)

    def test_nullspace_small_canonical(self):
        rng = random.Random(3)
        A = random_int_matrix(rng, 6, 10, rank_deficit=2)
        pivots, free, basis = nullspace_small(A % P, P)
        assert len(pivots) + len(free) == 10
        # canonical: identity block at the free coordinates
        for j, f in enumerate(free):
            assert basis[f, j] == 1
            for j2 in range(len(free)):
                if j2 != j:
                    assert basis[f, j2] == 0
        assert not np.any((A @ basis) % P)


class TestGatheredBackSubstitution:
    """_back_substitute gathers the pivot columns of one block of _PANEL
    rows at a time; the oracle copies the whole rank x rank pivot block
    first.  The outputs agree entry for entry, also where F is rows of E."""

    CASES = [
        ((70, 90), 45),  # two blocks
        ((300, 290), 270),  # many blocks
        ((50, 80), 33),  # a block of one row
        ((40, 100), 40),  # full row rank
        ((20, 20), 0),  # nothing to substitute
    ]

    @pytest.mark.parametrize("shape, rank", CASES)
    def test_direct_calls_match_the_full_copy(self, shape, rank):
        rng = np.random.default_rng(sum(shape) + rank)
        r, pivots, E = blocked_rref(residue_matrix(rng, *shape, rank), P, full=False)
        free = [c for c in range(shape[1]) if c not in set(pivots)]
        for F_of in (lambda M: M[:r], lambda M: M[:r, free].copy()):  # F aliasing E, then a copy
            got, expected = E.copy(), E.copy()
            linalg._back_substitute(got, pivots, F_of(got), P)
            back_substitute_by_full_copy(expected, pivots, F_of(expected), P)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("shape, rank", CASES)
    def test_rref_and_nullspace_match_the_full_copy(self, monkeypatch, shape, rank):
        rng = np.random.default_rng(sum(shape) + rank)
        A = residue_matrix(rng, *shape, rank)
        A[rng.integers(0, shape[0], size=shape[0] // 2), :] = 0  # sparse rows
        got = blocked_rref(A, P), nullspace_small(A, P)
        monkeypatch.setattr(linalg, "_back_substitute", back_substitute_by_full_copy)
        expected = blocked_rref(A, P), nullspace_small(A, P)
        for x, y in zip(got, expected):
            assert x[:2] == y[:2]
            assert np.array_equal(x[2], y[2])

    def test_staircase_nullspace_peak_memory(self):
        # n = 5, d = 10: 1000 x 1001, in int32; the float64 copy of
        # blocked_rref is 8 MB, and no other full-size array is built
        A = _staircase_columns(5, 10).T
        tracemalloc.start()
        try:
            V = certified_integer_nullspace(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert V.shape == (1001, 1)
        assert peak < 12 * 2**20, peak / 2**20


def echelon_prefix(rng, shape, leads, tail_rows=0, density=0.3):
    """Rows in echelon form with unit pivots at the sorted columns `leads`,
    random entries in [0, 9) to the right of each lead, then `tail_rows`
    random rows that vanish up to the last lead (zero rows between)."""
    m, n = shape
    A = np.zeros((m, n), dtype=np.int64)
    for i, c in enumerate(leads):
        A[i, c] = 1
        A[i, c + 1:] = rng.integers(0, 9, size=n - c - 1) * (rng.random(n - c - 1) < density)
    c = leads[-1] + 1 if len(leads) else 0
    tail = (tail_rows, n - c)
    A[m - tail_rows:, c:] = rng.integers(-9, 9, size=tail) * (rng.random(tail) < density)
    return A


def unit_echelon_run(M):
    """The run by its definition, one row at a time: row i belongs while it
    has a first nonzero entry, that entry is 1, and every row below is zero
    up to and including its column."""
    ncols = M.shape[1]
    leads = [int(np.flatnonzero(row)[0]) if row.any() else ncols for row in M]
    k = 0
    while k < len(M) and leads[k] < ncols and M[k, leads[k]] == 1 and leads[k] < min(leads[k + 1:], default=ncols):
        k += 1
    return k


class TestEchelonRun:
    """blocked_rref takes the leading rows already in echelon form with unit
    pivots as they stand.  Every output still equals the per-pivot oracle,
    and the recorded run has the length each case is built to have."""

    @pytest.fixture
    def runs(self, monkeypatch):
        real = linalg._unit_echelon_run
        seen = []

        def recording(A, lead):
            seen.append(real(A, lead))
            return seen[-1]

        monkeypatch.setattr(linalg, "_unit_echelon_run", recording)
        return seen

    @staticmethod
    def case(name):
        """(matrix, run length) for one named case."""
        rng = np.random.default_rng(7)
        leads = [0, 3, 4, 9, 17, 30, 31, 40, 52, 60]
        if name == "non-unit lead":
            A = echelon_prefix(rng, (25, 70), leads, tail_rows=15)
            A[4, leads[4]] = 3
            return A, 4
        if name == "zero row in the run":
            A = echelon_prefix(rng, (25, 70), leads, tail_rows=15)
            A[6] = 0
            return A, 6
        if name == "lower row on a lead column":
            A = echelon_prefix(rng, (25, 70), leads, tail_rows=15)
            A[20, leads[5]] = -2
            return A, 5
        if name == "run covers every row":
            return echelon_prefix(rng, (10, 70), leads), 10
        if name == "run ends at the last column":
            A = echelon_prefix(rng, (14, 62), leads + [61])
            return A, 11  # the three rows below are zero
        if name == "run across panels, then a tail":
            long_leads = sorted(rng.choice(200, size=80, replace=False))
            return echelon_prefix(rng, (120, 200), long_leads, tail_rows=40), 80
        if name == "identity":
            return np.eye(40, dtype=np.int64), 40
        raise KeyError(name)

    CASES = ("non-unit lead", "zero row in the run", "lower row on a lead column", "run covers every row",
             "run ends at the last column", "run across panels, then a tail", "identity")

    @pytest.mark.parametrize("name", CASES)
    def test_cases_match_the_oracle(self, runs, name):
        A, run = self.case(name)
        assert_matches_the_oracle(A)
        assert set(runs) == {run}

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_matrices(self, runs, shape):
        A = np.zeros(shape, dtype=np.int64)
        assert_matches_the_oracle(A)
        assert set(runs) == {0}

    @pytest.mark.parametrize("seed", range(40))
    def test_random_prefix_and_tail(self, runs, seed):
        rng = np.random.default_rng(1000 + seed)
        m, n = rng.integers(1, 80, size=2)
        k = int(rng.integers(0, min(m, n) + 1))
        leads = sorted(rng.choice(n, size=k, replace=False))
        A = echelon_prefix(rng, (m, n), leads, tail_rows=int(rng.integers(0, m - k + 1)),
                           density=rng.random())
        if rng.random() < 0.3:
            A[rng.integers(0, m), rng.integers(0, n)] = rng.choice([2, 3, -1])  # a lead or a tail entry
        assert_matches_the_oracle(A)
        assert set(runs) == {unit_echelon_run(A % P)}

    @pytest.mark.parametrize("d", range(11))
    def test_staircase_columns_need_no_replay(self, monkeypatch, d):
        # every row of the transposed staircase basis leads with a 1 at its
        # leading monomial, and the leads rise: the run is the whole matrix
        calls = []
        real = linalg._replay
        monkeypatch.setattr(linalg, "_replay", lambda *args: calls.append(args) or real(*args))
        A = _staircase_columns(5, d).T
        rank, pivots, _ = blocked_rref(A, P, full=False)
        assert not calls
        assert rank == len(A)


def doubling_chain(k):
    """k x (k + 1) rows e_i - 2 e_{i+1}: max row sum 3, and the kernel is
    (2**k, 2**(k-1), ..., 2, 1)."""
    A = np.zeros((k, k + 1), dtype=np.int64)
    A[range(k), range(k)] = 1
    A[range(k), range(1, k + 1)] = -2
    return A


class TestFloatVerification:
    """certified_integer_nullspace checks A @ V == 0 through exact_product:
    in float64 when peak |V| * max row sum |A| < 2**53, in Python ints
    otherwise.  On both sides
    of the bound, V with its single large entry off by one is refused; past
    it, float64 would have accepted that V."""

    BELOW, ABOVE = 50, 53  # peak * norm = 3 * 2**k

    def test_the_chains_straddle_the_bound(self):
        assert 3 * 2**self.BELOW < 2**53 <= 3 * 2**self.ABOVE < 2**62
        A = doubling_chain(self.ABOVE)
        off = np.array([2**self.ABOVE + 1] + [2**j for j in reversed(range(self.ABOVE))])
        assert not np.any(A.astype(np.float64) @ off.astype(np.float64))  # 2**53 + 1 rounds to 2**53
        assert np.any(A @ off)

    @pytest.mark.parametrize("k", [BELOW, ABOVE])
    def test_exact_kernel(self, k):
        V = certified_integer_nullspace(doubling_chain(k))
        assert V.dtype == np.int64 and V[:, 0].tolist() == [2**j for j in reversed(range(k + 1))]

    def test_kernel_past_int64_stays_exact(self):
        V = certified_integer_nullspace(doubling_chain(64))
        assert V.dtype == object and V[:, 0].tolist() == [2**j for j in reversed(range(65))]

    @pytest.mark.parametrize("k", [BELOW, ABOVE])
    def test_off_by_one_is_refused(self, monkeypatch, k):
        real = linalg.lift_vector

        def off_by_one(residues, moduli):
            vec = real(residues, moduli)
            if vec is not None:
                vec[0] += 1
            return vec

        monkeypatch.setattr(linalg, "lift_vector", off_by_one)
        with pytest.raises(ArithmeticError, match="nullspace reconstruction failed at every prime"):
            certified_integer_nullspace(doubling_chain(k))

    def test_fraction_lifts_are_integerized(self):
        # the canonical kernel column of [[7, -12]] is (12/7, 1); scaled, (12, 7)
        assert certified_integer_nullspace(np.array([[7, -12]])).tolist() == [[12], [7]]


EXACT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64, object)


@st.composite
def integer_arrays(draw, shape):
    """An array of one of EXACT_DTYPES, object entries within 2**70; its
    entries are small or anywhere in range, so products fall on both sides
    of the float64 bound."""
    dtype = draw(st.sampled_from(EXACT_DTYPES))
    lo, hi = (-2**70, 2**70) if dtype is object else (int(np.iinfo(dtype).min), int(np.iinfo(dtype).max))
    entry = st.integers(lo, hi) | st.integers(max(lo, -3), min(hi, 3))
    values = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=dtype).reshape(shape)


def product_bound(A, V):
    """max(peak |V|, 1) * max row sum |A| in Python ints: below 2**53 the
    product runs in float64."""
    peak = max((abs(int(x)) for x in V.flat), default=0)
    return max(peak, 1) * max((sum(abs(int(x)) for x in row) for row in A.tolist()), default=0)


class TestExactProduct:
    """exact_product against the Python-int matmul of the oracles, on every
    integer dtype, on both sides of its float64 bound, and on empty shapes."""

    @settings(max_examples=400, deadline=None)
    @given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)).flatmap(
        lambda s: st.tuples(integer_arrays(s[:2]), integer_arrays(s[1:]))))
    def test_matches_python_ints(self, pair):
        A, V = pair
        got = exact_product(A, V)
        assert got.shape == (len(A), V.shape[1])
        assert got.tolist() == matmul_by_python_ints(A, V)
        assert got.dtype == (np.int64 if product_bound(A, V) < 2**53 else object)
        if V.shape[1]:
            assert exact_product(A, V[:, 0]).tolist() == got[:, 0].tolist()

    @pytest.mark.parametrize("A, V, route", [
        ([[1]], [[2**53 - 1]], np.int64),
        ([[1]], [[2**53]], object),
        ([[1, 1]], [[2**53], [1]], object),  # float64 reads 2**53 + 1 as 2**53
        ([[3, -1]], [[2**51], [2**51]], object),  # past the bound by the row sum alone
        ([[1]], [[-2**63]], object),  # the int64 minimum, whose np.abs is negative
        ([[-2**63, -2**63]], [[1], [1]], object),
    ])
    def test_both_sides_of_the_bound(self, A, V, route):
        A, V = np.array(A, dtype=np.int64), np.array(V, dtype=np.int64)
        for a, v in ((A, V), (A.astype(object), V.astype(object))):
            got = exact_product(a, v)
            assert got.dtype == route
            assert got.tolist() == matmul_by_python_ints(A, V)

    def test_object_entries_past_int64(self):
        A = np.array([[2**70, -1], [0, 3]], dtype=object)
        V = np.array([[2**64 + 1], [2**80]], dtype=object)
        assert exact_product(A, V).tolist() == [[2**134 + 2**70 - 2**80], [3 * 2**80]]

    @pytest.mark.parametrize("a, v", [((0, 3), (3, 2)), ((2, 0), (0, 2)), ((2, 3), (3, 0)), ((0, 0), (0, 0))])
    def test_empty_shapes(self, a, v):
        for dtype in (np.int8, np.uint64, object):
            got = exact_product(np.ones(a, dtype=dtype), np.ones(v, dtype=dtype))
            assert got.shape == (a[0], v[1]) and got.dtype == np.int64 and not got.any()

    def test_row_blocks(self):
        # more rows than one block of _CHUNK entries holds, on both routes
        rng = np.random.default_rng(5)
        A = rng.integers(-9, 10, size=(3 * linalg._CHUNK // 40 + 7, 40))
        V = rng.integers(-9, 10, size=(40, 3))
        assert exact_product(A, V).tolist() == (A @ V).tolist()
        big = exact_product(A, V.astype(object) * 2**60)
        assert big.dtype == object and big.tolist() == (A.astype(object) @ V.astype(object) * 2**60).tolist()


class TestReduce:
    """_reduce against Python's % on the values where a floating-point
    quotient is closest to going wrong."""

    @staticmethod
    def edge_values(p):
        top = 2**53 - 1
        vals = {0, 1, -1, p, -p, p - 1, 1 - p, top, -top}
        for k in (1, 2, 3, 1000, 2**52 // p, 2**52 // p + 1, top // p - 1, top // p):
            for d in (-1, 0, 1):
                vals.update((k * p + d, -(k * p + d)))
        return sorted(v for v in vals if abs(v) <= top)

    @pytest.mark.parametrize("p", [*SMALL_PRIMES, 2, 3, 7, 107])
    def test_edge_values_match_python_mod(self, p):
        vals = self.edge_values(p)
        got = linalg._reduce(np.array(vals, dtype=np.float64), p)
        assert [int(x) for x in got] == [v % p for v in vals]

    def test_views_and_copies(self):
        rng = np.random.default_rng(2)
        ints = rng.integers(-(2**53) + 1, 2**53, size=(2100, 130))  # two row chunks
        edge = self.edge_values(P)
        ints[0, :len(edge)] = edge
        ints[1:, 0] = rng.choice(edge, size=len(ints) - 1)
        expected = np.array([[v % P for v in row] for row in ints.tolist()], dtype=np.float64)
        base = ints.astype(np.float64)  # exact: every entry is below 2**53

        a = base.copy()
        assert linalg._reduce(a, P) is a
        assert np.array_equal(a, expected)

        a = base.copy()
        view = a[1::2, 3::7]
        linalg._reduce(view, P)
        assert np.array_equal(view, expected[1::2, 3::7])
        untouched = np.ones(a.shape, dtype=bool)
        untouched[1::2, 3::7] = False
        assert np.array_equal(a[untouched], base[untouched])

        a = base.copy()
        linalg._reduce(a[:, 0], P)  # a strided column
        assert np.array_equal(a[:, 0], expected[:, 0])
        assert np.array_equal(a[:, 1:], base[:, 1:])

        a = base.copy()
        linalg._reduce(a.T, P)
        assert np.array_equal(a, expected)

        rows = [5, 0, 2099, 7]
        gathered = base[rows, 2:60]
        linalg._reduce(gathered, P)
        assert np.array_equal(gathered, expected[rows, 2:60])


def sparse_matrix(rng, m, n, signed, density=0.02):
    """0/1 (or 0/+-1) matrix with at least 95% zeros and no zero row."""
    A = (rng.random((m, n)) < density).astype(np.int64)
    A[np.arange(m), rng.integers(0, n, size=m)] = 1
    if signed:
        A *= rng.choice([-1, 1], size=(m, n))
    assert (A == 0).mean() >= 0.95
    return A


class TestSparsePaths:
    """The row-skipping panel and products against the per-pivot oracle on
    matrices shaped like the coinvariant and constraint matrices."""

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("shape", [(600, 300), (200, 700), (300, 300)])
    def test_random_sparse(self, shape, signed):
        rng = np.random.default_rng(sum(shape) + signed)
        assert_matches_the_oracle(sparse_matrix(rng, *shape, signed))

    def test_multipliers_all_zero_and_swaps_into_zero_multiplier_rows(self):
        A = np.zeros((6, 5), dtype=np.int64)
        A[0, 0] = 1  # pivot with no multiplier below it
        A[3, 1] = A[5, 1] = 1  # swap 1 <-> 3: the row moved down has multiplier 0
        A[4, 2] = -1  # swap 2 <-> 4, no multiplier at all
        A[1, 3] = A[2, 3] = A[5, 3] = 1
        A[:, 4] = [0, 1, 0, 1, 1, -1]
        assert_matches_the_oracle(A)
        assert_matches_the_oracle(A.T)

    def test_products_with_no_multiplier_rows(self):
        # a permuted identity: every multiplier block is zero, so the replays
        # gather no rows and the rref is the identity
        rng = np.random.default_rng(3)
        A = np.eye(300, dtype=np.int64)[rng.permutation(300)]
        assert_matches_the_oracle(A)
        assert_matches_the_oracle(np.concatenate([A, sparse_matrix(rng, 300, 40, True)], axis=1))

    @pytest.mark.parametrize("nonzero_rows", ["none", "some", "all"])
    def test_sub_product_against_the_dense_update(self, nonzero_rows):
        rng = np.random.default_rng(len(nonzero_rows))
        base = rng.integers(0, P, size=(90, 50)).astype(np.float64)
        L = rng.integers(0, P, size=(90, 12)).astype(np.float64)
        if nonzero_rows == "none":
            L[:] = 0
        elif nonzero_rows == "some":
            L[rng.random(90) < 0.8] = 0
        X = rng.integers(0, P, size=(12, 30)).astype(np.float64)
        T = base.copy()
        linalg._sub_product(T[:, 10:40], L, X, P)  # a strided view of T
        expected = base.astype(np.int64).astype(object)
        expected[:, 10:40] = (expected[:, 10:40] - L.astype(np.int64).astype(object)
                              @ X.astype(np.int64).astype(object)) % P
        assert np.array_equal(T.astype(np.int64), expected.astype(np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ideal_span_columns(self, n):
        for d in range(n * (n - 1) // 2 + 2):
            for S in (ideal_span_columns(n, d), _staircase_columns(n, d)):
                if S.size:
                    assert_matches_the_oracle(S)
                    assert_matches_the_oracle(S.T)


class TestReconstruction:
    def test_crt_pair(self):
        r, m = crt_pair(2, 5, 3, 7)
        assert m == 35
        assert r % 5 == 2 and r % 7 == 3

    def test_rational_reconstruct_round_trip(self):
        m = SMALL_PRIMES[0] * SMALL_PRIMES[1]
        for num in (-20, -1, 0, 1, 7, 123):
            for den in (1, 2, 9, 55):
                x = Fraction(num, den)
                residue = (num * pow(den, -1, m)) % m
                assert rational_reconstruct(residue, m) == x

    def test_rational_reconstruct_acceptance_bound(self):
        # |num| and den up to isqrt(m // 2) = 1448 reconstruct; 1449 does not
        m = SMALL_PRIMES[0]
        assert isqrt(m // 2) == 1448
        for x in (Fraction(1, 1448), Fraction(1448), Fraction(-1448), Fraction(1448, 1447)):
            residue = x.numerator * pow(x.denominator, -1, m) % m
            assert rational_reconstruct(residue, m) == x
        assert rational_reconstruct(pow(1449, -1, m), m) is None
        assert rational_reconstruct(1449, m) is None

    def test_lift_vector(self):
        xs = [Fraction(1, 3), Fraction(-5, 2), Fraction(4)]
        residues = []
        for p in SMALL_PRIMES[:2]:
            residues.append(
                np.array(
                    [(x.numerator * pow(x.denominator, -1, p)) % p for x in xs],
                    dtype=np.int64,
                )
            )
        assert lift_vector(residues, list(SMALL_PRIMES[:2])) == xs

    @given(
        st.integers(1, 2).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(
                    st.one_of(
                        st.integers(-3000, 3000),
                        st.integers(-(10**13), 10**13),
                        st.fractions(max_denominator=40).filter(lambda f: abs(f) < 200),
                    ),
                    min_size=1,
                    max_size=12,
                ),
            )
        )
    )
    @example((1, [1448, -1448, 1449, -1449]))
    @example((2, [2965813, -2965813, 2965814, -2965814]))  # isqrt(p0 * p1 // 2) = 2965813
    @settings(max_examples=150, deadline=None)
    def test_vectorised_lift_matches_the_scalar_route(self, case):
        k, xs = case
        moduli = list(SMALL_PRIMES[:k])
        residues = [
            np.array([Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in xs],
                     dtype=np.int64)
            for p in moduli
        ]
        expected = []
        for i in range(len(xs)):
            r, m = int(residues[0][i]), moduli[0]
            for vec, p in zip(residues[1:], moduli[1:]):
                r, m = crt_pair(r, m, int(vec[i]), p)
            expected.append(rational_reconstruct(r, m))
        fast = lift_vector(residues, moduli)
        if None in expected:
            assert fast is None
        else:
            assert fast == expected

    def test_integerize(self):
        assert integerize([Fraction(1, 3), Fraction(-5, 2), Fraction(4)]) == [2, -15, 24]
        assert integerize([Fraction(0), Fraction(2, 7)]) == [0, 1]


@st.composite
def wide_entry_matrices(draw):
    """1-2 rows, 2-5 columns, entries of absolute value below 2**36: the
    kernel entries need several primes to reconstruct."""
    m, n = draw(st.integers(1, 2)), draw(st.integers(2, 5))
    entry = st.integers(-(2**36) + 1, 2**36 - 1)
    return np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))


class TestCertifiedNullspace:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_nullspace(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        A = random_int_matrix(rng, m, n, rank_deficit=rng.randint(0, 4))
        V = certified_integer_nullspace(A)
        exact_rank, _, _ = frac_rref(F(A.tolist()))
        assert V.shape == (n, n - exact_rank)
        assert not np.any(A.astype(object) @ V.astype(object))
        if V.shape[1]:
            vrank, _, _ = frac_rref(F(V.T.tolist()))
            assert vrank == V.shape[1]

    @given(wide_entry_matrices())
    @settings(max_examples=100, deadline=None)
    def test_wide_entries_take_each_prime_once(self, A):
        with pytest.MonkeyPatch.context() as mp:
            used = TestLiftPaths.primes_used(mp)
            V = certified_integer_nullspace(A)
        assert len(used) == len(set(used))
        exact_rank, _, _ = frac_rref(F(A.tolist()))
        assert V.shape == (A.shape[1], A.shape[1] - exact_rank)
        assert not np.any(A.astype(object) @ V.astype(object))
        if V.shape[1]:
            vrank, _, _ = frac_rref(F(V.T.tolist()))
            assert vrank == V.shape[1]

    def test_full_rank_gives_empty(self):
        A = np.eye(4, dtype=np.int64)
        assert certified_integer_nullspace(A).shape == (4, 0)

    def test_zero_rows(self):
        V = certified_integer_nullspace(np.zeros((0, 3), dtype=np.int64))
        assert V.shape == (3, 3)

    def test_row_blocks_of_the_verification(self, monkeypatch):
        # with 64-entry chunks the bound and A @ V run over 8-row blocks; a
        # corrupted lift whose only failing row is in the last block is caught
        rng = random.Random(17)
        A = random_int_matrix(rng, 30, 8, rank_deficit=3)
        A[-1] = A[0]
        expected = certified_integer_nullspace(A)
        monkeypatch.setattr(linalg, "_CHUNK", 64)
        assert np.array_equal(certified_integer_nullspace(A), expected)
        B = np.zeros((30, 8), dtype=np.int64)
        B[-1, 0] = 1  # the kernel is e_2..e_8; e_1 breaks the last row only
        assert np.array_equal(certified_integer_nullspace(B), np.eye(8, dtype=np.int64)[:, 1:])
        real = linalg.lift_vector

        def leaking(residues, moduli):
            vec = real(residues, moduli)
            if vec is not None:
                vec[0] += 1
            return vec

        monkeypatch.setattr(linalg, "lift_vector", leaking)
        with pytest.raises(ArithmeticError):
            certified_integer_nullspace(B)


class TestLiftPaths:
    """Each prime count of certified_integer_nullspace occurs and gives the
    exact kernel."""

    @staticmethod
    def primes_used(monkeypatch):
        used = []
        real = linalg.nullspace_small

        def recording(A, p):
            used.append(p)
            return real(A, p)

        monkeypatch.setattr(linalg, "nullspace_small", recording)
        return used

    def test_small_kernel_takes_one_prime(self, monkeypatch):
        used = self.primes_used(monkeypatch)
        V = certified_integer_nullspace(np.array([[1, 0, -1448], [0, 1, 7]]))
        assert V.tolist() == [[1448], [-7], [1]]
        assert used == [SMALL_PRIMES[0]]

    def test_kernel_past_the_one_prime_bound_takes_two(self, monkeypatch):
        used = self.primes_used(monkeypatch)
        V = certified_integer_nullspace(np.array([[1, -3000]]))
        assert V.tolist() == [[3000], [1]]
        assert used == list(SMALL_PRIMES[:2])

    def test_full_rank_at_a_later_prime_ends_the_call(self, monkeypatch):
        used = self.primes_used(monkeypatch)
        V = certified_integer_nullspace(np.array([[SMALL_PRIMES[0], 0], [0, 1]]))
        assert V.shape == (2, 0)
        # the first prime drops the rank, so its group, pivots (1,), lifts
        # (1, 0), which fails verification; the second prime has no free
        # column, and rank_p = ncols proves the nullspace 0 with no lift
        assert used == list(SMALL_PRIMES[:2])

    def test_failed_two_prime_verification_adds_the_next_prime(self, monkeypatch):
        used = self.primes_used(monkeypatch)
        V = certified_integer_nullspace(np.array([[SMALL_PRIMES[0] * SMALL_PRIMES[1], 0], [0, 1]]))
        assert V.shape == (2, 0)
        # the first two primes both drop the rank, with the same pivots, so
        # the one- and two-prime lifts fail verification; the third prime,
        # eliminated once like the others, has full rank
        assert used == list(SMALL_PRIMES[:3])

    def test_kernel_past_the_two_prime_bound_keeps_every_residue(self, monkeypatch):
        used = self.primes_used(monkeypatch)
        V = certified_integer_nullspace(np.array([[982373604, 715064864]]))
        assert V.tolist() == [[-178766216], [245593401]]
        # the one- and two-prime lifts reconstruct wrong fractions, which
        # fail verification; the third prime joins the same group and the
        # three-prime modulus outgrows the kernel entries
        assert used == list(SMALL_PRIMES[:3])

    def test_earlier_pivots_open_the_group_that_is_lifted(self, monkeypatch):
        used = self.primes_used(monkeypatch)
        V = certified_integer_nullspace(np.array([[SMALL_PRIMES[0], 1]]))
        assert V.tolist() == [[-1], [SMALL_PRIMES[0]]]
        # the first prime's group has pivots (1,); the second prime has the
        # same rank with pivots (0,), which are earlier, so its new group is
        # the one lifted from then on, and the first prime's residue is never
        # read again (the kernel entry needs three primes of that group)
        assert used == list(SMALL_PRIMES[:4])

    def test_later_pivots_stay_out_of_the_lifted_group(self, monkeypatch):
        used = self.primes_used(monkeypatch)
        V = certified_integer_nullspace(np.array([[SMALL_PRIMES[1], 1]]))
        assert V.tolist() == [[-1], [SMALL_PRIMES[1]]]
        # the second prime drops the first column: its pivots (1,) come after
        # the first prime's (0,), so its residue goes to a group of its own
        # that is not lifted, and the group (0,) is lifted again with the
        # third and fourth primes
        assert used == list(SMALL_PRIMES[:4])


class TestEngineFaults:
    """A trailing product that skips a row, or an echelon run that keeps a
    non-unit pivot, is caught by exact verification."""

    @pytest.fixture
    def skipping_gemm(self, monkeypatch):
        real = linalg._sub_product
        skipped = []

        def skip_a_multiplier_row(T, L, X, p):
            # drop the last row with a nonzero multiplier, so that gathering
            # only those rows cannot turn the fault into a no-op
            rows = np.flatnonzero(L.any(axis=1))
            if rows.size:
                L = L.copy()
                L[rows[-1]] = 0
                skipped.append(int(rows[-1]))
            real(T, L, X, p)

        monkeypatch.setattr(linalg, "_sub_product", skip_a_multiplier_row)
        return skipped

    def test_certified_nullspace_raises(self, skipping_gemm):
        A = random_int_matrix(random.Random(4), 40, 80, rank_deficit=6)
        with pytest.raises(ArithmeticError):
            certified_integer_nullspace(A)
        assert skipping_gemm

    def test_non_unit_lead_in_the_run_is_refused(self, monkeypatch):
        # the run rule reading every nonzero lead as a 1 keeps the lead 2 of
        # row 0 unscaled; back-substitution then assumes a unit pivot and
        # the lifted column (1, -1, 1) fails A @ V == 0 at every prime
        real = linalg._unit_echelon_run
        monkeypatch.setattr(linalg, "_unit_echelon_run", lambda A, lead: real(A != 0, lead))
        with pytest.raises(ArithmeticError, match="nullspace reconstruction failed at every prime"):
            certified_integer_nullspace(np.array([[2, 1, 0], [0, 1, 1]]))
        monkeypatch.undo()
        assert certified_integer_nullspace(np.array([[2, 1, 0], [0, 1, 1]])).tolist() == [[1], [-2], [2]]

    def test_coinvariant_closed_forms_fail(self, skipping_gemm):
        # at n <= 4 the staircase eliminations leave no multiplier row to skip
        try:
            checks = coinvariant_closed_form_check(5)
        except ArithmeticError:
            checks = None
        assert skipping_gemm
        assert checks is None or not all(c["passed"] for c in checks)


class TestSubspaceTracer:
    def test_fixed_vectors(self):
        tracer = SubspaceTracer([[1, 1, 0, 0], [0, 0, 1, 1]])
        swap_within = np.array([1, 0, 3, 2])
        assert tracer.trace(swap_within) == 2

    def test_swapped_vectors(self):
        tracer = SubspaceTracer([[1, 1, 0, 0], [0, 0, 1, 1]])
        swap_pairs = np.array([2, 3, 0, 1])
        assert tracer.trace(swap_pairs) == 0

    def test_signed_action(self):
        # span of (1,-1): swapping coordinates negates it
        tracer = SubspaceTracer([[1, -1]])
        assert tracer.trace(np.array([1, 0])) == -1
        assert tracer.trace(np.array([0, 1])) == 1

    def test_rejects_dependent_basis(self):
        with pytest.raises(ArithmeticError):
            SubspaceTracer([[1, 2], [2, 4]])

    def test_empty_basis(self):
        assert SubspaceTracer([]).trace(np.array([0, 1])) == 0

    def test_picks_the_first_prime_with_independent_columns(self):
        # the columns are dependent mod SMALL_PRIMES[0] only
        tracer = SubspaceTracer([[1, 0], [0, SMALL_PRIMES[0]]])
        assert tracer.p == SMALL_PRIMES[1]
        assert tracer.trace(np.array([0, 1])) == 2
        assert tracer.trace(np.array([1, 0])) == 0

    def test_non_invariant_span_raises(self):
        # the span of (1, 2) is not invariant under the swap; the would-be
        # trace reads 2, beyond the dimension bound 1
        with pytest.raises(ArithmeticError, match="not invariant"):
            SubspaceTracer([[1, 2]]).trace(np.array([1, 0]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.permutations(range(n)),
                st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            )
        )
    )
    def test_traces_match_the_fraction_pivot_sum(self, perm_and_vector):
        # The orbit of v under the coordinate permutation spans an invariant
        # subspace, and its first `rank` orbit vectors are a basis of it.
        perm, v = perm_and_vector
        src = np.array(perm)
        orbit = [v]
        for _ in range(len(v) - 1):
            orbit.append([orbit[-1][c] for c in src])
        rank, _, _ = frac_rref(F(orbit))
        basis = orbit[:rank]
        tracer = SubspaceTracer(basis)
        _, pivots, rref = frac_rref(F(basis))
        power = np.arange(len(v))
        for _ in range(len(v) + 1):
            exact = sum((rref[j][power[pc]] for j, pc in enumerate(pivots)), Fraction(0))
            assert tracer.trace(power) == exact
            power = power[src]

    def test_huge_entries_trace_like_their_small_equivalent(self):
        # the sum-zero vectors of Q^4 are invariant under every permutation,
        # and the huge rows span them too (a triangular change of basis)
        small = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]]
        big = [
            [2**70 * a + b for a, b in zip(small[0], small[1])],
            [b + 2**70 * c for b, c in zip(small[1], small[2])],
            [2**70 * c for c in small[2]],
        ]
        tracers = [
            SubspaceTracer(small),
            SubspaceTracer(big),
            SubspaceTracer(np.array(big, dtype=object)),
        ]
        for sigma in itertools.permutations(range(4)):
            src = np.array(sigma)
            fixed = sum(i == c for i, c in enumerate(sigma))
            assert [t.trace(src) for t in tracers] == [fixed - 1] * 3
