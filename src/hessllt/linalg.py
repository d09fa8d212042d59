"""Exact and certified-modular linear algebra helpers.

Two regimes share one contract:

* frac_rref reduces small matrices directly over Fraction; it inverts the
  symmetric-function basis tables and serves as the exact oracle of the
  brute-force quotient characters and the tests;
* large systems run Gaussian elimination mod a word-sized prime in numpy,
  and every consumer converts the mod-p output back into an exact statement
  through one of two rigorous one-sided certificates: the rank of an integer
  matrix over F_p never exceeds its rank over Q, so (a) exhibited exact
  vectors that are independent mod p are independent over Q, and (b) the
  F_p nullity of an exact constraint matrix bounds the Q nullity from above.
  When the two bounds meet, the dimension is pinned exactly.

Candidate vectors lifted from mod-p solutions (CRT across several primes
plus rational reconstruction) are always verified exactly before use, so
wrong lifts cannot corrupt results, only delay them.

Traces of a permutation action restricted to an invariant subspace are
computed by SubspaceTracer from the reduced row echelon form R mod p of a
basis B whose pivot rows S are invertible mod p: R = S^-T B^T, so the sum
of R at the permuted pivots is the trace of the p-integral action matrix
S^-1 B[src[pivots]] mod p.  That trace is an integer of absolute value at
most dim (eigenvalues of a finite-order operator are roots of unity), so
its symmetric residue is exact.  The tracer picks its prime once, the
first of SMALL_PRIMES[:4] at which the basis is independent, and a trace
never retries: a residue beyond the bound can only mean the span is not
invariant.

The heaviest eliminations use SMALL_PRIMES just under 2**22 through
blocked_rref, which batches eliminations into float64 matrix products; with
p < 2**22 a dot product of up to 257 terms, each below p**2, stays under
2**53, so the floating-point arithmetic is exact integer arithmetic at BLAS
speed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np


# ---------------------------------------------------------------- Fraction


def frac_rref(rows: list[list[Fraction]]) -> tuple[int, list[int], list[list[Fraction]]]:
    """Reduced row echelon form over Q; returns (rank, pivot columns, rref)."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, mat


# ----------------------------------------------------- CRT and lifting


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine residues; moduli must be coprime."""
    inv = pow(m1 % m2, m2 - 2, m2)  # m2 is prime and does not divide m1
    t = ((r2 - r1) * inv) % m2
    return (r1 + m1 * t) % (m1 * m2), m1 * m2


def rational_reconstruct(r: int, m: int) -> Fraction | None:
    """num/den = r mod m with |num|, den <= sqrt(m/2), or None."""
    r %= m
    if r == 0:
        return Fraction(0)
    bound = isqrt(m // 2)
    a, b = m, r
    sa, sb = 0, 1
    while b > bound:
        q = a // b
        a, b = b, a - q * b
        sa, sb = sb, sa - q * sb
    if b == 0 or abs(sb) > bound or gcd(b, abs(sb)) != 1:
        return None
    num, den = (b, sb) if sb > 0 else (-b, -sb)
    if (num - den * r) % m != 0:
        return None
    return Fraction(num, den)


def lift_vector(residues: list[np.ndarray], moduli: list[int]) -> list[Fraction] | None:
    """CRT-combine per-prime residue vectors and rationally reconstruct each entry."""
    n = len(residues[0])
    out: list[Fraction] = []
    for i in range(n):
        r, m = int(residues[0][i]), moduli[0]
        for vec, p in zip(residues[1:], moduli[1:]):
            r, m = crt_pair(r, m, int(vec[i]), p)
        f = rational_reconstruct(r, m)
        if f is None:
            return None
        out.append(f)
    return out


def integerize(vec: list[Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers (positive leading sign kept)."""
    lcm = 1
    for f in vec:
        d = f.denominator
        lcm = lcm // gcd(lcm, d) * d
    ints = [int(f * lcm) for f in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    return ints


# ------------------------------------------------- blocked small-prime GE


SMALL_PRIMES = (4194301, 4194287, 4194277, 4194271, 4194247, 4194217, 4194199, 4194191, 4194187, 4194181)

_PANEL = 256  # (_PANEL + 1) * (SMALL_PRIMES[0] - 1) ** 2 < 2 ** 53


def _reduce(a: np.ndarray, p: int) -> None:
    """Exact in-place mod for a view of an integer-valued float64 array
    (int64 mod is ~30x faster than float64 fmod, and one int64 copy is the
    only temporary); valid while every entry has magnitude below 2**53."""
    r = a.astype(np.int64)
    r %= p
    a[...] = r


def blocked_rref(A: np.ndarray, p: int, full: bool = True) -> tuple[int, list[int], np.ndarray]:
    """Gaussian elimination mod a sub-2**22 prime, grouped into BLAS-3 panels.

    Entries live as integer-valued float64.  Every product is below p**2 <
    2**44 and at most _PANEL + 1 products are ever accumulated into one
    value, so all intermediates stay below 2**53 and the floating-point
    arithmetic is exact integer arithmetic.  Reduction mod p is lazy: only
    values about to be read (pivot column, pivot row, finished blocks) are
    reduced, everything else accumulates until its panel completes.  Within
    a panel of columns, pivots are processed one at a time, recording
    full-height multiplier columns and row swaps; the columns right of the
    panel then receive all of the panel's eliminations as one replay over
    the pivot rows plus a single matrix product.  Returns (rank, pivots,
    matrix): the reduced row echelon form when full is True, the forward
    elimination otherwise.
    """
    if (_PANEL + 1) * (p - 1) ** 2 >= 2 ** 53:
        raise ValueError("prime too large for exact float64 panels")
    if not isinstance(A, np.ndarray):
        A = np.array(A, dtype=object)  # NumPy may read ints past 2**63 as float64
    A = np.ascontiguousarray(A % p, dtype=np.float64)
    nrows, ncols = A.shape
    pivots: list[int] = []
    r = 0
    c0 = 0
    while c0 < ncols and r < nrows:
        c1 = min(c0 + _PANEL, ncols)
        lcols: list[np.ndarray] = []
        invs: list[int] = []
        p0 = r
        for c in range(c0, c1):
            _reduce(A[r:, c], p)
            nz = np.nonzero(A[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                A[[r, pr]] = A[[pr, r]]
                for lcol in lcols:
                    lcol[[r, pr]] = lcol[[pr, r]]
            inv = pow(int(A[r, c]), p - 2, p)
            row = A[r, c:c1]
            _reduce(row, p)
            row *= inv
            _reduce(row, p)
            mult = np.zeros(nrows)
            mult[r + 1:] = A[r + 1:, c]
            if mult.any():
                A[r + 1:, c:c1] -= np.outer(mult[r + 1:], A[r, c:c1])
            lcols.append(mult)
            invs.append(inv)
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        _reduce(A[:, c0:c1], p)
        if lcols and c1 < ncols:
            # Replay the panel's eliminations on the trailing columns: first
            # bring the pivot rows to final form in order, then clear every
            # other row with one exact GEMM.
            T = A[:, c1:]
            k = len(lcols)
            L = np.stack(lcols, axis=1)
            for j in range(k):
                rj = p0 + j
                if j:
                    T[rj] -= L[rj, :j] @ T[p0:rj]
                    _reduce(T[rj], p)
                T[rj] *= invs[j]
                _reduce(T[rj], p)
            L[p0:p0 + k, :] = 0.0
            T -= L @ T[p0:p0 + k]
            _reduce(T, p)
        c0 = c1
    rank = r
    if full and rank:
        b = rank
        while b > 0:
            a = max(0, b - _PANEL)
            for j in range(b - 1, a, -1):
                _reduce(A[j], p)
                coef = A[a:j, pivots[j]]
                _reduce(coef, p)
                if coef.any():
                    A[a:j, :] -= np.outer(coef, A[j, :])
            _reduce(A[a:b], p)
            if a > 0:
                C = A[:a, pivots[a:b]]
                if C.any():
                    A[:a, :] -= C @ A[a:b, :]
                    _reduce(A[:a], p)
            b = a
    return rank, pivots, A


def nullspace_small(A: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Canonical mod-p nullspace; returns (pivots, free columns, basis matrix).

    Basis columns are indexed by free columns: unit at the free column and
    -rref entry at each pivot column, zero at the other free columns.
    """
    ncols = A.shape[1]
    rank, pivots, rref = blocked_rref(A, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    for j, f in enumerate(free):
        basis[f, j] = 1
    if pivots and free:
        basis[pivots, :] = ((-rref[:rank][:, free]) % p).astype(np.int64)
    return pivots, free, basis


def certified_integer_nullspace(A: np.ndarray) -> np.ndarray:
    """Exact rational nullspace of an integer matrix, certified on both sides.

    Returns a (ncols x nullity) integer column matrix.  The mod-p nullity is
    an upper bound for the rational nullity (rank can only drop modulo p);
    the returned columns are exactly verified nullspace vectors that are
    independent over Q because each canonical column is nonzero at its own
    free coordinate and zero at the others.  The bounds therefore meet and
    the dimension is pinned.  Entries are CRT-combined across SMALL_PRIMES
    until rational reconstruction succeeds; a reconstruction or verification
    failure restarts from the next prime (an unlucky prime dropped the rank).
    """
    A = np.asarray(A)
    ncols = A.shape[1]
    if A.shape[0] == 0 or ncols == 0:
        return np.eye(ncols, dtype=np.int64)
    for start in range(len(SMALL_PRIMES) - 1):
        residues: list[np.ndarray] = []
        moduli: list[int] = []
        ref_pivots: list[int] | None = None
        nullity = -1
        for p in SMALL_PRIMES[start:]:
            pivots, free, basis = nullspace_small(A, p)
            if ref_pivots is None:
                ref_pivots, nullity = pivots, len(free)
                if nullity == 0:
                    # rank_p = ncols forces rank_Q = ncols: the nullspace is 0
                    return np.zeros((ncols, 0), dtype=np.int64)
            elif pivots != ref_pivots:
                continue
            residues.append(basis)
            moduli.append(p)
            if len(moduli) < 2:
                continue
            cols: list[list[int]] = []
            for j in range(nullity):
                vec = lift_vector([r[:, j] for r in residues], moduli)
                if vec is None:
                    break
                cols.append(integerize(vec))
            else:
                V = np.array(cols, dtype=object).T
                peak = max(max(abs(x) for x in col) for col in cols)
                row_l1 = int(np.abs(A).sum(axis=1).max())
                if peak * row_l1 * 1 < 2**62 and peak < 2**62:
                    V = V.astype(np.int64)
                    ok = not np.any(A @ V)
                else:
                    ok = not np.any(A.astype(object) @ V)
                if ok:
                    return V
                break  # a vector failed exact verification: unlucky reference prime
    raise ArithmeticError("nullspace reconstruction failed at every prime")


# --------------------------------------------------------------- tracing


class SubspaceTracer:
    """Exact traces of coordinate-permutation actions on an invariant span.

    columns: exact integer basis of the subspace, one row of ints over the
    ambient coordinates per basis vector (nested lists, or an integer or
    object array).  The constructor takes the first prime p of
    SMALL_PRIMES[:4] at which the columns are independent mod p (hence over
    Q) and keeps their reduced row echelon form R and its pivots; it raises
    if no such prime exists.  trace(src) returns the exact integer trace of
    the action f -> f o src on the span, valid whenever the span is
    invariant; src is the ambient index array with (sigma f)[c] = f[src[c]].

    Exactness: with B the basis as columns and S = B[pivots] invertible mod
    p, R = S^-T B^T mod p.  The action matrix over Q is S^-1 B[src[pivots]],
    which is p-integral, and its trace is sum_j R[j, src[pivots[j]]] mod p.
    Its absolute value is at most k, so the symmetric residue is exact, and
    a residue beyond k means the span is not invariant: trace raises rather
    than retrying, since another prime could only hide that.
    """

    def __init__(self, columns):
        self.k = len(columns)
        if self.k == 0:
            return
        for p in SMALL_PRIMES[:4]:
            rank, pivots, R = blocked_rref(columns, p)
            if rank == self.k:
                break
        else:
            raise ArithmeticError("basis columns are not independent mod any tracer prime")
        self.p = p
        self.pivots = np.array(pivots, dtype=np.intp)
        self.R = R

    def trace(self, src: np.ndarray) -> int:
        if self.k == 0:
            return 0
        t = int(self.R[np.arange(self.k), np.asarray(src)[self.pivots]].sum()) % self.p
        if t > self.p // 2:
            t -= self.p
        if abs(t) > self.k:
            raise ArithmeticError("trace bound violated: the span is not invariant")
        return t
