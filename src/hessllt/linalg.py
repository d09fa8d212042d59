"""Certified-modular linear algebra helpers.

Every elimination runs through blocked_rref mod a word-sized prime, and
every consumer converts the mod-p output back into an exact statement
through one of two rigorous one-sided certificates: the rank of an integer
matrix over F_p never exceeds its rank over Q, so (a) exhibited exact
vectors that are independent mod p are independent over Q, and (b) the F_p
nullity of an exact constraint matrix bounds the Q nullity from above.
When the two bounds meet, the dimension is pinned exactly.

Candidate vectors lifted from mod-p solutions (CRT across several primes
plus rational reconstruction) are always verified exactly before use, so
wrong lifts cannot corrupt results, only delay them.  A nullspace takes
its primes by one rule: each prime is eliminated once, its residues join
the group of primes with the same pivots, and the group of the best
pivots yet is lifted, so no correct residue is ever thrown away.

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
blocked_rref, which runs almost all of its arithmetic as float64 matrix
products and keeps every entry of its matrix reduced below p between
steps.  Every product, whether a rank-one update of the panel rows that
carry a multiplier, a triangular inverse of at most _PANEL rows or its
application, or a row chunk of a trailing update, has inner dimension at
most _PANEL = 32 and operands reduced below p, and is reduced before it is
read again.  With p < 2**22 no value reaches 33 * p**2 < 2**53, so the
floating-point arithmetic is exact integer arithmetic at BLAS speed, and
_reduce, a multiply by 1/p with a truncated quotient, is exact on all of
it.  The work follows the nonzeros: a pivot updates only the rows with a
nonzero multiplier, and a trailing product only the rows whose multipliers
are not all zero, which for the sparse 0/1 coinvariant matrices is a small
part, and rows already in echelon form with unit pivots, such as the
transposed staircase bases of the coinvariant ideal, are taken as they
stand.  Products of inner dimension at most 32 gain nothing from a second
BLAS thread, so cli.main runs OpenBLAS on one unless the caller set a count.
exact_product is the one rule for an exact integer product of data: the
nullspace check here, the edge congruences and localization numerator in gkm.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .lazynp import np


# ----------------------------------------------------- CRT and lifting


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Combine residues (ints, or object arrays entrywise); moduli must be coprime."""
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


def lift_vector(residues: list[np.ndarray], moduli: list[int]) -> list[int | Fraction] | None:
    """CRT-combine per-prime residue vectors and rationally reconstruct each entry.

    An entry whose symmetric residue s has |s| <= isqrt(m/2) reconstructs
    to the integer s (reconstruction within that bound is unique), so those
    entries come out of one NumPy step as ints; only the others go through
    rational_reconstruct."""
    r, m = residues[0], moduli[0]
    if len(moduli) > 1:
        r = r.astype(object)  # the combined residues outgrow int64
    for vec, p in zip(residues[1:], moduli[1:]):
        r, m = crt_pair(r, m, vec, p)
    s = np.where(r > m // 2, r - m, r)
    out = s.tolist()
    for i in np.flatnonzero(np.abs(s) > isqrt(m // 2)):
        f = rational_reconstruct(int(r[i]), m)
        if f is None:
            return None
        out[i] = f
    return out


def integerize(vec: list[int | Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers (positive leading sign kept)."""
    den = lcm(*(f.denominator for f in vec))
    ints = [f.numerator * (den // f.denominator) for f in vec]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


# ------------------------------------------------- blocked small-prime GE


SMALL_PRIMES = (4194301, 4194287, 4194277, 4194271, 4194247, 4194217, 4194199, 4194191, 4194187, 4194181)

_PANEL = 32  # columns pivoted one at a time; (_PANEL + 1) * (SMALL_PRIMES[0] - 1) ** 2 < 2 ** 53
_CHUNK = 1 << 18  # entries per row chunk of the full-height temporaries


def _chunks(nrows: int, width: int):
    """Slices of about _CHUNK entries over nrows rows of the given width."""
    step = max(1, _CHUNK // max(width, 1))
    return (slice(i, i + step) for i in range(0, nrows, step))


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """Exact in-place mod p for an integer-valued float64 array (or a view)
    whose entries b satisfy |b| < 2**53; returns a.

    b -= trunc(b * (1/p)) * p, one row chunk at a time.  Let x = |b| / p
    and m = floor(x).  fl(1/p) is within a factor 1 +- 2**-53 of 1/p, so
    |b| * fl(1/p) is within |b| / (p 2**53) < 1 / p of x, hence not below m
    unless p divides b; rounding the product moves it by at most as much
    again and never across the float m.  So the truncated quotient f has
    magnitude m, except possibly m - 1 where p divides b and m + 1 where p
    divides |b| + 1.  Hence |f p| <= |b| + 1 <= 2**53, f p and b - f p are
    float64 integers, and b - f p lies in [-p, p]: adding p to the negative
    entries and taking p from those at or above p lands every entry in
    [0, p).  (A floor in place of trunc would let |f p| reach |b| + p, past
    2**53 for b near -2**53.)"""
    inv = 1.0 / p
    for s in _chunks(len(a), a.size // max(len(a), 1)):
        b = a[s]
        f = b * inv
        np.trunc(f, out=f)
        f *= p
        b -= f
        np.add(b, p, out=b, where=b < 0)
        np.subtract(b, p, out=b, where=b >= p)
    return a


def _sub_product(T: np.ndarray, L: np.ndarray, X: np.ndarray, p: int) -> None:
    """T -= L @ X, reduced mod p, for T, L and X reduced and L at most
    _PANEL columns wide.  Only the rows of T where L has a nonzero entry
    change, so only those are gathered, in row chunks, and written back."""
    rows = np.flatnonzero(L.any(axis=1))
    for s in _chunks(len(rows), T.shape[1]):
        idx = rows[s]
        T[idx] = _reduce(T[idx] - L[idx] @ X, p)


def _unit_lower_inverse(S: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of I + (strict lower part of S), for S reduced and at
    most _PANEL rows, by forward substitution over the rows with a nonzero
    strict lower part (the others are identity rows of the inverse)."""
    W = np.eye(len(S))
    for j in np.flatnonzero(np.tril(S, -1).any(axis=1)):
        W[j, :j] = -(S[j, :j] @ W[:j, :j]) % p
    return W


def _replay(T: np.ndarray, L: np.ndarray, invs: list[int], q: int, p: int) -> None:
    """Apply recorded eliminations to the reduced column block T in place.

    Pivot j sat in row q + j, was scaled by invs[j] and left the multiplier
    column L[:, j] (zero down to its own row).  The pivot rows become X =
    (I + D L_strict)^-1 D T[q:q+k] with D = diag(invs), which is the
    sequential recurrence X_j = invs[j] (T_j - sum_{i<j} L[q+j, i] X_i) in
    one product, and the rows below lose L @ X."""
    k = len(invs)
    if not k or not T.shape[1]:
        return
    D = np.array(invs, dtype=np.float64)
    W = _reduce(_unit_lower_inverse(_reduce(L[q:q + k] * D[:, None], p), p) * D, p)
    T[q:q + k] = _reduce(W @ T[q:q + k], p)
    _sub_product(T[q + k:], L[q + k:], T[q:q + k], p)


def _back_substitute(E: np.ndarray, pivots: list[int], F: np.ndarray, p: int) -> None:
    """F <- U^-1 F mod p in place, for U = E[:len(pivots), pivots] unit upper
    triangular and F reduced: blocks of _PANEL rows from the bottom, each
    gathered from E before F is written (F may be rows of E: no earlier pivot
    column changes), applying its diagonal inverse and clearing the rows above."""
    b = len(pivots)
    while b > 0:
        a = max(0, b - _PANEL)
        U = E[:b, pivots[a:b]]
        F[a:b] = _reduce(_unit_lower_inverse(U[a:].T, p).T @ F[a:b], p)
        _sub_product(F[:a], U[:a], F[a:b], p)
        b = a


def _unit_echelon_run(A: np.ndarray, lead: np.ndarray) -> int:
    """How many leading rows of the reduced A are in echelon form with unit
    pivots: row i has a 1 at lead[i] (ncols for a zero row) < every lead below."""
    below = np.minimum.accumulate(np.append(lead, A.shape[1])[:0:-1])[::-1]  # min(lead[i+1:], ncols)
    k = int(np.append(lead < below, False).argmin())
    return int(np.append(A[np.arange(k), lead[:k]] == 1, False).argmin())


def blocked_rref(A: np.ndarray, p: int, full: bool = True) -> tuple[int, list[int], np.ndarray]:
    """Gaussian elimination mod a sub-2**22 prime, grouped into BLAS-3 blocks.

    Entries live as integer-valued float64, and every entry stays reduced
    below p between steps: the entry reduction leaves it so, and each
    update below is reduced as it is written.  The longest leading run of
    rows already in echelon form with unit pivots (_unit_echelon_run) is
    taken as it stands, since the loop below would swap, scale and update
    nothing there; the other columns go in panels of _PANEL from the column
    after the run's last pivot.  Inside a panel, pivots are taken one at a
    time: the first nonzero row is swapped up, its panel row is scaled by
    the inverse pivot (a product below p**2, reduced at once), and the other
    nonzero rows of the column, the only rows with a nonzero multiplier,
    lose a multiple of it in the panel's columns and are reduced at once;
    their multipliers are recorded in full-height columns.  When the panel ends the trailing
    columns receive its eliminations by _replay, whose products gather only
    the rows with a multiplier.  Exactness: every product has inner
    dimension at most _PANEL and operands reduced below p, so no value
    reaches (_PANEL + 1) * p**2 < 2**53, within _reduce's range.  Returns
    (rank, pivots, matrix), reduced mod p: the reduced row echelon form when
    full is True (back-substituted by _back_substitute), the forward
    elimination otherwise.
    """
    if (_PANEL + 1) * (p - 1) ** 2 >= 2 ** 53:
        raise ValueError("prime too large for exact float64 panels")
    if not isinstance(A, np.ndarray):
        A = np.array(A, dtype=object)  # NumPy may read ints past 2**63 as float64
    nrows, ncols = A.shape
    A, given = np.empty((nrows, ncols)), A
    lead = np.full(nrows, ncols)  # first nonzero column of each row, ncols for a zero row
    for s in _chunks(nrows, ncols):
        np.remainder(given[s], p, out=A[s], casting="unsafe")  # exact, then cast in small buffers
        if ncols:  # argmax needs a column; its boolean chunk is freed before the next remainder
            lead[s] = np.where(A[s].any(axis=1), (A[s] != 0).argmax(axis=1), ncols)
    r = _unit_echelon_run(A, lead)
    pivots: list[int] = lead[:r].tolist()
    for c0 in range(pivots[-1] + 1 if r else 0, ncols if r < nrows else 0, _PANEL):  # none if no row is left
        c1 = min(c0 + _PANEL, ncols)
        q = r
        L = np.zeros((nrows, c1 - c0))
        invs: list[int] = []
        for c in range(c0, c1):
            nz = np.flatnonzero(A[r:, c])
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                A[[r, pr]] = A[[pr, r]]
                L[[r, pr]] = L[[pr, r]]
            inv = pow(int(A[r, c]), p - 2, p)
            row = A[r, c:c1]
            np.remainder(row * inv, p, out=row)
            rows = r + nz[1:]  # the swap moved the first nonzero to row r only
            if rows.size:
                mult = A[rows, c]
                L[rows, r - q] = mult
                A[rows, c:c1] = _reduce(A[rows, c:c1] - np.outer(mult, row), p)
            invs.append(inv)
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        _replay(A[:, c1:], L[:, :r - q], invs, q, p)
        if r == nrows:
            break
    if full and r:
        _back_substitute(A, pivots, A[:r], p)
    return r, pivots, A


def nullspace_small(A: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Canonical mod-p nullspace; returns (pivots, free columns, basis matrix).

    Basis columns are indexed by free columns: unit at the free column and
    -rref entry at each pivot column, zero at the other free columns.  Only
    the free columns of the forward elimination are back-substituted: no
    later pivot row touches an earlier pivot column, so the pivot block
    and the coefficients above it never change.
    """
    ncols = A.shape[1]
    rank, pivots, E = blocked_rref(A, p, full=False)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((ncols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    if pivots and free:
        F = E[:rank, free]
        _back_substitute(E, pivots, F, p)
        basis[pivots, :] = ((-F) % p).astype(np.int64)
    return pivots, free, basis


def certified_integer_nullspace(A: np.ndarray) -> np.ndarray:
    """Exact rational nullspace of an integer matrix, certified on both sides.

    Returns a (ncols x nullity) integer column matrix.  The mod-p nullity is
    an upper bound for the rational nullity (rank can only drop modulo p);
    the returned columns are exactly verified nullspace vectors that are
    independent over Q because each canonical column is nonzero at its own
    free coordinate and zero at the others.  The bounds therefore meet and
    the dimension is pinned, so the verified columns are the canonical
    basis whatever the number of primes behind them.  One rule picks the
    primes: each of SMALL_PRIMES is eliminated once and its residues join
    the group of primes with its pivots, and whenever the pivots are the
    best yet (most rank, then lexicographically earliest: the rank of a
    column prefix can only drop mod p), the whole group is lifted and
    verified.  At a prime with the rational pivots the echelon form is the
    rational one mod p, so no residue is dropped and the modulus grows.
    """
    A = np.asarray(A)
    ncols = A.shape[1]
    if A.shape[0] == 0 or ncols == 0:
        return np.eye(ncols, dtype=np.int64)
    groups: dict[tuple[int, ...], tuple[list[np.ndarray], list[int]]] = {}
    best: tuple = (1,)  # sorts after every (-rank, pivots)
    for p in SMALL_PRIMES:
        pivots, free, basis = nullspace_small(A, p)
        if not free:
            # rank_p = ncols forces rank_Q = ncols: the nullspace is 0
            return np.zeros((ncols, 0), dtype=np.int64)
        residues, moduli = groups.setdefault(tuple(pivots), ([], []))
        residues.append(basis)
        moduli.append(p)
        if (-len(pivots), pivots) > best:
            continue  # another prime had more rank or earlier pivots
        best = (-len(pivots), pivots)
        cols: list[list[int]] = []
        for j in range(len(free)):
            vec = lift_vector([r[:, j] for r in residues], moduli)
            if vec is None:
                break
            cols.append(integerize(vec) if Fraction in map(type, vec) else vec)  # ints: primitive by the free 1
        else:
            V = np.array(cols, dtype=object).T
            if not exact_product(A, V).any():
                return V if max(map(abs, V.flat)) >> 63 else V.astype(np.int64)
    raise ArithmeticError("nullspace reconstruction failed at every prime")


def exact_product(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A @ V, exact, for arrays of any integer dtype or of Python ints (V
    may be a vector).  Every partial sum is an integer of absolute value at
    most peak * norm: peak the largest |entry| of V, read in Python ints,
    and norm the largest row sum of |A|, taken in float64 (Python ints for
    an object A), exact below 2**53 and, rounding being monotone, never
    below it from above.  Under 2**53 the product runs in float64 through
    BLAS, one row block of A at a time, in any order exactly, and returns
    int64; else it runs over Python ints and returns an object array."""
    peak = max(int(V.max()), -int(V.min())) if V.size else 0
    blocks = list(_chunks(len(A), A.shape[1]))
    wide = object if A.dtype == object else np.float64  # for the row sums of |A|
    norm = max((int(np.abs(A[s], dtype=wide).sum(axis=1).max()) for s in blocks), default=0)
    kind = np.float64 if max(peak, 1) * norm < 2**53 else object
    W = V.astype(kind)
    out = np.empty((len(A),) + V.shape[1:], dtype=np.int64 if kind is np.float64 else object)
    for s in blocks:
        out[s] = A[s].astype(kind) @ W
    return out


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
