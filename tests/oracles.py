"""Independent routes that only the tests run.

Each oracle recomputes an object of the library by the most literal method
available, practical only at small n: induced Young characters by coset
sums, csf and llt by enumerating colorings in pure Python and by the int64
NumPy kernel over all n^n colorings (the oracle of the tally over the n!
rankings), the moment-graph
quotient characters by Fraction echelon forms of each piece and of its
ideal subspace, the index maps of the moment graphs and the spanning set
e_k * m of the coinvariant ideal by tuple lookup, the
congruence check, the actions, xi and the product of moment-graph classes and
the numerator of the localization pushforward on one polynomial dict per
vertex, the flavor-Y pieces as the xi-transport of
the X bases, with their dagger traces by SubspaceTracer, the basis tables of symfunc by direct
expansion and Fraction inversion, and the fixed faces of a permutation by
relabeling each face.  The character of the polynomial ring and the
substitution q -> 1/q are computed as rational functions of q: they are the
routes that the checks of the library replace by cleared denominators.
frac_rref, the Fraction echelon form, is also the
oracle of the certified mod-p engine, back_substitute_by_full_copy of its
back-substitution, and product_columns_all of the flavor-X candidates
that the last-variable rule prunes.  FractionPoly, the dense polynomial
with one Fraction per coefficient, is the oracle of the integer-numerator
QPoly, and fraction_rat_string of QRat.to_string.  The named basis elements
are here for the tests that build symmetric functions by hand.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from hessllt.characters import frobenius_char, graded_class_function
from hessllt.combinat import (
    Partition,
    Permutation,
    all_permutations,
    class_representative,
    compose,
    cycle_type,
    inverse,
    partitions_of,
    sort_to_partition,
    young_subgroup_order,
    z_mu,
)
from hessllt.errors import BudgetExceededError
from hessllt.gkm import (
    _VALID_QUOTIENTS,
    GkmModel,
    GkmSpace,
    _ambient_src,
    _check_degree_budget,
    _mono_shift_map,
    _verify_columns,
    _xi_gather,
    degree_piece,
)
from hessllt.hessgraph import HessenbergFunction, _tally_poly
from hessllt.linalg import _PANEL, _reduce, _sub_product, _unit_lower_inverse
from hessllt.multipoly import (MPoly, monomials, mp_add, mp_divide_linear, mp_mul, mp_permute, mp_sub,
                               mp_var)
from hessllt.permco import PermutohedronFace
from hessllt.qrat import QPoly, QRat, Scalar, format_poly
from hessllt.symfunc import SymFunc, murnaghan_nakayama


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


def frac_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """The right half of the reduced row echelon form of [mat | I]."""
    size = len(mat)
    _, pivots, rref = frac_rref(
        [row + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(mat)]
    )
    assert pivots == list(range(size)), "transition matrix is singular"
    return [row[size:] for row in rref]


def back_substitute_by_full_copy(E: np.ndarray, pivots: list[int], F: np.ndarray, p: int) -> None:
    """linalg._back_substitute as it was before it gathered its blocks: the
    whole rank x rank pivot block U = E[:rank, pivots] is copied first, then
    F <- U^-1 F mod p in blocks of _PANEL rows from the bottom."""
    U = E[:len(pivots), pivots]
    b = len(U)
    while b > 0:
        a = max(0, b - _PANEL)
        F[a:b] = _reduce(_unit_lower_inverse(U[a:b, a:b].T, p).T @ F[a:b], p)
        _sub_product(F[:a], U[:a, a:b], F[a:b], p)
        b = a


def newton_in_p(k: int, sign: int) -> dict[Partition, Fraction]:
    """h_k (sign 1) or e_k (sign -1) in the p basis by the Newton recurrence
    k x_k = sum_i sign^(i-1) p_i x_(k-i)."""
    if k == 0:
        return {(): Fraction(1)}
    out: dict[Partition, Fraction] = {}
    for i in range(1, k + 1):
        for part, c in newton_in_p(k - i, sign).items():
            key = sort_to_partition(part + (i,))
            out[key] = out.get(key, Fraction(0)) + sign ** (i - 1) * c / k
    return out


def power_sum_monomials(lam: Partition, nvars: int) -> dict[tuple[int, ...], int]:
    """p_lam in nvars variables, exponent tuple -> coefficient."""
    poly = {(0,) * nvars: 1}
    for k in lam:
        nxt: dict[tuple[int, ...], int] = {}
        for exp, c in poly.items():
            for i in range(nvars):
                e2 = exp[:i] + (exp[i] + k,) + exp[i + 1:]
                nxt[e2] = nxt.get(e2, 0) + c
        poly = nxt
    return poly


def basis_tables_by_inversion(n: int) -> tuple[dict, dict]:
    """(to_p, from_p) in the layout of symfunc.tables(n), by direct
    expansion and Fraction inversion: e_lam and h_lam in p by the Newton
    recurrences, s_lam in p by the character table, p_mu in m by expanding
    it in n variables, and each remaining table as an inverse of these."""
    parts = partitions_of(n)
    nvars = max(n, 1)
    to_p = {}
    for name, sign in (("h", 1), ("e", -1)):
        cols = []
        for lam in parts:
            acc = {(): Fraction(1)}
            for k in lam:
                nxt: dict[Partition, Fraction] = {}
                for pa, ca in acc.items():
                    for pb, cb in newton_in_p(k, sign).items():
                        key = sort_to_partition(pa + pb)
                        nxt[key] = nxt.get(key, Fraction(0)) + ca * cb
                acc = nxt
            cols.append(acc)
        to_p[name] = [[col.get(mu, Fraction(0)) for col in cols] for mu in parts]
    to_p["s"] = [[Fraction(murnaghan_nakayama(lam, mu), z_mu(mu)) for lam in parts] for mu in parts]
    monos = [power_sum_monomials(mu, nvars) for mu in parts]
    p_in_m = [
        [Fraction(poly.get(lam + (0,) * (nvars - len(lam)), 0)) for poly in monos] for lam in parts
    ]
    to_p["m"] = frac_inverse(p_in_m)
    from_p = {"m": p_in_m} | {name: frac_inverse(to_p[name]) for name in ("e", "h", "s")}
    return to_p, from_p


def elementary(lam: Partition) -> SymFunc:
    return SymFunc.basis_element("e", lam)


def complete_homogeneous(lam: Partition) -> SymFunc:
    return SymFunc.basis_element("h", lam)


def power_sum(lam: Partition) -> SymFunc:
    return SymFunc.basis_element("p", lam)


def schur(lam: Partition) -> SymFunc:
    return SymFunc.basis_element("s", lam)


def sgn_of_class(mu: Partition) -> int:
    """Sign character value on the class: (-1)^(n - number of parts)."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def young_subgroup_contains(I: tuple[int, ...], n: int, w: Permutation) -> bool:
    """Whether w preserves each consecutive block cut by I."""
    cuts = (0,) + tuple(I) + (n,)
    for a, b in zip(cuts, cuts[1:]):
        if any(not a < w[x - 1] <= b for x in range(a + 1, b + 1)):
            return False
    return True


def induced_young_bruteforce(I: tuple[int, ...], n: int, rep: str = "trivial") -> SymFunc:
    """Element-wise induced character by coset sums,
    chi^(G)(g) = (1/|S_I|) #{x in S_n : x^-1 g x in S_I} (times sign for rep='sign')."""
    order = young_subgroup_order(I, n)
    group = all_permutations(n)
    values: dict[Partition, QRat] = {}
    for mu in partitions_of(n):
        g = class_representative(mu)
        total = Fraction(0)
        for x in group:
            y = compose(compose(inverse(x), g), x)
            if young_subgroup_contains(I, n, y):
                if rep == "trivial":
                    total += 1
                else:
                    total += sgn_of_class(cycle_type(y))
        values[mu] = QRat.of(total / order)
    return frobenius_char(n, values)


def polynomial_algebra_series(n: int) -> SymFunc:
    """Graded trace of S_n on C[t_1..t_n], a rational function of q on each
    class: the product over the parts k of mu of 1/(1 - q^k)."""
    values = {}
    for mu in partitions_of(n):
        den = QPoly.one()
        for k in mu:
            den = den * (QPoly.one() - QPoly.monomial(k))
        values[mu] = QRat(QPoly.one(), den)
    return frobenius_char(n, values)


def q_inverse(r: QRat) -> QRat:
    """r(1/q): numerator and denominator reversed to their larger degree."""
    if r.is_zero():
        return r
    d = max(r.num.degree, r.den.degree)
    return QRat(r.num.reversed_to(d), r.den.reversed_to(d))


def rational_palindromicity(chi: SymFunc, shift: QRat, twist: bool, scale: QRat) -> bool:
    """Whether shift * chi(1/q) equals scale * chi (tensored with sign if
    twist), as rational functions of q."""
    rhs = chi.omega() if twist else chi
    return chi.subs_coeffs(lambda c: shift * q_inverse(c)) == rhs.scale(scale)


def face_image(face: PermutohedronFace, sigma: Permutation) -> PermutohedronFace:
    """The face obtained by relabeling every chain entry through sigma."""
    return PermutohedronFace(face.n, [frozenset(sigma[i - 1] for i in a) for a in face.chain])


def asc_coloring(kappa: tuple[int, ...], edges: tuple[tuple[int, int], ...]) -> int:
    """Edges (a, b) with a < b and kappa(a) < kappa(b)."""
    return sum(1 for a, b in edges if kappa[a - 1] < kappa[b - 1])


def is_proper(kappa: tuple[int, ...], edges: tuple[tuple[int, int], ...]) -> bool:
    return all(kappa[a - 1] != kappa[b - 1] for a, b in edges)


def coloring_expansion_bruteforce(h: HessenbergFunction, proper_only: bool) -> SymFunc:
    """csf (proper_only) or llt by enumerating colorings in pure Python,
    practical for n <= 4."""
    n = h.n
    edges = h.edge_pairs()
    table: dict[Partition, dict[int, int]] = {}
    for kappa in itertools.product(range(n), repeat=n):
        if proper_only and not is_proper(kappa, edges):
            continue
        exp = tuple(sorted((kappa.count(c) for c in range(n)), reverse=True))
        lam = tuple(x for x in exp if x > 0)
        a = asc_coloring(kappa, edges)
        table.setdefault(lam, {})
        table[lam][a] = table[lam].get(a, 0) + 1
    qtable = {}
    for lam, by_asc in table.items():
        # each monomial orbit member was counted; divide by the orbit size
        orbit = len(set(itertools.permutations(lam + (0,) * (n - len(lam)))))
        assert all(m % orbit == 0 for m in by_asc.values())
        qtable[lam] = _tally_poly({a: m // orbit for a, m in by_asc.items()})
    return SymFunc.from_q_table("m", n, qtable)


def coloring_weights_kernel(h: HessenbergFunction):
    """Exact q-weight tables over all n^n colorings with n colors, for n <= 7.

    Returns (weights_all, weights_proper), each mapping an exponent vector
    (color multiplicity tuple of length n) to {asc: count}, in lexicographic
    order of exponent vectors.

    Each coloring is grouped by one int64 key.  Its content is read as a
    number in radix n + 1 with color 0 as the most significant digit: every
    position adds (n+1)^(n-1-color), and a digit never exceeds n, so no
    carry occurs and numeric order is lexicographic order of exponent
    vectors.  The key is content * (|h| + 1) + asc, and a 1-D sort with
    counts groups the colorings.
    """
    n = h.n
    if n > 7:
        raise BudgetExceededError(f"the coloring kernel supports n <= 7, got {n}")
    total = n ** n
    idx = np.arange(total, dtype=np.int64)
    arr = np.empty((total, n), dtype=np.int8)
    for pos in range(n - 1, -1, -1):
        arr[:, pos] = (idx % n).astype(np.int8)
        idx //= n
    asc = np.zeros(total, dtype=np.int32)
    proper = np.ones(total, dtype=bool)
    for a, b in h.edge_pairs():
        ca, cb = arr[:, a - 1], arr[:, b - 1]
        asc += ca < cb
        proper &= ca != cb
    radix = n + 1
    place = radix ** np.arange(n - 1, -1, -1, dtype=np.int64)
    content = np.zeros(total, dtype=np.int64)
    for pos in range(n):
        content += place[arr[:, pos]]
    stride = h.size() + 1
    key = content * stride + asc

    def group(keys):
        uniq, mult = np.unique(keys, return_counts=True)
        contents, ascs = np.divmod(uniq, stride)
        exps = contents[:, None] // place % radix
        out: dict[tuple[int, ...], dict[int, int]] = {}
        for exp, a, m in zip(map(tuple, exps.tolist()), ascs.tolist(), mult.tolist()):
            out.setdefault(exp, {})[a] = m
        return out

    return group(key), group(key[proper])


def transported_space(model: GkmModel, d: int) -> GkmSpace:
    """The flavor-Y piece as the xi^{-1}-transport of the flavor-X basis: the
    Y value at w is w^{-1} applied to the X value at w, so the Y coordinate
    c reads the X coordinate _xi_gather[c].  Every column is verified
    against every Y congruence; GkmSpace.trace then gives its dagger traces
    by SubspaceTracer."""
    if model.flavor != "Y":
        raise ValueError("the transported piece is a flavor-Y piece")
    mat = degree_piece(model.twin(), d).matrix[_xi_gather(model, d), :]
    _verify_columns(model, d, mat)
    return GkmSpace(model, d, mat, {"route": "xi-transport"})


def ideal_piece(space_dminus1: GkmSpace, generators: str) -> list[list[int]]:
    """Exact spanning columns of sum_g g * (degree d-1 piece) inside the
    degree-d coordinate space, for g over t_1..t_n or x_1..x_n, block i
    holding g_i times every previous column.  At vertex w, t_i multiplies
    the value by t_i and x_i by t_{w(i)}."""
    model = space_dminus1.model
    n, d = model.n, space_dminus1.degree + 1
    M, M_prev = len(monomials(n, d)), len(monomials(n, d - 1))
    B = space_dminus1.matrix.astype(object)
    cols = []
    for i in range(1, n + 1):
        prod = np.zeros((len(model.vertices) * M, B.shape[1]), dtype=object)
        for iw, w in enumerate(model.vertices):
            var = i if generators == "t_vars" else w[i - 1]
            prod[iw * M + shift_map_by_lookup(n, d, var)] = B[iw * M_prev:(iw + 1) * M_prev]
        cols.extend(prod.T.tolist())
    return cols


def quotient_character_bruteforce(model: GkmModel, generators: str, max_d: int | None = None) -> SymFunc:
    """The quotient character for n <= 3: the trace on the quotient is the
    trace on the piece minus the trace on the ideal subspace, both evaluated
    exactly over Fraction on echelon bases."""
    combo = (model.flavor, generators)
    if combo not in _VALID_QUOTIENTS:
        raise ValueError(f"unsupported quotient combination {combo}")
    n = model.n
    if n > 3:
        raise BudgetExceededError("the bruteforce route is for n <= 3")
    if max_d is None:
        max_d = model.h.size()
    _check_degree_budget(model, max_d)
    piece = degree_piece if model.flavor == "X" else transported_space
    spaces = [piece(model, d) for d in range(max_d + 1)]

    def echelon_basis(columns: list[list[int]]) -> tuple[list[list[Fraction]], list[int]]:
        if not columns:
            return [], []
        rank, pivots, rref = frac_rref([[Fraction(x) for x in col] for col in columns])
        return rref[:rank], pivots

    # echelon bases of each piece and of its ideal subspace, per degree
    bases = [
        (
            echelon_basis(spaces[d].matrix.T.tolist()),
            echelon_basis(ideal_piece(spaces[d - 1], generators) if d else []),
        )
        for d in range(max_d + 1)
    ]

    def subspace_trace(echelon, src) -> Fraction:
        # Echelon rows have a unit at their pivot coordinate and zeros at
        # the other pivots, so the trace is the sum of pivot coordinates of
        # the transported rows.
        rows, pivots = echelon
        return sum((row[src[pc]] for row, pc in zip(rows, pivots)), Fraction(0))

    def series(sigma: tuple[int, ...]) -> list[Fraction]:
        coeffs: list[Fraction] = []
        for d, (piece, ideal) in enumerate(bases):
            src = _ambient_src(model, d, sigma)
            coeffs.append(subspace_trace(piece, src) - subspace_trace(ideal, src))
        return coeffs

    return graded_class_function(n, series)


def relabeling_map_by_lookup(tau: Permutation, d: int) -> np.ndarray:
    """gkm.perm_monomial_map: t_i -> t_tau(i) on each degree-d monomial,
    placed by tuple lookup."""
    n = len(tau)
    index = {e: k for k, e in enumerate(monomials(n, d))}
    out = []
    for e in monomials(n, d):
        e2 = [0] * n
        for i, x in enumerate(e):
            e2[tau[i] - 1] = x
        out.append(index[tuple(e2)])
    return np.array(out, dtype=np.intp)


def shift_map_by_lookup(n: int, d: int, i: int) -> np.ndarray:
    """gkm._mono_shift_map: t_i times each degree d-1 monomial, placed by
    tuple lookup among the degree-d monomials."""
    index = {e: k for k, e in enumerate(monomials(n, d))}
    return np.array(
        [index[tuple(x + (k == i - 1) for k, x in enumerate(e))] for e in monomials(n, d - 1)],
        dtype=np.intp,
    )


def subst_map_by_lookup(n: int, d: int, a: int, b: int) -> np.ndarray:
    """gkm._subst_map: t_a := t_b on each degree-d monomial, the image placed
    by tuple lookup among the degree-d monomials in the other n - 1 variables."""
    index = {e: k for k, e in enumerate(monomials(n - 1, d))}
    out = []
    for e in monomials(n, d):
        e2 = list(e)
        e2[b - 1] += e2[a - 1]
        del e2[a - 1]
        out.append(index[tuple(e2)])
    return np.array(out, dtype=np.intp)


def ideal_span_columns(n: int, d: int) -> np.ndarray:
    """A spanning set of the degree-d piece of the coinvariant ideal
    (e_1, ..., e_n), the route permco's staircase basis replaces: one column
    e_k * m per 1 <= k <= min(n, d) and monomial m of degree d - k, placed
    by tuple lookup."""
    idx = {e: k for k, e in enumerate(monomials(n, d))}
    gens = [(k, m) for k in range(1, min(n, d) + 1) for m in monomials(n, d - k)]
    out = np.zeros((len(idx), len(gens)), dtype=np.int64)
    for j, (k, m) in enumerate(gens):
        for S in itertools.combinations(range(n), k):
            out[idx[tuple(a + (i in S) for i, a in enumerate(m))], j] = 1
    return out


def staircase_columns_by_lookup(model: GkmModel, d: int) -> np.ndarray:
    """gkm._staircase_columns: the class x^a, a_i <= n - i, takes the value
    t^{w(a)} at vertex w, placed vertex by vertex and column by column."""
    n = model.n
    monos = monomials(n, d)
    exps = [k for k, e in enumerate(monos) if all(e[i] <= n - 1 - i for i in range(n))]
    out = np.zeros((len(model.vertices) * len(monos), len(exps)), dtype=np.int64)
    for iw, w in enumerate(model.vertices):
        relabel = relabeling_map_by_lookup(w, d)
        for j, src in enumerate(exps):
            out[iw * len(monos) + int(relabel[src]), j] = 1
    return out


def product_columns_all(model: GkmModel, prev: GkmSpace, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gkm._product_columns without the last-variable rule: t_i * f for
    every variable t_i and every basis column f of the previous degree,
    block i holding t_i times every previous column, then the columns of
    tail; the last variable recorded is i in block i and 0 on tail."""
    n = model.n
    d = prev.degree + 1
    M = len(monomials(n, d))
    B = prev.matrix
    K = B.shape[1]
    out = np.zeros((len(model.vertices) * M, n * K + tail.shape[1]), dtype=B.dtype)
    for i in range(1, n + 1):
        rows = (np.arange(len(model.vertices))[:, None] * M + _mono_shift_map(n, d, i)).ravel()
        out[rows, (i - 1) * K:i * K] = B
    out[:, n * K:] = tail
    return out, np.repeat([*range(1, n + 1), 0], [K] * n + [tail.shape[1]])


def values_by_lookup(model: GkmModel, d: int, coords) -> list[MPoly]:
    """The per-vertex polynomials of a class in GkmSpace coordinates, or of
    a batch with one column per class (row-vector coefficients), read
    vertex by vertex and monomial by monomial."""
    mons = monomials(model.n, d)
    coords = np.asarray(coords).astype(object)
    out = []
    for iv in range(len(model.vertices)):
        block = coords[iv * len(mons):(iv + 1) * len(mons)]
        out.append({e: c for e, c in zip(mons, block) if np.any(c)})
    return out


def mp_subst_var(a: MPoly, i: int, j: int) -> MPoly:
    """Substitute t_i := t_j (both 1-based)."""
    out: MPoly = {}
    for e, c in a.items():
        e2 = list(e)
        e2[j - 1] += e2[i - 1]
        e2[i - 1] = 0
        key = tuple(e2)
        out[key] = out[key] + c if key in out else c
    return {e: c for e, c in out.items() if np.any(c)}


def first_violated_edge_by_substitution(model: GkmModel, values: list[MPoly]):
    """The first edge (iu, iv, a, b) of the model on which the endpoint
    difference survives the substitution t_a := t_b, or None."""
    for iu, iv, a, b in model.edges:
        if mp_subst_var(mp_sub(values[iu], values[iv]), a, b):
            return iu, iv, a, b
    return None


def act_by_dicts(model: GkmModel, values: list[MPoly], sigma: Permutation) -> list[MPoly]:
    """EquivariantClass.act vertex by vertex: dot, on flavor X, moves the
    value at sigma^-1 w to w and relabels its variables by sigma, and
    dagger, on flavor Y, only moves it."""
    vidx = model.vertex_index
    sinv = inverse(sigma)
    if model.flavor == "X":
        return [mp_permute(values[vidx[compose(sinv, w)]], sigma) for w in model.vertices]
    return [values[vidx[compose(sinv, w)]] for w in model.vertices]


def xi_by_dicts(model: GkmModel, values: list[MPoly]) -> list[MPoly]:
    """gkm.xi_transport vertex by vertex: relabel the value at w by w
    (from Y to X) or by w^-1 (from X to Y)."""
    return [
        mp_permute(v, w if model.flavor == "Y" else inverse(w))
        for v, w in zip(values, model.vertices)
    ]


def product_by_dicts(a: list[MPoly], b: list[MPoly]) -> list[MPoly]:
    """The vertexwise product of two classes."""
    return [mp_mul(x, y) for x, y in zip(a, b)]


def pushforward_by_dicts(model: GkmModel, d: int, coords) -> MPoly:
    """gkm.localization_pushforward with its numerator sum_w sgn(w) C_w f(w)
    formed on the per-vertex dicts of values_by_lookup: sgn(w) by counting
    inversions, and f(w) multiplied by the non-arc factors of C_w one at a
    time and added up with mp_mul and mp_add.  The division by the
    Vandermonde product is the library's mp_divide_linear."""
    n = model.n
    arcs = set(model.h.edge_pairs())
    non_arcs = [(j, i) for j in range(1, n + 1) for i in range(j + 1, n + 1) if (j, i) not in arcs]
    num: MPoly = {}
    for w, value in zip(model.vertices, values_by_lookup(model, d, coords)):
        sign = (-1) ** sum(w[a] > w[b] for a, b in itertools.combinations(range(n), 2))
        term = {e: sign * c for e, c in value.items()}
        for j, i in non_arcs:
            term = mp_mul(term, mp_sub(mp_var(n, w[i - 1]), mp_var(n, w[j - 1])))
        num = mp_add(num, term)
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            num = mp_divide_linear(num, i, j)
    return num


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _exact_fraction(c: Scalar) -> Fraction:
    if isinstance(c, float):  # numpy.floating subclasses float
        raise TypeError(f"float {c!r} in exact arithmetic; pass an int or Fraction")
    return Fraction(c)


def _fraction_poly(coeffs: list[Fraction]) -> FractionPoly:
    """FractionPoly from a list of Fractions: strips trailing zeros, no conversion."""
    p = FractionPoly.__new__(FractionPoly)
    p.coeffs = _strip(coeffs)
    return p


class FractionPoly:
    """Dense univariate polynomial in q over Fraction, one Fraction per
    coefficient: the oracle of the integer-numerator QPoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs: tuple[Fraction, ...] = _strip([_exact_fraction(c) for c in coeffs])

    @staticmethod
    def zero() -> FractionPoly:
        return FractionPoly()

    @staticmethod
    def one() -> FractionPoly:
        return _fraction_poly([Fraction(1)])

    @staticmethod
    def q() -> FractionPoly:
        return FractionPoly([0, 1])

    @staticmethod
    def monomial(k: int, c: Scalar = 1) -> FractionPoly:
        """c * q^k with k >= 0."""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return FractionPoly([0] * k + [c])

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (never a valid index)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: FractionPoly) -> FractionPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _fraction_poly(out)

    def __neg__(self) -> FractionPoly:
        return _fraction_poly([-c for c in self.coeffs])

    def __sub__(self, other: FractionPoly) -> FractionPoly:
        return self + (-other)

    def __mul__(self, other: FractionPoly) -> FractionPoly:
        if not self.coeffs or not other.coeffs:
            return FractionPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return _fraction_poly(out)

    def scale(self, c: Scalar) -> FractionPoly:
        c = _exact_fraction(c)
        return _fraction_poly([a * c for a in self.coeffs])

    def __pow__(self, k: int) -> FractionPoly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out, base = FractionPoly.one(), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: FractionPoly) -> tuple[FractionPoly, FractionPoly]:
        """Exact polynomial division with remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, dq = len(other.coeffs) - 1, other.leading()
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] / dq
            if c:
                quot[i - dd] = c
                for j, b in enumerate(other.coeffs):
                    rem[i - dd + j] -= c * b
        return _fraction_poly(quot), _fraction_poly(rem)

    def monic(self) -> FractionPoly:
        if self.is_zero():
            return self
        lead = self.leading()
        return _fraction_poly([c / lead for c in self.coeffs])

    def gcd(self, other: FractionPoly) -> FractionPoly:
        """Monic greatest common divisor."""
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            return FractionPoly.one()  # a nonzero constant divides everything
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def evaluate(self, point: Scalar) -> Fraction:
        point = _exact_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_power(self, k: int) -> FractionPoly:
        """Substitute q -> q^k for k >= 1."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        out = [Fraction(0)] * (k * len(self.coeffs) or 1)
        for i, c in enumerate(self.coeffs):
            out[k * i] = c
        return _fraction_poly(out)

    def compose_shift(self, c: Scalar) -> FractionPoly:
        """Substitute q -> q + c."""
        shift = _fraction_poly([_exact_fraction(c), Fraction(1)])
        acc = FractionPoly()
        for a in reversed(self.coeffs):
            acc = acc * shift + _fraction_poly([a])
        return acc

    def reversed_to(self, deg: int) -> FractionPoly:
        """q^deg * p(1/q), valid when deg >= degree of p."""
        if self.is_zero():
            return self
        if deg < len(self.coeffs) - 1:
            raise ValueError("reversal degree below polynomial degree")
        out = [Fraction(0)] * (deg + 1)
        for i, c in enumerate(self.coeffs):
            out[deg - i] = c
        return _fraction_poly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"FractionPoly({format_poly(self)})"


def fraction_rat_string(num: FractionPoly, den: FractionPoly) -> str:
    """QRat(num, den).to_string() on FractionPoly: cancel the monic gcd, make
    the denominator monic, then scale both by one positive rational to
    coprime integers."""
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return "(0)/(1)"
    g = num.gcd(den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.leading()
    num, den = num.scale(1 / lead), den.scale(1 / lead)
    coeffs = num.coeffs + den.coeffs
    lcm = math.lcm(*(c.denominator for c in coeffs))
    scale = Fraction(lcm, math.gcd(*(int(c * lcm) for c in coeffs)))
    num, den = num.scale(scale), den.scale(scale)
    if den.leading() < 0:
        num, den = num.scale(-1), den.scale(-1)
    return f"({format_poly(num)})/({format_poly(den)})"
