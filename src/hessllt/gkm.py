"""Moment-graph (GKM) models of two equivariant cohomology rings built from a
unit interval graph, as exact linear algebra.

Both models live on the vertex set S_n with one edge {w, w(i,j)} for every
arc (j, i) of the graph.  A degree-d class assigns to each vertex a
homogeneous degree-d polynomial in t_1..t_n, subject to one congruence per
edge: the two endpoint values must agree modulo the edge label, which is
t_{w(i)} - t_{w(j)} in flavor X and the constant form t_i - t_j in flavor Y.

The module computes exact bases of the flavor-X spaces, the flavor-Y
spaces split by irreducible representations, the actions, graded characters
of the quotients by the ideals generated by the constant classes t_i or the
tautological classes x_i, the vertexwise change of variables xi between the
flavors, and the localization pushforward to a polynomial in t.  The flavor
fixes the action, dot on X and dagger on Y, and xi maps a class of either
flavor to the other.  Coordinates are (vertex, monomial) pairs, for basis
columns and for EquivariantClass alike, so an action or xi is one gather on
either and one exact check verifies both; every index map between monomials
is one array expression placed by multipoly.monomial_positions.

Exactness strategy: Y_d = sum_lam S^lam (x) K_lam(d) (TwinPiece), where
K_lam(d) is the kernel of one integer matrix built from Young's seminormal
form, pinned from both sides by certified_integer_nullspace.  So
dim Y_d = sum_lam f^lam dim K_lam(d) and the dagger trace of sigma is
sum_lam chi^lam(sigma) dim K_lam(d), with no basis.  xi, checked to be a
coordinate permutation that matches the edges, maps X_d onto Y_d, so exact
X columns, verified against every edge congruence and independent mod p
(products with the previous degree, or a CRT-lifted nullspace), must meet
the same number.  Each X piece keeps one SubspaceTracer: the reduced echelon
form of its basis mod the first prime at which it is independent, from which
every trace is a sum at the permuted pivots, exact without retrying.
characters.graded_class_function assembles the traces into Frobenius images,
checking that class representatives agree.  The twin law thus compares two
independent computations: the X tracers and the irreducibles.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import comb, factorial, lcm

from .characters import (graded_class_function, graded_dimension, palindromicity_check,
                         seminormal_matrices, word_product)
from .combinat import all_permutations, compose, cycle_type, inverse, partitions_of, transposition
from .errors import BudgetExceededError, VerificationError, check
from .hessgraph import HessenbergFunction, csf, llt
from .lazynp import np
from .linalg import SMALL_PRIMES, SubspaceTracer, blocked_rref, certified_integer_nullspace, exact_product
from .multipoly import (MPoly, monomial_exponents, monomial_positions, monomials, mp_divide_linear,
                        mp_is_zero, mp_mul, mp_permute, mp_sub, mp_var)
from .symfunc import SymFunc, murnaghan_nakayama

GKM_N_BUDGET = 4
GKM_DEGREE_SLACK = 3  # degree pieces available up to |h| + slack

_VALID_QUOTIENTS = {("X", "t_vars"), ("X", "x_classes"), ("Y", "t_vars")}


class GkmModel:
    """Moment graph of one flavor: vertices S_n, one edge per arc and coset.

    Edges are stored once as (iu, iv, a, b): endpoint vertex indices with
    iu < iv, and the label t_a - t_b (for flavor X computed at the iu
    endpoint; the flip at the other endpoint only changes the sign of the
    label, which spans the same line).
    """

    def __init__(self, h: HessenbergFunction, flavor: str):
        if flavor not in ("X", "Y"):
            raise ValueError(f"flavor must be 'X' or 'Y', got {flavor!r}")
        n = h.n
        if n > GKM_N_BUDGET:
            raise BudgetExceededError(f"GKM models support n <= {GKM_N_BUDGET}, got n = {n}")
        self.h = h
        self.flavor = flavor
        self.n = n
        self.vertices = all_permutations(n)
        self.vertex_index = {w: i for i, w in enumerate(self.vertices)}
        edges = []
        for iu, w in enumerate(self.vertices):
            for j, i in h.edge_pairs():
                v = compose(w, transposition(n, i, j))
                iv = self.vertex_index[v]
                if iu < iv:
                    if flavor == "X":
                        a, b = w[i - 1], w[j - 1]
                    else:
                        a, b = i, j
                    edges.append((iu, iv, a, b))
        self.edges = tuple(edges)

    def twin(self) -> GkmModel:
        return GkmModel(self.h, "Y" if self.flavor == "X" else "X")

    def __repr__(self) -> str:
        return f"GkmModel({self.h!r}, {self.flavor!r})"


# ------------------------------------------------------------ index maps


@lru_cache(maxsize=None)
def perm_monomial_map(tau: tuple[int, ...], d: int) -> np.ndarray:
    """Index form of the variable relabeling t_i -> t_tau(i) on degree-d
    monomials: out[src] is the index of the relabeled monomial."""
    return monomial_positions(monomial_exponents(len(tau), d)[:, np.argsort(tau)], d)


@lru_cache(maxsize=None)
def _mono_shift_map(n: int, d: int, i: int) -> np.ndarray:
    """Index form of multiplication by t_i: degree d-1 monomials into degree d."""
    return monomial_positions(monomial_exponents(n, d - 1) + np.eye(n, dtype=np.int64)[i - 1], d)


@lru_cache(maxsize=None)
def _subst_map(n: int, d: int, a: int, b: int) -> np.ndarray:
    """Index form of the substitution t_a := t_b on degree-d monomials:
    out[src] is the index of the image among the degree-d monomials in the
    n - 1 variables other than t_a."""
    exps = monomial_exponents(n, d).copy()
    exps[:, b - 1] += exps[:, a - 1]
    return monomial_positions(np.delete(exps, a - 1, axis=1), d)


def _subst_matrix(n: int, d: int, a: int, b: int) -> np.ndarray:
    """S_ab, the 0/1 matrix of t_a := t_b on degree-d coefficient vectors:
    the edge (u, v) with label t_a - t_b holds for f iff S_ab f(u) = S_ab f(v)."""
    return np.eye(len(monomials(n - 1, d)), dtype=np.int8)[:, _subst_map(n, d, a, b)]


def _constraint_matrix(model: GkmModel, d: int) -> np.ndarray:
    """All edge congruences at degree d as one +-1 integer matrix.

    Column (iv, e) is the coefficient of monomial e at vertex iv; the block
    row of edge k holds S_ab at the columns of vertex iu and -S_ab at those
    of iv, one row per image monomial of the substitution t_a := t_b.
    """
    n = model.n
    M = len(monomials(n, d))
    A = np.zeros((len(model.edges), len(monomials(n - 1, d)), len(model.vertices), M), dtype=np.int64)
    for k, (iu, iv, a, b) in enumerate(model.edges):
        A[k, :, iu] = _subst_matrix(n, d, a, b)
        A[k, :, iv] = -A[k, :, iu]
    return A.reshape(-1, len(model.vertices) * M)


def _verify_columns(model: GkmModel, d: int, mat: np.ndarray) -> None:
    """Exact check that every column satisfies every edge congruence;
    raises VerificationError naming the first edge that fails.

    Per edge, S_ab f(u) = S_ab f(v), the sums by image monomial of each
    endpoint value, both through exact_product: no sum or difference is
    formed in the dtype of mat."""
    n = model.n
    M = len(monomials(n, d))
    for iu, iv, a, b in model.edges:
        S = _subst_matrix(n, d, a, b)
        if not np.array_equal(*(exact_product(S, mat[i * M:(i + 1) * M]) for i in (iu, iv))):
            raise VerificationError(
                f"column violates the degree-{d} congruence on edge "
                f"({model.vertices[iu]}, {model.vertices[iv]}) with label t_{a} - t_{b}"
            )


# ------------------------------------------------------------ degree pieces


class GkmSpace:
    """Exact basis of one degree piece of a model; immutable once built.

    matrix holds the basis columns over the coordinates (vertex, monomial)
    -> vertex_index * #monomials + monomial_index.  certificate records how
    the dimension was pinned.  last_var holds each column's last variable:
    i for a product t_i * f (_product_columns), 0 for the others (default).
    """

    def __init__(self, model: GkmModel, degree: int, matrix: np.ndarray, certificate: dict, last_var=None):
        self.model = model
        self.degree = degree
        self.matrix = matrix
        self.dim = matrix.shape[1]
        self.certificate = certificate
        self.last_var = np.zeros(self.dim, dtype=np.intp) if last_var is None else last_var
        self._tracer: SubspaceTracer | None = None
        self._lock = threading.Lock()

    def trace(self, sigma: tuple[int, ...]) -> int:
        """Exact trace of the dot action of sigma on this piece."""
        src = _ambient_src(self.model, self.degree, sigma)
        with self._lock:
            if self._tracer is None:
                self._tracer = SubspaceTracer(self.matrix.T)
        return self._tracer.trace(src)

    def __repr__(self) -> str:
        return f"GkmSpace({self.model.h!r}, {self.model.flavor}, degree={self.degree}, dim={self.dim})"


_space_cache: dict[tuple, GkmSpace | TwinPiece] = {}
_space_lock = threading.Lock()


def _check_degree_budget(model: GkmModel, d: int) -> None:
    if d < 0:
        raise ValueError("degree must be nonnegative")
    top = model.h.size() + GKM_DEGREE_SLACK
    if d > top:
        raise BudgetExceededError(f"degree pieces are available for d <= |h| + {GKM_DEGREE_SLACK} "
                                  f"= {top}, got d = {d}")


def _staircase_columns(model: GkmModel, d: int) -> np.ndarray:
    """Columns of the classes x^a = x_1^{a_1}..x_n^{a_n} with a_i <= n - i
    and |a| = d; each takes the value t^{w(a)} at vertex w, so the column is
    the 0/1 indicator of one monomial per vertex.  Valid for flavor X."""
    n = model.n
    M = len(monomials(n, d))
    src = np.flatnonzero((monomial_exponents(n, d) < np.arange(n, 0, -1)).all(axis=1))
    rows = [iw * M + perm_monomial_map(w, d)[src] for iw, w in enumerate(model.vertices)]
    out = np.zeros((len(model.vertices) * M, len(src)), dtype=np.int64)
    out[rows, np.arange(len(src))] = 1
    return out


def _product_columns(model: GkmModel, prev: GkmSpace, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns t_i * f for the basis columns f of the previous degree whose
    last variable is at most i, block i holding them, then the columns of
    tail, in one allocation, with each column's last variable (0 on tail):
    so each t^m g over a free Q[t]-basis g is formed once, t^m in order."""
    n = model.n
    d = prev.degree + 1
    M = len(monomials(n, d))
    blocks = [np.flatnonzero(prev.last_var <= i) for i in range(1, n + 1)]
    last = np.repeat([*range(1, n + 1), 0], [*map(len, blocks), tail.shape[1]])
    out = np.zeros((len(model.vertices) * M, len(last)), dtype=prev.matrix.dtype)
    ends = np.cumsum([0, *map(len, blocks)])
    for i, cols in enumerate(blocks, 1):
        rows = (np.arange(len(model.vertices))[:, None] * M + _mono_shift_map(n, d, i)).ravel()
        out[rows, ends[i - 1]:ends[i]] = prev.matrix[:, cols]
    out[:, ends[-1]:] = tail
    return out, last


def _lifted_nullspace(C: np.ndarray, k_target: int) -> np.ndarray:
    """Exact nullspace columns of the constraint matrix, lifted by
    certified_integer_nullspace, whose count must meet the twin dimension."""
    mat = certified_integer_nullspace(C)
    if mat.shape[1] != k_target:
        raise ArithmeticError(f"the lifted nullspace has {mat.shape[1]} columns, the twin dimension is {k_target}")
    return mat


def _certified_space(model: GkmModel, d: int) -> GkmSpace:
    """Certified construction for flavor X.

    xi maps X_d onto Y_d (_check_xi), so dim X_d is the twin dimension
    that TwinPiece certifies.  Exhibited columns, verified exactly and
    independent mod p, must meet it: the products t_i * f, i from the last
    variable of f on, of the previous degree's basis with the staircase
    classes x^a (at d = 0 the unit class), or, when those fall short, the
    CRT-lifted nullspace of C, which certified_integer_nullspace pins."""
    twin = model.twin()
    _check_xi(model, twin, d)
    k_target = degree_piece(twin, d).dim
    p = SMALL_PRIMES[0]
    mat = _staircase_columns(model, d)
    last = np.zeros(mat.shape[1], dtype=np.intp)
    if d:
        mat, last = _product_columns(model, degree_piece(model, d - 1), mat)
    rank, pivots, _ = blocked_rref(mat, p, full=False)
    if rank > k_target:
        raise ArithmeticError("independent solutions exceed the twin dimension")
    if rank == k_target:
        if rank < mat.shape[1]:  # else the candidates are the basis, with no copy
            mat, last = np.ascontiguousarray(mat[:, pivots]), last[pivots]
        route = "products"
    else:
        mat, last = _lifted_nullspace(_constraint_matrix(model, d), k_target), None
        route = "crt-lift"
    _verify_columns(model, d, mat)
    cert = {"route": route, "prime": p, "twin_dimension": k_target, "exhibited": int(mat.shape[1])}
    return GkmSpace(model, d, mat, cert, last)


def _xi_gather(model: GkmModel, d: int) -> np.ndarray:
    """Coordinate form of xi^{-1}: the Y coordinate c reads X coordinate gather[c]."""
    M = len(monomials(model.n, d))
    return np.concatenate([iw * M + perm_monomial_map(w, d) for iw, w in enumerate(model.vertices)])


def _check_xi(model: GkmModel, twin: GkmModel, d: int) -> None:
    """Raise unless xi^{-1} maps X_d onto Y_d: its gather is a coordinate
    permutation and the edges match (same vertex pairs, the X label is w
    applied to the Y label at the endpoint w).  As (i j) fixes polynomials
    modulo t_i - t_j, f(w) = f(w (i j)) mod t_i - t_j iff w f(w) and
    w (i j) f(w (i j)) agree modulo w(t_i - t_j)."""
    gather = _xi_gather(twin, d)
    if not (np.bincount(gather, minlength=gather.size) == 1).all():
        raise ArithmeticError(f"the degree-{d} xi gather is not a permutation of the coordinates")
    verts = twin.vertices
    images = [(iu, iv, verts[iu][a - 1], verts[iu][b - 1]) for iu, iv, a, b in twin.edges]
    if images != list(model.edges):
        raise ArithmeticError("the flavor-Y edges are not the xi-images of the flavor-X edges")


def degree_piece(model: GkmModel, d: int) -> GkmSpace | TwinPiece:
    """The degree-d piece of the model's own flavor, built once per h: the
    certified basis on X, the split by irreducibles on Y."""
    _check_degree_budget(model, d)
    key = (model.h.values, model.flavor, d)
    with _space_lock:
        if key in _space_cache:
            return _space_cache[key]
    piece = (_certified_space if model.flavor == "X" else TwinPiece)(model, d)
    with _space_lock:
        return _space_cache.setdefault(key, piece)


# ------------------------------------------------------------ flavor Y


class TwinPiece:
    """The degree-d piece of flavor Y split by irreducibles: with
    f^(rho) = sum_w f(w) rho(w), f is a Y class iff every row v of every
    f^(rho_lam) has v (I - rho_lam((i j))) = 0 mod t_i - t_j on every arc
    (j, i), so Y_d = sum_lam S^lam (x) K_lam(d), kernel_dims[lam] = dim K_lam(d),
    and dagger, sigma f^(rho) = rho(sigma) f^(rho), acts on the first factor."""

    def __init__(self, model: GkmModel, degree: int):
        self.model = model
        self.degree = degree
        self.kernel_dims = {lam: _kernel_dim(model.h, lam, degree) for lam in partitions_of(model.n)}
        self.dim = self.trace(tuple(range(1, model.n + 1)))

    def trace(self, sigma: tuple[int, ...]) -> int:
        """Exact dagger trace: sum_lam chi^lam(sigma) dim K_lam(d)."""
        return sum(murnaghan_nakayama(lam, cycle_type(sigma)) * k for lam, k in self.kernel_dims.items())


@lru_cache(maxsize=None)
def _cleared_arc_matrix(lam: tuple[int, ...], i: int, j: int) -> np.ndarray:
    """A^T, A = I - rho_lam((i j)) with denominators cleared: the same at every degree."""
    A = np.identity(murnaghan_nakayama(lam, (1,) * sum(lam)), dtype=object)
    A -= np.array(word_product(seminormal_matrices(lam), transposition(sum(lam), i, j)))
    return (A.T * lcm(*(x.denominator for x in A.flat))).astype(np.int64)  # integral, so exact


def _kernel_dim(h: HessenbergFunction, lam: tuple[int, ...], d: int) -> int:
    """dim K_lam(d), pinned from both sides by certified_integer_nullspace.
    Unknown r * M + m is the coefficient of monomial m in entry r of v; each
    arc (j, i) adds the rows of v A, A = I - rho_lam((i j)) with denominators
    cleared, reduced by t_i := t_j: A^T (x) S_ij (_subst_matrix)."""
    n = h.n
    M = len(monomials(n, d))
    f = murnaghan_nakayama(lam, (1,) * n)
    arcs = [np.kron(_cleared_arc_matrix(lam, i, j), _subst_matrix(n, d, i, j)) for j, i in h.edge_pairs()]
    C = np.concatenate([np.zeros((0, f * M), dtype=np.int64), *arcs])
    return certified_integer_nullspace(C[C.any(axis=1)]).shape[1]


# ------------------------------------------------------------ classes


class EquivariantClass:
    """Degree-d classes of a model in the coordinates of GkmSpace.matrix:
    a vector is one class, a matrix with one column per class is a batch.
    The constructor takes integer entries of any integer dtype or Python
    ints, and checks every edge congruence exactly (_verify_columns); the
    actions and xi are gathers of the coordinates, and the localization
    pushforward one integer matrix applied to them."""

    def __init__(self, model: GkmModel, degree: int, coords):
        coords = np.asarray(coords)
        if not (coords.dtype.kind in "iu"
                or coords.dtype == object and all(isinstance(x, int) for x in coords.flat)):
            raise TypeError(f"coordinates must be integers, got {coords.dtype} entries")
        size = len(model.vertices) * len(monomials(model.n, degree))
        if coords.ndim not in (1, 2) or len(coords) != size:
            raise ValueError("need one coordinate per (vertex, monomial) pair")
        _verify_columns(model, degree, coords.reshape(len(coords), -1))
        self.model = model
        self.degree = degree
        self.coords = coords
        self._model_key = (model.flavor, model.h)  # equal keys: one model, built twice

    @staticmethod
    def one(model: GkmModel) -> EquivariantClass:
        return EquivariantClass(model, 0, np.ones(len(model.vertices), dtype=np.int64))

    @staticmethod
    def t_class(model: GkmModel, i: int) -> EquivariantClass:
        """The constant assignment w -> t_i (a class of either flavor)."""
        rows = [i - 1] * len(model.vertices)
        return EquivariantClass(model, 1, np.eye(model.n, dtype=np.int64)[rows].ravel())

    @staticmethod
    def x_class(model: GkmModel, i: int) -> EquivariantClass:
        """The tautological class w -> t_{w(i)} (flavor X only)."""
        if model.flavor != "X":
            raise ValueError("x classes satisfy the flavor-X congruences only")
        rows = [w[i - 1] - 1 for w in model.vertices]
        return EquivariantClass(model, 1, np.eye(model.n, dtype=np.int64)[rows].ravel())

    def act(self, sigma: tuple[int, ...]) -> EquivariantClass:
        """Apply sigma by the action of the class's flavor: dot on X, dagger on Y."""
        src = _ambient_src(self.model, self.degree, sigma)
        return EquivariantClass(self.model, self.degree, self.coords[src])

    def __mul__(self, other: EquivariantClass) -> EquivariantClass:
        """Vertexwise product of two single classes, in Python ints."""
        if self.model is not other.model and self._model_key != other._model_key:
            raise ValueError("classes live on different models")
        if self.coords.ndim != 1 or other.coords.ndim != 1:
            raise ValueError("only single classes multiply")
        n = self.model.n
        d = self.degree + other.degree
        nverts = len(self.model.vertices)
        a = self.coords.astype(object).reshape(nverts, -1, 1)
        b = other.coords.astype(object).reshape(nverts, 1, -1)
        exps = monomial_exponents(n, self.degree)[:, None] + monomial_exponents(n, other.degree)
        out = np.zeros((nverts, len(monomials(n, d))), dtype=object)
        np.add.at(out, (slice(None), monomial_positions(exps, d)), a * b)
        return EquivariantClass(self.model, d, out.ravel())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EquivariantClass) and self._model_key == other._model_key
                and self.degree == other.degree and np.array_equal(self.coords, other.coords))

    def __repr__(self) -> str:
        return f"EquivariantClass({self.model!r}, degree={self.degree})"


def _ambient_src(model: GkmModel, d: int, sigma: tuple[int, ...]) -> np.ndarray:
    """Coordinate-permutation form of the action of the model's flavor,
    (A f)[c] = f[src[c]]: both move the vertices, and dot on X also
    relabels the variables."""
    n = model.n
    M = len(monomials(n, d))
    verts = model.vertices
    vidx = model.vertex_index
    sinv = inverse(sigma)
    vmap = np.array([vidx[compose(sinv, w)] for w in verts], dtype=np.intp)
    mmap = perm_monomial_map(sinv, d) if model.flavor == "X" else np.arange(M, dtype=np.intp)
    return (vmap[:, None] * M + mmap[None, :]).ravel()


# ---------------------------------------------------- quotient characters


def _exterior_generator_traces(sigma: tuple[int, ...], permuted: bool) -> list[int]:
    """Traces of sigma on the exterior powers of the generator span: the
    coefficients of det(1 + y P_sigma) when sigma permutes the generators,
    and plain binomials when it fixes them."""
    n = len(sigma)
    if not permuted:
        return [comb(n, k) for k in range(n + 1)]
    coeffs = [1]
    for ell in cycle_type(sigma):
        # an ell-cycle contributes the factor 1 - (-y)^ell
        pad = [0] * ell
        coeffs = [a - (-1) ** ell * b for a, b in zip(coeffs + pad, pad + coeffs)]
    return coeffs[: n + 1] + [0] * (n + 1 - len(coeffs))


def quotient_graded_character(model: GkmModel, generators: str, max_d: int | None = None) -> SymFunc:
    """Graded character of the quotient of the model's congruence ring by the
    ideal generated by the constant classes t_i or the tautological classes
    x_i, as the Frobenius image of its q-polynomial class values.

    The trace on the degree-d quotient is the alternating sum over k of
    (trace on exterior power k of the generator span) times (trace on the
    degree d-k piece); this is the Euler characteristic of the generator
    ideal's resolution, valid because the congruence ring is a free module
    over the polynomial subalgebra its generators span.  Traces are computed
    on one representative per cycle type and checked against a second
    representative whenever the class has one."""
    combo = (model.flavor, generators)
    if combo not in _VALID_QUOTIENTS:
        raise ValueError(f"quotients support (X, t_vars), (X, x_classes) and (Y, t_vars); got {combo}")
    n = model.n
    size = model.h.size()
    if max_d is None:
        max_d = size
    if max_d < size:
        raise ValueError(f"max_d must be at least |h| = {size}")
    _check_degree_budget(model, max_d)
    spaces = [degree_piece(model, d) for d in range(max_d + 1)]
    permuted = generators == "t_vars" and model.flavor == "X"

    def series(sigma: tuple[int, ...]) -> list[int]:
        ext = _exterior_generator_traces(sigma, permuted)
        space_tr = [space.trace(sigma) for space in spaces]
        qtr = [
            sum((-1) ** k * ext[k] * space_tr[d - k] for k in range(min(n, d) + 1))
            for d in range(max_d + 1)
        ]
        for d in range(size + 1, max_d + 1):
            if qtr[d]:
                raise VerificationError(f"quotient does not vanish at degree {d} > |h| = {size}")
        return qtr

    return graded_class_function(n, series)


# ------------------------------------------------------------ xi transport


def xi_transport(f: EquivariantClass) -> EquivariantClass:
    """The vertexwise change of variables onto the twin flavor: from Y to X it
    applies w to the value at w (sending the constant class t_i to x_i), from
    X to Y it applies w^{-1}.  Both are the gather _xi_gather or its inverse,
    and the constructor verifies the target congruences."""
    gather = _xi_gather(f.model, f.degree)
    src = np.argsort(gather) if f.model.flavor == "Y" else gather
    return EquivariantClass(f.model.twin(), f.degree, f.coords[src])


# ------------------------------------------------------------ localization


@lru_cache(maxsize=None)
def _complement_factors(h_values: tuple[int, ...]) -> tuple[tuple[MPoly, ...], tuple[int, ...]]:
    """Per vertex: the product over non-arcs (j, i) of (t_{w(i)} - t_{w(j)}),
    and the inversion parity of the vertex."""
    h = HessenbergFunction(h_values)
    n = h.n
    arcs = set(h.edge_pairs())
    non_arcs = [(j, i) for j in range(1, n + 1) for i in range(j + 1, n + 1) if (j, i) not in arcs]
    verts = all_permutations(n)
    factors = []
    for w in verts:
        poly: MPoly = {(0,) * n: 1}
        for j, i in non_arcs:
            poly = mp_mul(poly, mp_sub(mp_var(n, w[i - 1]), mp_var(n, w[j - 1])))
        factors.append(poly)
    return tuple(factors), tuple((-1) ** (n - len(cycle_type(w))) for w in verts)


@lru_cache(maxsize=None)
def _numerator_matrix(h_values: tuple[int, ...], d: int) -> np.ndarray:
    """P_d, the integer matrix of f -> sum_w sgn(w) C_w f(w) into the
    monomials of degree d + #non-arcs: a term c t^e of C_w puts sgn(w) c at
    row t^e m, column (w, m).  int8 holds it: |c| <= 2**#non-arcs <= 64."""
    factors, signs = _complement_factors(h_values)
    n = len(h_values)
    exps = monomial_exponents(n, d)
    top = d + sum(next(iter(factors[0])))  # every term of every C_w has degree #non-arcs
    P = np.zeros((len(monomials(n, top)), len(factors), len(exps)), dtype=np.int8)
    for iw, (cw, sign) in enumerate(zip(factors, signs)):
        rows = monomial_positions(np.array(list(cw), dtype=np.int64)[:, None, :] + exps, top)
        P[rows, iw, np.arange(len(exps))] = np.array([sign * c for c in cw.values()], dtype=np.int8)[:, None]
    return P.reshape(len(P), -1)


def localization_pushforward(f: EquivariantClass) -> MPoly:
    """Exact pushforward of a flavor-X class to a polynomial in t.

    Summing f(w) over vertices with weight 1 / prod over arcs (j, i) of
    (t_{w(i)} - t_{w(j)}) and clearing the common denominator gives
    sum_w sgn(w) f(w) C_w over prod_{j<i} (t_i - t_j), where C_w is the
    product over non-arcs; the numerator must be exactly divisible, and the
    quotient is the result (degree deg f - |h|, or zero), in Python ints.
    The numerator is P_d f (_numerator_matrix, by exact_product).  For a
    batch class column k of the result is the pushforward of column k, and
    one column that is not divisible makes the call raise.

    The division runs on int64 coefficients when this bound is below
    2**62, with L the largest column sum of |numerator|.  Dividing a
    degree-D polynomial a by t_i - t_j, each quotient coefficient is a sum
    of distinct ones of a, so |quotient|_1 <= D |a|_1, and each intermediate
    is a coefficient of a plus one of the quotient: no value exceeds
    2 L D^(n(n-1)/2)."""
    model = f.model
    if model.flavor != "X":
        raise ValueError("the pushforward is defined on flavor-X classes")
    n = model.n
    pairs = n * (n - 1) // 2
    top = f.degree + pairs - model.h.size()
    acc = exact_product(_numerator_matrix(model.h.values, f.degree), f.coords)
    flat = acc.reshape(len(acc), -1)
    l1 = int(np.abs(flat).sum(axis=0, dtype=object).max(initial=0))
    acc = acc.astype(np.int64 if 2 * l1 * max(top, 1) ** pairs < 2**62 else object)
    mons = monomials(n, top)
    num: MPoly = {mons[k]: acc[k] for k in np.flatnonzero(flat.any(axis=1))}
    try:
        for j in range(1, n + 1):
            for i in range(j + 1, n + 1):
                num = mp_divide_linear(num, i, j)
    except ValueError as exc:
        raise VerificationError(
            "localization sum is not a polynomial; the assignment violates the congruences"
        ) from exc
    return {e: c.astype(object) if isinstance(c, np.ndarray) else int(c) for e, c in num.items()}


def localization_equivariance_check(f: EquivariantClass, sigma: tuple[int, ...]) -> bool:
    """Pushing forward sigma . f must match relabeling the pushforward of f."""
    lhs = localization_pushforward(f.act(sigma))
    rhs = mp_permute(localization_pushforward(f), sigma)
    return mp_is_zero(mp_sub(lhs, rhs))


# ------------------------------------------------------------ reports


def betti_numbers(h: HessenbergFunction) -> list[int]:
    """Even Betti numbers, read off the graded dimension of the omega-dual
    chromatic series of the graph."""
    series = graded_dimension(csf(h).omega())
    poly = series.as_poly()
    coeffs = [poly.coeff(k) for k in range((poly.degree or 0) + 1)]
    if any(c.denominator != 1 for c in coeffs):
        raise ArithmeticError("graded dimension series is not integral")
    return [int(c) for c in coeffs]


def equivariant_palindromicity_check(h: HessenbergFunction) -> bool:
    """Palindromicity of the equivariant graded character: with R(q) the
    dagger character of the full flavor-Y congruence ring (quotient series
    divided by (1-q)^n), q^{|h|} R(1/q) must equal (-q)^n R(q) tensor sign,
    classwise.  Since (1 - 1/q)^n = (-1/q)^n (1-q)^n, the factors (1-q)^n
    and (-q)^n cancel: the check is the palindromicity of the quotient with
    shift |h| and sign twist."""
    quotient = quotient_graded_character(GkmModel(h, "Y"), "t_vars")
    return palindromicity_check(quotient, h.size(), True)


def gkm_report(h: HessenbergFunction) -> list[dict]:
    """The check records of one Hessenberg function: the free-module
    dimension law of both flavors, the three quotient graded characters
    against csf, llt and each other, equivariant palindromicity, and the
    localization pushforward."""
    n = h.n
    size = h.size()
    max_d = size + 1  # one degree above the top, to witness vanishing
    betti = betti_numbers(h)
    model_x = GkmModel(h, "X")
    model_y = GkmModel(h, "Y")
    dims_x = [degree_piece(model_x, d).dim for d in range(max_d + 1)]
    dims_y = [degree_piece(model_y, d).dim for d in range(max_d + 1)]
    law = [
        sum(betti[k] * comb(d - k + n - 1, n - 1) for k in range(min(d, len(betti) - 1) + 1))
        for d in range(max_d + 1)
    ]
    q_t = quotient_graded_character(model_x, "t_vars", max_d)
    q_x = quotient_graded_character(model_x, "x_classes", max_d)
    q_y = quotient_graded_character(model_y, "t_vars", max_d)
    checks = [
        check("free-module-dimension-law", dims_x == law and dims_y == law, f"dims {dims_x} vs law {law}"),
        check("t-quotient-character-is-omega-chromatic", q_t == csf(h).omega()),
        check("x-quotient-character-is-llt", q_x == llt(h)),
        check("twin-quotient-equals-x-quotient", q_y == q_x),
        check("total-quotient-dimension-is-n-factorial",
              all(graded_dimension(ch).evaluate(1) == factorial(n) for ch in (q_t, q_x, q_y))),
        check("equivariant-palindromicity", equivariant_palindromicity_check(h)),
    ]

    gens = [transposition(n, 1, 2), tuple(range(2, n + 1)) + (1,)] if n >= 2 else []
    loc_ok = False
    loc_classes = equiv_classes = 0
    for d in range(size + 1):  # one batch class per degree, which passes or fails whole
        space = degree_piece(model_x, d)
        batch = EquivariantClass(model_x, d, space.matrix)
        try:
            if any(sum(e) != d - size for e in localization_pushforward(batch)):
                break
        except VerificationError:
            break
        loc_classes += space.dim
        if d <= 2:  # equivariance sampled on the low-degree pieces
            if not all(localization_equivariance_check(batch, s) for s in gens):
                break
            equiv_classes += space.dim
    else:
        loc_ok = True
    checks.append(check("localization-integrality-and-equivariance", loc_ok,
                        f"integral on {loc_classes} basis classes, equivariant on {equiv_classes}"))
    return checks
