"""Permutohedron faces, their symmetric-group modules, and the coinvariant
algebra, as exact graded characters.

The permutohedron on n letters has one face of codimension d for every
strict chain of nonempty proper subsets A_1 < ... < A_d of [n]; the
symmetric group permutes faces, and the module spanned by the
dimension-i faces has character computable two ways: the orbit formula
(one induced trivial representation per composition with n - 1 - i cuts)
and literal fixed-face counting.  Both are implemented and any mismatch
raises.

The coinvariant algebra is the quotient of the polynomial ring in
t_1..t_n by the elementary symmetric polynomials.  Its graded character
is computed by exact trace differences: the trace on the degree-d
quotient equals the trace on the orthogonal complement of the ideal's
degree-d piece, whose basis is a certified integer nullspace (the
identity in degree 0, where the ideal is empty), taken against the lex
Groebner staircase basis of the ideal, which is proved in integers first.
One SubspaceTracer per degree traces every class representative, and
characters.graded_class_function assembles its Frobenius image.  Closed
forms (alternating sums of induced characters), the q = 1 regular
degeneration, palindromicity, Gaussian-binomial sums, and an
orientation-counting agreement on complete graphs tie the same objects
together along independent routes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial, prod

from .characters import (
    frobenius_inverse,
    graded_class_function,
    graded_dimension,
    induced_young,
    palindromicity_check,
    regular_character,
    trivial_character,
)
from .combinat import (
    all_permutations,
    inverse,
    partition_from_subset,
    partitions_of,
    subsets_of_interval,
    young_subgroup_order,
)
from .errors import BudgetExceededError, check
from .gkm import GKM_N_BUDGET, GkmModel, perm_monomial_map, quotient_graded_character
from .hessgraph import HessenbergFunction, llt, orientation_e_expansion
from .lazynp import np
from .linalg import SubspaceTracer, certified_integer_nullspace
from .multipoly import monomial_exponents, monomial_positions
from .qrat import QPoly, QRat, format_poly
from .symfunc import SymFunc

FACES_BUDGET = 7
FACE_MODULE_BUDGET = 6
COINVARIANT_BUDGET = 5
COMPLETE_GRAPH_BUDGET = 5
Q_BINOMIAL_BUDGET = 10


class PermutohedronFace:
    """A face of the permutohedron on [n]: a strict chain of nonempty proper
    subsets A_1 < ... < A_d; d is the codimension, n - 1 - d the dimension.
    The empty chain is the whole polytope."""

    __slots__ = ("n", "chain")

    def __init__(self, n: int, chain=()):
        sets = tuple(frozenset(a) for a in chain)
        ground = frozenset(range(1, n + 1))
        prev: frozenset = frozenset()
        for a in sets:
            if not a or a == ground or not a <= ground:
                raise ValueError("chain entries must be nonempty proper subsets of [n]")
            if not (prev < a):
                raise ValueError("chain must be strictly nested")
            prev = a
        self.n = n
        self.chain = sets

    @property
    def dimension(self) -> int:
        return self.n - 1 - len(self.chain)

    @staticmethod
    def from_ordered_set_partition(n: int, blocks) -> PermutohedronFace:
        """The face of the ordered set partition (B_1, ..., B_k): the chain of
        its proper initial unions."""
        blocks = [frozenset(b) for b in blocks]
        union: frozenset = frozenset()
        chain = []
        for b in blocks[:-1]:
            union = union | b
            chain.append(union)
        total = union | blocks[-1] if blocks else frozenset()
        if total != frozenset(range(1, n + 1)) or sum(len(b) for b in blocks) != n:
            raise ValueError("blocks must partition [n]")
        return PermutohedronFace(n, chain)

    def to_ordered_set_partition(self) -> tuple[frozenset, ...]:
        ground = frozenset(range(1, self.n + 1))
        prev: frozenset = frozenset()
        blocks = []
        for a in self.chain:
            blocks.append(a - prev)
            prev = a
        blocks.append(ground - prev)
        return tuple(blocks)

    def is_fixed_by(self, sigma: tuple[int, ...]) -> bool:
        return all(frozenset(sigma[i - 1] for i in a) == a for a in self.chain)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PermutohedronFace)
            and self.n == other.n
            and self.chain == other.chain
        )

    def __hash__(self) -> int:
        return hash((self.n, self.chain))

    def __repr__(self) -> str:
        parts = ["{" + ",".join(map(str, sorted(a))) + "}" for a in self.chain]
        return f"PermutohedronFace(n={self.n}, chain=[{' < '.join(parts)}])"


@lru_cache(maxsize=None)
def faces(n: int) -> tuple[tuple[PermutohedronFace, ...], ...]:
    """All faces grouped by dimension: entry i holds the dimension-i faces."""
    if not 1 <= n <= FACES_BUDGET:
        raise BudgetExceededError(f"faces supports 1 <= n <= {FACES_BUDGET}, got n = {n}")
    full = (1 << n) - 1
    masks = list(range(1, full))
    by_dim: list[list[PermutohedronFace]] = [[] for _ in range(n)]

    def to_set(mask: int) -> frozenset:
        return frozenset(i + 1 for i in range(n) if mask >> i & 1)

    def rec(chain: tuple[int, ...], top: int) -> None:
        by_dim[n - 1 - len(chain)].append(
            PermutohedronFace(n, [to_set(m) for m in chain])
        )
        for m in masks:
            if m != top and m & top == top:
                rec(chain + (m,), m)

    rec((), 0)
    return tuple(tuple(group) for group in by_dim)


def f_vector(n: int) -> tuple[int, ...]:
    """Face counts by dimension, (f_0, ..., f_{n-1})."""
    return tuple(len(group) for group in faces(n))


def face_module_character(n: int, i: int) -> SymFunc:
    """Character of the permutation module on the dimension-i faces.

    Computed by the orbit formula — one induced trivial character per subset
    I of [n-1] with n - 1 - i elements — and cross-checked against literal
    fixed-face counting, assembled by graded_class_function (two
    representatives where the class has them); a mismatch raises."""
    if not 1 <= n <= FACE_MODULE_BUDGET:
        raise BudgetExceededError(
            f"face modules support 1 <= n <= {FACE_MODULE_BUDGET}, got n = {n}"
        )
    if not 0 <= i <= n - 1:
        raise ValueError(f"face dimension must satisfy 0 <= i <= n - 1, got {i}")
    orbit = SymFunc.zero(n, "p")
    for I in subsets_of_interval(n):
        if len(I) == n - 1 - i:
            orbit = orbit + induced_young(I, n, "trivial")
    group = faces(n)[i]
    fixed = graded_class_function(n, lambda sigma: [sum(f.is_fixed_by(sigma) for f in group)])
    if fixed != orbit:
        raise ArithmeticError(
            f"fixed-face counts disagree with the orbit formula in dimension {i}: "
            f"{_first_discrepancy(fixed, orbit)}"
        )
    return orbit


def face_and_h_series(n: int) -> tuple[SymFunc, SymFunc]:
    """The graded face character F(q) = sum_i F_i q^i and its shift
    H(q) = F(q - 1); every graded coefficient of H is verified to be a
    genuine character (nonnegative integer multiplicities in the irreducible
    decomposition)."""
    F = SymFunc.zero(n, "p")
    for i in range(n):
        F = F + face_module_character(n, i).scale(QRat.q() ** i)
    H = F.subs_coeffs(lambda v: v.subs_q_shift(-1))
    sf = H.in_basis("s")
    for k in range(n):
        for lam in partitions_of(n):
            value = sf.coeff(lam).as_poly().coeff(k)
            if value.denominator != 1 or value < 0:
                raise ArithmeticError(
                    f"degree-{k} coefficient of the shifted face series is not a "
                    f"genuine character (multiplicity {value} at {lam})"
                )
    return F, H


def eulerian_polynomial(n: int) -> QPoly:
    """Descent-counting polynomial of S_n (independent oracle route)."""
    counts = [0] * n
    for w in all_permutations(n):
        counts[sum(1 for a in range(n - 1) if w[a] > w[a + 1])] += 1
    return QPoly(counts)


def _first_discrepancy(a: SymFunc, b: SymFunc) -> str | None:
    values_a, values_b = frobenius_inverse(a), frobenius_inverse(b)
    for mu, va in values_a.items():
        vb = values_b[mu]
        if va != vb:
            pa, pb = va.as_poly(), vb.as_poly()
            top = max(pa.degree or 0, pb.degree or 0)
            d = next(k for k in range(top + 1) if pa.coeff(k) != pb.coeff(k))
            return f"class {mu}: {va} != {vb} (first difference at degree {d})"
    return None


def _agreement(name: str, a: SymFunc, b: SymFunc) -> dict:
    """The check that a equals b classwise, its detail the first discrepancy."""
    diff = _first_discrepancy(a, b)
    return check(name, diff is None, diff or "")


def _folded(name: str, checks: list[dict]) -> dict:
    """One check for a whole sub-report: it passes when every check passes,
    and its detail names the failing ones."""
    return check(
        name,
        all(c["passed"] for c in checks),
        "; ".join(c["name"] for c in checks if not c["passed"]),
    )


def face_module_twin_check(n: int) -> list[dict]:
    """The check records of the shifted face series against its closed form
    and against the twin cohomology characters.

    Checks, classwise and exactly: H(q) equals the alternating closed form
    sum_I Ind(1) (q-1)^{n-1-|I|}; the closed form tensored with sign equals
    the character whose Frobenius image is the unicellular LLT function for
    h = (2, 3, ..., n, n); for n <= GKM_N_BUDGET the same character
    recomputed from the flavor-Y moment-graph quotient; and the shift
    identity ch(F tensor sign) = sum_I q^{n-1-|I|} e_{P(I)} = LLT(q+1)."""
    if not 1 <= n <= FACE_MODULE_BUDGET:
        raise BudgetExceededError(
            f"the face-module/twin check supports n <= {FACE_MODULE_BUDGET}, got n = {n}"
        )
    return _face_module_twin_check(n, *face_and_h_series(n))


def _face_module_twin_check(n: int, F: SymFunc, H: SymFunc) -> list[dict]:
    """face_module_twin_check on the series F, H of face_and_h_series(n)."""
    qm1 = QRat.q() - QRat.one()
    closed = SymFunc.zero(n, "p")
    for I in subsets_of_interval(n):
        closed = closed + induced_young(I, n, "trivial").scale(qm1 ** (n - 1 - len(I)))
    h = HessenbergFunction(tuple(range(2, n + 1)) + (n,) if n >= 2 else (1,))
    llt_h = llt(h)

    checks = [
        _agreement("h_series_equals_closed_form", H, closed),
        _agreement("closed_form_sign_twist_is_twin_character", closed.omega(), llt_h),
    ]
    if n <= GKM_N_BUDGET:
        q_y = quotient_graded_character(GkmModel(h, "Y"), "t_vars")
        checks.append(_agreement("moment_graph_route_matches_twin_character", q_y, llt_h))
    shifted = SymFunc.zero(n, "e")
    for I in subsets_of_interval(n):
        shifted = shifted + SymFunc.basis_element(
            "e", partition_from_subset(I, n)
        ).scale(QRat.q() ** (n - 1 - len(I)))
    llt_shifted = llt_h.subs_coeffs(lambda c: c.subs_q_plus_one())
    checks.append(check(
        "shifted_face_series_is_llt_at_q_plus_one",
        shifted == llt_shifted and F.omega() == shifted,
    ))
    return checks


# ------------------------------------------------------------ coinvariants


def _complete_terms(n: int, k: int, degree: int) -> np.ndarray:
    """The exponent rows of h_degree(t_k, ..., t_n), descending lex; for
    degree = k the terms of g_k, its leading term t_k^k first."""
    exps = monomial_exponents(n, degree)
    return exps[~exps[:, : k - 1].any(axis=1)]


def _leading_variable(exps: np.ndarray) -> np.ndarray:
    """For each exponent row u, the first k (1-based) with u_k >= k, whose
    t_k^k divides t^u; 0 when there is none and t^u is standard."""
    over = exps >= np.arange(1, exps.shape[-1] + 1)
    return np.where(over.any(axis=-1), over.argmax(axis=-1) + 1, 0)


def _staircase_columns(n: int, d: int) -> np.ndarray:
    """The staircase basis of the degree-d ideal piece: for each non-standard
    monomial u in the order of monomials(n, d), the column g_k * u / t_k^k
    of its leading variable k, placed by monomial_positions.  Entries are 0
    or 1, in int32: % p stays exact for p < 2**31 (int8 overflows % p)."""
    exps = monomial_exponents(n, d)
    lead = _leading_variable(exps)
    reducible = np.flatnonzero(lead)
    out = np.zeros((len(exps), len(reducible)), dtype=np.int32)
    for k in range(1, n + 1):
        cols = np.flatnonzero(lead[reducible] == k)
        quotients = exps[reducible[cols]] - k * np.eye(n, dtype=np.int64)[k - 1]
        out[monomial_positions(quotients[:, None, :] + _complete_terms(n, k, k), d), cols[:, None]] = 1
    return out


def _certify_staircase(n: int) -> None:
    """The certificate of coinvariant_graded_character, in exact integers;
    raises ArithmeticError at its first failing step.  Step k checks g_k
    first: the reduction of e_k reads g_1, ..., g_k only."""
    elementary = [e[e.max(axis=1) <= 1] for j in range(n + 1) for e in [monomial_exponents(n, j)]]
    for k in range(1, n + 1):
        exps = monomial_exponents(n, k)
        total = np.zeros(len(exps), dtype=np.int64)
        for j in range(k + 1):
            products = elementary[j][:, None, :] + _complete_terms(n, k, k - j)
            np.add.at(total, monomial_positions(products, k), (-1) ** j)
        if total.any():
            raise ArithmeticError(f"g_{k} does not lie in the ideal of the elementary symmetric polynomials")
        # lex division: each column cancels its leading monomial, touching only later ones
        leads = monomial_positions(exps[_leading_variable(exps) > 0], k)
        remainder = np.bincount(monomial_positions(elementary[k], k), minlength=len(exps))
        for lead, column in zip(leads, _staircase_columns(n, k).T):
            remainder -= remainder[lead] * column
        if remainder.any():
            raise ArithmeticError(f"e_{k} leaves a remainder modulo the staircase basis")
    if not _leading_variable(monomial_exponents(n, n * (n - 1) // 2 + 1)).all():
        raise ArithmeticError("the coinvariant quotient does not vanish above the top degree")


def coinvariant_graded_character(n: int) -> SymFunc:
    """Graded character of the coinvariant algebra, by exact trace differences.

    The degree-d trace equals the trace on the orthogonal complement of the
    ideal piece inside the degree-d polynomials (invariant, because
    permutations act by orthogonal coordinate permutations on the monomial
    basis): a certified integer nullspace of the transposed staircase basis,
    traced by one SubspaceTracer per degree at up to two representatives
    per class.  _certify_staircase proves that basis first.  In lex order
    with t_1 > ... > t_n, g_k = h_k(t_k, ..., t_n) has leading term t_k^k
    and lies in the ideal: sum_{j=0}^{k} (-1)^j e_j h_{k-j}(t_k, ..., t_n)
    = 0, the z^k coefficient of prod_{i<k} (1 - t_i z).  Each e_k reduces
    to 0 modulo the g's, so they generate the ideal; their leading terms
    are pairwise coprime, so they are a Groebner basis (Buchberger's first
    criterion).  So the columns g_k u / t_k^k of the non-standard u (some
    u_k >= k), each led by u, are a basis of each ideal piece, and the
    quotient vanishes above the top degree: no monomial there is standard."""
    if not 1 <= n <= COINVARIANT_BUDGET:
        raise BudgetExceededError(
            f"coinvariant characters support 1 <= n <= {COINVARIANT_BUDGET}, got n = {n}"
        )
    _certify_staircase(n)
    tracers = [
        SubspaceTracer(certified_integer_nullspace(_staircase_columns(n, d).T).T)
        for d in range(n * (n - 1) // 2 + 1)
    ]

    def series(sigma: tuple[int, ...]) -> list[int]:
        tau = inverse(sigma)
        return [tracer.trace(perm_monomial_map(tau, d)) for d, tracer in enumerate(tracers)]

    return graded_class_function(n, series)


def q_factorial(n: int) -> QPoly:
    out = QPoly.one()
    for k in range(1, n + 1):
        out = out * QPoly([1] * k)
    return out


def coinvariant_closed_form_check(n: int) -> list[dict]:
    """The check records of the brute-force coinvariant character against its
    closed forms and degenerations.

    Classwise exact checks: the alternating closed form over subsets with
    induced trivial characters; the dual closed form with induced sign
    characters; the q = 1 specialization equals the regular character; the
    identity value is the q-factorial; palindromicity (top-degree shift with
    sign twist); and the polynomial-ring factorization through the invariant
    subalgebra, together with the palindromicity of the coinvariant character
    times prod_k 1/(1 - q^k), both compared with denominators cleared."""
    if not 1 <= n <= COINVARIANT_BUDGET:
        raise BudgetExceededError(
            f"the closed-form check supports n <= {COINVARIANT_BUDGET}, got n = {n}"
        )
    R = coinvariant_graded_character(n)
    form_trivial = SymFunc.zero(n, "p")
    form_sign = SymFunc.zero(n, "p")
    q = QRat.q()
    for I in subsets_of_interval(n):
        others = [j for j in range(1, n) if j not in I]
        coef_t = QRat.one()
        for i in I:
            coef_t = coef_t * q**i
        for j in others:
            coef_t = coef_t * (QRat.one() - q**j)
        coef_s = QRat.one()
        for j in others:
            coef_s = coef_s * (q**j - QRat.one())
        form_trivial = form_trivial + induced_young(I, n, "trivial").scale(coef_t)
        form_sign = form_sign + induced_young(I, n, "sign").scale(coef_s)

    ring_factor = QRat.one()
    for k in range(1, n + 1):
        ring_factor = ring_factor * (QRat.one() - q**k)
    # With P(q) = prod_k (1 - q^k), P(1/q) = (-1)^n q^{-n(n+1)/2} P(q), so
    # the law ring(1/q) = (-q)^n omega ring(q) of ring = R / P, times
    # (-1)^n q^{-n} P(q), is the coinvariant law: one comparison, two records.
    palindromic = palindromicity_check(R, n * (n - 1) // 2, True)
    return [
        _agreement("closed_form_with_induced_trivial", R, form_trivial),
        _agreement("closed_form_with_induced_sign", R, form_sign),
        check(
            "q_equals_one_is_regular",
            R.subs_coeffs(lambda v: QRat.of(v.evaluate(1))) == regular_character(n),
        ),
        check("identity_value_is_q_factorial", graded_dimension(R).as_poly() == q_factorial(n)),
        check("palindromicity_with_sign_twist", palindromic),
        # C[t] = R (x) C[t]^{S_n} has character h_n[Z/(1-q)] = R / P; the
        # plethysm Z -> (1-q) Z clears it to h_n P = R[(1-q)Z]
        _agreement(
            "polynomial_ring_factors_through_invariants",
            trivial_character(n).scale(ring_factor),
            R.plethysm_scale(QRat.one() - q),
        ),
        check("polynomial_ring_palindromicity", palindromic),
    ]


def coinvariant_flag_cross_check(n: int) -> bool:
    """The coinvariant character equals the dagger character of the flavor-Y
    moment-graph quotient for h = (n, ..., n), classwise."""
    if not 1 <= n <= GKM_N_BUDGET:
        raise BudgetExceededError(f"the moment-graph cross-check supports n <= {GKM_N_BUDGET}")
    model = GkmModel(HessenbergFunction((n,) * n), "Y")
    return quotient_graded_character(model, "t_vars") == coinvariant_graded_character(n)


def _q_minus_one_product(exponents) -> QPoly:
    """prod over the exponents a of (q^a - 1)."""
    return prod((QPoly.monomial(a) - QPoly.one() for a in exponents), start=QPoly.one())


def q_binomial_sum_check(n: int, i: int) -> bool:
    """Whether sum over 1 <= a_1 < ... < a_i < n of x^(sum a_j - j) equals
    the Gaussian binomial prod_{j=1}^i (x^{n-j} - 1)/(x^j - 1), exactly,
    compared with the denominators cleared: the sum times
    prod_{j=1}^i (x^j - 1) against the product side prod_{j=1}^i (x^{n-j} - 1)."""
    if not 1 <= i < n <= Q_BINOMIAL_BUDGET:
        raise BudgetExceededError(
            f"the Gaussian-binomial check supports 1 <= i < n <= {Q_BINOMIAL_BUDGET}"
        )
    lhs = QPoly.zero()
    for a in combinations(range(1, n), i):
        lhs = lhs + QPoly.monomial(sum(a_j - j for j, a_j in enumerate(a, start=1)))
    cleared = lhs * _q_minus_one_product(range(1, i + 1))
    return cleared == _q_minus_one_product([n - j for j in range(1, i + 1)])


def complete_graph_agreement(n: int) -> list[dict]:
    """The check records of orientation counting on the complete graph
    against the product formula, partition by partition.

    For each partition P of n, the check "complete-graph partition P": the
    sum of q^(ascent count) over orientations of K_n whose sink-component
    partition is P, read from orientation_e_expansion, must equal the sum
    over subsets I of [n-1] with sorted composition P of
    prod_{j not in I} ((q+1)^j - 1); its detail is "<orientation side> vs
    <formula side>".  The two sides are aggregated by partition because
    distinct subsets can sort to the same partition; "complete-graph totals"
    checks both totals against (1+q)^(number of edges)."""
    if not 1 <= n <= COMPLETE_GRAPH_BUDGET:
        raise BudgetExceededError(
            f"the complete-graph check supports n <= {COMPLETE_GRAPH_BUDGET}, got n = {n}"
        )
    orientation = orientation_e_expansion(HessenbergFunction((n,) * n))
    orient_side = {mu: orientation.coeff(mu).as_poly() for mu in partitions_of(n)}
    formula_side: dict[tuple[int, ...], QPoly] = {mu: QPoly.zero() for mu in partitions_of(n)}
    qp1 = QPoly.q() + QPoly.one()
    for I in subsets_of_interval(n):
        term = QPoly.one()
        for j in range(1, n):
            if j not in I:
                term = term * (qp1**j - QPoly.one())
        P = partition_from_subset(I, n)
        formula_side[P] = formula_side[P] + term
    checks = [
        check(
            f"complete-graph partition {'.'.join(map(str, mu))}",
            orient_side[mu] == formula_side[mu],
            f"{format_poly(orient_side[mu])} vs {format_poly(formula_side[mu])}",
        )
        for mu in partitions_of(n)
    ]
    total = qp1 ** (n * (n - 1) // 2)
    checks.append(check(
        "complete-graph totals",
        sum(orient_side.values(), QPoly.zero()) == total
        and sum(formula_side.values(), QPoly.zero()) == total,
    ))
    return checks


def permco_report(n: int) -> list[dict]:
    """The check records of every face-module and coinvariant law available
    at this n; each sub-report is folded into one check whose detail names
    its failing checks."""
    if not 1 <= n <= FACE_MODULE_BUDGET:
        raise BudgetExceededError(
            f"reports support 1 <= n <= {FACE_MODULE_BUDGET}, got n = {n}"
        )
    fv = f_vector(n)
    chains = sum(factorial(n) // young_subgroup_order(I, n) for I in subsets_of_interval(n))
    checks = [check("face-count-identity", sum(fv) == chains, f"{sum(fv)} faces")]
    F, H = face_and_h_series(n)
    dims = graded_dimension(F).as_poly()
    checks.append(check(
        "face-module-dimensions-match-f-vector",
        all(dims.coeff(i) == fv[i] for i in range(n)),
    ))
    h_fn = HessenbergFunction(tuple(range(2, n + 1)) + (n,) if n >= 2 else (1,))
    eulerian = QRat(eulerian_polynomial(n))
    checks.append(check(
        "h-series-dimensions-are-eulerian",
        graded_dimension(H) == eulerian and graded_dimension(llt(h_fn)) == eulerian,
        format_poly(eulerian_polynomial(n)),
    ))
    checks.append(_folded("face-module-twin-law", _face_module_twin_check(n, F, H)))
    if n <= COINVARIANT_BUDGET:
        checks.append(_folded("coinvariant-closed-forms", coinvariant_closed_form_check(n)))
    if n <= GKM_N_BUDGET:
        checks.append(check("coinvariant-moment-graph-cross-check", coinvariant_flag_cross_check(n)))
    if n >= 2:
        checks.append(check(
            "gaussian-binomial-sums",
            all(q_binomial_sum_check(n, i) for i in range(1, n)),
        ))
    if n <= COMPLETE_GRAPH_BUDGET:
        checks.append(_folded("complete-graph-agreement", complete_graph_agreement(n)))
    return checks
