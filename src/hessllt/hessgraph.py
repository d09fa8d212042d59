"""Unit interval graphs of Hessenberg functions and their coloring polynomials.

A Hessenberg function h on [n] is weakly increasing with h(j) >= j; its unit
interval graph G_h has an edge {j, i} whenever j < i <= h(j).  Two q-graded
sums over colorings kappa: [n] -> colors live here:

* csf(h): the chromatic quasisymmetric function, summing z_kappa q^asc(kappa)
  over proper colorings (adjacent vertices differ);
* llt(h): the unicellular LLT polynomial, the same sum over all colorings.

Both come from Gessel's fundamental quasisymmetric expansion (Gessel 1984;
Shareshian-Wachs 2016, Thm 3.1).  Rank the vertices of a coloring by
(kappa(v), -v), and let pos(k) be the vertex of rank k.  The ranking fixes
asc, the edges a < b ranked a first, and the colorings with that ranking
are the weakly increasing color sequences that rise at the steps k of a
mask: pos(k) < pos(k+1), and for proper colorings also pos(k) adjacent to
pos(k+1).  So each of the n! rankings adds q^asc F_mask, and [M_alpha] sums
the masks inside the cut set of the composition alpha.  The sum is
quasisymmetric by construction, so equal weights on the rearrangements of
every composition prove it symmetric; that is asserted before the m
coefficients, the partitions, are read off.  The m expansion is converted
to the p basis once and cached there, because omega and plethysm act
diagonally on p (Macdonald, ch. I), so every identity of verify_identities
is checked without leaving p.

Orientations of G_h carry the ascent statistic asc(theta) (number of edges
directed from the smaller to the larger endpoint) and the highest reachable
vertex hrv(theta, v), the largest vertex reachable from v along ascending
directed edges only; grouping vertices by hrv gives the partition
lambda(theta), and sum_theta q^asc(theta) e_lambda(theta) equals the LLT
polynomial with q shifted to q+1.  The sum is one integer pass: an
orientation is a bit mask over h.edge_pairs(), and no graph or orientation
object is built.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import lru_cache

from .combinat import Partition, composition_from_subset, sort_to_partition
from .characters import palindromicity_check
from .errors import BudgetExceededError, VerificationError, check
from .qrat import QPoly, QRat
from .symfunc import SymFunc

COLORING_BUDGET = 8
ORIENTATION_BUDGET = 20  # 2^|h| orientations at most
HESSENBERG_ALL_BUDGET = 7


class HessenbergFunction:
    """Weakly increasing h: [n] -> [n] with h(j) >= j, stored 1-based."""

    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(map(operator.index, values))  # refuses floats and strings
        n = len(values)
        for j, v in enumerate(values, start=1):
            if not j <= v <= n:
                raise ValueError(f"h({j}) = {v} violates j <= h(j) <= {n}")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ValueError(f"not weakly increasing: {values}")
        self.values = values

    @staticmethod
    def parse(text: str) -> HessenbergFunction:
        return HessenbergFunction(int(p) for p in text.split(","))

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, j: int) -> int:
        return self.values[j - 1]

    def size(self) -> int:
        """|h| = sum_j (h(j) - j), the number of edges of G_h."""
        return sum(v - j for j, v in enumerate(self.values, start=1))

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Edges as (j, i) with j < i <= h(j)."""
        return tuple(
            (j, i)
            for j in range(1, self.n + 1)
            for i in range(j + 1, self.values[j - 1] + 1)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, HessenbergFunction) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"HessenbergFunction({','.join(map(str, self.values))})"


@lru_cache(maxsize=None)
def hessenberg_all(n: int) -> tuple[HessenbergFunction, ...]:
    """All Hessenberg functions on [n] (Catalan many), lexicographic order."""
    if not 1 <= n <= HESSENBERG_ALL_BUDGET:
        raise BudgetExceededError(f"hessenberg_all supports 1 <= n <= {HESSENBERG_ALL_BUDGET}, got {n}")

    def gen(prefix: tuple[int, ...]) -> list[tuple[int, ...]]:
        j = len(prefix) + 1
        if j > n:
            return [prefix]
        lo = max(j, prefix[-1] if prefix else 1)
        return [out for v in range(lo, n + 1) for out in gen(prefix + (v,))]

    return tuple(HessenbergFunction(v) for v in gen(()))


def _proper_rises(h: HessenbergFunction) -> set[tuple[int, int]]:
    """The steps (u, v) between adjacent ranks at which a proper coloring
    must rise: u < v, as every coloring must, or u adjacent to v.  Adjacent
    ranks suffice, because the neighbourhoods of G_h are intervals: a vertex
    between two adjacent vertices is adjacent to both."""
    up = {(u, v) for v in range(1, h.n + 1) for u in range(1, v)}
    return up | {(b, a) for a, b in h.edge_pairs()}


def _composition_weights(h: HessenbergFunction):
    """(weights_all, weights_proper): every strong composition alpha of n
    mapped to [M_alpha] as {asc: count}, over all colorings and over the
    proper ones.  The n! rankings are built vertex by vertex: asc counts the
    lower neighbours already placed, and bit k of a mask is the step from
    rank k to rank k + 1 (the sentinel n + 1 before rank 1 sets no bit)."""
    n = h.n
    if n > COLORING_BUDGET:
        raise BudgetExceededError(f"coloring enumeration supports n <= {COLORING_BUDGET}, got {n}")
    lower = [0] * (n + 1)
    for a, b in h.edge_pairs():
        lower[b] |= 1 << a
    proper_rises = _proper_rises(h)
    full = (1 << n + 1) - 2
    tally_all, tally_proper = Counter(), Counter()

    def extend(placed, last, bit, mask_all, mask_proper, asc):
        if placed == full:
            tally_all[mask_all, asc] += 1
            tally_proper[mask_proper, asc] += 1
            return
        for v in range(1, n + 1):
            if not placed >> v & 1:
                extend(placed | 1 << v, v, bit << 1,
                       mask_all | bit if last < v else mask_all,
                       mask_proper | bit if (last, v) in proper_rises else mask_proper,
                       asc + (placed & lower[v]).bit_count())

    extend(0, n + 1, 1, 0, 0, 0)
    return _cut_set_sums(tally_all, n), _cut_set_sums(tally_proper, n)


def _cut_set_sums(tally: Counter, n: int) -> dict[tuple[int, ...], dict[int, int]]:
    """{alpha: {asc: count}} summing the (mask, asc) tally over every mask
    inside the cut set of alpha, one bit at a time (a zeta transform)."""
    masks = range(0, 1 << n, 2)
    sums = {mask: Counter() for mask in masks}
    for (mask, asc), count in tally.items():
        sums[mask][asc] += count
    for k in range(1, n):
        for mask in masks:
            if mask >> k & 1:
                sums[mask].update(sums[mask ^ 1 << k])
    return {
        composition_from_subset(tuple(k for k in range(1, n) if mask >> k & 1), n): dict(by_asc)
        for mask, by_asc in sums.items()
    }


def _assert_symmetric(weights: dict[tuple[int, ...], dict[int, int]]) -> None:
    """Every rearrangement of a composition must carry equal weights."""
    reference: dict[Partition, dict[int, int]] = {}
    for alpha, by_asc in weights.items():
        shape = sort_to_partition(alpha)
        if reference.setdefault(shape, by_asc) != by_asc:
            raise VerificationError(f"coloring sum is not symmetric at shape {shape}")


def _tally_poly(by_asc: dict[int, int]) -> QPoly:
    """The q-polynomial sum of count * q^asc over an {asc: count} tally."""
    coeffs = [0] * (max(by_asc, default=-1) + 1)
    for a, m in by_asc.items():
        coeffs[a] = m
    return QPoly(coeffs)


def _weights_to_symfunc(weights, n: int) -> SymFunc:
    """The m expansion of a composition table, once its symmetry is asserted."""
    _assert_symmetric(weights)
    table = {alpha: _tally_poly(w) for alpha, w in weights.items() if alpha == sort_to_partition(alpha)}
    return SymFunc.from_q_table("m", n, table)


@lru_cache(maxsize=None)
def _coloring_symfuncs(h: HessenbergFunction) -> tuple[SymFunc, SymFunc]:
    return tuple(_weights_to_symfunc(w, h.n).in_basis("p") for w in _composition_weights(h))


def llt(h: HessenbergFunction) -> SymFunc:
    """Unicellular LLT polynomial LLT_h(z; q) in the p basis, converted once
    from the m-basis tally of all colorings."""
    return _coloring_symfuncs(h)[0]


def csf(h: HessenbergFunction) -> SymFunc:
    """Chromatic quasisymmetric function X_h(z; q) in the p basis, converted
    once from the m-basis tally of the proper colorings."""
    return _coloring_symfuncs(h)[1]


def orientation_e_expansion(h: HessenbergFunction) -> SymFunc:
    """sum over orientations of q^asc(theta) e_lambda(theta), in the e basis.

    The orientations are the integers 0 <= bits < 2^|h|: bit k directs edge k
    of h.edge_pairs() upward, so asc is the bit count.  The edges are sorted
    by their lower end, so one pass over them in reverse order finishes
    hrv(b) before hrv(a) reads it.  Orientations are tallied by (hrv, asc),
    and the hrv block sizes of each distinct hrv give lambda.
    """
    m = h.size()
    if m > ORIENTATION_BUDGET:
        raise BudgetExceededError(
            f"orientation enumeration supports 2^|h| <= 2^{ORIENTATION_BUDGET}, got |h| = {m}"
        )
    arcs = [(1 << k, a, b) for k, (a, b) in reversed(list(enumerate(h.edge_pairs())))]
    tally: dict[tuple[tuple[int, ...], int], int] = {}
    for bits in range(1 << m):
        hrv = list(range(h.n + 1))
        for bit, a, b in arcs:
            if bits & bit and hrv[b] > hrv[a]:
                hrv[a] = hrv[b]
        key = (tuple(hrv[1:]), bits.bit_count())
        tally[key] = tally.get(key, 0) + 1
    table: dict[Partition, dict[int, int]] = {}
    for (hrv, asc), count in tally.items():
        by_asc = table.setdefault(sort_to_partition(tuple(Counter(hrv).values())), {})
        by_asc[asc] = by_asc.get(asc, 0) + count
    qtable = {lam: _tally_poly(by_asc) for lam, by_asc in table.items()}
    return SymFunc.from_q_table("e", h.n, qtable)


def verify_identities(h: HessenbergFunction) -> list[dict]:
    """The finite identities tying csf, llt, omega, and plethysm together,
    as check records.

    Exact checks, in order: palindromicity of X_h and of LLT_h, the
    Carlson-Mellit relation, both plethystic inversions between the omega
    twists, the regular representation at q = 1, and the orientation model
    of the shifted e expansion.
    """
    n, size = h.n, h.size()
    x = csf(h)
    y = llt(h)
    q = QRat.q()
    checks = []

    checks.append(check(
        "csf palindromicity",
        palindromicity_check(x, size, False),
        "q^|h| X(1/q) = X(q)",
    ))
    checks.append(check(
        "llt palindromicity",
        palindromicity_check(y, size, True),
        "q^|h| LLT(1/q) = omega LLT(q)",
    ))
    # The plethystic relations are compared with their denominators cleared.
    # Z -> a(q) Z multiplies [p_lam] by prod_i a(q^lam_i), so it commutes with
    # scalars in q and is inverted by Z -> Z / a(q): both inversions clear to
    # (1-q)^n omega X = LLT[(1-q)Z; q].
    qm1 = q - QRat.one()
    checks.append(check(
        "carlson-mellit relation",
        x.scale(qm1 ** n) == y.plethysm_scale(qm1),
        "X = (q-1)^-n LLT[(q-1)Z; q]",
    ))
    one_minus_q = QRat.one() - q
    inversion = x.omega().scale(one_minus_q ** n) == y.plethysm_scale(one_minus_q)
    checks.append(check(
        "plethystic inversion, contracted",
        inversion,
        "omega-twisted LLT = (1-q)^n (omega X)[Z/(1-q); q]",
    ))
    checks.append(check(
        "plethystic inversion, expanded",
        inversion,
        "omega X = (1-q)^-n (omega-twisted LLT)[(1-q)Z; q]",
    ))
    regular = SymFunc.basis_element("p", (1,) * n)
    checks.append(check(
        "llt at q=1 is the regular representation",
        y.subs_coeffs(lambda c: QRat.of(c.evaluate(1))) == regular,
        "LLT(z; 1) = p_1^n",
    ))
    checks.append(check(
        "orientation model of the shifted e expansion",
        orientation_e_expansion(h) == y.subs_coeffs(lambda c: c.subs_q_plus_one()),
        "sum_theta q^asc e_lambda(theta) = LLT(z; q+1)",
    ))
    return checks
