"""The fault matrix of the report checks.

Each row corrupts one route of the dual-route checks (a monkeypatch of one
function) and names the exact set of checks that must then read FAIL in one
report: gkm_report of the complete graph at n = 3, permco_report(3),
coinvariant_closed_form_check(3), complete_graph_agreement(3) or
verify_identities(2,3,4,4).  Exact sets catch a check that silently stops
failing as well as one that starts failing for the wrong reason.  A check
that ANDs several comparisons (a compound check) is covered conjunct by
conjunct: a row that fails one names the conjuncts it breaks, and each of
them is recomputed on its own under the fault.  A fault that the exact
congruence check of the moment-graph pieces or classes, the X certificate
against the twin dimension, or the staircase certificate of the
coinvariant ideal, refuses makes the report raise instead; such faults pin
the error.
Bumps of a character are made from the named characters with +, - and
scale only, so the table does not depend on how a character is stored.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

import hessllt.cli
from hessllt import gkm, hessgraph, permco, symfunc
from hessllt.characters import graded_dimension, regular_character, sign_character, trivial_character
from hessllt.combinat import cycle_type, partitions_of
from hessllt.errors import VerificationError
from hessllt.hessgraph import HessenbergFunction
from hessllt.multipoly import mp_is_zero
from hessllt.qrat import QPoly, QRat
from hessllt.symfunc import SymFunc

N = 3
COMPLETE = HessenbergFunction((N,) * N)  # |h| = 3, so a degree-0 bump stays below the top
OTHER = HessenbergFunction((2, 3, 3))
IDENTITY_H = HessenbergFunction((2, 3, 4, 4))
IDENTITY_OTHER = HessenbergFunction((2, 3, 3, 4))

REPORTS = {
    "gkm": lambda: gkm.gkm_report(COMPLETE),
    "permco": lambda: permco.permco_report(N),
    "coinvariant": lambda: permco.coinvariant_closed_form_check(N),
    "complete-graph": lambda: permco.complete_graph_agreement(N),
    "identities": lambda: hessgraph.verify_identities(IDENTITY_H),
}

# The checks permco_report folds a sub-report into; the detail of a failing
# one lists its failing sub-checks.
FOLDED = frozenset({"face-module-twin-law", "coinvariant-closed-forms", "complete-graph-agreement"})


def outcomes(report: list[dict]) -> dict[str, bool]:
    """Check name -> passed."""
    return {c["name"]: c["passed"] for c in report}


def failed(report: list[dict]) -> set[str]:
    return {name for name, passed in outcomes(report).items() if not passed}


def failed_with_sub_checks(report: list[dict]) -> set[str]:
    """The failing checks, with the failing sub-checks of the folded ones."""
    out = failed(report)
    for c in report:
        if c["name"] in FOLDED and not c["passed"]:
            out |= set(c["detail"].split("; "))
    return out


def odd_classes(n: int):
    """The class function 1 on odd permutations and 0 on even ones."""
    return (trivial_character(n) - sign_character(n)).scale(Fraction(1, 2))


def is_identity(sigma: tuple[int, ...]) -> bool:
    return sigma == tuple(range(1, len(sigma) + 1))


def is_n_cycle(sigma: tuple[int, ...]) -> bool:
    return cycle_type(sigma) == (len(sigma),)


def wrap(owner, name: str, make: Callable) -> Callable:
    """A fault that replaces owner.name by make(real)."""
    return lambda mp: mp.setattr(owner, name, make(getattr(owner, name)))


def other_h(real):
    return lambda h: real(OTHER)


def all_descending_dropped(real):
    """The orientation model without the all-descending orientation, whose
    hrv blocks are singletons: its term is e_(1^n)."""
    return lambda h: real(h) - SymFunc.basis_element("e", (1,) * h.n)


def trace_bump(owner, on: Callable):
    """The degree-0 trace on the pieces of class `owner`, dot on GkmSpace and
    dagger on TwinPiece, off by one on the permutations `on` selects (degree
    0 keeps the quotient zero above the top degree)."""

    def make(real):
        def bumped(self, sigma):
            t = real(self, sigma)
            return t + 1 if self.degree == 0 and on(sigma) else t

        return bumped

    return wrap(owner, "trace", make)


def kernel_dim_moved_to_sign(real):
    """dim K_(3)(0) moved to K_(1,1,1)(0): both irreducibles have dimension 1,
    so every dim Y_d, and with it every X piece, stays as it was, while the
    degree-0 dagger trace becomes the sign character."""

    def moved(h, lam, d):
        k = real(h, lam, d)
        return k + (d == 0) * ((lam == (1, 1, 1)) - (lam == (3,)))

    return moved


def quotient_series_bump(real):
    """Every quotient series off by one in degree 0 at the identity."""

    def assemble(n, series):
        def bumped(sigma):
            out = list(series(sigma))
            if is_identity(sigma):
                out[0] += 1
            return out

        return real(n, bumped)

    return assemble


def first_vertex_sign_flip(real):
    """The localization sum with the sign of vertex 0 flipped: on the complete
    graph the unit class then sums to -2 sgn(w_0), which the Vandermonde
    product does not divide."""

    def flipped(h_values):
        factors, signs = real(h_values)
        return factors, (-signs[0],) + signs[1:]

    return flipped


def first_vertex_terms_dropped(real):
    """The coordinate numerator of the localization sum without the terms of
    vertex 0: on the complete graph the unit class then sums to -sgn(w_0),
    which the Vandermonde product does not divide."""

    def dropped(h_values, d):
        terms = real(h_values, d)
        return (((), terms[0][1][:0]),) + terms[1:]

    return dropped


def p2_with_doubled_h11(real):
    """p_2 = 2h_2 - h_11 read as 2h_2 - 2h_11.  The fault runs the undecorated
    recursion, so the real cache of _p_in_h never holds a corrupted value."""

    def doubled(k):
        terms = real.__wrapped__(k)
        return tuple((lam, 2 * c if (k, lam) == (2, (1, 1)) else c) for lam, c in terms)

    return doubled


def swapped_degree_one_relabeling(real):
    """The locator with its first two targets swapped whenever it returns a
    degree-1 relabeling other than the identity: the map of tau is read as
    the map of tau (1 2)."""

    def located(exps, degree):
        out = real(exps, degree)
        identity = np.arange(out.size)
        if degree == 1 and np.array_equal(np.sort(out), identity) and not np.array_equal(out, identity):
            out = out.copy()
            out[[0, 1]] = out[[1, 0]]
        return out

    return located


def swapped_degree_two_monomials(real):
    """The locator with t_1^2 and t_1 t_2, positions 0 and 1 of degree 2,
    trading places."""

    def located(exps, degree):
        out = real(exps, degree)
        return np.where(out < 2, 1 - out, out) if degree == 2 else out

    return located


def first_subset_dropped(real):
    """combinations without its first subset."""
    return lambda pool, r: itertools.islice(real(pool, r), 1, None)


def top_factor_without_its_one(real):
    """The product side prod_j (q^{n-j} - 1) of the cleared Gaussian
    binomial, the one product that starts at q^{n-1} - 1, with that factor
    read as q^{n-1}."""

    def product(exponents):
        exponents = list(exponents)
        if exponents[0] != N - 1:
            return real(exponents)
        return real(exponents[1:]) * QPoly.monomial(N - 1)

    return product


def reversal_one_too_far(real):
    return lambda self, deg: real(self, deg + 1)


def second_addend_unscaled(real):
    """QPoly addition that aligns mixed denominators on the first operand
    only: the numerators of the second are read over the lcm unscaled."""
    return lambda self, other: real(
        self, other.scale(Fraction(other.den, math.lcm(self.den, other.den))))


def face_module_bump(i: int, delta: Callable):
    return wrap(
        permco, "face_module_character",
        lambda real: lambda n, j: real(n, j) + delta(n) if j == i else real(n, j),
    )


def coinvariant_bump(delta: Callable):
    return wrap(permco, "coinvariant_graded_character", lambda real: lambda n: real(n) + delta(n))


def symfunc_bump(delta: Callable):
    """A symmetric function of h off by delta(), for every h."""
    return lambda real: lambda h: real(h) + delta()


q = QRat.q()


class Fault(NamedTuple):
    name: str
    patch: Callable
    report: str
    fails: frozenset[str]
    breaks: frozenset[tuple[str, str]]  # (compound check, conjunct)


def fault(name: str, patch: Callable, report: str, *fails: str,
          breaks: dict[str, tuple[str, ...]] | None = None) -> Fault:
    pairs = frozenset((check, half) for check, halves in (breaks or {}).items() for half in halves)
    return Fault(name, patch, report, frozenset(fails), pairs)


TABLE = (
    fault("gkm-llt-of-another-h", wrap(gkm, "llt", other_h), "gkm",
          "x-quotient-character-is-llt"),
    # betti_numbers reads csf too
    fault("gkm-csf-of-another-h", wrap(gkm, "csf", other_h), "gkm",
          "free-module-dimension-law", "t-quotient-character-is-omega-chromatic",
          breaks={"free-module-dimension-law": ("X dims", "Y dims")}),
    fault("dagger-trace-off-on-n-cycles", trace_bump(gkm.TwinPiece, is_n_cycle), "gkm",
          "twin-quotient-equals-x-quotient", "equivariant-palindromicity"),
    # the twin quotient alone reads the split of Y by irreducibles
    fault("kernel-dim-moved-to-sign", wrap(gkm, "_kernel_dim", kernel_dim_moved_to_sign), "gkm",
          "twin-quotient-equals-x-quotient"),
    fault("dot-trace-off-on-n-cycles", trace_bump(gkm.GkmSpace, is_n_cycle), "gkm",
          "t-quotient-character-is-omega-chromatic", "x-quotient-character-is-llt",
          "twin-quotient-equals-x-quotient"),
    # a bump of one piece adds q^d (1 - q)^n to the quotient: 0 at q = 1
    fault("dot-trace-off-at-identity", trace_bump(gkm.GkmSpace, is_identity), "gkm",
          "t-quotient-character-is-omega-chromatic", "x-quotient-character-is-llt",
          "twin-quotient-equals-x-quotient"),
    # all three quotients move alike, so the twin comparison still holds
    fault("quotient-series-off-at-identity",
          wrap(gkm, "graded_class_function", quotient_series_bump), "gkm",
          "t-quotient-character-is-omega-chromatic", "x-quotient-character-is-llt",
          "total-quotient-dimension-is-n-factorial", "equivariant-palindromicity",
          breaks={"total-quotient-dimension-is-n-factorial": ("t quotient", "x quotient", "twin quotient")}),
    fault("localization-sign-off-at-vertex-0",
          wrap(gkm, "_complement_factors", first_vertex_sign_flip), "gkm",
          "localization-integrality-and-equivariance",
          breaks={"localization-integrality-and-equivariance": ("integrality",)}),
    fault("localization-vertex-0-terms-dropped",
          wrap(gkm, "_numerator_terms", first_vertex_terms_dropped), "gkm",
          "localization-integrality-and-equivariance",
          breaks={"localization-integrality-and-equivariance": ("integrality",)}),
    # csf and llt are tallied in the m basis and converted to p through the
    # tables when they are built; the other checks compare characters that
    # are built in p
    fault("p2-in-h-with-doubled-h11", wrap(symfunc, "_p_in_h", p2_with_doubled_h11), "gkm",
          "t-quotient-character-is-omega-chromatic", "x-quotient-character-is-llt"),
    fault("vertex-module-plus-regular", face_module_bump(0, regular_character), "permco",
          "face-module-dimensions-match-f-vector", "h-series-dimensions-are-eulerian",
          "face-module-twin-law",
          breaks={"h-series-dimensions-are-eulerian": ("H",),
                  "shifted_face_series_is_llt_at_q_plus_one": ("face series is the closed form",)}),
    fault("vertex-module-plus-odd-classes",
          face_module_bump(0, lambda n: odd_classes(n).scale(2)), "permco",
          "face-module-twin-law",
          breaks={"shifted_face_series_is_llt_at_q_plus_one": ("face series is the closed form",)}),
    fault("f-vector-off-by-one",
          wrap(permco, "f_vector", lambda real: lambda n: (real(n)[0] + 1,) + real(n)[1:]),
          "permco", "face-count-identity", "face-module-dimensions-match-f-vector"),
    fault("eulerian-off-by-one",
          wrap(permco, "eulerian_polynomial", lambda real: lambda n: real(n) + QPoly.one()),
          "permco", "h-series-dimensions-are-eulerian",
          breaks={"h-series-dimensions-are-eulerian": ("H", "LLT")}),
    fault("permco-llt-of-the-complete-graph",
          wrap(permco, "llt", lambda real: lambda h: real(HessenbergFunction((h.n,) * h.n))),
          "permco", "h-series-dimensions-are-eulerian", "face-module-twin-law",
          breaks={"h-series-dimensions-are-eulerian": ("LLT",),
                  "shifted_face_series_is_llt_at_q_plus_one": ("closed form is LLT(q+1)",)}),
    # complete_graph_agreement reads its orientation side from orientation_e_expansion
    fault("one-orientation-dropped",
          wrap(permco, "orientation_e_expansion", all_descending_dropped),
          "permco", "complete-graph-agreement", breaks={"complete-graph totals": ("orientation",)}),
    fault("one-orientation-dropped",
          wrap(permco, "orientation_e_expansion", all_descending_dropped),
          "complete-graph", "complete-graph partition 1.1.1", "complete-graph totals",
          breaks={"complete-graph totals": ("orientation",)}),
    # the subset {} is the one term of the partition 3 on the formula side
    fault("empty-interval-subset-dropped",
          wrap(permco, "subsets_of_interval", lambda real: lambda n: real(n)[1:]),
          "complete-graph", "complete-graph partition 3", "complete-graph totals",
          breaks={"complete-graph totals": ("formula",)}),
    # the formula term of {1} counted under the partition 3 in place of 2.1:
    # the totals see every term once and still agree
    fault("formula-term-under-another-partition",
          wrap(permco, "partition_from_subset",
               lambda real: lambda I, n: real((), n) if I == (1,) else real(I, n)),
          "complete-graph", "complete-graph partition 3", "complete-graph partition 2.1"),
    fault("one-subset-dropped", wrap(permco, "combinations", first_subset_dropped), "permco",
          "gaussian-binomial-sums"),
    fault("gaussian-product-factor-without-its-one",
          wrap(permco, "_q_minus_one_product", top_factor_without_its_one), "permco",
          "gaussian-binomial-sums"),
    # the staircase basis of the coinvariant ideal with two monomial rows
    # traded: the ideal identities and the reductions of the e_k see the
    # trade consistently and pass
    fault("span-locator-swaps-two-monomials",
          wrap(permco, "monomial_positions", swapped_degree_two_monomials), "permco",
          "coinvariant-closed-forms", "coinvariant-moment-graph-cross-check"),
    fault("span-locator-swaps-two-monomials",
          wrap(permco, "monomial_positions", swapped_degree_two_monomials), "coinvariant",
          "closed_form_with_induced_trivial", "closed_form_with_induced_sign",
          "q_equals_one_is_regular", "palindromicity_with_sign_twist",
          "polynomial_ring_factors_through_invariants", "polynomial_ring_palindromicity"),
    fault("coinvariant-plus-regular", coinvariant_bump(regular_character), "permco",
          "coinvariant-closed-forms", "coinvariant-moment-graph-cross-check"),
    fault("coinvariant-plus-regular", coinvariant_bump(regular_character), "coinvariant",
          "closed_form_with_induced_trivial", "closed_form_with_induced_sign",
          "q_equals_one_is_regular", "identity_value_is_q_factorial",
          "palindromicity_with_sign_twist", "polynomial_ring_factors_through_invariants",
          "polynomial_ring_palindromicity"),
    fault("coinvariant-plus-odd-classes-times-1-q",
          coinvariant_bump(lambda n: odd_classes(n).scale(1 - q)), "coinvariant",
          "closed_form_with_induced_trivial", "closed_form_with_induced_sign",
          "palindromicity_with_sign_twist", "polynomial_ring_factors_through_invariants",
          "polynomial_ring_palindromicity"),
    # q^3 d(1/q) equals the sign twist of d = (q - q^2) on the odd classes
    fault("coinvariant-plus-palindromic-bump",
          coinvariant_bump(lambda n: odd_classes(n).scale(q - q**2)), "coinvariant",
          "closed_form_with_induced_trivial", "closed_form_with_induced_sign",
          "polynomial_ring_factors_through_invariants"),
    # the ring factor of the cleared factorization is h_n prod_k (1 - q^k)
    fault("ring-factor-reads-the-sign-character",
          wrap(permco, "trivial_character", lambda real: sign_character), "coinvariant",
          "polynomial_ring_factors_through_invariants"),
    # every palindromicity check reverses its coefficients; one degree too
    # far multiplies the reversal by q
    fault("reversal-one-degree-too-far", wrap(QPoly, "reversed_to", reversal_one_too_far),
          "identities", "csf palindromicity", "llt palindromicity"),
    fault("reversal-one-degree-too-far", wrap(QPoly, "reversed_to", reversal_one_too_far),
          "gkm", "equivariant-palindromicity"),
    fault("reversal-one-degree-too-far", wrap(QPoly, "reversed_to", reversal_one_too_far),
          "coinvariant", "palindromicity_with_sign_twist", "polynomial_ring_palindromicity"),
    # A mixed-denominator sum misreads its second operand, so the conversions
    # of csf and llt from m to p come out wrong; csf palindromicity holds for
    # any rational combination of the palindromic m coefficients, which is
    # all the fault changes.
    fault("second-addend-unscaled", wrap(QPoly, "__add__", second_addend_unscaled), "identities",
          "llt palindromicity", "carlson-mellit relation", "plethystic inversion, contracted",
          "plethystic inversion, expanded", "llt at q=1 is the regular representation",
          "orientation model of the shifted e expansion"),
    fault("second-addend-unscaled", wrap(QPoly, "__add__", second_addend_unscaled), "coinvariant",
          "closed_form_with_induced_trivial", "closed_form_with_induced_sign"),
    # the mixed sums of the gkm report, in the conversion of the complete
    # graph's csf and llt, all have an integer first operand, so the lcm is
    # the second operand's own denominator and no value changes
    fault("second-addend-unscaled", wrap(QPoly, "__add__", second_addend_unscaled), "gkm"),
    fault("q-factorial-off-by-one",
          wrap(permco, "q_factorial", lambda real: lambda n: real(n) + QPoly.one()),
          "coinvariant", "identity_value_is_q_factorial"),
    fault("regular-character-plus-odd-classes",
          wrap(permco, "regular_character", lambda real: lambda n: real(n) + odd_classes(n)),
          "coinvariant", "q_equals_one_is_regular"),
    fault("one-orientation-dropped",
          wrap(hessgraph, "orientation_e_expansion", all_descending_dropped),
          "identities", "orientation model of the shifted e expansion"),
    # a proper coloring no longer has to rise between adjacent vertices, so
    # the csf tally over the rankings becomes the llt tally
    fault("proper-rises-without-adjacency",
          wrap(hessgraph, "_proper_rises", lambda real: lambda h: {(u, v) for u, v in real(h) if u < v}),
          "identities", "csf palindromicity", "carlson-mellit relation",
          "plethystic inversion, contracted", "plethystic inversion, expanded"),
    fault("csf-of-another-h",
          wrap(hessgraph, "csf", lambda real: lambda h: real(IDENTITY_OTHER)), "identities",
          "csf palindromicity", "carlson-mellit relation",
          "plethystic inversion, contracted", "plethystic inversion, expanded"),
    # csf palindromicity alone does not read llt
    fault("llt-plus-q-times-h4-minus-e4",
          wrap(hessgraph, "llt", symfunc_bump(
              lambda: (SymFunc.basis_element("h", (4,)) - SymFunc.basis_element("e", (4,))).scale(q))),
          "identities", "llt palindromicity", "carlson-mellit relation",
          "plethystic inversion, contracted", "plethystic inversion, expanded",
          "llt at q=1 is the regular representation",
          "orientation model of the shifted e expansion"),
    # q^3 (1/q + 1/q^2) = q + q^2, so csf stays palindromic
    fault("csf-plus-palindromic-s22",
          wrap(hessgraph, "csf", symfunc_bump(
              lambda: SymFunc.basis_element("s", (2, 2)).scale(q + q**2))),
          "identities", "carlson-mellit relation",
          "plethystic inversion, contracted", "plethystic inversion, expanded"),
)

# Checks the four reports emit that no row above makes fail yet.
UNCOVERED: frozenset[str] = frozenset()

REQUIRED = frozenset({
    "t-quotient-character-is-omega-chromatic",
    "x-quotient-character-is-llt",
    "twin-quotient-equals-x-quotient",
    "total-quotient-dimension-is-n-factorial",
    "equivariant-palindromicity",
    "face-module-dimensions-match-f-vector",
    "h-series-dimensions-are-eulerian",
    "q_equals_one_is_regular",
    "identity_value_is_q_factorial",
    "palindromicity_with_sign_twist",
})


# ------------------------------------------- the conjuncts of compound checks
# Each conjunct recomputed on its own, from the same functions its check
# reads, so that it sees a fault patched on them.

def dimension_law_holds(flavor: str) -> bool:
    n, max_d = COMPLETE.n, COMPLETE.size() + 1
    betti = gkm.betti_numbers(COMPLETE)
    law = [sum(betti[k] * math.comb(d - k + n - 1, n - 1) for k in range(min(d, len(betti) - 1) + 1))
           for d in range(max_d + 1)]
    model = gkm.GkmModel(COMPLETE, flavor)
    return [gkm.degree_piece(model, d).dim for d in range(max_d + 1)] == law


def quotient_total_holds(flavor: str, generators: str) -> bool:
    chi = gkm.quotient_graded_character(gkm.GkmModel(COMPLETE, flavor), generators, COMPLETE.size() + 1)
    return graded_dimension(chi).evaluate(1) == math.factorial(N)


def localization_batches() -> list[gkm.EquivariantClass]:
    """One batch class per degree up to |h|, as the localization check takes them."""
    model = gkm.GkmModel(COMPLETE, "X")
    return [gkm.EquivariantClass(model, d, gkm.degree_piece(model, d).matrix)
            for d in range(COMPLETE.size() + 1)]


EQUIVARIANCE_SAMPLE = 3  # the check samples the degrees d <= 2
GENERATORS = ((2, 1, 3), (2, 3, 1))  # the transposition (1 2) and the n-cycle


def localization_integral() -> bool:
    try:
        return all(sum(e) == batch.degree - COMPLETE.size()
                   for batch in localization_batches() for e in gkm.localization_pushforward(batch))
    except VerificationError:
        return False


def localization_equivariant() -> bool:
    return all(gkm.localization_equivariance_check(batch, sigma)
               for batch in localization_batches()[:EQUIVARIANCE_SAMPLE] for sigma in GENERATORS)


def eulerian_dimensions(series: SymFunc) -> bool:
    return graded_dimension(series) == QRat(permco.eulerian_polynomial(N))


def shifted_closed_form() -> SymFunc:
    """sum over subsets I of [n - 1] of q^{n-1-|I|} e_{P(I)}."""
    out = SymFunc.zero(N, "e")
    for I in permco.subsets_of_interval(N):
        out = out + SymFunc.basis_element("e", permco.partition_from_subset(I, N)).scale(q ** (N - 1 - len(I)))
    return out


def complete_graph_total() -> QPoly:
    return (QPoly.q() + QPoly.one()) ** (N * (N - 1) // 2)


def orientation_total() -> QPoly:
    orientation = permco.orientation_e_expansion(HessenbergFunction((N,) * N))
    return sum((orientation.coeff(mu).as_poly() for mu in partitions_of(N)), QPoly.zero())


def formula_total() -> QPoly:
    qp1 = QPoly.q() + QPoly.one()
    return sum((math.prod((qp1 ** j - QPoly.one() for j in range(1, N) if j not in I), start=QPoly.one())
                for I in permco.subsets_of_interval(N)), QPoly.zero())


# The h of permco's twin law at n = 3, (2, 3, 3), is OTHER.
CONJUNCTS: dict[tuple[str, str], Callable[[], bool]] = {
    ("free-module-dimension-law", "X dims"): lambda: dimension_law_holds("X"),
    ("free-module-dimension-law", "Y dims"): lambda: dimension_law_holds("Y"),
    ("total-quotient-dimension-is-n-factorial", "t quotient"): lambda: quotient_total_holds("X", "t_vars"),
    ("total-quotient-dimension-is-n-factorial", "x quotient"): lambda: quotient_total_holds("X", "x_classes"),
    ("total-quotient-dimension-is-n-factorial", "twin quotient"): lambda: quotient_total_holds("Y", "t_vars"),
    ("localization-integrality-and-equivariance", "integrality"): localization_integral,
    ("localization-integrality-and-equivariance", "equivariance"): localization_equivariant,
    ("h-series-dimensions-are-eulerian", "H"): lambda: eulerian_dimensions(permco.face_and_h_series(N)[1]),
    ("h-series-dimensions-are-eulerian", "LLT"): lambda: eulerian_dimensions(permco.llt(OTHER)),
    ("shifted_face_series_is_llt_at_q_plus_one", "closed form is LLT(q+1)"):
        lambda: shifted_closed_form() == permco.llt(OTHER).subs_coeffs(lambda c: c.subs_q_plus_one()),
    ("shifted_face_series_is_llt_at_q_plus_one", "face series is the closed form"):
        lambda: permco.face_and_h_series(N)[0].omega() == shifted_closed_form(),
    ("complete-graph totals", "orientation"): lambda: orientation_total() == complete_graph_total(),
    ("complete-graph totals", "formula"): lambda: formula_total() == complete_graph_total(),
}
COMPOUND = frozenset(check for check, _ in CONJUNCTS)

# Conjuncts that no row breaks, with the reason.
UNCOVERED_CONJUNCTS = {
    # The check samples d <= 2 and a degree-d class pushes forward to degree
    # d - |h|, so below |h| = 3 both sides are 0 whatever the action does
    # (test_the_equivariance_half_compares_zero_with_zero).  Making it
    # compare something changes the gkm report and its digests (ROADMAP
    # item 7).
    ("localization-integrality-and-equivariance", "equivariance"): "below |h| both sides are 0",
}

# The cached index maps of the moment graphs, which a locator fault corrupts,
# the cached numerator terms of the localization sum, built from the
# complement factors a sign fault corrupts, and the cached csf and llt,
# which a table fault corrupts as they are converted to p and a rise fault
# as they are tallied.
CACHES = (gkm.perm_monomial_map, gkm._mono_shift_map, gkm._subst_map, gkm._numerator_terms,
          hessgraph._coloring_symfuncs)


@pytest.fixture(autouse=True)
def cold_caches(monkeypatch):
    """Every row builds its pieces, tables, index maps, csf and llt under its
    own fault; the cached values it built are dropped after it."""
    monkeypatch.setattr(gkm, "_space_cache", {})
    monkeypatch.setattr(symfunc, "_TABLE_CACHE", {})
    for cached in CACHES:
        cached.cache_clear()
    yield
    for cached in CACHES:
        cached.cache_clear()


@pytest.mark.parametrize("row", TABLE, ids=lambda r: f"{r.report}:{r.name}")
def test_fault_fails_exactly_its_checks(monkeypatch, row):
    row.patch(monkeypatch)
    report = REPORTS[row.report]()
    assert failed(report) == row.fails
    # every compound check the fault fails, folded or not, names the
    # conjuncts it breaks, and each of them fails on its own
    assert {check for check, _ in row.breaks} == COMPOUND & failed_with_sub_checks(report)
    for conjunct in row.breaks:
        assert not CONJUNCTS[conjunct](), conjunct


def test_every_emitted_check_is_covered_or_listed_as_uncovered():
    names = set()
    for build in REPORTS.values():
        report = build()
        assert not failed(report)
        names |= set(outcomes(report))
    covered = set().union(*(row.fails for row in TABLE))
    assert covered <= names
    assert REQUIRED <= covered
    assert names - covered == UNCOVERED


def test_every_conjunct_is_broken_or_listed_as_uncovered():
    for conjunct, holds in CONJUNCTS.items():
        assert holds(), conjunct
    broken = set().union(*(row.breaks for row in TABLE))
    assert set(CONJUNCTS) - broken == set(UNCOVERED_CONJUNCTS)


def test_the_equivariance_half_compares_zero_with_zero():
    for batch in localization_batches()[:EQUIVARIANCE_SAMPLE]:
        assert batch.degree < COMPLETE.size()
        assert mp_is_zero(gkm.localization_pushforward(batch))
        for sigma in GENERATORS:
            assert mp_is_zero(gkm.localization_pushforward(batch.act(sigma)))


# The degree-1 relabeling maps place the staircase classes, so the exact
# congruence check refuses the X piece before any report check runs.  The
# permco report builds no moment-graph basis (its twin side is split by
# irreducibles); the relabeling its coinvariant tracer reads is swapped for
# some permutations of a class and not for others, so the class
# representatives of its graded character disagree.
REFUSED = {
    "gkm": "column violates the degree-1 congruence on edge ((1, 2, 3), (3, 2, 1)) "
           "with label t_3 - t_1",
    "permco": "class representatives of cycle type (2, 1) disagree: [1, 2, 0, -1] vs [1, -1, 0, -1]",
}


@pytest.mark.parametrize("report", sorted(REFUSED))
def test_swapped_relabeling_is_refused_by_the_congruence_check(monkeypatch, report):
    wrap(gkm, "monomial_positions", swapped_degree_one_relabeling)(monkeypatch)
    with pytest.raises(ArithmeticError, match=re.escape(REFUSED[report])):
        REPORTS[report]()


# The face module characters are sums of induced characters whose p
# coefficients have mixed denominators, so under the fault the shifted face
# series has a non-integer multiplicity and permco_report raises.
def test_unscaled_second_addend_is_refused_by_the_face_series(monkeypatch):
    wrap(QPoly, "__add__", second_addend_unscaled)(monkeypatch)
    with pytest.raises(ArithmeticError, match=re.escape(
            "degree-0 coefficient of the shifted face series is not a genuine character "
            "(multiplicity 1/3 at (3,))")):
        REPORTS["permco"]()


def staircase_column_short(degree: int, column: int):
    """The staircase columns with the last term of one column of one degree
    dropped."""

    def make(real):
        def short(n, d):
            out = real(n, d)
            if d == degree:
                out = out.copy()
                out[np.flatnonzero(out[:, column])[-1], column] = 0
            return out

        return short

    return wrap(permco, "_staircase_columns", make)


# The reduction of e_2 reads the last degree-2 column, g_2 without t_3^2
# here, and leaves a remainder.  It never reads the first, g_1 t_1 without
# t_1 t_3: the ideal piece is then not invariant, and the class
# representatives of its quotient trace disagree.
REFUSED_COLUMNS = {
    "last": (staircase_column_short(2, -1), "e_2 leaves a remainder modulo the staircase basis"),
    "first": (staircase_column_short(2, 0),
              "class representatives of cycle type (3,) disagree: [1, -1, -2, 1] vs [1, -1, 0, 1]"),
}


@pytest.mark.parametrize("column", sorted(REFUSED_COLUMNS))
def test_short_staircase_column_is_refused(monkeypatch, column):
    patch, error = REFUSED_COLUMNS[column]
    patch(monkeypatch)
    with pytest.raises(ArithmeticError, match=re.escape(error)):
        REPORTS["coinvariant"]()


def test_kernel_dim_off_by_one_is_refused_by_the_x_certificate(monkeypatch):
    # dim K_(2,1)(0) + 1 raises dim Y_0 by f^(2,1) = 2; the unit class falls
    # short of it, and the lifted nullspace of C_X pins dim X_0 = 1
    wrap(gkm, "_kernel_dim", lambda real: lambda h, lam, d: real(h, lam, d) + (lam == (2, 1) and d == 0))(
        monkeypatch)
    with pytest.raises(ArithmeticError, match="the lifted nullspace has 1 columns, the twin dimension is 3"):
        REPORTS["gkm"]()


def act_without_relabeling(self, sigma):
    """EquivariantClass.act whose dot action moves the vertices but keeps
    the variables: the dagger gather of the twin applied to a flavor-X class."""
    src = gkm._ambient_src(self.model.twin(), self.degree, sigma)
    return gkm.EquivariantClass(self.model, self.degree, self.coords[src])


# The equivariance check of the localization acts first on the degree-0
# piece, the unit class, which every vertex permutation fixes; the first
# refusal is at degree 1 under the transposition (1 2).
REFUSED_ACT = ("column violates the degree-1 congruence on edge ((1, 2, 3), (3, 2, 1)) "
               "with label t_3 - t_1")


def test_act_outside_the_congruences_is_refused_by_the_constructor(monkeypatch):
    monkeypatch.setattr(gkm.EquivariantClass, "act", act_without_relabeling)
    with pytest.raises(VerificationError, match=re.escape(REFUSED_ACT)):
        REPORTS["gkm"]()


def test_act_outside_the_congruences_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(gkm.EquivariantClass, "act", act_without_relabeling)
    assert hessllt.cli.main(["verify", "--scope", "gkm", "--h", "3,3,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("computation failed: " + REFUSED_ACT)
    assert "Traceback" not in err
