"""Characters of S_n, stored as their Frobenius images.

A class function chi, graded or not, is the p-basis SymFunc
ch(chi) = sum_mu chi(mu) p_mu / z_mu (Macdonald, ch. I §7).  A graded
character R(A;q) = sum_i trace(.|A_i) q^i has QRat coefficients, and
infinite-dimensional graded traces simply have non-polynomial ones.  Sums,
scalars and equality are SymFunc's own, the sign twist is omega, and a
Q-algebra map of q commutes with the factors 1/z_mu, so applying it to every
value is subs_coeffs.  frobenius_char is the one constructor from class
values and frobenius_inverse the one reader, chi(mu) = z_mu [p_mu] f.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .combinat import Partition, class_representatives, partition_from_subset, partitions_of, z_mu
from .errors import VerificationError
from .qrat import QPoly, QRat
from .symfunc import SymFunc


def frobenius_char(n: int, values: dict[Partition, QRat]) -> SymFunc:
    """ch(chi) = sum_mu chi(mu) p_mu / z_mu for the class values {mu: chi(mu)},
    exactly one per partition of n."""
    parts = partitions_of(n)
    if len(values) != len(parts) or any(mu not in values for mu in parts):
        raise ValueError(f"class function needs exactly one value per partition of {n}")
    return SymFunc("p", n, {mu: QRat.of(values[mu]) * Fraction(1, z_mu(mu)) for mu in parts})


def frobenius_inverse(f: SymFunc) -> dict[Partition, QRat]:
    """The class values chi(mu) = z_mu [p_mu] f, in partitions_of order."""
    g = f.in_basis("p")
    return {mu: g.coeff(mu) * z_mu(mu) for mu in partitions_of(f.n)}


def graded_class_function(n: int, series) -> SymFunc:
    """The character whose value on cycle type mu is the q-polynomial with
    coefficient list series(sigma), evaluated on every representative sigma
    of class_representatives(mu); representatives that disagree raise
    VerificationError."""
    values: dict[Partition, QRat] = {}
    for mu in partitions_of(n):
        first, *others = [series(sigma) for sigma in class_representatives(mu)]
        for other in others:
            if other != first:
                raise VerificationError(
                    f"class representatives of cycle type {mu} disagree: {first} vs {other}"
                )
        values[mu] = QRat(QPoly(first))
    return frobenius_char(n, values)


def trivial_character(n: int) -> SymFunc:
    return SymFunc.basis_element("h", (n,)).in_basis("p")


def sign_character(n: int) -> SymFunc:
    return SymFunc.basis_element("e", (n,)).in_basis("p")


def regular_character(n: int) -> SymFunc:
    return SymFunc.basis_element("p", (1,) * n)


def induced_young(I: tuple[int, ...], n: int, rep: str = "trivial") -> SymFunc:
    """Induction of the trivial or sign representation from the Young subgroup
    on the consecutive blocks cut by I: ch = h_(P(I)) or e_(P(I))."""
    if rep not in ("trivial", "sign"):
        raise ValueError(f"rep must be 'trivial' or 'sign', got {rep!r}")
    basis = "h" if rep == "trivial" else "e"
    return SymFunc.basis_element(basis, partition_from_subset(I, n)).in_basis("p")


def polynomial_algebra_series(n: int) -> SymFunc:
    """Graded trace of S_n on C[t_1..t_n]: prod over parts k of 1/(1 - q^k)."""
    values = {}
    for mu in partitions_of(n):
        acc = QRat.one()
        for k in mu:
            acc = acc / (QRat.one() - QRat.q() ** k)
        values[mu] = acc
    return frobenius_char(n, values)


def palindromicity_check(chi: SymFunc, shift: QRat, twist: bool, scale: QRat) -> bool:
    """Whether shift * chi(1/q) equals scale * chi (tensored with sign if twist),
    as exact rational functions."""
    rhs = chi.omega() if twist else chi
    return chi.subs_coeffs(lambda c: shift * c.subs_q_inverse()) == rhs.scale(scale)


def graded_dimension(chi: SymFunc) -> QRat:
    """The value at the identity class: n! [p_(1^n)] chi."""
    return chi.in_basis("p").coeff((1,) * chi.n) * factorial(chi.n)
