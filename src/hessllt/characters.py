"""Characters of S_n, stored as their Frobenius images.

A class function chi, graded or not, is the p-basis SymFunc
ch(chi) = sum_mu chi(mu) p_mu / z_mu (Macdonald, ch. I §7).  A graded
character R(A;q) = sum_i trace(.|A_i) q^i of a finite-dimensional graded
module has polynomial coefficients, and every check compares polynomials:
an identity with a rational function of q, such as the character of a
polynomial ring, is compared with its denominators cleared.  Sums,
scalars and equality are SymFunc's own, the sign twist is omega, and a
Q-algebra map of q commutes with the factors 1/z_mu, so applying it to every
value is subs_coeffs.  frobenius_char is the one constructor from class
values and frobenius_inverse the one reader, chi(mu) = z_mu [p_mu] f.

The irreducible representations are Young's seminormal form (James-Kerber
1981, Okounkov-Vershik 1996): Fraction matrices on the standard tableaux,
checked against the Coxeter relations and murnaghan_nakayama.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinat import (Partition, Permutation, class_representative, class_representatives,
                       partition_from_subset, partitions_of, z_mu)
from .errors import VerificationError
from .qrat import QPoly, QRat
from .symfunc import SymFunc, murnaghan_nakayama


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


def palindromicity_check(chi: SymFunc, degree: int, twist: bool) -> bool:
    """Whether q^degree chi(1/q) equals chi, or omega chi if twist: each
    coefficient, a polynomial in q, is reversed to degree.  A coefficient of
    degree above `degree` has no polynomial reversal, and the check is False."""
    polys = {mu: c.as_poly() for mu, c in chi.coeffs.items()}
    if any(p.degree > degree for p in polys.values()):
        return False
    reversal = {mu: p.reversed_to(degree) for mu, p in polys.items()}
    return SymFunc.from_q_table(chi.basis, chi.n, reversal) == (chi.omega() if twist else chi)


def graded_dimension(chi: SymFunc) -> QRat:
    """The value at the identity class: n! [p_(1^n)] chi."""
    return chi.in_basis("p").coeff((1,) * chi.n) * factorial(chi.n)


# ------------------------------------------------- Young's seminormal form


@lru_cache(maxsize=None)
def standard_tableaux(lam: Partition) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The standard tableaux of shape lam, as the (row, column) cells of 1, ..., n."""
    out = []
    for r, part in enumerate(lam):
        if r + 1 == len(lam) or lam[r + 1] < part:  # n sits at the corner of row r
            rest = tuple(x for x in lam[:r] + (part - 1,) + lam[r + 1:] if x)
            out += [t + ((r, part - 1),) for t in standard_tableaux(rest)]
    return tuple(out) if lam else ((),)


def _matmul(a, b):
    """The product of two matrices given as tuples of rows."""
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)) for row in a)


def word_product(mats, w: Permutation) -> tuple:
    """rho(w) from rho(s_k) = mats[k - 1], along the reduced word that sorts
    the descents of w away (w = (w s_k) s_k)."""
    f = len(mats[0]) if mats else 1
    out, w = tuple(tuple(Fraction(int(i == j)) for j in range(f)) for i in range(f)), list(w)
    while k := next((k for k in range(1, len(w)) if w[k - 1] > w[k]), 0):
        w[k - 1], w[k] = w[k], w[k - 1]
        out = _matmul(mats[k - 1], out)
    return out


def check_seminormal(lam: Partition, mats) -> None:
    """Raise VerificationError unless s_k^2 = 1, the braid relations hold and
    tr rho(w) = chi^lam(w) on every class representative: then mats define
    the irreducible representation of character chi^lam."""
    one = word_product(mats, ())
    for k, s in enumerate(mats, start=1):
        if _matmul(s, s) != one:
            raise VerificationError(f"seminormal form of {lam}: s_{k}^2 is not 1")
        for l, t in enumerate(mats[k:], start=k + 1):
            st, ts = _matmul(s, t), _matmul(t, s)
            if (_matmul(st, s) != _matmul(ts, t)) if l == k + 1 else (st != ts):
                raise VerificationError(f"seminormal form of {lam}: s_{k}, s_{l} break a braid relation")
    for mu in partitions_of(sum(lam)):
        rho = word_product(mats, class_representative(mu))
        if sum(rho[i][i] for i in range(len(rho))) != murnaghan_nakayama(lam, mu):
            raise VerificationError(f"seminormal form of {lam}: trace on class {mu} is not chi^lam")


@lru_cache(maxsize=None)
def seminormal_matrices(lam: Partition) -> tuple:
    """rho_lam(s_k), k = 1..n-1, on standard_tableaux(lam), as row tuples,
    checked by check_seminormal.  With r = c(k + 1) - c(k) in T (contents
    c = column - row), s_k sends T to T / r plus, when T' = s_k T is
    standard, the multiple of T' that is 1 if k sits in a higher row than
    k + 1 in T and 1 - 1/r^2 otherwise."""
    tabs = standard_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    mats = []
    for k in range(1, sum(lam)):
        m = [[Fraction(0)] * len(tabs) for _ in tabs]
        for i, t in enumerate(tabs):
            (r1, c1), (r2, c2) = t[k - 1], t[k]
            r = (c2 - r2) - (c1 - r1)
            m[i][i] = Fraction(1, r)
            if abs(r) > 1:
                other = index[t[:k - 1] + (t[k], t[k - 1]) + t[k + 1:]]
                m[other][i] = Fraction(1) if r1 < r2 else 1 - Fraction(1, r * r)
        mats.append(tuple(map(tuple, m)))
    check_seminormal(lam, tuple(mats))
    return tuple(mats)
