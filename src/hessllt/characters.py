"""Class functions on S_n with values in exact rational functions of q.

A ClassFunction holds one QRat value per cycle type, so a graded character
R(A;q) = sum_i trace(.|A_i) q^i and a plain character are the same object;
infinite-dimensional graded traces simply have non-polynomial values.  The
Frobenius characteristic maps class functions to symmetric functions in the
p basis by ch(chi) = sum_mu chi(mu) p_mu / z_mu, and its inverse reads
chi(mu) = z_mu [p_mu] f.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .combinat import (
    Partition,
    all_permutations,
    class_representative,
    class_representatives,
    compose,
    cycle_type,
    inverse,
    partitions_of,
    partition_from_subset,
    sgn_of_class,
    young_subgroup_contains,
    young_subgroup_order,
    z_mu,
)
from .errors import VerificationError
from .qrat import QPoly, QRat
from .symfunc import SymFunc


class ClassFunction:
    """Map from cycle types (partitions of n) to QRat values."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict[Partition, QRat]):
        parts = partitions_of(n)
        missing = [p for p in parts if p not in values]
        extra = [p for p in values if p not in set(parts)]
        if missing or extra:
            raise ValueError(f"class function needs exactly one value per partition of {n}")
        self.n = n
        self.values = {p: QRat.of(values[p]) for p in parts}

    @staticmethod
    def constant(n: int, c: QRat) -> ClassFunction:
        return ClassFunction(n, {p: c for p in partitions_of(n)})

    def __call__(self, mu: Partition) -> QRat:
        return self.values[tuple(mu)]

    def __add__(self, other: ClassFunction) -> ClassFunction:
        self._check(other)
        return ClassFunction(self.n, {p: v + other.values[p] for p, v in self.values.items()})

    def __sub__(self, other: ClassFunction) -> ClassFunction:
        self._check(other)
        return ClassFunction(self.n, {p: v - other.values[p] for p, v in self.values.items()})

    def __mul__(self, other: ClassFunction) -> ClassFunction:
        """Pointwise product: the character of a tensor product."""
        self._check(other)
        return ClassFunction(self.n, {p: v * other.values[p] for p, v in self.values.items()})

    def scale(self, c) -> ClassFunction:
        c = QRat.of(c)
        return ClassFunction(self.n, {p: v * c for p, v in self.values.items()})

    def tensor_sign(self) -> ClassFunction:
        """Multiply the value on each class mu by (-1)^(n - l(mu))."""
        return ClassFunction(
            self.n,
            {p: v if sgn_of_class(p) == 1 else -v for p, v in self.values.items()},
        )

    def subs_values(self, fn) -> ClassFunction:
        return ClassFunction(self.n, {p: fn(v) for p, v in self.values.items()})

    def _check(self, other: ClassFunction) -> None:
        if self.n != other.n:
            raise ValueError("class functions live on different symmetric groups")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.n == other.n
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.values.items()))))

    def __repr__(self) -> str:
        body = ", ".join(f"{p}: {v}" for p, v in self.values.items())
        return f"ClassFunction<{self.n}>({body})"

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "classes": [
                {"type": list(p), "value": v.to_string()}
                for p, v in self.values.items()
            ],
        }


def graded_class_function(n: int, series) -> ClassFunction:
    """The class function whose value on cycle type mu is the q-polynomial
    with coefficient list series(sigma), evaluated on every representative
    sigma of class_representatives(mu); representatives that disagree raise
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
    return ClassFunction(n, values)


def frobenius_char(chi: ClassFunction) -> SymFunc:
    """ch(chi) = sum_mu chi(mu) p_mu / z_mu."""
    out = {mu: v * Fraction(1, z_mu(mu)) for mu, v in chi.values.items()}
    return SymFunc("p", chi.n, out)


def frobenius_inverse(f: SymFunc) -> ClassFunction:
    """chi(mu) = z_mu times the p_mu coefficient of f."""
    g = f.in_basis("p")
    return ClassFunction(f.n, {mu: g.coeff(mu) * z_mu(mu) for mu in partitions_of(f.n)})


def trivial_character(n: int) -> ClassFunction:
    return ClassFunction.constant(n, QRat.one())


def sign_character(n: int) -> ClassFunction:
    return trivial_character(n).tensor_sign()


def regular_character(n: int) -> ClassFunction:
    vals = {mu: QRat.of(math.factorial(n)) if len(mu) == n else QRat.zero()
            for mu in partitions_of(n)}
    return ClassFunction(n, vals)


def induced_young(I: tuple[int, ...], n: int, rep: str = "trivial") -> ClassFunction:
    """Induction of the trivial or sign representation from the Young subgroup
    on the consecutive blocks cut by I, via ch = h_(P(I)) or e_(P(I))."""
    lam = partition_from_subset(I, n)
    if rep == "trivial":
        f = SymFunc.basis_element("h", lam)
    elif rep == "sign":
        f = SymFunc.basis_element("e", lam)
    else:
        raise ValueError(f"rep must be 'trivial' or 'sign', got {rep!r}")
    return frobenius_inverse(f)


def induced_young_bruteforce(I: tuple[int, ...], n: int, rep: str = "trivial") -> ClassFunction:
    """Independent oracle: element-wise induced character by coset sums,
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
    return ClassFunction(n, values)


def polynomial_algebra_series(n: int) -> ClassFunction:
    """Graded trace of S_n on C[t_1..t_n]: prod over parts k of 1/(1 - q^k)."""
    values = {}
    for mu in partitions_of(n):
        acc = QRat.one()
        for k in mu:
            acc = acc / (QRat.one() - QRat.q() ** k)
        values[mu] = acc
    return ClassFunction(n, values)


def palindromicity_check(chi: ClassFunction, shift: QRat, twist: bool, scale: QRat) -> bool:
    """Whether shift * chi(1/q) equals scale * chi (tensored with sign if twist),
    classwise as exact rational functions."""
    rhs = chi.tensor_sign() if twist else chi
    for mu in partitions_of(chi.n):
        left = shift * chi.values[mu].subs_q_inverse()
        right = scale * rhs.values[mu]
        if left != right:
            return False
    return True


def graded_dimension(chi: ClassFunction) -> QRat:
    """Value at the identity class (1^n)."""
    return chi.values[(1,) * chi.n if chi.n else ()]
