"""Symmetric functions of a fixed homogeneous degree with exact coefficients.

A SymFunc stores a degree n, a basis name among m, e, h, p, s, and a sparse
mapping from partitions of n to QRat coefficients.  The power sum basis is
the internal pivot: every conversion goes through p using transition tables
built once per degree, each from a closed form, so no table is inverted
(Macdonald, Symmetric Functions and Hall Polynomials, ch. I):

* h to p by the Newton recursion k h_k = sum_i p_i h_(k-i), and p to h by
  the same identity solved for p_k = k h_k - sum_(i<k) h_(k-i) p_i;
* e from h by the involution omega, which maps h_lam to e_lam and p_mu to
  (-1)^(n - l(mu)) p_mu;
* s from the character table of S_n, computed by the Murnaghan-Nakayama
  border strip recursion: p_mu = sum_lam chi^lam(mu) s_lam, and
  s_lam = sum_mu chi^lam(mu) p_mu / z_mu;
* m as the Hall dual of h: <h_lam, m_mu> = delta and <p_lam, p_mu> =
  z_lam delta, so [m_lam] p_mu = z_mu [p_mu] h_lam and
  [p_mu] m_lam = [h_lam] p_mu / z_mu.

Tables exist for degrees up to 8; building them is idempotent and guarded by
a lock so concurrent callers see a single shared copy.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from .combinat import (
    Partition,
    partitions_of,
    sort_to_partition,
    z_mu,
)
from .errors import BudgetExceededError
from .qrat import QPoly, QRat

TABLE_BUDGET = 8

BASES = ("m", "e", "h", "p", "s")

# expansions in the p or h basis with Fraction coefficients, used while building tables
PDict = dict[Partition, Fraction]


def _pdict_mul(a: PDict, b: PDict) -> PDict:
    out: PDict = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            key = sort_to_partition(pa + pb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _h_in_p(k: int) -> tuple[tuple[Partition, Fraction], ...]:
    """h_k in the p basis via k*h_k = sum_i p_i h_(k-i)."""
    if k == 0:
        return (((), Fraction(1)),)
    out: PDict = {}
    for i in range(1, k + 1):
        for part, c in _h_in_p(k - i):
            key = sort_to_partition(part + (i,))
            out[key] = out.get(key, Fraction(0)) + c / k
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _p_in_h(k: int) -> tuple[tuple[Partition, Fraction], ...]:
    """p_k in the h basis via Newton's p_k = k*h_k - sum_(i<k) h_(k-i) p_i."""
    out: PDict = {(k,): Fraction(k)}
    for i in range(1, k):
        for part, c in _p_in_h(i):
            key = sort_to_partition(part + (k - i,))
            out[key] = out.get(key, Fraction(0)) - c
    return tuple(sorted(out.items()))


def _beta_set(lam: Partition, rows: int) -> tuple[int, ...]:
    return tuple((lam[i] if i < len(lam) else 0) + rows - 1 - i for i in range(rows))


def _partition_from_beta(beta: frozenset[int]) -> Partition:
    desc = sorted(beta, reverse=True)
    lam = tuple(b - (len(desc) - 1 - i) for i, b in enumerate(desc))
    return tuple(p for p in lam if p > 0)


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam: Partition, mu: Partition) -> int:
    """Irreducible character value chi^lam on the class mu, |lam| = |mu|."""
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    rows = max(len(lam), 1)
    beta = frozenset(_beta_set(lam, rows))
    total = 0
    for b in beta:
        if b >= k and (b - k) not in beta:
            height = sum(1 for c in beta if b - k < c < b)
            lam2 = _partition_from_beta(beta - {b} | {b - k})
            term = murnaghan_nakayama(lam2, rest)
            total += -term if height % 2 else term
    return total


def _product_expansions(parts: tuple[Partition, ...], single) -> list[list[Fraction]]:
    """Column j lists the coefficients of prod_k single(lam_k) over parts, lam = parts[j]."""
    cols = []
    for lam in parts:
        acc: PDict = {(): Fraction(1)}
        for part in lam:
            acc = _pdict_mul(acc, dict(single(part)))
        cols.append([acc.get(mu, Fraction(0)) for mu in parts])
    return cols


class _Tables:
    """Per-degree transition matrices with the p basis as pivot.

    to_p[b][i][j] is the coefficient of p_(parts[i]) in b_(parts[j]), and
    from_p[b][i][j] that of b_(parts[i]) in p_(parts[j]).  No table is
    inverted: each comes from a closed form (see the module docstring).
    """

    def __init__(self, n: int):
        self.parts = parts = partitions_of(n)
        h_cols = _product_expansions(parts, _h_in_p)  # h_cols[j][i] = [p_mu_i] h_lam_j
        p_cols = _product_expansions(parts, _p_in_h)  # p_cols[j][i] = [h_lam_i] p_mu_j
        to_h = [list(row) for row in zip(*h_cols)]
        from_h = [list(row) for row in zip(*p_cols)]
        sign = [(-1) ** (n - len(mu)) for mu in parts]
        z = [z_mu(mu) for mu in parts]
        chi = [[murnaghan_nakayama(lam, mu) for mu in parts] for lam in parts]
        self.to_p: dict[str, list[list[Fraction]]] = {
            "h": to_h,
            "e": [[sign[i] * c for c in row] for i, row in enumerate(to_h)],
            "s": [[Fraction(c, z[i]) for c in row] for i, row in enumerate(zip(*chi))],
            "m": [[c / z[i] for c in row] for i, row in enumerate(p_cols)],
        }
        self.from_p: dict[str, list[list[Fraction]]] = {
            "h": from_h,
            "e": [[sign[j] * c for j, c in enumerate(row)] for row in from_h],
            "s": [[Fraction(c) for c in row] for row in chi],
            "m": [[z[j] * c for j, c in enumerate(row)] for row in h_cols],
        }


_TABLE_CACHE: dict[int, _Tables] = {}
_TABLE_LOCK = threading.Lock()


def tables(n: int) -> _Tables:
    if not 0 <= n <= TABLE_BUDGET:
        raise BudgetExceededError(f"basis tables support degrees up to {TABLE_BUDGET}, got {n}")
    tab = _TABLE_CACHE.get(n)
    if tab is None:
        with _TABLE_LOCK:
            tab = _TABLE_CACHE.get(n)
            if tab is None:
                tab = _Tables(n)
                _TABLE_CACHE[n] = tab
    return tab


def _apply(mat: list[list[Fraction]], vec: list[QRat]) -> list[QRat]:
    out = []
    for row in mat:
        acc = QRat.zero()
        for c, v in zip(row, vec):
            if c and not v.is_zero():
                acc = acc + v * c
        out.append(acc)
    return out


class SymFunc:
    """Homogeneous symmetric function of degree n in one of the bases m,e,h,p,s."""

    __slots__ = ("basis", "n", "coeffs")

    def __init__(self, basis: str, n: int, coeffs: dict[Partition, QRat]):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        for part in coeffs:
            if sum(part) != n:
                raise ValueError(f"partition {part} has size != {n}")
        self.basis = basis
        self.n = n
        self.coeffs = {p: c for p, c in coeffs.items() if not c.is_zero()}

    @staticmethod
    def zero(n: int, basis: str = "m") -> SymFunc:
        return SymFunc(basis, n, {})

    @staticmethod
    def basis_element(basis: str, lam: Partition) -> SymFunc:
        lam = tuple(lam)
        return SymFunc(basis, sum(lam), {lam: QRat.one()})

    @staticmethod
    def from_q_table(basis: str, n: int, table: dict[Partition, QPoly]) -> SymFunc:
        return SymFunc(basis, n, {p: QRat(c) for p, c in table.items()})

    def _vector(self) -> list[QRat]:
        parts = partitions_of(self.n)
        return [self.coeffs.get(p, QRat.zero()) for p in parts]

    def in_basis(self, basis: str) -> SymFunc:
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if basis == self.basis:
            return self
        tab = tables(self.n)
        vec = self._vector()
        if self.basis != "p":
            vec = _apply(tab.to_p[self.basis], vec)
        if basis != "p":
            vec = _apply(tab.from_p[basis], vec)
        return SymFunc(basis, self.n, dict(zip(tab.parts, vec)))

    def coeff(self, lam: Partition) -> QRat:
        return self.coeffs.get(tuple(lam), QRat.zero())

    def __add__(self, other: SymFunc) -> SymFunc:
        if self.n != other.n:
            raise ValueError("cannot add symmetric functions of different degree")
        o = other.in_basis(self.basis)
        out = dict(self.coeffs)
        for p, c in o.coeffs.items():
            out[p] = out.get(p, QRat.zero()) + c
        return SymFunc(self.basis, self.n, out)

    def __neg__(self) -> SymFunc:
        return SymFunc(self.basis, self.n, {p: -c for p, c in self.coeffs.items()})

    def __sub__(self, other: SymFunc) -> SymFunc:
        return self + (-other)

    def scale(self, c) -> SymFunc:
        c = QRat.of(c)
        return SymFunc(self.basis, self.n, {p: v * c for p, v in self.coeffs.items()})

    def omega(self) -> SymFunc:
        """The involution fixing p_k up to sign: p_lam -> (-1)^(n-l(lam)) p_lam."""
        f = self.in_basis("p")
        out = {}
        for p, c in f.coeffs.items():
            out[p] = c if (self.n - len(p)) % 2 == 0 else -c
        return SymFunc("p", self.n, out).in_basis(self.basis)

    def plethysm_scale(self, a: QRat) -> SymFunc:
        """Substitute Z -> a(q) Z, acting on p_k by the factor a(q^k)."""
        f = self.in_basis("p")
        out = {}
        for lam, c in f.coeffs.items():
            factor = QRat.one()
            for k in lam:
                factor = factor * a.subs_q_power(k)
            out[lam] = c * factor
        return SymFunc("p", self.n, out)

    def subs_coeffs(self, fn) -> SymFunc:
        """Apply a QRat -> QRat map to every coefficient."""
        return SymFunc(self.basis, self.n, {p: fn(c) for p, c in self.coeffs.items()})

    def is_e_positive_shifted(self) -> tuple[bool, dict[Partition, QPoly]]:
        """Shift q -> q+1 in the e expansion and test coefficient nonnegativity.

        Returns (verdict, shifted e expansion); raises if some e coefficient
        is not a polynomial in q.
        """
        f = self.in_basis("e")
        shifted: dict[Partition, QPoly] = {}
        ok = True
        for lam, c in f.coeffs.items():
            poly = c.as_poly().compose_shift(1)
            shifted[lam] = poly
            if any(a < 0 for a in poly.coeffs):
                ok = False
        return ok, shifted

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.in_basis("p").coeffs == other.in_basis("p").coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"SymFunc<{self.basis},{self.n}> 0"
        body = " + ".join(
            f"({c}){self.basis}_{''.join(map(str, p)) or '0'}"
            for p, c in sorted(self.coeffs.items(), reverse=True)
        )
        return f"SymFunc<{self.basis},{self.n}> {body}"

    def terms(self) -> list[tuple[Partition, QRat]]:
        """The nonzero terms in the order of partitions_of, which every
        output format follows."""
        return [(p, self.coeffs[p]) for p in partitions_of(self.n) if p in self.coeffs]

    def to_json_obj(self) -> dict:
        return {
            "basis": self.basis,
            "n": self.n,
            "terms": [{"partition": list(p), "coeff": c.to_string()} for p, c in self.terms()],
        }

    def to_latex(self) -> str:
        """LaTeX fragment like '(q + 1) e_{2} + e_{11}'."""
        if not self.coeffs:
            return "0"
        chunks = []
        for p, c in self.terms():
            sub = ",".join(map(str, p)) if any(x >= 10 for x in p) else "".join(map(str, p))
            if c == QRat.one():
                coeff = ""
            else:
                num, den = c.string_parts()
                coeff = f"({num})" if den == "1" else f"\\frac{{{num}}}{{{den}}}"
            chunks.append(f"{coeff}{self.basis}_{{{sub or '0'}}}")
        return " + ".join(chunks)

