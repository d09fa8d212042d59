"""Sparse multivariate polynomials in variables t_1..t_n.

A polynomial is a dict mapping exponent tuples of fixed length to nonzero
coefficients; the empty dict is zero.  A coefficient is a Python int, a
Fraction, or an integer row vector (a NumPy object array of Python ints):
with vector coefficients the dict is a batch, column k of which is the
polynomial of the k-th entries, and every operation acts column by column.
Integer inputs give integer results.  Homogeneous degree pieces index their
monomials by the order of monomials(nvars, d), which is fixed (descending
lexicographic) so coordinate vectors are reproducible.  The moment-graph
classes of gkm are such coordinate vectors; the dicts serve the localization
pushforward, which divides its numerator by the linear forms t_i - t_j.

monomial_positions is the one locator of that order.  It reads an exponent
vector of degree d as a base-(d + 1) number, first variable most
significant.  No digit exceeds d, so distinct monomials get distinct keys
and descending lex order is descending key order: one searchsorted against
the keys of monomials(nvars, d) places any array of exponent rows.  The keys
are exact in int64 while (d + 1)^nvars < 2^63, which every size budget
keeps by far.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Union

from .lazynp import np

MPoly = dict[tuple[int, ...], Union[int, Fraction, "np.ndarray"]]


def _nonzero(c) -> bool:
    return np.count_nonzero(c) > 0 if isinstance(c, np.ndarray) else bool(c)


def _accumulate(out: MPoly, key: tuple[int, ...], c) -> None:
    """out[key] += c, an absent key reading as zero; a cancelled term is dropped."""
    s = out.get(key)
    s = c if s is None else s + c
    if _nonzero(s):
        out[key] = s
    else:
        out.pop(key, None)


def mp_var(nvars: int, i: int) -> MPoly:
    """t_i, 1-based."""
    exp = [0] * nvars
    exp[i - 1] = 1
    return {tuple(exp): 1}

def mp_add(a: MPoly, b: MPoly) -> MPoly:
    out = dict(a)
    for e, c in b.items():
        _accumulate(out, e, c)
    return out

def mp_neg(a: MPoly) -> MPoly:
    return {e: -c for e, c in a.items()}

def mp_sub(a: MPoly, b: MPoly) -> MPoly:
    return mp_add(a, mp_neg(b))

def mp_mul(a: MPoly, b: MPoly) -> MPoly:
    out: MPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            s = out.get(key)
            out[key] = ca * cb if s is None else s + ca * cb
    return {e: c for e, c in out.items() if _nonzero(c)}

def mp_is_zero(a: MPoly) -> bool:
    return not a

def mp_permute(a: MPoly, sigma: tuple[int, ...]) -> MPoly:
    """Relabel variables t_i -> t_sigma(i)."""
    out: MPoly = {}
    for e, c in a.items():
        e2 = [0] * len(e)
        for i, x in enumerate(e):
            e2[sigma[i] - 1] = x
        out[tuple(e2)] = c
    return out

def mp_divide_linear(a: MPoly, i: int, j: int) -> MPoly:
    """Exact quotient a / (t_i - t_j); raises if the division is not exact.

    Standard monomial division, eliminating the highest power of t_i first;
    every reduction step strictly lowers that power, so the loop terminates
    with remainder free of t_i, which must then be zero.  With vector
    coefficients the batch divides only if every column does.
    """
    quot: MPoly = {}
    rem = dict(a)
    while rem:
        e = max(rem, key=lambda exp: (exp[i - 1], exp))
        if e[i - 1] == 0:
            raise ValueError("polynomial is not divisible by the linear form")
        c = rem[e]
        e2 = list(e)
        e2[i - 1] -= 1
        lead = tuple(e2)
        _accumulate(quot, lead, c)
        # subtract c * t^lead * (t_i - t_j) from the remainder
        rem.pop(e)
        e3 = list(lead)
        e3[j - 1] += 1
        _accumulate(rem, tuple(e3), c)
    return quot


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of total degree `degree`, descending lexicographic."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in monomials(nvars - 1, degree - first))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_exponents(nvars: int, degree: int) -> np.ndarray:
    """monomials(nvars, degree) as a read-only int64 array, one row each."""
    out = np.array(monomials(nvars, degree), dtype=np.int64).reshape(-1, nvars)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _radix_keys(nvars: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The radix (d + 1)^(nvars - 1), ..., 1 and the negated, hence
    ascending, keys of monomials(nvars, degree)."""
    radix = (degree + 1) ** np.arange(nvars - 1, -1, -1, dtype=np.int64)
    return radix, -(monomial_exponents(nvars, degree) @ radix)


def monomial_positions(exps: np.ndarray, degree: int) -> np.ndarray:
    """Index in monomials(nvars, degree) of every exponent row of exps, an
    integer array of shape (..., nvars); raises unless each row is a
    monomial of that degree."""
    exps = np.asarray(exps, dtype=np.int64)
    if (exps < 0).any() or (exps.sum(axis=-1) != degree).any():
        raise ValueError(f"exponent rows are not monomials of degree {degree}")
    radix, ascending = _radix_keys(exps.shape[-1], degree)
    return np.searchsorted(ascending, -(exps @ radix))

