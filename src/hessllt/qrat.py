"""Exact polynomial and rational-function arithmetic in one grading variable q.

All coefficients are arbitrary-precision rationals (fractions.Fraction);
nothing in this package touches floating point.  A QPoly is a dense tuple
of coefficients indexed by the power of q, with trailing zeros stripped,
so the zero polynomial is the empty tuple and its degree is None rather
than a number.  A QRat is a quotient of two QPoly values kept in canonical
form:

    gcd(numerator, denominator) = 1 and the denominator is monic.

Equality and hashing are therefore structural.  Every QRat is built by the
constructor QRat(num, den), which converts every coefficient and cancels by
a full Euclid gcd; QPoly.gcd returns 1 at once when either operand is a
nonzero constant, so a polynomial value costs no Euclid loop.  The checks of
the package compare polynomials only: an identity with a rational function
of q is compared with its denominators cleared.  A sum over a shared
denominator, a/b + c/b = (a + c)/b, forms no product of denominators, and a
scalar multiple scales the numerator alone.  A float is refused with
TypeError (0.1 would enter as 3602879701896397/36028797018963968).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import PoleError

Scalar = Union[int, Fraction]
RatLike = Union["QRat", "QPoly", int, Fraction]


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _exact(c: Scalar) -> Fraction:
    if isinstance(c, float):  # numpy.floating subclasses float
        raise TypeError(f"float {c!r} in exact arithmetic; pass an int or Fraction")
    return Fraction(c)


def _poly(coeffs: list[Fraction]) -> QPoly:
    """QPoly from a list of Fractions: strips trailing zeros, no conversion."""
    p = QPoly.__new__(QPoly)
    p.coeffs = _strip(coeffs)
    return p


class QPoly:
    """Dense univariate polynomial in q over Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        self.coeffs: tuple[Fraction, ...] = _strip([_exact(c) for c in coeffs])

    @staticmethod
    def zero() -> QPoly:
        return QPoly()

    @staticmethod
    def one() -> QPoly:
        return _poly([Fraction(1)])

    @staticmethod
    def q() -> QPoly:
        return QPoly([0, 1])

    @staticmethod
    def monomial(k: int, c: Scalar = 1) -> QPoly:
        """c * q^k with k >= 0."""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return QPoly([0] * k + [c])

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

    def __add__(self, other: QPoly) -> QPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    def __neg__(self) -> QPoly:
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other: QPoly) -> QPoly:
        return self + (-other)

    def __mul__(self, other: QPoly) -> QPoly:
        if not self.coeffs or not other.coeffs:
            return QPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return _poly(out)

    def scale(self, c: Scalar) -> QPoly:
        c = _exact(c)
        return _poly([a * c for a in self.coeffs])

    def __pow__(self, k: int) -> QPoly:
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out, base = QPoly.one(), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: QPoly) -> tuple[QPoly, QPoly]:
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
        return _poly(quot), _poly(rem)

    def monic(self) -> QPoly:
        if self.is_zero():
            return self
        lead = self.leading()
        return _poly([c / lead for c in self.coeffs])

    def gcd(self, other: QPoly) -> QPoly:
        """Monic greatest common divisor."""
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            return QPoly.one()  # a nonzero constant divides everything
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def evaluate(self, point: Scalar) -> Fraction:
        point = _exact(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose_power(self, k: int) -> QPoly:
        """Substitute q -> q^k for k >= 1."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        out = [Fraction(0)] * (k * len(self.coeffs) or 1)
        for i, c in enumerate(self.coeffs):
            out[k * i] = c
        return _poly(out)

    def compose_shift(self, c: Scalar) -> QPoly:
        """Substitute q -> q + c."""
        shift = _poly([_exact(c), Fraction(1)])
        acc = QPoly()
        for a in reversed(self.coeffs):
            acc = acc * shift + _poly([a])
        return acc

    def reversed_to(self, deg: int) -> QPoly:
        """q^deg * p(1/q), valid when deg >= degree of p."""
        if self.is_zero():
            return self
        if deg < len(self.coeffs) - 1:
            raise ValueError("reversal degree below polynomial degree")
        out = [Fraction(0)] * (deg + 1)
        for i, c in enumerate(self.coeffs):
            out[deg - i] = c
        return _poly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({format_poly(self)})"


def format_poly(p: QPoly) -> str:
    """Human form with decreasing powers, e.g. 'q^2 + 2*q - 1/2'."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = abs(c)
            var = "q" if k == 1 else f"q^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _exquo(p: QPoly, g: QPoly) -> QPoly:
    """p / g for a monic divisor g of p."""
    return p if len(g.coeffs) == 1 else p.divmod(g)[0]


class QRat:
    """Reduced quotient of two QPoly values with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly | Iterable[Scalar] = (), den: QPoly | Iterable[Scalar] = (1,)):
        if not isinstance(num, QPoly):
            num = QPoly(num)
        if not isinstance(den, QPoly):
            den = QPoly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = QPoly(), QPoly.one()
            return
        g = num.gcd(den)
        num, den = _exquo(num, g), _exquo(den, g)
        lead = den.leading()
        if lead != 1:
            num = num.scale(Fraction(1) / lead)
            den = den.scale(Fraction(1) / lead)
        self.num, self.den = num, den

    @staticmethod
    def zero() -> QRat:
        return QRat()

    @staticmethod
    def one() -> QRat:
        return QRat((1,))

    @staticmethod
    def q() -> QRat:
        return QRat((0, 1))

    @staticmethod
    def of(value: RatLike) -> QRat:
        if isinstance(value, QRat):
            return value
        if isinstance(value, QPoly):
            return QRat(value)
        return QRat((value,))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.coeffs == (1,)

    def as_poly(self) -> QPoly:
        if not self.is_polynomial():
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def __add__(self, other: RatLike) -> QRat:
        o = QRat.of(other)
        if o.den == self.den:
            return QRat(self.num + o.num, self.den)
        return QRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> QRat:
        return QRat(-self.num, self.den)

    def __sub__(self, other: RatLike) -> QRat:
        return self + (-QRat.of(other))

    def __rsub__(self, other: RatLike) -> QRat:
        return QRat.of(other) + (-self)

    def __mul__(self, other: RatLike) -> QRat:
        if isinstance(other, (int, Fraction)):
            return QRat(self.num.scale(other), self.den)
        o = QRat.of(other)
        return QRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> QRat:
        """self ** k for k >= 0."""
        return QRat(self.num ** k, self.den ** k)

    def subs_q_power(self, k: int) -> QRat:
        """Substitute q -> q^k, k >= 1."""
        return QRat(self.num.compose_power(k), self.den.compose_power(k))

    def subs_q_shift(self, c: Scalar) -> QRat:
        """Substitute q -> q + c."""
        return QRat(self.num.compose_shift(c), self.den.compose_shift(c))

    def subs_q_plus_one(self) -> QRat:
        return self.subs_q_shift(1)

    def evaluate(self, point: Scalar) -> Fraction:
        """Value at a rational point; the canonical form makes poles genuine."""
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleError(f"pole at q = {Fraction(point)}")
        return self.num.evaluate(point) / dv

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, QPoly)):
            other = QRat.of(other)
        return (
            isinstance(other, QRat)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num.coeffs, self.den.coeffs))

    def to_string(self) -> str:
        """Canonical serialization '(num)/(den)' with integer coefficients.

        Both polynomials are scaled by the same positive rational so that all
        printed coefficients are integers with overall gcd 1 and the
        denominator's leading coefficient is positive.
        """
        if self.is_zero():
            return "(0)/(1)"
        coeffs = self.num.coeffs + self.den.coeffs
        lcm = math.lcm(*(c.denominator for c in coeffs))
        scale = Fraction(lcm, math.gcd(*(int(c * lcm) for c in coeffs)))
        num = self.num.scale(scale)
        den = self.den.scale(scale)
        if den.leading() < 0:
            num, den = num.scale(-1), den.scale(-1)
        return f"({format_poly(num)})/({format_poly(den)})"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"QRat{self.to_string()}"
