"""Exact polynomial and rational-function arithmetic in one grading variable q.

All coefficients are exact rationals; nothing in this package touches
floating point.  A QPoly holds integers over one shared denominator: num is
a dense tuple of Python ints indexed by the power of q, with trailing zeros
stripped, and den is a positive int.  Its canonical form is
gcd(den, *num) = 1, and the zero polynomial is ((), 1), whose degree is None
rather than a number.  The one normalizer _make enforces that form, so
equality and hashing are structural, and every operation works in ints: a
sum aligns the two denominators by their lcm, a product convolves the
numerators and multiplies the denominators.  One denominator per polynomial
is enough, as the p-basis coefficients have denominators dividing z_mu
(Macdonald, Symmetric Functions and Hall Polynomials, ch. I).  The read-only
view QPoly.coeffs gives the coefficients as Fractions, and so does coeff.
A QRat is a quotient of two QPoly values kept in canonical form:

    gcd(numerator, denominator) = 1 and the denominator is monic.

Equality and hashing are therefore structural.  Every QRat is built by the
constructor QRat(num, den), which cancels by a full Euclid gcd; QPoly.gcd
returns 1 at once when either operand is a nonzero constant, so a polynomial
value costs no Euclid loop.  That loop (divmod and the non-constant branch
of gcd) works on the Fraction view, and no report reaches it.  The checks
of the package compare polynomials only: an identity with a rational
function of q is compared with its denominators cleared.  A sum over a
shared denominator, a/b + c/b = (a + c)/b, forms no product of
denominators, and a scalar multiple scales the numerator alone.  A float is
refused with TypeError (0.1 would enter as 3602879701896397/36028797018963968).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import PoleError

Scalar = Union[int, Fraction]
RatLike = Union["QRat", "QPoly", int, Fraction]


def _exact(c: Scalar) -> Fraction:
    if isinstance(c, float):  # numpy.floating subclasses float
        raise TypeError(f"float {c!r} in exact arithmetic; pass an int or Fraction")
    return Fraction(c)


def _make(num: list[int], den: int) -> QPoly:
    """The canonical QPoly num/den: no trailing zero, den > 0 and
    gcd(den, *num) = 1.  den is a nonzero int."""
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num, den = [a // g for a in num], den // g
    p = QPoly.__new__(QPoly)
    p.num, p.den = tuple(num), den
    return p


class QPoly:
    """Dense univariate polynomial in q: integer numerators over one positive
    denominator."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        coeffs = list(coeffs)
        if all(type(c) is int for c in coeffs):
            p = _make(coeffs, 1)
        else:
            fracs = [_exact(c) for c in coeffs]
            den = math.lcm(*(f.denominator for f in fracs))
            p = _make([f.numerator * (den // f.denominator) for f in fracs], den)
        self.num, self.den = p.num, p.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, indexed by the power of q."""
        return tuple(Fraction(a, self.den) for a in self.num)

    @staticmethod
    def zero() -> QPoly:
        return _make([], 1)

    @staticmethod
    def one() -> QPoly:
        return _make([1], 1)

    @staticmethod
    def q() -> QPoly:
        return _make([0, 1], 1)

    @staticmethod
    def monomial(k: int, c: Scalar = 1) -> QPoly:
        """c * q^k with k >= 0."""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return QPoly([0] * k + [c])

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (never a valid index)."""
        return len(self.num) - 1 if self.num else None

    def is_zero(self) -> bool:
        return not self.num

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    def __add__(self, other: QPoly) -> QPoly:
        a, b, den = self.num, other.num, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            a = [x * (den // self.den) for x in a]
            b = [x * (den // other.den) for x in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _make(out, den)

    def __neg__(self) -> QPoly:
        return _make([-a for a in self.num], self.den)

    def __sub__(self, other: QPoly) -> QPoly:
        return self + (-other)

    def __mul__(self, other: QPoly) -> QPoly:
        if not self.num or not other.num:
            return QPoly.zero()
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    out[i + j] += a * b
        return _make(out, self.den * other.den)

    def scale(self, c: Scalar) -> QPoly:
        c = _exact(c)
        return _make([a * c.numerator for a in self.num], self.den * c.denominator)

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
        """Exact polynomial division with remainder, on the Fraction view."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, div = list(self.coeffs), other.coeffs
        dd, dq = len(div) - 1, div[-1]
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i] / dq
            if c:
                quot[i - dd] = c
                for j, b in enumerate(div):
                    rem[i - dd + j] -= c * b
        return QPoly(quot), QPoly(rem)

    def monic(self) -> QPoly:
        return _make(list(self.num), self.num[-1]) if self.num else self

    def gcd(self, other: QPoly) -> QPoly:
        """Monic greatest common divisor."""
        if len(self.num) == 1 or len(other.num) == 1:
            return QPoly.one()  # a nonzero constant divides everything
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def evaluate(self, point: Scalar) -> Fraction:
        """Horner in ints at point = r/s, with one Fraction at the end."""
        point = _exact(point)
        r, s = point.numerator, point.denominator
        acc, sk = 0, 1
        for a in reversed(self.num):
            acc = acc * r + a * sk
            sk *= s
        return Fraction(acc * s, self.den * sk)

    def compose_power(self, k: int) -> QPoly:
        """Substitute q -> q^k for k >= 1."""
        if k < 1:
            raise ValueError("power substitution needs k >= 1")
        out = [0] * (k * len(self.num) - k + 1)
        out[::k] = self.num
        return _make(out, self.den)

    def compose_shift(self, c: Scalar) -> QPoly:
        """Substitute q -> q + c.  For c = r/s the integer Taylor shift by r
        of s^d p(y/s), at y = s q, is s^d p(q + c)."""
        if not self.num:
            return self
        c = _exact(c)
        r, s = c.numerator, c.denominator
        d = len(self.num) - 1
        out = [a * s ** (d - i) for i, a in enumerate(self.num)]
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                out[j] += r * out[j + 1]
        return _make([b * s**i for i, b in enumerate(out)], self.den * s**d)

    def reversed_to(self, deg: int) -> QPoly:
        """q^deg * p(1/q), valid when deg >= degree of p."""
        if self.is_zero():
            return self
        if deg < len(self.num) - 1:
            raise ValueError("reversal degree below polynomial degree")
        return _make([0] * (deg + 1 - len(self.num)) + list(reversed(self.num)), self.den)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"QPoly({format_poly(self)})"


def format_poly(p: QPoly) -> str:
    """Human form with decreasing powers, e.g. 'q^2 + 2*q - 1/2'."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    coeffs = p.coeffs
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
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
    return p if len(g.num) == 1 else p.divmod(g)[0]


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
        if den.num[-1] != den.den:  # the leading coefficient is not 1
            inv = Fraction(den.den, den.num[-1])
            num, den = num.scale(inv), den.scale(inv)
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
        return self.den.num == (1,) and self.den.den == 1

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
        if self.is_polynomial():
            return self.num.evaluate(point)
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
        return hash((self.num, self.den))

    def string_parts(self) -> tuple[str, str]:
        """The numerator and denominator strings of the canonical
        serialization, which every output format reads.

        Both polynomials are scaled by the same positive rational so that all
        printed coefficients are integers with overall gcd 1; the
        denominator's leading coefficient stays positive, as it is monic.
        """
        if self.is_zero():
            return "0", "1"
        lcm = math.lcm(self.num.den, self.den.den)
        num = [a * (lcm // self.num.den) for a in self.num.num]
        den = [a * (lcm // self.den.den) for a in self.den.num]
        g = math.gcd(*num, *den)
        return format_poly(_make(num, g)), format_poly(_make(den, g))

    def to_string(self) -> str:
        """Canonical serialization '(num)/(den)' with integer coefficients."""
        return "({})/({})".format(*self.string_parts())

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"QRat{self.to_string()}"
