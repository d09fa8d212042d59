"""Exact rational-function arithmetic in one grading variable q.

All coefficients are arbitrary-precision rationals (fractions.Fraction);
nothing in this package touches floating point.  A QPoly is a dense tuple
of coefficients indexed by the power of q, with trailing zeros stripped,
so the zero polynomial is the empty tuple and its degree is None rather
than a number.  A QRat is a quotient of two QPoly values kept in canonical
form:

    gcd(numerator, denominator) = 1 and the denominator is monic.

Equality and hashing are therefore structural.  Laurent behavior needs no
separate type: substituting q -> 1/q returns a QRat whose denominator is a
power of q.  A float is refused with TypeError (0.1 would enter as
3602879701896397/36028797018963968).  The public constructors QPoly(...) and
QRat(num, den) convert every coefficient and cancel by a full Euclid gcd.
The arithmetic skips that work where its inputs guarantee canonical form:

- QPoly results are built from Fractions without re-wrapping them, and
  QPoly.gcd returns 1 at once when either operand is a nonzero constant.
- -x, x * c (c an int or Fraction) and x ** k: unit multiples and powers of a
  coprime pair are coprime; for k < 0 den is only made monic.
- subs_q_power, subs_q_shift: q -> q^k and q -> q + c are injective ring
  maps, so u*num + v*den = 1 survives them, and leading coefficients stay.
- subs_q_inverse: reversal to d = max(deg num, deg den) keeps num, den
  coprime (a common irreducible f != q reverses to a common factor, and the
  side of degree d gets a nonzero constant term); den is only made monic.
- a/b + c/b = (a + c)/b needs one gcd against b and no product of dens.
- a/b * c/d = (a/g1 * c/g2) / (b/g2 * d/g1) with g1 = gcd(a, d) and
  g2 = gcd(c, b) (Henrici) cancels every common factor, and b/g2 and d/g1
  stay monic.  Division multiplies by d/c.
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
            raise ValueError("negative power of a QPoly; use QRat")
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
    def _coprime(num: QPoly, den: QPoly) -> QRat:
        """num/den with gcd(num, den) = 1 known: only makes den monic."""
        lead = den.coeffs[-1]
        if not num.coeffs:
            den = QPoly.one()
        elif lead != 1:
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        r = QRat.__new__(QRat)
        r.num, r.den = num, den
        return r

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
        return QRat._coprime(-self.num, self.den)

    def __sub__(self, other: RatLike) -> QRat:
        return self + (-QRat.of(other))

    def __rsub__(self, other: RatLike) -> QRat:
        return QRat.of(other) + (-self)

    def __mul__(self, other: RatLike) -> QRat:
        if isinstance(other, (int, Fraction)):
            return QRat._coprime(self.num.scale(other), self.den)
        o = QRat.of(other)
        g1, g2 = self.num.gcd(o.den), o.num.gcd(self.den)
        return QRat._coprime(
            _exquo(self.num, g1) * _exquo(o.num, g2), _exquo(self.den, g2) * _exquo(o.den, g1)
        )

    __rmul__ = __mul__

    def __truediv__(self, other: RatLike) -> QRat:
        o = QRat.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * QRat._coprime(o.den, o.num)

    def __rtruediv__(self, other: RatLike) -> QRat:
        return QRat.of(other) / self

    def __pow__(self, k: int) -> QRat:
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return QRat._coprime(self.den, self.num) ** (-k)
        return QRat._coprime(self.num ** k, self.den ** k)

    def subs_q_inverse(self) -> QRat:
        """Substitute q -> 1/q."""
        if self.is_zero():
            return self
        d = max(len(self.num.coeffs), len(self.den.coeffs)) - 1
        return QRat._coprime(self.num.reversed_to(d), self.den.reversed_to(d))

    def subs_q_power(self, k: int) -> QRat:
        """Substitute q -> q^k, k >= 1."""
        return QRat._coprime(self.num.compose_power(k), self.den.compose_power(k))

    def subs_q_shift(self, c: Scalar) -> QRat:
        """Substitute q -> q + c."""
        return QRat._coprime(self.num.compose_shift(c), self.den.compose_shift(c))

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
