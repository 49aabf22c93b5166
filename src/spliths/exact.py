"""Exact scalar arithmetic: rationals, rational complex numbers, quadratic values.

Everything in this package that claims exactness bottoms out here; no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like "3/4" and Fractions; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("not an exact rational: %r" % (value,))


def integer_vector(values):
    """(ints, den) with values[i] == ints[i] / den, den > 0 the lcm of the
    denominators: a rational vector as integers over one denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def sqrt_fraction(value):
    """Square root of a nonnegative rational if it is rational, else None."""
    value = as_fraction(value)
    if value < 0:
        raise ValueError("negative radicand: %s" % value)
    rn = math.isqrt(value.numerator)
    rd = math.isqrt(value.denominator)
    if rn * rn == value.numerator and rd * rd == value.denominator:
        return Fraction(rn, rd)
    return None


class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @classmethod
    def coerce(cls, value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        return cls(as_fraction(value))

    def __add__(self, other):
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ComplexRational.coerce(other) - self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        other = ComplexRational.coerce(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ComplexRational.coerce(other)
        d = other.abs_sq()
        if d == 0:
            raise ZeroDivisionError("division by zero complex rational")
        num = self * other.conj()
        return ComplexRational(num.re / d, num.im / d)

    def conj(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def times_i(self) -> "ComplexRational":
        """Multiplication by i."""
        return ComplexRational(-self.im, self.re)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexRational(other)
        if not isinstance(other, ComplexRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "ComplexRational(%s, %s)" % (self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%si" % self.im
        sign = "+" if self.im >= 0 else "-"
        return "%s%s%si" % (self.re, sign, abs(self.im))


I_C = ComplexRational(0, 1)


def _square_part(m):
    """(s, f) with m == s*s*f and f squarefree, for an integer m >= 1.

    Trial division runs while p^3 <= m; what is left then has at most two
    prime factors, so it is either a square or squarefree.
    """
    s = f = 1
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        return s * r, f
    return s, f * m


class QuadraticValue:
    """An exact value a + b*sqrt(disc) with rational a, b and disc >= 0.

    The form is canonical: disc is a squarefree integer (its square factor
    and denominator move into b), perfect squares collapse to plain
    rationals, and a rational value has b == disc == 0.  So equal values
    have equal fields, and a rational value compares and hashes like its
    Fraction.  Mixed-discriminant arithmetic is rejected.
    """

    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b=0, disc=0):
        a = as_fraction(a)
        b = as_fraction(b)
        disc = as_fraction(disc)
        if disc < 0:
            raise ValueError("negative discriminant")
        if b == 0:
            disc = Fraction(0)
        else:
            root = sqrt_fraction(disc)
            if root is not None:
                a, b, disc = a + b * root, Fraction(0), Fraction(0)
            else:
                # sqrt(p/q) = (sp / (sq fq)) sqrt(fp fq), p = sp^2 fp, q = sq^2 fq
                sp, fp = _square_part(disc.numerator)
                sq, fq = _square_part(disc.denominator)
                b *= Fraction(sp, sq * fq)
                disc = Fraction(fp * fq)
        self.a, self.b, self.disc = a, b, disc

    @classmethod
    def _canonical(cls, a, b, disc) -> "QuadraticValue":
        """Build from fields already in canonical form (disc squarefree)."""
        value = object.__new__(cls)
        value.a, value.b = a, b
        value.disc = disc if b != 0 else Fraction(0)
        return value

    @classmethod
    def coerce(cls, value) -> "QuadraticValue":
        if isinstance(value, QuadraticValue):
            return value
        return cls(as_fraction(value))

    def is_rational(self) -> bool:
        return self.b == 0

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("irrational quadratic value %r" % self)
        return self.a

    def _match(self, other):
        other = QuadraticValue.coerce(other)
        if self.b != 0 and other.b != 0 and self.disc != other.disc:
            raise ValueError("incompatible discriminants %s, %s" % (self.disc, other.disc))
        disc = self.disc if self.b != 0 else other.disc
        return other, disc

    def __add__(self, other):
        other, disc = self._match(other)
        return QuadraticValue._canonical(self.a + other.a, self.b + other.b,
                                         disc)

    __radd__ = __add__

    def __sub__(self, other):
        other, disc = self._match(other)
        return QuadraticValue._canonical(self.a - other.a, self.b - other.b,
                                         disc)

    def __rsub__(self, other):
        return QuadraticValue.coerce(other) - self

    def __neg__(self):
        return QuadraticValue._canonical(-self.a, -self.b, self.disc)

    def __mul__(self, other):
        other, disc = self._match(other)
        return QuadraticValue._canonical(
            self.a * other.a + self.b * other.b * disc,
            self.a * other.b + self.b * other.a,
            disc,
        )

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(disc)."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        lhs = self.a
        rhs = -self.b  # compare a with -b*sqrt(disc)
        # sign of lhs - rhs*sqrt(disc) with rhs replaced accordingly
        if lhs >= 0 and rhs <= 0:
            return 1 if (lhs > 0 or rhs < 0) else 0
        if lhs <= 0 and rhs >= 0:
            return -1 if (lhs < 0 or rhs > 0) else 0
        diff = lhs * lhs - rhs * rhs * self.disc
        if lhs > 0:  # both positive
            return (diff > 0) - (diff < 0)
        return (diff < 0) - (diff > 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadraticValue):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.disc == other.disc)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.disc))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.disc))

    def __repr__(self):
        if self.b == 0:
            return "QuadraticValue(%s)" % (self.a,)
        return "QuadraticValue(%s, %s, disc=%s)" % (self.a, self.b, self.disc)
