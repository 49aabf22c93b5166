"""Split-quaternion arithmetic over exact rationals.

The algebra has basis 1, i, s, t with i^2 = -1, s^2 = t^2 = +1 and
is = t = -si.  The norm is |p|^2 = x^2 + y^2 - u^2 - v^2 where (x, y, u, v)
are the coefficients of (1, i, s, t); beware that some sources write this as
x^2 + y^2 - s^2 - t^2 with s, t standing for the last two coefficients.
The norm has signature (2, 2) and is multiplicative, so the algebra has zero
divisors (e.g. |i + s|^2 = 0).

>>> I * S == T
True
>>> S * I == -T
True
>>> (I * S).norm_sq()
Fraction(-1, 1)
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .exact import ComplexRational, as_fraction


class SplitQuaternion:
    """x + i y + s u + t v with exact rational coefficients."""

    __slots__ = ("x", "y", "u", "v")

    def __init__(self, x=0, y=0, u=0, v=0):
        self.x = as_fraction(x)
        self.y = as_fraction(y)
        self.u = as_fraction(u)
        self.v = as_fraction(v)

    @classmethod
    def coerce(cls, value) -> "SplitQuaternion":
        if isinstance(value, SplitQuaternion):
            return value
        return cls(as_fraction(value))

    def coefficients(self):
        return (self.x, self.y, self.u, self.v)

    def __add__(self, other):
        other = SplitQuaternion.coerce(other)
        return SplitQuaternion(self.x + other.x, self.y + other.y,
                               self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __sub__(self, other):
        other = SplitQuaternion.coerce(other)
        return SplitQuaternion(self.x - other.x, self.y - other.y,
                               self.u - other.u, self.v - other.v)

    def __rsub__(self, other):
        return SplitQuaternion.coerce(other) - self

    def __neg__(self):
        return SplitQuaternion(-self.x, -self.y, -self.u, -self.v)

    def __mul__(self, other):
        """Bilinear product from the table i^2=-1, s^2=t^2=1, is=t=-si."""
        other = SplitQuaternion.coerce(other)
        x1, y1, u1, v1 = self.coefficients()
        x2, y2, u2, v2 = other.coefficients()
        return SplitQuaternion(
            x1 * x2 - y1 * y2 + u1 * u2 + v1 * v2,
            x1 * y2 + y1 * x2 - u1 * v2 + v1 * u2,
            x1 * u2 + u1 * x2 - y1 * v2 + v1 * y2,
            x1 * v2 + v1 * x2 + y1 * u2 - u1 * y2,
        )

    def __rmul__(self, other):
        return SplitQuaternion.coerce(other) * self

    def conj(self) -> "SplitQuaternion":
        return SplitQuaternion(self.x, -self.y, -self.u, -self.v)

    def norm_sq(self) -> Fraction:
        return self.x * self.x + self.y * self.y - self.u * self.u - self.v * self.v

    def inner(self, other) -> Fraction:
        """Re(conj(self) * other); signature (2, 2) on the basis."""
        other = SplitQuaternion.coerce(other)
        return (self.x * other.x + self.y * other.y
                - self.u * other.u - self.v * other.v)

    def real(self) -> Fraction:
        return self.x

    def is_zero(self) -> bool:
        return self.coefficients() == (0, 0, 0, 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SplitQuaternion(other)
        if not isinstance(other, SplitQuaternion):
            return NotImplemented
        return self.coefficients() == other.coefficients()

    def __hash__(self):
        return hash(self.coefficients())

    def __repr__(self):
        return "SplitQuaternion(%s, %s, %s, %s)" % self.coefficients()


ONE = SplitQuaternion(1)
I = SplitQuaternion(0, 1)
S = SplitQuaternion(0, 0, 1)
T = SplitQuaternion(0, 0, 0, 1)
BASIS = (ONE, I, S, T)


class Square(Enum):
    MINUS_ONE = "minus_one"
    PLUS_ONE = "plus_one"
    NEITHER = "neither"


def classify_square(p: SplitQuaternion) -> Square:
    """Classify p by whether p^2 = -1, p^2 = +1 or neither.

    Matches the closed-form criterion: p^2 = -1 iff p is imaginary with
    y^2 - u^2 - v^2 = 1; p^2 = +1 iff p = +-1 or p is imaginary with
    y^2 - u^2 - v^2 = -1.
    """
    sq = p * p
    if sq == SplitQuaternion(-1):
        return Square.MINUS_ONE
    if sq == ONE:
        return Square.PLUS_ONE
    return Square.NEITHER


def classify_square_criterion(p: SplitQuaternion) -> Square:
    """The same classification read off the coefficient criterion."""
    if p == ONE or p == SplitQuaternion(-1):
        return Square.PLUS_ONE
    if p.x == 0:
        q = p.y * p.y - p.u * p.u - p.v * p.v
        if q == 1:
            return Square.MINUS_ONE
        if q == -1:
            return Square.PLUS_ONE
    return Square.NEITHER


class BVector:
    """A point of the right module B^n; inner product has signature (2n, 2n)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(SplitQuaternion.coerce(e) for e in entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, k):
        return self.entries[k]

    def __add__(self, other):
        return BVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other):
        return BVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self):
        return BVector(-a for a in self.entries)

    def right_mul(self, q) -> "BVector":
        q = SplitQuaternion.coerce(q)
        return BVector(a * q for a in self.entries)

    def inner(self, other) -> Fraction:
        """<xi, eta> = Re(conj(xi)^T eta)."""
        return sum((a.inner(b) for a, b in zip(self.entries, other.entries)),
                   Fraction(0))

    def norm_sq(self) -> Fraction:
        return self.inner(self)

    def __eq__(self, other):
        return isinstance(other, BVector) and self.entries == other.entries

    def __repr__(self):
        return "BVector(%r)" % (list(self.entries),)


class BMatrix:
    """Square matrix over the split quaternions."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(SplitQuaternion.coerce(e) for e in row)
                          for row in rows)
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n) -> "BMatrix":
        return cls([[ONE if i == j else SplitQuaternion()
                     for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "BMatrix":
        entries = list(entries)
        n = len(entries)
        return cls([[SplitQuaternion.coerce(entries[i]) if i == j
                     else SplitQuaternion() for j in range(n)]
                    for i in range(n)])

    def __len__(self):
        return len(self.rows)

    def __mul__(self, other):
        if isinstance(other, BVector):
            return BVector(
                sum((a * x for a, x in zip(row, other.entries)),
                    SplitQuaternion())
                for row in self.rows)
        n = len(self.rows)
        return BMatrix([[sum((self.rows[i][k] * other.rows[k][j]
                              for k in range(n)), SplitQuaternion())
                         for j in range(n)] for i in range(n)])

    def conj_transpose(self) -> "BMatrix":
        n = len(self.rows)
        return BMatrix([[self.rows[j][i].conj() for j in range(n)]
                        for i in range(n)])

    def is_group_element(self) -> bool:
        """Membership in Sp(n, B): conj(A)^T A = 1."""
        return self.conj_transpose() * self == BMatrix.identity(len(self.rows))

    def is_algebra_element(self) -> bool:
        """Membership in sp(n, B): A + conj(A)^T = 0."""
        ct = self.conj_transpose()
        zero = SplitQuaternion()
        return all((self.rows[i][j] + ct.rows[i][j]) == zero
                   for i in range(len(self.rows)) for j in range(len(self.rows)))

    def __eq__(self, other):
        return isinstance(other, BMatrix) and self.rows == other.rows

    def __repr__(self):
        return "BMatrix(%r)" % ([list(r) for r in self.rows],)


def group_membership(a: BMatrix, mode: str) -> bool:
    """Exact membership predicate; mode is "group" or "algebra"."""
    if mode == "group":
        return a.is_group_element()
    if mode == "algebra":
        return a.is_algebra_element()
    raise ValueError("mode must be 'group' or 'algebra'")


def module_action(a: BMatrix, p: SplitQuaternion, xi: BVector) -> BVector:
    """(A, p) . xi = A xi conj(p), the isometric Sp(n,B) x Sp(1,B) action.

    Requires |p|^2 = 1 and A in the group; the kernel is {+-(1, 1)}.
    """
    p = SplitQuaternion.coerce(p)
    if p.norm_sq() != 1:
        raise ValueError("p must have unit norm, got |p|^2 = %s" % p.norm_sq())
    if not a.is_group_element():
        raise ValueError("matrix is not in the symplectic group")
    return (a * xi).right_mul(p.conj())


def to_complex_pair(xi: BVector):
    """Split xi = z + w s into complex coordinate vectors (z, w).

    The complex structure is xi -> -xi i, under which z and w are honest
    complex coordinates: slot (x, y, u, v) maps to z = x + iy, w = u + iv.
    """
    z = [ComplexRational(e.x, e.y) for e in xi.entries]
    w = [ComplexRational(e.u, e.v) for e in xi.entries]
    return z, w


def from_complex_pair(z, w) -> BVector:
    if len(z) != len(w):
        raise ValueError("z and w must have equal length")
    return BVector(
        SplitQuaternion(zk.re, zk.im, wk.re, wk.im)
        for zk, wk in zip(
            (ComplexRational.coerce(zk) for zk in z),
            (ComplexRational.coerce(wk) for wk in w),
        ))


def abelian_element(params, kind: str) -> BMatrix:
    """Diagonal element of one of the two rank-n abelian subgroups.

    kind="torus": params are rational points (c, s) with c^2 + s^2 = 1 and
    the entry is c + i s.  kind="split": params are rational points (ch, sh)
    with ch^2 - sh^2 = 1 and the entry is ch + s sh.  Points are given as
    exact pairs rather than angles so membership stays decidable.
    """
    entries = []
    for c, s in params:
        c, s = as_fraction(c), as_fraction(s)
        if kind == "torus":
            if c * c + s * s != 1:
                raise ValueError("(%s, %s) is not on the circle" % (c, s))
            entries.append(SplitQuaternion(c, s))
        elif kind == "split":
            if c * c - s * s != 1:
                raise ValueError("(%s, %s) is not on the unit hyperbola" % (c, s))
            entries.append(SplitQuaternion(c, 0, s))
        else:
            raise ValueError("kind must be 'torus' or 'split'")
    return BMatrix.diagonal(entries)
