"""The flat hypersymplectic structure on B^n viewed as R^{4n}.

Coordinates are blocked per quaternionic slot in the order (x, y, u, v),
i.e. (Re z, Im z, Re w, Im w) under the complex splitting xi = z + w s.
I, S, T are the right multiplications by -i, s, t; all coefficients are
constant, so the three 2-forms and the associated 4-form are closed for free.
The metric is diagonal and each 2-form's matrix is a signed permutation (one
entry +-1 per row), so both are evaluated from their nonzero entries: vectors
are scaled to integers over one denominator and each value is one integer sum.
`flat_structure(n)` builds the structure once per n and shares it, so its
matrices are read-only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from . import linalg
from .algebra import BASIS, SplitQuaternion
from .exact import integer_vector

_SLOT_METRIC = (Fraction(1), Fraction(1), Fraction(-1), Fraction(-1))


def right_mult_matrix(q: SplitQuaternion, n: int):
    """Real 4n x 4n matrix of xi -> xi q on B^n."""
    cols = [(b * q).coefficients() for b in BASIS]
    block = [[cols[j][i] for j in range(4)] for i in range(4)]
    out = linalg.zeros(4 * n, 4 * n)
    for s in range(n):
        for i in range(4):
            for j in range(4):
                out[4 * s + i][4 * s + j] = block[i][j]
    return out


def metric_matrix(n: int):
    out = linalg.zeros(4 * n, 4 * n)
    for s in range(n):
        for i in range(4):
            out[4 * s + i][4 * s + i] = _SLOT_METRIC[i]
    return out


def _nonzeros(m):
    """The nonzero entries (i, j, c) of an integer matrix, c an int."""
    return [(i, j, int(e)) for i, row in enumerate(m)
            for j, e in enumerate(row) if e]


def _apply(entries, ints):
    """M y in integers, M given by its nonzero entries."""
    out = [0] * len(ints)
    for i, j, c in entries:
        out[i] += c * ints[j]
    return out


def _wedge_pair(alpha, beta, x1, x2, x3, x4):
    def a(u, v):
        return alpha(u, v)

    def b(u, v):
        return beta(u, v)

    return (a(x1, x2) * b(x3, x4) - a(x1, x3) * b(x2, x4)
            + a(x1, x4) * b(x2, x3) + a(x2, x3) * b(x1, x4)
            - a(x2, x4) * b(x1, x3) + a(x3, x4) * b(x1, x2))


class FlatStructure:
    """Endomorphisms I, S, T, the neutral metric g and the three 2-forms.

    The defining identities are I^2 = -1, S^2 = T^2 = +1, IS = T = -SI,
    g(I., I.) = g, g(S., S.) = -g = g(T., T.), and omega_a = g(a., .).
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.dim = 4 * n
        self.I = right_mult_matrix(SplitQuaternion(0, -1), n)
        self.S = right_mult_matrix(SplitQuaternion(0, 0, 1), n)
        self.T = right_mult_matrix(SplitQuaternion(0, 0, 0, 1), n)
        self.G = metric_matrix(n)
        # omega_a = A^T G with G diagonal: entry (i, j) is A[j][i] * g_j
        g = [self.G[j][j] for j in range(self.dim)]
        self.omega_I, self.omega_S, self.omega_T = (
            [[a[j][i] * g[j] for j in range(self.dim)] for i in range(self.dim)]
            for a in (self.I, self.S, self.T))
        self._metric_entries = _nonzeros(self.G)
        self._form_entries = {name: _nonzeros(self.form_matrix(name))
                              for name in ("I", "S", "T")}

    def _check_dim(self, *vectors):
        for v in vectors:
            if len(v) != self.dim:
                raise ValueError("expected vectors of dimension %d, got %d"
                                 % (self.dim, len(v)))

    def endomorphism(self, name: str):
        return {"I": self.I, "S": self.S, "T": self.T}[name]

    def form_matrix(self, name: str):
        return {"I": self.omega_I, "S": self.omega_S, "T": self.omega_T}[name]

    def _gram(self, entries, rows, cols):
        self._check_dim(*rows, *cols)
        images = [(_apply(entries, ints), den)
                  for ints, den in map(integer_vector, cols)]
        return [[Fraction(sum(map(mul, xs, my)), dx * dy) for my, dy in images]
                for xs, dx in map(integer_vector, rows)]

    def metric(self, x, y) -> Fraction:
        return self._gram(self._metric_entries, [x], [y])[0][0]

    def omega(self, name: str, x, y) -> Fraction:
        return self._gram(self._form_entries[name], [x], [y])[0][0]

    def metric_gram(self, vectors):
        """[[g(x, y) for y in vectors] for x in vectors]."""
        return self._gram(self._metric_entries, vectors, vectors)

    def omega_gram(self, name: str, vectors):
        """[[omega_name(x, y) for y in vectors] for x in vectors]."""
        return self._gram(self._form_entries[name], vectors, vectors)

    def evaluate(self, x, y):
        """(g, omega_I, omega_S, omega_T) on a pair of tangent vectors."""
        return (self.metric(x, y), self.omega("I", x, y),
                self.omega("S", x, y), self.omega("T", x, y))

    def four_form(self, x1, x2, x3, x4) -> Fraction:
        """omega_I ^ omega_I - omega_S ^ omega_S - omega_T ^ omega_T."""
        self._check_dim(x1, x2, x3, x4)

        def wi(u, v):
            return self.omega("I", u, v)

        def ws(u, v):
            return self.omega("S", u, v)

        def wt(u, v):
            return self.omega("T", u, v)

        return (_wedge_pair(wi, wi, x1, x2, x3, x4)
                - _wedge_pair(ws, ws, x1, x2, x3, x4)
                - _wedge_pair(wt, wt, x1, x2, x3, x4))

    def identities_hold(self) -> bool:
        """Exact check of the endomorphism and compatibility identities."""
        return all(structure_identities(self.I, self.S, self.T,
                                        self.G).values())


def _integer_matrix(m):
    """(rows, den) with m == rows / den: one denominator for the matrix."""
    scaled = [integer_vector(row) for row in m]
    den = lcm(*(d for _, d in scaled))
    return [[x * (den // d) for x in xs] for xs, d in scaled], den


def _int_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _scaled(c, m):
    return [[c * e for e in row] for row in m]


def structure_identities(I, S, T, G) -> dict:
    """The eight defining relations of endomorphisms I, S, T and a metric
    Gram matrix G, checked exactly and keyed by name: I^2 = -1,
    S^2 = T^2 = 1, IS = T = -SI, and A^T G A = +G for I, -G for S and T.

    Each matrix is scaled once to integers over one denominator (I = Ii/dI
    and so on), and each relation is checked as an identity between integer
    matrices: I^2 = -1 as Ii Ii == -dI^2, IS = T as dT Ii Si == dI dS Ti,
    A^T G A = G as Ai^T Gi Ai == dA^2 Gi."""
    (ii, di), (si, ds), (ti, dt), (gi, _) = map(_integer_matrix, (I, S, T, G))
    ident = [[int(i == j) for j in range(len(G))] for i in range(len(G))]

    def pulled_back(a):
        return _int_mul(list(zip(*a)), _int_mul(gi, a))

    return {
        "I_squared_minus_one": _int_mul(ii, ii) == _scaled(-di * di, ident),
        "S_squared_one": _int_mul(si, si) == _scaled(ds * ds, ident),
        "T_squared_one": _int_mul(ti, ti) == _scaled(dt * dt, ident),
        "IS_equals_T": _scaled(dt, _int_mul(ii, si)) == _scaled(di * ds, ti),
        "SI_equals_minus_T": (_scaled(dt, _int_mul(si, ii))
                              == _scaled(-di * ds, ti)),
        "g_I_invariant": pulled_back(ii) == _scaled(di * di, gi),
        "g_S_antiinvariant": pulled_back(si) == _scaled(-ds * ds, gi),
        "g_T_antiinvariant": pulled_back(ti) == _scaled(-dt * dt, gi),
    }


_FLAT_CACHE = {}


def flat_structure(n: int) -> FlatStructure:
    """The flat structure on B^n, built once per n and shared by every
    caller: read its matrices, never mutate them."""
    cached = _FLAT_CACHE.get(n)
    if cached is None:
        cached = _FLAT_CACHE[n] = FlatStructure(n)
    return cached


def coordinate_vector(dim, k):
    v = [Fraction(0)] * dim
    v[k] = Fraction(1)
    return v
