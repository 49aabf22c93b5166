"""Toric data on B^d: subtorus configurations, moment maps, fibers.

A configuration is an integer matrix U = (u_1 ... u_d) whose columns span
R^n, plus three rational shift vectors.  The subtorus N <= T^d has Lie
algebra ker(beta) for beta(e_k) = u_k; its moment maps on C^{d,d} are

    mu_I(z, w)        = sum_k (|z_k|^2 + |w_k|^2)/2 alpha_k + c_1,
    (mu_S + i mu_T)   = sum_k i conj(z_k) w_k alpha_k + c_2 + i c_3,

with alpha_k the Euclidean projection of e_k onto ker(beta) and
c_j = sum_k lambda^(j)_k alpha_k.  The zero level is characterized by the
existence of (a, b) with <a, u_k> and <b, u_k> matching the slot invariants,
and everything downstream (cones, walls, orbit counts) happens in (a, b)
space: a_k = <a, u_k> - lambda^(1)_k, b_k = <b, u_k> - lambda^(c)_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from . import linalg
from .cones import Affine, SOCSystem
from .exact import ComplexRational, QuadraticValue, as_fraction, sqrt_fraction
from .lattice import integral_kernel_basis


class ToricConfig:
    """d, n, integer columns u_1..u_d, rational shifts lambda^(1,2,3)."""

    def __init__(self, columns, lambda1=None, lambda2=None, lambda3=None):
        self.columns = [[int(e) for e in col] for col in columns]
        self.d = len(self.columns)
        if self.d == 0:
            raise ValueError("need at least one column")
        self.n = len(self.columns[0])
        if any(len(c) != self.n for c in self.columns):
            raise ValueError("columns must all have length n")

        def shift(v):
            if v is None:
                return [Fraction(0)] * self.d
            v = [as_fraction(e) for e in v]
            if len(v) != self.d:
                raise ValueError("shift vector must have length d")
            return v

        self.lambda1 = shift(lambda1)
        self.lambda2 = shift(lambda2)
        self.lambda3 = shift(lambda3)
        u_rows = [[Fraction(self.columns[k][i]) for k in range(self.d)]
                  for i in range(self.n)]
        if linalg.rank(u_rows) != self.n:
            raise ValueError("columns u_k must span R^n")
        self.u_matrix = u_rows  # n x d

    def column(self, k):
        return self.columns[k]

    def lambda_c(self, k) -> ComplexRational:
        return ComplexRational(self.lambda2[k], self.lambda3[k])

    def __repr__(self):
        return ("ToricConfig(d=%d, n=%d, u=%r)"
                % (self.d, self.n, self.columns))


class TorusData:
    """ker(beta) with the projected generators alpha_k and shifts c_j."""

    def __init__(self, cfg: ToricConfig):
        self.cfg = cfg
        rational, lattice = integral_kernel_basis(cfg.u_matrix)
        self.kernel_basis = rational          # basis of n(frak) over Q
        self.lattice_basis = lattice          # Z-basis of ker cap Z^d
        self.dim = len(rational)
        if self.dim:
            self.projector = linalg.column_span_projector(rational)
        else:
            self.projector = linalg.zeros(cfg.d, cfg.d)
        self.alphas = [
            [self.projector[i][k] for i in range(cfg.d)]
            for k in range(cfg.d)
        ]
        self.c1 = linalg.mat_vec(self.projector, cfg.lambda1)
        self.c2 = linalg.mat_vec(self.projector, cfg.lambda2)
        self.c3 = linalg.mat_vec(self.projector, cfg.lambda3)


def build_torus_data(cfg: ToricConfig) -> TorusData:
    return TorusData(cfg)


def _as_complex_vec(v, n):
    v = [ComplexRational.coerce(e) for e in v]
    if len(v) != n:
        raise ValueError("expected vector of length %d" % n)
    return v


def slot_invariants(z, w):
    """Per-slot torus invariants (|z_k|^2, |w_k|^2, conj(z_k) w_k)."""
    return [(zk.abs_sq(), wk.abs_sq(), zk.conj() * wk) for zk, wk in zip(z, w)]


def moment_map(cfg: ToricConfig, z, w, torus: TorusData | None = None):
    """(mu_I, mu_S + i mu_T) as vectors in ker(beta) inside R^d."""
    torus = torus or build_torus_data(cfg)
    z = _as_complex_vec(z, cfg.d)
    w = _as_complex_vec(w, cfg.d)
    inv = slot_invariants(z, w)
    mu_i = list(torus.c1)
    mu_c = [ComplexRational(re, im) for re, im in zip(torus.c2, torus.c3)]
    for k, (zz, ww, cross) in enumerate(inv):
        half = (zz + ww) / 2
        icross = cross.times_i()
        for i in range(cfg.d):
            ak = torus.alphas[k][i]
            mu_i[i] += half * ak
            mu_c[i] = mu_c[i] + icross * ak
    return mu_i, mu_c


def level_witness(cfg: ToricConfig, z, w):
    """(a, b) with <a,u_k>, <b,u_k> matching the slot data, or None.

    Solvability of these linear systems is equivalent to (z, w) lying on
    the zero level of the moment map; the solution is unique because the
    u_k span R^n.
    """
    z = _as_complex_vec(z, cfg.d)
    w = _as_complex_vec(w, cfg.d)
    rows = [[Fraction(cfg.columns[k][i]) for i in range(cfg.n)]
            for k in range(cfg.d)]
    rhs_a = []
    rhs_re = []
    rhs_im = []
    for k, (zz, ww, cross) in enumerate(slot_invariants(z, w)):
        rhs_a.append((zz + ww) / 2 + cfg.lambda1[k])
        target = cross.times_i() + cfg.lambda_c(k)
        rhs_re.append(target.re)
        rhs_im.append(target.im)
    a = linalg.solve(rows, rhs_a)
    bre = linalg.solve(rows, rhs_re)
    bim = linalg.solve(rows, rhs_im)
    if a is None or bre is None or bim is None:
        return None
    b = [ComplexRational(r, i) for r, i in zip(bre, bim)]
    return a, b


def derived_values(cfg: ToricConfig, a, b):
    """Per-index values a_k = <a,u_k> - lambda1_k, b_k = <b,u_k> - lambda_c_k."""
    a = [as_fraction(e) for e in a]
    b = _as_complex_vec(b, cfg.n)
    a_vals = []
    b_vals = []
    for k in range(cfg.d):
        col = cfg.columns[k]
        a_vals.append(sum(a[i] * col[i] for i in range(cfg.n)) - cfg.lambda1[k])
        bk = ComplexRational(0)
        for i in range(cfg.n):
            bk = bk + b[i] * col[i]
        b_vals.append(bk - cfg.lambda_c(k))
    return a_vals, b_vals


@dataclass
class Incidence:
    in_cone: bool
    J: tuple
    L: tuple
    a_values: list
    b_values: list


def incidence(cfg: ToricConfig, a, b) -> Incidence:
    """Exact membership in K = cap K_k plus the vertex/wall index sets."""
    a_vals, b_vals = derived_values(cfg, a, b)
    in_cone = True
    J = []
    L = []
    for k in range(cfg.d):
        ak, bk = a_vals[k], b_vals[k]
        gap = ak * ak - bk.abs_sq()
        if ak < 0 or gap < 0:
            in_cone = False
            continue
        if gap == 0:
            L.append(k)
            if ak == 0:
                J.append(k)
    return Incidence(in_cone, tuple(J), tuple(L), a_vals, b_vals)


def cone_system(cfg: ToricConfig) -> SOCSystem:
    """The system {a_k >= |b_k|, k = 1..d} over x = (a, Re b, Im b)."""
    sys = SOCSystem(3 * cfg.n)
    n = cfg.n
    for k in range(cfg.d):
        col = cfg.columns[k]
        l0 = Affine([Fraction(col[j]) if j < n else Fraction(0)
                     for j in range(3 * n)], -cfg.lambda1[k])
        l1 = Affine([Fraction(col[j - n]) if n <= j < 2 * n else Fraction(0)
                     for j in range(3 * n)], -cfg.lambda2[k])
        l2 = Affine([Fraction(col[j - 2 * n]) if j >= 2 * n else Fraction(0)
                     for j in range(3 * n)], -cfg.lambda3[k])
        sys.add_cone(l0, l1, l2)
    return sys


def point_to_coords(a, b):
    """(a, b) -> flat coordinate vector (a | Re b | Im b)."""
    b = [ComplexRational.coerce(e) for e in b]
    return ([as_fraction(e) for e in a]
            + [e.re for e in b] + [e.im for e in b])


def coords_to_point(x, n):
    a = list(x[:n])
    b = [ComplexRational(x[n + i], x[2 * n + i]) for i in range(n)]
    return a, b


@dataclass
class FiberSlot:
    """Torus invariants of one coordinate of a fiber representative.

    z_sq and w_sq are the exact moduli squared (quadratic values over the
    discriminant a_k^2 - |b_k|^2); cross is conj(z_k) w_k = -i b_k.
    """

    a: Fraction
    b: ComplexRational
    disc: Fraction
    z_sq: QuadraticValue
    w_sq: QuadraticValue
    sign: int | None  # None on the wall (double root)

    def verify(self) -> bool:
        two_a = self.z_sq + self.w_sq
        prod = self.z_sq * self.w_sq
        return (two_a == QuadraticValue(2 * self.a)
                and prod == QuadraticValue(self.b.abs_sq()))


class FiberOrbit:
    """One torus orbit in the fiber over (a, b), slot by slot."""

    def __init__(self, slots):
        self.slots = list(slots)
        for s in self.slots:
            if not s.verify():
                raise AssertionError("fiber slot fails its quadratic relations")

    @property
    def signs(self):
        return tuple(s.sign for s in self.slots)

    def invariants(self):
        """Exact (|z_k|^2, |w_k|^2, conj(z_k) w_k) per slot."""
        return [(s.z_sq, s.w_sq, (-s.b).times_i()) for s in self.slots]

    def invariant_key(self):
        return tuple((s.z_sq.a, s.z_sq.b, s.z_sq.disc) for s in self.slots)

    def rational_representative(self):
        """Exact (z, w) with z_k real >= 0, when all square roots are rational."""
        z = []
        w = []
        for s in self.slots:
            if not s.z_sq.is_rational():
                return None
            zr = sqrt_fraction(s.z_sq.rational())
            if zr is None:
                return None
            if zr > 0:
                z.append(ComplexRational(zr))
                w.append((-s.b).times_i() / zr)
            else:
                if not s.w_sq.is_rational():
                    return None
                wr = sqrt_fraction(s.w_sq.rational())
                if wr is None:
                    return None
                z.append(ComplexRational(0))
                w.append(ComplexRational(wr))
        return z, w


def fiber_enumerate(cfg: ToricConfig, a, b):
    """All 2^(d - |L|) torus orbits over (a, b) in K.

    Per slot the moduli squared are the roots of X^2 - 2 a_k X + |b_k|^2,
    kept as exact quadratic data; off-wall slots contribute the two root
    orderings, wall slots have a double root.  Raises ValueError off K.
    """
    inc = incidence(cfg, a, b)
    if not inc.in_cone:
        raise ValueError("(a, b) lies outside the moment image")
    slot_choices = []
    for k in range(cfg.d):
        ak, bk = inc.a_values[k], inc.b_values[k]
        disc = ak * ak - bk.abs_sq()
        if disc == 0:
            root = QuadraticValue(ak)
            slot_choices.append([FiberSlot(ak, bk, disc, root, root, None)])
        else:
            plus = QuadraticValue(ak, 1, disc)
            minus = QuadraticValue(ak, -1, disc)
            slot_choices.append([
                FiberSlot(ak, bk, disc, plus, minus, +1),
                FiberSlot(ak, bk, disc, minus, plus, -1),
            ])
    orbits = [FiberOrbit(combo) for combo in iter_product(*slot_choices)]
    expected = 2 ** (cfg.d - len(inc.L))
    if len(orbits) != expected:
        raise AssertionError("orbit count %d != 2^(d-|L|) = %d"
                             % (len(orbits), expected))
    return orbits


def example_family(n: int, lam) -> ToricConfig:
    """The d = n+1 family: u_k = e_k, u_{n+1} = e_1 + ... + e_n.

    All shifts vanish except lambda^(1)_{n+1} = -lam with lam > 0; the
    moment image is then a product of n solid cones sitting strictly inside
    the last cone, so the last wall is never met.
    """
    lam = as_fraction(lam)
    if n < 1 or lam <= 0:
        raise ValueError("need n >= 1 and lam > 0")
    cols = [[1 if i == k else 0 for i in range(n)] for k in range(n)]
    cols.append([1] * n)
    lambda1 = [Fraction(0)] * n + [-lam]
    return ToricConfig(cols, lambda1=lambda1)
