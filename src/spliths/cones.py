"""Second-order-cone feasibility over the rationals.

A system consists of affine equalities e(x) = 0, affine inequalities
h(x) >= 0 and cone constraints l0(x) >= ||(l1(x), l2(x))||, all with
rational data.  Three mechanisms cooperate:

* outer polyhedral relaxations (supporting half-planes l0 >= c*l1 + s*l2
  for rational unit directions (c, s)) certify infeasibility exactly;
* inner polyhedral approximations (inscribed polygon gauges) produce exact
  rational feasible witnesses;
* a numeric cyclic-projection fallback proposes candidates that are only
  accepted after rational polishing and exact re-verification.

Every FEASIBLE verdict carries a witness that has been checked against all
constraints exactly; every INFEASIBLE verdict carries exact certificate
data; anything else is UNKNOWN.

Each affine form is also held as integers over one positive denominator,
the row format of the LP tableau.  A point is scaled to integers over one
denominator once, so each form's value is one integer sum, each sign is
read from an integer numerator, and the tangent rows of the outer
relaxation are built from integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from . import linalg
from .exact import as_fraction, integer_vector
from .lp import EQ, GE, LE, lp_feasible, solve_lp

FEASIBLE, INFEASIBLE, UNKNOWN = "feasible", "infeasible", "unknown"


class Affine:
    """coeffs . x + const

    `coeffs` and `const` are Fractions; the form is also kept as its nonzero
    integer coefficients `terms` (j, c) and integer constant `num0` over the
    positive denominator `den`.
    """

    __slots__ = ("coeffs", "const", "terms", "num0", "den")

    def __init__(self, coeffs, const=0):
        self.coeffs = tuple(as_fraction(c) for c in coeffs)
        self.const = as_fraction(const)
        ints, self.den = integer_vector(self.coeffs + (self.const,))
        self.num0 = ints.pop()
        self.terms = tuple((j, c) for j, c in enumerate(ints) if c)

    def _num(self, xs, xden):
        """den * xden * self(x) for x == xs / xden, as an int."""
        if len(xs) != len(self.coeffs):
            raise ValueError("point of length %d for a form in %d variables"
                             % (len(xs), len(self.coeffs)))
        return sum(c * xs[j] for j, c in self.terms) + self.num0 * xden

    def _row(self, den):
        """Coefficients then constant, as ints over `den` (a multiple of
        self.den)."""
        f = den // self.den
        row = [0] * (len(self.coeffs) + 1)
        for j, c in self.terms:
            row[j] = c * f
        row[-1] = self.num0 * f
        return row

    def __call__(self, x):
        xs, xden = integer_vector(x)
        return Fraction(self._num(xs, xden), self.den * xden)

    def __repr__(self):
        return "Affine(%r, %r)" % (list(self.coeffs), self.const)


@dataclass
class Cone:
    l0: Affine
    l1: Affine
    l2: Affine

    def _parts(self, xs, xden):
        """(w0, gap, den) at x == xs / xden: l0(x) == w0 / den and
        gap_sq(x) == gap / den**2, with den > 0."""
        l0, l1, l2 = self.l0, self.l1, self.l2
        d = lcm(l0.den, l1.den, l2.den)
        w0 = l0._num(xs, xden) * (d // l0.den)
        w1 = l1._num(xs, xden) * (d // l1.den)
        w2 = l2._num(xs, xden) * (d // l2.den)
        return w0, w0 * w0 - w1 * w1 - w2 * w2, d * xden

    def gap_sq(self, x):
        """l0^2 - l1^2 - l2^2 at x (positive strictly inside)."""
        _, gap, den = self._parts(*integer_vector(x))
        return Fraction(gap, den * den)

    def satisfied(self, x) -> bool:
        w0, gap, _ = self._parts(*integer_vector(x))
        return w0 >= 0 and gap >= 0

    def on_wall(self, x) -> bool:
        w0, gap, _ = self._parts(*integer_vector(x))
        return w0 >= 0 and gap == 0


@dataclass
class SOCSystem:
    nvars: int
    eqs: list = field(default_factory=list)    # Affine, == 0
    ineqs: list = field(default_factory=list)  # Affine, >= 0
    cones: list = field(default_factory=list)

    def add_eq(self, coeffs, const=0):
        self.eqs.append(Affine(coeffs, const))

    def add_ineq(self, coeffs, const=0):
        self.ineqs.append(Affine(coeffs, const))

    def add_cone(self, l0, l1, l2):
        self.cones.append(Cone(Affine(*l0) if isinstance(l0, tuple) else l0,
                               Affine(*l1) if isinstance(l1, tuple) else l1,
                               Affine(*l2) if isinstance(l2, tuple) else l2))

    def satisfied(self, x) -> bool:
        if len(x) != self.nvars:
            return False
        xs, xden = integer_vector(x)
        if any(e._num(xs, xden) for e in self.eqs):
            return False
        if any(h._num(xs, xden) < 0 for h in self.ineqs):
            return False
        for cone in self.cones:
            w0, gap, _ = cone._parts(xs, xden)
            if w0 < 0 or gap < 0:
                return False
        return True


@dataclass
class Verdict:
    status: str
    witness: list | None = None
    certificate: object = None
    method: str = ""
    resolution: int | None = None

    def __bool__(self):
        return self.status == FEASIBLE


def circle_points(steps: int):
    """Rational points on the unit circle from the t -> theta(t) grid.

    theta(t) = ((1-t^2)/(1+t^2), 2t/(1+t^2)) for t = k/steps, |k| <= steps,
    together with the antipodes; grids for divisible step counts nest.
    """
    cached = _CIRCLE_CACHE.get(steps)
    if cached is not None:
        return cached
    pts = []
    seen = set()
    for k in range(-steps, steps + 1):
        t = Fraction(k, steps)
        den = 1 + t * t
        c, s = (1 - t * t) / den, 2 * t / den
        for p in ((c, s), (-c, -s)):
            if p not in seen:
                seen.add(p)
                pts.append(p)
    _CIRCLE_CACHE[steps] = pts
    return pts


_CIRCLE_CACHE = {}


_SCHEDULE = (2, 12, 60)


def _schedule(cap_steps):
    steps = [s for s in _SCHEDULE if s <= cap_steps]
    if not steps or steps[-1] != cap_steps:
        steps.append(cap_steps)
    return steps


def _outer_constraints(sys: SOCSystem, steps: int):
    """The equalities, the inequalities, then for each cone and each
    direction (c, s) of circle_points(steps) the tangent row
    l0 - c*l1 - s*l2 >= 0.

    With the cone's forms as integer rows over one denominator d and
    (c, s) = (cq, sq) / q, a tangent row is (q*l0 - cq*l1 - sq*l2) / (q*d).
    """
    cons = []
    for e in sys.eqs:
        cons.append((list(e.coeffs), EQ, -e.const))
    for h in sys.ineqs:
        cons.append((list(h.coeffs), GE, -h.const))
    dirs = [integer_vector(p) for p in circle_points(steps)]
    for cone in sys.cones:
        d = lcm(cone.l0.den, cone.l1.den, cone.l2.den)
        rows = list(zip(cone.l0._row(d), cone.l1._row(d), cone.l2._row(d)))
        for (cq, sq), q in dirs:
            den = q * d
            row = [Fraction(q * a - cq * b - sq * e, den)
                   for a, b, e in rows]
            const = row.pop()
            cons.append((row, GE, -const))
    return cons


def _outer_infeasible(sys: SOCSystem, steps: int):
    res = lp_feasible(sys.nvars, _outer_constraints(sys, steps))
    if res.status == "infeasible":
        return res.farkas
    return None


def _inner_lp(sys: SOCSystem, steps: int, maximize_margin=False):
    """LP on the inscribed-polygon tightening of every cone.

    Feasible points of the LP are exactly feasible for the SOC system.  With
    maximize_margin, an extra variable m (capped at 1) is pushed into every
    cone: l0 - m >= gauge(l1, l2), so m > 0 certifies a strict interior point.
    """
    dirs = circle_points(steps)
    npts = len(dirs)
    extra = 1 if maximize_margin else 0
    nv = sys.nvars + extra + len(sys.cones) * npts
    nonneg = range(sys.nvars + extra, nv)

    def pad(coeffs):
        return list(coeffs) + [0] * (nv - len(coeffs))

    cons = []
    for e in sys.eqs:
        cons.append((pad(e.coeffs), EQ, -e.const))
    for h in sys.ineqs:
        cons.append((pad(h.coeffs), GE, -h.const))
    at = sys.nvars + extra
    for cone in sys.cones:
        row1 = pad(cone.l1.coeffs)
        row2 = pad(cone.l2.coeffs)
        row0 = pad(cone.l0.coeffs)
        for j, (c, s) in enumerate(dirs):
            row1[at + j] = -c
            row2[at + j] = -s
            row0[at + j] = -1
        if maximize_margin:
            row0[sys.nvars] = -1
        cons.append((row1, EQ, -cone.l1.const))
        cons.append((row2, EQ, -cone.l2.const))
        cons.append((row0, GE, -cone.l0.const))
        at += npts
    if maximize_margin:
        mvar = [0] * nv
        mvar[sys.nvars] = 1
        cons.append((mvar, LE, 1))
        res = solve_lp(nv, cons, objective=mvar, maximize=True,
                       nonneg=nonneg)
        if res.status != "optimal":
            return None, None
        return res.x[:sys.nvars], res.x[sys.nvars]
    res = solve_lp(nv, cons, nonneg=nonneg)
    if res.status == "optimal":
        return res.x[:sys.nvars], None
    return None, None


def _numeric_candidate(sys: SOCSystem):
    """Floats within 1e-9 of feasible after at most 20000 rounds of cyclic
    projection, or None.  A round maps x to x - P(x - x0), with x0 an exact
    solution of the equalities and P the exact projector onto their row
    space (both rounded once), then steps along the gradient of each
    violated inequality and cone."""
    tol = 1e-9
    rows = [list(e.coeffs) for e in sys.eqs]
    x0 = linalg.solve(rows, [-e.const for e in sys.eqs])
    if x0 is None:
        return None
    red, pivots = linalg.rref(rows)
    proj = pivots and [[float(v) for v in row] for row in
                       linalg.column_span_projector(red[:len(pivots)])]
    shift = [float(v) for v in x0]

    def floats(aff):
        return [float(c) for c in aff.coeffs], float(aff.const)

    def value(form, x):
        return sum(a * b for a, b in zip(form[0], x)) + form[1]

    eqs = [floats(e) for e in sys.eqs]
    ineqs = [floats(h) for h in sys.ineqs]
    cones = [(floats(c.l0), floats(c.l1), floats(c.l2)) for c in sys.cones]

    def violation(x):
        return max([0.0] + [abs(value(e, x)) for e in eqs]
                   + [-value(h, x) for h in ineqs]
                   + [(value(f1, x) ** 2 + value(f2, x) ** 2) ** 0.5
                      - value(f0, x) for f0, f1, f2 in cones])

    x = [0.0] * sys.nvars
    for _ in range(20000):
        if proj:
            d = [a - b for a, b in zip(x, shift)]
            x = [a - sum(p * b for p, b in zip(row, d))
                 for a, row in zip(x, proj)]
        moved = False
        for h in ineqs:
            val = value(h, x)
            nrm = sum(a * a for a in h[0])
            if val < -tol * 0.01 and nrm > 0:
                x = [a - (val / nrm) * b for a, b in zip(x, h[0])]
                moved = True
        for f0, f1, f2 in cones:
            v0, v1, v2 = value(f0, x), value(f1, x), value(f2, x)
            r = (v1 * v1 + v2 * v2) ** 0.5
            if r - v0 > tol * 0.01:
                # the gradient of r - l0; at r == 0 (v1 == v2 == 0) it is -l0
                grad = [(v1 * a + v2 * b) / (r or 1.0) - c
                        for a, b, c in zip(f1[0], f2[0], f0[0])]
                nrm = sum(a * a for a in grad)
                if nrm > 0:
                    x = [a - ((r - v0) / nrm) * b for a, b in zip(x, grad)]
                    moved = True
        if not moved and violation(x) < tol:
            break
    return x if violation(x) < tol else None


_POLISH_DENOMINATORS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 100, 1000,
                        10**6, 10**9, 10**12)


def _polish(sys: SOCSystem, x_float):
    for d in _POLISH_DENOMINATORS:
        cand = [Fraction(float(v)).limit_denominator(d) for v in x_float]
        if sys.satisfied(cand):
            return cand
    return None


def soc_feasible(sys: SOCSystem, resolution: int = 240,
                 allow_numeric: bool = True) -> Verdict:
    """Decide feasibility; FEASIBLE always carries an exact witness."""
    cap = max(2, resolution // 4)
    steps_list = _schedule(cap)
    for steps in steps_list:
        witness, _ = _inner_lp(sys, steps)
        if witness is not None:
            if not sys.satisfied(witness):
                raise AssertionError("inner witness failed exact verification")
            return Verdict(FEASIBLE, witness=witness,
                           method="inner-polytope", resolution=steps)
        farkas = _outer_infeasible(sys, steps)
        if farkas is not None:
            return Verdict(INFEASIBLE, certificate=farkas,
                           method="outer-relaxation", resolution=steps)
    if allow_numeric:
        cand = _numeric_candidate(sys)
        if cand is not None:
            witness = _polish(sys, cand)
            if witness is not None:
                return Verdict(FEASIBLE, witness=witness,
                               method="numeric-polish")
    return Verdict(UNKNOWN, method="exhausted", resolution=steps_list[-1])


@dataclass
class ExclusionCertificate:
    """Conic-combination proof that a wall misses the feasible set.

    With rho >= 0 over the other cones, nu >= 0 over the inequalities and
    free multipliers over the equalities (one list per identity, each as
    long as the equality list), the identities

        l0_k = sum rho_j l0_j + sum nu_m h_m + (eq combo) + eps0
        l1_k = sum rho_j l1_j + (eq combo) + delta1
        l2_k = sum rho_j l2_j + (eq combo) + delta2

    with eps0 > ||(delta1, delta2)|| force l0_k - ||(l1_k, l2_k)|| >=
    eps0 - ||delta|| > 0 on the entire feasible set.
    """

    wall: int
    rho: list
    nu: list
    eq_mults: list  # three lists, one per identity
    eps0: Fraction
    delta: tuple

    def verify(self, sys: SOCSystem) -> bool:
        k = self.wall
        if k not in range(len(sys.cones)):
            return False
        others = [j for j in range(len(sys.cones)) if j != k]
        if (len(self.rho) != len(others) or len(self.nu) != len(sys.ineqs)
                or len(self.eq_mults) != 3 or len(self.delta) != 2
                or any(len(part) != len(sys.eqs) for part in self.eq_mults)):
            return False
        if any(r < 0 for r in self.rho) or any(v < 0 for v in self.nu):
            return False
        n = sys.nvars
        target = sys.cones[k]
        for part, extra_const, mults in (
                (0, self.eps0, self.nu), (1, self.delta[0], None),
                (2, self.delta[1], None)):
            sel = (lambda c, p=part: (c.l0, c.l1, c.l2)[p])
            combo_coeffs = [Fraction(0)] * n
            combo_const = extra_const
            for r, j in zip(self.rho, others):
                aff = sel(sys.cones[j])
                for v in range(n):
                    combo_coeffs[v] += r * aff.coeffs[v]
                combo_const += r * aff.const
            if mults is not None:
                for m, h in zip(mults, sys.ineqs):
                    for v in range(n):
                        combo_coeffs[v] += m * h.coeffs[v]
                    combo_const += m * h.const
            for sm, e in zip(self.eq_mults[part], sys.eqs):
                for v in range(n):
                    combo_coeffs[v] += sm * e.coeffs[v]
                combo_const += sm * e.const
            taff = sel(target)
            if list(taff.coeffs) != combo_coeffs or taff.const != combo_const:
                return False
        return (self.eps0 > 0
                and self.eps0 ** 2 > self.delta[0] ** 2 + self.delta[1] ** 2)


def wall_exclusion_certificate(sys: SOCSystem, k: int):
    """Search for an ExclusionCertificate for cone k by exact LP."""
    others = [j for j in range(len(sys.cones)) if j != k]
    n = sys.nvars
    nr, ni, ne = len(others), len(sys.ineqs), len(sys.eqs)
    # variables: rho (nr) | nu (ni) | sigma0, sigma1, sigma2 (ne each)
    #            | eps0 | delta1 | delta2 | s
    nv = nr + ni + 3 * ne + 4
    at_eps = nr + ni + 3 * ne
    cons = []

    def unit(i):
        row = [0] * nv
        row[i] = 1
        return row

    for i in range(nr):
        cons.append((unit(i), GE, 0))
    for i in range(ni):
        cons.append((unit(nr + i), GE, 0))

    target = sys.cones[k]
    for part in range(3):
        sel = (lambda c, p=part: (c.l0, c.l1, c.l2)[p])
        taff = sel(target)
        for v in range(n + 1):  # coefficient rows then the constant row
            row = [0] * nv
            for idx, j in enumerate(others):
                aff = sel(sys.cones[j])
                row[idx] = aff.coeffs[v] if v < n else aff.const
            if part == 0:
                for m, h in enumerate(sys.ineqs):
                    row[nr + m] = h.coeffs[v] if v < n else h.const
            for p, e in enumerate(sys.eqs):
                row[nr + ni + part * ne + p] = e.coeffs[v] if v < n else e.const
            rhs = taff.coeffs[v] if v < n else taff.const
            if v == n:
                row[at_eps + part] = 1  # eps0 / delta1 / delta2
            cons.append((row, EQ, rhs))

    # margin: eps0 - (+-delta1) - (+-delta2) >= s, s <= 1
    for s1 in (1, -1):
        for s2 in (1, -1):
            row = [0] * nv
            row[at_eps] = 1
            row[at_eps + 1] = -s1
            row[at_eps + 2] = -s2
            row[at_eps + 3] = -1
            cons.append((row, GE, 0))
    cons.append((unit(at_eps + 3), LE, 1))

    res = solve_lp(nv, cons, objective=unit(at_eps + 3), maximize=True)
    if res.status != "optimal" or res.value <= 0:
        return None
    x = res.x
    cert = ExclusionCertificate(
        wall=k,
        rho=x[:nr],
        nu=x[nr:nr + ni],
        eq_mults=[x[nr + ni + p * ne:nr + ni + (p + 1) * ne] for p in range(3)],
        eps0=x[at_eps],
        delta=(x[at_eps + 1], x[at_eps + 2]),
    )
    if not cert.verify(sys):
        return None
    return cert


def _wall_probe_system(sys: SOCSystem, k: int, c, s) -> SOCSystem:
    """sys with cone k replaced by its wall ray in direction (c, s).

    On the wall with (l1, l2) pointing along (c, s): l1 = c*l0, l2 = s*l0,
    l0 >= 0.  These equalities imply the cone constraint, so cone k is
    dropped; any feasible point lies exactly on the wall.
    """
    cone = sys.cones[k]
    probe = SOCSystem(sys.nvars, list(sys.eqs), list(sys.ineqs),
                      [cn for j, cn in enumerate(sys.cones) if j != k])
    for lpart, f in ((cone.l1, c), (cone.l2, s)):
        coeffs = [a - f * b for a, b in zip(lpart.coeffs, cone.l0.coeffs)]
        probe.eqs.append(Affine(coeffs, lpart.const - f * cone.l0.const))
    probe.ineqs.append(cone.l0)
    return probe


def boundary_meet(sys: SOCSystem, k: int,
                  sweep_resolution: int = 720) -> Verdict:
    """Does the feasible set touch the wall l0 = ||(l1, l2)|| of cone k?

    Tries the exact exclusion certificate first, then sweeps rational unit
    directions theta, pinning the wall of cone k to the ray along theta and
    testing the remaining convex system.  A feasible probe point lies
    exactly on the wall; sweep exhaustion without a hit yields UNKNOWN.
    A FEASIBLE answer at some resolution persists at any finer one because
    the direction grids nest.
    """
    cone = sys.cones[k]
    cert = wall_exclusion_certificate(sys, k)
    if cert is not None:
        return Verdict(INFEASIBLE, certificate=cert,
                       method="exclusion-certificate")
    cap = max(2, sweep_resolution // 4)
    tried = set()
    for steps in _schedule(cap):
        for c, s in circle_points(steps):
            if (c, s) in tried:
                continue
            tried.add((c, s))
            probe = _wall_probe_system(sys, k, c, s)
            if _outer_infeasible(probe, 2) is not None:
                continue
            for inner_steps in _schedule(12):
                witness, _ = _inner_lp(probe, inner_steps)
                if witness is not None:
                    if not (sys.satisfied(witness) and cone.on_wall(witness)):
                        raise AssertionError("sweep point not exactly on wall")
                    return Verdict(FEASIBLE, witness=witness, method="sweep",
                                   resolution=steps)
    return Verdict(UNKNOWN, method="sweep-exhausted", resolution=cap)


def _outer_margin_bound(sys: SOCSystem, steps: int):
    """Exact upper bound for sup of min_k (l0_k - ||l_k||), or None if empty.

    The outer relaxation with a margin column m: 0 on the equality and
    inequality rows, -1 on the tangent rows (l0 - c*l1 - s*l2 - m >= 0).
    """
    nlin = len(sys.eqs) + len(sys.ineqs)
    cons = _outer_constraints(sys, steps)
    for i, (coeffs, _, _) in enumerate(cons):
        coeffs.append(0 if i < nlin else -1)
    mrow = [0] * sys.nvars + [1]
    cons.append((mrow, LE, 1))
    res = solve_lp(sys.nvars + 1, cons, objective=mrow, maximize=True)
    if res.status == "infeasible":
        return None
    assert res.status == "optimal"
    return res.value


def strict_interior_point(sys: SOCSystem, resolution: int = 240):
    """A rational point with every cone strictly slack, or a verdict why not.

    Returns (point, Verdict).  point is None with status INFEASIBLE when the
    strict system is certifiably empty (relaxed margin bound <= 0), UNKNOWN
    otherwise.
    """
    cap = max(2, resolution // 4)
    steps_list = _schedule(cap)
    for steps in steps_list:
        witness, margin = _inner_lp(sys, steps, maximize_margin=True)
        if witness is not None and margin is not None and margin > 0:
            if not sys.satisfied(witness):
                raise AssertionError("interior witness failed verification")
            assert all(cone.l0(witness) > 0 and cone.gap_sq(witness) > 0
                       for cone in sys.cones)
            return witness, Verdict(FEASIBLE, witness=witness,
                                    method="inner-margin", resolution=steps)
        bound = _outer_margin_bound(sys, steps)
        if bound is None:
            return None, Verdict(INFEASIBLE, certificate="relaxation-empty",
                                 method="outer-empty", resolution=steps)
        if bound <= 0:
            return None, Verdict(INFEASIBLE, certificate=("margin-bound", bound),
                                 method="outer-margin-bound", resolution=steps)
    return None, Verdict(UNKNOWN, method="interior-unresolved",
                         resolution=steps_list[-1])


def positively_spanning(u_columns) -> bool:
    """True iff {s : <s, u_k> >= 0 for all k} = {0}.

    Decided by 2n exact LPs maximizing +-s_i over the dual cone; the cone is
    trivial iff every coordinate functional is bounded (by 0) on it.
    """
    if not u_columns:
        return False
    n = len(u_columns[0])
    cons = [(col, GE, 0) for col in u_columns]
    for i in range(n):
        for sign in (1, -1):
            obj = [0] * n
            obj[i] = sign
            res = solve_lp(n, cons, objective=obj, maximize=True)
            if res.status == "unbounded":
                return False
            assert res.status == "optimal" and res.value == 0
    return True
