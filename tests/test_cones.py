from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spliths import cones
from spliths.cones import (FEASIBLE, INFEASIBLE, UNKNOWN, Affine,
                           ExclusionCertificate, SOCSystem, boundary_meet,
                           circle_points, positively_spanning, soc_feasible,
                           strict_interior_point, wall_exclusion_certificate)
from spliths.lp import EQ, GE, LE, LPResult


def single_cone():
    """a >= |(b1, b2)| over variables (a, b1, b2)."""
    s = SOCSystem(3)
    s.add_cone(Affine([1, 0, 0]), Affine([0, 1, 0]), Affine([0, 0, 1]))
    return s


def test_circle_points_are_exact_and_nested():
    for steps in (2, 12, 60):
        for c, s in circle_points(steps):
            assert c * c + s * s == 1
    coarse = set(circle_points(2))
    fine = set(circle_points(12))
    assert coarse <= fine
    assert (Fraction(1), Fraction(0)) in coarse
    assert (Fraction(0), Fraction(1)) in coarse


def test_vertex_feasible():
    v = soc_feasible(single_cone())
    assert v.status == FEASIBLE
    assert single_cone().satisfied(v.witness)


def test_pinned_apex_feasible_at_origin():
    s = single_cone()
    s.add_eq([1, 0, 0])  # a = 0 forces the apex
    v = soc_feasible(s)
    assert v.status == FEASIBLE
    assert v.witness == [Fraction(0), Fraction(0), Fraction(0)]


def test_negative_apex_infeasible():
    s = single_cone()
    s.add_ineq([-1, 0, 0], -1)  # a <= -1
    v = soc_feasible(s)
    assert v.status == INFEASIBLE
    assert v.certificate is not None


def test_tangent_translated_cones_share_one_point():
    s = SOCSystem(3)
    s.add_cone(Affine([1, 0, 0]), Affine([0, 1, 0], -1), Affine([0, 0, 1]))
    s.add_cone(Affine([-1, 0, 0]), Affine([0, 1, 0], -1), Affine([0, 0, 1]))
    v = soc_feasible(s)
    assert v.status == FEASIBLE
    assert v.witness == [Fraction(0), Fraction(1), Fraction(0)]


def test_own_wall_contains_vertex():
    v = boundary_meet(single_cone(), 0)
    assert v.status == FEASIBLE
    assert v.witness == [Fraction(0), Fraction(0), Fraction(0)]


def test_wall_point_found_by_sweep_at_axis_direction():
    s = single_cone()
    s.add_eq([1, 0, 0], -1)  # a = 1
    v = boundary_meet(s, 0)
    assert v.status == FEASIBLE
    a, b1, b2 = v.witness
    assert a == 1 and b1 * b1 + b2 * b2 == 1


def _nested_cones():
    s = SOCSystem(3)
    s.add_cone(Affine([1, 0, 0]), Affine([0, 1, 0]), Affine([0, 0, 1]))
    s.add_cone(Affine([1, 0, 0], -1), Affine([0, 1, 0]), Affine([0, 0, 1]))
    return s


def test_exclusion_certificate_for_strictly_nested_cone():
    s = _nested_cones()
    cert = wall_exclusion_certificate(s, 0)
    assert cert is not None and cert.verify(s)
    v = boundary_meet(s, 0)
    assert v.status == INFEASIBLE and v.method == "exclusion-certificate"
    # the shrunk cone's own wall is met (it contains its apex)
    assert boundary_meet(s, 1).status == FEASIBLE


def test_sweep_monotone_in_resolution():
    s = single_cone()
    s.add_eq([1, 0, 0], -1)
    results = []
    for res in (8, 48, 240):
        v = boundary_meet(s, 0, sweep_resolution=res)
        results.append(v.status)
        if v.status == FEASIBLE:
            assert s.satisfied(v.witness)
    # once feasible, finer sweeps stay feasible (nested grids)
    first = results.index(FEASIBLE)
    assert all(r == FEASIBLE for r in results[first:])


def test_positively_spanning():
    assert positively_spanning([[1], [-1]])
    assert not positively_spanning([[1], [1]])
    assert not positively_spanning([[1, 0], [0, 1]])
    assert positively_spanning([[1, 0], [0, 1], [-1, -1]])


def test_positively_spanning_invariances(rng):
    base = [[1, 0], [0, 1], [-1, -1]]
    for _ in range(10):
        perm = list(base)
        rng.shuffle(perm)
        assert positively_spanning(perm)
    # unimodular change of basis applied to every vector
    g = [[1, 1], [0, 1]]
    transformed = [[g[0][0] * u[0] + g[0][1] * u[1],
                    g[1][0] * u[0] + g[1][1] * u[1]] for u in base]
    assert positively_spanning(transformed)
    assert not positively_spanning(
        [[g[0][0] * u[0] + g[0][1] * u[1], g[1][0] * u[0] + g[1][1] * u[1]]
         for u in [[1, 0], [0, 1]]])


def test_strict_interior():
    pt, v = strict_interior_point(single_cone())
    assert pt is not None and v.status == FEASIBLE
    assert single_cone().cones[0].gap_sq(pt) > 0


def test_strict_interior_empty_certified():
    s = SOCSystem(3)
    s.add_cone(Affine([1, 0, 0]), Affine([0, 1, 0]), Affine([0, 0, 1]))
    s.add_cone(Affine([-1, 0, 0]), Affine([0, 1, 0]), Affine([0, 0, 1]))
    pt, v = strict_interior_point(s)
    assert pt is None and v.status == INFEASIBLE


def test_numeric_polish_path():
    # force the boundary direction (7/25, 24/25) out of the coarse polygon
    s = single_cone()
    s.add_eq([0, 1, 0], -7)
    s.add_eq([0, 0, 1], -24)
    s.add_ineq([-1, 0, 0], 25)  # a <= 25
    v = soc_feasible(s, resolution=8)
    assert v.status == FEASIBLE
    assert v.witness == [Fraction(25), Fraction(7), Fraction(24)]
    assert v.method == "numeric-polish"


def test_honest_unknown_for_irrational_only_point():
    s = single_cone()
    s.add_eq([0, 1, 0], -1)
    s.add_eq([0, 0, 1], -1)
    # a must equal sqrt(2) but is capped just below it
    s.add_ineq([-1, 0, 0], Fraction(141421356237, 100000000000))
    v = soc_feasible(s, resolution=16)
    assert v.status == UNKNOWN


_NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from fractions import Fraction
from spliths.cones import Affine, SOCSystem, soc_feasible
from spliths.toric import ToricConfig, cone_system

s = SOCSystem(3)
s.add_cone(Affine([1, 0, 0]), Affine([0, 1, 0]), Affine([0, 0, 1]))
s.add_eq([0, 1, 0], -7)
s.add_eq([0, 0, 1], -24)
s.add_ineq([-1, 0, 0], 25)
v = soc_feasible(s, resolution=8)
print(v.status, v.method, [str(e) for e in v.witness])
# the thin lens at lambda_c = 1 + i/7, delta = 1.0102: K is decided only by
# the numeric fallback
lens = ToricConfig([[1], [-1]], [0, Fraction("-1.0102")], [0, 1],
                   [0, Fraction(1, 7)])
k = cone_system(lens)
v = soc_feasible(k)
print(v.status, v.method, k.satisfied(v.witness))
"""


def test_numeric_fallback_runs_without_numpy():
    import os
    import subprocess
    import sys

    import spliths

    src = os.path.dirname(os.path.dirname(spliths.__file__))
    res = subprocess.run([sys.executable, "-c", _NO_NUMPY],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "feasible numeric-polish ['25', '7', '24']",
        "feasible numeric-polish True"]


def test_numeric_candidate_inconsistent_equalities():
    s = single_cone()
    s.add_eq([0, 1, 0], -1)
    s.add_eq([0, 2, 0], -3)
    assert cones._numeric_candidate(s) is None
    assert soc_feasible(s, resolution=8).status == INFEASIBLE


def test_every_feasible_witness_reverifies():
    # randomized mix of cones and half-spaces; any FEASIBLE must satisfy
    import random

    rng = random.Random(5)
    for _ in range(25):
        s = SOCSystem(3)
        for _ in range(rng.randint(1, 3)):
            shift = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
            s.add_cone(Affine([1, 0, 0], shift[0]),
                       Affine([0, 1, 0], shift[1]),
                       Affine([0, 0, 1], shift[2]))
        if rng.random() < 0.5:
            s.add_ineq([rng.choice([-1, 1]), 0, 0], Fraction(rng.randint(-2, 2)))
        v = soc_feasible(s, resolution=48)
        if v.status == FEASIBLE:
            assert s.satisfied(v.witness)


def test_wrong_length_point_raises():
    cone = single_cone().cones[0]
    for method in (cone.satisfied, cone.on_wall, cone.gap_sq):
        with pytest.raises(ValueError):
            method([Fraction(1)])
    with pytest.raises(ValueError):
        Affine([1])([2, 3])
    with pytest.raises(ValueError):
        Affine([1, 2])([2])
    assert not single_cone().satisfied([Fraction(1)])
    assert not single_cone().satisfied([Fraction(0)] * 4)


def test_exclusion_certificate_rejects_malformed():
    s = _nested_cones()
    cert = wall_exclusion_certificate(s, 0)
    assert cert.verify(s)

    def variant(**changes):
        fields = dict(wall=cert.wall, rho=list(cert.rho), nu=list(cert.nu),
                      eq_mults=[list(p) for p in cert.eq_mults],
                      eps0=cert.eps0, delta=cert.delta)
        fields.update(changes)
        return ExclusionCertificate(**fields)

    assert variant().verify(s)
    assert not variant(rho=list(cert.rho) + [Fraction(1)]).verify(s)
    assert not variant(rho=[]).verify(s)
    assert not variant(nu=[Fraction(0)]).verify(s)
    assert not variant(eq_mults=[[1], [2], [3]]).verify(s)
    assert not variant(eq_mults=[[], []]).verify(s)
    assert not variant(wall=-1).verify(s)
    assert not variant(wall=2).verify(s)
    assert not variant(delta=tuple(cert.delta) + (Fraction(5),)).verify(s)
    # with equalities and inequalities the exact lengths still verify
    s.add_eq([0, 0, 1])
    s.add_ineq([1, 0, 0], 1)
    cert = wall_exclusion_certificate(s, 0)
    assert cert is not None and cert.verify(s)
    assert len(cert.nu) == 1 and all(len(p) == 1 for p in cert.eq_mults)
    assert not variant(nu=[]).verify(s)
    assert not variant(eq_mults=[list(p) + [0] for p in cert.eq_mults]).verify(s)


# -- differential checks against Fraction evaluation -------------------------
#
# The references below evaluate forms and build relaxation rows with one
# Fraction multiply and add per entry, as this module did before it kept
# each form as integers over one denominator.


def _ref_value(aff, x):
    return sum(c * v for c, v in zip(aff.coeffs, x)) + aff.const


def _ref_gap_sq(cone, x):
    return (_ref_value(cone.l0, x) ** 2 - _ref_value(cone.l1, x) ** 2
            - _ref_value(cone.l2, x) ** 2)


def _ref_tangent_rows(sys, steps, margin):
    rows = []
    for cone in sys.cones:
        for c, s in circle_points(steps):
            coeffs = [a - c * b - s * d for a, b, d in
                      zip(cone.l0.coeffs, cone.l1.coeffs, cone.l2.coeffs)]
            coeffs += [Fraction(-1)] * margin
            rows.append((coeffs, GE, -(cone.l0.const - c * cone.l1.const
                                       - s * cone.l2.const)))
    return rows


def _ref_outer_constraints(sys, steps, margin=0):
    pad = [Fraction(0)] * margin
    cons = [(list(e.coeffs) + pad, EQ, -e.const) for e in sys.eqs]
    cons += [(list(h.coeffs) + pad, GE, -h.const) for h in sys.ineqs]
    return cons + _ref_tangent_rows(sys, steps, margin)


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


@st.composite
def _forms(draw, nvars):
    return (draw(st.lists(_ENTRIES, min_size=nvars, max_size=nvars)),
            draw(_ENTRIES))


@st.composite
def _points_and_cones(draw):
    """A point x, and cones with prescribed values of l0, l1, l2 at x.

    The value of l1, l2 is r*(c, s) for a rational circle point (c, s); l0
    is +-|r| (exactly on the wall or its negative nappe) or any value."""
    nvars = 3 * draw(st.integers(1, 3))
    x = draw(st.lists(_ENTRIES, min_size=nvars, max_size=nvars))
    sys = SOCSystem(nvars)
    for _ in range(draw(st.integers(1, 3))):
        r = draw(_ENTRIES)
        c, s = draw(st.sampled_from(circle_points(12)))
        v0 = draw(st.sampled_from([abs(r), -abs(r), r + 1, r - Fraction(1, 7)])
                  | _ENTRIES)
        parts = []
        for want in (v0, r * c, r * s):
            coeffs, const = draw(_forms(nvars))
            if draw(st.booleans()):  # shift the constant onto the target
                const = want - sum(a * b for a, b in zip(coeffs, x))
            parts.append(Affine(coeffs, const))
        sys.add_cone(*parts)
    for _ in range(draw(st.integers(0, 2))):
        sys.add_eq(*draw(_forms(nvars)))
    for _ in range(draw(st.integers(0, 2))):
        sys.add_ineq(*draw(_forms(nvars)))
    return sys, x


@settings(max_examples=150, deadline=None)
@given(_points_and_cones())
def test_evaluation_matches_fractions(case):
    sys, x = case
    for aff in sys.eqs + sys.ineqs + [f for c in sys.cones
                                      for f in (c.l0, c.l1, c.l2)]:
        got = aff(x)
        assert type(got) is Fraction and got == _ref_value(aff, x)
        assert aff(x) == aff([int(v) if v.denominator == 1 else v for v in x])
    ok = True
    for cone in sys.cones:
        gap = cone.gap_sq(x)
        assert type(gap) is Fraction and gap == _ref_gap_sq(cone, x)
        l0 = _ref_value(cone.l0, x)
        assert cone.satisfied(x) == (l0 >= 0 and gap >= 0)
        assert cone.on_wall(x) == (l0 >= 0 and gap == 0)
        ok = ok and cone.satisfied(x)
    for e in sys.eqs:
        assert SOCSystem(sys.nvars, eqs=[e]).satisfied(x) == (
            _ref_value(e, x) == 0)
    for h in sys.ineqs:
        assert SOCSystem(sys.nvars, ineqs=[h]).satisfied(x) == (
            _ref_value(h, x) >= 0)
    ok = (ok and all(_ref_value(e, x) == 0 for e in sys.eqs)
          and all(_ref_value(h, x) >= 0 for h in sys.ineqs))
    assert sys.satisfied(x) == ok


def test_signs_next_to_zero():
    # values -1/(den * xden) and +1/(den * xden): integer numerators -1, 1
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    for sign in (-1, 1):
        x = [sign * third]
        assert SOCSystem(1, ineqs=[Affine([1])]).satisfied(x) == (sign > 0)
        assert not SOCSystem(1, eqs=[Affine([1])]).satisfied(x)
        cone = Affine([Fraction(1, 2)]), Affine([0]), Affine([0])
        s = SOCSystem(1)
        s.add_cone(*cone)
        assert s.satisfied(x) == s.cones[0].satisfied(x) == (sign > 0)
        assert s.cones[0].gap_sq(x) == sixth * sixth
    assert SOCSystem(1, eqs=[Affine([1], -third)]).satisfied([third])


def test_evaluation_on_exact_wall_points():
    s = single_cone()
    for c, t in circle_points(12):
        for r in (Fraction(3, 7), Fraction(5), Fraction(0)):
            x = [r, r * c, r * t]
            cone = s.cones[0]
            assert cone.on_wall(x) and cone.satisfied(x) and s.satisfied(x)
            assert cone.gap_sq(x) == 0 and type(cone.gap_sq(x)) is Fraction
            if r:
                x = [-r, r * c, r * t]
                assert not cone.on_wall(x) and not cone.satisfied(x)


@settings(max_examples=100, deadline=None)
@given(_points_and_cones(), st.sampled_from([2, 12]))
def test_outer_rows_match_fraction_rows(case, steps):
    sys, _ = case
    got = cones._outer_constraints(sys, steps)
    assert got == _ref_outer_constraints(sys, steps)
    assert all(type(v) is Fraction for row, _, rhs in got for v in row + [rhs])


@settings(max_examples=100, deadline=None)
@given(_points_and_cones(), st.sampled_from([2, 12]))
def test_margin_bound_rows_match_fraction_rows(case, steps):
    sys, _ = case
    seen = []

    def capture(nvars, cons, **kwargs):
        seen.append((nvars, cons))
        return LPResult("infeasible")

    with mock.patch.object(cones, "solve_lp", capture):
        cones._outer_margin_bound(sys, steps)
    (nvars, cons), = seen
    mrow = [Fraction(0)] * sys.nvars + [Fraction(1)]
    assert nvars == sys.nvars + 1
    assert cons == _ref_outer_constraints(sys, steps, margin=1) + [
        (mrow, LE, 1)]


# -- the numeric fallback against its numpy reference ------------------------
#
# The reference is the cyclic projection as this module ran it with numpy:
# the equality step through the pseudo-inverse, float(c) per coefficient
# per round.  numpy is a test dependency only.

def _ref_numeric_candidate(sys, tol=1e-9, iters=20000):
    import numpy as np

    x = np.zeros(sys.nvars)
    a_eq = np.array([[float(c) for c in e.coeffs] for e in sys.eqs]) \
        if sys.eqs else None
    b_eq = np.array([-float(e.const) for e in sys.eqs]) if sys.eqs else None
    pinv = np.linalg.pinv(a_eq) if sys.eqs else None

    def feval(aff, x):
        return float(sum(float(c) * xi for c, xi in zip(aff.coeffs, x))
                     + float(aff.const))

    def violation(x):
        worst = 0.0
        if sys.eqs:
            worst = max(worst, float(np.max(np.abs(a_eq @ x - b_eq))))
        for h in sys.ineqs:
            worst = max(worst, -min(0.0, feval(h, x)))
        for cone in sys.cones:
            v0, v1, v2 = feval(cone.l0, x), feval(cone.l1, x), feval(cone.l2, x)
            worst = max(worst, (v1 * v1 + v2 * v2) ** 0.5 - v0)
        return worst

    for _ in range(iters):
        if sys.eqs:
            x = x - pinv @ (a_eq @ x - b_eq)
        moved = False
        for h in sys.ineqs:
            val = feval(h, x)
            if val < -tol * 0.01:
                g = np.array([float(c) for c in h.coeffs])
                nrm = float(g @ g)
                if nrm > 0:
                    x = x - (val / nrm) * g
                    moved = True
        for cone in sys.cones:
            v0, v1, v2 = feval(cone.l0, x), feval(cone.l1, x), feval(cone.l2, x)
            r = (v1 * v1 + v2 * v2) ** 0.5
            gval = r - v0
            if gval > tol * 0.01:
                g0 = np.array([float(c) for c in cone.l0.coeffs])
                g1 = np.array([float(c) for c in cone.l1.coeffs])
                g2 = np.array([float(c) for c in cone.l2.coeffs])
                grad = -g0 if r == 0 else (v1 * g1 + v2 * g2) / r - g0
                nrm = float(grad @ grad)
                if nrm > 0:
                    x = x - (gval / nrm) * grad
                    moved = True
        if not moved and violation(x) < tol:
            break
    return x if violation(x) < tol else None


def _system_through(rng, nvars):
    """Cones, equalities and inequalities that all hold at a random rational
    point p (cones with slack 0 or 1/2 above a rational bound on the norm),
    while the origin, where the projections start, is seldom feasible."""
    import math

    p = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(nvars)]

    def form():
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(nvars)]
        return coeffs, Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def at_p(coeffs, const):
        return sum(c * v for c, v in zip(coeffs, p)) + const

    s = SOCSystem(nvars)
    for _ in range(rng.randint(1, 3)):
        l1, l2 = Affine(*form()), Affine(*form())
        norm = math.sqrt(float(l1(p) ** 2 + l2(p) ** 2))
        bound = Fraction(norm).limit_denominator(1000) + Fraction(1, 1000)
        coeffs, _ = form()
        slack = rng.choice([0, Fraction(1, 2)])
        s.add_cone(Affine(coeffs, bound + slack - at_p(coeffs, 0)), l1, l2)
    for _ in range(rng.randint(0, nvars - 1)):
        coeffs, _ = form()
        s.add_eq(coeffs, -at_p(coeffs, 0))
    for _ in range(rng.randint(0, 2)):
        coeffs, _ = form()
        s.add_ineq(coeffs, rng.choice([0, 1]) - at_p(coeffs, 0))
    assert s.satisfied(p)
    return s


def test_numeric_candidate_matches_numpy_reference():
    import random

    rng = random.Random(7)
    found = 0
    for _ in range(40):
        s = _system_through(rng, rng.randint(2, 4))
        ref, cand = _ref_numeric_candidate(s), cones._numeric_candidate(s)
        assert (ref is None) == (cand is None)
        if cand is None:
            continue
        found += 1
        assert max(abs(a - b) for a, b in zip(ref, cand)) < 1e-6
        assert cones._polish(s, cand) == cones._polish(s, list(ref))
    assert found >= 30
