import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spliths.lp import EQ, GE, LE, lp_feasible, solve_lp, verify_farkas


def _check_witness(n, cons, x):
    for coeffs, rel, rhs in cons:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        if rel == LE:
            assert lhs <= rhs
        elif rel == GE:
            assert lhs >= rhs
        else:
            assert lhs == rhs


def test_origin_feasible():
    r = lp_feasible(1, [([1], GE, 0), ([-1], GE, 0)])
    assert r.status == "optimal" and r.x == [0]


def test_infeasible_with_certificate():
    cons = [([1], GE, 1), ([-1], GE, 0)]
    r = lp_feasible(1, cons)
    assert r.status == "infeasible"
    assert verify_farkas(1, cons, r.farkas)
    # solve_lp reads the rows twice (tableau, certificate check)
    assert lp_feasible(1, iter(cons)).farkas == r.farkas


def test_bounded_polytope_vertex():
    cons = [([1, 1], LE, 4), ([1, 0], GE, 1), ([0, 1], GE, 1)]
    r = solve_lp(2, cons, objective=[1, 1], maximize=True)
    assert r.status == "optimal" and r.value == 4
    _check_witness(2, cons, r.x)
    r = solve_lp(2, cons, objective=[1, 1])
    assert r.value == 2 and r.x == [1, 1]


def test_unbounded():
    assert solve_lp(1, [([1], GE, 0)], objective=[1],
                    maximize=True).status == "unbounded"


def test_free_variables_reach_negative_values():
    r = solve_lp(1, [([1], LE, -5)], objective=[1], maximize=True)
    assert r.status == "optimal" and r.value == -5


def test_nonneg_variables():
    r = solve_lp(2, [([1, 1], EQ, 1)], objective=[1, 0], nonneg={0, 1})
    assert r.status == "optimal" and r.value == 0 and r.x == [0, 1]
    cons = [([1, 0], LE, -1)]
    r = solve_lp(2, cons, nonneg={0, 1})
    assert r.status == "infeasible"
    assert verify_farkas(2, cons, r.farkas, nonneg={0, 1})


def test_empty_tableau_objective():
    # no rows at all, or one all-zero row that phase 1 drops as redundant
    for cons in ([], [([0], EQ, 0)]):
        assert solve_lp(1, cons, objective=[1]).status == "unbounded"
        r = solve_lp(1, cons, objective=[1], nonneg={0})
        assert r.status == "optimal" and r.value == 0 and r.x == [0]
        assert solve_lp(1, cons, objective=[1], maximize=True,
                        nonneg={0}).status == "unbounded"


def test_verify_farkas_rejects_bad_signs():
    cons = [([1], GE, 1), ([-1], GE, 0)]
    assert not verify_farkas(1, cons, [-1, -1])
    assert not verify_farkas(1, cons, [1, 2])  # functional does not vanish
    assert not verify_farkas(1, cons, [0, 0])  # rhs combination not positive


def test_random_systems_always_verified():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            rel = rng.choice([LE, GE, EQ])
            cons.append((coeffs, rel, Fraction(rng.randint(-5, 5))))
        res = lp_feasible(n, cons)
        if res.status == "optimal":
            _check_witness(n, cons, res.x)
        else:
            assert res.status == "infeasible"
            assert verify_farkas(n, cons, res.farkas)


def test_random_optima_are_optimal_among_grid(rng):
    # oracle: compare against brute-force over integer grid points that are
    # feasible; the LP optimum must dominate all of them
    for _ in range(40):
        n = rng.randint(1, 2)
        cons = [([Fraction(rng.randint(-3, 3)) for _ in range(n)],
                 rng.choice([LE, GE]), Fraction(rng.randint(-4, 4)))
                for _ in range(rng.randint(1, 4))]
        # bound the box so the LP is bounded
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            cons.append((list(e), LE, Fraction(5)))
            cons.append((list(e), GE, Fraction(-5)))
        obj = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        res = solve_lp(n, cons, objective=obj, maximize=True)
        if res.status != "optimal":
            continue
        grid = range(-5, 6)
        pts = [[Fraction(a)] for a in grid] if n == 1 else [
            [Fraction(a), Fraction(b)] for a in grid for b in grid]
        for p in pts:
            ok = True
            for coeffs, rel, rhs in cons:
                lhs = sum(c * v for c, v in zip(coeffs, p))
                ok = ok and (lhs <= rhs if rel == LE else lhs >= rhs)
            if ok:
                assert sum(c * v for c, v in zip(obj, p)) <= res.value


# -- differential check against the dense Fraction tableau -------------------
#
# The reference below is the textbook dense tableau this module's
# fraction-free kernel replaced: Fraction rows, every pivot over the full
# width.  Both follow Bland's rule with the same ratio test and tie-break,
# so they must take the same pivots and return identical results.


def _dense_pivot(tab, rhs, basis, row, col):
    inv = Fraction(1) / tab[row][col]
    tab[row] = [e * inv for e in tab[row]]
    rhs[row] *= inv
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            f = tab[i][col]
            tab[i] = [a - f * b for a, b in zip(tab[i], tab[row])]
            rhs[i] -= f * rhs[row]
    basis[row] = col


def _dense_simplex(tab, rhs, basis, cost, banned):
    ncols = len(cost)
    zrow = list(cost)
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            zrow = [z - cb * a for z, a in zip(zrow, tab[i])]
    basic = set(basis)
    while True:
        entering = None
        for j in range(ncols):
            if zrow[j] < 0 and j not in banned and j not in basic:
                entering = j
                break
        if entering is None:
            return "optimal"
        leaving = None
        best = None
        for i in range(len(tab)):
            if tab[i][entering] > 0:
                ratio = rhs[i] / tab[i][entering]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            return "unbounded:%d" % entering
        basic.discard(basis[leaving])
        basic.add(entering)
        _dense_pivot(tab, rhs, basis, leaving, entering)
        f = zrow[entering]
        if f != 0:
            zrow = [z - f * a for z, a in zip(zrow, tab[leaving])]


def _dense_solve_lp(nvars, constraints, objective=None, maximize=False,
                    nonneg=()):
    """(status, x, value, farkas) from the dense Fraction tableau."""
    nonneg = set(nonneg)
    m = len(constraints)
    flips = []
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs, rhs = [Fraction(c) for c in coeffs], Fraction(rhs)
        if rhs < 0 or (rel == GE and rhs == 0):
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            flips.append(Fraction(-1))
        else:
            flips.append(Fraction(1))
        rows.append((coeffs, rel, rhs))
    neg_col = {}
    at = nvars
    for j in range(nvars):
        if j not in nonneg:
            neg_col[j] = at
            at += 1
    nslack = sum(1 for _, rel, _ in rows if rel != EQ)
    nart = sum(1 for _, rel, _ in rows if rel != LE)
    ncols = at + nslack + nart
    nx = at
    tab, rhs_col, basis, init_basis, art_cols = [], [], [], [], set()
    s_at = nx
    a_at = nx + nslack
    for coeffs, rel, rhs in rows:
        row = [Fraction(0)] * ncols
        for j, c in enumerate(coeffs):
            row[j] = c
            if j in neg_col:
                row[neg_col[j]] = -c
        if rel == LE:
            row[s_at] = Fraction(1)
            basis.append(s_at)
            init_basis.append(s_at)
            s_at += 1
        else:
            if rel == GE:
                row[s_at] = Fraction(-1)
                s_at += 1
            row[a_at] = Fraction(1)
            basis.append(a_at)
            init_basis.append(a_at)
            art_cols.add(a_at)
            a_at += 1
        tab.append(row)
        rhs_col.append(rhs)
    if art_cols:
        cost1 = [Fraction(0)] * ncols
        for j in art_cols:
            cost1[j] = Fraction(1)
        assert _dense_simplex(tab, rhs_col, basis, cost1, set()) == "optimal"
        p1val = sum(rhs_col[i] for i in range(len(tab))
                    if basis[i] in art_cols)
        if p1val > 0:
            y = []
            for i in range(m):
                col = init_basis[i]
                y.append(sum(cost1[basis[r]] * tab[r][col]
                             for r in range(len(tab))
                             if cost1[basis[r]] != 0))
            return "infeasible", None, None, [f * yi
                                              for f, yi in zip(flips, y)]
        drop = []
        for i in range(len(tab)):
            if basis[i] in art_cols:
                col = next((j for j in range(nx + nslack)
                            if tab[i][j] != 0), None)
                if col is None:
                    drop.append(i)
                else:
                    _dense_pivot(tab, rhs_col, basis, i, col)
        for i in reversed(drop):
            del tab[i], rhs_col[i], basis[i]

    def witness():
        vals = [Fraction(0)] * ncols
        for i, b in enumerate(basis):
            vals[b] = rhs_col[i]
        return [vals[j] - (vals[neg_col[j]] if j in neg_col else 0)
                for j in range(nvars)]

    if objective is None:
        return "optimal", witness(), None, None
    cost2 = [Fraction(0)] * ncols
    for j, c in enumerate(objective):
        c = -Fraction(c) if maximize else Fraction(c)
        cost2[j] = c
        if j in neg_col:
            cost2[neg_col[j]] = -c
    if _dense_simplex(tab, rhs_col, basis, cost2, art_cols).startswith(
            "unbounded"):
        return "unbounded", None, None, None
    x = witness()
    return "optimal", x, sum(c * xi for c, xi in zip(objective, x)), None


def _circle(k):
    """cos and sin of the rational circle point t = k/12: denominators 1+t^2."""
    t = Fraction(k, 12)
    return [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]


_VALUES = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.integers(-3, 3),
    st.sampled_from([Fraction(0)] * 2 + [0] * 2),
    st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6)),
    st.builds(lambda k, i, neg: -_circle(k)[i] if neg else _circle(k)[i],
              st.integers(-12, 12), st.integers(0, 1), st.booleans()),
)


@st.composite
def _lps(draw):
    n = draw(st.integers(1, 4))
    cons = [(draw(st.lists(_VALUES, min_size=n, max_size=n)),
             draw(st.sampled_from([LE, GE, EQ])), draw(_VALUES))
            for _ in range(draw(st.integers(1, 6)))]
    # positive multiples of earlier rows tie in the ratio test
    for i in draw(st.lists(st.integers(0, len(cons) - 1), max_size=3)):
        coeffs, rel, rhs = cons[i]
        f = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 5)]))
        cons.append(([f * c for c in coeffs], rel, f * rhs))
    nonneg = draw(st.sets(st.integers(0, n - 1)))
    objective = draw(st.none() | st.lists(_VALUES, min_size=n, max_size=n))
    return n, cons, nonneg, objective, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(_lps())
def test_matches_dense_fraction_tableau(lp):
    n, cons, nonneg, objective, maximize = lp
    res = solve_lp(n, cons, objective=objective, maximize=maximize,
                   nonneg=nonneg)
    ref = _dense_solve_lp(n, cons, objective, maximize, nonneg)
    assert (res.status, res.x, res.value, res.farkas) == ref
    for got in (res.x, res.farkas):
        assert got is None or all(type(v) is Fraction for v in got)
    assert res.value is None or type(res.value) is Fraction
    if res.status == "infeasible":
        assert verify_farkas(n, cons, res.farkas, nonneg)
    elif res.status == "optimal":
        _check_witness(n, cons, res.x)


# -- verify_farkas against Fraction accumulation ------------------------------


def _ref_verify_farkas(nvars, constraints, mult, nonneg=()):
    """verify_farkas with one Fraction multiply and add per entry."""
    nonneg = set(nonneg)
    if len(mult) != len(constraints):
        return False
    combo = [Fraction(0)] * nvars
    total = Fraction(0)
    for m, (coeffs, rel, rhs) in zip(mult, constraints):
        m = Fraction(m)
        if (rel == GE and m < 0) or (rel == LE and m > 0):
            return False
        for j, c in enumerate(coeffs):
            combo[j] += m * c
        total += m * rhs
    for j, c in enumerate(combo):
        if (c > 0) if j in nonneg else (c != 0):
            return False
    return total > 0


@st.composite
def _certificates(draw):
    """An LP, and its Farkas vector if infeasible (else random multipliers),
    possibly perturbed."""
    n, cons, nonneg, _, _ = draw(_lps())
    res = solve_lp(n, cons, nonneg=nonneg)
    mult = list(res.farkas) if res.status == "infeasible" else draw(
        st.lists(_VALUES, min_size=len(cons), max_size=len(cons)))
    i = draw(st.integers(0, len(mult) - 1))
    kind = draw(st.sampled_from(["none", "none", "flip", "zero", "scale",
                                 "short", "long"]))
    if kind == "flip":
        mult[i] = -mult[i]
    elif kind == "zero":
        mult[i] = Fraction(0)
    elif kind == "scale":
        mult[i] *= draw(st.sampled_from([Fraction(2), Fraction(1, 3),
                                         Fraction(-5, 7)]))
    elif kind == "short":
        mult.pop()
    elif kind == "long":
        mult.append(Fraction(1))
    return n, cons, nonneg, mult, res.status == "infeasible" and kind == "none"


@settings(max_examples=300, deadline=None)
@given(_certificates())
def test_verify_farkas_matches_fraction_reference(case):
    n, cons, nonneg, mult, produced = case
    got = verify_farkas(n, cons, mult, nonneg)
    assert got == _ref_verify_farkas(n, cons, mult, nonneg)
    if produced:
        assert got


def test_verify_farkas_errors_and_mixed_denominators():
    cons = [([Fraction(1, 6), Fraction(0)], GE, Fraction(1, 4)),
            ([Fraction(-1, 10), Fraction(0)], GE, Fraction(1, 15))]
    assert verify_farkas(2, cons, [Fraction(3, 5), 1])
    assert not verify_farkas(2, cons, [Fraction(3, 5), Fraction(99, 100)])
    with pytest.raises(ValueError):
        verify_farkas(2, [([1], GE, 0)], [1])
    with pytest.raises(ValueError):
        verify_farkas(1, [([1], "<", 0)], [1])
    assert not verify_farkas(1, [([1], GE, 1)], [1, 1])


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1/2"])
def test_entries_must_be_int_or_fraction(bad):
    feasible = [([1, Fraction(1, 2)], LE, 1)]
    infeasible = [([1, 0], GE, 1), ([-1, 0], GE, 0)]
    for cons in (feasible, infeasible):
        with_coeff = [([bad, 1], LE, 1)] + cons
        with_rhs = [([1, 1], LE, bad)] + cons
        for rows in (with_coeff, with_rhs):
            with pytest.raises(TypeError):
                solve_lp(2, rows)
            with pytest.raises(TypeError):
                verify_farkas(2, rows, [0] * len(rows))
        with pytest.raises(TypeError):
            solve_lp(2, cons, objective=[bad, 1])
        with pytest.raises(TypeError):
            solve_lp(2, cons, objective=[1, bad], maximize=True)
        with pytest.raises(TypeError):
            verify_farkas(2, cons, [bad] * len(cons))
    # a multiplier that would make a valid certificate as a Fraction
    infeasible_1d = [([1], GE, 1), ([-1], GE, 0)]
    assert verify_farkas(1, infeasible_1d, [1, 1])
    with pytest.raises(TypeError):
        verify_farkas(1, infeasible_1d, [bad, 1])


def test_objective_needs_one_entry_per_variable():
    box = [([1, 0], GE, 0), ([1, 0], LE, 1), ([0, 1], GE, 0), ([0, 1], LE, 1)]
    for objective in ([1, 1, 5], [1], []):
        for maximize in (False, True):
            with pytest.raises(ValueError):
                solve_lp(2, box, objective=objective, maximize=maximize)
    res = solve_lp(2, box, objective=[1, 1], maximize=True)
    assert (res.status, res.value) == ("optimal", 2)
    with pytest.raises(ValueError):
        solve_lp(0, [], objective=[1])
    assert solve_lp(0, [], objective=[]).status == "optimal"
