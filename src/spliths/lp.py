"""Exact rational linear programming via two-phase simplex with Bland's rule.

Variables are free (internally split into nonnegative pairs).  Feasibility
answers are exact: a feasible witness is returned as Fractions, and an
infeasible system comes with a Farkas combination that is re-verified before
being handed out.

The tableau is fraction-free.  Each row is a list of Python ints over one
positive denominator of its own, with the right-hand side as the last entry,
and stands for the rational row (entries / denominator).  A pivot scales the
pivot row by its pivot entry; every other row with a nonzero entry in the
pivot column, and the reduced-cost row, subtract a multiple of it in the
columns where the pivot row is nonzero (the rest of the row is only
rescaled, and only when the two denominators differ), and are then divided
by the gcd of their entries and denominator: one gcd pass per touched row
where Fraction arithmetic takes one per operation.  Pivot rows are sparse,
so most of a row is never touched.

Each row still equals, as rationals, the row of the textbook dense tableau,
and the pivot choice reads only signs and the ratios rhs_i / a_ie, in which
the row denominator cancels.  So the pivot sequence is Bland's rule exactly
as on the dense Fraction tableau, and the witnesses, optimal values and
Farkas certificates are the same Fractions.

A constraint is (coeffs, rel, rhs) with rel one of "<=", ">=", "==".  Every
coefficient, right-hand side, objective entry and Farkas multiplier must be
an int or a Fraction; anything else (a float, a bool, a string) raises
TypeError.  This module alone turns a row into integers: coefficients then
rhs over the lcm of their denominators, once per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exact import integer_vector

LE, GE, EQ = "<=", ">=", "=="

_MAX_PIVOTS = 200_000


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list | None = None
    value: Fraction | None = None
    farkas: list | None = None  # per-constraint multipliers when infeasible


_EXACT = {int, Fraction}


def _check_exact(values):
    if not _EXACT.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _EXACT)
        raise TypeError("LP entries must be int or Fraction, not %r" % (bad,))


def _norm_constraints(nvars, constraints):
    """Each row as (ints, den, rel): coefficients then rhs == ints / den."""
    out = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != nvars:
            raise ValueError("constraint arity %d != %d" % (len(coeffs), nvars))
        if rel not in (LE, GE, EQ):
            raise ValueError("bad relation %r" % rel)
        row = [*coeffs, rhs]
        _check_exact(row)
        ints, den = integer_vector(row)
        out.append((ints, den, rel))
    return out


def verify_farkas(nvars, constraints, mult, nonneg=()) -> bool:
    """Check that `mult` is a valid infeasibility certificate.

    Requires mult_i >= 0 on ">=" rows, <= 0 on "<=" rows, free on "==".
    The combined functional must vanish on free variables (be <= 0 on
    variables declared nonnegative) while the combined rhs is positive.
    The combination sum mult_i * row_i is accumulated in integers over one
    running positive denominator, so every sign is read from an integer.
    """
    rows = _norm_constraints(nvars, constraints)
    nonneg = set(nonneg)
    if len(mult) != len(rows):
        return False
    _check_exact(mult)
    combo = [0] * nvars  # combo[j] / den, total / den
    total = 0
    den = 1
    for m, (row, rden, rel) in zip(mult, rows):
        if rel == GE and m < 0:
            return False
        if rel == LE and m > 0:
            return False
        if m == 0:
            continue
        # m * row == (m.numerator / step) * (row / rden)
        step = m.denominator * rden
        new_den = lcm(den, step)
        if new_den != den:
            up = new_den // den
            combo = [v * up for v in combo]
            total *= up
            den = new_den
        f = m.numerator * (den // step)
        for j, c in enumerate(row[:-1]):
            if c:
                combo[j] += f * c
        total += f * row[-1]
    for j, c in enumerate(combo):
        if j in nonneg:
            if c > 0:
                return False
        elif c != 0:
            return False
    return total > 0


def _sub_multiple(row, den, num, mden, src, sden, cols):
    """row/den - (num/mden) * (src/sden) as (ints, den) in lowest terms.

    Only the columns `cols`, where src is nonzero, are updated; the rest of
    the row is rescaled, and only when the denominators differ.
    """
    scale = mden * sden
    factor = num * den
    g = gcd(scale, factor)
    scale //= g
    factor //= g
    if scale != 1:
        row = [v * scale for v in row]
        den *= scale
    for j in cols:
        row[j] -= factor * src[j]
    g = gcd(den, *row)
    if g != 1:
        row = [v // g for v in row]
        den //= g
    return row, den


def _pivot(tab, dens, basis, row, col):
    """Make column `col` the unit vector of `row`; returns the pivot row's
    nonzero columns."""
    prow = tab[row]
    pden = prow[col]
    if pden < 0:
        prow = [-v for v in prow]
        pden = -pden
    g = gcd(pden, *prow)
    if g != 1:
        prow = [v // g for v in prow]
        pden //= g
    tab[row] = prow
    dens[row] = pden
    cols = [j for j, v in enumerate(prow) if v]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            tab[i], dens[i] = _sub_multiple(r, dens[i], r[col], dens[i],
                                            prow, pden, cols)
    basis[row] = col
    return cols


def _simplex(tab, dens, basis, cost, banned):
    """Minimize cost over the tableau; Bland's rule.  Returns status."""
    ncols = len(cost)
    # reduced-cost row r_j = c_j - c_B . column_j, maintained across pivots
    # (its last entry is minus the objective value and is never read)
    zden = lcm(*(c.denominator for c in cost))
    zrow = [c.numerator * (zden // c.denominator) for c in cost]
    zrow.append(0)
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb != 0:
            r = tab[i]
            zrow, zden = _sub_multiple(zrow, zden, cb.numerator, cb.denominator,
                                       r, dens[i],
                                       [j for j, v in enumerate(r) if v])
    basic = set(basis)
    for _ in range(_MAX_PIVOTS):
        entering = None
        for j in range(ncols):
            if zrow[j] < 0 and j not in banned and j not in basic:
                entering = j
                break
        if entering is None:
            return "optimal"
        # minimum ratio rhs_i / a_i over a_i > 0; the row denominator cancels
        leaving = None
        for i, r in enumerate(tab):
            a = r[entering]
            if a > 0:
                if leaving is None:
                    leaving, best_rhs, best_a = i, r[-1], a
                    continue
                lhs, rhs = r[-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_a = i, r[-1], a
        if leaving is None:
            return "unbounded:%d" % entering
        basic.discard(basis[leaving])
        basic.add(entering)
        cols = _pivot(tab, dens, basis, leaving, entering)
        f = zrow[entering]
        if f != 0:
            zrow, zden = _sub_multiple(zrow, zden, f, zden, tab[leaving],
                                       dens[leaving], cols)
    raise RuntimeError("simplex failed to terminate")


def solve_lp(nvars, constraints, objective=None, maximize=False,
             nonneg=()) -> LPResult:
    """Solve min/max objective . x subject to the constraint list.

    constraints: iterable of (coeffs, rel, rhs) with rel in {"<=", ">=", "=="}.
    objective None means pure feasibility; otherwise it has one entry per
    variable (ValueError if not).  Variables listed in `nonneg` are
    constrained to x_j >= 0 natively (no sign splitting).
    """
    constraints = list(constraints)  # read again by verify_farkas
    rows = _norm_constraints(nvars, constraints)
    if objective is not None:
        if len(objective) != nvars:
            raise ValueError("objective length %d != %d"
                             % (len(objective), nvars))
        _check_exact(objective)
    nonneg = set(nonneg)
    flips = []
    rels = []
    for ints, _, rel in rows:
        # flip rows so rhs >= 0, and turn ">= 0" into "<= 0" so the slack
        # can start basic (no artificial variable needed)
        rhs = ints[-1]
        if rhs < 0 or (rel == GE and rhs == 0):
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            flips.append(Fraction(-1))
        else:
            flips.append(Fraction(1))
        rels.append(rel)

    # column layout: one column per variable, plus a negative-part column
    # for every free (sign-unrestricted) variable, then slacks, artificials
    # and the right-hand side
    neg_col = {}
    at = nvars
    for j in range(nvars):
        if j not in nonneg:
            neg_col[j] = at
            at += 1
    nslack = sum(1 for rel in rels if rel != EQ)
    nart = sum(1 for rel in rels if rel != LE)
    ncols = at + nslack + nart
    nx = at
    tab = []
    dens = []
    basis = []
    init_basis = []
    art_cols = set()
    s_at = nx
    a_at = nx + nslack
    for (ints, den, _), rel, flip in zip(rows, rels, flips):
        sign = flip.numerator
        row = [0] * (ncols + 1)
        for j in range(nvars):
            v = ints[j]
            if v:
                v *= sign
                row[j] = v
                if j in neg_col:
                    row[neg_col[j]] = -v
        row[ncols] = sign * ints[-1]
        if rel == LE:
            row[s_at] = den
            basis.append(s_at)
            init_basis.append(s_at)
            s_at += 1
        else:
            if rel == GE:
                row[s_at] = -den
                s_at += 1
            row[a_at] = den
            basis.append(a_at)
            init_basis.append(a_at)
            art_cols.add(a_at)
            a_at += 1
        tab.append(row)
        dens.append(den)

    # phase 1
    if art_cols:
        cost1 = [0] * ncols
        for j in art_cols:
            cost1[j] = 1
        status = _simplex(tab, dens, basis, cost1, banned=set())
        assert status == "optimal"
        art_rows = [i for i in range(len(tab)) if basis[i] in art_cols]
        p1val = sum(Fraction(tab[i][-1], dens[i]) for i in art_rows)
        if p1val > 0:
            # y_i = c_B . (column of row i's initial basic variable); the
            # phase-1 cost is 1 on artificials and 0 elsewhere
            y = [sum(Fraction(tab[r][col], dens[r])
                     for r in art_rows if tab[r][col])
                 for col in init_basis]
            mult = [f * yi for f, yi in zip(flips, y)]
            if not verify_farkas(nvars, constraints, mult, nonneg):
                raise AssertionError("extracted Farkas certificate failed to verify")
            return LPResult(status="infeasible", farkas=mult)
        # drive artificials out of the basis (or drop redundant rows)
        drop = []
        for i in range(len(tab)):
            if basis[i] in art_cols:
                col = next((j for j in range(nx + nslack)
                            if tab[i][j] != 0), None)
                if col is None:
                    drop.append(i)
                else:
                    _pivot(tab, dens, basis, i, col)
        for i in reversed(drop):
            del tab[i], dens[i], basis[i]

    def witness():
        vals = [Fraction(0)] * ncols
        for i, b in enumerate(basis):
            vals[b] = Fraction(tab[i][-1], dens[i])
        return [vals[j] - (vals[neg_col[j]] if j in neg_col else 0)
                for j in range(nvars)]

    if objective is None:
        return LPResult(status="optimal", x=witness())

    cost2 = [0] * ncols
    for j, c in enumerate(objective):
        if maximize:
            c = -c
        cost2[j] = c
        if j in neg_col:
            cost2[neg_col[j]] = -c
    status = _simplex(tab, dens, basis, cost2, banned=art_cols)
    if status.startswith("unbounded"):
        return LPResult(status="unbounded")
    x = witness()
    val = sum(c * xi for c, xi in zip(objective, x))
    return LPResult(status="optimal", x=x, value=val)


def lp_feasible(nvars, constraints) -> LPResult:
    """Exact feasibility: witness or verified Farkas certificate."""
    return solve_lp(nvars, constraints, objective=None)
