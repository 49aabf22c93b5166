import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spliths import linalg as la


def rand_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)]
            for _ in range(rows)]


def test_rref_and_rank():
    m = la.mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    red, pivots = la.rref(m)
    assert pivots == [0, 1]
    assert la.rank(m) == 2


def test_kernel_annihilates(rng):
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        for v in la.kernel_basis(m):
            assert all(x == 0 for x in la.mat_vec(m, v))
        assert len(la.kernel_basis(m)) == cols - la.rank(m)


def test_solve_respects_consistency(rng):
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        x0 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(cols)]
        b = la.mat_vec(m, x0)
        x = la.solve(m, b)
        assert x is not None
        assert la.mat_vec(m, x) == b
    assert la.solve([[1], [1]], [Fraction(1), Fraction(2)]) is None


def test_inverse_and_det(rng):
    for _ in range(50):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        d = la.det(m)
        if d == 0:
            with pytest.raises(ValueError):
                la.inverse(m)
            continue
        inv = la.inverse(m)
        assert la.mat_mul(m, inv) == la.identity(n)
        assert la.det(inv) == 1 / d


def test_signature():
    assert la.signature([[2]]) == (1, 0, 0)
    assert la.signature([[0, 1], [1, 0]]) == (1, 1, 0)
    g = [[1, 0, 0], [0, -3, 0], [0, 0, 0]]
    assert la.signature(g) == (1, 1, 1)


def test_signature_matches_diagonalization(rng):
    # oracle: eigenvalue signs via numpy on random symmetric matrices
    import numpy as np

    for _ in range(30):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, -3, 3)
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        pos, neg, zero = la.signature(sym)
        eig = np.linalg.eigvalsh(np.array(sym, dtype=float))
        assert pos == int((eig > 1e-9).sum())
        assert neg == int((eig < -1e-9).sum())


def test_projector_is_idempotent_and_symmetric():
    basis = [[Fraction(1), Fraction(-1), Fraction(0)],
             [Fraction(0), Fraction(1), Fraction(-1)]]
    p = la.column_span_projector(basis)
    assert la.mat_mul(p, p) == p
    assert p == la.transpose(p)
    for v in basis:
        assert la.mat_vec(p, v) == v


def test_endomorphism_from_forms_roundtrip(rng):
    for _ in range(30):
        n = rng.randint(1, 4)
        while True:
            g = rand_matrix(rng, n, n, -3, 3)
            gram = [[g[i][j] + g[j][i] for j in range(n)] for i in range(n)]
            if la.det(gram) != 0:
                break
        a = rand_matrix(rng, n, n, -3, 3)
        omega = la.mat_mul(la.transpose(a), gram)
        assert la.endomorphism_from_forms(gram, omega) == a


def _dense_mat_mul(a, b):
    bt = la.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def test_mat_mul_skips_zero_rows_and_keeps_fractions(rng):
    for _ in range(40):
        n, k, m = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = rand_matrix(rng, n, k, -2, 2)
        for row in a:
            if rng.random() < 0.3:
                row[:] = [Fraction(0)] * k
        b = rand_matrix(rng, k, m, -2, 2)
        got = la.mat_mul(a, b)
        assert got == _dense_mat_mul(a, b)
        # an n x 0 factor has no rows to carry m, so the product is n x 0
        assert len(got) == n
        assert all(len(row) == (m if k else 0) for row in got)
        assert all(type(e) is Fraction for row in got for e in row)
    assert la.mat_mul([], [[Fraction(1)]]) == []
    assert la.mat_mul([[], []], []) == [[], []]
    assert la.mat_mul([[Fraction(0), Fraction(0)]],
                      [[Fraction(1)], [Fraction(2)]]) == [[Fraction(0)]]


# Reference kernels: plain Gauss-Jordan, Gaussian elimination and products in
# Fraction arithmetic, as linalg computed them before it moved to integers.

def _ref_rref(m):
    rows = [[Fraction(x) for x in r] for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _ref_det(m):
    rows = [[Fraction(x) for x in r] for r in m]
    n = len(rows)
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        d *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * d


def _ref_kernel(m, ncols):
    red, pivots = _ref_rref(m)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _all_fractions(m):
    return all(type(e) is Fraction for row in m for e in row)


_INT_OR_FRACTION = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.integers(-6, 6).map(Fraction),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 15)),
)


@st.composite
def _matrices(draw, nrows=None, ncols=None):
    """Int and Fraction entries, with zero, duplicated and dependent rows."""
    if nrows is None:
        nrows = draw(st.integers(0, 5))
    if ncols is None:
        ncols = draw(st.integers(0, 5))
    row = st.lists(_INT_OR_FRACTION, min_size=ncols, max_size=ncols)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["new", "new", "zero", "copy", "combo"]))
        if kind == "zero":
            rows.append([draw(st.sampled_from([0, Fraction(0)]))] * ncols)
        elif kind == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combo" and len(rows) >= 2:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_INT_OR_FRACTION), draw(_INT_OR_FRACTION)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(row))
    if rows and draw(st.booleans()):
        perm = draw(st.permutations(range(nrows)))
        rows = [rows[i] for i in perm]
    return rows


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rref_rank_kernel_match_fraction_reference(m):
    red, pivots = la.rref(m)
    ref_red, ref_pivots = _ref_rref(m)
    assert pivots == ref_pivots
    assert red == ref_red
    assert len(red) == len(m)
    assert _all_fractions(red)
    assert la.rank(m) == len(ref_pivots)
    ncols = len(m[0]) if m else 0
    kern = la.kernel_basis(m)
    assert kern == (_ref_kernel(m, ncols) if m else [])
    assert _all_fractions(kern)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: _matrices(nrows=n, ncols=n)))
def test_det_and_inverse_match_fraction_reference(m):
    d = la.det(m)
    assert type(d) is Fraction
    assert d == _ref_det(m)
    n = len(m)
    if d == 0:
        with pytest.raises(ValueError):
            la.inverse(m)
        return
    inv = la.inverse(m)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    assert inv == [row[n:] for row in _ref_rref(aug)[0]]
    assert _all_fractions(inv)
    assert _dense_mat_mul(m, inv) == la.identity(n)


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.data())
def test_solve_matches_fraction_reference(m, data):
    ncols = len(m[0]) if m else 0
    if data.draw(st.booleans()):
        x0 = data.draw(st.lists(_INT_OR_FRACTION, min_size=ncols,
                                max_size=ncols))
        b = [sum((Fraction(a) * x for a, x in zip(row, x0)), Fraction(0))
             for row in m]
    else:
        b = data.draw(st.lists(_INT_OR_FRACTION, min_size=len(m),
                               max_size=len(m)))
    got = la.solve(m, b)
    if not m:
        assert got == ([] if all(x == 0 for x in b) else None)
        return
    red, pivots = _ref_rref([list(row) + [bi] for row, bi in zip(m, b)])
    if ncols in pivots:
        assert got is None
        return
    want = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        want[pc] = red[r][ncols]
    assert got == want
    assert all(type(e) is Fraction for e in got)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
       .flatmap(lambda s: st.tuples(_matrices(nrows=s[0], ncols=s[1]),
                                    _matrices(nrows=s[1], ncols=s[2]))))
def test_mat_mul_matches_fraction_reference(ab):
    a, b = ab
    got = la.mat_mul(a, b)
    assert got == _dense_mat_mul(a, b)
    assert len(got) == len(a)
    assert _all_fractions(got)


def test_row_updates_are_divided_by_their_gcd():
    # dropping the division changes no reduced form, only how fast the
    # integers of fraction-free elimination grow, so check it directly
    assert la._primitive([4, -6, 0, 8]) == [2, -3, 0, 4]
    assert la._primitive([0, 3, -5]) == [0, 3, -5]
    assert la._primitive([0, 0]) == [0, 0]
    assert la._primitive([]) == []
