import random
from fractions import Fraction

import pytest

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
