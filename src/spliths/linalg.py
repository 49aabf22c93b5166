"""Exact linear algebra over the rationals.

Matrices are lists of lists, vectors are lists.  Entries must be ints or
Fractions, the same contract as `lp`; products, reduced forms, kernels,
solutions, inverses and determinants come back as Fractions.  Sizes here are
tiny (a few dozen rows at most), and the work is done in integers:
- `mat_mul` scales each row of its left factor and each column of its right
  factor to integers over one denominator, so each entry is one integer dot
  product over one product of denominators;
- `rref` runs fraction-free Gauss-Jordan on integer rows, divided by their
  gcd after each update, and divides each pivot row by its pivot once, at
  the end (`rank`, `kernel_basis`, `solve` and `inverse` build on it);
- `det` is Bareiss elimination (Bareiss 1968), one exact integer division
  per entry and step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .exact import as_fraction, integer_vector


def vec(entries):
    return [as_fraction(e) for e in entries]


def mat(rows):
    return [[as_fraction(e) for e in row] for row in rows]


def zeros(n, m):
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    cols = [integer_vector(col) for col in zip(*b)]
    out = []
    for row in a:
        xs, da = integer_vector(row)
        if any(xs):
            out.append([Fraction(sum(map(mul, xs, ys)), da * db)
                        for ys, db in cols])
        else:
            out.append([Fraction(0)] * len(cols))
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _primitive(xs):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*xs)
    return [x // g for x in xs] if g > 1 else xs


def rref(m):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns).

    Fraction-free Gauss-Jordan: each row is scaled to integers, a row is
    updated as p * row - f * pivot_row and divided by its gcd, and each pivot
    row is divided by its pivot at the end.  Every row stays a nonzero
    multiple of the row plain Gauss-Jordan would hold, so the pivots are the
    same, and the reduced form is unique.
    """
    rows = [_primitive(integer_vector(r)[0]) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _primitive([p * x - f * y
                                      for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [[Fraction(x, row[c]) for x in row]
           for row, c in zip(rows, pivots)]
    out.extend([Fraction(0)] * ncols for _ in range(nrows - r))
    return out, pivots


def rank(m):
    return len(rref(m)[1])


def kernel_basis(m):
    """Basis of the right kernel {x : m x = 0}."""
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(m, b):
    """One solution of m x = b, or None if inconsistent."""
    if not m:
        return [] if all(x == 0 for x in b) else None
    aug = [list(row) + [bi] for row, bi in zip(m, b)]
    red, pivots = rref(aug)
    ncols = len(m[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def inverse(m):
    n = len(m)
    aug = [list(row) + list(idrow) for row, idrow in zip(m, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def det(m):
    """Determinant by Bareiss elimination on the rows scaled to integers.

    After step c every entry left is a minor of the integer matrix, so each
    division by the previous pivot is exact and the last pivot is its
    determinant; the row denominators are divided out at the end.
    """
    rows = []
    den = 1
    for r in m:
        xs, d = integer_vector(r)
        rows.append(xs)
        den *= d
    n = len(rows)
    sign = 1
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        prow = rows[c]
        p = prow[c]
        for i in range(c + 1, n):
            row = rows[i]
            f = row[c]
            rows[i] = [0] * (c + 1) + [(p * x - f * y) // prev for x, y
                                       in zip(row[c + 1:], prow[c + 1:])]
        prev = p
    return Fraction(sign * prev, den)


def signature(m):
    """Signature (positives, negatives, zeros) of a symmetric matrix.

    Lagrange diagonalization over the rationals; no eigenvalues needed.
    """
    a = [list(r) for r in m]
    n = len(a)
    pos = neg = zero = 0
    idx = list(range(n))
    while idx:
        i = idx[0]
        if a[i][i] == 0:
            j = next((j for j in idx[1:] if a[i][j] != 0), None)
            if j is None:
                zero += 1
                idx = idx[1:]
                continue
            # a[i][i]=0, a[i][j]!=0: fold row/col j into i to create a
            # pivot; one of the two signs always works
            sgn = 1 if 2 * a[i][j] + a[j][j] != 0 else -1
            for k in range(n):
                a[i][k] += sgn * a[j][k]
            for k in range(n):
                a[k][i] += sgn * a[k][j]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for j in idx[1:]:
            f = a[i][j] / p
            if f != 0:
                for k in range(n):
                    a[j][k] -= f * a[i][k]
                for k in range(n):
                    a[k][j] -= f * a[k][i]
        idx = idx[1:]
    return pos, neg, zero


def column_span_projector(basis_columns):
    """Orthogonal projector onto span of the given columns (Euclidean)."""
    if not basis_columns:
        return None
    b = transpose(basis_columns)  # columns -> matrix with basis as columns
    bt = basis_columns  # rows are the basis vectors
    gram = mat_mul(bt, b)
    ginv = inverse(gram)
    return mat_mul(b, mat_mul(ginv, bt))


def endomorphism_from_forms(gram, omega):
    """Solve omega(X, Y) = g(A X, Y) for A on a basis with Gram matrix `gram`.

    Returns the matrix of A acting on coordinate columns.  Raises ValueError
    when the metric is degenerate on the subspace.
    """
    try:
        ginv = inverse(transpose(gram))
    except ValueError:
        raise ValueError("degenerate metric on subspace")
    # omega[i][j] = sum_k A[k][i] gram[k][j]  =>  A^T = omega * gram^{-T}
    at = mat_mul(omega, ginv)
    return transpose(at)
