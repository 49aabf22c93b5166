"""Exact linear algebra over Fraction.

Matrices are lists of lists of Fractions, vectors are lists.  Sizes here are
tiny (a few dozen rows at most), so plain Gauss-Jordan with exact pivots is
the right tool.  `mat_mul` skips the zero entries of each row of its left
factor, so products with the sparse flat-structure matrices stay cheap.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import as_fraction


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
    bt = transpose(b)
    out = []
    for row in a:
        nz = [(k, x) for k, x in enumerate(row) if x]
        if nz:
            out.append([sum(x * col[k] for k, x in nz) for col in bt])
        else:
            out.append([Fraction(0)] * len(bt))
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def rref(m):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
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
    rows = [list(r) for r in m]
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
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * d


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
