from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spliths import linalg as la
from spliths.flat import (coordinate_vector, flat_structure,
                          structure_identities)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_identities(n):
    assert flat_structure(n).identities_hold()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_forms_match_metric_contraction(n):
    fs = flat_structure(n)
    dim = fs.dim
    for name in ("I", "S", "T"):
        a = fs.endomorphism(name)
        form = fs.form_matrix(name)
        assert form == la.mat_mul(la.transpose(a), fs.G)
        assert all(type(e) is Fraction for row in form for e in row)
        for i in range(dim):
            ei = coordinate_vector(dim, i)
            aei = la.mat_vec(a, ei)
            for j in range(dim):
                ej = coordinate_vector(dim, j)
                assert fs.omega(name, ei, ej) == fs.metric(aei, ej)


def test_signature():
    assert la.signature(flat_structure(2).G) == (4, 4, 0)


def test_s_swaps_complex_coordinates():
    # slot coordinates (Re z, Im z, Re w, Im w): S exchanges z and w
    fs = flat_structure(1)
    s = fs.S
    assert la.mat_vec(s, coordinate_vector(4, 0)) == coordinate_vector(4, 2)
    assert la.mat_vec(s, coordinate_vector(4, 1)) == coordinate_vector(4, 3)


def _dz_wedge_dzbar_value(i, j, slot, dim):
    """(1/2i)(dz^dzbar + dw^dwbar) evaluated on basis vectors, by hand.

    dz^dzbar(X, Y) = dz(X)dzbar(Y) - dz(Y)dzbar(X) with dz = dx + i dy;
    the value on (d/dx, d/dy) is -2i, so the normalized form gives -1.
    """
    def val(i, j):
        pairs = {(4 * slot, 4 * slot + 1): Fraction(-1),
                 (4 * slot + 2, 4 * slot + 3): Fraction(-1)}
        if (i, j) in pairs:
            return pairs[(i, j)]
        if (j, i) in pairs:
            return -pairs[(j, i)]
        return Fraction(0)

    return val(i, j)


def test_omega_I_against_complex_form_oracle():
    # omega_I = (1/2i) sum (dz^dzbar + dw^dwbar); both computations agree
    # and give -1 on (d Re z, d Im z)
    fs = flat_structure(2)
    for slot in range(2):
        for i in range(8):
            for j in range(8):
                expected = _dz_wedge_dzbar_value(i, j, slot, 8)
                if expected != 0 or (i // 4 == slot and j // 4 == slot):
                    got = fs.omega("I", coordinate_vector(8, i),
                                   coordinate_vector(8, j))
                    assert got == expected
    x, y = coordinate_vector(8, 0), coordinate_vector(8, 1)
    assert fs.omega("I", x, y) == -1


def test_omega_S_plus_i_omega_T_is_dw_wedge_dzbar():
    # dw ^ dzbar = (du + i dv) ^ (dx - i dy), checked entrywise per slot
    fs = flat_structure(2)
    for slot in range(2):
        x0, y0, u0, v0 = (coordinate_vector(8, 4 * slot + k) for k in range(4))
        # dw^dzbar values: (du+idv)^(dx-idy) on coordinate pairs
        assert fs.omega("S", u0, x0) == 1
        assert fs.omega("S", v0, y0) == 1
        assert fs.omega("S", u0, y0) == 0
        assert fs.omega("T", u0, y0) == -1
        assert fs.omega("T", v0, x0) == 1
        assert fs.omega("T", u0, x0) == 0
        # cross-slot entries vanish
        other = coordinate_vector(8, (4 * slot + 4) % 8)
        assert fs.omega("S", u0, other) == 0


def test_four_form_alternating_and_matches_wedge():
    fs = flat_structure(1)
    e = [coordinate_vector(4, k) for k in range(4)]
    val = fs.four_form(e[0], e[1], e[2], e[3])
    # swap two arguments: sign flips
    assert fs.four_form(e[1], e[0], e[2], e[3]) == -val
    # repeated argument: zero
    assert fs.four_form(e[0], e[0], e[2], e[3]) == 0
    # independent expansion: omega_I^2 - omega_S^2 - omega_T^2 on the basis
    def wedge_sq(name):
        om = lambda a, b: fs.omega(name, a, b)
        x1, x2, x3, x4 = e
        return (om(x1, x2) * om(x3, x4) - om(x1, x3) * om(x2, x4)
                + om(x1, x4) * om(x2, x3) + om(x2, x3) * om(x1, x4)
                - om(x2, x4) * om(x1, x3) + om(x3, x4) * om(x1, x2))

    assert val == wedge_sq("I") - wedge_sq("S") - wedge_sq("T")


def test_constant_coefficients_make_everything_closed():
    # the coefficient matrices carry no coordinate dependence at all, so
    # exterior derivatives vanish identically; spot-check invariance of the
    # matrices used for evaluation
    fs1 = flat_structure(1)
    fs2 = flat_structure(1)
    assert fs1.omega_I == fs2.omega_I
    assert fs1.G == fs2.G


def test_dimension_mismatch_rejected():
    fs = flat_structure(1)
    with pytest.raises(ValueError):
        fs.metric([1, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError):
        fs.four_form([1] * 4, [1] * 4, [1] * 4, [1] * 8)


def test_metric_values_on_vectors(rng):
    fs = flat_structure(2)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
    assert fs.omega("I", x, x) == 0
    assert fs.omega("S", x, x) == 0
    g, wi, ws, wt = fs.evaluate(x, x)
    assert (wi, ws, wt) == (0, 0, 0)
    assert g == sum(s * e * e for s, e in
                    zip([1, 1, -1, -1] * 2, x))


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


@st.composite
def _vector_sets(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    vectors = draw(st.lists(st.lists(_ENTRIES, min_size=4 * n,
                                     max_size=4 * n),
                            min_size=1, max_size=4))
    return n, vectors


@settings(max_examples=100, deadline=None)
@given(_vector_sets())
def test_sparse_grams_match_dense_evaluation(case):
    n, vectors = case
    fs = flat_structure(n)

    def dense(m):
        return [[la.vec_dot(x, la.mat_vec(m, y)) for y in vectors]
                for x in vectors]

    grams = [(fs.metric_gram(vectors), fs.G, fs.metric)]
    for name in ("I", "S", "T"):
        grams.append((fs.omega_gram(name, vectors), fs.form_matrix(name),
                      lambda x, y, name=name: fs.omega(name, x, y)))
    for gram, m, pair in grams:
        assert gram == dense(m)
        assert all(type(e) is Fraction for row in gram for e in row)
        assert pair(vectors[0], vectors[-1]) == gram[0][-1]


def test_flat_structure_is_built_once_per_n():
    assert flat_structure(2) is flat_structure(2)
    assert flat_structure(1) is not flat_structure(2)
    with pytest.raises(ValueError):
        flat_structure(0)


def _dense_mul(a, b):
    """Fraction products, zero terms skipped."""
    cols = list(zip(*b))
    return [[sum((Fraction(x) * y for x, y in zip(row, col) if x and y),
                 Fraction(0)) for col in cols] for row in a]


def _reference_identities(I, S, T, G):
    """The eight relations checked with dense Fraction products."""
    n = len(G)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def neg(m):
        return [[-e for e in row] for row in m]

    def pulled_back(a):
        return _dense_mul(list(zip(*a)), _dense_mul(G, a))

    return {
        "I_squared_minus_one": _dense_mul(I, I) == neg(ident),
        "S_squared_one": _dense_mul(S, S) == ident,
        "T_squared_one": _dense_mul(T, T) == ident,
        "IS_equals_T": _dense_mul(I, S) == T,
        "SI_equals_minus_T": _dense_mul(S, I) == neg(T),
        "g_I_invariant": pulled_back(I) == G,
        "g_S_antiinvariant": pulled_back(S) == neg(G),
        "g_T_antiinvariant": pulled_back(T) == neg(G),
    }


def _conjugated(n, p):
    """I, S, T, G of the flat structure in the basis given by the columns
    of p: P^-1 A P for the endomorphisms and P^T G P for the metric, so
    every relation still holds, now with Fraction entries."""
    fs = flat_structure(n)
    pinv = la.inverse(p)
    endos = [la.mat_mul(pinv, la.mat_mul(a, p)) for a in (fs.I, fs.S, fs.T)]
    return [*endos, la.mat_mul(la.transpose(p), la.mat_mul(fs.G, p))]


@st.composite
def _change_of_basis(draw, dim):
    """A nonzero diagonal times a few elementary column operations."""
    nonzero = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                        st.integers(1, 4))
    p = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        p[i][i] = draw(nonzero)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        if i != j:
            c = draw(_ENTRIES)
            for row in p:
                row[j] += c * row[i]
    return p


@st.composite
def _structures(draw):
    n = draw(st.sampled_from([1, 2]))
    dim = 4 * n
    mats = _conjugated(n, draw(_change_of_basis(dim)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, 3))
        kind = draw(st.sampled_from(["entry", "scale", "negate", "random"]))
        m = [list(row) for row in mats[k]]
        if kind == "entry":
            i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            m[i][j] += draw(_ENTRIES)
        elif kind == "scale":
            c = draw(_ENTRIES)
            m = [[c * e for e in row] for row in m]
        elif kind == "negate":
            m = [[-e for e in row] for row in m]
        else:
            m = draw(st.lists(st.lists(_ENTRIES, min_size=dim, max_size=dim),
                              min_size=dim, max_size=dim))
        mats[k] = m
    return mats


@settings(max_examples=100, deadline=None)
@given(_structures())
def test_structure_identities_match_dense_reference(mats):
    assert structure_identities(*mats) == _reference_identities(*mats)


def test_structure_identities_see_each_broken_relation():
    p = [[Fraction(1), Fraction(1, 2), 0, 0],
         [0, Fraction(2, 3), 0, Fraction(-1, 5)],
         [Fraction(3), 0, 1, 0],
         [0, 0, Fraction(1, 7), 1]]
    base = _conjugated(1, p)
    assert all(structure_identities(*base).values())
    failed = set()
    for k in range(4):
        for i in range(4):
            for j in range(4):
                mats = [[list(row) for row in m] for m in base]
                mats[k][i][j] += Fraction(1, 3)
                got = structure_identities(*mats)
                assert got == _reference_identities(*mats)
                failed.update(key for key, ok in got.items() if not ok)
        for c in (Fraction(-1), Fraction(3, 2)):
            mats = list(base)
            mats[k] = [[c * e for e in row] for row in base[k]]
            got = structure_identities(*mats)
            assert got == _reference_identities(*mats)
            failed.update(key for key, ok in got.items() if not ok)
    assert failed == set(_reference_identities(*base))
