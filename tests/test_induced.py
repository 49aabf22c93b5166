from fractions import Fraction

import pytest

from spliths import linalg as la
from spliths.exact import ComplexRational
from spliths.flat import flat_structure
from spliths.induced import (DegenerateAtPoint, NotOnLevelSet,
                             induced_structure)
from spliths.toric import ToricConfig, example_family, fiber_enumerate


def test_trivial_subtorus_returns_flat():
    cfg = ToricConfig([[1, 0], [0, 1]])
    st = induced_structure(cfg, [1, ComplexRational(0, 2)], [0, 3])
    assert st.dim == 8
    assert all(st.checks.values())
    assert la.signature(st.gram) == (4, 4, 0)


def test_family_interior_orbits_give_nondegenerate_structure():
    fam = example_family(1, 1)
    orbits = fiber_enumerate(fam, [Fraction(1, 8)], [0])
    assert len(orbits) == 4
    for orbit in orbits:
        rep = orbit.rational_representative()
        assert rep is not None
        st = induced_structure(fam, rep[0], rep[1])
        assert st.dim == 4
        assert all(st.checks.values()), st.checks
        assert la.signature(st.gram) == (2, 2, 0)


def test_point_with_nonzero_cross_terms():
    # interior level point with b = i: both slots carry nonzero conj(z) w
    cfg = ToricConfig([[1], [1]])
    z = [2, 2]
    w = [Fraction(1, 2), Fraction(1, 2)]
    from spliths.toric import level_witness

    a, b = level_witness(cfg, z, w)
    assert a == [Fraction(17, 8)] and b[0] == ComplexRational(0, 1)
    st = induced_structure(cfg, z, w)
    assert st.dim == 4 and all(st.checks.values())
    assert la.signature(st.gram) == (2, 2, 0)


def test_degenerate_at_origin():
    cfg = ToricConfig([[1], [1]])
    with pytest.raises(DegenerateAtPoint):
        induced_structure(cfg, [0, 0], [0, 0])


def test_not_on_level_set():
    cfg = ToricConfig([[1], [1]])
    with pytest.raises(NotOnLevelSet):
        induced_structure(cfg, [1, 0], [0, 0])


def test_endomorphisms_restrict_ambient_action():
    # the recovered I matches the ambient I composed with the horizontal
    # projection: check I-invariance of the horizontal space implicitly by
    # verifying omega_I(x, y) = g(I x, y) on the computed basis
    fam = example_family(1, 1)
    z, w = fiber_enumerate(fam, [Fraction(1, 8)], [0])[0].rational_representative()
    st = induced_structure(fam, z, w)
    for name, endo in (("I", st.endo_I), ("S", st.endo_S), ("T", st.endo_T)):
        om = {"I": st.omega_I, "S": st.omega_S, "T": st.omega_T}[name]
        assert om == la.mat_mul(la.transpose(endo), st.gram)


def _dense_mul(a, b):
    bt = la.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _dense_assemble(flat, basis):
    """Every field by dense per-entry evaluation: one mat_vec per Gram entry,
    one inverse per form, full-width products in the checks."""
    def form(m):
        return [[la.vec_dot(x, la.mat_vec(m, y)) for y in basis]
                for x in basis]

    gram = form(flat.G)
    omegas = {name: form(flat.form_matrix(name)) for name in ("I", "S", "T")}
    endos = {}
    for name, om in omegas.items():
        ginv = la.inverse(la.transpose(gram))
        endos[name] = la.transpose(_dense_mul(om, ginv))
    ident = la.identity(len(basis))
    ei, es, et = endos["I"], endos["S"], endos["T"]

    def neg(m):
        return [[-e for e in row] for row in m]

    def conj_metric(a, sign):
        lhs = _dense_mul(la.transpose(a), _dense_mul(gram, a))
        return lhs == (gram if sign > 0 else neg(gram))

    checks = {
        "I_squared_minus_one": _dense_mul(ei, ei) == neg(ident),
        "S_squared_one": _dense_mul(es, es) == ident,
        "T_squared_one": _dense_mul(et, et) == ident,
        "IS_equals_T": _dense_mul(ei, es) == et,
        "SI_equals_minus_T": _dense_mul(es, ei) == neg(et),
        "g_I_invariant": conj_metric(ei, +1),
        "g_S_antiinvariant": conj_metric(es, -1),
        "g_T_antiinvariant": conj_metric(et, -1),
    }
    return {"dim": len(basis), "basis": basis, "gram": gram,
            "omega_I": omegas["I"], "omega_S": omegas["S"],
            "omega_T": omegas["T"], "endo_I": ei, "endo_S": es, "endo_T": et,
            "checks": checks}


def _typed(v):
    if isinstance(v, list):
        return [_typed(e) for e in v]
    if isinstance(v, dict):
        return {k: _typed(e) for k, e in v.items()}
    return type(v), v


def _family_points():
    fam = example_family(1, 1)
    for orbit in fiber_enumerate(fam, [Fraction(1, 8)], [0]):
        yield fam, orbit.rational_representative()
    # d = 3: slot moduli (1, 2), (3, 1), (4, 5/4) along b's direction 1;
    # two of its eight orbits keep the dense reference cheap
    fam = example_family(2, Fraction(41, 32))
    orbits = fiber_enumerate(fam, [Fraction(5, 2), Fraction(5)], [2, 3])
    for orbit in orbits[:2]:
        yield fam, orbit.rational_representative()
    yield ToricConfig([[1], [1]]), ([2, 2], [Fraction(1, 2), Fraction(1, 2)])
    yield ToricConfig([[1, 0], [0, 1]]), ([1, ComplexRational(0, 2)], [0, 3])


def test_fields_match_dense_evaluation():
    for cfg, (z, w) in _family_points():
        st = induced_structure(cfg, z, w)
        ref = _dense_assemble(flat_structure(cfg.d), st.basis)
        assert all(ref["checks"].values())
        for field, value in ref.items():
            assert _typed(getattr(st, field)) == _typed(value), field
