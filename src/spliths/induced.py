"""Restriction of the flat structure to the quotient model at a level point.

At a rational point (z, w) of the zero level the tangent space of the
subtorus orbit is spanned by the vectors (i v_k z_k, i v_k w_k) over kernel
basis vectors v.  The quotient tangent model is the metric complement of
that span inside ker(d mu); the flat metric and 2-forms restrict there, and
the endomorphisms recovered by solving omega = g(A ., .) must satisfy the
quaternionic relations again.  Everything is exact rational linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .exact import ComplexRational
from .flat import FlatStructure, flat_structure, structure_identities
from .toric import ToricConfig, build_torus_data, moment_map


class NotOnLevelSet(ValueError):
    pass


class DegenerateAtPoint(ValueError):
    pass


def orbit_tangent_vectors(cfg: ToricConfig, torus, z, w):
    """Real 4d-vectors spanning the orbit tangent space at (z, w)."""
    vecs = []
    for v in torus.kernel_basis:
        vec = [Fraction(0)] * (4 * cfg.d)
        for k in range(cfg.d):
            dz = z[k].times_i() * v[k]
            dw = w[k].times_i() * v[k]
            vec[4 * k] = dz.re
            vec[4 * k + 1] = dz.im
            vec[4 * k + 2] = dw.re
            vec[4 * k + 3] = dw.im
        vecs.append(vec)
    return vecs


def moment_differential(cfg: ToricConfig, torus, z, w):
    """Exact matrix of d(mu) at (z, w): rows for mu_I, Re mu_c, Im mu_c."""
    d = cfg.d
    rows = []
    for comp in range(d):
        row_i = [Fraction(0)] * (4 * d)
        row_re = [Fraction(0)] * (4 * d)
        row_im = [Fraction(0)] * (4 * d)
        for k in range(d):
            ak = torus.alphas[k][comp]
            if ak == 0:
                continue
            zk, wk = z[k], w[k]
            # d(|z|^2 + |w|^2)/2 = Re(conj(z) dz) + Re(conj(w) dw)
            row_i[4 * k] += ak * zk.re
            row_i[4 * k + 1] += ak * zk.im
            row_i[4 * k + 2] += ak * wk.re
            row_i[4 * k + 3] += ak * wk.im
            # d(i conj(z) w): dz-part i conj(dz) w, dw-part i conj(z) dw
            iw = wk.times_i()
            for pos, coeff in ((4 * k, iw), (4 * k + 1, wk),
                               (4 * k + 2, zk.conj().times_i()),
                               (4 * k + 3, -zk.conj())):
                row_re[pos] += ak * coeff.re
                row_im[pos] += ak * coeff.im
        rows.extend([row_i, row_re, row_im])
    return rows


@dataclass
class InducedStructure:
    dim: int
    basis: list          # horizontal basis vectors in R^{4d}
    gram: list
    omega_I: list
    omega_S: list
    omega_T: list
    endo_I: list
    endo_S: list
    endo_T: list
    checks: dict


def induced_structure(cfg: ToricConfig, z, w) -> InducedStructure:
    """Quotient-point structure at a rational level point (z, w).

    Raises NotOnLevelSet when the moment map does not vanish, and
    DegenerateAtPoint when the orbit tangent space is deficient or meets its
    own metric complement (the degeneracy condition at this point).
    """
    z = [ComplexRational.coerce(e) for e in z]
    w = [ComplexRational.coerce(e) for e in w]
    torus = build_torus_data(cfg)
    mu_i, mu_c = moment_map(cfg, z, w, torus)
    if any(e != 0 for e in mu_i) or any(not e.is_zero() for e in mu_c):
        raise NotOnLevelSet("moment map does not vanish at this point")
    flat = flat_structure(cfg.d)
    if torus.dim == 0:
        basis = linalg.identity(4 * cfg.d)
        return _assemble(flat, basis, flat.metric_gram(basis))

    orbit = orbit_tangent_vectors(cfg, torus, z, w)
    if linalg.rank(orbit) < torus.dim:
        raise DegenerateAtPoint("orbit tangent space has deficient dimension")
    if linalg.det(flat.metric_gram(orbit)) == 0:
        raise DegenerateAtPoint("orbit tangent space meets its complement")

    dmu = moment_differential(cfg, torus, z, w)
    if linalg.rank(dmu) != 3 * torus.dim:
        raise DegenerateAtPoint("moment differential has deficient rank")
    ortho_rows = [linalg.mat_vec(flat.G, x) for x in orbit]
    horizontal = linalg.kernel_basis(dmu + ortho_rows)
    expected = 4 * (cfg.d - torus.dim)
    if len(horizontal) != expected:
        raise DegenerateAtPoint("horizontal space has dimension %d != %d"
                                % (len(horizontal), expected))
    gram = flat.metric_gram(horizontal)
    if linalg.det(gram) == 0:
        raise DegenerateAtPoint("metric degenerates on the horizontal space")
    return _assemble(flat, horizontal, gram)


def _assemble(flat: FlatStructure, basis, gram) -> InducedStructure:
    """The structure on `basis`, whose (symmetric, nondegenerate) metric Gram
    matrix is `gram`.

    omega(X, Y) = g(A X, Y) gives A^T = omega gram^{-1}, as in
    `linalg.endomorphism_from_forms`; the Gram matrix is inverted once.
    """
    ginv = linalg.inverse(gram)
    omegas = {}
    endos = {}
    for name in ("I", "S", "T"):
        om = flat.omega_gram(name, basis)
        omegas[name] = om
        endos[name] = linalg.transpose(linalg.mat_mul(om, ginv))
    ei, es, et = endos["I"], endos["S"], endos["T"]
    checks = structure_identities(ei, es, et, gram)
    return InducedStructure(len(basis), basis, gram, omegas["I"], omegas["S"],
                            omegas["T"], ei, es, et, checks)
