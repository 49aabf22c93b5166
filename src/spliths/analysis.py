"""Decision procedures for toric hypersymplectic quotients.

Connectedness (wall incidence), compactness (recession cone), freeness
(lattice strata), degeneracy (the quadratic scaling criterion) and the
linear-map necessary condition for smoothness, together with an aggregate
report.  Verdicts are exact wherever possible; anything resolution-limited
says so in its method tag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .cones import (FEASIBLE, INFEASIBLE, _wall_probe_system, boundary_meet,
                    circle_points, positively_spanning, soc_feasible,
                    strict_interior_point)
from .lattice import extends_to_lattice_basis
from .toric import (ToricConfig, build_torus_data, cone_system, coords_to_point,
                    derived_values, incidence, point_to_coords)


@dataclass
class Options:
    seed: int = 0
    sweep_resolution: int = 720
    soc_resolution: int = 240
    samples: int = 12
    stratum_cap: int = 12


@dataclass
class VerdictEntry:
    status: str
    method: str = ""
    witness: object = None
    certificate: object = None
    detail: dict = field(default_factory=dict)


def _stratum_system(cfg, vertex_indices=()):
    """K plus vertex equalities (a_k = 0 = b_k) for the given indices."""
    sys = cone_system(cfg)
    for k in vertex_indices:
        cone = sys.cones[k]
        sys.eqs.extend([cone.l0, cone.l1, cone.l2])
    return sys


def k_is_empty(cfg: ToricConfig, options=None):
    """(verdict for K = empty?, witness point if nonempty)."""
    options = options or Options()
    v = soc_feasible(cone_system(cfg), resolution=options.soc_resolution)
    if v.status == FEASIBLE:
        return False, v.witness
    if v.status == INFEASIBLE:
        return True, None
    return None, None


def connectedness_test(cfg: ToricConfig, options=None) -> VerdictEntry:
    """Connected iff every wall W_k meets K; exact misses via certificates."""
    options = options or Options()
    empty, _ = k_is_empty(cfg, options)
    if empty:
        # vacuous wall criterion: the image (and the quotient) is empty
        return VerdictEntry("not_connected", method="empty-image",
                            detail={"walls": [], "k_empty": True})
    sys = cone_system(cfg)
    walls = []
    statuses = []
    for k in range(cfg.d):
        v = boundary_meet(sys, k, sweep_resolution=options.sweep_resolution)
        statuses.append(v.status)
        entry = {"wall": k, "status": v.status, "method": v.method}
        if v.status == FEASIBLE:
            entry["point"] = coords_to_point(v.witness, cfg.n)
        elif v.status == INFEASIBLE:
            entry["certificate"] = v.certificate
        walls.append(entry)
    if any(s == INFEASIBLE for s in statuses):
        return VerdictEntry("not_connected", method="wall-miss-certificate",
                            detail={"walls": walls})
    if all(s == FEASIBLE for s in statuses):
        return VerdictEntry("connected", method="all-walls-met",
                            detail={"walls": walls})
    return VerdictEntry("unknown", method="sweep-exhausted",
                        detail={"walls": walls})


def compactness_test(cfg: ToricConfig) -> VerdictEntry:
    """Compact iff the dual cone of the u_k is trivial (exact LPs)."""
    ok = positively_spanning(cfg.columns)
    return VerdictEntry("compact" if ok else "noncompact",
                        method="recession-cone-lp")


_MAX_SUBSETS = 5000


def _vertex_subsets(d, max_size):
    """(index subsets of size 1..max_size, whether all of them are listed).

    The listing stops after the first size that takes it past _MAX_SUBSETS.
    """
    import itertools

    out = []
    for size in range(1, max_size + 1):
        if len(out) > _MAX_SUBSETS:
            return out, False
        out.extend(itertools.combinations(range(d), size))
    return out, True


def freeness_test(cfg: ToricConfig, options=None) -> VerdictEntry:
    """Delzant-style test: vertex strata need lattice-basis extendability.

    Enumerates J with the stratum (all a_k = 0 = b_k, k in J) meeting K and
    checks that (u_k)_{k in J} extends to a Z-basis (Smith factors all 1).
    Subsets beyond size n+1 are redundant: their strata sit inside some
    (n+1)-subset stratum that already fails by linear dependence.  If
    stratum_cap or the subset limit cut the enumeration short, a pass is
    not established and the verdict is unknown.
    """
    options = options or Options()
    max_size = min(cfg.d, cfg.n + 1, options.stratum_cap)
    subsets, complete = _vertex_subsets(cfg.d, max_size)
    complete = complete and max_size == min(cfg.d, cfg.n + 1)
    violations = []
    unknown_risk = []
    checked = []
    for J in subsets:
        sys = _stratum_system(cfg, vertex_indices=J)
        v = soc_feasible(sys, resolution=options.soc_resolution)
        if v.status == INFEASIBLE:
            continue
        cols = [cfg.columns[k] for k in J]
        good = extends_to_lattice_basis(cols)
        entry = {"J": J, "stratum": v.status, "lattice_ok": good}
        if v.status == FEASIBLE:
            entry["point"] = coords_to_point(v.witness, cfg.n)
            checked.append(entry)
            if not good:
                violations.append(entry)
        else:
            if not good:
                unknown_risk.append(entry)
            checked.append(entry)
    if violations:
        return VerdictEntry("fail", method="smith-normal-form",
                            witness=violations, detail={"strata": checked})
    if unknown_risk:
        return VerdictEntry("unknown", method="stratum-feasibility-unknown",
                            detail={"strata": checked, "at_risk": unknown_risk})
    if not complete:
        return VerdictEntry("unknown", method="stratum-enumeration-capped",
                            detail={"strata": checked})
    return VerdictEntry("pass", method="smith-normal-form",
                        detail={"strata": checked})


def _kernel_direction_candidates(torus, rng, extra=4):
    dirs = [list(v) for v in torus.kernel_basis]
    if torus.dim > 1:
        for _ in range(extra):
            combo = [Fraction(0)] * len(torus.kernel_basis[0])
            for v in torus.kernel_basis:
                c = Fraction(rng.randint(-3, 3))
                combo = [x + c * y for x, y in zip(combo, v)]
            if any(e != 0 for e in combo):
                dirs.append(combo)
    return dirs


def _zeta_witness_at(cfg, torus, x, zeta_dirs):
    """(zeta_dir, tau, s) with 4 tau zeta_k^2 gap_k = <s, u_k>, tau > 0."""
    a, b = coords_to_point(x, cfg.n)
    a_vals, b_vals = derived_values(cfg, a, b)
    gaps = [ak * ak - bk.abs_sq() for ak, bk in zip(a_vals, b_vals)]
    for zhat in zeta_dirs:
        rows = []
        for k in range(cfg.d):
            row = [4 * zhat[k] * zhat[k] * gaps[k]]
            row.extend(-Fraction(cfg.columns[k][i]) for i in range(cfg.n))
            rows.append(row)
        for vec in linalg.kernel_basis(rows):
            tau = vec[0]
            if tau == 0:
                continue
            if tau < 0:
                vec = [-e for e in vec]
                tau = -tau
            s = vec[1:]
            if _verify_zeta_witness(cfg, gaps, zhat, tau, s):
                return zhat, tau, s
    return None


def _verify_zeta_witness(cfg, gaps, zhat, tau, s) -> bool:
    if tau <= 0 or all(e == 0 for e in zhat):
        return False
    for i in range(cfg.n):
        if sum(zhat[k] * cfg.columns[k][i] for k in range(cfg.d)) != 0:
            return False
    for k in range(cfg.d):
        lhs = 4 * tau * zhat[k] * zhat[k] * gaps[k]
        rhs = sum(s[i] * cfg.columns[k][i] for i in range(cfg.n))
        if lhs != rhs:
            return False
    return True


def _two_wall_points(cfg: ToricConfig, j: int, k: int, steps: int = 12):
    """Rational points of W_j cap W_k cap K for n = 1 by pinning wall j.

    Pin wall j to a rational direction, parameterize the resulting line and
    solve the wall-k quadratic exactly; only rational roots are kept.
    """
    if cfg.n != 1:
        return []
    sys = cone_system(cfg)
    cone_k = sys.cones[k]
    out = []
    for c, s in circle_points(steps):
        # wall j along (c, s): l1_j = c l0_j, l2_j = s l0_j
        pinned = _wall_probe_system(sys, j, c, s).eqs[-2:]
        rows = [list(e.coeffs) for e in pinned]
        rhs = [-e.const for e in pinned]
        base = linalg.solve(rows, rhs)
        if base is None:
            continue
        kern = linalg.kernel_basis(rows)
        if len(kern) != 1:
            continue
        direction = kern[0]
        # wall k: l0^2 - l1^2 - l2^2 = 0 restricted to base + t*direction
        def q_coeffs(aff):
            v0 = aff(base)
            v1 = sum(cc * dd for cc, dd in zip(aff.coeffs, direction))
            return v0, v1

        a0, a1 = q_coeffs(cone_k.l0)
        b0, b1 = q_coeffs(cone_k.l1)
        c0, c1 = q_coeffs(cone_k.l2)
        A = a1 * a1 - b1 * b1 - c1 * c1
        B = 2 * (a0 * a1 - b0 * b1 - c0 * c1)
        C = a0 * a0 - b0 * b0 - c0 * c0
        roots = []
        if A == 0:
            if B != 0:
                roots.append(-C / B)
        else:
            disc = B * B - 4 * A * C
            if disc >= 0:
                from .exact import sqrt_fraction

                r = sqrt_fraction(disc)
                if r is not None:
                    roots.extend([(-B + r) / (2 * A), (-B - r) / (2 * A)])
        for t in roots:
            x = [p + t * dd for p, dd in zip(base, direction)]
            a, b = coords_to_point(x, cfg.n)
            inc = incidence(cfg, a, b)
            if inc.in_cone and j in inc.L and k in inc.L:
                out.append(x)
    return out


def sample_points(cfg: ToricConfig, options=None, base=None):
    """Rational points of K: a feasible base plus random ray probes."""
    options = options or Options()
    rng = random.Random(options.seed)
    if base is None:
        empty, base = k_is_empty(cfg, options)
        if base is None:
            return []
    pts = [base]
    sys = cone_system(cfg)
    for _ in range(options.samples):
        direction = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(3 * cfg.n)]
        if all(e == 0 for e in direction):
            continue
        t = Fraction(1)
        for _ in range(8):
            cand = [p + t * d for p, d in zip(base, direction)]
            if sys.satisfied(cand):
                pts.append(cand)
                break
            t /= 2
    seen = set()
    unique = []
    for p in pts:
        key = tuple(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def degeneracy_test(cfg: ToricConfig, options=None,
                    extra_points=()) -> VerdictEntry:
    """Search for a verified degeneracy witness.

    Mechanisms, all exact once a candidate point is at hand: a point of K
    on >= n+1 walls gives zeta supported on those walls with s = 0;
    otherwise the scaling equations 4 zeta_k^2 (a_k^2 - |b_k|^2) = <s, u_k>
    are solved linearly in (tau = t^2, s) per sampled kernel direction.
    A passing verdict is explicitly "at sampled points" unless ker(beta)
    is trivial, in which case no nonzero zeta exists at all.
    """
    options = options or Options()
    torus = build_torus_data(cfg)
    if torus.dim == 0:
        return VerdictEntry("nondegenerate", method="trivial-kernel")
    empty, _ = k_is_empty(cfg, options)
    if empty:
        return VerdictEntry("nondegenerate", method="empty-image")
    rng = random.Random(options.seed)
    zeta_dirs = _kernel_direction_candidates(torus, rng)

    candidates = list(extra_points)
    # vertex strata up to size n+1
    max_size = min(cfg.d, cfg.n + 1, options.stratum_cap)
    for J in _vertex_subsets(cfg.d, max_size)[0]:
        v = soc_feasible(_stratum_system(cfg, vertex_indices=J),
                         resolution=options.soc_resolution)
        if v.status == FEASIBLE:
            candidates.append(v.witness)
    # exact two-wall intersections (n = 1)
    if cfg.n == 1:
        for j in range(cfg.d):
            for k in range(j + 1, cfg.d):
                candidates.extend(_two_wall_points(cfg, j, k))
    # wall probes and interior samples
    sys = cone_system(cfg)
    for k in range(cfg.d):
        v = boundary_meet(sys, k, sweep_resolution=max(
            48, options.sweep_resolution // 4))
        if v.status == FEASIBLE:
            candidates.append(v.witness)
    candidates.extend(sample_points(cfg, options))
    pt, v = strict_interior_point(sys, resolution=options.soc_resolution)
    if pt is not None:
        candidates.append(pt)

    seen = set()
    tested = 0
    for x in candidates:
        key = tuple(x)
        if key in seen:
            continue
        seen.add(key)
        a, b = coords_to_point(x, cfg.n)
        inc = incidence(cfg, a, b)
        if not inc.in_cone:
            continue
        tested += 1
        if len(inc.L) >= cfg.n + 1:
            cols = [[Fraction(cfg.columns[k][i]) for k in inc.L]
                    for i in range(cfg.n)]
            kern = linalg.kernel_basis(cols)
            if kern:
                zhat = [Fraction(0)] * cfg.d
                for pos, k in enumerate(inc.L):
                    zhat[k] = kern[0][pos]
                gaps = [ak * ak - bk.abs_sq()
                        for ak, bk in zip(inc.a_values, inc.b_values)]
                s = [Fraction(0)] * cfg.n
                if _verify_zeta_witness(cfg, gaps, zhat, Fraction(1), s):
                    return VerdictEntry(
                        "degenerate", method="coincident-walls",
                        witness={"point": coords_to_point(x, cfg.n),
                                 "walls": inc.L, "zeta": zhat,
                                 "tau": Fraction(1), "s": s})
        found = _zeta_witness_at(cfg, torus, x, zeta_dirs)
        if found is not None:
            zhat, tau, s = found
            return VerdictEntry(
                "degenerate", method="scaling-equations",
                witness={"point": coords_to_point(x, cfg.n),
                         "zeta": zhat, "tau": tau, "s": s})
    status = "nondegenerate_at_sampled" if tested else "unknown"
    return VerdictEntry(status, method="sampled-points",
                        detail={"points_tested": tested,
                                "zeta_directions": len(zeta_dirs)})


@dataclass
class SmoothnessReport:
    status: str  # "holds" (necessary condition) or "fails"
    L: tuple
    J: tuple
    wall_count_exceeds_3n: bool
    domain_dim: int
    rank: int


def smoothness_test(cfg: ToricConfig, a, b) -> SmoothnessReport:
    """Necessary condition for smoothness at (a, b) in K.

    Builds the real matrix of (c, d) -> (a_k d_k + b_k c_k) on the space of
    c supported on L minus J with U c in the span of the J-columns, and
    reports injectivity by exact rank; more than 3n walls through the point
    fail outright.  This is only a necessary condition; a "holds" verdict
    never claims smoothness by itself.
    """
    inc = incidence(cfg, a, b)
    if not inc.in_cone:
        raise ValueError("(a, b) lies outside the moment image")
    L, J = list(inc.L), list(inc.J)
    over = len(L) > 3 * cfg.n
    rest = [k for k in L if k not in J]
    if not rest:
        return SmoothnessReport("fails" if over else "holds",
                                inc.L, inc.J, over, 0, 0)
    # n_{L,J} = { c in R_rest : U c in span(U_J) }
    cols = rest + J
    m = [[Fraction(cfg.columns[k][i]) for k in cols] for i in range(cfg.n)]
    kern = linalg.kernel_basis(m)
    proj = [v[:len(rest)] for v in kern]
    red, pivots = linalg.rref(proj) if proj else ([], [])
    basis = [red[i] for i in range(len(pivots))]
    if not basis:
        return SmoothnessReport("fails" if over else "holds",
                                inc.L, inc.J, over, 0, 0)
    rows = []  # 2|rest| x 3 dim
    for pos, k in enumerate(rest):
        ak = inc.a_values[k]
        bk = inc.b_values[k]
        row_re = []
        row_im = []
        for v in basis:
            vk = v[pos]
            # c = v, d = 0 -> b_k v_k ; d = v -> a_k v_k ; d = iv -> i a_k v_k
            row_re.extend([bk.re * vk, ak * vk, Fraction(0)])
            row_im.extend([bk.im * vk, Fraction(0), ak * vk])
        rows.append(row_re)
        rows.append(row_im)
    rank = linalg.rank(rows)
    injective = rank == 3 * len(basis)
    status = "fails" if (over or not injective) else "holds"
    return SmoothnessReport(status, inc.L, inc.J, over, 3 * len(basis), rank)


def cint_probe(cfg: ToricConfig, options=None) -> VerdictEntry:
    """A rational point strictly inside every cone, when one can be found."""
    options = options or Options()
    pt, v = strict_interior_point(cone_system(cfg),
                                  resolution=options.soc_resolution)
    if pt is not None:
        return VerdictEntry("nonempty", method=v.method,
                            witness=coords_to_point(pt, cfg.n))
    if v.status == INFEASIBLE:
        return VerdictEntry("empty", method=v.method,
                            certificate=v.certificate)
    return VerdictEntry("unknown", method=v.method)


@dataclass
class AnalysisReport:
    config: ToricConfig
    connected: VerdictEntry
    compact: VerdictEntry
    freeness: VerdictEntry
    degeneracy: VerdictEntry
    cint: VerdictEntry
    k_empty: bool | None
    strata: list
    options: Options

    def has_unknowns(self) -> bool:
        entries = [self.connected, self.compact, self.freeness,
                   self.degeneracy, self.cint]
        return any(e.status.startswith("unknown") for e in entries)


def analyze(cfg: ToricConfig, options=None) -> AnalysisReport:
    """Run every decision procedure and assemble the stratum table."""
    options = options or Options()
    empty, base = k_is_empty(cfg, options)
    connected = connectedness_test(cfg, options)
    compact = compactness_test(cfg)
    freeness = freeness_test(cfg, options)
    cint = cint_probe(cfg, options)

    probe_points = []
    if base is not None:
        probe_points.append(base)
    if cint.witness is not None:
        probe_points.append(point_to_coords(*cint.witness))
    for wall in connected.detail.get("walls", []):
        if "point" in wall:
            probe_points.append(point_to_coords(*wall["point"]))
    for entry in freeness.detail.get("strata", []):
        if "point" in entry:
            probe_points.append(point_to_coords(*entry["point"]))

    degeneracy = degeneracy_test(cfg, options, extra_points=probe_points)

    strata = []
    seen = set()
    for x in probe_points + sample_points(cfg, options, base=base):
        key = tuple(x)
        if key in seen:
            continue
        seen.add(key)
        a, b = coords_to_point(x, cfg.n)
        inc = incidence(cfg, a, b)
        if not inc.in_cone:
            continue
        rep = smoothness_test(cfg, a, b)
        strata.append({
            "point": (a, b),
            "J": inc.J,
            "L": inc.L,
            "smoothness": rep.status,
            "wall_count_exceeds_3n": rep.wall_count_exceeds_3n,
        })
    return AnalysisReport(cfg, connected, compact, freeness, degeneracy,
                          cint, empty, strata, options)
