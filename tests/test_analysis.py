from fractions import Fraction

import pytest

from spliths import analysis
from spliths.analysis import (Options, analyze, cint_probe, compactness_test,
                              connectedness_test, degeneracy_test,
                              freeness_test, sample_points, smoothness_test)
from spliths.exact import ComplexRational
from spliths.toric import (ToricConfig, derived_values, example_family,
                           incidence)


def test_model_case_verdicts():
    m = ToricConfig([[1]])
    assert connectedness_test(m).status == "connected"
    assert compactness_test(m).status == "noncompact"
    assert freeness_test(m).status == "pass"
    deg = degeneracy_test(m)
    assert deg.status == "nondegenerate"
    assert deg.method == "trivial-kernel"
    ci = cint_probe(m)
    assert ci.status == "nonempty"
    a, b = ci.witness
    av, bv = derived_values(m, a, b)
    assert av[0] > 0 and av[0] ** 2 > bv[0].abs_sq()


def test_identity_config_connected():
    cfg = ToricConfig([[1, 0], [0, 1]])
    assert connectedness_test(cfg).status == "connected"
    assert compactness_test(cfg).status == "noncompact"
    assert freeness_test(cfg).status == "pass"


@pytest.mark.parametrize("lam", [1, Fraction(1, 2), 3])
def test_family_verdicts_independent_of_lambda(lam):
    fam = example_family(1, lam)
    conn = connectedness_test(fam)
    assert conn.status == "not_connected"
    walls = {w["wall"]: w for w in conn.detail["walls"]}
    assert walls[0]["status"] == "feasible"
    assert walls[1]["status"] == "infeasible"
    assert walls[1]["method"] == "exclusion-certificate"
    assert compactness_test(fam).status == "noncompact"
    assert freeness_test(fam).status == "pass"


@pytest.mark.parametrize("n", [1, 2])
def test_family_nondegenerate_at_strata(n):
    fam = example_family(n, 1)
    deg = degeneracy_test(fam)
    assert deg.status == "nondegenerate_at_sampled"
    assert deg.detail["points_tested"] > 0


def test_coincident_walls_are_degenerate():
    cfg = ToricConfig([[1], [1]])
    deg = degeneracy_test(cfg)
    assert deg.status == "degenerate"
    assert deg.method == "coincident-walls"
    zeta = deg.witness["zeta"]
    assert sum(z * u[0] for z, u in zip(zeta, cfg.columns)) == 0
    assert any(z != 0 for z in zeta)


def test_compact_lens_has_exact_degeneracy_witness():
    cfg = ToricConfig([[1], [-1]], lambda1=[0, -4], lambda2=[0, 1])
    assert compactness_test(cfg).status == "compact"
    deg = degeneracy_test(cfg)
    assert deg.status == "degenerate"
    point = deg.witness["point"]
    inc = incidence(cfg, point[0], point[1])
    assert inc.in_cone and len(inc.L) >= cfg.n + 1
    # the walls really are met: both gap values vanish exactly
    av, bv = derived_values(cfg, point[0], point[1])
    assert all(av[k] ** 2 == bv[k].abs_sq() for k in inc.L)


def test_degeneracy_never_claims_without_witness():
    # scan several configs; any "degenerate" answer must re-verify
    configs = [ToricConfig([[1], [1]]),
               ToricConfig([[1], [-1]], lambda1=[0, -4], lambda2=[0, 1]),
               ToricConfig([[1], [2]]),
               example_family(1, 2)]
    for cfg in configs:
        deg = degeneracy_test(cfg)
        if deg.status != "degenerate":
            continue
        w = deg.witness
        zeta, tau, s = w["zeta"], w["tau"], w["s"]
        assert tau > 0 and any(z != 0 for z in zeta)
        for i in range(cfg.n):
            assert sum(zeta[k] * cfg.columns[k][i]
                       for k in range(cfg.d)) == 0
        av, bv = derived_values(cfg, w["point"][0], w["point"][1])
        for k in range(cfg.d):
            gap = av[k] ** 2 - bv[k].abs_sq()
            rhs = sum(s[i] * cfg.columns[k][i] for i in range(cfg.n))
            assert 4 * tau * zeta[k] ** 2 * gap == rhs


def test_freeness_failure_with_smith_witness():
    cfg = ToricConfig([[2]])
    res = freeness_test(cfg)
    assert res.status == "fail"
    assert res.witness[0]["J"] == (0,)
    cfg2 = ToricConfig([[1, 0], [0, 2]])
    assert freeness_test(cfg2).status == "fail"


def test_freeness_vertex_strata_skipped_when_empty():
    # the family's last cone never reaches its vertex inside K
    fam = example_family(1, 1)
    res = freeness_test(fam)
    assert res.status == "pass"
    js = {entry["J"] for entry in res.detail["strata"]}
    assert (1,) not in js


def test_freeness_capped_enumeration_is_unknown(monkeypatch):
    # (u_0, u_1) does not extend to a Z-basis; only the 2-subset shows it
    cfg = ToricConfig([[1, 1], [1, -1]])
    assert freeness_test(cfg).status == "fail"
    capped = freeness_test(cfg, Options(stratum_cap=1))
    assert capped.status == "unknown"
    assert capped.method == "stratum-enumeration-capped"
    # a pass found before the subset limit stops the listing is not a pass
    fam = example_family(1, 1)
    monkeypatch.setattr(analysis, "_MAX_SUBSETS", 1)
    res = freeness_test(fam)
    assert res.status == "unknown"
    assert res.method == "stratum-enumeration-capped"


def test_smoothness_trivial_and_failing():
    fam = example_family(1, 1)
    rep = smoothness_test(fam, [1], [0])
    assert rep.status == "holds" and rep.L == ()
    cfg = ToricConfig([[1], [1], [1], [1]])
    rep = smoothness_test(cfg, [1], [1])
    assert rep.status == "fails"
    assert rep.wall_count_exceeds_3n
    with pytest.raises(ValueError):
        smoothness_test(cfg, [-1], [0])


def test_smoothness_single_wall_injective():
    cfg = ToricConfig([[1], [-1]], lambda1=[0, -2], lambda2=[0, 1])
    rep = smoothness_test(cfg, [1], [ComplexRational(-1)])
    assert rep.L == (0,) and rep.J == ()
    assert rep.status == "holds" and rep.domain_dim == 0


def test_smoothness_rank_counts():
    # forcing a nontrivial domain: d = 2 with both walls met away from
    # vertices and u_2 = u_1, so c -> U c hits the span trivially
    cfg = ToricConfig([[1], [1]], lambda1=[0, 0])
    a, b = [1], [ComplexRational(1)]
    rep = smoothness_test(cfg, a, b)
    assert rep.L == (0, 1) and rep.J == ()
    # n_{L,J} = ker(U restricted) = span(1, -1): domain dim 3, rank <= 2
    assert rep.domain_dim == 3
    assert rep.status == "fails"


def test_cint_empty_certified():
    cfg = ToricConfig([[1], [-1]])
    res = cint_probe(cfg)
    assert res.status == "empty"


def test_empty_image_short_circuits():
    # incompatible shifts leave K empty: a >= |b| and -a - 1 >= |b|
    cfg = ToricConfig([[1], [-1]], lambda1=[0, 1])
    rep = analyze(cfg)
    assert rep.k_empty is True
    assert rep.connected.status == "not_connected"
    assert rep.connected.method == "empty-image"
    assert rep.degeneracy.status == "nondegenerate"
    assert rep.cint.status == "empty"
    assert rep.freeness.status == "pass"
    assert rep.strata == []


def test_sample_points_lie_in_k(rng):
    cfg = example_family(1, 1)
    pts = sample_points(cfg, Options(samples=10))
    assert pts
    for x in pts:
        a = x[:1]
        b = [ComplexRational(x[1], x[2])]
        assert incidence(cfg, a, b).in_cone


def test_analyze_deterministic_and_aggregated():
    fam = example_family(1, 1)
    r1 = analyze(fam, Options(seed=4))
    r2 = analyze(fam, Options(seed=4))
    assert r1.connected.status == r2.connected.status == "not_connected"
    assert r1.compact.status == "noncompact"
    assert r1.freeness.status == "pass"
    assert r1.degeneracy.status == "nondegenerate_at_sampled"
    assert r1.cint.status == "nonempty"
    assert not r1.has_unknowns()
    assert [s["point"] for s in r1.strata] == [s["point"] for s in r2.strata]
    assert all(s["smoothness"] == "holds" for s in r1.strata)


def test_analyze_compact_lens():
    cfg = ToricConfig([[1], [-1]], lambda1=[0, -4], lambda2=[0, 1])
    rep = analyze(cfg)
    assert rep.compact.status == "compact"
    assert rep.degeneracy.status == "degenerate"
    assert rep.k_empty is False


def test_analyze_permutation_relabels_walls():
    cfg = ToricConfig([[1], [1], [0]],
                      lambda1=[0, -1, 1]) if False else example_family(1, 1)
    rep = analyze(cfg, Options(seed=1))
    # permute the two columns (and shifts accordingly)
    perm_cfg = ToricConfig([cfg.columns[1], cfg.columns[0]],
                           lambda1=[cfg.lambda1[1], cfg.lambda1[0]])
    rep_p = analyze(perm_cfg, Options(seed=1))
    status = {w["wall"]: w["status"] for w in rep.connected.detail["walls"]}
    status_p = {w["wall"]: w["status"] for w in rep_p.connected.detail["walls"]}
    assert status[0] == status_p[1] and status[1] == status_p[0]
    assert rep.connected.status == rep_p.connected.status
    assert rep.compact.status == rep_p.compact.status
    assert rep.freeness.status == rep_p.freeness.status
