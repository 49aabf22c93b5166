"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the item's
output is correct.  Analysis reports are checked from their emitted JSON,
so what is verified is what a user receives.
"""

from __future__ import annotations

import json
from fractions import Fraction

from spliths import cli, cones, toric
from spliths.exact import ComplexRational
from workloads import parse_point

VERDICTS = ("connected", "compact", "freeness", "degeneracy", "cint")


def decided(status):
    return not (status.startswith("unknown") or status.endswith("_at_sampled"))


def _point(doc):
    a, b = doc
    return ([Fraction(v) for v in a],
            [ComplexRational(Fraction(v["re"]), Fraction(v["im"])) for v in b])


def _certificate(doc):
    return cones.ExclusionCertificate(
        wall=doc["wall"], rho=[Fraction(v) for v in doc["rho"]],
        nu=[Fraction(v) for v in doc["nu"]],
        eq_mults=[[Fraction(v) for v in part] for part in doc["eq_mults"]],
        eps0=Fraction(doc["eps0"]), delta=tuple(Fraction(v) for v in doc["delta"]))


def check_report(text, item, corpus):
    """Problems with one emitted analyze report."""
    doc = json.loads(text)
    cfg, _ = cli.config_from_dict(json.loads(item.text))
    problems = []
    if doc["input"] != cli.config_to_dict(cfg):
        problems.append("report input differs from the configuration")
    verdicts = {name: doc["verdicts"][name] for name in VERDICTS}

    base = corpus.get(item.expect.get("base"))
    if base is not None:
        if doc["k_empty"] != base["k_empty"]:
            problems.append("k_empty %s, base config has %s"
                            % (doc["k_empty"], base["k_empty"]))
        for name, want in base["verdicts"].items():
            got = verdicts[name]["status"]
            if decided(got) and decided(want) and got != want:
                problems.append("%s is %s, base config has %s" % (name, got, want))
    if "k_empty" in item.expect:
        k_empty = item.expect["k_empty"]
        if doc["k_empty"] is not k_empty:
            problems.append("k_empty %s contradicts the oracle" % doc["k_empty"])
        cint = verdicts["cint"]["status"]
        if cint == ("nonempty" if k_empty else "empty"):
            problems.append("cint %s contradicts the oracle" % cint)

    system = toric.cone_system(cfg)
    for wall in verdicts["connected"]["detail"].get("walls", []):
        if "point" in wall:
            inc = toric.incidence(cfg, *_point(wall["point"]))
            if not (inc.in_cone and wall["wall"] in inc.L):
                problems.append("wall %d point is not on the wall in K"
                                % wall["wall"])
        if "certificate" in wall:
            if not _certificate(wall["certificate"]).verify(system):
                problems.append("wall %d exclusion certificate fails"
                                % wall["wall"])
    for stratum in verdicts["freeness"]["detail"].get("strata", []):
        if "point" in stratum:
            inc = toric.incidence(cfg, *_point(stratum["point"]))
            if not (inc.in_cone and set(stratum["J"]) <= set(inc.J)):
                problems.append("stratum %s point is not on the stratum in K"
                                % stratum["J"])
    for stratum in doc["strata"]:
        inc = toric.incidence(cfg, *_point(stratum["point"]))
        if not (inc.in_cone and list(inc.J) == stratum["J"]
                and list(inc.L) == stratum["L"]):
            problems.append("strata point has other J, L than reported")

    if verdicts["degeneracy"]["status"] == "degenerate":
        problems += _check_degeneracy(cfg, verdicts["degeneracy"]["witness"])
    if verdicts["cint"]["status"] == "nonempty":
        a_vals, b_vals = toric.derived_values(cfg, *_point(verdicts["cint"]["witness"]))
        if not all(ak > 0 and ak * ak > bk.abs_sq()
                   for ak, bk in zip(a_vals, b_vals)):
            problems.append("cint witness is not strictly inside every cone")
    return problems


def _check_degeneracy(cfg, witness):
    """4 tau zeta_k^2 (a_k^2 - |b_k|^2) = <s, u_k>, zeta in ker(beta)."""
    a, b = _point(witness["point"])
    zeta = [Fraction(v) for v in witness["zeta"]]
    tau = Fraction(witness["tau"])
    s = [Fraction(v) for v in witness["s"]]
    if not toric.incidence(cfg, a, b).in_cone:
        return ["degeneracy point is outside K"]
    a_vals, b_vals = toric.derived_values(cfg, a, b)
    cols = cfg.columns
    in_kernel = all(sum(z * col[i] for z, col in zip(zeta, cols)) == 0
                    for i in range(cfg.n))
    scaling = all(4 * tau * z * z * (ak * ak - bk.abs_sq())
                  == sum(si * ui for si, ui in zip(s, col))
                  for z, ak, bk, col in zip(zeta, a_vals, b_vals, cols))
    if tau > 0 and any(zeta) and in_kernel and scaling:
        return []
    return ["degeneracy witness fails the scaling equations"]


def check_fiber(out, item):
    """Orbit count, representatives on the level set, quaternionic checks."""
    cfg, _ = cli.config_from_dict(json.loads(item.text))
    a, b = parse_point(item.point)
    inc = toric.incidence(cfg, a, b)
    if not inc.in_cone:
        return ["level point is outside K"]
    problems = []
    if len(out) != 2 ** (cfg.d - len(inc.L)):
        problems.append("%d orbits, expected 2^(d-|L|) = %d"
                        % (len(out), 2 ** (cfg.d - len(inc.L))))
    for signs, rep, checks in out:
        if rep is None:
            problems.append("orbit %s has no rational representative" % (signs,))
            continue
        if toric.level_witness(cfg, *rep) != (a, b):
            problems.append("orbit %s representative is off the point" % (signs,))
        if not checks or not all(checks.values()):
            problems.append("orbit %s induced structure fails %s"
                            % (signs, sorted(k for k, v in checks.items() if not v)))
    return problems


def decided_counts(workload, output):
    """(decided, total) verdicts of one item's output."""
    if workload == "fiber-structure":
        return sum(1 for _, _, checks in output if checks is not None), len(output)
    verdicts = json.loads(output)["verdicts"]
    return sum(decided(verdicts[name]["status"]) for name in VERDICTS), len(VERDICTS)


def check(workload, output, item, corpus):
    if workload == "fiber-structure":
        return check_fiber(output, item)
    return check_report(output, item, corpus)
