"""Seeded inputs and item runners for the three benchmark workloads.

A workload is an endless stream of passes drawn from one seeded generator;
a pass is a short, fixed list of item classes.  Each pass repeats its
middle class, so the median item latency falls inside one class instead of
on the edge between two.

The program sees only the generated inputs: CLI-format configuration
documents as JSON text, plus the level point for fiber items.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from spliths import analysis, cli, induced, toric
from spliths.exact import ComplexRational

CORPUS = json.loads(Path(__file__).with_name("corpus.json").read_text())

# The seeded coarse-corpus pass.  fam2 is the median class, with two
# cheaper and two costlier classes around it.  model (10 ms), fam4 and d6n2
# (8 s and 16 s untransformed, more as variants) run only in the traced base
# table: the first would move the median off fam2, the other two would fill
# a 30 s run on their own.
COARSE_PASS = ("lens", "fam1", "fam2", "fam2", "fam2", "d4n2", "fam3")

# thin-lens classes: (label, relative gap of delta against |lambda_c|).
# With lambda_c at an angle of 8-12 degrees from the real axis the 2-step
# grid decides K for gaps beyond about 2% (empty side) and 8% (nonempty
# side); the 12-step grid decides the 0.5% and 1% gaps.  Gaps that need the
# 60-step grid cost 35-360 s per analyze and are left out.
THIN_PASS = (("empty-2", Fraction(-4, 100)), ("nonempty-2", Fraction(12, 100)),
             ("nonempty-12", Fraction(1, 100)), ("nonempty-12", Fraction(1, 100)),
             ("nonempty-12", Fraction(1, 100)), ("empty-12", Fraction(-5, 1000)))
# tan of 8.1 .. 11.3 degrees, none on a 2- or 12-step grid direction.
# lambda3 stays positive: its mirror image takes 10% less LP work (the
# pivots come in another order), which split the median class in two.
THIN_SLOPES = (Fraction(1, 7), Fraction(2, 13), Fraction(3, 19), Fraction(1, 6),
               Fraction(3, 17), Fraction(2, 11), Fraction(3, 16), Fraction(1, 5))

# fiber-structure classes: (label, n, slot 0 on its wall).
FIBER_PASS = (("n1-wall", 1, True), ("n1-off", 1, False), ("n2-wall", 2, True),
              ("n2-wall", 2, True), ("n2-wall", 2, True), ("n2-off", 2, False),
              ("n2-off", 2, False))


@dataclass
class Item:
    label: str
    text: str                      # CLI configuration document (JSON)
    expect: dict = field(default_factory=dict)
    point: dict | None = None      # fiber items: {"a": [...], "b": [[re, im]]}


# -- coarse-corpus -----------------------------------------------------------

def corpus_variant(doc, rng):
    """doc with u_k -> P u_k for a signed permutation P in GL(n, Z), and K
    translated by c = +-e_i through lambda1_k += <c, u_k>.

    Neither change alters a decided verdict.  Shears are left out: they
    moved the LP work of single configs by up to 1.7x and their wall time
    by 2-4x, which made runs of one seed incomparable with another's.
    """
    n = doc["n"]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    cols = [[signs[i] * u[perm[i]] for i in range(n)] for u in doc["u"]]
    c = [0] * n
    c[rng.randrange(n)] = rng.choice((1, -1))
    lam1 = [Fraction(l) + sum(ci * ui for ci, ui in zip(c, u))
            for l, u in zip(doc["lambda1"], cols)]
    return dict(doc, u=cols, lambda1=[str(v) for v in lam1])


def coarse_pass(rng):
    return [Item(name, json.dumps(corpus_variant(CORPUS[name]["config"], rng)),
                 expect={"base": name})
            for name in COARSE_PASS]


def base_table_items():
    """The untransformed baseline configs, in corpus order."""
    return [Item(name, json.dumps(entry["config"]), expect={"base": name})
            for name, entry in CORPUS.items()]


# -- thin-lens ---------------------------------------------------------------

def thin_lens_doc(lam2, lam3, delta):
    return {"d": 2, "n": 1, "u": [[1], [-1]],
            "lambda1": ["0", str(-delta)], "lambda2": ["0", str(lam2)],
            "lambda3": ["0", str(lam3)]}


def thin_pass(rng):
    items = []
    for label, gap in THIN_PASS:
        r = rng.choice((1, 2))
        lam2 = r * rng.choice((1, -1))
        lam3 = r * rng.choice(THIN_SLOPES)
        norm_sq = lam2 * lam2 + lam3 * lam3
        delta = Fraction(math.sqrt(norm_sq) * (1 + float(gap))
                         ).limit_denominator(10_000)
        items.append(Item(label, json.dumps(thin_lens_doc(lam2, lam3, delta)),
                          expect={"k_empty": delta * delta < norm_sq}))
    return items


# -- fiber-structure ---------------------------------------------------------

def _rand_pos(rng):
    return Fraction(rng.randint(1, 6), rng.randint(1, 3))


def fiber_point(n, on_wall, rng):
    """(lam, a, b) for a point of example_family(n, lam) with rational orbits.

    Slot k gets moduli |z_k| = p_k, |w_k| = q_k, so a_k = (p^2 + q^2)/2 and
    |b_k| = p q; the roots p^2, q^2 of every slot are rational squares.  All
    b_k share one rational direction, so |sum b_k| is rational and the last
    slot can be solved for, with lam > 0 taking up the slack.  Points whose
    orbit tangent space is null for some orbit are redrawn: the quotient
    structure is not defined there.
    """
    while True:
        t = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        direction = ComplexRational((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
        moduli = []
        for k in range(n):
            p = _rand_pos(rng)
            q = p if (on_wall and k == 0) else _rand_pos(rng)
            moduli.append((p, q))
        if any(p == q for k, (p, q) in enumerate(moduli)
               if not (on_wall and k == 0)):
            continue
        total_a = sum((p * p + q * q) / 2 for p, q in moduli)
        total_b = sum(p * q for p, q in moduli)
        p_last = Fraction(math.isqrt(math.ceil(2 * total_a)) + rng.randint(1, 3))
        q_last = total_b / p_last
        lam = (p_last * p_last + q_last * q_last) / 2 - total_a
        if lam <= 0 or p_last == q_last:
            continue
        moduli.append((p_last, q_last))
        spreads = [p * p - q * q for p, q in moduli if p != q]
        if any(sum(s * e for s, e in zip(signs, spreads)) == 0
               for signs in _sign_patterns(len(spreads))):
            continue
        a = [(p * p + q * q) / 2 for p, q in moduli[:n]]
        b = [direction * (p * q) for p, q in moduli[:n]]
        return lam, a, b


def _sign_patterns(m):
    return [[1 if (mask >> i) & 1 else -1 for i in range(m)]
            for mask in range(2 ** m)]


def fiber_pass(rng):
    items = []
    for label, n, on_wall in FIBER_PASS:
        lam, a, b = fiber_point(n, on_wall, rng)
        doc = cli.config_to_dict(toric.example_family(n, lam))
        point = {"a": [str(v) for v in a],
                 "b": [[str(v.re), str(v.im)] for v in b]}
        items.append(Item(label, json.dumps(doc), point=point))
    return items


def parse_point(point):
    a = [Fraction(v) for v in point["a"]]
    b = [ComplexRational(Fraction(re), Fraction(im)) for re, im in point["b"]]
    return a, b


# -- streams and runners -----------------------------------------------------

PASSES = {"coarse-corpus": coarse_pass, "thin-lens": thin_pass,
          "fiber-structure": fiber_pass}


def passes(workload, seed):
    """Endless stream of passes; the same seed gives the same stream."""
    rng = random.Random(seed)
    make = PASSES[workload]
    while True:
        yield make(rng)


def parse_inputs(items):
    """What a user's front end does before the first request: parse."""
    for item in items:
        cli.config_from_dict(json.loads(item.text))
        if item.point is not None:
            parse_point(item.point)


def run_analysis(item):
    """The CLI analyze path, in process; returns the emitted JSON report."""
    cfg, options = cli.config_from_dict(json.loads(item.text))
    report = analysis.analyze(cfg, options)
    return cli.emit_report(cli.report_to_dict(report))


def run_fiber(item):
    """Orbits over the item's point and the induced structure of each.

    Returns [(orbit signs, representative (z, w) or None, checks or None)].
    """
    cfg, _ = cli.config_from_dict(json.loads(item.text))
    a, b = parse_point(item.point)
    out = []
    for orbit in toric.fiber_enumerate(cfg, a, b):
        rep = orbit.rational_representative()
        checks = None
        if rep is not None:
            checks = induced.induced_structure(cfg, *rep).checks
        out.append((orbit.signs, rep, checks))
    return out


RUNNERS = {"coarse-corpus": run_analysis, "thin-lens": run_analysis,
           "fiber-structure": run_fiber}
