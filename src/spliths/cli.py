"""Command-line front end: configuration ingestion and report emission.

Subcommands: analyze, fiber, example, verify-core, verify-lie,
verify-sasaki.  Configurations and reports are JSON with all rationals
encoded as "p/q" strings so nothing is lost to floating point.  Exit codes:
0 all verdicts determined, 2 some verdict is resolution-limited (unknown),
1 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import __version__
from .analysis import Options, analyze
from .exact import ComplexRational
from .toric import (ToricConfig, example_family, fiber_enumerate, incidence)


class ConfigError(ValueError):
    pass


def _parse_rational(value, where):
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError("%s: cannot parse %r as an exact rational" % (where, value))


def config_from_dict(doc) -> tuple:
    """(ToricConfig, Options) from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("the configuration must be a JSON object")
    for key in ("d", "n", "u"):
        if key not in doc:
            raise ConfigError("missing field %r" % key)
    d, n = doc["d"], doc["n"]
    if not (type(d) is int and type(n) is int and d >= 1 and n >= 1):
        raise ConfigError("d and n must be positive integers")
    u = doc["u"]
    if not isinstance(u, list) or len(u) != d:
        raise ConfigError("u must be a list of d integer vectors")
    for k, row in enumerate(u):
        if (not isinstance(row, list) or len(row) != n
                or not all(type(e) is int for e in row)):
            raise ConfigError("u[%d] must be a list of %d integers" % (k, n))
    shifts = {}
    for name in ("lambda1", "lambda2", "lambda3"):
        raw = doc.get(name)
        if raw is None:
            shifts[name] = None
            continue
        if not isinstance(raw, list) or len(raw) != d:
            raise ConfigError("%s must be a list of %d rationals" % (name, d))
        shifts[name] = [_parse_rational(v, "%s[%d]" % (name, i))
                        for i, v in enumerate(raw)]
    try:
        cfg = ToricConfig(u, shifts["lambda1"], shifts["lambda2"],
                          shifts["lambda3"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise ConfigError("options must be an object")
    return cfg, _options(opts)


def _options(values) -> Options:
    """Options from a mapping: known names, integers only, and no negative
    resolutions, sample counts or caps (the seed may be any integer)."""
    bad = set(values) - set(Options.__dataclass_fields__)
    if bad:
        raise ConfigError("unknown options: %s" % ", ".join(sorted(bad)))
    for name, value in values.items():
        if type(value) is not int:
            raise ConfigError("option %s must be an integer, not %r"
                              % (name, value))
        if name != "seed" and value < 0:
            raise ConfigError("option %s must be >= 0, not %d"
                              % (name, value))
    return Options(**values)


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON in %s: %s" % (path, exc))
    return config_from_dict(doc)


def config_to_dict(cfg: ToricConfig, options: Options | None = None):
    doc = {
        "d": cfg.d,
        "n": cfg.n,
        "u": [list(col) for col in cfg.columns],
        "lambda1": [str(e) for e in cfg.lambda1],
        "lambda2": [str(e) for e in cfg.lambda2],
        "lambda3": [str(e) for e in cfg.lambda3],
    }
    if options is not None:
        doc["options"] = jsonify(asdict(options))
    return doc


def jsonify(obj):
    """Recursively encode report data: rationals as strings, exactly."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, ComplexRational):
        return {"re": str(obj.re), "im": str(obj.im)}
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (list, tuple)):
        return [jsonify(e) for e in obj]
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if is_dataclass(obj):
        return jsonify(asdict(obj))
    return str(obj)


def report_to_dict(report) -> dict:
    verdicts = {}
    for name, entry in (("connected", report.connected),
                        ("compact", report.compact),
                        ("freeness", report.freeness),
                        ("degeneracy", report.degeneracy),
                        ("cint", report.cint)):
        verdicts[name] = {
            "status": entry.status,
            "method": entry.method,
            "witness": jsonify(entry.witness),
            "certificate": jsonify(entry.certificate),
            "detail": jsonify(entry.detail),
        }
    return {
        "tool": {"name": "spliths", "version": __version__},
        "input": config_to_dict(report.config),
        "options": jsonify(asdict(report.options)),
        "k_empty": report.k_empty,
        "verdicts": verdicts,
        "strata": jsonify(report.strata),
    }


def emit_report(doc: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        lines = ["%s: %s (%s)" % (name, entry["status"], entry["method"])
                 for name, entry in sorted(doc["verdicts"].items())]
        lines.append("k_empty: %s" % doc["k_empty"])
        lines.append("strata: %d probed" % len(doc["strata"]))
        return "\n".join(lines) + "\n"
    raise ValueError("format must be json or text")


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--sweep-resolution", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--stratum-cap", type=int, default=None)


def _merge_options(options: Options, args) -> Options:
    upd = {}
    for field, attr in (("seed", "seed"),
                        ("sweep_resolution", "sweep_resolution"),
                        ("samples", "samples"),
                        ("stratum_cap", "stratum_cap")):
        val = getattr(args, attr, None)
        if val is not None:
            upd[field] = val
    if not upd:
        return options
    merged = asdict(options)
    merged.update(upd)
    return _options(merged)


def cmd_analyze(args) -> int:
    cfg, options = load_config(args.config)
    options = _merge_options(options, args)
    report = analyze(cfg, options)
    sys.stdout.write(emit_report(report_to_dict(report), args.format))
    return 2 if report.has_unknowns() else 0


def _parse_point(text, n):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 * n:
        raise ConfigError("--point needs 3n = %d comma-separated rationals "
                          "(a | Re b | Im b)" % (3 * n))
    vals = [_parse_rational(p, "point[%d]" % i) for i, p in enumerate(parts)]
    a = vals[:n]
    b = [ComplexRational(vals[n + i], vals[2 * n + i]) for i in range(n)]
    return a, b


def cmd_fiber(args) -> int:
    cfg, _ = load_config(args.config)
    a, b = _parse_point(args.point, cfg.n)
    inc = incidence(cfg, a, b)
    if not inc.in_cone:
        sys.stderr.write("point lies outside the moment image K\n")
        return 1
    orbits = fiber_enumerate(cfg, a, b)
    out = {
        "point": {"a": jsonify(a), "b": jsonify(b)},
        "J": list(inc.J),
        "L": list(inc.L),
        "orbit_count": len(orbits),
        "orbits": [],
    }
    for orbit in orbits:
        entry = {"signs": list(orbit.signs), "slots": []}
        for slot in orbit.slots:
            entry["slots"].append({
                "z_sq": {"a": str(slot.z_sq.a), "b": str(slot.z_sq.b),
                         "disc": str(slot.z_sq.disc)},
                "w_sq": {"a": str(slot.w_sq.a), "b": str(slot.w_sq.b),
                         "disc": str(slot.w_sq.disc)},
                "cross": jsonify((-slot.b).times_i()),
            })
        rep = orbit.rational_representative()
        if rep is not None:
            entry["representative"] = {"z": jsonify(rep[0]),
                                       "w": jsonify(rep[1])}
        out["orbits"].append(entry)
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_example(args) -> int:
    try:
        lam = Fraction(args.lam)
    except (ValueError, ZeroDivisionError):
        sys.stderr.write("invalid --lambda\n")
        return 1
    try:
        cfg = example_family(args.n, lam)
    except ValueError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    sys.stdout.write(json.dumps(config_to_dict(cfg), sort_keys=True,
                                indent=2) + "\n")
    return 0


def _emit_checks(checks) -> int:
    ok = True
    for name, passed in checks:
        sys.stdout.write("%-58s %s\n" % (name, "ok" if passed else "FAIL"))
        ok = ok and passed
    return 0 if ok else 1


def cmd_verify_core(args) -> int:
    import random

    from .algebra import (BVector, SplitQuaternion, classify_square,
                          classify_square_criterion, module_action,
                          abelian_element)
    from .flat import flat_structure

    rng = random.Random(args.seed or 0)

    def rand_quat():
        return SplitQuaternion(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(4)])

    checks = []
    count = args.count
    ok = True
    for _ in range(count):
        p, q, r = rand_quat(), rand_quat(), rand_quat()
        if (p * q) * r != p * (q * r):
            ok = False
        if (p * q).conj() != q.conj() * p.conj():
            ok = False
        if (p * q).norm_sq() != p.norm_sq() * q.norm_sq():
            ok = False
    checks.append(("algebra identities (%d random triples)" % count, ok))

    grid = [Fraction(k, 2) for k in range(-6, 7)]
    ok = all(classify_square(SplitQuaternion(x, y, u, v))
             == classify_square_criterion(SplitQuaternion(x, y, u, v))
             for x in grid for y in grid for u in grid for v in grid)
    checks.append(("square classification on the half-integer grid", ok))

    ok = all(flat_structure(n).identities_hold() for n in (1, 2, 3))
    checks.append(("flat structure identities (n <= 3)", ok))

    ok = True
    for _ in range(100):
        p = abelian_element([(Fraction(3, 5), Fraction(4, 5))], "torus")
        xi = BVector([rand_quat()])
        eta = BVector([rand_quat()])
        u = SplitQuaternion(Fraction(5, 4), 0, Fraction(3, 4), 0)
        if module_action(p, u, xi).inner(module_action(p, u, eta)) != xi.inner(eta):
            ok = False
    checks.append(("module action preserves the inner product", ok))
    return _emit_checks(checks)


def cmd_verify_lie(args) -> int:
    from .liealg import (ce_differential, Form, jacobi_check,
                         closedness_report, nilpotency_step,
                         nilpotent5_example)
    from .symmetric import QuarticData, build_symmetric_hs

    alg, forms, _metric = nilpotent5_example()
    checks = [
        ("Jacobi identity for the 5-dim nilpotent example",
         jacobi_check(alg) == []),
        ("three-step nilpotency", nilpotency_step(alg) == 3),
    ]
    d3 = ce_differential(alg, Form(5, 1, {(2,): 1}))
    checks.append(("dE3 = -E1^E2", d3[(0, 1)] == -1 and len(d3.coeffs) == 1))
    rep = closedness_report(alg, forms)
    checks.append(("omega_I closed", rep["omega_I"]["printed_closed"]))
    checks.append(("omega_T closed", rep["omega_T"]["printed_closed"]))
    checks.append(("omega_S as printed is not closed "
                   "(residue -2 E1^E2^E3); sign-flip variant is",
                   (not rep["omega_S"]["printed_closed"])
                   and rep["omega_S"]["variant_closed"]
                   and rep["omega_S"]["printed_residue"][(0, 1, 2)] == -2))
    construction = build_symmetric_hs(QuarticData.unit(1))
    checks.append(("unit quartic reconstructs a 5-dim algebra",
                   construction.dim == 5))
    checks.append(("reconstruction satisfies Jacobi",
                   jacobi_check(construction.algebra) == []))
    checks.append(("reconstruction is three-step nilpotent",
                   nilpotency_step(construction.algebra) == 3))
    return _emit_checks(checks)


def cmd_verify_sasaki(args) -> int:
    from .sasaki import (cone_compare, find_assignment, sasaki_check,
                         unit_sphere_points, positive_norm_points)

    checks = []
    strict = find_assignment(0, scales=(1,))
    checks.append(("unit-scale bracket constants are unattainable "
                   "(norm multiplicativity forces scale 2)", strict is None))
    for n in (0, 1):
        pts = unit_sphere_points(n, args.points, seed=args.seed or 0)
        rep = sasaki_check(n, pts)
        checks.append(("killing triple on the pseudo-sphere, n=%d (%s)"
                       % (n, rep.assignment.describe()), rep.consistent))
        cone = cone_compare(n, positive_norm_points(n, 20, seed=args.seed or 0))
        checks.append(("cone reconstruction agrees with the flat model, n=%d"
                       % n, all(r.agrees for r in cone)))
    return _emit_checks(checks)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spliths",
        description="Toric hypersymplectic quotient analysis over the "
                    "split quaternions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run all decision procedures")
    p.add_argument("config")
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fiber", help="enumerate torus orbits over a point")
    p.add_argument("config")
    p.add_argument("--point", required=True,
                   help="3n rationals: a | Re b | Im b")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("example", help="emit the d = n+1 family config")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("verify-core", help="algebra and flat-structure suite")
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_core)

    p = sub.add_parser("verify-lie", help="Lie-algebraic example suite")
    p.set_defaults(func=cmd_verify_lie)

    p = sub.add_parser("verify-sasaki", help="pseudo-sphere Killing suite")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_sasaki)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
