"""Command-line surface: reproducible verification runs with exit codes
0 (all checks pass), 1 (a verification found a violation), 2 (usage or
data error), and optional machine-readable JSON reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .arith import QuadFieldElement, gauss_sum_square, legendre_kronecker
from .classno import class_number, ratio_check
from .ecq import (COUNTEREXAMPLE_CURVE, _rational, bad_primes, eval_map_f, invariants,
                  map_49a3_to_quartic_x, parse_curve, quartic_point_check)
from .ecfp import local_scan
from .errors import VerificationError
from .localglobal import lemma1_verify, witness_shape
from .modpoly import (FactorizationCertificate, evaluate_at_j, load_factors,
                      load_modpoly, rational_linear_factors, shipped_certificate_factors,
                      shipped_modpoly, verify_certificate)


def _render(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    for f in report["findings"]:
        print("- " + ", ".join("%s: %s" % (k, v) for k, v in sorted(f.items())))
    print("%s: %s (%d findings, %d ms)" % (report["command"], report["status"],
                                          len(report["findings"]), report["elapsed_ms"]))


def _modpoly(path, level: int):
    """The --modpoly file, or the shipped polynomial, checked to be of this level."""
    phi = load_modpoly(path) if path else shipped_modpoly(level)
    if phi.level != level:
        raise ValueError("expected a level-%d modular polynomial, got level %d"
                         % (level, phi.level))
    return phi


def _cmd_lemma(args) -> tuple[str, list]:
    reports = lemma1_verify(args.ell)
    findings = [{"order": r.order, "n": r.n, "cartan": r.cartan_kind,
                 "proper_containment": r.proper_containment,
                 "orbit_sizes": list(r.orbit_sizes),
                 "generators": [list(g) for g in r.generator_entries]}
                for r in reports]
    findings.append({"ell": args.ell, "satisfying_classes": len(reports),
                     "all_conclusions_hold": True})
    return "pass", findings


def replay_counterexample(bound: int, modpoly=None, factors=None) -> tuple[str, list]:
    """The degree-7 counterexample in ten named steps, scanned up to bound, as
    (status, findings); modpoly and factors are files replacing the shipped ones."""
    findings = []

    def step(name, ok, detail):
        findings.append({"step": name, "ok": bool(ok), "detail": str(detail)})

    E = COUNTEREXAMPLE_CURVE
    inv = invariants(E)
    step("j-invariant", inv.j == Fraction(2268945, 128), "j = %s" % inv.j)
    bp = bad_primes(E)
    step("bad-primes", bp == {2, 5, 7}, sorted(bp))
    scan = local_scan(E, 7, bound)
    want = {2: "skipped", 5: "bad_reduction", 7: "skipped"}  # every other prime admitted
    step("local-scan", all(e.status == want.get(e.p, "admitted") for e in scan.entries),
         "admitted %d, rejected %s, skipped %s up to %d"
         % (len(scan.admitted), list(scan.rejected), list(scan.skipped), bound))
    target = evaluate_at_j(_modpoly(modpoly, 7), inv.j)
    roots = rational_linear_factors(target)
    step("no-rational-root", roots == (), "rational roots: %s" % (list(map(str, roots)),))
    factors = load_factors(factors) if factors else shipped_certificate_factors()
    cert = verify_certificate(FactorizationCertificate(tuple(target), factors))
    step("certificate-product", cert.product_matches, cert.detail or "factors multiply back")
    shapes = [d.matches_shape for d in cert.discriminants]
    step("certificate-discriminants",
         sorted(d.degree for d in cert.discriminants) == [2, 3, 3] and all(shapes),
         "non-linear factor discriminants of shape -7a^2/4^b: %s" % shapes)
    x = Fraction(-1, 2)
    step("twist-points", all(quartic_point_check(x, y) for y in (Fraction(1, 4), -Fraction(1, 4))),
         "(-1/2, +-1/4) on -7y^2 = quartic")
    step("map-value", eval_map_f(x) == inv.j, "f(-1/2) = %s" % eval_map_f(x))
    gx, square = map_49a3_to_quartic_x(-14, QuadFieldElement(7, 29, -1))
    step("gaussian-point-map",
         gx == QuadFieldElement(Fraction(-29, 58), Fraction(7, 58), -1) and square,
         "x = %s, ordinate exists in Q(i): %s" % (gx, square))
    ok, shape = witness_shape(7, 3)
    step("group-shape", ok and shape["order"] == 36 and shape["orbit_sizes"] == [2, 3, 3],
         "order %(order)d, image %(projective_image)s, orbits %(orbit_sizes)s" % shape)
    return ("pass" if all(f["ok"] for f in findings) else "fail"), findings


def _cmd_curve(args) -> tuple[str, list]:
    if args.mode == "local":
        if args.curve is None or args.j is not None or args.modpoly:
            raise ValueError("local mode needs --curve and takes no --j or --modpoly")
        bound = 10000 if args.bound is None else args.bound
        scan = local_scan(parse_curve(args.curve), args.ell, bound)
        findings = [{"p": e.p, "status": e.status,
                     **({"a_p": e.a_p} if e.a_p is not None else {}),
                     **({"note": e.note} if e.note else {})}
                    for e in scan.entries]
        findings.append({"all_admitted": scan.all_admitted,
                         "admitted_count": len(scan.admitted),
                         "rejected": list(scan.rejected), "bound": bound,
                         "ell": args.ell})
        return "pass", findings
    if args.bound is not None:
        raise ValueError("global mode scans no primes and takes no --bound")
    if (args.j is None) == (args.curve is None):
        raise ValueError("global mode needs one of --j and --curve, got %s"
                         % ("neither" if args.j is None else "both"))
    j = invariants(parse_curve(args.curve)).j if args.j is None else _rational(args.j, "j")
    roots = rational_linear_factors(evaluate_at_j(_modpoly(args.modpoly, args.ell), j))
    verdict = ("rational %d-isogeny exists" % args.ell) if roots else \
        ("no rational %d-isogeny" % args.ell)
    return "pass", [{"j": str(j), "ell": args.ell,
                     "rational_roots": [str(r) for r in roots], "verdict": verdict}]


def _cmd_gauss(args) -> tuple[str, list]:
    g2 = gauss_sum_square(args.ell)
    target = legendre_kronecker(-1 % args.ell, args.ell) * args.ell
    ok = g2 == target
    return ("pass" if ok else "fail"), [{"ell": args.ell, "g_squared": g2,
                                         "target": target, "ok": ok}]


def _cmd_classnumber(args) -> tuple[str, list]:
    return "pass", [{"D": args.disc, "h": class_number(args.disc)}]


def _cmd_ratio(args) -> tuple[str, list]:
    r = ratio_check(args.disc, args.ell)
    return ("pass" if r.agree else "fail"), [{"D0": args.disc, "ell": args.ell,
                                              "predicted": str(r.predicted),
                                              "direct": str(r.direct), "agree": r.agree}]


def _cmd_group(args) -> tuple[str, list]:
    ok, shape = witness_shape(args.ell, args.n)
    shape.update({"ell": args.ell, "n": args.n})
    return ("pass" if ok else "fail"), [shape]


_DISPATCH = {"lemma": _cmd_lemma,
             "counterexample": lambda a: replay_counterexample(a.bound, a.modpoly, a.factors),
             "curve": _cmd_curve, "gauss": _cmd_gauss, "classnumber": _cmd_classnumber,
             "ratio": _cmd_ratio, "group": _cmd_group}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locisog",
        description="Mechanical verification of the local-global principle "
                    "for rational isogenies of prime degree.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw:
                                argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("lemma", help="exhaustively verify the dihedral lemma at one prime")
    p.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("counterexample", help="replay the degree-7 counterexample end to end")
    p.add_argument("--bound", type=int, default=10000, help="local scan bound (default 10000)")
    p.add_argument("--modpoly", help="override the shipped level-7 modular polynomial file")
    p.add_argument("--factors", help="override the shipped factorization certificate file")

    p = sub.add_parser("curve", help="local admission scan or global isogeny verdict")
    p.add_argument("mode", choices=("local", "global"))
    p.add_argument("--curve", help='coefficients "a1,a2,a3,a4,a6"')
    p.add_argument("--j", help="j-invariant as p/q (global mode)")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--bound", type=int, help="local scan bound (default 10000)")
    p.add_argument("--modpoly", help="modular polynomial file (default: shipped)")

    p = sub.add_parser("gauss", help="check the quadratic Gauss sum identity")
    p.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("classnumber", help="class number by reduced form enumeration")
    p.add_argument("--disc", type=int, required=True)

    p = sub.add_parser("ratio", help="class number ratio vs the unit-index formula")
    p.add_argument("--disc", type=int, required=True, help="fundamental discriminant D0")
    p.add_argument("--ell", type=int, required=True)

    p = sub.add_parser("group", help="build and check the dihedral-normalizer subgroup")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        status, findings = _DISPATCH[args.command](args)
    except VerificationError as e:
        status, findings = "fail", [{"violation": str(e)}]
    except (ValueError, ArithmeticError, OSError) as e:
        status, findings = "error", [{"error": str(e)}]
    _render({"command": args.command, "status": status, "findings": findings,
             "elapsed_ms": int((time.monotonic() - start) * 1000)}, args.json)
    return {"pass": 0, "fail": 1, "error": 2}[status]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
