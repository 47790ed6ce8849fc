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
from .ecq import (COUNTEREXAMPLE_CURVE, bad_primes, eval_map_f, invariants,
                  map_49a3_to_quartic_x, parse_curve, quartic_point_check)
from .ecfp import local_scan
from .errors import VerificationError
from .gl2 import _fixed_line_counts
from .localglobal import (CASE_NORMALIZER, classify, common_fixed_count,
                          construct_prop3_group, lemma1_verify, omega_orbit_sizes,
                          projective_image_order)
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


def _prop3_shape(ell: int, n: int) -> tuple[bool, dict]:
    G = construct_prop3_group(ell, n)
    det_surjective = G.det_image_size() == ell - 1
    min_fixed = int(_fixed_line_counts(G.codes, ell).min())
    nothing_fixed = common_fixed_count(G) == 0
    res = classify(G)
    dihedral = res.case == CASE_NORMALIZER and projective_image_order(G) == 2 * n
    ok = det_surjective and min_fixed >= 2 and nothing_fixed and dihedral
    return ok, {"order": G.order, "det_surjective": det_surjective,
                "min_fixed_points": min_fixed, "no_common_fixed_point": nothing_fixed,
                "projective_image": res.projective_image_structure,
                "orbit_sizes": list(omega_orbit_sizes(G)), "ok": ok}


def _cmd_counterexample(args) -> tuple[str, list]:
    findings = []

    def step(name, ok, detail):
        findings.append({"step": name, "ok": bool(ok), "detail": str(detail)})

    E = COUNTEREXAMPLE_CURVE
    inv = invariants(E)
    step("j-invariant", inv.j == Fraction(2268945, 128), "j = %s" % inv.j)
    bp = bad_primes(E)
    step("bad-primes", bp == {2, 5, 7}, sorted(bp))
    scan = local_scan(E, 7, args.bound)
    step("local-scan", scan.all_admitted,
         "admitted %d, rejected %s, skipped %s up to %d"
         % (len(scan.admitted), list(scan.rejected), list(scan.skipped), args.bound))
    target = evaluate_at_j(_modpoly(args.modpoly, 7), inv.j)
    roots = rational_linear_factors(target)
    step("no-rational-root", roots == (), "rational roots: %s" % (list(map(str, roots)),))
    factors = load_factors(args.factors) if args.factors else shipped_certificate_factors()
    cert = verify_certificate(FactorizationCertificate(tuple(target), factors))
    step("certificate-product", cert.product_matches, cert.detail or "factors multiply back")
    shapes = [d.matches_shape for d in cert.discriminants]
    step("certificate-discriminants", len(shapes) == 3 and all(shapes),
         "non-linear factor discriminants of shape -7a^2/4^b: %s" % shapes)
    on_twist = (quartic_point_check(Fraction(-1, 2), Fraction(1, 4))
                and quartic_point_check(Fraction(-1, 2), Fraction(-1, 4)))
    step("twist-points", on_twist, "(-1/2, +-1/4) on -7y^2 = quartic")
    step("map-value", eval_map_f(Fraction(-1, 2)) == inv.j, "f(-1/2) = %s" % eval_map_f(Fraction(-1, 2)))
    u = QuadFieldElement(-14, 0, -1)
    v = QuadFieldElement(7, 29, -1)
    x, square = map_49a3_to_quartic_x(u, v)
    want = QuadFieldElement(Fraction(-29, 58), Fraction(7, 58), -1)
    step("gaussian-point-map", x == want and square,
         "x = %s, ordinate exists in Q(i): %s" % (x, square))
    ok, shape = _prop3_shape(7, 3)
    step("group-shape", ok and shape["order"] == 36 and shape["orbit_sizes"] == [2, 3, 3],
         "order %(order)d, image %(projective_image)s, orbits %(orbit_sizes)s" % shape)
    status = "pass" if all(f["ok"] for f in findings) else "fail"
    return status, findings


def _cmd_curve(args) -> tuple[str, list]:
    E = None if args.curve is None else parse_curve(args.curve)
    if args.mode == "local":
        if E is None:
            raise ValueError("local mode needs a curve (--curve)")
        scan = local_scan(E, args.ell, args.bound)
        findings = [{"p": e.p, "status": e.status,
                     **({"a_p": e.a_p} if e.a_p is not None else {}),
                     **({"note": e.note} if e.note else {})}
                    for e in scan.entries]
        findings.append({"all_admitted": scan.all_admitted,
                         "admitted_count": len(scan.admitted),
                         "rejected": list(scan.rejected), "bound": args.bound,
                         "ell": args.ell})
        return "pass", findings
    if args.j is not None:
        j = Fraction(args.j)
    elif E is not None:
        j = invariants(E).j
    else:
        raise ValueError("global mode needs --j or a curve")
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
    ok, shape = _prop3_shape(args.ell, args.n)
    shape.update({"ell": args.ell, "n": args.n})
    return ("pass" if ok else "fail"), [shape]


_DISPATCH = {"lemma": _cmd_lemma, "counterexample": _cmd_counterexample,
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
    p.add_argument("--bound", type=int, default=10000)
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
