"""Run the table of mutants: small edits of the program that named tests were
shown to catch.  Each mutant is applied to a copy of src/ in a temporary
directory (never to the checkout), and only its tests run, against that copy,
under a timeout; a failing test or a timeout kills it.  One JSON line is
printed per mutant, then a summary line.

The exit code is 1 if a mutant survives, if a run goes wrong, or if a snippet
no longer occurs exactly once in the checkout: a refactor that moves a line
updates the table with it.  Standard library only; the tests need pytest.

Run from anywhere:  python scripts/mutants.py [NAME ...]
With names, only those mutants run; an unknown name exits 2 before any runs.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODPOLY = "src/locisog/modpoly.py"
MODPOLY_TESTS = "tests/test_modpoly.py::"
SUBGROUPS = "src/locisog/subgroups.py"
SUBGROUPS_TESTS = "tests/test_subgroups.py::"
TIMEOUT = 300  # seconds per mutant; a timeout kills it


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root, under src/
    edits: tuple  # (snippet, replacement) pairs; each snippet occurs once
    tests: tuple  # pytest node ids, any of which must fail


MUTANTS = (
    # the rational-root finder
    Mutant("search-ignores-derivative", MODPOLY,
           (("        ok = _values_mod(ds, q)[zeros] != 0\n", "        ok = zeros >= 0\n"),),
           (MODPOLY_TESTS + "test_lifting_prime_needs_simple_zeros",)),
    Mutant("no-call-on-derivative", MODPOLY,
           (("for root in set(_rational_roots(_derivative(s))):", "for root in ():"),),
           (MODPOLY_TESTS + "test_squarefree_fast_path_and_derivative_step",)),
    Mutant("deflation-divides-once", MODPOLY,
           (("        f, k = quo[1:-1], k + 1\n", "        return quo[1:-1], k + 1\n"),),
           (MODPOLY_TESTS + "test_squarefree_fast_path_and_derivative_step",)),
    # the packed X^p kernel
    Mutant("barrett-bound-cut", MODPOLY,
           (("    B = (6 * d * q * q).bit_length()\n", "    B = (d * q * q).bit_length()\n"),),
           (MODPOLY_TESTS + "test_xpow_mod_slot_worst_case",)),
    Mutant("quotient-without-barrett-step", MODPOLY,
           (("        Q -= (((Q * m) & hi_mask) >> B) * q\n", ""),),
           (MODPOLY_TESTS + "test_xpow_mod_slot_worst_case",)),
    # packed specialization
    Mutant("slot-one-bit-narrow", MODPOLY,
           (("    W = C.bit_length() + d * n + 1\n", "    W = C.bit_length() + d * n\n"),),
           (MODPOLY_TESTS + "test_specialize_mod_reduces_evaluate_at_j",)),
    # the root-layer record and its memo
    Mutant("memo-key-j-value", MODPOLY,
           (("    if (M, j) in _root_layers_cache:\n        return _root_layers_cache[M, j]\n",
             "    if j.value in _root_layers_cache:\n"
             "        return _root_layers_cache[j.value]\n"),
            ("    _root_layers_cache[M, j] = distinct, total\n",
             "    _root_layers_cache[j.value] = distinct, total\n")),
           (MODPOLY_TESTS + "test_root_layer_memo_key",)),
    Mutant("memo-key-without-level", MODPOLY,
           (("    if (M, j) in _root_layers_cache:\n        return _root_layers_cache[M, j]\n",
             "    if j in _root_layers_cache:\n        return _root_layers_cache[j]\n"),
            ("    _root_layers_cache[M, j] = distinct, total\n",
             "    _root_layers_cache[j] = distinct, total\n")),
           (MODPOLY_TESTS + "test_root_layer_memo_key",)),
    Mutant("memo-key-without-modulus", MODPOLY,
           (("    if (M, j) in _root_layers_cache:\n        return _root_layers_cache[M, j]\n",
             "    if (M, j.value) in _root_layers_cache:\n"
             "        return _root_layers_cache[M, j.value]\n"),
            ("    _root_layers_cache[M, j] = distinct, total\n",
             "    _root_layers_cache[M, j.value] = distinct, total\n")),
           (MODPOLY_TESTS + "test_root_layer_memo_key",)),
    Mutant("root-layer-untrimmed", MODPOLY,
           (("    g = _pgcd(f, _ptrim(g), p)", "    g = _pgcd(f, g, p)"),),
           (MODPOLY_TESTS + "test_fp_counts_match_brute_force",)),
    # the two routes of fp_root_count: the record, or the bilinear form over
    # the kept tables.  modpoly does not define ecfp's NAIVE_LIMIT, so its
    # value is written out as 1 << 12
    Mutant("no-record-rule", MODPOLY,
           (("            or _root_layers_cache and (M, j) in _root_layers_cache):\n",
             "            or p > 1 << 12):\n"),),
           (MODPOLY_TESTS + "test_root_count_reads_a_fresh_record",)),
    Mutant("tables-to-naive-limit", MODPOLY,
           (("    if q <= _TABLE_LIMIT and len(f) <= _POWERS:\n",
             "    if q <= 1 << 12 and len(f) <= _POWERS:\n"),),
           ("tests/test_ecfp.py::test_power_tables_stay_at_or_below_table_limit",)),
    Mutant("rows-past-table-limit", MODPOLY,
           (("    if (p > _TABLE_LIMIT or M.degree", "    if (p > 1 << 12 or M.degree"),),
           ("tests/test_ecfp.py::test_power_tables_stay_at_or_below_table_limit",)),
    Mutant("route-ignores-level-divisor", MODPOLY,
           ((" or M.level % p == 0\n", "\n"),),
           (MODPOLY_TESTS + "test_phi_values_match_the_specialization",)),
    Mutant("route-ignores-degree", MODPOLY,
           ((" or M.degree >= _POWERS or", " or"),),
           (MODPOLY_TESTS + "test_phi_values_fall_back_past_the_table",)),
    Mutant("bilinear-skips-reduction", MODPOLY,
           (("    return T[:, j.value] @ _rows_mod(M, p) @ T % p\n",
             "    return T[:, j.value] @ _rows_mod(M, p) @ T\n"),),
           (MODPOLY_TESTS + "test_phi_values_match_the_specialization",)),
    Mutant("char-sum-tables-to-naive-limit", MODPOLY,
           (("    if q <= _TABLE_LIMIT:\n        chi[_powers(q)[2]] = 1\n",
             "    if q <= 1 << 12:\n        chi[_powers(q)[2]] = 1\n"),),
           ("tests/test_ecfp.py::test_power_tables_stay_at_or_below_table_limit",)),
    # the exact Gauss sum and its CLI verdict
    Mutant("gauss-fold-drops-correction", "src/locisog/arith.py",
           (("    coords = [(g2 >> W * i & mask) - top for i in range(ell - 1)]\n",
             "    coords = [(g2 >> W * i & mask) for i in range(ell - 1)]\n"),),
           ("tests/test_arith.py::test_gauss_sum_square_identity",)),
    Mutant("gauss-target-sign", "src/locisog/cli.py",
           (("legendre_kronecker(-1 % args.ell, args.ell)", "1"),),
           ("tests/test_cli.py::test_gauss_pass",)),
    # the witness-group check and the counterexample replay, shared by the
    # CLI and acceptance criteria 3 and 4
    Mutant("witness-shape-fixed-bound", "src/locisog/localglobal.py",
           (("min_fixed >= 2", "min_fixed >= 3"),),
           ("tests/test_cli.py::test_group_shape",
            "tests/test_acceptance.py::test_criterion_3_dihedral_witness_groups")),
    # a shifted antidiagonal exponent still closes a group of the right
    # order, but at l = 7 its determinants cover half of F_7^* and its 18
    # antidiagonal elements fix no line
    Mutant("antidiagonal-exponent-shifted", "src/locisog/localglobal.py",
           (("GL2Element(0, pw[i], pw[j], 0, ell)",
             "GL2Element(0, pw[i], pw[(j + 1) % (ell - 1)], 0, ell)"),),
           ("tests/test_localglobal.py::test_construct_prop3_group_examples",
            "tests/test_acceptance.py::test_criterion_3_dihedral_witness_groups")),
    Mutant("replay-ignores-certificate-product", "src/locisog/cli.py",
           (('step("certificate-product", cert.product_matches,',
             'step("certificate-product", True,'),),
           ("tests/test_cli.py::test_counterexample_fails_on_wrong_factors",)),
    # exact values: the one gate to Q refuses floats, and the quartic check
    # lets QuadFieldElement's lift reject coordinates from two fields, where
    # an equality test would answer False
    Mutant("frac-admits-floats", "src/locisog/arith.py",
           (("    if isinstance(v, float):\n"
             "        raise TypeError(\"values must be exact (int, Fraction, or 'p/q' string)\")\n",
             ""),),
           ("tests/test_ecq.py::test_floats_rejected_at_every_exact_entry",)),
    Mutant("quartic-check-compares-across-fields", "src/locisog/ecq.py",
           (("    return y * y * -7 - _horner(_QUARTIC, x) == 0\n",
             "    return y * y * -7 == _horner(_QUARTIC, x)\n"),),
           ("tests/test_ecq.py::test_quartic_check_rejects_mixed_fields",)),
    # the lemma verifier's conclusions
    Mutant("validate-accepts-nonsplit", "src/locisog/localglobal.py",
           (('        if self.cartan_kind != "split":\n', "        if False:\n"),),
           ("tests/test_localglobal.py::test_lemma_report_validation_catches_corruption",)),
    Mutant("validate-accepts-n-one", "src/locisog/localglobal.py",
           (("self.n <= 1", "self.n < 1"),),
           ("tests/test_localglobal.py::test_lemma_report_validation_catches_corruption",)),
    # the subgroup enumeration engine.  One slab row per coset g N(H) builds
    # each conjugate of a class once, so a skipped row loses a conjugate
    Mutant("enumeration-drops-a-generator", SUBGROUPS,
           (("    gperms = [_right_perm(c, ell) for c in gens]\n",
             "    gperms = [_right_perm(c, ell) for c in gens][1:]\n"),),
           (SUBGROUPS_TESTS + "test_extension_equals_closure[3]",
            SUBGROUPS_TESTS + "test_extension_equals_closure[5]")),
    Mutant("conjugates-drop-one-conjugate", SUBGROUPS,
           (("    return keys\n", "    return keys - {max(keys)} if len(keys) > 1 else keys\n"),),
           (SUBGROUPS_TESTS + "test_enumeration_class_counts",
            SUBGROUPS_TESTS + "test_cyclic_subgroup_count_oracle[5]")),
    Mutant("conjugates-skip-a-coset", SUBGROUPS,
           (("    cosets = _transversal(perms, ell)\n",
             "    cosets = _transversal(perms, ell)\n"
             "    cosets = cosets[1:] if len(cosets) > 1 else cosets\n"),),
           (SUBGROUPS_TESTS + "test_conjugates_one_row_per_coset_of_the_normalizer[3]",
            SUBGROUPS_TESTS + "test_enumeration_class_counts")),
    Mutant("normalizer-from-first-generator", SUBGROUPS,
           (("np.divmod(np.array(gens, dtype=np.int64), ell * ell)",
             "np.divmod(np.array(gens[:1], dtype=np.int64), ell * ell)"),),
           (SUBGROUPS_TESTS + "test_normalizer_mask_per_coset_representative[3]",
            SUBGROUPS_TESTS + "test_enumeration_regression_pin[5]")),
    # an extension BFS that ignores its stop mask closes the same group the
    # SL2 step would read, so only the sizes of the completed masks show it
    Mutant("close-ignores-stop", SUBGROUPS,
           (("        if stop is not None and stop[frontier].any():\n            return None\n", ""),),
           (SUBGROUPS_TESTS + "test_extension_bfs_never_needs_a_lagrange_stop[3]",)),
    Mutant("classes-of-equal-order-merged", SUBGROUPS,
           (("    return tuple(H for H, _, _ in classes)\n",
             "    return tuple({H.order: H for H, _, _ in classes}.values())\n"),),
           (SUBGROUPS_TESTS + "test_enumeration_matches_brute_force_ell3",
            SUBGROUPS_TESTS + "test_enumeration_class_counts")),
    # spread is built by the same _digits, so in every conjugation the swap
    # undoes itself: only the direct test of fold sees it
    Mutant("fold-axes-swapped", SUBGROUPS,
           (("    out = out[:, :, :, None] * base + digit\n",
             "    out = out[:, :, None, :] * base + digit[:, None]\n"),),
           (SUBGROUPS_TESTS + "test_conj_tables_are_int32_and_fold_decodes_every_index[3]",)),
    # the extension step: <H, x> is det^-1(det <H, x>) only when it fixes no
    # line, and its dets include H's; candidates are one per orbit of
    # conjugation by N(H), right multiplication by H and inversion, and no
    # more than N(H) may conjugate
    Mutant("sl2-step-ignores-fixed-lines", SUBGROUPS,
           (("    reducible = fixed[:, fixed[list(gens)].all(axis=0)].any(axis=1)\n",
             "    reducible = np.zeros(n, dtype=bool)\n"),),
           (SUBGROUPS_TESTS + "test_borel_extension_takes_the_bfs",
            SUBGROUPS_TESTS + "test_sl2_step_equals_closure[3]")),
    Mutant("sl2-step-det-of-x-only", SUBGROUPS,
           (("    dets = np.bincount(det[els], minlength=ell) > 0  # det H\n",
             "    dets = np.arange(ell) == 1\n"),),
           (SUBGROUPS_TESTS + "test_sl2_step_equals_closure[5]",
            SUBGROUPS_TESTS + "test_enumeration_regression_pin[5]")),
    Mutant("gamma-conjugates-past-normalizer", SUBGROUPS,
           (("[1][list(new)]]", "[1][list(new) + [_encode(1, 1, 0, 1, ell)]]]"),),
           (SUBGROUPS_TESTS + "test_gamma_orbit_candidates_match_double_coset_marking[5]",
            SUBGROUPS_TESTS + "test_enumeration_class_counts")),
    # right multiplication from the dot table, and N(H) found in the scalar
    # quotient: a greedy BFS (shared with from_elements) that picks too few
    # generators, or misses a non-group by either of its two checks
    Mutant("right-perm-transposed", SUBGROUPS,
           (("    row = (D[a * ell + c] * ell + D[b * ell + d])",
             "    row = (D[a * ell + b] * ell + D[c * ell + d])"),),
           (SUBGROUPS_TESTS + "test_right_perm_reads_the_dot_table[3]",
            SUBGROUPS_TESTS + "test_enumeration_regression_pin[5]")),
    Mutant("quotient-bfs-stops-a-generator-early", SUBGROUPS,
           (("        if size >= total:\n", "        if 2 * size >= total:\n"),),
           (SUBGROUPS_TESTS + "test_quotient_normalizer_generates_the_normalizer[3]",
            SUBGROUPS_TESTS + "test_conjugates_one_row_per_coset_of_the_normalizer[3]",
            SUBGROUPS_TESTS + "test_enumeration_work_pin[5]")),
    Mutant("quotient-bfs-trusts-a-non-group", SUBGROUPS,
           (("    if (member > normal).any():\n", "    if False:\n"),),
           (SUBGROUPS_TESTS + "test_quotient_normalizer_rejects_a_non_group",)),
    Mutant("quotient-normalizer-skips-closure-check", SUBGROUPS,
           (("    if not all(_lookup(els, _right_perm(g, ell, els))[1].all() for g in H._gen_codes):\n",
             "    if False:\n"),),
           (SUBGROUPS_TESTS + "test_quotient_normalizer_rejects_a_non_group",)),
    # the action on lines, which the fixed-line table of the extension step
    # reads: rows acted on in place of columns
    Mutant("line-action-transposed", "src/locisog/gl2.py",
           (("    u = (a * x + b * y) % ell\n    v = (c * x + d * y) % ell\n",
             "    u = (a * x + c * y) % ell\n    v = (b * x + d * y) % ell\n"),),
           ("tests/test_gl2.py::test_projective_action_is_action",)),
    # orbit labels by sweeps to a fixpoint: one sweep leaves labels that are
    # not yet constant on orbits
    Mutant("orbit-minima-one-sweep", "src/locisog/gl2.py",
           (("        if (labels == before).all():\n            return labels\n",
             "        return labels\n"),),
           ("tests/test_gl2.py::test_orbit_minima_match_plain_orbits",
            SUBGROUPS_TESTS + "test_gamma_orbit_candidates_match_double_coset_marking[5]")),
    # point counting: the differential addition in its multiplicative form,
    # which divides by x(M - N) and so reads M + N as O where x(M - N) = 0
    Mutant("xadd-divides-by-difference", "src/locisog/ecfp.py",
           (("    num = (2 * ((s + t) * ((X1 * X2 + a * ZZ) % p) % p) + 4 * (b * ZZ % p * ZZ % p)) % p\n"
             "    return (ZD * num - XD * dd) % p, ZD * dd % p\n",
             "    u = (X1 * X2 - a * ZZ) % p\n"
             "    num = (u * u - 4 * (b * ZZ % p) % p * ((s + t) % p)) % p\n"
             "    return ZD * num % p, XD * dd % p\n"),),
           ("tests/test_ecfp.py::test_x_only_kernels_match_affine_multiples[11]",
            "tests/test_ecfp.py::test_bsgs_matches_naive")),
    # local data and primality
    Mutant("supersingular-needs-zero-trace", "src/locisog/ecfp.py",
           (("        return self.good and self.a_p % self.p == 0\n",
             "        return self.good and self.a_p == 0\n"),),
           ("tests/test_ecfp.py::test_local_data_validation",)),
    Mutant("miller-rabin-nine-witnesses", "src/locisog/arith.py",
           (("    for a in _MR_WITNESSES:\n", "    for a in _MR_WITNESSES[:9]:\n"),),
           ("tests/test_arith.py::test_is_prime_rejects_strong_pseudoprimes",)),
)

# the child runs pytest if it imports the copy, not the checkout; if not, its
# exit code 97 reads as an error
_CHILD = ("import sys, locisog, pytest\n"
          "if not locisog.__file__.startswith(sys.argv[1]):\n"
          "    sys.exit(97)\n"
          "sys.exit(pytest.main(sys.argv[2:]))\n")


def stale(m: Mutant, root: str = ROOT) -> list:
    """What no longer matches the checkout at root: each snippet that does
    not occur exactly once, and each test whose function is not defined."""
    with open(os.path.join(root, m.path), encoding="utf-8") as fh:
        text = fh.read()
    out = [old for old, _ in m.edits if text.count(old) != 1]
    for node in m.tests:
        path, name = node.split("::")
        with open(os.path.join(root, path), encoding="utf-8") as fh:
            if ("def %s(" % name.split("[")[0]) not in fh.read():
                out.append(node)
    return out


def run(m: Mutant) -> str:
    """killed, survived or error: the mutant's tests against a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = os.path.join(tmp, m.path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        for old, new in m.edits:
            text = text.replace(old, new)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        cmd = [sys.executable, "-c", _CHILD, os.path.join(tmp, "src"),
               "-q", "-x", "-p", "no:cacheprovider", *m.tests]
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            return "killed"
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(names=()) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print("unknown mutant: %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.monotonic()
    ok = True
    for m in chosen:
        t = time.monotonic()
        bad = stale(m)
        status = "stale" if bad else run(m)
        line = {"mutant": m.name, "status": status, "seconds": round(time.monotonic() - t, 2)}
        if bad:
            line["unmatched"] = bad
        print(json.dumps(line), flush=True)
        ok = ok and status == "killed"
    print(json.dumps({"mutants": len(chosen), "all_killed": ok,
                      "seconds": round(time.monotonic() - start, 2)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
