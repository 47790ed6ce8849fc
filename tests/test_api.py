"""The public surface of each module, pinned.

A public name is one without a leading underscore that a module defines at
top level, or that a class defined there declares in its body.  A name
added or removed here is an API change and must be made on purpose.
"""

import ast
import importlib
import inspect

import pytest

PUBLIC = {
    "arith": [
        "PrimeFieldElement", "QuadFieldElement", "QuadFieldElement.conjugate",
        "QuadFieldElement.is_square", "QuadFieldElement.is_zero",
        "QuadFieldElement.norm", "TrivialGroupError", "factorize", "gauss_sum_square",
        "is_prime", "is_rational_square", "legendre_kronecker", "primes_up_to",
        "primitive_root", "rational_sqrt", "smallest_nonresidue",
    ],
    "gl2": [
        "CartanSpec", "CartanSpec.ell", "CartanSpec.kind", "CartanSpec.masks",
        "CartanSpec.theta", "ElementActionProfile",
        "ElementActionProfile.ell", "ElementActionProfile.k",
        "ElementActionProfile.orbit_sizes", "ElementActionProfile.r",
        "ElementActionProfile.s", "ElementActionProfile.sigma",
        "ElementActionProfile.validate", "GL2Element", "GL2Element.code",
        "GL2Element.conjugate_by", "GL2Element.det", "GL2Element.entries",
        "GL2Element.from_code", "GL2Element.identity", "GL2Element.inverse",
        "GL2Element.is_scalar", "action_profile", "cartan",
        "fixed_point_count", "projective_order",
    ],
    "subgroups": [
        "ENUMERABLE", "Subgroup", "Subgroup.codes", "Subgroup.det_image_size",
        "Subgroup.elements", "Subgroup.generators", "Subgroup.order", "closure",
        "conjugacy_key", "enumerate_subgroups", "from_elements", "normalizer",
    ],
    "localglobal": [
        "CASE_CARTAN", "CASE_EXCEPTIONAL", "CASE_NORMALIZER", "ClassificationResult",
        "ClassificationResult.case", "ClassificationResult.proj_order",
        "ClassificationResult.projective_image_structure",
        "ClassificationResult.witness", "LemmaReport", "LemmaReport.cartan_kind",
        "LemmaReport.ell", "LemmaReport.generator_entries",
        "LemmaReport.has_orbit_of_size_2", "LemmaReport.n", "LemmaReport.orbit_sizes",
        "LemmaReport.order", "LemmaReport.proper_containment", "LemmaReport.validate",
        "brute_cartan_witness", "classify", "common_fixed_count",
        "construct_prop3_group", "lemma1_hypothesis", "lemma1_verify", "lemma_report",
        "omega_orbit_sizes", "projective_image_order", "sigma_nontrivial",
        "witness_shape",
    ],
    "ecq": [
        "COUNTEREXAMPLE_CURVE", "CURVE_49A3", "CurveInvariants", "CurveInvariants.c4",
        "CurveInvariants.c6", "CurveInvariants.disc", "CurveInvariants.j",
        "WeierstrassCurve", "WeierstrassCurve.b_invariants",
        "WeierstrassCurve.c_invariants", "WeierstrassCurve.coefficients",
        "WeierstrassCurve.discriminant", "WeierstrassCurve.is_integral", "bad_primes",
        "eval_map_f", "invariants", "map_49a3_to_quartic_x", "parse_curve",
        "quartic_point_check", "two_torsion_x",
    ],
    "ecfp": [
        "LocalData", "LocalData.a_p", "LocalData.count", "LocalData.good",
        "LocalData.p", "LocalData.supersingular", "NAIVE_LIMIT", "ScanEntry",
        "ScanEntry.a_p", "ScanEntry.note", "ScanEntry.p", "ScanEntry.status",
        "ScanReport", "ScanReport.admitted", "ScanReport.all_admitted",
        "ScanReport.bound", "ScanReport.ell", "ScanReport.entries",
        "ScanReport.rejected", "ScanReport.skipped", "count_points",
        "local_isogeny_admitted", "local_scan", "reduce_and_count",
    ],
    "modpoly": [
        "CertificateReport", "CertificateReport.detail",
        "CertificateReport.discriminants", "CertificateReport.product_matches",
        "FactorDiscriminant", "FactorDiscriminant.degree", "FactorDiscriminant.disc",
        "FactorDiscriminant.matches_shape", "FactorizationCertificate",
        "FactorizationCertificate.factors", "FactorizationCertificate.target",
        "ModularPolynomial", "ModularPolynomial.coefficient",
        "ModularPolynomial.degree", "ModularPolynomial.half_terms",
        "SHIPPED_LEVELS",
        "evaluate_at_j", "fp_linear_factor_count", "fp_root_count", "load_factors",
        "load_modpoly", "rational_linear_factors", "shipped_certificate_factors",
        "shipped_modpoly", "verify_certificate",
    ],
    "classno": [
        "QuadOrder", "QuadOrder.D", "QuadOrder.conductor", "QuadOrder.fundamental",
        "QuadOrder.w", "RatioCheck", "RatioCheck.agree", "RatioCheck.direct",
        "RatioCheck.predicted", "ReducedForm", "ReducedForm.a", "ReducedForm.b",
        "ReducedForm.c", "ReducedForm.discriminant", "class_number",
        "exceptional_cm_contradiction", "quad_order", "ratio_check", "reduced_forms",
    ],
    "errors": [
        "DegeneratePointError", "DenominatorError", "ModPolyFormatError",
        "NotSemisimpleError", "VerificationError",
    ],
}


def _defined(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _public_names(module) -> list[str]:
    out = []
    for name, node in _defined(ast.parse(inspect.getsource(module)).body):
        if name.startswith("_"):
            continue
        out.append(name)
        if isinstance(node, ast.ClassDef):
            out += ["%s.%s" % (name, member) for member, _ in _defined(node.body)
                    if not member.startswith("_")]
    return sorted(out)


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_names_are_pinned(name):
    module = importlib.import_module("locisog." + name)
    assert _public_names(module) == PUBLIC[name]
