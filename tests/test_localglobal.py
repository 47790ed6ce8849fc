import dataclasses
import random
import tracemalloc
from collections import Counter

import pytest

from locisog import localglobal
from locisog.arith import primitive_root
from locisog.errors import NotSemisimpleError, VerificationError
from locisog.gl2 import GL2Element, cartan, fixed_point_count
from locisog.localglobal import (CASE_CARTAN, CASE_EXCEPTIONAL, CASE_NORMALIZER,
                                 ClassificationResult, brute_cartan_witness, classify,
                                 common_fixed_count, construct_prop3_group, lemma1_hypothesis,
                                 lemma1_verify, lemma_report, omega_orbit_sizes,
                                 projective_image_order, sigma_nontrivial, witness_shape)
from locisog.subgroups import closure, enumerate_subgroups, from_elements, normalizer


def _random_gl2(rng, ell):
    while True:
        a, b, c, d = (rng.randrange(ell) for _ in range(4))
        if (a * d - b * c) % ell:
            return GL2Element(a, b, c, d, ell)


def test_no_satisfying_classes_below_seven():
    for ell in (2, 3, 5):
        assert lemma1_verify(ell) == ()


def test_orbit_sizes_partition_the_line():
    rng = random.Random(31)
    for _ in range(60):
        ell = rng.choice([3, 5, 7])
        G = closure((_random_gl2(rng, ell), _random_gl2(rng, ell)))
        sizes = omega_orbit_sizes(G)
        assert sum(sizes) == ell + 1
        assert sizes == tuple(sorted(sizes))
        # singleton orbits are exactly the points fixed by the whole group
        assert common_fixed_count(G) == sizes.count(1)


def _fixes_line(g, t):
    """Whether g fixes the line (1 : t), or (0 : 1) when t == ell."""
    a, b, c, d = g.entries()
    if t == g.ell:
        return b == 0
    return (c + d * t - t * (a + b * t)) % g.ell == 0


def test_common_fixed_count_matches_brute():
    rng = random.Random(33)
    for _ in range(60):
        ell = rng.choice([3, 5, 7])
        G = closure((_random_gl2(rng, ell), _random_gl2(rng, ell)))
        brute = sum(1 for t in range(ell + 1)
                    if all(_fixes_line(g, t) for g in G.elements))
        assert common_fixed_count(G) == brute


def test_hypothesis_requires_all_three_parts():
    # a split Cartan fixes (1:0) and (0:1) in common, so part three fails
    C = from_elements(cartan("split", 7))
    assert common_fixed_count(C) == 2
    assert not lemma1_hypothesis(C)
    # its full normalizer fixes nothing in common, but the antidiagonal part
    # holds elements with no fixed point at all, so part two fails there
    N = normalizer(from_elements(cartan("split", 7)))
    assert sigma_nontrivial(N)
    assert common_fixed_count(N) == 0
    assert not all(fixed_point_count(g) > 0 for g in N.elements)
    assert not lemma1_hypothesis(N)


def _gl2(ell):
    return [GL2Element(a, b, c, d, ell) for a in range(ell) for b in range(ell)
            for c in range(ell) for d in range(ell) if (a * d - b * c) % ell]


def test_classify_trichotomy_is_total_and_exclusive():
    """The witness theta is checked with GL2Element arithmetic alone: its
    centralizer C = {g : g theta = theta g} has the order of a Cartan of
    its kind, G lies in C's normalizer as subgroups.normalizer computes it,
    and G lies in C exactly in the Cartan case."""
    rng = random.Random(35)
    seen = set()
    by_theta = {}
    for _ in range(150):
        ell = rng.choice([3, 5, 7])
        G = closure((_random_gl2(rng, ell), _random_gl2(rng, ell)))
        if G.order % ell == 0:
            with pytest.raises(NotSemisimpleError):
                classify(G)
            continue
        res = classify(G)
        assert res.case in (CASE_CARTAN, CASE_NORMALIZER, CASE_EXCEPTIONAL)
        seen.add(res.case)
        if res.case == CASE_EXCEPTIONAL:
            continue
        theta = res.witness.theta
        key = (ell, theta.code())
        if key not in by_theta:
            C = {g for g in _gl2(ell) if g * theta == theta * g}
            by_theta[key] = (C, set(normalizer(from_elements(C)).elements))
        C, N = by_theta[key]
        assert len(C) == ((ell - 1) ** 2 if res.witness.kind == "split" else ell * ell - 1)
        elements = set(G.elements)
        assert elements <= N
        assert (elements <= C) == (res.case == CASE_CARTAN)
    assert CASE_CARTAN in seen and CASE_NORMALIZER in seen


def test_witness_theta_lies_in_the_group():
    """G certifies its own Cartan: on every non-scalar semisimple class
    outside the exceptional branch, the witness theta is an element of G."""
    for ell in (3, 5, 7, 11):
        for G in enumerate_subgroups(ell):
            if G.order % ell == 0:
                continue
            res = classify(G)
            if res.case != CASE_EXCEPTIONAL and res.proj_order > 1:
                assert res.witness.theta.code() in G.codes


# A5 needs order divisible by 5, so at 5 only A4 and S4 survive
# semisimplicity; past 5, A5 lies in PGL_2(F_ell) only where ell = +-1 mod 10
EXCEPTIONAL_COUNTS = {5: {"A4": 2, "S4": 1}, 7: {"A4": 3, "S4": 2},
                      11: {"A4": 2, "S4": 2, "A5": 2}}


@pytest.mark.parametrize("ell", sorted(EXCEPTIONAL_COUNTS))
def test_exceptional_class_counts(ell):
    """How many semisimple enumerated classes classify gives each
    exceptional label."""
    found = Counter(res.projective_image_structure
                    for res in (classify(G) for G in enumerate_subgroups(ell)
                                if G.order % ell)
                    if res.case == CASE_EXCEPTIONAL)
    assert found == EXCEPTIONAL_COUNTS[ell]


def test_classify_agrees_with_brute_witness():
    """On every semisimple class at ell in {3, 5, 7}, the exhaustive
    conjugator scan finds no Cartan normalizer exactly for the exceptional
    classes, and a Cartan for each class that classify puts in one; that
    Cartan has classify's kind when G is not all scalars, since it is then
    the centralizer of a non-scalar element of G."""
    for ell in (3, 5, 7):
        for G in enumerate_subgroups(ell):
            if G.order % ell == 0:
                continue
            res = classify(G)
            in_normalizer = brute_cartan_witness(G, normalizer=True) is not None
            assert in_normalizer == (res.case != CASE_EXCEPTIONAL)
            if res.case == CASE_CARTAN:
                brute = brute_cartan_witness(G)
                assert brute is not None
                if res.proj_order > 1:
                    assert brute.kind == res.witness.kind


def test_scalar_group_is_cartan_contained():
    for ell in (2, 3, 7):
        G = closure((GL2Element.identity(ell),))
        res = classify(G)
        assert res.case == CASE_CARTAN
        assert res.proj_order == 1


def test_construct_prop3_group_examples():
    G = construct_prop3_group(7, 3)
    assert G.order == 36
    assert G.det_image_size() == 6
    assert omega_orbit_sizes(G) == (2, 3, 3)
    assert lemma1_hypothesis(G)
    res = classify(G)
    assert res.case == CASE_NORMALIZER
    assert projective_image_order(G) == 6
    rep = lemma_report(G)
    assert rep.n == 3 and rep.cartan_kind == "split" and rep.proper_containment
    rep.validate()


def test_construct_prop3_group_more_primes():
    for ell, n in ((11, 5), (19, 3), (19, 9), (23, 11)):
        G = construct_prop3_group(ell, n)
        d = (ell - 1) // n
        assert G.order == 2 * (ell - 1) ** 2 // d
        assert G.det_image_size() == ell - 1
        assert common_fixed_count(G) == 0
        assert min(fixed_point_count(g) for g in G.elements) >= 2
        assert projective_image_order(G) == 2 * n
        assert lemma1_hypothesis(G)


# every (ell, n) of acceptance criterion 3
CRITERION_3_PAIRS = [(ell, n) for ell in (7, 11, 19, 23, 31, 43)
                     for n in range(3, (ell - 1) // 2 + 1, 2) if (ell - 1) // 2 % n == 0]


def test_witness_groups_are_generated_by_their_three_matrices():
    # from_elements checks closure with generators of its own choosing; the
    # witness group must still be exactly <alpha I, diag(1, alpha^d), antidiag(1, 1)>
    assert len(CRITERION_3_PAIRS) == 11
    for ell, n in CRITERION_3_PAIRS:
        alpha, d = primitive_root(ell), (ell - 1) // n
        H = closure((GL2Element(alpha, 0, 0, alpha, ell),
                     GL2Element(1, 0, 0, pow(alpha, d, ell), ell),
                     GL2Element(0, 1, 1, 0, ell)))
        assert construct_prop3_group(ell, n).codes.tolist() == H.codes.tolist(), (ell, n)


def test_construct_prop3_group_preconditions():
    with pytest.raises(ValueError):
        construct_prop3_group(13, 3)   # 13 = 1 mod 4
    with pytest.raises(ValueError):
        construct_prop3_group(7, 2)    # n even
    with pytest.raises(ValueError):
        construct_prop3_group(7, 5)    # 5 does not divide 3
    with pytest.raises(ValueError):
        construct_prop3_group(3, 3)
    with pytest.raises(ValueError):
        construct_prop3_group(9, 3)


def test_construct_prop3_group_bounds_its_line_images(monkeypatch):
    """2(ell-1)n elements acting on ell + 1 lines: 7,840,800 line images at
    (199, 99) pass the bound, and 9,092,160 at (1231, 3) are refused before
    any element is built."""
    class Started(Exception):
        pass

    def started(ell):
        raise Started

    monkeypatch.setattr(localglobal, "primitive_root", started)
    with pytest.raises(Started):
        construct_prop3_group(199, 99)
    with pytest.raises(ValueError, match="at most 8388608 line images"):
        construct_prop3_group(1231, 3)


def test_witness_shape_at_the_line_image_bound_reads_fixed_lines_in_slabs():
    """witness_shape(199, 99), the largest witness group under the bound
    (39,204 elements, 7,840,800 line images), has a traced peak under 32 MB:
    its fixed lines are read in slabs, never as int64 (|G|, ell + 1) tables."""
    tracemalloc.start()
    try:
        ok, shape = witness_shape(199, 99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and shape["order"] == 39204
    assert peak < 32e6


def test_lemma_verify_eleven():
    reports = lemma1_verify(11)
    assert sorted(r.order for r in reports) == [10, 20, 50, 100]
    for r in reports:
        assert r.n == 5 and r.cartan_kind == "split"
        assert r.orbit_sizes == (2, 5, 5)


def test_lemma_report_requires_hypothesis():
    C = from_elements(cartan("split", 5))
    with pytest.raises(ValueError):
        lemma_report(C)


def test_lemma_report_validation_catches_corruption(monkeypatch):
    rep = lemma_report(construct_prop3_group(7, 3))
    rep.validate()
    for change, message in (({"n": 4}, r"twice-odd order \(n=4\)"),
                            ({"n": 1}, r"twice-odd order \(n=1\)"),
                            ({"ell": 13}, "ell = 13 is not 3 mod 4"),
                            ({"n": 5}, r"n = 5 does not divide \(ell-1\)/2 = 3"),
                            ({"cartan_kind": "nonsplit"}, r"split Cartan \(kind='nonsplit'\)"),
                            ({"order": 72}, "containment .* is not proper"),
                            ({"orbit_sizes": (4, 4)}, "no orbit of size 2")):
        with pytest.raises(VerificationError, match=message):
            dataclasses.replace(rep, **change).validate()
    # lemma_report's fallbacks: a group that classify finds not semisimple,
    # or inside a Cartan, has no dihedral image, and the verifier says so

    def not_semisimple(G):
        raise NotSemisimpleError("|G| divisible by ell")

    monkeypatch.setattr(localglobal, "classify", not_semisimple)
    with pytest.raises(VerificationError, match="kind='none'"):
        lemma1_verify(7)
    monkeypatch.setattr(localglobal, "classify",
                        lambda G: ClassificationResult(CASE_CARTAN, "cyclic(3)", None, 3))
    with pytest.raises(VerificationError, match="kind='none'"):
        lemma1_verify(7)
