"""End-to-end acceptance checks, one printed verdict line per criterion."""

import random
import time
from fractions import Fraction

from locisog.arith import (PrimeFieldElement, gauss_sum_square, is_prime,
                           legendre_kronecker)
from locisog.classno import (class_number, exceptional_cm_contradiction, quad_order,
                             ratio_check)
from locisog.cli import replay_counterexample
from locisog.ecfp import count_points, local_isogeny_admitted, reduce_and_count
from locisog.ecq import WeierstrassCurve, invariants
from locisog.gl2 import GL2Element, action_profile
from locisog.localglobal import lemma1_verify, witness_shape
from locisog.modpoly import (evaluate_at_j, fp_linear_factor_count, fp_root_count,
                             shipped_modpoly)
from locisog.subgroups import enumerate_subgroups

J_TARGET = Fraction(2268945, 128)


def _verdict(ok, label):
    print("[%s] %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def _primes_upto(n):
    return [p for p in range(2, n + 1) if is_prime(p)]


def test_criterion_1_exhaustive_lemma_verification():
    ok = True
    for ell in (2, 3, 5):
        ok = ok and lemma1_verify(ell) == ()
    reports = lemma1_verify(7)
    ok = ok and len(reports) > 0
    for r in reports:
        ok = ok and r.n == 3 and r.cartan_kind == "split"
        ok = ok and r.proper_containment and r.has_orbit_of_size_2
    _verdict(ok, "criterion 1: hypothesis classes absent for ell in {2,3,5}, "
                 "present at 7 with n=3, split kind, proper containment, 2-orbit")


def test_criterion_2_orbit_statistics():
    rng = random.Random(101)
    primes = _primes_upto(97)
    ok = True
    for _ in range(10 ** 4):
        ell = rng.choice(primes)
        while True:
            a, b, c, d = (rng.randrange(ell) for _ in range(4))
            if (a * d - b * c) % ell:
                break
        g = GL2Element(a, b, c, d, ell)
        prof = action_profile(g)
        ok = ok and prof.k in (0, 1, 2, ell + 1)
        ok = ok and all(t == prof.r for t in prof.orbit_sizes if t > 1)
        ok = ok and sum(prof.orbit_sizes) == ell + 1
        if ell > 2:
            ok = ok and prof.sigma == (-1) ** prof.s
            ok = ok and prof.sigma == legendre_kronecker(g.det(), ell)
    _verdict(ok, "criterion 2: 10^4 random elements have k in {0,1,2,ell+1}, "
                 "uniform non-trivial orbits, sigma = (-1)^s = (det|ell)")


def test_criterion_3_dihedral_witness_groups():
    ok = True
    for ell in (7, 11, 19, 23, 31, 43):
        half = (ell - 1) // 2
        for n in range(3, half + 1, 2):
            if half % n == 0:
                ok = ok and witness_shape(ell, n)[0]
    ok = ok and witness_shape(7, 3)[1]["orbit_sizes"] == [2, 3, 3]
    _verdict(ok, "criterion 3: witness groups for ell in {7,...,43} have full "
                 "determinant, fixed points everywhere locally, none globally, "
                 "dihedral image of order 2n")


def test_criterion_4_counterexample_end_to_end():
    start = time.monotonic()
    status, findings = replay_counterexample(10 ** 4)
    ok = status == "pass" and len(findings) == 10
    M = shipped_modpoly(7)
    for p in _primes_upto(10 ** 4):
        if p in (2, 5, 7):
            continue
        jp = PrimeFieldElement(2268945 * pow(128, -1, p), p)
        ok = ok and fp_linear_factor_count(M, jp) >= 2
        ok = ok and fp_root_count(M, jp) >= 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    _verdict(ok, "criterion 4: the exceptional pair (7, 2268945/128) admits "
                 "at every good prime up to 10^4, has no global isogeny, and every "
                 "anchor value reproduces in %.1fs" % elapsed)


def test_criterion_5_local_criterion_cross_validation():
    rng = random.Random(103)
    primes = [p for p in _primes_upto(500) if p >= 5]
    levels = (2, 3, 5, 7)
    mods = {ell: shipped_modpoly(ell) for ell in levels}
    ok = True
    checked = 0
    for _ in range(200):
        E = None
        while E is None:
            try:
                E = WeierstrassCurve(*(rng.randrange(-30, 31) for _ in range(5)))
            except ValueError:
                pass
        disc = int(E.discriminant())
        j = invariants(E).j
        for p in primes:
            if disc % p == 0:
                continue
            jp = PrimeFieldElement(j.numerator * pow(j.denominator, -1, p), p)
            if jp.value in (0, 1728 % p):
                continue
            data = None
            for ell in levels:
                if p == ell:
                    continue
                if data is None:
                    data = reduce_and_count(E, p)
                has_root = fp_root_count(mods[ell], jp) > 0
                admitted = local_isogeny_admitted(data, ell)
                if data.supersingular:
                    # supersingular j-invariants in F_p are joined by isogenies
                    # that may live only over F_p^2, so a root does not imply a
                    # rational kernel; the forward direction still must hold
                    ok = ok and (not admitted or has_root)
                else:
                    ok = ok and admitted == has_root
                checked += 1
    ok = ok and checked > 10 ** 4
    _verdict(ok, "criterion 5: trace criterion matches modular-polynomial root "
                 "existence at ordinary primes (one-sided when supersingular) "
                 "on %d curve/prime/level combinations" % checked)


def test_criterion_6_class_number_relations():
    ok = class_number(-7) == 1 and class_number(-36) == 2 and class_number(-343) == 7
    for D0 in range(-3, -500, -1):
        if D0 % 4 not in (0, 1) or not quad_order(D0).fundamental:
            continue
        for ell in (3, 5, 7, 11, 13):
            ok = ok and ratio_check(D0, ell).agree
    for ell in range(8, 201):
        if is_prime(ell) and ell % 4 == 3:
            ok = ok and exceptional_cm_contradiction(ell) is True
    _verdict(ok, "criterion 6: anchor class numbers, conductor-ell ratio formula "
                 "below 500, and the inequality (ell-1)/3 > 2 for ell = 3 mod 4 up to "
                 "200 (the CM step is cited; no curve is checked)")


def test_criterion_7_gauss_sums():
    ok = True
    for ell in _primes_upto(200):
        if ell == 2:
            continue
        target = legendre_kronecker(ell - 1, ell) * ell
        ok = ok and gauss_sum_square(ell) == target
    _verdict(ok, "criterion 7: quadratic Gauss sum squares to (-1|ell) ell "
                 "exactly in Z[zeta_l] for every odd prime up to 200")


def _brute_subgroup_class_orders(ell):
    els = []
    for code in range(ell ** 4):
        a, r = divmod(code, ell ** 3)
        b, r = divmod(r, ell ** 2)
        c, d = divmod(r, ell)
        if (a * d - b * c) % ell:
            els.append((a, b, c, d))

    def mul(m, n):
        return ((m[0] * n[0] + m[1] * n[2]) % ell, (m[0] * n[1] + m[1] * n[3]) % ell,
                (m[2] * n[0] + m[3] * n[2]) % ell, (m[2] * n[1] + m[3] * n[3]) % ell)

    def close(gens):
        group = set(gens) | {(1, 0, 0, 1)}
        frontier = list(group)
        while frontier:
            m = frontier.pop()
            for n in list(group):
                for prod in (mul(m, n), mul(n, m)):
                    if prod not in group:
                        group.add(prod)
                        frontier.append(prod)
        return frozenset(group)

    subgroups = {close([m]) for m in els} | {close([])}
    grew = True
    while grew:
        grew = False
        for G in list(subgroups):
            for m in els:
                if m in G:
                    continue
                H = close(list(G) + [m])
                if H not in subgroups:
                    subgroups.add(H)
                    grew = True
    inverses = {}
    for m in els:
        a, b, c, d = m
        det_inv = pow(a * d - b * c, -1, ell)
        inverses[m] = ((d * det_inv) % ell, (-b * det_inv) % ell,
                       (-c * det_inv) % ell, (a * det_inv) % ell)
    classes = set()
    for G in subgroups:
        orbit = frozenset(frozenset(mul(mul(w, g), inverses[w]) for g in G)
                          for w in els)
        classes.add(orbit)
    return sorted(len(next(iter(orbit))) for orbit in classes)


def test_criterion_8_oracle_agreement():
    rng = random.Random(107)
    primes = [p for p in _primes_upto(2 ** 14) if p >= 5]
    ok = True
    for _ in range(50):
        E = None
        while E is None:
            try:
                E = WeierstrassCurve(*(rng.randrange(-50, 51) for _ in range(5)))
            except ValueError:
                pass
        p = rng.choice(primes)
        if int(E.discriminant()) % p == 0:
            continue
        ok = ok and (count_points(E, p, method="naive")
                     == count_points(E, p, method="bsgs", seed=rng.randrange(10 ** 9)))
    M = shipped_modpoly(7)
    coeffs = evaluate_at_j(M, J_TARGET)
    for p in _primes_upto(500):
        if p in (2, 5, 7):
            continue
        f = [(c.numerator * pow(c.denominator, -1, p)) % p for c in coeffs]
        brute = sum(1 for r in range(p)
                    if not sum(c * r ** i for i, c in enumerate(reversed(f))) % p)
        jp = PrimeFieldElement(2268945 * pow(128, -1, p), p)
        ok = ok and fp_root_count(M, jp) == brute
    for ell in (2, 3):
        mine = sorted(G.order for G in enumerate_subgroups(ell))
        ok = ok and mine == _brute_subgroup_class_orders(ell)
    _verdict(ok, "criterion 8: independent oracles agree (naive vs bsgs counting, "
                 "brute-force specialization roots, brute-force subgroup classes)")
