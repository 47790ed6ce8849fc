import random
from fractions import Fraction

import pytest

from locisog import arith, ecq
from locisog.arith import QuadFieldElement, is_prime, rational_sqrt
from locisog.ecq import (COUNTEREXAMPLE_CURVE, CURVE_49A3, WeierstrassCurve, bad_primes,
                         eval_map_f, invariants, map_49a3_to_quartic_x, parse_curve,
                         quartic_point_check, two_torsion_x)
from locisog.errors import DegeneratePointError
from locisog.modpoly import evaluate_at_j, rational_linear_factors, shipped_modpoly

J_TARGET = Fraction(2268945, 128)


def _random_curve(rng):
    while True:
        coeffs = [Fraction(rng.randrange(-9, 10), rng.choice([1, 1, 2, 3]))
                  for _ in range(5)]
        try:
            return WeierstrassCurve(*coeffs)
        except ValueError:
            continue


def test_invariant_identity():
    # ecfp reduces these stored values mod p, so they must obey the identities
    rng = random.Random(41)
    for _ in range(200):
        E = _random_curve(rng)
        a1, a2, a3, a4, a6 = E.coefficients()
        b2, b4, b6, b8 = E.b_invariants()
        assert 4 * b8 == b2 * b6 - b4 * b4
        assert b8 == a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        c4, c6, disc, j = invariants(E)
        assert (c4, c6) == E.c_invariants()
        assert c4 ** 3 - c6 ** 2 == 1728 * disc
        assert j == c4 ** 3 / disc


def test_singular_curves_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        WeierstrassCurve(0, 0, 0, -3, 2)  # (x-1)^2 (x+2)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        WeierstrassCurve(0.5, 0, 0, 1, 1)


def test_counterexample_curve_anchors():
    E = COUNTEREXAMPLE_CURVE
    assert E.coefficients() == (1, -1, 0, -107, -379)
    assert E.is_integral()
    assert invariants(E).j == J_TARGET
    assert bad_primes(E) == {2, 5, 7}


def test_isogenous_curve_anchors():
    E = CURVE_49A3
    assert invariants(E).j == (-15) ** 3  # CM by the order of discriminant -7
    assert bad_primes(E) == {7}
    assert two_torsion_x(E) == (-12,)


def test_bad_primes_against_trial_division():
    rng = random.Random(43)
    for _ in range(100):
        E = None
        while E is None:
            try:
                E = WeierstrassCurve(*(rng.randrange(-6, 7) for _ in range(5)))
            except ValueError:
                pass
        n = abs(int(E.discriminant()))
        expect = set()
        d, m = 2, n
        while d * d <= m:
            if m % d == 0:
                expect.add(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            expect.add(m)
        assert bad_primes(E) == expect
        assert all(is_prime(p) for p in expect)


def test_bad_primes_needs_integral_model():
    with pytest.raises(ValueError):
        bad_primes(WeierstrassCurve(0, 0, 0, Fraction(1, 2), 1))


def test_two_torsion_with_planted_roots():
    rng = random.Random(47)
    for _ in range(50):
        rs = rng.sample(range(-20, 21), 3)
        a2 = -sum(rs)
        a4 = rs[0] * rs[1] + rs[0] * rs[2] + rs[1] * rs[2]
        a6 = -rs[0] * rs[1] * rs[2]
        E = WeierstrassCurve(0, a2, 0, a4, a6)
        assert two_torsion_x(E) == tuple(sorted(Fraction(r) for r in rs))
    # a lone rational root next to an irreducible quadratic factor
    E = WeierstrassCurve(0, 0, 0, -2, 0)  # x^3 - 2x = x (x^2 - 2)
    assert two_torsion_x(E) == (0,)
    assert two_torsion_x(WeierstrassCurve(0, 0, 0, 1, 1)) == ()


def test_parse_curve():
    assert parse_curve("1,-1,0,-107,-379") == COUNTEREXAMPLE_CURVE
    assert parse_curve(" 0, 0,0, 1/2, 3 ").coefficients()[3] == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_curve("1,2,3,4")
    with pytest.raises(ValueError):
        parse_curve("1,2,3,4,x")


def test_quartic_anchors():
    assert quartic_point_check(Fraction(-1, 2), Fraction(1, 4))
    assert quartic_point_check(Fraction(-1, 2), Fraction(-1, 4))
    assert not quartic_point_check(0, 1)


def test_quartic_accepts_quadratic_points():
    # x = i: rhs = 1 - 2i + 9 - 10i - 3 = 7 - 12i, and -7 * 1 != 7 - 12i
    assert not quartic_point_check(QuadFieldElement(0, 1, -1), 1)
    # the image of the Gaussian point of 49a3 has a rational ordinate
    x = QuadFieldElement(Fraction(-1, 2), Fraction(7, 58), -1)
    assert quartic_point_check(x, Fraction(339, 1682))
    assert quartic_point_check(x, QuadFieldElement(Fraction(-339, 1682), 0, -1))
    assert not quartic_point_check(x, Fraction(1, 4))


def test_map_f_values():
    assert eval_map_f(Fraction(-1, 2)) == J_TARGET
    assert eval_map_f(3) == 0
    assert eval_map_f(2) == 0
    # numerator degree 28 over denominator degree 21, leading coefficients
    # -1 and 1, and equal x^27 / x^20 coefficients: f(x) = -x^7 (1 + O(1/x^2))
    big = 10 ** 6
    assert abs(eval_map_f(big) / big ** 7 + 1) < Fraction(1, 10 ** 10)


def _factored(table, x):
    """The product of the factors' values to their powers over a factored
    table, each value by a Horner loop of its own."""
    out = 1
    for coeffs, e in table:
        v = x * 0
        for c in coeffs:
            v = v * x + c
        for _ in range(e):
            out = v * out
    return out


def test_map_f_equals_its_factored_tables():
    """f's expanded numerator and denominator give the factored tables'
    quotient at 200 seeded rationals and 50 seeded points of Q(i)."""
    rng = random.Random(7)

    def q():
        return Fraction(rng.randrange(-60, 61), rng.randrange(1, 40))

    points = [q() for _ in range(200)] + [QuadFieldElement(q(), q(), -1) for _ in range(50)]
    for x in points:
        want = -_factored(ecq._F_NUMERATOR, x) / _factored(ecq._F_DENOMINATOR, x)
        assert eval_map_f(x) == want, x


def test_map_f_factors_d_once(monkeypatch):
    """Squarefreeness of d is settled once per d, not on every Q(i) result."""
    calls = []
    factorize = arith.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(arith, "factorize", counting)
    value = eval_map_f(QuadFieldElement(Fraction(-1, 2), Fraction(7, 58), -1))
    assert value.d == -1 and value.b != 0
    assert len(calls) <= 1


def test_map_point_to_quartic():
    x, flag = map_49a3_to_quartic_x(-14, QuadFieldElement(7, 29, -1))
    assert x == QuadFieldElement(Fraction(-29, 58), Fraction(7, 58), -1)
    assert flag is True


def test_map_rejects_off_curve_points():
    with pytest.raises(ValueError):
        map_49a3_to_quartic_x(0, 0)


def test_map_degenerates_on_two_torsion():
    with pytest.raises(DegeneratePointError):
        map_49a3_to_quartic_x(-12, 6)


def test_map_rejects_mixed_fields():
    with pytest.raises(ValueError):
        map_49a3_to_quartic_x(QuadFieldElement(1, 0, -1), QuadFieldElement(1, 0, 2))


def test_quartic_check_rejects_mixed_fields():
    with pytest.raises(ValueError):
        quartic_point_check(QuadFieldElement(0, 1, -1), QuadFieldElement(1, 1, 2))


def test_floats_rejected_at_every_exact_entry():
    """A float never becomes a Fraction: every exact entry point refuses it,
    whether it comes alone or next to a quadratic field element."""
    M = shipped_modpoly(2)
    i = QuadFieldElement(0, 1, -1)
    calls = [lambda: QuadFieldElement(0.5, 0, -1), lambda: QuadFieldElement(0, 0.5, -1),
             lambda: QuadFieldElement(0, 1, -1.0),
             lambda: quartic_point_check(-0.5, Fraction(1, 4)),
             lambda: quartic_point_check(i, 0.25),
             lambda: eval_map_f(-0.5),
             lambda: map_49a3_to_quartic_x(-14.0, QuadFieldElement(7, 29, -1)),
             lambda: evaluate_at_j(M, 1728.0),
             lambda: rational_linear_factors([1, 0, -4.0]),
             lambda: rational_sqrt(0.25)]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_curve_immutability_and_hash():
    E = COUNTEREXAMPLE_CURVE
    with pytest.raises(AttributeError):
        E.a4 = 0
    assert E == WeierstrassCurve(1, -1, 0, -107, -379)
    assert hash(E) == hash(WeierstrassCurve(1, -1, 0, -107, -379))
    assert E != CURVE_49A3
