from fractions import Fraction

import pytest

from locisog.classno import (QuadOrder, RatioCheck, ReducedForm, class_number,
                             exceptional_cm_contradiction, quad_order, ratio_check,
                             reduced_forms)


def _brute_class_number(D):
    """Count reduced forms by scanning every (a, b) with 0 < a <= sqrt(|D|/3)."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if abs(b) == a or a == c:
                if b < 0:
                    continue
            g = 0
            for v in (a, abs(b), c):
                while v:
                    g, v = v, g % v
            if g != 1:
                continue
            count += 1
        a += 1
    return count


def test_anchor_class_numbers():
    assert class_number(-3) == 1
    assert class_number(-4) == 1
    assert class_number(-7) == 1
    assert class_number(-23) == 3
    assert class_number(-36) == 2
    assert class_number(-47) == 5
    assert class_number(-343) == 7


def test_class_number_against_brute_scan():
    for D in range(-4, -500, -1):
        if D % 4 in (0, 1):
            assert class_number(D) == _brute_class_number(D), D


def test_reduced_forms_are_reduced_and_match_discriminant():
    for D in (-7, -36, -343, -47):
        forms = reduced_forms(D)
        assert len(forms) == class_number(D)
        for f in forms:
            assert f.discriminant() == D
            assert -f.a < f.b <= f.a <= f.c
            if f.a == f.c or f.b == f.a:
                assert f.b >= 0
        assert len(set(forms)) == len(forms)


def test_reduced_form_validation():
    assert ReducedForm(1, 1, 2).discriminant() == -7
    with pytest.raises(ValueError):
        ReducedForm(2, 1, 0)      # not positive definite
    with pytest.raises(ValueError):
        ReducedForm(3, 1, 2)      # a > c
    with pytest.raises(ValueError):
        ReducedForm(2, -2, 3)     # b out of (-a, a]
    with pytest.raises(ValueError):
        ReducedForm(2, -1, 2)     # a == c wants b >= 0
    with pytest.raises(ValueError):
        ReducedForm(2, 2, 4)      # imprimitive


def test_discriminant_domain_checks():
    with pytest.raises(ValueError):
        class_number(5)
    with pytest.raises(ValueError):
        class_number(-6)  # 2 mod 4
    with pytest.raises(ValueError):
        quad_order(-5)
    with pytest.raises(ValueError, match="0 or 1 mod 4"):
        QuadOrder(-5, 1)


def test_quad_order_conductors():
    assert quad_order(-7) == QuadOrder(-7, 1)
    assert quad_order(-3).w == 6
    assert quad_order(-4).w == 4
    assert quad_order(-12) == QuadOrder(-12, 2)
    assert quad_order(-7).w == quad_order(-12).w == 2
    assert quad_order(-16).conductor == 2
    assert quad_order(-343).conductor == 7
    assert quad_order(-75) == QuadOrder(-75, 5)
    for D0 in (-3, -4, -7, -8, -11, -15, -20):
        for f in (1, 2, 3, 5):
            order = quad_order(D0 * f * f)
            assert order.conductor == f
            assert order.fundamental == (f == 1)


def test_ratio_check_examples():
    r = ratio_check(-4, 3)
    assert r == RatioCheck(2, 2, True)
    r = ratio_check(-7, 7)
    assert r.predicted == 7 and r.direct == 7 and r.agree
    r = ratio_check(-3, 5)
    assert r.predicted == 2 and r.direct == Fraction(2, 1) and r.agree
    assert ratio_check(-7, 2).agree
    # even D0: (D0|2) = 0 in the Kronecker symbol
    assert ratio_check(-4, 2) == RatioCheck(1, 1, True)
    assert ratio_check(-8, 2) == RatioCheck(2, 2, True)
    assert ratio_check(-8, 13).agree


def test_ratio_check_rejects_non_fundamental():
    with pytest.raises(ValueError):
        ratio_check(-12, 3)
    with pytest.raises(ValueError):
        ratio_check(-7, 6)


def test_exceptional_cm_contradiction():
    assert exceptional_cm_contradiction(11) is True
    assert exceptional_cm_contradiction(19) is True
    assert exceptional_cm_contradiction(199) is True
    with pytest.raises(ValueError):
        exceptional_cm_contradiction(7)    # boundary prime stays consistent
    with pytest.raises(ValueError):
        exceptional_cm_contradiction(13)   # 1 mod 4
    with pytest.raises(ValueError):
        exceptional_cm_contradiction(15)   # composite
