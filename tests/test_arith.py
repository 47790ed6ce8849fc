import cmath
import random
from fractions import Fraction

import numpy as np
import pytest

from locisog import arith
from locisog.arith import (PrimeFieldElement, QuadFieldElement, TrivialGroupError,
                           factorize, gauss_sum_square, is_prime, is_rational_square,
                           legendre_kronecker, primes_up_to, primitive_root,
                           rational_sqrt, smallest_nonresidue)


def test_is_prime_against_sieve():
    # trial division decides n < 41^2; every prime from 1681 up goes
    # through Miller-Rabin
    sieve = set(primes_up_to(10 ** 5))
    for n in range(-5, 10 ** 5 + 1):
        assert is_prime(n) == (n in sieve)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the first k prime bases, k = 1..8
    # (2047 to base 2, ..., 3825123056546413051 to bases 2..23)
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not is_prime(n)


def test_is_prime_large_known():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert is_prime(4611686018427388039)
    assert is_prime(4294967291)          # largest prime below 2^32
    assert is_prime(2 ** 64 - 59)        # largest prime below 2^64
    assert not is_prime(4294967297)      # 2^32 + 1 = 641 * 6700417
    with pytest.raises(ValueError):
        is_prime(2 ** 64 + 1)


def test_factorize_roundtrip():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randrange(1, 10 ** 9)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n


def test_factorize_rejects_unfactorable_composite(monkeypatch):
    p = 1_000_003  # prime; p^2 lies below 2^64, where is_prime is deterministic
    assert factorize(p * p) == {p: 2}
    monkeypatch.setattr(arith, "_TRIAL_LIMIT", 10 ** 5)
    with pytest.raises(ValueError, match="composite cofactor %d" % (p * p)):
        factorize(p * p)
    with pytest.raises(ValueError, match="cannot factor 0"):
        factorize(0)


def test_legendre_against_square_table():
    rng = random.Random(5)
    for ell in (3, 5, 7, 11, 13, 97):
        squares = {x * x % ell for x in range(1, ell)}
        for a in range(ell):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_kronecker(a, ell) == want
        a = rng.randrange(1, ell)
        assert legendre_kronecker(a + 7 * ell, ell) == legendre_kronecker(a, ell)
    with pytest.raises(ValueError, match="needs an odd prime, got 2"):
        legendre_kronecker(3, 2)


def test_smallest_nonresidue():
    for p in primes_up_to(500)[1:]:
        want = min(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        assert smallest_nonresidue(p) == want


def test_prime_field_mixed_moduli_rejected():
    # a value is the reduced residue paired with its modulus, and values
    # with different moduli never compare equal
    assert PrimeFieldElement(12, 5) == PrimeFieldElement(2, 5)
    assert PrimeFieldElement(-1, 7).value == 6
    assert PrimeFieldElement(1, 5) != PrimeFieldElement(1, 7)
    with pytest.raises(ValueError):
        PrimeFieldElement(1, 6)
    with pytest.raises(AttributeError):
        PrimeFieldElement(1, 5).value = 2


def test_prime_field_element_takes_integers_only():
    # numpy integers are integers; a float or a Fraction is not, even when
    # it equals a cached prime modulus
    assert PrimeFieldElement(np.int64(9), np.int32(7)) == PrimeFieldElement(2, 7)
    assert type(PrimeFieldElement(np.int64(9), 7).value) is int
    for value, modulus in ((2.5, 7), (3, 7.0), (Fraction(3), 7), (3, Fraction(7))):
        with pytest.raises(TypeError):
            PrimeFieldElement(value, modulus)


def test_primitive_root_has_full_order():
    for m in (3, 5, 7, 11, 13, 97, 101):
        g = primitive_root(m)
        assert isinstance(g, int)
        assert len({pow(g, k, m) for k in range(m - 1)}) == m - 1
    with pytest.raises(TrivialGroupError):
        primitive_root(2)


def test_rational_square_detection():
    rng = random.Random(13)
    for _ in range(200):
        q = Fraction(rng.randrange(1, 500), rng.randrange(1, 500))
        assert is_rational_square(q * q)
        assert rational_sqrt(q * q) in (q, -q)
    assert not is_rational_square(Fraction(2))
    assert not is_rational_square(Fraction(1, 8))
    assert not is_rational_square(Fraction(-4))
    assert is_rational_square(Fraction(0))
    assert rational_sqrt("49/121") == Fraction(7, 11)
    for q in (Fraction(2, 9), Fraction(9, 2), Fraction(13, 9)):
        assert rational_sqrt(q) is None


def test_quad_field_axioms_and_squares():
    rng = random.Random(17)
    for _ in range(200):
        d = rng.choice([-1, -7, 5, -3, 2])
        w = QuadFieldElement(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
                             Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)), d)
        z = QuadFieldElement(rng.randrange(-9, 10), rng.randrange(-9, 10), d)
        assert (w + z) - z == w
        assert w * z == z * w
        if not z.is_zero():
            assert (w / z) * z == w
        assert (w * w).is_square()
        assert w.norm() == (w * w.conjugate()).a
        # equal to the rational w.a when w.b = 0, so it must hash alike
        assert hash(QuadFieldElement(w.a, 0, d)) == hash(w.a)
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            w / QuadFieldElement(0, 0, d)


def test_quad_field_nonsquares():
    # 2 + 0*i: a square in Q(i) would force a rational square root of 2
    assert not QuadFieldElement(2, 0, -1).is_square()
    assert QuadFieldElement(-1, 0, -1).is_square()
    assert QuadFieldElement(0, 2, -1).is_square()  # (1 + i)^2 = 2i
    with pytest.raises(ValueError):
        QuadFieldElement(1, 1, -1) + QuadFieldElement(1, 1, -7)
    with pytest.raises(ValueError):
        QuadFieldElement(0, 1, 4)


def test_gauss_sum_square_identity():
    for ell in primes_up_to(200)[1:]:
        g2 = gauss_sum_square(ell)
        assert type(g2) is int and g2 == legendre_kronecker(ell - 1, ell) * ell
        # an independent oracle: the sum of complex exponentials in floats
        g = sum(cmath.exp(2j * cmath.pi * n * n / ell) for n in range(ell))
        assert round((g * g).real) == g2 and abs((g * g).imag) < 1e-9
    with pytest.raises(ValueError):
        gauss_sum_square(2)
    with pytest.raises(ValueError):
        gauss_sum_square(9)
