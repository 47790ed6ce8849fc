"""Exact arithmetic: primality, prime-field values, quadratic field
elements, quadratic characters, primitive roots, and quadratic Gauss sums.

Rational arithmetic rides on fractions.Fraction, which already keeps every
value in lowest terms with a positive denominator.  A caller's number becomes
a Fraction through _frac alone, which refuses floats: QuadFieldElement,
rational_sqrt, and the curve and polynomial entry points of ecq and modpoly
all call it.  Integer arguments (the d of QuadFieldElement, and every
argument of PrimeFieldElement and GL2Element) pass through operator.index,
so they refuse floats and Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import index

# Miller-Rabin to these 12 bases is deterministic for n < 3.18 * 10^23 (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86 (2017))
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class TrivialGroupError(ValueError):
    """Raised when a generator is requested for a trivial multiplicative group."""


def is_prime(n: int) -> bool:
    """Deterministic primality below 2^64: trial division by the 12 witness
    primes decides every n < 41^2 = 1681, and Miller-Rabin to the same
    bases decides the rest; larger n that no witness divides raise ValueError."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if n >= 1 << 64:
        raise ValueError("primality test is deterministic only below 2^64, got %d" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# moduli known to be prime, so that _require_prime tests each at most once
_prime_cache: set[int] = set()


def _require_prime(m: int) -> None:
    if m not in _prime_cache:
        if not is_prime(m):
            raise ValueError("modulus %d is not prime" % m)
        _prime_cache.add(m)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve; the sieve proves them prime, so they join
    the cache that _require_prime reads."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    out = [i for i, flag in enumerate(sieve) if flag]
    _prime_cache.update(out)
    return out


_TRIAL_LIMIT = 10 ** 7


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division up to _TRIAL_LIMIT.

    A leftover cofactor is accepted if it passes the deterministic primality
    test; otherwise the input is rejected as too hard for this tool.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    while f * f <= n and f <= _TRIAL_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        if f * f > n or is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            raise ValueError("composite cofactor %d resists trial division" % n)
    return out


def legendre_kronecker(a: int, m: int) -> int:
    """Quadratic character of a mod an odd prime m: 1, -1, or 0 when m | a."""
    if m == 2:
        raise ValueError("the quadratic character needs an odd prime, got 2")
    _require_prime(m)
    r = pow(a % m, (m - 1) // 2, m)
    return -1 if r == m - 1 else r


def smallest_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod an odd prime p."""
    z = 2
    while legendre_kronecker(z, p) != -1:
        z += 1
    return z


class PrimeFieldElement:
    """A value in F_m for prime m: the canonical residue in [0, m) together
    with its validated modulus."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        value, modulus = index(value), index(modulus)
        _require_prime(modulus)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "value", value % modulus)

    def __setattr__(self, *args):
        raise AttributeError("PrimeFieldElement is immutable")

    def __eq__(self, other):
        return (isinstance(other, PrimeFieldElement)
                and self.modulus == other.modulus and self.value == other.value)

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __repr__(self):
        return "PrimeFieldElement(%d, %d)" % (self.value, self.modulus)


def primitive_root(m: int) -> int:
    """Smallest generator of F_m^* for an odd prime m."""
    if m == 2:
        raise TrivialGroupError("F_2^* is trivial and has no generator to pick")
    _require_prime(m)
    qs = list(factorize(m - 1))
    for g in range(2, m):
        if all(pow(g, (m - 1) // q, m) != 1 for q in qs):
            return g
    raise AssertionError("unreachable: no primitive root found for prime %d" % m)


def _frac(v) -> Fraction:
    """The one gate from a caller's number to a Fraction.  A float raises
    TypeError: it was rounded before it got here, so no exact value is left."""
    if isinstance(v, float):
        raise TypeError("values must be exact (int, Fraction, or 'p/q' string)")
    return Fraction(v)


def rational_sqrt(q) -> Fraction | None:
    """The non-negative rational square root of q, or None."""
    q = _frac(q)
    if q < 0:
        return None
    r = Fraction(isqrt(q.numerator), isqrt(q.denominator))
    return r if r * r == q else None


def is_rational_square(q) -> bool:
    """True when q is the square of a rational."""
    return rational_sqrt(q) is not None


@lru_cache(maxsize=None)  # every QuadFieldElement result checks its d again
def _squarefree(d: int) -> bool:
    if d in (0, 1):
        return False
    return all(e == 1 for e in factorize(d).values())


class QuadFieldElement:
    """a + b*sqrt(d) with rational a, b and a fixed squarefree integer d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        d = index(d)
        if not _squarefree(d):
            raise ValueError("d = %s must be squarefree and not 0 or 1" % (d,))
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):
        raise AttributeError("QuadFieldElement is immutable")

    def _lift(self, other):
        if isinstance(other, QuadFieldElement):
            if other.d != self.d:
                raise ValueError("mixed fields Q(sqrt(%d)) and Q(sqrt(%d))" % (self.d, other.d))
            return other
        if isinstance(other, (int, Fraction)):
            return QuadFieldElement(other, 0, self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else QuadFieldElement(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else QuadFieldElement(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return QuadFieldElement(self.a * o.a + self.d * self.b * o.b,
                                self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(%d))" % self.d)
        num = self * o.conjugate()
        return QuadFieldElement(num.a / n, num.b / n, self.d)

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else o / self

    def __neg__(self):
        return QuadFieldElement(-self.a, -self.b, self.d)

    def conjugate(self) -> "QuadFieldElement":
        return QuadFieldElement(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_square(self) -> bool:
        """True when some w in Q(sqrt(d)) satisfies w^2 = self."""
        if self.b == 0:
            return is_rational_square(self.a) or is_rational_square(self.a / self.d)
        s = rational_sqrt(self.norm())
        if s is None:
            return False
        # w = c + e*sqrt(d): c^2 = (a +- s)/2, e = b/(2c)
        for t in (self.a + s, self.a - s):
            c = rational_sqrt(t / 2)
            if c:  # neither None nor 0
                e = self.b / (2 * c)
                if c * c + self.d * e * e == self.a and 2 * c * e == self.b:
                    return True
        return False

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return (isinstance(other, QuadFieldElement) and self.d == other.d
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return "QuadFieldElement(%s, %s, d=%d)" % (self.a, self.b, self.d)


def gauss_sum_square(ell: int) -> int:
    """g^2 for the quadratic Gauss sum g = sum_n zeta^(n^2), zeta = exp(2 pi i / ell),
    exactly: g = sum_n x^(n^2 mod ell) in Z[x]/(x^ell - 1) is squared by one
    product of W-bit slots (the coefficients sum to ell^2 < 2^W), folded by
    x^ell = 1, and reduced modulo 1 + x + ... + x^(ell-1) by subtracting the
    coefficient of x^(ell-1).  A nonzero coordinate besides the constant, in
    the basis 1, zeta, ..., zeta^(ell-2), raises ArithmeticError."""
    if ell == 2:
        raise ValueError("the Gauss sum identity needs an odd prime, got 2")
    _require_prime(ell)
    W = (ell * ell).bit_length() + 1
    g2 = sum(1 << W * (n * n % ell) for n in range(ell)) ** 2
    g2 = (g2 & (1 << W * ell) - 1) + (g2 >> W * ell)
    top, mask = g2 >> W * (ell - 1), (1 << W) - 1
    coords = [(g2 >> W * i & mask) - top for i in range(ell - 1)]
    if any(coords[1:]):
        raise ArithmeticError("Gauss sum square has irrational coordinates %s" % coords[1:])
    return coords[0]
