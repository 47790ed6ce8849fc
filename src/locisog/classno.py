"""Imaginary quadratic orders: reduced binary quadratic forms, class numbers
by direct enumeration, and the class-number-ratio contradiction that rules
out CM curves as a source of exceptional pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .arith import _require_prime, factorize, legendre_kronecker


def _check_discriminant(D: int) -> None:
    if D >= 0:
        raise ValueError("discriminant must be negative, got %d" % D)
    if D % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4, got %d" % D)


@dataclass(frozen=True)
class QuadOrder:
    """An order in an imaginary quadratic field, keyed by its discriminant D
    and conductor: it is the maximal order (fundamental) iff the conductor
    is 1, and it has w units."""

    D: int
    conductor: int

    def __post_init__(self):
        _check_discriminant(self.D)

    @property
    def fundamental(self) -> bool:
        return self.conductor == 1

    @property
    def w(self) -> int:
        return {(-3): 6, (-4): 4}.get(self.D, 2)


def quad_order(D: int) -> QuadOrder:
    _check_discriminant(D)
    f = 1
    for p, e in factorize(-D).items():
        f *= p ** (e // 2)
    while f % 2 == 0 and (D // (f * f)) % 4 not in (0, 1):
        f //= 2
    return QuadOrder(D, f)


@dataclass(frozen=True)
class ReducedForm:
    """Primitive reduced positive definite form ax^2 + bxy + cy^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.discriminant() >= 0 or self.a <= 0:
            raise ValueError("form %r is not positive definite" % (self,))
        if not (abs(self.b) <= self.a <= self.c):
            raise ValueError("form %r is not reduced" % (self,))
        if self.b < 0 and (abs(self.b) == self.a or self.a == self.c):
            raise ValueError("form %r violates the boundary sign convention" % (self,))
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise ValueError("form %r is imprimitive" % (self,))

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def reduced_forms(D: int) -> tuple[ReducedForm, ...]:
    """Every primitive reduced form of discriminant D, ordered by (a, b)."""
    _check_discriminant(D)
    forms = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append(ReducedForm(a, b, c))
    return tuple(sorted(forms, key=lambda f: (f.a, f.b)))


def class_number(D: int) -> int:
    """h(D) by direct enumeration of primitive reduced forms."""
    return len(reduced_forms(D))


def _kronecker(D: int, ell: int) -> int:
    if ell == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    return legendre_kronecker(D % ell, ell)


class RatioCheck(NamedTuple):
    predicted: Fraction
    direct: Fraction
    agree: bool


def ratio_check(D0: int, ell: int) -> RatioCheck:
    """Compare h(D0 ell^2)/h(D0) against (ell - (D0|ell)) / [unit index].

    D0 must be fundamental: the formula compares the maximal order against
    its index-ell suborder.
    """
    _require_prime(ell)
    order = quad_order(D0)
    if not order.fundamental:
        raise ValueError("D0 = %d is not fundamental (conductor %d)" % (D0, order.conductor))
    sub = quad_order(D0 * ell * ell)
    unit_index = Fraction(order.w, sub.w)
    predicted = (ell - _kronecker(D0, ell)) / unit_index
    direct = Fraction(class_number(D0 * ell * ell), class_number(D0))
    return RatioCheck(predicted, direct, predicted == direct)


def exceptional_cm_contradiction(ell: int) -> bool:
    """Whether the minimum possible class-number ratio (ell - 1)/3 already
    exceeds the ratio 2 forced on a CM source of an exceptional pair."""
    _require_prime(ell)
    if ell <= 7 or ell % 4 != 3:
        raise ValueError("the CM step applies to primes ell > 7 with ell = 3 mod 4, "
                         "got %d" % ell)
    return Fraction(ell - 1, 3) > 2
