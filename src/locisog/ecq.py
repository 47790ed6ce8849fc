"""Elliptic curves over Q: Weierstrass invariants, bad primes, rational
two-torsion, the degree-7 twist quartic -7y^2 = x^4 + 2x^3 - 9x^2 - 10x - 3,
and the exact maps tying its points to j-invariants, with quadratic field
support for the Q(i) point checks.

Coefficients and coordinates enter through arith._frac, which refuses
floats; a coordinate that is already a QuadFieldElement is kept as it is.
The point checks and maps then compute with whatever mix of Q and one
Q(sqrt(d)) they are given: QuadFieldElement lifts rationals itself, and its
lift is where coordinates from two different quadratic fields raise
ValueError.  Polynomials are evaluated by modpoly's exact layer (_peval),
and f's numerator and denominator are expanded once, with its _pmul, from
their factored tables.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .arith import QuadFieldElement, _frac, factorize, is_rational_square
from .errors import DegeneratePointError
from .modpoly import _peval, _pmul, rational_linear_factors


class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with exact coefficients.
    The b- and c-invariants and the discriminant are computed once and kept."""

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "_b", "_c", "_disc")

    def __init__(self, a1, a2, a3, a4, a6):
        a1, a2, a3, a4, a6 = map(_frac, (a1, a2, a3, a4, a6))
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = (b2 * b6 - b4 * b4) / 4
        disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise ValueError("singular curve: discriminant is zero")
        c = (b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6)
        for name, v in zip(self.__slots__,
                           (a1, a2, a3, a4, a6, (b2, b4, b6, b8), c, disc)):
            object.__setattr__(self, name, v)

    def __setattr__(self, *args):
        raise AttributeError("WeierstrassCurve is immutable")

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def b_invariants(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self._b

    def c_invariants(self) -> tuple[Fraction, Fraction]:
        return self._c

    def discriminant(self) -> Fraction:
        return self._disc

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coefficients())

    def __eq__(self, other):
        return (isinstance(other, WeierstrassCurve)
                and self.coefficients() == other.coefficients())

    def __hash__(self):
        return hash(self.coefficients())

    def __repr__(self):
        return "WeierstrassCurve(%s)" % ", ".join(str(a) for a in self.coefficients())


# the pair of curves the degree-7 story runs on
COUNTEREXAMPLE_CURVE = WeierstrassCurve(1, -1, 0, -107, -379)
CURVE_49A3 = WeierstrassCurve(1, -1, 0, -107, 552)


def _rational(text: str, name: str) -> Fraction:
    """Parse "p/q" or an integer; a zero q is an error that names the input."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("%s = %s has a zero denominator" % (name, text)) from None


def parse_curve(text: str) -> WeierstrassCurve:
    """Parse "a1,a2,a3,a4,a6" with entries "p/q" or integers."""
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 5:
        raise ValueError("expected 5 comma-separated coefficients, got %d" % len(parts))
    return WeierstrassCurve(*[_rational(t, "a%d" % i) for i, t in zip((1, 2, 3, 4, 6), parts)])


class CurveInvariants(NamedTuple):
    c4: Fraction
    c6: Fraction
    disc: Fraction
    j: Fraction


def invariants(E: WeierstrassCurve) -> CurveInvariants:
    c4, c6 = E.c_invariants()
    disc = E.discriminant()
    return CurveInvariants(c4, c6, disc, c4 ** 3 / disc)


def bad_primes(E: WeierstrassCurve) -> frozenset[int]:
    """Primes dividing the discriminant of the given integral model."""
    if not E.is_integral():
        raise ValueError("bad_primes needs an integral model, got %r" % (E,))
    disc = int(E.discriminant())
    return frozenset(factorize(abs(disc)))


def two_torsion_x(E: WeierstrassCurve) -> tuple[Fraction, ...]:
    """x-coordinates of the rational 2-torsion: the distinct rational roots
    of 4x^3 + b2 x^2 + 2 b4 x + b6, ascending."""
    b2, b4, b6, _ = E.b_invariants()
    return tuple(dict.fromkeys(rational_linear_factors([Fraction(4), b2, 2 * b4, b6])))


def _exact(v):
    """A coordinate as it is if it lies in a quadratic field, else as a Fraction."""
    return v if isinstance(v, QuadFieldElement) else _frac(v)


# -7 y^2 = x^4 + 2x^3 - 9x^2 - 10x - 3
_QUARTIC = (1, 2, -9, -10, -3)

# x-coordinate on the quartic -> j-invariant of the isogeny-ambiguous curve:
# f = -(x - 3)^3 (x - 2) (x^2 + x - 5)^3 (x^2 + x + 2)^3
#     (x^4 - 3x^3 + 2x^2 + 3x + 1)^3 / (x^3 - 2x^2 - x + 1)^7.
# The denominator is a power of an irreducible cubic, so f has no pole in Q
# or in any quadratic field.
_F_NUMERATOR = (((1, -3), 3), ((1, -2), 1), ((1, 1, -5), 3), ((1, 1, 2), 3),
                ((1, -3, 2, 3, 1), 3))
_F_DENOMINATOR = (((1, -2, -1, 1), 7),)
# f's numerator and denominator, expanded once
_F_NUM, _F_DEN = (reduce(_pmul, [c for c, e in table for _ in range(e)], [1])
                  for table in (_F_NUMERATOR, _F_DENOMINATOR))


def quartic_point_check(x, y) -> bool:
    """Exact test of -7 y^2 = x^4 + 2x^3 - 9x^2 - 10x - 3."""
    x, y = _exact(x), _exact(y)
    return y * y * -7 - _peval(_QUARTIC, x) == 0


def eval_map_f(x):
    """j-invariant attached to a point of the twist quartic with abscissa x."""
    x = _exact(x)
    return -_peval(_F_NUM, x) / _peval(_F_DEN, x)


def map_49a3_to_quartic_x(u, v):
    """Send a point (u, v) of y^2 + xy = x^3 - x^2 - 107x + 552 to the
    abscissa (3u - v + 42)/(u + 2v) on the twist quartic.

    Returns (x, flag) where flag reports whether q(x)/(-7) is a square in
    the coordinate field, i.e. whether a matching ordinate exists there.
    """
    u, v = _exact(u), _exact(v)
    a1, a2, a3, a4, a6 = CURVE_49A3.coefficients()
    if v * v + a1 * u * v + a3 * v != _peval((1, a2, a4, a6), u):
        raise ValueError("(%s, %s) does not satisfy y^2 + xy = x^3 - x^2 - 107x + 552"
                         % (u, v))
    den = u + 2 * v
    if den == 0:
        raise DegeneratePointError("u + 2v = 0: the map is undefined at (%s, %s)"
                                   % (u, v))
    x = (3 * u - v + 42) / den
    target = _peval(_QUARTIC, x) / -7
    if isinstance(target, QuadFieldElement):
        return x, target.is_square()
    return x, is_rational_square(target)
