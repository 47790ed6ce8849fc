"""Reductions of a rational elliptic curve mod p: point counts, the
trace-based test for a locally defined ell-isogeny, and prime-by-prime scans.

A curve is reduced by reducing the rational invariants that WeierstrassCurve
stores (b2, b4, b6, c4, c6 and the discriminant).  They are integer
polynomials in the a_i, so this agrees with reducing the a_i at every p that
divides no coefficient denominator; a p that does is a DenominatorError.

Up to NAIVE_LIMIT (see modpoly for the measured crossover), #E(F_p) is p + 1
plus a quadratic character sum over the cubic's values at every x in F_p.
Above it, counting is by annihilator sets (the Shanks-Mestre method; Cohen,
A Course in Computational Algebraic Number Theory, 7.4.3): baby and giant
steps find, for a random point P, every n in the Hasse interval with nP = O.
Intersecting these sets over random points leaves the group order, and the
quadratic twist, whose order is 2p + 2 - n, breaks ties.  No point order is
computed, so nothing is factored.

Odd p only: the character-sum counter completes the square in y, which needs
2 invertible, and nothing downstream ever requires counts at p = 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .arith import (_require_prime, legendre_kronecker, primes_up_to,
                    smallest_nonresidue, sqrt_mod)
from .ecq import WeierstrassCurve
from .errors import DenominatorError, VerificationError
from .modpoly import NAIVE_LIMIT, _values_mod


@dataclass(frozen=True)
class LocalData:
    """Reduction data at one prime: count and trace are None iff bad."""

    p: int
    good: bool
    count: int | None = None
    a_p: int | None = None
    supersingular: bool = False

    def __post_init__(self):
        if self.good:
            if self.count is None or self.a_p is None:
                raise ValueError("good reduction needs count and a_p")
            if self.count != self.p + 1 - self.a_p:
                raise VerificationError("count %d != p + 1 - a_p at p = %d"
                                        % (self.count, self.p))
            if self.a_p * self.a_p > 4 * self.p:
                raise VerificationError("|a_p| = %d breaks the Hasse bound at p = %d"
                                        % (abs(self.a_p), self.p))
        elif self.count is not None or self.a_p is not None or self.supersingular:
            raise ValueError("bad reduction carries no count data")


def _reduce(E: WeierstrassCurve, p: int) -> tuple[int, ...] | None:
    """(b2, b4, b6, c4, c6) of E mod an odd prime p, or None when p divides
    the discriminant."""
    _require_prime(p)
    if p == 2:
        raise ValueError("p = 2 is not supported by the point counter")
    if any(a.denominator % p == 0 for a in E.coefficients()):
        raise DenominatorError("coefficient denominator divisible by p = %d" % p)
    # so p divides no invariant's denominator either
    if E.discriminant().numerator % p == 0:
        return None
    b2, b4, b6, _ = E.b_invariants()
    return tuple(v.numerator * pow(v.denominator, -1, p) % p
                 for v in (b2, b4, b6, *E.c_invariants()))


def _naive_count(inv: tuple[int, ...], p: int) -> int:
    """p + 1 + sum of chi(4x^3 + b2 x^2 + 2 b4 x + b6) over x in F_p."""
    b2, b4, b6, _, _ = inv
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    return p + 1 + int(chi[_values_mod([4, b2, 2 * b4, b6], p)].sum())


def _ec_add(P, Q, A: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_neg(P, p: int):
    return None if P is None else (P[0], -P[1] % p)


def _ec_mul(k: int, P, A: int, p: int):
    if k < 0:
        return _ec_mul(-k, _ec_neg(P, p), A, p)
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, A, p)
        P = _ec_add(P, P, A, p)
        k >>= 1
    return R


def _random_point(A: int, B: int, p: int, rng: random.Random):
    while True:
        x = rng.randrange(p)
        rhs = (x * x % p * x + A * x + B) % p
        y = sqrt_mod(rhs, p)
        if y is not None:
            return x, y


def _annihilators(P, A: int, p: int) -> set[int]:
    """Every n in the Hasse interval with nP = O: baby steps jP, j <= s,
    against giant strides n0 P, n0 = p + 1 + i (2s + 1), which cover every
    n = n0 +- j.  A point of order at most s gives its multiples directly."""
    lo, hi = p + 1 - isqrt(4 * p), p + 1 + isqrt(4 * p)
    s = isqrt(isqrt(p)) + 1
    stride = 2 * s + 1
    baby = {}  # x-coordinate -> [(j, y) for jP = (x, y)]
    Q = P
    for j in range(1, s + 1):
        if Q is None:
            return set(range(-(-lo // j) * j, hi + 1, j))
        baby.setdefault(Q[0], []).append((j, Q[1]))
        Q = _ec_add(Q, P, A, p)
    step = _ec_mul(stride, P, A, p)
    R = _ec_mul(p + 1 - s * stride, P, A, p)
    found = set()
    for i in range(-s, s + 1):
        n0 = p + 1 + i * stride
        if R is None:
            found.add(n0)
        else:
            for j, y in baby.get(R[0], ()):
                if R[1] == y:
                    found.add(n0 - j)
                if R[1] == (p - y) % p:
                    found.add(n0 + j)
        R = _ec_add(R, step, A, p)
    found = {n for n in found if lo <= n <= hi}
    if not found:
        raise VerificationError("no annihilator of a point found in the Hasse window")
    return found


def _bsgs_count(inv: tuple[int, ...], p: int, seed: int) -> int:
    """Group order by the Shanks-Mestre method: the Hasse-interval values n
    with nP = O for every random point P tried, intersected until one is
    left; the quadratic twist, whose order is 2p + 2 - n, breaks ties."""
    if p < 5:
        raise ValueError("baby-step giant-step counting needs p >= 5")
    _, _, _, c4, c6 = inv
    # y^2 = x^3 - 27 c4 x - 54 c6 is isomorphic to the reduction for p >= 5
    A, B = -27 * c4 % p, -54 * c6 % p
    rng = random.Random((seed << 32) ^ p)
    cands = None
    for _ in range(60):
        found = _annihilators(_random_point(A, B, p, rng), A, p)
        cands = found if cands is None else cands & found
        if len(cands) == 1:
            return cands.pop()
    c = smallest_nonresidue(p)
    At, Bt = A * c * c % p, B * c * c % p * c % p
    for _ in range(60):
        found = _annihilators(_random_point(At, Bt, p, rng), At, p)
        cands = {n for n in cands if 2 * p + 2 - n in found}
        if len(cands) == 1:
            return cands.pop()
    if p <= NAIVE_LIMIT:
        return _naive_count(inv, p)
    raise ArithmeticError("group order ambiguous at p = %d" % p)


def _count(inv: tuple[int, ...], p: int, method: str, seed: int) -> int:
    if method == "naive" or (method == "auto" and p <= NAIVE_LIMIT):
        return _naive_count(inv, p)
    if method in ("bsgs", "auto"):
        return _bsgs_count(inv, p, seed)
    raise ValueError("method must be 'auto', 'naive', or 'bsgs', got %r" % (method,))


def count_points(E: WeierstrassCurve, p: int, method: str = "auto", seed: int = 0) -> int:
    """#E(F_p) for an odd prime of good reduction."""
    inv = _reduce(E, p)
    if inv is None:
        raise ValueError("bad reduction at p = %d" % p)
    return _count(inv, p, method, seed)


def reduce_and_count(E: WeierstrassCurve, p: int) -> LocalData:
    """Reduce E mod an odd prime and package count, trace, and flags."""
    inv = _reduce(E, p)
    if inv is None:
        return LocalData(p, False)
    n = _count(inv, p, "auto", 0)
    a_p = p + 1 - n
    return LocalData(p, True, n, a_p, a_p % p == 0)


def local_isogeny_admitted(data: LocalData, ell: int) -> bool:
    """Whether x^2 - a_p x + p has a root mod ell, i.e. the reduction admits
    an F_p-rational ell-isogeny (split or ramified Frobenius eigenvalue)."""
    _require_prime(ell)
    if not data.good:
        raise ValueError("criterion needs good reduction, p = %d is bad" % data.p)
    if data.p == ell:
        raise ValueError("p = ell = %d is excluded from the local criterion" % ell)
    if ell == 2:
        return data.a_p % 2 == 0
    disc = (data.a_p * data.a_p - 4 * data.p) % ell
    return disc == 0 or legendre_kronecker(disc, ell) == 1


@dataclass(frozen=True)
class ScanEntry:
    p: int
    status: str  # admitted | rejected | bad_reduction | skipped
    a_p: int | None = None
    note: str = ""


@dataclass(frozen=True)
class ScanReport:
    ell: int
    bound: int
    entries: tuple[ScanEntry, ...]

    @property
    def all_admitted(self) -> bool:
        return not self.rejected

    @property
    def rejected(self) -> tuple[int, ...]:
        return tuple(e.p for e in self.entries if e.status == "rejected")

    @property
    def admitted(self) -> tuple[int, ...]:
        return tuple(e.p for e in self.entries if e.status == "admitted")

    @property
    def skipped(self) -> tuple[int, ...]:
        return tuple(e.p for e in self.entries if e.status == "skipped")


def local_scan(E: WeierstrassCurve, ell: int, bound: int) -> ScanReport:
    """Run the local criterion at every prime up to bound, recording the
    verdict per prime and why any prime was skipped."""
    _require_prime(ell)
    if bound < 2:
        raise ValueError("bound must be at least 2, got %d" % bound)
    entries = []
    for p in primes_up_to(bound):
        if p == 2:
            entries.append(ScanEntry(2, "skipped", note="p = 2 unsupported by the counter"))
            continue
        if p == ell:
            entries.append(ScanEntry(p, "skipped", note="p = ell excluded from the criterion"))
            continue
        try:
            data = reduce_and_count(E, p)
        except DenominatorError:
            entries.append(ScanEntry(p, "skipped", note="p divides a coefficient denominator"))
            continue
        if not data.good:
            entries.append(ScanEntry(p, "bad_reduction"))
            continue
        verdict = "admitted" if local_isogeny_admitted(data, ell) else "rejected"
        entries.append(ScanEntry(p, verdict, data.a_p))
    return ScanReport(ell, bound, tuple(entries))
