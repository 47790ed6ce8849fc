"""Reductions of a rational elliptic curve mod p: point counts, the
trace-based test for a locally defined ell-isogeny, and prime-by-prime scans.

A curve is reduced by reducing the rational invariants that WeierstrassCurve
stores (b2, b4, b6, c4, c6 and the discriminant).  They are integer
polynomials in the a_i, so this agrees with reducing the a_i at every p that
divides no coefficient denominator; a p that does is a DenominatorError.

Up to NAIVE_LIMIT (measured where it is defined), #E(F_p) is p + 1
plus modpoly's _char_sum, the quadratic character sum over the cubic's
values at every x in F_p.
Above it, counting is by annihilator sets (the Shanks-Mestre method; Cohen,
A Course in Computational Algebraic Number Theory, 7.4.3), on the model
y^2 = x^3 + a x + b and on x-coordinates only, as projective pairs (X : Z)
with O = (X : 0):

* A random x is the x-coordinate of a point P of E when chi(x^3 + a x + b)
  is 1, and of a point of the quadratic twist when it is -1.  The x-only
  formulas are the same on both curves, so no square root is taken, and an
  n with nP = O on the twist, whose order is 2p + 2 - #E, says #E is
  2p + 2 - n.
* Doubling is the standard formula.  Differential addition uses the
  additive form x(M+N) + x(M-N) = [2(x_M + x_N)(x_M x_N + a) + 4b] /
  (x_M - x_N)^2, which needs only M - N != O; the multiplicative form
  divides by x(M-N) and fails where that is 0.  A Montgomery ladder gives
  x(nP).
* Baby steps jP, j <= s, are matched on affine x (one inversion per prime,
  by Montgomery's trick) against giant steps at 2s + 1 consecutive multiples
  c of S = (2s + 1)P around p + 1, which a ladder on S starts.  A match
  cP = +-jP cannot tell c - j from c + j, and the wrong one would survive
  every later point, so a ladder decides whether (c + j)P = O.  A point of
  order at most 2s + 1 gives its multiples.  Later points only re-check the
  surviving candidates, one ladder each, until one is left; the count is
  that one.  No point order is computed, so nothing is factored.  A count
  still ambiguous after 120 points is counted naively up to NAIVE_LIMIT and
  is an ArithmeticError above it.
* The arithmetic is + - * % and selects by 0/1 factors, so one kernel runs
  on int64 arrays over many primes (p < 2^31 keeps every product inside
  int64; larger p uses object arrays) and on Python ints for a few.
  local_scan counts all its good primes from _BATCH_FROM on in one call,
  which works through them in chunks of ascending p, each with the s of its
  largest prime; in a batch the crossover lies far below NAIVE_LIMIT.

Odd p only: the character-sum counter completes the square in y, which needs
2 invertible, and nothing downstream ever requires counts at p = 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt, lcm

import numpy as np

from .arith import _require_prime, legendre_kronecker, primes_up_to
from .ecq import WeierstrassCurve
from .errors import DenominatorError, VerificationError
from .modpoly import _char_sum

# At or below this prime, #E(F_p) is a character sum over the cubic's values
# at every x in F_p (modpoly's _char_sum); above it, BSGS counts.  Median
# microseconds per call, 6 curves at each of the 8 primes from p on (best of
# 3 each, median of 3 runs), both rows in one run, on a 2-vCPU VM (CPython
# 3.11, numpy 2.4).  At 256 a naive count builds its table of powers (cold),
# finds it built (warm) or, with modpoly's _TABLE_LIMIT set to 0, runs
# Horner's rule in blocks; above _TABLE_LIMIT it always runs the blocks:
#
#   p                             256      1k      4k      8k     16k
#   #E(F_p) naive, cold/warm/H  27/11/18    29      63     112     214
#   #E(F_p) BSGS                  174      201     210     225     237
#
# Single counts cross above 16k.  The limit sits lower because moving it also
# moves where _count_chunk may raise "group order ambiguous".
NAIVE_LIMIT = 1 << 12


@dataclass(frozen=True)
class LocalData:
    """Reduction data at one prime: the trace a_p of Frobenius, None iff the
    reduction is bad; good and the count #E(F_p) = p + 1 - a_p follow."""

    p: int
    a_p: int | None = None

    def __post_init__(self):
        if self.good and self.a_p * self.a_p > 4 * self.p:
            raise VerificationError("|a_p| = %d breaks the Hasse bound at p = %d"
                                    % (abs(self.a_p), self.p))

    @property
    def good(self) -> bool:
        return self.a_p is not None

    @property
    def count(self) -> int | None:
        """#E(F_p), or None when the reduction is bad."""
        return None if self.a_p is None else self.p + 1 - self.a_p

    @property
    def supersingular(self) -> bool:
        """Good reduction with a_p = 0 mod p."""
        return self.good and self.a_p % self.p == 0


def _reduction(E: WeierstrassCurve):
    """p -> (b2, b4, b6, c4, c6) of E mod an odd prime p, or None when p
    divides the discriminant; E's rational data is read once, not per p."""
    den = lcm(*(a.denominator for a in E.coefficients()))
    disc = E.discriminant().numerator
    invs = (*E.b_invariants()[:3], *E.c_invariants())
    common = lcm(*(v.denominator for v in invs))
    nums = [v.numerator * (common // v.denominator) for v in invs]

    def reduce(p: int) -> tuple[int, ...] | None:
        if den % p == 0:
            raise DenominatorError("coefficient denominator divisible by p = %d" % p)
        if disc % p == 0:  # p divides no invariant's denominator either
            return None
        inv = pow(common, -1, p)
        return tuple(n * inv % p for n in nums)
    return reduce


# the curve _reduce saw last, by identity (a curve hashes its five Fractions),
# with its _reduction: one-prime calls about one curve read its data once
_reduction_cache: dict = {}


def _reduce(E: WeierstrassCurve, p: int) -> tuple[int, ...] | None:
    """_reduction at one prime, which is checked to be odd and prime."""
    _require_prime(p)
    if p == 2:
        raise ValueError("p = 2 is not supported by the point counter")
    if id(E) not in _reduction_cache:
        _reduction_cache.clear()  # holding E keeps its id from being reused
        _reduction_cache[id(E)] = E, _reduction(E)
    return _reduction_cache[id(E)][1](p)


def _naive_count(inv: tuple[int, ...], p: int) -> int:
    """p + 1 + sum of chi(4x^3 + b2 x^2 + 2 b4 x + b6) over x in F_p, where
    (2y + a1 x + a3)^2 = 4x^3 + b2 x^2 + 2 b4 x + b6 completes the square."""
    b2, b4, b6 = inv[:3]
    return p + 1 + _char_sum([4, b2, 2 * b4, b6], p)


# primes per numpy batch, ascending, with s from the largest: at p <= 10^5,
# 512 keeps a chunk's arrays under 1 MB, where 1024 saved a fifth of the
# time for 1.1 MB more
_CHUNK = 512
# up to this many rows, a kernel runs on Python ints row by row, which beats
# the per-call cost of numpy on short arrays
_FEW = 8
# fresh points tried per prime before an ambiguous count gives up
_ROUNDS = 120
# local_scan batches the good primes from here on; scanning the counterexample
# to 4096 took 37 ms unbatched, 17 ms from 256, 19 ms from 128 (best of 15)
_BATCH_FROM = 256
# the largest bound local_scan takes: its sieve and entries grow with the
# bound, and `counterexample --bound 10^7` took 39.5 s and 234 MB on 2 vCPU
# (CPython 3.11), while 10^13 ran out of memory in the sieve
_MAX_BOUND = 10 ** 7


def _xdbl(X, Z, p, a, b):
    """x(2P) for P = (X : Z) on y^2 = x^3 + a x + b; O is (X : 0)."""
    XX, ZZ, XZ = X * X % p, Z * Z % p, X * Z % p
    t = (XX - a * ZZ) % p
    return ((t * t - 8 * (b * XZ % p) % p * ZZ) % p,
            4 * (Z * ((X * ((XX + a * ZZ) % p) + b * ZZ % p * Z) % p) % p) % p)


def _xadd(X1, Z1, X2, Z2, XD, ZD, p, a, b):
    """x(M + N) from x(M) = X1/Z1, x(N) = X2/Z2 and x(M - N) = XD/ZD, by the
    additive form; valid whenever M - N != O, also where x(M - N) = 0."""
    s, t, ZZ = X1 * Z2 % p, X2 * Z1 % p, Z1 * Z2 % p
    dd = (s - t) * (s - t) % p
    num = (2 * ((s + t) * ((X1 * X2 + a * ZZ) % p) % p) + 4 * (b * ZZ % p * ZZ % p)) % p
    return (ZD * num - XD * dd) % p, ZD * dd % p


def _ladder(x, n, p, a, b, z=1):
    """x(nP) and x((n + 1)P) as (X0, Z0, X1, Z1), for P = (x : z) != O and
    n >= 0, by the Montgomery ladder; Z0 = 0 exactly when nP = O."""
    X0, Z0, X1, Z1 = 1, 0, x, z  # R0 = O, R1 = P; R1 - R0 = P throughout
    for k in reversed(range(int(np.max(n)).bit_length())):
        bit = n >> k & 1
        SX, SZ = _xadd(X0, Z0, X1, Z1, x, z, p, a, b)
        DX, DZ = _xdbl(X0 + bit * (X1 - X0), Z0 + bit * (Z1 - Z0), p, a, b)
        X0, Z0 = DX + bit * (SX - DX), DZ + bit * (SZ - DZ)
        X1, Z1 = SX + DX - X0, SZ + DZ - Z0
    return X0, Z0, X1, Z1


def _powmod(v, e, p):
    """v^e mod p, by square and multiply."""
    r = 1
    for k in reversed(range(int(np.max(e)).bit_length())):
        r = r * r % p * (1 + (e >> k & 1) * (v - 1)) % p
    return r


def _affine(pts, p):
    """x = X/Z of every point, and p for O, with one inversion by
    Montgomery's trick."""
    prefix = [1]  # products of the Z, with 1 standing in for O's 0
    for _, Z in pts:
        prefix.append(prefix[-1] * (Z + (Z == 0)) % p)
    inv = _powmod(prefix.pop(), p - 2, p)
    xs = []
    for X, Z in reversed(pts):
        x = X * (inv * prefix.pop() % p) % p
        xs.append(x + (Z == 0) * (p - x))
        inv = inv * (Z + (Z == 0)) % p
    return xs[::-1]


def _baby_giant(x, q, p, a, b, s):
    """Affine x (p for O) of the baby steps jP, 1 <= j <= s, of the stride
    S = (2s + 1)P, and of the giant steps (q + t)S, 0 <= t <= 2s."""
    pts = [(x, 1), _xdbl(x, 1, p, a, b)]
    while len(pts) <= s:  # up to (s + 1)P
        pts.append(_xadd(*pts[-1], x, 1, *pts[-2], p, a, b))
    S = _xadd(*pts[s], *pts[s - 1], x, 1, p, a, b)  # (s + 1)P + sP
    X0, Z0, X1, Z1 = _ladder(S[0], q, p, a, b, z=S[1])
    giants = [(X0, Z0), (X1, Z1)]  # qS and (q + 1)S
    while len(giants) <= 2 * s:
        # G + S, with difference the giant G - S before it; where that one
        # is O, G = S and the sum is 2G
        G, (XD, ZD) = giants[-1], giants[-2]
        X, Z = _xadd(*G, *S, XD, ZD, p, a, b)
        o = ZD == 0
        if o.any() if isinstance(o, np.ndarray) else o:
            DX, DZ = _xdbl(*G, p, a, b)
            X, Z = X + o * (DX - X), Z + o * (DZ - Z)
        giants.append((X, Z))
    return _affine(pts[:s] + [S] + giants, p)


def _rows(kernel, *cols, **kw):
    """kernel over row-aligned columns, as an array of the columns' dtype
    with one row per input row: on the arrays at once, or on Python ints row
    by row when few."""
    if len(cols[0]) > _FEW:
        return np.array(kernel(*cols, **kw)).T
    return np.array([kernel(*map(int, row), **kw) for row in zip(*cols)], dtype=cols[0].dtype)


def _annihilated(x, n, p, a, b):
    """Whether nP = O for the point with x-coordinate x, row by row."""
    if len(n) == 0:
        return np.zeros(0, bool)
    return _rows(_ladder, x, n, p, a, b)[:, 1] == 0


def _draw(rng, ps, p, a, b):
    """A random x per row, and whether it lies on the quadratic twist
    (chi(x^3 + a x + b) = -1); a root of the cubic counts as on E."""
    x = np.array([rng.randrange(q) for q in ps], dtype=p.dtype)
    f = ((x * x + a) % p * x + b) % p
    return x, _rows(_powmod, f, (p - 1) // 2, p) == p - 1


def _count_chunk(ps, a, b, rng) -> list[int]:
    K = len(ps)
    s = isqrt(isqrt(max(ps))) + 1
    stride = 2 * s + 1
    dtype = np.int64 if max(ps) < 1 << 31 else object
    p, a, b = (np.array(v, dtype=dtype) for v in (ps, a, b))
    half = np.array([isqrt(4 * q) for q in ps], dtype=dtype)  # Hasse radius

    x, twist = _draw(rng, ps, p, a, b)
    # giant steps at the 2s + 1 multiples of the stride nearest p + 1, or
    # from 0 for small p; with the baby steps +-j they cover p + 1 +- 2s^2,
    # past Hasse's 2 sqrt(p)
    q = np.maximum((p + 1 + s) // stride - s, 0)
    xs = _rows(_baby_giant, x, q, p, a, b, s=s)
    baby, giant = xs[:, :s + 1], xs[:, s + 1:]  # baby column s holds the stride
    short = baby == p[:, None]  # jP = O for a j <= s, or the stride is O
    wide = ~short.any(1)
    k, t, j = np.nonzero(giant[:, :, None] == baby[:, None, :s])
    k, t, j = k[wide[k]], t[wide[k]], j[wide[k]]
    # a match says cP = +-jP for c = (q + t)(2s + 1), and x cannot tell
    # which: a ladder decides whether c + j annihilates P; c - j does exactly
    # when c + j does not, or when 2jP = O, i.e. jP is a root of the cubic
    xj, c, j = baby[k, j], (q[k] + t) * stride, j + 1
    plus = _annihilated(x[k], abs(c + j), p[k], a[k], b[k])
    minus = ~plus | (((xj * xj + a[k]) % p[k] * xj + b[k]) % p[k] == 0)
    ko, to = np.nonzero((giant == p[:, None]) & wide[:, None])
    rows = np.concatenate([k[plus], k[minus], ko])
    m = np.concatenate([(c + j)[plus], (c - j)[minus], (q[ko] + to) * stride])
    inside = abs(m - p[rows] - 1) <= half[rows]
    rows, m = [rows[inside]], [m[inside]]
    for r in np.nonzero(~wide)[0]:  # a point of order o <= 2s + 1: its multiples
        o = int(short[r].argmax()) + 1
        o = stride if o > s else o  # the stride is O: no smaller order divides it
        lo, hi = ps[r] + 1 - int(half[r]), ps[r] + 1 + int(half[r])
        mult = np.arange(-(-lo // o) * o, hi + 1, o, dtype=dtype)
        rows.append(np.full(len(mult), r))
        m.append(mult)
    rows, m = np.concatenate(rows), np.concatenate(m)
    n = m + twist[rows] * (2 * p[rows] + 2 - 2 * m)  # twist orders mirror

    for _ in range(_ROUNDS - 1):
        open_ = np.bincount(rows, minlength=K) > 1
        if not open_.any():
            break
        live = np.nonzero(open_)[0]
        x, twist = np.zeros(K, dtype), np.zeros(K, bool)
        x[live], twist[live] = _draw(rng, [ps[r] for r in live], p[live], a[live], b[live])
        sel = open_[rows]
        r, c = rows[sel], n[sel]
        keep = ~sel
        keep[sel] = _annihilated(x[r], c + twist[r] * (2 * p[r] + 2 - 2 * c), p[r], a[r], b[r])
        rows, n = rows[keep], n[keep]

    found = np.bincount(rows, minlength=K)
    if not found.all():
        raise VerificationError("no annihilator of a point found in the Hasse window")
    out = [0] * K
    for r, c in zip(rows.tolist(), n.tolist()):
        out[r] = c
    for r in np.nonzero(found > 1)[0]:
        if ps[r] > NAIVE_LIMIT:
            raise ArithmeticError("group order ambiguous at p = %d" % ps[r])
        out[r] = ps[r] + 1 + _char_sum([1, 0, int(a[r]), int(b[r])], ps[r])
    return out


def _short(inv: tuple[int, ...], p: int) -> tuple[int, int]:
    """(a, b) of y^2 = x^3 + a x + b = x^3 - 27 c4 x - 54 c6, a model of the
    reduction for p >= 5."""
    return -27 * inv[3] % p, -54 * inv[4] % p


def _bsgs_counts(ps: list[int], a: list[int], b: list[int], seed: int = 0) -> list[int]:
    """#E(F_p) of y^2 = x^3 + a x + b at each entry, by the Shanks-Mestre
    method, the primes counted together in chunks of ascending p."""
    if min(ps) < 5:
        raise ValueError("baby-step giant-step counting needs p >= 5")
    rng = random.Random(seed)
    order = sorted(range(len(ps)), key=ps.__getitem__)
    out = [0] * len(ps)
    for start in range(0, len(order), _CHUNK):
        chunk = order[start:start + _CHUNK]
        counts = _count_chunk(*([v[t] for t in chunk] for v in (ps, a, b)), rng)
        for t, c in zip(chunk, counts):
            out[t] = c
    return out


def _count(inv: tuple[int, ...], p: int, method: str, seed: int) -> int:
    if method == "naive" or (method == "auto" and p <= NAIVE_LIMIT):
        return _naive_count(inv, p)
    if method in ("bsgs", "auto"):
        a, b = _short(inv, p)
        return _bsgs_counts([p], [a], [b], seed)[0]
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
        return LocalData(p)
    return LocalData(p, p + 1 - _count(inv, p, "auto", 0))


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


def _scan_entry(data: LocalData, ell: int) -> ScanEntry:
    if not data.good:
        return ScanEntry(data.p, "bad_reduction")
    verdict = "admitted" if local_isogeny_admitted(data, ell) else "rejected"
    return ScanEntry(data.p, verdict, data.a_p)


def local_scan(E: WeierstrassCurve, ell: int, bound: int) -> ScanReport:
    """Run the local criterion at every prime up to bound, recording the
    verdict per prime and why any prime was skipped.  The good primes from
    _BATCH_FROM on are counted together, in one batch, after the walk."""
    _require_prime(ell)
    if bound < 2:
        raise ValueError("bound must be at least 2, got %d" % bound)
    if bound > _MAX_BOUND:
        raise ValueError("bound must be at most %d, got %d" % (_MAX_BOUND, bound))
    reduce = _reduction(E)
    entries = []
    batch = ([], [], [])  # p, a, b of the good primes from _BATCH_FROM on
    for p in primes_up_to(bound):
        if p == 2:
            entries.append(ScanEntry(2, "skipped", note="p = 2 unsupported by the counter"))
            continue
        if p == ell:
            entries.append(ScanEntry(p, "skipped", note="p = ell excluded from the criterion"))
            continue
        try:
            inv = reduce(p)
        except DenominatorError:
            entries.append(ScanEntry(p, "skipped", note="p divides a coefficient denominator"))
            continue
        if inv is not None and p >= _BATCH_FROM:
            for v, new in zip(batch, (p, *_short(inv, p))):
                v.append(new)
            entries.append(None)  # filled in from the batch count
        else:
            data = LocalData(p) if inv is None else LocalData(p, p + 1 - _naive_count(inv, p))
            entries.append(_scan_entry(data, ell))
    ps, a, b = batch
    if ps:
        counts = _bsgs_counts(ps, a, b)
        a.clear()  # freed before the entries are made, which lowers the
        b.clear()  # scan's peak memory
        counted = (LocalData(p, p + 1 - n) for p, n in zip(ps, counts))
        entries = [_scan_entry(next(counted), ell) if e is None else e for e in entries]
    return ScanReport(ell, bound, tuple(entries))
