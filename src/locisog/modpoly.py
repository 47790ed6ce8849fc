"""Classical modular polynomials Phi_N(X, Y): file loading, specialization at
a j-invariant, certified rational root extraction, root counting over F_p,
and verification of shipped factorization certificates.

Rational roots are lifted p-adically from one prime (Loos, SIAM J. Comput.
12 (1983); von zur Gathen and Gerhard, Modern Computer Algebra, ch. 15).  Let
s be f, zero roots stripped, made primitive: a root a/b in lowest terms has
a | s(0) and b | lc(s).  The lifting prime q is the first of the _TRIES least
odd primes not dividing lc(s) at which every zero r of s mod q is simple,
s'(r) != 0 mod q, read off the values of s and s' on F_q.  Every rational root
reduces to one of these zeros, and Newton's iteration lifts it uniquely until
q^(2^k) > 2*|s(0)|*lc(s), where rational reconstruction is unique; exact
deflation of a copy of s confirms it and gives its multiplicity.  If no q
serves, the repeated rational roots of s, roots of s' too, are found by the
finder on s' (one degree lower) and divided out of s.  A rational root a/b
left is simple, and reduces to a multiple zero mod q only if q divides
b^(d-1) s'(a/b), d = deg s, a nonzero integer below 2^K, K = d bits(max(|s(0)|,
lc(s))) + bits(sum |s'_i|).  So the search runs again over K primes, and lifts
at the first with simple zeros only, or else the simple zeros at each, as
(X^2 - 2)^2 (X^2 - 3)^2 (X^2 - 6)^2 needs (a multiple zero mod every prime).

Phi_N is stored as integer rows, one per power of Y; one homogeneous
Horner's rule over them gives b^d Phi_N(X, a/b), d = N + 1, with integer
coefficients, which evaluate_at_j divides by b^d and _specialize_mod reduces.
It runs on rows packed once per (M, n), each the row's value at 2^W, so a
step is one multiply-add.  With C the largest column sum of |c| and
m = max(|a|, b) <= 2^n, n = bits(m - 1), every result coefficient is below
C 2^(n d) < 2^(W-1) in size for W = bits(C) + n d + 1: 2^(W-1) added to every
slot leaves each in [0, 2^W), and a shift and mask reads it.

Polynomials mod q are dense descending coefficient lists, handled by one small
toolkit: _ptrim, _pdivmod, _pgcd (the one polynomial gcd, not made monic), the
evaluator _values_mod (f at every point of F_q, for the zeros mod the lifting
prime; up to _TABLE_LIMIT one product with the table T of x^k, k < 9, that
_powers keeps for each such q for the run, above it Horner's rule,
_horner_mod), the character sum _char_sum (the quadratic character of f
summed over F_q, for point counts: up to _TABLE_LIMIT over _values_mod and
T's squares, above it over the same _horner_mod, _BLOCK points at a time,
against an int8 character table) and the power kernel _xpow_mod.  Distinct
root counts switch where the kept tables end: up to _TABLE_LIMIT, for
d + 1 <= _POWERS and q not dividing N, with no record there already,
Phi_N(x, j) at every x is the bilinear form (T[:, j] @ R) @ T, R Phi_N's
rows mod q kept by _rows_mod, below (d + 1)^2 q^5 < 2^52 before one final
% q (_phi_values_mod), and no specialization is made.  _pdivmod, _pgcd and _xpow_mod take what their
callers pass, trimmed lists (no leading zero) of residues in [0, q), and do
not reduce or trim their inputs again.  Every other count of F_p-roots of
f = Phi_N(X, j), distinct or with multiplicity, reads one record per prime,
_root_layers.  Its first layer
L_1 = gcd(X^p - X, f) is the product of X - r over the distinct roots; with
f_0 = f and f_k = f_(k-1) / L_k, each later layer L_(k+1) = gcd(L_k, f_k)
keeps the roots of multiplicity above k, even a multiplicity above p.  So
X^p mod f, where d = deg f is at most 8 for the shipped levels, is the only
power taken, once per prime.
The kernel packs a residue into one integer, coefficient i in slot i of S
bits, so a squaring is one product (Kronecker substitution), and reduces all
slots at once by Barrett's step a - floor(a m / 2^B) q, m = 2^B // q (Barrett,
CRYPTO '86): a m masked to bits B .. S-1 of each slot, shifted down by B,
times q.  A slot a < 2^B ends in [0, 2q), and a m < 2^(2B - bits(q) + 1) fits
in S = 2B - bits(q) + 1 bits.  Residues stay below 2q until one exact % q per
slot at the end.  A square L + X^d T has slots below d (2q)^2; the quotient Q
of X^d T by f is the polynomial part of T (h_0 + h_1 X^-1 + ... + h_(d-2)
X^-(d-2)), X^d / f expanded (Barrett division; von zur Gathen and Gerhard,
Modern Computer Algebra, 9.1): one product of T, reduced, and the packed h,
slots below 2 (d-1) q^2.  Q reduced, the square mod f is L + Q (X^d mod f)
masked to d slots, below 6 d q^2 < 2^B.  X r is a shift and one row X^d mod f.

Exact polynomials, over Z, Q or one Q(sqrt d), are descending coefficient
lists too, handled by one small layer (von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 2): _ptrim drops leading zeros, _pmul is the schoolbook
product, _peval is Horner's rule in the ring of the point (so a
QuadFieldElement point gives a value in its field), and _derivative and
_primitive serve the rational-root finder.  verify_certificate and ecq's
twist quartic and j-map compute with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count, islice
from math import gcd, lcm
from pathlib import Path

import numpy as np

from .arith import PrimeFieldElement, _frac, is_prime, is_rational_square
from .errors import ModPolyFormatError

SHIPPED_LEVELS = (2, 3, 5, 7)
_DATA = Path(__file__).parent / "data"


class ModularPolynomial:
    """Phi_N(X, Y), symmetric with integer coefficients, built from the half
    {(i, j): c with i >= j} and stored as rows, d = N + 1: row k holds the
    coefficients of X^d, ..., X^0 in that of Y^(d-k)."""

    __slots__ = ("level", "_rows")

    def __init__(self, level: int, half: dict):
        if level < 2:
            raise ValueError("level must be at least 2, got %d" % level)
        d = level + 1
        rows = [[0] * (d + 1) for _ in range(d + 1)]
        for (i, j), c in half.items():
            if not (0 <= j <= i <= d):
                raise ValueError("exponent pair (%d, %d) out of range for level %d"
                                 % (i, j, level))
            if not isinstance(c, int) or c == 0:
                raise ValueError("coefficient at (%d, %d) must be a nonzero integer" % (i, j))
            rows[d - j][d - i] = rows[d - i][d - j] = c
        if half.get((d, 0)) != 1:
            raise ValueError("Phi_%d must be monic of degree %d in X" % (level, d))
        if (d, d) in half or any(i == d and j > 0 for (i, j) in half):
            raise ValueError("degree in X exceeds %d + 1 with Y present" % level)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))

    def __setattr__(self, *args):
        raise AttributeError("ModularPolynomial is immutable")

    @property
    def degree(self) -> int:
        return self.level + 1

    def coefficient(self, i: int, j: int) -> int:
        d = self.degree
        return self._rows[d - j][d - i] if 0 <= min(i, j) <= max(i, j) <= d else 0

    def half_terms(self):
        d = self.degree
        return sorted((((d - s, d - k), c) for k, row in enumerate(self._rows)
                       for s, c in enumerate(row) if c and s <= k), reverse=True)

    def __repr__(self):
        return "ModularPolynomial(level=%d, %d stored terms)" % (self.level, len(self.half_terms()))


def _parse_modpoly(lines, source: str) -> ModularPolynomial:
    level = None
    half = {}
    for num, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if level is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "level" or not parts[1].isdigit():
                raise ModPolyFormatError("%s:%d: expected 'level N', got %r"
                                         % (source, num, raw.strip()))
            level = int(parts[1])
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ModPolyFormatError("%s:%d: expected 'i j c', got %r"
                                     % (source, num, raw.strip()))
        try:
            i, j, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ModPolyFormatError("%s:%d: non-integer entry in %r"
                                     % (source, num, raw.strip())) from None
        if j > i:
            raise ModPolyFormatError("%s:%d: stored half needs i >= j, got (%d, %d)"
                                     % (source, num, i, j))
        if (i, j) in half:
            raise ModPolyFormatError("%s:%d: duplicate term (%d, %d)" % (source, num, i, j))
        half[(i, j)] = c
    if level is None:
        raise ModPolyFormatError("%s: missing 'level N' header" % source)
    try:
        return ModularPolynomial(level, half)
    except ValueError as e:
        raise ModPolyFormatError("%s: %s" % (source, e)) from None


def load_modpoly(path) -> ModularPolynomial:
    """Read a modular polynomial from its text format ('level N' then 'i j c'
    lines for the symmetric half, '#' comments allowed)."""
    with open(path, encoding="ascii") as fh:
        return _parse_modpoly(fh, str(path))


def shipped_modpoly(level: int) -> ModularPolynomial:
    """One of the modular polynomials bundled with the package."""
    if level not in SHIPPED_LEVELS:
        raise ValueError("no modular polynomial shipped for level %d (have %s)"
                         % (level, ", ".join(map(str, SHIPPED_LEVELS))))
    return load_modpoly(_DATA / ("phi%d.txt" % level))


@lru_cache(maxsize=None)
def _packed_rows(M: ModularPolynomial, n: int) -> tuple[int, tuple[int, ...], int]:
    """(W, rows, bias) of _specialize at max(|a|, b) <= 2^n: each of M's rows
    packed into one integer, coefficient s in slot s of W bits, and 2^(W-1)
    in every slot (module docstring)."""
    d = M.degree
    C = max(sum(abs(row[s]) for row in M._rows) for s in range(d + 1))
    W = C.bit_length() + d * n + 1
    rows = tuple(sum(c << W * s for s, c in enumerate(row)) for row in M._rows)
    return W, rows, sum(1 << W * s + W - 1 for s in range(d + 1))


def _specialize(M: ModularPolynomial, a: int, b: int = 1) -> list[int]:
    """b^d Phi_N(X, a/b), d = N + 1, descending, with integer coefficients:
    one homogeneous Horner's rule over M's packed rows, out <- a out + b^k
    row_k, and one biased unpack."""
    W, rows, bias = _packed_rows(M, (max(abs(a), b) - 1).bit_length())
    out, s = rows[0], 1
    for row in rows[1:]:
        s *= b
        out = out * a + s * row
    out += bias
    mask, half = (1 << W) - 1, 1 << W - 1
    return [(out >> W * s & mask) - half for s in range(M.degree + 1)]


def evaluate_at_j(M: ModularPolynomial, j) -> list[Fraction]:
    """Coefficients of Phi_N(X, j), descending, length N + 2."""
    j = _frac(j)
    scale = j.denominator ** M.degree
    return [Fraction(c, scale) for c in _specialize(M, j.numerator, j.denominator)]


# -- dense polynomial arithmetic mod a prime (descending coefficients) --

def _ptrim(f: list) -> list:
    """f without its leading zeros, keeping a last zero; residues mod q or
    exact values alike."""
    k = 0
    while k < len(f) - 1 and f[k] == 0:
        k += 1
    return f[k:]


def _pdivmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    if len(a) < len(b):
        return [0], a
    inv = pow(b[0], -1, q)
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for shift in range(len(rem) - len(b) + 1):
        coef = rem[shift] * inv % q
        quo[shift] = coef
        if coef:
            for k, v in enumerate(b):
                rem[shift + k] = (rem[shift + k] - coef * v) % q
    return quo, _ptrim(rem[len(rem) - len(b) + 1:] or [0])


def _pgcd(a: list[int], b: list[int], q: int) -> list[int]:
    while b != [0]:
        a, b = b, _pdivmod(a, b, q)[1]
    return a


_POWERS = 9  # deg Phi_7 + 1: one table serves every shipped level and point counts
# up to this prime, tables of powers are kept for the run: at most 97, 72 q
# bytes each, 1.55 MB in all.  Cold, a table costs 1.5 times Horner's rule,
# warm 0.6 times (measured in ecfp): it pays from a prime's third call.  So
# are Phi_N's rows mod q (_rows_mod), at most 97 per level: 0.2 MB at levels
# 2-7.  Above it, distinct root counts read the X^p record (fp_root_count)
_TABLE_LIMIT = 1 << 9


@lru_cache(maxsize=None)
def _powers(q: int) -> np.ndarray:
    """Row k is x^k at every x in F_q, for k < _POWERS and q <= _TABLE_LIMIT:
    reduced mod q up to row 4, and from row 5 on a product of two residues,
    below q^2."""
    t = np.ones((_POWERS, q), dtype=np.int64)
    t[1] = np.arange(q)
    for k in (2, 3, 5):  # rows k .. 2k - 2 are rows 1 .. k - 1 times row k - 1
        np.multiply(t[1:k], t[k - 1], out=t[k:2 * k - 1])
        if k < 5:
            t[k:2 * k - 1] %= q
    t.setflags(write=False)  # every caller shares the cached table
    return t


def _values_mod(f: list[int], q: int) -> np.ndarray:
    """f(x) mod q at every x in F_q, for the lifting prime's zeros and point
    counts; f is descending with integer coefficients, and q^2 must fit in
    int64.  Up to _TABLE_LIMIT, for f of at most _POWERS coefficients, one
    product of f's residues with the table of powers, below _POWERS q^3 < 2^63
    before the final % q; otherwise _horner_mod over all of F_q."""
    if q <= _TABLE_LIMIT and len(f) <= _POWERS:
        c = np.array([a % q for a in reversed(f)], dtype=np.int64)
        return c @ _powers(q)[:len(f)] % q
    return _horner_mod(f, np.arange(q, dtype=np.int64), q)


def _horner_mod(f: list[int], x: np.ndarray, q: int) -> np.ndarray:
    """f(x) mod q at the int64 points x in [0, q), by Horner's rule in place
    on one array: a step takes entries at most t to at most
    (t + 1)(q - 1) <= t q, so it is reduced only where the next could
    overflow."""
    v = np.full(len(x), f[0] % q, dtype=np.int64)
    top = q - 1  # bound on the entries of v
    for c in f[1:]:
        if top * q >= 1 << 63:
            v %= q
            top = q - 1
        v *= x
        v += c % q
        top = (top + 1) * (q - 1)
    v %= q
    return v


_BLOCK = 1 << 14  # points per block of a character sum above _TABLE_LIMIT


def _char_sum(f: list[int], q: int) -> int:
    """The sum over x in F_q of the quadratic character of f(x), q an odd
    prime with q^2 inside int64, from an int8 table of the character.  Up
    to _TABLE_LIMIT the squares are row 2 of the table of powers and f's
    values come from _values_mod; above it f is evaluated _BLOCK points at a
    time, so the sum takes about q bytes, not arrays of q int64."""
    chi = np.full(q, -1, dtype=np.int8)
    if q <= _TABLE_LIMIT:
        chi[_powers(q)[2]] = 1
        chi[0] = 0
        return int(chi[_values_mod(f, q)].sum())
    x = np.arange(min(q, _BLOCK), dtype=np.int64)
    for s in range(0, q // 2 + 1, _BLOCK):  # x^2 = (q - x)^2
        chi[(x[:q // 2 + 1 - s] + s) ** 2 % q] = 1
    chi[0] = 0
    return sum(int(chi[_horner_mod(f, x[:q - s] + s, q)].sum()) for s in range(0, q, _BLOCK))


def _slot_bits(q: int, d: int) -> tuple[int, int]:
    """(B, S) of _xpow_mod: 2^B > 6 d q^2 bounds a slot before a reduction,
    and S = 2B - bits(q) + 1 holds it times 2^B // q (module docstring)."""
    B = (6 * d * q * q).bit_length()
    return B, 2 * B - q.bit_length() + 1


def _xpow_mod(e: int, f: list[int], q: int) -> list[int]:
    """X^e mod f over F_q, q prime, descending and trimmed.  The caller
    passes e >= 1 and f monic of degree d >= 2 with coefficients in [0, q).
    See the module docstring for the packed representation."""
    d = len(f) - 1
    B, S = _slot_bits(q, d)
    h = [1]  # X^d / f = h_0 + h_1 X^-1 + ... + h_(d-2) X^-(d-2) + ...
    for k in range(1, d - 1):
        t = 0
        for i in range(1, k + 1):
            t -= f[i] * h[k - i]
        h.append(t % q)
    g = sum(-c % q << S * i for i, c in enumerate(reversed(f[1:])))  # X^d mod f
    H = sum(c << S * (d - 2 - k) for k, c in enumerate(h))
    low_bits = S * d
    low_mask = (1 << low_bits) - 1
    hi_mask = low_mask // ((1 << S) - 1) * ((1 << S) - (1 << B))
    m = (1 << B) // q

    r = 1 << S  # X, already reduced since d >= 2
    for bit in bin(e)[3:]:
        P = r * r
        T = P >> low_bits
        T -= (((T * m) & hi_mask) >> B) * q
        Q = (T * H) >> (low_bits - 2 * S)  # slots d - 2 .. 2d - 4 of T H
        Q -= (((Q * m) & hi_mask) >> B) * q
        r = (P & low_mask) + ((Q * g) & low_mask)
        r -= (((r * m) & hi_mask) >> B) * q
        if bit == "1":
            P = r << S
            r = (P & low_mask) + (P >> low_bits) * g
            r -= (((r * m) & hi_mask) >> B) * q
    return _ptrim([(r >> s) % (1 << S) % q for s in range(low_bits - S, -1, -S)])


def _rational_reconstruct(c: int, m: int, num_bound: int, den_bound: int):
    """The p/q with p = c q mod m, |p| <= num_bound, 0 < q <= den_bound,
    unique when m > 2*num_bound*den_bound; None when no such pair exists."""
    r0, r1 = m, c % m
    s0, s1 = 0, 1
    while r1 > num_bound:
        k = r0 // r1
        r0, r1 = r1, r0 - k * r1
        s0, s1 = s1, s0 - k * s1
    if s1 == 0 or abs(s1) > den_bound or (r1 - c * s1) % m != 0:
        return None
    return Fraction(r1, s1) if s1 > 0 else Fraction(-r1, -s1)


def _primitive(f: list[int]) -> list[int]:
    """f over its content, with a positive leading coefficient."""
    c = gcd(*f) if f[0] > 0 else -gcd(*f)
    return [x // c for x in f]


def _derivative(f: list[int]) -> list[int]:
    return [(len(f) - 1 - k) * c for k, c in enumerate(f[:-1])] or [0]


def _pmul(f, g) -> list:
    """The exact product of two descending coefficient lists."""
    out = [0] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for k, v in enumerate(g):
            out[i + k] += u * v
    return out


def _peval(f, x):
    """f at x by Horner's rule, in the ring of x: Q, or one Q(sqrt d)."""
    acc = x * 0
    for c in f:
        acc = acc * x + c
    return acc


def _deflate(f: list[int], root: Fraction) -> tuple[list[int], int]:
    """(f / (b X - a)^k, k) for root = a/b and the largest k at which the
    synthetic division is exact over Z; a false candidate gives (f, 0)."""
    a, b = root.numerator, root.denominator
    k = 0
    while True:
        quo = [0]
        for c in f:  # quo[i + 1] = (f[i] + a quo[i]) / b, and the last is 0
            t, r = divmod(c + a * quo[-1], b)
            if r:
                return f, k
            quo.append(t)
        if quo[-1]:
            return f, k
        f, k = quo[1:-1], k + 1


# odd primes not dividing lc(s) that the first search tries before the f'
# step.  With 3, 4, 6 and 10 tries, the 500 calls of one crossval pass took
# the step 103, 26, 2 and 0 times (seed 1), and 100, 23, 1 and 0 (seed 9001)
_TRIES = 6


def _zeros_to_lift(s: list[int], tries: int) -> tuple[bool, list]:
    """(True, [(q, zeros of s mod q)]) at the first of `tries` odd primes q not
    dividing lc(s) with simple zeros only; else (False, [(q, simple zeros)] for all)."""
    ds = _derivative(s)
    simple = []
    for q in islice((q for q in count(3, 2) if s[0] % q and is_prime(q)), tries):
        zeros = np.flatnonzero(_values_mod(s, q) == 0)
        ok = _values_mod(ds, q)[zeros] != 0
        if ok.all():
            return True, [(q, zeros)]
        simple.append((q, zeros[ok]))
    return False, simple


def _rational_roots(f: list[int]) -> list[Fraction]:
    """The rational roots, with multiplicity, of a nonzero integer
    polynomial, descending (module docstring)."""
    f, k = _deflate(f, Fraction(0))
    found, s = [Fraction(0)] * k, _primitive(f)
    all_simple, plan = _zeros_to_lift(s, _TRIES)
    if not all_simple:  # strip the repeated rational roots, then search K primes
        for root in set(_rational_roots(_derivative(s))):
            s, k = _deflate(s, root)
            found += [root] * k
        plan = _zeros_to_lift(s, (len(s) - 1) * max(s[0], abs(s[-1])).bit_length()
                              + sum(map(abs, _derivative(s))).bit_length())[1]
    work = s
    for q, zeros in plan:
        for r in zeros.tolist():
            m = q
            while m <= 2 * abs(s[-1]) * s[0]:
                m *= m
                v = dv = 0
                for c in s:  # s(r) and s'(r) mod m, one Horner pass
                    v, dv = (v * r + c) % m, (dv * r + v) % m
                r = (r - v * pow(dv, -1, m)) % m
            root = _rational_reconstruct(r, m, abs(s[-1]), s[0])
            if root is not None:
                work, k = _deflate(work, root)
                found += [root] * k
    return found


def rational_linear_factors(coeffs) -> tuple[Fraction, ...]:
    """All rational roots, with multiplicity, of a polynomial given by its
    descending rational coefficients; sorted ascending.  Exhaustive by the
    divisor bound and the lift described in the module docstring."""
    coeffs = _ptrim([_frac(c) for c in coeffs])
    if not any(coeffs):
        raise ValueError("the zero polynomial vanishes identically")
    mult = lcm(*(c.denominator for c in coeffs))
    return tuple(sorted(_rational_roots([int(c * mult) for c in coeffs])))


def _specialize_mod(M: ModularPolynomial, j: PrimeFieldElement) -> list[int]:
    p = j.modulus
    if M.level % p == 0:
        raise ValueError("p = %d divides the level %d" % (p, M.level))
    return [c % p for c in _specialize(M, j.value)]


@lru_cache(maxsize=None)
def _rows_mod(M: ModularPolynomial, q: int) -> np.ndarray:
    """Phi_N's rows mod q, [k, s] the coefficient of Y^k X^s, read-only."""
    r = np.array([[c % q for c in row[::-1]] for row in M._rows[::-1]], dtype=np.int64)
    r.setflags(write=False)  # every caller shares the cached rows
    return r


def _phi_values_mod(M: ModularPolynomial, j: PrimeFieldElement) -> np.ndarray:
    """Phi_N(x, j) mod p at every x in F_p, p = j.modulus, for the p, d that
    fp_root_count sends here (p <= _TABLE_LIMIT, d + 1 <= _POWERS, p not
    dividing N): (T[:, j] @ R) @ T with T = _powers(p)[:d + 1] below p^2 and
    R = _rows_mod(M, p) below p, so below (d + 1)^2 p^5 < 81 * 2^45 < 2^52,
    and one % p reduces it."""
    p = j.modulus
    T = _powers(p)[:M.degree + 1]
    return T[:, j.value] @ _rows_mod(M, p) @ T % p


# the last (M, j) asked, j with its modulus, and its record: both public
# counts asked at one prime share one
_root_layers_cache: dict = {}


def _root_layers(M: ModularPolynomial, j: PrimeFieldElement) -> tuple[int, int]:
    """(distinct, with multiplicity) F_p-roots of Phi_N(X, j) from one X^p:
    the degree of the first root layer, and the sum of the degrees of all
    layers (module docstring)."""
    if (M, j) in _root_layers_cache:
        return _root_layers_cache[M, j]
    f = _specialize_mod(M, j)
    p = j.modulus
    g = [0, 0] + _xpow_mod(p, f, p)
    g[-2] = (g[-2] - 1) % p
    g = _pgcd(f, _ptrim(g), p)  # L_1 = gcd(X^p - X, f)
    distinct = total = len(g) - 1
    while len(g) > 1:
        f = _pdivmod(f, g, p)[0]
        g = _pgcd(g, f, p)
        total += len(g) - 1
    _root_layers_cache.clear()
    _root_layers_cache[M, j] = distinct, total
    return distinct, total


def fp_root_count(M: ModularPolynomial, j: PrimeFieldElement) -> int:
    """Number of distinct roots of Phi_N(X, j) in F_p: up to _TABLE_LIMIT,
    for d + 1 <= _POWERS and p not dividing N, with no record there already,
    the zeros among its values at every x (_phi_values_mod); otherwise the
    degree of the first layer gcd(X^p - X, f) of the record it shares with
    fp_linear_factor_count, which raises where p divides N."""
    p = j.modulus
    if (p > _TABLE_LIMIT or M.degree >= _POWERS or M.level % p == 0
            or _root_layers_cache and (M, j) in _root_layers_cache):
        return _root_layers(M, j)[0]
    return p - int(np.count_nonzero(_phi_values_mod(M, j)))


def fp_linear_factor_count(M: ModularPolynomial, j: PrimeFieldElement) -> int:
    """Number of linear factors, with multiplicity, of Phi_N(X, j) over F_p.

    Distinct roots undercount when isogenous j-invariants collide mod p
    (the specialization can even degenerate to X^(N+1) at supersingular
    primes), so the root layers of the record shared with fp_root_count
    are summed, from one X^p at every p."""
    return _root_layers(M, j)[1]


# -- factorization certificates --

@dataclass(frozen=True)
class FactorizationCertificate:
    """Claim: the product of the factor polynomials equals the target."""

    target: tuple[Fraction, ...]
    factors: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class FactorDiscriminant:
    degree: int
    disc: Fraction
    matches_shape: bool  # disc == -7 a^2 / 4^b for positive integers a, b


@dataclass(frozen=True)
class CertificateReport:
    product_matches: bool
    detail: str
    discriminants: tuple[FactorDiscriminant, ...]


def _is_power_of_4(n: int) -> bool:
    return n & (n - 1) == 0 and (n.bit_length() - 1) % 2 == 0


def _disc_shape(disc: Fraction) -> bool:
    s = disc / -7
    return s > 0 and _is_power_of_4(s.denominator) and is_rational_square(s)


def _poly_disc(f: tuple[Fraction, ...]) -> Fraction | None:
    if len(f) == 3:
        a, b, c = f
        return b * b - 4 * a * c
    if len(f) == 4:
        a, b, c, d = f
        return (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
                - 4 * a * c ** 3 - 27 * a * a * d * d)
    return None


def verify_certificate(cert: FactorizationCertificate) -> CertificateReport:
    """Multiply the factors exactly and compare against the target; report
    discriminants of the quadratic and cubic factors and whether each has
    the shape -7 a^2 / 4^b."""
    if any(not factor or factor[0] == 0 for factor in cert.factors):
        return CertificateReport(False, "factor with zero leading coefficient", ())
    prod = reduce(_pmul, cert.factors, [Fraction(1)])
    target = _ptrim(cert.target) if any(cert.target) else ()  # 0 has degree -1
    detail = ""
    if len(prod) != len(target):
        detail = "degree mismatch: product %d vs target %d" % (len(prod) - 1, len(target) - 1)
    else:
        k = next((k for k, (u, v) in enumerate(zip(prod, target)) if u != v), None)
        if k is not None:
            detail = "coefficient of X^%d differs: %s vs %s" % (len(prod) - 1 - k,
                                                               prod[k], target[k])
    discs = tuple(FactorDiscriminant(len(f) - 1, d, _disc_shape(d))
                  for f, d in zip(cert.factors, map(_poly_disc, cert.factors)) if d is not None)
    return CertificateReport(detail == "", detail, discs)


def _parse_factor_lines(lines, source: str) -> tuple[tuple[Fraction, ...], ...]:
    factors = []
    for num, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            coeffs = tuple(Fraction(t.strip()) for t in line.split(","))
        except (ValueError, ZeroDivisionError):
            raise ModPolyFormatError("%s:%d: expected comma-separated rationals, got %r"
                                     % (source, num, raw.strip())) from None
        if not coeffs or coeffs[0] == 0:
            raise ModPolyFormatError("%s:%d: factor must have a nonzero leading coefficient"
                                     % (source, num))
        factors.append(coeffs)
    if not factors:
        raise ModPolyFormatError("%s: no factors found" % source)
    return tuple(factors)


def load_factors(path) -> tuple[tuple[Fraction, ...], ...]:
    """Read one polynomial per line (descending comma-separated rational
    coefficients, '#' comments allowed)."""
    with open(path, encoding="ascii") as fh:
        return _parse_factor_lines(fh, str(path))


def shipped_certificate_factors() -> tuple[tuple[Fraction, ...], ...]:
    """The bundled factorization of Phi_7(X, 2268945/128)."""
    return load_factors(_DATA / "phi7_factors.txt")
