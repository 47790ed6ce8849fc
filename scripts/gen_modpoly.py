"""Regenerate the classical modular polynomial data files under src/locisog/data/.

For prime N the polynomial Phi_N(X, Y) is the minimal relation between j(tau)
and j(N*tau).  It is reconstructed here from the integer q-expansion of j:
the N "small" conjugates j((tau+k)/N) enter only through their power sums,
which root-of-unity filtering turns into honest integer q-series (every N-th
coefficient of j^m, scaled by N), so no cyclotomic arithmetic is needed.
Newton's identities give the elementary symmetric functions of the small
conjugates, the big conjugate j(N*tau) is appended by one more linear factor,
and each X-coefficient, a level-one modular function with a pole only at the
cusp, is reduced to an integer polynomial in j by peeling off powers of the
j-series.

The pipeline never assumes the answer is symmetric, so the following checks
are meaningful and all fatal on failure:

  * each X-coefficient reduces with an identically vanishing residual series
  * the coefficient matrix c(i, k) comes out symmetric
  * Kronecker congruence: Phi_N(X, Y) == (X^N - Y)(X - Y^N) mod N
  * Phi_2 matches the classical published table exactly
  * CM evaluations: Phi_N(j1, j2) = 0 at complex-multiplication pairs where
    an N-isogeny is forced, != 0 where N is inert
  * numeric: Phi_N(j(N*tau), j(tau)) ~ 0 at 220-digit precision for generic tau

The numeric check needs mpmath, which the package's `test` extra declares
(pip install -e .[test]).

Run from the repository root:  python scripts/gen_modpoly.py
"""

from fractions import Fraction
import os

import mpmath

LEVELS = (2, 3, 5, 7)

OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "locisog", "data")

# Classical table for Phi_2, e.g. Cox, "Primes of the form x^2 + ny^2", eq. (11.22).
PHI2_KNOWN = {
    (3, 0): 1,
    (2, 2): -1,
    (2, 1): 1488,
    (2, 0): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000,
    (0, 0): -157464000000000,
}

# (level, j1, j2, expect_zero): CM discriminants with h = 1; an N-isogeny
# exists iff N is split or ramified in the order, i.e. iff disc is a square
# mod 4N (for odd N, a square mod N, 0 included).
CM_CHECKS = [
    (2, 1728, 287496, True),    # j(i), j(2i), disc -4: 2 ramifies
    (2, 1728, 1728, True),      # disc -4: 2 = -i(1+i)^2, so 1+i is a 2-isogeny of j(i) to itself
    (2, -3375, -3375, True),    # disc -7: 2 = norm((1+sqrt(-7))/2) splits
    (2, 8000, 8000, True),      # disc -8: 2 ramifies
    (2, 0, 0, False),           # disc -3: -3 = 5 mod 8, not a square: 2 inert
    (3, 8000, 8000, True),      # disc -8: -8 = 1 mod 3, square: 3 splits
    (3, -32768, -32768, True),  # disc -11: -11 = 1 mod 3: splits
    (3, 1728, 1728, False),     # disc -4: -4 = 2 mod 3: inert
    (5, 1728, 1728, True),      # disc -4: -4 = 1 mod 5: splits
    (5, -32768, -32768, True),  # disc -11: -11 = 4 mod 5: splits
    (5, -884736, -884736, True),  # disc -19: -19 = 1 mod 5: splits
    (5, 0, 0, False),           # disc -3: -3 = 2 mod 5: inert
    (7, 0, 0, True),            # disc -3: -3 = 4 mod 7: splits
    (7, -884736, -884736, True),  # disc -19: -19 = 2 = 3^2 mod 7: splits
    (7, 1728, 1728, False),     # disc -4: -4 = 3 mod 7: inert
]


def check(ok, message):
    """Fail the run unless ok; a plain assert would vanish under python -O."""
    if not ok:
        raise RuntimeError(message)


# ---------------------------------------------------------------------------
# Laurent series as {exponent: coefficient} dicts, truncated above `hi`.

def ser_trim(s, hi):
    return {e: c for e, c in s.items() if c and e <= hi}


def ser_add(s, t):
    out = dict(s)
    for e, c in t.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ser_scale(s, a):
    return {e: a * c for e, c in s.items() if a * c}


def ser_mul(s, t, hi):
    out = {}
    for e1, c1 in s.items():
        for e2, c2 in t.items():
            e = e1 + e2
            if e <= hi:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def j_series(prec):
    """Coefficients of j(q) = 1/q + 744 + 196884 q + ... through q^prec."""
    # eta-product: prod (1 - q^n) via Euler's pentagonal number theorem
    euler = [0] * (prec + 2)
    euler[0] = 1
    k = 1
    while True:
        for m in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if m <= prec + 1:
                euler[m] += -1 if k % 2 else 1
        if k * (3 * k - 1) // 2 > prec + 1:
            break
        k += 1

    def poly_mul(a, b):
        out = [0] * (prec + 2)
        for i, ai in enumerate(a):
            if ai:
                for jx, bj in enumerate(b):
                    if i + jx <= prec + 1 and bj:
                        out[i + jx] += ai * bj
        return out

    # (prod (1-q^n))^24, computed by squaring
    e2 = list(euler)
    for _ in range(3):          # euler^2, ^4, ^8
        e2 = poly_mul(e2, e2)
    e16 = poly_mul(e2, e2)      # ^16
    disc = poly_mul(e16, e2)    # ^24

    sigma3 = [0] * (prec + 2)
    for d in range(1, prec + 2):
        for m in range(d, prec + 2, d):
            sigma3[m] += d ** 3
    e4 = [1] + [240 * sigma3[n] for n in range(1, prec + 2)]
    num = poly_mul(poly_mul(e4, e4), e4)

    # invert disc (constant term 1)
    inv = [0] * (prec + 2)
    inv[0] = 1
    for n in range(1, prec + 2):
        acc = 0
        for k2 in range(1, n + 1):
            if disc[k2]:
                acc += disc[k2] * inv[n - k2]
        inv[n] = -acc
    h = poly_mul(num, inv)

    return {n - 1: h[n] for n in range(prec + 2) if h[n]}  # shift by q^-1


def compute_phi(N):
    hi_e = N + 4                    # precision carried through Newton's identities
    prec_j = N * hi_e + N + 2
    top = prec_j + N + 2
    j = j_series(top)

    # powers j^m for m = 1..N+1: j starts at q^-1, so j^m is exact only
    # through q^(top + 1 - m), and the power sums read j^N up to q^(N*hi_e)
    jpow = [None, dict(j)]
    for m in range(2, N + 2):
        jpow.append(ser_mul(jpow[-1], j, top + 1 - m))

    # power sums of the N small conjugates: p_m = N * sum_{N|n} c^(m)_n q^(n/N)
    psums = [None]
    for m in range(1, N + 1):
        pm = {}
        for e, c in jpow[m].items():
            if e % N == 0 and e // N <= hi_e:
                pm[e // N] = N * c
        psums.append(pm)

    # Newton's identities for the elementary symmetric functions e_0..e_N
    esym = [{0: Fraction(1)}]
    for m in range(1, N + 1):
        acc = {}
        for k in range(1, m + 1):
            term = ser_mul(esym[m - k], psums[k], hi_e)
            acc = ser_add(acc, ser_scale(term, Fraction((-1) ** (k - 1), m)))
        esym.append(ser_trim(acc, hi_e))
    for s in esym:
        for e, c in s.items():
            check(Fraction(c).denominator == 1, "Newton identities left a denominator")
    esym = [{e: int(c) for e, c in s.items()} for s in esym]

    # big conjugate j(q^N), then X-coefficients of (X - jbig) * prod(X - small_k)
    hi_chk = 2
    jbig = {N * e: c for e, c in j.items() if N * e <= hi_e}
    coef_series = []
    for t in range(N + 2):
        s = {}
        if t <= N:
            s = dict(esym[t])
        if t >= 1:
            s = ser_add(s, ser_mul(jbig, esym[t - 1], hi_chk))
        if t % 2:
            s = ser_scale(s, -1)
        coef_series.append(ser_trim(s, hi_chk))

    # reduce each coefficient series to a polynomial in j
    coeffs = {}
    for t, s in enumerate(coef_series):
        i = N + 1 - t
        s = dict(s)
        for d in range(N + 1, -1, -1):
            a = s.get(-d, 0)
            if a:
                coeffs[(i, d)] = a
                base = {0: a} if d == 0 else ser_scale(jpow[d], a)
                s = ser_add(s, ser_scale(ser_trim(base, hi_chk), -1))
        check(not any(s.values()), f"nonzero residual for X^{i}: {s}")

    # checks ------------------------------------------------------------
    for (i, d), c in coeffs.items():
        check(coeffs.get((d, i)) == c, f"asymmetric at {(i, d)}")
    check(coeffs[(N + 1, 0)] == 1, "not monic")
    check(max(i for i, _ in coeffs) == N + 1, "wrong degree in X")

    # Kronecker congruence
    kron = {(N + 1, 0): 1, (N, N): -1, (1, 1): -1, (0, N + 1): 1}
    seen = set()
    for (i, d), c in coeffs.items():
        check(c % N == kron.get((i, d), 0) % N, f"Kronecker fails at {(i, d)}")
        seen.add((i, d))
    for key, c in kron.items():
        check(key in seen or c % N == 0, f"Kronecker term {key} missing")

    if N == 2:
        half = {k: v for k, v in coeffs.items() if k[0] >= k[1]}
        check(half == PHI2_KNOWN, "Phi_2 disagrees with the published table")

    def phi_eval(x, y):
        return sum(c * x ** i * y ** d for (i, d), c in coeffs.items())

    for (lev, j1, j2, expect) in CM_CHECKS:
        if lev != N:
            continue
        v = phi_eval(j1, j2)
        check((v == 0) == expect, f"CM check ({lev}, {j1}, {j2}) -> {v}")

    # numeric: Phi_N(j(N*tau), j(tau)) ~ 0 for generic tau
    with mpmath.workdps(220):  # leaves the caller's mpmath precision alone
        jc = sorted(j_series(150).items())
        for tau in (mpmath.mpc(0.31, 1.27), mpmath.mpc(-0.123, 1.618)):
            qq = mpmath.exp(2j * mpmath.pi * tau)
            jt = sum(c * qq ** e for e, c in jc)
            qN = mpmath.exp(2j * mpmath.pi * (N * tau))
            jNt = sum(c * qN ** e for e, c in jc)
            val = sum(c * jNt ** i * jt ** d for (i, d), c in coeffs.items())
            scale = max(abs(c) * abs(jNt) ** i * abs(jt) ** d for (i, d), c in coeffs.items())
            check(abs(val) / scale < mpmath.mpf(10) ** -60,
                  f"numeric check N={N}: {abs(val) / scale}")

    return {k: v for k, v in coeffs.items() if k[0] >= k[1]}


def write_file(N, half):
    lines = [
        "# Classical modular polynomial Phi_%d(X, Y), symmetric half." % N,
        "# A line \"i j c\" contributes c*(X^i*Y^j + X^j*Y^i) when i > j",
        "# and c*X^i*Y^i when i = j.  Regenerate with scripts/gen_modpoly.py.",
        "level %d" % N,
    ]
    for (i, d) in sorted(half, reverse=True):
        lines.append("%d %d %d" % (i, d, half[(i, d)]))
    path = os.path.join(OUT_DIR, "phi%d.txt" % N)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %s (%d terms)" % (path, len(half)))


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for N in LEVELS:
        half = compute_phi(N)
        write_file(N, half)
    print("all checks passed")


if __name__ == "__main__":
    main()
