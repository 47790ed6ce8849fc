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
  * exact: Phi_N(j(N*tau), j(tau)) vanishes through q^K, which proves it is 0
    (see check_relation), from a j-series whose head matches the published one

Run from the repository root:  python scripts/gen_modpoly.py
"""

from fractions import Fraction
import os

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

# j = 1/q + 744 + 196884 q + ..., e.g. OEIS A000521; a wrong E4 or Delta fails here.
J_HEAD = {-1: 1, 0: 744, 1: 196884, 2: 21493760, 3: 864299970, 4: 20245856256}

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
    """Coefficients of j(q) = 1/q + 744 + 196884 q + ... through q^prec, as
    E4^3 / Delta with Delta = q prod (1 - q^n)^24."""
    hi = prec + 1
    # prod (1 - q^n) = sum over k in Z of (-1)^k q^(k (3k - 1) / 2) (Euler)
    eta = {k * (3 * k - 1) // 2: -1 if k % 2 else 1 for k in range(-hi, hi + 1)
           if k * (3 * k - 1) // 2 <= hi}
    for _ in range(3):
        eta = ser_mul(eta, eta, hi)                 # ^2, ^4, ^8
    eta = ser_mul(ser_mul(eta, eta, hi), eta, hi)   # ^24 = Delta / q
    e4 = {0: 1}
    for d in range(1, hi + 1):
        for m in range(d, hi + 1, d):
            e4[m] = e4.get(m, 0) + 240 * d ** 3
    inv = [1]                                       # q / Delta
    for n in range(1, hi + 1):
        inv.append(-sum(c * inv[n - e] for e, c in eta.items() if 0 < e <= n))
    h = ser_mul(ser_mul(ser_mul(e4, e4, hi), e4, hi), dict(enumerate(inv)), hi)
    j = {e - 1: c for e, c in h.items()}            # shift by q^-1
    check(all(j[e] == c for e, c in J_HEAD.items() if e <= prec),
          "j-series disagrees with its published head")
    return j


def j_powers(N):
    """[1, j, j^2, ..., j^(N+1)] as series.  j starts at q^-1, so j^m is exact
    only through q^(top + 1 - m).  top = 2 (N+1)^2 - 1 covers the Newton
    identities in compute_phi, which read j^N up to q^(N (N+4)), and
    check_relation for any candidate with exponents up to N + 1."""
    top = 2 * (N + 1) ** 2 - 1
    j = j_series(top)
    jpow = [{0: 1}, j]
    for m in range(2, N + 2):
        jpow.append(ser_mul(jpow[-1], j, top + 1 - m))
    return jpow


def check_relation(N, coeffs, jpow):
    """Fail unless F(tau) = sum c(i, d) j(N tau)^i j(tau)^d is identically 0,
    for the candidate coeffs {(i, d): c} and jpow = j_powers(N).

    This is a proof, not a tolerance.  F is a modular function for Gamma0(N)
    and is holomorphic on H, so its poles lie at the cusps, infinity and 0 for
    prime N.  In the width-N parameter at 0, j(N tau) has a simple pole and
    j(tau) one of order N, so F has a pole of order at most K = max(i + N d)
    there.  If F's q-expansion at infinity vanishes through q^K, a nonzero F
    would have more zeros than poles on the compact curve X0(N); so F = 0.
    A candidate monic of degree N + 1 in X that kills j(N tau) is then
    Phi_N, the minimal polynomial of j(N tau) over C(j(tau)).
    """
    terms = {k: c for k, c in coeffs.items() if c}
    K = max(i + N * d for i, d in terms)
    pole = max(N * i + d for i, d in terms)     # F's pole order at infinity
    check(max(jpow[1]) >= K + pole - 1, "j-series too short for the relation check")
    F = {}
    for i in {i for i, _ in terms}:
        row = {}
        for (i2, d), c in terms.items():
            if i2 == i:
                row = ser_add(row, ser_scale(jpow[d], c))
        big = {N * e: c for e, c in jpow[i].items() if N * e <= K + pole}  # j(N tau)^i
        F = ser_add(F, ser_mul(big, ser_trim(row, K + N * i), K))
    check(not F, f"Phi_{N}(j({N} tau), j(tau)) does not vanish through q^{K}")


def compute_phi(N):
    hi_e = N + 4                    # precision carried through Newton's identities
    jpow = j_powers(N)
    j = jpow[1]

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
                s = ser_add(s, ser_scale(ser_trim(jpow[d], hi_chk), -a))
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

    check_relation(N, coeffs, jpow)
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
