import random
import re
from fractions import Fraction

import numpy as np
import pytest

from locisog import modpoly
from locisog.arith import PrimeFieldElement, is_prime
from locisog.ecfp import NAIVE_LIMIT
from locisog.errors import ModPolyFormatError
from locisog.modpoly import (_TABLE_LIMIT, SHIPPED_LEVELS,
                             FactorizationCertificate, ModularPolynomial, _disc_shape,
                             _slot_bits, _specialize, _specialize_mod, _xpow_mod,
                             evaluate_at_j, fp_linear_factor_count, fp_root_count, load_factors,
                             load_modpoly, rational_linear_factors,
                             shipped_certificate_factors, shipped_modpoly,
                             verify_certificate)

J_TARGET = Fraction(2268945, 128)

# (file text, the start of ModularPolynomial's message) for files that parse
# line by line but do not describe a modular polynomial
BAD_MODPOLY_FILES = (
    ("level 1\n2 0 1\n", "level must be at least 2"),
    ("level 2\n4 0 1\n", "exponent pair \\(4, 0\\) out of range"),
    ("level 2\n3 0 1\n1 0 0\n", "coefficient at \\(1, 0\\) must be a nonzero integer"),
    ("level 2\n3 0 1\n3 1 5\n", "degree in X exceeds 2 \\+ 1 with Y present"),
)

# good odd primes below 1100 where distinct roots of the level-7 specialization
# collapse to a single point because isogenous j-invariants collide mod p
COLLISION_PRIMES = (3, 11, 13, 17, 31, 37, 41, 59, 61, 73, 79, 241, 367, 577, 601, 1039)


def _parse(text):
    from locisog.modpoly import _parse_modpoly
    return _parse_modpoly(text.splitlines(), "inline")


def test_parse_minimal_symmetric_polynomial():
    M = _parse("""# comment
level 2
3 0 1
2 2 5
1 0 -7
""")
    assert M.level == 2 and M.degree == 3
    assert M.coefficient(3, 0) == 1 == M.coefficient(0, 3)
    assert M.coefficient(2, 2) == 5
    assert M.coefficient(0, 7) == 0


def test_parse_errors_name_source_and_line():
    with pytest.raises(ModPolyFormatError, match="missing 'level N'"):
        _parse("")
    with pytest.raises(ModPolyFormatError, match="inline:1"):
        _parse("3 0 1")
    with pytest.raises(ModPolyFormatError, match="expected 'i j c'"):
        _parse("level 2\n3 0\n")
    with pytest.raises(ModPolyFormatError, match="non-integer"):
        _parse("level 2\n3 0 x\n")
    with pytest.raises(ModPolyFormatError, match="i >= j"):
        _parse("level 2\n0 3 1\n")
    with pytest.raises(ModPolyFormatError, match="duplicate term"):
        _parse("level 2\n3 0 1\n3 0 1\n")
    with pytest.raises(ModPolyFormatError):
        _parse("level 2\n3 0 2\n")  # not monic


def test_load_modpoly_roundtrip(tmp_path):
    path = tmp_path / "phi.txt"
    path.write_text("level 2\n3 0 1\n1 1 4\n")
    M = load_modpoly(path)
    assert M.coefficient(1, 1) == 4
    with pytest.raises(OSError):
        load_modpoly(tmp_path / "absent.txt")
    # what ModularPolynomial rejects, named with the file it came from
    bad = tmp_path / "bad.txt"
    for text, message in BAD_MODPOLY_FILES:
        bad.write_text(text)
        with pytest.raises(ModPolyFormatError, match="^%s: %s" % (re.escape(str(bad)), message)):
            load_modpoly(bad)


def test_shipped_levels_are_symmetric():
    assert SHIPPED_LEVELS == (2, 3, 5, 7)
    for ell in SHIPPED_LEVELS:
        M = shipped_modpoly(ell)
        assert M.level == ell and M.degree == ell + 1
        for (i, j), c in M.half_terms():
            assert M.coefficient(j, i) == c
    with pytest.raises(ValueError):
        shipped_modpoly(11)


def test_evaluate_at_j_shape():
    for ell in SHIPPED_LEVELS:
        M = shipped_modpoly(ell)
        coeffs = evaluate_at_j(M, J_TARGET)
        assert len(coeffs) == ell + 2
        assert coeffs[0] == 1
        assert all(isinstance(c, Fraction) for c in coeffs)
    # specializing at a root of Phi_2(X, j0) must vanish: j0 = 1728, X = 66^3
    M2 = shipped_modpoly(2)
    f = evaluate_at_j(M2, Fraction(1728))
    x = Fraction(66 ** 3)
    acc = Fraction(0)
    for c in f:
        acc = acc * x + c
    assert acc == 0


def _planted(rng):
    roots = []
    coeffs = [Fraction(1)]
    for _ in range(rng.randrange(1, 4)):
        num = rng.randrange(-8, 9)
        den = rng.randrange(1, 4)
        mult = rng.randrange(1, 3)
        r = Fraction(num, den)
        for _ in range(mult):
            roots.append(r)
            coeffs = [a - r * b for a, b in
                      zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
    # attach a rootless quadratic so deflation has something left over
    tail = [Fraction(1), Fraction(0), Fraction(rng.randrange(1, 5))]
    out = [Fraction(0)] * (len(coeffs) + 2)
    for i, a in enumerate(coeffs):
        for k, b in enumerate(tail):
            out[i + k] += a * b
    return out, tuple(sorted(roots))


def test_rational_linear_factors_against_planted_roots():
    rng = random.Random(73)
    for _ in range(60):
        coeffs, roots = _planted(rng)
        assert rational_linear_factors(coeffs) == roots


def _from_roots(roots):
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [Fraction(0)], [Fraction(0)] + coeffs)]
    return coeffs


def _legendre_j(lam):
    """j of y^2 = x(x - 1)(x - lam): full rational 2-torsion, so Phi_2(X, j)
    has three rational roots."""
    return 256 * (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2)


LEGENDRE_LAMBDAS = (Fraction(123457, 1000), Fraction(12345678901, 1000003))


def test_rational_linear_factors_large_roots():
    rng = random.Random(80)
    roots = tuple(sorted(Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** 79, 10 ** 80))
                         for _ in range(3)))
    assert rational_linear_factors(_from_roots(roots)) == roots
    for lam in LEGENDRE_LAMBDAS:
        found = rational_linear_factors(evaluate_at_j(shipped_modpoly(2), _legendre_j(lam)))
        assert len(found) == len(set(found)) == 3, lam


def _recording_finder(monkeypatch):
    """Patch the finder and _rational_reconstruct: one (f, moduli) entry per
    finder call, its calls on f' included, in call order."""
    calls, stack = [], []
    finder, reconstruct = modpoly._rational_roots, modpoly._rational_reconstruct

    def recording_finder(f):
        calls.append((f, []))
        stack.append(calls[-1][1])
        try:
            return finder(f)
        finally:
            stack.pop()

    def recording_reconstruct(c, m, num_bound, den_bound):
        stack[-1].append(m)
        return reconstruct(c, m, num_bound, den_bound)

    monkeypatch.setattr(modpoly, "_rational_roots", recording_finder)
    monkeypatch.setattr(modpoly, "_rational_reconstruct", recording_reconstruct)
    return calls


def _is_power_of(m, q):
    while m % q == 0:
        m //= q
    return m == 1


def test_rational_linear_factors_lifts_from_one_prime(monkeypatch):
    """One lifting prime, one lift per zero mod that prime: every
    reconstruction of a call, a call on f' counted as its own, works modulo
    the same prime power, and there are at most deg f of them, so the work is
    linear in the number of roots."""
    calls = _recording_finder(monkeypatch)
    rng = random.Random(7)
    cases = [evaluate_at_j(shipped_modpoly(7), J_TARGET)]
    cases += [evaluate_at_j(shipped_modpoly(2), _legendre_j(lam)) for lam in LEGENDRE_LAMBDAS]
    cases.append(_from_roots([Fraction(k * 10 ** 40 + 1, 3 ** k) for k in range(1, 7)]))
    cases += [_planted(rng)[0] for _ in range(20)]
    steps = []
    for coeffs in cases:
        calls.clear()
        rational_linear_factors(coeffs)
        for f, moduli in calls:
            assert len(set(moduli)) <= 1, coeffs
            assert len(moduli) <= len(f) - 1, coeffs
        steps.append(len(calls) - 1)
    assert max(steps) > 0  # the planted repeated roots take the f' step


def test_lifting_prime_needs_simple_zeros(monkeypatch):
    """(X - 1)(X - 106)(11 X^2 + 1): the roots 1 and 106 meet mod 3, 5 and 7
    (106 - 1 = 3 * 5 * 7), where the zero they share is double and Newton's
    step would divide by s'(1) = 0, and 11 divides the leading coefficient.
    So the lift runs from 13, where the zeros of s are simple."""
    calls = _recording_finder(monkeypatch)
    assert rational_linear_factors([11, -1177, 1167, -107, 106]) == (1, 106)
    [(_, moduli)] = calls
    assert moduli and all(_is_power_of(m, 13) for m in moduli)


def test_rational_linear_factors_edge_cases():
    with pytest.raises(ValueError):
        rational_linear_factors([Fraction(0)])
    assert rational_linear_factors([Fraction(1), 0, 0]) == (0, 0)
    assert rational_linear_factors([Fraction(2), -3]) == (Fraction(3, 2),)
    assert rational_linear_factors([Fraction(1), 0, 1]) == ()


def _times(*factors):
    out = [1]
    for g in factors:
        out = [sum(out[i] * g[k - i] for i in range(len(out)) if 0 <= k - i < len(g))
               for k in range(len(out) + len(g) - 1)]
    return out


def test_squarefree_fast_path_and_derivative_step(monkeypatch):
    """The finder calls itself on f' only when f has a multiple zero mod each
    of the first _TRIES = 6 odd primes q not dividing lc(f).
    (X - 1)(X - 4) meets itself mod 3 but not mod 5, (X - 1)(X - 106) mod 3,
    5 and 7 but not 11 (106 - 1 = 3 * 5 * 7), and (3X - 1)(X - 257) mod 5, 7
    and 11 but not 13 (257 = 1/3 there), so none takes the step; nor does
    (X^2 + 1)^2 (X - 3), whose one zero mod 3 is simple.  Repeated rational
    roots take it: (X - 2)^3 (X^2 + 1) twice, since the call on f' takes it
    again.  (X - 1)(X - 255256) meets itself mod 3, 5, 7, 11, 13 and 17
    (255255 = 3 * 5 * 7 * 11 * 13 * 17): the call on f' strips nothing, and
    the search that follows lifts from 19."""
    calls = _recording_finder(monkeypatch)
    assert modpoly._TRIES == 6
    cases = [([1, -5, 4], (1, 4), 0),  # (X - 1)(X - 4)
             ([1, -107, 106], (1, 106), 0),  # (X - 1)(X - 106)
             ([1, -3, 2], (1, 2), 0),  # (X - 1)(X - 2), simple zeros mod 3
             ([2, -7, 3], (Fraction(1, 2), 3), 0),  # lc 2: q = 3
             ([3, -7, 2], (Fraction(1, 3), 2), 0),  # lc 3: meets itself mod 5, not 7
             ([3, -772, 257], (Fraction(1, 3), 257), 0),  # lc 3
             ([1, -4, 5, -2], (1, 1, 2), 1),  # (X - 1)^2 (X - 2)
             ([1, -3, 2, -6, 1, -3], (3,), 0),  # (X^2 + 1)^2 (X - 3)
             (_times([1, -2], [1, -2], [1, -2], [1, 0, 1]), (2, 2, 2), 2),  # (X - 2)^3 (X^2 + 1)
             ([1, -255257, 255256], (1, 255256), 1)]  # (X - 1)(X - 255256)
    for coeffs, roots, steps in cases:
        calls.clear()
        assert rational_linear_factors(coeffs) == roots, coeffs
        assert len(calls) - 1 == steps, coeffs
    assert calls[0][1] and all(_is_power_of(m, 19) for m in calls[0][1])


def test_rational_roots_when_every_prime_has_a_multiple_zero(monkeypatch):
    """2, 3 or 6 is a square mod every odd prime, so (X^2 - 2)^2 (X^2 - 3)^2
    (X^2 - 6)^2 (X - 5) has a multiple zero mod every prime, also after the
    call on f', which strips nothing: the second search lifts the simple
    zeros at each of its primes, and finds 5 once.  With 5 repeated and a
    root -1/3 added, the call on f' strips both 5s first."""
    calls = _recording_finder(monkeypatch)
    f = _times([1, 0, -2], [1, 0, -2], [1, 0, -3], [1, 0, -3], [1, 0, -6], [1, 0, -6], [1, -5])
    assert rational_linear_factors(f) == (5,)
    assert len(set(calls[0][1])) > 1  # lifts from more than one prime
    g = [7 * c for c in _times(f, [1, -5], [3, 1])]  # and 5 repeated, and -1/3
    assert rational_linear_factors(g) == (Fraction(-1, 3), 5, 5)


def test_counterexample_specialization_has_no_rational_root():
    f = evaluate_at_j(shipped_modpoly(7), J_TARGET)
    assert rational_linear_factors(f) == ()


def _eval_mod(f, x, p):
    acc = 0
    for c in f:
        acc = (acc * x + c) % p
    return acc


def _deflate(f, r, p):
    out = []
    acc = 0
    for c in f[:-1]:
        acc = (acc * r + c) % p
        out.append(acc)
    return out


def _brute_counts(f, p):
    distinct = 0
    mult = 0
    for r in range(p):
        if _eval_mod(f, r, p) == 0:
            distinct += 1
            g = f
            while len(g) > 1 and _eval_mod(g, r, p) == 0:
                g = _deflate(g, r, p)
                mult += 1
    return distinct, mult


def _seeded_j(rng, height):
    return Fraction(rng.randrange(-height, height + 1), rng.randrange(1, height + 1))


def test_fp_counts_match_brute_force():
    # the counterexample's Phi_7 to 500, and every level at j = 0, 1728 and
    # seeded j to 300; brute force strips each root layer by deflation.  At
    # 521, 1009, 4093 and the first three primes above NAIVE_LIMIT the root
    # count, asked first with the memo empty, takes the X^p record itself
    rng = random.Random(2024)
    js = [Fraction(0), Fraction(1728)] + [_seeded_j(rng, 1000) for _ in range(4)]
    cases = [(7, J_TARGET, 500)] + [(ell, j, 300) for ell in SHIPPED_LEVELS for j in js]
    above = [521, 1009, 4093]
    above += [p for p in range(NAIVE_LIMIT + 1, 2 * NAIVE_LIMIT) if is_prime(p)][:3]
    for ell, j, bound in cases:
        M = shipped_modpoly(ell)
        coeffs = evaluate_at_j(M, j)
        for p in [p for p in range(2, bound) if is_prime(p)] + above:
            if ell % p == 0 or j.denominator % p == 0:
                continue
            jp = PrimeFieldElement(j.numerator * pow(j.denominator, -1, p), p)
            f = [(c.numerator * pow(c.denominator, -1, p)) % p for c in coeffs]
            distinct, mult = _brute_counts(f, p)
            modpoly._root_layers_cache.clear()
            assert fp_root_count(M, jp) == distinct, (ell, j, p)
            assert fp_linear_factor_count(M, jp) == mult, (ell, j, p)
            assert mult >= distinct


def _phi_at_j(M, j):
    """Phi_N(X, j) term by term from the stored half, in Fractions."""
    out = [Fraction(0)] * (M.degree + 1)
    for (i, k), c in M.half_terms():
        out[M.degree - i] += c * j ** k
        if i != k:
            out[M.degree - k] += c * j ** i
    return out


def test_specialize_mod_reduces_evaluate_at_j():
    # the F_p specialization is Phi_N(X, j) over Q reduced mod p, at primes
    # to 500 and the first three above NAIVE_LIMIT; over Q it equals the
    # term-by-term sum, also at j whose denominators have hundreds of digits
    rng = random.Random(2025)
    js = [Fraction(0), Fraction(1728), J_TARGET] + [_seeded_j(rng, 1000) for _ in range(4)]
    js += [_legendre_j(lam) for lam in LEGENDRE_LAMBDAS]
    js += [Fraction(-(3 ** 200) + 1, 2 ** 300 + 1), Fraction(1, 10 ** 120 + 7)]
    above = [p for p in range(NAIVE_LIMIT + 1, 2 * NAIVE_LIMIT) if is_prime(p)][:3]
    for ell in SHIPPED_LEVELS:
        M = shipped_modpoly(ell)
        for j in js:
            coeffs = evaluate_at_j(M, j)
            assert coeffs == _phi_at_j(M, j), (ell, j)
            for p in [p for p in range(2, 500) if is_prime(p)] + above:
                if ell % p == 0 or j.denominator % p == 0:
                    continue
                jp = PrimeFieldElement(j.numerator * pow(j.denominator, -1, p), p)
                want = [c.numerator * pow(c.denominator, -1, p) % p for c in coeffs]
                assert _specialize_mod(M, jp) == want, (ell, j, p)
    # the slot width's edges: |a| and b at and just below powers of two, and
    # b with 91 digits, over Z; and j = 0, 1, p - 1 at 64-bit primes
    edges = [0, 1, -1]
    for k in (1, 2, 8, 9, 31, 32, 64, 100, 400):
        edges += [(1 << k) - 1, -(1 << k)]
    for ell in SHIPPED_LEVELS:
        M = shipped_modpoly(ell)
        for a in edges:
            for b in [1, 10 ** 90 + 1] + [1 << k for k in (1, 9, 64, 400)]:
                want = [c * b ** M.degree for c in _phi_at_j(M, Fraction(a, b))]
                assert _specialize(M, a, b) == want, (ell, a, b)
        for p in (3, 11, (1 << 31) - 1, (1 << 61) - 1, (1 << 64) - 59):
            if ell % p:
                for v in (0, 1, p - 1):
                    want = [c.numerator % p for c in _phi_at_j(M, Fraction(v))]
                    assert _specialize_mod(M, PrimeFieldElement(v, p)) == want, (ell, p, v)
    with pytest.raises(ValueError, match="divides the level"):
        _specialize_mod(shipped_modpoly(7), PrimeFieldElement(1, 7))


def test_values_mod_matches_horner():
    # the table product and the Horner array both equal Horner's rule on
    # Python ints, at every prime below 600 (across _TABLE_LIMIT) and at the
    # primes on both sides of NAIVE_LIMIT, for lengths 1 to 11 (the table has
    # 9 rows), with negative and 220-bit coefficients, and with every residue
    # q - 1
    rng = random.Random(2026)
    below = max(p for p in range(NAIVE_LIMIT + 1) if is_prime(p))
    above = min(p for p in range(NAIVE_LIMIT + 1, 2 * NAIVE_LIMIT) if is_prime(p))
    for q in [p for p in range(2, 600) if is_prime(p)] + [below, above]:
        for n in range(1, 12):
            f = [rng.choice((-1, 1)) * rng.randrange(1 << rng.choice((3, 220)))
                 for _ in range(n)]
            for g in (f, [-1] * n):
                want = [_eval_mod(g, x, q) for x in range(q)]
                assert modpoly._values_mod(g, q).tolist() == want, (q, g)


def test_char_sum_matches_euler_criterion():
    # the character sum, by the table route up to _TABLE_LIMIT and in blocks
    # of _BLOCK points above it, equals a plain sum of Euler's criterion
    # f(x)^((q-1)/2) mod q over Python ints, for cubics and quartics with
    # negative and large coefficients, at small primes, primes on both sides
    # of _TABLE_LIMIT and primes around block edges
    rng = random.Random(34)
    for q in (3, 5, 7, 509, 521, 16381, 16411, 32771, 65537):
        assert is_prime(q)
        for n in (4, 5):
            f = [rng.choice((-1, 1)) * rng.randrange(1 << rng.choice((3, 70))) for _ in range(n)]
            f[0] = f[0] or 1
            want = 0
            for x in range(q):
                e = pow(_eval_mod(f, x, q), (q - 1) // 2, q)
                want += -1 if e == q - 1 else e
            assert modpoly._char_sum(f, q) == want, (q, f)


def test_phi_values_match_the_specialization():
    # the bilinear form over the kept tables equals the values of the
    # specialization at every prime up to _TABLE_LIMIT, at every level: every
    # j below 100, and j = 0, 1, 1728, p - 1 (the largest entries, and at 509
    # the bound's worst case) and seeded j above.  The root count is their
    # zeros there and, from the record, at the first prime above the limit;
    # it raises at every p dividing the level
    rng = random.Random(2027)
    primes = [p for p in range(2, _TABLE_LIMIT + 1) if is_prime(p)]
    primes.append(min(p for p in range(_TABLE_LIMIT + 1, 2 * _TABLE_LIMIT) if is_prime(p)))
    for N in SHIPPED_LEVELS:
        M = shipped_modpoly(N)
        for p in primes:
            if N % p == 0:
                modpoly._root_layers_cache.clear()
                with pytest.raises(ValueError, match="divides the level"):
                    fp_root_count(M, PrimeFieldElement(1, p))
                continue
            js = range(p) if p < 100 else {0, 1, 1728 % p, p - 1, *rng.sample(range(p), 6)}
            for v in js:
                jp = PrimeFieldElement(v, p)
                want = modpoly._values_mod(_specialize_mod(M, jp), p)
                if p <= _TABLE_LIMIT:
                    got = modpoly._phi_values_mod(M, jp)
                    assert got.dtype == np.int64, (N, p, v)
                    assert got.tolist() == want.tolist(), (N, p, v)
                assert fp_root_count(M, jp) == p - np.count_nonzero(want), (N, p, v)


def test_phi_values_fall_back_past_the_table():
    # a monic symmetric polynomial of level 8 and degree 9, so d + 1 > _POWERS
    # as at Phi_11 and Phi_13, is counted from the X^p record even up to
    # _TABLE_LIMIT: no table of powers or of rows is asked for, and its
    # counts still equal brute force
    rng = random.Random(2028)
    d = modpoly._POWERS
    half = {(d, 0): 1}
    for i in range(d):
        for k in range(i + 1):
            half[i, k] = rng.choice((-1, 1)) * rng.randrange(1, 1 << 40)
    M = ModularPolynomial(d - 1, half)
    assert M.degree + 1 > modpoly._POWERS
    modpoly._powers.cache_clear()
    modpoly._rows_mod.cache_clear()
    for p in (5, 7, 11, 97, 509, 521):
        for v in (0, 1, 1728 % p, p - 1, rng.randrange(p)):
            jp = PrimeFieldElement(v, p)
            modpoly._root_layers_cache.clear()
            distinct, mult = _brute_counts(_specialize_mod(M, jp), p)
            assert fp_root_count(M, jp) == distinct, (p, v)
            assert fp_linear_factor_count(M, jp) == mult, (p, v)
    for cached in (modpoly._powers, modpoly._rows_mod):
        assert cached.cache_info()[:2] == (0, 0)  # no hit and no miss
    with pytest.raises(ValueError, match="divides the level"):
        fp_root_count(M, PrimeFieldElement(1, 2))


def test_values_and_root_part_agree_at_small_p():
    # the value-table distinct count and the public count with multiplicity
    # equal the X^p root-layer pair at every j of every odd prime below 200,
    # including deg f > p (p = 3, 5 at level 7); the layer routine is called
    # with its memo emptied
    def layers(M, jp):
        modpoly._root_layers_cache.clear()
        return modpoly._root_layers(M, jp)

    for N in SHIPPED_LEVELS:
        M = shipped_modpoly(N)
        for p in [p for p in range(3, 200) if is_prime(p) and N % p]:
            for j in range(p):
                jp = PrimeFieldElement(j, p)
                pair = (fp_root_count(M, jp), fp_linear_factor_count(M, jp))
                assert pair == layers(M, jp), (p, N, j)
    # j = 0 is the only supersingular j at 3 and 5, so Phi_7(X, 0) = X^8 there:
    # one root of multiplicity 8 > p
    M = shipped_modpoly(7)
    for p in (3, 5):
        jp = PrimeFieldElement(0, p)
        assert (fp_root_count(M, jp), fp_linear_factor_count(M, jp)) == (1, 8)
        assert layers(M, jp) == (1, 8)


def test_root_count_reads_a_fresh_record(monkeypatch):
    # fp_root_count right after fp_linear_factor_count at the same (M, j)
    # reads that record: it evaluates nothing, builds no table of powers or
    # of rows, and gives the value path's answer.  With the memo emptied it
    # evaluates once up to _TABLE_LIMIT, and above it reads a new record
    calls = []
    values = modpoly._phi_values_mod

    def recording(M, j):
        calls.append(j.modulus)
        return values(M, j)

    monkeypatch.setattr(modpoly, "_phi_values_mod", recording)
    js = (0, 1, 1728, J_TARGET.numerator * pow(J_TARGET.denominator, -1, 509))
    primes = [p for p in range(3, _TABLE_LIMIT + 1) if is_prime(p)] + [521, 1009, 4093]
    for N in SHIPPED_LEVELS:
        M = shipped_modpoly(N)
        for p in [p for p in primes if N % p]:
            for v in js:
                jp = PrimeFieldElement(v % p, p)
                modpoly._powers.cache_clear()
                modpoly._rows_mod.cache_clear()
                calls.clear()
                fp_linear_factor_count(M, jp)
                got = fp_root_count(M, jp)
                misses = (modpoly._powers.cache_info().misses,
                          modpoly._rows_mod.cache_info().misses)
                assert (calls, misses) == ([], (0, 0)), (N, p, v)
                modpoly._root_layers_cache.clear()
                assert fp_root_count(M, jp) == got, (N, p, v)
                assert calls == ([p] if p <= _TABLE_LIMIT else []), (N, p, v)
                misses = (modpoly._powers.cache_info().misses,
                          modpoly._rows_mod.cache_info().misses)
                assert misses == ((p <= _TABLE_LIMIT,) * 2), (N, p, v)


def _first_primes_above_naive_limit(k):
    return [p for p in range(NAIVE_LIMIT + 1, 2 * NAIVE_LIMIT) if is_prime(p)][:k]


def test_one_power_per_prime(monkeypatch):
    # both counts at one prime share one X^p, in either order: above
    # _TABLE_LIMIT, and at or below it, where fp_root_count asked first counts
    # by values
    calls = []
    xpow = modpoly._xpow_mod

    def counting(e, f, q):
        calls.append(q)
        return xpow(e, f, q)

    monkeypatch.setattr(modpoly, "_xpow_mod", counting)
    M = shipped_modpoly(7)
    for p in [11, 499, 509, 521, 1009] + _first_primes_above_naive_limit(3):
        jp = PrimeFieldElement(J_TARGET.numerator * pow(J_TARGET.denominator, -1, p), p)
        for first, second in ((fp_linear_factor_count, fp_root_count),
                              (fp_root_count, fp_linear_factor_count)):
            modpoly._root_layers_cache.clear()
            calls.clear()
            first(M, jp)
            second(M, jp)
            assert calls == [p], (p, first.__name__)


def test_root_layer_memo_key():
    # interleaved levels, j values and primes each get their own record: a
    # memo keyed on j.value alone, or without the level, answers wrongly;
    # at or below _TABLE_LIMIT, fp_root_count reads only its own (M, j)'s
    # record
    p, p2 = _first_primes_above_naive_limit(2)
    Ms = {N: shipped_modpoly(N) for N in (2, 7)}
    js = [PrimeFieldElement(J_TARGET.numerator * pow(J_TARGET.denominator, -1, p), p),
          PrimeFieldElement(1728, p)]
    plan = [(N, j) for j in js for N in (7, 2)] + [(7, js[0]), (2, js[1]), (2, js[0])]
    plan += [(7, js[0]), (7, PrimeFieldElement(js[0].value, p2)),
             (2, PrimeFieldElement(js[1].value, p2)), (2, js[1])]
    small = [PrimeFieldElement(j.value % 509, 509) for j in js]
    plan += [(N, j) for j in small for N in (7, 2)] + [(2, small[0]), (7, small[1])]
    counts = set()
    for N, j in plan:
        want = _brute_counts(_specialize_mod(Ms[N], j), j.modulus)
        counts.add(want)
        assert fp_root_count(Ms[N], j) == want[0], (N, j)
        assert fp_linear_factor_count(Ms[N], j) == want[1], (N, j)
        assert (fp_linear_factor_count(Ms[N], j), fp_root_count(Ms[N], j)) == want[::-1]
    assert len(counts) > 1


def _reference_xpow(e, f, q):
    """X^e mod f over F_q by schoolbook square-and-multiply."""
    def mulmod(u, v):
        w = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for k, y in enumerate(v):
                w[i + k] = (w[i + k] + x * y) % q
        while len(w) >= len(f):
            c = w[0] * pow(f[0], -1, q) % q
            w = [(x - c * y) % q for x, y in zip(w[1:], f[1:] + [0] * len(w))]
        return w

    result, base = [1], [1, 0]
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    while len(result) > 1 and result[0] == 0:
        result = result[1:]
    return result or [0]


# 2^62 - 57 is the largest 62-bit prime; the kernel must hold at any modulus
KERNEL_MODULI = (3, 5, 499, (1 << 61) - 1, (1 << 62) - 57)


# the kernel's contract: e >= 1 and f monic of degree d >= 2; d runs up to 14,
# the degree of Phi_13(X, j)
KERNEL_DEGREES = range(2, 15)


@pytest.mark.parametrize("q", KERNEL_MODULI)
def test_xpow_mod_matches_schoolbook(q):
    assert is_prime(q)
    rng = random.Random(q)
    for d in KERNEL_DEGREES:
        for _ in range(3):
            f = [1] + [rng.randrange(q) for _ in range(d)]
            for e in (1, 2, q, (q - 1) // 2, rng.randrange(3, 1 << 20)):
                assert _xpow_mod(e, f, q) == _reference_xpow(e, f, q), (q, f, e)


@pytest.mark.parametrize("q", KERNEL_MODULI)
def test_xpow_mod_slot_worst_case(q):
    # f = X^d + ... + 1: X^d mod f is -(X^(d-1) + ... + 1), so the residue
    # X^d has every coefficient q - 1, as has the row X^d mod f; slots stay
    # below 6 d q^2 before each Barrett step, and a slot times 2^B // q fits
    for d in KERNEL_DEGREES:
        B, S = _slot_bits(q, d)
        assert 1 << B > 6 * d * q * q
        assert S >= 2 * B - q.bit_length() + 1
        f = [1] * (d + 1)
        assert _xpow_mod(d, f, q) == [q - 1] * d
        for e in (2 * d, 2 * d + 1, 4 * d, q, (q - 1) // 2):
            assert _xpow_mod(e, f, q) == _reference_xpow(e, f, q), (q, d, e)


def _euclid_rem(a, b, p):
    """Remainder of a by b over F_p, schoolbook, descending; [] is zero."""
    inv = pow(b[0], -1, p)
    quo = []
    while len(a) >= len(b):
        c = a[0] * inv % p
        quo.append(c)
        a = [(x - c * y) % p for x, y in zip(a[1:], b[1:] + [0] * len(a))]
    while a and a[0] == 0:
        a = a[1:]
    return quo, a


def _euclid_gcd(a, b, p):
    while b:
        a, b = b, _euclid_rem(a, b, p)[1]
    return a


def _euclid_counts(f, p):
    """(distinct, with multiplicity) F_p-roots of f: the degree of
    L = gcd(X^p - X, f), then of each gcd(L, f / L ...) peeled off."""
    xp = _reference_xpow(p, f, p)
    xp = [0] * (2 - len(xp)) + xp
    xp[-2] = (xp[-2] - 1) % p
    layer = _euclid_gcd(f, _euclid_rem(xp, f, p)[1], p)
    distinct = total = len(layer) - 1
    while len(layer) > 1:
        f = _euclid_rem(f, layer, p)[0]
        layer = _euclid_gcd(layer, f, p)
        total += len(layer) - 1
    return distinct, total


def test_counterexample_kernel_and_counts_above_naive_limit():
    # Phi_7(X, 2268945/128) at the first 300 good primes above NAIVE_LIMIT:
    # the packed kernel equals schoolbook square-and-multiply, and both
    # public counts equal a schoolbook Euclid's root layers
    M = shipped_modpoly(7)
    primes = [p for p in range(NAIVE_LIMIT + 1, 4 * NAIVE_LIMIT) if is_prime(p)][:300]
    assert len(primes) == 300
    for p in primes:
        jp = PrimeFieldElement(J_TARGET.numerator * pow(J_TARGET.denominator, -1, p), p)
        f = _specialize_mod(M, jp)
        assert _xpow_mod(p, f, p) == _reference_xpow(p, f, p), p
        want = _euclid_counts(f, p)
        assert (fp_root_count(M, jp), fp_linear_factor_count(M, jp)) == want, p


def test_collision_primes_are_pinned():
    M = shipped_modpoly(7)
    for p in range(3, 1100):
        if not is_prime(p) or p in (5, 7):
            continue
        jp = PrimeFieldElement(2268945 * pow(128, -1, p), p)
        distinct = fp_root_count(M, jp)
        assert fp_linear_factor_count(M, jp) >= 2
        if p in COLLISION_PRIMES:
            assert distinct == 1
        else:
            assert distinct >= 2


def test_certificate_verifies_and_has_the_right_discriminants():
    target = tuple(evaluate_at_j(shipped_modpoly(7), J_TARGET))
    factors = shipped_certificate_factors()
    rep = verify_certificate(FactorizationCertificate(target, factors))
    assert rep.product_matches and rep.detail == ""
    assert sorted(d.degree for d in rep.discriminants) == [2, 3, 3]
    assert all(d.matches_shape for d in rep.discriminants)
    assert all(d.disc < 0 for d in rep.discriminants)


def test_certificate_catches_perturbations():
    target = tuple(evaluate_at_j(shipped_modpoly(7), J_TARGET))
    factors = list(shipped_certificate_factors())
    bad = list(factors[0])
    bad[-1] += 1
    factors[0] = tuple(bad)
    rep = verify_certificate(FactorizationCertificate(target, tuple(factors)))
    assert not rep.product_matches
    assert rep.detail
    good = shipped_certificate_factors()
    rep = verify_certificate(FactorizationCertificate(target, ((Fraction(0), Fraction(1)),) + good))
    assert not rep.product_matches and rep.discriminants == ()
    assert rep.detail == "factor with zero leading coefficient"
    rep = verify_certificate(FactorizationCertificate(target, good[1:]))
    assert not rep.product_matches
    assert rep.detail == "degree mismatch: product %d vs target 8" % (8 - (len(good[0]) - 1))
    # leading zeros of the target are not part of its degree
    rep = verify_certificate(FactorizationCertificate((Fraction(0), Fraction(0)) + target, good))
    assert rep.product_matches and rep.detail == ""


def test_disc_shape():
    assert _disc_shape(Fraction(-7))
    assert _disc_shape(Fraction(-28))
    assert _disc_shape(Fraction(-63))
    assert _disc_shape(Fraction(-7, 4))
    assert not _disc_shape(Fraction(7))
    assert not _disc_shape(Fraction(-14))
    assert not _disc_shape(Fraction(-7, 8))
    assert not _disc_shape(Fraction(0))


def test_load_factors_errors(tmp_path):
    path = tmp_path / "factors.txt"
    path.write_text("1, 2, junk\n")
    with pytest.raises(ModPolyFormatError, match="factors.txt:1"):
        load_factors(path)
    path.write_text("0, 2, 3\n")
    with pytest.raises(ModPolyFormatError, match="leading"):
        load_factors(path)
    path.write_text("# nothing\n")
    with pytest.raises(ModPolyFormatError, match="no factors"):
        load_factors(path)
    path.write_text("1, -3\n2, 1\n")
    assert load_factors(path) == ((1, -3), (2, 1))


# j-invariants on X_0(N): E(j) has a rational N-isogeny, so Phi_N(X, j) has a
# rational root (Fricke's parametrizations of the genus-0 curves X_0(N))
X0_PARAMETRIZATIONS = {
    2: lambda h: (h + 16) ** 3 / h,
    3: lambda h: (h + 27) * (h + 3) ** 3 / h,
    5: lambda h: (h * h + 10 * h + 5) ** 3 / h,
    7: lambda h: (h * h + 13 * h + 49) * (h * h + 5 * h + 1) ** 3 / h,
}


def _sympy_rational_roots(sympy, coeffs):
    X = sympy.Symbol("X")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], X,
                      domain="QQ")
    roots = []
    for g, mult in poly.factor_list()[1]:
        if g.degree() == 1:
            c1, c0 = g.all_coeffs()
            r = -sympy.Rational(c0) / sympy.Rational(c1)
            roots += [Fraction(int(r.p), int(r.q))] * mult
    return tuple(sorted(roots))


@pytest.mark.parametrize("ell", SHIPPED_LEVELS)
def test_rational_linear_factors_against_sympy(ell):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(100 + ell)
    hs = set()
    while len(hs) < 8:
        h = _seeded_j(rng, 6)
        if h != 0:
            hs.add(h)
    on_x0 = [X0_PARAMETRIZATIONS[ell](h) for h in sorted(hs)]
    js = [Fraction(0), Fraction(1728)] + [_seeded_j(rng, 1000) for _ in range(15)] + on_x0
    js += [_legendre_j(lam) for lam in LEGENDRE_LAMBDAS]
    M = shipped_modpoly(ell)
    for j in js:
        coeffs = evaluate_at_j(M, j)
        found = rational_linear_factors(coeffs)
        assert found == _sympy_rational_roots(sympy, coeffs), (ell, j)
        assert found or j not in on_x0, (ell, j)
