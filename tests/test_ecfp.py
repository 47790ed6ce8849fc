import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from locisog import arith, ecfp, modpoly
from locisog.arith import PrimeFieldElement, is_prime, primes_up_to
from locisog.ecfp import (NAIVE_LIMIT, LocalData, ScanReport, count_points,
                          local_isogeny_admitted, local_scan, reduce_and_count)
from locisog.ecq import COUNTEREXAMPLE_CURVE, WeierstrassCurve
from locisog.errors import DenominatorError, VerificationError
from locisog.modpoly import _TABLE_LIMIT, SHIPPED_LEVELS, fp_root_count, shipped_modpoly


def _dumb_count(E, p):
    """Walk every (x, y) pair against the full Weierstrass equation, with
    each a_i reduced as numerator * denominator^-1 mod p."""
    a1, a2, a3, a4, a6 = (a.numerator * pow(a.denominator, -1, p) % p
                          for a in E.coefficients())
    total = 1
    for x in range(p):
        rhs = ((x + a2) * x + a4) * x + a6
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                total += 1
    return total


def _random_integral_curve(rng, span=20):
    while True:
        try:
            return WeierstrassCurve(*(rng.randrange(-span, span + 1) for _ in range(5)))
        except ValueError:
            continue


def test_naive_count_against_pair_walk():
    rng = random.Random(53)
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for _ in range(6):
            E = _random_integral_curve(rng)
            if int(E.discriminant()) % p == 0:
                continue
            assert count_points(E, p, method="naive") == _dumb_count(E, p)


def test_counts_of_rational_curves_against_pair_walk():
    # the counter reduces the stored rational invariants, not the a_i; at a
    # prime dividing no denominator the two must agree, and the reduction is
    # bad exactly when p divides the numerator of the discriminant
    rng = random.Random(73)
    curves = [WeierstrassCurve("1/2", "-1/3", "1/4", 1, "1/9"),
              WeierstrassCurve(0, 0, 0, "-2/7", "5/11")]
    while len(curves) < 8:
        coeffs = [Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 7])) for _ in range(5)]
        try:
            curves.append(WeierstrassCurve(*coeffs))
        except ValueError:
            continue
    assert sum(E.discriminant().denominator > 1 for E in curves) >= 4
    bad = 0
    for E in curves:
        dens = [a.denominator for a in E.coefficients()]
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            if any(d % p == 0 for d in dens):
                continue
            good = E.discriminant().numerator % p != 0
            data = reduce_and_count(E, p)
            assert data.good == good, (E, p)
            if not good:
                bad += 1
                with pytest.raises(ValueError, match="bad reduction"):
                    count_points(E, p)
                continue
            want = _dumb_count(E, p)
            assert data.count == count_points(E, p, method="naive") == want, (E, p)
            for seed in range(3 if p >= 5 else 0):
                assert count_points(E, p, method="bsgs", seed=seed) == want, (E, p, seed)
    assert bad > 0


def test_each_count_reduces_once(monkeypatch):
    calls = []
    reduce = ecfp._reduce

    def counting(E, p):
        calls.append(p)
        return reduce(E, p)

    monkeypatch.setattr(ecfp, "_reduce", counting)
    for p in (11, 13, 4099, 65537):
        calls.clear()
        reduce_and_count(COUNTEREXAMPLE_CURVE, p)
        assert calls == [p]
        calls.clear()
        count_points(COUNTEREXAMPLE_CURVE, p, method="bsgs")
        assert calls == [p]
    calls.clear()
    assert not reduce_and_count(COUNTEREXAMPLE_CURVE, 5).good
    assert calls == [5]


def test_one_reduction_per_curve_across_calls(monkeypatch):
    # single-prime calls about one curve build its reduction map once, and a
    # different curve, even an equal one, gets its own
    made = []
    reduction = ecfp._reduction

    def counting(E):
        made.append(E)
        return reduction(E)

    monkeypatch.setattr(ecfp, "_reduction", counting)
    ecfp._reduction_cache.clear()
    E, F = COUNTEREXAMPLE_CURVE, WeierstrassCurve(0, 0, 1, -7, 6)
    twin = WeierstrassCurve(*E.coefficients())
    for p in (11, 13, 17, 4099):
        reduce_and_count(E, p)
        count_points(E, p)
    assert made == [E]
    for G in (F, E, twin, F):
        for p in (11, 13):
            assert reduce_and_count(G, p).count == count_points(G, p) == _dumb_count(G, p)
    assert [id(G) for G in made] == [id(G) for G in (E, F, E, twin, F)]


def test_power_tables_stay_at_or_below_table_limit():
    # naive point counts (reduce_and_count counts naively up to NAIVE_LIMIT),
    # the value kernel _values_mod on a cubic (which naive counts call only
    # up to _TABLE_LIMIT) and Phi_N root counts at every prime up to
    # NAIVE_LIMIT keep at most one table of powers per prime up to
    # _TABLE_LIMIT (97 in all) and one table of Phi_N's rows mod p per level
    # and such prime, and none above it: asking for all of them afterwards
    # leaves exactly 97, and 97 per level
    small = [p for p in range(2, _TABLE_LIMIT + 1) if is_prime(p)]
    assert len(small) == 97
    Ms = [shipped_modpoly(N) for N in SHIPPED_LEVELS]
    modpoly._powers.cache_clear()
    modpoly._rows_mod.cache_clear()
    modpoly._root_layers_cache.clear()
    for p in range(3, NAIVE_LIMIT + 1):
        if is_prime(p) and p != 7:
            reduce_and_count(COUNTEREXAMPLE_CURVE, p)
            modpoly._values_mod([4, 1, 2, 3], p)
            for M in Ms:
                if M.level % p:
                    fp_root_count(M, PrimeFieldElement(2268945 * pow(128, -1, p), p))
    assert 0 < modpoly._powers.cache_info().currsize <= 97
    assert 0 < modpoly._rows_mod.cache_info().currsize <= 97 * len(Ms)
    for q in small:
        modpoly._powers(q)
        for M in Ms:
            modpoly._rows_mod(M, q)
    assert modpoly._powers.cache_info().currsize == 97
    assert modpoly._rows_mod.cache_info().currsize == 97 * len(Ms)


def test_bsgs_matches_naive():
    # every prime 5 <= p <= 1500 with three seeds, and a few above NAIVE_LIMIT;
    # j = 0 and j = 1728 have non-cyclic groups at many primes, which send
    # BSGS to the twist tiebreak and, at small p, to the naive fallback
    rng = random.Random(59)
    curves = [WeierstrassCurve(0, 0, 0, 0, 1), WeierstrassCurve(0, 0, 0, 1, 0),
              COUNTEREXAMPLE_CURVE] + [_random_integral_curve(rng) for _ in range(2)]
    for p in [p for p in primes_up_to(1500) if p >= 5] + [4099, 8191, 65537]:
        for E in curves:
            if int(E.discriminant()) % p == 0:
                continue
            n_naive = count_points(E, p, method="naive")
            for seed in range(3):
                assert count_points(E, p, method="bsgs", seed=seed) == n_naive, (E, p, seed)


def test_naive_count_in_blocks_matches_one_array():
    """Above _TABLE_LIMIT the character sum runs in blocks of modpoly._BLOCK
    values of x against an int8 table: at primes around block edges it
    equals the sum over one array of all squares and all cubic values."""
    rng = random.Random(61)
    for p in (521, 16381, 16411, 32771, 65537, 99991):
        assert p > _TABLE_LIMIT and is_prime(p)
        inv = (rng.randrange(p), rng.randrange(p), rng.randrange(p), 0, 0)
        chi = np.full(p, -1)
        chi[np.arange(p) ** 2 % p] = 1
        chi[0] = 0
        values = modpoly._values_mod([4, inv[0], 2 * inv[1], inv[2]], p)
        assert ecfp._naive_count(inv, p) == p + 1 + int(chi[values].sum()), p


def test_naive_count_memory_stays_near_its_int8_table():
    """A count at p near 2^20 peaks at under twice the p bytes of its
    character table, where arrays of p int64 would take 8 p bytes each."""
    p = 1048573
    tracemalloc.start()
    try:
        ecfp._naive_count((1, 2, 3, 0, 0), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * p


def test_bsgs_needs_no_factorization(monkeypatch):
    """BSGS intersects sets of annihilators and never factors one."""
    def refuse(n):
        raise AssertionError("factorize(%d) called" % n)

    monkeypatch.setattr(arith, "factorize", refuse)
    monkeypatch.setattr(ecfp, "factorize", refuse, raising=False)
    for p in (4099, 8191, 10007, 65537):
        want = count_points(COUNTEREXAMPLE_CURVE, p, method="naive")
        for seed in range(3):
            assert count_points(COUNTEREXAMPLE_CURVE, p, method="bsgs", seed=seed) == want


def test_batched_scan_counts_match_naive():
    E = COUNTEREXAMPLE_CURVE
    above = [e for e in local_scan(E, 7, 20000).entries
             if e.p > NAIVE_LIMIT and e.status in ("admitted", "rejected")]
    assert len(above) > 1500
    for e in above:
        assert e.a_p == e.p + 1 - ecfp._naive_count(ecfp._reduce(E, e.p), e.p), e.p


def test_small_primes_in_the_scan_batch_match_naive():
    # local_scan batches the good primes from _BATCH_FROM on, far below
    # NAIVE_LIMIT, where non-cyclic groups and ambiguous windows are common:
    # every such count equals the character sum, on the counterexample and
    # on 20 seeded curves
    rng = random.Random(97)
    curves = [COUNTEREXAMPLE_CURVE] + [_random_integral_curve(rng) for _ in range(20)]
    assert 5 <= ecfp._BATCH_FROM < NAIVE_LIMIT
    for E in curves:
        batched = [e for e in local_scan(E, 7, NAIVE_LIMIT).entries
                   if e.p >= ecfp._BATCH_FROM and e.status in ("admitted", "rejected")]
        assert len(batched) > 450
        for e in batched:
            assert e.a_p == e.p + 1 - ecfp._naive_count(ecfp._reduce(E, e.p), e.p), (E, e.p)


def test_one_batch_over_many_curves_matches_naive():
    # j = 0 and j = 1728 at every small prime, where non-cyclic groups and
    # points of small order are common, mixed with two other curves in one call
    rng = random.Random(79)
    curves = [WeierstrassCurve(0, 0, 0, 0, 1), WeierstrassCurve(0, 0, 0, 1, 0),
              _random_integral_curve(rng), _random_integral_curve(rng)]
    ps, a, b, want = [], [], [], []
    for E in curves:
        for p in primes_up_to(1500):
            inv = ecfp._reduce(E, p) if p >= 5 else None
            if inv is None:
                continue
            ps.append(p)
            for v, new in zip((a, b), ecfp._short(inv, p)):
                v.append(new)
            want.append(ecfp._naive_count(inv, p))
    for seed in range(3):
        assert ecfp._bsgs_counts(ps, a, b, seed) == want, seed


def _affine_add(P, Q, a, p):
    """P + Q on y^2 = x^3 + a x + b, with None for O."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if x1 == x2:
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


@pytest.mark.parametrize("p", [11, 13, 101])
def test_x_only_kernels_match_affine_multiples(p):
    # y^2 = x^3 + x has the 2-torsion point (0, 0); y^2 = x^3 + 1 has the
    # points (0, +-1) of order 3 and the 2-torsion point (-1, 0); y^2 = x^3 - x
    # has full 2-torsion.  Inputs are scaled by a random unit, and O is (1 : 0).
    rng = random.Random(p)

    def proj(Q):
        u = rng.randrange(1, p)
        return (u, 0) if Q is None else (Q[0] * u % p, u)

    def same(XZ, Q):
        X, Z = XZ[0] % p, XZ[1] % p
        if Q is None:
            return Z == 0 and X != 0
        return Z != 0 and X == Q[0] * Z % p

    seen = set()
    for a, b in [(1, 0), (0, 1), (-1, 0), (3, 5)]:
        a, b = a % p, b % p
        points = [(x, y) for x in range(p) for y in range(p)
                  if (y * y - x ** 3 - a * x - b) % p == 0]
        seen |= {"x = 0" for x, _ in points if x == 0} | {"2-torsion" for _, y in points if y == 0}
        for P in points:
            mult = [None, P]
            while mult[-1] is not None:
                mult.append(_affine_add(mult[-1], P, a, p))
            order = len(mult) - 1
            mult = [mult[k % order] for k in range(2 * order + 2)]
            for k in range(2 * order + 1):
                assert same(ecfp._xdbl(*proj(mult[k]), p, a, b), mult[2 * k % order]), (P, k)
                X0, Z0, X1, Z1 = ecfp._ladder(P[0], k, p, a, b)
                assert same((X0, Z0), mult[k]) and same((X1, Z1), mult[k + 1]), (P, k)
                # kP = iP + (k - i)P with difference (2i - k)P != O
                splits = range(k + 1) if p < 100 else {1, k // 2}
                for i in splits:
                    if (2 * i - k) % order and i <= k:
                        got = ecfp._xadd(*proj(mult[i]), *proj(mult[k - i]),
                                         *proj(mult[(2 * i - k) % order]), p, a, b)
                        assert same(got, mult[k]), (P, k, i)
    assert seen == {"x = 0", "2-torsion"}


def test_bsgs_counts_past_int64_products():
    # y^2 = x^3 + x is supersingular at p = 3 mod 4, so #E = p + 1; above
    # 2^31 a product of two residues no longer fits in int64, and at 2^40
    # not even the square of one residue does
    E = WeierstrassCurve(0, 0, 0, 1, 0)
    for p in (2 ** 31 + 11, 2 ** 40 + 15):
        assert is_prime(p) and p % 4 == 3
        assert count_points(E, p, method="bsgs") == p + 1
    # a batch wider than the row-by-row cutoff runs on object arrays
    ps = [q for q in range(2 ** 31 + 11, 2 ** 31 + 400, 4) if is_prime(q)][:ecfp._FEW + 1]
    assert len(ps) == ecfp._FEW + 1
    assert ecfp._bsgs_counts(ps, [1] * len(ps), [0] * len(ps)) == [q + 1 for q in ps]


def test_local_scan_counts_in_one_batch(monkeypatch):
    E, bound = COUNTEREXAMPLE_CURVE, 10 ** 4
    rebuilt = []
    for p in primes_up_to(bound):
        if p in (2, 7):
            continue
        data = reduce_and_count(E, p)
        if not data.good:
            rebuilt.append((p, "bad_reduction", None))
        else:
            verdict = "admitted" if local_isogeny_admitted(data, 7) else "rejected"
            rebuilt.append((p, verdict, data.a_p))

    batches, reductions, reduced = [], [], []
    batch, reduction = ecfp._bsgs_counts, ecfp._reduction

    def counting_batch(ps, a, b, seed=0):
        batches.append(list(ps))
        return batch(ps, a, b, seed)

    def counting_reduction(E):
        reductions.append(E)
        reduce = reduction(E)

        def counting_reduce(p):
            reduced.append(p)
            return reduce(p)
        return counting_reduce

    monkeypatch.setattr(ecfp, "_bsgs_counts", counting_batch)
    monkeypatch.setattr(ecfp, "_reduction", counting_reduction)
    report = local_scan(E, 7, bound)
    assert batches == [[p for p, status, _ in rebuilt
                        if p >= ecfp._BATCH_FROM and status != "bad_reduction"]]
    assert reductions == [E]  # the curve's rational data is read once per scan
    assert reduced == [p for p, _, _ in rebuilt]
    assert [(e.p, e.status, e.a_p) for e in report.entries if e.status != "skipped"] == rebuilt


def test_counts_respect_hasse():
    rng = random.Random(61)
    for _ in range(40):
        E = _random_integral_curve(rng)
        p = rng.choice([101, 103, 107, 109, 113])
        if int(E.discriminant()) % p == 0:
            continue
        a_p = p + 1 - count_points(E, p)
        assert a_p * a_p <= 4 * p


def test_count_points_rejects_p2_and_bad_reduction():
    with pytest.raises(ValueError):
        count_points(COUNTEREXAMPLE_CURVE, 2)
    with pytest.raises(ValueError):
        count_points(COUNTEREXAMPLE_CURVE, 7)  # 7 divides the discriminant
    with pytest.raises(ValueError):
        count_points(COUNTEREXAMPLE_CURVE, 11, method="bogus")
    with pytest.raises(ValueError):
        count_points(WeierstrassCurve(0, 0, 0, 1, 1), 3, method="bsgs")


def test_count_points_rejects_denominators_colliding_with_p():
    E = WeierstrassCurve(0, 0, 0, Fraction(1, 5), 1)
    with pytest.raises(ValueError):
        count_points(E, 5)
    assert count_points(E, 7) == count_points(WeierstrassCurve(0, 0, 0, 3, 1), 7)


def test_supersingular_reduction_of_the_counterexample():
    data = reduce_and_count(COUNTEREXAMPLE_CURVE, 3)
    assert data.good and data.count == 4 and data.a_p == 0
    assert data.supersingular


def test_local_data_validation():
    with pytest.raises(VerificationError, match="Hasse bound at p = 11"):
        LocalData(11, a_p=-13)  # |a_p| > 2 sqrt(11)
    with pytest.raises(VerificationError, match="Hasse bound at p = 11"):
        LocalData(11, a_p=7)
    # good and count follow from a_p, so no object holds them inconsistently
    assert LocalData(11, a_p=-6).count == 18 and LocalData(11, a_p=-6).good
    assert LocalData(11).count is None and not LocalData(11).good
    assert LocalData(11, a_p=0).supersingular is True
    assert LocalData(11, a_p=-1).supersingular is False
    assert LocalData(3, a_p=3).supersingular is True  # 3 = 0 mod 3
    assert LocalData(11).supersingular is False


def test_admission_matches_eigenvalue_search():
    rng = random.Random(67)
    for _ in range(300):
        ell = rng.choice([2, 3, 5, 7, 11])
        p = rng.choice([101, 103, 107, 109, 113, 127, 131])
        if p == ell:
            continue
        a_p = rng.randrange(-20, 21)
        if a_p * a_p > 4 * p:
            continue
        data = LocalData(p, a_p)
        brute = any((t * t - a_p * t + p) % ell == 0 for t in range(ell))
        assert local_isogeny_admitted(data, ell) == brute


def test_admission_rejects_bad_and_equal_primes():
    with pytest.raises(ValueError):
        local_isogeny_admitted(LocalData(11), 7)
    with pytest.raises(ValueError):
        local_isogeny_admitted(LocalData(7, a_p=0), 7)


def test_local_scan_structure():
    report = local_scan(COUNTEREXAMPLE_CURVE, 7, bound=100)
    primes = [p for p in range(2, 101) if is_prime(p)]
    assert isinstance(report, ScanReport)
    assert report.ell == 7 and report.bound == 100
    assert [e.p for e in report.entries] == primes
    by_p = {e.p: e for e in report.entries}
    assert by_p[2].status == "skipped" and "unsupported" in by_p[2].note
    assert by_p[7].status == "skipped" and "excluded" in by_p[7].note
    assert by_p[5].status == "bad_reduction"
    for p in (3, 11, 13, 97):
        assert by_p[p].status == "admitted"
    assert report.all_admitted
    assert set(report.admitted) | set(report.skipped) | {5} == set(primes)
    with pytest.raises(ValueError, match="bound must be at least 2, got 1"):
        local_scan(COUNTEREXAMPLE_CURVE, 7, bound=1)


def test_local_scan_finds_rejections():
    # y^2 = x^3 + x + 1 has no rational 2-isogeny and the scan should say so fast
    E = WeierstrassCurve(0, 0, 0, 1, 1)
    report = local_scan(E, 2, bound=60)
    assert report.rejected
    assert not report.all_admitted
    for e in report.entries:
        if e.status == "rejected":
            assert e.a_p % 2 == 1


def test_scan_skips_denominator_collisions():
    E = WeierstrassCurve(0, 0, 0, Fraction(1, 13), 1)
    report = local_scan(E, 5, bound=30)
    by_p = {e.p: e for e in report.entries}
    assert by_p[13].status == "skipped" and "denominator" in by_p[13].note


def test_scan_skip_set_is_two_ell_and_denominator_primes():
    # denominators 3 * 13, 17^2 and 19: only those primes, 2 and ell are skipped
    E = WeierstrassCurve(Fraction(1, 39), 0, Fraction(2, 289), -1, Fraction(5, 19))
    for ell, bound in ((5, 60), (13, 60), (7, 15), (61, 60)):
        report = local_scan(E, ell, bound=bound)
        want = {2, ell, 3, 13, 17, 19} & set(range(bound + 1))
        assert set(report.skipped) == want, (ell, report.skipped)


def test_reduction_errors_other_than_denominators_propagate(monkeypatch):
    # the scan files only DenominatorError under "skipped"; any other
    # ValueError from the counter is a fault and must surface
    def broken(inv, p):
        raise ValueError("counter fault at p = %d" % p)

    with pytest.raises(DenominatorError):
        reduce_and_count(WeierstrassCurve(0, 0, 0, Fraction(1, 13), 1), 13)
    monkeypatch.setattr(ecfp, "_naive_count", broken)
    with pytest.raises(ValueError, match="counter fault"):
        local_scan(WeierstrassCurve(0, 0, 0, 1, 1), 5, bound=20)


def test_scan_tests_each_prime_once(monkeypatch):
    """Primality of a modulus is tested at most once: ell by trial, and the
    scanned primes not at all, since the sieve that lists them proves them
    prime.  No reduction, quadratic character or square root mod p tests
    p again."""
    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(arith, "is_prime", counting)
    monkeypatch.setattr(arith, "_prime_cache", set())
    report = local_scan(COUNTEREXAMPLE_CURVE, 7, bound=10 ** 4)
    assert report.all_admitted
    assert calls == [7]


def test_reduce_and_count_roundtrip():
    rng = random.Random(71)
    for _ in range(25):
        E = _random_integral_curve(rng)
        p = rng.choice([31, 37, 41, 43])
        if int(E.discriminant()) % p == 0:
            continue
        data = reduce_and_count(E, p)
        assert data.p == p and data.good
        assert data.count == count_points(E, p)
        assert data.a_p == p + 1 - data.count
