import random

import numpy as np
import pytest

from locisog.arith import legendre_kronecker, primes_up_to
from locisog.errors import VerificationError
from locisog.gl2 import (CartanSpec, ElementActionProfile, GL2Element, _cartan_theta,
                         _fixed_line_counts, _group_codes, _line_perm, _mul_codes,
                         _orbit_minima, action_profile, cartan, fixed_point_count, projective_order)
from locisog.subgroups import from_elements, normalizer

PRIMES = [p for p in primes_up_to(97)]
EXHAUSTIVE = (2, 3, 5, 7)


def _random_gl2(rng, ell):
    while True:
        a, b, c, d = (rng.randrange(ell) for _ in range(4))
        if (a * d - b * c) % ell:
            return GL2Element(a, b, c, d, ell)


def _entry_product(x, y, ell):
    """The 2x2 product of entry tuples x and y, mod ell."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % ell, (a * f + b * h) % ell,
            (c * e + d * g) % ell, (c * f + d * h) % ell)


def _scalar_entries(x):
    a, b, c, d = x
    return b == 0 and c == 0 and a == d


def test_group_operations():
    rng = random.Random(2)
    for _ in range(300):
        ell = rng.choice(PRIMES)
        g = _random_gl2(rng, ell)
        h = _random_gl2(rng, ell)
        assert (g * h).entries() == _entry_product(g.entries(), h.entries(), ell)
        a, b, c, d = g.entries()
        assert g.det() == (a * d - b * c) % ell
        assert g * g.inverse() == GL2Element.identity(ell)
        assert (g * h).inverse() == h.inverse() * g.inverse()
        assert (g * h).det() == g.det() * h.det() % ell
        assert g ** 3 == g * g * g
        assert g ** -2 == (g.inverse()) ** 2
        assert GL2Element.from_code(g.code(), ell) == g


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        GL2Element(1, 2, 2, 4, 5)
    with pytest.raises(ValueError):
        GL2Element(0, 0, 0, 0, 3)


def _line_vector(t, ell):
    return (1, t) if t < ell else (0, 1)


def test_projective_action_is_action():
    """Exhaustively at small ell: the line permutation sends each line to
    the line through the image vector, and perm(g h) = perm(g) o perm(h)."""
    for ell in EXHAUSTIVE:
        group = _group_codes(ell)
        perms = _line_perm(group, ell)
        assert perms.shape == (len(group), ell + 1)
        for g, row in zip(group.tolist(), perms.tolist()):
            a, b, c, d = GL2Element.from_code(g, ell).entries()
            for t in range(ell + 1):
                x, y = _line_vector(t, ell)
                u, v = _line_vector(row[t], ell)
                assert ((a * x + b * y) * v - (c * x + d * y) * u) % ell == 0
            assert sorted(row) == list(range(ell + 1))
        for h, ph in zip(group, perms):
            assert (_line_perm(_mul_codes(group, h, ell), ell) == perms[:, ph]).all()
    rng = random.Random(4)
    for _ in range(200):
        ell = rng.choice(PRIMES)
        g = _random_gl2(rng, ell)
        h = _random_gl2(rng, ell)
        assert (_line_perm((g * h).code(), ell)
                == _line_perm(g.code(), ell)[_line_perm(h.code(), ell)]).all()


def _eigenline_counts(codes, ell):
    """ell + 1 for a scalar; otherwise one fixed line per root of
    x^2 - tr x + det in F_ell, the root's eigenline."""
    a, b, c, d = (np.asarray(codes) // ell ** k % ell for k in (3, 2, 1, 0))
    x = np.arange(ell)
    roots = ((x * (x - (a + d)[..., None]) + (a * d - b * c)[..., None]) % ell == 0).sum(axis=-1)
    return np.where((b == 0) & (c == 0) & (a == d), ell + 1, roots)


def test_fixed_points_match_action():
    """The fixed points of the line action are the eigenlines: every
    element at small ell, a random sample up to 97."""
    for ell in EXHAUSTIVE:
        group = _group_codes(ell)
        assert (_fixed_line_counts(group, ell) == _eigenline_counts(group, ell)).all()
    rng = random.Random(6)
    for _ in range(300):
        ell = rng.choice(PRIMES)
        g = _random_gl2(rng, ell)
        assert fixed_point_count(g) == _eigenline_counts(g.code(), ell)


# profile constraints: k in {0, 1, 2, ell+1}, non-trivial orbits all of size r,
# and sigma = (-1)^s for odd ell
def test_action_profile_properties():
    rng = random.Random(8)
    for _ in range(10 ** 4):
        ell = rng.choice(PRIMES)
        g = _random_gl2(rng, ell)
        prof = action_profile(g)
        assert prof.k in (0, 1, 2, ell + 1)
        assert all(t == prof.r for t in prof.orbit_sizes if t > 1)
        assert sum(prof.orbit_sizes) == ell + 1
        if ell > 2:
            assert prof.sigma == (-1) ** prof.s
        prof.validate()


def test_sigma_is_multiplicative():
    rng = random.Random(10)
    for _ in range(200):
        ell = rng.choice([3, 5, 7, 11, 13])
        g = _random_gl2(rng, ell)
        h = _random_gl2(rng, ell)
        assert (action_profile(g * h).sigma
                == action_profile(g).sigma * action_profile(h).sigma)


def test_sigma_detects_nonsquare_determinant():
    # for odd ell the permutation sign equals the quadratic character of det
    rng = random.Random(12)
    for _ in range(300):
        ell = rng.choice([3, 5, 7, 11, 13, 17])
        g = _random_gl2(rng, ell)
        assert action_profile(g).sigma == legendre_kronecker(g.det(), ell)


def test_projective_order():
    """Exhaustively at small ell, against powers taken with entry-wise
    products: g^r is scalar for r = projective_order(g), and no smaller
    positive power is."""
    for ell in EXHAUSTIVE:
        for code in _group_codes(ell).tolist():
            g = GL2Element.from_code(code, ell)
            power = x = g.entries()
            for _ in range(1, projective_order(g)):
                assert not _scalar_entries(power)
                power = _entry_product(power, x, ell)
            assert _scalar_entries(power)
    rng = random.Random(14)
    for _ in range(200):
        ell = rng.choice([3, 5, 7, 11])
        g = _random_gl2(rng, ell)
        r = projective_order(g)
        assert (g ** r).is_scalar()
        assert all(not (g ** i).is_scalar() for i in range(1, r))
        scaled = GL2Element(*[x * 2 % ell for x in g.entries()], ell)
        assert projective_order(scaled) == r


def test_cartan_sizes():
    for ell in (3, 5, 7, 11):
        assert len(cartan("split", ell)) == (ell - 1) ** 2
        assert len(cartan("nonsplit", ell)) == ell * ell - 1
    assert len(cartan("nonsplit", 2)) == 3
    with pytest.raises(ValueError):
        cartan("split", 2)
    with pytest.raises(ValueError):
        cartan("sideways", 5)


def test_cartan_is_closed_and_abelian():
    for kind, ell in (("split", 5), ("nonsplit", 5), ("split", 7), ("nonsplit", 2)):
        C = cartan(kind, ell)
        for g in C:
            assert g.inverse() in C
        els = sorted(C, key=lambda g: g.code())[:12]
        for g in els:
            for h in els:
                assert g * h in C
                assert g * h == h * g


def test_normalizer_doubles_cartan():
    for kind, ell in (("split", 5), ("nonsplit", 7), ("nonsplit", 13)):
        C = cartan(kind, ell)
        N = set(normalizer(from_elements(C)).elements)
        assert len(N) == 2 * len(C)
        assert C < N
        for w in sorted(N - C, key=lambda g: g.code())[:6]:
            for g in sorted(C, key=lambda g: g.code())[:6]:
                assert w * g * w.inverse() in C


def test_cartan_masks_match_cartan_and_normalizer():
    """Over all of GL_2, the spec named by the standard theta picks out
    cartan() and its normalizer as subgroups.normalizer computes it, for
    each kind, and the spec named by theta' = w theta w^-1 picks out the
    conjugate copies w C w^-1 and w N w^-1."""
    for kind, ell in (("split", 3), ("split", 7), ("nonsplit", 2), ("nonsplit", 3),
                      ("nonsplit", 7)):
        group = _group_codes(ell)
        theta = _cartan_theta(kind, ell)
        assert fixed_point_count(theta) == (2 if kind == "split" else 0)
        in_c, in_n = CartanSpec(kind, ell, theta).masks(group)
        C = cartan(kind, ell)
        N = normalizer(from_elements(C))
        assert set(group[in_c].tolist()) == {g.code() for g in C}
        assert np.array_equal(group[in_n], N.codes)
        w = GL2Element(1, 1, 0, 1, ell)
        in_c, in_n = CartanSpec(kind, ell, theta.conjugate_by(w)).masks(group)
        assert set(group[in_c].tolist()) == {g.conjugate_by(w).code() for g in C}
        assert set(group[in_n].tolist()) == {g.conjugate_by(w).code() for g in N.elements}


def test_orbit_minima_match_plain_orbits():
    """_orbit_minima gives each index the least index of its orbit, as a
    plain BFS over the permutations and their inverses finds it: single long
    cycles (the least label must travel against the cycle), products of
    random permutations, and a fixed-point-heavy permutation."""
    rng = random.Random(7)
    n = 200
    cycle = np.roll(np.arange(n), -1)
    cases = [[cycle], [cycle[::-1].copy()], [cycle, cycle[cycle]]]
    for _ in range(20):
        k = rng.randrange(1, 4)
        cases.append([np.array(rng.sample(range(n), n)) for _ in range(k)])
    few = np.arange(n)
    few[[3, 50, 199]] = [50, 199, 3]
    cases.append([few])
    for perms in cases:
        expected = np.arange(n)
        for start in range(n):
            if expected[start] < start:
                continue
            orbit, frontier = {start}, [start]
            while frontier:
                i = frontier.pop()
                for p in perms:
                    for j in (int(p[i]), int(np.flatnonzero(p == i)[0])):
                        if j not in orbit:
                            orbit.add(j)
                            frontier.append(j)
            expected[sorted(orbit)] = min(orbit)
        assert _orbit_minima(perms, n).tolist() == expected.tolist()


def test_profile_validation_catches_lies():
    good = action_profile(GL2Element(1, 1, 0, 1, 5))
    assert (good.r, good.orbit_sizes, good.k, good.s, good.sigma) == (5, (1, 5), 1, 2, 1)
    for sizes, r, message in (((1, 1, 1, 3), 3, "k not in"),
                              ((1, 2), 2, "do not cover"),
                              ((1, 1, 2, 2), 4, "differs from r")):
        with pytest.raises(VerificationError, match=message):
            ElementActionProfile(5, r, sizes).validate()
