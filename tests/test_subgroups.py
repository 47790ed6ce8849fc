import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import islice, product
from math import gcd

import numpy as np
import pytest

from locisog import subgroups
from locisog.errors import VerificationError
from locisog.gl2 import (GL2Element, _det, _encode, _group_codes, _id_code, _inv_codes,
                         _mul_codes)
from locisog.localglobal import construct_prop3_group
from locisog.subgroups import (Subgroup, closure, conjugacy_key, enumerate_subgroups,
                               from_elements, normalizer)


def _all_elements(ell):
    out = []
    for a, b, c, d in product(range(ell), repeat=4):
        if (a * d - b * c) % ell:
            out.append(GL2Element(a, b, c, d, ell))
    return out


def _brute_classes(ell):
    """Subgroup conjugacy classes of GL_2(F_ell) by plain table-driven BFS:
    extend every known subgroup by every element, close, dedupe, then fold
    the collection by conjugation.  No shortcuts shared with the library."""
    els = _all_elements(ell)
    index = {g: i for i, g in enumerate(els)}
    mul = [[index[g * h] for h in els] for g in els]
    conj = [[index[g * h * g.inverse()] for h in els] for g in els]
    ident = index[GL2Element.identity(ell)]

    def close(seed):
        group = set(seed)
        frontier = list(group)
        while frontier:
            nxt = []
            for x in frontier:
                for y in group.copy():
                    for z in (mul[x][y], mul[y][x]):
                        if z not in group:
                            group.add(z)
                            nxt.append(z)
            frontier = nxt
        return frozenset(group)

    subgroups = {frozenset({ident})}
    queue = [frozenset({ident})]
    while queue:
        S = queue.pop()
        for x in range(len(els)):
            if x in S:
                continue
            T = close(S | {x})
            if T not in subgroups:
                subgroups.add(T)
                queue.append(T)
    classes = []
    unseen = set(subgroups)
    while unseen:
        S = unseen.pop()
        orbit = {frozenset(conj[g][x] for x in S) for g in range(len(els))}
        unseen -= orbit
        classes.append(len(S))
    return sorted(classes)


def test_enumeration_matches_brute_force_ell2():
    reps = enumerate_subgroups(2)
    assert sorted(G.order for G in reps) == _brute_classes(2)


def test_enumeration_matches_brute_force_ell3():
    reps = enumerate_subgroups(3)
    assert sorted(G.order for G in reps) == _brute_classes(3)


def test_enumeration_class_counts():
    # regression pins from the first verified runs
    assert len(enumerate_subgroups(2)) == 4
    assert len(enumerate_subgroups(3)) == 16
    assert len(enumerate_subgroups(5)) == 48


def test_enumeration_is_shared_and_read_only():
    first = enumerate_subgroups(5)
    assert enumerate_subgroups(5) is first
    with pytest.raises(ValueError):
        first[-1].codes[0] = 0


# sha256 over (order, generator codes, element codes) of every class, in
# enumeration order, as the packed-code engine returned them
_CLASS_DIGESTS = {
    2: "8cfb68b7568046cac5ece46d8bb92b940c56eeba41b5b397f83b0fd9eefab3b7",
    3: "9124358ce5a03b08ebe73c98d2ecd791ee4a14087e74cfe1f0c86511ea87069f",
    5: "b1e9e80aea49898593bf51ad0942d36a589d37ca23a9c4308d000a51e765b29f",
    7: "bbd2c250df4e45d9b337c85c3f01b4a8047ce6dee683bd581295dd4fe2ad1f35",
    11: "17e5d2a2ec29ade63e19e1395203ab8c1e5dd3e9e13d7dfca49f6965fe339fba",
}


@pytest.mark.parametrize("ell", sorted(_CLASS_DIGESTS))
def test_enumeration_regression_pin(ell):
    h = hashlib.sha256()
    for G in enumerate_subgroups(ell):
        h.update(repr((G.order, G._gen_codes, tuple(G.codes.tolist()))).encode())
    assert h.hexdigest() == _CLASS_DIGESTS[ell]


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11])
def test_conj_tables_are_int32_and_fold_decodes_every_index(ell):
    """fold, built by broadcasting one residue per axis, maps every
    base-(2 ell - 1) index to the code of its digits mod ell, as decoding
    each index does."""
    tables = subgroups._conj_tables(ell)
    assert [t.dtype for t in tables] == [np.int32] * 3
    m = 2 * ell - 1
    s = np.arange(m ** 4)
    expected = _encode(s // m ** 3 % ell, s // m ** 2 % m % ell, s // m % m % ell,
                       s % m % ell, ell)
    assert (tables[2] == expected).all()


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_conjugation_rows_span_every_code(ell):
    """The extension step's conjugation row for a _scalar_cosets
    representative g, fold[top[i][:, None] + bottom[i]], is g h g^-1 for
    every one of the ell^4 codes h, singular or not, by plain _mul_codes:
    a permutation that maps singular codes to singular codes."""
    top, bottom, fold = subgroups._conj_tables(ell)
    codes = np.arange(ell ** 4)
    singular = _det(codes, ell) == 0
    reps = subgroups._scalar_cosets(ell)[0]
    rows = fold[top[:, :, None] + bottom[:, None, :]].reshape(len(reps), -1)
    brute = _mul_codes(_mul_codes(reps[:, None], codes, ell), _inv_codes(reps, ell)[:, None], ell)
    assert (rows == brute).all()
    assert (np.sort(rows, axis=1) == codes).all()
    assert (_det(rows[:, singular], ell) == 0).all()


def _brute_conjugates(codes, g, ell):
    """Every conjugate g h g^-1 of the sorted codes, one sorted row per g,
    by plain _mul_codes."""
    conj = _mul_codes(_mul_codes(g[:, None], codes[None, :], ell),
                      _inv_codes(g, ell)[:, None], ell)
    return np.sort(conj, axis=1)


def _subgroups_to_check(ell):
    """First subgroups whose generators are not the enumeration's, then
    every enumerated class.  The first are closures of a scalar and a seeded
    random element (so the first generator alone says nothing of N(H)) and
    of a random pair, and from_elements of a conjugate of each."""
    rng = random.Random(ell)
    els = _all_elements(ell)
    for _ in range(3):
        x, y, w = rng.sample(els, 3)
        for G in (closure((GL2Element(ell - 1, 0, 0, ell - 1, ell), x)), closure((x, y))):
            yield G
            yield from_elements(g.conjugate_by(w) for g in G.elements)
    yield from enumerate_subgroups(ell)


@pytest.mark.parametrize("ell", [3, 5])
def test_normalizer_mask_per_coset_representative(ell):
    """The mask built from H's generators marks N(H) once per scalar coset;
    expanded, it is {g : g H g^-1 = H} by plain conjugation of every
    element, and normalizer() returns exactly those codes."""
    group = _group_codes(ell)
    reps, coset = subgroups._scalar_cosets(ell)
    for G in _subgroups_to_check(ell):
        normal = subgroups._normalizer_mask(G)
        assert len(normal) == len(reps)
        brute = (_brute_conjugates(G.codes, group, ell) == G.codes[None, :]).all(axis=1)
        assert (normal[coset[group]] == brute).all()
        assert normalizer(G).codes.tolist() == group[brute].tolist()


@pytest.mark.parametrize("ell", subgroups.ENUMERABLE)
def test_right_perm_reads_the_dot_table(ell):
    """_right_perm(x) is the int32 code of g x for every one of the ell^4
    codes g, singular or not, as plain _mul_codes gives it, so it maps
    singular codes to singular codes; restricted to the _scalar_cosets
    representatives it gives their products, and _coset_perm(x) the cosets
    of those: every x up to ell = 7, 40 sampled ones at ell = 11.  The dot
    table holds one byte per entry at these ell."""
    codes = np.arange(ell ** 4)
    singular = _det(codes, ell) == 0
    group = _group_codes(ell)
    reps, coset = subgroups._scalar_cosets(ell)
    assert subgroups._dot_table(ell).dtype == np.uint8
    xs = group.tolist() if ell < 11 else random.Random(ell).sample(group.tolist(), 40)
    for x in xs:
        perm = subgroups._right_perm(x, ell)
        assert perm.dtype == np.int32
        assert (perm == _mul_codes(codes, x, ell)).all()
        assert (_det(perm[singular], ell) == 0).all()
        assert (subgroups._right_perm(x, ell, reps) == perm[reps]).all()
        assert (subgroups._coset_perm(x, ell) == coset[perm[reps]]).all()


@pytest.mark.parametrize("ell", [3, 5])
def test_quotient_normalizer_generates_the_normalizer(ell):
    """H's generators, the new ones of the quotient BFS and a scalar
    generate N(H) as plain conjugation of every element finds it.  Each new
    generator lies outside the group that H, the scalar and the earlier new
    ones generate, so none lies in H Z.  closure() of normalizer(G)'s own
    generators gives exactly its codes."""
    group = _group_codes(ell)
    scalar = GL2Element(2, 0, 0, 2, ell)  # 2 generates F_3^* and F_5^*
    for G in _subgroups_to_check(ell):
        brute = (_brute_conjugates(G.codes, group, ell) == G.codes[None, :]).all(axis=1)
        gens = [*G.generators, scalar]
        for c in subgroups._quotient_normalizer(G)[1]:
            assert c not in closure(gens).codes
            gens.append(GL2Element.from_code(c, ell))
        assert closure(gens).codes.tolist() == group[brute].tolist()
        N = normalizer(G)
        assert closure(N.generators, ell=ell).codes.tolist() == N.codes.tolist()


def test_quotient_normalizer_rejects_a_non_group():
    """Non-groups wrapped as a Subgroup raise, for the enumeration and the
    public entry points alike.  GL_2(F_3) less any one non-identity element,
    with GL_2's generators, is not closed under them; for 27 of those 47
    sets the image in PGL_2(F_3) is still a group, so only that check sees
    them.  K u aK, with K = <antidiag(1, 1)> and a = [[0, 1], [2, 0]], is
    closed under K's generators, but a^2 = -1 lies outside it: the BFS marks
    a coset outside its normalizer mask."""
    ell = 3
    G = closure((GL2Element(0, 1, 1, 0, ell), GL2Element(1, 1, 0, 1, ell)))
    assert G.order == 48
    sets = [Subgroup(ell, G.codes[G.codes != c], G._gen_codes)
            for c in G.codes.tolist() if c != _id_code(ell)]
    K = closure((GL2Element(0, 1, 1, 0, ell),))
    aK = _mul_codes(GL2Element(0, 1, 2, 0, ell).code(), K.codes, ell)
    sets.append(Subgroup(ell, np.union1d(K.codes, aK), K._gen_codes))
    assert len(sets) == 48
    for H in sets:
        for call in (subgroups._quotient_normalizer, normalizer, conjugacy_key):
            with pytest.raises(VerificationError, match="not a group"):
                call(H)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_conjugates_one_row_per_coset_of_the_normalizer(ell):
    """The transversal has one row per coset of N(H), ell (ell^2 - 1)
    (ell - 1) / |N(H)| in all, and conjugating by it gives exactly the
    conjugates that all ell (ell^2 - 1) scalar-coset representatives give."""
    reps = subgroups._scalar_cosets(ell)[0]
    for G in _subgroups_to_check(ell):
        N = normalizer(G)
        perms = subgroups._quotient_normalizer(G)[2]
        rows = subgroups._transversal(perms, ell)
        assert len(rows) == len(reps) * (ell - 1) // N.order
        keys = subgroups._conjugates(G, perms)
        brute = {row.astype(">i4").tobytes() for row in _brute_conjugates(G.codes, reps, ell)}
        assert keys == brute and len(keys) == len(rows)


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_extension_bfs_never_needs_a_lagrange_stop(ell, monkeypatch):
    """An extension BFS runs to the end only inside the Borel subgroup of a
    line that H and x fix, of order ell (ell - 1)^2, or with the stop mask of
    the elements of order divisible by ell, so on a group of order prime to
    ell.  Either way it grows at most half of GL_2, so _close needs no stop
    by Lagrange: every mask a BFS of a fresh enumeration completes says so."""
    cached = enumerate_subgroups(ell)
    order = len(_group_codes(ell))
    sizes = []
    real = subgroups._close

    def spy(member, seeds, perms, **kwargs):
        out = real(member, seeds, perms, **kwargs)
        if "stop" in kwargs and out is not None:  # the BFS calls of _extension
            sizes.append(int(np.count_nonzero(out)))
        return out

    monkeypatch.setattr(subgroups, "_close", spy)
    classes = subgroups._enumerate.__wrapped__(ell)
    assert [G.codes.tolist() for G in classes] == [G.codes.tolist() for G in cached]
    assert sizes
    for size in sizes:
        assert 2 * size <= order, size
        assert (ell * (ell - 1) ** 2) % size == 0 or size % ell, size


def _spy_close(monkeypatch):
    """Record (stop given, result is None) for every _close call."""
    calls = []
    real = subgroups._close

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((kwargs.get("stop") is not None, out is None))
        return out

    monkeypatch.setattr(subgroups, "_close", spy)
    return calls


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_sl2_step_equals_closure(ell, monkeypatch):
    """Wherever the extension step settles <H, x> as det^-1(det <H, x>),
    with no BFS or with one that stopped at an element of order divisible
    by ell, that mask is closure() of H's generators and x.  At ell = 7 it
    settles 674 of the 1,228 candidates."""
    order = len(_group_codes(ell))
    classes = [G for G in enumerate_subgroups(ell) if G.order < order]
    calls = _spy_close(monkeypatch)
    settled = 0
    for G in classes:
        candidates, extend = subgroups._extension(G, subgroups._quotient_normalizer(G)[1])
        for x in candidates.tolist():
            del calls[:]
            mask = extend(x)[0]
            if calls and not calls[-1][1]:
                continue  # the BFS ran to its end
            settled += 1
            K = closure(G.generators + (GL2Element.from_code(x, ell),))
            assert np.flatnonzero(mask).tolist() == K.codes.tolist()
    assert settled > 0
    if ell == 7:
        assert settled == 674


@pytest.mark.parametrize("ell", [3, 5])
def test_extension_equals_closure(ell):
    """On subgroups the enumeration did not build, each candidate's mask is
    closure() of H's generators and x: after a full BFS, one that stopped at
    an element of order divisible by ell, or none."""
    checked = 0
    for G in islice(_subgroups_to_check(ell), 12):
        candidates, extend = subgroups._extension(G, subgroups._quotient_normalizer(G)[1])
        for x in candidates.tolist():
            K = closure(G.generators + (GL2Element.from_code(x, ell),))
            assert np.flatnonzero(extend(x)[0]).tolist() == K.codes.tolist()
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11])
def test_order_divisible_by_ell_fixes_one_line(ell):
    """The position tables read "order divisible by ell" as "fixes exactly
    one line".  At every one of the ell^4 codes that is the closed form:
    invertible, not scalar, and tr^2 - 4 det = 0 mod ell.  At ell = 2 it
    marks the three transvections."""
    a, b, c, d = (np.arange(ell ** 4) // ell ** k % ell for k in (3, 2, 1, 0))
    expected = ((a * d - b * c) % ell != 0) & ~((b == 0) & (c == 0) & (a == d)) \
        & (((a + d) ** 2 - 4 * (a * d - b * c)) % ell == 0)
    assert (subgroups._position_tables(ell)[2] == expected).all()
    if ell == 2:
        assert expected.sum() == 3


def test_borel_extension_takes_the_bfs(monkeypatch):
    """x = [[1, 1], [0, 1]] has order 7 but fixes the line (1 : 0), which
    H = <diag(3, 1)> fixes too: <H, x> is the order-42 group of upper
    triangular matrices with a 1 in the corner, not det^-1(F_7^*) = GL_2.
    The step must close it by a BFS without a stop mask."""
    ell = 7
    H = closure((GL2Element(3, 0, 0, 1, ell),))
    x = GL2Element(1, 1, 0, 1, ell)
    _, extend = subgroups._extension(H, subgroups._quotient_normalizer(H)[1])
    calls = _spy_close(monkeypatch)
    mask = extend(x.code())[0]
    assert calls == [(False, False)]
    K = closure((*H.generators, x))
    assert K.order == 42
    assert np.flatnonzero(mask).tolist() == K.codes.tolist()


def _double_coset_candidates(G, ell):
    """The candidates of the sequential marking the extension loop used
    before: the N(H)-orbit minima outside H, ascending, each skipped when an
    earlier candidate y put its orbit in H u H y H or in the inverses of
    those elements.  By plain products, with N(H) from normalizer()."""
    group = _group_codes(ell)
    H = G.codes
    N = normalizer(G).codes
    a, b = N // ell ** 3, N // ell ** 2 % ell
    N = N[np.where(a != 0, a, b) == 1]  # conjugation ignores scalars
    label = group.copy()
    for i in range(0, len(N), 64):
        g = N[i:i + 64, None]
        conj = _mul_codes(_mul_codes(g, group[None, :], ell), _inv_codes(g, ell), ell)
        label = np.minimum(label, conj.min(axis=0))

    def labels(codes):
        return label[np.searchsorted(group, codes)].tolist()

    tried = set(H.tolist())
    out = []
    for x in group[label == group].tolist():
        if x in tried:
            continue
        out.append(x)
        double = np.union1d(H, _mul_codes(_mul_codes(H[:, None], x, ell), H[None, :], ell))
        tried.update(labels(double))
        tried.update(labels(_inv_codes(double, ell)))
    return out


@pytest.mark.parametrize("ell", [5, 7])
def test_gamma_orbit_candidates_match_double_coset_marking(ell):
    """One candidate per orbit of Gamma (conjugation by N(H), right
    multiplication by H, inversion) is exactly what the sequential marking
    of double cosets closed, in the same order: 1,228 candidates at ell = 7."""
    total = 0
    for G in enumerate_subgroups(ell):
        candidates = subgroups._extension(G, subgroups._quotient_normalizer(G)[1])[0]
        assert candidates.tolist() == _double_coset_candidates(G, ell)
        total += len(candidates)
    if ell == 7:
        assert total == 1228


@pytest.mark.parametrize("ell", [5, 7])
def test_enumeration_work_pin(ell, monkeypatch):
    """A fresh enumeration extends each class by one candidate per Gamma
    orbit and conjugates it by one row per coset of N(H).  Too few
    generators of N(H) leave the classes as they are but add candidates and
    duplicate conjugate rows, so the work is pinned: (candidates, conjugate
    rows, conjugate codes) per enumeration."""
    cached = enumerate_subgroups(ell)  # before the spies, so that they see one enumeration
    work = Counter()
    extension, conjugates = subgroups._extension, subgroups._conjugates

    def counted_extension(H, new):
        candidates, extend = extension(H, new)
        work["candidates"] += len(candidates)
        return candidates, extend

    def counted_conjugates(H, perms):
        rows = len(subgroups._transversal(perms, H.ell))
        work["rows"] += rows
        work["codes"] += rows * H.order
        return conjugates(H, perms)

    monkeypatch.setattr(subgroups, "_extension", counted_extension)
    monkeypatch.setattr(subgroups, "_conjugates", counted_conjugates)
    classes = subgroups._enumerate.__wrapped__(ell)
    assert [G.codes.tolist() for G in classes] == [G.codes.tolist() for G in cached]
    assert (work["candidates"], work["rows"], work["codes"]) == \
        {5: (385, 466, 7767), 7: (1228, 1704, 44980)}[ell]


def test_conj_tables_build_peaks_near_what_it_keeps():
    """A cold build of the conjugation tables at ell = 13, past ENUMERABLE,
    has a traced peak of at most 2.5 times the bytes it keeps: no
    intermediate array spans the (2 ell - 1)^4 fold indices in int64."""
    subgroups._scalar_cosets(13)
    tracemalloc.start()
    try:
        tables = subgroups._conj_tables.__wrapped__(13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(t.nbytes for t in tables)


def test_position_tables_build_in_slabs():
    """A cold build of the per-code tables at ell = 13, past ENUMERABLE,
    peaks under 4 MB: the line action's int64 (codes, ell + 1) temporaries
    span one slab of _CHUNK entries, not all ell^4 codes."""
    tracemalloc.start()
    try:
        subgroups._position_tables.__wrapped__(13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _phi(k):
    return sum(1 for i in range(1, k + 1) if gcd(i, k) == 1)


@pytest.mark.parametrize("ell", [5, 7])
def test_cyclic_subgroup_count_oracle(ell):
    """Cyclic subgroups of order k number (elements of order k) / phi(k),
    with orders from plain GL2Element powering; the enumerated cyclic
    classes must account for exactly these, each with |GL2| / |N(H)|
    conjugates."""
    ident = GL2Element.identity(ell)
    order_of = {}
    for g in _all_elements(ell):
        x, k = g, 1
        while x != ident:
            x, k = x * g, k + 1
        order_of[g.code()] = k
    by_order = Counter(order_of.values())
    expected = {k: n // _phi(k) for k, n in by_order.items()}
    assert all(n % _phi(k) == 0 for k, n in by_order.items())
    size = len(order_of)
    found = Counter()
    for G in enumerate_subgroups(ell):
        if max(order_of[c] for c in G.codes.tolist()) == G.order:
            found[G.order] += size // normalizer(G).order
    assert dict(found) == expected


def test_enumeration_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_subgroups(13)
    with pytest.raises(ValueError):
        enumerate_subgroups(4)


def test_representatives_are_valid_and_distinct():
    for ell in (2, 3, 5):
        size = (ell * ell - 1) * (ell * ell - ell)
        reps = enumerate_subgroups(ell)
        for G in reps:
            assert size % G.order == 0
            assert len(G.generators) <= 3
            assert closure(G.generators, ell=ell).order == G.order
        keys = {conjugacy_key(G) for G in reps}
        assert len(keys) == len(reps)


def test_closure_anchors():
    # diag(3,3), diag(1,3^2), antidiag(1,1) generate the order-36 group mod 7
    gens3 = (GL2Element(3, 0, 0, 3, 7), GL2Element(1, 0, 0, 2, 7),
             GL2Element(0, 1, 1, 0, 7))
    assert closure(gens3).order == 36
    # dropping the scalar generator leaves entries in the squares {1, 2, 4}
    gens2 = (GL2Element(1, 0, 0, 2, 7), GL2Element(0, 1, 1, 0, 7))
    assert closure(gens2).order == 18
    # a primitive diagonal plus a transvection and the antidiagonal generate everything
    full = closure((GL2Element(3, 0, 0, 1, 7), GL2Element(1, 1, 0, 1, 7),
                    GL2Element(0, 1, 1, 0, 7)))
    assert full.order == 2016


def test_closure_edge_cases():
    assert closure((), ell=5).order == 1
    with pytest.raises(ValueError):
        closure(())
    with pytest.raises(ValueError):
        closure((GL2Element.identity(3), GL2Element.identity(5)))
    with pytest.raises(ValueError, match="generators live over F_5, not F_7"):
        closure((GL2Element.identity(5),), ell=7)


def test_subgroup_queries():
    G = closure((GL2Element(3, 0, 0, 3, 7), GL2Element(1, 0, 0, 2, 7),
                 GL2Element(0, 1, 1, 0, 7)))
    els = set(G.elements)
    assert len(els) == G.order == 36
    assert G.codes.tolist() == sorted(g.code() for g in els)
    assert all(g.inverse() in els for g in els)
    assert GL2Element(1, 1, 0, 1, 7) not in els
    assert any(g * h != h * g for g in els for h in els)
    assert G.det_image_size() == 6
    # element orders divide the group order
    assert all(g ** 36 == GL2Element.identity(7) for g in els)


def test_from_elements_validation():
    C = closure((GL2Element(1, 0, 0, 2, 7),))
    G = from_elements(C.elements)
    assert G.order == C.order and G.ell == 7
    assert closure(G.generators).order == C.order
    with pytest.raises(ValueError):
        from_elements([GL2Element(1, 0, 0, 2, 7)])  # not closed, no identity
    with pytest.raises(ValueError):
        from_elements([GL2Element.identity(7), GL2Element(1, 0, 0, 2, 7)])  # not closed
    with pytest.raises(ValueError, match="at least the identity"):
        from_elements([])
    with pytest.raises(ValueError, match="mixed moduli"):
        from_elements([GL2Element.identity(5), GL2Element.identity(7)])


def test_from_elements_needs_no_group_wide_tables(monkeypatch):
    """Validating a set, or closing generators, touches only the set: orders
    1,764 and 3,528 at ell = 43, where tables over all of GL_2 or all ell^4
    codes would take hundreds of MB."""
    def forbidden(ell):
        raise AssertionError("group-wide table requested for ell = %d" % ell)

    for table in ("_group_codes", "_dot_table", "_scalar_cosets", "_position_tables",
                  "_conj_tables"):
        monkeypatch.setattr(subgroups, table, forbidden)
    assert construct_prop3_group(43, 21).order == 1764
    G = closure((GL2Element(1, 0, 0, 3, 43), GL2Element(0, 1, 1, 0, 43)))
    assert G.order == 3528


def test_conjugacy_detection():
    """conjugacy_key decides conjugacy: equal keys exactly when some element
    of GL_2(F_5) carries one cyclic subgroup onto the other, by brute force."""
    rng = random.Random(23)
    els5 = _all_elements(5)
    for _ in range(40):
        G = closure((rng.choice(els5),))
        H = closure((rng.choice(els5),))
        hset = set(H.elements)
        witness = any({x.conjugate_by(w) for x in G.elements} == hset for w in els5)
        assert (conjugacy_key(G) == conjugacy_key(H)) == witness
    A = closure((GL2Element(1, 0, 0, 2, 7),))   # split torus piece, order 3
    B = closure((GL2Element(2, 0, 0, 4, 7),))   # same order, no eigenvalue 1
    assert A.order == B.order == 3
    assert conjugacy_key(A) != conjugacy_key(B)


def test_conjugacy_key_is_class_invariant():
    rng = random.Random(25)
    els = _all_elements(3)
    for _ in range(30):
        g, h = rng.choice(els), rng.choice(els)
        G = closure((g,))
        H = from_elements(tuple(x.conjugate_by(h) for x in G.elements))
        assert conjugacy_key(G) == conjugacy_key(H)


def test_normalizer_contains_and_normalizes():
    G = closure((GL2Element(1, 0, 0, 2, 7), GL2Element(0, 1, 1, 0, 7)))
    N = normalizer(G)
    assert N.order % G.order == 0
    gset = set(G.elements)
    for n in N.elements:
        assert all(g.conjugate_by(n) in gset for g in G.generators)
