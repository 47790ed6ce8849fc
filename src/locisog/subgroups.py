"""Subgroups of GL_2(F_ell) as explicit element sets: generated closures,
conjugacy keys and normalizers, and exhaustive enumeration of conjugacy
classes for small ell.

A Subgroup holds the sorted numpy array of its elements' codes (the packed
integers of gl2).  Enumeration closes subgroups on positions in the sorted
code list of GL_2 (_group_codes): each generator becomes its
right-multiplication permutation of those positions, and a BFS marks new
elements in a boolean mask over the group, from H*x when it adds x to a
closed subgroup H.  The closure of explicit generators, and the check that
an explicit element set is a subgroup, run their BFS on the set's own
sorted codes, so their cost follows the size of the set, not of GL_2.

Enumeration is the cyclic-extension method: extend each class representative
H by one element x at a time until a fixpoint.  <H, x> is constant, up to
conjugation by N(H), on each orbit of the group Gamma that conjugation by
N(H), right multiplication by H and inversion generate, as
<H, h x h'> = <H, x^-1> = <H, x>: the candidates are the least of each orbit
outside H.  By Dickson (Linear Groups, 1901; Serre, Invent. Math. 15, 1972,
section 2) a subgroup that fixes no line and has an element of order
divisible by ell contains SL_2(F_ell), so it is det^-1 of its determinants.
<H, x> fixes a line exactly when x fixes one that all of H fixes; if it
fixes none, and H or x has such an element, no BFS runs.  Otherwise one
BFS from H x closes <H, x>, stopping at the first such element when no line
is fixed, or once it holds more than half of GL_2 (Lagrange).  A class is
kept as (Subgroup, generators of N(H), least conjugate key); registering it
records its conjugate element sets, which identify later extensions
exactly: conjugation by one representative of each coset g N(H) builds
each conjugate once.

Conjugation is table-driven (_conj_tables) and works in the scalar
quotient (scalars act trivially): one table row per _scalar_cosets
representative, ell (ell^2 - 1) rows in all, and every table and conjugate
row holds int32 codes.  N(H) is found as a mask over those representatives,
one table column per generator of H, and expanded to its codes only to pick
its generators.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .arith import _require_prime
from .errors import VerificationError
from .gl2 import (GL2Element, _decode, _det, _encode, _group_codes, _id_code, _inv_codes,
                  _inv_table, _line_perm, _mul_codes, _orbit_minima)

ENUMERABLE = (2, 3, 5, 7, 11)

# element budget per vectorized conjugation slab.  Measured on 2 vCPU at
# 2^15 / 2^16 / 2^17: one-pass benchmark `lemma` peak RSS 37.4-37.5 /
# 37.7-38.0 / 38.8-39.1 MB (three runs each); `lemma --ell 11` 4.5-5.8 /
# 4.2-5.5 / 3.9-5.4 s (six runs each, overlapping on that host; an earlier
# pair read 5.2 s at 2^16 against 5.6 s at 2^15)
_CHUNK = 1 << 16


@lru_cache(maxsize=None)
def _code_index(ell: int):
    """code -> position in _group_codes(ell), or -1."""
    g = _group_codes(ell)
    idx = np.full(ell ** 4, -1, dtype=np.int32)
    idx[g] = np.arange(len(g))
    return idx


@lru_cache(maxsize=None)
def _row_codes(ell: int):
    """Top and bottom rows, as a*ell + b and c*ell + d, of _group_codes(ell)."""
    g = _group_codes(ell)
    return g // (ell * ell), g % (ell * ell)


def _right_perm(code: int, ell: int):
    """Position of g * code for every g, as positions in _group_codes(ell).

    Right multiplication acts on each row separately, so it is a table on
    the ell^2 row vectors applied to both rows.
    """
    a, b, c, d = _decode(int(code), ell)
    x, y = np.divmod(np.arange(ell * ell), ell)
    row = (x * a + y * c) % ell * ell + (x * b + y * d) % ell
    hi, lo = _row_codes(ell)
    return _code_index(ell)[row[hi] * (ell * ell) + row[lo]]


def _close(member, seeds, perms, whole=False, stop=None):
    """Close the boolean mask `member` (over the positions of a sorted code
    array, which the rows of `perms` permute) in place: each BFS level is
    one gather and one scatter.

    `member` must already be closed under right multiplication by `perms`
    except for the products listed in `seeds` (positions, marked or not); the
    BFS starts from the unmarked seeds only.  Closing a subgroup H with a new
    element x is then close(H, H*x, gens(H) + [x]).  With whole=True the
    positions are a group's, and a mask past half of them is returned full:
    by Lagrange the subgroup it grows is then the whole group.  None is
    returned as soon as the BFS reaches a position in the mask `stop`.
    """
    perms = np.asarray(perms)
    fresh = np.zeros_like(member)
    fresh[seeds] = True
    size, half = int(member.sum()), len(member) // 2 if whole else len(member)
    while True:
        np.greater(fresh, member, out=fresh)  # fresh &= ~member
        frontier = fresh.nonzero()[0]
        if not len(frontier):
            return member
        if stop is not None and stop[frontier].any():
            return None
        member |= fresh
        size += len(frontier)
        if size > half:
            member[:] = True
            return member
        fresh[perms[:, frontier]] = True


def _row_keys(rows) -> list[bytes]:
    """A byte key for every row of a 2-d array of sorted codes, big-endian so
    that byte order is numeric lexicographic order."""
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view("V%d" % (4 * rows.shape[1])).ravel().tolist()


class Subgroup:
    """A subgroup of GL_2(F_ell) held as the sorted array of element codes."""

    __slots__ = ("ell", "_codes", "_gen_codes")

    def __init__(self, ell: int, codes, gen_codes: tuple[int, ...]):
        codes.flags.writeable = False  # enumerate_subgroups shares its results
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_gen_codes", tuple(int(c) for c in gen_codes))

    def __setattr__(self, *args):
        raise AttributeError("Subgroup is immutable")

    @property
    def order(self) -> int:
        return len(self._codes)

    @property
    def codes(self):
        """The sorted numpy array of element codes, read-only."""
        return self._codes

    @property
    def elements(self) -> tuple[GL2Element, ...]:
        """One GL2Element view per code, built afresh at each call."""
        return tuple(GL2Element._view(c, self.ell) for c in self._codes.tolist())

    @property
    def generators(self) -> tuple[GL2Element, ...]:
        return tuple(GL2Element._view(c, self.ell) for c in self._gen_codes)

    def det_image_size(self) -> int:
        return len(np.unique(_det(self._codes, self.ell)))

    def __repr__(self):
        return "Subgroup(ell=%d, order=%d)" % (self.ell, self.order)


def closure(generators, ell: int | None = None) -> Subgroup:
    """The subgroup generated by the given GL2Elements (trivial when empty)."""
    gens = list(generators)
    mods = {g.ell for g in gens}
    if len(mods) > 1:
        raise ValueError("generators live over different moduli: %s" % sorted(mods))
    m = mods.pop() if mods else ell
    if m is None:
        raise ValueError("need ell to build the trivial subgroup from no generators")
    if ell is not None and ell != m:
        raise ValueError("generators live over F_%d, not F_%d" % (m, ell))
    _require_prime(m)
    codes = [g.code() for g in gens]
    gen_arr = np.unique(np.array(codes, dtype=np.int64))
    group = frontier = np.array([_id_code(m)], dtype=np.int64)
    while len(frontier):  # BFS on the group's own codes, from the identity
        products = _mul_codes(frontier[:, None], gen_arr[None, :], m).ravel()
        frontier = np.setdiff1d(products, group)
        group = np.union1d(group, frontier)
    return Subgroup(m, group, tuple(codes))


def _set_perm(codes, g: int, ell: int):
    """Right multiplication by g as a permutation of the positions in the
    sorted code array `codes`, or None when a product falls outside it."""
    prod = _mul_codes(codes, g, ell)
    pos = np.searchsorted(codes, prod)
    pos[pos == len(codes)] = 0
    return pos if (codes[pos] == prod).all() else None


def from_elements(elements) -> Subgroup:
    """Wrap an explicit element set, verifying it really is a subgroup.

    The check works on the set's own sorted codes: _greedy_generators picks
    generators one at a time, proves the set closed under each, and stops
    once they reach every element from the identity."""
    els = set(elements)
    if not els:
        raise ValueError("a subgroup needs at least the identity")
    ell = next(iter(els)).ell
    if any(g.ell != ell for g in els):
        raise ValueError("mixed moduli in element set")
    codes = np.array(sorted(g.code() for g in els), dtype=np.int64)
    if not (codes == _id_code(ell)).any():
        raise ValueError("element set lacks the identity")
    gen_codes = _greedy_generators(codes, ell)
    if gen_codes is None:
        raise ValueError("element set is not closed under multiplication")
    return Subgroup(ell, codes, gen_codes)


def _greedy_generators(codes, ell, seeds=()):
    """Generators of the element set with sorted codes `codes`, which holds
    the identity: each code of `seeds` (in the set), then of `codes`, that
    the earlier ones do not generate.  None when the set is not closed."""
    member = codes == _id_code(ell)
    size = 1
    gens: list[int] = []
    perms = []
    seeded = zip(np.searchsorted(codes, seeds).tolist(), seeds)
    for i, c in [*seeded, *enumerate(codes.tolist())]:
        if size == len(codes):
            break
        if member[i]:
            continue
        perm = _set_perm(codes, c, ell)
        if perm is None:
            return None
        gens.append(c)
        perms.append(perm)
        _close(member, perm[np.flatnonzero(member)], perms)
        size = int(member.sum())
    return gens


@lru_cache(maxsize=None)
def _scalar_cosets(ell: int):
    """Conjugation by g depends only on g up to a scalar.  Returns the
    positions in _group_codes(ell) of one element per scalar coset, the one
    whose first non-zero entry is 1, and for every position the index of its
    coset among them."""
    group = _group_codes(ell)
    a, b, c, d = _decode(group, ell)
    s = _inv_table(ell)[np.where(a != 0, a, b)]
    unit = _encode(a * s % ell, b * s % ell, c * s % ell, d * s % ell, ell)
    reps = np.flatnonzero(unit == group)
    return reps, np.searchsorted(group[reps], unit)


@lru_cache(maxsize=None)
def _conj_tables(ell: int):
    """Tables that conjugate any matrix by every element of GL_2, up to
    scalars, in two lookups.

    g h g^-1 is linear in h, so it is the entry-wise sum mod ell of the
    conjugates of h's top row [[a, b], [0, 0]] and of its bottom row
    [[0, 0], [c, d]].  Entries are re-packed in base m = 2*ell - 1, where
    two such matrices add without carries: top[i, r] and bottom[i, r] hold
    the conjugates of row r (r = a*ell + b) by the i-th _scalar_cosets
    representative in that base, and fold maps a sum back to the code of its
    entries mod ell.  All three are int32, and spread and fold are built by
    broadcasting one digit per axis, with no decode of every index.
    """
    reps = _group_codes(ell)[_scalar_cosets(ell)[0]].astype(np.int32)
    q, m = ell * ell, 2 * ell - 1
    spread = _digits(np.arange(ell, dtype=np.int32), m)
    fold = _digits(np.arange(m, dtype=np.int32) % ell, ell)
    row = np.arange(q, dtype=np.int32)
    top = np.empty((len(reps), q), dtype=np.int32)
    bottom = np.empty_like(top)
    step = max(1, _CHUNK // q)
    for i in range(0, len(reps), step):
        g = reps[i:i + step, None]
        gi = _inv_codes(g, ell).astype(np.int32)
        for out, rows in ((top, row * q), (bottom, row)):
            out[i:i + step] = spread[_mul_codes(_mul_codes(g, rows, ell), gi, ell)]
    return top, bottom, fold


def _digits(digit, base):
    """The flat array of ((w*base + x)*base + y)*base + z over all digit
    quadruples (digit[w], digit[x], digit[y], digit[z]), in index order."""
    out = digit[:, None] * base + digit
    out = out[:, :, None] * base + digit
    out = out[:, :, :, None] * base + digit
    return out.ravel()


def _normalizer_mask(H: Subgroup):
    """N(H) as a mask over the _scalar_cosets representatives (N(H) contains
    the scalars): g normalizes H exactly when g h g^-1 lies in H for each
    generator h."""
    els, gens, ell = H._codes, H._gen_codes, H.ell
    top, bottom, fold = _conj_tables(ell)
    hi, lo = np.divmod(np.array(gens, dtype=np.int64), ell * ell)
    conj = fold[top[:, hi] + bottom[:, lo]]
    pos = np.minimum(np.searchsorted(els, conj), len(els) - 1)
    return (els[pos] == conj).all(axis=1)


def _transversal(ngens, ell):
    """One _scalar_cosets representative per left coset g N(H), where the
    codes ngens generate N(H): the orbits of right multiplication by them."""
    reps, coset = _scalar_cosets(ell)
    g = _group_codes(ell)[reps]
    perms = [coset[_code_index(ell)[_mul_codes(g, n, ell)]] for n in ngens]
    return np.flatnonzero(_orbit_minima(perms, len(reps)) == np.arange(len(reps)))


def _conjugates(H: Subgroup, ngens):
    """The _row_keys key of every conjugate of H, whose normalizer the codes
    ngens generate: g H g^-1 depends only on g N(H), so one slab row per
    coset builds each conjugate once."""
    els, ell = H._codes, H.ell
    top, bottom, fold = _conj_tables(ell)
    cosets = _transversal(ngens, ell)
    keys: set[bytes] = set()
    hi, lo = np.divmod(els, ell * ell)
    step = max(1, _CHUNK // max(1, len(els)))
    for i in range(0, len(cosets), step):
        t = cosets[i:i + step]
        rows = fold[top[t][:, hi] + bottom[t][:, lo]]
        rows.sort(axis=1)
        keys.update(_row_keys(rows))
    return keys


def _normalizer(H: Subgroup):
    """The sorted codes of N(H) and the generators _greedy_generators picks
    for them, H's own first."""
    ell = H.ell
    codes = _group_codes(ell)[_normalizer_mask(H)[_scalar_cosets(ell)[1]]]
    return codes, _greedy_generators(codes, ell, H._gen_codes)


def conjugacy_key(G: Subgroup) -> tuple[int, ...]:
    """The least element-code tuple among all conjugates, one per coset of N(G)."""
    best = min(_conjugates(G, _normalizer(G)[1]))
    return tuple(int(v) for v in np.frombuffer(best, dtype=">i4"))


@lru_cache(maxsize=None)
def _position_tables(ell: int):
    """Over the positions in _group_codes(ell): inversion as a permutation,
    the determinant (int32), whether the order is divisible by ell (exactly
    when one line is fixed), and which of the ell + 1 lines are fixed."""
    group = _group_codes(ell)
    fixed = _line_perm(group, ell) == np.arange(ell + 1)
    return (_code_index(ell)[_inv_codes(group, ell)], _det(group, ell).astype(np.int32),
            fixed.sum(axis=1) == 1, fixed)


def _extension(H: Subgroup, ngens):
    """The extension step for H, whose normalizer the codes ngens generate,
    as the module docstring sets it out: the candidates x, ascending, and a
    function from a candidate to the mask of <H, x>.  H's positions and its
    generators' right-multiplication permutations are built here."""
    ell, gens = H.ell, H._gen_codes
    group, index = _group_codes(ell), _code_index(ell)
    idx = index[H._codes]
    gperms = [_right_perm(c, ell) for c in gens]
    inverse, det, ell_order, fixed = _position_tables(ell)
    top, bottom, fold = _conj_tables(ell)
    hi, lo = _row_codes(ell)
    conj = [index[fold[top[i][hi] + bottom[i][lo]]]  # Gamma conjugates by H already
            for i in _scalar_cosets(ell)[1][index[[c for c in ngens if c not in gens]]]]
    least = _orbit_minima([*conj, *gperms, inverse], len(group)) == np.arange(len(group))
    least[idx] = False
    reducible = fixed[:, fixed[index[list(gens)]].all(axis=0)].any(axis=1)
    has_ell_order = ell_order[idx].any()
    member = np.zeros(len(group), dtype=bool)
    member[idx] = True
    perms = np.array([*gperms, np.arange(len(group), dtype=np.int32)])
    dets = np.bincount(det[idx], minlength=ell) > 0  # det H
    spans: dict[int, np.ndarray] = {}  # det x -> det^-1(det H <det x>)

    def extend(pos):
        x, d = group[pos], int(det[pos])
        if reducible[pos] or not (has_ell_order or ell_order[pos]):
            perms[-1] = _right_perm(x, ell)  # the last row is x's
            ext = _close(member.copy(), perms[-1][idx], perms, whole=True,
                         stop=None if reducible[pos] else ell_order)
            if ext is not None:
                return ext
        if d not in spans:  # <H, x> holds SL_2
            span = dets.copy()
            while not span[(s := np.flatnonzero(span)) * d % ell].all():
                span[s * d % ell] = True
            spans[d] = span[det]
        return spans[d]
    return np.flatnonzero(least), extend


def enumerate_subgroups(ell: int) -> tuple[Subgroup, ...]:
    """All conjugacy classes of subgroups of GL_2(F_ell), one representative
    each, sorted by (order, conjugacy key).

    ell in {2, 3, 5, 7} runs in under a second, ell = 11 in about 1.3 s (2 vCPU);
    the result is computed once per ell and shared by every later call.
    """
    if ell not in ENUMERABLE:
        raise ValueError("subgroup enumeration supports ell in %s, got %d"
                         % (ENUMERABLE, ell))
    return _enumerate(ell)


@lru_cache(maxsize=None)
def _enumerate(ell: int) -> tuple[Subgroup, ...]:
    group = _group_codes(ell)
    classes: list[tuple[Subgroup, list[int], bytes]] = []  # (H, gens of N(H), least key)
    seen: set[bytes] = set()

    def register(codes, gen_codes):
        H = Subgroup(ell, codes, gen_codes)
        ngens = _normalizer(H)[1]
        keys = _conjugates(H, ngens)
        seen.update(keys)
        classes.append((H, ngens, min(keys)))

    register(np.array([_id_code(ell)], dtype=np.int64), ())
    for H, ngens, _ in classes:  # classes grows as it is read
        if H.order == len(group):
            continue
        candidates, extend = _extension(H, ngens)
        for pos in candidates:
            ext = group[extend(pos)]
            if _row_keys(ext[None])[0] in seen:
                continue
            if len(H._gen_codes) + 1 > 3:
                raise VerificationError(
                    "subgroup of GL2(F_%d) needed more than 3 generators" % ell)
            register(ext, H._gen_codes + (int(group[pos]),))

    classes.sort(key=lambda c: (c[0].order, c[2]))
    return tuple(H for H, _, _ in classes)


def normalizer(G: Subgroup) -> Subgroup:
    """N_{GL_2}(G) as a subgroup, found from G's generators (small ell only)."""
    return Subgroup(G.ell, *_normalizer(G))
