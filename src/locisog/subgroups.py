"""Subgroups of GL_2(F_ell) as explicit element sets: generated closures,
conjugacy keys and normalizers, and exhaustive enumeration of conjugacy
classes for small ell.

A Subgroup holds the sorted numpy array of its elements' codes (the packed
integers of gl2).  Closure works on positions in the sorted code list of
GL_2 (_group_codes): each generator becomes its right-multiplication
permutation of those positions, and a BFS marks new elements in a boolean
mask over the group.  Adding one element x to a
subgroup H that is already closed starts the BFS from H*x, not from the
identity.  Checking that an explicit element set is a subgroup runs the same
BFS on positions in the set's own sorted codes, so its cost follows the
size of the set, not of GL_2.

Enumeration is the cyclic-extension method: extend each known class
representative H by one element x at a time until a fixpoint.  Candidates
are taken one per orbit of the normalizer N(H) acting on the complement by
conjugation (conjugate candidates generate conjugate extensions), and an
orbit is skipped when it meets H y H or H y^-1 H for a candidate y already
tried, since <H, y h> = <H, y^-1> = <H, y>.  A new class is registered by a
single pass of conjugation slabs over GL_2 modulo scalars (which act
trivially); that pass records every conjugate element set, for exact
identification of later extensions, and the class's normalizer, for
choosing its candidates.  Conjugation is table-driven (_conj_tables).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .arith import _require_prime
from .errors import VerificationError
from .gl2 import (GL2Element, _decode, _encode, _group_codes, _id_code, _inv_codes,
                  _inv_table, _mul_codes, _orbit_minima)

ENUMERABLE = (2, 3, 5, 7, 11)

_CHUNK = 1 << 17  # element budget per vectorized conjugation slab


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


def _close(member, seeds, perms):
    """Close the boolean mask `member` (over the positions of a sorted code
    array, which the permutations `perms` act on) in place.

    `member` must already be closed under right multiplication by `perms`
    except for the products listed in `seeds` (positions, marked or not); the
    BFS starts from the unmarked seeds only.  Closing a subgroup H with a new
    element x is then close(H, H*x, gens(H) + [x]).
    """
    fresh = np.zeros_like(member)
    fresh[seeds] = True
    while True:
        np.greater(fresh, member, out=fresh)  # fresh &= ~member
        frontier = fresh.nonzero()[0]
        if not len(frontier):
            return member
        member |= fresh
        for p in perms:
            fresh[p[frontier]] = True


def _generated(gen_codes, ell):
    """Sorted codes of the subgroup generated by gen_codes."""
    member = np.zeros(len(_group_codes(ell)), dtype=bool)
    member[_code_index(ell)[_id_code(ell)]] = True
    gens = [int(c) for c in gen_codes]
    _close(member, _code_index(ell)[np.array(gens, dtype=np.int64)],
           [_right_perm(c, ell) for c in set(gens)])
    return _group_codes(ell)[member]


def _sorted_key(codes) -> bytes:
    # big-endian so byte order == numeric lexicographic order
    return codes.astype(">i4").tobytes()


def _row_keys(rows) -> list[bytes]:
    """_sorted_key of every row of a 2-d code array."""
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view("V%d" % (4 * rows.shape[1])).ravel().tolist()


class Subgroup:
    """A subgroup of GL_2(F_ell) held as the sorted array of element codes."""

    __slots__ = ("ell", "_codes", "_gen_codes", "_el_cache")

    def __init__(self, ell: int, codes, gen_codes: tuple[int, ...]):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_gen_codes", tuple(int(c) for c in gen_codes))
        object.__setattr__(self, "_el_cache", None)

    def __setattr__(self, *args):
        raise AttributeError("Subgroup is immutable")

    @property
    def order(self) -> int:
        return len(self._codes)

    @property
    def codes(self):
        """The sorted numpy array of element codes."""
        return self._codes

    @property
    def elements(self) -> tuple[GL2Element, ...]:
        if self._el_cache is None:
            els = tuple(GL2Element.from_code(int(c), self.ell) for c in self._codes)
            object.__setattr__(self, "_el_cache", els)
        return self._el_cache

    @property
    def generators(self) -> tuple[GL2Element, ...]:
        return tuple(GL2Element.from_code(c, self.ell) for c in self._gen_codes)

    def det_image_size(self) -> int:
        a, b, c, d = _decode(self._codes, self.ell)
        return len(np.unique((a * d - b * c) % self.ell))

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.ell == other.ell
                and len(self._codes) == len(other._codes)
                and bool((self._codes == other._codes).all()))

    def __hash__(self):
        return hash((self.ell, _sorted_key(self._codes)))

    def __repr__(self):
        return "Subgroup(ell=%d, order=%d)" % (self.ell, self.order)


def closure(generators, ell: int | None = None) -> Subgroup:
    """The subgroup generated by the given GL2Elements (trivial when empty)."""
    gens = list(generators)
    if not gens:
        if ell is None:
            raise ValueError("need ell to build the trivial subgroup from no generators")
        _require_prime(ell)
        return Subgroup(ell, np.array([_id_code(ell)], dtype=np.int64), ())
    mods = {g.ell for g in gens}
    if len(mods) != 1:
        raise ValueError("generators live over different moduli: %s" % sorted(mods))
    m = mods.pop()
    if ell is not None and ell != m:
        raise ValueError("generators live over F_%d, not F_%d" % (m, ell))
    codes = [g.code() for g in gens]
    return Subgroup(m, _generated(codes, m), tuple(codes))


def _set_perm(codes, g: int, ell: int):
    """Right multiplication by g as a permutation of the positions in the
    sorted code array `codes`, or None when a product falls outside it."""
    prod = _mul_codes(codes, g, ell)
    pos = np.searchsorted(codes, prod)
    pos[pos == len(codes)] = 0
    return pos if (codes[pos] == prod).all() else None


def from_elements(elements, generators=None) -> Subgroup:
    """Wrap an explicit element set, verifying it really is a subgroup.

    The check works on the set's own sorted codes: each generator must map
    the set into itself, and the generators must reach every element from
    the identity."""
    els = set(elements)
    if not els:
        raise ValueError("a subgroup needs at least the identity")
    ell = next(iter(els)).ell
    if any(g.ell != ell for g in els):
        raise ValueError("mixed moduli in element set")
    codes = np.array(sorted(g.code() for g in els), dtype=np.int64)
    ident = codes == _id_code(ell)
    if not ident.any():
        raise ValueError("element set lacks the identity")
    if generators is None:
        gen_codes = _greedy_generators(codes, ell)
        if gen_codes is None:
            raise ValueError("element set is not closed under multiplication")
    else:
        gen_codes = tuple(g.code() for g in generators)
        perms = [_set_perm(codes, c, ell) for c in set(gen_codes)]
        if any(p is None for p in perms):
            raise ValueError("element set is not closed under the stated generators")
        if not _close(np.zeros_like(ident), np.flatnonzero(ident), perms).all():
            raise ValueError("stated generators do not generate the element set")
    return Subgroup(ell, codes, gen_codes)


def _greedy_generators(codes, ell):
    """Generators of the element set with sorted codes `codes`, which holds
    the identity: each code, in order, that the earlier ones do not already
    generate.  None when the set is not closed under multiplication."""
    member = codes == _id_code(ell)
    size = 1
    gens: list[int] = []
    perms = []
    for i, c in enumerate(codes.tolist()):
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
    entries mod ell.
    """
    reps = _group_codes(ell)[_scalar_cosets(ell)[0]]
    q, m = ell * ell, 2 * ell - 1
    a, b, c, d = _decode(np.arange(ell ** 4), ell)
    spread = (((a * m + b) * m + c) * m + d).astype(np.int32)
    top = np.empty((len(reps), q), dtype=np.int32)
    bottom = np.empty_like(top)
    step = max(1, _CHUNK // q)
    for i in range(0, len(reps), step):
        g = reps[i:i + step, None]
        gi = _inv_codes(g, ell)
        for out, rows in ((top, np.arange(q) * q), (bottom, np.arange(q))):
            out[i:i + step] = spread[_mul_codes(_mul_codes(g, rows, ell), gi, ell)]
    s = np.arange(m ** 4)
    fold = _encode(s // m ** 3 % ell, s // m ** 2 % m % ell, s // m % m % ell,
                   s % m % ell, ell)
    return top, bottom, fold


def _conjugates(els, ell):
    """One pass of conjugation slabs over the sorted code array els: the
    _sorted_key of every conjugate, and the normalizer as a mask over
    _group_codes(ell)."""
    top, bottom, fold = _conj_tables(ell)
    reps, coset = _scalar_cosets(ell)
    normal = np.empty(len(reps), dtype=bool)
    keys: set[bytes] = set()
    hi, lo = np.divmod(els, ell * ell)
    step = max(1, _CHUNK // max(1, len(els)))
    for i in range(0, len(top), step):
        sl = slice(i, i + step)
        rows = fold[top[sl][:, hi] + bottom[sl][:, lo]]
        rows.sort(axis=1)
        normal[sl] = (rows == els[None, :]).all(axis=1)
        keys.update(_row_keys(rows))
    return keys, normal[coset]


def conjugacy_key(G: Subgroup) -> tuple[int, ...]:
    """The lexicographically least element-code tuple among all conjugates."""
    best = min(_conjugates(G._codes, G.ell)[0])
    return tuple(int(v) for v in np.frombuffer(best, dtype=">i4"))


def _conj_perms(ngens, ell):
    """Conjugation by each code in ngens, as a permutation of the positions
    in _group_codes(ell)."""
    top, bottom, fold = _conj_tables(ell)
    coset = _scalar_cosets(ell)[1]
    idx = _code_index(ell)
    hi, lo = _row_codes(ell)
    return [idx[fold[top[i][hi] + bottom[i][lo]]] for i in coset[idx[ngens]]]


def enumerate_subgroups(ell: int) -> tuple[Subgroup, ...]:
    """All conjugacy classes of subgroups of GL_2(F_ell), one representative
    each, sorted by (order, conjugacy key).

    ell in {2, 3, 5, 7} runs in under a second, ell = 11 in a few seconds.
    """
    if ell not in ENUMERABLE:
        raise ValueError("subgroup enumeration supports ell in %s, got %d"
                         % (ENUMERABLE, ell))
    group = _group_codes(ell)
    n = len(group)
    inverse = _code_index(ell)[_inv_codes(group, ell)]
    perms: dict[int, np.ndarray] = {}  # class generator code -> _right_perm

    classes: list[dict] = []
    seen: set[bytes] = set()

    def register(idx, gen_codes):
        keys, nmask = _conjugates(group[idx], ell)
        seen.update(keys)
        classes.append({"idx": idx, "gens": tuple(int(c) for c in gen_codes),
                        "key": min(keys), "nmask": nmask})

    register(_code_index(ell)[[_id_code(ell)]], ())
    qi = 0
    while qi < len(classes):
        rec = classes[qi]
        qi += 1
        idx = rec["idx"]
        if len(idx) == n:
            continue
        ngens = _greedy_generators(group[rec["nmask"]], ell)
        member = np.zeros(n, dtype=bool)
        member[idx] = True
        gperms = []
        for c in rec["gens"]:
            if c not in perms:
                perms[c] = _right_perm(c, ell)
            gperms.append(perms[c])
        labels = _orbit_minima(_conj_perms(ngens, ell), n)
        # tried[m] marks orbit minima m whose extension is a conjugate of
        # one already closed, so already in `seen`: for x' in H x H or
        # H x^-1 H, <H, x'> = <H, x>; for x' in the N(H)-orbit of such an
        # element, <H, x'> is a conjugate of <H, x>
        tried = member.copy()
        for pos in np.flatnonzero(labels == np.arange(n)):
            if tried[pos]:
                continue
            px = _right_perm(group[pos], ell)
            double = np.flatnonzero(_close(member.copy(), px[idx], gperms))
            tried[labels[double]] = True
            tried[labels[inverse[double]]] = True
            ext = np.flatnonzero(_close(member.copy(), px[idx], gperms + [px]))
            if _sorted_key(group[ext]) in seen:
                continue
            if len(rec["gens"]) + 1 > 3:
                raise VerificationError(
                    "subgroup of GL2(F_%d) needed more than 3 generators" % ell)
            register(ext, rec["gens"] + (int(group[pos]),))

    order = sorted(range(len(classes)),
                   key=lambda i: (len(classes[i]["idx"]), classes[i]["key"]))
    return tuple(Subgroup(ell, group[classes[i]["idx"]], classes[i]["gens"]) for i in order)


def normalizer(G: Subgroup) -> Subgroup:
    """N_{GL_2}(G) as a subgroup (explicit scan; small ell only)."""
    mask = _conjugates(G._codes, G.ell)[1]
    codes = _group_codes(G.ell)[mask]
    return Subgroup(G.ell, codes, _greedy_generators(codes, G.ell))
