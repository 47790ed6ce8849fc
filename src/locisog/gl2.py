"""GL_2 over a prime field: matrices, their action on the projective line
P^1(F_ell), and Cartan subgroups together with their normalizers.

Matrices are packed into the integer code ((a*ell + b)*ell + c)*ell + d, an
order-preserving bijection with row-major entry tuples; this module owns
that format, and the private helpers below work on numpy arrays of codes
and on single Python-int codes alike.  GL2Element, the view of one matrix
that users see, holds only its code and calls those helpers.

The lines through the origin in F_ell^2 are the indices 0..ell: t < ell is
the line (1 : t) and ell is (0 : 1).  Matrices act by left multiplication
on column vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import _require_prime, smallest_nonresidue
from .errors import VerificationError


def _decode(codes, ell):
    d = codes % ell
    r = codes // ell
    c = r % ell
    r = r // ell
    return r // ell, r % ell, c, d


def _encode(a, b, c, d, ell):
    return ((a * ell + b) * ell + c) * ell + d


def _id_code(ell: int) -> int:
    return _encode(1, 0, 0, 1, ell)


def _mul_codes(u, v, ell):
    a1, b1, c1, d1 = _decode(u, ell)
    a2, b2, c2, d2 = _decode(v, ell)
    return _encode((a1 * a2 + b1 * c2) % ell, (a1 * b2 + b1 * d2) % ell,
                   (c1 * a2 + d1 * c2) % ell, (c1 * b2 + d1 * d2) % ell, ell)


@lru_cache(maxsize=None)
def _inv_table(ell: int):
    t = np.zeros(ell, dtype=np.int64)
    for x in range(1, ell):
        t[x] = pow(x, -1, ell)
    return t


def _det(codes, ell):
    a, b, c, d = _decode(codes, ell)
    return (a * d - b * c) % ell


def _inv_codes(codes, ell):
    a, b, c, d = _decode(codes, ell)
    di = _inv_table(ell)[_det(codes, ell)]
    return _encode(d * di % ell, (-b * di) % ell, (-c * di) % ell, a * di % ell, ell)


@lru_cache(maxsize=None)
def _group_codes(ell: int):
    """Sorted codes of every invertible matrix over F_ell."""
    _require_prime(ell)
    codes = np.arange(ell ** 4, dtype=np.int64)
    return codes[_det(codes, ell) != 0]


def _is_scalar(codes, ell):
    a, b, c, d = _decode(codes, ell)
    return (b == 0) & (c == 0) & (a == d)


class GL2Element:
    """An invertible 2x2 matrix [[a, b], [c, d]] over F_ell, immutable."""

    __slots__ = ("ell", "_code")

    def __init__(self, a: int, b: int, c: int, d: int, ell: int):
        _require_prime(ell)
        code = int(_encode(a % ell, b % ell, c % ell, d % ell, ell))
        if _det(code, ell) == 0:
            raise ValueError("singular matrix [[%d,%d],[%d,%d]] mod %d"
                             % (*_decode(code, ell), ell))
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "_code", code)

    @classmethod
    def _view(cls, code, ell: int) -> "GL2Element":
        """The element with a code already known to be invertible."""
        g = object.__new__(cls)
        object.__setattr__(g, "ell", ell)
        object.__setattr__(g, "_code", int(code))
        return g

    def __setattr__(self, *args):
        raise AttributeError("GL2Element is immutable")

    @classmethod
    def identity(cls, ell: int) -> "GL2Element":
        return cls(1, 0, 0, 1, ell)

    @classmethod
    def from_code(cls, code: int, ell: int) -> "GL2Element":
        return cls(*_decode(int(code), ell), ell)

    def code(self) -> int:
        """Pack the entries into ((a*ell + b)*ell + c)*ell + d."""
        return self._code

    def entries(self) -> tuple[int, int, int, int]:
        return _decode(self._code, self.ell)

    def det(self) -> int:
        return _det(self._code, self.ell)

    def is_scalar(self) -> bool:
        return _is_scalar(self._code, self.ell)

    def __mul__(self, other: "GL2Element") -> "GL2Element":
        if not isinstance(other, GL2Element):
            return NotImplemented
        if other.ell != self.ell:
            raise ValueError("mixed moduli %d and %d" % (self.ell, other.ell))
        return GL2Element._view(_mul_codes(self._code, other._code, self.ell), self.ell)

    def inverse(self) -> "GL2Element":
        return GL2Element._view(_inv_codes(self._code, self.ell), self.ell)

    def __pow__(self, e: int) -> "GL2Element":
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = GL2Element.identity(self.ell)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conjugate_by(self, g: "GL2Element") -> "GL2Element":
        return g * self * g.inverse()

    def __eq__(self, other):
        return (isinstance(other, GL2Element) and self.ell == other.ell
                and self._code == other._code)

    def __hash__(self):
        return hash((self.ell, self._code))

    def __repr__(self):
        return "GL2Element(%d, %d, %d, %d, ell=%d)" % (*self.entries(), self.ell)


def _line_perm(codes, ell):
    """The image of every line under every code, as an array of shape
    codes.shape + (ell + 1,) of line indices."""
    a, b, c, d = (v[..., None] for v in _decode(np.asarray(codes, dtype=np.int64), ell))
    x = np.append(np.ones(ell, dtype=np.int64), 0)
    y = np.append(np.arange(ell), 1)
    u = (a * x + b * y) % ell
    v = (c * x + d * y) % ell
    return np.where(u == 0, ell, v * _inv_table(ell)[u] % ell)


def _orbit_minima(perms, n: int):
    """The least index in the orbit of each of 0..n-1 under the group that
    the permutations `perms` (index arrays of length n) generate, as int32.
    A sweep lowers each label to the label of its image under each
    permutation; a sweep that changes nothing leaves every label at most
    the labels along each cycle, so constant on orbits, and the group is
    finite, so no inverse permutation is needed."""
    labels = np.arange(n, dtype=np.int32)
    while True:
        before = labels.copy()
        for p in perms:
            np.minimum(labels, labels[p], out=labels)
        labels = labels[labels]  # each label lies in its index's orbit
        if (labels == before).all():
            return labels


def _orbit_sizes(perms, n: int) -> tuple[int, ...]:
    """Sorted orbit sizes of the group the permutations `perms` generate."""
    counts = np.bincount(_orbit_minima(perms, n), minlength=n)
    return tuple(sorted(int(t) for t in counts[counts > 0]))


def _fixed_line_counts(codes, ell):
    """|Omega^g| for every code g: the fixed points of its action on lines."""
    return (_line_perm(codes, ell) == np.arange(ell + 1)).sum(axis=-1)


def fixed_point_count(g: GL2Element) -> int:
    """|Omega^g|: the number of lines g fixes."""
    return int(_fixed_line_counts(g.code(), g.ell))


def projective_order(g: GL2Element) -> int:
    """Order of the image of g in PGL_2(F_ell)."""
    ell, code = g.ell, g.code()
    h, r = code, 1
    while not _is_scalar(h, ell):
        h = _mul_codes(h, code, ell)
        r += 1
    return r


@dataclass(frozen=True)
class ElementActionProfile:
    """Orbit statistics of one matrix on P^1(F_ell).

    r: order of the image in PGL_2; orbit_sizes: sorted orbit sizes.  From
    the sizes follow k, the fixed points; s, the number of orbits; and
    sigma = (-1)^(ell + 1 - s), the sign of the permutation.
    """

    ell: int
    r: int
    orbit_sizes: tuple[int, ...]

    @property
    def k(self) -> int:
        return self.orbit_sizes.count(1)

    @property
    def s(self) -> int:
        return len(self.orbit_sizes)

    @property
    def sigma(self) -> int:
        return (-1) ** (self.ell + 1 - self.s)

    def validate(self) -> None:
        n = self.ell + 1
        if self.k not in (0, 1, 2, n):
            raise VerificationError("profile %r: k not in {0, 1, 2, ell+1}" % (self,))
        if sum(self.orbit_sizes) != n:
            raise VerificationError("profile %r: orbit sizes do not cover P^1" % (self,))
        if any(t != self.r for t in self.orbit_sizes if t > 1):
            raise VerificationError("profile %r: non-trivial orbit size differs from r" % (self,))


def action_profile(g: GL2Element) -> ElementActionProfile:
    """Full orbit decomposition of <g> acting on P^1(F_ell)."""
    sizes = _orbit_sizes([_line_perm(g.code(), g.ell)], g.ell + 1)
    prof = ElementActionProfile(g.ell, projective_order(g), sizes)
    prof.validate()
    return prof


def _cartan_theta(kind: str, ell: int) -> GL2Element:
    """The element theta whose centralizer is the standard Cartan of this
    kind: diag(1, -1) for split, [[0, z], [1, 0]] for nonsplit with z the
    least non-residue, and [[0, 1], [1, 1]] for the nonsplit Cartan at
    ell = 2, where x^2 + x + 1 is the irreducible quadratic.  The Cartan is
    then the unit group of F_ell[theta]."""
    if kind == "split":
        return GL2Element(1, 0, 0, -1, ell)
    if ell == 2:
        return GL2Element(0, 1, 1, 1, 2)
    return GL2Element(0, smallest_nonresidue(ell), 1, 0, ell)


def _centralizer_masks(theta, codes, ell):
    """(g commutes with theta, g theta g^-1 commutes with theta) for every
    code g, with theta broadcast against codes.  For a non-scalar
    semisimple theta these test membership in its Cartan F_ell[theta]^*
    (theta's centralizer) and in that Cartan's normalizer."""

    def commutes(u):
        return _mul_codes(u, theta, ell) == _mul_codes(theta, u, ell)

    return commutes(codes), commutes(_mul_codes(_mul_codes(codes, theta, ell),
                                                _inv_codes(codes, ell), ell))


def cartan(kind: str, ell: int) -> frozenset[GL2Element]:
    """The standard Cartan subgroup of GL_2(F_ell).

    split: diagonal matrices, order (ell-1)^2 (undefined for ell = 2).
    nonsplit: [[x, z*y], [y, x]] for the least non-residue z, order ell^2 - 1;
    for ell = 2 the unique subgroup of order 3.
    """
    if kind not in ("split", "nonsplit"):
        raise ValueError("kind must be 'split' or 'nonsplit', got %r" % (kind,))
    _require_prime(ell)
    if kind == "split" and ell == 2:
        raise ValueError("split Cartan is undefined for ell = 2 "
                         "(the diagonal torus of GL2(F_2) is trivial)")
    ta, tb, tc, td = _cartan_theta(kind, ell).entries()
    span = (_encode((x + y * ta) % ell, y * tb % ell, y * tc % ell, (x + y * td) % ell, ell)
            for x in range(ell) for y in range(ell))
    return frozenset(GL2Element._view(c, ell) for c in span if _det(c, ell))


@dataclass(frozen=True)
class CartanSpec:
    """A Cartan subgroup named by an element theta with distinct
    eigenvalues that it centralizes: the subgroup is theta's centralizer
    F_ell[theta]^*, split when theta's eigenvalues lie in F_ell and
    nonsplit when they do not."""

    kind: str
    ell: int
    theta: GL2Element

    def masks(self, codes):
        """(in this Cartan, in its normalizer) for every code in an array."""
        return _centralizer_masks(np.int64(self.theta.code()), codes, self.ell)
