"""The group-theoretic heart of the local-global question: classify
semisimple subgroups of GL_2(F_ell) against Cartan subgroups and their
normalizers, test whether every element fixes a line while no line is fixed
globally, verify the dihedral conclusions over all enumerated conjugacy
classes, and construct the explicit groups that realize them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import _require_prime, primitive_root
from .errors import NotSemisimpleError, VerificationError
from .gl2 import (CartanSpec, GL2Element, _cartan_theta, _centralizer_masks,
                  _fixed_line_counts, _group_codes, _inv_codes, _is_scalar, _line_perm,
                  _mul_codes, _orbit_sizes, fixed_point_count, projective_order)
from .subgroups import Subgroup, enumerate_subgroups, from_elements

CASE_CARTAN = "CartanContained"
CASE_NORMALIZER = "NormalizerNotCartan"
CASE_EXCEPTIONAL = "Exceptional"

_EXCEPTIONAL_SHAPES = {
    (12, frozenset((1, 2, 3))): "A4",
    (24, frozenset((1, 2, 3, 4))): "S4",
    (60, frozenset((1, 2, 3, 5))): "A5",
}


def _generator_codes(G: Subgroup):
    return np.array(G._gen_codes, dtype=np.int64)


def _generator_perms(G: Subgroup):
    """The line permutation of each generator, one row per generator."""
    return _line_perm(_generator_codes(G), G.ell)


def projective_image_order(G: Subgroup) -> int:
    return G.order // int(_is_scalar(G.codes, G.ell).sum())


def omega_orbit_sizes(G: Subgroup) -> tuple[int, ...]:
    """Sorted sizes of the orbits of G on the ell + 1 lines."""
    return _orbit_sizes(_generator_perms(G), G.ell + 1)


def common_fixed_count(G: Subgroup) -> int:
    """|Omega^G|: lines fixed by the whole group (= by its generators)."""
    return int((_generator_perms(G) == np.arange(G.ell + 1)).all(axis=0).sum())


def sigma_nontrivial(G: Subgroup) -> bool:
    """Whether some element acts as an odd permutation of the lines.

    The sign is a homomorphism, so checking generators suffices: a
    permutation of ell + 1 lines with s cycles has sign (-1)^(ell + 1 - s).
    """
    n = G.ell + 1
    return any((n - len(_orbit_sizes([p], n))) % 2 for p in _generator_perms(G))


def lemma1_hypothesis(G: Subgroup) -> bool:
    """Every element fixes a line, no line is fixed by all of G, and the
    image is not contained in the kernel of the permutation sign."""
    if not sigma_nontrivial(G):
        return False
    if common_fixed_count(G) != 0:
        return False
    return bool((_fixed_line_counts(G.codes, G.ell) > 0).all())


@dataclass(frozen=True)
class ClassificationResult:
    """Which branch of the semisimple trichotomy a subgroup falls in."""

    case: str
    projective_image_structure: str
    witness: CartanSpec | None
    proj_order: int


def brute_cartan_witness(G: Subgroup, normalizer: bool = False) -> CartanSpec | None:
    """Exhaustive conjugator scan against the standard Cartan subgroups.

    A test oracle for small ell: tries every w in GL_2(F_ell) and every
    kind, and returns the first Cartan w C w^-1, for C standard, that (or
    whose normalizer, with normalizer=True) contains G, named by
    w theta w^-1 for the theta that C centralizes; or None.
    """
    ell = G.ell
    group = _group_codes(ell)
    # rows of w^-1 * g * w for every candidate w
    rows = _mul_codes(_mul_codes(_inv_codes(group, ell)[:, None], G.codes[None, :], ell),
                      group[:, None], ell)
    for kind in ("nonsplit",) if ell == 2 else ("split", "nonsplit"):
        theta = _cartan_theta(kind, ell)
        hit = np.flatnonzero(
            _centralizer_masks(np.int64(theta.code()), rows, ell)[normalizer].all(axis=1))
        if len(hit):
            w = GL2Element.from_code(group[hit[0]], ell)
            return CartanSpec(kind, ell, theta.conjugate_by(w))
    return None


def _verify_inverting_coset(G: Subgroup, in_cartan) -> None:
    """Check the dihedral relation: conjugation by any element outside the
    Cartan (given as a mask over G.codes) inverts the Cartan part modulo
    scalars."""
    ell = G.ell
    torus, coset = G.codes[in_cartan], G.codes[~in_cartan]
    if not len(coset) or 2 * len(torus) != G.order:
        raise VerificationError("Cartan part of %r does not have index 2" % (G,))
    x = coset[0]
    conj = _mul_codes(_mul_codes(x, torus, ell), _inv_codes(x, ell), ell)
    if not _is_scalar(_mul_codes(conj, torus, ell), ell).all():
        raise VerificationError(
            "conjugation by the outer coset of %r does not invert the torus" % (G,))


def classify(G: Subgroup) -> ClassificationResult:
    """The trichotomy for semisimple subgroups: inside a Cartan (cyclic
    projective image), inside a Cartan normalizer but not the Cartan
    (dihedral image), or exceptional (A4, S4, A5).

    The Cartan through a non-scalar semisimple theta is theta's
    centralizer, so G lies in it, or in its normalizer, when each generator
    h commutes with theta, or h theta h^-1 does; the witness is named by
    that theta, an element of G.  Searching every theta in G is exhaustive:
    an abelian G lies in the Cartan of any of its elements; and a
    non-abelian G inside a normalizer N(C) meets C in a non-scalar element,
    whose Cartan is C (were G cap C all scalars, it would be a central
    subgroup of index at most 2 and G would be abelian).
    """
    ell = G.ell
    if G.order % ell == 0:
        raise NotSemisimpleError(
            "|G| = %d is divisible by ell = %d; classification needs order prime to ell"
            % (G.order, ell))
    proj = projective_image_order(G)
    nonscalar = G.codes[~_is_scalar(G.codes, ell)]
    if not len(nonscalar):
        kind = "nonsplit" if ell == 2 else "split"
        spec = CartanSpec(kind, ell, _cartan_theta(kind, ell))
        return ClassificationResult(CASE_CARTAN, "cyclic(1)", spec, 1)
    in_c, in_n = _centralizer_masks(nonscalar[:, None], _generator_codes(G)[None, :], ell)
    hit = np.flatnonzero((in_c | in_n).all(axis=1))
    if len(hit):
        theta = GL2Element.from_code(nonscalar[hit[0]], ell)
        kind = {2: "split", 0: "nonsplit"}.get(fixed_point_count(theta))
        if kind is None:
            raise VerificationError("%r has a repeated eigenvalue; not in any Cartan" % (theta,))
        spec = CartanSpec(kind, ell, theta)
        in_c, in_n = spec.masks(G.codes)
        if in_c.all():
            return ClassificationResult(CASE_CARTAN, "cyclic(%d)" % proj, spec, proj)
        if not in_n.all():
            raise VerificationError("witness %r does not contain %r" % (spec, G))
        _verify_inverting_coset(G, in_c)
        return ClassificationResult(CASE_NORMALIZER, "dihedral(%d)" % proj, spec, proj)
    orders = frozenset(projective_order(g) for g in G.elements)
    shape = _EXCEPTIONAL_SHAPES.get((proj, orders))
    if shape is None:
        raise VerificationError(
            "%r fits no branch of the semisimple trichotomy" % (G,))
    return ClassificationResult(CASE_EXCEPTIONAL, shape, None, proj)


@dataclass(frozen=True)
class LemmaReport:
    """Observed conclusions for one hypothesis-satisfying subgroup."""

    ell: int
    order: int
    n: int
    cartan_kind: str
    orbit_sizes: tuple[int, ...]
    generator_entries: tuple[tuple[int, int, int, int], ...]

    @property
    def proper_containment(self) -> bool:
        """Whether G is smaller than the Cartan normalizer it lies in, of
        order 2(ell - 1)^2 (split) or 2(ell^2 - 1) (nonsplit); False
        outside any."""
        full = {"split": 2 * (self.ell - 1) ** 2, "nonsplit": 2 * (self.ell ** 2 - 1)}
        return self.order < full.get(self.cartan_kind, 0)

    @property
    def has_orbit_of_size_2(self) -> bool:
        return 2 in self.orbit_sizes

    def validate(self) -> None:
        """Raise VerificationError unless all four conclusions hold."""
        problems = []
        if self.n <= 1 or self.n % 2 == 0:
            problems.append("projective image is not dihedral of twice-odd order (n=%d)" % self.n)
        elif ((self.ell - 1) // 2) % self.n:
            problems.append("n = %d does not divide (ell-1)/2 = %d"
                            % (self.n, (self.ell - 1) // 2))
        if self.cartan_kind != "split":
            problems.append("not inside the normalizer of a split Cartan (kind=%r)"
                            % self.cartan_kind)
        if not self.proper_containment:
            problems.append("containment in the normalizer is not proper")
        if self.ell % 4 != 3:
            problems.append("ell = %d is not 3 mod 4" % self.ell)
        if not self.has_orbit_of_size_2:
            problems.append("no orbit of size 2 (orbit sizes %r)" % (self.orbit_sizes,))
        if problems:
            raise VerificationError(
                "ell=%d, |G|=%d, generators %r: %s"
                % (self.ell, self.order, self.generator_entries, "; ".join(problems)))


def lemma_report(G: Subgroup) -> LemmaReport:
    """Fill a LemmaReport for a group satisfying lemma1_hypothesis."""
    if not lemma1_hypothesis(G):
        raise ValueError("subgroup does not satisfy the everywhere-local hypothesis")
    sizes = omega_orbit_sizes(G)
    gens = tuple(g.entries() for g in G.generators)
    try:
        res = classify(G)
    except NotSemisimpleError:
        return LemmaReport(G.ell, G.order, 0, "none", sizes, gens)
    if res.case == CASE_NORMALIZER:
        return LemmaReport(G.ell, G.order, res.proj_order // 2, res.witness.kind, sizes, gens)
    return LemmaReport(G.ell, G.order, 0, "none", sizes, gens)


def lemma1_verify(ell: int) -> tuple[LemmaReport, ...]:
    """Check the four conclusions on every conjugacy class satisfying the
    hypothesis; raises VerificationError on any violation, returns the
    reports (possibly none)."""
    reports = []
    for G in enumerate_subgroups(ell):
        if not lemma1_hypothesis(G):
            continue
        rep = lemma_report(G)
        rep.validate()
        reports.append(rep)
    return tuple(reports)


def construct_prop3_group(ell: int, n: int) -> Subgroup:
    """The dihedral-image group witnessing the hypothesis: all diagonal and
    antidiagonal matrices with entries alpha^i, alpha^j where i = j mod d,
    d = (ell-1)/n.  Order 2(ell-1)^2/d; n = (ell-1)/2 gives the same-parity
    construction."""
    _require_prime(ell)
    if ell <= 3 or ell % 4 != 3:
        raise ValueError("need a prime ell > 3 with ell = 3 mod 4, got %d" % ell)
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3, got %d" % n)
    if ((ell - 1) // 2) % n:
        raise ValueError("n = %d does not divide (ell-1)/2 = %d" % (n, (ell - 1) // 2))
    d = (ell - 1) // n
    alpha = primitive_root(ell)
    pw = [pow(alpha, e, ell) for e in range(ell - 1)]
    els = []
    for i in range(ell - 1):
        for j in range(i % d, ell - 1, d):
            els.append(GL2Element(pw[i], 0, 0, pw[j], ell))
            els.append(GL2Element(0, pw[i], pw[j], 0, ell))
    G = from_elements(els)
    if G.order != 2 * (ell - 1) ** 2 // d:
        raise VerificationError("constructed group has order %d, expected %d"
                                % (G.order, 2 * (ell - 1) ** 2 // d))
    return G


def witness_shape(ell: int, n: int) -> tuple[bool, dict]:
    """Check construct_prop3_group(ell, n): full determinant, every element
    fixing >= 2 lines, none common, dihedral(2n) image, lemma1_hypothesis."""
    G = construct_prop3_group(ell, n)
    det_surjective = G.det_image_size() == ell - 1
    min_fixed = int(_fixed_line_counts(G.codes, ell).min())
    nothing_fixed = common_fixed_count(G) == 0
    res = classify(G)
    dihedral = res.case == CASE_NORMALIZER and res.proj_order == 2 * n
    hypothesis = lemma1_hypothesis(G)
    ok = det_surjective and min_fixed >= 2 and nothing_fixed and dihedral and hypothesis
    return ok, {"order": G.order, "det_surjective": det_surjective,
                "min_fixed_points": min_fixed, "no_common_fixed_point": nothing_fixed,
                "projective_image": res.projective_image_structure,
                "orbit_sizes": list(omega_orbit_sizes(G)), "hypothesis": hypothesis,
                "ok": ok}
