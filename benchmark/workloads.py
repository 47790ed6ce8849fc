"""The benchmark's workloads: inputs made from a seed, one pass through the
program's public functions, and a gate that checks every answer.

Each pass returns a ``Pass``: checks attempted and failed (a raised exception
counts as a failed check), the latency of each item, and the counters that
the traced run reports.  The expected answers below are facts of the
mathematics, stated here so the gate does not trust the code under test.

The seed makes inputs only.  The program's randomized internals keep their
default seed, because one seed shifts every call at once: with a given seed
``rational_linear_factors`` reduces modulo the same 62-bit primes for every
polynomial, and their cost varies with the primes.

The program's functions are always called through their module
(``ecfp.local_scan``, not an imported name) so the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from locisog import ecfp, ecq, localglobal, modpoly, subgroups
from locisog.arith import PrimeFieldElement, QuadFieldElement
from spans import p_bucket

LEVELS = (2, 3, 5, 7)

SIZES = {
    "full": {"ells": (5, 7), "bound": 10 ** 5, "curves": 100, "sample": 16},
    "smoke": {"ells": (3,), "bound": 10 ** 3, "curves": 5, "sample": 4},
}

# conjugacy classes of subgroups of GL2(F_ell), and how many of them satisfy
# the everywhere-local hypothesis (none below 7; four at 7)
EXPECTED_CLASSES = {3: 16, 5: 48, 7: 84}
EXPECTED_HYPOTHESIS = {3: 0, 5: 0, 7: 4}

# the degree-7 exception: Sutherland's curve with j = 2268945/128
REPLAY_CURVE = (1, -1, 0, -107, -379)
REPLAY_J = Fraction(2268945, 128)
REPLAY_BAD = {2, 5, 7}
REPLAY_SKIPPED = (2, 7)
REPLAY_BAD_REDUCTION = (5,)
CERTIFICATE_DEGREES = [2, 3, 3]
PROP3_ORDER = 36
PROP3_ORBITS = (2, 3, 3)

CROSSVAL_BOX = 30
CROSSVAL_PMIN, CROSSVAL_PMAX = 5, 500


def primes_up_to(n: int) -> list[int]:
    """The benchmark's own sieve, independent of locisog.arith."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i, v in enumerate(sieve) if v]


def _c4_c6_disc(a1, a2, a3, a4, a6) -> tuple[int, int, int]:
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6, disc


@dataclass
class Inputs:
    workload: str
    seed: int
    size: str
    ells: tuple = ()
    bound: int = 0
    primes: list = field(default_factory=list)
    sample: list = field(default_factory=list)  # (p, bsgs seed)
    curves: list = field(default_factory=list)  # coefficient tuples

    def digest(self) -> str:
        """sha256 of everything the pass reads, so two commits can be shown
        to have run identical inputs."""
        text = repr((self.workload, self.size, self.ells, self.bound, self.primes,
                     self.sample, self.curves))
        return hashlib.sha256(text.encode()).hexdigest()


def make_inputs(workload: str, seed: int, size: str) -> Inputs:
    sz = SIZES[size]
    rng = random.Random(seed)
    inp = Inputs(workload, seed, size)
    if workload == "lemma":
        inp.ells = sz["ells"]
    elif workload == "replay":
        inp.bound = sz["bound"]
        inp.primes = primes_up_to(inp.bound)
        buckets = {}
        for p in inp.primes:
            if p >= 5 and p not in REPLAY_BAD:  # BSGS needs p >= 5
                buckets.setdefault(p_bucket(p), []).append(p)
        for bucket in buckets.values():
            for p in sorted(rng.sample(bucket, min(sz["sample"], len(bucket)))):
                inp.sample.append((p, rng.randrange(10 ** 9)))
    elif workload == "crossval":
        inp.primes = [p for p in primes_up_to(CROSSVAL_PMAX) if p >= CROSSVAL_PMIN]
        while len(inp.curves) < sz["curves"]:
            coeffs = tuple(rng.randint(-CROSSVAL_BOX, CROSSVAL_BOX) for _ in range(5))
            c4, c6, disc = _c4_c6_disc(*coeffs)
            if disc != 0 and c4 != 0 and c6 != 0:  # nonsingular, j not 0 or 1728
                inp.curves.append(coeffs)
    else:
        raise ValueError("unknown workload %r" % workload)
    return inp


@dataclass
class Data:
    phi: dict
    certificate: tuple


def load_data() -> Data:
    """The shipped data every workload reads: Phi_N for the four levels and
    the Phi_7 factorization certificate."""
    return Data({N: modpoly.shipped_modpoly(N) for N in LEVELS},
                modpoly.shipped_certificate_factors())


def reset_caches() -> None:
    """Empty the program's lazy caches, so that every pass pays what a fresh
    command-line run pays."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("locisog"):
            continue
        for attr, obj in list(vars(mod).items()):
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            elif attr.endswith("_cache") and isinstance(obj, (set, dict)):
                obj.clear()


@dataclass
class Pass:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    items: list = field(default_factory=list)  # seconds per item
    counters: dict = field(default_factory=dict)

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)

    @contextmanager
    def guard(self, what: str):
        """A raised exception counts as one failed check."""
        try:
            yield
        except Exception as e:  # noqa: BLE001 - every raise is a gate failure
            self.check(False, "%s raised %s: %s" % (what, type(e).__name__, e))

    @contextmanager
    def item(self, what: str):
        t0 = perf_counter()
        with self.guard(what):
            yield
        self.items.append(perf_counter() - t0)


def run_lemma(inp: Inputs, data: Data, out: Pass) -> None:
    for ell in inp.ells:
        with out.item("enumerate_subgroups(%d)" % ell):
            classes = subgroups.enumerate_subgroups(ell)
            out.counters["subgroups.classes.l%d" % ell] = len(classes)
            out.check(len(classes) == EXPECTED_CLASSES[ell],
                      "ell=%d: %d classes" % (ell, len(classes)))
            hyp = 0
            for k, G in enumerate(classes):
                with out.guard("ell=%d class %d" % (ell, k)):
                    ok = True
                    if localglobal.lemma1_hypothesis(G):
                        hyp += 1
                        rep = localglobal.lemma_report(G)
                        rep.validate()
                        ok = (rep.n == 3 and rep.cartan_kind == "split"
                              and rep.proper_containment and rep.has_orbit_of_size_2)
                    out.check(ok, "ell=%d class %d: conclusions" % (ell, k))
            out.counters["localglobal.hypothesis_classes.l%d" % ell] = hyp
            out.check(hyp == EXPECTED_HYPOTHESIS[ell],
                      "ell=%d: %d hypothesis classes" % (ell, hyp))


def run_replay(inp: Inputs, data: Data, out: Pass) -> None:
    E = ecq.WeierstrassCurve(*REPLAY_CURVE)
    with out.guard("invariants"):
        out.check(ecq.invariants(E).j == REPLAY_J, "j-invariant")
        out.check(ecq.bad_primes(E) == REPLAY_BAD, "bad primes")
    with out.guard("local_scan"):
        scan = ecfp.local_scan(E, 7, inp.bound)
        bad = tuple(e.p for e in scan.entries if e.status == "bad_reduction")
        out.counters["ecfp.local_scan.primes"] = len(scan.entries)
        out.counters["ecfp.local_scan.admitted"] = len(scan.admitted)
        out.check(scan.all_admitted, "rejected at %s" % (scan.rejected[:5],))
        out.check(scan.skipped == REPLAY_SKIPPED, "skipped %s" % (scan.skipped,))
        out.check(bad == REPLAY_BAD_REDUCTION, "bad reduction at %s" % (bad,))
        out.check(len(scan.entries) == len(inp.primes), "scanned %d primes" % len(scan.entries))
    M = data.phi[7]
    for p in inp.primes:
        if p in REPLAY_BAD:
            continue
        with out.item("Phi_7 at p=%d" % p):
            jp = PrimeFieldElement(REPLAY_J.numerator * pow(REPLAY_J.denominator, -1, p), p)
            out.check(modpoly.fp_linear_factor_count(M, jp) >= 2
                      and modpoly.fp_root_count(M, jp) >= 1, "Phi_7 at p=%d" % p)
    with out.guard("certificate"):
        target = modpoly.evaluate_at_j(M, REPLAY_J)
        out.check(modpoly.rational_linear_factors(target) == (),
                  "rational root of Phi_7(X, j)")
        rep = modpoly.verify_certificate(
            modpoly.FactorizationCertificate(tuple(target), data.certificate))
        out.check(rep.product_matches, "certificate product: %s" % rep.detail)
        out.check(sorted(d.degree for d in rep.discriminants) == CERTIFICATE_DEGREES
                  and all(d.matches_shape for d in rep.discriminants),
                  "certificate discriminant shapes")
    with out.guard("twist and maps"):
        x = Fraction(-1, 2)
        out.check(ecq.quartic_point_check(x, Fraction(1, 4))
                  and ecq.quartic_point_check(x, Fraction(-1, 4)), "points on the twist")
        out.check(ecq.eval_map_f(x) == REPLAY_J, "f(-1/2) = j")
        gx, square = ecq.map_49a3_to_quartic_x(-14, QuadFieldElement(7, 29, -1))
        out.check(gx == QuadFieldElement(Fraction(-29, 58), Fraction(7, 58), -1)
                  and square is True, "Q(i) point")
    with out.guard("construct_prop3_group(7, 3)"):
        G = localglobal.construct_prop3_group(7, 3)
        res = localglobal.classify(G)
        out.check(G.order == PROP3_ORDER and res.case == localglobal.CASE_NORMALIZER
                  and res.proj_order == 6, "group shape %s" % (res,))
        out.check(localglobal.omega_orbit_sizes(G) == PROP3_ORBITS, "group orbits")
    for p, s in inp.sample:
        with out.guard("naive vs bsgs at p=%d" % p):
            out.check(ecfp.count_points(E, p, method="naive")
                      == ecfp.count_points(E, p, method="bsgs", seed=s),
                      "naive != bsgs at p=%d" % p)


def run_crossval(inp: Inputs, data: Data, out: Pass) -> None:
    for coeffs in inp.curves:
        with out.item("curve %s" % (coeffs,)):
            _crossval_curve(ecq.WeierstrassCurve(*coeffs), inp, data, out)


def _crossval_curve(E, inp: Inputs, data: Data, out: Pass) -> None:
    disc = int(E.discriminant())
    j = ecq.invariants(E).j
    admitted_everywhere = dict.fromkeys(LEVELS, True)
    for p in inp.primes:
        if disc % p == 0:
            continue
        jp = PrimeFieldElement(j.numerator * pow(j.denominator, -1, p), p)
        local = ecfp.reduce_and_count(E, p)
        for N in LEVELS:
            if p == N:
                continue
            admitted = ecfp.local_isogeny_admitted(local, N)
            admitted_everywhere[N] = admitted_everywhere[N] and admitted
            if jp.value in (0, 1728 % p):
                continue
            has_root = modpoly.fp_root_count(data.phi[N], jp) > 0
            if local.supersingular:
                # isogenies between supersingular j may live only over F_p^2,
                # so only "admitted implies root" is a theorem there
                out.check(not admitted or has_root, "p=%d N=%d supersingular" % (p, N))
            else:
                out.check(admitted == has_root, "p=%d N=%d" % (p, N))
    for N in LEVELS:
        roots = modpoly.rational_linear_factors(modpoly.evaluate_at_j(data.phi[N], j))
        # a rational N-isogeny reduces to an F_p-rational one at every good p
        out.check(not roots or admitted_everywhere[N], "N=%d global but not local" % N)
        if N == 2:
            out.check(bool(roots) == bool(ecq.two_torsion_x(E)), "N=2 vs two-torsion")


RUNNERS = {"lemma": run_lemma, "replay": run_replay, "crossval": run_crossval}
