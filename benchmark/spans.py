"""Span recorder for the traced benchmark run (standard library only).

Every public function of the five layer modules is wrapped so that each call
records a span: a label, start and end from ``perf_counter``, and the index
of the span that was open when it started.  Spans stay in memory and are
written out once, when the run ends.  Wrapping happens in the benchmark
process only; no file of the program changes.

Labels are ``<module>.<function>`` with a bucket appended where the cost of a
call depends on its input: the prime for point counting and F_p root
extraction, the level for modular polynomials, and ell for the subgroup
enumeration.  The bucket edges are fixed here so that moving a threshold in
the program does not move them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("subgroups", "localglobal", "ecfp", "modpoly", "ecq")
P_BUCKETS = ("p1k", "p16k", "p64k", "p128k")
LEVELS = ("N2", "N3", "N5", "N7")


def p_bucket(p: int) -> str:
    """Fixed prime buckets: below 2^10, 2^14, 2^16, and the rest."""
    if p < 1 << 10:
        return "p1k"
    if p < 1 << 14:
        return "p16k"
    if p < 1 << 16:
        return "p64k"
    return "p128k"


class Recorder:
    """Spans as parallel lists; one thread, so the open-span stack is a list."""

    def __init__(self):
        self.labels: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def wrap(self, fn, label_of):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(rec.labels)
            rec.labels.append(label_of(*args, **kwargs))
            rec.parents.append(rec._open[-1] if rec._open else -1)
            rec.ends.append(0.0)
            rec._open.append(i)
            rec.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.ends[i] = perf_counter()
                rec._open.pop()

        return traced

    def write(self, path) -> None:
        names = sorted(set(self.labels))
        code = {n: k for k, n in enumerate(names)}
        rows = [[code[lab], s, e, par] for lab, s, e, par
                in zip(self.labels, self.starts, self.ends, self.parents)]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"labels": names, "fields": ["label", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def _count_points_label(E, p, method="auto", seed=0):
    # for "auto", name the method count_points itself picks at this prime
    if method == "auto":
        limit = getattr(sys.modules["locisog.ecfp"], "NAIVE_LIMIT", None)
        method = "auto" if limit is None else ("naive" if p <= limit else "bsgs")
    return "ecfp.count_points.%s.%s" % (method, p_bucket(p))


def _level_of_coeffs(coeffs, seed=0):
    # Phi_N(X, j) has N + 2 coefficients
    return "modpoly.rational_linear_factors.N%d" % (len(coeffs) - 2)


_SPECIAL_LABELS = {
    "subgroups.enumerate_subgroups":
        lambda ell, expensive=False: "subgroups.enumerate_subgroups.l%d" % ell,
    "ecfp.count_points": _count_points_label,
    "modpoly.fp_linear_factor_count":
        lambda M, j: "modpoly.fp_linear_factor_count.%s" % p_bucket(j.modulus),
    "modpoly.fp_root_count": lambda M, j: "modpoly.fp_root_count.N%d" % M.level,
    "modpoly.rational_linear_factors": _level_of_coeffs,
    # the three exact checks on the twist quartic and its maps form one stage
    "ecq.quartic_point_check": "ecq.twist_and_maps",
    "ecq.eval_map_f": "ecq.twist_and_maps",
    "ecq.map_49a3_to_quartic_x": "ecq.twist_and_maps",
}


def _labeller(name: str):
    label = _SPECIAL_LABELS.get(name, name)
    if callable(label):
        return label
    return lambda *args, **kwargs: label


def instrument(recorder: Recorder):
    """Wrap every public function of the layer modules, and LemmaReport.validate,
    wherever a locisog module holds a reference to it.  Returns the undo."""
    package = {name: mod for name, mod in sys.modules.items()
               if name == "locisog" or name.startswith("locisog.")}
    undo = []
    for layer in LAYERS:
        mod = package["locisog." + layer]
        for name, fn in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__:
                continue
            traced = recorder.wrap(fn, _labeller("%s.%s" % (layer, name)))
            for holder in package.values():
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, traced)
                        undo.append((holder, attr, fn))
    report = package["locisog.localglobal"].LemmaReport
    validate = report.validate
    report.validate = recorder.wrap(validate, _labeller("localglobal.validate"))
    undo.append((report, "validate", validate))

    def restore():
        for holder, attr, fn in reversed(undo):
            setattr(holder, attr, fn)

    return restore


def nearest_rank(ordered: list, q: float):
    """The q-th percentile of an ascending list by the nearest-rank rule."""
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(ordered: list) -> tuple[float, int]:
    """(value, q): the highest whole percentile q with at least ten samples
    beyond it, or the maximum (q = 100) when there are ten samples or fewer."""
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    q = (100 * (n - 10)) // n
    return nearest_rank(ordered, q), q


def _stat(durations: list, stat: str) -> float:
    if stat == "calls":
        return len(durations)
    if stat == "s":
        return math.fsum(durations)
    if not durations:
        return 0.0
    ordered = sorted(durations)
    if stat == "p50_us":
        return nearest_rank(ordered, 50) * 1e6
    if stat == "p99_us":
        return nearest_rank(ordered, 99) * 1e6
    if stat == "p50_ms":
        return nearest_rank(ordered, 50) * 1e3
    if stat == "tail_ms":
        return tail(ordered)[0] * 1e3
    raise KeyError(stat)


STATS = ("calls", "s", "p50_us", "p99_us", "p50_ms", "tail_ms")


def layer_values(rec: Recorder, window_start: float) -> tuple[dict, dict, float]:
    """(durations by label over all spans, self seconds by layer and covered
    seconds, both over the spans that start at or after window_start)."""
    n = len(rec.labels)
    child = [0.0] * n
    for i in range(n):
        if rec.parents[i] >= 0:
            child[rec.parents[i]] += rec.ends[i] - rec.starts[i]
    durations = defaultdict(list)
    self_s = defaultdict(float)
    covered = 0.0
    for i in range(n):
        d = rec.ends[i] - rec.starts[i]
        durations[rec.labels[i]].append(d)
        if rec.starts[i] >= window_start:
            self_s[rec.labels[i].split(".", 1)[0]] += d - child[i]
            if rec.parents[i] < 0:
                covered += d
    return durations, self_s, covered


def per_layer_metrics(names, durations: dict, self_s: dict, given: dict) -> dict:
    """Value of each named per-layer metric: taken from ``given`` (counters and
    run-level figures), or ``<layer>.self_s``, or ``<label>.<stat>``."""
    out = {}
    for name in names:
        label, _, stat = name.rpartition(".")
        if name in given:
            out[name] = given[name]
        elif stat == "self_s":
            out[name] = self_s.get(label, 0.0)
        else:
            out[name] = _stat(durations.get(label, []), stat)
    return out
