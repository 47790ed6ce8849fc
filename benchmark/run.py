"""locisog benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload {lemma,replay,crossval} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Run from a checkout of the repository: the program is imported from the
checkout's ``src/``, never from an installed copy, and the run stops with
exit code 2 when that is missing.

With ``--trace 0`` it sets up, then runs passes of the workload untraced for
about S seconds (always at least one) and reports the end-to-end metrics.
With ``--trace 1`` it runs an untraced pass, a pass with the program's public
functions wrapped (see spans.py) and another untraced pass; it reports the
per-layer metrics and writes the spans to ``benchmark/out/``.

Standard output ends with one JSON line: ``correct``, ``attempted`` and
``failed`` count the gate's checks over all passes, and ``metrics`` holds the
figures.  The line before it is a JSON report of the run: input digest,
per-pass check counts, fail ratio, the run environment and the tail
percentile used.  The exit code is 1 when any check failed.

Seeds 1 to 10 are the ones used to tune the benchmark; seed 9001 is held out
for claims made later (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the machine is small and shared: keep numpy's native pools to one thread
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_SAMPLES = 9

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    unit = {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us",
            "p99_us": "us", "p50_ms": "ms", "tail_ms": "ms"}
    out = []

    def add(label, *stats):
        for st in stats:
            out.append(("%s.%s" % (label, st), unit[st], "lower"))

    def count(name, better="higher"):
        out.append((name, "count", better))

    for ell in ("l5", "l7"):
        add("subgroups.enumerate_subgroups." + ell, "s")
        count("subgroups.classes." + ell)
    add("subgroups.from_elements", "s")
    add("subgroups", "self_s")
    add("localglobal.lemma1_hypothesis", "calls", "s")
    add("localglobal.lemma_report", "s")
    add("localglobal.validate", "s")
    for ell in ("l5", "l7"):
        count("localglobal.hypothesis_classes." + ell)
    add("localglobal.construct_prop3_group", "s")
    add("localglobal.classify", "s")
    add("localglobal", "self_s")
    add("ecfp.local_scan", "s")
    count("ecfp.local_scan.primes")
    count("ecfp.local_scan.admitted")
    for method in ("naive", "bsgs"):
        for b in spans.P_BUCKETS:
            add("ecfp.count_points.%s.%s" % (method, b), "calls", "p50_us")
    add("ecfp.reduce_and_count", "calls", "s", "p50_us", "p99_us")
    add("ecfp.local_isogeny_admitted", "calls", "s")
    add("ecfp", "self_s")
    for b in spans.P_BUCKETS:
        add("modpoly.fp_linear_factor_count." + b, "calls", "s", "p50_us", "p99_us")
    for N in spans.LEVELS:
        add("modpoly.fp_root_count." + N, "calls", "s", "p50_us", "p99_us")
    for N in spans.LEVELS:
        add("modpoly.rational_linear_factors." + N, "calls", "s", "p50_ms", "tail_ms")
    add("modpoly.evaluate_at_j", "s")
    add("modpoly.verify_certificate", "s")
    add("modpoly.shipped_modpoly", "s")
    add("modpoly", "self_s")
    add("ecq.invariants", "s")
    add("ecq.twist_and_maps", "s")
    add("ecq", "self_s")
    out += [("item.count", "count", "higher"), ("item.p50_ms", "ms", "lower"),
            ("item.tail_ms", "ms", "lower"), ("item.tail_pct", "pct", "higher"),
            ("trace.spans", "count", "lower"), ("trace.wall_s", "s", "lower"), ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"), ("trace.uncovered_share", "share", "lower")]
    return out


PER_LAYER = _per_layer()
COUNTERS = [n for n, u, _ in PER_LAYER
            if u == "count" and n.rpartition(".")[2] not in spans.STATS]

# run in a fresh interpreter: imports plus loading the shipped data
SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.load_data()
print(perf_counter() - t0)
"""


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _time_setup() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _run_pass(workloads, run, inputs, data):
    workloads.reset_caches()
    out = workloads.Pass()
    t0 = perf_counter()
    with out.guard("pass"):
        run(inputs, data, out)
    return perf_counter() - t0, out


def _item_metrics(items: list[float]) -> tuple[float, float, int]:
    """(p50 in ms, tail in ms, tail percentile) of the item latencies; zeros
    when a pass failed before its first item."""
    if not items:
        return 0.0, 0.0, 0
    ordered = sorted(items)
    value, q = spans.tail(ordered)
    return spans.nearest_rank(ordered, 50) * 1e3, value * 1e3, q


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("lemma", "replay", "crossval"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (SRC / "locisog" / "__init__.py").is_file():
        print("no locisog sources under %s; run from a checkout" % SRC, file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path[:0] = [str(SRC), str(HERE)]
    load_before = _loadavg()
    setup = [_time_setup() for _ in range(SETUP_SAMPLES)]

    import locisog
    import numpy
    import workloads
    if not Path(locisog.__file__).resolve().is_relative_to(SRC):
        print("locisog imported from %s, not %s" % (locisog.__file__, SRC), file=sys.stderr)
        return 2

    data = workloads.load_data()
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    run = workloads.RUNNERS[args.workload]
    passes = []
    if args.trace:
        # a fresh process's first pass is slower (lemma: by up to a fifth),
        # so the overhead compares the traced pass with a later untraced one
        passes.append(_run_pass(workloads, run, inputs, data))
        rec = spans.Recorder()
        restore = spans.instrument(rec)
        try:
            workloads.load_data()
            window = perf_counter()
            passes.append(_run_pass(workloads, run, inputs, data))
        finally:
            restore()
        passes.append(_run_pass(workloads, run, inputs, data))
        items = passes[0][1].items
    else:
        start = perf_counter()
        while True:
            passes.append(_run_pass(workloads, run, inputs, data))
            if perf_counter() - start + passes[-1][0] > args.seconds:
                break
        items = [t for _, p in passes for t in p.items]

    attempted = sum(p.attempted for _, p in passes)
    failed = sum(p.failed for _, p in passes)
    item_p50_ms, item_tail_ms, tail_q = _item_metrics(items)
    if args.trace:
        wall_t, wall_u = passes[1][0], passes[2][0]
        durations, self_s, covered = spans.layer_values(rec, window)
        given = dict.fromkeys(COUNTERS, 0)
        given.update(passes[1][1].counters)
        given.update({
            "item.count": len(items), "item.p50_ms": item_p50_ms,
            "item.tail_ms": item_tail_ms, "item.tail_pct": tail_q,
            "trace.spans": len(rec.labels),
            "trace.wall_s": wall_t, "trace.untraced_wall_s": wall_u,
            "trace.overhead_s": wall_t - wall_u,
            "trace.uncovered_share": 1.0 - covered / wall_t})
        values = spans.per_layer_metrics([n for n, _, _ in PER_LAYER], durations,
                                         self_s, given)
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
        outdir = HERE / "out"
        outdir.mkdir(exist_ok=True)
        spans_file = outdir / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        rec.write(spans_file)
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(w for w, _ in passes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        spans_file = None

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "input_digest": inputs.digest(),
        "passes": len(passes), "pass_wall_s": [w for w, _ in passes],
        "checks_per_pass": [p.attempted for _, p in passes],
        "fail_ratio": failed / attempted,
        "fail_ratio_base": "checks attempted, all passes",
        "failures": [f for _, p in passes for f in p.failures][:5],
        "items": len(items), "item_p50_ms": item_p50_ms, "item_tail_ms": item_tail_ms,
        "item_tail_percentile": tail_q,
        "setup_samples_s": setup, "spans_file": spans_file and str(spans_file.relative_to(ROOT)),
        "env": {"git_sha": _git_sha(), "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": sys.version.split()[0], "numpy": numpy.__version__,
                "threads": THREAD_PINS["OMP_NUM_THREADS"],
                "loadavg_before": load_before, "loadavg_after": _loadavg()},
    }
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
