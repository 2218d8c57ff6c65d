"""One job of one workload in a fresh process; prints one JSON line.

    python3 bench/job.py WORKLOAD SEED TRACE SPAWNED [--setup-only]

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; on Linux that clock is shared by all processes, so ``setup_s`` runs
from process start to the first timed call.  Set-up is the abckit import
and one warm-up factorization outside every workload's inputs, which builds
the lazy prime sieve to 10^6; the lru_caches are then emptied so the job
starts cold, as a command-line user's process does.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

from abckit import arith  # noqa: E402

from spans import NullTracer, Tracer  # noqa: E402
from generators import load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARM_UP = 999983 * 1000003  # a semiprime no workload factors


# per-layer time metric -> the span names it sums
LAYER_SPANS = {
    "arith.factor_element_s": ("arith.factor_element",),
    "radical.enumerate_primitive_triples_s": ("radical.enumerate_primitive_triples",),
    "radical.make_triple_s": ("radical.make_triple",),
    "heights.projective_height_s": ("heights.projective_height",),
    "bounds.empirical_min_C_s": ("bounds.empirical_min_C",),
    "bounds.thm2_rhs_s": ("bounds.thm2_rhs",),
    "bounds.thm_rhs_s": ("bounds.thm1_rhs", "bounds.thm2_rhs", "bounds.thm3_rhs"),
    "xyz.smooth_numbers_s": ("xyz.smooth_numbers",),
    "xyz.enumerate_triples_s": ("xyz.enumerate_triples",),
    "xyz.filter_s": ("xyz.filter",),
}
CACHES = {"arith.factor_nat": arith._factor_nat, "arith.int_entries": arith._int_entries}


def _cache_metrics() -> dict:
    out = {}
    for name, fn in CACHES.items():
        info = fn.cache_info()
        calls = info.hits + info.misses
        out[f"{name}_hits"] = info.hits
        out[f"{name}_misses"] = info.misses
        out[f"{name}_hit_ratio"] = info.hits / calls if calls else 0.0
    return out


def _peak_rss_mb(pool_workers: int) -> float:
    """This process's peak plus, for a pool, each worker at the largest
    worker's peak: an upper bound on the concurrent peak (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * workers) / 1024


def main(argv: list[str]) -> dict:
    name, seed, traced, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    arith.factor_int(WARM_UP)
    for fn in CACHES.values():
        fn.cache_clear()
    setup_s = time.monotonic() - spawned
    if "--setup-only" in argv:
        return {"setup_s": setup_s}

    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    reference = load_reference(name)
    tracer = Tracer() if traced else NullTracer()
    t0 = time.perf_counter()
    out, calls = workload.run(inputs, tracer)
    job_s = time.perf_counter() - t0
    caches = _cache_metrics()
    attempted, failed = workload.check(inputs, out, reference)
    result = {
        "setup_s": setup_s, "job_s": job_s, "calls_s": calls,
        "attempted": attempted, "failed": failed,
        "peak_rss_mb": _peak_rss_mb(workload.pool_workers),
    }
    if traced:
        layers = {metric: tracer.total(*spans) for metric, spans in LAYER_SPANS.items()}
        layers.update(caches)
        layers.update(tracer.counters)
        layers.update(workload.layers(inputs, out, calls))
        result["layers"] = layers
    return result


if __name__ == "__main__":
    json.dump(main(sys.argv[1:]), sys.stdout)
    sys.stdout.write("\n")
