"""Benchmark a parent commit against the working tree, in alternating pairs.

    python3 tools/bench_pair.py --topic NAME [--parent REV] [--seeds N] [--only NAME]...

Run from the root of an abckit checkout.  The parent commit (default HEAD)
is exported with ``git archive`` and the working tree as it stands is
copied (uncommitted edits and untracked files that git does not ignore
included), side by side into one temporary directory (honouring TMPDIR), so
both sides run from fresh trees in the same place.  For each workload in
BENCHMARK.json and each seed 101, 102, ..., 100+N the script runs
``bench/run.py --trace 0`` once on each side, the parent first on even pairs
and the change first on odd ones, for the run length BENCHMARK.json fixes.
Each per-layer probe in PROBES runs the same way, N times a side, each time
in a fresh process.  ``--only NAME``, which may be repeated, restricts the
run to the named workloads and probes; by default all of them run.

It writes ``BENCH_<topic>.json``: for each workload and end-to-end metric,
both sides' runs, median and quartiles (IQR = q3 - q1) and the number of
pairs the change won (ties count for neither), the failed and attempted
operation counts, the same for each probe's seconds and its process's peak
RSS, and the environment (Python, ``mpmath.libmp.BACKEND``, nproc, CPU).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 101

# Per-layer probes: code run in a fresh process inside a checkout, with its
# src/ and bench/ importable and `time` imported; it sets `seconds` and may
# set `work`.  Like a bench job, the two arith.factor_nat.* probes first
# factor a semiprime no input contains, so set-up (the lazy prime sieve)
# stays outside their timing.
PROBES = {
    "arith.factor_nat.quad_norms_seed1_s": (
        "factor the distinct |N(a)|, |N(b)|, |N(c)| of quad_reports seed 1 "
        "with cold lru_caches",
        """
from abckit import arith
from generators import load_reference, sample_quads
from workloads import QuadReports
batch = sample_quads(load_reference("quad_reports")["catalogue"], 1)
norms = sorted({abs(v.norm()) if v.field.degree == 2 else abs(v.x)
                for triple in QuadReports.elements(batch) for v in triple})
arith.factor_int(999983 * 1000003)
arith._factor_nat.cache_clear()
t0 = time.perf_counter()
for n in norms:
    arith._factor_nat(n)
seconds = time.perf_counter() - t0
work = len(norms)
"""),
    "arith.factor_nat.balanced_semiprimes_s": (
        "factor 20 seeded products of two primes of 28 to 34 bits each, the "
        "sizes where rho hands a part to ECM",
        """
import random
from math import prod
from abckit import arith
rng = random.Random(2834)

def prime(bits):
    while True:
        p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if arith.is_probable_prime(p):
            return p

semiprimes = [prime(rng.randint(28, 34)) * prime(rng.randint(28, 34)) for _ in range(20)]
arith.factor_int(999983 * 1000003)
t0 = time.perf_counter()
for n in semiprimes:
    factors = arith._factor_nat(n)
    assert len(factors) == 2 and prod(p**e for p, e in factors) == n
seconds = time.perf_counter() - t0
work = len(semiprimes)
"""),
    "arith.factor_element.quad_lift_seed1_s": (
        "factor_element over the a, b, c of quad_reports seed 1, after one "
        "untimed pass has warmed _factor_nat and primes_above and the "
        "per-element cache of factor_quad (where there is one) is emptied, "
        "so only the lift from norms to prime ideals is timed",
        """
from abckit import arith
from generators import load_reference, sample_quads
from workloads import QuadReports
batch = sample_quads(load_reference("quad_reports")["catalogue"], 1)
elements = [v for triple in QuadReports.elements(batch) for v in triple]
for v in elements:
    arith.factor_element(v)
getattr(arith.factor_quad, "cache_clear", lambda: None)()
t0 = time.perf_counter()
for v in elements:
    arith.factor_element(v)
seconds = time.perf_counter() - t0
work = len(elements)
"""),
    "arith.factor_element.quad_lift_cold_seed1_s": (
        "quad_lift_seed1_s with primes_above's cache emptied too, so the "
        "timed pass finds each prime ideal afresh while _factor_nat stays warm",
        """
from abckit import arith
from generators import load_reference, sample_quads
from workloads import QuadReports
batch = sample_quads(load_reference("quad_reports")["catalogue"], 1)
elements = [v for triple in QuadReports.elements(batch) for v in triple]
for v in elements:
    arith.factor_element(v)
arith.primes_above.cache_clear()
getattr(arith.factor_quad, "cache_clear", lambda: None)()
t0 = time.perf_counter()
for v in elements:
    arith.factor_element(v)
seconds = time.perf_counter() - t0
work = len(elements)
"""),
    "arith.is_probable_prime.primes_40_64bit_s": (
        "is_probable_prime on 1,000 seeded primes of 40 to 64 bits, where "
        "BPSW's Lucas half runs in full",
        """
import random
from abckit import arith
rng = random.Random(4064)
primes = []
while len(primes) < 1000:
    bits = rng.randint(40, 64)
    p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    if arith.is_probable_prime(p):
        primes.append(p)
t0 = time.perf_counter()
assert all(arith.is_probable_prime(p) for p in primes)
seconds = time.perf_counter() - t0
work = len(primes)
"""),
    "arith.is_probable_prime_2048_s": (
        "decide the 2048-bit prime 2^2048 - 1557",
        """
from abckit import arith
t0 = time.perf_counter()
assert arith.is_probable_prime(2**2048 - 1557)
seconds = time.perf_counter() - t0
work = 1
"""),
    "radical.enumerate_primitive_triples.h1000_s": (
        "build every primitive triple with H <= 1000",
        """
from abckit import enumerate_primitive_triples
t0 = time.perf_counter()
work = len(enumerate_primitive_triples(1000))
seconds = time.perf_counter() - t0
"""),
    "bounds.calibrate_and_report.h1000_s": (
        "empirical_min_C for theorem 2, then thm2_rhs at that C, over every "
        "primitive triple with H <= 1000: the calibrate workload at the "
        "ROADMAP's baseline size, triples built untimed",
        """
from abckit import BoundConfig, empirical_min_C, enumerate_primitive_triples, thm2_rhs
triples = enumerate_primitive_triples(1000)
t0 = time.perf_counter()
C = empirical_min_C(triples, 2)
config = BoundConfig(C_main=C)
reports = [thm2_rhs(t, config) for t in triples]
seconds = time.perf_counter() - t0
assert C == 0.41127528566033666 and all(r.holds for r in reports)
work = len(triples)
"""),
    "bounds.empirical_min_C_1000_s": (
        "calibrate theorem 2's C over every primitive triple with H <= 1000",
        """
from abckit import empirical_min_C, enumerate_primitive_triples
triples = enumerate_primitive_triples(1000)
t0 = time.perf_counter()
assert empirical_min_C(triples, 2) == 0.41127528566033666
seconds = time.perf_counter() - t0
work = len(triples)
"""),
    "sml.decide_zeros.flagship_cap1e6_s": (
        "decide_zeros on RecurrenceSpec(10, -31, 30, 10^6 + 3, 112, 452) at "
        "cap 10^6, a scan of 10^6 + 1 terms, after one untimed call at cap 10 "
        "has warmed the factoring caches",
        """
from abckit import RecurrenceSpec, decide_zeros
spec = RecurrenceSpec(10, -31, 30, 10**6 + 3, 112, 452)
decide_zeros(spec, cap=10)
t0 = time.perf_counter()
verdict = decide_zeros(spec, cap=10**6)
seconds = time.perf_counter() - t0
assert (verdict.status, verdict.N, verdict.zeros) == ("NoZerosUpToBound", 10**6, ())
work = verdict.N + 1
"""),
    "sml.enumerate_zeros.capped_1e4_s": (
        "_enumerate_zeros at 10^4 on each of the 120 capped specs of the "
        "recurrence_batch catalogue, the scans behind that workload's p90",
        """
from abckit import RecurrenceSpec
from abckit.sml import _enumerate_zeros
from generators import load_reference
specs = [RecurrenceSpec(*item["spec"]) for item in load_reference("recurrence_batch")["catalogue"]
         if item["verdict"].get("truncated")]
t0 = time.perf_counter()
for spec in specs:
    _enumerate_zeros(spec, 10**4)
seconds = time.perf_counter() - t0
work = len(specs)
"""),
    "sml.enumerate_zeros.capped_1e6_s": (
        "_enumerate_zeros at 10^6, the CLI's default cap, on the first ten "
        "capped specs of the recurrence_batch catalogue",
        """
from abckit import RecurrenceSpec
from abckit.sml import _enumerate_zeros
from generators import load_reference
specs = [RecurrenceSpec(*item["spec"]) for item in load_reference("recurrence_batch")["catalogue"]
         if item["verdict"].get("truncated")][:10]
t0 = time.perf_counter()
for spec in specs:
    _enumerate_zeros(spec, 10**6)
seconds = time.perf_counter() - t0
work = len(specs)
"""),
    "sml.enumerate_zeros.fallback_s": (
        "_enumerate_zeros at 10^5 on a spec whose terms are all multiples of "
        "the odd primes below 200, so no prime of the sieve narrows anything "
        "and the scalar scan runs after it",
        """
from math import prod
from abckit import RecurrenceSpec
from abckit.arith import primes_upto
from abckit.sml import _enumerate_zeros
P = prod(primes_upto(199)[1:])
spec = RecurrenceSpec(10, -31, 30, 31 * P, 112 * P, 452 * P)
t0 = time.perf_counter()
assert _enumerate_zeros(spec, 10**5) == ()
seconds = time.perf_counter() - t0
work = 10**5 + 1
"""),
    "sml.enumerate_zeros.fallback_600_s": (
        "_enumerate_zeros on the fallback_s spec at 600 terms, where the sieve "
        "spends up to 600 steps before the scalar scan: the worst case of "
        "sieving a short scan",
        """
from math import prod
from abckit import RecurrenceSpec
from abckit.arith import primes_upto
from abckit.sml import _enumerate_zeros
P = prod(primes_upto(199)[1:])
spec = RecurrenceSpec(10, -31, 30, 31 * P, 112 * P, 452 * P)
t0 = time.perf_counter()
for _ in range(100):
    assert _enumerate_zeros(spec, 599) == ()
seconds = time.perf_counter() - t0
work = 100 * 600
"""),
    "sml.enumerate_zeros.decided_s": (
        "_enumerate_zeros on each of the 210 decided specs of the "
        "recurrence_batch catalogue at its recorded N (at most 995), the "
        "scans behind that workload's p50",
        """
from abckit import RecurrenceSpec
from abckit.sml import _enumerate_zeros
from generators import load_reference
decided = [(RecurrenceSpec(*item["spec"]), item["verdict"]["N"])
           for item in load_reference("recurrence_batch")["catalogue"]
           if "N" in item["verdict"] and not item["verdict"].get("truncated")]
t0 = time.perf_counter()
for spec, N in decided:
    _enumerate_zeros(spec, N)
seconds = time.perf_counter() - t0
work = len(decided)
"""),
    "sml.enumerate_zeros.capped_1e8_s": (
        "_enumerate_zeros at 10^8 on the catalogue's capped spec "
        "(-3, 17, -77, 0, 8, 1528) over Q(sqrt -7), whose one zero is a_0; "
        "peak_rss_mb shows whether memory grows with the limit",
        """
from abckit import RecurrenceSpec
from abckit.sml import _enumerate_zeros
spec = RecurrenceSpec(-3, 17, -77, 0, 8, 1528)
t0 = time.perf_counter()
assert _enumerate_zeros(spec, 10**8) == (0,)
seconds = time.perf_counter() - t0
work = 10**8 + 1
"""),
    "sml.decide_zeros.catalogue_algebra_s": (
        "decide_zeros at cap 0 over the 450 specs of the recurrence_batch "
        "catalogue, errors caught, so a scan covers at most max(n0, 2) + 1 "
        "terms and the algebra (roots, coefficients, stripping, radical) "
        "dominates; after one untimed pass has warmed the lru_caches",
        """
from abckit import RecurrenceSpec, decide_zeros
from abckit.errors import AbckitError
from generators import load_reference
specs = [item["spec"] for item in load_reference("recurrence_batch")["catalogue"]]

def decide_all():
    for spec in specs:
        try:
            decide_zeros(RecurrenceSpec(*spec), cap=0)
        except AbckitError:
            pass

decide_all()
t0 = time.perf_counter()
decide_all()
seconds = time.perf_counter() - t0
work = len(specs)
"""),
    "sml.decide_zeros.catalogue_algebra_cold_s": (
        "catalogue_algebra_s with _factor_nat, _int_entries and primes_above "
        "cleared before the timed pass, as every benchmark job starts cold; "
        "the untimed pass still runs first, for the imports and the lazy "
        "prime sieve",
        """
from abckit import RecurrenceSpec, arith, decide_zeros
from abckit.errors import AbckitError
from generators import load_reference
specs = [item["spec"] for item in load_reference("recurrence_batch")["catalogue"]]

def decide_all():
    for spec in specs:
        try:
            decide_zeros(RecurrenceSpec(*spec), cap=0)
        except AbckitError:
            pass

decide_all()
for cache in (arith._factor_nat, arith._int_entries, arith.primes_above):
    cache.cache_clear()
t0 = time.perf_counter()
decide_all()
seconds = time.perf_counter() - t0
work = len(specs)
"""),
    "bounds.thm2_rhs_1000_s": (
        "thm2_rhs at the calibrated C on every primitive triple with H <= 1000",
        """
from abckit import BoundConfig, enumerate_primitive_triples, thm2_rhs
triples = enumerate_primitive_triples(1000)
config = BoundConfig(C_main=0.41127528566033666)  # empirical_min_C(triples, 2)
t0 = time.perf_counter()
assert all(thm2_rhs(t, config).holds for t in triples)
seconds = time.perf_counter() - t0
work = len(triples)
"""),
    "xyz.thm4_status.certified_s": (
        "thm4_status on 10^4 seeded (S, H, phi), S in [2, 300], H in "
        "(10^7, 10^40) and phi in {1, 2, 3}: the certified decision past the "
        "nesting threshold, which no workload reaches",
        """
import random
from abckit import thm4_status
rng = random.Random(1040)
cases = [(rng.randint(2, 300), rng.randint(10**7 + 1, 10 ** rng.randint(8, 40) - 1),
          rng.randint(1, 3)) for _ in range(10**4)]
t0 = time.perf_counter()
statuses = [thm4_status(s, h, phi) for s, h, phi in cases]
seconds = time.perf_counter() - t0
assert statuses.count("pass") + statuses.count("fail") > 6000
work = len(cases)
"""),
    "xyz.enumerate_triples.p23_1e7_serial_s": (
        "serial enumerate_triples(23, 10^7), the end-to-end size of the xyz "
        "search: 8,680 triples from 28,434 smooth numbers in 497 support masks",
        """
from abckit import enumerate_triples
t0 = time.perf_counter()
work = len(enumerate_triples(23, 10**7))
seconds = time.perf_counter() - t0
assert work == 8680
"""),
    "xyz.enumerate_triples.p23_1e7_workers2_s": (
        "enumerate_triples(23, 10^7, workers=2), against the serial probe "
        "for whether the process pool pays",
        """
from abckit import enumerate_triples
t0 = time.perf_counter()
work = len(enumerate_triples(23, 10**7, workers=2))
seconds = time.perf_counter() - t0
assert work == 8680
"""),
    "xyz.enumerate_triples.p23_1e6_serial_s": (
        "serial enumerate_triples(23, 10^6), the smooth_search size: 8,314 "
        "triples from 11,654 smooth numbers in 454 support masks",
        """
from abckit import enumerate_triples
t0 = time.perf_counter()
work = len(enumerate_triples(23, 10**6))
seconds = time.perf_counter() - t0
assert work == 8314
"""),
    "xyz.enumerate_triples.p23_1e6_workers2_s": (
        "enumerate_triples(23, 10^6, workers=2), as smooth_search calls it",
        """
from abckit import enumerate_triples
t0 = time.perf_counter()
work = len(enumerate_triples(23, 10**6, workers=2))
seconds = time.perf_counter() - t0
assert work == 8314
"""),
    "xyz.enumerate_triples.p47_1e5_serial_s": (
        "serial enumerate_triples(47, 10^5), a many-prime join: 185,977 "
        "triples from 9,639 smooth numbers in 1,820 support masks",
        """
from abckit import enumerate_triples
t0 = time.perf_counter()
work = len(enumerate_triples(47, 10**5))
seconds = time.perf_counter() - t0
assert work == 185977
"""),
    "xyz.enumerate_triples.p97_1e5_serial_s": (
        "serial enumerate_triples(97, 10^5), the ROADMAP's many-prime case: "
        "2,236,629 triples from 17,442 smooth numbers in 5,036 support masks",
        """
from abckit import enumerate_triples
t0 = time.perf_counter()
work = len(enumerate_triples(97, 10**5))
seconds = time.perf_counter() - t0
assert work == 2236629
"""),
}

PROBE_MAIN = """
import json, resource, sys, time
sys.path[:0] = ["src", "bench"]
{code}
print(json.dumps({{"seconds": seconds, "work": work,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}}))
"""


def _summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def _compare(parent: list[float], change: list[float], better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {"parent": _summary(parent), "change": _summary(change),
            "change_wins": wins, "pairs": len(parent)}


def _run(cmd: list[str], cwd: str) -> str:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {cwd}:\n{proc.stderr}")
    return proc.stdout


def _bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    out = _run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"], tree)
    return json.loads(out.splitlines()[-1])


def _copy_worktree(dest: str) -> None:
    """Copy the working tree's files that git tracks or would add into dest."""
    listing = _run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                   ROOT)
    for rel in sorted(set(listing.split("\0")) - {""}):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted in the tree is left out
            os.makedirs(os.path.join(dest, os.path.dirname(rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def _probe(tree: str, name: str) -> dict:
    code = PROBE_MAIN.format(code=PROBES[name][1])
    return json.loads(_run([sys.executable, "-c", code], tree).splitlines()[-1])


def _pairs(trees: dict[str, str], n: int, measure) -> dict[str, list]:
    """measure(tree, i) for i < n on both sides, alternating which goes first."""
    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(n):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(measure(trees[side], i))
            print(f"  pair {i + 1}/{n} {side}: {json.dumps(runs[side][-1])[:160]}",
                  file=sys.stderr, flush=True)
    return runs


def _environment(parent: str) -> dict:
    import mpmath.libmp

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    head = _run(["git", "rev-parse", "HEAD"], ROOT).strip()
    dirty = bool(_run(["git", "status", "--porcelain", "--untracked-files=no"], ROOT).strip())
    return {"python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "cpu": cpu, "parent": parent,
            "change": head + (" + uncommitted edits" if dirty else "")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--topic", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="a workload or probe to run (repeatable; default: all)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    probes = list(PROBES)
    if args.only:
        unknown = sorted(set(args.only) - set(workloads) - set(probes))
        if unknown:
            parser.error(f"--only: no workload or probe named {', '.join(unknown)}")
        workloads = [name for name in workloads if name in args.only]
        probes = [name for name in probes if name in args.only]
    parent = _run(["git", "rev-parse", args.parent], ROOT).strip()
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.seeds))
    result = {"topic": args.topic, "environment": _environment(parent),
              "command": "bench/run.py --trace 0", "seconds": spec["run_seconds"],
              "seeds": seeds, "order": "parent first on even pairs, change first on odd",
              "end_to_end": {}, "per_layer": {}}

    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        archive = subprocess.run(["git", "archive", parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        trees = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        os.mkdir(trees["parent"])
        subprocess.run(["tar", "-x", "-C", trees["parent"]], input=archive, check=True)
        _copy_worktree(trees["change"])
        for name in workloads:
            print(f"workload {name}", file=sys.stderr, flush=True)
            runs = _pairs(trees, len(seeds),
                          lambda tree, i: _bench(tree, name, seeds[i], spec["run_seconds"]))
            row = {m["name"]: {"unit": m["unit"], "bound": m["bound"],
                               **_compare([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                                          [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                          m["better"])}
                   for m in spec["end_to_end"]}
            row["operations"] = {side: {"attempted": sum(r["attempted"] for r in rs),
                                        "failed": sum(r["failed"] for r in rs)}
                                 for side, rs in runs.items()}
            result["end_to_end"][name] = row
        for name in probes:
            print(f"layer {name}", file=sys.stderr, flush=True)
            runs = _pairs(trees, len(seeds), lambda tree, i: _probe(tree, name))
            result["per_layer"][name] = {
                "what": PROBES[name][0], "unit": "s", "work": runs["change"][0]["work"],
                **_compare([r["seconds"] for r in runs["parent"]],
                           [r["seconds"] for r in runs["change"]], "lower"),
                "peak_rss_mb": _compare([r["peak_rss_mb"] for r in runs["parent"]],
                                        [r["peak_rss_mb"] for r in runs["change"]], "lower")}

    path = os.path.join(ROOT, f"BENCH_{args.topic}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
