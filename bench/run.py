"""Run one workload of the abckit benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is one job in a fresh
process (``bench/job.py``), so every job starts with cold caches; jobs
repeat until the next one would end after S seconds (at least one job, and
with --trace 1 at least one traced and one untraced job).  A few extra
processes only time set-up, so ``setup_s`` is a median of several samples.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics, from traced jobs interleaved with
untraced ones that give ``trace.overhead_ratio``.  Before the result the
run prints its environment, the input mix and each metric with its unit;
the last line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

SETUP_PROBES = 3
RUN_LIMIT_S = 170  # every run ends well inside 180 s


def _spawn(args: argparse.Namespace, traced: bool, deadline: float,
           setup_only: bool = False) -> dict:
    flags = ["--setup-only"] if setup_only else []
    cmd = [sys.executable, os.path.join(BENCH_DIR, "job.py"), args.workload,
           str(args.seed), "1" if traced else "0", repr(time.monotonic()), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"job failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _environment(args: argparse.Namespace) -> dict:
    import mpmath.libmp

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "cpu": cpu, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def _input_mix(workload: str, seed: int) -> dict:
    """The seeded batch's mix, checked against the one recorded in workloads.json."""
    import generators as g

    if workload == "recurrence_batch":
        mix = g.recurrence_mix(g.sample_recurrences(g.load_reference(workload)["catalogue"], seed))
    elif workload == "quad_reports":
        mix = g.quad_mix(g.sample_quads(g.load_reference(workload)["catalogue"], seed))
    else:
        return {}
    with open(os.path.join(BENCH_DIR, "workloads.json")) as fh:
        recorded = json.load(fh)[workload]["mix"]
    if mix != recorded:
        raise SystemExit(f"the {workload} mix {mix} differs from workloads.json {recorded}")
    return mix


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _end_to_end(jobs: list[dict], setups: list[float]) -> tuple[dict, dict]:
    calls = [dt for job in jobs for dt in job["calls_s"]]
    return {
        "job_s": statistics.median(job["job_s"] for job in jobs),
        "call_p50_ms": 1000 * _quantile(calls, 0.5),
        "call_p90_ms": 1000 * _quantile(calls, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
    }, {"call_p50_ms": f"n={len(calls)} calls over {len(jobs)} jobs",
        "call_p90_ms": f"n={len(calls)}, {len(calls) - int(0.9 * len(calls))} beyond",
        "job_s": f"median of {len(jobs)} jobs",
        "setup_s": f"median of {len(setups)}",
        "peak_rss_mb": f"median of {len(jobs)} jobs"}


def _per_layer(names: list[str], traced: list[dict],
               untraced: list[dict]) -> tuple[dict, dict]:
    out = {name: statistics.median(job["layers"].get(name, 0.0) for job in traced)
           for name in names}
    out["trace.overhead_ratio"] = (statistics.median(job["job_s"] for job in traced)
                                   / statistics.median(job["job_s"] for job in untraced) - 1)
    notes = {name: f"median of {len(traced)} traced jobs" for name in names}
    notes["trace.overhead_ratio"] = (f"median job_s of {len(traced)} traced / "
                                     f"{len(untraced)} untraced jobs - 1")
    return out, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "abckit", "__init__.py")):
        print("bench: src/abckit not found; run from the root of an abckit checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    print("env", json.dumps(_environment(args)))
    print("mix", json.dumps(_input_mix(args.workload, args.seed)))

    setups = [_spawn(args, False, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    jobs: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        enough = jobs and (traced or not args.trace)
        if enough and time.monotonic() - start + longest > args.seconds:
            break
        # untraced and traced jobs alternate, and so does which comes first
        pair, second = divmod(len(jobs) + len(traced), 2)
        as_traced = bool(args.trace) and bool(second) != bool(pair % 2)
        t0 = time.monotonic()
        job = _spawn(args, as_traced, deadline)
        longest = max(longest, time.monotonic() - t0)
        (traced if as_traced else jobs).append(job)
        setups.append(job["setup_s"])

    everything = jobs + traced
    attempted = sum(job["attempted"] for job in everything)
    failed = sum(job["failed"] for job in everything)
    if args.trace:
        group = spec["per_layer"]
        names = [m["name"] for m in group if m["name"] != "trace.overhead_ratio"]
        values, notes = _per_layer(names, traced, jobs)
    else:
        group = spec["end_to_end"]
        values, notes = _end_to_end(jobs, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}  ({notes.get(name, '')})")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
