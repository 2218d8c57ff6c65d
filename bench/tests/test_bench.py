"""Tests of the benchmark itself: seeded inputs, output checks and spans.

    python3 -m pytest bench/tests
"""

import copy
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

import generators as g
from spans import NullTracer, Tracer
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(BENCH_DIR, "workloads.json")) as fh:
    MANIFEST = json.load(fh)


# ---------------------------------------------------------------------------
# Seeded inputs


def test_candidates_repeat_for_a_seed():
    def recurrences(seed):
        rng = random.Random(seed)
        return [g.recurrence_candidate(rng) for _ in range(50)]

    def quads(seed):
        rng = random.Random(seed)
        return [g.quad_candidate(rng, d, (2, 6)) for d in (None, -1, -163)]

    assert recurrences(4) == recurrences(4) != recurrences(5)
    assert quads(4) == quads(4) != quads(5)


@pytest.mark.parametrize("workload,sample,mix", [
    ("recurrence_batch", g.sample_recurrences, g.recurrence_mix),
    ("quad_reports", g.sample_quads, g.quad_mix),
])
def test_samples_repeat_for_a_seed_and_keep_the_recorded_mix(workload, sample, mix):
    catalogue = g.load_reference(workload)["catalogue"]
    first = sample(catalogue, 7)
    assert first == sample(catalogue, 7)
    assert first != sample(catalogue, 8)
    for seed in (7, 8, 123456):
        assert mix(sample(catalogue, seed)) == MANIFEST[workload]["mix"]


# ---------------------------------------------------------------------------
# Output checks catch corrupted outputs


def _small_calibration():
    w = WORKLOADS["calibrate"]
    inputs = {"H": 40}
    out, _ = w.run(inputs, NullTracer())
    return w, inputs, out, w.reference_record(inputs, out)


def test_calibrate_check_passes_then_catches_a_dropped_triple():
    w, inputs, out, ref = _small_calibration()
    attempted, failed = w.check(inputs, out, ref)
    assert attempted == ref["triples"] + 1 and failed == 0
    dropped = dict(out, triples=out["triples"][:-1], reports=out["reports"][:-1])
    assert w.check(inputs, dropped, ref)[1] == 1


def test_calibrate_check_catches_a_wrong_C():
    w, inputs, out, ref = _small_calibration()
    assert w.check(inputs, dict(out, C=out["C"] + 1e-3), ref)[1] == 1


def _small_smooth_search():
    w = WORKLOADS["smooth_search"]
    inputs = {"P": 7, "limit": 200}  # under 64 smooth numbers: no pool
    out, _ = w.run(inputs, NullTracer())
    return w, inputs, out, w.reference_record(inputs, out)


def test_smooth_search_check_passes_then_catches_a_dropped_triple():
    w, inputs, out, ref = _small_smooth_search()
    assert w.check(inputs, out, ref) == (ref["triples"], 0)
    dropped = {key: value[1:] for key, value in out.items()}
    assert w.check(inputs, dropped, ref)[1] == 1


def test_smooth_search_check_catches_a_wrong_radical():
    w, inputs, out, ref = _small_smooth_search()
    bad = copy.copy(out["triples"][0])
    object.__setattr__(bad, "g", bad.g * 11)
    assert w.check(inputs, dict(out, triples=[bad, *out["triples"][1:]]), ref)[1] == 1


def _small_recurrence_batch():
    w = WORKLOADS["recurrence_batch"]
    catalogue = g.load_reference("recurrence_batch")["catalogue"]
    picks = {}
    for item in catalogue:
        if item["cost_ms"] < 20:
            picks.setdefault(item["category"], item)
    inputs = {"batch": list(picks.values())}
    out, _ = w.run(inputs, NullTracer())
    return w, inputs, out


def test_recurrence_check_passes_then_catches_a_wrong_zero():
    w, inputs, out = _small_recurrence_batch()
    assert w.check(inputs, out, None) == (len(out), 0)
    index = next(i for i, v in enumerate(out) if v.get("zeros"))
    wrong = copy.deepcopy(out)
    wrong[index]["zeros"][0] += 1
    assert w.check(inputs, wrong, None)[1] == 1


def test_recurrence_check_catches_a_missed_zero_and_a_wrong_exception():
    w, inputs, out = _small_recurrence_batch()
    missed = copy.deepcopy(out)
    index = next(i for i, v in enumerate(missed) if v.get("zeros"))
    missed[index]["zeros"] = []
    missed[index]["status"] = "NoZerosUpToBound"
    assert w.check(inputs, missed, None)[1] == 1
    index = next(i for i, v in enumerate(out) if "error" in v)
    wrong = copy.deepcopy(out)
    wrong[index] = {"error": "ValueError"}
    assert w.check(inputs, wrong, None)[1] == 1


def _small_quad_reports():
    w = WORKLOADS["quad_reports"]
    catalogue = g.load_reference("quad_reports")["catalogue"]
    batch = [catalogue[i] for i in range(0, len(catalogue), 50)]  # one per cell
    inputs = {"batch": batch, "elements": w.elements(batch)}
    out, _ = w.run(inputs, NullTracer())
    return w, inputs, out


def test_quad_check_passes_then_catches_a_wrong_factorization_and_margin():
    w, inputs, out = _small_quad_reports()
    assert w.check(inputs, out, None) == (len(out), 0)
    swapped = copy.copy(out)
    swapped[0] = dict(out[0], facs=[out[0]["facs"][1], out[0]["facs"][0], out[0]["facs"][2]])
    assert w.check(inputs, swapped, None)[1] == 1
    margin = copy.copy(out)
    margin[-1] = dict(out[-1], margins=[m * (1 + 1e-6) + 1 for m in out[-1]["margins"]])
    assert w.check(inputs, margin, None)[1] == 1


# ---------------------------------------------------------------------------
# Spans


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_spans_nest_and_self_time_plus_children_is_the_duration():
    tr = Tracer()
    with tr.span("job"):
        _busy(0.002)
        with tr.span("a"):
            _busy(0.002)
            with tr.span("a.inner"):
                _busy(0.001)
        with tr.span("b"):
            _busy(0.001)
    names = [s[0] for s in tr.spans]
    assert names == ["job", "a", "a.inner", "b"]
    assert [s[1] for s in tr.spans] == [None, 0, 1, 0]
    durations = [end - start for _, _, start, end in tr.spans]
    selfs = tr.self_times()
    for index, (name, parent, start, end) in enumerate(tr.spans):
        children = [durations[i] for i, s in enumerate(tr.spans) if s[1] == index]
        assert math.isclose(selfs[index] + sum(children), durations[index], rel_tol=1e-12)
        assert selfs[index] > 0
        if parent is not None:
            assert tr.spans[parent][2] <= start <= end <= tr.spans[parent][3]
    assert tr.total("a", "b") == pytest.approx(durations[1] + durations[3])


def test_wrap_spans_calls_inside_the_program_and_restores_the_attribute():
    import abckit.xyz as xyz

    original = xyz.smooth_numbers
    tr = Tracer()
    with tr.span("xyz.enumerate_triples"), tr.wrap(xyz, "smooth_numbers", "xyz.smooth_numbers"):
        xyz.enumerate_triples(5, 100)
    assert xyz.smooth_numbers is original
    assert [(s[0], s[1]) for s in tr.spans] == [("xyz.enumerate_triples", None),
                                                ("xyz.smooth_numbers", 0)]


def test_null_tracer_records_nothing():
    tr = NullTracer()
    with tr.span("x"), tr.wrap(None, "unused", "y"):
        tr.count("z")
    assert not hasattr(tr, "spans")


# ---------------------------------------------------------------------------
# The runner


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibrate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
