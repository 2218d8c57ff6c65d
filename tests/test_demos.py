import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("demos", name)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )


def test_recurrence_zeros_demo_runs():
    proc = run_demo("recurrence_zeros.py")
    assert proc.returncode == 0, proc.stderr
    assert "verdict: ZerosFound" in proc.stdout
    assert "verdict: NoZerosUpToBound" in proc.stdout


def test_bound_reports_demo_runs():
    proc = run_demo("bound_reports.py")
    assert proc.returncode == 0, proc.stderr
    assert "theorem 2: smallest C" in proc.stdout
    assert "no finite C exists" in proc.stdout


def test_radicals_and_heights_demo_runs():
    proc = run_demo("radicals_and_heights.py")
    assert proc.returncode == 0, proc.stderr
    assert "(1, 8, -9): G = 6, S = 3, N_a=1 N_b=2 N_c=3" in proc.stdout
    assert "H(1, 8, -9)  over Q(i) = 81" in proc.stdout


def test_smooth_triples_demo_runs():
    proc = run_demo("smooth_triples.py")
    assert proc.returncode == 0, proc.stderr
    assert "P = 13:  544 primitive triples with Z <= 10^6" in proc.stdout
    assert "544 of 544 triples guarded out, 0 passed, 0 failed" in proc.stdout
