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
