import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_recurrence_zeros_demo_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join("demos", "recurrence_zeros.py")],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: ZerosFound" in proc.stdout
    assert "verdict: NoZerosUpToBound" in proc.stdout
