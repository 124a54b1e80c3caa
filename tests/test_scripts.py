import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lpp_experiment_smoke():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "lpp_experiment.py"), "--trials", "2000"],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert re.fullmatch(r"2000 trials in [\d.]+s; box covers [\d.]+ of the samples; "
                        r"worst deviation [\d.]+ sigma", last), last


def test_verify_all_process_smoke():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "grothlab.cli", "verify", "all", "--box", "2x2", "--n", "2"],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""
    last = proc.stdout.strip().splitlines()[-1]
    match = re.fullmatch(r"(\d+)/(\d+) passed", last)
    assert match and match[1] == match[2], last
