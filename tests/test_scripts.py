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
