"""The scale timings of tools/bench_record.py run and print one time."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


@pytest.mark.parametrize("argv", [["noisy_success", "2", "2"], ["boxes_run"]],
                         ids=["noisy_success", "boxes_run"])
def test_scale_script_prints_one_positive_time(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", bench_record._SCALE_SCRIPT,
                           *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split()
    assert len(lines) == 1
    assert float(lines[0]) > 0.0
