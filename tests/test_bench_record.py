"""tools/bench_record.py: its scale timings run and print one time, and
each label records its checkout's commit and whether it is dirty."""

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


def test_commit_tells_a_changed_tracked_file(tmp_path):
    """A checkout's HEAD and whether a tracked file differs from it; an
    untracked file does not count, and outside git both are None."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    (repo / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("-c", "user.name=t", "-c", "user.email=t@example.com",
        "commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    assert bench_record._commit(repo) == {"commit": head, "dirty": False}
    (repo / "b.txt").write_text("untracked\n")
    assert bench_record._commit(repo) == {"commit": head, "dirty": False}
    (repo / "a.txt").write_text("two\n")
    assert bench_record._commit(repo) == {"commit": head, "dirty": True}
    (tmp_path / "none").mkdir()
    assert bench_record._commit(tmp_path / "none") == {"commit": None,
                                                       "dirty": None}
