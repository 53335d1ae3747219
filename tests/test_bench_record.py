"""tools/bench_record.py: its scale rows print one positive time and time
two packages side by side in one process, and each label records its
checkout's commit, whether it is dirty, and the hash of the tree it ran."""

import functools
import hashlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


_ROWS = {"noisy_success chsh(2,2)": lambda lg: functools.partial(
             lg.strategies.noisy_success, lg.games.chsh_game(2, 2),
             bench_record._strategy(lg, 2, 2), 0.5),
         "boxes_run": bench_record.SCALE_ROWS[
             "boxes_run xyz.function --shots 200"]}


_SHIPPED_ROWS = {name: bench_record.SCALE_ROWS[name] for name in (
    "protocol_runs d=3 (2,2,2) --shots 2000",
    "simulate_pr_from_functional d=5 lifted",
    "noisy_success chsh(4,4) fresh strategy, three visibilities",
    "reduce_to_pr random d=7",
    "chsh_game chsh(9,5)")}


@pytest.mark.parametrize("name", list(_ROWS | _SHIPPED_ROWS),
                         ids=["noisy_success", "boxes_run", "protocol_runs",
                              "simulate_pr", "fresh_noisy_success",
                              "reduce_to_pr", "chsh_game_9_5"])
def test_scale_script_prints_one_positive_time(name, capsys):
    """One label, one round: the row prints one line, its positive time."""
    rows = _ROWS | _SHIPPED_ROWS
    medians, times = bench_record._scale([("a", ROOT)], {name: rows[name]},
                                         rounds=1)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{'a':>8} {name}: {medians['a'][name]:.4g} s"]
    assert times["a"][name] == [medians["a"][name]]
    assert medians["a"][name] > 0.0


def test_scale_times_two_packages_of_one_checkout_in_process():
    """A/A in this process: two labels load this checkout as two packages,
    each with its own modules, and every row gets a positive time per
    round and finite paired ratios."""
    rows = _ROWS
    medians, times = bench_record._scale([("a", ROOT), ("b", ROOT)], rows,
                                         rounds=2)
    packages = [sys.modules[f"lingame_run{i}"] for i in range(2)]
    for package in packages:
        assert package.diew.values is package.values
        assert package.cli.values is package.values
    assert packages[0].values is not packages[1].values
    for label in ("a", "b"):
        assert set(times[label]) == set(medians[label]) == set(rows)
        for name in rows:
            assert len(times[label][name]) == 2
            assert all(t > 0.0 for t in times[label][name])
    paired = bench_record._paired(times["a"], times["b"])
    for stats in paired.values():
        assert math.isfinite(stats["median"])
        assert all(map(math.isfinite, [*stats["iqr"], *stats["range"]]))
        assert stats["range"][0] <= stats["iqr"][0] <= stats["median"]
        assert stats["median"] <= stats["iqr"][1] <= stats["range"][1]
        assert 0 <= stats["won"] <= 2


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _committed(repo, *names):
    """``repo`` as a git repository with ``names`` committed; its HEAD."""
    _git(repo, "init", "-q")
    _git(repo, "add", *names)
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@example.com",
         "commit", "-q", "-m", "one")
    return _git(repo, "rev-parse", "HEAD")


def test_commit_tells_a_changed_tracked_file(tmp_path):
    """A checkout's HEAD and whether a tracked file differs from it; an
    untracked file does not count, and outside git both are None.  The
    tree of a checkout without ``src/`` or ``perfbench/`` hashes nothing."""
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.txt").write_text("one\n")
    head = _committed(repo, "a.txt")
    empty = hashlib.sha256().hexdigest()
    assert bench_record._commit(repo) == {"commit": head, "dirty": False,
                                          "tree": empty}
    (repo / "b.txt").write_text("untracked\n")
    assert bench_record._commit(repo) == {"commit": head, "dirty": False,
                                          "tree": empty}
    (repo / "a.txt").write_text("two\n")
    assert bench_record._commit(repo) == {"commit": head, "dirty": True,
                                          "tree": empty}
    (tmp_path / "none").mkdir()
    assert bench_record._commit(tmp_path / "none") == {
        "commit": None, "dirty": None, "tree": empty}


def test_tree_names_the_measured_files(tmp_path):
    """Identical ``src/`` and ``perfbench/`` files give one tree, in git or
    not, whatever lies beside them or in ``__pycache__``; one changed byte
    or a moved file gives another."""
    copies = [tmp_path / "plain", tmp_path / "git"]
    for root in copies:
        (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (root / "perfbench").mkdir()
        (root / "src" / "pkg" / "m.py").write_bytes(b"x = 1\n")
        (root / "perfbench" / "run.py").write_bytes(b"print(1)\n")
    plain, repo = copies
    (plain / "src" / "pkg" / "__pycache__" / "m.pyc").write_bytes(b"\0")
    (plain / "notes.txt").write_text("not measured\n")
    head = _committed(repo, "src", "perfbench")
    tree = bench_record._tree(plain)
    assert bench_record._commit(repo) == {"commit": head, "dirty": False,
                                          "tree": tree}
    assert bench_record._commit(plain)["tree"] == tree
    (repo / "src" / "pkg" / "m.py").write_bytes(b"x = 2\n")
    assert bench_record._tree(repo) != tree
    (plain / "src" / "pkg" / "m.py").rename(plain / "src" / "pkg" / "n.py")
    assert bench_record._tree(plain) != tree
