"""Run every benchmark workload over seeds 1 to 10 and record the medians.

    python3 tools/bench_record.py --out BENCH_25.json \\
        --run parent=PARENT_CHECKOUT --run change=.

Each ``--run LABEL=DIR`` names a checkout of lingame.  ``perfbench/run.py``
runs from each, on its own ``src/``, for every workload of this
repository's ``BENCHMARK.json`` and every seed, the labels alternating.
``scale`` times the calls of ``SCALE_ROWS`` in this process instead, every
checkout's ``src/lingame`` loaded under its own package name, BLAS on one
thread: each of ``SCALE_ROUNDS`` rounds times every label once, in
alternating order, and a timing is the mean over at least 0.2 s of calls,
after one warm-up call.  So the scale rows cannot see import time, peak
RSS or changes to process-wide state such as numpy settings or threads;
those stay with ``perfbench/run.py``.  The output keeps every run and
timing, their medians, each checkout's git ``commit`` and ``dirty`` and
the ``tree`` hash of the code it ran (see ``_tree``), and
for ``parent`` and ``change`` the ratios of the medians and, per scale
row, the median, quartiles, range and wins of the per-round ratios: only
labels of one recording are compared, since a ratio across recordings
reads the host's drift as well as the code.  See README, "Benchmark".
Standard library only.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))
SCALE_ROUNDS = 15  # paired rounds per scale row


def _strategy(lg, n, d):
    """A pure state and rank-one bases from ``default_rng(0)`` for chsh(n, d)."""
    import numpy as np
    game, rng = lg.games.chsh_game(n, d), np.random.default_rng(0)

    def unitary():
        gauss = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return np.linalg.qr(gauss)[0]

    bases = [[list(unitary().T) for _ in range(q)] for q in game.question_counts]
    psi = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    return lg.strategies.QuantumStrategy((d,) * n, psi / np.linalg.norm(psi),
                                         bases)


def _fixture(lg, name):
    """The path of fixture ``name`` in the checkout of package ``lg``."""
    return str(Path(lg.__file__).parents[2] / "fixtures" / name)


def _cli(*argv):
    """A row: ``lingame *argv`` through ``cli.main`` with stdout captured,
    an argument ``fixtures/NAME`` read from the loaded checkout."""
    def row(lg):
        args = [_fixture(lg, a.removeprefix("fixtures/"))
                if a.startswith("fixtures/") else a for a in argv]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                lg.cli.main(args)
        return call
    return row


def _protocol_runs(lg):
    """2,000 shots of ``protocol_runs`` on a d=3 table of arities (2,2,2)
    drawn from ``default_rng(0)``, which then feeds the shots."""
    import numpy as np
    rng = np.random.default_rng(0)
    table = lg.boxworld.FunctionTable(3, (2, 2, 2),
                                      rng.integers(0, 3, 3**6).tolist())
    return partial(lg.boxworld.protocol_runs, table, 2000, rng)


def _simulate_pr(lg):
    """One PR box from x*y*z over Z_5 lifted to an antiderivative in x, on
    a base drawn from ``default_rng(0)``: its reduction takes one
    derivative, so two functional-box uses."""
    import numpy as np
    rng, x = np.random.default_rng(0), np.arange(5)
    xyz = x[:, None, None] * x[None, :, None] * x[None, None, :]
    base = rng.integers(0, 5, (1, 5, 5))
    lifted = np.concatenate([base, base + np.cumsum(xyz, axis=0)[:-1]]) % 5
    table = lg.boxworld.FunctionTable(5, (1, 1, 1), lifted.ravel().tolist())
    return partial(lg.boxworld.simulate_pr_from_functional, table,
                   lg.boxworld.reduce_to_pr(table), (1, 2, 3), rng)


# A row is a function of one loaded package ``lg``: it builds the row's
# inputs and returns the call to time.
SCALE_ROWS = {
    "classical_value chsh(3,5)":
        lambda lg: partial(lg.values.classical_value, lg.games.chsh_game(3, 5)),
    "classical_value chsh(4,4)":
        lambda lg: partial(lg.values.classical_value, lg.games.chsh_game(4, 4)),
    "classical_value chsh(6,3)":
        lambda lg: partial(lg.values.classical_value, lg.games.chsh_game(6, 3)),
    "biseparable_bound_partition chsh(3,7) lone 0":
        lambda lg: partial(lg.diew.biseparable_bound_partition,
                           lg.games.chsh_game(3, 7), 0),
    "biseparable_bound chsh(3,5)":
        lambda lg: partial(lg.diew.biseparable_bound, lg.games.chsh_game(3, 5)),
    "quantum_bound chsh(3,31)":
        lambda lg: partial(lg.qbounds.quantum_bound, lg.games.chsh_game(3, 31)),
    "quantum_bound chsh(12,2)":
        lambda lg: partial(lg.qbounds.quantum_bound, lg.games.chsh_game(12, 2)),
    "chsh_game chsh(6,7)": lambda lg: partial(lg.games.chsh_game, 6, 7),
    "strategy_behavior chsh(4,4)":
        lambda lg: partial(lg.strategies.strategy_behavior,
                           _strategy(lg, 4, 4), lg.games.chsh_game(4, 4)),
    "strategy_behavior chsh(5,3)":
        lambda lg: partial(lg.strategies.strategy_behavior,
                           _strategy(lg, 5, 3), lg.games.chsh_game(5, 3)),
    "noisy_success chsh(4,4)":
        lambda lg: partial(lg.strategies.noisy_success,
                           lg.games.chsh_game(4, 4), _strategy(lg, 4, 4), 0.5),
    "game_hash chsh(6,3)":
        lambda lg: partial(lg.games.game_hash, lg.games.chsh_game(6, 3)),
    "boxes_run xyz.function --shots 200":
        _cli("boxes", "run", "fixtures/xyz.function", "--shots", "200",
             "--seed", "1", "--json"),
    "load_game fixtures/random3.game":
        lambda lg: partial(lg.games.load_game, _fixture(lg, "random3.game")),
    "lingame diew fixtures/ghz3.game --json":
        _cli("diew", "fixtures/ghz3.game", "--json"),
    "protocol_runs d=3 (2,2,2) --shots 2000": _protocol_runs,
    "simulate_pr_from_functional d=5 lifted": _simulate_pr,
}


def _git(checkout, *args):
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree(checkout):
    """SHA-256 over the sorted relative paths and the bytes of every file
    under the checkout's ``src/`` and ``perfbench/``, ``__pycache__``
    skipped: the code a run measured, in git or not."""
    names = sorted(path.relative_to(checkout).as_posix()
                   for top in ("src", "perfbench")
                   for path in (checkout / top).rglob("*") if path.is_file())
    digest = hashlib.sha256()
    for name in names:
        if "__pycache__" not in name.split("/"):
            data = (checkout / name).read_bytes()
            digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _commit(checkout):
    """The checkout's HEAD, whether a tracked file differs from it, and the
    ``_tree`` of the files it runs.  A change measured from an uncommitted
    tree shares its parent's HEAD and tells by ``dirty``, and only the tree
    names what ran.  The git fields are None outside a git repository."""
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {"commit": _git(checkout, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "tree": _tree(checkout)}


def _env(cache_root):
    """The caller's environment with a new empty PYTHONPYCACHEPREFIX, so a
    run imports no bytecode that an earlier run left in its checkout."""
    env = dict(os.environ)
    env["PYTHONPYCACHEPREFIX"] = tempfile.mkdtemp(dir=cache_root)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run_once(checkout, workload, seed, seconds, cache_root):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, env=_env(cache_root),
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited with "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _load(checkout, name):
    """The checkout's ``src/lingame`` and ``cli``, loaded afresh as package
    ``name``; ``src/`` imports only relatively, so it keeps its own modules."""
    for module in [m for m in sys.modules if m.partition(".")[0] == name]:
        del sys.modules[module]
    src = checkout / "src" / "lingame"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def _timing(call):
    """Mean seconds per call over at least 0.2 s."""
    gc.collect()
    calls, start = 0, time.perf_counter()
    while (elapsed := time.perf_counter() - start) < 0.2:
        call()
        calls += 1
    return elapsed / calls


def _scale(runs, rows=SCALE_ROWS, rounds=SCALE_ROUNDS):
    """Per label and row, the median and every round's seconds per call."""
    packages = {label: _load(checkout, f"lingame_run{i}")
                for i, (label, checkout) in enumerate(runs)}
    medians = {label: {} for label in packages}
    times = {label: {name: [] for name in rows} for label in packages}
    for name, row in rows.items():
        calls = {label: row(package) for label, package in packages.items()}
        for call in calls.values():
            call()
        for r in range(rounds):
            for label in (packages if r % 2 == 0 else reversed(packages)):
                times[label][name].append(_timing(calls[label]))
        for label in packages:
            medians[label][name] = statistics.median(times[label][name])
            print(f"{label:>8} {name}: {medians[label][name]:.4g} s", flush=True)
    return medians, times


def _paired(base, new):
    """Per row, the new/base ratios of the rounds: their median, quartiles
    and range, and the rounds where new was faster."""
    paired = {}
    for name, old in base.items():
        ratios = [n / o for o, n in zip(old, new[name])]
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        paired[name] = {"median": median, "iqr": [q1, q3],
                        "range": [min(ratios), max(ratios)],
                        "won": sum(r < 1 for r in ratios)}
    return paired


def _ratios(base, new):
    """new/base ratios of the medians of every workload and metric both
    labels have."""
    ratios = {}
    for workload, old in base.items():
        if workload in new:
            ratios[workload] = {m: new[workload]["median"][m] / v
                                for m, v in old["median"].items()
                                if m in new[workload]["median"] and v}
    return ratios


def main(argv=None):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before a loaded package imports numpy
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--run", action="append", required=True,
                    metavar="LABEL=DIR", help="a label and its checkout")
    args = ap.parse_args(argv)
    runs = []
    for item in args.run:
        label, sep, checkout = item.partition("=")
        if not sep or not label or not Path(checkout, "perfbench").is_dir():
            ap.error(f"--run {item!r}: expected LABEL=DIR of a checkout")
        runs.append((label, Path(checkout).resolve()))

    seconds = bench["run_seconds"]
    doc = {"benchmark": "perfbench/run.py", "seconds": seconds,
           "seeds": list(SEEDS), "cpu_count": os.cpu_count(),
           "numpy": importlib.metadata.version("numpy"),
           "python": platform.python_version(), "labels": {}}
    scale, times = _scale(runs)
    doc["scale"] = {"unit": "s", "rounds": SCALE_ROUNDS, "labels": scale,
                    "runs": times}
    workloads = [w["name"] for w in bench["workloads"]]
    results = {label: {w: [] for w in workloads} for label, _ in runs}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache_root:
        for i, seed in enumerate(SEEDS):
            for workload in workloads:
                for label, checkout in (runs if i % 2 == 0 else runs[::-1]):
                    run = _run_once(checkout, workload, seed, seconds,
                                    cache_root)
                    results[label][workload].append(run)
                    print(f"{label:>8} {workload:>8} seed {seed}: "
                          + " ".join(f"{k}={v:.4g}"
                                     for k, v in run["metrics"].items()),
                          flush=True)
    for label, checkout in runs:
        doc["labels"][label] = {**_commit(checkout), "workloads": {
            w: {"median": {m: statistics.median(r["metrics"][m] for r in rs)
                           for m in rs[0]["metrics"]},
                "runs": rs}
            for w, rs in results[label].items()}}
    if {"parent", "change"} <= doc["labels"].keys():
        doc["ratios"] = _ratios(doc["labels"]["parent"]["workloads"],
                                doc["labels"]["change"]["workloads"])
        doc["scale"]["ratios"] = paired = _paired(times["parent"], times["change"])
        print("change/parent ratios (scale: per-round medians):")
        for workload, row in doc["ratios"].items():
            print(f"  {workload:>8} " + " ".join(f"{m}={r:.3f}"
                                                 for m, r in row.items()))
        for name, stats in paired.items():
            print(f"  {name}: {stats['median']:.3f}")
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
