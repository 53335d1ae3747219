"""Run every benchmark workload over seeds 1 to 10 and record the medians.

    python3 tools/bench_record.py --out BENCH_19.json \\
        --run parent=PARENT_CHECKOUT --run change=.

Each ``--run LABEL=DIR`` names a checkout of lingame; ``perfbench/run.py``
is run from it (so it measures that checkout's ``src/`` with that
checkout's benchmark) for every workload listed in this repository's
``BENCHMARK.json`` and every seed, at its ``run_seconds``.  The labels
alternate run by run, and the label that goes first swaps from one seed to
the next, so two labels give ten alternating pairs per workload.  A
checkout of the parent commit can be made with ``git clone``, ``git
worktree add`` or ``git archive``.

The output file keeps, per label and workload, the median of every
end-to-end metric over the seeds, and every run's own figures, with the
core count and the numpy and Python versions; per label, the checkout's
git ``commit`` and ``dirty``, true when a tracked file differs from that
commit.  An existing file is overwritten.  Under ``scale`` it keeps
timings of ``classical_value`` on the near-cap games chsh(3,5),
chsh(4,4) and chsh(6,3), of ``biseparable_bound_partition`` on chsh(3,7)
with lone player 0, of
``quantum_bound`` on chsh(3,31), of building chsh(6,7) with
``chsh_game``, of ``strategy_behavior`` on chsh(4,4) and chsh(5,3) (a
pure state and rank-one bases drawn from ``default_rng(0)``), of
``noisy_success`` at visibility 0.5 on chsh(4,4) with the same strategy,
of ``game_hash`` on chsh(6,3) and of the in-process ``lingame boxes run
fixtures/xyz.function --shots 200 --seed 1 --json`` call (``cli.main``
with stdout captured).  A timing repeats the call until at least 0.2 s
have passed and takes the mean, so a call of milliseconds is timed over
a hundred calls or more; a sample is the best of three such timings in
a fresh single-threaded interpreter.  Each row takes five samples per
label, the labels alternating sample by sample, and keeps every sample
and, per label, their median: on a 2-core host shared with other work,
the slowest of a row's five samples in fresh interpreters reads 1.1 to
1.6 times the fastest (``BENCH_19.json``; with means of 20 calls the
``boxes_run`` row read 1.6 to 1.8 times in ``BENCH_17.json``), more than
one sample can resolve.  Every run and every scale sample gets a new
empty ``PYTHONPYCACHEPREFIX`` with bytecode writing on, so no label
imports bytecode that an earlier run left in its checkout.  When
``parent`` and ``change`` are both run, the change/parent ratios of the
medians and of the scale timings are stored and printed.  The ratios of
every label's medians and scale timings to the ``change`` label of the
newest committed ``BENCH_*.json`` are stored and printed as well, under
``previous``.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(1, 11))
# (name, call, players, outcomes) of each scale row; the game is
# chsh(players, outcomes), the biseparable search takes lone player 0, and
# the chsh_game row times building the game itself.  The boxes_run row
# takes no game: it times the CLI call on fixtures/xyz.function.
SCALE_ROWS = (
    ("classical_value chsh(3,5)", "classical_value", 3, 5),
    ("classical_value chsh(4,4)", "classical_value", 4, 4),
    ("classical_value chsh(6,3)", "classical_value", 6, 3),
    ("biseparable_bound_partition chsh(3,7) lone 0",
     "biseparable_bound_partition", 3, 7),
    ("quantum_bound chsh(3,31)", "quantum_bound", 3, 31),
    ("chsh_game chsh(6,7)", "chsh_game", 6, 7),
    ("strategy_behavior chsh(4,4)", "strategy_behavior", 4, 4),
    ("strategy_behavior chsh(5,3)", "strategy_behavior", 5, 3),
    ("noisy_success chsh(4,4)", "noisy_success", 4, 4),
    ("game_hash chsh(6,3)", "game_hash", 6, 3),
    ("boxes_run xyz.function --shots 200", "boxes_run"))
SCALE_SAMPLES = 5  # fresh interpreters per label and scale row
_SCALE_SCRIPT = """
import contextlib, io, sys, time
import numpy as np
from lingame import cli, diew, qbounds, strategies, values
from lingame.games import chsh_game, game_hash
shape = tuple(map(int, sys.argv[2:]))
if sys.argv[1] == "boxes_run":
    argv = ["boxes", "run", "fixtures/xyz.function", "--shots", "200",
            "--seed", "1", "--json"]
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
elif sys.argv[1] == "chsh_game":
    call = lambda: chsh_game(*shape)
elif sys.argv[1] == "game_hash":
    game = chsh_game(*shape)
    call = lambda: game_hash(game)
elif sys.argv[1] in ("strategy_behavior", "noisy_success"):
    # a pure state and rank-one bases, d = |G| per player
    game, (n, d), rng = chsh_game(*shape), shape, np.random.default_rng(0)
    def unitary():
        gauss = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return np.linalg.qr(gauss)[0]
    bases = [[list(unitary().T) for _ in range(q)] for q in game.question_counts]
    psi = rng.normal(size=d**n) + 1j * rng.normal(size=d**n)
    strategy = strategies.QuantumStrategy(
        (d,) * n, psi / np.linalg.norm(psi), bases)
    call = {"strategy_behavior":
                lambda: strategies.strategy_behavior(strategy, game),
            "noisy_success":
                lambda: strategies.noisy_success(game, strategy, 0.5)}[
        sys.argv[1]]
else:
    game = chsh_game(*shape)
    call = {"classical_value": lambda: values.classical_value(game),
            "biseparable_bound_partition":
                lambda: diew.biseparable_bound_partition(game, 0),
            "quantum_bound": lambda: qbounds.quantum_bound(game)}[sys.argv[1]]
times = []
for _ in range(3):  # a timing repeats the call for at least 0.2 s
    calls, start = 0, time.perf_counter()
    while True:
        call()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= 0.2:
            break
    times.append(elapsed / calls)
print(min(times))
"""


def _git(checkout, *args):
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _commit(checkout):
    """The checkout's HEAD, and whether a tracked file differs from it: a
    change measured from an uncommitted tree shares its parent's HEAD and
    tells by ``dirty``.  Both are None outside a git repository."""
    status = _git(checkout, "status", "--porcelain", "--untracked-files=no")
    return {"commit": _git(checkout, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def _env(cache_root, **extra):
    """The caller's environment for one run, with a new empty
    PYTHONPYCACHEPREFIX under ``cache_root`` and bytecode writing on: every
    run starts with no compiled module at all, whatever ``__pycache__`` its
    checkout or the installed packages hold, and its later interpreters
    import what its first one compiled."""
    env = dict(os.environ, **extra)
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


def _scale_once(checkout, name, call, shape, cache_root):
    env = _env(cache_root, PYTHONPATH=str(checkout / "src"),
               **{k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")})
    proc = subprocess.run([sys.executable, "-c", _SCALE_SCRIPT, call,
                           *map(str, shape)], cwd=checkout, env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"timing {name} in {checkout} exited with "
                         f"{proc.returncode}")
    return float(proc.stdout)


def _ratios(base, new):
    """new/base ratios of the medians of every workload and metric both
    runs have."""
    ratios = {}
    for workload, old in base.items():
        if workload in new:
            ratios[workload] = {m: new[workload]["median"][m] / v
                                for m, v in old["median"].items()
                                if m in new[workload]["median"] and v}
    return ratios


def _scale_ratios(base, new):
    return {name: new[name] / t for name, t in base.items() if name in new and t}


def _print_ratios(title, ratios, scale_ratios):
    print(title)
    for workload, row in ratios.items():
        print(f"  {workload:>8} " + " ".join(f"{m}={r:.3f}"
                                             for m, r in row.items()))
    for name, ratio in scale_ratios.items():
        print(f"  {name}: {ratio:.3f}")


def _newest_committed(out):
    """(name, document) of the committed BENCH_<N>.json with the largest
    N, other than ``out``; None when there is none."""
    proc = subprocess.run(["git", "-C", str(ROOT), "ls-files", "BENCH_*.json"],
                          capture_output=True, text=True)
    names = [n for n in proc.stdout.split()
             if n[6:-5].isdigit() and (ROOT / n).resolve() != out.resolve()]
    if proc.returncode != 0 or not names:
        return None
    name = max(names, key=lambda n: int(n[6:-5]))
    return name, json.loads((ROOT / name).read_text())


def main(argv=None):
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
    scale = {label: {} for label, _ in runs}
    scale_runs = {label: {} for label, _ in runs}
    workloads = [w["name"] for w in bench["workloads"]]
    results = {label: {w: [] for w in workloads} for label, _ in runs}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache_root:
        for name, call, *shape in SCALE_ROWS:
            for i in range(SCALE_SAMPLES):
                for label, checkout in (runs if i % 2 == 0 else runs[::-1]):
                    scale_runs[label].setdefault(name, []).append(
                        _scale_once(checkout, name, call, shape, cache_root))
            for label, _ in runs:
                scale[label][name] = statistics.median(scale_runs[label][name])
                print(f"{label:>8} {name}: {scale[label][name]:.4g} s",
                      flush=True)
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
    doc["scale"] = {"unit": "s", "best_of": 3, "samples": SCALE_SAMPLES,
                    "labels": scale, "runs": scale_runs}
    for label, checkout in runs:
        doc["labels"][label] = {**_commit(checkout), "workloads": {
            w: {"median": {m: statistics.median(r["metrics"][m] for r in rs)
                           for m in rs[0]["metrics"]},
                "runs": rs}
            for w, rs in results[label].items()}}
    if {"parent", "change"} <= doc["labels"].keys():
        doc["ratios"] = _ratios(doc["labels"]["parent"]["workloads"],
                                doc["labels"]["change"]["workloads"])
        doc["scale"]["ratios"] = _scale_ratios(scale["parent"], scale["change"])
        _print_ratios("change/parent ratios of the medians:", doc["ratios"],
                      doc["scale"]["ratios"])
    previous = _newest_committed(args.out)
    if previous and "change" in previous[1]["labels"]:
        name, prev = previous
        doc["previous"] = {"file": name, "label": "change", "labels": {}}
        for label in doc["labels"]:
            ratios = _ratios(prev["labels"]["change"]["workloads"],
                             doc["labels"][label]["workloads"])
            scale_ratios = _scale_ratios(
                prev.get("scale", {}).get("labels", {}).get("change", {}),
                scale[label])
            doc["previous"]["labels"][label] = {"ratios": ratios,
                                                "scale_ratios": scale_ratios}
            _print_ratios(f"{label}/{name} change ratios of the medians:",
                          ratios, scale_ratios)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
