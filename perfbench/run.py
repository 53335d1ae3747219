"""Benchmark entry point.

    python3 perfbench/run.py --workload exact|spectral|witness|boxes \\
        --seed N --seconds T --trace 0|1

Run from the root of a lingame checkout.  The program is used from
``src/`` as it stands in the checkout.  Every workload runs in a process
of its own with BLAS/OpenMP pinned to one thread.  With ``--trace 0`` the
last line of standard output is one JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics instead.  The
line before it holds raw (unscaled) wall and CPU figures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 11         # fresh processes timed for setup_s, the worker included
DEADLINE_S = 170           # the whole run must end within this


def _env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "VECLIB_MAXIMUM_THREADS": "1",
    })
    env.pop("LINGAME_THREADS", None)      # the CLI jobs stay single-threaded
    return env


def _child(args, extra, timeout):
    """Run one worker process to its end; its last stdout line is JSON."""
    cmd = [sys.executable, "-s", str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("exact", "spectral", "witness", "boxes"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lingame" / "__init__.py").is_file():
        sys.exit(f"no lingame sources under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "fixtures" / "ghz3.game").is_file():
        sys.exit(f"no fixtures under {ROOT / 'fixtures'}; run from a checkout")

    start = time.monotonic()
    def left():
        return DEADLINE_S - (time.monotonic() - start)

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_child(args, ["--setup-only"], left()))
    result = _child(args, ["--seconds", str(args.seconds),
                           "--trace", str(args.trace)], left())
    detail = result.pop("detail")
    if not args.trace:
        setups.append(detail["setup"])
        result["metrics"] = {"setup_s": {"value": statistics.median(
                                             s["scaled_s"] for s in setups),
                                         "unit": "s"}, **result["metrics"]}
        detail["setup"] = {
            "samples": len(setups),
            "raw_wall_s": statistics.median(s["wall_s"] for s in setups),
            "cpu_s": statistics.median(s["cpu_s"] for s in setups),
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        sys.exit(f"worker did not finish within {e.timeout:.0f} s")
