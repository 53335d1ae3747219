"""Run every workload on several seeds and summarise the spread.

    python3 perfbench/steadiness.py [--first-seed 1] [--workloads exact,...]

Makes RUNS runs of each workload, each with another seed and with the run
length ``run_seconds`` of BENCHMARK.json.  For each end-to-end metric,
scaled to reference speed and raw, prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, the figure a bound has to cover.  The runs are saved
as JSON under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
RAW = {"setup_s": ("setup", "raw_wall_s"), "pass_s": ("raw_pass_s",),
       "job_p50_ms": ("raw_job_p50_ms",), "job_p90_ms": ("raw_job_p90_ms",)}


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="exact,spectral,witness,boxes")
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    record = {}
    print("| workload | metric | median | q1 | q3 | spread | raw median | raw spread |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        runs = [run(workload, args.first_seed + i, seconds)
                for i in range(RUNS)]
        record[workload] = runs
        for name in runs[0][0]["metrics"]:
            med, q1, q3, spread = summary(
                [r["metrics"][name]["value"] for r, _ in runs])
            raw = ""
            if name in RAW:
                vals = []
                for _, detail in runs:
                    v = detail
                    for key in RAW[name]:
                        v = v[key]
                    vals.append(v)
                rmed, _, _, rspread = summary(vals)
                raw = f" {rmed:.4g} | {rspread:.3f} |"
            print(f"| {workload} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{spread:.3f} |{raw or ' | |'}", flush=True)
        shares = {r["failed"] / r["attempted"] for r, _ in runs}
        correct = all(r["correct"] for r, _ in runs)
        print(f"| {workload} | failed share | {sorted(shares)} | correct "
              f"{correct} | | | | |", flush=True)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"saved {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
