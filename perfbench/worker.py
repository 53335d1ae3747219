"""The workload process: one workload, one thread, one closed loop.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/worker.py --workload W --seed S --setup-only

``run.py`` starts it with BLAS/OpenMP pinned to one thread and
``src`` on the import path.  The process times its own set-up (from its
first statement to inputs ready), computes the check references, runs one
untimed warm-up pass, then runs whole passes over the workload's fixed job
list until ``--seconds`` have passed and at least MIN_JOBS jobs ran.  Each
job starts when the previous one returns.  It prints one JSON line.
"""

import time

T_START = time.perf_counter()
C_START = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

import refspeed  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 100
MODULES = ("algebra", "games", "values", "qbounds", "linalg", "strategies",
           "diew", "boxworld", "cli")


def load_lingame():
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"lingame.{name}") for name in MODULES})


def run_pass(workload, base, tracer=None):
    """Run every job once, in order, with the reference loop between jobs.
    Returns (job, wall, cpu, ref, result, error) per job, where ``ref`` is
    the mean of the reference loops just before and just after the job:
    a long job can span a change in host speed that one loop misses."""
    state = {**base, **workload.fresh_state()}
    records = []
    sampler = refspeed.Sampler()
    before = refspeed.measure()
    for job in workload.jobs:
        with sampler:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result, error = job.call(state), None
            except Exception as e:          # a failed operation, counted as such
                result, error = None, e
            wall = time.perf_counter() - t0 - sampler.spent
            cpu = time.process_time() - c0 - sampler.spent
        after = refspeed.measure()
        ref = statistics.fmean([before, after, *sampler.samples])
        if tracer is not None:
            tracer.end_job(refspeed.NOMINAL_S / ref)
        state[job.label] = result
        records.append((job, wall, cpu, ref, result, error))
        before = after
    return records


def _median_pass(passes, key):
    return statistics.median(sum(key(r) for r in recs) for recs in passes)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    lg = load_lingame()
    workload = workloads.BUILDERS[args.workload](lg, args.seed)
    setup_wall = time.perf_counter() - T_START
    setup_cpu = time.process_time() - C_START
    setup_ref = refspeed.measure(5)
    setup = {"scaled_s": refspeed.scale(setup_wall, setup_ref),
             "wall_s": setup_wall, "cpu_s": setup_cpu, "ref_s": setup_ref}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import checks   # imported once the set-up is timed
    import layers
    tracer = layers.Tracer() if args.trace else None
    setup_figures = {}
    if tracer is not None:
        # Build the inputs once more under the tracer, for the set-up figures.
        before = refspeed.measure()
        tracer.install()
        try:
            workloads.BUILDERS[args.workload](lg, args.seed)
        finally:
            tracer.uninstall()
        tracer.end_job(2 * refspeed.NOMINAL_S / (before + refspeed.measure()))
        setup_figures = tracer.take()
    checker = checks.Checker(workload)
    base = checker.pass_inputs
    problems = []
    failures = {}

    def account(records):
        for job, _, _, _, result, error in records:
            if error is not None:
                failures.setdefault(job.label, type(error).__name__)
            else:
                problems.extend(checker.check(job, result))

    account(run_pass(workload, base))              # untimed warm-up
    gc.collect()

    timed = []              # (traced, [(wall, cpu, ref, failed)], layer figures)
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(timed) % 2 == 1
        if traced:
            tracer.install()
        try:
            records = run_pass(workload, base, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        figures = None
        if traced:
            figures = tracer.take()
            figures["cli.report_bytes"] = sum(
                len(r[4][1].encode()) for r in records
                if r[0].kind.startswith("cli") and r[5] is None)
        account(records)
        timed.append((traced, [(w, c, ref, e is not None)
                               for _, w, c, ref, _, e in records], figures))
        attempted += len(records)
        failed += sum(1 for r in records if r[5] is not None)
        del records
        gc.collect()
        done = time.perf_counter() - start >= args.seconds and attempted >= MIN_JOBS
        if done and (tracer is None or len(timed) >= 2):
            break

    plain = [recs for traced, recs, _ in timed if not traced]
    jobs = [r for recs in plain for r in recs]
    scaled_ms = sorted(1e3 * refspeed.scale(w, ref) for w, _, ref, _ in jobs)
    raw_ms = sorted(1e3 * w for w, _, _, _ in jobs)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "passes": len(plain), "jobs_per_pass": len(workload.jobs),
        "failed_jobs": failures,
        "setup": setup,
        "raw_pass_s": _median_pass(plain, lambda r: r[0]),
        "cpu_pass_s": _median_pass(plain, lambda r: r[1]),
        "raw_job_p50_ms": statistics.median(raw_ms),
        "raw_job_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
        "reference_ms": 1e3 * statistics.median(r[2] for r in jobs),
        "job_ms": {job.label: 1e3 * statistics.median(
                       refspeed.scale(recs[i][0], recs[i][2]) for recs in plain)
                   for i, job in enumerate(workload.jobs)},
        "problems": problems[:20],
    }
    metrics = {
        "pass_s": (_median_pass(plain, lambda r: refspeed.scale(r[0], r[2])), "s"),
        "job_p50_ms": (statistics.median(scaled_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(scaled_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, timed, setup_figures,
                                metrics["pass_s"][0], detail["reference_ms"])
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: ({"value": v, "unit": u} if v is not None
                                      else {"value": 0, "unit": u, "absent": True})
                                  for k, (v, u) in metrics.items()},
                      "detail": detail}))
    return 0


def layer_metrics(tracer, timed, setup_figures, plain_pass_s, reference_ms):
    """Per-pass medians over the traced passes; ``*.setup_*`` figures come
    from one traced build of the inputs.  A layer whose function no longer
    exists is reported with value 0 and ``absent``."""
    import layers
    traced = [(recs, fig) for was_traced, recs, fig in timed if was_traced]
    traced_pass_s = statistics.median(
        sum(refspeed.scale(w, ref) for w, _, ref, _ in recs) for recs, _ in traced)
    out = {}
    for name, unit in layers.metric_names():
        prefix = name.rsplit(".", 1)[0]
        if name.startswith("bench."):
            continue
        if prefix in layers.LAYERS and prefix not in tracer.present:
            out[name] = (None, unit)
            continue
        prefix, what = name.rsplit(".", 1)
        if what.startswith("setup_"):
            out[name] = (setup_figures.get(f"{prefix}.{what[6:]}", 0), unit)
        else:
            out[name] = (statistics.median(fig.get(name, 0) for _, fig in traced),
                         unit)
    out["bench.trace_overhead_ms"] = (1e3 * (traced_pass_s - plain_pass_s), "ms")
    out["bench.reference_ms"] = (reference_ms, "ms")
    return out


if __name__ == "__main__":
    sys.exit(main())
