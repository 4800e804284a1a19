"""Benchmark child process: set up, run timed trials, print one JSON line.

run.py starts this with PYTHONPATH at the checkout's src/, BLAS pinned through
the environment and KB_THREADS unset. Set-up (imports, config parse, one
BLAS warm-up `eigh`) is timed from the parent's spawn timestamp, so the
first-call cost stays out of the trial times. Trials run until the next one
would end past --seconds (at least one). Without tracing, trial 1 repeats
trial 0's seed; with tracing, every seed runs once untraced and once traced, in
alternating order.
Either way each seed that runs twice must reproduce its fingerprint.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    def openblas(show_config):
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kb_threads": os.environ.get("KB_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": openblas(np.show_config),
        "scipy_blas": openblas(scipy.show_config),
        "seed": seed,
    }


def _run_trial(wl, seed, out_dir, tracer=None):
    from workloads import Outcome

    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            outcome = wl.trial(wl, seed, out_dir)
        else:
            with tracer:
                outcome = wl.trial(wl, seed, out_dir)
    except Exception as e:  # a failed trial is counted, not fatal to the run
        traceback.print_exc()
        outcome = Outcome(errors=[f"{type(e).__name__}: {e}"])
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    record = {"seed": seed, "wall_s": wall, "cpu_s": cpu, "traced": tracer is not None,
              "counts": outcome.counts, "fingerprint": outcome.fingerprint,
              "errors": outcome.errors}
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def self_check(seed: int, out: Path) -> int:
    """scalar-probe over two seeds: KB_THREADS=2 must write the serial bytes."""
    import workloads

    (cfg,) = workloads.WORKLOADS["scalar-probe"].configs
    seeds = [workloads.trial_seed(seed, 0), workloads.trial_seed(seed, 1)]
    errors, digests = [], []
    for threads in (None, "2"):
        os.environ.pop("KB_THREADS", None)
        if threads is not None:
            os.environ["KB_THREADS"] = threads
        digests.append(workloads.cli_run(cfg, seeds, out / f"threads-{threads}", errors)[1])
    os.environ.pop("KB_THREADS", None)
    if digests[0] != digests[1]:
        errors.append(f"results.csv sha256 serial {digests[0]} != KB_THREADS=2 {digests[1]}")
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({"self_check": "scalar-probe KB_THREADS=2 vs serial", "seeds": seeds,
                      "sha256": digests, "correct": not errors}))
    return 1 if errors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-ts", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if args.self_check:
        return self_check(args.seed, Path(args.out))

    import numpy as np

    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload]
    wl.parse()
    spd = np.random.default_rng(0).standard_normal((256, 256))
    np.linalg.eigh(spd @ spd.T)
    setup_s = time.monotonic() - args.spawn_ts
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = Path(args.out)
    tracer = Tracer() if args.trace else None
    trials, unit_times = [], []
    start = time.perf_counter()
    i = 0
    while True:
        unit_start = time.perf_counter()
        if tracer is None:
            seed = workloads.trial_seed(args.seed, max(0, i - 1))
            trials.append(_run_trial(wl, seed, out / f"t{i}"))
        else:
            # alternate which of the pair runs first, so drift hits both sides alike
            seed = workloads.trial_seed(args.seed, i)
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                trials.append(_run_trial(wl, seed, out / f"{'traced' if traced else 'plain'}{i}",
                                         tracer if traced else None))
        unit_times.append(time.perf_counter() - unit_start)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(unit_times) > args.seconds:
            break

    fingerprints = {}
    default_seed = workloads.trial_seed(workloads.DEFAULT_SEED, 0)
    for rec in trials:
        first = fingerprints.setdefault(rec["seed"], rec["fingerprint"])
        if rec["fingerprint"] != first:
            rec["errors"].append(f"seed {rec['seed']}: output differs from its first run")
        if rec["seed"] == default_seed and not rec["errors"]:
            rec["errors"] += workloads.check_expected_counts(wl.name, rec["counts"])

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": _environment(args.seed),
        "trials": trials,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
