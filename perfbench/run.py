"""kernel-budget benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seed N]

Run from the root of a kernel-budget checkout; the package is imported from
its src/. Each run starts SETUP_SAMPLES child processes one after another
(worker.py): all of them time their set-up, the last one also runs timed
trials for --seconds. Children run serially with BLAS pinned to
BLAS_THREADS threads and KB_THREADS unset.

With --trace 0 the result carries the end-to-end metrics: median trial
wall_s and cpu_s, median setup_s over the children, and the trial child's
peak_rss_mb. With --trace 1 every seed runs once untraced and once traced,
and the result carries the per-layer metrics (medians over traced trials)
plus tracing.overhead_s. Metric names and units come from BENCHMARK.json.
Every trial's ledger counts and outputs are checked (see workloads.py); a
failed check makes "correct" false and the exit code 1.

The last line of standard output is the result object; the run environment
is the line before it, and a readable table goes to standard error.

--self-check is a one-off, untimed check that scalar-probe over two seeds
writes the same results.csv bytes with KB_THREADS=2 as serially.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
BLAS_THREADS = 1
TIME_LIMIT_S = 170


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, deadline: float) -> dict:
    """Run one worker to completion and parse its last stdout line."""
    ts = time.monotonic()
    timeout = deadline - ts
    if timeout <= 0:
        raise ChildFailed("out of time before starting a child")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args, "--spawn-ts", repr(ts)],
                              env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise ChildFailed(f"child exceeded {timeout:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(trace: int, setups: list, child: dict) -> dict:
    """Metric values by name for one run."""
    untraced = [t for t in child["trials"] if not t["traced"]]
    traced = [t for t in child["trials"] if t["traced"]]
    wall = statistics.median(t["wall_s"] for t in untraced)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(t["cpu_s"] for t in untraced),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    if trace:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(t["layers"][name] for t in traced)
        values["tracing.wall_s"] = wall
        values["tracing.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - wall
    return values


def print_table(values: dict, units: dict, child: dict):
    trials = child["trials"]
    print(f"trials: {len(trials)} ({sum(t['traced'] for t in trials)} traced)", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:34s} {value:16.6g} {units.get(name, '')}", file=sys.stderr)
    for t in trials:
        for err in t["errors"]:
            print(f"CHECK FAILED seed {t['seed']}: {err}", file=sys.stderr)


def self_check(seed: int) -> int:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as out:
        proc = subprocess.run([sys.executable, str(WORKER), "--self-check", "--seed", str(seed),
                               "--out", out, "--spawn-ts", repr(time.monotonic())],
                              env=child_env(), cwd=ROOT, timeout=TIME_LIMIT_S)
    return proc.returncode


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "kernel_budget" / "__init__.py").is_file():
        print(f"no src/kernel_budget under {ROOT}: run from a kernel-budget checkout",
              file=sys.stderr)
        return 2
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    if args.self_check:
        return self_check(args.seed)
    if args.workload is None:
        ap.error("--workload is required")

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    out = tempfile.mkdtemp(dir=ROOT / ".perfbench_out")
    try:
        setups = [spawn([*base, "--seconds", "0", "--out", out, "--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        child = spawn([*base, "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--out", out], deadline)
    except ChildFailed as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    setups.append(child["setup_s"])

    values = summarize(args.trace, setups, child)
    print_table(values, units, child)
    missing = [name for name in names if name not in values]
    if missing:
        raise SystemExit(f"metrics in BENCHMARK.json that the run did not produce: {missing}")
    failed = sum(1 for t in child["trials"] if t["errors"])
    print(json.dumps({"env": child["env"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(child["trials"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
