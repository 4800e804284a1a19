"""Benchmark workloads: what one trial runs and how its output is checked.

Each workload makes one layer do most of the work while another sits idle,
so a change to one layer shows its gain on one workload and a predicted
"no change" on another:

- scalar-probe: `budget-curve` through the CLI. About 576k scalar
  `MeteredGram.query` calls from the probe loop in `cli`; no block reads and
  no BLAS.
- block-cost: `cost_kernel` twice on one gram (a fresh pass, then a pass that
  only re-reads) and a `cost_explicit` cross-check. Large square
  `query_block` charges; the second pass uses the ledger through lookups
  only, with no inserts. No CLI kind calls `cost_kernel`, so this is a
  library route.
- dense-krr: `krr-closed-form` and `krr-indicator` through the CLI. `full()`
  makes the ledger charge O(1), so dense Cholesky and the n x n temporaries
  in `krr` dominate. The control workload for any ledger change.
- mog-sketch: `mog-pipeline` through the CLI, the only route into `mog`:
  the bootstrap `eigh`, the pair tests and one rectangular sketch read.

A trial returns its ledger counts, a fingerprint that repeated trials of one
seed must reproduce, and the list of failed checks. The counts are checked
against closed forms for every seed and against `expected_counts.json` for
the default seed: a speed-up that changes a count is a bug.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from kernel_budget import cli, instances, kkmc

DEFAULT_SEED = 0
TOL = 1e-9
EXPECTED_COUNTS = Path(__file__).resolve().parent / "expected_counts.json"


def trial_seed(seed: int, j: int) -> int:
    """Seed of the j-th distinct trial of a run started with `seed`."""
    return seed * 1000 + j


@dataclass
class Outcome:
    counts: list = field(default_factory=list)   # [distinct_entries, total_requests] per snapshot
    fingerprint: str = ""
    errors: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple          # CLI configs without seeds, or library parameters
    trial: Callable         # (workload, seed, out_dir) -> Outcome

    def parse(self):
        """Validate the CLI configs the way `kernel-budget run` does."""
        for cfg in self.configs:
            if "kind" in cfg:
                cli.ExperimentConfig(kind=cfg["kind"], instance=cfg["instance"])


def cli_run(cfg: dict, seeds: list, out_dir: Path, errors: list):
    """One `kernel-budget run` of `cfg` over `seeds`; returns (rows, csv sha256)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps({**cfg, "seeds": seeds}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    if code != 0:
        errors.append(f"{cfg['kind']} seeds {seeds}: exit code {code}")
    data = (out_dir / "results.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if any(row["metric"] == "error" for row in rows):
        errors.append(f"{cfg['kind']} seeds {seeds}: trial error row")
    return rows, hashlib.sha256(data).hexdigest()


def _counts(row) -> list:
    return [int(row["distinct_entries"]), int(row["total_requests"])]


# -- scalar-probe ---------------------------------------------------------

BUDGET_MULTS = (0.1, 0.5, 1, 2)


def _scalar_probe(wl: Workload, seed: int, out: Path) -> Outcome:
    (cfg,) = wl.configs
    n, J = cfg["instance"]["n"], cfg["instance"]["J"]
    res = Outcome()
    rows, res.fingerprint = cli_run(cfg, [seed], out, res.errors)
    if len(rows) != len(BUDGET_MULTS):
        res.errors.append(f"expected {len(BUDGET_MULTS)} rows, got {len(rows)}")
    for row, mult in zip(rows, BUDGET_MULTS):
        distinct, requests = _counts(row)
        res.counts.append([distinct, requests])
        budget = int(row["budget"])
        if budget != math.floor(mult * n * J / 4):
            res.errors.append(f"budget {budget} is not floor({mult}*n*J/4)")
        if distinct > budget:
            res.errors.append(f"distinct {distinct} exceeds budget {budget}")
        if requests != n * (budget // n):
            res.errors.append(f"requests {requests} != n*floor(budget/n) = {n * (budget // n)}")
        if not 0.0 <= float(row["value"]) <= 1.0:
            res.errors.append(f"accuracy {row['value']} outside [0, 1]")
    return res


# -- block-cost -----------------------------------------------------------

def _block_cost(wl: Workload, seed: int, out: Path) -> Outcome:
    (p,) = wl.configs
    res = Outcome()
    inst = instances.gen_kkmc(p["n"], p["k"], p["epsilon"], seed)
    clustering = kkmc.block_clustering(inst)
    sizes = [int(s) for s in clustering.sizes]
    fresh = kkmc.cost_kernel(inst.gram, clustering)
    after_fresh = inst.gram.ledger_report()
    reread = kkmc.cost_kernel(inst.gram, clustering)
    after_reread = inst.gram.ledger_report()
    explicit = kkmc.cost_explicit(inst.points, clustering)

    distinct = sum(s * (s + 1) // 2 for s in sizes)
    requests = sum(s * s for s in sizes)
    for label, rep, want in (("fresh", after_fresh, [distinct, requests]),
                             ("re-read", after_reread, [distinct, 2 * requests])):
        got = [rep.distinct_entries, rep.total_requests]
        res.counts.append(got)
        if got != want:
            res.errors.append(f"{label} pass counts {got} != closed form {want}")
    for label, cost in (("fresh", fresh), ("re-read", reread)):
        diff = abs(cost.total - explicit.total)
        if not diff <= TOL:
            res.errors.append(f"{label} |cost_kernel - cost_explicit| = {diff:.3g}")
    digest = hashlib.sha256()
    for cost in (fresh, reread, explicit):
        digest.update(cost.per_cluster.tobytes())
    res.fingerprint = digest.hexdigest()
    return res


# -- dense-krr ------------------------------------------------------------

def _dense_krr(wl: Workload, seed: int, out: Path) -> Outcome:
    res = Outcome()
    digest = hashlib.sha256()
    for cfg in wl.configs:
        n = cfg["instance"]["n"]
        rows, sha = cli_run(cfg, [seed], out / cfg["kind"], res.errors)
        digest.update(sha.encode())
        if len(rows) != 1:
            res.errors.append(f"{cfg['kind']}: expected 1 row, got {len(rows)}")
        for row in rows:
            got = _counts(row)
            res.counts.append(got)
            if got != [n * (n + 1) // 2, n * n]:
                res.errors.append(f"{cfg['kind']}: counts {got} != [n(n+1)/2, n^2]")
            diff = float(row["value"])
            if not diff <= TOL:
                res.errors.append(f"{cfg['kind']}: max_abs_diff {diff:.3g} > {TOL}")
    res.fingerprint = digest.hexdigest()
    return res


# -- mog-sketch -----------------------------------------------------------

# t and m that cluster_mog derives from the mog-sketch config
MOG_T, MOG_M = 524, 34


def _mog_sketch(wl: Workload, seed: int, out: Path) -> Outcome:
    (cfg,) = wl.configs
    n = cfg["instance"]["n"]
    t, m = MOG_T, MOG_M
    res = Outcome()
    rows, res.fingerprint = cli_run(cfg, [seed], out, res.errors)
    values = {row["metric"]: float(row["value"]) for row in rows}
    for metric in ("success", "query_count_matches"):
        if values.get(metric) != 1.0:
            res.errors.append(f"{metric} = {values.get(metric)}, expected 1")
    # bootstrap t x t block, then 2m source rows against the n - 2m non-sources
    want = [t * (t + 1) // 2 + 2 * m * (n - t), t * t + 2 * m * (n - 2 * m)]
    got = _counts(rows[0]) if rows else None
    res.counts.append(got)
    if got != want:
        res.errors.append(f"counts {got} != closed form {want}")
    return res


WORKLOADS = {wl.name: wl for wl in (
    Workload("scalar-probe", ({
        "kind": "budget-curve",
        "instance": {"n": 8000, "J": 80, "epsilon": 0.1,
                     "budgets": [f"{m}*n*J/4" for m in BUDGET_MULTS]},
    },), _scalar_probe),
    Workload("block-cost", ({"n": 5000, "k": 5, "epsilon": 0.1},), _block_cost),
    Workload("dense-krr", (
        {"kind": "krr-closed-form", "instance": {"n": 3000, "J": 40, "epsilon": 0.1}},
        {"kind": "krr-indicator",
         "instance": {"n": 3000, "J": 40, "epsilon": 0.1, "c0": 0.25, "c1": 1.0}},
    ), _dense_krr),
    Workload("mog-sketch", ({
        "kind": "mog-pipeline",
        "instance": {"n": 20000, "d": 64, "k": 4, "epsilon": 0.25, "sigma": 1.0,
                     "C_sketch": 0.25},
    },), _mog_sketch),
)}


def check_expected_counts(name: str, counts: list) -> list:
    """Compare a default-seed trial's counts with the committed ones."""
    expected = json.loads(EXPECTED_COUNTS.read_text()).get(name)
    if counts != expected:
        return [f"default-seed counts {counts} != committed {expected}"]
    return []
