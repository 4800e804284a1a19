"""Experiment harness and command line interface.

`kernel-budget run --config cfg.json [--budget EXPR] [--out DIR]` runs one
experiment kind over a list of seeds and writes results.csv (long format,
one metric per row) plus manifest.json. `kernel-budget report --in DIR`
aggregates results.csv into aggregates.csv. Identical config and seeds
reproduce results.csv byte for byte; the timestamp lives only in the
manifest.

Each kind is a generate, a read and a score step, run by one trial loop.
The read gets the gram and the hints that generate hands out, never the
instance; the loop values the budget over the hints, sets it on the gram
before the read and takes the ledger report after it, so a row counts what
the read step read. KB_THREADS trials run at once, one gram per trial,
with rows ordered by seed.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import operator
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import BudgetExhaustedError
from .instances import CLASS_S1, CLASS_S2, gen_kkmc, gen_krr, gen_mog, gen_rank
from .kkmc import (Clustering, block_clustering, cost_explicit, rank_cost_gap,
                   recover_labels)
from .krr import classify_rows, d_eff, hard_instance_optimum, solve_exact
from .mog import (DEFAULT_SKETCH_CONST, cluster_mog, separation_thresholds,
                  sketch_sizes)
from .oracle import QueryReport
from .rng import stream

CSV_COLUMNS = ["experiment", "seed", "n", "k", "epsilon", "metric", "value",
               "distinct_entries", "total_requests", "budget", "budget_exhausted"]

AGG_COLUMNS = ["experiment", "metric", "count", "mean", "stderr", "min", "max"]

BUDGET_VARS = {"n", "k", "J", "eps", "m", "t"}

# pairs per query_pairs call in the budget-curve probe loop, a block of rows
# against their partners; bounds the ledger's temporaries of each call,
# about 80 bytes a pair (the point gathers stay within 512 KB at any size)
_PROBE_BATCH_PAIRS = 4096


class UsageError(ValueError):
    pass


_BUDGET_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                  ast.Div: operator.truediv, ast.Pow: operator.pow}
_BUDGET_NODES = (ast.Expression, ast.Constant, ast.Name, ast.Load, ast.BinOp,
                 ast.UnaryOp, ast.USub, ast.UAdd, *_BUDGET_BINOPS)


def parse_budget_expr(expr) -> ast.Expression:
    """Parse a budget expression; UsageError on bad syntax or an unknown name."""
    try:
        tree = ast.parse(str(expr), mode="eval")
    except (SyntaxError, ValueError) as e:  # ValueError: a null byte
        raise UsageError(f"malformed budget expression {expr!r}") from e
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in BUDGET_VARS:
            raise UsageError(f"unknown budget variable {node.id!r}")
        if not isinstance(node, _BUDGET_NODES) or (
                isinstance(node, ast.Constant) and not _is_number(node.value)):
            raise UsageError(f"unsupported syntax in budget expression {expr!r}")
    return tree


def eval_budget_expr(expr, env: dict) -> int:
    """Evaluate a budget expression like "0.5*n*J/4" over {n,k,J,eps,m,t};
    UsageError when its value is not a finite real number."""
    if _is_number(expr, int):
        return expr

    def ev(node):
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            if env.get(node.id) is None:
                raise UsageError(f"budget variable {node.id!r} has no value here")
            return float(env[node.id])
        if isinstance(node, ast.UnaryOp):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        return _BUDGET_BINOPS[type(node.op)](ev(node.left), ev(node.right))

    try:
        value = expr if isinstance(expr, float) else ev(parse_budget_expr(expr).body)
    except ArithmeticError as e:  # n/0, or a power past the float range
        raise UsageError(f"budget expression {expr!r} fails: {e}") from e
    if not (isinstance(value, float) and math.isfinite(value)):  # inf, nan, complex
        raise UsageError(f"budget expression {expr!r} is {value!r}, not a finite number")
    return int(math.floor(value))


def _is_number(v, types=(int, float)) -> bool:
    return isinstance(v, types) and not isinstance(v, bool)


# instance parameter -> (check, what it must be), applied wherever it appears
_PARAM_TYPES = {
    **dict.fromkeys(("n", "J", "k", "d", "delta_exponent"),
                    (lambda v: _is_number(v, int), "an integer")),
    **dict.fromkeys(("epsilon", "sigma", "c0", "c1", "sample_factor", "C_sketch"),
                    (_is_number, "a number")),
    "separation": (lambda v: v == "auto" or _is_number(v), '"auto" or a number'),
    "augmented": (lambda v: isinstance(v, bool), "true or false"),
    "lam_multipliers": (lambda v: isinstance(v, list) and bool(v) and all(map(_is_number, v)),
                        "a nonempty list of numbers"),
    "budgets": (lambda v: isinstance(v, list) and bool(v), "a nonempty list of expressions"),
}


@dataclass
class ExperimentConfig:
    kind: str
    instance: dict
    trials: int = 1
    seeds: Optional[list] = None
    budget: Optional[object] = None
    out: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise UsageError(f"unknown experiment kind {self.kind!r}; "
                             f"choose from {sorted(KINDS)}")
        if not isinstance(self.instance, dict):
            raise UsageError(f"instance must be an object, got {self.instance!r}")
        missing = KINDS[self.kind][-1] - set(self.instance)
        if missing:
            raise UsageError(f"{self.kind} requires instance parameters {sorted(missing)}")
        for name in sorted(set(self.instance) & set(_PARAM_TYPES)):
            value = self.instance[name]
            is_type, what = _PARAM_TYPES[name]
            if not is_type(value):
                raise UsageError(f"instance parameter {name} must be {what}, got {value!r}")
        budgets = self.instance.get("budgets", [])
        for expr in budgets if self.budget is None else [self.budget, *budgets]:
            parse_budget_expr(expr)
        if self.budget is not None and budgets:
            raise UsageError("give a budget or instance budgets, not both")
        if isinstance(self.trials, bool) or not isinstance(self.trials, int) or self.trials < 1:
            raise UsageError(f"trials must be a positive integer, got {self.trials!r}")
        if self.seeds is None:
            self.seeds = list(range(self.trials))
        try:
            if not isinstance(self.seeds, list) or not self.seeds:
                raise TypeError
            self.seeds = [operator.index(s) for s in self.seeds]
        except TypeError:
            raise UsageError(f"seeds must be a nonempty list of integers, "
                             f"got {self.seeds!r}") from None

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                blob = json.load(fh)
            except ValueError as e:  # JSONDecodeError, or bytes that are not text
                raise UsageError(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(blob, dict) or "kind" not in blob:
            raise UsageError(f"config {path} must be a JSON object with a kind")
        return ExperimentConfig(
            kind=blob["kind"],
            instance=blob.get("instance", {}),
            trials=blob.get("trials", 1),
            seeds=blob.get("seeds"),
            budget=blob.get("budget"),
            out=blob.get("out"),
        )


@dataclass
class ResultRow:
    experiment: str
    seed: int
    n: int
    k: Optional[float]
    epsilon: Optional[float]
    metric: str
    value: float
    report: Optional[QueryReport] = None

    def as_csv(self) -> list:
        rep = self.report
        return [
            self.experiment,
            self.seed,
            self.n,
            _fmt(self.k),
            _fmt(self.epsilon),
            self.metric,
            _fmt(self.value),
            rep.distinct_entries if rep else "",
            rep.total_requests if rep else "",
            rep.budget if rep and rep.budget is not None else "",
            (str(rep.budget_exhausted).lower() if rep else ""),
        ]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return str(v)
    return format(float(v), ".12g")


# ---------------------------------------------------------------------------
# experiment kinds. generate(p, seed) -> (instance, hints), hints the kind's
# budget variables among {n, k, J, eps, m, t} and the side information its
# read may use. read(gram, hints, p, seed, budget) -> output never sees the
# instance. score(inst, p, output, report) -> [(metric, value)] reads
# nothing; a list, as names may repeat.

def _gen_krr(p, seed):
    inst = gen_krr(p["n"], p["J"], p["epsilon"], seed, augmented=p.get("augmented", False))
    return inst, {"n": inst.n, "k": inst.k, "J": inst.J, "eps": inst.eps,
                  "z": inst.z, "lam": inst.lam}


def _read_krr_alpha(gram, hints, p, seed, budget):
    return solve_exact(gram, hints["z"], hints["lam"])


def _read_krr_classify(gram, hints, p, seed, budget):
    n = hints["n"]  # an augmented gram holds n + k points
    alpha = _read_krr_alpha(gram, hints, p, seed, budget)
    return classify_rows(alpha[:n], n, hints["k"], hints["eps"])


def _read_krr_indicator(gram, hints, p, seed, budget):
    return solve_exact(gram, hints["z"], hints["lam"], float(p["c0"]), float(p["c1"]))


def _score_closed_form(inst, p, alpha, report, c0=0.0, c1=1.0):
    """max |alpha - the exact minimizer| for the kernel c0 11' + (c1 - c0) G."""
    return [("max_abs_diff", float(np.max(np.abs(alpha - hard_instance_optimum(inst, c0, c1)))))]


def _score_accuracy(inst, p, labels, report):
    return [("accuracy", float(np.mean(labels == inst.classes)))]


def _score_d_eff(inst, p, output, report):
    eigen = inst.counts.astype(np.float64)
    return [(f"d_eff@{_fmt(mult)}", d_eff(eigen, mult * inst.lam))
            for mult in p.get("lam_multipliers", [0.1, 0.5, 1.0, 2.0, 10.0])]


def _gen_kkmc(p, seed):
    """The recovery's side information: the true partition, standing in for a
    near-optimal one, and the blocks of the points [0, n//2)."""
    inst = gen_kkmc(p["n"], p["k"], p["epsilon"], seed)
    return inst, {"n": inst.n, "k": inst.k, "eps": inst.eps,
                  "partition": block_clustering(inst), "labels": inst.block[:inst.n // 2].copy()}


def _score_cost_envelope(inst, p, output, report):
    cost = cost_explicit(inst.points, block_clustering(inst)).total
    return [("total_cost", cost), ("per_point_cost", cost / inst.n)]


def _read_recover(gram, hints, p, seed, budget):
    labeled = dict(enumerate(hints["labels"].tolist()))
    kwargs = {"sample_factor": float(p["sample_factor"])} if "sample_factor" in p else {}
    return recover_labels(gram, hints["partition"], labeled, hints["eps"], seed, **kwargs)


def _score_recover(inst, p, found, report):
    correct = sum(1 for i, b in found.items() if b == inst.block[i])
    return [("recovery_rate", correct / (inst.n - inst.n // 2)),
            ("queries", report.distinct_entries)]


def _score_rank_gap(inst, p, output, report):
    return [("gap", rank_cost_gap(inst)), ("planted", float(inst.planted))]


def _gen_mog(p, seed):
    """The pipeline's (m, t) at the config's sketch constant and exponent set
    the auto separation and the budget variables; the first t true labels
    stand in for a mean estimator."""
    n, d, k, eps, sigma = p["n"], p["d"], p["k"], p["epsilon"], p["sigma"]
    delta = p.get("delta_exponent", 3)
    m, t = sketch_sizes(n, k, eps, d, float(p.get("C_sketch", DEFAULT_SKETCH_CONST)), delta)
    sep = p.get("separation", "auto")
    if sep == "auto":
        sep = separation_thresholds(n, d, k, eps, sigma, m, delta)["max"]
    inst = gen_mog(n, d, k, sigma, float(sep), seed)
    return inst, {"n": n, "k": k, "eps": eps, "m": m, "t": t, "labels": inst.labels[:t].copy()}


def _read_mog(gram, hints, p, seed, budget):
    return cluster_mog(gram, k=p["k"], eps=p["epsilon"], sigma=p["sigma"], d=p["d"],
                       bootstrap_labels=hints["labels"], m=hints["m"], t=hints["t"])


def _score_mog(inst, p, result, report):
    cost = cost_explicit(inst.points, result.clustering).total
    truth_cost = cost_explicit(inst.points, Clustering(inst.labels.copy())).total
    ratio = cost / truth_cost if truth_cost > 0 else 1.0
    t, m = result.t, result.m
    closed_form = t * (t + 1) // 2 + 2 * m * (inst.n - t)
    return [("cost_ratio", ratio),
            ("success", float(ratio <= 1.0 + 8.0 * p["epsilon"])),
            ("distinct_entries", float(report.distinct_entries)),
            ("query_count_matches", float(report.distinct_entries == closed_form))]


def _probe_classify(gram, n: int, J: int, q: int, seed: int) -> np.ndarray:
    """Predict the class of each of the first n rows by collision sampling,
    q probes a row among those rows; returns the labels.

    Rows are probed in order, one query_pairs call per block of rows; the
    (rows, probes) draw gives the same partners as one draw per row. The
    caller sets the gram's budget; once it runs out, only the rows whose
    probes all ran are classified, and the rest keep CLASS_S1.
    """
    rng = stream(seed, "budget-probe")
    threshold = 1.5 * q / J
    predicted = np.full(n, CLASS_S1)
    step = max(1, _PROBE_BATCH_PAIRS // q)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        partners = rng.integers(0, n - 1, size=(rows.size, q))
        partners += partners >= rows[:, None]
        try:
            values = gram.query_pairs(rows, partners)
        except BudgetExhaustedError as e:
            values = e.values  # the probes charged before the budget ran out
        done = values.size // q
        hits = np.count_nonzero(values[:done * q].reshape(done, q) == 1.0, axis=1)
        predicted[rows[:done][hits > threshold]] = CLASS_S2
        if values.size < partners.size:
            break
    return predicted


# kind -> (generate, read or None, score, required instance parameters)
_KRR = {"n", "J", "epsilon"}
KINDS = {
    "krr-closed-form": (_gen_krr, _read_krr_alpha, _score_closed_form, _KRR),
    "krr-classify": (_gen_krr, _read_krr_classify, _score_accuracy, _KRR),
    "krr-indicator": (_gen_krr, _read_krr_indicator, lambda inst, p, alpha, rep: _score_closed_form(
        inst, p, alpha, rep, float(p["c0"]), float(p["c1"])), _KRR | {"c0", "c1"}),
    "d-eff-scan": (_gen_krr, None, _score_d_eff, _KRR),
    "kkmc-cost-envelope": (_gen_kkmc, None, _score_cost_envelope, {"n", "k", "epsilon"}),
    "kkmc-recover": (_gen_kkmc, _read_recover, _score_recover, {"n", "k", "epsilon"}),
    "rank-gap": (lambda p, seed: (gen_rank(p["n"], p["k"], seed), {"n": p["n"], "k": p["k"]}),
                 None, _score_rank_gap, {"n", "k"}),
    "mog-pipeline": (_gen_mog, _read_mog, _score_mog, {"n", "d", "k", "epsilon", "sigma"}),
    "budget-curve": (_gen_krr, lambda gram, hints, p, seed, budget: _probe_classify(
        gram, hints["n"], hints["J"], max(1, budget // hints["n"]), seed),
        _score_accuracy, _KRR | {"budgets"}),
}


def _trial(config: ExperimentConfig, seed: int) -> list:
    """One seed's rows: a pass per instance budgets expression, or one pass
    under the config budget, each on a fresh instance whose hints value the
    budget, and the ledger report taken between read and score."""
    generate, read, score, _ = KINDS[config.kind]
    p = config.instance
    rows = []
    for expr in p.get("budgets", [config.budget]):
        inst, hints = generate(p, seed)
        budget = None if expr is None else eval_budget_expr(expr, hints)
        inst.gram.set_budget(budget)
        output = read(inst.gram, hints, p, seed, budget) if read else None
        rep = inst.gram.ledger_report()
        suffix = f"@{expr}" if "budgets" in p else ""
        rows += [ResultRow(config.kind, seed, hints["n"], hints["k"], hints.get("eps"),
                           metric + suffix, value, rep)
                 for metric, value in score(inst, p, output, rep)]
        del inst, hints, output  # the next pass generates with this one's gram freed
    return rows


def run(config: ExperimentConfig):
    """Execute all trials, KB_THREADS at once; returns (rows, errors) by seed."""
    try:
        threads = max(1, int(os.environ.get("KB_THREADS", "1")))
    except ValueError:
        raise UsageError(f"KB_THREADS must be an integer, "
                         f"got {os.environ['KB_THREADS']!r}") from None

    def one(seed):
        try:
            return _trial(config, seed), None
        except (ValueError, RuntimeError) as e:
            return [ResultRow(config.kind, seed, config.instance["n"], None, None,
                              "error", float("nan"))], f"seed {seed}: {type(e).__name__}: {e}"

    rows, errors = [], []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # one worker runs in this thread: on a pool thread, with its own
        # malloc arena, the CLI benchmarks ran up to 20% slower and 10% larger
        trials = pool.map if threads > 1 else map
        for trial_rows, err in trials(one, sorted(config.seeds)):
            rows.extend(trial_rows)
            if err:
                errors.append(err)
    return rows, errors


def write_results(rows, out_dir, config: ExperimentConfig, errors):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv())
    manifest = {
        "config": {
            "kind": config.kind,
            "instance": config.instance,
            "trials": config.trials,
            "seeds": config.seeds,
            "budget": config.budget,
        },
        "versions": {"kernel-budget": __version__, "numpy": np.__version__},
        "errors": errors,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return out / "results.csv"


def report(rows):
    """Aggregate rows into per-(experiment, metric) summary records."""
    if not rows:
        raise UsageError("no rows to aggregate")
    groups = {}
    for row in rows:
        groups.setdefault((row.experiment, row.metric), []).append(row.value)
    records = []
    for (exp, metric), values in sorted(groups.items()):
        arr = np.asarray([v for v in values if not math.isnan(v)], dtype=np.float64)
        if arr.size == 0:
            records.append([exp, metric, 0, "nan", "nan", "nan", "nan"])
            continue
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        records.append([exp, metric, int(arr.size), _fmt(arr.mean()), _fmt(stderr),
                        _fmt(arr.min()), _fmt(arr.max())])
    return records


def _rows_from_csv(path):
    rows = []
    with open(path) as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(ResultRow(
                experiment=rec["experiment"],
                seed=int(rec["seed"]),
                n=int(rec["n"]),
                k=float(rec["k"]) if rec["k"] else None,
                epsilon=float(rec["epsilon"]) if rec["epsilon"] else None,
                metric=rec["metric"],
                value=float(rec["value"]),
            ))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kernel-budget",
        description="Run query-metered kernel experiments and aggregate results.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--budget", default=None,
                       help="override budget expression over {n,k,J,eps,m,t}")
    p_run.add_argument("--out", default=None, help="output directory")

    p_rep = sub.add_parser("report", help="aggregate a results directory")
    p_rep.add_argument("--in", dest="in_dir", required=True,
                       help="directory containing results.csv")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig.from_json(args.config)
            if args.budget is not None:
                config = replace(config, budget=args.budget)
            out_dir = args.out or config.out or "."
            rows, errors = run(config)
            path = write_results(rows, out_dir, config, errors)
            print(f"wrote {path} ({len(rows)} rows)")
            if errors:
                for err in errors:
                    print(f"error: {err}", file=sys.stderr)
                return 2
            return 0
        rows = _rows_from_csv(Path(args.in_dir) / "results.csv")
        records = report(rows)
        out_path = Path(args.in_dir) / "aggregates.csv"
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(AGG_COLUMNS)
            writer.writerows(records)
        print(f"wrote {out_path} ({len(records)} aggregates)")
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
