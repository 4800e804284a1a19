"""Harness: config validation, experiment bodies, CSV schema, reproducibility."""

import csv
import importlib
import json
import os
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from kernel_budget import cli, krr
from kernel_budget.cli import (AGG_COLUMNS, CSV_COLUMNS, KINDS,
                               ExperimentConfig, ResultRow, UsageError,
                               eval_budget_expr, main, report, run,
                               write_results)
from kernel_budget.errors import BudgetExhaustedError
from kernel_budget.instances import CLASS_S1, CLASS_S2, gen_krr, gen_mog
from kernel_budget.krr import hard_instance_optimum, solve_exact
from kernel_budget.mog import cluster_mog, separation_thresholds, sketch_sizes
from kernel_budget.rng import stream


class TestBudgetExpr:
    def test_plain_number(self):
        assert eval_budget_expr(120, {}) == 120
        assert eval_budget_expr("120.9", {}) == 120

    def test_formula(self):
        env = {"n": 4000, "J": 40, "k": 4, "eps": 0.1}
        assert eval_budget_expr("0.5*n*J/4", env) == 20000
        assert eval_budget_expr("n*k/eps", env) == 160000
        assert eval_budget_expr("-(-n)", env) == 4000

    def test_unknown_variable(self):
        with pytest.raises(UsageError):
            eval_budget_expr("n*q", {"n": 10})

    def test_missing_value(self):
        with pytest.raises(UsageError):
            eval_budget_expr("n*m", {"n": 10})

    def test_rejects_calls(self):
        with pytest.raises(UsageError):
            eval_budget_expr("__import__('os')", {})

    def test_rejects_malformed_syntax(self):
        for expr in ("nonsense(", "n*", "'n'", "", "n\0"):
            with pytest.raises(UsageError):
                eval_budget_expr(expr, {"n": 10})

    @pytest.mark.parametrize("expr", [
        "1e400", "0*1e400", "n/0", "10**400", "(-n)**0.5", float("inf"), float("nan"),
    ], ids=["overflow-constant", "nan", "zero-division", "overflow-power", "complex",
            "inf-number", "nan-number"])
    def test_rejects_values_that_are_not_finite_reals(self, expr):
        with pytest.raises(UsageError):
            eval_budget_expr(expr, {"n": 10})


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            ExperimentConfig(kind="krr-magic", instance={})

    def test_missing_params_detected_before_rng(self):
        with pytest.raises(UsageError):
            ExperimentConfig(kind="krr-classify", instance={"n": 100})

    @pytest.mark.parametrize("budget, budgets", [
        ("nonsense(", ["n*J/4"]),
        ("n*q", ["n*J/4"]),
        (None, ["n*J/4", "nonsense("]),
        (None, ["n*q"]),
        (None, "n*J/4"),
        (None, [None]),
        (None, []),
        (None, [True]),
        (None, ["True"]),
        (None, ["True*n"]),
        ("n*J/4", ["n*J/4"]),
    ])
    def test_budget_expressions_checked_up_front(self, budget, budgets):
        with pytest.raises(UsageError):
            ExperimentConfig(kind="budget-curve", budget=budget,
                             instance={"n": 40, "J": 8, "epsilon": 0.25,
                                       "budgets": budgets})

    def test_seed_defaults(self):
        cfg = ExperimentConfig(kind="rank-gap", instance={"n": 20, "k": 3}, trials=4)
        assert cfg.seeds == [0, 1, 2, 3]


# one tiny instance per experiment kind; mog-pipeline runs at the default
# C_sketch, whose sketch_dimension (615) exceeds d
TINY_INSTANCES = {
    "krr-closed-form": {"n": 40, "J": 8, "epsilon": 0.25},
    "krr-classify": {"n": 40, "J": 8, "epsilon": 0.25},
    "krr-indicator": {"n": 40, "J": 8, "epsilon": 0.25, "c0": 0.2, "c1": 1.3},
    "d-eff-scan": {"n": 40, "J": 8, "epsilon": 0.25},
    "kkmc-cost-envelope": {"n": 200, "k": 2, "epsilon": 0.5},
    "kkmc-recover": {"n": 200, "k": 2, "epsilon": 0.5},
    "rank-gap": {"n": 20, "k": 3},
    "mog-pipeline": {"n": 300, "d": 8, "k": 2, "epsilon": 0.25, "sigma": 1.0},
    "budget-curve": {"n": 40, "J": 8, "epsilon": 0.25, "budgets": ["n*J/4"]},
}


# rows of each TINY_INSTANCES kind at seed 0, as (metric, n, distinct_entries,
# total_requests, budget, budget_exhausted); kinds with no read step read 0, 0
TINY_ROWS = {
    "krr-closed-form": [("max_abs_diff", 40, 820, 1600, None, False)],
    "krr-classify": [("accuracy", 40, 820, 1600, None, False)],
    "krr-indicator": [("max_abs_diff", 40, 820, 1600, None, False)],
    "d-eff-scan": [(f"d_eff@{m}", 40, 0, 0, None, False) for m in ("0.1", "0.5", "1", "2", "10")],
    "kkmc-cost-envelope": [("total_cost", 200, 0, 0, None, False),
                           ("per_point_cost", 200, 0, 0, None, False)],
    "kkmc-recover": [("recovery_rate", 200, 100, 100, None, False),
                     ("queries", 200, 100, 100, None, False)],
    "rank-gap": [("gap", 20, 0, 0, None, False), ("planted", 20, 0, 0, None, False)],
    "mog-pipeline": [(metric, 300, 4870, 5769, None, False) for metric in
                     ("cost_ratio", "success", "distinct_entries", "query_count_matches")],
    "budget-curve": [("accuracy@n*J/4", 40, 75, 80, 80, False)],
}


class TestRunners:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_runs(self, kind):
        rows, errors = run(ExperimentConfig(kind=kind, seeds=[0],
                                            instance=TINY_INSTANCES[kind]))
        assert not errors
        assert rows and all(r.experiment == kind for r in rows)
        assert all(r.report is not None for r in rows)
        assert [(r.metric, r.n, r.report.distinct_entries, r.report.total_requests,
                 r.report.budget, r.report.budget_exhausted) for r in rows] == TINY_ROWS[kind]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_score_charges_nothing(self, kind, monkeypatch):
        generate, read, score, required = KINDS[kind]
        seen = []

        def checked_score(inst, p, output, report):
            before = inst.gram.ledger_report()
            metrics = score(inst, p, output, report)
            seen.append((report, before, inst.gram.ledger_report()))
            return metrics

        monkeypatch.setitem(KINDS, kind, (generate, read, checked_score, required))
        _, errors = run(ExperimentConfig(kind=kind, seeds=[0], instance=TINY_INSTANCES[kind]))
        assert not errors and seen
        for report, before, after in seen:
            assert report == before == after
            assert report.per_row.tolist() == before.per_row.tolist() == after.per_row.tolist()
            if read is None:
                assert report.distinct_entries == report.total_requests == 0
                assert not report.per_row.any()
                assert report.budget is None and not report.budget_exhausted

    def test_krr_closed_form_rows(self):
        cfg = ExperimentConfig(kind="krr-closed-form", seeds=[0, 1, 2, 3, 4],
                               instance={"n": 200, "J": 20, "epsilon": 0.2})
        rows, errors = run(cfg)
        assert not errors
        assert len(rows) == 5
        assert all(r.metric == "max_abs_diff" and r.value <= 1e-9 for r in rows)
        # full reveal shows up in the report: no hidden reads
        assert all(r.report.distinct_entries == 200 * 201 // 2 for r in rows)

    def test_budget_curve_monotone(self):
        cfg = ExperimentConfig(
            kind="budget-curve", seeds=[0, 1, 2],
            instance={"n": 2000, "J": 40, "epsilon": 0.1,
                      "budgets": ["0.1*n*J/4", "n*J/4", "2*n*J/4"]})
        rows, errors = run(cfg)
        assert not errors
        acc = {}
        for r in rows:
            acc.setdefault(r.metric, []).append(r.value)
        means = [np.mean(acc[f"accuracy@{b}"])
                 for b in ("0.1*n*J/4", "n*J/4", "2*n*J/4")]
        assert means[0] <= means[1] <= means[2]
        assert all(r.report.budget is not None for r in rows)
        assert all(r.report.distinct_entries <= r.report.budget for r in rows)

    def test_mog_rows_shape(self):
        cfg = ExperimentConfig(
            kind="mog-pipeline", seeds=[0, 1],
            instance={"n": 900, "d": 16, "k": 3, "epsilon": 0.25, "sigma": 1.0,
                      "C_sketch": 0.25})
        rows, errors = run(cfg)
        assert not errors
        metrics = {r.metric for r in rows}
        assert metrics == {"cost_ratio", "success", "distinct_entries",
                           "query_count_matches"}
        assert all(r.value == 1.0 for r in rows if r.metric == "query_count_matches")

    def test_rank_gap_and_recover_kinds(self):
        rows, errors = run(ExperimentConfig(kind="rank-gap", seeds=[0, 1, 2],
                                            instance={"n": 40, "k": 4}))
        assert not errors and len(rows) == 6
        rows, errors = run(ExperimentConfig(
            kind="kkmc-recover", seeds=[0],
            instance={"n": 2000, "k": 4, "epsilon": 0.25}))
        assert not errors
        rate = [r.value for r in rows if r.metric == "recovery_rate"][0]
        assert rate >= 1 / 6

    def test_kkmc_envelope_and_deff_kinds(self):
        rows, errors = run(ExperimentConfig(
            kind="kkmc-cost-envelope", seeds=[0],
            instance={"n": 20_000, "k": 4, "epsilon": 0.25}))
        assert not errors
        per_point = [r.value for r in rows if r.metric == "per_point_cost"][0]
        assert 0.0 < per_point < 1.0
        rows, errors = run(ExperimentConfig(
            kind="d-eff-scan", seeds=[0],
            instance={"n": 5000, "J": 20, "epsilon": 0.2}))
        assert not errors
        vals = [r.value for r in rows]
        assert vals == sorted(vals, reverse=True)  # shrinking in lambda

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_indicator_certificate_matches_out_of_place(self, seed):
        # the row is solve_exact's distance from the closed-form minimizer at c0, c1
        p = TINY_INSTANCES["krr-indicator"]
        (row,), errors = run(ExperimentConfig(kind="krr-indicator", seeds=[seed],
                                              instance=p))
        assert not errors
        inst = gen_krr(p["n"], p["J"], p["epsilon"], seed)
        c0, c1 = p["c0"], p["c1"]
        fast = solve_exact(inst.gram, inst.z, inst.lam, c0, c1)
        assert row.value == float(np.max(np.abs(fast - hard_instance_optimum(inst, c0, c1))))

    @pytest.mark.parametrize("instance", [
        TINY_INSTANCES["krr-indicator"],  # rank 6 at n = 40, past n / 16
        {"n": 600, "J": 40, "epsilon": 0.25, "c0": 0.2, "c1": 1.3},  # rank 30 at n = 600
    ], ids=["dense", "pivoted"])
    def test_indicator_certificate_does_not_depend_on_the_solver(self, monkeypatch, instance):
        # a solve that is 1e-3 off in relative terms shows in the row at
        # either rank, as the reference goes through no solver. The ids name
        # the routes these ranks took before the solve pivoted to the rank
        solve = krr._solve
        monkeypatch.setattr(krr, "_solve", lambda *a, **kw: (1 + 1e-3) * solve(*a, **kw))
        (row,), errors = run(ExperimentConfig(kind="krr-indicator", seeds=[0], instance=instance))
        assert not errors
        assert row.value > 1e-9

    @pytest.mark.parametrize("n, J", [(600, 40), (1000, 100)], ids=["pivoted", "dense"])
    def test_indicator_peak_memory(self, n, J):
        # no n x n array at rank 3J/4 = 30 (n = 600) or 75 (n = 1000, past
        # the n / 16 pivots where the solve once fell back to a dense
        # Cholesky): the factor and one column at a time. The first run is
        # not traced, so that one-time imports stay out of the peak
        cfg = ExperimentConfig(kind="krr-indicator", seeds=[0],
                               instance={"n": n, "J": J, "epsilon": 0.25,
                                         "c0": 0.2, "c1": 1.3})
        run(cfg)
        (_, errors), peak = traced_peak(run, cfg)
        assert not errors
        assert peak <= 0.25 * n * n * 8

    def test_budget_passes_hold_one_instance_at_a_time(self, monkeypatch):
        generate, read, score, required = KINDS["budget-curve"]
        grams = []

        def tracked(p, seed):
            assert all(gram() is None for gram in grams)
            inst = generate(p, seed)
            grams.append(weakref.ref(inst.gram))
            return inst

        monkeypatch.setitem(KINDS, "budget-curve", (tracked, read, score, required))
        cfg = ExperimentConfig(kind="budget-curve", seeds=[0], instance={
            **TINY_INSTANCES["budget-curve"], "budgets": ["n", "n*J/4", "2*n*J/4"]})
        assert len(cli._trial(cfg, 0)) == len(grams) == 3

    def test_mog_read_gets_only_the_bootstrap_labels(self, monkeypatch):
        cfg = ExperimentConfig(kind="mog-pipeline", seeds=[0],
                               instance=TINY_INSTANCES["mog-pipeline"])
        want, errors = run(cfg)
        assert not errors
        generate, read, score, required = KINDS["mog-pipeline"]
        _, t = cli._mog_sizes(cfg.instance)
        assert t < cfg.instance["n"]
        seen = []

        def masked(inst, p, seed, budget):
            # labels past t read as -1 during the read step only: the score
            # step compares with the truth
            truth = inst.labels.copy()
            inst.labels[t:] = -1
            try:
                return read(inst, p, seed, budget)
            finally:
                inst.labels[:] = truth

        def recorded(gram, **kwargs):
            seen.append(len(kwargs["bootstrap_labels"]))
            return cluster_mog(gram, **kwargs)

        monkeypatch.setitem(KINDS, "mog-pipeline", (generate, masked, score, required))
        monkeypatch.setattr(cli, "cluster_mog", recorded)
        got, errors = run(cfg)
        assert not errors
        assert [row.as_csv() for row in got] == [row.as_csv() for row in want]
        assert seen == [t]

    def test_error_trials_are_catalogued(self):
        cfg = ExperimentConfig(
            kind="mog-pipeline", seeds=[0],
            instance={"n": 50, "d": 16, "k": 3, "epsilon": 0.25, "sigma": 1.0})
        rows, errors = run(cfg)  # t exceeds n: stage error, not a crash
        assert errors and "seed 0" in errors[0]
        assert rows[0].metric == "error"


def scalar_probe_reference(inst, q, budget, seed):
    """The per-query form of cli._probe_classify: one gram.query per probe."""
    inst.gram.set_budget(budget)
    rng = stream(seed, "budget-probe")
    n = inst.n
    predicted = np.full(n, CLASS_S1)
    try:
        for i in range(n):
            partners = rng.integers(0, n - 1, size=q)
            partners = partners + (partners >= i)
            hits = sum(inst.gram.query(i, int(r)) == 1.0 for r in partners)
            if hits > 1.5 * q / inst.J:
                predicted[i] = CLASS_S2
    except BudgetExhaustedError:
        pass
    return float(np.mean(predicted == inst.classes))


class TestProbeMatchesScalarLoop:
    @staticmethod
    def _both(q, budget, seed, n=500, J=20):
        batched, scalar = (gen_krr(n, J, 0.1, seed) for _ in range(2))
        batched.gram.set_budget(budget)
        got = float(np.mean(cli._probe_classify(batched, q, seed) == batched.classes))
        want = scalar_probe_reference(scalar, q, budget, seed)
        return got, want, batched.gram.ledger_report(), scalar.gram.ledger_report()

    @pytest.mark.parametrize("batch_pairs", [4096, 7])
    @pytest.mark.parametrize("q, budget, seed", [
        (1, 3, 0), (1, 250, 1),        # budget < n: q = 1, exhausted mid-run
        (3, 100, 0), (3, 250, 1),      # cut in the middle of a row's probes
        (10, 5000, 2),                 # not exhausted, several blocks
    ])
    def test_accuracy_and_counts(self, q, budget, seed, batch_pairs, monkeypatch):
        monkeypatch.setattr(cli, "_PROBE_BATCH_PAIRS", batch_pairs)
        got, want, rep, ref = self._both(q, budget, seed)
        assert got == want
        assert rep.distinct_entries == ref.distinct_entries
        assert rep.total_requests == ref.total_requests
        assert rep.budget_exhausted == ref.budget_exhausted == (budget < 5000)
        assert rep.per_row.tolist() == ref.per_row.tolist()
        if q == 3:
            assert rep.total_requests % q != 0  # the cut falls inside a row

    def test_budget_curve_rows_match_reference(self):
        cfg = ExperimentConfig(kind="budget-curve", seeds=[0],
                               instance={"n": 500, "J": 20, "epsilon": 0.1,
                                         "budgets": ["3", "n/2", "n*J/4"]})
        rows, errors = run(cfg)
        assert not errors
        for row, budget in zip(rows, (3, 250, 2500)):
            inst = gen_krr(500, 20, 0.1, 0)
            want = scalar_probe_reference(inst, max(1, budget // 500), budget, 0)
            ref = inst.gram.ledger_report()
            assert row.report.budget == budget and row.value == want
            assert row.report.distinct_entries == ref.distinct_entries
            assert row.report.total_requests == ref.total_requests
            assert row.report.budget_exhausted == ref.budget_exhausted


class _StopAfterGen(Exception):
    pass


@pytest.mark.parametrize("instance, m, m_uncapped", [
    # the default C_sketch asks for 875 sketch rows; cluster_mog uses d = 32
    ({"n": 3000, "d": 32, "k": 3, "epsilon": 0.25, "sigma": 1.0}, 32, 875),
    # the mog-sketch benchmark config: 34 rows fit in d = 64, no cap
    ({"n": 20000, "d": 64, "k": 4, "epsilon": 0.25, "sigma": 1.0, "C_sketch": 0.25}, 34, 34),
])
def test_mog_auto_separation_uses_pipeline_sketch_rows(instance, m, m_uncapped, monkeypatch):
    seen = {}

    def fake_gen_mog(n, d, k, sigma, separation, seed):
        seen["separation"] = separation
        raise _StopAfterGen

    monkeypatch.setattr(cli, "gen_mog", fake_gen_mog)
    cfg = ExperimentConfig(kind="mog-pipeline", seeds=[0], instance=instance)
    generate, *_ = KINDS["mog-pipeline"]
    with pytest.raises(_StopAfterGen):
        generate(cfg.instance, 0)
    args = (instance["n"], instance["d"], instance["k"], instance["epsilon"], 1.0)
    assert seen["separation"] == separation_thresholds(*args, m=m)["max"]
    assert seen["separation"] <= separation_thresholds(*args, m=m_uncapped)["max"]


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_point_is_a_bootstrap_error_row(value, monkeypatch):
    def poisoned_gen_mog(*args):
        inst = gen_mog(*args)
        inst.points[3, 0] = value  # the gram reads this same array
        return inst

    monkeypatch.setattr(cli, "gen_mog", poisoned_gen_mog)
    rows, errors = run(ExperimentConfig(
        kind="mog-pipeline", seeds=[0],
        instance={"n": 900, "d": 16, "k": 3, "epsilon": 0.25, "sigma": 1.0, "C_sketch": 0.25}))
    assert [row.metric for row in rows] == ["error"]
    assert errors == ["seed 0: PipelineStageError: [bootstrap] bootstrap block is not "
                      "a Gram matrix to working precision"]


@pytest.mark.parametrize("instance", [
    {"n": 3000, "d": 32, "k": 3, "epsilon": 0.25, "sigma": 1.0},
    {"n": 900, "d": 16, "k": 1, "epsilon": 0.25, "sigma": 1.0, "C_sketch": 0.25},
], ids=["capped-at-d", "one-component"])
def test_one_sizing_rule_for_pipeline_separation_and_budget(instance):
    n, d, k, eps = instance["n"], instance["d"], instance["k"], instance["epsilon"]
    c_sketch = instance.get("C_sketch", 8.0)
    m, t = sketch_sizes(n, k, eps, d, c_sketch)
    generate, *_ = KINDS["mog-pipeline"]
    inst = generate(instance, 0)
    assert inst.separation == separation_thresholds(n, d, k, eps, 1.0, m)["max"]
    res = cluster_mog(inst.gram, k=k, eps=eps, sigma=1.0, d=d,
                      bootstrap_labels=inst.labels, c_sketch=c_sketch)
    assert (res.m, res.t) == (m, t)
    if k == 1:  # no sketch rows, so no pair-test floor: the mean-learning floor, 9.99 sigma
        assert inst.separation == separation_thresholds(n, d, k, eps, 1.0, 0)["mean_learning"]
        assert inst.separation == pytest.approx(12 * np.sqrt(np.log(2)))
    # the budget environment holds the same m and t
    closed_form = "t*(t+1)/2 + 2*m*(n-t)"
    rows, errors = run(ExperimentConfig(kind="mog-pipeline", seeds=[0], instance=instance,
                                        budget=closed_form))
    assert not errors
    assert {r.report.budget for r in rows} == {t * (t + 1) // 2 + 2 * m * (n - t)}
    assert {r.report.distinct_entries for r in rows} == {
        inst.gram.ledger_report().distinct_entries}


def test_readme_lists_every_kind_and_budget_variable():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    kinds = re.search(r"Experiment kinds: (.*?)\.\n", readme, re.S).group(1)
    assert sorted(re.findall(r"`([a-z-]+)`", kinds)) == sorted(KINDS)
    names = re.search(r"Budget expressions are arithmetic over `\{(.*?)\}`", readme).group(1)
    assert set(names.split(", ")) == cli.BUDGET_VARS


class TestReport:
    def test_single_row_aggregate(self):
        rows = [ResultRow("rank-gap", 0, 10, 2.0, None, "gap", 1.5)]
        recs = report(rows)
        assert recs == [["rank-gap", "gap", 1, "1.5", "0", "1.5", "1.5"]]

    def test_success_fraction_row_present(self):
        rows = [ResultRow("mog-pipeline", s, 10, 2.0, 0.25, "success", float(s % 2))
                for s in range(30)]
        recs = report(rows)
        assert any(r[1] == "success" and r[2] == 30 for r in recs)

    def test_empty_rows_rejected(self):
        with pytest.raises(UsageError):
            report([])


class TestCliEndToEnd:
    def _config_file(self, tmp_path, blob):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(blob))
        return str(path)

    def test_run_and_report_roundtrip(self, tmp_path):
        cfg = self._config_file(tmp_path, {
            "kind": "krr-closed-form", "trials": 2,
            "instance": {"n": 100, "J": 20, "epsilon": 0.2}})
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "results.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["kind"] == "krr-closed-form"
        assert manifest["errors"] == []
        assert "timestamp" in manifest

        assert main(["report", "--in", out]) == 0
        with open(os.path.join(out, "aggregates.csv")) as fh:
            agg = list(csv.reader(fh))
        assert agg[0] == AGG_COLUMNS
        assert len(agg) == 2

    def test_reproducible_csv_bytes(self, tmp_path):
        cfg = ExperimentConfig(kind="rank-gap", seeds=[3, 1, 2],
                               instance={"n": 30, "k": 3})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rows_a, err_a = run(cfg)
        rows_b, err_b = run(cfg)
        write_results(rows_a, out_a, cfg, err_a)
        write_results(rows_b, out_b, cfg, err_b)
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_rows_ordered_by_seed(self, tmp_path):
        cfg = ExperimentConfig(kind="rank-gap", seeds=[3, 1, 2],
                               instance={"n": 30, "k": 3})
        rows, _ = run(cfg)
        seeds = [r.seed for r in rows]
        assert seeds == sorted(seeds)

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(kind="kkmc-cost-envelope", seeds=[0, 1, 2, 3],
                               instance={"n": 3000, "k": 3, "epsilon": 0.25})
        serial, _ = run(cfg)
        monkeypatch.setenv("KB_THREADS", "4")
        parallel, _ = run(cfg)
        assert [(r.seed, r.metric, r.value) for r in serial] == \
            [(r.seed, r.metric, r.value) for r in parallel]

    def test_budget_override_flag(self, tmp_path):
        cfg = self._config_file(tmp_path, {
            "kind": "rank-gap", "trials": 1, "instance": {"n": 20, "k": 3}})
        out = str(tmp_path / "o2")
        assert main(["run", "--config", cfg, "--out", out, "--budget", "n*k"]) == 0
        with open(os.path.join(out, "results.csv")) as fh:
            rows = list(csv.DictReader(fh))
        # rank-gap has no read step: it carries the budget unused
        assert [(r["metric"], r["distinct_entries"], r["total_requests"], r["budget"],
                 r["budget_exhausted"]) for r in rows] == [
            ("gap", "0", "0", "60", "false"), ("planted", "0", "0", "60", "false")]

    def _run_budgeted(self, tmp_path, blob, *flags):
        """(exit code, results.csv rows, manifest errors) of one run."""
        out = tmp_path / "out"
        code = main(["run", "--config", self._config_file(tmp_path, blob),
                     "--out", str(out), *flags])
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        return code, rows, json.loads((out / "manifest.json").read_text())["errors"]

    @pytest.mark.parametrize("kind, instance, budget", [
        ("krr-closed-form", {"n": 200, "J": 20, "epsilon": 0.2}, "n*(n+1)/2"),
        ("mog-pipeline", {"n": 900, "d": 16, "k": 3, "epsilon": 0.25, "sigma": 1.0,
                          "C_sketch": 0.25}, "t*(t+1)/2 + 2*m*(n-t)"),
    ])
    def test_budget_that_covers_the_read_is_met_exactly(self, tmp_path, kind, instance,
                                                        budget):
        # m = 16 and t = 103 at the mog-pipeline config: 30,860 entries
        want = {"krr-closed-form": 200 * 201 // 2, "mog-pipeline": 30860}[kind]
        code, rows, errors = self._run_budgeted(
            tmp_path, {"kind": kind, "seeds": [0, 1], "budget": budget, "instance": instance})
        assert code == 0 and not errors
        assert {(r["distinct_entries"], r["budget"], r["budget_exhausted"]) for r in rows} == {
            (str(want), str(want), "false")}
        assert all("@" not in r["metric"] for r in rows)

    @pytest.mark.parametrize("kind, instance, budget", [
        ("krr-closed-form", {"n": 200, "J": 20, "epsilon": 0.2}, "n*(n+1)/2 - 1"),
        ("kkmc-recover", {"n": 600, "k": 3, "epsilon": 0.25}, "1"),
        ("mog-pipeline", {"n": 900, "d": 16, "k": 3, "epsilon": 0.25, "sigma": 1.0,
                          "C_sketch": 0.25}, "t*(t+1)/2 + 2*m*(n-t) - 1"),
        ("mog-pipeline", {"n": 900, "d": 16, "k": 3, "epsilon": 0.25, "sigma": 1.0,
                          "C_sketch": 0.25}, "t"),
    ], ids=["full-reveal", "recover", "mog-sketch-read", "mog-bootstrap"])
    @pytest.mark.parametrize("source", ["config", "flag"])
    def test_exhausted_budget_is_an_error_row_per_seed(self, tmp_path, kind, instance,
                                                       budget, source):
        blob = {"kind": kind, "seeds": [0, 1], "instance": instance}
        if source == "config":
            code, rows, errors = self._run_budgeted(tmp_path, {**blob, "budget": budget})
        else:
            code, rows, errors = self._run_budgeted(tmp_path, blob, "--budget", budget)
        assert code == 2
        assert [(r["seed"], r["metric"], r["distinct_entries"]) for r in rows] == [
            ("0", "error", ""), ("1", "error", "")]
        assert len(errors) == 2
        assert all("exceeds budget" in e or "exhausted" in e for e in errors)

    @pytest.mark.parametrize("param, value", [
        ("epsilon", 0), ("epsilon", -0.25), ("C_sketch", 0), ("C_sketch", -1.0),
        ("delta_exponent", 0), ("delta_exponent", -2),
    ])
    def test_mog_sizing_out_of_range_is_an_error_row(self, tmp_path, param, value):
        instance = {"n": 300, "d": 8, "k": 2, "epsilon": 0.25, "sigma": 1.0, param: value}
        code, rows, errors = self._run_budgeted(
            tmp_path, {"kind": "mog-pipeline", "seeds": [0], "instance": instance})
        assert code == 2 and [r["metric"] for r in rows] == ["error"]
        name = {"epsilon": "eps", "C_sketch": "c_sketch"}.get(param, param)
        assert f"got {name} = " in errors[0]

    @pytest.mark.parametrize("kind, param, value", [
        ("mog-pipeline", "C_sketch", float("inf")),
        ("mog-pipeline", "epsilon", 1e-320),
        ("kkmc-recover", "sample_factor", float("inf")),
    ], ids=["mog-C_sketch-inf", "mog-epsilon-subnormal", "recover-sample_factor-inf"])
    def test_sample_count_that_is_not_finite_is_an_error_row(self, tmp_path, kind, param,
                                                             value):
        """json reads Infinity, and 1 / 1e-320 overflows to inf: a sample
        count that is not finite is an error row naming the value, not an
        OverflowError out of ceil."""
        instance = {"mog-pipeline": {"n": 300, "d": 8, "k": 2, "epsilon": 0.25, "sigma": 1.0},
                    "kkmc-recover": {"n": 600, "k": 3, "epsilon": 0.25}}[kind]
        code, rows, errors = self._run_budgeted(
            tmp_path, {"kind": kind, "seeds": [0], "instance": {**instance, param: value}})
        assert code == 2 and [r["metric"] for r in rows] == ["error"]
        assert errors[0].startswith("seed 0: ContractViolationError: ")
        assert f" = {value!r}" in errors[0]

    def test_budget_flag_and_budgets_is_a_usage_error(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, {"kind": "budget-curve", "instance": {
            "n": 40, "J": 8, "epsilon": 0.25, "budgets": ["n*J/4"]}})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--budget", "n"]) == 2
        assert "not both" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exit_code(self, tmp_path):
        cfg = self._config_file(tmp_path, {"kind": "nope", "instance": {}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text", [
        '{"kind": "rank-gap",',
        '[{"kind": "rank-gap", "instance": {"n": 20, "k": 3}}]',
        '{"instance": {"n": 20, "k": 3}}',
        '{"kind": "rank-gap", "instance": ["n", "k"]}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "seeds": 5}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "trials": "2"}',
        '{"kind": "rank-gap", "instance": {"n": "20", "k": 3}}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": true}}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": null}}',
        '{"kind": "krr-indicator", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"c0": 0.2, "c1": [1.3]}}',
        '{"kind": "budget-curve", "instance": {"n": 40, "J": 8, "epsilon": "0.25", '
        '"budgets": ["n"]}}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "trials": -2}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "trials": 0}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "trials": 0, "seeds": [1]}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "seeds": []}',
        '{"kind": "krr-closed-form", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"augmented": "false"}}',
        '{"kind": "krr-closed-form", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"augmented": 0}}',
        '{"kind": "rank-gap", "instance": {"n": 20.0, "k": 3}}',
        '{"kind": "krr-classify", "instance": {"n": 40, "J": 8.0, "epsilon": 0.25}}',
        '{"kind": "kkmc-recover", "instance": {"n": 200, "k": false, "epsilon": 0.5}}',
        '{"kind": "mog-pipeline", "instance": {"n": 300, "d": 8.5, "k": 2, "epsilon": 0.25, '
        '"sigma": 1.0}}',
        '{"kind": "d-eff-scan", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"lam_multipliers": 5}}',
        '{"kind": "d-eff-scan", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"lam_multipliers": [1, "2"]}}',
        '{"kind": "d-eff-scan", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"lam_multipliers": []}}',
        '{"kind": "kkmc-recover", "instance": {"n": 200, "k": 2, "epsilon": 0.5, '
        '"sample_factor": "2"}}',
        '{"kind": "mog-pipeline", "instance": {"n": 300, "d": 8, "k": 2, "epsilon": 0.25, '
        '"sigma": 1.0, "C_sketch": "0.25"}}',
        '{"kind": "mog-pipeline", "instance": {"n": 300, "d": 8, "k": 2, "epsilon": 0.25, '
        '"sigma": 1.0, "delta_exponent": null}}',
        '{"kind": "mog-pipeline", "instance": {"n": 300, "d": 8, "k": 2, "epsilon": 0.25, '
        '"sigma": 1.0, "delta_exponent": 2.5}}',
        '{"kind": "mog-pipeline", "instance": {"n": 300, "d": 8, "k": 2, "epsilon": 0.25, '
        '"sigma": 1.0, "separation": "max"}}',
        '{"kind": "mog-pipeline", "instance": {"n": 300, "d": 8, "k": 2, "epsilon": 0.25, '
        '"sigma": 1.0, "separation": true}}',
        '{"kind": "budget-curve", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"budgets": [null]}}',
        '{"kind": "budget-curve", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"budgets": []}}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "budget": true}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "budget": "True"}',
        '{"kind": "rank-gap", "instance": {"n": 20, "k": 3}, "budget": "True*n"}',
        '{"kind": "budget-curve", "instance": {"n": 40, "J": 8, "epsilon": 0.25, '
        '"budgets": ["n"]}, "budget": "n"}',
    ], ids=["invalid-json", "top-level-list", "missing-kind", "instance-list",
            "seeds-int", "trials-str", "n-str", "k-bool", "k-null", "c1-list",
            "epsilon-str", "trials-negative", "trials-zero", "trials-zero-with-seeds",
            "seeds-empty", "augmented-str", "augmented-int", "n-float", "J-float",
            "k-bool-false", "d-float", "lam-multipliers-int", "lam-multipliers-str-entry",
            "lam-multipliers-empty", "sample-factor-str", "c-sketch-str", "delta-exponent-null",
            "delta-exponent-float", "separation-str", "separation-bool", "budgets-null-entry",
            "budgets-empty", "budget-json-true", "budget-true", "budget-true-times-n",
            "budget-and-budgets"])
    def test_malformed_config_exits_2_writing_nothing(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["two", "", "1.5"])
    def test_non_integer_kb_threads_exits_2_writing_nothing(self, tmp_path, capsys,
                                                            monkeypatch, threads):
        cfg = self._config_file(tmp_path, {"kind": "rank-gap", "instance": {"n": 20, "k": 3}})
        monkeypatch.setenv("KB_THREADS", threads)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error: KB_THREADS")
        assert not out.exists()

    @pytest.mark.parametrize("expr", ["1e400", "n/0", "(-n)**0.5"],
                             ids=["overflow", "zero-division", "complex"])
    def test_budget_without_a_finite_value_exits_2(self, tmp_path, capsys, expr):
        cfg = self._config_file(tmp_path, {"kind": "budget-curve", "instance": {
            "n": 40, "J": 8, "epsilon": 0.25, "budgets": ["n*J/4", expr]}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert f"budget expression {expr!r}" in capsys.readouterr().err

    def test_malformed_budget_exits_2_before_any_trial(self, tmp_path):
        instance = {"n": 40, "J": 8, "epsilon": 0.25, "budgets": ["n*J/4"]}
        bad = self._config_file(tmp_path, {"kind": "budget-curve", "instance": {
            **instance, "budgets": ["n*J/4", "nonsense("]}})
        assert main(["run", "--config", bad, "--out", str(tmp_path / "a")]) == 2
        good = self._config_file(tmp_path, {"kind": "budget-curve", "instance": instance})
        assert main(["run", "--config", good, "--out", str(tmp_path / "b"),
                     "--budget", "nonsense("]) == 2
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_krr_kinds_run_under_the_benchmark_tracer(monkeypatch):
    """perfbench's tracer patches `krr.solve_exact` and sizes each call by
    np.shape of its first argument, so a change to that signature breaks the
    traced benchmark: here it fails the suite. Nothing under perfbench/ is
    written, bytecode included."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    with tracer.Tracer() as traced:
        for kind in ("krr-closed-form", "krr-indicator"):
            rows, errors = cli.run(ExperimentConfig(kind=kind, seeds=[0],
                                                    instance=TINY_INSTANCES[kind]))
            assert rows and not errors
        metrics = traced.layer_metrics()
    assert metrics["krr.factor_gflop"] > 0
