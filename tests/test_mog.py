"""Mixture pipeline: bootstrap recovery, sketching, sign tests, end to end."""

import numpy as np
import pytest
import scipy.stats
from conftest import certify_mean_accuracy, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_budget.errors import (ContractViolationError, DegenerateRowError,
                                  DegenerateSketchError,
                                  EstimationFailureError,
                                  NumericalDegeneracyError, PipelineStageError)
from kernel_budget.instances import _on_grid, gen_mog
from kernel_budget.kkmc import Clustering, cost_explicit
from kernel_budget.mog import (_ASSIGN_PANEL, assign_by_pair_tests,
                               bootstrap_extract, build_sketch, cluster_mog,
                               estimate_means, min_component_count,
                               separation_thresholds, sketch_apply_many,
                               sketch_dimension, sketch_sizes, sketched_assign)
from kernel_budget.oracle import MeteredGram
from kernel_budget.rng import stream


class _PoisonedGram:
    """query_block stub reading a fixed block that is not a Gram matrix:
    -I by default."""

    def __init__(self, block=None):
        self.block = -np.eye(4) if block is None else block
        self.n = self.block.shape[0]

    def query_block(self, rows, cols):
        return self.block[np.ix_(rows, cols)]


class TestBootstrap:
    def test_orthonormal_pair(self):
        g = MeteredGram(np.eye(2))
        points = bootstrap_extract(g, 2)
        gram = points @ points.T
        assert np.allclose(gram, np.eye(2), atol=1e-10)

    def test_factorization_residual(self):
        inst = gen_mog(300, 16, 3, 1.0, 25.0, seed=0)
        points = bootstrap_extract(inst.gram, 200)
        block = inst.points[:200] @ inst.points[:200].T
        assert np.abs(points @ points.T - block).max() <= 1e-6

    def test_result_holds_only_its_rows(self):
        # the pivot loop's factor is cut to its r rows
        inst = gen_mog(300, 16, 3, 1.0, 25.0, seed=0)
        points = bootstrap_extract(inst.gram, 200)
        root = points
        while root.base is not None:
            root = root.base
        assert points.shape == (200, 16) and root.nbytes == points.nbytes

    def test_ledger_is_exactly_triangle(self):
        inst = gen_mog(100, 8, 2, 1.0, 20.0, seed=1)
        bootstrap_extract(inst.gram, 40)
        assert inst.gram.ledger_report().distinct_entries == 40 * 41 // 2

    def test_non_psd_block_raises(self):
        with pytest.raises(NumericalDegeneracyError):
            bootstrap_extract(_PoisonedGram(), 4)

    def test_t_out_of_range(self):
        with pytest.raises(ContractViolationError):
            bootstrap_extract(MeteredGram(np.eye(3)), 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_point_raises(self, value):
        points = stream(16, "non-finite").standard_normal((10, 3))
        points[2, 1] = value
        with pytest.raises(NumericalDegeneracyError):
            bootstrap_extract(MeteredGram(points), 5)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_point_is_a_bootstrap_stage_error(self, value):
        inst = gen_mog(400, 8, 2, 1.0, 30.0, seed=5)
        points = inst.points.copy()
        points[3, 0] = value
        with pytest.raises(PipelineStageError) as info:
            cluster_mog(MeteredGram(points), k=2, eps=0.25, sigma=1.0, d=8,
                        bootstrap_labels=inst.labels)
        assert info.value.stage == "bootstrap"

    @pytest.mark.parametrize("d, k", [(16, 3), (64, 4), (256, 2)])
    def test_mixture_block_gives_a_d_dimensional_frame(self, d, k):
        n, eps = 3000, 0.25
        m, t = sketch_sizes(n, k, eps, d, c_sketch=0.25)
        sep = separation_thresholds(n, d, k, eps, 1.0, m)["max"]
        inst = gen_mog(n, d, k, 1.0, sep, seed=d)
        points = bootstrap_extract(inst.gram, t)
        assert points.shape == (t, d)
        block = inst.points[:t] @ inst.points[:t].T
        bound = 1e-8 * max(1.0, block.diagonal().max())
        assert np.linalg.norm(block - points @ points.T) <= bound
        # the same block less a direction outside the points' span has a
        # negative eigenvalue 100 times the bound
        rng = stream(d, "poison")
        g = rng.standard_normal(t)
        u = g - inst.points[:t] @ np.linalg.lstsq(inst.points[:t], g, rcond=None)[0]
        u /= np.linalg.norm(u)
        with pytest.raises(NumericalDegeneracyError):
            bootstrap_extract(_PoisonedGram(block - 100 * bound * np.outer(u, u)), t)


class TestEstimateMeans:
    def test_zero_noise_exact(self):
        inst = gen_mog(60, 6, 2, 0.0, 10.0, seed=2)
        means = estimate_means(inst.points, inst.labels, 2, min_count=2)
        for ell in range(2):
            assert np.allclose(means[ell], inst.means[ell], atol=1e-12)

    def test_concentration_monte_carlo(self):
        hits = 0
        for trial in range(100):
            rng = stream(trial, "means-mc")
            mu = np.zeros((2, 32))
            mu[1, 0] = 50.0
            labels = np.repeat([0, 1], 500)
            pts = mu[labels] + rng.standard_normal((1000, 32))
            est = estimate_means(pts, labels, 2, min_count=2)
            if np.linalg.norm(est - mu, axis=1).max() <= 1.0:
                hits += 1
        assert hits >= 99

    def test_insufficient_samples(self):
        inst = gen_mog(30, 8, 3, 1.0, 30.0, seed=3)
        with pytest.raises(EstimationFailureError):
            estimate_means(inst.points, inst.labels, 3, min_count=25)

    def test_certification_detects_mislabeling(self):
        inst = gen_mog(400, 8, 2, 1.0, 30.0, seed=4)
        points = bootstrap_extract(inst.gram, 300)
        good = estimate_means(points, inst.labels[:300], 2,
                              min_component_count(2, 8))
        assert certify_mean_accuracy(points, inst.points[:300], good,
                                     inst.means, inst.sigma)
        shuffled = np.roll(inst.labels[:300], 1)
        bad = estimate_means(points, shuffled, 2, min_component_count(2, 8))
        assert not certify_mean_accuracy(points, inst.points[:300], bad,
                                         inst.means, inst.sigma)


class TestPairTest:
    MEANS = np.array([[1.0, 0.0], [-1.0, 0.0]])

    def test_at_first_mean(self):
        assign, confident = assign_by_pair_tests(self.MEANS[0], self.MEANS)
        assert assign.tolist() == [0] and confident.tolist() == [True]

    def test_at_second_mean(self):
        assign, confident = assign_by_pair_tests(self.MEANS[1], self.MEANS)
        assert assign.tolist() == [1] and confident.tolist() == [True]

    def test_tie_is_not_confident(self):
        # the midpoint wins neither strict sign test
        _, confident = assign_by_pair_tests(np.zeros(2), self.MEANS)
        assert confident.tolist() == [False]

    def test_error_rate_at_threshold_separation(self):
        # separation^2 = 144 sigma^2 ln(1/delta), adversarial sigma-size
        # perturbation of both mean estimates toward each other
        delta, d, sigma = 1e-3, 64, 1.0
        sep = np.sqrt(144.0 * sigma**2 * np.log(1.0 / delta))
        mu1 = np.zeros(d)
        mu2 = np.zeros(d)
        mu2[0] = sep
        unit = (mu2 - mu1) / sep
        mu1_hat, mu2_hat = mu1 + sigma * unit, mu2 - sigma * unit
        rng = stream(5, "pt-cal")
        x = mu1 + sigma * rng.standard_normal((100_000, d))
        c = 0.5 * (mu1_hat + mu2_hat)
        scores = (x - c) @ (mu1_hat - c)
        errors = int((scores <= 0).sum())
        assert errors / 100_000 <= delta
        # spot-check the scores against the pipeline's own sign test
        rows = np.arange(0, 100_000, 12_500)
        assign, _ = assign_by_pair_tests(x[rows], np.vstack([mu1_hat, mu2_hat]))
        assert (assign == 0).tolist() == (scores[rows] > 0).tolist()


def _pair_test_reference(X, means):
    """assign_by_pair_tests as k(k-1) ordered sign tests, one pass each; also
    returns each row's smallest |score|."""
    k = means.shape[0]
    wins = np.ones((X.shape[0], k), dtype=bool)
    margin = np.full(X.shape[0], np.inf)
    for j in range(k):
        for ell in range(k):
            if ell == j:
                continue
            c = 0.5 * (means[j] + means[ell])
            score = (X - c) @ (means[j] - c)
            wins[:, j] &= score > 0.0
            margin = np.minimum(margin, np.abs(score))
    confident = wins.sum(axis=1) == 1
    assignment = np.argmax(wins, axis=1)
    if (~confident).any():
        dist = ((X[~confident, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assignment[~confident] = np.argmin(dist, axis=1)
    return assignment, confident, margin


class TestPairTestProduct:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 8), dim=st.integers(1, 40), n=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1), spread=st.sampled_from([1e-3, 1.0, 1e3]),
           grid=st.booleans())
    def test_matches_double_loop_reference(self, k, dim, n, seed, spread, grid):
        rng = np.random.default_rng(seed)
        means = spread * rng.standard_normal((k, dim))
        X = means[rng.integers(0, k, n)] + spread * rng.standard_normal((n, dim))
        if grid:  # small integers: exact ties at midpoints and equal means
            means, X = np.round(means / spread), np.round(X / spread)
        assign, confident = assign_by_pair_tests(X, means)
        ref_assign, ref_confident, margin = _pair_test_reference(X, means)
        scale = (np.linalg.norm(X, axis=1).max() + np.linalg.norm(means, axis=1).max()) ** 2
        clear = margin > 1e-9 * scale
        assert (assign[clear] == ref_assign[clear]).all()
        assert (confident[clear] == ref_confident[clear]).all()

    def test_ties_at_every_midpoint_are_not_confident(self):
        means = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]])
        mids = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])
        _, confident = assign_by_pair_tests(mids, means)
        assert not confident.any()


class TestBuildSketch:
    def test_degenerate_pair(self):
        pts = np.vstack([np.ones(4), np.ones(4), np.eye(4)[0], np.eye(4)[1]])
        with pytest.raises(DegenerateRowError):
            build_sketch(pts, np.array([[0, 1], [2, 3]]), 1.0)

    def test_more_rows_than_frame_dimensions(self):
        # two nonzero rows in a 1-D frame: the SVD has one singular value
        pts = np.array([[0.0], [1.0], [3.0], [5.0]])
        with pytest.raises(DegenerateSketchError):
            build_sketch(pts, np.array([[0, 1], [2, 3]]), 1.0)

    def test_parallel_rows(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        with pytest.raises(DegenerateSketchError):
            build_sketch(pts, np.array([[0, 1], [2, 3]]), 1.0)

    def test_rejects_overlapping_pairs(self):
        pts = stream(6, "bs").standard_normal((4, 3))
        with pytest.raises(ContractViolationError):
            build_sketch(pts, np.array([[0, 1], [1, 2]]), 1.0)

    def test_row_norm_concentration(self):
        d, m, sigma = 256, 50, 1.3
        rng = stream(7, "rows")
        pts = 5.0 + sigma * rng.standard_normal((2 * m, d))
        sketch = build_sketch(pts, np.arange(2 * m).reshape(m, 2), sigma)
        mean_sq = np.mean(np.linalg.norm(sketch.rows, axis=1) ** 2 / d)
        assert abs(mean_sq - 1.0) <= 0.1

    def test_single_entry_rows_are_standard_normal(self):
        rng = stream(8, "ks")
        sigma = 0.7
        samples = []
        for _ in range(2000):
            pts = 3.0 + sigma * rng.standard_normal((2, 1))
            sk = build_sketch(pts, np.array([[0, 1]]), sigma)
            samples.append(sk.rows[0, 0])
        _, pvalue = scipy.stats.kstest(samples, "norm")
        assert pvalue >= 0.01


class TestSketchApply:
    def _setup(self, seed=9):
        inst = gen_mog(200, 16, 2, 1.0, 30.0, seed=seed)
        points = bootstrap_extract(inst.gram, 60)
        assign, conf = assign_by_pair_tests(
            points, estimate_means(points, inst.labels[:60], 2,
                                   min_component_count(2, 16)))
        pairs = []
        for ell in range(2):
            members = np.flatnonzero((assign == ell) & conf)
            pairs.extend((int(members[2 * i]), int(members[2 * i + 1]))
                         for i in range(members.size // 2))
        sketch = build_sketch(points, np.asarray(pairs[:8]), 1.0)
        return inst, sketch

    def test_matches_direct_product(self):
        inst, sketch = self._setup()
        i = 150
        sx = sketch_apply_many(inst.gram, sketch, [i])[:, 0]
        direct_rows = (inst.points[sketch.pairs[:, 0]]
                       - inst.points[sketch.pairs[:, 1]]) / sketch.scale
        expect = direct_rows @ inst.points[i]
        assert np.abs(sx - expect).max() <= 1e-9

    def test_fresh_point_costs_2m_distinct(self):
        inst, sketch = self._setup()
        before = inst.gram.ledger_report().distinct_entries
        sketch_apply_many(inst.gram, sketch, [180])
        after = inst.gram.ledger_report().distinct_entries
        assert after - before == 2 * sketch.m

    def test_source_point_rejected(self):
        # one source among fresh points: rejected before anything is read
        inst, sketch = self._setup()
        before = inst.gram.ledger_report()
        with pytest.raises(ContractViolationError):
            sketch_apply_many(inst.gram, sketch, [180, int(sketch.pairs[0, 0])])
        after = inst.gram.ledger_report()
        assert after.distinct_entries == before.distinct_entries
        assert after.total_requests == before.total_requests

    def test_float_indices_rejected(self):
        inst, sketch = self._setup()
        before = inst.gram.ledger_report()
        with pytest.raises(ContractViolationError):
            sketch_apply_many(inst.gram, sketch, [180.6])
        assert inst.gram.ledger_report().total_requests == before.total_requests

    def test_orthogonal_point_gives_zero_vector(self):
        pts = np.eye(8)
        sketch = build_sketch(pts, np.array([[0, 1], [2, 3]]), 1.0)
        g = MeteredGram(pts)
        sx = sketch_apply_many(g, sketch, [7])[:, 0]
        assert np.abs(sx).max() == 0.0

    def test_many_matches_single(self):
        inst, sketch = self._setup()
        idx = np.array([100, 120, 140])
        block = sketch_apply_many(inst.gram, sketch, idx)
        inst2, sketch2 = self._setup()
        for pos, i in enumerate(idx):
            one = sketch_apply_many(inst2.gram, sketch2, [i])[:, 0]
            assert np.abs(block[:, pos] - one).max() <= 1e-12


class TestSketchPanels:
    """Reads and assignments past two panels give the one-shot bits: the
    points sit on a dyadic grid, as a generated mixture's do, where every
    order of summation gives the same bits."""

    N = 2 * _ASSIGN_PANEL + 1
    M, D = 34, 64

    def _sketch(self):
        rng = stream(18, "panels")
        points = _on_grid(rng.standard_normal((2 * self.M + self.N, self.D)))
        return points, build_sketch(points, np.arange(2 * self.M).reshape(self.M, 2), 1.0)

    def test_apply_matches_one_block(self):
        points, sketch = self._sketch()
        idx = stream(19, "panels").permutation(np.arange(2 * self.M, points.shape[0]))
        sx = sketch_apply_many(MeteredGram(points), sketch, idx)
        block = points[sketch.source_indices] @ points[idx].T
        assert sx.tobytes() == ((block[0::2] - block[1::2]) / sketch.scale).tobytes()

    def test_assign_matches_one_pass(self):
        _, sketch = self._sketch()
        means = np.zeros((3, self.D))
        means[0, 0], means[1, 0], means[2, 1] = 2.0, -2.0, 5.0
        sx = stream(20, "panels").standard_normal((self.M, self.N))
        # a zero column ties means 0 and 1, which both beat mean 2: no mean wins
        ties = [0, _ASSIGN_PANEL, self.N - 1]
        sx[:, ties] = 0.0
        assignment, fallback = sketched_assign(sketch, sx, means)
        want, confident = assign_by_pair_tests(sketch.project_sketched(sx).T,
                                               sketch.project_direct(means))
        assert assignment.tolist() == want.tolist()
        assert fallback.tolist() == (~confident).tolist()
        assert np.flatnonzero(fallback).tolist() == ties


class TestSketchedAssign:
    def test_single_center(self):
        pts = stream(10, "sa").standard_normal((4, 6))
        sketch = build_sketch(pts, np.array([[0, 1], [2, 3]]), 1.0)
        center, fallback = sketched_assign(sketch, np.zeros(2)[:, None], np.zeros((1, 6)))
        assert center[0] == 0 and not fallback[0]

    def test_noiseless_points_always_correct(self):
        rng = stream(11, "sa0")
        d, k, m = 32, 3, 12
        means = 20.0 * np.vstack([np.eye(d)[j] for j in range(k)])
        carriers = 7.0 + rng.standard_normal((2 * m, d))
        sketch = build_sketch(carriers, np.arange(2 * m).reshape(m, 2), 1.0)
        for j in range(k):
            sx = sketch.rows @ means[j]
            center, fallback = sketched_assign(sketch, sx[:, None], means)
            assert center[0] == j and not fallback[0]

    def test_boundary_separation_always_within_tolerance(self):
        # means exactly sqrt(eps sigma^2 d) apart: any returned center is
        # within the cost-free radius by construction
        n, k, d, eps, sigma = 200, 3, 128, 0.25, 1.0
        m = sketch_dimension(n, k, eps, c_sketch=1.0)
        sep2 = eps * sigma**2 * d
        rng = stream(12, "bnd")
        g = rng.standard_normal((d, k))
        q, _ = np.linalg.qr(g)
        means = np.sqrt(sep2 / 2.0) * q[:, :k].T
        carriers = rng.standard_normal((2 * m, d))
        sketch = build_sketch(carriers, np.arange(2 * m).reshape(m, 2), sigma)
        for trial in range(100):
            true = trial % k
            x = means[true] + sigma * rng.standard_normal(d)
            center = sketched_assign(sketch, (sketch.rows @ x)[:, None], means)[0][0]
            gap = ((means[center] - means[true]) ** 2).sum()
            assert gap <= sep2 + 1e-9

    def test_doubled_separation_is_reliably_correct(self):
        n, k, d, eps, sigma = 200, 3, 128, 0.25, 1.0
        m = sketch_dimension(n, k, eps, c_sketch=1.0)
        sep2 = 4.0 * eps * sigma**2 * d
        rng = stream(13, "bnd2")
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        means = np.sqrt(sep2 / 2.0) * q[:, :k].T
        carriers = rng.standard_normal((2 * m, d))
        sketch = build_sketch(carriers, np.arange(2 * m).reshape(m, 2), sigma)
        wrong = 0
        for trial in range(2000):
            true = trial % k
            x = means[true] + sigma * rng.standard_normal(d)
            center = sketched_assign(sketch, (sketch.rows @ x)[:, None], means)[0][0]
            wrong += int(center != true)
        assert wrong / 2000 <= 1e-3


class TestClusterMog:
    CFG = dict(n=900, d=16, k=3, eps=0.25, sigma=1.0)

    def _instance(self, seed, **overrides):
        cfg = {**self.CFG, **overrides}
        m, _ = sketch_sizes(cfg["n"], cfg["k"], cfg["eps"], cfg["d"], c_sketch=0.25)
        sep = separation_thresholds(cfg["n"], cfg["d"], cfg["k"], cfg["eps"],
                                    cfg["sigma"], m)["max"]
        return gen_mog(cfg["n"], cfg["d"], cfg["k"], cfg["sigma"], sep, seed=seed)

    def test_end_to_end_recovers_mixture(self):
        inst = self._instance(seed=0)
        res = cluster_mog(inst.gram, k=3, eps=0.25, sigma=1.0, d=16,
                          bootstrap_labels=inst.labels, c_sketch=0.25)
        truth = Clustering(inst.labels.copy())
        cost = cost_explicit(inst.points, res.clustering).total
        truth_cost = cost_explicit(inst.points, truth).total
        assert cost <= (1 + 8 * 0.25) * truth_cost
        # partition agrees with the ground truth up to label names
        joint = res.clustering.assignment * 10 + truth.assignment
        assert np.unique(joint).size == truth.n_clusters

    def test_query_accounting_closed_form(self):
        inst = self._instance(seed=1)
        res = cluster_mog(inst.gram, k=3, eps=0.25, sigma=1.0, d=16,
                          bootstrap_labels=inst.labels, c_sketch=0.25)
        expect = res.t * (res.t + 1) // 2 + 2 * res.m * (inst.n - res.t)
        assert inst.gram.ledger_report().distinct_entries == expect

    def test_forced_m_t_hand_count(self):
        # independent recount of revealed pairs: bootstrap triangle plus
        # source-row rectangles, deduplicated as a set
        inst = gen_mog(1000, 48, 2, 1.0, 40.0, seed=2)
        res = cluster_mog(inst.gram, k=2, eps=0.25, sigma=1.0, d=48,
                          bootstrap_labels=inst.labels, m=40, t=120)
        pairs = set()
        for i in range(120):
            for j in range(i, 120):
                pairs.add((i, j))
        sources = sorted(int(v) for v in res.sketch.source_indices)
        for i in range(1000):
            if i in set(sources) or i < 120:
                continue
            for srcs in sources:
                pairs.add((min(srcs, i), max(srcs, i)))
        distinct = inst.gram.ledger_report().distinct_entries
        assert distinct == len(pairs)
        assert distinct <= 120 * 121 // 2 + 2 * 40 * (1000 - 2 * 40)

    def test_forced_m_above_d_is_a_sketch_error(self):
        # 40 sketch rows in an 8-dimensional frame are dependent
        inst = gen_mog(1000, 8, 2, 1.0, 40.0, seed=2)
        with pytest.raises(PipelineStageError) as info:
            cluster_mog(inst.gram, k=2, eps=0.25, sigma=1.0, d=8,
                        bootstrap_labels=inst.labels, m=40, t=120)
        assert info.value.stage == "sketch"

    def test_rotation_invariance(self):
        inst = self._instance(seed=3)
        res1 = cluster_mog(inst.gram, k=3, eps=0.25, sigma=1.0, d=16,
                           bootstrap_labels=inst.labels, c_sketch=0.25)
        rng = stream(99, "rot")
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        rotated = MeteredGram(inst.points @ q)
        res2 = cluster_mog(rotated, k=3, eps=0.25, sigma=1.0, d=16,
                           bootstrap_labels=inst.labels, c_sketch=0.25)
        assert (res1.clustering.assignment == res2.clustering.assignment).all()
        assert (inst.gram.ledger_report().distinct_entries
                == rotated.ledger_report().distinct_entries)

    def test_default_sketch_size_capped_at_d(self):
        # the default c_sketch asks for 875 rows, but the rows are differences
        # in a 32-dimensional span; the pipeline caps m at d = 32, so t = 199
        n, d, k, eps, sigma = 3000, 32, 3, 0.25, 1.0
        m_planned = sketch_dimension(n, k, eps)
        assert m_planned == 875
        sep = separation_thresholds(n, d, k, eps, sigma, m_planned)["max"]
        inst = gen_mog(n, d, k, sigma, sep, seed=0)
        res = cluster_mog(inst.gram, k=k, eps=eps, sigma=sigma, d=d,
                          bootstrap_labels=inst.labels)
        assert res.m == d
        distinct = inst.gram.ledger_report().distinct_entries
        assert distinct == res.t * (res.t + 1) // 2 + 2 * d * (n - res.t)
        assert distinct == 199 * 200 // 2 + 2 * 32 * (3000 - 199)
        cost = cost_explicit(inst.points, res.clustering).total
        truth_cost = cost_explicit(inst.points, Clustering(inst.labels.copy())).total
        assert cost <= (1 + 8 * eps) * truth_cost

    def test_single_component_shortcut(self):
        inst = gen_mog(400, 8, 1, 1.0, 1.0, seed=4)
        res = cluster_mog(inst.gram, k=1, eps=0.25, sigma=1.0, d=8,
                          bootstrap_labels=inst.labels)
        assert res.clustering.n_clusters == 1
        assert inst.gram.ledger_report().distinct_entries <= res.t * (res.t + 1) // 2

    def test_sigma_zero_multi_component_rejected(self):
        inst = gen_mog(400, 8, 2, 0.0, 30.0, seed=5)
        with pytest.raises(PipelineStageError):
            cluster_mog(inst.gram, k=2, eps=0.25, sigma=0.0, d=8,
                        bootstrap_labels=inst.labels)

    def test_oversized_t_rejected(self):
        inst = gen_mog(100, 8, 2, 1.0, 40.0, seed=6)
        with pytest.raises(PipelineStageError):
            cluster_mog(inst.gram, k=2, eps=0.25, sigma=1.0, d=8,
                        bootstrap_labels=inst.labels, t=101)

    def test_peak_is_the_sketch_block(self):
        # the 2m x N block, 10.8 MB, and bounded panels past it
        n, d, k, eps = 20_000, 64, 4, 0.25
        m, t = sketch_sizes(n, k, eps, d, c_sketch=0.25)
        sep = separation_thresholds(n, d, k, eps, 1.0, m)["max"]
        inst = gen_mog(n, d, k, 1.0, sep, seed=0)
        _, peak = traced_peak(cluster_mog, inst.gram, k=k, eps=eps, sigma=1.0, d=d,
                              bootstrap_labels=inst.labels[:t], c_sketch=0.25)
        assert peak <= 1.3 * 8 * 2 * m * (n - 2 * m)

    def test_mean_certificate_on_pipeline_output(self):
        inst = self._instance(seed=7)
        res = cluster_mog(inst.gram, k=3, eps=0.25, sigma=1.0, d=16,
                          bootstrap_labels=inst.labels, c_sketch=0.25)
        # the pipeline's points and means, recomputed at the bootstrap size it chose
        points = bootstrap_extract(inst.gram, res.t)
        means = estimate_means(points, inst.labels[:res.t], 3, min_component_count(3, 16))
        assert certify_mean_accuracy(points, inst.points[:res.t], means,
                                     inst.means, inst.sigma)


class TestProjectionGeometry:
    def test_noise_whiteness_after_projection(self):
        # projected noise keeps unit variance per coordinate
        m, d, sigma = 16, 64, 1.0
        rng = stream(14, "white")
        acc = []
        for _ in range(400):
            pts = rng.standard_normal((2 * m, d))
            sk = build_sketch(pts, np.arange(2 * m).reshape(m, 2), sigma)
            eta = sigma * rng.standard_normal(d)
            pe = sk.project_direct(eta)
            acc.append(pe @ pe / m)
        assert abs(np.mean(acc) - sigma**2) <= 0.06

    def test_true_mean_clustering_cost_near_noise_floor(self):
        # cost of clustering by true means sits in [(1 - 6 k/d), 1] times
        # the squared noise mass when d <= n/10
        inst = gen_mog(3000, 64, 4, 1.0, 40.0, seed=15)
        noise = inst.points - inst.means[inst.labels]
        noise_mass = float((noise ** 2).sum())
        cost = cost_explicit(inst.points, Clustering(inst.labels.copy())).total
        ratio = cost / noise_mass
        assert 1 - 6 * 4 / 64 <= ratio <= 1.0 + 1e-9


class TestSeparationThresholds:
    def test_max_covers_parts(self):
        th = separation_thresholds(5000, 64, 4, 0.25, 1.0, 30)
        assert th["max"] == max(th["mean_learning"], th["pair_test"],
                                th["sketched_regime"])
        assert th["sketched_regime"] == pytest.approx(4.0)
