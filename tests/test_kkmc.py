"""Clustering cost calculus: kernel-trick equivalence, bound formulas,
label recovery, rank gap."""

import weakref
from math import ceil, comb, sqrt

import numpy as np
import pytest
from conftest import set_partitions, traced_peak
from kkmc_bounds import (GAMMA_SMALL_CLUSTER, BoundRangeError, coordinate_counts, kappa,
                         large_cluster_bound, make_balanced_kkmc,
                         multi_cluster_lower_bound, single_block_cost,
                         small_cluster_lower_bound)

from kernel_budget.errors import (BudgetExhaustedError, ContractViolationError,
                                  DegenerateInstanceError)
from kernel_budget.instances import gen_kkmc, gen_rank
from kernel_budget.kkmc import (Clustering, block_clustering, cost_explicit,
                                cost_kernel, rank_cost_gap, recover_labels)
from kernel_budget.oracle import MeteredGram
from kernel_budget.rng import stream


class TestClustering:
    def test_ids_are_compacted(self):
        c = Clustering(np.array([5, 5, 9, 2]))
        assert c.n_clusters == 3
        assert sorted(c.sizes.tolist()) == [1, 1, 2]

    def test_cost_breakdown_json(self):
        pts = np.array([[0.0], [2.0], [5.0]])
        cost = cost_explicit(pts, Clustering(np.array([0, 0, 1])))
        assert cost.total == pytest.approx(2.0)


class TestCosts:
    def test_identical_points_cost_zero(self):
        pts = np.tile([[1.0, 2.0]], (5, 1))
        clus = Clustering(np.zeros(5, dtype=int))
        assert cost_kernel(MeteredGram(pts), clus).total == pytest.approx(0.0, abs=1e-12)

    def test_two_orthonormal_points(self):
        pts = np.eye(2)
        clus = Clustering(np.zeros(2, dtype=int))
        assert cost_kernel(MeteredGram(pts), clus).total == pytest.approx(1.0, abs=1e-12)

    def test_singletons_cost_zero(self):
        pts = stream(0, "s").standard_normal((4, 3))
        assert cost_explicit(pts, Clustering(np.arange(4))).total == 0.0

    def test_one_dimensional_pair(self):
        pts = np.array([[0.0], [2.0]])
        assert cost_explicit(pts, Clustering(np.zeros(2, dtype=int))).total == \
            pytest.approx(2.0, abs=1e-12)

    def test_kernel_equals_explicit(self):
        inst = gen_kkmc(60, 2, 0.25, seed=1)
        rng = stream(2, "clus")
        for trial in range(50):
            clus = Clustering(rng.integers(0, 4, size=60))
            ck = cost_kernel(gen_kkmc(60, 2, 0.25, seed=1).gram, clus)
            ce = cost_explicit(inst.points, clus)
            assert abs(ck.total - ce.total) <= 1e-9
            assert np.abs(ck.per_cluster - ce.per_cluster).max() <= 1e-9
            assert (ck.per_cluster >= -1e-8).all()
            assert abs(ck.total - ck.per_cluster.sum()) <= 1e-8

    def test_cost_kernel_budget_propagates(self):
        inst = gen_kkmc(30, 2, 0.5, seed=3)
        inst.gram.set_budget(10)
        with pytest.raises(BudgetExhaustedError):
            cost_kernel(inst.gram, Clustering(np.zeros(30, dtype=int)))

    def test_cost_kernel_drops_each_block_before_the_next_read(self):
        gram = gen_kkmc(200, 4, 0.25, seed=0).gram
        read, blocks = gram.query_block, []

        def tracked(rows, cols):
            assert all(block() is None for block in blocks)
            block = read(rows, cols)
            blocks.append(weakref.ref(block))
            return block

        gram.query_block = tracked
        cost_kernel(gram, Clustering(np.arange(200) % 4))
        assert len(blocks) == 4

    def test_cost_kernel_peak_is_one_block(self):
        inst = gen_kkmc(5000, 5, 0.1, seed=0)
        clustering = block_clustering(inst)
        _, peak = traced_peak(cost_kernel, inst.gram, clustering)
        assert peak <= 1.5 * 8 * int(clustering.sizes.max()) ** 2


class TestBlockClustering:
    def test_balanced_per_point_cost_is_one_minus_two_eps(self):
        # independent arithmetic: per point 2 (1/sqrt2 - sqrt2 eps)^2
        # + (1/eps - 2) (sqrt2 eps)^2 simplifies to exactly 1 - 2 eps
        for eps in (0.5, 0.25, 0.1):
            inst = make_balanced_kkmc(k=3, eps=eps, copies=6)
            cost = cost_explicit(inst.points, block_clustering(inst))
            hand = 2 * (1 / sqrt(2) - sqrt(2) * eps) ** 2 \
                + (1 / eps - 2) * (sqrt(2) * eps) ** 2
            assert cost.total / inst.n == pytest.approx(1 - 2 * eps, abs=1e-12)
            assert cost.total / inst.n == pytest.approx(hand, abs=1e-12)

    def test_sampled_cost_below_envelope_top(self):
        inst = gen_kkmc(100_000, 5, 0.1, seed=0)
        cost = cost_explicit(inst.points, block_clustering(inst))
        assert cost.total <= inst.n * (1 - (79 / 40) * 0.1)

    def test_groups_match_ground_truth(self):
        inst = gen_kkmc(100, 4, 0.25, seed=4)
        clus = block_clustering(inst)
        for j in range(clus.n_clusters):
            assert np.unique(inst.block[clus.members(j)]).size == 1


class TestKappa:
    def test_zero(self):
        assert kappa(0.0, 0.1) == 0.0

    def test_full_block(self):
        # tau = C(10, 2) = 45 fills all ten coordinates: 9.5 - sqrt(0.25)
        assert kappa(45.0, 0.1) == pytest.approx(9.0, abs=1e-12)

    def test_fill_count_identity(self):
        # filling two coordinates uses (10-1) + (10-2) = 17 vector types
        assert sum(10 - i for i in range(1, 3)) == 17
        assert kappa(17.0, 0.1) == pytest.approx(2.0, abs=1e-12)

    def test_range_property(self):
        for tau in np.linspace(0, 45, 50):
            val = kappa(float(tau), 0.1)
            assert -1e-12 <= val <= 9.5

    def test_out_of_range(self):
        with pytest.raises(ContractViolationError):
            kappa(46.0, 0.1)


class TestSmallClusterBound:
    def test_gamma_constant_solves_inequality(self):
        def inflation(g):
            return (1 + g) ** 2 * (1 + 2 * sqrt(g)) ** 2 / (1 - 2 * sqrt(g)) ** 3

        lo, hi = 0.0, 0.01
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if inflation(mid) <= 1.05:
                lo = mid
            else:
                hi = mid
        assert GAMMA_SMALL_CLUSTER == pytest.approx(lo, rel=1e-9)
        assert inflation(GAMMA_SMALL_CLUSTER) <= 1.05

    def test_desk_scale_is_out_of_range_by_default(self):
        # alpha/gamma with the certified gamma exceeds any desk-size cluster
        with pytest.raises(BoundRangeError):
            small_cluster_lower_bound(20_000, 100_000, 5, 0.1)

    def test_full_size_cluster_value_with_loose_gamma(self):
        n, k, eps = 100_000, 5, 0.1
        size = n // k
        bound = small_cluster_lower_bound(size, n, k, eps, gamma=0.5)
        assert np.isfinite(bound)
        assert bound <= size * (1 - 1.9 * eps)

    def test_monotone_in_size(self):
        n, k, eps = 100_000, 5, 0.1
        alpha = n / (k * comb(10, 2))
        sizes = np.linspace(ceil(alpha / 0.5) + 1, n / k, 60).astype(int)
        vals = [small_cluster_lower_bound(int(s), n, k, eps, gamma=0.5)
                for s in sizes]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_bound_bites_on_concentrated_cluster(self):
        # six points covering all three pair types twice: cost is exactly 2,
        # the bound with tau = 3 evaluates to 1.8
        inst = make_balanced_kkmc(k=2, eps=1 / 3, copies=2)
        idx = np.flatnonzero(inst.block == 0)
        cost = cost_explicit(inst.points[idx],
                             Clustering(np.zeros(idx.size, dtype=int))).total
        bound = small_cluster_lower_bound(idx.size, inst.n, inst.k, inst.eps,
                                          gamma=0.5)
        assert bound == pytest.approx(1.8, abs=1e-12)
        assert cost >= bound


class TestMultiClusterBound:
    def test_plug_in(self):
        assert multi_cluster_lower_bound(400, 1000, 0.1) == pytest.approx(207.5)

    def test_empty_set_goes_negative(self):
        assert multi_cluster_lower_bound(0, 1000, 0.1) == pytest.approx(-192.5)

    def test_vanishing_eps_limit(self):
        assert multi_cluster_lower_bound(300, 1000, 1e-12) == pytest.approx(300.0)

    def test_range(self):
        with pytest.raises(BoundRangeError):
            multi_cluster_lower_bound(401, 1000, 0.1)


class TestLargeClusterBound:
    def test_values(self):
        assert large_cluster_bound(0.1) == pytest.approx(0.7975)
        assert large_cluster_bound(0.0) == 1.0

    def test_sampled_block_cluster_meets_bound(self):
        inst = gen_kkmc(100_000, 5, 0.1, seed=1)
        clus = block_clustering(inst)
        cost = cost_explicit(inst.points, clus)
        per_point = cost.per_cluster / clus.sizes
        assert (per_point >= large_cluster_bound(0.1)).all()


class TestSumOfSquaresIdentity:
    def test_identity_on_random_single_block_clusters(self):
        inst = gen_kkmc(4000, 3, 0.2, seed=5)
        rng = stream(6, "ss")
        for _ in range(30):
            b = int(rng.integers(0, 3))
            members = np.flatnonzero(inst.block == b)
            take = rng.integers(2, 60)
            idx = rng.choice(members, size=min(take, members.size), replace=False)
            counts = coordinate_counts(inst, idx)
            ident = single_block_cost(idx.size, counts)
            direct = cost_explicit(inst.points[idx],
                                   Clustering(np.zeros(idx.size, dtype=int))).total
            assert abs(ident - direct) <= 1e-9

    def test_rejects_mixed_blocks(self):
        inst = gen_kkmc(100, 2, 0.5, seed=7)
        i0 = int(np.flatnonzero(inst.block == 0)[0])
        i1 = int(np.flatnonzero(inst.block == 1)[0])
        with pytest.raises(ContractViolationError):
            coordinate_counts(inst, [i0, i1])


class TestSamplingProperty:
    def test_block_clustering_has_dense_neighborhoods(self):
        # on the ground-truth clustering, a sampled in-cluster partner shares
        # a coordinate with probability far above eps/80 for most points
        inst = gen_kkmc(20_000, 5, 0.1, seed=8)
        clus = block_clustering(inst)
        eps = inst.eps
        qualifying = 0
        for j in range(clus.n_clusters):
            idx = clus.members(j)
            counts = coordinate_counts(inst, idx)
            pair = inst.pair[idx]
            same_type = np.zeros(idx.size)
            types, inverse, type_counts = np.unique(
                pair, axis=0, return_inverse=True, return_counts=True)
            same_type = type_counts[inverse]
            neighbors = counts[pair[:, 0]] + counts[pair[:, 1]] - same_type - 1
            freq = neighbors / (idx.size - 1)
            qualifying += int((freq >= eps / 80).sum())
        assert qualifying >= 2 * inst.n / 5


class TestRecoverLabels:
    def test_ground_truth_clustering_recovers_enough(self):
        inst = gen_kkmc(20_000, 5, 0.1, seed=9)
        labeled = {i: int(inst.block[i]) for i in range(inst.n // 2)}
        found = recover_labels(inst.gram, block_clustering(inst), labeled,
                               inst.eps, seed=9)
        unlabeled = inst.n - inst.n // 2
        correct = sum(1 for i, b in found.items() if b == inst.block[i])
        assert correct / unlabeled >= 1 / 6
        # every emission is correct: nonzero products never cross blocks
        assert correct == len(found)

    def test_random_clustering_control_arm(self):
        # contrast shows up at a small sampling allowance; ground truth keeps
        # recovering while uniform cluster ids drop under the 1/6 criterion
        inst = gen_kkmc(20_000, 5, 0.1, seed=10)
        labeled = {i: int(inst.block[i]) for i in range(inst.n // 2)}
        unlabeled = inst.n - inst.n // 2
        gt = recover_labels(inst.gram, block_clustering(inst), labeled,
                            inst.eps, seed=10, sample_factor=0.4)
        inst2 = gen_kkmc(20_000, 5, 0.1, seed=10)
        rand = Clustering(stream(10, "ctl").integers(0, 5, size=inst2.n))
        ctl = recover_labels(inst2.gram, rand, labeled, inst2.eps, seed=10,
                             sample_factor=0.4)
        assert len(gt) / unlabeled >= 1 / 6
        assert len(ctl) / unlabeled < 1 / 6

    def test_query_count_bound(self):
        inst = gen_kkmc(5_000, 5, 0.1, seed=11)
        labeled = {i: int(inst.block[i]) for i in range(inst.n // 2)}
        found = recover_labels(inst.gram, block_clustering(inst), labeled,
                               inst.eps, seed=11)
        unlabeled = inst.n - inst.n // 2
        cap = unlabeled * ceil(160.0 / inst.eps) * 2 + 2 * inst.n
        assert inst.gram.ledger_report().distinct_entries <= cap
        assert len(found) > 0


class TestRankCostGap:
    def test_unplanted_is_zero(self):
        for seed in range(20):
            inst = gen_rank(50, 5, seed=seed)
            if not inst.planted:
                assert rank_cost_gap(inst) == 0.0

    def test_planted_matches_absorption_oracle(self):
        for seed in range(20):
            inst = gen_rank(50, 5, seed=seed)
            if not inst.planted:
                continue
            best = np.inf
            for b in range(inst.k):
                assign = inst.basis_index.copy()
                assign[inst.planted_index] = b
                best = min(best, cost_explicit(inst.points, Clustering(assign)).total)
            assert rank_cost_gap(inst) == pytest.approx(best, abs=1e-12)
            assert rank_cost_gap(inst) > 0.0

    def test_planted_matches_exhaustive_partitions(self):
        inst = None
        for seed in range(30):
            cand = gen_rank(8, 2, seed=seed)
            counts = np.bincount(cand.basis_index, minlength=3)
            if cand.planted and (counts[:2] > 0).all():
                inst = cand
                break
        assert inst is not None
        best = min(cost_explicit(inst.points, Clustering(labels)).total
                   for labels in set_partitions(8, 2))
        assert rank_cost_gap(inst) == pytest.approx(best, abs=1e-12)

    def test_gap_survives_half_relative_error(self):
        # a (1 +- 1/2)-approximation of the cost still separates the cases
        for seed in range(20):
            inst = gen_rank(50, 5, seed=seed)
            gap = rank_cost_gap(inst)
            low, high = 0.5 * gap, 1.5 * gap
            if inst.planted:
                assert low > 0.0
            else:
                assert high == 0.0

    def test_missing_basis_vector_is_degenerate(self):
        inst = gen_rank(6, 5, seed=0)
        counts = np.bincount(inst.basis_index, minlength=6)
        if (counts[:5] > 0).all():
            pytest.skip("all basis vectors present for this seed")
        with pytest.raises(DegenerateInstanceError):
            rank_cost_gap(inst)
