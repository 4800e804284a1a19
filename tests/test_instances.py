"""Instance generators: support, counts, determinism, hidden-truth consistency."""

import warnings

import numpy as np
import pytest
from conftest import traced_peak

from kernel_budget import instances
from kernel_budget.errors import ContractViolationError
from kernel_budget.instances import (CLASS_S1, CLASS_S2, gen_kkmc, gen_krr,
                                     gen_mog, gen_rank, make_balanced_kkmc)


class TestGenKrr:
    def test_support_and_classes(self):
        inst = gen_krr(8, 4, 0.5, seed=0)
        assert inst.basis_index.min() >= 0
        assert inst.basis_index.max() < 3
        expect = np.where(inst.basis_index < 2, CLASS_S1, CLASS_S2)
        assert (inst.classes == expect).all()

    def test_j_divisibility(self):
        with pytest.raises(ContractViolationError):
            gen_krr(10, 6, 0.5, seed=0)

    def test_class_balance_pooled(self):
        # each point is S1 with probability 1/2
        frac = []
        for seed in range(30):
            inst = gen_krr(10_000, 100, 0.1, seed=seed)
            frac.append(np.mean(inst.classes == CLASS_S1))
        assert abs(np.mean(frac) - 0.5) <= 0.01

    def test_s2_expected_count(self):
        # each of the J/4 second-half indices is drawn 2n/J times on average
        n, J = 100_000, 100
        means = []
        for seed in range(5):
            inst = gen_krr(n, J, 0.1, seed=seed)
            means.append(inst.counts[J // 2: 3 * J // 4].mean())
        assert abs(np.mean(means) - 2 * n / J) <= 0.02 * (2 * n / J)

    def test_advisory_warning_when_j_large(self):
        with pytest.warns(UserWarning, match="count concentration"):
            gen_krr(100, 100, 0.1, seed=0)

    def test_augmented_points(self):
        inst = gen_krr(40, 8, 0.25, seed=1, augmented=True)
        k = round(inst.k)
        assert inst.points.shape[0] == 40 + k
        tail = inst.points[40:]
        norms = np.linalg.norm(tail, axis=1)
        assert np.allclose(norms, 40 / inst.k)
        # appended directions are fresh: orthogonal to every original point
        assert np.abs(tail @ inst.points[:40].T).max() == 0.0

    def test_determinism(self):
        a = gen_krr(200, 20, 0.2, seed=11)
        b = gen_krr(200, 20, 0.2, seed=11)
        assert (a.basis_index == b.basis_index).all()
        assert a.gram.query(3, 17) == b.gram.query(3, 17)
        c = gen_krr(200, 20, 0.2, seed=12)
        assert not (a.basis_index == c.basis_index).all()


class TestGenRank:
    def test_planted_rank(self):
        seen = {True: 0, False: 0}
        for seed in range(12):
            inst = gen_rank(50, 5, seed=seed)
            counts = np.bincount(inst.basis_index, minlength=6)
            if (counts[:5] == 0).any():
                continue
            K = inst.points @ inst.points.T
            rank = int(np.sum(np.linalg.eigvalsh(K) > 1e-9))
            if inst.planted:
                assert rank == 6
            else:
                assert rank <= 5
            seen[inst.planted] += 1
        assert seen[True] > 0 and seen[False] > 0

    def test_planted_row_is_isolated(self):
        inst = next(gen_rank(50, 5, seed=s) for s in range(20)
                    if gen_rank(50, 5, seed=s).planted)
        K = inst.gram.full()
        col = K[:, inst.planted_index]
        assert col[inst.planted_index] == 1.0
        mask = np.ones(50, dtype=bool)
        mask[inst.planted_index] = False
        assert np.abs(col[mask]).max() == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ContractViolationError):
            gen_rank(5, 5, seed=0)


class TestGenKkmc:
    def test_diagonal_is_one(self):
        inst = gen_kkmc(40, 2, 0.25, seed=0)
        for i in range(0, 40, 7):
            assert inst.gram.query(i, i) == pytest.approx(1.0, abs=1e-12)

    def test_cross_block_is_zero_and_shared_coord_is_half(self):
        inst = gen_kkmc(400, 3, 0.25, seed=1)
        coords = inst.coordinates()
        K = inst.gram.full()
        for i in range(0, 400, 37):
            for j in range(0, 400, 41):
                shared = len(set(coords[i]) & set(coords[j]))
                if inst.block[i] != inst.block[j]:
                    assert K[i, j] == 0.0
                elif shared == 1:
                    assert K[i, j] == pytest.approx(0.5, abs=1e-12)
                elif shared == 2:
                    assert K[i, j] == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_two_hot(self):
        inst = gen_kkmc(60, 2, 0.2, seed=2)
        norms = np.linalg.norm(inst.points, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert ((inst.points > 0).sum(axis=1) == 2).all()

    def test_invalid_eps(self):
        with pytest.raises(ContractViolationError):
            gen_kkmc(10, 2, 0.3, seed=0)
        with pytest.raises(ContractViolationError):
            gen_kkmc(10, 2, 1.0, seed=0)

    def test_block_of(self):
        # two points that share a basis vector (a kernel value of 1/2) are in one block
        inst = gen_kkmc(200, 4, 0.25, seed=3)
        K = inst.gram.full()
        i, j = np.argwhere(np.isclose(K, 0.5))[0]
        assert inst.block[i] == inst.block[j]

    def test_block_histogram(self):
        n, k = 100_000, 10
        per_block = np.zeros(k)
        for seed in range(5):
            inst = gen_kkmc(n, k, 0.1, seed=seed)
            per_block += np.bincount(inst.block, minlength=k)
        per_block /= 5
        assert np.abs(per_block - n / k).max() <= 0.02 * n / k

    def test_balanced_construction(self):
        inst = make_balanced_kkmc(k=3, eps=0.25, copies=4)
        assert inst.n == 3 * 6 * 4
        types = {}
        for b, (a, c) in zip(inst.block, inst.pair):
            types[(int(b), int(a), int(c))] = types.get((int(b), int(a), int(c)), 0) + 1
        assert set(types.values()) == {4}


class TestGenMog:
    def test_zero_noise(self):
        inst = gen_mog(30, 5, 3, 0.0, 4.0, seed=0)
        assert np.allclose(inst.points, inst.means[inst.labels])
        K = inst.gram.full()
        expect = inst.means[inst.labels] @ inst.means[inst.labels].T
        assert np.allclose(K, expect, atol=1e-12)

    def test_single_component(self):
        inst = gen_mog(25, 4, 1, 1.0, 1.0, seed=1)
        assert (inst.labels == 0).all()

    def test_separation_enforced(self):
        inst = gen_mog(10, 8, 4, 1.0, 6.0, seed=2)
        assert inst.min_separation() >= 6.0

    def test_empirical_means_concentrate(self):
        inst = gen_mog(10_000, 4, 2, 1.0, 50.0, seed=3)
        for ell in range(2):
            pts = inst.points[inst.labels == ell]
            dev = np.abs(pts.mean(axis=0) - inst.means[ell])
            assert (dev <= 3.0 / np.sqrt(pts.shape[0])).all()

    def test_rejection_path_high_k(self):
        inst = gen_mog(20, 2, 5, 0.1, 1.0, seed=4)
        assert inst.min_separation() >= 1.0

    @pytest.mark.parametrize("d, k, s", [(64, 4, 19), (1000, 3, 18), (3, 12, 22)])
    def test_points_sit_on_the_grid(self, d, k, s):
        # s = floor((53 - ceil(log2 d) - 2e)/2), 2^e the least power of two
        # above max|x|: 2^4 at d = 64 (max 8.6), 2^3 at d = 1000 and 3 (4.9, 7.9)
        inst = gen_mog(300, d, k, 1.0, 12.0 if k <= d else 1.0, seed=5)
        scaled = inst.points * 2.0 ** s
        assert np.array_equal(scaled, np.rint(scaled))
        assert not np.array_equal(scaled / 2, np.rint(scaled / 2))  # not a coarser grid

    def test_all_zero_points_are_left_as_they_are(self):
        inst = gen_mog(10, 4, 2, 0.0, 0.0, seed=0)
        assert not inst.points.any() and not inst.gram.full().any()

    @pytest.mark.parametrize("k, d", [(1, 3), (2, 1), (5, 7), (12, 2), (30, 300)])
    def test_min_distance_matches_the_pairwise_array(self, k, d):
        means = np.random.default_rng(k).standard_normal((k, d))
        if k > 4:
            means[k // 2] = means[0]  # a distance of 0
        dist = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        dist[np.diag_indices(k)] = np.inf
        assert instances._min_distance(means) == dist.min()

    def test_min_distance_holds_a_row_at_a_time(self):
        # the k x k x d differences would take 2 GB
        means = np.random.default_rng(0).standard_normal((2000, 64))
        _, peak = traced_peak(instances._min_distance, means)
        assert peak < 4 * means.nbytes

    def test_means_the_grid_would_crowd_stay_off_it(self, monkeypatch):
        real = instances._on_grid

        def crowding(x):  # puts every mean where the first is
            if x.shape[0] == 5:
                x[:] = x[0]
            return real(x)

        monkeypatch.setattr(instances, "_on_grid", crowding)
        inst = gen_mog(20, 2, 5, 0.1, 1.0, seed=4)
        assert inst.min_separation() >= 1.0


class TestHiddenTruthConsistency:
    def test_oracle_matches_recomputation(self):
        for inst in (gen_krr(50, 8, 0.25, seed=5),
                     gen_kkmc(50, 2, 0.5, seed=5),
                     gen_mog(30, 4, 2, 0.7, 8.0, seed=5)):
            K = inst.gram.full()
            assert np.array_equal(K, inst.points @ inst.points.T) or \
                np.allclose(K, inst.points @ inst.points.T, atol=0)

    def test_indicator_instance_consistency(self):
        # the gram is the indicator of equal basis indices, so a two-valued
        # kernel c0 + (c1 - c0) K (krr.solve_exact's c0 and c1) needs no other oracle
        inst = gen_krr(30, 8, 0.25, seed=6)
        K = inst.gram.full()
        same = inst.basis_index[:, None] == inst.basis_index[None, :]
        assert np.array_equal(K, same.astype(np.float64))


class TestSameSeedDeterminism:
    @pytest.mark.parametrize("make", [
        lambda: gen_krr(40, 8, 0.25, seed=9, augmented=True),
        lambda: gen_rank(30, 4, seed=9),
        lambda: gen_kkmc(30, 2, 0.5, seed=9),
        lambda: gen_mog(20, 5, 2, 0.5, 9.0, seed=9),
    ])
    def test_same_seed_same_points(self, make):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = make()
            again = make()
        assert np.array_equal(inst.points, again.points)
