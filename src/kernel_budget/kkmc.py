"""Kernel k-means cost calculus on the block-structured hard inputs.

Costs come in two routes that must agree: cost_kernel reads only oracle
entries (the kernel trick), cost_explicit uses raw coordinates and exists
as the test oracle. The lower-bound formulas (small cluster, multi
cluster, large cluster) and the neighbor-sampling label recovery all live
here, along with the rank-instance cost gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, comb, isfinite, sqrt
from typing import Dict, Mapping

import numpy as np

from .errors import BoundRangeError, ContractViolationError, DegenerateInstanceError
from .instances import KkmcInstance, RankInstance
from .oracle import MeteredGram
from .rng import stream

# Largest gamma with (1+g)^2 (1+2 sqrt g)^2 / (1-2 sqrt g)^3 <= 21/20; the
# bisection lives in the tests next to the bound it calibrates. The range
# precondition size >= alpha/gamma therefore only admits clusters far past
# desk scale; callers probing small regimes may pass a looser gamma
# explicitly, at the price of the 21/20 inflation no longer being certified.
GAMMA_SMALL_CLUSTER = 2.3710841718164452e-05

# Sampling allowance for recover_labels: ceil(c / eps) in-cluster draws per
# point, c twice the reciprocal of the eps/80 worst-case hit rate, so a
# point in a qualifying cluster fails all its draws with probability <= e^-2.
RECOVER_SAMPLE_FACTOR = 160.0


@dataclass
class Clustering:
    """A partition of [n]: per-point cluster ids, compacted to 0..k'-1."""

    assignment: np.ndarray
    sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.assignment)
        if raw.ndim != 1 or raw.size == 0:
            raise ContractViolationError("assignment must be a nonempty 1-d array")
        _, compact = np.unique(raw, return_inverse=True)
        self.assignment = compact.astype(np.int64)
        self.sizes = np.bincount(self.assignment)

    @property
    def n_clusters(self) -> int:
        return int(self.sizes.size)

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == j)


@dataclass
class CostBreakdown:
    total: float
    per_cluster: np.ndarray


def _breakdown(per_cluster: np.ndarray) -> CostBreakdown:
    return CostBreakdown(total=float(per_cluster.sum()), per_cluster=per_cluster)


def cost_kernel(gram: MeteredGram, clustering: Clustering) -> CostBreakdown:
    """Exact feature-space cost through oracle queries only.

    Per cluster: sum_i K_ii - (1/|C|) sum_{i,j in C} K_ij. Reads every
    within-cluster pair, so the ledger grows by sum_j |C_j|(|C_j|+1)/2
    fresh entries; budget exhaustion propagates to the caller. One
    cluster's block is held at a time: it is dropped before the next read.
    """
    if clustering.assignment.size != gram.n:
        raise ContractViolationError("clustering size does not match gram")
    per_cluster = np.zeros(clustering.n_clusters)
    for j in range(clustering.n_clusters):
        idx = clustering.members(j)
        block = gram.query_block(idx, idx)
        per_cluster[j] = np.trace(block) - block.sum() / idx.size
        del block
    return _breakdown(per_cluster)


def cost_explicit(points, clustering: Clustering) -> CostBreakdown:
    """Direct sum of squared distances to centroids (test oracle path)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] != clustering.assignment.size:
        raise ContractViolationError("points do not match clustering")
    per_cluster = np.zeros(clustering.n_clusters)
    for j in range(clustering.n_clusters):
        idx = clustering.members(j)
        sub = pts[idx]  # a copy, centred and squared in place
        sub -= sub.mean(axis=0)
        np.square(sub, out=sub)
        per_cluster[j] = float(sub.sum())
    return _breakdown(per_cluster)


def block_clustering(instance: KkmcInstance) -> Clustering:
    """The clustering that groups points by their ground-truth block."""
    return Clustering(instance.block.copy())


def single_block_cost(size: int, coordinate_counts) -> float:
    """Exact cost of a cluster of two-hot same-block vectors.

    With n_i points supported on coordinate i, the centroid algebra
    collapses to |C| - sum_i n_i^2 / (2 |C|).
    """
    counts = np.asarray(coordinate_counts, dtype=np.float64)
    if size <= 0:
        raise ContractViolationError("size must be positive")
    return float(size - (counts @ counts) / (2.0 * size))


def coordinate_counts(instance: KkmcInstance, indices) -> np.ndarray:
    """Support counts per within-block coordinate for a same-block subset."""
    idx = np.asarray(indices, dtype=np.int64)
    blocks = instance.block[idx]
    if np.unique(blocks).size > 1:
        raise ContractViolationError("indices span more than one block")
    counts = np.zeros(instance.inv_eps, dtype=np.int64)
    np.add.at(counts, instance.pair[idx, 0], 1)
    np.add.at(counts, instance.pair[idx, 1], 1)
    return counts


def kappa(tau: float, eps: float) -> float:
    """Fill-depth root (1/eps - 1/2) - sqrt((1/eps - 1/2)^2 - 2 tau).

    tau is the cluster size in units of the expected per-type count; kappa
    is how many coordinates a cluster of that size can fill completely.
    """
    if tau < 0:
        raise ContractViolationError("tau must be nonnegative")
    r = 1.0 / eps - 0.5
    disc = r * r - 2.0 * tau
    if disc < -1e-9:
        raise ContractViolationError(
            f"tau = {tau} exceeds the representable range for 1/eps = {1.0 / eps}")
    return r - sqrt(max(disc, 0.0))


def expected_type_count(n: int, k: int, eps: float) -> float:
    """Expected copies of one (block, pair) vector type: n / (k * C(1/eps, 2))."""
    inv_eps = round(1.0 / eps)
    return n / (k * comb(inv_eps, 2))


def small_cluster_lower_bound(size: int, n: int, k: int, eps: float,
                              gamma: float = GAMMA_SMALL_CLUSTER) -> float:
    """Cost floor for one cluster of `size` same-distribution points.

    Valid for alpha/gamma <= size <= n/k with alpha the expected per-type
    count; outside that range a BoundRangeError is raised and callers fall
    back to zero or the large-cluster bound. The bound is

        size - (21/20) (alpha/2) (kappa (1/eps - 1)^2
                                  + kappa^2 (1/eps - kappa)) / tau,

    with tau = size/alpha and kappa = kappa(tau, eps).
    """
    alpha = expected_type_count(n, k, eps)
    if not alpha / gamma <= size <= n / k:
        raise BoundRangeError(
            f"size {size} outside [{alpha / gamma:.3g}, {n / k:.3g}]")
    tau = size / alpha
    kap = kappa(tau, eps)
    inv_eps = 1.0 / eps
    penalty = (1.0 + 1.0 / 20.0) * (alpha / 2.0) * (
        kap * (inv_eps - 1.0) ** 2 + kap * kap * (inv_eps - kap)) / tau
    return float(size - penalty)


def multi_cluster_lower_bound(size_s: int, n: int, eps: float) -> float:
    """Cost floor |S| - (77/40) n eps for any clustering of at most 2n/5 points."""
    if size_s > 2 * n / 5:
        raise BoundRangeError(f"|S| = {size_s} exceeds 2n/5 = {2 * n / 5}")
    return float(size_s - (77.0 / 40.0) * n * eps)


def large_cluster_bound(eps: float) -> float:
    """Per-point cost floor 1 - (81/40) eps for clusters of size >= n/k."""
    return 1.0 - (81.0 / 40.0) * eps


def recover_labels(gram: MeteredGram, clustering: Clustering,
                   labeled: Mapping[int, int], eps: float, seed: int,
                   sample_factor: float = RECOVER_SAMPLE_FACTOR) -> Dict[int, int]:
    """Propagate block labels through nonzero-product neighbors.

    For each unlabeled point, sample up to ceil(sample_factor / eps)
    uniform partners from its own cluster; the first partner with a
    nonzero inner product that already carries a label (given, or
    recovered earlier in this pass) donates its label. Points whose
    samples all miss stay unlabeled. Expects the clustering to be close to
    optimal; on a poor clustering the hit rate collapses.
    """
    labeled = dict(labeled)
    rng = stream(seed, "recover-labels")
    samples = sample_factor / eps
    if not isfinite(samples):
        raise ContractViolationError(f"samples per point are not finite at sample_factor = "
                                     f"{sample_factor!r}, eps = {eps!r}")
    max_samples = ceil(samples)
    chunk = min(32, max_samples)
    members_of = [clustering.members(j) for j in range(clustering.n_clusters)]
    recovered: Dict[int, int] = {}
    known = dict(labeled)
    for i in range(gram.n):
        if i in labeled:
            continue
        members = members_of[clustering.assignment[i]]
        if members.size <= 1:
            continue
        drawn = 0
        done = False
        while drawn < max_samples and not done:
            take = min(chunk, max_samples - drawn)
            draws = members[rng.integers(0, members.size, size=take)]
            drawn += take
            for partner in draws:
                partner = int(partner)
                if partner == i or partner not in known:
                    continue
                if gram.query(i, partner) != 0.0:
                    recovered[i] = known[partner]
                    known[i] = known[partner]
                    done = True
                    break
    return recovered


def rank_cost_gap(instance: RankInstance) -> float:
    """Optimal k-means cost of a rank instance: 0 unplanted, else the
    cheapest absorption of the planted point.

    Merging the odd vector into a cluster of s copies of one basis vector
    costs 2s/(s+1), increasing in s, and merging two basis groups is never
    cheaper, so the optimum absorbs the planted point into the smallest
    group.
    """
    counts = np.bincount(instance.basis_index, minlength=instance.k + 1)
    if (counts[:instance.k] == 0).any():
        missing = np.flatnonzero(counts[:instance.k] == 0)
        raise DegenerateInstanceError(
            f"basis vectors {missing.tolist()} never drawn; rank gap undefined")
    if not instance.planted:
        return 0.0
    s_min = int(counts[:instance.k].min())
    return 2.0 * s_min / (s_min + 1.0)
