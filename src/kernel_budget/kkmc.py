"""Kernel k-means cost calculus on the block-structured hard inputs.

Costs come in two routes that must agree: cost_kernel reads only oracle
entries (the kernel trick), cost_explicit uses raw coordinates and exists
as the test oracle. The neighbor-sampling label recovery and the
rank-instance cost gap live here too. The proof's per-cluster lower
bounds are test oracles, in tests/kkmc_bounds.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, isfinite
from typing import Dict, Mapping

import numpy as np

from .errors import ContractViolationError, DegenerateInstanceError
from .instances import KkmcInstance, RankInstance
from .oracle import MeteredGram
from .rng import stream

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
