"""Kernel k-means lower-bound calculus on the two-hot block inputs.

Reference oracles for the proof's per-cluster algebra: the exact same-block
cost identity, the fill depth kappa, and the small-, multi- and
large-cluster cost floors, with the exactly balanced instance the
acceptance checks enumerate. The instrument never runs these: A05-A07
check them against explicit costs and exhaustive enumeration.
"""

from math import comb, sqrt

import numpy as np

from kernel_budget.errors import ContractViolationError
from kernel_budget.instances import KkmcInstance, _two_hot_points, _validate_inv_eps
from kernel_budget.oracle import MeteredGram

# Largest gamma with (1+g)^2 (1+2 sqrt g)^2 / (1-2 sqrt g)^3 <= 21/20; the
# bisection lives in test_kkmc.py next to the bound it calibrates. The range
# precondition size >= alpha/gamma therefore only admits clusters far past
# desk scale; callers probing small regimes may pass a looser gamma
# explicitly, at the price of the 21/20 inflation no longer being certified.
GAMMA_SMALL_CLUSTER = 2.3710841718164452e-05


class BoundRangeError(ValueError):
    """A lower-bound formula was evaluated outside its valid range."""


def make_balanced_kkmc(k: int, eps: float, copies: int) -> KkmcInstance:
    """Exactly balanced variant: every (block, pair) type appears `copies` times."""
    inv_eps = _validate_inv_eps(eps)
    pair_list = np.array([(a, b) for a in range(inv_eps) for b in range(a + 1, inv_eps)])
    block = np.repeat(np.arange(k), len(pair_list) * copies)
    pair = np.tile(np.repeat(pair_list, copies, axis=0), (k, 1))
    n = block.size
    points = _two_hot_points(block, pair, inv_eps, k * inv_eps)
    gram = MeteredGram(points)
    return KkmcInstance(n=n, k=k, eps=eps, seed=0, block=block, pair=pair,
                        gram=gram, points=points)


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
    counts = np.zeros(round(1.0 / instance.eps), dtype=np.int64)
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
