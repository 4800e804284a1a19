"""Shared test helpers."""

import tracemalloc

import numpy as np

from kernel_budget.krr import d_eff


def set_partitions(n: int, max_blocks: int):
    """All partitions of range(n) into at most max_blocks nonempty blocks,
    yielded as restricted-growth label arrays."""
    labels = np.zeros(n, dtype=np.int64)

    def rec(i, used):
        if i == n:
            yield labels.copy()
            return
        top = min(used + 1, max_blocks)
        for lab in range(top):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(1, 1)


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_psd(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, rank))
    return a @ a.T


def d_eff_from_gram(K, lam: float) -> float:
    """Dense reference for the effective dimension trace(K (K + lam I)^{-1}),
    computed through the eigenvalues of a symmetric K."""
    K = np.asarray(K, dtype=np.float64)
    assert np.allclose(K, K.T), "K must be symmetric"
    return d_eff(np.linalg.eigvalsh(K), lam)


def certify_mean_accuracy(recovered_points, true_points, est_means, true_means,
                          sigma: float) -> bool:
    """Whether estimated means are within sigma of the truth.

    The recovered frame differs from the original by an unknown isometry;
    align by orthogonal Procrustes on the bootstrap points, map the true
    means through it, and compare.
    """
    Y = np.asarray(recovered_points, dtype=np.float64)
    X = np.asarray(true_points, dtype=np.float64)
    M = X.T @ Y
    u, _, vt = np.linalg.svd(M, full_matrices=False)
    q = u @ vt
    mapped = np.asarray(true_means, dtype=np.float64) @ q
    err = np.linalg.norm(np.asarray(est_means) - mapped, axis=1)
    return bool((err <= sigma + 1e-6).all())
