"""Seeded generators for the hard input distributions and the Gaussian mixture.

Every instance carries its hidden ground truth (basis indices, blocks,
labels, counts) alongside a MeteredGram, so experiments read kernel values
through the oracle while tests verify against the truth. Generators are
pure functions of (parameters, seed) and safe to call in parallel with
distinct seeds.

Advisory asymptotic preconditions (such as J^2 = O(n)) surface as warnings,
not errors: desk-scale runs deliberately probe small regimes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import comb, frexp
from typing import Optional

import numpy as np

from .errors import ContractViolationError, GenerationFailureError
from .oracle import MeteredGram
from .rng import stream

CLASS_S1 = 1
CLASS_S2 = 2
# gen_mog draws of k > d means before it gives up
_MOG_RETRIES = 50


def _one_hot(indices: np.ndarray, dim: int, scales: Optional[np.ndarray] = None) -> np.ndarray:
    pts = np.zeros((indices.size, dim))
    pts[np.arange(indices.size), indices] = 1.0 if scales is None else scales
    return pts


@dataclass
class KrrInstance:
    """Ridge-regression hard input: n basis-vector draws plus closed-form truth.

    Points are standard basis vectors e_j in dimension 3J/4. Half the draws
    come uniformly from the first J/2 indices (class S1) and half uniformly
    from the next J/4 (class S2), so S2 indices are drawn twice as often.
    The regression target is all ones and the regularizer is n/k with
    k = eps * J. The augmented variant appends k extra points (n/k) e_j in
    k fresh directions, each alone in its own coordinate.

    The gram G is the dot product (1 on equal, 0 on distinct basis vectors);
    krr.hard_instance_optimum solves G, or c0 11' + (c1 - c0) G, in closed form.
    """

    n: int
    J: int
    eps: float
    seed: int
    basis_index: np.ndarray          # per-point j_i in [0, 3J/4)
    augmented: bool
    gram: MeteredGram = field(repr=False)
    points: np.ndarray = field(repr=False)

    @property
    def k(self) -> float:
        return self.eps * self.J

    @property
    def lam(self) -> float:
        return self.n / self.k

    @property
    def n_total(self) -> int:
        return self.n + (round(self.k) if self.augmented else 0)

    @property
    def z(self) -> np.ndarray:
        return np.ones(self.n_total)

    @property
    def counts(self) -> np.ndarray:
        """Copies of each basis vector among the n original draws."""
        return np.bincount(self.basis_index, minlength=3 * self.J // 4)

    @property
    def classes(self) -> np.ndarray:
        """CLASS_S1 where j_i < J/2, else CLASS_S2 (original points only)."""
        return np.where(self.basis_index < self.J // 2, CLASS_S1, CLASS_S2)


def gen_krr(n: int, J: int, eps: float, seed: int, augmented: bool = False) -> KrrInstance:
    """Draw a ridge-regression hard instance.

    Each of the n points is, with probability 1/2, uniform over the first
    J/2 basis vectors and otherwise uniform over the next J/4.
    """
    if n < 1:
        raise ContractViolationError("n must be positive")
    if J % 4 != 0:
        raise ContractViolationError(f"J must be divisible by 4, got {J}")
    if not 0 < eps:
        raise ContractViolationError("eps must be positive")
    if J * J > 16 * n:
        warnings.warn(f"J^2 = {J * J} is large relative to n = {n}; "
                      "count concentration will be poor", stacklevel=2)
    rng = stream(seed, "gen-krr")
    coin = rng.random(n) < 0.5
    s1 = rng.integers(0, J // 2, size=n)
    s2 = J // 2 + rng.integers(0, J // 4, size=n)
    basis_index = np.where(coin, s1, s2)

    dim = 3 * J // 4
    k_int = round(eps * J)
    if augmented:
        idx = np.concatenate([basis_index, dim + np.arange(k_int)])
        scales = np.concatenate([np.ones(n), np.full(k_int, n / (eps * J))])
        points = _one_hot(idx, dim + k_int, scales)
    else:
        points = _one_hot(basis_index, dim)
    return KrrInstance(n=n, J=J, eps=eps, seed=seed, basis_index=basis_index,
                       augmented=augmented, gram=MeteredGram(points), points=points)


@dataclass
class RankInstance:
    """Rank-k versus rank-(k+1) planted input."""

    n: int
    k: int
    seed: int
    basis_index: np.ndarray          # per-point index in [0, k], k means planted vector
    planted: bool
    planted_index: Optional[int]
    gram: MeteredGram = field(repr=False)
    points: np.ndarray = field(repr=False)


def gen_rank(n: int, k: int, seed: int) -> RankInstance:
    """Uniform draws from the first k basis vectors; with probability 1/2 one
    uniformly chosen position is overwritten by the (k+1)-st."""
    if not n > k >= 1:
        raise ContractViolationError(f"need n > k >= 1, got n={n}, k={k}")
    rng = stream(seed, "gen-rank")
    basis_index = rng.integers(0, k, size=n)
    planted = bool(rng.random() < 0.5)
    planted_index = None
    if planted:
        planted_index = int(rng.integers(0, n))
        basis_index[planted_index] = k
    points = _one_hot(basis_index, k + 1)
    gram = MeteredGram(points)
    return RankInstance(n=n, k=k, seed=seed, basis_index=basis_index,
                        planted=planted, planted_index=planted_index,
                        gram=gram, points=points)


@dataclass
class KkmcInstance:
    """Clustering hard input: two-hot unit vectors inside k blocks.

    The ambient k/eps coordinates split into k blocks of 1/eps. Each point
    picks a uniform block and a uniform unordered coordinate pair (j1, j2)
    inside it, and equals (e_l1 + e_l2) / sqrt(2). Inner products are 1 on
    identical pairs, 1/2 on same-block pairs sharing one coordinate, else 0.
    """

    n: int
    k: int
    eps: float
    seed: int
    block: np.ndarray                # per-point block in [0, k)
    pair: np.ndarray                 # per-point (j1, j2), j1 < j2, within-block
    gram: MeteredGram = field(repr=False)
    points: np.ndarray = field(repr=False)


def _validate_inv_eps(eps: float) -> int:
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-9 or round(inv) < 2:
        raise ContractViolationError(f"1/eps must be an integer >= 2, got 1/{eps}")
    return round(inv)


def _two_hot_points(block: np.ndarray, pair: np.ndarray, inv_eps: int, dim: int) -> np.ndarray:
    n = block.size
    pts = np.zeros((n, dim))
    base = block * inv_eps
    pts[np.arange(n), base + pair[:, 0]] = 1.0 / np.sqrt(2.0)
    pts[np.arange(n), base + pair[:, 1]] = 1.0 / np.sqrt(2.0)
    return pts


def gen_kkmc(n: int, k: int, eps: float, seed: int) -> KkmcInstance:
    """Draw n i.i.d. two-hot block vectors."""
    if n < 1 or k < 1:
        raise ContractViolationError("n and k must be positive")
    inv_eps = _validate_inv_eps(eps)
    n_types = k * comb(inv_eps, 2)
    if 10 * n_types > n:
        warnings.warn(f"{n_types} vector types against n = {n} draws; "
                      "per-type counts will be sparse", stacklevel=2)
    rng = stream(seed, "gen-kkmc")
    block = rng.integers(0, k, size=n)
    pair_list = np.array([(a, b) for a in range(inv_eps) for b in range(a + 1, inv_eps)])
    pair = pair_list[rng.integers(0, len(pair_list), size=n)]
    points = _two_hot_points(block, pair, inv_eps, k * inv_eps)
    gram = MeteredGram(points)
    return KkmcInstance(n=n, k=k, eps=eps, seed=seed, block=block, pair=pair,
                        gram=gram, points=points)


@dataclass
class MogInstance:
    """Isotropic Gaussian mixture with recorded means and labels."""

    n: int
    d: int
    k: int
    sigma: float
    separation: float
    seed: int
    means: np.ndarray                # (k, d)
    labels: np.ndarray               # per-point component in [0, k)
    gram: MeteredGram = field(repr=False)
    points: np.ndarray = field(repr=False)


def _min_distance(means: np.ndarray) -> float:
    """Least distance between two rows of means, a row at a time; inf for one row."""
    return min((float(np.linalg.norm(means[i + 1:] - means[i], axis=1).min())
                for i in range(len(means) - 1)), default=np.inf)


def _on_grid(x: np.ndarray) -> np.ndarray:
    """Round x, (rows, d), in place to multiples of 2^-s and return it:
    s = floor((53 - ceil(log2 d) - 2e)/2), with 2^e the least power of two
    above max|x| (1 if x is all zero). A product of two entries is then an
    integer in units of 2^-2s, and a sum of d of them at most 2^53 units,
    so a dot product of two rows is exact in any order. An entry moves by
    at most 2^-(s+1)."""
    s = (53 - (x.shape[1] - 1).bit_length() - 2 * frexp(max(x.max(), -x.min()))[1]) // 2
    np.ldexp(x, s, out=x)
    np.rint(x, out=x)
    return np.ldexp(x, -s, out=x)


def gen_mog(n: int, d: int, k: int, sigma: float, separation: float, seed: int) -> MogInstance:
    """Sample a separated Gaussian mixture on a dyadic grid.

    Means sit at separation * (random orthonormal directions) when k <= d,
    which puts every pair at distance separation * sqrt(2); otherwise
    rejection sampling inside a scaled ball, with _MOG_RETRIES tries.
    The points, and the means unless that brings two closer than the
    separation, are rounded to the grid 2^-s of _on_grid, each array by its
    own largest coordinate (s = 18 at d = 64 when that is in [16, 32)), and
    move by at most 2^-(s+1) a coordinate. Every kernel entry is then
    exact, so each read of a pair returns the same bits.
    """
    if n < 1 or k < 1 or d < 1:
        raise ContractViolationError("n, d, k must be positive")
    if sigma < 0:
        raise ContractViolationError("sigma must be nonnegative")
    rng = stream(seed, "gen-mog")
    if k <= d:
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        means = separation * q[:, :k].T
    else:
        radius = separation * max(1.0, k ** (1.0 / d))
        for _ in range(_MOG_RETRIES):
            means = rng.uniform(-radius, radius, size=(k, d))
            if _min_distance(means) >= separation:
                break
            radius *= 1.5
        else:
            raise GenerationFailureError(
                f"could not place {k} means at separation {separation} in dimension {d}")
    # the grid moves a pair of means by up to sqrt(d) 2^-s
    if _min_distance(snapped := _on_grid(means.copy())) >= separation:
        means = snapped
    elif _min_distance(means) < separation * (1 - 1e-12):
        raise GenerationFailureError("mean placement failed the separation check")
    labels = rng.choice(k, size=n, p=np.full(k, 1.0 / k))
    points = _on_grid(means[labels] + sigma * rng.standard_normal((n, d)))
    return MogInstance(n=n, d=d, k=k, sigma=sigma, separation=separation, seed=seed, means=means,
                       labels=labels, gram=MeteredGram(points), points=points)
