"""Query-efficient clustering of isotropic Gaussian mixtures.

The pipeline spends its kernel queries in two places: a t x t bootstrap
block, factored by the pivoted Cholesky loop krr shares to recover t
points in an r-dimensional frame (r the block's rank) up to a common
rotation, and 2m queries per remaining point to push it through a sketch
whose rows are rescaled differences of same-mean bootstrap points (each
such difference is an isotropic Gaussian, so the sketch is a Gaussian
projection the oracle can apply without ever seeing coordinates).
Assignment decisions happen in the sketched space via midpoint sign tests
against projected mean estimates, all pairs of means in one product.

The 2m x N sketch read is the pipeline's largest array, and nothing of its
size is held beside it: the bootstrap's factor grows to its r rows, the
read's row differences are taken in place, and the projections and sign
tests run a panel of columns at a time.

Everything downstream of the bootstrap depends on inner products only, so
rotating the hidden point set changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, isfinite, log, sqrt
from typing import Optional

import numpy as np

from .errors import (ContractViolationError, DegenerateRowError,
                     DegenerateSketchError, EstimationFailureError,
                     NumericalDegeneracyError, PipelineStageError)
from .kkmc import Clustering
from .krr import _ROUND_OFF, _pivot
from .oracle import MeteredGram, _panels

# Gaussian-mean test threshold constant: separation^2 >= 144 sigma^2 ln(1/delta)
# keeps sigma at most a twelfth of the separation, which the midpoint sign
# test needs even with means known only to within sigma.
PAIR_TEST_SEPARATION_CONST = 144.0

DEFAULT_SKETCH_CONST = 8.0
MEAN_SAMPLE_CONST = 2.0
_ASSIGN_PANEL = 2016  # sketched_assign's columns at a time


def bootstrap_extract(gram: MeteredGram, t: int) -> np.ndarray:
    """Read the leading t x t block K and factor it into explicit points:
    row i of the returned (t, r) array F is point i, in an arbitrary
    rotation of the original frame, and r is the block's rank (d for t >= d
    points in general position).

    The factor comes from the greedy pivoted Cholesky loop that krr's
    solver runs, pivoting until the residual trace is at most 8 eps
    sum|K_ii|, with up to t pivots. A gram block is positive semidefinite,
    so that trace bounds ||K - F F'||_F, and a finite diagonal bounds every
    entry. The loop finding no factor is an error: a NaN or an infinity on
    the diagonal, or a residual diagonal below minus the tolerance (a
    negative direction). Charges exactly t(t+1)/2 fresh entries on an
    untouched gram.
    """
    if not 1 <= t <= gram.n:
        raise ContractViolationError(f"t = {t} out of range [1, {gram.n}]")
    idx = np.arange(t)
    block = gram.query_block(idx, idx)
    with np.errstate(all="ignore"):  # a NaN or an infinity gives no factor
        diag = block.diagonal()
        tol = _ROUND_OFF * np.finfo(np.float64).eps * np.abs(diag).sum()
        Ft = _pivot(diag, block.__getitem__, tol)
    if Ft is None:
        raise NumericalDegeneracyError(
            "bootstrap block is not a Gram matrix to working precision")
    return Ft.T


def mean_sample_size(k: int, d: int) -> int:
    """Labeled bootstrap sample large enough for sigma-accurate empirical means."""
    return ceil(MEAN_SAMPLE_CONST * k * (d + log(max(k, 2))))


def min_component_count(k: int, d: int) -> int:
    """Fewest labeled points per component tolerated by estimate_means."""
    return max(2, ceil(d + log(max(k, 2))))


def estimate_means(points, labels, k: int, min_count: int) -> np.ndarray:
    """Per-component empirical means over labeled sample points."""
    pts = np.asarray(points, dtype=np.float64)
    lab = np.asarray(labels)
    if lab.shape[0] != pts.shape[0]:
        raise ContractViolationError("labels must match points")
    counts = np.bincount(lab, minlength=k)
    if (counts < min_count).any():
        short = np.flatnonzero(counts < min_count)
        raise EstimationFailureError(
            f"components {short.tolist()} have fewer than {min_count} labeled points")
    means = np.zeros((k, pts.shape[1]))
    for ell in range(k):
        means[ell] = pts[lab == ell].mean(axis=0)
    return means


def assign_by_pair_tests(X, means):
    """All-pairs sign tests: row i gets the unique mean beating every other.

    The k(k-1)/2 unordered pairs (j, l), j < l, run as one product: with
    midpoint c = (mu_j + mu_l) / 2 and D = mu_j - c, s = X D' - <c, D> is
    a win for j where s > 0 and for l where s < 0, so a point exactly at a
    midpoint wins neither. Returns (assignment, confident) where
    confident[i] is False when no mean won all its tests and the nearest
    mean was used instead.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    means = np.asarray(means, dtype=np.float64)
    k = means.shape[0]
    if k == 1:
        return np.zeros(X.shape[0], dtype=np.int64), np.ones(X.shape[0], dtype=bool)
    j, ell = np.triu_indices(k, 1)
    c = 0.5 * (means[j] + means[ell])
    D = means[j] - c
    s = X @ D.T - (c * D).sum(axis=1)
    # sides[q] is +1 at pair q's first mean and -1 at its second, so
    # sign(s) @ sides counts each mean's wins less its losses (a tie is 0)
    sides = np.zeros((j.size, k))
    sides[np.arange(j.size), j] = 1.0
    sides[np.arange(j.size), ell] = -1.0
    wins = np.sign(s) @ sides == k - 1
    n_wins = wins.sum(axis=1)
    confident = n_wins == 1
    assignment = np.argmax(wins, axis=1).astype(np.int64)
    if (~confident).any():
        dist = ((X[~confident, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        assignment[~confident] = np.argmin(dist, axis=1)
    return assignment, confident


def sketch_dimension(n: int, k: int, eps: float, c_sketch: float = DEFAULT_SKETCH_CONST,
                     delta_exponent: int = 3) -> int:
    """Rows needed to separate all points from all wrong means at once:
    ceil(c_sketch * (1/eps) * ln((n k)^delta_exponent)), which must be finite."""
    rows = c_sketch * (1.0 / eps) * delta_exponent * log(n * k)
    if not isfinite(rows):
        raise ContractViolationError(f"sketch rows are not finite at eps = {eps!r}, "
                                     f"c_sketch = {c_sketch!r}")
    return ceil(rows)


def sketch_sizes(n: int, k: int, eps: float, d: int, c_sketch: float = DEFAULT_SKETCH_CONST,
                 delta_exponent: int = 3, m: Optional[int] = None) -> tuple:
    """The sketch rows m and bootstrap points t of cluster_mog, which then
    reads t(t+1)/2 + 2m(n - t) entries.

    m defaults to 0 at k = 1, where nothing is sketched, and otherwise to
    sketch_dimension capped at d, as sketch rows are differences in a
    d-dimensional span and rows past d are dependent up to round-off
    (DegenerateSketchError in build_sketch). t covers the mean estimates, m same-mean pairs plus k,
    and the d-dimensional frame.
    """
    for name, value, ok in (("eps", eps, eps > 0), ("c_sketch", c_sketch, c_sketch > 0),
                            ("delta_exponent", delta_exponent, delta_exponent >= 1)):
        if not ok:
            raise ContractViolationError("need eps > 0, c_sketch > 0 and delta_exponent >= 1; "
                                         f"got {name} = {value!r}")
    if m is None:
        m = 0 if k == 1 else min(sketch_dimension(n, k, eps, c_sketch, delta_exponent), d)
    return m, max(mean_sample_size(k, d), 2 * m + k, d)


def separation_thresholds(n: int, d: int, k: int, eps: float, sigma: float,
                          m: int, delta_exponent: int = 3) -> dict:
    """Mean-separation floors under which each pipeline stage is reliable.

    mean_learning covers recovering means to within sigma; pair_test covers
    the bootstrap same-mean pairing at failure rate (2m+k)^-delta_exponent;
    sketched_regime is the scale below which misassignment is cost-free.
    """
    c = PAIR_TEST_SEPARATION_CONST
    mean_learning = sigma * sqrt(c * log(max(k, 2)))
    pair = sigma * sqrt(c * delta_exponent * log(2 * m + k))
    sketched = sigma * sqrt(eps * d)
    return {
        "mean_learning": mean_learning,
        "pair_test": pair,
        "sketched_regime": sketched,
        "max": max(mean_learning, pair, sketched),
    }


@dataclass
class SketchOperator:
    """m x r operator whose rows are same-mean bootstrap differences divided
    by sigma * sqrt(2), making each row standard Gaussian; r is the
    dimension of the bootstrap frame, so m <= r. The SVD of the rows is
    kept so sketched vectors can be pulled back onto the operator's row
    space: S x = U diag(s) (Vt x) gives Vt x = diag(1/s) U' (S x)."""

    m: int
    pairs: np.ndarray                      # (m, 2) source point indices
    scale: float
    rows: np.ndarray = field(repr=False)   # (m, r)
    _u: np.ndarray = field(repr=False)
    _s: np.ndarray = field(repr=False)
    _vt: np.ndarray = field(repr=False)

    @property
    def source_indices(self) -> np.ndarray:
        return self.pairs.reshape(-1)

    def project_sketched(self, sx) -> np.ndarray:
        """Row-space coordinates of the (m, N) sketched columns: diag(1/s) U' sx."""
        return (self._u.T @ np.asarray(sx, dtype=np.float64)) / self._s[:, None]

    def project_direct(self, v) -> np.ndarray:
        """Row-space coordinates of an explicit frame vector, or of each row
        of a (k, r) matrix: v Vt'."""
        return np.asarray(v, dtype=np.float64) @ self._vt.T


def build_sketch(points, pairs, sigma: float) -> SketchOperator:
    """Assemble the operator from same-mean index pairs into `points`."""
    if sigma <= 0:
        raise ContractViolationError("sigma must be positive to scale sketch rows")
    pts = np.asarray(points, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ContractViolationError("pairs must be a nonempty (m, 2) array")
    flat = pairs.reshape(-1)
    if np.unique(flat).size != flat.size:
        raise ContractViolationError("sketch source pairs must be disjoint")
    scale = sigma * sqrt(2.0)
    rows = (pts[pairs[:, 0]] - pts[pairs[:, 1]]) / scale
    norms = np.linalg.norm(rows, axis=1)
    if (norms == 0.0).any():
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateRowError(f"pair {pairs[bad].tolist()} gives a zero row")
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    # more rows than the frame has dimensions (m > r) leaves only r singular values
    if s.size < pairs.shape[0] or s.min() <= 1e-10 * s.max():
        raise DegenerateSketchError("sketch rows are linearly dependent")
    return SketchOperator(m=pairs.shape[0], pairs=pairs, scale=scale,
                          rows=rows, _u=u, _s=s, _vt=vt)


def sketch_apply_many(gram: MeteredGram, sketch: SketchOperator, indices) -> np.ndarray:
    """Sketch hidden points through the oracle in one block read: entry
    (ell, j) is (K[a_ell, i_j] - K[b_ell, i_j]) / scale, two queries per row
    and point. Returns (m, len(indices)), a view of the 2m x len(indices)
    block the difference is taken in, so the read holds that block and
    nothing more. A sketch source among the indices raises before anything
    is read."""
    idx = np.asarray(indices)
    is_source = np.isin(idx, sketch.source_indices)
    if is_source.any():
        raise ContractViolationError(f"point {int(idx[is_source][0])} is a sketch source")
    # block rows are pairs.reshape(-1): a_ell is row 2 ell, b_ell row 2 ell + 1
    block = gram.query_block(sketch.source_indices, idx)
    sx = block[0::2]
    sx -= block[1::2]
    sx /= sketch.scale
    return sx


def sketched_assign(sketch: SketchOperator, sx, means) -> tuple:
    """Pick a center for each column of the (m, N) sketched block: project
    the points and the estimated means onto the sketch row space, then run
    the all-pairs sign tests there. Returns (assignment, fallback) arrays;
    fallback[j] means no center won every test for point j and the nearest
    projected mean was used.

    Columns go through in panels of at most _ASSIGN_PANEL, so the
    projections and scores live one panel at a time.
    """
    sx = np.asarray(sx, dtype=np.float64)
    proj_means = sketch.project_direct(means)
    assignment = np.empty(sx.shape[1], dtype=np.int64)
    confident = np.empty(sx.shape[1], dtype=bool)
    for c0, c1 in _panels(sx.shape[1], _ASSIGN_PANEL):
        assignment[c0:c1], confident[c0:c1] = assign_by_pair_tests(
            sketch.project_sketched(sx[:, c0:c1]).T, proj_means)
    return assignment, ~confident


@dataclass
class MogResult:
    """The partition and the sizes that set its query count; the gram's
    ledger is the record of what was read."""

    clustering: Clustering
    m: int
    t: int
    sketch: Optional[SketchOperator] = None    # None when k = 1


def _pair_up(indices: np.ndarray) -> list:
    return [(int(indices[2 * i]), int(indices[2 * i + 1]))
            for i in range(indices.size // 2)]


def cluster_mog(gram: MeteredGram, k: int, eps: float, sigma: float, d: int,
                bootstrap_labels, c_sketch: float = DEFAULT_SKETCH_CONST,
                delta_exponent: int = 3, m: Optional[int] = None,
                t: Optional[int] = None) -> MogResult:
    """Full pipeline: bootstrap, estimate means, pick same-mean pairs, sketch
    everything else, and assign by sketched sign tests.

    bootstrap_labels supplies ground-truth component labels for the leading
    points, standing in for a black-box mean estimator; only the first t are
    used. m and t default to sketch_sizes. Stage failures raise
    PipelineStageError tagged with the stage. On an untouched gram the
    ledger ends at exactly t(t+1)/2 + 2 m (n - t) distinct entries (no
    sketching when k = 1).
    """
    n = gram.n
    if m is None or t is None:
        m, t_default = sketch_sizes(n, k, eps, d, c_sketch, delta_exponent, m)
        t = t_default if t is None else t
    if t > n:
        raise PipelineStageError("configure", f"bootstrap size t = {t} exceeds n = {n}")
    labels = np.asarray(bootstrap_labels)
    if labels.shape[0] < t:
        raise PipelineStageError("configure", f"need labels for {t} bootstrap points")
    if sigma <= 0 and k > 1:
        raise PipelineStageError("configure", "sigma = 0 degenerates every sketch row")

    try:
        points = bootstrap_extract(gram, t)
    except (NumericalDegeneracyError, ContractViolationError) as e:
        raise PipelineStageError("bootstrap", str(e)) from e
    try:
        means = estimate_means(points, labels[:t], k, min_component_count(k, d))
    except EstimationFailureError as e:
        raise PipelineStageError("estimate-means", str(e)) from e

    if k == 1:
        return MogResult(clustering=Clustering(np.zeros(n, dtype=np.int64)), m=0, t=t)

    boot_assign, confident = assign_by_pair_tests(points, means)
    pairs = []
    for ell in range(k):
        members = np.flatnonzero((boot_assign == ell) & confident)
        pairs.extend(_pair_up(members))
    if len(pairs) < m:
        raise PipelineStageError(
            "pairing", f"only {len(pairs)} same-mean pairs available, need {m}")
    pairs = np.asarray(sorted(pairs[:m]), dtype=np.int64)
    try:
        sketch = build_sketch(points, pairs, sigma)
    except (DegenerateRowError, DegenerateSketchError) as e:
        raise PipelineStageError("sketch", str(e)) from e

    remaining = np.setdiff1d(np.arange(n), sketch.source_indices)
    rem_assign, _ = sketched_assign(
        sketch, sketch_apply_many(gram, sketch, remaining), means)

    assignment = np.empty(n, dtype=np.int64)
    assignment[remaining] = rem_assign
    for (a, b), owner in zip(pairs, boot_assign[pairs[:, 0]]):
        assignment[a] = owner
        assignment[b] = owner
    return MogResult(clustering=Clustering(assignment), m=m, t=t, sketch=sketch)
