"""Kernel ridge regression: the exact dense solve, a metered landmark
(Nystrom) solve, effective dimension, the hard-instance closed form, and the
rank-one indicator path.

The regularized objective ||K a - z||^2 + lam * a' K a has minimizer
a = (K + lam I)^{-1} z. `solve_exact` and `indicator_solve` take a dense
matrix the caller has already revealed and factor it through a symmetric
positive-definite Cholesky solve; desk scale (n <= 5000) needs no iterative
machinery. Each dense solve checks its input in one tiled pass (finite,
symmetric) and factors one n x n working copy in place, so it holds one
n x n array beyond its input; the caller's arrays are never written to.
scipy is imported on the first dense solve, so importing the package loads
only numpy. `nystrom_solve` reads only the landmark columns of a metered
gram and never builds an n x n array.
"""

from __future__ import annotations

import numpy as np

from .errors import (ContractViolationError, NumericalDegeneracyError,
                     SingularSystemError)
from .instances import CLASS_S1, CLASS_S2, KrrInstance
from .oracle import MeteredGram

_SYM_TOL = 1e-8
_SYM_TILE = 256


def _max_skew(K) -> float:
    """max |K - K'|, compared tile by tile over the upper tiles so that no
    full-size transpose or difference is ever held."""
    n, t = K.shape[0], _SYM_TILE
    skew = 0.0
    for i in range(0, n, t):
        for j in range(i, n, t):
            d = K[i:i + t, j:j + t] - K[j:j + t, i:i + t].T
            skew = max(skew, float(np.abs(d).max()))
    return skew


def _check_lam(lam: float):
    """lam > 0; a NaN lam fails too."""
    if not lam > 0:
        raise ContractViolationError(f"lam must be positive, got {lam}")


def _check_system(K, z, lam: float, what: str = "K"):
    """K and z as float arrays, once lam > 0, K is nonempty, square and
    conforms with z, both are finite, and K is symmetric."""
    _check_lam(lam)
    K = np.asarray(K, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if (K.ndim != 2 or K.shape[0] == 0 or K.shape[0] != K.shape[1]
            or z.shape != (K.shape[0],)):
        raise ContractViolationError(f"{what} must be nonempty, square and conform with z")
    hi, lo = K.max(), K.min()
    if not (np.isfinite(hi) and np.isfinite(lo) and np.isfinite(z).all()):
        raise ContractViolationError(f"{what} and z must be finite")
    skew = _max_skew(K)
    scale = 1.0 + max(hi, -lo)
    if skew > _SYM_TOL * scale:
        raise ContractViolationError(f"{what} is not symmetric (max skew {skew:.3g})")
    return K, z


def _factor(A, lam: float):
    """Factor A + lam I in place and return the solve b -> (A + lam I)^{-1} b
    for one right-hand side. A is a symmetric C-order working copy that the
    solver owns.

    A.T is Fortran-ordered, so LAPACK factors its lower triangle (the upper
    triangle of A) without another copy. This is the package's only use of
    scipy, imported here so that no other route pays for loading it."""
    import scipy.linalg

    A.flat[::A.shape[0] + 1] += lam
    try:
        cho = scipy.linalg.cho_factor(A.T, lower=True, overwrite_a=True,
                                      check_finite=False)
    except np.linalg.LinAlgError as e:
        raise NumericalDegeneracyError(str(e)) from e
    return lambda b: scipy.linalg.cho_solve(cho, b, check_finite=False)


def solve_exact(K, z, lam: float) -> np.ndarray:
    """Minimize the ridge objective: alpha = (K + lam I)^{-1} z."""
    K, z = _check_system(K, z, lam)
    return _factor(np.array(K, order="C"), lam)(z)


def nystrom_solve(gram: MeteredGram, landmarks, z, lam: float) -> np.ndarray:
    """Ridge solve against the landmark approximation K_tilde = C W^+ C'.

    C = K[:, landmarks] is read in one metered block, the only read: n*L
    requests and n*L - L(L-1)/2 distinct entries for L fresh landmarks. With
    W = C[landmarks] = V diag(w) V' and B = C V_k / sqrt(w_k) over the
    eigenvalues above round-off, K_tilde = B B', and Woodbury gives

        alpha = (K_tilde + lam I)^{-1} z = (z - B (B'B + lam I)^{-1} B'z) / lam

    with no n x n array. K - K_tilde is positive semidefinite (a Schur
    complement); once its top eigenvalue is at most lam * eps, alpha is
    within eps relative distance of the exact minimizer. The caller chooses
    the landmarks: distinct indices, at least one.
    """
    _check_lam(lam)
    landmarks = np.asarray(landmarks)
    if (landmarks.ndim != 1 or landmarks.size == 0
            or np.unique(landmarks).size != landmarks.size):
        raise ContractViolationError("landmarks must be a nonempty list of distinct indices")
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (gram.n,):
        raise ContractViolationError("z must have one entry per point")
    C = gram.query_block(np.arange(gram.n), landmarks)
    W = C[landmarks]
    w, V = np.linalg.eigh(0.5 * (W + W.T))
    keep = w > max(1e-12, 1e-12 * np.abs(w).max())
    B = C @ (V[:, keep] / np.sqrt(w[keep]))
    small = B.T @ B + lam * np.eye(B.shape[1])
    return (z - B @ np.linalg.solve(small, B.T @ z)) / lam


def d_eff(eigenvalues, lam: float) -> float:
    """Effective statistical dimension sum(s / (s + lam)) over eigenvalues s."""
    _check_lam(lam)
    s = np.asarray(eigenvalues, dtype=np.float64)
    if (s < -1e-8).any():
        raise ContractViolationError("eigenvalues must be nonnegative")
    s = np.clip(s, 0.0, None)
    return float(np.sum(s / (s + lam)))


def check_guarantee(alpha_hat, alpha_opt, eps: float) -> bool:
    """||alpha_hat - alpha_opt|| <= eps * ||alpha_opt|| (inclusive)."""
    a = np.asarray(alpha_hat, dtype=np.float64)
    b = np.asarray(alpha_opt, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractViolationError("vectors must have the same length")
    return bool(np.linalg.norm(a - b) <= eps * np.linalg.norm(b))


def hard_instance_optimum(instance: KrrInstance) -> np.ndarray:
    """Closed-form exact minimizer on a generated ridge hard instance.

    Point i shares its basis direction with n_{j_i} - 1 others, so its
    coordinate is 1 / (n_{j_i} + lam). Each augmented point sits alone in a
    fresh direction with squared norm (n/k)^2, giving 1 / ((n/k)^2 + lam).
    """
    counts = instance.counts
    lam = instance.lam
    alpha = 1.0 / (counts[instance.basis_index] + lam)
    if instance.augmented:
        scale = instance.n / instance.k
        extra = np.full(round(instance.k), 1.0 / (scale * scale + lam))
        alpha = np.concatenate([alpha, extra])
    return alpha


def classification_midpoint(eps: float) -> float:
    """Threshold between the two ideal scaled coordinate values."""
    return 0.5 * (1.0 / (1.0 + eps) + 1.0 / (1.0 + 2.0 * eps))


def classify_rows(alpha_hat, n: int, k: float, eps: float) -> np.ndarray:
    """Label each row S1 or S2 from an (approximate) solve.

    Scaled by n/k, the ideal coordinate values are 1/(1+eps) for rows drawn
    from the S1 half and 1/(1+2 eps) for the S2 half; rows above the
    midpoint of those two values are labeled S1. The midpoint maximizes the
    margin symmetrically, and any threshold strictly between the ideals
    works given the size of the gap.
    """
    scaled = (n / k) * np.asarray(alpha_hat, dtype=np.float64)
    return np.where(scaled > classification_midpoint(eps), CLASS_S1, CLASS_S2)


def indicator_solve(G, z, lam: float, c0: float, c1: float) -> np.ndarray:
    """Ridge solve for K = c0 * ones + (c1 - c0) * G without assembling K.

    The all-ones offset is a rank-one update of (c1 - c0) G + lam I, so with
    A = (c1 - c0) G + lam I and C = c0 * 1' A^{-1} 1,

        alpha = A^{-1} z - A^{-1} 1 * (c0 * 1' A^{-1} z) / (1 + C),

    which for z = 1 collapses to (1 / ((c1 - c0)(1 + C))) *
    (G + (lam / (c1 - c0)) I)^{-1} z.
    """
    if not c1 > c0:
        raise ContractViolationError(f"need c1 > c0, got c0={c0}, c1={c1}")
    G, z = _check_system(G, z, lam, "G")
    solve = _factor(np.multiply(c1 - c0, G, order="C"), lam)
    ones = np.ones(G.shape[0])
    w = solve(ones)
    y = solve(z)
    denom = 1.0 + c0 * (ones @ w)
    if abs(denom) < 1e-12:
        raise SingularSystemError("rank-one update denominator vanished")
    return y - w * (c0 * (ones @ y) / denom)
