"""Kernel ridge regression: the exact dense solve, for the dot-product and
the two-valued (indicator) kernel, a metered landmark (Nystrom) solve,
effective dimension and the hard-instance closed form.

The regularized objective ||K a - z||^2 + lam * a' K a has minimizer
a = (K + lam I)^{-1} z. `solve_exact` takes a dense matrix the caller has
already revealed; desk scale (n <= 5000) needs no iterative machinery. It
first checks c0 and c1, lam, the shape and z, then runs a
greedy pivoted Cholesky on the still unchecked matrix: at most n // 16
pivots, each on the largest residual diagonal, until the residual trace is
at most tol = max(1e-13 * lam, 8 eps * sum|K_ii|). When the r x n factor Ft
fits K to tol in Frobenius norm (checked over panels of 32 whole rows), the
system is solved from Ft by Woodbury in O(n r^2), holding Ft and one panel
rather than an n x n copy, and alpha is within tol / lam relative distance
of the exact minimizer. That fit reads every entry, so it also vouches that
K is finite and symmetric; the separate finite and symmetric pass over K
runs only when lam is so large that the fit no longer implies the symmetry
tolerance, or when the solve falls back. It falls back on a residual
diagonal below -tol, the pivot cap or a failed fit, to a symmetric
positive-definite Cholesky of one n x n working copy, factored in place.
The offset c0 11' of the kernel c0 11' + (c1 - c0) K is one more factor row
sqrt(c0) 1', or a constant added to the working copy (c1 - c0) K. The
caller's arrays are never written to. scipy loads on the first dense
Cholesky, so importing the package, and a low-rank solve, load only numpy.
`nystrom_solve` reads only the landmark columns of a metered gram; both
solvers share one Woodbury solve. `_pivot` is the package's one pivot loop,
which `mog.bootstrap_extract` runs too. `hard_instance_optimum` gives the
instance's exact minimizer for either kernel apart from every solver.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NumericalDegeneracyError
from .instances import CLASS_S1, CLASS_S2, KrrInstance
from .oracle import MeteredGram

_SYM_TOL = 1e-8
_SYM_TILE = 256
_PIVOT_TOL = 1e-13  # the pivoted factor must fit K to _PIVOT_TOL * lam ...
_ROUND_OFF = 8      # ... or, if larger, to _ROUND_OFF * eps * sum|K_ii|
_PIVOT_CAP = 16     # at most n // _PIVOT_CAP pivots before the dense route
_FIT_ROWS = 32      # rows of K compared with the factor at a time


def _max_skew(K) -> float:
    """max |K - K'|, compared tile by tile over the _SYM_TILE-square tiles on
    and above the diagonal, so that no full-size transpose or difference is
    ever held."""
    n, t = K.shape[0], _SYM_TILE
    return max(float(np.abs(K[i:i + t, j:j + t] - K[j:j + t, i:i + t].T).max())
               for i in range(0, n, t) for j in range(i, n, t))


def _check_lam(lam: float):
    """lam > 0; a NaN lam fails too."""
    if not lam > 0:
        raise ContractViolationError(f"lam must be positive, got {lam}")


def _check_system(K, z, lam: float):
    """K and z as float arrays, once lam > 0, K is nonempty, square and
    conforms with z, and z is finite. These checks are O(n); K's entries are
    checked by `_check_entries`, or vouched for by a factor that fits them
    (see `_solve`)."""
    _check_lam(lam)
    K = np.asarray(K, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if (K.ndim != 2 or K.shape[0] == 0 or K.shape[0] != K.shape[1]
            or z.shape != (K.shape[0],)):
        raise ContractViolationError("K must be nonempty, square and conform with z")
    if not np.isfinite(z).all():
        raise ContractViolationError("K and z must be finite")
    return K, z


def _check_entries(K):
    """K is finite and symmetric to _SYM_TOL * (1 + max|K|): one full pass
    over K, its skew compared tile by tile."""
    hi, lo = K.max(), K.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ContractViolationError("K and z must be finite")
    skew = _max_skew(K)
    scale = 1.0 + max(hi, -lo)
    if skew > _SYM_TOL * scale:
        raise ContractViolationError(f"K is not symmetric (max skew {skew:.3g})")


def _factor(A, lam: float, b) -> np.ndarray:
    """(A + lam I)^{-1} b for one right-hand side, factoring A + lam I in
    place. A is a symmetric C-order working copy that the solver owns.

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
    return scipy.linalg.cho_solve(cho, b, check_finite=False)


def _fits(K, Ft, tol: float) -> bool:
    """||K - Ft'Ft||_F <= tol, over panels of _FIT_ROWS whole rows: each
    panel's product goes into one _FIT_ROWS x n buffer, which then takes the
    difference from the same rows of K. Every entry of K is compared, so a
    NaN or an infinity fails; stops at the first panel that takes the sum
    over."""
    n = K.shape[0]
    buf = np.empty((_FIT_ROWS, n))
    ss = 0.0
    for i in range(0, n, _FIT_ROWS):
        D = buf[:min(_FIT_ROWS, n - i)]
        np.matmul(Ft[:, i:i + _FIT_ROWS].T, Ft, out=D)
        np.subtract(K[i:i + _FIT_ROWS], D, out=D)
        ss += np.vdot(D, D)
        if not np.sqrt(ss) <= tol:
            return False
    return True


def _pivot(K, tol: float, cap: int):
    """Greedy pivoted Cholesky rows Ft (r x n) of a square K, r <= cap, or
    None; the one pivot loop every factor in the package runs.

    Each step pivots on the largest residual diagonal, takes that row of K
    less the rows already found and divides it by the pivot's residual
    root. Pivoting stops once the residual trace is at most tol, and gives
    up on a residual diagonal below -tol (K is not positive semidefinite),
    on a NaN or infinite tol, or when a pivot past cap is needed. Only the
    diagonal and the pivot rows of K are read, so K may be unchecked, and
    the caller confirms the factor against every entry with `_fits`.
    """
    if not tol < np.inf:  # a NaN, or an overflow: no fit means anything
        return None
    n = K.shape[0]
    d = K.diagonal().copy()
    Ft = np.empty((cap, n))
    r = 0
    while True:
        if d.min() < -tol:
            return None
        if d.sum() <= tol:
            return Ft[:r]
        if r == cap:
            return None
        p = int(np.argmax(d))
        row = np.subtract(K[p], Ft[:r, p] @ Ft[:r], out=Ft[r])
        row /= np.sqrt(d[p])
        d -= row * row
        r += 1


def _pivoted_factor(K, tol: float):
    """`_pivot` rows Ft of a square K with ||K - Ft'Ft||_F <= tol, at most
    n // _PIVOT_CAP of them, or None.

    K may be unchecked: it need be neither finite nor symmetric, so a zero
    residual diagonal does not bound the off-diagonal residual, and the
    factor is returned only if `_fits` confirms it against every entry.
    """
    Ft = _pivot(K, tol, K.shape[0] // _PIVOT_CAP)
    return Ft if Ft is not None and _fits(K, Ft, tol) else None


def _woodbury(Ft, b, lam: float) -> np.ndarray:
    """(Ft'Ft + lam I)^{-1} b = (b - Ft'(Ft Ft' + lam I)^{-1} Ft b) / lam,
    from an r x n Ft through one r x r system."""
    small = Ft @ Ft.T
    small.flat[::small.shape[0] + 1] += lam
    return (b - Ft.T @ np.linalg.solve(small, Ft @ b)) / lam


def _solve(K, b, lam: float, scale: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """(offset 11' + scale K + lam I)^{-1} b for a K whose entries are not
    yet checked: Woodbury on a pivoted factor of K, scaled by sqrt(scale)
    and with the row sqrt(offset) 1' on top when offset > 0, when one fits;
    else the dense Cholesky of one working copy scale K + offset.

    The factor must fit to tol = max(_PIVOT_TOL * lam / scale, _ROUND_OFF *
    eps * sum|K_ii|), so ||alpha_hat - alpha|| <= tol * scale * ||alpha|| / lam
    (the offset row is exact): a relative error of at most the larger of
    _PIVOT_TOL and 8 eps trace(scale K) / lam. For a K of rank r that is at
    most 8 r eps ||scale K||_2 / lam, within 8 r of the dense Cholesky's own
    forward error; a tolerance below it would fail on the factor's round-off.

    A factor that fits also vouches for K's entries: a NaN or an infinity
    fails the fit, and with P = Ft'Ft and D = K - P, |K_ij - K_ji| <= |D_ij|
    + |D_ji| + |P_ij - P_ji| <= sqrt(2) tol plus the round-off between the
    two sums of the same r products P_ij and P_ji. So `_check_entries` runs only if no factor fits,
    or if 2 tol > _SYM_TOL * (1 + max|K_ii|), where the fit would no longer
    imply the symmetry bound (max|K_ii| <= max|K|).
    """
    with np.errstate(all="ignore"):  # K may hold NaN or inf: the fit catches them
        d = np.abs(K.diagonal())
        tol = float(np.maximum(_PIVOT_TOL * lam / scale,
                               _ROUND_OFF * np.finfo(np.float64).eps * d.sum()))
        Ft = _pivoted_factor(K, tol)
    if Ft is None or 2 * tol > _SYM_TOL * (1.0 + d.max()):
        _check_entries(K)
    if Ft is None:
        A = np.multiply(scale, K, order="C")
        if offset:
            A += offset
        return _factor(A, lam, b)
    Ft *= np.sqrt(scale)
    if offset:
        Ft = np.vstack([np.full(K.shape[0], np.sqrt(offset)), Ft])
    return _woodbury(Ft, b, lam)


def solve_exact(K, z, lam: float, c0: float = 0.0, c1: float = 1.0) -> np.ndarray:
    """Minimize the ridge objective for the kernel c0 11' + (c1 - c0) K, which
    is K at the defaults: alpha = (c0 11' + (c1 - c0) K + lam I)^{-1} z, the
    offset never assembled. Needs 0 <= c0 < c1 < inf (`_check_constants`)."""
    _check_constants(c0, c1)
    K, z = _check_system(K, z, lam)
    return _solve(K, z, lam, c1 - c0, c0)


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
    return _woodbury(B.T, z, lam)


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


def _check_constants(c0: float, c1: float):
    """0 <= c0 < c1 < inf; a c0 below 0 makes c0 11' + (c1 - c0) G no kernel."""
    if not 0 <= c0 < c1 < np.inf:
        raise ContractViolationError(f"need 0 <= c0 < c1 < inf, got c0={c0}, c1={c1}")


def hard_instance_optimum(instance: KrrInstance, c0: float = 0.0, c1: float = 1.0) -> np.ndarray:
    """Exact minimizer on a generated hard instance for the kernel
    K = c0 11' + (c1 - c0) G on its dot-product gram G, in O(n).

    Group g holds n_g equal points of squared norm v_g: the draws of one basis
    direction (v_g = 1), or one augmented point (v_g = (n/k)^2). Row i in g of
    (K + lam I) alpha = 1 reads D_g alpha_g + c0 sum_h n_h alpha_h = 1, so
    alpha_g = 1 / ((1 + c0 T) D_g), D_g = (c1 - c0) v_g n_g + lam, T = sum_g n_g / D_g:
    1 / (n_g + lam) at the defaults c0 = 0, c1 = 1 (K = G).
    """
    _check_constants(c0, c1)
    extra = round(instance.k) if instance.augmented else 0
    scale, counts = instance.n / instance.k, instance.counts
    n_g = np.concatenate([counts, np.ones(extra)])
    v_n = np.concatenate([counts, np.full(extra, scale * scale)])  # v_g n_g
    D = (c1 - c0) * v_n + instance.lam
    group = np.concatenate([instance.basis_index, counts.size + np.arange(extra)])
    return 1.0 / ((1.0 + c0 * np.sum(n_g / D)) * D[group])


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
