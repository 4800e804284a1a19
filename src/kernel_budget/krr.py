"""Kernel ridge regression: the exact solve, for the dot-product and the
two-valued (indicator) kernel, effective dimension and the hard-instance
closed form.

The regularized objective ||K a - z||^2 + lam * a' K a has minimizer
a = (K + lam I)^{-1} z. `solve_exact` takes a metered gram; desk scale
(n <= 5000) needs no iterative machinery. It first checks c0 and c1, lam
and z, then charges a reveal of K with one `reveal()`, whose view it reads
K through. K is a dot-product Gram, so symmetric and positive semidefinite
by construction; the one check left on it is that its trace is finite. A
greedy pivoted Cholesky then takes up to n pivots, each on the largest
residual diagonal, until the residual trace, which bounds ||K - Ft'Ft||_F
for a Gram, is at most tol = max(1e-13 * lam, 8 eps trace(K)), or the
round-off floor alone when 1e-13 * lam overflows. It reads the view's
diagonal and one column per pivot, so K's rank r sets the cost, and no
n x n array is built below full rank. The system is then solved from the
r x n factor Ft by Woodbury in O(n r^2), and alpha is within tol / lam
relative distance of the exact minimizer. The offset c0 11' of the kernel
c0 11' + (c1 - c0) K is one more factor row sqrt(c0) 1'. A loop that
finds no factor (a residual diagonal below -tol, which a Gram reaches only
through round-off) raises NumericalDegeneracyError. The package runs on
numpy alone. `_pivot` is the package's one pivot loop; it reads K through
a column source, and `mog.bootstrap_extract` runs it too.
`hard_instance_optimum` gives the instance's exact minimizer for either
kernel apart from every solver.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NumericalDegeneracyError
from .instances import CLASS_S1, CLASS_S2, KrrInstance
from .oracle import MeteredGram

_PIVOT_TOL = 1e-13  # the pivoted factor must fit K to _PIVOT_TOL * lam ...
_ROUND_OFF = 8      # ... or, if larger, to _ROUND_OFF * eps * trace(K)


def _check_lam(lam: float):
    """lam > 0; a NaN lam fails too."""
    if not lam > 0:
        raise ContractViolationError(f"lam must be positive, got {lam}")


def _pivot(diag, column, tol: float):
    """Greedy pivoted Cholesky rows Ft (r x n) of a square K, or None; the
    one pivot loop every factor in the package runs. diag is K's diagonal,
    copied here as the residual, and column(p) returns K[:, p], called once
    for each pivot p; a caller holding K passes its row K[p].

    Each step pivots on the largest residual diagonal, takes that column of
    K less the rows already found and divides it by the pivot's residual
    root. Pivoting stops once the residual trace is at most tol, and gives
    up on a residual diagonal below -tol (K is not positive semidefinite),
    on a NaN or infinite tol, or when the residual trace is still above tol
    after n pivots. Only the diagonal and the pivot columns of K are read.
    For a Gram matrix the residual K - Ft'Ft is positive semidefinite, so
    its trace bounds ||K - Ft'Ft||_F. Ft grows in place, doubling its rows
    up to n, and is cut to its r rows on return: an array that owns its
    memory.
    """
    if not tol < np.inf:  # a NaN, or an overflow: no fit means anything
        return None
    d = np.array(diag, dtype=np.float64)
    n = d.size
    Ft = np.empty((0, n))
    r = 0
    while True:
        if d.min() < -tol:
            return None
        if d.sum() <= tol:
            Ft.resize((r, n), refcheck=False)
            return Ft
        if r == n:
            return None
        if r == Ft.shape[0]:  # no view of Ft lives across the realloc
            Ft.resize((min(2 * r or 1, n), n), refcheck=False)
        p = int(np.argmax(d))
        row = column(p) - Ft[:r, p] @ Ft[:r]
        row /= np.sqrt(d[p])
        d -= row * row
        Ft[r] = row
        r += 1


def _woodbury(Ft, b, lam: float) -> np.ndarray:
    """(Ft'Ft + lam I)^{-1} b = (b - Ft'(Ft Ft' + lam I)^{-1} Ft b) / lam,
    from an r x n Ft through one r x r system."""
    small = Ft @ Ft.T
    small.flat[::small.shape[0] + 1] += lam
    return (b - Ft.T @ np.linalg.solve(small, Ft @ b)) / lam


def _solve(K, b, lam: float, scale: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """(offset 11' + scale K + lam I)^{-1} b for a Gram matrix K read
    through a revealed view (oracle.Revealed): Woodbury on a pivoted factor
    of K, from its diagonal and pivot columns, scaled by sqrt(scale) and
    with the row sqrt(offset) 1' on top when offset > 0.

    The factor must fit to tol = max(_PIVOT_TOL * lam / scale, _ROUND_OFF *
    eps * trace(K)), so ||alpha_hat - alpha|| <= tol * scale * ||alpha|| / lam
    (the offset row is exact): a relative error of at most the larger of
    _PIVOT_TOL and 8 eps trace(scale K) / lam. For a K of rank r that is at
    most 8 r eps ||scale K||_2 / lam, within 8 r of a dense Cholesky's own
    forward error; a tolerance below it would fail on the factor's round-off.
    Where _PIVOT_TOL * lam / scale overflows, tol is the round-off floor. A
    trace that is not finite (a NaN or an infinite point, or a squared norm
    that overflows) is refused before the loop runs, and a loop that finds
    no factor raises NumericalDegeneracyError.
    """
    with np.errstate(over="ignore"):  # an overflow is refused, or floored
        diag = K.diagonal()
        trace = float(diag.sum())
        if not np.isfinite(trace):
            raise ContractViolationError("the gram must be finite")
        fit = _PIVOT_TOL * lam / scale
    floor = _ROUND_OFF * np.finfo(np.float64).eps * trace
    Ft = _pivot(diag, K.column, max(fit, floor) if fit < np.inf else floor)
    if Ft is None:
        raise NumericalDegeneracyError(
            "the gram is not positive semidefinite to working precision")
    Ft *= np.sqrt(scale)
    if offset:
        Ft = np.vstack([np.full(diag.size, np.sqrt(offset)), Ft])
    return _woodbury(Ft, b, lam)


def solve_exact(gram: MeteredGram, z, lam: float, c0: float = 0.0,
                c1: float = 1.0) -> np.ndarray:
    """Minimize the ridge objective for the kernel c0 11' + (c1 - c0) K on
    the gram's matrix K, which is K at the defaults: alpha = (c0 11' +
    (c1 - c0) K + lam I)^{-1} z, the offset never assembled. Needs
    0 <= c0 < c1 < inf (`_check_constants`), lam > 0 and a finite z with one
    entry per point, all checked before the one read: a full reveal of K,
    charged whole, whose view the solve reads through its diagonal and
    pivot columns."""
    _check_constants(c0, c1)
    _check_lam(lam)
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (gram.n,):
        raise ContractViolationError("z must have one entry per point")
    if not np.isfinite(z).all():
        raise ContractViolationError("z must be finite")
    return _solve(gram.reveal(), z, lam, c1 - c0, c0)


def d_eff(eigenvalues, lam: float) -> float:
    """Effective statistical dimension sum(s / (s + lam)) over eigenvalues s."""
    _check_lam(lam)
    s = np.asarray(eigenvalues, dtype=np.float64)
    if (s < -1e-8).any():
        raise ContractViolationError("eigenvalues must be nonnegative")
    s = np.clip(s, 0.0, None)
    return float(np.sum(s / (s + lam)))


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
