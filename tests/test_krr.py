"""Ridge regression: solvers, effective dimension, closed form, indicator path."""

import numpy as np
import pytest
from conftest import d_eff_from_gram, random_psd, traced_peak
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernel_budget import krr
from kernel_budget.errors import ContractViolationError, NumericalDegeneracyError
from kernel_budget.instances import CLASS_S1, CLASS_S2, gen_krr
from kernel_budget.krr import (classification_midpoint, classify_rows, d_eff,
                               hard_instance_optimum, solve_exact)
from kernel_budget.oracle import MeteredGram
from kernel_budget.rng import stream


def _points(n: int, rank: int, rng, scale: float = 1.0) -> np.ndarray:
    """n Gaussian points in rank dimensions, times scale: their gram is
    scale^2 random_psd(n, rank, rng), up to round-off."""
    return scale * rng.standard_normal((n, rank))


def _indicator_points(points, c0: float, c1: float) -> np.ndarray:
    """[sqrt(c1 - c0) P, sqrt(c0) 1], whose gram is the kernel
    c0 11' + (c1 - c0) P P' that solve_exact's c0 and c1 ask for."""
    n = points.shape[0]
    return np.hstack([np.sqrt(c1 - c0) * points, np.full((n, 1), np.sqrt(c0))])


def _reference(points, z, lam: float, c0: float = 0.0, c1: float = 1.0) -> np.ndarray:
    """np.linalg.solve on the assembled c0 11' + (c1 - c0) P P' + lam I: the
    minimizer solve_exact must give, through no code of the package."""
    n = points.shape[0]
    return np.linalg.solve(c0 + (c1 - c0) * (points @ points.T) + lam * np.eye(n), z)


class TestSolveExact:
    def test_identity_kernel(self):
        alpha = solve_exact(MeteredGram(np.eye(2)), np.ones(2), 1.0)
        assert np.allclose(alpha, [0.5, 0.5], atol=1e-14)

    def test_pure_ridge(self):
        alpha = solve_exact(MeteredGram(np.zeros((2, 1))), np.array([4.0, 6.0]), 2.0)
        assert np.allclose(alpha, [2.0, 3.0], atol=1e-14)

    def test_matches_independent_dense_solve(self):
        rng = stream(0, "psd")
        A = _points(6, 6, rng)
        z = rng.standard_normal(6)
        alpha = solve_exact(MeteredGram(A), z, 0.7)
        ref = np.linalg.solve(A @ A.T + 0.7 * np.eye(6), z)
        assert np.abs(alpha - ref).max() <= 1e-10

    def test_solution_solves_system(self):
        rng = stream(1, "psd2")
        A = _points(20, 5, rng)
        z = rng.standard_normal(20)
        alpha = solve_exact(MeteredGram(A), z, 1.3)
        resid = (A @ A.T + 1.3 * np.eye(20)) @ alpha - z
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(z)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ContractViolationError):
            solve_exact(MeteredGram(np.eye(2)), np.ones(2), 0.0)

    def test_scale_covariance(self):
        rng = stream(2, "scale")
        A = _points(8, 8, rng)
        z = rng.standard_normal(8)
        base = solve_exact(MeteredGram(A), z, 0.5)
        for c in (0.2, 3.0, 17.0):
            scaled = solve_exact(MeteredGram(np.sqrt(c) * A), c * z, c * 0.5)
            assert np.abs(scaled - base).max() <= 1e-9


DENSE_SOLVERS = {
    "exact": solve_exact,
    "indicator": lambda gram, z, lam: solve_exact(gram, z, lam, 0.1, 1.0),
}


class TestCheckSystem:
    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    @pytest.mark.parametrize("points, z, lam", [
        (np.eye(3), np.ones(4), 1.0),
        (np.eye(3), np.ones((3, 1)), 1.0),
        (np.eye(2), np.ones(2), 0.0),
        (np.eye(2), np.ones(2), -1.0),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2), 1.0),
        # inf * 0 puts a NaN off the diagonal, beside an infinite diagonal
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2), 1.0),
        (np.array([[1e200], [1e200]]), np.ones(2), 1.0),
        (np.array([[1e200], [-1e200]]), np.ones(2), 1.0),
        (np.eye(2), np.array([1.0, np.nan]), 1.0),
        (np.eye(2), np.array([np.inf, 1.0]), 1.0),
        (np.eye(2), np.ones(2), np.nan),
        (np.zeros((0, 2)), np.zeros(0), 1.0),
    ], ids=["non-conforming", "z-matrix", "lam-zero", "lam-negative", "nan-diagonal",
            "nan-off-diagonal", "inf-off-diagonal", "neg-inf-off-diagonal", "z-nan", "z-inf",
            "lam-nan", "empty"])
    def test_dense_solvers_reject_malformed_systems(self, solver, points, z, lam):
        # no point makes no gram: MeteredGram refuses it
        with np.errstate(all="ignore"), pytest.raises(ContractViolationError):
            DENSE_SOLVERS[solver](MeteredGram(points), z, lam)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    @pytest.mark.parametrize("z, lam", [
        (np.ones(3), 0.0), (np.ones(3), -1.0), (np.ones(3), np.nan), (np.ones(4), 1.0),
        (np.array([1.0, np.nan, 1.0]), 1.0), (np.array([1.0, 1.0, -np.inf]), 1.0),
    ], ids=["lam-zero", "lam-negative", "lam-nan", "z-length", "z-nan", "z-inf"])
    def test_refusals_read_nothing(self, solver, z, lam):
        # as do refused c0 and c1 (TestIndicatorSolve.test_rejects_bad_constants)
        gram = MeteredGram(np.eye(3))
        with pytest.raises(ContractViolationError):
            DENSE_SOLVERS[solver](gram, z, lam)
        assert gram.ledger_report().total_requests == 0

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_gram_that_is_not_finite_is_refused(self, solver, value):
        # 1e200 squared is past the largest double: its diagonal entry is inf
        points = np.ones((20, 2))
        points[7, 1] = value
        with np.errstate(all="ignore"), pytest.raises(ContractViolationError, match="finite"):
            DENSE_SOLVERS[solver](MeteredGram(points), np.ones(20), 1.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan],
                             ids=["lam-zero", "lam-negative", "lam-nan"])
    def test_d_eff_rejects_bad_lam(self, lam):
        with pytest.raises(ContractViolationError):
            d_eff([1.0], lam)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_dense_solvers_reject_indefinite_systems(self, monkeypatch, solver):
        # a view whose columns hold 2 beside a unit diagonal is no Gram
        # (|K_ij| > sqrt(K_ii K_jj)): the first pivot column drives every
        # other residual diagonal to -3, and the loop finds no factor
        n = 40
        gram = MeteredGram(_clusters(n, 2))
        indefinite = _View(np.full((n, n), 2.0), np.ones(n))
        monkeypatch.setattr(gram, "reveal", lambda: indefinite)
        with pytest.raises(NumericalDegeneracyError, match="not positive semidefinite"):
            DENSE_SOLVERS[solver](gram, np.ones(n), 0.5)
        assert indefinite.asked == [0]


def _layout_case():
    rng = stream(5, "layout")
    A = rng.integers(-3, 4, size=(40, 7))
    z = rng.standard_normal(40)
    return A, z


class TestDenseSolverInputs:
    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_inputs_are_not_written(self, solver):
        # a gram keeps float points as given: they are the caller's own array
        A, z = _layout_case()
        A = A.astype(np.float64)
        for M in (A, np.asfortranarray(A)):
            before = (M.tobytes(order="A"), z.tobytes())
            DENSE_SOLVERS[solver](MeteredGram(M), z, 0.7)
            assert (M.tobytes(order="A"), z.tobytes()) == before

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_layout_and_dtype_do_not_change_alpha(self, solver):
        A, z = _layout_case()
        ref = DENSE_SOLVERS[solver](MeteredGram(A.astype(np.float64)), z, 0.7)
        big = np.zeros((2 * A.shape[0], 2 * A.shape[1]))
        big[::2, ::2] = A
        for M in (A, np.asfortranarray(A.astype(np.float64)), big[::2, ::2]):
            for b in (z, np.repeat(z, 2)[::2], z.tolist()):
                np.testing.assert_array_equal(DENSE_SOLVERS[solver](MeteredGram(M), b, 0.7),
                                              ref)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_one_working_copy(self, solver):
        # the whole solve, its reveal included: rank 20 at n = 1000 is
        # factored in 20 rows, whatever the layout of the points
        n = 1000
        A = _points(n, 20, stream(6, "copy"), 1 / np.sqrt(n))
        z = np.ones(n)
        for M in (A, np.asfortranarray(A)):
            _, peak = traced_peak(DENSE_SOLVERS[solver], MeteredGram(M), z, 0.5)
            assert peak <= 1.1 * n * n * 8


def _clusters(n: int, r: int) -> np.ndarray:
    """n points on r basis vectors in contiguous runs, whose 0/1 gram has
    rank r, is factored exactly, and pivots on the first point of each run."""
    return np.eye(r)[np.arange(n) * r // n]


class TestPivotedRoute:
    """solve_exact against _reference, at ranks from a few up to n."""

    @pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
    def test_hard_instance_takes_the_route(self, augmented):
        # rank 6 at n = 400, and 75 at n = 1000 (8 and 85 augmented)
        for n, J, eps, seed in ((400, 8, 0.25, 3), (1000, 100, 0.1, 0)):
            inst = gen_krr(n, J, eps, seed=seed, augmented=augmented)
            alpha = solve_exact(inst.gram, inst.z, inst.lam)
            assert np.abs(alpha - _reference(inst.points, inst.z, inst.lam)).max() <= 1e-12

    def test_indicator_kernel_takes_the_route(self):
        inst = gen_krr(400, 8, 0.25, seed=4)
        c0, c1 = 0.25, 1.0
        K = MeteredGram(_indicator_points(inst.points, c0, c1))
        ref = _reference(inst.points, inst.z, inst.lam, c0, c1)
        for args in ((inst.gram, inst.z, inst.lam, c0, c1), (K, inst.z, inst.lam)):
            assert np.abs(solve_exact(*args) - ref).max() <= 1e-12

    def test_random_low_rank_takes_the_route(self):
        rng = stream(13, "pivot")
        P = _points(640, 12, rng, 1 / np.sqrt(12))
        z = rng.standard_normal(640)
        alpha = solve_exact(MeteredGram(P), z, 1.0)
        ref = _reference(P, z, 1.0)
        assert np.abs(alpha - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n, rank, lam", [(640, 12, 0.1), (1000, 20, 0.5)])
    def test_fit_floored_at_round_off_takes_the_route(self, n, rank, lam):
        # the factor's round-off exceeds 1e-13 * lam here: it fits only to
        # the 8 eps trace(K) floor
        rng = stream(13, "pivot")
        P = _points(n, rank, rng, 1 / np.sqrt(rank))
        z = rng.standard_normal(n)
        alpha = solve_exact(MeteredGram(P), z, lam)
        ref = _reference(P, z, lam)
        assert np.abs(alpha - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("rank", [10, 11])
    def test_pivots_to_the_rank(self, monkeypatch, rank):
        # one column per pivot, the first point of each run
        n = 160
        P = _clusters(n, rank)
        gram = MeteredGram(P)
        logged = _View(P @ P.T, np.ones(n))
        monkeypatch.setattr(gram, "reveal", lambda: logged)
        z = stream(14, "cap").standard_normal(n)
        alpha = solve_exact(gram, z, 0.5)
        assert logged.asked == [int(np.argmax(P[:, c])) for c in range(rank)]
        assert np.abs(alpha - _reference(P, z, 0.5)).max() <= 1e-12

    def test_overflowing_tolerance_falls_back(self):
        # 1e-13 * lam / (c1 - c0) overflows, and the tolerance falls back to
        # the 8 eps trace(G) floor; an empty factor fitted to that inf would
        # drop the n * s = 8.5e-14 that (c1 - c0) G adds to lam. G's entries
        # g = 1.7e308 / n leave its trace finite
        n, c1 = 64, 5e-322
        gram = MeteredGram(np.full((n, 1), np.sqrt(1.7e308 / n)))
        g = gram.full()[0, 0]
        alpha = solve_exact(gram, np.ones(n), 1.0, 0.0, c1)
        np.testing.assert_allclose(alpha, 1.0 / (1.0 + n * (c1 * g)), rtol=1e-14)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_full_rank_matches_the_reference(self, solver):
        # n pivots, the factor as large as K: about 1 s at n = 1200
        n = 1200
        rng = stream(15, "full")
        P = _points(n, n, rng, 1 / np.sqrt(n))
        z = rng.standard_normal(n)
        c0 = 0.1 if solver == "indicator" else 0.0
        alpha = DENSE_SOLVERS[solver](MeteredGram(P), z, 0.5)
        assert np.abs(alpha - _reference(P, z, 0.5, c0)).max() <= 1e-12

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_low_rank_solve_holds_no_n_by_n_copy(self, solver):
        # no n x n array: the diagonal, the factor's 30 rows (one more, and
        # a copy, for the offset row) and one column at a time, 0.02-0.03
        # of n^2 floats
        inst = gen_krr(2000, 40, 0.1, seed=5)
        n = inst.n_total
        _, peak = traced_peak(DENSE_SOLVERS[solver], inst.gram, inst.z, inst.lam)
        assert peak <= 0.05 * n * n * 8


def _preallocated_pivot(K, tol: float):
    """The pivot loop as it ran on a revealed K into a preallocated n x n
    buffer: the reference the grown factor must equal bit for bit."""
    if not tol < np.inf:
        return None
    n = K.shape[0]
    d = K.diagonal().copy()
    Ft = np.empty((n, n))
    r = 0
    while True:
        if d.min() < -tol:
            return None
        if d.sum() <= tol:
            return Ft[:r]
        if r == n:
            return None
        p = int(np.argmax(d))
        row = np.subtract(K[p], Ft[:r, p] @ Ft[:r], out=Ft[r])
        row /= np.sqrt(d[p])
        d -= row * row
        r += 1


class TestPivotLoop:
    """krr._pivot(diag, column, tol) over a column source."""

    @staticmethod
    def _source(rank: int, n: int = 100):
        """A rank-r Gaussian gram, its read-only diagonal, the 8 eps trace
        tolerance, and a column source that logs each column it is asked.
        P @ P.T is numpy's syrk, so K is symmetric to the bit and its
        columns are its rows."""
        P = _points(n, rank, stream(rank, "grow"))
        K = P @ P.T
        assert np.array_equal(K, K.T)
        diag = K.diagonal().copy()
        diag.flags.writeable = False
        asked = []

        def column(p):
            asked.append(p)
            return K[:, p].copy()

        return K, diag, 8 * np.finfo(np.float64).eps * diag.sum(), column, asked

    @pytest.mark.parametrize("rank", [1, 2, 3, 31, 32, 33, 64, 65])
    def test_grown_factor_is_the_preallocated_loop(self, rank):
        # the ranks cross each doubling edge of the factor's rows
        K, diag, tol, column, asked = self._source(rank)
        Ft = krr._pivot(diag, column, tol)
        assert Ft.shape == (rank, K.shape[0]) and Ft.base is None
        assert len(asked) == len(set(asked)) == rank
        ref = _preallocated_pivot(K, tol)
        assert Ft.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 32, 33, 65])
    def test_gives_up_at_the_cap(self, n):
        # the cap is n pivots. Halved columns of I leave 3/4 of each
        # residual diagonal: each is pivoted once and the trace stays 3n/4.
        # The whole columns factor I in exactly n pivots
        asked = []

        def halved(p):
            asked.append(p)
            return 0.5 * np.eye(n)[p]

        assert krr._pivot(np.ones(n), halved, 1e-3) is None
        assert sorted(asked) == list(range(n))
        Ft = krr._pivot(np.ones(n), lambda p: np.eye(n)[p], 1e-3)
        assert Ft.shape == (n, n) and np.array_equal(np.abs(Ft), np.eye(n))

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_gives_up_on_a_tolerance_that_is_not_finite(self, tol):
        _, diag, _, column, asked = self._source(3)
        assert krr._pivot(diag, column, tol) is None
        assert asked == []


class _View:
    """The pivoted route's reads of a view, as gram.reveal() returns one,
    over a given K and diagonal: each returns a new array, and the columns
    asked are logged."""

    def __init__(self, K, diag):
        self.K, self.diag, self.asked = K, diag, []

    def diagonal(self):
        return self.diag.copy()

    def column(self, p):
        self.asked.append(p)
        return self.K[:, p].copy()


class TestFusedEntryCheck:
    """The one check on a gram's entries is fused into the pivot loop's
    read of the diagonal: a trace that is not finite is refused. The pivoted
    route reads the view's diagonal and its pivot columns, and no other
    entry."""

    @pytest.mark.parametrize("case", ["plain", "augmented", "indicator-G", "indicator-K"])
    def test_route_skips_the_entry_check(self, monkeypatch, case):
        inst = gen_krr(400, 8, 0.25, seed=6, augmented=case == "augmented")
        c0, c1 = 0.25, 1.0
        gram, args = inst.gram, (inst.z, inst.lam)
        if case == "indicator-G":
            args += (c0, c1)
        elif case == "indicator-K":
            gram = MeteredGram(_indicator_points(inst.points, c0, c1))
        real, n = gram.reveal(), gram.n
        K = np.stack([real.column(p) for p in range(n)], axis=1)
        logged = _View(K, real.diagonal())
        monkeypatch.setattr(gram, "reveal", lambda: logged)
        alpha = solve_exact(gram, *args)
        cols = logged.asked
        assert all(isinstance(p, int) for p in cols)
        assert 0 < len(cols) == len(set(cols)) == np.linalg.matrix_rank(K)
        # every other column a NaN: the same alpha, to the bit
        poisoned = np.full((n, n), np.nan)
        poisoned[:, cols] = K[:, cols]
        monkeypatch.setattr(gram, "reveal", lambda: _View(poisoned, real.diagonal()))
        assert solve_exact(gram, *args).tobytes() == alpha.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(16, 300), data=st.data(),
           plant=st.sampled_from([np.nan, np.inf, -np.inf, 1e200, 1e100, 1e-200, 3.0]),
           lam=st.sampled_from([0.5, 1e4, 1e6]),
           solver=st.sampled_from(sorted(DENSE_SOLVERS)))
    def test_solvers_reject_exactly_what_the_entry_check_rejects(self, n, data, plant, lam,
                                                                  solver):
        # the entry check is the gram's: every point finite, and the sum of
        # their squared norms too
        rank = data.draw(st.integers(1, n // 16), label="rank")
        i = data.draw(st.integers(0, n - 1), label="point")
        P = _clusters(n, rank)
        P[i, data.draw(st.integers(0, rank - 1), label="coordinate")] = plant
        with np.errstate(all="ignore"):
            finite = bool(np.isfinite(P).all() and np.isfinite(np.square(P).sum()))
            try:
                DENSE_SOLVERS[solver](MeteredGram(P), np.ones(n), lam)
                refused = None
            except ContractViolationError as e:
                refused = str(e)
        assert refused == (None if finite else "the gram must be finite")


class TestEffectiveDimension:
    def test_equal_eigenvalues(self):
        assert d_eff([2.0, 2.0, 2.0], 2.0) == pytest.approx(1.5, abs=1e-15)

    def test_two_eigenvalues_vs_dense_inverse(self):
        K = np.diag([3.0, 1.0])
        assert d_eff([3.0, 1.0], 1.0) == pytest.approx(1.25, abs=1e-15)
        ref = np.trace(K @ np.linalg.inv(K + np.eye(2)))
        assert d_eff_from_gram(K, 1.0) == pytest.approx(ref, abs=1e-12)

    def test_exact_count_instance_value(self):
        # counts n/J on the first J/2 indices and 2n/J on the next J/4 give
        # (k/2) (1/(1+eps) + 1/(1+2 eps)); at k=10, eps=0.1 that is 8.712...
        n, J, eps = 10_000, 100, 0.1
        k = eps * J
        counts = np.concatenate([np.full(J // 2, n / J), np.full(J // 4, 2 * n / J)])
        val = d_eff(counts, n / k)
        expect = (k / 2) * (1 / (1 + eps) + 1 / (1 + 2 * eps))
        assert val == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(8.71212121, abs=1e-6)

    def test_gram_route_matches_count_route(self):
        inst = gen_krr(300, 20, 0.2, seed=3)
        K = inst.points @ inst.points.T
        assert d_eff_from_gram(K, inst.lam) == pytest.approx(
            d_eff(inst.counts, inst.lam), abs=1e-9)

    def test_bounds_and_monotonicity(self):
        rng = stream(4, "deff")
        K = random_psd(12, 7, rng)
        lams = [0.1, 0.5, 1.0, 5.0, 25.0]
        vals = [d_eff_from_gram(K, lam) for lam in lams]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert 0.0 <= vals[-1] <= vals[0] <= 7 + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractViolationError):
            d_eff([1.0], 0.0)
        with pytest.raises(ContractViolationError):
            d_eff([-1.0], 1.0)


class TestHardInstanceOptimum:
    def test_formula_from_counts(self):
        inst = gen_krr(1000, 100, 0.1, seed=0)
        alpha = hard_instance_optimum(inst)
        ten = inst.counts[inst.basis_index] == 10
        assert ten.any()
        assert np.allclose(alpha[ten], 1.0 / 110.0, atol=1e-15)
        twenty = inst.counts[inst.basis_index] == 20
        assert twenty.any()
        scaled = (inst.n / inst.k) * alpha
        assert np.allclose(scaled[twenty], 1.0 / 1.2, atol=1e-12)

    def test_matches_exact_solver(self):
        inst = gen_krr(200, 20, 0.2, seed=1)
        alpha = solve_exact(inst.gram, inst.z, inst.lam)
        assert np.abs(alpha - hard_instance_optimum(inst)).max() <= 1e-9

    def test_closed_form_consistency_many_seeds(self):
        for seed in range(20):
            inst = gen_krr(160, 16, 0.25, seed=seed)
            alpha = solve_exact(inst.gram, inst.z, inst.lam)
            assert np.abs(alpha - hard_instance_optimum(inst)).max() <= 1e-9

    def test_augmented_matches_exact_solver(self):
        inst = gen_krr(120, 12, 0.25, seed=2, augmented=True)
        alpha = solve_exact(inst.gram, inst.z, inst.lam)
        assert np.abs(alpha - hard_instance_optimum(inst)).max() <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(8, 300), J=st.sampled_from([4, 8, 40]),
           eps=st.sampled_from([0.1, 0.25, 0.5]), augmented=st.booleans(),
           seed=st.integers(0, 2**16), c1=st.floats(1e-3, 10.0),
           share=st.floats(0.0, 1.0, exclude_max=True))
    def test_two_valued_kernel_matches_dense_solve(self, n, J, eps, augmented, seed, c1, share):
        """The closed form for K = c0 11' + (c1 - c0) G against np.linalg.solve
        on the assembled K + lam I; at c0 = 0, c1 = 1 bit for bit the
        one-group formula 1 / (n_g + lam)."""
        inst = gen_krr(n, J, eps, seed, augmented=augmented)
        c0 = share * c1
        assume(c0 < c1)
        m = inst.n_total
        K = c0 * np.ones((m, m)) + (c1 - c0) * (inst.points @ inst.points.T)
        ref = np.linalg.solve(K + inst.lam * np.eye(m), inst.z)
        alpha = hard_instance_optimum(inst, c0, c1)
        assert np.abs(alpha - ref).max() <= 1e-12 * np.abs(ref).max()
        plain = hard_instance_optimum(inst)
        assert np.array_equal(plain[:n], 1.0 / (inst.counts[inst.basis_index] + inst.lam))
        scale = inst.n / inst.k
        assert np.array_equal(plain[n:], np.full(m - n, 1.0 / (scale * scale + inst.lam)))

    @settings(max_examples=200, deadline=None)
    @given(c0=st.floats(-2.0, 2.0) | st.sampled_from([0.0, np.nan, np.inf, -np.inf]),
           c1=st.floats(-2.0, 2.0) | st.sampled_from([0.0, np.nan, np.inf, -np.inf]))
    def test_refuses_what_solve_exact_refuses(self, c0, c1):
        inst = gen_krr(8, 4, 0.5, seed=0)
        refusals = []
        for solve in (lambda: hard_instance_optimum(inst, c0, c1),
                      lambda: solve_exact(inst.gram, inst.z, inst.lam, c0, c1)):
            try:
                solve()
                refusals.append(None)
            except ContractViolationError as e:
                refusals.append(str(e))
        assert refusals[0] == refusals[1]
        assert (refusals[0] is None) == (0 <= c0 < c1 < np.inf)

    def test_hard_instance_dimension_is_theta_k(self):
        inst = gen_krr(100_000, 100, 0.1, seed=3)
        val = d_eff(inst.counts, inst.lam)
        center = (inst.k / 2) * (1 / 1.1 + 1 / 1.2)
        assert center * 0.95 <= val <= center * 1.05


class TestClassifyRows:
    def test_midpoint_value(self):
        assert classification_midpoint(0.1) == pytest.approx(0.8712121, abs=1e-6)

    def test_above_midpoint_is_s1(self):
        # scaled value 0.90 > 0.871212 at eps = 0.1
        n, k = 1000, 10.0
        alpha = np.array([0.90 * k / n])
        assert classify_rows(alpha, n, k, 0.1)[0] == CLASS_S1

    def test_boundary_goes_s2(self):
        n, k, eps = 1000, 10.0, 0.1
        alpha = np.array([(1 / (1 + 2 * eps)) * k / n])
        assert classify_rows(alpha, n, k, eps)[0] == CLASS_S2

    def test_end_to_end_accuracy(self):
        inst = gen_krr(5000, 100, 0.1, seed=4)
        alpha = solve_exact(inst.gram, inst.z, inst.lam)
        labels = classify_rows(alpha, inst.n, inst.k, inst.eps)
        assert np.mean(labels == inst.classes) >= 0.9


class TestIndicatorSolve:
    def test_zero_offset_reduces_to_plain_solve(self):
        rng = stream(8, "ind0")
        gram = MeteredGram(_points(12, 6, rng))
        z = rng.standard_normal(12)
        fast = solve_exact(gram, z, 0.9, 0.0, 1.0)
        ref = solve_exact(gram, z, 0.9)
        assert np.abs(fast - ref).max() <= 1e-10

    def test_pure_scaling(self):
        inst = gen_krr(8, 4, 0.5, seed=9)
        fast = solve_exact(inst.gram, inst.z, 1.0, 0.0, 2.0)
        ref = solve_exact(MeteredGram(np.sqrt(2.0) * inst.points), inst.z, 1.0)
        assert np.abs(fast - ref).max() <= 1e-10

    @staticmethod
    def _relative_error(points, z, lam, c0, c1):
        """The largest difference between solve_exact on the gram of points
        and _reference, relative to the largest entry of the reference."""
        ref = _reference(points, z, lam, c0, c1)
        alpha = solve_exact(MeteredGram(points), z, lam, c0, c1)
        return np.abs(alpha - ref).max() / np.abs(ref).max()

    def test_offset_matches_direct_assembly(self):
        inst = gen_krr(3000, 40, 0.1, seed=10)
        assert self._relative_error(inst.points, inst.z, inst.lam, 0.3, 1.0) <= 1e-12

    def test_general_target_vector(self):
        rng = stream(11, "indz")
        P = _points(160, 8, rng)
        z = rng.standard_normal(160)
        assert self._relative_error(P, z, 2.0, 0.4, 1.7) <= 1e-12

    @pytest.mark.parametrize("c0, c1", [
        (1.0, 0.5), (0.5, 0.5), (-0.1, 1.0), (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf),
    ], ids=["c1-below-c0", "c1-equal-c0", "c0-negative", "c0-nan", "c1-nan", "c1-inf"])
    def test_rejects_bad_constants(self, c0, c1):
        gram = MeteredGram(np.eye(3))
        with pytest.raises(ContractViolationError, match="0 <= c0 < c1 < inf"):
            solve_exact(gram, np.ones(3), 1.0, c0, c1)
        assert gram.ledger_report().total_requests == 0

    def test_indicator_kernel_instance_end_to_end(self):
        # the two-valued kernel on the hidden basis indices, assembled,
        # against solve_exact at c0, c1 on the oracle's dot-product gram
        inst = gen_krr(60, 8, 0.25, seed=12)
        same = inst.basis_index[:, None] == inst.basis_index[None, :]
        K = np.where(same, 1.4, 0.2)
        fast = solve_exact(inst.gram, inst.z, inst.lam, 0.2, 1.4)
        ref = np.linalg.solve(K + inst.lam * np.eye(60), inst.z)
        assert np.abs(fast - ref).max() <= 1e-9
