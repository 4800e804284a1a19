"""Ridge regression: solvers, effective dimension, closed form, indicator path."""

import numpy as np
import pytest
from conftest import d_eff_from_gram, random_psd, traced_peak
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kernel_budget import krr
from kernel_budget.errors import (BudgetExhaustedError, ContractViolationError,
                                  NumericalDegeneracyError)
from kernel_budget.instances import CLASS_S1, CLASS_S2, gen_krr
from kernel_budget.krr import (_SYM_TILE, _check_entries, check_guarantee,
                               classification_midpoint, classify_rows, d_eff,
                               hard_instance_optimum, nystrom_solve, solve_exact)
from kernel_budget.oracle import MeteredGram
from kernel_budget.rng import stream


class TestSolveExact:
    def test_identity_kernel(self):
        alpha = solve_exact(np.eye(2), np.ones(2), 1.0)
        assert np.allclose(alpha, [0.5, 0.5], atol=1e-14)

    def test_pure_ridge(self):
        alpha = solve_exact(np.zeros((2, 2)), np.array([4.0, 6.0]), 2.0)
        assert np.allclose(alpha, [2.0, 3.0], atol=1e-14)

    def test_matches_independent_dense_solve(self):
        rng = stream(0, "psd")
        K = random_psd(6, 6, rng)
        z = rng.standard_normal(6)
        alpha = solve_exact(K, z, 0.7)
        ref = np.linalg.solve(K + 0.7 * np.eye(6), z)
        assert np.abs(alpha - ref).max() <= 1e-10

    def test_solution_solves_system(self):
        rng = stream(1, "psd2")
        K = random_psd(20, 5, rng)
        z = rng.standard_normal(20)
        alpha = solve_exact(K, z, 1.3)
        resid = (K + 1.3 * np.eye(20)) @ alpha - z
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(z)

    def test_rejects_asymmetric(self):
        K = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ContractViolationError):
            solve_exact(K, np.ones(2), 1.0)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ContractViolationError):
            solve_exact(np.eye(2), np.ones(2), 0.0)

    def test_scale_covariance(self):
        rng = stream(2, "scale")
        K = random_psd(8, 8, rng)
        z = rng.standard_normal(8)
        base = solve_exact(K, z, 0.5)
        for c in (0.2, 3.0, 17.0):
            scaled = solve_exact(c * K, c * z, c * 0.5)
            assert np.abs(scaled - base).max() <= 1e-9


DENSE_SOLVERS = {
    "exact": solve_exact,
    "indicator": lambda K, z, lam: solve_exact(K, z, lam, 0.1, 1.0),
}


class TestCheckSystem:
    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    @pytest.mark.parametrize("K, z, lam", [
        (np.ones((3, 2)), np.ones(3), 1.0),
        (np.eye(3), np.ones(4), 1.0),
        (np.eye(3), np.ones((3, 1)), 1.0),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2), 1.0),
        (np.eye(2), np.ones(2), 0.0),
        (np.eye(2), np.ones(2), -1.0),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2), 1.0),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2), 1.0),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), np.ones(2), 1.0),
        (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), np.ones(2), 1.0),
        (np.eye(2), np.array([1.0, np.nan]), 1.0),
        (np.eye(2), np.array([np.inf, 1.0]), 1.0),
        (np.eye(2), np.ones(2), np.nan),
        (np.zeros((0, 0)), np.zeros(0), 1.0),
    ], ids=["non-square", "non-conforming", "z-matrix", "asymmetric",
            "lam-zero", "lam-negative", "nan-diagonal", "nan-off-diagonal",
            "inf-off-diagonal", "neg-inf-off-diagonal", "z-nan", "z-inf",
            "lam-nan", "empty"])
    def test_dense_solvers_reject_malformed_systems(self, solver, K, z, lam):
        with pytest.raises(ContractViolationError):
            DENSE_SOLVERS[solver](K, z, lam)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan],
                             ids=["lam-zero", "lam-negative", "lam-nan"])
    def test_nystrom_rejects_bad_lam_before_reading(self, lam):
        gram = MeteredGram(np.eye(4))
        with pytest.raises(ContractViolationError):
            nystrom_solve(gram, [0, 1], np.ones(4), lam)
        assert gram.ledger_report().total_requests == 0

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan],
                             ids=["lam-zero", "lam-negative", "lam-nan"])
    def test_d_eff_rejects_bad_lam(self, lam):
        with pytest.raises(ContractViolationError):
            d_eff([1.0], lam)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_dense_solvers_reject_indefinite_systems(self, solver):
        # exact: -I + 0.5 I; indicator: 0.1 11' + 0.9 (-I) + 0.5 I, with
        # eigenvalues -0.2 and -0.4
        with pytest.raises(NumericalDegeneracyError, match="not positive definite"):
            DENSE_SOLVERS[solver](-np.eye(2), np.ones(2), 0.5)

    @staticmethod
    @st.composite
    def _planted_skew(draw):
        """A symmetric definite K (either sign) around the tile size with one
        entry moved by about the symmetry tolerance, in a diagonal tile, an
        off-diagonal tile or the ragged last tile."""
        T = _SYM_TILE
        n = draw(st.sampled_from([1, T - 1, T, T + 1, 2 * T + 3]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        S = rng.random((n, n))
        K = draw(st.sampled_from([1.0, -1.0])) * (S + S.T + 2 * n * np.eye(n))
        regions = ["diagonal"] + (["off-diagonal"] if n > T else [])
        regions += ["ragged"] if n % T else []
        region = draw(st.sampled_from(regions))
        last = (n - 1) // T * T
        if region == "diagonal":
            t = draw(st.integers(0, (n - 1) // T)) * T
            i, j = (draw(st.integers(t, min(t + T, n) - 1)) for _ in range(2))
        elif region == "off-diagonal":
            i = draw(st.integers(0, T - 1))
            j = draw(st.integers(T, n - 1))
        else:
            i = draw(st.integers(last, n - 1))
            j = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            i, j = j, i
        factor = draw(st.floats(0.0, 3.0))
        K[i, j] += factor * 1e-8 * (1.0 + np.abs(K).max())
        return K

    @settings(max_examples=60, deadline=None)
    @given(K=_planted_skew())
    def test_tiled_check_matches_dense_reference(self, K):
        skew = np.abs(K - K.T).max()
        if skew <= 1e-8 * (1.0 + np.abs(K).max()):
            _check_entries(K)
        else:
            with pytest.raises(ContractViolationError) as err:
                _check_entries(K)
            assert f"(max skew {skew:.3g})" in str(err.value)


def _layout_case():
    rng = stream(5, "layout")
    A = rng.integers(-3, 4, size=(40, 7))
    K = A @ A.T
    z = rng.standard_normal(40)
    return K, z


class TestDenseSolverInputs:
    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_inputs_are_not_written(self, solver):
        K, z = _layout_case()
        K = K.astype(np.float64)  # float input is the caller's own array, not a converted copy
        for M in (K, np.asfortranarray(K)):
            before = (M.tobytes(order="A"), z.tobytes())
            DENSE_SOLVERS[solver](M, z, 0.7)
            assert (M.tobytes(order="A"), z.tobytes()) == before

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_layout_and_dtype_do_not_change_alpha(self, solver):
        K, z = _layout_case()
        ref = DENSE_SOLVERS[solver](K.astype(np.float64), z, 0.7)
        big = np.zeros((2 * K.shape[0], 2 * K.shape[1]))
        big[::2, ::2] = K
        for M in (K, np.asfortranarray(K.astype(np.float64)), big[::2, ::2]):
            np.testing.assert_array_equal(DENSE_SOLVERS[solver](M, z, 0.7), ref)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_one_working_copy(self, solver):
        n = 1000
        K = random_psd(n, 20, stream(6, "copy")) / n
        z = np.ones(n)
        for M in (K, np.asfortranarray(K)):
            _, peak = traced_peak(DENSE_SOLVERS[solver], M, z, 0.5)
            assert peak <= 1.1 * K.nbytes


def _clusters(n: int, r: int) -> np.ndarray:
    """The 0/1 gram of n points on r basis vectors in contiguous runs: rank r,
    factored exactly, and each pivot is the first point of its run."""
    labels = np.arange(n) * r // n
    return (labels[:, None] == labels[None, :]).astype(np.float64)


@pytest.fixture
def factor_calls(monkeypatch):
    """The sizes of the dense Cholesky factorizations made while it is in use."""
    calls, real = [], krr._factor

    def spy(A, lam, b):
        calls.append(A.shape[0])
        return real(A, lam, b)

    monkeypatch.setattr(krr, "_factor", spy)
    return calls


def _outcome(solve, *args):
    """solve(*args), or the message of the NumericalDegeneracyError it raised."""
    try:
        return solve(*args)
    except NumericalDegeneracyError as e:
        return str(e)


def _dense_outcome(monkeypatch, solve, *args):
    """_outcome with the pivoted route switched off."""
    with monkeypatch.context() as m:
        m.setattr(krr, "_pivoted_factor", lambda K, tol: None)
        return _outcome(solve, *args)


def _assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


class TestPivotedRoute:
    @pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
    def test_hard_instance_takes_the_route(self, monkeypatch, factor_calls, augmented):
        inst = gen_krr(400, 8, 0.25, seed=3, augmented=augmented)
        K = inst.gram.full()
        alpha = solve_exact(K, inst.z, inst.lam)
        assert factor_calls == []
        dense = _dense_outcome(monkeypatch, solve_exact, K, inst.z, inst.lam)
        assert factor_calls == [inst.n_total]
        assert np.abs(alpha - dense).max() <= 1e-12

    def test_indicator_kernel_takes_the_route(self, monkeypatch, factor_calls):
        inst = gen_krr(400, 8, 0.25, seed=4)
        G = inst.gram.full()
        c0, c1 = 0.25, 1.0
        K = c0 + (c1 - c0) * G
        for solve, args in ((solve_exact, (G, inst.z, inst.lam, c0, c1)),
                            (solve_exact, (K, inst.z, inst.lam))):
            alpha = solve(*args)
            assert factor_calls == []
            dense = _dense_outcome(monkeypatch, solve, *args)
            assert np.abs(alpha - dense).max() <= 1e-12
            factor_calls.clear()

    def test_random_low_rank_takes_the_route(self, monkeypatch, factor_calls):
        rng = stream(13, "pivot")
        K = random_psd(640, 12, rng) / 12
        z = rng.standard_normal(640)
        alpha = solve_exact(K, z, 1.0)
        assert factor_calls == []
        dense = _dense_outcome(monkeypatch, solve_exact, K, z, 1.0)
        assert np.abs(alpha - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("n, rank, lam", [(640, 12, 0.1), (1000, 20, 0.5)])
    def test_fit_floored_at_round_off_takes_the_route(self, monkeypatch, factor_calls, n,
                                                      rank, lam):
        # the factor's round-off exceeds 1e-13 * lam here: it fits only to
        # the 8 eps sum|K_ii| floor
        rng = stream(13, "pivot")
        K = random_psd(n, rank, rng) / rank
        z = rng.standard_normal(n)
        alpha = solve_exact(K, z, lam)
        assert factor_calls == []
        dense = _dense_outcome(monkeypatch, solve_exact, K, z, lam)
        assert np.abs(alpha - dense).max() <= 1e-10 * np.abs(dense).max()

    @pytest.mark.parametrize("rank, taken", [(10, True), (11, False)])
    def test_at_most_n_over_16_pivots(self, factor_calls, rank, taken):
        n = 160
        K = _clusters(n, rank)
        z = stream(14, "cap").standard_normal(n)
        alpha = solve_exact(K, z, 0.5)
        assert factor_calls == ([] if taken else [n])
        ref = np.linalg.solve(K + 0.5 * np.eye(n), z)
        assert np.abs(alpha - ref).max() <= 1e-12

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    @pytest.mark.parametrize("eta", [0.5, 3.0], ids=["definite", "indefinite"])
    def test_unverified_factor_falls_back(self, monkeypatch, factor_calls, solver, eta):
        # rank 3 plus eta at (1, n - 1), two points that never pivot: the
        # residual diagonal is 0 after three pivots, the residual at (1, n - 1)
        # is eta, and K + I is indefinite once eta > 2
        n = 64
        K = _clusters(n, 3)
        K[1, -1] = K[-1, 1] = eta
        z = np.ones(n)
        got = _outcome(DENSE_SOLVERS[solver], K, z, 1.0)
        assert factor_calls == [n]
        _assert_same(got, _dense_outcome(monkeypatch, DENSE_SOLVERS[solver], K, z, 1.0))
        assert isinstance(got, str) == (eta > 2)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_negative_diagonal_gives_up_before_verifying(self, monkeypatch, factor_calls,
                                                         solver):
        n = 64
        K = _clusters(n, 3)
        K[0, 0] = -1.0
        z = np.ones(n)
        monkeypatch.setattr(krr, "_fits", lambda *a: pytest.fail("verified a non-PSD factor"))
        got = _outcome(DENSE_SOLVERS[solver], K, z, 1.0)
        assert factor_calls == [n]
        _assert_same(got, _dense_outcome(monkeypatch, DENSE_SOLVERS[solver], K, z, 1.0))

    def test_overflowing_tolerance_falls_back(self, factor_calls):
        # 1e-13 * lam / (c1 - c0) overflows; an empty factor fitted to that
        # inf would drop the n * s = 6.3e-13 that (c1 - c0) G adds to lam
        n, c1 = 64, 1e-322
        G = np.full((n, n), 1e308)
        alpha = solve_exact(G, np.ones(n), 1.0, 0.0, c1)
        assert factor_calls == [n]
        np.testing.assert_allclose(alpha, 1.0 / (1.0 + n * (c1 * 1e308)), rtol=1e-14)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_full_rank_falls_back_holding_one_working_copy(self, monkeypatch, factor_calls,
                                                           solver):
        n = 512
        rng = stream(15, "full")
        K = random_psd(n, n, rng) / n
        z = rng.standard_normal(n)
        got, peak = traced_peak(DENSE_SOLVERS[solver], K, z, 0.5)
        assert factor_calls == [n]
        assert peak <= 1.1 * K.nbytes
        _assert_same(got, _dense_outcome(monkeypatch, DENSE_SOLVERS[solver], K, z, 0.5))

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_low_rank_solve_holds_no_n_by_n_copy(self, factor_calls, solver):
        inst = gen_krr(2000, 40, 0.1, seed=5)
        K = inst.gram.full()
        _, peak = traced_peak(DENSE_SOLVERS[solver], K, inst.z, inst.lam)
        assert factor_calls == []
        assert peak <= 0.25 * K.nbytes


@pytest.fixture
def entry_checks(monkeypatch):
    """The sizes of the matrices given the full entry check while it is in use."""
    calls, real = [], krr._check_entries

    def spy(K):
        calls.append(K.shape[0])
        return real(K)

    monkeypatch.setattr(krr, "_check_entries", spy)
    return calls


def _planted(n, rank, plant, where, factor):
    """_clusters(n, rank) with entry `where` planted: a NaN, +-inf, or moved
    by factor times the symmetry tolerance 1e-8 * (1 + max|K|) ("skew"; for
    "pair" the transposed entry also moves the other way, by the same). An
    inf goes to a pair of two points that never pivot (a point that is the
    first of its run, and so pivots, is replaced by the next), so only the
    fit can see it."""
    K = _clusters(n, rank)
    i, j = where
    if plant.endswith("inf"):
        pivots = set(np.arange(rank) * n // rank + (np.arange(rank) * n % rank > 0))
        i, j = (x + 1 if x in pivots else x for x in (i, j))
    if plant == "pair":
        K[j, i] -= factor * 2e-8
    K[i, j] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}.get(
        plant, K[i, j] + factor * 2e-8)
    return K


def _rejection(check, *args):
    """The message of the ContractViolationError check(*args) raised, or None."""
    try:
        check(*args)
    except ContractViolationError as e:
        return str(e)
    return None


class TestFusedEntryCheck:
    """A pivoted factor that fits K vouches for its entries: the full finite
    and symmetric pass runs only on the fallback or at a lam so large that
    the fit no longer bounds the skew, and every matrix that pass rejects
    is still rejected the same way."""

    @pytest.mark.parametrize("case", ["plain", "augmented", "indicator-G", "indicator-K"])
    def test_route_skips_the_entry_check(self, monkeypatch, factor_calls, entry_checks,
                                         case):
        inst = gen_krr(400, 8, 0.25, seed=6, augmented=case == "augmented")
        K = inst.gram.full()
        c0, c1 = 0.25, 1.0
        if case == "indicator-G":
            solve, args = solve_exact, (K, inst.z, inst.lam, c0, c1)
        else:
            if case == "indicator-K":
                K = c0 + (c1 - c0) * K
            solve, args = solve_exact, (K, inst.z, inst.lam)
        alpha = solve(*args)
        assert (factor_calls, entry_checks) == ([], [])
        # K is exactly symmetric, so with no tolerance left the check runs and passes
        monkeypatch.setattr(krr, "_SYM_TOL", 0.0)
        forced = solve(*args)
        assert (factor_calls, entry_checks) == ([], [K.shape[0]])
        assert alpha.tobytes() == forced.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(64, 600), data=st.data(),
           plant=st.sampled_from(["nan", "inf", "-inf", "skew", "pair"]),
           lam=st.sampled_from([0.5, 1e4, 1.9e5, 1e6]),
           solver=st.sampled_from(sorted(DENSE_SOLVERS)))
    def test_solvers_reject_exactly_what_the_entry_check_rejects(self, n, data, plant, lam,
                                                                  solver):
        # the fit vouches for symmetry while 2 tol <= 1e-8 * (1 + 1), so up
        # to lam = 1e5 (1e5 * 0.9 for the indicator's G); at 1.9e5 and 1e6 a
        # planted skew up to tol fits, and only the full check rejects it
        rank = data.draw(st.integers(1, n // 16), label="rank")
        where = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          label="where")
        factor = data.draw(st.floats(0.0, 3.0), label="factor")
        K = _planted(n, rank, plant, where, factor)
        assert (_rejection(DENSE_SOLVERS[solver], K, np.ones(n), lam)
                == _rejection(_check_entries, K))

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    def test_skew_that_fits_is_still_rejected(self, solver):
        # K_ij and K_ji each moved by 0.6 * 2e-8 the other way: skew 1.2
        # times the tolerance, a fit residual of sqrt(2) * 1.2e-8 = 1.7e-8
        # within tol = 1e-13 * lam (over 0.9 for G) = 1.9e-8 or 2.1e-8
        K = _planted(64, 2, "pair", (3, 40), 0.6)
        lam = 1.9e5
        tol = 1e-13 * lam / (0.9 if solver == "indicator" else 1.0)
        assert krr._pivoted_factor(K, tol) is not None
        with pytest.raises(ContractViolationError, match="not symmetric"):
            DENSE_SOLVERS[solver](K, np.ones(64), lam)

    @pytest.mark.parametrize("solver", sorted(DENSE_SOLVERS))
    @pytest.mark.parametrize("where", [(99, 5), (5, 99), (98, 97)],
                             ids=["last-row", "last-column", "last-panel"])
    def test_fit_reads_the_ragged_last_panel(self, solver, where):
        # rows 96..99 make the last, 4-row, panel of the fit
        K = _planted(100, 3, "inf", where, 0.0)
        with pytest.raises(ContractViolationError, match="must be finite"):
            DENSE_SOLVERS[solver](K, np.ones(100), 0.5)


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


def nystrom_gap(K, landmarks):
    """K - C W^+ C', the Schur complement the landmarks leave, with W^+ over
    the landmark block's eigenvalues above round-off (the solver's cut)."""
    C = K[:, landmarks]
    w, V = np.linalg.eigh(K[np.ix_(landmarks, landmarks)])
    keep = w > max(1e-12, 1e-12 * np.abs(w).max())
    B = C @ (V[:, keep] / np.sqrt(w[keep]))
    return K - B @ B.T


def uniform_landmarks(n, m, seed):
    return np.sort(stream(seed, "nystrom").choice(n, size=m, replace=False))


def certified_landmarks(K, lam, eps, seed):
    """Grow m in steps of 4 until the dense certificate is at most lam * eps."""
    n = K.shape[0]
    for m in range(4, n + 1, 4):
        landmarks = uniform_landmarks(n, m, seed)
        if np.linalg.eigvalsh(nystrom_gap(K, landmarks)).max() <= lam * eps:
            return landmarks
    return None


def one_landmark_per_direction(inst):
    """The first point on each coordinate direction the instance uses."""
    return np.unique(inst.points.argmax(axis=1), return_index=True)[1]


class TestSpectralApprox:
    """nystrom_solve, the landmark approximation K_tilde = C W^+ C'."""

    def test_exact_approximation_recovers_optimum(self):
        # every point a landmark: K_tilde = K
        rng = stream(5, "spec")
        pts = rng.standard_normal((10, 10))
        z = rng.standard_normal(10)
        opt = solve_exact(pts @ pts.T, z, 1.0)
        hat = nystrom_solve(MeteredGram(pts), np.arange(10), z, 1.0)
        assert np.abs(hat - opt).max() <= 1e-12

    def test_nystrom_certificate_implies_guarantee(self):
        # guarantee chain: certified bound <= lam * eps forces eps-closeness
        lam, eps = 1.5, 0.4
        for seed in range(100):
            rng = stream(seed, "ny")
            pts = np.hstack([rng.standard_normal((64, 12)),
                             np.sqrt(0.05) * rng.standard_normal((64, 64))])
            K = pts @ pts.T
            z = rng.standard_normal(64)
            landmarks = certified_landmarks(K, lam, eps, seed)
            assert landmarks is not None
            hat = nystrom_solve(MeteredGram(pts), landmarks, z, lam)
            assert check_guarantee(hat, solve_exact(K, z, lam), eps)

    def test_certificate_below_full_rank(self):
        # at noise 0.05 above, every seed needs all 64 landmarks; at 0.001 the
        # certificate holds with a proper subset, so the chain is exercised
        lam, eps = 1.5, 0.4
        for seed in range(20):
            rng = stream(seed, "ny")
            pts = np.hstack([rng.standard_normal((64, 12)),
                             np.sqrt(0.001) * rng.standard_normal((64, 64))])
            K = pts @ pts.T
            z = rng.standard_normal(64)
            landmarks = certified_landmarks(K, lam, eps, seed)
            assert landmarks is not None and landmarks.size < 64
            hat = nystrom_solve(MeteredGram(pts), landmarks, z, lam)
            assert check_guarantee(hat, solve_exact(K, z, lam), eps)

    def test_nystrom_bound_is_real(self):
        rng = stream(7, "nyb")
        pts = rng.standard_normal((40, 40))
        K = pts @ pts.T
        z = rng.standard_normal(40)
        landmarks = uniform_landmarks(40, 10, seed=0)
        gap = nystrom_gap(K, landmarks)
        gap_eigs = np.linalg.eigvalsh(gap)
        assert gap_eigs.min() >= -1e-8  # K_tilde never exceeds K
        # the solve is against K_tilde, and its error is within bound / lam
        lam = 1.0
        hat = nystrom_solve(MeteredGram(pts), landmarks, z, lam)
        ref = np.linalg.solve(K - gap + lam * np.eye(40), z)
        assert np.abs(hat - ref).max() <= 1e-10 * np.abs(ref).max()
        assert check_guarantee(hat, solve_exact(K, z, lam), gap_eigs.max() / lam)

    def test_zero_kernel_gives_pure_ridge(self):
        # no landmark eigenvalue survives the cut, so K_tilde = 0
        z = np.array([4.0, 6.0, -2.0, 1.0])
        alpha = nystrom_solve(MeteredGram(np.zeros((4, 2))), [0, 2], z, 2.0)
        assert np.array_equal(alpha, z / 2.0)

    @pytest.mark.parametrize("n_landmarks", [1, 7, 50])
    def test_reads_only_the_landmark_columns(self, n_landmarks):
        pts = stream(8, "nycount").standard_normal((50, 6))
        gram = MeteredGram(pts)
        nystrom_solve(gram, uniform_landmarks(50, n_landmarks, seed=1), np.ones(50), 1.0)
        rep = gram.ledger_report()
        L = n_landmarks
        assert rep.distinct_entries == 50 * L - L * (L - 1) // 2
        assert rep.total_requests == 50 * L

    @pytest.mark.parametrize("augmented", [False, True])
    def test_hard_instance_exact(self, augmented):
        inst = gen_krr(5000, 100, 0.1, seed=0, augmented=augmented)
        landmarks = one_landmark_per_direction(inst)
        alpha = nystrom_solve(inst.gram, landmarks, inst.z, inst.lam)
        assert np.abs(alpha - hard_instance_optimum(inst)).max() <= 1e-12
        n, L = inst.n_total, landmarks.size
        assert L == np.count_nonzero(inst.counts) + (round(inst.k) if augmented else 0)
        assert inst.gram.ledger_report().distinct_entries == n * L - L * (L - 1) // 2

    def test_budget_below_column_read_moves_nothing(self):
        inst = gen_krr(400, 20, 0.25, seed=3)
        inst.gram.query(0, 0)
        before = inst.gram.ledger_report()
        landmarks = one_landmark_per_direction(inst)
        L = landmarks.size
        fresh = 400 * L - L * (L - 1) // 2 - int(0 in landmarks)
        inst.gram.set_budget(before.distinct_entries + fresh - 1)
        with pytest.raises(BudgetExhaustedError):
            nystrom_solve(inst.gram, landmarks, inst.z, inst.lam)
        after = inst.gram.ledger_report()
        assert after.distinct_entries == before.distinct_entries
        assert after.total_requests == before.total_requests
        assert np.array_equal(after.per_row, before.per_row)
        inst.gram.set_budget(before.distinct_entries + fresh)
        nystrom_solve(inst.gram, landmarks, inst.z, inst.lam)
        assert inst.gram.ledger_report().distinct_entries == before.distinct_entries + fresh

    @pytest.mark.parametrize("landmarks, z_len, lam", [
        ([], 6, 1.0), ([2, 2], 6, 1.0), ([[0, 1]], 6, 1.0),
        ([0, 1], 5, 1.0), ([0, 1], 6, 0.0), ([1.7, 3.2], 6, 1.0)])
    def test_rejects_bad_arguments_before_reading(self, landmarks, z_len, lam):
        gram = MeteredGram(np.eye(6))
        with pytest.raises(ContractViolationError):
            nystrom_solve(gram, landmarks, np.ones(z_len), lam)
        assert gram.ledger_report().total_requests == 0


class TestCheckGuarantee:
    def test_exact_match(self):
        a = np.array([1.0, 2.0])
        assert check_guarantee(a, a, 0.0)

    def test_violation(self):
        assert not check_guarantee(np.array([1.0, 0.1]), np.array([1.0, 0.0]), 0.05)

    def test_boundary_inclusive(self):
        opt = np.array([3.0, 4.0])
        eps = 0.25
        assert check_guarantee((1 + eps) * opt, opt, eps)


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
        K = inst.points @ inst.points.T
        alpha = solve_exact(K, inst.z, inst.lam)
        assert np.abs(alpha - hard_instance_optimum(inst)).max() <= 1e-9

    def test_closed_form_consistency_many_seeds(self):
        for seed in range(20):
            inst = gen_krr(160, 16, 0.25, seed=seed)
            K = inst.points @ inst.points.T
            alpha = solve_exact(K, inst.z, inst.lam)
            assert np.abs(alpha - hard_instance_optimum(inst)).max() <= 1e-9

    def test_augmented_matches_exact_solver(self):
        inst = gen_krr(120, 12, 0.25, seed=2, augmented=True)
        K = inst.points @ inst.points.T
        alpha = solve_exact(K, inst.z, inst.lam)
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
        G = inst.gram.full()
        refusals = []
        for solve in (lambda: hard_instance_optimum(inst, c0, c1),
                      lambda: solve_exact(G, inst.z, inst.lam, c0, c1)):
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
        K = inst.points @ inst.points.T
        alpha = solve_exact(K, inst.z, inst.lam)
        labels = classify_rows(alpha, inst.n, inst.k, inst.eps)
        assert np.mean(labels == inst.classes) >= 0.9


class TestIndicatorSolve:
    def test_zero_offset_reduces_to_plain_solve(self):
        rng = stream(8, "ind0")
        G = random_psd(12, 6, rng)
        z = rng.standard_normal(12)
        fast = solve_exact(G, z, 0.9, 0.0, 1.0)
        ref = solve_exact(G, z, 0.9)
        assert np.abs(fast - ref).max() <= 1e-10

    def test_pure_scaling(self):
        inst = gen_krr(8, 4, 0.5, seed=9)
        G = inst.points @ inst.points.T
        fast = solve_exact(G, inst.z, 1.0, 0.0, 2.0)
        ref = solve_exact(2.0 * G, inst.z, 1.0)
        assert np.abs(fast - ref).max() <= 1e-10

    @staticmethod
    def _both_routes(monkeypatch, factor_calls, G, z, lam, c0, c1):
        """The largest difference, relative to the largest entry of the
        reference, between np.linalg.solve on the assembled c0 11' +
        (c1 - c0) G + lam I and solve_exact, on the pivoted route and
        then with it switched off."""
        n = G.shape[0]
        ref = np.linalg.solve(c0 * np.ones((n, n)) + (c1 - c0) * G + lam * np.eye(n), z)
        pivoted = solve_exact(G, z, lam, c0, c1)
        assert factor_calls == []
        with monkeypatch.context() as m:
            m.setattr(krr, "_pivoted_factor", lambda K, tol: None)
            dense = solve_exact(G, z, lam, c0, c1)
        assert factor_calls == [n]
        return [np.abs(got - ref).max() / np.abs(ref).max() for got in (pivoted, dense)]

    def test_offset_matches_direct_assembly(self, monkeypatch, factor_calls):
        inst = gen_krr(3000, 40, 0.1, seed=10)
        errs = self._both_routes(monkeypatch, factor_calls, inst.gram.full(), inst.z,
                                 inst.lam, 0.3, 1.0)
        assert max(errs) <= 1e-12

    def test_general_target_vector(self, monkeypatch, factor_calls):
        # rank 8 at n = 160 is within the n / 16 = 10 pivots
        rng = stream(11, "indz")
        G = random_psd(160, 8, rng)
        z = rng.standard_normal(160)
        errs = self._both_routes(monkeypatch, factor_calls, G, z, 2.0, 0.4, 1.7)
        assert max(errs) <= 1e-12

    @pytest.mark.parametrize("c0, c1", [
        (1.0, 0.5), (0.5, 0.5), (-0.1, 1.0), (np.nan, 1.0), (0.0, np.nan), (0.0, np.inf),
    ], ids=["c1-below-c0", "c1-equal-c0", "c0-negative", "c0-nan", "c1-nan", "c1-inf"])
    def test_rejects_bad_constants(self, c0, c1):
        with pytest.raises(ContractViolationError, match="0 <= c0 < c1 < inf"):
            solve_exact(np.eye(3), np.ones(3), 1.0, c0, c1)

    def test_indicator_kernel_instance_end_to_end(self):
        # the two-valued kernel on the hidden basis indices against
        # solve_exact at c0, c1 on the oracle's dot-product gram
        inst = gen_krr(60, 8, 0.25, seed=12)
        same = inst.basis_index[:, None] == inst.basis_index[None, :]
        K = np.where(same, 1.4, 0.2)
        fast = solve_exact(inst.gram.full(), inst.z, inst.lam, 0.2, 1.4)
        ref = solve_exact(K, inst.z, inst.lam)
        assert np.abs(fast - ref).max() <= 1e-9
