"""Oracle semantics: kernel evaluation, metering, ledger storage, budgets."""

import json
import sys
import threading

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_budget.errors import BudgetExhaustedError, ContractViolationError
from kernel_budget.instances import _on_grid, gen_kkmc, gen_krr, gen_mog, gen_rank
from kernel_budget import oracle
from kernel_budget.oracle import MeteredGram, QueryLedger
from kernel_budget.rng import stream


def basis(j, d):
    e = np.zeros(d)
    e[j] = 1.0
    return e


class TestKernelEval:
    def test_linear_unit_basis_self_product(self):
        assert MeteredGram(np.eye(4)).query(0, 0) == 1.0

    def test_linear_two_hot_overlap(self):
        x = (basis(0, 4) + basis(1, 4)) / np.sqrt(2)
        y = (basis(1, 4) + basis(2, 4)) / np.sqrt(2)
        assert MeteredGram(np.stack([x, y])).query(0, 1) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("points", [np.zeros((5, 0)), np.zeros((0, 3)), np.ones(5)],
                             ids=["no-coordinates", "no-points", "one-dimensional"])
    def test_points_must_be_a_nonempty_matrix(self, points):
        # with d = 0 a read would charge the ledger, then divide by d
        with pytest.raises(ContractViolationError, match="nonempty"):
            MeteredGram(points)

    def test_shape_is_the_matrix_shape(self):
        # perfbench's tracer sizes each solve by np.shape of its gram
        gram = MeteredGram(np.ones((7, 3)))
        assert gram.shape == (7, 7)
        assert np.shape(gram)[0] == 7
        assert gram.ledger_report().total_requests == 0


class TestQuery:
    def test_cache_semantics(self):
        g = MeteredGram(np.eye(4))
        v1 = g.query(2, 2)
        v2 = g.query(2, 2)
        rep = g.ledger_report()
        assert v1 == v2 == 1.0
        assert rep.distinct_entries == 1
        assert rep.total_requests == 2

    def test_budget_boundary(self):
        g = MeteredGram(np.eye(4), budget=1)
        g.query(0, 1)
        with pytest.raises(BudgetExhaustedError):
            g.query(0, 2)
        rep = g.ledger_report()
        assert rep.budget_exhausted
        assert rep.distinct_entries == 1
        # a revealed pair stays readable after exhaustion
        assert g.query(1, 0) == 0.0
        assert g.ledger_report().total_requests == 2

    def test_set_budget(self):
        g = MeteredGram(np.eye(4))
        with pytest.raises(ContractViolationError):
            g.set_budget(-1)
        assert g.ledger_report().budget is None
        g.set_budget(1)
        g.query(0, 1)
        with pytest.raises(BudgetExhaustedError):
            g.query(0, 2)
        g.set_budget(None)
        g.query(0, 2)
        assert g.ledger_report().distinct_entries == 2

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 2.5, 3.0, "3"],
                             ids=["nan", "inf", "2.5", "float-3", "str"])
    def test_set_budget_rejects_non_integer(self, budget):
        with pytest.raises(ContractViolationError):
            MeteredGram(np.eye(4), budget=budget)
        g = MeteredGram(np.eye(4), budget=1)
        with pytest.raises(ContractViolationError):
            g.set_budget(budget)
        assert g.ledger_report().budget == 1
        with pytest.raises(BudgetExhaustedError):
            g.query_block(np.arange(4), np.arange(4))
        assert g.ledger_report().distinct_entries == 0

    def test_numpy_integer_budget_is_stored_as_int(self):
        g = MeteredGram(np.eye(4), budget=np.int64(3))
        g.set_budget(np.uint8(2))
        rep = g.ledger_report()
        assert type(rep.budget) is int
        assert json.dumps(rep.budget) == "2"

    def test_symmetry(self):
        rng = stream(0, "sym")
        pts = rng.standard_normal((10, 3))
        g = MeteredGram(pts)
        for _ in range(50):
            i, j = rng.integers(0, 10, size=2)
            assert g.query(int(i), int(j)) == g.query(int(j), int(i))

    def test_out_of_range(self):
        g = MeteredGram(np.eye(3))
        with pytest.raises(ContractViolationError):
            g.query(0, 3)
        with pytest.raises(ContractViolationError):
            g.query(-1, 0)


class TestLedger:
    def test_fresh_gram_report(self):
        rep = MeteredGram(np.eye(5)).ledger_report()
        assert rep.distinct_entries == 0
        assert rep.total_requests == 0
        assert not rep.budget_exhausted

    def test_upper_triangle_count(self):
        g = MeteredGram(np.eye(4))
        for i in range(4):
            for j in range(i, 4):
                g.query(i, j)
        assert g.ledger_report().distinct_entries == 10  # n(n+1)/2

    def test_report_is_snapshot(self):
        g = MeteredGram(np.eye(4))
        rep = g.ledger_report()
        g.query(0, 0)
        assert rep.distinct_entries == 0
        assert tuple(rep.per_row) == (0,) * 4
        assert g.ledger_report().distinct_entries == 1
        assert tuple(g.ledger_report().per_row) == (1, 0, 0, 0)
        with pytest.raises(ValueError):
            rep.per_row[0] = 5

    def test_counter_invariants_random_walk(self):
        rng = stream(3, "walk")
        pts = rng.standard_normal((12, 4))
        g = MeteredGram(pts)
        prev_distinct, prev_total = 0, 0
        for _ in range(200):
            i, j = (int(v) for v in rng.integers(0, 12, size=2))
            g.query(i, j)
            rep = g.ledger_report()
            assert rep.distinct_entries >= prev_distinct
            assert rep.total_requests > prev_total
            assert rep.distinct_entries <= rep.total_requests
            assert rep.distinct_entries <= 12 * 13 // 2
            row_sum = sum(rep.per_row)
            assert rep.distinct_entries <= row_sum <= 2 * rep.distinct_entries
            prev_distinct, prev_total = rep.distinct_entries, rep.total_requests

    def test_block_matches_scalar_accounting(self):
        rng = stream(4, "blk")
        pts = rng.standard_normal((9, 3))
        g1 = MeteredGram(pts)
        g2 = MeteredGram(pts)
        rows, cols = np.array([1, 3, 5]), np.array([3, 5, 7, 8])
        vals = g1.query_block(rows, cols)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                assert vals[a, b] == g2.query(int(i), int(j))
        assert g1.ledger_report().distinct_entries == g2.ledger_report().distinct_entries
        assert g1.ledger_report().total_requests == rows.size * cols.size

    def test_block_budget_is_atomic(self):
        # a block of 6 unordered pairs, and full reveals of 21
        for read in (lambda g: g.query_block(np.arange(3), np.arange(3)),
                     MeteredGram.full, MeteredGram.reveal):
            g = MeteredGram(np.eye(6), budget=5)
            with pytest.raises(BudgetExhaustedError):
                read(g)
            rep = g.ledger_report()
            assert (rep.distinct_entries, rep.total_requests) == (0, 0)
            assert rep.budget_exhausted and _popcount(g.ledger) == 0

    def test_full_reveal(self):
        g = MeteredGram(np.eye(7))
        K = g.full()
        rep = g.ledger_report()
        assert K.shape == (7, 7)
        assert rep.distinct_entries == 7 * 8 // 2
        assert tuple(rep.per_row) == (7,) * 7
        g.query(2, 4)
        rep2 = g.ledger_report()
        assert rep2.distinct_entries == 7 * 8 // 2
        assert rep2.total_requests == 49 + 1
        # full() runs query_block's product: numpy's syrk for X @ X.T rounds
        # differently on these points. The view's diagonal and columns are
        # dot products and matrix-vector products, so they agree with it
        # to round-off
        eps = np.finfo(np.float64).eps
        for n, d in ((300, 30), (301, 7), (1100, 64)):  # 1100 > 1008: panels
            X = stream(n, "full").standard_normal((n, d))
            every = np.arange(n)
            K = MeteredGram(X).full()
            assert K.tobytes() == MeteredGram(X).query_block(every, every).tobytes()
            view, bound = MeteredGram(X).reveal(), 2 * d * eps * (np.abs(X) @ np.abs(X).T)
            assert (np.abs(view.diagonal() - K.diagonal()) <= bound.diagonal()).all()
            for p in (0, n // 2, n - 1):
                assert (np.abs(view.column(p) - K[p]) <= bound[p]).all()
        # on the generated instances every entry is exact: to the bit
        for augmented in (False, True):
            g = gen_krr(300, 8, 0.25, seed=0, augmented=augmented).gram
            K, view = g.full(), g.reveal()
            assert view.diagonal().tobytes() == K.diagonal().tobytes()
            assert all(view.column(p).tobytes() == K[p].tobytes() for p in range(g.n))

    def test_block_reread_after_full_adds_requests_only(self):
        g = MeteredGram(np.eye(7), budget=28)
        g.query_block([0, 1], [1, 5])
        g.full()
        before = g.ledger_report()
        g.query_block([0, 1, 2], [3, 4, 5, 6])
        after = g.ledger_report()
        assert after.distinct_entries == before.distinct_entries == 28
        assert after.total_requests == before.total_requests + 12
        assert tuple(after.per_row) == tuple(before.per_row) == (7,) * 7
        assert not after.budget_exhausted

    def test_budget_soundness_under_mixed_ops(self):
        rng = stream(5, "budget")
        pts = rng.standard_normal((10, 2))
        g = MeteredGram(pts, budget=17)
        for _ in range(300):
            try:
                if rng.random() < 0.8:
                    i, j = (int(v) for v in rng.integers(0, 10, size=2))
                    g.query(i, j)
                else:
                    r = rng.integers(0, 10, size=2)
                    c = rng.integers(0, 10, size=3)
                    g.query_block(r, c)
            except BudgetExhaustedError:
                pass
            assert g.ledger_report().distinct_entries <= 17

    def test_full_reveal_without_fresh_pairs_is_free_under_lowered_budget(self):
        g = MeteredGram(np.eye(2))
        g.query_block([0, 1], [0, 1])
        g.set_budget(1)
        assert g.full().tolist() == [[1.0, 0.0], [0.0, 1.0]]
        rep = g.ledger_report()
        assert (rep.distinct_entries, rep.total_requests) == (3, 8)
        assert rep.per_row.tolist() == [2, 2]
        assert not rep.budget_exhausted

    def test_pairs_after_full_add_requests_only(self):
        g = MeteredGram(np.eye(5), budget=15)
        g.full()
        before = g.ledger_report()
        assert g.query_pairs([0, 4, 4], [3, 1, 4]).tolist() == [0.0, 0.0, 1.0]
        after = g.ledger_report()
        assert after.distinct_entries == before.distinct_entries == 15
        assert after.total_requests == before.total_requests + 3
        assert not after.budget_exhausted


def _scalar_loop(gram, rows, cols):
    """Values of query(rows[p], cols[p]) in order, and the pairs read before
    a BudgetExhaustedError (None if none was raised)."""
    values = []
    for i, j in zip(rows, cols):
        try:
            values.append(gram.query(int(i), int(j)))
        except BudgetExhaustedError:
            return values, len(values)
    return values, None


def _random_pairs(n, size, seed):
    rng = stream(seed, "query-pairs")
    rows = rng.integers(0, n, size=size)
    cols = rng.integers(0, n, size=size)
    cols[::7] = rows[::7]  # diagonal pairs
    return np.concatenate([rows, cols[:20]]), np.concatenate([cols, rows[:20]])


class TestQueryPairs:
    @pytest.mark.parametrize("make", [
        lambda: gen_krr(60, 8, 0.25, seed=0),
        lambda: gen_krr(60, 8, 0.25, seed=1, augmented=True),
        lambda: gen_rank(60, 4, seed=2),
        lambda: gen_kkmc(60, 3, 0.25, seed=3),
    ])
    def test_values_equal_scalar_query_exactly(self, make):
        a, b = make().gram, make().gram
        rows, cols = _random_pairs(a.n, 400, 5)
        got = a.query_pairs(rows, cols)
        want, cut = _scalar_loop(b, rows, cols)
        assert cut is None
        assert got.tolist() == want
        ra, rb = a.ledger_report(), b.ledger_report()
        assert (ra.distinct_entries, ra.total_requests) == (rb.distinct_entries,
                                                            rb.total_requests)
        assert ra.per_row.tolist() == rb.per_row.tolist()

    def test_values_match_scalar_query_on_mixture(self):
        for d in (12, 512):  # 512 spans several of _dots' chunks
            a, b = (gen_mog(80, d, 3, 1.0, 10.0, seed=6).gram for _ in range(2))
            rows, cols = _random_pairs(a.n, 400, 7)
            got = a.query_pairs(rows, cols)
            want, _ = _scalar_loop(b, rows, cols)
            assert got.tolist() == want

    @pytest.mark.parametrize("d", [60, 512])
    def test_peak_per_pair_does_not_grow_with_d(self, d):
        # the ledger's int64 temporaries, about 80 bytes a pair: the point
        # gathers come in bounded chunks
        rng = stream(d, "pairs-memory")
        g = MeteredGram(rng.standard_normal((1000, d)))
        rows, cols = rng.integers(0, 1000, size=(2, 1 << 14))
        _, peak = traced_peak(g.query_pairs, rows, cols)
        assert g.ledger_report().total_requests == rows.size
        assert peak <= 128 * rows.size

    def test_budget_charges_longest_prefix(self):
        # fresh pairs at positions 0, 1, 3, 5 (2 repeats 0; 4 is 3 reversed);
        # budget 3 stops at position 5
        rows, cols = [0, 1, 1, 2, 3, 2, 0], [1, 1, 0, 3, 2, 2, 0]
        a = MeteredGram(np.eye(4), budget=3)
        b = MeteredGram(np.eye(4), budget=3)
        with pytest.raises(BudgetExhaustedError) as exc:
            a.query_pairs(rows, cols)
        want, cut = _scalar_loop(b, rows, cols)
        assert exc.value.prefix == cut == 5
        assert exc.value.values.tolist() == want == [0.0, 1.0, 0.0, 0.0, 0.0]
        ra, rb = a.ledger_report(), b.ledger_report()
        assert ra.budget_exhausted and rb.budget_exhausted
        assert (ra.distinct_entries, ra.total_requests) == (3, 5)
        assert (rb.distinct_entries, rb.total_requests) == (3, 5)
        assert ra.per_row.tolist() == rb.per_row.tolist() == [1, 2, 1, 1]
        # revealed pairs stay readable, without a new fresh entry
        assert a.query_pairs([1, 3], [0, 2]).tolist() == [0.0, 0.0]

    def test_cut_at_first_pair_returns_empty_prefix(self):
        g = MeteredGram(np.eye(3), budget=1)
        g.query(0, 0)
        with pytest.raises(BudgetExhaustedError) as exc:
            g.query_pairs([0, 1], [0, 2])
        assert exc.value.prefix == 1
        with pytest.raises(BudgetExhaustedError) as exc:
            g.query_pairs([2], [1])
        assert exc.value.prefix == 0 and exc.value.values.size == 0
        assert g.ledger_report().total_requests == 2

    @pytest.mark.parametrize("rows, cols", [
        ([0, 1, 5], [1, 2, 0]),
        ([0, 1], [-1, 2]),
    ])
    def test_out_of_range_raises_before_charging(self, rows, cols):
        g = MeteredGram(np.eye(5), budget=4)
        g.query(0, 1)
        before = g.ledger_report()
        with pytest.raises(ContractViolationError):
            g.query_pairs(rows, cols)
        after = g.ledger_report()
        assert (after.distinct_entries, after.total_requests) == (1, 1)
        assert after.per_row.tolist() == before.per_row.tolist()
        assert not after.budget_exhausted

    def test_length_mismatch_and_empty(self):
        g = MeteredGram(np.eye(3))
        with pytest.raises(ContractViolationError):
            g.query_pairs([0, 1], [1])
        assert g.query_pairs([], []).shape == (0,)
        assert g.ledger_report().total_requests == 0
        assert g.ledger._bits is None

    def test_sort_key_overflow_is_refused_before_charging(self):
        """The first-occurrence sort key is pair * len + position, so n * n
        * len must stay below 2**63; a longer list is refused whole."""
        ledger, pairs = QueryLedger(2**24), np.arange(2**15, dtype=np.int64)
        with pytest.raises(ContractViolationError, match="overflow"):
            ledger.charge_pairs(pairs, pairs)
        assert ledger._bits is None
        assert (ledger.distinct_entries, ledger.total_requests) == (0, 0)
        assert not ledger.budget_exhausted

    def test_row_partners_gather_each_row_once(self):
        """A row x partners read at d = 512 holds one chunk of partner points
        and one point per row, no copy of a row's point per partner: read
        as the flat list np.repeat(rows, q), partners, it peaks at 532 KB."""
        d, q = 512, 64  # a chunk is one row and its 64 partners, 264 KB
        rng = stream(d, "row-partners-memory")
        g = MeteredGram(_on_grid(rng.standard_normal((1000, d))))
        rows, partners = np.arange(8), rng.integers(0, 1000, size=(8, q))
        g.query_pairs(rows, partners)  # numpy's one-time allocations and the row table
        out, peak = traced_peak(g.query_pairs, rows, partners)
        assert out.tobytes() == np.vecdot(g._points[rows, None], g._points[partners]).tobytes()
        assert peak <= 8 * d * (q + 1) + 128 * partners.size  # 274 KB here


@st.composite
def _pairs_case(draw):
    """A query_pairs read in one of its three shapes, flat, row x partners
    or index x column, over a pool of indices that is sometimes a few
    neighbours (repeated pairs, diagonal pairs, pairs sharing a bitmap
    byte), with pairs charged beforehand and a budget room that may cut
    the list anywhere, inside a row included."""
    n = draw(st.integers(1, 150))
    lo = draw(st.integers(0, n - 1))
    idx = draw(st.sampled_from([st.integers(0, n - 1), st.integers(lo, min(lo + 9, n - 1))]))
    prior = draw(st.lists(st.tuples(idx, idx), max_size=20))
    shape = draw(st.sampled_from(["flat", "row-partners", "index-column"]))
    if shape == "flat":
        size = draw(st.integers(1, 40))
        rows, cols = (draw(st.lists(idx, min_size=size, max_size=size)) for _ in range(2))
    elif shape == "row-partners":
        r, q = draw(st.integers(1, 8)), draw(st.integers(1, 12))
        rows = draw(st.lists(idx, min_size=r, max_size=r))
        cols = np.reshape(draw(st.lists(idx, min_size=r * q, max_size=r * q)), (r, q))
    else:
        rows = draw(idx)
        cols = draw(st.one_of(st.lists(idx, min_size=1, max_size=40),
                              st.permutations(range(n))))
    d = draw(st.sampled_from([3, 700, 2048]))  # a chunk of up to 16 partners at d = 2048
    room = draw(st.one_of(st.none(), st.integers(0, 30)))
    return n, d, prior, rows, cols, room


class TestQueryPairsShapes:
    @settings(max_examples=300, deadline=None)
    @given(_pairs_case())
    # row 5's byte 1 holds hi 8-15: four fresh pairs share it, and (5, 9) repeats
    @example((40, 3, [], [5], [[8, 9, 12, 15, 9]], None))
    @example((40, 3, [(5, 12)], [5, 6], [[8, 9, 12], [5, 14, 15]], 3))  # cut inside row 6
    @example((20, 2048, [], 4, list(range(20)), 17))  # a column cut past its first chunk
    def test_matches_a_query_loop(self, case):
        n, d, prior, rows, cols, room = case
        points = np.asarray(stream(n, "pairs-shapes").integers(-4, 5, size=(n, d)), float)
        a, b = MeteredGram(points), MeteredGram(points)
        for gram in (a, b):
            for i, j in prior:
                gram.query(i, j)
            if room is not None:
                gram.set_budget(gram.ledger.distinct_entries + room)
        flat_rows = np.broadcast_to(np.reshape(rows, np.shape(rows) + (1,) * (
            np.ndim(cols) - np.ndim(rows))), np.shape(cols)).ravel()
        want, cut = _scalar_loop(b, flat_rows, np.ravel(cols))
        try:
            got, prefix = a.query_pairs(rows, cols), None
        except BudgetExhaustedError as e:
            got, prefix = e.values, e.prefix
        assert prefix == cut
        assert np.array_equal(_bits(got), _bits(want))
        ra, rb = a.ledger_report(), b.ledger_report()
        assert (ra.distinct_entries, ra.total_requests, ra.budget_exhausted) == (
            rb.distinct_entries, rb.total_requests, rb.budget_exhausted)
        assert ra.per_row.tolist() == rb.per_row.tolist()
        assert _state(a.ledger) == _state(b.ledger)
        _check_popcount(a.ledger)



_BAD_INDEX_READS = {
    "query-float": lambda g: g.query(1.7, 0.2),
    "query-numpy-float": lambda g: g.query(0, np.float64(1.0)),
    "query-bool": lambda g: g.query(True, 0),
    "block-float": lambda g: g.query_block([1.9], [1.2]),
    "block-mask": lambda g: g.query_block(np.ones(4, dtype=bool), [0, 1]),
    "block-2d": lambda g: g.query_block(np.array([[0, 1], [2, 3]]), [0]),
    "block-2d-empty": lambda g: g.query_block(np.zeros((0, 2), dtype=int), [0]),
    "pairs-float": lambda g: g.query_pairs([0.0, 1.0], [2, 3]),
    "pairs-mask": lambda g: g.query_pairs(np.array([True, False]), [2, 3]),
    # shapes outside query_pairs' rule, empty ones included
    "pairs-3-rows-of-partners": lambda g: g.query_pairs([0, 1], [[0, 1], [2, 3], [1, 1]]),
    "pairs-2d-rows": lambda g: g.query_pairs([[0], [1]], [0, 1, 2]),
    "pairs-empty-rows": lambda g: g.query_pairs(np.zeros(0, dtype=int), [1, 2]),
    "pairs-empty-cols": lambda g: g.query_pairs([1, 2], np.zeros((0, 2), dtype=int)),
}


class TestIndexValidation:
    @pytest.mark.parametrize("read", _BAD_INDEX_READS.values(), ids=_BAD_INDEX_READS.keys())
    def test_rejected_before_charging(self, read):
        g = MeteredGram(np.eye(4), budget=5)
        g.query(0, 1)
        before = _state(g.ledger)
        with pytest.raises(ContractViolationError):
            read(g)
        assert _state(g.ledger) == before
        assert not g.ledger.budget_exhausted

    def test_integer_dtypes_and_empty_inputs_are_read(self):
        g = MeteredGram(np.eye(4))
        assert g.query(np.int32(1), np.uint8(1)) == 1.0
        assert g.query_block(np.array([0, 1], dtype=np.int32), np.uint16(1)).tolist() == [
            [0.0], [1.0]]
        # query_pairs flattens 2-D indices: the budget-curve probe loop passes 2-D partners
        assert g.query_pairs(np.arange(4), np.array([[0, 1], [2, 3]])).tolist() == [1.0] * 4
        assert g.query_block([], [9]).shape == (0, 1)
        assert g.ledger_report().distinct_entries == 5


class TestLedgerStorage:
    def test_unqueried_gram_holds_no_bitmap(self):
        # nor does a full reveal past n = 20000, refused before it charges
        g = MeteredGram(np.ones((100_000, 1)))
        assert g.ledger._bits is None
        for read in (g.full, g.reveal):
            with pytest.raises(ContractViolationError, match="refusing to materialize"):
                read()
        rep = g.ledger_report()
        assert (rep.distinct_entries, rep.total_requests) == (0, 0)
        assert g.ledger._bits is None

    def test_empty_reads_map_no_bitmap(self):
        """An empty read charges nothing, so even a ledger of n=0, whose
        bitmap would take 0 bytes, maps none; nor does its full reveal,
        which has no pair to charge."""
        ledger, empty = QueryLedger(0), np.zeros(0, dtype=np.int64)
        ledger.charge_pairs(empty, empty)
        ledger.charge_block(empty, empty)
        ledger.charge_full()
        assert ledger._bits is None
        assert ledger.report().total_requests == 0

    def test_bitmap_is_lazy_and_full_sets_every_pair(self):
        """full() sets the bit of every pair and no padding bit, whatever was
        read before it, and later reads then change only the requests."""
        g = MeteredGram(np.eye(9))
        assert g.ledger._bits is None
        g.query(3, 8)
        # rows 0-8 hold hi in [0, 9) in one 8-byte word each
        assert len(g.ledger._bits) == _bitmap_bytes(9) == 72
        for n in (9, 13, 21, 40):
            g = MeteredGram(np.eye(n))
            g.query(3, 8)
            g.full()
            assert _as_int(g.ledger._bits) == _pair_bits(n)
            before = _state(g.ledger)
            g.query(0, 1)
            g.query_pairs([n - 1, 2], [0, 2])
            g.query_block(np.arange(n), np.arange(n))
            after = _state(g.ledger)
            assert after[:2] + after[3:] == before[:2] + before[3:]
            assert after[2] == before[2] + 3 + n * n

    def test_full_leaves_the_ledger_of_a_whole_block(self):
        """A full reveal, and a gram's reveal(), leave what a block of every
        row and column leaves, bitmap bytes included, at each n from 1 to 140
        (every n & 63, and rows of up to 3 words)."""
        for n in range(1, 141):
            full, block, every = QueryLedger(n), QueryLedger(n), np.arange(n)
            full.charge_full()
            block.charge_block(every, every)
            gram = MeteredGram(np.eye(n))
            gram.reveal()
            assert _state(full) == _state(block) == _state(gram.ledger)
            assert _popcount(full) == full.distinct_entries

    def test_every_pair_has_its_own_bit(self):
        """Each pair sets its own bit and none ever sets a padding bit; at
        n=130 a row spans up to 3 words."""
        for n in (13, 40, 130):
            g = MeteredGram(np.eye(n))
            assert len(g.ledger._bitmap()) == _bitmap_bytes(n)
            padding = ~_pair_bits(n)
            for i in range(n):
                for j in range(n):
                    fresh = g.ledger.charge_scalar(i, j)
                    assert fresh == (i <= j)
                    assert _as_int(g.ledger._bits) & padding == 0
            assert g.ledger.distinct_entries == n * (n + 1) // 2
            assert _popcount(g.ledger) == n * (n + 1) // 2
            assert _as_int(g.ledger._bits) == _pair_bits(n)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmRSS from /proc/self/status")
    def test_resident_memory_follows_the_pages_written(self):
        """At n=60000 the bitmap is 225 MB of address space. A 600 x 600
        square and 60 rows read against every later column write only rows
        0-599, about 4.5 MB, so resident memory grows by little more; over
        five ledgers in a row it does not add up, as a dropped ledger's
        pages are given back."""
        before = _resident_bytes()
        for _ in range(5):
            ledger = QueryLedger(60000)
            ledger.charge_block(np.arange(600), np.arange(600))
            ledger.charge_block(np.arange(60), np.arange(60, 60000))
            assert ledger.distinct_entries == 600 * 601 // 2 + 60 * (60000 - 600)
            assert _resident_bytes() - before < 16 << 20
            del ledger


def _resident_bytes():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) << 10
    raise AssertionError("no VmRSS line in /proc/self/status")


def _row_starts(n):
    """First byte of each row and the bitmap size: row lo holds hi in
    [64*(lo // 64), n), a whole number of 8-byte words."""
    width = [8 * ((n + 63) // 64 - lo // 64) for lo in range(n)]
    return np.concatenate([[0], np.cumsum(width)])


def _bitmap_bytes(n):
    return int(_row_starts(n)[-1])


def _pair_bits(n):
    """The bitmap, as an int, with the bit of every pair (lo, hi) set."""
    start, mask = _row_starts(n), 0
    for lo in range(n):
        for hi in range(lo, n):
            mask |= 1 << (8 * (int(start[lo]) + hi // 8 - 8 * (lo // 64)) + hi % 8)
    return mask


def _as_int(bits):
    return int.from_bytes(bytes(bits), "little")


def _popcount(ledger):
    return 0 if ledger._bits is None else _as_int(ledger._bits).bit_count()


def _check_popcount(ledger):
    """One set bit per distinct entry."""
    assert _popcount(ledger) == ledger.distinct_entries


class SetLedger:
    """Reference model: revealed pairs kept as a set of (lo, hi) tuples."""

    def __init__(self, n, budget):
        self.budget, self.pairs = budget, set()
        self.total_requests, self.budget_exhausted = 0, False
        self.per_row = [0] * n

    def charge(self, pairs):
        """Refuse only a read with a fresh pair past the budget; re-reads are free."""
        fresh = {(min(i, j), max(i, j)) for i, j in pairs} - self.pairs
        if fresh and self.budget is not None and len(self.pairs) + len(fresh) > self.budget:
            self.budget_exhausted = True
            raise BudgetExhaustedError("reference budget")
        self.total_requests += len(pairs)
        self.pairs |= fresh
        for i, j in fresh:
            self.per_row[i] += 1
            if i != j:
                self.per_row[j] += 1

    def charge_loop(self, pairs):
        """Charge pairs one at a time, as a loop of scalar queries; returns
        the number charged before the budget refused one, or None."""
        for p, pair in enumerate(pairs):
            if _raises_budget(self.charge, [pair]):
                return p
        return None


def _raises_budget(charge, *args):
    try:
        charge(*args)
    except BudgetExhaustedError:
        return True
    return False


def _budgets(n):
    return st.one_of(st.none(), st.integers(0, n * (n + 1) // 2 + 1))


def _ledger_ops(n):
    idx = st.integers(0, n - 1)
    rows = st.lists(idx, min_size=0, max_size=6)
    return st.lists(st.one_of(
        st.tuples(st.just("scalar"), idx, idx),
        st.tuples(st.just("block"), rows, rows),
        st.just(("block", list(range(n)), list(range(n)))),  # read every pair
        st.tuples(st.just("pairs"), st.lists(st.tuples(idx, idx), max_size=12)),
        st.tuples(st.just("full")),
        st.tuples(st.just("budget"), _budgets(n)),
    ), max_size=25)


@st.composite
def _ledger_case(draw):
    n = draw(st.integers(1, 9))
    return n, draw(_budgets(n)), draw(_ledger_ops(n))


class TestLedgerMatchesSetModel:
    @settings(max_examples=300, deadline=None)
    @given(_ledger_case())
    # re-reads under a budget lowered below the count are free, full reveal included
    @example((2, None, [("block", [0, 1], [0, 1]), ("budget", 1), ("full",),
                        ("scalar", 1, 0), ("block", [1], [0, 1])]))
    def test_random_charge_sequences(self, case):
        n, budget, ops = case
        ledger, ref = QueryLedger(n, budget), SetLedger(n, budget)
        for kind, *args in ops:
            if kind == "budget":
                ledger.set_budget(*args)
                ref.budget = args[0]
            elif kind == "pairs":
                (pairs,) = args
                rows, cols = (np.asarray([p[a] for p in pairs], dtype=np.int64)
                              for a in (0, 1))
                try:
                    ledger.charge_pairs(rows, cols)
                    prefix = None
                except BudgetExhaustedError as e:
                    prefix = e.prefix
                assert prefix == ref.charge_loop(pairs)
            elif kind == "scalar":
                pairs, charge = [tuple(args)], ledger.charge_scalar
            elif kind == "block":
                pairs = [(i, j) for i in args[0] for j in args[1]]
                charge = ledger.charge_block
                args = [np.asarray(a, dtype=np.int64) for a in args]
            else:
                pairs = [(i, j) for i in range(n) for j in range(n)]
                charge = ledger.charge_full
            if kind in ("scalar", "block", "full"):
                assert _raises_budget(charge, *args) == _raises_budget(ref.charge, pairs)
            rep = ledger.report()
            _check_popcount(ledger)
            assert rep.distinct_entries == len(ref.pairs)
            assert rep.total_requests == ref.total_requests
            assert rep.budget_exhausted == ref.budget_exhausted
            assert rep.per_row.tolist() == ref.per_row


def _state(ledger):
    """Everything a charge can change, bitmap bytes included."""
    return (bytes(ledger._bitmap()), ledger.distinct_entries, ledger.total_requests,
            ledger.per_row.tolist())


@st.composite
def _block_case(draw):
    """A ledger size that spans up to 4 bitmap words per row, some pairs
    charged beforehand, and a block whose rows and columns come unsorted,
    repeated or as a range to n - 1 from two overlapping pools, so that any of
    the three runs of charge_block may be empty (rows inside cols, cols
    inside rows, disjoint pools, a single shared index)."""
    n = draw(st.integers(1, 200))
    idx = st.integers(0, n - 1)
    prior = draw(st.lists(st.tuples(idx, idx), max_size=40))
    pools = []
    for _ in range(2):
        a, b = sorted((draw(idx), draw(idx)))
        # or every index from a on, shuffled: adjacent rows share a band, and
        # a row's bytes below its first are an earlier row's last, which
        # only the top columns write
        pools.append(draw(st.one_of(st.lists(st.integers(a, b), min_size=1, max_size=20),
                                    st.permutations(range(a, n)))))
    slack = draw(st.one_of(st.none(), st.integers(-3, 1)))
    return n, prior, pools[0], pools[1], slack


def _block_cases():
    """Blocks whose charges share bitmap words, each as (n, rows, cols)."""
    rng = stream(0, "block-bytes")
    shared = rng.choice(3000, 300, replace=False)
    return {
        # row 9 is in R & C: its byte 1 takes hi 12 from R x C and hi 13
        # from C x (R - C), two runs writing the same byte
        "runs-share-a-byte": (40, [9, 13], [9, 12]),
        "runs-share-bytes": (70, [9, 13, 30, 22, 31, 61], [9, 12, 30, 27, 60, 31, 63]),
        # first and last rows and columns fall mid-byte; rows 13-28 take
        # hi 24-28 from R x C and hi 29-31 from C x (R - C) in one byte
        "mid-byte-ranges": (50, np.arange(3, 45), np.arange(13, 29)),
        "mid-byte-overlap": (70, np.arange(11, 38), np.arange(2, 61)),
        "same-rows-and-cols": (40, np.arange(5, 37), np.arange(5, 37)[::-1]),
        "same-rows-and-cols-multi-band": (3000, shared, rng.permutation(np.tile(shared, 2))),
        # row 70's word 1 takes hi 75 from R x C and hi 120 from C x (R - C):
        # two runs writing different bytes of one word
        "runs-share-a-word": (200, [70, 120], [70, 75]),
        # rows 63 and 127 hold one bit of their first word, the word's last
        "lo-ends-a-word": (140, np.arange(60, 131), [63, 64, 127, 128, 139]),
    }


def _charge_loop(ledger, rows, cols):
    for i in rows:
        for j in cols:
            ledger.charge_scalar(int(i), int(j))


class TestBlockChargeBytes:
    @settings(max_examples=400, deadline=None)
    @given(_block_case())
    @example((1, [(0, 0)], [0], [0, 0], -1))  # a re-read under a lowered budget is free
    @example((9, [], [], [3], -1))  # an empty block
    def test_block_matches_scalar_loop(self, case):
        n, prior, rows, cols, slack = case
        block, loop = QueryLedger(n), QueryLedger(n)
        for i, j in prior:
            block.charge_scalar(i, j)
            loop.charge_scalar(i, j)
            _check_popcount(block)
        before = _state(block)
        for i in rows:
            for j in cols:
                loop.charge_scalar(i, j)
                _check_popcount(loop)
        fresh = loop.distinct_entries - block.distinct_entries
        if slack is not None:  # a budget at, just below or just above the need
            block.set_budget(max(block.distinct_entries + fresh + slack, 0))
        args = [np.asarray(a, dtype=np.int64) for a in (rows, cols)]
        if slack is not None and slack < 0 and fresh > 0:
            with pytest.raises(BudgetExhaustedError):
                block.charge_block(*args)
            assert _state(block) == before
            assert block.budget_exhausted
        else:
            block.charge_block(*args)
            assert _state(block) == _state(loop)
            assert not block.budget_exhausted
        _check_popcount(block)

    @pytest.mark.usefixtures("small_bands")
    def test_multi_band_block_matches_scalar_loop(self):
        rows, cols, block, loop = _multi_band_case()
        for i in rows:
            for j in cols:
                loop.charge_scalar(int(i), int(j))
        block.charge_block(rows, cols)
        assert _state(block) == _state(loop)
        _check_popcount(block)

    @pytest.mark.usefixtures("small_bands")
    def test_budget_crossed_in_last_band_is_atomic(self):
        rows, cols, block, loop = _multi_band_case()
        assert _last_band_fresh(rows, cols, block) > 0
        for i in rows:
            for j in cols:
                loop.charge_scalar(int(i), int(j))
        fresh = loop.distinct_entries - block.distinct_entries
        before = _state(block)
        # one short: room for every band's fresh pairs but the last's
        block.set_budget(block.distinct_entries + fresh - 1)
        with pytest.raises(BudgetExhaustedError):
            block.charge_block(rows, cols)
        assert _state(block) == before
        assert block.budget_exhausted
        block.set_budget(block.distinct_entries + fresh)
        block.charge_block(rows, cols)
        assert _state(block) == _state(loop)

    @pytest.mark.usefixtures("small_bands")
    @pytest.mark.parametrize("prior", [False, True], ids=["fresh", "prior-reads"])
    @pytest.mark.parametrize("case", list(_block_cases()))
    def test_matches_scalar_loop_and_refuses_atomically(self, case, prior):
        n, rows, cols = _block_cases()[case]
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        block, loop = QueryLedger(n), QueryLedger(n)
        if prior:  # every other pair of the block, and pairs around it
            for ledger in (block, loop):
                _charge_loop(ledger, rows[::2], cols[1::2])
                ledger.charge_pairs(rows[::-1], np.minimum(rows + 1, n - 1))
        _charge_loop(loop, rows, cols)
        fresh = loop.distinct_entries - block.distinct_entries
        assert fresh > 0
        before = _state(block)
        block.set_budget(block.distinct_entries + fresh - 1)
        with pytest.raises(BudgetExhaustedError):
            block.charge_block(rows, cols)
        assert _state(block) == before
        assert block.budget_exhausted
        block.set_budget(None)
        block.charge_block(rows, cols)
        assert _state(block) == _state(loop)
        _check_popcount(block)


@pytest.fixture
def small_bands(monkeypatch):
    """Bands of 256 words: a run over the 47 words of an n=3000 row then
    takes 5 rows a band, so the blocks at n=3000 span dozens of bands."""
    monkeypatch.setattr(oracle, "_BAND_WORDS", 256)


def _multi_band_case():
    """n=3000, prior scalar and pair charges, and an unsorted block with
    repeats whose rows R and columns C share 80 indices: R x C, C x (R - C)
    and (C - R) x (R & C) are all non-empty; under small_bands each spans
    many bands."""
    n, rng = 3000, stream(0, "multi-band-block")
    perm = rng.permutation(n)
    shared, only_r, only_c = perm[:120], perm[120:220], perm[220:380]
    rows = rng.permutation(np.concatenate([shared, only_r, shared[:10]]))
    cols = rng.permutation(np.concatenate([shared[:80], only_c, only_c[:5]]))
    block, loop = QueryLedger(n), QueryLedger(n)
    prior = rng.choice(np.concatenate([rows, cols]), size=(2, 3000))
    for ledger in (block, loop):
        for i, j in prior[:, :500].T:
            ledger.charge_scalar(int(i), int(j))
        ledger.charge_pairs(prior[0, 500:], prior[1, 500:])
    return rows, cols, block, loop


def _last_band_fresh(rows, cols, ledger):
    """Fresh pairs in the band charge_block scans last: the top band of
    (C - R) x (R & C), with no lo past the last hi, in bands of
    _BAND_WORDS // (words holding R & C) rows."""
    R, C = np.unique(rows), np.unique(cols)
    both = np.intersect1d(R, C)
    lo = np.setdiff1d(C, R)
    lo = lo[lo <= both[-1]]
    step = max(1, oracle._BAND_WORDS // np.unique(both >> 6).size)
    band = lo[(lo.size - 1) // step * step:]
    probe = QueryLedger(ledger.n)
    probe._bits = bytearray(ledger._bits)
    for i in band:
        for j in both[both >= i]:
            probe.charge_scalar(int(i), int(j))
    return probe.distinct_entries


def _disjoint_rectangle():
    idx = stream(0, "block-memory").permutation(20_000)
    return 20_000, idx[:68], idx[68:], 68 * 19_932


class TestBlockChargeMemory:
    @pytest.mark.parametrize("n, rows, cols, fresh", [
        (5000, np.arange(1000, 2000), np.arange(1000, 2000), 1000 * 1001 // 2),
        _disjoint_rectangle(),
        (5000, np.arange(0, 1000), np.arange(500, 1500), 1000 * 1000 - 500 * 499 // 2),
    ], ids=["fresh-square", "disjoint-rectangle", "half-overlap"])
    def test_peak_per_requested_entry(self, n, rows, cols, fresh):
        ledger = QueryLedger(n)
        ledger.charge_scalar(n - 1, n - 1)  # the bitmap is the ledger's, not the block's
        _, peak = traced_peak(ledger.charge_block, rows, cols)
        assert ledger.distinct_entries == 1 + fresh
        assert peak <= 16 * rows.size * cols.size

    def test_reread_peak_per_requested_entry(self):
        ledger, square = QueryLedger(5000), np.arange(1000, 2000)
        ledger.charge_block(square, square)
        _, peak = traced_peak(ledger.charge_block, square, square)
        assert ledger.distinct_entries == 1000 * 1001 // 2
        assert peak <= 4 * square.size ** 2


class TestQueryBlockPanels:
    # (d, rows, cols): panels are 65536, 21845, 1024 and 128 points at d = 1,
    # 3, 64 and 512, so each shape but the last crosses a panel edge on at
    # least one side
    SHAPES = [(1, 3, 131_041), (1, 131_041, 2), (3, 20, 43_681), (3, 43_681, 20),
              (3, 43_681, 1), (64, 68, 19_932), (64, 2017, 68), (64, 1048, 2024),
              (64, 2017, 1), (64, 1, 2017), (512, 136, 200), (512, 193, 64),
              (512, 193, 1), (512, 1, 193), (512, 68, 193), (512, 193, 68),
              (64, 1009, 1009)]

    @staticmethod
    def _read(d, r, c, grid):
        rng = stream(d, "panels")
        points = rng.standard_normal((1000, d))
        if grid:
            _on_grid(points)
        rows, cols = rng.integers(0, 1000, size=r), rng.integers(0, 1000, size=c)
        return MeteredGram(points).query_block(rows, cols), points[rows], points[cols]

    @pytest.mark.parametrize("d, r, c", SHAPES)
    def test_matches_one_product(self, d, r, c):
        # unsorted indices with repeats, on a dyadic grid, where every order
        # of summation gives the same bits
        got, left, right = self._read(d, r, c, grid=True)
        assert got.tobytes() == np.matmul(left, right.T).tobytes()

    @pytest.mark.parametrize("d, r, c", SHAPES)
    def test_edge_columns_agree_to_round_off(self, d, r, c):
        # a caller's own points: panels and one product sum in different orders
        got, left, right = self._read(d, r, c, grid=False)
        bound = 2 * d * np.finfo(np.float64).eps * (np.abs(left) @ np.abs(right).T)
        assert (np.abs(got - np.matmul(left, right.T)) <= bound).all()

    @pytest.mark.parametrize("r, c", [(68, 20_000), (20_000, 1)], ids=["sketch", "column"])
    def test_peak_is_output_plus_bounded_gathers(self, r, c):
        idx = stream(0, "block-peak").permutation(20_000)
        points = stream(1, "block-peak").standard_normal((20_000, 64))
        rows, cols = idx[:r], idx[:c]
        MeteredGram(points).query_block(rows, cols)  # numpy's one-time imports
        out, peak = traced_peak(MeteredGram(points).query_block, rows, cols)
        assert peak <= out.nbytes + 1.1 * 2**20


class TestGeneratedGramProperties:
    def test_generated_instances_are_psd(self):
        grams = [
            gen_krr(40, 8, 0.25, seed=0).gram,
            gen_krr(40, 8, 0.25, seed=1, augmented=True).gram,
            gen_kkmc(30, 2, 0.5, seed=2).gram,
            gen_rank(30, 4, seed=3).gram,
            gen_mog(25, 6, 2, 0.5, 10.0, seed=4).gram,
        ]
        for g in grams:
            K = g.full()
            K = 0.5 * (K + K.T)
            assert np.linalg.eigvalsh(K).min() >= -1e-8

    def test_symmetry_on_generated_instance(self):
        g = gen_kkmc(25, 2, 0.25, seed=7).gram
        rng = stream(8, "pairs")
        for _ in range(40):
            i, j = (int(v) for v in rng.integers(0, 25, size=2))
            assert g.query(i, j) == g.query(j, i)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRouteAgreement:
    """Every read of a generated gram returns one value per pair, bit for
    bit: each dot product is exact, whatever order a read sums it in."""

    @pytest.mark.parametrize("make", [
        lambda: gen_krr(1200, 8, 0.25, seed=0),
        lambda: gen_krr(1200, 8, 0.25, seed=1, augmented=True),
        lambda: gen_kkmc(1200, 3, 0.25, seed=2),
        lambda: gen_rank(1200, 4, seed=3),
        lambda: gen_mog(1200, 16, 3, 1.0, 10.0, seed=4),
        lambda: gen_mog(1200, 64, 4, 1.0, 10.0, seed=5),
        lambda: gen_mog(1200, 256, 3, 1.0, 10.0, seed=6),
        lambda: gen_mog(1200, 1000, 3, 1.0, 10.0, seed=7),
        lambda: gen_mog(1200, 8, 12, 1.0, 10.0, seed=8),
    ], ids=["krr", "krr-augmented", "kkmc", "rank", "mog-16", "mog-64", "mog-256",
            "mog-1000", "mog-k-over-d"])
    def test_every_read_of_a_pair_returns_the_same_bits(self, make):
        gram = make().gram
        n, rng = gram.n, stream(10, "routes")
        order, every = rng.permutation(n), np.arange(n)
        rows, cols = rng.integers(0, n, size=(2, 5000))
        scalar = [gram.query(int(i), int(j)) for i, j in zip(rows[:300], cols[:300])]
        reads = [(rows, cols, gram.query_pairs(rows, cols)), (rows[:300], cols[:300], scalar)]
        # a row x partners list and an index x column, through query_pairs
        partners = rng.integers(0, n, size=(60, 70))
        reads.append((rows[:60, None], partners,
                      gram.query_pairs(rows[:60], partners).reshape(partners.shape)))
        reads.append((order[0], order, gram.query_pairs(order[0], order)))
        # panels are 1024 points at d = 64, 256 at d = 256 and 65 at d = 1000:
        # from d = 64 on these blocks cross panel edges
        square = rng.integers(0, n, size=700)  # unsorted, with repeats
        for a, b in ((order[:68], order[68:]), (order[68:], order[:68]), (square, square)):
            reads.append((a[:, None], b, gram.query_block(a, b)))
        view = gram.reveal()
        reads.append((every, every, view.diagonal()))
        reads.extend((every, p, view.column(p)) for p in order[:5])
        K = gram.full()
        assert np.array_equal(_bits(K), _bits(K.T))
        for r, c, values in reads:
            assert np.array_equal(_bits(values), _bits(K[r, c]))


class TestConcurrency:
    def test_parallel_queries_serialize_cleanly(self):
        pts = stream(9, "conc").standard_normal((30, 4))
        g = MeteredGram(pts)
        pairs = [(i, j) for i in range(30) for j in range(i, 30)][:300]

        def worker(chunk):
            for i, j in chunk:
                g.query(i, j)

        threads = [threading.Thread(target=worker, args=(pairs[k::4],)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        rep = g.ledger_report()
        assert rep.distinct_entries == len(set(pairs))
        assert rep.total_requests == len(pairs)
