"""Shadow ledger: every CLI kind's counts equal the pairs its reads returned,
and every read of a pair returned the same bits.

Each of MeteredGram's four reads, query, query_pairs, query_block and
reveal, is wrapped to record the unordered pairs (min, max) it returned,
and the requests they took, in a set held on the gram itself. reveal()
returns a view of every pair; full() reads through it and is not wrapped
apart, which would count its pairs twice. A budgeted query_pairs that is
cut records the prefix it charged; a refused read records nothing. Each
ledger_report, and each refusal, compares the ledger's distinct entries,
requests and per_row with that set, and the bits set in the ledger's
bitmap with its size: a dropped bit shows there at once, while the counts
would show it only when a later read counted its pair again. The shadow
lives on the gram object, not in a table keyed by id(gram): a freed gram's
id is reused by the next pass's gram.

The shadow also keeps the bits of each pair's first value, from the four
reads and from the view's diagonal, columns and array, and counts every
value that differs from its pair's first.
"""

import numpy as np
import pytest

from kernel_budget.cli import KINDS, ExperimentConfig, run
from kernel_budget.errors import BudgetExhaustedError
from kernel_budget.oracle import MeteredGram, Revealed

SIZES = {
    "krr-closed-form": {"n": 400, "J": 8, "epsilon": 0.25},
    "krr-classify": {"n": 400, "J": 8, "epsilon": 0.25},
    "krr-indicator": {"n": 400, "J": 8, "epsilon": 0.25, "c0": 0.2, "c1": 1.3},
    "d-eff-scan": {"n": 400, "J": 8, "epsilon": 0.25},
    "kkmc-cost-envelope": {"n": 600, "k": 3, "epsilon": 0.5},
    "kkmc-recover": {"n": 600, "k": 3, "epsilon": 0.5},
    "rank-gap": {"n": 600, "k": 3},
    "mog-pipeline": {"n": 900, "d": 64, "k": 4, "epsilon": 0.25, "sigma": 1.0},
    "budget-curve": {"n": 400, "J": 8, "epsilon": 0.25,
                     "budgets": ["0.3*n*J/4", "n*J/4", "3*n*J/4"]},
}

# a budget each kind runs out of partway, where it reads at all: a refused
# full reveal, scalar reads past the budget, and a refused sketch block
# after the bootstrap
BUDGETS = {
    "krr-closed-form": "n*n/4",
    "krr-classify": "n*n/4",
    "krr-indicator": "n*n/4",
    "kkmc-recover": "n/8",
    "mog-pipeline": "t*(t+1)/2 + m*(n-t)",
}


class Shadow:
    """The distinct pairs, as keys lo * n + hi, and the requests of every
    read a gram returned."""

    def __init__(self, n: int):
        self.n, self.pairs, self.requests = n, set(), 0
        # bits of each pair (lo, hi)'s first value, where one is kept
        self.first = self.kept = None
        self.disagree = 0

    def add(self, rows, cols):
        rows, cols = np.ravel(rows).astype(np.int64), np.ravel(cols).astype(np.int64)
        self.pairs.update((np.minimum(rows, cols) * self.n + np.maximum(rows, cols)).tolist())
        self.requests += rows.size

    def values(self, rows, cols, values):
        """Keep the bits of each pair's first value, and count the values
        read for pairs (rows[p], cols[p]) that differ from their pair's."""
        if self.first is None:
            self.first = np.zeros((self.n, self.n), np.uint64)
            self.kept = np.zeros((self.n, self.n), bool)
        first, kept = self.first, self.kept
        rows, cols = np.ravel(rows).astype(np.int64), np.ravel(cols).astype(np.int64)
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        bits = np.ravel(np.asarray(values, dtype=np.float64)).view(np.uint64)
        new = ~kept[lo, hi]
        first[lo[new], hi[new]] = bits[new]
        kept[lo, hi] = True
        self.disagree += int(np.count_nonzero(first[lo, hi] != bits))

    def mismatches(self, report, ledger) -> list:
        keys = np.fromiter(self.pairs, dtype=np.int64, count=len(self.pairs))
        lo, hi = np.divmod(keys, self.n)
        per_row = np.bincount(np.concatenate([lo, hi[lo != hi]]), minlength=self.n)
        found = []
        if report.distinct_entries != len(self.pairs):
            found.append(f"distinct {report.distinct_entries} != {len(self.pairs)}")
        bits = 0 if ledger._bits is None else int(
            np.bitwise_count(np.frombuffer(ledger._bits, dtype=np.uint8)).sum())
        if bits != len(self.pairs):
            found.append(f"bits set {bits} != {len(self.pairs)}")
        if report.total_requests != self.requests:
            found.append(f"requests {report.total_requests} != {self.requests}")
        if not np.array_equal(report.per_row, per_row):
            found.append(f"per_row differs in {np.count_nonzero(report.per_row != per_row)} rows")
        if self.disagree:
            found.append(f"{self.disagree} values differ from their pair's first read")
        return found


def _listed(rows, cols):
    """query_pairs' list: rows[i] against every cols[i, ...] when cols'
    shape starts with rows' shape, else the two flattened side by side."""
    rows, cols = np.asarray(rows), np.asarray(cols)
    if cols.shape[:rows.ndim] == rows.shape:
        rows = np.broadcast_to(rows.reshape(rows.shape + (1,) * (cols.ndim - rows.ndim)),
                               cols.shape)
    return rows, cols


def _outer(rows, cols):
    rows, cols = np.atleast_1d(rows), np.atleast_1d(cols)
    return np.repeat(rows, cols.size), np.tile(cols, rows.size)


# read -> the (rows, cols) pair lists its arguments ask for, in the order
# of its raveled values
_PAIRS = {
    "query": lambda gram, i, j: ([i], [j]),
    "query_pairs": lambda gram, rows, cols: _listed(rows, cols),
    "query_block": lambda gram, rows, cols: _outer(rows, cols),
    "reveal": lambda gram: _outer(np.arange(gram.n), np.arange(gram.n)),
}
# a revealed view's reads, alike
_VIEW_PAIRS = {
    "diagonal": lambda gram: (np.arange(gram.n), np.arange(gram.n)),
    "column": lambda gram, p: (np.arange(gram.n), np.full(gram.n, p)),
    "array": _PAIRS["reveal"],
}


@pytest.fixture
def shadowed(monkeypatch):
    """Wraps MeteredGram's reads and ledger_report; returns the list of
    comparisons made, as (distinct entries, mismatches)."""
    checks = []

    def shadow(gram) -> Shadow:
        if "_shadow" not in vars(gram):
            gram._shadow = Shadow(gram.n)
        return gram._shadow

    def check(gram, report):
        checks.append((report.distinct_entries, shadow(gram).mismatches(report, gram.ledger)))

    def wrap(name, real):
        def read(self, *args):
            try:
                out = real(self, *args)
            except BudgetExhaustedError as e:
                if e.prefix is not None:  # a cut query_pairs charged its prefix
                    rows, cols = (np.ravel(x)[:e.prefix] for x in _PAIRS[name](self, *args))
                    shadow(self).add(rows, cols)
                    shadow(self).values(rows, cols, e.values)
                check(self, real_report(self))
                raise
            shadow(self).add(*_PAIRS[name](self, *args))
            if name != "reveal":
                shadow(self).values(*_PAIRS[name](self, *args), out)
            return out
        return read

    def wrap_view(name, real):
        def read(self, *args):
            out = real(self, *args)
            shadow(self._gram).values(*_VIEW_PAIRS[name](self._gram, *args), out)
            return out
        return read

    real_report = MeteredGram.ledger_report
    for name in _PAIRS:
        monkeypatch.setattr(MeteredGram, name, wrap(name, getattr(MeteredGram, name)))
    for name in _VIEW_PAIRS:
        monkeypatch.setattr(Revealed, name, wrap_view(name, getattr(Revealed, name)))

    def report(self):
        rep = real_report(self)
        check(self, rep)
        return rep

    monkeypatch.setattr(MeteredGram, "ledger_report", report)
    return checks


def test_every_kind_reads_what_its_ledger_counts(shadowed, monkeypatch):
    assert sorted(SIZES) == sorted(KINDS)
    runs = 0
    for threads in ("1", "2"):
        monkeypatch.setenv("KB_THREADS", threads)
        for kind, instance in SIZES.items():
            budgets = [None] if "budgets" in instance else [None, BUDGETS.get(kind, "n")]
            for budget in budgets:
                rows, _ = run(ExperimentConfig(kind=kind, instance=instance,
                                               seeds=[0, 1, 2], budget=budget))
                assert len({r.seed for r in rows}) == 3
                runs += 1
    assert runs == 2 * 17
    assert shadowed and all(not found for _, found in shadowed), \
        [found for _, found in shadowed if found][:5]
    # the comparisons saw reads, not only empty ledgers: per thread count,
    # 11 per seed (3 unbudgeted KRR passes, kkmc-recover's and the
    # mixture's 2 each, and budget-curve's 3 budgets and its one refusal)
    assert sum(distinct > 0 for distinct, _ in shadowed) == 2 * 3 * 11


def test_cut_query_pairs_records_its_prefix(shadowed):
    gram = MeteredGram(np.eye(6), budget=5)
    gram.query_block([0, 1], [0, 1])  # 3 fresh
    with pytest.raises(BudgetExhaustedError) as info:
        gram.query_pairs([2, 0, 3, 4, 5], [2, 1, 4, 4, 5])  # fresh, seen, fresh, past
    assert info.value.prefix == 3
    gram.ledger_report()
    # a row x partners read cut inside its second row: (1, 0), (1, 1) fresh,
    # (1, 0) again, then (2, 1), (2, 2) fresh and (2, 5) past the budget
    gram = MeteredGram(np.eye(6), budget=4)
    with pytest.raises(BudgetExhaustedError) as info:
        gram.query_pairs([1, 2], [[0, 1, 0], [1, 2, 5]])
    assert info.value.prefix == 5
    assert info.value.values.tolist() == [0.0, 1.0, 0.0, 0.0, 1.0]
    gram.ledger_report()
    assert [distinct for distinct, _ in shadowed] == [5, 5, 4, 4]
    assert all(not found for _, found in shadowed)
