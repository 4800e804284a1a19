"""Metered access to kernel (Gram) matrices.

The only sanctioned path to a kernel value is through a MeteredGram, which
hides the underlying point set and charges one unit per distinct unordered
entry (i, j) revealed. Re-reading a revealed entry is free in the distinct
count but still counted as a request. An optional budget caps the number of
distinct entries; exceeding it raises BudgetExhaustedError, which callers
may catch to emulate a query-bounded adversary.

Entries are counted as unordered pairs, the diagonal counting once, because
a re-read carries no new information. The ledger keeps one bit per pair in
a packed upper-triangle bitmap (see QueryLedger); no value is kept, since a
value is a pure function of the hidden points. Values for the instances in
this package lie in {0, 1/2, 1, c0, c1} and small dot products, so float64
is exact for all comparisons that matter.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BudgetExhaustedError, ContractViolationError

LINEAR = "linear"
INDICATOR = "indicator"

# full() materializes a dense n x n matrix; refuse beyond this size
_FULL_REVEAL_MAX_N = 20_000
# mask of bit b within a bitmap byte
_BIT = np.uint8(1) << np.arange(8, dtype=np.uint8)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel selector: plain dot product, or a two-valued kernel on basis vectors.

    The indicator kind models any kernel that takes a value c1 on a basis
    vector paired with itself and c0 < c1 on two distinct basis vectors
    (dot-product and distance kernels restricted to the standard basis all
    have this form).
    """

    kind: str
    c0: Optional[float] = None
    c1: Optional[float] = None

    def __post_init__(self):
        if self.kind == LINEAR:
            if self.c0 is not None or self.c1 is not None:
                raise ContractViolationError("linear kernel carries no parameters")
        elif self.kind == INDICATOR:
            if self.c0 is None or self.c1 is None:
                raise ContractViolationError("indicator kernel needs c0 and c1")
            if not self.c1 > self.c0:
                raise ContractViolationError(
                    f"indicator kernel requires c1 > c0, got c0={self.c0}, c1={self.c1}"
                )
        else:
            raise ContractViolationError(f"unknown kernel kind {self.kind!r}")

    @staticmethod
    def linear() -> "KernelSpec":
        return KernelSpec(LINEAR)

    @staticmethod
    def indicator(c0: float, c1: float) -> "KernelSpec":
        return KernelSpec(INDICATOR, c0=float(c0), c1=float(c1))


def _basis_index(x: np.ndarray) -> int:
    """Index of the 1 in a standard basis vector; error if x is not one."""
    x = np.asarray(x, dtype=np.float64)
    nz = np.flatnonzero(x)
    if nz.size != 1 or x[nz[0]] != 1.0:
        raise ContractViolationError("indicator kernel applies to standard basis vectors only")
    return int(nz[0])


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on two explicit vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ContractViolationError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.kind == LINEAR:
        return float(np.dot(x, y))
    return spec.c1 if _basis_index(x) == _basis_index(y) else spec.c0


@dataclass(frozen=True)
class QueryReport:
    """Immutable snapshot of ledger counters; per_row is a read-only copy."""

    distinct_entries: int
    total_requests: int
    budget: Optional[int]
    budget_exhausted: bool
    per_row: np.ndarray = field(compare=False)

    def to_json(self) -> dict:
        return {
            "distinct_entries": self.distinct_entries,
            "total_requests": self.total_requests,
            "budget": self.budget,
            "budget_exhausted": self.budget_exhausted,
        }


class QueryLedger:
    """Audit record for one gram: distinct entries, requests, per-row touches.

    Counters are monotone over the gram's lifetime. Pair (lo, hi), lo <= hi,
    is bit lo*n - lo*(lo+1)/2 + hi of a packed upper-triangle bitmap:
    n(n+1)/16 bytes, allocated on the first scalar, block or pairs charge
    and freed by a full reveal, which sets an all-revealed flag instead.
    """

    def __init__(self, n: int, budget: Optional[int] = None):
        self.n = n
        self.set_budget(budget)
        self.distinct_entries = 0
        self.total_requests = 0
        self.per_row = np.zeros(n, dtype=np.int64)
        self.budget_exhausted = False
        self._all_revealed = False
        self._bits: Optional[bytearray] = None

    def set_budget(self, budget: Optional[int]):
        if budget is not None and budget < 0:
            raise ContractViolationError("budget must be nonnegative")
        self.budget = budget

    def _bitmap(self) -> bytearray:
        if self._bits is None:
            self._bits = bytearray((self.n * (self.n + 1) // 2 + 7) // 8)
        return self._bits

    def _refuse(self, requests: int, message: str):
        self.budget_exhausted = True
        self.total_requests -= requests
        raise BudgetExhaustedError(message)

    def _key(self, lo, hi):
        """Bit index of pair (lo, hi), lo <= hi; ints or broadcastable int64
        arrays (only the final + hi is full-size)."""
        return lo * self.n - (lo * (lo + 1) >> 1) + hi

    def _unset(self, keys: np.ndarray) -> np.ndarray:
        """True where the bit of a key is not yet set."""
        bits = np.frombuffer(self._bitmap(), dtype=np.uint8)
        return (bits[keys >> 3] & _BIT[keys & 7]) == 0

    def _set(self, keys: np.ndarray):
        """Set the bits of sorted unique keys."""
        bits = np.frombuffer(self._bits, dtype=np.uint8)
        byte = keys >> 3  # sorted: OR each byte's masks once, as fancy |= drops repeats
        last = np.ones(byte.size, dtype=bool)
        np.not_equal(byte[1:], byte[:-1], out=last[:-1])
        last = np.flatnonzero(last)
        # a byte's masks are distinct bits, so their sum (mod 256) is their OR
        sums = np.cumsum(_BIT[keys & 7], dtype=np.uint8)[last]
        bits[byte[last]] |= np.diff(sums, prepend=np.uint8(0))

    def charge_scalar(self, i: int, j: int) -> bool:
        """Count one request; returns True if the pair is newly revealed."""
        self.total_requests += 1
        if self._all_revealed:
            return False
        key = self._key(i, j) if i <= j else self._key(j, i)
        bits = self._bitmap()
        mask = 1 << (key & 7)
        if bits[key >> 3] & mask:
            return False
        if self.budget is not None and self.distinct_entries + 1 > self.budget:
            self._refuse(1, f"budget of {self.budget} distinct entries "
                            f"exhausted at ({i}, {j})")
        bits[key >> 3] |= mask
        self.distinct_entries += 1
        self.per_row[i] += 1
        if j != i:
            self.per_row[j] += 1
        return True

    def charge_block(self, rows: np.ndarray, cols: np.ndarray):
        """Count a rectangular read; atomic with respect to the budget.

        The request count grows by rows*cols; the distinct count only by the
        previously unseen unordered pairs in the rectangle. If the fresh
        pairs would exceed the budget, nothing in the block is revealed; a
        block with no fresh pair is never refused, as a re-read adds none.

        With R and C the sorted distinct rows and columns, each unordered
        pair of R x C is (lo, hi), lo <= hi, in exactly one of three runs:
        R x C, C x (R - C) and (C - R) x (R & C). A run is read row-major
        over sorted indices; a key grows with hi for fixed lo, and each lo's
        keys lie past the previous lo's, so a run's keys with lo <= hi come
        out sorted and unique without a sort.
        """
        requests = int(rows.size) * int(cols.size)
        self.total_requests += requests
        if self._all_revealed or requests == 0:
            return
        R, C = np.unique(rows), np.unique(cols)
        r_in_c, c_in_r = np.isin(R, C, assume_unique=True), np.isin(C, R, assume_unique=True)
        runs = []
        for run, (lo, hi) in enumerate(((R, C), (C, R[~r_in_c]), (C[~c_in_r], R[r_in_c]))):
            keys = self._key(lo[:, None], hi)
            fresh = lo[:, None] <= hi
            fresh &= self._unset(keys)
            runs.append((lo, hi, keys[fresh],
                         np.count_nonzero(fresh, axis=1), np.count_nonzero(fresh, axis=0)))
            if run == 0:  # diagonal pairs lie in R x C only
                diag = fresh[np.flatnonzero(r_in_c), np.flatnonzero(c_in_r)]
            del keys, fresh  # hold one run's rectangle at a time
        total = sum(run[2].size for run in runs)
        if total and self.budget is not None and self.distinct_entries + total > self.budget:
            self._refuse(requests, f"block read of {total} fresh entries "
                                   f"exceeds budget {self.budget}")
        for lo, hi, keys, lo_count, hi_count in runs:
            self._set(keys)
            self.per_row[lo] += lo_count
            self.per_row[hi] += hi_count
        self.per_row[R[r_in_c]] -= diag  # a fresh diagonal pair touches its row once
        self.distinct_entries += total

    def charge_pairs(self, rows: np.ndarray, cols: np.ndarray):
        """Count the ordered pairs (rows[p], cols[p]) as a charge_scalar loop would.

        A pair is fresh if it is unseen and does not occur earlier in the
        list. If the fresh pairs would exceed the budget, only the longest
        prefix within it is charged, requests included, and the raised
        BudgetExhaustedError carries that prefix's length as `prefix`.
        """
        if self._all_revealed:
            self.total_requests += int(rows.size)
            return
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        keys = self._key(lo, hi)
        unseen = np.flatnonzero(self._unset(keys))
        keys, first = np.unique(keys[unseen], return_index=True)
        first = unseen[first]
        allowed = keys.size if self.budget is None else max(self.budget - self.distinct_entries, 0)
        cut = None
        if keys.size > allowed:
            # the first fresh pair past the budget ends the prefix
            cut = int(np.sort(first)[allowed])
            keep = first < cut
            keys, first = keys[keep], first[keep]
        self._set(keys)
        self.distinct_entries += int(keys.size)
        lo, hi = lo[first], hi[first]
        self.per_row += np.bincount(np.concatenate([lo, hi[lo != hi]]), minlength=self.n)
        self.total_requests += int(rows.size) if cut is None else cut
        if cut is not None:
            self.budget_exhausted = True
            raise BudgetExhaustedError(
                f"budget of {self.budget} distinct entries exhausted at pair {cut} "
                f"({rows[cut]}, {cols[cut]})", prefix=cut)

    def charge_full(self):
        total = self.n * (self.n + 1) // 2
        self.total_requests += self.n * self.n
        if self._all_revealed:
            return
        if self.budget is not None and total > self.budget:
            self._refuse(self.n * self.n,
                         f"full reveal of {total} entries exceeds budget {self.budget}")
        self._all_revealed = True
        self._bits = None
        self.distinct_entries = total
        self.per_row[:] = self.n

    def report(self) -> QueryReport:
        per_row = self.per_row.copy()
        per_row.flags.writeable = False
        return QueryReport(
            distinct_entries=int(self.distinct_entries),
            total_requests=int(self.total_requests),
            budget=self.budget,
            budget_exhausted=self.budget_exhausted,
            per_row=per_row,
        )


class MeteredGram:
    """Kernel matrix of a hidden point set, readable only entry by entry.

    points: (n, d) array, one hidden point per row. All reads go through
    query / query_pairs / query_block / full, which update a shared ledger;
    a re-read costs a request but no distinct entry. No value is stored:
    each read is evaluated from the points. Safe for concurrent readers:
    ledger updates hold a lock, so final counts match some serialization.
    """

    def __init__(self, points, spec: KernelSpec = KernelSpec.linear(),
                 budget: Optional[int] = None):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ContractViolationError("points must be a nonempty (n, d) array")
        self._points = pts
        self.spec = spec
        self.n = pts.shape[0]
        self.dim = pts.shape[1]
        self.ledger = QueryLedger(self.n, budget)
        self._lock = threading.Lock()
        if spec.kind == INDICATOR:
            # all points must be basis vectors; remember their indices
            self._basis = np.empty(self.n, dtype=np.int64)
            for i in range(self.n):
                self._basis[i] = _basis_index(pts[i])
        else:
            self._basis = None

    # -- evaluation (no metering) ---------------------------------------

    def _eval_scalar(self, i: int, j: int) -> float:
        if self.spec.kind == LINEAR:
            return float(np.dot(self._points[i], self._points[j]))
        return self.spec.c1 if self._basis[i] == self._basis[j] else self.spec.c0

    def _eval_block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if self.spec.kind == LINEAR:
            return self._points[rows] @ self._points[cols].T
        same = self._basis[rows][:, None] == self._basis[cols][None, :]
        return np.where(same, self.spec.c1, self.spec.c0)

    def _eval_pairs(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if self.spec.kind == LINEAR:
            return np.einsum("ij,ij->i", self._points[rows], self._points[cols])
        return np.where(self._basis[rows] == self._basis[cols], self.spec.c1, self.spec.c0)

    def _check_index(self, i: int):
        if not 0 <= i < self.n:
            raise ContractViolationError(f"index {i} out of range [0, {self.n})")

    # -- metered access --------------------------------------------------

    def query(self, i: int, j: int) -> float:
        """One kernel entry; charges a distinct entry on first touch."""
        i, j = int(i), int(j)
        self._check_index(i)
        self._check_index(j)
        with self._lock:
            self.ledger.charge_scalar(i, j)
        return self._eval_scalar(i, j)

    def query_pairs(self, rows, cols) -> np.ndarray:
        """Entries (rows[p], cols[p]) in list order, charged as a query loop would be.

        Every index is checked before anything is charged. Under a budget the
        longest affordable prefix is charged and BudgetExhaustedError is
        raised with that prefix's length as `prefix` and its values as
        `values`. Temporaries grow with the list (two (len, d) gathers for a
        linear kernel), so callers pass bounded batches.
        """
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.size != cols.size:
            raise ContractViolationError(
                f"query_pairs needs equal lengths, got {rows.size} and {cols.size}")
        if rows.size == 0:
            return np.zeros(0)
        for idx in (int(rows.min()), int(rows.max()), int(cols.min()), int(cols.max())):
            self._check_index(idx)
        with self._lock:
            try:
                self.ledger.charge_pairs(rows, cols)
            except BudgetExhaustedError as e:
                e.values = self._eval_pairs(rows[:e.prefix], cols[:e.prefix])
                raise
        return self._eval_pairs(rows, cols)

    def query_block(self, rows, cols) -> np.ndarray:
        """Rectangular block of entries, vectorized. Atomic under a budget."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.size, cols.size))
        for idx in (int(rows.min()), int(rows.max()), int(cols.min()), int(cols.max())):
            self._check_index(idx)
        with self._lock:
            self.ledger.charge_block(rows, cols)
            return self._eval_block(rows, cols)

    def full(self) -> np.ndarray:
        """The entire matrix; ledger jumps to n(n+1)/2 distinct entries."""
        if self.n > _FULL_REVEAL_MAX_N:
            raise ContractViolationError(
                f"refusing to materialize a {self.n} x {self.n} matrix"
            )
        with self._lock:
            self.ledger.charge_full()
            idx = np.arange(self.n)
            return self._eval_block(idx, idx)

    def set_budget(self, budget: Optional[int]):
        """Cap distinct entries from now on; None lifts the cap."""
        with self._lock:
            self.ledger.set_budget(budget)

    def ledger_report(self) -> QueryReport:
        """Snapshot of the counters; later queries do not mutate it."""
        with self._lock:
            return self.ledger.report()
