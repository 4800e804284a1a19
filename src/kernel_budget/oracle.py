"""Metered access to kernel (Gram) matrices.

The only sanctioned path to a kernel value is through a MeteredGram, which
hides the underlying point set and charges one unit per distinct unordered
entry (i, j) revealed. Re-reading a revealed entry is free in the distinct
count but still counted as a request. An optional budget caps the number of
distinct entries; exceeding it raises BudgetExhaustedError, which callers
may catch to emulate a query-bounded adversary.

Entries are counted as unordered pairs, the diagonal counting once, because
a re-read carries no new information. The ledger keeps one bit per pair in
an upper-triangle bitmap of whole 64-bit word rows, which a block read
scans 64 pairs at a time, in anonymous memory of which only the pages a
charge writes are resident (see QueryLedger); no value is kept, since a
value is a pure function of the hidden points. A full reveal is charged
whole, then returns a Revealed view that evaluates the diagonal, a column
or the whole array on demand; full() is that view's array. The kernel is
the dot product; a two-valued kernel on basis vectors is algebra on this
gram (krr.solve_exact's c0 and c1). A generated instance's dot products are
exact in float64 (at most two nonzero terms, or a mixture on
instances.gen_mog's dyadic grid), so every read of a pair returns the same
bits; over other points reads agree to round-off.
"""

from __future__ import annotations

import mmap
import operator
import threading
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Optional

import numpy as np

from .errors import BudgetExhaustedError, ContractViolationError

# reveal() charges all n(n+1)/2 entries, and full() makes them a dense
# n x n array; both refuse beyond this size
_FULL_REVEAL_MAX_N = 20_000
# mask of bit b within a bitmap byte
_BIT = np.uint8(1) << np.arange(8, dtype=np.uint8)
# _FROM[b]: the bits of a word from bit b on; _FROM[64] is 0
_FROM = np.append(~np.uint64(0) << np.arange(64, dtype=np.uint64), np.uint64(0))
# charge_block scans a run's rows in bands of at most this many words
_BAND_WORDS = 1 << 15
# float64 values of points a read gathers at a time: 512 KB
_GATHER = 1 << 16
# fewest points in a _block panel: thinner panels leave BLAS too little
# work per call at large d
_MIN_PANEL = 48


@dataclass(frozen=True)
class QueryReport:
    """Immutable snapshot of ledger counters; per_row is a read-only copy."""

    distinct_entries: int
    total_requests: int
    budget: Optional[int]
    budget_exhausted: bool
    per_row: np.ndarray = field(compare=False)


class QueryLedger:
    """Audit record for one gram: distinct entries, requests, per-row touches.

    Counters are monotone over the gram's lifetime. Pair (lo, hi), lo <= hi,
    is bit hi & 7 of byte _offset(lo) + (hi >> 3) of an upper-triangle
    bitmap in which row lo holds hi in [64*(lo >> 6), n), starting on an
    8-byte boundary: a row is a whole number of little-endian uint64 words,
    and the pair is bit hi & 63 of the row's word (hi >> 6) - (lo >> 6).
    So a word's column hi >> 6 and its mask depend on hi alone, and the
    bits below the diagonal in a row's first word, and those past n in its
    last, belong to no pair and stay 0. The bitmap is about n^2/16 + 4n
    bytes of address space, mapped on the first charge of a fresh pair;
    only the pages a charge writes become resident. A full reveal sets
    every pair's bit, so the popcount is the distinct count.
    """

    def __init__(self, n: int, budget: Optional[int] = None):
        self.n = n
        self.set_budget(budget)
        self.distinct_entries = 0
        self.total_requests = 0
        self.per_row = np.zeros(n, dtype=np.int64)
        self.budget_exhausted = False
        self._bits: Optional[mmap.mmap] = None
        self._row_bits: Optional[np.ndarray] = None  # 8*_offset(lo) per row, for charge_pairs

    def set_budget(self, budget: Optional[int]):
        if budget is not None:
            try:
                budget = operator.index(budget)
            except TypeError:
                raise ContractViolationError(
                    f"budget must be None or an integer, got {budget!r}") from None
            if budget < 0:
                raise ContractViolationError("budget must be nonnegative")
        self.budget = budget

    def _bitmap(self) -> mmap.mmap:
        if self._bits is None:
            # anonymous memory: a page is mapped, zero-filled, on its first write
            self._bits = mmap.mmap(-1, self._offset(self.n) + 8 * (self.n >> 6))
        return self._bits

    def _offset(self, lo):
        """Byte of pair (lo, hi) less hi >> 3; lo an int or an int64 array.

        With W = ceil(n/64), row l takes W - (l >> 6) words, so the rows
        before lo = 64q + r take lo*W - 32q(q-1) - r*q words, and row lo's
        first byte, for hi = 64q, is 8q past _offset(lo), a multiple of 8.
        _offset(n) + 8*(n >> 6) is the bitmap's size in bytes."""
        q = lo >> 6
        return 8 * (lo * ((self.n + 63) >> 6) - 32 * q * (q - 1) - (lo & 63) * q - q)

    def _over_budget(self, fresh: int) -> bool:
        """Whether fresh pairs would pass the budget; a read with none never does."""
        return fresh > 0 and self.budget is not None and self.distinct_entries + fresh > self.budget

    def _refuse(self, requests: int, message: str):
        self.budget_exhausted = True
        self.total_requests -= requests
        raise BudgetExhaustedError(message)

    def _unset(self, byte: np.ndarray, bit: np.ndarray) -> np.ndarray:
        """True where a pair's bit (bit of byte) is not yet set."""
        bits = np.frombuffer(self._bitmap(), dtype=np.uint8)
        return (bits[byte] & _BIT[bit]) == 0

    def charge_scalar(self, i: int, j: int) -> bool:
        """Count one request; returns True if the pair is newly revealed."""
        self.total_requests += 1
        lo, hi = (i, j) if i <= j else (j, i)
        byte, mask = self._offset(lo) + (hi >> 3), 1 << (hi & 7)
        bits = self._bitmap()
        if bits[byte] & mask:
            return False
        if self._over_budget(1):
            self._refuse(1, f"budget of {self.budget} distinct entries "
                            f"exhausted at ({i}, {j})")
        bits[byte] |= mask
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
        R x C, C x (R - C) and (C - R) x (R & C). A run's lo past its last
        hi has no pair; its other lo are split into bands of at most
        _BAND_WORDS words, each scanned one uint64 per (lo, word of hi) over
        the words from its first lo's on. A lo's fresh count is its run's
        hi >= lo less the bits already set. Every band is scanned before
        the budget check and no bit is set before it; then each band with a
        fresh pair is gathered again, to count its hi and set its bits.
        """
        requests = int(rows.size) * int(cols.size)
        self.total_requests += requests
        if requests == 0:
            return
        R, C = np.unique(rows), np.unique(cols)
        r_in_c, c_in_r = np.isin(R, C, assume_unique=True), np.isin(C, R, assume_unique=True)
        both = R[r_in_c]
        # a fresh diagonal pair is counted as both its lo and its hi below
        diag = both[self._unset(self._offset(both) + (both >> 3), both & 7)]
        words = np.frombuffer(self._bitmap(), dtype="<u8")
        bands, total = [], 0
        for lo, hi in ((R, C), (C, R[~r_in_c]), (C[~c_in_r], both)):
            if hi.size == 0:
                continue
            lo = lo[:np.searchsorted(lo, hi[-1], side="right")]
            start = np.flatnonzero(np.diff(hi >> 6, prepend=-1))  # first hi of each word
            col, mask = hi[start] >> 6, np.bitwise_or.reduceat(
                np.uint64(1) << (hi & 63).astype(np.uint64), start)
            step = max(1, _BAND_WORDS // col.size)
            for s in range(0, lo.size, step):
                band = lo[s:s + step]
                at, own, _, m = self._scan(band, col, mask)
                seen = words[at] & m
                seen[:, :own.shape[1]] &= own
                per_lo = (hi.size - np.searchsorted(hi, band)
                          - np.bitwise_count(seen).sum(axis=1, dtype=np.int64))
                if per_lo.any():
                    bands.append((band, per_lo, hi, col, mask))
                    total += int(per_lo.sum())
        if self._over_budget(total):
            self._refuse(requests, f"block read of {total} fresh entries "
                                   f"exceeds budget {self.budget}")
        for band, per_lo, hi, col, mask in bands:
            at, own, col, mask = self._scan(band, col, mask)
            got = words[at]
            # hi's fresh count: the band's lo <= hi less the set bits of rows with some
            h = hi[np.searchsorted(hi, band[0]):]
            old = np.flatnonzero(hi.size - np.searchsorted(hi, band) - per_lo)
            seen = got[old] & mask
            seen[:, :own.shape[1]] &= own[old]
            r, c = np.nonzero(seen)
            i, bit = np.nonzero(np.unpackbits(seen[r, c].view(np.uint8).reshape(-1, 8),
                                              axis=1, bitorder="little"))
            was_set = np.bincount(np.searchsorted(h, 64 * col[c[i]] + bit), minlength=h.size)
            self.per_row[band] += per_lo
            self.per_row[h] += np.searchsorted(band, h, side="right") - was_set
            # at or before band[-1]'s word, write only own words: a stale copy undoes an earlier row
            b = own.shape[1]
            words[at[:, b:]] = got[:, b:] | mask[b:]
            r, c = np.nonzero(own)
            words[at[r, c]] = got[r, c] | own[r, c]
        self.per_row[diag] -= 1
        self.distinct_entries += total

    def _scan(self, band, col, mask):
        """Indices of rows band's words at a run's columns col (hi >> 6, their
        bits OR'd in mask) from band[0]'s on; the run's bits of hi >= lo in
        those at or before band[-1]'s; the columns and mask from band[0]'s on."""
        first = np.searchsorted(col, band[0] >> 6)
        col, mask = col[first:], mask[first:]
        b = np.searchsorted(col, band[-1] >> 6, side="right")
        own = mask[:b] & _FROM[np.clip(band[:, None] - 64 * col[:b], 0, 64)]
        return (self._offset(band) >> 3)[:, None] + col, own, col, mask

    def charge_pairs(self, rows: np.ndarray, cols: np.ndarray):
        """Count the ordered pairs (rows.flat[p], cols.flat[p]) as a
        charge_scalar loop would; rows and cols have one shape, and either
        may be a broadcast view.

        A pair is fresh if it is unseen and does not occur earlier in the
        list. If the fresh pairs would exceed the budget, only the longest
        prefix within it is charged, requests included, and the raised
        BudgetExhaustedError carries that prefix's length as `prefix`. A
        list of n*n*len >= 2**63 would overflow the sort key and is refused.

        Pair (lo, hi) is bit 8*_offset(lo) + hi, from a per-row table the
        first pair charge builds. Sorted by pair, the fresh pairs are in
        bitmap order: one scatter sets their bits, keeping one per shared
        byte, and an or.at over both sides of each shared run sets the rest.
        """
        size = int(rows.size)
        if self.n * self.n * size >= 1 << 63:
            raise ContractViolationError(f"{size} pairs at n={self.n} overflow the sort key")
        if size == 0:
            return
        lo, hi = np.minimum(rows, cols).ravel(), np.maximum(rows, cols).ravel()
        if self._row_bits is None:
            self._row_bits = 8 * self._offset(np.arange(self.n))
        bit = self._row_bits[lo]
        bit += hi
        bits = np.frombuffer(self._bitmap(), dtype=np.uint8)
        unseen = np.flatnonzero((bits[bit >> 3] & _BIT[bit & 7]) == 0)
        # sorted by pair lo*n + hi, then by position: a pair's first key is its first occurrence
        key = lo[unseen]
        key *= self.n
        key += hi[unseen]
        key *= size
        key += unseen
        key.sort()
        # in place over the spent key and unseen: 16 bytes a pair off the peak
        pair, pos = np.divmod(key, size, out=(key, unseen))
        first = np.concatenate([pos[:1], pos[1:][pair[1:] != pair[:-1]]])
        allowed = first.size if self.budget is None else max(self.budget - self.distinct_entries, 0)
        cut = None
        if first.size > allowed:
            # the first fresh pair past the budget ends the prefix
            cut = int(np.sort(first)[allowed])
            first = first[first < cut]
        at, mask = bit[first] >> 3, _BIT[bit[first] & 7]
        bits[at] |= mask
        twin = np.flatnonzero(at[1:] == at[:-1])
        for side in (twin, twin + 1):
            np.bitwise_or.at(bits, at[side], mask[side])
        lo, hi = lo[first], hi[first]
        self.distinct_entries += int(first.size)
        self.per_row += np.bincount(np.concatenate([lo, hi[lo != hi]]), minlength=self.n)
        self.total_requests += size if cut is None else cut
        if cut is not None:
            self.budget_exhausted = True
            raise BudgetExhaustedError(
                f"budget of {self.budget} distinct entries exhausted at pair {cut} "
                f"({rows.flat[cut]}, {cols.flat[cut]})", prefix=cut)

    def charge_full(self):
        """Count a reveal of every pair, atomic under the budget: set every
        word, then clear each row's bits below the diagonal and past n."""
        n, requests = self.n, self.n * self.n
        self.total_requests += requests
        fresh = n * (n + 1) // 2 - self.distinct_entries
        if fresh == 0:
            return
        if self._over_budget(fresh):
            self._refuse(requests, f"full reveal of {fresh} fresh entries "
                                   f"exceeds budget {self.budget}")
        words, lo = np.frombuffer(self._bitmap(), dtype="<u8"), np.arange(n)
        row = self._offset(lo) >> 3
        words[:] = _FROM[0]
        words[row + (lo >> 6)] = _FROM[lo & 63]
        if n & 63:
            words[row + (n >> 6)] &= ~_FROM[n & 63]
        self.distinct_entries += fresh
        self.per_row[:] = n

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


def _panels(size: int, step: int):
    """(start, stop) of ceil(size / step) panels of at most step points, as
    even as integers allow."""
    count = -(-size // step)
    return pairwise(i * size // count for i in range(count + 1))


def _index_array(x) -> np.ndarray:
    """x as an int64 array; floats and booleans are refused unless x is empty."""
    idx = np.asarray(x)
    if idx.size and idx.dtype.kind not in "iu":
        raise ContractViolationError(f"indices must be integers, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


class Revealed:
    """Read-only view of a gram whose every entry is charged, from
    MeteredGram.reveal. Each read evaluates the dot products again:
    diagonal() takes O(n d), column(p) one matrix-vector product with no
    gather, and array() the whole n x n matrix, as query_block of every row
    and column fills it."""

    def __init__(self, gram: MeteredGram):
        self._gram = gram

    def diagonal(self) -> np.ndarray:
        """K[i, i] for every i, as a new array."""
        points = self._gram._points
        return np.vecdot(points, points)

    def column(self, p: int) -> np.ndarray:
        """K[:, p] as a new array."""
        points = self._gram._points
        return points @ points[p]

    def array(self) -> np.ndarray:
        """K as a new n x n array."""
        every = np.arange(self._gram.n)
        return self._gram._block(every, every)


class MeteredGram:
    """Kernel matrix of a hidden point set, readable only entry by entry.

    points: (n, d) array, one hidden point per row. All reads go through
    query / query_pairs / query_block / reveal, which update a shared ledger;
    a re-read costs a request but no distinct entry. query_pairs reads a
    list of pairs, or each index against its own partners, gathering that
    index's point once. No value is stored:
    each read is a dot product of the points, so reads of a pair agree to
    round-off, and bit for bit where the products are exact. Safe for
    concurrent readers: ledger updates hold a lock, so final counts match
    some serialization.
    """

    def __init__(self, points, budget: Optional[int] = None):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.size == 0:
            raise ContractViolationError("points must be a nonempty (n, d) array")
        self._points = pts
        self.n = pts.shape[0]
        self.ledger = QueryLedger(self.n, budget)
        self._lock = threading.Lock()

    @property
    def shape(self) -> tuple[int, int]:
        # np.shape(gram) reads this: perfbench's tracer sizes each solve by it
        return (self.n, self.n)

    def _check_range(self, *indices: np.ndarray):
        for idx in indices:
            for i in (int(idx.min()), int(idx.max())):
                if not 0 <= i < self.n:
                    raise ContractViolationError(f"index {i} out of range [0, {self.n})")

    def _dots(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries (rows[a], cols[a, b]) of 1-D rows and 2-D cols, raveled,
        bit for bit as query gives them.

        Each chunk gathers at most _GATHER // (2 d) partner points and
        broadcasts against them the points of its rows, each gathered once,
        so the read holds its output and at most 512 KB of gathered points,
        256 KB a side, whatever the list's length."""
        d = self._points.shape[1]
        out = np.empty(cols.shape)
        wide = max(1, min(cols.shape[1], _GATHER // (2 * d)))
        tall = max(1, _GATHER // (2 * d * wide))
        for s in range(0, rows.size, tall):
            left = self._points[rows[s:s + tall], None]
            for t in range(0, cols.shape[1], wide):
                np.vecdot(left, self._points[cols[s:s + tall, t:t + wide]],
                          out=out[s:s + tall, t:t + wide])
        return out.ravel()

    def _block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Entries rows x cols, filled in row and column panels of at most
        _GATHER // d points (and at least _MIN_PANEL), so the read holds its
        output and at most 512 KB of gathered points a side for d <= 1365.
        A block of at most 1024 points a side at d = 64 is one product.
        """
        # the output goes before the point gathers, which glibc then frees
        # without splitting the heap under it (block-cost peak RSS 64 ->
        # 56-62 MB)
        out = np.empty((rows.size, cols.size))
        step = max(_MIN_PANEL, _GATHER // self._points.shape[1])
        for r0, r1 in _panels(rows.size, step):
            left = self._points[rows[r0:r1]]
            for c0, c1 in _panels(cols.size, step):
                np.matmul(left, self._points[cols[c0:c1]].T, out=out[r0:r1, c0:c1])
        return out

    # -- metered access --------------------------------------------------

    def query(self, i: int, j: int) -> float:
        """One kernel entry; charges a distinct entry on first touch."""
        try:
            if isinstance(i, bool) or isinstance(j, bool):  # operator.index(True) is 1
                raise TypeError
            i, j = operator.index(i), operator.index(j)
        except TypeError:
            raise ContractViolationError(
                f"indices must be integers, got ({i!r}, {j!r})") from None
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ContractViolationError(f"index ({i}, {j}) out of range [0, {self.n})")
        with self._lock:
            self.ledger.charge_scalar(i, j)
        return float(np.dot(self._points[i], self._points[j]))

    def query_pairs(self, rows, cols) -> np.ndarray:
        """Entries of a list of pairs in list order, charged as a query loop would be.

        If cols' shape starts with rows' shape, rows[i] is read against
        every cols[i, ...]: a row and its partners, or one index against a
        column. Otherwise rows and cols must have equal sizes, and the list
        is (rows[p], cols[p]) of both flattened. Shapes and indices are
        checked before anything is charged. The values come raveled, in
        the list's order. Under a budget the longest affordable prefix is
        charged and BudgetExhaustedError is raised with that prefix's
        length as `prefix` and its values as `values`. The ledger's
        temporaries grow with the list, about 80 bytes a pair whatever d
        is, so callers pass bounded batches.
        """
        rows, cols = _index_array(rows), _index_array(cols)
        if cols.shape[:rows.ndim] != rows.shape and cols.size != rows.size:
            raise ContractViolationError(
                "query_pairs needs equal sizes or a cols shape that starts with "
                f"rows', got shapes {rows.shape} and {cols.shape}")
        if cols.size == 0:
            return np.zeros(0)
        rows = rows.ravel()
        cols = cols.reshape(rows.size, -1)
        self._check_range(rows, cols)
        with self._lock:
            try:
                self.ledger.charge_pairs(np.broadcast_to(rows[:, None], cols.shape), cols)
            except BudgetExhaustedError as e:
                whole, part = divmod(e.prefix, cols.shape[1])
                e.values = np.concatenate([
                    self._dots(rows[:whole], cols[:whole]),
                    self._dots(rows[whole:whole + 1], cols[whole:whole + 1, :part])])
                raise
        return self._dots(rows, cols)

    def query_block(self, rows, cols) -> np.ndarray:
        """Rectangular block of entries, vectorized. Atomic under a budget.

        rows and cols are integer scalars or 1-D arrays. The block is charged
        whole, then filled by _block."""
        rows, cols = np.atleast_1d(_index_array(rows)), np.atleast_1d(_index_array(cols))
        if rows.ndim != 1 or cols.ndim != 1:
            raise ContractViolationError(
                f"query_block needs 1-D rows and cols, got shapes {rows.shape} and {cols.shape}")
        if rows.size == 0 or cols.size == 0:
            return np.zeros((rows.size, cols.size))
        self._check_range(rows, cols)
        with self._lock:
            self.ledger.charge_block(rows, cols)
            return self._block(rows, cols)

    def reveal(self) -> Revealed:
        """Charge a read of every entry, then return a view of the revealed
        matrix; the ledger jumps to n(n+1)/2 distinct entries. Charged
        whole before any value is read, so the view reads only charged
        entries; a refused reveal charges and returns nothing."""
        if self.n > _FULL_REVEAL_MAX_N:
            raise ContractViolationError(
                f"refusing to materialize a {self.n} x {self.n} matrix"
            )
        with self._lock:
            self.ledger.charge_full()
        return Revealed(self)

    def full(self) -> np.ndarray:
        """The entire matrix, charged as reveal() charges it."""
        return self.reveal().array()

    def set_budget(self, budget: Optional[int]):
        """Cap distinct entries from now on; None lifts the cap."""
        with self._lock:
            self.ledger.set_budget(budget)

    def ledger_report(self) -> QueryReport:
        """Snapshot of the counters; later queries do not mutate it."""
        with self._lock:
            return self.ledger.report()
