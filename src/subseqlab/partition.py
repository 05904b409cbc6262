"""Partition-function kernels: exact big-integer counting, log-domain streaming
DP over weighted environments, greedy embedding, skip-vector encoding, and
common-subsequence counting.

The count of strictly increasing embeddings sigma with x[sigma] = y obeys

    Z[n, m] = Z[n-1, m] + 1{x_n = y_m} * Z[n-1, m-1],      Z[n, 0] = 1,

and the weighted generalization replaces the indicator by an arbitrary
non-negative weight B[n, m].  Both DPs stream one row at a time, so memory is
O(M) regardless of N, plus O(N) integer tables in the rank-one kernel.
Zero partition functions are represented by -inf in the log domain; numpy's
logaddexp satisfies logaddexp(-inf, a) = a exactly, which is the identity the
recurrence needs.

Every embedding sigma of y into x lies between the leftmost (greedy) embedding
L and the rightmost one R: L_j <= sigma_j <= R_j.  The rank-one kernel keeps to
this corridor: it reads x_n into position j of y only when L_j <= n <= R_j,
which is exactly when some embedding matches y_j to x_n.  Below the corridor
(n < L_j) the cell it reads holds Z = 0, and logaddexp(a, -inf) == a exactly;
above it (n > R_j) the cell it writes has no embedding of the rest of y to its
right, and such a cell is read only by cells with the same defect.  So log Z
is bit for bit that of the full recurrence.  The corridor lies inside
Ukkonen's band (L_j >= j, R_j <= N - M + j).  No DP runs when L does not
exist, as then Z = 0, or when L = R, as then the one embedding gives
log Z = logaddexp(-inf, 0.0) = 0.0.  At M = N the identity is the only
candidate, so the corridor is not built: log Z is 0.0 if x = y, else -inf.
LogDPTable, which sees only weight rows, skips only the entries past its row
count, which are still Z = 0.

The rank-one kernel keeps its row in slots: cell 0, then the cells j+1 with
y_j = 0, then those with y_j = 1, each in order.  A row reading bit b writes a
run of b's cells, one slice of slots, by one in-place logaddexp on sources
gathered into a copy before the write, so each cell gets LogDPTable's operands.

Every other environment runs a banded kernel with LogDPTable's recurrence.
After n rows only the cells max(0, M - N + n) <= m <= min(n, M) can reach
(N, M), since each row moves at most one column.  The upper edge is
LogDPTable's.  The lower edge is exact, because a cell below it feeds only cells
below it in later rows, which the kernel never reads.  The kernel composes
logaddexp(a, b) as max(a, b) + log1p(exp(min(a, b) - max(a, b))) from
vectorised ufuncs.  This is the formula numpy's scalar logaddexp evaluates;
only the exp and log1p code differs, so values agree with LogDPTable to a few
ulps.  An operand of -inf gives the other one exactly.  When both are -inf the
max is clamped to the largest negative float before the subtraction, so the
difference is -inf rather than NaN and the cell stays -inf.  So the cell that
enters the band (m = n), which still holds -inf, gets lw + src exactly:
top + log1p(exp(-inf)) = top + 0.0.  LogDPTable stays the reference route:
verify checks the banded kernel against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .core import BitString, Seed

NEG_INF = float("-inf")
_MOST_NEGATIVE = -np.finfo(float).max

# Rows of i.i.d. weights drawn per generator call: 16 rows of M = 1600 are
# 200 kB, and the per-call overhead is paid once per 16 rows.
_DRAW_ROWS = 16


# ---------------------------------------------------------------------------
# Weight environments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankOneIndicator:
    """B[n, m] = 1 when x_n = y_m, else 0: the two-string embedding count."""

    x: BitString
    y: BitString

    def __post_init__(self):
        if len(self.y) > len(self.x):
            raise ValueError("invalid dimensions: |y| > |x|")

    @property
    def dims(self):
        return len(self.x), len(self.y)

    def log_weight_rows(self) -> Iterator[np.ndarray]:
        ybits = self.y.bits
        for xn in self.x.bits:
            yield np.where(ybits == xn, 0.0, NEG_INF)


@dataclass(frozen=True)
class IidBernoulliHalf:
    """Independent fair-coin 0/1 weights, the mean-field matching environment."""

    n: int
    m: int
    seed: Seed

    def __post_init__(self):
        if not 0 <= self.m <= self.n:
            raise ValueError("invalid dimensions")

    @property
    def dims(self):
        return self.n, self.m

    def log_weight_rows(self) -> Iterator[np.ndarray]:
        # _DRAW_ROWS rows per call, the values of one call per row (see IidGamma).
        rng = self.seed.rng()
        for start in range(0, self.n, _DRAW_ROWS):
            coins = rng.integers(0, 2, size=(min(_DRAW_ROWS, self.n - start), self.m))
            yield from np.where(coins == 1, 0.0, NEG_INF)


@dataclass(frozen=True)
class IidGamma:
    """Independent Gamma(shape, scale) weights, the exactly solvable polymer.

    shape=1, scale=1/2 gives i.i.d. Exponential weights with mean 1/2, matching
    the mean and variance of the fair-coin indicator environment.
    """

    n: int
    m: int
    shape: float
    scale: float
    seed: Seed

    def __post_init__(self):
        if not 0 <= self.m <= self.n:
            raise ValueError("invalid dimensions")
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("invalid environment: Gamma shape and scale must be positive")

    @property
    def dims(self):
        return self.n, self.m

    def log_weight_rows(self) -> Iterator[np.ndarray]:
        # Rows are drawn _DRAW_ROWS at a time; numpy fills a block in row-major
        # order, so the values are those of one call per row.  Gamma(1, s) is
        # computed as s times a standard exponential, which is bit for bit
        # what rng.gamma(1.0, s) returns, through numpy's faster fill loop.  A
        # draw that underflows to 0 (small shapes) has log weight -inf.
        rng = self.seed.rng()
        for start in range(0, self.n, _DRAW_ROWS):
            size = (min(_DRAW_ROWS, self.n - start), self.m)
            if self.shape == 1.0:
                block = rng.standard_exponential(size)
                block *= self.scale
            else:
                block = rng.gamma(self.shape, self.scale, size=size)
            with np.errstate(divide="ignore"):
                np.log(block, out=block)
            yield from block


@dataclass(frozen=True)
class ExplicitMatrix:
    """A fully materialized weight matrix, mainly for tests and tiny examples."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValueError("invalid environment: weights must be a 2-d matrix")
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ValueError("invalid environment: weights must be finite and non-negative")
        object.__setattr__(self, "weights", w)

    @property
    def dims(self):
        return self.weights.shape

    def log_weight_rows(self) -> Iterator[np.ndarray]:
        with np.errstate(divide="ignore"):
            logs = np.log(self.weights)
        yield from logs


Environment = Union[RankOneIndicator, IidBernoulliHalf, IidGamma, ExplicitMatrix]


class LogDPTable:
    """One streaming row of log partition values log Z[n, m] for m = 0..M.

    Entry 0 stays at log 1 = 0 (the empty embedding); -inf encodes Z = 0.
    """

    def __init__(self, m: int):
        self.row = np.full(m + 1, NEG_INF)
        self.row[0] = 0.0
        self.row_index = 0

    def advance(self, log_weights: np.ndarray) -> None:
        # After row_index rows, entries past row_index are still -inf, so this
        # row can change entries 1..row_index+1 only.  The RHS is evaluated
        # before assignment, so row[:k] is the previous row.
        if len(log_weights) != len(self.row) - 1:
            raise ValueError(f"weight row has {len(log_weights)} entries, expected {len(self.row) - 1}")
        k = min(self.row_index + 1, len(self.row) - 1)
        self.row[1:k + 1] = np.logaddexp(self.row[1:k + 1], log_weights[:k] + self.row[:k])
        self.row_index += 1

    @property
    def value(self) -> float:
        return float(self.row[-1])


def _log_count_rank_one(x: BitString, y: BitString) -> float:
    # Same recurrence as LogDPTable.advance, kept to the corridor, with the row
    # in slots (see the module docstring).  Slot s >= 1 holds cell
    # cell_at[s] = order[s - 1] + 1 and reads slot src[s].  Row n, reading
    # x_n = b, writes the cells idx + 1 for the positions idx of b in y with
    # L_idx <= n <= R_idx, one run of slots lo..hi - 1.  O(N + M) memory.
    m = len(y)
    if m == 0:
        return 0.0
    if m == len(x):  # the one candidate embedding is the identity
        return 0.0 if np.array_equal(x.bits, y.bits) else NEG_INF
    bounds = _corridor(x, y)
    if bounds is None:
        return NEG_INF
    left, right = bounds
    if np.array_equal(left, right):
        return 0.0
    ybits = y.bits
    order = np.argsort(ybits, kind="stable")
    cell_at = np.concatenate(([0], order + 1))
    slot = np.argsort(cell_at, kind="stable")  # the inverse: two sorted runs merge in O(M)
    src = slot[cell_at - 1]
    store = np.full(m + 1, NEG_INF)
    store[0] = 0.0
    # L and R increase, so in each bit's run of slots {R_idx >= n} is a suffix
    # and {L_idx <= n} a prefix.  Lifting bit 1's keys and rows by N puts its
    # run after bit 0's, so one search finds either.  Rows outside
    # [L_0, R_{M-1}] update nothing.
    first, last = left[0], right[-1] + 1
    lift = np.array([0, len(x)])
    rows = np.arange(first, last) + lift[x.bits[first:last]]
    starts = 1 + np.searchsorted(right[order] + lift[ybits[order]], rows)
    stops = 1 + np.searchsorted(left[order] + lift[ybits[order]], rows, side="right")
    for lo, hi in zip(memoryview(starts), memoryview(stops)):
        if lo < hi:
            dst = store[lo:hi]
            np.logaddexp(dst, store[src[lo:hi]], out=dst)
    return float(store[slot[m]])


def _band_edges(n: int, m: int, rows: int):
    """(lo, hi): after `rows` weight rows, the cells max(0, M - N + rows) <=
    m <= min(rows, M) can still reach (N, M); cell 0 stays log 1."""
    return max(1, m - n + rows), min(rows, m)


def _band_step(row, log_weights, lo: int, hi: int, scratch) -> None:
    """Advance cells lo..hi of `row` by one weight row: logaddexp(own, lw + src),
    composed as max(a, b) + log1p(exp(min(a, b) - max(a, b))) from vectorised
    ufuncs into the two scratch buffers.  Every src is read before any own is
    written."""
    k = hi - lo + 1
    if k <= 0:
        return
    own = row[lo:hi + 1]
    b, top = scratch[0][:k], scratch[1][:k]
    np.add(log_weights[lo - 1:hi], row[lo - 1:hi], out=b)
    np.maximum(own, b, out=top)
    np.minimum(own, b, out=b)
    # own is free once top and b hold both operands: it takes the max clamped
    # to a finite value, so two -infs give -inf - finite = -inf, never NaN, and
    # the cell stays -inf.  exp sees min - max <= 0, so nothing overflows.
    np.maximum(top, _MOST_NEGATIVE, out=own)
    np.subtract(b, own, out=b)
    np.exp(b, out=b)
    np.log1p(b, out=b)
    np.add(top, b, out=own)


def _log_count_banded(n: int, m: int, log_rows) -> float:
    """log Z from N weight rows, by LogDPTable's recurrence kept to the band
    (see the module docstring).  Returns the same value as LogDPTable to the
    last bits of exp and log1p."""
    row = np.full(m + 1, NEG_INF)
    row[0] = 0.0
    scratch = (np.empty(m), np.empty(m))
    rows = 0
    for rows, log_weights in enumerate(log_rows, 1):
        lo, hi = _band_edges(n, m, rows)
        _band_step(row, log_weights, lo, hi, scratch)
    if rows != n:
        raise ValueError("environment yielded the wrong number of rows")
    return float(row[m])


def log_count_embeddings(env: Environment) -> float:
    """log Z for a weight environment, streamed row by row; -inf iff Z = 0."""
    if isinstance(env, RankOneIndicator):
        return _log_count_rank_one(env.x, env.y)
    return _log_count_banded(*env.dims, env.log_weight_rows())


def count_embeddings_exact(x: BitString, y: BitString):
    """Exact number of strictly increasing embeddings of y into x, as a Python int."""
    n, m = len(x), len(y)
    if m > n:
        raise ValueError(f"invalid dimensions: |y|={m} > |x|={n}")
    row = [0] * (m + 1)
    row[0] = 1
    xb, yb = x.bits, y.bits
    for i in range(n):
        xi = xb[i]
        top = min(i + 1, m)
        for j in range(top, 0, -1):
            if yb[j - 1] == xi:
                row[j] += row[j - 1]
    return row[m]


def _rank(bits: np.ndarray) -> np.ndarray:
    """rank[b, t] = number of positions before t holding bit b."""
    ones = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    return np.stack((np.arange(len(bits) + 1) - ones, ones))


def _next_occurrence(bits: np.ndarray) -> np.ndarray:
    """table[b, t] = least index >= t holding bit b, len(bits) when none."""
    # rank[b, t] positions before t hold b, so the next one is positions_b[rank[b, t]].
    rank = _rank(bits)
    return np.stack([np.append(np.flatnonzero(bits == b), len(bits))[rank[b]] for b in (0, 1)])


def greedy_embed(x: BitString, y: BitString) -> Optional[np.ndarray]:
    """Leftmost embedding of y into x, or None when y is not a subsequence.

    None happens exactly when the embedding count is zero: any embedding sits
    weakly to the right of the greedy one at every step.
    """
    # y_i goes to the first occurrence of its bit after y_{i-1}'s.
    # Memoryviews index and store Python ints without numpy scalars.
    n = len(x)
    nxt = memoryview(_next_occurrence(x.bits))
    out = np.empty(len(y), dtype=np.int64)
    put = memoryview(out)
    t = -1
    for i, bit in enumerate(y.bits.tolist()):
        t = nxt[bit, t + 1]
        if t == n:
            return None
        put[i] = t
    return out


def _corridor(x: BitString, y: BitString):
    """(L, R), the leftmost and rightmost embeddings of y into x, or None when
    there is none.  R is the leftmost embedding of the reversed strings, read
    back from the right end of x."""
    left = greedy_embed(x, y)
    if left is None:
        return None
    right = len(x) - 1 - greedy_embed(x[::-1], y[::-1])[::-1]
    return left, right


def _validate_embedding(x: BitString, y: BitString, sigma) -> np.ndarray:
    sig = np.asarray(sigma, dtype=np.int64)
    if sig.size != len(y):
        raise ValueError("invalid embedding: wrong length")
    if sig.size and (sig[0] < 0 or sig[-1] >= len(x) or np.any(np.diff(sig) <= 0)):
        raise ValueError("invalid embedding: indices must be strictly increasing within x")
    if sig.size and np.any(x.bits[sig] != y.bits):
        raise ValueError("invalid embedding: x[sigma] != y")
    return sig


def skip_vector_of(x: BitString, y: BitString, sigma) -> tuple:
    """Injective encoding of an embedding: entry i counts the occurrences of
    y_i that sigma passes over beyond the earliest available one."""
    sig = _validate_embedding(x, y, sigma)
    ybits = y.bits
    # The earliest available occurrence of y_i, the first at or after t = sigma_{i-1} + 1, has t's rank.
    rank = _rank(x.bits)
    return tuple((rank[ybits, sig] - rank[ybits, np.append(0, sig + 1)[:-1]]).tolist())


def embedding_from_skips(x: BitString, y: BitString, v: tuple) -> Optional[np.ndarray]:
    """The embedding whose skip vector is v (inverting skip_vector_of); None
    when v is not realizable within |x|."""
    if len(v) != len(y):
        raise ValueError("skip vector length must equal |y|")
    if min(v, default=0) < 0:
        raise ValueError("skip vector entries must be non-negative")
    rank = memoryview(_rank(x.bits))
    positions = [np.flatnonzero(x.bits == b).tolist() for b in (0, 1)]
    out = np.empty(len(y), dtype=np.int64)
    t = 0
    # y_i goes to the (v_i + 1)-th occurrence of its bit at or after t, the
    # position after y_{i-1}'s.
    for i, (bit, skip) in enumerate(zip(y.bits.tolist(), v)):
        j = rank[bit, t] + skip
        if j >= len(positions[bit]):
            return None
        out[i] = positions[bit][j]
        t = positions[bit][j] + 1
    return out


def count_common_subsequences(x1: BitString, x2: BitString, m: int):
    """Number of pairs (sigma1, sigma2) of length-m embeddings into x1 and x2
    with x1[sigma1] = x2[sigma2], by the inclusion-exclusion recurrence

        Z[i,j,k] = Z[i-1,j,k] + Z[i,j-1,k] - Z[i-1,j-1,k]
                   + 1{x1_i = x2_j} * Z[i-1,j-1,k-1].

    Exact big integers; two (|x2|+1) x (m+1) planes, O(N1*N2*M) time, so this
    is a desk-scale oracle, not a large-N kernel.
    """
    n1, n2 = len(x1), len(x2)
    if m < 0 or m > min(n1, n2):
        raise ValueError(f"invalid dimensions: need 0 <= m <= min({n1}, {n2})")
    width = m + 1
    prev = [[1] + [0] * m for _ in range(n2 + 1)]
    for i in range(1, n1 + 1):
        cur = [[1] + [0] * m for _ in range(n2 + 1)]
        b1 = x1.bits[i - 1]
        for j in range(1, n2 + 1):
            match = b1 == x2.bits[j - 1]
            row = cur[j]
            pj, cj, pj1 = prev[j], cur[j - 1], prev[j - 1]
            for k in range(1, width):
                val = pj[k] + cj[k] - pj1[k]
                if match:
                    val += pj1[k - 1]
                row[k] = val
        prev = cur
    return prev[n2][m]

