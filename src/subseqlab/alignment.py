"""Block-alignment statistics between an ambient string and a candidate
subsequence: displacement, local alignment, exact DP optimization of the two
total-alignment scores, the standardization map between the two partition
families, and good-set membership.

An ambient x of length B*b is cut into B fixed blocks of length b.  A
partition of y into B ordered blocks (lengths 0..b) is

  * induced     when at most floor(gamma*B) block lengths fall outside
                [(1-delta)*alpha*b, (1+delta)*alpha*b],
  * standardized when at most floor(3*gamma*B) block lengths differ from the
                per-index rounding of alpha*b,

with delta = b^(-1/2+eps) and gamma = b^(-eps).  The local alignment of block
i is 0 when the block majorities disagree (ties count as majority 1) and
min(1, delta * displacement(y-block)) otherwise, which collapses to the single
expression clip(delta * s_i * d, 0, 1) for the x-block majority sign s_i and
the y-block bit-sum difference d.  Total alignment is the exact supremum of
the average local alignment over the partition family.

It is computed from one DP row and a certificate.  A block sweep over the
consumed prefix of y with no conforming requirement gives the supremum over all
partitions; one optimal path, read back preferring conforming lengths on ties,
certifies it when it has the conforming blocks the family needs.  Otherwise the
same sweep reruns over (consumed prefix, conforming blocks capped at the need).
Both are exact in floats: rounding is monotone, so a max-plus DP returns the
largest left-to-right float sum over its paths, and a certified witness lies in
the family and attains the unconstrained largest sum.

A block's gain depends only on its x-block's sign and its own length and end
in y, so each score builds two (min(b, |y|) + 1) x (|y| + 1) float64 gain
tables indexed by (length, end), one per sign (3.3 MB at b = 64, 53 MB at
b = 256), and both sweeps and the witness read them.  Each cell is the clip
expression evaluated with the same float operations, so the scores are the
same bits.  The sweep takes each block's lengths in chunks, one numpy add and
one max per chunk, through a scratch buffer of _SCRATCH floats (512 kB), so
its working set beyond the tables and the DP rows is bounded at every b.
The separation experiment runs its trials through core.fan_out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .capacity import beta_star
from .core import (
    BitString,
    Seed,
    embedded_length,
    exact_floor,
    fan_out,
    is_typical,
    sample_planted,
    sample_uniform_string,
)

NEG_INF = float("-inf")


@dataclass(frozen=True)
class AlignmentParams:
    """Window and budget parameters for one (ambient length, block length) pair.

    epsilon defaults to 1/24; overriding it is how tests reach parameter
    regimes where the budgets actually bind at desk scale.
    """

    alpha: float
    b: int
    n: int
    epsilon: float = 1.0 / 24.0

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.b < 1 or self.n < self.b:
            raise ValueError("need 1 <= b <= n")
        if self.n % self.b:
            # The DP cuts x into n // b blocks; a remainder would be left out
            # of every block while y may still be drawn from it.
            raise ValueError(f"n must be a multiple of b, got n={self.n}, b={self.b}")
        if not 0 < self.epsilon <= 0.5:
            raise ValueError("epsilon must lie in (0, 1/2]")
        if self.delta * self.alpha * self.b < 1:
            warnings.warn(
                f"delta*alpha*b = {self.delta * self.alpha * self.b:.3g} < 1: "
                "alignment windows are degenerate at these parameters"
            )

    @property
    def delta(self) -> float:
        return self.b ** (-0.5 + self.epsilon)

    @property
    def gamma(self) -> float:
        return self.b ** (-self.epsilon)

    @property
    def big_b(self) -> int:
        return self.n // self.b

    @property
    def beta_star(self) -> float:
        return beta_star(self.alpha)

    @property
    def induced_budget(self) -> int:
        return exact_floor(self.gamma * self.big_b)

    @property
    def standardized_budget(self) -> int:
        return exact_floor(3.0 * self.gamma * self.big_b)

    @property
    def scan_cap(self) -> int:
        # Longest run of conforming blocks the standardization pass reads
        # before forcing a stop ("counter capped at b^epsilon").
        return max(1, exact_floor(self.b**self.epsilon))

    def window_ints(self):
        """Smallest and largest integer lengths in the induced window, clipped to [0, b]."""
        ab = self.alpha * self.b
        lo = max(0, -exact_floor(-(1.0 - self.delta) * ab))
        hi = min(self.b, exact_floor((1.0 + self.delta) * ab))
        return lo, hi

    def std_targets(self) -> np.ndarray:
        """Per-index block-length targets: the rounding of alpha*b whose prefix
        sums stay within 1 of alpha*b*k."""
        ab = self.alpha * self.b
        return np.diff([exact_floor(ab * k) for k in range(self.big_b + 1)])


def displacement(z: BitString) -> int:
    """|#ones - #zeros| of the string."""
    return abs(2 * int(z.bits.sum(dtype=np.int64)) - len(z))


def _majority(z: BitString) -> int:
    # Majority bit with ties resolved to 1.
    return 1 if 2 * int(z.bits.sum(dtype=np.int64)) >= len(z) else 0


def local_alignment(x_block: BitString, y_block: BitString, delta: float) -> float:
    """0 on majority mismatch, else min(1, delta * displacement(y_block))."""
    if _majority(x_block) != _majority(y_block):
        return 0.0
    return min(1.0, delta * displacement(y_block))


@dataclass(frozen=True)
class Partition:
    """Ordered block lengths of a partition of y; offsets are the prefix sums."""

    block_lengths: tuple

    def __post_init__(self):
        lens = tuple(int(v) for v in self.block_lengths)
        if any(v < 0 for v in lens):
            raise ValueError("block lengths must be non-negative")
        object.__setattr__(self, "block_lengths", lens)

    @property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.block_lengths)]).astype(np.int64)

    def blocks(self, y: BitString):
        off = self.offsets
        return [y[off[i]:off[i + 1]] for i in range(len(self.block_lengths))]


def _family(params: AlignmentParams, standardized: bool):
    """A family's rule: the (B, 2) table of each block's conforming lengths
    [lo, hi], and the budget of blocks that may be off it.  Induced blocks
    conform inside the window, standardized ones at their index's target."""
    if standardized:
        targets = params.std_targets()
        return np.stack([targets, targets], axis=1), params.standardized_budget
    return np.tile(params.window_ints(), (params.big_b, 1)), params.induced_budget


def _is_member(part: Partition, m: int, params: AlignmentParams, standardized: bool) -> bool:
    # B blocks summing to m, each at most b, and at most the budget off the family.
    lens = part.block_lengths
    if len(lens) != params.big_b or sum(lens) != m or any(v > params.b for v in lens):
        return False
    conforming, budget = _family(params, standardized)
    return np.count_nonzero((conforming[:, 0] > lens) | (conforming[:, 1] < lens)) <= budget


def is_induced_member(part: Partition, m: int, params: AlignmentParams) -> bool:
    return _is_member(part, m, params, standardized=False)


def is_standardized_member(part: Partition, m: int, params: AlignmentParams) -> bool:
    return _is_member(part, m, params, standardized=True)


def _block_signs(x: BitString, params: AlignmentParams) -> np.ndarray:
    b, big_b = params.b, params.big_b
    sums = x.bits[: big_b * b].reshape(big_b, b).sum(axis=1, dtype=np.int64)
    return np.where(2 * sums >= b, 1.0, -1.0)


def _gain_tables(y: BitString, params: AlignmentParams) -> dict:
    """The local alignment of every y-block against an x-block of each majority
    sign s = +-1, by where the block ends: tables[s][L, p] = clip(delta * s *
    (walk[p] - walk[p-L]), 0, 1) for the +-1 prefix walk of y, 0 <= L <=
    min(b, |y|) and L <= p <= |y|, and -inf for p < L.  Each (min(b, |y|) + 1)
    x (|y| + 1) float64 table is built in place, with no temporary its size."""
    m, k = len(y), min(params.b, len(y))
    walk = np.concatenate([np.zeros(k + 1), np.cumsum(2 * y.bits.astype(np.int64) - 1)])  # k zeros, then the walk
    # behind[L, p] = walk[p - L] for p >= L (and 0 for p < L)
    behind = np.lib.stride_tricks.as_strided(walk[k:], (k + 1, m + 1), (-8, 8), writeable=False)
    plus, minus = np.empty((k + 1, m + 1)), np.empty((k + 1, m + 1))
    np.subtract(walk[k:], behind, out=plus)
    np.multiply(params.delta * -1.0, plus, out=minus)
    np.multiply(params.delta * 1.0, plus, out=plus)
    for table in (plus, minus):
        np.clip(table, 0.0, 1.0, out=table)
        for length in range(1, k + 1):
            table[length, :length] = NEG_INF
    return {1.0: plus, -1.0: minus}


def _dp_inputs(x: BitString, y: BitString, params: AlignmentParams, standardized: bool):
    """The sweep's inputs (each x-block's gain table, by reference into the two
    per-sign tables, and the (B, 2) table of each block's conforming lengths)
    and the conforming blocks required."""
    b, big_b = params.b, params.big_b
    if len(x) // b != big_b:
        raise ValueError("dimension mismatch: params were built for a different ambient length")
    m = len(y)
    if m > big_b * b:
        raise ValueError(f"dimension mismatch: |y|={m} exceeds B*b={big_b * b}")
    tables = _gain_tables(y, params)
    gains = [tables[s] for s in _block_signs(x, params)]
    conforming, budget = _family(params, standardized)
    return (gains, conforming), max(0, big_b - budget)


# Candidate sums per np.add in the sweep: 512 kB, which a second-level cache holds.
_SCRATCH = 2**16


def _sweep(gains, conforming, rows: int):
    """The block sweep with `rows` rows of conforming-block counts; one row
    drops the conforming requirement.  Yields (lo, f[:, lo:hi+1]) for the
    start state and after each block.

    f[c, p] is the best gain with p symbols of y consumed in c conforming
    blocks (capped at rows - 1).  After i blocks only p in [m - (B-i)*k, i*k]
    can reach f[rows - 1, m], for k = min(b, m), so block i writes that window
    for i+1; every other cell stays -inf.  f is stored after k leading -inf
    columns, so f[:, p - L] for all lags L in [0, k] is one strided view, and
    new[:, p] is the max over L of f[:, p - L] + gains[i][L, p], taken over
    chunks of lengths (and tiles of p) that fill the scratch buffer.  A
    multi-row sweep reduces a block's conforming lengths, which move to the
    next count row, apart from the others.  The sums are the ones a
    length-by-length loop forms (plus -inf out of reach) and max is exact, so
    the bands are the same bits.
    """
    big_b, top = len(conforming), rows - 1
    k, m = gains[0].shape[0] - 1, gains[0].shape[1] - 1
    scratch = np.empty(max(_SCRATCH, rows))
    reduced = np.empty((rows, min(m + 1, len(scratch) // (2 * rows))))
    f = np.full((rows, k + m + 1), NEG_INF)
    f[0, k] = 0.0
    yield 0, f[:, k:k + 1]
    for i in range(big_b):
        lo, hi = max(0, m - (big_b - i - 1) * k), min(m, (i + 1) * k)
        w = hi - lo + 1
        # lagged[c, L, j] = f[c, lo + j - L]
        lagged = np.lib.stride_tricks.as_strided(
            f[:, k + lo:], (rows, k + 1, w), (f.strides[0], -8, 8), writeable=False)
        table = gains[i][:, lo:hi + 1]
        new = np.full_like(f, NEG_INF)
        out = new[:, k + lo:k + hi + 1]
        c_lo, c_hi = max(0, conforming[i, 0]), min(k, conforming[i, 1])
        segments = [(0, k + 1, False)]
        if top and c_lo <= c_hi:
            segments = [(0, c_lo, False), (c_lo, c_hi + 1, True), (c_hi + 1, k + 1, False)]
        tile = min(w, len(scratch) // rows)
        step = len(scratch) // (rows * tile)
        for first, stop, conf in segments:
            for j in range(0, w, tile):
                dst = out[:, j:j + tile]
                span = dst.shape[1]
                for a in range(first, stop, step):
                    n = min(step, stop - a)
                    cand = scratch[:rows * n * span].reshape(rows, n, span)
                    np.add(lagged[:, a:a + n, j:j + span], table[a:a + n, j:j + span], out=cand)
                    if n > 1:
                        cand = np.maximum.reduce(cand, axis=1, out=reduced[:, :span])[:, None]
                    if conf:
                        np.maximum(dst[1:], cand[:-1, 0], out=dst[1:])
                        np.maximum(dst[top], cand[top, 0], out=dst[top])
                    else:
                        np.maximum(dst, cand[:, 0], out=dst)
        f = new
        yield lo, out


def _witness_conforming(history, gains, conforming) -> int:
    """Conforming blocks on one path that attains the one-row maximum at
    (B, m), read back from the one-row sweep's bands; where several block
    lengths attain it, a conforming one is taken.  The gains are read from the
    sweep's own per-sign tables, so each sum is bit-for-bit the one the sweep
    formed and the match against cur[p] is exact."""
    k, p, count = gains[0].shape[0] - 1, gains[0].shape[1] - 1, 0
    for i in range(len(gains) - 1, -1, -1):
        (prev_lo, prev), (cur_lo, cur) = history[i], history[i + 1]
        # hit[j]: the block of length p - q, q = a + j, ends a path that attains cur[p].
        a, z = max(prev_lo, p - k), min(prev_lo + len(prev) - 1, p)
        hit = prev[a - prev_lo:z - prev_lo + 1] + gains[i][p - z:p - a + 1, p][::-1] == cur[p - cur_lo]
        # The conforming lengths [c0, c1] are the q in [p - c1, p - c0].
        c0, c1 = conforming[i].tolist()
        first = max(0, p - a - c1)
        conf = hit[first:max(0, p - a - c0 + 1)]
        if conf.any():
            count, a, hit = count + 1, a + first, conf
        p = a + int(np.argmax(hit))
    return count


def _total_alignment(x: BitString, y: BitString, params: AlignmentParams, standardized: bool) -> float:
    dp, required = _dp_inputs(x, y, params, standardized)
    m = len(y)
    history = [(lo, band[0].copy()) for lo, band in _sweep(*dp, 1)]
    lo, last = history[-1]
    best = last[m - lo]
    if required and best != NEG_INF and _witness_conforming(history, *dp) < required:
        del history  # so the two sweeps' arrays are never held at once
        for lo, band in _sweep(*dp, required + 1):
            pass
        best = band[required, m - lo]
    return float(best) / params.big_b


def total_alignment_ind(x: BitString, y: BitString, params: AlignmentParams) -> float:
    """Exact supremum of the average local alignment over induced partitions;
    -inf when the family is empty."""
    return _total_alignment(x, y, params, standardized=False)


def total_alignment_std(x: BitString, y: BitString, params: AlignmentParams) -> float:
    """Exact supremum over standardized partitions; -inf when the family is empty."""
    return _total_alignment(x, y, params, standardized=True)


def is_good(x: BitString, y: BitString, params: AlignmentParams) -> bool:
    """Membership in the aligned set: induced total alignment >= 1/2 + beta*."""
    m = embedded_length(params.alpha, len(x))
    if len(y) != m:
        raise ValueError(f"dimension mismatch: |y|={len(y)} but floor(alpha*|x|)={m}")
    return total_alignment_ind(x, y, params) >= 0.5 + params.beta_star


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------


def standardize(y: BitString, part: Partition, params: AlignmentParams) -> Partition:
    """Map an induced partition to a standardized one.

    Left-to-right scan in runs: a run stops at its first exceptional block,
    after scan_cap conforming blocks, or at the last block.  An exceptional
    stop block is copied verbatim; the block before it, or else the stop
    block itself, is the run's slack block.  The blocks before the slack
    block take their target lengths and the slack block takes the rest of the
    run's length, so the concatenated prefix is preserved at every stop (an
    exceptional first block of a run has no slack block and an empty
    standardized prefix).
    """
    if not is_induced_member(part, len(y), params):
        raise ValueError("invalid input partition: not an induced near-equipartition")
    lens = part.block_lengths
    big_b, cap = params.big_b, params.scan_cap
    lo, hi = params.window_ints()
    targets = params.std_targets().tolist()
    out = list(lens)
    start = 0  # index of the first unprocessed block
    while start < big_b:
        stop = start
        while lo <= lens[stop] <= hi and stop - start + 1 < cap and stop < big_b - 1:
            stop += 1
        slack = stop if lo <= lens[stop] <= hi else stop - 1
        if slack >= start:
            out[start:slack] = targets[start:slack]
            out[slack] = sum(lens[start:slack + 1]) - sum(targets[start:slack])
            if not 0 <= out[slack] <= params.b:
                raise ValueError(
                    "standardization slack fell outside [0, b]; the window parameters "
                    "are too tight for this block length"
                )
        start = stop + 1
    return Partition(tuple(out))


# ---------------------------------------------------------------------------
# The separation experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentExperiment:
    alpha: float
    b: int
    n: int
    trials: int
    planted_good: int
    null_good: int

    @property
    def planted_frequency(self) -> float:
        return self.planted_good / self.trials

    @property
    def null_frequency(self) -> float:
        return self.null_good / self.trials


TYPICAL_RETRIES = 64  # draws per trial and law that may be spent finding a typical x


def trial_pairs(params: AlignmentParams, seed: Seed) -> tuple:
    """One trial's ("planted", x, y) and ("null", x, y), on typical ambient
    strings of length params.n and |y| = floor(alpha n), drawn from the
    substreams seed + [0, 1000): the planted pair from +0, the null x from
    +100 and the null y from +200.  Each law redraws x from successive
    substreams, up to TYPICAL_RETRIES times, until it is typical, and raises
    ValueError when none is."""
    n, b = params.n, params.b
    m = embedded_length(params.alpha, n)

    def first_typical(draw, ambient, stream):
        for retry in range(TYPICAL_RETRIES):
            d = draw(seed.substream(stream + retry))
            if is_typical(ambient(d), b):
                return d
        raise ValueError(f"no typical ambient string at b = {b} in {TYPICAL_RETRIES} draws")

    d = first_typical(lambda s: sample_planted(n, m, s), lambda d: d.x, 0)
    x = first_typical(lambda s: sample_uniform_string(n, s), lambda x: x, 100)
    return ("planted", d.x, d.y), ("null", x, sample_uniform_string(m, seed.substream(200)))


def _trial_goods(params: AlignmentParams, seed: Seed) -> tuple:
    return tuple(is_good(x, y, params) for _, x, y in trial_pairs(params, seed))


def alignment_experiment(alpha: float, b: int, n: int, trials: int, seed: Seed) -> AlignmentExperiment:
    """Good-set frequencies under the planted and null laws on typical ambient
    strings: the desk-scale separation witness.  Trial t draws from
    seed.substream(1000 t)."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    params = AlignmentParams(alpha=alpha, b=b, n=n)
    goods = fan_out(_trial_goods, [(params, seed.substream(1000 * t)) for t in range(trials)])
    planted_good, null_good = map(sum, zip(*goods))
    return AlignmentExperiment(alpha, b, n, trials, planted_good, null_good)
