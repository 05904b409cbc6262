"""Quenched free-energy estimation and the capacity / polymer curves.

Sample i of every estimator draws its randomness from seed.substream(i), so
results do not depend on execution order or worker count, and identical
(config, seed) pairs reproduce identical tables.  Samples with Z = 0
contribute log Z := 0 to the mean (they are impossible under the planted law,
where the planted embedding is a witness) and are reported via zero_fraction
so callers can re-weight.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .capacity import dgv_lower_bound, upper_bound_uniform_capacity
from .annealed import LN2, strict_weak_value
from .core import Seed, all_bitstrings, embedded_length, sample_channel, sample_null, sample_planted
from .partition import (
    IidBernoulliHalf,
    IidGamma,
    RankOneIndicator,
    count_embeddings_exact,
    log_count_embeddings,
)
from .special import binary_entropy

NULL = "null"
PLANTED = "planted"
PLANTED_BDC = "planted-bdc"
BERNOULLI_MATCHING = "bernoulli-matching"
STRICT_WEAK = "strict-weak"

# Strict-weak weights: Exponential of mean 1/2, matching a fair coin's mean and variance.
GAMMA_SHAPE, GAMMA_SCALE = 1.0, 0.5


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Monte Carlo estimate of (1/N) E[log Z] with its sampling error."""

    alpha: float
    n: int
    samples: int
    mean: float
    stderr: float
    zero_fraction: float


def _sample_mean(environment, alpha: float, n: int, samples: int, seed: Seed) -> FreeEnergyEstimate:
    """The sample loop shared by every estimator: sample i runs the log-domain
    DP on environment(seed.substream(i)) and contributes (1/n) log Z, with
    log 0 := 0 and the zero count reported as zero_fraction."""
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    values = np.empty(samples)
    zeros = 0
    for i in range(samples):
        logz = log_count_embeddings(environment(seed.substream(i)))
        if logz == float("-inf"):
            zeros += 1
            logz = 0.0
        values[i] = logz / n
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return FreeEnergyEstimate(alpha=alpha, n=n, samples=samples, mean=mean, stderr=stderr, zero_fraction=zeros / samples)


def estimate_quenched(model: str, alpha: float, n: int, samples: int, seed: Seed) -> FreeEnergyEstimate:
    """Per-sample: draw disorder, run the log-domain DP, average (1/n) log Z.

    model is "null" or "planted" at M = floor(alpha n) (the floor of the exact
    decimal product, see core.embedded_length), or "planted-bdc"
    (core.sample_channel at p = 1 - alpha, the planted law at a random M).
    "null" warns at alpha >= 1/2, where Z = 0 at least about half the time.
    """
    if model == NULL and alpha >= 0.5:
        warnings.warn("null disorder at alpha >= 1/2 has Z = 0 about half the time at 1/2 and with "
                      "high probability above it; the mean leans on the log 0 := 0 convention")
    m = embedded_length(alpha, n)
    draw = {
        NULL: lambda sub: sample_null(n, m, sub),
        PLANTED: lambda sub: sample_planted(n, m, sub),
        PLANTED_BDC: lambda sub: sample_channel(n, 1.0 - alpha, sub),
    }.get(model)
    if draw is None:
        raise ValueError(f"unknown disorder model {model!r}")

    def environment(sub):
        d = draw(sub)
        return RankOneIndicator(d.x, d.y)

    return _sample_mean(environment, alpha, n, samples, seed)


def estimate_polymer(env_kind: str, alpha: float, n: int, samples: int, seed: Seed) -> FreeEnergyEstimate:
    """Quenched estimate for an i.i.d. weight environment: "bernoulli-matching"
    (fair 0/1 coins) or "strict-weak" (Gamma(GAMMA_SHAPE, GAMMA_SCALE) weights)."""
    m = embedded_length(alpha, n)
    if env_kind == BERNOULLI_MATCHING:
        return _sample_mean(lambda sub: IidBernoulliHalf(n, m, sub), alpha, n, samples, seed)
    if env_kind == STRICT_WEAK:
        return _sample_mean(lambda sub: IidGamma(n, m, GAMMA_SHAPE, GAMMA_SCALE, sub), alpha, n, samples, seed)
    raise ValueError(f"unknown environment kind {env_kind!r}")


@dataclass(frozen=True)
class CurveSpec:
    """Grid configuration for capacity / free-energy curves."""

    grid: tuple
    n: int = 10_000
    samples: int = 8
    seed: Seed = Seed(42)

    def __post_init__(self):
        g = tuple(float(v) for v in self.grid)
        if not g:
            raise ValueError("grid must be non-empty")
        if any(not 0 <= v < 1 for v in g) or any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("grid must be strictly increasing with values in [0, 1)")
        object.__setattr__(self, "grid", g)


def curve(point, spec: CurveSpec) -> list:
    """Map point(v, n, samples, seed) over spec.grid, in grid order.

    Grid point g draws from spec.seed.substream(g * spec.samples), so its
    samples use disjoint substreams and the rows do not depend on the worker
    count.  RSM_THREADS > 1 fans the points out to that many worker
    processes; point must then be a picklable top-level function.
    """
    raw = os.environ.get("RSM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"RSM_THREADS must be a positive integer, got {raw!r}")
    work = [(v, spec.n, spec.samples, spec.seed.substream(g * spec.samples)) for g, v in enumerate(spec.grid)]
    if workers == 1 or len(work) <= 1:
        return [point(*args) for args in work]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(point, *args) for args in work]
        return [f.result() for f in futures]


@dataclass(frozen=True)
class MutualInfoRow:
    p: float
    lower_dgv: float
    mc_capacity: float
    mc_stderr: float
    upper_annealed: float
    zero_fraction: float


def mutual_info_point(p: float, n: int, samples: int, seed: Seed) -> MutualInfoRow:
    """One grid point of the capacity curve: alpha ln 2 - h(alpha) + planted mean."""
    alpha = 1.0 - p
    est = estimate_quenched(PLANTED, alpha, n, samples, seed)
    mc = alpha * LN2 - binary_entropy(alpha) + est.mean
    return MutualInfoRow(
        p=p,
        lower_dgv=dgv_lower_bound(p),
        mc_capacity=mc,
        mc_stderr=est.stderr,
        upper_annealed=upper_bound_uniform_capacity(p),
        zero_fraction=est.zero_fraction,
    )


@dataclass(frozen=True)
class PolymerComparisonRow:
    alpha: float
    strict_weak_exact: float
    null_mc: float
    null_mc_stderr: float
    null_zero_fraction: float


def polymer_point(alpha: float, n: int, samples: int, seed: Seed) -> PolymerComparisonRow:
    """One grid point of the polymer comparison: the simulated null model beside
    the exactly solvable Gamma(GAMMA_SHAPE, GAMMA_SCALE) polymer."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="null disorder at alpha >= 1/2")
        est = estimate_quenched(NULL, alpha, n, samples, seed)
    return PolymerComparisonRow(
        alpha=alpha,
        strict_weak_exact=strict_weak_value(GAMMA_SHAPE, GAMMA_SCALE, alpha),
        null_mc=est.mean,
        null_mc_stderr=est.stderr,
        null_zero_fraction=est.zero_fraction,
    )


def check_alpha_grid(grid: tuple) -> tuple:
    """The grid itself when it is strictly increasing in (0, 1/2], the range of
    the polymer comparison; ValueError otherwise."""
    if any(not 0 < a <= 0.5 for a in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"alpha grid must be strictly increasing with values in (0, 1/2], got {grid}")
    return grid


def polymer_comparison_curve(spec: CurveSpec) -> list:
    """Exactly solvable Gamma-polymer value vs the simulated null model over an
    alpha grid in (0, 1/2]."""
    check_alpha_grid(spec.grid)
    return curve(polymer_point, spec)


# ---------------------------------------------------------------------------
# Size-bias identity between the null and planted laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapReport:
    """Both sides of E[log Z_planted] = (2^M / C(N, M)) E[Z_null log Z_null]."""

    n: int
    m: int
    planted_side: float
    null_side: float


def planted_counts(n: int, m: int):
    """Yield Z(x, x[sigma*]) for every x in all_bitstrings(n) and, for each x,
    every m-subset sigma* in lexicographic order: the planted law's draws."""
    subsets = [np.array(sigma, dtype=np.int64) for sigma in itertools.combinations(range(n), m)]
    for x in all_bitstrings(n):
        for sigma in subsets:
            yield count_embeddings_exact(x, x.take(sigma))


def null_planted_gap_experiment(alpha: float, n: int) -> GapReport:
    """Both sides of the size-bias relation between the two laws, exactly:
    every (x, sigma*) for the planted side and every (x, y) pair for the null
    side (n <= 12)."""
    if n > 12:
        raise ValueError("exhaustive enumeration requires n <= 12")
    m = embedded_length(alpha, n)
    strings = list(all_bitstrings(n))
    # Planted side: average log Z over all (x, sigma*).
    planted_total = 0.0
    for z in planted_counts(n, m):
        planted_total += math.log(z)
    planted_side = planted_total / (len(strings) * math.comb(n, m))
    # Null side: (2^m / C(n, m)) * average of Z log Z over all (x, y).
    null_total = 0.0
    for x in strings:
        for y in all_bitstrings(m):
            z = count_embeddings_exact(x, y)
            if z > 0:
                null_total += z * math.log(z)
    null_mean = null_total / (len(strings) * (1 << m))
    null_side = (2**m / math.comb(n, m)) * null_mean
    return GapReport(n=n, m=m, planted_side=planted_side, null_side=null_side)
