"""The benchmark's workloads.

Each workload runs one finished table through the public entry points
(subseqlab.cli.main and the montecarlo estimators), then turns what the
probes captured into operations, one per Monte Carlo sample or alignment
trial, each carrying the problems the checks found.  An operation whose
rank-one sample still needs the generic-route check carries that sample; the
check runs after the repetition, outside the timed region.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks
from subseqlab import cli, montecarlo
from subseqlab.core import Seed


@dataclass(frozen=True)
class Sizes:
    figure1_n: int = 10_000
    # Both ends of the default figure1 grid, alpha = 1 - p from 1 down to
    # 0.05.  Floats put floor(alpha*N) one short at p = 0.8 and 0.9; those
    # points stay so that the defect shows as failed samples.
    figure1_grid: str = "0,0.5,0.8,0.9,0.95"
    figure2_n: int = 10_000
    # Up to alpha = 1/2, where half the null samples have Z = 0.
    figure2_alphas: str = "0.05,0.25,0.45,0.5"
    # Acceptance criterion 6: N = 4000 over alpha in 0.1..0.4.
    gamma_n: int = 4000
    gamma_alphas: str = "0.1,0.2,0.3,0.4"
    # Acceptance criterion 12.
    align_alpha: str = "0.5"
    align_b: int = 64
    align_n: int = 6400
    align_trials: int = 2


FULL = Sizes()
TINY = Sizes(figure1_n=300, figure2_n=300, gamma_n=1000, align_b=16, align_n=320, align_trials=1)


@dataclass
class Op:
    """One sample or trial and the problems found with it."""

    label: str
    problems: list = field(default_factory=list)
    sample: object = None  # probes.Sample awaiting the generic-route check
    expected_m: int = 0


def _read_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _crashed(labels, rc):
    return [Op(label, [("wrong", f"run exited with code {rc}")]) for label in labels]


def _figure_ops(grid, m_exact, samples, rows, columns, value_of):
    """One operation per grid point, which runs --samples 1: its sample and
    the table row the sample produced."""
    labels = [f"{columns[0]}={g}" for g in grid]
    if len(samples) != len(grid) or len(rows) != len(grid):
        return [Op(label, [("wrong", f"{len(samples)} samples and {len(rows)} rows "
                                     f"for {len(grid)} grid points")]) for label in labels]
    ops = []
    for label, text, sample, row in zip(labels, grid, samples, rows):
        zero = sample.logz == -math.inf
        mean = 0.0 if zero else sample.logz / sample.n  # the estimators' log 0 := 0
        problems = (checks.table_value(columns[1], float(row[columns[1]]), value_of(text, mean))
                    + checks.table_value(columns[2], float(row[columns[2]]), float(zero)))
        ops.append(Op(label, problems, sample, m_exact(text)))
    return ops


def _entropy(a: float) -> float:
    return -sum(t * math.log(t) for t in (a, 1.0 - a) if t > 0)


# -- capacity-curve ---------------------------------------------------------


def run_capacity(seed: int, sizes: Sizes, out: Path):
    return cli.main([
        "figure1", "--grid", sizes.figure1_grid, "--n", str(sizes.figure1_n),
        "--samples", "1", "--seed", str(seed),
        "--out", str(out / "figure1.csv"), "--svg", str(out / "figure1.svg"),
    ]), None


def capacity_ops(rc, extra, records, sizes: Sizes, out: Path):
    grid = sizes.figure1_grid.split(",")
    if rc != 0:
        return _crashed([f"p={p}" for p in grid], rc)
    n = sizes.figure1_n

    def capacity(p_text, mean):
        a = float(1 - Fraction(p_text))
        return a * math.log(2.0) - _entropy(a) + mean

    return _figure_ops(
        grid, lambda p: checks.exact_length(1 - Fraction(p), n), records[0],
        _read_rows(out / "figure1.csv"), ("p", "mc_capacity", "zero_fraction"), capacity,
    )


# -- null-polymer -----------------------------------------------------------


def run_null_polymer(seed: int, sizes: Sizes, out: Path):
    rc = cli.main([
        "figure2", "--alphas", sizes.figure2_alphas, "--n", str(sizes.figure2_n),
        "--samples", "1", "--seed", str(seed),
        "--out", str(out / "figure2.csv"), "--svg", str(out / "figure2.svg"),
    ])
    estimates = [
        montecarlo.estimate_polymer(montecarlo.STRICT_WEAK, float(a), sizes.gamma_n, 1,
                                    Seed(seed, 1 << 40).substream(g))
        for g, a in enumerate(sizes.gamma_alphas.split(","))
    ]
    return rc, estimates


def null_polymer_ops(rc, estimates, records, sizes: Sizes, out: Path):
    grid = sizes.figure2_alphas.split(",")
    if rc != 0:
        ops = _crashed([f"alpha={a}" for a in grid], rc)
    else:
        n = sizes.figure2_n
        ops = _figure_ops(
            grid, lambda a: checks.exact_length(a, n), records[0],
            _read_rows(out / "figure2.csv"), ("alpha", "null_mc", "null_zero_fraction"),
            lambda a, mean: mean,
        )
    gamma = sizes.gamma_alphas.split(",")
    dps = records[1]  # one Gamma-environment DP per one-sample estimate
    if len(dps) != len(gamma):
        return ops + [Op(f"strict-weak alpha={a}", [("wrong", f"{len(dps)} generic DPs for "
                                                            f"{len(gamma)} estimates")]) for a in gamma]
    for a, est, (_, m_used, _) in zip(gamma, estimates, dps):
        problems = checks.gamma_estimate(a, est.mean)
        m = checks.exact_length(a, sizes.gamma_n)
        if m_used != m:
            problems.append(("defect", f"Gamma environment has M = {m_used}, exact M = {m}"))
        ops.append(Op(f"strict-weak alpha={a}", problems))
    return ops


# -- alignment-separation ---------------------------------------------------


def run_alignment(seed: int, sizes: Sizes, out: Path):
    return cli.main([
        "alignment-experiment", "--alpha", sizes.align_alpha, "--b", str(sizes.align_b),
        "--n", str(sizes.align_n), "--trials", str(sizes.align_trials), "--seed", str(seed),
        "--out", str(out / "alignment.csv"),
    ]), None


def alignment_ops(rc, extra, records, sizes: Sizes, out: Path):
    labels = [law for _ in range(sizes.align_trials) for law in ("planted", "null")]
    if rc != 0:
        return _crashed(labels, rc)
    trials = records[2]
    if len(trials) != len(labels):
        return [Op(label, [("wrong", f"{len(trials)} is_good calls for {len(labels)} trials")])
                for label in labels]
    m = checks.exact_length(sizes.align_alpha, sizes.align_n)
    rows = {r["law"]: r for r in _read_rows(out / "alignment.csv")}
    ops = []
    for k, (label, trial) in enumerate(zip(labels, trials)):
        row = rows.get(label)
        good = sum(t.good for t in trials[k % 2::2])
        problems = checks.alignment_trial(trial, m)
        if row is None or int(row["good_count"]) != good or int(row["trials"]) != sizes.align_trials:
            problems.append(("wrong", f"table row {row} disagrees with {good} good {label} trials"))
        ops.append(Op(label, problems))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: object  # (seed, sizes, out) -> (exit code, extra), the timed part
    operations: object  # (exit code, extra, probe records, sizes, out) -> [Op]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "capacity-curve",
            "figure1 at N=10^4, alpha 1..0.05 (the headline figure): stresses the rank-one "
            "kernel, nearly all of run_s; bypasses the generic DP and alignment",
            run_capacity, capacity_ops,
        ),
        Workload(
            "null-polymer",
            "figure2 null law up to alpha=1/2 (Z=0 half the time) plus strict-weak Gamma "
            "estimates: stresses the generic DP and weight RNG; bypasses alignment",
            run_null_polymer, null_polymer_ops,
        ),
        Workload(
            "alignment-separation",
            "alignment-experiment at alpha=0.5, b=64, N=6400: is_good's DP is ~all of a "
            "trial; bypasses partition, so every kernel change predicts no change here",
            run_alignment, alignment_ops,
        ),
    )
}
