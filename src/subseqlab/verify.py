"""Self-contained oracle suite behind the `verify` subcommand.

Every check recomputes an expected value by an independent route (brute-force
enumeration, series summation, finite differences, exact rationals) and
compares against the fast path.  As whole processes, `fast` takes about 6 s
and `full`, which adds the banded kernel check at N = 20,000 and the Monte
Carlo band checks, about 9 s (2-vCPU Intel Xeon).  Each check is written here
once.  The test suite runs every check in FULL_CHECKS once, at its defaults;
other tests call checks with their own pair counts and seeds, or on a mutant.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import alignment, annealed, capacity, montecarlo
from .core import BitString, Seed, embedded_length, sample_null, sample_planted
from .partition import (
    ExplicitMatrix,
    IidBernoulliHalf,
    IidGamma,
    LogDPTable,
    RankOneIndicator,
    count_common_subsequences,
    count_embeddings_exact,
    embedding_from_skips,
    greedy_embed,
    log_count_embeddings,
    skip_vector_of,
)
from .special import EULER_GAMMA, digamma


def brute_embeddings(x: BitString, y: BitString):
    """Yield every embedding of y into x, as an increasing tuple of positions,
    by testing all |y|-subsets of positions."""
    for comb in itertools.combinations(range(len(x)), len(y)):
        if all(x[i] == y[j] for j, i in enumerate(comb)):
            yield comb


def brute_count(x: BitString, y: BitString) -> int:
    """Z(x, y) by enumeration."""
    return sum(1 for _ in brute_embeddings(x, y))


def brute_common_subsequences(x1: BitString, x2: BitString, m: int) -> int:
    """Pairs of length-m position subsets of x1 and x2 that read the same string."""
    total = 0
    for c1 in itertools.combinations(range(len(x1)), m):
        s1 = tuple(x1[i] for i in c1)
        for c2 in itertools.combinations(range(len(x2)), m):
            total += s1 == tuple(x2[i] for i in c2)
    return total


def brute_planted_mean(n: int, m: int) -> Fraction:
    """E[Z] under the planted law, averaged exactly over every x and sigma*."""
    counts = list(montecarlo.planted_counts(n, m))
    return Fraction(sum(counts), len(counts))


def reference_log_count(env) -> float:
    """log Z by the reference route: LogDPTable fed the environment's weight rows."""
    table = LogDPTable(env.dims[1])
    for row in env.log_weight_rows():
        table.advance(row)
    return table.value


def brute_total_alignment(x: BitString, y: BitString, params, standardized: bool) -> float:
    """Supremum of the average local alignment over every member of the
    standardized (or induced) family, found by listing all block-length tuples."""
    b, m = params.b, len(y)
    member = alignment.is_standardized_member if standardized else alignment.is_induced_member
    best = float("-inf")
    for lens in itertools.product(range(b + 1), repeat=params.big_b):
        if sum(lens) != m:
            continue
        part = alignment.Partition(lens)
        if member(part, m, params):
            best = max(best, alignment.average_local_alignment(x, y, part, params))
    return best


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time of the check, filled in by run()


def _result(name, passed, detail=""):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _params(**kw) -> alignment.AlignmentParams:
    """AlignmentParams with its degenerate-window warning, and no other, quieted."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=r"delta\*alpha\*b = ")
        return alignment.AlignmentParams(**kw)


def _worst(errors) -> float:
    """The largest error, NaN if any is NaN, so `_worst(errors) < tol` fails
    on a NaN; the builtin max drops a NaN that is not in first position."""
    return float(np.max(errors, initial=0.0))


def check_exact_dp_vs_bruteforce(pairs: int = 120, seed: int = 1001) -> CheckResult:
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        n = int(rng.integers(0, 13))
        m = int(rng.integers(0, n + 1)) if n else 0
        x = BitString(rng.integers(0, 2, n, dtype=np.uint8))
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        if count_embeddings_exact(x, y) != brute_count(x, y):
            return _result("partition/exact-vs-bruteforce", False, f"mismatch at {x!r}, {y!r}")
    return _result("partition/exact-vs-bruteforce", True, f"{pairs} random pairs, n <= 12")


def check_logdp_vs_exact(pairs: int = 60, seed: int = 1002) -> CheckResult:
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(pairs):
        n = int(rng.integers(1, 21))
        m = int(rng.integers(0, n + 1))
        x = BitString(rng.integers(0, 2, n, dtype=np.uint8))
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        exact = count_embeddings_exact(x, y)
        logz = log_count_embeddings(RankOneIndicator(x, y))
        if exact == 0:
            if logz != float("-inf"):
                return _result("partition/logdp-vs-exact", False, "zero count not -inf")
            continue
        errors.append(abs(math.exp(logz) - exact) / exact)
    worst = _worst(errors)
    return _result("partition/logdp-vs-exact", worst < 1e-10, f"worst rel err {worst:.2e}")


def check_rank_one_vs_generic(pairs: int = 200, seed: int = 1008) -> CheckResult:
    """The corridor rank-one kernel against the generic LogDPTable route fed the
    same indicator rows.  Both run the same logaddexps on every cell an
    embedding passes through, so they must agree exactly: at M = 0 and M = N,
    on Z = 0 pairs, where the corridor binds (planted alpha >= 1/2, null alpha
    near 1/2) and where L or R runs along the band edge (y a prefix or a
    suffix of x)."""
    name = "partition/rank-one-vs-generic"
    rng = np.random.default_rng(seed)

    def rand(k):
        return BitString(rng.integers(0, 2, k, dtype=np.uint8))

    cases = []
    for n in (1, 2, 13, 400):
        for m in sorted({0, 1, n - 1, n}):
            for x in (BitString.zeros(n), BitString.ones(n), rand(n)):
                cases += [(x, y) for y in (BitString.zeros(m), BitString.ones(m), rand(m))]
    for _ in range(pairs):
        n = int(rng.integers(0, 401))
        cases.append((rand(n), rand(int(rng.integers(0, n + 1)))))
    for n in (13, 400, 2000):
        x = rand(n)
        for m in (1, n // 2, n - 1):
            # L_j = j on a prefix and R_j = N - M + j on a suffix; the last
            # pair's greedy runs to x[m - 1], then finds no 1 in the zero tail.
            tail_zero = BitString(np.concatenate([x.bits[:m - 1], np.zeros(n - m + 1, np.uint8)]))
            cases += [(x, x[:m]), (x, x[n - m:]), (tail_zero, BitString(np.append(x.bits[:m - 1], 1)))]
    root = Seed(seed)
    for i, alpha in enumerate((0.5, 0.6, 0.9, 1.0)):
        d = sample_planted(2000, embedded_length(alpha, 2000), root.substream(i))
        cases.append((d.x, d.y))
    for i, alpha in enumerate((0.45, 0.45, 0.5, 0.5, 0.5, 0.5)):
        d = sample_null(2000, embedded_length(alpha, 2000), root.substream(4 + i))
        cases.append((d.x, d.y))
    zeros = 0
    for x, y in cases:
        env = RankOneIndicator(x, y)
        fast, ref = log_count_embeddings(env), reference_log_count(env)
        if fast != ref:
            return _result(name, False, f"{fast!r} != {ref!r} at |x|={len(x)}, |y|={len(y)}")
        zeros += fast == float("-inf")
    return _result(name, zeros > 0, f"{len(cases)} pairs equal, {zeros} with Z = 0, |x| <= 2000")


def _banded_vs_logdp(name, envs, need_zero: bool) -> CheckResult:
    """The banded kernel behind log_count_embeddings against LogDPTable fed the
    same environment's weight rows: relative error at most 1e-12, and -inf
    exactly when LogDPTable gives -inf.  With `need_zero`, fails unless some
    environment has Z = 0."""
    errors, zeros = [], 0
    for i, env in enumerate(envs):
        fast, ref = log_count_embeddings(env), reference_log_count(env)
        if (fast == float("-inf")) != (ref == float("-inf")):
            return _result(name, False, f"{fast!r} vs {ref!r} at environment {i}, {type(env).__name__} N, M = {env.dims}")
        if ref == float("-inf"):
            zeros += 1
        else:
            errors.append(0.0 if fast == ref else abs(fast - ref) / abs(ref))
    worst = _worst(errors)
    ok = worst <= 1e-12 and (zeros > 0 or not need_zero)
    return _result(name, ok, f"{len(envs)} environments, {zeros} with Z = 0, worst rel err {worst:.1e}")


def check_banded_vs_logdp(seed: int = 1011) -> CheckResult:
    """Gamma and fair-coin environments at N in {1, 2, 13, 400} and M in
    {0, 1, N - 1, N}, Gamma at every (shape, scale), where shape 0.002 draws a
    zero about a quarter of the time (Z = 0 cells in the band, and Z = 0 at
    M = N); then Gamma at N = 4000 for alpha from 0.05 to 1, fair coins at
    N = 2000, alpha = 0.4, and explicit matrices with zero weights, a zero
    first column, and more columns than rows.  Shapes other than 1 draw
    slowly, so N = 4000 gives them only small M."""
    root = Seed(seed)
    params = [(shape, scale) for shape in (0.002, 0.02, 0.2, 1.0, 5.0) for scale in (0.5, 3.0)]
    dims = [(n, m) for n in (1, 2, 13, 400) for m in sorted({0, 1, n - 1, n})]
    specs = [(IidGamma, (n, m, shape, scale)) for n, m in dims for shape, scale in params]
    specs += [(IidBernoulliHalf, (n, m)) for n, m in dims]
    for alpha, (shape, scale) in zip((0.05, 0.1, 0.4, 0.7, 1.0),
                                     ((5.0, 0.5), (0.02, 3.0), (1.0, 0.5), (1.0, 3.0), (1.0, 0.5))):
        specs.append((IidGamma, (4000, embedded_length(alpha, 4000), shape, scale)))
    specs.append((IidBernoulliHalf, (2000, embedded_length(0.4, 2000))))
    envs = [kind(*args, root.substream(i)) for i, (kind, args) in enumerate(specs)]
    rng = root.substream(len(specs)).rng()
    for n, m in ((40, 15), (30, 30), (3, 5), (6, 0), (0, 4)):
        weights = rng.gamma(1.0, 0.5, (n, m))
        weights[rng.random((n, m)) < 0.3] = 0.0
        weights[:n // 5, :1] = 0.0
        envs.append(ExplicitMatrix(weights))
    return _banded_vs_logdp("partition/banded-vs-logdp", envs, need_zero=True)


def check_banded_vs_logdp_large(seed: int = 1012) -> CheckResult:
    """The strict-weak environment at N = 20,000, alpha = 0.1."""
    n = 20_000
    env = IidGamma(n, embedded_length(0.1, n), montecarlo.GAMMA_SHAPE, montecarlo.GAMMA_SCALE, Seed(seed))
    return _banded_vs_logdp("partition/banded-vs-logdp-large", [env], need_zero=False)


def check_greedy_equivalence(pairs: int = 2000, seed: int = 1003) -> CheckResult:
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        m = int(rng.integers(0, 31))
        x = BitString(rng.integers(0, 2, 30, dtype=np.uint8))
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        absent = greedy_embed(x, y) is None
        zero = count_embeddings_exact(x, y) == 0
        if absent != zero:
            return _result("partition/greedy-equivalence", False, f"{x!r}, {y!r}")
    return _result("partition/greedy-equivalence", True, f"{pairs} pairs at n=30, m <= 30")


def check_skip_vector_injectivity(pairs: int = 40, seed: int = 1004) -> CheckResult:
    """skip_vector_of is injective on the embeddings of each pair, and
    embedding_from_skips maps every skip vector back to its embedding."""
    name = "partition/skip-vector-injectivity"
    rng = np.random.default_rng(seed)
    for _ in range(pairs):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(0, n + 1))
        x = BitString(rng.integers(0, 2, n, dtype=np.uint8))
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        seen = {}
        for comb in brute_embeddings(x, y):
            v = skip_vector_of(x, y, list(comb))
            if v in seen:
                return _result(name, False, f"collision {v}")
            seen[v] = comb
            back = embedding_from_skips(x, y, v)
            if back is None or tuple(int(i) for i in back) != comb:
                return _result(name, False, f"{v} decodes to {back!r}, not {comb} at {x!r}, {y!r}")
    return _result(name, True, f"exhaustive round trip, {pairs} pairs, n <= 10")


def check_common_subsequence_oracle(seed: int = 1005) -> CheckResult:
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n1 = int(rng.integers(0, 9))
        n2 = int(rng.integers(0, 9))
        x1 = BitString(rng.integers(0, 2, n1, dtype=np.uint8))
        x2 = BitString(rng.integers(0, 2, n2, dtype=np.uint8))
        for m in range(min(n1, n2) + 1):
            if count_common_subsequences(x1, x2, m) != brute_common_subsequences(x1, x2, m):
                return _result("partition/common-subsequence-oracle", False, f"{x1!r},{x2!r},m={m}")
    return _result("partition/common-subsequence-oracle", True, "40 pairs, every m, n <= 8")


def check_closed_form_residuals() -> CheckResult:
    """The closed-form planted solution solves its defining equations to 1e-10,
    and delta equals sqrt(9a^2 - 4a + 4) to 1e-14, at alpha = 0.05k."""
    residuals, delta_errors = [], []
    for k in range(1, 20):
        a = 0.05 * k
        sol = annealed.planted_annealed(a)
        c = 1.0 / a
        residuals += (
            abs(annealed.pair_mgf_closed_form(sol.x, sol.y) - 1.0),
            abs(sol.x**2 * (1 - 2 * sol.y) - 2 * sol.x * (1 + sol.y) + 1.0),
            abs(c * sol.x**2 + 3 * sol.x - (c - 1.0)),
            abs(annealed.x_of_rho(a, sol.rho_star) - sol.x),
            abs(annealed.y_of_rho(a, sol.rho_star) - sol.y),
            abs(annealed.z_of_rho(a, sol.rho_star) - 1.0),
        )
        delta_errors.append(abs(sol.delta - math.sqrt(9 * a * a - 4 * a + 4)))
    worst, worst_delta = _worst(residuals), _worst(delta_errors)
    ok = worst < 1e-10 and worst_delta < 1e-14
    return _result("annealed/closed-form-residuals", ok, f"19 alphas, worst {worst:.2e}, delta {worst_delta:.1e}")


def check_closed_form_vs_series() -> CheckResult:
    """All 20 grid points, (0.2, 1.5) with D = 0.01 included; a point with
    D <= 0 raises DivergentSeriesError."""
    errors = []
    for x in (0.02, 0.05, 0.1, 0.15, 0.2):
        for y in (0.1, 0.4, 0.8, 1.5):
            cf = annealed.pair_mgf_closed_form(x, y)
            errors.append(abs(cf - annealed.pair_mgf_series(x, y, tol=1e-13)) / cf)
    worst = _worst(errors)
    return _result("annealed/closed-form-vs-series", worst < 1e-9, f"20 points, worst rel err {worst:.2e}")


def check_envelope_identity() -> CheckResult:
    errors = []
    h = 1e-6
    for a in (0.3, 0.5, 0.7):
        for k in range(1, 21):
            rho = 0.04 + 0.9 * k / 21.0
            fd = (annealed.planted_objective(a, rho + h) - annealed.planted_objective(a, rho - h)) / (2 * h)
            errors.append(abs(fd - a * math.log(annealed.z_of_rho(a, rho))))
    worst = _worst(errors)
    return _result("annealed/envelope-identity", worst < 1e-5, f"worst |fd - a ln z| = {worst:.2e}")


def check_variational_max() -> CheckResult:
    errors = []
    for k in range(1, 20):
        a = 0.05 * k
        _, numeric = annealed.maximize_planted_objective(a)
        errors.append(abs(numeric - annealed.planted_annealed(a).raw))
    worst = _worst(errors)
    return _result("annealed/variational-maximum", worst < 1e-7, f"19 alphas, worst gap {worst:.2e}")


def check_digamma() -> CheckResult:
    err1 = abs(digamma(1.0) + EULER_GAMMA)
    steps = [abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) for x in (0.1, 0.7, 1.3, 2.5, 5.0, 9.7, 31.0)]
    worst = _worst([err1] + steps)
    return _result("annealed/digamma", worst < 1e-10, f"psi(1)+gamma={err1:.1e}, worst residual {worst:.1e}")


def check_gap_product_formula() -> CheckResult:
    for n in range(1, 9):
        for m in range(1, n + 1):
            if annealed.barZ_exact(n, m) != annealed.barZ_pairs_direct(n, m):
                return _result("annealed/gap-product-formula", False, f"(n,m)=({n},{m})")
    return _result("annealed/gap-product-formula", True, "all (n, m) with n <= 8")


def check_planted_mean_enumeration() -> CheckResult:
    for n in range(1, 7):
        for m in range(1, n + 1):
            if brute_planted_mean(n, m) != annealed.planted_mean_partition(n, m):
                return _result("annealed/planted-mean-enumeration", False, f"(n,m)=({n},{m})")
    return _result("annealed/planted-mean-enumeration", True, "exact rationals, n <= 6")


def check_nishimori_identity() -> CheckResult:
    errors = []
    for n, m in ((4, 2), (6, 3), (8, 3)):
        rep = montecarlo.null_planted_gap_experiment(m / n, n)
        errors.append(abs(rep.planted_side - rep.null_side))
    worst = _worst(errors)
    return _result("montecarlo/nishimori-identity", worst < 1e-12, f"(n, m) = (4, 2), (6, 3), (8, 3), worst gap {worst:.2e}")


def check_capacity_constants() -> CheckResult:
    beta_err = abs(capacity.beta_alpha(0.5) - 0.3413447460685429)
    log10_bound = capacity.log10_explicit_lower_bound(0.5)
    ok = beta_err < 1e-12 and abs(log10_bound + 1860.3469324239877) < 1e-6
    return _result("capacity/explicit-constants", ok, f"beta err {beta_err:.1e}, log10 bound {log10_bound:.2f}")


def check_capacity_sandwich() -> CheckResult:
    for k in range(1, 49):
        p = 0.02 * k
        lower = capacity.dgv_lower_bound(p)
        upper = capacity.upper_bound_uniform_capacity(p)
        tiny = math.exp(capacity.log_explicit_lower_bound(p))
        if not (lower <= upper + 1e-12 and tiny <= upper and upper > 0):
            return _result("capacity/bound-sandwich", False, f"p={p:.2f}")
    return _result("capacity/bound-sandwich", True, "0.02 grid on (0, 0.98)")


def check_alignment_small_oracle(seed: int = 1006) -> CheckResult:
    """Both DP suprema against listing every block-length tuple, three random
    (x, y) per (B, b, alpha, eps); `==` also accepts -inf on empty families."""
    name = "alignment/dp-vs-exhaustive"
    rng = np.random.default_rng(seed)
    cases = 0
    for B, b, (alpha, eps) in itertools.product(
        (1, 2, 3, 4), (2, 3, 4, 5), ((0.5, 1 / 24), (0.5, 0.4), (0.3, 0.4), (0.8, 0.3))
    ):
        params = _params(alpha=alpha, b=b, n=B * b, epsilon=eps)
        for _ in range(3):
            x = BitString(rng.integers(0, 2, B * b, dtype=np.uint8))
            m = int(rng.integers(0, B * b + 1))
            y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
            for std in (False, True):
                score = (alignment.total_alignment_std if std else alignment.total_alignment_ind)(x, y, params)
                best = brute_total_alignment(x, y, params, std)
                if not (score == best or abs(score - best) < 1e-12):
                    return _result(name, False, f"{score!r} != {best!r} at B={B} b={b} alpha={alpha} eps={eps}")
                cases += 1
    return _result(name, True, f"{cases} cases: B 1..4, b 2..5, 4 (alpha, eps) pairs, both families")


def check_alignment_gain_table(seed: int = 1010) -> CheckResult:
    """Every cell of both per-sign gain tables `==` the clip expression
    evaluated in Python floats from y's +-1 walk, and the cells with p < L
    -inf, for b in {1, 2, 7, 16, 64}, |y| in {0, 1, b - 1, B*b/2, B*b} at
    B = 4, and an eps at which delta * d saturates at 1 (eps = 1/2, delta = 1)."""
    name = "alignment/gain-table"
    rng = np.random.default_rng(seed)
    big_b, cells = 4, 0
    for b in (1, 2, 7, 16, 64):
        for eps in (1 / 24, 0.5):
            params = _params(alpha=0.5, b=b, n=big_b * b, epsilon=eps)
            for m in sorted({0, 1, b - 1, big_b * b // 2, big_b * b}):
                y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
                walk = [0]
                for bit in y.bits:
                    walk.append(walk[-1] + (1 if bit else -1))
                tables = alignment._gain_tables(y, params)
                where = f"b={b}, eps={eps}, |y|={m}"
                for s in (1.0, -1.0):
                    table = tables[s]
                    if table.shape != (min(b, m) + 1, m + 1) or table.dtype != np.float64:
                        return _result(name, False, f"shape {table.shape} {table.dtype} at {where}")
                    for length in range(min(b, m) + 1):
                        for p in range(m + 1):
                            cell = table[length, p]
                            if p < length:
                                ok = cell == float("-inf")
                            else:
                                ok = cell == min(max(params.delta * s * (walk[p] - walk[p - length]), 0.0), 1.0)
                            if not ok:
                                return _result(name, False, f"[{length}, {p}] = {cell!r}, s={s} at {where}")
                            cells += 1
    return _result(name, True, f"{cells} cells checked, b <= 64")


def check_alignment_certified_vs_full(cases: int = 300, seed: int = 1009) -> CheckResult:
    """Both alignment scores against the full sweep with required + 1 rows on
    binding budgets (b <= 16, eps up to 1/2), typical and arbitrary |y| and
    empty families.  Fails unless some finite cases certify and some fall back."""
    name = "alignment/certified-vs-full"
    rng = np.random.default_rng(seed)
    seen = {"certified": 0, "fell back": 0, "empty": 0}
    for _ in range(cases):
        alpha, eps = float(rng.choice((0.2, 0.3, 0.5, 0.7, 0.9))), float(rng.choice((1 / 24, 0.25, 0.4, 0.5)))
        b, big_b = int(rng.choice((2, 4, 8, 16))), int(rng.integers(1, 21))
        params = _params(alpha=alpha, b=b, n=big_b * b, epsilon=eps)
        x = BitString(rng.integers(0, 2, big_b * b, dtype=np.uint8))
        m = embedded_length(alpha, big_b * b) if rng.random() < 0.5 else int(rng.integers(0, big_b * b + 1))
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        for std, score in ((False, alignment.total_alignment_ind), (True, alignment.total_alignment_std)):
            dp, required = alignment._dp_inputs(x, y, params, std)
            for lo, band in alignment._sweep(*dp, required + 1):
                pass
            full = band[required, m - lo]
            if score(x, y, params) != float(full) / big_b:
                return _result(name, False, f"{score.__name__} != {full!r}/{big_b} at b={b}, eps={eps}")
            if full == float("-inf"):
                seen["empty"] += 1
            elif required:
                history = [(lo, band[0].copy()) for lo, band in alignment._sweep(*dp, 1)]
                seen["certified" if alignment._witness_conforming(history, *dp) >= required else "fell back"] += 1
    detail = f"{2 * cases} scores equal; " + ", ".join(f"{v} {k}" for k, v in seen.items())
    return _result(name, all(seen.values()), detail)


def check_standardize_soundness(seed: int = 1007) -> CheckResult:
    """standardize maps 1000 random induced partitions per eps into the
    standardized family with the same total length, and copies every
    exceptional block verbatim: same length at the same offset, hence the same
    substring of y.  Fails unless each eps saw more than 100 exceptional blocks."""
    # eps = 1/4 is the largest exponent at alpha = 1/2 for which the slack
    # blocks provably stay inside [0, b]; it also makes the scan cap > 1, so
    # the pass does real work instead of copying.
    name = "alignment/standardize-soundness"
    rng = np.random.default_rng(seed)
    exceptional = []
    for eps in (1 / 24, 0.25):
        exceptional.append(0)
        params = _params(alpha=0.5, b=24, n=20 * 24, epsilon=eps)
        lo, hi = params.window_ints()
        m = int(0.5 * params.big_b * params.b)
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        for _ in range(1000):
            part = alignment.sample_induced_partition(m, params, rng)
            out = alignment.standardize(y, part, params)
            if not alignment.is_standardized_member(out, m, params):
                return _result(name, False, f"eps={eps}")
            if sum(out.block_lengths) != m:
                return _result(name, False, "length sum changed")
            start, out_start = part.offsets, out.offsets
            for i, v in enumerate(part.block_lengths):
                if not lo <= v <= hi:
                    exceptional[-1] += 1
                    if out.block_lengths[i] != v or out_start[i] != start[i]:
                        return _result(name, False, f"exceptional block {i} moved at eps={eps}")
    return _result(name, min(exceptional) > 100,
                   f"2 x 1000 random induced partitions, {exceptional} exceptional blocks copied at eps = 1/24, 1/4")


def check_mc_strict_weak_band() -> CheckResult:
    exact = annealed.strict_weak_value(montecarlo.GAMMA_SHAPE, montecarlo.GAMMA_SCALE, 0.3)
    est = montecarlo.estimate_polymer(montecarlo.STRICT_WEAK, 0.3, 2000, 8, Seed(77))
    rel = abs(est.mean - exact) / abs(exact)
    return _result("montecarlo/strict-weak-band", rel < 0.07, f"rel gap {rel:.3f} at n=2000")


def check_mc_null_band() -> CheckResult:
    est = montecarlo.estimate_quenched(montecarlo.NULL, 0.25, 6000, 8, Seed(78))
    lo = capacity.skip_vector_lower_bound(0.25) - 3 * est.stderr
    hi = annealed.null_annealed(0.25)
    return _result(
        "montecarlo/null-band", lo <= est.mean <= hi, f"mean {est.mean:.5f} in [{lo:.5f}, {hi:.5f}]"
    )


def check_mc_planted_band() -> CheckResult:
    est = montecarlo.estimate_quenched(montecarlo.PLANTED, 0.5, 4000, 8, Seed(79))
    lo = annealed.null_annealed(0.5) + 3 * est.stderr
    hi = annealed.planted_annealed(0.5).value - 3 * est.stderr
    return _result(
        "montecarlo/planted-band", lo <= est.mean <= hi, f"mean {est.mean:.5f} in [{lo:.5f}, {hi:.5f}]"
    )


def check_mc_positive_rate_past_half() -> CheckResult:
    row = montecarlo.mutual_info_point(0.7, 6000, 8, Seed(80))
    ok = row.mc_capacity > 3 * row.mc_stderr
    return _result("montecarlo/positive-rate-p0.7", ok, f"capacity {row.mc_capacity:.5f} +- {row.mc_stderr:.5f}")


def check_mc_bernoulli_matching() -> CheckResult:
    # Positivity of the fair-coin environment is decided by greedy column
    # advances, which are i.i.d. Geom(1/2) exactly as in the two-string model:
    # positive free energy below alpha = 1/2, Z = 0 w.h.p. above it.
    below = montecarlo.estimate_polymer(montecarlo.BERNOULLI_MATCHING, 0.45, 2000, 6, Seed(81))
    above = montecarlo.estimate_polymer(montecarlo.BERNOULLI_MATCHING, 0.6, 2000, 6, Seed(82))
    ok = below.mean > 0 and below.zero_fraction == 0.0 and above.zero_fraction == 1.0 and above.mean == 0.0
    return _result(
        "montecarlo/bernoulli-matching",
        ok,
        f"mean {below.mean:.5f} at alpha=0.45, zero fraction {above.zero_fraction:.2f} at 0.6",
    )


FAST_CHECKS = (
    check_exact_dp_vs_bruteforce,
    check_logdp_vs_exact,
    check_rank_one_vs_generic,
    check_banded_vs_logdp,
    check_greedy_equivalence,
    check_skip_vector_injectivity,
    check_common_subsequence_oracle,
    check_closed_form_residuals,
    check_closed_form_vs_series,
    check_envelope_identity,
    check_variational_max,
    check_digamma,
    check_gap_product_formula,
    check_planted_mean_enumeration,
    check_nishimori_identity,
    check_capacity_constants,
    check_capacity_sandwich,
    check_alignment_small_oracle,
    check_alignment_gain_table,
    check_alignment_certified_vs_full,
    check_standardize_soundness,
)

FULL_CHECKS = FAST_CHECKS + (
    check_banded_vs_logdp_large,
    check_mc_strict_weak_band,
    check_mc_null_band,
    check_mc_planted_band,
    check_mc_positive_rate_past_half,
    check_mc_bernoulli_matching,
)


def run(level: str = "fast"):
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    checks = FAST_CHECKS if level == "fast" else FULL_CHECKS
    results = []
    for fn in checks:
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            result = CheckResult(name=fn.__name__, passed=False, detail=f"raised {exc!r}")
        results.append(dataclasses.replace(result, seconds=time.perf_counter() - start))
    return results
