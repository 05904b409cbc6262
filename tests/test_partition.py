import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseqlab import partition, verify
from subseqlab.core import BitString, Seed, all_bitstrings, embedded_length, sample_planted
from subseqlab.partition import (
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
from subseqlab.verify import (
    brute_embeddings,
    check_common_subsequence_oracle,
    check_exact_dp_vs_bruteforce,
    check_banded_vs_logdp,
    check_greedy_equivalence,
    check_logdp_vs_exact,
    check_rank_one_vs_generic,
    check_skip_vector_injectivity,
)

NEG_INF = float("-inf")


bits = st.lists(st.integers(0, 1), max_size=12)


def test_count_trivial_cases():
    x = BitString.from_text("10110")
    assert count_embeddings_exact(x, BitString.from_text("")) == 1
    assert count_embeddings_exact(BitString.zeros(8), BitString.zeros(3)) == math.comb(8, 3)
    assert count_embeddings_exact(x, BitString.from_text("11")) == 3
    with pytest.raises(ValueError):
        count_embeddings_exact(BitString.from_text("1"), BitString.from_text("11"))


def test_count_vs_bruteforce_random():
    result = check_exact_dp_vs_bruteforce(pairs=400, seed=42)
    assert result.passed, result.detail


@settings(max_examples=150, deadline=None)
@given(bits, bits, st.integers(0, 1))
def test_count_monotone_under_append(xbits, ybits, extra):
    if len(ybits) > len(xbits):
        xbits, ybits = ybits, xbits
    x, y = BitString(xbits), BitString(ybits)
    bigger = BitString(xbits + [extra])
    assert count_embeddings_exact(bigger, y) >= count_embeddings_exact(x, y)


def test_log_dp_matches_exact_when_representable():
    result = check_logdp_vs_exact(pairs=150, seed=7)
    assert result.passed, result.detail


def test_log_dp_check_fails_on_nan(monkeypatch):
    # A NaN log count on a nonzero count after the first pair must fail the
    # check; a running builtin max would drop it.
    calls = []

    def nan_after_first(env):
        value = log_count_embeddings(env)
        calls.append(value)
        return math.nan if len(calls) > 1 and value != NEG_INF else value

    monkeypatch.setattr(verify, "log_count_embeddings", nan_after_first)
    assert not check_logdp_vs_exact().passed


def test_log_dp_zero_environment():
    env = ExplicitMatrix(np.zeros((4, 2)))
    assert log_count_embeddings(env) == NEG_INF


def test_log_dp_negative_weight_rejected():
    with pytest.raises(ValueError):
        ExplicitMatrix(np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        IidGamma(4, 2, shape=-1.0, scale=0.5, seed=Seed(0))
    with pytest.raises(ValueError):
        IidGamma(4, 2, shape=1.0, scale=0.0, seed=Seed(0))


def test_log_dp_explicit_matrix_small():
    # Z[2,1] for weights [[w00],[w10]] is w00 + w10.
    env = ExplicitMatrix(np.array([[0.25], [4.0]]))
    assert math.isclose(math.exp(log_count_embeddings(env)), 4.25, rel_tol=1e-12)


def test_explicit_matrix_rows_do_not_silence_the_caller():
    # The divide-by-zero ignore covers the log only, not the caller's code
    # that runs while the generator is suspended.
    rows = ExplicitMatrix(np.array([[0.0, 1.0], [1.0, 1.0]])).log_weight_rows()
    assert np.isneginf(next(rows)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning):
            np.log(np.zeros(1))


def test_bernoulli_half_performance_and_memory():
    import time

    env = IidBernoulliHalf(10_000, 2500, Seed(5))
    table = LogDPTable(2500)
    start = time.time()
    rows = 0
    for log_row in env.log_weight_rows():
        table.advance(log_row)
        rows += 1
        assert table.row.size == 2501  # streaming row, O(M) memory
    elapsed = time.time() - start
    assert rows == 10_000
    assert math.isfinite(table.value)
    assert elapsed < 10.0


def test_log_dp_rejects_weight_row_of_wrong_length():
    table = LogDPTable(3)
    for width in (2, 4):
        with pytest.raises(ValueError):
            table.advance(np.zeros(width))


def test_corridor_is_min_and_max_over_all_embeddings():
    # L and R are the per-position min and max over every embedding, and the
    # corridor is absent exactly when no embedding exists: every pair with
    # |x| <= 6, then random pairs up to |x| = 10.
    rng = np.random.default_rng(29)
    pairs = [(x, y) for n in range(7) for x in all_bitstrings(n) for m in range(n + 1) for y in all_bitstrings(m)]
    for _ in range(600):
        n = int(rng.integers(7, 11))
        m = int(rng.integers(0, n + 1))
        pairs.append((BitString(rng.integers(0, 2, n, dtype=np.uint8)), BitString(rng.integers(0, 2, m, dtype=np.uint8))))
    for x, y in pairs:
        embeddings = list(brute_embeddings(x, y))
        bounds = partition._corridor(x, y)
        if not embeddings:
            assert bounds is None
        else:
            table = np.array(embeddings, dtype=np.int64).reshape(len(embeddings), len(y))
            assert list(bounds[0]) == list(table.min(axis=0))
            assert list(bounds[1]) == list(table.max(axis=0))


@pytest.mark.parametrize("edge", ["left", "right"])
def test_narrowed_corridor_fails_the_generic_check(edge, monkeypatch):
    # Moving either corridor edge in by one cell drops updates that carry
    # embeddings, and the rank-one-vs-generic check must see it.
    real = partition._corridor

    def narrowed(x, y):
        bounds = real(x, y)
        if bounds is None:
            return None
        left, right = bounds
        return (left + 1, right) if edge == "left" else (left, right - 1)

    monkeypatch.setattr(partition, "_corridor", narrowed)
    assert not check_rank_one_vs_generic().passed


@pytest.mark.parametrize(
    "x, y",
    [
        (BitString.from_text("0110100111"), BitString.from_text("0110100111")),
        # x = (10)^k 1 holds exactly k + 1 ones, so y = 1^(k+1) embeds once.
        (BitString.from_text("10" * 30 + "1"), BitString.ones(31)),
    ],
    ids=["x-equals-y", "m-below-n"],
)
def test_unique_embedding_has_log_count_zero(x, y):
    assert count_embeddings_exact(x, y) == 1
    assert log_count_embeddings(RankOneIndicator(x, y)) == 0.0


@pytest.mark.parametrize(
    "old, new",
    [
        # Cell j + 1 slotted by y_{j+1} instead of y_j.
        ("np.concatenate(([0], order + 1))",
         'np.concatenate(([0], 1 + np.argsort(np.roll(ybits, -1), kind="stable")))'),
        # Each source read after the cells before it in the row are written.
        ("np.logaddexp(dst, store[src[lo:hi]], out=dst)",
         "for t, s in enumerate(src[lo:hi]): dst[t] = np.logaddexp(dst[t], store[s])"),
        # The one-embedding exit taken when L and R agree at both ends.
        ("np.array_equal(left, right)", "left[0] == right[0] and left[-1] == right[-1]"),
    ],
    ids=["slot-by-next-bit", "no-gathered-copy", "exit-on-ends"],
)
def test_checks_catch_rank_one_slot_mutants(monkeypatch, mutant, old, new):
    monkeypatch.setattr(partition, "_log_count_rank_one", mutant(partition._log_count_rank_one, old, new))
    assert not check_rank_one_vs_generic().passed


def test_rank_one_memory_at_scale():
    # One planted DP at N = 10^4, alpha = 0.2 peaks at 0.51 MB of traced
    # allocations; iterating the per-row bounds as Python lists peaks at 1.03 MB.
    d = sample_planted(10_000, embedded_length(0.2, 10_000), Seed(0))
    env = RankOneIndicator(d.x, d.y)
    tracemalloc.start()
    try:
        log_count_embeddings(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 850_000


def test_next_occurrence_matches_its_definition():
    # table[b, t] is the least index >= t holding b, else n: n = 0, constant
    # strings (one bit never occurs) and random strings.
    rng = np.random.default_rng(37)
    strings = [np.zeros(0, np.uint8), np.zeros(7, np.uint8), np.ones(7, np.uint8)]
    strings += [rng.integers(0, 2, int(rng.integers(1, 40)), dtype=np.uint8) for _ in range(100)]
    for bits in strings:
        n = len(bits)
        expected = [[next((i for i in range(t, n) if bits[i] == b), n) for t in range(n + 1)] for b in (0, 1)]
        table = partition._next_occurrence(bits)
        assert table.dtype == np.int64
        assert table.tolist() == expected


def test_greedy_examples():
    x = BitString.from_text("10110")
    assert list(greedy_embed(x, BitString.from_text("11"))) == [0, 2]
    assert greedy_embed(BitString.from_text("000"), BitString.from_text("1")) is None
    assert list(greedy_embed(x, BitString.from_text(""))) == []


def test_greedy_absent_iff_zero_count():
    result = check_greedy_equivalence(pairs=3000, seed=11)
    assert result.passed, result.detail


def test_skip_vector_examples():
    x = BitString.from_text("10110")
    y = BitString.from_text("11")
    g = greedy_embed(x, y)
    assert skip_vector_of(x, y, g) == (0, 0)
    assert skip_vector_of(BitString.from_text("000"), BitString.from_text("0"), [2]) == (2,)
    with pytest.raises(ValueError):
        skip_vector_of(x, y, [0, 1])  # x[1] = 0 != y[1]


def test_skip_vector_injective_and_invertible_exhaustive():
    result = check_skip_vector_injectivity(pairs=60, seed=3)
    assert result.passed, result.detail


def test_skip_vector_unrealizable():
    x = BitString.from_text("0101")
    y = BitString.from_text("01")
    assert embedding_from_skips(x, y, (5, 0)) is None
    assert embedding_from_skips(x, y, (0, 1)).tolist() == [0, 3]
    assert embedding_from_skips(x, y, (1, 1)) is None  # one 1 after the second 0


def test_skip_vector_decoding_rejects_bad_vectors():
    x = BitString.from_text("0101")
    y = BitString.from_text("01")
    with pytest.raises(ValueError, match="length"):
        embedding_from_skips(x, y, (0,))
    with pytest.raises(ValueError, match="non-negative"):
        embedding_from_skips(x, y, (0, -1))


def test_skip_vector_total_bound():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, n + 1))
        x = BitString(rng.integers(0, 2, n, dtype=np.uint8))
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        for comb in brute_embeddings(x, y):
            assert sum(skip_vector_of(x, y, list(comb))) <= n - m


def test_common_subsequences_trivial():
    x1 = BitString.from_text("1010")
    x2 = BitString.from_text("0110")
    assert count_common_subsequences(x1, x2, 0) == 1
    with pytest.raises(ValueError):
        count_common_subsequences(x1, x2, 5)


def test_common_subsequences_specializes_to_embedding_count():
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(0, 9))
        m = int(rng.integers(0, n + 1)) if n else 0
        x = BitString(rng.integers(0, 2, n, dtype=np.uint8))
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        assert count_common_subsequences(x, y, m) == count_embeddings_exact(x, y)


def test_common_subsequences_vs_bruteforce_pairs():
    result = check_common_subsequence_oracle(seed=23)
    assert result.passed, result.detail


def test_log_dp_rank_one_minus_inf_iff_greedy_absent():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(0, n + 1))
        x = BitString(rng.integers(0, 2, n, dtype=np.uint8))
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        logz = log_count_embeddings(RankOneIndicator(x, y))
        assert (logz == NEG_INF) == (greedy_embed(x, y) is None)


def test_gamma_environment_rows_positive():
    env = IidGamma(20, 10, shape=1.0, scale=0.5, seed=Seed(123))
    logz1 = log_count_embeddings(env)
    logz2 = log_count_embeddings(IidGamma(20, 10, shape=1.0, scale=0.5, seed=Seed(123)))
    assert logz1 == logz2  # deterministic given seed
    assert math.isfinite(logz1)


def test_lower_band_edge_one_too_high_fails_the_banded_check(monkeypatch):
    monkeypatch.setattr(partition, "_band_edges", lambda n, m, rows: (max(1, m - n + rows + 1), min(rows, m)))
    assert not check_banded_vs_logdp().passed


def test_upper_band_edge_one_too_low_fails_the_banded_check(monkeypatch):
    # The cell entering the band (m = rows) is never written and stays -inf.
    monkeypatch.setattr(partition, "_band_edges", lambda n, m, rows: (max(1, m - n + rows), min(rows, m) - 1))
    assert not check_banded_vs_logdp().passed


def test_gamma_zero_draws_log_without_warning():
    # Gamma(0.02) draws underflow to 0 about once per million.
    env = IidGamma(4000, 1200, 0.02, 0.5, Seed(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = list(env.log_weight_rows())
    assert any(np.isneginf(row).any() for row in rows)


def _banded_and_reference(weights):
    """log Z of the weight matrix by the banded kernel and by LogDPTable, with
    warnings as errors."""
    env = ExplicitMatrix(weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return log_count_embeddings(env), verify.reference_log_count(env)


def test_banded_kernel_zero_weights():
    rng = np.random.default_rng(41)
    # One zero on the diagonal at M = N: the only embedding has weight 0.
    diagonal = rng.gamma(1.0, 0.5, (6, 6))
    diagonal[3, 3] = 0.0
    assert _banded_and_reference(diagonal) == (NEG_INF, NEG_INF)
    # Interior zeros, including a zero first column down to row 5, so that
    # cells with both operands Z = 0 lie in the band.
    interior = rng.gamma(1.0, 0.5, (40, 15))
    interior[rng.random(interior.shape) < 0.3] = 0.0
    interior[:6, 0] = 0.0
    fast, ref = _banded_and_reference(interior)
    assert math.isfinite(ref)
    assert math.isclose(fast, ref, rel_tol=1e-12)


@pytest.mark.parametrize("scale", [0.5, 3.0])
def test_gamma_rows_are_the_same_draws(scale):
    # 40 rows cross the draw blocks and end in a partial one.  Shape 1 goes
    # through the exponential sampler and must give rng.gamma(1.0, s)'s bits;
    # shape 0.2 must give the per-row rng.gamma draws it always gave.
    for shape in (1.0, 0.2):
        for s in (0, 1, 7, 2024):
            rng = Seed(s).rng()
            expected = [np.log(rng.gamma(shape, scale, 33)) for _ in range(40)]
            got = list(IidGamma(40, 33, shape, scale, Seed(s)).log_weight_rows())
            assert len(got) == 40
            assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))


def test_fair_coin_rows_are_the_same_draws():
    # 40 rows cross the draw blocks and end in a partial one; each row must
    # be the per-row rng.integers(0, 2, M) draw it always was.
    for s in (0, 1, 7, 2024):
        rng = Seed(s).rng()
        expected = [np.where(rng.integers(0, 2, 33) == 1, 0.0, -np.inf) for _ in range(40)]
        got = list(IidBernoulliHalf(40, 33, Seed(s)).log_weight_rows())
        assert len(got) == 40
        assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))
