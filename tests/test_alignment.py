import math

import numpy as np
import pytest

from subseqlab import alignment
from subseqlab.core import BitString, Seed, sample_uniform_string
from subseqlab.alignment import (
    AlignmentParams,
    Partition,
    displacement,
    is_good,
    is_induced_member,
    is_standardized_member,
    local_alignment,
    standardize,
    total_alignment_ind,
    total_alignment_std,
)
from subseqlab.verify import (
    _params as quiet_params,
    average_local_alignment,
    check_alignment_certified_vs_full,
    check_alignment_gain_table,
    check_alignment_small_oracle,
    check_standardize_soundness,
    sample_induced_partition,
)

NEG_INF = float("-inf")


def test_displacement():
    assert displacement(BitString.from_text("")) == 0
    assert displacement(BitString.from_text("1111")) == 4
    assert displacement(BitString.from_text("1010")) == 0
    assert displacement(BitString.from_text("001")) == 1


def test_local_alignment_cases():
    assert local_alignment(BitString.from_text("111"), BitString.from_text("000"), 0.4) == 0.0
    assert local_alignment(BitString.from_text("111"), BitString.from_text("11"), 0.4) == pytest.approx(0.8)
    assert local_alignment(BitString.from_text("111"), BitString.from_text("1111"), 0.4) == 1.0
    # both empty: tie majorities agree, zero displacement
    assert local_alignment(BitString.from_text(""), BitString.from_text(""), 0.4) == 0.0
    # tie on y counts as majority 1
    assert local_alignment(BitString.from_text("10"), BitString.from_text("10"), 0.4) == 0.0
    assert local_alignment(BitString.from_text("00"), BitString.from_text("10"), 0.4) == 0.0


def test_params_validation_and_derived():
    p = quiet_params(alpha=0.5, b=64, n=6400)
    assert p.big_b == 100
    assert abs(p.delta - 64 ** (-0.5 + 1 / 24)) < 1e-15
    assert abs(p.gamma - 64 ** (-1 / 24)) < 1e-15
    assert p.induced_budget == 84
    assert p.scan_cap == 1
    with pytest.raises(ValueError):
        AlignmentParams(alpha=1.2, b=8, n=64)
    with pytest.raises(ValueError):
        AlignmentParams(alpha=0.5, b=0, n=64)
    with pytest.raises(ValueError, match="multiple of b"):
        AlignmentParams(alpha=0.5, b=16, n=330)
    with pytest.warns(UserWarning):
        AlignmentParams(alpha=0.1, b=4, n=16)


def test_std_targets_prefix_property():
    for alpha in (0.3, 0.5, 0.37):
        for b in (8, 10, 24):
            p = quiet_params(alpha=alpha, b=b, n=b * 50)
            t = p.std_targets()
            ab = alpha * b
            assert all(v in (math.floor(ab), math.ceil(ab)) for v in t)
            prefix = np.cumsum(t)
            for k, s in enumerate(prefix, start=1):
                assert abs(s - ab * k) <= 1.0 + 1e-9


def test_dp_matches_bruteforce_exhaustive():
    result = check_alignment_small_oracle(seed=77)
    assert result.passed, result.detail
    assert result.detail.startswith("384 cases")


# Induced scores of the first two trials at b = 16, B = 20, where the band of
# reachable prefixes cuts cells from most blocks; the standardized scores are
# equal at these settings.  The values come from the unbanded DP, which fills
# every cell.
PINNED_SCORES = {
    1 / 24: (0.6788309413044133, 0.7525539608696089, 0.8104616340580074, 0.7744924096618746),
    0.4: (0.93789291416276, 0.9515716566510399, 0.97578582832552, 0.97578582832552),
}


@pytest.mark.parametrize("eps", sorted(PINNED_SCORES))
def test_dp_scores_pinned_at_twenty_blocks(eps):
    params = quiet_params(alpha=0.5, b=16, n=320, epsilon=eps)
    pairs = [pair for t in range(2) for pair in alignment.trial_pairs(params, Seed(3).substream(1000 * t))]
    assert [law for law, _, _ in pairs] == ["planted", "null"] * 2
    assert tuple(total_alignment_ind(x, y, params) for _, x, y in pairs) == PINNED_SCORES[eps]
    assert tuple(total_alignment_std(x, y, params) for _, x, y in pairs) == PINNED_SCORES[eps]


# Both scores of the first two trials at the benchmark's size (b = 64, B = 100,
# so the gain tables have 65 rows); induced and standardized are equal here.
PINNED_SCORES_B64 = (0.8594636720256393, 0.8345985830881056, 0.8847326650816959, 0.8150041453443794)


def test_dp_scores_pinned_at_benchmark_size():
    params = quiet_params(alpha=0.5, b=64, n=6400)
    pairs = [pair for t in range(2) for pair in alignment.trial_pairs(params, Seed(1212).substream(1000 * t))]
    assert [law for law, _, _ in pairs] == ["planted", "null"] * 2
    assert tuple(total_alignment_ind(x, y, params) for _, x, y in pairs) == PINNED_SCORES_B64
    assert tuple(total_alignment_std(x, y, params) for _, x, y in pairs) == PINNED_SCORES_B64


def test_gain_tables_equal_the_clip_expression(monkeypatch):
    # The check compares with `==`: one cell moved by one ulp at b = 64 and
    # |y| = B*b must fail it.  The cell is the gain of y[0:64].
    real = alignment._gain_tables

    def nudged(y, params):
        tables = real(y, params)
        if params.b == 64 and len(y) == params.n:
            tables[-1.0][64, 64] = np.nextafter(tables[-1.0][64, 64], 2.0)
        return tables

    monkeypatch.setattr(alignment, "_gain_tables", nudged)
    result = check_alignment_gain_table()
    assert not result.passed and "b=64" in result.detail


def test_full_dp_decides_when_the_certificate_fails(monkeypatch):
    # Trial 0's null pair at seed 35, eps = 0.4: every one-row optimal path has
    # fewer than the 14 conforming blocks the induced family needs, and the
    # one-row supremum (0.8394645708137999) exceeds the constrained one, so
    # the multi-row DP must run and give the pinned value.
    params = quiet_params(alpha=0.5, b=16, n=320, epsilon=0.4)
    law, x, y = alignment.trial_pairs(params, Seed(35))[1]
    assert law == "null"
    rows, sweep = [], alignment._sweep

    def spy(*args):
        rows.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(alignment, "_sweep", spy)
    assert total_alignment_ind(x, y, params) == 0.8273574849765598
    assert rows == [1, 15]


# A scratch bound that splits the check sizes' block lengths into chunks of a
# few lengths, and their positions into tiles, so every sweep crosses seams.
SEAM_SCRATCH = 32


def test_chunk_seams_keep_the_bands(monkeypatch):
    rng = np.random.default_rng(12)
    cases = []
    for b, big_b, eps in ((5, 4, 0.4), (16, 12, 0.4), (16, 20, 1 / 24)):
        params = quiet_params(alpha=0.5, b=b, n=big_b * b, epsilon=eps)
        x = BitString(rng.integers(0, 2, big_b * b, dtype=np.uint8))
        y = BitString(rng.integers(0, 2, big_b * b // 2, dtype=np.uint8))
        for std in (False, True):
            dp, required = alignment._dp_inputs(x, y, params, std)
            for rows in (1, required + 1):
                cases.append((dp, rows, [(lo, band.copy()) for lo, band in alignment._sweep(*dp, rows)]))
    monkeypatch.setattr(alignment, "_SCRATCH", SEAM_SCRATCH)
    for dp, rows, whole in cases:
        chunked = [(lo, band.copy()) for lo, band in alignment._sweep(*dp, rows)]
        assert [lo for lo, _ in chunked] == [lo for lo, _ in whole]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(chunked, whole))
    assert check_alignment_small_oracle().passed
    result = check_alignment_certified_vs_full(cases=100)
    assert result.passed, result.detail


@pytest.mark.parametrize(
    "old, new",
    [
        # Each length's gains paired with f one position further back.
        ("writeable=False)", "writeable=False); lagged = np.roll(lagged, 1, axis=2)"),
        # Conforming lengths folded into their own count row, not the next.
        ("np.maximum(dst[1:], cand[:-1, 0], out=dst[1:])", "np.maximum(dst[1:], cand[1:, 0], out=dst[1:])"),
    ],
    ids=["lag-off-by-one", "conforming-to-wrong-row"],
)
def test_checks_catch_sweep_mutants_at_seams(monkeypatch, mutant, old, new):
    monkeypatch.setattr(alignment, "_SCRATCH", SEAM_SCRATCH)
    monkeypatch.setattr(alignment, "_sweep", mutant(alignment._sweep, old, new))
    assert not (check_alignment_small_oracle().passed and check_alignment_certified_vs_full().passed)


def test_multi_row_sweep_at_b128_crosses_seams(monkeypatch):
    # Trial 1's null pair at b = 128: the one-row certificate fails, and the
    # 20-row sweep runs with several position tiles per block.
    params = quiet_params(alpha=0.5, b=128, n=12800)
    law, x, y = alignment.trial_pairs(params, Seed(1212).substream(1000))[1]
    assert law == "null"
    rows, sweep = [], alignment._sweep

    def spy(*args):
        rows.append(args[-1])
        return sweep(*args)

    monkeypatch.setattr(alignment, "_sweep", spy)
    assert total_alignment_ind(x, y, params) == 0.8221185893395733
    assert rows == [1, 20]


def test_single_block_case():
    params = quiet_params(alpha=0.5, b=4, n=4)
    x = BitString.from_text("1110")
    y = BitString.from_text("11")
    # single block must hold all of y; length 2 = alpha*b so induced/standard
    expected = local_alignment(x, y, params.delta)
    assert total_alignment_ind(x, y, params) == pytest.approx(expected)
    assert total_alignment_std(x, y, params) == pytest.approx(expected)


def test_all_ones_two_blocks_hand_case():
    # x = 1^8, y = 1^4, B = 2, b = 4, delta = 4^(-1/2+eps).
    params = quiet_params(alpha=0.5, b=4, n=8)
    x = BitString.ones(8)
    y = BitString.ones(4)
    d = params.delta
    # best split of 4 ones into two blocks: (2,2) gives min(1,2d) each;
    # (4,0) gives min(1,4d) + 0; with d = 4^(-11/24) both are below 1.
    expected = max(2 * min(1, 2 * d), min(1, 4 * d)) / 2
    assert total_alignment_ind(x, y, params) == pytest.approx(expected)


def test_empty_family_returns_neg_inf():
    # eps = 0.5 at b = 16 gives window [0, 2ab] and zero exception budget;
    # y longer than the windows allow leaves the family empty.
    params = quiet_params(alpha=0.1, b=16, n=32, epsilon=0.5)
    lo, hi = params.window_ints()
    assert params.induced_budget in (0, 1)
    m = params.big_b * 16  # maximal length: every block forced to b = 16
    if hi < 16 and params.induced_budget == 0:
        y = BitString.ones(m)
        x = BitString.ones(32)
        assert total_alignment_ind(x, y, params) == NEG_INF


def test_dimension_mismatch_errors():
    params = quiet_params(alpha=0.5, b=4, n=8)
    with pytest.raises(ValueError):
        total_alignment_ind(BitString.ones(8), BitString.ones(9), params)
    with pytest.raises(ValueError):
        is_good(BitString.ones(8), BitString.ones(3), params)


def test_standardize_identity_at_default_epsilon():
    # scan cap is 1 for any desk-scale b at eps = 1/24, so the pass copies.
    rng = np.random.default_rng(5)
    params = quiet_params(alpha=0.5, b=24, n=24 * 20)
    m = 240
    y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
    for _ in range(50):
        part = sample_induced_partition(m, params, rng)
        out = standardize(y, part, params)
        assert out.block_lengths == part.block_lengths
        assert is_standardized_member(out, m, params)


def test_standardize_fixed_point_on_target_lengths():
    params = quiet_params(alpha=0.5, b=8, n=8 * 6, epsilon=0.25)
    targets = tuple(int(v) for v in params.std_targets())
    m = sum(targets)
    y = BitString(np.random.default_rng(6).integers(0, 2, m, dtype=np.uint8))
    part = Partition(targets)
    out = standardize(y, part, params)
    assert out.block_lengths == targets


def test_standardize_hand_traced_micro_case():
    # B=4, b=8, alpha=0.5, eps=0.4: window ints [1, 7], cap = floor(8^0.4) = 2,
    # induced budget = floor(8^(-0.4) * 4) = 1.
    params = quiet_params(alpha=0.5, b=8, n=32, epsilon=0.4)
    assert params.window_ints() == (1, 7)
    assert params.scan_cap == 2
    assert params.induced_budget == 1
    y = BitString(np.random.default_rng(7).integers(0, 2, 16, dtype=np.uint8))
    part = Partition((4, 8, 3, 1))  # block 2 is exceptional (len 8)
    assert is_induced_member(part, 16, params)
    out = standardize(y, part, params)
    # run 1 ends at the exceptional block 2: block 1 absorbs slack (stays 4),
    # block 2 copied verbatim; run 2 = blocks 3,4 stop by cap/landing on last:
    # block 3 set to target 4, block 4 absorbs 0.
    assert out.block_lengths == (4, 8, 4, 0)
    assert is_standardized_member(out, 16, params)


def test_standardize_first_block_exceptional_copied_verbatim():
    params = quiet_params(alpha=0.5, b=8, n=32, epsilon=0.4)
    part = Partition((8, 4, 3, 1))  # first block exceptional
    assert is_induced_member(part, 16, params)
    y = BitString(np.random.default_rng(8).integers(0, 2, 16, dtype=np.uint8))
    out = standardize(y, part, params)
    assert out.block_lengths[0] == 8  # copied with empty standardized prefix
    assert is_standardized_member(out, 16, params)


def test_standardize_rejects_non_induced_input():
    params = quiet_params(alpha=0.5, b=8, n=32, epsilon=0.4)
    y = BitString.ones(16)
    with pytest.raises(ValueError):
        standardize(y, Partition((8, 8, 0, 0)), params)  # two exceptional blocks


def test_standardize_rejects_slack_past_b():
    # eps = 1/2: the window is [0, 8], so every block conforms, and the cap is
    # 2.  The first run is blocks 0 and 1: block 0 takes its target 4 and the
    # slack block 1 would take 16 - 4 = 12 > b.
    params = quiet_params(alpha=0.5, b=8, n=32, epsilon=0.5)
    part = Partition((8, 8, 0, 0))
    assert is_induced_member(part, 16, params)
    with pytest.raises(ValueError, match=r"slack fell outside \[0, b\]"):
        standardize(BitString.ones(16), part, params)


def test_standardize_soundness_many_random_partitions():
    result = check_standardize_soundness(seed=9)
    assert result.passed, result.detail


def test_total_alignment_sup_dominates_members():
    rng = np.random.default_rng(10)
    params = quiet_params(alpha=0.5, b=8, n=48, epsilon=0.25)
    m = 24
    x = BitString(rng.integers(0, 2, 48, dtype=np.uint8))
    y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
    sup = total_alignment_ind(x, y, params)
    for _ in range(200):
        part = sample_induced_partition(m, params, rng)
        assert average_local_alignment(x, y, part, params) <= sup + 1e-12


def test_standardization_approximation_trend():
    # Fraction of induced partitions whose score beats their standardized
    # image by more than beta*/2 must not grow with n at fixed b.  At the
    # default epsilon the scan cap is 1 for every desk-scale b, the map is the
    # identity, and the fraction is identically zero; the bound with a
    # non-trivial cap only kicks in at astronomically large b (the same
    # barrier as the explicit capacity constant).
    rng = np.random.default_rng(11)
    fractions = []
    for n_blocks in (10, 30, 90):
        params = quiet_params(alpha=0.5, b=16, n=16 * n_blocks)
        margin = params.beta_star / 2
        m = 8 * n_blocks
        exceed = 0
        trials = 100
        y = BitString(rng.integers(0, 2, m, dtype=np.uint8))
        x = BitString(rng.integers(0, 2, 16 * n_blocks, dtype=np.uint8))
        for _ in range(trials):
            part = sample_induced_partition(m, params, rng)
            out = standardize(y, part, params)
            gap = average_local_alignment(x, y, part, params) - average_local_alignment(
                x, y, out, params
            )
            exceed += gap > margin
        fractions.append(exceed / trials)
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))
    assert fractions == [0.0, 0.0, 0.0]


def test_is_good_requires_matching_length():
    params = quiet_params(alpha=0.5, b=8, n=64)
    with pytest.raises(ValueError):
        is_good(BitString.ones(64), BitString.ones(30), params)
    # |y| = floor(alpha |x|) is taken exactly: (1 - 0.9) * 100 floors to 10,
    # so this call passes the dimension check.
    is_good(BitString.ones(100), BitString.ones(10), quiet_params(alpha=1 - 0.9, b=10, n=100))


def test_trials_raise_when_no_draw_is_typical(monkeypatch):
    monkeypatch.setattr(alignment, "is_typical", lambda x, b: False)
    with pytest.raises(ValueError, match="b = 16 in 64 draws"):
        alignment.alignment_experiment(0.5, 16, 320, 1, Seed(2))


def test_planted_alignment_dominates_null_on_average():
    # At desk scale both laws clear the asymptotic threshold, but the planted
    # law still scores visibly higher on average.
    from subseqlab.core import sample_planted

    params = quiet_params(alpha=0.5, b=32, n=1280)
    pl, nu = [], []
    for t in range(6):
        d = sample_planted(1280, 640, Seed(600 + t))
        pl.append(total_alignment_ind(d.x, d.y, params))
        x = sample_uniform_string(1280, Seed(700 + t))
        y = sample_uniform_string(640, Seed(800 + t))
        nu.append(total_alignment_ind(x, y, params))
    assert np.mean(pl) > np.mean(nu)
