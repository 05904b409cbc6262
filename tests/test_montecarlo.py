import dataclasses
import math
import warnings

import pytest

from subseqlab import montecarlo
from subseqlab.annealed import null_annealed
from subseqlab.core import Seed
from subseqlab.montecarlo import (
    CurveSpec,
    NULL,
    PLANTED,
    PLANTED_BDC,
    STRICT_WEAK,
    curve,
    estimate_polymer,
    estimate_quenched,
    mutual_info_point,
    null_planted_gap_experiment,
    polymer_comparison_curve,
)
from subseqlab.verify import check_nishimori_identity


def test_planted_alpha_one_is_exact_zero():
    est = estimate_quenched(PLANTED, 1.0, 50, 4, Seed(1))
    assert est.mean == 0.0
    assert est.stderr == 0.0
    assert est.zero_fraction == 0.0


def test_determinism_and_substream_independence():
    a = estimate_quenched(PLANTED, 0.5, 200, 6, Seed(3))
    b = estimate_quenched(PLANTED, 0.5, 200, 6, Seed(3))
    assert a == b
    c = estimate_quenched(PLANTED, 0.5, 200, 6, Seed(4))
    assert a.mean != c.mean


def test_planted_zero_fraction_always_zero():
    for i in range(5):
        est = estimate_quenched(PLANTED, 0.4, 120, 4, Seed(10 + i))
        assert est.zero_fraction == 0.0
    est = estimate_quenched(PLANTED_BDC, 0.4, 120, 4, Seed(99))
    assert est.zero_fraction == 0.0


def test_null_alpha_above_half_warns():
    with pytest.warns(UserWarning):
        estimate_quenched(NULL, 0.6, 50, 2, Seed(5))


def test_polymer_point_quiets_only_the_null_warning(monkeypatch):
    # A warning from the kernel passes through; only the alpha >= 1/2 one is quieted.
    real = montecarlo.log_count_embeddings

    def warning_kernel(env):
        warnings.warn("from the kernel", RuntimeWarning)
        return real(env)

    monkeypatch.setattr(montecarlo, "log_count_embeddings", warning_kernel)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        montecarlo.polymer_point(0.5, 40, 2, Seed(1))
    assert [w.category for w in caught] == [RuntimeWarning, RuntimeWarning]


def test_invalid_model_and_dims():
    with pytest.raises(ValueError):
        estimate_quenched("nonsense", 0.5, 10, 2, Seed(0))
    with pytest.raises(ValueError):
        estimate_quenched(PLANTED, 0.5, 0, 2, Seed(0))
    with pytest.raises(ValueError):
        estimate_polymer("nonsense", 0.5, 10, 2, Seed(0))


def test_polymer_degenerate_single_cell():
    # n = m = 1: Z = B[1, 1], so the mean estimates E[ln B] = psi(1) + ln(1/2).
    est = estimate_polymer(STRICT_WEAK, 1.0, 1, 4000, Seed(6))
    expected = -0.5772156649015329 - math.log(2.0)
    assert abs(est.mean - expected) < 4 * est.stderr + 0.05


def test_curve_spec_validation():
    with pytest.raises(ValueError):
        CurveSpec(grid=())
    with pytest.raises(ValueError):
        CurveSpec(grid=(0.2, 0.1))
    with pytest.raises(ValueError):
        CurveSpec(grid=(0.0, 1.0))
    spec = CurveSpec(grid=(0.0, 0.5, 0.9), n=100, samples=2)
    assert spec.grid == (0.0, 0.5, 0.9)


def test_mutual_info_curve_p_zero_row():
    spec = CurveSpec(grid=(0.0, 0.4), n=300, samples=3, seed=Seed(11))
    rows = curve(mutual_info_point, spec)
    assert rows[0].p == 0.0
    assert rows[0].mc_capacity == math.log(2.0)
    assert rows[0].lower_dgv == math.log(2.0)
    assert rows[0].upper_annealed == math.log(2.0)
    assert rows[0].mc_stderr == 0.0
    # rows come back in grid order with the expected ordering of curves
    assert rows[1].lower_dgv <= rows[1].mc_capacity + 3 * rows[1].mc_stderr


def test_mutual_info_curve_deterministic():
    spec = CurveSpec(grid=(0.2, 0.6), n=200, samples=4, seed=Seed(12))
    assert curve(mutual_info_point, spec) == curve(mutual_info_point, spec)


def test_polymer_comparison_rows():
    spec = CurveSpec(grid=(0.25, 0.5), n=300, samples=4, seed=Seed(13))
    rows = polymer_comparison_curve(spec)
    assert [r.alpha for r in rows] == [0.25, 0.5]
    assert all(math.isfinite(r.strict_weak_exact) for r in rows)
    with pytest.raises(ValueError):
        polymer_comparison_curve(CurveSpec(grid=(0.25, 0.7), n=100, samples=2))


def test_gap_experiment_exhaustive_identity(monkeypatch):
    # The check must reach (n, m) = (8, 3) with its 1e-12 bound, and fail on
    # a NaN side after the first size.
    real = montecarlo.null_planted_gap_experiment

    def shifted(shift, n_at):
        def gap(alpha, n):
            rep = real(alpha, n)
            return dataclasses.replace(rep, planted_side=rep.planted_side + shift) if n == n_at else rep
        return gap

    for shift, n_at in ((1e-11, 8), (math.nan, 6)):
        monkeypatch.setattr(montecarlo, "null_planted_gap_experiment", shifted(shift, n_at))
        assert not check_nishimori_identity().passed


def test_gap_experiment_m_zero():
    rep = null_planted_gap_experiment(0.0, 6)
    assert rep.planted_side == 0.0
    assert rep.null_side == 0.0


def test_gap_experiment_exact_m():
    rep = null_planted_gap_experiment(1 - 0.9, 10)
    assert rep.m == 1


def test_gap_experiment_out_of_range():
    with pytest.raises(ValueError):
        null_planted_gap_experiment(0.5, 14)


def test_gap_experiment_sampled_reports_gap():
    # The planted-vs-null-annealed gap at alpha = 0.3 is a few 1e-3 nats, so
    # the 3-sigma witness needs the full n = 10,000 scale.
    est = estimate_quenched(PLANTED, 0.3, 10_000, 8, Seed(21))
    assert est.mean > null_annealed(0.3) + 3 * est.stderr


def test_self_averaging_variance_shrinks_with_n():
    # Sample std of (1/n) log Z decreases along n under the null law.
    stds = []
    for k, n in enumerate((500, 2000, 8000)):
        est = estimate_quenched(NULL, 0.25, n, 12, Seed(40 + k))
        stds.append(est.stderr * math.sqrt(est.samples))
    assert stds[0] > stds[1] > stds[2]


def test_self_averaging_stderr_bound_at_scale():
    # 8 samples at N = 10,000 pin the mean to well under 0.01 for both laws.
    planted = estimate_quenched(PLANTED, 0.3, 10_000, 8, Seed(60))
    null = estimate_quenched(NULL, 0.3, 10_000, 8, Seed(61))
    assert planted.stderr < 0.01
    assert null.stderr < 0.01
