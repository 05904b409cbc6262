import math

import pytest

from subseqlab import capacity
from subseqlab.annealed import LN2
from subseqlab.capacity import (
    beta_alpha,
    beta_star,
    dgv_lower_bound,
    log10_explicit_lower_bound,
    log_explicit_lower_bound,
    log_kappa,
    skip_vector_lower_bound,
    upper_bound_uniform_capacity,
)
from subseqlab.verify import check_capacity_sandwich


def test_upper_bound_endpoints_and_values():
    assert upper_bound_uniform_capacity(0.0) == LN2
    # Frozen against 30-digit evaluation of the closed form at p = 1/2.
    assert abs(upper_bound_uniform_capacity(0.5) - 0.0486937675318424) < 1e-13
    with pytest.raises(ValueError):
        upper_bound_uniform_capacity(1.0)
    with pytest.raises(ValueError):
        upper_bound_uniform_capacity(-0.1)


def test_upper_bound_strictly_decreasing():
    vals = [upper_bound_uniform_capacity(0.01 * k) for k in range(100)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_dgv_values():
    assert dgv_lower_bound(0.0) == LN2
    assert dgv_lower_bound(0.5) == 0.0
    assert dgv_lower_bound(0.75) == 0.0
    assert abs(dgv_lower_bound(0.25) - 0.1308120359411370) < 1e-13
    with pytest.raises(ValueError):
        dgv_lower_bound(1.5)


def test_skip_vector_bound():
    assert abs(skip_vector_lower_bound(0.25) - LN2 / 2) < 1e-14
    assert skip_vector_lower_bound(1e-9) < 3e-8
    assert abs(skip_vector_lower_bound(0.49) - 0.0490195566398660) < 1e-13
    for bad in (0.5, 0.6, 0.0):
        with pytest.raises(ValueError):
            skip_vector_lower_bound(bad)


def test_beta_alpha_values():
    # Standard normal CDF at 1 minus 1/2, against the erf-based 30-digit value.
    assert abs(beta_alpha(0.5) - 0.3413447460685429) < 1e-12
    assert beta_alpha(1e-9) < 1e-4
    assert abs(beta_alpha(1 - 1e-12) - 0.5) < 1e-6
    assert abs(beta_star(0.5) - 0.3413447460685429 / 40) < 1e-13


def test_log_kappa_value_and_floor():
    lk = log_kappa(0.5)
    assert abs(lk - 853.9078065210123) < 1e-9
    assert abs(lk / math.log(10) - 370.847448426185) < 1e-9
    floor = 96 * math.log(1920)
    for a in (1e-3, 0.1, 0.5, 0.9, 1 - 1e-3):
        v = log_kappa(a)
        assert math.isfinite(v) and v > floor
    assert log_kappa(1e-8) > log_kappa(0.5)
    assert log_kappa(1 - 1e-8) > log_kappa(0.5)


def test_explicit_lower_bound_log_space():
    l10 = log10_explicit_lower_bound(0.5)
    assert abs(l10 + 1860.3469324239877) < 1e-6
    for p in (0.01, 0.3, 0.7, 0.99):
        v = log_explicit_lower_bound(p)
        assert math.isfinite(v)
        assert v < 0  # the bound is far below 1


def test_bound_sandwich_grid(monkeypatch):
    # An upper bound 1e-9 under the DGV bound at the last grid point,
    # p = 0.96, must fail the check.
    monkeypatch.setattr(capacity, "upper_bound_uniform_capacity",
                        lambda p: dgv_lower_bound(p) - 1e-9 if p > 0.95 else upper_bound_uniform_capacity(p))
    result = check_capacity_sandwich()
    assert not result.passed and result.detail == "p=0.96"


def test_all_finite_across_extreme_alphas():
    for a in (1e-3, 1e-2, 0.5, 1 - 1e-2, 1 - 1e-3):
        p = 1 - a
        if 0 < p < 1:
            assert math.isfinite(log_explicit_lower_bound(p))
            assert math.isfinite(upper_bound_uniform_capacity(p))
        assert math.isfinite(log_kappa(a))
        assert math.isfinite(beta_alpha(a))
