import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subseqlab import annealed
from subseqlab.annealed import (
    DivergentSeriesError,
    LN2,
    barZ_exact,
    discriminant,
    null_annealed,
    pair_mgf_closed_form,
    pair_mgf_series,
    planted_annealed,
    planted_mean_partition,
    planted_objective,
    rho_star,
    strict_weak_argmin,
    strict_weak_value,
    x_of_rho,
    y_of_rho,
    z_of_rho,
)
from subseqlab.special import EULER_GAMMA, binary_entropy, digamma
from subseqlab.verify import (
    check_closed_form_residuals,
    check_closed_form_vs_series,
    check_envelope_identity,
    check_gap_product_formula,
    check_planted_mean_enumeration,
    check_variational_max,
)

ALPHAS = [0.05 * k for k in range(1, 20)]


def test_null_annealed_values():
    # Frozen against 30-digit evaluation of h(a) - a ln 2.
    assert abs(null_annealed(0.25) - 0.3890483494788220) < 1e-14
    assert abs(null_annealed(0.5) - 0.5 * LN2) < 1e-14
    assert null_annealed(1e-9) < 3e-8  # -> 0 as alpha -> 0
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            null_annealed(bad)


def test_pair_mgf_closed_form_against_series_grid(monkeypatch):
    # The grid check must see a 1e-8 error at (0.2, 1.5), the point nearest
    # the divergence boundary (D = 0.01), and a NaN from the series at a
    # point other than the first.
    with monkeypatch.context() as mp:
        mp.setattr(annealed, "pair_mgf_closed_form",
                   lambda x, y: pair_mgf_closed_form(x, y) * (1 + 1e-8 * (discriminant(x, y) < 0.05)))
        assert not check_closed_form_vs_series().passed
    monkeypatch.setattr(annealed, "pair_mgf_series",
                        lambda x, y, tol: math.nan if x > 0.1 else pair_mgf_series(x, y, tol=tol))
    assert not check_closed_form_vs_series().passed


def test_pair_mgf_series_small_point():
    assert abs(pair_mgf_series(0.1, 0.1) - pair_mgf_closed_form(0.1, 0.1)) < 1e-10


def test_pair_mgf_first_shell():
    # Truncation after the first outer index contributes exactly x*y.
    x, y = 1e-8, 0.5
    assert abs(pair_mgf_series(x, y) - x * y) / (x * y) < 1e-6


def test_pair_mgf_divergence_boundary():
    y = 0.5
    x_crit = (1.0 + math.sqrt(y)) ** -2
    with pytest.raises(DivergentSeriesError):
        pair_mgf_closed_form(x_crit * 1.01, y)
    with pytest.raises(DivergentSeriesError):
        pair_mgf_series(x_crit * 1.01, y)
    # approaching the boundary from below blows up
    assert pair_mgf_closed_form(x_crit * 0.999999, y) > 1e2


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 0.18),
    st.floats(0.05, 1.4),
    st.floats(1.001, 1.2),
)
def test_pair_mgf_series_monotone(x, y, factor):
    if discriminant(x * factor, y * factor) <= 0.05:
        return
    base = pair_mgf_series(x, y, tol=1e-11)
    assert pair_mgf_series(x * factor, y, tol=1e-11) > base
    assert pair_mgf_series(x, y * factor, tol=1e-11) > base


def test_rho_path_values():
    # alpha=0.5, rho=rho*(0.5): x(rho) equals the closed-form x.
    assert abs(x_of_rho(0.5, 0.157670780786754588) - 0.2807764064044151) < 1e-12
    assert z_of_rho(0.5, 1 - 1e-9) < 1e-6
    assert z_of_rho(0.5, 1e-12) > 1e3
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            x_of_rho(0.5, bad)


def test_rho_star_values_and_normalization():
    assert abs(rho_star(0.5) - 0.1576707807867546) < 1e-12
    for a in ALPHAS:
        r = rho_star(a)
        assert 0 < r < 1
        assert abs(z_of_rho(a, r) - 1.0) < 1e-10
        # product of the two roots of the quadratic is 1
        a_coef = 2 * a * a
        b_coef = 4 * a - 5 * a * a - 4
        other = -b_coef / a_coef - r
        assert abs(r * other - 1.0) < 1e-9


def test_phi_objective_matches_raw_at_rho_star():
    for a in ALPHAS:
        sol = planted_annealed(a)
        assert abs(planted_objective(a, sol.rho_star) - sol.raw) < 1e-8


def test_envelope_derivative_identity(monkeypatch):
    # A NaN objective after the first alpha must fail the check.
    monkeypatch.setattr(annealed, "planted_objective",
                        lambda a, rho: math.nan if a > 0.3 else planted_objective(a, rho))
    assert not check_envelope_identity().passed


def test_objective_unimodal_shape():
    for a in (0.2, 0.5, 0.8):
        r_star = rho_star(a)
        grid = np.linspace(0.01, 0.99, 99)
        vals = [planted_objective(a, r) for r in grid]
        for r, v0, v1 in zip(grid, vals, vals[1:]):
            if r + 0.01 < r_star:
                assert v1 > v0
            elif r > r_star:
                assert v1 < v0


def test_planted_annealed_frozen_values():
    sol = planted_annealed(0.5)
    # Frozen against 30-digit evaluation: x = (sqrt(17)-3)/4, y = 1 - x.
    assert abs(sol.x - 0.2807764064044151) < 1e-14
    assert abs(sol.y - 0.7192235935955849) < 1e-14
    assert abs(sol.raw - 1.4349881286517330) < 1e-13
    assert abs(sol.value - 0.3952673578118150) < 1e-13
    assert abs(sol.rho_star - 0.1576707807867546) < 1e-12


def test_planted_annealed_residuals_across_alphas(monkeypatch):
    # A NaN residual after the first must fail the check.
    monkeypatch.setattr(annealed, "y_of_rho", lambda a, rho: math.nan if a > 0.5 else y_of_rho(a, rho))
    assert not check_closed_form_residuals().passed


def test_planted_annealed_matches_numeric_maximum(monkeypatch):
    # A NaN numeric maximum after the first alpha must fail the check.
    real = annealed.maximize_planted_objective
    monkeypatch.setattr(annealed, "maximize_planted_objective",
                        lambda a: (0.5, math.nan) if a > 0.5 else real(a))
    assert not check_variational_max().passed


def test_jensen_ordering():
    for a in ALPHAS:
        assert planted_annealed(a).value > null_annealed(a)


def test_barZ_identity_diagonal():
    for m in range(1, 9):
        assert barZ_exact(m, m) == 2**m


def test_barZ_matches_direct_double_sum(monkeypatch):
    # The check must reach n = 8.
    monkeypatch.setattr(annealed, "barZ_exact", lambda n, m: barZ_exact(n, m) + (n == 8))
    result = check_gap_product_formula()
    assert not result.passed and result.detail == "(n,m)=(8,1)"


def test_barZ_range_errors():
    with pytest.raises(ValueError):
        barZ_exact(15, 3)
    with pytest.raises(ValueError):
        barZ_exact(4, 0)
    with pytest.raises(ValueError):
        barZ_exact(3, 4)


def test_planted_mean_matches_full_enumeration(monkeypatch):
    # The check compares exact rationals, up to n = 6.
    monkeypatch.setattr(annealed, "planted_mean_partition",
                        lambda n, m: planted_mean_partition(n, m) + Fraction(n == 6, 10**30))
    result = check_planted_mean_enumeration()
    assert not result.passed and result.detail == "(n,m)=(6,1)"


def test_finite_size_annealed_trend():
    # (1/n) log E[Z_planted] increases toward the limiting value along fixed
    # alpha = 1/2; the limit bounds the finite-size values from above.
    limit = planted_annealed(0.5).value
    vals = []
    for n in (6, 8, 10, 12, 14):
        m = n // 2
        vals.append(math.log(float(planted_mean_partition(n, m))) / n)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v < limit for v in vals)


def test_digamma_reference_points():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-10
    scipy_special = pytest.importorskip("scipy.special")
    for x in (0.05, 0.3, 1.0, 2.5, 7.7, 20.0, 123.4):
        assert abs(digamma(x) - float(scipy_special.digamma(x))) < 1e-12


def test_strict_weak_stationarity():
    scipy_special = pytest.importorskip("scipy.special")
    for a, b, alpha in ((1.0, 0.5, 0.3), (2.0, 1.0, 0.5), (1.0, 0.5, 0.1)):
        lam = strict_weak_argmin(a, b, alpha)
        resid = (1 - alpha) * float(scipy_special.polygamma(1, lam)) - float(
            scipy_special.polygamma(1, a + lam)
        )
        assert abs(resid) < 1e-8


def test_strict_weak_frozen_values():
    # Frozen against 30-digit stationary-point evaluation.
    expected = {
        0.1: 0.2557220571869383,
        0.2: 0.3613602353033421,
        0.3: 0.4013507289396070,
        0.4: 0.3915151131910211,
    }
    for alpha, v in expected.items():
        assert abs(strict_weak_value(1.0, 0.5, alpha) - v) < 1e-10


def test_strict_weak_scale_convention():
    # As alpha -> 1 the value approaches E[ln Gamma(a, scale=b)] = psi(a) + ln b:
    # at a=1, b=1/2 that is -gamma - ln 2.  Convergence is O(sqrt(1-alpha)).
    v = strict_weak_value(1.0, 0.5, 1.0 - 1e-8)
    assert abs(v - (-EULER_GAMMA - math.log(2.0))) < 3e-4


def test_strict_weak_invalid_params():
    with pytest.raises(ValueError):
        strict_weak_value(0.0, 0.5, 0.3)
    with pytest.raises(ValueError):
        strict_weak_value(1.0, 0.5, 1.5)


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - LN2) < 1e-15
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
