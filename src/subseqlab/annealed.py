"""Closed-form annealed free energies and the variational machinery behind the
planted-model formula, plus small-instance exact oracles.

All free energies are in nats.  The central objects:

  * the two-variable series Z(x, y) = sum_{a>=1} sum_{b=1}^{a} C(a-1,b-1)^2 x^a y^b,
    which evaluates in closed form to x*y / sqrt(D) with
    D = (1 - x - x*y)^2 - 4*x^2*y whenever D > 0 and diverges otherwise;
  * the moment-matched path (x(rho), y(rho)) and the normalization point rho*
    where Z(x(rho*), y(rho*)) = 1, the unique root in (0,1) of
    2 a^2 rho^2 + (4a - 5a^2 - 4) rho + 2 a^2 = 0  (a = alpha);
  * the planted annealed value  -h(alpha) - alpha ln 2 - ln x_a - alpha ln y_a
    with  Delta = sqrt(9 a^2 - 4 a + 4),  x_a = (Delta - 3a)/2,
    y_a = (3a + 2 - Delta)^2 / (2 (Delta - 3a) (2 + Delta - 3a)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import binary_entropy, digamma, golden_section_min, minimize_unimodal

LN2 = math.log(2.0)
NEG_INF = float("-inf")
_MAX_SHELLS = 100_000  # pair_mgf_series raises rather than sum more shells


class DivergentSeriesError(ValueError):
    """The pair series Z(x, y) diverges at the requested point."""


def null_annealed(alpha: float) -> float:
    """h(alpha) - alpha ln 2: the annealed free energy of independent disorder."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return binary_entropy(alpha) - alpha * LN2


def discriminant(x: float, y: float) -> float:
    """D(x, y) = (1 - x - x*y)^2 - 4*x^2*y, the series convergence margin."""
    return (1.0 - x - x * y) ** 2 - 4.0 * x * x * y


def pair_mgf_closed_form(x: float, y: float) -> float:
    """Z(x, y) = x*y / sqrt(D(x, y)) for x, y > 0 with D > 0."""
    if x <= 0 or y <= 0:
        raise ValueError("x and y must be positive")
    d = discriminant(x, y)
    if d <= 0:
        raise DivergentSeriesError(f"series diverges at x={x}, y={y} (discriminant {d:g} <= 0)")
    return x * y / math.sqrt(d)


def pair_mgf_series(x: float, y: float, tol: float = 1e-12) -> float:
    """Direct evaluation of the pair series, summed shell by shell in the outer
    index until the geometric tail estimate drops below tol.

    Shell a contributes sum_k C(a-1,k)^2 x^a y^(k+1); consecutive-shell ratios
    increase toward x*(1+sqrt(y))^2, so the larger of the observed ratio and
    that limit gives a geometric tail bound.
    """
    if x <= 0 or y <= 0:
        raise ValueError("x and y must be positive")
    ratio_limit = x * (1.0 + math.sqrt(y)) ** 2
    if ratio_limit >= 1.0:
        raise DivergentSeriesError(
            f"series diverges at x={x}, y={y}: shell ratio limit {ratio_limit:g} >= 1"
        )
    # Shells are summed in the log domain: individual terms span hundreds of
    # orders of magnitude even when the shell itself is moderate.
    log_x, log_y = math.log(x), math.log(y)
    log_tail_factor = math.log(ratio_limit / (1.0 - ratio_limit))
    total_log = NEG_INF
    for m in range(_MAX_SHELLS):  # shell m hosts outer index a = m + 1
        # log term_k = (m+1) ln x + (k+1) ln y + 2 ln C(m, k), k = 0..m.
        k = np.arange(m, dtype=np.float64)
        increments = 2.0 * (np.log(m - k) - np.log(k + 1.0)) + log_y
        log_terms = (m + 1) * log_x + log_y + np.concatenate([[0.0], np.cumsum(increments)])
        peak = log_terms.max()
        shell_log = peak + math.log(np.exp(log_terms - peak).sum())
        total_log = np.logaddexp(total_log, shell_log)
        if shell_log + log_tail_factor < math.log(tol) + total_log:
            return float(math.exp(total_log))
    raise DivergentSeriesError(
        f"series did not converge within {_MAX_SHELLS} shells at x={x}, y={y}"
    )


def x_of_rho(alpha: float, rho: float) -> float:
    """Moment-matched x(rho) = (1-a)(2-2a+a*rho) / (2-a*rho)."""
    _check_alpha_rho(alpha, rho)
    return (1.0 - alpha) * (2.0 - 2.0 * alpha + alpha * rho) / (2.0 - alpha * rho)


def y_of_rho(alpha: float, rho: float) -> float:
    """Moment-matched y(rho) = a^2 (2-rho)(1-rho) / ((1-a)(2-2a+a*rho))."""
    _check_alpha_rho(alpha, rho)
    return (
        alpha * alpha * (2.0 - rho) * (1.0 - rho)
        / ((1.0 - alpha) * (2.0 - 2.0 * alpha + alpha * rho))
    )


def z_of_rho(alpha: float, rho: float) -> float:
    """Z along the moment-matched path:
    a (1-rho) sqrt(2-rho) / (sqrt(rho) sqrt((2-a*rho)(2-2a+a*rho)))."""
    _check_alpha_rho(alpha, rho)
    return (
        alpha * (1.0 - rho) * math.sqrt(2.0 - rho)
        / (math.sqrt(rho) * math.sqrt((2.0 - alpha * rho) * (2.0 - 2.0 * alpha + alpha * rho)))
    )


def _check_alpha_rho(alpha: float, rho: float) -> None:
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0 < rho < 1:
        raise ValueError(f"rho must lie strictly inside (0, 1), got {rho}")


def rho_star(alpha: float) -> float:
    """Unique root in (0, 1) of 2a^2 r^2 + (4a - 5a^2 - 4) r + 2a^2 = 0.

    The two roots multiply to 1, so the stable quadratic form (compute the
    large root via q, divide the constant term by q) avoids cancellation.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    a_coef = 2.0 * alpha * alpha
    b_coef = 4.0 * alpha - 5.0 * alpha * alpha - 4.0  # always negative on (0,1)
    c_coef = a_coef
    disc = b_coef * b_coef - 4.0 * a_coef * c_coef
    q = -(b_coef - math.sqrt(disc)) / 2.0
    return c_coef / q


def phi_of_rho(alpha: float, rho: float) -> float:
    """ln Z(x(rho), y(rho)) - ln x(rho)/(a*rho) - ln y(rho)/rho, the inner
    variational value at the moment-matched exponential-family point."""
    x = x_of_rho(alpha, rho)
    y = y_of_rho(alpha, rho)
    return (
        math.log(pair_mgf_closed_form(x, y))
        - math.log(x) / (alpha * rho)
        - math.log(y) / rho
    )


def planted_objective(alpha: float, rho: float) -> float:
    """The outer objective a * rho * Phi(rho); maximized at rho*."""
    return alpha * rho * phi_of_rho(alpha, rho)


@dataclass(frozen=True)
class AnnealedPlantedSolution:
    """Closed-form solution bundle for the planted annealed free energy."""

    alpha: float
    delta: float
    x: float
    y: float
    rho_star: float
    raw: float    # -ln x - alpha ln y, the growth rate of the pair sum
    value: float  # raw - h(alpha) - alpha ln 2


def planted_annealed(alpha: float) -> AnnealedPlantedSolution:
    """Evaluate the closed-form planted annealed free energy at alpha."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    delta = math.sqrt(9.0 * alpha * alpha - 4.0 * alpha + 4.0)
    x = (delta - 3.0 * alpha) / 2.0
    y = (3.0 * alpha + 2.0 - delta) ** 2 / (2.0 * (delta - 3.0 * alpha) * (2.0 + delta - 3.0 * alpha))
    raw = -math.log(x) - alpha * math.log(y)
    value = raw - binary_entropy(alpha) - alpha * LN2
    return AnnealedPlantedSolution(
        alpha=alpha, delta=delta, x=x, y=y, rho_star=rho_star(alpha), raw=raw, value=value
    )


def maximize_planted_objective(alpha: float):
    """Numeric maximization of a*rho*Phi(rho) over (0, 1); returns (rho, value).

    Independent route to the closed-form raw value: golden section on the
    negated objective, which is strictly increasing then decreasing.
    """
    rho, neg = golden_section_min(lambda r: -planted_objective(alpha, r), 1e-9, 1.0 - 1e-9)
    return rho, -neg


# ---------------------------------------------------------------------------
# Exact finite-size pair sum
# ---------------------------------------------------------------------------

_ORACLE_LIMIT = 14


def barZ_exact(n: int, m: int):
    """Exact sum over embedding pairs (sigma, tau) of 2^(overlap), where overlap
    counts positions j with sigma(j) = tau(j).

    Computed by the composition identity: pairs factor over maximal agreement
    blocks, giving sum over all tuples of gaps (a_k, b_k) >= (1, 1) with
    sum a = n+1, sum b = m+1 of the product of C(a_k - 1, b_k - 1)^2.
    Big-integer arithmetic throughout; limited to n <= 14 because the direct
    pair enumeration used to cross-check it explodes combinatorially.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got n={n}, m={m}")
    if n > _ORACLE_LIMIT:
        raise ValueError(f"out of oracle range: n={n} exceeds {_ORACLE_LIMIT}")
    # f[A][B] = sum over gap tuples with sum a = A, sum b = B of prod weights.
    f = [[0] * (m + 2) for _ in range(n + 2)]
    f[0][0] = 1
    for total_a in range(1, n + 2):
        for total_b in range(1, min(total_a, m + 1) + 1):
            acc = 0
            for a in range(1, total_a + 1):
                rest_a = total_a - a
                bmax = min(a, total_b)
                for b in range(1, bmax + 1):
                    prev = f[rest_a][total_b - b]
                    if prev:
                        acc += math.comb(a - 1, b - 1) ** 2 * prev
            f[total_a][total_b] = acc
    return f[n + 1][m + 1]


def planted_mean_partition(n: int, m: int):
    """E[Z] under the planted law at finite size, as the exact rational
    barZ_exact / (C(n, m) * 2^m), a Fraction."""
    from fractions import Fraction

    return Fraction(barZ_exact(n, m), math.comb(n, m) * 2**m)


# ---------------------------------------------------------------------------
# Exactly solvable Gamma-weight polymer
# ---------------------------------------------------------------------------


def strict_weak_argmin(a: float, b: float, alpha: float) -> float:
    """Minimizer lambda* of -(1-alpha) psi(lam) + psi(a+lam) + alpha ln b."""
    if a <= 0 or b <= 0:
        raise ValueError("shape and scale must be positive")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    def objective(lam: float) -> float:
        return -(1.0 - alpha) * digamma(lam) + digamma(a + lam) + alpha * math.log(b)

    lam, _ = minimize_unimodal(objective, 0.25, 4.0)
    return lam


def strict_weak_value(a: float, b: float, alpha: float) -> float:
    """Limiting free energy of the Gamma(shape a, scale b) weight polymer:

        inf over lam > 0 of -(1-alpha) psi(lam) + psi(a+lam) + alpha ln b.

    b is the scale parameter: a=1, b=1/2 gives Exponential weights of mean 1/2.
    """
    lam = strict_weak_argmin(a, b, alpha)
    return -(1.0 - alpha) * digamma(lam) + digamma(a + lam) + alpha * math.log(b)
