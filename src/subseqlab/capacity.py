"""Uniform-capacity bounds for the binary deletion channel, in nats.

With alpha = 1 - p, the rate achievable by uniformly random codebooks is

    C_unif(p) = alpha ln 2 - h(alpha) + f_pl(alpha),

so the closed-form planted annealed value gives an analytic upper bound and
the explicit alignment constants give a (tiny but positive) lower bound that
only exists in log space.
"""

from __future__ import annotations

import math

from .annealed import LN2, planted_annealed
from .special import binary_entropy, normal_cdf

LN10 = math.log(10.0)
_LOG_51200 = math.log(51200.0)
_LOG_1920 = math.log(1920.0)


def upper_bound_uniform_capacity(p: float) -> float:
    """(1-p) ln 2 - h(1-p) + planted annealed value; ln 2 exactly at p = 0."""
    if not 0 <= p < 1:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    if p == 0:
        return LN2
    alpha = 1.0 - p
    return alpha * LN2 - binary_entropy(alpha) + planted_annealed(alpha).value


def dgv_lower_bound(p: float) -> float:
    """max(0, ln 2 - h(p)) for p <= 1/2, zero beyond: the classical greedy bound."""
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p > 0.5:
        return 0.0
    return max(0.0, LN2 - binary_entropy(p))


def skip_vector_lower_bound(alpha: float) -> float:
    """h(2 alpha)/2, a lower bound on the null free energy for alpha < 1/2."""
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    return binary_entropy(2.0 * alpha) / 2.0


def beta_alpha(alpha: float) -> float:
    """P(N(alpha, alpha(1-alpha)) >= 0) - 1/2 = Phi(sqrt(alpha/(1-alpha))) - 1/2."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return normal_cdf(math.sqrt(alpha / (1.0 - alpha))) - 0.5


def beta_star(alpha: float) -> float:
    """beta(alpha)/40, the alignment separation margin."""
    return beta_alpha(alpha) / 40.0


def log_kappa(alpha: float) -> float:
    """Natural log of 1920^96 / (alpha^24 beta^96 (1-alpha)^12), assembled
    term by term in log space.  The integer ceiling applied to the ratio is
    dropped: at magnitudes above e^700 its relative effect is < 1e-300."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return (
        96.0 * _LOG_1920
        - 24.0 * math.log(alpha)
        - 96.0 * math.log(beta_alpha(alpha))
        - 12.0 * math.log(1.0 - alpha)
    )


def log_explicit_lower_bound(p: float) -> float:
    """Natural log of the explicit positive capacity bound
    beta(1-p)^3 / (51200 kappa(1-p)^5): finite in log space for every p."""
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    alpha = 1.0 - p
    return 3.0 * math.log(beta_alpha(alpha)) - _LOG_51200 - 5.0 * log_kappa(alpha)


def log10_explicit_lower_bound(p: float) -> float:
    return log_explicit_lower_bound(p) / LN10


__all__ = [
    "upper_bound_uniform_capacity",
    "dgv_lower_bound",
    "skip_vector_lower_bound",
    "beta_alpha",
    "beta_star",
    "log_kappa",
    "log_explicit_lower_bound",
    "log10_explicit_lower_bound",
]
