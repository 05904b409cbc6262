"""Scalar special functions and a 1-d minimizer, self-contained on stdlib math.

Everything here is double precision.  The digamma implementation follows the
classic recipe: shift the argument above 10 with psi(x) = psi(x+1) - 1/x, then
apply the asymptotic series.  Accuracy is ~1e-14 over (0, inf), which is more
than the 1e-10 the callers need.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015329

# Coefficients c_k of the asymptotic tail  psi(x) ~ ln x - 1/(2x) - sum c_k x^(-2k),
# i.e. B_{2k}/(2k) for k = 1..6.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)

_SHIFT_THRESHOLD = 10.0


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function for x > 0."""
    if not x > 0:
        raise ValueError(f"digamma requires a positive argument, got {x}")
    acc = 0.0
    while x < _SHIFT_THRESHOLD:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        tail = (tail + c) * inv2
    return acc + math.log(x) - 0.5 / x - tail


def binary_entropy(p: float) -> float:
    """Entropy -p ln p - (1-p) ln(1-p) in nats, with the 0 log 0 := 0 limits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erf."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-13  # bracket width at which golden section stops, relative to max(1, |a| + |b|)
_MAX_EXPAND = 200  # bracket expansions before minimize_unimodal gives up


def golden_section_min(f, a: float, b: float):
    """Golden-section minimum of a unimodal f on [a, b].  Returns (argmin, value)."""
    if not a < b:
        raise ValueError("need a < b")
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _GOLDEN_TOL * max(1.0, abs(a) + abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def minimize_unimodal(f, lo: float, hi: float):
    """Bracket an interior minimum of f on (0, inf) starting from [lo, hi],
    then refine by golden section.  Returns (argmin, value).

    The bracket grows geometrically; ValueError when no interior minimum is
    found within _MAX_EXPAND expansions (no-interior-minimum condition).
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    a, b = lo, hi
    mid = math.sqrt(a * b)
    fa, fm, fb = f(a), f(mid), f(b)
    for _ in range(_MAX_EXPAND):
        if fm <= fa and fm <= fb:
            break
        if fa < fm:
            # Descending to the left: slide the bracket down.
            b, fb = mid, fm
            mid, fm = a, fa
            a = a / 4.0
            fa = f(a)
        else:
            # Descending to the right: slide the bracket up.
            a, fa = mid, fm
            mid, fm = b, fb
            b = b * 4.0
            fb = f(b)
        if not (math.isfinite(a) and math.isfinite(b)):
            break
    else:
        raise ValueError("no interior minimum found while expanding the bracket")
    if not (fm <= fa and fm <= fb):
        raise ValueError("no interior minimum found while expanding the bracket")
    return golden_section_min(f, a, b)
