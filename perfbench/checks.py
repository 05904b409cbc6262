"""Independent checks of what the workloads produced.

Each check returns a list of problems, (kind, message) pairs.  kind is
"wrong" when an output disagrees with an independent route, and "defect"
when the program computed its output faithfully but not what its
specification asks for: a dimension floor(alpha*N) one short, or an ambient
string that failed typicality being used anyway.  Both kinds fail the
operation; only "wrong" makes the run's outputs incorrect.
"""

from __future__ import annotations

import math
from fractions import Fraction

from subseqlab import core
from subseqlab.annealed import strict_weak_value
from subseqlab.core import BitString
from subseqlab.partition import LogDPTable, RankOneIndicator, greedy_embed

LOGZ_RTOL = 1e-9
TABLE_TOL = 1e-9  # the CSV prints 12 significant digits
GAMMA_BAND = 0.05  # acceptance criterion 6: relative distance to the closed form
GAMMA_SHAPE, GAMMA_SCALE = 1.0, 0.5  # estimate_polymer's default environment


def exact_length(fraction, n: int) -> int:
    """floor(fraction * n) in exact arithmetic; a str is read as its decimal text."""
    return math.floor(Fraction(fraction) * n)


def generic_log_count(x: BitString, y: BitString) -> float:
    """log Z by the generic weighted DP fed with the rank-one weight rows."""
    table = LogDPTable(len(y))
    for row in RankOneIndicator(x, y).log_weight_rows():
        table.advance(row)
    return table.value


def embedding_sample(sample, expected_m: int) -> list:
    """Check one rank-one DP sample against the generic route and greedy."""
    problems = []
    x, y = BitString(sample.x), BitString(sample.y)
    if len(y) != expected_m:
        problems.append(("defect", f"|y| = {len(y)}, exact M = {expected_m}"))
    if sample.law is None:
        return problems + [("wrong", "DP input was not drawn by a core sampler")]
    draw = core.sample_planted if sample.law == "planted" else core.sample_null
    d = draw(sample.n, len(y), sample.seed)
    if d.x != x or d.y != y:
        problems.append(("wrong", f"DP input differs from core.sample_{sample.law} at its seed"))
    ref = generic_log_count(d.x, d.y)
    got = sample.logz
    if math.isinf(ref) or math.isinf(got):
        if ref != got:
            problems.append(("wrong", f"log Z {got} but generic route gives {ref}"))
    elif abs(got - ref) > LOGZ_RTOL * max(1.0, abs(ref)):
        problems.append(("wrong", f"log Z {got!r} but generic route gives {ref!r}"))
    if (greedy_embed(x, y) is None) != (got == -math.inf):
        problems.append(("wrong", f"greedy embedding disagrees with log Z = {got}"))
    return problems


def table_value(name: str, got: float, want: float) -> list:
    if abs(got - want) > TABLE_TOL * max(1.0, abs(want)):
        return [("wrong", f"table {name} = {got!r}, samples give {want!r}")]
    return []


def gamma_estimate(alpha_text: str, mean: float) -> list:
    exact = strict_weak_value(GAMMA_SHAPE, GAMMA_SCALE, float(alpha_text))
    rel = abs(mean - exact) / abs(exact)
    if not rel < GAMMA_BAND:
        return [("wrong", f"strict-weak estimate {mean} is {rel:.3f} from the closed form {exact}")]
    return []


def alignment_trial(trial, expected_m: int) -> list:
    problems = []
    if len(trial.y) != expected_m:
        problems.append(("defect", f"|y| = {len(trial.y)}, exact floor(alpha N) = {expected_m}"))
    if not core.is_typical(BitString(trial.x), trial.b):
        problems.append(("defect", "is_good received an ambient string is_typical rejects"))
    return problems
