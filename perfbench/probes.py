"""Wrappers the benchmark swaps in for the functions one subseqlab module
calls in another, and the per-layer metrics computed from what they record.

Nothing under src/ is edited: each wrapper replaces a module attribute for
the length of one workload run and is removed afterwards.

Two modes.  Untraced, only the capture hooks run: they keep each sampler
draw, each partition-function result and each good-set decision so that
checks.py can verify them.  They cost one Python call per sample, against
DPs of 0.1-1 s.  Traced, every boundary in BOUNDARIES also records a span
[name, start, end, parent, extra] in memory; run.py writes the spans out
when the benchmark ends.  LogDPTable.advance runs once per DP row, so it adds
its time to the enclosing span instead of opening one of its own.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

from subseqlab import alignment, cli, montecarlo, partition

# (module, attribute, span name).  The first part of a span name is the
# layer that does the work; partition.log_count_embeddings is named after
# the kernel its environment selects.
BOUNDARIES = (
    (cli, "main", "cli.main"),
    (cli, "mutual_info_point", "montecarlo.mutual_info_point"),
    (cli, "polymer_comparison_curve", "montecarlo.polymer_comparison_curve"),
    (cli, "alignment_experiment", "alignment.alignment_experiment"),
    (cli, "render_line_chart", "svg.render_line_chart"),
    (montecarlo, "estimate_quenched", "montecarlo.estimate_quenched"),
    (montecarlo, "estimate_polymer", "montecarlo.estimate_polymer"),
    (montecarlo, "sample_planted", "core.sample_planted"),
    (montecarlo, "sample_null", "core.sample_null"),
    (montecarlo, "log_count_embeddings", "partition.log_count_embeddings"),
    (montecarlo, "dgv_lower_bound", "closed_form.dgv_lower_bound"),
    (montecarlo, "upper_bound_uniform_capacity", "closed_form.upper_bound_uniform_capacity"),
    (montecarlo, "strict_weak_value", "closed_form.strict_weak_value"),
    (alignment, "is_good", "alignment.is_good"),
    (alignment, "is_typical", "core.is_typical"),
    (alignment, "sample_planted", "core.sample_planted"),
    (alignment, "sample_uniform_string", "core.sample_uniform_string"),
)

ESTIMATORS = frozenset(
    ("montecarlo.mutual_info_point", "montecarlo.estimate_quenched", "montecarlo.estimate_polymer")
)


@dataclass(frozen=True)
class Sample:
    """One rank-one DP: the disorder it ran on and the log Z it returned."""

    law: str | None  # "planted" or "null"; None when no sampler drew (x, y)
    n: int
    seed: object  # the subseqlab.core.Seed handed to the sampler
    x: object  # uint8 arrays
    y: object
    logz: float


@dataclass(frozen=True)
class Trial:
    """One good-set decision of the alignment experiment."""

    x: object
    y: object
    b: int
    good: bool


class Probes:
    """Installs the wrappers, keeps the captured records and the spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._last_draw = None
        self.samples = []
        self.weighted = []  # (N, M, log Z) of each generic-environment DP
        self.trials = []

    # -- captures, called with the wrapped call's positional args and result

    def _on_draw(self, args, out):
        self._last_draw = (args[2], out)

    def _on_dp(self, args, out):
        env = args[0]
        n, m = env.dims
        if isinstance(env, partition.RankOneIndicator):
            seed, d = self._last_draw if self._last_draw and self._last_draw[1].x is env.x else (None, None)
            law = d.law.value if d is not None else None
            self.samples.append(Sample(law, n, seed, env.x.bits, env.y.bits, out))
        else:
            self.weighted.append((n, m, out))
        return {"cells": n * m, "zero": out == -math.inf}

    def _on_is_good(self, args, out):
        x, y, params = args
        self.trials.append(Trial(x.bits, y.bits, params.b, bool(out)))
        big_b = params.big_b
        required = max(0, big_b - params.induced_budget)
        return {"cells": big_b * (params.b + 1) * (required + 1) * (len(y) + 1)}

    def _on_typical(self, args, out):
        return {"ok": bool(out)}

    # -- installing and removing wrappers

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextmanager
    def installed(self, traced: bool):
        """Capture wrappers always; span wrappers too when traced."""
        captures = {
            (montecarlo, "sample_planted"): self._on_draw,
            (montecarlo, "sample_null"): self._on_draw,
            (montecarlo, "log_count_embeddings"): self._on_dp,
            (alignment, "is_good"): self._on_is_good,
        }
        if traced:
            captures[(alignment, "is_typical")] = self._on_typical
        try:
            for owner, attr, name in BOUNDARIES:
                capture = captures.get((owner, attr))
                if traced or capture is not None:
                    fn = getattr(owner, attr)
                    self._patch(owner, attr, self._wrap(fn, name, traced, capture))
            if traced:
                self._patch(partition.LogDPTable, "advance", self._wrap_advance(partition.LogDPTable.advance))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
            self._stack.clear()
            self._last_draw = None

    def take(self):
        """Return and clear the records captured since the last call."""
        out = (self.samples, self.weighted, self.trials)
        self.samples, self.weighted, self.trials = [], [], []
        return out

    def _wrap(self, fn, name, traced, capture):
        def wrapped(*args, **kwargs):
            span = None
            if traced:
                span_name = name
                if name == "partition.log_count_embeddings":
                    rank_one = isinstance(args[0], partition.RankOneIndicator)
                    span_name = "partition.rank_one" if rank_one else "partition.generic"
                parent = self._stack[-1] if self._stack else None
                span = [span_name, time.perf_counter(), None, parent, {}]
                self._stack.append(len(self.spans))
                self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                if span is not None:
                    span[2] = time.perf_counter()
                    self._stack.pop()
            if capture is not None:
                extra = capture(args, out)
                if span is not None and extra:
                    span[4].update(extra)
            return out

        return wrapped

    def _wrap_advance(self, advance):
        def wrapped(table, log_weights):
            t0 = time.perf_counter()
            advance(table, log_weights)
            if self._stack:
                extra = self.spans[self._stack[-1]][4]
                extra["advance_s"] = extra.get("advance_s", 0.0) + time.perf_counter() - t0

        return wrapped


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer values (units in run.PER_LAYER_UNITS) from a traced run's spans.

    A call that raised has no capture in its extra, so it counts no cells.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]

    def named(pred):
        return [i for i, s in enumerate(spans) if pred(s[0])]

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_time(layer):
        return sum(dur[i] - child[i] for i in named(lambda n: n.split(".")[0] == layer))

    rank = named(lambda n: n == "partition.rank_one")
    generic = named(lambda n: n == "partition.generic")
    rank_cells = sum(spans[i][4].get("cells", 0) for i in rank)
    generic_cells = sum(spans[i][4].get("cells", 0) for i in generic)
    advance_s = sum(spans[i][4].get("advance_s", 0.0) for i in generic)
    dps = rank + generic
    points = [i for i in named(lambda n: n in ESTIMATORS)
              if spans[i][3] is None or spans[spans[i][3]][0] not in ESTIMATORS]
    samplers = named(lambda n: n.startswith("core.sample_"))
    typical = named(lambda n: n == "core.is_typical")
    good = named(lambda n: n == "alignment.is_good")
    accepted = sum(1 for i in typical if spans[i][4].get("ok"))
    # An atypical fallback is an is_good call whose ambient string was the
    # last one is_typical rejected: the retry budget ran out.
    fallbacks = 0
    last_ok = True
    for s in spans:
        if s[0] == "core.is_typical":
            last_ok = s[4].get("ok", False)
        elif s[0] == "alignment.is_good" and not last_ok:
            fallbacks += 1
    good_cells = sum(spans[i][4].get("cells", 0) for i in good)
    return {
        "partition.rank_one.calls": len(rank),
        "partition.rank_one.cells": rank_cells,
        "partition.rank_one.dp_ms.p50": 1e3 * percentile([dur[i] for i in rank], 0.5),
        "partition.rank_one.dp_ms.p90": 1e3 * percentile([dur[i] for i in rank], 0.9),
        "partition.rank_one.cells_per_s": _ratio(rank_cells, total(rank)),
        "partition.generic.cells": generic_cells,
        "partition.generic.advance_s": advance_s,
        "partition.generic.weights_s": total(generic) - advance_s,
        "partition.generic.cells_per_s": _ratio(generic_cells, total(generic)),
        "montecarlo.samples": len(dps),
        "montecarlo.point_s.p50": percentile([dur[i] for i in points], 0.5),
        "montecarlo.point_s.p90": percentile([dur[i] for i in points], 0.9),
        "montecarlo.self_s": self_time("montecarlo"),
        "montecarlo.zero_frac": _ratio(sum(1 for i in dps if spans[i][4].get("zero")), len(dps)),
        "core.sample_s": total(samplers),
        "core.calls": len(samplers) + len(typical),
        "core.typical_retries": _ratio(len(typical) - len(good), len(good)),
        "core.typical_accept_ratio": _ratio(accepted, len(typical)),
        "alignment.is_good.calls": len(good),
        "alignment.is_good_ms.p50": 1e3 * percentile([dur[i] for i in good], 0.5),
        "alignment.is_good_ms.p90": 1e3 * percentile([dur[i] for i in good], 0.9),
        "alignment.cells": good_cells,
        "alignment.cells_per_s": _ratio(good_cells, total(good)),
        "alignment.atypical_fallbacks": fallbacks,
        "cli.self_s": self_time("cli"),
        "svg.render_s": total(named(lambda n: n.startswith("svg."))),
        "closed_form_s": total(named(lambda n: n.startswith("closed_form."))),
    }
