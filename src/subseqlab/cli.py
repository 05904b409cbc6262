"""Command-line front end: exact counting, the two capacity/polymer figures,
the alignment separation experiment, and the verification suite.

Conventions: all energies are reported in nats unless --bits is given; floats
are printed with 12 significant digits; CSV is UTF-8 with a header row and LF
endings; every subcommand honors --seed (default 42) and reruns are
byte-identical.  RSM_THREADS > 1 fans the figures' grid points and the
alignment trials out to worker processes (core.fan_out); per-sample
substreams make the output independent of the worker count.
Exit codes: 0 success, 1 verification failure, 2 usage, parse or output-path
errors (checked before any work runs).
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import __version__
from .alignment import alignment_experiment
from .annealed import LN2
from .core import BitString, Seed
from .montecarlo import CurveSpec, check_alpha_grid, curve, mutual_info_point, polymer_comparison_curve
from .partition import count_embeddings_exact
from .svg import render_line_chart


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _write_table(header, rows, args):
    """Write the table to args.out or stdout; JSON echoes the parsed arguments
    and the package, Python and numpy versions."""
    if args.format == "json":
        import json

        doc = {
            "config": {k: v for k, v in vars(args).items() if k not in ("fn", "out", "svg")},
            "version": {"subseqlab": __version__, "python": platform.python_version(), "numpy": np.__version__},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(text: str):
    vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    if not vals:
        raise ValueError("empty grid")
    return vals


def _check_writable(path: Optional[str]) -> None:
    """Reject an output path that cannot be created before any work runs."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path!r}: it is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ValueError(f"cannot write {path!r}: {folder!r} is not a writable directory")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_count(args) -> int:
    z = count_embeddings_exact(BitString.from_text(args.x), BitString.from_text(args.y))
    print(f"count: {z}")
    print(f"log: {_fmt(math.log(z)) if z > 0 else '-inf'}")
    return 0


@dataclass(frozen=True)
class Figure:
    """What sets one figure command apart.  rows(spec, u) returns the table's
    rows, in header order, with the rates scaled by the unit factor u; it looks
    the curve functions up in this module when it runs."""

    rows: Callable
    header: tuple
    series: tuple  # (name, color, dashed, column of the plotted value) per SVG line
    x_label: str
    y_label: str  # the unit is appended
    title: str
    check_grid: Callable = lambda grid: grid


FIGURES = {
    "figure1": Figure(
        rows=lambda spec, u: [
            (r.p, r.lower_dgv * u, r.mc_capacity * u, r.mc_stderr * u, r.upper_annealed * u, r.zero_fraction)
            for r in curve(mutual_info_point, spec)
        ],
        header=("p", "dgv_lower", "mc_capacity", "mc_stderr", "upper_annealed", "zero_fraction"),
        series=(("greedy lower bound", "green", True, 1), ("simulated capacity", "orange", False, 2),
                ("annealed upper bound", "blue", False, 4)),
        x_label="deletion probability p",
        y_label="rate",
        title="Uniform-code deletion channel rate: bounds and simulation",
    ),
    "figure2": Figure(
        rows=lambda spec, u: [
            (r.alpha, r.strict_weak_exact * u, r.null_mc * u, r.null_mc_stderr * u, r.null_zero_fraction)
            for r in polymer_comparison_curve(spec)
        ],
        header=("alpha", "strict_weak_exact", "null_mc", "null_mc_stderr", "null_zero_fraction"),
        series=(("Gamma polymer (exact)", "blue", False, 1), ("null model (simulated)", "orange", False, 2)),
        x_label="density alpha",
        y_label="free energy",
        title="Exactly solvable polymer vs simulated null model",
        check_grid=check_alpha_grid,
    ),
}


def cmd_figure(args) -> int:
    figure = FIGURES[args.command]
    # Parsed in place, so the JSON echo shows the grid that ran.
    args.grid = figure.check_grid(_parse_grid(args.grid))
    spec = CurveSpec(grid=args.grid, n=args.n, samples=args.samples, seed=Seed(args.seed))
    rows = figure.rows(spec, 1.0 / LN2 if args.bits else 1.0)
    _write_table(figure.header, rows, args)
    if args.svg:
        chart = render_line_chart(
            [
                {"name": name, "color": color, "dashed": dashed, "points": [(r[0], r[col]) for r in rows]}
                for name, color, dashed, col in figure.series
            ],
            x_label=figure.x_label,
            y_label=f"{figure.y_label} ({'bits' if args.bits else 'nats'})",
            title=figure.title,
        )
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(chart)
    return 0


def cmd_alignment_experiment(args) -> int:
    result = alignment_experiment(args.alpha, args.b, args.n, args.trials, Seed(args.seed))
    header = ["law", "trials", "good_count", "good_frequency"]
    rows = [
        ("planted", result.trials, result.planted_good, result.planted_frequency),
        ("null", result.trials, result.null_good, result.null_frequency),
    ]
    _write_table(header, rows, args)
    return 0


def cmd_verify(args) -> int:
    from . import verify  # the oracle suite loads only for this command

    results = verify.run(args.level)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{tag}  {r.name}  [{r.seconds:.2f} s]{detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed [{args.level}]")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subseqlab",
        description="Subsequence-embedding partition functions and deletion-channel bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact embedding count of y into x")
    p.add_argument("x", help="ambient bit string, e.g. 10110")
    p.add_argument("y", help="candidate subsequence, e.g. 11")
    p.set_defaults(fn=cmd_count)

    def common(p):
        p.add_argument("--n", type=int, default=10_000, help="ambient length (default 10000)")
        p.add_argument("--samples", type=int, default=8, help="samples per grid point (default 8)")
        p.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--svg", default=None, help="also render an SVG chart to this path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--bits", action="store_true", help="report bits instead of nats")

    default_p_grid = ",".join(f"{0.05 * k:g}" for k in range(20))
    p = sub.add_parser("figure1", help="capacity bounds and simulation over a p grid")
    p.add_argument("--grid", default=default_p_grid, help="comma-separated p values")
    common(p)
    p.set_defaults(fn=cmd_figure)

    default_a_grid = ",".join(f"{0.05 * k:g}" for k in range(1, 11))
    p = sub.add_parser("figure2", help="solvable polymer vs null model over an alpha grid")
    p.add_argument("--alphas", dest="grid", default=default_a_grid, help="comma-separated alpha values in (0, 1/2]")
    common(p)
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("alignment-experiment", help="good-set frequencies under both laws")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--b", type=int, default=64, help="block length")
    p.add_argument("--n", type=int, default=6400, help="ambient length")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_alignment_experiment)

    p = sub.add_parser("verify", help="run the oracle checks")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in (getattr(args, "out", None), getattr(args, "svg", None)):
            _check_writable(path)
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
