#!/usr/bin/env python3
"""Benchmark for subseqlab: curve and experiment wall time, per-layer kernel
rates from a traced run, and every output checked by an independent route.

    python3 perfbench/run.py                     # every workload, untraced then traced
    python3 perfbench/run.py --workload capacity-curve --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports subseqlab from src/.  One run
repeats the workload's table, each repetition with its own seed derived from
--seed, for --seconds of wall-clock time, and checks every sample and trial
of each.  Untraced, it reports the end-to-end metrics; traced (--trace 1),
it alternates untraced and traced repetitions on the same seeds and reports
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

run_s is the fastest repetition and samples_per_s that repetition's rate.
On a shared host, neighbours slow the whole machine by up to 60 % for
stretches of ten seconds to over a minute; the program's CPU time slows
with its wall time, so the slowdown is not time spent off the CPU.  Such
noise only ever adds time.  Over a 10-minute series of repetitions, the
fastest of a run's window spread 8-11 % from window to window, against
17-22 % for the mean and 20-26 % for the median.  The median, the mean and
the tail percentile are printed beside it.

Everything, the checks included, runs in this process with the CLI's
default single worker (RSM_THREADS is removed from the environment); only
the set-up timing starts other processes, one at a time, each waited for.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 5

END_TO_END_UNITS = {"run_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "partition.rank_one.calls": "count",
    "partition.rank_one.cells": "count",
    "partition.rank_one.dp_ms.p50": "ms",
    "partition.rank_one.dp_ms.p90": "ms",
    "partition.rank_one.cells_per_s": "1/s",
    "partition.generic.cells": "count",
    "partition.generic.advance_s": "s",
    "partition.generic.weights_s": "s",
    "partition.generic.cells_per_s": "1/s",
    "montecarlo.samples": "count",
    "montecarlo.point_s.p50": "s",
    "montecarlo.point_s.p90": "s",
    "montecarlo.self_s": "s",
    "montecarlo.zero_frac": "ratio",
    "core.sample_s": "s",
    "core.calls": "count",
    "core.typical_retries": "ratio",
    "core.typical_accept_ratio": "ratio",
    "alignment.is_good.calls": "count",
    "alignment.is_good_ms.p50": "ms",
    "alignment.is_good_ms.p90": "ms",
    "alignment.cells": "count",
    "alignment.cells_per_s": "1/s",
    "alignment.atypical_fallbacks": "count",
    "cli.self_s": "s",
    "svg.render_s": "s",
    "closed_form_s": "s",
    "trace.overhead_s": "s",
}


def use_checkout_sources() -> None:
    """Import subseqlab from this checkout's src/, with a single worker."""
    if not (SRC / "subseqlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no subseqlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("RSM_THREADS", None)


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "git": git or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def setup_command():
    """A fresh interpreter that stops once subseqlab.cli.main is ready."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-c", "from subseqlab.cli import main"], dict(os.environ, PYTHONPATH=path)


def time_setup(cmd, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def run_workload(workload, seed: int, seconds: float, traced: bool, sizes, out: Path = OUT) -> dict:
    """Repeat the workload for `seconds` of wall-clock time, checking each
    repetition before the next one starts.

    Checks and set-up timings run between repetitions, never during one, so
    the timed repetitions are spread over the whole window.  On a shared
    host, where neighbours slow whole stretches of seconds, the fastest of
    them then more often falls in one of the host's fast spells.  The
    checks' own generic DP is O(M) in memory like the workload's, so
    peak_rss_mb, read at the end, still guards the streaming DP.
    """
    import checks
    from probes import Probes, layer_metrics

    out.mkdir(parents=True, exist_ok=True)
    cmd, env = setup_command()
    if not traced:
        time_setup(cmd, env)  # warms the file and bytecode caches
    setup = []
    probes = Probes()
    times = {False: [], True: []}
    ops = []
    rates = []  # operations per second of each timed untraced repetition
    k = 0
    start = time.perf_counter()
    while k < 2 or time.perf_counter() - start < seconds:
        rep_seed = seed * 10_000 + k
        for mode in ((False, True) if traced else (False,)):
            gc.collect()
            with probes.installed(mode):
                t0 = time.perf_counter()
                rc, extra = workload.run(rep_seed, sizes, out)
                elapsed = time.perf_counter() - t0
            done = workload.operations(rc, extra, probes.take(), sizes, out)
            for op in done:
                if op.sample is not None:
                    op.problems += checks.embedding_sample(op.sample, op.expected_m)
            ops += done
            if k > 0:  # the first repetition warms caches and is checked, not timed
                times[mode].append(elapsed)
                if not mode:
                    rates.append(len(done) / elapsed)
        if not traced:
            setup.append(time_setup(cmd, env))
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not traced and len(setup) < SETUP_RUNS:
        setup.append(time_setup(cmd, env))

    result = {
        "workload": workload.name,
        "traced": traced,
        "times": times[False],
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.problems),
        "correct": not any(kind == "wrong" for op in ops for kind, _ in op.problems),
        "problems": collections.Counter(f"{op.label}: {msg}" for op in ops for _, msg in op.problems),
        "spans": probes.spans,
    }
    if traced:
        layers = layer_metrics(probes.spans)
        layers["trace.overhead_s"] = statistics.median(t - u for u, t in zip(times[False], times[True]))
        result["metrics"] = layers
        result["traced_times"] = times[True]
    else:
        result["metrics"] = {
            "run_s": min(times[False]),
            "samples_per_s": max(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        result["setup_runs"] = len(setup)
    return result


def tail(times) -> str:
    """The highest percentile with at least ten runs beyond it, if any."""
    k = len(times)
    if k < 11:
        return f"no percentile has 10 runs beyond it at {k} runs"
    r = k - 10
    return f"p{100 * r / k:.0f} = {sorted(times)[r - 1]:.6g} s over {k} runs"


def report(result: dict) -> dict:
    """Print the metrics by name and unit; return them for the JSON line."""
    units = PER_LAYER_UNITS if result["traced"] else END_TO_END_UNITS
    mode = "traced" if result["traced"] else "untraced"
    print(f"## {result['workload']} ({mode})")
    for name, unit in units.items():
        note = ""
        if name == "run_s":
            note = (f"  fastest of {len(result['times'])} runs; median {statistics.median(result['times']):.6g} s, "
                    f"mean {statistics.fmean(result['times']):.6g} s; {tail(result['times'])}")
        elif name == "setup_s":
            note = f"  median of {result['setup_runs']} fresh interpreters"
        elif name == "trace.overhead_s":
            note = (f"  traced run_s {statistics.median(result['traced_times']):.6g} s vs untraced "
                    f"{statistics.median(result['times']):.6g} s over {len(result['times'])} pairs")
        print(f"{name:34s} {result['metrics'][name]:<14.6g} {unit}{note}")
    print("# repetition times, s: " + " ".join(f"{t:.4f}" for t in result["times"]))
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_rate':34s} {failed / attempted:<14.6g} ratio  {failed} failed of {attempted} "
          f"operations; outputs {'correct' if result['correct'] else 'INCORRECT'}")
    for problem, count in sorted(result["problems"].items()):
        print(f"  {count:5d} x {problem}")
    return {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}


def write_spans(result: dict, seed: int, env: dict, out: Path = OUT) -> Path:
    path = out / f"trace-{result['workload']}-seed{seed}.jsonl"
    t0 = result["spans"][0][1] if result["spans"] else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"environment": env, "workload": result["workload"], "seed": seed}) + "\n")
        for name, start, end, parent, extra in result["spans"]:
            fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                 "parent": parent, **extra}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0, help="wall-clock seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end, 1 per-layer; all workloads run both when omitted")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    use_checkout_sources()
    from workloads import FULL, WORKLOADS

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS.values() for t in ((args.trace,) if args.trace is not None else (0, 1))]
    elif args.workload in WORKLOADS:
        plan = [(WORKLOADS[args.workload], args.trace or 0)]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    env = environment()
    print("# environment " + json.dumps(env))
    results = []
    for workload, traced in plan:
        print(f"# {workload.name}: {workload.why}")
        result = run_workload(workload, args.seed, args.seconds, bool(traced), FULL)
        results.append((result, report(result)))
        if traced:
            print(f"# spans written to {write_spans(result, args.seed, env).relative_to(ROOT)}")
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{r['workload']}/{name}": v for r, m in results for name, v in m.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results),
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
