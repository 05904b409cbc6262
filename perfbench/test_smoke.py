"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_sources()

from subseqlab import montecarlo  # noqa: E402
from subseqlab.core import BitString, Disorder  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def _run(name, tmp_path, traced=False):
    return run.run_workload(WORKLOADS[name], seed=3, seconds=0.01, traced=traced, sizes=TINY, out=tmp_path)


def test_benchmark_json_lists_every_workload_and_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, traced, tmp_path, capsys):
    result = _run(name, tmp_path, traced)
    metrics = run.report(result)
    units = run.PER_LAYER_UNITS if traced else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in metrics.items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    printed = capsys.readouterr().out
    for metric, unit in units.items():
        assert any(line.startswith(metric + " ") and line.split()[2] == unit for line in printed.splitlines())
    assert "error_rate" in printed
    assert result["correct"] and result["attempted"] > 0


def _drop_last_symbol(d: Disorder) -> Disorder:
    emb = d.planted_embedding
    return Disorder(d.x, BitString(d.y.bits[:-1]), d.law,
                    planted_embedding=None if emb is None else emb[:-1])


@pytest.mark.parametrize("name, sampler", [("capacity-curve", "sample_planted"),
                                           ("null-polymer", "sample_null")])
def test_dropping_a_symbol_from_y_raises_error_rate(name, sampler, tmp_path, monkeypatch):
    clean = _run(name, tmp_path)
    draw = getattr(montecarlo, sampler)
    monkeypatch.setattr(montecarlo, sampler, lambda n, m, seed: _drop_last_symbol(draw(n, m, seed)))
    faulty = _run(name, tmp_path)
    assert faulty["failed"] / faulty["attempted"] > clean["failed"] / clean["attempted"]


def test_short_m_points_fail_and_nothing_else(tmp_path):
    result = _run("capacity-curve", tmp_path)
    short = {label.split(":")[0] for label in result["problems"]}
    assert short == {"p=0.8", "p=0.9"}
    assert result["correct"]


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capacity-curve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
