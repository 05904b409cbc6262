import argparse
import concurrent.futures
import inspect
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import subseqlab.annealed
import subseqlab.cli
import subseqlab.verify
from subseqlab.cli import main


def run_python(python_args, env_extra=None):
    # The child imports subseqlab from where this process did, installed or not.
    src = str(pathlib.Path(subseqlab.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.setdefault("RSM_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, *python_args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


def run_cli(args, env_extra=None):
    return run_python(["-m", "subseqlab.cli", *args], env_extra)


def test_cold_start_loads_no_oracle_or_on_use_module():
    # Every command starts from `import subseqlab.cli`; the oracle suite, the
    # worker pool, JSON output and exact rationals load only where used.
    on_use = ("subseqlab.verify", "concurrent.futures", "json", "fractions")
    out = run_python(["-c", f"import sys, subseqlab.cli; print([m for m in {on_use!r} if m in sys.modules])"])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_count_basic():
    out = run_cli(["count", "10110", "11"])
    assert out.returncode == 0
    assert "count: 3" in out.stdout
    assert f"{math.log(3):.6f}"[:8] in out.stdout


def test_count_empty_y():
    out = run_cli(["count", "10110", ""])
    assert out.returncode == 0
    assert "count: 1" in out.stdout
    assert "log: 0" in out.stdout


def test_count_y_longer_exits_2():
    out = run_cli(["count", "11", "10110"])
    assert out.returncode == 2
    assert "error" in out.stderr


def test_count_parse_failure_exits_2():
    out = run_cli(["count", "10a10", "11"])
    assert out.returncode == 2


def test_unknown_subcommand_exits_2():
    out = run_cli(["frobnicate"])
    assert out.returncode == 2


def test_figure2_empty_grid_exits_2():
    out = run_cli(["figure2", "--alphas", "", "--n", "100", "--samples", "1"])
    assert out.returncode == 2


def test_figure2_alpha_above_half_exits_2():
    out = run_cli(["figure2", "--alphas", "0.3,0.7", "--n", "100", "--samples", "1"])
    assert out.returncode == 2


def test_figure2_descending_alphas_names_the_alpha_range():
    out = run_cli(["figure2", "--alphas", "0.3,0.2", "--n", "100", "--samples", "1"])
    assert out.returncode == 2
    assert "(0, 1/2]" in out.stderr and "[0, 1)" not in out.stderr


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_unwritable_output_path_exits_2_before_the_curve(flag, monkeypatch, capsys):
    def no_curve(*args):
        raise AssertionError("the curve ran before the output path was checked")

    monkeypatch.setattr(subseqlab.cli, "curve", no_curve)
    rc = main(["figure1", flag, "/nonexistent/x.csv"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot write '/nonexistent/x.csv'")


def test_figure1_smoke_with_svg_and_json(tmp_path):
    csv_path = tmp_path / "fig1.csv"
    svg_path = tmp_path / "fig1.svg"
    out = run_cli(
        [
            "figure1", "--grid", "0,0.5,0.9", "--n", "300", "--samples", "2",
            "--seed", "4", "--out", str(csv_path), "--svg", str(svg_path),
        ]
    )
    assert out.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "p,dgv_lower,mc_capacity,mc_stderr,upper_annealed,zero_fraction"
    row0 = lines[1].split(",")
    assert float(row0[0]) == 0.0
    for col in (1, 2, 4):
        assert abs(float(row0[col]) - math.log(2)) < 1e-12
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg

    out = run_cli(
        ["figure1", "--grid", "0,0.5", "--n", "200", "--samples", "2", "--format", "json"]
    )
    doc = json.loads(out.stdout)
    assert doc["config"]["command"] == "figure1"
    assert doc["config"]["grid"] == [0.0, 0.5]
    assert doc["config"]["seed"] == 42
    assert "version" in doc
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["p"] == 0.0


def test_json_echoes_the_arguments_and_starts_no_process(monkeypatch, capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("JSON output started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    rc = main(["alignment-experiment", "--b", "16", "--n", "320", "--trials", "1", "--seed", "5", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == {
        "command": "alignment-experiment", "alpha": 0.5, "b": 16, "n": 320, "trials": 1, "seed": 5, "format": "json"
    }
    assert set(doc["version"]) == {"subseqlab", "python", "numpy"}
    assert [row["law"] for row in doc["rows"]] == ["planted", "null"]


def test_figure1_bits_flag_divides_by_ln2(tmp_path):
    a = tmp_path / "nats.csv"
    b = tmp_path / "bits.csv"
    args = ["figure1", "--grid", "0,0.4", "--n", "200", "--samples", "2", "--seed", "3"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--bits", "--out", str(b)])
    ra = a.read_text().splitlines()[2].split(",")
    rb = b.read_text().splitlines()[2].split(",")
    for col in (1, 2, 3, 4):
        assert float(rb[col]) == pytest.approx(float(ra[col]) / math.log(2), rel=1e-10)
    # p = 0 row in bits: capacity is exactly 1 bit
    rb0 = b.read_text().splitlines()[1].split(",")
    assert abs(float(rb0[2]) - 1.0) < 1e-12


# Small-size tables pinned byte for byte: a change that claims no behaviour
# change must reproduce them.
GOLDEN = {
    "figure1": (
        ["figure1", "--grid", "0.2,0.5,0.8", "--n", "300", "--samples", "3", "--seed", "11"],
        "p,dgv_lower,mc_capacity,mc_stderr,upper_annealed,zero_fraction\n"
        "0.2,0.192744757022,0.222417232629,0.00306603365449,0.253831760311,0\n"
        "0.5,0,0.0245228848581,0.00673050762063,0.0486937675318,0\n"
        "0.8,0,-0.0072282410638,0.00126484551773,0.0024252030927,0\n",
    ),
    "figure2": (
        ["figure2", "--alphas", "0.25,0.5", "--n", "400", "--samples", "3", "--seed", "9"],
        "alpha,strict_weak_exact,null_mc,null_mc_stderr,null_zero_fraction\n"
        "0.25,0.388193716791,0.378528798553,0.00129188012375,0\n"
        "0.5,0.337006913941,0.188138548795,0.0940740179172,0.333333333333\n",
    ),
    "alignment-experiment": (
        ["alignment-experiment", "--b", "16", "--n", "320", "--trials", "4", "--seed", "2"],
        "law,trials,good_count,good_frequency\n"
        "planted,4,4,1\n"
        "null,4,4,1\n",
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_worker_count_does_not_change_output(tmp_path, command):
    args, golden = GOLDEN[command]
    p1 = tmp_path / "t1.csv"
    p2 = tmp_path / "t2.csv"
    assert run_cli(args + ["--out", str(p1)], env_extra={"RSM_THREADS": "1"}).returncode == 0
    assert run_cli(args + ["--out", str(p2)], env_extra={"RSM_THREADS": "3"}).returncode == 0
    assert p1.read_bytes() == p2.read_bytes() == golden.encode()


@pytest.mark.parametrize("command", ["figure2", "alignment-experiment"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_non_positive_rsm_threads_exits_2(threads, command):
    out = run_cli(GOLDEN[command][0], env_extra={"RSM_THREADS": threads})
    assert out.returncode == 2
    assert "RSM_THREADS" in out.stderr


@pytest.mark.parametrize("command", ["figure2", "alignment-experiment"])
def test_fans_out_to_rsm_threads_workers(tmp_path, monkeypatch, command):
    built = []

    def recording_pool(max_workers):
        # One thread runs the work items in turn, so they stay in this process.
        built.append(max_workers)
        return concurrent.futures.ThreadPoolExecutor(max_workers=1)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setenv("RSM_THREADS", "2")
    args, golden = GOLDEN[command]
    out = tmp_path / "out.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert built == [2]
    assert out.read_text() == golden


def test_alignment_experiment_small(tmp_path):
    out = run_cli(
        [
            "alignment-experiment", "--alpha", "0.5", "--b", "16", "--n", "320",
            "--trials", "4", "--seed", "2",
        ]
    )
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[0] == "law,trials,good_count,good_frequency"
    assert lines[1].startswith("planted,4,")
    assert lines[2].startswith("null,4,")


@pytest.mark.parametrize("trials", [0, -1])
def test_alignment_experiment_trials_below_one_exits_2(trials):
    out = run_cli(
        ["alignment-experiment", "--alpha", "0.5", "--b", "16", "--n", "320", "--trials", str(trials)]
    )
    assert out.returncode == 2
    assert "trials" in out.stderr


def test_alignment_experiment_n_not_a_multiple_of_b_exits_2():
    out = run_cli(["alignment-experiment", "--alpha", "0.5", "--b", "16", "--n", "330", "--trials", "1"])
    assert out.returncode == 2
    assert "multiple of b" in out.stderr


def test_float_formatting_12_significant_digits(tmp_path):
    p = tmp_path / "f.csv"
    run_cli(["figure2", "--alphas", "0.25", "--n", "200", "--samples", "2", "--out", str(p)])
    val = p.read_text().splitlines()[1].split(",")[1]
    mantissa = val.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 12


def test_figure2_curves_are_close_at_scale():
    # The solvable-polymer curve tracks the simulated null curve to within
    # 0.05 nats across the density grid at N = 10,000.
    from subseqlab.core import Seed
    from subseqlab.montecarlo import CurveSpec, polymer_comparison_curve

    spec = CurveSpec(grid=(0.1, 0.2, 0.3, 0.4, 0.5), n=10_000, samples=4, seed=Seed(222))
    rows = polymer_comparison_curve(spec)
    worst = max(abs(r.strict_weak_exact - r.null_mc) for r in rows)
    assert worst < 0.05
    # the alpha = 1/2 endpoint stays finite and reports its zero fraction
    end = rows[-1]
    assert math.isfinite(end.null_mc)
    assert 0.0 <= end.null_zero_fraction <= 1.0


def test_verify_prints_a_timed_line_per_check(monkeypatch, capsys):
    verify = subseqlab.verify
    monkeypatch.setattr(verify, "FAST_CHECKS", (verify.check_digamma, verify.check_capacity_constants))
    assert main(["verify", "--level", "fast"]) == 0
    *check_lines, summary = capsys.readouterr().out.splitlines()
    assert len(check_lines) == 2
    assert all(re.match(r"PASS  \S+  \[\d+\.\d\d s\]", line) for line in check_lines)
    assert summary == "2/2 checks passed [fast]"


def test_verify_detects_corrupted_constant(monkeypatch):
    # Harness self-test: corrupt a closed-form constant and expect exactly the
    # check that reads it to fail among the closed-form checks.
    verify = subseqlab.verify
    real = subseqlab.annealed.rho_star
    monkeypatch.setattr(subseqlab.annealed, "rho_star", lambda alpha: real(alpha) * (1 + 1e-6))
    monkeypatch.setattr(verify, "FAST_CHECKS", (
        verify.check_closed_form_residuals,
        verify.check_closed_form_vs_series,
        verify.check_envelope_identity,
        verify.check_variational_max,
    ))
    results = verify.run("fast")
    assert len(results) == 4
    assert [r.name for r in results if not r.passed] == ["annealed/closed-form-residuals"]


def test_verify_reports_a_raising_check_as_failed(monkeypatch, capsys):
    def check_raises():
        raise RuntimeError("boom")

    monkeypatch.setattr(subseqlab.verify, "FAST_CHECKS", (check_raises,))
    [result] = subseqlab.verify.run("fast")
    assert not result.passed
    assert result.name == "check_raises"
    assert result.detail.startswith("raised RuntimeError('boom')")
    assert main(["verify"]) == 1
    assert "FAIL  check_raises" in capsys.readouterr().out


def test_readme_commands_parse():
    # Every `subseqlab ...` line in README's code blocks parses, and together
    # they show every subcommand.
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    parser = subseqlab.cli.build_parser()
    seen = set()
    for block in readme.split("```")[1::2]:
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            while words and re.match(r"\w+=", words[0]):
                words.pop(0)  # environment assignments such as RSM_THREADS=2
            if words[:1] == ["subseqlab"]:
                try:
                    seen.add(parser.parse_args(words[1:]).command)
                except SystemExit:
                    pytest.fail(f"README command does not parse: {line.strip()}")
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert seen == set(commands)


def test_every_check_is_registered_once():
    # The suite runs every check at its defaults from FULL_CHECKS, so a check
    # left out of it would run nowhere: not in the suite, not in `verify`.
    verify = subseqlab.verify
    checks = [fn for name, fn in vars(verify).items() if name.startswith("check_")]
    assert sorted(verify.FULL_CHECKS, key=id) == sorted(checks, key=id)
    assert verify.FULL_CHECKS[:len(verify.FAST_CHECKS)] == verify.FAST_CHECKS
    names = [set(re.findall(r'"([a-z]+/[\w.-]+)"', inspect.getsource(fn))) for fn in checks]
    assert all(len(found) == 1 for found in names)
    assert len(set.union(*names)) == len(checks)


@pytest.mark.parametrize("check", subseqlab.verify.FULL_CHECKS, ids=lambda fn: fn.__name__)
def test_check_passes_at_its_defaults(check, check_result):
    result = check_result(check)
    assert result.passed, result.detail
