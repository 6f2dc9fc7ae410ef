"""Each output check accepts real CLI output and rejects the same output with
one value perturbed by 1e-6 relative; the traced run and the speed samplers
work end to end.

    python3 -m pytest perfbench/test_checks.py -q

The outputs come from small runs of the real CLI (a few seconds in all);
the checks read their parameters from the outputs' manifests, so they apply
unchanged to these runs and to the benchmark's full-size ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import layers

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SEED = 5

COMMANDS = {
    "moment.csv": ["verify", "moment", "--t", "100", "--levels", "2",
                   "--replicas", "100"],
    "clt.csv": ["verify", "clt", "--T", "4", "--generations", "1", "--replicas", "100"],
    "gap.csv": ["verify", "gap", "--t-grid", "10,100,1000"],
    "trend.csv": ["verify", "trend", "--T-grid", "5,6"],
    "limits.csv": ["limits", "table", "--max-l", "2", "--deltas=-1,0,1"],
    "sample_limit.csv": ["sample", "limit", "--levels", "2", "--u-grid", "0,0.5",
                         "--n", "500"],
    "sample_whitenoise.csv": ["sample", "whitenoise", "--u-grid", "0,1", "--n", "500"],
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(args: list, out: Path, *, traced_spans: Path | None = None):
    head = ([sys.executable, str(HERE / "trace_cli.py"), str(traced_spans), "--"]
            if traced_spans else [sys.executable, "-m", "nested_karlin"])
    return subprocess.run(
        [*head, *args, "--seed", str(SEED), "--threads", "1", "--out", str(out)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("outputs")
    for name, args in COMMANDS.items():
        proc = _cli(args, root / name)
        assert proc.returncode == 0, proc.stderr
    return root


CHECKS = {
    "moment.csv": lambda p: checks.check_moment(p, f"{p}.manifest"),
    "clt.csv": lambda p: checks.check_clt(p, f"{p}.manifest"),
    "gap.csv": lambda p: checks.check_gap(p, f"{p}.manifest"),
    "trend.csv": lambda p: checks.check_trend(p, f"{p}.manifest"),
    "limits.csv": checks.check_limits_table,
    "sample_limit.csv": lambda p: checks.check_sample_limit(
        p, levels=2, u_grid=[0.0, 0.5], seed=SEED),
    "sample_whitenoise.csv": lambda p: checks.check_sample_whitenoise(
        p, u_grid=[0.0, 1.0], seed=SEED, x_window=30.0, x_step=0.01, y_step=0.01),
}


def _perturb(src: Path, dst: Path, row_prefix: str, column: int) -> None:
    """Copy src (and its manifest) to dst with the value in ``column`` of the
    first row starting with ``row_prefix`` scaled by 1 + 1e-6."""
    lines = src.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith(row_prefix):
            fields = line.rstrip("\n").split(",")
            fields[column] = repr(float(fields[column]) * (1.0 + 1e-6))
            lines[i] = ",".join(fields) + "\n"
            break
    else:
        raise AssertionError(f"no row starts with {row_prefix!r}")
    dst.write_text("".join(lines))
    manifest = Path(f"{src}.manifest")
    if manifest.exists():
        Path(f"{dst}.manifest").write_text(manifest.read_text())


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_accepts_real_output(outputs, name):
    assert CHECKS[name](outputs / name) == []


REPORT_TARGET = 10
REPORT_EMPIRICAL = 8

PERTURBATIONS = [
    ("moment.csv", "moment_check,mean_K:j=1;l=2,", REPORT_TARGET),
    ("moment.csv", "moment_check,var_K:j=1;l=1,", REPORT_TARGET),
    ("moment.csv", "moment_check,mean_K:j=2;l=1,", REPORT_TARGET),
    ("moment.csv", "moment_check,mean_K_star:j=2;l=1,", REPORT_TARGET),
    ("clt.csv", "clt_check,cov:j=1;l=2;u=0.0;v=0.5,", REPORT_TARGET),
    ("clt.csv", "clt_check,limit_cov:j=1;l=3;u=1.0;v=1.0,", REPORT_TARGET),
    ("clt.csv", "clt_check,limit_cov:j=1;l=1;u=0.0;v=1.0,", REPORT_TARGET),
    ("gap.csv", "depoissonization_check,gap:j=1;l=1;t=10.0,", REPORT_EMPIRICAL),
    ("gap.csv", "depoissonization_check,gap:j=2;l=1;t=100.0,", REPORT_TARGET),
    ("trend.csv", "asymptotic_trend,var_ratio:j=1;l=2:T=5.0,", REPORT_TARGET),
    ("limits.csv", "X,2,2,0.0,", 4),
    ("limits.csv", "Z,1,2,-1.0,", 5),
    ("limits.csv", "Z,1,1,1.0,", 4),
    ("sample_limit.csv", "3,2,0.5,", 3),
    ("sample_whitenoise.csv", "7,1,1.0,", 3),
]


@pytest.mark.parametrize("name,row_prefix,column", PERTURBATIONS)
def test_check_rejects_perturbed_value(outputs, tmp_path, name, row_prefix, column):
    bad = tmp_path / name
    _perturb(outputs / name, bad, row_prefix, column)
    assert CHECKS[name](bad)


def test_numpy_repr_is_reported_but_parsed():
    errors = []
    assert checks.number("np.float64(1.5e-09)", errors, "cell") == 1.5e-09
    assert len(errors) == 1


def test_verify_summary():
    ok = "verify moment: passed=True cells=54 flagged=54 pass_fraction=1.0000 runtime=1.0s\n"
    assert checks.check_verify_summary(0, ok) == []
    assert checks.check_verify_summary(3, ok.replace("True", "False"))
    assert checks.check_verify_summary(0, ok.replace("True", "False"))


def test_repetition_comparison_rejects_perturbed_copy(outputs, tmp_path):
    first, other = tmp_path / "first", tmp_path / "other"
    first.mkdir()
    other.mkdir()
    src = outputs / "sample_limit.csv"
    (first / "s.csv").write_bytes(src.read_bytes())
    (other / "s.csv").write_bytes(src.read_bytes())
    assert checks.compare_outputs(first, other, ["s.csv"]) == []
    _perturb(src, other / "s.csv", "3,2,0.5,", 3)
    assert checks.compare_outputs(first, other, ["s.csv"])


def test_traced_run_matches_untraced_and_reports_every_layer(outputs, tmp_path):
    """The traced single-worker CSV equals the untraced one, and the traced
    spans give every per-layer metric BENCHMARK.json lists, in its unit."""
    spans = tmp_path / "spans.json"
    out = tmp_path / "moment.csv"
    proc = _cli(COMMANDS["moment.csv"], out, traced_spans=spans)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (outputs / "moment.csv").read_bytes()
    metrics = layers.per_layer_metrics([spans], 2.0, 1.5)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
    # Per generation, levels (1, 2) are asked once directly and four times
    # for the exact-count covariance, over four distinct level pairs.
    assert metrics["moments.cov_K_cross_level.calls"][0] == 10
    assert metrics["moments.cov_K_cross_level.distinct_ratio"][0] == 8 / 10
    assert metrics["harness.self_s"][0] < metrics["harness.s"][0]


def test_self_time_subtracts_direct_children(tmp_path):
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({
        "names": ["cli", "harness", "kernels.psi"],
        "spans": [[0, 0.0, 10.0, -1, None], [1, 1.0, 9.0, 0, None],
                  [2, 2.0, 3.0, 1, 4], [2, 4.0, 6.0, 1, 6]],
    }))
    got = layers.aggregate([path])
    assert got["cli"].self_s == 2.0
    assert got["harness"].self_s == 5.0
    assert (got["kernels.psi"].calls, got["kernels.psi"].s, got["kernels.psi"].work) == (2, 3.0, 10)


def test_speed_samplers_start_measure_and_stop(tmp_path):
    import run

    speed = run.SpeedSampler(tmp_path, run.child_env())
    try:
        start = time.perf_counter()
        time.sleep(1.0)
        factor = speed.factor(start, time.perf_counter())
    finally:
        speed.stop()
    assert 0.1 < factor < 10.0
    assert all(proc.returncode is not None for proc in speed.procs)
