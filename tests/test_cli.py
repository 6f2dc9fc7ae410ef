import argparse
import dataclasses
import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
import types
from concurrent.futures import Future
from pathlib import Path

import pytest

import nested_karlin
from nested_karlin import cli, gaussian, harness
from nested_karlin.cli import main
from nested_karlin.errors import NumericalError
from nested_karlin.gaussian import build_grid, sample, sample_Z1_whitenoise
from nested_karlin.harness import ExperimentConfig


def _child_env(**extra) -> dict:
    """The environment of a child Python: a minimal PATH, the import path of
    the package under test (which works for PYTHONPATH=src and installs
    alike), no bytecode written next to the sources, and ``extra``."""
    import_root = Path(nested_karlin.__file__).resolve().parent.parent
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(import_root),
            "PYTHONDONTWRITEBYTECODE": "1", **extra}


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecInvocations:
    def test_limits_cov_prints_value(self, capsys):
        code, out, _ = run_cli(
            ["limits", "cov", "--kind", "X", "--l1", "1", "--l2", "1", "--delta", "0"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "0.75"

    def test_identities_check_summary(self, capsys):
        code, out, _ = run_cli(["identities", "check", "--max-l", "12", "--seed", "7"], capsys)
        assert code == 0
        assert out.startswith("identities ok:")
        assert "worst_rel=" in out

    def test_simulate_writes_replica_csv(self, tmp_path, capsys):
        out_file = tmp_path / "traj.csv"
        code, _, err = run_cli(
            [
                "simulate",
                "--family", "weibull", "--alpha", "0.5",
                "--times", "100",
                "--generations", "2", "--levels", "3",
                "--replicas", "10", "--seed", "1",
                "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "replica,j,l,grid_index,time,K,K_star,balls"
        replicas = {line.split(",")[0] for line in lines[1:]}
        assert replicas == {str(r) for r in range(10)}
        # effective configuration is echoed to stderr
        assert "# seed=1" in err

    def test_simulate_any_generation_count(self, capsys):
        # six generations of weibull(0.5) indices (1655 table entries) are
        # more box prefixes than an int64 holds
        code, out, err = run_cli(["simulate", "--generations", "6"], capsys)
        assert code == 0, err
        assert {line.split(",")[1] for line in out.strip().split("\n")[1:]} == set("123456")

    def test_simulate_zero_balls_is_the_fixed_n_scheme(self, capsys):
        # --deterministic-n 0 asks for the fixed-n scheme with no balls, whose
        # time column holds ball counts; without the flag the Poissonized
        # scheme runs and prints times as floats
        for flags, time in ((["--deterministic-n", "0"], "0"), ([], "0.0")):
            code, out, err = run_cli(["simulate", *flags, "--times", "0",
                                      "--generations", "1", "--levels", "1"], capsys)
            assert code == 0, err
            assert out.strip().split("\n")[1:] == [f"0,1,1,0,{time},0,0,0"]

    def test_fixed_n_mean_has_one_spelling(self, capsys):
        # --deterministic-n, as for simulate and verify moment; --n is no flag
        code, out, err = run_cli(["moments", "mean", "--n", "50"], capsys)
        assert code == 1 and not out
        assert err.splitlines()[-1] == "error: unrecognized arguments: --n 50"
        code, out, _ = run_cli(["moments", "mean", "--deterministic-n", "50"], capsys)
        assert code == 0
        assert out == (f"{cli.MOMENTS_CSV_HEADER}\n"
                       "mean_K_binomial,1,1,,,50.0,17.01442992478786,4.971897708429024e-10,32\n")

    @pytest.mark.parametrize("args, row", [
        # the row of each --which spelling these replace: --which same ...
        (["--j", "2", "--l", "2", "--t", "1000"],
         "cov_K_cross_gen_2_2,2,2,2,1000.0,1000.0,50.65255135215091,4.933367938937792e-10,684"),
        # ... --which star ...
        (["--star", "--j", "2", "--l", "1", "--s", "500", "--t", "3000"],
         "cov_K_star_cross_gen_2_2,2,1,1,500.0,3000.0,25.759812062744764,"
         "1.973347175575098e-09,4644"),
        # ... --which levels ...
        (["--j", "2", "--l", "1", "--l2", "2"],
         "cov_K_cross_gen_2_2,2,1,2,100.0,100.0,5.79254346944449,4.965444007043446e-10,170"),
        # ... and --which gens, whose row is the same bytes
        (["--gen-i", "1", "--j", "2", "--l", "1", "--l2", "3", "--s", "50", "--t", "200"],
         "cov_K_cross_gen_1_2,2,1,3,50.0,200.0,0.2786020348606382,4.968860808479323e-10,274"),
    ], ids=["same", "star", "levels", "gens"])
    def test_moments_cov_takes_the_covariance_arguments(self, args, row, capsys):
        # Cov(K^(i)_s(l), K^(j)_t(l2)); --gen-i, --l2 and --s default to --j,
        # --l and --t
        code, out, err = run_cli(["moments", "cov", *args], capsys)
        assert code == 0, err
        assert out == f"{cli.MOMENTS_CSV_HEADER}\n{row}\n"

    def test_verify_moment_zero_balls_is_the_fixed_n_scheme(self, capsys):
        # as for simulate: only the fixed-n scheme's mean rows, at t = n = 0
        code, out, err = run_cli(["verify", "moment", "--deterministic-n", "0", "--t", "50",
                                  "--replicas", "100", "--generations", "1", "--levels", "1",
                                  "--threads", "1"], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().split("\n")[2:]]
        assert [row[1].split(":")[0] for row in rows] == ["mean_K", "mean_K_star"]
        assert {row[5] for row in rows} == {"0.0"}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 1

    def test_validation_error(self, capsys):
        code, _, err = run_cli(
            ["weights", "table", "--family", "weibull", "--alpha", "1.5"], capsys
        )
        assert code == 1
        assert "error:" in err

    def test_numeric_error(self, capsys):
        # white-noise mesh beyond the cell budget trips the numeric guard
        code, _, err = run_cli(
            [
                "sample", "whitenoise",
                "--u-grid", "0",
                "--x-step", "1e-4", "--y-step", "1e-5",
                "--n", "1", "--seed", "0",
            ],
            capsys,
        )
        assert code == 2
        assert "numeric error:" in err

    @pytest.mark.parametrize("draw", [
        lambda n: sample(build_grid("Z", [0.0, 0.5], 3), n, 1),
        lambda n: sample_Z1_whitenoise([0.0, 0.5], n=n, seed=1),
    ], ids=["limit", "whitenoise"])
    def test_sample_count_past_memory(self, draw, monkeypatch):
        # the CLI streams any --n; the samplers that hold all the draws
        # refuse 8 n dim bytes past memory before any draw
        monkeypatch.setattr(gaussian, "_draw_blocks", None)
        with pytest.raises(NumericalError) as refused:
            draw(10**12)
        assert str(refused.value).startswith("1000000000000 samples of ")

    @pytest.mark.parametrize("args", [
        ["weights", "profile", "--times", "0.5"],
        ["simulate", "--deterministic-n", "5", "--times", "1,2.5"],
    ], ids=["weights", "simulate"])
    def test_times_errors_name_the_flag(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error: times must be ")

    def test_identities_refuse_a_negative_seed(self, capsys):
        # numpy's default_rng takes no negative seed
        code, out, err = run_cli(["identities", "check", "--seed", "-1"], capsys)
        assert code == 1 and not out
        assert err.splitlines()[-1] == "error: --seed must be >= 0, got -1"

    @pytest.mark.parametrize("times", [",", ""])
    def test_simulate_refuses_an_empty_times_list(self, times, capsys):
        # an empty list is not an absent flag: it does not fall back to --t
        code, out, err = run_cli(["simulate", "--times", times], capsys)
        assert code == 1 and not out
        assert err.splitlines()[-1] == "error: times must be nondecreasing with >= 1 point, got ()"

    @pytest.mark.parametrize("levels", ["100000", "1000000000"])
    def test_limit_grid_past_memory(self, levels, capsys):
        # the (levels * 3)**2 covariance matrix is refused before it is allocated
        code, out, err = run_cli(["sample", "limit", "--levels", levels, "--n", "2"], capsys)
        assert code == 2 and not out
        lines = [line for line in err.splitlines() if not line.startswith("#")]
        assert len(lines) == 1, err
        assert lines[0].startswith(f"numeric error: the covariances of {levels} levels at "
                                   "3 offsets need about ")

    @pytest.mark.parametrize("check", ["moment", "clt"])
    def test_replica_matrix_past_memory(self, check, capsys):
        # the (replicas, values) matrix a run holds is refused before any replica
        code, out, err = run_cli(["verify", check, "--replicas", str(2**64), "--generations",
                                  "1", "--levels", "1", "--threads", "1"], capsys)
        assert code == 2 and not out
        lines = [line for line in err.splitlines() if not line.startswith("#")]
        assert len(lines) == 1, err
        assert lines[0].startswith(f"numeric error: {2**64} replicas of ")

    def test_limits_table_levels_past_the_quadrature_refused_first(self, capsys,
                                                                    monkeypatch):
        # limits._MAX_LEVEL = 6, refused before any level pair is listed
        monkeypatch.setattr(cli, "comparison_table", None)
        for max_l in ("7", HUGE):
            code, out, err = run_cli(["limits", "table", "--max-l", max_l], capsys)
            assert code == 1 and not out
            assert err.splitlines()[-1] == f"error: --max-l must be finite and <= 6, got {max_l}"

    @pytest.mark.parametrize("args", [
        ["moments", "cov", "--which", "same"],
        ["simulate", "--t", "5"],
        ["verify", "trend", "--replicas", "5"],
        ["verify", "gap", "--replicas", "5"],
        # a prefix is no flag: --t would otherwise read as --times
        ["simulate", "--tim", "5"],
    ])
    def test_flags_that_are_gone(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and not out
        flag, value = args[-2:]
        assert err.splitlines()[-1] == f"error: unrecognized arguments: {flag} {value}"

    def test_whitenoise_mesh_beyond_float_range(self, capsys):
        # a mesh whose cell count overflows a float is refused by the budget
        # check, with the count printed short
        for flags, count in ((["--x-window", "1e308"], "inf"), (["--y-step", "1e-320"], "inf"),
                             (["--x-step", "1e-300"], "6e+303")):
            code, _, err = run_cli(
                ["sample", "whitenoise", "--u-grid", "0,1", "--n", "2", *flags], capsys)
            assert code == 2
            assert f"numeric error: white-noise mesh has {count} cells" in err

    def test_u_grid_spread_beyond_float_range(self, capsys):
        # u[a] - u[b] would overflow: refused before any difference is taken
        for action in ("limit", "whitenoise"):
            code, _, err = run_cli(["sample", action, "--u-grid=-1e308,1e308"], capsys)
            assert code == 1
            assert "error: u_grid must have a finite spread" in err
            assert "Warning" not in err

    def test_whitenoise_offset_outside_the_window(self, capsys):
        code, out, err = run_cli(["sample", "whitenoise", "--u-grid", "0,100", "--n", "2"], capsys)
        assert code == 1
        assert "error: u_grid must lie within half the x window" in err and not out

    def test_oversized_enumeration_is_numeric_error(self, capsys):
        # 3.8e10 active generation-2 boxes: refused before any is formed
        code, _, err = run_cli(["moments", "mean", "--j", "2", "--t", "1e300"], capsys)
        assert code == 2
        assert "numeric error:" in err

    def test_weight_table_beyond_limit(self, capsys):
        # alpha = 0.2 needs 3.8e8 weights to normalize: a validation error;
        # prune 1e-100 at alpha = 0.3 a plan table of 9.5e7: a numeric error.
        # Both are refused before any table is formed.
        for flags, want, line in ((["--alpha", "0.2"], 1, "error: weibull-like alpha=0.2"),
                                  (["--alpha", "0.3", "--prune", "1e-100"], 2, "numeric error:")):
            code, _, err = run_cli(["verify", "moment", *flags, "--threads", "1"], capsys)
            assert code == want
            assert line in err

    def test_geometric_trend_is_vacuous_pass(self, capsys):
        # geometric rows are diagnostic-only: nothing flagged -> exit 0
        code, out, _ = run_cli(
            [
                "verify", "trend",
                "--family", "geometric", "--p", "0.5",
                "--T-grid", "10,14",
                "--levels", "1", "--generations", "1",
            ],
            capsys,
        )
        assert code == 0
        assert "passed=True" in out

    def test_verify_failure_is_exit_three(self, capsys, monkeypatch):
        import nested_karlin.cli as cli_mod
        from nested_karlin.harness import CellResult, ExperimentReport

        def failing_runner(config):
            cell = CellResult(
                experiment="moment_check", cell_id="forced", j=1, l=1, l2=None,
                u=None, v=None, T=None, empirical=1.0, se=0.1, target=0.0,
                target_kind="exact", passed=False,
            )
            return ExperimentReport("moment_check", config, [cell])

        monkeypatch.setitem(cli_mod._VERIFY_RUNNERS, "moment", failing_runner)
        code, out, _ = run_cli(
            ["verify", "moment", "--t", "50", "--replicas", "100"], capsys
        )
        assert code == 3
        assert "passed=False" in out

    def test_non_finite_times_are_validation_errors(self, capsys):
        for args in (
            ["verify", "moment", "--t", "nan", "--replicas", "100"],
            ["verify", "gap", "--t-grid", "10,nan"],
        ):
            code, _, err = run_cli(args, capsys)
            assert code == 1, args
            assert "error:" in err

    def test_fixed_n_grid_must_be_whole_ball_counts(self, capsys):
        for times in ("1,nan", "2.5"):
            code, out, err = run_cli(
                ["simulate", "--deterministic-n", "10", "--times", times], capsys
            )
            assert code == 1, times
            assert "error:" in err and not out

    @pytest.mark.parametrize("replicas", ["0", "-2"])
    def test_simulate_needs_a_replica(self, replicas, capsys):
        code, out, err = run_cli(["simulate", "--times", "10", "--replicas", replicas], capsys)
        assert code == 1
        assert "replicas must be >= 1" in err and not out

    def test_negative_threads_flag(self, capsys):
        code, out, err = run_cli(
            ["verify", "moment", "--t", "120", "--replicas", "100",
             "--generations", "1", "--levels", "1", "--threads", "-3"],
            capsys,
        )
        assert code == 1
        assert "--threads must be >= 0" in err and not out
        assert "# threads=" not in err

    @pytest.mark.parametrize("env", ["0", "-5"])
    def test_threads_env_below_one(self, env, monkeypatch, capsys):
        monkeypatch.setenv("NESTED_KARLIN_THREADS", env)
        code, out, err = run_cli(
            ["verify", "moment", "--t", "120", "--replicas", "100",
             "--generations", "1", "--levels", "1"],
            capsys,
        )
        assert code == 1
        assert "NESTED_KARLIN_THREADS must be >= 1" in err and not out

    def test_threads_flag_overrides_a_bad_env(self, monkeypatch, capsys):
        monkeypatch.setenv("NESTED_KARLIN_THREADS", "-5")
        code, _, err = run_cli(
            ["sample", "limit", "--levels", "1", "--n", "1", "--threads", "1"], capsys)
        assert code == 0
        assert "# threads=1\n" in err

    @pytest.mark.parametrize("flags", [["clt", "--T", "800"], ["clt", "--u-grid", "0,800"],
                                       ["trend", "--T-grid", "10,800"]])
    def test_times_past_the_float_range(self, flags, capsys):
        # e^(T + u) or e^T would overflow: an input error before any work
        code, out, err = run_cli(["verify", *flags, "--threads", "1"], capsys)
        assert code == 1
        lines = [line for line in err.splitlines() if not line.startswith("#")]
        assert len(lines) == 1 and lines[0].startswith("error: ") and "<= 709.78" in lines[0]
        assert not out

    @pytest.mark.parametrize("args", [["verify", "clt", "--u-grid", "0,abc"],
                                      ["sample", "limit", "--u-grid", "0;1"],
                                      ["weights", "table", "--family", "finite", "--probs", "x"]])
    def test_comma_list_of_non_numbers(self, args, capsys):
        # argparse refuses the list, naming its flag
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert f"error: argument {args[-2]}: expected a comma list of numbers" in err
        assert not out

    def test_non_finite_limit_grid_is_validation_error(self, capsys):
        code, out, err = run_cli(
            ["sample", "limit", "--u-grid", "0,nan", "--n", "10"], capsys
        )
        assert code == 1
        assert "error:" in err and not out

    @pytest.mark.parametrize("flags", [
        ["--u-grid", "nan"],
        ["--u-grid", "0,inf"],
        ["--x-window", "nan"],
        ["--x-window", "inf"],
        ["--x-step", "nan"],
        ["--x-step", "inf"],
        ["--y-step", "nan"],
        ["--y-step=-inf"],
    ])
    def test_non_finite_whitenoise_input(self, flags, capsys):
        code, out, err = run_cli(["sample", "whitenoise", "--n", "2", *flags], capsys)
        assert code == 1
        # after the `# key=value` echo, the one line left is the error
        assert [line for line in err.splitlines() if not line.startswith("#")][0] \
            .startswith("error:")
        assert not out

    def test_empty_u_grid_is_named(self, capsys):
        code, out, err = run_cli(["verify", "clt", "--u-grid", "", "--replicas", "100",
                                  "--generations", "1", "--levels", "1"], capsys)
        assert code == 1 and not out
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: u_grid must"), err

    def test_trend_needs_an_increasing_grid(self, capsys):
        for grid in ("10,10", "", "15,10"):
            code, out, err = run_cli(["verify", "trend", "--T-grid", grid], capsys)
            assert code == 1, grid
            assert "T_grid must be strictly increasing" in err and not out, grid

    @pytest.mark.parametrize("args", [
        ["identities", "check", "--max-l", "0"],
        ["identities", "check", "--max-n", "-1"],
        ["identities", "check", "--max-l", "0", "--max-n", "-1"],
        ["weights", "table", "--k-max", "-3"],
        ["weights", "table", "--k-max", "0"],
        ["limits", "table", "--max-l", "0"],
    ])
    def test_a_check_of_nothing_is_rejected(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert "error:" in err and not out

    @pytest.mark.parametrize("flag, name", [
        (["--kinds", ","], "kinds"), (["--kinds", ""], "kinds"), (["--deltas", ""], "deltas"),
    ])
    def test_an_empty_table_is_rejected(self, flag, name, capsys):
        code, out, err = run_cli(["limits", "table", *flag], capsys)
        assert code == 1 and not out
        assert err.splitlines()[-1].startswith(f"error: {name} must"), err

    def test_smallest_identity_check_runs(self, capsys):
        code, out, _ = run_cli(["identities", "check", "--max-l", "1", "--max-n", "0"], capsys)
        assert code == 0
        assert out.startswith("identities ok: convolution_cells=1 binomial_checks=100 ")

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_gap_needs_a_finite_time(self, t, capsys):
        code, out, err = run_cli(["moments", "gap", f"--t={t}"], capsys)
        assert code == 1
        assert "error:" in err and not out

    def test_star_has_no_fixed_n_form(self, capsys):
        # --deterministic-n must not print the K row and drop --star
        code, out, err = run_cli(["moments", "mean", "--deterministic-n", "5", "--star"], capsys)
        assert code == 1
        assert "error:" in err and not out

    def test_non_finite_finite_family_weights(self, capsys):
        for args in (
            ["weights", "table", "--family", "finite", "--probs", "0.5,nan"],
            ["simulate", "--family", "finite", "--probs", "0.5,inf"],
        ):
            code, out, err = run_cli(args, capsys)
            assert code == 1, args
            assert "error:" in err and not out

    def test_help_everywhere(self, capsys):
        for args in (
            ["--help"],
            ["weights", "--help"],
            ["moments", "--help"],
            ["verify", "--help"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(args)
            assert exc.value.code == 0
            assert capsys.readouterr().out


def _moment_fields(args, capsys) -> list:
    code, out, _ = run_cli(["moments", *args], capsys)
    assert code == 0, args
    return out.strip().split("\n")[1].split(",")


class TestStarRows:
    # K*(l) = K(l) - K(l + 1): each exact-count row against the rows of its terms
    @pytest.mark.parametrize("star, parts", [
        (["mean", "--star", "--j", "2", "--l", "2", "--t", "1e4"],
         [(1.0, ["mean", "--j", "2", "--l", "2", "--t", "1e4"]),
          (-1.0, ["mean", "--j", "2", "--l", "3", "--t", "1e4"])]),
        (["cov", "--star", "--j", "2", "--l", "1", "--s", "500", "--t", "3000"],
         [(sign, ["cov", "--j", "2", "--s", "500", "--t", "3000", "--l", l, "--l2", l2])
          for sign, l, l2 in ((1.0, "1", "1"), (-1.0, "1", "2"), (-1.0, "2", "1"),
                              (1.0, "2", "2"))]),
        # at s = t the level pairs (1, 2) and (2, 1) are one covariance
        (["cov", "--star", "--j", "1", "--l", "1", "--t", "100"],
         [(sign, ["cov", "--j", "1", "--t", "100", "--l", l, "--l2", l2])
          for sign, l, l2 in ((1.0, "1", "1"), (-1.0, "1", "2"), (-1.0, "2", "1"),
                              (1.0, "2", "2"))]),
        # two generations and two levels: K*^(1)(1) at s against K*^(2)(2) at t
        (["cov", "--star", "--gen-i", "1", "--j", "2", "--l", "1", "--l2", "2", "--s", "50",
          "--t", "200"],
         [(sign, ["cov", "--gen-i", "1", "--j", "2", "--s", "50", "--t", "200", "--l", l,
                  "--l2", l2])
          for sign, l, l2 in ((1.0, "1", "2"), (-1.0, "1", "3"), (-1.0, "2", "2"),
                              (1.0, "2", "3"))]),
    ])
    def test_row_sums_its_terms(self, star, parts, capsys):
        got = _moment_fields(star, capsys)
        terms = [(coef, _moment_fields(args, capsys)) for coef, args in parts]
        # a K* row reads as its first term's row, K* for K: the same label
        # and generations, and l2 filled in (empty for a mean)
        assert got[0] == terms[0][1][0].replace("K", "K_star", 1)
        assert got[1:6] == terms[0][1][1:6]
        assert float(got[6]) == math.fsum(coef * float(r[6]) for coef, r in terms)
        assert float(got[7]) == math.fsum(abs(coef) * float(r[7]) for coef, r in terms)
        assert int(got[8]) == sum(int(r[8]) for _, r in terms)

    def test_star_cov_computes_each_covariance_once(self, capsys, monkeypatch):
        # at s = t, K*(1) needs Cov(K(1), K(2)) twice, as (1, 2) and (2, 1);
        # _run_pool tells a covariance by harness's name for it
        calls = []

        def counted(family, *args, prune):
            calls.append(args)
            return cov_K_cross_gen(family, *args, prune=prune)

        cov_K_cross_gen = cli.cov_K_cross_gen
        monkeypatch.setattr(cli, "cov_K_cross_gen", counted)
        monkeypatch.setattr(harness, "cov_K_cross_gen", counted)
        _moment_fields(["cov", "--star", "--j", "1", "--l", "1", "--t", "100"], capsys)
        assert sorted(calls) == [(1, 1, 1, 1, 100.0, 100.0), (1, 1, 2, 1, 100.0, 100.0),
                                 (1, 1, 2, 2, 100.0, 100.0)]


class TestLimitsConsistency:
    def test_cov_prints_every_table_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["limits", "table", "--kinds", "Z,X,Y", "--max-l", "3"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3 * 9 * 7
        for kind, l1, l2, delta, closed, _, _ in rows:
            code, value, _ = run_cli(
                ["limits", "cov", "--kind", kind, "--l1", l1, "--l2", l2,
                 "--delta", delta],
                capsys,
            )
            assert code == 0
            assert value.strip() == closed, (kind, l1, l2, delta)


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, tmp_path, capsys):
        args = [
            "simulate", "--family", "geometric", "--p", "0.5",
            "--times", "50", "--generations", "1", "--levels", "2",
            "--replicas", "5", "--seed", "42",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args, digest", [
        (["--family", "weibull", "--alpha", "0.5", "--times", "50,200,3000",
          "--generations", "3", "--levels", "3", "--replicas", "200", "--seed", "9"],
         "c5ea9a4cb3bc22f02c685ec9c61504a5bf469f84ccda73435a831ec0bd48d4eb"),
        (["--deterministic-n", "500", "--times", "100,500", "--generations", "2",
          "--replicas", "100"],
         "ddd1452af52b2785709b0cc052a368b6ad7a081ff6e57954a72d4028b2cf85d6"),
    ], ids=["poissonized", "fixed-n"])
    def test_simulate_stdout_pinned(self, args, digest, capsys):
        # the ball engine's trajectories, byte for byte, for a fixed seed
        code, out, _ = run_cli(["simulate", *args], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_moment_stdout_csv(self, capsys):
        args = [
            "verify", "moment", "--t", "150", "--replicas", "100",
            "--generations", "1", "--levels", "2", "--seed", "9",
        ]
        code, out, err = run_cli(args, capsys)
        assert code == 0
        code2, out2, _ = run_cli(args, capsys)
        assert code2 == 0
        summary, csv = out.split("\n", 1)
        summary2, csv2 = out2.split("\n", 1)
        # the report CSV is byte-identical; the summary line differs at most
        # in its wall-clock runtime field
        assert csv == csv2
        runtime = re.compile(r" runtime=\d+\.\ds$")
        assert runtime.search(summary) and runtime.search(summary2)
        assert runtime.sub("", summary) == runtime.sub("", summary2)
        assert out.startswith("verify moment: passed=")
        header = csv.split("\n")[0]
        assert header == "experiment,cell_id,j,l,l2,u,v,T,empirical,se,target,target_kind,pass"


def leaves(parser, head=""):
    """(name, parser) for each leaf subcommand under ``parser``, named by its
    words, e.g. ``"verify clt"``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(head, parser)]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in leaves(sub, f"{head} {name}".strip())]


VERIFY = {"verify moment", "verify clt", "verify trend", "verify gap"}
# the leaves that declare --threads, and those that declare --seed: the ones
# that read them, and limits table, to which the benchmark passes both
THREADED = {"sample limit", "sample whitenoise", "limits table", *VERIFY}
SEEDED = {"identities check", "simulate", *THREADED}


# a small run of every subcommand
_OUT_CASES = {
    "weights table": ["--k-max", "3"],
    "weights rho": [],
    "weights profile": [],
    "identities check": ["--max-l", "2", "--max-n", "3"],
    "simulate": ["--times", "20", "--replicas", "2"],
    "moments mean": [],
    "moments cov": [],
    "moments gap": [],
    "limits cov": ["--kind", "Z", "--l1", "1", "--l2", "2"],
    "limits table": ["--kinds", "Z", "--max-l", "1", "--deltas", "0"],
    "sample limit": ["--n", "3", "--levels", "1"],
    "sample whitenoise": ["--n", "2", "--x-step", "0.1", "--y-step", "0.1"],
    "verify moment": ["--t", "150", "--replicas", "100", "--generations", "1", "--levels", "1"],
    "verify clt": ["--T", "3", "--u-grid", "0", "--replicas", "100", "--generations", "1",
                   "--levels", "1"],
    "verify trend": ["--T-grid", "10,12", "--generations", "1", "--levels", "1",
                     "--prune", "1e-6"],
    "verify gap": ["--t-grid", "10,100", "--generations", "1", "--levels", "1"],
}


class TestOutFlag:
    def test_cases_cover_every_subcommand(self):
        assert sorted(name for name, _ in leaves(cli.build_parser())) == sorted(_OUT_CASES)

    @staticmethod
    def _args(command) -> list:
        """The small run of ``command``, at one worker where it takes --threads."""
        return [*command.split(), *_OUT_CASES[command],
                *(["--threads", "1"] if command in THREADED else [])]

    @pytest.mark.parametrize("command", sorted(_OUT_CASES))
    def test_out_holds_what_stdout_would(self, command, tmp_path, capsys):
        args = self._args(command)
        path = tmp_path / "out.csv"
        code, printed, _ = run_cli(args, capsys)
        assert code == 0, printed
        code, stdout, _ = run_cli([*args, "--out", str(path)], capsys)
        assert code == 0, stdout
        if not command.startswith("verify"):
            assert stdout == "" and path.read_text() == printed
            return
        # the report goes to the file, with its manifest; stdout keeps only
        # the summary line
        csv = printed.split("\n", 1)[1]
        assert stdout.startswith(f"{command}: passed=") and stdout.count("\n") == 1
        assert path.read_text() == csv
        manifest = (tmp_path / "out.csv.manifest").read_text().splitlines()
        fields = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "threads"]
        assert [line.split("=", 1)[0] for line in manifest] == ["experiment", *fields]

    @pytest.mark.parametrize("command", sorted(_OUT_CASES))
    def test_out_to_missing_directory_is_refused_first(self, command, tmp_path, capsys,
                                                       monkeypatch):
        # an error line and exit 1, not a traceback, and before any work:
        # nothing runs, so nothing reaches stdout
        monkeypatch.setattr(cli, "_VERIFY_RUNNERS", {})
        path = tmp_path / "missing" / "out.csv"
        args = [*self._args(command), "--out", str(path)]
        code, stdout, err = run_cli(args, capsys)
        assert code == 1
        assert stdout == ""
        want = f"error: cannot write --out {path}: No such file or directory"
        assert err.splitlines()[-1] == want
        assert not path.parent.exists()


HUGE = str(2**64)
HOSTILE = ["nan", "inf", "-inf", "-1", "0", "", ",", "1,,2", "x", HUGE]

# (leaf, flag) pairs the fuzz does not run at 2**64, with the reason.  The
# first three ask for valid unbounded work; the rest are open faults (ROADMAP
# item 17) that run for hours or hold memory without bound.
_LONG_RUNS = {
    ("sample limit", "--n"): "streams 2**64 samples in the memory of a few blocks",
    ("sample whitenoise", "--n"): "streams 2**64 samples in the memory of a few blocks",
    ("identities check", "--max-n"): "checks (2**64 + 1)**3 convolution cells, one at a time",
    **{(f"moments {action}", "--j"): "enumerate_boxes sums j powers of the table's mass"
       for action in ("mean", "cov", "gap")},
    ("limits cov", "--l1"): "_crossZ loops l1 * (l2 - l1) times",
    ("limits cov", "--l2"): "_crossZ loops l1 * (l2 - l1) times",
    ("weights table", "--k-max"): "holds every row before writing the first",
    **{(name, "--levels"): "lists cells for every level, or pairs of levels, before any work"
       for name in VERIFY},
    ("verify moment", "--generations"): "lists cells for every generation before any work",
    ("verify gap", "--generations"): "lists cells for every generation before any work",
}

# (leaf, flag) pairs that end in a traceback at 2**64: open faults (ROADMAP
# item 17), each kept as a strict xfail so that its mend shows
_TRACEBACKS = {
    (f"moments {action}", "--l"): "_at_least_series: np.arange(l, _SIZE)"
    for action in ("mean", "gap")
}

# (leaf, flag) pairs that ended in a traceback, or ran without end, at 2**64,
# and the start of the one error line each now ends in
_REFUSED_HUGE = {
    ("identities check", "--max-l"): "error: level must be <= 515",
    ("limits table", "--max-l"): "error: --max-l must be finite and <= 6",
    ("moments cov", "--l"): f"error: level {HUGE} is above 171",
    ("moments cov", "--l2"): f"error: level {HUGE} is above 171",
    # 2 replicas x 2 generations x 3 levels x 1 time, one factor at 2**64
    ("simulate", "--levels"): f"numeric error: {2 * 2 * 2**64} trajectory CSV rows need",
    ("simulate", "--replicas"): f"numeric error: {2**64 * 2 * 3} trajectory CSV rows need",
    ("verify clt", "--generations"): "numeric error: the generation-86 normalization at T=3.0",
    ("verify trend", "--generations"): "numeric error: the generation-86 normalization at "
                                       "T=10.0",
}


# a value for each flag off its default and off the leaf's small run, looked
# up by (leaf, flag), then by flag.  The x window has converged by 30 at
# these steps, so only a window that moves the mesh shows.
_MOVES = {
    ("limits cov", "--l2"): "3", ("sample whitenoise", "--u-grid"): "0,0.5",
    ("simulate", "--generations"): "3", ("verify trend", "--prune"): "1e-7",
    "--family": "geometric", "--alpha": "0.3", "--p": "0.3", "--probs": "0.996,0.004",
    "--seed": "3", "--k-max": "4", "--t": "200", "--lambdas": "3", "--times": "30",
    "--max-l": "3", "--max-n": "4", "--deterministic-n": "200", "--generations": "2",
    "--levels": "2", "--replicas": "120", "--j": "2", "--l": "2", "--l2": "2", "--s": "50",
    "--gen-i": "1", "--prune": "1e-6", "--kind": "X", "--l1": "2", "--delta": "0.5",
    "--kinds": "X", "--deltas": "0.5", "--u-grid": "0,1", "--n": "4", "--x-window": "30.05",
    "--x-step": "0.2", "--y-step": "0.2", "--T": "4", "--T-grid": "10,13",
    "--t-grid": "10,200", "--threads": "2",
}
# flags given in both runs, where a flag acts only together with others: a
# family's parameter under that family, an outer generation below --j, and
# the identity check's seed at enough levels for its worst error to move
_CONTEXT = {"--p": ["--family", "geometric"],
            "--probs": ["--family", "finite", "--probs", "0.5,0.5"],
            "--gen-i": ["--j", "2"], ("identities check", "--seed"): ["--max-l", "12"]}
# flags that leave stdout as it is: the worker count, and the --seed that
# the benchmark passes to runs that draw nothing (it reaches the manifest)
_SAME_STDOUT = {("limits table", "--seed"), ("verify trend", "--seed"),
                ("verify gap", "--seed"), *((name, "--threads") for name in THREADED)}


class TestFlagContract:
    @pytest.mark.parametrize("command", sorted(_OUT_CASES))
    def test_every_flag_changes_stdout(self, command, capsys, monkeypatch):
        # each flag (--out and --config aside) moved off its default on the
        # leaf's small run changes stdout, or, where listed, leaves it as it is
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.delenv("NESTED_KARLIN_THREADS", raising=False)

        def stdout(args):
            code, out, err = run_cli([*TestOutFlag._args(command), *args], capsys)
            assert code in (0, 3), (command, args, err)
            return re.sub(r" runtime=\d+\.\ds$", "", out, flags=re.M)

        for action in dict(leaves(cli.build_parser()))[command]._actions:
            flag = action.option_strings[-1] if action.option_strings else None
            if flag in (None, "--help", "--out", "--config"):
                continue
            context = _CONTEXT.get((command, flag), _CONTEXT.get(flag, []))
            moved = [flag] if action.nargs == 0 else [
                flag, _MOVES.get((command, flag), _MOVES.get(flag))]
            same = (command, flag) in _SAME_STDOUT
            assert (stdout([*context, *moved]) == stdout(context)) == same, (command, flag)

    def test_seed_and_threads_only_where_read(self):
        flags = {name: {a.option_strings[-1] for a in parser._actions}
                 for name, parser in leaves(cli.build_parser())}
        assert {name for name, f in flags.items() if "--seed" in f} == SEEDED
        assert {name for name, f in flags.items() if "--threads" in f} == THREADED

    def test_argparse_parses_every_comma_list(self):
        lists = {(name, a.option_strings[-1]) for name, parser in leaves(cli.build_parser())
                 for a in parser._actions if a.type is cli._csv_floats}
        family = {"weights table", "weights rho", "weights profile", "simulate",
                  "moments mean", "moments cov", "moments gap", *VERIFY}
        assert lists == {
            ("weights rho", "--t"), ("weights profile", "--lambdas"),
            ("weights profile", "--times"), ("simulate", "--times"),
            ("limits table", "--deltas"), ("sample limit", "--u-grid"),
            ("sample whitenoise", "--u-grid"), ("verify clt", "--u-grid"),
            ("verify trend", "--T-grid"), ("verify gap", "--t-grid"),
            *((name, "--probs") for name in family)}

    @staticmethod
    def _run(args, path, capsys):
        """``run_cli(args)`` with --out at ``path``, which holds a sentinel."""
        path.write_text("sentinel")
        return run_cli([*args, "--out", str(path)], capsys)

    @pytest.mark.parametrize("command", sorted(_OUT_CASES))
    def test_hostile_values(self, command, tmp_path, capsys, monkeypatch):
        # each flag of each leaf that takes a value (--out aside), alone at
        # each hostile value, on the leaf's small run: an exit code of the
        # contract, and a refusal is one error line that names a malformed
        # flag and leaves --out as it was.  The pool runs in this process,
        # so --threads 2**64 starts no worker.
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.delenv("NESTED_KARLIN_THREADS", raising=False)
        parser = dict(leaves(cli.build_parser()))[command]
        path = tmp_path / "out.csv"
        for action in parser._actions:
            if not action.option_strings or action.nargs == 0 or action.dest == "out":
                continue
            flag = action.option_strings[-1]
            for value in HOSTILE:
                if value == HUGE and ((command, flag) in _LONG_RUNS
                                      or (command, flag) in _TRACEBACKS):
                    continue
                case = f"{command} {flag}={value}"
                try:
                    code, _, err = self._run([*command.split(), *_OUT_CASES[command],
                                              f"{flag}={value}"], path, capsys)
                except Exception as exc:  # a traceback
                    pytest.fail(f"{case}: {exc!r}")
                assert code in (0, 1, 2, 3), case
                if code in (1, 2):
                    errors = [line for line in err.splitlines()
                              if line.startswith(("error:", "numeric error:"))]
                    assert len(errors) == 1, (case, err)
                    assert path.read_text() == "sentinel", case
                    if value == "x" and action.type is not None:
                        assert errors[0].startswith(f"error: argument {flag}: "), case

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, marks=pytest.mark.xfail(
            strict=True, raises=(ValueError, OverflowError), reason=reason))
        for (command, flag), reason in sorted(_TRACEBACKS.items())])
    def test_huge_counts_that_end_in_a_traceback(self, command, flag, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        code, _, _ = self._run([*command.split(), *_OUT_CASES[command], f"{flag}={HUGE}"],
                               tmp_path / "out.csv", capsys)
        assert code in (1, 2)

    @pytest.mark.parametrize("command, flag", sorted(_REFUSED_HUGE))
    def test_huge_counts_refused_with_one_line(self, command, flag, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        path = tmp_path / "out.csv"
        code, out, err = self._run([*TestOutFlag._args(command), f"{flag}={HUGE}"], path,
                                   capsys)
        assert code == (2 if _REFUSED_HUGE[command, flag].startswith("numeric") else 1)
        assert not out and path.read_text() == "sentinel"
        assert err.splitlines()[-1].startswith(_REFUSED_HUGE[command, flag])


class InProcessPool:
    """A ProcessPoolExecutor stand-in that runs each call in this process
    as it is submitted."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future

    def shutdown(self, **kwargs):
        pass


B = cli._FACTOR_ROWS


def sample_csv_reference(draws, labels) -> str:
    """The whole sample CSV formatted one element at a time."""
    rows = ["sample_id,level,u,value"] + [
        f"{sid},{level},{float(u)!r},{float(draws[sid, col])!r}"
        for sid in range(draws.shape[0])
        for col, (level, u) in enumerate(labels)
    ]
    return "\n".join(rows) + "\n"


def assert_same_text(got: str, want: str) -> None:
    """Equal texts; a mismatch names its first differing line (pytest's
    diff of two whole CSVs would take minutes)."""
    if got != want:
        a, b = got.split("\n"), want.split("\n")
        k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {k}: {a[k:k + 1]} != {b[k:k + 1]} "
                    f"({len(a)} vs {len(b)} lines)")


# the bench's two sample runs and the sha256 of their stdout at seed 1
SAMPLE_DIGESTS = [
    (["limit", "--kind", "Z", "--levels", "3", "--u-grid", "0.0,0.25,0.5,0.75,1.0",
      "--n", "100000"],
     "d602072b4171b13a6d74ca37590a419aeca374d0826b7a7ef4295e25629b7fc1"),
    (["whitenoise", "--u-grid", "0.0,0.5,1.0", "--x-window", "30", "--x-step", "0.01",
      "--y-step", "0.01", "--n", "20000"],
     "28730a1fdaacdc4429ac775b31c4b78666f66a29f6930b4a28d8e3ecd123b7ea"),
]

# one sample, and runs that end one short of a block, on a block's end, one
# past it, and three past it after eight blocks
SAMPLE_COUNTS = [1, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 3]


class TestSampleBlocks:
    """`sample` writes its CSV one block of B samples at a time; the bytes
    must equal the CSV formatted in one piece."""

    @staticmethod
    def _cases(n):
        grid = build_grid("X", [0.0, 1.0], 2)
        limit = sample_csv_reference(sample(grid, n, 11), grid.labels())
        noise = sample_csv_reference(
            sample_Z1_whitenoise([0.0, 1.0], n=n, seed=11), [(1, 0.0), (1, 1.0)])
        return [
            (["sample", "limit", "--kind", "X", "--levels", "2", "--u-grid", "0,1",
              "--n", str(n), "--seed", "11"], limit, 4),
            (["sample", "whitenoise", "--u-grid", "0,1", "--n", str(n),
              "--seed", "11"], noise, 2),
        ]

    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    def test_out_and_stdout_match_one_piece(self, n, tmp_path, capsys, monkeypatch):
        # one worker: calls made inside pool workers would not be recorded
        calls = []

        def recorded(draws, labels, start=0):
            text = draws_to_csv_rows(draws, labels, start)
            calls.append((len(draws), start, type(text), len(text.splitlines())))
            return text

        draws_to_csv_rows = cli.draws_to_csv_rows
        monkeypatch.setattr(cli, "draws_to_csv_rows", recorded)
        for args, want, columns in self._cases(n):
            args = args + ["--threads", "1"]
            out = tmp_path / "sample.csv"
            assert run_cli(args + ["--out", str(out)], capsys)[0] == 0
            assert_same_text(out.read_text(), want)
            stdout = sys.stdout
            code, text, _ = run_cli(args, capsys)
            assert code == 0
            assert_same_text(text, want)
            assert sys.stdout is stdout and not stdout.closed
            # one call per block, each returning its block's rows as text
            blocks = [(min(B, n - s), s, str, columns * min(B, n - s))
                      for s in range(0, n, B)]
            assert calls == blocks + blocks
            calls.clear()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", SAMPLE_COUNTS)
    def test_same_bytes_at_any_worker_count(self, n, threads, tmp_path, capsys):
        for args, want, _ in self._cases(n):
            args = args + ["--threads", str(threads)]
            out = tmp_path / "sample.csv"
            assert run_cli(args + ["--out", str(out)], capsys)[0] == 0
            assert_same_text(out.read_text(), want)
            stdout = sys.stdout
            code, text, _ = run_cli(args, capsys)
            assert code == 0
            assert_same_text(text, want)
            assert sys.stdout is stdout and not stdout.closed

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("args, digest", SAMPLE_DIGESTS, ids=["limit", "whitenoise"])
    def test_stdout_pinned(self, args, digest, threads, capsys):
        # the bench's sample runs, byte for byte, at seed 1
        code, out, _ = run_cli(["sample", *args, "--seed", "1", "--threads", str(threads)],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("args, digest", SAMPLE_DIGESTS, ids=["limit", "whitenoise"])
    @pytest.mark.parametrize("writer", ["hidden", "seventeen_digits"])
    def test_stdout_pinned_without_orjson(self, writer, args, digest, threads, capsys,
                                          orjson_as):
        # the same bytes with no orjson, and with one whose writer fails the
        # probe (17 significant digits are not repr's text), in the workers too
        def dumps(value, option=0):
            return ("[" + ",".join("%.17g" % v for v in value.tolist()) + "]").encode()

        orjson_as(None if writer == "hidden" else
                  types.SimpleNamespace(dumps=dumps, OPT_SERIALIZE_NUMPY=0))
        code, out, _ = run_cli(["sample", *args, "--seed", "1", "--threads", str(threads)],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert gaussian._orjson() is None

    def test_memory_does_not_grow_with_n(self, tmp_path, capsys):
        # each block goes from the generator to the file before the next is
        # drawn: the peak is a few blocks of draws and text at any --n, where
        # the draws alone would take 24 MB at n = 200 000; the first run's
        # lazy imports are made before tracing
        args = ["sample", "limit", "--kind", "Z", "--levels", "3",
                "--u-grid", "0.0,0.25,0.5,0.75,1.0", "--seed", "1", "--threads", "1",
                "--out", str(tmp_path / "sample.csv")]
        assert run_cli(args + ["--n", "2"], capsys)[0] == 0
        peaks = []
        for n in (20000, 200000):
            tracemalloc.start()
            try:
                assert main(args + ["--n", str(n)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * 2**20 and peaks[1] < peaks[0] + 2**20, peaks

    def test_stdout_pipe_with_workers(self):
        # the header is written before the workers fork, and a forked
        # worker flushes its copy of sys.stdout as it exits: text still
        # buffered at the fork would reach the pipe twice
        n = 2 * B + 3
        for args, want, _ in self._cases(n):
            proc = subprocess.run(
                [sys.executable, "-m", "nested_karlin", *args, "--threads", "2"],
                capture_output=True, text=True, env=_child_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert_same_text(proc.stdout, want)

    def test_blocks_in_flight_are_bounded(self, tmp_path, capsys, monkeypatch):
        # the writer holds at most 2 * threads formatted blocks at once, and
        # a run of one block starts no pool
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                self.max_workers, self.held, self.peak = max_workers, 0, 0
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(pickle.loads(pickle.dumps(fn(*args))))
                self.held += 1
                self.peak = max(self.peak, self.held)
                take = future.result

                def result(timeout=None):
                    self.held -= 1
                    return take()

                future.result = result
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        for n, threads, workers in ((1, 3, None), (9 * B, 2, 2), (2 * B + 3, 8, 3)):
            pools.clear()
            for args, want, _ in self._cases(n):
                out = tmp_path / "sample.csv"
                args = args + ["--threads", str(threads), "--out", str(out)]
                assert run_cli(args, capsys)[0] == 0
                assert_same_text(out.read_text(), want)
            if workers is None:
                assert pools == []
            else:
                assert [p.max_workers for p in pools] == [workers, workers]
                assert all(0 < p.peak <= 2 * workers and p.held == 0 for p in pools)


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t=120\nreplicas=120\nprune=1e-7\n")
        code, _, err = run_cli(
            [
                "verify", "moment", "--config", str(cfg),
                "--replicas", "150", "--generations", "1", "--levels", "1",
                "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        assert "# replicas=150" in err  # flag wins
        assert "# t=120.0" in err or "# t=120" in err  # config supplies the rest
        assert "# prune=1e-07" in err

    def test_list_flags_echo_as_parsed(self, tmp_path, capsys):
        # argparse parses a comma list, from a flag, a config file or a
        # default, into the tuple the run reads, and the echo shows that tuple
        cfg = tmp_path / "run.cfg"
        cfg.write_text("u_grid=0,1\n")
        code, _, err = run_cli(["verify", "clt", "--config", str(cfg), "--T", "3",
                                "--replicas", "100", "--generations", "1", "--levels", "1",
                                "--threads", "1", "--probs", "1,,2"], capsys)
        assert code == 0
        assert "# u_grid=(0.0, 1.0)\n" in err and "# probs=(1.0, 2.0)\n" in err
        code, _, err = run_cli(["sample", "limit", "--n", "1"], capsys)
        assert code == 0
        assert "# u_grid=(0.0, 0.5, 1.0)\n" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["verify", "moment", "--config", str(tmp_path / "nope.cfg")], capsys
        )
        assert code == 1


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nested_karlin", "limits", "cov",
             "--kind", "Z", "--l1", "1", "--l2", "1", "--delta", "0"],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.6931471805599453"

    def test_limits_commands_load_no_scipy(self, tmp_path):
        # the quadrature oracle integrates with numpy alone
        runs = [
            f"limits table --max-l 2 --out {tmp_path / 'table.csv'}",
            f"limits cov --kind X --l1 2 --l2 1 --delta 0.5 --out {tmp_path / 'cov.csv'}",
        ]
        probe = ("import sys; from nested_karlin import cli; "
                 "codes = [cli.main(run.split()) for run in sys.argv[1:]]; "
                 "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run(
            [sys.executable, "-c", probe, *runs], capture_output=True, text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] []"
        assert len((tmp_path / "table.csv").read_text().splitlines()) == 1 + 2 * 4 * 7

    def test_import_leaves_out_orjson(self):
        # the sample CSV writer imports orjson at its first call, so the
        # package's import time does not carry it
        probe = "import sys, nested_karlin, nested_karlin.cli; print('orjson' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_out_special_functions(self):
        # no module of the package imports scipy.special
        probe = ("import sys, nested_karlin.cli; "
                 "print('scipy.special' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_verify_and_weibull_families_load_no_scipy(self, tmp_path):
        # the exact targets and the weibull-like normalizers need no scipy
        runs = [
            "verify moment --t 150 --replicas 100 --generations 2 --levels 2",
            "verify clt --T 3 --u-grid 0,1 --replicas 100 --generations 2 --levels 2",
            "verify gap --t-grid 10,1000 --generations 2 --levels 2",
            "verify trend --T-grid 10,12 --generations 2 --levels 2 --prune 1e-6",
        ]
        probe = ("import sys; from nested_karlin import cli, WeightFamily; "
                 "codes = [cli.main(run.split()) for run in sys.argv[1:]]; "
                 "[WeightFamily.weibull_like(a) for a in (0.3, 0.5, 0.9)]; "
                 "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        args = [f"{run} --threads 1 --out {tmp_path / f'{i}.csv'}" for i, run in enumerate(runs)]
        proc = subprocess.run(
            [sys.executable, "-c", probe, *args], capture_output=True, text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"

    def test_bench_tracer_installs(self):
        # perfbench/trace_cli.py wraps names it reads off the package's modules
        # (harness.simulate_poissonized, cli.closed_cov, cli._VERIFY_RUNNERS,
        # ...); deleting one must fail here, not only in a traced bench run
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import trace_cli; "
                 "rec = trace_cli.Recorder(); trace_cli.install(rec); print(len(rec.names))")
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(bench)], capture_output=True, text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0

    def test_threads_env_fallback(self):
        # a small worker count that differs from the CPU-count fallback, so
        # the echo proves the environment variable was read
        threads = 3 if (os.cpu_count() or 1) == 2 else 2
        env_run = subprocess.run(
            [sys.executable, "-m", "nested_karlin", "verify", "moment",
             "--t", "120", "--replicas", "100", "--generations", "1",
             "--levels", "1", "--seed", "2"],
            capture_output=True, text=True,
            env=_child_env(NESTED_KARLIN_THREADS=str(threads)),
        )
        assert env_run.returncode == 0, env_run.stderr
        assert f"# threads={threads}\n" in env_run.stderr
