import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nested_karlin
from nested_karlin import cli
from nested_karlin.cli import main
from nested_karlin.gaussian import build_grid, sample, sample_Z1_whitenoise


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
                "--t", "100",
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

    def test_oversized_enumeration_is_numeric_error(self, capsys):
        # 3.8e10 active generation-2 boxes: refused before any is formed
        code, _, err = run_cli(["moments", "mean", "--j", "2", "--t", "1e300"], capsys)
        assert code == 2
        assert "numeric error:" in err

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
        code, out, err = run_cli(["simulate", "--t", "10", "--replicas", replicas], capsys)
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
            ["limits", "cov", "--kind", "Z", "--l1", "1", "--l2", "1", "--threads", "1"],
            capsys,
        )
        assert code == 0
        assert "# threads=1\n" in err

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
        # --binomial must not print the K row and drop --star
        code, out, err = run_cli(["moments", "mean", "--binomial", "--star"], capsys)
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
        (["cov", "--which", "star", "--j", "2", "--l", "1", "--s", "500", "--t", "3000"],
         [(sign, ["cov", "--j", "2", "--s", "500", "--t", "3000", *which])
          for sign, which in ((1.0, ["--which", "same", "--l", "1"]),
                              (-1.0, ["--which", "levels", "--l", "1", "--l2", "2"]),
                              (-1.0, ["--which", "levels", "--l", "2", "--l2", "1"]),
                              (1.0, ["--which", "same", "--l", "2"]))]),
    ])
    def test_row_sums_its_terms(self, star, parts, capsys):
        got = _moment_fields(star, capsys)
        terms = [(coef, _moment_fields(args, capsys)) for coef, args in parts]
        assert got[0] in ("mean_K_star", "cov_K_star_same") and got[3] == ""
        assert float(got[6]) == math.fsum(coef * float(r[6]) for coef, r in terms)
        assert float(got[7]) == math.fsum(abs(coef) * float(r[7]) for coef, r in terms)
        assert int(got[8]) == sum(int(r[8]) for _, r in terms)


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
            "--t", "50", "--generations", "1", "--levels", "2",
            "--replicas", "5", "--seed", "42",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

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


B = cli._SAMPLE_BLOCK


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

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    def test_out_and_stdout_match_one_piece(self, n, tmp_path, capsys, monkeypatch):
        calls = []

        def recorded(draws, labels, start=0):
            rows = draws_to_csv_rows(draws, labels, start)
            calls.append((len(draws), start, type(rows), len(rows)))
            return rows

        draws_to_csv_rows = cli.draws_to_csv_rows
        monkeypatch.setattr(cli, "draws_to_csv_rows", recorded)
        for args, want, columns in self._cases(n):
            out = tmp_path / "sample.csv"
            assert run_cli(args + ["--out", str(out)], capsys)[0] == 0
            assert_same_text(out.read_text(), want)
            stdout = sys.stdout
            code, text, _ = run_cli(args, capsys)
            assert code == 0
            assert_same_text(text, want)
            assert sys.stdout is stdout and not stdout.closed
            # one call per block, each returning its block's rows as a list
            blocks = [(min(B, n - s), s, list, columns * min(B, n - s))
                      for s in range(0, n, B)]
            assert calls == blocks + blocks
            calls.clear()


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
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.6931471805599453"

    def test_cli_import_leaves_out_quadrature(self):
        # scipy.integrate is imported only when quadrature runs
        import_root = Path(nested_karlin.__file__).resolve().parent.parent
        probe = ("import sys, nested_karlin.cli; "
                 "print('scipy.integrate' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(import_root)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_out_special_functions(self):
        # scipy.special is imported only where a special function runs, so
        # the sample and limits commands never load it
        import_root = Path(nested_karlin.__file__).resolve().parent.parent
        probe = ("import sys, nested_karlin.cli; "
                 "print('scipy.special' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(import_root)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_bench_tracer_installs(self):
        # perfbench/trace_cli.py wraps names it reads off the package's modules
        # (harness.simulate_poissonized, cli.closed_cov, cli._VERIFY_RUNNERS,
        # ...); deleting one must fail here, not only in a traced bench run
        import_root = Path(nested_karlin.__file__).resolve().parent.parent
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import trace_cli; "
                 "rec = trace_cli.Recorder(); trace_cli.install(rec); print(len(rec.names))")
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(bench)], capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(import_root)},
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0

    def test_threads_env_fallback(self):
        # the child sees a minimal environment plus the import path of the
        # package under test, which works for PYTHONPATH=src and installs alike
        import_root = Path(nested_karlin.__file__).resolve().parent.parent
        # a small worker count that differs from the CPU-count fallback, so
        # the echo proves the environment variable was read
        threads = 3 if (os.cpu_count() or 1) == 2 else 2
        env_run = subprocess.run(
            [sys.executable, "-m", "nested_karlin", "verify", "moment",
             "--t", "120", "--replicas", "100", "--generations", "1",
             "--levels", "1", "--seed", "2"],
            capture_output=True, text=True,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": str(import_root),
                "NESTED_KARLIN_THREADS": str(threads),
            },
        )
        assert env_run.returncode == 0, env_run.stderr
        assert f"# threads={threads}\n" in env_run.stderr
