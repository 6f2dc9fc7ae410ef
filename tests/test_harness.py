import contextlib
import hashlib
import itertools
import math
import multiprocessing
import pickle
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import replace

import pytest

from nested_karlin import harness, moments
from nested_karlin.errors import NumericalError, ValidationError
from nested_karlin.harness import (
    REPORT_CSV_HEADER,
    ExperimentConfig,
    run_asymptotic_trend,
    run_clt_check,
    run_depoissonization_check,
    run_moment_check,
)
from nested_karlin.moments import cov_K_cross_gen, mean_K, mean_K_binomial


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this (the main) thread if the block is still
    running after ``seconds``, so a stuck worker pool fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _assert_report_well_formed(report):
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == REPORT_CSV_HEADER
    assert len(lines) == len(report.cells) + 1
    for line in lines[1:]:
        assert len(line.split(",")) == 13
    for cell in report.cells:
        # every compared cell carries an SE and a target
        assert math.isfinite(cell.se) and math.isfinite(cell.target)


class TestMomentCheck:
    def test_exact_agreement_three_box_deterministic(self):
        cfg = ExperimentConfig(
            family_kind="finite",
            probs=(0.5, 0.3, 0.2),
            deterministic_n=3,
            generations=1,
            levels=3,
            replicas=4000,
            seed=404,
        )
        report = run_moment_check(cfg)
        _assert_report_well_formed(report)
        assert report.passed
        # targets are the closed binomial sums, not asymptotics
        fam = cfg.family()
        for cell in report.cells:
            if cell.cell_id.startswith("mean_K:") and cell.l == 1:
                want = mean_K_binomial(fam, cell.j, 1, 3).value
                assert cell.target == pytest.approx(want, rel=1e-12)
                assert cell.target_kind == "exact"

    def test_fixed_n_means_computed_once(self, monkeypatch):
        # same config as test_exact_agreement_three_box_deterministic: the
        # K* cell of level l reuses the level-(l + 1) mean of the next cell
        calls = []

        def counted(family, *args, **kwargs):
            calls.append(args)
            return mean_K_binomial(family, *args, **kwargs)

        monkeypatch.setattr(harness, "mean_K_binomial", counted)
        cfg = ExperimentConfig(
            family_kind="finite",
            probs=(0.5, 0.3, 0.2),
            deterministic_n=3,
            generations=1,
            levels=3,
            replicas=4000,
            seed=404,
        )
        report = run_moment_check(cfg)
        assert sorted(calls) == [(1, l, 3) for l in (1, 2, 3, 4)]
        assert len(report.cells) == 6

    def test_zero_balls_is_the_fixed_n_scheme(self):
        # deterministic_n=0 throws no balls; None (the default) runs the
        # Poissonized scheme, whose report alone has variance cells
        cfg = ExperimentConfig(t=50.0, deterministic_n=0, generations=1, levels=1,
                               replicas=100)
        report = run_moment_check(cfg)
        assert {c.cell_id.split(":")[0] for c in report.cells} == {"mean_K", "mean_K_star"}
        assert all(c.empirical == c.target == 0.0 and c.u == 0.0 for c in report.cells)
        poissonized = run_moment_check(replace(cfg, deterministic_n=None))
        assert any(c.cell_id.startswith("var_K") for c in poissonized.cells)

    def test_equal_time_level_pairs_computed_once(self, monkeypatch):
        # the K* variance asks for the levels (l, l + 1) and (l + 1, l) at
        # s = t; both orders are one covariance, computed once, in the
        # order cov_K_cross_gen puts them in at i = j (l1 >= l2)
        calls = []

        def counted(family, *args, **kwargs):
            calls.append(args)
            return cov_K_cross_gen(family, *args, **kwargs)

        monkeypatch.setattr(harness, "cov_K_cross_gen", counted)
        run_moment_check(ExperimentConfig(t=300.0, generations=1, levels=3,
                                          replicas=100, seed=3))
        pairs = {(l1, l2) for _, _, l1, l2, _, _ in calls}
        assert len(calls) == len(pairs) == 10
        assert all(l1 >= l2 for l1, l2 in pairs)

    def test_statistical_profile(self):
        cfg = ExperimentConfig(t=300.0, generations=2, levels=2, replicas=120, seed=17)
        report = run_moment_check(cfg)
        _assert_report_well_formed(report)
        assert report.pass_fraction >= 0.95
        assert report.pass_fraction_required == 0.95

    def test_smoke_profile_under_ten_seconds(self):
        cfg = ExperimentConfig(t=1000.0, generations=2, levels=3, replicas=100, seed=5)
        start = time.perf_counter()
        report = run_moment_check(cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        assert report.cells

    def test_minimum_replicas_enforced(self):
        cfg = ExperimentConfig(t=100.0, replicas=50, seed=1)
        with pytest.raises(ValidationError):
            run_moment_check(cfg)

    @pytest.mark.parametrize("threads", [-3, 0, 1.5])
    def test_bad_thread_counts_rejected(self, monkeypatch, threads):
        def never(*args, **kwargs):
            raise AssertionError("simulated before the worker count was checked")

        monkeypatch.setattr(harness, "sample_counts", never)
        cfg = ExperimentConfig(threads=threads, replicas=100, t=50.0,
                               generations=1, levels=1)
        with pytest.raises(ValidationError):
            run_moment_check(cfg)


# the functions through which a run does its work: simulation and every
# name of the moments module that the harness binds
_WORK = ("sample_counts", *(name for name in moments.__all__ if hasattr(harness, name)))


@pytest.mark.parametrize("runner, name, value", [
    (run_moment_check, "generations", 1.5),
    (run_moment_check, "levels", 2.7),
    (run_moment_check, "replicas", 150.5),
    (run_moment_check, "replicas", math.nan),
    (run_moment_check, "deterministic_n", 300.7),
    (run_moment_check, "seed", 1.5),
    (run_clt_check, "generations", 1.5),
    (run_clt_check, "levels", 2.7),
    (run_clt_check, "replicas", 150.5),
    (run_clt_check, "seed", 1.5),
    # e^(T + u) and e^T beyond the float range
    (run_clt_check, "T", 800.0),
    (run_clt_check, "u_grid", (0.0, 800.0)),
    (run_asymptotic_trend, "generations", 1.5),
    (run_asymptotic_trend, "levels", 2.7),
    (run_asymptotic_trend, "generations", 0),
    (run_asymptotic_trend, "T_grid", (10.0, 800.0)),
    (run_depoissonization_check, "generations", 1.5),
    (run_depoissonization_check, "levels", 2.7),
    (run_depoissonization_check, "levels", 0),
])
def test_whole_fields_checked_before_any_work(monkeypatch, runner, name, value):
    def never(*args, **kwargs):
        raise AssertionError("work began before the config was checked")

    for fn in _WORK:
        monkeypatch.setattr(harness, fn, never)
    cfg = ExperimentConfig(t=100.0, T=5.0, T_grid=(10.0, 12.0), t_grid=(10.0,),
                           generations=1, levels=1, replicas=150)
    with pytest.raises(ValidationError, match=name):
        runner(replace(cfg, **{name: value}))


class TestReproducibility:
    def test_reports_bit_identical(self):
        cfg = ExperimentConfig(t=200.0, generations=2, levels=2, replicas=100, seed=99)
        a = run_moment_check(cfg).to_csv()
        b = run_moment_check(cfg).to_csv()
        assert a == b

    def test_worker_count_does_not_change_output(self):
        # 3 workers is more than a 2-core machine has
        small = [
            (run_moment_check,
             ExperimentConfig(t=200.0, generations=2, levels=2, replicas=100, seed=99)),
            (run_moment_check,
             ExperimentConfig(family_kind="finite", probs=(0.5, 0.3, 0.2),
                              deterministic_n=5, generations=2, levels=2,
                              replicas=100, seed=98)),
            (run_clt_check,
             ExperimentConfig(T=5.0, u_grid=(0.0, 1.0), generations=2, levels=2,
                              replicas=100, seed=97)),
            (run_asymptotic_trend,
             ExperimentConfig(T_grid=(10.0, 15.0), generations=2, levels=2,
                              prune=1e-6)),
            (run_depoissonization_check,
             ExperimentConfig(t_grid=(10.0, 100.0, 1000.0), generations=2,
                              levels=2, prune=1e-7)),
            # every family kind travels to the workers
            (run_moment_check,
             ExperimentConfig(family_kind="geometric", p=0.5, t=200.0, generations=2,
                              levels=2, replicas=100, seed=96)),
            (run_asymptotic_trend,
             ExperimentConfig(family_kind="geometric", p=0.5, T_grid=(10.0, 14.0),
                              generations=2, levels=2)),
            (run_depoissonization_check,
             ExperimentConfig(family_kind="finite", probs=(0.5, 0.3, 0.2),
                              t_grid=(0.5, 3.0, 10.7), generations=2, levels=2)),
        ]
        for runner, cfg in small:
            with _deadline(120):
                csvs = [runner(replace(cfg, threads=n)).to_csv() for n in (1, 2, 3)]
            assert csvs[1] == csvs[0], runner.__name__
            assert csvs[2] == csvs[0], runner.__name__

    def test_pool_tasks_carry_no_config(self, monkeypatch):
        # every task the pool is given pickles, and none carries the config:
        # the family travels by its spec, with the task's own arguments
        submitted = []

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args, **kwargs):
                submitted.append((fn, args, kwargs))
                future = Future()
                future.set_result(fn(*args, **kwargs))
                return future

        def holds_config(x):
            if isinstance(x, ExperimentConfig):
                return True
            if isinstance(x, (tuple, list)):
                return any(holds_config(y) for y in x)
            return isinstance(x, dict) and any(holds_config(y) for y in x.values())

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        runs = [
            (run_moment_check,
             ExperimentConfig(family_kind="geometric", p=0.5, t=100.0, generations=2,
                              levels=2, replicas=100)),
            (run_moment_check,
             ExperimentConfig(deterministic_n=50, generations=1, levels=2, replicas=100)),
            (run_clt_check,
             ExperimentConfig(T=4.0, u_grid=(0.0, 0.5), generations=2, levels=1,
                              replicas=100)),
            (run_asymptotic_trend,
             ExperimentConfig(T_grid=(10.0, 12.0), generations=1, levels=1, prune=1e-6)),
            (run_depoissonization_check,
             ExperimentConfig(family_kind="finite", probs=(0.5, 0.5), t_grid=(3.0,),
                              generations=1, levels=1)),
        ]
        for runner, cfg in runs:
            submitted.clear()
            runner(replace(cfg, threads=2))
            assert submitted, runner.__name__
            chunks = [fn is harness.sample_counts for fn, _, _ in submitted]
            # replica chunks first, then the exact targets
            assert chunks == sorted(chunks, reverse=True)
            for task in submitted:
                assert not holds_config(task), task
                pickle.dumps(task)

    def test_worker_error_surfaces_as_validation_error(self):
        # a zero prune budget is rejected inside each exact moment, which
        # with 2 workers runs in a worker process
        cfg = ExperimentConfig(t_grid=(10.0, 100.0), generations=1, levels=1,
                               prune=0.0, threads=2)
        with _deadline(60), pytest.raises(ValidationError) as info:
            run_depoissonization_check(cfg)
        assert type(info.value.__cause__).__name__ == "_RemoteTraceback"

    def test_no_more_workers_than_tasks(self, monkeypatch):
        # 6 exact targets at 8 threads, 2 at 4; a single task runs here
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        with _deadline(60):
            run_asymptotic_trend(ExperimentConfig(T_grid=(10.0, 12.0), generations=1,
                                                  levels=1, prune=1e-6, threads=8))
            run_depoissonization_check(ExperimentConfig(t_grid=(10.0,), generations=1,
                                                        levels=1, threads=4))
            cfg = ExperimentConfig(threads=4)
            harness._run_pool(cfg, cfg.family(), [harness._exact(mean_K, 1, 1, 100.0)])
        assert pools == [6, 2]

    def test_write_emits_manifest(self, tmp_path):
        cfg = ExperimentConfig(t=150.0, replicas=100, seed=3)
        report = run_moment_check(cfg)
        out = tmp_path / "report.csv"
        report.write(str(out))
        assert out.read_text() == report.to_csv()
        manifest = (out.parent / "report.csv.manifest").read_text()
        assert "seed=3" in manifest
        assert "experiment=moment_check" in manifest
        # manifests must be reproducible verbatim (no timestamps)
        report.write(str(out))
        assert (out.parent / "report.csv.manifest").read_text() == manifest


def _touch_after(path, seconds):
    """Sleep ``seconds``, then create the file ``path``: a task that leaves
    a mark when it runs."""
    time.sleep(seconds)
    open(path, "x").close()


@pytest.mark.parametrize("threads", [1, 2])
class TestInOrder:
    """``harness._in_order``, the one worker pool (in this process at one
    worker)."""

    def test_results_in_order_from_lazy_calls(self, threads):
        taken = []

        def calls():
            for i in range(20):
                taken.append(i)
                yield int, (str(i),), {"base": 16}

        with _deadline(60):
            stream = harness._in_order(calls(), threads, 3)
            assert next(stream) == 0 and len(taken) <= 3
            assert list(stream) == [int(str(i), 16) for i in range(1, 20)]

    def test_worker_error_cancels_pending_calls(self, threads, tmp_path):
        marks = [(_touch_after, (str(tmp_path / str(i)), 0.05), {}) for i in range(40)]
        with _deadline(60), pytest.raises(ValueError) as info:
            list(harness._in_order([(int, ("x",), {}), *marks], threads, 41))
        remote = type(info.value.__cause__).__name__ == "_RemoteTraceback"
        assert remote == (threads > 1)
        # the calls already running finish; the rest never start
        assert len(list(tmp_path.iterdir())) < 10

    def test_error_from_the_calls_propagates(self, threads):
        def calls():
            yield int, ("7",), {}
            raise NumericalError("refused")

        with _deadline(60), pytest.raises(NumericalError, match="refused"):
            list(harness._in_order(calls(), threads, 2))
        assert multiprocessing.active_children() == []

    def test_close_mid_stream_leaves_no_workers(self, threads):
        calls = ((int, (str(i),), {}) for i in itertools.count())
        with _deadline(60):
            stream = harness._in_order(calls, threads, 4)
            assert next(stream) == 0
            assert len(multiprocessing.active_children()) == (0 if threads == 1 else threads)
            stream.close()
        assert multiprocessing.active_children() == []


# sha256 of to_csv(), one worker; a change that moves any digit of a
# report, or a row, or its order, changes the digest
_PINNED_DIGESTS = [
    (run_moment_check,
     ExperimentConfig(t=300.0, generations=2, levels=3, replicas=200, seed=11),
     "a09efe82efefe5216d1119a00dd709ba4c92f3a55ec5146317eb980bc8df99be"),
    (run_moment_check,
     ExperimentConfig(deterministic_n=300, generations=2, levels=2, replicas=200,
                      seed=12),
     "d49d7de20087e7dbcd6241832a5040c044bf2cad99a6367a4d57336911efbf40"),
    (run_moment_check,
     ExperimentConfig(t=300.0, generations=1, levels=2, replicas=200, seed=13),
     "88193b125748f0fa15f1cc867e047726b032d3b10faf18497e1f1b19a39b92b8"),
    (run_clt_check,
     ExperimentConfig(T=5.0, u_grid=(0.0, 0.5), generations=2, levels=2,
                      replicas=200, seed=14),
     "0bc46ce10afafa88d23ab4ffde8f3cdd209e9cd6410a2620fe9a3278c4ca10a3"),
    (run_clt_check,
     ExperimentConfig(T=5.0, u_grid=(0.0, 1.0), generations=1, levels=2,
                      replicas=200, seed=15),
     "992fb580867657dad3dc27b4db59b508d61ea1e3756dd8eecf360c9a3eb0e180"),
    (run_asymptotic_trend,
     ExperimentConfig(T_grid=(10.0, 15.0), generations=2, levels=2, prune=1e-6),
     "689c5df7d20cd5185c1e479eba02dba01e93f1c5e8f06edd6bf6abfa1e69b453"),
    (run_asymptotic_trend,
     ExperimentConfig(T_grid=(10.0, 12.0, 14.0), generations=3, levels=2),
     "4d8345deef0070beed66d3f37ecd9487bd9aefed2088f7f4d6df89fce0dad4c6"),
    # geometric: every row an unflagged diagnostic, no endpoint verdicts
    (run_asymptotic_trend,
     ExperimentConfig(family_kind="geometric", p=0.5, T_grid=(10.0, 14.0),
                      generations=2, levels=2),
     "ee9a30f938b8e345ba771e7714653fc55988a4fe3e32afe989b4adf775e2d0b5"),
    # the default t-grid: 20 log-spaced times from 10 to 1e5
    (run_depoissonization_check,
     ExperimentConfig(generations=2, levels=2),
     "a1b4074d904c3244700c1844154dedfdad90d25f3ab7dfd181bd1c356fc22362"),
    # t = 0 and 0.5 both compare against the binomial sum at 0 balls
    (run_depoissonization_check,
     ExperimentConfig(family_kind="finite", probs=(0.5, 0.3, 0.2),
                      t_grid=(0.0, 0.5, 3.0, 10.0), generations=2, levels=2),
     "a605c655744041286b59d7f3fab4d6657d0bdb08b8c46d54bb0b8128ed84ba2d"),
]


def test_report_digests_pinned():
    for runner, cfg, want in _PINNED_DIGESTS:
        csv = runner(replace(cfg, threads=1)).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == want, cfg


class TestCltCheck:
    def test_deterministic_n_is_ignored(self):
        # the fixed-n scheme is the moment check's; the clt check always
        # simulates the Poissonized scheme at e^(T + u)
        cfg = ExperimentConfig(T=2.0, u_grid=(0.0,), replicas=100, generations=1, levels=1)
        want = run_clt_check(cfg).to_csv()
        for threads in (1, 2):
            got = run_clt_check(replace(cfg, deterministic_n=5, threads=threads)).to_csv()
            assert got == want

    def test_structure_and_pass(self):
        cfg = ExperimentConfig(
            T=7.0, u_grid=(0.0, 1.0), generations=2, levels=2, replicas=400, seed=606
        )
        report = run_clt_check(cfg)
        _assert_report_well_formed(report)
        kinds = {c.target_kind for c in report.cells}
        assert {"exact", "limit", "normality"} <= kinds
        # limit-target rows are diagnostics, never flagged
        assert all(c.passed is None for c in report.cells if c.target_kind == "limit")
        # exact finite-T rows and normality rows are flagged
        assert all(c.passed is not None for c in report.cells if c.target_kind == "exact")
        assert report.passed

    def test_cross_generation_cells_present(self):
        cfg = ExperimentConfig(
            T=7.0, u_grid=(0.0,), generations=2, levels=2, replicas=200, seed=31
        )
        report = run_clt_check(cfg)
        cross = [c for c in report.cells if c.cell_id.startswith("cov_gens")]
        assert cross
        # exact finite-T covariance is the flagged target; the limit value 0
        # appears only in the separate limit_cov_gens diagnostic rows
        assert any(c.passed is not None for c in cross)
        limit_rows = [c for c in report.cells if c.cell_id.startswith("limit_cov_gens")]
        assert limit_rows and all(c.passed is None for c in limit_rows)
        assert all(c.target == 0.0 for c in limit_rows)


class TestAsymptoticTrend:
    def test_weibull_endpoints_improve(self):
        cfg = ExperimentConfig(T_grid=(10.0, 15.0), generations=2, levels=2, prune=1e-6)
        report = run_asymptotic_trend(cfg)
        _assert_report_well_formed(report)
        summaries = [c for c in report.cells if c.cell_id.endswith("endpoint_decreasing")]
        assert summaries and all(c.passed for c in summaries)
        assert report.passed

    def test_per_T_rows_are_diagnostic(self):
        cfg = ExperimentConfig(T_grid=(10.0, 15.0), generations=2, levels=1, prune=1e-6)
        report = run_asymptotic_trend(cfg)
        per_t = [c for c in report.cells if c.T is not None and c.passed is None]
        assert len(per_t) >= 2

    @pytest.mark.parametrize("grid", [(10.0, 10.0), (10.0, 15.0, 15.0), (15.0, 10.0),
                                      (10.0,), ()])
    def test_grid_must_strictly_increase(self, grid):
        with pytest.raises(ValidationError, match="strictly increasing"):
            run_asymptotic_trend(ExperimentConfig(T_grid=grid, generations=1, levels=1))

    def test_geometric_family_is_diagnostic_only(self):
        cfg = ExperimentConfig(
            family_kind="geometric", p=0.5, T_grid=(10.0, 14.0), generations=1, levels=1
        )
        report = run_asymptotic_trend(cfg)
        assert report.cells
        assert all(c.passed is None for c in report.cells)
        assert report.pass_fraction == 1.0  # nothing flagged


class TestDepoissonizationCheck:
    def test_gap_within_proof_constant(self):
        cfg = ExperimentConfig(
            t_grid=(10.0, 100.0, 1000.0), generations=2, levels=2, prune=1e-7
        )
        report = run_depoissonization_check(cfg)
        _assert_report_well_formed(report)
        assert report.passed
        for cell in report.cells:
            # target column records the proof constant for the level
            assert cell.empirical + cell.se <= cell.target + 1e-12

    def test_default_grid_csv_fields_are_numbers(self):
        # the default t-grid holds numpy scalars; the CSV must not show them
        report = run_depoissonization_check(
            ExperimentConfig(generations=1, levels=1)
        )
        lines = report.to_csv().splitlines()
        header = lines[0].split(",")
        numeric = ("j", "l", "T", "empirical", "se", "target", "pass")
        assert len(lines) == 21
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            for name in numeric:
                float(row[name])

    def test_non_finite_times_rejected(self):
        with pytest.raises(ValidationError):
            run_depoissonization_check(ExperimentConfig(t_grid=(10.0, math.nan)))
        with pytest.raises(ValidationError):
            run_moment_check(ExperimentConfig(t=math.inf, replicas=100))

    def test_finite_family_gap_vanishes(self):
        cfg = ExperimentConfig(
            family_kind="finite",
            probs=(0.5, 0.3, 0.2),
            t_grid=(1e3, 1e4),
            generations=1,
            levels=2,
        )
        report = run_depoissonization_check(cfg)
        assert report.passed
        last = [c for c in report.cells if c.T == 1e4]
        assert last and all(c.empirical <= 0.01 for c in last)
