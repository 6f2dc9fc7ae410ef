"""End-to-end benchmark of the nested-karlin CLI.

    python3 perfbench/run.py --workload moment --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload is a fixed list of CLI commands
(WORKLOADS below, described in README.md).  Every command runs as a fresh
``python3 -m nested_karlin`` process with ``PYTHONPATH=src`` and
``--threads 2``; the seed goes to each command's ``--seed``.

``--trace 0`` measures set-up time (fresh interpreters that import the
package and build the weight family), then runs whole rounds of the
workload's commands until the next round would overrun ``--seconds`` (always
at least one), and reports the median round.  Both times are scaled to a
reference host speed measured meanwhile by ``speed.py`` (SpeedSampler).

``--trace 1`` runs one round as above, then the same round with one worker
through ``trace_cli.py``, and reports the per-layer split from the spans.

Round one's outputs go through the checks in ``checks.py``; every later or
traced round must reproduce them byte for byte.  An operation is one CLI
command; it fails when it exits non-zero, its verify summary does not say
``passed=True``, or its output is rejected.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 2, with no result, when the package is missing or cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

THREADS = 2
SETUP_PROBES = 3
COMMAND_TIMEOUT_S = 150.0
SPEED_PERIOD_S = 0.25
SPEED_MAX_CPUS = 4
# CPU seconds of one speed.py kernel at the reference speed: about the
# median on the machine README.md describes.
REFERENCE_KERNEL_S = 0.01
SETUP_PROBE = "import nested_karlin; nested_karlin.WeightFamily.weibull_like(0.5)"

FAMILY = ["--family", "weibull", "--alpha", "0.5"]
SAMPLE_LIMIT_U = [0.0, 0.25, 0.5, 0.75, 1.0]
WHITENOISE_U = [0.0, 0.5, 1.0]
WHITENOISE_MESH = dict(x_window=30.0, x_step=0.01, y_step=0.01)


@dataclass(frozen=True)
class Command:
    name: str
    args: list
    out: str
    # (checks module, output path, seed) -> list of errors.  The module is
    # imported only after every process has run: a child's peak RSS counts
    # its parent's size at spawn, and numpy and scipy would add 100 MB.
    check: Callable
    verify: bool = False  # writes a manifest and a passed=True/False summary

    def outputs(self) -> list:
        return [self.out, self.out + ".manifest"] if self.verify else [self.out]


def _verify(name: str, args: list) -> Command:
    return Command(
        f"verify_{name}", ["verify", name, *FAMILY, *args], f"{name}.csv",
        lambda c, out, seed: getattr(c, f"check_{name}")(out, f"{out}.manifest"),
        verify=True,
    )


def _csv(values: list) -> str:
    return ",".join(repr(v) for v in values)


WORKLOADS = {
    "moment": [
        _verify("moment", ["--t", "3000", "--generations", "2", "--levels", "3",
                           "--replicas", "2000", "--prune", "1e-9"]),
    ],
    "clt": [
        _verify("clt", ["--T", "8", "--u-grid", "0,0.5,1", "--generations", "2",
                        "--levels", "3", "--replicas", "4000", "--prune", "1e-9"]),
    ],
    "gap": [
        # --t-grid left at its default: 20 log-spaced times from 10 to 1e5.
        _verify("gap", ["--generations", "2", "--levels", "3", "--prune", "1e-9"]),
    ],
    "asymptotics": [
        _verify("trend", ["--T-grid", "10,15,20,25", "--generations", "2",
                          "--levels", "3", "--prune", "1e-9"]),
        Command("limits_table", ["limits", "table", "--max-l", "4"], "limits.csv",
                lambda c, out, seed: c.check_limits_table(out)),
        Command("sample_limit",
                ["sample", "limit", "--kind", "Z", "--levels", "3",
                 "--u-grid", _csv(SAMPLE_LIMIT_U), "--n", "100000"],
                "sample_limit.csv",
                lambda c, out, seed: c.check_sample_limit(
                    out, levels=3, u_grid=SAMPLE_LIMIT_U, seed=seed)),
        Command("sample_whitenoise",
                ["sample", "whitenoise", "--u-grid", _csv(WHITENOISE_U),
                 "--x-window", "30", "--x-step", "0.01", "--y-step", "0.01",
                 "--n", "20000"],
                "sample_whitenoise.csv",
                lambda c, out, seed: c.check_sample_whitenoise(
                    out, u_grid=WHITENOISE_U, seed=seed, **WHITENOISE_MESH)),
    ],
}


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def spawn(argv: list, stdout_path, stderr_path, env: dict) -> tuple:
    """Run one process to its end; return (exit code, wall seconds, peak RSS
    in MB of it and its waited-for descendants, from the kernel's rusage).
    A process still running after COMMAND_TIMEOUT_S is killed (exit -9)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > COMMAND_TIMEOUT_S:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Round:
    dir: Path
    start: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    codes: dict = field(default_factory=dict)
    stdout: dict = field(default_factory=dict)


def run_round(commands: list, seed: int, rundir: Path, env: dict, *,
              traced: bool = False) -> Round:
    """Run the commands once, in order; wall time is from the first start
    to the last exit."""
    rundir.mkdir(parents=True)
    rnd = Round(rundir)
    threads = 1 if traced else THREADS
    rnd.start = time.perf_counter()
    for cmd in commands:
        cli_args = [*cmd.args, "--seed", str(seed), "--threads", str(threads),
                    "--out", str(rundir / cmd.out)]
        if traced:
            argv = [sys.executable, str(HERE / "trace_cli.py"),
                    str(rundir / f"{cmd.name}.spans.json"), "--", *cli_args]
        else:
            argv = [sys.executable, "-m", "nested_karlin", *cli_args]
        stdout_path = rundir / f"{cmd.name}.stdout"
        code, _, rss = spawn(argv, stdout_path, rundir / f"{cmd.name}.stderr", env)
        rnd.codes[cmd.name] = code
        rnd.stdout[cmd.name] = stdout_path.read_text()
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, rss)
    rnd.wall_s = time.perf_counter() - rnd.start
    return rnd


class SpeedSampler:
    """One ``speed.py`` pinned to each CPU the benchmark may use (at most
    SPEED_MAX_CPUS).  A wall time times ``factor(start, end)`` is in seconds
    at the reference speed: the factor is REFERENCE_KERNEL_S times the mean
    over CPUs of the mean of 1/kernel time over that CPU's samples in
    [start, end], so wall x factor is the work done at the measured speed
    divided by the reference speed."""

    def __init__(self, workdir: Path, env: dict):
        cpus = sorted(os.sched_getaffinity(0))[:SPEED_MAX_CPUS]
        self.paths = [workdir / f"speed-{cpu}.txt" for cpu in cpus]
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(HERE / "speed.py"), str(path),
                 str(SPEED_PERIOD_S), str(cpu)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, cwd=ROOT,
            )
            for cpu, path in zip(cpus, self.paths)
        ]
        deadline = time.perf_counter() + 60.0
        while not all(self._samples(path) for path in self.paths):
            if (any(p.poll() is not None for p in self.procs)
                    or time.perf_counter() > deadline):
                self.stop()
                raise RuntimeError("speed samplers did not start")
            time.sleep(0.01)

    @staticmethod
    def _samples(path: Path) -> list:
        """(end time, kernel seconds) pairs from the complete lines."""
        if not path.exists():
            return []
        lines = path.read_text().split("\n")[:-1]
        return [tuple(map(float, line.split())) for line in lines]

    def factor(self, start: float, end: float) -> float:
        speeds = []
        for path in self.paths:
            inside = [k for t, k in self._samples(path) if start <= t <= end]
            if not inside:
                raise RuntimeError(f"no speed sample in a {end - start:.2f} s interval")
            speeds.append(statistics.mean(1.0 / k for k in inside))
        return REFERENCE_KERNEL_S * statistics.mean(speeds)

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()


def setup_times(env: dict, probes: int) -> list:
    """Wall time of ``probes`` fresh interpreters that import the package and
    build the weight family, after one unmeasured run that fills the bytecode
    and file caches.  Exits 2 when the package cannot be imported."""
    times = []
    for i in range(probes + 1):
        code, wall, _ = spawn([sys.executable, "-c", SETUP_PROBE],
                              os.devnull, os.devnull, env)
        if code != 0:
            print(f"error: importing nested_karlin failed (exit {code})", file=sys.stderr)
            raise SystemExit(2)
        if i:
            times.append(wall)
    return times


# ---------------------------------------------------------------------------
# verdicts


def judge(commands: list, rounds: list, seed: int) -> dict:
    """Operations attempted and failed over all rounds.  A command in a later
    round takes round one's verdict when its outputs are byte-identical to
    round one's; outputs that differ break determinism, which makes the run
    not ``correct``."""
    import checks

    first = rounds[0]
    passed = {}
    result = {"correct": True, "attempted": 0, "failed": 0}
    for rnd in rounds:
        for cmd in commands:
            code = rnd.codes[cmd.name]
            if cmd.verify:
                errors = checks.check_verify_summary(code, rnd.stdout[cmd.name])
            else:
                errors = [f"exit code {code}"] if code else []
            if not errors and rnd is first:
                errors = cmd.check(checks, first.dir / cmd.out, seed)
                passed[cmd.name] = not errors
            elif not errors:
                errors = checks.compare_outputs(first.dir, rnd.dir, cmd.outputs())
                if errors:
                    result["correct"] = False
                elif not passed.get(cmd.name):
                    errors = ["same output as round one, which was rejected"]
            result["attempted"] += 1
            if errors:
                result["failed"] += 1
                print(f"{rnd.dir.name} {cmd.name}: FAILED", file=sys.stderr)
                for line in errors[:5]:
                    print(f"  {line}", file=sys.stderr)
                if len(errors) > 5:
                    print(f"  ... and {len(errors) - 5} more", file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# runs


def timed_run(commands: list, seed: int, seconds: int, workdir: Path) -> tuple:
    env = child_env()
    speed = SpeedSampler(workdir, env)
    try:
        setup_start = time.perf_counter()
        setup = setup_times(env, SETUP_PROBES)
        setup_factor = speed.factor(setup_start, time.perf_counter())
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(commands, seed, workdir / f"round{len(rounds) + 1}", env))
            if time.perf_counter() - start + rounds[-1].wall_s > seconds:
                break
        walls = [r.wall_s * speed.factor(r.start, r.start + r.wall_s) for r in rounds]
    finally:
        speed.stop()
    print(f"rounds={len(rounds)} measured wall={[round(r.wall_s, 3) for r in rounds]} "
          f"setup={[round(s, 3) for s in setup]}; at reference speed "
          f"wall={[round(w, 3) for w in walls]} setup factor={setup_factor:.3f}",
          file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup) * setup_factor, "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in rounds), "MB"),
    }
    return judge(commands, rounds, seed), metrics


def traced_run(commands: list, seed: int, workdir: Path) -> tuple:
    from layers import per_layer_metrics

    env = child_env()
    setup_times(env, 0)
    plain = run_round(commands, seed, workdir / "untraced", env)
    traced = run_round(commands, seed, workdir / "traced", env, traced=True)
    spans = [traced.dir / f"{c.name}.spans.json" for c in commands]
    metrics = per_layer_metrics([p for p in spans if p.exists()],
                                traced.wall_s, plain.wall_s)
    return judge(commands, [plain, traced], seed), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "nested_karlin" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'nested_karlin'}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=RUNS))
    try:
        commands = WORKLOADS[ns.workload]
        if ns.trace:
            result, metrics = traced_run(commands, ns.seed, workdir)
        else:
            result, metrics = timed_run(commands, ns.seed, ns.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
