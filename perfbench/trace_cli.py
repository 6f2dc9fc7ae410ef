"""Run one nested-karlin CLI command in this process with spans recorded
around the calls into each module's public functions.

    python3 perfbench/trace_cli.py SPANS.json -- verify moment --threads 1 ...

The package under ``src/`` is left untouched: the functions are wrapped where
their callers bind them (``nested_karlin.harness.mean_K``,
``nested_karlin.moments.psi``, ``WeightFamily.tail_index`` on the class, the
CLI's verify-runner table, ...).  Spans stay in memory and are written once,
when the command ends, as ``{"names": [...], "spans": [[name, start, end,
parent, extra], ...]}``: ``name`` indexes ``names``, times are
``perf_counter`` seconds, ``parent`` is the index of the enclosing span or -1,
and ``extra`` holds the span's work count (boxes, elements, balls, rows) or,
for exact moments, ``[boxes, argument key]``.  The exit code is the CLI's.

Run it with one worker (``--threads 1``) so every span lands in this process.
"""

from __future__ import annotations

import json
import sys
import time

MOMENT_FUNCTIONS = (
    "mean_K",
    "mean_K_star",
    "mean_K_binomial",
    "cov_K_same",
    "cov_K_star_same",
    "cov_K_cross_level",
    "cov_K_cross_gen",
)
KERNEL_FUNCTIONS = ("psi", "poisson_tail", "binomial_tail")
GAUSSIAN_FUNCTIONS = ("build_grid", "sample", "sample_Z1_whitenoise", "draws_to_csv_rows")


class Recorder:
    """In-memory span store; ``wrap`` returns a traced stand-in for ``fn``."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self._ids: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn, work=None):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        text = json.dumps({"names": self.names, "spans": self.spans},
                          separators=(",", ":"))
        with open(path, "w") as fh:
            fh.write(text)


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _moment_work(args, kwargs, result):
    key = repr(args) + repr(sorted(kwargs.items()))
    return [int(result.boxes_enumerated), key]


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer at their call sites."""
    from nested_karlin import cli, gaussian, harness, limits, moments, weights

    for module in (harness, cli):
        for fn in MOMENT_FUNCTIONS:
            if hasattr(module, fn):
                setattr(module, fn, rec.wrap(f"moments.{fn}", getattr(module, fn),
                                             _moment_work))
    moments.enumerate_boxes = rec.wrap(
        "moments.enumerate_boxes", moments.enumerate_boxes,
        lambda a, k, r: [int(r.boxes), repr(a) + repr(sorted(k.items()))],
    )
    # psi(l, x), poisson_tail(l, m), binomial_tail(n, p, l): the array is
    # the second argument of each.
    for fn in KERNEL_FUNCTIONS:
        setattr(moments, fn, rec.wrap(f"kernels.{fn}", getattr(moments, fn),
                                      lambda a, k, r: _size(a[1])))
    for sim in ("simulate_poissonized", "simulate_deterministic"):
        setattr(harness, sim, rec.wrap("scheme.simulate", getattr(harness, sim),
                                       lambda a, k, r: int(r.balls[-1])))
    weights.WeightFamily.tail_index = rec.wrap(
        "weights.tail_index", weights.WeightFamily.tail_index
    )
    for module in (harness, gaussian, cli):
        module.closed_cov = rec.wrap("limits.closed_cov", module.closed_cov)
    limits.quadrature_cov = rec.wrap("limits.quadrature_cov", limits.quadrature_cov)
    for fn in GAUSSIAN_FUNCTIONS:
        work = (lambda a, k, r: len(r)) if fn == "draws_to_csv_rows" else None
        setattr(cli, fn, rec.wrap(f"gaussian.{fn}", getattr(cli, fn), work))
    for check, runner in list(cli._VERIFY_RUNNERS.items()):
        cli._VERIFY_RUNNERS[check] = rec.wrap("harness", runner)


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_cli.py SPANS.json -- <nested-karlin arguments>",
              file=sys.stderr)
        return 1
    spans_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    install(rec)
    from nested_karlin import cli

    try:
        code = rec.wrap("cli", cli.main)(cli_args)
    finally:
        rec.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
