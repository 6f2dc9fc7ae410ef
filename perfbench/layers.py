"""Per-layer metrics from the span files that ``trace_cli.py`` writes.

A layer's time is the summed duration of its spans; its self time is that
minus the time its direct child spans cover (children run one after another
in the traced single-worker process, so their durations add up).
"""

from __future__ import annotations

import json
from collections import defaultdict

from trace_cli import GAUSSIAN_FUNCTIONS, KERNEL_FUNCTIONS, MOMENT_FUNCTIONS


class _Layer:
    __slots__ = ("calls", "s", "self_s", "work", "keys")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.work = 0
        self.keys = set()


def aggregate(span_paths) -> dict:
    """span name -> _Layer, summed over every span file."""
    layers = defaultdict(_Layer)
    for path in span_paths:
        with open(path) as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name_id, start, end, _, work) in enumerate(spans):
            layer = layers[names[name_id]]
            layer.calls += 1
            layer.s += end - start
            layer.self_s += end - start - child_s[i]
            if isinstance(work, list):
                layer.work += work[0]
                layer.keys.add(work[1])
            elif work is not None:
                layer.work += work
    return layers


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(span_paths, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Metric name -> (value, unit).  Ratios over zero calls read 0."""
    get = aggregate(span_paths).__getitem__
    out = {}

    sim = get("scheme.simulate")
    out["scheme.simulate.calls"] = (sim.calls, "count")
    out["scheme.simulate.s"] = (sim.s, "s")
    out["scheme.replicas_per_s"] = (_ratio(sim.calls, sim.s), "1/s")
    out["scheme.balls"] = (sim.work, "count")
    out["scheme.balls_per_s"] = (_ratio(sim.work, sim.s), "1/s")

    boxes = seconds = calls = distinct = 0
    for fn in MOMENT_FUNCTIONS + ("enumerate_boxes",):
        layer = get(f"moments.{fn}")
        out[f"moments.{fn}.calls"] = (layer.calls, "count")
        out[f"moments.{fn}.s"] = (layer.s, "s")
        out[f"moments.{fn}.boxes"] = (layer.work, "count")
        out[f"moments.{fn}.distinct_ratio"] = (_ratio(len(layer.keys), layer.calls), "ratio")
        if fn in MOMENT_FUNCTIONS:
            boxes += layer.work
            seconds += layer.s
            calls += layer.calls
            distinct += len(layer.keys)
    out["moments.boxes_per_s"] = (_ratio(boxes, seconds), "1/s")
    out["moments.distinct_ratio"] = (_ratio(distinct, calls), "ratio")

    tail = get("weights.tail_index")
    out["weights.tail_index.calls"] = (tail.calls, "count")
    out["weights.tail_index.s"] = (tail.s, "s")

    for fn in KERNEL_FUNCTIONS:
        layer = get(f"kernels.{fn}")
        out[f"kernels.{fn}.calls"] = (layer.calls, "count")
        out[f"kernels.{fn}.s"] = (layer.s, "s")
        out[f"kernels.{fn}.elements"] = (layer.work, "count")
        out[f"kernels.{fn}.ns_per_element"] = (_ratio(1e9 * layer.s, layer.work), "ns")

    harness = get("harness")
    out["harness.s"] = (harness.s, "s")
    out["harness.self_s"] = (harness.self_s, "s")

    for fn in ("closed_cov", "quadrature_cov"):
        layer = get(f"limits.{fn}")
        out[f"limits.{fn}.calls"] = (layer.calls, "count")
        out[f"limits.{fn}.s"] = (layer.s, "s")

    for fn in GAUSSIAN_FUNCTIONS:
        out[f"gaussian.{fn}.s"] = (get(f"gaussian.{fn}").s, "s")
    out["gaussian.rows"] = (get("gaussian.draws_to_csv_rows").work, "count")

    cli = get("cli")
    out["cli.s"] = (cli.s, "s")
    out["cli.self_s"] = (cli.self_s, "s")

    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return out
