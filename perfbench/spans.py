"""In-memory span tracing around sparsebeam's layer entry points.

The tracer patches the names that `sparsebeam.bench` and
`sparsebeam.graph` look up at call time (plus `SparseMaskSet.union_rows`)
with wrappers that record a span each: name, start, end and the index
of the enclosing span.  Nothing in `src/` is edited; uninstalling puts
the original objects back, so untraced rounds pay no wrapper cost.

Counts that the layers do not report themselves are taken in hooks that
run after the wrapped call returns, inside a `trace.hook` span.  Spans
named `trace.*` (hooks and the clock's reference loop) are subtracted
from every span around them, so they are never charged to a layer.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from sparsebeam import beamforming, bench, graph, masks

# Generated resource elements the sweep protocol scores per draw: the
# pilot (first symbol) and the target (last symbol) at the centre subcarrier.
_SCORED_RES_PER_DRAW = 2

# Every per-layer metric the traced run reports, with its unit.
UNITS = {
    "bench.run_sweep.s": "s",
    "bench.self_s": "s",
    "bench.realizations": "count",
    "bench.resampled_frac": "frac",
    "bench.opt_sum_rate_20db_bps": "bps/Hz",
    "channel.generate.s": "s",
    "channel.generate.calls": "count",
    "channel.estimation_error.s": "s",
    "channel.used_frac": "frac",
    "beamforming.zf.s": "s",
    "beamforming.mmse.s": "s",
    "beamforming.score.s": "s",
    "beamforming.optimize.s": "s",
    "beamforming.optimize.calls": "count",
    "beamforming.optimize.iterations": "count",
    "beamforming.iters_to_best_frac": "frac",
    "beamforming.opt_gap_20db_bps": "bps/Hz",
    "beamforming.ceiling_violations": "count",
    "graph.union_adjacency.s": "s",
    "graph.hop_diameter.directed.s": "s",
    "graph.hop_diameter.undirected.s": "s",
    "graph.bfs_sources": "count",
    "graph.edges.directed": "count",
    "graph.edges.undirected": "count",
    "graph.distinct_source_frac": "frac",
    "graph.self_s": "s",
    "masks.build.s": "s",
    "masks.build.calls": "count",
    "masks.nnz": "count",
    "masks.union_rows.s": "s",
    "attention.forward.s": "s",
    "attention.forward.calls": "count",
    "attention.gathered_keys": "count",
    "attention.forward.flops_computed": "flop",
    "attention.forward.bytes_computed": "B",
    "attention.forward.gflops": "GFLOP/s",
    "attention.empty_rows": "count",
    "attention.oracle_max_dev": "abs",
    "attention.gradient_check.s": "s",
    "attention.gradient_check.max_rel_err": "frac",
    "trace.overhead_frac": "frac",
}

_SUM_RATE = beamforming.sum_rate
_MMSE = beamforming.mmse_combiner


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self.units = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, name, fn, hook=None):
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return run(self, label, fn, *args, hook=hook, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch the layer entry points; pair with `uninstall`."""
        patches = [
            (bench, "_generate_true", "channel.generate", _after_generate),
            (bench, "add_estimation_error", "channel.estimation_error", None),
            (bench, "zf_combiner", "beamforming.zf", None),
            (bench, "mmse_combiner", "beamforming.mmse", None),
            (bench, "optimize_sum_rate", "beamforming.optimize", _after_optimize),
            (bench, "sum_rate", "beamforming.score", None),
            (bench, "sinr", "beamforming.score", None),
            (graph, "build_doppler_masks", "masks.build", after_build),
            (graph, "union_adjacency", "graph.union_adjacency", _after_union),
            (graph, "hop_diameter", _hop_label, _after_hop),
            (masks.SparseMaskSet, "union_rows", "masks.union_rows", None),
        ]
        for owner, attr, name, hook in patches:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path, probes: dict) -> None:
        """Write this run's spans, and those of the probe tracers by workload."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "probes": {name: tr.spans for name, tr in probes.items()},
                },
                fh,
            )


def run(tr: Tracer | None, name: str, fn, *args, hook=None, **kwargs):
    """Call `fn`; under a tracer, inside span `name`, then run `hook`
    on the result inside a `trace.hook` span."""
    if tr is None:
        return fn(*args, **kwargs)
    out = tr.call(name, fn, *args, **kwargs)
    if hook is not None:
        tr.call("trace.hook", hook, tr, out, *args, **kwargs)
    return out


def _hop_label(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "undirected")
    return f"graph.hop_diameter.{mode}"


def _after_generate(tr, grid, *args, **kwargs):
    tr.add("channel.generate.calls")
    tr.add("channel.res_generated", grid.shape[0] * grid.shape[1])
    tr.add("channel.res_scored", _SCORED_RES_PER_DRAW)


def _after_optimize(tr, result, channel_est, channel_true, noise_power, *args, **kwargs):
    """Optimizer counts plus the gap to the closed-form ceiling: the MMSE
    combiner of the true channel maximizes the sum rate the optimizer
    climbs (rates are scale-invariant per row, so no projection)."""
    trace = np.asarray(result.trace)
    iterations = trace.size - 1
    tr.add("beamforming.optimize.calls")
    tr.add("beamforming.optimize.iterations", iterations)
    if iterations:
        tr.add("beamforming.iters_to_best", int(np.flatnonzero(trace == trace[-1])[0]) / iterations)
    genie = _SUM_RATE(_MMSE(channel_true, noise_power), channel_true, noise_power)
    if result.rate > genie + 1e-12:
        tr.add("beamforming.ceiling_violations")
    if math.isclose(-10.0 * math.log10(noise_power), 20.0, abs_tol=1e-9):
        tr.add("beamforming.gap_20db_sum", genie - result.rate)
        tr.add("beamforming.gap_20db_calls")


def after_build(tr, maskset, *args, **kwargs):
    tr.add("masks.build.calls")
    tr.add("masks.nnz", sum(int(maskset.row_lengths(h).sum()) for h in range(maskset.head_count)))


def _after_union(tr, csr, maskset, heads=None, undirected=False):
    indptr, indices = csr
    tr.add("graph.edges.undirected" if undirected else "graph.edges.directed", indices.size)
    if not undirected:
        rows = {indices[a:b].tobytes() for a, b in zip(indptr[:-1], indptr[1:])}
        tr.add("graph.distinct_rows", len(rows))


def _after_hop(tr, result, maskset, mode="undirected", *args, **kwargs):
    tr.add("graph.bfs_sources", result.source_count)
    tr.add(f"graph.bfs_sources.{mode}", result.source_count)


def _span_seconds(tr: Tracer) -> tuple[dict, dict]:
    """Total and self seconds per span name.

    A span's total excludes the `trace.*` spans beneath it; its self
    time is its duration minus its direct children, those included.
    """
    overhead = [0.0] * len(tr.spans)
    children = [0.0] * len(tr.spans)
    for name, start, end, parent in tr.spans:
        if parent >= 0:
            children[parent] += end - start
        if name.startswith("trace."):
            while parent >= 0:
                overhead[parent] += end - start
                parent = tr.spans[parent][3]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for idx, (name, start, end, _) in enumerate(tr.spans):
        total[name] = total.get(name, 0.0) + (end - start) - overhead[idx]
        own[name] = own.get(name, 0.0) + (end - start) - children[idx]
    return total, own


def _ratio(num, den):
    return None if num is None or not den else num / den


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced run.

    Times are wall seconds per workload unit, except the `masks.build`
    metrics, which cover the run's one input set-up.  A value is None
    when the run never reached that layer.
    """
    total, own = _span_seconds(tr)
    c = tr.counts
    units = tr.units

    def per_unit(*names):
        hit = [total[n] for n in names if n in total]
        return _ratio(sum(hit), units) if hit else None

    def self_per_unit(prefix):
        hit = [v for n, v in own.items() if n.startswith(prefix)]
        return _ratio(sum(hit), units) if hit else None

    def count(key, den=None):
        if key not in c:
            return None
        return c[key] / den if den is not None else c[key]

    opt_calls = c.get("beamforming.optimize.calls")
    forwards = c.get("attention.forward.calls")
    forward_s = total.get("attention.forward")
    return {
        "bench.run_sweep.s": per_unit("bench.run_sweep"),
        "bench.self_s": self_per_unit("bench."),
        "bench.realizations": count("bench.realizations", units),
        "bench.resampled_frac": _ratio(c.get("bench.resampled"), c.get("bench.realizations", 0) + c.get("bench.resampled", 0)),
        "channel.generate.s": per_unit("channel.generate"),
        "channel.generate.calls": count("channel.generate.calls", units),
        "channel.estimation_error.s": per_unit("channel.estimation_error"),
        "channel.used_frac": _ratio(c.get("channel.res_scored"), c.get("channel.res_generated")),
        "beamforming.zf.s": per_unit("beamforming.zf"),
        "beamforming.mmse.s": per_unit("beamforming.mmse"),
        "beamforming.score.s": per_unit("beamforming.score"),
        "beamforming.optimize.s": per_unit("beamforming.optimize"),
        "beamforming.optimize.calls": count("beamforming.optimize.calls", units),
        "beamforming.optimize.iterations": _ratio(c.get("beamforming.optimize.iterations"), opt_calls),
        "beamforming.iters_to_best_frac": _ratio(c.get("beamforming.iters_to_best"), opt_calls),
        "beamforming.opt_gap_20db_bps": _ratio(c.get("beamforming.gap_20db_sum"), c.get("beamforming.gap_20db_calls")),
        "beamforming.ceiling_violations": c.get("beamforming.ceiling_violations", 0.0) if opt_calls else None,
        "graph.union_adjacency.s": per_unit("graph.union_adjacency"),
        "graph.hop_diameter.directed.s": per_unit("graph.hop_diameter.directed"),
        "graph.hop_diameter.undirected.s": per_unit("graph.hop_diameter.undirected"),
        "graph.bfs_sources": count("graph.bfs_sources", units),
        "graph.edges.directed": count("graph.edges.directed", units),
        "graph.edges.undirected": count("graph.edges.undirected", units),
        "graph.distinct_source_frac": _ratio(c.get("graph.distinct_rows"), c.get("graph.bfs_sources.directed")),
        "graph.self_s": self_per_unit("graph."),
        "masks.build.s": total.get("masks.build"),
        "masks.build.calls": count("masks.build.calls"),
        "masks.nnz": count("masks.nnz"),
        "masks.union_rows.s": per_unit("masks.union_rows"),
        "attention.forward.s": _ratio(forward_s, forwards),
        "attention.forward.calls": count("attention.forward.calls", units),
        "attention.gathered_keys": count("attention.gathered_keys", forwards),
        "attention.forward.flops_computed": count("attention.flops", forwards),
        "attention.forward.bytes_computed": count("attention.bytes", forwards),
        "attention.forward.gflops": _ratio(_ratio(c.get("attention.flops"), forward_s), 1e9),
        "attention.empty_rows": count("attention.empty_rows", forwards),
    }
