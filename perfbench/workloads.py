"""The four benchmark workloads and their correctness checks.

Each workload builds its inputs from the seed in `setup`, runs units in
`run_round` (timing each on the `clock.UnitClock` it is given and
returning one correctness flag per unit), and runs its out-of-loop
gates in `finish`.  Only public entry points of the
sparsebeam modules are called; `spans.run` puts a span around the
benchmark's own calls when a tracer is given.  See README.md for why
each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

import clock
import spans
from sparsebeam import (
    EmbeddingBlock,
    GridSpec,
    SweepConfig,
    build_doppler_masks,
    connectivity_report,
    dense_masked_oracle,
    export_report,
    gradient_check,
    run_sweep,
    sparse_attention_forward,
)

# Realizations per (velocity, SNR) cell; the library default is 500.
SWEEP_REALIZATIONS = 8

# Hop diameters (directed, undirected) measured by exact all-pairs BFS;
# None marks a disconnected directed graph.  The benchmark's own copy of
# the values the acceptance suite locks.
LOCKED_DIAMETERS = {
    (14, 48, 2, 2.0): (3, 3),
    (4, 6, 2, 1.0): (3, 2),
    (8, 8, 3, 2.0): (4, 3),
    (5, 7, 2, 4.0): (None, 2),
    (6, 5, 4, 2.0): (3, 3),
    (7, 11, 3, 1.5): (3, 3),
    (4, 4, 2, 2.0): (3, 2),
    (2, 3, 2, 2.0): (None, 2),
    (1, 9, 2, 2.0): (None, 2),
    (9, 1, 2, 2.0): (2, 1),
    (3, 5, 1, 1.0): (1, 1),
}

ATTENTION_GRID = GridSpec(symbols=64, subcarriers=64, heads=2, time_bias=2.0)
ATTENTION_MODEL_DIM = 64
ORACLE_GRID = GridSpec(symbols=14, subcarriers=48, heads=2, time_bias=2.0)
ORACLE_TOL = 1e-6
# gradient_check's relative error has no absolute floor above 1e-8, so on
# random blocks with near-zero gradient entries central differences alone
# exceed the tolerance (8 of 300 seeds on this grid).  The gate therefore
# uses the acceptance suite's first desk-scale instance, not the seed.
GRADIENT_GRID = GridSpec(symbols=4, subcarriers=6, heads=2, time_bias=2.0)
GRADIENT_DIM = 8
GRADIENT_SEED = 0
GRADIENT_TOL = 1e-5
SPOT_CHECK_ROWS = 8
SPOT_CHECK_TOL = 1e-9


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _built_masks(grid, tr):
    return spans.run(tr, "masks.build", build_doppler_masks, grid, hook=spans.after_build)


class SweepWorkload:
    """`run_sweep` on the default axes; one unit is one (velocity, SNR) cell."""

    reference = staticmethod(clock.interpreter_reference)

    def __init__(self, name: str, methods: tuple):
        self.name = name
        self.methods = methods

    def setup(self, seed: int, tr=None) -> dict:
        return {"seed": seed, "first": None, "opt_below_zf_sweeps": 0}

    def _config(self, state, index) -> SweepConfig:
        return SweepConfig(
            realizations=SWEEP_REALIZATIONS,
            methods=self.methods,
            seed=_derived_seed(state["seed"], index),
        )

    def run_round(self, state, index, timer, tr=None) -> list[bool]:
        config = self._config(state, index)
        timer.start()
        result = spans.run(
            tr, "bench.run_sweep", run_sweep, config, timestamp="perfbench",
            progress=lambda velocity_range, snr_db: timer.split(True),
        )
        sweep_ok = _sweep_holds(result, config)
        if "opt" in self.methods:
            state["opt_below_zf_sweeps"] += _opt_below_zf_at_20db(result)
        cells = {}
        for p in result.points:
            cells.setdefault((p.v_min, p.snr_db), []).append(p)
        if tr is not None:
            for points in cells.values():
                tr.add("bench.realizations", points[0].realizations)
                tr.add("bench.resampled", points[0].resampled)
        if index == 0:
            state["first"] = result
        return [sweep_ok and all(_finite_point(p) for p in points) for points in cells.values()]

    def finish(self, state, out_dir) -> tuple[list, dict, dict]:
        """CSV hash and 20 dB `opt` rate of the run's first sweep.

        Both depend only on the seed, so two runs of one commit can be
        compared for byte identity."""
        path = out_dir / f"{self.name}-seed{state['seed']}-sweep0.csv"
        export_report(state["first"], "csv", path)
        info = {"csv_sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        extra = {}
        if "opt" in self.methods:
            rates = [p.mean_sum_rate for p in state["first"].points if p.method == "opt" and p.snr_db == 20.0]
            info["opt_sum_rate_20db_bps"] = extra["bench.opt_sum_rate_20db_bps"] = float(np.mean(rates))
            info["opt_below_zf_20db_sweeps"] = state["opt_below_zf_sweeps"]
        return [], info, extra


def _finite_point(p) -> bool:
    return math.isfinite(p.mean_sum_rate) and math.isfinite(p.stderr) and all(map(math.isfinite, p.per_ue_mean_sinr))


def _sweep_holds(result, config) -> bool:
    """Inequalities every sweep must satisfy at any realization count.

    MMSE >= ZF within three standard errors at SNR <= 0 dB (the
    acceptance suite's low-SNR inequality), and `opt` >= MMSE in every
    cell: the optimizer starts from the MMSE combiner of the same
    estimate and keeps its best iterate, so per realization its rate can
    only match or beat MMSE's.
    """
    by_key = {(p.method, p.snr_db, p.v_min): p for p in result.points}
    for v_min, _ in config.velocity_ranges:
        for snr in config.snr_db_list:
            zf, mm = by_key[("zf", snr, v_min)], by_key[("mmse", snr, v_min)]
            if snr <= 0.0 and mm.mean_sum_rate < zf.mean_sum_rate - 3.0 * math.hypot(zf.stderr, mm.stderr):
                return False
            if "opt" in config.methods and by_key[("opt", snr, v_min)].mean_sum_rate < mm.mean_sum_rate:
                return False
    return True


def _opt_below_zf_at_20db(result) -> bool:
    """The acceptance suite's high-SNR inequality, `opt` >= ZF - 1e-3 at
    20 dB, fails for some velocity range.  That inequality is stated for
    500 realizations per cell; see README.md for why it is reported, not
    gated, at this sweep size."""
    by_key = {(p.method, p.snr_db, p.v_min): p for p in result.points}
    return any(
        by_key[("opt", 20.0, v)].mean_sum_rate < by_key[("zf", 20.0, v)].mean_sum_rate - 1e-3
        for v in {p.v_min for p in result.points}
    )


class ConnectivityWorkload:
    """`connectivity_report` on every locked grid; one unit is one pass.

    The reports are deterministic, so the seed only shuffles grid order.
    """

    name = "connectivity"
    reference = staticmethod(clock.interpreter_reference)

    def setup(self, seed: int, tr=None) -> dict:
        keys = list(LOCKED_DIAMETERS)
        order = np.random.default_rng(seed).permutation(len(keys))
        cases = []
        for i in order:
            grid = GridSpec(*keys[i])
            cases.append((grid, _built_masks(grid, tr), LOCKED_DIAMETERS[keys[i]]))
        return {"seed": seed, "cases": cases}

    def run_round(self, state, index, timer, tr=None) -> list[bool]:
        cases = state["cases"]
        ok = True
        timer.start()
        for n, (grid, maskset, expected) in enumerate(cases):
            report = spans.run(tr, "graph.connectivity_report", connectivity_report, grid, maskset=maskset)
            timer.split(n == len(cases) - 1)
            ok = ok and (report.directed.diameter, report.undirected.diameter) == expected
        return [ok]

    def finish(self, state, out_dir) -> tuple[list, dict, dict]:
        return [], {}, {}


class AttentionWorkload:
    """`sparse_attention_forward` on the 64x64 Doppler masks with fresh
    seeded embeddings per unit; one unit is one forward pass."""

    name = "attention"
    reference = staticmethod(clock.memory_reference)

    def setup(self, seed: int, tr=None) -> dict:
        maskset = _built_masks(ATTENTION_GRID, tr)
        head_dim = ATTENTION_MODEL_DIM // ATTENTION_GRID.heads
        nnz = sum(int(maskset.row_lengths(h).sum()) for h in range(maskset.head_count))
        tokens = ATTENTION_GRID.tokens
        return {
            "seed": seed,
            "masks": maskset,
            "head_dim": head_dim,
            "nnz": nnz,
            # Work the mask defines, counted analytically: q.k and w*v
            # multiply-adds per attended key; K and V rows gathered per
            # attended key, plus reading Q and writing the output once.
            "flops": 4 * head_dim * nnz,
            "bytes": 8 * (2 * head_dim * nnz + 2 * tokens * ATTENTION_MODEL_DIM),
        }

    def run_round(self, state, index, timer, tr=None) -> list[bool]:
        rng = np.random.default_rng([state["seed"], index])
        shape = (ATTENTION_GRID.heads, ATTENTION_GRID.tokens, state["head_dim"])
        block = EmbeddingBlock(rng.standard_normal(shape), rng.standard_normal(shape), rng.standard_normal(shape))
        timer.start()
        result = spans.run(tr, "attention.forward", sparse_attention_forward, block, state["masks"])
        timer.split(True)
        if tr is not None:
            tr.add("attention.forward.calls")
            tr.add("attention.gathered_keys", state["nnz"])
            tr.add("attention.flops", state["flops"])
            tr.add("attention.bytes", state["bytes"])
            tr.add("attention.empty_rows", result.empty_row_count)
        return [_spot_check(block, state["masks"], result.output, rng)]

    def finish(self, state, out_dir) -> tuple[list, dict, dict]:
        """Dense-oracle and finite-difference gates, outside the timed loop."""
        oracle_masks = build_doppler_masks(ORACLE_GRID)
        block = EmbeddingBlock.random(ORACLE_GRID.tokens, ATTENTION_MODEL_DIM, ORACLE_GRID.heads, seed=state["seed"])
        deviation = float(
            np.abs(sparse_attention_forward(block, oracle_masks).output - dense_masked_oracle(block, oracle_masks).output).max()
        )
        desk = EmbeddingBlock.random(GRADIENT_GRID.tokens, GRADIENT_DIM, GRADIENT_GRID.heads, seed=GRADIENT_SEED)
        start = time.perf_counter()
        grad_err = gradient_check(desk, build_doppler_masks(GRADIENT_GRID))
        grad_s = time.perf_counter() - start
        checks = [("attention.oracle", deviation <= ORACLE_TOL), ("attention.gradient", grad_err <= GRADIENT_TOL)]
        extra = {
            "attention.oracle_max_dev": deviation,
            "attention.gradient_check.s": grad_s,
            "attention.gradient_check.max_rel_err": grad_err,
        }
        return checks, {}, extra


def _spot_check(block, maskset, output, rng) -> bool:
    """Recompute a few (head, query) outputs directly from their mask rows."""
    if output.shape != (block.tokens, block.model_dim) or not np.isfinite(output).all():
        return False
    d = block.head_dim
    for head in range(block.heads):
        for query in rng.choice(block.tokens, size=SPOT_CHECK_ROWS, replace=False):
            keys = maskset.row(head, query)
            got = output[query, head * d : (head + 1) * d]
            if keys.size == 0:
                want = np.zeros(d)
            else:
                scores = block.keys[head][keys] @ block.queries[head][query] / math.sqrt(d)
                weights = np.exp(scores - scores.max())
                want = (weights / weights.sum()) @ block.values[head][keys]
            if np.abs(got - want).max() > SPOT_CHECK_TOL:
                return False
    return True


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("sweep_full", ("zf", "mmse", "opt")),
        SweepWorkload("sweep_linear", ("zf", "mmse")),
        ConnectivityWorkload(),
        AttentionWorkload(),
    )
}
