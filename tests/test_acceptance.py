"""Acceptance suite: one test per exit criterion, at stated tolerances.

Each test prints a [PASS]/[FAIL] line (visible with -s or -rA) and
enforces its runtime budget.  Regression values (hop diameters) were
measured once by all-pairs BFS and are locked here.
"""

import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import j0

from sparsebeam import (
    SPEED_OF_LIGHT,
    EmbeddingBlock,
    GridSpec,
    OptimizerConfig,
    SweepConfig,
    attended_keys_histogram,
    build_doppler_masks,
    connectivity_report,
    dense_masked_oracle,
    equivalence_classes,
    export_report,
    gradient_check,
    lookahead_update,
    max_doppler,
    mmse_combiner,
    optimize_sum_rate,
    power_project,
    row_count_closedform,
    run_sweep,
    sinr,
    sparse_attention_forward,
    sum_rate,
    verify_partition,
    zf_combiner,
)
from sparsebeam.channel import DopplerConfig, OfdmConfig, generate_channel_batch


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail=""):
        elapsed = time.perf_counter() - self.start
        print(f"[PASS] {self.name}: {detail} ({elapsed:.2f}s, budget {self.seconds:g}s)")
        assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget ({elapsed:.1f}s)"


CANONICAL = GridSpec(symbols=14, subcarriers=48, heads=2, time_bias=2.0)

# hop diameters measured by exact all-pairs BFS, locked as regression
# values; None marks a disconnected directed graph
DIAMETER_REGRESSION = {
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
    # the canonical slot with 3 and 4 heads; at lambda 1 the lattice
    # heads are single subcarrier columns with many empty rows
    (14, 48, 3, 1.0): (None, 4),
    (14, 48, 3, 2.0): (3, 3),
    (14, 48, 3, 4.0): (4, 3),
    (14, 48, 4, 1.0): (None, None),
    (14, 48, 4, 2.0): (4, 4),
    (14, 48, 4, 4.0): (5, 4),
}

# the same, on the 4096-token grid the attention benchmark uses, with 2
# and 3 heads (still exact: at the default BFS cap every token is a source)
LARGE_DIAMETER_REGRESSION = {(64, 64, 2, 2.0): (33, 17), (64, 64, 3, 2.0): (None, 19)}


def test_c1_mask_exactness():
    budget = Budget("criterion 1 (mask exactness)", 1.0)
    assert CANONICAL.flat_index(7, 32) == 368
    masks = build_doppler_masks(CANONICAL)
    head0 = masks.row(0, 368)
    assert set(head0.tolist()) == set(range(4, 672, 26))
    assert head0.size == 26
    head1 = masks.row(1, 368)
    lattice = {t * 48 + f for t in range(0, 14, 2) for f in range(7, 48, 13)}
    assert set(head1.tolist()) == lattice
    assert head1.size == 28
    budget.done("head0 residue class (26 keys), head1 7x4 lattice (28 keys)")


def test_c2_histogram_oracle():
    budget = Budget("criterion 2 (histogram oracle)", 1.0)
    masks = build_doppler_masks(CANONICAL)
    for head in range(2):
        lengths = masks.row_lengths(head)
        for query in range(672):
            assert lengths[query] == row_count_closedform(CANONICAL, head, query)
    per_head = attended_keys_histogram(masks)
    assert per_head[0] == {26: 572, 25: 100}
    for head in range(2):
        assert len(per_head[head]) <= 3  # sharp peak per head
    budget.done("672 queries x 2 heads match closed form; head0 = {26: 572, 25: 100}")


def test_c3_partition_lemma():
    budget = Budget("criterion 3 (global-head partition)", 5.0)
    masks = build_doppler_masks(CANONICAL)
    check = verify_partition(masks)
    assert check.passed
    classes = equivalence_classes(672, 26)
    sizes = sorted(c.size for c in classes)
    assert sizes == [25] * 4 + [26] * 22
    # weak components of the head-0 graph match the classes, found by
    # scipy's csgraph on the raw head-0 rows rather than by the library
    rows = [masks.row(0, i) for i in range(672)]
    indptr = np.r_[0, np.cumsum([row.size for row in rows])]
    adjacency = csr_matrix((np.ones(indptr[-1]), np.concatenate(rows), indptr), shape=(672, 672))
    components, labels = connected_components(adjacency, directed=True, connection="weak")
    assert components == 26
    for cls in classes:
        assert np.array_equal(np.flatnonzero(labels == labels[cls[0]]), cls)
    budget.done("26 components == residue classes (sizes 22x26 + 4x25), no inter-class edges")


def test_c4_connectivity_theorem():
    budget = Budget("criterion 4 (bridging connectivity + diameters)", 30.0)
    canonical_seen = False
    for spec, (directed_expected, undirected_expected) in DIAMETER_REGRESSION.items():
        report = connectivity_report(GridSpec(*spec))
        if spec == (14, 48, 2, 2.0):
            canonical_seen = True
            assert report.heads[0].effective_step == 1  # P_1 = gcd(2*48, 13)
            assert report.bridging_heads == [1]
        if report.bridging_heads:
            assert report.fully_connected, spec
            assert not report.undirected.unreachable_pairs, spec
        assert report.directed.diameter == directed_expected, spec
        assert report.undirected.diameter == undirected_expected, spec
    assert canonical_seen
    budget.done("bridging => one undirected component on all grids; diameters match regression")


def test_c4_large_grid_diameters():
    budget = Budget("criterion 4 (exact diameters on 64x64)", 10.0)
    for spec, (directed_expected, undirected_expected) in LARGE_DIAMETER_REGRESSION.items():
        report = connectivity_report(GridSpec(*spec))
        assert not report.directed.sampled and report.directed.source_count == 4096
        assert report.directed.diameter == directed_expected, spec
        assert report.undirected.diameter == undirected_expected, spec
    budget.done("64x64 exact: 2 heads directed 33, undirected 17 hops; 3 heads disconnected directed, undirected 19")


def test_c5_attention_kernel():
    budget = Budget("criterion 5 (kernel vs oracle + gradients)", 60.0)
    pool = [
        ((8, 8, 1, 1.0), 16),
        ((4, 6, 2, 2.0), 8),
        ((2, 12, 2, 1.0), 16),
        ((8, 8, 2, 2.0), 8),
        ((4, 16, 4, 2.0), 16),
        ((3, 8, 4, 2.0), 8),
    ]
    worst = 0.0
    for i in range(100):
        spec, dim = pool[i % len(pool)]
        grid = GridSpec(*spec)
        masks = build_doppler_masks(grid)
        block = EmbeddingBlock.random(grid.tokens, dim, grid.heads, seed=i)
        sparse = sparse_attention_forward(block, masks)
        dense = dense_masked_oracle(block, masks)
        worst = max(worst, float(np.abs(sparse.output - dense.output).max()))
    assert worst <= 1e-12

    gradient_battery = (
        [((4, 6, 2, 2.0), 8, s) for s in range(7)]
        + [((2, 12, 2, 1.0), 8, s) for s in range(6)]
        + [((6, 4, 1, 1.0), 8, s) for s in range(4)]
        + [((3, 8, 4, 2.0), 8, s) for s in (0, 1, 4)]
    )
    assert len(gradient_battery) == 20
    worst_grad = 0.0
    for spec, dim, seed in gradient_battery:
        grid = GridSpec(*spec)
        masks = build_doppler_masks(grid)
        block = EmbeddingBlock.random(grid.tokens, dim, grid.heads, seed=seed)
        worst_grad = max(worst_grad, gradient_check(block, masks))
    assert worst_grad <= 1e-5
    budget.done(f"forward max dev {worst:.1e} on 100 instances; gradient max rel err {worst_grad:.1e} on 20")


def test_c6_beamforming_identities():
    budget = Budget("criterion 6 (combiner identities)", 5.0)
    rng_draws = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        h = (rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))) / np.sqrt(2)
        assert np.linalg.cond(h) <= 1e3
        rng_draws.append(h)

    for h in rng_draws:
        w_zf = zf_combiner(h)
        assert np.linalg.norm(w_zf @ h - np.eye(2)) <= 1e-10
        w_mmse = mmse_combiner(h, 1e-12)
        assert np.linalg.norm(w_mmse - w_zf) <= 1e-6 * np.linalg.norm(w_zf)
        for sigma2 in (0.1, 1.0):
            w = mmse_combiner(h, sigma2)
            gram = h.conj().T @ h + sigma2 * np.eye(2)
            assert np.linalg.norm(gram @ w - h.conj().T) <= 1e-10

    h = rng_draws[0]
    w = power_project(mmse_combiner(h, 0.5))
    base = sinr(w, h, 0.5)
    for c in (0.25, 7.0):
        np.testing.assert_allclose(sinr(c * w, h, 0.5), base, rtol=1e-12)
    big = 3.0 * w
    once = power_project(big)
    assert np.array_equal(power_project(once), once)
    budget.done("ZF/MMSE identities on 100 draws; scale invariance; idempotent projection")


def test_c7_optimizer_oracle():
    budget = Budget("criterion 7 (optimizer vs closed form)", 120.0)
    sigma2 = 0.1
    cfg = OptimizerConfig(iterations=200, gradient="fd")  # finite differences, <= 2000 allowed
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h = (rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))) / np.sqrt(2)
        closed_form = np.log2(1 + float((np.abs(h) ** 2).sum()) / sigma2)
        result = optimize_sum_rate(h, h, sigma2, cfg)
        assert abs(result.rate - closed_form) <= 1e-3, seed

    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    h2 = q[:, :2] * np.array([1.4, 0.9])
    zf_rate = sum_rate(power_project(zf_combiner(h2)), h2, sigma2)
    result = optimize_sum_rate(h2, h2, sigma2, OptimizerConfig(iterations=60, gradient="fd"))
    assert result.rate >= zf_rate - 1e-6

    slow = (rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8)))
    fast = (rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8)))
    assert np.array_equal(lookahead_update(slow, fast, 1.0), fast)
    assert np.array_equal(lookahead_update(slow, fast, 0.0), slow)
    budget.done("20 matched-filter oracles within 1e-3; orthogonal >= ZF; lookahead exact")


def test_c8_channel_statistics():
    budget = Budget("criterion 8 (channel statistics)", 60.0)
    doppler_hz = 347.0
    t = np.arange(14) * (500e-6 / 14)
    # one tap, antenna, user and subcarrier of the sweep's generator, at
    # the velocity whose Doppler shift on the 2.6 GHz carrier is 347 Hz
    one_path = OfdmConfig(symbols=14, subcarriers=1, num_taps=1)
    velocity = doppler_hz * SPEED_OF_LIGHT / 2.6e9
    batch = generate_channel_batch(one_path, DopplerConfig(velocity_mps=velocity), 1, 1, 10000, seed=0)
    draws = batch[:, :, 0, 0, 0]
    corr = np.array([(draws[:, lag:] * draws[:, : 14 - lag].conj()).mean() for lag in range(14)])
    rmse = float(np.sqrt(np.mean((corr.real - j0(2 * np.pi * doppler_hz * t)) ** 2)))
    assert rmse <= 0.05

    ofdm = OfdmConfig(symbols=2, subcarriers=4)
    batch = generate_channel_batch(ofdm, DopplerConfig(velocity_mps=(0.0, 40.0)), 1, 1, 10000, seed=17)
    power = float((np.abs(batch) ** 2).mean())
    assert abs(power - 1.0) <= 0.02

    fd = max_doppler(120.0, 2.6e9)
    assert fd == pytest.approx(1040.7199770182344, rel=1e-12)
    assert abs(fd - 1040.0) / 1040.0 <= 1e-3  # Table-consistent cap
    budget.done(f"Jakes RMSE {rmse:.3f} <= 0.05; mean power {power:.3f}; f_d(120 m/s) = {fd:.1f} Hz")


def test_c9_sweep_sanity():
    budget = Budget("criterion 9 (sweep sanity)", 600.0)
    config = SweepConfig()  # defaults: table SNR grid, both velocity ranges, 500 realizations
    first = run_sweep(config, timestamp="acceptance")
    by_key = {(p.method, p.snr_db, p.v_min): p for p in first.points}
    for v_min, _ in config.velocity_ranges:
        for snr in config.snr_db_list:
            if snr <= 0.0:
                zf = by_key[("zf", snr, v_min)]
                mm = by_key[("mmse", snr, v_min)]
                margin = 3.0 * np.hypot(zf.stderr, mm.stderr)
                assert mm.mean_sum_rate >= zf.mean_sum_rate - margin, (snr, v_min)
        zf20 = by_key[("zf", 20.0, v_min)]
        opt20 = by_key[("opt", 20.0, v_min)]
        assert opt20.mean_sum_rate >= zf20.mean_sum_rate - 1e-3, v_min

    second = run_sweep(config, timestamp="acceptance-second")
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        a = pathlib.Path(tmp) / "a.csv"
        b = pathlib.Path(tmp) / "b.csv"
        export_report(first, "csv", a)
        export_report(second, "csv", b)
        assert a.read_bytes() == b.read_bytes()
    budget.done("mmse >= zf at snr <= 0 (3-sigma); opt >= zf - 1e-3 at 20 dB; byte-identical CSV")
