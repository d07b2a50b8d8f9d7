"""Brute-force reference implementations used as independent oracles.

Everything here favors literal, obviously-correct loops over speed and
stays independent of the library's vectorized/compressed code paths.
"""

import numpy as np


def stride_reference(tokens, heads):
    """Smallest s with s**heads >= tokens**(heads-1), by linear search."""
    s = 1
    while s**heads < tokens ** (heads - 1):
        s += 1
    return s


def doppler_masks_reference(symbols, subcarriers, heads, time_bias):
    """Dense boolean masks built by direct nested loops."""
    tokens = symbols * subcarriers
    s = stride_reference(tokens, heads)
    masks = np.zeros((heads, tokens, tokens), dtype=bool)
    for h in range(heads):
        for i in range(tokens):
            if h == 0:
                r = i % s
                for j in range(tokens):
                    if j % s == r:
                        masks[h, i, j] = True
            else:
                stride_freq = max(1, int(np.floor(s / time_bias**h)))
                stride_time = max(1, int(np.floor(s / stride_freq)))
                off_time = (2 * h + i % stride_time) % stride_time
                off_freq = (3 * h + i % stride_freq) % stride_freq
                for t in range(off_time, symbols, stride_time):
                    for f in range(off_freq, subcarriers, stride_freq):
                        masks[h, i, t * subcarriers + f] = True
    return masks, s


def fixed_masks_reference(tokens, stride, causal):
    """Dense local-window + strided baseline masks by enumeration."""
    local = np.zeros((tokens, tokens), dtype=bool)
    strided = np.zeros((tokens, tokens), dtype=bool)
    for i in range(tokens):
        for j in range(tokens):
            if causal and j > i:
                continue
            if abs(i - j) < stride:
                local[i, j] = True
            if (i - j) % stride == 0:
                strided[i, j] = True
    return local, strided


def diameter_by_powering(adjacency):
    """Hop diameter via repeated boolean matrix powering.

    Returns (diameter, reachable): distance d(i, j) is the smallest k
    with ((A | I)^k)[i, j]; d(i, i) = 0 by convention.
    """
    a = np.asarray(adjacency, dtype=bool)
    tokens = a.shape[0]
    reach = np.eye(tokens, dtype=bool)
    dist = np.where(np.eye(tokens, dtype=bool), 0, -1)
    step = a | np.eye(tokens, dtype=bool)
    for k in range(1, tokens + 1):
        new_reach = reach @ step
        fresh = new_reach & ~reach
        dist[fresh] = k
        if not fresh.any():
            break
        reach = new_reach
    if (dist < 0).any():
        return None, False
    return int(dist.max()), True


def hop_diameter_reference(maskset, mode="undirected", bfs_cap=4096, sample=False, sample_sources=1024, seed=0):
    """`hop_diameter` by one breadth-first search per source over a dense
    boolean union graph built from the mask rows.  Sources above
    `bfs_cap` tokens are drawn as the library draws them; witnesses are
    the first 10 unreachable pairs by source, then target."""
    from sparsebeam.graph import HopDiameterResult

    tokens = maskset.tokens
    adjacency = np.zeros((tokens, tokens), dtype=bool)
    for h in range(maskset.head_count):
        for i in range(tokens):
            adjacency[i, maskset.row(h, i)] = True
    if mode == "undirected":
        adjacency |= adjacency.T
    sampled = tokens > bfs_cap and sample
    if sampled:
        rng = np.random.default_rng(seed)
        sources = np.sort(rng.choice(tokens, size=min(sample_sources, tokens), replace=False))
    else:
        sources = np.arange(tokens)
    best, witnesses = 0, []
    for source in sources:
        dist = np.full(tokens, -1)
        dist[source] = 0
        frontier, level = np.array([source]), 0
        while frontier.size:
            level += 1
            frontier = np.flatnonzero(adjacency[frontier].any(axis=0) & (dist < 0))
            dist[frontier] = level
        witnesses += [(int(source), int(t)) for t in np.flatnonzero(dist < 0)]
        if len(witnesses) >= 10:
            break
        best = max(best, int(dist.max()))
    if witnesses:
        return HopDiameterResult(mode, None, witnesses[:10], source_count=len(sources), sampled=sampled)
    return HopDiameterResult(mode, best, [], source_count=len(sources), sampled=sampled)


def row_classes_reference(masks, head):
    """(classes, representatives) of one head by a dict of literal rows:
    a query opens a new class when its row was not seen before."""
    seen = {}
    classes, representatives = [], []
    for i in range(masks.tokens):
        row = tuple(int(j) for j in masks.row(head, i))
        if row not in seen:
            seen[row] = len(representatives)
            representatives.append(i)
        classes.append(seen[row])
    return np.array(classes), np.array(representatives)


def partition_reference(maskset):
    """`verify_partition` by a loop over every query: the first query
    whose head-0 row is not its full residue class gives the witness,
    its smallest extra key, else its smallest missing one."""
    from sparsebeam.graph import PartitionCheck

    tokens = maskset.tokens
    s = stride_reference(tokens, maskset.grid.heads)
    for i in range(tokens):
        row = maskset.row(0, i)
        expected = np.arange(i % s, tokens, s)
        if np.array_equal(row, expected):
            continue
        extra = np.setdiff1d(row, expected)
        if extra.size:
            return PartitionCheck(False, witness=(i, int(extra[0])), witness_kind="inter_class_edge")
        missing = np.setdiff1d(expected, row)
        return PartitionCheck(False, witness=(i, int(missing[0])), witness_kind="missing_intra_class_edge")
    return PartitionCheck(True)


def softmax_rows_reference(scores, allowed):
    """Row softmax over allowed entries only; all-blocked rows -> zeros."""
    tokens = scores.shape[0]
    weights = np.zeros_like(scores)
    for i in range(tokens):
        cols = np.flatnonzero(allowed[i])
        if cols.size == 0:
            continue
        row = scores[i, cols]
        row = np.exp(row - row.max())
        weights[i, cols] = row / row.sum()
    return weights


def optimize_reference(channel_est, channel_true, noise_power, config):
    """`optimize_sum_rate` on one channel matrix by the literal per-matrix
    ascent loop: start from the projected MMSE combiner of the estimate,
    step by `_STEP_SIZE / users` (0.05 / users) times the gradient,
    project, absorb the lookahead (every 13 steps, coefficient 0.5), and
    keep the best iterate seen."""
    from sparsebeam.beamforming import (
        _STEP_SIZE,
        OptimizeResult,
        _rate_and_gradient,
        finite_difference_gradient,
        lookahead_update,
        mmse_combiner,
        power_project,
        sum_rate,
    )

    h_true = np.asarray(channel_true, dtype=np.complex128)
    users = h_true.shape[1]
    fast = power_project(mmse_combiner(channel_est, noise_power))
    slow = fast.copy()

    best_rate = sum_rate(fast, h_true, noise_power)
    best_w = fast.copy()
    trace = [best_rate]
    for step in range(1, config.iterations + 1):
        if config.gradient == "analytic":
            grad = _rate_and_gradient(fast, h_true, noise_power)[1]
        else:
            grad = finite_difference_gradient(fast, h_true, noise_power)
        fast = power_project(fast + (_STEP_SIZE / users) * grad)
        if step % 13 == 0:
            slow = lookahead_update(slow, fast, 0.5)
            fast = slow.copy()
        current = sum_rate(fast, h_true, noise_power)
        if current > best_rate:
            best_rate = current
            best_w = fast.copy()
        trace.append(best_rate)
    return OptimizeResult(combiner=best_w, trace=np.asarray(trace))


def _sweep_realization(config, v_idx, velocity_range, realization):
    """Per-SNR-point (rates, SINRs) of one realization for every method,
    one draw at a time on the full slot grid, with the resample count.
    One draw serves every SNR point; a draw that is singular for any
    method at any SNR point is redrawn with the next derived seed."""
    from sparsebeam import bench
    from sparsebeam.beamforming import mmse_combiner, power_project, sinr, sum_rate, zf_combiner
    from sparsebeam.channel import DopplerConfig, OfdmConfig, add_estimation_error
    from sparsebeam.errors import SingularChannelError

    ofdm = OfdmConfig()
    sub_mid = ofdm.subcarriers // 2
    doppler = DopplerConfig(velocity_mps=velocity_range)
    resampled = 0
    for attempt in range(64):
        draw_seed = (config.seed, v_idx, 0, realization, attempt)
        rng = np.random.default_rng(draw_seed)
        # looked up on the module so that a test can wrap the draw
        grid = bench._generate_true(ofdm, doppler, config.rx_antennas, config.users, rng)
        pilot = grid[0, sub_mid]
        target = grid[-1, sub_mid]
        estimate = add_estimation_error(pilot, config.est_snr_db, (*draw_seed, 1))
        try:
            per_snr = []
            for snr_db in config.snr_db_list:
                sigma2 = 10.0 ** (-snr_db / 10.0)
                rates, sinrs = {}, {}
                for method in config.methods:
                    if method == "zf":
                        w = power_project(zf_combiner(estimate))
                    elif method == "mmse":
                        w = power_project(mmse_combiner(estimate, sigma2))
                    else:
                        w = optimize_reference(estimate, target, sigma2, config.optimizer).combiner
                    rates[method] = sum_rate(w, target, sigma2)
                    sinrs[method] = sinr(w, target, sigma2)
                per_snr.append((rates, sinrs))
            return per_snr, resampled
        except SingularChannelError:
            resampled += 1
    raise RuntimeError("could not draw a non-singular channel in 64 attempts")


def sweep_points_reference(config):
    """`run_sweep(config).points` by the scalar per-realization protocol:
    every realization on its own, `optimize_reference` for `opt`."""
    from sparsebeam.bench import SweepPoint

    points = []
    for v_idx, velocity_range in enumerate(config.velocity_ranges):
        outcomes = [_sweep_realization(config, v_idx, velocity_range, r) for r in range(config.realizations)]
        resampled = sum(out[1] for out in outcomes)
        if resampled > 1e-3 * max(1, config.realizations + resampled):
            raise RuntimeError(f"singular-channel resample rate above 0.1%: {resampled} resamples")
        for s_idx, snr_db in enumerate(config.snr_db_list):
            for method in config.methods:
                rates = np.array([out[0][s_idx][0][method] for out in outcomes])
                sinrs = np.vstack([out[0][s_idx][1][method] for out in outcomes])
                stderr = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
                points.append(
                    SweepPoint(
                        method=method,
                        snr_db=float(snr_db),
                        v_min=float(velocity_range[0]),
                        v_max=float(velocity_range[1]),
                        mean_sum_rate=float(rates.mean()),
                        stderr=stderr,
                        realizations=config.realizations,
                        per_ue_mean_sinr=[float(x) for x in sinrs.mean(axis=0)],
                        resampled=resampled,
                    )
                )
    return points
