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


def optimize_reference(channel_est, channel_true, noise_power, config, initial=None, weights=None):
    """`optimize_sum_rate` on one channel matrix by the literal per-matrix
    ascent loop: start from `initial` or the projected MMSE combiner of
    the estimate, step, project, optionally update the weights and
    absorb the lookahead, and keep the best iterate seen."""
    from sparsebeam.beamforming import (
        LOG2,
        OptimizeResult,
        _project_simplex,
        _rate_and_gradient,
        finite_difference_gradient,
        lookahead_update,
        mmse_combiner,
        power_project,
        sinr,
        sum_rate,
    )

    h_true = np.asarray(channel_true, dtype=np.complex128)
    users = h_true.shape[1]
    alpha = np.full(users, 1.0 / users) if weights is None else np.asarray(weights, dtype=np.float64)
    if initial is not None:
        fast = power_project(np.asarray(initial, dtype=np.complex128))
    else:
        fast = power_project(mmse_combiner(channel_est, noise_power))
    slow = fast.copy()

    best_rate = sum_rate(fast, h_true, noise_power, alpha)
    best_w = fast.copy()
    best_alpha = alpha.copy()
    trace = [best_rate]
    for step in range(1, config.iterations + 1):
        if config.gradient == "analytic":
            grad = _rate_and_gradient(fast, h_true, noise_power, alpha)[1]
        else:
            grad = finite_difference_gradient(fast, h_true, noise_power, alpha, step=config.fd_step)
        fast = power_project(fast + config.step_size * grad)
        if config.optimize_weights:
            gammas = sinr(fast, h_true, noise_power)
            alpha = _project_simplex(alpha + config.step_size * np.log1p(gammas) / LOG2)
        if config.lookahead_every and step % config.lookahead_every == 0:
            slow = lookahead_update(slow, fast, config.lookahead_coeff)
            fast = slow.copy()
        current = sum_rate(fast, h_true, noise_power, alpha)
        if current > best_rate:
            best_rate = current
            best_w = fast.copy()
            best_alpha = alpha.copy()
        trace.append(best_rate)
    return OptimizeResult(combiner=best_w, trace=np.asarray(trace), weights=best_alpha)


def _sweep_realization(config, point_key, sigma2, velocity_range, realization):
    """Rates and SINRs of one realization for every method, one draw at a
    time on the full slot grid; resamples singular draws with the next
    derived seed and returns the resample count."""
    from sparsebeam import bench
    from sparsebeam.beamforming import mmse_combiner, power_project, sinr, sum_rate, zf_combiner
    from sparsebeam.channel import DopplerConfig, add_estimation_error
    from sparsebeam.errors import SingularChannelError

    sub_mid = config.ofdm.subcarriers // 2
    doppler = DopplerConfig(
        carrier_hz=config.carrier_hz, velocity_mps=velocity_range, num_sinusoids=config.num_sinusoids
    )
    resampled = 0
    for attempt in range(64):
        draw_seed = (config.seed, *point_key, realization, attempt)
        rng = np.random.default_rng(draw_seed)
        # looked up on the module so that a test can wrap the draw
        grid = bench._generate_true(config.ofdm, doppler, config.rx_antennas, config.users, rng)
        pilot = grid[0, sub_mid]
        target = grid[-1, sub_mid]
        estimate = add_estimation_error(pilot, config.est_snr_db, (*draw_seed, 1))
        try:
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
            return rates, sinrs, resampled
        except SingularChannelError:
            resampled += 1
    raise RuntimeError("could not draw a non-singular channel in 64 attempts")


def sweep_points_reference(config):
    """`run_sweep(config).points` by the scalar per-realization protocol:
    every realization on its own, `optimize_reference` for `opt`."""
    from sparsebeam.bench import SweepPoint

    points = []
    for v_idx, velocity_range in enumerate(config.velocity_ranges):
        for s_idx, snr_db in enumerate(config.snr_db_list):
            sigma2 = 10.0 ** (-snr_db / 10.0)
            outcomes = [
                _sweep_realization(config, (v_idx, s_idx), sigma2, velocity_range, r)
                for r in range(config.realizations)
            ]
            resampled = sum(out[2] for out in outcomes)
            if resampled > 1e-3 * max(1, config.realizations + resampled):
                raise RuntimeError(f"singular-channel resample rate above 0.1%: {resampled} resamples")
            for method in config.methods:
                rates = np.array([out[0][method] for out in outcomes])
                sinrs = np.vstack([out[1][method] for out in outcomes])
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
