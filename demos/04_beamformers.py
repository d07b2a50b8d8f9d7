#!/usr/bin/env python3
"""ZF and MMSE combiners, the SINR/sum-rate algebra, and direct
projected-gradient sum-rate maximization with Lookahead.  The sum rate
is sum_k log2(1 + SINR_k) over the users, in bps/Hz.

Run: python demos/04_beamformers.py
"""

import numpy as np

from sparsebeam import (
    OptimizerConfig,
    mmse_combiner,
    optimize_sum_rate,
    power_project,
    sinr,
    sum_rate,
    zf_combiner,
)


def rayleigh(m, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)


print("=== 1. Zero-forcing nulls interference exactly ===")
h = rayleigh(8, 2, 0)
w_zf = zf_combiner(h)
print(f"||W_zf @ H - I||_F = {np.linalg.norm(w_zf @ h - np.eye(2)):.2e}")

print()
print("=== 2. MMSE trades nulling against noise amplification (2-user sum rate) ===")
for snr_db in (-10, 0, 20):
    sigma2 = 10 ** (-snr_db / 10)
    r_zf = sum_rate(power_project(w_zf), h, sigma2)
    r_mmse = sum_rate(power_project(mmse_combiner(h, sigma2)), h, sigma2)
    print(f"snr {snr_db:>4} dB: zf {r_zf:.3f} bps/Hz, mmse {r_mmse:.3f} bps/Hz")

print()
print("=== 3. SINR is invariant to per-row scaling ===")
w = power_project(mmse_combiner(h, 0.5))
print(f"gamma(W)      = {sinr(w, h, 0.5)}")
print(f"gamma(3.7 W)  = {sinr(3.7 * w, h, 0.5)}")

print()
print("=== 4. Single user: the matched filter bound is reachable ===")
h1 = rayleigh(8, 1, 3)
sigma2 = 0.1
bound = np.log2(1 + float((np.abs(h1) ** 2).sum()) / sigma2)
result = optimize_sum_rate(h1, h1, sigma2, OptimizerConfig(iterations=100, gradient="fd"))
print(f"closed form log2(1 + ||h||^2 / sigma^2) = {bound:.6f}")
print(f"projected gradient ascent reaches        {result.rate:.6f}")

print()
print("=== 5. With a noisy estimate, direct optimization recovers sum rate ===")
h_true = rayleigh(8, 2, 7)
h_est = h_true + 0.4 * rayleigh(8, 2, 8)
sigma2 = 0.1
start = sum_rate(power_project(mmse_combiner(h_est, sigma2)), h_true, sigma2)
cfg = OptimizerConfig(iterations=400, gradient="analytic")
result = optimize_sum_rate(h_est, h_true, sigma2, cfg)
trace = result.trace
print(f"MMSE-from-estimate start: {start:.3f} bps/Hz, summed over the 2 users")
print(f"after {len(trace) - 1} projected steps (lookahead every 13, coeff 0.5): {result.rate:.3f} bps/Hz")
marks = [0, 50, 100, 200, 400]
print("best-so-far trace:", "  ".join(f"t={t}: {trace[t]:.3f}" for t in marks))
print(f"trace is non-decreasing: {bool((np.diff(trace) >= 0).all())}")
print(f"final row norms (unit power bound): {np.sqrt((np.abs(result.combiner) ** 2).sum(axis=1))}")
