#!/usr/bin/env python3
"""The Jakes fading process and the tapped-delay-line OFDM channel, both
drawn by `generate_channel_batch`: autocorrelation vs the Bessel oracle,
power normalization, coherence.

Run: python demos/05_doppler_channel.py
"""

import numpy as np
from scipy.special import j0

from sparsebeam import (
    SPEED_OF_LIGHT,
    DopplerConfig,
    OfdmConfig,
    add_estimation_error,
    generate_channel_batch,
    max_doppler,
    time_bias_hint,
)

print("=== 1. Doppler shifts for the configured carrier ===")
for v in (5, 40, 120):
    fd = max_doppler(v, 2.6e9)
    print(f"v = {v:>3} m/s -> f_d = {fd:7.1f} Hz")

print()
print("=== 2. Ensemble autocorrelation tracks J0(2 pi f_d tau) ===")
ofdm = OfdmConfig()
fd = 347.0
t = np.arange(ofdm.symbols) * ofdm.symbol_duration_s
# one tap, antenna, user and subcarrier: the channel is the fading itself
one_path = OfdmConfig(subcarriers=1, num_taps=1)
at_fd = DopplerConfig(velocity_mps=fd * SPEED_OF_LIGHT / 2.6e9)
draws = generate_channel_batch(one_path, at_fd, 1, 1, 4000, seed=0)[:, :, 0, 0, 0]
corr = np.array([(draws[:, lag:] * draws[:, : len(t) - lag].conj()).mean().real for lag in range(len(t))])
print(" lag   measured   J0(2 pi fd tau)")
for lag in (0, 3, 6, 9, 13):
    print(f"  {lag:>2}   {corr[lag]:+.4f}    {j0(2 * np.pi * fd * t[lag]):+.4f}")
print(f"mean |g|^2 over the ensemble: {(np.abs(draws) ** 2).mean():.4f}")

print()
print("=== 3. The slot channel: time and frequency selectivity ===")
h = generate_channel_batch(ofdm, DopplerConfig(velocity_mps=40.0), 1, 1, 1, seed=0)[0, :, :, 0, 0]
time_corr = (h[0] * h[-1].conj()).mean() / (np.abs(h[0]) ** 2).mean()
freq_corr = (h[:, 0] * h[:, 1].conj()).mean() / (np.abs(h[:, 0]) ** 2).mean()
print(f"first-vs-last-symbol correlation at 40 m/s: {abs(time_corr):.3f}")
print(f"adjacent-subcarrier correlation (100 ns delay spread): {abs(freq_corr):.3f}")
flat = generate_channel_batch(OfdmConfig(num_taps=1), DopplerConfig(velocity_mps=40.0), 1, 1, 1, seed=0)[0]
print(f"single tap at zero delay is frequency-flat: "
      f"{bool(np.allclose(flat[0], flat[0, :1]))}")

print()
print("=== 4. Unit average power over a big batch ===")
small = OfdmConfig(symbols=2, subcarriers=4)
big = generate_channel_batch(small, DopplerConfig(velocity_mps=(0, 40)), 1, 1, 5000, seed=1)
print(f"mean |H|^2 over 5000 realizations: {(np.abs(big) ** 2).mean():.4f}")

print()
print("=== 5. Estimation error and the time-bias hint ===")
est = add_estimation_error(big[:100], est_snr_db=10.0, seed=2)
err_var = (np.abs(est - big[:100]) ** 2).mean()
print(f"estimation error variance at 10 dB estimation SNR: {err_var:.4f} (expected 0.1)")
for v in (0, 40, 120):
    fd = max_doppler(v, 2.6e9)
    print(f"v = {v:>3} m/s, f_d Ts = {fd * ofdm.symbol_duration_s:.4f} "
          f"-> suggested time bias {time_bias_hint(fd, ofdm.symbol_duration_s):g}")
