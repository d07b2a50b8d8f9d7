"""Desk-scale Doppler fading channel over an OFDM slot.

A sum-of-sinusoids Clarke/Jakes process drives each tap of a tapped
delay line with an exponential power-delay profile; the frequency
response follows per subcarrier.  The ensemble autocorrelation of the
fading process is J0(2 pi f_d tau) by construction, which the test
suite checks against the Bessel oracle.  Everything is deterministic
given a seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8

CHANNEL_FILE_MAGIC = int.from_bytes(b"SBCHAN01", "little")
CHANNEL_FILE_VERSION = 1


def max_doppler(velocity_mps: float, carrier_hz: float) -> float:
    """Maximum Doppler shift velocity * carrier / c in Hz."""
    if velocity_mps < 0:
        raise ValueError("velocity must be >= 0")
    if carrier_hz <= 0:
        raise ValueError("carrier frequency must be > 0")
    return velocity_mps * carrier_hz / SPEED_OF_LIGHT


@dataclass(frozen=True)
class DopplerConfig:
    """Mobility model: carrier plus a UE velocity (scalar or [lo, hi]
    range sampled per UE), expanded to a Doppler shift via v * f_c / c."""

    carrier_hz: float = 2.6e9
    velocity_mps: float | tuple[float, float] = (0.0, 10.0)
    num_sinusoids: int = 32
    seed: int | None = None

    def __post_init__(self):
        if self.carrier_hz <= 0:
            raise ValueError("carrier frequency must be > 0")
        if self.num_sinusoids < 8:
            raise ValueError("need at least 8 sinusoid components")
        lo, hi = self.velocity_bounds
        if lo < 0 or hi < lo:
            raise ValueError("velocity range must satisfy 0 <= lo <= hi")

    @property
    def velocity_bounds(self) -> tuple[float, float]:
        v = self.velocity_mps
        if isinstance(v, (tuple, list, np.ndarray)):
            lo, hi = v
            return float(lo), float(hi)
        return float(v), float(v)

    @property
    def max_doppler_hz(self) -> float:
        return max_doppler(self.velocity_bounds[1], self.carrier_hz)


@dataclass(frozen=True)
class OfdmConfig:
    """Slot geometry and delay profile of the simulated OFDM grid."""

    symbols: int = 14
    subcarriers: int = 48
    subcarrier_spacing_hz: float = 30e3
    tti_s: float = 500e-6
    num_taps: int = 4
    delay_spread_s: float = 100e-9

    def __post_init__(self):
        if min(self.symbols, self.subcarriers, self.num_taps) < 1:
            raise ValueError("symbols, subcarriers and taps must be >= 1")
        if self.subcarrier_spacing_hz <= 0 or self.tti_s <= 0 or self.delay_spread_s <= 0:
            raise ValueError("spacing, TTI and delay spread must be > 0")

    @classmethod
    def from_resource_blocks(cls, resource_blocks: int, **kwargs) -> "OfdmConfig":
        """12 subcarriers per resource block."""
        if resource_blocks < 1:
            raise ValueError("need at least one resource block")
        return cls(subcarriers=12 * resource_blocks, **kwargs)

    @property
    def symbol_duration_s(self) -> float:
        return self.tti_s / self.symbols

    @property
    def tap_delays_s(self) -> np.ndarray:
        return np.arange(self.num_taps) * self.delay_spread_s

    @property
    def tap_powers(self) -> np.ndarray:
        """Exponential power-delay profile normalized to unit total power."""
        p = np.exp(-self.tap_delays_s / self.delay_spread_s)
        return p / p.sum()


@dataclass
class ChannelBatch:
    """True channel per resource element, shape (symbols, subcarriers,
    antennas, users); estimates come from `add_estimation_error`."""

    true_channel: np.ndarray

    @property
    def shape(self):
        return self.true_channel.shape


def jakes_fading(doppler_hz: float, time_grid, seed, num_sinusoids: int = 32) -> np.ndarray:
    """Unit-power Clarke/Jakes fading sampled on `time_grid`.

    Sum of `num_sinusoids` complex sinusoids with uniform random arrival
    angles and phases; the ensemble autocorrelation at lag tau is
    J0(2 pi doppler_hz tau) and zero Doppler gives a time-constant
    draw.
    """
    if doppler_hz < 0:
        raise ValueError("Doppler shift must be >= 0")
    if num_sinusoids < 8:
        raise ValueError("need at least 8 sinusoid components")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, (1, 1, 1, num_sinusoids))
    phi = rng.uniform(0.0, 2.0 * np.pi, (1, 1, 1, num_sinusoids))
    t = np.asarray(time_grid, dtype=np.float64)
    return _fading_block(np.array([doppler_hz], dtype=np.float64), theta, phi, t)[0, 0, 0]


def _draw_paths(ofdm: OfdmConfig, doppler: DopplerConfig, antennas: int, users: int, rng):
    """The random part of one realization, in a fixed draw order: per-user
    Doppler shifts, then arrival angles and phases of every
    (user, antenna, tap, sinusoid) component."""
    lo, hi = doppler.velocity_bounds
    velocities = rng.uniform(lo, hi, users) if hi > lo else np.full(users, lo)
    doppler_hz = velocities * doppler.carrier_hz / SPEED_OF_LIGHT
    shape = (users, antennas, ofdm.num_taps, doppler.num_sinusoids)
    theta = rng.uniform(0.0, 2.0 * np.pi, shape)
    phi = rng.uniform(0.0, 2.0 * np.pi, shape)
    return doppler_hz, theta, phi


def _fading_block(doppler_hz, theta, phi, t):
    """Fading for every (user, antenna, tap) path at times `t`;
    returns (users, antennas, taps, len(t))."""
    rate = 2.0 * np.pi * doppler_hz[:, None, None, None] * np.cos(theta)
    phase = rate[..., None] * t[None, None, None, None, :] + phi[..., None]
    return np.exp(1j * phase).sum(axis=3) / np.sqrt(theta.shape[-1])


def _generate_true(
    ofdm: OfdmConfig, doppler: DopplerConfig, antennas: int, users: int, rng, symbols=None, subcarriers=None
) -> np.ndarray:
    """True channel of one realization at the chosen symbol and
    subcarrier indices (all of them when None), shape
    (len(symbols), len(subcarriers), antennas, users).  Each entry equals
    the full slot grid's entry at that index, bit for bit."""
    doppler_hz, theta, phi = _draw_paths(ofdm, doppler, antennas, users, rng)
    t = np.arange(ofdm.symbols) * ofdm.symbol_duration_s
    freqs = np.arange(ofdm.subcarriers) * ofdm.subcarrier_spacing_hz
    pick = None
    if symbols is not None:
        chosen = np.arange(ofdm.symbols)[np.asarray(symbols, dtype=np.intp)]
        # numpy adds the sinusoids in sequence along a time axis longer
        # than 1 but pairwise along a length-1 one, so the evaluated axis
        # has length 1 exactly when the slot's does
        if ofdm.symbols == 1:
            pick = chosen
        elif chosen.size == 1:
            t, pick = t[np.repeat(chosen, 2)], [0]
        else:
            t = t[chosen]
    if subcarriers is not None:
        freqs = freqs[np.asarray(subcarriers, dtype=np.intp)]
    gains = _fading_block(doppler_hz, theta, phi, t)
    if pick is not None:
        gains = gains[..., pick]
    steering = np.exp(-2j * np.pi * freqs[None, :] * ofdm.tap_delays_s[:, None])  # (taps, K)
    weighted = np.sqrt(ofdm.tap_powers)[:, None] * steering
    # (users, antennas, taps, symbols) x (taps, subcarriers) -> (L, K, M, N)
    return np.einsum("nmpl,pk->lkmn", gains, weighted)


def generate_channel(
    ofdm: OfdmConfig, doppler: DopplerConfig, antennas: int, users: int, seed
) -> ChannelBatch:
    """One realization of the true channel over the whole slot grid."""
    if antennas < 1 or users < 1:
        raise ValueError("antennas and users must be >= 1")
    rng = np.random.default_rng(seed)
    return ChannelBatch(true_channel=_generate_true(ofdm, doppler, antennas, users, rng))


def generate_channel_batch(
    ofdm: OfdmConfig, doppler: DopplerConfig, antennas: int, users: int, realizations: int, seed: int
) -> np.ndarray:
    """Independent realizations stacked on a leading axis,
    shape (realizations, symbols, subcarriers, antennas, users).
    Realization r uses the derived stream (seed, r), so the batch is
    reproducible and order-independent."""
    if realizations < 1:
        raise ValueError("need at least one realization")
    out = np.empty(
        (realizations, ofdm.symbols, ofdm.subcarriers, antennas, users), dtype=np.complex128
    )
    for r in range(realizations):
        rng = np.random.default_rng((seed, r))
        out[r] = _generate_true(ofdm, doppler, antennas, users, rng)
    return out


def add_estimation_error(true_channel, est_snr_db: float, seed) -> np.ndarray:
    """Additive white complex-Gaussian estimation error at the given
    per-entry estimation SNR; +inf returns the true channel bit-exact."""
    h = np.asarray(true_channel, dtype=np.complex128)
    if np.isposinf(est_snr_db):
        return h.copy()
    if not np.isfinite(est_snr_db):
        raise ValueError("estimation SNR must be finite or +inf")
    var = 10.0 ** (-est_snr_db / 10.0)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    return h + np.sqrt(var / 2.0) * noise


def time_bias_hint(doppler_hz: float, symbol_duration_s: float) -> float:
    """Heuristic time-bias factor from normalized Doppler
    nu = f_d * symbol duration: 1 below 0.005, 2 below 0.02, else 4.
    A starting point only; callers are free to override."""
    if doppler_hz < 0 or symbol_duration_s < 0:
        raise ValueError("inputs must be >= 0")
    nu = doppler_hz * symbol_duration_s
    if nu < 0.005:
        return 1.0
    if nu < 0.02:
        return 2.0
    return 4.0


def write_channel_file(path, batch: np.ndarray, seed: int) -> None:
    """Binary channel dump: 8 little-endian uint64 header fields
    (magic, version, symbols, subcarriers, antennas, users,
    realizations, seed) followed by the complex128 tensor as
    little-endian interleaved real/imag float64 in C order."""
    arr = np.ascontiguousarray(batch, dtype=np.complex128)
    if arr.ndim != 5:
        raise ValueError("batch must have shape (R, L, K, M, N)")
    if seed < 0:
        raise ValueError("seed must be >= 0 for the file header")
    r, sym, sub, m, n = arr.shape
    header = struct.pack("<8Q", CHANNEL_FILE_MAGIC, CHANNEL_FILE_VERSION, sym, sub, m, n, r, seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype("<c16").tobytes())


def read_channel_file(path):
    """Inverse of `write_channel_file`; returns (batch, header dict).
    The payload must be exactly the size the header declares."""
    with open(path, "rb") as fh:
        raw = fh.read(64)
        if len(raw) != 64:
            raise ValueError("truncated channel file header")
        magic, version, sym, sub, m, n, r, seed = struct.unpack("<8Q", raw)
        if magic != CHANNEL_FILE_MAGIC:
            raise ValueError("not a channel file (bad magic)")
        if version != CHANNEL_FILE_VERSION:
            raise ValueError(f"unsupported channel file version {version}")
        count = r * sym * sub * m * n
        payload = fh.read()
    expected = 16 * count
    if len(payload) != expected:
        raise ValueError(f"channel file payload is {len(payload)} bytes; the header declares {expected}")
    data = np.frombuffer(payload, dtype="<c16")
    batch = data.reshape(r, sym, sub, m, n).astype(np.complex128)
    meta = {
        "symbols": sym,
        "subcarriers": sub,
        "antennas": m,
        "users": n,
        "realizations": r,
        "seed": seed,
    }
    return batch, meta
