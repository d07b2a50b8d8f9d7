"""Linear receive beamforming for uplink multi-user SIMO.

Conventions: the channel is an (antennas x users) complex matrix whose
column k is user k's channel; a combiner is a (users x antennas)
matrix whose row k is user k's receive filter, applied as a plain
(non-conjugated) row-times-vector product.  The ZF/MMSE closed forms
below produce exactly this row layout, so combiner @ channel is the
effective user-coupling matrix.  Rates are log base 2 (bps/Hz), unit
transmit power per user and white circularly-symmetric noise assumed.
The sum rate is sum_k log2(1 + SINR_k) over the users, not a mean.

Channels and combiners may carry leading batch axes, (..., antennas,
users) and (..., users, antennas); every entry of a stack gets exactly
the result its 2D slice would get on its own.  The noise power is a
float, or an array that broadcasts to the stack's leading axes, so that
one call can score a stack at several noise powers (the sweep passes an
(S, 1) column for S SNR points); each entry then gets exactly the
result of a call with its own scalar noise power, and every check of a
scalar noise power holds for each entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularChannelError, _check_count

_GRAM_COND_LIMIT = 1e12
_ROW_NORM_SLACK = 1e-12
_FD_STEP = 1e-6
_LOOKAHEAD_EVERY = 13
_LOOKAHEAD_COEFF = 0.5
_STEP_SIZE = 0.05  # ascent step on the per-user mean rate

LOG2 = np.log(2.0)


def _as_channel(channel) -> np.ndarray:
    h = np.asarray(channel, dtype=np.complex128)
    if h.ndim < 2:
        raise ValueError("channel must be an (antennas x users) matrix or a stack of them")
    if 0 in h.shape[-2:]:
        raise ValueError("channel needs at least one antenna and one user")
    if not (np.isfinite(h.real).all() and np.isfinite(h.imag).all()):
        raise ValueError("channel must be finite")
    return h


def _as_noise(noise_power, stack_shape, message: str, positive: bool = False) -> np.ndarray:
    """The noise power as a float64 array that broadcasts to `stack_shape`,
    the leading axes of a stack; raises ValueError with `message` unless
    every entry is finite and >= 0 (> 0 when `positive`)."""
    noise = np.asarray(noise_power, dtype=np.float64)
    if not (((noise > 0) if positive else (noise >= 0)) & (noise < math.inf)).all():  # NaN fails both
        raise ValueError(message)
    np.broadcast_to(noise, stack_shape)  # raises ValueError on a shape that does not fit the stack
    return noise


def mmse_combiner(channel_est, noise_power: float | np.ndarray) -> np.ndarray:
    """Regularized pseudo-inverse combiner (Gram + noise_power * I) \\ H^H.

    With noise_power == 0 this is exactly the zero-forcing combiner
    (same solve path), which requires at least as many antennas as
    users and a well-conditioned Gram matrix; with a noise array, the
    entries whose noise power is 0 are held to that.  On a stack, the
    raised `SingularChannelError` marks the offending entries in
    `.singular`.
    """
    h = _as_channel(channel_est)
    noise = _as_noise(noise_power, h.shape[:-2], "noise power must be finite and >= 0")
    antennas, users = h.shape[-2:]
    h_herm = h.conj().swapaxes(-1, -2)
    gram = h_herm @ h + noise[..., None, None] * np.eye(users)
    zero = np.broadcast_to(noise == 0, h.shape[:-2])
    if zero.any():
        if antennas < users:
            raise SingularChannelError("zero-forcing needs antennas >= users", singular=zero.copy())
        cond = np.linalg.cond(gram)
        singular = zero & (~np.isfinite(cond) | (cond > _GRAM_COND_LIMIT))
        if singular.any():
            raise SingularChannelError("channel Gram matrix is too ill-conditioned", singular=singular)
    try:
        return np.linalg.solve(gram, h_herm)
    except np.linalg.LinAlgError as exc:
        singular = np.zeros(h.shape[:-2], dtype=bool)
        for idx in np.ndindex(singular.shape):  # name the entries LAPACK cannot factor
            try:
                np.linalg.solve(gram[idx], h_herm[idx])
            except np.linalg.LinAlgError:
                singular[idx] = True
        raise SingularChannelError("channel Gram matrix is singular", singular=singular) from exc


def zf_combiner(channel_est) -> np.ndarray:
    """Zero-forcing combiner: (H^H H)^-1 H^H, yielding W @ H = I.

    Returned unprojected; apply `power_project` explicitly when the
    per-user power constraint matters.
    """
    return mmse_combiner(channel_est, 0.0)


def _sinr_parts(w, h, noise_power):
    """Coupling W @ H, desired power, SINR denominator and per-user SINR
    over the last axis; the one SINR formula `sinr` and the optimizer share."""
    coupling = w @ h
    power = np.abs(coupling) ** 2
    diag = np.diagonal(coupling, axis1=-2, axis2=-1)
    desired = np.diagonal(power, axis1=-2, axis2=-1)
    interference = power.sum(axis=-1) - desired
    denom = interference + np.asarray(noise_power)[..., None] * (np.abs(w) ** 2).sum(axis=-1)
    # a zero filter row with positive noise power carries no signal: 0
    gammas = np.zeros_like(desired)
    np.divide(desired, denom, out=gammas, where=denom > 0)
    gammas[(denom == 0) & (desired > 0)] = np.inf
    return coupling, diag, desired, denom, gammas


def sinr(combiner, channel, noise_power: float | np.ndarray) -> np.ndarray:
    """Per-user SINR of `combiner` rows against the true `channel`.

    gamma_k = |row_k . h_k|^2 / (sum_{i != k} |row_k . h_i|^2
              + noise_power * ||row_k||^2); scale-invariant in each row.
    """
    w = np.asarray(combiner, dtype=np.complex128)
    h = _as_channel(channel)
    noise = _as_noise(noise_power, h.shape[:-2], "noise power must be finite and >= 0")
    if w.shape != h.shape[:-2] + (h.shape[-1], h.shape[-2]):
        raise ValueError("combiner must be (users x antennas) matching the channel")
    _, _, desired, denom, gammas = _sinr_parts(w, h, noise)
    if ((noise == 0)[..., None] & (denom == 0) & (desired == 0)).any():
        raise ValueError("0/0 SINR: zero filter row with zero noise power")
    return gammas


def _rate(gammas):
    """sum_k log2(1 + gammas_k) over the last axis; a float for one
    matrix, an array for a stack."""
    total = (np.log1p(gammas) / LOG2).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def sum_rate(combiner, channel, noise_power: float | np.ndarray):
    """Sum rate sum_k log2(1 + sinr_k) in bps/Hz; a float for one
    matrix, one rate per entry for a stack.

    Its negative is the training-style loss when the combiner was
    derived from an estimate but evaluated against the true channel.
    """
    return _rate(sinr(combiner, channel, noise_power))


def power_project(combiner) -> np.ndarray:
    """Clip each filter row to unit Euclidean norm; rows within the bound
    pass through untouched, so the projection is idempotent."""
    w = np.asarray(combiner, dtype=np.complex128)
    norms_sq = (np.abs(w) ** 2).sum(axis=-1)
    scale = np.ones_like(norms_sq)
    over = norms_sq > 1.0 + _ROW_NORM_SLACK
    scale[over] = 1.0 / np.sqrt(norms_sq[over])
    return w * scale[..., None]


def lookahead_update(slow, fast, coeff: float) -> np.ndarray:
    """Slow-weights interpolation slow + coeff * (fast - slow).

    coeff 0 and 1 return exact copies of the respective endpoint.
    """
    s = np.asarray(slow)
    f = np.asarray(fast)
    if s.shape != f.shape:
        raise ValueError(f"shape mismatch: {s.shape} vs {f.shape}")
    if not (0.0 <= coeff <= 1.0):
        raise ValueError("interpolation coefficient must be in [0, 1]")
    if coeff == 0.0:
        return s.copy()
    if coeff == 1.0:
        return f.copy()
    return s + coeff * (f - s)


def _rate_and_gradient(w, h, noise_power, h_rows=None):
    """Sum rate plus its gradient packed as a complex array G with
    G = dJ/dRe(W) + 1j * dJ/dIm(W), so W + lr * G is a real-space
    gradient-ascent step.  The rate is exactly `sum_rate`'s.  `h_rows`
    is `h.conj().swapaxes(-1, -2)` (row i = conj(h_i)^T), computed here
    unless a caller that reuses `h` passes it."""
    coupling, diag, desired, denom, gamma = _sinr_parts(w, h, noise_power)
    rate = _rate(gamma)

    if h_rows is None:
        h_rows = h.conj().swapaxes(-1, -2)
    d_desired = diag[..., :, None] * h_rows
    d_denom = coupling @ h_rows - d_desired + np.asarray(noise_power)[..., None, None] * w
    coeff = 1.0 / (LOG2 * (1.0 + gamma))
    grad = 2.0 * coeff[..., :, None] * (d_desired * denom[..., :, None] - desired[..., :, None] * d_denom) / (denom**2)[..., :, None]
    return rate, grad


def sum_rate_gradient(combiner, channel, noise_power: float | np.ndarray) -> np.ndarray:
    """Analytic gradient of `sum_rate` w.r.t. the combiner, packed as
    complex (real part = d/dRe, imaginary part = d/dIm)."""
    w = np.asarray(combiner, dtype=np.complex128)
    h = _as_channel(channel)
    noise = _as_noise(noise_power, h.shape[:-2], "gradient needs a finite noise power > 0", positive=True)
    return _rate_and_gradient(w, h, noise)[1]


def finite_difference_gradient(combiner, channel, noise_power) -> np.ndarray:
    """Central-difference gradient of `sum_rate` over the 2*users*antennas
    real parameters (step 1e-6), packed like `sum_rate_gradient`; on a
    stack, every entry's parameter is bumped at once."""
    w = np.asarray(combiner, dtype=np.complex128).copy()
    grad = np.zeros_like(w)
    for k in range(w.shape[-2]):
        for m in range(w.shape[-1]):
            for part, bump in ((1.0, 1.0), (1.0j, 1.0j)):
                orig = w[..., k, m].copy()
                w[..., k, m] = orig + _FD_STEP * bump
                up = sum_rate(w, channel, noise_power)
                w[..., k, m] = orig - _FD_STEP * bump
                down = sum_rate(w, channel, noise_power)
                w[..., k, m] = orig
                slope = (up - down) / (2.0 * _FD_STEP)
                grad[..., k, m] += slope * part
    return grad


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient-ascent settings for direct sum-rate maximization.

    gradient "analytic" (the default, used by the sweep and the
    `beamform` command) uses the closed-form gradient, which the test
    suite checks against finite differences; "fd" recomputes central
    differences each step (slow, exact contract).
    """

    iterations: int = 100
    gradient: str = "analytic"

    def __post_init__(self):
        if self.gradient not in ("fd", "analytic"):
            raise ValueError("gradient must be 'fd' or 'analytic'")
        _check_count("iterations", self.iterations, 0)


@dataclass
class OptimizeResult:
    combiner: np.ndarray
    trace: np.ndarray  # best-so-far rate per iteration (monotone) on the last axis

    @property
    def rate(self):
        """Best rate: a float for one channel, one per entry for a stack."""
        best = self.trace[..., -1]
        return float(best) if best.ndim == 0 else best


def optimize_sum_rate(
    channel_est,
    channel_true,
    noise_power: float | np.ndarray,
    config: OptimizerConfig | None = None,
) -> OptimizeResult:
    """Directly maximize the sum rate over the combiner, for one channel
    matrix or a stack (..., antennas, users) in one ascent loop.

    Projected gradient ascent starting from the power-projected MMSE
    combiner of the channel estimate; the objective is evaluated
    against the true channel, so with an imperfect estimate this plays
    the role the training loss plays for a learned beamformer.  The
    returned trace is the best rate seen up to each iteration and is
    non-decreasing by construction.  Every stack entry keeps its own
    best iterate and trace, exactly as if it ran alone.  Each step is
    `0.05 / users` times the sum-rate gradient, that is 0.05 on the
    per-user mean rate.  Lookahead runs every 13 steps with coefficient
    0.5.  A different start is a different estimate.
    """
    cfg = config or OptimizerConfig()
    h_est = _as_channel(channel_est)
    h_true = _as_channel(channel_true)
    if h_est.shape != h_true.shape:
        raise ValueError("estimate and true channel must share a shape")
    antennas, users = h_true.shape[-2:]
    if antennas > 16 or users > 4:
        raise ValueError("optimizer is desk-scale: antennas <= 16, users <= 4")
    noise = _as_noise(noise_power, h_true.shape[:-2], "optimization needs a finite noise power > 0", positive=True)
    fast = power_project(mmse_combiner(h_est, noise))
    slow = fast
    h_rows = h_true.conj().swapaxes(-1, -2)

    def rate_and_gradient(w):
        if cfg.gradient == "analytic":
            return _rate_and_gradient(w, h_true, noise, h_rows)
        return sum_rate(w, h_true, noise), None  # the gradient is taken when stepping

    best_rate, grad = rate_and_gradient(fast)
    best_w = fast
    trace = [best_rate]
    for step in range(1, cfg.iterations + 1):
        if grad is None:
            grad = finite_difference_gradient(fast, h_true, noise)
        fast = power_project(fast + (_STEP_SIZE / users) * grad)
        if step % _LOOKAHEAD_EVERY == 0:
            slow = lookahead_update(slow, fast, _LOOKAHEAD_COEFF)
            fast = slow.copy()
        current, grad = rate_and_gradient(fast)
        better = np.asarray(current > best_rate)
        best_rate = np.where(better, current, best_rate)
        best_w = np.where(better[..., None, None], fast, best_w)
        trace.append(best_rate)
    return OptimizeResult(combiner=np.array(best_w), trace=np.stack(trace, axis=-1))
