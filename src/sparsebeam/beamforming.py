"""Linear receive beamforming for uplink multi-user SIMO.

Conventions: the channel is an (antennas x users) complex matrix whose
column k is user k's channel; a combiner is a (users x antennas)
matrix whose row k is user k's receive filter, applied as a plain
(non-conjugated) row-times-vector product.  The ZF/MMSE closed forms
below produce exactly this row layout, so combiner @ channel is the
effective user-coupling matrix.  Rates are log base 2 (bps/Hz), unit
transmit power per user and white circularly-symmetric noise assumed.

Channels and combiners may carry leading batch axes, (..., antennas,
users) and (..., users, antennas); every entry of a stack gets exactly
the result its 2D slice would get on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularChannelError

_GRAM_COND_LIMIT = 1e12
_ROW_NORM_SLACK = 1e-12

LOG2 = np.log(2.0)


def _as_channel(channel) -> np.ndarray:
    h = np.asarray(channel, dtype=np.complex128)
    if h.ndim < 2:
        raise ValueError("channel must be an (antennas x users) matrix or a stack of them")
    if not (np.isfinite(h.real).all() and np.isfinite(h.imag).all()):
        raise ValueError("channel must be finite")
    return h


def mmse_combiner(channel_est, noise_power: float) -> np.ndarray:
    """Regularized pseudo-inverse combiner (Gram + noise_power * I) \\ H^H.

    With noise_power == 0 this is exactly the zero-forcing combiner
    (same solve path), which requires at least as many antennas as
    users and a well-conditioned Gram matrix.  On a stack, the raised
    `SingularChannelError` marks the offending entries in `.singular`.
    """
    h = _as_channel(channel_est)
    if noise_power < 0:
        raise ValueError("noise power must be >= 0")
    antennas, users = h.shape[-2:]
    h_herm = h.conj().swapaxes(-1, -2)
    gram = h_herm @ h + noise_power * np.eye(users)
    if noise_power == 0:
        if antennas < users:
            raise SingularChannelError("zero-forcing needs antennas >= users", singular=np.ones(h.shape[:-2], dtype=bool))
        cond = np.linalg.cond(gram)
        singular = ~np.isfinite(cond) | (cond > _GRAM_COND_LIMIT)
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
    diag = np.diagonal(coupling, axis1=-2, axis2=-1)
    desired = np.abs(diag) ** 2
    interference = (np.abs(coupling) ** 2).sum(axis=-1) - desired
    noise = noise_power * (np.abs(w) ** 2).sum(axis=-1)
    denom = interference + noise
    # a zero filter row with positive noise power carries no signal: 0
    gammas = np.zeros_like(desired)
    np.divide(desired, denom, out=gammas, where=denom > 0)
    gammas[(denom == 0) & (desired > 0)] = np.inf
    return coupling, diag, desired, denom, gammas


def sinr(combiner, channel, noise_power: float) -> np.ndarray:
    """Per-user SINR of `combiner` rows against the true `channel`.

    gamma_k = |row_k . h_k|^2 / (sum_{i != k} |row_k . h_i|^2
              + noise_power * ||row_k||^2); scale-invariant in each row.
    """
    w = np.asarray(combiner, dtype=np.complex128)
    h = _as_channel(channel)
    if noise_power < 0:
        raise ValueError("noise power must be >= 0")
    if w.shape != h.shape[:-2] + (h.shape[-1], h.shape[-2]):
        raise ValueError("combiner must be (users x antennas) matching the channel")
    _, _, desired, denom, gammas = _sinr_parts(w, h, noise_power)
    if noise_power == 0 and ((denom == 0) & (desired == 0)).any():
        raise ValueError("0/0 SINR: zero filter row with zero noise power")
    return gammas


def _check_weights(weights, users: int) -> np.ndarray:
    """Validated user weights: (users,) or a stack (..., users)."""
    if weights is None:
        return np.full(users, 1.0 / users)
    a = np.asarray(weights, dtype=np.float64)
    if a.ndim < 1 or a.shape[-1] != users:
        raise ValueError("one weight per user required")
    if (a < 0).any() or (np.abs(a.sum(axis=-1) - 1.0) > 1e-12).any():
        raise ValueError("weights must be nonnegative and sum to 1")
    return a


def _weighted_rate(gammas, weights):
    """sum_k weights_k * log2(1 + gammas_k) over the last axis; a float
    for one matrix, an array for a stack."""
    terms = np.where(weights > 0, weights * np.log1p(gammas) / LOG2, 0.0)
    total = terms.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def sum_rate(combiner, channel, noise_power: float, weights=None):
    """Weighted sum rate sum_k weights_k * log2(1 + sinr_k) in bps/Hz;
    a float for one matrix, one rate per entry for a stack.

    Its negative is the training-style loss when the combiner was
    derived from an estimate but evaluated against the true channel.
    """
    gammas = sinr(combiner, channel, noise_power)
    return _weighted_rate(gammas, _check_weights(weights, gammas.shape[-1]))


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


def _rate_and_gradient(w, h, noise_power, weights):
    """Sum rate plus its gradient packed as a complex array G with
    G = dJ/dRe(W) + 1j * dJ/dIm(W), so W + lr * G is a real-space
    gradient-ascent step.  The rate is exactly `sum_rate`'s."""
    coupling, diag, desired, denom, gamma = _sinr_parts(w, h, noise_power)
    rate = _weighted_rate(gamma, weights)

    h_rows = h.conj().swapaxes(-1, -2)  # row i = conj(h_i)^T
    d_desired = diag[..., :, None] * h_rows
    d_denom = coupling @ h_rows - d_desired + noise_power * w
    coeff = weights / (LOG2 * (1.0 + gamma))
    grad = 2.0 * coeff[..., :, None] * (d_desired * denom[..., :, None] - desired[..., :, None] * d_denom) / (denom**2)[..., :, None]
    return rate, grad


def sum_rate_gradient(combiner, channel, noise_power: float, weights=None) -> np.ndarray:
    """Analytic gradient of `sum_rate` w.r.t. the combiner, packed as
    complex (real part = d/dRe, imaginary part = d/dIm)."""
    w = np.asarray(combiner, dtype=np.complex128)
    h = _as_channel(channel)
    alpha = _check_weights(weights, h.shape[-1])
    if noise_power <= 0:
        raise ValueError("gradient needs noise power > 0")
    return _rate_and_gradient(w, h, noise_power, alpha)[1]


def finite_difference_gradient(combiner, channel, noise_power, weights=None, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of `sum_rate` over the 2*users*antennas
    real parameters, packed like `sum_rate_gradient`; on a stack, every
    entry's parameter is bumped at once."""
    w = np.asarray(combiner, dtype=np.complex128).copy()
    grad = np.zeros_like(w)
    for k in range(w.shape[-2]):
        for m in range(w.shape[-1]):
            for part, bump in ((1.0, 1.0), (1.0j, 1.0j)):
                orig = w[..., k, m].copy()
                w[..., k, m] = orig + step * bump
                up = sum_rate(w, channel, noise_power, weights)
                w[..., k, m] = orig - step * bump
                down = sum_rate(w, channel, noise_power, weights)
                w[..., k, m] = orig
                slope = (up - down) / (2.0 * step)
                grad[..., k, m] += slope * part
    return grad


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each last-axis vector onto the probability simplex."""
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    n = v.shape[-1]
    above = u * np.arange(1, n + 1) > (css - 1.0)
    rho = n - 1 - np.argmax(above[..., ::-1], axis=-1)[..., None]  # last index where `above` holds
    theta = (np.take_along_axis(css, rho, axis=-1) - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient-ascent settings for direct sum-rate maximization.

    gradient "fd" recomputes central differences each step (slow, exact
    contract); "analytic" uses the closed-form gradient, which the test
    suite checks against finite differences.  Every `lookahead_every`
    steps (0: never) the slow weights absorb the fast iterate with
    coefficient `lookahead_coeff` and the fast iterate restarts there.
    """

    step_size: float = 0.05
    iterations: int = 300
    lookahead_every: int = 13
    lookahead_coeff: float = 0.5
    gradient: str = "fd"
    fd_step: float = 1e-6
    optimize_weights: bool = False

    def __post_init__(self):
        if self.gradient not in ("fd", "analytic"):
            raise ValueError("gradient must be 'fd' or 'analytic'")
        if not (0.0 <= self.lookahead_coeff <= 1.0):
            raise ValueError("lookahead coefficient must be in [0, 1]")
        if self.iterations < 0 or self.lookahead_every < 0:
            raise ValueError("iterations and lookahead_every must be >= 0")
        if not all(math.isfinite(x) and x > 0 for x in (self.step_size, self.fd_step)):
            raise ValueError("step size and finite-difference step must be finite and > 0")


@dataclass
class OptimizeResult:
    combiner: np.ndarray
    trace: np.ndarray  # best-so-far rate per iteration (monotone) on the last axis
    weights: np.ndarray

    @property
    def rate(self):
        """Best rate: a float for one channel, one per entry for a stack."""
        best = self.trace[..., -1]
        return float(best) if best.ndim == 0 else best


def optimize_sum_rate(
    channel_est,
    channel_true,
    noise_power: float,
    config: OptimizerConfig | None = None,
    initial=None,
    weights=None,
) -> OptimizeResult:
    """Directly maximize the weighted sum rate over the combiner, for one
    channel matrix or a stack (..., antennas, users) in one ascent loop.

    Projected gradient ascent starting from the power-projected MMSE
    combiner of the channel estimate; the objective is evaluated
    against the true channel, so with an imperfect estimate this plays
    the role the training loss plays for a learned beamformer.  The
    returned trace is the best rate seen up to each iteration and is
    non-decreasing by construction.  Every stack entry keeps its own
    best iterate, weights and trace, exactly as if it ran alone.

    `initial` overrides the starting combiner (a random start is
    `power_project` of a seeded draw) and `weights` the uniform user
    weights; both broadcast over the stack.  `config.optimize_weights`
    co-optimizes the user weights on the probability simplex.
    """
    cfg = config or OptimizerConfig()
    h_est = _as_channel(channel_est)
    h_true = _as_channel(channel_true)
    if h_est.shape != h_true.shape:
        raise ValueError("estimate and true channel must share a shape")
    antennas, users = h_true.shape[-2:]
    if antennas > 16 or users > 4:
        raise ValueError("optimizer is desk-scale: antennas <= 16, users <= 4")
    if noise_power <= 0:
        raise ValueError("optimization needs noise power > 0")
    stack = h_true.shape[:-2]
    alpha = _check_weights(weights, users)
    best_alpha = np.broadcast_to(alpha, stack + (users,))
    if initial is None:
        fast = power_project(mmse_combiner(h_est, noise_power))
    else:
        start = np.broadcast_to(np.asarray(initial, dtype=np.complex128), stack + (users, antennas))
        fast = power_project(np.ascontiguousarray(start))
    slow = fast

    def rate_and_gradient(w, a):
        if cfg.gradient == "analytic":
            return _rate_and_gradient(w, h_true, noise_power, a)
        return sum_rate(w, h_true, noise_power, a), None  # the gradient is taken when stepping

    best_rate, grad = rate_and_gradient(fast, alpha)
    best_w = fast
    trace = [best_rate]
    for step in range(1, cfg.iterations + 1):
        if grad is None:
            grad = finite_difference_gradient(fast, h_true, noise_power, alpha, step=cfg.fd_step)
        fast = power_project(fast + cfg.step_size * grad)
        if cfg.optimize_weights:
            gammas = sinr(fast, h_true, noise_power)
            alpha = _project_simplex(alpha + cfg.step_size * np.log1p(gammas) / LOG2)
        if cfg.lookahead_every and step % cfg.lookahead_every == 0:
            slow = lookahead_update(slow, fast, cfg.lookahead_coeff)
            fast = slow.copy()
        current, grad = rate_and_gradient(fast, alpha)
        better = np.asarray(current > best_rate)
        best_rate = np.where(better, current, best_rate)
        best_w = np.where(better[..., None, None], fast, best_w)
        best_alpha = np.where(better[..., None], alpha, best_alpha)
        trace.append(best_rate)
    return OptimizeResult(combiner=np.array(best_w), trace=np.stack(trace, axis=-1), weights=np.array(best_alpha))


def sweep_optimizer_config(iterations: int = 100) -> OptimizerConfig:
    """Optimizer settings used by the benchmark sweep: analytic gradient
    for tractable batch sizes, otherwise the standard defaults."""
    return replace(OptimizerConfig(), gradient="analytic", iterations=iterations)
