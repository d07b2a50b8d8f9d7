"""Benchmark sweeps comparing linear beamformers over fading draws.

Protocol per realization: draw one slot of the Doppler channel, take
the channel at the first symbol / center subcarrier as the estimation
snapshot (plus optional additive estimation error), build each
method's combiner from that estimate, then score the combiner against
the true channel at the last symbol of the slot.  The slot-length lag
is what makes the velocity axis matter: at high Doppler the estimate
decorrelates from the channel it is used on, which is exactly the
regime the sweep is probing.  Everything is seeded and byte-stable.

Each velocity's realizations are drawn once and scored at every SNR
point, since the SNR only scales the noise (common random numbers):
the fading of every realization is computed only at those two points.
Each method then builds and scores the combiners of all velocities'
draws in passes of consecutive draws, each pass at all SNR points on
an (SNR points, draws) stack with one noise power per SNR point.
"""

from __future__ import annotations

import contextlib
import datetime
import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _buildinfo, beamforming
from .beamforming import (
    OptimizerConfig,
    _rate,
    mmse_combiner,
    optimize_sum_rate,  # unused here; perfbench's span tracer wraps bench.optimize_sum_rate
    power_project,
    sinr,
    sum_rate,  # unused here; perfbench's span tracer wraps bench.sum_rate
    zf_combiner,
)
from .channel import DopplerConfig, OfdmConfig, _generate_true, add_estimation_error
from .errors import SingularChannelError, _check_count

KNOWN_METHODS = ("zf", "mmse", "opt")

_RESAMPLE_BUDGET = 1e-3  # singular draws must stay under 0.1% of attempts
# Channel values (draws x antennas x users x SNR points) per stacked
# scoring pass: the optimizer's time per stack entry (one draw at one
# SNR point) of 8x2 is about 133 us at 500-1000 entries and 160-173 us
# at 2000-3500, as its temporaries outgrow the cache.  A pass holds
# 146 draws of 8x2 at 7 SNR points (1022 entries), so the default
# 500-realization sweep takes 7 passes and the 8-realization one, 1.
_PASS_VALUES = 16384


@dataclass(frozen=True)
class SweepConfig:
    """Axes and fixed parameters of a beamformer comparison sweep; every
    cell draws the default `OfdmConfig` slot and `DopplerConfig` fading."""

    snr_db_list: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    velocity_ranges: tuple = ((0.0, 10.0), (30.0, 40.0))
    rx_antennas: int = 8
    users: int = 2
    realizations: int = 500
    est_snr_db: float = math.inf
    methods: tuple = KNOWN_METHODS
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        with _field("snr_db_list"):
            for snr in self.snr_db_list:
                _noise_power(snr)
            if len(self.snr_db_list) == 0:
                raise ValueError("snr_db_list: need at least one SNR point")
        with _field("velocity_ranges"):
            for velocity_range in self.velocity_ranges:
                try:
                    if np.shape(velocity_range) != (2,):
                        raise ValueError("not a (lo, hi) pair")
                    DopplerConfig(velocity_mps=velocity_range)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"velocity_ranges: {velocity_range!r}: {exc}") from None
            if len(self.velocity_ranges) == 0:
                raise ValueError("velocity_ranges: need at least one velocity range")
        if not isinstance(self.optimizer, OptimizerConfig):
            raise ValueError(f"optimizer must be an OptimizerConfig, got {self.optimizer!r}")
        for name in ("realizations", "rx_antennas", "users"):
            _check_count(name, getattr(self, name), 1)
        _check_count("seed", self.seed, 0)
        with _field("est_snr_db"):
            if not (math.isfinite(self.est_snr_db) or self.est_snr_db == math.inf):
                raise ValueError(f"est_snr_db must be finite or +inf, got {self.est_snr_db}")
        with _field("methods"):
            bad = set(self.methods) - set(KNOWN_METHODS)
            if bad or len(self.methods) == 0 or len(set(self.methods)) < len(self.methods):
                raise ValueError(f"methods must be a non-empty subset of {KNOWN_METHODS}, each named once")
        if "zf" in self.methods and self.rx_antennas < self.users:
            raise ValueError("zf needs rx_antennas >= users")


@contextlib.contextmanager
def _field(name: str):
    """A TypeError of the block (an axis that is not a sequence, an
    entry that is not a number) as a ValueError naming field `name`."""
    try:
        yield
    except TypeError as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass
class SweepPoint:
    method: str
    snr_db: float
    v_min: float
    v_max: float
    mean_sum_rate: float
    stderr: float
    realizations: int
    per_ue_mean_sinr: list[float]
    resampled: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepResult:
    points: list[SweepPoint]
    seed: int
    version: str
    build: str
    timestamp: str

    def to_json_dict(self) -> dict:
        return {
            "points": [p.to_json_dict() for p in self.points],
            "metadata": {
                "seed": self.seed,
                "version": self.version,
                "build": self.build,
                "timestamp": self.timestamp,
            },
        }


def _stacked(array, sigma2) -> np.ndarray:
    """`array`, one matrix or a stack, broadcast over its leading axes
    against the noise power `sigma2`, a float or an array."""
    lead = np.broadcast_shapes(np.shape(sigma2), np.shape(array)[:-2])
    return np.broadcast_to(array, lead + np.shape(array)[-2:])


def combiner(method: str, estimate, target, sigma2, optimizer: OptimizerConfig) -> np.ndarray:
    """Combiner of `method` built from the channel `estimate`, one matrix
    or a stack (..., antennas, users), at the noise power `sigma2`, a
    float or an array that broadcasts against the stack's leading axes;
    `opt` also climbs the sum rate against `target`.  ZF ignores the
    noise, so it is built once per channel as given; the other methods
    cover the broadcast stack.  The callees resolve through this
    module's globals, so wrapping them here (perfbench's tracer does)
    covers both the sweep and the CLI; the optimizer is the exception."""
    if method == "zf":
        return power_project(zf_combiner(estimate))
    estimate, target = _stacked(estimate, sigma2), _stacked(target, sigma2)
    if method == "mmse":
        return power_project(mmse_combiner(estimate, sigma2))
    if method == "opt":
        # via the module: the tracer's optimizer hook takes one matrix only (ROADMAP item 1)
        return beamforming.optimize_sum_rate(estimate, target, sigma2, optimizer).combiner
    raise ValueError(f"unknown method {method!r}; expected one of {KNOWN_METHODS}")


def score(methods, estimate, target, sigma2, optimizer: OptimizerConfig) -> dict:
    """{method: (rates, sinrs)} of each method's combiner built from
    `estimate` as in `combiner` and scored against `target` over the
    stack broadcast against `sigma2`: R channels against an (S, 1)
    column of noise powers give (S, R) scores in one pass.  The one
    scoring path of the sweep and the `beamform` command.  A singular
    entry raises `SingularChannelError` with `.singular` over that
    stack, its message naming the method."""
    target = _stacked(target, sigma2)
    scores = {}
    for method in methods:
        try:
            w = combiner(method, estimate, target, sigma2, optimizer)
        except SingularChannelError as exc:
            raise SingularChannelError(f"{exc}: {method}", np.broadcast_to(exc.singular, target.shape[:-2])) from exc
        gammas = sinr(_stacked(w, sigma2), target, sigma2)
        scores[method] = _rate(gammas), gammas
    return scores


def _noise_power(snr_db: float) -> float:
    """Noise power 10^(-snr_db / 10) of the unit-power link; an SNR so
    extreme that it underflows to 0 or overflows raises ValueError
    naming the SNR."""
    try:
        sigma2 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"SNR {snr_db:g} dB gives noise power {sigma2:g}; it must be finite and > 0")
    return sigma2


def pilot_and_target(symbols: int, subcarriers: int) -> tuple:
    """The protocol's (symbol indices, subcarrier indices): the pilot at
    the first symbol and the target at the last, both at the centre
    subcarrier."""
    return (0, symbols - 1), (subcarriers // 2,)


def _sweep_scores(config: SweepConfig, progress):
    """Rates (S, V x R) and SINRs (S, V x R, users) per method of the
    V x R draws, velocity-major, at the S SNR points, plus each
    velocity's number of resampled draws, as `run_sweep` describes.
    Each attempt scores its draws in passes of as many consecutive draws
    as fit `_PASS_VALUES` at all S SNR points, the noise powers an
    (S, 1) column; a pass may span velocities."""
    ofdm = OfdmConfig()
    dopplers = [DopplerConfig(velocity_mps=velocity_range) for velocity_range in config.velocity_ranges]
    points = pilot_and_target(ofdm.symbols, ofdm.subcarriers)
    draws = config.realizations
    shape = (len(dopplers) * draws, config.rx_antennas, config.users)
    estimate = np.empty(shape, dtype=np.complex128)
    target = np.empty(shape, dtype=np.complex128)
    sigma2 = np.array([_noise_power(snr_db) for snr_db in config.snr_db_list])[:, None]
    rates = {m: np.empty((sigma2.size, shape[0])) for m in config.methods}
    sinrs = {m: np.empty((sigma2.size, shape[0], config.users)) for m in config.methods}
    chunk = max(1, _PASS_VALUES // (sigma2.size * config.rx_antennas * config.users))
    todo = np.arange(shape[0])
    resampled = np.zeros(len(dopplers), dtype=np.int64)
    for attempt in itertools.count():
        for entry in todo:
            v, r = divmod(int(entry), draws)
            draw_seed = (config.seed, v, 0, r, attempt)
            rng = np.random.default_rng(draw_seed)
            pilot, target[entry] = _generate_true(ofdm, dopplers[v], config.rx_antennas, config.users, rng, *points)[:, 0]
            estimate[entry] = add_estimation_error(pilot, config.est_snr_db, (*draw_seed, 1))
        ok = np.ones(todo.size, dtype=bool)
        for first in range(0, todo.size, chunk):
            entries, live = todo[first : first + chunk], ok[first : first + chunk]
            while live.any():
                picked = entries[live]
                try:
                    scores = score(config.methods, estimate[picked], target[picked], sigma2, config.optimizer)
                except SingularChannelError as exc:
                    live[live] = ~exc.singular.any(axis=0)
                    continue
                for method, (method_rates, method_sinrs) in scores.items():
                    rates[method][:, picked] = method_rates
                    sinrs[method][:, picked] = method_sinrs
                break
            if attempt == 0 and progress is not None:
                for velocity_range in config.velocity_ranges[first // draws : (first + entries.size) // draws]:
                    for snr_db in config.snr_db_list:
                        progress(velocity_range, snr_db)
        todo = todo[~ok]
        if not todo.size:
            return rates, sinrs, resampled
        resampled += np.bincount(todo // draws, minlength=len(dopplers))
        for count in resampled:
            if count > _RESAMPLE_BUDGET * (draws + count):
                raise RuntimeError(f"singular-channel resample rate above 0.1%: {count} resamples")


def run_sweep(config: SweepConfig, timestamp: str | None = None, progress=None) -> SweepResult:
    """Evaluate every (method, SNR, velocity range) cell of the sweep.

    Deterministic for a fixed config: realization r of velocity v always
    uses the derived seed (seed, v, 0, r, attempt), so results do not
    depend on execution order, and every SNR point scores the same
    draws.  Dropping SNR points therefore leaves the others unchanged,
    and the first SNR point, like every one-SNR sweep, gives the bytes
    of sparsebeam 0.2.0, where each SNR point drew its own channels.
    Each method scores all draws at all SNR points in passes of
    `_PASS_VALUES` channel values, exactly as it would score them one
    draw and one SNR point at a time.  A draw that is singular for any
    method at any SNR point is redrawn at the next attempt, after all
    of this attempt's passes; a redraw that would take a velocity's
    resamples above 0.1% of its draws raises instead.
    `progress(velocity_range, snr_db)` is called once per cell,
    velocity-major and in SNR order, a velocity's calls right after the
    first attempt's pass that scored its last draw.
    """
    cell_rates, cell_sinrs, resampled = _sweep_scores(config, progress)
    points: list[SweepPoint] = []
    for v, velocity_range in enumerate(config.velocity_ranges):
        entries = slice(v * config.realizations, (v + 1) * config.realizations)
        for s_idx, snr_db in enumerate(config.snr_db_list):
            for method in config.methods:
                rates, sinrs = cell_rates[method][s_idx, entries], cell_sinrs[method][s_idx, entries]
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
                        resampled=int(resampled[v]),
                    )
                )
    stamp = timestamp if timestamp is not None else datetime.datetime.now(datetime.timezone.utc).isoformat()
    return SweepResult(
        points=points,
        seed=config.seed,
        version=_buildinfo.VERSION,
        build=_buildinfo.build_hash(),
        timestamp=stamp,
    )


CSV_HEADER = "method,snr_db,v_min,v_max,mean_sum_rate,stderr,realizations"


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8 with "\\n" line ends: the
    package's one way to write a text file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def export_report(result: SweepResult, fmt: str, path) -> None:
    """Write the sweep result as CSV (fixed columns, stable float
    formatting, byte-identical across reruns of the same config) or as
    JSON mirroring SweepResult including run metadata."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for p in result.points:
            lines.append(
                ",".join(
                    [
                        p.method,
                        _fmt(p.snr_db),
                        _fmt(p.v_min),
                        _fmt(p.v_max),
                        _fmt(p.mean_sum_rate),
                        _fmt(p.stderr),
                        str(p.realizations),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError("format must be 'csv' or 'json'")
    _write_text(path, text)
