"""Benchmark sweeps comparing linear beamformers over fading draws.

Protocol per realization: draw one slot of the Doppler channel, take
the channel at the first symbol / center subcarrier as the estimation
snapshot (plus optional additive estimation error), build each
method's combiner from that estimate, then score the combiner against
the true channel at the last symbol of the slot.  The slot-length lag
is what makes the velocity axis matter: at high Doppler the estimate
decorrelates from the channel it is used on, which is exactly the
regime the sweep is probing.  Everything is seeded and byte-stable.

Each (velocity, SNR) cell is evaluated as one stack: the fading of
every realization is computed only at those two points, and each
method builds and scores all of the cell's combiners in one call.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _buildinfo, beamforming
from .beamforming import (
    OptimizerConfig,
    mmse_combiner,
    optimize_sum_rate,  # unused here; perfbench's span tracer wraps bench.optimize_sum_rate
    power_project,
    sinr,
    sum_rate,
    sweep_optimizer_config,
    zf_combiner,
)
from .channel import DopplerConfig, OfdmConfig, _generate_true, add_estimation_error
from .errors import SingularChannelError

KNOWN_METHODS = ("zf", "mmse", "opt")

_RESAMPLE_BUDGET = 1e-3  # singular draws must stay under 0.1% of attempts


@dataclass(frozen=True)
class SweepConfig:
    """Axes and fixed parameters of a beamformer comparison sweep."""

    snr_db_list: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    velocity_ranges: tuple = ((0.0, 10.0), (30.0, 40.0))
    rx_antennas: int = 8
    users: int = 2
    realizations: int = 500
    est_snr_db: float = math.inf
    methods: tuple = KNOWN_METHODS
    seed: int = 0
    carrier_hz: float = 2.6e9
    num_sinusoids: int = 32
    ofdm: OfdmConfig = field(default_factory=OfdmConfig)
    optimizer: OptimizerConfig = field(default_factory=lambda: sweep_optimizer_config())

    def __post_init__(self):
        if not self.snr_db_list or not self.velocity_ranges:
            raise ValueError("need at least one SNR point and one velocity range")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        bad = set(self.methods) - set(KNOWN_METHODS)
        if bad or not self.methods:
            raise ValueError(f"methods must be a non-empty subset of {KNOWN_METHODS}")


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
        return {
            "method": self.method,
            "snr_db": self.snr_db,
            "v_min": self.v_min,
            "v_max": self.v_max,
            "mean_sum_rate": self.mean_sum_rate,
            "stderr": self.stderr,
            "realizations": self.realizations,
            "per_ue_mean_sinr": list(self.per_ue_mean_sinr),
            "resampled": self.resampled,
        }


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

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SweepResult":
        meta = payload["metadata"]
        points = [SweepPoint(**entry) for entry in payload["points"]]
        return cls(
            points=points,
            seed=meta["seed"],
            version=meta["version"],
            build=meta["build"],
            timestamp=meta["timestamp"],
        )

    def __eq__(self, other):
        if not isinstance(other, SweepResult):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()


def combiner(method: str, estimate, target, sigma2: float, optimizer: OptimizerConfig) -> np.ndarray:
    """Combiner of `method` built from the channel `estimate`, one matrix
    or a stack (..., antennas, users); `opt` also climbs the sum rate
    against `target`.  The callees resolve through this module's
    globals, so wrapping them here (perfbench's tracer does) covers both
    the sweep and the CLI; the optimizer is the exception."""
    if method == "zf":
        return power_project(zf_combiner(estimate))
    if method == "mmse":
        return power_project(mmse_combiner(estimate, sigma2))
    if method == "opt":
        # via the module: the tracer's optimizer hook takes one matrix only (ROADMAP item 1)
        return beamforming.optimize_sum_rate(estimate, target, sigma2, optimizer).combiner
    raise ValueError(f"unknown method {method!r}; expected one of {KNOWN_METHODS}")


def _cell(config: SweepConfig, point_key, sigma2, velocity_range):
    """Rates (R,) and SINRs (R, users) per method for one (velocity,
    SNR) cell, plus the number of resampled draws.

    Realization r at attempt a draws from the derived seed (seed, cell,
    r, a).  Every method runs once on the stack of the cell's draws; an
    entry that is singular for any method is redrawn at the next
    attempt, the others keep their results.
    """
    ofdm = config.ofdm
    doppler = DopplerConfig(
        carrier_hz=config.carrier_hz,
        velocity_mps=velocity_range,
        num_sinusoids=config.num_sinusoids,
    )
    # the pilot (first symbol) and the target (last symbol), centre subcarrier
    points = ((0, ofdm.symbols - 1), (ofdm.subcarriers // 2,))
    shape = (config.realizations, config.rx_antennas, config.users)
    estimate = np.empty(shape, dtype=np.complex128)
    target = np.empty(shape, dtype=np.complex128)
    rates = {m: np.empty(config.realizations) for m in config.methods}
    sinrs = {m: np.empty((config.realizations, config.users)) for m in config.methods}
    todo = np.arange(config.realizations)
    resampled = 0
    for attempt in range(64):
        for r in todo:
            draw_seed = (config.seed, *point_key, int(r), attempt)
            rng = np.random.default_rng(draw_seed)
            pilot, target[r] = _generate_true(ofdm, doppler, config.rx_antennas, config.users, rng, *points)[:, 0]
            estimate[r] = add_estimation_error(pilot, config.est_snr_db, (*draw_seed, 1))
        ok = np.ones(todo.size, dtype=bool)
        while ok.any():
            live = todo[ok]
            est, tgt = estimate[live], target[live]
            try:
                for method in config.methods:
                    w = combiner(method, est, tgt, sigma2, config.optimizer)
                    rates[method][live] = sum_rate(w, tgt, sigma2)
                    sinrs[method][live] = sinr(w, tgt, sigma2)
                break
            except SingularChannelError as exc:
                ok[ok] = ~exc.singular
        todo = todo[~ok]
        if not todo.size:
            return rates, sinrs, resampled
        resampled += todo.size
    raise RuntimeError("could not draw a non-singular channel in 64 attempts")


def run_sweep(config: SweepConfig, timestamp: str | None = None, progress=None) -> SweepResult:
    """Evaluate every (method, SNR, velocity range) cell of the sweep.

    Deterministic for a fixed config: realization r of cell c always
    uses the derived seed (seed, cell indices, r, attempt), so results
    do not depend on execution order.  `progress(velocity_range,
    snr_db)` is called once per finished cell.
    """
    points: list[SweepPoint] = []
    for v_idx, velocity_range in enumerate(config.velocity_ranges):
        for s_idx, snr_db in enumerate(config.snr_db_list):
            sigma2 = 10.0 ** (-snr_db / 10.0)
            point_key = (v_idx, s_idx)
            cell_rates, cell_sinrs, resampled = _cell(config, point_key, sigma2, velocity_range)
            if resampled > _RESAMPLE_BUDGET * max(1, config.realizations + resampled):
                raise RuntimeError(
                    f"singular-channel resample rate above 0.1%: {resampled} resamples"
                )
            for method in config.methods:
                rates, sinrs = cell_rates[method], cell_sinrs[method]
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
            if progress is not None:
                progress(velocity_range, snr_db)
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
        payload = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    elif fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(result.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError("format must be 'csv' or 'json'")


def load_report_json(path) -> SweepResult:
    with open(path, "r", encoding="utf-8") as fh:
        return SweepResult.from_json_dict(json.load(fh))
