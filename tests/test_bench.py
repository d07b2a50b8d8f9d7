"""Sweep harness: determinism, aggregation arithmetic, export formats,
and the batched cell engine against the scalar per-realization protocol."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import sweep_points_reference

from sparsebeam import (
    OptimizerConfig,
    SweepConfig,
    beamforming,
    bench,
    export_report,
    run_sweep,
)
from sparsebeam.bench import CSV_HEADER, SweepResult


SMALL = SweepConfig(
    snr_db_list=(0.0, 20.0),
    velocity_ranges=((0.0, 10.0),),
    realizations=12,
    methods=("zf", "mmse"),
    seed=123,
)


@pytest.fixture(scope="module")
def small_result():
    return run_sweep(SMALL, timestamp="1970-01-01T00:00:00+00:00")


class TestRunSweep:
    def test_point_grid_shape(self, small_result):
        assert len(small_result.points) == 2 * 1 * 2  # methods x velocity x snr
        methods = {p.method for p in small_result.points}
        assert methods == {"zf", "mmse"}

    def test_repeat_is_identical(self, small_result):
        again = run_sweep(SMALL, timestamp="1970-01-01T00:00:00+00:00")
        assert again == small_result

    def test_equality_sees_timestamp_and_rates(self, small_result):
        assert dataclasses.replace(small_result, timestamp="t") != small_result
        points = list(small_result.points)
        points[1] = dataclasses.replace(points[1], mean_sum_rate=points[1].mean_sum_rate + 1e-12)
        assert dataclasses.replace(small_result, points=points) != small_result

    def test_mmse_at_least_zf_low_snr(self, small_result):
        by_key = {(p.method, p.snr_db): p for p in small_result.points}
        assert by_key[("mmse", 0.0)].mean_sum_rate >= by_key[("zf", 0.0)].mean_sum_rate - 3 * by_key[("zf", 0.0)].stderr

    def test_realization_counts_and_finiteness(self, small_result):
        for p in small_result.points:
            assert p.realizations == 12
            assert math.isfinite(p.mean_sum_rate) and math.isfinite(p.stderr)
            assert len(p.per_ue_mean_sinr) == 2
            assert p.resampled == 0

    def test_opt_beats_zf_at_high_snr_perfect_csi(self):
        cfg = SweepConfig(
            snr_db_list=(20.0,),
            velocity_ranges=((0.0, 10.0),),
            realizations=25,
            methods=("zf", "opt"),
            seed=7,
        )
        result = run_sweep(cfg, timestamp="t")
        by_method = {p.method: p.mean_sum_rate for p in result.points}
        assert by_method["opt"] >= by_method["zf"] - 1e-3

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="once"):
            SweepConfig(methods=("zf", "zf"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(methods=("zf", "dirty"))
        with pytest.raises(ValueError):
            SweepConfig(realizations=0)
        with pytest.raises(ValueError):
            SweepConfig(snr_db_list=())
        for snr in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                SweepConfig(snr_db_list=(0.0, snr))
        # an axis that is not a sequence, or an entry that is not a
        # number, used to raise a TypeError that named no field
        for fields in (dict(snr_db_list=5.0), dict(snr_db_list=("a",)), dict(methods=5), dict(est_snr_db="x")):
            (name,) = fields
            with pytest.raises(ValueError, match=f"^{name}: "):
                SweepConfig(**fields)
        # a negative seed used to construct and then fail inside numpy
        for seed in (-1, 1.5, True, None):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                SweepConfig(seed=seed)

    @pytest.mark.parametrize("snr, power", [(4000.0, "0"), (-4000.0, "inf")])
    def test_snr_must_give_a_finite_positive_noise_power(self, snr, power):
        with pytest.raises(ValueError, match=f"SNR {snr:g} dB gives noise power {power}"):
            SweepConfig(snr_db_list=(0.0, snr))

    @pytest.mark.parametrize("axis", ["rx_antennas", "users"])
    def test_empty_antenna_or_user_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=f"{axis} must be an integer >= 1"):
            SweepConfig(snr_db_list=(10.0,), velocity_ranges=((0.0, 10.0),), realizations=2, **{axis: 0})

    @pytest.mark.parametrize("field", ["realizations", "rx_antennas", "users"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0), "2", None],
                             ids=["2.5", "float", "True", "float64", "str", "None"])
    def test_counts_must_be_non_bool_integers(self, field, value):
        # a float or a bool used to construct and then die in the sweep
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            SweepConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        config = SweepConfig(realizations=np.int64(3), rx_antennas=np.int32(4), users=np.uint8(2))
        assert (config.realizations, config.rx_antennas, config.users) == (3, 4, 2)

    @pytest.mark.parametrize("est_snr_db", [math.nan, -math.inf])
    def test_estimation_snr_must_be_finite_or_inf(self, est_snr_db):
        with pytest.raises(ValueError, match="est_snr_db must be finite or \\+inf"):
            SweepConfig(est_snr_db=est_snr_db)

    @pytest.mark.parametrize("ranges, shown", [
        ((5.0,), "5.0: not a (lo, hi) pair"),
        (((0.0, 10.0, 20.0),), "(0.0, 10.0, 20.0): not a (lo, hi) pair"),
        ((((0.0, 1.0), (2.0, 3.0)),), "((0.0, 1.0), (2.0, 3.0)): not a (lo, hi) pair"),
        (((0.0, 10.0), (40.0, 30.0)), "(40.0, 30.0): velocity range must be finite with 0 <= lo <= hi"),
        (((0.0, math.nan),), "(0.0, nan): velocity range must be finite"),
        (((-1.0, 2.0),), "(-1.0, 2.0): velocity range must be finite"),
        (((0.0, "fast"),), "(0.0, 'fast'): could not convert"),
        (((None, 1.0),), "(None, 1.0): float() argument"),
        (5.0, "'float' object is not iterable"),
    ], ids=["scalar", "triple", "nested", "reversed", "nan", "negative", "str", "None", "not_a_sequence"])
    def test_velocity_ranges_must_be_valid_pairs(self, ranges, shown):
        # each used to construct and then fail in run_sweep, some only
        # after scoring the velocities before them
        with pytest.raises(ValueError, match="^" + re.escape(f"velocity_ranges: {shown}")):
            SweepConfig(velocity_ranges=ranges)

    def test_velocity_pairs_may_be_lists_or_arrays(self):
        config = SweepConfig(velocity_ranges=([0, 10], np.array([30.0, 40.0]), (5.0, 5.0)))
        assert len(config.velocity_ranges) == 3

    def test_array_axes_give_the_tuple_configs_bytes(self, tmp_path):
        # an axis array of more than one entry used to raise numpy's
        # "truth value of an array ... is ambiguous", naming no field
        tuples = dataclasses.replace(SMALL, velocity_ranges=((0.0, 10.0), (30.0, 40.0)), realizations=3)
        arrays = dataclasses.replace(
            tuples,
            snr_db_list=np.array(tuples.snr_db_list),
            velocity_ranges=np.array(tuples.velocity_ranges),
            methods=np.array(tuples.methods),
        )
        for name, config in (("tuples", tuples), ("arrays", arrays)):
            export_report(run_sweep(config, timestamp="t"), "csv", tmp_path / f"{name}.csv")
        assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "tuples.csv").read_bytes()

    @pytest.mark.parametrize("field, empty", [("snr_db_list", np.array([])), ("velocity_ranges", np.zeros((0, 2))),
                                              ("methods", np.array([], dtype=str)), ("snr_db_list", ())])
    def test_empty_axis_rejected_naming_the_field(self, field, empty):
        with pytest.raises(ValueError, match=f"^{field}"):
            SweepConfig(**{field: empty})

    @pytest.mark.parametrize("optimizer", ["x", None, {"iterations": 5}])
    def test_optimizer_must_be_an_optimizer_config(self, optimizer):
        with pytest.raises(ValueError, match="optimizer must be an OptimizerConfig"):
            SweepConfig(optimizer=optimizer)

    def test_zf_needs_as_many_antennas_as_users(self):
        # every zf draw would be singular, so the sweep would redraw in vain
        with pytest.raises(ValueError, match="zf needs rx_antennas >= users"):
            SweepConfig(rx_antennas=2, users=4, methods=("zf",))
        with pytest.raises(ValueError, match="zf needs rx_antennas >= users"):
            SweepConfig(rx_antennas=2, users=4)

    def test_regularized_methods_run_with_more_users_than_antennas(self):
        config = SweepConfig(
            snr_db_list=(10.0,), velocity_ranges=((0.0, 10.0),), rx_antennas=2, users=4, realizations=3,
            methods=("mmse", "opt"), optimizer=OptimizerConfig(iterations=2),
        )
        points = run_sweep(config, timestamp="t").points
        assert [p.method for p in points] == ["mmse", "opt"]
        for p in points:
            assert p.resampled == 0 and len(p.per_ue_mean_sinr) == 4
            assert math.isfinite(p.mean_sum_rate) and p.mean_sum_rate > 0


def _as_dicts(points):
    return [p.to_json_dict() for p in points]


# Each config stresses one axis of the engine; all use both velocity ranges.
ORACLE_CONFIGS = {
    "est_snr_10db": dict(est_snr_db=10.0),
    "one_user_four_antennas": dict(users=1, rx_antennas=4),
    "four_users_sixteen_antennas": dict(users=4, rx_antennas=16),
    "fd_gradient": dict(optimizer=OptimizerConfig(gradient="fd", iterations=3)),
}


class TestBatchedEngine:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_points_equal_scalar_reference(self, name):
        fields = dict(snr_db_list=(-5.0, 20.0), realizations=12, seed=17, optimizer=OptimizerConfig(iterations=20))
        fields.update(ORACLE_CONFIGS[name])
        config = SweepConfig(**fields)
        assert _as_dicts(run_sweep(config, timestamp="t").points) == _as_dicts(sweep_points_reference(config))

    def test_forced_resample_matches_reference(self, monkeypatch):
        # realization 3's first draw loses user 0, so ZF is singular there;
        # 1000 realizations keep one resample inside the 0.1% budget
        original = bench._generate_true

        def lose_user_zero(*args, **kwargs):
            out = original(*args, **kwargs)
            if tuple(args[4].bit_generator.seed_seq.entropy[-2:]) == (3, 0):
                out[..., 0] = 0.0
            return out

        monkeypatch.setattr(bench, "_generate_true", lose_user_zero)
        config = SweepConfig(
            snr_db_list=(10.0,),
            velocity_ranges=((30.0, 40.0),),
            realizations=1000,
            seed=2,
            optimizer=OptimizerConfig(iterations=2),
        )
        batched = run_sweep(config, timestamp="t").points
        assert [p.resampled for p in batched] == [1, 1, 1]
        assert _as_dicts(batched) == _as_dicts(sweep_points_reference(config))

    def test_resample_beyond_budget_raises_before_redraw(self, monkeypatch):
        # below 999 realizations one resample already exceeds 0.1% of the
        # cell's draws, so the singular realization is never drawn again
        original = bench._generate_true
        draws = []

        def lose_user_zero(*args, **kwargs):
            out = original(*args, **kwargs)
            draws.append(tuple(args[4].bit_generator.seed_seq.entropy[-2:]))
            if draws[-1] == (3, 0):
                out[..., 0] = 0.0
            return out

        monkeypatch.setattr(bench, "_generate_true", lose_user_zero)
        config = SweepConfig(snr_db_list=(10.0,), velocity_ranges=((30.0, 40.0),), realizations=12, methods=("zf",))
        with pytest.raises(RuntimeError, match="resample rate above 0.1%: 1 resamples"):
            run_sweep(config, timestamp="t")
        assert draws == [(r, 0) for r in range(12)]

    def test_progress_once_per_cell(self):
        calls = []
        run_sweep(SMALL, timestamp="t", progress=lambda vr, snr: calls.append((vr, snr)))
        assert calls == [((0.0, 10.0), 0.0), ((0.0, 10.0), 20.0)]


class TestCommonDraws:
    """Every SNR point of a velocity scores the same draws, so the SNR
    columns obey the inequalities of one channel under falling noise."""

    def test_dropping_snr_points_changes_nothing(self):
        config = SweepConfig(realizations=6, est_snr_db=10.0, seed=11, optimizer=OptimizerConfig(iterations=5))
        full = _as_dicts(run_sweep(config, timestamp="t").points)
        for snr in config.snr_db_list:
            alone = run_sweep(dataclasses.replace(config, snr_db_list=(snr,)), timestamp="t").points
            assert _as_dicts(alone) == [p for p in full if p["snr_db"] == snr], snr

    def test_zf_rate_nondecreasing_in_snr_per_realization(self):
        # the ZF combiner does not depend on the noise, so one draw's rate
        # can only grow as the noise power falls
        for seed in range(30):
            points = run_sweep(SweepConfig(realizations=1, methods=("zf",), seed=seed), timestamp="t").points
            for v_min in (0.0, 30.0):
                rates = [p.mean_sum_rate for p in points if p.v_min == v_min]
                assert rates == sorted(rates), (seed, v_min, rates)

    def test_mmse_is_the_best_sinr_without_mobility(self):
        # at zero velocity the pilot is the target, so MMSE on a perfect
        # estimate maximizes every user's SINR, and that maximum can only
        # grow as the noise power falls
        snrs = tuple(np.arange(-10.0, 20.5, 2.5))
        for seed in range(5):
            config = SweepConfig(snr_db_list=snrs, velocity_ranges=((0.0, 0.0),), realizations=2, methods=("zf", "mmse"),
                                 seed=seed)
            by_key = {(p.method, p.snr_db): p for p in run_sweep(config, timestamp="t").points}
            for snr in snrs:
                zf, mmse = by_key[("zf", snr)].per_ue_mean_sinr, by_key[("mmse", snr)].per_ue_mean_sinr
                assert all(m >= z * (1 - 1e-12) for m, z in zip(mmse, zf)), (seed, snr)
            rates = [by_key[("mmse", snr)].mean_sum_rate for snr in snrs]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(rates, rates[1:])), (seed, rates)

    def test_each_velocity_draws_once_before_its_cells(self, monkeypatch):
        # R draws per velocity, not per (velocity, SNR) cell, all of both
        # velocities made before the first pass, whether it scores all
        # 10 draws or one
        original = bench._generate_true
        events = []

        def counted(*args, **kwargs):
            events.append("draw")
            return original(*args, **kwargs)

        monkeypatch.setattr(bench, "_generate_true", counted)
        config = SweepConfig(realizations=5, methods=("zf", "mmse"), seed=3)
        cells = [(velocity_range, snr) for velocity_range in config.velocity_ranges for snr in config.snr_db_list]
        for budget in (bench._PASS_VALUES, 1):
            monkeypatch.setattr(bench, "_PASS_VALUES", budget)
            events.clear()
            run_sweep(config, timestamp="t", progress=lambda vr, snr: events.append((vr, snr)))
            assert events == ["draw"] * 10 + cells, budget

    def test_redraw_is_scored_at_every_snr_without_more_progress(self, monkeypatch):
        # realization 3's first draw loses user 0, so ZF is singular at
        # every SNR point; its redraw is scored at both points, and each
        # cell still reports progress once
        original = bench._generate_true
        events = []

        def lose_user_zero(*args, **kwargs):
            out = original(*args, **kwargs)
            events.append(tuple(args[4].bit_generator.seed_seq.entropy[-2:]))
            if events[-1] == (3, 0):
                out[..., 0] = 0.0
            return out

        monkeypatch.setattr(bench, "_generate_true", lose_user_zero)
        config = SweepConfig(snr_db_list=(0.0, 10.0), velocity_ranges=((30.0, 40.0),), realizations=1000, methods=("zf",))
        points = run_sweep(config, timestamp="t", progress=lambda vr, snr: events.append(snr)).points
        assert events == [(r, 0) for r in range(1000)] + [0.0, 10.0, (3, 1)]
        assert [p.resampled for p in points] == [1, 1]
        assert _as_dicts(points) == _as_dicts(sweep_points_reference(config))


def _count_optimizer_calls(monkeypatch):
    """The (channel shape, noise power shape) of each optimizer call."""
    original = beamforming.optimize_sum_rate
    calls = []

    def counted(channel_est, channel_true, noise_power, config):
        calls.append((channel_est.shape, np.shape(noise_power)))
        return original(channel_est, channel_true, noise_power, config)

    monkeypatch.setattr(beamforming, "optimize_sum_rate", counted)
    return calls


class TestStackedPass:
    """Each attempt scores its draws in passes of as many consecutive
    draws as fit `bench._PASS_VALUES` at all SNR points, across
    velocities, with the same bytes at every budget."""

    def test_one_optimizer_call_per_pass_attempt(self, monkeypatch):
        # 8 draws of 8x2 at the 7 default SNR points (the benchmark's
        # sweep) fit one pass, and 500 take passes of 146 draws, the
        # last of 124; each velocity reports after the pass that scored
        # its last draw.  `opt` is reached once per pass and attempt, on
        # every SNR point at once
        calls = _count_optimizer_calls(monkeypatch)
        events = []
        one_step = OptimizerConfig(iterations=1)
        for config, expected_calls, after_call in [
            (SweepConfig(realizations=8, optimizer=one_step), [((7, 16, 8, 2), (7, 1))], [1] * 14),
            (SweepConfig(methods=("opt",), optimizer=one_step),
             [((7, 146, 8, 2), (7, 1))] * 6 + [((7, 124, 8, 2), (7, 1))], [4] * 7 + [7] * 7),
        ]:
            calls.clear()
            events.clear()
            run_sweep(config, timestamp="t", progress=lambda vr, snr: events.append(len(calls)))
            assert calls == expected_calls
            assert events == after_call

    @settings(max_examples=100, deadline=None)
    @given(
        velocities=st.integers(1, 3),
        snrs=st.integers(1, 3),
        draws=st.integers(1, 5),
        users=st.integers(1, 2),
        chunk=st.integers(1, 15),
        slack=st.integers(0, 11),
        seed=st.integers(0, 2**16),
    )
    def test_any_budget_gives_the_same_bytes_and_progress(self, velocities, snrs, draws, users, chunk, slack, seed):
        # budgets from one draw per pass up to the whole stack, and any
        # values short of one more draw: the points equal the default
        # budget's, and each velocity's cells report right after the
        # pass that scored its last draw
        config = SweepConfig(
            snr_db_list=(-5.0, 5.0, 15.0)[:snrs],
            velocity_ranges=((0.0, 10.0), (30.0, 40.0), (90.0, 100.0))[:velocities],
            rx_antennas=3,
            users=users,
            realizations=draws,
            est_snr_db=10.0,
            seed=seed,
            optimizer=OptimizerConfig(iterations=3),
        )
        chunk = min(chunk, velocities * draws)
        per_draw = snrs * config.rx_antennas * users
        whole = _as_dicts(run_sweep(config, timestamp="t").points)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench, "_PASS_VALUES", chunk * per_draw + min(slack, per_draw - 1))
            calls = _count_optimizer_calls(patch)
            events = []
            points = run_sweep(config, timestamp="t", progress=lambda vr, snr: events.append((len(calls), vr, snr))).points
        assert _as_dicts(points) == whole
        assert len(calls) == -(-velocities * draws // chunk)
        assert events == [(((v + 1) * draws - 1) // chunk + 1, vr, snr)
                          for v, vr in enumerate(config.velocity_ranges) for snr in config.snr_db_list]


# Four velocity ranges, the third a duplicate of the first and the last
# zero-width.  4000 draws of 2x1 at the 2 SNR points hold 16000 channel
# values, so the default budget scores all four velocities in one pass,
# 8000 two per pass, and 6000 passes of 1500 draws, the first of them
# velocity 0 and half of velocity 1.
PACKED = SweepConfig(
    snr_db_list=(0.0, 20.0),
    velocity_ranges=((0.0, 10.0), (30.0, 40.0), (0.0, 10.0), (25.0, 25.0)),
    rx_antennas=2,
    users=1,
    realizations=1000,
    methods=("zf", "mmse", "opt"),
    seed=8,
    optimizer=OptimizerConfig(iterations=2),
)


def _lose_user_zero_at(velocity, original):
    """`_generate_true` whose first draw of realization 3 at `velocity`
    loses user 0, so ZF is singular there when there is one user."""
    def drawn(*args, **kwargs):
        out = original(*args, **kwargs)
        if tuple(args[4].bit_generator.seed_seq.entropy[-4:]) == (velocity, 0, 3, 0):
            out[..., 0] = 0.0
        return out

    return drawn


@pytest.fixture(scope="module")
def packed_reference():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "_generate_true", _lose_user_zero_at(1, bench._generate_true))
        return _as_dicts(sweep_points_reference(PACKED))


class TestPackedVelocities:
    @pytest.mark.parametrize("budget, expected_calls", [
        (bench._PASS_VALUES, [((2, 3999, 2, 1), (2, 1)), ((2, 1, 2, 1), (2, 1))]),
        (8000, [((2, 1999, 2, 1), (2, 1)), ((2, 2000, 2, 1), (2, 1)), ((2, 1, 2, 1), (2, 1))]),
        (6000, [((2, 1499, 2, 1), (2, 1)), ((2, 1500, 2, 1), (2, 1)), ((2, 1000, 2, 1), (2, 1)),
                ((2, 1, 2, 1), (2, 1))]),
    ], ids=["one_pass", "two_per_pass", "straddling"])
    def test_points_equal_scalar_reference(self, monkeypatch, packed_reference, budget, expected_calls):
        # the singular draw, entry 1003, sits in a pass shared with other
        # velocities, at budget 6000 one that spans velocities 0 and 1;
        # only velocity 1 redraws, after the first attempt's passes
        monkeypatch.setattr(bench, "_generate_true", _lose_user_zero_at(1, bench._generate_true))
        monkeypatch.setattr(bench, "_PASS_VALUES", budget)
        calls = _count_optimizer_calls(monkeypatch)
        events = []
        points = run_sweep(PACKED, timestamp="t", progress=lambda vr, snr: events.append((vr, snr))).points
        assert _as_dicts(points) == packed_reference
        assert [p.resampled for p in points] == [0] * 6 + [1] * 6 + [0] * 12
        assert calls == expected_calls
        assert events == [(vr, snr) for vr in PACKED.velocity_ranges for snr in PACKED.snr_db_list]


class TestZeroVelocityAnchors:
    """Absolute rates against closed forms.  At zero velocity the pilot is
    the target, so with a perfect estimate ZF's per-user SINR is
    rho * Gamma(M - N + 1) and single-user MMSE (MRC) gives rho * Gamma(M),
    for SNR rho and unit-power Rayleigh fading (nearly: each entry sums 32
    sinusoids, so E|h|^4 is 2 - 1/32, not 2).  The mean sum rate is then
    N * E[log2(1 + rho X)] and the per-user mean SINR rho * E[X], both by
    quadrature over the gamma density.  Each cell is gated at 3 standard
    errors: the sweep's own for the rate, the exact rho * sqrt(shape / R)
    for the SINR.  The cells of one velocity share their draws, so the
    three SNR points of a sweep are not independent checks.  The
    realization count (500, the library default), seed (0) and budget
    (about 1 s per sweep) were fixed before any result was seen."""

    @pytest.mark.parametrize("users, methods", [(1, ("zf", "mmse")), (2, ("zf",)), (4, ("zf",))])
    def test_rates_match_the_gamma_closed_forms(self, users, methods):
        from scipy import integrate, stats

        config = SweepConfig(snr_db_list=(-5.0, 5.0, 20.0), velocity_ranges=((0.0, 0.0),), users=users,
                             realizations=500, methods=methods, seed=0)
        shape = config.rx_antennas - users + 1  # MRC's Gamma(M) is ZF's at one user
        for p in run_sweep(config, timestamp="t").points:
            rho = 10.0 ** (p.snr_db / 10.0)
            rate = users * integrate.quad(lambda x: np.log2(1.0 + rho * x) * stats.gamma.pdf(x, shape), 0, np.inf)[0]
            mean_sinr = rho * integrate.quad(lambda x: x * stats.gamma.pdf(x, shape), 0, np.inf)[0]
            assert abs(p.mean_sum_rate - rate) <= 3.0 * p.stderr, (p.method, p.snr_db, p.mean_sum_rate, rate)
            sinr_stderr = rho * math.sqrt(shape / p.realizations)
            for k, got in enumerate(p.per_ue_mean_sinr):
                assert abs(got - mean_sinr) <= 3.0 * sinr_stderr, (p.method, p.snr_db, k, got, mean_sinr)


class TestExportReport:
    def test_csv_columns_and_rows(self, small_result, tmp_path):
        path = tmp_path / "sweep.csv"
        export_report(small_result, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER == "method,snr_db,v_min,v_max,mean_sum_rate,stderr,realizations"
        assert len(lines) == 1 + len(small_result.points)

    def test_csv_byte_identical_across_runs(self, small_result, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_report(small_result, "csv", a)
        export_report(run_sweep(SMALL, timestamp="ignored"), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_result_header_only(self, tmp_path):
        empty = SweepResult(points=[], seed=0, version="v", build="b", timestamp="t")
        path = tmp_path / "empty.csv"
        export_report(empty, "csv", path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_json_round_trip(self, small_result, tmp_path):
        path = tmp_path / "sweep.json"
        export_report(small_result, "json", path)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == small_result.to_json_dict()

    def test_unknown_format(self, small_result, tmp_path):
        with pytest.raises(ValueError):
            export_report(small_result, "xml", tmp_path / "x")

    def test_metadata_recorded(self, small_result):
        payload = small_result.to_json_dict()["metadata"]
        assert payload["seed"] == 123
        assert payload["version"] and payload["build"]

    def test_package_metadata_reads_the_one_version(self):
        import warnings

        from setuptools.config.pyprojecttoml import read_configuration

        import sparsebeam

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # setuptools flags its [tool.setuptools] table as beta
            project = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")["project"]
        assert project["version"] == sparsebeam.__version__


# (method, v_min) -> (mean_sum_rate, stderr) at -10 dB of
# run_sweep(SweepConfig(realizations=8, seed=5)) under sparsebeam 0.1.0,
# whose rate was the per-user mean of the two users' rates.  The first
# SNR point still draws 0.1.0's channels.
PER_USER_MEAN_LOCK = {
    ('zf', 0.0): (0.6922229546692766, 0.08102219395743286),
    ('mmse', 0.0): (0.7578422925632298, 0.06821221851258735),
    ('opt', 0.0): (0.7664369232393476, 0.068123512559027),
    ('zf', 30.0): (0.5417974945587215, 0.057934163927931985),
    ('mmse', 30.0): (0.5650503800578355, 0.06075166311105953),
    ('opt', 30.0): (0.7918653841979411, 0.05342234666490376),
}

# (method, v_min, snr_db) -> (mean_sum_rate, stderr) of the same sweep's
# other SNR points under sparsebeam 0.3.0, where every SNR point scores
# the first point's draws; equal to `sweep_points_reference` when locked.
SUM_RATE_LOCK = {
    ('zf', 0.0, -5.0): (3.0555144936234817, 0.26673439031242574),
    ('mmse', 0.0, -5.0): (3.18378031628876, 0.23874781169330653),
    ('opt', 0.0, -5.0): (3.2196576796729275, 0.23788309364521767),
    ('zf', 0.0, 0.0): (5.516252425750661, 0.3387655198200625),
    ('mmse', 0.0, 0.0): (5.586100182606684, 0.32409413157937156),
    ('opt', 0.0, 0.0): (5.66408048911843, 0.3237411676998075),
    ('zf', 0.0, 5.0): (8.40141890341534, 0.36948251883844996),
    ('mmse', 0.0, 5.0): (8.428048032469063, 0.3666398723707192),
    ('opt', 0.0, 5.0): (8.606756622707564, 0.3663390599176267),
    ('zf', 0.0, 10.0): (11.323895092587845, 0.38782518684690803),
    ('mmse', 0.0, 10.0): (11.335860725372644, 0.38851068291299207),
    ('opt', 0.0, 10.0): (11.708546315196923, 0.36897163085888907),
    ('zf', 0.0, 15.0): (13.98617145537056, 0.4525169901254266),
    ('mmse', 0.0, 15.0): (13.995188213371502, 0.452202276316279),
    ('opt', 0.0, 15.0): (14.41619991087028, 0.4101799284403842),
    ('zf', 0.0, 20.0): (16.162290598872488, 0.6224579826484057),
    ('mmse', 0.0, 20.0): (16.170038732138508, 0.6224580401736967),
    ('opt', 0.0, 20.0): (16.97790531822449, 0.40415210334546636),
    ('zf', 30.0, -5.0): (2.4093390301887467, 0.2179566446085185),
    ('mmse', 30.0, -5.0): (2.4680776247123637, 0.21702460821727274),
    ('opt', 30.0, -5.0): (3.365321257616985, 0.1776252488845804),
    ('zf', 30.0, 0.0): (4.26914251962413, 0.3209080429525542),
    ('mmse', 30.0, 0.0): (4.3169629644390906, 0.31305111980949446),
    ('opt', 30.0, 0.0): (5.916463492948579, 0.23159338283015785),
    ('zf', 30.0, 5.0): (6.1356408342444695, 0.4086088767162132),
    ('mmse', 30.0, 5.0): (6.158838168219477, 0.3997398859714486),
    ('opt', 30.0, 5.0): (8.914171460649653, 0.2547917541401977),
    ('zf', 30.0, 10.0): (7.550461121581174, 0.4874596075594386),
    ('mmse', 30.0, 10.0): (7.554943087362296, 0.48122396677756135),
    ('opt', 30.0, 10.0): (11.952309317248872, 0.2669276589955544),
    ('zf', 30.0, 15.0): (8.414685002189557, 0.5575547496029827),
    ('mmse', 30.0, 15.0): (8.412498649242565, 0.5542016144549192),
    ('opt', 30.0, 15.0): (14.617271977672363, 0.30047246753443924),
    ('zf', 30.0, 20.0): (8.847854393321342, 0.6069997294746216),
    ('mmse', 30.0, 20.0): (8.845728596812716, 0.6054999878783314),
    ('opt', 30.0, 20.0): (16.510832260038136, 0.4398690682064083),
}


class TestSumRateLock:
    @pytest.fixture(scope="class")
    def points(self):
        return run_sweep(SweepConfig(realizations=8, seed=5), timestamp="t").points

    def test_two_user_sweep_is_exactly_twice_the_per_user_mean(self, points):
        first = [p for p in points if p.snr_db == -10.0]
        assert len(first) == len(PER_USER_MEAN_LOCK)
        for p in first:
            mean_rate, stderr = PER_USER_MEAN_LOCK[(p.method, p.v_min)]
            assert (p.mean_sum_rate, p.stderr) == (2 * mean_rate, 2 * stderr), (p.method, p.v_min)

    def test_other_snr_points_match_the_common_draw_lock(self, points):
        rest = [p for p in points if p.snr_db != -10.0]
        assert len(rest) == len(SUM_RATE_LOCK)
        for p in rest:
            assert (p.mean_sum_rate, p.stderr) == SUM_RATE_LOCK[(p.method, p.v_min, p.snr_db)], (p.method, p.v_min, p.snr_db)
