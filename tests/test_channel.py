"""Doppler/fading statistics against closed-form oracles."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import j0

from sparsebeam import (
    SPEED_OF_LIGHT,
    DopplerConfig,
    OfdmConfig,
    add_estimation_error,
    generate_channel_batch,
    max_doppler,
    read_channel_file,
    time_bias_hint,
    write_channel_file,
)


class TestMaxDoppler:
    def test_formula_values(self):
        assert max_doppler(120.0, 2.6e9) == pytest.approx(120.0 * 2.6e9 / SPEED_OF_LIGHT, rel=1e-15)
        assert max_doppler(120.0, 2.6e9) == pytest.approx(1040.7199770182344, rel=1e-12)
        assert max_doppler(40.0, 2.6e9) == pytest.approx(346.90665900607814, rel=1e-12)
        assert max_doppler(0.0, 1e9) == 0.0

    def test_consistent_with_config_table_cap(self):
        # the published system table caps the Doppler shift at 1040 Hz
        assert abs(max_doppler(120.0, 2.6e9) - 1040.0) / 1040.0 < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            max_doppler(-1.0, 2.6e9)
        with pytest.raises(ValueError):
            max_doppler(1.0, 0.0)
        for velocity, carrier in ((float("nan"), 2.6e9), (float("inf"), 2.6e9), (1.0, float("inf"))):
            with pytest.raises(ValueError, match="finite"):
                max_doppler(velocity, carrier)


class TestDopplerConfig:
    def test_scalar_and_range_velocity(self):
        assert DopplerConfig(velocity_mps=30.0).velocity_bounds == (30.0, 30.0)
        assert DopplerConfig(velocity_mps=(30.0, 40.0)).velocity_bounds == (30.0, 40.0)

    def test_derived_doppler_consistency(self):
        cfg = DopplerConfig(carrier_hz=2.6e9, velocity_mps=(30.0, 40.0))
        expected = 40.0 * 2.6e9 / SPEED_OF_LIGHT
        assert abs(max_doppler(cfg.velocity_bounds[1], cfg.carrier_hz) - expected) / expected < 1e-9

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            DopplerConfig(velocity_mps=(40.0, 30.0))

    @pytest.mark.parametrize(
        "fields",
        [dict(carrier_hz=float("inf")), dict(carrier_hz=float("nan")), dict(velocity_mps=(float("nan"),) * 2),
         dict(velocity_mps=(0.0, float("inf"))), dict(velocity_mps=float("nan"))],
    )
    def test_nonfinite_rejected(self, fields):
        with pytest.raises(ValueError, match="finite"):
            DopplerConfig(**fields)


def fading(doppler_hz, symbol_s, symbols, realizations, seed):
    """(realizations, symbols) fading draws of the one generator: one tap,
    antenna, user and subcarrier, at the velocity whose Doppler shift on
    the 2.6 GHz carrier is `doppler_hz`."""
    ofdm = OfdmConfig(symbols=symbols, subcarriers=1, num_taps=1, tti_s=symbols * symbol_s)
    doppler = DopplerConfig(velocity_mps=doppler_hz * SPEED_OF_LIGHT / 2.6e9)
    return generate_channel_batch(ofdm, doppler, 1, 1, realizations, seed)[:, :, 0, 0, 0]


class TestJakesFading:
    """Clarke/Jakes statistics of `generate_channel_batch` itself, the
    generator behind the sweep and the `channel` command."""

    @pytest.fixture(scope="class")
    def slot_draws(self):
        # 10000 draws over the 14-symbol slot at 347 Hz (40 m/s)
        return fading(347.0, 500e-6 / 14, 14, 10000, seed=0)

    def test_zero_doppler_is_static(self):
        g = fading(0.0, 1.0 / 19, 20, 1, seed=5)[0]
        assert np.allclose(g, g[0])

    def test_ensemble_unit_power(self, slot_draws):
        assert abs((np.abs(slot_draws) ** 2).mean() - 1.0) <= 0.02

    def test_autocorrelation_matches_bessel(self, slot_draws):
        # ensemble autocorrelation over the slot grid vs J0(2 pi f_d tau)
        doppler_hz = 347.0
        t = np.arange(14) * (500e-6 / 14)
        corr = np.array([(slot_draws[:, lag:] * slot_draws[:, : 14 - lag].conj()).mean() for lag in range(14)])
        expected = j0(2.0 * np.pi * doppler_hz * t)
        rmse = np.sqrt(np.mean((corr.real - expected) ** 2))
        assert rmse <= 0.05

    def test_half_period_correlation(self):
        doppler_hz = 200.0
        g = fading(doppler_hz, 1.0 / (2.0 * doppler_hz), 2, 10000, seed=1)
        assert abs((g[:, 1] * np.conj(g[:, 0])).real.mean() - j0(np.pi)) <= 0.05

    @pytest.mark.parametrize("symbols, velocity", [(14, 40.0), (1, 3.0), (7, 0.0), (20, 120.0)])
    def test_generator_path_is_jakes(self, symbols, velocity):
        # one tap, antenna and user at a fixed velocity: on every subcarrier
        # the channel is the Jakes sum of 32 sinusoids, term by term, with
        # the arrival angles and then the phases drawn from the stream (seed, r)
        sinusoids = 32
        ofdm = OfdmConfig(symbols=symbols, subcarriers=3, num_taps=1)
        doppler = DopplerConfig(carrier_hz=2.6e9, velocity_mps=velocity)
        times = np.arange(symbols) * ofdm.symbol_duration_s
        shift = 2.0 * np.pi * max_doppler(velocity, 2.6e9)
        batch = generate_channel_batch(ofdm, doppler, 1, 1, 10, seed=0)
        for r in range(10):
            rng = np.random.default_rng((0, r))
            theta = rng.uniform(0.0, 2.0 * np.pi, sinusoids)
            phi = rng.uniform(0.0, 2.0 * np.pi, sinusoids)
            g = sum(np.exp(1j * (shift * np.cos(a) * times + b)) for a, b in zip(theta, phi)) / np.sqrt(sinusoids)
            for k in range(3):
                np.testing.assert_allclose(batch[r, :, k, 0, 0], g, rtol=0, atol=1e-12)

    def test_determinism(self):
        a = fading(100.0, 1e-4, 5, 3, seed=3)
        assert np.array_equal(a, fading(100.0, 1e-4, 5, 3, seed=3))
        assert not np.array_equal(a, fading(100.0, 1e-4, 5, 3, seed=4))

    def test_validation(self):
        with pytest.raises(ValueError):
            DopplerConfig(velocity_mps=-1.0)


class TestGenerateChannel:
    def test_single_tap_is_frequency_flat(self):
        ofdm = OfdmConfig(symbols=4, subcarriers=8, num_taps=1)
        h = generate_channel_batch(ofdm, DopplerConfig(velocity_mps=30.0), 2, 1, 1, seed=0)[0]
        for sym in range(4):
            assert np.allclose(h[sym], h[sym, :1], atol=1e-12)

    def test_zero_doppler_is_time_flat(self):
        ofdm = OfdmConfig(symbols=6, subcarriers=4)
        h = generate_channel_batch(ofdm, DopplerConfig(velocity_mps=0.0), 2, 2, 1, seed=1)[0]
        assert np.allclose(h, h[:1], atol=1e-12)

    def test_unit_average_power(self):
        ofdm = OfdmConfig(symbols=2, subcarriers=4)
        batch = generate_channel_batch(ofdm, DopplerConfig(velocity_mps=(0.0, 40.0)), 1, 1, 10000, seed=7)
        power = (np.abs(batch) ** 2).mean()
        assert abs(power - 1.0) <= 0.02

    def test_adjacent_subcarrier_correlation(self):
        # analytic frequency correlation sum(p_tap exp(-2i pi df tau)) vs
        # the Monte-Carlo estimate; both must show >= 0.99 coherence at
        # 30 kHz spacing and 100 ns delay spread
        ofdm = OfdmConfig(symbols=1, subcarriers=2)
        analytic = np.abs(
            (ofdm.tap_powers * np.exp(-2j * np.pi * ofdm.subcarrier_spacing_hz * ofdm.tap_delays_s)).sum()
        )
        batch = generate_channel_batch(ofdm, DopplerConfig(velocity_mps=10.0), 1, 1, 6000, seed=3)
        a = batch[:, 0, 0, 0, 0]
        b = batch[:, 0, 1, 0, 0]
        empirical = np.abs((a * b.conj()).mean()) / (np.abs(a) ** 2).mean()
        assert analytic >= 0.99
        assert empirical >= 0.99
        assert abs(empirical - analytic) <= 0.02

    def test_determinism(self):
        ofdm = OfdmConfig(symbols=3, subcarriers=4)
        dop = DopplerConfig(velocity_mps=(10.0, 20.0))
        a = generate_channel_batch(ofdm, dop, 2, 2, 2, seed=9)
        b = generate_channel_batch(ofdm, dop, 2, 2, 2, seed=9)
        assert np.array_equal(a, b)

    def test_batch_realizations_independent_of_order(self):
        ofdm = OfdmConfig(symbols=2, subcarriers=2)
        dop = DopplerConfig(velocity_mps=5.0)
        batch = generate_channel_batch(ofdm, dop, 1, 1, 4, seed=11)
        # realization r only depends on (seed, r)
        for r in range(4):
            rng = np.random.default_rng((11, r))
            from sparsebeam.channel import _generate_true

            assert np.array_equal(batch[r], _generate_true(ofdm, dop, 1, 1, rng))


class TestChannelPoints:
    """The channel at chosen (symbol, subcarrier) indices is the full slot
    grid at those indices, bit for bit."""

    @pytest.mark.parametrize(
        "ofdm, velocity",
        [
            (OfdmConfig(), (30.0, 40.0)),
            (OfdmConfig(num_taps=1), (0.0, 10.0)),
            (OfdmConfig(subcarriers=1), (0.0, 10.0)),
            (OfdmConfig(), 0.0),
        ],
        ids=["default", "one_tap", "one_subcarrier", "zero_velocity"],
    )
    def test_points_equal_full_grid(self, ofdm, velocity):
        from sparsebeam.channel import _generate_true

        dop = DopplerConfig(velocity_mps=velocity)
        last, mid = ofdm.symbols - 1, ofdm.subcarriers // 2
        selections = [
            ((0, last), (mid,)),  # the sweep's pilot and target
            ((last,), (0,)),
            ((3, 3, 0), (ofdm.subcarriers - 1, mid)),
            (tuple(range(ofdm.symbols)), tuple(range(ofdm.subcarriers))),
        ]
        for seed in range(3):
            full = _generate_true(ofdm, dop, 4, 3, np.random.default_rng(seed))
            for symbols, subcarriers in selections:
                points = _generate_true(ofdm, dop, 4, 3, np.random.default_rng(seed), symbols, subcarriers)
                assert points.shape == (len(symbols), len(subcarriers), 4, 3)
                assert np.array_equal(points, full[np.ix_(symbols, subcarriers)])

    def test_one_symbol_slot(self):
        from sparsebeam.channel import _generate_true

        ofdm, dop = OfdmConfig(symbols=1), DopplerConfig()
        full = _generate_true(ofdm, dop, 2, 2, np.random.default_rng(0))
        points = _generate_true(ofdm, dop, 2, 2, np.random.default_rng(0), (0, 0), (5,))
        assert np.array_equal(points, full[np.ix_((0, 0), (5,))])


class TestEstimationError:
    def test_perfect_estimate_bit_exact(self):
        h = np.arange(12, dtype=float).reshape(3, 4) * (1 + 1j)
        est = add_estimation_error(h, np.inf, seed=0)
        assert np.array_equal(est, h)

    def test_error_variance(self):
        rng = np.random.default_rng(0)
        h = (rng.standard_normal(100000) + 1j * rng.standard_normal(100000)).reshape(-1, 1) / np.sqrt(2)
        est = add_estimation_error(h, 0.0, seed=1)
        err = est - h
        assert abs((np.abs(err) ** 2).mean() - 1.0) <= 0.02

    def test_error_independent_of_channel(self):
        rng = np.random.default_rng(2)
        h = (rng.standard_normal(100000) + 1j * rng.standard_normal(100000)) / np.sqrt(2)
        est = add_estimation_error(h.reshape(-1, 1), 3.0, seed=5).ravel()
        err = est - h
        corr = np.abs((h * err.conj()).mean()) / np.sqrt((np.abs(h) ** 2).mean() * (np.abs(err) ** 2).mean())
        assert corr < 0.02

    def test_determinism(self):
        h = np.ones((4, 4), dtype=complex)
        a = add_estimation_error(h, 10.0, seed=3)
        b = add_estimation_error(h, 10.0, seed=3)
        assert np.array_equal(a, b)


class TestTimeBiasHint:
    def test_thresholds(self):
        symbol = 500e-6 / 14
        assert time_bias_hint(0.0, symbol) == 1.0
        assert time_bias_hint(347.0, symbol) == 2.0
        assert time_bias_hint(1040.0, symbol) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            time_bias_hint(-1.0, 1e-5)

    @pytest.mark.parametrize("args", [(float("nan"), 1e-4), (float("inf"), 1e-4), (100.0, float("nan")), (100.0, float("inf"))])
    def test_nonfinite_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            time_bias_hint(*args)


class TestOfdmConfig:
    def test_resource_block_constructor(self):
        cfg = OfdmConfig.from_resource_blocks(4)
        assert cfg.subcarriers == 48
        assert cfg.symbol_duration_s == pytest.approx(500e-6 / 14)

    def test_tap_powers_normalized(self):
        cfg = OfdmConfig(num_taps=4)
        assert cfg.tap_powers.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(cfg.tap_powers) < 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            OfdmConfig(symbols=0)
        with pytest.raises(ValueError):
            OfdmConfig(delay_spread_s=0.0)

    @pytest.mark.parametrize("field", ["symbols", "subcarriers", "num_taps"])
    @pytest.mark.parametrize("value", [0, 14.5, 48.0, True, np.float64(2.0), "2"])
    def test_counts_must_be_non_bool_integers(self, field, value):
        # a float or a bool count used to pass and then die in numpy
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
            OfdmConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = OfdmConfig(symbols=np.int64(2), subcarriers=np.int32(12), num_taps=np.uint8(1))
        assert generate_channel_batch(cfg, DopplerConfig(), np.int64(2), 1, np.int64(1), seed=0).shape == (1, 2, 12, 2, 1)

    def test_resource_blocks_must_be_an_integer(self):
        with pytest.raises(ValueError, match="^subcarriers must be an integer >= 1, got 30.0"):
            OfdmConfig.from_resource_blocks(2.5)

    @pytest.mark.parametrize("field", ["subcarrier_spacing_hz", "tti_s", "delay_spread_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            OfdmConfig(**{field: value})


class TestChannelFile:
    def test_round_trip(self, tmp_path):
        ofdm = OfdmConfig(symbols=2, subcarriers=3)
        batch = generate_channel_batch(ofdm, DopplerConfig(velocity_mps=7.0), 2, 2, 3, seed=13)
        path = tmp_path / "channels.bin"
        write_channel_file(path, batch, seed=13)
        loaded, meta = read_channel_file(path)
        assert np.array_equal(loaded, batch)
        assert meta == {
            "symbols": 2, "subcarriers": 3, "antennas": 2, "users": 2,
            "realizations": 3, "seed": 13,
        }

    def test_header_layout(self, tmp_path):
        from sparsebeam.channel import CHANNEL_FILE_MAGIC

        batch = np.zeros((1, 1, 1, 1, 1), dtype=complex)
        path = tmp_path / "c.bin"
        write_channel_file(path, batch, seed=0)
        raw = path.read_bytes()
        fields = struct.unpack("<8Q", raw[:64])
        assert fields == (CHANNEL_FILE_MAGIC, 1, 1, 1, 1, 1, 1, 0)
        assert len(raw) == 64 + 16

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 80)
        with pytest.raises(ValueError):
            read_channel_file(path)

    @pytest.mark.parametrize("size", [31, 33])  # the header declares 2 x 16 bytes
    def test_payload_size_must_match_header(self, tmp_path, size):
        path = tmp_path / "c.bin"
        write_channel_file(path, np.zeros((1, 1, 1, 1, 2), dtype=complex), seed=0)
        path.write_bytes(path.read_bytes()[:64] + b"\x00" * size)
        with pytest.raises(ValueError, match=f"payload is {size} bytes"):
            read_channel_file(path)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        shape=st.tuples(*[st.integers(1, 3)] * 5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_round_trip_is_bit_identical(self, tmp_path_factory, data, shape, seed):
        size = int(np.prod(shape))
        parts = data.draw(st.lists(st.floats(width=64), min_size=2 * size, max_size=2 * size))
        batch = np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)
        path = tmp_path_factory.mktemp("channel") / "c.bin"
        write_channel_file(path, batch, seed=seed)
        loaded, meta = read_channel_file(path)
        assert loaded.dtype == np.complex128 and loaded.shape == shape
        assert loaded.tobytes() == batch.tobytes()
        r, sym, sub, m, n = shape
        assert meta == {"symbols": sym, "subcarriers": sub, "antennas": m, "users": n, "realizations": r, "seed": seed}

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_header_range_rejected(self, tmp_path, seed):
        path = tmp_path / "c.bin"
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            write_channel_file(path, np.zeros((1, 1, 1, 1, 1), dtype=complex), seed=seed)
        assert not path.exists()

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, False, "3", None])
    def test_seed_must_be_a_non_bool_integer(self, tmp_path, seed):
        path = tmp_path / "c.bin"
        with pytest.raises(ValueError, match="seed must be an integer"):
            write_channel_file(path, np.zeros((1, 1, 1, 1, 1), dtype=complex), seed=seed)
        assert not path.exists()

    def test_numpy_integer_seed_is_written(self, tmp_path):
        path = tmp_path / "c.bin"
        write_channel_file(path, np.zeros((1, 1, 1, 1, 1), dtype=complex), seed=np.uint64(2**64 - 1))
        assert read_channel_file(path)[1]["seed"] == 2**64 - 1

    @pytest.mark.parametrize("axis", range(5))
    def test_empty_axis_rejected_on_write(self, tmp_path, axis):
        shape = [1, 1, 1, 1, 1]
        shape[axis] = 0
        path = tmp_path / "c.bin"
        with pytest.raises(ValueError, match="every axis >= 1"):
            write_channel_file(path, np.zeros(shape, dtype=complex), seed=0)
        assert not path.exists()

    @pytest.mark.parametrize("axis", range(5))
    def test_empty_axis_rejected_on_read(self, tmp_path, axis):
        from sparsebeam.channel import CHANNEL_FILE_MAGIC

        dims = [1, 1, 1, 1, 1]  # symbols, subcarriers, antennas, users, realizations
        dims[axis] = 0
        path = tmp_path / "c.bin"
        path.write_bytes(struct.pack("<8Q", CHANNEL_FILE_MAGIC, 1, *dims, 0))
        with pytest.raises(ValueError, match="empty axis"):
            read_channel_file(path)

    @pytest.mark.parametrize("antennas, users", [(0, 2), (2, 0)])
    def test_batch_needs_antennas_and_users(self, antennas, users):
        ofdm = OfdmConfig(symbols=2, subcarriers=3)
        name = "antennas" if antennas == 0 else "users"
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got 0$"):
            generate_channel_batch(ofdm, DopplerConfig(), antennas, users, 1, seed=0)

    @pytest.mark.parametrize("field, value", [("antennas", 2.0), ("users", True), ("realizations", 2.5),
                                              ("realizations", 0), ("realizations", "2")])
    def test_batch_counts_must_be_integers(self, field, value):
        # a float or a bool count used to pass and then die in numpy with
        # a TypeError that named no field
        counts = dict(antennas=2, users=1, realizations=1) | {field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
            generate_channel_batch(OfdmConfig(symbols=2, subcarriers=3), DopplerConfig(), **counts, seed=0)
