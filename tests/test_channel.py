"""Doppler/fading statistics against closed-form oracles."""

import numpy as np
import pytest
from scipy.special import j0

from sparsebeam import (
    SPEED_OF_LIGHT,
    DopplerConfig,
    OfdmConfig,
    add_estimation_error,
    generate_channel,
    generate_channel_batch,
    jakes_fading,
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


class TestDopplerConfig:
    def test_scalar_and_range_velocity(self):
        assert DopplerConfig(velocity_mps=30.0).velocity_bounds == (30.0, 30.0)
        assert DopplerConfig(velocity_mps=(30.0, 40.0)).velocity_bounds == (30.0, 40.0)

    def test_derived_doppler_consistency(self):
        cfg = DopplerConfig(carrier_hz=2.6e9, velocity_mps=(30.0, 40.0))
        expected = 40.0 * 2.6e9 / SPEED_OF_LIGHT
        assert abs(cfg.max_doppler_hz - expected) / expected < 1e-9

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            DopplerConfig(velocity_mps=(40.0, 30.0))


class TestJakesFading:
    def test_zero_doppler_is_static(self):
        t = np.linspace(0.0, 1.0, 20)
        g = jakes_fading(0.0, t, seed=5)
        assert np.allclose(g, g[0])

    def test_ensemble_unit_power(self):
        t = np.arange(14) * (500e-6 / 14)
        total = 0.0
        for seed in range(10000):
            g = jakes_fading(347.0, t, seed=seed)
            total += (np.abs(g) ** 2).mean()
        assert abs(total / 10000 - 1.0) <= 0.02

    def test_autocorrelation_matches_bessel(self):
        # ensemble autocorrelation over the slot grid vs J0(2 pi f_d tau)
        doppler_hz = 347.0
        t = np.arange(14) * (500e-6 / 14)
        draws = np.array([jakes_fading(doppler_hz, t, seed=s) for s in range(10000)])
        corr = np.array([(draws[:, lag:] * draws[:, : 14 - lag].conj()).mean() for lag in range(14)])
        expected = j0(2.0 * np.pi * doppler_hz * t)
        rmse = np.sqrt(np.mean((corr.real - expected) ** 2))
        assert rmse <= 0.05

    def test_half_period_correlation(self):
        doppler_hz = 200.0
        tau = 1.0 / (2.0 * doppler_hz)
        t = np.array([0.0, tau])
        acc = 0.0
        for seed in range(10000):
            g = jakes_fading(doppler_hz, t, seed=seed)
            acc += (g[1] * np.conj(g[0])).real
        assert abs(acc / 10000 - j0(np.pi)) <= 0.05

    def test_determinism(self):
        t = np.arange(5) * 1e-4
        assert np.array_equal(jakes_fading(100.0, t, seed=3), jakes_fading(100.0, t, seed=3))

    @pytest.mark.parametrize("symbols, velocity, sinusoids", [(14, 40.0, 32), (1, 3.0, 8), (7, 0.0, 16), (20, 120.0, 50)])
    def test_generator_path_is_jakes(self, symbols, velocity, sinusoids):
        # one tap, antenna and user at a fixed velocity: the generator's
        # fading is `jakes_fading` itself, so the Bessel oracle covers it
        ofdm = OfdmConfig(symbols=symbols, subcarriers=3, num_taps=1)
        doppler = DopplerConfig(carrier_hz=2.6e9, velocity_mps=velocity, num_sinusoids=sinusoids)
        times = np.arange(symbols) * ofdm.symbol_duration_s
        for seed in range(10):
            h = generate_channel(ofdm, doppler, 1, 1, seed).true_channel[:, 0, 0, 0]
            g = jakes_fading(max_doppler(velocity, 2.6e9), times, seed, num_sinusoids=sinusoids)
            assert np.array_equal(h, g)

    def test_validation(self):
        with pytest.raises(ValueError):
            jakes_fading(-1.0, [0.0], seed=0)
        with pytest.raises(ValueError):
            jakes_fading(10.0, [0.0], seed=0, num_sinusoids=4)


class TestGenerateChannel:
    def test_single_tap_is_frequency_flat(self):
        ofdm = OfdmConfig(symbols=4, subcarriers=8, num_taps=1)
        batch = generate_channel(ofdm, DopplerConfig(velocity_mps=30.0), 2, 1, seed=0)
        h = batch.true_channel
        for sym in range(4):
            assert np.allclose(h[sym], h[sym, :1], atol=1e-12)

    def test_zero_doppler_is_time_flat(self):
        ofdm = OfdmConfig(symbols=6, subcarriers=4)
        batch = generate_channel(ofdm, DopplerConfig(velocity_mps=0.0), 2, 2, seed=1)
        h = batch.true_channel
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
        a = generate_channel(ofdm, dop, 2, 2, seed=9).true_channel
        b = generate_channel(ofdm, dop, 2, 2, seed=9).true_channel
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
        import struct

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
