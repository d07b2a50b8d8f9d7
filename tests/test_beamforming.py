"""Combiner identities, SINR/rate algebra, projection, optimizer oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import optimize_reference

from sparsebeam import (
    OptimizerConfig,
    SingularChannelError,
    finite_difference_gradient,
    lookahead_update,
    mmse_combiner,
    optimize_sum_rate,
    power_project,
    sinr,
    sum_rate,
    sum_rate_gradient,
    sweep_optimizer_config,
    zf_combiner,
)


def rayleigh(m, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def random_start(users, antennas, seed):
    """A seeded, power-projected random combiner to pass as `initial`."""
    return power_project(rayleigh(users, antennas, seed) / np.sqrt(antennas))


class TestZfCombiner:
    def test_identity_channel(self):
        np.testing.assert_allclose(zf_combiner(np.eye(2)), np.eye(2), atol=1e-14)

    def test_orthogonal_columns(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        h = q[:, :2] * np.array([2.0, 3.0])
        w = zf_combiner(h)
        np.testing.assert_allclose(w, (h / np.array([4.0, 9.0])).conj().T, atol=1e-12)
        np.testing.assert_allclose(w @ h, np.eye(2), atol=1e-12)

    def test_pseudoinverse_property_on_random_draws(self):
        for seed in range(100):
            h = rayleigh(8, 2, seed)
            w = zf_combiner(h)
            assert np.linalg.norm(w @ h - np.eye(2)) <= 1e-10

    def test_fat_channel_rejected(self):
        with pytest.raises(SingularChannelError):
            zf_combiner(rayleigh(2, 4, 0))

    def test_rank_deficient_rejected(self):
        h = np.ones((4, 2), dtype=complex)
        with pytest.raises(SingularChannelError):
            zf_combiner(h)


class TestMmseCombiner:
    def test_identity_channel_unit_noise(self):
        np.testing.assert_allclose(mmse_combiner(np.eye(2), 1.0), 0.5 * np.eye(2), atol=1e-14)

    def test_zero_noise_equals_zf_exactly(self):
        h = rayleigh(8, 2, 3)
        assert np.array_equal(mmse_combiner(h, 0.0), zf_combiner(h))

    def test_vanishing_noise_approaches_zf(self):
        h = rayleigh(8, 2, 4)
        w_zf = zf_combiner(h)
        w_mmse = mmse_combiner(h, 1e-12)
        assert np.linalg.norm(w_mmse - w_zf) <= 1e-6 * np.linalg.norm(w_zf)

    def test_linear_system_residual(self):
        for seed in range(20):
            h = rayleigh(8, 2, seed)
            for sigma2 in (0.0, 0.1, 1.0, 10.0):
                w = mmse_combiner(h, sigma2)
                gram = h.conj().T @ h + sigma2 * np.eye(2)
                assert np.linalg.norm(gram @ w - h.conj().T) <= 1e-10

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            mmse_combiner(rayleigh(4, 2, 0), -1.0)


class TestSinr:
    def test_identity_case(self):
        gammas = sinr(np.eye(2), np.eye(2), 1.0)
        np.testing.assert_allclose(gammas, [1.0, 1.0], atol=1e-14)

    def test_zf_kills_interference(self):
        h = rayleigh(8, 2, 5)
        w = zf_combiner(h)
        coupling = w @ h
        off_diag = coupling - np.diag(np.diag(coupling))
        assert np.abs(off_diag).max() <= 1e-12

    def test_row_scale_invariance(self):
        h = rayleigh(8, 2, 6)
        w = power_project(mmse_combiner(h, 0.5))
        base = sinr(w, h, 0.5)
        for c in (0.1, 3.7, 42.0):
            scaled = sinr(c * w, h, 0.5)
            np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_degenerate_zero_row_zero_noise(self):
        w = np.zeros((2, 4), dtype=complex)
        with pytest.raises(ValueError):
            sinr(w, rayleigh(4, 2, 0), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sinr(np.eye(3), rayleigh(4, 2, 0), 1.0)


class TestSumRate:
    def test_unit_sinr_gives_one_bit(self):
        assert sum_rate(np.eye(2), np.eye(2), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_zero_rate(self):
        w = np.zeros((2, 4), dtype=complex)
        h = rayleigh(4, 2, 1)
        assert sum_rate(w, h, 1.0) == 0.0

    def test_degenerate_weighting_selects_single_user(self):
        h = rayleigh(8, 2, 7)
        w = power_project(mmse_combiner(h, 0.3))
        gammas = sinr(w, h, 0.3)
        rate = sum_rate(w, h, 0.3, weights=[1.0, 0.0])
        assert rate == pytest.approx(np.log2(1 + gammas[0]), rel=1e-12)

    def test_permutation_invariance(self):
        h = rayleigh(8, 3, 8)
        w = power_project(mmse_combiner(h, 0.2))
        alpha = np.array([0.5, 0.3, 0.2])
        perm = np.array([2, 0, 1])
        base = sum_rate(w, h, 0.2, weights=alpha)
        permuted = sum_rate(w[perm], h[:, perm], 0.2, weights=alpha[perm])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_weights_validated(self):
        h = rayleigh(4, 2, 2)
        w = mmse_combiner(h, 1.0)
        with pytest.raises(ValueError):
            sum_rate(w, h, 1.0, weights=[0.7, 0.7])


class TestPowerProject:
    def test_clips_only_violators(self):
        w = np.zeros((2, 4), dtype=complex)
        w[0, 0] = 0.5
        w[1, 0] = 2.0
        projected = power_project(w)
        np.testing.assert_allclose(np.abs(projected[0, 0]), 0.5)
        np.testing.assert_allclose(np.abs(projected[1, 0]), 1.0)

    def test_identity_within_bound(self):
        w = rayleigh(2, 4, 3) * 0.1
        assert np.array_equal(power_project(w), w)

    def test_zero_matrix(self):
        w = np.zeros((3, 5), dtype=complex)
        assert np.array_equal(power_project(w), w)

    def test_idempotent(self):
        for seed in range(30):
            w = rayleigh(3, 6, seed).T * 2.5
            once = power_project(w)
            assert np.array_equal(power_project(once), once)
            norms = np.sqrt((np.abs(once) ** 2).sum(axis=1))
            assert (norms <= 1.0 + 1e-9).all()


class TestLookahead:
    def test_unit_identities_exact(self):
        slow = rayleigh(2, 8, 0)
        fast = rayleigh(2, 8, 1)
        assert np.array_equal(lookahead_update(slow, fast, 1.0), fast)
        assert np.array_equal(lookahead_update(slow, fast, 0.0), slow)

    def test_midpoint(self):
        assert lookahead_update(np.zeros(3), np.full(3, 2.0), 0.5) == pytest.approx(np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lookahead_update(np.zeros(3), np.zeros(4), 0.5)

    def test_coefficient_range(self):
        with pytest.raises(ValueError):
            lookahead_update(np.zeros(3), np.zeros(3), 1.5)


class TestGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_analytic_matches_fd(self, seed):
        # generic, non-stationary points: a random combiner and an
        # MMSE combiner built from a mismatched estimate
        h = rayleigh(8, 2, seed)
        points = [
            power_project(rayleigh(8, 2, 100 + seed).T),
            power_project(mmse_combiner(h + 0.3 * rayleigh(8, 2, 200 + seed), 0.4)),
        ]
        for w in points:
            analytic = sum_rate_gradient(w, h, 0.4)
            numeric = finite_difference_gradient(w, h, 0.4)
            err = np.abs(analytic - numeric)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert (err / denom).max() <= 1e-5

    def test_gradient_needs_positive_noise(self):
        h = rayleigh(4, 2, 0)
        with pytest.raises(ValueError):
            sum_rate_gradient(mmse_combiner(h, 0.1), h, 0.0)


class TestOptimizer:
    def test_single_user_hits_matched_filter_bound(self):
        sigma2 = 0.1
        cfg = OptimizerConfig(iterations=60)
        for seed in range(5):
            h = rayleigh(8, 1, seed)
            closed_form = np.log2(1 + (np.abs(h) ** 2).sum() / sigma2)
            result = optimize_sum_rate(h, h, sigma2, cfg)
            assert abs(result.rate - closed_form) <= 1e-3

    def test_random_init_converges_single_user(self):
        sigma2 = 0.1
        h = rayleigh(8, 1, 42)
        closed_form = np.log2(1 + (np.abs(h) ** 2).sum() / sigma2)
        cfg = OptimizerConfig(iterations=1500, gradient="analytic", step_size=0.1)
        result = optimize_sum_rate(h, h, sigma2, cfg, initial=random_start(1, 8, 9))
        assert abs(result.rate - closed_form) <= 1e-3

    def test_orthogonal_users_reach_zf(self):
        # with orthogonal columns and perfect CSI the ZF rate is the
        # global optimum, so the optimizer must land on it exactly
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        h = q[:, :2] * np.array([1.3, 0.8])
        sigma2 = 0.2
        zf_rate = sum_rate(power_project(zf_combiner(h)), h, sigma2)
        result = optimize_sum_rate(h, h, sigma2, OptimizerConfig(iterations=50))
        assert result.rate >= zf_rate - 1e-6
        assert abs(result.rate - zf_rate) <= 1e-6

    def test_rates_vanish_with_noise(self):
        h = rayleigh(8, 2, 40)
        w = power_project(zf_combiner(h))
        rates = [sum_rate(w, h, 10.0 ** (snr / -10.0)) for snr in (-10, -20, -30, -40)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 1e-2

    def test_stationary_start_stays_flat(self):
        sigma2 = 0.1
        h = rayleigh(8, 1, 3)
        optimal = (h.conj().T / np.linalg.norm(h))  # matched filter, unit norm
        result = optimize_sum_rate(h, h, sigma2, OptimizerConfig(iterations=40), initial=optimal)
        trace = result.trace
        assert (np.diff(trace) >= 0).all()
        assert trace[-1] - trace[0] <= 1e-9

    def test_trace_monotone_from_any_start(self):
        h = rayleigh(8, 2, 11)
        est = h + 0.1 * rayleigh(8, 2, 12)
        result = optimize_sum_rate(est, h, 0.5, OptimizerConfig(iterations=80, gradient="analytic"))
        assert (np.diff(result.trace) >= 0).all()

    def test_optimizer_improves_under_mismatch(self):
        # with a noisy estimate the direct optimizer must beat the
        # MMSE-from-estimate starting point it was seeded with
        h = rayleigh(8, 2, 21)
        est = h + 0.5 * rayleigh(8, 2, 22)
        sigma2 = 0.1
        start = sum_rate(power_project(mmse_combiner(est, sigma2)), h, sigma2)
        result = optimize_sum_rate(est, h, sigma2, OptimizerConfig(iterations=300, gradient="analytic", step_size=0.1))
        assert result.rate > start + 0.1

    def test_weight_cooptimization_favors_strong_user(self):
        rng = np.random.default_rng(30)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        h = q[:, :2] * np.array([3.0, 0.1])
        cfg = OptimizerConfig(iterations=200, gradient="analytic", optimize_weights=True)
        result = optimize_sum_rate(h, h, 0.5, cfg)
        uniform = optimize_sum_rate(h, h, 0.5, OptimizerConfig(iterations=200, gradient="analytic"))
        assert result.weights[0] > 0.9
        assert result.rate >= uniform.rate - 1e-9

    def test_config_validation(self):
        for bad in (
            dict(gradient="exact"),
            dict(lookahead_coeff=1.5),
            dict(iterations=-1),
            dict(lookahead_every=-1),
            dict(step_size=0.0),
            dict(step_size=float("nan")),
            dict(step_size=float("inf")),
            dict(fd_step=0.0),
            dict(fd_step=-1e-6),
            dict(fd_step=float("nan")),
        ):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            optimize_sum_rate(rayleigh(32, 2, 0), rayleigh(32, 2, 0), 0.1)

    def test_projected_iterates_respect_power(self):
        h = rayleigh(8, 2, 33)
        result = optimize_sum_rate(h, h, 0.2, OptimizerConfig(iterations=40, gradient="analytic"))
        norms = np.sqrt((np.abs(result.combiner) ** 2).sum(axis=1))
        assert (norms <= 1.0 + 1e-9).all()


def rayleigh_stack(count, m, n, seed):
    return np.stack([rayleigh(m, n, (seed, r)) for r in range(count)])


class TestStacks:
    def test_entries_equal_their_slices(self):
        h = rayleigh_stack(5, 6, 3, 0)
        est = h + 0.2 * rayleigh_stack(5, 6, 3, 1)
        w = power_project(mmse_combiner(est, 0.3))
        rates, gammas = sum_rate(w, h, 0.3), sinr(w, h, 0.3)
        assert rates.shape == (5,) and gammas.shape == (5, 3)
        for r in range(5):
            assert np.array_equal(w[r], power_project(mmse_combiner(est[r], 0.3)))
            assert np.array_equal(power_project(zf_combiner(est))[r], power_project(zf_combiner(est[r])))
            assert rates[r] == sum_rate(w[r], h[r], 0.3)
            assert np.array_equal(gammas[r], sinr(w[r], h[r], 0.3))
        assert isinstance(sum_rate(w[0], h[0], 0.3), float)

    def test_singular_entries_are_named(self):
        h = rayleigh_stack(4, 4, 2, 2)
        h[1, :, 0] = 0.0  # ill-conditioned Gram
        h[3] = np.ones((4, 2))  # rank one
        with pytest.raises(SingularChannelError) as info:
            zf_combiner(h)
        assert info.value.singular.tolist() == [False, True, False, True]

    def test_fat_stack_all_singular(self):
        with pytest.raises(SingularChannelError) as info:
            zf_combiner(rayleigh_stack(3, 2, 4, 0))
        assert info.value.singular.tolist() == [True, True, True]

    def test_batch_optimizer_equals_scalar(self):
        # every entry of a stack equals the per-matrix reference loop bit
        # for bit, with shared or per-entry starts and weights
        h = rayleigh_stack(4, 8, 2, 3)
        est = h + 0.3 * rayleigh_stack(4, 8, 2, 4)
        starts = (None, random_start(2, 8, 1), np.stack([random_start(2, 8, (1, r)) for r in range(4)]))
        weights = (None, np.array([0.3, 0.7]), np.array([[0.5, 0.5], [0.9, 0.1], [0.0, 1.0], [0.25, 0.75]]))
        for cfg in (
            OptimizerConfig(iterations=4),
            sweep_optimizer_config(30),
            OptimizerConfig(iterations=30, gradient="analytic", lookahead_every=7, lookahead_coeff=0.3),
            OptimizerConfig(iterations=30, gradient="analytic", optimize_weights=True, lookahead_every=0),
        ):
            for start in starts:
                for alpha in weights:
                    stack = optimize_sum_rate(est, h, 0.2, cfg, initial=start, weights=alpha)
                    for r in range(4):
                        one = optimize_reference(
                            est[r],
                            h[r],
                            0.2,
                            cfg,
                            initial=None if start is None else start[r] if start.ndim == 3 else start,
                            weights=None if alpha is None else alpha[r] if alpha.ndim == 2 else alpha,
                        )
                        assert np.array_equal(stack.combiner[r], one.combiner)
                        assert np.array_equal(stack.trace[r], one.trace)
                        assert np.array_equal(stack.weights[r], one.weights)

    def test_batch_optimizer_on_one_matrix(self):
        h = rayleigh(8, 2, 5)
        for start in (None, random_start(2, 8, 6)):
            one = optimize_reference(h, h, 0.2, sweep_optimizer_config(10), initial=start)
            result = optimize_sum_rate(h, h, 0.2, sweep_optimizer_config(10), initial=start)
            assert isinstance(result.rate, float) and result.rate == one.rate
            assert np.array_equal(result.combiner, one.combiner)
            assert np.array_equal(result.trace, one.trace)


class TestOptimizerCeiling:
    """The MMSE combiner of the true channel maximizes every user's SINR,
    so no combiner the optimizer finds can beat its sum rate."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        users=st.integers(1, 4),
        snr_db=st.floats(-10.0, 20.0),
        est_error=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_opt_never_beats_genie(self, data, users, snr_db, est_error, seed):
        antennas = data.draw(st.integers(users, 16))
        sigma2 = 10.0 ** (-snr_db / 10.0)
        h = rayleigh_stack(3, antennas, users, seed)
        est = h + est_error * rayleigh_stack(3, antennas, users, seed + 1)
        cfg = sweep_optimizer_config()
        batch = optimize_sum_rate(est, h, sigma2, cfg)
        for r in range(3):
            genie = sum_rate(mmse_combiner(h[r], sigma2), h[r], sigma2)
            scalar = optimize_reference(est[r], h[r], sigma2, cfg).rate
            assert scalar <= genie + 1e-12
            assert batch.rate[r] <= genie + 1e-12
            assert abs(batch.rate[r] - scalar) <= 1e-12
