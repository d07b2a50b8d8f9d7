"""Combiner identities, SINR/rate algebra, projection, optimizer oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import optimize_reference

from sparsebeam import (
    OptimizerConfig,
    SingularChannelError,
    SweepConfig,
    finite_difference_gradient,
    lookahead_update,
    mmse_combiner,
    optimize_sum_rate,
    power_project,
    sinr,
    sum_rate,
    sum_rate_gradient,
    zf_combiner,
)


def rayleigh(m, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


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
        # one bit per user: SINR 1 for each of the two users
        assert sum_rate(np.eye(2), np.eye(2), 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_coupling_zero_rate(self):
        w = np.zeros((2, 4), dtype=complex)
        h = rayleigh(4, 2, 1)
        assert sum_rate(w, h, 1.0) == 0.0

    def test_permutation_invariance(self):
        h = rayleigh(8, 3, 8)
        w = power_project(mmse_combiner(h, 0.2))
        perm = np.array([2, 0, 1])
        base = sum_rate(w, h, 0.2)
        permuted = sum_rate(w[perm], h[:, perm], 0.2)
        assert permuted == pytest.approx(base, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        users=st.integers(1, 4),
        extra_antennas=st.integers(0, 4),
        noise=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_sum_of_per_user_rates(self, stack, users, extra_antennas, noise, seed):
        # the oracle: log2(1 + SINR_k) summed over the users, per entry
        antennas = users + extra_antennas
        rng = np.random.default_rng(seed)
        shape = stack + (antennas, users)
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = power_project(mmse_combiner(h + 0.3 * rng.standard_normal(shape), noise))
        rate = sum_rate(w, h, noise)
        expected = np.log2(1 + sinr(w, h, noise)).sum(-1)
        assert np.shape(rate) == stack
        np.testing.assert_allclose(rate, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 2), (3, 0, 2), (3, 4, 0)])
    def test_empty_antenna_or_user_axis_rejected(self, shape):
        h = np.zeros(shape, dtype=complex)
        w = h.swapaxes(-1, -2)
        for call in (lambda: sum_rate(w, h, 1.0), lambda: sinr(w, h, 1.0), lambda: mmse_combiner(h, 1.0)):
            with pytest.raises(ValueError, match="at least one antenna and one user"):
                call()


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


class TestNoisePower:
    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_nonfinite_noise_rejected(self, noise):
        h = rayleigh(4, 2, 0)
        w = power_project(zf_combiner(h))
        calls = (
            lambda: mmse_combiner(h, noise),
            lambda: sinr(w, h, noise),
            lambda: sum_rate_gradient(w, h, noise),
            lambda: optimize_sum_rate(h, h, noise, OptimizerConfig(iterations=1)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


class TestNoiseArrays:
    """A noise array broadcasts to a stack's leading axes: every entry gets
    exactly its own scalar call, and every check of a scalar noise power
    holds for each entry on its own."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        users=st.integers(1, 4),
        snrs=st.integers(1, 3),
        realizations=st.integers(1, 3),
        per_entry=st.booleans(),
        est_error=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entries_equal_their_scalar_calls(self, data, users, snrs, realizations, per_entry, est_error, seed):
        # noise of shape (S, 1) or (S, R) against an (S, R) stack
        antennas = data.draw(st.integers(users, 8))
        columns = realizations if per_entry else 1
        powers = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=snrs * columns, max_size=snrs * columns))
        noise = np.array(powers).reshape(snrs, columns)
        h = np.broadcast_to(rayleigh_stack(realizations, antennas, users, seed), (snrs, realizations, antennas, users))
        est = h + est_error * rayleigh_stack(realizations, antennas, users, seed + 1)
        cfg = OptimizerConfig(iterations=15)
        w = power_project(mmse_combiner(est, noise))
        rates, gammas, grad = sum_rate(w, h, noise), sinr(w, h, noise), sum_rate_gradient(w, h, noise)
        opt = optimize_sum_rate(est, h, noise, cfg)
        for s in range(snrs):
            for r in range(realizations):
                sigma2 = float(noise[s, r if per_entry else 0])
                assert np.array_equal(w[s, r], power_project(mmse_combiner(est[s, r], sigma2)))
                assert rates[s, r] == sum_rate(w[s, r], h[s, r], sigma2)
                assert np.array_equal(gammas[s, r], sinr(w[s, r], h[s, r], sigma2))
                assert np.array_equal(grad[s, r], sum_rate_gradient(w[s, r], h[s, r], sigma2))
                one = optimize_sum_rate(est[s, r], h[s, r], sigma2, cfg)
                assert np.array_equal(opt.combiner[s, r], one.combiner)
                assert np.array_equal(opt.trace[s, r], one.trace)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, float("inf"), -float("inf")])
    def test_bad_entry_rejected(self, bad):
        h = np.broadcast_to(rayleigh_stack(3, 4, 2, 0), (2, 3, 4, 2))
        w = power_project(zf_combiner(h))
        noise = np.array([[0.1], [bad]])
        calls = (
            lambda: mmse_combiner(h, noise),
            lambda: sinr(w, h, noise),
            lambda: sum_rate(w, h, noise),
            lambda: sum_rate_gradient(w, h, noise),
            lambda: optimize_sum_rate(h, h, noise, OptimizerConfig(iterations=1)),
        )
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()

    def test_zero_entry_rejected_where_the_noise_must_be_positive(self):
        h = np.broadcast_to(rayleigh_stack(3, 4, 2, 0), (2, 3, 4, 2))
        w = power_project(zf_combiner(h))
        noise = np.array([[0.1], [0.0]])
        with pytest.raises(ValueError, match="> 0"):
            sum_rate_gradient(w, h, noise)
        with pytest.raises(ValueError, match="> 0"):
            optimize_sum_rate(h, h, noise, OptimizerConfig(iterations=1))

    def test_zero_entry_is_zero_forcing_alone(self):
        h = rayleigh_stack(3, 4, 2, 2)
        h[1] = np.ones((4, 2))  # rank one: singular for ZF, not for MMSE
        stack = np.broadcast_to(h, (2, 3, 4, 2))
        with pytest.raises(SingularChannelError, match="ill-conditioned") as info:
            mmse_combiner(stack, np.array([[0.1], [0.0]]))
        assert info.value.singular.tolist() == [[False, False, False], [False, True, False]]
        w = mmse_combiner(stack, np.array([[0.1, 0.1, 0.0], [0.0, 0.1, 0.1]]))
        assert np.array_equal(w[0, 2], zf_combiner(h[2])) and np.array_equal(w[1, 0], zf_combiner(h[0]))
        assert np.array_equal(w[1, 1], mmse_combiner(h[1], 0.1))
        fat = np.broadcast_to(rayleigh_stack(3, 2, 4, 0), (2, 3, 2, 4))
        with pytest.raises(SingularChannelError, match="antennas >= users") as info:
            mmse_combiner(fat, np.array([[0.1], [0.0]]))
        assert info.value.singular.tolist() == [[False] * 3, [True] * 3]

    def test_zero_over_zero_checked_per_entry(self):
        h = np.broadcast_to(rayleigh_stack(2, 4, 2, 0), (2, 2, 4, 2))
        w = power_project(zf_combiner(h))
        noise = np.array([[0.1], [0.0]])
        w[0, 1, 0] = 0.0  # a zero filter row at positive noise power carries no signal
        assert sinr(w, h, noise)[0, 1, 0] == 0.0
        w[1, 1, 0] = 0.0  # and at zero noise power it is 0/0
        with pytest.raises(ValueError, match="0/0"):
            sinr(w, h, noise)

    def test_noise_must_broadcast_to_the_stack(self):
        h = rayleigh_stack(2, 4, 2, 0)
        with pytest.raises(ValueError):
            mmse_combiner(h, np.full((3, 1), 0.1))


class TestOptimizer:
    def test_single_user_hits_matched_filter_bound(self):
        sigma2 = 0.1
        cfg = OptimizerConfig(iterations=60, gradient="fd")
        for seed in range(5):
            h = rayleigh(8, 1, seed)
            closed_form = np.log2(1 + (np.abs(h) ** 2).sum() / sigma2)
            result = optimize_sum_rate(h, h, sigma2, cfg)
            assert abs(result.rate - closed_form) <= 1e-3

    def test_random_init_converges_single_user(self):
        # the start is the MMSE combiner of the estimate, so an estimate
        # drawn apart from the channel is a random start
        sigma2 = 0.1
        h = rayleigh(8, 1, 42)
        closed_form = np.log2(1 + (np.abs(h) ** 2).sum() / sigma2)
        cfg = OptimizerConfig(iterations=1500, gradient="analytic")
        for seed in range(5):
            result = optimize_sum_rate(rayleigh(8, 1, (9, seed)), h, sigma2, cfg)
            assert abs(result.rate - closed_form) <= 1e-3, seed

    def test_orthogonal_users_reach_zf(self):
        # with orthogonal columns and perfect CSI the ZF rate is the
        # global optimum, so the optimizer must land on it exactly
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        h = q[:, :2] * np.array([1.3, 0.8])
        sigma2 = 0.2
        zf_rate = sum_rate(power_project(zf_combiner(h)), h, sigma2)
        result = optimize_sum_rate(h, h, sigma2, OptimizerConfig(iterations=50, gradient="fd"))
        assert result.rate >= zf_rate - 1e-6
        assert abs(result.rate - zf_rate) <= 1e-6

    def test_rates_vanish_with_noise(self):
        h = rayleigh(8, 2, 40)
        w = power_project(zf_combiner(h))
        rates = [sum_rate(w, h, 10.0 ** (snr / -10.0)) for snr in (-10, -20, -30, -40)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 1e-2

    def test_stationary_start_stays_flat(self):
        # one user and a perfect estimate: the MMSE start is the matched
        # filter, which is already optimal
        sigma2 = 0.1
        h = rayleigh(8, 1, 3)
        result = optimize_sum_rate(h, h, sigma2, OptimizerConfig(iterations=40, gradient="fd"))
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
        result = optimize_sum_rate(est, h, sigma2, OptimizerConfig(iterations=300, gradient="analytic"))
        assert result.rate > start + 0.1

    def test_default_is_the_sweeps_config(self):
        assert OptimizerConfig() == OptimizerConfig(iterations=100, gradient="analytic")
        assert SweepConfig().optimizer == OptimizerConfig()

    def test_config_validation(self):
        for bad in (
            dict(gradient="exact"),
            dict(iterations=-1),
        ):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)

    @pytest.mark.parametrize("iterations", [2.5, True, False, np.float64(3.0), "3", None])
    def test_iterations_must_be_a_non_bool_integer(self, iterations):
        # a float used to construct and then die in the optimizer's range()
        with pytest.raises(ValueError, match="iterations must be an integer >= 0"):
            OptimizerConfig(iterations=iterations)

    def test_numpy_integer_iterations_accepted(self):
        assert OptimizerConfig(iterations=np.int64(0)).iterations == 0

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
        # for bit
        h = rayleigh_stack(4, 8, 2, 3)
        est = h + 0.3 * rayleigh_stack(4, 8, 2, 4)
        for cfg in (OptimizerConfig(iterations=4, gradient="fd"), OptimizerConfig(iterations=30)):
            stack = optimize_sum_rate(est, h, 0.2, cfg)
            for r in range(4):
                one = optimize_reference(est[r], h[r], 0.2, cfg)
                assert np.array_equal(stack.combiner[r], one.combiner)
                assert np.array_equal(stack.trace[r], one.trace)

    def test_batch_optimizer_on_one_matrix(self):
        h = rayleigh(8, 2, 5)
        one = optimize_reference(h, h, 0.2, OptimizerConfig(iterations=10))
        result = optimize_sum_rate(h, h, 0.2, OptimizerConfig(iterations=10))
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
        cfg = OptimizerConfig()
        batch = optimize_sum_rate(est, h, sigma2, cfg)
        for r in range(3):
            genie = sum_rate(mmse_combiner(h[r], sigma2), h[r], sigma2)
            scalar = optimize_reference(est[r], h[r], sigma2, cfg).rate
            assert scalar <= genie + 1e-12
            assert batch.rate[r] <= genie + 1e-12
            assert abs(batch.rate[r] - scalar) <= 1e-12
