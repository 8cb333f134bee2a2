"""The discounted integral: closed-form examples, the dual evaluators, and
truncation behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlevy.discount import (TruncationPolicy, eval_by_parts, eval_jump_sum,
                             sample_discounted_integral_many)
from sdlevy.levy import ExponentialJumps, JumpPath, LevyModel, simulate_path
from sdlevy.rng import GammaParams, RngStream, sample_gamma
from sdlevy.stats import ks_two_sample


def _gamma_model(alpha=2.0, lam=1.0):
    return LevyModel(jump_rate=alpha, jump_law=ExponentialJumps(lam))


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(horizon=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(horizon=-1.0)


class TestClosedForms:
    def test_empty_path(self):
        p = JumpPath(5.0, np.empty(0), np.empty(0))
        assert eval_jump_sum(p, 5.0) == 0.0
        assert eval_by_parts(p, 5.0) == 0.0

    def test_single_jump(self):
        # a jump of size 2 at time ln 2 contributes 2 * e^{-ln 2} = 1
        p = JumpPath(5.0, np.array([np.log(2.0)]), np.array([2.0]))
        assert eval_jump_sum(p, 5.0) == pytest.approx(1.0, rel=1e-15)
        assert eval_by_parts(p, 5.0) == pytest.approx(1.0, rel=1e-12)
        assert eval_jump_sum(p, 0.5) == 0.0  # before the jump

    def test_drift_only(self):
        p = JumpPath(30.0, np.empty(0), np.empty(0), drift=1.0)
        for t in (0.5, 3.0, 30.0):
            target = 1.0 - np.exp(-t)
            assert eval_jump_sum(p, t) == pytest.approx(target, rel=1e-13)
            assert eval_by_parts(p, t) == pytest.approx(target, rel=1e-12)

    def test_two_jumps_with_drift(self):
        p = JumpPath(4.0, np.array([1.0, 2.0]), np.array([3.0, -1.0]), drift=0.5)
        target = 3.0 * np.exp(-1.0) - np.exp(-2.0) + 0.5 * (1.0 - np.exp(-4.0))
        assert eval_jump_sum(p, 4.0) == pytest.approx(target, rel=1e-14)
        assert eval_by_parts(p, 4.0) == pytest.approx(target, rel=1e-12)

    def test_time_out_of_range(self):
        p = JumpPath(2.0, np.empty(0), np.empty(0))
        with pytest.raises(ValueError):
            eval_jump_sum(p, 3.0)
        with pytest.raises(ValueError):
            eval_by_parts(p, -0.1)


class TestEvaluatorEquivalence:
    @given(seed=st.integers(0, 2**32 - 1),
           rate=st.floats(0.2, 6.0), drift=st.floats(-2.0, 2.0),
           frac=st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_random_paths(self, seed, rate, drift, frac):
        model = LevyModel(jump_rate=rate, jump_law=ExponentialJumps(1.0), drift=drift)
        p = simulate_path(model, 12.0, RngStream(seed))
        t = frac * p.horizon
        a = eval_jump_sum(p, t)
        b = eval_by_parts(p, t)
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_by_parts_refuses_gaussian(self, make_stream):
        # no Gaussian path reaches either evaluator: simulate_path refuses it
        with pytest.raises(ValueError):
            simulate_path(LevyModel(gauss_var=1.0), 2.0, make_stream())


class TestSampling:
    def test_gamma_bdlp_marginal(self, make_stream):
        # Discounted integral of compound Poisson(rate a, Exp(lam) jumps)
        # is gamma(a, lam).
        pol = TruncationPolicy()
        s1, s2 = make_stream(), make_stream()
        draws = sample_discounted_integral_many(_gamma_model(2.0, 1.0), pol, 30_000, s1)
        ref = sample_gamma(GammaParams(2.0, 1.0), s2, size=30_000)
        assert ks_two_sample(draws, ref)[2]

    def test_batch_matches_loop_in_law(self, make_stream):
        pol = TruncationPolicy()
        model = _gamma_model(1.5, 2.0)
        batch = sample_discounted_integral_many(model, pol, 20_000, make_stream())
        stream = make_stream()
        T = pol.horizon
        loop = np.array([eval_jump_sum(simulate_path(model, T, s), T)
                         for s in stream.split(5_000)])
        assert ks_two_sample(batch, loop)[2]

    def test_mean_identity(self, make_stream):
        # E[X] = E[Y(1)] * (1 - e^{-T}) for the truncated integral.
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.5)
        pol = TruncationPolicy()
        draws = sample_discounted_integral_many(model, pol, 200_000, make_stream())
        target = model.mean_unit_increment() * -np.expm1(-pol.horizon)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - target) < 3.0 * se

    def test_pure_gaussian_moments(self, make_stream):
        # stationary variance of the discounted Gaussian integral is var/2
        draws = sample_discounted_integral_many(LevyModel(gauss_var=2.0),
                                                TruncationPolicy(), 200_000,
                                                make_stream())
        assert abs(draws.mean()) < 3.0 * draws.std() / np.sqrt(draws.size)
        assert abs(draws.var() - 1.0) < 4.0 * np.sqrt(2.0 / draws.size)

    def test_drift_only_deterministic(self, make_stream):
        draws = sample_discounted_integral_many(LevyModel(drift=1.0),
                                                TruncationPolicy(horizon=7.0),
                                                1000, make_stream())
        np.testing.assert_allclose(draws, 1.0 - np.exp(-7.0), rtol=1e-14)


class TestTruncationDecay:
    def test_tail_decays_exponentially(self, make_stream):
        # On one realization the tail past T is e^{-T} times a bounded draw,
        # so successive horizon doublings shrink the change geometrically.
        model = _gamma_model(2.0, 1.0)
        stream = make_stream()
        horizons = (2.0, 4.0, 8.0)
        diffs = {T: [] for T in horizons}
        for s in stream.split(2000):
            p = simulate_path(model, 16.0, s)
            for T in horizons:
                diffs[T].append(abs(eval_jump_sum(p, 2.0 * T) - eval_jump_sum(p, T)))
        means = [np.mean(diffs[T]) for T in horizons]
        assert means[0] > means[1] > means[2]
        for T, m in zip(horizons, means):
            # E|tail| <= e^{-T} * E[X-like draw]; generous constant
            assert m < 5.0 * np.exp(-T) * 2.0
