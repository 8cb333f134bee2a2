"""Stopping rules, the pathwise factorization, and the first-jump identities."""

import numpy as np
import pytest

from sdlevy.decomposition import (DecompositionRecord, FirstJump, FirstJumpIn,
                                  FixedTime, IndependentRandomTime, KthJump,
                                  decompose, decompose_many, evaluate_stopping,
                                  first_value_identity, restricted_jump_identity)
from sdlevy.discount import TruncationPolicy, eval_by_parts, eval_jump_sum
from sdlevy.errors import InsufficientHorizonError
from sdlevy.levy import (ExponentialJumps, JumpPath, JumpSet, LevyModel,
                         simulate_path, thin_path)
from sdlevy.rng import GammaParams, RngStream, sample_gamma
from sdlevy.stats import independence_diagnostic, independence_pass_band, ks_two_sample


def _gamma_model(alpha=2.0, lam=1.0):
    return LevyModel(jump_rate=alpha, jump_law=ExponentialJumps(lam))


POLICY = TruncationPolicy()


class TestStoppingRules:
    def test_fixed_time(self, make_stream):
        p = simulate_path(_gamma_model(), 5.0, make_stream())
        assert evaluate_stopping(FixedTime(2.0), p) == 2.0
        with pytest.raises(InsufficientHorizonError):
            evaluate_stopping(FixedTime(6.0), p)
        with pytest.raises(ValueError):
            FixedTime(-1.0)

    def test_first_and_kth_jump(self, make_stream):
        p = simulate_path(_gamma_model(alpha=3.0), 20.0, make_stream())
        assert evaluate_stopping(FirstJump(), p) == p.jump_times[0]
        assert evaluate_stopping(KthJump(3), p) == p.jump_times[2]
        with pytest.raises(InsufficientHorizonError):
            evaluate_stopping(KthJump(p.n_jumps + 1), p)
        with pytest.raises(ValueError):
            KthJump(0)

    def test_first_jump_empty_path(self):
        p = JumpPath(5.0, np.empty(0), np.empty(0))
        with pytest.raises(InsufficientHorizonError):
            evaluate_stopping(FirstJump(), p)

    def test_first_jump_in_set(self):
        p = JumpPath(5.0, np.array([1.0, 2.0, 3.0]), np.array([0.5, 2.5, 4.0]))
        assert evaluate_stopping(FirstJumpIn(JumpSet("ge", 2.0)), p) == 2.0
        with pytest.raises(InsufficientHorizonError):
            evaluate_stopping(FirstJumpIn(JumpSet("ge", 10.0)), p)

    def test_independent_time_needs_stream(self, make_stream):
        p = simulate_path(_gamma_model(), 50.0, make_stream())
        rule = IndependentRandomTime(ExponentialJumps(1.0))
        with pytest.raises(ValueError):
            evaluate_stopping(rule, p)
        t = evaluate_stopping(rule, p, make_stream())
        assert 0.0 <= t <= p.horizon

    def test_first_jump_time_is_exponential(self, make_stream):
        alpha = 2.0
        stream = make_stream()
        taus = np.array([decompose(_gamma_model(alpha), FirstJump(), POLICY, s).tau
                         for s in stream.split(30_000)])
        ref = make_stream().exponential(alpha, size=30_000)
        assert ks_two_sample(taus, ref)[2]

    def test_first_jump_in_time_is_exponential_at_thinned_rate(self, make_stream):
        # jumps >= a survive thinning with probability e^{-lam*a}
        alpha, lam, a = 2.0, 1.0, 1.0
        rule = FirstJumpIn(JumpSet("ge", a))
        stream = make_stream()
        taus = np.array([decompose(_gamma_model(alpha, lam), rule, POLICY, s).tau
                         for s in stream.split(30_000)])
        ref = make_stream().exponential(alpha * np.exp(-lam * a), size=30_000)
        assert ks_two_sample(taus, ref)[2]


class TestPathwiseFactorization:
    @pytest.mark.parametrize("rule", [
        FixedTime(0.7),
        FirstJump(),
        FirstJumpIn(JumpSet("ge", 1.0)),
        KthJump(3),
        IndependentRandomTime(ExponentialJumps(1.0)),
    ])
    def test_residual_tiny(self, rule, make_stream):
        records = decompose_many(_gamma_model(), rule, POLICY, 200, make_stream())
        for r in records:
            assert r.passes(1e-10)
            assert r.residual == abs(r.x_total - (r.x_tau + r.discount * r.x_prime))

    def test_residual_with_drift_and_gaussian(self, make_stream):
        # the Gaussian cache must hand the shifted view the same realization
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0),
                          drift=0.5, gauss_var=1.0)
        records = decompose_many(model, FirstJump(), POLICY, 200, make_stream())
        assert all(r.passes(1e-10) for r in records)

    def test_fixed_time_zero_degenerates(self, make_stream):
        r = decompose(_gamma_model(), FixedTime(0.0), POLICY, make_stream())
        assert r.tau == 0.0 and r.x_tau == 0.0 and r.discount == 1.0
        assert r.x_prime == r.x_total
        assert r.residual == 0.0

    def test_negative_control_detected(self):
        bad = DecompositionRecord(tau=1.0, x_tau=1.0, discount=np.exp(-1.0),
                                  x_prime=2.0, x_total=5.0)
        assert not bad.passes(1e-10)
        assert bad.residual > 1.0

    def test_fixed_time_distributional_identity(self, make_stream):
        # X =d X_t + e^{-t} X' with the three pieces independent of t's past
        t = 0.7
        records = decompose_many(_gamma_model(), FixedTime(t), POLICY, 30_000,
                                 make_stream())
        recombined = np.array([r.x_tau + r.discount * r.x_prime for r in records])
        direct = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=30_000)
        assert ks_two_sample(recombined, direct)[2]
        x_prime = np.array([r.x_prime for r in records])
        assert ks_two_sample(x_prime, direct)[2]

    def test_marginals_at_first_jump(self, make_stream):
        records = decompose_many(_gamma_model(), FirstJump(), POLICY, 30_000,
                                 make_stream())
        direct = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=30_000)
        x_total = np.array([r.x_total for r in records])
        x_prime = np.array([r.x_prime for r in records])
        assert ks_two_sample(x_total, direct)[2]
        assert ks_two_sample(x_prime, direct)[2]
        band = independence_pass_band(len(records))
        disc = np.array([r.discount for r in records])
        assert independence_diagnostic(disc, x_prime) <= band


class TestFirstValueIdentity:
    def test_pathwise_equality(self, make_stream):
        stream = make_stream()
        for s in stream.split(300):
            d = first_value_identity(_gamma_model(), POLICY, s)
            assert d.residual == abs(d.lhs - d.rhs)
            assert d.residual <= 1e-10 * (1.0 + abs(d.lhs))

    def test_requires_pure_jump_model(self, make_stream):
        with pytest.raises(ValueError):
            first_value_identity(LevyModel(jump_rate=1.0,
                                           jump_law=ExponentialJumps(1.0),
                                           drift=0.5), POLICY, make_stream())
        with pytest.raises(ValueError):
            first_value_identity(LevyModel(drift=1.0), POLICY, make_stream())

    def test_lhs_is_gamma(self, make_stream):
        stream = make_stream()
        lhs = np.array([first_value_identity(_gamma_model(), POLICY, s).lhs
                        for s in stream.split(20_000)])
        ref = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=20_000)
        assert ks_two_sample(lhs, ref)[2]

    def test_discount_independent_of_shifted_integral(self, make_stream):
        stream = make_stream()
        details = [first_value_identity(_gamma_model(), POLICY, s)
                   for s in stream.split(10_000)]
        disc = np.array([d.discount for d in details])
        shifted = np.array([d.shifted_integral for d in details])
        assert independence_diagnostic(disc, shifted) <= independence_pass_band(10_000)

    def test_restricted_identity(self, make_stream):
        jump_set = JumpSet("ge", 1.0)
        stream = make_stream()
        for s in stream.split(300):
            d = restricted_jump_identity(_gamma_model(), jump_set, POLICY, s)
            assert jump_set.contains(d.first_size)
            assert abs(d.lhs - d.rhs) <= 1e-10 * (1.0 + abs(d.lhs))

    def test_full_support_set_reduces_to_first_value(self, make_stream):
        # a set containing every positive jump makes the restricted identity
        # reproduce the plain one draw for draw
        full = JumpSet("ge", 1e-300)
        a = first_value_identity(_gamma_model(), POLICY, make_stream(seed=42))
        b = restricted_jump_identity(_gamma_model(), full, POLICY,
                                     RngStream(42, stream_id=1))
        assert a == b

    def test_series_form_matches_evaluators(self, make_stream):
        # sum_k e^{-tau_k} * jump_k over the thinned path equals both
        # evaluators applied to it
        p = simulate_path(_gamma_model(alpha=4.0), 20.0, make_stream())
        in_a, _ = thin_path(p, JumpSet("ge", 0.5))
        manual = sum(float(np.exp(-t)) * float(x)
                     for t, x in zip(in_a.jump_times, in_a.jump_sizes))
        assert eval_jump_sum(in_a, 20.0) == pytest.approx(manual, rel=1e-10)
        assert eval_by_parts(in_a, 20.0) == pytest.approx(manual, rel=1e-10)

    def test_gaps_independent_of_sizes(self, make_stream):
        # in the series representation the discount factors and the jump
        # sizes are independent families
        stream = make_stream()
        gaps, sizes = [], []
        for s in stream.split(10_000):
            p = simulate_path(_gamma_model(alpha=2.0), 20.0, s)
            in_a, _ = thin_path(p, JumpSet("ge", 0.5))
            if in_a.n_jumps >= 2:
                gaps.append(float(in_a.jump_times[1] - in_a.jump_times[0]))
                sizes.append(float(in_a.jump_sizes[0]))
        gaps, sizes = np.array(gaps), np.array(sizes)
        assert independence_diagnostic(gaps, sizes) <= independence_pass_band(gaps.size)
