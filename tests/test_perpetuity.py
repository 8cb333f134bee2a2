"""Affine recursions, backward series, and the gamma factorizations."""

from dataclasses import dataclass

import numpy as np
import pytest

from sdlevy.cli import _run_prop1
from sdlevy.decomposition import FixedTime, IndependentRandomTime, KthJump, decompose_many
from sdlevy.discount import TAIL_TOL, TruncationPolicy, sample_discounted_integral_many
from sdlevy.errors import ContractionError
from sdlevy.levy import ExponentialJumps, LevyModel
from sdlevy.perpetuity import StoppedIntegralAffine, sample_backward_series_many
from sdlevy.rng import GammaParams, RngStream, sample_gamma
from sdlevy.stats import compare_samples, ks_two_sample

POLICY = TruncationPolicy()


def _gamma_model(alpha=2.0, lam=1.0):
    return LevyModel(jump_rate=alpha, jump_law=ExponentialJumps(lam))


def _first_jump_pair(alpha, lam):
    """The gamma driver's pair at its first jump, (e^{-tau}, e^{-tau} J):
    the beta-gamma pair (U^{1/alpha}, U^{1/alpha} Exp(lam))."""
    return StoppedIntegralAffine(_gamma_model(alpha, lam), KthJump())


@dataclass(frozen=True)
class ConstantAffine:
    """The degenerate affine law A = a, B = b."""

    a: float
    b: float

    def sample_pairs(self, stream, size):
        return np.full(size, self.a), np.full(size, self.b)


class TestIteration:
    def test_log_contraction_estimate(self, make_stream):
        # E[log U^{1/a}] = -1/a
        a, _ = _first_jump_pair(2.0, 1.0).sample_pairs(make_stream(), size=200_000)
        assert np.mean(np.log(a)) == pytest.approx(-0.5, abs=0.01)


class TestBackwardSeries:
    def test_constant_law_closed_form(self, make_stream):
        # sum of 1 * (1/2)^k = 2 up to the truncation tail; 2^-k drops below
        # 1e-12 at k = 40, so a cap of 40 terms suffices and 39 raises
        z, terms = sample_backward_series_many(ConstantAffine(0.5, 1.0), 1e-12, 5,
                                               make_stream(), max_terms=40)
        np.testing.assert_allclose(z, 2.0, rtol=0, atol=1e-10)
        assert terms == 40
        with pytest.raises(ContractionError, match="max_terms = 39"):
            sample_backward_series_many(ConstantAffine(0.5, 1.0), 1e-12, 5,
                                        make_stream(), max_terms=39)

    def test_tail_tol_validated(self, make_stream):
        with pytest.raises(ValueError):
            sample_backward_series_many(ConstantAffine(0.5, 1.0), 0.0, 10,
                                        make_stream(), max_terms=200)
        with pytest.raises(ValueError):
            sample_backward_series_many(ConstantAffine(0.5, 1.0), 2.0, 10,
                                        make_stream(), max_terms=200)

    def test_divergent_law_rejected(self, make_stream):
        with pytest.raises(ContractionError):
            sample_backward_series_many(ConstantAffine(1.0, 1.0), 1e-12, 10,
                                        make_stream(), max_terms=200)
        with pytest.raises(ContractionError):
            sample_backward_series_many(ConstantAffine(1.5, 1.0), 1e-12, 10,
                                        make_stream(), max_terms=200)

    def test_gamma_series_marginal_and_mean(self, make_stream):
        z, _ = sample_backward_series_many(_first_jump_pair(2.0, 1.0), 1e-12, 50_000,
                                           make_stream(), max_terms=200)
        ref = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=50_000)
        assert ks_two_sample(z, ref)[2]
        se = z.std() / np.sqrt(z.size)
        assert abs(z.mean() - 2.0) < 3.0 * se

    def test_forward_and_backward_agree_in_law(self, make_stream):
        # 300 forward steps of Z' = AZ + B from 0, the reference the series
        # replaces, against the series, for the gamma chain and the Gaussian
        # stopped-integral law
        gaussian = StoppedIntegralAffine(LevyModel(gauss_var=1.0),
                                         IndependentRandomTime(1.0))
        for law in (_first_jump_pair(0.5, 1.0), gaussian):
            stream = make_stream()
            fwd = np.zeros(30_000)
            for _ in range(300):
                a, b = law.sample_pairs(stream, size=30_000)
                fwd = a * fwd + b
            bwd, _ = sample_backward_series_many(law, 1e-12, 30_000, make_stream(),
                                                 max_terms=200)
            assert ks_two_sample(fwd, bwd)[2], law

    def test_truncation_honesty(self):
        # same stream, tighter tail_tol: the lockstep series draws the same
        # pairs for every path, so the tighter run only appends tail terms;
        # the two draws agree to roughly the looser tolerance and the mean
        # moves far less than one Monte Carlo standard error
        law = _first_jump_pair(2.0, 1.0)
        z1, _ = sample_backward_series_many(law, 1e-8, 5000, RngStream(314159),
                                            max_terms=200)
        z2, _ = sample_backward_series_many(law, 1e-12, 5000, RngStream(314159),
                                            max_terms=200)
        assert np.max(np.abs(z1 - z2)) < 1e-6
        se = z1.std() / np.sqrt(z1.size)
        assert abs(z1.mean() - z2.mean()) < se


def _prop1_samples(shape, n, stream):
    """The verify-prop1 runner's samples.csv columns for one shape at lam = 1."""
    return _run_prop1({"alphas": [shape], "lam": 1.0}, n, POLICY, stream).samples


class TestGammaFactorizations:
    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
    def test_beta_gamma_identity(self, shape, make_stream):
        tag = repr(shape).removesuffix(".0")
        samples = _prop1_samples(shape, 50_000, make_stream())
        assert ks_two_sample(samples[f"beta_gamma_lhs_{tag}"],
                             samples[f"beta_gamma_rhs_{tag}"])[2]

    def test_beta_gamma_moments(self, make_stream):
        # independence makes moments multiply:
        # E[U^{1/2} * gamma(3,1)] = (2/3) * 3 = 2
        # E[(U^{1/2})^2 * gamma(3,1)^2] = (1/2) * 12 = 6
        rhs = _prop1_samples(2.0, 200_000, make_stream())["beta_gamma_rhs_2"]
        se1 = rhs.std() / np.sqrt(rhs.size)
        assert abs(rhs.mean() - 2.0) < 3.0 * se1
        sq = rhs * rhs
        se2 = sq.std() / np.sqrt(sq.size)
        assert abs(sq.mean() - 6.0) < 3.0 * se2

    def test_first_jump_discount_reading(self, make_stream):
        # D = e^{-Exp(a)} has P(D <= x) = x^a, i.e. D =d U^{1/a}
        a = 2.0
        stream = make_stream()
        d = np.exp(-stream.exponential(a, size=100_000))
        u = make_stream().uniform(size=100_000) ** (1.0 / a)
        assert ks_two_sample(d, u)[2]

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0])
    def test_factor_form_matches_gamma(self, shape, make_stream):
        # A * gamma(shape, 1) + B for the first-jump pair (A, B)
        stream = make_stream()
        a, b = _first_jump_pair(shape, 1.0).sample_pairs(stream, size=50_000)
        rhs = a * sample_gamma(GammaParams(shape, 1.0), stream, size=50_000) + b
        ref = sample_gamma(GammaParams(shape, 1.0), make_stream(), size=50_000)
        assert ks_two_sample(rhs, ref)[2]

    def test_alternative_reading_matches_only_at_shape_one(self, make_stream):
        # D = e^{-gamma(a,1)} coincides with e^{-Exp(a)} only when a = 1
        def alternative(shape, stream):
            d = np.exp(-sample_gamma(GammaParams(shape, 1.0), stream, size=50_000))
            return d * (stream.exponential(1.0, size=50_000)
                        + sample_gamma(GammaParams(shape, 1.0), stream, size=50_000))

        ref = sample_gamma(GammaParams(1.0, 1.0), make_stream(), size=50_000)
        assert ks_two_sample(alternative(1.0, make_stream()), ref)[2]

        ref2 = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=50_000)
        d, thr, ok = ks_two_sample(alternative(2.0, make_stream()), ref2)
        assert not ok and d > 10.0 * thr


class TestStoppedIntegralAffine:
    def test_first_jump_fast_path_matches_decompose(self, make_stream):
        # the vectorized (A, B) sampler and the per-record decomposition are
        # two routes to the same joint law
        model = _gamma_model()
        law = StoppedIntegralAffine(model, KthJump())
        a_fast, b_fast = law.sample_pairs(make_stream(), size=20_000)
        records = decompose_many(model, KthJump(), POLICY, 5_000, make_stream())
        assert ks_two_sample(a_fast, records.discount)[2]
        assert ks_two_sample(b_fast, records.x_tau)[2]

    def test_fixed_time_pairs(self, make_stream):
        law = StoppedIntegralAffine(_gamma_model(), FixedTime(0.7))
        a, b = law.sample_pairs(make_stream(), size=20_000)
        np.testing.assert_allclose(a, np.exp(-0.7))
        records = decompose_many(_gamma_model(), FixedTime(0.7), POLICY, 5_000,
                                 make_stream())
        assert ks_two_sample(b, records.x_tau)[2]

    @pytest.mark.parametrize("drift", [0.0, 0.4])
    def test_zero_fixed_time_pairs(self, drift):
        # stopped at once: no jump, no drift and a discount of 1; the jump
        # model's zero windows hold no expected jump, so its n paths are one
        # block and only their Poisson counts are drawn
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=drift)
        stream = RngStream(32)
        a, b = StoppedIntegralAffine(model, FixedTime(0.0)).sample_pairs(stream, size=1000)
        assert np.array_equal(a, np.ones(1000))
        assert not np.any(b)
        assert stream.counter == 1000

    def test_generic_rule_fallback(self, make_stream):
        # the second jump at rate 3 comes at tau ~ gamma(2, 3), and X_tau has
        # the law of the per-record decomposition's x_tau
        model = _gamma_model(alpha=3.0)
        law = StoppedIntegralAffine(model, KthJump(2))
        a, b = law.sample_pairs(make_stream(), size=2_000)
        assert np.all((a > 0.0) & (a < 1.0))
        assert np.all(b >= 0.0)
        tau = sample_gamma(GammaParams(2.0, 3.0), make_stream(), size=2_000)
        assert ks_two_sample(-np.log(a), tau)[2]
        records = decompose_many(model, KthJump(2), POLICY, 2_000, make_stream())
        assert ks_two_sample(b, records.x_tau)[2]

    @pytest.mark.parametrize("drift, gauss_var", [(0.0, 0.0), (0.4, 0.0), (0.0, 1.5)])
    def test_first_jump_pairs_draw_tau_jump_then_the_continuous_part(self, drift, gauss_var):
        # B = e^{-tau} J + the drift and Gaussian integrals up to tau; a pure
        # jump model draws tau and J only, and its B is e^{-tau} J exactly
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=drift,
                          gauss_var=gauss_var)
        stream = RngStream(31)
        a, b = StoppedIntegralAffine(model, KthJump()).sample_pairs(stream, size=1000)
        replay = RngStream(31)
        tau = replay.exponential(2.0, size=1000)
        ref = np.exp(-tau) * model.jump_law.sample(replay, size=1000)
        ref += drift * -np.expm1(-tau)
        if gauss_var:
            ref += np.sqrt(gauss_var * 0.5 * -np.expm1(-2.0 * tau)) * replay.normal(size=1000)
        assert np.array_equal(a, np.exp(-tau))
        assert np.array_equal(b, ref)
        assert stream.counter == replay.counter == (3000 if gauss_var else 2000)

    def test_first_jump_requires_jumps(self, make_stream):
        law = StoppedIntegralAffine(LevyModel(drift=1.0), KthJump())
        with pytest.raises(ValueError):
            law.sample_pairs(make_stream(), size=10)


def _check_perpetuity(model, rule, stream):
    """The (e^{-tau}, X_tau) recursion's backward series matches direct
    integral draws (KS and both moment bands); its discount lies in [0, 1]
    and is non-degenerate."""
    law = StoppedIntegralAffine(model, rule)
    s_iter, s_direct, s_diag = stream.split(3)
    stationary, _ = sample_backward_series_many(law, TAIL_TOL, 30_000, s_iter, max_terms=200)
    direct = sample_discounted_integral_many(model, POLICY, 30_000, s_direct)
    report = compare_samples("perpetuity_fixed_point", stationary, direct)
    assert report.verdict, report.to_json_dict()
    a, _ = law.sample_pairs(s_diag, size=10_000)
    assert np.all((a >= 0.0) & (a <= 1.0))
    assert np.std(a) > 0.0


class TestSelfdecomposableAsPerpetuity:
    def test_gamma_driver(self, make_stream):
        _check_perpetuity(_gamma_model(), KthJump(), make_stream())

    def test_gaussian_driver(self, make_stream):
        _check_perpetuity(LevyModel(gauss_var=1.0),
                          IndependentRandomTime(1.0), make_stream())

    def test_drift_only_fixed_point(self, make_stream):
        # pure drift c has X = c(1 - e^{-tau}) + e^{-tau} X, fixed point c
        law = StoppedIntegralAffine(LevyModel(drift=1.0),
                                    IndependentRandomTime(1.0))
        a, b = law.sample_pairs(make_stream(), size=1000)
        np.testing.assert_allclose(b, 1.0 - a, rtol=1e-12)
        # the series is 1 - prod A, cut once prod A < 1e-12
        z, _ = sample_backward_series_many(law, 1e-12, 1000, make_stream(), max_terms=400)
        np.testing.assert_allclose(z, 1.0, atol=1e-9)
