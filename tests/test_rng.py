"""Stream determinism, uniform draws and the gamma sampler, checked against
independent oracles (quadrature moments, scipy CDF inversion)."""

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from sdlevy.rng import GammaParams, RngStream, sample_gamma
from sdlevy.stats import ks_two_sample


class TestStreamDeterminism:
    def test_same_key_same_sequence(self):
        a = RngStream(123, stream_id=7).uniform(size=1000)
        b = RngStream(123, stream_id=7).uniform(size=1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_ids_distinct_sequences(self):
        a = RngStream(123, stream_id=7).uniform(size=1000)
        b = RngStream(123, stream_id=8).uniform(size=1000)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_split_ids_do_not_depend_on_draw_count(self):
        s1 = RngStream(5, stream_id=1)
        s1.uniform(size=987)  # consume an arbitrary number of variates
        s2 = RngStream(5, stream_id=1)
        ids1 = [c.stream_id for c in s1.split(4)]
        ids2 = [c.stream_id for c in s2.split(4)]
        assert ids1 == ids2
        assert len(set(ids1)) == 4

    def test_split_children_reproduce(self):
        c1 = RngStream(5, stream_id=1).split(3)[2]
        c2 = RngStream(5, stream_id=1).split(3)[2]
        assert c1.uniform(size=64).tolist() == c2.uniform(size=64).tolist()

    def test_counter_tracks_draws(self):
        s = RngStream(0)
        s.uniform(size=10)
        s.normal(size=5)
        s.exponential(1.0, size=1)
        assert s.counter == 16


class TestUniform:
    def test_open_interval(self, make_stream):
        u = make_stream().uniform(size=200_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_mean_and_var(self, make_stream):
        u = make_stream().uniform(size=1_000_000)
        # SE of the mean is sqrt(1/12)/1000 ~ 2.9e-4
        assert abs(u.mean() - 0.5) < 1e-3
        assert abs(u.var() - 1.0 / 12.0) < 1e-3

    def test_power_moment_matches_quadrature(self, make_stream):
        # E[U^{1/a}] via numeric quadrature, no closed form assumed.
        for a in (0.5, 2.0):
            target, _ = scipy.integrate.quad(lambda u: u ** (1.0 / a), 0.0, 1.0)
            draws = make_stream().uniform(size=500_000) ** (1.0 / a)
            assert abs(draws.mean() - target) < 4.0 * draws.std() / np.sqrt(draws.size)


class TestGamma:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaParams(1.0, -2.0)
        with pytest.raises(ValueError):
            GammaParams(np.inf, 1.0)

    def test_moments_match_quadrature_oracle(self, make_stream):
        p = GammaParams(2.5, 2.0)
        pdf = scipy.stats.gamma(a=p.shape, scale=1.0 / p.rate).pdf
        m1, _ = scipy.integrate.quad(lambda x: x * pdf(x), 0, np.inf)
        m2, _ = scipy.integrate.quad(lambda x: x * x * pdf(x), 0, np.inf)
        x = sample_gamma(p, make_stream(), size=1_000_000)
        assert abs(x.mean() - m1) < 4.0 * x.std() / 1000.0
        assert abs(np.mean(x * x) - m2) < 4.0 * np.std(x * x) / 1000.0

    @pytest.mark.parametrize("shape", [0.3, 1.0, 4.5])
    def test_ks_against_cdf_inversion(self, shape, make_stream):
        # Oracle draws via scipy's inverse CDF applied to our own uniforms.
        s1, s2 = make_stream(), make_stream()
        ours = sample_gamma(GammaParams(shape, 1.0), s1, size=100_000)
        oracle = scipy.stats.gamma(a=shape).ppf(s2.uniform(size=100_000))
        d, thr, ok = ks_two_sample(ours, oracle)
        assert ok, f"shape={shape}: D={d:.4g} >= {thr:.4g}"

    def test_additivity(self, make_stream):
        # gamma(3,1) equals the sum of three independent Exp(1).
        s1, s2 = make_stream(), make_stream()
        direct = sample_gamma(GammaParams(3.0, 1.0), s1, size=100_000)
        summed = s2.exponential(1.0, size=(300_000)).reshape(3, -1).sum(axis=0)
        assert ks_two_sample(direct, summed)[2]

    def test_rate_scaling(self, make_stream):
        s1, s2 = make_stream(), make_stream()
        a = sample_gamma(GammaParams(2.0, 3.0), s1, size=100_000)
        b = sample_gamma(GammaParams(2.0, 1.0), s2, size=100_000) / 3.0
        assert ks_two_sample(a, b)[2]
