"""The verification toolkit itself: KS calibration and power, the empirical CF,
independence diagnostics, and report plumbing."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from sdlevy.rng import GammaParams, RngStream, sample_gamma
from sdlevy.stats import (_ECF_CHUNK, KS_COEFF, SIGNIFICANCE, _median, compare_samples,
                          empirical_cf, gamma_cf, independence_diagnostic,
                          independence_pass_band, ks_two_sample, moment_summary)


class TestKS:
    def test_identical_samples(self, make_stream):
        x = make_stream().normal(size=1000)
        d, thr, ok = ks_two_sample(x, x)
        assert d == 0.0 and ok

    def test_statistic_matches_scipy(self, make_stream):
        a = make_stream().normal(size=1500)
        b = make_stream().normal(size=700) + 0.1
        d, _, _ = ks_two_sample(a, b)
        assert d == pytest.approx(scipy.stats.ks_2samp(a, b).statistic, abs=1e-12)

    def test_threshold_formula(self):
        n = m = 100_000
        expected = math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt((n + m) / (n * m))
        d, thr, _ = ks_two_sample(np.arange(n, dtype=float),
                                  np.arange(m, dtype=float))
        assert thr == pytest.approx(expected, rel=1e-12)
        assert thr == pytest.approx(0.0087, abs=2e-4)

    def test_threshold_shrinks_with_root_n(self, make_stream):
        a = make_stream().normal(size=4000)
        b = make_stream().normal(size=4000)
        thr1 = ks_two_sample(a[:1000], b[:1000])[1]
        thr4 = ks_two_sample(a, b)[1]
        assert thr1 / thr4 == pytest.approx(2.0, rel=1e-12)

    def test_stricter_significance_raises_threshold(self):
        # every KS test runs at the one fixed significance 0.001, whose
        # coefficient lies above the one at 0.01
        assert SIGNIFICANCE == 0.001
        assert KS_COEFF == math.sqrt(-0.5 * math.log(0.0005))
        assert KS_COEFF > math.sqrt(-0.5 * math.log(0.005))

    def test_preconditions(self, make_stream):
        small = make_stream().normal(size=50)
        big = make_stream().normal(size=200)
        with pytest.raises(ValueError):
            ks_two_sample(small, big)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_samples_raise(self, make_stream, bad):
        a = make_stream().normal(size=200)
        b = make_stream().normal(size=200)
        b[17] = bad
        with pytest.raises(ValueError, match="finite"):
            ks_two_sample(a, b)
        with pytest.raises(ValueError, match="finite"):
            ks_two_sample(b, a)

    def test_statistic_is_the_searchsorted_ratio_bit_for_bit(self):
        # D is the same ratio of the same integer counts as reading
        # #{a <= x} and #{b <= x} by searchsorted at every pooled point,
        # ties within and across the samples included
        rng = np.random.default_rng(5)
        for _ in range(300):
            n, m = rng.integers(100, 400, size=2)
            levels = rng.integers(1, 30)
            a = rng.integers(0, levels, n).astype(float)
            b = rng.integers(0, levels, m).astype(float)
            sa, sb = np.sort(a), np.sort(b)
            grid = np.concatenate([sa, sb])
            ref = np.max(np.abs(np.searchsorted(sa, grid, side="right") / n
                                - np.searchsorted(sb, grid, side="right") / m))
            assert ks_two_sample(a, b)[0] == ref

    def test_null_calibration(self, make_stream):
        # at significance 0.001, 100 independent null pairs should fail at
        # most once (P(>=2 failures) ~ 0.5%)
        stream = make_stream()
        failures = 0
        for s in stream.split(100):
            s1, s2 = s.split(2)
            a = sample_gamma(GammaParams(2.0, 1.0), s1, size=2000)
            b = sample_gamma(GammaParams(2.0, 1.0), s2, size=2000)
            failures += 0 if ks_two_sample(a, b)[2] else 1
        assert failures <= 1

    def test_power_against_shifted_shape(self, make_stream):
        a = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=100_000)
        b = sample_gamma(GammaParams(2.2, 1.0), make_stream(), size=100_000)
        d, thr, ok = ks_two_sample(a, b)
        assert not ok and d > 2.0 * thr


class TestECF:
    GRID = np.linspace(-5.0, 5.0, 41)

    def _gap(self, x, cf) -> float:
        # the largest |empirical CF - reference CF| over the grid
        return float(np.max(np.abs(empirical_cf(x, self.GRID) - cf)))

    def test_point_mass(self):
        x = np.full(1000, 2.5)
        assert self._gap(x, np.exp(2.5j * self.GRID)) < 1e-12

    def test_gamma_bound(self, make_stream):
        n = 100_000
        x = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=n)
        assert self._gap(x, gamma_cf(2.0, 1.0)(self.GRID)) < 5.0 / math.sqrt(n)

    def test_normal_bound(self, make_stream):
        # N(1, 4): CF exp(i*u - 2*u^2)
        n = 50_000
        x = 1.0 + 2.0 * make_stream().normal(size=n)
        assert self._gap(x, np.exp(1j * self.GRID - 2.0 * self.GRID ** 2)) < 5.0 / math.sqrt(n)

    def test_wrong_parameters_detected(self, make_stream):
        n = 100_000
        x = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=n)
        assert self._gap(x, gamma_cf(3.0, 1.0)(self.GRID)) > 5.0 / math.sqrt(n)

    def test_empirical_cf_chunking_consistent(self, make_stream):
        # two full blocks and a partial one agree with the one-shot formula
        x = make_stream().normal(size=2 * _ECF_CHUNK + 17)
        grid = np.array([-3.0, -0.5, 0.0, 1.0, 4.0])
        direct = np.exp(1j * grid[:, None] * x[None, :]).mean(axis=1)
        np.testing.assert_allclose(empirical_cf(x, grid), direct, atol=1e-12)

    def test_empirical_cf_peak_does_not_grow_with_grid(self, make_stream):
        # one frequency at a time: 11 and 1001 frequencies over 15,000
        # samples stay under one bound (a (grid x samples) complex matrix
        # would be 2.6 MB and 240 MB)
        x = make_stream().normal(size=15_000)
        for size in (11, 1001):
            grid = np.linspace(-5.0, 5.0, size)
            tracemalloc.start()
            try:
                empirical_cf(x, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1 << 20, size


class TestIndependence:
    def test_independent_pairs_pass(self, make_stream):
        x = make_stream().normal(size=50_000)
        y = make_stream().normal(size=50_000)
        assert independence_diagnostic(x, y) <= independence_pass_band(x.size)

    def test_identical_pair_fails(self, make_stream):
        x = make_stream().normal(size=10_000)
        assert independence_diagnostic(x, x) > independence_pass_band(x.size)

    def test_monotone_dependence_detected(self, make_stream):
        x = make_stream().exponential(1.0, size=20_000)
        y = x * x
        assert independence_diagnostic(x, y) > independence_pass_band(x.size)

    def test_heavy_tail_dependence_detected(self, make_stream):
        # clipping keeps the diagnostic usable when raw moments blow up
        x = make_stream().normal(size=20_000)
        y = 1.0 / np.abs(x) * np.sign(x)  # heavy-tailed, same sign as x
        assert independence_diagnostic(x, y) > independence_pass_band(x.size)

    def test_preconditions(self, make_stream):
        x = make_stream().normal(size=500)
        with pytest.raises(ValueError):
            independence_diagnostic(x, x)
        with pytest.raises(ValueError):
            independence_diagnostic(x, x[:100])


class TestMedian:
    # independence_diagnostic splits at this median, so it must equal
    # np.median bit for bit, ties and both parities included
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 1001])
    def test_matches_numpy(self, n, make_stream):
        x = make_stream().normal(size=n)
        ties = np.round(x * 2.0)
        for v in (x, ties, np.full(n, 3.5)):
            assert _median(v) == np.median(v)


class TestReports:
    def test_moment_summary(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        m = moment_summary(x)
        assert m["mean"] == 2.5 and m["n"] == 4
        assert m["var"] == pytest.approx(1.25)

    def test_compare_samples_verdict(self, make_stream):
        a = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=20_000)
        b = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=20_000)
        r = compare_samples("same_law", a, b)
        assert r.verdict
        assert r.diagnostics["ks_pass"]
        assert r.diagnostics["mean_within_3se"]

    def test_report_serialization(self, make_stream):
        a = make_stream().normal(size=1000)
        r = compare_samples("roundtrip", a, a)
        r.seed, r.config_fingerprint = 3, "ff"
        doc = json.loads(json.dumps(r.to_json_dict()))
        assert doc["name"] == "roundtrip" and doc["seed"] == 3
        assert doc["config_fingerprint"] == "ff"
        assert doc["significance"] == 0.001

    def test_deterministic_given_seed(self):
        def build(seed):
            s = RngStream(seed)
            a = sample_gamma(GammaParams(2.0, 1.0), s, size=5000)
            b = sample_gamma(GammaParams(2.0, 1.0), s, size=5000)
            r = compare_samples("det", a, b)
            r.seed = seed
            return json.dumps(r.to_json_dict(), sort_keys=True)

        assert build(11) == build(11)
        assert build(11) != build(12)
