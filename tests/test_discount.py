"""The discounted integral: closed-form examples, the dual evaluators, and
truncation behavior."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlevy.discount import (TAIL_TOL, TruncationPolicy, _integral_batch, eval_by_parts,
                             eval_jump_sum, sample_discounted_integral_many)
from sdlevy.levy import ExponentialJumps, JumpPath, LevyModel, _poisson_jumps, simulate_path
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

    def test_default_horizon_is_the_tail_tolerance(self):
        # the default T discards e^{-T} = TAIL_TOL times a stationary copy,
        # the tolerance at which the perpetuity series stop
        T = TruncationPolicy().horizon
        assert T == -math.log(TAIL_TOL) == 27.631021115928547
        assert math.exp(-T) == pytest.approx(TAIL_TOL, rel=1e-15)


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


def _unblocked_integral(model, window, n, stream, m=None):
    """The integral batch from the full owner/time/size arrays of
    ``_poisson_jumps``, one call per consecutive block of m paths (all n
    at once by default) on the one stream: per block one bincount of
    e^{-t} * size, the drift, then the block's normals of the Gaussian part."""
    m = m or n
    out = np.zeros(n)
    for lo in range(0, n, m):
        k = min(m, n - lo)
        w = window[lo:lo + k] if np.ndim(window) else window
        owner, times, sizes = _poisson_jumps(model, w, k, stream)
        out[lo:lo + k] = np.bincount(owner, weights=np.exp(-times) * sizes, minlength=k)
        out[lo:lo + k] += model.drift * -np.expm1(-w)
        if model.gauss_var > 0:
            sd = np.sqrt(model.gauss_var * 0.5 * -np.expm1(-2.0 * w))
            out[lo:lo + k] += sd * stream.normal(size=k)
    return out


# The kernel reads a law only through its ``sample``, and each block draws
# its own sizes, so a law that draws in rounds (the gamma rejection sampler)
# blocks like one that draws value by value. Beside the library's one law,
# stand-ins pin it for signed sizes, for sizes from a table, for a law that
# draws in rounds and for a law that draws no variate at all.
_LAWS = {"exponential": ExponentialJumps(1.0),
         "uniform": SimpleNamespace(sample=lambda s, size: 3.0 * s.uniform(size=size) - 1.0),
         "table": SimpleNamespace(sample=lambda s, size: np.array([1.0, -2.0, 3.0])[
             np.searchsorted([0.2, 0.7], s.uniform(size=size))]),
         "gamma_rounds": SimpleNamespace(
             sample=lambda s, size: sample_gamma(GammaParams(0.7, 2.0), s, size)),
         "constant": SimpleNamespace(sample=lambda s, size: np.full(size, 1.5))}


class TestBlockedKernel:
    """The batch integral draws its paths in consecutive blocks of m, each
    one ``_poisson_jumps`` call on the one stream (``levy._jump_sums``), and
    must equal the unblocked sums of those calls bit for bit."""

    # (n, rate, window bound) under blocks of 500 expected jumps: m = 6 at
    # rate 2 and window 40, so n = 1 is one block and n = 7 a full block and
    # a partial one; at n = 15,000 and m = 250 there are 60 blocks.
    _SIZES = [(1, 2.0, 40.0), (7, 2.0, 40.0), (15_000, 0.5, 4.0)]

    @pytest.mark.parametrize("law", sorted(_LAWS))
    @pytest.mark.parametrize("n, rate, bound", _SIZES)
    @pytest.mark.parametrize("per_path", [False, True], ids=["scalar_window", "path_windows"])
    def test_bit_equal_to_unblocked(self, monkeypatch, law, n, rate, bound, per_path):
        monkeypatch.setattr("sdlevy.levy._BLOCK", 500)
        model = LevyModel(jump_rate=rate, jump_law=_LAWS[law], drift=0.3, gauss_var=0.7)
        window = RngStream(3).uniform(size=n) * bound if per_path else bound
        # the most paths whose expected jump count at the largest window is
        # at most 500
        m = max(1, int(500 // (rate * np.max(window))))
        if not per_path:
            assert m == {1: 6, 7: 6, 15_000: 250}[n]
        ref_stream, stream = RngStream(11, n), RngStream(11, n)
        ref = _unblocked_integral(model, window, n, ref_stream, m)
        got = _integral_batch(model, window, n, stream)
        assert np.array_equal(got, ref)
        assert stream.counter == ref_stream.counter  # each variate counted once

    def test_one_block_is_the_unblocked_draw(self):
        # 500 paths of about 80 jumps fit one default block of 2^16: the
        # draws are one _poisson_jumps call, as with no blocking at all
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.3)
        ref_stream, stream = RngStream(12), RngStream(12)
        ref = _unblocked_integral(model, 40.0, 500, ref_stream)
        got = sample_discounted_integral_many(model, TruncationPolicy(40.0), 500, stream)
        assert np.array_equal(got, ref)
        assert stream.counter == ref_stream.counter

    def test_prefix_stable(self):
        # at rate 2 and T = 40 a default block holds m = 2^16 // 80 = 819
        # paths, so the first 2 * 819 draws are the same for every n >= 1,638;
        # with a Gaussian part too, since each block draws its own normals
        for gauss_var in (0.0, 0.5):
            model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.3,
                              gauss_var=gauss_var)
            draws = {n: sample_discounted_integral_many(model, TruncationPolicy(40.0), n,
                                                        RngStream(12))
                     for n in (1_638, 1_639, 5_000)}
            for n in (1_639, 5_000):
                assert np.array_equal(draws[n][:1_638], draws[1_638])

    @pytest.mark.parametrize("gauss_var", [0.0, 0.7])
    def test_zero_and_tiny_windows(self, gauss_var):
        # a zero window and a subnormal one hold no expected jump: the
        # block guard neither divides by them nor overflows, and a zero
        # window's integral is exactly 0 (its normal has sd 0)
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.3,
                          gauss_var=gauss_var)
        for window in (np.array([0.0, 5e-324, 2.5, 0.0, 40.0, 0.0]), np.zeros(6),
                       np.full(6, 5e-324)):
            ref_stream, stream = RngStream(15), RngStream(15)
            got = _integral_batch(model, window, 6, stream)
            assert np.array_equal(got, _unblocked_integral(model, window, 6, ref_stream))
            assert stream.counter == ref_stream.counter
            assert not np.any(got[window == 0.0])

    def test_peak_does_not_grow_with_jumps(self):
        # one fixed bound at T = 40 and T = 400 (about 1.2 and 12 million
        # jumps): block temporaries and length-n arrays, no per-jump array
        # (one float per jump alone would be 9.6 MB at T = 40)
        for horizon in (40.0, 400.0):
            tracemalloc.start()
            try:
                sample_discounted_integral_many(_gamma_model(2.0, 1.0),
                                                TruncationPolicy(horizon), 15_000,
                                                RngStream(13))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 << 20, horizon

    @pytest.mark.parametrize("gauss_var", [0.0, 2.0])
    def test_jump_free_model_draws_only_its_normals(self, gauss_var):
        stream = RngStream(14)
        draws = _integral_batch(LevyModel(drift=1.0, gauss_var=gauss_var), 3.0, 500, stream)
        assert stream.counter == (500 if gauss_var else 0)
        assert np.array_equal(draws, _unblocked_integral(
            LevyModel(drift=1.0, gauss_var=gauss_var), 3.0, 500, RngStream(14)))


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
