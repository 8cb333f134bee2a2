"""Stopping rules, the pathwise factorization, and the first-jump identities."""

import numpy as np
import pytest

from sdlevy.decomposition import (DecompositionRecord, FirstJump, FirstJumpIn,
                                  FixedTime, IndependentRandomTime, KthJump,
                                  _stopped_jumps, decompose, decompose_many,
                                  evaluate_stopping, first_value_identity,
                                  restricted_jump_identity)
from sdlevy.discount import (TruncationPolicy, _poisson_jumps, eval_by_parts, eval_jump_sum,
                             sample_discounted_integral_many)
from sdlevy.errors import InsufficientHorizonError
from sdlevy.levy import (ConstantJumps, ExponentialJumps, JumpPath, JumpSet,
                         LevyModel, simulate_path, thin_path)
from sdlevy.rng import GammaParams, RngStream, sample_gamma
from sdlevy.stats import independence_diagnostic, independence_pass_band, ks_two_sample


def _gamma_model(alpha=2.0, lam=1.0):
    return LevyModel(jump_rate=alpha, jump_law=ExponentialJumps(lam))


POLICY = TruncationPolicy()

# The five rule kinds, each realized early at the default horizon.
RULES = [
    FixedTime(0.7),
    FirstJump(),
    FirstJumpIn(JumpSet("ge", 1.0)),
    KthJump(3),
    IndependentRandomTime(ExponentialJumps(1.0)),
]
RULE_IDS = ["fixed_time", "first_jump", "first_jump_in", "kth_jump", "independent_time"]

DRIFT_GAUSS = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0),
                        drift=0.5, gauss_var=1.0)


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
        taus = decompose_many(_gamma_model(alpha), FirstJump(), POLICY, 30_000, stream).tau
        ref = make_stream().exponential(alpha, size=30_000)
        assert ks_two_sample(taus, ref)[2]

    def test_first_jump_in_time_is_exponential_at_thinned_rate(self, make_stream):
        # jumps >= a survive thinning with probability e^{-lam*a}
        alpha, lam, a = 2.0, 1.0, 1.0
        rule = FirstJumpIn(JumpSet("ge", a))
        stream = make_stream()
        taus = decompose_many(_gamma_model(alpha, lam), rule, POLICY, 30_000, stream).tau
        ref = make_stream().exponential(alpha * np.exp(-lam * a), size=30_000)
        assert ks_two_sample(taus, ref)[2]


class TestStoppedPath:
    @pytest.mark.parametrize("rule", RULES + [KthJump(170)],
                             ids=RULE_IDS + ["kth_jump_170"])
    def test_horizon_holds_tau_plus_T(self, rule, make_stream):
        # every record's jumps lie in (0, tau + T]; a path-dependent tau is
        # one of its own record's jump times. KthJump(170) needs more than
        # two blocks of length T at rate 2
        T, m = POLICY.horizon, 40
        s = make_stream()
        owner, times, _, tau = _stopped_jumps(
            lambda window, k: _poisson_jumps(_gamma_model(), window, k, s), rule, T, m, s)
        assert np.all((times > 0.0) & (times <= tau[owner] + T))
        if isinstance(rule, FixedTime):
            assert np.all(tau == rule.t)
        elif not isinstance(rule, IndependentRandomTime):
            hit = np.zeros(m, bool)
            hit[owner[times == tau[owner]]] = True
            assert hit.all()

    def test_rounded_window_still_holds_T(self, make_stream):
        # fl(30.1 + 40) - 30.1 < 40: a fixed time whose rounded window falls
        # short of T by an ulp still decomposes and factors exactly
        T = POLICY.horizon
        assert (30.1 + T) - 30.1 < T
        assert decompose(_gamma_model(), FixedTime(30.1), POLICY, make_stream()).passes(1e-10)
        r = decompose_many(_gamma_model(), FixedTime(30.1), POLICY, 300, make_stream())
        assert r.passes(1e-10).all()

    def test_reach(self):
        # Path-dependent rules are looked for on (0, 15T]. At rate 1e4 and
        # T = 1 the 145000th jump lies in (14, 15] and the 155000th past 15,
        # each by more than 12 standard deviations of the Poisson counts.
        model = LevyModel(jump_rate=1e4, jump_law=ConstantJumps(1.0))
        policy = TruncationPolicy(horizon=1.0)
        rec = decompose(model, KthJump(145_000), policy, RngStream(3))
        assert 14.0 < rec.tau <= 15.0 and rec.passes(1e-10)
        batch = decompose_many(model, KthJump(145_000), policy, 3, RngStream(4))
        assert np.all((batch.tau > 14.0) & (batch.tau <= 15.0))
        assert batch.passes(1e-10).all()
        with pytest.raises(InsufficientHorizonError):
            decompose(model, KthJump(155_000), policy, RngStream(3))
        with pytest.raises(InsufficientHorizonError):
            decompose_many(model, KthJump(155_000), policy, 3, RngStream(4))

    def test_unrealizable_rule_raises(self, make_stream):
        # no jump of size 1 ever lies in [2, inf): never capped, always raised
        model = LevyModel(jump_rate=2.0, jump_law=ConstantJumps(1.0))
        rule = FirstJumpIn(JumpSet("ge", 2.0))
        with pytest.raises(InsufficientHorizonError):
            decompose(model, rule, POLICY, make_stream())
        with pytest.raises(InsufficientHorizonError):
            decompose_many(model, rule, POLICY, 300, make_stream())


class TestBatchEngine:
    @pytest.mark.parametrize("model", [_gamma_model(), DRIFT_GAUSS],
                             ids=["gamma", "drift_gauss"])
    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_law_matches_per_record(self, model, rule, make_stream):
        # references that share no stopping code: tau against its closed-form
        # law, X' and the total against the direct discounted-integral
        # sampler (the total covers (0, tau + T], X' the shifted (0, T])
        if isinstance(rule, FirstJumpIn) and model.gauss_var > 0:
            with pytest.raises(ValueError):
                decompose_many(model, rule, POLICY, 10, make_stream())
            return
        n = 2_000
        batch = decompose_many(model, rule, POLICY, n, make_stream())
        ref_stream = make_stream()
        rate = model.jump_rate
        if isinstance(rule, FixedTime):
            assert np.all(batch.tau == rule.t)
        else:
            if isinstance(rule, FirstJump):
                ref = ref_stream.exponential(rate, size=n)
            elif isinstance(rule, FirstJumpIn):
                # P(Exp(1) jump >= 1) = e^{-1}
                ref = ref_stream.exponential(rate * np.exp(-1.0), size=n)
            elif isinstance(rule, KthJump):
                ref = sample_gamma(GammaParams(rule.k, rate), ref_stream, size=n)
            else:
                ref = rule.law.sample(ref_stream, size=n)
            assert ks_two_sample(batch.tau, ref, significance=0.001)[2], "tau"
        for field in ("x_prime", "x_total"):
            ref = sample_discounted_integral_many(model, POLICY, n, make_stream())
            assert ks_two_sample(getattr(batch, field), ref, significance=0.001)[2], field

    @pytest.mark.parametrize("rule", RULES[:4], ids=RULE_IDS[:4])
    def test_records_match_path_objects(self, rule):
        # rebuild each record of the pure-jump model from the engine's
        # arrays as a sorted path object: the reference route re-finds tau
        # bit for bit and the by-parts evaluator matches X_tau, the total
        # and the identities' lhs (the restricted one after thinning); the
        # records and the identities draw from the same chunk stream
        m, T, seed = 50, POLICY.horizon, 77
        model = _gamma_model()
        child = RngStream(seed).split(1)[0]
        owner, times, sizes, tau = _stopped_jumps(
            lambda window, k: _poisson_jumps(model, window, k, child), rule, T, m, child)
        rec = decompose_many(model, rule, POLICY, m, RngStream(seed))
        assert np.array_equal(rec.tau, tau)
        identity = None
        if isinstance(rule, FirstJump):
            identity = first_value_identity(model, POLICY, m, RngStream(seed))
        elif isinstance(rule, FirstJumpIn):
            identity = restricted_jump_identity(model, rule.jump_set, POLICY, m,
                                                RngStream(seed))
        for i in range(m):
            order = np.argsort(times[owner == i])
            path = JumpPath(tau[i] + T, times[owner == i][order], sizes[owner == i][order])
            assert evaluate_stopping(rule, path) == tau[i]
            for got, t in ((rec.x_tau[i], tau[i]), (rec.x_total[i], tau[i] + T)):
                ref = eval_by_parts(path, t)
                assert abs(got - ref) <= 1e-12 * abs(ref)
            if identity is not None:
                kept = path if isinstance(rule, FirstJump) else thin_path(path, rule.jump_set)[0]
                ref = eval_by_parts(kept, tau[i] + T)
                assert identity.tau[i] == tau[i]
                assert abs(identity.lhs[i] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("rule", RULES[1:4], ids=RULE_IDS[1:4])
    def test_jumps_end_at_tau_plus_T(self, rule, make_stream):
        # each record's jumps cover (0, tau + T] and nothing past it: every
        # time lies inside, and the count matches the Poisson mean over it
        # (162k jumps, so 1.5% is 6 standard errors)
        T, m = POLICY.horizon, 2_000
        s = make_stream()
        owner, times, _, tau = _stopped_jumps(
            lambda window, k: _poisson_jumps(_gamma_model(), window, k, s), rule, T, m, s)
        assert np.all((times > 0.0) & (times <= tau[owner] + T))
        assert owner.size == pytest.approx(2.0 * np.sum(tau + T), rel=0.015)

    @pytest.mark.parametrize("n", [1, 256, 257, 1000])
    def test_chunk_edges(self, n, make_stream):
        r = decompose_many(DRIFT_GAUSS, KthJump(3), POLICY, n, make_stream())
        for field in ("tau", "x_tau", "discount", "x_prime", "x_total"):
            assert getattr(r, field).shape == (n,)
            assert np.all(np.isfinite(getattr(r, field)))
        assert np.all(r.tau > 0) and r.passes(1e-10).all()
        assert np.array_equal(r.discount, np.exp(-r.tau))

    @pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
    def test_prefix_stable_and_reproducible(self, rule):
        # chunk i draws from child i of the stream, so a record depends on
        # its index only: n = 768 starts with the n = 256 records
        short = decompose_many(_gamma_model(), rule, POLICY, 256, RngStream(11))
        long = decompose_many(_gamma_model(), rule, POLICY, 768, RngStream(11))
        again = decompose_many(_gamma_model(), rule, POLICY, 768, RngStream(11))
        for field in ("tau", "x_tau", "discount", "x_prime", "x_total"):
            assert np.array_equal(getattr(long, field)[:256], getattr(short, field))
            assert np.array_equal(getattr(long, field), getattr(again, field))

    @pytest.mark.parametrize("model", [_gamma_model(), DRIFT_GAUSS],
                             ids=["gamma", "drift_gauss"])
    def test_fixed_time_zero_degenerates(self, model, make_stream):
        r = decompose_many(model, FixedTime(0.0), POLICY, 300, make_stream())
        assert np.all(r.tau == 0.0) and np.all(r.x_tau == 0.0)
        assert np.all(r.discount == 1.0)
        assert np.array_equal(r.x_prime, r.x_total)
        assert np.all(r.residual == 0.0)

    def test_n_validated(self, make_stream):
        with pytest.raises(ValueError):
            decompose_many(_gamma_model(), FirstJump(), POLICY, 0, make_stream())


class TestPathwiseFactorization:
    @pytest.mark.parametrize("rule", RULES)
    def test_residual_tiny(self, rule, make_stream):
        r = decompose_many(_gamma_model(), rule, POLICY, 200, make_stream())
        assert r.tau.shape == (200,)
        assert r.passes(1e-10).all()
        assert np.array_equal(r.residual,
                              np.abs(r.x_total - (r.x_tau + r.discount * r.x_prime)))

    def test_residual_with_drift_and_gaussian(self, make_stream):
        # the total must take the shifted window's normal discounted by
        # e^{-tau}, in the batch and in its n = 1 rows
        records = decompose_many(DRIFT_GAUSS, FirstJump(), POLICY, 200, make_stream())
        assert records.passes(1e-10).all()
        assert all(decompose(DRIFT_GAUSS, FirstJump(), POLICY, s).passes(1e-10)
                   for s in make_stream().split(200))

    def test_late_fixed_time_keeps_gaussian_variance(self, make_stream):
        # at tau = 20, e^{-2 tau} < eps: X' must still carry the Gaussian
        # part of its shifted window. Var X' = rate E[J^2] / 2 + gauss_var / 2
        # = 2.5, and the sample variance has SE sqrt((mu4 - var^2) / n) with
        # mu4 = kappa4 + 3 var^2, kappa4 = rate E[J^4] / 4 = 12
        n, var = 2_000, 2.5
        x_prime = np.array([decompose(DRIFT_GAUSS, FixedTime(20.0), POLICY, s).x_prime
                            for s in make_stream().split(n)])
        se = np.sqrt((12.0 + 2.0 * var ** 2) / n)
        assert abs(x_prime.var(ddof=1) - var) < 3.0 * se

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
        r = decompose_many(_gamma_model(), FixedTime(t), POLICY, 30_000,
                           make_stream())
        recombined = r.x_tau + r.discount * r.x_prime
        direct = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=30_000)
        assert ks_two_sample(recombined, direct)[2]
        assert ks_two_sample(r.x_prime, direct)[2]

    def test_marginals_at_first_jump(self, make_stream):
        # n = 1e5, the acceptance sample size: the KS thresholds and the
        # independence band tighten as 1/sqrt(n)
        n = 100_000
        r = decompose_many(_gamma_model(), FirstJump(), POLICY, n, make_stream())
        direct = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=n)
        assert ks_two_sample(r.x_total, direct)[2]
        assert ks_two_sample(r.x_prime, direct)[2]
        band = independence_pass_band(r.tau.size)
        assert independence_diagnostic(r.discount, r.x_prime) <= band


class TestFirstValueIdentity:
    def test_pathwise_equality(self, make_stream):
        d = first_value_identity(_gamma_model(), POLICY, 300, make_stream())
        assert d.lhs.shape == (300,)
        assert np.array_equal(d.residual, np.abs(d.lhs - d.rhs))
        assert np.all(d.residual <= 1e-10 * (1.0 + np.abs(d.lhs)))

    def test_requires_pure_jump_model(self, make_stream):
        with pytest.raises(ValueError):
            first_value_identity(LevyModel(jump_rate=1.0,
                                           jump_law=ExponentialJumps(1.0),
                                           drift=0.5), POLICY, 10, make_stream())
        with pytest.raises(ValueError):
            first_value_identity(LevyModel(drift=1.0), POLICY, 10, make_stream())

    def test_lhs_is_gamma(self, make_stream):
        lhs = first_value_identity(_gamma_model(), POLICY, 20_000, make_stream()).lhs
        ref = sample_gamma(GammaParams(2.0, 1.0), make_stream(), size=20_000)
        assert ks_two_sample(lhs, ref)[2]

    def test_discount_independent_of_shifted_integral(self, make_stream):
        d = first_value_identity(_gamma_model(), POLICY, 10_000, make_stream())
        assert (independence_diagnostic(d.discount, d.shifted_integral)
                <= independence_pass_band(10_000))

    def test_restricted_identity(self, make_stream):
        jump_set = JumpSet("ge", 1.0)
        d = restricted_jump_identity(_gamma_model(), jump_set, POLICY, 300, make_stream())
        assert np.all(jump_set.contains(d.first_size))
        assert np.all(np.abs(d.lhs - d.rhs) <= 1e-10 * (1.0 + np.abs(d.lhs)))

    def test_full_support_set_reduces_to_first_value(self, make_stream):
        # a set containing every positive jump makes the restricted identity
        # reproduce the plain one draw for draw
        full = JumpSet("ge", 1e-300)
        a = first_value_identity(_gamma_model(), POLICY, 300, make_stream(seed=42))
        b = restricted_jump_identity(_gamma_model(), full, POLICY, 300,
                                     RngStream(42, stream_id=1))
        for field in ("tau", "first_size", "discount", "shifted_integral", "lhs", "rhs"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

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
