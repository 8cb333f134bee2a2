"""Acceptance gate: the headline guarantees of the library at full sample
sizes and stated tolerances. Each criterion prints one pass/fail line."""

import numpy as np
import pytest

from sdlevy.decomposition import (FirstJump, FirstJumpIn, FixedTime,
                                  IndependentRandomTime, KthJump, decompose_many)
from sdlevy.discount import (TruncationPolicy, eval_by_parts, eval_jump_sum,
                             sample_discounted_integral_many)
from sdlevy.errors import SpectralGateError
from sdlevy.levy import ExponentialJumps, JumpSet, LevyModel, simulate_path
from sdlevy.operator import (IndependentCoordinates, OperatorModel,
                             operator_decompose_many,
                             sample_operator_integral_many)
from sdlevy.perpetuity import (BetaGammaAffine, beta_gamma_identity_samples,
                               gamma_factor_samples, sample_backward_series_many,
                               selfdecomposable_as_perpetuity)
from sdlevy.rng import GammaParams, RngStream, sample_gamma
from sdlevy.stats import (independence_diagnostic, independence_pass_band,
                          ks_two_sample)

SEED = 1999
N = 100_000
POLICY = TruncationPolicy()


def _gamma_model(alpha, lam):
    return LevyModel(jump_rate=alpha, jump_law=ExponentialJumps(lam))


def _verdict(index: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {index}] {label}: {status}{suffix}", flush=True)
    assert ok, f"criterion {index} ({label}) failed{suffix}"


def test_01_gamma_driver_marginal():
    """The discounted compound Poisson(alpha, Exp(lam)) integral is
    gamma(alpha, lam), at n = 1e5 and significance 0.001."""
    worst = ""
    ok = True
    stream = RngStream(SEED, stream_id=1)
    for alpha, lam in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (2.0, 3.0)):
        s_int, s_ref = stream.split(2)
        draws = sample_discounted_integral_many(_gamma_model(alpha, lam),
                                                POLICY, N, s_int)
        ref = sample_gamma(GammaParams(alpha, lam), s_ref, size=N)
        d, thr, this_ok = ks_two_sample(draws, ref, significance=0.001)
        ok = ok and this_ok
        worst += f" ({alpha:g},{lam:g}):D={d:.4f}/{thr:.4f}"
    _verdict(1, "gamma marginal of the discounted driver", ok, worst.strip())


def test_02_pathwise_recombination():
    """x_total = x_tau + e^{-tau} x_prime on every realization, five stopping
    rules, 1e4 records each, relative tolerance 1e-10."""
    rules = (FixedTime(0.7), FirstJump(), FirstJumpIn(JumpSet("ge", 1.0)),
             KthJump(3), IndependentRandomTime(ExponentialJumps(1.0)))
    model = _gamma_model(2.0, 1.0)
    stream = RngStream(SEED, stream_id=2)
    worst = 0.0
    for rule in rules:
        r = decompose_many(model, rule, POLICY, 10_000, stream)
        worst = max(worst, float(np.max(r.residual / (1.0 + np.abs(r.x_total)))))
    _verdict(2, "pathwise stopped recombination", worst <= 1e-10,
             f"max relative residual {worst:.3g}")


def test_03_stopped_factorization_in_law():
    """At the first jump of the gamma(2,1) driver: the total and the shifted
    integral are both gamma(2,1), and the discount is independent of the
    shifted integral."""
    stream = RngStream(SEED, stream_id=3)
    s_rec, s_ref = stream.split(2)
    r = decompose_many(_gamma_model(2.0, 1.0), FirstJump(), POLICY, N, s_rec)
    ref = sample_gamma(GammaParams(2.0, 1.0), s_ref, size=N)
    d1, t1, ok1 = ks_two_sample(r.x_total, ref, significance=0.001)
    d2, t2, ok2 = ks_two_sample(r.x_prime, ref, significance=0.001)
    band = independence_pass_band(N)
    dep = independence_diagnostic(r.discount, r.x_prime)
    ok = ok1 and ok2 and dep <= band
    _verdict(3, "stopped factorization in law", ok,
             f"D_total={d1:.4f}, D_shifted={d2:.4f}, dep={dep:.4f}<=band={band:.4f}")


def test_04_beta_gamma_factorizations():
    """gamma(a,1) =d U^{1/a} gamma(a+1,1) and =d e^{-Exp(a)}(Exp(1)+gamma(a,1))
    for a in {0.5, 1, 2}, with mean and second moment oracles within 3 SE."""
    stream = RngStream(SEED, stream_id=4)
    ok = True
    detail = ""
    for a in (0.5, 1.0, 2.0):
        s_bg, s_fac, s_ref = stream.split(3)
        lhs, rhs = beta_gamma_identity_samples(a, 1.0, N, s_bg)
        _, _, ok_bg = ks_two_sample(lhs, rhs, significance=0.001)
        factor = gamma_factor_samples(a, 1.0, N, s_fac, discount="first_jump")
        ref = sample_gamma(GammaParams(a, 1.0), s_ref, size=N)
        _, _, ok_fac = ks_two_sample(factor, ref, significance=0.001)
        # gamma(a, 1) has mean a and second moment a(a+1)
        m1, m2 = a, a * (a + 1.0)
        ok_m1 = abs(rhs.mean() - m1) <= 3.0 * rhs.std() / np.sqrt(N)
        sq = factor * factor
        ok_m2 = abs(sq.mean() - m2) <= 3.0 * sq.std() / np.sqrt(N)
        ok = ok and ok_bg and ok_fac and ok_m1 and ok_m2
        detail += f" a={a:g}:{'ok' if ok_bg and ok_fac and ok_m1 and ok_m2 else 'BAD'}"
    _verdict(4, "beta-gamma and first-jump factorizations", ok, detail.strip())


def test_05_backward_series():
    """The backward perpetuity series of (U^{1/a}, U^{1/a} Exp(lam)) reproduces
    gamma(a, lam) at tail_tol 1e-12 for a in {0.5, 1, 2}, lam in {1, 3}."""
    stream = RngStream(SEED, stream_id=5)
    ok = True
    detail = ""
    for a in (0.5, 1.0, 2.0):
        for lam in (1.0, 3.0):
            s_ser, s_ref = stream.split(2)
            series = sample_backward_series_many(BetaGammaAffine(a, lam), 1e-12,
                                                 N, s_ser)
            ref = sample_gamma(GammaParams(a, lam), s_ref, size=N)
            d, thr, this_ok = ks_two_sample(series, ref, significance=0.001)
            ok = ok and this_ok
            detail += f" ({a:g},{lam:g}):{d:.4f}"
    _verdict(5, "backward series reproduces the gamma law", ok, detail.strip())


def test_06_selfdecomposable_laws_are_perpetuities():
    """The (e^{-tau}, X_tau) affine recursion has the law itself as its
    stationary law, for a jump driver and a Gaussian driver, with the
    discount in [0, 1] and non-degenerate."""
    stream = RngStream(SEED, stream_id=6)
    s_gamma, s_gauss = stream.split(2)
    r1 = selfdecomposable_as_perpetuity(_gamma_model(2.0, 1.0), POLICY, N, s_gamma)
    r2 = selfdecomposable_as_perpetuity(LevyModel(gauss_var=1.0), POLICY, N, s_gauss)
    ok = (r1.verdict and r2.verdict
          and r1.diagnostics["discount_in_unit_interval"]
          and r1.diagnostics["discount_nondegenerate"]
          and r2.diagnostics["discount_in_unit_interval"]
          and r2.diagnostics["discount_nondegenerate"])
    _verdict(6, "perpetuity fixed points (jump and Gaussian drivers)", ok,
             f"D_gamma={r1.ks_stat:.4f}, D_gauss={r2.ks_stat:.4f}")


def test_07_evaluator_equivalence():
    """Jump-sum and integration-by-parts evaluators agree to 1e-10 relative
    on 1e4 paths at 5 random times each."""
    models = (
        _gamma_model(2.0, 1.0),
        LevyModel(jump_rate=0.5, jump_law=ExponentialJumps(2.0), drift=1.0),
        LevyModel(jump_rate=4.0, jump_law=ExponentialJumps(0.5), drift=-0.3),
    )
    stream = RngStream(SEED, stream_id=7)
    worst = 0.0
    for i, s in enumerate(stream.split(10_000)):
        path = simulate_path(models[i % len(models)], 12.0, s)
        for t in s.uniform(size=5) * path.horizon:
            a = eval_jump_sum(path, float(t))
            b = eval_by_parts(path, float(t))
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
    _verdict(7, "dual evaluator agreement", worst <= 1e-10,
             f"max relative gap {worst:.3g}")


def test_08_operator_factorization():
    """d = 2 operator case: pathwise recombination with the matrix discount
    to 1e-9, E[X] = Q^{-1} E[Y(1)] within 3 SE at n = 1e5, and the spectral
    gate rejects operators without strictly positive real spectrum."""
    q = np.array([[1.0, 0.0], [0.0, 2.0]])
    coords = (
        LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0)),
        LevyModel(jump_rate=1.0, jump_law=ExponentialJumps(2.0), drift=0.3),
    )
    model = OperatorModel(q, IndependentCoordinates(coords))
    stream = RngStream(SEED, stream_id=8)
    s_rec, s_mean = stream.split(2)

    records = operator_decompose_many(model, FirstJump(), POLICY, 2000, s_rec)
    worst = float(np.max(records.residual
                         / (1.0 + np.linalg.norm(records.x_total, axis=1))))

    draws = sample_operator_integral_many(model, POLICY, N, s_mean)
    target = model.mean_integral()
    se = draws.std(axis=0) / np.sqrt(N)
    mean_ok = bool(np.all(np.abs(draws.mean(axis=0) - target) <= 3.0 * se))

    gate_ok = False
    try:
        OperatorModel(np.diag([1.0, -0.5]), IndependentCoordinates(coords))
    except SpectralGateError:
        gate_ok = True

    ok = worst <= 1e-9 and mean_ok and gate_ok
    _verdict(8, "operator factorization and mean identity", ok,
             f"max residual {worst:.3g}, mean ok {mean_ok}, gate ok {gate_ok}")


def test_09_calibration_and_negative_controls():
    """100 null KS pairs at significance 0.001 fail at most once, and the
    negative controls (wrong shape; perfectly dependent pair) are rejected."""
    stream = RngStream(SEED, stream_id=9)
    failures = 0
    for s in stream.split(100):
        s1, s2 = s.split(2)
        a = sample_gamma(GammaParams(2.0, 1.0), s1, size=10_000)
        b = sample_gamma(GammaParams(2.0, 1.0), s2, size=10_000)
        failures += 0 if ks_two_sample(a, b, significance=0.001)[2] else 1

    s1, s2 = stream.split(2)
    a = sample_gamma(GammaParams(2.0, 1.0), s1, size=N)
    wrong = sample_gamma(GammaParams(2.2, 1.0), s2, size=N)
    wrong_detected = not ks_two_sample(a, wrong, significance=0.001)[2]
    dep_detected = independence_diagnostic(a, a) > independence_pass_band(N)
    # the alternative discount reading must be rejected away from shape 1
    alt = gamma_factor_samples(2.0, 1.0, N, stream.split(1)[0],
                               discount="gamma_exponent")
    alt_detected = not ks_two_sample(alt, a, significance=0.001)[2]

    ok = failures <= 1 and wrong_detected and dep_detected and alt_detected
    _verdict(9, "null calibration and negative controls", ok,
             f"null failures {failures}/100, controls "
             f"{wrong_detected}/{dep_detected}/{alt_detected}")
