"""Acceptance gate: the headline guarantees of the library at full sample
sizes and stated tolerances. Each criterion prints one pass/fail line."""

import json

import numpy as np
import pytest

from sdlevy.cli import _run_prop1, run
from sdlevy.decomposition import FixedTime, IndependentRandomTime, KthJump, decompose_many
from sdlevy.discount import (TAIL_TOL, TruncationPolicy, eval_by_parts, eval_jump_sum,
                             sample_discounted_integral_many)
from sdlevy.errors import SpectralGateError
from sdlevy.levy import ExponentialJumps, JumpSet, LevyModel, simulate_path
from sdlevy.operator import (OperatorModel, operator_decompose_many,
                             sample_operator_integral_many)
from sdlevy.perpetuity import StoppedIntegralAffine, sample_backward_series_many
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
        d, thr, this_ok = ks_two_sample(draws, ref)
        ok = ok and this_ok
        worst += f" ({alpha:g},{lam:g}):D={d:.4f}/{thr:.4f}"
    _verdict(1, "gamma marginal of the discounted driver", ok, worst.strip())


def test_02_pathwise_recombination():
    """x_total = x_tau + e^{-tau} x_prime on every realization, five stopping
    rules, 1e4 records each, relative tolerance 1e-10."""
    rules = (FixedTime(0.7), KthJump(), KthJump(1, JumpSet(1.0)),
             KthJump(3), IndependentRandomTime(1.0))
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
    r = decompose_many(_gamma_model(2.0, 1.0), KthJump(), POLICY, N, s_rec)
    ref = sample_gamma(GammaParams(2.0, 1.0), s_ref, size=N)
    d1, t1, ok1 = ks_two_sample(r.x_total, ref)
    d2, t2, ok2 = ks_two_sample(r.x_prime, ref)
    band = independence_pass_band(N)
    dep = independence_diagnostic(r.discount, r.x_prime)
    ok = ok1 and ok2 and dep <= band
    _verdict(3, "stopped factorization in law", ok,
             f"D_total={d1:.4f}, D_shifted={d2:.4f}, dep={dep:.4f}<=band={band:.4f}")


def test_04_beta_gamma_factorizations():
    """gamma(a,1) =d U^{1/a} gamma(a+1,1) and =d e^{-Exp(a)}(Exp(1)+gamma(a,1))
    for a in {0.5, 1, 2}, with mean and second moment oracles within 3 SE."""
    shapes = (0.5, 1.0, 2.0)
    result = _run_prop1({"alphas": list(shapes), "lam": 1.0}, N, POLICY,
                        RngStream(SEED, stream_id=4))
    ks_pass = {r.name: r.diagnostics["ks_pass"] for r in result.reports}
    ok = True
    detail = ""
    for a in shapes:
        tag = repr(a).removesuffix(".0")
        ok_bg = ks_pass[f"beta_gamma_alpha_{tag}"]
        ok_fac = ks_pass[f"first_jump_factor_alpha_{tag}"]
        rhs = result.samples[f"beta_gamma_rhs_{tag}"]
        factor = result.samples[f"factor_form_{tag}"]
        # gamma(a, 1) has mean a and second moment a(a+1)
        m1, m2 = a, a * (a + 1.0)
        ok_m1 = abs(rhs.mean() - m1) <= 3.0 * rhs.std() / np.sqrt(N)
        sq = factor * factor
        ok_m2 = abs(sq.mean() - m2) <= 3.0 * sq.std() / np.sqrt(N)
        ok = ok and ok_bg and ok_fac and ok_m1 and ok_m2
        detail += f" a={a:g}:{'ok' if ok_bg and ok_fac and ok_m1 and ok_m2 else 'BAD'}"
    _verdict(4, "beta-gamma and first-jump factorizations", ok, detail.strip())


def test_05_backward_series():
    """The backward perpetuity series of the gamma driver's first-jump pair,
    (e^{-tau}, X_tau) =d (U^{1/a}, U^{1/a} Exp(lam)), reproduces gamma(a, lam)
    at the tail tolerance TAIL_TOL for a in {0.5, 1, 2}, lam in {1, 3}."""
    stream = RngStream(SEED, stream_id=5)
    ok = True
    detail = ""
    for a in (0.5, 1.0, 2.0):
        for lam in (1.0, 3.0):
            s_ser, s_ref = stream.split(2)
            law = StoppedIntegralAffine(_gamma_model(a, lam), KthJump())
            series, _ = sample_backward_series_many(law, TAIL_TOL, N, s_ser, max_terms=200)
            ref = sample_gamma(GammaParams(a, lam), s_ref, size=N)
            d, thr, this_ok = ks_two_sample(series, ref)
            ok = ok and this_ok
            detail += f" ({a:g},{lam:g}):{d:.4f}"
    _verdict(5, "backward series reproduces the gamma law", ok, detail.strip())


def test_06_selfdecomposable_laws_are_perpetuities(tmp_path):
    """The (e^{-tau}, X_tau) affine recursion has the law itself as its
    stationary law, for a jump driver and a Gaussian driver, with the
    discount in [0, 1] and non-degenerate; both run as `perpetuity-iterate`."""
    ok, details = True, []
    for driver, params in (("gamma", {"alpha": 2.0, "lam": 1.0}),
                           ("gaussian", {"sigma2": 1.0})):
        config = {"experiment": "perpetuity-iterate", "seed": SEED, "n_samples": N,
                  "params": {"driver": driver, "n_steps": 200, **params}}
        status = run(config, out_dir=tmp_path / driver)
        doc = json.loads((tmp_path / driver / "report.json").read_text())
        fixed = doc["reports"][0]
        ok = (ok and status == 0 and doc["verdict"] is True
              and fixed["name"] == "perpetuity_fixed_point" and fixed["verdict"]
              and doc["extras"]["discount_in_unit_interval"] is True
              and doc["extras"]["discount_nondegenerate"] is True)
        details.append(f"D_{driver}={fixed['ks_stat']:.4f}")
    _verdict(6, "perpetuity fixed points (jump and Gaussian drivers)", ok,
             ", ".join(details))


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
    model = OperatorModel(q, coords)
    stream = RngStream(SEED, stream_id=8)
    s_rec, s_mean = stream.split(2)

    records = operator_decompose_many(model, KthJump(), POLICY, 2000, s_rec)
    worst = float(np.max(records.residual
                         / (1.0 + np.linalg.norm(records.x_total, axis=1))))

    draws = sample_operator_integral_many(model, POLICY, N, s_mean)
    target = model.mean_integral()
    se = draws.std(axis=0) / np.sqrt(N)
    mean_ok = bool(np.all(np.abs(draws.mean(axis=0) - target) <= 3.0 * se))

    gate_ok = False
    try:
        OperatorModel(np.diag([1.0, -0.5]), coords)
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
        failures += 0 if ks_two_sample(a, b)[2] else 1

    s1, s2 = stream.split(2)
    a = sample_gamma(GammaParams(2.0, 1.0), s1, size=N)
    wrong = sample_gamma(GammaParams(2.2, 1.0), s2, size=N)
    wrong_detected = not ks_two_sample(a, wrong)[2]
    dep_detected = independence_diagnostic(a, a) > independence_pass_band(N)
    # the alternative discount reading, D = e^{-gamma(2,1)} in
    # D * (Exp(1) + gamma(2,1)), must be rejected away from shape 1
    s_alt = stream.split(1)[0]
    d = np.exp(-sample_gamma(GammaParams(2.0, 1.0), s_alt, size=N))
    alt = d * (s_alt.exponential(1.0, size=N)
               + sample_gamma(GammaParams(2.0, 1.0), s_alt, size=N))
    alt_detected = not ks_two_sample(alt, a)[2]

    ok = failures <= 1 and wrong_detected and dep_detected and alt_detected
    _verdict(9, "null calibration and negative controls", ok,
             f"null failures {failures}/100, controls "
             f"{wrong_detected}/{dep_detected}/{alt_detected}")
