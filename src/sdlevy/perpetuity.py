"""Random affine recursions Z_{n+1} = A_n Z_n + B_n, their stationary laws
(perpetuities), and the gamma-specific beta-gamma factorizations.

Every selfdecomposable law is a perpetuity: the pair (e^{-tau}, X_tau)
produced by stopping the discounted integral at tau (StoppedIntegralAffine)
gives an affine recursion whose fixed point is the law itself; the
``perpetuity-iterate`` runner in ``cli`` picks tau and judges that fixed
point. One loop draws every stationary law: the backward series
Z = sum_k B_k prod_{l<k} A_l, cut once each chain's running product is below
tail_tol (from Z_0 = 0, k forward steps equal the series cut after k terms in
law: the pairs are i.i.d., so reversing their order changes no law); a series
that needs more than max_terms terms raises ContractionError. The gamma law
additionally admits the closed-form factorizations

    gamma(a, r) =d U^{1/a} * gamma(a+1, r)
    gamma(a, r) =d D * (gamma(1, r) + gamma(a, r)),   D = e^{-Exp(a)} =d U^{1/a}
    gamma(a, r) =d sum_n U_1^{1/a} ... U_n^{1/a} * Exp_n(r)

with all factors independent. D is the discount at the first jump of the
compound Poisson driver, whose rate is the shape a, and the series is the
backward series of that driver's first-jump pair (e^{-tau}, e^{-tau} J),
the beta-gamma pair (U^{1/a}, U^{1/a} Exp(r)). An alternative reading with
D = e^{-gamma(a,1)} is exposed for comparison and agrees only at a = 1
(checked by the CDF identity P(e^{-Exp(a)} <= x) = x^a).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decomposition import (FixedTime, IndependentRandomTime, KthJump, StoppingRule,
                            _preset_time)
# decompose stays bound here: perfbench/tests/test_bench_tracer.py reads it.
from .decomposition import decompose, decompose_many  # noqa: F401
from .discount import TruncationPolicy, _integral_batch
from .errors import ContractionError
from .levy import LevyModel
from .rng import GammaParams, RngStream, sample_gamma


# ---------------------------------------------------------------------------
# Affine pair laws: any object whose sample_pairs(stream, size) returns the
# (A, B) arrays is one
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoppedIntegralAffine:
    """(A, B) = (e^{-tau}, X_tau): the discount and the stopped discounted
    integral of the model, drawn jointly on one realization."""

    model: LevyModel
    rule: StoppingRule

    def sample_pairs(self, stream: RngStream, size: int):
        n = int(size)
        model = self.model
        if self.rule == KthJump():
            if model.jump_rate <= 0:
                raise ValueError("the first jump needs a positive jump rate")
            tau = stream.exponential(model.jump_rate, size=n)
            jumps = model.jump_law.sample(stream, size=n)
            a = np.exp(-tau)
            b = a * jumps
            # No jump before tau: only the drift and Gaussian parts remain.
            if model.drift or model.gauss_var > 0:
                b += _integral_batch(replace(model, jump_rate=0.0), tau, n, stream)
            return a, b
        if isinstance(self.rule, (FixedTime, IndependentRandomTime)):
            tau = _preset_time(self.rule, stream, n)
            return np.exp(-tau), _integral_batch(model, tau, n, stream)
        # Generic rules fall back to the decomposition engine. The law of
        # (e^{-tau}, X_tau) does not depend on the horizon, so the default
        # policy serves every caller.
        rec = decompose_many(model, self.rule, TruncationPolicy(), n, stream)
        return rec.discount, rec.x_tau


def estimate_log_contraction(law, stream: RngStream, n: int = 512) -> float:
    """Monte Carlo estimate of E[log |A|]; negative means contractive."""
    a, _ = law.sample_pairs(stream, size=n)
    with np.errstate(divide="ignore"):
        return float(np.mean(np.log(np.abs(a))))


# ---------------------------------------------------------------------------
# The backward series
# ---------------------------------------------------------------------------

def _require_contractive(law, stream: RngStream):
    est = estimate_log_contraction(law, stream.split(1)[0])
    if not (est < 0):
        raise ContractionError(
            f"estimated E[log|A|] = {est:.4g} >= 0; the backward series diverges")


def sample_backward_series_many(law, tail_tol: float, n: int, stream: RngStream, *,
                                max_terms: int) -> tuple[np.ndarray, int]:
    """n exactly-stationary draws of Z = sum_k B_k prod_{l<k} A_l, each
    truncated once its running product drops below tail_tol (the truncation
    error is bounded by tail_tol times a stationary copy), and the number of
    terms the slowest path used. The paths run in lockstep: every term draws
    n pairs and a stopped path's product is 0, so on the same stream a
    tighter tail_tol only appends terms to each path. A path still running
    after max_terms terms raises ContractionError."""
    if not (0.0 < tail_tol < 1.0):
        raise ValueError("tail_tol must be in (0, 1)")
    _require_contractive(law, stream)
    z = np.zeros(n)
    prod = np.ones(n)
    for terms in range(1, max_terms + 1):
        a, b = law.sample_pairs(stream, size=n)
        z += prod * b
        prod *= a
        prod[np.abs(prod) < tail_tol] = 0.0
        if not prod.any():
            return z, terms
    raise ContractionError(f"series did not reach tail_tol {tail_tol:g} "
                           f"within max_terms = {max_terms} terms")


# ---------------------------------------------------------------------------
# Gamma factorizations
# ---------------------------------------------------------------------------

def beta_gamma_identity_samples(shape: float, rate: float, n: int,
                                stream: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """lhs: direct gamma(shape, rate) draws; rhs: U^{1/shape} * gamma(shape+1, rate)
    with independent factors. The two are equal in law."""
    if n < 1:
        raise ValueError("n must be at least 1")
    s_lhs, s_rhs = stream.split(2)
    lhs = sample_gamma(GammaParams(shape, rate), s_lhs, size=n)
    rhs = s_rhs.uniform(size=n) ** (1.0 / shape) * sample_gamma(
        GammaParams(shape + 1.0, rate), s_rhs, size=n)
    return lhs, rhs


def gamma_factor_samples(shape: float, rate: float, n: int, stream: RngStream,
                         discount: str = "first_jump") -> np.ndarray:
    """Draws of D * (gamma(1, rate) + gamma(shape, rate)) with all three
    factors independent.

    discount="first_jump": D = e^{-Exp(shape)} (equivalently U^{1/shape}),
    the discount at the driver's first jump; this reproduces gamma(shape, rate).
    discount="gamma_exponent": D = e^{-gamma(shape, 1)}, kept for comparison;
    it matches only at shape = 1.
    """
    if discount == "first_jump":
        d = np.exp(-stream.exponential(shape, size=n))
    elif discount == "gamma_exponent":
        d = np.exp(-sample_gamma(GammaParams(shape, 1.0), stream, size=n))
    else:
        raise ValueError(f"unknown discount reading {discount!r}")
    return d * (stream.exponential(rate, size=n)
                + sample_gamma(GammaParams(shape, rate), stream, size=n))
