"""Random affine recursions Z_{n+1} = A_n Z_n + B_n, their stationary laws
(perpetuities), and the gamma-specific beta-gamma factorizations.

Every selfdecomposable law is a perpetuity: the pair (e^{-tau}, X_tau)
produced by stopping the discounted integral at tau gives an affine
recursion whose fixed point is the law itself. The gamma law additionally
admits the closed-form factorizations

    gamma(a, r) =d U^{1/a} * gamma(a+1, r)
    gamma(a, r) =d D * (gamma(1, r) + gamma(a, r)),   D = e^{-Exp(a)} =d U^{1/a}
    gamma(a, r) =d sum_n U_1^{1/a} ... U_n^{1/a} * Exp_n(r)

with all factors independent. The discount D above is the first jump time
of the compound Poisson driver, whose rate is the shape a; an alternative
reading with D = e^{-gamma(a,1)} is exposed for comparison and agrees only
at a = 1 (checked by the CDF identity P(e^{-Exp(a)} <= x) = x^a).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .decomposition import FirstJump, FixedTime, IndependentRandomTime, StoppingRule
# decompose stays bound here: perfbench/tests/test_bench_tracer.py reads it.
from .decomposition import decompose, decompose_many  # noqa: F401
from .discount import TruncationPolicy, _integral_batch, sample_discounted_integral_many
from .errors import ContractionError
from .levy import ExponentialJumps, LevyModel
from .rng import GammaParams, RngStream, sample_gamma
from .stats import StatReport, compare_samples


# ---------------------------------------------------------------------------
# Affine pair laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantAffine:
    a: float
    b: float

    def sample_pairs(self, stream: RngStream, size: int):
        n = int(size)
        return np.full(n, self.a), np.full(n, self.b)


@dataclass(frozen=True)
class BetaGammaAffine:
    """The gamma chain: A = U^{1/shape}, B = A * Exp(rate) (the C-form
    Z =d A(Z+C) with C = gamma(1, rate))."""

    shape: float
    rate: float

    def __post_init__(self):
        GammaParams(self.shape, self.rate)

    def sample_pairs(self, stream: RngStream, size: int):
        n = int(size)
        a = stream.uniform(size=n) ** (1.0 / self.shape)
        return a, a * stream.exponential(self.rate, size=n)


@dataclass(frozen=True)
class CustomAffine:
    """Arbitrary joint sampler; ``sampler(stream, n)`` returns (A, B) arrays."""

    sampler: Callable

    def sample_pairs(self, stream: RngStream, size: int):
        a, b = self.sampler(stream, int(size))
        return np.asarray(a, float), np.asarray(b, float)


@dataclass(frozen=True)
class StoppedIntegralAffine:
    """(A, B) = (e^{-tau}, X_tau): the discount and the stopped discounted
    integral of the model, drawn jointly on one realization."""

    model: LevyModel
    rule: StoppingRule

    def sample_pairs(self, stream: RngStream, size: int):
        n = int(size)
        model = self.model
        if isinstance(self.rule, FirstJump):
            if model.jump_rate <= 0:
                raise ValueError("FirstJump needs a positive jump rate")
            tau = stream.exponential(model.jump_rate, size=n)
            jumps = np.atleast_1d(model.jump_law.sample(stream, size=n))
            # No jump before tau: only the drift and Gaussian parts remain.
            a = np.exp(-tau)
            rest = _integral_batch(replace(model, jump_rate=0.0), tau, n, stream)
            return a, a * jumps + rest
        if isinstance(self.rule, FixedTime):
            tau = np.full(n, self.rule.t)
            return np.exp(-tau), _integral_batch(model, tau, n, stream)
        if isinstance(self.rule, IndependentRandomTime):
            time_stream = stream.split(1)[0]
            tau = np.atleast_1d(self.rule.law.sample(time_stream, size=n))
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
# Iteration and the backward series
# ---------------------------------------------------------------------------

def iterate_many(law, z0: float, n_steps: int, n_chains: int,
                 stream: RngStream) -> np.ndarray:
    """Forward iteration over independent chains, vectorized per step."""
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    z = np.full(int(n_chains), float(z0))
    for _ in range(n_steps):
        a, b = law.sample_pairs(stream, size=n_chains)
        z = a * z + b
    return z


def _require_contractive(law, stream: RngStream):
    est = estimate_log_contraction(law, stream.split(1)[0])
    if not (est < 0):
        raise ContractionError(
            f"estimated E[log|A|] = {est:.4g} >= 0; the backward series diverges")


def sample_backward_series_many(law, tail_tol: float, n: int, stream: RngStream,
                                max_terms: int = 10_000) -> np.ndarray:
    """n exactly-stationary draws of Z = sum_k B_k prod_{l<k} A_l, each
    truncated once its running product drops below tail_tol (the truncation
    error is bounded by tail_tol times a stationary copy)."""
    if not (0.0 < tail_tol < 1.0):
        raise ValueError("tail_tol must be in (0, 1)")
    _require_contractive(law, stream)
    z = np.zeros(n)
    prod = np.ones(n)
    active = np.arange(n)
    for _ in range(max_terms):
        a, b = law.sample_pairs(stream, size=active.size)
        z[active] += prod[active] * b
        prod[active] *= a
        keep = np.abs(prod[active]) >= tail_tol
        active = active[keep]
        if active.size == 0:
            return z
    raise ContractionError(f"series did not contract within {max_terms} terms")


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


# ---------------------------------------------------------------------------
# Selfdecomposable laws as perpetuities
# ---------------------------------------------------------------------------

def selfdecomposable_as_perpetuity(model: LevyModel, policy: TruncationPolicy,
                                   n: int, stream: RngStream,
                                   n_steps: int = 200,
                                   significance: float = 0.001) -> StatReport:
    """Build (A, B) = (e^{-tau}, X_tau) pairs from the stopped integral, run
    the forward iteration to stationarity, and compare against direct
    discounted-integral draws. Also confirms A in [0, 1] a.s. and
    non-degenerate."""
    if model.jump_rate > 0:
        rule: StoppingRule = FirstJump()
    else:
        # A jump-free driver has no first jump; an independent Exp(1) time is
        # a valid stopping rule and keeps the discount non-degenerate.
        rule = IndependentRandomTime(ExponentialJumps(1.0))
    law = StoppedIntegralAffine(model, rule)
    s_iter, s_direct, s_diag = stream.split(3)
    stationary = iterate_many(law, 0.0, n_steps, n, s_iter)
    direct = sample_discounted_integral_many(model, policy, n, s_direct)
    a, _ = law.sample_pairs(s_diag, size=min(n, 10_000))
    extra = {
        "discount_in_unit_interval": bool(np.all((a >= 0.0) & (a <= 1.0))),
        "discount_nondegenerate": bool(np.std(a) > 0.0),
    }
    return compare_samples("perpetuity_fixed_point", stationary, direct,
                           significance=significance, extra_checks=extra)
