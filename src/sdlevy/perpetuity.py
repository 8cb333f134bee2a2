"""Random affine recursions Z_{n+1} = A_n Z_n + B_n and their stationary
laws (perpetuities).

Every selfdecomposable law is a perpetuity: the pair (e^{-tau}, X_tau)
produced by stopping the discounted integral at tau (StoppedIntegralAffine)
gives an affine recursion whose fixed point is the law itself; the
``perpetuity-iterate`` runner in ``cli`` picks tau and judges that fixed
point. One loop draws every stationary law: the backward series
Z = sum_k B_k prod_{l<k} A_l, cut once each chain's running product is below
tail_tol (from Z_0 = 0, k forward steps equal the series cut after k terms in
law: the pairs are i.i.d., so reversing their order changes no law); a series
that needs more than max_terms terms raises ContractionError. For the gamma
driver at its first jump the pair is (e^{-tau}, e^{-tau} J), and
gamma(a, r) =d e^{-Exp(a)} (Exp(r) + gamma(a, r)) is its fixed-point
equation Z =d A Z + B (Vervaat 1979).
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
from .rng import RngStream


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


# ---------------------------------------------------------------------------
# The backward series
# ---------------------------------------------------------------------------

def _require_contractive(law, stream: RngStream):
    """Raise ContractionError unless a Monte Carlo estimate of E[log |A|],
    from 512 pairs on a child stream, is negative."""
    a, _ = law.sample_pairs(stream.split(1)[0], size=512)
    with np.errstate(divide="ignore"):
        est = float(np.mean(np.log(np.abs(a))))
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
