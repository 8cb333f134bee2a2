"""The discounted random integral int_(0,t] e^{-s} dY(s) and its
infinite-horizon limit.

Two independent evaluators of a path object are provided on purpose: the
direct jump-sum form and the integration-by-parts form. Their agreement on
every path is itself a test. The batch sampler sums, without a path
object, the jumps of ``levy._poisson_jumps``, the generator that also
builds path objects, drawn in blocks of paths by ``levy._jump_sums``.
Truncating the horizon at T leaves a tail distributed as
e^{-T} times an independent copy of the full integral, so the truncation
error is a known multiplicative contraction, ``TAIL_TOL`` at the default T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy import JumpPath, LevyModel, _jump_sums
from .rng import RngStream


# Every truncation, of an integral's horizon or of a perpetuity series,
# discards at most TAIL_TOL times an independent stationary copy.
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class TruncationPolicy:
    """Finite horizon T replacing (0, infinity). The discarded tail is
    e^{-T} times an independent stationary copy, so the default
    T = ln(1 / TAIL_TOL) makes it at most ``tail_tol`` times an independent
    stationary copy, the guarantee of the perpetuity series."""

    horizon: float = -math.log(TAIL_TOL)

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")


def eval_jump_sum(path: JumpPath, t: float) -> float:
    """Sum_{tau_k <= t} e^{-tau_k} dY_k + drift*(1 - e^{-t}), on a jump +
    drift path (path objects have no Gaussian part)."""
    path._check_time(t)
    idx = int(np.searchsorted(path.jump_times, t, side="right"))
    val = float(np.sum(np.exp(-path.jump_times[:idx]) * path.jump_sizes[:idx]))
    return val + path.drift * -np.expm1(-t)


def eval_by_parts(path: JumpPath, t: float) -> float:
    """e^{-t} Y(t) + int_(0,t] Y(s-) e^{-s} ds with exact segment integrals
    of the piecewise-constant-plus-linear path."""
    path._check_time(t)
    idx = int(np.searchsorted(path.jump_times, t, side="right"))
    times = path.jump_times[:idx]
    sizes = path.jump_sizes[:idx]
    starts = np.concatenate(([0.0], times))
    ends = np.concatenate((times, [t]))
    levels = np.concatenate(([0.0], np.cumsum(sizes)))  # jump level inside each segment
    e_start = np.exp(-starts)
    e_end = np.exp(-ends)
    integral = float(np.sum(levels * (e_start - e_end)))
    integral += path.drift * float(np.sum((starts + 1.0) * e_start - (ends + 1.0) * e_end))
    y_t = path.drift * t + float(levels[-1])
    return math.exp(-t) * y_t + integral


def _sum_by_path(owner, weights, n: int) -> np.ndarray:
    """Per-path sums of ragged weights, as floats even when there are none
    (``bincount`` of an empty array returns integers)."""
    return np.bincount(owner, weights=weights, minlength=n).astype(float, copy=False)


def _integral_batch(model: LevyModel, window, n: int, stream: RngStream) -> np.ndarray:
    """For each of n independent paths, int_(0,w] e^{-s} dY(s) over the
    path's window w (a scalar, or one value per path).

    The paths are drawn and summed in blocks by ``levy._jump_sums``, and each
    block's normals of the Gaussian part are drawn right after its jumps, so
    for a scalar window the first k * m draws are the same for every
    n >= k * m. A jump-free model draws no jumps and is one block, and a zero
    drift adds nothing.
    """
    def block_sum(owner, times, sizes, w, m):
        times *= -1.0  # the per-path sums of e^{-t} * size, in the times array
        np.exp(times, out=times)
        times *= sizes
        out = _sum_by_path(owner, times, m)
        if model.drift:
            out += model.drift * -np.expm1(-w)
        if model.gauss_var > 0:
            sd = np.sqrt(model.gauss_var * 0.5 * -np.expm1(-2.0 * w))
            out += sd * stream.normal(size=m)
        return out

    return _jump_sums([(model, block_sum)], window, n, stream, np.zeros(n))


def sample_discounted_integral_many(model: LevyModel, policy: TruncationPolicy,
                                    n: int, stream: RngStream) -> np.ndarray:
    """n independent draws of the discounted integral truncated at the
    policy horizon."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _integral_batch(model, policy.horizon, n, stream)
