"""The discounted random integral int_(0,t] e^{-s} dY(s) and its
infinite-horizon limit.

Two independent evaluators are provided on purpose: the direct jump-sum
form and the integration-by-parts form. Their agreement on every path is
itself a test. Truncating the horizon at T leaves a tail distributed as
e^{-T} times an independent copy of the full integral, so the truncation
error is a known multiplicative contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy import JumpPath, LevyModel
from .rng import RngStream


@dataclass(frozen=True)
class TruncationPolicy:
    """Finite horizon T replacing (0, infinity); the discarded tail is
    e^{-T} times an independent stationary copy, below double-precision
    visibility at the default T = 40 for desk-scale laws."""

    horizon: float = 40.0

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")


def _check_time(path: JumpPath, t: float):
    if not (0.0 <= t <= path.horizon):
        raise ValueError(f"time {t} outside [0, {path.horizon}]")


def eval_jump_sum(path: JumpPath, t: float) -> float:
    """Sum_{tau_k <= t} e^{-tau_k} dY_k + drift*(1 - e^{-t}), on a jump +
    drift path (path objects have no Gaussian part)."""
    _check_time(path, t)
    idx = int(np.searchsorted(path.jump_times, t, side="right"))
    val = float(np.sum(np.exp(-path.jump_times[:idx]) * path.jump_sizes[:idx]))
    return val + path.drift * -np.expm1(-t)


def eval_by_parts(path: JumpPath, t: float) -> float:
    """e^{-t} Y(t) + int_(0,t] Y(s-) e^{-s} ds with exact segment integrals
    of the piecewise-constant-plus-linear path."""
    _check_time(path, t)
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


def _poisson_jumps(model: LevyModel, window, n: int, stream: RngStream):
    """The jumps of n independent compound Poisson paths on (0, w_i], with
    w a scalar or one window per path, as ragged arrays: the path each jump
    belongs to (grouped in path order), its time and its size.

    Given the Poisson count, a path's jump times are laid down as uniform
    order statistics and left unsorted: every sum over a path's jumps is
    exchangeable in them. Variates are drawn in the order Poisson counts,
    uniform times, jump sizes; a jump-free model draws nothing.
    """
    if model.jump_rate <= 0:
        return np.empty(0, np.intp), np.empty(0), np.empty(0)
    counts = stream.poisson(model.jump_rate * window, size=n)
    owner = np.repeat(np.arange(n), counts)
    times = stream.uniform(size=owner.size) * (
        window[owner] if np.ndim(window) else window)
    sizes = np.atleast_1d(model.jump_law.sample(stream, size=owner.size))
    return owner, times, sizes


def _sum_by_path(owner, weights, n: int) -> np.ndarray:
    """Per-path sums of ragged weights, as floats even when there are none
    (``bincount`` of an empty array returns integers)."""
    return np.bincount(owner, weights=weights, minlength=n).astype(float, copy=False)


def _integral_batch(model: LevyModel, window, n: int, stream: RngStream,
                    rate: float = 1.0) -> np.ndarray:
    """For each of n independent paths, int_(0,w] e^{-rate*s} dY(s) over the
    path's window w (a scalar, or one value per path).

    The jumps come from ``_poisson_jumps``; the normals of the Gaussian part
    are drawn after them.
    """
    owner, times, sizes = _poisson_jumps(model, window, n, stream)
    out = _sum_by_path(owner, np.exp(-rate * times) * sizes, n)
    out += model.drift * -np.expm1(-rate * window) / rate
    if model.gauss_var > 0:
        sd = np.sqrt(model.gauss_var * 0.5 * -np.expm1(-2.0 * rate * window) / rate)
        out += sd * stream.normal(size=n)
    return out


def sample_discounted_integral_many(model: LevyModel, policy: TruncationPolicy,
                                    n: int, stream: RngStream) -> np.ndarray:
    """n independent draws of the discounted integral truncated at the
    policy horizon."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _integral_batch(model, policy.horizon, n, stream)
