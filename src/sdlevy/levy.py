"""Levy models (compound Poisson jumps of exponential size, drift and an
optional Gaussian component), the one compound Poisson generator
``_poisson_jumps``, and finite-horizon jump + drift trajectories, with the
shift and thin operations the discounted-integral constructions need.

``_poisson_jumps`` draws the jumps of n paths as ragged arrays, and it is
the only code that draws a jump: the records of ``decomposition`` and
``operator`` draw with it, the batch integrals of ``discount`` and
``operator`` draw with it in blocks of paths through ``_jump_sums``, so no
per-jump array outgrows a block, and ``simulate_path`` is its n = 1 draw,
sorted in time. Path objects have no Gaussian part: ``simulate_path``
refuses a model with one, and the batch samplers draw it exactly, as
normals. Path objects are the reference route for the evaluators and the
stopping rules: they share the generator with the batch engine, but not
its stopping or evaluation code.

Only finite-activity jumps are supported: every identity exercised here
lives in the compound Poisson world, and infinite-activity measures would
introduce simulation bias the exact pathwise checks cannot absorb.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream

# Expected jumps per block of paths in ``_jump_sums``: it bounds the kernel's
# temporaries and is part of the stream layout, as ``decomposition._CHUNK`` is
# for records, so it is not a parameter.
_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# Jump-size law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialJumps:
    rate: float

    def __post_init__(self):
        if not (self.rate > 0):
            raise ValueError("rate must be positive")

    def sample(self, stream: RngStream, size: int) -> np.ndarray:
        return stream.exponential(self.rate, size=size)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


# ---------------------------------------------------------------------------
# Models and Borel jump sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyModel:
    """Distributional spec of a Levy process: compound Poisson intensity and
    jump law, deterministic drift rate, and Gaussian variance rate."""

    jump_rate: float = 0.0
    jump_law: ExponentialJumps | None = None
    drift: float = 0.0
    gauss_var: float = 0.0

    def __post_init__(self):
        if self.jump_rate < 0 or not np.isfinite(self.jump_rate):
            raise ValueError("jump_rate must be a finite nonnegative real")
        if self.jump_rate > 0 and self.jump_law is None:
            raise ValueError("a positive jump_rate needs a jump_law")
        if self.gauss_var < 0 or not np.isfinite(self.gauss_var):
            raise ValueError("gauss_var must be a finite nonnegative real")
        if not np.isfinite(self.drift):
            raise ValueError("drift must be finite")

    def mean_unit_increment(self) -> float:
        """E[Y(1)] = drift + jump_rate * E[jump]."""
        jump = self.jump_rate * self.jump_law.mean if self.jump_rate > 0 else 0.0
        return self.drift + jump


@dataclass(frozen=True)
class JumpSet:
    """The Borel set {x >= a} of jump sizes, separated from zero (a > 0)."""

    a: float

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError("jump set must be separated from zero (a > 0)")

    def contains(self, x):
        return np.asarray(x, float) >= self.a


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass
class JumpPath:
    """One realized finite-activity jump + drift trajectory on (0, horizon].

    Y(t) = drift*t + sum of jumps at times <= t; cadlag by construction,
    Y(0) = 0. A jump exactly at t belongs to (0, t]. Path objects have no
    Gaussian part: the batch samplers draw it exactly, as normals.
    """

    horizon: float
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    drift: float = 0.0

    def __post_init__(self):
        self.jump_times = np.asarray(self.jump_times, float)
        self.jump_sizes = np.asarray(self.jump_sizes, float)
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.jump_times.shape != self.jump_sizes.shape:
            raise ValueError("jump_times and jump_sizes must have the same length")
        if self.jump_times.size:
            if np.any(np.diff(self.jump_times) <= 0):
                raise ValueError("jump_times must be strictly increasing")
            if self.jump_times[0] <= 0 or self.jump_times[-1] > self.horizon:
                raise ValueError("jump_times must lie in (0, horizon]")
        if not np.all(np.isfinite(self.jump_sizes)):
            raise ValueError("jump sizes must be finite")

    @property
    def n_jumps(self) -> int:
        return int(self.jump_times.size)

    def _check_time(self, t: float):
        if not (0.0 <= t <= self.horizon):
            raise ValueError(f"time {t} outside [0, {self.horizon}]")

    def value(self, t: float) -> float:
        """Y(t), right-continuous."""
        self._check_time(t)
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.drift * t + float(np.sum(self.jump_sizes[:idx]))


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
    sizes = model.jump_law.sample(stream, size=owner.size)
    return owner, times, sizes


def _jump_sums(parts, window, n: int, stream: RngStream, out: np.ndarray) -> np.ndarray:
    """Add to out[i], for each (model, block_sum) of ``parts``, the sum that
    ``block_sum`` computes over path i's jumps, for n independent paths on
    (0, w_i], with w a scalar or one window per path.

    The paths are drawn in consecutive blocks of m; in each block every model
    in turn draws one ``_poisson_jumps(model, w, m, stream)`` with w =
    window[block], and ``block_sum(owner, times, sizes, w, m)`` returns its
    (m, ...) per-path sums; it may overwrite ``times``, and it may draw the
    block's other variates (the normals of a Gaussian part) from the stream
    right after the jumps. m is the most paths whose expected jump count over
    all the models at the largest window stays within _BLOCK, and at least 1.
    So for a scalar window the first k * m paths are the same for every
    n >= k * m, and n <= m paths are one ``_poisson_jumps`` draw per model. A
    jump-free model draws no jumps, and its paths are one block.
    """
    top = sum(model.jump_rate for model, _ in parts) * float(np.max(window))
    m = n if top * n <= _BLOCK else max(1, int(_BLOCK // top))
    for lo in range(0, n, m):
        w = window[lo:lo + m] if np.ndim(window) else window
        k = min(m, n - lo)
        for model, block_sum in parts:
            out[lo:lo + k] += block_sum(*_poisson_jumps(model, w, k, stream), w, k)
    return out


def simulate_path(model: LevyModel, horizon: float, stream: RngStream) -> JumpPath:
    """One trajectory of ``model`` on (0, horizon]: the n = 1 draw of
    ``_poisson_jumps``, sorted in time. A model with a Gaussian part is
    refused, since path objects carry none."""
    if not (horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    if model.gauss_var > 0:
        raise ValueError("path objects have no Gaussian part; use the batch samplers")
    _, times, sizes = _poisson_jumps(model, horizon, 1, stream)
    order = np.argsort(times)
    return JumpPath(horizon, times[order], sizes[order], drift=model.drift)


def shift_path(path: JumpPath, tau: float) -> JumpPath:
    """The shifted process Y_tau(t) = Y(t+tau) - Y(tau) on horizon T - tau."""
    if not (0.0 <= tau <= path.horizon):
        raise ValueError(f"shift time {tau} outside [0, {path.horizon}]")
    if tau == 0.0:
        return path
    keep = path.jump_times > tau
    return JumpPath(path.horizon - tau, path.jump_times[keep] - tau,
                    path.jump_sizes[keep], drift=path.drift)


def thin_path(path: JumpPath, jump_set: JumpSet) -> tuple[JumpPath, JumpPath]:
    """Split the jumps of a path by membership in A.

    Returns (in_A, rest); the drift stays with ``rest``. The two parts
    partition the jump multiset exactly and are independent Levy processes.
    """
    mask = jump_set.contains(path.jump_sizes) if path.n_jumps else np.zeros(0, bool)
    in_a = JumpPath(path.horizon, path.jump_times[mask], path.jump_sizes[mask])
    rest = JumpPath(
        path.horizon, path.jump_times[~mask], path.jump_sizes[~mask], drift=path.drift
    )
    return in_a, rest
