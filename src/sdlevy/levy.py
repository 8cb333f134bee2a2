"""Levy models (compound Poisson jumps, drift and an optional Gaussian
component) and finite-horizon jump + drift trajectories, with the shift and
thin operations the discounted-integral constructions need.

Path objects have no Gaussian part: ``simulate_path`` refuses a model with
one, and the batch samplers in ``discount`` and ``decomposition`` draw it
exactly, as normals. Path objects are the independent reference route for
the evaluators and the stopping rules.

Only finite-activity jumps are supported: every identity exercised here
lives in the compound Poisson world, and infinite-activity measures would
introduce simulation bias the exact pathwise checks cannot absorb.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .rng import GammaParams, RngStream, sample_gamma, sample_poisson_arrivals


# ---------------------------------------------------------------------------
# Jump-size laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialJumps:
    rate: float

    def __post_init__(self):
        if not (self.rate > 0):
            raise ValueError("rate must be positive")

    def sample(self, stream: RngStream, size=None):
        return stream.exponential(self.rate, size=size)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate


@dataclass(frozen=True)
class GammaJumps:
    shape: float
    rate: float

    def __post_init__(self):
        GammaParams(self.shape, self.rate)  # validates

    def sample(self, stream: RngStream, size=None):
        return sample_gamma(GammaParams(self.shape, self.rate), stream, size=size)

    @property
    def mean(self) -> float:
        return self.shape / self.rate


@dataclass(frozen=True)
class ConstantJumps:
    value: float

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("value must be finite")

    def sample(self, stream: RngStream, size=None):
        return self.value if size is None else np.full(int(size), self.value)

    @property
    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class UniformJumps:
    low: float
    high: float

    def __post_init__(self):
        if not (np.isfinite(self.low) and np.isfinite(self.high) and self.low < self.high):
            raise ValueError("need finite low < high")

    def sample(self, stream: RngStream, size=None):
        u = stream.uniform(size=size)
        return self.low + (self.high - self.low) * u

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class TableJumps:
    """Discrete jump law given by values and probabilities."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        v = np.asarray(self.values, float)
        p = np.asarray(self.probs, float)
        if v.size == 0 or v.shape != p.shape:
            raise ValueError("values and probs must be nonempty and matched")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if np.any(p < 0) or not math.isclose(p.sum(), 1.0, rel_tol=1e-9):
            raise ValueError("probs must be nonnegative and sum to 1")

    def sample(self, stream: RngStream, size=None):
        cum = np.cumsum(np.asarray(self.probs, float))
        u = stream.uniform(size=1 if size is None else size)
        idx = np.searchsorted(cum, np.atleast_1d(u), side="left")
        idx = np.minimum(idx, len(cum) - 1)
        out = np.asarray(self.values, float)[idx]
        return float(out[0]) if size is None else out

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))


JumpLaw = Union[ExponentialJumps, GammaJumps, ConstantJumps, UniformJumps, TableJumps]


# ---------------------------------------------------------------------------
# Models and Borel jump sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyModel:
    """Distributional spec of a Levy process: compound Poisson intensity and
    jump law, deterministic drift rate, and Gaussian variance rate."""

    jump_rate: float = 0.0
    jump_law: JumpLaw | None = None
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
    """Borel set of jump sizes, separated from zero.

    kind is one of "abs_ge" ({|x| >= a}), "ge" ({x >= a}), or
    "interval" ({x in [a, b]} with a > 0).
    """

    kind: str
    a: float
    b: float | None = None

    def __post_init__(self):
        if self.kind not in ("abs_ge", "ge", "interval"):
            raise ValueError(f"unknown jump-set kind {self.kind!r}")
        if not (self.a > 0):
            raise ValueError("jump set must be separated from zero (a > 0)")
        if self.kind == "interval":
            if self.b is None or not (self.b >= self.a):
                raise ValueError("interval needs b >= a")

    def contains(self, x):
        x = np.asarray(x, float)
        if self.kind == "abs_ge":
            return np.abs(x) >= self.a
        if self.kind == "ge":
            return x >= self.a
        return (x >= self.a) & (x <= self.b)


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

    def value_left(self, t: float) -> float:
        """Y(t-): excludes a jump landing exactly at t."""
        self._check_time(t)
        idx = int(np.searchsorted(self.jump_times, t, side="left"))
        return self.drift * t + float(np.sum(self.jump_sizes[:idx]))


def simulate_path(model: LevyModel, horizon: float, stream: RngStream) -> JumpPath:
    """Simulate one trajectory of ``model`` on (0, horizon]; a model with a
    Gaussian part is refused, since path objects carry none."""
    if not (horizon > 0):
        raise ValueError(f"horizon must be positive, got {horizon}")
    if model.gauss_var > 0:
        raise ValueError("path objects have no Gaussian part; use the batch samplers")
    if model.jump_rate > 0:
        times = sample_poisson_arrivals(model.jump_rate, horizon, stream)
        sizes = np.atleast_1d(model.jump_law.sample(stream, size=times.size))
    else:
        times = np.empty(0)
        sizes = np.empty(0)
    return JumpPath(horizon, times, sizes, drift=model.drift)


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


# ---------------------------------------------------------------------------
# Serialization (documented JSON shape for replay)
# ---------------------------------------------------------------------------

def path_to_json(path: JumpPath) -> str:
    doc = {
        "horizon": path.horizon,
        "jumps": [[float(t), float(s)] for t, s in zip(path.jump_times, path.jump_sizes)],
        "drift": path.drift,
    }
    return json.dumps(doc, sort_keys=True)


def path_from_json(text: str) -> JumpPath:
    """The path of a ``path_to_json`` document. A nonzero ``gauss_var`` is
    refused: a path object cannot hold the Gaussian part it describes."""
    doc = json.loads(text)
    if float(doc.get("gauss_var", 0.0)) != 0.0:
        raise ValueError("path documents with a Gaussian part are not supported")
    jumps = np.asarray(doc["jumps"], float).reshape(-1, 2)
    return JumpPath(float(doc["horizon"]), jumps[:, 0], jumps[:, 1],
                    drift=float(doc["drift"]))
