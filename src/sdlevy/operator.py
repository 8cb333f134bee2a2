"""Finite-dimensional operator discounting: X =d int_(0,inf) e^{-tQ} dY(t)
for a d x d matrix Q whose eigenvalues all have positive real part, plus the
stopped factorization X =d X_tau + e^{-tau Q} X'.

Drivers are purely discontinuous (compound Poisson plus drift); a Gaussian
component would need the Lyapunov-equation covariance machinery the scalar
case avoids, and none of the exercised identities require it. Dimensions
are small and matrices dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy.linalg

from .decomposition import FirstJumpIn, StoppingRule, _stopped_path
from .discount import TruncationPolicy, _integral_batch
from .errors import SpectralGateError
from .levy import LevyModel, simulate_path
from .rng import RngStream

_SPECTRAL_TOL = 1e-12


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Pade core
    (scipy.linalg.expm); rejects non-finite or non-square input."""
    m = np.asarray(m, float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix_exp needs a square 2-d array")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp needs finite entries")
    return scipy.linalg.expm(m)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _check_driver_model(model: LevyModel):
    if model.gauss_var > 0:
        raise ValueError("operator drivers must not have a Gaussian component")


@dataclass(frozen=True)
class IndependentCoordinates:
    """One scalar Levy model per coordinate, independent across coordinates."""

    models: tuple

    def __post_init__(self):
        if not self.models:
            raise ValueError("need at least one coordinate model")
        for m in self.models:
            _check_driver_model(m)

    @property
    def dimension(self) -> int:
        return len(self.models)

    def mean_unit_increment(self) -> np.ndarray:
        return np.array([m.mean_unit_increment() for m in self.models])

    def drift_vector(self) -> np.ndarray:
        return np.array([m.drift for m in self.models])


@dataclass(frozen=True)
class SharedJumpDirection:
    """A scalar compound Poisson model pushed along a fixed direction."""

    model: LevyModel
    direction: tuple

    def __post_init__(self):
        _check_driver_model(self.model)
        v = np.asarray(self.direction, float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("direction must be a finite 1-d vector")

    @property
    def dimension(self) -> int:
        return len(self.direction)

    def mean_unit_increment(self) -> np.ndarray:
        return np.asarray(self.direction, float) * self.model.mean_unit_increment()

    def drift_vector(self) -> np.ndarray:
        return np.asarray(self.direction, float) * self.model.drift


OperatorDriver = Union[IndependentCoordinates, SharedJumpDirection]


# ---------------------------------------------------------------------------
# Discounter strategies for e^{-tQ}
# ---------------------------------------------------------------------------

class _QDiscounter:
    """Applies e^{-tQ} to jump batches: coordinatewise for diagonal Q,
    through the eigenbasis when Q is diagonalizable with a well-conditioned
    eigenvector matrix, and by per-jump expm otherwise."""

    def __init__(self, q: np.ndarray):
        self.q = q
        self.d = q.shape[0]
        if not np.any(q - np.diag(np.diagonal(q))):
            self.mode = "diag"
            self.diag = np.diagonal(q).copy()
            return
        w, v = np.linalg.eig(q)
        if np.linalg.cond(v) < 1e8:
            self.mode = "eigen"
            self.w = w
            self.v = v
            self.vinv = np.linalg.inv(v)
        else:
            self.mode = "dense"

    def discounted_sum(self, times: np.ndarray, jumps: np.ndarray) -> np.ndarray:
        """Sum_k e^{-t_k Q} dY_k for jump rows dY_k at times t_k."""
        if times.size == 0:
            return np.zeros(self.d)
        if self.mode == "diag":
            return np.array([
                np.sum(np.exp(-times * self.diag[i]) * jumps[:, i])
                for i in range(self.d)
            ])
        if self.mode == "eigen":
            coeff = self.vinv @ jumps.T                       # (d, K)
            decay = np.exp(-self.w[:, None] * times[None, :])  # (d, K)
            return (self.v @ (decay * coeff).sum(axis=1)).real
        acc = np.zeros(self.d)
        for t, jump in zip(times, jumps):
            acc += matrix_exp(-t * self.q) @ jump
        return acc

    def drift_integral(self, t: float, drift: np.ndarray) -> np.ndarray:
        """int_0^t e^{-sQ} drift ds = Q^{-1} (I - e^{-tQ}) drift."""
        if self.mode == "diag":
            return np.array([
                drift[i] * -np.expm1(-t * self.diag[i]) / self.diag[i]
                for i in range(self.d)
            ])
        eye = np.eye(self.d)
        return np.linalg.solve(self.q, (eye - self.matrix(t)) @ drift)

    def matrix(self, t: float) -> np.ndarray:
        """e^{-tQ}."""
        if self.mode == "diag":
            return np.diag(np.exp(-t * self.diag))
        if self.mode == "eigen":
            return (self.v @ np.diag(np.exp(-t * self.w)) @ self.vinv).real
        return matrix_exp(-t * self.q)


# ---------------------------------------------------------------------------
# Model and paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorModel:
    """Discount operator Q plus a d-dimensional driver. Construction enforces
    the spectral gate: every eigenvalue of Q must have positive real part,
    else e^{-tQ} does not vanish and the integral diverges."""

    q: np.ndarray
    driver: OperatorDriver

    def __post_init__(self):
        q = np.asarray(self.q, float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be a square matrix")
        if not np.all(np.isfinite(q)):
            raise ValueError("Q must have finite entries")
        if q.shape[0] != self.driver.dimension:
            raise ValueError("Q dimension does not match the driver")
        min_real = float(np.linalg.eigvals(q).real.min())
        if min_real <= _SPECTRAL_TOL:
            raise SpectralGateError(
                f"min real part of Q's spectrum is {min_real:.3g}; "
                "all eigenvalues must have positive real part")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_discounter", _QDiscounter(q))

    @property
    def dimension(self) -> int:
        return self.q.shape[0]

    def mean_integral(self) -> np.ndarray:
        """E[X] = Q^{-1} E[Y(1)]."""
        return np.linalg.solve(self.q, self.driver.mean_unit_increment())


@dataclass
class OperatorPath:
    """Merged d-dimensional jump trajectory: sorted times, jump vectors as
    rows, and the deterministic drift vector."""

    horizon: float
    jump_times: np.ndarray
    jumps: np.ndarray
    drift: np.ndarray
    _coord_streams: tuple = field(default=(), repr=False, compare=False)


def _driver_jumps(model: OperatorModel, start: float, span: float,
                  streams: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The driver's jumps on (start, start + span]: times in order and jump
    vectors as rows, one stream per coordinate (a single stream for a shared
    direction). Ties keep coordinate order."""
    driver = model.driver
    if isinstance(driver, SharedJumpDirection):
        (stream,) = streams
        path = simulate_path(driver.model, span, stream)
        direction = np.asarray(driver.direction, float)
        return start + path.jump_times, np.outer(path.jump_sizes, direction)
    paths = [simulate_path(m, span, s) for m, s in zip(driver.models, streams)]
    times = start + np.concatenate([p.jump_times for p in paths])
    jumps = np.zeros((times.size, model.dimension))
    offset = 0
    for i, p in enumerate(paths):
        jumps[offset:offset + p.n_jumps, i] = p.jump_sizes
        offset += p.n_jumps
    order = np.argsort(times, kind="stable")
    return times[order], jumps[order]


def simulate_operator_path(model: OperatorModel, horizon: float,
                           stream: RngStream) -> OperatorPath:
    # d == 1 reuses the caller's stream so the scalar pipeline is
    # reproduced draw for draw.
    if isinstance(model.driver, IndependentCoordinates) and model.dimension > 1:
        streams = tuple(stream.split(model.dimension))
    else:
        streams = (stream,)
    times, jumps = _driver_jumps(model, 0.0, horizon, streams)
    return OperatorPath(horizon, times, jumps, model.driver.drift_vector(), streams)


def _extend_operator_path(path: OperatorPath, model: OperatorModel,
                          new_horizon: float) -> OperatorPath:
    times, jumps = _driver_jumps(model, path.horizon, new_horizon - path.horizon,
                                 path._coord_streams)
    return OperatorPath(new_horizon, np.concatenate([path.jump_times, times]),
                        np.concatenate([path.jumps, jumps]), path.drift,
                        path._coord_streams)


def _eval_operator_integral(model: OperatorModel, path: OperatorPath,
                            t: float) -> np.ndarray:
    disc = model._discounter
    idx = int(np.searchsorted(path.jump_times, t, side="right"))
    return (disc.discounted_sum(path.jump_times[:idx], path.jumps[:idx])
            + disc.drift_integral(t, path.drift))


def sample_operator_integral_many(model: OperatorModel, policy: TruncationPolicy,
                                  n: int, stream: RngStream) -> np.ndarray:
    """n draws of sum_k e^{-t_k Q} dY_k + Q^{-1}(I - e^{-TQ}) drift as rows.
    For diagonal Q with independent coordinates, coordinate i is the scalar
    batch discounted at rate Q_ii; other shapes simulate one path per draw."""
    disc = model._discounter
    driver = model.driver
    T = policy.horizon
    if disc.mode == "diag" and isinstance(driver, IndependentCoordinates):
        return np.column_stack([_integral_batch(m, T, n, stream, rate=q)
                                for m, q in zip(driver.models, disc.diag)])
    return np.array([_eval_operator_integral(model, simulate_operator_path(model, T, s), T)
                     for s in stream.split(n)])


# ---------------------------------------------------------------------------
# Stopped factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorDecompositionRecord:
    """One realization of (tau, X_tau, e^{-tau Q}, X') with the recombined total."""

    tau: float
    x_tau: np.ndarray
    discount: np.ndarray
    x_prime: np.ndarray
    x_total: np.ndarray

    @property
    def residual(self) -> float:
        gap = self.x_total - (self.x_tau + self.discount @ self.x_prime)
        return float(np.linalg.norm(gap))

    def passes(self, rel_tol: float = 1e-9) -> bool:
        return self.residual <= rel_tol * (1.0 + float(np.linalg.norm(self.x_total)))


def operator_decompose(model: OperatorModel, rule: StoppingRule,
                       policy: TruncationPolicy,
                       stream: RngStream) -> OperatorDecompositionRecord:
    if isinstance(rule, FirstJumpIn):
        raise ValueError("FirstJumpIn is not supported on operator paths")
    T = policy.horizon
    disc = model._discounter
    path, tau = _stopped_path(
        rule, T, lambda h: simulate_operator_path(model, h, stream),
        lambda p, h: _extend_operator_path(p, model, h), stream)
    x_tau = _eval_operator_integral(model, path, tau)
    lo = int(np.searchsorted(path.jump_times, tau, side="right"))
    hi = int(np.searchsorted(path.jump_times, tau + T, side="right"))
    x_prime = (disc.discounted_sum(path.jump_times[lo:hi] - tau, path.jumps[lo:hi])
               + disc.drift_integral(T, path.drift))
    x_total = _eval_operator_integral(model, path, tau + T)
    return OperatorDecompositionRecord(
        tau=tau, x_tau=x_tau, discount=disc.matrix(tau),
        x_prime=x_prime, x_total=x_total,
    )


def operator_decompose_many(model: OperatorModel, rule: StoppingRule,
                            policy: TruncationPolicy, n: int,
                            stream: RngStream) -> list[OperatorDecompositionRecord]:
    return [operator_decompose(model, rule, policy, s) for s in stream.split(n)]
