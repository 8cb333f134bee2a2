"""Finite-dimensional operator discounting: X =d int_(0,inf) e^{-tQ} dY(t)
for a d x d matrix Q whose eigenvalues all have positive real part, plus the
stopped factorization X =d X_tau + e^{-tau Q} X'.

Drivers are purely discontinuous (compound Poisson plus drift); a Gaussian
component would need the Lyapunov-equation covariance machinery the scalar
case avoids, and none of the exercised identities require it. Dimensions
are small and matrices dense.

A driver is a list of independent scalar jump sources, each pushed along a
fixed direction: one per coordinate, or one shared. Integrals and records
run on the ragged batch engine of ``decomposition``: each source's jumps are
one ragged batch from ``discount._poisson_jumps``, and ``_QDiscounter``
sums e^{-tQ} u*size over them per row. The scalar case is d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .decomposition import FirstJumpIn, StoppingRule, _by_chunks, _stopped_jumps
from .discount import TruncationPolicy, _poisson_jumps, _sum_by_path
from .errors import SpectralGateError
# simulate_path stays bound here: perfbench/tests/test_bench_tracer.py::
# test_instrument_sdlevy_rebinds_from_imports_and_restores_all reads it.
from .levy import LevyModel, simulate_path  # noqa: F401
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

    def sources(self) -> list[tuple[LevyModel, np.ndarray]]:
        """(model, direction) of each independent jump source: e_i for
        coordinate i."""
        return list(zip(self.models, np.eye(self.dimension)))

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

    def sources(self) -> list[tuple[LevyModel, np.ndarray]]:
        return [(self.model, np.asarray(self.direction, float))]

    def mean_unit_increment(self) -> np.ndarray:
        return np.asarray(self.direction, float) * self.model.mean_unit_increment()

    def drift_vector(self) -> np.ndarray:
        return np.asarray(self.direction, float) * self.model.drift


OperatorDriver = Union[IndependentCoordinates, SharedJumpDirection]


# ---------------------------------------------------------------------------
# Discounter strategies for e^{-tQ}
# ---------------------------------------------------------------------------

class _QDiscounter:
    """Applies e^{-tQ} to ragged jump batches: coordinatewise for diagonal
    Q, through the eigenbasis when Q is diagonalizable with a
    well-conditioned eigenvector matrix, and by per-jump expm otherwise."""

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

    def ragged_sum(self, owner: np.ndarray, times: np.ndarray, sizes: np.ndarray,
                   u: np.ndarray, n: int) -> np.ndarray:
        """Row i of the (n, d) result: the sum over the jumps k with
        owner[k] == i of e^{-t_k Q} u * sizes_k.

        For diagonal Q column j sums e^{-Q_jj t} u_j * size, the weights of
        ``_integral_batch(rate=Q_jj)``; in the eigenbasis mode k sums
        e^{-w_k t} (V^{-1} u)_k * size, real and imaginary parts apart, and
        V maps the modes back.
        """
        if self.mode == "diag":
            out = np.zeros((n, self.d))
            for j in np.flatnonzero(u):
                out[:, j] = _sum_by_path(
                    owner, np.exp(-self.diag[j] * times) * (u[j] * sizes), n)
            return out
        if self.mode == "eigen":
            modes = np.empty((n, self.d), complex)
            for k, (w, c) in enumerate(zip(self.w, self.vinv @ u)):
                z = np.exp(-w * times) * (c * sizes)
                modes[:, k] = _sum_by_path(owner, np.real(z), n)
                modes[:, k] += 1j * _sum_by_path(owner, np.imag(z), n)
            return (modes @ self.v.T).real
        out = np.zeros((n, self.d))
        for i, t, s in zip(owner, times, sizes):
            out[i] += matrix_exp(-t * self.q) @ u * s
        return out

    def drift_integral(self, t, drift: np.ndarray) -> np.ndarray:
        """int_0^t e^{-sQ} drift ds = Q^{-1} (I - e^{-tQ}) drift, one row per
        time in t."""
        t = np.atleast_1d(np.asarray(t, float))
        if self.mode == "diag":
            return drift * -np.expm1(-t[:, None] * self.diag) / self.diag
        return np.linalg.solve(self.q, (drift - self.matrix(t) @ drift).T).T

    def matrix(self, t) -> np.ndarray:
        """e^{-tQ} for each time in t, as an (n, d, d) array."""
        t = np.atleast_1d(np.asarray(t, float))
        if self.mode == "diag":
            return np.exp(-t[:, None] * self.diag)[:, :, None] * np.eye(self.d)
        if self.mode == "eigen":
            return ((self.v * np.exp(-t[:, None, None] * self.w)) @ self.vinv).real
        return np.array([matrix_exp(-s * self.q) for s in t])


# ---------------------------------------------------------------------------
# Model and integral
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


def sample_operator_integral_many(model: OperatorModel, policy: TruncationPolicy,
                                  n: int, stream: RngStream) -> np.ndarray:
    """n draws of sum_k e^{-t_k Q} dY_k + Q^{-1}(I - e^{-TQ}) drift as rows.

    The driver's jump sources are drawn from the stream one after another,
    each as one ragged batch that is discounted before the next is drawn;
    for diagonal Q coordinate i is the scalar batch at rate Q_ii, draw for
    draw.
    """
    disc = model._discounter
    T = policy.horizon
    out = np.zeros((n, model.dimension))
    for source, u in model.driver.sources():
        out += disc.ragged_sum(*_poisson_jumps(source, T, n, stream), u, n)
    return out + disc.drift_integral(T, model.driver.drift_vector())


# ---------------------------------------------------------------------------
# Stopped factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorDecompositionRecord:
    """n realizations of (tau, X_tau, e^{-tau Q}, X') with the recombined
    total: ``tau`` has shape (n,), ``discount`` (n, d, d) and the others
    (n, d). ``residual`` and ``passes`` work per row, with a row norm."""

    tau: np.ndarray
    x_tau: np.ndarray
    discount: np.ndarray
    x_prime: np.ndarray
    x_total: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        recombined = self.x_tau + np.einsum("nij,nj->ni", self.discount, self.x_prime)
        return np.linalg.norm(self.x_total - recombined, axis=-1)

    def passes(self, rel_tol: float = 1e-9) -> np.ndarray:
        return self.residual <= rel_tol * (1.0 + np.linalg.norm(self.x_total, axis=-1))


def _operator_chunk(model: OperatorModel, rule: StoppingRule, T: float, m: int,
                    stream: RngStream) -> tuple[np.ndarray, ...]:
    """m records on one stream, as ``decomposition._decompose_chunk`` draws
    them: each block draws the driver's sources one after another, the rule
    stops on the merged jump times, and X_tau, X' and the total are ragged
    sums over the same jumps (X' over the shifted times t - tau)."""
    disc = model._discounter
    sources = model.driver.sources()

    def draw(window, k):
        parts = [_poisson_jumps(source, window, k, stream) for source, _ in sources]
        which = np.repeat(np.arange(len(parts)), [p[0].size for p in parts])
        return (*(np.concatenate(a) for a in zip(*parts)), which)

    owner, times, sizes, which, tau = _stopped_jumps(draw, rule, T, m, stream)
    before = times <= tau[owner]

    def jump_sum(keep, t):
        out = np.zeros((m, model.dimension))
        for j, (_, u) in enumerate(sources):
            sel = keep & (which == j)
            out += disc.ragged_sum(owner[sel], t[sel], sizes[sel], u, m)
        return out

    drift = model.driver.drift_vector()
    x_tau = jump_sum(before, times) + disc.drift_integral(tau, drift)
    x_prime = jump_sum(~before, times - tau[owner]) + disc.drift_integral(T, drift)
    x_total = jump_sum(True, times) + disc.drift_integral(tau + T, drift)
    return tau, x_tau, disc.matrix(tau), x_prime, x_total


def operator_decompose_many(model: OperatorModel, rule: StoppingRule,
                            policy: TruncationPolicy, n: int,
                            stream: RngStream) -> OperatorDecompositionRecord:
    """n independent operator records as one record of arrays, in the
    chunk layout of ``decompose_many``: chunk i draws only from child i of
    ``stream.split(ceil(n / 256))``."""
    if isinstance(rule, FirstJumpIn):
        raise ValueError("FirstJumpIn is not supported on operator paths")
    return OperatorDecompositionRecord(*_by_chunks(
        lambda m, s: _operator_chunk(model, rule, policy.horizon, m, s), n, stream))
