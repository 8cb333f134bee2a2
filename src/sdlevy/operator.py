"""Finite-dimensional operator discounting: X =d int_(0,inf) e^{-tQ} dY(t)
for a d x d matrix Q whose eigenvalues all have positive real part, plus the
stopped factorization X =d X_tau + e^{-tau Q} X'.

Drivers are purely discontinuous (compound Poisson plus drift); a Gaussian
component would need the Lyapunov-equation covariance machinery the scalar
case avoids, and none of the exercised identities require it. Dimensions
are small and matrices dense.

An ``OperatorDriver`` is a tuple of independent scalar jump sources, each
pushed along a fixed direction: one per coordinate
(``independent_coordinates``), or one shared. Records run on the ragged
batch engine of ``decomposition``, each source's jumps one ragged batch
from ``levy._poisson_jumps``; integrals draw the same way in blocks of
paths through ``levy._jump_sums``. For both, ``_QDiscounter.ragged_sum``
sums e^{-tQ} u*size per row: in the eigenbasis of Q when Q is
diagonalizable (a diagonal Q has V = I), otherwise by ``_expm``, a stacked
scaling-and-squaring Pade-13 kernel in numpy, over blocks of jumps. In the
eigenbasis every sum is real: a real eigenvalue is one mode, and a conjugate
pair a +- ib is two, the sums of e^{-at} cos(bt) and e^{-at} sin(bt) times
the size, since Q and the jumps are real. The engine imports no scipy. The
scalar case is d = 1. Records take every stopping rule of
``decomposition``; a jump set counts the jumps whose scalar size lies in
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .decomposition import StoppingRule, _by_chunks, _stopped_jumps
from .discount import TruncationPolicy, _sum_by_path
from .errors import SpectralGateError
# simulate_path stays bound here: perfbench/tests/test_bench_tracer.py::
# test_instrument_sdlevy_rebinds_from_imports_and_restores_all reads it.
from .levy import _jump_sums, _poisson_jumps, simulate_path  # noqa: F401
from .rng import RngStream

_SPECTRAL_TOL = 1e-12
_EXPM_BLOCK = 4096  # jumps per _expm call in dense mode, to bound memory


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorDriver:
    """Independent scalar jump sources, each a (model, direction) pair: a
    jump of size s of the model moves the driver by s * direction.

    ``independent_coordinates(models)`` gives coordinate i its own model
    along e_i; ``OperatorDriver(((model, u),))`` pushes one model along u.
    """

    sources: tuple

    def __post_init__(self):
        sources = tuple((m, np.asarray(u, float)) for m, u in self.sources)
        if not sources:
            raise ValueError("need at least one jump source")
        if any(m.gauss_var > 0 for m, _ in sources):
            raise ValueError("operator drivers must not have a Gaussian component")
        shape = sources[0][1].shape
        if len(shape) != 1 or not shape[0] or any(
                u.shape != shape or not np.all(np.isfinite(u)) for _, u in sources):
            raise ValueError("directions must be finite 1-d vectors of one length")
        object.__setattr__(self, "sources", sources)

    @property
    def dimension(self) -> int:
        return self.sources[0][1].size

    def mean_unit_increment(self) -> np.ndarray:
        return sum(u * m.mean_unit_increment() for m, u in self.sources)

    def drift_vector(self) -> np.ndarray:
        return sum(u * m.drift for m, u in self.sources)


def independent_coordinates(models) -> OperatorDriver:
    """One scalar Levy model per coordinate, independent across coordinates."""
    return OperatorDriver(tuple(zip(models, np.eye(len(models)))))


# ---------------------------------------------------------------------------
# Discounter for e^{-tQ}
# ---------------------------------------------------------------------------

# [13/13] Pade coefficients b_0..b_13 over b_0, so that a zero matrix gives
# V - U = V + U = I and e^0 = I exactly, and the largest 1-norm at which the
# approximant is accurate to double precision (Higham, SIAM J. Matrix Anal.
# Appl. 26, 2005).
_PADE13 = np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                    1187353796428800.0, 129060195264000.0, 10559470521600.0,
                    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                    960960.0, 16380.0, 182.0, 1.0]) / 64764752532480000.0
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A for each matrix A of the (N, d, d) stack a: the [13/13] Pade
    approximant of A / 2^s, squared s times, with s per matrix the least
    that brings the 1-norm of A / 2^s below theta_13 (Higham 2005)."""
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.maximum(np.frexp(norm / _THETA13)[1], 0)
    a = np.ldexp(a, -s[:, None, None])
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        more = s > k
        r[more] = r[more] @ r[more]
    return r


class _QDiscounter:
    """Applies e^{-tQ} to ragged jump batches: through the eigenbasis when Q
    is diagonalizable with a well-conditioned eigenvector matrix ("eigen";
    a diagonal Q has V = I and runs coordinatewise), and by the stacked
    Pade kernel ``_expm`` otherwise ("dense"). ``cond`` is the condition
    number of the eigenvector matrix V that picks the mode. In the eigen
    mode ``pairs`` indexes the first member of each conjugate eigenpair,
    whose partner follows it; ``ragged_sum`` takes a pair's two real modes
    from that first member alone."""

    def __init__(self, q: np.ndarray):
        self.q = q
        self.w, v = np.linalg.eig(q)  # the eigenvalues also feed the spectral gate
        self.cond = float(np.linalg.cond(v))
        if self.cond < 1e8:
            self.mode = "eigen"
            self.v, self.vinv = v, np.linalg.inv(v)
            # LAPACK's dgeev returns each conjugate pair side by side, the
            # member with positive imaginary part first and the partner's
            # eigenvector its exact conjugate; ragged_sum reads each pair
            # from its first member
            self.pairs = np.flatnonzero(self.w.imag > 0)
            assert (np.array_equal(self.pairs + 1, np.flatnonzero(self.w.imag < 0))
                    and np.array_equal(self.w[self.pairs + 1], self.w[self.pairs].conj())
                    and np.array_equal(v[:, self.pairs + 1], v[:, self.pairs].conj()))
        else:
            self.mode = "dense"

    def ragged_sum(self, owner: np.ndarray, times: np.ndarray, sizes: np.ndarray,
                   u: np.ndarray, n: int) -> np.ndarray:
        """Row i of the (n, d) result: the sum over the jumps k with
        owner[k] == i of e^{-t_k Q} u * sizes_k.

        In the eigenbasis mode the modes are real and mapped back by one real
        ``modes @ basis.T``, for each k with c_k = (V^{-1} u)_k != 0. For a
        real eigenvalue w_k column k sums e^{-w_k t} c_k * size and its basis
        column is v_k. Q and u are real, so a conjugate pair w = a + ib,
        w-bar contributes 2 Re(v c (E - iF)) with E and F the per-row sums
        of e^{-at} cos(bt) * size and e^{-at} sin(bt) * size: they fill the
        pair's two columns, whose basis columns are 2 Re(v c) and 2 Im(v c).
        In the dense mode each block of _EXPM_BLOCK jumps gets its
        e^{-t_k Q} u from one ``_expm`` call, and each coordinate is summed
        per row.
        """
        if self.mode == "eigen":
            c = self.vinv @ u
            basis = self.v.real.copy()
            vc = 2.0 * self.v[:, self.pairs] * c[self.pairs]
            basis[:, self.pairs], basis[:, self.pairs + 1] = vc.real, vc.imag
            modes = np.zeros((n, len(self.q)))
            for k in np.flatnonzero(c):
                a, b = self.w[k].real, self.w[k].imag
                if b == 0:
                    z = np.exp(-a * times) * (c[k].real * sizes)
                    modes[:, k] = _sum_by_path(owner, z, n)
                elif b > 0:
                    decay = np.exp(-a * times)
                    decay *= sizes
                    phase = b * times
                    cos = np.cos(phase)
                    cos *= decay
                    modes[:, k] = _sum_by_path(owner, cos, n)
                    np.sin(phase, out=phase)
                    phase *= decay
                    modes[:, k + 1] = _sum_by_path(owner, phase, n)
            return modes @ basis.T
        jumps = np.empty((times.size, len(self.q)))
        for lo in range(0, times.size, _EXPM_BLOCK):
            t = times[lo:lo + _EXPM_BLOCK]
            jumps[lo:lo + t.size] = _expm(-t[:, None, None] * self.q) @ u
        jumps *= sizes[:, None]
        return np.stack([_sum_by_path(owner, col, n) for col in jumps.T], axis=-1)

    def drift_integral(self, t, drift: np.ndarray) -> np.ndarray:
        """int_0^t e^{-sQ} drift ds = Q^{-1} (I - e^{-tQ}) drift, one row per
        time in t, in a form that does not cancel at small t: in the
        eigenbasis mode -expm1(-t w_k) / w_k per mode, and in the dense mode
        the top-right block of e^{[[-Q, drift], [0, 0]] t} (Van Loan 1978)."""
        t = np.atleast_1d(np.asarray(t, float))
        if self.mode == "eigen":
            c = self.vinv @ drift
            return ((c * -np.expm1(-t[:, None] * self.w) / self.w) @ self.v.T).real
        d = len(self.q)
        block = np.zeros((d + 1, d + 1))
        block[:d, :d] = -self.q
        block[:d, d] = drift
        return _expm(t[:, None, None] * block)[:, :d, d]

    def matrix(self, t) -> np.ndarray:
        """e^{-tQ} for each time in t, as an (n, d, d) array."""
        t = np.atleast_1d(np.asarray(t, float))
        if self.mode == "eigen":
            return ((self.v * np.exp(-t[:, None, None] * self.w)) @ self.vinv).real
        return _expm(-t[:, None, None] * self.q)


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
        disc = _QDiscounter(q)
        min_real = float(disc.w.real.min())
        if min_real <= _SPECTRAL_TOL:
            raise SpectralGateError(
                f"min real part of Q's spectrum is {min_real:.3g}; "
                "all eigenvalues must have positive real part")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_discounter", disc)

    @property
    def dimension(self) -> int:
        return self.q.shape[0]

    def mean_integral(self) -> np.ndarray:
        """E[X] = Q^{-1} E[Y(1)]."""
        return np.linalg.solve(self.q, self.driver.mean_unit_increment())


def sample_operator_integral_many(model: OperatorModel, policy: TruncationPolicy,
                                  n: int, stream: RngStream) -> np.ndarray:
    """n draws of sum_k e^{-t_k Q} dY_k + Q^{-1}(I - e^{-TQ}) drift as rows.

    Paths are drawn in blocks, as ``levy._jump_sums`` lays them out: in each
    block the driver's sources draw one after another, as records draw
    them. For d = 1 this is the scalar batch, draw for draw.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    disc = model._discounter
    parts = [(source, lambda owner, times, sizes, w, m, u=u:
              disc.ragged_sum(owner, times, sizes, u, m))
             for source, u in model.driver.sources]
    out = _jump_sums(parts, policy.horizon, n, stream, np.zeros((n, model.dimension)))
    return out + disc.drift_integral(policy.horizon, model.driver.drift_vector())


# ---------------------------------------------------------------------------
# Stopped factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class OperatorDecompositionRecord:
    """n realizations of (tau, X_tau, e^{-tau Q}, X') with the recombined
    total: ``tau`` has shape (n,), ``discount`` (n, d, d) and the others
    (n, d). ``residual``, ``relative_residual`` and ``passes`` work per
    row, with a row norm."""

    TOLERANCE: ClassVar[float] = 1e-9  # the largest relative residual that passes

    tau: np.ndarray
    x_tau: np.ndarray
    discount: np.ndarray
    x_prime: np.ndarray
    x_total: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        recombined = self.x_tau + np.einsum("nij,nj->ni", self.discount, self.x_prime)
        return np.linalg.norm(self.x_total - recombined, axis=-1)

    @property
    def relative_residual(self) -> np.ndarray:
        return self.residual / (1.0 + np.linalg.norm(self.x_total, axis=-1))

    def passes(self) -> np.ndarray:
        return self.relative_residual <= self.TOLERANCE


def _operator_chunk(model: OperatorModel, rule: StoppingRule, T: float, m: int,
                    stream: RngStream) -> tuple[np.ndarray, ...]:
    """m records on one stream, as ``decomposition._decompose_chunk`` draws
    them: each block draws the driver's sources one after another, the rule
    stops on the merged jump times, and X_tau, X' and the total are ragged
    sums over the same jumps (X' over the shifted times t - tau)."""
    disc = model._discounter
    sources = model.driver.sources

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
    ``stream.split(ceil(n / _CHUNK))``.

    Every stopping rule applies. KthJump(k, A) stops at the k-th jump of
    the driver whose scalar size lies in A; that jump is the row size * u of
    its source, so for ``independent_coordinates`` it is the jump's only
    nonzero coordinate."""
    return OperatorDecompositionRecord(*_by_chunks(
        lambda m, s: _operator_chunk(model, rule, policy.horizon, m, s), n, stream))
