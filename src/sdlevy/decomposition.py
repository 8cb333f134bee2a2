"""Stopping rules on paths and the factorization X =d X_tau + e^{-tau} X'.

One engine stops every scalar path: ``_stopped_jumps`` draws ragged jump
arrays on (0, tau + T], a chunk of records at a time, and serves
``decompose_many`` (``decompose`` is its n = 1 row), the first-value and
restricted-jump identities of Corollary 3 and the operator records in
``operator.py``. X_tau and X' are evaluated on the same realization, so the
recombination x_total = x_tau + e^{-tau} * x_prime holds pathwise (to
roundoff), not just in distribution. Path-dependent stopping times are
looked for on (0, _REACH * T]; one that is not realized there raises
InsufficientHorizonError and is never silently capped. ``evaluate_stopping``
realizes a rule on one path object, the independent reference route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .discount import TruncationPolicy, _poisson_jumps, _sum_by_path
from .errors import InsufficientHorizonError
# simulate_path stays bound here: perfbench/tests/test_bench_tracer.py reads it.
from .levy import JumpPath, JumpSet, LevyModel, simulate_path  # noqa: F401
from .rng import RngStream

# Path-dependent rules are looked for on (0, _REACH * T], in blocks of length T.
_REACH = 15
# Records per chunk of the batch engine; it bounds the size of the ragged
# arrays and is part of the stream layout, so it is not a parameter.
_CHUNK = 256


# ---------------------------------------------------------------------------
# Stopping rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedTime:
    t: float

    def __post_init__(self):
        if not (self.t >= 0):
            raise ValueError("fixed time must be nonnegative")


@dataclass(frozen=True)
class FirstJump:
    pass


@dataclass(frozen=True)
class FirstJumpIn:
    jump_set: JumpSet


@dataclass(frozen=True)
class KthJump:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class IndependentRandomTime:
    """A nonnegative random time drawn independently of the path, from a
    stream disjoint from the path's stream."""

    law: object  # any sampler with .sample(stream, size) supported on [0, inf)


StoppingRule = Union[FixedTime, FirstJump, FirstJumpIn, KthJump, IndependentRandomTime]


def evaluate_stopping(rule: StoppingRule, path: JumpPath,
                      stream: RngStream | None = None) -> float:
    """Realize the stopping time of ``rule`` on ``path``.

    Raises InsufficientHorizonError when the rule is not realized within
    the path horizon (no silent capping).
    """
    if isinstance(rule, FixedTime):
        if rule.t > path.horizon:
            raise InsufficientHorizonError(
                f"fixed time {rule.t} exceeds horizon {path.horizon}")
        return rule.t
    if isinstance(rule, FirstJump):
        if path.jump_times.size == 0:
            raise InsufficientHorizonError("no jump on the horizon")
        return float(path.jump_times[0])
    if isinstance(rule, FirstJumpIn):
        hits = np.flatnonzero(rule.jump_set.contains(path.jump_sizes))
        if hits.size == 0:
            raise InsufficientHorizonError("no jump in the target set on the horizon")
        return float(path.jump_times[hits[0]])
    if isinstance(rule, KthJump):
        if path.jump_times.size < rule.k:
            raise InsufficientHorizonError(
                f"insufficient horizon: {path.jump_times.size} jumps, need {rule.k}")
        return float(path.jump_times[rule.k - 1])
    if isinstance(rule, IndependentRandomTime):
        if stream is None:
            raise ValueError("IndependentRandomTime needs an independent stream")
        t = float(rule.law.sample(stream))
        if t < 0:
            raise ValueError("independent random time must be nonnegative")
        if t > path.horizon:
            raise InsufficientHorizonError(
                f"independent time {t} exceeds horizon {path.horizon}")
        return t
    raise TypeError(f"unknown stopping rule {rule!r}")


# ---------------------------------------------------------------------------
# Decomposition records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionRecord:
    """One realization of (tau, X_tau, e^{-tau}, X') plus the recombined
    total; ``decompose_many`` returns n realizations as length-n arrays,
    and ``residual`` and ``passes`` then work elementwise."""

    tau: float | np.ndarray
    x_tau: float | np.ndarray
    discount: float | np.ndarray
    x_prime: float | np.ndarray
    x_total: float | np.ndarray

    @property
    def residual(self):
        return abs(self.x_total - (self.x_tau + self.discount * self.x_prime))

    def passes(self, rel_tol: float = 1e-10):
        return self.residual <= rel_tol * (1.0 + abs(self.x_total))


def _preset_time(rule, stream: RngStream, size: int | None = None):
    """The time of a FixedTime or IndependentRandomTime rule, known before
    the path is drawn; an independent time comes from a child stream,
    disjoint from the path's draws."""
    if isinstance(rule, FixedTime):
        return rule.t if size is None else np.full(size, float(rule.t))
    tau = rule.law.sample(stream.split(1)[0], size=size)
    if np.any(np.asarray(tau) < 0):
        raise ValueError("independent random time must be nonnegative")
    return tau


def _kth_times(owner, times, count, rank, rows):
    """For each record in ``rows``, the rank-th smallest of its ``times``;
    ``count`` holds each record's number of ``times``."""
    if np.all(rank == 1):  # a per-record minimum needs no sort
        first = np.full(count.size, np.inf)
        np.minimum.at(first, owner, times)
        return first[rows]
    order = np.lexsort((times, owner))
    return times[order[np.cumsum(count)[rows] - count[rows] + rank - 1]]


def _stopped_jumps(draw, rule: StoppingRule, T: float, m: int, stream: RngStream):
    """The jumps of m paths on (0, tau_i + T] and their stopping times.

    ``draw(window, k)`` gives k fresh paths' jumps on (0, window_j] as ragged
    arrays (owner, time, size, ...), the one part that the scalar and the
    operator records do not share. Known times (fixed, or independent from
    a child stream) are drawn to tau + T at once. Path-dependent rules read
    the merged times (FirstJumpIn also the sizes) of one block (H, H + T] at
    a time while pending, up to _REACH * T; each path then gets a fresh
    segment to exactly tau + T (memorylessness).
    Returns (owner, times, sizes, ..., tau)."""
    if isinstance(rule, (FixedTime, IndependentRandomTime)):
        tau = np.asarray(_preset_time(rule, stream, m), float)
        return (*draw(tau + T, m), tau)
    if not isinstance(rule, (FirstJump, FirstJumpIn, KthJump)):
        raise TypeError(f"unknown stopping rule {rule!r}")
    k = rule.k if isinstance(rule, KthJump) else 1
    tau = np.empty(m)
    seen = np.zeros(m, np.intp)
    ends = np.zeros(m)
    pending = np.arange(m)
    parts = []
    for _ in range(_REACH):
        local, offsets, *rest = draw(T, pending.size)
        owner = pending[local]
        times = ends[owner] + offsets
        ends[pending] += T
        parts.append((owner, times, *rest))
        if isinstance(rule, FirstJumpIn):
            hit = rule.jump_set.contains(rest[0])
            owner, times = owner[hit], times[hit]
        count = np.bincount(owner, minlength=m)
        got = count[pending] >= k - seen[pending]
        done = pending[got]
        tau[done] = _kth_times(owner, times, count, k - seen[done], done)
        seen += count
        pending = pending[~got]
        if pending.size == 0:
            break
    else:
        raise InsufficientHorizonError(
            f"stopping rule {rule!r} not realized on (0, {_REACH} * {T}] "
            f"for {pending.size} of {m} records")
    owner, offsets, *rest = draw(tau + T - ends, m)
    parts.append((owner, ends[owner] + offsets, *rest))
    return (*(np.concatenate(a) for a in zip(*parts)), tau)


def _decompose_chunk(model: LevyModel, rule: StoppingRule, T: float, m: int,
                     stream: RngStream) -> tuple[np.ndarray, ...]:
    """m records on one stream: ragged jumps on (0, tau_i + T], then X_tau,
    X' and the total as three masked sums over the same jumps. X' reads the
    shifted times t - tau and the total the absolute ones, so the pathwise
    residual compares two routes. The Gaussian part is two independent
    normals per record, over (0, tau] and over the shifted (0, T]."""
    if isinstance(rule, FirstJumpIn) and model.gauss_var > 0:
        raise ValueError("FirstJumpIn requires a purely discontinuous path")
    owner, times, sizes, tau = _stopped_jumps(
        lambda window, k: _poisson_jumps(model, window, k, stream), rule, T, m, stream)
    disc = np.exp(-tau)
    weighted = np.exp(-times) * sizes
    before = times <= tau[owner]
    after = ~before
    shifted = times[after] - tau[owner[after]]
    x_tau = _sum_by_path(owner[before], weighted[before], m)
    x_prime = _sum_by_path(owner[after], np.exp(-shifted) * sizes[after], m)
    x_total = _sum_by_path(owner, weighted, m)  # every jump lies in (0, tau + T]
    x_tau += model.drift * -np.expm1(-tau)
    x_prime += model.drift * -np.expm1(-T)
    x_total += model.drift * -np.expm1(-(tau + T))
    if model.gauss_var > 0:
        g_tau = np.sqrt(model.gauss_var * 0.5 * -np.expm1(-2.0 * tau)) * stream.normal(size=m)
        g_prime = math.sqrt(model.gauss_var * 0.5 * -math.expm1(-2.0 * T)) * stream.normal(size=m)
        x_tau += g_tau
        x_prime += g_prime
        x_total += g_tau + disc * g_prime
    return tau, x_tau, disc, x_prime, x_total


def _by_chunks(chunk, n: int, stream: RngStream) -> list[np.ndarray]:
    """The columns of ``chunk(m, child)`` over n records in chunks of
    _CHUNK, each column concatenated; chunk i gets only child i of
    ``stream.split(ceil(n / _CHUNK))``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    chunks = stream.split(-(-n // _CHUNK))
    cols = [chunk(min(_CHUNK, n - i * _CHUNK), s) for i, s in enumerate(chunks)]
    return [np.concatenate(c) for c in zip(*cols)]


def decompose_many(model: LevyModel, rule: StoppingRule, policy: TruncationPolicy,
                   n: int, stream: RngStream) -> DecompositionRecord:
    """n independent decomposition records as one record of length-n arrays.

    Records are drawn in chunks of _CHUNK; chunk i uses only child i of
    ``stream.split(ceil(n / _CHUNK))``, so a full chunk depends on the
    stream and its index only: the first k * _CHUNK records are the same
    for every n >= k * _CHUNK.
    """
    return DecompositionRecord(*_by_chunks(
        lambda m, s: _decompose_chunk(model, rule, policy.horizon, m, s), n, stream))


def decompose(model: LevyModel, rule: StoppingRule, policy: TruncationPolicy,
              stream: RngStream) -> DecompositionRecord:
    """One record, as floats: the n = 1 row of ``decompose_many``."""
    rec = decompose_many(model, rule, policy, 1, stream)
    return DecompositionRecord(*(float(v[0]) for v in vars(rec).values()))


# ---------------------------------------------------------------------------
# First-value and restricted-jump identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityDetail:
    """Both sides of a first-jump identity on n realizations, with the
    pieces of the right-hand side, as length-n arrays; ``residual`` works
    elementwise."""

    tau: np.ndarray
    first_size: np.ndarray
    discount: np.ndarray
    shifted_integral: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def residual(self) -> np.ndarray:
        return abs(self.lhs - self.rhs)


def _require_pure_jump(model: LevyModel):
    if model.gauss_var > 0 or model.drift != 0:
        raise ValueError("identity requires a purely discontinuous model")
    if model.jump_rate <= 0:
        raise ValueError("identity requires a positive jump rate")


def _identity_chunk(model: LevyModel, jump_set: JumpSet | None, T: float, m: int,
                    stream: RngStream) -> tuple[np.ndarray, ...]:
    """m records on one stream: the jumps on (0, tau + T] up to the first
    jump (in ``jump_set``, when given), then both sides of the identity as
    masked sums over the kept jumps: lhs over the absolute times, the
    shifted integral over t - tau for the jumps after tau."""
    rule = FirstJump() if jump_set is None else FirstJumpIn(jump_set)
    owner, times, sizes, tau = _stopped_jumps(
        lambda window, k: _poisson_jumps(model, window, k, stream), rule, T, m, stream)
    if jump_set is not None:
        keep = jump_set.contains(sizes)
        owner, times, sizes = owner[keep], times[keep], sizes[keep]
    at = times == tau[owner]
    after = times > tau[owner]
    first = _sum_by_path(owner[at], sizes[at], m)
    shifted = _sum_by_path(owner[after], np.exp(-(times[after] - tau[owner[after]]))
                           * sizes[after], m)
    lhs = _sum_by_path(owner, np.exp(-times) * sizes, m)
    disc = np.exp(-tau)
    return tau, first, disc, shifted, lhs, disc * first + disc * shifted


def _first_jump_identity(model: LevyModel, jump_set: JumpSet | None,
                         policy: TruncationPolicy, n: int,
                         stream: RngStream) -> IdentityDetail:
    """n records of the identity in the chunk layout of ``decompose_many``."""
    return IdentityDetail(*_by_chunks(
        lambda m, s: _identity_chunk(model, jump_set, policy.horizon, m, s), n, stream))


def first_value_identity(model: LevyModel, policy: TruncationPolicy, n: int,
                         stream: RngStream) -> IdentityDetail:
    """Both sides of the first-nonzero-value factorization on n realizations:
    lhs is the full discounted integral, rhs is
    e^{-tau0}*(first jump) + e^{-tau0}*(shifted integral)."""
    _require_pure_jump(model)
    return _first_jump_identity(model, None, policy, n, stream)


def restricted_jump_identity(model: LevyModel, jump_set: JumpSet,
                             policy: TruncationPolicy, n: int,
                             stream: RngStream) -> IdentityDetail:
    """Same identity on the thinned process keeping only jumps in the set."""
    _require_pure_jump(model)
    return _first_jump_identity(model, jump_set, policy, n, stream)
