"""Stopping rules on paths and the factorization X =d X_tau + e^{-tau} X'.

``decompose`` evaluates both the stopped integral X_tau and the shifted
integral X' on the same realization, so the recombination
x_total = x_tau + e^{-tau} * x_prime holds pathwise (to roundoff), not just
in distribution. Path-dependent stopping times are looked for on
(0, _REACH * T]; one that is not realized there raises
InsufficientHorizonError and is never silently capped. One stop-and-extend
loop serves the single records, the first-jump identities and the operator
factorization in ``operator.py``; ``decompose_many`` runs the same
construction on ragged arrays, a chunk of records at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .discount import TruncationPolicy, _poisson_jumps, _sum_by_path, eval_jump_sum
from .errors import InsufficientHorizonError
from .levy import JumpPath, JumpSet, LevyModel, extend_path, shift_path, simulate_path, thin_path
from .rng import RngStream

# Path-dependent rules are looked for on (0, _REACH * T]: in blocks of length
# 2T by the per-record core, of length T by the batch engine.
_REACH = 15
# Records per chunk of decompose_many; it bounds the size of the ragged
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

    Only ``horizon`` and ``jump_times`` are read (FirstJumpIn also reads
    ``jump_sizes`` and ``gauss_var``), so scalar and operator paths share
    this evaluator. Raises InsufficientHorizonError when the rule is not
    realized within the path horizon (no silent capping).
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
        if path.gauss_var > 0:
            raise ValueError("FirstJumpIn requires a purely discontinuous path")
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


def _window_end(tau: float, T: float) -> float:
    """tau + T, one ulp up where the rounded sum would leave the shifted
    window (0, end - tau] shorter than T."""
    end = tau + T
    return end if end - tau >= T else math.nextafter(end, math.inf)


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


def _stopped_path(rule: StoppingRule, T: float, simulate, extend,
                  stream: RngStream):
    """A path long enough to hold (0, tau + T] for the stopping time of
    ``rule``; returns (path, tau).

    ``simulate(horizon)`` draws a fresh path and ``extend(path, horizon)``
    continues one. Fixed and independent times are known up front, so the
    path is simulated to tau + T directly (an independent time comes from a
    child stream, disjoint from the path's draws). Path-dependent rules start
    on 2T and extend by 2T until tau + T fits, up to (_REACH + 1) * T, so
    every tau <= _REACH * T is realized.
    """
    if isinstance(rule, (FixedTime, IndependentRandomTime)):
        tau = float(_preset_time(rule, stream))
        return simulate(_window_end(tau, T)), tau
    path = simulate(2.0 * T)
    for i in range((_REACH + 1) // 2):
        if i:
            path = extend(path, path.horizon + 2.0 * T)
        try:
            tau = evaluate_stopping(rule, path)
        except InsufficientHorizonError:
            continue
        if _window_end(tau, T) <= path.horizon:
            return path, tau
    raise InsufficientHorizonError(
        f"stopping rule {rule!r} not realized on (0, {_REACH} * {T}]")


def _levy_stopped_path(model: LevyModel, rule: StoppingRule, T: float,
                       stream: RngStream):
    return _stopped_path(rule, T, lambda h: simulate_path(model, h, stream),
                         lambda p, h: extend_path(p, model, h, stream), stream)


def decompose(model: LevyModel, rule: StoppingRule, policy: TruncationPolicy,
              stream: RngStream) -> DecompositionRecord:
    """Simulate one path plus tail and factor the discounted integral at the
    stopping time: X_tau over (0, tau], X' over the shifted path, both on the
    same realization."""
    T = policy.horizon
    path, tau = _levy_stopped_path(model, rule, T, stream)
    x_tau = eval_jump_sum(path, tau)
    x_prime = eval_jump_sum(shift_path(path, tau), T) if tau > 0 else eval_jump_sum(path, T)
    x_total = eval_jump_sum(path, tau + T)
    return DecompositionRecord(
        tau=tau, x_tau=x_tau, discount=math.exp(-tau), x_prime=x_prime, x_total=x_total
    )


def _kth_times(owner, times, count, rank, rows):
    """For each record in ``rows``, the rank-th smallest of its ``times``;
    ``count`` holds each record's number of ``times``."""
    if np.all(rank == 1):  # a per-record minimum needs no sort
        first = np.full(count.size, np.inf)
        np.minimum.at(first, owner, times)
        return first[rows]
    order = np.lexsort((times, owner))
    return times[order[np.cumsum(count)[rows] - count[rows] + rank - 1]]


def _stopped_jumps(model: LevyModel, rule: StoppingRule, T: float, m: int,
                   stream: RngStream):
    """The path-dependent half of ``_decompose_chunk``: m paths simulated one
    block (H, H + T] at a time while their rule is pending, up to _REACH * T,
    then each extended by a fresh segment to exactly tau + T (memorylessness,
    as in ``extend_path``). Returns (owner, times, sizes, tau)."""
    if isinstance(rule, FirstJumpIn) and model.gauss_var > 0:
        raise ValueError("FirstJumpIn requires a purely discontinuous path")
    k = rule.k if isinstance(rule, KthJump) else 1
    tau = np.empty(m)
    seen = np.zeros(m, np.intp)
    ends = np.zeros(m)
    pending = np.arange(m)
    parts = []
    for _ in range(_REACH):
        local, offsets, sizes = _poisson_jumps(model, T, pending.size, stream)
        owner = pending[local]
        times = ends[owner] + offsets
        ends[pending] += T
        parts.append((owner, times, sizes))
        if isinstance(rule, FirstJumpIn):
            hit = rule.jump_set.contains(sizes)
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
    owner, offsets, sizes = _poisson_jumps(model, tau + T - ends, m, stream)
    parts.append((owner, ends[owner] + offsets, sizes))
    owner, times, sizes = (np.concatenate(a) for a in zip(*parts))
    return owner, times, sizes, tau


def _decompose_chunk(model: LevyModel, rule: StoppingRule, T: float, m: int,
                     stream: RngStream) -> tuple[np.ndarray, ...]:
    """m records on one stream: ragged jumps on (0, tau_i + T], then X_tau,
    X' and the total as three masked sums over the same jumps. X' reads the
    shifted times t - tau and the total the absolute ones, so the pathwise
    residual compares two routes. The Gaussian part is two independent
    normals per record, over (0, tau] and over the shifted (0, T]."""
    if isinstance(rule, (FixedTime, IndependentRandomTime)):
        tau = np.asarray(_preset_time(rule, stream, m), float)
        owner, times, sizes = _poisson_jumps(model, tau + T, m, stream)
    elif isinstance(rule, (FirstJump, FirstJumpIn, KthJump)):
        owner, times, sizes, tau = _stopped_jumps(model, rule, T, m, stream)
    else:
        raise TypeError(f"unknown stopping rule {rule!r}")
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


def decompose_many(model: LevyModel, rule: StoppingRule, policy: TruncationPolicy,
                   n: int, stream: RngStream) -> DecompositionRecord:
    """n independent decomposition records as one record of length-n arrays.

    Records are drawn in chunks of _CHUNK; chunk i uses only child i of
    ``stream.split(ceil(n / _CHUNK))``, so a full chunk depends on the
    stream and its index only: the first k * _CHUNK records are the same
    for every n >= k * _CHUNK.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    chunks = stream.split(-(-n // _CHUNK))
    cols = [_decompose_chunk(model, rule, policy.horizon,
                             min(_CHUNK, n - i * _CHUNK), s)
            for i, s in enumerate(chunks)]
    return DecompositionRecord(*(np.concatenate(c) for c in zip(*cols)))


# ---------------------------------------------------------------------------
# First-value and restricted-jump identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityDetail:
    """Both sides of a first-jump identity on one realization, with the
    pieces of the right-hand side."""

    tau: float
    first_size: float
    discount: float
    shifted_integral: float
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _require_pure_jump(model: LevyModel):
    if model.gauss_var > 0 or model.drift != 0:
        raise ValueError("identity requires a purely discontinuous model")
    if model.jump_rate <= 0:
        raise ValueError("identity requires a positive jump rate")


def _first_jump_identity(model: LevyModel, jump_set: JumpSet | None,
                         policy: TruncationPolicy, stream: RngStream) -> IdentityDetail:
    T = policy.horizon
    rule = FirstJump() if jump_set is None else FirstJumpIn(jump_set)
    path, tau = _levy_stopped_path(model, rule, T, stream)
    target = path if jump_set is None else thin_path(path, jump_set)[0]
    first_size = float(target.jump_sizes[0])
    lhs = eval_jump_sum(target, tau + T)
    shifted = eval_jump_sum(shift_path(target, tau), T)
    disc = math.exp(-tau)
    rhs = disc * first_size + disc * shifted
    return IdentityDetail(tau, first_size, disc, shifted, lhs, rhs)


def first_value_identity(model: LevyModel, policy: TruncationPolicy,
                         stream: RngStream) -> IdentityDetail:
    """Both sides of the first-nonzero-value factorization on one realization:
    lhs is the full discounted integral, rhs is
    e^{-tau0}*(first jump) + e^{-tau0}*(shifted integral)."""
    _require_pure_jump(model)
    return _first_jump_identity(model, None, policy, stream)


def restricted_jump_identity(model: LevyModel, jump_set: JumpSet,
                             policy: TruncationPolicy,
                             stream: RngStream) -> IdentityDetail:
    """Same identity on the thinned process keeping only jumps in the set."""
    _require_pure_jump(model)
    return _first_jump_identity(model, jump_set, policy, stream)

