"""Stopping rules on paths and the factorization X =d X_tau + e^{-tau} X'.

``decompose`` evaluates both the stopped integral X_tau and the shifted
integral X' on the same realization, so the recombination
x_total = x_tau + e^{-tau} * x_prime holds pathwise (to roundoff), not just
in distribution. Stopping times that do not fit the simulated horizon raise
InsufficientHorizonError; they are never silently capped. One stop-and-extend
loop serves the scalar records, the first-jump identities and the operator
factorization in ``operator.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .discount import TruncationPolicy, eval_jump_sum
from .errors import InsufficientHorizonError
from .levy import JumpPath, JumpSet, LevyModel, extend_path, shift_path, simulate_path, thin_path
from .rng import RngStream

_MAX_EXTENSIONS = 8


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

    law: object  # any sampler with .sample(stream) supported on [0, inf)


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
    """One realization of (tau, X_tau, e^{-tau}, X') plus the recombined total."""

    tau: float
    x_tau: float
    discount: float
    x_prime: float
    x_total: float

    @property
    def residual(self) -> float:
        return abs(self.x_total - (self.x_tau + self.discount * self.x_prime))

    def passes(self, rel_tol: float = 1e-10) -> bool:
        return self.residual <= rel_tol * (1.0 + abs(self.x_total))


def _stopped_path(rule: StoppingRule, T: float, simulate, extend,
                  stream: RngStream):
    """A path long enough to hold (0, tau + T] for the stopping time of
    ``rule``; returns (path, tau).

    ``simulate(horizon)`` draws a fresh path and ``extend(path, horizon)``
    continues one. Fixed and independent times are known up front, so the
    path is simulated to tau + T directly (an independent time comes from a
    child stream, disjoint from the path's draws). Path-dependent rules start
    on 2T and extend by 2T until tau + T fits, at most _MAX_EXTENSIONS times.
    """
    if isinstance(rule, (FixedTime, IndependentRandomTime)):
        if isinstance(rule, IndependentRandomTime):
            tau = float(rule.law.sample(stream.split(1)[0]))
            if tau < 0:
                raise ValueError("independent random time must be nonnegative")
        else:
            tau = rule.t
        return simulate(tau + T), tau
    path = simulate(2.0 * T)
    for _ in range(_MAX_EXTENSIONS):
        try:
            tau = evaluate_stopping(rule, path)
        except InsufficientHorizonError:
            tau = None
        if tau is not None and tau + T <= path.horizon:
            return path, tau
        path = extend(path, path.horizon + 2.0 * T)
    raise InsufficientHorizonError(
        f"stopping rule {rule!r} not realized within the extension budget")


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


def decompose_many(model: LevyModel, rule: StoppingRule, policy: TruncationPolicy,
                   n: int, stream: RngStream) -> list[DecompositionRecord]:
    """n independent decomposition records, one child stream per record."""
    return [decompose(model, rule, policy, s) for s in stream.split(n)]


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

