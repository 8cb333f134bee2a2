"""Stopping rules on paths and the factorization X =d X_tau + e^{-tau} X'.

One engine stops every scalar path: ``_stopped_jumps`` draws ragged jump
arrays on (0, tau + T], a chunk of records at a time, and serves
``decompose_many`` (``decompose`` is its n = 1 row) and the operator records
in ``operator.py``. Every path-dependent rule is a ``KthJump``: the first
jump (``KthJump()``, whose record is Corollary 3's first-value identity),
the first jump in a set and the k-th jump. The other rules are known before
the path is drawn: a ``FixedTime`` and an ``IndependentRandomTime``, an
Exp(rate) time drawn from a child stream. The restricted-jump identity is
the record at the first jump of the driver thinned to a jump set, where
X_tau is e^{-tau} times that jump. X_tau and X' are evaluated on the same
realization, so the recombination x_total = x_tau + e^{-tau} * x_prime
holds pathwise (to roundoff), not just in distribution. Path-dependent
stopping times are looked for on (0, _REACH * T]; one that is not realized
there raises InsufficientHorizonError and is never silently capped. Within a
block, a record's k-th jump time is peeled off its per-record minima, one
rank per round (``_kth_times``), so a first jump is one per-record minimum.
``evaluate_stopping`` realizes a rule on one path object, the independent
reference route.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from .discount import TruncationPolicy, _sum_by_path
from .errors import InsufficientHorizonError
# simulate_path stays bound here: perfbench/tests/test_bench_tracer.py reads it.
from .levy import JumpPath, JumpSet, LevyModel, _poisson_jumps, simulate_path  # noqa: F401
from .rng import RngStream

# Path-dependent rules are looked for on (0, _REACH * T], in blocks of length T.
# 22 blocks of the default T = 27.63 reach 607.9 time units. A rare set such
# as {x >= 4} at rate 2 (hit rate 2e^{-4}) then leaves one of 2,000 records
# unrealized with probability 4e-7; 15 blocks would reach 414 and make it 5e-4.
_REACH = 22
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
class KthJump:
    """The k-th jump of the driver, counting only the jumps whose size lies
    in ``jump_set`` when one is given."""

    k: int = 1
    jump_set: JumpSet | None = None

    def __post_init__(self):
        # bool is an Integral, but True is not a rank
        if not isinstance(self.k, numbers.Integral) or isinstance(self.k, bool):
            raise ValueError(f"k must be an integer, not {self.k!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class IndependentRandomTime:
    """An Exp(rate) time drawn independently of the path, from a stream
    disjoint from the path's stream."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be finite and positive, not {self.rate!r}")


StoppingRule = Union[FixedTime, KthJump, IndependentRandomTime]


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
    if isinstance(rule, KthJump):
        hits = (np.arange(path.jump_times.size) if rule.jump_set is None
                else np.flatnonzero(rule.jump_set.contains(path.jump_sizes)))
        if hits.size < rule.k:
            raise InsufficientHorizonError(
                f"insufficient horizon: {hits.size} jumps counted, need {rule.k}")
        return float(path.jump_times[hits[rule.k - 1]])
    if isinstance(rule, IndependentRandomTime):
        if stream is None:
            raise ValueError("IndependentRandomTime needs an independent stream")
        t = float(stream.exponential(rule.rate, size=1)[0])
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
    and ``residual``, ``relative_residual`` and ``passes`` then work
    elementwise."""

    TOLERANCE: ClassVar[float] = 1e-10  # the largest relative residual that passes

    tau: float | np.ndarray
    x_tau: float | np.ndarray
    discount: float | np.ndarray
    x_prime: float | np.ndarray
    x_total: float | np.ndarray

    @property
    def residual(self):
        return abs(self.x_total - (self.x_tau + self.discount * self.x_prime))

    @property
    def relative_residual(self):
        return self.residual / (1.0 + abs(self.x_total))

    def passes(self):
        return self.relative_residual <= self.TOLERANCE


def _preset_time(rule, stream: RngStream, size: int) -> np.ndarray:
    """``size`` times of a FixedTime or IndependentRandomTime rule, known
    before the path is drawn; independent Exp(rate) times come from a child
    stream, disjoint from the path's draws."""
    if isinstance(rule, FixedTime):
        return np.full(size, float(rule.t))
    return stream.split(1)[0].exponential(rule.rate, size=size)


def _kth_times(owner, times, count, rank, rows):
    """For each record in ``rows``, the rank-th smallest of its ``times``;
    ``count`` holds each record's number of ``times``, at least its rank.

    Peeled one per-record minimum at a time: a round takes each record's
    smallest time, then drops it, with the times equal to it, from the
    records that still need a later rank. Rank 1 is the first round alone."""
    need = np.zeros(count.size, np.intp)
    need[rows] = rank
    kth = np.empty(count.size)
    while True:
        first = np.full(count.size, np.inf)
        np.minimum.at(first, owner, times)
        kth[need > 0] = first[need > 0]
        if np.all(need <= 1):
            return kth[rows]
        drop = times == first[owner]
        need = np.maximum(need - np.bincount(owner[drop], minlength=count.size), 0)
        keep = ~drop & (need[owner] > 0)
        owner, times = owner[keep], times[keep]


def _stopped_jumps(draw, rule: StoppingRule, T: float, m: int, stream: RngStream):
    """The jumps of m paths on (0, tau_i + T] and their stopping times.

    ``draw(window, k)`` gives k fresh paths' jumps on (0, window_j] as ragged
    arrays (owner, time, size, ...), the one part that the scalar and the
    operator records do not share. Known times (fixed, or independent from
    a child stream) are drawn to tau + T at once. A KthJump reads the merged
    times (with a jump set also the sizes) of one block (H, H + T] at a time
    while pending, up to _REACH * T; each path then gets a fresh segment to
    exactly tau + T (memorylessness).
    Returns (owner, times, sizes, ..., tau)."""
    if isinstance(rule, (FixedTime, IndependentRandomTime)):
        tau = _preset_time(rule, stream, m)
        return (*draw(tau + T, m), tau)
    if not isinstance(rule, KthJump):
        raise TypeError(f"unknown stopping rule {rule!r}")
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
        if rule.jump_set is not None:
            hit = rule.jump_set.contains(rest[0])
            owner, times = owner[hit], times[hit]
        count = np.bincount(owner, minlength=m)
        got = count[pending] >= rule.k - seen[pending]
        done = pending[got]
        tau[done] = _kth_times(owner, times, count, rule.k - seen[done], done)
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
                     stream: RngStream,
                     jump_set: JumpSet | None = None) -> tuple[np.ndarray, ...]:
    """m records on one stream: ragged jumps on (0, tau_i + T], then X_tau,
    X' and the total as three masked sums over the same jumps. X' reads the
    shifted times t - tau and the total the absolute ones, so the pathwise
    residual compares two routes. The Gaussian part is two independent
    normals per record, over (0, tau] and over the shifted (0, T]. With a
    ``jump_set`` each block keeps only the jumps whose size lies in it (the
    thinned driver), from the same variates."""
    if isinstance(rule, KthJump) and rule.jump_set is not None and model.gauss_var > 0:
        raise ValueError("a rule with a jump set requires a purely discontinuous path")

    def draw(window, k):
        owner, times, sizes = _poisson_jumps(model, window, k, stream)
        if jump_set is None:
            return owner, times, sizes
        keep = jump_set.contains(sizes)
        return owner[keep], times[keep], sizes[keep]

    owner, times, sizes, tau = _stopped_jumps(draw, rule, T, m, stream)
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
    _CHUNK, each chunk written into length-n columns as it comes; chunk i
    gets only child i of ``stream.split(ceil(n / _CHUNK))``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cols = None
    for i, s in enumerate(stream.split(-(-n // _CHUNK))):
        lo = i * _CHUNK
        part = chunk(min(_CHUNK, n - lo), s)
        if cols is None:
            cols = [np.empty((n, *c.shape[1:]), c.dtype) for c in part]
        for col, c in zip(cols, part):
            col[lo:lo + len(c)] = c
    return cols


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
# The restricted-jump identity
# ---------------------------------------------------------------------------

def _first_jump_identity(model: LevyModel, jump_set: JumpSet | None,
                         policy: TruncationPolicy, n: int,
                         stream: RngStream) -> DecompositionRecord:
    """n records of the factorization at the first jump of the driver,
    thinned to ``jump_set`` when given, in the chunk layout of
    ``decompose_many``: x_total is the discounted integral of the (thinned)
    driver, the lhs, x_tau is e^{-tau} * J for the first kept jump J, and
    x_tau + discount * x_prime is the rhs."""
    if model.gauss_var > 0 or model.drift != 0:
        raise ValueError("identity requires a purely discontinuous model")
    if model.jump_rate <= 0:
        raise ValueError("identity requires a positive jump rate")
    return DecompositionRecord(*_by_chunks(
        lambda m, s: _decompose_chunk(model, KthJump(), policy.horizon, m, s, jump_set),
        n, stream))


def restricted_jump_identity(model: LevyModel, jump_set: JumpSet,
                             policy: TruncationPolicy, n: int,
                             stream: RngStream) -> DecompositionRecord:
    """The first-jump identity on the thinned process keeping only jumps in
    the set."""
    return _first_jump_identity(model, jump_set, policy, n, stream)
