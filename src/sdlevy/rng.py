"""Deterministic, splittable random streams and the gamma sampler.

Streams are counter-based (Philox), so the raw draws are a pure function of
``(seed, stream_id)``, the same on every machine and however work is
scheduled across threads or processes. Values computed from them with
numpy's vectorized math (exp, log, powers) can differ in the last bits
between CPU feature sets, so run artifacts are byte-identical on one
machine and numpy build, not across machines. A single stream must not be
shared mutably between threads; use :meth:`RngStream.split` to hand
independent child streams to parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RngStream:
    """A named, reproducible stream of randomness.

    Distinct ``(seed, stream_id)`` pairs yield statistically independent
    sequences; identical pairs yield identical raw draws on every platform.
    ``counter`` counts variates drawn, for report fingerprints.
    """

    __slots__ = ("seed", "stream_id", "counter", "_gen", "_spawned")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self.counter = 0
        self._spawned = 0
        key = self.seed | (self.stream_id << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, n: int) -> list["RngStream"]:
        """Derive ``n`` child streams with fresh stream ids.

        Child ids depend only on this stream's id and the split order, never
        on how many variates were drawn, so parallel layouts stay stable.
        """
        children = []
        for _ in range(n):
            self._spawned += 1
            cid = _splitmix64(self.stream_id ^ ((_GOLDEN * self._spawned) & _MASK64))
            children.append(RngStream(self.seed, cid))
        return children

    def uniform(self, size):
        """Uniform draws strictly inside the open interval (0, 1)."""
        u = (self._gen.integers(0, 1 << 53, size=size) + 0.5) * 2.0**-53
        self.counter += u.size
        return u

    def normal(self, size):
        z = self._gen.standard_normal(size=size)
        self.counter += z.size
        return z

    def exponential(self, rate: float, size):
        if rate <= 0:
            raise ValueError("rate must be positive")
        e = self._gen.exponential(scale=1.0 / rate, size=size)
        self.counter += e.size
        return e

    def poisson(self, lam: float, size):
        k = self._gen.poisson(lam=lam, size=size)
        self.counter += k.size
        return k

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, counter={self.counter})"


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameters of the gamma law with density
    rate^shape / Gamma(shape) * x^(shape-1) * exp(-rate*x) on (0, inf)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and np.isfinite(self.shape)):
            raise ValueError(f"shape must be a positive real, got {self.shape}")
        if not (self.rate > 0 and np.isfinite(self.rate)):
            raise ValueError(f"rate must be a positive real, got {self.rate}")


def _marsaglia_tsang(shape: float, stream: RngStream, n: int) -> np.ndarray:
    # Rejection sampler for shape >= 1 (Marsaglia & Tsang squeeze).
    d = shape - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        x = stream.normal(size=pending.size)
        v = (1.0 + c * x) ** 3
        u = stream.uniform(size=pending.size)
        pos = v > 0.0
        logv = np.log(np.where(pos, v, 1.0))
        accept = pos & (np.log(u) < 0.5 * x * x + d * (1.0 - v + logv))
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
    return out


def sample_gamma(params: GammaParams, stream: RngStream, size: int) -> np.ndarray:
    """``size`` draws from the gamma law given by ``params``.

    Shapes below 1 use the power boost gamma(a) =d gamma(a+1) * U^(1/a)
    with U uniform on (0,1), so the rejection core always runs at shape >= 1.
    """
    n = int(size)
    boost = params.shape < 1.0
    core = params.shape + 1.0 if boost else params.shape
    out = _marsaglia_tsang(core, stream, n)
    if boost:
        out = out * stream.uniform(size=n) ** (1.0 / params.shape)
    return out / params.rate
