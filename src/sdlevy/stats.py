"""Distributional verification toolkit: two-sample KS, the empirical
characteristic function, transform-correlation independence
diagnostics, and the StatReport container that turns them into verdicts.

Acceptance suites run dozens of KS tests, so every KS test runs at the
fixed significance 0.001 (not 0.05); per-test power is recovered by sample
size.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

SIGNIFICANCE = 0.001
# c(sig) from the asymptotic Kolmogorov distribution: c = sqrt(-ln(sig/2)/2).
KS_COEFF = math.sqrt(-0.5 * math.log(SIGNIFICANCE / 2))
_ECF_CHUNK = 100_000  # samples per block of empirical_cf
MIN_PAIRED_SAMPLES = 1000  # the fewest pairs independence_diagnostic accepts


def _pooled_ecdfs(a, b) -> tuple[np.ndarray, ...]:
    """The pooled sample of a and b in order, the index in it of the last
    point of each run of equal values, and the ECDFs of a and of b at those
    points, read as counts from one stable merge of the two sorted samples.
    Non-finite samples raise ValueError."""
    n, m = np.size(a), np.size(b)
    pooled = np.concatenate([np.sort(np.asarray(a, float)), np.sort(np.asarray(b, float))])
    if not np.all(np.isfinite(pooled)):
        raise ValueError("samples must be finite")
    order = np.argsort(pooled, kind="stable")
    pooled = pooled[order]
    from_a = order < n
    del order  # one pooled-size array fewer at the peak
    last = np.flatnonzero(np.append(pooled[1:] != pooled[:-1], True))
    count_a = np.cumsum(from_a)[last]
    return pooled, last, count_a / n, (last + 1 - count_a) / m


def ks_two_sample(a, b) -> tuple[float, float, bool]:
    """Two-sample Kolmogorov-Smirnov statistic, threshold, and verdict at
    SIGNIFICANCE.

    D = sup |F_a - F_b|; threshold = KS_COEFF * sqrt((n+m)/(n*m)). Asymptotic
    thresholds only, hence the n, m >= 100 precondition.
    """
    n, m = np.size(a), np.size(b)
    if min(n, m) < 100:
        raise ValueError(f"need at least 100 samples per side, got {n}, {m}")
    _, _, cdf_a, cdf_b = _pooled_ecdfs(a, b)
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    threshold = KS_COEFF * math.sqrt((n + m) / (n * m))
    return d, threshold, d < threshold


def empirical_cf(samples, grid) -> np.ndarray:
    """Mean of exp(i*u*x) over the sample, evaluated on the grid one
    frequency and one block of _ECF_CHUNK samples at a time, so memory does
    not grow with the grid."""
    samples = np.asarray(samples, float)
    grid = np.asarray(grid, float)
    acc = np.zeros(grid.size, complex)
    for start in range(0, samples.size, _ECF_CHUNK):
        block = samples[start:start + _ECF_CHUNK]
        for k, u in enumerate(grid):
            acc[k] += np.exp(1j * u * block).sum()
    return acc / samples.size


def gamma_cf(shape: float, rate: float):
    """Characteristic function u -> (1 - i*u/rate)^(-shape)."""
    return lambda u: (1.0 - 1j * np.asarray(u, float) / rate) ** (-shape)


def _corr(x: np.ndarray, y: np.ndarray) -> float:
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def _median(v: np.ndarray) -> float:
    """np.median of a 1-d array, bit for bit, without importing numpy.ma."""
    k = v.size // 2
    part = np.partition(v, [k - 1, k])
    return part[k] if v.size % 2 else (part[k - 1] + part[k]) / 2


def independence_diagnostic(x, y) -> float:
    """Max |corr| over {clipped identity, above-median indicator} transform
    pairs of the two coordinates. Pass band for independent pairs: 3/sqrt(n)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.size != y.size:
        raise ValueError("paired samples must have equal length")
    if x.size < MIN_PAIRED_SAMPLES:
        raise ValueError(f"need at least {MIN_PAIRED_SAMPLES} paired samples")

    def transforms(v):
        return (np.clip(v, -10.0, 10.0), (v > _median(v)).astype(float))

    return max(abs(_corr(tx, ty)) for tx in transforms(x) for ty in transforms(y))


def independence_pass_band(n: int) -> float:
    return 3.0 / math.sqrt(n)


def moment_summary(samples) -> dict:
    s = np.asarray(samples, float)
    n = s.size
    mean = float(s.mean())
    var = float(s.var())
    m4 = float(np.mean((s - mean) ** 4))
    return {
        "n": n,
        "mean": mean,
        "se_mean": math.sqrt(var / n),
        "var": var,
        "se_var": math.sqrt(max(m4 - var * var, 0.0) / n),
    }


@dataclass
class StatReport:
    """Result of a distributional comparison; verdict passes iff the KS
    statistic clears its threshold and both moment bands hold."""

    name: str
    n: int
    m: int
    ks_stat: float
    ks_threshold: float
    significance: float = field(default=SIGNIFICANCE, init=False)
    moments: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    verdict: bool = False
    seed: int | None = None
    config_fingerprint: str | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def compare_samples(name: str, a, b) -> StatReport:
    """KS plus the 3-SE mean and variance bands of two samples; the verdict is
    exactly those three, and every other check is the caller's named gate.
    The caller sets ``seed`` and ``config_fingerprint`` on the report."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d, threshold, ks_pass = ks_two_sample(a, b)
    ma, mb = moment_summary(a), moment_summary(b)
    mean_ok = abs(ma["mean"] - mb["mean"]) <= 3.0 * math.hypot(ma["se_mean"], mb["se_mean"])
    var_ok = abs(ma["var"] - mb["var"]) <= 3.0 * math.hypot(ma["se_var"], mb["se_var"])
    return StatReport(
        name=name, n=a.size, m=b.size, ks_stat=d, ks_threshold=threshold,
        moments={"a": ma, "b": mb},
        diagnostics={"ks_pass": ks_pass, "mean_within_3se": mean_ok,
                     "var_within_3se": var_ok},
        verdict=ks_pass and mean_ok and var_ok,
    )
