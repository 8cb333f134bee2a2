"""Reproducible experiment runner.

Usage: ``sdlevy run --config exp.json [--seed N] [--out-dir D]``

The config is a single JSON document (experiments are data); it is
schema-validated before any computation and unknown fields are rejected.
Each experiment is declared once in ``_EXPERIMENTS`` (its params schema and
its runner), and each stopping rule once in ``_RULES`` (its fields and its
constructor); the schemas are JSON Schema (draft 2020-12) data built from
these tables, and ``_errors`` checks a document against them with only the
keywords they use; ``integer`` means a JSON integer, so ``2000.0`` is not one,
and ``number`` a finite one, so ``NaN`` and ``Infinity`` are not numbers. An
experiment with an independence gate needs ``MIN_PAIRED_SAMPLES`` samples.
``verify-theorem1`` and ``verify-corollary2-pathwise`` are one runner: the
stopped factorization in law and pathwise, at the first jump or at the
second's ``rule``.

A runner returns StatReports and named boolean gates, and decides no
verdict: ``ExperimentResult.verdict`` passes iff every report passes and
every gate holds. A pathwise gate reads its record class's ``TOLERANCE``.
Each run that returns writes four artifacts to the output directory, which
it makes only then:

  samples.csv  raw sample columns at full double precision
  report.json  StatReports, extras and gates, verdict, seed, config
               fingerprint, and the horizon T the run truncated at
  cdf.csv      both ECDFs of the primary sample pair at 1,025 evenly spaced
               ranks of the pooled sample, plus the KS peak row
  ecf.csv      characteristic-function grid (empirical vs reference)

Rerunning with the same config and seed on one machine and numpy build
produces byte-identical artifacts. ``run`` fixes glibc's mmap and trim
thresholds for the process, so chunk-sized temporaries keep their pages; this
has no effect on other C libraries and changes no draw and no artifact.
Exit status: 0 all verdicts pass, 1 a verdict failed, 2 invalid config, 3 a
valid config whose run raised (for example a Poisson mean too large, a
sample too large for memory, or a perpetuity series that needs more than
``n_steps`` terms).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import decomposition as dec
from .discount import TAIL_TOL, TruncationPolicy, sample_discounted_integral_many
from .errors import ConfigError, SpectralGateError
from .levy import ExponentialJumps, JumpSet, LevyModel
from .operator import (OperatorModel, independent_coordinates, operator_decompose_many,
                       sample_operator_integral_many)
from .perpetuity import (BetaGammaAffine, StoppedIntegralAffine,
                         beta_gamma_identity_samples, gamma_factor_samples,
                         sample_backward_series_many)
from .rng import GammaParams, RngStream, sample_gamma
from .stats import (MIN_PAIRED_SAMPLES, StatReport, _pooled_ecdfs, compare_samples,
                    empirical_cf, gamma_cf, independence_diagnostic, independence_pass_band,
                    ks_two_sample)

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_GAMMA = {"alpha": _POSITIVE, "lam": _POSITIVE}


def _object(required: dict, optional: dict | None = None) -> dict:
    """The schema of a JSON object with these fields; any other field is
    rejected."""
    schema = {"type": "object", "additionalProperties": False,
              "properties": {**required, **(optional or {})}}
    if required:
        schema["required"] = list(required)
    return schema


# kind -> (fields, constructor called with the fields by name)
_RULES = {
    "fixed_time": ({"t": {"type": "number", "minimum": 0}}, dec.FixedTime),
    "first_jump": ({}, dec.KthJump),
    "first_jump_in": ({"threshold": _POSITIVE},
                      lambda threshold: dec.KthJump(1, JumpSet(threshold))),
    "kth_jump": ({"k": {"type": "integer", "minimum": 1}}, dec.KthJump),
    "independent_exponential": (
        {"rate": _POSITIVE}, lambda rate: dec.IndependentRandomTime(ExponentialJumps(rate))),
}


def _tagged(tag: str, branches: dict) -> dict:
    """The schema of an object whose ``tag`` field, checked by an enum, picks
    one of ``branches`` (tag value -> (required, optional) fields) by if/then,
    so that a violation is reported against the picked branch's fields."""
    return {"type": "object", "required": [tag],
            "properties": {tag: {"enum": list(branches)}},
            "allOf": [{"if": {"properties": {tag: {"const": name}}},
                       "then": _object({tag: {}, **required}, optional)}
                      for name, (required, optional) in branches.items()]}


_RULE_SCHEMA = _tagged("kind", {kind: (fields, None) for kind, (fields, _) in _RULES.items()})


def _parse_rule(doc: dict) -> dec.StoppingRule:
    fields, build = _RULES[doc["kind"]]
    return build(**{name: doc[name] for name in fields})


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    reports: list[StatReport] = field(default_factory=list)
    gates: dict[str, bool] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)       # reported, not gated
    samples: dict = field(default_factory=dict)      # name -> 1-d array
    primary: tuple | None = None                     # (a, b) for cdf.csv
    ref_cf: Callable | None = None

    @property
    def verdict(self) -> bool:
        return all(r.verdict for r in self.reports) and all(self.gates.values())


def _pathwise(rec) -> tuple[float, bool]:
    """(largest relative residual, every record within its class's TOLERANCE)."""
    return float(rec.relative_residual.max()), bool(rec.passes().all())


def _gamma_model(alpha: float, lam: float) -> LevyModel:
    # The driver whose discounted integral is gamma(alpha, lam).
    return LevyModel(jump_rate=alpha, jump_law=ExponentialJumps(lam))


def _run_gamma_bdlp(params, n, policy, stream) -> ExperimentResult:
    alpha, lam = params["alpha"], params["lam"]
    s_int, s_gamma = stream.split(2)
    integ = sample_discounted_integral_many(_gamma_model(alpha, lam), policy, n, s_int)
    direct = sample_gamma(GammaParams(alpha, lam), s_gamma, size=n)
    report = compare_samples("gamma_bdlp_vs_direct", integ, direct)
    return ExperimentResult(
        reports=[report],
        samples={"discounted_integral": integ, "direct_gamma": direct},
        primary=(integ, direct), ref_cf=gamma_cf(alpha, lam),
    )


def _exact_tau(rule, sources, n: int, stream: RngStream):
    """n draws of the exact law of tau under ``rule`` for a driver of
    independent sources, each (rate, lam) with Exp(lam) jumps, or None for a
    fixed time. The merged jumps are a Poisson process of rate sum(rate),
    whose k-th jump comes at a gamma(k, sum(rate)) time, and the jumps in the
    runner's sets {x >= a} arrive at rate sum(rate * e^{-lam * a})
    (thinning)."""
    if isinstance(rule, dec.FixedTime):
        return None
    if isinstance(rule, dec.IndependentRandomTime):
        return rule.law.sample(stream, n)
    a = 0.0 if rule.jump_set is None else rule.jump_set.a
    rate = sum(r * math.exp(-lam * a) for r, lam in sources)
    return sample_gamma(GammaParams(rule.k, rate), stream, size=n)


def _run_theorem1(params, n, policy, stream) -> ExperimentResult:
    alpha, lam = params["alpha"], params["lam"]
    rule = _parse_rule(params.get("rule", {"kind": "first_jump"}))
    s_rec, s_gamma, s_tau = stream.split(3)
    rec = dec.decompose_many(_gamma_model(alpha, lam), rule, policy, n, s_rec)
    direct = sample_gamma(GammaParams(alpha, lam), s_gamma, size=n)
    reports = [compare_samples("x_total_vs_direct", rec.x_total, direct),
               compare_samples("x_prime_vs_direct", rec.x_prime, direct)]
    tau = _exact_tau(rule, [(alpha, lam)], n, s_tau)
    if tau is not None:
        reports.append(compare_samples("tau_vs_exact_law", rec.tau, tau))
    band = independence_pass_band(n)
    d1 = independence_diagnostic(rec.x_tau, rec.x_prime)
    d2 = independence_diagnostic(rec.discount, rec.x_prime)
    max_rel, pathwise_ok = _pathwise(rec)
    return ExperimentResult(
        reports=reports,
        gates={"independence_pass": bool(d1 <= band and d2 <= band),
               "pathwise_pass": pathwise_ok},
        extras={"independence_x_tau_x_prime": d1,
                "independence_discount_x_prime": d2,
                "independence_band": band,
                "max_relative_residual": max_rel},
        samples={**vars(rec), "direct_gamma": direct}, primary=(rec.x_total, direct),
        ref_cf=gamma_cf(alpha, lam),
    )


def _run_corollary3(params, n, policy, stream) -> ExperimentResult:
    alpha, lam = params["alpha"], params["lam"]
    model = _gamma_model(alpha, lam)
    jump_set = JumpSet(params["set_threshold"])
    s_first, s_restr, s_gamma = stream.split(3)
    first = dec.decompose_many(model, dec.KthJump(), policy, n, s_first)
    restricted = dec.restricted_jump_identity(model, jump_set, policy, n, s_restr)
    direct = sample_gamma(GammaParams(alpha, lam), s_gamma, size=n)
    report = compare_samples("first_value_lhs_vs_direct", first.x_total, direct)
    band = independence_pass_band(n)
    diag = independence_diagnostic(first.discount, first.x_prime)
    rel1, ok1 = _pathwise(first)
    rel2, ok2 = _pathwise(restricted)
    return ExperimentResult(
        reports=[report],
        gates={"pathwise_pass": ok1 and ok2, "independence_pass": bool(diag <= band)},
        extras={"max_relative_residual_first_value": rel1,
                "max_relative_residual_restricted": rel2,
                "independence_discount_shifted": diag,
                "independence_band": band},
        samples={"lhs": first.x_total,
                 "rhs": first.x_tau + first.discount * first.x_prime,
                 "restricted_lhs": restricted.x_total,
                 "restricted_rhs": restricted.x_tau + restricted.discount * restricted.x_prime,
                 "direct_gamma": direct},
        primary=(first.x_total, direct), ref_cf=gamma_cf(alpha, lam),
    )


def _run_prop1(params, n, policy, stream) -> ExperimentResult:
    lam = params["lam"]
    reports, samples, primary = [], {}, None
    for alpha in params["alphas"]:
        # the shortest round-trip repr: distinct alphas never share a name
        tag = repr(alpha).removesuffix(".0")
        s_bg, s_fac, s_ref = stream.split(3)
        lhs, rhs = beta_gamma_identity_samples(alpha, lam, n, s_bg)
        reports.append(compare_samples(f"beta_gamma_alpha_{tag}", lhs, rhs))
        factor = gamma_factor_samples(alpha, lam, n, s_fac, discount="first_jump")
        direct = sample_gamma(GammaParams(alpha, lam), s_ref, size=n)
        reports.append(compare_samples(f"first_jump_factor_alpha_{tag}", direct, factor))
        samples[f"beta_gamma_lhs_{tag}"] = lhs
        samples[f"beta_gamma_rhs_{tag}"] = rhs
        samples[f"factor_form_{tag}"] = factor
        if primary is None:
            primary = (lhs, rhs)
    return ExperimentResult(reports=reports, samples=samples, primary=primary)


def _run_perpetuity(params, n, policy, stream) -> ExperimentResult:
    gamma = params["driver"] == "gamma"
    alpha, lam = params.get("alpha", 2.0), params.get("lam", 1.0)
    max_terms = params.get("n_steps", 200)
    if gamma:
        model, rule = _gamma_model(alpha, lam), dec.KthJump()
    else:
        # A jump-free driver has no first jump; an independent Exp(1) time is
        # a valid stopping rule and keeps the discount non-degenerate.
        model = LevyModel(gauss_var=params.get("sigma2", 1.0))
        rule = dec.IndependentRandomTime(ExponentialJumps(1.0))
    law = StoppedIntegralAffine(model, rule)
    s_perp, s_series, s_exact = stream.split(3)
    s_iter, s_direct, s_diag = s_perp.split(3)
    stationary, terms = sample_backward_series_many(law, TAIL_TOL, n, s_iter,
                                                    max_terms=max_terms)
    direct = sample_discounted_integral_many(model, policy, n, s_direct)
    a, _ = law.sample_pairs(s_diag, size=min(n, 10_000))
    reports = [compare_samples("perpetuity_fixed_point", stationary, direct)]
    gates = {"discount_in_unit_interval": bool(np.all((a >= 0.0) & (a <= 1.0))),
             "discount_nondegenerate": bool(np.std(a) > 0.0)}
    extras = {"tail_tol": TAIL_TOL, "max_terms": max_terms, "fixed_point_terms": terms}
    if not gamma:
        # the integral of a driftless Gaussian driver is N(0, sigma2 / 2)
        exact = math.sqrt(model.gauss_var / 2.0) * s_exact.normal(size=n)
        reports.append(compare_samples("fixed_point_vs_exact_normal", stationary, exact))
        return ExperimentResult(reports=reports, gates=gates, extras=extras)
    series, extras["backward_series_terms"] = sample_backward_series_many(
        BetaGammaAffine(alpha, lam), TAIL_TOL, n, s_series, max_terms=max_terms)
    direct = sample_gamma(GammaParams(alpha, lam), s_exact, size=n)
    reports.append(compare_samples("backward_series_vs_direct", series, direct))
    return ExperimentResult(reports=reports, gates=gates, extras=extras,
                            samples={"backward_series": series, "direct_gamma": direct},
                            primary=(series, direct), ref_cf=gamma_cf(alpha, lam))


def _run_operator(params, n, policy, stream) -> ExperimentResult:
    q = np.asarray(params["q"], float)
    models = tuple(
        LevyModel(jump_rate=c["jump_rate"],
                  jump_law=ExponentialJumps(c["exp_jump_rate"]),
                  drift=c.get("drift", 0.0))
        for c in params["coords"]
    )
    model = OperatorModel(q, independent_coordinates(models))
    rule = _parse_rule(params.get("rule", {"kind": "first_jump"}))
    n_records = params.get("n_records", 2000)
    s_rec, s_mean, s_tau, s_exact = stream.split(4)
    rec = operator_decompose_many(model, rule, policy, n_records, s_rec)
    max_rel, pathwise_ok = _pathwise(rec)
    draws = sample_operator_integral_many(model, policy, n, s_mean)
    se = draws.std(axis=0) / np.sqrt(n)
    mean_gap = np.abs(draws.mean(axis=0) - model.mean_integral())
    # Spectral gate negative control: a singular Q must be rejected.
    try:
        OperatorModel(np.zeros_like(q), independent_coordinates(models))
        gate_ok = False
    except SpectralGateError:
        gate_ok = True
    x_total = rec.x_total
    reports = [
        compare_samples(f"{name}_coord{i}_vs_integral", x[:, i], draws[:n_records, i])
        for name, x in (("x_total", x_total), ("x_prime", rec.x_prime))
        for i in range(model.dimension)
    ]
    tau = _exact_tau(rule, [(m.jump_rate, m.jump_law.rate) for m in models], n_records, s_tau)
    if tau is not None:
        reports.append(compare_samples("tau_vs_exact_law", rec.tau, tau))
    if np.array_equal(q, np.diag(np.diag(q))):
        # A diagonal Q discounts coordinate i alone, at rate q_i: its integral
        # is the scalar one of rate r_i / q_i and drift d_i / q_i, a gamma law
        # shifted by d_i / q_i.
        for i, (m, q_i) in enumerate(zip(models, np.diag(q))):
            exact = sample_gamma(GammaParams(m.jump_rate / q_i, m.jump_law.rate), s_exact,
                                 size=n) + m.drift / q_i
            reports.append(compare_samples(f"integral_coord{i}_vs_exact_gamma",
                                           draws[:, i], exact))
    samples = {f"x_total_{i}": x_total[:, i] for i in range(model.dimension)}
    samples.update({f"integral_{i}": draws[:, i] for i in range(model.dimension)})
    return ExperimentResult(
        reports=reports,
        gates={"pathwise_pass": pathwise_ok,
               "mean_identity_pass": bool(np.all(mean_gap <= 3.0 * se)),
               "spectral_gate_rejects_singular": gate_ok},
        extras={"max_relative_residual": max_rel, "residual_tolerance": rec.TOLERANCE,
                "mean_gap": mean_gap.tolist(), "mean_band_3se": (3.0 * se).tolist(),
                "discounter_mode": model._discounter.mode,
                "eigenvector_cond": model._discounter.cond},
        samples=samples, primary=(x_total[:, 0], draws[:n_records, 0]))


def _run_null_calibration(params, n, policy, stream) -> ExperimentResult:
    alpha, lam = params["alpha"], params["lam"]
    n_pairs = params.get("n_pairs", 100)
    failures = 0
    last = None
    for s in stream.split(n_pairs):
        s1, s2 = s.split(2)
        a = sample_gamma(GammaParams(alpha, lam), s1, size=n)
        b = sample_gamma(GammaParams(alpha, lam), s2, size=n)
        _, _, ok = ks_two_sample(a, b)
        failures += 0 if ok else 1
        last = (a, b)
    # Negative controls must fail as designed.
    s1, s2 = stream.split(2)
    a = sample_gamma(GammaParams(alpha, lam), s1, size=n)
    shifted = sample_gamma(GammaParams(alpha + 0.2, lam), s2, size=n)
    _, _, shifted_passes = ks_two_sample(a, shifted)
    dep = independence_diagnostic(a, a)
    max_failures = 1
    return ExperimentResult(
        gates={"null_failures_within_max": failures <= max_failures,
               "shifted_law_detected": bool(not shifted_passes),
               "dependence_detected": bool(dep > independence_pass_band(n))},
        extras={"n_pairs": n_pairs, "null_failures": failures,
                "max_null_failures": max_failures},
        samples={"sample_a": last[0], "sample_b": last[1]},
        primary=last, ref_cf=gamma_cf(alpha, lam))


_EXPERIMENTS = {
    "verify-gamma-bdlp": (_object(_GAMMA), _run_gamma_bdlp),
    "verify-theorem1": (_object(_GAMMA), _run_theorem1),
    "verify-corollary2-pathwise": (_object({**_GAMMA, "rule": _RULE_SCHEMA}),
                                   _run_theorem1),
    "verify-corollary3": (_object({**_GAMMA, "set_threshold": _POSITIVE}),
                          _run_corollary3),
    "verify-prop1": (_object({"alphas": {"type": "array", "items": _POSITIVE,
                                         "minItems": 1, "uniqueItems": True},
                              "lam": _POSITIVE}), _run_prop1),
    "perpetuity-iterate": (_tagged("driver", {
        driver: ({}, {**fields, "n_steps": {"type": "integer", "minimum": 1}})
        for driver, fields in (("gamma", _GAMMA), ("gaussian", {"sigma2": _POSITIVE}))}),
        _run_perpetuity),
    "operator-decompose": (_object(
        {"q": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
         "coords": {"type": "array", "minItems": 1, "items": _object(
             {"jump_rate": _POSITIVE, "exp_jump_rate": _POSITIVE},
             {"drift": {"type": "number"}})}},
        {"rule": _RULE_SCHEMA, "n_records": {"type": "integer", "minimum": 100}}),
        _run_operator),
    "null-calibration": (_object(_GAMMA, {"n_pairs": {"type": "integer", "minimum": 1}}),
                         _run_null_calibration),
}

EXPERIMENTS = tuple(_EXPERIMENTS)

# The experiments whose independence gate pairs n_samples draws.
_PAIRED = ["verify-theorem1", "verify-corollary2-pathwise", "verify-corollary3",
           "null-calibration"]

CONFIG_SCHEMA = {
    **_object({"experiment": {"enum": list(EXPERIMENTS)},
               "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
               "n_samples": {"type": "integer", "minimum": 200},
               "params": {"type": "object"}},
              {"policy": _object({}, {"horizon": _POSITIVE}),
               "out_dir": {"type": "string"}}),
    "allOf": [{"if": {"properties": {"experiment": {"enum": _PAIRED}}},
               "then": {"properties": {"n_samples": {"minimum": MIN_PAIRED_SAMPLES}}}}]}


# JSON types as Python types; a bool is none of them, and a number is finite.
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
          "integer": int}


def _is(doc, name: str) -> bool:
    return (isinstance(doc, _TYPES[name]) and not isinstance(doc, bool)
            and not (isinstance(doc, float) and not math.isfinite(doc)))


def _same(a, b) -> bool:
    """JSON equality: 1 == 1.0, a bool equals only itself, and arrays and
    objects are equal item by item."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a is b or a == b


def _errors(schema: dict, doc):
    """Yield each way ``doc`` violates ``schema``, in the order and words of
    a draft 2020-12 validator. Only the keywords these schemas use are
    implemented: ``enum`` and ``const`` values are strings,
    ``additionalProperties`` is false, ``uniqueItems`` is true, and ``if``
    applies its sibling ``then``."""
    for key, value in schema.items():
        if key == "type" and not _is(doc, value):
            yield f"{doc!r} is not of type {value!r}"
        elif key == "enum" and doc not in value:
            yield f"{doc!r} is not one of {value!r}"
        elif key == "const" and doc != value:
            yield f"{value!r} was expected"
        elif key == "minimum" and _is(doc, "number") and doc < value:
            yield f"{doc!r} is less than the minimum of {value!r}"
        elif key == "maximum" and _is(doc, "number") and doc > value:
            yield f"{doc!r} is greater than the maximum of {value!r}"
        elif key == "exclusiveMinimum" and _is(doc, "number") and doc <= value:
            yield f"{doc!r} is less than or equal to the minimum of {value!r}"
        elif key == "minItems" and _is(doc, "array") and len(doc) < value:
            yield f"{doc!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "items" and _is(doc, "array"):
            for item in doc:
                yield from _errors(value, item)
        elif (key == "uniqueItems" and _is(doc, "array")
              and any(_same(x, y) for i, x in enumerate(doc) for y in doc[i + 1:])):
            yield f"{doc!r} has non-unique elements"
        elif key == "properties" and _is(doc, "object"):
            for name, sub in value.items():
                if name in doc:
                    yield from _errors(sub, doc[name])
        elif key == "required" and _is(doc, "object"):
            for name in value:
                if name not in doc:
                    yield f"{name!r} is a required property"
        elif key == "additionalProperties" and _is(doc, "object"):
            extra = sorted((k for k in doc if k not in schema.get("properties", {})), key=str)
            if extra:
                verb = "was" if len(extra) == 1 else "were"
                yield (f"Additional properties are not allowed "
                       f"({', '.join(map(repr, extra))} {verb} unexpected)")
        elif key == "allOf":
            for sub in value:
                yield from _errors(sub, doc)
        elif key == "if" and next(_errors(value, doc), None) is None:
            yield from _errors(schema["then"], doc)


def _check(schema: dict, doc) -> None:
    message = next(_errors(schema, doc), None)
    if message is not None:
        raise ConfigError(f"config schema violation: {message}")


def validate_config(doc: dict) -> dict:
    _check(CONFIG_SCHEMA, doc)
    _check(_EXPERIMENTS[doc["experiment"]][0], doc["params"])
    return doc


# ---------------------------------------------------------------------------
# Artifact writers (full double precision, deterministic layout)
# ---------------------------------------------------------------------------

_CELLS = 1 << 12  # values per _g17_slots call of _write_rows

# _g17_slots lays the text of a value out in _SLOTS fixed slots: the sign, the
# "0.000" of a fixed-point value below 1, 17 digits with the dot slot among
# them, "e+XX", and a separator slot left to the writer. An unused slot holds
# 0, and the writer drops every 0 byte.
_SLOTS = 1 + 5 + 18 + 4 + 1
# 10^0 .. 10^27 in long double, each exact: 10^q = 5^q 2^q and 5^27 < 2^64.
_POW10 = np.concatenate(([1], np.cumprod(np.full(27, 10, np.longdouble))))
# y = |x| 10^(16 - k) takes one long double operation by an exact power of
# ten where 16 - k <= 27, two above; each is correctly rounded, off by a factor
# 1 + d with |d| <= eps/2. After n <= 2 of them |y~ - y| < n (eps/2)(1 + 2 eps) y~,
# and the tolerance on |frac(y~) - 1/2| is twice that, n _REL_TOL y~; the 2^-20
# covers the 2 eps and the rounding of the tolerance's own product. Outside
# the tolerance y~ and y round to the same integer. This holds for any
# correctly rounded long double: x87 extended, IEEE quad, or double, where
# eps = 2^-52 puts every tolerance above 1/2, so every nonzero value takes
# Python's '%.17g'.
_REL_TOL = float(np.finfo(np.longdouble).eps) * (1 + 2.0 ** -20)
_K_MIN, _K_MAX = -37, 42  # the decimal exponents k = floor(log10 |x|) formatted here
_E = np.arange(_K_MIN - 1, _K_MAX + 3)  # every exponent of a rounded value, plus 0
_FIXED = (_E >= -4) & (_E < 17)  # %g prints these without an exponent
_POINT = np.where(_FIXED & (_E >= 0), _E, 0).astype(np.uint8)  # the digit the dot follows
_EXPONENT = np.where(_FIXED, 0, np.stack(np.broadcast_arrays(
    101, np.where(_E < 0, 45, 43), abs(_E) // 10 + 48, abs(_E) % 10 + 48))).astype(np.uint8)
_PREFIX_E = np.array([[-1], [-1], [-2], [-3], [-4]])  # "0.000": slot i needs e <= this
_PREFIX = np.array([[48], [46], [48], [48], [48]], np.uint8)
_BODY = np.arange(18, dtype=np.uint8)[:, None]  # the digit and dot slots


def _scaled(ax, s):
    """ax 10^s in long double, s in [-27, 54], by exact powers of ten."""
    up = np.maximum(s, 0)
    first = np.minimum(up, 27)
    y = ax * _POW10[first]
    if up.max() > 27:
        y *= _POW10[up - first]
    if s.min() < 0:
        y /= _POW10[np.maximum(-s, 0)]
    return y


def _g17_slots(x) -> np.ndarray:
    """The text '%.17g' % v of each value v of the float64 vector x, as the
    (_SLOTS, x.size) uint8 array of its slots, one column per value.

    With k = floor(log10 |x|), the 17 significant digits are the integer
    D = round(|x| 10^(16 - k)), D in [10^16, 10^17]; D = 10^17 is 10^16 at
    exponent k + 1. %g prints fixed-point when that exponent e lies in
    [-4, 17) and d.ddd...e+XX otherwise, and drops trailing zeros after the
    dot. The product is taken in long double and is certain to round as the
    exact one does unless it lies within the tolerance of a half-integer (see
    _REL_TOL). Those values, non-finite ones and those with k outside
    [_K_MIN, _K_MAX] take Python's own '%.17g'; zeros are printed here."""
    n = x.size
    ax = np.abs(x)
    finite, zero = np.isfinite(ax), ax == 0
    ax[~finite | zero] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    plain = finite & (k >= _K_MIN) & (k <= _K_MAX)
    ax[~plain] = 1.0
    k[~plain] = 0
    for _ in range(2):  # log10 may put k one off next to a power of ten
        s = 16 - k
        y = _scaled(ax, s)
        hi = y.astype(np.float64)
        # y - hi is exact in long double, and in double too where long double
        # has a 64-bit significand; elsewhere its rounding may reach but not
        # cross a half-integer, where the tolerance test below falls back
        r = (y - hi).astype(np.float64)
        below_r = np.floor(r)
        whole = hi.astype(np.int64) + below_r.astype(np.int64)  # floor(y)
        step = (whole >= 10 ** 17).astype(np.int64) - (whole < 10 ** 16)
        if not step.any():
            break
        k += step
    frac = r - below_r
    tol = hi * _REL_TOL
    tol[s > 27] *= 2  # two roundings
    ok = plain & (step == 0) & (np.abs(frac - 0.5) > tol)
    d = whole + (frac > 0.5)
    d[zero] = 0
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    at = k + carry - _E[0]  # the row of each value's exponent in the _E tables
    at[~ok] = -_E[0]

    # D's digits: its two halves below 10^9 as uint32, nine digits each, so
    # digits[0] is 0 and digits[1:18] are D's; digits[18] stays 0
    halves = np.empty((2, n), np.uint32)
    halves[0] = d // 10 ** 9
    halves[1] = d - halves[0] * np.int64(10 ** 9)
    digits = np.zeros((19, n), np.uint8)
    nines = digits[:18].reshape(2, 9, n)
    for i in range(8, -1, -1):
        tens = halves // 10
        np.subtract(halves, tens * 10, out=nines[:, i], casting="unsafe")
        halves = tens

    point = _POINT[at]
    e = _E[at]
    below = (e < 0) & (e >= -4)  # "0.", -e - 1 zeros, then the digits without a dot
    last = np.maximum(((digits[1:18] != 0) * _BODY[:17]).max(axis=0), point)  # the last digit kept
    dot = np.where((last > point) & ~below, point + 1, 18).astype(np.uint8)
    slots = np.zeros((_SLOTS, n), np.uint8)
    body = slots[6:24]  # digit j in slot j before the dot and in slot j + 1 after it
    np.multiply(digits[1:], _BODY < dot, out=body)
    body += digits[:18] * (_BODY > dot)
    body += (_BODY <= last + (dot <= last)) * np.uint8(48)
    body -= (_BODY == dot) * np.uint8(2)  # '0' - 2 is '.'
    slots[0] = np.signbit(x) * np.uint8(45)
    slots[1:6] = (below & (e <= _PREFIX_E)) * _PREFIX
    for j, chars in enumerate(_EXPONENT, 24):
        slots[j] = chars[at]
    fall = np.flatnonzero(~ok & ~zero)
    if fall.size:
        text = [("%.17g" % v).encode() for v in x[fall].tolist()]
        slots[:-1, fall] = np.array(text, f"S{_SLOTS - 1}").view(np.uint8).reshape(fall.size, -1).T
    return slots


def _write_rows(fh, cols: list):
    """Write the rows of equal-length float columns to the binary file fh,
    each row's fields joined by ',' and ended by '\n'; a column given as None
    is an empty field. Field bytes are '%.17g' % v (what format(v, ".17g")
    prints) from _g17_slots, one call per block of whole rows of at most
    _CELLS values (at least one row), so the temporaries stay bounded."""
    width = len(cols)
    live = [j for j, c in enumerate(cols) if c is not None]
    step = max(1, _CELLS // width)
    for lo in range(0, len(cols[live[0]]), step):
        part = np.column_stack([cols[j][lo:lo + step] for j in live])
        slots = _g17_slots(part.ravel()).reshape(_SLOTS, len(part), len(live))
        if len(live) < width:  # the other fields stay empty
            full = np.zeros((_SLOTS, len(part), width), np.uint8)
            full[:, :, live] = slots
            slots = full
        slots[-1] = ord(",")
        slots[-1, :, -1] = ord("\n")
        fh.write(slots.reshape(_SLOTS, -1).T.tobytes().translate(None, b"\0"))


def _write_samples_csv(path: Path, columns: dict):
    names = list(columns)
    cols = [np.asarray(columns[k], float) for k in names]
    with path.open("wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        # Rows [lo, hi) between two column lengths have the same columns
        # present; a column past its length writes "".
        edges = sorted({0, *(c.size for c in cols)})
        for lo, hi in zip(edges, edges[1:]):
            _write_rows(fh, [c[lo:hi] if c.size > lo else None for c in cols])


_CDF_ROWS = 1025
_ECF_GRID = np.arange(-5.0, 5.0 + 0.25, 0.5)  # symmetric about u = 0


def _write_cdf_csv(path: Path, pair):
    """Both ECDFs at _CDF_ROWS evenly spaced ranks of the pooled sorted
    sample, and at the row where |cdf_a - cdf_b| peaks, so the largest
    difference in the file is the KS statistic of the pair; the counts come
    from the same merge as that statistic."""
    with path.open("wb") as fh:
        fh.write(b"x,cdf_a,cdf_b\n")
        if pair is None:
            return
        grid, last, fa, fb = _pooled_ecdfs(*pair)
        # A row mask, not np.unique: that imports numpy.ma on the run path.
        rows = np.zeros(grid.size, bool)
        rows[np.linspace(0, grid.size - 1, _CDF_ROWS).round().astype(int)] = True
        peak = np.argmax(np.abs(fa - fb))  # the first run of equal values at the peak
        rows[last[peak - 1] + 1 if peak else 0] = True
        at = np.flatnonzero(rows)
        run = np.searchsorted(last, at)  # the run of equal values each row lies in
        _write_rows(fh, [grid[at], fa[run], fb[run]])


def _symmetric_cf(samples, grid) -> np.ndarray:
    """empirical_cf on a grid symmetric about 0, evaluated on u >= 0 only:
    the CF at -u is the conjugate of the CF at u."""
    half = empirical_cf(samples, grid[grid.size // 2:])
    return np.concatenate([half[:0:-1].conj(), half])


def _write_ecf_csv(path: Path, pair, ref_cf):
    grid = _ECF_GRID
    with path.open("wb") as fh:
        fh.write(b"u,emp_re,emp_im,ref_re,ref_im,abs_diff\n")
        if pair is None:
            return
        emp = _symmetric_cf(pair[0], grid)
        ref = (np.asarray(ref_cf(grid), complex) if ref_cf is not None
               else _symmetric_cf(pair[1], grid))
        _write_rows(fh, [grid, emp.real, emp.imag, ref.real, ref.imag,
                         np.array([abs(d) for d in emp - ref])])


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds (mallopt(3)); elsewhere do nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: 4 MiB
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD: 8 MiB


def run(config: dict, out_dir: str | Path | None = None) -> int:
    """Validate the config, run the experiment, then make the output directory
    and write the artifacts; returns the exit status (0 pass, 1 fail)."""
    _fix_malloc_thresholds()
    config = validate_config(config)
    fingerprint = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()
    seed = config["seed"]
    policy = TruncationPolicy(**config.get("policy", {}))
    _, runner = _EXPERIMENTS[config["experiment"]]
    result = runner(config["params"], config["n_samples"], policy, RngStream(seed))

    for r in result.reports:
        r.seed = seed
        r.config_fingerprint = fingerprint
    report_doc = {
        "experiment": config["experiment"],
        "config": config,
        "config_fingerprint": fingerprint,
        "seed": seed,
        "horizon": policy.horizon,
        "reports": [r.to_json_dict() for r in result.reports],
        "extras": {**result.extras, **result.gates},
        "verdict": result.verdict,
    }
    # Made only now, so a run that raises leaves no directory behind.
    out = Path(out_dir if out_dir is not None else config.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report_doc, sort_keys=True, indent=2) + "\n")
    _write_samples_csv(out / "samples.csv", result.samples)
    _write_cdf_csv(out / "cdf.csv", result.primary)
    _write_ecf_csv(out / "ecf.csv", result.primary, result.ref_cf)
    return 0 if result.verdict else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sdlevy")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON config")
    runp.add_argument("--seed", type=int, default=None, help="override config seed")
    runp.add_argument("--out-dir", default=None, help="override output directory")
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if not isinstance(config, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 2
        config["seed"] = args.seed
    try:
        status = run(config, out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, MemoryError) as exc:
        # The config was valid but the run could not finish: not a verdict.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"{config['experiment']}: {'pass' if status == 0 else 'FAIL'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
