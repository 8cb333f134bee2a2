"""Reproducible experiment runner.

Usage: ``sdlevy run --config exp.json [--seed N] [--out-dir D]``

The config is a single JSON document (experiments are data); it is
schema-validated before any computation and unknown fields are rejected.
Each run writes four artifacts to the output directory:

  samples.csv  raw sample columns at full double precision
  report.json  StatReports, extras, verdict, seed and config fingerprint
  cdf.csv      empirical CDF pairs of the primary sample pair, plot-ready
  ecf.csv      characteristic-function grid (empirical vs reference)

Rerunning with the same config and seed on one machine and numpy build
produces byte-identical artifacts.
Exit status: 0 all verdicts pass, 1 a verdict failed, 2 invalid config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from . import decomposition as dec
from .discount import TruncationPolicy, sample_discounted_integral_many
from .errors import ConfigError, SpectralGateError
from .levy import ExponentialJumps, JumpSet, LevyModel
from .operator import (IndependentCoordinates, OperatorModel, operator_decompose_many,
                       sample_operator_integral_many)
from .perpetuity import (BetaGammaAffine, beta_gamma_identity_samples,
                         gamma_factor_samples, sample_backward_series_many,
                         selfdecomposable_as_perpetuity)
from .rng import GammaParams, RngStream, sample_gamma
from .stats import (StatReport, compare_samples, empirical_cf, gamma_cf,
                    independence_diagnostic, independence_pass_band, ks_two_sample)

EXPERIMENTS = (
    "verify-gamma-bdlp",
    "verify-theorem1",
    "verify-corollary2-pathwise",
    "verify-corollary3",
    "verify-prop1",
    "perpetuity-iterate",
    "operator-decompose",
    "null-calibration",
)

_RULE_SCHEMA = {
    "oneOf": [
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "fixed_time"},
                        "t": {"type": "number", "minimum": 0}},
         "required": ["kind", "t"]},
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "first_jump"}}, "required": ["kind"]},
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "first_jump_in"},
                        "threshold": {"type": "number", "exclusiveMinimum": 0}},
         "required": ["kind", "threshold"]},
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "kth_jump"},
                        "k": {"type": "integer", "minimum": 1}},
         "required": ["kind", "k"]},
        {"type": "object", "additionalProperties": False,
         "properties": {"kind": {"const": "independent_exponential"},
                        "rate": {"type": "number", "exclusiveMinimum": 0}},
         "required": ["kind", "rate"]},
    ]
}

# operator_decompose_many has no FirstJumpIn; rejecting it in the schema makes such
# a config invalid (exit 2) instead of a failed run.
_OPERATOR_RULE_SCHEMA = {"oneOf": [r for r in _RULE_SCHEMA["oneOf"]
                                   if r["properties"]["kind"]["const"] != "first_jump_in"]}

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

_PARAMS_SCHEMAS = {
    "verify-gamma-bdlp": {
        "type": "object", "additionalProperties": False,
        "properties": {"alpha": _POSITIVE, "lam": _POSITIVE},
        "required": ["alpha", "lam"],
    },
    "verify-theorem1": {
        "type": "object", "additionalProperties": False,
        "properties": {"alpha": _POSITIVE, "lam": _POSITIVE},
        "required": ["alpha", "lam"],
    },
    "verify-corollary2-pathwise": {
        "type": "object", "additionalProperties": False,
        "properties": {"alpha": _POSITIVE, "lam": _POSITIVE, "rule": _RULE_SCHEMA},
        "required": ["alpha", "lam", "rule"],
    },
    "verify-corollary3": {
        "type": "object", "additionalProperties": False,
        "properties": {"alpha": _POSITIVE, "lam": _POSITIVE,
                       "set_threshold": _POSITIVE},
        "required": ["alpha", "lam", "set_threshold"],
    },
    "verify-prop1": {
        "type": "object", "additionalProperties": False,
        "properties": {"alphas": {"type": "array", "items": _POSITIVE, "minItems": 1},
                       "lam": _POSITIVE},
        "required": ["alphas", "lam"],
    },
    "perpetuity-iterate": {
        "type": "object", "additionalProperties": False,
        "properties": {"driver": {"enum": ["gamma", "gaussian"]},
                       "alpha": _POSITIVE, "lam": _POSITIVE, "sigma2": _POSITIVE,
                       "n_steps": {"type": "integer", "minimum": 1}},
        "required": ["driver"],
    },
    "operator-decompose": {
        "type": "object", "additionalProperties": False,
        "properties": {
            "q": {"type": "array",
                  "items": {"type": "array", "items": {"type": "number"}}},
            "coords": {"type": "array", "minItems": 1, "items": {
                "type": "object", "additionalProperties": False,
                "properties": {"jump_rate": _POSITIVE, "exp_jump_rate": _POSITIVE,
                               "drift": {"type": "number"}},
                "required": ["jump_rate", "exp_jump_rate"],
            }},
            "rule": _OPERATOR_RULE_SCHEMA,
            "n_records": {"type": "integer", "minimum": 100},
        },
        "required": ["q", "coords"],
    },
    "null-calibration": {
        "type": "object", "additionalProperties": False,
        "properties": {"alpha": _POSITIVE, "lam": _POSITIVE,
                       "n_pairs": {"type": "integer", "minimum": 1}},
        "required": ["alpha", "lam"],
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "seed": {"type": "integer", "minimum": 0},
        "n_samples": {"type": "integer", "minimum": 200},
        "policy": {
            "type": "object", "additionalProperties": False,
            "properties": {"horizon": _POSITIVE},
        },
        "params": {"type": "object"},
        "out_dir": {"type": "string"},
    },
    "required": ["experiment", "seed", "n_samples", "params"],
}


def validate_config(doc: dict) -> dict:
    try:
        jsonschema.validate(doc, CONFIG_SCHEMA)
        jsonschema.validate(doc["params"], _PARAMS_SCHEMAS[doc["experiment"]])
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    return doc


def _parse_rule(doc: dict) -> dec.StoppingRule:
    kind = doc["kind"]
    if kind == "fixed_time":
        return dec.FixedTime(doc["t"])
    if kind == "first_jump":
        return dec.FirstJump()
    if kind == "first_jump_in":
        return dec.FirstJumpIn(JumpSet("ge", doc["threshold"]))
    if kind == "kth_jump":
        return dec.KthJump(doc["k"])
    return dec.IndependentRandomTime(ExponentialJumps(doc["rate"]))


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    verdict: bool
    reports: list[StatReport] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)      # name -> 1-d array
    primary: tuple | None = None                     # (a, b) for cdf.csv
    ref_cf: Callable | None = None


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
        verdict=report.verdict, reports=[report],
        samples={"discounted_integral": integ, "direct_gamma": direct},
        primary=(integ, direct), ref_cf=gamma_cf(alpha, lam),
    )


def _run_theorem1(params, n, policy, stream) -> ExperimentResult:
    alpha, lam = params["alpha"], params["lam"]
    model = _gamma_model(alpha, lam)
    s_rec, s_gamma = stream.split(2)
    rec = dec.decompose_many(model, dec.FirstJump(), policy, n, s_rec)
    rel = rec.residual / (1.0 + np.abs(rec.x_total))
    direct = sample_gamma(GammaParams(alpha, lam), s_gamma, size=n)
    r_total = compare_samples("x_total_vs_direct", rec.x_total, direct)
    r_prime = compare_samples("x_prime_vs_direct", rec.x_prime, direct)
    band = independence_pass_band(n)
    d1 = independence_diagnostic(rec.x_tau, rec.x_prime)
    d2 = independence_diagnostic(rec.discount, rec.x_prime)
    extras = {
        "independence_x_tau_x_prime": d1,
        "independence_discount_x_prime": d2,
        "independence_band": band,
        "independence_pass": bool(d1 <= band and d2 <= band),
        "max_relative_residual": float(rel.max()),
    }
    verdict = r_total.verdict and r_prime.verdict and extras["independence_pass"]
    return ExperimentResult(
        verdict=verdict, reports=[r_total, r_prime], extras=extras,
        samples={"tau": rec.tau, "x_tau": rec.x_tau, "discount": rec.discount,
                 "x_prime": rec.x_prime, "x_total": rec.x_total},
        primary=(rec.x_total, direct), ref_cf=gamma_cf(alpha, lam),
    )


def _run_corollary2(params, n, policy, stream) -> ExperimentResult:
    model = _gamma_model(params["alpha"], params["lam"])
    rule = _parse_rule(params["rule"])
    rec = dec.decompose_many(model, rule, policy, n, stream)
    rel = rec.residual / (1.0 + np.abs(rec.x_total))
    verdict = bool(np.all(rel <= 1e-10))
    return ExperimentResult(
        verdict=verdict,
        extras={"max_relative_residual": float(rel.max()),
                "residual_tolerance": 1e-10, "n_records": int(rec.tau.size)},
        samples={"tau": rec.tau, "x_tau": rec.x_tau, "discount": rec.discount,
                 "x_prime": rec.x_prime, "x_total": rec.x_total,
                 "residual": rec.residual},
        primary=(rec.x_total, rec.x_prime),
    )


def _run_corollary3(params, n, policy, stream) -> ExperimentResult:
    alpha, lam = params["alpha"], params["lam"]
    model = _gamma_model(alpha, lam)
    jump_set = JumpSet("ge", params["set_threshold"])
    s_first, s_restr, s_gamma = stream.split(3)
    first = dec.first_value_identity(model, policy, n, s_first)
    restricted = dec.restricted_jump_identity(model, jump_set, policy, n, s_restr)
    direct = sample_gamma(GammaParams(alpha, lam), s_gamma, size=n)
    report = compare_samples("first_value_lhs_vs_direct", first.lhs, direct)
    band = independence_pass_band(n)
    diag = independence_diagnostic(first.discount, first.shifted_integral)
    rel1 = float(np.max(first.residual / (1.0 + np.abs(first.lhs))))
    rel2 = float(np.max(restricted.residual / (1.0 + np.abs(restricted.lhs))))
    extras = {
        "max_relative_residual_first_value": rel1,
        "max_relative_residual_restricted": rel2,
        "independence_discount_shifted": diag,
        "independence_band": band,
        "pathwise_pass": bool(rel1 <= 1e-10 and rel2 <= 1e-10),
        "independence_pass": bool(diag <= band),
    }
    verdict = report.verdict and extras["pathwise_pass"] and extras["independence_pass"]
    return ExperimentResult(
        verdict=verdict, reports=[report], extras=extras,
        samples={"lhs": first.lhs, "rhs": first.rhs,
                 "restricted_lhs": restricted.lhs, "restricted_rhs": restricted.rhs},
        primary=(first.lhs, direct), ref_cf=gamma_cf(alpha, lam),
    )


def _run_prop1(params, n, policy, stream) -> ExperimentResult:
    lam = params["lam"]
    reports = []
    samples = {}
    primary = None
    for alpha in params["alphas"]:
        s_bg, s_fac, s_ref = stream.split(3)
        lhs, rhs = beta_gamma_identity_samples(alpha, lam, n, s_bg)
        reports.append(compare_samples(f"beta_gamma_alpha_{alpha:g}", lhs, rhs))
        factor = gamma_factor_samples(alpha, lam, n, s_fac, discount="first_jump")
        direct = sample_gamma(GammaParams(alpha, lam), s_ref, size=n)
        reports.append(compare_samples(f"first_jump_factor_alpha_{alpha:g}",
                                       direct, factor))
        samples[f"beta_gamma_lhs_{alpha:g}"] = lhs
        samples[f"beta_gamma_rhs_{alpha:g}"] = rhs
        samples[f"factor_form_{alpha:g}"] = factor
        if primary is None:
            primary = (lhs, rhs)
    verdict = all(r.verdict for r in reports)
    return ExperimentResult(verdict=verdict, reports=reports,
                            samples=samples, primary=primary)


def _run_perpetuity(params, n, policy, stream) -> ExperimentResult:
    n_steps = params.get("n_steps", 200)
    if params["driver"] == "gamma":
        alpha = params.get("alpha", 2.0)
        lam = params.get("lam", 1.0)
        model = _gamma_model(alpha, lam)
    else:
        model = LevyModel(gauss_var=params.get("sigma2", 1.0))
    s_perp, s_series, s_gamma = stream.split(3)
    report = selfdecomposable_as_perpetuity(model, policy, n, s_perp,
                                            n_steps=n_steps)
    reports = [report]
    samples: dict = {}
    if params["driver"] == "gamma":
        series = sample_backward_series_many(BetaGammaAffine(alpha, lam),
                                             1e-12, n, s_series)
        direct = sample_gamma(GammaParams(alpha, lam), s_gamma, size=n)
        reports.append(compare_samples("backward_series_vs_direct", series, direct))
        samples["backward_series"] = series
        samples["direct_gamma"] = direct
        primary = (series, direct)
        ref = gamma_cf(alpha, lam)
    else:
        primary = None
        ref = None
    verdict = all(r.verdict for r in reports)
    return ExperimentResult(verdict=verdict, reports=reports, samples=samples,
                            primary=primary, ref_cf=ref)


def _run_operator(params, n, policy, stream) -> ExperimentResult:
    q = np.asarray(params["q"], float)
    models = tuple(
        LevyModel(jump_rate=c["jump_rate"],
                  jump_law=ExponentialJumps(c["exp_jump_rate"]),
                  drift=c.get("drift", 0.0))
        for c in params["coords"]
    )
    model = OperatorModel(q, IndependentCoordinates(models))
    rule = _parse_rule(params.get("rule", {"kind": "first_jump"}))
    n_records = params.get("n_records", 2000)
    s_rec, s_mean = stream.split(2)
    rec = operator_decompose_many(model, rule, policy, n_records, s_rec)
    rel = rec.residual / (1.0 + np.linalg.norm(rec.x_total, axis=1))
    draws = sample_operator_integral_many(model, policy, n, s_mean)
    target = model.mean_integral()
    se = draws.std(axis=0) / np.sqrt(n)
    mean_gap = np.abs(draws.mean(axis=0) - target)
    mean_ok = bool(np.all(mean_gap <= 3.0 * se))
    # Spectral gate negative control: a singular Q must be rejected.
    try:
        OperatorModel(np.zeros_like(q), IndependentCoordinates(models))
        gate_ok = False
    except SpectralGateError:
        gate_ok = True
    x_total = rec.x_total
    reports = [
        compare_samples(f"x_total_coord{i}_vs_integral", x_total[:, i], draws[:n_records, i])
        for i in range(model.dimension)
    ]
    extras = {
        "max_relative_residual": float(rel.max()),
        "residual_tolerance": 1e-9,
        "pathwise_pass": bool(np.all(rel <= 1e-9)),
        "mean_identity_pass": mean_ok,
        "mean_gap": mean_gap.tolist(),
        "mean_band_3se": (3.0 * se).tolist(),
        "spectral_gate_rejects_singular": gate_ok,
    }
    verdict = (extras["pathwise_pass"] and mean_ok and gate_ok
               and all(r.verdict for r in reports))
    samples = {f"x_total_{i}": x_total[:, i] for i in range(model.dimension)}
    samples.update({f"integral_{i}": draws[:, i] for i in range(model.dimension)})
    return ExperimentResult(verdict=verdict, reports=reports, extras=extras,
                            samples=samples,
                            primary=(x_total[:, 0], draws[:n_records, 0]))


def _run_null_calibration(params, n, policy, stream) -> ExperimentResult:
    alpha, lam = params["alpha"], params["lam"]
    n_pairs = params.get("n_pairs", 100)
    failures = 0
    last = None
    for s in stream.split(n_pairs):
        s1, s2 = s.split(2)
        a = sample_gamma(GammaParams(alpha, lam), s1, size=n)
        b = sample_gamma(GammaParams(alpha, lam), s2, size=n)
        _, _, ok = ks_two_sample(a, b, significance=0.001)
        failures += 0 if ok else 1
        last = (a, b)
    # Negative controls must fail as designed.
    s1, s2 = stream.split(2)
    a = sample_gamma(GammaParams(alpha, lam), s1, size=n)
    shifted = sample_gamma(GammaParams(alpha + 0.2, lam), s2, size=n)
    _, _, shifted_passes = ks_two_sample(a, shifted, significance=0.001)
    dep = independence_diagnostic(a, a)
    controls_ok = (not shifted_passes) and dep > independence_pass_band(n)
    extras = {
        "n_pairs": n_pairs,
        "null_failures": failures,
        "max_null_failures": 1,
        "shifted_law_detected": bool(not shifted_passes),
        "dependence_detected": bool(dep > independence_pass_band(n)),
    }
    verdict = failures <= 1 and controls_ok
    return ExperimentResult(verdict=verdict, extras=extras,
                            samples={"sample_a": last[0], "sample_b": last[1]},
                            primary=last, ref_cf=gamma_cf(alpha, lam))


_RUNNERS = {
    "verify-gamma-bdlp": _run_gamma_bdlp,
    "verify-theorem1": _run_theorem1,
    "verify-corollary2-pathwise": _run_corollary2,
    "verify-corollary3": _run_corollary3,
    "verify-prop1": _run_prop1,
    "perpetuity-iterate": _run_perpetuity,
    "operator-decompose": _run_operator,
    "null-calibration": _run_null_calibration,
}


# ---------------------------------------------------------------------------
# Artifact writers (full double precision, deterministic layout)
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_rows(fh, row_fmt: str, cols: list):
    """Write the rows of equal-length float columns through row_fmt, one '%'
    call per block of 4096 rows ('%.17g' prints what format(v, ".17g") does)."""
    rows = np.column_stack(cols)
    for lo in range(0, len(rows), 4096):
        part = rows[lo:lo + 4096]
        fh.write((row_fmt * len(part)) % tuple(part.ravel().tolist()))


def _write_samples_csv(path: Path, columns: dict):
    names = list(columns)
    cols = [np.asarray(columns[k], float) for k in names]
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        # Rows [lo, hi) between two column lengths have the same columns
        # present; a column past its length writes "".
        edges = sorted({0, *(c.size for c in cols)})
        for lo, hi in zip(edges, edges[1:]):
            live = [c.size > lo for c in cols]
            row_fmt = ",".join("%.17g" if on else "" for on in live) + "\n"
            _write_rows(fh, row_fmt, [c[lo:hi] for c, on in zip(cols, live) if on])


def _write_cdf_csv(path: Path, pair):
    with path.open("w", newline="\n") as fh:
        fh.write("x,cdf_a,cdf_b\n")
        if pair is None:
            return
        a = np.sort(np.asarray(pair[0], float))
        b = np.sort(np.asarray(pair[1], float))
        grid = np.sort(np.concatenate([a, b]))
        fa = np.searchsorted(a, grid, side="right") / a.size
        fb = np.searchsorted(b, grid, side="right") / b.size
        _write_rows(fh, "%.17g,%.17g,%.17g\n", [grid, fa, fb])


def _write_ecf_csv(path: Path, pair, ref_cf):
    grid = np.arange(-5.0, 5.0 + 0.25, 0.5)
    with path.open("w", newline="\n") as fh:
        fh.write("u,emp_re,emp_im,ref_re,ref_im,abs_diff\n")
        if pair is None:
            return
        emp = empirical_cf(pair[0], grid)
        ref = (np.asarray(ref_cf(grid), complex) if ref_cf is not None
               else empirical_cf(pair[1], grid))
        for u, e, r in zip(grid, emp, ref):
            fh.write(",".join(_fmt(v) for v in
                              (u, e.real, e.imag, r.real, r.imag, abs(e - r))) + "\n")


def run(config: dict, out_dir: str | Path | None = None) -> int:
    """Validate the config, run the experiment, write artifacts; returns the
    exit status (0 pass, 1 fail)."""
    config = validate_config(config)
    fingerprint = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()
    out = Path(out_dir if out_dir is not None else config.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)

    seed = config["seed"]
    n = config["n_samples"]
    pol = config.get("policy", {})
    policy = TruncationPolicy(horizon=pol.get("horizon", 40.0))
    stream = RngStream(seed)
    result = _RUNNERS[config["experiment"]](config["params"], n, policy, stream)

    for r in result.reports:
        r.seed = seed
        r.config_fingerprint = fingerprint
    report_doc = {
        "experiment": config["experiment"],
        "config": config,
        "config_fingerprint": fingerprint,
        "seed": seed,
        "reports": [r.to_json_dict() for r in result.reports],
        "extras": result.extras,
        "verdict": result.verdict,
    }
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
    except (ValueError, RuntimeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"{config['experiment']}: {'pass' if status == 0 else 'FAIL'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
