"""Config validation, experiment runners, artifacts, and exit codes."""

import copy
import dataclasses
import json
import math
import os
import platform
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from sdlevy import cli, decomposition, discount, operator, perpetuity
from sdlevy.cli import (_CDF_ROWS, _ECF_GRID, _EXPERIMENTS, _PAIRED, _RULES,
                        _TYPES, CONFIG_SCHEMA, EXPERIMENTS, _errors, _g17_slots, _parse_rule,
                        _symmetric_cf, _write_samples_csv, main, run, validate_config)
from sdlevy.decomposition import DecompositionRecord, FixedTime, IndependentRandomTime, KthJump
from sdlevy.discount import TAIL_TOL, TruncationPolicy
from sdlevy.errors import ConfigError, ContractionError
from sdlevy.levy import ExponentialJumps, JumpSet
from sdlevy.operator import OperatorDecompositionRecord
from sdlevy.rng import RngStream
from sdlevy.stats import MIN_PAIRED_SAMPLES, empirical_cf, ks_two_sample

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def _config(experiment, params, n=400, seed=7, **extra):
    doc = {"experiment": experiment, "seed": seed, "n_samples": n,
           "params": params}
    doc.update(extra)
    return doc


SMALL_CONFIGS = {
    "verify-gamma-bdlp": _config("verify-gamma-bdlp", {"alpha": 2.0, "lam": 1.0},
                                 n=2000),
    "verify-theorem1": _config("verify-theorem1", {"alpha": 2.0, "lam": 1.0},
                               n=2000),
    "verify-corollary2-pathwise": _config(
        "verify-corollary2-pathwise",
        {"alpha": 2.0, "lam": 1.0, "rule": {"kind": "kth_jump", "k": 3}}, n=1200),
    "verify-corollary3": _config("verify-corollary3",
                                 {"alpha": 2.0, "lam": 1.0, "set_threshold": 1.0},
                                 n=1200),
    "verify-prop1": _config("verify-prop1", {"alphas": [0.5, 2.0], "lam": 1.0},
                            n=2000),
    "perpetuity-iterate": _config("perpetuity-iterate",
                                  {"driver": "gamma", "alpha": 2.0, "lam": 1.0},
                                  n=2000),
    "operator-decompose": _config(
        "operator-decompose",
        {"q": [[1.0, 0.0], [0.0, 2.0]],
         "coords": [{"jump_rate": 2.0, "exp_jump_rate": 1.0},
                    {"jump_rate": 1.0, "exp_jump_rate": 2.0, "drift": 0.3}],
         "rule": {"kind": "first_jump"}, "n_records": 400}, n=2000),
    "null-calibration": _config("null-calibration",
                                {"alpha": 2.0, "lam": 1.0, "n_pairs": 20}, n=2000),
}


_SCHEMAS = (CONFIG_SCHEMA, *(schema for schema, _ in _EXPERIMENTS.values()))
# The keywords cli._errors implements ("then" is applied by "if").
_IMPLEMENTED = {"type", "enum", "const", "minimum", "maximum", "exclusiveMinimum", "minItems",
                "items", "uniqueItems", "properties", "required", "additionalProperties", "allOf",
                "if", "then"}


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for key, value in schema.items():
        if key in ("items", "if", "then"):
            yield from _subschemas(value)
        elif key in ("properties", "allOf"):
            for sub in (value.values() if key == "properties" else value):
                yield from _subschemas(sub)


_FIELD_NAMES = sorted({name for schema in _SCHEMAS for sub in _subschemas(schema)
                       for name in sub.get("properties", ())} | {"bogus"})
_VALUES = [None, True, False, 0, 1, -1, 3, 99, 100, 199, 200, 999, 1000, 2000, 0.0, 0.5, 1.0,
           -2.5, 3.0,
           100.0, 2000.0, 1e-300, 1e300, 2**64 - 1, 2**64, math.nan, math.inf, -math.inf,
           "", "x", "gamma", "gaussian", *EXPERIMENTS, *_RULES,
           [], [1.0], [0.0, 2.0], [2.0, 2.0], [1, 1.0], [True, 1], [0.5, 2.0, 0.5],
           [math.nan, math.nan],
           [[1.0, 0.0], [0.0, 2.0]], [[1.0, "x"]], [{}], {},
           {"kind": "first_jump"}, {"kind": "kth_jump", "k": 0}, {"kind": "fixed_time", "t": -1},
           {"kind": "first_jump_in"}, {"kind": "bogus"}, {"horizon": 0},
           {"jump_rate": 1.0, "exp_jump_rate": 2.0}, {"jump_rate": 1.0, "drift": 1}]


def _nodes(doc, path=()):
    """(path, value) of ``doc`` and of every value nested in it."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _mutated_configs(rng: random.Random, n: int):
    """The shipped and small configs, then ``n`` copies of them with one to
    three random edits each: a field dropped, a field added, a list item
    appended, or a value (a field, a tag, a nested rule, the whole document)
    swapped for another of any type."""
    bases = [json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))]
    bases += list(SMALL_CONFIGS.values())
    yield from bases
    for _ in range(n):
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            path, node = rng.choice(list(_nodes(doc)))
            value = copy.deepcopy(rng.choice(_VALUES))
            op = rng.choice(("drop", "add", "swap", "swap"))
            if op == "drop" and isinstance(node, dict) and node:
                del node[rng.choice(list(node))]
            elif op == "add" and isinstance(node, dict):
                node[rng.choice(_FIELD_NAMES)] = value
            elif op == "add" and isinstance(node, list):
                node.append(value)
            elif not path:
                doc = value
            else:
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
        yield doc


class TestValidation:
    def test_all_experiments_covered(self):
        assert set(SMALL_CONFIGS) == set(EXPERIMENTS)

    def test_valid_configs_pass(self):
        for doc in SMALL_CONFIGS.values():
            validate_config(dict(doc))

    def test_shipped_configs_valid(self):
        # a schema edit must not silently break an example config
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert paths
        for path in paths:
            validate_config(json.loads(path.read_text()))

    def test_unknown_top_level_field(self):
        doc = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        doc["bogus"] = 1
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_unknown_param_field(self):
        doc = json.loads(json.dumps(SMALL_CONFIGS["verify-gamma-bdlp"]))
        doc["params"]["extra"] = 1
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            validate_config({"experiment": "verify-gamma-bdlp", "seed": 1,
                             "params": {"alpha": 1.0, "lam": 1.0}})

    def test_bad_rule(self):
        doc = json.loads(json.dumps(SMALL_CONFIGS["verify-corollary2-pathwise"]))
        doc["params"]["rule"] = {"kind": "kth_jump"}  # k missing
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_rule_table(self):
        # each rule kind parses to its class with its fields; a kind outside
        # the table is a schema violation, never a fallback rule
        docs = {"fixed_time": ({"t": 0.5}, FixedTime(0.5)),
                "first_jump": ({}, KthJump()),
                "first_jump_in": ({"threshold": 2.0}, KthJump(1, JumpSet(2.0))),
                "kth_jump": ({"k": 3}, KthJump(3)),
                "independent_exponential": (
                    {"rate": 1.5}, IndependentRandomTime(ExponentialJumps(1.5)))}
        assert set(docs) == set(_RULES)
        for kind, (fields, rule) in docs.items():
            doc = json.loads(json.dumps(SMALL_CONFIGS["verify-corollary2-pathwise"]))
            doc["params"]["rule"] = {"kind": kind, **fields}
            validate_config(doc)
            assert _parse_rule(doc["params"]["rule"]) == rule
        doc["params"]["rule"] = {"kind": "last_jump"}
        with pytest.raises(ConfigError):
            validate_config(doc)

    def test_perpetuity_fields_of_the_other_driver_rejected(self, tmp_path):
        # each driver takes only its own fields: an alpha on the gaussian
        # driver or a sigma2 on the gamma driver is never silently dropped
        for params in ({"driver": "gaussian", "alpha": 3.0},
                       {"driver": "gamma", "sigma2": 4.0}):
            doc = _config("perpetuity-iterate", params)
            path = tmp_path / "config.json"
            path.write_text(json.dumps(doc))
            assert main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_violation_names_the_field_of_the_chosen_branch(self):
        # a tagged schema reports the offending field of the branch its tag
        # names, never the tag of another branch
        cases = [("perpetuity-iterate", {"driver": "gaussian", "alpha": 3.0},
                  "'alpha' was unexpected"),
                 ("perpetuity-iterate", {"driver": "gamma", "n_steps": 0},
                  "0 is less than the minimum of 1"),
                 ("verify-corollary2-pathwise",
                  {"alpha": 2.0, "lam": 1.0, "rule": {"kind": "kth_jump", "k": 0}},
                  "0 is less than the minimum of 1")]
        for experiment, params, message in cases:
            with pytest.raises(ConfigError, match=re.escape(message)):
                validate_config(_config(experiment, params))

    def test_schemas_are_valid(self):
        # validate_config interprets the schemas without a metaschema check;
        # this is that check
        for schema in _SCHEMAS:
            jsonschema.Draft202012Validator.check_schema(schema)

    def test_schemas_use_only_implemented_keywords(self):
        # _errors ignores a keyword it does not implement, so a later schema
        # edit such as a "maximum" would otherwise go unchecked without notice
        for sub in (sub for schema in _SCHEMAS for sub in _subschemas(schema)):
            assert set(sub) <= _IMPLEMENTED, sub
            assert sub.get("type", "object") in _TYPES, sub
            assert all(isinstance(v, str) for v in sub.get("enum", [])), sub
            assert isinstance(sub.get("const", ""), str), sub
            assert sub.get("additionalProperties", False) is False, sub
            assert sub.get("uniqueItems", True) is True, sub
            assert ("if" in sub) == ("then" in sub), sub

    def test_errors_match_the_reference_validator(self):
        # a seeded corpus of mutated configs: _errors yields exactly the
        # reference validator's messages in its order, so it accepts and
        # rejects alike and validate_config's message is one the reference
        # reports; the reference is draft 2020-12 with integer meaning a JSON
        # integer and number a finite JSON number
        oracle = jsonschema.validators.extend(
            jsonschema.Draft202012Validator,
            type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
                "integer": lambda _, doc: isinstance(doc, int) and not isinstance(doc, bool),
                "number": lambda _, doc: (isinstance(doc, (int, float))
                                          and not isinstance(doc, bool)
                                          and math.isfinite(doc))}))
        validators = {id(schema): oracle(schema) for schema in _SCHEMAS}
        counts = {"accepted": 0, "rejected": 0}
        for doc in _mutated_configs(random.Random(15), 10_000):
            pairs = [(CONFIG_SCHEMA, doc)]
            experiment = doc.get("experiment") if isinstance(doc, dict) else None
            if isinstance(experiment, str) and experiment in _EXPERIMENTS and "params" in doc:
                pairs.append((_EXPERIMENTS[experiment][0], doc["params"]))
            for schema, instance in pairs:
                expected = [e.message for e in validators[id(schema)].iter_errors(instance)]
                assert list(_errors(schema, instance)) == expected, instance
                counts["rejected" if expected else "accepted"] += 1
        assert min(counts.values()) >= 2_000, counts

    def test_n_samples_floor(self):
        doc = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        doc["n_samples"] = 50
        with pytest.raises(ConfigError):
            validate_config(doc)

    @pytest.mark.parametrize("name", _PAIRED)
    def test_independence_gate_floor(self, name, tmp_path, capsys):
        # an independence gate needs MIN_PAIRED_SAMPLES pairs: one fewer is
        # an invalid config (exit 2, no output directory), not a run that raises
        doc = {**SMALL_CONFIGS[name], "n_samples": MIN_PAIRED_SAMPLES}
        validate_config(doc)
        doc["n_samples"] = MIN_PAIRED_SAMPLES - 1
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "999 is less than the minimum of 1000" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunners:
    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_small_run_passes(self, name, tmp_path):
        out = tmp_path / name
        status = run(dict(SMALL_CONFIGS[name]), out_dir=out)
        assert status == 0
        for artifact in ("report.json", "samples.csv", "cdf.csv", "ecf.csv"):
            assert (out / artifact).exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] is True
        assert doc["experiment"] == name
        assert len(doc["config_fingerprint"]) == 64
        # no small config sets policy.horizon, so each ran the default T
        assert doc["horizon"] == TruncationPolicy().horizon == -math.log(TAIL_TOL)
        # the verdict is every report's verdict and every gate in extras
        assert doc["verdict"] == (all(r["verdict"] for r in doc["reports"])
                                  and all(v for v in doc["extras"].values()
                                          if isinstance(v, bool)))
        # a report's verdict reads KS and its two moment bands, nothing else;
        # every other check is a named gate in extras
        for r in doc["reports"]:
            assert set(r["diagnostics"]) == {"ks_pass", "mean_within_3se", "var_within_3se"}
        if name == "perpetuity-iterate":
            assert doc["extras"]["discount_in_unit_interval"] is True
            assert doc["extras"]["discount_nondegenerate"] is True

    @pytest.mark.parametrize("driver", ["gamma", "gaussian"])
    def test_perpetuity_extras_state_the_series_terms(self, driver, tmp_path):
        # report.json states the tail tolerance, the cap on terms (n_steps)
        # and the terms each series used, none of them a gate; a cap of the
        # largest reported count still passes, and one term less exits 3
        doc = _config("perpetuity-iterate", {"driver": driver, "n_steps": 150}, n=2000)
        assert run(copy.deepcopy(doc), out_dir=tmp_path / "run") == 0
        extras = json.loads((tmp_path / "run" / "report.json").read_text())["extras"]
        counts = ["fixed_point_terms"] + ["backward_series_terms"] * (driver == "gamma")
        assert set(extras) == {"tail_tol", "max_terms", "discount_in_unit_interval",
                               "discount_nondegenerate", *counts}
        assert extras["tail_tol"] == TAIL_TOL and extras["max_terms"] == 150
        assert all(type(extras[k]) is int and 0 < extras[k] <= 150 for k in counts)
        doc["params"]["n_steps"] = max(extras[k] for k in counts)
        assert run(copy.deepcopy(doc), out_dir=tmp_path / "at_cap") == 0
        doc["params"]["n_steps"] -= 1
        with pytest.raises(ContractionError):
            run(doc, out_dir=tmp_path / "below_cap")

    def test_pathwise_residual_fails_every_record_experiment(self, monkeypatch, tmp_path):
        # a relative residual above its record class's TOLERANCE must fail
        # the run; verify-theorem1 gates its residual like the others
        for cls in (DecompositionRecord, OperatorDecompositionRecord):
            monkeypatch.setattr(cls, "relative_residual", property(
                lambda rec: np.full(rec.tau.shape, 2.0 * rec.TOLERANCE)))
        for name in ("verify-theorem1", "verify-corollary2-pathwise",
                     "verify-corollary3", "operator-decompose"):
            assert run(dict(SMALL_CONFIGS[name]), out_dir=tmp_path / name) == 1, name
            doc = json.loads((tmp_path / name / "report.json").read_text())
            assert doc["verdict"] is False
            assert doc["extras"]["pathwise_pass"] is False

    @pytest.mark.parametrize("kind", sorted(_RULES))
    def test_theorem1_under_every_rule(self, kind, tmp_path):
        # verify-corollary2-pathwise is verify-theorem1 under its rule: x_total
        # and x_prime against direct gamma draws, and tau against its exact
        # law under every rule but a fixed time, where it is not random
        fields = {"fixed_time": {"t": 0.7}, "first_jump_in": {"threshold": 1.0},
                  "kth_jump": {"k": 3}, "independent_exponential": {"rate": 1.0}}
        doc = json.loads(json.dumps(SMALL_CONFIGS["verify-corollary2-pathwise"]))
        doc["params"]["rule"] = {"kind": kind, **fields.get(kind, {})}
        assert run(doc, out_dir=tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        names = ["x_total_vs_direct", "x_prime_vs_direct"]
        assert [r["name"] for r in report["reports"]] == (
            names if kind == "fixed_time" else [*names, "tau_vs_exact_law"])
        assert report["extras"]["independence_pass"] and report["extras"]["pathwise_pass"]

    def test_tau_report_catches_a_rank_off_by_one(self, monkeypatch, tmp_path):
        # a stopping engine that takes the (k+1)-th jump where the block holds
        # it still satisfies the factorization (X' restarts at any jump), so
        # only tau's exact law can tell: every other report and gate passes
        kth_times = decomposition._kth_times
        monkeypatch.setattr(decomposition, "_kth_times", lambda owner, times, count, rank, rows:
                            kth_times(owner, times, count, np.minimum(rank + 1, count[rows]),
                                      rows))
        assert run(dict(SMALL_CONFIGS["verify-corollary2-pathwise"]), out_dir=tmp_path) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert {r["name"]: r["verdict"] for r in report["reports"]} == {
            "x_total_vs_direct": True, "x_prime_vs_direct": True, "tau_vs_exact_law": False}
        assert all(v for v in report["extras"].values() if isinstance(v, bool))

    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_artifacts_byte_identical(self, name, tmp_path):
        cfg = SMALL_CONFIGS[name]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(dict(cfg), out_dir=out1)
        run(dict(cfg), out_dir=out2)
        for artifact in ("report.json", "samples.csv", "cdf.csv", "ecf.csv"):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()

    @pytest.mark.parametrize("alphas, tags", [([0.5, 1.0, 2.0], ["0.5", "1", "2"]),
                                              ([1.0, 1.0000001], ["1", "1.0000001"]),
                                              ([2, 1e-05], ["2", "1e-05"])])
    def test_prop1_names_every_alpha_apart(self, tmp_path, alphas, tags):
        # each alpha is named by its shortest round-trip repr less a trailing
        # ".0": the shipped names 0.5, 1 and 2 stay, and alphas that print
        # alike at "%g" keep their own columns and reports
        doc = json.loads(json.dumps(SMALL_CONFIGS["verify-prop1"]))
        doc["params"]["alphas"] = alphas
        run(doc, out_dir=tmp_path)
        reports = json.loads((tmp_path / "report.json").read_text())["reports"]
        assert [r["name"] for r in reports] == [
            f"{kind}_alpha_{tag}" for tag in tags for kind in ("beta_gamma", "first_jump_factor")]
        header = (tmp_path / "samples.csv").read_text().split("\n", 1)[0]
        assert header.split(",") == [f"{column}_{tag}" for tag in tags for column in
                                     ("beta_gamma_lhs", "beta_gamma_rhs", "factor_form")]

    def test_report_states_an_explicit_horizon(self, tmp_path):
        # policy.horizon is honoured: report.json states it, and it moves the
        # draws of a run that truncates at T
        doc = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        run(dict(doc), out_dir=tmp_path / "default")
        run({**doc, "policy": {"horizon": 40.0}}, out_dir=tmp_path / "forty")
        assert json.loads((tmp_path / "forty" / "report.json").read_text())["horizon"] == 40.0
        assert ((tmp_path / "default" / "samples.csv").read_bytes()
                != (tmp_path / "forty" / "samples.csv").read_bytes())

    @pytest.mark.parametrize("q, rule, exact", [
        ([[1.0, 0.0], [0.0, 2.0]], {"kind": "first_jump"}, True),
        ([[1.0, -0.5], [0.5, 1.5]], {"kind": "first_jump_in", "threshold": 1.0}, False),
        ([[2.0, 1.0], [0.0, 1.0]], {"kind": "fixed_time", "t": 0.7}, False),
    ], ids=["diagonal", "rotating_first_jump_in", "coupled_fixed_time"])
    def test_operator_reports(self, q, rule, exact, tmp_path):
        # per coordinate x_total and X' against the integral, tau against its
        # exact law unless it is a fixed time, and for a diagonal Q each
        # integral coordinate against its closed-form gamma law
        doc = json.loads(json.dumps(SMALL_CONFIGS["operator-decompose"]))
        doc["params"].update(q=q, rule=rule)
        assert run(doc, out_dir=tmp_path) == 0
        names = [r["name"] for r in json.loads((tmp_path / "report.json").read_text())["reports"]]
        assert names == [*(f"{x}_coord{i}_vs_integral" for x in ("x_total", "x_prime")
                           for i in (0, 1)),
                         *["tau_vs_exact_law"] * (rule["kind"] != "fixed_time"),
                         *(f"integral_coord{i}_vs_exact_gamma" for i in (0, 1) if exact)]

    def test_operator_reports_catch_a_look_ahead_time(self, monkeypatch, tmp_path):
        # tau moved to the last jump in (0, tau + 1] is not a stopping time,
        # yet the records still recombine pathwise and x_total keeps its law:
        # only X' (it starts after a gap that tau peeked at) and tau's law
        # can tell
        stopped_jumps = operator._stopped_jumps

        def look_ahead(draw, rule, T, m, stream):
            owner, times, *rest, tau = stopped_jumps(draw, rule, T, m, stream)
            late = tau.copy()
            near = times <= tau[owner] + 1.0
            np.maximum.at(late, owner[near], times[near])
            return (owner, times, *rest, late)

        monkeypatch.setattr(operator, "_stopped_jumps", look_ahead)
        doc = json.loads(json.dumps(SMALL_CONFIGS["operator-decompose"]))
        doc["params"]["n_records"] = 2000
        assert run(doc, out_dir=tmp_path) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        verdicts = {r["name"]: r["verdict"] for r in report["reports"]}
        assert verdicts["tau_vs_exact_law"] is False
        assert not all(verdicts[f"x_prime_coord{i}_vs_integral"] for i in (0, 1))
        assert all(verdicts[f"x_total_coord{i}_vs_integral"] for i in (0, 1))
        assert all(v for v in report["extras"].values() if isinstance(v, bool))

    def test_gaussian_perpetuity_catches_a_doubled_variance(self, monkeypatch, tmp_path):
        # both sides of the fixed-point report draw through _integral_batch,
        # so a doubled Gaussian variance moves them alike; only the closed
        # form N(0, sigma2 / 2) can tell
        batch = discount._integral_batch

        def doubled(model, window, n, stream):
            return batch(dataclasses.replace(model, gauss_var=2.0 * model.gauss_var),
                         window, n, stream)

        for module in (discount, perpetuity):
            monkeypatch.setattr(module, "_integral_batch", doubled)
        doc = _config("perpetuity-iterate", {"driver": "gaussian", "sigma2": 1.0}, n=2000)
        assert run(doc, out_dir=tmp_path) == 1
        reports = json.loads((tmp_path / "report.json").read_text())["reports"]
        assert {r["name"]: r["verdict"] for r in reports} == {
            "perpetuity_fixed_point": True, "fixed_point_vs_exact_normal": False}

    def test_operator_eigen_mode(self, tmp_path):
        # a Q with complex eigenvalues runs the eigenbasis discounter; it is a
        # separate test because SMALL_CONFIGS is keyed by experiment
        doc = json.loads(json.dumps(SMALL_CONFIGS["operator-decompose"]))
        doc["params"]["q"] = [[1.0, -0.5], [0.5, 1.5]]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(json.loads(json.dumps(doc)), out_dir=out1) == 0
        assert json.loads((out1 / "report.json").read_text())["verdict"] is True
        run(doc, out_dir=out2)
        for artifact in ("report.json", "samples.csv", "cdf.csv", "ecf.csv"):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()

    def test_seed_changes_samples(self, tmp_path):
        cfg1 = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        cfg2 = dict(cfg1)
        cfg2["seed"] = cfg1["seed"] + 1
        run(cfg1, out_dir=tmp_path / "a")
        run(cfg2, out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "samples.csv").read_bytes()
                != (tmp_path / "b" / "samples.csv").read_bytes())

    def test_samples_csv_full_precision(self, tmp_path):
        run(dict(SMALL_CONFIGS["verify-corollary2-pathwise"]), out_dir=tmp_path)
        lines = (tmp_path / "samples.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["tau", "x_tau", "discount", "x_prime", "x_total",
                          "direct_gamma"]
        row = dict(zip(header, (float(v) for v in lines[1].split(","))))
        # the recombination must survive the CSV round trip
        recombined = row["x_tau"] + row["discount"] * row["x_prime"]
        assert abs(row["x_total"] - recombined) <= 1e-10 * (1 + abs(row["x_total"]))


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """name -> (output directory, the runner's ExperimentResult) of one
    ``run`` of that SMALL_CONFIGS entry, made on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            schema, runner = _EXPERIMENTS[name]
            results = []

            def capture(*args):
                results.append(runner(*args))
                return results[-1]

            out = tmp_path_factory.mktemp(name)
            with pytest.MonkeyPatch.context() as mp:
                mp.setitem(_EXPERIMENTS, name, (schema, capture))
                assert run(copy.deepcopy(SMALL_CONFIGS[name]), out_dir=out) == 0
            cache[name] = out, results[0]
        return cache[name]
    return get


# The primary pairs that no report compares: two samples.csv columns.
_PRIMARY_COLUMNS = {"null-calibration": ("sample_a", "sample_b")}


class TestArtifacts:
    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_cdf_csv_is_a_plot_grid_holding_the_ks_peak(self, small_run, name):
        # cdf.csv is a fixed-size grid, whatever n, and keeps the row where
        # |cdf_a - cdf_b| peaks: its largest difference is the KS statistic
        out, _ = small_run(name)
        cdf = _columns(out / "cdf.csv")
        assert cdf["x"].size <= _CDF_ROWS + 1
        assert np.all(np.diff(cdf["x"]) >= 0)
        if name in _PRIMARY_COLUMNS:
            samples = _columns(out / "samples.csv")
            ks = ks_two_sample(*(samples[col] for col in _PRIMARY_COLUMNS[name]))[0]
        else:
            reports = json.loads((out / "report.json").read_text())["reports"]
            ks = reports[1 if name == "perpetuity-iterate" else 0]["ks_stat"]
        assert np.max(np.abs(cdf["cdf_a"] - cdf["cdf_b"])) == ks

    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_half_grid_cf_is_bit_equal(self, small_run, name):
        # ecf.csv evaluates u >= 0 and conjugates for u < 0
        _, result = small_run(name)
        for sample in result.primary:
            assert np.array_equal(_symmetric_cf(sample, _ECF_GRID),
                                  empirical_cf(sample, _ECF_GRID))

    @pytest.mark.parametrize("name", ["verify-theorem1", "verify-corollary2-pathwise",
                                      "verify-corollary3"])
    def test_direct_gamma_is_the_last_samples_column(self, small_run, name):
        # the direct gamma draws of the primary pair are kept in samples.csv,
        # since cdf.csv no longer holds the pooled sample
        out, result = small_run(name)
        header = (out / "samples.csv").read_text().split("\n", 1)[0].split(",")
        assert header[-1] == "direct_gamma"
        assert np.array_equal(_columns(out / "samples.csv")["direct_gamma"], result.primary[1])


    def test_samples_csv_peak_is_bounded(self, tmp_path):
        # rows go out in blocks of at most _CELLS values, each formatted by
        # one _g17_slots call, so 9 columns of 15,000 rows (one column 1,000
        # rows shorter) stay under a bound below the 1.1 MB of one stacked
        # copy of them; each value's text is its own '%.17g'
        cols = {f"c{i}": RngStream(60 + i).normal(size=15_000 - 1_000 * (i == 8))
                for i in range(9)}
        tracemalloc.start()
        try:
            _write_samples_csv(tmp_path / "samples.csv", cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20
        rows = [",".join("%.17g" % c[r] if r < c.size else "" for c in cols.values())
                for r in range(15_000)]
        assert (tmp_path / "samples.csv").read_text() == "\n".join([",".join(cols), *rows, ""])


def _g17_texts(values) -> list[str]:
    slots = _g17_slots(np.asarray(values, np.float64)).T
    return [bytes(cell[cell != 0]).decode() for cell in slots]


# Values next to the kernel's edges: signed zeros, the least subnormal, exact
# ties of 17 digits, the %g switch to an exponent at 1e-4 and 1e17, the
# rounding of 17 nines up to a new exponent, and the long double powers' end.
_G17_EDGES = [0.0, -0.0, 5e-324, -5e-324, 0.5, 2.5, 1e-4 * (1 - 2**-52), 1e-5 * (1 - 2**-52),
              1e-4, 1e-5, 9.999999999999999e16, 1e17 * (1 - 2**-53), 1e17, 1e16, 1e27,
              1125899906842624.25, 1e-37, 1e-38, 1e42, 1e43, 1e300, 2.2250738585072014e-308,
              1.7976931348623157e308, math.pi, math.nan, math.inf, -math.inf,
              *range(-10**6, 10**6 + 1)]


class TestG17:
    # every cell of the vectorized writer is '%.17g' % v, byte for byte
    def test_edges_and_integers(self):
        assert _g17_texts(_G17_EDGES) == ["%.17g" % v for v in _G17_EDGES]

    def test_neighbours_of_powers_of_ten(self):
        tens = np.array([10.0 ** q for q in range(-45, 50)])
        values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
        values = np.concatenate([values, -values, 5 * values, 9.999999999999999 * values])
        assert _g17_texts(values) == ["%.17g" % v for v in values.tolist()]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_floats(self, values):
        assert _g17_texts(values) == ["%.17g" % v for v in values]

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_bit_patterns(self, bits):
        values = np.array(bits, np.uint64).view(np.float64)
        assert _g17_texts(values) == ["%.17g" % v for v in values.tolist()]

    def test_many_bit_patterns_and_ties(self):
        gen = np.random.default_rng(28)
        values = np.concatenate([
            gen.integers(0, 2**64, 200_000, np.uint64, endpoint=False).view(np.float64),
            gen.standard_normal(100_000) * 10.0 ** gen.integers(-40, 45, 100_000),
            # m / 2^j, m < 2^53: the values with exact ties at 17 digits among them
            (gen.integers(2**52, 2**53, 10_000) / 2.0 ** np.arange(12)[:, None]).ravel()])
        assert _g17_texts(values) == ["%.17g" % v for v in values.tolist()]

    def test_all_fallback_path_writes_the_same_bytes(self, tmp_path, monkeypatch):
        # an infinite tolerance is what long double = double gives: every
        # nonzero value then takes Python's '%.17g', and the bytes must not move
        gen = np.random.default_rng(5)
        cols = {"a": gen.standard_normal(3000), "b": np.zeros(2500),
                "c": gen.exponential(size=4000) * 1e-12, "d": -gen.standard_normal(10)}
        _write_samples_csv(tmp_path / "kernel.csv", cols)
        monkeypatch.setattr(cli, "_REL_TOL", math.inf)
        _write_samples_csv(tmp_path / "fallback.csv", cols)
        text = (tmp_path / "kernel.csv").read_bytes()
        assert text == (tmp_path / "fallback.csv").read_bytes()
        rows = [",".join("%.17g" % c[r] if r < c.size else "" for c in cols.values())
                for r in range(4000)]
        assert text.decode() == "\n".join([",".join(cols), *rows, ""])


# A valid config with a number field, and the path to that field.
_NON_FINITE_FIELDS = {
    "alpha": (SMALL_CONFIGS["verify-gamma-bdlp"], ("params", "alpha")),
    "horizon": ({**SMALL_CONFIGS["verify-gamma-bdlp"], "policy": {"horizon": 40.0}},
                ("policy", "horizon")),
    "t": (_config("verify-corollary2-pathwise", {"alpha": 2.0, "lam": 1.0,
                                                 "rule": {"kind": "fixed_time", "t": 1.0}},
                  n=1200),
          ("params", "rule", "t")),
    "q": (SMALL_CONFIGS["operator-decompose"], ("params", "q", 0, 0)),
}

# A valid config, the path to a field, a valid value of it that makes the run
# raise, and the error: numpy refuses a Poisson mean of 1e300 and an array
# of 10^15 samples, and the perpetuity series needs more than 5 terms.
_RAISING_FIELDS = {
    "alpha": (*_NON_FINITE_FIELDS["alpha"], 1e300, "ValueError"),
    "horizon": (*_NON_FINITE_FIELDS["horizon"], 1e300, "ValueError"),
    "n_steps": (SMALL_CONFIGS["perpetuity-iterate"], ("params", "n_steps"), 5,
                "ContractionError"),
    # 8 PB of samples: past the address space, so the allocation fails at once
    "n_samples": (SMALL_CONFIGS["verify-gamma-bdlp"], ("n_samples",), 10**15, "MemoryError"),
}


class TestMain:
    def _write(self, tmp_path, doc):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_pass_run(self, tmp_path, capsys):
        cfg = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        cfg["out_dir"] = str(tmp_path / "out")
        status = main(["run", "--config", self._write(tmp_path, cfg)])
        assert status == 0
        assert "pass" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        status = main(["run", "--config", str(tmp_path / "nope.json")])
        assert status == 2

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 2

    def test_schema_violation(self, tmp_path, capsys):
        doc = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        doc["experiment"] = "verify-everything"
        assert main(["run", "--config", self._write(tmp_path, doc)]) == 2

    def test_policy_tail_tol_rejected(self, tmp_path, capsys):
        # the horizon is the only truncation knob; a tolerance field that no
        # sampler reads is a schema violation, not a silent no-op
        doc = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        doc["policy"] = {"horizon": 40.0, "tail_tol": 1e-16}
        assert main(["run", "--config", self._write(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "tail_tol" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, path", [pytest.param(name, path, id=path[-1]) for name, path in (
        ("verify-gamma-bdlp", ("seed",)), ("verify-theorem1", ("n_samples",)),
        ("verify-corollary2-pathwise", ("params", "rule", "k")),
        ("perpetuity-iterate", ("params", "n_steps")),
        ("null-calibration", ("params", "n_pairs")),
        ("operator-decompose", ("params", "n_records")))])
    def test_integral_float_in_integer_field_rejected(self, tmp_path, capsys, name, path):
        # draft 2020-12 counts 2000.0 as an integer, but a runner given one
        # crashes after creating the output directory; it is a config error
        doc = json.loads(json.dumps(SMALL_CONFIGS[name]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value = float(parent.get(path[-1], 200))
        assert main(["run", "--config", self._write(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{value!r} is not of type 'integer'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("field", sorted(_NON_FINITE_FIELDS))
    def test_non_finite_number_rejected(self, tmp_path, capsys, field, value):
        # JSON's NaN and Infinity are not numbers: a runner given one fails
        # after creating the output directory; it is a config error
        doc, path = _NON_FINITE_FIELDS[field]
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assert main(["run", "--config", self._write(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{value!r} is not of type 'number'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", sorted(_RAISING_FIELDS))
    def test_run_that_raises_exits_3(self, tmp_path, capsys, field):
        # a valid config whose run raises is neither a failed verdict (1)
        # nor an invalid config (2)
        doc, path, value, error = _RAISING_FIELDS[field]
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assert main(["run", "--config", self._write(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")]) == 3
        assert error in capsys.readouterr().err
        # the output directory is made only after the run returns
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alphas", [[2.0, 2.0], [1, 1.0], [0.5, 2.0, 0.5]], ids=repr)
    def test_duplicate_alphas_rejected(self, tmp_path, capsys, alphas):
        # equal alphas would share one set of samples.csv columns and one
        # report name; JSON equality counts 1 and 1.0 as equal
        doc = json.loads(json.dumps(SMALL_CONFIGS["verify-prop1"]))
        doc["params"]["alphas"] = alphas
        assert main(["run", "--config", self._write(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert f"{alphas!r} has non-unique elements" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_verdict_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(DecompositionRecord, "relative_residual", property(
            lambda rec: np.full(rec.tau.shape, 2.0 * rec.TOLERANCE)))
        doc = SMALL_CONFIGS["verify-corollary2-pathwise"]
        assert main(["run", "--config", self._write(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_operator_first_jump_in(self, tmp_path, capsys):
        # operator records take every rule: first_jump_in stops at the first
        # jump whose size lies in the set, and the run passes reproducibly
        doc = json.loads(json.dumps(SMALL_CONFIGS["operator-decompose"]))
        doc["params"]["rule"] = {"kind": "first_jump_in", "threshold": 1.0}
        path = self._write(tmp_path, doc)
        for out in ("a", "b"):
            assert main(["run", "--config", path, "--out-dir", str(tmp_path / out)]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["verdict"] is True
        assert report["extras"]["max_relative_residual"] <= 1e-9
        for artifact in ("report.json", "samples.csv", "cdf.csv", "ecf.csv"):
            assert ((tmp_path / "a" / artifact).read_bytes()
                    == (tmp_path / "b" / artifact).read_bytes())

    @pytest.mark.parametrize("seed", [2**64, 5 + 2**64], ids=repr)
    @pytest.mark.parametrize("by_flag", [False, True], ids=["config", "flag"])
    def test_seed_past_64_bits_rejected(self, tmp_path, capsys, seed, by_flag):
        # a stream keeps a seed's low 64 bits, so 5 + 2^64 would draw what 5
        # draws while report.json records 5 + 2^64; it is a config error
        doc = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        flag = ["--seed", str(seed)] if by_flag else []
        if not by_flag:
            doc["seed"] = seed
        assert main(["run", "--config", self._write(tmp_path, doc), *flag,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert (f"{seed!r} is greater than the maximum of {2**64 - 1!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_largest_seed_accepted(self):
        validate_config({**SMALL_CONFIGS["verify-gamma-bdlp"], "seed": 2**64 - 1})

    def test_seed_override(self, tmp_path):
        cfg = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        cfg["out_dir"] = str(tmp_path / "a")
        path = self._write(tmp_path, cfg)
        assert main(["run", "--config", path, "--seed", "123",
                     "--out-dir", str(tmp_path / "b")]) == 0
        doc = json.loads((tmp_path / "b" / "report.json").read_text())
        assert doc["seed"] == 123


def _fresh_python(script: str, *args: str, **env: str) -> dict:
    """The JSON object on the last stdout line of ``script``, run with ``args``
    by a fresh interpreter that imports sdlevy from this tree's ``src``."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


_IMPORT_GUARD = """
import json, sys
import sdlevy, sdlevy.cli
statuses = [sdlevy.cli.run(config, out_dir=f"{sys.argv[2]}/{i}")
            for i, config in enumerate(json.loads(sys.argv[1]))]
print(json.dumps({"statuses": statuses,
                  "test-only": sorted(m for m in sys.modules if m.split(".")[0] in
                                      ("scipy", "jsonschema", "referencing", "rpds")),
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""


def test_run_path_import_guard(tmp_path):
    # the engine needs no scipy (its dense e^{-tQ} is a numpy kernel), config
    # validation no jsonschema (cli._errors interprets the schemas), and the
    # independence diagnostic no numpy.ma (np.median's first call loads it);
    # a fresh interpreter that imports the package and runs an operator and a
    # theorem-1 config must have loaded none of them
    configs = [SMALL_CONFIGS["operator-decompose"], SMALL_CONFIGS["verify-theorem1"]]
    assert _fresh_python(_IMPORT_GUARD, json.dumps(configs), str(tmp_path / "out")) == {
        "statuses": [0, 0], "test-only": [], "numpy.ma": False}


def test_readme_python_blocks_run():
    # the README's python blocks, in order, in one fresh interpreter, so a
    # renamed or removed name fails here and cannot go stale in the docs
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    script = "".join(blocks) + 'import json\nprint(json.dumps({"ok": True}))\n'
    assert _fresh_python(script) == {"ok": True}


_REPEAT_FAULTS = """
import json, resource, sys
import sdlevy.cli
statuses, faults = [], []
for i in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    statuses.append(sdlevy.cli.run(json.loads(sys.argv[1]), out_dir=f"{sys.argv[2]}/{i}"))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps({"statuses": statuses, "faults": faults}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_repeated_run_faults_no_pages_back_in(tmp_path):
    # with glibc's dynamic thresholds, a theorem-1 run at n = 10^4 returns its
    # chunk-sized temporaries' pages to the OS and faults them in again, about
    # 10^4 minor faults even when the same run is repeated; run fixes the
    # thresholds, so the repeat reuses the pages. A fresh interpreter, because
    # earlier tests in this process may have raised the thresholds already.
    config = _config("verify-theorem1", {"alpha": 2.0, "lam": 1.0}, n=10_000)
    doc = _fresh_python(_REPEAT_FAULTS, json.dumps(config), str(tmp_path / "out"))
    assert doc["statuses"] == [0, 0]
    assert doc["faults"][1] <= 1_000, doc["faults"]


_NO_MALLOPT = """
import builtins, ctypes, json, sys
import sdlevy.cli
error, lookups = getattr(builtins, sys.argv[1]), []

def no_mallopt(name):
    lookups.append(name)
    if error is AttributeError:
        return object()  # a C library without the symbol
    raise error("no mallopt")

ctypes.CDLL = no_mallopt
status = sdlevy.cli.run(json.loads(sys.argv[2]), out_dir=sys.argv[3])
print(json.dumps({"status": status, "lookups": lookups}))
"""


@pytest.mark.parametrize("error", ["OSError", "TypeError", "AttributeError"])
def test_run_without_mallopt_writes_the_same_artifacts(error, tmp_path):
    # where the C library has no mallopt (CDLL(None) raises, or has no such
    # symbol), run skips the setting. The run without it is a fresh
    # interpreter, so it keeps glibc's dynamic thresholds throughout, while
    # this process has fixed them: equal artifacts also pin that the setting
    # changes no arithmetic.
    cfg = SMALL_CONFIGS["verify-theorem1"]
    assert run(copy.deepcopy(cfg), out_dir=tmp_path / "with") == 0
    assert _fresh_python(_NO_MALLOPT, error, json.dumps(cfg), str(tmp_path / "without")) == {
        "status": 0, "lookups": [None]}
    for artifact in ("report.json", "samples.csv", "cdf.csv", "ecf.csv"):
        assert ((tmp_path / "with" / artifact).read_bytes()
                == (tmp_path / "without" / artifact).read_bytes())


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


# The AVX-512 dispatch targets of numpy's SIMD math that this CPU has.
_AVX512_TARGETS = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
                   if _cpu_features().get(f)]

_CHILD = """
import json, sys
from numpy._core._multiarray_umath import __cpu_features__
from sdlevy.cli import run
configs, out = json.loads(sys.argv[1]), sys.argv[2]
status = {name: run(cfg, out_dir=f"{out}/{name}") for name, cfg in configs.items()}
print(json.dumps({"x86_v4": bool(__cpu_features__["X86_V4"]), "status": status}))
"""


def _columns(path: Path) -> dict:
    lines = path.read_text().strip().split("\n")
    names = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return dict(zip(names, rows.T))


class TestCpuDispatch:
    @pytest.mark.skipif(not _AVX512_TARGETS, reason="CPU without AVX-512")
    def test_avx512_dispatch_moves_only_last_bits(self, tmp_path):
        # Raw draws are identical everywhere; numpy's vectorized exp may round
        # differently without AVX-512. Stopping times compare stored jump
        # times only, so they must not move at all, and no verdict may flip.
        names = ("verify-theorem1", "verify-corollary2-pathwise")
        configs = json.dumps({name: SMALL_CONFIGS[name] for name in names})
        results = {}
        for tag, extra in (("native", {}),
                           ("no_avx512", {"NPY_DISABLE_CPU_FEATURES":
                                          " ".join(_AVX512_TARGETS)})):
            results[tag] = _fresh_python(_CHILD, configs, str(tmp_path / tag), **extra)
        assert results["native"]["x86_v4"] and not results["no_avx512"]["x86_v4"]
        assert results["native"]["status"] == results["no_avx512"]["status"]
        for name in names:
            reports = [json.loads((tmp_path / tag / name / "report.json").read_text())
                       for tag in results]
            assert reports[0]["verdict"] is reports[1]["verdict"] is True
            a, b = (_columns(tmp_path / tag / name / "samples.csv") for tag in results)
            assert a.keys() == b.keys()
            assert np.array_equal(a["tau"], b["tau"])
            for col in a:
                scale = np.maximum(np.abs(a[col]), np.abs(b[col]))
                assert np.all(np.abs(a[col] - b[col]) <= 4 * np.spacing(scale)), (name, col)
