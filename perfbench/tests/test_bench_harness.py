"""Harness: output check, failure counting, traced runs, broken trees."""

import json
import shutil
import subprocess
import sys

import child
import layers
import run
import workloads

TINY = {"experiment": "verify-gamma-bdlp", "seed": 7, "n_samples": 1000,
        "params": {"alpha": 2.0, "lam": 1.0}}
INVALID = {**TINY, "n_samples": 10}    # below the schema minimum of 200


def test_invalid_config_counts_as_failed_without_aborting():
    summary = run.bench("tiny", 0, 0.0, False, configs=[INVALID, TINY])
    assert summary["passes"] == run.MIN_PASSES
    assert summary["attempted"] == 2 * run.MIN_PASSES
    assert summary["failed"] == run.MIN_PASSES          # only the invalid one
    assert summary["failed"] / summary["attempted"] > 0
    assert not summary["correct"]
    assert set(summary["metrics"]) == set(run.END_TO_END)


def test_valid_configs_give_every_end_to_end_metric():
    summary = run.bench("tiny", 0, 0.0, False, configs=[TINY])
    assert summary["correct"] and summary["failed"] == 0
    for name, (value, unit) in summary["metrics"].items():
        assert value > 0 and unit == run.END_TO_END[name]
    assert summary["metrics"]["setup_s"][0] < summary["metrics"]["verdict_s"][0]
    fp = summary["fingerprint"]
    assert fp["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert fp["numpy"] and fp["scipy"] and fp["nproc"] >= 1


def test_traced_run_reports_every_layer_metric_and_repeats_counts():
    configs = [TINY, {**TINY, "experiment": "verify-theorem1", "n_samples": 1000}]
    summary = run.bench("tiny", 0, 0.0, True, configs=configs)
    assert summary["correct"], summary["problems"]
    assert list(summary["metrics"]) == list(layers.PER_LAYER)
    m = {k: v for k, (v, _) in summary["metrics"].items()}
    assert m["decomposition.records"] == 1000
    assert m["levy.paths"] == 1000
    assert m["stats.ks_tests"] == 3
    assert 0 < m["levy.jump_use_ratio"] <= 1
    assert 0 < m["rng.gamma_accept_ratio"] <= 1
    assert all(m[name] > 0 for name in layers.IMPORT_PACKAGES)


def _pass(status=0, sha="x", exact_ok=True, error=None):
    c = {"experiment": "e", "status": status, "sha256": {"report.json": sha},
         "exact_ok": exact_ok}
    if error:
        c = {"experiment": "e", "error": error}
    return {"configs": [c]}


def test_check_outputs_classifies_each_config_run():
    check = run.check_outputs(
        [_pass(), _pass(sha="y"), _pass(status=1), _pass(status=1, exact_ok=False),
         _pass(error="Traceback\nValueError: bad"), {"error": "child exited 1"}], 1)
    assert check["attempted"] == 6
    assert check["failed"] == 4        # differing hash, exact gate, raise, crash
    assert check["alarms"] == 1        # statistical FAIL verdict only
    assert any("ValueError: bad" in p for p in check["problems"])


def test_exact_gates():
    assert child.exact_gates_hold({"extras": {}})
    assert child.exact_gates_hold({"extras": {"max_relative_residual": 1e-16}})
    assert not child.exact_gates_hold({"extras": {"max_relative_residual": 1e-6}})
    assert child.exact_gates_hold({"extras": {"max_relative_residual": 1e-10,
                                              "residual_tolerance": 1e-9}})
    assert not child.exact_gates_hold({"extras": {"pathwise_pass": False}})
    assert not child.exact_gates_hold({"extras": {"spectral_gate_rejects_singular": False}})


def test_configs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.configs(name, 3) == workloads.configs(name, 3)
        assert workloads.configs(name, 3) != workloads.configs(name, 4)


def test_tree_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
