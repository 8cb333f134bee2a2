"""Config validation, experiment runners, artifacts, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdlevy.cli import EXPERIMENTS, main, run, validate_config
from sdlevy.errors import ConfigError

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
        {"alpha": 2.0, "lam": 1.0, "rule": {"kind": "kth_jump", "k": 3}}, n=300),
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

    def test_n_samples_floor(self):
        doc = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        doc["n_samples"] = 50
        with pytest.raises(ConfigError):
            validate_config(doc)


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

    @pytest.mark.parametrize("name", sorted(SMALL_CONFIGS))
    def test_artifacts_byte_identical(self, name, tmp_path):
        cfg = SMALL_CONFIGS[name]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(dict(cfg), out_dir=out1)
        run(dict(cfg), out_dir=out2)
        for artifact in ("report.json", "samples.csv", "cdf.csv", "ecf.csv"):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()

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
                          "residual"]
        row = dict(zip(header, (float(v) for v in lines[1].split(","))))
        # the recombination must survive the CSV round trip
        recombined = row["x_tau"] + row["discount"] * row["x_prime"]
        assert abs(row["x_total"] - recombined) <= 1e-10 * (1 + abs(row["x_total"]))


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

    def test_operator_first_jump_in_rejected(self, tmp_path, capsys):
        # operator paths have no FirstJumpIn: the config is invalid (exit 2)
        # and no output directory is made, not a failed run (exit 1)
        doc = json.loads(json.dumps(SMALL_CONFIGS["operator-decompose"]))
        doc["params"]["rule"] = {"kind": "first_jump_in", "threshold": 1.0}
        assert main(["run", "--config", self._write(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "first_jump_in" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_override(self, tmp_path):
        cfg = dict(SMALL_CONFIGS["verify-gamma-bdlp"])
        cfg["out_dir"] = str(tmp_path / "a")
        path = self._write(tmp_path, cfg)
        assert main(["run", "--config", path, "--seed", "123",
                     "--out-dir", str(tmp_path / "b")]) == 0
        doc = json.loads((tmp_path / "b" / "report.json").read_text())
        assert doc["seed"] == 123


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
        src = str(ROOT / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        results = {}
        for tag, extra in (("native", {}),
                           ("no_avx512", {"NPY_DISABLE_CPU_FEATURES":
                                          " ".join(_AVX512_TARGETS)})):
            env = {**os.environ, "PYTHONPATH": path, **extra}
            proc = subprocess.run([sys.executable, "-c", _CHILD, configs,
                                   str(tmp_path / tag)], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            results[tag] = json.loads(proc.stdout.strip().splitlines()[-1])
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
                # the residual is judged on the scale 1 + |x_total|
                scale = (1.0 + np.abs(a["x_total"]) if col == "residual"
                         else np.maximum(np.abs(a[col]), np.abs(b[col])))
                assert np.all(np.abs(a[col] - b[col]) <= 4 * np.spacing(scale)), (name, col)
