"""The sdlevy configs each workload runs, with seeds derived from the
benchmark seed. README.md says why each workload exists and how it was
sized."""

from __future__ import annotations

import copy
import hashlib

_GAMMA = {"alpha": 2.0, "lam": 1.0}
_COORDS = [{"jump_rate": 2.0, "exp_jump_rate": 1.0},
           {"jump_rate": 1.0, "exp_jump_rate": 2.0, "drift": 0.3}]

WORKLOADS = {
    # Per-record Python loop: decompose_many over FirstJump records.
    "first-jump": [
        {"experiment": "verify-theorem1", "n_samples": 10000, "params": _GAMMA},
    ],
    # Late stopping times: rare-set first jumps (horizon extensions), an
    # independent exponential time (horizon tau + T), thinned paths.
    "late-stop": [
        {"experiment": "verify-corollary2-pathwise", "n_samples": 2000,
         "params": {**_GAMMA, "rule": {"kind": "first_jump_in", "threshold": 4.0}}},
        {"experiment": "verify-corollary2-pathwise", "n_samples": 2000,
         "params": {**_GAMMA, "rule": {"kind": "independent_exponential", "rate": 1.0}}},
        {"experiment": "verify-corollary3", "n_samples": 2000,
         "params": {**_GAMMA, "set_threshold": 1.0}},
    ],
    # Vectorized samplers, gamma rejection, perpetuities, many KS tests,
    # CSV writers; no per-record loop.
    "batch": [
        {"experiment": "verify-gamma-bdlp", "n_samples": 15000, "params": _GAMMA},
        {"experiment": "verify-prop1", "n_samples": 15000,
         "params": {"alphas": [0.5, 1.0, 2.0], "lam": 1.0}},
        {"experiment": "perpetuity-iterate", "n_samples": 15000,
         "params": {"driver": "gamma", **_GAMMA, "n_steps": 200}},
        {"experiment": "perpetuity-iterate", "n_samples": 15000,
         "params": {"driver": "gaussian", "sigma2": 1.0, "n_steps": 200}},
        {"experiment": "null-calibration", "n_samples": 10000,
         "params": {**_GAMMA, "n_pairs": 100}},
    ],
    # The operator layer: diagonal discounter (vectorized) and eigen-mode
    # discounter (per-draw fallback).
    "operator": [
        {"experiment": "operator-decompose", "n_samples": 10000,
         "params": {"q": [[1.0, 0.0], [0.0, 2.0]], "coords": _COORDS,
                    "rule": {"kind": "first_jump"}, "n_records": 500}},
        {"experiment": "operator-decompose", "n_samples": 2000,
         "params": {"q": [[1.0, -0.5], [0.5, 1.5]], "coords": _COORDS,
                    "rule": {"kind": "first_jump"}, "n_records": 500}},
    ],
}


def config_seed(workload: str, index: int, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{index}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def configs(workload: str, seed: int) -> list[dict]:
    """The workload's configs; the same seed gives the same configs."""
    return [{**copy.deepcopy(base), "seed": config_seed(workload, i, seed)}
            for i, base in enumerate(WORKLOADS[workload])]
