"""One benchmark pass: import sdlevy, validate the configs, run each one with
sdlevy.cli.run, then describe what happened in <out>/result.json.

Run by run.py in a fresh interpreter, with PYTHONPATH set to the source
tree under test. Times are CLOCK_MONOTONIC readings, comparable with the
parent's reading taken just before it started this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ARTIFACTS = ("report.json", "samples.csv", "cdf.csv", "ecf.csv")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def exact_gates_hold(report: dict) -> bool:
    """The gates that hold on every seed unless the program is wrong: the
    pathwise identities and the spectral-gate negative control. KS and
    moment gates are left to the verdict; they fail by chance at their
    significance level."""
    extras = report.get("extras", {})
    if extras.get("pathwise_pass") is False:
        return False
    if extras.get("spectral_gate_rejects_singular") is False:
        return False
    rel = extras.get("max_relative_residual")
    return rel is None or rel <= extras.get("residual_tolerance", 1e-10)


def _samples_cells(path: Path) -> int:
    lines = path.read_text().split("\n")[1:]
    return sum(1 for line in lines for cell in line.split(",") if cell)


def _describe(out: Path) -> dict:
    """Hashes, sizes and checks of one config's artifacts."""
    report = json.loads((out / "report.json").read_text())
    return {
        "sha256": {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS},
        "bytes": sum((out / name).stat().st_size for name in ARTIFACTS),
        "cells": _samples_cells(out / "samples.csv"),
        "exact_ok": exact_gates_hold(report),
    }


def _fingerprint() -> dict:
    import numpy as np
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_cpu_features": sorted(k for k, on in features.items() if on),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--configs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import sdlevy.cli
    src = Path(args.src).resolve()
    if src not in Path(sdlevy.__file__).resolve().parents:
        print(f"sdlevy imported from {sdlevy.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = counters = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        counters = layers.instrument(tracer)

    out = Path(args.out)
    entries = []
    for config in json.loads(Path(args.configs).read_text()):
        entry = {"experiment": config.get("experiment")}
        try:
            sdlevy.cli.validate_config(config)
            entry["config"] = config
        except Exception as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entries.append(entry)
    t_setup = time.monotonic()

    for i, entry in enumerate(entries):
        if "config" not in entry:
            continue
        try:
            entry["status"] = sdlevy.cli.run(entry.pop("config"), out_dir=out / str(i))
        except Exception:
            entry["error"] = traceback.format_exc(limit=3)
    t_done = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.restore()
    for i, entry in enumerate(entries):
        if "status" in entry:
            entry.update(_describe(out / str(i)))
    result = {
        "t_setup": t_setup,
        "t_done": t_done,
        "peak_rss_mb": peak_kb / 1024.0,
        "configs": entries,
        "fingerprint": _fingerprint(),
    }
    if tracer is not None:
        result["layers"] = layers.metrics(
            tracer, counters, sum(e.get("bytes", 0) for e in entries))
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
