#!/usr/bin/env python3
"""Benchmark for sdlevy: time to a verdict on four workloads.

Usage:
  python3 perfbench/run.py --workload {first-jump,late-stop,batch,operator,all}
                           [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree; the code under test is ``src/sdlevy``
of that tree. Each pass runs the workload's configs, one after another, in
a fresh child interpreter with BLAS/OpenMP pinned to one thread; passes run
one at a time until ``--seconds`` is used up (at least three).

With ``--trace 0`` the end-to-end metrics are medians over the passes.
With ``--trace 1`` two of the passes are traced and give the per-layer
metrics; the two traced passes must agree on every deterministic count.

Every pass's artifacts must be byte-identical to the first pass's (same
configs, same seeds). A config run fails when it raises, its config is
invalid, an exact gate (pathwise identity, spectral gate) fails, or its
artifacts differ; the failures and the attempts feed ``failed`` and
``attempted``. A FAIL verdict from a statistical gate alone is counted as
an alarm, not a failure: at a fixed significance such gates fail by chance
on some seeds.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads
from child import THREAD_ENV

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_PASSES = 3
DEADLINE_S = 170.0     # one workload's passes, child timeouts included

END_TO_END = {
    "verdict_s": "s",
    "setup_s": "s",
    "draws_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def run_pass(configs_path: Path, out: Path, traced: bool, timeout: float) -> dict:
    """One child process over every config; returns its result.json plus
    setup_s and verdict_s measured from just before the child started."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **{k: "1" for k in THREAD_ENV}}
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(BENCH / "child.py"), "--src", str(SRC),
           "--configs", str(configs_path), "--out", str(out),
           *(["--trace"] if traced else [])]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f} s"}
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"child exited {proc.returncode}: {err.strip()[-500:]}"}
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["t_setup"] - t0
    result["verdict_s"] = result["t_done"] - t0
    result["wall_s"] = time.monotonic() - t0
    if traced:
        result["imports"] = layers.import_times(err)
    return result


def run_passes(configs: list[dict], seconds: float, trace: bool) -> list[dict]:
    """Passes, one at a time, until ``seconds`` is used up. With tracing, the
    second and third passes are traced and the rest are plain."""
    plan = ["plain", "traced", "traced"] if trace else ["plain"] * MIN_PASSES
    start = time.monotonic()
    passes: list[dict] = []
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        configs_path = work / "configs.json"
        configs_path.write_text(json.dumps(configs))
        while True:
            elapsed = time.monotonic() - start
            if len(passes) >= len(plan):
                typical = statistics.median(p["wall_s"] for p in passes)
                if elapsed + typical > seconds:
                    break
            kind = plan[len(passes)] if len(passes) < len(plan) else "plain"
            out = work / f"pass{len(passes)}"
            out.mkdir()
            result = run_pass(configs_path, out, kind == "traced", DEADLINE_S - elapsed)
            shutil.rmtree(out)
            result["kind"] = kind
            passes.append(result)
            if "error" in result:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return passes


def check_outputs(passes: list[dict], n_configs: int) -> dict:
    """Count attempts, failures and statistical alarms over all passes."""
    attempted = failed = alarms = 0
    problems: list[str] = []
    reference = None
    for k, p in enumerate(passes):
        if "error" in p:
            attempted += n_configs
            failed += n_configs
            problems.append(f"pass {k}: {p['error']}")
            continue
        if reference is None:
            reference = [c.get("sha256") for c in p["configs"]]
        for i, c in enumerate(p["configs"]):
            attempted += 1
            if "error" in c:
                why = c["error"].strip().splitlines()[-1]
            elif not c["exact_ok"]:
                why = "an exact gate failed"
            elif c["sha256"] != reference[i]:
                why = "artifacts differ from the first pass with the same seed"
            else:
                alarms += c["status"] != 0
                continue
            failed += 1
            problems.append(f"pass {k} config {i} ({c['experiment']}): {why}")
    return {"attempted": attempted, "failed": failed, "alarms": alarms,
            "problems": problems}


def end_to_end(plain: list[dict]) -> dict:
    def draws(p):
        cells = sum(c.get("cells", 0) for c in p["configs"])
        return cells / (p["verdict_s"] - p["setup_s"])

    return {
        "verdict_s": [p["verdict_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in plain],
        "draws_per_s": [draws(p) for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }


def per_layer(traced: list[dict], plain: list[dict], problems: list[str]) -> dict:
    """Per-layer metrics of the traced passes; a deterministic count that
    differs between them is reported as a problem."""
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name in layers.DETERMINISTIC:
            if other["layers"][name] != first[name]:
                problems.append(f"traced passes disagree on {name}: "
                                f"{first[name]} != {other['layers'][name]}")
    out = {}
    for name in first:
        values = [t["layers"][name] for t in traced]
        out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    for name in layers.IMPORT_PACKAGES:
        out[name] = statistics.median(t["imports"][name] for t in traced)
    out["trace.overhead_s"] = (statistics.median(t["verdict_s"] for t in traced)
                               - statistics.median(p["verdict_s"] for p in plain))
    return {name: out[name] for name in layers.PER_LAYER}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(passes: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    child = next((p["fingerprint"] for p in passes if "fingerprint" in p), {})
    return {"git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **child}


def bench(workload: str, seed: int, seconds: float, trace: bool,
          configs: list[dict] | None = None) -> dict:
    """Run one workload and return its summary (see ``main`` for the shape)."""
    if configs is None:
        configs = workloads.configs(workload, seed)
    passes = run_passes(configs, seconds, trace)
    check = check_outputs(passes, len(configs))
    ok = [p for p in passes if "error" not in p]
    plain = [p for p in ok if p["kind"] == "plain"]
    traced = [p for p in ok if p["kind"] == "traced"]
    summary = {**check, "workload": workload, "passes": len(passes),
               "fingerprint": fingerprint(passes), "samples": {}, "metrics": {}}
    if trace:
        if traced and plain:
            summary["metrics"] = {name: (value, layers.PER_LAYER[name][0])
                                  for name, value in
                                  per_layer(traced, plain, check["problems"]).items()}
    elif plain:
        samples = end_to_end(plain)
        summary["samples"] = samples
        summary["metrics"] = {name: (statistics.median(values), END_TO_END[name])
                              for name, values in samples.items()}
    summary["correct"] = bool(summary["metrics"]) and not check["problems"]
    return summary


def report(summary: dict) -> None:
    w = summary["workload"]
    print(f"{w}: fingerprint {json.dumps(summary['fingerprint'], sort_keys=True)}")
    for name, (value, unit) in summary["metrics"].items():
        values = summary["samples"].get(name)
        spread = (f"  median of {len(values)} passes, range {min(values):.6g}"
                  f"..{max(values):.6g}" if values else "")
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{w}: {name} = {shown} {unit}{spread}")
    frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"{w}: fail_frac = {frac:.6g} ratio  ({summary['failed']} of "
          f"{summary['attempted']} config runs; {summary['alarms']} statistical alarms)")
    for problem in summary["problems"]:
        print(f"{w}: problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sdlevy" / "__init__.py").is_file():
        print(f"error: no sdlevy source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [bench(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for summary in summaries:
        report(summary)
    if not all(s["metrics"] for s in summaries):
        print("error: no pass completed", file=sys.stderr)
        return 1
    prefix = len(summaries) > 1
    metrics = {(f"{s['workload']}.{name}" if prefix else name): {"value": v, "unit": u}
               for s in summaries for name, (v, u) in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
