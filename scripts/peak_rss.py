#!/usr/bin/env python3
"""Peak memory of each example config, one fresh child process per config.

Usage: python scripts/peak_rss.py [--configs configs] [--repeat N]

Each config runs as ``python -m sdlevy.cli run`` in its own child, with the
artifacts written to a temporary directory that is removed afterwards. The
table gives the child's own peak resident set size (``ru_maxrss`` from
``wait4``), its minor page faults (``ru_minflt``), its CPU time
(``ru_utime + ru_stime``), its wall time and its exit status. The child
imports sdlevy from this tree's ``src``, with its BLAS and OpenMP thread
pools pinned to one thread, as perfbench pins its children, so that no idle
pool adds CPU time. Exits nonzero if any child does.

``--repeat N`` runs N rounds, each config once per round in the same order,
so a drift in the host's speed spreads over every config alike. Each row
then gives the config's largest peak and fault count, its median CPU and
wall time, and the first nonzero exit status of its runs (0 if none).

Before the table, one line names every ``src/sdlevy`` module whose bytecode
cache for this interpreter is missing or was not compiled from the source as
it is now. Each child compiles such a module again (with
``PYTHONDONTWRITEBYTECODE`` set, in every run), which adds to its peak and
its times; ``python -m compileall src`` makes the caches current.
"""

import argparse
import importlib.util
import os
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The thread-pool variables of perfbench/child.py's THREAD_ENV, set to 1.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def stale_caches() -> list[str]:
    """The src/sdlevy modules whose cache the import system would not use:
    missing, or recording another source mtime or size (or, for a hash-based
    cache, another source hash) than the source's now."""
    stale = []
    for source in sorted((ROOT / "src" / "sdlevy").glob("*.py")):
        try:
            header = Path(importlib.util.cache_from_source(str(source))).read_bytes()[:16]
        except OSError:
            header = b""
        st = source.stat()
        if header[4:8] == bytes(4):
            want = struct.pack("<II", int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
        else:
            want = importlib.util.source_hash(source.read_bytes())
        if header[:4] != importlib.util.MAGIC_NUMBER or header[8:16] != want:
            stale.append(source.name)
    return stale


def peak_rss(config: Path) -> tuple[int, float, int, float, float]:
    """(exit status, peak RSS in MB, minor faults, CPU seconds, wall seconds)
    of one child run."""
    env = {**os.environ, **dict.fromkeys(THREAD_ENV, "1"), "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "sdlevy.cli", "run", "--config", str(config),
             "--out-dir", out], env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)  # this child's own rusage
        wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return (child.returncode, usage.ru_maxrss / 1024.0, usage.ru_minflt,
            usage.ru_utime + usage.ru_stime, wall)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--configs", default=str(ROOT / "configs"))
    parser.add_argument("--repeat", type=int, default=1, help="rounds of one child per config")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    paths = sorted(Path(args.configs).glob("*.json"))
    runs = {path: [] for path in paths}
    stale = stale_caches()
    print("stale bytecode caches (each child compiles these): "
          + (" ".join(stale) if stale else "none"))
    print(f"{'config':30s} {'exit':>4s} {'peak MB':>8s} {'minflt':>8s} {'cpu s':>6s} "
          f"{'wall s':>7s}")
    for round_ in range(args.repeat):
        for path in paths:
            runs[path].append(peak_rss(path))
            if round_ == args.repeat - 1:
                status, mb, minflt, cpu, wall = zip(*runs[path])
                print(f"{path.stem:30s} {next(filter(None, status), 0):4d} {max(mb):8.1f} "
                      f"{max(minflt):8d} {statistics.median(cpu):6.2f} "
                      f"{statistics.median(wall):7.2f}", flush=True)
    return 1 if any(run[0] for rows in runs.values() for run in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
