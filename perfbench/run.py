"""Benchmark launcher: times ``rangesim`` sweeps on one named workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload waveform_k3 --seed 1 --seconds 20 --trace 0

It pins BLAS to one thread, puts the checkout's ``src`` first on
``PYTHONPATH`` and starts ``worker.py`` processes one at a time, so all
load comes from one process.  With ``--trace 0`` it first times several
fresh-process set-ups, then one measuring process; the last line of
standard output is the result object with the end-to-end metrics.  With
``--trace 1`` the result carries the per-layer metrics of the traced run
instead.  The line before it holds the provenance facts, the accuracy
results and the check details, also written to ``perfbench/out/``.

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREADS = 1
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def worker_cmd(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def setup_seconds(workload: str, seed: int, env: dict) -> tuple[float, float]:
    """Wall time from starting a fresh worker until it reports ready.

    Returns that time and the host slowdown factor the worker measured
    right after it.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(worker_cmd("setup", "--workload", workload, "--seed", str(seed)),
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read().split()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready" or len(rest) != 2 or rest[0] != "slowdown":
        raise RuntimeError(f"set-up process failed with exit code {code}")
    return elapsed, float(rest[1])


def git_revision() -> str:
    """The commit checked out at ROOT, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies a non-git checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rangesim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(res: dict, setups: list[tuple[float, float]]) -> dict:
    """The untraced run's metrics, at the reference host speed (see NOTES.md)."""
    return {
        "trials_per_s": {"value": res["trials_per_s"]["median"], "unit": "trials/s"},
        "setup_s": {"value": statistics.median(t / f for t, f in setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rangesim sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "rangesim" / "__init__.py").is_file():
        print(f"error: no rangesim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    env = worker_env()
    setups = [] if args.trace else [
        setup_seconds(args.workload, args.seed, env) for _ in range(SETUP_PROBES)]
    proc = subprocess.run(
        worker_cmd("measure", "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)),
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: measuring process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    checks_failed = sum(not c["ok"] for c in res["checks"].values())
    attempted = res["sweeps_attempted"] + len(res["checks"])
    failed = res["sweeps_failed"] + checks_failed
    correct = failed == 0
    metrics = res.pop("per_layer") if args.trace else end_to_end(res, setups)
    facts = {
        **res,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_probes": [{"raw_s": t, "host_slowdown": f} for t, f in setups],
        "failed_share": {"value": failed / attempted, "unit": "ratio",
                         "attempted": attempted, "failed": failed},
        "machine": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "blas_threads_pinned": BLAS_THREADS,
        },
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(facts, indent=1) + "\n")
    print(json.dumps(facts))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    if not correct:
        print(f"error: {failed} of {attempted} sweeps or checks failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
