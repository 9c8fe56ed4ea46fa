"""One benchmark process: set up a workload, gate it, time it, trace it.

``run.py`` starts this file with BLAS pinned to one thread and ``src`` on
``PYTHONPATH``.  Two commands:

* ``setup``: import the package, parse and validate the workload config
  and finish one warm-up trial, then print ``ready``.  ``run.py`` times
  this from process start to that line.  The process then prints the
  host slowdown factor measured with the reference kernel.
* ``measure``: the same set-up, then the correctness gate and timed
  ``run_sweep`` repeats: with tracing off (each paired with a reference
  kernel run) or alternating untraced and traced.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import rangesim
from rangesim import simlab
from rangesim.cxmath import general_eigenvalues, hermitian_evd
from rangesim.ranger import RangerConfig, range_subchannel

import spans
from workloads import WORKLOADS

MIN_REPEATS = 3
REFERENCE_LOOPS = 1900
# Time of reference_seconds() on an uncontended 2-vCPU 2.1 GHz Xeon VM.
REFERENCE_NOMINAL_S = 0.05
OUT = Path(__file__).resolve().parent / "out"
CAPTURE_LIMIT = 200   # inputs kept per kernel for the LAPACK replay
REPLAY_ROUNDS = 7


def set_up(name: str, seed: int) -> simlab.SimConfig:
    """Parse and validate the workload config, then run one warm-up trial."""
    cfg = simlab.parse_config_text(WORKLOADS[name] + f"master_seed = {seed}\n")
    cfg.validate()
    simlab.run_trial(cfg, cfg.snr_list_db[0], 0)
    return cfg


def noiseless_known_k(seed: int, trials: int = 30) -> tuple[bool, str]:
    """Criterion-1 style exactness on the benchmark seed.

    Noiseless model-mode scenarios with the true code count given must be
    detected exactly, with CFO error at most 1e-5 and delay error at most
    1e-2 samples.
    """
    cfg = simlab.SimConfig(num_users=3, max_cfo=0.1, mode="model")
    layout = cfg.layout()
    worst_cfo = worst_delay = 0.0
    for trial in range(trials):
        k = 1 + trial % 3
        rng = np.random.default_rng([seed, trial])
        users = simlab.draw_users(cfg, rng, count=k)
        obs = simlab.synthesize_model_mode(users, layout, 0.0, rng)
        report = range_subchannel(obs, RangerConfig(max_delay=cfg.max_delay, known_num_codes=k))
        if report.detected != {u.code for u in users}:
            return False, f"trial {trial}: detected {sorted(report.detected)}"
        for u in users:
            cfo_hat, delay_hat = report.per_code[u.code]
            worst_cfo = max(worst_cfo, abs(cfo_hat - u.cfo))
            worst_delay = max(worst_delay, abs(delay_hat - u.delay))
    ok = worst_cfo <= 1e-5 and worst_delay <= 1e-2
    return ok, f"max cfo err {worst_cfo:.2e}, max delay err {worst_delay:.2e}"


def reference_seconds() -> float:
    """Wall time of one run of a fixed kernel that never calls rangesim.

    The kernel mixes interpreted Python, 4x4 complex products and a
    1280-point FFT, as a trial does, so host contention slows it about as
    much as it slows a sweep.  Its time over REFERENCE_NOMINAL_S is the
    host's current slowdown factor.
    """
    a = np.arange(16.0).reshape(4, 4) * (1 + 1j) / 7
    sig = np.exp(1j * np.arange(1280.0))
    acc = 0.0
    start = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        acc += float(np.abs(np.trace(a @ a.conj().T)))
        acc += float(np.abs(np.fft.fft(sig)[3]))
        for j in range(40):
            acc += math.sqrt(i + j)
    return time.perf_counter() - start


class Sweeper:
    """Times ``simlab.run_sweep`` calls and checks they all return the same rows.

    With a tracer, its wrappers are installed around each call only.
    """

    def __init__(self, cfg, tracer=None):
        self.cfg, self.tracer = cfg, tracer
        self.times, self.rows, self.identical, self.failed = [], None, True, 0
        self.missing = []

    def __call__(self) -> float | None:
        if self.tracer is not None:
            self.missing = self.tracer.install()
        try:
            start = time.perf_counter()
            rows = simlab.run_sweep(self.cfg)
            elapsed = time.perf_counter() - start
        except Exception:  # a failed sweep is counted, and the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.times.append(elapsed)
        if self.rows is None:
            self.rows = rows
        self.identical &= rows == self.rows
        return elapsed


def alternate(first, second, budget_s: float, min_pairs: int) -> list[tuple[float, float]]:
    """Call ``first`` then ``second`` until the budget is spent.

    Each returns its own timed seconds, or None on failure.  Alternating
    keeps both sides of a pair under the same host load.
    """
    pairs, attempts = [], 0
    deadline = time.perf_counter() + budget_s
    while attempts < min_pairs or time.perf_counter() < deadline:
        attempts += 1
        a, b = first(), second()
        if a is not None and b is not None:
            pairs.append((a, b))
    return pairs


def accuracy(rows) -> dict:
    """The sweep's own results, each with its trial count."""
    by_snr = {row.snr_db: row for row in rows or ()}
    out = {}
    if 0.0 in by_snr:
        out["p_f_0db"] = {"value": by_snr[0.0].p_f, "trials": by_snr[0.0].trials}
        if by_snr[0.0].k > 0:
            out["p_err_timing_0db"] = {"value": by_snr[0.0].p_err_timing, "trials": by_snr[0.0].trials}
    if 20.0 in by_snr and by_snr[20.0].rmse_eps is not None:
        out["rmse_eps_20db"] = {"value": by_snr[20.0].rmse_eps, "trials": by_snr[20.0].trials}
    return out


class TrialTally:
    """Order-selection and detection outcomes seen through ``run_trial``."""

    def __init__(self):
        self.trials = self.order_hits = self.sent = self.detected = self.collisions = 0

    def __call__(self, args, result) -> None:
        self.trials += 1
        self.order_hits += result.report.num_codes == len(result.truth)
        self.sent += len(result.truth)
        self.detected += sum(result.detected_flags)
        self.collisions += result.report.collisions


class Capture:
    """Keeps copies of the first inputs a kernel sees."""

    def __init__(self):
        self.inputs = []

    def __call__(self, args, result) -> None:
        if len(self.inputs) < CAPTURE_LIMIT:
            self.inputs.append(np.array(args[0], dtype=complex))


def replay_ratio(own, lapack, inputs) -> float:
    """Median time of ``own`` over ``lapack`` on the same inputs; 0 if none."""
    if not inputs:
        return 0.0

    def batch(fn):
        start = time.perf_counter()
        for a in inputs:
            fn(a)
        return time.perf_counter() - start

    own_t = statistics.median(batch(own) for _ in range(REPLAY_ROUNDS))
    lapack_t = statistics.median(batch(lapack) for _ in range(REPLAY_ROUNDS))
    return own_t / lapack_t


def per_layer(tracer, tally, evd_in, eig_in, trials, traced_wall_ns, overhead) -> dict:
    calls, self_ns = spans.layer_totals(tracer.spans)
    metrics = {}
    for label, n, ns in zip(spans.LABELS, calls, self_ns):
        metrics[f"{label}.calls_per_trial"] = (n / trials, "calls/trial")
        metrics[f"{label}.self_us_per_trial"] = (ns / 1e3 / trials, "us/trial")
    seen = max(tally.trials, 1)
    metrics["ranger.order_hit_ratio"] = (tally.order_hits / seen, "ratio")
    # With no codes sent (an idle slot) every sent code was detected.
    metrics["ranger.detect_ratio"] = (tally.detected / tally.sent if tally.sent else 1.0, "ratio")
    metrics["ranger.collisions_per_trial"] = (tally.collisions / seen, "count/trial")
    metrics["simlab.failed_trials"] = (tracer.failures.get(spans.TRIAL, 0), "count")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.untraced_share"] = (spans.untraced_share(tracer.spans, traced_wall_ns), "ratio")
    metrics["cxmath.hermitian_evd.lapack_ratio"] = (
        replay_ratio(hermitian_evd, np.linalg.eigh, evd_in), "ratio")
    metrics["cxmath.general_eigenvalues.lapack_ratio"] = (
        replay_ratio(general_eigenvalues, np.linalg.eigvals, eig_in), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def blas_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas}


def quartiles(values) -> dict:
    values = list(values)
    if not values:
        return {"median": 0.0, "quartiles": [], "count": 0}
    return {"median": statistics.median(values),
            "quartiles": statistics.quantiles(values, n=4) if len(values) > 1 else values,
            "count": len(values)}


def measure(name: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> dict:
    cfg = set_up(name, seed)
    trials_per_sweep = cfg.trials * len(cfg.snr_list_db)
    checks = {"noiseless_known_k": noiseless_known_k(seed)}

    tally, evd_in, eig_in = TrialTally(), Capture(), Capture()
    tracer = spans.Tracer(observers={
        spans.TRIAL: tally,
        "cxmath.hermitian_evd": evd_in,
        "cxmath.general_eigenvalues": eig_in,
    })
    untraced, traced = Sweeper(cfg), Sweeper(cfg, tracer)
    result = {"workload": name,
              "config": WORKLOADS[name].strip().split("\n") + [f"master_seed = {seed}"],
              "trials_per_sweep": trials_per_sweep}
    if trace:
        # Self times are raw wall time; the slowdown factor dates them.
        result["host_slowdown"] = quartiles(
            reference_seconds() / REFERENCE_NOMINAL_S for _ in range(5))
        # Traced and untraced sweeps alternate, so the overhead ratio
        # compares the two under the same host load.
        pairs = alternate(untraced, traced, seconds, MIN_REPEATS)
    else:
        # Each sweep is bracketed by reference-kernel runs; see NOTES.md.
        pairs = alternate(reference_seconds, untraced, seconds, MIN_REPEATS)
        after = [r for r, _ in pairs[1:]] + [reference_seconds()]
        slowdowns = [(r0 + r1) / 2 / REFERENCE_NOMINAL_S for (r0, _), r1 in zip(pairs, after)]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced()  # one traced sweep, for the traced-vs-untraced check
        result["trials_per_s_raw"] = quartiles(trials_per_sweep / t for _, t in pairs)
        result["host_slowdown"] = quartiles(slowdowns)
        result["trials_per_s"] = quartiles(
            trials_per_sweep / t * f for (_, t), f in zip(pairs, slowdowns))

    checks["repeats_identical"] = (untraced.identical and traced.identical,
                                   f"{len(untraced.times) + len(traced.times)} sweeps")
    checks["traced_rows_match"] = (untraced.rows is not None and untraced.rows == traced.rows,
                                   "traced vs untraced rows")
    failed = untraced.failed + traced.failed
    result.update({
        "sweeps_attempted": len(untraced.times) + len(traced.times) + failed,
        "sweeps_failed": failed,
        "checks": {k: {"ok": bool(ok), "detail": d} for k, (ok, d) in checks.items()},
        "accuracy": accuracy(untraced.rows),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "rangesim": rangesim.__version__,
        "missing_wrappers": traced.missing,
    })
    if trace:
        traced_trials = trials_per_sweep * len(traced.times)
        result["per_layer"] = per_layer(
            tracer, tally, evd_in.inputs, eig_in.inputs, max(traced_trials, 1),
            int(sum(traced.times) * 1e9),
            statistics.median(u / t for u, t in pairs) if pairs else 0.0)
        result["traced_trials"] = traced_trials
        result["captured_inputs"] = {"hermitian_evd": len(evd_in.inputs),
                                     "general_eigenvalues": len(eig_in.inputs)}
        out_dir.mkdir(parents=True, exist_ok=True)
        span_file = out_dir / f"spans-{name}-seed{seed}.json.gz"
        with gzip.open(span_file, "wt") as handle:
            json.dump({"labels": spans.LABELS,
                       "fields": ["label", "start_ns", "end_ns", "parent", "trial"],
                       "spans": tracer.spans}, handle)
        result["span_file"] = span_file.name
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.command == "setup":
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        reference_seconds()
        slowdown = statistics.median(reference_seconds() for _ in range(3)) / REFERENCE_NOMINAL_S
        print(f"slowdown {slowdown!r}", flush=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
