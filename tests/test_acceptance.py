"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on passing runs too.  The trend sweeps are seeded and deterministic;
they dominate the runtime (a few minutes), and the criteria that read them
(5-7) carry the ``slow`` marker, so ``pytest -m "not slow"`` skips them.
"""

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rangesim.cxmath import forward_backward, general_eigenvalues, hermitian_evd
from rangesim.ranger import map_cfo, map_timing
from rangesim.simlab import (
    WILSON_Z,
    SimConfig,
    esprit_periodogram_gap,
    format_count,
    noiseless_exactness,
    run_sweep,
    run_trial,
    wilson_interval,
)

from helpers import run_module, wrap_half


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}", flush=True)
    return ok


def strictly_decreasing(values):
    return all(a > b for a, b in zip(values, values[1:]))


def resolved_decreasing_counts(counts, trials):
    """Whether failure counts fall with SNR as far as ``trials`` can tell.

    Each consecutive pair must strictly decrease, except a pair of zeros:
    two zero counts cannot be put in order, only bounded.  Every zero point
    must therefore be resolved, meaning its Wilson 95% upper bound lies
    below the Wilson lower bound of the last nonzero point.  An all-zero
    sweep shows no trend and fails.
    """
    if not any(counts):
        return False
    if not all(a > b or a == b == 0 for a, b in zip(counts, counts[1:])):
        return False
    if counts[-1]:
        return True
    last_nonzero = [c for c in counts if c][-1]
    return wilson_interval(0, trials)[1] < wilson_interval(last_nonzero, trials)[0]


@pytest.mark.parametrize("counts, trials", [((105, 0, 0), 10000), ((458, 0, 0), 10000),
                                            ((105, 12, 0), 10000), ((105, 12, 3), 10000)])
def test_resolved_trend_accepts_a_falling_sweep(counts, trials):
    assert resolved_decreasing_counts(counts, trials)


@pytest.mark.parametrize("counts, trials", [
    ((105, 10, 10), 10000),  # error floor
    ((105, 0, 3), 10000),    # rise after a zero
    ((105, 20, 30), 10000),  # rise
    ((40, 40, 40), 10000),   # flat nonzero
    ((0, 0, 0), 10000),      # all zero: no trend to judge
    ((1, 0, 0), 50),         # zero not resolved against 1/50
    ((3, 0, 0), 10000),      # zero not resolved against 3/10000
])
def test_resolved_trend_rejects(counts, trials):
    assert not resolved_decreasing_counts(counts, trials)


def test_wilson_interval_reference_values():
    lo, hi = wilson_interval(0, 10000)
    assert lo == 0.0
    assert hi == pytest.approx(WILSON_Z**2 / (10000 + WILSON_Z**2), rel=1e-12)
    assert format_count(0, 10000) == "0/10000 (< 3.8e-4)"
    assert format_count(105, 10000) == "105/10000"
    lo, hi = wilson_interval(105, 10000)
    assert 0.0086 < lo < 0.0087 and 0.0126 < hi < 0.0128
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(1 - hi, rel=1e-12)


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def timed_sweep(cfg):
    """``run_sweep(cfg)`` and its own wall time in seconds."""
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    return rows, time.perf_counter() - t0


def sweep_side_by_side(configs):
    """``timed_sweep`` of each config, in config order, over ``min(4, CPUs)`` worker processes.

    The workers start by ``spawn`` with ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` set
    to 1, so that each one's BLAS runs one thread, and with RuntimeWarning made an error, as
    pyproject.toml makes it in the test process.  With one CPU the sweeps run here, serially.
    """
    workers = min(4, len(os.sched_getaffinity(0)))
    if workers == 1:
        return [timed_sweep(cfg) for cfg in configs]
    with pytest.MonkeyPatch.context() as mp:
        for name in BLAS_THREADS:
            mp.setenv(name, "1")
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(workers, mp_context=spawn, initializer=warnings.simplefilter,
                                 initargs=("error", RuntimeWarning)) as pool:
            return list(pool.map(timed_sweep, configs))


@pytest.fixture(scope="module")
def trend_grids():
    """The four waveform trend sweeps, K in {3, 2} by omega in {0.05, 0.1}, run side by side.

    Maps each key to its rows and the sweep's own wall time.
    """
    keys = [(k, omega) for k in (3, 2) for omega in (0.05, 0.1)]
    configs = [SimConfig(num_users=k, max_cfo=omega, mode="waveform",
                         snr_list_db=(0.0, 10.0, 20.0), trials=10000, master_seed=2024)
               for k, omega in keys]
    return dict(zip(keys, sweep_side_by_side(configs)))


@pytest.fixture(scope="module")
def k3_grid(trend_grids):
    """Waveform trend grid for K=3: the criterion-5 measurement, reused by 6 and 7.

    Its ``elapsed`` is the sum of the two K=3 sweeps' own times, whether they ran
    side by side or one after the other.
    """
    grid = {omega: trend_grids[3, omega][0] for omega in (0.05, 0.1)}
    grid["elapsed"] = sum(trend_grids[3, omega][1] for omega in (0.05, 0.1))
    return grid


@pytest.fixture(scope="module")
def k2_grid(trend_grids):
    """Waveform trend grid for K=2, used by criteria 6 and 7.

    Sized like the K=3 grid: below three active codes the order selector
    can overshoot (rate ~2e-3 at any SNR), and although the strength-ranked
    estimate ordering keeps junk estimates from stealing attributions, the
    high-SNR metrics live in the 1e-3..1e-4 range and deserve the extra
    resolution.
    """
    return {omega: trend_grids[2, omega][0] for omega in (0.05, 0.1)}


def test_criterion_1_noiseless_exactness():
    t0 = time.perf_counter()
    trials = 100
    # trial i ranges k = 1 + i % 3 users, drawn from stream (555, i)
    detected_all, worst_cfo, worst_delay = noiseless_exactness(seed=555, trials=trials, max_cfo=0.1)
    elapsed = time.perf_counter() - t0
    ok = detected_all == trials and worst_cfo <= 1e-5 and worst_delay <= 1e-2 and elapsed < 10
    verdict(
        1, "noiseless exactness",  ok,
        f"{detected_all}/{trials} exact sets, max cfo err {worst_cfo:.1e}, "
        f"max delay err {worst_delay:.1e} samples, {elapsed:.1f}s",
    )
    assert detected_all == trials
    assert worst_cfo <= 1e-5
    assert worst_delay <= 1e-2
    assert elapsed < 10


def test_criterion_2_wrap_consistency_grid():
    t0 = time.perf_counter()
    layout = SimConfig().layout()
    worst_cfo = 0.0
    worst_delay = 0.0
    codes_ok = True
    cfos = np.linspace(-0.1, 0.1, 201)
    delays = np.arange(0, 205)
    for code in (0, 1, 2):
        xi = code / (layout.n_blocks - 1) + cfos * layout.block_len / layout.n_subcarriers
        got_codes, got_cfos = map_cfo(wrap_half(xi), layout)
        codes_ok &= bool(np.all(got_codes == code))
        worst_cfo = max(worst_cfo, float(np.max(np.abs(got_cfos - cfos))))
        eta = code / (layout.tile_width - 1) - delays / layout.n_subcarriers
        got_codes, got_delays = map_timing(wrap_half(eta), layout, 204)
        codes_ok &= bool(np.all(got_codes == code))
        worst_delay = max(worst_delay, float(np.max(np.abs(got_delays - delays))))
    elapsed = time.perf_counter() - t0
    ok = codes_ok and worst_cfo <= 1e-12 and worst_delay <= 1e-9 and elapsed < 5
    verdict(
        2, "wrap-consistency grid", ok,
        f"codes exact, max cfo err {worst_cfo:.1e}, max delay err {worst_delay:.1e}, "
        f"{elapsed:.2f}s",
    )
    assert codes_ok
    assert worst_cfo <= 1e-12
    assert worst_delay <= 1e-9
    assert elapsed < 5


def test_criterion_3_oracle_equivalence():
    gap = esprit_periodogram_gap()
    ok = gap <= 2e-4
    verdict(3, "subspace vs periodogram oracle", ok, f"max gap {gap:.2e}, limit 2e-4")
    assert gap <= 2e-4


def test_criterion_4_model_order_at_high_snr():
    cfg = SimConfig(num_users=3, max_cfo=0.05, mode="waveform", master_seed=404)
    trials = 500
    hits = sum(run_trial(cfg, 30.0, i).report.num_codes == 3 for i in range(trials))
    ok = hits >= int(0.95 * trials)
    verdict(4, "order selection at 30 dB", ok, f"{hits}/{trials} correct, need >= 475")
    assert hits >= int(0.95 * trials)


def failure_counts(rows):
    """Trials whose detected set was wrong, per SNR point, and the trials per point."""
    trials = rows[0].trials
    return [round(row.p_f * row.trials) for row in rows], trials


@pytest.mark.slow
def test_criterion_5_detection_error_trend(k3_grid, k2_grid):
    all_ok = True
    details = []
    for omega in (0.05, 0.1):
        pf = [row.p_f for row in k3_grid[omega]]
        counts, trials = failure_counts(k3_grid[omega])
        trend = resolved_decreasing_counts(counts, trials)
        collapse = pf[2] <= 0.1 * pf[0] or pf[2] <= 0.01
        all_ok &= trend and collapse
        details.append(
            f"omega {omega}: failures {', '.join(format_count(c, trials) for c in counts)} "
            f"trend={'yes' if trend else 'NO'} collapse={'yes' if collapse else 'NO'}"
        )
    # K=3 uses every code, so only the K=2 grid (one idle code) can show false alarms
    for omega in (0.05, 0.1):
        counts, trials = failure_counts(k2_grid[omega])
        trend = resolved_decreasing_counts(counts, trials)
        all_ok &= trend
        details.append(f"K=2 omega {omega}: failures "
                       f"{', '.join(format_count(c, trials) for c in counts)} "
                       f"trend={'yes' if trend else 'NO'}")
    elapsed = k3_grid["elapsed"]
    all_ok &= elapsed < 600
    verdict(5, "detection error vs SNR trend", all_ok,
            "; ".join(details) + f"; {elapsed:.0f}s, limit 600s")
    for omega in (0.05, 0.1):
        pf = [row.p_f for row in k3_grid[omega]]
        counts, trials = failure_counts(k3_grid[omega])
        assert pf[2] <= 0.1 * pf[0] or pf[2] <= 0.01, f"no collapse at omega {omega}: {pf}"
        assert resolved_decreasing_counts(counts, trials), (
            f"failure counts at omega {omega} do not fall with SNR as far as "
            f"{trials} seeded trials per point resolve: "
            f"{', '.join(format_count(c, trials) for c in counts)} at "
            f"{'/'.join(f'{row.snr_db:g}' for row in k3_grid[omega])} dB "
            f"(see the criterion-5 paragraph under 'Install and test' in README.md)"
        )
        counts, trials = failure_counts(k2_grid[omega])
        assert resolved_decreasing_counts(counts, trials), (
            f"K=2 failure counts, false alarms included, at omega {omega} do not fall with SNR: "
            f"{', '.join(format_count(c, trials) for c in counts)}"
        )
    assert elapsed < 600


@pytest.mark.slow
def test_criterion_6_cfo_rmse_trend(k3_grid, k2_grid):
    ref = k2_grid[0.05][2].rmse_eps   # K=2, omega=0.05, 20 dB
    hard = k3_grid[0.1][2].rmse_eps   # K=3, omega=0.1, 20 dB
    ratio = hard / ref
    ratio_ok = 0.5 <= ratio <= 2.0
    mono_ok = True
    for grid, k in ((k2_grid, 2), (k3_grid, 3)):
        for omega in (0.05, 0.1):
            rmses = [row.rmse_eps for row in grid[omega]]
            mono_ok &= all(r is not None for r in rmses) and strictly_decreasing(rmses)
    ok = ratio_ok and mono_ok
    verdict(
        6, "CFO RMSE trend", ok,
        f"rmse(K=3,om=0.1)/rmse(K=2,om=0.05) at 20 dB = {ratio:.2f} (need 0.5..2), "
        f"monotone in SNR: {'yes' if mono_ok else 'NO'}",
    )
    assert ratio_ok, f"ratio {ratio}"
    assert mono_ok


@pytest.mark.slow
def test_criterion_7_timing_error_trend(k3_grid, k2_grid):
    ok = True
    details = []
    for grid, k in ((k2_grid, 2), (k3_grid, 3)):
        for omega in (0.05, 0.1):
            perr = [row.p_err_timing for row in grid[omega]]
            strict = strictly_decreasing(perr)
            ok &= strict
            details.append(
                f"K={k} omega {omega}: {perr[0]:.4g}/{perr[1]:.4g}/{perr[2]:.4g}"
                + ("" if strict else " NOT STRICT")
            )
    verdict(7, "timing error probability trend", ok, "; ".join(details))
    for grid, k in ((k2_grid, 2), (k3_grid, 3)):
        for omega in (0.05, 0.1):
            perr = [row.p_err_timing for row in grid[omega]]
            assert strictly_decreasing(perr), f"K={k} omega={omega}: {perr}"


def test_criterion_8_linear_algebra_property_suite():
    rng = np.random.default_rng(888)
    count = 1000

    fb_ok = True
    for _ in range(count):
        n = int(rng.integers(2, 7))
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out = forward_backward(r)
        j = np.eye(n)[::-1]
        fb_ok &= np.array_equal(out, j @ out.T @ j)
        fb_ok &= np.array_equal(forward_backward(out), out)

    evd_worst = 0.0
    trace_worst = 0.0
    fro_worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 7))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (b + b.conj().T)
        lam, vecs = hermitian_evd(a)
        recon = vecs @ np.diag(lam) @ vecs.conj().T
        scale = max(1.0, float(np.linalg.norm(a)))
        evd_worst = max(evd_worst, float(np.max(np.abs(recon - a))) / scale)
        trace_worst = max(
            trace_worst, abs(np.sum(lam) - np.trace(a).real) / scale
        )
        fro_worst = max(
            fro_worst,
            abs(np.sum(lam**2) - np.linalg.norm(a) ** 2) / max(1.0, scale**2),
        )

    eig_worst = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        roots = general_eigenvalues(a)
        scale = max(1.0, float(np.max(np.abs(a))) ** n)
        eig_worst = max(eig_worst, abs(np.sum(roots) - np.trace(a)) / scale)
        eig_worst = max(eig_worst, abs(np.prod(roots) - np.linalg.det(a)) / scale)

    ok = (
        fb_ok and evd_worst <= 1e-10 and trace_worst <= 1e-10
        and fro_worst <= 1e-10 and eig_worst <= 1e-8
    )
    verdict(
        8, "linear algebra property suite", ok,
        f"fb exact={fb_ok}, evd recon {evd_worst:.1e}, trace {trace_worst:.1e}, "
        f"fro {fro_worst:.1e}, eig identities {eig_worst:.1e}",
    )
    assert fb_ok
    assert evd_worst <= 1e-10
    assert trace_worst <= 1e-10
    assert fro_worst <= 1e-10
    assert eig_worst <= 1e-8


def test_criterion_9_cli_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "num_users = 2\nmax_cfo = 0.05\nsnr_list_db = 0, 20\n"
        "trials = 30\nmode = waveform\nmaster_seed = 7\n"
    )
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = run_module("run", "--config", cfg, "--out", out, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    verdict(9, "CLI byte determinism", ok, f"{len(outputs[0])} bytes, identical={ok}")
    assert ok
