"""The committed decision record: every trial's decision at fixed points, recomputed.

``data/decision_record.json`` holds, for each point below, the per-trial decision string
``K̂:detected codes:collisions`` of trials 0..TRIALS-1 from ``RECORD_SEED``, and the point's
``MetricsRow``.  A refactor that claims "same numbers" must leave every decision equal and
``rmse_eps`` within ``RMSE_REL_TOL``; a mismatch names the first differing (seed, trial, SNR),
which ``run_trial(cfg, snr, trial)`` replays.  A mismatch under another numpy or BLAS is a
finding to report, not a reason to loosen the test.

Regenerate (only for a change that moves decisions on purpose, and say so):

    PYTHONPATH=src python tests/test_decision_record.py
"""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from rangesim.simlab import SimConfig, compute_metrics, run_trial

RECORD_PATH = Path(__file__).resolve().parent / "data" / "decision_record.json"
RECORD_SEED = 4021  # fixed before the record was first generated
TRIALS = 200
RMSE_REL_TOL = 1e-12
# (mode, K, max_cfo, SNR points in dB): the K=3 waterfall, K=2 where MDL overshoots, idle slots
POINTS = [(mode, k, 0.1, snrs) for mode in ("waveform", "model")
          for k, snrs in ((3, (-4.0, -2.0, 0.0)), (2, (0.0, 20.0)), (0, (0.0,)))]


def decision(report) -> str:
    """``K̂:detected codes, ascending:collisions`` of one trial's report."""
    return f"{report.num_codes}:{','.join(map(str, sorted(report.detected)))}:{report.collisions}"


def compute_point(mode, k, omega, snr_db):
    """The per-trial decisions and the ``MetricsRow`` (as a dict) of one recorded point."""
    cfg = SimConfig(num_users=k, max_cfo=omega, mode=mode, snr_list_db=(snr_db,),
                    trials=TRIALS, master_seed=RECORD_SEED)
    results = [run_trial(cfg, snr_db, i) for i in range(TRIALS)]
    return [decision(r.report) for r in results], asdict(compute_metrics(results, snr_db, cfg))


def compute_record() -> dict:
    points = []
    for mode, k, omega, snrs in POINTS:
        for snr_db in snrs:
            decisions, row = compute_point(mode, k, omega, snr_db)
            points.append({"mode": mode, "k": k, "omega": omega, "snr_db": snr_db,
                           "decisions": decisions, "row": row})
    return {"seed": RECORD_SEED, "trials": TRIALS, "numpy": np.__version__,
            "decision": "K-hat:detected codes, ascending:collisions", "points": points}


RECORD = json.loads(RECORD_PATH.read_text())


def test_record_covers_every_point_from_its_seed():
    assert (RECORD["seed"], RECORD["trials"]) == (RECORD_SEED, TRIALS)
    assert [(p["mode"], p["k"], p["omega"], p["snr_db"]) for p in RECORD["points"]] == [
        (mode, k, omega, snr) for mode, k, omega, snrs in POINTS for snr in snrs]
    assert all(len(p["decisions"]) == TRIALS for p in RECORD["points"])


@pytest.mark.parametrize("point", RECORD["points"],
                         ids=lambda p: f"{p['mode']}-k{p['k']}-{p['snr_db']:g}dB")
def test_decisions_and_metrics_match_the_record(point):
    mode, k, omega, snr_db = point["mode"], point["k"], point["omega"], point["snr_db"]
    decisions, row = compute_point(mode, k, omega, snr_db)
    where = f"{mode} mode, K={k}, max_cfo={omega} (record made with numpy {RECORD['numpy']})"
    for trial, (recorded, got) in enumerate(zip(point["decisions"], decisions)):
        assert got == recorded, (
            f"first differing trial: (seed {RECORD_SEED}, trial {trial}, SNR {snr_db:g} dB) in "
            f"{where}: recorded {recorded!r}, got {got!r}")
    recorded_row = dict(point["row"])
    rmse, recorded_rmse = row.pop("rmse_eps"), recorded_row.pop("rmse_eps")
    assert row == recorded_row, f"MetricsRow at {snr_db:g} dB in {where}"
    assert (rmse is None) == (recorded_rmse is None), f"rmse_eps at {snr_db:g} dB in {where}"
    if rmse is not None:
        assert math.isclose(rmse, recorded_rmse, rel_tol=RMSE_REL_TOL, abs_tol=0.0), (
            f"rmse_eps at {snr_db:g} dB in {where}: recorded {recorded_rmse!r}, got {rmse!r}")


if __name__ == "__main__":
    RECORD_PATH.write_text(json.dumps(compute_record(), indent=1) + "\n")
