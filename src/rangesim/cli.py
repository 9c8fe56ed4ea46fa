"""Command line front end: run sweeps, validate configs, cross-check oracles."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import RangingError
from .simlab import (
    GAP_TRIALS,
    emit_csv,
    esprit_periodogram_gap,
    load_config,
    noiseless_exactness,
    run_sweep,
    write_gnuplot_script,
)

# `run` flag -> the SimConfig field it overrides; values are parsed like config lines
_OVERRIDES = {"snr": "snr_list_db", "trials": "trials", "k": "num_users",
             "omega": "max_cfo", "mode": "mode", "seed": "master_seed"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangesim",
        description="Monte Carlo simulator for multiuser OFDMA initial ranging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep and write a CSV metrics table",
                         description="Run a sweep trial-major (every SNR point of one trial "
                                     "index before the next), then print one line per SNR "
                                     "point and write the CSV metrics table.")
    run.add_argument("--config", required=True, help="path to a key=value config file")
    for flag, key in _OVERRIDES.items():
        run.add_argument(f"--{flag}", dest=key, help=f"override {key}, written as in a config file")
    run.add_argument("--out", default="results.csv", help="output CSV path")
    run.add_argument("--gnuplot", action="store_true",
                     help="also write a gnuplot script next to the CSV")

    val = sub.add_parser("validate", help="check a config file and print derived limits")
    val.add_argument("--config", required=True)

    sub.add_parser("oracle", help="run the noiseless estimator cross-validation suite")
    return parser


def _cmd_run(args) -> int:
    flags = {key: getattr(args, key) for key in _OVERRIDES.values()}
    cfg = load_config(args.config, [(key, text) for key, text in flags.items() if text is not None])
    rows = run_sweep(cfg)
    for row in rows:
        rmse = "n/a" if row.rmse_eps is None else f"{row.rmse_eps:.3e}"
        print(
            f"snr {row.snr_db:>5g} dB  p_f={row.p_f:.4f}  rmse_eps={rmse}  "
            f"p_err={row.p_err_timing:.4f}  p_f_per_code={row.p_f_per_code:.4f}"
        )
    emit_csv(rows, args.out)
    print(f"wrote {args.out}")
    if args.gnuplot:
        print(f"wrote {write_gnuplot_script(args.out)}")
    return 0


def _tile_spread(layout, profile) -> float:
    """Expected share of a tile's channel energy outside its mean over the tile's bins:
    1 - (1/W^2) sum_{v,v'} sum_l s_l exp(-2j pi l (v - v') / N) for tap powers s_l, which is
    1 - sum_l s_l |mean_v exp(-2j pi l v / N)|^2."""
    taps_by_bins = np.outer(np.arange(profile.n_taps), np.arange(layout.tile_width))
    means = np.exp(-2j * np.pi * taps_by_bins / layout.n_subcarriers).mean(axis=1)
    return 1.0 - float(profile.tap_variances() @ np.abs(means) ** 2)


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    layout = cfg.layout()
    beta = cfg.max_cfo / (2.0 * layout.acquisition_bound)
    alpha = cfg.max_delay / (2.0 * layout.delay_bound)
    print("configuration is valid")
    print(f"  acquisition margin beta = {beta:.6g} (must be < 0.5)")
    print(f"  timing margin alpha     = {alpha:.6g} (must be < 0.5)")
    print(f"  max simultaneous codes  = {layout.max_codes}")
    print(f"  acquisition bound       = max_cfo < {layout.acquisition_bound:.6g}")
    print(f"  tile channel spread     = {_tile_spread(layout, cfg.channel_profile()):.3g} "
          "(channel energy off each tile's mean)")
    return 0


def _cmd_oracle() -> int:
    ok = True

    gap = esprit_periodogram_gap()
    passed = gap <= 2e-4
    ok &= passed
    print(f"subspace vs periodogram gap over {GAP_TRIALS} noiseless trials: {gap:.2e} "
          f"{'PASS' if passed else 'FAIL'} (limit 2e-4)")

    exact_trials, worst_cfo, worst_delay = noiseless_exactness(seed=99, trials=20, max_cfo=0.05)
    exact = exact_trials == 20
    passed = exact and worst_cfo <= 1e-5 and worst_delay <= 1e-2
    ok &= passed
    print(f"noiseless end-to-end: detection {'exact' if exact else 'WRONG'}, "
          f"max cfo error {worst_cfo:.2e}, max delay error {worst_delay:.2e} "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_oracle()
    except (RangingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
