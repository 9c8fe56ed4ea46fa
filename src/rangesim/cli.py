"""Command line front end: run sweeps, validate configs, cross-check oracles."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import RangingError
from .simlab import (
    SimConfig,
    emit_csv,
    esprit_periodogram_gap,
    load_config,
    noiseless_exactness,
    parse_snr_list,
    run_sweep,
    write_gnuplot_script,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangesim",
        description="Monte Carlo simulator for multiuser OFDMA initial ranging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep and write a CSV metrics table")
    run.add_argument("--config", required=True, help="path to a key=value config file")
    run.add_argument("--snr", help="override SNR list, e.g. '0,10,20' (dB)")
    run.add_argument("--trials", type=int, help="override trials per SNR point")
    run.add_argument("--k", type=int, help="override number of active users")
    run.add_argument("--omega", type=float, help="override maximum |CFO|")
    run.add_argument("--mode", choices=["model", "waveform"], help="override synthesis mode")
    run.add_argument("--seed", type=int, help="override master seed")
    run.add_argument("--out", default="results.csv", help="output CSV path")
    run.add_argument("--gnuplot", action="store_true",
                     help="also write a gnuplot script next to the CSV")

    val = sub.add_parser("validate", help="check a config file and print derived limits")
    val.add_argument("--config", required=True)

    sub.add_parser("oracle", help="run the noiseless estimator cross-validation suite")
    return parser


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    overrides = {}
    if args.snr is not None:
        overrides["snr_list_db"] = parse_snr_list(args.snr)
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.k is not None:
        overrides["num_users"] = args.k
    if args.omega is not None:
        overrides["max_cfo"] = args.omega
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)

    def progress(row):
        rmse = "n/a" if row.rmse_eps is None else f"{row.rmse_eps:.3e}"
        print(
            f"snr {row.snr_db:>5g} dB  p_f={row.p_f:.4f}  rmse_eps={rmse}  "
            f"p_err={row.p_err_timing:.4f}  p_f_per_code={row.p_f_per_code:.4f}"
        )

    rows = run_sweep(cfg, progress=progress)
    emit_csv(rows, args.out)
    print(f"wrote {args.out}")
    if args.gnuplot:
        script = Path(args.out).with_suffix(".gp")
        write_gnuplot_script(args.out, script)
        print(f"wrote {script}")
    return 0


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
    return 0


def _cmd_oracle() -> int:
    ok = True

    gap = esprit_periodogram_gap(trials=50, seed=77)
    passed = gap <= 2e-4
    ok &= passed
    print(f"subspace vs periodogram gap over 50 noiseless trials: {gap:.2e} "
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


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
