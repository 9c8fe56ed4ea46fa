"""Seeded Monte Carlo harness, metrics, configuration and CSV output.

A sweep runs independent trials per SNR point.  Each trial draws fresh
user truths and noise from a stream keyed on (master seed, trial index)
only, so the same trial index sees the same users at every SNR point and
two runs with the same configuration produce byte-identical CSV files.
Trials are pure functions of (config, snr, index) and may execute with
any degree of parallelism as long as results reduce in index order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .airmodel import (
    ChannelProfile,
    TileLayout,
    UserTruth,
    draw_channel,
    synthesize_model_mode,
    synthesize_waveform_mode,
)
from .errors import ConfigError, RangingError, ValidationError
from .ranger import RangerConfig, RangingReport, freq_snapshots, range_subchannel

CSV_HEADER = "snr_db,p_f,rmse_eps,p_err_timing,trials,k,omega,mode"
# Gaussian-tail allowance: a circular Gaussian sample's power exceeds this many
# times its mean with probability exp(-100), about 4e-44.  It sets the SNR floor.
_NOISE_TAIL = 100.0


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: geometry, channel, traffic and protocol knobs.

    Defaults reproduce the documented reference setup: 1024 subcarriers,
    16 four-carrier tiles observed over 4 blocks, 12-tap channels with
    decay constant 12, delays up to 204 samples, ranging prefix 256 and
    data prefix 32.
    """

    n_subcarriers: int = 1024
    n_blocks: int = 4
    n_tiles: int = 16
    tile_width: int = 4
    cp_ranging: int = 256
    cp_data: int = 32
    tile_spacing: int | None = None
    channel_taps: int = 12
    channel_decay: float = 12.0
    num_users: int = 3
    max_cfo: float = 0.05
    max_delay: int = 204
    snr_list_db: tuple[float, ...] = (0.0, 10.0, 20.0)
    trials: int = 1000
    mode: str = "waveform"
    master_seed: int = 1

    def layout(self) -> TileLayout:
        return TileLayout.uniform(
            self.n_subcarriers,
            self.n_blocks,
            self.n_tiles,
            self.tile_width,
            self.cp_ranging,
            spacing=self.tile_spacing,
        )

    def channel_profile(self) -> ChannelProfile:
        return ChannelProfile(self.channel_taps, self.channel_decay)

    def ranger_config(self) -> RangerConfig:
        return RangerConfig(max_delay=self.max_delay)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on the first violated invariant."""
        try:
            layout = self.layout()
            self.channel_profile()
        except RangingError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0 <= self.max_cfo < layout.acquisition_bound:  # also rejects NaN
            raise ConfigError(f"max_cfo must lie in [0, {layout.acquisition_bound:.6g}), "
                              f"the acquisition bound, got {self.max_cfo}")
        if not 0 <= self.max_delay < layout.delay_bound:
            raise ConfigError(f"max_delay must lie in [0, {layout.delay_bound:.0f})")
        if not 0 <= self.num_users <= layout.max_codes:
            raise ConfigError(f"num_users must lie in [0, {layout.max_codes}]")
        if self.max_delay + self.channel_taps > self.cp_ranging:
            raise ConfigError("max_delay plus channel_taps must fit inside cp_ranging")
        if self.cp_data <= self.channel_taps:
            raise ConfigError("cp_data must exceed channel_taps or no delay is tolerable")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if not self.snr_list_db:
            raise ConfigError("snr_list_db cannot be empty")
        # Each stage's correlation sums noise products over its snapshots before
        # averaging; that sum must stay finite even if every sample's power
        # reaches _NOISE_TAIL times its mean.
        snapshots = layout.n_tiles * max(layout.tile_width, layout.n_blocks)
        min_snr_db = 10.0 * math.log10(_NOISE_TAIL * snapshots / sys.float_info.max)
        if not all(snr > min_snr_db for snr in self.snr_list_db):  # also rejects NaN
            raise ConfigError(f"snr_list_db entries must be numbers above {min_snr_db:.6g} dB "
                              f"or +inf, got {self.snr_list_db}")
        if self.mode not in ("model", "waveform"):
            raise ConfigError(f"mode must be 'model' or 'waveform', got {self.mode!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")


@dataclass
class TrialResult:
    """Everything needed to score one trial."""

    truth: list[UserTruth]
    report: RangingReport
    detected_flags: list[bool]
    timing_error_flags: list[bool]
    cfo_errors: list[float | None]


@dataclass
class MetricsRow:
    """Aggregate metrics for one SNR point."""

    snr_db: float
    p_f: float
    rmse_eps: float | None
    p_err_timing: float
    trials: int
    k: int
    omega: float
    mode: str
    p_f_per_code: float = 0.0  # diagnostic: (missed + false) per code opportunity


def noise_variance(snr_db: float) -> float:
    """Noise power for a given SNR in dB; +inf maps to exactly zero."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return 10.0 ** (-snr_db / 10.0)


def timing_error_event(delay_est: float, delay_true: float, cp_data: int, n_taps: int) -> bool:
    """Whether a delay estimate would cause interblock interference later on.

    The receiver backs the window off by half the data-phase slack, so the
    shifted error must stay within the interference-free span of the data
    prefix: no event iff ``n_taps - cp_data - 1 <= err <= 0`` with
    ``err = (delay_est - delay_true) + (n_taps - cp_data) / 2``.
    """
    err = (delay_est - delay_true) + (n_taps - cp_data) / 2.0
    return err > 0 or err < n_taps - cp_data - 1


def draw_users(cfg: SimConfig, rng: np.random.Generator, count: int | None = None) -> list[UserTruth]:
    """Sample one trial's ground truth: distinct codes, uniform delays and CFOs."""
    layout = cfg.layout()
    profile = cfg.channel_profile()
    k = cfg.num_users if count is None else count
    if not 0 <= k <= layout.max_codes:
        raise ValidationError(f"user count {k} outside [0, {layout.max_codes}]")
    codes = rng.choice(layout.max_codes, size=k, replace=False)
    delays = rng.integers(0, cfg.max_delay + 1, size=k)
    omega = abs(cfg.max_cfo)  # -0.0 draws as zero offset, not as an empty interval
    cfos = rng.uniform(-omega, omega, size=k)
    return [
        UserTruth(int(codes[i]), int(delays[i]), float(cfos[i]), draw_channel(profile, rng))
        for i in range(k)
    ]


def run_trial(cfg: SimConfig, snr_db: float, trial_index: int) -> TrialResult:
    """Draw one scenario, synthesize, range, and score each user.

    The random stream depends only on the master seed and the trial index,
    so the same index reuses its scenario at every SNR point.
    """
    layout = cfg.layout()
    rng = np.random.default_rng([cfg.master_seed, trial_index])
    truth = draw_users(cfg, rng)

    var = noise_variance(snr_db)
    if cfg.mode == "model":
        obs = synthesize_model_mode(truth, layout, var, rng)
    elif cfg.mode == "waveform":
        obs = synthesize_waveform_mode(truth, layout, var, rng)
    else:
        raise ConfigError(f"mode must be 'model' or 'waveform', got {cfg.mode!r}")

    report = range_subchannel(obs, cfg.ranger_config())

    detected_flags: list[bool] = []
    timing_flags: list[bool] = []
    cfo_errors: list[float | None] = []
    for user in truth:
        hit = user.code in report.detected
        detected_flags.append(hit)
        if hit:
            cfo_hat, delay_hat = report.per_code[user.code]
            cfo_errors.append(cfo_hat - user.cfo)
            timing_flags.append(
                timing_error_event(delay_hat, user.delay, cfg.cp_data, cfg.channel_taps)
            )
        else:
            cfo_errors.append(None)
            timing_flags.append(True)  # a missed user can never be aligned
    return TrialResult(truth, report, detected_flags, timing_flags, cfo_errors)


def compute_metrics(results: list[TrialResult], snr_db: float, cfg: SimConfig) -> MetricsRow:
    """Reduce one SNR point's trials to the reported metrics.

    ``p_f`` counts trials whose detected set differs from the true set in
    either direction; the per-code variant normalises missed plus false
    codes by the total code opportunities.  The CFO error statistic uses
    correctly detected users only, and an undetected user always counts as
    a timing error event.
    """
    if not results:
        raise ConfigError("compute_metrics needs at least one trial result")
    max_codes = cfg.layout().max_codes
    bad_trials = 0
    bad_codes = 0
    squared = []
    user_events = []
    for res in results:
        true_set = {u.code for u in res.truth}
        if res.report.detected != true_set:
            bad_trials += 1
        bad_codes += len(true_set - res.report.detected)
        bad_codes += len(res.report.detected - true_set)
        squared.extend(e * e for e in res.cfo_errors if e is not None)
        user_events.extend(res.timing_error_flags)
    n = len(results)
    rmse = math.sqrt(sum(squared) / len(squared)) if squared else None
    p_err = (sum(user_events) / len(user_events)) if user_events else 0.0
    return MetricsRow(
        snr_db=snr_db,
        p_f=bad_trials / n,
        rmse_eps=rmse,
        p_err_timing=p_err,
        trials=n,
        k=cfg.num_users,
        omega=cfg.max_cfo,
        mode=cfg.mode,
        p_f_per_code=bad_codes / (max_codes * n),
    )


def run_sweep(cfg: SimConfig, progress=None) -> list[MetricsRow]:
    """One metrics row per configured SNR point, in configuration order."""
    cfg.validate()
    rows = []
    for snr_db in cfg.snr_list_db:
        results = [run_trial(cfg, snr_db, i) for i in range(cfg.trials)]
        row = compute_metrics(results, snr_db, cfg)
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def oracle_periodogram(snapshots, grid_resolution: float) -> float:
    """Brute-force single-source frequency estimate by dense grid search.

    Maximises the summed matched-filter power over frequencies in
    [-1/2, 1/2); deliberately independent of the subspace pipeline so the
    two can cross-validate each other.
    """
    snaps = np.asarray(snapshots, dtype=complex)
    n = snaps.shape[1]
    count = int(round(1.0 / grid_resolution))
    grid = -0.5 + grid_resolution * np.arange(count)
    probes = np.exp(-2j * np.pi * np.outer(grid, np.arange(n)))
    power = np.sum(np.abs(probes @ snaps.T) ** 2, axis=1)
    return float(grid[int(np.argmax(power))])


def _noiseless_known_k_trial(cfg: SimConfig, seed: int, trial: int, count: int):
    """``(users, obs, report)`` of one noiseless model-mode trial ranged with ``count`` given."""
    rng = np.random.default_rng([seed, trial])
    users = draw_users(cfg, rng, count=count)
    obs = synthesize_model_mode(users, cfg.layout(), 0.0, rng)
    report = range_subchannel(obs, RangerConfig(max_delay=cfg.max_delay, known_num_codes=count))
    return users, obs, report


def esprit_periodogram_gap(trials: int = 50, seed: int = 77, grid_resolution: float = 1e-4) -> float:
    """Worst disagreement between the pipeline and the grid oracle.

    Runs noiseless single-user scenarios and compares the subspace
    frequency estimate against :func:`oracle_periodogram`, wrap-aware.
    """
    cfg = SimConfig()
    worst = 0.0
    for trial in range(trials):
        _, obs, report = _noiseless_known_k_trial(cfg, seed, trial, 1)
        diff = report.effective_cfos[0] - oracle_periodogram(freq_snapshots(obs), grid_resolution)
        worst = max(worst, abs(diff - round(diff)))
    return float(worst)


def noiseless_exactness(seed: int, trials: int, max_cfo: float) -> tuple[int, float, float]:
    """Noiseless model-mode ranging with the true code count given.

    Trial ``i`` draws ``1 + i % 3`` users of the reference setup, with
    |CFO| up to ``max_cfo``, from the stream ``(seed, i)``.  Returns the
    number of trials whose detected set is exact, and the worst CFO error
    and delay error over the users of those trials.
    """
    cfg = SimConfig(max_cfo=max_cfo, mode="model")
    exact = 0
    worst_cfo = worst_delay = 0.0
    for trial in range(trials):
        users, _, report = _noiseless_known_k_trial(cfg, seed, trial, 1 + trial % 3)
        if report.detected != {u.code for u in users}:
            continue
        exact += 1
        for u in users:
            cfo_hat, delay_hat = report.per_code[u.code]
            worst_cfo = max(worst_cfo, abs(cfo_hat - u.cfo))
            worst_delay = max(worst_delay, abs(delay_hat - u.delay))
    return exact, worst_cfo, worst_delay


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: list[MetricsRow], destination) -> None:
    """Write the metrics table; floats use shortest round-trip decimals."""
    path = Path(destination)
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    _fmt(float(row.snr_db)),
                    _fmt(float(row.p_f)),
                    _fmt(None if row.rmse_eps is None else float(row.rmse_eps)),
                    _fmt(float(row.p_err_timing)),
                    _fmt(int(row.trials)),
                    _fmt(int(row.k)),
                    _fmt(float(row.omega)),
                    row.mode,
                ]
            )
        )
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"could not write metrics to {path}: {exc}") from exc


def write_gnuplot_script(csv_path, script_path) -> None:
    """Emit a ready-to-run gnuplot script for the three metric curves."""
    csv_name = Path(csv_path).name
    stem = Path(csv_path).stem
    text = f"""# gnuplot script generated by rangesim; run: gnuplot {Path(script_path).name}
set datafile separator ","
set key autotitle columnhead
set grid
set logscale y
set xlabel "SNR (dB)"
set terminal pngcairo size 900,600

set output "{stem}_pf.png"
set ylabel "detection error probability"
plot "{csv_name}" using 1:2 with linespoints title "p_f"

set output "{stem}_rmse.png"
set ylabel "CFO RMSE (subcarrier spacings)"
plot "{csv_name}" using 1:3 with linespoints title "rmse"

set output "{stem}_perr.png"
set ylabel "timing error probability"
plot "{csv_name}" using 1:4 with linespoints title "p_err"
"""
    path = Path(script_path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"could not write gnuplot script to {path}: {exc}") from exc


def parse_snr_list(text: str) -> tuple[float, ...]:
    """SNR points in dB from comma- or space-separated values ("inf" allowed)."""
    try:
        return tuple(float(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"bad SNR list {text!r}: {exc}") from exc


def _field_parser(hint):
    """The text-to-value parser for one ``SimConfig`` field type; ``int | None`` parses as int."""
    if hint == tuple[float, ...]:
        return parse_snr_list
    return get_args(hint)[0] if get_args(hint) else hint


_FIELD_PARSERS = {name: _field_parser(hint) for name, hint in get_type_hints(SimConfig).items()}


def parse_config_text(text: str) -> SimConfig:
    """Parse flat ``key = value`` lines into a configuration.

    Blank lines and ``#`` comments are ignored; unknown keys are errors.
    Each value is parsed by its ``SimConfig`` field type; ``snr_list_db``
    takes comma- or space-separated values ("inf" allowed).
    """
    overrides = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        try:
            overrides[key] = _FIELD_PARSERS[key](value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return replace(SimConfig(), **overrides)


def load_config(path) -> SimConfig:
    """Read and validate a configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"could not read config {path}: {exc}") from exc
    cfg = parse_config_text(text)
    cfg.validate()
    return cfg
