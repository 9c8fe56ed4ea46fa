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
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
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
from .errors import (ConfigError, DimensionError, RangingError, ValidationError, require_finite,
                     require_int)
from .ranger import RangerConfig, RangingReport, freq_snapshots, range_subchannel

CSV_HEADER = "snr_db,p_f,rmse_eps,p_err_timing,trials,k,omega,mode"
_CONFIG_KEYS = {"spacing": "tile_spacing", "ranging prefix": "cp_ranging",
                "n_taps": "channel_taps", "decay constant": "channel_decay"}


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: geometry, channel, traffic and protocol knobs.

    Defaults reproduce the documented reference setup: 1024 subcarriers,
    16 four-carrier tiles observed over 4 blocks, 12-tap channels with
    decay constant 12, delays up to 204 samples, ranging prefix 256 and
    data prefix 32.  Construction and ``dataclasses.replace`` run :meth:`validate`.
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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigError` on the first violated invariant, field types first:
        each integer field (``tile_spacing`` unless None) must be a non-negative integer."""
        for name, hint in _FIELD_HINTS.items():
            value = getattr(self, name)
            if value is not None and hint in (int, int | None):
                require_int(name, value, 0, error=ConfigError)
            elif not _has_field_type(value, hint):  # the message quotes the annotation's text
                raise ConfigError(f"{name} must be {SimConfig.__annotations__[name]}, got {value!r}")
        try:
            layout = self.layout()
            self.channel_profile()
        except RangingError as exc:  # name the key when the layout or profile names it otherwise
            key = next((k for n, k in _CONFIG_KEYS.items() if str(exc).startswith(n + " ")), None)
            raise ConfigError(f"{key}: {exc}" if key else str(exc)) from exc
        if not 0 <= self.max_cfo < layout.acquisition_bound:  # also rejects NaN
            raise ConfigError(f"max_cfo must lie in [0, {layout.acquisition_bound:.6g}), "
                              f"the acquisition bound, got {self.max_cfo}")
        require_int("max_delay", self.max_delay, 0, math.ceil(layout.delay_bound) - 1, ConfigError)
        require_int("num_users", self.num_users, 0, layout.max_codes, ConfigError)
        if self.max_delay + self.channel_taps > self.cp_ranging:
            raise ConfigError("max_delay plus channel_taps must fit inside cp_ranging")
        # cp_data must exceed channel_taps or no delay is tolerable
        require_int("cp_data", self.cp_data, self.channel_taps + 1, error=ConfigError)
        require_int("trials", self.trials, 1, error=ConfigError)
        floor = layout.snr_floor_db
        if not self.snr_list_db or not all(snr > floor for snr in self.snr_list_db):  # and NaN
            raise ConfigError(f"snr_list_db must hold one or more numbers above {floor:.6g} dB "
                              f"or +inf, got {self.snr_list_db}")
        if self.mode not in ("model", "waveform"):
            raise ConfigError(f"mode must be 'model' or 'waveform', got {self.mode!r}")


@dataclass
class TrialResult:
    """One trial's ground truth and the receiver's report; :func:`compute_metrics` scores it."""

    truth: list[UserTruth]
    report: RangingReport

    @property
    def detected_flags(self) -> list[bool]:
        """Whether each true user's code was detected, in truth order."""
        detected = self.report.detected
        return [user.code in detected for user in self.truth]


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
    """Noise power for a given SNR in dB; +inf maps to exactly zero.

    One check that the power is finite rejects NaN, -inf and overflow (:class:`ValidationError`).
    """
    if snr_db == math.inf:
        return 0.0
    try:
        var = math.pow(10.0, -snr_db / 10.0)
    except OverflowError:
        var = math.inf
    if not math.isfinite(var):
        raise ValidationError(f"SNR {snr_db} dB has no finite noise power")
    return var


def timing_error_event(delay_est: float, delay_true: float, cp_data: int, n_taps: int) -> bool:
    """Whether a delay estimate would cause interblock interference later on.

    The receiver backs the window off by half the data-phase slack, so the
    shifted error must stay within the interference-free span of the data
    prefix: no event iff ``n_taps - cp_data - 1 <= err <= 0`` with
    ``err = (delay_est - delay_true) + (n_taps - cp_data) / 2``.
    """
    err = require_finite("delay estimate", delay_est) - require_finite("true delay", delay_true)
    err += (n_taps - cp_data) / 2.0  # a NaN error would compare False both ways: read as aligned
    return err > 0 or err < n_taps - cp_data - 1


def draw_users(cfg: SimConfig, rng: np.random.Generator, count: int | None = None) -> list[UserTruth]:
    """Sample one trial's ground truth: distinct codes, uniform delays and CFOs."""
    layout = cfg.layout()
    k = cfg.num_users if count is None else require_int("user count", count, 0, layout.max_codes)
    if k == 0:  # empty draws consume nothing from the stream, so skip them
        return []
    codes = rng.choice(layout.max_codes, size=k, replace=False).tolist()
    delays = rng.integers(0, cfg.max_delay + 1, size=k).tolist()
    omega = abs(cfg.max_cfo)  # -0.0 draws as zero offset, not as an empty interval
    cfos = rng.uniform(-omega, omega, size=k).tolist()
    cirs = draw_channel(cfg.channel_profile(), rng, size=k)  # one draw, as k calls in a row
    return [UserTruth(*fields) for fields in zip(codes, delays, cfos, cirs)]


def run_trial(cfg: SimConfig, snr_db: float, trial_index: int) -> TrialResult:
    """Draw one scenario, synthesize and range it.

    The random stream depends only on the master seed and the trial index,
    so the same index reuses its scenario at every SNR point.
    """
    layout = cfg.layout()
    var = noise_variance(snr_db)
    if not snr_db > layout.snr_floor_db:
        raise ValidationError(f"SNR {snr_db} dB is not above the floor {layout.snr_floor_db:.6g} dB")
    rng = np.random.default_rng([cfg.master_seed, require_int("trial index", trial_index, 0)])
    truth = draw_users(cfg, rng)

    synthesize = synthesize_model_mode if cfg.mode == "model" else synthesize_waveform_mode
    obs = synthesize(truth, layout, var, rng)
    return TrialResult(truth, range_subchannel(obs, RangerConfig(max_delay=cfg.max_delay)))


def compute_metrics(results: Iterable[TrialResult], snr_db: float, cfg: SimConfig) -> MetricsRow:
    """Score each user of one SNR point's trials, in index order, and reduce to metrics.

    ``p_f`` counts trials whose detected set differs from the true set in
    either direction; the per-code variant normalises missed plus false
    codes by the total code opportunities.  The CFO error statistic uses
    correctly detected users only, and an undetected user always counts as
    a timing error event.  ``results`` may be a one-pass iterator.
    """
    max_codes = cfg.layout().max_codes
    n = bad_trials = bad_codes = users = timing_events = 0
    # summed by sum(): from Python 3.12 it compensates, so a running += would round differently
    squared = []
    for n, res in enumerate(results, start=1):
        wrong = res.report.detected.symmetric_difference(u.code for u in res.truth)
        bad_trials += bool(wrong)
        bad_codes += len(wrong)
        users += len(res.truth)
        for user in res.truth:
            if user.code not in res.report.per_code:
                timing_events += 1  # a missed user can never be aligned
                continue
            cfo_hat, delay_hat = res.report.per_code[user.code]
            e = cfo_hat - user.cfo
            squared.append(e * e)
            timing_events += timing_error_event(delay_hat, user.delay, cfg.cp_data,
                                                cfg.channel_taps)
    if n == 0:
        raise ConfigError("compute_metrics needs at least one trial result")
    rmse = math.sqrt(sum(squared) / len(squared)) if squared else None
    p_err = timing_events / users if users else 0.0
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


WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


def wilson_interval(count, trials):
    """Wilson score 95% interval for a binomial proportion ``count / trials``."""
    require_int("count", count, 0, require_int("trial count", trials, 1))
    p = count / trials
    z2 = WILSON_Z * WILSON_Z
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = WILSON_Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (1 + z2 / trials)
    return max(0.0, centre - half), min(1.0, centre + half)


def format_count(count, trials):
    """``105/10000``, or ``0/10000 (< 3.8e-4)`` with the Wilson upper bound."""
    upper = wilson_interval(count, trials)[1]  # also rejects an impossible count
    if count:
        return f"{count}/{trials}"
    mantissa, exponent = f"{upper:.1e}".split("e")
    return f"0/{trials} (< {mantissa}e{int(exponent)})"


def run_sweep(cfg: SimConfig, progress=None) -> list[MetricsRow]:
    """One metrics row per configured SNR point, in order; trials are scored as they run."""
    rows = []
    for snr_db in cfg.snr_list_db:
        trials = (run_trial(cfg, snr_db, i) for i in range(cfg.trials))
        row = compute_metrics(trials, snr_db, cfg)
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def oracle_periodogram(snapshots, grid_resolution: float) -> float:
    """Brute-force single-source frequency estimate by dense grid search.

    Maximises the summed matched-filter power over frequencies in
    [-1/2, 1/2), ``grid_resolution`` apart (at most 1); deliberately
    independent of the subspace pipeline so the two can cross-validate.
    """
    if not 0 < grid_resolution <= 1:  # also rejects NaN
        raise ValidationError(f"grid resolution must lie in (0, 1], got {grid_resolution}")
    snaps = np.asarray(snapshots, dtype=complex)
    if snaps.ndim != 2 or snaps.size == 0:
        raise DimensionError(f"need a non-empty (snapshots, n) array, got shape {snaps.shape}")
    n = require_finite("snapshots", snaps).shape[1]
    count = int(round(1.0 / grid_resolution))
    grid = -0.5 + grid_resolution * np.arange(count)
    probes = np.exp(-2j * np.pi * np.outer(grid, np.arange(n)))
    power = np.sum(np.abs(probes @ snaps.T) ** 2, axis=1)
    return float(grid[int(np.argmax(power))])


def _noiseless_known_k_trials(cfg: SimConfig, seed: int, trials: int, counts: tuple[int, ...]):
    """``(users, obs, report)`` per noiseless model-mode trial ``i < trials``: ``counts[i %
    len(counts)]`` users from the stream ``(seed, i)``, ranged with that count given.
    Checks that ``seed`` is a non-negative integer and ``trials`` a positive one
    (:class:`ValidationError`) before the first trial."""
    require_int("seed", seed, 0)
    require_int("trial count", trials, 1)
    for trial in range(trials):
        count = counts[trial % len(counts)]
        rng = np.random.default_rng([seed, trial])
        users = draw_users(cfg, rng, count=count)
        obs = synthesize_model_mode(users, cfg.layout(), 0.0, rng)
        ranger = RangerConfig(max_delay=cfg.max_delay, known_num_codes=count)
        yield users, obs, range_subchannel(obs, ranger)


def esprit_periodogram_gap(trials: int = 50, seed: int = 77, grid_resolution: float = 1e-4) -> float:
    """Worst disagreement between the pipeline and the grid oracle.

    Runs noiseless single-user scenarios and compares the subspace
    frequency estimate against :func:`oracle_periodogram`, wrap-aware.
    """
    worst = 0.0
    for _, obs, report in _noiseless_known_k_trials(SimConfig(), seed, trials, (1,)):
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
    for users, _, report in _noiseless_known_k_trials(cfg, seed, trials, (1, 2, 3)):
        if report.detected != {u.code for u in users}:
            continue
        exact += 1
        for u in users:
            cfo_hat, delay_hat = report.per_code[u.code]
            worst_cfo = max(worst_cfo, abs(cfo_hat - u.cfo))
            worst_delay = max(worst_delay, abs(delay_hat - u.delay))
    return exact, worst_cfo, worst_delay


def emit_csv(rows: list[MetricsRow], destination) -> None:
    """Write the ``CSV_HEADER`` columns, each value cast to its ``MetricsRow`` field type."""
    path = Path(destination)
    hints = get_type_hints(MetricsRow)
    casts = [(name, _field_parser(hints[name])) for name in CSV_HEADER.split(",")]
    lines = [CSV_HEADER]
    for row in rows:
        values = [(cast, getattr(row, name)) for name, cast in casts]
        lines.append(",".join("" if v is None else str(cast(v)) for cast, v in values))
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
    return tuple(float(t) for t in text.replace(",", " ").split())


def _field_parser(hint):
    """The parser or cast for one field type; ``int | None`` parses as int."""
    if hint == tuple[float, ...]:
        return parse_snr_list
    return get_args(hint)[0] if get_args(hint) else hint


def _has_field_type(value, hint) -> bool:
    """Whether ``value`` fits a non-integer ``SimConfig`` field hint; numpy floats fit, bools
    do not."""
    if hint == tuple[float, ...]:
        return isinstance(value, tuple) and all(_has_field_type(v, float) for v in value)
    return isinstance(value, numbers.Real if hint is float else hint) and not isinstance(value, bool)


_FIELD_HINTS = get_type_hints(SimConfig)  # evaluated once: each call re-evaluates every annotation
_FIELD_PARSERS = {name: _field_parser(hint) for name, hint in _FIELD_HINTS.items()}


def parse_setting(key: str, text: str):
    """One ``SimConfig`` field's value, parsed from text by the field's type."""
    if key not in _FIELD_PARSERS:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return _FIELD_PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_text(text: str, overrides=()) -> SimConfig:
    """Parse flat ``key = value`` lines, then ``(key, text)`` overrides, into a configuration.

    Blank lines and ``#`` comments are ignored; each value goes through
    :func:`parse_setting`, and a line's errors name the line.  Overrides
    apply after the lines, the last one for a key wins, and only the merged
    settings are built into a (validated) :class:`SimConfig`.
    """
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        try:
            settings[key] = parse_setting(key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    settings.update((key, parse_setting(key, value)) for key, value in overrides)
    return SimConfig(**settings)


def load_config(path, overrides=()) -> SimConfig:
    """:func:`parse_config_text` of a config file's lines and ``(key, text)`` overrides."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"could not read config {path}: {exc}") from exc
    return parse_config_text(text, overrides)
