"""Seeded Monte Carlo harness, metrics, configuration and CSV output.

A sweep runs independent trials per SNR point.  Each trial draws fresh
user truths and noise from a stream keyed on (master seed, trial index)
only, so the same trial index sees the same users at every SNR point and
two runs with the same configuration produce byte-identical CSV files.
The sweep is trial-major: all SNR points of one index run before the
next index, and each index's users and their noise-free signal are built
once, by one pure draw of a block of consecutive indices that synthesizes
the block's signals in one stacked pass and is cached for the last block
(each point of an index restores the stream to its state after that index's
draw and adds fresh noise to its signal); the rows come out after the last
index.
Trial i's stream is PCG64 seeded by ``SeedSequence([seed, i])``, hashed
for a block of 256 indices at once, and equal draw for draw to
``np.random.default_rng([seed, i])``.
Trials are pure functions of (config, snr, index) and may execute with
any degree of parallelism as long as results reduce in index order.
"""

from __future__ import annotations

import functools
import math
import numbers
from array import array
from collections.abc import Iterable
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .airmodel import (
    ChannelProfile,
    TileLayout,
    UserTruth,
    _model_signal,
    _waveform_signal,
    draw_channel,
    synthesize_model_mode,
    synthesize_waveform_mode,
)
from .cxmath import _unit_scaled
from .errors import (ConfigError, DimensionError, RangingError, ValidationError, require_finite,
                     require_int, require_numbers)
# range_subchannel stays importable here, where the benchmark's tracer wraps it; the trials
# range their own grids through its core, _range
from .ranger import RangingReport, _check_max_delay, _range, freq_snapshots, range_subchannel

CSV_HEADER = "snr_db,p_f,rmse_eps,p_err_timing,trials,k,omega,mode"
_TILE_KEYS = "n_tiles, tile_width, tile_spacing"  # the keys that place the tiles
_CONFIG_KEYS = {"spacing": "tile_spacing", "tile start": _TILE_KEYS, "tiles overlap;": _TILE_KEYS,
                "ranging prefix": "cp_ranging", "n_taps": "channel_taps",
                "decay constant": "channel_decay", "SNR": "snr_list_db"}


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: geometry, channel, traffic and protocol knobs.

    Defaults reproduce the documented reference setup: 1024 subcarriers,
    16 four-carrier tiles observed over 4 blocks, 12-tap channels with
    decay constant 12, delays up to 204 samples, ranging prefix 256 and
    data prefix 32.  Construction, ``dataclasses.replace``, copies and pickles run :meth:`validate`,
    which keeps the layout and channel profile it builds for every trial and checks each SNR
    point with :func:`noise_variance`, as every trial does.
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
        """The tile layout :meth:`validate` built from the geometry fields."""
        return self._layout

    def channel_profile(self) -> ChannelProfile:
        """The channel profile :meth:`validate` built from the channel fields."""
        return self._profile

    def __post_init__(self):
        self.validate()

    def __reduce__(self):  # copies and pickles rebuild through validate: checked, read-only
        return type(self), astuple(self)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on the first violated invariant, field types first:
        each integer field (``tile_spacing`` unless None) must be a non-negative integer.  The
        sizes then meet ``airmodel``'s caps where the layout and channel profile are built,
        before anything is allocated."""
        for name, hint in _FIELD_HINTS.items():
            value = getattr(self, name)
            if value is not None and hint in (int, int | None):
                require_int(name, value, 0, error=ConfigError)
            elif not _has_field_type(value, hint):  # the message quotes the annotation's text
                raise ConfigError(f"{name} must be {SimConfig.__annotations__[name]}, got {value!r}")
        if not self.snr_list_db:
            raise ConfigError("snr_list_db must hold one or more SNR points")
        try:
            layout = TileLayout.uniform(self.n_subcarriers, self.n_blocks, self.n_tiles,
                                        self.tile_width, self.cp_ranging, spacing=self.tile_spacing)
            profile = ChannelProfile(self.channel_taps, self.channel_decay)
            for snr_db in self.snr_list_db:
                noise_variance(snr_db, layout)
        except RangingError as exc:  # name the key when the message names it otherwise
            key = next((k for n, k in _CONFIG_KEYS.items() if str(exc).startswith(n + " ")), None)
            raise ConfigError(f"{key}: {exc}" if key else str(exc)) from exc
        self.__dict__.update(_layout=layout, _profile=profile)  # frozen: set here only
        if not 0 <= self.max_cfo < layout.acquisition_bound:  # also rejects NaN
            raise ConfigError(f"max_cfo must lie in [0, {layout.acquisition_bound:.6g}), "
                              f"the acquisition bound, got {self.max_cfo}")
        _check_max_delay(layout, self.max_delay)
        require_int("num_users", self.num_users, 0, layout.max_codes, ConfigError)
        if self.max_delay + self.channel_taps > self.cp_ranging:
            raise ConfigError("max_delay plus channel_taps must fit inside cp_ranging")
        # cp_data must exceed channel_taps or no delay is tolerable, and extends a block as
        # cp_ranging does
        require_int("cp_data", self.cp_data, self.channel_taps + 1, self.n_subcarriers, ConfigError)
        require_int("trials", self.trials, 1, error=ConfigError)
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


def noise_variance(snr_db: float, layout: TileLayout) -> float:
    """Noise power for an SNR in dB on ``layout``; +inf maps to exactly zero.

    The one check of a usable SNR, which :meth:`SimConfig.validate` and :func:`run_trial` share:
    any other SNR must be a real number above the layout's ``snr_floor_db`` (NaN, -inf, text
    and None are not) and fit a float (:func:`require_finite`), or :class:`ValidationError`."""
    if snr_db == math.inf:
        return 0.0
    try:
        usable = snr_db > layout.snr_floor_db
    except TypeError:  # text, None and complex numbers do not compare
        usable = False
    if not usable:
        raise ValidationError(f"SNR {snr_db!r} dB has no usable noise power: it must be +inf or "
                              f"lie above the floor {layout.snr_floor_db:.6g} dB")
    return math.pow(10.0, -require_finite("SNR", snr_db) / 10.0)


def timing_error_event(delay_est: float, delay_true: float, cfg: SimConfig) -> bool:
    """Whether a delay estimate would cause interblock interference later on.

    The receiver backs the window off by half the data-phase slack, so the
    shifted error must stay within the interference-free span of the data
    prefix: with ``cfg``'s ``channel_taps`` L and ``cp_data`` P, no event iff
    ``L - P - 1 <= err <= 0`` with ``err = (delay_est - delay_true) + (L - P) / 2``.
    """
    err = require_finite("delay estimate", delay_est) - require_finite("true delay", delay_true)
    slack = cfg.channel_taps - cfg.cp_data  # negative: a valid config has cp_data > channel_taps
    # both operands are finite, so the error is never NaN; one past the float range is ±inf
    # and reads as an event
    err += slack / 2.0
    return err > 0 or err < slack - 1


def draw_users(cfg: SimConfig, rng: np.random.Generator, count: int | None = None) -> list[UserTruth]:
    """Sample one trial's ground truth: distinct codes, uniform delays and CFOs, and read-only
    channels."""
    layout = cfg.layout()
    k = cfg.num_users if count is None else require_int("user count", count, 0, layout.max_codes)
    if k == 0:  # empty draws consume nothing from the stream, so skip them
        return []
    codes, delays, cfos, cirs = _draw_arrays(cfg, rng, k)
    return [UserTruth(*user) for user in zip(codes.tolist(), delays.tolist(), cfos.tolist(), cirs)]


def _draw_arrays(cfg: SimConfig, rng: np.random.Generator, k: int) -> tuple[np.ndarray, ...]:
    """``(codes, delays, cfos, cirs)`` of ``k >= 1`` users drawn from ``rng``: (k,) arrays and
    read-only (k, taps) channels, whose rows a drawn truth keeps as drawn."""
    codes = rng.choice(cfg.layout().max_codes, size=k, replace=False)
    delays = rng.integers(0, cfg.max_delay + 1, size=k)
    omega = abs(cfg.max_cfo)  # -0.0 draws as zero offset, not as an empty interval
    cfos = rng.uniform(-omega, omega, size=k)
    cirs = draw_channel(cfg.channel_profile(), rng, size=k)  # one draw, as k calls in a row
    cirs.flags.writeable = False
    return codes, delays, cfos, cirs


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): pool mixing, then output
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool, in 32-bit words
# trial indices hashed at once; blocks start at multiples of 256, and so does each change of an
# index's word count (2**32, 2**64, ...), so every index of a block has the same word count
_STREAM_BLOCK = 256


def _uint32_words(n: int) -> list[int]:
    """A non-negative integer as SeedSequence reads it: 32-bit words, least significant first."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of SeedSequence's hash constant, as a (count, 1) uint32 column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hash(values, consts) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values`` with consecutive hash constants: XOR with
    ``consts[j]``, multiply by ``consts[j + 1]`` and fold the high half in."""
    x = (values ^ consts[:-1]) * consts[1:]
    return x ^ (x >> np.uint32(16))


def _mix(x, y) -> np.ndarray:
    """SeedSequence's mix of pool words ``x`` with hashed words ``y``."""
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


@functools.lru_cache(maxsize=64)
def _block_seed_words(seed: int, block: int) -> np.ndarray:
    """Row j is ``SeedSequence([seed, 256 * block + j]).generate_state(4, np.uint64)``: numpy's
    pool mixing and output hashing, one array operation for all 256 indices at a time."""
    seed_words = _uint32_words(int(seed))  # numpy integers share the cache entry of their value
    entropy = np.array(seed_words + _uint32_words(block * _STREAM_BLOCK), dtype=np.uint32)
    entropy = np.repeat(entropy[:, None], _STREAM_BLOCK, axis=1)  # (words, indices)
    entropy[len(seed_words)] += np.arange(_STREAM_BLOCK, dtype=np.uint32)  # carries nowhere
    extra = max(0, len(entropy) - _POOL)
    hashes = _hash_constants(_INIT_A, _MULT_A, _POOL * (_POOL + extra) + 1)
    pool = np.zeros((_POOL, _STREAM_BLOCK), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL]
    pool = _hash(pool, hashes[:_POOL + 1])
    used = _POOL
    for src in range(_POOL):  # every other word mixes in this one, hashed anew for each
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], hashes[used:used + _POOL]))
        used += _POOL - 1
    for word in entropy[_POOL:]:  # entropy past the pool mixes into every pool word
        pool = _mix(pool, _hash(word, hashes[used:used + _POOL + 1]))
        used += _POOL
    state = _hash(pool[list(range(_POOL)) * 2], _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1))
    words = np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)
    words.setflags(write=False)
    return words


class _SeedWords(ISeedSequence):
    """A trial's precomputed seed words, served to PCG64 in place of its SeedSequence."""

    __slots__ = ("_words",)

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        """PCG64's one request, ``(4, np.uint64)``: the words ``SeedSequence`` would generate."""
        return self._words


def _trial_stream(seed: int, index: int) -> np.random.Generator:
    """The generator ``np.random.default_rng([seed, index])``, draw for draw, for a non-negative
    seed and index, with its seeding hashed per block of 256 indices and kept for reuse."""
    block, row = divmod(int(index), _STREAM_BLOCK)
    return np.random.Generator(np.random.PCG64(_SeedWords(_block_seed_words(seed, block)[row])))


# consecutive trial indices of a sweep whose users are drawn and synthesized together
_DRAW_BLOCK = 16


@functools.lru_cache(maxsize=1)
def _block_draw(cfg: SimConfig, seed: int, start: int, stop: int, k: int):
    """``(users, states, signals)`` of the trial indices ``start <= i < stop``: per index a tuple
    of ``k >= 1`` users drawn from the stream ``(seed, i)`` and the stream's state after that
    draw, and the users' read-only noise-free grids in ``cfg.mode``, stacked over the indices.

    Pure, and cached for the last block: a sweep's calls for its indices reuse it.  The users
    come from ``cfg``'s own draw, so the signal cores take them unchecked; the channels are
    read-only too."""
    draws, states = [], []
    for index in range(start, stop):
        rng = _trial_stream(seed, index)
        draws.append(_draw_arrays(cfg, rng, k))
        states.append(rng.bit_generator.state)
    codes, delays, cfos, cirs = (np.stack(column) for column in zip(*draws))
    signal = (_model_signal if cfg.mode == "model" else _waveform_signal)(
        codes, delays.astype(float), cfos, cirs, cfg.layout())
    signal.flags.writeable = False
    users = tuple(tuple(map(UserTruth, c.tolist(), d.tolist(), f.tolist(), h))
                  for c, d, f, h in draws)
    return users, tuple(states), signal


def _scenario(cfg: SimConfig, seed: int, index: int, noise_var: float, count: int | None = None):
    """``(users, obs)`` of one trial: ``count`` users (``cfg.num_users`` if None; a given count is
    checked as :func:`draw_users` checks it) drawn from the stream ``(seed, index)``, then their
    grid in ``cfg.mode``: the mode's synthesizer draws the noise from the same stream, and their
    noise-free signal is added to it in place.

    An empty draw takes nothing from the stream.  A non-empty one is the index's row of
    :func:`_block_draw`, and the stream is set to that row's state: an index of the sweep shares
    the block of ``_DRAW_BLOCK`` indices it lies in, cut at ``cfg.trials``; an index past the
    sweep, or a given count, is drawn alone.  Every entry of the grid is finite by construction:
    noise at a variance :func:`noise_variance` admitted above the layout's SNR floor, plus the
    signal of users drawn from the validated ``cfg``; the grid's :class:`TileObservations` holds
    its type and shape checks only.  Each call returns its own list and a fresh grid.
    """
    rng, layout = _trial_stream(seed, index), cfg.layout()
    synthesize = synthesize_model_mode if cfg.mode == "model" else synthesize_waveform_mode
    k = cfg.num_users if count is None else require_int("user count", count, 0, layout.max_codes)
    if k == 0:
        return [], synthesize([], layout, noise_var, rng)
    start, stop = index, index + 1
    if count is None and index < cfg.trials:
        start = index - index % _DRAW_BLOCK
        stop = min(start + _DRAW_BLOCK, cfg.trials)
    users, state, signal = (part[index - start] for part in _block_draw(cfg, seed, start, stop, k))
    rng.bit_generator.state = state
    obs = synthesize([], layout, noise_var, rng)  # the noise alone, drawn after the users
    np.add(obs.grid, signal, out=obs.grid)
    return list(users), obs


def run_trial(cfg: SimConfig, snr_db: float, trial_index: int) -> TrialResult:
    """Draw one scenario, synthesize and range it.

    The random stream depends only on the master seed and the trial index,
    so the same index reuses its scenario at every SNR point: while calls for
    the indices of one block follow one another, as a sweep's do, the block's
    cached draw serves them, and each restores the stream to its index's state
    after that draw and draws its noise from there.

    The grid, finite by construction (:func:`_scenario`), and the config's validated
    ``max_delay`` go straight to the receiver's core, :func:`ranger._range`: the finite-power
    pass of :func:`ranger.range_subchannel` and its knob checks are not run again.  The
    ``hermitian_evd`` call inside the core still rejects a non-finite correlation.
    """
    var = noise_variance(snr_db, cfg.layout())
    truth, obs = _scenario(cfg, cfg.master_seed, require_int("trial index", trial_index, 0), var)
    return TrialResult(truth, _range(obs, cfg.max_delay, None))


class _PointScores:
    """One SNR point's running scores, fed its trial results in index order."""

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.trials = self.bad_trials = self.bad_codes = self.users = self.timing_events = 0
        # summed by sum(): from Python 3.12 it compensates, so a running += would round
        # differently; 8 bytes per value, where a list of floats takes 32
        self.squared = array("d")

    def add(self, res: TrialResult) -> None:
        """Score each user of one trial."""
        wrong = res.report.detected.symmetric_difference(u.code for u in res.truth)
        self.trials += 1
        self.bad_trials += bool(wrong)
        self.bad_codes += len(wrong)
        self.users += len(res.truth)
        for user in res.truth:
            if user.code not in res.report.per_code:
                self.timing_events += 1  # a missed user can never be aligned
                continue
            cfo_hat, delay_hat = res.report.per_code[user.code]
            e = cfo_hat - user.cfo
            self.squared.append(e * e)
            self.timing_events += timing_error_event(delay_hat, user.delay, self.cfg)

    def row(self, snr_db: float) -> MetricsRow:
        """The point's metrics; at least one trial must have been scored."""
        n, cfg = self.trials, self.cfg
        if n == 0:
            raise ConfigError("compute_metrics needs at least one trial result")
        squared = self.squared
        rmse = math.sqrt(sum(squared) / len(squared)) if squared else None
        return MetricsRow(
            snr_db=snr_db,
            p_f=self.bad_trials / n,
            rmse_eps=rmse,
            p_err_timing=self.timing_events / self.users if self.users else 0.0,
            trials=n,
            k=cfg.num_users,
            omega=cfg.max_cfo,
            mode=cfg.mode,
            p_f_per_code=self.bad_codes / (cfg.layout().max_codes * n),
        )


def compute_metrics(results: Iterable[TrialResult], snr_db: float, cfg: SimConfig) -> MetricsRow:
    """Score each user of one SNR point's trials, in index order, and reduce to metrics.

    ``p_f`` counts trials whose detected set differs from the true set in
    either direction; the per-code variant normalises missed plus false
    codes by the total code opportunities.  The CFO error statistic uses
    correctly detected users only, and an undetected user always counts as
    a timing error event.  ``results`` may be a one-pass iterator.
    """
    scores = _PointScores(cfg)
    for res in results:
        scores.add(res)
    return scores.row(snr_db)


WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile
# The largest trial count whose Wilson terms, up to 4 * trials**2, convert to floats.
_MAX_WILSON_TRIALS = math.isqrt(int(np.finfo(float).max) // 4)


def wilson_interval(count: int, trials: int):
    """Wilson score 95% interval for a binomial proportion ``count / trials``."""
    require_int("count", count, 0, require_int("trial count", trials, 1, _MAX_WILSON_TRIALS))
    p = count / trials
    z2 = WILSON_Z * WILSON_Z
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = WILSON_Z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (1 + z2 / trials)
    return max(0.0, centre - half), min(1.0, centre + half)


def format_count(count: int, trials: int):
    """``105/10000``, or ``0/10000 (< 3.8e-4)`` with the Wilson upper bound."""
    upper = wilson_interval(count, trials)[1]  # also rejects an impossible count
    if count:
        return f"{count}/{trials}"
    mantissa, exponent = f"{upper:.1e}".split("e")
    return f"0/{trials} (< {mantissa}e{int(exponent)})"


def run_sweep(cfg: SimConfig) -> list[MetricsRow]:
    """One metrics row per configured SNR point, in order, scored as the trials run.

    Trial-major: every SNR point of trial index i runs, in SNR order, before index i + 1, so
    each index's users and noise-free signal are built once for all its points, in one stacked
    pass per block of indices.  The sweep starts with no cached block, so it draws every block
    it uses.  Each point keeps only its running scores, and the rows come out after the last
    index.
    """
    _block_draw.cache_clear()
    points = [(snr_db, _PointScores(cfg)) for snr_db in cfg.snr_list_db]
    for i in range(cfg.trials):
        for snr_db, scores in points:
            scores.add(run_trial(cfg, snr_db, i))
    return [scores.row(snr_db) for snr_db, scores in points]


GAP_RESOLUTION = 1e-4  # oracle_periodogram's frequency step
GAP_TRIALS = 50  # esprit_periodogram_gap's trials, drawn from the streams (GAP_SEED, i)
GAP_SEED = 77


def oracle_periodogram(snapshots) -> float:
    """Brute-force single-source frequency estimate by dense grid search.

    Maximises the summed matched-filter power over frequencies in
    [-1/2, 1/2), ``GAP_RESOLUTION`` apart; deliberately independent of the
    subspace pipeline so the two can cross-validate.  The finite snapshots are searched at unit
    scale (:func:`cxmath._unit_scaled`, an exact power of two, which moves no maximum), so no
    power overflows.
    """
    snaps = require_numbers("snapshots", snapshots).astype(complex, copy=False)
    if snaps.ndim != 2 or snaps.size == 0:
        raise DimensionError(f"need a non-empty (snapshots, n) array, got shape {snaps.shape}")
    snaps = _unit_scaled(require_finite("snapshots", snaps))
    n = snaps.shape[1]
    grid = -0.5 + GAP_RESOLUTION * np.arange(round(1.0 / GAP_RESOLUTION))
    probes = np.exp(-2j * np.pi * np.outer(grid, np.arange(n)))
    power = np.sum(np.abs(probes @ snaps.T) ** 2, axis=1)
    return float(grid[int(np.argmax(power))])


def _noiseless_known_k_trials(cfg: SimConfig, seed: int, trials: int, counts: tuple[int, ...]):
    """``(users, obs, report)`` per noiseless trial ``i < trials`` of ``cfg``'s mode:
    ``counts[i % len(counts)]`` users from the stream ``(seed, i)``, ranged with that count given
    through the receiver's core, as :func:`run_trial` ranges (the draw checks the count).
    Checks that ``seed`` is a non-negative integer and ``trials`` a positive one
    (:class:`ValidationError`) before the first trial."""
    require_int("seed", seed, 0)
    require_int("trial count", trials, 1)
    for trial in range(trials):
        count = counts[trial % len(counts)]
        users, obs = _scenario(cfg, seed, trial, 0.0, count)
        yield users, obs, _range(obs, cfg.max_delay, count)


def esprit_periodogram_gap() -> float:
    """Worst disagreement between the pipeline and the grid oracle.

    Runs ``GAP_TRIALS`` noiseless single-user model-mode scenarios of the
    reference setup from the seed ``GAP_SEED`` and compares the subspace frequency
    estimate against :func:`oracle_periodogram`, wrap-aware.
    """
    worst = 0.0
    trials = _noiseless_known_k_trials(SimConfig(mode="model"), GAP_SEED, GAP_TRIALS, (1,))
    for _, obs, report in trials:
        diff = report.effective_cfos[0] - oracle_periodogram(freq_snapshots(obs))
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


def write_gnuplot_script(csv_path) -> Path:
    """Write a ready-to-run gnuplot script for the three metric curves next to the CSV, as
    ``<csv stem>.gp``, and return its path."""
    csv_path = Path(csv_path)
    path = csv_path.with_suffix(".gp")
    text = f"""# gnuplot script generated by rangesim; run: gnuplot {path.name}
set datafile separator ","
set key autotitle columnhead
set grid
set logscale y
set xlabel "SNR (dB)"
set terminal pngcairo size 900,600

set output "{csv_path.stem}_pf.png"
set ylabel "detection error probability"
plot "{csv_path.name}" using 1:2 with linespoints title "p_f"

set output "{csv_path.stem}_rmse.png"
set ylabel "CFO RMSE (subcarrier spacings)"
plot "{csv_path.name}" using 1:3 with linespoints title "rmse"

set output "{csv_path.stem}_perr.png"
set ylabel "timing error probability"
plot "{csv_path.name}" using 1:4 with linespoints title "p_err"
"""
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"could not write gnuplot script to {path}: {exc}") from exc
    return path


def _field_parser(hint):
    """The parser or cast for one field type; ``int | None`` parses as int, and SNR points in dB
    as comma- or space-separated values ("inf" allowed)."""
    if hint == tuple[float, ...]:
        return lambda text: tuple(float(t) for t in text.replace(",", " ").split())
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
