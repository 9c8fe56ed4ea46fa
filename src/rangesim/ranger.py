"""Joint code detection and offset estimation from ranging tiles.

The receiver never sees per-user pilots: every active station transmits
the same kind of unit-modulus code over all tiles, and each user shows up
as one complex exponential across blocks (at its effective CFO) and one
across tile positions (at its effective timing).  The pipeline therefore
runs two subspace stages over the same observations:

1. stack each subcarrier's block series into snapshots, build the
   forward-backward averaged sample correlation, eigendecompose, pick the
   active-code count by minimum description length, and read the dominant
   rotation's eigenvalue phases as effective CFOs;
2. stack each tile's subcarriers the same way (reusing the count from
   stage 1) and read effective timings;
3. round each effective value to the nearest code index, recover the
   physical offset from the residual, and declare a code detected only
   when both stages agree on it.

After the correlation, every stage takes and returns plain numpy arrays
(eigenvalues, eigenvectors, or one entry per estimate, strongest first).

Everything here is a deterministic pure function of its inputs: the same
observations produce bit-identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .airmodel import TileLayout, TileObservations
from .cxmath import forward_backward, general_eigenvalues, hermitian_evd, ls_rotation
from .errors import (ConfigError, DimensionError, RangingError, ValidationError, require_finite,
                     require_int)

EIGENVALUE_FLOOR = 1e-18  # relative to the largest eigenvalue


@dataclass
class RangingReport:
    """Detector output for one subchannel; ``RangingReport()`` is an idle slot."""

    # raw phase estimates in cycles, one per code, strongest first
    effective_cfos: np.ndarray = field(default_factory=lambda: np.zeros(0))
    effective_timings: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_code: dict[int, tuple[float, float]] = field(default_factory=dict)  # code -> (cfo, timing)
    collisions: int = 0

    @property
    def num_codes(self) -> int:
        """The code count the stages ran with: MDL's estimate, or the given count."""
        return len(self.effective_cfos)

    @property
    def detected(self) -> set[int]:
        """Codes both stages agree on."""
        return set(self.per_code)


@dataclass(frozen=True)
class RangerConfig:
    """Receiver-side knobs.

    ``known_num_codes`` bypasses the model-order stage; it exists for
    oracle runs and tests where the active-code count is given.
    """

    max_delay: int
    known_num_codes: int | None = None


def freq_snapshots(obs: TileObservations) -> np.ndarray:
    """Per-subcarrier block series: one length-n_blocks vector per tile bin."""
    return np.ascontiguousarray(obs.grid.transpose(1, 2, 0).reshape(-1, obs.layout.n_blocks))


def tile_snapshots(obs: TileObservations) -> np.ndarray:
    """Per-tile subcarrier series: one length-tile_width vector per (block, tile)."""
    return np.ascontiguousarray(obs.grid.reshape(-1, obs.layout.tile_width))


def sample_corr(snapshots) -> np.ndarray:
    """Average outer product of the snapshot vectors (Hermitian, PSD)."""
    snaps = np.asarray(snapshots, dtype=complex)
    if snaps.ndim != 2 or snaps.shape[0] < 1:
        raise ValidationError("sample_corr needs at least one snapshot vector")
    return (snaps.T @ snaps.conj()) / snaps.shape[0]


def estimate_num_codes(eigenvalues, num_snapshots: int, cap: int) -> int:
    """Active-code count by the minimum-description-length criterion.

    Takes the correlation's eigenvalues in non-increasing order.  Scores
    every candidate count against the geometric/arithmetic mean
    ratio of the trailing eigenvalues plus a parameter-count penalty, and
    returns the first minimiser in {0, ..., cap}.  Eigenvalues within
    round-off of zero (relative to the largest) are snapped to a common
    floor first, ``EIGENVALUE_FLOOR`` times the largest: their mutual ratios
    are numerical noise and would otherwise bias the score in
    exactly-noiseless runs.  Both are relative, so the count does not
    depend on the spectrum's scale.  Raises :class:`ValidationError` unless
    the eigenvalues' sum is finite: one check for NaN, ±inf and overflow.

    The few candidates are scored in plain float arithmetic, cheaper than
    array calls at this size; the logarithms come from one ``np.log`` call,
    so every score matches numpy's whole-array evaluation to the last bit.
    """
    lam = np.asarray(eigenvalues, dtype=float).tolist()
    if not math.isfinite(sum(lam)):  # NaN and inf carry into the sum, and overflow makes inf
        raise ValidationError(f"eigenvalues must be finite, with a finite sum, got {lam}")
    n = len(lam)
    require_int("model-order cap", cap, 0, n - 1)
    require_int("snapshot count", num_snapshots, 1)
    top = max(0.0, *lam)
    floor = EIGENVALUE_FLOOR * top or EIGENVALUE_FLOOR  # an all-zero spectrum: equal floors, K = 0
    lam = [floor if x < 1e-12 * top else max(x, floor) for x in lam]
    # sums over the trailing eigenvalues lam[k:], accumulated from the last one
    tail_sums = list(itertools.accumulate(reversed(lam)))[::-1]
    logs = np.log(lam + [tail_sums[k] / (n - k) for k in range(cap + 1)]).tolist()
    tail_log_sums = list(itertools.accumulate(reversed(logs[:n])))[::-1]
    penalty = math.log(num_snapshots)
    scores = [
        0.5 * k * (2 * n - k) * penalty
        - num_snapshots * (n - k) * (tail_log_sums[k] / (n - k) - logs[n + k])
        for k in range(cap + 1)
    ]
    return scores.index(min(scores))


def esprit_phases(eigenvalues, eigenvectors, num_sources: int) -> np.ndarray:
    """Frequencies of the dominant complex exponentials, in cycles, [-1/2, 1/2).

    Takes the eigenvalues and eigenvectors as :func:`hermitian_evd` returns them.
    Solves for the rotation that maps the leading eigenvectors' first n - 1
    rows onto their last n - 1 (:func:`ls_rotation`, a closed form for
    orthonormal columns), and reads each rotation eigenvalue's phase.  The
    result is ordered by descending strength (power the correlation assigns
    to each frequency's steering direction), so when the source count was
    overestimated the junk estimate sorts last; no ordering is otherwise
    guaranteed or meaningful.  Raises :class:`ValidationError` for non-finite
    eigenvalues and :class:`DimensionError` unless they pair n with (n, n) eigenvectors.
    """
    eigenvalues = require_finite("eigenvalues", eigenvalues)
    n = eigenvectors.shape[0]
    if eigenvectors.shape != (n, n) or eigenvalues.shape != (n,):
        raise DimensionError(f"need n eigenvalues and (n, n) eigenvectors, got shapes "
                             f"{eigenvalues.shape} and {eigenvectors.shape}")
    require_int("source count", num_sources, 1, n - 1, DimensionError)
    roots = general_eigenvalues(ls_rotation(eigenvectors[:, :num_sources]))
    phases = np.arctan2(roots.imag, roots.real) / (2.0 * np.pi)
    phases -= phases >= 0.5  # a phase of exactly pi wraps to -1/2

    steering = np.exp(2j * np.pi * (np.arange(n)[:, None] * phases)) / math.sqrt(n)
    weights = eigenvectors.conj().T @ steering  # (eigenvector, phase)
    strength = eigenvalues @ (np.abs(weights) ** 2)
    return phases[(-strength).argsort(kind="stable")]


def map_cfo(effective_cfos, layout: TileLayout) -> tuple[np.ndarray, np.ndarray]:
    """Split effective CFOs elementwise into ``(codes, cfos)``, codes in [0, n_blocks - 2].

    Valid whenever the configured maximum offset keeps the per-code
    intervals disjoint (checked at configuration time, not here).
    """
    span = layout.n_blocks - 1
    effective_cfos = require_finite("effective CFOs", effective_cfos)
    raw = np.floor(span * effective_cfos + 0.5)
    cfos = (layout.n_subcarriers / layout.block_len) * (effective_cfos - raw / span)
    return raw.astype(int) % span, cfos


def _check_max_delay(layout: TileLayout, max_delay: int) -> None:
    require_int("max delay", max_delay, 0, math.ceil(layout.delay_bound) - 1, ConfigError)


def map_timing(effective_timings, layout: TileLayout,
               max_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """Split effective timings elementwise into ``(codes, delays)``, delays in samples."""
    _check_max_delay(layout, max_delay)
    span = layout.tile_width - 1
    half_bias = max_delay * span / (2.0 * layout.n_subcarriers)
    effective_timings = require_finite("effective timings", effective_timings)
    raw = np.floor(span * effective_timings + half_bias + 0.5)
    delays = layout.n_subcarriers * (raw / span - effective_timings)
    return raw.astype(int) % span, delays


def detect_codes(cfo_codes, cfos, timing_codes, delays) -> tuple[dict, int]:
    """Codes both stages agree on, with per-code parameter attribution.

    Takes each stage's code and value arrays as :func:`map_cfo` and
    :func:`map_timing` return them, and returns ``(per_code, collisions)``,
    ``per_code`` mapping each detected code to its ``(cfo, delay)``.  When
    two estimates of a stage reduce to the same code index, the first one
    keeps the attribution and the clash is counted.  Raises
    :class:`DimensionError` when a stage's codes and values differ in length.
    """
    if len(cfo_codes) != len(cfos) or len(timing_codes) != len(delays):
        raise DimensionError("each stage needs one value per code estimate")
    # built from the back, so the first estimate of each code is written last
    cfo_by_code = dict(zip(cfo_codes[::-1].tolist(), cfos[::-1].tolist()))
    timing_by_code = dict(zip(timing_codes[::-1].tolist(), delays[::-1].tolist()))
    collisions = len(cfo_codes) - len(cfo_by_code) + len(timing_codes) - len(timing_by_code)
    detected = cfo_by_code.keys() & timing_by_code.keys()
    return {code: (cfo_by_code[code], timing_by_code[code]) for code in detected}, collisions


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except RangingError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def range_subchannel(obs: TileObservations, cfg: RangerConfig) -> RangingReport:
    """Run the full three-step receiver over one subchannel's observations."""
    layout = obs.layout
    if cfg.known_num_codes is not None:
        require_int("known code count", cfg.known_num_codes, 0, layout.max_codes, ConfigError)
    _check_max_delay(layout, cfg.max_delay)

    snaps_f = freq_snapshots(obs)
    corr_f = forward_backward(sample_corr(snaps_f))
    lam_f, vec_f = _stage("frequency-stage eigendecomposition", hermitian_evd, corr_f)
    if cfg.known_num_codes is not None:
        num_codes = cfg.known_num_codes
    else:
        num_codes = estimate_num_codes(lam_f, snaps_f.shape[0], layout.max_codes)
    if num_codes == 0:
        return RangingReport()

    eff_cfos = _stage("frequency-stage rotation", esprit_phases, lam_f, vec_f, num_codes)
    corr_t = forward_backward(sample_corr(tile_snapshots(obs)))
    lam_t, vec_t = _stage("timing-stage eigendecomposition", hermitian_evd, corr_t)
    eff_timings = _stage("timing-stage rotation", esprit_phases, lam_t, vec_t, num_codes)

    per_code, collisions = detect_codes(
        *map_cfo(eff_cfos, layout), *map_timing(eff_timings, layout, cfg.max_delay)
    )
    return RangingReport(eff_cfos, eff_timings, per_code, collisions)
