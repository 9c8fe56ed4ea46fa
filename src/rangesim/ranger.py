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

import math
from dataclasses import dataclass, field

import numpy as np

from .airmodel import TileLayout, TileObservations
from .cxmath import forward_backward, general_eigenvalues, hermitian_evd, ls_rotation
from .errors import ConfigError, DimensionError, RangingError, ValidationError

EIGENVALUE_FLOOR = 1e-18


@dataclass
class RangingReport:
    """Detector output for one subchannel."""

    num_codes: int
    # raw phase estimates in cycles, one per code, strongest first
    effective_cfos: np.ndarray = field(default_factory=lambda: np.zeros(0))
    effective_timings: np.ndarray = field(default_factory=lambda: np.zeros(0))
    detected: set[int] = field(default_factory=set)
    per_code: dict[int, tuple[float, float]] = field(default_factory=dict)  # code -> (cfo, timing)
    collisions: int = 0


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
    floor first: their mutual ratios are numerical noise and would
    otherwise bias the score in exactly-noiseless runs.
    """
    lam = np.array(eigenvalues, dtype=float)
    numerical_zero = 1e-12 * float(np.max(lam, initial=0.0))
    lam[lam < numerical_zero] = 0.0
    lam = np.maximum(lam, EIGENVALUE_FLOOR)
    n = lam.size
    if not 0 <= cap <= n - 1:
        raise ValidationError(f"model-order cap must lie in [0, {n - 1}], got {cap}")
    if num_snapshots < 1:
        raise ValidationError("need a positive snapshot count")
    k = np.arange(cap + 1)
    tail_len = n - k
    # sums over the trailing eigenvalues lam[k:] for every candidate k at once
    tail_log_sum = np.cumsum(np.log(lam)[::-1])[::-1][: cap + 1]
    tail_sum = np.cumsum(lam[::-1])[::-1][: cap + 1]
    log_ratio = tail_log_sum / tail_len - np.log(tail_sum / tail_len)
    scores = 0.5 * k * (2 * n - k) * math.log(num_snapshots) - num_snapshots * tail_len * log_ratio
    return int(np.argmin(scores))


def esprit_phases(eigenvalues, eigenvectors, num_sources: int) -> np.ndarray:
    """Frequencies of the dominant complex exponentials, in cycles, [-1/2, 1/2).

    Takes the eigenvalues and eigenvectors as :func:`hermitian_evd` returns them.
    Splits the leading eigenvectors into their first and last rows, solves
    for the rotation between the two, and reads each rotation eigenvalue's
    phase.  The result is ordered by descending strength (power the
    correlation assigns to each frequency's steering direction), so when
    the source count was overestimated the junk estimate sorts last; no
    ordering is otherwise guaranteed or meaningful.
    """
    n = eigenvectors.shape[0]
    if not 1 <= num_sources < n:
        raise DimensionError(f"source count must lie in [1, {n - 1}], got {num_sources}")
    basis = eigenvectors[:, :num_sources]
    rotation = ls_rotation(basis[:-1, :], basis[1:, :])
    phases = np.angle(general_eigenvalues(rotation)) / (2.0 * np.pi)
    phases[phases >= 0.5] -= 1.0

    steering = np.exp(2j * np.pi * np.outer(np.arange(n), phases)) / math.sqrt(n)
    weights = eigenvectors.conj().T @ steering  # (eigenvector, phase)
    strength = eigenvalues @ (np.abs(weights) ** 2)
    return phases[np.argsort(-strength, kind="stable")]


def map_cfo(effective_cfos, layout: TileLayout) -> tuple[np.ndarray, np.ndarray]:
    """Split effective CFOs elementwise into ``(codes, cfos)``, codes in [0, n_blocks - 2].

    Valid whenever the configured maximum offset keeps the per-code
    intervals disjoint (checked at configuration time, not here).
    """
    span = layout.n_blocks - 1
    effective_cfos = np.asarray(effective_cfos, dtype=float)
    raw = np.floor(span * effective_cfos + 0.5)
    cfos = (layout.n_subcarriers / layout.block_len) * (effective_cfos - raw / span)
    return raw.astype(int) % span, cfos


def _check_max_delay(layout: TileLayout, max_delay: int) -> None:
    if not 0 <= max_delay < layout.delay_bound:
        raise ConfigError(f"max delay must lie in [0, {layout.delay_bound:.0f}) samples")


def map_timing(effective_timings, layout: TileLayout,
               max_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """Split effective timings elementwise into ``(codes, delays)``, delays in samples."""
    _check_max_delay(layout, max_delay)
    span = layout.tile_width - 1
    half_bias = max_delay * span / (2.0 * layout.n_subcarriers)
    effective_timings = np.asarray(effective_timings, dtype=float)
    raw = np.floor(span * effective_timings + half_bias + 0.5)
    delays = layout.n_subcarriers * (raw / span - effective_timings)
    return raw.astype(int) % span, delays


def detect_codes(cfo_codes, cfos, timing_codes, delays) -> tuple[set[int], dict, int]:
    """Codes both stages agree on, with per-code parameter attribution.

    Takes each stage's code and value arrays as :func:`map_cfo` and
    :func:`map_timing` return them, and returns
    ``(detected, per_code, collisions)``.  When two estimates of a stage
    reduce to the same code index, the first one keeps the attribution and
    the clash is counted; the detected set itself is unaffected.
    """
    # built from the back, so the first estimate of each code is written last
    cfo_by_code = dict(zip(cfo_codes[::-1].tolist(), cfos[::-1].tolist()))
    timing_by_code = dict(zip(timing_codes[::-1].tolist(), delays[::-1].tolist()))
    collisions = len(cfo_codes) - len(cfo_by_code) + len(timing_codes) - len(timing_by_code)
    detected = cfo_by_code.keys() & timing_by_code.keys()
    per_code = {code: (cfo_by_code[code], timing_by_code[code]) for code in detected}
    return detected, per_code, collisions


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except RangingError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def range_subchannel(obs: TileObservations, cfg: RangerConfig) -> RangingReport:
    """Run the full three-step receiver over one subchannel's observations."""
    layout = obs.layout
    if cfg.known_num_codes is not None and not 0 <= cfg.known_num_codes <= layout.max_codes:
        raise ConfigError(f"known code count must lie in [0, {layout.max_codes}]")
    _check_max_delay(layout, cfg.max_delay)

    snaps_f = freq_snapshots(obs)
    corr_f = forward_backward(sample_corr(snaps_f))
    lam_f, vec_f = _stage("frequency-stage eigendecomposition", hermitian_evd, corr_f)
    if cfg.known_num_codes is not None:
        num_codes = cfg.known_num_codes
    else:
        num_codes = estimate_num_codes(lam_f, snaps_f.shape[0], layout.max_codes)
    if num_codes == 0:
        return RangingReport(num_codes=0)

    eff_cfos = _stage("frequency-stage rotation", esprit_phases, lam_f, vec_f, num_codes)
    corr_t = forward_backward(sample_corr(tile_snapshots(obs)))
    lam_t, vec_t = _stage("timing-stage eigendecomposition", hermitian_evd, corr_t)
    eff_timings = _stage("timing-stage rotation", esprit_phases, lam_t, vec_t, num_codes)

    detected, per_code, collisions = detect_codes(
        *map_cfo(eff_cfos, layout), *map_timing(eff_timings, layout, cfg.max_delay)
    )
    return RangingReport(num_codes, eff_cfos, eff_timings, detected, per_code, collisions)
