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

Everything here is a deterministic pure function of its inputs: the same
observations produce bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .airmodel import TileLayout, TileObservations
from .cxmath import HermitianSpectrum, forward_backward, general_eigenvalues, hermitian_evd, ls_rotation
from .errors import ConfigError, DimensionError, RangingError, ValidationError

EIGENVALUE_FLOOR = 1e-18


@dataclass(frozen=True)
class FreqEstimate:
    """One frequency-stage estimate and its code/CFO decomposition."""

    effective_cfo: float   # raw phase estimate, cycles per block, in [-1/2, 1/2)
    code_raw: int          # nearest code index before modular reduction
    code: int              # code index reduced to [0, n_blocks - 2]
    cfo: float             # normalized CFO recovered from the residual


@dataclass(frozen=True)
class TimingEstimate:
    """One timing-stage estimate and its code/delay decomposition."""

    effective_timing: float  # raw phase estimate, cycles per tile position
    code_raw: int
    code: int                # code index reduced to [0, tile_width - 2]
    timing: float            # delay estimate in samples (real-valued)


@dataclass
class RangingReport:
    """Detector output for one subchannel."""

    num_codes: int
    freq_estimates: list[FreqEstimate] = field(default_factory=list)
    timing_estimates: list[TimingEstimate] = field(default_factory=list)
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


def estimate_num_codes(spectrum: HermitianSpectrum, num_snapshots: int, cap: int) -> int:
    """Active-code count by the minimum-description-length criterion.

    Scores every candidate count against the geometric/arithmetic mean
    ratio of the trailing eigenvalues plus a parameter-count penalty, and
    returns the first minimiser in {0, ..., cap}.  Eigenvalues within
    round-off of zero (relative to the largest) are snapped to a common
    floor first: their mutual ratios are numerical noise and would
    otherwise bias the score in exactly-noiseless runs.
    """
    lam = np.asarray(spectrum.eigenvalues, dtype=float).copy()
    numerical_zero = 1e-12 * float(np.max(lam, initial=0.0))
    lam[lam < numerical_zero] = 0.0
    lam = np.maximum(lam, EIGENVALUE_FLOOR)
    n = lam.size
    if not 0 <= cap <= n - 1:
        raise ValidationError(f"model-order cap must lie in [0, {n - 1}], got {cap}")
    if num_snapshots < 1:
        raise ValidationError("need a positive snapshot count")
    log_s = math.log(num_snapshots)
    scores = np.empty(cap + 1)
    for k in range(cap + 1):
        tail = lam[k:]
        log_ratio = float(np.mean(np.log(tail)) - math.log(np.mean(tail)))
        scores[k] = 0.5 * k * (2 * n - k) * log_s - num_snapshots * (n - k) * log_ratio
    return int(np.argmin(scores))


def esprit_phases(spectrum: HermitianSpectrum, num_sources: int) -> np.ndarray:
    """Frequencies of the dominant complex exponentials, in cycles, [-1/2, 1/2).

    Splits the leading eigenvectors into their first and last rows, solves
    for the rotation between the two, and reads each rotation eigenvalue's
    phase.  The result is ordered by descending strength (power the
    correlation assigns to each frequency's steering direction), so when
    the source count was overestimated the junk estimate sorts last; no
    ordering is otherwise guaranteed or meaningful.
    """
    n = spectrum.eigenvectors.shape[0]
    if not 1 <= num_sources < n:
        raise DimensionError(f"source count must lie in [1, {n - 1}], got {num_sources}")
    basis = spectrum.eigenvectors[:, :num_sources]
    rotation = ls_rotation(basis[:-1, :], basis[1:, :])
    phases = np.angle(general_eigenvalues(rotation)) / (2.0 * np.pi)
    phases[phases >= 0.5] -= 1.0

    steering = np.exp(2j * np.pi * np.outer(np.arange(n), phases)) / math.sqrt(n)
    weights = spectrum.eigenvectors.conj().T @ steering  # (eigenvector, phase)
    strength = spectrum.eigenvalues @ (np.abs(weights) ** 2)
    return phases[np.argsort(-strength, kind="stable")]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def map_cfo(effective_cfo: float, layout: TileLayout) -> FreqEstimate:
    """Split an effective CFO into its code index and physical offset.

    Valid whenever the configured maximum offset keeps the per-code
    intervals disjoint (checked at configuration time, not here).
    """
    span = layout.n_blocks - 1
    raw = _round_half_up(span * effective_cfo)
    cfo = (layout.n_subcarriers / layout.block_len) * (effective_cfo - raw / span)
    return FreqEstimate(effective_cfo, raw, raw % span, cfo)


def map_timing(effective_timing: float, layout: TileLayout, max_delay: int) -> TimingEstimate:
    """Split an effective timing into its code index and delay in samples."""
    if not 0 <= max_delay < layout.delay_bound:
        raise ConfigError(f"max delay must lie in [0, {layout.delay_bound:.0f}) samples")
    span = layout.tile_width - 1
    half_bias = max_delay * span / (2.0 * layout.n_subcarriers)
    raw = _round_half_up(span * effective_timing + half_bias)
    timing = layout.n_subcarriers * (raw / span - effective_timing)
    return TimingEstimate(effective_timing, raw, raw % span, timing)


def detect_codes(freq_estimates, timing_estimates) -> tuple[set[int], dict, int]:
    """Codes both stages agree on, with per-code parameter attribution.

    Returns ``(detected, per_code, collisions)``.  When two estimates of a
    stage reduce to the same code index, the first one in list order keeps
    the attribution and the clash is counted; the detected set itself is
    unaffected.
    """
    collisions = 0
    cfo_by_code: dict[int, float] = {}
    for est in freq_estimates:
        if est.code in cfo_by_code:
            collisions += 1
        else:
            cfo_by_code[est.code] = est.cfo
    timing_by_code: dict[int, float] = {}
    for est in timing_estimates:
        if est.code in timing_by_code:
            collisions += 1
        else:
            timing_by_code[est.code] = est.timing
    detected = set(cfo_by_code) & set(timing_by_code)
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

    snaps_f = freq_snapshots(obs)
    corr_f = forward_backward(sample_corr(snaps_f))
    spectrum_f = _stage("frequency-stage eigendecomposition", hermitian_evd, corr_f)

    if cfg.known_num_codes is not None:
        if not 0 <= cfg.known_num_codes <= layout.max_codes:
            raise ConfigError(f"known code count must lie in [0, {layout.max_codes}]")
        num_codes = cfg.known_num_codes
    else:
        num_codes = estimate_num_codes(spectrum_f, snaps_f.shape[0], layout.max_codes)

    if num_codes == 0:
        return RangingReport(num_codes=0)

    eff_cfos = _stage("frequency-stage rotation", esprit_phases, spectrum_f, num_codes)

    snaps_t = tile_snapshots(obs)
    corr_t = forward_backward(sample_corr(snaps_t))
    spectrum_t = _stage("timing-stage eigendecomposition", hermitian_evd, corr_t)
    eff_timings = _stage("timing-stage rotation", esprit_phases, spectrum_t, num_codes)

    freq_estimates = [map_cfo(float(x), layout) for x in eff_cfos]
    timing_estimates = [map_timing(float(x), layout, cfg.max_delay) for x in eff_timings]
    detected, per_code, collisions = detect_codes(freq_estimates, timing_estimates)
    return RangingReport(
        num_codes=num_codes,
        freq_estimates=freq_estimates,
        timing_estimates=timing_estimates,
        detected=detected,
        per_code=per_code,
        collisions=collisions,
    )
