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

From the correlation through ESPRIT, every stage takes and returns plain numpy arrays
(eigenvalues, eigenvectors, or one entry per estimate, strongest first).  The
receiver finds the roots of both stages' K-by-K rotations in one ``eigvals``
call on their stack, then maps and detects codes on lists of Python floats,
which at a few estimates cost less than array calls; the public mappers
wrap the same float code and return arrays.

Every public stage checks its input, then calls a private core that holds its arithmetic.
:func:`range_subchannel` checks the grid (when its :class:`TileObservations` is built) and its
knobs once and runs the cores unchecked, except ``hermitian_evd``.

Everything here is a deterministic pure function of its inputs: the same
observations produce bit-identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .airmodel import TileLayout, TileObservations
# the public kernels stay importable here, where the benchmark's tracer wraps them
from .cxmath import (_check_orthonormal, _eigvals, _fb, _ls_rotation, forward_backward,
                     general_eigenvalues, hermitian_evd, ls_rotation)
from .errors import (ConfigError, DimensionError, RangingError, ValidationError, require_finite,
                     require_int, require_numbers)

EIGENVALUE_FLOOR = 1e-12  # MDL's one floor, relative to the largest eigenvalue
# A largest frequency-stage eigenvalue below this, about 2.2e-296, puts MDL's floor under the
# normal float range, where the floor loses precision: the grid is ranged at unit scale instead.
_TINY_TOP = np.finfo(float).tiny / EIGENVALUE_FLOOR


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
    """Average outer product of the rows of a 2-d array of numbers (Hermitian, PSD)."""
    snaps = require_numbers("snapshots", snapshots)
    if snaps.ndim != 2 or snaps.shape[0] < 1:
        raise ValidationError("sample_corr needs at least one snapshot vector")
    return _corr(snaps)


def _corr(snaps: np.ndarray) -> np.ndarray:
    snaps = snaps.astype(complex, copy=False)
    return (snaps.T @ snaps.conj()) / snaps.shape[0]


def estimate_num_codes(eigenvalues, num_snapshots: int, cap: int) -> int:
    """Active-code count by the minimum-description-length criterion.

    Takes the correlation's eigenvalues in non-increasing order.  Scores
    every candidate count against the geometric/arithmetic mean
    ratio of the trailing eigenvalues plus a parameter-count penalty, and
    returns the first minimiser in {0, ..., cap}.  Every eigenvalue below
    ``EIGENVALUE_FLOOR`` times the largest, round-off of either sign, is
    raised to that floor first: the mutual ratios of such values are
    numerical noise and would otherwise bias the score in exactly-noiseless
    runs.  The floor is relative, so the count does not depend on the
    spectrum's scale.  Raises :class:`ValidationError` unless the eigenvalues
    are numbers (``require_numbers``: not text, bools or a ragged list), real and
    with a finite sum (one check for NaN, ±inf and overflow), and
    :class:`DimensionError` unless they form a 1-d array.

    The few candidates are scored in plain float arithmetic, cheaper than
    array calls at this size; the logarithms come from one ``np.log`` call,
    so every score matches numpy's whole-array evaluation to the last bit.
    """
    lam = require_numbers("eigenvalues", eigenvalues)
    if lam.ndim != 1 or lam.dtype.kind == "c":
        error = DimensionError if lam.ndim != 1 else ValidationError
        raise error(f"eigenvalues must be a 1-d array of real numbers, got {lam.dtype} {lam.shape}")
    lam = lam.astype(float, copy=False).tolist()
    if not math.isfinite(sum(lam)):  # NaN and inf carry into the sum, and overflow makes inf
        raise ValidationError(f"eigenvalues must be finite, with a finite sum, got {lam}")
    require_int("model-order cap", cap, 0, len(lam) - 1)
    require_int("snapshot count", num_snapshots, 1)
    return _mdl(lam, num_snapshots, cap)


def _mdl(lam: list, num_snapshots: int, cap: int) -> int:
    """:func:`estimate_num_codes` of a list of finite floats, with a valid cap and count."""
    n = len(lam)
    top = max(0.0, *lam)
    floor = EIGENVALUE_FLOOR * top or EIGENVALUE_FLOOR  # an all-zero spectrum: equal floors, K = 0
    lam = [max(x, floor) for x in lam]
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
    guaranteed or meaningful.  Raises :class:`ValidationError` for non-numeric input or non-finite
    eigenvalues, and :class:`DimensionError` unless n eigenvalues pair with (n, n) eigenvectors.
    """
    eigenvalues = require_finite("eigenvalues", eigenvalues)
    eigenvectors = require_numbers("eigenvectors", eigenvectors)
    n = eigenvectors.shape[0]
    if eigenvectors.shape != (n, n) or eigenvalues.shape != (n,):
        raise DimensionError(f"need n eigenvalues and (n, n) eigenvectors, got shapes "
                             f"{eigenvalues.shape} and {eigenvectors.shape}")
    require_int("source count", num_sources, 1, n - 1, DimensionError)
    eigenvectors = eigenvectors.astype(complex, copy=False)
    _check_orthonormal(eigenvectors[:, :num_sources])
    roots = _eigvals(_ls_rotation(eigenvectors[:, :num_sources]))
    return _strongest_first(_root_phases(roots), eigenvalues, eigenvectors)


def _root_phases(roots: np.ndarray) -> np.ndarray:
    """Phases of rotation eigenvalues of any shape, in cycles, [-1/2, 1/2), one numpy pass."""
    phases = np.arctan2(roots.imag, roots.real) / (2.0 * np.pi)
    phases -= phases >= 0.5  # a phase of exactly pi wraps to -1/2
    return phases


def _strongest_first(phases: np.ndarray, eigenvalues: np.ndarray,
                     eigenvectors: np.ndarray) -> np.ndarray:
    """One stage's 1-d ``phases`` as a new array, in :func:`esprit_phases`' order: by
    descending power the checked spectrum assigns to each phase's steering direction."""
    n = eigenvectors.shape[0]
    steering = np.exp(2j * np.pi * (np.arange(n)[:, None] * phases)) / math.sqrt(n)
    weights = eigenvectors.conj().T @ steering  # (eigenvector, phase)
    strength = eigenvalues @ (np.abs(weights) ** 2)
    return phases[(-strength).argsort(kind="stable")]


def _mapped(name: str, values, core, *args) -> tuple[np.ndarray, np.ndarray]:
    """A float mapping core's ``(codes, values)`` of finite ``values``, as int64 and float64
    arrays of the input's shape."""
    values = np.asarray(require_finite(name, values))
    if values.dtype.kind == "c":  # a complex scalar is caught by require_finite
        raise ValidationError(f"{name} must be real, got {values!r:.60}")
    codes, mapped = core(values.ravel().tolist(), *args)
    return (np.array(codes, dtype=np.int64).reshape(values.shape),
            np.array(mapped, dtype=float).reshape(values.shape))


def map_cfo(effective_cfos, layout: TileLayout) -> tuple[np.ndarray, np.ndarray]:
    """Split effective CFOs elementwise into ``(codes, cfos)``, codes in [0, n_blocks - 2].

    Valid whenever the configured maximum offset keeps the per-code
    intervals disjoint (checked at configuration time, not here).  Periodic with period 1;
    NaN, ±inf, complex values and a value whose code index overflows int64 raise
    :class:`ValidationError`.
    Returns int64 codes and float64 CFOs, arrays of the input's shape.
    """
    return _mapped("effective CFOs", effective_cfos, _map_cfo, layout)


def _code_indices(name: str, values: list, span: int, bias: float) -> tuple[list, list]:
    """Each value's code ``floor(span * value + bias + 1/2) % span`` and its code point, that
    index divided by ``span``, as lists.

    The few estimates are mapped in plain float arithmetic, cheaper than array calls at this
    size.  Each of ``*``, ``+``, ``-``, ``/``, ``floor`` and ``%`` gives the correctly rounded
    or exact IEEE result in Python as in numpy, so every result matches numpy's whole-array
    evaluation to the last bit.  The index is tested before rounding, so no overflow reaches
    ``floor``: one outside int64 raises :class:`ValidationError` naming ``name``.
    """
    codes, points = [], []
    for x in values:
        unrounded = span * x + bias + 0.5
        if not -2.0**63 <= unrounded < 2.0**63:  # also false for NaN and ±inf
            raise ValidationError(f"{name} must give code indices within int64, got {x!r}")
        index = math.floor(unrounded)
        codes.append(index % span)
        points.append(index / span)
    return codes, points


def _map_cfo(effective_cfos: list, layout: TileLayout) -> tuple[list, list]:
    """:func:`map_cfo` of a list of finite floats, as lists."""
    codes, points = _code_indices("effective CFOs", effective_cfos, layout.n_blocks - 1, 0.0)
    scale = layout.n_subcarriers / layout.block_len
    return codes, [scale * (x - point) for x, point in zip(effective_cfos, points)]


def _check_max_delay(layout: TileLayout, max_delay: int) -> None:
    require_int("max delay", max_delay, 0, math.ceil(layout.delay_bound) - 1, ConfigError)


def map_timing(effective_timings, layout: TileLayout,
               max_delay: int) -> tuple[np.ndarray, np.ndarray]:
    """Split effective timings elementwise into ``(codes, delays)``, delays in samples; periodic,
    checked and shaped as in :func:`map_cfo`."""
    _check_max_delay(layout, max_delay)
    return _mapped("effective timings", effective_timings, _map_timing, layout, max_delay)


def _map_timing(effective_timings: list, layout: TileLayout, max_delay: int) -> tuple[list, list]:
    """:func:`map_timing` of a list of finite floats and a valid delay, as lists."""
    span = layout.tile_width - 1
    half_bias = max_delay * span / (2.0 * layout.n_subcarriers)
    codes, points = _code_indices("effective timings", effective_timings, span, half_bias)
    n = layout.n_subcarriers
    return codes, [n * (point - x) for x, point in zip(effective_timings, points)]


def detect_codes(cfo_codes, cfos, timing_codes, delays) -> tuple[dict, int]:
    """Codes both stages agree on, with per-code parameter attribution.

    Takes each stage's code and value arrays as :func:`map_cfo` and
    :func:`map_timing` return them, and returns ``(per_code, collisions)``,
    ``per_code`` mapping each detected code to its ``(cfo, delay)``.  When
    two estimates of a stage reduce to the same code index, the first one
    keeps the attribution and the clash is counted.  Raises :class:`ValidationError` for
    non-numeric input and for codes not of integer dtype (1.0 is no code; an empty array is
    no estimates), and :class:`DimensionError` unless a stage's arrays are 1-d and equally long.
    """
    cfo_codes, cfos, timing_codes, delays = map(require_numbers, (
        "CFO codes", "CFOs", "timing codes", "delays"), (cfo_codes, cfos, timing_codes, delays))
    if cfos.ndim != 1 or delays.ndim != 1 or (
            cfo_codes.shape != cfos.shape or timing_codes.shape != delays.shape):
        raise DimensionError("each stage needs one value per code estimate, in 1-d arrays")
    for name, codes in (("CFO codes", cfo_codes), ("timing codes", timing_codes)):
        if codes.size and codes.dtype.kind not in "iu":
            raise ValidationError(f"{name} must be an array of integers, got {codes!r:.60}")
    return _detect(cfo_codes.tolist(), cfos.tolist(), timing_codes.tolist(), delays.tolist())


def _detect(cfo_codes: list, cfos: list, timing_codes: list, delays: list) -> tuple[dict, int]:
    """:func:`detect_codes` of each stage's codes and values as equally long lists."""
    # built from the back, so the first estimate of each code is written last
    cfo_by_code = dict(zip(cfo_codes[::-1], cfos[::-1]))
    timing_by_code = dict(zip(timing_codes[::-1], delays[::-1]))
    collisions = len(cfo_codes) - len(cfo_by_code) + len(timing_codes) - len(timing_by_code)
    detected = cfo_by_code.keys() & timing_by_code.keys()
    return {code: (cfo_by_code[code], timing_by_code[code]) for code in detected}, collisions


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except RangingError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def range_subchannel(obs: TileObservations, cfg: RangerConfig) -> RangingReport:
    """Run the full three-step receiver over one subchannel's observations.

    Checks the known code count and ``max_delay`` once (the grid was checked when ``obs`` was
    built), then runs each stage's private core.  A grid so small that its correlation
    underflows is ranged as its copy scaled by the exact power of two that brings its largest
    part into [1/2, 1); an all-zero grid is an idle slot."""
    layout, num_codes = obs.layout, cfg.known_num_codes
    if num_codes is not None:
        require_int("known code count", num_codes, 0, layout.max_codes, ConfigError)
    _check_max_delay(layout, cfg.max_delay)

    snaps_f = freq_snapshots(obs)
    # hermitian_evd runs by its public name, checks and all: the benchmark counts its calls
    lam_f, vec_f = _stage("frequency-stage eigendecomposition", hermitian_evd, _fb(_corr(snaps_f)))
    if lam_f[0] < _TINY_TOP and obs.grid.any():
        parts = np.ascontiguousarray(obs.grid, dtype=complex).view(float)  # ldexp takes no complex
        parts = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1])
        return range_subchannel(TileObservations(layout, parts.view(complex)), cfg)
    if num_codes is None:
        num_codes = _mdl(lam_f.tolist(), snaps_f.shape[0], layout.max_codes)
    if num_codes == 0:
        return RangingReport()

    # the frequency rotation's rank test runs before the timing stage's correlation and EVD
    rot_f = _stage("frequency-stage rotation", _ls_rotation, vec_f[:, :num_codes])
    corr_t = _fb(_corr(tile_snapshots(obs)))
    lam_t, vec_t = _stage("timing-stage eigendecomposition", hermitian_evd, corr_t)
    rot_t = _stage("timing-stage rotation", _ls_rotation, vec_t[:, :num_codes])
    # both rotations are K-by-K whatever the layout, so one eigvals call serves both stages
    roots = _stage("frequency- and timing-stage rotations", _eigvals, np.array((rot_f, rot_t)))
    phases = _root_phases(roots)
    eff_cfos = _strongest_first(phases[0], lam_f, vec_f)
    eff_timings = _strongest_first(phases[1], lam_t, vec_t)

    # the phases lie in [-1/2, 1/2), so the mapping's int64 test cannot fire here
    cfo_codes, cfos = _map_cfo(eff_cfos.tolist(), layout)
    timing_codes, delays = _map_timing(eff_timings.tolist(), layout, cfg.max_delay)
    per_code, collisions = _detect(cfo_codes, cfos, timing_codes, delays)
    return RangingReport(eff_cfos, eff_timings, per_code, collisions)
