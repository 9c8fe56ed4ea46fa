"""Uplink ranging signal synthesis.

Two generators produce the tile observations the receiver consumes:

* model mode evaluates the flat-per-tile closed form directly in the DFT
  domain, which makes it an exact oracle for estimator unit tests;
* waveform mode is exact for the full OFDMA chain: channel and delay are
  per-bin gains (together they fit inside the ranging prefix), and each
  user's frequency offset leaks every tile bin into every other one through
  the DFT window's Dirichlet kernel, as intercarrier leakage does on air.

Both modes share that kernel, model mode on each user's own bins
(:func:`_cfo_attenuation`) and waveform mode factored over the distinct
distances b - b' between the layout's tile bins (:func:`_leakage_kernel`),
whose tables grow with the tiles, not with the spectrum, and one noise
model, i.i.d. circular Gaussian per tile bin.  They draw from an injected
random generator, and check every user before the private, unchecked
formula helpers (effective offsets, that kernel) see it.  They keep no state.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import (ValidationError, require_finite, require_finite_power, require_int,
                     require_numbers)


# The size domain, checked before anything is allocated.  Deployed OFDMA uses at most 4096
# subcarriers (NR; IEEE 802.16e 2048), a cyclic prefix of at most a quarter block (1024
# samples) and a handful of ranging blocks, tile positions and codes.
MAX_SUBCARRIERS = 2**16  # 16x NR's largest FFT; every bin and bin-times-tap product is exact
MAX_BLOCKS = 16  # a waveform kernel holds (K, B, B) floats per draw, K < min(blocks, width)
MAX_TILE_WIDTH = 16
MAX_TILE_BINS = 1024  # B = n_tiles * tile_width: the kernel takes 8 K B**2 bytes per draw
MAX_TAPS = 1024  # the longest deployed prefix; the (B, taps) tap phasors take 16 MiB at most


def _check_geometry(n_subcarriers: int, n_blocks: int, tile_width: int, cp_ranging: int) -> None:
    """A layout's checks before its tiles: the sizes, and a ranging prefix within the block."""
    n = require_int("n_subcarriers", n_subcarriers, 1, MAX_SUBCARRIERS)
    require_int("n_blocks", n_blocks, 2, MAX_BLOCKS)
    require_int("tile_width", tile_width, 2, MAX_TILE_WIDTH)
    require_int("ranging prefix", cp_ranging, 0, n)  # at most the block it extends


@dataclass(frozen=True)
class TileLayout:
    """Ranging geometry of one subchannel, and the limits it sets.

    One disjoint tile of ``tile_width`` adjacent subcarriers starts at each
    entry of ``tile_starts``; tiles are observed over ``n_blocks`` OFDMA
    blocks, each extended by the ranging prefix ``cp_ranging``.  Codes stay
    separable while CFO and delay stay below their bounds.
    """

    n_subcarriers: int
    n_blocks: int
    tile_width: int
    tile_starts: tuple[int, ...]
    cp_ranging: int

    def __post_init__(self):
        _check_geometry(self.n_subcarriers, self.n_blocks, self.tile_width, self.cp_ranging)
        width = self.tile_width
        require_int("n_tiles", len(self.tile_starts), 1, MAX_TILE_BINS // width)
        for start in self.tile_starts:
            require_int("tile start", start, 0, self.n_subcarriers - width)
        # disjoint tiles, sorted by start, start at least one tile width apart
        starts = sorted(self.tile_starts)
        if any(b - a < width for a, b in zip(starts, starts[1:])):
            raise ValidationError("tiles overlap; they must be pairwise disjoint")

    def __reduce__(self):  # copies and pickles rebuild through __post_init__: checked, read-only
        return type(self), astuple(self)

    @classmethod
    def uniform(cls, n_subcarriers, n_blocks, n_tiles, tile_width, cp_ranging,
                spacing=None) -> "TileLayout":
        """Layout with ``n_tiles`` tiles spaced evenly across the spectrum.

        The sizes are checked before the starts are listed, the tile count against
        ``MAX_TILE_BINS``; the layout then raises what it raises for those starts."""
        _check_geometry(n_subcarriers, n_blocks, tile_width, cp_ranging)
        require_int("n_tiles", n_tiles, 1, MAX_TILE_BINS // tile_width)
        spacing = n_subcarriers // n_tiles if spacing is None else require_int("spacing", spacing, 1)
        starts = tuple(q * spacing for q in range(n_tiles))
        return cls(n_subcarriers, n_blocks, tile_width, starts, cp_ranging)

    @property
    def n_tiles(self) -> int:
        """Number of tiles: one per entry of ``tile_starts``."""
        return len(self.tile_starts)

    @property
    def block_len(self) -> int:
        """Samples per cyclically extended ranging block."""
        return self.n_subcarriers + self.cp_ranging

    @property
    def max_codes(self) -> int:
        """Largest number of simultaneously separable ranging codes."""
        return min(self.tile_width, self.n_blocks) - 1

    @property
    def acquisition_bound(self) -> float:
        """Largest resolvable |CFO| in subcarrier spacings (exclusive): it keeps
        the scaled offset cfo * block_len * (n_blocks - 1) / n_subcarriers below 1/2."""
        return self.n_subcarriers / (2.0 * self.block_len * (self.n_blocks - 1))

    @property
    def delay_bound(self) -> float:
        """Largest resolvable delay in samples (exclusive): one timing-code spacing."""
        return self.n_subcarriers / (self.tile_width - 1)

    @functools.cached_property
    def tile_bins(self) -> np.ndarray:
        """All subcarrier indices of this subchannel, shape (n_tiles, tile_width); read-only."""
        bins = np.asarray(self.tile_starts)[:, None] + np.arange(self.tile_width)
        bins.flags.writeable = False
        return bins

    @functools.cached_property
    def snr_floor_db(self) -> float:
        """Lowest usable SNR in dB (exclusive): the grid's total power stays finite at 100x noise."""
        bins = self.n_blocks * self.n_tiles * self.tile_width
        return 10.0 * math.log10(100.0 * bins / sys.float_info.max)

    @functools.cached_property
    def _leakage_tables(self) -> tuple[np.ndarray, ...]:
        """Per-layout factors of waveform-mode leakage, read-only: N sin and N cos of pi d / N
        over the distinct bin distances d, the index gathering them into the (b', b)
        matrix of d = b - b' over flat tile bins, exp(j pi b / N) per bin, 2 * window
        start + N - 1 per block, and each code's block phases and per-bin tile phases.  They
        take memory with the tiles, not with the spectrum: (B, B) int64 at most, for the
        ``MAX_TILE_BINS`` flat tile bins B; every value is exact under the size caps."""
        n, bins = self.n_subcarriers, self.tile_bins.ravel()
        distances = bins[None, :] - bins[:, None]
        distinct, gather = np.unique(distances, return_inverse=True)
        angles = np.pi * distinct / n
        steps = 2.0 * (np.arange(self.n_blocks) * self.block_len + self.cp_ranging) + (n - 1)
        # code c's symbol at offset v of block m is exp(2j pi c (v / (V - 1) + m / (M - 1)))
        turns, m, v = 2j * np.pi * np.arange(self.max_codes), self.n_blocks, self.tile_width
        block_codes = np.exp(np.multiply.outer(turns, np.arange(m) / (m - 1)))
        bin_codes = np.tile(np.exp(np.multiply.outer(turns, np.arange(v) / (v - 1))), self.n_tiles)
        tables = (n * np.sin(angles), n * np.cos(angles), gather.reshape(distances.shape),
                  np.exp(1j * np.pi * bins / n), steps, block_codes, bin_codes)
        for table in tables:
            table.flags.writeable = False
        return tables


@dataclass(frozen=True)
class UserTruth:
    """Ground truth for one station attempting network entry."""

    code: int
    delay: int       # timing error in whole samples, >= 0
    cfo: float       # frequency offset as a fraction of the subcarrier spacing
    cir: np.ndarray = field(repr=False)  # complex channel impulse response


@dataclass(frozen=True)
class ChannelProfile:
    """Exponentially decaying multipath power profile with unit total power, computed once
    at construction: a tap count outside [1, ``MAX_TAPS``], and a decay that is not a positive
    number (a bool is not) or that overflows float arithmetic (an integer past the float range,
    or below about n_taps / 1.8e308), fail there."""

    n_taps: int
    decay: float

    @np.errstate(all="raise", under="ignore")  # far taps may underflow to 0
    def __post_init__(self):
        require_int("n_taps", self.n_taps, 1, MAX_TAPS)
        if isinstance(self.decay, (bool, np.bool_)) or not self.decay > 0:
            raise ValidationError(f"decay constant must be a positive number, got {self.decay}")
        try:
            raw = np.exp(-np.arange(self.n_taps) / self.decay)
            variances = raw / raw.sum()
        except (OverflowError, FloatingPointError):
            raise ValidationError(f"decay constant {self.decay!r} gives no finite tap powers")
        variances.flags.writeable = False
        object.__setattr__(self, "_variances", variances)

    def __reduce__(self):  # copies and pickles rebuild through __post_init__: checked, read-only
        return type(self), astuple(self)

    def tap_variances(self) -> np.ndarray:
        """Per-tap powers summing to 1, read-only."""
        return self._variances


@dataclass(frozen=True)
class TileObservations:
    """DFT outputs on the ranging tiles: grid[m, q, v] is block m, tile q, offset v.

    The grid must be a numpy array, not a list, of numbers (``require_numbers``: not bools) in
    the layout's shape: the checks a frozen type can hold, as neither the layout nor the grid
    can be swapped after them.  The grid's values can still be written in place, so their
    check, a finite total power, runs where the grid is ranged (:func:`ranger.range_subchannel`).
    """

    layout: TileLayout
    grid: np.ndarray

    def __post_init__(self):
        if require_numbers("grid", self.grid) is not self.grid:  # only an ndarray comes back
            raise ValidationError(f"grid must be a numpy array, got {type(self.grid).__name__}")
        expected = (self.layout.n_blocks, self.layout.n_tiles, self.layout.tile_width)
        if self.grid.shape != expected:
            raise ValidationError(f"grid shape {self.grid.shape} does not match layout {expected}")


def _cfo_attenuation(offset, n_subcarriers: int):
    """Dirichlet kernel D(x) = (1/N) sum_t exp(2j pi x t / N) of the DFT window.

    The gain a tone picks up in the bin ``x`` subcarrier spacings below it:
    ``x = d + cfo`` for a tone sent ``d`` bins above, so ``D(cfo)`` is what a
    frequency offset leaves on the tone's own bin.  Magnitude is at most 1
    and even in ``x``; the phase reflects half a block of rotation inside
    the window.  ``offset`` may be a scalar or an array, with |x| < N.
    """
    n = n_subcarriers
    t = np.pi * offset
    den = n * np.sin(t / n)
    at_zero = den == 0  # D(0) = 1, the limit of the ratio below
    return (np.sin(t) + at_zero) / (den + at_zero) * np.exp(1j * t * (n - 1) / n)


def _effective_offsets(codes, delays, cfos, layout: TileLayout):
    """Composite per-user unknowns the subspace estimator actually sees.

    Returns ``(effective_cfo, effective_timing)``: the code index folds into
    both, the frequency offset only into the first (scaled by the extended
    block length), the delay only into the second (as a negative phase ramp
    across a tile).  Takes scalars, or equal-length arrays elementwise.
    """
    xi = codes / (layout.n_blocks - 1) + cfos * layout.block_len / layout.n_subcarriers
    eta = codes / (layout.tile_width - 1) - delays / layout.n_subcarriers
    return xi, eta


@functools.lru_cache(maxsize=32)
def _tile_tap_phasors(layout: TileLayout, n_taps: int) -> np.ndarray:
    """exp(-2j pi b t / N) for every flat tile bin b and tap t < n_taps, so that
    ``_tile_tap_phasors(layout, L) @ cir`` is the channel's frequency response on
    the tiles; shape (n_tiles * tile_width, n_taps), read-only.  b t stays below 2**26 under
    the size caps, so float64 holds it exactly."""
    taps = np.multiply.outer(layout.tile_bins.ravel().astype(float), np.arange(float(n_taps)))
    phasors = np.exp(-2j * np.pi * taps / layout.n_subcarriers)
    phasors.flags.writeable = False
    return phasors


def draw_channel(profile: ChannelProfile, rng: np.random.Generator,
                 size: int | None = None) -> np.ndarray:
    """Independent circular Gaussian taps: one channel, shape (n_taps,), or with ``size=K``
    K channels in one draw, shape (K, n_taps), bit-identical to K one-channel calls in a row."""
    lead = () if size is None else (require_int("size", size, 0),)
    return _complex_noise(rng, (*lead, profile.n_taps), profile.tap_variances(), len(lead))


def _stack_users(users, layout: TileLayout) -> tuple[np.ndarray, ...]:
    """``(codes, delays, cfos, cirs, ends)`` of the users: the signal cores' arrays of one draw
    (T = 1), and each user's delay + taps.

    Checks each user as it goes: the code must be an integer in [0, max_codes), the delay
    a non-negative integer, the CFO finite and the channel a 1-d array of numbers
    (``require_numbers``) of at most ``MAX_TAPS`` taps; then that no two users share a code and that the taps' total
    power, one BLAS pass, is finite.  Ragged channels are zero-padded to the longest.
    """
    last_code = layout.max_codes - 1
    codes, delays, cfos, taps, ends = [], [], [], [], []
    for u in users:
        codes.append(require_int("code", u.code, 0, last_code))
        delays.append(require_int("delays", u.delay, 0))
        cfos.append(require_finite("CFO", u.cfo))
        taps.append(require_numbers("channel taps", u.cir))
        if taps[-1].ndim != 1 or taps[-1].size > MAX_TAPS:
            raise ValidationError(f"a channel must be a 1-d tap array of at most {MAX_TAPS} taps, "
                                  f"got shape {taps[-1].shape}")
        ends.append(u.delay + taps[-1].size)
    if len(set(codes)) != len(codes):
        raise ValidationError("active users must carry distinct ranging codes")
    cirs = np.zeros((1, len(taps), max((h.size for h in taps), default=1)), dtype=complex)
    for row, h in zip(cirs[0], taps):
        row[: h.size] = h
    require_finite_power("channel taps", cirs)
    return (np.array([codes], dtype=int), np.array([delays], dtype=float),
            np.array([cfos], dtype=float), cirs, ends)


def _responses(cirs, layout: TileLayout) -> np.ndarray:
    """Each channel's gain per flat tile bin, (T, n_tiles * tile_width, K), from (T, K, taps)
    channels: matmul runs one product per draw, so a draw's gains do not depend on the draws
    beside it (one product over all T * K columns would round them differently)."""
    return _tile_tap_phasors(layout, cirs.shape[-1]) @ cirs.swapaxes(1, 2)


def _leakage_kernel(layout: TileLayout, cfos) -> np.ndarray:
    """Real factor K of D(d + cfo) = K exp(j pi (cfo (N - 1) - d) / N), shape (..., d) over the
    distinct bin distances d for CFOs of any shape; divided last, as a subnormal denominator's
    reciprocal overflows."""
    n_sin_d, n_cos_d = layout._leakage_tables[:2]
    n, t = layout.n_subcarriers, np.pi * cfos[..., None]
    den = n_sin_d * np.cos(t / n) + n_cos_d * np.sin(t / n)  # N sin(pi (d + cfo) / N)
    return np.divide(np.sin(t), den, out=np.ones_like(den), where=den != 0)  # D(0) = 1


def _complex_noise(rng: np.random.Generator, shape, variance, stacked: int = 0) -> np.ndarray:
    """Circular Gaussian of the given variance: one draw, all real parts then all imaginary,
    written into the complex array before it is scaled by the deviation per part (of a float
    variance by ``math.sqrt``, as correctly rounded as ``np.sqrt`` and cheaper on a scalar).
    The first ``stacked`` axes index such arrays, drawn one after another as calls in a row.
    A scalar variance must be real, finite (:func:`require_finite`) and non-negative."""
    if not isinstance(variance, np.ndarray) and not 0 <= require_finite("noise variance", variance):
        raise ValidationError(f"noise variance must be non-negative, got {variance!r}")
    noise = np.empty(shape, dtype=complex)
    lead = (slice(None),) * stacked
    normals = rng.standard_normal((*noise.shape[:stacked], 2, *noise.shape[stacked:]))
    noise.real, noise.imag = normals[(*lead, 0)], normals[(*lead, 1)]
    # np.float64 is a float too; float32 and integer scalars keep numpy's own arithmetic
    noise *= math.sqrt(variance / 2.0) if isinstance(variance, float) else np.sqrt(variance / 2.0)
    return noise


def synthesize_model_mode(users, layout: TileLayout, noise_var: float,
                          rng: np.random.Generator) -> TileObservations:
    """Tile observations from the flat-per-tile closed form.

    Each user contributes a rank-one term: a complex exponential across
    blocks at its effective CFO, one across tile positions at its effective
    timing, and a per-tile amplitude combining the CFO attenuation, the
    tile-averaged channel and the delay phase at the tile start.  Noise is
    i.i.d. circular Gaussian of the given variance per grid entry, drawn
    first; the users are checked on every call (:func:`_stack_users`).
    """
    grid = _complex_noise(rng, (layout.n_blocks, layout.n_tiles, layout.tile_width), noise_var)
    if users:  # an idle slot is noise alone: skip building empty signal arrays
        grid += _model_signal(*_stack_users(users, layout)[:4], layout)[0]
    return TileObservations(layout, grid)


def _model_signal(codes, delays, cfos, cirs, layout: TileLayout) -> np.ndarray:
    """Noise-free model-mode grids, (T, n_blocks, n_tiles, tile_width), of T draws of K valid
    users each: (T, K) codes, delays and CFOs and (T, K, taps) channels, unchecked."""
    n, n_blocks, width = layout.n_subcarriers, layout.n_blocks, layout.tile_width
    xi, eta = _effective_offsets(codes, delays, cfos, layout)
    tile_means = _responses(cirs, layout).reshape(len(cirs), layout.n_tiles, width, -1)
    tile_means = tile_means.sum(axis=2) / width  # (T, q, k)
    # b delay is an exact integer in float64: reduced mod N, the phase's argument stays
    # below 2 pi instead of reaching about 1200 rad
    delay_phase = np.exp(np.mod(layout.tile_bins[:, :1] * delays[:, None], n) * (-2j * np.pi / n))
    amps = _cfo_attenuation(cfos, n)[:, None] * tile_means * delay_phase  # (T, q, k)
    block_phase = np.exp(2j * np.pi * xi[:, None] * np.arange(n_blocks)[:, None])  # (T, m, k)
    tile_phase = np.exp(2j * np.pi * eta[:, None] * np.arange(width)[:, None])  # (T, v, k)
    return (block_phase[:, :, None] * amps[:, None]) @ tile_phase.swapaxes(1, 2)[:, None]


def synthesize_waveform_mode(users, layout: TileLayout, noise_var: float,
                             rng: np.random.Generator) -> TileObservations:
    """Tile observations of the full OFDMA transmit/channel/receive chain.

    Each user's code symbols go onto its ranging bins in every block,
    multiplied by its channel's frequency response and its delay's phase
    ramp; this is exact because delay plus channel length must fit inside
    the ranging prefix (checked here), so every kept DFT window sees a
    circular convolution.  The frequency offset, a continuous rotation of
    the slot, sends each loaded bin into every bin of kept window m with
    the Dirichlet kernel D(d + cfo) of their distance d (:func:`_leakage_kernel`),
    times the rotation at the window start,
    exp(2j pi cfo (m * block_len + cp_ranging) / N).  Users are summed and
    i.i.d. circular Gaussian noise of the given variance is added per tile
    bin, as in model mode: the unitary DFT of white time-domain noise.  As
    there, the noise is drawn first and the users are checked on every call
    (:func:`_stack_users`).
    """
    grid = _complex_noise(rng, (layout.n_blocks, layout.n_tiles, layout.tile_width), noise_var)
    if users:  # an idle slot is noise alone: skip building empty signal arrays
        *arrays, ends = _stack_users(users, layout)
        if max(ends) > layout.cp_ranging:
            raise ValidationError("delay plus channel length must fit inside the ranging prefix")
        grid += _waveform_signal(*arrays, layout)[0]
    return TileObservations(layout, grid)


# draws whose leakage kernels, (K, b', b) floats each, are built and applied at once: two keep
# a 16-tile layout's kernels under 200 KiB at K = 3
_KERNEL_DRAWS = 2


def _waveform_signal(codes, delays, cfos, cirs, layout: TileLayout) -> np.ndarray:
    """Noise-free waveform-mode grids, (T, n_blocks, n_tiles, tile_width), of T draws of K valid
    users each, whose delay plus taps fit the ranging prefix: arrays as :func:`_model_signal`'s."""
    n, bins = layout.n_subcarriers, layout.tile_bins
    gather, bin_phase, block_steps, block_codes, bin_codes = layout._leakage_tables[2:]
    # rank-one tiles, with the phases of D split between each user's blocks and bins
    alpha = np.exp(1j * np.pi * cfos[..., None] * block_steps / n) * block_codes[codes]  # (T,k,m)
    # b (2 delay + 1) is an exact integer in float64: reduced mod 2N, the ramp's
    # argument stays below 2 pi instead of reaching about 1400 rad
    turns = np.mod(bins.ravel() * (2 * delays[..., None] + 1), 2 * n)
    ramp = np.exp(turns * (-1j * np.pi / n))  # (T, k, b)
    rows = ramp * bin_codes[codes] * _responses(cirs, layout).swapaxes(1, 2)
    rows = rows.view(float).reshape(*codes.shape, -1, 2)  # (T, k, b, re/im)
    kernel = _leakage_kernel(layout, cfos)  # (T, k, d)
    chunks = [slice(t, t + _KERNEL_DRAWS) for t in range(0, len(codes), _KERNEL_DRAWS)]
    leaked = np.concatenate([kernel[c].take(gather, axis=-1) @ rows[c] for c in chunks])
    leaked = leaked.view(complex)[..., 0]  # (T, k, b')
    grids = (alpha.swapaxes(1, 2) @ leaked) * bin_phase  # (T, m, b')
    return grids.reshape(len(codes), layout.n_blocks, *bins.shape)
