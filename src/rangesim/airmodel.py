"""Uplink ranging signal synthesis.

Two generators produce the tile observations the receiver consumes:

* model mode evaluates the flat-per-tile closed form directly in the DFT
  domain, which makes it an exact oracle for estimator unit tests;
* waveform mode is exact for the full OFDMA chain: channel and delay are
  per-bin gains (together they fit inside the ranging prefix), and each
  user's frequency offset leaks every tile bin into every other one through
  the DFT window's Dirichlet kernel, as intercarrier leakage does on air.

Both modes share that kernel (:func:`cfo_attenuation`) and one noise model,
i.i.d. circular Gaussian per tile bin.  They draw from an injected random
generator and share no state, so independent trials can run concurrently
on independent streams.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


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
        if self.tile_width < 2 or self.n_blocks < 2:
            raise ValidationError("tile_width and n_blocks must both be at least 2")
        if not self.tile_starts:
            raise ValidationError("a layout needs at least one tile")
        if self.cp_ranging < 0:
            raise ValidationError("the ranging prefix cannot be negative")
        if self.cp_ranging > self.n_subcarriers:
            raise ValidationError("the ranging prefix cannot be longer than the block it extends")
        bins = self.tile_bins
        outside = (bins[:, 0] < 0) | (bins[:, -1] >= self.n_subcarriers)
        if outside.any():
            raise ValidationError(f"tile at {bins[outside, 0][0]} exceeds the subcarrier range")
        if np.bincount(bins.ravel()).max() > 1:
            raise ValidationError("tiles overlap; they must be pairwise disjoint")

    @classmethod
    @functools.lru_cache(maxsize=32)
    def uniform(cls, n_subcarriers, n_blocks, n_tiles, tile_width, cp_ranging,
                spacing=None) -> "TileLayout":
        """Layout with ``n_tiles`` tiles spaced evenly across the spectrum.

        Cached: equal arguments return the same frozen instance, so callers
        may ask for the layout as often as they like.
        """
        if n_tiles < 1:
            raise ValidationError("a layout needs at least one tile")
        if spacing is None:
            spacing = n_subcarriers // n_tiles
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
    def _bin_distances(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct distances d = b - b' between tile bins, and the index that
        gathers the (QV, QV) matrix of d over flat tile bins (b, b') from them."""
        bins = self.tile_bins.ravel()
        shifted = bins[:, None] - bins[None, :] + self.n_subcarriers - 1  # >= 0
        present = np.bincount(shifted.ravel()) > 0
        distances = np.flatnonzero(present) - (self.n_subcarriers - 1)
        return distances, (np.cumsum(present) - 1)[shifted]


@dataclass(frozen=True)
class UserTruth:
    """Ground truth for one station attempting network entry."""

    code: int
    delay: int       # timing error in whole samples, >= 0
    cfo: float       # frequency offset as a fraction of the subcarrier spacing
    cir: np.ndarray = field(repr=False)  # complex channel impulse response


@dataclass(frozen=True)
class ChannelProfile:
    """Exponentially decaying multipath power profile with unit total power."""

    n_taps: int
    decay: float

    def __post_init__(self):
        if self.n_taps < 1:
            raise ValidationError("a channel needs at least one tap")
        if not self.decay > 0:
            raise ValidationError(f"decay constant must be a positive number, got {self.decay}")

    def tap_variances(self) -> np.ndarray:
        raw = np.exp(-np.arange(self.n_taps) / self.decay)
        return raw / raw.sum()


@dataclass
class TileObservations:
    """DFT outputs on the ranging tiles: grid[m, q, v] is block m, tile q, offset v."""

    layout: TileLayout
    grid: np.ndarray

    def __post_init__(self):
        expected = (self.layout.n_blocks, self.layout.n_tiles, self.layout.tile_width)
        if self.grid.shape != expected:
            raise ValidationError(f"grid shape {self.grid.shape} does not match layout {expected}")


def code_matrix(code: int, tile_width: int, n_blocks: int) -> np.ndarray:
    """Full (tile_width, n_blocks) ranging code matrix."""
    if tile_width < 2 or n_blocks < 2:
        raise ValidationError("codes need tile_width >= 2 and n_blocks >= 2")
    v = np.arange(tile_width)[:, None] / (tile_width - 1)
    m = np.arange(n_blocks)[None, :] / (n_blocks - 1)
    return np.exp(2j * np.pi * code * (v + m))


def cfo_attenuation(offset, n_subcarriers: int):
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


def effective_offsets(user: UserTruth, layout: TileLayout) -> tuple[float, float]:
    """Composite per-user unknowns the subspace estimator actually sees.

    Returns ``(effective_cfo, effective_timing)``: the code index folds into
    both, the frequency offset only into the first (scaled by the extended
    block length), the delay only into the second (as a negative phase ramp
    across a tile).
    """
    xi = user.code / (layout.n_blocks - 1) + user.cfo * layout.block_len / layout.n_subcarriers
    eta = user.code / (layout.tile_width - 1) - user.delay / layout.n_subcarriers
    return xi, eta


def channel_freq_response(cir, bins, n_subcarriers: int) -> np.ndarray:
    """Frequency response of a tapped channel at the given subcarriers, shaped like ``bins``."""
    cir = np.asarray(cir, dtype=complex)
    return np.exp(-2j * np.pi * np.multiply.outer(bins, np.arange(cir.size)) / n_subcarriers) @ cir


def draw_channel(profile: ChannelProfile, rng: np.random.Generator) -> np.ndarray:
    """Sample one channel realisation: independent circular Gaussian taps."""
    return _complex_noise(rng, profile.n_taps, profile.tap_variances())


def _check_users(users, layout: TileLayout) -> None:
    codes = [u.code for u in users]
    if len(set(codes)) != len(codes):
        raise ValidationError("active users must carry distinct ranging codes")
    for u in users:
        if not 0 <= u.code < layout.max_codes:
            raise ValidationError(f"code {u.code} outside [0, {layout.max_codes - 1}]")
        if u.delay < 0:
            raise ValidationError("delays must be non-negative")


def _complex_noise(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return np.sqrt(variance / 2.0) * (re + 1j * im)


def synthesize_model_mode(users, layout: TileLayout, noise_var: float,
                          rng: np.random.Generator) -> TileObservations:
    """Tile observations from the flat-per-tile closed form.

    Each user contributes a rank-one term: a complex exponential across
    blocks at its effective CFO, one across tile positions at its effective
    timing, and a per-tile amplitude combining the CFO attenuation, the
    tile-averaged channel and the delay phase at the tile start.  Noise is
    i.i.d. circular Gaussian of the given variance per grid entry.
    """
    _check_users(users, layout)
    n = layout.n_subcarriers
    bins = layout.tile_bins
    grid = np.zeros((layout.n_blocks, layout.n_tiles, layout.tile_width), dtype=complex)
    for user in users:
        xi, eta = effective_offsets(user, layout)
        tile_means = channel_freq_response(user.cir, bins, n).mean(axis=1)
        delay_phase = np.exp(-2j * np.pi * bins[:, 0] * user.delay / n)
        amps = cfo_attenuation(user.cfo, n) * tile_means * delay_phase
        block_phase = np.exp(2j * np.pi * xi * np.arange(layout.n_blocks))
        tile_phase = np.exp(2j * np.pi * eta * np.arange(layout.tile_width))
        grid += np.einsum("m,q,v->mqv", block_phase, amps, tile_phase)
    grid += _complex_noise(rng, grid.shape, noise_var)
    return TileObservations(layout, grid)


def synthesize_waveform_mode(users, layout: TileLayout, noise_var: float,
                             rng: np.random.Generator) -> TileObservations:
    """Tile observations of the full OFDMA transmit/channel/receive chain.

    Each user's code symbols go onto its ranging bins in every block,
    multiplied by its channel's frequency response and its delay's phase
    ramp; this is exact because delay plus channel length must fit inside
    the ranging prefix (checked here), so every kept DFT window sees a
    circular convolution.  The frequency offset, a continuous rotation of
    the slot, sends each loaded bin into every bin of kept window m with
    the Dirichlet kernel ``cfo_attenuation(d + cfo)`` of their distance d,
    times the rotation at the window start,
    exp(2j pi cfo (m * block_len + cp_ranging) / N).  Users are summed and
    i.i.d. circular Gaussian noise of the given variance is added per tile
    bin, as in model mode: the unitary DFT of white time-domain noise.
    """
    _check_users(users, layout)
    for u in users:
        if u.delay + np.asarray(u.cir).size > layout.cp_ranging:
            raise ValidationError("delay plus channel length must fit inside the ranging prefix")

    n = layout.n_subcarriers
    bins = layout.tile_bins
    distances, gather = layout._bin_distances
    window_start = np.arange(layout.n_blocks) * layout.block_len + layout.cp_ranging
    grid = np.zeros((layout.n_blocks, bins.size), dtype=complex)
    for user in users:
        gains = channel_freq_response(user.cir, bins, n) * np.exp(-2j * np.pi * bins * user.delay / n)
        symbols = code_matrix(user.code, layout.tile_width, layout.n_blocks).T  # (m, v)
        tiles = (symbols[:, None, :] * gains).reshape(layout.n_blocks, -1)
        leakage = cfo_attenuation(distances + user.cfo, n)[gather]
        grid += (tiles @ leakage) * np.exp(2j * np.pi * user.cfo * window_start / n)[:, None]
    grid = grid.reshape(layout.n_blocks, layout.n_tiles, layout.tile_width)
    grid += _complex_noise(rng, grid.shape, noise_var)
    return TileObservations(layout, grid)
