"""Uplink ranging signal synthesis.

Two generators produce the tile observations the receiver consumes:

* model mode evaluates the flat-per-tile closed form directly in the DFT
  domain, which makes it an exact oracle for estimator unit tests;
* waveform mode modulates real OFDMA blocks, passes them through a
  multipath channel with per-user delay and carrier frequency offset,
  and demodulates at the base station, so intercarrier leakage shows up
  exactly the way it would on air.

Both modes draw from an injected random generator and share no state, so
independent trials can run concurrently on independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TileLayout:
    """Ranging subcarrier geometry for one subchannel.

    A subchannel consists of ``n_tiles`` disjoint tiles of ``tile_width``
    adjacent subcarriers each, observed over ``n_blocks`` consecutive
    OFDMA blocks.  ``cp_ranging`` is the cyclic prefix used while ranging,
    ``cp_data`` the (shorter) one used during data traffic.
    """

    n_subcarriers: int
    n_blocks: int
    n_tiles: int
    tile_width: int
    tile_starts: tuple[int, ...]
    cp_ranging: int
    cp_data: int

    def __post_init__(self):
        if self.tile_width < 2 or self.n_blocks < 2:
            raise ValidationError("tile_width and n_blocks must both be at least 2")
        if self.n_tiles < 1 or len(self.tile_starts) != self.n_tiles:
            raise ValidationError("tile_starts must list one start index per tile")
        if self.cp_ranging < 0 or self.cp_data < 0:
            raise ValidationError("cyclic prefix lengths cannot be negative")
        occupied = set()
        for start in self.tile_starts:
            if start < 0 or start + self.tile_width > self.n_subcarriers:
                raise ValidationError(f"tile at {start} exceeds the subcarrier range")
            occupied.update(range(start, start + self.tile_width))
        if len(occupied) != self.n_tiles * self.tile_width:
            raise ValidationError("tiles overlap; they must be pairwise disjoint")

    @classmethod
    def uniform(cls, n_subcarriers, n_blocks, n_tiles, tile_width, cp_ranging, cp_data,
                spacing=None) -> "TileLayout":
        """Layout with tiles spaced evenly across the spectrum."""
        if n_tiles < 1:
            raise ValidationError("a layout needs at least one tile")
        if spacing is None:
            spacing = n_subcarriers // n_tiles
        starts = tuple(q * spacing for q in range(n_tiles))
        return cls(n_subcarriers, n_blocks, n_tiles, tile_width, starts, cp_ranging, cp_data)

    @property
    def block_len(self) -> int:
        """Samples per cyclically extended ranging block."""
        return self.n_subcarriers + self.cp_ranging

    @property
    def max_codes(self) -> int:
        """Largest number of simultaneously separable ranging codes."""
        return min(self.tile_width, self.n_blocks) - 1

    @property
    def delay_bound(self) -> float:
        """Largest resolvable delay in samples (exclusive): one timing-code spacing."""
        return self.n_subcarriers / (self.tile_width - 1)

    @property
    def tile_bins(self) -> np.ndarray:
        """All subcarrier indices of this subchannel, shape (n_tiles, tile_width)."""
        starts = np.asarray(self.tile_starts)[:, None]
        return starts + np.arange(self.tile_width)[None, :]


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
        if self.decay <= 0:
            raise ValidationError("decay constant must be positive")

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


def code_entry(code: int, v: int, m: int, tile_width: int, n_blocks: int) -> complex:
    """One symbol of a ranging code: unit modulus, linear phase in both axes."""
    if tile_width < 2 or n_blocks < 2:
        raise ValidationError("codes need tile_width >= 2 and n_blocks >= 2")
    if not (0 <= v < tile_width and 0 <= m < n_blocks):
        raise ValidationError("symbol position outside the code matrix")
    return complex(np.exp(2j * np.pi * code * (v / (tile_width - 1) + m / (n_blocks - 1))))


def code_matrix(code: int, tile_width: int, n_blocks: int) -> np.ndarray:
    """Full (tile_width, n_blocks) ranging code matrix."""
    if tile_width < 2 or n_blocks < 2:
        raise ValidationError("codes need tile_width >= 2 and n_blocks >= 2")
    v = np.arange(tile_width)[:, None] / (tile_width - 1)
    m = np.arange(n_blocks)[None, :] / (n_blocks - 1)
    return np.exp(2j * np.pi * code * (v + m))


def cfo_attenuation(cfo: float, n_subcarriers: int) -> complex:
    """Complex gain a frequency offset imposes on the matching DFT bin.

    Magnitude is at most 1 and even in the offset; the phase term reflects
    that the DFT window sits after half a block of accumulated rotation.
    """
    if cfo == 0:
        return 1.0 + 0.0j
    n = n_subcarriers
    gain = np.sin(np.pi * cfo) / (n * np.sin(np.pi * cfo / n))
    return complex(gain * np.exp(1j * np.pi * cfo * (n - 1) / n))


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


def channel_freq_response(cir, bins, n_subcarriers: int):
    """Frequency response of a tapped channel at the given subcarrier(s)."""
    cir = np.asarray(cir, dtype=complex)
    bins_arr = np.atleast_1d(np.asarray(bins))
    phases = np.exp(-2j * np.pi * np.outer(bins_arr, np.arange(cir.size)) / n_subcarriers)
    out = phases @ cir
    return complex(out[0]) if np.isscalar(bins) or np.ndim(bins) == 0 else out


def tile_average_response(cir, tile_index: int, layout: TileLayout) -> complex:
    """Mean channel response over one tile (the flat-per-tile approximation)."""
    start = layout.tile_starts[tile_index]
    bins = np.arange(start, start + layout.tile_width)
    return complex(np.mean(channel_freq_response(cir, bins, layout.n_subcarriers)))


def draw_channel(profile: ChannelProfile, rng: np.random.Generator) -> np.ndarray:
    """Sample one channel realisation: independent circular Gaussian taps."""
    var = profile.tap_variances()
    re = rng.standard_normal(profile.n_taps)
    im = rng.standard_normal(profile.n_taps)
    return np.sqrt(var / 2.0) * (re + 1j * im)


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
    m_count, q_count, v_count = layout.n_blocks, layout.n_tiles, layout.tile_width
    grid = np.zeros((m_count, q_count, v_count), dtype=complex)
    n = layout.n_subcarriers
    for user in users:
        xi, eta = effective_offsets(user, layout)
        gain = cfo_attenuation(user.cfo, n)
        amps = np.array(
            [
                gain
                * tile_average_response(user.cir, q, layout)
                * np.exp(-2j * np.pi * layout.tile_starts[q] * user.delay / n)
                for q in range(q_count)
            ]
        )
        block_phase = np.exp(2j * np.pi * xi * np.arange(m_count))
        tile_phase = np.exp(2j * np.pi * eta * np.arange(v_count))
        grid += np.einsum("m,q,v->mqv", block_phase, amps, tile_phase)
    grid += _complex_noise(rng, grid.shape, noise_var)
    return TileObservations(layout, grid)


def modulate_slot(freq_grids: np.ndarray, layout: TileLayout) -> np.ndarray:
    """Unitary IDFT per block plus cyclic prefix; returns the slot samples."""
    time = np.fft.ifft(freq_grids, axis=1, norm="ortho")
    with_cp = np.concatenate([time[:, time.shape[1] - layout.cp_ranging:], time], axis=1)
    return with_cp.reshape(-1)


def apply_channel_and_cfo(slot: np.ndarray, cir, delay: int, cfo: float,
                          layout: TileLayout) -> np.ndarray:
    """Delay, convolve with the channel and spin up the frequency offset.

    The offset phase accumulates continuously over the whole slot, so the
    rotation each block sees grows by one extended block length per block.
    """
    total = slot.size
    full = np.convolve(slot, np.asarray(cir, dtype=complex))
    out = np.zeros(total, dtype=complex)
    out[delay:] = full[: total - delay]
    if cfo != 0:
        out *= np.exp(2j * np.pi * cfo * np.arange(total) / layout.n_subcarriers)
    return out


def demodulate_slot(samples: np.ndarray, layout: TileLayout) -> np.ndarray:
    """Drop each block's prefix and return the unitary DFT per block."""
    blocks = samples.reshape(layout.n_blocks, layout.block_len)[:, layout.cp_ranging:]
    return np.fft.fft(blocks, axis=1, norm="ortho")


def extract_tiles(spectra: np.ndarray, layout: TileLayout) -> np.ndarray:
    """Pick the ranging bins out of full per-block spectra."""
    return spectra[:, layout.tile_bins]


def _ranging_grids(user: UserTruth, layout: TileLayout) -> np.ndarray:
    grids = np.zeros((layout.n_blocks, layout.n_subcarriers), dtype=complex)
    symbols = code_matrix(user.code, layout.tile_width, layout.n_blocks).T  # (m, v)
    for start in layout.tile_starts:
        grids[:, start : start + layout.tile_width] = symbols
    return grids


def synthesize_waveform_mode(users, layout: TileLayout, noise_var: float,
                             rng: np.random.Generator) -> TileObservations:
    """Tile observations from a full transmit/channel/receive simulation.

    Each user's code symbols are placed on its ranging bins in every block,
    modulated, cyclically extended, delayed, convolved with its channel and
    rotated by its frequency offset; users are summed, time-domain noise of
    the given variance is added, and the receiver strips prefixes, takes the
    DFT and extracts the tile bins.
    """
    _check_users(users, layout)
    for u in users:
        if u.delay + np.asarray(u.cir).size > layout.cp_ranging:
            raise ValidationError("delay plus channel length must fit inside the ranging prefix")

    total = np.zeros(layout.n_blocks * layout.block_len, dtype=complex)
    for user in users:
        slot = modulate_slot(_ranging_grids(user, layout), layout)
        total += apply_channel_and_cfo(slot, user.cir, user.delay, user.cfo, layout)
    total += _complex_noise(rng, total.shape, noise_var)
    return TileObservations(layout, extract_tiles(demodulate_slot(total, layout), layout))
