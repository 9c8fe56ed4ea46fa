"""Signal-synthesis checks: closed forms, DFT oracles, and mode cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangesim.airmodel import (
    MAX_BLOCKS,
    MAX_SUBCARRIERS,
    MAX_TAPS,
    MAX_TILE_BINS,
    ChannelProfile,
    TileLayout,
    TileObservations,
    UserTruth,
    draw_channel,
    synthesize_model_mode,
    synthesize_waveform_mode,
)
from rangesim.airmodel import (_cfo_attenuation, _complex_noise, _effective_offsets, _leakage_kernel,
                               _model_signal, _tile_tap_phasors, _waveform_signal)
from rangesim.errors import ValidationError

from helpers import AS_BUILT_AND_COPIES, reference_layout


def small_layout():
    return TileLayout.uniform(64, 4, 4, 4, cp_ranging=16)


def non_uniform_layout():
    return TileLayout(256, 4, 4, (0, 7, 40, 121, 250), cp_ranging=64)


def closed_form_symbol(code, v, m, tile_width, n_blocks):
    """Ranging code symbol at tile position v, block m, straight from its definition."""
    return np.exp(2j * np.pi * code * (v / (tile_width - 1) + m / (n_blocks - 1)))


def code_symbols(code, tile_width, n_blocks):
    """A code's (tile_width, n_blocks) symbol matrix: rows are tile positions, columns blocks."""
    v, m = np.ogrid[:tile_width, :n_blocks]
    return closed_form_symbol(code, v, m, tile_width, n_blocks)


def tap_sum(cir, bins, n_subcarriers):
    """Channel frequency response sum_t h_t exp(-2j pi b t / N) at each bin b, one tap at a time."""
    bins = np.asarray(bins)
    return sum(h * np.exp(-2j * np.pi * bins * t / n_subcarriers) for t, h in enumerate(cir))


def spin(cfo, n_samples, n_subcarriers):
    """Continuous frequency-offset rotation over a slot's sample index, prefixes included."""
    return np.exp(2j * np.pi * cfo * np.arange(n_samples) / n_subcarriers)


def time_domain_oracle(users, layout):
    """Noiseless waveform tiles by the literal time-domain chain.

    Per user: place the code on the tile bins, unitary IDFT per block, prepend
    each block's cyclic prefix, convolve the slot with the channel, delay it
    by whole samples (zeros shift in), rotate by the CFO, then sum the users,
    drop the prefixes, take the unitary DFT and pick the tile bins.
    """
    n, cp = layout.n_subcarriers, layout.cp_ranging
    total = np.zeros(layout.n_blocks * layout.block_len, dtype=complex)
    for user in users:
        spectra = np.zeros((layout.n_blocks, n), dtype=complex)
        for start in layout.tile_starts:
            for v in range(layout.tile_width):
                for m in range(layout.n_blocks):
                    spectra[m, start + v] = closed_form_symbol(
                        user.code, v, m, layout.tile_width, layout.n_blocks
                    )
        blocks = np.fft.ifft(spectra, axis=1, norm="ortho")
        slot = np.concatenate([blocks[:, n - cp:], blocks], axis=1).reshape(-1)
        received = np.zeros_like(slot)
        received[user.delay:] = np.convolve(slot, user.cir)[: slot.size - user.delay]
        total += received * spin(user.cfo, slot.size, n)
    kept = total.reshape(layout.n_blocks, layout.block_len)[:, cp:]
    spectra = np.fft.fft(kept, axis=1, norm="ortho")
    return spectra[:, np.asarray(layout.tile_starts)[:, None] + np.arange(layout.tile_width)]


class TestTileLayout:
    def test_reference_numbers(self):
        layout = reference_layout()
        assert layout.block_len == 1280
        assert layout.max_codes == 3
        assert layout.tile_starts[:3] == (0, 64, 128)
        assert layout.n_tiles == 16
        assert layout.acquisition_bound == 1024 / (2 * 1280 * 3)
        assert layout.delay_bound == 1024 / 3

    @pytest.mark.parametrize("copied", AS_BUILT_AND_COPIES)
    def test_tile_bins_built_once_and_read_only(self, copied):
        built = small_layout()
        built._leakage_tables  # a pickle or deep copy restored built tables writeable
        layout = copied(built)
        assert layout == built
        assert layout.tile_bins is layout.tile_bins
        assert not layout.tile_bins.flags.writeable
        assert layout._leakage_tables is layout._leakage_tables
        assert not any(table.flags.writeable for table in layout._leakage_tables)
        np.testing.assert_array_equal(layout.tile_bins, [[0, 1, 2, 3], [16, 17, 18, 19],
                                                         [32, 33, 34, 35], [48, 49, 50, 51]])

    def test_empty_layout_rejected(self):
        with pytest.raises(ValidationError, match=r"^n_tiles 0 outside \[1, 256\]$"):
            TileLayout(16, 4, 4, (), 4)

    def test_overlapping_tiles_rejected(self):
        with pytest.raises(ValidationError):
            TileLayout(16, 4, 4, (0, 2), 4)

    def test_tile_past_edge_rejected(self):
        with pytest.raises(ValidationError, match=r"tile start 14 outside \[0, 12\]"):
            TileLayout(16, 4, 4, (0, 14), 4)
        with pytest.raises(ValidationError, match=r"tile start -1 outside \[0, 12\]"):
            TileLayout(16, 4, 4, (-1, 8), 4)

    def test_degenerate_width_rejected(self):
        with pytest.raises(ValidationError):
            TileLayout(16, 4, 1, (0, 4), 4)

    def test_prefix_longer_than_block_rejected(self):
        with pytest.raises(ValidationError):
            TileLayout.uniform(64, 4, 4, 4, cp_ranging=100)

    def test_uniform_raises_what_the_layout_of_all_its_tiles_raises(self):
        # more tiles than fit raise the error (first start out of range, else an overlap) that
        # the full layout raises; the tile-bin cap bounds the starts listed
        def outcome(build):
            try:
                return build().tile_starts
            except ValidationError as exc:
                return str(exc)

        for n in range(1, 21):
            for width in range(2, 7):
                for n_tiles in range(1, 13):
                    for spacing in (None, *range(1, 9)):
                        step = n // n_tiles if spacing is None else spacing
                        starts = tuple(q * step for q in range(n_tiles))
                        got = outcome(lambda: TileLayout.uniform(n, 4, n_tiles, width, 0,
                                                                 spacing=spacing))
                        want = outcome(lambda: TileLayout(n, 4, width, starts, 0))
                        assert got == want, (n, width, n_tiles, spacing)

    def test_overlap_is_read_from_the_sorted_starts(self):
        assert TileLayout(16, 4, 4, (8, 0, 4), 4).tile_starts == (8, 0, 4)  # any order
        for starts in ((2**15 + 2, 2**15), (2**15, 0, 2**15 + 3)):
            with pytest.raises(ValidationError, match="tiles overlap"):
                TileLayout(MAX_SUBCARRIERS, 4, 4, starts, 256)


def test_block_steps_at_the_caps_are_the_exact_values():
    # 2 * window start + N - 1 per block, as a float64 array expression
    n = MAX_SUBCARRIERS
    layout = TileLayout.uniform(n, MAX_BLOCKS, 16, 4, n)
    exact = [2 * (m * layout.block_len + layout.cp_ranging) + n - 1 for m in range(MAX_BLOCKS)]
    steps = layout._leakage_tables[4]
    assert steps.dtype == float and steps.tolist() == exact


class TestCodeEntry:
    """The layout's code tables, each code's block phases and per-bin tile phases, against the
    closed form: their product at (v, m) is the code's symbol."""

    @staticmethod
    def tables(tile_width, n_blocks, n_tiles=2):
        layout = TileLayout.uniform(16 * tile_width, n_blocks, n_tiles, tile_width, 4)
        return layout._leakage_tables[5:]

    def test_code_zero_is_all_ones(self):
        for table in self.tables(4, 4):
            np.testing.assert_array_equal(table[0], np.ones(table.shape[1]))

    def test_origin_entry(self):
        block_codes, bin_codes = self.tables(4, 4)
        assert block_codes[1, 0] * bin_codes[1, 0] == pytest.approx(1.0)

    def test_phase_wraps_to_one(self):
        # code 2 at (v=1, m=2): exponent 2*(1/3 + 2/3) = 2, a full turn twice
        block_codes, bin_codes = self.tables(4, 4)
        assert block_codes[2, 2] * bin_codes[2, 1] == pytest.approx(1.0)

    def test_unit_modulus(self):
        for table in self.tables(4, 4):
            np.testing.assert_allclose(np.abs(table), 1.0, atol=1e-15)

    def test_matrix_agrees_with_entries(self):
        # unequal sides pin the axis order; the bin phases repeat over the tiles
        block_codes, bin_codes = self.tables(5, 3, n_tiles=3)
        assert block_codes.shape == (2, 3) and bin_codes.shape == (2, 3 * 5)
        for code in range(2):
            tile = bin_codes[code].reshape(3, 5)
            assert (tile == tile[0]).all()
            symbols = tile[0][:, None] * block_codes[code]
            for v in range(5):
                for m in range(3):
                    assert symbols[v, m] == pytest.approx(closed_form_symbol(code, v, m, 5, 3))


class TestCfoAttenuation:
    def test_zero_offset(self):
        assert _cfo_attenuation(0.0, 1024) == 1.0

    def test_direct_evaluation(self):
        got = _cfo_attenuation(0.1, 1024)
        assert abs(got) == pytest.approx(0.9836316585140042, abs=1e-12)
        assert np.angle(got) == pytest.approx(np.pi * 0.1 * 1023 / 1024, abs=1e-12)

    def test_conjugate_symmetry(self):
        for eps in (0.03, 0.17, 0.42):
            assert _cfo_attenuation(-eps, 1024) == pytest.approx(
                np.conj(_cfo_attenuation(eps, 1024))
            )

    def test_magnitude_bounded_and_decreasing(self):
        grid = np.linspace(0.0, 0.5, 51)
        mags = [abs(_cfo_attenuation(float(e), 1024)) for e in grid]
        assert all(m <= 1.0 + 1e-12 for m in mags)
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_arrays_map_elementwise(self):
        # as _model_signal passes them: a zero entry takes D(0) = 1 without touching the rest
        offsets = np.array([0.0, 0.1, -0.42, 0.0, 3.5])
        got = _cfo_attenuation(offsets, 1024)
        for i, x in enumerate(offsets.tolist()):
            assert got[i] == _cfo_attenuation(x, 1024)


class TestEffectiveOffsets:
    def test_all_zero(self):
        assert _effective_offsets(0, 0, 0.0, reference_layout()) == (0.0, 0.0)

    def test_cfo_component(self):
        xi, _ = _effective_offsets(1, 0, 0.05, reference_layout())
        assert xi == pytest.approx(1 / 3 + 0.05 * 1280 / 1024, abs=1e-15)

    def test_delay_component(self):
        _, eta = _effective_offsets(2, 204, 0.0, reference_layout())
        assert eta == pytest.approx(2 / 3 - 204 / 1024, abs=1e-15)

    def test_arrays_map_elementwise(self):
        # equal-length arrays, as the synthesizers pass them, give each scalar call's value
        layout = reference_layout()
        codes, delays = np.array([0, 2, 1, 2]), np.array([0.0, 204.0, 37.0, 1.0])
        cfos = np.array([0.0, -0.1, 0.0413, 0.09999])
        xi, eta = _effective_offsets(codes, delays, cfos, layout)
        for i in range(codes.size):
            want = _effective_offsets(int(codes[i]), int(delays[i]), float(cfos[i]), layout)
            assert (xi[i], eta[i]) == want


class TestChannelFrequencyResponse:
    """``_tile_tap_phasors(layout, L) @ cir``: a channel's response on the flat tile bins."""

    def test_single_tap_is_flat(self):
        got = _tile_tap_phasors(small_layout(), 1) @ np.array([1.0 + 0j])
        np.testing.assert_array_equal(got, np.ones(16))

    def test_pure_delay(self):
        layout = small_layout()
        got = _tile_tap_phasors(layout, 2) @ np.array([0.0, 1.0 + 0j])
        want = np.exp(-2j * np.pi * layout.tile_bins.ravel() / layout.n_subcarriers)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_matches_fft_oracle(self):
        rng = np.random.default_rng(2)
        cir = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        for layout in (reference_layout(), non_uniform_layout()):
            got = _tile_tap_phasors(layout, 12) @ cir
            want = np.fft.fft(cir, layout.n_subcarriers)[layout.tile_bins.ravel()]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_bins_times_taps_at_the_caps_keep_their_phase(self):
        # the largest bins and tap indices the caps admit; b t mod N is formed in Python ints
        n, width = MAX_SUBCARRIERS, 16
        starts = tuple(range(n - MAX_TILE_BINS, n, width))
        layout = TileLayout(n, 4, width, starts, n)
        bins = layout.tile_bins.ravel().tolist()
        want = np.exp(-2j * np.pi * np.array([[b * t % n for t in range(MAX_TAPS)] for b in bins])
                      / n)
        np.testing.assert_allclose(_tile_tap_phasors(layout, MAX_TAPS), want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("copied", AS_BUILT_AND_COPIES)
    @pytest.mark.parametrize("layout", [small_layout(), reference_layout(), non_uniform_layout()],
                             ids=["small", "reference", "non-uniform"])
    def test_entries_are_tap_sums(self, layout, copied):
        # one read-only table per (layout, tap count), one row per flat tile bin
        layout = copied(layout)
        phasors = _tile_tap_phasors(layout, 3)
        assert phasors is _tile_tap_phasors(layout, 3)
        assert phasors.shape == (layout.tile_bins.size, 3) and not phasors.flags.writeable
        cir = np.array([0.5 + 0.5j, -0.25j, 0.1])
        want = tap_sum(cir, layout.tile_bins.ravel(), layout.n_subcarriers)
        np.testing.assert_allclose(phasors @ cir, want, rtol=0, atol=1e-12)


noise_shapes = st.one_of(st.integers(0, 12),
                         st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple))


@settings(deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), shape=noise_shapes,
       kind=st.sampled_from(["zero", "scalar", "array", "array with zeros"]),
       scale=st.floats(1e-300, 1e300))
def test_complex_noise_is_two_sequential_draws(seed, shape, kind, scale):
    # one draw of all real parts, then all imaginary parts: bit for bit, same stream position
    dims = np.shape(np.empty(shape))
    variance = {
        "zero": 0.0,
        "scalar": scale,
        "array": scale * np.random.default_rng(seed).uniform(0.5, 2.0, dims),
        "array with zeros": scale * np.random.default_rng(seed).integers(0, 2, dims),
    }[kind]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _complex_noise(rng, shape, variance)
    re = ref.standard_normal(shape)
    im = ref.standard_normal(shape)
    want = np.sqrt(variance / 2.0) * (re + 1j * im)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("variance", [np.float32(0.3), np.float16(2.5), 3, np.int64(7)],
                         ids=["float32", "float16", "int", "int64"])
def test_non_float_scalar_variances_keep_numpys_square_root(variance):
    # a float (np.float64 too) takes math.sqrt, the same correctly rounded root; the others
    # keep np.sqrt of numpy's own quotient, at its own precision
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    got = _complex_noise(rng, (3, 5), variance)
    want = np.empty((3, 5), dtype=complex)
    want.real, want.imag = ref.standard_normal((3, 5)), ref.standard_normal((3, 5))
    want *= np.sqrt(variance / 2.0)
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1),
       lead=st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple),
       tail=st.lists(st.integers(0, 5), min_size=1, max_size=2).map(tuple),
       per_entry=st.booleans())
def test_stacked_complex_noise_is_calls_in_a_row(seed, lead, tail, per_entry):
    # the leading axes index arrays drawn one after another, each as its own call would draw it
    variance = np.random.default_rng(seed).uniform(0.0, 2.0, tail) if per_entry else 0.75
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _complex_noise(rng, (*lead, *tail), variance, len(lead))
    want = np.empty((*lead, *tail), dtype=complex)
    for index in np.ndindex(*lead):
        want[index] = _complex_noise(ref, tail, variance)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("layout", [reference_layout(), non_uniform_layout()],
                         ids=["reference", "non-uniform"])
def test_factored_kernel_matches_cfo_attenuation(layout):
    # D(d + e) = K exp(j pi (e (N - 1) - d) / N) at every distinct bin distance d,
    # down to subnormal offsets, where a reciprocal taken first would overflow
    n, bound = layout.n_subcarriers, layout.acquisition_bound
    special = [0.0, 5e-324, 2.2e-309, 1e-12, 0.99 * bound]
    eps = np.concatenate([special, np.negative(special),
                          np.random.default_rng(5).uniform(-bound, bound, 64)])
    distances, _ = bin_distances(layout)
    kernel = _leakage_kernel(layout, eps)
    assert kernel.dtype == float and kernel.shape == (eps.size, distances.size)
    got = kernel * np.exp(1j * np.pi * (eps[:, None] * (n - 1) - distances) / n)
    want = _cfo_attenuation(distances + eps[:, None], n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    # no offset: D(d) is 1 at d = 0 and 0 elsewhere, with no 0/0 on the way
    np.testing.assert_array_equal(kernel[0], distances == 0)


class TestDrawChannel:
    def test_single_tap_variance(self):
        profile = ChannelProfile(1, 12.0)
        np.testing.assert_allclose(profile.tap_variances(), [1.0])

    def test_reference_profile_base_variance(self):
        # 1 / sum_{l<12} exp(-l/12), by the geometric series
        base = ChannelProfile(12, 12.0).tap_variances()[0]
        assert base == pytest.approx(0.1264878736405125, abs=1e-12)

    @pytest.mark.parametrize("copied", AS_BUILT_AND_COPIES)
    def test_tap_variances_computed_once_and_read_only(self, copied):
        profile = copied(ChannelProfile(12, 12.0))
        assert profile == ChannelProfile(12, 12.0)
        first = profile.tap_variances()
        assert profile.tap_variances() is first
        assert not first.flags.writeable

    def test_matches_closed_form_draw(self):
        # draw_channel is exactly sqrt(v/2) * (re + 1j*im) with re, im drawn in that order
        profile = ChannelProfile(12, 12.0)
        v = profile.tap_variances()
        ours, twin = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(5):
            re, im = twin.standard_normal(12), twin.standard_normal(12)
            want = np.sqrt(v / 2) * (re + 1j * im)
            np.testing.assert_array_equal(draw_channel(profile, ours), want)

    @pytest.mark.parametrize("size", [0, 1, 3, 7])
    def test_size_draws_channels_as_calls_in_a_row(self, size):
        # draw_channel(profile, rng, size=K) is K one-channel draws from the same stream,
        # bit for bit, and leaves the stream where they would
        profile = ChannelProfile(12, 12.0)
        ours, twin = np.random.default_rng(9), np.random.default_rng(9)
        got = draw_channel(profile, ours, size=size)
        want = np.array([draw_channel(profile, twin) for _ in range(size)], dtype=complex)
        assert got.shape == (size, 12) and got.dtype == complex
        assert got.tobytes() == want.reshape(size, 12).tobytes()
        assert ours.bit_generator.state == twin.bit_generator.state

    def test_unit_average_energy(self):
        # the closed form above, drawn 100 000 times at once
        profile = ChannelProfile(12, 12.0)
        rng = np.random.default_rng(4)
        n = 100_000
        re, im = rng.standard_normal((n, 12)), rng.standard_normal((n, 12))
        h = np.sqrt(profile.tap_variances() / 2) * (re + 1j * im)
        assert np.mean(np.sum(np.abs(h) ** 2, axis=1)) == pytest.approx(1.0, abs=0.01)

    def test_invalid_profile(self):
        with pytest.raises(ValidationError):
            ChannelProfile(0, 12.0)
        with pytest.raises(ValidationError):
            ChannelProfile(3, 0.0)
        with pytest.raises(ValidationError):
            ChannelProfile(3, float("nan"))

    @pytest.mark.parametrize("decay", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_decay_rejected(self, decay):
        # built a decay-1 profile: a bool read as the number 1
        with pytest.raises(ValidationError, match="^decay constant must be a positive number"):
            ChannelProfile(3, decay)


class TestModelMode:
    def test_no_users_no_noise(self):
        obs = synthesize_model_mode([], small_layout(), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(obs.grid, np.zeros_like(obs.grid))

    def test_single_aligned_user_is_the_code(self):
        layout = small_layout()
        user = UserTruth(2, 0, 0.0, np.array([1.0 + 0j]))
        obs = synthesize_model_mode([user], layout, 0.0, np.random.default_rng(0))
        cm = code_symbols(2, layout.tile_width, layout.n_blocks)
        for q in range(layout.n_tiles):
            np.testing.assert_allclose(obs.grid[:, q, :], cm.T, atol=1e-12)

    def test_matches_direct_evaluation(self):
        # independent oracle: product of code symbol, block rotation, attenuation,
        # tile-averaged channel and delay phase, assembled entry by entry and
        # tile by tile
        layout = small_layout()
        rng = np.random.default_rng(5)
        cir = draw_channel(ChannelProfile(6, 4.0), rng)
        user = UserTruth(1, 9, 0.04, cir)
        obs = synthesize_model_mode([user], layout, 0.0, np.random.default_rng(0))
        n = layout.n_subcarriers
        gain = _cfo_attenuation(0.04, n)
        for m in range(layout.n_blocks):
            for q in range(layout.n_tiles):
                start = layout.tile_starts[q]
                bins = np.arange(start, start + layout.tile_width)
                avg = np.mean(tap_sum(cir, bins, n))
                for v in range(layout.tile_width):
                    bin_idx = start + v
                    want = (
                        closed_form_symbol(1, v, m, layout.tile_width, layout.n_blocks)
                        * np.exp(2j * np.pi * 0.04 * m * layout.block_len / n)
                        * gain
                        * avg
                        * np.exp(-2j * np.pi * bin_idx * 9 / n)
                    )
                    assert obs.grid[m, q, v] == pytest.approx(want, abs=1e-12)

    def test_duplicate_codes_rejected(self):
        layout = small_layout()
        flat = np.array([1.0 + 0j])
        users = [UserTruth(1, 0, 0.0, flat), UserTruth(1, 3, 0.0, flat)]
        with pytest.raises(ValidationError):
            synthesize_model_mode(users, layout, 0.0, np.random.default_rng(0))

    def test_noise_variance(self):
        layout = small_layout()
        obs = synthesize_model_mode([], layout, 0.25, np.random.default_rng(6))
        assert np.mean(np.abs(obs.grid) ** 2) == pytest.approx(0.25, rel=0.2)

    @pytest.mark.parametrize("code", [0, 2])
    def test_delay_phase_is_exact_at_long_delays(self, code):
        # one tap, no CFO, no noise: block 0, tile position 0 of tile q carries
        # exp(-2j pi b_q delay / N) alone, with b_q delay reduced mod N first; unreduced,
        # the argument reaches 1202 rad and misses by up to 2.4e-13
        layout = reference_layout()
        n, starts = layout.n_subcarriers, np.array(layout.tile_starts)
        for delay in range(205):
            user = UserTruth(code, delay, 0.0, np.array([1.0 + 0j]))
            grid = synthesize_model_mode([user], layout, 0.0, np.random.default_rng(0)).grid
            want = np.exp(-2j * np.pi * ((starts * delay) % n) / n)
            np.testing.assert_allclose(grid[0, :, 0], want, rtol=0, atol=1e-14)


class TestWaveformMode:
    def test_synchronized_loopback(self):
        layout = small_layout()
        user = UserTruth(1, 0, 0.0, np.array([1.0 + 0j]))
        obs = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))
        cm = code_symbols(1, layout.tile_width, layout.n_blocks)
        for q in range(layout.n_tiles):
            np.testing.assert_allclose(obs.grid[:, q, :], cm.T, atol=1e-10)

    def test_delay_and_channel_phase_ramp(self):
        layout = small_layout()
        rng = np.random.default_rng(7)
        cir = draw_channel(ChannelProfile(4, 3.0), rng)
        user = UserTruth(2, 6, 0.0, cir)
        obs = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))
        n = layout.n_subcarriers
        for m in range(layout.n_blocks):
            for q in range(layout.n_tiles):
                for v in range(layout.tile_width):
                    bin_idx = layout.tile_starts[q] + v
                    want = (
                        closed_form_symbol(2, v, m, layout.tile_width, layout.n_blocks)
                        * tap_sum(cir, bin_idx, n)
                        * np.exp(-2j * np.pi * bin_idx * 6 / n)
                    )
                    assert obs.grid[m, q, v] == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("delay", [0, 1, 17, 100, 204, 243])
    def test_delay_ramp_is_exact_at_long_delays(self, delay):
        # one tap, no CFO: each bin is the code times exp(-j pi b (2 delay + 1) / N) times
        # exp(j pi b / N); with b (2 delay + 1) reduced mod 2N first, the round-off of a
        # ramp argument near 1400 rad (1.6e-13) does not show
        layout, code = reference_layout(), 2
        n, bins = layout.n_subcarriers, layout.tile_bins
        user = UserTruth(code, delay, 0.0, np.array([1.0 + 0j]))
        grid = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0)).grid
        turns = (bins * (2 * delay + 1)) % (2 * n)
        ramp = np.exp(-1j * np.pi * turns / n) * np.exp(1j * np.pi * bins / n)
        v, m = np.arange(layout.tile_width), np.arange(layout.n_blocks)[:, None, None]
        want = closed_form_symbol(code, v, m, layout.tile_width, layout.n_blocks) * ramp
        np.testing.assert_allclose(grid, want, rtol=0, atol=1e-14)

    def test_single_bin_cfo_identity(self):
        # one loaded subcarrier through the literal chain (IDFT, prefix, spin,
        # drop prefix, DFT): every output bin is the Dirichlet kernel at its
        # distance below the tone, times the rotation at the window start
        layout = small_layout()
        n, cp, loaded = layout.n_subcarriers, layout.cp_ranging, 5
        distance = loaded - np.arange(n)
        for eps in (0.0, 0.08, -0.08, 0.49, -0.49):
            spectra = np.zeros((layout.n_blocks, n), dtype=complex)
            spectra[:, loaded] = 1.0
            blocks = np.fft.ifft(spectra, axis=1, norm="ortho")
            slot = np.concatenate([blocks[:, n - cp:], blocks], axis=1).reshape(-1)
            received = (slot * spin(eps, slot.size, n)).reshape(layout.n_blocks, layout.block_len)
            got = np.fft.fft(received[:, cp:], axis=1, norm="ortho")
            for m in range(layout.n_blocks):
                window_start = np.exp(2j * np.pi * eps * (m * layout.block_len + cp) / n)
                want = _cfo_attenuation(distance + eps, n) * window_start
                np.testing.assert_allclose(got[m], want, rtol=0, atol=1e-12)

    def test_noise_is_model_mode_noise(self):
        # one noise model: with no users both synthesizers return the same
        # i.i.d. bin draw.  Over B seeds each entry's mean |z|^2 / noise_var is
        # Gamma(B, 1/B), standard deviation 1/sqrt(B); 5/sqrt(B) bounds it.
        layout = small_layout()
        noise_var, batch = 0.3, 2000
        draws = []
        for seed in range(batch):
            wave = synthesize_waveform_mode([], layout, noise_var, np.random.default_rng(seed))
            model = synthesize_model_mode([], layout, noise_var, np.random.default_rng(seed))
            np.testing.assert_array_equal(wave.grid, model.grid)
            draws.append(wave.grid)
        power = np.mean(np.abs(np.array(draws)) ** 2, axis=0) / noise_var
        assert np.max(np.abs(power - 1.0)) < 5 / np.sqrt(batch)

    def test_matches_model_mode_when_aligned_and_flat(self):
        layout = small_layout()
        user = UserTruth(2, 0, 0.0, np.array([1.0 + 0j]))
        wave = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))
        model = synthesize_model_mode([user], layout, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(wave.grid, model.grid, atol=1e-10)

    def test_tile_power_accounting(self):
        # aligned, offset-free: waveform tile power exceeds the flat-tile power
        # by exactly the within-tile variance of the channel response
        layout = small_layout()
        rng = np.random.default_rng(9)
        cir = draw_channel(ChannelProfile(5, 4.0), rng)
        user = UserTruth(1, 0, 0.0, cir)
        wave = synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))
        p_wave = float(np.sum(np.abs(wave.grid) ** 2))
        m, v = layout.n_blocks, layout.tile_width
        p_flat = spread = 0.0
        for q in range(layout.n_tiles):
            bins = np.arange(layout.tile_starts[q], layout.tile_starts[q] + v)
            h = tap_sum(cir, bins, layout.n_subcarriers)
            p_flat += m * v * abs(np.mean(h)) ** 2
            spread += m * float(np.sum(np.abs(h - np.mean(h)) ** 2))
        assert p_wave == pytest.approx(p_flat + spread, rel=1e-9)
        assert p_wave >= p_flat

    def test_delay_overflowing_prefix_rejected(self):
        layout = small_layout()
        user = UserTruth(0, 15, 0.0, np.ones(4, dtype=complex))
        with pytest.raises(ValidationError):
            synthesize_waveform_mode([user], layout, 0.0, np.random.default_rng(0))


@st.composite
def small_layouts(draw):
    """A small valid layout with a nonempty ranging prefix."""
    tile_width = draw(st.integers(2, 5))
    n_blocks = draw(st.integers(2, 5))
    n_tiles = draw(st.integers(1, 4))
    n_subcarriers = draw(st.integers(n_tiles * tile_width, 64))
    cp_ranging = draw(st.integers(1, n_subcarriers))
    return TileLayout.uniform(n_subcarriers, n_blocks, n_tiles, tile_width, cp_ranging)


@st.composite
def flat_aligned_scenarios(draw):
    """A small valid layout and CFO-free single-tap users whose delays fit the prefix."""
    layout = draw(small_layouts())
    codes = draw(st.lists(st.integers(0, layout.max_codes - 1), unique=True))
    gain = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    users = [
        UserTruth(code, draw(st.integers(0, layout.cp_ranging - 1)), 0.0, np.array([draw(gain)]))
        for code in codes
    ]
    return layout, users


@settings(deadline=None, derandomize=True)
@given(flat_aligned_scenarios())
def test_model_matches_waveform_on_flat_aligned_channels(scenario):
    # a single tap and no CFO make the flat-per-tile closed form exact
    layout, users = scenario
    model = synthesize_model_mode(users, layout, 0.0, np.random.default_rng(0))
    wave = synthesize_waveform_mode(users, layout, 0.0, np.random.default_rng(0))
    np.testing.assert_allclose(model.grid, wave.grid, rtol=0, atol=1e-10)


def prefix_filling_users(draw, layout, codes):
    """One user per code, with a CFO and a multi-tap channel whose delay plus length fill
    up to the ranging prefix."""
    gain = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    cfo = st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True)
    users = []
    for code in codes:
        taps = draw(st.integers(1, layout.cp_ranging))
        delay = draw(st.integers(0, layout.cp_ranging - taps))
        cir = np.array(draw(st.lists(gain, min_size=taps, max_size=taps)), dtype=complex)
        users.append(UserTruth(code, delay, draw(cfo), cir))
    return users


@st.composite
def prefix_filling_scenarios(draw):
    """A small valid layout and users with CFOs and multi-tap channels whose delay
    plus length fill up to the ranging prefix."""
    layout = draw(small_layouts())
    codes = draw(st.lists(st.integers(0, layout.max_codes - 1), min_size=1, unique=True))
    return layout, prefix_filling_users(draw, layout, codes)


def assert_matches_oracle(layout, users):
    want = time_domain_oracle(users, layout)
    got = synthesize_waveform_mode(users, layout, 0.0, np.random.default_rng(0)).grid
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))


@settings(deadline=None, derandomize=True)
@given(prefix_filling_scenarios())
def test_waveform_matches_time_domain_oracle(scenario):
    # per-bin channel and delay gains are exact while delay plus channel fit the prefix
    assert_matches_oracle(*scenario)


@pytest.mark.parametrize("delays, cfos", [
    ((0, 37, 204), (0.0, 0.04, -0.1)),
    ((244, 120, 1), (0.1333, -0.49, 0.25)),
])
def test_waveform_matches_time_domain_oracle_on_reference_layout(delays, cfos):
    rng = np.random.default_rng(11)
    profile = ChannelProfile(12, 12.0)
    users = [
        UserTruth(code, delay, cfo, draw_channel(profile, rng))
        for code, delay, cfo in zip(range(3), delays, cfos)
    ]
    assert_matches_oracle(reference_layout(), users)


def model_mode_loop(users, layout):
    """Noiseless model-mode grid by the per-user loop the synthesizer replaced."""
    n = layout.n_subcarriers
    bins = layout.tile_bins
    grid = np.zeros((layout.n_blocks, layout.n_tiles, layout.tile_width), dtype=complex)
    for user in users:
        xi = user.code / (layout.n_blocks - 1) + user.cfo * layout.block_len / n
        eta = user.code / (layout.tile_width - 1) - user.delay / n
        tile_means = tap_sum(user.cir, bins, n).mean(axis=1)
        delay_phase = np.exp(-2j * np.pi * bins[:, 0] * user.delay / n)
        amps = _cfo_attenuation(user.cfo, n) * tile_means * delay_phase
        block_phase = np.exp(2j * np.pi * xi * np.arange(layout.n_blocks))
        tile_phase = np.exp(2j * np.pi * eta * np.arange(layout.tile_width))
        grid += np.einsum("m,q,v->mqv", block_phase, amps, tile_phase)
    return grid


def bin_distances(layout):
    """Distinct distances d = b - b' between tile bins, and the index that
    gathers the (QV, QV) matrix of d over flat tile bins (b, b') from them."""
    bins = layout.tile_bins.ravel()
    shifted = bins[:, None] - bins[None, :] + layout.n_subcarriers - 1  # >= 0
    present = np.bincount(shifted.ravel()) > 0
    distances = np.flatnonzero(present) - (layout.n_subcarriers - 1)
    return distances, (np.cumsum(present) - 1)[shifted]


@st.composite
def placed_layouts(draw):
    """A small valid layout whose disjoint tiles start at drawn gaps, listed in any order."""
    width = draw(st.integers(2, 5))
    starts, end = [], 0
    for gap in draw(st.lists(st.integers(0, 9), min_size=1, max_size=5)):
        starts.append(end + gap)
        end = starts[-1] + width
    n_subcarriers = end + draw(st.integers(0, 9))
    return TileLayout(n_subcarriers, draw(st.integers(2, 5)), width,
                      tuple(draw(st.permutations(starts))), draw(st.integers(0, n_subcarriers)))


@settings(deadline=None, derandomize=True)
@given(st.one_of(small_layouts(), placed_layouts()))
def test_leakage_tables_hold_the_distinct_bin_distances(layout):
    # the tables' N sin and N cos of pi d / N, and their (b', b) gather index, byte for byte
    # those of the distances the bin-count helper lists
    n, (n_sin, n_cos, gather) = layout.n_subcarriers, layout._leakage_tables[:3]
    distances, by_bins = bin_distances(layout)
    angles = np.pi * distances / n
    assert n_sin.tobytes() == (n * np.sin(angles)).tobytes()
    assert n_cos.tobytes() == (n * np.cos(angles)).tobytes()
    assert gather.dtype == by_bins.dtype and np.array_equal(gather, by_bins.T)


def waveform_mode_loop(users, layout):
    """Noiseless waveform-mode grid by the per-user loop the synthesizer replaced."""
    n = layout.n_subcarriers
    bins = layout.tile_bins
    distances, gather = bin_distances(layout)
    window_start = np.arange(layout.n_blocks) * layout.block_len + layout.cp_ranging
    grid = np.zeros((layout.n_blocks, bins.size), dtype=complex)
    for user in users:
        gains = tap_sum(user.cir, bins, n) * np.exp(-2j * np.pi * bins * user.delay / n)
        symbols = code_symbols(user.code, layout.tile_width, layout.n_blocks).T  # (m, v)
        tiles = (symbols[:, None, :] * gains).reshape(layout.n_blocks, -1)
        leakage = _cfo_attenuation(distances + user.cfo, n)[gather]
        grid += (tiles @ leakage) * np.exp(2j * np.pi * user.cfo * window_start / n)[:, None]
    return grid.reshape(layout.n_blocks, layout.n_tiles, layout.tile_width)


@st.composite
def ragged_scenarios(draw):
    """A small valid layout and 0 to max_codes users with CFOs and channels of
    independently drawn lengths, each fitting the ranging prefix with its delay."""
    layout = draw(small_layouts())
    k = draw(st.integers(0, layout.max_codes))
    codes = draw(st.permutations(range(layout.max_codes)))[:k]
    return layout, prefix_filling_users(draw, layout, codes)


@settings(deadline=None, derandomize=True)
@given(ragged_scenarios())
def test_synthesizers_match_per_user_loops(scenario):
    # all users at once, channels zero-padded to the longest: the per-user sums up to round-off
    layout, users = scenario
    for synthesize, loop in ((synthesize_model_mode, model_mode_loop),
                             (synthesize_waveform_mode, waveform_mode_loop)):
        want = loop(users, layout)
        got = synthesize(users, layout, 0.0, np.random.default_rng(0)).grid
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@st.composite
def stacked_draws(draw):
    """A valid layout (small, or the reference one) and T = 1 to 5 draws of the same number K of
    users, 1 to max_codes, as the signal cores take them: (T, K) codes, delays and CFOs and
    (T, K, L) channels of one length L, each delay plus L fitting the ranging prefix."""
    layout = draw(st.one_of(small_layouts(), st.just(reference_layout())))
    t, k = draw(st.integers(1, 5)), draw(st.integers(1, layout.max_codes))
    taps = draw(st.integers(1, min(layout.cp_ranging, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**64 - 1)))
    codes = np.array([rng.permutation(layout.max_codes)[:k] for _ in range(t)])
    delays = rng.integers(0, layout.cp_ranging - taps + 1, size=(t, k)).astype(float)
    cfos = rng.uniform(-0.5, 0.5, size=(t, k))
    cirs = rng.standard_normal((t, k, taps)) + 1j * rng.standard_normal((t, k, taps))
    return layout, codes, delays, cfos, cirs


@settings(deadline=None, derandomize=True, max_examples=60)
@given(stacked_draws())
def test_each_stacked_row_is_the_synthesizers_signal(scenario):
    # a row of a stacked core does not depend on the draws stacked beside it: it equals the
    # T = 1 public synthesizer's noiseless grid of that draw's users bit for bit
    layout, codes, delays, cfos, cirs = scenario
    for core, synthesize in ((_model_signal, synthesize_model_mode),
                             (_waveform_signal, synthesize_waveform_mode)):
        stacked = core(codes, delays, cfos, cirs, layout)
        assert stacked.shape == (len(codes), layout.n_blocks, layout.n_tiles, layout.tile_width)
        for row, draw_arrays in zip(stacked, zip(codes, delays, cfos, cirs)):
            users = [UserTruth(int(c), int(d), float(f), h) for c, d, f, h in zip(*draw_arrays)]
            grid = synthesize(users, layout, 0.0, np.random.default_rng(0)).grid
            assert np.array_equal(row, grid), core.__name__


@pytest.mark.parametrize("synthesize", [synthesize_model_mode, synthesize_waveform_mode],
                         ids=["model", "waveform"])
@pytest.mark.parametrize("users, message", [
    ([(1, 0), (1, 3)], "active users must carry distinct ranging codes"),
    ([(0, 0), (3, 0)], r"code 3 outside \[0, 2\]"),
    ([(-1, 0)], r"code -1 outside \[0, 2\]"),
    ([(0, 0), (2, -1)], "delays must be non-negative"),
    # before, a 2-d channel raised a bare numpy ValueError (non-finite CFOs and taps are
    # rows of test_integer_contract.FINITE_SITES)
    ([(0, 0), (1, 2, 0.01, [[1.0, 1.0], [1.0, 1.0]])], "1-d tap array"),
    # the taps' phasors over the tile bins grew with the channel: model mode took any length
    ([(0, 0, 0.0, np.ones(MAX_TAPS + 1))], r"1-d tap array of at most 1024 taps, got shape \(1025,\)"),
], ids=["duplicate code", "code past range", "negative code", "negative delay", "2-d channel",
        "channel past the cap"])
def test_user_checks_fire_in_both_synthesizers(synthesize, users, message):
    def user(code, delay, cfo=0.0, cir=(1.0,)):
        return UserTruth(code, delay, cfo, np.array(cir, dtype=complex))

    with pytest.raises(ValidationError, match=message):
        synthesize([user(*u) for u in users], small_layout(), 0.0, np.random.default_rng(0))


@pytest.mark.parametrize("synthesize", [synthesize_model_mode, synthesize_waveform_mode],
                         ids=["model", "waveform"])
def test_negative_noise_variance_rejected(synthesize):
    # a negative variance made NaN noise that surfaced only in the receiver, as "matrix has
    # non-finite entries" (NaN and ±inf are rows of test_integer_contract.FINITE_SITES)
    with pytest.raises(ValidationError, match="noise variance"):
        synthesize([], small_layout(), -0.25, np.random.default_rng(0))


def test_observation_shape_guard():
    with pytest.raises(ValidationError):
        TileObservations(small_layout(), np.zeros((2, 2, 2), dtype=complex))


@pytest.mark.parametrize("field, value", [("grid", np.ones((2, 2))), ("grid", [[1]]),
                                          ("layout", non_uniform_layout())],
                         ids=["grid array", "grid list", "layout"])
def test_observations_cannot_be_swapped_after_their_check(field, value):
    # before, a swapped grid reached the receiver unchecked and failed there untyped
    obs = TileObservations(reference_layout(), np.zeros((4, 16, 4), dtype=complex))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obs, field, value)


SYNTHESIZERS = [pytest.param(synthesize_model_mode, id="model"),
                pytest.param(synthesize_waveform_mode, id="waveform")]


def fresh_grid(synthesize, users, layout, seed, noise_var=0.5):
    """The grid of one call on a fresh generator seeded ``seed``."""
    return synthesize(users, layout, noise_var, np.random.default_rng(seed)).grid


def memo_user(code=1, delay=2, cfo=0.01, cir=(1.0, 0.5j)):
    return UserTruth(code, delay, cfo, np.array(cir, dtype=complex))


class TestSignalMemo:
    """The synthesizers keep no signal from one call to the next: a repeated call equals a
    fresh one bit for bit, and sees every change to its users, checks included."""

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(ragged_scenarios(), ragged_scenarios())
    def test_hits_and_misses_equal_a_fresh_computation(self, first, second):
        for synthesize in (synthesize_model_mode, synthesize_waveform_mode):
            want = [fresh_grid(synthesize, users, layout, seed).tobytes()
                    for seed, (layout, users) in enumerate((first, second))]
            # alternating misses where the scenarios differ, then a hit on each
            for seed in (0, 1, 0, 1, 1, 0, 0):
                layout, users = (first, second)[seed]
                grid = synthesize(users, layout, 0.5, np.random.default_rng(seed)).grid
                assert grid.tobytes() == want[seed]

    @pytest.mark.parametrize("synthesize", SYNTHESIZERS)
    @pytest.mark.parametrize("valid, invalid, message", [
        ([memo_user(1)], [memo_user(True)], "code must be an integer, got True"),
        ([memo_user(1)], [memo_user(1.0)], "code must be an integer, got 1.0"),
        ([memo_user(cfo=0.0)], [memo_user(cfo=math.nan)], "CFO must be finite"),
        ([memo_user(cfo=0.0)], [memo_user(cfo=math.inf)], "CFO must be finite"),
        ([memo_user(cir=(1.0, 0.5))], [memo_user(cir=(1.0, math.inf))], "channel taps must be finite"),
        ([memo_user(cir=(1.0, 0.5))], [memo_user(cir=[(1.0, 0.5)])], "1-d tap array"),
        ([memo_user(0), memo_user(1)], [memo_user(1), memo_user(1)], "distinct ranging codes"),
    ], ids=["code True", "code 1.0", "nan CFO", "inf CFO", "inf tap", "2-d channel",
            "duplicate codes"])
    def test_invalid_users_raise_on_every_call(self, synthesize, valid, invalid, message):
        # each invalid set compares equal to the valid one, or holds the same tap bytes
        layout = small_layout()
        for _ in range(2):
            synthesize(valid, layout, 0.0, np.random.default_rng(0))
            with pytest.raises(ValidationError, match=message):
                synthesize(invalid, layout, 0.0, np.random.default_rng(0))

    def test_delay_plus_taps_past_the_prefix_raise_on_every_call(self):
        # the second user's padded taps, and so every signal input, equal the valid set's
        layout, long = small_layout(), memo_user(0, cir=(1.0, 0.5, 0.25))
        valid = [long, memo_user(1, delay=14, cir=(1.0, 0.5))]  # delay + taps = 16, the prefix
        invalid = [long, memo_user(1, delay=14, cir=(1.0, 0.5, 0.0))]
        for _ in range(2):
            synthesize_waveform_mode(valid, layout, 0.0, np.random.default_rng(0))
            with pytest.raises(ValidationError, match="ranging prefix"):
                synthesize_waveform_mode(invalid, layout, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("synthesize", SYNTHESIZERS)
    def test_a_channel_changed_in_place_changes_the_grid(self, synthesize):
        layout, cir = small_layout(), np.array([1.0, 0.5j])
        users = [UserTruth(1, 2, 0.01, cir)]
        before = synthesize(users, layout, 0.0, np.random.default_rng(0)).grid
        cir[1] = -0.5j
        after = synthesize(users, layout, 0.0, np.random.default_rng(0)).grid
        assert not np.array_equal(before, after)
        assert after.tobytes() == fresh_grid(synthesize, users, layout, 0, 0.0).tobytes()
