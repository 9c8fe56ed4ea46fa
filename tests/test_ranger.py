"""Receiver pipeline checks: snapshot shaping, order selection, phase recovery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangesim.airmodel import (
    ChannelProfile,
    TileLayout,
    TileObservations,
    UserTruth,
    draw_channel,
    synthesize_model_mode,
    synthesize_waveform_mode,
)
from rangesim import ranger
from rangesim.airmodel import _effective_offsets
from rangesim.cxmath import forward_backward, hermitian_evd
from rangesim.errors import (ConfigError, DimensionError, NumericalError, RankDeficiencyError,
                             ValidationError)
from rangesim.ranger import (
    _TINY_TOP,
    EIGENVALUE_FLOOR,
    RangerConfig,
    RangingReport,
    detect_codes,
    esprit_phases,
    estimate_num_codes,
    freq_snapshots,
    map_cfo,
    map_timing,
    range_subchannel,
    sample_corr,
    tile_snapshots,
)

from helpers import reference_layout, wrap_half


def steering(n, freq):
    return np.exp(2j * np.pi * freq * np.arange(n))


def random_users(rng, layout, k, max_delay=204, max_cfo=0.1, taps=12):
    profile = ChannelProfile(taps, 12.0)
    codes = rng.choice(layout.max_codes, size=k, replace=False)
    return [
        UserTruth(
            code=int(c),
            delay=int(rng.integers(0, max_delay + 1)),
            cfo=float(rng.uniform(-max_cfo, max_cfo)),
            cir=draw_channel(profile, rng),
        )
        for c in codes
    ]


class TestSnapshots:
    def test_single_user_block_series_structure(self):
        layout = reference_layout()
        rng = np.random.default_rng(0)
        user = random_users(rng, layout, 1)[0]
        obs = synthesize_model_mode([user], layout, 0.0, rng)
        xi, eta = _effective_offsets(user.code, user.delay, user.cfo, layout)
        snaps = freq_snapshots(obs)
        for q in range(layout.n_tiles):
            for v in range(layout.tile_width):
                amp = obs.grid[0, q, v]  # block 0 fixes the per-snapshot amplitude
                want = amp * steering(layout.n_blocks, xi)
                np.testing.assert_allclose(snaps[q * layout.tile_width + v], want, atol=1e-10)
                # and the amplitude itself carries the tile-position ramp
                assert snaps[q * layout.tile_width + v][0] == obs.grid[0, q, v]
        _ = eta

    def test_zero_grid(self):
        layout = reference_layout()
        obs = TileObservations(layout, np.zeros((4, 16, 4), dtype=complex))
        assert not np.any(freq_snapshots(obs))
        assert not np.any(tile_snapshots(obs))

    def test_round_trip_is_a_bijection(self):
        layout = reference_layout()
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((4, 16, 4)) + 1j * rng.standard_normal((4, 16, 4))
        obs = TileObservations(layout, grid)
        back_f = freq_snapshots(obs).reshape(16, 4, 4).transpose(2, 0, 1)
        np.testing.assert_array_equal(back_f, grid)
        back_t = tile_snapshots(obs).reshape(4, 16, 4)
        np.testing.assert_array_equal(back_t, grid)

    def test_tile_series_matches_grid_rows(self):
        layout = reference_layout()
        rng = np.random.default_rng(2)
        grid = rng.standard_normal((4, 16, 4)) + 1j * rng.standard_normal((4, 16, 4))
        snaps = tile_snapshots(TileObservations(layout, grid))
        np.testing.assert_array_equal(snaps[2 * 16 + 5], grid[2, 5, :])


class TestSampleCorr:
    def test_single_snapshot_outer_product(self):
        y = np.array([1.0 + 1j, 2.0, -1j])
        np.testing.assert_allclose(sample_corr([y]), np.outer(y, y.conj()), atol=1e-15)

    def test_orthonormal_basis_gives_scaled_identity(self):
        np.testing.assert_allclose(sample_corr(np.eye(4)), np.eye(4) / 4, atol=1e-15)

    def test_matches_accumulation_oracle(self):
        rng = np.random.default_rng(3)
        snaps = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        acc = np.zeros((4, 4), dtype=complex)
        for row in snaps:
            acc += np.outer(row, row.conj())
        np.testing.assert_allclose(sample_corr(snaps), acc / 10, atol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            sample_corr(np.zeros((0, 4)))


class TestEstimateNumCodes:
    def test_equal_eigenvalues_mean_noise_only(self):
        assert estimate_num_codes(np.array([2.0, 2.0, 2.0, 2.0]), 64, 3) == 0

    def test_two_dominant_eigenvalues(self):
        assert estimate_num_codes(np.array([100.0, 100.0, 1.0, 1.0]), 64, 3) == 2

    def test_against_direct_scoring(self):
        # independent evaluation of the description-length objective
        def direct(lams, s, cap):
            lams = np.maximum(np.asarray(lams, float), 1e-18)
            n = lams.size
            best, best_score = 0, np.inf
            for k in range(cap + 1):
                tail = lams[k:]
                gm = np.exp(np.mean(np.log(tail)))
                am = np.mean(tail)
                score = 0.5 * k * (2 * n - k) * np.log(s) - s * (n - k) * np.log(gm / am)
                if score < best_score:
                    best, best_score = k, score
            return best

        rng = np.random.default_rng(4)
        for _ in range(50):
            lams = np.sort(rng.uniform(0.01, 50.0, size=4))[::-1]
            assert estimate_num_codes(lams, 64, 3) == direct(lams, 64, 3)

    def test_scale_invariance_of_argmin(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lams = np.sort(rng.uniform(0.1, 30.0, size=4))[::-1]
            base = estimate_num_codes(lams, 64, 3)
            for c in (1e-30, 1e-6, 1e3, 1e6, 1e30):  # 1e-30 once read as an empty slot
                assert estimate_num_codes(c * lams, 64, 3) == base

    def test_high_snr_model_order(self):
        layout = reference_layout()
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            users = random_users(rng, layout, 3, max_cfo=0.05)
            obs = synthesize_model_mode(users, layout, 1e-3, rng)  # 30 dB
            lam, _ = hermitian_evd(forward_backward(sample_corr(freq_snapshots(obs))))
            if estimate_num_codes(lam, 64, 3) == 3:
                hits += 1
        assert hits >= 99

    def test_cap_validated(self):
        with pytest.raises(ValidationError):
            estimate_num_codes(np.array([1.0, 1.0]), 16, 2)

    # noiseless spectra, relative to the largest eigenvalue: signal eigenvalues down to 1e-8
    # (a user 80 dB below the strongest), then round-off of mixed size and sign
    NOISELESS_SPECTRA = [
        (1, [1.0, 3e-16, -2e-17, -4e-16]),
        (1, [1.0, 2e-15, 1e-19, 0.0]),
        (2, [1.0, 0.3, 1e-16, 1e-25]),
        (2, [1.0, 1e-8, 5e-17, -3e-16]),
        (3, [1.0, 0.5, 1e-8, -1e-16]),
        (3, [1.0, 1e-3, 1e-8, 4e-16]),
        (0, [0.0, 0.0, 0.0, 0.0]),
    ]

    @pytest.mark.parametrize("count, spectrum", NOISELESS_SPECTRA,
                             ids=["K1-signed", "K1-sizes", "K2-sizes", "K2-weak-signed",
                                  "K3-weak-signed", "K3-weak-sizes", "idle-zeros"])
    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    def test_round_off_reads_as_noise_and_signals_count(self, count, spectrum, scale):
        # what the floor is for: without it, round-off of unequal size reads as signals, or
        # its logarithm is not finite; at 1e-6 of the largest it hides the weakest user
        assert estimate_num_codes(scale * np.array(spectrum), 64, 3) == count


class TestEspritPhases:
    def make_spectrum(self, snaps):
        return hermitian_evd(forward_backward(sample_corr(snaps)))

    def test_single_exponential_exact(self):
        rng = np.random.default_rng(6)
        for xi in (0.2, -0.41, 0.49):
            amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            snaps = amps[:, None] * steering(4, xi)[None, :]
            got = esprit_phases(*self.make_spectrum(snaps), 1)
            assert abs(got[0] - xi) < 1e-9

    def test_two_sources_noiseless(self):
        rng = np.random.default_rng(7)
        a1 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a2 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        snaps = a1[:, None] * steering(4, 0.1) + a2[:, None] * steering(4, 0.4)
        got = np.sort(esprit_phases(*self.make_spectrum(snaps), 2))
        np.testing.assert_allclose(got, [0.1, 0.4], atol=1e-7)

    def test_invariant_to_subspace_remixing(self):
        rng = np.random.default_rng(8)
        a1 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        a2 = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        snaps = a1[:, None] * steering(4, -0.3) + a2[:, None] * steering(4, 0.25)
        lam, vecs = self.make_spectrum(snaps)
        base = np.sort(esprit_phases(lam, vecs, 2))
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        remixed_vecs = vecs.copy()
        remixed_vecs[:, :2] = remixed_vecs[:, :2] @ q
        np.testing.assert_allclose(np.sort(esprit_phases(lam, remixed_vecs, 2)), base, atol=1e-7)

    @pytest.mark.parametrize("mode", ["model", "waveform"])
    def test_matches_lstsq_rotation_on_seeded_grids(self, mode):
        # the closed-form rotation reads the same phases as a general least-squares solve
        layout = reference_layout()
        synthesize = {"model": synthesize_model_mode, "waveform": synthesize_waveform_mode}[mode]
        for trial in range(12):
            rng = np.random.default_rng([41, trial])
            users = random_users(rng, layout, 1 + trial % 3)
            obs = synthesize(users, layout, [0.0, 0.1, 1.0][trial % 3], rng)
            for snaps in (freq_snapshots(obs), tile_snapshots(obs)):
                lam, vecs = self.make_spectrum(snaps)
                for k in range(1, 4):
                    basis = vecs[:, :k]
                    rotation = np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)[0]
                    want = np.angle(np.linalg.eigvals(rotation)) / (2 * np.pi)
                    got = esprit_phases(lam, vecs, k)
                    gaps = wrap_half(got[:, None] - want[None, :])  # wrap-aware, any order
                    assert np.abs(gaps).min(axis=1).max() <= 1e-12
                    assert np.abs(gaps).min(axis=0).max() <= 1e-12

    def test_rank_deficiency_propagates(self):
        # second "eigenvector" lives entirely on the last row, so the upper
        # split loses a dimension: the overestimated count is unsolvable
        vectors = np.zeros((4, 4), dtype=complex)
        vectors[0, 0] = 1.0
        vectors[3, 1] = 1.0
        vectors[1, 2] = 1.0
        vectors[2, 3] = 1.0
        with pytest.raises(RankDeficiencyError):
            esprit_phases(np.array([4.0, 3.0, 0.0, 0.0]), vectors, 2)

    def test_source_count_bounds(self):
        lam, vecs = np.array([1.0, 0.5, 0.1]), np.eye(3, dtype=complex)
        with pytest.raises(DimensionError):
            esprit_phases(lam, vecs, 0)
        with pytest.raises(DimensionError):
            esprit_phases(lam, vecs, 3)

    def test_list_spectrum_gives_what_the_arrays_give(self):
        # list eigenvectors raised AttributeError: a list has no shape
        rng = np.random.default_rng(8)
        snaps = rng.standard_normal((20, 4)) + 1j * rng.standard_normal((20, 4))
        lam, vecs = self.make_spectrum(snaps)
        np.testing.assert_array_equal(esprit_phases(lam.tolist(), vecs.tolist(), 2),
                                      esprit_phases(lam, vecs, 2))

    @pytest.mark.parametrize("eigenvalues, eigenvectors", [
        (np.ones(4), np.eye(4)[:, :3]), (np.ones(3), np.eye(4)), (np.ones((4, 1)), np.eye(4)),
    ], ids=["non-square vectors", "too few values", "2-d values"])
    def test_spectrum_of_mismatched_shape_rejected(self, eigenvalues, eigenvectors):
        # a matmul deep inside used to fail with a bare ValueError, or not at all
        with pytest.raises(DimensionError, match=r"need n eigenvalues and \(n, n\) eigenvectors"):
            esprit_phases(eigenvalues, eigenvectors, 1)


class TestMapCfo:
    def test_zero(self):
        (code,), (cfo,) = map_cfo(np.array([0.0]), reference_layout())
        assert (code, cfo) == (0, 0.0)

    def test_wrapped_negative_branch(self):
        layout = reference_layout()
        xi = wrap_half(2 / 3 + 0.05 * layout.block_len / 1024)  # -0.2708333...
        (code,), (cfo,) = map_cfo(np.array([xi]), layout)
        assert cfo == pytest.approx(0.05, abs=1e-12)
        assert code == 2

    def test_positive_branch(self):
        layout = reference_layout()
        (code,), (cfo,) = map_cfo(np.array([1 / 3 + 0.05 * layout.block_len / 1024]), layout)
        assert cfo == pytest.approx(0.05, abs=1e-12)
        assert code == 1

    def test_matches_scalar_reference(self):
        # the array form does the per-estimate arithmetic it replaced, bit for bit
        layout = reference_layout()
        xs = np.random.default_rng(12).uniform(-0.5, 0.5, 200)
        codes, cfos = map_cfo(xs, layout)
        for x, code, cfo in zip(xs.tolist(), codes.tolist(), cfos.tolist()):
            raw = math.floor(3 * x + 0.5)
            assert (code, cfo) == (raw % 3, (1024 / 1280) * (x - raw / 3))

    def test_large_values_map_periodically(self):
        # a whole turn moves the offset by its round-off only, and values as large as 1e15,
        # whose code indices fit int64, still follow the scalar reference
        layout = reference_layout()
        (code, far_code), (cfo, far_cfo) = map_cfo(np.array([0.3, 5.3]), layout)
        assert code == far_code and far_cfo == pytest.approx(cfo, abs=1e-14)
        for x in (1e15, -1e15):
            (code,), (cfo,) = map_cfo(np.array([x]), layout)
            raw = math.floor(3 * x + 0.5)
            assert (code, cfo) == (raw % 3, (1024 / 1280) * (x - raw / 3))

    def test_code_indices_up_to_the_int64_edge(self):
        # -2**63 is the last index that fits int64 below zero and 2**63 the first that does
        # not above it; each index that fits keeps its exact residue
        layout = reference_layout()
        top = 2.0**63 / 3  # 3 * top rounds to 2**63
        for x in (-top, np.nextafter(-top, -np.inf), np.nextafter(top, 0)):
            raw = math.floor(3 * x + 0.5)
            assert -2**63 <= raw < 2**63
            (code,), _ = map_cfo(np.array([x]), layout)
            assert code == raw % 3
        with pytest.raises(ValidationError, match="effective CFOs"):
            map_cfo(np.array([top]), layout)


class TestMapTiming:
    def test_zero(self):
        (code,), (timing,) = map_timing(np.array([0.0]), reference_layout(), 0)
        assert (code, timing) == (0, 0.0)

    def test_wrapped_negative_branch(self):
        layout = reference_layout()
        (code,), (timing,) = map_timing(np.array([wrap_half(2 / 3)]), layout, 204)  # zero delay
        assert timing == pytest.approx(0.0, abs=1e-9)
        assert code == 2

    def test_positive_branch(self):
        layout = reference_layout()
        (code,), (timing,) = map_timing(np.array([2 / 3 - 204 / 1024]), layout, 204)
        assert timing == pytest.approx(204.0, abs=1e-9)
        assert code == 2

    def test_matches_scalar_reference(self):
        layout = reference_layout()
        etas = np.random.default_rng(13).uniform(-0.5, 0.5, 200)
        codes, delays = map_timing(etas, layout, 204)
        for eta, code, delay in zip(etas.tolist(), codes.tolist(), delays.tolist()):
            raw = math.floor(3 * eta + 204 * 3 / (2.0 * 1024) + 0.5)
            assert (code, delay) == (raw % 3, 1024 * (raw / 3 - eta))

    def test_large_values_map_periodically(self):
        layout = reference_layout()
        (code, far_code), (delay, far_delay) = map_timing(np.array([0.3, 5.3]), layout, 204)
        assert code == far_code and far_delay == pytest.approx(delay, abs=1e-11)
        for eta in (1e15, -1e15):
            (code,), (delay,) = map_timing(np.array([eta]), layout, 204)
            raw = math.floor(3 * eta + 204 * 3 / (2.0 * 1024) + 0.5)
            assert (code, delay) == (raw % 3, 1024 * (raw / 3 - eta))

    def test_code_indices_up_to_the_int64_edge(self):
        layout = reference_layout()
        top = 2.0**63 / 3
        for eta in (-top, np.nextafter(-top, -np.inf), np.nextafter(top, 0)):
            raw = math.floor(3 * eta + 204 * 3 / (2.0 * 1024) + 0.5)
            assert -2**63 <= raw < 2**63
            (code,), _ = map_timing(np.array([eta]), layout, 204)
            assert code == raw % 3
        with pytest.raises(ValidationError, match="effective timings"):
            map_timing(np.array([top]), layout, 204)

    def test_excessive_max_delay_rejected(self):
        with pytest.raises(ConfigError):
            map_timing(np.array([0.1]), reference_layout(), 342)


def map_reference(values, layout, max_delay=None):
    """The whole-array mapping expressions that the float mapping replaced, kept verbatim:
    ``(codes, cfos)``, or ``(codes, delays)`` when ``max_delay`` is given, as arrays."""
    values = np.asarray(values, dtype=float)
    if max_delay is None:
        span = layout.n_blocks - 1
        raw = np.floor(span * values + 0.5)
        offsets = (layout.n_subcarriers / layout.block_len) * (values - raw / span)
    else:
        span = layout.tile_width - 1
        half_bias = max_delay * span / (2.0 * layout.n_subcarriers)
        raw = np.floor(span * values + half_bias + 0.5)
        offsets = layout.n_subcarriers * (raw / span - values)
    return np.asarray((raw % span).astype(int)), np.asarray(offsets)


def exact(arrays):
    """Each array's dtype, shape and values, the values by ``repr`` to the last bit and sign."""
    return [(a.dtype, a.shape, repr(a.tolist())) for a in arrays]


# the reference layout and two with n_blocks != tile_width
MAPPING_LAYOUTS = {"4x4": reference_layout(), "5x4": TileLayout.uniform(1024, 5, 16, 4, 256),
                   "3x6": TileLayout.uniform(1024, 3, 16, 6, 256)}


def mapping_inputs(span, bias):
    """Offsets that stress the float mapping: random ones, the rounding points and their
    neighbours, signed zeros, the half-turn edges and code indices at the int64 edge."""
    rng = np.random.default_rng(29)
    ties = [(k - 0.5 - bias) / span for k in range(-span - 1, 2 * span + 2)]
    ties += [k / span - 0.5 for k in range(2 * span + 1)]
    neighbours = [np.nextafter(t, edge) for t in ties for edge in (-np.inf, np.inf)]
    top = 2.0**63 / span
    edges = [x for x in (-top, np.nextafter(-top, -np.inf), np.nextafter(top, 0), 1e15, -1e15)
             if -2.0**63 <= span * x + bias + 0.5 < 2.0**63]  # the index fits int64
    return np.array([*rng.uniform(-0.5, 0.5, 100), *rng.uniform(-50, 50, 20), *ties, *neighbours,
                     0.0, -0.0, np.nextafter(0.5, 0), -0.5, 0.5, *edges])


class TestMappingOracle:
    """The float mapping reads the numpy expressions' bits, on any layout and shape."""

    @pytest.mark.parametrize("max_delay", [None, 0, 204], ids=["cfo", "timing-0", "timing-204"])
    @pytest.mark.parametrize("layout", MAPPING_LAYOUTS.values(), ids=MAPPING_LAYOUTS.keys())
    def test_mappers_match_the_numpy_expressions(self, layout, max_delay):
        if max_delay is None:
            span, bias, mapper = layout.n_blocks - 1, 0.0, lambda x: map_cfo(x, layout)
        else:
            span = layout.tile_width - 1
            bias = max_delay * span / (2.0 * layout.n_subcarriers)
            mapper = lambda x: map_timing(x, layout, max_delay)  # noqa: E731
        values = mapping_inputs(span, bias)
        got = mapper(values)
        assert exact(got) == exact(map_reference(values, layout, max_delay))
        assert got[0].dtype == np.int64 and got[1].dtype == np.float64
        for shape in [(), (0,), (3,), (2, 3)]:
            part = values[: math.prod(shape)].reshape(shape)
            assert exact(mapper(part)) == exact(map_reference(part, layout, max_delay))

    @pytest.mark.parametrize("mapper", [lambda x: map_cfo(x, reference_layout()),
                                        lambda x: map_timing(x, reference_layout(), 204)],
                             ids=["cfo", "timing"])
    @pytest.mark.parametrize("value", [1e308, -1e308, np.nextafter(2.0**63 / 3, np.inf),
                                       2.0**63 / 3],
                             ids=["1e308", "-1e308", "first past 2**63 / span", "2**63 / span"])
    def test_code_index_past_int64_raises_before_rounding(self, mapper, value):
        # numpy's overflow in multiply, invalid remainder and invalid cast warnings came first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="must give code indices within int64"):
                mapper(np.array([0.1, value]))

    @pytest.mark.parametrize("mapper", [lambda x: map_cfo(x, reference_layout()),
                                        lambda x: map_timing(x, reference_layout(), 204)],
                             ids=["cfo", "timing"])
    @pytest.mark.parametrize("value", [np.array([0.1 + 0.5j]), np.array([0.1 + 0j]), 0.1 + 0j,
                                       [0.2, 0.1j]], ids=["array", "zero-imaginary", "scalar",
                                                          "list"])
    def test_complex_values_raise(self, mapper, value):
        # a complex array reached the rounding, which raised a bare TypeError
        with pytest.raises(ValidationError, match="must be real"):
            mapper(value)

    def test_scalars_and_lists_map_as_arrays(self):
        layout = reference_layout()
        for value in (0.2, np.float64(0.2), [0.2], [[0.2, -0.3]]):
            want = map_reference(value, layout)
            assert exact(map_cfo(value, layout)) == exact(want)


class TestDetectCodes:
    def freq(self, codes, cfos=0.01):
        return map_cfo(np.asarray(codes) / 3 + np.asarray(cfos) * 1280 / 1024, reference_layout())

    def timing(self, codes, delay=10):
        return map_timing(np.asarray(codes) / 3 - delay / 1024, reference_layout(), 204)

    def test_full_agreement(self):
        per_code, coll = detect_codes(*self.freq([0, 2]), *self.timing([0, 2]))
        assert set(per_code) == {0, 2}
        assert coll == 0

    def test_partial_agreement(self):
        per_code, _ = detect_codes(*self.freq([0, 1]), *self.timing([0, 2]))
        assert set(per_code) == {0}

    def test_permutation_symmetry(self):
        f = self.freq([0, 1, 2])
        t = self.timing([2, 0, 1])
        p1, _ = detect_codes(*f, *t)
        p2, _ = detect_codes(*(a[::-1] for a in f), *(a[::-1] for a in t))
        assert set(p1) == set(p2) == {0, 1, 2}
        assert p1 == p2

    def test_collision_keeps_first_and_counts(self):
        codes, cfos = self.freq([1, 1], cfos=[0.01, 0.03])
        per_code, coll = detect_codes(codes, cfos, *self.timing([1]))
        assert set(per_code) == {1}
        assert per_code[1][0] == cfos[0]
        assert coll == 1

    def test_lists_give_what_the_arrays_give(self):
        # lists raised AttributeError: a list has no tolist
        arrays = (*self.freq([1, 1, 2], cfos=[0.01, 0.03, 0.02]), *self.timing([2, 1, 0]))
        assert detect_codes(*(a.tolist() for a in arrays)) == detect_codes(*arrays)

    @pytest.mark.parametrize("stage", ["frequency", "timing"])
    def test_stage_codes_and_values_of_unequal_length_rejected(self, stage):
        # zip dropped the unmatched entries and returned ({}, 1) or a partial attribution
        f, t = list(self.freq([0, 2])), list(self.timing([0, 2]))
        short = f if stage == "frequency" else t
        short[1] = short[1][:1]
        with pytest.raises(DimensionError, match="one value per code estimate"):
            detect_codes(*f, *t)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("shape", [(), (2, 1)], ids=["scalar", "2-d"])
    def test_array_that_is_not_1d_rejected(self, position, shape):
        # a scalar raised TypeError from len(), a 2-d array TypeError: unhashable list
        arrays = [*self.freq([0, 2]), *self.timing([0, 2])]
        arrays[position] = np.zeros(shape)
        with pytest.raises(DimensionError, match="one value per code estimate"):
            detect_codes(*arrays)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
    def test_integer_codes_of_any_width_accepted(self, dtype):
        # the rule is an integer dtype, not int64: narrow and unsigned codes detect alike
        codes = np.array([2, 0, 1], dtype=dtype)
        got = detect_codes(codes, [0.1, 0.2, 0.3], codes[::-1], [5.0, 6.0, 7.0])
        assert got == ({2: (0.1, 7.0), 0: (0.2, 6.0), 1: (0.3, 5.0)}, 0)

    def test_empty_stages_read_as_no_estimates(self):
        assert detect_codes([], [], [], []) == ({}, 0)

    def test_matches_first_wins_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            cfo_codes, timing_codes = rng.integers(0, 3, size=(2, int(rng.integers(1, 5))))
            cfos, delays = rng.standard_normal((2, cfo_codes.size))
            first_cfo, first_delay, clashes = {}, {}, 0
            for table, codes, values in ((first_cfo, cfo_codes, cfos),
                                         (first_delay, timing_codes, delays)):
                for code, value in zip(codes.tolist(), values.tolist()):
                    clashes += code in table
                    table.setdefault(code, value)
            both = first_cfo.keys() & first_delay.keys()
            want = {c: (first_cfo[c], first_delay[c]) for c in both}
            assert detect_codes(cfo_codes, cfos, timing_codes, delays) == (want, clashes)


class TestRangeSubchannel:
    def test_noise_only_report_is_well_formed(self):
        layout = reference_layout()
        rng = np.random.default_rng(9)
        obs = synthesize_model_mode([], layout, 1.0, rng)
        report = range_subchannel(obs, RangerConfig(max_delay=204))
        assert 0 <= report.num_codes <= 3
        assert len(report.effective_cfos) == len(report.effective_timings) == report.num_codes
        assert len(report.per_code) <= report.num_codes

    def test_idle_report_is_empty(self):
        report = RangingReport()
        assert report.num_codes == 0
        assert report.detected == set()

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_known_count_is_the_reported_count(self, k):
        layout = reference_layout()
        rng = np.random.default_rng(12)
        users = random_users(rng, layout, 3, max_cfo=0.05)
        obs = synthesize_model_mode(users, layout, 0.01, rng)
        report = range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=k))
        assert report.num_codes == len(report.effective_timings) == k

    def test_zero_grid_reports_nothing(self):
        layout = reference_layout()
        obs = TileObservations(layout, np.zeros((4, 16, 4), dtype=complex))
        report = range_subchannel(obs, RangerConfig(max_delay=204))
        assert report.num_codes == 0
        assert report.detected == set()

    def test_single_user_noiseless(self):
        layout = reference_layout()
        rng = np.random.default_rng(10)
        user = random_users(rng, layout, 1, max_cfo=0.05)[0]
        obs = synthesize_model_mode([user], layout, 0.0, rng)
        report = range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=1))
        assert report.detected == {user.code}
        cfo_hat, timing_hat = report.per_code[user.code]
        assert cfo_hat == pytest.approx(user.cfo, abs=1e-6)
        assert timing_hat == pytest.approx(user.delay, abs=1e-3)

    def test_noiseless_exactness_many_draws(self):
        layout = reference_layout()
        for trial in range(30):
            rng = np.random.default_rng(2000 + trial)
            k = int(rng.integers(1, 4))
            users = random_users(rng, layout, k, max_cfo=0.1)
            obs = synthesize_model_mode(users, layout, 0.0, rng)
            report = range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=k))
            assert report.detected == {u.code for u in users}
            xi, eta = _effective_offsets(np.array([u.code for u in users]),
                                         np.array([u.delay for u in users]),
                                         np.array([u.cfo for u in users]), layout)
            want_xi = np.sort(wrap_half(xi))
            got_xi = np.sort(report.effective_cfos)
            np.testing.assert_allclose(got_xi, want_xi, atol=1e-6)
            want_eta = np.sort(wrap_half(eta))
            got_eta = np.sort(report.effective_timings)
            np.testing.assert_allclose(got_eta, want_eta, atol=1e-6)
            for u in users:
                cfo_hat, timing_hat = report.per_code[u.code]
                assert cfo_hat == pytest.approx(u.cfo, abs=1e-4)
                assert timing_hat == pytest.approx(u.delay, abs=1e-4 * 1024)

    def test_waveform_noiseless_single_user(self):
        # leakage from a user's own bins carries the same block-to-block
        # rotation as the direct path, so the frequency stage stays exact in
        # waveform mode; the timing stage sees the leakage as a model error
        # worth a few samples, still well inside the tolerable window
        layout = reference_layout()
        from rangesim.airmodel import synthesize_waveform_mode

        for trial in range(5):
            rng = np.random.default_rng(3000 + trial)
            user = random_users(rng, layout, 1, max_cfo=0.1)[0]
            obs = synthesize_waveform_mode([user], layout, 0.0, rng)
            report = range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=1))
            assert report.detected == {user.code}
            cfo_hat, timing_hat = report.per_code[user.code]
            assert cfo_hat == pytest.approx(user.cfo, abs=1e-9)
            assert timing_hat == pytest.approx(user.delay, abs=8.0)

    def test_global_phase_invariance(self):
        layout = reference_layout()
        rng = np.random.default_rng(11)
        users = random_users(rng, layout, 2, max_cfo=0.05)
        obs = synthesize_model_mode(users, layout, 0.01, rng)
        base = range_subchannel(obs, RangerConfig(max_delay=204))
        rotated = TileObservations(layout, obs.grid * np.exp(1j * 0.7))
        other = range_subchannel(rotated, RangerConfig(max_delay=204))
        assert other.detected == base.detected
        assert other.num_codes == base.num_codes
        got = np.sort(other.effective_cfos)
        np.testing.assert_allclose(got, np.sort(base.effective_cfos), atol=1e-10)

    @pytest.mark.parametrize("synthesize", [synthesize_model_mode, synthesize_waveform_mode],
                             ids=["model", "waveform"])
    def test_decisions_do_not_depend_on_the_grid_scale(self, synthesize):
        # an absolute eigenvalue floor read every 20 dB grid scaled by 1e-10 as an empty slot,
        # and from 1e-155 down the correlation's products fell into subnormals: K = 0 again
        layout, cfg = reference_layout(), RangerConfig(max_delay=204)
        for trial in range(20):
            rng = np.random.default_rng([3, trial])
            grid = synthesize(random_users(rng, layout, 3), layout, 0.01, rng).grid
            base = range_subchannel(TileObservations(layout, grid), cfg)
            # the largest eigenvalue is 4.5 to 7.8 here: 1e-146 and 1e-148 put it between 2.2e-296
            # and 2.2e-290, ranged as is under a 1e-12 floor and at unit scale under 1e-18, and
            # 1e-150 just under 2.2e-296, ranged at unit scale under either
            for scale in (1e-10, 1e-100, 1e100, 1e-146, 1e-148, 1e-150, 1e-155, 1e-200, 1e-300):
                report = range_subchannel(TileObservations(layout, scale * grid), cfg)
                assert (report.num_codes, report.detected) == (base.num_codes, base.detected)
                for code, (cfo, delay) in base.per_code.items():
                    assert report.per_code[code][0] == pytest.approx(cfo, abs=1e-12)
                    assert report.per_code[code][1] == pytest.approx(delay, abs=1e-9)

    def test_known_count_validated(self):
        layout = reference_layout()
        obs = TileObservations(layout, np.zeros((4, 16, 4), dtype=complex))
        with pytest.raises(ConfigError):
            range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=4))

    def test_stage_errors_name_the_stage(self):
        # a known count on an idle grid asks the rotation for a subspace that is not there
        obs = TileObservations(reference_layout(), np.zeros((4, 16, 4), dtype=complex))
        with pytest.raises(RankDeficiencyError, match="^frequency-stage rotation: "):
            range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=1))

    @pytest.mark.parametrize("max_delay", [10**6, -5])
    def test_max_delay_validated_without_codes(self, max_delay):
        # checked on entry, not only once the grid yields codes to map
        layout = reference_layout()
        obs = TileObservations(layout, np.zeros((4, 16, 4), dtype=complex))
        with pytest.raises(ConfigError, match="max delay"):
            range_subchannel(obs, RangerConfig(max_delay=max_delay))


def ranged_by_hand(obs, cfg):
    """The receiver's report, built by running its public stages one after the other."""
    layout, grid = obs.layout, obs.grid
    snaps = freq_snapshots(obs)
    lam_f, vec_f = hermitian_evd(forward_backward(sample_corr(snaps)))
    if lam_f[0] < _TINY_TOP and grid.any():
        # the documented re-ranging: the grid scaled by the power of two that brings its
        # largest part into [1/2, 1)
        parts = grid.view(float)
        scaled = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(complex)
        return ranged_by_hand(TileObservations(layout, scaled), cfg)
    k = cfg.known_num_codes
    if k is None:
        k = estimate_num_codes(lam_f, snaps.shape[0], layout.max_codes)
    if k == 0:
        return RangingReport()
    eff_cfos = esprit_phases(lam_f, vec_f, k)
    lam_t, vec_t = hermitian_evd(forward_backward(sample_corr(tile_snapshots(obs))))
    eff_timings = esprit_phases(lam_t, vec_t, k)
    per_code, collisions = detect_codes(*map_cfo(eff_cfos, layout),
                                        *map_timing(eff_timings, layout, cfg.max_delay))
    return RangingReport(eff_cfos, eff_timings, per_code, collisions)


def report_repr(report):
    """The report's every value by ``repr``, the phase arrays as lists to the last bit."""
    return repr((report.effective_cfos.tolist(), report.effective_timings.tolist(),
                 report.per_code, report.collisions))


def assert_receiver_runs_the_public_stages(synthesize, layout, k, known, max_cfo=0.1):
    for trial, noise_var in enumerate((0.0, 1e-2, 1.0, 10.0, 100.0)):
        rng = np.random.default_rng([26, k, trial])
        obs = synthesize(random_users(rng, layout, k, max_cfo=max_cfo), layout, noise_var, rng)
        cfg = RangerConfig(max_delay=204, known_num_codes=k if known else None)
        report = range_subchannel(obs, cfg)
        assert report_repr(report) == report_repr(ranged_by_hand(obs, cfg))
        assert not np.shares_memory(report.effective_cfos, report.effective_timings)


# layouts with n_blocks != tile_width: the two stages' eigenvectors differ in shape
NON_SQUARE = {"5x4": MAPPING_LAYOUTS["5x4"], "3x6": MAPPING_LAYOUTS["3x6"]}


class TestOneImplementation:
    """``range_subchannel`` runs the public stages' own code, bit for bit, only unchecked."""

    @pytest.mark.parametrize("known", [False, True], ids=["mdl", "known"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("synthesize", [synthesize_model_mode, synthesize_waveform_mode],
                             ids=["model", "waveform"])
    def test_public_stages_give_the_receiver_report(self, synthesize, k, known):
        assert_receiver_runs_the_public_stages(synthesize, reference_layout(), k, known)

    @pytest.mark.parametrize("known", [False, True], ids=["mdl", "known"])
    @pytest.mark.parametrize("shape, k", [(shape, k) for shape, layout in NON_SQUARE.items()
                                          for k in range(layout.max_codes + 1)])
    @pytest.mark.parametrize("synthesize", [synthesize_model_mode, synthesize_waveform_mode],
                             ids=["model", "waveform"])
    def test_public_stages_give_the_receiver_report_on_non_square_layouts(self, synthesize, shape,
                                                                          k, known):
        # 5 blocks acquire CFOs below 0.1 subcarrier spacings only
        assert_receiver_runs_the_public_stages(synthesize, NON_SQUARE[shape], k, known,
                                               max_cfo=0.05)

    def test_a_failed_eigenvalue_call_names_both_rotations(self, monkeypatch):
        # one eigvals call finds the roots of both stages' rotations
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        layout = reference_layout()
        rng = np.random.default_rng(2929)
        obs = synthesize_model_mode(random_users(rng, layout, 3), layout, 0.01, rng)
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NumericalError,
                           match="^frequency- and timing-stage rotations: eigenvalue computation"):
            range_subchannel(obs, RangerConfig(max_delay=204))

    def test_a_frequency_rank_failure_raises_before_the_timing_stage(self, monkeypatch):
        # the frequency rotation, rank test and all, is formed before the timing stage's EVD
        calls = []

        def counted(a):
            calls.append(a)
            return hermitian_evd(a)

        monkeypatch.setattr(ranger, "hermitian_evd", counted)
        obs = TileObservations(reference_layout(), np.zeros((4, 16, 4), dtype=complex))
        with pytest.raises(RankDeficiencyError, match="^frequency-stage rotation: "):
            range_subchannel(obs, RangerConfig(max_delay=204, known_num_codes=1))
        assert len(calls) == 1

    @pytest.mark.parametrize("synthesize", [synthesize_model_mode, synthesize_waveform_mode],
                             ids=["model", "waveform"])
    def test_grid_below_tiny_top_takes_the_re_ranging_branch_alike(self, synthesize):
        layout = reference_layout()
        rng = np.random.default_rng(2626)
        grid = 1e-150 * synthesize(random_users(rng, layout, 3), layout, 0.01, rng).grid
        obs = TileObservations(layout, grid)
        assert hermitian_evd(forward_backward(sample_corr(freq_snapshots(obs))))[0][0] < _TINY_TOP
        cfg = RangerConfig(max_delay=204)
        report = range_subchannel(obs, cfg)
        assert report.num_codes == 3
        assert report_repr(report) == report_repr(ranged_by_hand(obs, cfg))


class TestWrapConsistency:
    def test_cfo_round_trip_grid(self):
        layout = reference_layout()
        cfos = np.linspace(-0.1, 0.1, 41)
        for code in range(3):
            xi = wrap_half(code / 3 + cfos * layout.block_len / 1024)
            got_codes, got_cfos = map_cfo(xi, layout)
            np.testing.assert_array_equal(got_codes, code)
            np.testing.assert_allclose(got_cfos, cfos, rtol=0, atol=1e-12)

    def test_timing_round_trip_grid(self):
        layout = reference_layout()
        delays = np.arange(0, 205, 17)
        for code in range(3):
            got_codes, got_delays = map_timing(wrap_half(code / 3 - delays / 1024), layout, 204)
            np.testing.assert_array_equal(got_codes, code)
            np.testing.assert_allclose(got_delays, delays, rtol=0, atol=1e-9)


@st.composite
def small_layouts(draw):
    """A small valid layout, tile geometry and prefix drawn freely."""
    tile_width = draw(st.integers(2, 6))
    n_blocks = draw(st.integers(2, 6))
    n_tiles = draw(st.integers(1, 4))
    n_subcarriers = draw(st.integers(n_tiles * tile_width, 64))
    cp_ranging = draw(st.integers(0, n_subcarriers))
    return TileLayout.uniform(n_subcarriers, n_blocks, n_tiles, tile_width, cp_ranging)


# Largest |CFO| drawn, as a fraction of the acquisition bound: at the bound itself
# the code decision is a rounding tie, which round-off may break either way.
ACQUISITION_EDGE = 1 - 1e-6


@settings(deadline=None, derandomize=True)
@given(small_layouts(), st.data())
def test_mapping_recovers_every_code_from_wrapped_offsets(layout, data):
    max_delay = data.draw(st.integers(0, math.ceil(layout.delay_bound) - 1))
    codes = np.arange(layout.max_codes)
    cfos, delays = [], []
    for code in codes:
        edge = data.draw(st.floats(-ACQUISITION_EDGE, ACQUISITION_EDGE))
        cfos.append(edge * layout.acquisition_bound)
        delays.append(data.draw(st.integers(0, max_delay)))
    xis, etas = _effective_offsets(codes, np.array(delays), np.array(cfos), layout)
    freq_codes, got_cfos = map_cfo(wrap_half(xis), layout)
    timing_codes, got_delays = map_timing(wrap_half(etas), layout, max_delay)
    np.testing.assert_array_equal(freq_codes, codes)
    np.testing.assert_array_equal(timing_codes, codes)
    np.testing.assert_allclose(got_cfos, cfos, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got_delays, delays, rtol=0, atol=1e-9)


@settings(deadline=None, derandomize=True)
@given(small_layouts(), st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0), st.data())
def test_reported_codes_stay_in_range(layout, seed, noise_var, data):
    # any offsets and noise: the detector may err, but never names a code outside the layout
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, layout.max_codes))
    codes = rng.choice(layout.max_codes, size=k, replace=False)
    users = [
        UserTruth(int(c), int(rng.integers(0, layout.n_subcarriers)), float(rng.uniform(-0.5, 0.5)),
                  draw_channel(ChannelProfile(3, 2.0), rng))
        for c in codes
    ]
    obs = synthesize_model_mode(users, layout, noise_var, rng)
    max_delay = math.ceil(layout.delay_bound) - 1
    report = range_subchannel(obs, RangerConfig(max_delay=max_delay))
    assert all(0 <= c < layout.max_codes for c in report.detected)


def mdl_reference(eigenvalues, num_snapshots, cap):
    """The whole-array MDL expression that the float scoring replaced, kept verbatim but for
    the floor, which is relative to the largest eigenvalue as the scorer's is."""
    lam = np.array(eigenvalues, dtype=float)
    numerical_zero = 1e-12 * float(np.max(lam, initial=0.0))
    lam[lam < numerical_zero] = 0.0
    lam = np.maximum(lam, EIGENVALUE_FLOOR * float(np.max(lam, initial=0.0)) or EIGENVALUE_FLOOR)
    n = lam.size
    k = np.arange(cap + 1)
    tail_len = n - k
    # sums over the trailing eigenvalues lam[k:] for every candidate k at once
    tail_log_sum = np.cumsum(np.log(lam)[::-1])[::-1][: cap + 1]
    tail_sum = np.cumsum(lam[::-1])[::-1][: cap + 1]
    log_ratio = tail_log_sum / tail_len - np.log(tail_sum / tail_len)
    scores = 0.5 * k * (2 * n - k) * math.log(num_snapshots) - num_snapshots * tail_len * log_ratio
    return int(np.argmin(scores))


@st.composite
def mdl_spectra(draw):
    """Non-increasing spectra mixing exact zeros, values under the 1e-12 round-off
    snap (either sign), values above it, and ties."""
    n = draw(st.integers(1, 6))
    top = draw(st.floats(1e-9, 1e9))
    entry = st.one_of(
        st.just(0.0),
        st.floats(-1e-12, 1e-12).map(lambda r: r * top),
        st.floats(1e-12, 1.0).map(lambda r: r * top),
    )
    lam = [top] + draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
    for i in draw(st.lists(st.integers(1, n - 1), max_size=n)) if n > 1 else ():
        lam[i] = lam[i - 1]  # a tie with the neighbour
    return sorted(lam, reverse=True)


@settings(deadline=None, derandomize=True, max_examples=1000)
@given(mdl_spectra(), st.integers(1, 10**6))
# Equal eigenvalues and one snapshot leave nothing but round-off in the scores,
# so the pick depends on the last bit of each logarithm: here math.log and an
# AVX-512 np.log disagree by an ulp and pick different counts.
@example([0.972166261806722] * 3, 1)
def test_mdl_matches_whole_array_expression(lam, num_snapshots):
    for cap in range(len(lam)):
        assert estimate_num_codes(lam, num_snapshots, cap) == mdl_reference(lam, num_snapshots, cap)
