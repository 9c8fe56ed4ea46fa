"""Linear algebra kernel checks against numpy.linalg and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.linalg import _umath_linalg

from rangesim.cxmath import (
    _eigvals,
    _fb,
    _unit_scaled,
    forward_backward,
    general_eigenvalues,
    hermitian_evd,
    ls_rotation,
)
from rangesim.errors import DimensionError, NumericalError, RankDeficiencyError, ValidationError

from helpers import flagging_invalid


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    b = random_complex(rng, (n, n))
    return 0.5 * (b + b.conj().T)


def exchange(n):
    return np.eye(n)[::-1]


class TestForwardBackward:
    def test_identity_is_invariant(self):
        np.testing.assert_array_equal(forward_backward(np.eye(3)), np.eye(3))

    def test_diagonal_is_averaged(self):
        out = forward_backward(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(out, np.diag([1.5, 1.5]), atol=0)

    def test_persymmetric_and_hermitian(self):
        rng = np.random.default_rng(7)
        r = random_hermitian(rng, 4)
        out = forward_backward(r)
        j = exchange(4)
        np.testing.assert_array_equal(out, j @ out.T @ j)  # exact by construction
        assert np.max(np.abs(out - out.conj().T)) < 1e-15

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        r = random_complex(rng, (5, 5))
        once = forward_backward(r)
        np.testing.assert_array_equal(forward_backward(once), once)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            forward_backward(np.zeros((2, 3)))


# real and imaginary parts for the byte tests: signed zeros, subnormals, ordinary and large
# values, none so large that a sum of two leaves the float range
EDGE_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.5, 1e300, -1e300])
PARTS = EDGE_PARTS | st.floats(-1e300, 1e300)


@settings(deadline=None, derandomize=True)
@given(parts=arrays(float, st.integers(1, 6).map(lambda n: (n, n, 2)), elements=PARTS))
def test_fb_core_is_the_halved_sum_byte_for_byte(parts):
    # the sum built once and halved in place: the bytes of 0.5 * (r + J r^T J), signs of zero
    # and subnormals included, in a new array
    r = parts.view(complex)[..., 0]
    want, got = 0.5 * (r + r[::-1, ::-1].T), _fb(r)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, r)


class TestHermitianEvd:
    def test_diagonal(self):
        lam, vecs = hermitian_evd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(lam, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_solved(self):
        # characteristic polynomial x^2 - 4x + 3 has roots 3 and 1
        a = np.array([[2.0, 1j], [-1j, 2.0]])
        lam, _ = hermitian_evd(a)
        np.testing.assert_allclose(lam, [3.0, 1.0], atol=1e-12)

    def test_psd_reconstruction(self):
        rng = np.random.default_rng(11)
        b = random_complex(rng, (4, 4))
        a = b.conj().T @ b
        lam, vecs = hermitian_evd(a)
        assert np.min(lam) >= -1e-12
        recon = vecs @ np.diag(lam) @ vecs.conj().T
        np.testing.assert_allclose(recon, a, atol=1e-10)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(12)
        _, vecs = hermitian_evd(random_hermitian(rng, 6))
        gram = vecs.conj().T @ vecs
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            a = random_hermitian(rng, int(rng.integers(2, 9)))
            ours = hermitian_evd(a)[0]
            ref = np.linalg.eigvalsh(a)[::-1]
            np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_trace_and_frobenius_preserved(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a = random_hermitian(rng, 4)
            lam = hermitian_evd(a)[0]
            assert abs(np.sum(lam) - np.trace(a).real) <= 1e-10 * max(1.0, abs(np.trace(a)))
            fro2 = np.linalg.norm(a) ** 2
            assert abs(np.sum(lam**2) - fro2) <= 1e-10 * max(1.0, fro2)

    def test_descending_order(self):
        rng = np.random.default_rng(15)
        lam = hermitian_evd(random_hermitian(rng, 8))[0]
        assert np.all(np.diff(lam) <= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_evd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_huge_hermitian_accepted(self):
        # squared-sum norms of 1e200 entries overflow; the Hermitian check must not
        a = 1e200 * random_hermitian(np.random.default_rng(18), 4)
        lam, _ = hermitian_evd(a)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(a)[::-1], rtol=0, atol=1e190)

    def test_huge_non_hermitian_rejected(self):
        a = 1e200 * random_complex(np.random.default_rng(19), (4, 4))
        with pytest.raises(ValidationError, match="not Hermitian"):
            hermitian_evd(a)

    def test_large_matrix_matches_numpy_eigh(self):
        # no size cap: 65x65 is far past the 4x4 matrices the receiver builds
        rng = np.random.default_rng(16)
        a = random_hermitian(rng, 65)
        lam, vecs = hermitian_evd(a)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(a)[::-1], atol=1e-10)
        recon = vecs @ np.diag(lam) @ vecs.conj().T
        np.testing.assert_allclose(recon, a, atol=1e-10)

    def test_returns_contiguous_copies(self):
        lam, vecs = hermitian_evd(random_hermitian(np.random.default_rng(17), 4))
        assert lam.flags.c_contiguous and lam.flags.owndata
        assert vecs.flags.c_contiguous and vecs.flags.owndata

    def test_zero_matrix(self):
        lam, _ = hermitian_evd(np.zeros((3, 3)))
        np.testing.assert_array_equal(lam, np.zeros(3))

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_outputs_are_eighs_reversed_byte_for_byte(self, n):
        # eigh's eigenvalues and eigenvector columns, reversed into contiguous copies, to the
        # last bit, on random Hermitian matrices of several scales
        rng = np.random.default_rng(n)
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            for _ in range(20):
                a = scale * random_hermitian(rng, n)
                w, v = np.linalg.eigh(a)
                lam, vecs = hermitian_evd(a)
                assert lam.tobytes() == np.ascontiguousarray(w[::-1]).tobytes()
                assert vecs.tobytes() == np.ascontiguousarray(v[:, ::-1]).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_eigenvalues_are_eigvals_byte_for_byte(k):
    # the gufunc reached directly gives np.linalg.eigvals' bytes, on one matrix and on a stack
    # of two (the receiver's rotations) of several scales; with the eigh test above, a numpy
    # whose private gufuncs move away from its public calls fails here
    rng = np.random.default_rng(100 + k)
    for scale in (1e-200, 1e-3, 1.0, 1e150):
        for _ in range(20):
            stack = scale * random_complex(rng, (2, k, k))
            assert _eigvals(stack).tobytes() == np.linalg.eigvals(stack).tobytes()
            for a in stack:
                want = np.linalg.eigvals(a).tobytes()
                assert general_eigenvalues(a).tobytes() == want
                assert _eigvals(a).tobytes() == want


class TestUnitScaled:
    @pytest.mark.parametrize("scale", [2.0**-1000, 2.0**-60, 1.0, 3.0, 2.0**600])
    def test_largest_part_lands_in_half_to_one_by_an_exact_power_of_two(self, scale):
        a = scale * random_complex(np.random.default_rng(5), (3, 5))
        out = _unit_scaled(a)
        assert out.dtype == complex and out.shape == a.shape and not np.shares_memory(out, a)
        assert 0.5 <= np.abs(out.view(float)).max() < 1.0
        factor = out.view(float).ravel()[0] / a.view(float).ravel()[0]
        assert np.frexp(factor)[0] == 0.5  # a power of two
        assert out.tobytes() == (a * factor).tobytes()

    def test_zeros_stay_zeros(self):
        a = np.array([[0.0, -0.0]]).view(complex)
        assert _unit_scaled(a).tobytes() == a.tobytes()


def orthonormal_basis(rng, n, k):
    """An (n, k) basis with orthonormal columns: the Q factor of a random complex matrix."""
    return np.linalg.qr(random_complex(rng, (n, k)))[0]


class TestLsRotation:
    def test_identity_when_equal(self):
        # a constant column repeats itself under the shift: the rotation is the identity
        u = np.full((4, 1), 0.5, dtype=complex)
        np.testing.assert_allclose(ls_rotation(u), np.eye(1), atol=1e-12)

    def test_pure_exponential_shift(self):
        xi = 0.23
        e = np.exp(2j * np.pi * xi * np.arange(4)).reshape(-1, 1) / 2.0
        rot = ls_rotation(e)
        assert rot.shape == (1, 1)
        np.testing.assert_allclose(rot[0, 0], np.exp(2j * np.pi * xi), atol=1e-12)

    def test_construct_then_solve(self):
        # V = Q R with V Vandermonde in known phases, so Q[1:] = Q[:-1] (R diag(z) R^-1)
        phases = np.array([0.1, -0.3, 0.45])
        z = np.exp(2j * np.pi * phases)
        q, r = np.linalg.qr(z ** np.arange(5)[:, None])
        want = r @ np.diag(z) @ np.linalg.inv(r)
        np.testing.assert_allclose(ls_rotation(q), want, atol=1e-10)
        got = np.sort(np.angle(np.linalg.eigvals(ls_rotation(q))) / (2 * np.pi))
        np.testing.assert_allclose(got, np.sort(phases), atol=1e-10)

    def test_matches_numpy_lstsq(self):
        rng = np.random.default_rng(23)
        for n in range(2, 7):
            for k in range(1, n):
                for _ in range(5):
                    u = orthonormal_basis(rng, n, k)
                    ref = np.linalg.lstsq(u[:-1], u[1:], rcond=None)[0]
                    np.testing.assert_allclose(ls_rotation(u), ref, rtol=0, atol=1e-12)

    def test_rank_deficient_raises(self):
        # the second column lives on the last row, so U[:-1] loses a dimension
        u = np.zeros((4, 2), dtype=complex)
        u[0, 0] = u[3, 1] = 1.0
        with pytest.raises(RankDeficiencyError):
            ls_rotation(u)

    def test_shape_mismatch_raises(self):
        for shape in [(4,), (4, 0), (3, 3), (2, 3)]:  # 1-d, k = 0, k = n, k > n
            with pytest.raises(DimensionError):
                ls_rotation(np.zeros(shape))

    @pytest.mark.parametrize("distort", [
        lambda u: 1.001 * u[:, 1],
        lambda u: 0.5 * u[:, 1],
        lambda u: 2.0 * u[:, 1],
        lambda u: (u[:, 1] + 1e-6 * u[:, 0]) / np.sqrt(1 + 1e-12),  # unit norm, not orthogonal
    ], ids=["longer", "half", "double", "skewed"])
    def test_non_orthonormal_basis_rejected(self, distort):
        u = orthonormal_basis(np.random.default_rng(24), 4, 2)
        u[:, 1] = distort(u)
        with pytest.raises(ValidationError, match="not orthonormal"):
            ls_rotation(u)


class TestGeneralEigenvalues:
    def test_scalar(self):
        np.testing.assert_allclose(general_eigenvalues([[2.0 - 1.0j]]), [2.0 - 1.0j])

    def test_diagonal_unit_modulus(self):
        d = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 3)])
        got = sorted(general_eigenvalues(d), key=lambda z: z.imag)
        want = sorted(np.diag(d), key=lambda z: z.imag)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_symmetric_function_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = random_complex(rng, (3, 3))
            roots = general_eigenvalues(a)
            # e1 = trace, e3 = det, e2 = ((tr A)^2 - tr(A^2)) / 2
            e1 = roots[0] + roots[1] + roots[2]
            e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
            e3 = roots[0] * roots[1] * roots[2]
            tr = np.trace(a)
            scale = max(1.0, float(np.max(np.abs(a))) ** 3)
            assert abs(e1 - tr) <= 1e-8 * scale
            assert abs(e2 - 0.5 * (tr**2 - np.trace(a @ a))) <= 1e-8 * scale
            assert abs(e3 - np.linalg.det(a)) <= 1e-8 * scale

    def test_matches_numpy_eigvals(self):
        rng = np.random.default_rng(32)
        for n in (2, 3, 4):
            for _ in range(10):
                a = random_complex(rng, (n, n))
                got = np.sort_complex(general_eigenvalues(a))
                want = np.sort_complex(np.linalg.eigvals(a))
                np.testing.assert_allclose(got, want, atol=1e-8)

    def test_matches_hermitian_path(self):
        rng = np.random.default_rng(33)
        a = random_hermitian(rng, 4)
        got = np.sort(general_eigenvalues(a).real)
        want = np.sort(hermitian_evd(a)[0])
        np.testing.assert_allclose(got, want, atol=1e-8)
        assert np.max(np.abs(general_eigenvalues(a).imag)) < 1e-8

    def test_repeated_roots(self):
        a = np.array([[2.0, 1.0], [0.0, 2.0]])  # defective, eigenvalue 2 twice
        np.testing.assert_allclose(np.sort_complex(general_eigenvalues(a)), [2.0, 2.0], atol=1e-6)

    def test_five_by_five_matches_numpy_eigvals(self):
        # no size cap: 5x5 is past the 3x3 rotations the receiver builds
        rng = np.random.default_rng(34)
        a = random_complex(rng, (5, 5))
        got = np.sort_complex(general_eigenvalues(a))
        want = np.sort_complex(np.linalg.eigvals(a))
        np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("kernel, lapack_call, message", [
    (hermitian_evd, "eigh_lo", "Hermitian eigendecomposition failed"),
    (general_eigenvalues, "eigvals", "eigenvalue computation failed")], ids=["eigh", "eigvals"])
def test_lapack_failure_becomes_numerical_error(kernel, lapack_call, message, monkeypatch):
    # numpy's gufuncs report a LAPACK failure as the floating-point invalid flag, raised inside
    # the call; the kernel's error state must turn that flag into its NumericalError
    gufunc = getattr(_umath_linalg, lapack_call)
    monkeypatch.setattr(_umath_linalg, lapack_call, flagging_invalid(gufunc))
    with pytest.raises(NumericalError, match=f"^{message}: did not converge"):
        kernel(np.eye(3, dtype=complex))


@pytest.mark.parametrize("kernel, lapack_call", [
    (hermitian_evd, "eigh_lo"), (general_eigenvalues, "eigvals")], ids=["eigh", "eigvals"])
def test_overflow_division_and_underflow_inside_lapack_pass(kernel, lapack_call, monkeypatch):
    # as under numpy.linalg's wrappers: only the invalid flag means failure, whatever the
    # caller's own error state
    gufunc = getattr(_umath_linalg, lapack_call)

    def flagging_the_others(a, signature):
        np.multiply(np.float64(1e308), 10.0), np.divide(np.float64(1.0), 0.0)
        np.multiply(np.float64(1e-308), 1e-308)
        return gufunc(a, signature=signature)

    def as_bytes(result):
        return [x.tobytes() for x in (result if isinstance(result, tuple) else (result,))]

    a = random_hermitian(np.random.default_rng(35), 3)
    want = as_bytes(kernel(a))
    monkeypatch.setattr(_umath_linalg, lapack_call, flagging_the_others)
    with np.errstate(all="raise"):
        assert as_bytes(kernel(a)) == want
