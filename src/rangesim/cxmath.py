"""Dense complex linear algebra for the ranging receiver, backed by LAPACK.

Each kernel is a thin :mod:`numpy.linalg` call that keeps this package's
error contract: bad input raises :class:`ValidationError` or
:class:`DimensionError`, and every LAPACK failure surfaces as
:class:`NumericalError`, never as ``LinAlgError``.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, RankDeficiencyError, ValidationError

_HERMITIAN_REL_TOL = 1e-12
# Singular values below this fraction of the largest count as zero: the
# same as a 1e-12 relative bound on the eigenvalues of the Gram matrix Z1^H Z1.
_RANK_RCOND = 1e-6


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigenvalues in non-increasing order with matching orthonormal eigenvectors.

    Column ``j`` of ``eigenvectors`` pairs with ``eigenvalues[j]``.  The
    order within a tie is unspecified; nothing downstream depends on it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} needs a square matrix, got shape {a.shape}")
    return a


def forward_backward(r) -> np.ndarray:
    """Average a square matrix with its exchange-mirrored transpose.

    Returns ``0.5 * (R + J R^T J)`` where J is the exchange matrix (ones on
    the anti-diagonal).  The result is persymmetric by construction and
    Hermitian whenever R is Hermitian; applying it twice changes nothing.
    """
    r = _as_square(r, "forward_backward")
    return 0.5 * (r + r[::-1, ::-1].T)


def hermitian_evd(a) -> HermitianSpectrum:
    """Full eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    Raises :class:`ValidationError` for non-finite entries or input that is
    not Hermitian to a relative tolerance of 1e-12.  Eigenvalues come back
    in non-increasing order; the order within a tie is unspecified.
    """
    a = _as_square(a, "hermitian_evd")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    norm = float(np.linalg.norm(a))
    if float(np.linalg.norm(a - a.conj().T)) > _HERMITIAN_REL_TOL * max(norm, 1e-300):
        raise ValidationError("matrix is not Hermitian to working tolerance")
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigendecomposition failed: {exc}") from exc
    return HermitianSpectrum(eigenvalues[::-1].copy(), np.ascontiguousarray(vectors[:, ::-1]))


def ls_rotation(z1, z2) -> np.ndarray:
    """Least-squares solution X of ``Z1 @ X ~= Z2`` by LAPACK (``np.linalg.lstsq``).

    Both inputs must share the same (rows, k) shape with rows >= k >= 1.
    Raises :class:`RankDeficiencyError` when a singular value of Z1 falls
    below 1e-6 of its largest: the subspace dimension was overestimated or
    the snapshot set is degenerate.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if z1.ndim != 2 or z1.shape != z2.shape:
        raise DimensionError(f"ls_rotation needs equal 2-d shapes, got {z1.shape} and {z2.shape}")
    rows, k = z1.shape
    if k < 1 or rows < k:
        raise DimensionError(f"ls_rotation needs rows >= cols >= 1, got {z1.shape}")
    try:
        x, _, rank, _ = np.linalg.lstsq(z1, z2, rcond=_RANK_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least-squares solve failed: {exc}") from exc
    if rank < k:
        raise RankDeficiencyError(f"Z1 has rank {rank} < {k}: subspace dimension overestimated")
    return x


def general_eigenvalues(a) -> np.ndarray:
    """All eigenvalues (with multiplicity, unordered) of a square matrix (``np.linalg.eigvals``)."""
    a = _as_square(a, "general_eigenvalues")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
