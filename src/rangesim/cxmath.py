"""Dense complex linear algebra for the ranging receiver, backed by LAPACK.

Each kernel is a thin :mod:`numpy.linalg` call that keeps this package's
error contract: bad input raises :class:`ValidationError` or
:class:`DimensionError`, and every LAPACK failure surfaces as
:class:`NumericalError`, never as ``LinAlgError``.  All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError, RankDeficiencyError, ValidationError

_HERMITIAN_REL_TOL = 1e-12
# Singular values below this fraction of the largest count as zero: the
# same as a 1e-12 relative bound on the eigenvalues of the Gram matrix Z1^H Z1.
_RANK_RCOND = 1e-6


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


def hermitian_evd(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    Returns ``(eigenvalues, eigenvectors)`` as contiguous copies: real
    eigenvalues in non-increasing order, and orthonormal eigenvectors whose
    column ``j`` pairs with ``eigenvalues[j]``.  The order within a tie is
    unspecified; nothing downstream depends on it.  Raises
    :class:`ValidationError` for non-finite entries or input that is not
    Hermitian to a relative tolerance of 1e-12 (largest entry of ``a - a^H``
    against largest entry of ``a``).
    """
    a = _as_square(a, "hermitian_evd")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    # max-abs norms: a squared-sum norm overflows once entries pass about 1e154
    if np.abs(a - a.conj().T).max(initial=0.0) > _HERMITIAN_REL_TOL * np.abs(a).max(initial=0.0):
        raise ValidationError("matrix is not Hermitian to working tolerance")
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigendecomposition failed: {exc}") from exc
    return eigenvalues[::-1].copy(), np.ascontiguousarray(vectors[:, ::-1])


def ls_rotation(z1, z2) -> np.ndarray:
    """Least-squares solution X of ``Z1 @ X ~= Z2`` by LAPACK (``np.linalg.lstsq``).

    Both inputs must share the same (rows, k) shape with rows >= k >= 1.
    Raises :class:`ValidationError` for non-finite entries, and
    :class:`RankDeficiencyError` when a singular value of Z1 falls below
    1e-6 of its largest: the subspace dimension was overestimated or the
    snapshot set is degenerate.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if z1.ndim != 2 or z1.shape != z2.shape:
        raise DimensionError(f"ls_rotation needs equal 2-d shapes, got {z1.shape} and {z2.shape}")
    rows, k = z1.shape
    if k < 1 or rows < k:
        raise DimensionError(f"ls_rotation needs rows >= cols >= 1, got {z1.shape}")
    if not (np.isfinite(z1).all() and np.isfinite(z2).all()):
        raise ValidationError("ls_rotation input has non-finite entries")
    try:
        x, _, rank, _ = np.linalg.lstsq(z1, z2, rcond=_RANK_RCOND)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least-squares solve failed: {exc}") from exc
    if rank < k:
        raise RankDeficiencyError(f"Z1 has rank {rank} < {k}: subspace dimension overestimated")
    return x


def general_eigenvalues(a) -> np.ndarray:
    """All eigenvalues (with multiplicity, unordered) of a square matrix (``np.linalg.eigvals``).

    Raises :class:`ValidationError` for non-finite entries.
    """
    a = _as_square(a, "general_eigenvalues")
    if not np.isfinite(a).all():
        raise ValidationError("general_eigenvalues input has non-finite entries")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
