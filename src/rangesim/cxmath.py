"""Dense complex linear algebra for the ranging receiver.

The eigenvalue kernels are thin :mod:`numpy.linalg` calls; the ESPRIT
rotation is a closed form of a few matrix products.  Each public kernel checks
its input in one pass, before LAPACK sees it: bad input raises
:class:`ValidationError` or :class:`DimensionError`, and every LAPACK
failure surfaces as :class:`NumericalError`, never as ``LinAlgError``.
Each public kernel but ``hermitian_evd`` then calls a private core that the receiver calls
directly: ``_fb``, ``_ls_rotation`` (the rank test stays) and ``_eigvals``, which also takes
a stack of matrices.  All are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionError, NumericalError, RankDeficiencyError, ValidationError,
                     require_finite, require_numbers)

_HERMITIAN_REL_TOL = 1e-12
# Largest entry of U^H U - I that ls_rotation accepts as orthonormal columns;
# eigh's eigenvectors of 4x4 matrices miss I by at most about 2e-15.
_ORTHONORMAL_TOL = 1e-10
# Singular values below this fraction of the largest count as zero: the
# same as a 1e-12 relative bound on the eigenvalues of the Gram matrix U[:-1]^H U[:-1].
_RANK_RCOND = 1e-6


def _as_square(a, name: str) -> np.ndarray:
    a = require_numbers("matrix", a).astype(complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} needs a square matrix, got shape {a.shape}")
    return a


def forward_backward(r) -> np.ndarray:
    """Average a square matrix with its exchange-mirrored transpose.

    Returns ``0.5 * (R + J R^T J)`` where J is the exchange matrix (ones on
    the anti-diagonal).  The result is persymmetric by construction and
    Hermitian whenever R is Hermitian; applying it twice changes nothing.
    Raises :class:`ValidationError` for bools or text and :class:`DimensionError` unless square.
    """
    return _fb(_as_square(r, "forward_backward"))


def _fb(r: np.ndarray) -> np.ndarray:
    return 0.5 * (r + r[::-1, ::-1].T)


def hermitian_evd(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    Returns ``(eigenvalues, eigenvectors)`` as contiguous copies: real
    eigenvalues in non-increasing order, and orthonormal eigenvectors whose
    column ``j`` pairs with ``eigenvalues[j]``.  The order within a tie is
    unspecified; nothing downstream depends on it.  Raises
    :class:`ValidationError` for bools, text, non-finite entries (the one pass taking the largest
    entry is the finite check) or input that is not Hermitian to a relative tolerance of
    1e-12 (largest entry of ``a - a^H`` against ``a``'s).
    """
    a = _as_square(a, "hermitian_evd")
    # max-abs norms: a squared-sum norm overflows once entries pass about 1e154
    scale = require_finite("matrix's largest entry", float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.conj().T).max(initial=0.0) > _HERMITIAN_REL_TOL * scale:
        raise ValidationError("matrix is not Hermitian to working tolerance")
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigendecomposition failed: {exc}") from exc
    return eigenvalues[::-1].copy(), np.ascontiguousarray(vectors[:, ::-1])


def ls_rotation(basis) -> np.ndarray:
    """Least-squares rotation X of ``U[:-1] @ X ~= U[1:]`` for an (n, k) basis U, 1 <= k < n.

    U must have orthonormal columns, as eigenvectors do.  With ``w`` the
    conjugated last row of U, ``U[:-1]^H U[:-1] = I - w w^H``, so
    ``X = C + w (w^H C) / (1 - |w|^2)`` with ``C = U[:-1]^H U[1:]``.  Raises
    :class:`ValidationError` for bools, text and an entry of ``U^H U - I`` over
    1e-10, non-finite input included, and :class:`RankDeficiencyError` when
    ``1 - |w|^2 <= 1e-12``: the subspace dimension was overestimated.  For
    k >= 2 that is a 1e-6 bound on the ratio of U[:-1]'s singular values,
    which are 1 and ``sqrt(1 - |w|^2)``; for k = 1 it is stricter.
    """
    u = require_numbers("basis", basis).astype(complex, copy=False)
    if u.ndim != 2 or not 1 <= u.shape[1] < u.shape[0]:
        raise DimensionError(f"ls_rotation needs an (n, k) basis with 1 <= k < n, got {u.shape}")
    _check_orthonormal(u)
    return _ls_rotation(u)


def _check_orthonormal(u: np.ndarray) -> None:
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite input: caught just below
        gram = u.conj().T @ u
    gram.flat[:: u.shape[1] + 1] -= 1.0
    deviation = float(np.abs(gram).max())
    if not deviation <= _ORTHONORMAL_TOL:  # NaN and inf carry into the largest entry
        raise ValidationError(
            f"ls_rotation basis is non-finite or not orthonormal: U^H U - I reaches {deviation:.3g}")


def _ls_rotation(u: np.ndarray) -> np.ndarray:
    """:func:`ls_rotation` of a complex basis taken as orthonormal; the rank test stays."""
    u_h = u.conj().T
    w = u_h[:, -1]
    rest = 1.0 - float(np.vdot(w, w).real)  # the smallest eigenvalue of U[:-1]^H U[:-1]
    if rest <= _RANK_RCOND * _RANK_RCOND:
        raise RankDeficiencyError(
            f"U[:-1] is rank deficient (1 - |w|^2 = {rest:.3g}): subspace dimension overestimated")
    c = u_h[:, :-1] @ u[1:]
    return c + w[:, None] * ((u[-1] @ c) / rest)


def general_eigenvalues(a) -> np.ndarray:
    """All eigenvalues (with multiplicity, unordered) of a square matrix (``np.linalg.eigvals``).

    Raises :class:`ValidationError` for bools, text or non-finite entries.
    """
    return _eigvals(require_finite("matrix", _as_square(a, "general_eigenvalues")))


def _eigvals(a: np.ndarray) -> np.ndarray:
    """:func:`general_eigenvalues` of a finite complex matrix, or of each matrix in a stack of
    shape (..., n, n) in one call (the receiver stacks its two stages' rotations)."""
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue computation failed: {exc}") from exc
