"""Small dense matrix operations: eigenvalues and the principal matrix
logarithm.

Everything here targets the tiny matrices this package works with
(oscillator dimension <= 10, network size <= 20).  Eigenvalues are
delegated to LAPACK through numpy (Hessenberg reduction plus shifted QR);
the matrix logarithm is implemented here so its error contract and branch
convention are explicit.

Spectra are always returned in a fixed deterministic order: descending
modulus, ties broken by descending real part, then descending imaginary
part.  Downstream outputs (multiplier tables, CSV files) inherit this
determinism.
"""
from __future__ import annotations

import numpy as np

from .exceptions import NonConvergence, NonDiagonalizable, SingularInput

__all__ = [
    "eigenvalues",
    "sort_spectrum",
    "log_principal",
]

_MAX_EIG_DIM = 64

# Condition-number threshold on the eigenvector matrix above which a
# spectral factorization is refused instead of silently returning garbage.
DIAGONALIZABILITY_COND_LIMIT = 1e8


def _as_square(m):
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def sort_spectrum(values):
    """Sort eigenvalues by descending modulus, then descending real part,
    then descending imaginary part."""
    w = np.asarray(values, dtype=complex).ravel()
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    return w[order]


def eigenvalues(m):
    """All eigenvalues of a square matrix, with multiplicity, in the fixed
    deterministic order of :func:`sort_spectrum`.

    Complex eigenvalues of real matrices come out in conjugate pairs.

    Raises
    ------
    NonConvergence
        If the underlying QR iteration fails.
    """
    a = _as_square(m)
    if a.shape[0] > _MAX_EIG_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds limit {_MAX_EIG_DIM}")
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return sort_spectrum(w)


def _principal_log_eig(m):
    """``(log w, V, V^-1)`` with m = V diag(w) V^-1 and log w on the
    principal branch; raises as :func:`log_principal` does."""
    a = _as_square(m)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigendecomposition failed: {exc}") from exc
    if np.any(np.abs(w) == 0.0):
        raise SingularInput("matrix has a zero eigenvalue; log undefined")
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > DIAGONALIZABILITY_COND_LIMIT:
        raise NonDiagonalizable(
            f"eigenvector matrix condition number {cond:.3g} exceeds "
            f"{DIAGONALIZABILITY_COND_LIMIT:.3g}"
        )
    return np.log(w.astype(complex)), v, np.linalg.inv(v)


def log_principal(m):
    """Principal matrix logarithm through an eigendecomposition.

    Returns L with exp(L) = m and eigenvalues of L on the principal branch
    (imaginary parts in (-pi, pi]; a negative real eigenvalue maps to
    log|lam| + i*pi).

    Raises
    ------
    SingularInput
        If any eigenvalue is zero.
    NonDiagonalizable
        If the eigenvector matrix condition number exceeds
        ``DIAGONALIZABILITY_COND_LIMIT``.
    """
    log_w, v, v_inv = _principal_log_eig(m)
    return (v * log_w) @ v_inv
