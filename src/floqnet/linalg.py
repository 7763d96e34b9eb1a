"""Small dense matrix operations for the tiny matrices of this package
(oscillator dimension <= 10): the spectrum order and the principal
eigen-logarithm behind the Lyapunov-Floquet factor.

Multipliers (from :func:`floqnet.floquet._cyclic_multipliers`) come out in
the order of :func:`sort_spectrum`: descending modulus, ties broken by
descending real part, then descending imaginary part.  Downstream outputs
(multiplier tables, CSV files) inherit this determinism.
"""
from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, InvalidParam, NonConvergence, \
    NonDiagonalizable, SingularInput

__all__ = ["sort_spectrum"]

# Condition-number threshold on the eigenvector matrix above which a
# spectral factorization is refused instead of silently returning garbage.
DIAGONALIZABILITY_COND_LIMIT = 1e8


def _as_square(m):
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParam("matrix has non-finite entries")
    return a


def sort_spectrum(values):
    """Sort eigenvalues by descending modulus, then descending real part,
    then descending imaginary part."""
    w = np.asarray(values, dtype=complex).ravel()
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    return w[order]


def _principal_log_eig(m):
    """``(log w, V, V^-1)`` with m = V diag(w) V^-1 and log w on the
    principal branch (imaginary parts in (-pi, pi]; a negative real
    eigenvalue maps to log|lam| + i*pi), so L = (V * log w) @ V^-1 has
    exp(L) = m.  Raises SingularInput for a zero eigenvalue and
    NonDiagonalizable when the eigenvector matrix condition number exceeds
    ``DIAGONALIZABILITY_COND_LIMIT``.
    """
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
