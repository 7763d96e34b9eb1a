"""Small dense matrix operations: eigenvalues, determinant, principal
matrix logarithm, matrix exponential.

Everything here targets the tiny matrices this package works with
(oscillator dimension <= 10, network size <= 20).  Eigenvalues and
determinants are delegated to LAPACK through numpy (Hessenberg reduction
plus shifted QR, LU with partial pivoting); the matrix logarithm and
exponential are implemented here so their error contracts and branch
conventions are explicit.

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
    "determinant",
    "log_principal",
    "expm",
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


def determinant(m):
    """Determinant via LU elimination with partial pivoting.

    Returns a complex scalar for complex input, a float otherwise.
    """
    a = _as_square(m)
    return np.linalg.det(a)


def log_principal(m, cond_limit=DIAGONALIZABILITY_COND_LIMIT):
    """Principal matrix logarithm through an eigendecomposition.

    Returns L with exp(L) = m and eigenvalues of L on the principal branch
    (imaginary parts in (-pi, pi]; a negative real eigenvalue maps to
    log|lam| + i*pi).

    Raises
    ------
    SingularInput
        If any eigenvalue is zero.
    NonDiagonalizable
        If the eigenvector matrix condition number exceeds ``cond_limit``.
    """
    a = _as_square(m)
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigendecomposition failed: {exc}") from exc
    if np.any(np.abs(w) == 0.0):
        raise SingularInput("matrix has a zero eigenvalue; log undefined")
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > cond_limit:
        raise NonDiagonalizable(
            f"eigenvector matrix condition number {cond:.3g} exceeds "
            f"{cond_limit:.3g}"
        )
    log_w = np.log(w.astype(complex))
    return (v * log_w) @ np.linalg.inv(v)


def expm(m):
    """Matrix exponential by scaling and squaring with a truncated Taylor
    series.

    Accurate to ~1e-13 relative for the small, moderate-norm matrices this
    package produces; exact for the zero matrix.
    """
    a = _as_square(m)
    dtype = complex if np.iscomplexobj(a) else float
    a = a.astype(dtype)
    n = a.shape[0]
    norm = np.linalg.norm(a, 1)
    if norm == 0.0:
        return np.eye(n, dtype=dtype)
    # Scale so the series argument has 1-norm <= 0.5, then square back.
    s = max(0, int(np.ceil(np.log2(norm / 0.5))))
    x = a / (2.0**s)
    result = np.eye(n, dtype=dtype)
    term = np.eye(n, dtype=dtype)
    for k in range(1, 40):
        term = term @ x / k
        result = result + term
        if np.linalg.norm(term, 1) < 1e-18 * np.linalg.norm(result, 1):
            break
    for _ in range(s):
        result = result @ result
    return result
