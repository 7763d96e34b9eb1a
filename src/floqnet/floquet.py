"""Monodromy matrices, Floquet multipliers and exponents, determinant
identities, the full-state multiplier shift law, and the Lyapunov-Floquet
factorization.

The variational equation is integrated jointly with the cycle state (an
augmented m + m^2 system), so no interpolation of the reference orbit
enters the multiplier error budget; several couplings kappa share one such
integration (:func:`variational_factors`).  The one-period transition matrix is
accumulated in segments::

    phi(T, 0) = A_p @ ... @ A_1,        A_i = phi(t_i, t_{i-1})

and the multipliers are taken from the block-cyclic lift of the factor
sequence: the eigenvalues of the pm x pm matrix with A_i on its cyclic
block subdiagonal are the p-th roots of the eigenvalues of the product.
Each factor is well conditioned even when the full product is not, so
multipliers far below the eigenvalue noise floor of the assembled product
(strongly contracting cycles push them past 1e-16) are still recovered
with full relative accuracy.  The determinant of phi is accumulated the
same way, as the product of the factor determinants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ClosureDrift, DimensionMismatch, InvalidParam
from .limit_cycle import LimitCycle
from .models import OscillatorModel
from .ode import IntegratorConfig, _final_state, integrate

__all__ = [
    "Monodromy",
    "LFDecomposition",
    "monodromy",
    "variational_factors",
    "shifted_multipliers_fullstate",
    "ajl_determinant",
    "lf_decomposition",
]

# Tolerance for identifying the unity multiplier of an uncoupled cycle.
UNITY_TOL = 1e-3

# Relative drift of the cycle state allowed over one variational period.
_CLOSURE_DRIFT_TOL = 1e-4


def _resolve_mask(mask, dim):
    if mask is None:
        return np.ones(dim)
    m = np.asarray(mask, dtype=float).ravel()
    if m.shape != (dim,):
        raise DimensionMismatch(f"mask must have length {dim}, got {m.shape}")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise DimensionMismatch("mask entries must be 0 or 1")
    return m


def _n_segments(dim, segments=None):
    # Keep the cyclic lift within the 64x64 eigenvalue budget.
    p = min(16, 64 // dim) if segments is None else int(segments)
    return max(1, min(p, 64 // dim))


@dataclass(frozen=True)
class Monodromy:
    """One-period state transition matrix of the variational system
    zeta' = [Df(x_s(t)) - kappa * DH] zeta along a limit cycle.

    ``matrix`` is the assembled product of the segment factors; for
    strongly contracting cycles its smallest eigenvalues fall below the
    double-precision noise floor, so ``multipliers`` and ``det`` are
    computed from the factored form instead and remain accurate.
    """

    matrix: np.ndarray
    multipliers: np.ndarray
    exponents: np.ndarray
    kappa: float
    mask: np.ndarray
    period: float
    det: float


@dataclass(frozen=True)
class LFDecomposition:
    """Lyapunov-Floquet factorization of the uncoupled variational flow:
    constant matrix R with expm(R*T) = phi(T,0) and periodic coordinate
    change P(t) = expm(R*t) @ inv(phi(t,0)), sampled at the cycle phases.

    ``P_samples[0]`` is the identity exactly; ``periodicity_residual`` is
    ||P(T) - P(0)||_F / ||P(0)||_F.
    """

    R: np.ndarray
    times: np.ndarray
    P_samples: np.ndarray
    periodicity_residual: float
    period: float


def _variational_rhs(model, kappas, mask, with_trace=False):
    """Right-hand side of the augmented system on a (B, n) batch: row b is
    ``[x, vec Y_b]`` (plus the Jacobian trace integral ``with_trace``),
    with Y_b' = [Df(x) - kappas[b] * DH] Y_b.  All rows carry the same
    cycle state, so f and its Jacobian are evaluated once per call."""
    m = model.dim
    f, jac = model.field, model.jacobian
    mm = m * m
    # diag(mask) is DH; constant along the cycle (linear coupling).
    shift = np.asarray(kappas, dtype=float)[:, None, None] * np.diag(mask)

    def rhs(z):
        x = z[0, :m]
        a = jac(x)
        out = np.empty_like(z)
        out[:, :m] = f(x)
        ys = z[:, m:m + mm].reshape(-1, m, m)
        out[:, m:m + mm] = ((a - shift) @ ys).reshape(-1, mm)
        if with_trace:
            out[:, -1] = np.trace(a)
        return out

    return rhs


def variational_factors(model: OscillatorModel, lc: LimitCycle, kappas,
                        mask=None, cfg: IntegratorConfig | None = None,
                        segments: int | None = None,
                        t_end: float | None = None, with_trace: bool = False):
    """Integrate the cycle with one variational matrix per kappa on one
    step sequence over [0, t_end] (default one period), in ``segments``
    legs that each restart the matrices at the identity.

    Returns the (B, p, m, m) segment factors, the relative drift of the
    cycle state from the anchor (:class:`ClosureDrift` above 1e-4 over a
    full period) and, ``with_trace``, the integral of tr Df (else None).
    """
    cfg = cfg or IntegratorConfig()
    m = model.dim
    mask_v = _resolve_mask(mask, m)
    kappas = np.asarray(kappas, dtype=float).ravel()
    p = _n_segments(m, segments)
    rhs = _variational_rhs(model, kappas, mask_v, with_trace)
    bounds = np.linspace(0.0, lc.period if t_end is None else t_end, p + 1)
    z0 = np.zeros((kappas.size, m + m * m + int(with_trace)))
    z0[:, m:m + m * m] = np.eye(m).ravel()
    x = lc.anchor.copy()
    factors = np.empty((kappas.size, p, m, m))
    trace_integral = 0.0 if with_trace else None
    for i in range(p):
        z0[:, :m] = x
        z_end = _final_state(rhs, z0, (0.0, bounds[i + 1] - bounds[i]), cfg)
        x = z_end[0, :m]
        factors[:, i] = z_end[:, m:m + m * m].reshape(-1, m, m)
        if with_trace:
            trace_integral += float(z_end[0, -1])
    drift = float(np.linalg.norm(x - lc.anchor) / np.linalg.norm(lc.anchor))
    if t_end is None and drift > _CLOSURE_DRIFT_TOL:
        raise ClosureDrift(
            f"cycle state drifted {drift:.3g} (relative) over one period; "
            "limit cycle and model are inconsistent"
        )
    return factors, drift, trace_integral


def _cyclic_multipliers(factors):
    """Eigenvalues of factors[p-1] @ ... @ factors[0] via the block-cyclic
    lift, clustered back from their p-th roots."""
    p = len(factors)
    m = factors[0].shape[0]
    if p == 1:
        return linalg.eigenvalues(factors[0])
    c = np.zeros((m * p, m * p))
    c[:m, -m:] = factors[-1]
    for i in range(p - 1):
        c[m * (i + 1): m * (i + 2), m * i: m * (i + 1)] = factors[i]
    powered = np.linalg.eigvals(c) ** p
    # Greedy proximity clustering into m groups of p; the p roots of one
    # product eigenvalue power back to near-coincident values.
    used = np.zeros(powered.size, dtype=bool)
    means = np.empty(m, dtype=complex)
    order = np.argsort(-np.abs(powered))
    k = 0
    for idx in order:
        if used[idx]:
            continue
        dist = np.abs(powered - powered[idx])
        dist[used] = np.inf
        dist[idx] = 0.0
        group = np.argsort(dist)[:p]
        used[group] = True
        means[k] = powered[group].mean()
        k += 1
    return linalg.sort_spectrum(means)


def monodromy(model: OscillatorModel, lc: LimitCycle, kappa: float = 0.0,
              mask=None, cfg: IntegratorConfig | None = None) -> Monodromy:
    """Monodromy of the variational system [Df(x_s) - kappa*DH] along the
    cycle, from the identity, over exactly one period.

    ``kappa`` is the effective coupling K*lambda of an eigenmode; it may be
    negative (used by instability studies).  ``mask`` is the diagonal of
    DH as a 0/1 vector; None means full-state coupling (identity).

    Raises :class:`ClosureDrift` if the cycle state fails to return to the
    anchor within 1e-4 relative.
    """
    mask_v = _resolve_mask(mask, model.dim)
    stack, _, _ = variational_factors(model, lc, [kappa], mask_v, cfg)
    factors = stack[0]
    phi = factors[0]
    for a in factors[1:]:
        phi = a @ phi
    dets = [linalg.determinant(a) for a in factors]
    det_phi = float(np.prod(dets).real) if not np.iscomplexobj(phi) \
        else complex(np.prod(dets))
    multipliers = _cyclic_multipliers(factors)
    with np.errstate(divide="ignore"):
        exponents = np.log(multipliers.astype(complex)) / lc.period
    return Monodromy(
        matrix=phi, multipliers=multipliers, exponents=exponents,
        kappa=float(kappa), mask=mask_v, period=lc.period, det=det_phi,
    )


def shifted_multipliers_fullstate(base: Monodromy, kappa: float) -> np.ndarray:
    """Full-state (DH = I) multipliers at effective coupling ``kappa``,
    predicted from an uncoupled monodromy: every multiplier scales by
    exp(-kappa*T).

    This is the closed-form side of the shift law; the direct variational
    integration at ``kappa`` is the independent route it is checked
    against.
    """
    if base.kappa != 0.0:
        raise InvalidParam("shift law requires a base monodromy at kappa=0")
    return base.multipliers * np.exp(-float(kappa) * base.period)


def ajl_determinant(model: OscillatorModel, lc: LimitCycle,
                    kappa: float = 0.0, mask=None, t: float | None = None,
                    cfg: IntegratorConfig | None = None):
    """Both sides of the transition-matrix determinant identity at time
    ``t`` in [0, T]:

        det phi(t, 0)  vs  exp(int_0^t tr Df(x_s(tau)) dtau)
                             * exp(-kappa * tr(DH) * t)

    The left side is the determinant of the integrated variational matrix
    (accumulated as a product of segment determinants); the right side
    integrates the scalar Jacobian trace along the cycle.  Returns
    ``(det_phi, rhs)``; agreement is the caller's assertion.
    """
    mask_v = _resolve_mask(mask, model.dim)
    t_end = lc.period if t is None else float(t)
    if not 0.0 <= t_end <= lc.period * (1 + 1e-12):
        raise InvalidParam(f"t must lie in [0, T], got {t_end}")
    if t_end == 0.0:
        return 1.0, 1.0

    p_full = _n_segments(model.dim)
    p = max(1, int(np.ceil(p_full * t_end / lc.period)))
    factors, _, trace_integral = variational_factors(
        model, lc, [kappa], mask_v, cfg, p, t_end=t_end, with_trace=True)
    det_phi = 1.0
    for a in factors[0]:
        det_phi *= float(np.real(linalg.determinant(a)))
    rhs = float(np.exp(trace_integral)
                * np.exp(-float(kappa) * mask_v.sum() * t_end))
    return det_phi, rhs


def _inv_or_pinv(a):
    # LU flags exact singularity when transition-matrix pivots underflow
    # (extreme volume contraction); fall back to the SVD pseudo-inverse so
    # the factorization degrades to a large residual instead of crashing.
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(a)


def lf_decomposition(model: OscillatorModel, lc: LimitCycle,
                     cfg: IntegratorConfig | None = None) -> LFDecomposition:
    """Lyapunov-Floquet factorization of the uncoupled variational flow.

    R = log(phi(T,0)) / T on the principal branch, and P sampled at the
    cycle phases through P(t) = expm(R*t) @ inv(phi(t,0)).

    Accuracy note: evaluating P requires inverting phi(t,0), so for cycles
    whose transition matrix condition number approaches 1/eps (very
    strongly contracting oscillators) the late-phase samples and the
    periodicity residual saturate at roughly eps * cond(phi) regardless of
    integration tolerance.

    Raises ``SingularInput`` / ``NonDiagonalizable`` from the matrix
    logarithm when the monodromy violates its preconditions.
    """
    m = model.dim
    rhs = _variational_rhs(model, [0.0], np.ones(m))
    z0 = np.concatenate([lc.anchor, np.eye(m).ravel()])[None]
    traj = integrate(rhs, z0, (0.0, lc.period), cfg)
    phi_t_flat = traj.eval(lc.times)[:, 0]
    phi_end = traj.states[-1][0, m:].reshape(m, m)

    r = linalg.log_principal(phi_end) / lc.period

    n = lc.n_samples
    p_samples = np.empty((n, m, m), dtype=complex)
    p_samples[0] = np.eye(m)
    for k in range(1, n):
        phi_k = phi_t_flat[k][m:].reshape(m, m)
        p_samples[k] = linalg.expm(r * lc.times[k]) @ _inv_or_pinv(phi_k)
    p_end = linalg.expm(r * lc.period) @ _inv_or_pinv(phi_end)
    residual = float(
        np.linalg.norm(p_end - np.eye(m)) / np.linalg.norm(np.eye(m))
    )
    return LFDecomposition(
        R=r, times=lc.times.copy(), P_samples=p_samples,
        periodicity_residual=residual, period=lc.period,
    )
