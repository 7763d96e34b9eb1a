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
from .exceptions import ClosureDrift, DimensionMismatch, InvalidParam, \
    NonConvergence
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


def _check_closure(lc, x):
    """Raise ClosureDrift if ``x`` is over 1e-4 (relative) from the anchor."""
    drift = float(np.linalg.norm(x - lc.anchor) / np.linalg.norm(lc.anchor))
    if drift > _CLOSURE_DRIFT_TOL:
        raise ClosureDrift(
            f"cycle state drifted {drift:.3g} (relative) over one period; "
            "limit cycle and model are inconsistent"
        )


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
                        with_trace: bool = False):
    """Integrate the cycle with one variational matrix per kappa on one
    step sequence over one period, in p legs that each restart the
    matrices at the identity.

    Returns the (B, p, m, m) segment factors and, ``with_trace``, the
    integral of tr Df (else None).  Raises :class:`InvalidParam` for a
    non-finite kappa and :class:`ClosureDrift` (:func:`_check_closure`).
    """
    cfg = cfg or IntegratorConfig()
    m = model.dim
    mask_v = _resolve_mask(mask, m)
    kappas = np.asarray(kappas, dtype=float).ravel()
    if not np.all(np.isfinite(kappas)):
        raise InvalidParam(f"kappa must be finite, got {kappas}")
    # Keep the cyclic lift within the 64x64 eigenvalue budget.
    p = max(1, min(16, 64 // m))
    rhs = _variational_rhs(model, kappas, mask_v, with_trace)
    bounds = np.linspace(0.0, lc.period, p + 1)
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
    _check_closure(lc, x)
    return factors, trace_integral


def _cyclic_multipliers(factors):
    """Eigenvalues of factors[p-1] @ ... @ factors[0] via the block-cyclic
    lift, clustered back from their p-th roots."""
    p = len(factors)
    m = factors[0].shape[0]
    c = np.zeros((m * p, m * p))
    c[:m, -m:] = factors[-1]
    for i in range(p - 1):
        c[m * (i + 1): m * (i + 2), m * i: m * (i + 1)] = factors[i]
    try:
        powered = np.linalg.eigvals(c) ** p
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc
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
    stack, _ = variational_factors(model, lc, [kappa], mask_v, cfg)
    factors = stack[0]
    phi = factors[0]
    for a in factors[1:]:
        phi = a @ phi
    det_phi = float(np.prod(np.linalg.det(factors)))
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
                    kappa: float = 0.0, mask=None,
                    cfg: IntegratorConfig | None = None):
    """Both sides of the transition-matrix determinant identity over one
    period:

        det phi(T, 0)  vs  exp(int_0^T tr Df(x_s(tau)) dtau)
                             * exp(-kappa * tr(DH) * T)

    The left side is the determinant of the integrated variational matrix
    (accumulated as a product of segment determinants); the right side
    integrates the scalar Jacobian trace along the cycle.  Returns
    ``(det_phi, rhs)``; agreement is the caller's assertion.

    Raises :class:`ClosureDrift` as :func:`monodromy` does.
    """
    mask_v = _resolve_mask(mask, model.dim)
    factors, trace_integral = variational_factors(
        model, lc, [kappa], mask_v, cfg, with_trace=True)
    det_phi = float(np.prod(np.linalg.det(factors[0])))
    rhs = float(np.exp(trace_integral)
                * np.exp(-float(kappa) * mask_v.sum() * lc.period))
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
    cycle phases through P(t) = expm(R*t) @ inv(phi(t,0)).  Both come from
    one eigenbasis phi(T,0) = V diag(w) V^-1, since expm(R*t) =
    V diag(w^(t/T)) V^-1: all phases are one broadcast product and one
    stacked inverse of the phi(t,0).

    Accuracy note: evaluating P requires inverting phi(t,0), so for cycles
    whose transition matrix condition number approaches 1/eps (very
    strongly contracting oscillators) the late-phase samples and the
    periodicity residual saturate at roughly eps * cond(phi) regardless of
    integration tolerance.

    Raises :class:`ClosureDrift` as :func:`monodromy` does, and
    ``SingularInput`` / ``NonDiagonalizable`` from the matrix logarithm.
    """
    m = model.dim
    rhs = _variational_rhs(model, [0.0], np.ones(m))
    z0 = np.concatenate([lc.anchor, np.eye(m).ravel()])[None]
    traj = integrate(rhs, z0, (0.0, lc.period), cfg)
    _check_closure(lc, traj.states[-1, 0, :m])
    # phi(t, 0) at the sampled phases, then at t = T for the residual.
    rows = np.concatenate([traj.eval(lc.times), traj.states[-1:]])
    phis = rows[:, 0, m:].reshape(-1, m, m)
    phases = np.append(lc.times, lc.period) / lc.period

    log_w, v, v_inv = linalg._principal_log_eig(phis[-1])
    r = (v * log_w) @ v_inv / lc.period
    try:
        phi_inv = np.linalg.inv(phis)
    except np.linalg.LinAlgError:
        phi_inv = np.array([_inv_or_pinv(a) for a in phis])
    p_all = (v * np.exp(phases[:, None] * log_w)[:, None, :]) @ v_inv @ phi_inv
    p_samples = p_all[:-1]
    p_samples[0] = np.eye(m)
    residual = float(
        np.linalg.norm(p_all[-1] - np.eye(m)) / np.linalg.norm(np.eye(m))
    )
    return LFDecomposition(
        R=r, times=lc.times.copy(), P_samples=p_samples,
        periodicity_residual=residual, period=lc.period,
    )
