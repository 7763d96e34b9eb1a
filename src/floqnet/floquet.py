"""Monodromy matrices, Floquet multipliers and exponents, determinant
identities, the full-state multiplier shift law, and the Lyapunov-Floquet
factorization.

The variational equation is integrated jointly with the cycle state (an
augmented m + m^2 system), so no interpolation of the reference orbit
enters the multiplier error budget.  It is integrated by multiple
shooting (:func:`_shoot`, on the core
:func:`~floqnet.limit_cycle._shoot_segments` that the cycle search also
calls): segment s starts on the stored cycle sample s*n/p, at time s*T/p,
and all p segments, for every coupling kappa, run as one batch on one
step sequence.  Transition matrices are running products of the segment
factors::

    phi(t_k, 0) = A_{k-1} @ ... @ A_0,        A_s = phi(t_{s+1}, t_s)

with p = 16 for every model's monodromy and one segment per cycle sample
for the Lyapunov-Floquet factor.  The summed segment gaps are gated
(:func:`_check_closure`).

The multipliers are taken from the block-cyclic lift of the factor
sequence: the eigenvalues of the pm x pm matrix with A_s on its cyclic
block subdiagonal are the p-th roots of the eigenvalues of the product;
where pm > 64, adjacent factors are multiplied in pairs first.  Each
factor is well conditioned even when the full product is not, so
multipliers far below the eigenvalue noise floor of the assembled product
(strongly contracting cycles push them past 1e-16) are still recovered
with full relative accuracy.  The determinant of phi is accumulated the
same way, as the product of the factor determinants; the other side of
the determinant identity integrates tr Df over the stored samples by the
periodic trapezoid rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .exceptions import ClosureDrift, DimensionMismatch, InvalidParam, \
    NonConvergence
from .limit_cycle import _SEGMENTS, LimitCycle, _shoot_segments
from .models import OscillatorModel
from .ode import IntegratorConfig

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

# Summed relative drift of the segment ends allowed over one period.
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


def _check_closure(lc, ends, starts):
    """Raise ClosureDrift, naming the segment at which the running sum of
    the gaps, each segment end's distance (relative to the anchor) from the
    next segment's start sample, the last one's from the anchor, first
    exceeds 1e-4.  Unlike a per-segment gate it holds as p grows."""
    targets = lc.samples[np.roll(starts, -1)]
    gaps = np.linalg.norm(ends - targets, axis=1) / np.linalg.norm(lc.anchor)
    drift = np.cumsum(gaps)
    bad = np.flatnonzero(~(drift <= _CLOSURE_DRIFT_TOL))  # NaN included
    if bad.size:
        s = bad[0]
        raise ClosureDrift(
            f"segment {s + 1} of {len(starts)} took the summed gaps to "
            f"{drift[s]:.3g} (relative); limit cycle and model disagree")


def _running_products(factors):
    """phi(t_k, 0) = factors[k-1] @ ... @ factors[0] for k = 0..p, from
    the (p, m, m) segment factors."""
    phis = [np.eye(factors.shape[1])]
    for a in factors:
        phis.append(a @ phis[-1])
    return np.array(phis)


@dataclass(frozen=True)
class Monodromy:
    """One-period state transition matrix of the variational system
    zeta' = [Df(x_s(t)) - kappa * DH] zeta along a limit cycle.

    ``matrix`` is the running product of the multiple-shooting factors;
    for strongly contracting cycles its smallest eigenvalues fall below
    the double-precision noise floor, so ``multipliers`` and ``det`` are
    computed from the factors instead and remain accurate.
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


def _shoot(model, lc, kappas, mask, cfg, p):
    """The (B, p, m, m) segment factors of the one-period variational flow
    for every kappa, by multiple shooting over p segments.

    Segment s starts on cycle sample s*n/p, at time s*T/p, with its
    matrices at the identity and runs for T/p.  Raises
    :class:`DimensionMismatch` when p does not divide the sample count n,
    :class:`InvalidParam` for a non-finite kappa and :class:`ClosureDrift`
    from :func:`_check_closure`.
    """
    m, n = model.dim, len(lc.samples)
    mask = _resolve_mask(mask, m)
    kappas = np.asarray(kappas, dtype=float).ravel()
    if not np.all(np.isfinite(kappas)):
        raise InvalidParam(f"kappa must be finite, got {kappas}")
    if n % p:
        raise DimensionMismatch(f"{n} samples do not split into {p} segments")
    starts = np.arange(p) * (n // p)
    z_end = _shoot_segments(model, lc.samples[starts], lc.period / p,
                            kappas, mask, cfg or IntegratorConfig())
    _check_closure(lc, z_end[0, :, :m], starts)
    return z_end[:, :, m:].reshape(-1, p, m, m)


def variational_factors(model: OscillatorModel, lc: LimitCycle, kappas,
                        mask=None, cfg: IntegratorConfig | None = None):
    """The (B, 16, m, m) segment factors of :func:`_shoot`: every model
    shoots the same 16 segments."""
    return _shoot(model, lc, kappas, mask, cfg, _SEGMENTS)


def _cyclic_multipliers(factors):
    """Eigenvalues of factors[-1] @ ... @ factors[0] via the block-cyclic
    lift, clustered back from their p-th roots.  Adjacent factors are
    multiplied pairwise while the lift exceeds 64 x 64: 16 factors of a
    six-state model give a 48 x 48 lift of 8 products."""
    factors = np.asarray(factors)
    m = factors.shape[1]
    while len(factors) * m > 64:
        factors = factors[1::2] @ factors[0::2]
    p = len(factors)
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
    means = []
    for idx in np.argsort(-np.abs(powered)):
        if used[idx]:
            continue
        dist = np.abs(powered - powered[idx])
        dist[used] = np.inf
        dist[idx] = 0.0
        group = np.argsort(dist)[:p]
        used[group] = True
        means.append(powered[group].mean())
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
    factors = variational_factors(model, lc, [kappa], mask_v, cfg)[0]
    det_phi = float(np.prod(np.linalg.det(factors)))
    multipliers = _cyclic_multipliers(factors)
    with np.errstate(divide="ignore"):
        exponents = np.log(multipliers.astype(complex)) / lc.period
    return Monodromy(
        matrix=_running_products(factors)[-1], multipliers=multipliers, exponents=exponents,
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
                    kappa: float = 0.0, mask=None):
    """Both sides of the transition-matrix determinant identity over one
    period:

        det phi(T, 0)  vs  exp(int_0^T tr Df(x_s(tau)) dtau)
                             * exp(-kappa * tr(DH) * T)

    The left side is the determinant of the integrated variational matrix
    (accumulated as a product of segment determinants); the right side
    sums the Jacobian trace over the cycle samples (periodic trapezoid
    rule, one batch Jacobian call).  Returns ``(det_phi, rhs)``;
    agreement is the caller's assertion.

    Raises :class:`ClosureDrift` as :func:`monodromy` does.
    """
    det_phi, rhs = _determinant_sides(
        model, lc, [kappa], _resolve_mask(mask, model.dim))
    return float(det_phi[0]), rhs[0]


def _determinant_sides(model, lc, kappas, mask):
    """Both sides of :func:`ajl_determinant` at every kappa, the left ones
    from one variational pass; ``mask`` is resolved."""
    factors = variational_factors(model, lc, kappas, mask)
    det_phi = np.prod(np.linalg.det(factors), axis=1)
    return det_phi, _trace_sides(model, lc, kappas, mask)


def _trace_sides(model, lc, kappas, mask):
    """The right side of :func:`ajl_determinant` at every kappa, from one
    trace integral; ``mask`` is resolved."""
    traces = np.trace(model.node_jacobian(lc.samples), axis1=1, axis2=2)
    uncoupled = np.exp(traces.mean() * lc.period)
    return [float(uncoupled * np.exp(-float(kappa) * mask.sum() * lc.period))
            for kappa in kappas]


def lf_decomposition(model: OscillatorModel, lc: LimitCycle,
                     cfg: IntegratorConfig | None = None) -> LFDecomposition:
    """Lyapunov-Floquet factorization of the uncoupled variational flow.

    R = log(phi(T,0)) / T on the principal branch, and P sampled at the
    cycle phases through P(t) = expm(R*t) @ inv(phi(t,0)), with phi(t_k,0)
    from :func:`_shoot` at one segment per sample.  Both come from one
    eigenbasis phi(T,0) = V diag(w) V^-1, since expm(R*t) =
    V diag(w^(t/T)) V^-1: all phases are one broadcast product and one
    stacked inverse of the phi(t,0).  A phi(t,0) whose LU factorization
    hits an exactly zero pivot (its transition-matrix pivots underflow, as
    on the repressilator at every tested alpha, 600 to 2000) is marked by
    a zero determinant sign and pseudo-inverted instead, so the
    factorization degrades to a large residual instead of crashing.

    Accuracy note: evaluating P requires inverting phi(t,0), so for cycles
    whose transition matrix condition number approaches 1/eps (very
    strongly contracting oscillators) the late-phase samples and the
    periodicity residual saturate at roughly eps * cond(phi) regardless of
    integration tolerance.

    Raises :class:`ClosureDrift` as :func:`monodromy` does, and
    ``SingularInput`` / ``NonDiagonalizable`` from the matrix logarithm.
    """
    m = model.dim
    # phi(t, 0) at the sampled phases, then at t = T for the residual.
    phis = _running_products(
        _shoot(model, lc, [0.0], None, cfg, len(lc.samples))[0])
    phases = np.append(lc.times, lc.period) / lc.period

    log_w, v, v_inv = linalg._principal_log_eig(phis[-1])
    r = (v * log_w) @ v_inv / lc.period
    singular = np.linalg.slogdet(phis)[0] == 0
    phi_inv = np.empty_like(phis)
    phi_inv[~singular] = np.linalg.inv(phis[~singular])
    if singular.any():
        phi_inv[singular] = np.linalg.pinv(phis[singular])
    p_all = (v * np.exp(phases[:, None] * log_w)[:, None, :]) @ v_inv @ phi_inv
    p_samples = p_all[:-1]
    p_samples[0] = np.eye(m)
    residual = float(np.linalg.norm(p_all[-1] - np.eye(m)) / np.sqrt(m))
    return LFDecomposition(
        R=r, times=lc.times.copy(), P_samples=p_samples,
        periodicity_residual=residual, period=lc.period,
    )
