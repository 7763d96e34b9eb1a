"""Correctness gates: each checks one identity floqnet's output must obey
and raises :class:`GateFailure` (named after the gate) when it does not.

Every gate returns the error it measured, so the run record shows how far
inside its limit each task landed.
"""
from __future__ import annotations

import math

import numpy as np

SHIFT_LAW_RTOL = 1e-6
LIOUVILLE_RTOL = 1e-4
UNITY_TOL = 1e-3
DETERMINANT_RTOL = 1e-6
LF_RESIDUAL_MAX = 1e-4
# Above this eps/|mu_min| the LF residual is the double-precision floor
# (see "Precision limits" in the README): recorded, not gated.
LF_GATED_BELOW = 1e-6


class GateFailure(Exception):
    """A task's output broke the identity named ``gate``."""

    def __init__(self, gate, detail):
        super().__init__(f"{gate}: {detail}")
        self.gate = gate


def _within(gate, error, limit):
    if not error <= limit:  # NaN fails too
        raise GateFailure(gate, f"error {error:.3g} exceeds {limit:.3g}")
    return error


def shift_law(curve):
    """Full-state mask: mu_max(kappa) = exp(-kappa*T) at every kappa > 0.
    Returns the largest relative error."""
    errors = [abs(p.mu_max / math.exp(-p.kappa * curve.period) - 1.0)
              for p in curve.points if p.kappa > 0]
    return _within("shift_law", max(errors), SHIFT_LAW_RTOL)


def _log_abs_product(multipliers):
    return float(np.sum(np.log(np.abs(multipliers))))


def liouville(curve):
    """prod mu(kappa) = prod mu(0) * exp(-kappa*tr(DH)*T) at every point,
    compared in logs so products near 1e-170 do not underflow.  Needs
    kappa = 0 as the first grid point.  Returns the largest relative
    error."""
    base = curve.points[0]
    if base.kappa != 0.0:
        raise GateFailure("liouville", "grid does not start at kappa = 0")
    log_base = _log_abs_product(base.multipliers)
    trace_dh = float(np.sum(curve.mask))
    errors = [
        abs(math.expm1(_log_abs_product(p.multipliers) - log_base
                       + p.kappa * trace_dh * curve.period))
        for p in curve.points
    ]
    return _within("liouville", max(errors), LIOUVILLE_RTOL)


def verdict_agrees(synchronizes, converged):
    """The spectral verdict and the simulated network agree."""
    if bool(synchronizes) != bool(converged):
        raise GateFailure(
            "verdict_agrees",
            f"predicate says synchronizes={bool(synchronizes)}, "
            f"simulation says converged={bool(converged)}")
    return 0.0


def unity_multiplier(mon):
    """Uncoupled cycle: exactly one multiplier within 1e-3 of 1 and every
    other one strictly inside the unit circle.  Returns the distance of
    the unity multiplier from 1."""
    dist = np.abs(mon.multipliers - 1.0)
    near = dist < UNITY_TOL
    if near.sum() != 1:
        raise GateFailure("unity_multiplier",
                          f"{int(near.sum())} multipliers within "
                          f"{UNITY_TOL:g} of 1")
    others = np.abs(mon.multipliers[~near])
    if others.size and not others.max() < 1.0:
        raise GateFailure("unity_multiplier",
                          f"non-unity multiplier with |mu| = {others.max():.6g}")
    return float(dist[near][0])


def determinant_identity(det_phi, rhs):
    """det phi(T, 0) matches the Jacobian-trace integral side.  Returns
    the relative error."""
    return _within("determinant_identity", abs(det_phi / rhs - 1.0),
                   DETERMINANT_RTOL)


def lf_residual(lf, mon):
    """LF periodicity residual below 1e-4 wherever eps/|mu_min| < 1e-6.
    Returns ``(residual, gated)``."""
    level = np.finfo(float).eps / float(np.min(np.abs(mon.multipliers)))
    gated = bool(level < LF_GATED_BELOW)
    if gated:
        _within("lf_residual", lf.periodicity_residual, LF_RESIDUAL_MAX)
    return lf.periodicity_residual, gated
