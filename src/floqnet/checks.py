"""Check catalogue: the consistency checks behind ``floqnet verify`` and the
acceptance suite.

Each function measures one property of the spectral route, the direct
simulation route, or their agreement, and returns the number (or the
named tuple of numbers) that a bound applies to.  Bounds, timing and
reporting belong to the callers.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .exceptions import Blowup, StepBudgetExceeded, StepFailure
from .floquet import UNITY_TOL, _cyclic_multipliers, _determinant_sides, \
    lf_decomposition, monodromy, shifted_multipliers_fullstate, \
    variational_factors
from .msf import sync_predicate
from .network import CouplingSpec, complete_graph, simulate_network
from .ode import IntegratorConfig

__all__ = ["UnitySpectrum", "Agreement", "Divergence", "partial_mask",
           "eig_det_product_error", "complete_graph_spectrum_error",
           "unity_multipliers", "shift_law_error",
           "determinant_identity_error", "lf_residual",
           "predicate_and_simulation", "negative_coupling"]


# Measurements of more than one number; the functions that return them
# describe the fields.
UnitySpectrum = namedtuple("UnitySpectrum", "count max_other")
Agreement = namedtuple("Agreement", "synchronizes final_error")
Divergence = namedtuple("Divergence", "mu_min growth floor")


def partial_mask(dim):
    """Couple every second state: x2 of Van der Pol, the proteins of the
    repressilator."""
    return np.tile([0.0, 1.0], dim // 2)


def eig_det_product_error(seed: int) -> float:
    """Worst relative gap between the eigenvalue product and the
    determinant over 100 random Gaussian matrices of size 2..8, each
    spectrum taken by the one-factor lift that gives every multiplier."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a = rng.standard_normal((dim, dim))
        det = np.linalg.det(a)
        prod = np.prod(_cyclic_multipliers([a]))
        rel = abs(prod - det) / max(abs(det), 1e-300)
        worst = max(worst, rel)
    return worst


def complete_graph_spectrum_error(n: int) -> float:
    """Largest gap between the complete-graph Laplacian spectrum and its
    closed form {0, n (n-1 times)}."""
    expected = np.array([0.0] + [float(n)] * (n - 1))
    return float(np.abs(complete_graph(n).eigenvalues - expected).max())


def unity_multipliers(model, lc) -> UnitySpectrum:
    """How many uncoupled multipliers lie within ``UNITY_TOL`` of 1 (one
    should: the motion along the cycle), and the largest modulus among the
    others."""
    multipliers = monodromy(model, lc).multipliers
    near = np.abs(multipliers - 1.0) < UNITY_TOL
    others = np.abs(multipliers)[~near]
    return UnitySpectrum(int(near.sum()),
                         float(others.max()) if others.size else 0.0)


def shift_law_error(model, lc, kappas) -> float:
    """Worst relative gap between the full-state multipliers integrated at
    every kappa in one pass and the uncoupled ones scaled by exp(-kappa*T)."""
    base = monodromy(model, lc)
    worst = 0.0
    for kappa, factors in zip(kappas, variational_factors(model, lc, kappas)):
        direct = _cyclic_multipliers(factors)
        predicted = shifted_multipliers_fullstate(base, kappa)
        rel = np.abs(direct - predicted) / np.abs(predicted)
        worst = max(worst, float(rel.max()))
    return worst


def determinant_identity_error(model, lc, kappas) -> float:
    """Worst relative gap between the two sides of the determinant
    identity over each kappa, for the full and the partial mask, one
    variational pass per mask."""
    worst = 0.0
    for mask in (np.ones(model.dim), partial_mask(model.dim)):
        for lhs, rhs in zip(*_determinant_sides(model, lc, kappas, mask)):
            worst = max(worst, abs(lhs - rhs) / rhs)
    return float(worst)


def lf_residual(model, lc) -> float:
    """Relative P(T) vs P(0) residual of the Lyapunov-Floquet factor."""
    return lf_decomposition(model, lc).periodicity_residual


def predicate_and_simulation(model, lc, graph, K, mask, x0,
                             t_end) -> Agreement:
    """One network judged both ways: whether the spectral verdict
    synchronizes, and the final error of a direct simulation with the
    coupling switched on at t = 20."""
    verdict = sync_predicate(model, lc, graph, K, mask=mask)
    run = simulate_network(
        model, graph, CouplingSpec(K=K, mask=mask, activation_time=20.0),
        x0, t_end)
    return Agreement(verdict.synchronizes, run.sync.final)


def negative_coupling(model, lc, x0) -> Divergence:
    """A complete graph of three at K = -0.5, judged by the predicate
    (``mu_min``, the smallest transverse mu_max) and by a full-state run to
    t = 5 switched on at t = 1: ``growth`` of the error from start to end
    (initial error floored at 1e-12) and its ``floor`` from t = 2 on.

    The network grows stiffer as it diverges, so the run is capped at
    150 000 steps, and a terminal integrator failure counts as
    divergence (infinite growth and floor).
    """
    graph = complete_graph(3)
    mu_min = float(sync_predicate(model, lc, graph, -0.5).mu_max[1:].min())
    coupling = CouplingSpec(K=-0.5, mask=np.ones(model.dim),
                            activation_time=1.0)
    try:
        run = simulate_network(model, graph, coupling, x0, 5.0,
                               cfg=IntegratorConfig(max_steps=150_000))
    except (Blowup, StepFailure, StepBudgetExceeded):
        return Divergence(mu_min, np.inf, np.inf)
    growth = run.sync.error[-1] / max(run.sync.error[0], 1e-12)
    return Divergence(mu_min, float(growth), run.sync.min_after(2.0))
