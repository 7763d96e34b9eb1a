"""Floquet analysis and synchronization tests for networks of diffusively
coupled identical limit-cycle oscillators.

The package computes limit cycles and periods, monodromy matrices and
Floquet multipliers, Lyapunov-Floquet factorizations, master stability
functions over the effective coupling kappa = K*lambda, and simulates
coupled networks to compare the spectral synchronization verdict against
direct simulation.
"""
from . import (exceptions, floquet, limit_cycle, linalg, models, msf,
               network, ode)
from .exceptions import FloqnetError
from .floquet import ajl_determinant, lf_decomposition, monodromy, \
    shifted_multipliers_fullstate
from .limit_cycle import LimitCycle, find_limit_cycle
from .models import get_model, linear_rotation_model, repressilator_model, \
    vdp_model
from .msf import msf_point, msf_sweep, sync_predicate
from .network import CouplingSpec, complete_graph, from_adjacency, \
    ring_graph, simulate_network, sync_error
from .ode import IntegratorConfig, integrate, integrate_with_events

__version__ = "0.1.0"

__all__ = [
    "exceptions", "linalg", "ode", "models", "limit_cycle", "floquet",
    "network", "msf", "FloqnetError", "IntegratorConfig", "integrate",
    "integrate_with_events", "get_model", "vdp_model",
    "repressilator_model", "linear_rotation_model", "LimitCycle",
    "find_limit_cycle", "monodromy",
    "shifted_multipliers_fullstate", "ajl_determinant", "lf_decomposition",
    "complete_graph", "ring_graph", "from_adjacency", "CouplingSpec",
    "simulate_network", "sync_error", "msf_point", "msf_sweep",
    "sync_predicate", "__version__",
]
