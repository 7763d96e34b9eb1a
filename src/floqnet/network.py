"""Graph Laplacians, coupled-network vector fields, network simulation with
a coupling-activation schedule, and the synchronization error metric.

Coupling is diffusive: the interaction on node i is K * sum over neighbors
of DH @ (x_j - x_i), i.e. the stacked field X' = F(X) - K (G kron DH) X for
Laplacian G.  It vanishes identically on the synchronization manifold
X = 1_n kron x, and K > 0 is the stabilizing sign.

Coupling activation is handled by two-phase integration (the plain node
field until the activation time, the coupled field afterwards, continuous
state) so adaptive error control never straddles the switch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, InvalidAdjacency, InvalidParam
from .floquet import _resolve_mask
from .models import OscillatorModel
from .ode import IntegratorConfig, _sample

__all__ = [
    "SIMULATE_INTEGRATOR",
    "GraphSpec",
    "CouplingSpec",
    "SyncSeries",
    "NetworkRun",
    "complete_graph",
    "ring_graph",
    "from_adjacency",
    "assemble_coupled_field",
    "simulate_network",
    "sync_error",
]

_SYM_TOL = 1e-10

# Default tolerance of simulate_network and ``floqnet simulate``, looser
# than the spectral route's: the verdict compares a final synchronization
# error with 1e-3, and the state error this leaves is about 1e-6 of a
# coordinate's range (tests/test_network.py::TestSimulateTolerance).
SIMULATE_INTEGRATOR = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9)


@dataclass(frozen=True)
class GraphSpec:
    """Symmetric graph Laplacian with its eigenvalues in ascending order
    (lambda_1 = 0 <= lambda_2 <= ...)."""

    n: int
    laplacian: np.ndarray
    eigenvalues: np.ndarray

    @property
    def is_connected(self):
        """Whether the algebraic connectivity lambda_2 is positive."""
        return bool(self.eigenvalues[1] > _SYM_TOL)


@dataclass(frozen=True)
class CouplingSpec:
    """Finite coupling gain K, 0/1 diagonal coupling mask (None couples
    every state), and the time at which coupling switches on (zero gain
    before, K after)."""

    K: float
    mask: np.ndarray | None
    activation_time: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.activation_time < math.inf:
            raise InvalidParam("activation_time must be finite and >= 0, "
                               f"got {self.activation_time}")
        if self.mask is not None:
            object.__setattr__(self, "mask",
                               _resolve_mask(self.mask, np.size(self.mask)))
        object.__setattr__(self, "K", float(self.K))
        if not np.isfinite(self.K):
            raise InvalidParam(f"coupling gain K must be finite, got {self.K}")


@dataclass(frozen=True)
class SyncSeries:
    """Worst pairwise state disagreement over time:
    e(t) = max over node pairs and coordinates of |x_ic(t) - x_jc(t)|."""

    times: np.ndarray
    error: np.ndarray

    def min_after(self, t):
        sel = self.times >= t
        return float(self.error[sel].min()) if sel.any() else float("nan")

    @property
    def final(self):
        return float(self.error[-1])


@dataclass(frozen=True)
class NetworkRun:
    """Result of a network simulation on a uniform output grid."""

    times: np.ndarray
    states: np.ndarray  # (n_points, n*m), node-major
    sync: SyncSeries


def _graph_from_laplacian(lap):
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    eig = np.linalg.eigvalsh(lap)
    eig = np.where(np.abs(eig) < _SYM_TOL, 0.0, eig)
    return GraphSpec(n=n, laplacian=lap, eigenvalues=eig)


def complete_graph(n: int) -> GraphSpec:
    """All-to-all Laplacian n*I - J; spectrum {0, n (n-1 times)}."""
    if n < 2:
        raise InvalidAdjacency(f"need n >= 2 nodes, got {n}")
    return _graph_from_laplacian(n * np.eye(n) - np.ones((n, n)))


def ring_graph(n: int) -> GraphSpec:
    """Cycle graph Laplacian (n=2 degenerates to a single edge)."""
    if n < 2:
        raise InvalidAdjacency(f"need n >= 2 nodes, got {n}")
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
        a[i, (i - 1) % n] = 1.0
    return from_adjacency(a)


def from_adjacency(adjacency) -> GraphSpec:
    """Laplacian D - A from a symmetric, non-negative, hollow adjacency."""
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidAdjacency(f"adjacency must be square, got {a.shape}")
    if a.shape[0] < 2:
        raise InvalidAdjacency(f"need n >= 2 nodes, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise InvalidAdjacency("adjacency weights must be finite")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > _SYM_TOL * scale:
        raise InvalidAdjacency("adjacency must be symmetric")
    if a.min() < 0:
        raise InvalidAdjacency("adjacency weights must be non-negative")
    if np.abs(np.diag(a)).max() > 0:
        raise InvalidAdjacency("adjacency diagonal must be zero")
    return _graph_from_laplacian(np.diag(a.sum(axis=1)) - a)


def assemble_coupled_field(model: OscillatorModel, graph: GraphSpec,
                           coupling: CouplingSpec):
    """Vector field of the n*m-dimensional coupled network with the
    coupling active: X' = F(X) - K (G kron DH) X.

    The flat state is viewed as the (n, m) node array X, so one call is
    ``model.node_field(X) + (-K G) @ (X * mask)``: one batched model call
    and one (n, n) @ (n, m) product, whatever n is.  With K = 0 this is n
    independent copies of the model field; on the synchronization
    manifold the coupling term vanishes exactly.
    """
    n, m = graph.n, model.dim
    mask = _resolve_mask(coupling.mask, m)
    node_f = model.node_field
    neg_kg = -coupling.K * graph.laplacian

    def coupled(x_flat):
        if x_flat.size != n * m:
            raise DimensionMismatch(
                f"state length {x_flat.size} != n*m = {n * m}"
            )
        x = x_flat.reshape(n, m)
        return (node_f(x) + neg_kg @ (x * mask)).ravel()

    return coupled


def sync_error(times, states, n: int, m: int) -> SyncSeries:
    """Synchronization error series from stacked network states
    (n_points, n*m): per time, the largest |x_ic - x_jc| over node pairs
    and coordinates."""
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[None, :]
    if states.shape[1] != n * m:
        raise DimensionMismatch(
            f"state width {states.shape[1]} != n*m = {n * m}"
        )
    blocks = states.reshape(states.shape[0], n, m)
    err = (blocks.max(axis=1) - blocks.min(axis=1)).max(axis=1)
    return SyncSeries(times=np.asarray(times, dtype=float), error=err)


def simulate_network(model: OscillatorModel, graph: GraphSpec,
                     coupling: CouplingSpec, x0, t_end: float,
                     cfg: IntegratorConfig | None = None,
                     output_points: int = 2000) -> NetworkRun:
    """Simulate the coupled network from stacked initial state ``x0``.

    Integration is uncoupled on [0, activation_time] and coupled on
    [activation_time, t_end], with continuous state across the switch.
    States and the synchronization error are reported on a uniform grid,
    filled as each phase integrates, so memory follows the grid.

    ``cfg`` defaults to :data:`SIMULATE_INTEGRATOR`.  Integrator failures
    propagate; in particular a K < 0 run is expected to end in
    :class:`~floqnet.exceptions.Blowup`, which callers probing instability
    should catch.
    """
    cfg = cfg or SIMULATE_INTEGRATOR
    n, m = graph.n, model.dim
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != n * m:
        raise DimensionMismatch(
            f"initial state length {x0.size} != n*m = {n * m}"
        )
    t_on = float(coupling.activation_time)
    if not t_on < t_end < math.inf:
        raise InvalidParam(
            f"t_end ({t_end}) must be finite and exceed activation_time "
            f"({t_on})"
        )
    if output_points < 1:
        raise InvalidParam(f"output_points must be >= 1, got {output_points}")

    coupled = assemble_coupled_field(model, graph, coupling)

    def uncoupled(x_flat):
        return model.node_field(x_flat.reshape(n, m)).ravel()

    times = np.linspace(0.0, float(t_end), output_points)
    split = np.searchsorted(times, t_on)  # times[split:] >= t_on
    states = np.empty((output_points, n * m))
    x_on = x0
    if t_on > 0:
        x_on = _sample(uncoupled, x0, (0.0, t_on), times[:split],
                       states[:split], cfg)
    _sample(coupled, x_on, (t_on, float(t_end)), times[split:],
            states[split:], cfg)
    sync = sync_error(times, states, n, m)
    return NetworkRun(times=times, states=states, sync=sync)
