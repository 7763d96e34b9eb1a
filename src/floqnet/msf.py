"""Master stability function: the largest Floquet multiplier modulus of the
eigenmode system [Df(x_s) - kappa*DH] as a function of the effective
coupling kappa = K*lambda, plus grid sweeps and the network
synchronization predicate.

At kappa = 0 the unity multiplier (the perturbation along the cycle) is
excluded from the maximum; at kappa != 0 every multiplier is retained, so
the instability of negatively coupled modes is visible.  The MSF depends
on the product K*lambda only, never on K and lambda separately.

Sweeps and the predicate evaluate all their kappas in one pass
(:func:`_points`).  With full-state coupling (DH = I) the coupling term
commutes with the flow, so every multiplier at kappa is the uncoupled one
scaled by exp(-kappa*T): one uncoupled :func:`~floqnet.floquet.monodromy`
answers every kappa, of either sign.  Partial masks have no closed form
and integrate every kappa in one batched variational pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DisconnectedGraph, InvalidParam
from .floquet import UNITY_TOL, _cyclic_multipliers, _resolve_mask, \
    monodromy, shifted_multipliers_fullstate, variational_factors
from .limit_cycle import LimitCycle
from .models import OscillatorModel
from .network import GraphSpec
from .ode import IntegratorConfig

__all__ = ["MsfPoint", "MsfCurve", "SyncVerdict", "msf_point", "msf_sweep",
           "sync_predicate", "default_kappa_grid"]

# Relative tolerance under which two K*lambda values count as one kappa.
KAPPA_EQUAL_RTOL = 1e-12


def default_kappa_grid():
    """Default sweep grid: kappa = 0 plus 50 log-spaced points in
    [0.01, 10]."""
    return np.concatenate([[0.0], np.geomspace(0.01, 10.0, 50)])


def _resolve_kappa_grid(kappa_grid):
    """The sweep grid as a float vector; :class:`InvalidParam` unless it is
    non-empty, finite, >= 0 and strictly increasing."""
    grid = np.asarray(kappa_grid, dtype=float).ravel()
    if grid.size == 0:
        raise InvalidParam("empty kappa grid")
    if not np.all(np.isfinite(grid) & (grid >= 0)):
        raise InvalidParam("kappa grid values must be finite and >= 0")
    if not np.all(np.diff(grid) > 0):
        raise InvalidParam("kappa grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class MsfPoint:
    """MSF sample: effective coupling, retained maximum multiplier
    modulus, and the full multiplier list."""

    kappa: float
    mu_max: float
    multipliers: np.ndarray


@dataclass(frozen=True)
class MsfCurve:
    """MSF samples at strictly increasing kappa, all computed against the
    same cycle and coupling mask."""

    points: tuple[MsfPoint, ...]
    model_name: str
    mask: np.ndarray
    period: float

    @property
    def kappas(self):
        return np.array([p.kappa for p in self.points])

    @property
    def mu_max(self):
        return np.array([p.mu_max for p in self.points])


@dataclass(frozen=True)
class SyncVerdict:
    """Per-eigenmode MSF evaluation and the resulting verdict.

    ``lambdas``/``mu_max`` cover every Laplacian eigenvalue in ascending
    order.  Mode 1 (lambda = 0, motion along the synchronized solution) is
    reported but excluded from the verdict; the network synchronizes iff
    K != 0 and every transverse mode has mu_max < 1.
    """

    K: float
    synchronizes: bool
    lambdas: np.ndarray
    mu_max: np.ndarray


def _point(kappa: float, multipliers) -> MsfPoint:
    mods = np.abs(multipliers)
    if kappa == 0.0:  # drop the unity multiplier, if one is within tolerance
        dist = np.abs(multipliers - 1.0)
        if dist.min() < UNITY_TOL:
            mods = np.delete(mods, np.argmin(dist))
    return MsfPoint(kappa=float(kappa),
                    mu_max=float(mods.max()) if mods.size else 0.0,
                    multipliers=multipliers)


def msf_point(model: OscillatorModel, lc: LimitCycle, kappa: float,
              mask=None) -> MsfPoint:
    """One MSF sample at effective coupling ``kappa``.

    ``kappa`` is normally >= 0 (the curve's domain); negative values are
    accepted, as the predicate's pass accepts them at K < 0.  This is the
    single-kappa integrated reference for :func:`_points`.
    """
    mon = monodromy(model, lc, kappa=kappa, mask=mask)
    return _point(mon.kappa, mon.multipliers)


def _points(model, lc, kappas, mask, cfg):
    """MSF samples at every kappa in one pass; ``mask`` is resolved.  A
    full mask takes the shift law from one uncoupled monodromy.  A partial
    mask integrates all kappas on one step sequence, set by the most
    demanding, each point taking its multipliers from its own factors.
    """
    if mask.all():
        base = monodromy(model, lc, kappa=0.0, cfg=cfg)
        return [_point(kappa, shifted_multipliers_fullstate(base, kappa))
                for kappa in kappas]
    factors = variational_factors(model, lc, kappas, mask, cfg)
    return [_point(kappa, _cyclic_multipliers(segment_factors))
            for kappa, segment_factors in zip(kappas, factors)]


def msf_sweep(model: OscillatorModel, lc: LimitCycle, mask, kappa_grid,
              cfg: IntegratorConfig | None = None) -> MsfCurve:
    """Evaluate the MSF on a strictly increasing grid of kappa >= 0, all
    in one pass (:func:`_points`)."""
    grid = _resolve_kappa_grid(kappa_grid)
    mask = _resolve_mask(mask, model.dim)
    return MsfCurve(points=tuple(_points(model, lc, grid, mask, cfg)),
                    model_name=model.name, mask=mask, period=lc.period)


def sync_predicate(model: OscillatorModel, lc: LimitCycle, graph: GraphSpec,
                   K: float, mask=None) -> SyncVerdict:
    """Spectral synchronization verdict for a coupled network.

    Evaluates the MSF at kappa = K*lambda_i for every transverse eigenmode
    i = 2..n; the network synchronizes iff all of them have mu_max < 1.
    K = 0, or a mask with no 1, is declared non-synchronizing outright:
    K*DH = 0, so the modes decouple and transverse perturbations inherit
    the full uncoupled spectrum, including the unity multiplier.

    The distinct K*lambda, of either sign, are evaluated in one pass
    (:func:`_points`).

    Raises :class:`DisconnectedGraph` when lambda_2 <= 1e-10 and
    :class:`InvalidParam` for a non-finite K.
    """
    lambdas = graph.eigenvalues
    if not graph.is_connected:
        raise DisconnectedGraph(
            f"algebraic connectivity {lambdas[1]:.3g} <= 1e-10; "
            "the graph must be connected"
        )
    K, mask = float(K), _resolve_mask(mask, model.dim)
    if not math.isfinite(K):
        raise InvalidParam(f"coupling gain K must be finite, got {K}")
    kappas = K * np.asarray(lambdas, dtype=float)
    # lambdas ascend, so equal kappas are neighbours; one MSF point serves
    # each run of kappas within KAPPA_EQUAL_RTOL of the one before.
    first = [i == 0 or not math.isclose(kap, kappas[i - 1],
                                        rel_tol=KAPPA_EQUAL_RTOL)
             for i, kap in enumerate(kappas)]
    points = _points(model, lc, kappas[first], mask, None)
    mu = np.array([p.mu_max for p in points])[np.cumsum(first) - 1]
    synchronizes = bool(K != 0.0 and mask.any() and np.all(mu[1:] < 1.0))
    return SyncVerdict(K=K, synchronizes=synchronizes,
                       lambdas=np.asarray(lambdas, dtype=float), mu_max=mu)
