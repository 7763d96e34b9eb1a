"""Locate the attracting periodic orbit of an oscillator and package it as
a reusable sampled cycle.

Strategy: settle past the transient, scout one window to pick a Poincare
section through the coordinate with the largest swing (robust when some
states barely move, e.g. repressilator mRNAs), then stream upward section
returns at full accuracy until the returns the period average spans agree.
The final cycle is re-integrated from the last (most converged) return,
at 1/100 of the configured tolerances, and stored as uniform-phase
samples.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionMismatch, FixedPointConvergence, \
    NoCrossings, NotPeriodic
from .models import OscillatorModel
from .ode import IntegratorConfig, _final_state, _integrate_core, \
    _section_crossings, integrate

__all__ = ["LimitCycle", "find_limit_cycle"]

# Relative agreement demanded of the section returns the period average
# spans, and of the cycle closure ||x(T) - x(0)|| / ||x(0)||.
CLOSURE_TOL = 1e-6

# Uniform-phase samples stored per cycle.
_N_SAMPLES = 512

_SCOUT_WINDOW = 60.0
# Time the return stream may run past the scout leg before giving up.
_STREAM_BUDGET = 16 * _SCOUT_WINDOW
_MIN_CROSSINGS = 8
# Section returns the period average spans (their last five gaps).
_AVERAGED_RETURNS = 6


@dataclass(frozen=True)
class LimitCycle:
    """A periodic orbit: period, anchor state, and uniform-phase samples.

    ``samples[k]`` is the orbit at time ``times[k] = k*T/N`` past the
    anchor, taken from the dense output of one integration over a period
    at 1/100 of the configured tolerances.  The samples are the segment
    starts of every variational pass
    (:func:`~floqnet.floquet.variational_factors`), so their error enters
    the multipliers directly.
    """

    period: float
    anchor: np.ndarray
    times: np.ndarray
    samples: np.ndarray
    closure_residual: float


def _relaxed(cfg: IntegratorConfig) -> IntegratorConfig:
    # Transient legs only need to land near the attractor; tight error
    # control there buys nothing.
    return IntegratorConfig(
        rel_tol=max(cfg.rel_tol, 1e-7),
        abs_tol=max(cfg.abs_tol, 1e-9),
        max_steps=cfg.max_steps,
    )


def _return_drift(states):
    """Relative distance between the last section return and the first of
    the returns the period average spans."""
    first, last = states[-min(len(states), _AVERAGED_RETURNS)], states[-1]
    return float(np.linalg.norm(last - first)
                 / max(np.linalg.norm(first), 1e-300))


def find_limit_cycle(model: OscillatorModel, x0=None,
                     cfg: IntegratorConfig | None = None) -> LimitCycle:
    """Find the attracting limit cycle reached from ``x0``, sampled at 512
    uniform phases.

    The caller is responsible for starting inside the basin of an
    attracting cycle; failures are reported through exceptions, never
    silently.

    Raises
    ------
    DimensionMismatch
        ``x0`` is not a state vector of the model's dimension.
    FixedPointConvergence
        Post-transient oscillation amplitude below 1e-6.
    NoCrossings
        The section was never crossed upward within the search budget.
    NotPeriodic
        Fewer than two section returns, returns that did not agree within
        1e-6 (relative), or a closure residual of 1e-6 or more.
    """
    cfg = cfg or IntegratorConfig()
    f = model.field
    relaxed = _relaxed(cfg)

    x = np.asarray(model.default_initial if x0 is None else x0, dtype=float)
    if x.shape != (model.dim,):
        raise DimensionMismatch(
            f"x0 must have shape ({model.dim},), got {x.shape}")
    if model.transient_hint > 0:
        x = _final_state(f, x, (0.0, model.transient_hint), relaxed)

    # Scout pass: choose the section coordinate and level.
    scout = integrate(f, x, (0.0, _SCOUT_WINDOW), relaxed)
    xs = scout.eval(np.linspace(0.0, _SCOUT_WINDOW, 1025))
    amplitude = xs.max(axis=0) - xs.min(axis=0)
    if amplitude.max() < 1e-6:
        raise FixedPointConvergence(
            f"post-transient amplitude {amplitude.max():.3g} < 1e-6; "
            "trajectory has collapsed onto a fixed point"
        )
    coord = int(np.argmax(amplitude))
    level = float(xs[:, coord].mean())

    def section(x):
        return x[coord] - level

    # Return stream at full accuracy from the end of the scout leg, whose
    # time also counts as settling; it stops once the returns converge.
    stream_cfg = replace(cfg, max_step=cfg.max_step or _SCOUT_WINDOW / 10)
    steps = _integrate_core(f, scout.states[-1], (0.0, _STREAM_BUDGET),
                            stream_cfg)
    t_cross, states = [], []
    for t, state in _section_crossings(steps, section):
        t_cross.append(t)
        states.append(state)
        if (len(states) >= _MIN_CROSSINGS
                and _return_drift(states) < CLOSURE_TOL):
            break

    # The scout leg's own upward crossing counts as one return.
    g = xs[:, coord] - level
    if not states and not np.any((g[:-1] < 0.0) & (g[1:] >= 0.0)):
        raise NoCrossings(
            f"section x[{coord}]={level:.6g} never crossed upward within "
            f"{_SCOUT_WINDOW + _STREAM_BUDGET:.0f} time units"
        )
    if len(states) < 2:
        raise NotPeriodic("fewer than two section returns found")
    rel_dist = _return_drift(states)
    if rel_dist >= CLOSURE_TOL:
        raise NotPeriodic(
            f"section returns still {rel_dist:.3g} apart (relative); "
            "orbit has not converged onto a cycle"
        )
    period = float(np.mean(np.diff(t_cross[-_AVERAGED_RETURNS:])))

    anchor = states[-1]
    # The samples start the variational segments: integrate them tighter.
    closing = replace(cfg, rel_tol=cfg.rel_tol / 100,
                      abs_tol=cfg.abs_tol / 100)
    one_period = integrate(f, anchor, (0.0, period), closing)
    closure = float(
        np.linalg.norm(one_period.states[-1] - anchor)
        / np.linalg.norm(anchor)
    )
    if closure >= CLOSURE_TOL:
        raise NotPeriodic(
            f"closure residual {closure:.3g} exceeds {CLOSURE_TOL:g}"
        )

    times = np.arange(_N_SAMPLES) * (period / _N_SAMPLES)
    return LimitCycle(
        period=period, anchor=anchor.copy(), times=times,
        samples=one_period.eval(times), closure_residual=closure,
    )
