"""Locate the attracting periodic orbit of an oscillator and package it as
a reusable sampled cycle.

Strategy: integrate past the transient, pick a Poincare section through the
coordinate with the largest swing (robust when some states barely move,
e.g. repressilator mRNAs), collect upward section returns, and average the
last few return gaps for the period.  The final cycle is re-integrated from
the last (most converged) section point and stored as uniform-phase
samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import FixedPointConvergence, NoCrossings, NotPeriodic
from .models import OscillatorModel
from .ode import IntegratorConfig, _consume, _final_state, integrate

__all__ = ["LimitCycle", "find_limit_cycle"]

# Relative contraction demanded of successive section returns, and of the
# cycle closure ||x(T) - x(0)|| / ||x(0)||.
CLOSURE_TOL = 1e-6

_SCOUT_WINDOW = 60.0
_MAX_WINDOW_DOUBLINGS = 4
_MAX_TRANSIENT_RETRIES = 3
_MIN_CROSSINGS = 8


@dataclass(frozen=True)
class LimitCycle:
    """A periodic orbit: period, anchor state, and uniform-phase samples.

    ``samples[k]`` is the orbit at time ``times[k] = k*T/N`` past the
    anchor, taken from the dense output of one integration over a period.
    """

    period: float
    anchor: np.ndarray
    times: np.ndarray
    samples: np.ndarray
    closure_residual: float

    @property
    def n_samples(self):
        return self.samples.shape[0]


def _relaxed(cfg: IntegratorConfig) -> IntegratorConfig:
    # Transient legs only need to land near the attractor; tight error
    # control there buys nothing.
    return IntegratorConfig(
        rel_tol=max(cfg.rel_tol, 1e-7),
        abs_tol=max(cfg.abs_tol, 1e-9),
        max_steps=cfg.max_steps,
    )


def find_limit_cycle(model: OscillatorModel, x0=None,
                     cfg: IntegratorConfig | None = None,
                     n_samples: int = 512) -> LimitCycle:
    """Find the attracting limit cycle reached from ``x0``.

    The caller is responsible for starting inside the basin of an
    attracting cycle; failures are reported through exceptions, never
    silently.

    Raises
    ------
    FixedPointConvergence
        Post-transient oscillation amplitude below 1e-6.
    NoCrossings
        The Poincare-section event never fired within the search budget.
    NotPeriodic
        Section returns failed to contract below 1e-6 (relative) even
        after doubling the transient up to 3 times.
    """
    cfg = cfg or IntegratorConfig()
    x_start = np.asarray(
        model.default_initial if x0 is None else x0, dtype=float
    )
    transient = float(model.transient_hint)
    last_error: Exception | None = None

    for _ in range(1 + _MAX_TRANSIENT_RETRIES):
        try:
            return _attempt(model, x_start, transient, cfg, n_samples)
        except (FixedPointConvergence, NoCrossings):
            raise
        except NotPeriodic as exc:
            last_error = exc
            transient = 2.0 * transient if transient > 0 else _SCOUT_WINDOW
    raise last_error


def _attempt(model, x_start, transient, cfg, n_samples):
    f = model.field
    relaxed = _relaxed(cfg)

    x_settled = x_start
    if transient > 0:
        x_settled = _final_state(f, x_start, (0.0, transient), relaxed)

    # Scout pass: choose the section coordinate and level.
    scout = integrate(f, x_settled, (0.0, _SCOUT_WINDOW), relaxed)
    grid = np.linspace(0.0, _SCOUT_WINDOW, 1025)
    xs = scout.eval(grid)
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

    # Event pass at full accuracy; widen the window until enough returns.
    window = _SCOUT_WINDOW
    crossings = []
    for _ in range(_MAX_WINDOW_DOUBLINGS + 1):
        _, crossings = _consume(f, x_settled, (0.0, window), cfg, section,
                                keep=False)
        if len(crossings) >= _MIN_CROSSINGS:
            break
        window *= 2.0
    if not crossings:
        raise NoCrossings(
            f"section x[{coord}]={level:.6g} never crossed upward within "
            f"{window / 2:.0f} time units"
        )
    if len(crossings) < 2:
        raise NotPeriodic("fewer than two section returns found")

    t_cross = np.array([t for t, _ in crossings])
    states = np.array([s for _, s in crossings])
    gaps = np.diff(t_cross)
    period = float(np.mean(gaps[-5:]))

    rel_dist = (
        np.linalg.norm(states[-1] - states[-2])
        / max(np.linalg.norm(states[-2]), 1e-300)
    )
    if rel_dist >= CLOSURE_TOL:
        raise NotPeriodic(
            f"section returns still {rel_dist:.3g} apart (relative); "
            "orbit has not converged onto a cycle"
        )

    anchor = states[-1]
    one_period = integrate(f, anchor, (0.0, period), cfg)
    closure = float(
        np.linalg.norm(one_period.states[-1] - anchor)
        / np.linalg.norm(anchor)
    )
    if closure >= CLOSURE_TOL:
        raise NotPeriodic(
            f"closure residual {closure:.3g} exceeds {CLOSURE_TOL:g}"
        )

    times = np.arange(n_samples) * (period / n_samples)
    return LimitCycle(
        period=period, anchor=anchor.copy(), times=times,
        samples=one_period.eval(times), closure_residual=closure,
    )
