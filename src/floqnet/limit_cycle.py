"""Locate the attracting periodic orbit of an oscillator and package it as
a reusable sampled cycle.

Strategy: scout 20 time units from the initial state, with no separate
settle leg, to pick a Poincare section (:func:`_section`) through the
coordinate with the largest swing (robust when some states barely move,
e.g. repressilator mRNAs), and seed the period and 16 segment starts
from the last two upward section crossings, located on the scout's
stored steps by :meth:`floqnet.ode.Trajectory.crossings`, the crossing
scan of :func:`floqnet.ode.integrate_with_events` (a cycle slower than
the scout runs on in legs of the same length until two are in).
Multiple-shooting Newton then solves for the starts x_s and the period
T: the residuals are the gaps phi_{T/16}(x_s) - x_{s+1}, taken
cyclically, and the phase condition that x_0 lies on the section.  Its
basin is wide enough that the scout's transient does not need to have
died out.  Full Newton steps run at the configured tolerances; once the
step is small, chord steps at 1/100 of them integrate only the segment
states and keep the last segment factors.  One dense batch pass of the
converged segments over T/16 gives 512 uniform-phase samples.

:func:`_shoot_segments` is the one place the augmented state +
variational system is integrated, for this search and for every pass of
:mod:`floqnet.floquet`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DimensionMismatch, FixedPointConvergence, \
    NoCrossings, NotPeriodic
from .models import OscillatorModel
from .ode import IntegratorConfig, _final_state, integrate

__all__ = ["LimitCycle", "find_limit_cycle"]

# Largest closure residual (summed relative segment gaps) accepted.
CLOSURE_TOL = 1e-6

# Uniform-phase samples stored per cycle, and shooting segments of the
# search and of every variational pass (32 samples each).
_N_SAMPLES = 512
_SEGMENTS = 16

# Swing below which the motion, or the Newton iterate, is a fixed point.
_MIN_AMPLITUDE = 1e-6

# Length of the scout, whose mean sets the section level, and of every
# crossing-search leg after it.  The search for two section crossings ends
# at time 1020: the scout, then up to 50 legs.
_SCOUT_WINDOW = 20.0
_SEARCH_END = 1020.0

_NEWTON_ITERATIONS = 12
# Relative Newton step below which full steps give way to chord steps at
# 1/100 of the tolerances, and below which a chord step ends the
# iteration.
_STEP_TOL = 1e-6
# Singular values of the Newton matrix cut relative to the largest: a
# family of cycles (linear_rotation's circles) makes the matrix singular
# up to integration error (1.8e-10 relative for a period-100 rotation),
# and an uncut step runs along the family.
_RCOND = 1e-7


@dataclass(frozen=True)
class LimitCycle:
    """A periodic orbit: period, anchor state, and uniform-phase samples.

    ``samples[k]`` is the orbit at time ``times[k] = k*T/N`` past the
    anchor ``samples[0]``.  Sample 32*s is the converged start of shooting
    segment s, and the 31 after it come from one dense batch pass of the
    16 segments over T/16 at 1/100 of the configured tolerances.  They
    start every variational pass, so their error enters the multipliers
    directly.  ``closure_residual`` sums that pass's gaps, each segment
    end's distance from the next start, relative to the anchor.
    """

    period: float
    anchor: np.ndarray
    times: np.ndarray
    samples: np.ndarray
    closure_residual: float


def _shoot_segments(model, starts, span, kappas, mask, cfg):
    """The (B, p, m + m^2) ends after ``span`` of the augmented system
    ``[x_s, vec Y_bs]``, x_s' = f(x_s), Y_bs' = [Df(x_s) - kappas[b] DH]
    Y_bs, from x_s = ``starts[s]`` and Y_bs = I, with DH = diag(mask).
    All rows are one (B*p, m + m^2) batch on one step sequence; rows of
    one segment carry the same state, so f and Df are evaluated once per
    segment, in one batch call each."""
    p, m = starts.shape
    f, jac = model.node_field, model.node_jacobian
    shift = (np.asarray(kappas, dtype=float)[:, None, None, None]
             * np.diag(mask))

    def rhs(z):
        xs = z[:p, :m]
        out = np.empty_like(z)
        out.reshape(-1, p, z.shape[1])[:, :, :m] = f(xs)
        ys = z[:, m:].reshape(-1, p, m, m)
        out[:, m:] = ((jac(xs) - shift) @ ys).reshape(-1, m * m)
        return out

    z0 = np.zeros((len(kappas), p, m + m * m))
    z0[:, :, :m] = starts
    z0[:, :, m:] = np.eye(m).ravel()
    return _final_state(rhs, z0.reshape(len(kappas) * p, -1), (0.0, span),
                        cfg).reshape(z0.shape)


def _check_swing(swing, what):
    if swing < _MIN_AMPLITUDE:
        raise FixedPointConvergence(
            f"{what} swings {swing:.3g} < 1e-6; trajectory has collapsed "
            "onto a fixed point")


def _section(scout):
    """Coordinate and level of the Poincare section: the coordinate that
    swings most over 1025 uniform points of the scout's dense output, and
    its mean over them."""
    xs = scout.eval(np.linspace(scout.times[0], scout.times[-1], 1025))
    amplitude = np.ptp(xs, axis=0)
    _check_swing(amplitude.max(), "scout")
    coord = int(np.argmax(amplitude))
    return coord, float(xs[:, coord].mean())


def _first_guess(f, scout, coord, level, relaxed):
    """Period and segment starts from the last two upward crossings of the
    section on the scout, or for a cycle slower than the scout the first
    two on it and on relaxed legs of the scout's length run on from its
    end.  Each crossing is refined on its step's dense polynomial."""
    def section(x):
        return x[coord] - level

    found = scout.crossings(section)[-2:]
    leg = scout
    while len(found) < 2 and leg.times[-1] < _SEARCH_END:
        t = leg.times[-1]
        leg = integrate(f, leg.states[-1], (t, t + _SCOUT_WINDOW), relaxed)
        _check_swing(np.ptp(leg.states, axis=0).max(), "search leg")
        found += leg.crossings(section)
    if not found:
        raise NoCrossings(
            f"section x[{coord}]={level:.6g} never crossed upward within "
            f"{_SEARCH_END:.0f} time units")
    if len(found) < 2:
        raise NotPeriodic("fewer than two section returns found")
    (t_a, x_a), (t_b, _) = found[:2]
    guide = scout if t_b <= scout.times[-1] else \
        integrate(f, x_a, (t_a, t_b), relaxed)
    phases = t_a + np.arange(_SEGMENTS) * ((t_b - t_a) / _SEGMENTS)
    return guide.eval(phases), t_b - t_a


def _newton(model, x, period, coord, level, cfg, tight):
    """Segment starts and period of the cycle by multiple-shooting Newton.

    The Jacobian of the gaps and the phase condition is cyclic
    block-bidiagonal: A_s = D phi_{T/p}(x_s), from the same batch as the
    gaps, on the diagonal, -I beside it, and f(phi_{T/p}(x_s))/p in the
    T column.  Full steps run at ``cfg`` until the step is small.  Chord
    steps then run at ``tight`` until it is small again: they integrate
    only the segment states and keep the A_s of the last full step,
    refreshing the gaps and the T column.
    """
    p, m = x.shape
    n, idx = p * m, np.arange(p)
    jac = np.zeros((n + 1, n + 1))
    jac[n, coord] = 1.0
    chord = False
    for _ in range(_NEWTON_ITERATIONS):
        if chord:
            ends = _final_state(model.node_field, x, (0.0, period / p), tight)
        else:
            z = _shoot_segments(model, x, period / p, [0.0], np.zeros(m),
                                cfg)[0]
            ends = z[:, :m]
            blocks = np.zeros((p, m, p, m))
            blocks[idx, :, idx, :] = z[:, m:].reshape(p, m, m)
            blocks[idx, :, (idx + 1) % p, :] = -np.eye(m)
            jac[:n, :n] = blocks.reshape(n, n)
        jac[:n, n] = model.node_field(ends).ravel() / p
        residual = np.append(ends - np.roll(x, -1, axis=0),
                             x[0, coord] - level)
        step = np.linalg.lstsq(jac, -residual, rcond=_RCOND)[0]
        x = x + step[:n].reshape(p, m)
        period += step[n]
        _check_swing(np.ptp(x, axis=0).max(), "shooting segment starts")
        if not period > 0.0:
            raise NotPeriodic(f"shooting Newton reached period {period:.3g}")
        if (np.linalg.norm(step[:n]) <= _STEP_TOL * np.linalg.norm(x)
                and abs(step[n]) <= _STEP_TOL * period):
            if chord:
                return x, float(period)
            chord = True
    raise NotPeriodic(
        f"shooting Newton did not converge in {_NEWTON_ITERATIONS} "
        "iterations")


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
        The swing of the scout, of a crossing-search leg, or of the Newton
        iterate's segment starts below 1e-6.
    NoCrossings
        The section was never crossed upward within the search budget.
    NotPeriodic
        Fewer than two section crossings, no Newton convergence within
        12 iterations, or a closure residual of 1e-6 or more.
    """
    cfg = cfg or IntegratorConfig()
    f = model.field
    # The scout and search legs only need to seed Newton.
    relaxed = replace(cfg, rel_tol=max(cfg.rel_tol, 1e-7),
                      abs_tol=max(cfg.abs_tol, 1e-9))
    tight = replace(cfg, rel_tol=cfg.rel_tol / 100, abs_tol=cfg.abs_tol / 100)

    x = np.asarray(model.default_initial if x0 is None else x0, dtype=float)
    if x.shape != (model.dim,):
        raise DimensionMismatch(
            f"x0 must have shape ({model.dim},), got {x.shape}")

    scout = integrate(f, x, (0.0, _SCOUT_WINDOW), relaxed)
    coord, level = _section(scout)
    starts, period = _first_guess(f, scout, coord, level, relaxed)
    starts, period = _newton(model, starts, period, coord, level, cfg, tight)

    # One dense pass over the converged segments gives the samples.
    dense = integrate(model.node_field, starts, (0.0, period / _SEGMENTS),
                      tight)
    gaps = np.linalg.norm(dense.states[-1] - np.roll(starts, -1, axis=0),
                          axis=1)
    closure = float(gaps.sum() / np.linalg.norm(starts[0]))
    if not closure < CLOSURE_TOL:
        raise NotPeriodic(
            f"closure residual {closure:.3g} exceeds {CLOSURE_TOL:g}")
    times = np.arange(_N_SAMPLES) * (period / _N_SAMPLES)
    samples = dense.eval(times[:_N_SAMPLES // _SEGMENTS]).transpose(1, 0, 2)
    return LimitCycle(period=period, anchor=starts[0].copy(), times=times,
                      samples=samples.reshape(_N_SAMPLES, -1),
                      closure_residual=closure)
