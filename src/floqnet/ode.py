"""Adaptive explicit Runge-Kutta integration with dense output.

A single, hard-validated integrator: the Dormand-Prince 5(4) embedded pair
with its free 4th-order continuous extension, FSAL, and the standard step
controller (Hairer, Norsett and Wanner, *Solving ODEs I*, II.4), which
alone sizes each step.  Every attempt counts against the step budget.  A
trial is rejected unless its error norm is <= 1 (NaN included); one factor
shrinks a rejected step and grows an accepted one, and a non-finite trial
halves it.  The step ending within round-off of t1 ends on t1.

Upward zero-crossings of an event function are located on a stored
:class:`Trajectory`: a sign change between two nodes marks the step, and
bisection on that step's dense polynomial refines the time.

The solver handles autonomous vector fields only (``field(x) -> dx/dt``),
which is all this package needs; time-dependence such as coupling
activation is handled by piecewise integration at the call site so error
control never straddles a discontinuity.

Defaults are deliberately tight (rel 1e-9 / abs 1e-11): monodromy
computations amplify one-period trajectory error directly into Floquet
multiplier error.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import Blowup, DimensionMismatch, InvalidParam, \
    OutOfRange, StepBudgetExceeded, StepFailure

__all__ = ["IntegratorConfig", "Trajectory", "integrate",
           "integrate_with_events", "BLOWUP_LIMIT"]

# Divergence guard: large enough to let genuinely unstable runs be seen
# growing, small enough to stop well before overflow pollutes the step
# controller.
BLOWUP_LIMIT = 1e12

# Dormand-Prince 5(4) tableau; row 6 holds the 5th-order weights, so
# stage 7 lands on the solution (FSAL).
_A = np.zeros((7, 7))
_A[1, 0] = 1 / 5
_A[2, :2] = (3 / 40, 9 / 40)
_A[3, :3] = (44 / 45, -56 / 15, 32 / 9)
_A[4, :4] = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A[5, :5] = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_A[6, :6] = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# b - b_hat: difference against the embedded 4th-order solution.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])
# Weights of the quartic term of the dense-output polynomial.
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])

_A_ROWS = [_A[i, :i] for i in range(7)]
_EPS = np.finfo(float).eps

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and the step budget of one adaptive integration."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise InvalidParam("tolerances must be positive and finite")
        # NaN would switch the step budget off; a bool is not a count.
        n = self.max_steps
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise InvalidParam(f"max_steps must be an integer >= 1, got {n!r}")


class Trajectory:
    """Solution of one integration: nodes plus a per-step quartic
    interpolant.

    ``eval`` at a stored node time returns the stored state exactly;
    between nodes it evaluates the 4th-order continuous extension of the
    integrator.
    """

    def __init__(self, times, states, rcont):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self._rcont = rcont  # (n_steps, 5, *state shape)

    def eval(self, t):
        """Dense evaluation at scalar or array ``t`` within the span."""
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.ravel()
        inside = (flat >= self.times[0]) & (flat <= self.times[-1])
        if not inside.all():
            raise OutOfRange(
                f"t={flat[~inside][0]} outside integrated span "
                f"[{self.times[0]}, {self.times[-1]}]"
            )
        # times[idx - 1] < t <= times[idx]; t == times[0] gives idx = 0.
        idx = np.searchsorted(self.times, flat)
        step = np.maximum(idx - 1, 0)
        t_lo, t_hi = self.times[step], self.times[step + 1]
        theta = ((flat - t_lo) / (t_hi - t_lo)).reshape(
            (-1,) + (1,) * (self.states.ndim - 1))
        out = _dense_eval(np.moveaxis(self._rcont[step], 1, 0), theta)
        exact = self.times[idx] == flat
        out[exact] = self.states[idx[exact]]
        return out[0] if t_arr.ndim == 0 else out

    def crossing(self, i, event):
        """``(t, state)`` of the upward zero of ``event`` on step ``i``,
        whose node values go from < 0 to >= 0 (see :func:`_upward_steps`),
        bisected on the step's dense polynomial."""
        t = _refine_crossing(event, self._rcont[i], self.times[i],
                             self.times[i + 1] - self.times[i])
        return t, self.eval(t)


def _upward_steps(g):
    """Indices of the steps whose node values ``g`` go from < 0 to >= 0."""
    return np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0))


def _rms(v):
    """RMS norm of a state, or of its worst row for a (B, d) batch."""
    rows = np.add.reduce(v * v, axis=-1)
    return math.sqrt(np.maximum.reduce(rows, axis=None) / v.shape[-1])


def _initial_step(field, x0, f0, span, rel_tol, abs_tol):
    """Heuristic first step (Hairer's hinit, simplified)."""
    scale = abs_tol + rel_tol * np.abs(x0)
    d0 = _rms(x0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, span)
    if h0 == 0.0:  # d1 overflowed: the underflow guard fails the step
        return 0.0
    y1 = x0 + h0 * f0
    f1 = field(y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def _integrate_core(field, x0, t_span, cfg):
    """Yield every accepted Dormand-Prince step as ``(t, h, y, y_new, k)``,
    states flattened and ``k`` the (7, x0.size) stage derivatives, which
    are overwritten when the loop resumes.  A (B, d) ``x0`` is B row
    systems sharing one step sequence, controlled by the worst row's
    error norm.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1) and t1 > t0):
        raise InvalidParam(
            f"t_span must be finite with t1 > t0, got {t_span}")
    y0 = np.asarray(x0, dtype=float).copy()
    if y0.ndim not in (1, 2):
        raise DimensionMismatch(
            "x0 must be a state vector or a (rows, dim) batch")
    if not np.all(np.isfinite(y0)):
        raise InvalidParam("x0 has non-finite entries")
    shape = y0.shape
    rel_tol, abs_tol = cfg.rel_tol, cfg.abs_tol

    # The loop runs on flat states; a batch field sees its (B, d) shape.
    rhs = field if y0.ndim == 1 else (
        lambda z: field(z.reshape(shape)).reshape(-1))
    y = y0.reshape(-1)
    k = np.empty((7, y.size))
    k[0] = rhs(y)
    # Before the first-step heuristic, which divides by a zero trial step.
    if not np.all(np.isfinite(k[0])):
        raise StepFailure(f"non-finite derivative at t={t0:.6g}")
    h = _initial_step(field, y0, k[0].reshape(shape), t1 - t0, rel_tol,
                      abs_tol)

    t = t0
    n_steps = 0
    abs_y = np.abs(y)
    # A gap to t1 below the underflow guard is round-off, never a step.
    end_gap = float(16 * _EPS * max(abs(t1), 1.0))
    while t < t1:
        if n_steps >= cfg.max_steps:
            raise StepBudgetExceeded(
                f"exceeded {cfg.max_steps} steps at t={t:.6g}")
        n_steps += 1
        h = min(h, t1 - t)
        # A NaN step fails here too; halved, it would run out the budget.
        if not h > 16 * _EPS * max(abs(t), 1.0):
            raise StepFailure(f"step size underflow at t={t:.6g} (h={h:.3g})")

        for i in range(1, 6):
            k[i] = rhs(y + h * (_A_ROWS[i] @ k[:i]))
        y_new = y + h * (_A_ROWS[6] @ k[:6])
        k[6] = rhs(y_new)  # stage 7 is evaluated at the solution (FSAL)

        abs_new = np.abs(y_new)
        scale = abs_tol + rel_tol * np.maximum(abs_y, abs_new)
        err = _rms((h * (_E @ k) / scale).reshape(shape))
        # A non-finite trial halves h.  The floor only keeps 0 ** -0.2 from
        # raising: every error below it gets the full _MAX_FACTOR anyway.
        factor = 0.5 if not err < math.inf else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * max(err, 1e-10) ** -0.2))
        if not err <= 1.0:  # NaN-safe
            h *= factor
            continue

        # Accepted.
        if abs_new.max() > BLOWUP_LIMIT:
            raise Blowup(f"state norm exceeded {BLOWUP_LIMIT:.0e} at "
                         f"t={t + h:.6g}", t=t + h, state=y_new.reshape(shape))
        yield t, h, y, y_new, k

        t = t1 if t1 - (t + h) <= end_gap else t + h  # the last ends on t1
        h *= factor
        y, abs_y = y_new, abs_new
        k[0] = k[6]  # FSAL


def _dense_coeffs(h, y, y_new, k):
    """Coefficients of the quartic continuous extension over one step."""
    r = np.empty((5, y.size))
    r[0] = y
    r[1] = ydiff = y_new - y
    r[2] = bspl = h * k[0] - ydiff
    r[3] = ydiff - h * k[6] - bspl
    r[4] = h * (_D @ k)
    return r


def _dense_eval(r, theta):
    theta1 = 1.0 - theta
    return r[0] + theta * (r[1] + theta1 * (r[2] + theta * (r[3] + theta1 * r[4])))


def _refine_crossing(event, rcont, t_lo, h):
    """Bisect the dense polynomial for the upward zero of ``event``.

    The sign change is guaranteed by the caller; bisection to ~1e-13
    relative in time comfortably meets the 1e-10 absolute contract.
    """
    a, b = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (a + b)
        if float(event(_dense_eval(rcont, mid))) < 0.0:
            a = mid
        else:
            b = mid
        if (b - a) * abs(h) < 1e-14 * max(abs(t_lo), 1.0):
            break
    return t_lo + 0.5 * (a + b) * h


def integrate(field, x0, t_span, cfg=None):
    """Integrate ``dx/dt = field(x)`` over ``t_span = (t0, t1)``.

    ``x0`` is a state vector, or a (B, d) batch of row systems integrated
    on one shared step sequence.  Returns a :class:`Trajectory` with dense
    output whose last node is t1.  Raises :class:`StepFailure`,
    :class:`Blowup`, or :class:`StepBudgetExceeded` on those failures.
    """
    shape = np.shape(x0)
    times, states = [float(t_span[0])], [np.asarray(x0, dtype=float).ravel()]
    rconts = []
    for t, h, y, y_new, k in _integrate_core(field, x0, t_span,
                                             cfg or IntegratorConfig()):
        times.append(t + h)
        states.append(y_new)
        rconts.append(_dense_coeffs(h, y, y_new, k))
    times[-1] = float(t_span[1])  # t + h of the last step may round off it
    return Trajectory(np.array(times), np.array(states).reshape((-1,) + shape),
                      np.array(rconts).reshape((-1, 5) + shape))


def integrate_with_events(field, x0, t_span, cfg=None, event=None):
    """Like :func:`integrate`, also locating upward zero-crossings of
    ``event(x)``.

    Returns ``(trajectory, crossings)`` where crossings is a list of
    ``(time, state)`` from :meth:`Trajectory.crossing` on every step whose
    event value passes from negative to non-negative.
    """
    if event is None:
        raise InvalidParam("event function required")
    if np.ndim(x0) != 1:
        raise DimensionMismatch("events need a 1-D state vector x0")
    traj = integrate(field, x0, t_span, cfg)
    g = np.array([float(event(x)) for x in traj.states])
    return traj, [traj.crossing(i, event) for i in _upward_steps(g)]


def _final_state(field, x0, t_span, cfg):
    """The last state of :func:`integrate`, keeping no trajectory."""
    for _, _, _, y_new, _ in _integrate_core(field, x0, t_span, cfg):
        pass
    return y_new.reshape(np.shape(x0))
