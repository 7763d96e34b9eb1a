"""Adaptive explicit Runge-Kutta integration with dense output.

A single, hard-validated integrator: the Dormand-Prince 5(4) embedded pair
with its free 4th-order continuous extension, FSAL, and the standard step
controller (Hairer, Norsett and Wanner, *Solving ODEs I*, II.4), which
alone sizes each step.  Every attempt counts against the step budget.  A
trial is rejected unless its error norm is <= 1 (NaN included); one factor
shrinks a rejected step and grows an accepted one, and a non-finite trial
halves it.  The step ending within round-off of t1 ends on t1.

Upward zero-crossings of an event function, for every caller, are found
by :meth:`Trajectory.crossings` on stored steps: a sign change between
two nodes marks the step, and bisection on that step's dense polynomial
refines the time.

The solver handles autonomous vector fields only (``field(x) -> dx/dt``),
which is all this package needs; time-dependence such as coupling
activation is handled by piecewise integration at the call site so error
control never straddles a discontinuity.

``IntegratorConfig``'s defaults are deliberately tight (rel 1e-9 /
abs 1e-11) and serve the spectral route (limit cycle, monodromy, MSF):
those computations amplify one-period trajectory error directly into
Floquet multiplier error.  The time-domain route answers a coarser
question, a final synchronization error against 1e-3, so network
simulation defaults to ``network.SIMULATE_INTEGRATOR`` (rel 1e-7 /
abs 1e-9) instead: the global error scales with the tolerance and stays
orders of magnitude below that threshold.
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

# Grid points per block of dense evaluation; steps per streamed run.
_EVAL_BLOCK = 256

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
    """Solution of one integration: nodes plus what each step's quartic
    interpolant is built from.

    Per accepted step it keeps three state-sized rows: the node state, the
    node slope f(x) (the FSAL stage, so one per node, shared by the steps
    on either side) and the quartic row h * (_D @ k); plus the step size h.
    ``eval`` at a stored node time returns the stored state exactly;
    between nodes it builds the 4th-order continuous extension of the
    integrator, for the steps it touches only.
    """

    def __init__(self, times, states, slopes, quartic, h):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self._slopes = slopes    # (n_steps + 1, *state shape)
        self._quartic = quartic  # (n_steps, *state shape)
        self._h = h              # (n_steps,)

    def _coeffs(self, step):
        """:func:`_dense_coeffs` of step ``step``, or of an index array of
        steps stacked on a leading axis."""
        h = self._h[step]
        if np.ndim(step):
            h = h.reshape(h.shape + (1,) * (self.states.ndim - 1))
        return _dense_coeffs(h, self.states[step], self.states[step + 1],
                             self._slopes[step], self._slopes[step + 1],
                             self._quartic[step])

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
        # In blocks of points, so the coefficient rows of a long grid are
        # never all held at once.
        out = np.empty((flat.size,) + self.states.shape[1:])
        for lo in range(0, flat.size, _EVAL_BLOCK):
            block = slice(lo, lo + _EVAL_BLOCK)
            out[block] = _dense_eval(self._coeffs(step[block]), theta[block])
        exact = self.times[idx] == flat
        out[exact] = self.states[idx[exact]]
        return out[0] if t_arr.ndim == 0 else out

    def crossings(self, event):
        """``(t, state)`` of every upward zero of ``event``: each step whose
        node values go from < 0 to >= 0, bisected on its dense
        polynomial."""
        g = np.array([float(event(x)) for x in self.states])
        out = []
        for i in np.flatnonzero((g[:-1] < 0.0) & (g[1:] >= 0.0)):
            t = _refine_crossing(event, self._coeffs(i), self.times[i],
                                 self.times[i + 1] - self.times[i])
            out.append((t, self.eval(t)))
        return out


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


def _quartic_row(h, k):
    """The quartic-term row h * (_D @ k) of one step's dense polynomial."""
    return h * (_D @ k)


def _dense_coeffs(h, y, y_new, f0, f1, quartic):
    """Coefficient rows (y, d, h f0 - d, d - h f1 - (h f0 - d), quartic),
    d = y_new - y, of the quartic continuous extension over one step, from
    its end states, end slopes f0, f1 and :func:`_quartic_row`.  Stacked
    steps on a leading axis take an ``h`` that broadcasts over them."""
    ydiff = y_new - y
    bspl = h * f0 - ydiff
    return y, ydiff, bspl, ydiff - h * f1 - bspl, quartic


def _dense_eval(r, theta):
    """Horner's rule r0 + t(r1 + s(r2 + t(r3 + s r4))), t = theta and
    s = 1 - theta, on coefficient rows ``r``, in place on one output."""
    theta1 = 1.0 - theta
    out = theta1 * r[4]
    out += r[3]
    out *= theta
    out += r[2]
    out *= theta1
    out += r[1]
    out *= theta
    out += r[0]
    return out


def _refine_crossing(event, coeffs, t_lo, h):
    """Bisect the dense polynomial for the upward zero of ``event``.

    The sign change is guaranteed by the caller; bisection to ~1e-13
    relative in time comfortably meets the 1e-10 absolute contract.
    """
    a, b = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (a + b)
        if float(event(_dense_eval(coeffs, mid))) < 0.0:
            a = mid
        else:
            b = mid
        if (b - a) * abs(h) < 1e-14 * max(abs(t_lo), 1.0):
            break
    return t_lo + 0.5 * (a + b) * h


def _trajectories(field, x0, t_span, cfg, block=math.inf):
    """Yield the :class:`Trajectory` of each run of at most ``block``
    consecutive accepted steps of one integration, in order.  Neighbouring
    runs share their boundary node; the last ends on t1."""
    shape = np.shape(x0)
    times, states = [float(t_span[0])], [np.asarray(x0, dtype=float).ravel()]
    slopes, quartic, hs = [], [], []
    for t, h, y, y_new, k in _integrate_core(field, x0, t_span, cfg):
        if len(hs) == block:  # the run ends on this step's start node
            slopes.append(k[0].copy())
            yield _trajectory(times, states, slopes, quartic, hs, shape)
            times.append(t)
            states.append(y)
        times.append(t + h)
        states.append(y_new)
        slopes.append(k[0].copy())
        quartic.append(_quartic_row(h, k))
        hs.append(h)
    slopes.append(k[6].copy())  # the last node's; every span takes a step
    times[-1] = float(t_span[1])  # t + h of the last step may round off it
    yield _trajectory(times, states, slopes, quartic, hs, shape)


def _trajectory(times, states, slopes, quartic, hs, shape):
    """The :class:`Trajectory` of a run's row lists, each emptied once
    stacked so its rows go before the next list is stacked."""
    def stack(rows, row_shape=shape):
        out = np.array(rows).reshape((-1,) + row_shape)
        rows.clear()
        return out
    return Trajectory(stack(times, ()), stack(states), stack(slopes),
                      stack(quartic), stack(hs, ()))


def integrate(field, x0, t_span, cfg=None):
    """Integrate ``dx/dt = field(x)`` over ``t_span = (t0, t1)``.

    ``x0`` is a state vector, or a (B, d) batch of row systems integrated
    on one shared step sequence.  Returns a :class:`Trajectory` with dense
    output whose last node is t1.  Raises :class:`StepFailure`,
    :class:`Blowup`, or :class:`StepBudgetExceeded` on those failures.
    """
    return next(_trajectories(field, x0, t_span, cfg or IntegratorConfig()))


def _sample(field, x0, t_span, times, out, cfg):
    """Fill ``out`` with one integration's states at the sorted ``times``
    within ``t_span``, evaluating each run of :data:`_EVAL_BLOCK` steps
    as it ends and then dropping it; return the final state."""
    lo = 0
    for traj in _trajectories(field, x0, t_span, cfg, _EVAL_BLOCK):
        hi = np.searchsorted(times, traj.times[-1], side="right")
        out[lo:hi] = traj.eval(times[lo:hi])
        lo = hi
    return traj.states[-1].copy()


def integrate_with_events(field, x0, t_span, cfg=None, event=None):
    """Like :func:`integrate`, also locating upward zero-crossings of
    ``event(x)``.

    Returns ``(trajectory, trajectory.crossings(event))``: a list of
    ``(time, state)``, one per step whose event value passes from negative
    to non-negative (:meth:`Trajectory.crossings`).
    """
    if event is None:
        raise InvalidParam("event function required")
    if np.ndim(x0) != 1:
        raise DimensionMismatch("events need a 1-D state vector x0")
    traj = integrate(field, x0, t_span, cfg)
    return traj, traj.crossings(event)


def _final_state(field, x0, t_span, cfg):
    """The last state of :func:`integrate`, keeping no trajectory."""
    for _, _, _, y_new, _ in _integrate_core(field, x0, t_span, cfg):
        pass
    return y_new.reshape(np.shape(x0))
