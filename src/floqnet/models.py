"""Oscillator model registry.

Each model bundles a named autonomous vector field, per state and as a
batch over the rows of an (n, m) array, its analytic Jacobian as such a
batch, default parameters and a sensible initial condition.  Models are
immutable and safe to share between threads.

Registered models:

``vdp``
    Van der Pol oscillator, x1' = x2, x2' = mu*(1 - x1^2)*x2 - x1.
``repressilator``
    Three-gene cyclic repression circuit, six states ordered
    (m1, p1, m2, p2, m3, p3) so that a 0/1 diagonal coupling mask
    [0,1,0,1,0,1] selects exactly the protein states.
``linear_rotation``
    Harmonic rotation x1' = x2, x2' = -x1; period 2*pi, analytic
    solutions.  A test fixture, not a self-sustained oscillator.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import InvalidParam

__all__ = [
    "OscillatorModel",
    "vdp_model",
    "repressilator_model",
    "linear_rotation_model",
    "get_model",
    "MODEL_NAMES",
]


@dataclass(frozen=True)
class OscillatorModel:
    """A named vector field f: R^m -> R^m with analytic Jacobian.

    ``node_field`` maps an (n, m) array of states to their (n, m) fields
    and ``node_jacobian`` to their (n, m, m) Jacobians; the variational
    passes, the Newton search and every network right-hand side run on
    them, and ``field`` drives the scout and search legs.  The two field
    forms must agree, so a :func:`dataclasses.replace` that swaps
    ``field`` must swap ``node_field`` as well.  ``jacobian`` is the row
    view ``node_jacobian(x[None])[0]`` of the batch form the model was
    built with; nothing in the package calls it.
    """

    name: str
    dim: int
    params: dict
    field: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    default_initial: np.ndarray
    node_field: Callable[[np.ndarray], np.ndarray]
    node_jacobian: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        x0 = np.asarray(self.default_initial, dtype=float)
        if x0.shape != (self.dim,):
            raise InvalidParam(
                f"default_initial must have shape ({self.dim},), got {x0.shape}"
            )
        object.__setattr__(self, "default_initial", x0)


def _model(name, params, field, node_field, node_jacobian, initial):
    """An :class:`OscillatorModel` whose ``jacobian`` is the row view of
    ``node_jacobian``."""
    return OscillatorModel(
        name=name, dim=len(initial), params=params, field=field,
        jacobian=lambda x: node_jacobian(x[None])[0],
        default_initial=np.array(initial, dtype=float),
        node_field=node_field, node_jacobian=node_jacobian,
    )


def vdp_model(mu: float = 1.0) -> OscillatorModel:
    """Van der Pol oscillator with finite damping parameter ``mu > 0``."""
    if not 0 < mu < math.inf:
        raise InvalidParam(f"vdp requires finite mu > 0, got {mu}")
    mu = float(mu)

    def f(x):
        x1, x2 = x.tolist()
        return np.array([x2, mu * (1.0 - _pow(x1, 2)) * x2 - x1])

    def node_f(xs):
        x1, x2 = xs[:, 0], xs[:, 1]
        out = np.empty_like(xs)
        out[:, 0] = x2
        out[:, 1] = mu * (1.0 - x1 ** 2) * x2 - x1
        return out

    def node_jac(xs):
        x1, x2 = xs[:, 0], xs[:, 1]
        out = np.zeros((len(xs), 2, 2))
        out[:, 0, 1] = 1.0
        out[:, 1, 0] = -2.0 * mu * x1 * x2 - 1.0
        out[:, 1, 1] = mu * (1.0 - x1 ** 2)
        return out

    return _model("vdp", {"mu": mu}, f, node_f, node_jac, [2.0, 0.0])


def _pow(a, b):
    """a ** b (C ``pow``, as on numpy scalars), but inf on overflow as in
    numpy, not ``OverflowError``: the integrator retries a step whose
    stages left the finite range.  Bases here are >= 0 or squared."""
    try:
        return a ** b
    except OverflowError:
        return math.inf


def _warn_clipped():
    warnings.warn("negative concentration clipped to 0 in Hill term",
                  RuntimeWarning, stacklevel=3)


def _hill(p, alpha, n):
    """alpha / (1 + p^n) with p clipped to zero from below.

    Negative concentrations only ever arise as numerical artifacts (e.g.
    transients in coupled networks); they are clipped with a warning so
    fractional Hill exponents stay real-valued.
    """
    if p < 0.0:
        _warn_clipped()
        p = 0.0
    return alpha / (1.0 + _pow(p, n))


def repressilator_model(alpha: float = 1000.0, alpha0: float = 1.0,
                        beta: float = 5.0, n: float = 2.0) -> OscillatorModel:
    """Three-gene repressilator.

    State order (m1, p1, m2, p2, m3, p3):

        dm_j/dt = -m_j + alpha / (1 + p_{j-1}^n) + alpha0
        dp_j/dt = -beta * (p_j - m_j),        j = 1, 2, 3,  p_0 == p_3

    Every parameter is finite; the Hill exponent ``n`` any real >= 1.
    """
    if not (0 < alpha < math.inf and math.isfinite(alpha0)
            and 0 < beta < math.inf and 1 <= n < math.inf):
        raise InvalidParam(
            "repressilator requires finite alpha > 0, alpha0, beta > 0 and "
            f"n >= 1, got alpha={alpha}, alpha0={alpha0}, beta={beta}, n={n}")
    alpha, alpha0, beta, n = float(alpha), float(alpha0), float(beta), float(n)

    # indices: m_j at 2j, p_j at 2j+1; repressor of gene j is p_{j-1}
    rep_idx = (5, 1, 3)

    def f(x):
        x = x.tolist()
        out = np.empty(6)
        for j in range(3):
            m, p = x[2 * j], x[2 * j + 1]
            out[2 * j] = -m + _hill(x[rep_idx[j]], alpha, n) + alpha0
            out[2 * j + 1] = -beta * (p - m)
        return out

    # The batch forms: mRNAs sit in the even columns, proteins in the odd,
    # and the repressor of the mRNA in column 2j is column rep_idx[j].
    rep = np.array(rep_idx)
    hill_entries = 12 * np.arange(3) + rep  # J[2j, rep_idx[j]], flattened
    jac_const = np.zeros((6, 6))
    for j in range(3):
        jac_const[2 * j, 2 * j] = -1.0
        jac_const[2 * j + 1, 2 * j] = beta
        jac_const[2 * j + 1, 2 * j + 1] = -beta

    def node_f(xs):
        p_rep = xs.take(rep, axis=1)
        if p_rep.min() < 0.0:  # one warning per batch
            _warn_clipped()
            p_rep = np.maximum(p_rep, 0.0)
        m = xs[:, 0::2]
        out = np.empty_like(xs)
        out[:, 0::2] = -m + alpha / (1.0 + p_rep ** n) + alpha0
        out[:, 1::2] = -beta * (xs[:, 1::2] - m)
        return out

    def node_jac(xs):
        p_rep = np.maximum(xs.take(rep, axis=1), 0.0)
        out = np.repeat(jac_const[None], len(xs), axis=0)
        # d/dp of alpha/(1+p^n) = -alpha*n*p^(n-1) / (1+p^n)^2
        out.reshape(len(xs), 36)[:, hill_entries] = (
            -alpha * n * p_rep ** (n - 1.0) / (1.0 + p_rep ** n) ** 2)
        return out

    return _model(
        "repressilator",
        {"alpha": alpha, "alpha0": alpha0, "beta": beta, "n": n},
        f, node_f, node_jac, [0.0, 1.0, 0.0, 3.0, 0.0, 5.0])


def linear_rotation_model() -> OscillatorModel:
    """Harmonic rotation: every circle is a period-2*pi orbit and the
    one-period state transition matrix is the identity."""

    def f(x):
        return np.array([x[1], -x[0]])

    jac_const = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def node_f(xs):
        out = np.empty_like(xs)
        out[:, 0] = xs[:, 1]
        out[:, 1] = -xs[:, 0]
        return out

    def node_jac(xs):
        return np.repeat(jac_const[None], len(xs), axis=0)

    return _model("linear_rotation", {}, f, node_f, node_jac, [1.0, 0.0])


_BUILDERS = {
    "vdp": vdp_model,
    "repressilator": repressilator_model,
    "linear_rotation": linear_rotation_model,
}

MODEL_NAMES = tuple(sorted(_BUILDERS))


def get_model(name: str, params: dict | None = None) -> OscillatorModel:
    """Build a registered model by name with parameter overrides."""
    if name not in _BUILDERS:
        raise InvalidParam(
            f"unknown model {name!r}; known models: {', '.join(MODEL_NAMES)}"
        )
    try:
        return _BUILDERS[name](**(params or {}))
    except TypeError as exc:
        raise InvalidParam(f"bad parameters for model {name!r}: {exc}") from exc
