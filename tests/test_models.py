"""Tests for the oscillator model registry: vector fields, analytic
Jacobians against finite differences, and parameter validation."""
import warnings

import numpy as np
import pytest

from floqnet.exceptions import InvalidParam
from floqnet.models import get_model, linear_rotation_model, \
    repressilator_model, vdp_model
from floqnet.ode import integrate


def central_diff_jacobian(field, x, h=1e-6):
    dim = x.size
    jac = np.zeros((dim, dim))
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h * max(1.0, abs(x[j]))
        jac[:, j] = (field(x + step) - field(x - step)) / (2 * step[j])
    return jac


# Bounding boxes of the attractors, for the Jacobian consistency sweep.
_BOXES = {
    "vdp": (np.array([-2.5, -3.5]), np.array([2.5, 3.5])),
    "repressilator": (np.full(6, 0.5), np.full(6, 80.0)),
    "linear_rotation": (np.array([-1.5, -1.5]), np.array([1.5, 1.5])),
}


class TestVdp:
    def test_origin_is_equilibrium(self):
        assert np.array_equal(vdp_model(1.0).field(np.zeros(2)), np.zeros(2))

    def test_direct_substitution(self):
        assert np.allclose(vdp_model(1.0).field(np.array([1.0, 1.0])),
                           [1.0, -1.0])

    def test_jacobian_at_origin_unstable_focus(self):
        mu = 1.0
        jac = vdp_model(mu).jacobian(np.zeros(2))
        assert np.array_equal(jac, [[0.0, 1.0], [-1.0, mu]])
        eig = np.linalg.eigvals(jac)
        # (mu +/- sqrt(mu^2 - 4)) / 2: complex with positive real part
        assert np.allclose(sorted(eig.real), [mu / 2, mu / 2])
        assert np.allclose(sorted(eig.imag),
                           sorted([np.sqrt(4 - mu ** 2) / 2,
                                   -np.sqrt(4 - mu ** 2) / 2]))

    def test_invalid_mu(self):
        for mu in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InvalidParam):
                vdp_model(mu)

    def test_attractor_stays_in_box(self):
        model = vdp_model(1.0)
        traj = integrate(model.field, [2.0, 0.0], (0.0, 50.0))
        grid = np.linspace(5.0, 50.0, 2001)
        states = traj.eval(grid)
        assert np.abs(states[:, 0]).max() <= 3.0
        assert np.abs(states[:, 1]).max() <= 4.0


class TestRepressilator:
    def test_zero_state_mrna_rates(self):
        model = repressilator_model(alpha=1000.0, alpha0=1.0, n=2.0)
        rates = model.field(np.zeros(6))
        assert np.allclose(rates[[0, 2, 4]], 1001.0)

    def test_protein_rate_vanishes_when_tracking(self):
        model = repressilator_model(beta=5.0)
        x = np.array([2.0, 2.0, 7.0, 7.0, 0.4, 0.4])  # p_j == m_j
        rates = model.field(x)
        assert np.allclose(rates[[1, 3, 5]], 0.0)

    def test_symmetric_equilibrium(self):
        # bisection oracle on s*(1+s^2) = 1001 + s^2 gives s = 10.313585158
        s = 10.313585158377
        model = repressilator_model()
        rates = model.field(np.full(6, s))
        assert np.abs(rates).max() < 1e-8

    def test_state_ordering_puts_proteins_on_odd_slots(self):
        # mask [0,1,0,1,0,1] must select exactly the p states: perturbing
        # a protein changes only terms that depend on proteins
        model = repressilator_model()
        x = np.full(6, 5.0)
        bumped = x.copy()
        bumped[1] += 1.0  # p1
        delta = model.field(bumped) - model.field(x)
        # p1 feeds m2 (Hill) and its own relaxation
        assert delta[1] != 0.0 and delta[2] != 0.0
        assert np.allclose(delta[[0, 3, 4]], 0.0)

    def test_negative_concentration_clipped_with_warning(self):
        model = repressilator_model()
        x = np.zeros(6)
        x[5] = -1.0
        with pytest.warns(RuntimeWarning):
            rates = model.field(x)
        assert np.all(np.isfinite(rates))
        # clipped p3 = 0 gives full expression for m1
        assert rates[0] == pytest.approx(1001.0)

    def test_invalid_params(self):
        for params in ({"alpha": -1.0}, {"beta": 0.0}, {"n": 0.5},
                       {"alpha": np.inf}, {"beta": np.inf}, {"n": np.inf},
                       {"alpha0": np.nan}, {"alpha0": np.inf},
                       {"alpha0": -np.inf}):
            with pytest.raises(InvalidParam):
                repressilator_model(**params)


class TestRotation:
    def test_field(self):
        assert np.array_equal(linear_rotation_model().field(
            np.array([1.0, 0.0])), [0.0, -1.0])

    def test_constant_jacobian(self):
        model = linear_rotation_model()
        expected = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for x in (np.zeros(2), np.array([3.0, -2.0])):
            assert np.array_equal(model.jacobian(x), expected)


def numpy_indexed_vdp(mu):
    """The vdp field and Jacobian as numpy-scalar expressions, the
    reference for the float-unpacking field and for the batch Jacobian."""
    def f(x):
        return np.array([x[1], mu * (1.0 - x[0] ** 2) * x[1] - x[0]])

    def jac(x):
        return np.array([
            [0.0, 1.0],
            [-2.0 * mu * x[0] * x[1] - 1.0, mu * (1.0 - x[0] ** 2)],
        ])

    return f, jac


def numpy_indexed_repressilator(alpha, alpha0, beta, n):
    """The repressilator field and Jacobian as numpy-scalar expressions
    (repressors clipped at 0), the reference for the float-unpacking field
    and for the batch Jacobian."""
    rep_idx = (5, 1, 3)

    def f(x):
        out = np.empty(6)
        for j in range(3):
            m, p = x[2 * j], x[2 * j + 1]
            out[2 * j] = -m + alpha / (1.0 + max(x[rep_idx[j]], 0.0) ** n) \
                + alpha0
            out[2 * j + 1] = -beta * (p - m)
        return out

    def jac(x):
        J = np.zeros((6, 6))
        for j in range(3):
            p_rep = max(x[rep_idx[j]], 0.0)
            J[2 * j, 2 * j] = -1.0
            J[2 * j, rep_idx[j]] = (
                -alpha * n * p_rep ** (n - 1.0) / (1.0 + p_rep ** n) ** 2
            )
            J[2 * j + 1, 2 * j] = beta
            J[2 * j + 1, 2 * j + 1] = -beta
        return J

    return f, jac


def reference_jacobian(model):
    """The per-state Jacobian that the rows of ``model.node_jacobian``
    must match."""
    if model.name == "vdp":
        return numpy_indexed_vdp(**model.params)[1]
    if model.name == "repressilator":
        return numpy_indexed_repressilator(**model.params)[1]
    return lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestFieldsBitwise:
    """Fields computed on unpacked Python floats equal the numpy-scalar
    expressions bit for bit (both use C pow)."""

    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.87])
    def test_vdp(self, mu):
        model = vdp_model(mu)
        f = numpy_indexed_vdp(mu)[0]
        rng = np.random.default_rng(11)
        states = rng.standard_normal((2000, 2)) \
            * rng.choice([1e-3, 1.0, 3.0, 1e3], size=(2000, 1))
        # Squares that overflow give inf, as numpy scalars do.
        states = np.vstack([states, [[1e200, 1.0], [-1e200, -2.0]]])
        for x in states:
            with np.errstate(over="ignore", invalid="ignore"):
                ref_f = f(x)
            assert np.array_equal(model.field(x), ref_f)

    @pytest.mark.parametrize("params", [
        {"alpha": 1000.0, "alpha0": 1.0, "beta": 5.0, "n": 2.0},
        {"alpha": 600.0, "alpha0": 0.5, "beta": 3.0, "n": 2.5},
    ])
    def test_repressilator(self, params):
        model = repressilator_model(**params)
        f = numpy_indexed_repressilator(**params)[0]
        rng = np.random.default_rng(12)
        # About one state in six has a negative repressor.
        states = rng.uniform(-5.0, 80.0, size=(2000, 6))
        for x in states:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = model.field(x)
            negative = bool(np.any(x[[1, 3, 5]] < 0.0))
            assert any(issubclass(w.category, RuntimeWarning)
                       for w in caught) == negative
            assert np.array_equal(out, f(x))


class TestJacobianConsistency:
    @pytest.mark.parametrize("name", ["vdp", "repressilator",
                                      "linear_rotation"])
    def test_matches_finite_differences(self, name):
        model = get_model(name)
        lo, hi = _BOXES[name]
        rng = np.random.default_rng(hash(name) % 2 ** 32)
        xs = lo + (hi - lo) * rng.random((100, model.dim))
        for x, analytic in zip(xs, model.node_jacobian(xs)):
            numeric = central_diff_jacobian(model.field, x)
            scale = max(np.abs(analytic).max(), 1.0)
            assert np.abs(analytic - numeric).max() < 1e-5 * scale


class TestNodeBatches:
    """The (n, m) batch forms against the per-state field and the
    numpy-scalar Jacobian."""

    @pytest.mark.parametrize("model", [
        vdp_model(0.5), vdp_model(2.0), linear_rotation_model(),
        repressilator_model(),
        repressilator_model(alpha=600.0, alpha0=0.5, beta=3.0, n=2.5),
    ], ids=["vdp-0.5", "vdp-2", "rotation", "repressilator",
            "repressilator-n2.5"])
    def test_rows_match_per_state_calls(self, model):
        rng = np.random.default_rng(13)
        # Repressilator states reach below zero, so about one row in six
        # has a negative repressor.
        xs = rng.uniform(-5.0, 80.0, size=(500, model.dim)) \
            if model.name == "repressilator" \
            else 3.0 * rng.standard_normal((500, model.dim))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fields = model.node_field(xs)
            jacobians = model.node_jacobian(xs)
        assert len(caught) <= 1
        assert fields.shape == xs.shape
        assert jacobians.shape == (len(xs), model.dim, model.dim)
        ref_jac = reference_jacobian(model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for x, f, jac in zip(xs, fields, jacobians):
                np.testing.assert_allclose(f, model.field(x), rtol=1e-13,
                                           atol=0.0)
                np.testing.assert_allclose(jac, ref_jac(x), rtol=1e-13,
                                           atol=0.0)

    def test_repressilator_warns_once_per_call(self):
        model = repressilator_model()
        xs = np.full((4, 6), 2.0)
        xs[:, 5] = -1.0
        with pytest.warns(RuntimeWarning) as caught:
            out = model.node_field(xs)
        assert len(caught) == 1
        assert out[:, 0] == pytest.approx(999.0)  # -m1 + alpha + alpha0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model.node_field(np.full((4, 6), 2.0))


class TestRegistry:
    def test_lookup_and_params(self):
        model = get_model("vdp", {"mu": 2.5})
        assert model.params["mu"] == 2.5

    def test_unknown_name(self):
        with pytest.raises(InvalidParam, match="unknown model"):
            get_model("lorenz")

    def test_unknown_param(self):
        with pytest.raises(InvalidParam):
            get_model("vdp", {"sigma": 10.0})
