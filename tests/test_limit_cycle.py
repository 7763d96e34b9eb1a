"""Tests for limit-cycle location: periods against independent reference
oracles, agreement with the Poincare-return search that shooting Newton
replaced, closure quality, and the failure taxonomy."""
import dataclasses

import numpy as np
import pytest

from floqnet.exceptions import DimensionMismatch, FixedPointConvergence, \
    NoCrossings, NotPeriodic
from floqnet.limit_cycle import find_limit_cycle
from floqnet.models import OscillatorModel, linear_rotation_model, \
    repressilator_model, vdp_model
from floqnet.ode import IntegratorConfig, integrate
from oracles import poincare_cycle

# Reference oracle values (rel_tol 1e-12 integration, 5 averaged Poincare
# returns after a 100-time-unit transient; gap spread 7e-13).
VDP_PERIOD_REF = 6.663286859322
REP_PERIOD_REF = 7.992040324229  # regression baseline, same oracle

# Same oracle over a 300-time-unit settle (rel_tol 1e-12, abs_tol 1e-14;
# an independent DOP853 integration at rel_tol 1e-13 agrees to 2e-13).
PERIOD_REFS = {
    ("vdp", 0.5): 6.380675801773,
    ("vdp", 1.0): 6.663286859322,
    ("vdp", 2.0): 7.629874479674,
    ("repressilator", 500.0): 7.259448133544,
    ("repressilator", 1000.0): 7.992040324223,
    ("repressilator", 2000.0): 8.778405261486,
}


def _build(name, param):
    if name == "vdp":
        return vdp_model(param)
    return repressilator_model(alpha=param)


def _linear_model(name, a, center, x0):
    """x' = a (x - center), with all four field forms."""
    return OscillatorModel(
        name=name, dim=2, params={},
        field=lambda x: a @ (x - center), jacobian=lambda x: a.copy(),
        node_field=lambda xs: (xs - center) @ a.T,
        node_jacobian=lambda xs: np.repeat(a[None], len(xs), axis=0),
        default_initial=x0,
    )


class TestRotationCycle:
    def test_period_is_two_pi(self, rotation_cycle):
        assert rotation_cycle.period == pytest.approx(2 * np.pi, abs=1e-8)

    def test_samples_on_unit_circle(self, rotation_cycle):
        radii = np.linalg.norm(rotation_cycle.samples, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-6


class TestVdpCycle:
    def test_period_against_reference(self, vdp_cycle):
        assert vdp_cycle.period == pytest.approx(VDP_PERIOD_REF, rel=1e-3)
        # the finder does far better than the acceptance bound
        assert vdp_cycle.period == pytest.approx(VDP_PERIOD_REF, rel=1e-8)

    def test_closure(self, vdp_cycle):
        assert vdp_cycle.closure_residual < 1e-6

    def test_reintegration_returns_to_anchor(self, vdp, vdp_cycle):
        traj = integrate(vdp.field, vdp_cycle.anchor,
                         (0.0, vdp_cycle.period))
        drift = np.linalg.norm(traj.states[-1] - vdp_cycle.anchor) \
            / np.linalg.norm(vdp_cycle.anchor)
        assert drift < 1e-6

    def test_period_independent_of_initial_condition(self, vdp, vdp_cycle):
        other = find_limit_cycle(vdp, x0=[0.1, -1.7])
        assert other.period == pytest.approx(vdp_cycle.period, rel=1e-6)

    def test_period_independent_of_anchor_phase(self, vdp, vdp_cycle):
        # start from a mid-cycle state: different section point, same orbit
        x_mid = vdp_cycle.samples[len(vdp_cycle.samples) // 3]
        rebuilt = find_limit_cycle(vdp, x0=x_mid)
        assert rebuilt.period == pytest.approx(vdp_cycle.period, rel=1e-8)


class TestRepressilatorCycle:
    def test_period_and_closure(self, rep_cycle):
        assert rep_cycle.closure_residual < 1e-6
        assert rep_cycle.period == pytest.approx(REP_PERIOD_REF, rel=1e-6)


class TestPeriodAccuracy:
    @pytest.mark.parametrize("name, param", sorted(PERIOD_REFS))
    def test_period_against_oracle(self, name, param):
        lc = find_limit_cycle(_build(name, param))
        ref = PERIOD_REFS[name, param]
        assert abs(lc.period - ref) / ref < 1e-9

    @pytest.mark.parametrize("name, param", [
        ("vdp", 0.5), ("vdp", 1.0), ("vdp", 2.0), ("vdp", 5.0),
        ("repressilator", 500.0), ("repressilator", 1000.0),
        ("repressilator", 2000.0)])
    def test_period_against_tight_search(self, name, param):
        # The chord steps and the search without a settle leg against the
        # same search at rel_tol 1e-12: measured at most 2.0e-12 (vdp
        # mu = 5), elsewhere at most 1.4e-13.
        model = _build(name, param)
        ref = find_limit_cycle(
            model, cfg=IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
        lc = find_limit_cycle(model)
        assert abs(lc.period - ref.period) / ref.period <= 1e-11

    @pytest.mark.parametrize("period", [100.0, 300.0, 600.0])
    def test_slow_cycle_longer_than_scout_window(self, period):
        # Periods past the 20-unit scout: the search runs on in 20-unit
        # legs for the two crossings that seed the period.
        # The model contract: swapping the field swaps its batch forms.
        omega = 2 * np.pi / period
        base = linear_rotation_model()
        slow = dataclasses.replace(
            base, name="slow_rotation",
            field=lambda x: omega * base.field(x),
            jacobian=lambda x: omega * base.jacobian(x),
            node_field=lambda xs: omega * base.node_field(xs),
            node_jacobian=lambda xs: omega * base.node_jacobian(xs),
        )
        lc = find_limit_cycle(slow)
        assert abs(lc.period - period) < 1e-8
        assert lc.closure_residual < 1e-6


class TestAgainstPoincareOracle:
    """Multiple-shooting Newton against the Poincare-return search it
    replaced (the ``poincare_cycle`` oracle), on the same section, chosen
    by the same helper from the same scout.  The worst sample gap measured
    is 7.2e-9 of the sample scale, at vdp mu = 0.02, whose weakly
    contracting returns leave the oracle's own anchor about that far off;
    elsewhere it is at most 1.9e-9."""

    @pytest.mark.parametrize("name, param", [
        ("vdp", 0.02), ("vdp", 0.5), ("vdp", 1.0), ("vdp", 2.0),
        ("repressilator", 500.0), ("repressilator", 1000.0),
        ("repressilator", 2000.0)])
    def test_period_and_samples_agree(self, name, param):
        model = _build(name, param)
        lc, ref = find_limit_cycle(model), poincare_cycle(model)
        assert abs(lc.period - ref.period) / ref.period <= 1e-9
        scale = np.abs(ref.samples).max()
        assert np.abs(lc.samples - ref.samples).max() <= 1e-6 * scale
        assert lc.closure_residual <= 1e-10


class TestStreamedSearch:
    @pytest.mark.parametrize("name, param", [
        ("vdp", 2.0), ("repressilator", 1000.0)])
    def test_field_call_budget(self, name, param):
        # Machine-independent work count, batch forms included, since the
        # Newton passes call only them: 4 938 (vdp) and 6 003
        # (repressilator) calls, against 17 746 and 12 088 with a settle
        # leg, a 60-unit scout and full Newton steps at the tight
        # tolerances, 34 970 and 28 652 for the Poincare-return search and
        # 67 876 and 83 430 for re-integrating its returns.
        model, calls = _build(name, param), [0]

        def counted(fn):
            def call(x):
                calls[0] += 1
                return fn(x)
            return call
        find_limit_cycle(dataclasses.replace(
            model, field=counted(model.field),
            node_field=counted(model.node_field),
            node_jacobian=counted(model.node_jacobian)))
        assert calls[0] <= 8_000


class TestFailureModes:
    def test_fixed_point_convergence(self):
        # damped rotation spirals onto the origin
        a = np.array([[-0.5, 1.0], [-1.0, -0.5]])

        def field(x):
            return np.array([x[1] - 0.5 * x[0], -x[0] - 0.5 * x[1]])

        def jac(x):
            return a.copy()

        damped = OscillatorModel(
            name="damped", dim=2, params={}, field=field, jacobian=jac,
            default_initial=np.array([1.0, 0.0]),
            node_field=lambda xs: xs @ a.T,
            node_jacobian=lambda xs: np.repeat(a[None], len(xs), axis=0),
        )
        with pytest.raises(FixedPointConvergence):
            find_limit_cycle(damped)

    def test_no_crossings_for_monotone_drift(self):
        # x1 strictly decreasing: the section is never crossed upward
        drift = OscillatorModel(
            name="drift", dim=2, params={},
            field=lambda x: np.array([-1.0, 0.0]),
            jacobian=lambda x: np.zeros((2, 2)),
            default_initial=np.array([0.0, 0.0]),
            node_field=lambda xs: np.tile([-1.0, 0.0], (len(xs), 1)),
            node_jacobian=lambda xs: np.zeros((len(xs), 2, 2)),
        )
        with pytest.raises(NoCrossings):
            find_limit_cycle(drift)

    def test_not_periodic_for_single_crossing(self):
        # x1 strictly increasing: exactly one upward crossing, no return
        drift = OscillatorModel(
            name="drift_up", dim=2, params={},
            field=lambda x: np.array([1.0, 0.0]),
            jacobian=lambda x: np.zeros((2, 2)),
            default_initial=np.array([0.0, 0.0]),
            node_field=lambda xs: np.tile([1.0, 0.0], (len(xs), 1)),
            node_jacobian=lambda xs: np.zeros((len(xs), 2, 2)),
        )
        with pytest.raises(NotPeriodic):
            find_limit_cycle(drift)

    def test_newton_without_a_cycle_is_not_periodic(self):
        # A growing spiral has no cycle through its section: the shooting
        # iteration wanders until its iteration cap.
        a = np.array([[0.005, 1.0], [-1.0, 0.005]])
        spiral = _linear_model("spiral", a, np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(NotPeriodic, match="did not converge"):
            find_limit_cycle(spiral)

    def test_newton_collapse_onto_a_fixed_point_raises(self):
        # A growing spiral about (0, 3) whose scout swings x1 about a mean
        # of 0: the section runs through the fixed point, and the shooting
        # iteration lands on it.  Without the collapse check it returns a
        # zero-amplitude cycle with a closure residual of 0.
        a = np.array([[0.01, 2.0], [-0.5, 0.01]])
        t = np.linspace(0.0, 20.0, 1025)
        # x1 = 2 exp(0.01 t) cos(t + phi); phi zeroes its scout mean.
        phi = np.pi / 2 - np.angle(np.sum(np.exp((0.01 + 1j) * t)))
        center = np.array([0.0, 3.0])
        spiral = _linear_model(
            "centred_spiral", a, center,
            center + np.array([2.0 * np.cos(phi), -np.sin(phi)]))
        with pytest.raises(FixedPointConvergence, match="collapsed"):
            find_limit_cycle(spiral)

    @pytest.mark.parametrize("model,x0", [(vdp_model(), [1.0, 2.0, 3.0]),
                                          (repressilator_model(), [1.0, 2.0])],
                             ids=["vdp", "repressilator"])
    def test_wrong_length_x0_is_dimension_mismatch(self, model, x0):
        with pytest.raises(DimensionMismatch):
            find_limit_cycle(model, x0=x0)

    def test_vdp_mu_parameter_changes_period(self):
        slow = find_limit_cycle(vdp_model(2.0))
        assert slow.period > VDP_PERIOD_REF  # stronger damping, longer period
