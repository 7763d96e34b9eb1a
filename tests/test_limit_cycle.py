"""Tests for limit-cycle location: periods against independent reference
oracles, closure quality, and the failure taxonomy."""
import dataclasses

import numpy as np
import pytest

from floqnet.exceptions import DimensionMismatch, FixedPointConvergence, \
    NoCrossings, NotPeriodic
from floqnet.limit_cycle import find_limit_cycle
from floqnet.models import OscillatorModel, linear_rotation_model, \
    repressilator_model, vdp_model
from floqnet.ode import IntegratorConfig, _integrate_core, \
    _section_crossings, integrate, integrate_with_events

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

    def test_slow_cycle_longer_than_scout_window(self):
        # Period 100 > the 60-unit scout window: the return stream has to
        # run well past the scout leg to collect its returns.
        omega = 2 * np.pi / 100.0
        base = linear_rotation_model()
        slow = dataclasses.replace(
            base, name="slow_rotation",
            field=lambda x: omega * base.field(x),
            jacobian=lambda x: omega * base.jacobian(x),
            transient_hint=0.0,
        )
        lc = find_limit_cycle(slow)
        assert abs(lc.period - 100.0) < 1e-8
        assert lc.closure_residual < 1e-6


class TestStreamedSearch:
    def test_streamed_crossings_equal_collected(self, vdp):
        # The cycle search draws its returns from the bare step stream.
        def section(x):
            return x[0] - 0.3

        span, cfg = (0.0, 60.0), IntegratorConfig()
        _, collected = integrate_with_events(
            vdp.field, vdp.default_initial, span, cfg, event=section)
        streamed = list(_section_crossings(
            _integrate_core(vdp.field, vdp.default_initial, span, cfg),
            section))
        assert len(streamed) == len(collected) >= 8
        for (t_s, x_s), (t_c, x_c) in zip(streamed, collected):
            assert t_s == t_c
            assert np.array_equal(x_s, x_c)

    @pytest.mark.parametrize("name, param", [
        ("vdp", 2.0), ("repressilator", 1000.0)])
    def test_field_call_budget(self, name, param):
        # Machine-independent work count: integrating the settle, the
        # scout and the returns once each stays well below the 67 876
        # (vdp) and 83 430 (repressilator) calls of re-integrating them.
        model, calls = _build(name, param), [0]

        def field(x):
            calls[0] += 1
            return model.field(x)
        find_limit_cycle(dataclasses.replace(model, field=field))
        assert calls[0] <= 40_000


class TestFailureModes:
    def test_fixed_point_convergence(self):
        # damped rotation spirals onto the origin
        def field(x):
            return np.array([x[1] - 0.5 * x[0], -x[0] - 0.5 * x[1]])

        def jac(x):
            return np.array([[-0.5, 1.0], [-1.0, -0.5]])

        damped = OscillatorModel(
            name="damped", dim=2, params={}, field=field, jacobian=jac,
            default_initial=np.array([1.0, 0.0]), transient_hint=60.0,
        )
        with pytest.raises(FixedPointConvergence):
            find_limit_cycle(damped)

    def test_no_crossings_for_monotone_drift(self):
        # x1 strictly decreasing: the section is never crossed upward
        drift = OscillatorModel(
            name="drift", dim=2, params={},
            field=lambda x: np.array([-1.0, 0.0]),
            jacobian=lambda x: np.zeros((2, 2)),
            default_initial=np.array([0.0, 0.0]), transient_hint=0.0,
        )
        with pytest.raises(NoCrossings):
            find_limit_cycle(drift)

    def test_not_periodic_for_single_crossing(self):
        # x1 strictly increasing: exactly one upward crossing, no return
        drift = OscillatorModel(
            name="drift_up", dim=2, params={},
            field=lambda x: np.array([1.0, 0.0]),
            jacobian=lambda x: np.zeros((2, 2)),
            default_initial=np.array([0.0, 0.0]), transient_hint=0.0,
        )
        with pytest.raises(NotPeriodic):
            find_limit_cycle(drift)

    @pytest.mark.parametrize("model,x0", [(vdp_model(), [1.0, 2.0, 3.0]),
                                          (repressilator_model(), [1.0, 2.0])],
                             ids=["vdp", "repressilator"])
    def test_wrong_length_x0_is_dimension_mismatch(self, model, x0):
        with pytest.raises(DimensionMismatch):
            find_limit_cycle(model, x0=x0)

    def test_vdp_mu_parameter_changes_period(self):
        slow = find_limit_cycle(vdp_model(2.0))
        assert slow.period > VDP_PERIOD_REF  # stronger damping, longer period
