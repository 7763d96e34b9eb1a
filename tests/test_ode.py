"""Tests for the adaptive integrator, its dense output, and event location."""
import tracemalloc

import numpy as np
import pytest

from floqnet.exceptions import Blowup, DimensionMismatch, InvalidParam, \
    OutOfRange, StepBudgetExceeded, StepFailure
from floqnet.models import vdp_model
from floqnet.ode import _EVAL_BLOCK, IntegratorConfig, _dense_coeffs, \
    _dense_eval, _final_state, _integrate_core, _quartic_row, _sample, \
    integrate, integrate_with_events
from oracles import section_crossings


def harmonic(x):
    return np.array([x[1], -x[0]])


def vdp_field(x, mu=1.0):
    return np.array([x[1], mu * (1.0 - x[0] ** 2) * x[1] - x[0]])


class TestIntegrate:
    def test_zero_field_constant(self):
        traj = integrate(lambda x: np.zeros(2), [1.0, 2.0], (0.0, 5.0))
        assert np.abs(traj.states - np.array([1.0, 2.0])).max() < 1e-14

    def test_harmonic_period(self):
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 2 * np.pi))
        assert np.abs(traj.states[-1] - np.array([1.0, 0.0])).max() < 1e-6

    def test_harmonic_energy_conserved(self):
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 2 * np.pi))
        energy = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
        assert np.abs(energy - 1.0).max() < 1e-6

    def test_vdp_bounded_with_reference_amplitude(self):
        traj = integrate(vdp_field, [2.0, 0.0], (0.0, 100.0))
        grid = np.linspace(60.0, 100.0, 4001)
        amp = np.abs(traj.eval(grid)[:, 0]).max()
        # reference run at rel_tol 1e-12 gives max|x1| = 2.008619861
        assert amp == pytest.approx(2.008619861, rel=0.02)

    def test_config_validation(self):
        with pytest.raises(InvalidParam):
            IntegratorConfig(rel_tol=-1.0)
        for tol in ({"rel_tol": np.inf}, {"abs_tol": np.inf},
                    {"rel_tol": np.nan}):
            with pytest.raises(InvalidParam):
                IntegratorConfig(**tol)
        # The step budget is an integer >= 1: NaN would switch it off.
        for steps in (0, np.nan, 2.5, True):
            with pytest.raises(InvalidParam):
                IntegratorConfig(max_steps=steps)
        assert IntegratorConfig(max_steps=np.int64(5)).max_steps == 5
        with pytest.raises(InvalidParam):
            integrate(harmonic, [1.0, 0.0], (1.0, 0.0))

    @pytest.mark.parametrize("span", [(0.0, np.inf), (-np.inf, 1.0),
                                      (0.0, np.nan), (np.nan, 1.0)],
                             ids=["inf-end", "inf-start", "nan-end",
                                  "nan-start"])
    def test_non_finite_span_is_invalid(self, span):
        # Checked before the first step: an infinite end would otherwise
        # run the whole step budget.
        calls = []

        def counted(x):
            calls.append(1)
            return harmonic(x)

        with pytest.raises(InvalidParam):
            integrate(counted, [1.0, 0.0], span)
        with pytest.raises(InvalidParam):
            _final_state(counted, [1.0, 0.0], span, IntegratorConfig())
        assert calls == []

    def test_bad_initial_state(self):
        with pytest.raises(InvalidParam):
            integrate(harmonic, [np.nan, 0.0], (0.0, 1.0))
        with pytest.raises(DimensionMismatch):
            integrate(harmonic, np.zeros((1, 1, 2)), (0.0, 1.0))

    def test_non_finite_initial_derivative_fails_at_once(self):
        # Under the default step budget: a NaN first step, halved and
        # still NaN, would otherwise run all 10 000 000 steps.
        calls = []

        def nan_at_start(x):
            calls.append(1)
            return np.array([np.nan, 0.0])

        with pytest.raises(StepFailure):
            integrate(nan_at_start, [1.0, 0.0], (0.0, 1.0))
        assert len(calls) <= 2

    def test_infinite_initial_derivative_is_step_failure(self):
        # The first-step heuristic would divide by a zero trial step.
        with pytest.raises(StepFailure, match="non-finite derivative"):
            integrate(lambda x: np.array([np.inf, 1.0]), [1.0, 0.0],
                      (0.0, 1.0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_initial_derivative_is_step_failure(self):
        # Finite, but its error norm overflows: a zero first step.
        with pytest.raises(StepFailure, match="underflow"):
            integrate(lambda x: np.array([1e160, 1.0]), [1.0, 0.0],
                      (0.0, 1.0))

    def test_round_off_gap_to_end_is_not_stepped(self):
        # For most of these t0 the last step stops a few ulps short of t1,
        # a gap below the step-size underflow guard: the step must end on
        # t1 instead of failing on the gap.
        for t0 in np.linspace(0.0, 50.0, 200):
            traj = integrate(vdp_field, [2.0, 0.0], (t0, t0 + 0.01))
            assert traj.times[-1] == t0 + 0.01

    def test_last_step_rounding_short_ends_on_t1(self):
        # t + (t1 - t) rounds one ulp below this t1 on the last step; a
        # 4e-16 sliver left to step would fail as a step-size underflow.
        t1 = 3.079070222502104
        traj = integrate(lambda x: -1e-3 * x, [1.0], (0.0, t1))
        assert traj.times[-1] == t1

    def test_every_span_ends_on_t1(self):
        for t1 in np.random.default_rng(0).uniform(0.1, 100.0, 2000):
            traj = integrate(lambda x: -1e-3 * x, [1.0], (0.0, t1))
            assert traj.times[-1] == t1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("tol,node_error", [
        (1e-3, 1.23e-5), (1e-6, 2.34e-7), (1e-9, 2.31e-10)])
    def test_non_finite_trial_is_rejected(self, tol, node_error):
        # x' = -x behind a wall: the field is inf for x < 0, where a too
        # long trial step lands.  Such trials are rejected and halved, so
        # the decay is followed as accurately as the tolerance allows.
        outside = []

        def walled(x):
            if x[0] < 0.0:
                outside.append(x[0])
                return np.array([np.inf])
            return -x

        traj = integrate(walled, [1.0], (0.0, 30.0),
                         IntegratorConfig(rel_tol=tol, abs_tol=tol))
        assert traj.times[-1] == 30.0 and outside
        error = np.abs(traj.states[:, 0] - np.exp(-traj.times)).max()
        assert error <= 2 * node_error

    def test_step_budget(self):
        with pytest.raises(StepBudgetExceeded):
            integrate(vdp_field, [2.0, 0.0], (0.0, 100.0),
                      IntegratorConfig(max_steps=10))

    def test_blowup_detected(self):
        # x' = x^2 from x(0)=1 blows up at t=1
        with pytest.raises(Blowup) as info:
            integrate(lambda x: x ** 2, [1.0], (0.0, 2.0))
        assert info.value.t is not None and info.value.t <= 1.01

    @pytest.mark.parametrize("x0", [[1.0], [[1.0]]], ids=["vector", "batch"])
    def test_controller_alone_sizes_steps(self, x0):
        # Slow decay: the controller grows each step by its full factor, so
        # the span takes a handful of steps, where any cap at a tenth of
        # it would force at least 10.
        traj = integrate(lambda x: -1e-4 * x, x0, (0.0, 50.0))
        assert len(traj.times) - 1 <= 8
        cfg = IntegratorConfig()
        t = np.linspace(0.0, 50.0, 101)
        np.testing.assert_allclose(traj.eval(t).ravel(), np.exp(-1e-4 * t),
                                   rtol=cfg.rel_tol, atol=cfg.abs_tol)


class TestBatchedRows:
    def test_single_row_batch_matches_vector(self):
        cfg = IntegratorConfig()

        # Same ufunc arithmetic for a (2,) state and a (1, 2) batch.
        def vdp_any(x):
            return np.stack([x[..., 1],
                             (1.0 - x[..., 0] ** 2) * x[..., 1] - x[..., 0]],
                            axis=-1)

        vector = integrate(vdp_any, [2.0, 0.0], (0.0, 20.0), cfg)
        batch = integrate(vdp_any, [[2.0, 0.0]], (0.0, 20.0), cfg)
        assert np.array_equal(batch.times, vector.times)
        assert np.array_equal(batch.states[:, 0], vector.states)
        assert np.array_equal(
            _final_state(vdp_any, [[2.0, 0.0]], (0.0, 20.0), cfg)[0],
            vector.states[-1])

    def test_decoupled_rows_each_meet_tolerance(self):
        # Row b rotates at rate omega_b: x(t) = (cos w t, -sin w t).  The
        # shared steps follow the fastest row, so no row is less accurate
        # than when it is integrated alone.
        omega = np.array([0.5, 1.0, 3.0, 7.0])

        def rotations(x):
            return omega[:, None] * np.stack([x[:, 1], -x[:, 0]], axis=1)

        def exact(t):
            return np.stack([np.cos(omega * t), -np.sin(omega * t)], axis=1)

        t_end = 5.0
        x0 = np.tile([1.0, 0.0], (omega.size, 1))
        traj = integrate(rotations, x0, (0.0, t_end))
        assert traj.states.shape == (traj.times.size, omega.size, 2)
        row_err = np.abs(traj.states[-1] - exact(t_end)).max(axis=1)
        for w, err in zip(omega, row_err):
            alone = integrate(lambda x, w=w: w * np.array([x[1], -x[0]]),
                              [1.0, 0.0], (0.0, t_end)).states[-1]
            alone_err = np.abs(alone - exact(t_end)[omega == w][0]).max()
            assert err <= 1.01 * alone_err
        assert row_err.max() < 1e-8
        mid = 0.5 * (traj.times[3] + traj.times[4])
        assert np.abs(traj.eval(mid) - exact(mid)).max() < 1e-8


class TestDenseOutput:
    def test_node_times_exact(self):
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 3.0))
        for k in (0, traj.times.size // 2, traj.times.size - 1):
            assert np.array_equal(traj.eval(traj.times[k]), traj.states[k])
        assert np.array_equal(traj.eval(traj.times), traj.states)

    @pytest.mark.parametrize("x0", [[2.0, 0.0], [[2.0, 0.0], [0.5, -1.0]]])
    def test_array_eval_matches_per_point_polynomial(self, x0):
        # One array call gives, bit for bit, each point's own step
        # polynomial, or the stored state at a node time.  The reference
        # polynomials come from the raw step stream, not the trajectory.
        def field(x):
            return np.stack([x[..., 1], (1 - x[..., 0] ** 2) * x[..., 1]
                             - x[..., 0]], -1)

        span = (0.0, 10.0)
        traj = integrate(field, x0, span)
        stream = [_dense_coeffs(h, y, y_new, k[0], k[6], _quartic_row(h, k))
                  for _, h, y, y_new, k in _integrate_core(
                      field, x0, span, IntegratorConfig())]
        assert len(stream) == traj.times.size - 1
        ts = np.concatenate([np.linspace(0.0, traj.times[-1], 301),
                             traj.times[1:4]])
        expected = []
        for t in ts:
            k = np.searchsorted(traj.times, t)
            if traj.times[k] == t:
                expected.append(traj.states[k])
            else:
                t_lo, t_hi = traj.times[k - 1], traj.times[k]
                expected.append(_dense_eval(stream[k - 1],
                                            (t - t_lo) / (t_hi - t_lo))
                                .reshape(np.shape(x0)))
        assert np.array_equal(traj.eval(ts), np.array(expected))
        assert all(np.array_equal(traj.eval(t), e)
                   for t, e in zip(ts, expected))

    def test_dense_store_keeps_three_rows_per_step(self):
        # Node state, node slope and quartic row per step, plus the node
        # time and step size; five coefficient rows a step would be ~3 KB.
        vdp = vdp_model(1.0)

        def field(x):
            return vdp.node_field(x.reshape(32, 2)).reshape(-1)

        x0 = np.random.default_rng(0).uniform(-2.0, 2.0, 64)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = integrate(field, x0, (0.0, 25.0))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        steps = traj.times.size - 1
        assert steps >= 1000
        assert retained <= steps * (3 * 64 * 8 + 16) + 64 * 1024

    def test_streamed_sample_matches_stored_eval(self):
        # _sample holds one run of _EVAL_BLOCK steps at a time.  At node
        # times on and beside run boundaries, between them, on a uniform
        # grid and at both span ends, its rows are bit for bit those of the
        # whole trajectory's eval, and so is its final state.
        span, x0 = (0.0, 60.0), [2.0, 0.0]
        traj = integrate(vdp_field, x0, span)
        steps = traj.times.size - 1
        assert steps > 2 * _EVAL_BLOCK
        nodes = traj.times[[0, 1, _EVAL_BLOCK - 1, _EVAL_BLOCK,
                            _EVAL_BLOCK + 1, 2 * _EVAL_BLOCK, steps]]
        around = traj.times[_EVAL_BLOCK - 1:_EVAL_BLOCK + 2]
        ts = np.unique(np.concatenate([
            nodes, 0.5 * (around[1:] + around[:-1]),
            np.linspace(*span, 997)]))
        out = np.empty((ts.size, 2))
        final = _sample(vdp_field, x0, span, ts, out, IntegratorConfig())
        assert np.array_equal(out, traj.eval(ts))
        assert np.array_equal(final, traj.states[-1])

    def test_constant_midpoint(self):
        traj = integrate(lambda x: np.zeros(1), [4.0], (0.0, 2.0))
        assert traj.eval(1.234567)[0] == pytest.approx(4.0, abs=1e-14)

    def test_harmonic_quarter_period(self):
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 2 * np.pi))
        assert np.abs(traj.eval(np.pi / 2) - np.array([0.0, -1.0])).max() \
            < 1e-5

    def test_out_of_range(self):
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 1.0))
        for t in (1.5, [0.5, 1.5], [-0.1, 0.5]):
            with pytest.raises(OutOfRange):
                traj.eval(t)

    def test_matches_restarted_integration(self):
        cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
        traj = integrate(vdp_field, [2.0, 0.0], (0.0, 10.0), cfg)
        k = traj.times.size // 2
        t_mid = 0.5 * (traj.times[k] + traj.times[k + 1])
        restart = integrate(vdp_field, traj.states[k],
                            (traj.times[k], traj.times[k] + 1.0), cfg)
        err = np.abs(traj.eval(t_mid) - restart.eval(t_mid)).max()
        scale = np.abs(traj.eval(t_mid)).max()
        assert err < 10 * (cfg.abs_tol + cfg.rel_tol * scale) * traj.times.size

    def test_tolerance_monotonicity(self):
        ref = integrate(vdp_field, [2.0, 0.0], (0.0, 20.0),
                        IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
        final_ref = ref.states[-1]
        errors = []
        for rtol in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
            traj = integrate(vdp_field, [2.0, 0.0], (0.0, 20.0),
                             IntegratorConfig(rel_tol=rtol,
                                              abs_tol=rtol * 1e-2))
            errors.append(np.abs(traj.states[-1] - final_ref).max())
        assert all(b <= a * 1.0001 + 1e-15
                   for a, b in zip(errors, errors[1:]))


class TestEvents:
    def test_harmonic_upward_crossings(self):
        # x2(t) = -sin t crosses zero upward at t = pi, 3*pi
        _, crossings = integrate_with_events(
            harmonic, [1.0, 0.0], (0.0, 4 * np.pi), event=lambda x: x[1]
        )
        times = [t for t, _ in crossings]
        assert len(times) == 2
        assert abs(times[0] - np.pi) < 1e-8
        assert abs(times[1] - 3 * np.pi) < 1e-8

    def test_event_state_at_crossing(self):
        _, crossings = integrate_with_events(
            harmonic, [1.0, 0.0], (0.0, 4 * np.pi), event=lambda x: x[1]
        )
        _, state = crossings[0]
        assert np.abs(state - np.array([-1.0, 0.0])).max() < 1e-8

    def test_no_crossing_empty(self):
        _, crossings = integrate_with_events(
            harmonic, [1.0, 0.0], (0.0, 10.0), event=lambda x: x[0] + 5.0
        )
        assert crossings == []

    def test_crossings_bracketed_by_sign_change(self):
        traj, crossings = integrate_with_events(
            vdp_field, [2.0, 0.0], (0.0, 30.0), event=lambda x: x[1]
        )
        g = traj.states[:, 1]
        for tc, _ in crossings:
            idx = np.searchsorted(traj.times, tc)
            assert traj.times[idx - 1] <= tc <= traj.times[idx]
            assert g[idx - 1] < 0.0 <= g[idx]

    def test_vdp_gaps_converge_to_period(self):
        traj = integrate(vdp_field, [2.0, 0.0], (0.0, 60.0))
        _, crossings = integrate_with_events(
            vdp_field, traj.states[-1], (0.0, 40.0), event=lambda x: x[1]
        )
        gaps = np.diff([t for t, _ in crossings])
        # reference period oracle (rel_tol 1e-12 Poincare returns)
        assert gaps[-1] == pytest.approx(6.663286859322, rel=1e-6)

    def test_matches_streamed_oracle(self):
        # Each crossing is bisected on the same dense polynomial as on the
        # step stream; only the step length differs, times[i + 1] - times[i]
        # against the stream's own h.
        def section(x):
            return x[0] - 0.3

        span, cfg = (0.0, 60.0), IntegratorConfig()
        x0 = [2.0, 0.0]
        traj, collected = integrate_with_events(vdp_field, x0, span, cfg,
                                                event=section)
        streamed = list(section_crossings(
            _integrate_core(vdp_field, x0, span, cfg), section))
        assert len(collected) == len(streamed) >= 8
        scale = np.abs(traj.states).max()
        for (t_c, x_c), (t_s, x_s) in zip(collected, streamed):
            assert abs(t_c - t_s) <= 1e-13 * max(abs(t_s), 1.0)
            assert np.abs(x_c - x_s).max() <= 1e-13 * scale

    def test_node_on_section_counts_once(self):
        # The section passes exactly through a stored node k where x2
        # rises: g is 0 at k, so the step into k (g < 0 to g >= 0) holds
        # the one crossing and the step out of it (0 to > 0) none.
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 2 * np.pi))
        k = int(np.argmin(np.abs(traj.times - np.pi)))
        assert traj.states[k - 1, 1] < traj.states[k, 1] \
            < traj.states[k + 1, 1]
        level = traj.states[k, 1]
        crossings = traj.crossings(lambda x: x[1] - level)
        assert len(crossings) == 1
        t_c, x_c = crossings[0]
        assert traj.times[k - 1] <= t_c <= traj.times[k]
        assert abs(x_c[1] - level) < 1e-10

    def test_requires_event(self):
        with pytest.raises(InvalidParam):
            integrate_with_events(harmonic, [1.0, 0.0], (0.0, 1.0))

    def test_batch_state_is_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            integrate_with_events(harmonic, [[1.0, 0.0]], (0.0, 1.0),
                                  event=lambda x: x[1])


def rk4_fixed(field, x0, t_span, n_steps):
    """Classical fixed-step RK4, the oracle for the adaptive solver.

    Returns ``(times, states)`` arrays.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (t1 > t0 and n_steps > 0):
        raise ValueError("need t1 > t0 and n_steps > 0")
    h = (t1 - t0) / n_steps
    y = np.asarray(x0, dtype=float).copy()
    times = np.linspace(t0, t1, n_steps + 1)
    states = np.empty((n_steps + 1, y.size))
    states[0] = y
    for i in range(n_steps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states[i + 1] = y
    return times, states


class TestRK4Fixed:
    def test_cross_checks_adaptive(self):
        times, states = rk4_fixed(harmonic, [1.0, 0.0], (0.0, 2 * np.pi),
                                  2000)
        assert times.size == 2001
        assert np.abs(states[-1] - np.array([1.0, 0.0])).max() < 1e-6

    def test_agrees_with_adaptive_on_vdp(self):
        adaptive = integrate(vdp_field, [2.0, 0.0], (0.0, 10.0))
        _, states = rk4_fixed(vdp_field, [2.0, 0.0], (0.0, 10.0), 20000)
        assert np.abs(adaptive.states[-1] - states[-1]).max() < 1e-6
