"""Tests for graph construction, coupled-field assembly, network
simulation, and the synchronization error metric."""
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from floqnet import network
from floqnet.exceptions import Blowup, DimensionMismatch, InvalidAdjacency, \
    InvalidParam, StepBudgetExceeded, StepFailure
from floqnet.models import repressilator_model, vdp_model
from floqnet.network import SIMULATE_INTEGRATOR, CouplingSpec, \
    assemble_coupled_field, complete_graph, from_adjacency, ring_graph, \
    simulate_network, sync_error
from floqnet.ode import _EVAL_BLOCK, IntegratorConfig, integrate
from oracles import per_node_coupled_field, stored_network_states

EQ13_LAPLACIAN = np.array([[2.0, -1.0, -1.0],
                           [-1.0, 2.0, -1.0],
                           [-1.0, -1.0, 2.0]])


class TestGraphs:
    def test_complete_three_is_reference_laplacian(self):
        assert np.array_equal(complete_graph(3).laplacian, EQ13_LAPLACIAN)

    def test_ring_three_equals_complete_three(self):
        assert np.array_equal(ring_graph(3).laplacian,
                              complete_graph(3).laplacian)

    def test_ring_two_is_single_edge(self):
        assert np.array_equal(ring_graph(2).laplacian,
                              [[1.0, -1.0], [-1.0, 1.0]])

    def test_complete_four_spectrum(self):
        # characteristic polynomial s(s-4)^3
        eig = complete_graph(4).eigenvalues
        assert np.abs(eig - np.array([0.0, 4.0, 4.0, 4.0])).max() < 1e-10

    def test_ring_four_spectrum(self):
        eig = ring_graph(4).eigenvalues
        assert np.abs(eig - np.array([0.0, 2.0, 2.0, 4.0])).max() < 1e-10

    def test_zero_row_sums(self):
        for graph in (complete_graph(5), ring_graph(7)):
            assert np.abs(graph.laplacian.sum(axis=1)).max() < 1e-12

    def test_connectivity_flag(self):
        two_triangles = np.zeros((6, 6))
        for a, b in ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)):
            two_triangles[a, b] = two_triangles[b, a] = 1.0
        assert not from_adjacency(two_triangles).is_connected
        assert complete_graph(3).is_connected

    def test_adjacency_validation(self):
        with pytest.raises(InvalidAdjacency):
            from_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))  # asymmetric
        with pytest.raises(InvalidAdjacency):
            from_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
        with pytest.raises(InvalidAdjacency):
            from_adjacency(np.array([[1.0, 1.0], [1.0, 0.0]]))  # diagonal
        for bad in (np.nan, np.inf):  # NaN passes every comparison
            with pytest.raises(InvalidAdjacency):
                from_adjacency(np.array([[0.0, bad], [bad, 0.0]]))
            with pytest.raises(InvalidAdjacency):
                from_adjacency(np.array([[0.0, bad, 1.0], [bad, 0.0, 1.0],
                                         [1.0, 1.0, 0.0]]))
        with pytest.raises(InvalidAdjacency):
            complete_graph(1)

    def test_one_node_adjacency_rejected(self):
        with pytest.raises(InvalidAdjacency):
            from_adjacency([[0.0]])


class TestCoupledField:
    def test_zero_gain_gives_independent_copies(self, vdp):
        field = assemble_coupled_field(
            vdp, complete_graph(3), CouplingSpec(K=0.0, mask=[1, 1])
        )
        x = np.array([0.3, -1.0, 2.0, 0.5, -0.7, 1.1])
        expected = vdp.node_field(x.reshape(3, 2)).ravel()
        assert np.array_equal(field(x), expected)

    def test_coupling_vanishes_on_sync_manifold(self, vdp):
        coupled = assemble_coupled_field(
            vdp, complete_graph(4), CouplingSpec(K=3.7, mask=[1, 1])
        )
        uncoupled = assemble_coupled_field(
            vdp, complete_graph(4), CouplingSpec(K=0.0, mask=[1, 1])
        )
        x = np.tile([1.3, -0.4], 4)
        assert np.abs(coupled(x) - uncoupled(x)).max() < 1e-14

    def test_two_node_expansion(self, vdp):
        # path graph n=2: coupling on node 1 must be exactly K*(x2 - x1)
        graph = from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        k = 0.8
        field = assemble_coupled_field(vdp, graph,
                                       CouplingSpec(K=k, mask=[1, 1]))
        x1, x2 = np.array([0.2, -1.5]), np.array([1.0, 0.3])
        out = field(np.concatenate([x1, x2]))
        expected_node1 = vdp.field(x1) + k * (x2 - x1)
        expected_node2 = vdp.field(x2) + k * (x1 - x2)
        assert np.abs(out[:2] - expected_node1).max() < 1e-14
        assert np.abs(out[2:] - expected_node2).max() < 1e-14

    def test_partial_mask_couples_selected_states_only(self, vdp):
        graph = from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
        field = assemble_coupled_field(vdp, graph,
                                       CouplingSpec(K=1.0, mask=[0, 1]))
        x1, x2 = np.array([0.2, -1.5]), np.array([1.0, 0.3])
        out = field(np.concatenate([x1, x2]))
        node1 = vdp.node_field(np.stack([x1, x2]))[0]
        assert out[0] == node1[0]  # x1-coordinate uncoupled
        assert out[1] == pytest.approx(node1[1] + (x2[1] - x1[1]))

    def test_dimension_checks(self, vdp):
        with pytest.raises(DimensionMismatch):
            assemble_coupled_field(vdp, complete_graph(3),
                                   CouplingSpec(K=1.0, mask=[1, 1, 1]))
        field = assemble_coupled_field(vdp, complete_graph(3),
                                       CouplingSpec(K=1.0, mask=[1, 1]))
        with pytest.raises(DimensionMismatch):
            field(np.zeros(5))
        with pytest.raises(DimensionMismatch):
            CouplingSpec(K=1.0, mask=[1, 2])


NETWORK_MODELS = {
    "vdp-mu1": lambda: vdp_model(1.0),
    "vdp-mu2": lambda: vdp_model(2.0),
    "repressilator": repressilator_model,
}
MASKS = {"none": lambda m: None, "ones": np.ones,
         "partial": lambda m: np.arange(m) % 2}


def node_states(model, n, seed):
    """Seeded (n, m) node states; a repressilator gets one row with a
    negative repressor, the clipped branch of the Hill term."""
    rng = np.random.default_rng(seed)
    if model.name == "vdp":
        return rng.normal(scale=2.0, size=(n, 2))
    x = rng.uniform(0.0, 60.0, size=(n, 6))
    x[0, 5] = -0.3
    return x


class TestBatchedField:
    """The network field is one batched ``node_field`` call per right-hand
    side; it agrees with the per-node loop it replaced to round-off."""

    @pytest.mark.parametrize("K", [0.0, 1.3, -0.7])
    @pytest.mark.parametrize("mask", sorted(MASKS))
    @pytest.mark.parametrize("graph", [complete_graph(3), ring_graph(5),
                                       complete_graph(32)],
                             ids=["complete3", "ring5", "complete32"])
    @pytest.mark.parametrize("name", sorted(NETWORK_MODELS))
    def test_matches_per_node_loop(self, name, graph, mask, K):
        model = NETWORK_MODELS[name]()
        coupling = CouplingSpec(K=K, mask=MASKS[mask](model.dim))
        x = node_states(model, graph.n, seed=graph.n).ravel()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            batched = assemble_coupled_field(model, graph, coupling)(x)
            looped = per_node_coupled_field(model, graph, coupling)(x)
        np.testing.assert_allclose(batched, looped, rtol=1e-13, atol=0.0)

    # Largest gap measured on the 401-point grid: 6.8e-14 of max |state|
    # (vdp), 3.0e-14 (repressilator).
    @pytest.mark.parametrize("K", [0.0, 1.0])
    @pytest.mark.parametrize("name,initial,mask", [
        ("vdp-mu1", "fig2_initial", [1, 1]),
        ("vdp-mu1", "fig2_initial", [0, 1]),
        ("repressilator", "fig3_initial", None),
        ("repressilator", "fig3_initial", [0, 1, 0, 1, 0, 1]),
    ])
    def test_trajectory_matches_per_node_loop(self, request, name, initial,
                                              mask, K):
        model = NETWORK_MODELS[name]()
        x0 = request.getfixturevalue(initial)
        graph, coupling = complete_graph(3), CouplingSpec(K=K, mask=mask)
        times = np.linspace(0.0, 40.0, 401)
        batched = integrate(assemble_coupled_field(model, graph, coupling),
                            x0, (0.0, 40.0)).eval(times)
        looped = integrate(per_node_coupled_field(model, graph, coupling),
                           x0, (0.0, 40.0)).eval(times)
        gap = np.abs(batched - looped).max()
        assert gap <= 1e-10 * np.abs(looped).max()

    @pytest.mark.parametrize("n", [3, 32])
    def test_one_node_field_call_per_right_hand_side(self, vdp, n):
        calls = {"field": 0, "node_field": []}

        def field(x):
            calls["field"] += 1
            return vdp.field(x)

        def node_field(xs):
            calls["node_field"].append(xs.shape)
            return vdp.node_field(xs)

        counted = replace(vdp, field=field, node_field=node_field)
        coupled = assemble_coupled_field(counted, complete_graph(n),
                                         CouplingSpec(K=1.0, mask=[0, 1]))
        coupled(np.arange(2.0 * n))
        assert calls == {"field": 0, "node_field": [(n, 2)]}


@pytest.mark.parametrize("K", [np.nan, np.inf, -np.inf])
def test_non_finite_gain_rejected(K):
    with pytest.raises(InvalidParam):
        CouplingSpec(K=K, mask=[1, 1])


@pytest.mark.parametrize("t_on", [np.nan, -1.0, np.inf])
def test_bad_activation_time_rejected(t_on):
    with pytest.raises(InvalidParam):
        CouplingSpec(K=1.0, mask=[1, 1], activation_time=t_on)


@pytest.mark.parametrize("t_end", [np.inf, np.nan])
def test_non_finite_end_rejected_before_integrating(vdp, fig2_initial,
                                                    monkeypatch, t_end):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated with a non-finite end time")

    monkeypatch.setattr(network, "_sample", no_integration)
    with pytest.raises(InvalidParam):
        simulate_network(vdp, complete_graph(3),
                         CouplingSpec(K=1.0, mask=[1, 1]), fig2_initial,
                         t_end)


class TestSyncError:
    def test_identical_rows_zero(self):
        states = np.tile([1.0, 2.0], (5, 3))
        series = sync_error(np.arange(5.0), states, 3, 2)
        assert np.array_equal(series.error, np.zeros(5))

    def test_constant_offset(self):
        base = np.array([[1.0, 2.0, 1.0, 2.5]])  # nodes differ by 0.5 in x2
        series = sync_error([0.0], base, 2, 2)
        assert series.error[0] == pytest.approx(0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        n, m, pts = 4, 3, 25
        states = rng.standard_normal((pts, n * m))
        series = sync_error(np.arange(float(pts)), states, n, m)
        for p in range(pts):
            worst = 0.0
            blocks = states[p].reshape(n, m)
            for i in range(n):
                for j in range(n):
                    worst = max(worst, np.abs(blocks[i] - blocks[j]).max())
            assert series.error[p] == pytest.approx(worst, abs=1e-14)


class TestSimulation:
    def test_identical_initial_states_stay_synchronized(self, vdp):
        x0 = np.tile([2.0, 0.0], 3)
        run = simulate_network(
            vdp, complete_graph(3),
            CouplingSpec(K=1.0, mask=[1, 1], activation_time=5.0), x0, 30.0
        )
        assert run.sync.error.max() < 1e-9

    def test_sync_manifold_matches_single_oscillator(self, vdp):
        x0_single = np.array([2.0, 0.0])
        run = simulate_network(
            vdp, complete_graph(3),
            CouplingSpec(K=2.0, mask=[1, 1], activation_time=0.0),
            np.tile(x0_single, 3), 20.0
        )
        # The reference runs at the network run's own default tolerance.
        single = integrate(vdp.field, x0_single, (0.0, 20.0),
                           SIMULATE_INTEGRATOR)
        reference = single.eval(run.times)
        nodes = run.states.reshape(run.times.size, 3, 2)
        for node in range(3):
            assert np.abs(nodes[:, node] - reference).max() < 1e-6

    def test_no_mask_couples_every_state(self, vdp, fig2_initial):
        runs = [simulate_network(
                    vdp, complete_graph(3),
                    CouplingSpec(K=1.0, mask=mask, activation_time=5.0),
                    fig2_initial, 20.0, output_points=50)
                for mask in (None, np.ones(2))]
        assert np.array_equal(runs[0].states, runs[1].states)

    @pytest.mark.parametrize("points", [0, -3])
    def test_output_points_below_one_rejected_before_integrating(
            self, vdp, fig2_initial, monkeypatch, points):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated with an invalid output grid")

        monkeypatch.setattr(network, "_sample", no_integration)
        with pytest.raises(InvalidParam):
            simulate_network(vdp, complete_graph(3),
                             CouplingSpec(K=1.0, mask=[1, 1]), fig2_initial,
                             10.0, output_points=points)

    @pytest.mark.parametrize("t_span", [
        (0.0, 20.0), (20.0, 100.0), (20.0, 140.0),
        (0.0, 7.3), (0.1, 0.7), (1.0 / 3.0, 2.0 * np.pi), (13.7, 41.3),
    ])
    def test_coupled_run_ends_exactly_at_span_end(self, vdp, fig2_initial,
                                                  t_span):
        # The last step lands on t1 exactly, so the output grid needs no
        # clipping to stay inside the integrated span.
        field = assemble_coupled_field(vdp, complete_graph(3),
                                       CouplingSpec(K=1.0, mask=[0, 1]))
        traj = integrate(field, fig2_initial, t_span)
        assert traj.times[0] == t_span[0]
        assert traj.times[-1] == t_span[1]

    @pytest.mark.parametrize("dt", [0.001, 0.002, 0.003])
    def test_short_coupled_phase_completes(self, vdp, dt):
        # The coupled phase is one short span starting at t = 20, whose
        # last step stops a round-off gap short of t_end.
        run = simulate_network(
            vdp, complete_graph(2),
            CouplingSpec(K=1.0, mask=[1, 1], activation_time=20.0),
            [2.0, 0.0, 1.0, 0.0], 20.0 + dt, output_points=5)
        assert run.times[-1] == 20.0 + dt
        assert np.all(np.isfinite(run.states))

    def test_fig2_scenario_synchronizes(self, vdp, fig2_initial):
        run = simulate_network(
            vdp, complete_graph(3),
            CouplingSpec(K=1.0, mask=[1, 1], activation_time=20.0),
            fig2_initial, 100.0
        )
        assert run.sync.error[run.times >= 60.0].max() < 1e-3
        assert run.sync.error[run.times < 19.0].max() > 1.0  # desync before

    def test_sufficiency_small_gain(self, vdp, vdp_cycle, fig2_initial):
        # K = 0.5: error below 1e-3 within 10 periods of activation
        run = simulate_network(
            vdp, complete_graph(3),
            CouplingSpec(K=0.5, mask=[1, 1], activation_time=20.0),
            fig2_initial, 20.0 + 10 * vdp_cycle.period
        )
        assert run.sync.final < 1e-3

    def test_relabeling_equivariance(self, vdp, fig2_initial):
        perm = [2, 0, 1]
        coupling = CouplingSpec(K=1.0, mask=[1, 1], activation_time=10.0)
        run = simulate_network(vdp, complete_graph(3), coupling,
                               fig2_initial, 40.0)
        x0_perm = fig2_initial.reshape(3, 2)[perm].ravel()
        run_perm = simulate_network(vdp, complete_graph(3), coupling,
                                    x0_perm, 40.0)
        nodes = run.states.reshape(-1, 3, 2)
        nodes_perm = run_perm.states.reshape(-1, 3, 2)
        for new_index, old_index in enumerate(perm):
            diff = np.abs(nodes_perm[:, new_index]
                          - nodes[:, old_index]).max()
            assert diff < 1e-9

    def test_time_window_validation(self, vdp, fig2_initial):
        with pytest.raises(InvalidParam):
            simulate_network(
                vdp, complete_graph(3),
                CouplingSpec(K=1.0, mask=[1, 1], activation_time=50.0),
                fig2_initial, 30.0
            )
        with pytest.raises(DimensionMismatch):
            simulate_network(
                vdp, complete_graph(3),
                CouplingSpec(K=1.0, mask=[1, 1]), np.zeros(5), 30.0
            )


class TestStreamedGrid:
    """``simulate_network`` fills its grid while it integrates, holding at
    most one run of ``_EVAL_BLOCK`` steps of dense output; every row is bit
    for bit the stored two-phase route's (``oracles.stored_network_states``).
    Every case has a phase of more than one run, so its grid crosses run
    boundaries."""

    @pytest.mark.parametrize("name,initial,mask,t_on,points,t_end", [
        ("vdp", "fig2_initial", None, 20.0, 2000, 40.0),
        ("vdp", "fig2_initial", [1, 0], 0.0, 7, 40.0),
        # linspace(0, 60, 7) has 20 = t_on as a grid time.
        ("vdp", "fig2_initial", [0, 1], 20.0, 7, 60.0),
        ("vdp", "fig2_initial", None, 0.0, 1, 40.0),
        ("repressilator", "fig3_initial", None, 20.0, 1, 40.0),
        ("repressilator", "fig3_initial", [1, 0, 0, 0, 0, 0], 0.0, 2000,
         40.0),
        ("repressilator", "fig3_initial", [0, 1, 0, 1, 0, 1], 20.0, 7,
         60.0),
    ])
    def test_matches_stored_route_bitwise(self, request, name, initial,
                                          mask, t_on, points, t_end):
        model = request.getfixturevalue(name)
        x0 = request.getfixturevalue(initial)
        coupling = CouplingSpec(K=1.0, mask=mask, activation_time=t_on)
        run = simulate_network(model, complete_graph(3), coupling, x0, t_end,
                               output_points=points)
        times, states, steps = stored_network_states(
            model, complete_graph(3), coupling, x0, t_end,
            output_points=points)
        assert max(steps) > _EVAL_BLOCK
        assert np.array_equal(run.times, times)
        assert np.array_equal(run.states, states)
        # A one-point grid is {0}; longer ones end on t_end.
        assert run.times[-1] == (t_end if points > 1 else 0.0)
        if points == 7 and t_on > 0:
            assert t_on in run.times

    def test_blowup_matches_stored_route(self, rotation):
        # K < 0 on the linear rotation grows without stiffness, so the run
        # ends in Blowup within seconds, in phase 2.
        coupling = CouplingSpec(K=-5.0, mask=[1, 0], activation_time=1.0)
        args = (rotation, complete_graph(3), coupling, np.arange(6.0), 20.0)
        with pytest.raises(Blowup) as streamed:
            simulate_network(*args)
        with pytest.raises(Blowup) as stored:
            stored_network_states(*args)
        assert streamed.value.t == stored.value.t > 1.0
        assert np.array_equal(streamed.value.state, stored.value.state)

    @pytest.mark.parametrize("max_steps", [30, 200])  # phase 1, phase 2
    def test_step_budget_matches_stored_route(self, vdp, fig2_initial,
                                              max_steps):
        args = (vdp, complete_graph(3),
                CouplingSpec(K=1.0, mask=[1, 1], activation_time=1.0),
                fig2_initial, 40.0, IntegratorConfig(max_steps=max_steps))
        with pytest.raises(StepBudgetExceeded) as streamed:
            simulate_network(*args)
        with pytest.raises(StepBudgetExceeded) as stored:
            stored_network_states(*args)
        assert str(streamed.value) == str(stored.value)

    def test_memory_follows_the_grid_not_the_step_count(self, vdp):
        # vdp on complete_graph(32), 2000 grid points: the grid is
        # 2000 * 64 doubles = 1.02 MB.  Over it, a streamed run peaked at
        # 1.95 MB (t_end = 30) and 1.78 MB (t_end = 60) on NumPy 2, most of
        # it one _EVAL_BLOCK of grid evaluation and one run of steps.  A
        # stored route keeps 1544 B per accepted step, about 48 steps per
        # time unit here: it peaked at 4.82 and 6.34 MB.
        graph, coupling = complete_graph(32), CouplingSpec(K=0.05,
                                                           mask=[1, 1])
        x0 = np.random.default_rng(0).uniform(-2.0, 2.0, 64)
        grid_bytes = 2000 * 64 * 8
        allowance = 2.5e6
        simulate_network(vdp, graph, coupling, x0, 1.0, output_points=10)
        peaks = []
        for t_end in (30.0, 60.0):
            tracemalloc.start()
            try:
                simulate_network(vdp, graph, coupling, x0, t_end)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < grid_bytes + allowance, peaks
        assert peaks[1] <= 1.1 * peaks[0], peaks


def _settled_index(error):
    """First grid index from which the error stays below 1e-3 (the CLI's
    ``t_converged``), or None."""
    settled = np.logical_and.accumulate((error < 1e-3)[::-1])[::-1]
    return int(settled.argmax()) if settled[-1] else None


class TestSimulateTolerance:
    """The simulation default (``SIMULATE_INTEGRATOR``, rel 1e-7 /
    abs 1e-9) gives the same answer as the spectral route's default
    (``IntegratorConfig()``, rel 1e-9 / abs 1e-11).

    DOPRI5's global error scales with the tolerance (Hairer, Norsett and
    Wanner, *Solving ODEs I*, II.4).  Against a rel 1e-12 run, the old
    default leaves at most 1.1e-8 of a coordinate's range and the new one
    1.6e-6: the 100-fold looser tolerance, 100-fold the error.  So:

    - states agree within ``STATE_FRAC`` = 1e-4 of each coordinate's
      range over the run: 60 times the largest gap measured (1.6e-6),
      which is what a further 100-fold tolerance step would bring;
    - where e > 1e-3, e agrees within ``SYNC_REL`` = 1e-4 relative (15
      times the largest gap measured, 6.8e-6).  A relative move that
      small shifts a threshold crossing only where a grid value of e
      lies within 1e-4 of 1e-3, so
    - the verdict (final e < 1e-3) and the ``t_converged`` grid index are
      equal.
    """

    STATE_FRAC = 1e-4
    SYNC_REL = 1e-4

    @pytest.mark.parametrize("name,initial,mask,t_end", [
        ("vdp", "fig2_initial", [1, 1], 100.0),
        ("vdp", "fig2_initial", [0, 1], 100.0),
        ("repressilator", "fig3_initial", None, 140.0),
        ("repressilator", "fig3_initial", [0, 1, 0, 1, 0, 1], 140.0),
    ])
    def test_same_answer_as_spectral_default(self, request, name, initial,
                                             mask, t_end):
        model = request.getfixturevalue(name)
        x0 = request.getfixturevalue(initial)
        coupling = CouplingSpec(K=1.0, mask=mask, activation_time=20.0)
        loose, tight = (simulate_network(model, complete_graph(3), coupling,
                                         x0, t_end, cfg=cfg)
                        for cfg in (SIMULATE_INTEGRATOR, IntegratorConfig()))
        assert (loose.sync.final < 1e-3) == (tight.sync.final < 1e-3)
        assert _settled_index(loose.sync.error) == \
            _settled_index(tight.sync.error) is not None
        span = np.ptp(tight.states, axis=0)
        assert (np.abs(loose.states - tight.states) / span).max() \
            < self.STATE_FRAC
        above = tight.sync.error > 1e-3
        assert above.any()
        rel = np.abs(loose.sync.error - tight.sync.error)[above] \
            / tight.sync.error[above]
        assert rel.max() < self.SYNC_REL


class TestNecessity:
    """K < 0 destroys synchronization.  The diverged network is stiff
    (explicit step cost grows with amplitude squared), so runs use bounded
    horizons that complete, plus a budget-capped run whose terminal
    integrator failure certifies the divergence."""

    @pytest.mark.parametrize("K,t_end", [(-0.5, 5.0), (-0.1, 12.0)])
    def test_error_grows_and_never_decays(self, vdp, fig2_initial, K, t_end):
        run = simulate_network(
            vdp, complete_graph(3),
            CouplingSpec(K=K, mask=[1, 1], activation_time=1.0),
            fig2_initial, t_end, cfg=IntegratorConfig(max_steps=150_000)
        )
        assert run.sync.min_after(2.0) > 0.1
        assert run.sync.final > 10 * run.sync.error[0]

    def test_divergence_terminates_budgeted_run(self, vdp, fig2_initial):
        with pytest.raises((Blowup, StepFailure, StepBudgetExceeded)):
            simulate_network(
                vdp, complete_graph(3),
                CouplingSpec(K=-0.5, mask=[1, 1], activation_time=1.0),
                fig2_initial, 100.0, cfg=IntegratorConfig(max_steps=30_000)
            )
