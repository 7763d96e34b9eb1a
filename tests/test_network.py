"""Tests for graph construction, coupled-field assembly, network
simulation, and the synchronization error metric."""
import numpy as np
import pytest

from floqnet import network
from floqnet.exceptions import Blowup, DimensionMismatch, InvalidAdjacency, \
    InvalidParam, StepBudgetExceeded, StepFailure
from floqnet.network import CouplingSpec, assemble_coupled_field, \
    complete_graph, from_adjacency, ring_graph, simulate_network, sync_error
from floqnet.ode import IntegratorConfig, integrate

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
        expected = np.concatenate([vdp.field(x[0:2]), vdp.field(x[2:4]),
                                   vdp.field(x[4:6])])
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
        assert out[0] == vdp.field(x1)[0]  # x1-coordinate uncoupled
        assert out[1] == pytest.approx(vdp.field(x1)[1] + (x2[1] - x1[1]))

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

    monkeypatch.setattr(network, "integrate", no_integration)
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
        single = integrate(vdp.field, x0_single, (0.0, 20.0))
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

        monkeypatch.setattr(network, "integrate", no_integration)
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
