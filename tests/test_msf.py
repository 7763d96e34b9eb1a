"""Tests for master-stability-function evaluation, sweeps, and the
network synchronization predicate."""
import numpy as np
import pytest

import floqnet.msf
from floqnet.exceptions import DisconnectedGraph, InvalidParam
from floqnet.floquet import _cyclic_multipliers, monodromy, \
    shifted_multipliers_fullstate, variational_factors
from floqnet.msf import _point, default_kappa_grid, msf_point, msf_sweep, \
    sync_predicate
from floqnet.network import complete_graph, from_adjacency

VDP_MU2_REF = 8.596950636061e-04

# Regression values frozen from the first validated run (default
# tolerances); the curve has been cross-checked against an independent
# single-shot monolithic integration.
MSF_VDP_PARTIAL_REGRESSION = {
    0.5: 2.047696016192e-01,
    1.0: 1.944019594486e-02,
    2.0: 3.559959174723e-02,
    5.0: 3.018157542994e-01,
}


def _count_monodromies(monkeypatch):
    """Record the kappa of every ``monodromy`` call the msf module makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["kappa"])
        return monodromy(*args, **kwargs)

    monkeypatch.setattr(floqnet.msf, "monodromy", counted)
    return calls


def _path_graph(n):
    """A path of n nodes: n distinct Laplacian eigenvalues."""
    adjacency = np.eye(n, k=1) + np.eye(n, k=-1)
    return from_adjacency(adjacency)


class TestMsfPoint:
    def test_kappa_zero_excludes_unity(self, vdp, vdp_cycle):
        point = msf_point(vdp, vdp_cycle, 0.0)
        assert point.mu_max == pytest.approx(VDP_MU2_REF, rel=1e-6)
        assert point.mu_max < 1.0

    def test_full_mask_follows_exponential_shift(self, vdp, vdp_cycle):
        t = vdp_cycle.period
        for kappa in (0.5, 1.0, 2.0):
            point = msf_point(vdp, vdp_cycle, kappa)
            assert point.mu_max == pytest.approx(np.exp(-kappa * t),
                                                 rel=1e-6)

    def test_partial_mask_stable_at_unit_coupling(self, vdp, vdp_cycle):
        point = msf_point(vdp, vdp_cycle, 1.0, mask=[0, 1])
        assert point.mu_max < 1.0

    def test_partial_mask_regression_values(self, vdp, vdp_cycle):
        for kappa, expected in MSF_VDP_PARTIAL_REGRESSION.items():
            point = msf_point(vdp, vdp_cycle, kappa, mask=[0, 1])
            assert point.mu_max == pytest.approx(expected, rel=1e-8)

    def test_negative_kappa_expands(self, vdp, vdp_cycle):
        point = msf_point(vdp, vdp_cycle, -1.0)
        assert point.mu_max == pytest.approx(np.exp(vdp_cycle.period),
                                             rel=1e-6)

    def test_multipliers_attached(self, vdp, vdp_cycle):
        point = msf_point(vdp, vdp_cycle, 0.5)
        assert point.multipliers.shape == (2,)
        mon = monodromy(vdp, vdp_cycle, kappa=0.5)
        assert np.array_equal(point.multipliers, mon.multipliers)


class TestMsfSweep:
    def test_singleton_grid_matches_point(self, vdp, vdp_cycle):
        curve = msf_sweep(vdp, vdp_cycle, [0, 1], [0.0])
        point = msf_point(vdp, vdp_cycle, 0.0, mask=[0, 1])
        assert curve.points[0].mu_max == point.mu_max
        assert curve.points[0].kappa == 0.0

    def test_full_mask_log_linear_slope(self, vdp, vdp_cycle):
        grid = np.array([0.5, 1.0, 2.0])
        curve = msf_sweep(vdp, vdp_cycle, None, grid)
        logs = np.log(curve.mu_max)
        slopes = np.diff(logs) / np.diff(grid)
        assert np.abs(slopes + vdp_cycle.period).max() < 1e-6

    def test_partial_mask_stable_and_decreasing_at_small_kappa(
            self, vdp, vdp_cycle):
        grid = np.arange(0.1, 1.21, 0.1)
        curve = msf_sweep(vdp, vdp_cycle, [0, 1], grid)
        assert np.all(curve.mu_max < 1.0)
        assert np.all(np.diff(curve.mu_max) < 0.0)

    def test_grid_validation(self, vdp, vdp_cycle):
        with pytest.raises(InvalidParam):
            msf_sweep(vdp, vdp_cycle, None, [])
        with pytest.raises(InvalidParam):
            msf_sweep(vdp, vdp_cycle, None, [1.0, 0.5])
        with pytest.raises(InvalidParam):
            msf_sweep(vdp, vdp_cycle, None, [-0.5, 1.0])
        with pytest.raises(InvalidParam):
            msf_sweep(vdp, vdp_cycle, None, [0.0, np.inf])

    @pytest.mark.parametrize("model, cycle, mask", [
        ("vdp", "vdp_cycle", [0, 1]),
        ("vdp", "vdp_cycle", None),
        ("repressilator", "rep_cycle", [0, 1, 0, 1, 0, 1]),
    ])
    def test_batched_sweep_matches_per_point_monodromy(
            self, request, model, cycle, mask):
        model = request.getfixturevalue(model)
        lc = request.getfixturevalue(cycle)
        curve = msf_sweep(model, lc, mask, default_kappa_grid())
        for point in curve.points:
            expected = msf_point(model, lc, point.kappa, mask=mask).mu_max
            assert point.mu_max == pytest.approx(expected, rel=1e-8)


class TestSyncPredicate:
    def test_complete_three_full_mask(self, vdp, vdp_cycle):
        verdict = sync_predicate(vdp, vdp_cycle, complete_graph(3), 1.0)
        assert verdict.synchronizes
        assert np.allclose(verdict.lambdas, [0.0, 3.0, 3.0])
        t = vdp_cycle.period
        assert verdict.mu_max[1] == pytest.approx(np.exp(-3.0 * t), rel=1e-6)

    def test_mode_one_reported_but_not_gating(self, vdp, vdp_cycle):
        verdict = sync_predicate(vdp, vdp_cycle, complete_graph(3), 1.0)
        # mode 1 carries the uncoupled non-unity maximum, below 1 anyway
        assert verdict.mu_max[0] == pytest.approx(VDP_MU2_REF, rel=1e-6)

    @pytest.mark.parametrize("coupling", ["zero-gain", "zero-mask"])
    @pytest.mark.parametrize("name, cycle", [("vdp", "vdp_cycle"),
                                             ("repressilator", "rep_cycle")],
                             ids=["vdp", "repressilator"])
    def test_zero_gain_never_synchronizes(self, request, name, cycle,
                                          coupling):
        # K = 0 or a mask with no 1 gives K*DH = 0: the modes decouple.
        model = request.getfixturevalue(name)
        lc = request.getfixturevalue(cycle)
        K, mask = (0.0, None) if coupling == "zero-gain" \
            else (1.0, np.zeros(model.dim))
        verdict = sync_predicate(model, lc, complete_graph(3), K, mask=mask)
        assert not verdict.synchronizes
        if coupling == "zero-gain":
            assert np.all(verdict.mu_max < 1.0)  # yet the verdict is false
        else:  # the unity multiplier, a round-off from either side of 1
            np.testing.assert_allclose(verdict.mu_max[1:], 1.0, atol=1e-6)

    def test_negative_gain_fails_by_shift_law(self, vdp, vdp_cycle):
        verdict = sync_predicate(vdp, vdp_cycle, complete_graph(3), -0.5)
        assert not verdict.synchronizes
        expected = np.exp(0.5 * 3.0 * vdp_cycle.period)
        assert verdict.mu_max[1] == pytest.approx(expected, rel=1e-6)

    def test_full_mask_closed_form_over_modes(self, vdp, vdp_cycle):
        graph = complete_graph(4)
        k = 0.7
        verdict = sync_predicate(vdp, vdp_cycle, graph, k)
        for lam, mu in zip(verdict.lambdas[1:], verdict.mu_max[1:]):
            assert mu == pytest.approx(np.exp(-k * lam * vdp_cycle.period),
                                       rel=1e-6)

    def test_msf_depends_on_product_only(self, vdp, vdp_cycle):
        a = msf_point(vdp, vdp_cycle, 2.0 * 1.0, mask=[0, 1])
        b = msf_point(vdp, vdp_cycle, 1.0 * 2.0, mask=[0, 1])
        assert a.mu_max == b.mu_max  # bit-identical

    def test_one_monodromy_per_distinct_kappa(self, vdp, vdp_cycle,
                                              monkeypatch):
        # complete_graph(32): lambda = 0 once and 32 (to rounding) 31 times.
        # A partial mask integrates each distinct kappa.
        calls = _count_monodromies(monkeypatch)
        graph = complete_graph(32)
        k = 0.1
        verdict = sync_predicate(vdp, vdp_cycle, graph, k, mask=[0, 1])
        assert len(calls) == 2
        assert verdict.synchronizes
        assert verdict.mu_max[0] == pytest.approx(VDP_MU2_REF, rel=1e-6)
        expected = _point(calls[1], monodromy(
            vdp, vdp_cycle, kappa=calls[1], mask=[0, 1]).multipliers).mu_max
        assert np.all(verdict.mu_max[1:] == expected)

    def test_disconnected_graph_rejected(self, vdp, vdp_cycle):
        two_pairs = np.zeros((4, 4))
        two_pairs[0, 1] = two_pairs[1, 0] = 1.0
        two_pairs[2, 3] = two_pairs[3, 2] = 1.0
        graph = from_adjacency(two_pairs)
        with pytest.raises(DisconnectedGraph):
            sync_predicate(vdp, vdp_cycle, graph, 1.0)

    # inf * lambda_1 = inf * 0 warns before the nan kappa is refused.
    @pytest.mark.parametrize("K", [np.nan, pytest.param(
        np.inf, marks=pytest.mark.filterwarnings(
            "ignore:invalid value:RuntimeWarning"))])
    def test_non_finite_gain_is_invalid(self, vdp, vdp_cycle, K):
        with pytest.raises(InvalidParam):
            sync_predicate(vdp, vdp_cycle, complete_graph(3), K)


FULLSTATE_CASES = [
    ("vdp", {"mu": 0.5}), ("vdp", {"mu": 1.0}), ("vdp", {"mu": 2.0}),
    ("repressilator", {"alpha": 600.0}),
    ("repressilator", {"alpha": 1000.0}),
    ("repressilator", {"alpha": 2000.0}),
]
FULLSTATE_IDS = ["vdp-0.5", "vdp-1", "vdp-2", "rep-600", "rep-1000",
                 "rep-2000"]


class TestFullStateShiftLaw:
    """A full mask answers every kappa from one uncoupled monodromy,
    scaled by exp(-kappa*T); the integrated variational pass at each kappa
    is the independent route it must agree with."""

    @pytest.mark.parametrize("name, params", FULLSTATE_CASES,
                             ids=FULLSTATE_IDS)
    def test_sweep_is_shift_law_and_matches_integration(
            self, cycle_of, name, params):
        model, lc = cycle_of(name, **params)
        grid = default_kappa_grid()
        curve = msf_sweep(model, lc, None, grid)
        base = monodromy(model, lc)
        integrated = variational_factors(model, lc, grid)
        for point, factors in zip(curve.points, integrated):
            assert np.array_equal(
                point.multipliers,
                shifted_multipliers_fullstate(base, point.kappa))
            direct = _point(point.kappa, _cyclic_multipliers(factors))
            assert point.mu_max == pytest.approx(direct.mu_max, rel=1e-8)
            np.testing.assert_allclose(
                np.sort(np.abs(point.multipliers)),
                np.sort(np.abs(direct.multipliers)), rtol=1e-6, atol=0)

    @pytest.mark.parametrize("K", [0.7, -0.2])
    @pytest.mark.parametrize("name, params", FULLSTATE_CASES,
                             ids=FULLSTATE_IDS)
    def test_predicate_is_shift_law_and_matches_integration(
            self, cycle_of, name, params, K):
        model, lc = cycle_of(name, **params)
        graph = _path_graph(4)
        verdict = sync_predicate(model, lc, graph, K)
        base = monodromy(model, lc)
        for lam, mu in zip(verdict.lambdas, verdict.mu_max):
            kappa = K * lam
            assert mu == _point(
                kappa, shifted_multipliers_fullstate(base, kappa)).mu_max
            direct = msf_point(model, lc, kappa).mu_max
            assert mu == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("grid", [[0.0], [0.5, 1.0, 2.0],
                                      default_kappa_grid()],
                             ids=["zero", "three", "default"])
    def test_sweep_makes_one_uncoupled_monodromy(self, vdp, vdp_cycle,
                                                 monkeypatch, grid):
        calls = _count_monodromies(monkeypatch)
        msf_sweep(vdp, vdp_cycle, None, grid)
        assert calls == [0.0]

    @pytest.mark.parametrize("graph, K", [
        (complete_graph(3), 1.0), (complete_graph(32), 0.1),
        (_path_graph(5), 0.7), (complete_graph(3), -0.5),
        (_path_graph(5), -0.1),
    ], ids=["complete3", "complete32", "path5", "complete3-neg",
            "path5-neg"])
    def test_predicate_makes_one_uncoupled_monodromy(
            self, vdp, vdp_cycle, monkeypatch, graph, K):
        calls = _count_monodromies(monkeypatch)
        verdict = sync_predicate(vdp, vdp_cycle, graph, K)
        assert calls == [0.0]
        assert verdict.synchronizes == (K > 0)

    @pytest.mark.parametrize("mask", [None, [0, 1]], ids=["full", "partial"])
    @pytest.mark.parametrize("K", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain_refused_before_integration(
            self, vdp, vdp_cycle, monkeypatch, mask, K):
        calls = _count_monodromies(monkeypatch)
        with pytest.raises(InvalidParam):
            sync_predicate(vdp, vdp_cycle, complete_graph(3), K, mask=mask)
        assert calls == []
