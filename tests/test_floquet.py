"""Tests for monodromy computation, multiplier structure, the full-state
shift law, determinant identities, and the Lyapunov-Floquet factorization.

Independent oracles: analytic rotation results, Simpson quadrature of the
Jacobian trace along the stored cycle (against both determinant routes),
and the closed-form exponential shift.
"""
import dataclasses

import numpy as np
import pytest

from floqnet.exceptions import ClosureDrift, DimensionMismatch, \
    InvalidParam
from floqnet.floquet import ajl_determinant, lf_decomposition, monodromy, \
    shifted_multipliers_fullstate
from floqnet.models import get_model

VDP_MU2_REF = 8.596950636061e-04  # rel_tol 1e-12 reference


def simpson_trace_integral(model, lc):
    """Quadrature oracle: integral of tr Df(x_s) over one period, from the
    stored uniform samples (independent of any ODE-based route)."""
    n = lc.n_samples
    g = np.array([np.trace(model.jacobian(s)) for s in lc.samples])
    g = np.append(g, g[0])  # periodic closure
    h = lc.period / n
    return h / 3.0 * (g[0] + g[-1] + 4 * g[1:-1:2].sum() + 2 * g[2:-1:2].sum())


class TestRotationMonodromy:
    def test_matrix_is_identity(self, rotation, rotation_cycle):
        mon = monodromy(rotation, rotation_cycle)
        assert np.abs(mon.matrix - np.eye(2)).max() < 1e-8

    def test_unit_multipliers(self, rotation, rotation_cycle):
        mon = monodromy(rotation, rotation_cycle)
        assert np.abs(mon.multipliers - 1.0).max() < 1e-8

    def test_fullstate_shift_analytic(self, rotation, rotation_cycle):
        mon = monodromy(rotation, rotation_cycle, kappa=1.0)
        expected = np.exp(-rotation_cycle.period)  # e^{-2 pi}
        assert np.abs(np.abs(mon.multipliers) - expected).max() \
            < 1e-8 * expected

    @pytest.mark.parametrize("mask", [[1, 0, 1], [1, 0.5]])
    def test_bad_mask_is_dimension_mismatch(self, rotation, rotation_cycle,
                                            mask):
        with pytest.raises(DimensionMismatch):
            monodromy(rotation, rotation_cycle, kappa=1.0, mask=mask)


class TestUncoupledStructure:
    @pytest.mark.parametrize("name,fixture", [("vdp", "vdp_cycle"),
                                              ("repressilator", "rep_cycle")])
    def test_one_unity_multiplier_rest_inside(self, name, fixture, request):
        lc = request.getfixturevalue(fixture)
        mon = monodromy(get_model(name), lc)
        dist = np.abs(mon.multipliers - 1.0)
        assert (dist < 1e-3).sum() == 1
        others = np.abs(mon.multipliers)[dist >= 1e-3]
        assert np.all(others < 1.0)

    def test_vdp_unity_within_1e4(self, vdp, vdp_cycle):
        mon = monodromy(vdp, vdp_cycle)
        assert np.abs(mon.multipliers[0] - 1.0) < 1e-4

    def test_vdp_second_multiplier_reference(self, vdp, vdp_cycle):
        mon = monodromy(vdp, vdp_cycle)
        assert abs(mon.multipliers[1]) == pytest.approx(VDP_MU2_REF,
                                                        rel=1e-6)

    def test_vdp_product_matches_trace_quadrature(self, vdp, vdp_cycle):
        mon = monodromy(vdp, vdp_cycle)
        product = np.prod(mon.multipliers).real
        oracle = np.exp(simpson_trace_integral(vdp, vdp_cycle))
        assert product == pytest.approx(oracle, rel=1e-6)

    def test_det_consistent_with_multipliers(self, vdp, vdp_cycle,
                                             repressilator, rep_cycle):
        for model, lc in ((vdp, vdp_cycle), (repressilator, rep_cycle)):
            mon = monodromy(model, lc)
            product = np.prod(mon.multipliers).real
            assert abs(mon.det - product) < 1e-8 * abs(product)

    def test_assembled_matrix_det_for_moderate_contraction(self, vdp,
                                                           vdp_cycle):
        # for mildly contracting cycles the assembled matrix agrees
        mon = monodromy(vdp, vdp_cycle)
        assert np.linalg.det(mon.matrix) == pytest.approx(mon.det, rel=1e-8)

    def test_exponents_are_principal_logs(self, vdp, vdp_cycle):
        mon = monodromy(vdp, vdp_cycle)
        rebuilt = np.exp(mon.exponents * vdp_cycle.period)
        assert np.abs(rebuilt - mon.multipliers).max() < 1e-10


class TestShiftLaw:
    def test_kappa_zero_unchanged(self, vdp, vdp_cycle):
        base = monodromy(vdp, vdp_cycle)
        assert np.array_equal(shifted_multipliers_fullstate(base, 0.0),
                              base.multipliers)

    @pytest.mark.parametrize("name,fixture", [("vdp", "vdp_cycle"),
                                              ("repressilator", "rep_cycle")])
    def test_direct_integration_matches_shift(self, name, fixture, request):
        lc = request.getfixturevalue(fixture)
        model = get_model(name)
        base = monodromy(model, lc)
        for kappa in (0.25, 0.5, 1.0, 2.0):
            direct = monodromy(model, lc, kappa=kappa)
            predicted = shifted_multipliers_fullstate(base, kappa)
            rel = np.abs(direct.multipliers - predicted) / np.abs(predicted)
            assert rel.max() < 1e-6, f"kappa={kappa}: {rel.max():.3g}"

    def test_requires_uncoupled_base(self, vdp, vdp_cycle):
        shifted_base = monodromy(vdp, vdp_cycle, kappa=0.5)
        with pytest.raises(InvalidParam):
            shifted_multipliers_fullstate(shifted_base, 1.0)


class TestDeterminantIdentity:
    def test_time_zero_trivial(self, vdp, vdp_cycle):
        assert ajl_determinant(vdp, vdp_cycle, t=0.0) == (1.0, 1.0)

    def test_time_outside_period_is_invalid(self, vdp, vdp_cycle):
        for t in (-0.1, 1.01 * vdp_cycle.period):
            with pytest.raises(InvalidParam):
                ajl_determinant(vdp, vdp_cycle, t=t)

    def test_rotation_traceless(self, rotation, rotation_cycle):
        for t in (0.5, 2.0, rotation_cycle.period):
            lhs, rhs = ajl_determinant(rotation, rotation_cycle, t=t)
            assert lhs == pytest.approx(1.0, abs=1e-9)
            assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_vdp_partial_mask_includes_mask_trace_factor(self, vdp,
                                                         vdp_cycle):
        t = vdp_cycle.period
        lhs, rhs = ajl_determinant(vdp, vdp_cycle, kappa=1.0, mask=[0, 1],
                                   t=t)
        assert abs(lhs - rhs) < 1e-6 * rhs
        _, rhs_uncoupled = ajl_determinant(vdp, vdp_cycle, kappa=0.0,
                                           mask=[0, 1], t=t)
        # tr(DH) = 1, so the coupled rhs carries exactly e^{-t}
        assert rhs == pytest.approx(rhs_uncoupled * np.exp(-t), rel=1e-12)

    @pytest.mark.parametrize("name,fixture",
                             [("vdp", "vdp_cycle"),
                              ("repressilator", "rep_cycle"),
                              ("linear_rotation", "rotation_cycle")])
    def test_identity_over_kappa_and_masks(self, name, fixture, request):
        lc = request.getfixturevalue(fixture)
        model = get_model(name)
        partial = np.tile([0.0, 1.0], model.dim // 2)
        for kappa in (0.0, 0.5, 1.0, 2.0):
            for mask in (np.ones(model.dim), partial):
                lhs, rhs = ajl_determinant(model, lc, kappa=kappa, mask=mask)
                assert abs(lhs - rhs) < 1e-6 * rhs, \
                    f"{name} kappa={kappa} mask={mask.tolist()}"

    def test_rhs_cross_checks_simpson_oracle(self, vdp, vdp_cycle):
        _, rhs = ajl_determinant(vdp, vdp_cycle, kappa=0.0)
        oracle = np.exp(simpson_trace_integral(vdp, vdp_cycle))
        assert rhs == pytest.approx(oracle, rel=1e-7)

    def test_volume_contraction_factor(self, vdp, vdp_cycle, repressilator,
                                       rep_cycle):
        # coupled volume = uncoupled volume * e^{-kappa tr(DH) T}, so any
        # kappa > 0 with tr(DH) >= 1 strictly shrinks it
        for model, lc in ((vdp, vdp_cycle), (repressilator, rep_cycle)):
            partial = np.tile([0.0, 1.0], model.dim // 2)
            base, _ = ajl_determinant(model, lc, kappa=0.0, mask=partial)
            for kappa in (0.5, 1.0, 2.0):
                shrunk, _ = ajl_determinant(model, lc, kappa=kappa,
                                            mask=partial)
                factor = np.exp(-kappa * partial.sum() * lc.period)
                assert shrunk < base
                assert shrunk == pytest.approx(base * factor, rel=1e-6)


class TestLFDecomposition:
    def test_rotation_constant_matrix_vanishes(self, rotation,
                                               rotation_cycle):
        lf = lf_decomposition(rotation, rotation_cycle)
        assert np.abs(lf.R).max() < 1e-8

    def test_rotation_p_is_reverse_rotation(self, rotation, rotation_cycle):
        lf = lf_decomposition(rotation, rotation_cycle)
        for k in (0, 100, 300):
            t = lf.times[k]
            expected = np.array([[np.cos(t), -np.sin(t)],
                                 [np.sin(t), np.cos(t)]])
            assert np.abs(lf.P_samples[k] - expected).max() < 1e-7

    def test_rotation_periodicity(self, rotation, rotation_cycle):
        lf = lf_decomposition(rotation, rotation_cycle)
        assert lf.periodicity_residual < 1e-8

    def test_p0_is_identity_exactly(self, vdp, vdp_cycle):
        lf = lf_decomposition(vdp, vdp_cycle)
        assert np.array_equal(lf.P_samples[0], np.eye(2).astype(complex))

    def test_r_eigenvalues_match_exponents(self, vdp, vdp_cycle):
        lf = lf_decomposition(vdp, vdp_cycle)
        mon = monodromy(vdp, vdp_cycle)
        r_eigs = np.sort_complex(np.linalg.eigvals(lf.R))
        exps = np.sort_complex(mon.exponents)
        assert np.abs(r_eigs - exps).max() < 1e-8

    def test_r_reconstructs_monodromy(self, vdp, vdp_cycle):
        from floqnet.linalg import expm
        lf = lf_decomposition(vdp, vdp_cycle)
        mon = monodromy(vdp, vdp_cycle)
        rebuilt = expm(lf.R * vdp_cycle.period)
        rel = np.abs(rebuilt - mon.matrix).max() / np.abs(mon.matrix).max()
        assert rel < 1e-6

    def test_vdp_periodicity(self, vdp, vdp_cycle):
        lf = lf_decomposition(vdp, vdp_cycle)
        assert lf.periodicity_residual < 1e-4


class TestClosureDrift:
    def test_wrong_period_raises(self, vdp, vdp_cycle):
        broken = dataclasses.replace(vdp_cycle,
                                     period=vdp_cycle.period * 1.02)
        with pytest.raises(ClosureDrift):
            monodromy(vdp, broken)
