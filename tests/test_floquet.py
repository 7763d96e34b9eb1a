"""Tests for monodromy computation, multiplier structure, the full-state
shift law, determinant identities, and the Lyapunov-Floquet factorization.

Independent oracles: analytic rotation results, Simpson quadrature of the
Jacobian trace along the stored cycle (against both determinant routes),
the closed-form exponential shift, the dense one-row variational pass
(against the Lyapunov-Floquet factor), and factors with an exactly known
product spectrum (against the block-cyclic lift).
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from floqnet import floquet, limit_cycle, linalg
from floqnet.exceptions import ClosureDrift, DimensionMismatch, \
    InvalidParam
from floqnet.floquet import ajl_determinant, lf_decomposition, monodromy, \
    shifted_multipliers_fullstate
from floqnet.models import get_model
from floqnet.msf import _point, default_kappa_grid, msf_sweep
from floqnet.ode import IntegratorConfig, _final_state
from oracles import dense_lf, expm, sequential_factors

VDP_MU2_REF = 8.596950636061e-04  # rel_tol 1e-12 reference


def simpson_trace_integral(model, lc):
    """Quadrature oracle: integral of tr Df(x_s) over one period, from the
    stored uniform samples (independent of any ODE-based route)."""
    n = len(lc.samples)
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
    def test_rotation_traceless(self, rotation, rotation_cycle):
        lhs, rhs = ajl_determinant(rotation, rotation_cycle)
        assert lhs == pytest.approx(1.0, abs=1e-9)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_vdp_partial_mask_includes_mask_trace_factor(self, vdp,
                                                         vdp_cycle):
        t = vdp_cycle.period
        lhs, rhs = ajl_determinant(vdp, vdp_cycle, kappa=1.0, mask=[0, 1])
        assert abs(lhs - rhs) < 1e-6 * rhs
        _, rhs_uncoupled = ajl_determinant(vdp, vdp_cycle, kappa=0.0,
                                           mask=[0, 1])
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
        lf = lf_decomposition(vdp, vdp_cycle)
        mon = monodromy(vdp, vdp_cycle)
        rebuilt = expm(lf.R * vdp_cycle.period)
        rel = np.abs(rebuilt - mon.matrix).max() / np.abs(mon.matrix).max()
        assert rel < 1e-6

    def test_vdp_periodicity(self, vdp, vdp_cycle):
        lf = lf_decomposition(vdp, vdp_cycle)
        assert lf.periodicity_residual < 1e-4

    def test_loose_tolerance_segments_end_on_their_samples(self, cycle_of):
        # At rel_tol 1e-6 the last step of a T/512 segment can round one
        # ulp short of its end; the step must end on it, not leave a
        # sliver that fails as a step-size underflow.
        model, lc = cycle_of("vdp", mu=1.0714285714285716)
        loose = lf_decomposition(
            model, lc, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8))
        assert np.abs(loose.R - lf_decomposition(model, lc).R).max() < 1e-6


@pytest.fixture(scope="module")
def lf_with_oracle(cycle_of):
    """``lf_with_oracle(name, **params)``: the model's lf_decomposition
    next to the per-phase path it replaced, P(t_k) = expm(R t_k) @
    inv(phi(t_k, 0)) with the Taylor oracle expm, built from the same
    transition matrices (the running products of the shooting factors).
    Returns (lf, P_oracle, oracle periodicity residual); cached per model."""
    cache = {}

    def build(name, **params):
        key = (name, tuple(sorted(params.items())))
        if key not in cache:
            model, lc = cycle_of(name, **params)
            seen, real = [], floquet._running_products
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(floquet, "_running_products", lambda f:
                           seen.append(real(f)) or seen[-1])
                lf = lf_decomposition(model, lc)
            phis, = seen
            m = model.dim
            p_oracle = np.array([expm(lf.R * t) @ np.linalg.inv(phi)
                                 for t, phi in zip(lc.times, phis)])
            p_oracle[0] = np.eye(m)
            p_end = expm(lf.R * lc.period) @ np.linalg.inv(phis[-1])
            residual = np.linalg.norm(p_end - np.eye(m)) / np.sqrt(m)
            cache[key] = lf, p_oracle, residual
        return cache[key]

    return build


class TestLFBatchedAgainstPerPhase:
    """The one-eigenbasis, stacked-inverse P against the per-phase Taylor
    expm and inverse it replaced."""

    @pytest.mark.parametrize("name, params", [
        ("vdp", {"mu": 0.5}), ("vdp", {"mu": 1.0}), ("vdp", {"mu": 2.0}),
        ("linear_rotation", {}),
    ], ids=["vdp-0.5", "vdp-1", "vdp-2", "rotation"])
    def test_p_samples_match_oracle(self, lf_with_oracle, name, params):
        lf, p_oracle, _ = lf_with_oracle(name, **params)
        # Relative to the largest entry over all phases: late phases of a
        # contracting cycle have large P, so a per-phase ratio would
        # measure the oracle's own expm error there.
        rel = np.abs(lf.P_samples - p_oracle).max() / np.abs(p_oracle).max()
        assert rel < 1e-6

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_residual_no_larger_than_oracle(self, lf_with_oracle, mu):
        lf, _, oracle_residual = lf_with_oracle("vdp", mu=mu)
        assert lf.periodicity_residual <= oracle_residual

    def test_no_per_matrix_inverse_on_happy_path(self, vdp, vdp_cycle,
                                                 monkeypatch):
        calls = []
        real = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv",
                            lambda a: calls.append(a) or real(a))
        lf_decomposition(vdp, vdp_cycle)
        assert calls == []

    def test_singular_phase_falls_back_to_pinv(self, vdp, vdp_cycle,
                                               monkeypatch):
        clean = lf_decomposition(vdp, vdp_cycle)
        k = 200
        real = floquet._running_products

        def with_singular_sample(factors):
            phis = real(factors)
            phis[k] = 1.0  # phi(t_k, 0) := ones, rank one
            return phis

        monkeypatch.setattr(floquet, "_running_products",
                            with_singular_sample)
        calls = []
        real_pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv",
                            lambda a: calls.append(a) or real_pinv(a))
        lf = lf_decomposition(vdp, vdp_cycle)
        assert len(calls) == 1  # one pseudo-inverse, of phase k alone
        assert np.array_equal(calls[0], np.ones((1, vdp.dim, vdp.dim)))
        assert np.all(np.isfinite(lf.P_samples))
        others = np.arange(len(vdp_cycle.samples)) != k
        assert np.array_equal(lf.P_samples[others], clean.P_samples[others])
        assert lf.periodicity_residual == clean.periodicity_residual


class TestLFAgainstDensePass:
    """The factor from one-segment-per-sample shooting against the dense
    one-row pass over the whole period that it replaced, both at rel_tol
    1e-12, so that the bounds test the two passes and not the default
    tolerance.  At the default, vdp mu = 2's R from either pass lies up to
    2.1e-8 off a rel_tol 1e-12 dense reference, by where the anchor falls.
    At rel_tol 1e-12 the passes' gap in vdp mu = 2's R still depends on
    the anchor: 1.9e-9 at the default-tolerance cycle, 2.78e-8 at an
    anchor moved by 1e-13 or less, and 7.7e-9 to 2.0e-8 at cycles found at
    rel_tol 1e-12.  So its 1e-8 bound sits inside that spread: R is ill
    conditioned there (multipliers 1 and 8.6e-4)."""

    @pytest.mark.parametrize("name, params", [
        ("vdp", {"mu": 0.5}), ("vdp", {"mu": 1.0}), ("vdp", {"mu": 2.0}),
        ("linear_rotation", {}),
    ], ids=["vdp-0.5", "vdp-1", "vdp-2", "rotation"])
    def test_matches_dense_pass(self, cycle_of, name, params):
        model, lc = cycle_of(name, **params)
        tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        lf = lf_decomposition(model, lc, tight)
        r_ref, p_ref = dense_lf(model, lc, tight)
        rel = np.abs(lf.P_samples - p_ref).max() / np.abs(p_ref).max()
        assert rel < 1e-6
        r_err = np.abs(lf.R - r_ref).max()
        if name == "vdp":  # the rotation's R vanishes: absolute there
            r_err /= np.abs(r_ref).max()
        assert r_err < 1e-8


class TestClosureDrift:
    def test_wrong_period_raises(self, vdp, vdp_cycle):
        # At 0.1 % each of the 512 LF segment ends lands at most 3.3e-5
        # off, under the 1e-4 gate; their sum, 7.1e-3, is what it reads.
        for factor in (1.02, 1.001):
            broken = dataclasses.replace(vdp_cycle,
                                         period=vdp_cycle.period * factor)
            with pytest.raises(ClosureDrift):
                monodromy(vdp, broken)
            with pytest.raises(ClosureDrift):
                ajl_determinant(vdp, broken)
            with pytest.raises(ClosureDrift):
                lf_decomposition(vdp, broken)

    def test_displaced_segment_start_raises(self, vdp, vdp_cycle):
        # p = 16 segments of 32 samples: sample 256 starts segment 9, so
        # segment 8 ends 1e-3 (relative) away from it.
        samples = vdp_cycle.samples.copy()
        samples[256] += 1e-3 * np.linalg.norm(vdp_cycle.anchor)
        broken = dataclasses.replace(vdp_cycle, samples=samples)
        with pytest.raises(ClosureDrift, match="segment 8 of 16"):
            monodromy(vdp, broken)
        with pytest.raises(ClosureDrift, match="segment 8 of 16"):
            floquet.variational_factors(vdp, broken, [0.0, 1.0])
        # A sample that starts no segment is not read.
        samples = vdp_cycle.samples.copy()
        samples[257] += 1e-3 * np.linalg.norm(vdp_cycle.anchor)
        shifted = dataclasses.replace(vdp_cycle, samples=samples)
        assert np.array_equal(monodromy(vdp, shifted).multipliers,
                              monodromy(vdp, vdp_cycle).multipliers)


class TestMultipleShootingAgainstSequential:
    """The batched segment pass against the p sequential legs it replaced,
    on the default 51-point sweep grid."""

    @pytest.mark.parametrize("name, params, mask", [
        ("vdp", {"mu": 0.5}, [0, 1]), ("vdp", {"mu": 0.5}, None),
        ("vdp", {"mu": 1.0}, [0, 1]), ("vdp", {"mu": 1.0}, None),
        ("vdp", {"mu": 2.0}, [0, 1]), ("vdp", {"mu": 2.0}, None),
        ("repressilator", {}, [0, 1, 0, 1, 0, 1]),
    ], ids=["vdp-0.5-partial", "vdp-0.5-full", "vdp-1-partial",
            "vdp-1-full", "vdp-2-partial", "vdp-2-full",
            "repressilator-partial"])
    def test_sweep_matches_sequential_legs(self, cycle_of, name, params,
                                           mask):
        model, lc = cycle_of(name, **params)
        grid = default_kappa_grid()
        curve = msf_sweep(model, lc, mask, grid)
        factors, x_end = sequential_factors(model, lc, grid, mask)
        assert np.linalg.norm(x_end - lc.anchor) \
            < 1e-6 * np.linalg.norm(lc.anchor)
        for point, segment_factors in zip(curve.points, factors):
            expected = _point(point.kappa,
                              floquet._cyclic_multipliers(segment_factors))
            rel = (np.abs(point.multipliers - expected.multipliers)
                   / np.abs(expected.multipliers))
            assert rel.max() < 1e-6, f"kappa={point.kappa}: {rel.max():.3g}"
            assert point.mu_max == pytest.approx(expected.mu_max, rel=1e-8)


class TestSegmentGrid:
    """Every pass but the Lyapunov-Floquet one shoots 16 segments of 32
    of the 512 cycle samples; the lift pairs factors past 64 rows."""

    @pytest.mark.parametrize("name,fixture", [("vdp", "vdp_cycle"),
                                              ("repressilator", "rep_cycle")])
    def test_segments_start_on_every_32nd_sample(self, name, fixture,
                                                 request, monkeypatch):
        lc = request.getfixturevalue(fixture)
        seen = []

        def recorded(field, x0, t_span, cfg):
            seen.append((x0.copy(), t_span))
            return _final_state(field, x0, t_span, cfg)

        # The shooting core that floquet shares with the cycle search.
        monkeypatch.setattr(limit_cycle, "_final_state", recorded)
        floquet.variational_factors(get_model(name), lc, [0.0, 1.0])
        (x0, span), = seen
        m = lc.samples.shape[1]
        starts = x0.reshape(2, 16, -1)[:, :, :m]
        assert np.array_equal(starts[0], lc.samples[np.arange(16) * 32])
        assert np.array_equal(starts[1], starts[0])
        assert span == (0.0, lc.period / 16)

    def test_six_state_lift_is_built_from_8_paired_factors(self,
                                                           monkeypatch):
        rng = np.random.default_rng(3)
        factors = rng.standard_normal((16, 6, 6))
        sizes = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda c: sizes.append(c.shape) or eigvals(c))
        paired = floquet._cyclic_multipliers(factors)
        assert np.array_equal(paired, floquet._cyclic_multipliers(
            factors[1::2] @ factors[0::2]))
        # Two-state factors fit 16 to a 32 x 32 lift, unpaired.
        floquet._cyclic_multipliers(rng.standard_normal((16, 2, 2)))
        assert sizes == [(48, 48), (48, 48), (32, 32)]

    def test_sample_count_not_split_by_16_is_dimension_mismatch(
            self, vdp, vdp_cycle):
        short = dataclasses.replace(vdp_cycle, times=vdp_cycle.times[:500],
                                    samples=vdp_cycle.samples[:500])
        with pytest.raises(DimensionMismatch, match="500 samples"):
            floquet.variational_factors(vdp, short, [0.0])
        with pytest.raises(DimensionMismatch, match="500 samples"):
            monodromy(vdp, short)


def test_repressilator_multipliers_match_tight_sequential_pass(
        repressilator, rep_cycle):
    # The partial-mask spectrum spans down to ~1e-57; every multiplier,
    # the smallest included, must hold 1e-6 relative against the 16
    # sequential legs at rel_tol 1e-12.
    mask = [0, 1, 0, 1, 0, 1]
    kappas = [0.0, 1.0, 10.0]
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    factors, _ = sequential_factors(repressilator, rep_cycle, kappas, mask,
                                    tight)
    for kappa, reference in zip(kappas, factors):
        expected = floquet._cyclic_multipliers(reference)
        got = monodromy(repressilator, rep_cycle, kappa, mask).multipliers
        rel = np.abs(got - expected) / np.abs(expected)
        assert rel.max() < 1e-6, f"kappa={kappa}: {rel.max():.3g}"


class TestWorkBudget:
    # Machine-independent work counts: each right-hand side calls the
    # batch Jacobian once, so these count integrator stages.  The p legs
    # of the sequential pass took 6632 (sweep) and 2288 (monodromy), the
    # dense Lyapunov-Floquet pass 1802.  The 512-segment Lyapunov-Floquet
    # pass takes 20 when the error controller alone sizes its steps.
    @pytest.fixture
    def counted(self, vdp):
        calls = [0]

        def node_jacobian(xs):
            calls[0] += 1
            return vdp.node_jacobian(xs)
        return dataclasses.replace(vdp, node_jacobian=node_jacobian), calls

    def test_sweep_jacobian_call_budget(self, counted, vdp_cycle):
        model, calls = counted
        msf_sweep(model, vdp_cycle, [0, 1], default_kappa_grid())
        assert 0 < calls[0] <= 1000

    def test_monodromy_jacobian_call_budget(self, counted, vdp_cycle):
        model, calls = counted
        monodromy(model, vdp_cycle)
        assert 0 < calls[0] <= 400

    def test_lf_jacobian_call_budget(self, counted, vdp_cycle):
        model, calls = counted
        lf_decomposition(model, vdp_cycle)
        assert 0 < calls[0] <= 32


def test_non_finite_kappa_is_invalid(vdp, vdp_cycle):
    with pytest.raises(InvalidParam):
        floquet.variational_factors(vdp, vdp_cycle, [1.0, np.nan])
    with pytest.raises(InvalidParam):
        monodromy(vdp, vdp_cycle, kappa=np.inf)


class TestCyclicMultipliers:
    def test_single_factor_is_its_own_spectrum(self):
        # A lift of one factor is that factor: the same sorted values,
        # bit for bit, as a direct eigenvalue solve.
        rng = np.random.default_rng(7)
        for dim in (2, 3, 6):
            a = rng.standard_normal((dim, dim))
            assert np.array_equal(floquet._cyclic_multipliers([a]),
                                  linalg.sort_spectrum(np.linalg.eigvals(a)))


def _factors_with_spectrum(seed, m, n_pairs, floor, near_double, p=16):
    """p factors A_i = Q_{i+1} T_i Q_i^T, with Q_p = Q_0, and the exact
    spectrum of their product Q_0 (T_{p-1} ... T_0) Q_0^T.

    The moduli are 10^u with u uniform in [floor, 0], the first exactly
    10^floor.  Each T_i is block diagonal: the real p-th roots of the
    moduli of the m - 2*n_pairs real multipliers, whose signs the first
    factor carries, and for each pair rho*exp(+-i*theta) a rotation by
    theta/p scaled by rho^(1/p).  ``near_double`` puts the second real
    multiplier at a relative gap of 1e-6 from the first.
    """
    rng = np.random.default_rng(seed)
    n_real = m - 2 * n_pairs
    moduli = 10.0 ** rng.uniform(floor, 0.0, n_real + n_pairs)
    moduli[0] = 10.0 ** floor
    reals = moduli[:n_real] * rng.choice([-1.0, 1.0], n_real)
    if near_double and n_real >= 2:
        reals[1] = reals[0] * (1.0 + 1e-6)
    rhos, thetas = moduli[n_real:], rng.uniform(0.1, np.pi - 0.1, n_pairs)

    t = np.zeros((p, m, m))
    diag = np.arange(n_real)
    t[:, diag, diag] = np.abs(reals) ** (1.0 / p)
    t[0, diag, diag] *= np.sign(reals)
    for j, (rho, theta) in enumerate(zip(rhos, thetas)):
        c, s = np.cos(theta / p), np.sin(theta / p)
        k = n_real + 2 * j
        t[:, k:k + 2, k:k + 2] = rho ** (1.0 / p) * np.array([[c, -s],
                                                              [s, c]])
    q = np.linalg.qr(rng.standard_normal((p, m, m)))[0]
    factors = np.roll(q, -1, axis=0) @ t @ q.transpose(0, 2, 1)
    pairs = rhos * np.exp(1j * thetas)
    return factors, np.concatenate([reals, pairs, pairs.conj()])


def _worst_relative_error(got, want):
    """Largest |got - want| / |want|, each exact value matched to the
    nearest computed one not yet taken."""
    got, worst = list(got), 0.0
    for w in want:
        errors = [abs(g - w) / abs(w) for g in got]
        i = int(np.argmin(errors))
        worst = max(worst, errors[i])
        got.pop(i)
    return worst


class TestCyclicMultipliersKnownSpectrum:
    """Property tests on factors with an exactly known product spectrum:
    moduli down to 1e-60, conjugate pairs and a near-double pair.

    Two states give the unpaired 32 x 32 lift, six the paired 48 x 48 one.
    A 1e-60 multiplier beside an order-one one is the hard case: its roots
    in the lift sit near 1.8e-4 (16th roots) and 3.2e-8 (8th roots).  Over
    3000 numpy seeds the worst relative errors were 7.4e-13 and 6.3e-9.
    Normal T_i only: non-normal factors are a known gap of the paired
    lift."""

    @pytest.mark.parametrize("m, bound", [(2, 1e-11), (6, 1e-7)],
                             ids=["unpaired", "paired"])
    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
           floor=st.integers(-60, 0), near_double=st.booleans())
    def test_multipliers_match_spectrum(self, m, bound, data, seed, floor,
                                        near_double):
        n_pairs = data.draw(st.integers(0, m // 2), label="n_pairs")
        factors, exact = _factors_with_spectrum(seed, m, n_pairs, floor,
                                                near_double)
        got = floquet._cyclic_multipliers(factors)
        assert got.shape == (m,)
        assert _worst_relative_error(got, exact) <= bound
