"""Each correctness gate accepts a genuine floqnet result and rejects a
corrupted copy of it."""
import dataclasses
import math

import numpy as np
import pytest

import gates
from gates import GateFailure

GRID = [0.0, 0.5, 2.0]


def _flip_coupling_sign(curve):
    """The curve a sign-flipped coupling would give: every multiplier
    scaled by exp(+kappa*T) instead of exp(-kappa*T)."""
    points = []
    for p in curve.points:
        scale = math.exp(2.0 * p.kappa * curve.period)
        points.append(dataclasses.replace(
            p, mu_max=p.mu_max * scale, multipliers=p.multipliers * scale))
    return dataclasses.replace(curve, points=tuple(points))


@pytest.fixture(scope="module")
def curves(fq, vdp):
    model, lc = vdp
    return {name: fq.msf_sweep(model, lc, mask, GRID)
            for name, mask in (("full", [1, 1]), ("partial", [0, 1]))}


@pytest.fixture(scope="module")
def mon(fq, vdp):
    model, lc = vdp
    return fq.monodromy(model, lc)


def test_shift_law_accepts_and_rejects_flipped_sign(curves):
    assert gates.shift_law(curves["full"]) <= gates.SHIFT_LAW_RTOL
    with pytest.raises(GateFailure) as info:
        gates.shift_law(_flip_coupling_sign(curves["full"]))
    assert info.value.gate == "shift_law"


@pytest.mark.parametrize("mask", ["full", "partial"])
def test_liouville_accepts_and_rejects_flipped_sign(curves, mask):
    assert gates.liouville(curves[mask]) <= gates.LIOUVILLE_RTOL
    with pytest.raises(GateFailure) as info:
        gates.liouville(_flip_coupling_sign(curves[mask]))
    assert info.value.gate == "liouville"


def test_liouville_rejects_one_wrong_multiplier(curves):
    curve = curves["partial"]
    last = curve.points[-1]
    bad = dataclasses.replace(last, multipliers=last.multipliers * [1.0, 1.01])
    with pytest.raises(GateFailure):
        gates.liouville(dataclasses.replace(
            curve, points=curve.points[:-1] + (bad,)))


def test_liouville_needs_kappa_zero_first(curves):
    curve = curves["full"]
    with pytest.raises(GateFailure):
        gates.liouville(dataclasses.replace(curve, points=curve.points[1:]))


def test_verdict_agrees():
    assert gates.verdict_agrees(True, True) == 0.0
    assert gates.verdict_agrees(False, False) == 0.0
    with pytest.raises(GateFailure) as info:
        gates.verdict_agrees(True, False)
    assert info.value.gate == "verdict_agrees"


def test_unity_multiplier(mon):
    assert gates.unity_multiplier(mon) < gates.UNITY_TOL
    shifted = mon.multipliers * math.exp(+1.0 * mon.period)
    for corrupt in (shifted, np.array([1.0, 1.0 + 1e-4]),
                    np.array([1.0, -1.5])):
        with pytest.raises(GateFailure) as info:
            gates.unity_multiplier(dataclasses.replace(mon,
                                                       multipliers=corrupt))
        assert info.value.gate == "unity_multiplier"


def test_determinant_identity(fq, vdp):
    model, lc = vdp
    det_phi, rhs = fq.ajl_determinant(model, lc, kappa=1.0, mask=[0, 1])
    assert gates.determinant_identity(det_phi, rhs) <= gates.DETERMINANT_RTOL
    flipped = det_phi * math.exp(2.0 * 1.0 * 1 * lc.period)
    with pytest.raises(GateFailure) as info:
        gates.determinant_identity(flipped, rhs)
    assert info.value.gate == "determinant_identity"


def test_lf_residual_gated_only_above_precision_floor(fq, vdp, mon):
    model, lc = vdp
    lf = fq.lf_decomposition(model, lc)
    residual, gated = gates.lf_residual(lf, mon)
    assert gated and residual < gates.LF_RESIDUAL_MAX
    bad = dataclasses.replace(lf, periodicity_residual=1e-2)
    with pytest.raises(GateFailure) as info:
        gates.lf_residual(bad, mon)
    assert info.value.gate == "lf_residual"
    # A repressilator-like spectrum: eps/|mu_min| far above 1e-6.
    tiny = dataclasses.replace(mon, multipliers=np.array([1.0, 4e-21]))
    assert gates.lf_residual(bad, tiny) == (1e-2, False)


def test_nan_fails_a_gate():
    with pytest.raises(GateFailure):
        gates.determinant_identity(float("nan"), 1.0)
