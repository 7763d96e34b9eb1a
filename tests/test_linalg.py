"""Tests for the small dense matrix toolbox: the spectrum order, the
one-factor lift that every multiplier comes from, and the principal
eigen-logarithm behind the Lyapunov-Floquet factor."""
import numpy as np
import pytest

from floqnet.exceptions import NonConvergence, NonDiagonalizable, \
    SingularInput
from floqnet.floquet import _cyclic_multipliers
from floqnet.linalg import _principal_log_eig, sort_spectrum
from oracles import expm


def eigenvalues(a):
    """The sorted spectrum of one matrix, as the lift takes it."""
    return _cyclic_multipliers([a])


def log_principal(a):
    """L = (V * log w) @ V^-1 from the eigen-logarithm."""
    log_w, v, v_inv = _principal_log_eig(a)
    return (v * log_w) @ v_inv


EQ13_LAPLACIAN = np.array([[2.0, -1.0, -1.0],
                           [-1.0, 2.0, -1.0],
                           [-1.0, -1.0, 2.0]])


class TestEigenvalues:
    """The spectrum of one matrix through the block-cyclic lift."""

    def test_identity(self):
        assert np.allclose(eigenvalues(np.eye(3)), np.ones(3))

    def test_rotation_generator(self):
        w = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(w, [1j, -1j])  # +i sorts first

    def test_eq13_laplacian_spectrum(self):
        # characteristic polynomial -s(s-3)^2: eigenvalues {3, 3, 0}
        w = eigenvalues(EQ13_LAPLACIAN)
        assert np.abs(w - np.array([3.0, 3.0, 0.0])).max() < 1e-12

    def test_conjugate_pairs_for_real_input(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.standard_normal((5, 5))
            w = eigenvalues(a)
            paired = sort_spectrum(np.conj(w))
            assert np.abs(w - paired).max() < 1e-9 * max(1.0, np.abs(w).max())

    def test_product_matches_determinant(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            a = rng.standard_normal((dim, dim))
            det = np.linalg.det(a)
            prod = np.prod(eigenvalues(a))
            assert abs(prod - det) < 1e-8 * max(abs(det), 1e-12)

    def test_sort_order_is_deterministic(self):
        w = sort_spectrum([1 - 2j, 1 + 2j, -3.0, 0.5])
        assert w[0] == -3.0
        assert w[1] == 1 + 2j and w[2] == 1 - 2j
        assert w[3] == 0.5


class TestLogPrincipal:
    def test_identity_gives_zero(self):
        assert np.abs(log_principal(np.eye(3))).max() < 1e-14

    def test_diagonal(self):
        m = np.diag([np.e, np.e ** 2])
        assert np.allclose(log_principal(m), np.diag([1.0, 2.0]), atol=1e-12)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            # well-conditioned: diagonally dominant + modest skew
            a = np.eye(4) * 2.0 + 0.3 * rng.standard_normal((4, 4))
            rebuilt = expm(log_principal(a))
            rel = np.abs(rebuilt - a).max() / np.abs(a).max()
            assert rel < 1e-8

    def test_negative_axis_lands_on_principal_branch(self):
        log_w = _principal_log_eig(np.diag([-1.0, 2.0]))[0]
        imag = np.sort(log_w.imag)
        assert imag[0] == pytest.approx(0.0, abs=1e-12)
        assert imag[1] == pytest.approx(np.pi, abs=1e-12)

    def test_trace_imag_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
            tr = np.trace(log_principal(a))
            assert -np.pi * 3 < tr.imag <= np.pi * 3

    def test_non_finite_matrix_raises(self):
        with pytest.raises(NonConvergence):
            log_principal(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_zero_eigenvalue_raises(self):
        with pytest.raises(SingularInput):
            log_principal(np.diag([1.0, 0.0]))

    def test_defective_matrix_raises(self):
        with pytest.raises(NonDiagonalizable):
            log_principal(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        m = expm(np.diag([1.5, -0.5]))
        assert np.allclose(m, np.diag([np.exp(1.5), np.exp(-0.5)]),
                           rtol=1e-13)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            a *= 5.0 / max(np.linalg.norm(a), 1e-9)
            product = expm(a) @ expm(-a)
            assert np.abs(product - np.eye(4)).max() < 1e-10

    def test_rotation_generator(self):
        t = 0.7
        m = expm(t * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        expected = np.array([[np.cos(t), np.sin(t)],
                             [-np.sin(t), np.cos(t)]])
        assert np.allclose(m, expected, atol=1e-14)
