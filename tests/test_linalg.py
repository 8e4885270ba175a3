import numpy as np
import pytest

from dfsqc.errors import DimensionError, ValidationError
from dfsqc.linalg import (ID2, KET0, KET1, SIGMA_X, SIGMA_Z,
                          canonicalize_phase, expm_hermitian, fidelity, tensor,
                          z_eigenvalues)

from conftest import random_density_matrix, random_state, random_unitary
from reference import max_phase_diff


def kron_oracle(a, b):
    """Element-by-element Kronecker product, independent of np.kron."""
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            out[i * b.shape[0]:(i + 1) * b.shape[0],
                j * b.shape[1]:(j + 1) * b.shape[1]] = a[i, j] * b
    return out


class TestZEigenvalues:
    def test_diagonal_of_weighted_z_sum(self, rng):
        weights = {0: 0.3, 2: 1.0, 3: -0.7}
        dense = sum(w * tensor(*[SIGMA_Z if i == ion else ID2 for i in range(4)])
                    for ion, w in weights.items())
        assert np.array_equal(np.diag(np.diag(dense)), dense)
        assert np.max(np.abs(z_eigenvalues(4, weights) - np.diag(dense))) < 1e-15

    def test_collective_counts_excitations(self):
        # all weights 1: n minus twice the number of ions in |1>
        lam = z_eigenvalues(3, dict.fromkeys(range(3), 1.0))
        assert lam.tolist() == [3 - 2 * bin(b).count("1") for b in range(8)]


class TestTensor:
    def test_basis_bookkeeping(self):
        # |1> (x) |0> must be basis index 2 of the 4-dim space
        v = tensor(KET1, KET0)
        assert np.allclose(v, [0, 0, 1, 0])

    def test_identity(self):
        assert np.allclose(tensor(ID2, ID2), np.eye(4))

    def test_xx_on_10(self):
        xx = kron_oracle(SIGMA_X, SIGMA_X)
        expected = xx @ tensor(KET1, KET0)
        assert np.allclose(tensor(SIGMA_X, SIGMA_X) @ tensor(KET1, KET0), expected)
        assert np.allclose(expected, tensor(KET0, KET1))

    def test_associative(self, rng):
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(3)]
        left = tensor(tensor(mats[0], mats[1]), mats[2])
        right = tensor(mats[0], tensor(mats[1], mats[2]))
        assert np.allclose(left, right)

    def test_dimension_cap(self):
        big = np.eye(2 ** 11)
        with pytest.raises(DimensionError):
            tensor(big, np.eye(4))

    def test_matches_element_oracle(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(tensor(a, b), kron_oracle(a, b))


class TestExpmHermitian:
    def test_diagonal(self):
        u = expm_hermitian(SIGMA_Z, np.pi / 2)
        assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2),
                                       np.exp(1j * np.pi / 2)]))

    def test_zero(self):
        assert np.allclose(expm_hermitian(np.zeros((4, 4)), 0.37), np.eye(4))

    def test_xx_series_oracle(self):
        # independent oracle: truncated matrix power series for exp(-i t H)
        h = np.kron(SIGMA_X, SIGMA_X)
        t = np.pi / 4
        series = np.zeros((4, 4), complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 40):
            series += term
            term = term @ (-1j * t * h) / k
        psi = tensor(KET1, KET0)
        expected = (tensor(KET1, KET0) - 1j * tensor(KET0, KET1)) / np.sqrt(2)
        assert np.allclose(series @ psi, expected, atol=1e-12)
        assert np.allclose(expm_hermitian(h, t) @ psi, expected, atol=1e-12)

    def test_additive_in_time(self, rng):
        h = rng.normal(size=(6, 6))
        h = (h + h.T) / 2
        u = expm_hermitian(h, 0.3) @ expm_hermitian(h, 0.9)
        assert np.max(np.abs(u - expm_hermitian(h, 1.2))) < 1e-9

    def test_unitary_output_preserves_norm(self, rng):
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (h + h.conj().T) / 2
        u = expm_hermitian(h, 1.7)
        psi = random_state(8, rng)
        assert abs(np.linalg.norm(u @ psi) - 1) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            expm_hermitian(np.array([[0, 1], [0, 0]], complex), 1.0)


class TestFidelity:
    def test_pure_state(self, rng):
        psi = random_state(5, rng)
        assert fidelity(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0)

    def test_maximally_mixed(self, rng):
        psi = random_state(8, rng)
        assert fidelity(np.eye(8) / 8, psi) == pytest.approx(1 / 8)

    def test_depolarized_bell(self):
        # analytic: 0.95 * 1 + 0.05 / 4
        phi = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
        rho = 0.95 * np.outer(phi, phi.conj()) + 0.05 * np.eye(4) / 4
        assert fidelity(rho, phi) == pytest.approx(0.9625, abs=1e-12)

    def test_unitary_invariance(self, rng):
        rho = random_density_matrix(4, rng)
        psi = random_state(4, rng)
        u = random_unitary(4, rng)
        f1 = fidelity(rho, psi)
        f2 = fidelity(u @ rho @ u.conj().T, u @ psi)
        assert abs(f1 - f2) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            fidelity(np.eye(4) / 4, KET0)


class TestPhaseHandling:
    def test_canonicalize_first_nonzero_positive(self):
        m = np.array([[0, -1], [1j, 0]], complex)
        c = canonicalize_phase(m)
        assert c[0, 1].real > 0 and abs(c[0, 1].imag) < 1e-15

    def test_max_phase_diff_detects_equality(self, rng):
        u = random_unitary(4, rng)
        assert max_phase_diff(u, np.exp(1j * 0.7) * u) < 1e-12

    def test_max_phase_diff_detects_difference(self, rng):
        u = random_unitary(4, rng)
        v = random_unitary(4, rng)
        assert max_phase_diff(u, v) > 1e-3
