import numpy as np
import pytest

from dfsqc import linalg
from dfsqc.encoding import (LogicalRegister, coherence_ratio,
                            collective_dephasing, collective_phase_unitary,
                            decode_in_dfs, embed_in_dfs, encode,
                            logical_basis_indices, restrict_to_dfs)
from dfsqc.errors import (DimensionError, EmptySubspaceError, ValidationError)

from conftest import random_density_matrix


class TestRegister:
    def test_default_layout(self):
        reg = LogicalRegister(2)
        assert reg.pairs == ((0, 1), (2, 3))
        assert reg.n_ions == 4 and reg.dim == 16

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValidationError):
            LogicalRegister(2, pairs=((0, 1), (1, 2)))

    def test_json_roundtrip(self):
        reg = LogicalRegister(2)
        assert LogicalRegister.from_json(reg.to_json()) == reg


class TestEncode:
    def test_zero_is_10(self, register1):
        # |0>_L = |10>_P, basis index 2
        assert np.allclose(encode(register1, "0"), [0, 0, 1, 0])

    def test_one_is_01(self, register1):
        assert np.allclose(encode(register1, "1"), [0, 1, 0, 0])

    def test_two_qubit_product(self, register2):
        v = encode(register2, "00")
        assert np.allclose(v, linalg.tensor(encode(LogicalRegister(1), "0"),
                                            encode(LogicalRegister(1), "0")))
        assert v[0b1010] == 1.0

    def test_length_mismatch(self, register2):
        with pytest.raises(DimensionError):
            encode(register2, "0")

    def test_encode_state_superposition(self, register1):
        v = np.array([1, 1j]) / np.sqrt(2)
        rho = embed_in_dfs(np.outer(v, v.conj()), register1)
        expected = (encode(register1, "0") + 1j * encode(register1, "1")) / np.sqrt(2)
        assert np.allclose(rho, np.outer(expected, expected.conj()))


class TestProjector:
    def test_idempotent_and_rank(self, register2):
        p = embed_in_dfs(np.eye(4), register2)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert int(round(np.trace(p).real)) == 4

    def test_commutes_with_collective_phase(self, register2):
        p = embed_in_dfs(np.eye(4), register2)
        for phi in (0.3, 1.7, np.pi, 5.4):
            u = collective_phase_unitary(register2.n_ions, phi)
            assert np.max(np.abs(p @ u - u @ p)) < 1e-12


class TestDecode:
    def test_basis_roundtrip(self, register2):
        for k in range(4):
            bits = format(k, "02b")
            psi = encode(register2, bits)
            rho_l, perm = decode_in_dfs(np.outer(psi, psi.conj()), register2)
            assert perm == pytest.approx(1.0, abs=1e-12)
            expected = np.zeros((4, 4))
            expected[k, k] = 1.0
            assert np.allclose(rho_l, expected)

    def test_outside_dfs_errors(self, register1):
        rho = np.zeros((4, 4), complex)
        rho[3, 3] = 1.0  # |11>
        with pytest.raises(EmptySubspaceError) as err:
            decode_in_dfs(rho, register1)
        assert err.value.permanence == pytest.approx(0.0, abs=1e-15)

    def test_half_in_half_out(self, register1):
        psi_in = encode(register1, "0")
        rho = 0.5 * np.outer(psi_in, psi_in.conj())
        rho[3, 3] = 0.5  # half the weight on |11>, outside the subspace
        rho_l, perm = decode_in_dfs(rho, register1)
        assert perm == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(rho_l, np.diag([1.0, 0.0]))

    def test_permanence_in_unit_interval(self, register2, rng):
        rho = random_density_matrix(16, rng)
        assert 0.0 <= np.trace(restrict_to_dfs(rho, register2)).real <= 1.0


class TestCollectiveDephasing:
    def test_dfs_states_immune(self, register2, rng):
        idx = logical_basis_indices(register2)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        psi = np.zeros(16, complex)
        psi[idx] = amp
        rho = np.outer(psi, psi.conj())
        phis = rng.uniform(0, 2 * np.pi, size=500)
        assert np.max(np.abs(collective_dephasing(rho, phis) - rho)) < 1e-12

    def test_physical_superposition_decays(self):
        psi = np.array([1, 1], complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        # exact uniform grid: mean of exp(-i phi) vanishes identically
        phis = 2 * np.pi * np.arange(360) / 360
        out = collective_dephasing(rho, phis)
        assert abs(out[0, 1]) < 1e-12
        assert out[0, 0] == pytest.approx(0.5)

    def test_single_zero_phase_is_identity(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.allclose(collective_dephasing(rho, [0.0]), rho)

    def test_matches_explicit_average(self, rng):
        # oracle: build the channel by explicitly averaging U rho U+
        rho = random_density_matrix(8, rng)
        phis = rng.normal(0, 1.0, size=40)
        acc = np.zeros_like(rho)
        for phi in phis:
            u = collective_phase_unitary(3, phi)
            acc += u @ rho @ u.conj().T
        assert np.allclose(collective_dephasing(rho, phis), acc / len(phis),
                           atol=1e-12)


class TestCoherenceRatio:
    def test_no_noise_ratio_one(self):
        assert coherence_ratio(0.0, 1000, seed=1) == pytest.approx(1.0)

    def test_large_noise_exceeds_hundred(self):
        # analytic physical coherence exp(-pi^2/2) ~ 7.2e-3, logical stays 1
        ratio = coherence_ratio(np.pi, 100_000, seed=12)
        assert ratio >= 100.0

    def test_logical_coherence_always_unity(self, rng):
        reg = LogicalRegister(1)
        psi = (encode(reg, "0") + encode(reg, "1")) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        for std in (0.1, 1.0, np.pi, 10.0):
            phis = rng.normal(0, std, size=2000)
            out = collective_dephasing(rho, phis)
            i0, i1 = logical_basis_indices(reg)
            assert abs(out[i0, i1] - 0.5) < 1e-12

    def test_requires_enough_samples(self):
        with pytest.raises(ValidationError):
            coherence_ratio(1.0, 10, seed=1)

    def test_cap(self):
        # the true ratio at phi_std=pi is well above 50, so a small cap binds
        assert coherence_ratio(np.pi, 100_000, seed=3, max_ratio=50.0) == 50.0


class TestSymmetricEvolutionConservesPermanence:
    def test_blockwise_symmetric_hamiltonian(self, register1, rng):
        # Hamiltonians commuting with the pair's sigma_z sum leave the
        # subspace weight of any state unchanged.
        lam = np.array([2, 0, 0, -2])  # sum sigma_z eigenvalues on 2 ions
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        mask = lam[:, None] == lam[None, :]
        h = h * mask  # project onto the commutant
        u = linalg.expm_hermitian(h, 0.9)
        rho = random_density_matrix(4, rng)
        before = np.trace(restrict_to_dfs(rho, register1)).real
        after = np.trace(restrict_to_dfs(u @ rho @ u.conj().T, register1)).real
        assert abs(before - after) < 1e-12
