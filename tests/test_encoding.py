import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqc import linalg
from dfsqc.cli import MAX_COHERENCE_RATIO, coherence_ratio
from dfsqc.encoding import (LogicalRegister, collective_dephasing,
                            dfs_report, embed_in_dfs, encode,
                            logical_basis_indices, restrict_to_dfs)
from dfsqc.errors import DimensionError, EmptySubspaceError, ValidationError

from conftest import random_density_matrix
from reference import (dense_collective_phase, expm_hermitian,
                       logical_basis_index, quadrature_dephasing)


@st.composite
def registers(draw):
    """Registers of 1-3 logical qubits on disjoint pairs, each pair in
    either order, with unused ions among and below them."""
    n = draw(st.integers(1, 3))
    ions = draw(st.permutations(range(2 * n + draw(st.integers(0, 3)))))
    return LogicalRegister(n, tuple(zip(ions[:n], ions[n:2 * n])))


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

    @settings(max_examples=60, deadline=None)
    @given(registers())
    def test_indices_and_encode_match_the_oracle(self, reg):
        n = reg.n_logical
        labels = [format(k, f"0{n}b") for k in range(2 ** n)]
        want = [logical_basis_index(reg, bits) for bits in labels]
        assert logical_basis_indices(reg) == want
        for bits, index in zip(labels, want):
            one_hot = np.zeros(reg.dim, dtype=complex)
            one_hot[index] = 1.0
            assert np.array_equal(encode(reg, bits), one_hot)

    @pytest.mark.parametrize("bits", ["0_1", "0b1", " 1", "\u0661", "2"])
    def test_refuses_bits_that_int_would_read(self, bits):
        # int(bits, 2) accepts the first four
        with pytest.raises(ValidationError, match="invalid logical bit"):
            encode(LogicalRegister(len(bits)), bits)

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
            u = dense_collective_phase(register2.n_ions, phi)
            assert np.max(np.abs(p @ u - u @ p)) < 1e-12


class TestDecode:
    def test_basis_roundtrip(self, register2):
        # the decoded state is |k><k| exactly when its fidelity with |k>
        # is 1 and with every other basis state 0
        for k in range(4):
            bits = format(k, "02b")
            psi = encode(register2, bits)
            for j, ideal in enumerate(np.eye(4)):
                perm, fid, overall, _ = dfs_report(np.outer(psi, psi.conj()),
                                                   ideal, register2)
                assert perm == pytest.approx(1.0, abs=1e-12)
                assert fid == pytest.approx(float(j == k), abs=1e-12)
                assert overall == pytest.approx(perm * fid, abs=1e-15)

    def test_outside_dfs_errors(self, register1):
        rho = np.zeros((4, 4), complex)
        rho[3, 3] = 1.0  # |11>
        with pytest.raises(EmptySubspaceError) as err:
            dfs_report(rho, np.array([1.0, 0.0]), register1)
        assert err.value.permanence == pytest.approx(0.0, abs=1e-15)

    def test_half_in_half_out(self, register1):
        psi_in = encode(register1, "0")
        rho = 0.5 * np.outer(psi_in, psi_in.conj())
        rho[3, 3] = 0.5  # half the weight on |11>, outside the subspace
        for ideal, want in (([1.0, 0.0], 1.0), ([0.0, 1.0], 0.0)):
            perm, fid, overall, rho_l = dfs_report(rho, np.array(ideal),
                                                   register1)
            # the logical state is the block renormalized by the permanence
            assert np.array_equal(rho_l, np.diag([1.0, 0.0]))
            assert perm == pytest.approx(0.5, abs=1e-12)
            assert fid == pytest.approx(want, abs=1e-12)
            assert overall == pytest.approx(0.5 * want, abs=1e-12)

    def test_wrong_dimension_refused(self, register1):
        with pytest.raises(DimensionError):
            dfs_report(np.eye(8) / 8, np.array([1.0, 0.0]), register1)

    def test_permanence_in_unit_interval(self, register2, rng):
        rho = random_density_matrix(16, rng)
        assert 0.0 <= np.trace(restrict_to_dfs(rho, register2)).real <= 1.0


STDS = (0.0, 1.0, np.pi, 1e4)


class TestCollectiveDephasing:
    def test_dfs_states_immune(self, register2, rng):
        idx = logical_basis_indices(register2)
        amp = rng.normal(size=4) + 1j * rng.normal(size=4)
        amp /= np.linalg.norm(amp)
        psi = np.zeros(16, complex)
        psi[idx] = amp
        rho = np.outer(psi, psi.conj())
        for std in STDS:
            assert np.max(np.abs(collective_dephasing(rho, std) - rho)) < 1e-12

    def test_physical_superposition_decays(self):
        psi = np.array([1, 1], complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        out = collective_dephasing(rho, 1.0)
        assert out[0, 1] == pytest.approx(0.5 * np.exp(-0.5), rel=1e-14)
        assert out[0, 0] == pytest.approx(0.5)
        # a spread far past 2 pi wipes the coherence out exactly
        assert collective_dephasing(rho, 1e4)[0, 1] == 0.0

    def test_single_zero_phase_is_identity(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.array_equal(collective_dephasing(rho, 0.0), rho)

    def test_matches_explicit_average(self, rng):
        # oracle: average U rho U+ over the Gaussian phase by quadrature
        rho = random_density_matrix(8, rng)
        for std in (0.0, 0.3, 1.0, 2.0):
            assert np.max(np.abs(collective_dephasing(rho, std)
                                 - quadrature_dephasing(rho, std))) < 1e-12

    def test_stack_matches_single_matrices(self, rng):
        stack = np.stack([random_density_matrix(8, rng) for _ in range(6)])
        out = collective_dephasing(stack.reshape(2, 3, 8, 8), 0.7)
        for rho, got in zip(stack, out.reshape(6, 8, 8)):
            assert np.array_equal(got, collective_dephasing(rho, 0.7))

    @pytest.mark.parametrize("shape", [(), (4,), (0, 0), (3, 3), (2, 6, 6),
                                       (4, 2), (1, 1)])
    def test_non_power_of_two_refused(self, shape):
        with pytest.raises(DimensionError):
            collective_dephasing(np.zeros(shape), 1.0)


class TestCoherenceRatio:
    def test_no_noise_ratio_one(self):
        assert coherence_ratio(0.0) == 1.0

    def test_large_noise_exceeds_hundred(self):
        # analytic physical coherence exp(-pi^2/2) ~ 7.2e-3, logical stays 1
        ratio = coherence_ratio(np.pi)
        assert ratio >= 100.0

    @pytest.mark.parametrize("std", [0.0, 0.5, 1.0, 2.0, np.pi, 6.0])
    def test_is_the_analytic_ratio(self, std):
        want = min(np.exp(std ** 2 / 2), MAX_COHERENCE_RATIO)
        assert coherence_ratio(std) == pytest.approx(want, rel=1e-12)

    def test_logical_coherence_always_unity(self):
        reg = LogicalRegister(1)
        psi = (encode(reg, "0") + encode(reg, "1")) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        for std in (0.1, 1.0, np.pi, 10.0, 1e200):
            out = collective_dephasing(rho, std)
            i0, i1 = logical_basis_indices(reg)
            assert abs(out[i0, i1] - 0.5) < 1e-12

    def test_cap(self):
        # the true ratio at phi_std=6 is exp(18) ~ 6.6e7, above the cap
        assert coherence_ratio(6.0) == MAX_COHERENCE_RATIO
        assert coherence_ratio(1e200) == MAX_COHERENCE_RATIO


class TestSymmetricEvolutionConservesPermanence:
    def test_blockwise_symmetric_hamiltonian(self, register1, rng):
        # Hamiltonians commuting with the pair's sigma_z sum leave the
        # subspace weight of any state unchanged.
        lam = np.array([2, 0, 0, -2])  # sum sigma_z eigenvalues on 2 ions
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        mask = lam[:, None] == lam[None, :]
        h = h * mask  # project onto the commutant
        u = expm_hermitian(h, 0.9)
        rho = random_density_matrix(4, rng)
        before = np.trace(restrict_to_dfs(rho, register1)).real
        after = np.trace(restrict_to_dfs(u @ rho @ u.conj().T, register1)).real
        assert abs(before - after) < 1e-12
