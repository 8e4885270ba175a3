import dataclasses

import numpy as np
import pytest

from dfsqc.encoding import (LogicalRegister, encode, logical_basis_indices,
                            restrict_to_dfs)
from dfsqc.errors import DimensionError, ValidationError
from dfsqc.gates import (PulseSequence, compile_cnot, cp_pulse, ms_pulse,
                         pulse_unitary, sequence_unitary, z_pulse)
from dfsqc.noise import (CALIBRATED_NOISE, NoiseModel, noisy_op_unitary,
                         sample_noisy_channel, string_neighbors)

# mean permanence of the compiled CNOT over the four logical basis inputs
# under pure 5% addressing crosstalk, frozen from the first run; the
# individual values are {0.9001, 0.9429, 0.9488, 0.8992}
GOLDEN_CNOT_CROSSTALK_PERMANENCE = 0.9227334387532529

# mean gate fidelity of an MS X(pi/2) pulse at 10% intensity imbalance on
# a single pair; analytic value (16 cos^2(pi/40) + 4) / 20
GOLDEN_IMBALANCE_FIDELITY = 0.9950753362380551


@pytest.fixture
def reg():
    return LogicalRegister(2)


@pytest.fixture
def reg1():
    return LogicalRegister(1)


def encoded_inputs(reg, labels):
    """Density matrices of the encoded logical basis states, stacked."""
    psi = np.stack([encode(reg, bits) for bits in labels])
    return psi[:, :, None] * psi[:, None, :].conj()


def mean_gate_fidelity_unitary(u, ideal):
    d = u.shape[0]
    tr = abs(np.trace(ideal.conj().T @ u)) ** 2
    return (tr + d) / (d * d + d)


class TestModel:
    def test_defaults(self):
        m = NoiseModel()
        assert m.addressing_ratio == 0.05
        assert not m.is_stochastic

    def test_ratio_range(self):
        with pytest.raises(ValidationError):
            NoiseModel(addressing_ratio=1.0)

    @pytest.mark.parametrize("epsilon", [-1.0, -3.0, float("nan")])
    def test_imbalance_keeps_first_weight_positive(self, epsilon):
        with pytest.raises(ValidationError):
            NoiseModel(intensity_imbalance=epsilon)
        NoiseModel(intensity_imbalance=-0.99)

    def test_json_roundtrip(self):
        m = NoiseModel(0.05, 0.08, 0.3, 0.3, seed=7)
        assert NoiseModel.from_json(dataclasses.asdict(m)) == m


class TestNeighbors:
    def test_interior_pair(self):
        assert string_neighbors((1, 2), 4) == (0, 3)

    def test_edge_pair(self):
        assert string_neighbors((0, 1), 4) == (2,)
        assert string_neighbors((2, 3), 4) == (1,)


class TestCrosstalk:
    def test_zero_ratio_is_ideal(self, reg):
        for op in [ms_pulse(np.pi / 2, 0, reg), cp_pulse(np.pi / 4, (0, 1), reg),
                   z_pulse(0.7, 1, reg)]:
            u = noisy_op_unitary(op, reg.n_ions, ratio=0.0)
            assert np.max(np.abs(u - pulse_unitary(op, reg.n_ions))) < 1e-12

    def test_unitary(self, reg):
        op = ms_pulse(np.pi, 0, reg)
        u = noisy_op_unitary(op, reg.n_ions, ratio=0.05)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12

    def test_ms_crosstalk_leaks_from_subspace(self, reg):
        op = ms_pulse(np.pi, 0, reg)
        u = noisy_op_unitary(op, reg.n_ions, ratio=0.05)
        psi = encode(reg, "00")
        out = u @ psi
        rho = np.outer(out, out.conj())
        assert np.trace(restrict_to_dfs(rho, reg)).real < 1.0 - 1e-6

    def test_cp_crosstalk_stays_diagonal(self, reg):
        # z-type residual light dephases but cannot leak population
        op = cp_pulse(np.pi / 4, (0, 1), reg)
        u = noisy_op_unitary(op, reg.n_ions, ratio=0.05)
        assert np.max(np.abs(u - np.diag(np.diag(u)))) < 1e-12
        idx = logical_basis_indices(reg)
        psi = np.zeros(16, complex)
        psi[idx] = 0.5  # equal logical superposition
        out = u @ psi
        rho = np.outer(out, out.conj())
        assert np.trace(restrict_to_dfs(rho, reg)).real == pytest.approx(
            1.0, abs=1e-12)
        # but it is a real coherent error within the subspace
        ideal_out = pulse_unitary(op, reg.n_ions) @ psi
        assert abs(np.vdot(ideal_out, out)) < 1.0 - 1e-6

    def test_cnot_permanence_golden(self, reg):
        cnot = compile_cnot(0, 1, reg)
        model = NoiseModel(addressing_ratio=0.05, seed=0)
        rhos = sample_noisy_channel(
            cnot, encoded_inputs(reg, ["00", "01", "10", "11"]), model, 1)
        perms = [np.trace(restrict_to_dfs(rho, reg)).real for rho in rhos]
        assert np.mean(perms) == pytest.approx(
            GOLDEN_CNOT_CROSSTALK_PERMANENCE, abs=1e-9)
        # plausibility band around the published mean permanence of 89(7)%
        assert 0.75 < np.mean(perms) < 0.99


class TestImbalance:
    def test_zero_is_ideal(self, reg1):
        op = ms_pulse(np.pi / 2, 0, reg1)
        u = noisy_op_unitary(op, reg1.n_ions, epsilon=0.0)
        assert np.max(np.abs(u - pulse_unitary(op, reg1.n_ions))) < 1e-12

    def test_quadratic_scaling(self, reg1):
        # infidelity must fit a power law with exponent 2 over two decades
        op = ms_pulse(np.pi / 2, 0, reg1)
        ideal = pulse_unitary(op, reg1.n_ions)
        eps = np.logspace(-3, -1, 9)
        infid = []
        for e in eps:
            u = noisy_op_unitary(op, reg1.n_ions, epsilon=e)
            infid.append(1 - mean_gate_fidelity_unitary(u, ideal))
        slope = np.polyfit(np.log(eps), np.log(infid), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_golden_at_ten_percent(self, reg1):
        op = ms_pulse(np.pi / 2, 0, reg1)
        u = noisy_op_unitary(op, reg1.n_ions, epsilon=0.1)
        f = mean_gate_fidelity_unitary(u, pulse_unitary(op, reg1.n_ions))
        assert f == pytest.approx(GOLDEN_IMBALANCE_FIDELITY, abs=1e-12)

    def test_cp_imbalance_also_quadratic(self, reg):
        op = cp_pulse(np.pi / 4, (0, 1), reg)
        ideal = pulse_unitary(op, reg.n_ions)
        eps = np.logspace(-3, -1, 7)
        infid = [1 - mean_gate_fidelity_unitary(
            noisy_op_unitary(op, reg.n_ions, epsilon=e), ideal) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(infid), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestSampledChannel:
    def test_deterministic_model_gives_rank_one(self, reg):
        seq = compile_cnot(0, 1, reg)
        model = NoiseModel(addressing_ratio=0.0, seed=9)
        psi = encode(reg, "00")
        rho = sample_noisy_channel(seq, np.outer(psi, psi), model, n_samples=17)
        ideal = sequence_unitary(seq) @ psi
        assert np.max(np.abs(rho - np.outer(ideal, ideal.conj()))) < 1e-12
        evals = np.linalg.eigvalsh(rho)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)

    def test_collective_phase_invisible_in_subspace(self, reg):
        # the compiled CNOT keeps DFS inputs inside the subspace, so pure
        # collective-phase noise must act as the identity channel
        seq = compile_cnot(0, 1, reg)
        model = NoiseModel(addressing_ratio=0.0, collective_phase_std=1.5,
                           seed=21)
        psi = encode(reg, "10")
        rho = sample_noisy_channel(seq, np.outer(psi, psi), model, n_samples=64)
        ideal = sequence_unitary(seq) @ psi
        assert np.max(np.abs(rho - np.outer(ideal, ideal.conj()))) < 1e-10

    def test_trace_preserving_and_positive(self, reg):
        seq = compile_cnot(0, 1, reg)
        rho = sample_noisy_channel(seq, encoded_inputs(reg, ["11"])[0],
                                   CALIBRATED_NOISE, n_samples=50, seed=5)
        assert abs(np.trace(rho) - 1) < 1e-10
        assert np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) > -1e-9

    def test_reproducible_bit_exact(self, reg):
        seq = compile_cnot(0, 1, reg)
        rho = encoded_inputs(reg, ["00"])[0]
        a = sample_noisy_channel(seq, rho, CALIBRATED_NOISE, 40, seed=77)
        b = sample_noisy_channel(seq, rho, CALIBRATED_NOISE, 40, seed=77)
        assert np.array_equal(a, b)

    def test_seed_required(self, reg):
        seq = compile_cnot(0, 1, reg)
        model = NoiseModel(seed=None)
        with pytest.raises(ValidationError):
            sample_noisy_channel(seq, encoded_inputs(reg, ["00"]), model, 8)

    def test_stack_matches_single_inputs_bit_exact(self, reg, rng):
        seq = compile_cnot(0, 1, reg)
        psi = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        rhos = np.stack([np.outer(v, v.conj()) / np.vdot(v, v) for v in psi])
        stack = np.stack([rhos, encoded_inputs(reg, ["00", "01", "11"])])
        out = sample_noisy_channel(seq, stack, CALIBRATED_NOISE, 20, seed=3)
        assert out.shape == (2, 3, 16, 16)
        for idx in np.ndindex(2, 3):
            single = sample_noisy_channel(seq, stack[idx], CALIBRATED_NOISE,
                                          20, seed=3)
            assert np.array_equal(out[idx], single)

    def test_no_model_is_the_ideal_sequence(self, reg, rng):
        seq = compile_cnot(1, 0, reg)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi)
        u = sequence_unitary(seq)
        out = sample_noisy_channel(seq, rho, None, 1)
        assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-14

    def test_state_vector_input_rejected(self, reg):
        seq = compile_cnot(0, 1, reg)
        with pytest.raises(DimensionError):
            sample_noisy_channel(seq, encode(reg, "00"), CALIBRATED_NOISE, 4,
                                 seed=1)


class TestCalibratedBellBand:
    def test_all_four_fidelities_in_band(self, reg):
        from dfsqc.tomography import dfs_report
        from dfsqc.gates import bell_state_logical
        cnot = compile_cnot(0, 1, reg)
        prep = ms_pulse(np.pi / 2, 0, reg)
        seq = PulseSequence(ops=[prep] + list(cnot.ops), register=reg)
        labels = ["00", "01", "10", "11"]
        rhos = sample_noisy_channel(seq, encoded_inputs(reg, labels),
                                    CALIBRATED_NOISE, 300)
        for bits, rho in zip(labels, rhos):
            perm, fid, overall = dfs_report(rho, bell_state_logical(bits), reg)
            assert 0.85 <= fid <= 0.95
            assert overall == pytest.approx(perm * fid, abs=1e-12)
