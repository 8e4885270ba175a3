import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqc.encoding import (LogicalRegister, collective_dephasing, encode,
                            logical_basis_indices, restrict_to_dfs)
from dfsqc.errors import DimensionError, ValidationError
from dfsqc.gates import (circuit_unitary, compile_circuit, compile_cnot,
                         cp_pulse, ms_pulse, pulse_unitary, sequence_unitary,
                         z_pulse)
from dfsqc.noise import (CALIBRATED_NOISE, NoiseModel, pulse_weights,
                         sample_noisy_channel, string_neighbors)

from conftest import BELL_CIRCUIT, random_density_matrix
from reference import noisy_channel, quadrature_channel

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


def noisy_unitary(op, n_ions, ratio=0.0, epsilon=0.0):
    """The pulse's unitary under addressing crosstalk ``ratio`` and
    intensity imbalance ``epsilon``, as the noisy channel builds it."""
    model = NoiseModel(ratio, epsilon, 0.0, 0.0)
    return pulse_unitary(op, n_ions, pulse_weights(op, n_ions, model))


def mean_gate_fidelity_unitary(u, ideal):
    d = u.shape[0]
    tr = abs(np.trace(ideal.conj().T @ u)) ** 2
    return (tr + d) / (d * d + d)


class TestModel:
    def test_defaults(self):
        m = NoiseModel()
        assert m.addressing_ratio == 0.05
        assert m.ac_stark_phase_jitter_std == m.collective_phase_std == 0.0

    def test_ratio_range(self):
        with pytest.raises(ValidationError):
            NoiseModel(addressing_ratio=1.0)

    @pytest.mark.parametrize("epsilon", [-1.0, -3.0, float("nan"), 1.0, 1e160])
    def test_imbalance_keeps_first_weight_positive(self, epsilon):
        with pytest.raises(ValidationError):
            NoiseModel(intensity_imbalance=epsilon)
        NoiseModel(intensity_imbalance=-0.99)

    def test_json_roundtrip(self):
        m = NoiseModel(0.05, 0.08, 0.3, 0.3)
        assert NoiseModel.from_json(m._asdict()) == m


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
            u = noisy_unitary(op, reg.n_ions, ratio=0.0)
            assert np.array_equal(u, pulse_unitary(op, reg.n_ions))

    def test_zero_ratio_weighs_only_the_addressed_ions(self, reg):
        # every op has a string neighbor, which a nonzero ratio weighs
        for op in [ms_pulse(np.pi / 2, 0, reg), cp_pulse(np.pi / 4, (0, 1), reg),
                   z_pulse(0.7, 1, reg)]:
            assert list(pulse_weights(op, reg.n_ions, NoiseModel(
                addressing_ratio=0.0, intensity_imbalance=0.08))) == list(op.targets)
            assert list(pulse_weights(op, reg.n_ions, NoiseModel())) == [
                *op.targets, *string_neighbors(op.targets, reg.n_ions)]

    def test_unitary(self, reg):
        op = ms_pulse(np.pi, 0, reg)
        u = noisy_unitary(op, reg.n_ions, ratio=0.05)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-12

    def test_ms_crosstalk_leaks_from_subspace(self, reg):
        op = ms_pulse(np.pi, 0, reg)
        u = noisy_unitary(op, reg.n_ions, ratio=0.05)
        psi = encode(reg, "00")
        out = u @ psi
        rho = np.outer(out, out.conj())
        assert np.trace(restrict_to_dfs(rho, reg)).real < 1.0 - 1e-6

    def test_cp_crosstalk_stays_diagonal(self, reg):
        # z-type residual light dephases but cannot leak population
        op = cp_pulse(np.pi / 4, (0, 1), reg)
        u = noisy_unitary(op, reg.n_ions, ratio=0.05)
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
        model = NoiseModel(addressing_ratio=0.05)
        rhos = sample_noisy_channel(
            cnot, encoded_inputs(reg, ["00", "01", "10", "11"]), model)
        perms = [np.trace(restrict_to_dfs(rho, reg)).real for rho in rhos]
        assert np.mean(perms) == pytest.approx(
            GOLDEN_CNOT_CROSSTALK_PERMANENCE, abs=1e-9)
        # plausibility band around the published mean permanence of 89(7)%
        assert 0.75 < np.mean(perms) < 0.99


class TestImbalance:
    def test_zero_is_ideal(self, reg1):
        op = ms_pulse(np.pi / 2, 0, reg1)
        u = noisy_unitary(op, reg1.n_ions, epsilon=0.0)
        assert np.max(np.abs(u - pulse_unitary(op, reg1.n_ions))) < 1e-12

    def test_quadratic_scaling(self, reg1):
        # infidelity must fit a power law with exponent 2 over two decades
        op = ms_pulse(np.pi / 2, 0, reg1)
        ideal = pulse_unitary(op, reg1.n_ions)
        eps = np.logspace(-3, -1, 9)
        infid = []
        for e in eps:
            u = noisy_unitary(op, reg1.n_ions, epsilon=e)
            infid.append(1 - mean_gate_fidelity_unitary(u, ideal))
        slope = np.polyfit(np.log(eps), np.log(infid), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_golden_at_ten_percent(self, reg1):
        op = ms_pulse(np.pi / 2, 0, reg1)
        u = noisy_unitary(op, reg1.n_ions, epsilon=0.1)
        f = mean_gate_fidelity_unitary(u, pulse_unitary(op, reg1.n_ions))
        assert f == pytest.approx(GOLDEN_IMBALANCE_FIDELITY, abs=1e-12)

    def test_cp_imbalance_also_quadratic(self, reg):
        op = cp_pulse(np.pi / 4, (0, 1), reg)
        ideal = pulse_unitary(op, reg.n_ions)
        eps = np.logspace(-3, -1, 7)
        infid = [1 - mean_gate_fidelity_unitary(
            noisy_unitary(op, reg.n_ions, epsilon=e), ideal) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(infid), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestSampledChannel:
    def test_deterministic_model_gives_rank_one(self, reg):
        ops = compile_cnot(0, 1, reg)
        model = NoiseModel(addressing_ratio=0.0)
        psi = encode(reg, "00")
        rho = sample_noisy_channel(ops, np.outer(psi, psi), model)
        ideal = sequence_unitary(ops, reg.n_ions) @ psi
        assert np.max(np.abs(rho - np.outer(ideal, ideal.conj()))) < 1e-12
        evals = np.linalg.eigvalsh(rho)
        assert evals[-1] == pytest.approx(1.0, abs=1e-10)

    def test_collective_phase_invisible_in_subspace(self, reg):
        # the compiled CNOT keeps DFS inputs inside the subspace, so pure
        # collective-phase noise must act as the identity channel
        ops = compile_cnot(0, 1, reg)
        model = NoiseModel(addressing_ratio=0.0, collective_phase_std=1.5)
        psi = encode(reg, "10")
        rho = sample_noisy_channel(ops, np.outer(psi, psi), model)
        ideal = sequence_unitary(ops, reg.n_ions) @ psi
        assert np.max(np.abs(rho - np.outer(ideal, ideal.conj()))) < 1e-10

    def test_trace_preserving_and_positive(self, reg):
        ops = compile_cnot(0, 1, reg)
        rho = sample_noisy_channel(ops, encoded_inputs(reg, ["11"])[0],
                                   CALIBRATED_NOISE)
        assert abs(np.trace(rho) - 1) < 1e-10
        assert np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) > -1e-9

    def test_reproducible_bit_exact(self, reg):
        ops = compile_cnot(0, 1, reg)
        rho = encoded_inputs(reg, ["00"])[0]
        a = sample_noisy_channel(ops, rho, CALIBRATED_NOISE)
        b = sample_noisy_channel(ops, rho, CALIBRATED_NOISE)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("model", [NoiseModel(), NoiseModel(
        intensity_imbalance=0.08, collective_phase_std=0.3)])
    def test_no_seed_needed_without_jitter(self, reg, model):
        # without jitter the channel is one conjugation by the product of
        # the noisy pulses, then the collective mask
        ops = compile_cnot(0, 1, reg)
        rho = encoded_inputs(reg, ["00", "11"])
        u = np.eye(reg.dim)
        for op in ops:
            u = pulse_unitary(op, reg.n_ions,
                              pulse_weights(op, reg.n_ions, model)) @ u
        want = collective_dephasing(u @ rho @ u.conj().T,
                                    model.collective_phase_std)
        out = sample_noisy_channel(ops, rho, model)
        assert np.max(np.abs(out - want)) < 1e-14

    @pytest.mark.parametrize("jitter", [1e200, 1.7e308])
    def test_huge_jitter_dephases_without_overflow(self, reg, rng, jitter):
        # the mask of a z pulse on ion 3, with crosstalk on ion 2, keeps
        # only the coherences between states that agree on ions 2 and 3
        # (the two low bits), with no NaN and no warning
        ops = [z_pulse(0.3, 1, reg)]
        rho = random_density_matrix(reg.dim, rng)
        out = sample_noisy_channel(ops, rho, NoiseModel(
            ac_stark_phase_jitter_std=jitter))
        low = np.arange(reg.dim) & 3
        assert np.all(np.isfinite(out))
        assert np.array_equal(out != 0, low[:, None] == low[None, :])

    def test_stack_matches_single_inputs_bit_exact(self, reg, rng):
        ops = compile_cnot(0, 1, reg)
        psi = rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16))
        rhos = np.stack([np.outer(v, v.conj()) / np.vdot(v, v) for v in psi])
        stack = np.stack([rhos, encoded_inputs(reg, ["00", "01", "11"])])
        out = sample_noisy_channel(ops, stack, CALIBRATED_NOISE)
        assert out.shape == (2, 3, 16, 16)
        for idx in np.ndindex(2, 3):
            single = sample_noisy_channel(ops, stack[idx], CALIBRATED_NOISE)
            assert np.array_equal(out[idx], single)

    def test_no_model_is_the_ideal_sequence(self, reg, rng):
        ops = compile_cnot(1, 0, reg)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi)
        u = sequence_unitary(ops, reg.n_ions)
        out = sample_noisy_channel(ops, rho, None)
        assert np.max(np.abs(out - u @ rho @ u.conj().T)) < 1e-14

    def test_state_vector_input_rejected(self, reg):
        ops = compile_cnot(0, 1, reg)
        with pytest.raises(DimensionError):
            sample_noisy_channel(ops, encode(reg, "00"), CALIBRATED_NOISE)

    def test_register_of_no_ions_rejected(self):
        with pytest.raises(DimensionError):
            sample_noisy_channel([], np.ones((1, 1)), None)


STDS = st.just(0.0) | st.floats(0.05, 1.5)
MODELS = st.builds(NoiseModel, st.floats(0.0, 0.3), st.floats(-0.3, 0.3),
                   STDS, STDS)


@st.composite
def noisy_sequences(draw, max_ions=8):
    """``(ops, register)``: a register of 1-3 logical qubits whose pairs sit
    after 0-2 spectator ions, on at most ``max_ions`` ions, and a pulse list
    on it: a CNOT, or a Bell preparation and CNOT, between adjacent logical
    qubits, then a few z and MS pulses."""
    n_logical = draw(st.integers(1, min(3, max_ions // 2)))
    offset = draw(st.integers(0, min(2, max_ions - 2 * n_logical)))
    reg = LogicalRegister(n_logical, tuple((offset + 2 * j, offset + 2 * j + 1)
                                           for j in range(n_logical)))
    ops = []
    if n_logical > 1:
        q = draw(st.integers(0, n_logical - 2))
        control, target = draw(st.permutations([q, q + 1]))
        circuit = [("x", control, np.pi / 2)] if draw(st.booleans()) else []
        ops += compile_circuit(circuit + [("cnot", control, target)], reg)
    angle = st.floats(-np.pi, np.pi)
    for kind, q, theta in draw(st.lists(
            st.tuples(st.sampled_from([z_pulse, ms_pulse]),
                      st.integers(0, n_logical - 1), angle),
            min_size=0 if ops else 1, max_size=3)):
        ops.append(kind(theta, q, reg))
    return ops, reg


def bell_sequence(reg):
    """The pulses of X(pi/2) on logical qubit 0, then the CNOT (0, 1)."""
    return compile_circuit(BELL_CIRCUIT, reg)


class TestNoisyChannel:
    @settings(deadline=None, max_examples=30)
    @given(drawn=noisy_sequences(), model=MODELS, seed=st.integers(0, 2 ** 32))
    def test_matches_quadrature_reference(self, drawn, model, seed):
        # the jitter and collective masks against Gauss-Hermite quadrature
        # over every jittered pulse's angle and the dense collective phase,
        # on full density matrices, so every coherence is tested
        ops, reg = drawn
        rng = np.random.default_rng(seed)
        rho = np.stack([random_density_matrix(reg.dim, rng) for _ in range(2)])
        got = sample_noisy_channel(ops, rho, model)
        want = quadrature_channel(ops, rho, model)
        assert np.max(np.abs(got - want)) < 1e-12

    @settings(deadline=None, max_examples=20)
    @given(drawn=noisy_sequences(), seed=st.integers(0, 2 ** 32))
    def test_no_model_is_the_zero_model_bit_exact(self, drawn, seed):
        ops, reg = drawn
        rng = np.random.default_rng(seed)
        rho = np.stack([random_density_matrix(reg.dim, rng) for _ in range(2)])
        assert np.array_equal(sample_noisy_channel(ops, rho, None),
                              sample_noisy_channel(ops, rho, NoiseModel(
                                  0.0, 0.0, 0.0, 0.0)))

    @settings(deadline=None, max_examples=20)
    @given(drawn=noisy_sequences(max_ions=5), model=MODELS)
    def test_completely_positive_and_trace_preserving(self, drawn, model):
        # the Choi matrix sum_jk |j><k| (x) E(|j><k|), from the d^2 matrix
        # units sent through the channel as one stack
        ops, reg = drawn
        d = reg.dim
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
        out = sample_noisy_channel(ops, units, model).reshape(d, d, d, d)
        choi = out.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        assert np.max(np.abs(choi - choi.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(choi)[0] > -1e-10
        # tracing out the output leaves tr E(|j><k|) = delta_jk
        assert np.max(np.abs(np.einsum("jkii->jk", out) - np.eye(d))) < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_monte_carlo_mean_converges_to_the_exact_channel(self, reg, seed):
        # 3000 shots, each pulse rebuilt at its drawn angle, sit at the
        # 1/sqrt(3000) distance from the exact calibrated Bell outputs
        ops = bell_sequence(reg)
        rho = encoded_inputs(reg, ["00", "01", "10", "11"])
        exact = sample_noisy_channel(ops, rho, CALIBRATED_NOISE)
        sampled = noisy_channel(ops, rho, CALIBRATED_NOISE, 3000, seed)
        assert np.max(np.abs(sampled - exact)) < 0.005


class TestCalibratedBellBand:
    def test_all_four_fidelities_in_band(self, reg):
        from dfsqc.encoding import dfs_report
        labels = ["00", "01", "10", "11"]
        rhos = sample_noisy_channel(bell_sequence(reg),
                                    encoded_inputs(reg, labels), CALIBRATED_NOISE)
        for k, rho in enumerate(rhos):
            perm, fid, overall, _ = dfs_report(
                rho, circuit_unitary(BELL_CIRCUIT)[:, k], reg)
            assert 0.85 <= fid <= 0.95
            assert overall == pytest.approx(perm * fid, abs=1e-12)
