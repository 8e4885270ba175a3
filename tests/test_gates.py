import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqc import linalg
from dfsqc.encoding import (LogicalRegister, embed_in_dfs, encode,
                            logical_basis_indices, restrict_to_dfs)
from dfsqc.errors import LayoutError, ValidationError
from dfsqc.cli import main
from dfsqc.gates import (CNOT_LOGICAL, TAU_CP, TAU_MS, PulseOp, circuit_unitary,
                         compile_circuit, compile_cnot, cp_pulse, ms_pulse,
                         pulse_unitary, sequence_unitary, z_pulse)
from dfsqc.noise import (CALIBRATED_NOISE, NoiseModel, sample_noisy_channel,
                         string_neighbors)

from conftest import BELL_CIRCUIT, random_state
from reference import expm_hermitian, max_phase_diff, sequence_from_json


def cp_unitary(theta, pair, register):
    return pulse_unitary(cp_pulse(theta, pair, register), register.n_ions)


def z_unitary(theta, logical_qubit, register):
    return pulse_unitary(z_pulse(theta, logical_qubit, register), register.n_ions)


def ms_unitary(theta, logical_qubit, register, axis_phase=0.0):
    return pulse_unitary(ms_pulse(theta, logical_qubit, register, axis_phase),
                         register.n_ions)


def dfs_weight(psi, register):
    """Permanence of a pure state: the trace of its block on the DFS."""
    rho = np.outer(psi, psi.conj())
    return np.real(np.trace(restrict_to_dfs(rho, register)))


@pytest.fixture
def reg():
    return LogicalRegister(2)


class TestGateParams:
    def test_default_durations(self):
        # pulse times are one closed motional loop, 2 pi / detuning
        assert TAU_MS == pytest.approx(1 / 7000.0)
        assert round(TAU_MS * 1e6) == 143
        assert TAU_CP == pytest.approx(470e-6)


class TestPulseOp:
    def test_ms_needs_adjacent_pair(self):
        with pytest.raises(ValidationError):
            PulseOp("MSRotation", (0, 2), np.pi)

    def test_stark_single_ion(self):
        with pytest.raises(ValidationError):
            PulseOp("ACStarkZ", (0, 1), np.pi)

    def test_json_roundtrip(self):
        op = PulseOp("MSRotation", (2, 3), -np.pi / 2, 0.1, 1e-4)
        assert PulseOp(**op.to_json()) == op


@pytest.mark.parametrize("make, fields, text", [
    (lambda: LogicalRegister(2), "n_logical pairs",
     "LogicalRegister(n_logical=2, pairs=((0, 1), (2, 3)))"),
    (lambda: PulseOp("ACStarkZ", [np.int64(3)], 0.5),
     "kind targets angle phase duration",
     "PulseOp(kind='ACStarkZ', targets=(3,), angle=0.5, phase=0.0, duration=0.0)"),
    (lambda: NoiseModel(0.05, 0.08, 0.3, 0.3),
     "addressing_ratio intensity_imbalance ac_stark_phase_jitter_std "
     "collective_phase_std",
     "NoiseModel(addressing_ratio=0.05, intensity_imbalance=0.08, "
     "ac_stark_phase_jitter_std=0.3, collective_phase_std=0.3)"),
], ids=["LogicalRegister", "PulseOp", "NoiseModel"])
def test_records_are_frozen_values(make, fields, text):
    # a record is checked once, when built, so no field may change after;
    # records of equal fields are interchangeable, as dict keys too
    record, twin = make(), make()
    for name in fields.split():
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert repr(record) == text


@pytest.mark.parametrize("make, field", [
    (lambda: LogicalRegister("2"), "n_logical"),
    (lambda: LogicalRegister(2, [[0, 1, 2], [3, 4, 5]]), "pairs"),
    (lambda: LogicalRegister.from_json({"n_logical": 2}), "pairs"),
    (lambda: NoiseModel.from_json({"seed": 1}), "seed"),
    (lambda: PulseOp("MSRotation", (0, 1), "x"), "angle"),
    (lambda: PulseOp("MSRotation", (0, 1), np.nan), "angle"),
    (lambda: PulseOp("MSRotation", (0, 1), 1.0, None), "phase"),
    (lambda: PulseOp("ACStarkZ", (0,), 1.0, 0.0, np.inf), "duration"),
    (lambda: PulseOp("MSRotation", (0, "a"), 1.0), "targets"),
    (lambda: PulseOp("ACStarkZ", (1.0,), 1.0), "targets"),
    (lambda: NoiseModel(addressing_ratio="x"), "addressing_ratio"),
    (lambda: NoiseModel(collective_phase_std=1j), "collective_phase_std"),
    (lambda: NoiseModel.from_json({"addressing_ratio": None}), "addressing_ratio"),
    (lambda: NoiseModel.from_json({"intensity_imbalance": "0.05"}),
     "intensity_imbalance"),
], ids=["n_logical", "pairs", "missing_pairs", "unknown_noise_field",
        "string_angle", "nan_angle", "null_phase", "infinite_duration",
        "string_target", "float_target", "string_ratio", "complex_std",
        "null_ratio", "numeric_string"])
def test_malformed_record_refused_naming_the_field(make, field):
    # the library refuses what the CLI's field table refuses, in its terms
    with pytest.raises(ValidationError, match=field):
        make()


def dense_pulse_generator(op, n_ions, weights):
    """Reference generator and exponent scale of a weighted pulse, written
    out as dense Kronecker sums: ``S = sum_i w_i P_i`` for single-ion
    pulses (unitary ``exp(-i a/2 S)``), ``S^2 - sum_i w_i^2`` for two-ion
    pulses (unitary ``exp(-i a/4 (S^2 - sum_i w_i^2))``)."""
    if op.kind in ("ACStarkZ", "CPGate"):
        pauli = linalg.SIGMA_Z
    else:
        pauli = (np.cos(op.phase) * linalg.SIGMA_X
                 + np.sin(op.phase) * linalg.SIGMA_Y)
    s = sum(w * linalg.tensor(*[pauli if i == ion else linalg.ID2
                                for i in range(n_ions)])
            for ion, w in weights.items())
    if len(op.targets) == 1:
        return s, 0.5
    self_weight = sum(w * w for w in weights.values())
    return s @ s - self_weight * np.eye(2 ** n_ions), 0.25


class TestPulseUnitary:
    @settings(deadline=None, max_examples=200)
    @given(kind=st.sampled_from(["ACStarkZ", "MSRotation", "CPGate"]),
           n_logical=st.integers(1, 3), first=st.integers(0, 5),
           angle=st.floats(-2 * np.pi, 2 * np.pi),
           phase=st.floats(0.0, 2 * np.pi),
           ratio=st.floats(0.0, 1.0, exclude_max=True),
           epsilon=st.floats(-0.5, 0.5))
    def test_matches_dense_generator(self, kind, n_logical, first, angle,
                                     phase, ratio, epsilon):
        # crosstalk and imbalance weights as the noise model sets them
        n_ions = 2 * n_logical
        n_targets = 1 if kind == "ACStarkZ" else 2
        lo = first % (n_ions - n_targets + 1)
        op = PulseOp(kind, tuple(range(lo, lo + n_targets)), angle, phase)
        weights = {t: 1.0 for t in op.targets}
        weights[lo] += epsilon
        for n in string_neighbors(op.targets, n_ions):
            weights[n] = ratio
        gen, scale = dense_pulse_generator(op, n_ions, weights)
        ref = expm_hermitian(gen, scale * angle)
        u = pulse_unitary(op, n_ions, weights)
        assert np.max(np.abs(u - ref)) < 1e-12

    @pytest.mark.parametrize("op", [PulseOp("ACStarkZ", (4,), 0.7),
                                    PulseOp("ACStarkZ", (-1,), 0.7),
                                    PulseOp("MSRotation", (3, 4), 0.7)],
                             ids=["stark-above", "stark-below", "ms-straddling"])
    @pytest.mark.parametrize("model", [None, CALIBRATED_NOISE],
                             ids=["ideal", "calibrated"])
    def test_ion_outside_the_register_refused(self, op, model):
        # these once gave a global phase, or an MS pulse on ion 3 alone
        with pytest.raises(LayoutError, match="outside the 4-ion register"):
            pulse_unitary(op, 4)
        with pytest.raises(LayoutError, match="outside the 4-ion register"):
            sample_noisy_channel([op], np.eye(16) / 16, model)


class TestZRotation:
    def test_zero_angle_identity(self, reg):
        assert np.allclose(z_unitary(0.0, 0, reg), np.eye(16))

    def test_pi_flips_logical_phase(self, reg):
        idx = logical_basis_indices(reg)
        psi = np.zeros(16, complex)
        psi[idx[0]] = 1 / np.sqrt(2)   # |00>_L
        psi[idx[2]] = 1 / np.sqrt(2)   # |10>_L
        out = z_unitary(np.pi, 0, reg) @ psi
        target = np.zeros(16, complex)
        target[idx[0]] = 1 / np.sqrt(2)
        target[idx[2]] = -1 / np.sqrt(2)
        assert max_phase_diff(target, out) < 1e-12

    def test_additivity(self, reg):
        u = z_unitary(np.pi / 2, 1, reg)
        assert np.max(np.abs(u @ u - z_unitary(np.pi, 1, reg))) < 1e-10

    def test_matches_logical_z_generator(self, reg):
        # restricted to the subspace, equals exp(-i theta/2 sigma_z_L)
        theta = 0.83
        u = restrict_to_dfs(z_unitary(theta, 0, reg), reg)
        zl = linalg.tensor(linalg.SIGMA_Z, linalg.ID2)
        assert np.max(np.abs(u - expm_hermitian(zl, theta / 2))) < 1e-12


class TestXRotation:
    def test_half_pi_on_logical_zero(self, reg):
        # closed form: exp(-i pi/4 XX)|10> = (|10> - i|01>)/sqrt(2) per pair
        psi = encode(reg, "00")
        out = ms_unitary(np.pi / 2, 0, reg) @ psi
        idx = logical_basis_indices(reg)
        expected = np.zeros(16, complex)
        expected[idx[0]] = np.cos(np.pi / 4)
        expected[idx[2]] = -1j * np.sin(np.pi / 4)
        assert np.allclose(out, expected)

    def test_zero_angle(self, reg):
        assert np.allclose(ms_unitary(0.0, 0, reg), np.eye(16))

    def test_duration_is_one_loop(self, reg):
        op = ms_pulse(np.pi / 2, 0, reg)
        assert op.duration * 1e6 == pytest.approx(142.857, abs=1e-2)

    @pytest.mark.parametrize("axis_phase", np.linspace(0, 2 * np.pi, 9))
    def test_axis_phase_invisible_in_subspace(self, reg, axis_phase):
        # the collective-spin axis phase cancels inside the encoded
        # subspace: every sigma_phi (x) sigma_phi rotation acts as the
        # same logical x rotation
        theta = 0.7
        u = restrict_to_dfs(
            ms_unitary(theta, 0, reg, axis_phase), reg)
        xl = linalg.tensor(linalg.SIGMA_X, linalg.ID2)
        assert np.max(np.abs(u - expm_hermitian(xl, theta / 2))) < 1e-12

    def test_preserves_subspace(self, reg, rng):
        p = embed_in_dfs(np.eye(4), reg)
        u = ms_unitary(1.3, 1, reg, 0.4)
        assert np.max(np.abs(p @ u @ p - u @ p)) < 1e-12


class TestCPGate:
    def test_zero_angle(self, reg):
        assert np.allclose(cp_unitary(0.0, (0, 1), reg), np.eye(16))

    def test_duration(self, reg):
        assert cp_pulse(np.pi / 4, (0, 1), reg).duration == pytest.approx(470e-6)

    def test_relative_phase_theta(self, reg):
        # diagonal action: phase difference theta between |00>_L and |01>_L,
        # oracle from the center-ion sigma_z eigenvalues of |1010> and |1001>
        theta = 0.61
        u = cp_unitary(theta, (0, 1), reg)
        a = u[0b1010, 0b1010]   # eigenvalue -1 -> exp(+i theta/2)
        b = u[0b1001, 0b1001]   # eigenvalue +1 -> exp(-i theta/2)
        assert a == pytest.approx(np.exp(1j * theta / 2))
        assert b == pytest.approx(np.exp(-1j * theta / 2))
        assert a / b == pytest.approx(np.exp(1j * theta))

    def test_commutes_with_z_rotation(self, reg):
        u1 = cp_unitary(0.9, (0, 1), reg)
        u2 = z_unitary(1.1, 0, reg)
        assert np.max(np.abs(u1 @ u2 - u2 @ u1)) < 1e-10

    def test_nonadjacent_rejected(self):
        reg3 = LogicalRegister(3)
        with pytest.raises(LayoutError):
            cp_unitary(np.pi / 4, (0, 2), reg3)

    def test_adjacent_pair_on_three_qubit_register(self):
        reg3 = LogicalRegister(3)
        u = cp_unitary(np.pi / 4, (1, 2), reg3)
        assert u.shape == (64, 64)


class TestCompileCnot:
    def test_matches_target_matrix(self, reg):
        ops = compile_cnot(0, 1, reg)
        u = restrict_to_dfs(sequence_unitary(ops, reg.n_ions), reg)
        assert max_phase_diff(CNOT_LOGICAL, u) < 1e-10

    def test_swapped_roles(self, reg):
        ops = compile_cnot(1, 0, reg)
        u = restrict_to_dfs(sequence_unitary(ops, reg.n_ions), reg)
        assert max_phase_diff(circuit_unitary([("cnot", 1, 0)]), u) < 1e-10

    def test_swapped_roles_are_the_swap_conjugation_bit_for_bit(self):
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        assert np.array_equal(circuit_unitary([("cnot", 1, 0)]),
                              swap @ CNOT_LOGICAL @ swap)
        assert np.array_equal(circuit_unitary([("cnot", 0, 1)]), CNOT_LOGICAL)

    def test_column_readoff(self):
        # the printed matrix maps |10> to |10> and |11> to i|11>
        e10 = np.array([0, 0, 1, 0], complex)
        e11 = np.array([0, 0, 0, 1], complex)
        assert np.allclose(CNOT_LOGICAL @ e10, e10)
        assert np.allclose(CNOT_LOGICAL @ e11, 1j * e11)
        # and flips the target, with phases, when the control is |0>_L
        e00 = np.array([1, 0, 0, 0], complex)
        e01 = np.array([0, 1, 0, 0], complex)
        assert np.allclose(CNOT_LOGICAL @ e00, 1j * e01)
        assert np.allclose(CNOT_LOGICAL @ e01, -e00)

    def test_squared(self):
        # squaring the target matrix leaves residual phases, not identity
        sq = CNOT_LOGICAL @ CNOT_LOGICAL
        assert np.allclose(sq, np.diag([-1j, -1j, 1, -1]))
        ops = compile_cnot(0, 1, LogicalRegister(2))
        u = restrict_to_dfs(sequence_unitary(ops, 4), LogicalRegister(2))
        assert max_phase_diff(sq, u @ u) < 1e-10

    def test_structure(self, reg):
        ops = compile_cnot(0, 1, reg)
        kinds = [op.kind for op in ops]
        assert kinds.count("CPGate") == 2
        # spin echo pulses appear on both pairs
        echo_targets = {op.targets for op in ops
                        if op.kind == "MSRotation" and op.angle == np.pi}
        assert (0, 1) in echo_targets and (2, 3) in echo_targets

    def test_permanence_preserved(self, reg):
        u = sequence_unitary(compile_cnot(0, 1, reg), reg.n_ions)
        psi = encode(reg, "01")
        out = u @ psi
        assert dfs_weight(out, reg) == pytest.approx(
            1.0, abs=1e-10)

    def test_restriction_unitary(self, reg):
        u = restrict_to_dfs(sequence_unitary(compile_cnot(0, 1, reg), 4), reg)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10

    def test_same_target_rejected(self, reg):
        with pytest.raises(LayoutError):
            compile_cnot(1, 1, reg)

    def test_frozen_angle_table(self, reg):
        # golden regression of the solved pulse table; any change here
        # must re-derive the composition against CNOT_LOGICAL
        table = [(op.kind, op.targets, op.angle / np.pi)
                 for op in compile_cnot(0, 1, reg)]
        assert table == [
            ("MSRotation", (2, 3), -0.5),
            ("CPGate", (1, 2), 0.25),
            ("MSRotation", (0, 1), 1.0),
            ("MSRotation", (2, 3), 1.0),
            ("CPGate", (1, 2), 0.25),
            ("MSRotation", (0, 1), 1.0),
            ("ACStarkZ", (3,), -0.5),
            ("MSRotation", (2, 3), 0.5),
            ("ACStarkZ", (3,), -0.5),
        ]


class TestBellGeneration:
    def test_four_orthogonal_bell_states(self, reg):
        ops = compile_circuit(BELL_CIRCUIT, reg)
        outputs = []
        for k in range(4):
            bits = format(k, "02b")
            out = sequence_unitary(ops, reg.n_ions) @ encode(reg, bits)
            idx = logical_basis_indices(reg)
            logical = out[idx]
            ideal = circuit_unitary(BELL_CIRCUIT)[:, k]
            assert abs(np.vdot(ideal, logical)) ** 2 == pytest.approx(1.0, abs=1e-10)
            assert dfs_weight(out, reg) == pytest.approx(
                1.0, abs=1e-10)
            outputs.append(logical)
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(outputs[i], outputs[j])) < 1e-10

    def test_bell_identities(self):
        # 00 -> psi-, 01 -> phi-, 10 -> psi+, 11 -> phi+ (up to phase)
        s2 = np.sqrt(2)
        named = {
            "00": np.array([0, 1, -1, 0]) / s2,
            "01": np.array([1, 0, 0, -1]) / s2,
            "10": np.array([0, 1, 1, 0]) / s2,
            "11": np.array([1, 0, 0, 1]) / s2,
        }
        for bits, vec in named.items():
            got = circuit_unitary(BELL_CIRCUIT)[:, int(bits, 2)]
            assert abs(np.vdot(vec, got)) ** 2 == pytest.approx(1.0, abs=1e-12)


# one gate of a circuit on two logical qubits: an x rotation by any angle,
# or a CNOT in either role order
CIRCUIT_GATES = st.one_of(
    st.tuples(st.just("x"), st.integers(0, 1), st.floats(-2 * np.pi, 2 * np.pi)),
    st.permutations([0, 1]).map(lambda roles: ("cnot", *roles)))


class TestCircuits:
    @settings(deadline=None, max_examples=40)
    @given(circuit=st.lists(CIRCUIT_GATES, max_size=4),
           pairs=st.sampled_from([((0, 1), (2, 3)), ((1, 2), (3, 4))]))
    def test_compiled_dfs_block_is_the_circuit_unitary(self, circuit, pairs):
        reg = LogicalRegister(2, pairs)
        ops = compile_circuit(circuit, reg)
        block = restrict_to_dfs(sequence_unitary(ops, reg.n_ions), reg)
        assert max_phase_diff(circuit_unitary(circuit), block) < 1e-10
        assert np.max(np.abs(block.conj().T @ block - np.eye(4))) < 1e-10

    @pytest.mark.parametrize("gate", [("z", 0, 1), ("cz", 0, 1),
                                      ("x", 2, np.pi), ("x", -1, np.pi)])
    def test_unknown_gate_or_qubit_refused(self, gate):
        # an unknown kind used to fall through to the CNOT, and an x qubit
        # outside {0, 1} to act on qubit 1
        with pytest.raises(LayoutError, match=re.escape(repr(gate))):
            circuit_unitary([gate])
        with pytest.raises(LayoutError):
            compile_circuit([gate], LogicalRegister(2))


class TestUniversality:
    def test_pulse_generators_span_su4_on_the_dfs(self, reg):
        # the paper's gate set is universal on two logical qubits: the z and
        # MS pulses on each qubit and the phase gate keep the DFS, and the
        # traceless parts of their blocks there, closed under commutators,
        # span a 15-dimensional real Lie algebra, all of su(4)
        ops = [z_pulse(1.0, q, reg) for q in (0, 1)]
        ops += [ms_pulse(1.0, q, reg) for q in (0, 1)] + [cp_pulse(1.0, (0, 1), reg)]
        idx = logical_basis_indices(reg)
        outside = np.setdiff1d(np.arange(reg.dim), idx)
        paulis = [linalg.pauli_string(a + b) for a in "IXYZ" for b in "IXYZ"][1:]

        def rank(matrices):  # of their real coordinates on the 15 Paulis
            coords = [[np.trace(p @ m).real for p in paulis] for m in matrices]
            return np.linalg.matrix_rank(np.array(coords), tol=1e-9)

        algebra = []
        for op in ops:
            gen, _ = dense_pulse_generator(op, reg.n_ions,
                                           dict.fromkeys(op.targets, 1.0))
            assert np.max(np.abs(gen[np.ix_(outside, idx)])) == 0  # no leak
            block = restrict_to_dfs(gen, reg)
            algebra.append(block - np.trace(block) / 4 * np.eye(4))
        assert rank(algebra) == 5
        grown = True
        while grown:
            grown = False
            for a, b in itertools.combinations(list(algebra), 2):
                c = 1j * (a @ b - b @ a)
                if rank(algebra + [c]) > len(algebra):
                    algebra.append(c / np.linalg.norm(c))
                    grown = True
        assert len(algebra) == 15


class TestApplySequence:
    def test_empty_sequence(self, reg, rng):
        psi = random_state(16, rng)
        assert np.allclose(sequence_unitary([], 4) @ psi, psi)

    def test_norm_preserved(self, reg, rng):
        psi = random_state(16, rng)
        out = sequence_unitary(compile_cnot(0, 1, reg), 4) @ psi
        assert abs(np.linalg.norm(out) - 1) < 1e-12

    def test_matches_product_oracle(self, reg):
        ops = compile_cnot(0, 1, reg)
        psi = encode(reg, "10")
        expected = psi
        for op in ops:
            expected = pulse_unitary(op, 4) @ expected
        assert np.allclose(sequence_unitary(ops, 4) @ psi, expected)

    def test_dim_mismatch(self, reg):
        with pytest.raises(Exception):
            sequence_unitary(compile_cnot(0, 1, reg), 4) @ np.zeros(4, complex)


@pytest.fixture
def dumped(capsys):
    """The ``dump-sequence`` document of the default CNOT."""
    assert main(["dump-sequence"]) == 0
    return json.loads(capsys.readouterr().out)


class TestSerialization:
    def test_sequence_roundtrip_same_unitary(self, reg, dumped):
        ops, register = sequence_from_json(dumped)
        assert register == reg
        assert np.allclose(sequence_unitary(compile_cnot(0, 1, reg), 4),
                           sequence_unitary(ops, register.n_ions))

    def test_duration_sum(self, reg, dumped):
        total = sum(op.duration for op in compile_cnot(0, 1, reg))
        assert dumped["total_duration_us"] == pytest.approx(total * 1e6)
        # five collective pulses at 142.9 us plus two phase-gate halves
        # at 470 us each
        assert dumped["total_duration_us"] == pytest.approx(
            5 * 1e6 / 7000 + 2 * 470, abs=1e-6)

    def test_json_units_are_si(self, dumped):
        ms_ops = [o for o in dumped["ops"] if o["kind"] == "MSRotation"]
        assert all(0 < o["duration"] < 1e-3 for o in ms_ops)
