import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import tomography_reference as ref
from dfsqc import linalg
from dfsqc.encoding import (MIN_PERMANENCE, LogicalRegister, dfs_report,
                            embed_in_dfs, encode)
from dfsqc.errors import (ConditioningError, DimensionError,
                          EmptySubspaceError, ValidationError)
from dfsqc.gates import (CNOT_LOGICAL, compile_cnot, ms_pulse, PulseSequence,
                         sequence_unitary)
from dfsqc.tomography import (ChiMatrix, acquire_dataset, chi_basis_labels,
                              chi_from_unitary, chi_linear_solve,
                              haar_report, linear_inversion,
                              preparation_states,
                              process_fidelity, process_tomography,
                              project_chi_cp, _draw_counts)

from conftest import random_density_matrix, random_unitary


def probabilities(rho, setting):
    """Exact outcome distribution of one setting: its row of the dataset."""
    row = ref.all_settings(len(setting)).index(setting)
    return acquire_dataset(rho, None)[row]


def shot_counts(rho, setting, shots, seed):
    """Counts of one setting drawn alone: the first ``shots`` uniforms of
    ``default_rng(seed)``."""
    return _draw_counts(probabilities(rho, setting)[None], shots, seed)[0]


def decode_matrix(rows):
    """Reader of the row-major ``[re, im]`` entries of ``matrices.json``."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def apply_chi(chi, rho):
    """The channel of ``chi`` on a density matrix or a stack of them."""
    s = ref.chi_superoperator(chi)
    flat = rho.reshape(rho.shape[:-2] + (s.shape[0],))
    return (flat @ s.T).reshape(rho.shape)


def gate_fidelity(chi, ideal):
    """Haar mean gate fidelity of ``chi`` against the unitary ``ideal``."""
    return haar_report(chi, chi_from_unitary(ideal))["mean_gate_fidelity"]


def ideal_cnot_channel(register):
    u = sequence_unitary(compile_cnot(0, 1, register))
    return lambda rho_l: u @ embed_in_dfs(rho_l, register) @ u.conj().T


def depolarizing_chi(p):
    entries = np.diag([1 - p + p / 16] + [p / 16] * 15).astype(complex)
    return ChiMatrix(entries)


class TestMeasurement:
    def test_basis_state_deterministic(self):
        rho = np.zeros((16, 16), complex)
        rho[0, 0] = 1.0
        counts = shot_counts(rho, "ZZZZ", 50, seed=0)
        assert np.array_equal(counts, [50] + [0] * 15)

    def test_bell_xx_even_parity(self):
        phi = np.array([1, 0, 0, 1], complex) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        counts = shot_counts(rho, "XX", 2000, seed=1)
        assert counts[0b01] == counts[0b10] == 0

    def test_maximally_mixed_uniform(self):
        rho = np.eye(16) / 16
        counts = shot_counts(rho, "XZYX", 10_000, seed=42)
        chi2 = stats.chisquare(counts)
        assert chi2.pvalue > 0.001

    def test_probabilities_sum_to_one(self, rng):
        rho = random_density_matrix(8, rng)
        p = probabilities(rho, "XYZ")
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p.min() >= 0

    def test_negative_probability_rejected(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ValidationError):
            acquire_dataset(rho, None)

    def test_same_seed_same_histogram(self, rng):
        rho = random_density_matrix(4, rng)
        a = shot_counts(rho, "XY", 100, seed=5)
        b = shot_counts(rho, "XY", 100, seed=5)
        assert np.array_equal(a, b)

    def test_histogram_stable_under_last_bit_change(self):
        # a one-ulp shift of an exactly even distribution must not move
        # counts; a multinomial switching algorithm at 1/2 moves most seeds
        rho = np.eye(2, dtype=complex) / 2
        nudged = rho.copy()
        nudged[0, 0] += 2.0 ** -53
        nudged[1, 1] -= 2.0 ** -53
        for seed in range(50):
            assert np.array_equal(shot_counts(rho, "Z", 100, seed),
                                  shot_counts(nudged, "Z", 100, seed))

    def test_draws_past_last_edge_stay_on_support(self):
        probs = np.array([0.25, 0.0, 0.749, 0.0])
        counts = _draw_counts(probs[None], 100_000, seed=3)[0]
        assert counts.sum() == 100_000
        assert counts[1] == 0 and counts[3] == 0


class TestDataset:
    def test_shots_need_a_seed(self, rng):
        with pytest.raises(ValidationError, match="seed"):
            acquire_dataset(random_density_matrix(4, rng), 10)

    def test_exact_mode_probabilities(self, rng):
        rho = random_density_matrix(8, rng)
        freq = acquire_dataset(rho, None)
        expected = [ref.measurement_probabilities(rho, s) for s in ref.all_settings(3)]
        assert np.allclose(freq, expected, rtol=0, atol=1e-12)
        assert np.allclose(freq.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_shot_rows_are_count_fractions(self, rng):
        # one stream per state: row i bins uniforms i*100 ... i*100 + 99
        rho = random_density_matrix(4, rng)
        freq = acquire_dataset(rho, 100, seed=3)
        assert freq.shape == (9, 4)
        assert np.allclose(freq.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        uniforms = np.random.default_rng(3).random(9 * 100).reshape(9, 100)
        for i, s in enumerate(ref.all_settings(2)):
            counts = ref.inverse_cdf_counts(probabilities(rho, s), uniforms[i])
            assert np.array_equal(freq[i], counts / 100)

    @settings(deadline=None, max_examples=50)
    @given(rows=st.integers(2, 12), outcomes=st.integers(1, 16),
           shots=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_rows_draw_independently(self, rows, outcomes, shots, seed, data):
        # any change to one row, its support included, leaves the others'
        # counts as they were
        rng = np.random.default_rng(seed)

        def distribution():
            p = rng.random(outcomes) * (rng.random(outcomes) < 0.7)
            p[rng.integers(outcomes)] += 0.1
            return p / p.sum()

        probs = np.stack([distribution() for _ in range(rows)])
        changed = probs.copy()
        row = data.draw(st.integers(0, rows - 1))
        changed[row] = distribution()
        before = _draw_counts(probs, shots, seed)
        after = _draw_counts(changed, shots, seed)
        assert np.array_equal(after.sum(axis=1), np.full(rows, shots))
        others = np.arange(rows) != row
        assert np.array_equal(before[others], after[others])


class TestStateReconstruction:
    def test_exact_basis_state(self):
        reg = LogicalRegister(2)
        psi = encode(reg, "00")  # |1010>
        rho = np.outer(psi, psi.conj())
        ds = acquire_dataset(rho, None)
        rho_hat = linear_inversion(ds)
        assert np.max(np.abs(rho_hat - rho)) < 1e-9

    def test_exact_random_state_roundtrip(self, rng):
        rho = random_density_matrix(8, rng)
        ds = acquire_dataset(rho, None)
        rho_hat = linear_inversion(ds)
        assert np.max(np.abs(rho_hat - rho)) < 1e-9

    def test_exact_encoded_bell(self):
        reg = LogicalRegister(2)
        seq = compile_cnot(0, 1, reg)
        prep = ms_pulse(np.pi / 2, 0, reg)
        full = PulseSequence(ops=[prep] + list(seq.ops), register=reg)
        psi = sequence_unitary(full) @ encode(reg, "00")
        rho = np.outer(psi, psi.conj())
        rho_hat = linear_inversion(acquire_dataset(rho, None))
        assert linalg.fidelity(rho_hat, psi) == pytest.approx(1.0, abs=1e-9)

    def test_hundred_shot_fidelity_band(self):
        # with the published shot count the reconstruction lands in the
        # low 0.9s; the median over seeds is the stable summary
        reg = LogicalRegister(2)
        seq = compile_cnot(0, 1, reg)
        prep = ms_pulse(np.pi / 2, 0, reg)
        full = PulseSequence(ops=[prep] + list(seq.ops), register=reg)
        psi = sequence_unitary(full) @ encode(reg, "00")
        rho = np.outer(psi, psi.conj())
        fids = []
        for seed in range(11):
            rho_hat = linear_inversion(acquire_dataset(rho, 100, seed=seed))
            fids.append(linalg.fidelity(rho_hat, psi))
        assert np.median(fids) > 0.90

    @pytest.mark.parametrize("shape", [(2, 4), (9, 3), (4, 2), (9,), (1, 1),
                                       (3, 9, 4)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_wrong_shape_rejected(self, shape):
        freq = np.full(shape, 0.25)
        with pytest.raises(DimensionError):
            linear_inversion(freq)


class TestHaarSampling:
    def test_state_normalized(self, rng):
        psi = ref.haar_states(4, 1, rng)[0]
        assert abs(np.linalg.norm(psi) - 1) < 1e-12

    def test_first_moment(self, rng):
        n = 40_000
        psi = ref.haar_states(4, n, rng)
        probs = np.abs(psi) ** 2
        for k in range(4):
            mean = probs[:, k].mean()
            se = probs[:, k].std(ddof=1) / np.sqrt(n)
            assert abs(mean - 0.25) < 5 * se

    def test_second_moment_cross_terms(self, rng):
        # E |psi_j|^2 |psi_k|^2 = 1 / (d (d+1)) for j != k
        n = 40_000
        d = 4
        psi = ref.haar_states(d, n, rng)
        probs = np.abs(psi) ** 2
        target = 1 / (d * (d + 1))
        for j, k in [(0, 1), (1, 3), (2, 0)]:
            vals = probs[:, j] * probs[:, k]
            se = vals.std(ddof=1) / np.sqrt(n)
            assert abs(vals.mean() - target) < 5 * se

class TestChiMatrix:
    def test_basis_labels(self):
        labels = chi_basis_labels()
        assert labels[0] == "II" and labels[5] == "XX" and len(labels) == 16

    def test_identity_channel(self):
        reg = LogicalRegister(2)
        res = process_tomography(lambda r: embed_in_dfs(r, reg), register=reg)
        e = np.zeros((16, 16))
        e[0, 0] = 1.0
        assert np.max(np.abs(res.chi.entries - e)) < 1e-6

    def test_ideal_cnot_process_fidelity(self):
        reg = LogicalRegister(2)
        res = process_tomography(ideal_cnot_channel(reg), register=reg)
        chi_ideal = chi_from_unitary(CNOT_LOGICAL)
        assert process_fidelity(res.chi, chi_ideal) > 0.999
        assert np.all(res.permanences > 1 - 1e-9)
        assert ref.trace_preservation_residual(res.chi.entries, 2) < 1e-6

    def test_unitary_chi_trace_one(self, rng):
        chi = chi_from_unitary(random_unitary(4, rng))
        assert np.trace(chi.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_fixed_point(self):
        # the fully depolarizing channel has chi = 1/16 on the Pauli basis
        reg = LogicalRegister(2)
        res = process_tomography(
            lambda rho: embed_in_dfs(
                np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
                * np.eye(4, dtype=complex) / 4, reg),
            register=reg)
        assert np.max(np.abs(res.chi.entries - np.eye(16) / 16)) < 1e-9

    def test_chi_linear_in_channel_mixture(self):
        reg = LogicalRegister(2)
        u = CNOT_LOGICAL
        mix = lambda rho: embed_in_dfs(0.3 * rho + 0.7 * (u @ rho @ u.conj().T),
                                       reg)
        res_mix = process_tomography(mix, register=reg)
        res_id = process_tomography(lambda r: embed_in_dfs(r, reg), register=reg)
        res_cnot = process_tomography(
            lambda r: embed_in_dfs(u @ r @ u.conj().T, reg), register=reg)
        combo = 0.3 * res_id.chi.entries + 0.7 * res_cnot.chi.entries
        assert np.max(np.abs(res_mix.chi.entries - combo)) < 1e-8

    def test_chi_hermitian_psd(self):
        # the linear estimate is Hermitian; its CP projection, the chi
        # that matrices.json carries, is also positive semidefinite
        reg = LogicalRegister(2)
        res = process_tomography(ideal_cnot_channel(reg), shots=100, seed=8,
                                 register=reg)
        chi = res.chi.entries
        assert np.max(np.abs(chi - chi.conj().T)) < 1e-9
        chi_cp, negative_mass = project_chi_cp(res.chi)
        chi_cp = chi_cp.entries
        assert np.max(np.abs(chi_cp - chi_cp.conj().T)) < 1e-9
        assert np.linalg.eigvalsh(chi_cp).min() > -1e-8
        assert negative_mass > 0  # 100 shots leave negative eigenvalues

    def test_block_not_renormalized(self):
        # half the weight leaks out of the subspace: chi is half the
        # identity channel's, and tr chi the permanence
        reg = LogicalRegister(2)
        leak = np.zeros((reg.dim, reg.dim), dtype=complex)
        leak[-1, -1] = 1.0  # |1111>, outside the subspace
        res = process_tomography(
            lambda r: 0.5 * embed_in_dfs(r, reg) + 0.5 * leak, register=reg)
        e_ii = np.zeros((16, 16))
        e_ii[0, 0] = 0.5
        assert np.max(np.abs(res.chi.entries - e_ii)) < 1e-12
        assert np.allclose(res.permanences, 0.5, rtol=0, atol=1e-12)
        assert process_fidelity(res.chi, ChiMatrix(2 * e_ii)) == pytest.approx(
            1.0, abs=1e-12)

    def test_superoperator_applies_channel(self, rng):
        chi = depolarizing_chi(0.4)
        rho = np.stack([random_density_matrix(4, rng) for _ in range(3)])
        expected = 0.6 * rho + 0.4 * np.eye(4) / 4
        assert np.max(np.abs(apply_chi(chi, rho[0]) - expected[0])) < 1e-12
        assert np.max(np.abs(apply_chi(chi, rho) - expected)) < 1e-12

    def test_rank_deficient_inputs_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ConditioningError):
            chi_linear_solve([rho] * 16, [rho] * 16)

    def test_cp_projection(self, rng):
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        chi, negative_mass = project_chi_cp(ChiMatrix(h))
        chi = chi.entries
        assert np.linalg.eigvalsh(chi).min() >= -1e-12
        assert np.trace(chi).real == pytest.approx(1.0, abs=1e-12)
        evals = np.linalg.eigvalsh((h + h.conj().T) / 2)
        assert negative_mass == pytest.approx(
            -evals[evals < 0].sum() / evals.sum(), rel=1e-12)

    def test_cp_projection_of_a_cp_chi_drops_nothing(self):
        chi, negative_mass = project_chi_cp(
            ChiMatrix(0.9 * depolarizing_chi(0.3).entries))
        assert np.max(np.abs(chi.entries - depolarizing_chi(0.3).entries)) < 1e-12
        assert negative_mass == 0.0

    def test_json_roundtrip(self):
        chi = depolarizing_chi(0.2)
        doc = json.loads(json.dumps(chi.to_json()))
        restored = ChiMatrix(decode_matrix(doc["entries"]), doc["basis"])
        assert np.allclose(restored.entries, chi.entries)
        assert restored.basis_labels == chi.basis_labels

    def test_preparation_states_informationally_complete(self):
        _, vecs = zip(*preparation_states(2))
        mats = np.stack([np.outer(v, v.conj()).reshape(-1) for v in vecs])
        assert np.linalg.matrix_rank(mats) == 16


class TestMeanGateFidelity:
    def test_ideal_channel_exactly_one(self, rng):
        u = random_unitary(4, rng)
        assert gate_fidelity(chi_from_unitary(u), u) == pytest.approx(
            1.0, abs=1e-12)

    def test_depolarizing_analytic(self):
        mean = gate_fidelity(depolarizing_chi(0.2), np.eye(4, dtype=complex))
        assert abs(mean - 0.85) <= 1e-12

    def test_noiseless_pipeline_fidelity(self):
        # exact-statistics tomography of the compiled gate is essentially
        # error free end to end
        reg = LogicalRegister(2)
        res = process_tomography(ideal_cnot_channel(reg), register=reg)
        assert gate_fidelity(res.chi, CNOT_LOGICAL) >= 1 - 1e-9

    def test_unitary_invariance(self, rng):
        v = random_unitary(4, rng)
        chi = depolarizing_chi(0.3)
        ideal = random_unitary(4, rng)
        reg = LogicalRegister(2)
        conj = process_tomography(
            lambda rho: embed_in_dfs(
                v.conj().T @ apply_chi(chi, v @ rho @ v.conj().T) @ v, reg),
            register=reg).chi
        assert abs(gate_fidelity(chi, ideal)
                   - gate_fidelity(conj, v.conj().T @ ideal @ v)) < 1e-9

    def test_mean_permanence_at_the_guard_refused(self):
        # the gate fidelity divides by tr chi, the mean permanence, which a
        # shot-noisy chi of a leaking channel can bring down to the guard;
        # the Z(x)1 terms make the permanence vary over inputs, not its mean
        def chi(trace):
            entries = np.zeros((16, 16), dtype=complex)
            entries[0, 0] = trace
            z1 = chi_basis_labels(2).index("ZI")
            entries[0, z1] = entries[z1, 0] = 0.5
            return ChiMatrix(entries)

        chi_ideal = chi_from_unitary(CNOT_LOGICAL)
        for trace in (-MIN_PERMANENCE, 0.0, MIN_PERMANENCE / 2, MIN_PERMANENCE):
            with pytest.raises(EmptySubspaceError,
                               match="mean permanence") as refused:
                haar_report(chi(trace), chi_ideal)
            assert 0.0 <= refused.value.permanence <= MIN_PERMANENCE
        report = haar_report(chi(2 * MIN_PERMANENCE), chi_ideal)
        assert report["mean_permanence"] == 2 * MIN_PERMANENCE


class TestDfsReport:
    def test_ideal_bell(self):
        reg = LogicalRegister(2)
        from dfsqc.gates import bell_state_logical
        psi_l = bell_state_logical("00")
        rho = embed_in_dfs(np.outer(psi_l, psi_l.conj()), reg)
        perm, fid, overall = dfs_report(rho, psi_l, reg)
        assert (perm, fid, overall) == (
            pytest.approx(1.0), pytest.approx(1.0), pytest.approx(1.0))

    def test_half_leaked(self):
        reg = LogicalRegister(2)
        from dfsqc.gates import bell_state_logical
        psi_l = bell_state_logical("01")
        rho = 0.5 * embed_in_dfs(np.outer(psi_l, psi_l.conj()), reg)
        rho[15, 15] = 0.5  # |0101...> outside: index 15 is |1111>
        perm, fid, overall = dfs_report(rho, psi_l, reg)
        assert perm == pytest.approx(0.5, abs=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert overall == pytest.approx(0.5, abs=1e-12)

    def test_overall_equals_full_space_fidelity(self, rng):
        # permanence * in-subspace fidelity is exactly the physical-space
        # fidelity against the encoded ideal state
        reg = LogicalRegister(2)
        rho = random_density_matrix(16, rng)
        from dfsqc.gates import bell_state_logical
        psi_l = bell_state_logical("10")
        perm, fid, overall = dfs_report(rho, psi_l, reg)
        ideal = embed_in_dfs(np.outer(psi_l, psi_l.conj()), reg)
        direct = np.trace(rho @ ideal).real
        assert overall == pytest.approx(direct, abs=1e-10)


class TestShotBasedProcessTomography:
    def test_shots_need_a_seed(self):
        reg = LogicalRegister(2)
        with pytest.raises(ValidationError, match="seed"):
            process_tomography(ideal_cnot_channel(reg), register=reg, shots=100)

    def test_channel_output_shape_checked(self):
        reg = LogicalRegister(2)
        with pytest.raises(DimensionError):
            process_tomography(lambda rho: embed_in_dfs(rho, reg)[0], register=reg)
        with pytest.raises(DimensionError):  # logical, not physical, outputs
            process_tomography(lambda rho: rho, register=reg)

    def test_pipeline_with_shots(self):
        reg = LogicalRegister(2)
        res = process_tomography(ideal_cnot_channel(reg), shots=100, seed=13,
                                 register=reg)
        chi_ideal = chi_from_unitary(CNOT_LOGICAL)
        assert process_fidelity(res.chi, chi_ideal) > 0.75
        assert res.permanences.shape == (16,)
        # the permanence functional W = sum_mn chi_mn A_n+ A_m is Hermitian
        # and gives back each input's permanence
        w = ref.trace_map(res.chi.entries, 2)
        assert np.max(np.abs(w - w.conj().T)) < 1e-10
        _, vecs = zip(*preparation_states(2))
        assert np.allclose([np.vdot(v, w @ v).real for v in vecs],
                           res.permanences, rtol=0, atol=1e-10)
        rep = haar_report(res.chi, chi_ideal)
        gap = abs(rep["mean_overall"]
                  - rep["mean_permanence"] * rep["mean_gate_fidelity"])
        assert gap < 0.02

    @pytest.mark.parametrize("shots", [None, 100])
    def test_channel_that_leaks_everything_refused(self, shots):
        # no weight in the subspace: the figures, all divided by tr chi,
        # would be meaningless
        reg = LogicalRegister(2)
        leak = np.zeros((reg.dim, reg.dim), dtype=complex)
        leak[-1, -1] = 1.0  # |1111>, outside the subspace
        with pytest.raises(EmptySubspaceError, match="mean permanence"):
            process_tomography(lambda r: np.stack([leak] * len(r)),
                               register=reg, shots=shots, seed=2)

    def test_matrix_json_roundtrip(self, rng):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.allclose(decode_matrix(linalg.matrix_to_json(m)), m)
