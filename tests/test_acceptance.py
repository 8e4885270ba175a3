"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them)."""

import json
import time
from contextlib import contextmanager

import numpy as np

from dfsqc.cli import coherence_ratio, main as cli_main
from dfsqc.encoding import (LogicalRegister, collective_dephasing, dfs_report,
                            embed_in_dfs, encode, logical_basis_indices)
from dfsqc.gates import (CNOT_LOGICAL, circuit_unitary, compile_circuit,
                         compile_cnot, ms_pulse, pulse_unitary,
                         sequence_unitary)
from dfsqc.motional import off_resonant_error_scan
from dfsqc.noise import (CALIBRATED_NOISE, NoiseModel, pulse_weights,
                         sample_noisy_channel)
from dfsqc.tomography import (chi_from_unitary, haar_report, process_fidelity,
                              process_tomography)

from conftest import BELL_CIRCUIT, random_state
from reference import (SPIN_X, SPIN_Z, closed_gate, dense_collective_phase,
                       drive, max_phase_diff, midpoint_errors,
                       oracle_propagator, oracle_scan, unitary_trace_distance,
                       vacuum_block)
from tomography_reference import haar_states

REG = LogicalRegister(2)


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s")
    print(f"PASS criterion {number}: {description} [{elapsed:.2f}s]")


def test_criterion_1_cnot_logical_matrix():
    with criterion(1, "compiled CNOT equals the target logical matrix", 1.0):
        u = sequence_unitary(compile_cnot(0, 1, REG), REG.n_ions)
        restricted = u[np.ix_(logical_basis_indices(REG),
                              logical_basis_indices(REG))]
        assert max_phase_diff(CNOT_LOGICAL, restricted) < 1e-10


def test_criterion_2_bell_generation():
    with criterion(2, "Bell generation, noiseless exact and noisy in band", 10.0):
        ops = compile_circuit(BELL_CIRCUIT, REG)
        ideal = circuit_unitary(BELL_CIRCUIT)
        outputs = []
        for k in range(4):
            bits = format(k, "02b")
            out = sequence_unitary(ops, REG.n_ions) @ encode(REG, bits)
            rho = np.outer(out, out.conj())
            perm, fid, _, _ = dfs_report(rho, ideal[:, k], REG)
            assert abs(fid - 1.0) < 1e-10
            assert abs(perm - 1.0) < 1e-10
            outputs.append(out[logical_basis_indices(REG)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.vdot(outputs[i], outputs[j])) < 1e-10
        # calibrated-noise demo: all four fidelities inside [0.85, 0.95]
        labels = [format(k, "02b") for k in range(4)]
        psi = np.stack([encode(REG, bits) for bits in labels])
        rhos = sample_noisy_channel(ops, psi[:, :, None] * psi[:, None, :],
                                    CALIBRATED_NOISE)
        for k, rho in enumerate(rhos):
            _, fid, _, _ = dfs_report(rho, ideal[:, k], REG)
            assert 0.85 <= fid <= 0.95


def test_criterion_3_dfs_immunity():
    with criterion(3, "collective-phase immunity and coherence ratio", 5.0):
        rng = np.random.default_rng(2)
        idx = logical_basis_indices(REG)
        phase_lists = [
            np.array([0.0]),
            rng.uniform(0, 2 * np.pi, size=1000),
            rng.normal(0, np.pi, size=1000),
            np.array([1e4, -377.1, 0.25]),
        ]
        # each list's phases as dense collective-phase unitaries
        unitary_lists = [[dense_collective_phase(REG.n_ions, phi) for phi in phis]
                         for phis in phase_lists]
        for _ in range(5):
            psi = np.zeros(16, complex)
            psi[idx] = random_state(4, rng)
            rho = np.outer(psi, psi.conj())
            for us in unitary_lists:
                out = sum(u @ rho @ u.conj().T for u in us) / len(us)
                assert np.max(np.abs(out - rho)) < 1e-12
            for std in (0.0, 1.0, np.pi, 1e4):
                assert np.max(np.abs(collective_dephasing(rho, std) - rho)) < 1e-12
        assert coherence_ratio(np.pi) >= 100.0


def test_criterion_4_motional_closure():
    with criterion(4, "motional loop closure, oracle convergence and the "
                      "closed-form timing scan", 30.0):
        fractions = [k / 50 for k in range(-20, 21)]
        rows = off_resonant_error_scan(np.pi / 8, fractions)
        for spin, delta in ((SPIN_Z, 2 * np.pi / 470e-6),
                            (SPIN_X, 2 * np.pi * 7000.0)):
            d = drive(spin, np.pi / 8, delta)
            tau = 2 * np.pi / delta
            block = vacuum_block(oracle_propagator(d, tau, 24), 24)
            return_pops = np.linalg.norm(block, axis=0) ** 2
            assert np.min(return_pops) >= 1 - 1e-6
            w, _, vh = np.linalg.svd(block)
            gate = w @ vh
            assert unitary_trace_distance(gate, closed_gate(d)) < 1e-5
            # a dense-expm midpoint product converges to the oracle at
            # second order in the step
            coarse, fine = midpoint_errors(d, tau, [640, 1280], n_fock=16)
            assert fine < 1e-4
            assert 3.5 <= coarse / fine <= 4.5
            # the closed-form scan is the oracle's, for either gate
            want = oracle_scan(d, fractions, 24)
            assert max(abs(got[1] - exp[1]) for got, exp in zip(rows, want)) < 1e-12


def _ideal_physical_cnot_channel():
    u = sequence_unitary(compile_cnot(0, 1, REG), REG.n_ions)
    return lambda rho_l: u @ embed_in_dfs(rho_l, REG) @ u.conj().T


def test_criterion_5_process_tomography_pipeline():
    with criterion(5, "process tomography, exact and shot-based", 300.0):
        # exact statistics: ideal CNOT and identity
        chi, _ = process_tomography(_ideal_physical_cnot_channel(), register=REG)
        assert process_fidelity(chi, chi_from_unitary(CNOT_LOGICAL)) > 0.999
        chi_id, _ = process_tomography(lambda r: embed_in_dfs(r, REG),
                                       register=REG)
        e_ii = np.zeros((16, 16))
        e_ii[0, 0] = 1.0
        assert np.max(np.abs(chi_id - e_ii)) < 1e-6

        # shot-based pipeline with the calibrated noise model
        cnot = compile_cnot(0, 1, REG)

        def channel(rho_l):
            return sample_noisy_channel(cnot, embed_in_dfs(rho_l, REG),
                                        CALIBRATED_NOISE)

        noisy, _ = process_tomography(channel, shots=100, seed=404, register=REG)
        report = haar_report(noisy, chi_from_unitary(CNOT_LOGICAL))
        product = report["mean_permanence"] * report["mean_gate_fidelity"]
        assert abs(report["mean_overall"] - product) < 0.02


def test_criterion_6_haar_estimator():
    with criterion(6, "Haar mean gate fidelity against the depolarizing analytic", 30.0):
        p = 0.2
        chi = np.diag([1 - p + p / 16] + [p / 16] * 15).astype(complex)
        report = haar_report(chi, chi_from_unitary(np.eye(4, dtype=complex)))
        assert abs(report["mean_gate_fidelity"] - 0.85) <= 1e-12
        # second-moment Haar checks
        rng = np.random.default_rng(8)
        psi = haar_states(4, 100_000, rng)
        probs = np.abs(psi) ** 2
        for k in range(4):
            se_k = probs[:, k].std(ddof=1) / np.sqrt(probs.shape[0])
            assert abs(probs[:, k].mean() - 0.25) < 5 * se_k
        for j, k in [(0, 1), (2, 3)]:
            vals = probs[:, j] * probs[:, k]
            se_jk = vals.std(ddof=1) / np.sqrt(vals.shape[0])
            assert abs(vals.mean() - 0.05) < 5 * se_jk


def test_criterion_7_imbalance_scaling_law():
    with criterion(7, "imbalance infidelity scales with exponent 2", 10.0):
        reg1 = LogicalRegister(1)
        op = ms_pulse(np.pi / 2, 0, reg1)
        ideal = pulse_unitary(op, reg1.n_ions)
        eps = np.logspace(-3, -1, 13)
        infid = []
        for e in eps:
            model = NoiseModel(addressing_ratio=0.0, intensity_imbalance=e)
            u = pulse_unitary(op, reg1.n_ions, pulse_weights(op, reg1.n_ions, model))
            tr = abs(np.trace(ideal.conj().T @ u)) ** 2
            infid.append(1 - (tr + 4) / 20)
        slope = np.polyfit(np.log(eps), np.log(infid), 1)[0]
        assert 1.8 <= slope <= 2.2


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "byte-identical reports across runs", 60.0):
        config = {
            "experiment": "bell",
            "seed": 31,
            "output_dir": str(tmp_path / "out"),
            "noise": CALIBRATED_NOISE._asdict(),
            "noise_samples": 64,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        blobs = []
        for _ in range(3):
            assert cli_main(["run", str(path)]) == 0
            blobs.append((tmp_path / "out" / "report.json").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
