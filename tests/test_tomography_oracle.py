"""The per-ion contractions of ``dfsqc.tomography`` against the loop
implementations in ``tomography_reference``, over 1-4 ions, full-rank
and rank-2 states, and exact and 100-shot data; the chi solve against
the least squares over all ``16^n`` chi entries; the Haar figures against
their closed forms and the dense sampler."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tomography_reference as ref
from conftest import random_density_matrix, random_unitary
from dfsqc.tomography import (ChiMatrix, acquire_dataset, chi_basis_labels,
                              chi_from_unitary, chi_linear_solve, haar_report,
                              linear_inversion, preparation_states)

SEEDS = st.integers(0, 2 ** 32 - 1)
STATES = dict(n_ions=st.integers(1, 4), rank=st.sampled_from([None, 2]),
              shots=st.sampled_from([None, 100]), seed=SEEDS)


def random_state(n_ions, rank, rng):
    return random_density_matrix(2 ** n_ions, rng, rank=rank)


def max_diff(a, b):
    return float(np.max(np.abs(a - b)))


class TestStateTomography:
    @settings(deadline=None, max_examples=30)
    @given(**STATES)
    def test_linear_inversion(self, n_ions, rank, shots, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(n_ions, rank, rng)
        freq = acquire_dataset(rho, shots, seed=seed)
        assert max_diff(linear_inversion(freq), ref.linear_inversion(freq)) < 1e-12

    @settings(deadline=None, max_examples=20)
    @given(n_ions=STATES["n_ions"], rank=STATES["rank"], seed=SEEDS)
    def test_probabilities(self, n_ions, rank, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(n_ions, rank, rng)
        expected = np.stack([ref.measurement_probabilities(rho, s)
                             for s in ref.all_settings(n_ions)])
        assert max_diff(acquire_dataset(rho, None), expected) < 1e-12


class TestProcessMatrix:
    @settings(deadline=None, max_examples=20)
    @given(n_logical=st.integers(1, 2), seed=SEEDS)
    def test_superoperator_and_trace_residual(self, n_logical, seed):
        rng = np.random.default_rng(seed)
        entries = random_density_matrix(4 ** n_logical, rng)
        chi = ChiMatrix(entries, chi_basis_labels(n_logical))
        s = ref.chi_superoperator(chi)
        assert max_diff(s, ref.superoperator(entries, n_logical)) < 1e-12
        # tr E(rho) = tr(M rho) with M = sum_mn chi_mn A_n+ A_m, read off
        # the superoperator as the row vec(1)^T S
        d = 2 ** n_logical
        m = (np.eye(d).reshape(-1) @ s).reshape(d, d).T
        residual = float(np.max(np.abs(m - np.eye(d))))
        assert abs(residual
                   - ref.trace_preservation_residual(entries, n_logical)) < 1e-12

    @settings(deadline=None, max_examples=20)
    @given(n_logical=st.integers(1, 2), seed=SEEDS)
    def test_chi_linear_solve(self, n_logical, seed):
        rng = np.random.default_rng(seed)
        inputs = [np.outer(v, v.conj()) for _, v in preparation_states(n_logical)]
        outputs = [random_density_matrix(2 ** n_logical, rng) for _ in inputs]
        assert max_diff(chi_linear_solve(inputs, outputs, n_logical),
                        ref.chi_linear_solve(inputs, outputs, n_logical)) < 1e-12


    @settings(deadline=None, max_examples=20)
    @given(n_logical=st.integers(1, 2), n_inputs=st.integers(20, 40),
           seed=SEEDS)
    def test_chi_linear_solve_is_least_squares(self, n_logical, n_inputs, seed):
        # more inputs than unknowns, and outputs of no CP map: a channel's
        # outputs plus complex noise, neither Hermitian nor of trace one
        rng = np.random.default_rng(seed)
        d = 2 ** n_logical
        inputs = [random_density_matrix(d, rng) for _ in range(n_inputs)]
        s = ref.superoperator(random_density_matrix(d * d, rng), n_logical)
        outputs = [(s @ rho.reshape(-1)).reshape(d, d)
                   + 0.05 * (rng.normal(size=(d, d))
                             + 1j * rng.normal(size=(d, d)))
                   for rho in inputs]
        assert max_diff(chi_linear_solve(inputs, outputs, n_logical),
                        ref.chi_linear_solve(inputs, outputs, n_logical)) < 1e-12


class TestHaarFigures:
    @settings(deadline=None, max_examples=20)
    @given(rank=st.integers(1, 16), scale=st.floats(0.3, 1.0), seed=SEEDS)
    def test_means_match_the_closed_forms(self, rank, scale, seed):
        # a random CP chi, scaled so its trace map W <= scale: trace-decreasing
        rng = np.random.default_rng(seed)
        entries = random_density_matrix(16, rng, rank=rank)
        entries *= scale / np.linalg.eigvalsh(ref.trace_map(entries, 2)).max()
        ideal = random_unitary(4, rng)
        chi_ideal = chi_from_unitary(ideal)
        report = haar_report(ChiMatrix(entries), chi_ideal)
        perm = ref.haar_mean_permanence(entries)
        overall = ref.haar_mean_overall(entries, chi_ideal.entries)
        for key, want in (("mean_permanence", perm),
                          ("mean_overall", overall),
                          ("mean_gate_fidelity", overall / perm)):
            assert abs(report[key] - want) < 1e-12, key
        sampled = ref.haar_report(ChiMatrix(entries), ideal, 20_000, seed)
        for key, value in report.items():
            assert abs(value - sampled[key]) <= 5 * sampled[key + "_stderr"], key
