import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfsqc import linalg
from dfsqc.errors import ClosureError, TruncationError, ValidationError
from dfsqc.motional import (SPIN_X, SPIN_Z, DrivenOscillatorModel,
                            coupling_for_phase, effective_gate,
                            gate_infidelity_with_leakage,
                            motional_transfer_block, off_resonant_error_scan,
                            propagate, scan_to_csv)

from reference import max_phase_diff, midpoint_errors, midpoint_propagator

DELTA_CP = 2 * np.pi / 470e-6
DELTA_MS = 2 * np.pi * 7000.0

# infidelity of the detuned pulse at a 5% timing error, frozen from the
# first converged run of the simulation at default parameters
GOLDEN_TIMING_INFIDELITY_5PCT = 9.641358827424562e-3


def model_sz(theta=np.pi / 4, delta=DELTA_CP, **kw):
    return DrivenOscillatorModel(
        coupling=coupling_for_phase(theta, delta), delta=delta,
        spin_op_kind=SPIN_Z, **kw)


def model_sx(theta=np.pi / 8, delta=DELTA_MS, **kw):
    return DrivenOscillatorModel(
        coupling=coupling_for_phase(theta, delta), delta=delta,
        spin_op_kind=SPIN_X, **kw)


class TestModelValidation:
    def test_min_fock(self):
        with pytest.raises(ValidationError):
            DrivenOscillatorModel(coupling=1.0, delta=1.0, n_fock=4)

    def test_spin_phase_formula(self):
        m = model_sz(np.pi / 4)
        assert m.spin_phase == pytest.approx(np.pi / 4, rel=1e-12)

    def test_truncation_guard_fires(self):
        # coupling far too strong for the truncated basis
        m = DrivenOscillatorModel(coupling=8.0 * DELTA_CP, delta=DELTA_CP,
                                  n_fock=8)
        with pytest.raises(TruncationError):
            propagate(m, m.tau)

    def test_truncation_guard_checks_mid_loop(self):
        # the state from |0> brushes the top of an 8-level basis half way
        # round the loop and is back at |0> at closure: only a check
        # along the way, not one of the end state, sees the excursion
        m = model_sz(theta=0.1, n_fock=8)

        def top_two(u):
            block = u.reshape(4, 8, 4, 8)[:, :, :, 0]
            return float(np.max(np.sum(np.abs(block[:, -2:, :]) ** 2, axis=1)))

        assert top_two(midpoint_propagator(m, m.tau / 2, 640)) > 1e-7
        assert top_two(midpoint_propagator(m, m.tau, 1280)) < 1e-10
        # the excursion peaks half way round, so the checkpoints must span
        # the whole interval, end included
        for t in (m.tau, m.tau / 2):
            with pytest.raises(TruncationError, match="population 3.02"):
                propagate(m, t)


class TestPropagate:
    def test_zero_coupling_identity(self):
        m = DrivenOscillatorModel(coupling=0.0, delta=DELTA_CP)
        u = propagate(m, m.tau)
        assert np.max(np.abs(u - np.eye(4 * m.n_fock))) < 1e-12

    def test_unitary(self):
        m = model_sz()
        u = propagate(m, 0.37 * m.tau)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-8

    def test_unitary_at_checkpoints(self):
        m = model_sz()
        for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
            u = propagate(m, frac * m.tau)
            err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            assert err < 1e-8

    def test_motional_return_at_tau(self):
        m = model_sz()
        u = propagate(m, m.tau)
        block = motional_transfer_block(u, m.n_fock)
        pops = np.linalg.norm(block, axis=0) ** 2
        assert np.min(pops) >= 1 - 1e-6

    def test_halving_dt_converged(self):
        # dense-expm midpoint products approach the exact propagator with
        # an error that falls fourfold per halving of the step
        m = model_sz(theta=np.pi / 16, n_fock=10)
        errors = midpoint_errors(m, 0.31 * m.tau, [640, 1280, 2560])
        assert errors[-1] < 1e-7
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_matches_step_oracle(self):
        # the midpoint product's error is even in the step, so the
        # Richardson combination of 640 and 1280 steps cancels its
        # second-order term and must land on the exact propagator
        m = model_sz(theta=np.pi / 16, n_fock=10)
        t = 0.31 * m.tau
        u_oracle = (4 * midpoint_propagator(m, t, 1280)
                    - midpoint_propagator(m, t, 640)) / 3
        assert np.max(np.abs(propagate(m, t) - u_oracle)) < 1e-9

    @pytest.mark.parametrize("make", [model_sz, model_sx])
    def test_closure_is_exp_theta_s2(self, make):
        m = make()
        block = motional_transfer_block(propagate(m, m.tau), m.n_fock)
        assert np.max(np.abs(block - m.ideal_gate())) < 1e-12

    @settings(deadline=None, max_examples=25)
    @given(kind=st.sampled_from([SPIN_Z, SPIN_X]),
           theta=st.floats(0.0, np.pi / 4, exclude_min=True),
           fraction=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True))
    def test_vacuum_block_matches_magnus(self, kind, theta, fraction):
        # second-order Magnus, exact for the untruncated oscillator:
        # <0|U_s(t)|0> = exp(-i r (x - sin x) - r (1 - cos x)),
        # r = (g s / delta)^2, x = delta t
        m = (model_sz if kind == SPIN_Z else model_sx)(theta)
        t = (1.0 + fraction) * m.tau
        x = m.delta * t
        s, w = np.linalg.eigh(m.spin_operator())
        r = (m.coupling * s / m.delta) ** 2
        expected = (w * np.exp(-1j * r * (x - np.sin(x))
                               - r * (1 - np.cos(x)))) @ w.conj().T
        block = motional_transfer_block(propagate(m, t), m.n_fock)
        assert np.max(np.abs(block - expected)) < 1e-12


class TestEffectiveGate:
    def test_sz_closed_form(self):
        # (sz1+sz2)^2 = 2 + 2 ZZ: theta = pi/4 is a ZZ(pi) interaction
        m = model_sz(np.pi / 4)
        g = effective_gate(m)
        ideal = m.ideal_gate()
        assert linalg.unitary_trace_distance(g, ideal) < 1e-5
        zz = linalg.tensor(linalg.SIGMA_Z, linalg.SIGMA_Z)
        assert max_phase_diff(
            linalg.expm_hermitian(zz, np.pi / 2), g) < 1e-4

    def test_sx_closed_form(self):
        m = model_sx(np.pi / 8)
        g = effective_gate(m)
        assert linalg.unitary_trace_distance(g, m.ideal_gate()) < 1e-5
        xx = linalg.tensor(linalg.SIGMA_X, linalg.SIGMA_X)
        assert max_phase_diff(
            linalg.expm_hermitian(xx, np.pi / 4), g) < 1e-4

    def test_detuning_doubled_theta_quartered(self):
        m = model_sx(np.pi / 8)
        m2 = DrivenOscillatorModel(coupling=m.coupling, delta=2 * m.delta,
                                   spin_op_kind=SPIN_X)
        assert m2.spin_phase == pytest.approx(m.spin_phase / 4, rel=1e-12)
        g2 = effective_gate(m2)
        assert linalg.unitary_trace_distance(g2, m2.ideal_gate()) < 1e-5

    def test_commutes_with_pair_coupling(self):
        gz = effective_gate(model_sz())
        zz = linalg.tensor(linalg.SIGMA_Z, linalg.SIGMA_Z)
        assert np.max(np.abs(gz @ zz - zz @ gz)) < 1e-8
        gx = effective_gate(model_sx())
        xx = linalg.tensor(linalg.SIGMA_X, linalg.SIGMA_X)
        assert np.max(np.abs(gx @ xx - xx @ gx)) < 1e-8

    def test_away_from_closure_raises(self):
        m = model_sz()
        with pytest.raises(ClosureError):
            effective_gate(m, t=1.25 * m.tau)


class TestTimingScan:
    def test_closure_point(self):
        rows = off_resonant_error_scan(model_sx(), [0.0])
        assert rows[0][1] < 1e-5

    def test_monotone_near_closure(self):
        rows = dict(off_resonant_error_scan(model_sx(), [0.0, 0.01, 0.05, 0.1]))
        assert rows[0.01] > rows[0.0]
        assert rows[0.05] > rows[0.01]
        assert rows[0.1] > rows[0.05]

    def test_golden_value(self):
        rows = dict(off_resonant_error_scan(model_sx(), [0.05]))
        assert rows[0.05] == pytest.approx(GOLDEN_TIMING_INFIDELITY_5PCT,
                                           rel=1e-6)

    def test_fraction_range_enforced(self):
        with pytest.raises(ValidationError):
            off_resonant_error_scan(model_sx(), [0.6])

    def test_csv_output(self, tmp_path):
        rows = off_resonant_error_scan(model_sx(), [0.0, 0.02])
        path = tmp_path / "scan.csv"
        scan_to_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "fraction,infidelity"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.0


class TestLeakageInfidelity:
    def test_perfect_gate_zero(self):
        m = model_sz()
        u = propagate(m, m.tau)
        assert gate_infidelity_with_leakage(u, m.ideal_gate(), m.n_fock) < 1e-8

    def test_wrong_ideal_large(self):
        m = model_sz(np.pi / 4)
        u = propagate(m, m.tau)
        wrong = np.eye(4, dtype=complex)
        assert gate_infidelity_with_leakage(u, wrong, m.n_fock) > 0.1
