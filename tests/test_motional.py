import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfsqc import linalg
from dfsqc.errors import ValidationError
from dfsqc.motional import off_resonant_error_scan, scan_csv_text

from reference import (SPIN_X, SPIN_Z, closed_gate, drive, expm_hermitian,
                       kraus_infidelity, max_phase_diff, midpoint_errors,
                       midpoint_propagator, oracle_propagator, oracle_scan,
                       unitary_trace_distance, vacuum_block)

DELTA_CP = 2 * np.pi / 470e-6
DELTA_MS = 2 * np.pi * 7000.0
N_FOCK = 24

# infidelity of the detuned pulse at a 5% timing error, frozen from the
# first converged run of the simulation at default parameters
GOLDEN_TIMING_INFIDELITY_5PCT = 9.641358827424562e-3


def model_sz(theta=np.pi / 4, delta=DELTA_CP):
    return drive(SPIN_Z, theta, delta)


def model_sx(theta=np.pi / 8, delta=DELTA_MS):
    return drive(SPIN_X, theta, delta)


def tau(d):
    return 2 * np.pi / d.delta


def closure_gate(d, n_fock=N_FOCK):
    """Unitary part of the oracle's vacuum block after one closed loop."""
    w, _, vh = np.linalg.svd(vacuum_block(oracle_propagator(d, tau(d), n_fock), n_fock))
    return w @ vh


class TestPropagate:
    """The dense oracle propagator the timing scan is checked against."""

    def test_zero_coupling_identity(self):
        d = drive(SPIN_Z, 0.0, DELTA_CP)
        u = oracle_propagator(d, tau(d), N_FOCK)
        assert np.max(np.abs(u - np.eye(4 * N_FOCK))) < 1e-12

    def test_unitary(self):
        d = model_sz()
        u = oracle_propagator(d, 0.37 * tau(d), N_FOCK)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-8

    def test_unitary_at_checkpoints(self):
        d = model_sz()
        for frac in (0.1, 0.25, 0.5, 0.75, 1.0):
            u = oracle_propagator(d, frac * tau(d), N_FOCK)
            err = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
            assert err < 1e-8

    def test_motional_return_at_tau(self):
        d = model_sz()
        block = vacuum_block(oracle_propagator(d, tau(d), N_FOCK), N_FOCK)
        pops = np.linalg.norm(block, axis=0) ** 2
        assert np.min(pops) >= 1 - 1e-6

    def test_halving_dt_converged(self):
        # dense-expm midpoint products approach the oracle with an error
        # that falls fourfold per halving of the step
        d = model_sz(theta=np.pi / 16)
        errors = midpoint_errors(d, 0.31 * tau(d), [640, 1280, 2560], n_fock=10)
        assert errors[-1] < 1e-7
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_matches_step_oracle(self):
        # the midpoint product's error is even in the step, so the
        # Richardson combination of 640 and 1280 steps cancels its
        # second-order term and must land on the interaction-frame form
        d = model_sz(theta=np.pi / 16)
        t = 0.31 * tau(d)
        u_steps = (4 * midpoint_propagator(d, t, 1280, 10)
                   - midpoint_propagator(d, t, 640, 10)) / 3
        assert np.max(np.abs(oracle_propagator(d, t, 10) - u_steps)) < 1e-9

    @pytest.mark.parametrize("make", [model_sz, model_sx])
    def test_closure_is_exp_theta_s2(self, make):
        d = make()
        block = vacuum_block(oracle_propagator(d, tau(d), N_FOCK), N_FOCK)
        assert np.max(np.abs(block - closed_gate(d))) < 1e-12

    @settings(deadline=None, max_examples=25)
    @given(make=st.sampled_from([model_sz, model_sx]),
           theta=st.floats(0.0, np.pi / 4, exclude_min=True),
           fraction=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True))
    def test_vacuum_block_matches_magnus(self, make, theta, fraction):
        # second-order Magnus, exact for the untruncated oscillator:
        # <0|U_s(t)|0> = exp(-i r (x - sin x) - r (1 - cos x)),
        # r = (g s / delta)^2, x = delta t
        d = make(theta)
        t = (1.0 + fraction) * tau(d)
        x = d.delta * t
        s, w = np.linalg.eigh(d.spin)
        r = (d.coupling * s / d.delta) ** 2
        expected = (w * np.exp(-1j * r * (x - np.sin(x))
                               - r * (1 - np.cos(x)))) @ w.conj().T
        block = vacuum_block(oracle_propagator(d, t, N_FOCK), N_FOCK)
        assert np.max(np.abs(block - expected)) < 1e-12


class TestEffectiveGate:
    """The spin gate one closed loop of the oracle leaves."""

    def test_sz_closed_form(self):
        # (sz1+sz2)^2 = 2 + 2 ZZ: theta = pi/4 is a ZZ(pi) interaction
        d = model_sz(np.pi / 4)
        g = closure_gate(d)
        assert unitary_trace_distance(g, closed_gate(d)) < 1e-5
        zz = linalg.tensor(linalg.SIGMA_Z, linalg.SIGMA_Z)
        assert max_phase_diff(expm_hermitian(zz, np.pi / 2), g) < 1e-4

    def test_sx_closed_form(self):
        d = model_sx(np.pi / 8)
        g = closure_gate(d)
        assert unitary_trace_distance(g, closed_gate(d)) < 1e-5
        xx = linalg.tensor(linalg.SIGMA_X, linalg.SIGMA_X)
        assert max_phase_diff(expm_hermitian(xx, np.pi / 4), g) < 1e-4

    def test_detuning_doubled_theta_quartered(self):
        d = model_sx(np.pi / 8)
        d2 = d._replace(delta=2 * d.delta)
        quarter = expm_hermitian(d.spin @ d.spin, np.pi / 32)
        assert unitary_trace_distance(closure_gate(d2), quarter) < 1e-5

    def test_commutes_with_pair_coupling(self):
        gz = closure_gate(model_sz())
        zz = linalg.tensor(linalg.SIGMA_Z, linalg.SIGMA_Z)
        assert np.max(np.abs(gz @ zz - zz @ gz)) < 1e-8
        gx = closure_gate(model_sx())
        xx = linalg.tensor(linalg.SIGMA_X, linalg.SIGMA_X)
        assert np.max(np.abs(gx @ xx - xx @ gx)) < 1e-8


class TestTimingScan:
    def test_closure_point(self):
        assert off_resonant_error_scan(np.pi / 8, [0.0]) == [(0.0, 0.0)]

    def test_monotone_near_closure(self):
        rows = dict(off_resonant_error_scan(np.pi / 8, [0.0, 0.01, 0.05, 0.1]))
        assert rows[0.01] > rows[0.0]
        assert rows[0.05] > rows[0.01]
        assert rows[0.1] > rows[0.05]

    def test_golden_value(self):
        rows = dict(off_resonant_error_scan(np.pi / 8, [0.05]))
        assert rows[0.05] == pytest.approx(GOLDEN_TIMING_INFIDELITY_5PCT,
                                           rel=1e-6)

    def test_fraction_range_enforced(self):
        for f in (0.6, -0.5, 0.5):
            with pytest.raises(ValidationError):
                off_resonant_error_scan(np.pi / 8, [f])

    @pytest.mark.parametrize("spin_phase", [-1e-300, -1.0])
    def test_negative_spin_phase_refused(self, spin_phase):
        with pytest.raises(ValidationError):
            off_resonant_error_scan(spin_phase, [0.0])

    def test_csv_output(self):
        rows = off_resonant_error_scan(np.pi / 8, [0.0, 0.02])
        lines = scan_csv_text(rows).strip().splitlines()
        assert lines[0] == "fraction,infidelity"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.0

    @settings(deadline=None, max_examples=200)
    @given(rows=st.lists(st.tuples(
        st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True) | st.floats(),
        st.floats(allow_subnormal=True)), max_size=8))
    @example(rows=[(-0.0, 5e-324), (1e16, -2.2250738585072014e-308),
                   (0.49999999999999994, 1e-7)])
    def test_csv_matches_the_csv_module(self, rows):
        # the text is joined by hand; csv.writer is the reference for its bytes
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["fraction", "infidelity"])
        writer.writerows(rows)
        assert scan_csv_text(rows) == buf.getvalue()

    @settings(deadline=None, max_examples=40)
    @given(make=st.sampled_from([model_sz, model_sx]),
           theta=st.floats(0.0, 3.0),
           fraction=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
           delta=st.floats(1.0, 1e6))
    def test_matches_oracle(self, make, theta, fraction, delta):
        # the rows depend on neither the spin kind nor the detuning; 40
        # levels hold the coherent state of |alpha|^2 <= 24 / pi to 1e-15
        (_, got), = off_resonant_error_scan(theta, [fraction])
        (_, want), = oracle_scan(make(theta, delta), [fraction], n_fock=40)
        assert abs(got - want) < 1e-12


class TestLeakageInfidelity:
    """The oracle's Kraus infidelity."""

    def test_perfect_gate_zero(self):
        d = model_sz()
        u = oracle_propagator(d, tau(d), N_FOCK)
        assert kraus_infidelity(u, closed_gate(d), N_FOCK) < 1e-8

    def test_wrong_ideal_large(self):
        d = model_sz(np.pi / 4)
        u = oracle_propagator(d, tau(d), N_FOCK)
        assert kraus_infidelity(u, np.eye(4, dtype=complex), N_FOCK) > 0.1
