"""Direct, slow forms of the motional dynamics and of the noise shots,
kept as test oracles, and small helpers the tests share.

:func:`midpoint_propagator` multiplies out dense matrix exponentials of
the time-dependent Hamiltonian, one per step, with no use of the
interaction-frame structure that :func:`dfsqc.motional.propagate` rests
on.  ``tests/test_motional.py`` checks that it converges to
``propagate`` at second order in the step.  :func:`shot_unitaries`
multiplies out every noisy pulse of every shot, rebuilding each jittered
z pulse at its drawn angle, and :func:`dense_collective_phase` is the
dense collective phase; ``tests/test_noise.py`` checks
``dfsqc.noise._shot_unitaries`` against them.  :func:`max_phase_diff`
compares two matrices or states up to a global phase, and
:func:`sequence_from_json` reads back a ``dump-sequence`` document.
"""

import dataclasses

import numpy as np

from dfsqc import linalg
from dfsqc.encoding import LogicalRegister
from dfsqc.gates import AC_STARK_Z, PulseOp, PulseSequence
from dfsqc.motional import propagate
from dfsqc.noise import noisy_op_unitary


def hamiltonian(model, t):
    """Instantaneous ``H(t)`` on the spin (x) oscillator space."""
    nf = model.n_fock
    a = np.diag(np.sqrt(np.arange(1, nf, dtype=float)), 1).astype(complex)
    drive = model.coupling * (a * np.exp(1j * model.delta * t)
                              + a.conj().T * np.exp(-1j * model.delta * t))
    return np.kron(model.spin_operator(), drive)


def midpoint_propagator(model, t, n_steps):
    """Product of ``n_steps`` exponentials of ``H`` at the step midpoints."""
    dt = t / n_steps
    u = np.eye(4 * model.n_fock, dtype=complex)
    for k in range(n_steps):
        u = linalg.expm_hermitian(hamiltonian(model, (k + 0.5) * dt), dt) @ u
    return u


def midpoint_errors(model, t, steps):
    """Largest entry error of the midpoint product against ``propagate``,
    for each step count in ``steps``."""
    exact = propagate(model, t)
    return [float(np.max(np.abs(midpoint_propagator(model, t, n) - exact)))
            for n in steps]


def max_phase_diff(a, b):
    """Largest entrywise deviation of ``b`` from ``a`` up to a global phase."""
    return float(np.max(np.abs(a - linalg.phase_aligned(a, b))))


def sequence_from_json(doc):
    """The pulse sequence a ``PulseSequence.to_json`` document describes."""
    return PulseSequence(ops=[PulseOp(**op) for op in doc["ops"]],
                         register=LogicalRegister.from_json(doc["register"]))


def dense_collective_phase(n_ions, phi):
    """``exp(-i phi/2 sum_k sigma_z_k)`` from the dense Kronecker sum."""
    total = sum(linalg.tensor(*[linalg.SIGMA_Z if i == k else linalg.ID2
                                for i in range(n_ions)])
                for k in range(n_ions))
    return linalg.expm_hermitian(total, phi / 2)


def shot_unitaries(seq, model, n_samples, seed):
    """Sequence unitary of each shot, one noisy pulse at a time: shot ``i``
    draws from ``default_rng((seed, i))`` an angle error per ``ACStarkZ``
    pulse in order when the jitter is on, then the collective phase."""
    n_ions = seq.register.n_ions
    jitter, collective = model.ac_stark_phase_jitter_std, model.collective_phase_std
    shots = []
    for i in range(n_samples if model.is_stochastic else 1):
        rng = np.random.default_rng((seed, i))
        u = np.eye(seq.register.dim, dtype=complex)
        for op in seq.ops:
            if jitter > 0 and op.kind == AC_STARK_Z:
                op = dataclasses.replace(op, angle=op.angle + rng.normal(0.0, jitter))
            u = noisy_op_unitary(op, n_ions, model.addressing_ratio,
                                 model.intensity_imbalance) @ u
        if collective > 0:
            u = dense_collective_phase(n_ions, rng.normal(0.0, collective)) @ u
        shots.append(u)
    return shots
