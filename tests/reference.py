"""Direct, slow forms of the motional dynamics, kept as test oracles, and
small helpers the tests share.

:func:`midpoint_propagator` multiplies out dense matrix exponentials of
the time-dependent Hamiltonian, one per step, with no use of the
interaction-frame structure that :func:`dfsqc.motional.propagate` rests
on.  ``tests/test_motional.py`` checks that it converges to
``propagate`` at second order in the step.  :func:`max_phase_diff`
compares two matrices or states up to a global phase, and
:func:`sequence_from_json` reads back a ``dump-sequence`` document.
"""

import numpy as np

from dfsqc import linalg
from dfsqc.encoding import LogicalRegister
from dfsqc.gates import PulseOp, PulseSequence
from dfsqc.motional import propagate


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
