# The universal encoded gate set and the compiled CNOT.
#
# Single-qubit z rotations come from an AC-Stark pulse on one ion of the
# pair, x rotations from a collective-spin pulse on both ions, and the
# two-qubit interaction from a phase gate on the two center ions of
# adjacent pairs.  The CNOT compiles into nine pulses whose composition,
# restricted to the encoded subspace, reproduces the target matrix up to
# a global phase.

import numpy as np

from dfsqc.encoding import LogicalRegister, restrict_to_dfs
from dfsqc.gates import (CNOT_LOGICAL, compile_cnot, ms_pulse, pulse_unitary,
                         sequence_unitary, z_pulse)


def canonicalize_phase(m, tol=1e-9):
    """Fix the global phase so the first entry of magnitude above ``tol``
    (row-major scan) is real and positive."""
    flat = np.asarray(m, dtype=complex).ravel()
    for x in flat:
        if abs(x) > tol:
            return m * (abs(x) / x)
    return np.array(m, copy=True)


reg = LogicalRegister(2)

# single-qubit rotations restricted to the logical basis: an AC-Stark pulse
# on the second ion of the pair, and a collective-spin pulse on both ions
print("logical Z(pi/2) block:")
z = pulse_unitary(z_pulse(np.pi / 2, 0, reg), reg.n_ions)
print(np.round(restrict_to_dfs(z, reg), 4))
print("\nlogical X(pi/2) block:")
x = pulse_unitary(ms_pulse(np.pi / 2, 0, reg), reg.n_ions)
print(np.round(restrict_to_dfs(x, reg), 4))

# the compiled CNOT pulse sequence
ops = compile_cnot(control=0, target=1, register=reg)
print("\npulse sequence (control = qubit 0, target = qubit 1):")
for i, op in enumerate(ops):
    print(f"  {i + 1}. {op.kind:11s} ions {op.targets}  angle "
          f"{op.angle / np.pi:+.2f} pi   duration {op.duration * 1e6:7.1f} us")
print(f"total duration: {sum(op.duration for op in ops) * 1e6:.1f} us")

u = restrict_to_dfs(sequence_unitary(ops, reg.n_ions), reg)
print("\ncomposed unitary on the logical basis (phase canonicalized):")
print(np.round(canonicalize_phase(u), 6))
print("\ntarget matrix:")
print(np.round(canonicalize_phase(CNOT_LOGICAL), 6))
print("\nmax deviation:",
      np.max(np.abs(canonicalize_phase(u) - canonicalize_phase(CNOT_LOGICAL))))
