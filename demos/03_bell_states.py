# Generating the four Bell states in the protected subspace.
#
# An X(pi/2) pulse on the control followed by the compiled CNOT maps the
# four logical basis states onto the four Bell states.  Noise-free the
# mapping is exact; with the calibrated error model (5% addressing
# crosstalk, 8% intensity imbalance, AC-Stark and collective phase
# jitter, both averaged exactly) the fidelities land where a real
# ion-string experiment does.

import numpy as np

from dfsqc.encoding import LogicalRegister, dfs_report, encode
from dfsqc.gates import (PulseSequence, bell_state_logical, compile_cnot,
                         ms_pulse)
from dfsqc.noise import CALIBRATED_NOISE, sample_noisy_channel

reg = LogicalRegister(2)
cnot = compile_cnot(0, 1, reg)
prep = ms_pulse(np.pi / 2, 0, reg)
seq = PulseSequence(ops=[prep] + list(cnot.ops), register=reg)

# the four encoded basis inputs go through each channel as one stack
labels = [format(k, "02b") for k in range(4)]
psi = np.stack([encode(reg, bits) for bits in labels])
inputs = psi[:, :, None] * psi[:, None, :].conj()

print("noise-free generation")
print("input   fidelity      permanence")
ideal_out = sample_noisy_channel(seq, inputs, None)
for bits, rho in zip(labels, ideal_out):
    perm, fid, _ = dfs_report(rho, bell_state_logical(bits), reg)
    print(f"  {bits}   {fid:.12f}  {perm:.12f}")

print("\ncalibrated noise model:", CALIBRATED_NOISE)
print("input   fidelity  permanence  overall")
noisy_out = sample_noisy_channel(seq, inputs, CALIBRATED_NOISE)
for bits, rho in zip(labels, noisy_out):
    perm, fid, overall = dfs_report(rho, bell_state_logical(bits), reg)
    print(f"  {bits}   {fid:8.4f}  {perm:10.4f}  {overall:7.4f}")

print("\nfor context, a published ion-string experiment reached Bell "
      "fidelities of {89, 91, 91, 92}% at permanences of "
      "{90.2, 94.3, 83.9, 86.0}%")
