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
from dfsqc.gates import circuit_unitary, compile_circuit
from dfsqc.noise import CALIBRATED_NOISE, sample_noisy_channel

reg = LogicalRegister(2)
bell = [("x", 0, np.pi / 2), ("cnot", 0, 1)]
ops = compile_circuit(bell, reg)
# input k's ideal Bell state is column k of the circuit's logical unitary
ideal = circuit_unitary(bell)

# the four encoded basis inputs go through each channel as one stack
labels = [format(k, "02b") for k in range(4)]
psi = np.stack([encode(reg, bits) for bits in labels])
inputs = psi[:, :, None] * psi[:, None, :].conj()

print("noise-free generation")
print("input   fidelity      permanence")
ideal_out = sample_noisy_channel(ops, inputs, None)
for k, (bits, rho) in enumerate(zip(labels, ideal_out)):
    perm, fid, _, _ = dfs_report(rho, ideal[:, k], reg)
    print(f"  {bits}   {fid:.12f}  {perm:.12f}")

print("\ncalibrated noise model:", CALIBRATED_NOISE)
print("input   fidelity  permanence  overall")
noisy_out = sample_noisy_channel(ops, inputs, CALIBRATED_NOISE)
for k, (bits, rho) in enumerate(zip(labels, noisy_out)):
    perm, fid, overall, _ = dfs_report(rho, ideal[:, k], reg)
    print(f"  {bits}   {fid:8.4f}  {perm:10.4f}  {overall:7.4f}")

print("\nfor context, a published ion-string experiment reached Bell "
      "fidelities of {89, 91, 91, 92}% at permanences of "
      "{90.2, 94.3, 83.9, 86.0}%")
