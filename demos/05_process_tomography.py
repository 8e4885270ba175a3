# Full characterization of the encoded CNOT.
#
# 16 informationally complete logical inputs are encoded, sent through
# the gate, and read out by state tomography in the physical basis (81
# settings, 100 shots each).  The blocks of the linear-inversion estimates
# on the encoded subspace, not renormalized, determine the process matrix
# chi of the trace-decreasing map onto the subspace, so tr chi is the mean
# permanence.  Averaged over Haar-random logical inputs, chi gives in
# closed form the mean permanence, the mean overall fidelity, and their
# ratio, the mean gate fidelity inside the subspace, (d F + 1)/(d + 1)
# for the process fidelity F and d = 4.

import numpy as np

from dfsqc.encoding import LogicalRegister, embed_in_dfs
from dfsqc.gates import CNOT_LOGICAL, compile_cnot
from dfsqc.noise import CALIBRATED_NOISE, sample_noisy_channel
from dfsqc.tomography import (chi_from_unitary, chi_negative_mass, haar_report,
                              process_fidelity, process_tomography)

reg = LogicalRegister(2)
cnot = compile_cnot(0, 1, reg)


def gate_channel(model):
    """Logical inputs, encoded, through the gate: physical outputs."""
    return lambda rho_l: sample_noisy_channel(cnot, embed_in_dfs(rho_l, reg),
                                              model)


# ideal gate, exact statistics
chi, _ = process_tomography(gate_channel(None), register=reg)
chi_ideal = chi_from_unitary(CNOT_LOGICAL)
print("ideal gate, exact statistics:")
print("  process fidelity:", process_fidelity(chi, chi_ideal))
print("  largest chi entries:", sorted(np.round(np.abs(chi).ravel(), 4))[-4:])

# noisy gate, 100 shots per setting
noisy, perms = process_tomography(gate_channel(CALIBRATED_NOISE), shots=100,
                                  seed=404, register=reg)
print("\ncalibrated noise, 100 shots per setting:")
fid = process_fidelity(noisy, chi_ideal)
print("  process fidelity F: %.4f, (4 F + 1)/5: %.4f" % (fid, (4 * fid + 1) / 5))
print("  input permanences: mean %.4f, min %.4f, max %.4f"
      % (perms.mean(), perms.min(), perms.max()))
print("  tr chi: %.4f" % np.trace(noisy).real)
print("  negative eigenvalue mass of chi, over tr chi: %.4f"
      % chi_negative_mass(noisy))

report = haar_report(noisy, chi_ideal)
print("  mean gate fidelity (in subspace): %.4f" % report["mean_gate_fidelity"])
print("  mean permanence:                  %.4f" % report["mean_permanence"])
print("  mean overall:                     %.4f" % report["mean_overall"])
print("\nfor context, the published experiment reported a mean gate "
      "fidelity of 89(4)%, a mean permanence of 89(7)%, and an overall "
      "fidelity near 79(7)%")
