# Storing a qubit in a pair of ions so that collective dephasing cannot
# touch it.
#
# A logical qubit lives in the single-excitation subspace of two ions,
# |0>_L = |10>_P and |1>_L = |01>_P.  A phase kick common to all ions
# leaves every state in that subspace untouched, while a bare physical
# superposition dephases away.  The phase is Gaussian, and the channel
# below is its exact average, not a sample of it.

import numpy as np

from dfsqc.encoding import (LogicalRegister, coherence_ratio,
                            collective_dephasing, encode)

reg = LogicalRegister(1)
print("encoded |0>_L =", np.real_if_close(encode(reg, "0")))
print("encoded |1>_L =", np.real_if_close(encode(reg, "1")))

# A logical superposition under heavy collective phase noise
psi_l = (encode(reg, "0") + encode(reg, "1")) / np.sqrt(2)
rho_l = np.outer(psi_l, psi_l.conj())
out_l = collective_dephasing(rho_l, np.pi)
print("\nlogical state change under phi_std = pi noise:",
      np.max(np.abs(out_l - rho_l)))

# The same experiment on a bare physical qubit
psi_p = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
rho_p = np.outer(psi_p, psi_p.conj())
out_p = collective_dephasing(rho_p, np.pi)
print("physical coherence left:", 2 * abs(out_p[0, 1]),
      " (analytic exp(-pi^2/2) =", np.exp(-np.pi ** 2 / 2), ")")

# Coherence ratio as a function of the noise strength
print("\nphi_std   coherence ratio (logical / physical)")
for std in (0.5, 1.0, 2.0, np.pi):
    print(f"  {std:5.2f}   {coherence_ratio(std):10.1f}")
print("\nat phi_std = pi the encoded qubit keeps its coherence more than "
      "a hundred times better")
