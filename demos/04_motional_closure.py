# The driven-oscillator gate mechanism and what a timing error costs.
#
# Both two-ion gates drive the shared oscillator with a spin-dependent
# force H = g (a e^{i delta t} + a+ e^{-i delta t}) S.  The phase-space
# loop closes after tau = 2 pi / delta: the oscillator returns to its
# initial state and the ions are left with the pure spin gate
# exp(-i theta S^2), theta = 2 pi (g / delta)^2.  A pulse that misses tau
# leaves the motion in a coherent state entangled with the spins, the
# off-resonant-excitation error, which has a closed form.

import numpy as np

from dfsqc.gates import TAU_CP, TAU_MS
from dfsqc.motional import off_resonant_error_scan, scan_csv_text

theta = np.pi / 8                   # spin phase of both gates
print(f"x-type collective gate: tau = {TAU_MS * 1e6:.1f} us")
print(f"conditional phase gate: tau = {TAU_CP * 1e6:.1f} us")
print(f"both: g/delta = sqrt(theta / 2 pi) = {np.sqrt(theta / (2 * np.pi)):.4f}")

# the infidelity depends on theta and the fraction alone, so the scan is
# the same for both gates
print("\ntiming-error scan, either gate (fraction of tau missed -> gate infidelity)")
rows = off_resonant_error_scan(theta, [0.0, 0.01, 0.02, 0.05, 0.1, 0.2])
for f, infid in rows:
    print(f"  {f:5.2f}   {infid:.3e}")
with open("timing_scan.csv", "w", newline="") as fh:
    fh.write(scan_csv_text(rows))
print("wrote timing_scan.csv")
