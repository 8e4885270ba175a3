"""dfsqc: trapped-ion logical qubits in a collective-dephasing-free subspace.

Simulates the universal encoded gate set (AC-Stark z rotations,
collective-spin x rotations, a conditional phase gate on adjacent
pairs), compiles the encoded CNOT pulse sequence, models the dominant
error channels, evaluates the timing error of the driven-oscillator
gate mechanism in closed form, and reproduces the full characterization
pipeline: state and process tomography, chi matrices, permanence, and
Haar-averaged mean gate fidelity.  Import each name from its module.
"""

__version__ = "0.1.0"
