"""dfsqc: trapped-ion logical qubits in a collective-dephasing-free subspace.

Simulates the universal encoded gate set (AC-Stark z rotations,
collective-spin x rotations, a conditional phase gate on adjacent
pairs), compiles the encoded CNOT pulse sequence, models the dominant
error channels, evaluates the timing error of the driven-oscillator
gate mechanism in closed form, and reproduces the full characterization
pipeline: state and process tomography, chi matrices, permanence, and
Haar-averaged mean gate fidelity.
"""

from . import encoding, gates, linalg, motional, noise, tomography
from .encoding import (LogicalRegister, coherence_ratio, collective_dephasing,
                       decode_in_dfs, embed_in_dfs, encode, restrict_to_dfs)
from .errors import (ConfigError, ConditioningError, DfsqcError,
                     DimensionError, EmptySubspaceError, LayoutError,
                     ValidationError)
from .gates import (CNOT_LOGICAL, PulseOp, PulseSequence,
                    bell_state_logical, compile_cnot, sequence_unitary,
                    x_rotation_logical, z_rotation_logical)
from .linalg import expm_hermitian, fidelity, tensor
from .motional import off_resonant_error_scan
from .noise import CALIBRATED_NOISE, NoiseModel, sample_noisy_channel
from .tomography import (ChiMatrix, chi_from_unitary, dfs_report, haar_report,
                         process_fidelity, process_tomography)

__version__ = "0.1.0"
