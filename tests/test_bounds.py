"""Bounds of the library's parameter classes refuse NaN and infinities as
well as values on the wrong side: each check is written so that a
comparison with NaN, which is always false, fails it, and the noise
parameters and phase spreads are bounded above by infinity."""

import math

import numpy as np
import pytest

from dfsqc.encoding import coherence_ratio, collective_dephasing
from dfsqc.errors import ValidationError
from dfsqc.motional import off_resonant_error_scan
from dfsqc.noise import NoiseModel

NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: NoiseModel(addressing_ratio=NAN),
    lambda: NoiseModel(intensity_imbalance=NAN),
    lambda: NoiseModel(ac_stark_phase_jitter_std=NAN),
    lambda: NoiseModel(collective_phase_std=NAN),
    lambda: NoiseModel(ac_stark_phase_jitter_std=NAN, collective_phase_std=NAN),
    lambda: off_resonant_error_scan(1.0, [NAN]),
    lambda: off_resonant_error_scan(NAN, [0.0]),
    lambda: coherence_ratio(NAN),
    lambda: NoiseModel(addressing_ratio=INF),
    lambda: NoiseModel(intensity_imbalance=INF),
    lambda: NoiseModel(ac_stark_phase_jitter_std=INF),
    lambda: NoiseModel(collective_phase_std=INF),
    lambda: off_resonant_error_scan(INF, [0.0]),
    lambda: coherence_ratio(INF),
    lambda: collective_dephasing(np.eye(4) / 4, INF),
], ids=["addressing_ratio", "intensity_imbalance", "jitter_std",
        "collective_std", "both_stds", "timing_fraction", "spin_phase", "phi_std", "inf_addressing_ratio",
        "inf_intensity_imbalance", "inf_jitter_std", "inf_collective_std",
        "inf_spin_phase", "inf_phi_std", "inf_dephasing_std"])
def test_nan_refused(build):
    with pytest.raises(ValidationError):
        build()
