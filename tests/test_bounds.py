"""Bounds of the library's parameter classes refuse NaN as well as values
on the wrong side: each check is written so that a comparison with NaN,
which is always false, fails it."""

import math

import pytest

from dfsqc.encoding import coherence_ratio
from dfsqc.errors import ValidationError
from dfsqc.gates import GateParams
from dfsqc.motional import DrivenOscillatorModel, coupling_for_phase, propagate
from dfsqc.noise import NoiseModel

NAN = math.nan


@pytest.mark.parametrize("build", [
    lambda: NoiseModel(addressing_ratio=NAN),
    lambda: NoiseModel(intensity_imbalance=NAN),
    lambda: NoiseModel(ac_stark_phase_jitter_std=NAN),
    lambda: NoiseModel(collective_phase_std=NAN),
    lambda: NoiseModel(ac_stark_phase_jitter_std=NAN, collective_phase_std=NAN),
    lambda: GateParams(delta_ms=NAN),
    lambda: GateParams(delta_cp=NAN),
    lambda: DrivenOscillatorModel(coupling=1.0, delta=NAN),
    lambda: propagate(DrivenOscillatorModel(coupling=1.0, delta=1.0), NAN),
    lambda: coupling_for_phase(NAN, 1.0),
    lambda: coherence_ratio(NAN, 1000, seed=1),
], ids=["addressing_ratio", "intensity_imbalance", "jitter_std",
        "collective_std", "both_stds", "delta_ms", "delta_cp", "delta",
        "propagate_time", "spin_phase", "phi_std"])
def test_nan_refused(build):
    with pytest.raises(ValidationError):
        build()
