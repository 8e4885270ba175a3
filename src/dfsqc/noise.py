"""Coherent and stochastic error models for pulse sequences.

Four error mechanisms are modeled, all as unitaries or mixtures of
unitaries (so every channel is automatically completely positive and
trace preserving):

* addressing crosstalk: residual light on the string neighbors of the
  addressed ions extends the pulse generator to those ions with the
  Rabi-frequency ratio as weight.  For x-type collective pulses this
  drives population out of the protected subspace; for z-type pulses it
  is diagonal and only dephases within it.
* intensity imbalance: the two addressed ions see different Rabi
  frequencies.  The gate is taken as calibrated on the second ion, so
  the first carries weight ``1 + epsilon``; the collective rotation
  angle then scales by ``1 + epsilon`` and the gate error grows
  quadratically in ``epsilon``.
* AC-Stark phase jitter: intensity fluctuations of the far-detuned beam
  make each z-pulse angle jitter, Gaussian and independent per pulse and
  per run.
* collective phase noise: a quasi-static random phase common to all
  ions, Gaussian per sequence run.  States inside the encoded subspace
  are immune by construction.

Both stochastic terms are Gaussian phases on diagonal generators, so
both average in closed form, with no sampling, by
:func:`~dfsqc.encoding.gaussian_phase_average`.  A jitter ``delta`` on a
z pulse multiplies its unitary by ``exp(-i delta/2 s)``, with ``s`` the
pulse's z eigenvalues; its average multiplies entry ``jk`` of the state
right after that pulse by the Gaussian characteristic function of
``s_j - s_k``.  The jitters of different pulses are independent, so the
masks of each jittered pulse, applied in pulse order, are the whole
jitter average.  The collective phase acts after the sequence, so it is
averaged last, by :func:`~dfsqc.encoding.collective_dephasing`.
:func:`sample_noisy_channel` applies this averaged channel to a density
matrix or a stack of them; it draws nothing, so its result depends on
the pulses, model and inputs only.  It is the one place a pulse acts
on a state: the ideal pulse list is its zero model.
"""

from __future__ import annotations

import collections
from typing import Optional

import numpy as np

from . import linalg
from .encoding import collective_dephasing, gaussian_phase_average
from .errors import ValidationError, finite
from .gates import AC_STARK_Z, CP_GATE, MS_ROTATION, PulseOp, pulse_unitary


class NoiseModel(collections.namedtuple(
        "NoiseModel", "addressing_ratio intensity_imbalance "
        "ac_stark_phase_jitter_std collective_phase_std")):
    """Error-channel parameters attachable to any pulse sequence; a tuple
    checked when built (``_replace`` and ``_make`` check nothing)."""

    __slots__ = ()

    def __new__(cls, addressing_ratio=0.05, intensity_imbalance=0.0,
                ac_stark_phase_jitter_std=0.0, collective_phase_std=0.0):
        values = (addressing_ratio, intensity_imbalance,
                  ac_stark_phase_jitter_std, collective_phase_std)
        self = super().__new__(cls, *(float(finite(name, value))
                                      for name, value in zip(cls._fields, values)))
        if not 0.0 <= self.addressing_ratio < 1.0:
            raise ValidationError("addressing_ratio must lie in [0, 1)")
        if not -1.0 < self.intensity_imbalance < 1.0:
            raise ValidationError("intensity_imbalance must lie in (-1, 1)")
        if self.ac_stark_phase_jitter_std < 0 or self.collective_phase_std < 0:
            raise ValidationError(
                "jitter standard deviations must be finite and >= 0")
        return self

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseModel":
        unknown = [name for name in obj if name not in cls._fields]
        if unknown:
            raise ValidationError(f"{', '.join(map(str, unknown))}: not a field "
                                  f"of NoiseModel, which has {', '.join(cls._fields)}")
        return cls(**obj)

#: Parameter set used by the noisy demos: crosstalk at the measured 5%
#: Rabi ratio plus jitter magnitudes tuned so the encoded Bell states
#: come out in the high-80s to low-90s fidelity range.  The jitter values
#: are calibration choices of this simulator, not measured quantities.
CALIBRATED_NOISE = NoiseModel(
    addressing_ratio=0.05,
    intensity_imbalance=0.08,
    ac_stark_phase_jitter_std=0.3,
    collective_phase_std=0.3,
)


def string_neighbors(targets, n_ions: int) -> tuple:
    """Ions adjacent to the addressed block, clipped to the string."""
    lo, hi = min(targets), max(targets)
    return tuple(i for i in (lo - 1, hi + 1) if 0 <= i < n_ions)


def pulse_weights(op: PulseOp, n_ions: int, model: NoiseModel) -> dict:
    """Weight of the pulse's Pauli on each ion under the model's coherent
    errors: ``1 + intensity_imbalance`` on the first addressed ion of a
    two-ion pulse, 1 on the other addressed ions and ``addressing_ratio``
    on the string neighbors, which are left out at ratio 0."""
    weights = {t: 1.0 for t in op.targets}
    if op.kind in (MS_ROTATION, CP_GATE):
        weights[op.targets[0]] += model.intensity_imbalance
    if model.addressing_ratio > 0:
        weights.update(dict.fromkeys(string_neighbors(op.targets, n_ions),
                                     model.addressing_ratio))
    return weights


def sample_noisy_channel(ops: list, rho: np.ndarray,
                         model: Optional[NoiseModel]) -> np.ndarray:
    """Noise-averaged output of a pulse list for one or a stack of inputs.

    ``rho`` holds density matrices of ``n >= 1`` ions, shape ``(..., 2^n,
    2^n)``, else a :class:`DimensionError`.  Each pulse, first to last,
    conjugates them by its noisy unitary, :func:`~dfsqc.gates.pulse_unitary`
    of its :func:`pulse_weights`.  A jittered ``ACStarkZ`` pulse with z
    eigenvalues ``s`` is then averaged over its Gaussian angle error: entry
    ``jk`` is multiplied by ``exp(-sigma^2 (s_j - s_k)^2 / 8)``.
    The collective phase is averaged last, by
    :func:`~dfsqc.encoding.collective_dephasing`.  ``model=None`` is the
    zero model, whose unit weights and zero standard deviations give the
    ideal pulse unitaries bit for bit and masks of exactly 1.0.
    """
    rho = np.asarray(rho, dtype=complex)
    n_ions = linalg.n_qubits(rho.shape[-2:], 2, 2)
    model = model or NoiseModel(0.0, 0.0, 0.0, 0.0)
    for op in ops:
        weights = pulse_weights(op, n_ions, model)
        u = pulse_unitary(op, n_ions, weights)
        rho = u @ rho @ u.conj().T
        if op.kind == AC_STARK_Z:
            s = linalg.z_eigenvalues(n_ions, weights)
            rho = gaussian_phase_average(rho, s, model.ac_stark_phase_jitter_std)
    return collective_dephasing(rho, model.collective_phase_std)
