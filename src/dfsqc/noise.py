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
both average in closed form, with no sampling.  A jitter ``delta`` on a
z pulse multiplies its unitary by ``exp(-i delta/2 s)``, with ``s`` the
pulse's z eigenvalues; its average multiplies entry ``jk`` of the state
right after that pulse by ``exp(-sigma^2 (s_j - s_k)^2 / 8)``.  The
jitters of different pulses are independent, so the masks of each
jittered pulse, applied in pulse order, are the whole jitter average.
The collective phase acts after the sequence, so it is averaged last,
by one mask of :func:`~dfsqc.encoding.collective_dephasing`.
:func:`sample_noisy_channel` applies this averaged channel to a density
matrix or a stack of them; it draws nothing, so its result depends on
the sequence, model and inputs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .encoding import collective_dephasing
from .errors import DimensionError, ValidationError
from .gates import (AC_STARK_Z, CP_GATE, MS_ROTATION, PulseOp,
                    PulseSequence, pulse_unitary)


@dataclass(frozen=True)
class NoiseModel:
    """Error-channel parameters attachable to any pulse sequence."""

    addressing_ratio: float = 0.05
    intensity_imbalance: float = 0.0
    ac_stark_phase_jitter_std: float = 0.0
    collective_phase_std: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.addressing_ratio < 1.0:
            raise ValidationError("addressing_ratio must lie in [0, 1)")
        if not -1.0 < self.intensity_imbalance < 1.0:
            raise ValidationError("intensity_imbalance must lie in (-1, 1)")
        if not (0 <= self.ac_stark_phase_jitter_std < np.inf
                and 0 <= self.collective_phase_std < np.inf):
            raise ValidationError(
                "jitter standard deviations must be finite and >= 0")

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseModel":
        return cls(**{k: float(v) for k, v in obj.items()})

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


def _weights(op: PulseOp, n_ions: int, ratio: float, epsilon: float) -> dict:
    """Weight of the pulse's Pauli on each ion: ``1 + epsilon`` on the first
    addressed ion of a two-ion pulse, 1 on the other addressed ions and
    ``ratio`` on the string neighbors."""
    weights = {t: 1.0 for t in op.targets}
    if op.kind in (MS_ROTATION, CP_GATE):
        weights[op.targets[0]] += epsilon
    for n in string_neighbors(op.targets, n_ions):
        weights[n] = ratio
    return weights


def noisy_op_unitary(op: PulseOp, n_ions: int, ratio: float = 0.0,
                     epsilon: float = 0.0) -> np.ndarray:
    """Unitary of one pulse under coherent crosstalk and imbalance, built by
    :func:`~dfsqc.gates.pulse_unitary` from the pulse's noisy weights."""
    return pulse_unitary(op, n_ions, _weights(op, n_ions, ratio, epsilon))


def sample_noisy_channel(seq: PulseSequence, rho: np.ndarray,
                         model: Optional[NoiseModel]) -> np.ndarray:
    """Noise-averaged output of the sequence for one or a stack of inputs.

    ``rho`` holds density matrices, shape ``(..., dim, dim)``.  Each pulse
    conjugates them by its noisy unitary, :func:`noisy_op_unitary`.
    A jittered ``ACStarkZ`` pulse with z eigenvalues ``s`` is then averaged
    over its Gaussian angle error: entry ``jk`` is multiplied by
    ``exp(-sigma^2 (s_j - s_k)^2 / 8)``.
    The collective phase is averaged last, by
    :func:`~dfsqc.encoding.collective_dephasing`.  ``model=None`` is the
    ideal sequence, ``U rho U+`` with ``U = sequence_unitary(seq)``.
    """
    d, n_ions = seq.register.dim, seq.register.n_ions
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise DimensionError(
            f"input shape {rho.shape} does not end in the register's ({d}, {d})")
    jitter = 0.0 if model is None else model.ac_stark_phase_jitter_std
    for op in seq.ops:
        if model is None:
            u = pulse_unitary(op, n_ions)
        else:
            ratio, epsilon = model.addressing_ratio, model.intensity_imbalance
            u = noisy_op_unitary(op, n_ions, ratio, epsilon)
        rho = u @ rho @ u.conj().T
        if jitter > 0 and op.kind == AC_STARK_Z:
            s = linalg.z_eigenvalues(n_ions, _weights(op, n_ions, ratio, epsilon))
            # sigma times the difference first, so that a huge sigma masks
            # the coherences to 0.0 through an overflow to inf, never NaN
            with np.errstate(over="ignore"):
                rho = rho * np.exp(-(jitter * (s[:, None] - s[None, :])) ** 2 / 8)
    return rho if model is None else collective_dephasing(
        rho, model.collective_phase_std)
